//! The MMU: a 4-level page walker with a small TLB.
//!
//! Page tables live in simulated physical memory as arrays of 512 raw
//! `Pte` words; the walker reads them exactly as the
//! hardware would. `vg-core` constrains *writes* to these tables (the SVA-OS
//! MMU operations); the walker itself is policy-free.

use crate::layout::{PAddr, Pfn, VAddr, Vpn};
use crate::phys::PhysMem;
use crate::pte::{PageTableLevel, Pte, PteFlags};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

#[cfg(test)]
mod oracle;

/// Kind of memory access, for permission checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch.
    Execute,
}

impl AccessKind {
    /// Stable index for per-kind statistics arrays (Read=0, Write=1,
    /// Execute=2).
    pub fn index(self) -> usize {
        match self {
            AccessKind::Read => 0,
            AccessKind::Write => 1,
            AccessKind::Execute => 2,
        }
    }
}

/// Why a translation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TranslateError {
    /// No root page table loaded.
    NoRoot,
    /// A table entry on the walk was not present.
    NotMapped {
        /// Level at which the walk stopped.
        level: PageTableLevel,
    },
    /// The leaf entry forbids this access.
    Protection {
        /// The offending access kind.
        access: AccessKind,
    },
}

impl std::fmt::Display for TranslateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TranslateError::NoRoot => write!(f, "no page table root loaded"),
            TranslateError::NotMapped { level } => write!(f, "not mapped at {level:?}"),
            TranslateError::Protection { access } => {
                write!(f, "protection violation on {access:?}")
            }
        }
    }
}

impl std::error::Error for TranslateError {}

#[derive(Debug, Clone, Copy)]
struct TlbEntry {
    pfn: Pfn,
    leaf: Pte,
    user_path: bool,
}

/// Hasher for TLB lookups: one folded 64×64→128-bit multiply per key.
/// Fixed (no per-process random seed), so TLB behaviour cannot depend on
/// the host, and far cheaper than SipHash for a single integer key. Vpns
/// chosen to collide can only slow the host: the index never holds more
/// than the TLB capacity, and hashing never changes which entry is hit or
/// evicted.
#[derive(Debug, Default, Clone, Copy)]
struct VpnHasher(u64);

impl Hasher for VpnHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let p = u128::from(self.0 ^ x) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }
}

/// End-of-list marker for [`Tlb`] links.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct TlbSlot {
    vpn: Vpn,
    entry: TlbEntry,
    /// Next slot toward the least recently used end.
    older: u32,
    /// Next slot toward the most recently used end.
    newer: u32,
}

/// The TLB's entries in exact LRU order: a slab of slots threaded on an
/// intrusive doubly linked recency list, plus a vpn → slot index. Lookup,
/// refresh, insert, eviction and flush of one entry are all O(1).
#[derive(Debug)]
struct Tlb {
    index: HashMap<Vpn, u32, BuildHasherDefault<VpnHasher>>,
    slots: Vec<TlbSlot>,
    /// Slots released by [`Tlb::remove`], reused before the slab grows.
    free: Vec<u32>,
    /// Least recently used slot.
    oldest: u32,
    /// Most recently used slot.
    newest: u32,
}

impl Tlb {
    fn new() -> Self {
        Tlb {
            index: HashMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            oldest: NIL,
            newest: NIL,
        }
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    /// Looks `vpn` up and, on a hit, makes it the most recently used entry.
    fn touch(&mut self, vpn: Vpn) -> Option<TlbEntry> {
        let i = *self.index.get(&vpn)?;
        if i != self.newest {
            self.unlink(i);
            self.link_newest(i);
        }
        Some(self.slots[i as usize].entry)
    }

    /// Inserts `vpn` (which must be absent) as the most recently used entry.
    fn insert(&mut self, vpn: Vpn, entry: TlbEntry) {
        let slot = TlbSlot {
            vpn,
            entry,
            older: NIL,
            newer: NIL,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
        };
        self.link_newest(i);
        self.index.insert(vpn, i);
    }

    /// Drops `vpn` if present.
    fn remove(&mut self, vpn: Vpn) {
        if let Some(i) = self.index.remove(&vpn) {
            self.unlink(i);
            self.free.push(i);
        }
    }

    /// Drops the least recently used entry; false if the TLB is empty.
    fn evict_oldest(&mut self) -> bool {
        if self.oldest == NIL {
            return false;
        }
        self.remove(self.slots[self.oldest as usize].vpn);
        true
    }

    fn clear(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.free.clear();
        self.oldest = NIL;
        self.newest = NIL;
    }

    fn unlink(&mut self, i: u32) {
        let TlbSlot { older, newer, .. } = self.slots[i as usize];
        match older {
            NIL => self.oldest = newer,
            o => self.slots[o as usize].newer = newer,
        }
        match newer {
            NIL => self.newest = older,
            n => self.slots[n as usize].older = older,
        }
    }

    fn link_newest(&mut self, i: u32) {
        let prev = self.newest;
        let slot = &mut self.slots[i as usize];
        slot.older = prev;
        slot.newer = NIL;
        match prev {
            NIL => self.oldest = i,
            p => self.slots[p as usize].newer = i,
        }
        self.newest = i;
    }

    /// Resident vpns from least to most recently used.
    #[cfg(test)]
    fn lru_order(&self) -> Vec<Vpn> {
        let mut out = Vec::with_capacity(self.len());
        let mut i = self.oldest;
        while i != NIL {
            out.push(self.slots[i as usize].vpn);
            i = self.slots[i as usize].newer;
        }
        out
    }
}

/// Capacity-eviction policy for the TLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TlbPolicy {
    /// Drop every entry when the TLB fills (the original model — kept for
    /// A/B hit-rate comparisons).
    ClearAll,
    /// Evict only the least-recently-used entry.
    #[default]
    Lru,
}

/// TLB hit/miss/eviction statistics, split by [`AccessKind`]
/// (indexed via [`AccessKind::index`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TlbStats {
    /// Hits per access kind.
    pub hits: [u64; 3],
    /// Misses (full walks) per access kind.
    pub misses: [u64; 3],
    /// Entries discarded by capacity eviction (not by explicit flushes).
    pub evictions: u64,
}

impl TlbStats {
    /// Hits summed over all access kinds.
    pub fn hits_total(&self) -> u64 {
        self.hits.iter().sum()
    }

    /// Misses summed over all access kinds.
    pub fn misses_total(&self) -> u64 {
        self.misses.iter().sum()
    }
}

impl std::ops::AddAssign for TlbStats {
    fn add_assign(&mut self, other: TlbStats) {
        for k in 0..3 {
            self.hits[k] += other.hits[k];
            self.misses[k] += other.misses[k];
        }
        self.evictions += other.evictions;
    }
}

/// MMU state: the active root table and a bounded TLB.
///
/// The TLB keeps its entries in exact LRU order on an intrusive recency
/// list; a translation hit makes the entry the most recently used, and
/// capacity eviction under [`TlbPolicy::Lru`] drops only the stalest
/// entry. Statistics are counted per [`AccessKind`] and never affect
/// charged cycles — the cost model charges translations identically
/// whether they hit or miss.
#[derive(Debug)]
pub struct Mmu {
    root: Option<Pfn>,
    tlb: Tlb,
    capacity: usize,
    policy: TlbPolicy,
    stats: TlbStats,
}

impl Default for Mmu {
    fn default() -> Self {
        Self::new()
    }
}

/// Default TLB capacity, matching the original model.
pub const DEFAULT_TLB_CAPACITY: usize = 1024;

impl Mmu {
    /// Creates an MMU with no root loaded and the default LRU TLB.
    pub fn new() -> Self {
        Self::with_tlb(DEFAULT_TLB_CAPACITY, TlbPolicy::default())
    }

    /// Creates an MMU with an explicit TLB capacity and eviction policy.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_tlb(capacity: usize, policy: TlbPolicy) -> Self {
        assert!(capacity > 0, "TLB capacity must be non-zero");
        Mmu {
            root: None,
            tlb: Tlb::new(),
            capacity,
            policy,
            stats: TlbStats::default(),
        }
    }

    /// Loads a new root table (like writing CR3) and flushes the TLB.
    pub fn set_root(&mut self, root: Pfn) {
        self.root = Some(root);
        self.flush_all();
    }

    /// The active root, if any.
    pub fn root(&self) -> Option<Pfn> {
        self.root
    }

    /// Invalidates one page translation (like `invlpg`).
    pub fn flush_page(&mut self, vpn: Vpn) {
        self.tlb.remove(vpn);
    }

    /// Invalidates the whole TLB.
    pub fn flush_all(&mut self) {
        self.tlb.clear();
    }

    /// Current TLB statistics.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// The eviction policy in effect.
    pub fn policy(&self) -> TlbPolicy {
        self.policy
    }

    /// Clears hit/miss/eviction statistics.
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }

    /// Translates `va` for `access` at the given privilege.
    ///
    /// `user` means the access executes in user mode, requiring the USER bit
    /// along the whole walk.
    ///
    /// # Errors
    ///
    /// See [`TranslateError`].
    pub fn translate(
        &mut self,
        phys: &PhysMem,
        va: VAddr,
        access: AccessKind,
        user: bool,
    ) -> Result<PAddr, TranslateError> {
        let vpn = va.vpn();
        let entry = if let Some(e) = self.tlb.touch(vpn) {
            self.stats.hits[access.index()] += 1;
            e
        } else {
            self.stats.misses[access.index()] += 1;
            let e = walk(self.root, phys, va)?;
            if self.tlb.len() >= self.capacity {
                match self.policy {
                    TlbPolicy::ClearAll => {
                        self.stats.evictions += self.tlb.len() as u64;
                        self.flush_all();
                    }
                    TlbPolicy::Lru => {
                        if self.tlb.evict_oldest() {
                            self.stats.evictions += 1;
                        }
                    }
                }
            }
            self.tlb.insert(vpn, e);
            e
        };
        check_access(entry, va, access, user)
    }

    /// Performs a full walk without consulting or filling the TLB. Returns
    /// the leaf PTE — used by `vg-core` for inspection.
    pub fn walk_leaf(&self, phys: &PhysMem, va: VAddr) -> Result<Pte, TranslateError> {
        walk(self.root, phys, va).map(|e| e.leaf)
    }
}

/// Applies a translation's permission checks to a (cached or walked) entry.
fn check_access(
    entry: TlbEntry,
    va: VAddr,
    access: AccessKind,
    user: bool,
) -> Result<PAddr, TranslateError> {
    if user && !entry.user_path {
        return Err(TranslateError::Protection { access });
    }
    match access {
        AccessKind::Read => {}
        AccessKind::Write => {
            if !entry.leaf.writable() {
                return Err(TranslateError::Protection { access });
            }
        }
        AccessKind::Execute => {
            if entry.leaf.no_execute() {
                return Err(TranslateError::Protection { access });
            }
        }
    }
    Ok(PAddr(
        entry.pfn.0 * crate::layout::PAGE_SIZE + va.page_offset(),
    ))
}

/// Walks the tables under `root` for `va`.
fn walk(root: Option<Pfn>, phys: &PhysMem, va: VAddr) -> Result<TlbEntry, TranslateError> {
    let mut table = root.ok_or(TranslateError::NoRoot)?;
    let mut user_path = true;
    for level in PageTableLevel::WALK {
        let idx = level.index(va.0);
        let raw = phys.read_u64(table, idx * 8);
        let pte = Pte(raw);
        if !pte.present() {
            return Err(TranslateError::NotMapped { level });
        }
        user_path &= pte.user();
        if level == PageTableLevel::L1 {
            return Ok(TlbEntry {
                pfn: pte.pfn(),
                leaf: pte,
                user_path,
            });
        }
        table = pte.pfn();
    }
    unreachable!("walk covers all levels")
}

/// Helper used by tests and the kernel's page-table construction: writes a
/// PTE word into a table frame.
pub fn write_pte(phys: &mut PhysMem, table: Pfn, index: u64, pte: Pte) {
    phys.write_u64(table, index * 8, pte.0);
}

/// Reads a PTE word from a table frame.
pub fn read_pte(phys: &PhysMem, table: Pfn, index: u64) -> Pte {
    Pte(phys.read_u64(table, index * 8))
}

/// Builds (allocating as needed) the walk down to the L1 slot for `va` and
/// installs `leaf` there. Intermediate nodes get [`PteFlags::table`] flags.
///
/// This is the *mechanism* used by tests and by the kernel when it prepares
/// page-table updates to submit to SVA-OS; under Virtual Ghost the kernel
/// submits the resulting writes through checked operations instead.
///
/// Returns `None` if physical memory is exhausted.
pub fn map_page_raw(phys: &mut PhysMem, root: Pfn, va: VAddr, leaf: Pte) -> Option<()> {
    let mut table = root;
    for level in [PageTableLevel::L4, PageTableLevel::L3, PageTableLevel::L2] {
        let idx = level.index(va.0);
        let pte = read_pte(phys, table, idx);
        let next = if pte.present() {
            pte.pfn()
        } else {
            let frame = phys.alloc_frame()?;
            write_pte(phys, table, idx, Pte::new(frame, PteFlags::table()));
            frame
        };
        table = next;
    }
    write_pte(phys, table, PageTableLevel::L1.index(va.0), leaf);
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::PAGE_SIZE;

    fn setup() -> (PhysMem, Mmu, Pfn) {
        let mut phys = PhysMem::new(256);
        let root = phys.alloc_frame().unwrap();
        let mut mmu = Mmu::new();
        mmu.set_root(root);
        (phys, mmu, root)
    }

    #[test]
    fn translate_simple_mapping() {
        let (mut phys, mut mmu, root) = setup();
        let frame = phys.alloc_frame().unwrap();
        map_page_raw(
            &mut phys,
            root,
            VAddr(0x4000),
            Pte::new(frame, PteFlags::user_rw()),
        )
        .unwrap();
        let pa = mmu
            .translate(&phys, VAddr(0x4123), AccessKind::Read, true)
            .unwrap();
        assert_eq!(pa, PAddr(frame.0 * PAGE_SIZE + 0x123));
    }

    #[test]
    fn unmapped_fails_with_level() {
        let (phys, mut mmu, _) = setup();
        let err = mmu
            .translate(&phys, VAddr(0x4000), AccessKind::Read, true)
            .unwrap_err();
        assert_eq!(
            err,
            TranslateError::NotMapped {
                level: PageTableLevel::L4
            }
        );
    }

    #[test]
    fn no_root_fails() {
        let phys = PhysMem::new(4);
        let mut mmu = Mmu::new();
        assert_eq!(
            mmu.translate(&phys, VAddr(0), AccessKind::Read, false),
            Err(TranslateError::NoRoot)
        );
    }

    #[test]
    fn write_to_readonly_fails() {
        let (mut phys, mut mmu, root) = setup();
        let frame = phys.alloc_frame().unwrap();
        let ro = Pte::new(frame, PteFlags::user_rw()).read_only();
        map_page_raw(&mut phys, root, VAddr(0x5000), ro).unwrap();
        assert!(mmu
            .translate(&phys, VAddr(0x5000), AccessKind::Read, true)
            .is_ok());
        assert_eq!(
            mmu.translate(&phys, VAddr(0x5000), AccessKind::Write, true),
            Err(TranslateError::Protection {
                access: AccessKind::Write
            })
        );
    }

    #[test]
    fn user_cannot_touch_kernel_mapping() {
        let (mut phys, mut mmu, root) = setup();
        let frame = phys.alloc_frame().unwrap();
        map_page_raw(
            &mut phys,
            root,
            VAddr(0x6000),
            Pte::new(frame, PteFlags::kernel_rw()),
        )
        .unwrap();
        assert!(mmu
            .translate(&phys, VAddr(0x6000), AccessKind::Read, false)
            .is_ok());
        assert_eq!(
            mmu.translate(&phys, VAddr(0x6000), AccessKind::Read, true),
            Err(TranslateError::Protection {
                access: AccessKind::Read
            })
        );
    }

    #[test]
    fn nx_blocks_execute() {
        let (mut phys, mut mmu, root) = setup();
        let frame = phys.alloc_frame().unwrap();
        map_page_raw(
            &mut phys,
            root,
            VAddr(0x7000),
            Pte::new(frame, PteFlags::user_rw()),
        )
        .unwrap();
        assert_eq!(
            mmu.translate(&phys, VAddr(0x7000), AccessKind::Execute, true),
            Err(TranslateError::Protection {
                access: AccessKind::Execute
            })
        );
    }

    #[test]
    fn tlb_hit_counted_and_stale_until_flush() {
        let (mut phys, mut mmu, root) = setup();
        let f1 = phys.alloc_frame().unwrap();
        map_page_raw(
            &mut phys,
            root,
            VAddr(0x8000),
            Pte::new(f1, PteFlags::user_rw()),
        )
        .unwrap();
        mmu.translate(&phys, VAddr(0x8000), AccessKind::Read, true)
            .unwrap();
        assert_eq!(
            (mmu.stats().hits_total(), mmu.stats().misses_total()),
            (0, 1)
        );
        mmu.translate(&phys, VAddr(0x8010), AccessKind::Read, true)
            .unwrap();
        assert_eq!(
            (mmu.stats().hits_total(), mmu.stats().misses_total()),
            (1, 1)
        );

        // Change the mapping behind the TLB's back: translation is stale...
        let f2 = phys.alloc_frame().unwrap();
        map_page_raw(
            &mut phys,
            root,
            VAddr(0x8000),
            Pte::new(f2, PteFlags::user_rw()),
        )
        .unwrap();
        let stale = mmu
            .translate(&phys, VAddr(0x8000), AccessKind::Read, true)
            .unwrap();
        assert_eq!(stale.pfn(), f1);
        // ...until the page is flushed, as on real hardware.
        mmu.flush_page(VAddr(0x8000).vpn());
        let fresh = mmu
            .translate(&phys, VAddr(0x8000), AccessKind::Read, true)
            .unwrap();
        assert_eq!(fresh.pfn(), f2);
    }

    #[test]
    fn set_root_flushes() {
        let (mut phys, mut mmu, root) = setup();
        let frame = phys.alloc_frame().unwrap();
        map_page_raw(
            &mut phys,
            root,
            VAddr(0x9000),
            Pte::new(frame, PteFlags::user_rw()),
        )
        .unwrap();
        mmu.translate(&phys, VAddr(0x9000), AccessKind::Read, true)
            .unwrap();
        let root2 = phys.alloc_frame().unwrap();
        mmu.set_root(root2);
        assert_eq!(
            mmu.translate(&phys, VAddr(0x9000), AccessKind::Read, true),
            Err(TranslateError::NotMapped {
                level: PageTableLevel::L4
            })
        );
    }

    /// Maps `n` consecutive user pages starting at `base` and returns their
    /// virtual addresses.
    fn map_n(phys: &mut PhysMem, root: Pfn, base: u64, n: usize) -> Vec<VAddr> {
        (0..n)
            .map(|i| {
                let va = VAddr(base + i as u64 * PAGE_SIZE);
                let frame = phys.alloc_frame().unwrap();
                map_page_raw(phys, root, va, Pte::new(frame, PteFlags::user_rw())).unwrap();
                va
            })
            .collect()
    }

    #[test]
    fn lru_evicts_only_the_stalest_entry() {
        let mut phys = PhysMem::new(256);
        let root = phys.alloc_frame().unwrap();
        let mut mmu = Mmu::with_tlb(2, TlbPolicy::Lru);
        mmu.set_root(root);
        let vas = map_n(&mut phys, root, 0x10000, 3);

        mmu.translate(&phys, vas[0], AccessKind::Read, true)
            .unwrap();
        mmu.translate(&phys, vas[1], AccessKind::Read, true)
            .unwrap();
        // Touch vas[0] so vas[1] becomes stalest, then bring in vas[2].
        mmu.translate(&phys, vas[0], AccessKind::Read, true)
            .unwrap();
        mmu.translate(&phys, vas[2], AccessKind::Read, true)
            .unwrap();
        assert_eq!(mmu.stats().evictions, 1);

        // vas[0] and vas[2] must still hit; vas[1] was evicted and misses.
        let before = mmu.stats();
        mmu.translate(&phys, vas[0], AccessKind::Read, true)
            .unwrap();
        mmu.translate(&phys, vas[2], AccessKind::Read, true)
            .unwrap();
        assert_eq!(mmu.stats().hits_total(), before.hits_total() + 2);
        mmu.translate(&phys, vas[1], AccessKind::Read, true)
            .unwrap();
        assert_eq!(mmu.stats().misses_total(), before.misses_total() + 1);
    }

    #[test]
    fn lru_beats_clear_all_on_oversized_working_set() {
        // A hot page re-touched between every cold page keeps hitting under
        // LRU but is periodically wiped under ClearAll, so the LRU hit count
        // must be at least as high — strictly higher for this access string.
        let hit_count = |policy: TlbPolicy| {
            let mut phys = PhysMem::new(2048);
            let root = phys.alloc_frame().unwrap();
            let mut mmu = Mmu::with_tlb(8, policy);
            mmu.set_root(root);
            let hot = map_n(&mut phys, root, 0x10000, 1)[0];
            let cold = map_n(&mut phys, root, 0x100000, 24);
            mmu.translate(&phys, hot, AccessKind::Read, true).unwrap();
            for &c in &cold {
                mmu.translate(&phys, c, AccessKind::Read, true).unwrap();
                mmu.translate(&phys, hot, AccessKind::Read, true).unwrap();
            }
            mmu.stats().hits_total()
        };
        let lru = hit_count(TlbPolicy::Lru);
        let clear_all = hit_count(TlbPolicy::ClearAll);
        assert!(
            lru > clear_all,
            "LRU ({lru} hits) should beat ClearAll ({clear_all} hits)"
        );
    }

    #[test]
    fn stats_split_by_access_kind() {
        let (mut phys, mut mmu, root) = setup();
        let frame = phys.alloc_frame().unwrap();
        map_page_raw(
            &mut phys,
            root,
            VAddr(0xb000),
            Pte::new(frame, PteFlags::user_rw()),
        )
        .unwrap();
        mmu.translate(&phys, VAddr(0xb000), AccessKind::Read, true)
            .unwrap();
        mmu.translate(&phys, VAddr(0xb008), AccessKind::Write, true)
            .unwrap();
        mmu.translate(&phys, VAddr(0xb010), AccessKind::Write, true)
            .unwrap();
        let s = mmu.stats();
        assert_eq!(s.misses, [1, 0, 0]);
        assert_eq!(s.hits, [0, 2, 0]);
        mmu.reset_stats();
        assert_eq!(mmu.stats(), TlbStats::default());
    }

    #[test]
    fn flush_page_and_set_root_invalidate_under_lru() {
        let mut phys = PhysMem::new(256);
        let root = phys.alloc_frame().unwrap();
        let mut mmu = Mmu::with_tlb(4, TlbPolicy::Lru);
        mmu.set_root(root);
        let vas = map_n(&mut phys, root, 0xc000, 2);
        mmu.translate(&phys, vas[0], AccessKind::Read, true)
            .unwrap();
        mmu.translate(&phys, vas[1], AccessKind::Read, true)
            .unwrap();

        // flush_page drops exactly that entry: next touch misses.
        mmu.flush_page(vas[0].vpn());
        let before = mmu.stats();
        mmu.translate(&phys, vas[0], AccessKind::Read, true)
            .unwrap();
        assert_eq!(mmu.stats().misses_total(), before.misses_total() + 1);
        mmu.translate(&phys, vas[1], AccessKind::Read, true)
            .unwrap();
        assert_eq!(mmu.stats().hits_total(), before.hits_total() + 1);

        // set_root drops everything; flushes are not capacity evictions.
        let evictions = mmu.stats().evictions;
        mmu.set_root(root);
        let before = mmu.stats();
        mmu.translate(&phys, vas[0], AccessKind::Read, true)
            .unwrap();
        mmu.translate(&phys, vas[1], AccessKind::Read, true)
            .unwrap();
        assert_eq!(mmu.stats().misses_total(), before.misses_total() + 2);
        assert_eq!(mmu.stats().evictions, evictions);
    }

    #[test]
    fn walk_leaf_reports_flags() {
        let (mut phys, mmu, root) = setup();
        let frame = phys.alloc_frame().unwrap();
        map_page_raw(
            &mut phys,
            root,
            VAddr(0xa000),
            Pte::new(frame, PteFlags::user_code()),
        )
        .unwrap();
        let leaf = mmu.walk_leaf(&phys, VAddr(0xa000)).unwrap();
        assert!(!leaf.no_execute());
        assert!(!leaf.writable());
    }
}
