//! Test-only oracle for the TLB's recency order.
//!
//! This is the TLB the slab-and-list [`Tlb`] replaced: entries in a
//! `HashMap` stamped with a unique, ever-increasing tick, and a
//! `BTreeMap` from tick to vpn as the recency index. A hit re-stamps the
//! entry; [`TlbPolicy::Lru`] eviction pops the smallest tick. The
//! differential proptest below drives random sequences through both and
//! asserts that nothing a caller can observe differs: every translate
//! result, the statistics, and the resident entries in recency order.

use super::*;
use crate::layout::PAGE_SIZE;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The tick-stamped TLB, behind the same walker and permission checks as
/// [`Mmu`].
struct OracleMmu {
    root: Option<Pfn>,
    tlb: HashMap<Vpn, (TlbEntry, u64)>,
    /// Recency index: tick → vpn, oldest first. Ticks are unique.
    order: BTreeMap<u64, Vpn>,
    tick: u64,
    capacity: usize,
    policy: TlbPolicy,
    stats: TlbStats,
}

impl OracleMmu {
    fn with_tlb(capacity: usize, policy: TlbPolicy) -> Self {
        OracleMmu {
            root: None,
            tlb: HashMap::new(),
            order: BTreeMap::new(),
            tick: 0,
            capacity,
            policy,
            stats: TlbStats::default(),
        }
    }

    fn set_root(&mut self, root: Pfn) {
        self.root = Some(root);
        self.flush_all();
    }

    fn flush_page(&mut self, vpn: Vpn) {
        if let Some((_, tick)) = self.tlb.remove(&vpn) {
            self.order.remove(&tick);
        }
    }

    fn flush_all(&mut self) {
        self.tlb.clear();
        self.order.clear();
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn translate(
        &mut self,
        phys: &PhysMem,
        va: VAddr,
        access: AccessKind,
        user: bool,
    ) -> Result<PAddr, TranslateError> {
        let vpn = va.vpn();
        let entry = if let Some(&(e, old_tick)) = self.tlb.get(&vpn) {
            self.stats.hits[access.index()] += 1;
            self.order.remove(&old_tick);
            let tick = self.next_tick();
            self.order.insert(tick, vpn);
            self.tlb.insert(vpn, (e, tick));
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
                        if let Some((_, oldest)) = self.order.pop_first() {
                            self.tlb.remove(&oldest);
                            self.stats.evictions += 1;
                        }
                    }
                }
            }
            let tick = self.next_tick();
            self.order.insert(tick, vpn);
            self.tlb.insert(vpn, (e, tick));
            e
        };
        check_access(entry, va, access, user)
    }

    /// Resident vpns from least to most recently used.
    fn lru_order(&self) -> Vec<Vpn> {
        self.order.values().copied().collect()
    }
}

/// One step of a sequence. Pages index [`page_va`]; `root` picks one of
/// two address spaces.
#[derive(Debug, Clone)]
enum Op {
    Translate {
        page: u8,
        off: u16,
        access: u8,
        user: bool,
    },
    FlushPage(u8),
    FlushAll,
    SetRoot(u8),
    /// Rewrites page `page`'s leaf in the *current* root behind both TLBs'
    /// backs (flags index [`leaf_for`]; 4 clears it), so stale entries are
    /// exercised too.
    Remap {
        page: u8,
        flags: u8,
    },
}

const PAGES: u8 = 20;

/// Pages 0..12 are consecutive user pages; 12..20 sit in the kernel half
/// under a separate L4 slot, so unmapped pages fail at different levels.
fn page_va(page: u8) -> VAddr {
    let p = u64::from(page);
    if p < 12 {
        VAddr(0x40_0000 + p * PAGE_SIZE)
    } else {
        VAddr(0xffff_ff80_0010_0000 + (p - 12) * PAGE_SIZE)
    }
}

fn leaf_for(frame: Pfn, flags: u8) -> Pte {
    match flags % 5 {
        0 => Pte::new(frame, PteFlags::user_rw()),
        1 => Pte::new(frame, PteFlags::user_rw()).read_only(),
        2 => Pte::new(frame, PteFlags::user_code()),
        3 => Pte::new(frame, PteFlags::kernel_rw()),
        _ => Pte(0),
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let page = || 0u8..PAGES;
    let translate = || {
        (0u8..PAGES, 0u16..4096, 0u8..3, any::<bool>()).prop_map(|(page, off, access, user)| {
            Op::Translate {
                page,
                off,
                access,
                user,
            }
        })
    };
    // Translations are three of seven arms, so the TLB fills and evicts
    // between flushes.
    prop_oneof![
        translate(),
        translate(),
        translate(),
        page().prop_map(Op::FlushPage),
        Just(Op::FlushAll),
        (0u8..2).prop_map(Op::SetRoot),
        (page(), 0u8..5).prop_map(|(page, flags)| Op::Remap { page, flags }),
    ]
}

fn access_kind(i: u8) -> AccessKind {
    [AccessKind::Read, AccessKind::Write, AccessKind::Execute][i as usize % 3]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The slab-and-list TLB is observationally the tick-stamped one: same
    /// translations (hits may be stale in both), same per-kind statistics
    /// and evictions, same resident entries in the same recency order.
    #[test]
    fn tlb_matches_tick_lru_oracle(
        capacity in 4usize..9,
        lru: bool,
        ops in proptest::collection::vec(op_strategy(), 1..300),
    ) {
        let policy = if lru { TlbPolicy::Lru } else { TlbPolicy::ClearAll };
        let mut phys = PhysMem::new(512);
        let roots = [phys.alloc_frame().unwrap(), phys.alloc_frame().unwrap()];
        // Root 0 maps every page but each third; root 1 the even pages.
        for page in 0..PAGES {
            let frame = phys.alloc_frame().unwrap();
            for (r, root) in roots.iter().enumerate() {
                let mapped = if r == 0 { page % 3 != 2 } else { page % 2 == 0 };
                if mapped {
                    map_page_raw(&mut phys, *root, page_va(page), leaf_for(frame, page)).unwrap();
                }
            }
        }
        let mut mmu = Mmu::with_tlb(capacity, policy);
        let mut oracle = OracleMmu::with_tlb(capacity, policy);
        let mut cur = 0usize;
        mmu.set_root(roots[cur]);
        oracle.set_root(roots[cur]);
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Translate { page, off, access, user } => {
                    let va = VAddr(page_va(page).0 + u64::from(off));
                    let kind = access_kind(access);
                    let got = mmu.translate(&phys, va, kind, user);
                    let want = oracle.translate(&phys, va, kind, user);
                    prop_assert_eq!(got, want, "step {}: {:?}", step, op);
                }
                Op::FlushPage(page) => {
                    mmu.flush_page(page_va(page).vpn());
                    oracle.flush_page(page_va(page).vpn());
                }
                Op::FlushAll => {
                    mmu.flush_all();
                    oracle.flush_all();
                }
                Op::SetRoot(r) => {
                    cur = r as usize;
                    mmu.set_root(roots[cur]);
                    oracle.set_root(roots[cur]);
                }
                Op::Remap { page, flags } => {
                    let frame = phys.alloc_frame().unwrap();
                    map_page_raw(&mut phys, roots[cur], page_va(page), leaf_for(frame, flags))
                        .unwrap();
                }
            }
            prop_assert_eq!(mmu.stats(), oracle.stats, "step {}: {:?}", step, op);
            prop_assert_eq!(mmu.tlb.lru_order(), oracle.lru_order(), "step {}: {:?}", step, op);
        }
    }
}
