//! Property-based tests for the hardware substrate.

#![cfg(test)]

use crate::layout::{mask_kernel_pointer, Region, GHOST_BASE, GHOST_END};
use crate::mmu::{map_page_raw, AccessKind, Mmu};
use crate::phys::PhysMem;
use crate::pte::{Pte, PteFlags};
use crate::{Counters, Machine, MachineConfig, MetricsRegistry, TlbPolicy};
use crate::{Pfn, VAddr, PAGE_SIZE};
use proptest::prelude::*;

proptest! {
    /// The central sandboxing invariant: for *every* 64-bit address, the
    /// masked pointer is never inside the ghost partition (paper §4.3.1).
    #[test]
    fn mask_never_yields_ghost_address(addr in any::<u64>()) {
        let masked = mask_kernel_pointer(VAddr(addr));
        prop_assert_ne!(Region::of(masked), Region::Ghost);
    }

    /// Addresses below the ghost base pass through untouched — user-space
    /// pointers are unaffected by the instrumentation.
    #[test]
    fn mask_is_identity_below_ghost(addr in 0u64..GHOST_BASE) {
        prop_assert_eq!(mask_kernel_pointer(VAddr(addr)), VAddr(addr));
    }

    /// Masking is idempotent (applying it twice changes nothing) — required
    /// for composed instrumentation passes.
    #[test]
    fn mask_is_idempotent(addr in any::<u64>()) {
        let once = mask_kernel_pointer(VAddr(addr));
        prop_assert_eq!(mask_kernel_pointer(once), once);
    }

    /// Ghost addresses map onto kernel aliases preserving the low 39 bits —
    /// the displacement is exactly "OR bit 39".
    #[test]
    fn mask_preserves_low_bits(off in 0u64..(GHOST_END - GHOST_BASE)) {
        let a = GHOST_BASE + off;
        let m = mask_kernel_pointer(VAddr(a)).0;
        prop_assert_eq!(m & ((1 << 39) - 1), a & ((1 << 39) - 1));
    }

    /// PTE encode/decode roundtrips for all flag combinations and frame
    /// numbers within the architectural range.
    #[test]
    fn pte_roundtrips(pfn in 0u64..(1 << 40), present: bool, write: bool, user: bool, nx: bool) {
        let mut flags = 0;
        if present { flags |= PteFlags::PRESENT; }
        if write { flags |= PteFlags::WRITE; }
        if user { flags |= PteFlags::USER; }
        if nx { flags |= PteFlags::NX; }
        let pte = Pte::new(Pfn(pfn), PteFlags(flags));
        prop_assert_eq!(pte.pfn(), Pfn(pfn));
        prop_assert_eq!(pte.present(), present);
        prop_assert_eq!(pte.writable(), write);
        prop_assert_eq!(pte.user(), user);
        prop_assert_eq!(pte.no_execute(), nx);
    }

    /// Mapping a set of distinct pages and translating them back always
    /// lands in the right frame at the right offset.
    #[test]
    fn mmu_translations_match_mappings(
        pages in proptest::collection::btree_set(0u64..1 << 20, 1..20),
        offset in 0u64..PAGE_SIZE,
    ) {
        let mut phys = PhysMem::new(4096);
        let root = phys.alloc_frame().unwrap();
        let mut mmu = Mmu::new();
        mmu.set_root(root);
        let mut expect = Vec::new();
        for vpn in &pages {
            let frame = phys.alloc_frame().unwrap();
            map_page_raw(&mut phys, root, VAddr(vpn * PAGE_SIZE), Pte::new(frame, PteFlags::user_rw()))
                .unwrap();
            expect.push((vpn * PAGE_SIZE, frame));
        }
        for (base, frame) in expect {
            let pa = mmu
                .translate(&phys, VAddr(base + offset), AccessKind::Read, true)
                .unwrap();
            prop_assert_eq!(pa.pfn(), frame);
            prop_assert_eq!(pa.frame_offset(), offset);
        }
    }

    /// Frame alloc/free maintains exact accounting with no double handouts.
    #[test]
    fn phys_allocator_accounting(ops in proptest::collection::vec(any::<bool>(), 1..200)) {
        let mut phys = PhysMem::new(64);
        let mut held: Vec<Pfn> = Vec::new();
        for alloc in ops {
            if alloc {
                if let Some(f) = phys.alloc_frame() {
                    prop_assert!(!held.contains(&f), "double allocation");
                    held.push(f);
                }
            } else if let Some(f) = held.pop() {
                phys.free_frame(f);
            }
            prop_assert_eq!(phys.free_frames(), 64 - held.len());
        }
    }

    /// Page-local reads always return exactly what was last written.
    #[test]
    fn phys_read_your_writes(
        off in 0u64..4000,
        data in proptest::collection::vec(any::<u8>(), 1..96),
    ) {
        prop_assume!(off as usize + data.len() <= PAGE_SIZE as usize);
        let mut phys = PhysMem::new(4);
        let f = phys.alloc_frame().unwrap();
        phys.write_bytes(f, off, &data);
        let mut back = vec![0u8; data.len()];
        phys.read_bytes(f, off, &mut back);
        prop_assert_eq!(back, data);
    }
}

/// The publish `Machine::sync_tlb_counters` ran on every charge before it
/// became O(1): every core's gauge and the aggregate recomputed from all
/// cores' MMUs, written into `metrics` and mirrored into `counters`.
fn full_tlb_publish(m: &Machine, metrics: &mut MetricsRegistry, counters: &mut Counters) {
    let mut hits = [0u64; 3];
    let mut misses = [0u64; 3];
    let mut evictions = 0u64;
    for i in 0..m.parked.len() {
        let s = if i == m.cur_cpu {
            m.mmu.stats()
        } else {
            m.parked[i].1.stats()
        };
        metrics.set_tlb_cpu(i, s.hits, s.misses, s.evictions);
        for k in 0..3 {
            hits[k] += s.hits[k];
            misses[k] += s.misses[k];
        }
        evictions += s.evictions;
    }
    metrics.set_tlb(hits, misses, evictions);
    let t = metrics.tlb();
    counters.tlb_hits = t.hits;
    counters.tlb_misses = t.misses;
    counters.tlb_evictions = t.evictions;
}

/// One step on a 4-core machine; pages index eight mapped user pages.
#[derive(Debug, Clone)]
enum SmpOp {
    Switch(usize),
    Translate { page: u64, access: u8, user: bool },
    SetRoot,
    Charge(u64),
    ChargeOn(usize, u64),
    FlushPage(u64),
    Sync,
}

fn smp_op() -> impl Strategy<Value = SmpOp> {
    let translate = || {
        (0u64..8, 0u8..3, any::<bool>()).prop_map(|(page, access, user)| SmpOp::Translate {
            page,
            access,
            user,
        })
    };
    prop_oneof![
        (0usize..4).prop_map(SmpOp::Switch),
        translate(),
        translate(),
        Just(SmpOp::SetRoot),
        (0u64..100).prop_map(SmpOp::Charge),
        (0usize..4, 0u64..100).prop_map(|(cpu, n)| SmpOp::ChargeOn(cpu, n)),
        (0u64..8).prop_map(SmpOp::FlushPage),
        Just(SmpOp::Sync),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The O(1) per-charge publish leaves the registry and the `Counters`
    /// mirror exactly where the full per-core loop would after every step:
    /// per-core gauges, the aggregate, and the mirrored totals. Four-entry
    /// TLBs make evictions move too.
    #[test]
    fn tlb_publish_matches_full_per_core_loop(
        ops in proptest::collection::vec(smp_op(), 1..200),
    ) {
        let mut m = Machine::new(MachineConfig {
            phys_frames: 64,
            disk_blocks: 8,
            cpus: 4,
            ..Default::default()
        });
        m.mmu = Mmu::with_tlb(4, TlbPolicy::Lru);
        for (_, mmu) in &mut m.parked {
            *mmu = Mmu::with_tlb(4, TlbPolicy::Lru);
        }
        let root = m.phys.alloc_frame().unwrap();
        let va = |page: u64| VAddr(0x40_0000 + page * PAGE_SIZE);
        for page in 0..8 {
            let frame = m.phys.alloc_frame().unwrap();
            map_page_raw(&mut m.phys, root, va(page), Pte::new(frame, PteFlags::user_rw())).unwrap();
        }
        let mut metrics = MetricsRegistry::new();
        let mut counters = Counters::default();
        for (step, op) in ops.iter().enumerate() {
            // Every step but a translation, a root load and a switch to
            // the active core publishes.
            let publishes = match *op {
                SmpOp::Switch(cpu) => {
                    let moved = cpu != m.cur_cpu();
                    m.switch_cpu(cpu);
                    moved
                }
                SmpOp::Translate { page, access, user } => {
                    let kind = [AccessKind::Read, AccessKind::Write, AccessKind::Execute]
                        [access as usize];
                    let _ = m.mmu.translate(&m.phys, va(page), kind, user);
                    false
                }
                SmpOp::SetRoot => {
                    m.mmu.set_root(root);
                    false
                }
                SmpOp::Charge(n) => {
                    m.charge(n);
                    true
                }
                SmpOp::ChargeOn(cpu, n) => {
                    m.charge_on(cpu, n);
                    true
                }
                SmpOp::FlushPage(page) => {
                    m.tlb_flush_page(va(page).vpn());
                    true
                }
                SmpOp::Sync => {
                    m.sync_tlb_counters();
                    true
                }
            };
            if publishes {
                full_tlb_publish(&m, &mut metrics, &mut counters);
            }
            prop_assert_eq!(m.metrics.tlb(), metrics.tlb(), "step {}: {:?}", step, op);
            prop_assert_eq!(m.metrics.tlb_per_cpu(), metrics.tlb_per_cpu(), "step {}: {:?}", step, op);
            prop_assert_eq!(m.counters.tlb_hits, counters.tlb_hits, "step {}", step);
            prop_assert_eq!(m.counters.tlb_misses, counters.tlb_misses, "step {}", step);
            prop_assert_eq!(m.counters.tlb_evictions, counters.tlb_evictions, "step {}", step);
        }
    }
}
