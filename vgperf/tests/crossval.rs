//! Cross-validation: the benchmark's workload code, run at the sizes the
//! checked-in records were taken at, reproduces them exactly.

use vg_apps::smp;
use vg_kernel::{Mode, System};
use vgperf::workloads::{drive, procmix_on, Workload, PROCMIX_SHARDS};

/// `BENCH_net.json` `full_scale.ghostkv`: 1,024 connections, ring data
/// plane, 4 SET/GET pairs of 256-byte values per connection.
#[test]
fn ghostkv_matches_bench_net_full_scale() {
    let w = Workload::GhostkvC10k;
    let r = drive(w, &mut w.boot(Mode::VirtualGhost), 0, 1024);
    assert_eq!(r.latency_p50, 23_336_434);
    assert_eq!(r.latency_p99, 30_766_552);
    // Recorded to one decimal place.
    assert_eq!((r.cycles_per_op() * 10.0).round() / 10.0, 4664.0);
    assert_eq!(r.latency_samples, 1024 * 8);
}

/// `BENCH_smp.json` `lmbench_procmix`: scale 4 is 40 iterations per shard,
/// 8 shards, at 1, 2, 4 and 8 cores. The benchmark's own copy of procmix
/// (its Native twin and traced drive) must match the driver's books too.
#[test]
fn procmix_matches_bench_smp_horizons() {
    const HORIZONS: [(usize, u64); 4] = [
        (1, 52_497_172),
        (2, 29_376_555),
        (4, 14_361_089),
        (8, 10_308_763),
    ];
    for (cpus, horizon) in HORIZONS {
        let driver = smp::procmix(cpus, PROCMIX_SHARDS, 40);
        assert_eq!(driver.horizon_cycles, horizon, "{cpus} cores");
        let copy = procmix_on(
            &mut System::boot_with_cpus(Mode::VirtualGhost, cpus),
            PROCMIX_SHARDS,
            40,
        );
        assert_eq!(copy, driver, "{cpus} cores");
    }
    let w = Workload::ProcmixSmp;
    let r = drive(w, &mut w.boot(Mode::VirtualGhost), 0, 40);
    assert_eq!(r.cycles, 10_308_763);
}
