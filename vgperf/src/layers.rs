//! The traced run: the per-layer metrics. Every layer is read from outside
//! after a drive: the machine's `Counters`, its `CycleProfiler` and flight
//! recorder, plus the harness's own spans around each call into a layer.

use crate::run::{
    books, check_same, host_us_per_op, median, median_by, metric, ratio, rep, timed_reps, twins,
    Metric, Outcome, Rep, MIN_REPS,
};
use crate::spans::Spans;
use crate::workloads::{SimResult, Workload, SSHD_CHUNK};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use vg_apps::smp::SmpBench;
use vg_apps::{lmbench, ssh};
use vg_crypto::aes::Aes128;
use vg_kernel::{Mode, System};
use vg_machine::cost::CYCLES_PER_US;
use vg_machine::Domain;

/// Trace-ring capacity for the traced drive. Events beyond it are still
/// counted (as dropped), so `trace.events_per_op` stays exact.
const TRACE_CAPACITY: usize = 1 << 16;

/// Profiler domains reported per probe: those an LMBench kernel spends
/// cycles in.
const PROBE_DOMAINS: [Domain; 7] = [
    Domain::User,
    Domain::Syscall,
    Domain::Trap,
    Domain::Sva,
    Domain::Mmu,
    Domain::Fault,
    Domain::Sched,
];

/// An LMBench kernel run on its own system: `(name, driver, iterations,
/// ops per iteration)`. procmix boots its systems inside its driver, so
/// these kernels, which its shards run, show where its cycles go.
type Probe = (&'static str, fn(&mut System, u64) -> f64, u64, u64);

/// The probes and the workloads they stand for: `open_close` for postmark
/// and procmix's churn shard, `page_fault` and `fork_exit` for procmix,
/// `select_100` for ghostkv's poll loop, `null_syscall` for the trap path
/// every workload takes.
const PROBES: [Probe; 5] = [
    ("null_syscall", lmbench::null_syscall, 20_000, 1),
    ("open_close", lmbench::open_close, 4_000, 1),
    ("page_fault", lmbench::page_fault, 250, 16),
    ("fork_exit", lmbench::fork_exit, 500, 1),
    ("select_100", lmbench::select_100, 1_000, 1),
];

/// Quarter-size drives behind `apps.host_scaling_x`.
const QUARTER_REPS: usize = MIN_REPS;

/// Asserts the profiler's books on `sys`: every cycle since it was enabled
/// is attributed once, and every frame was popped.
fn check_profiler(sys: &System, what: &str) -> Result<(), String> {
    let clock = sys.machine.clock.cycles();
    catch_unwind(AssertUnwindSafe(|| {
        sys.machine.profiler.assert_conservation(clock)
    }))
    .map_err(|_| format!("{what}: profiler conservation violated"))?;
    match sys.machine.profiler.depth() {
        0 => Ok(()),
        d => Err(format!("{what}: profiler frame depth {d} after the run")),
    }
}

/// Cycles per op in `domain`.
fn domain_per_op(totals: &BTreeMap<Domain, u64>, domain: Domain, ops: f64) -> f64 {
    totals.get(&domain).copied().unwrap_or(0) as f64 / ops
}

/// The traced drive's books, read from its system.
fn machine_layers(
    sys: &mut System,
    ops: u64,
    smp: Option<&SmpBench>,
    uni: Option<&SimResult>,
) -> Vec<Metric> {
    sys.machine.sync_tlb_counters();
    let ops = ops as f64;
    let c = &sys.machine.counters;
    let d = sys.machine.profiler.domain_totals();
    let misses: u64 = c.tlb_misses.iter().sum();
    let lookups = misses + c.tlb_hits.iter().sum::<u64>();
    // Lost cycles against perfect scaling, each given one cause: the extra
    // work the 8-core run did over the 1-core run (coherence: IPIs and
    // shootdowns), and the rest (idle cores waiting on the busiest one).
    let (coherence, idle, steals) = match (smp, uni) {
        (Some(b), Some(u)) => {
            let lost = (b.cpus as u64 * b.horizon_cycles) as f64 - u.cycles as f64;
            let extra = b.total_cycles as f64 - u.cycles as f64;
            (
                ratio(extra, lost),
                ratio(lost - extra, lost),
                b.steals as f64,
            )
        }
        _ => (0.0, 0.0, c.sched_steals as f64),
    };
    vec![
        metric(
            "kernel.syscalls_per_op",
            c.syscalls as f64 / ops,
            "count/op",
        ),
        metric(
            "kernel.syscall_cycles_per_op",
            domain_per_op(&d, Domain::Syscall, ops),
            "cycles/op",
        ),
        metric(
            "kernel.trap_cycles_per_op",
            domain_per_op(&d, Domain::Trap, ops),
            "cycles/op",
        ),
        metric(
            "kernel.disk_blocks_per_op",
            c.disk_blocks as f64 / ops,
            "count/op",
        ),
        metric(
            "kernel.dma_cycles_per_op",
            domain_per_op(&d, Domain::Dma, ops),
            "cycles/op",
        ),
        metric(
            "core.sva_cycles_per_op",
            domain_per_op(&d, Domain::Sva, ops),
            "cycles/op",
        ),
        metric(
            "core.mmu_cycles_per_op",
            domain_per_op(&d, Domain::Mmu, ops),
            "cycles/op",
        ),
        metric(
            "core.fault_cycles_per_op",
            domain_per_op(&d, Domain::Fault, ops),
            "cycles/op",
        ),
        metric(
            "core.pte_updates_per_op",
            c.pte_updates as f64 / ops,
            "count/op",
        ),
        metric(
            "core.page_faults_per_op",
            c.page_faults as f64 / ops,
            "count/op",
        ),
        metric(
            "core.ring_doorbells_per_op",
            c.ring_doorbells as f64 / ops,
            "count/op",
        ),
        metric(
            "core.ring_descs_per_doorbell",
            ratio(c.ring_descs as f64, c.ring_doorbells as f64),
            "count",
        ),
        metric(
            "core.denials",
            sys.machine.trace.flight.total() as f64,
            "count",
        ),
        metric(
            "machine.tlb_miss_ratio",
            ratio(misses as f64, lookups as f64),
            "ratio",
        ),
        metric("machine.ipis_per_op", c.ipis as f64 / ops, "count/op"),
        metric("machine.coherence_cycles_frac", coherence, "ratio"),
        metric("sched.idle_cycles_frac", idle, "ratio"),
        metric("sched.steals", steals, "count"),
        metric(
            "runtime.ghost_pages_per_op",
            c.ghost_pages_allocated as f64 / ops,
            "count/op",
        ),
        metric(
            "user.cycles_per_op",
            domain_per_op(&d, Domain::User, ops),
            "cycles/op",
        ),
        metric(
            "trace.events_per_op",
            (sys.machine.trace.len() as u64 + sys.machine.trace.dropped()) as f64 / ops,
            "count/op",
        ),
    ]
}

/// Host ns per `Aes128::ctr_xor` call on one 8 KiB chunk, the unit sshd
/// encrypts: the median of several timed batches.
fn ctr_8k_host_ns(spans: &mut Spans) -> f64 {
    const CALLS: u32 = 200;
    let cipher = Aes128::new(&ssh::session_key());
    let mut chunk = vec![0x5au8; SSHD_CHUNK];
    let batches: Vec<f64> = (0..9)
        .map(|_| {
            let (_, s) = spans.time("crypto.Aes128::ctr_xor", || {
                for nonce in 0..CALLS {
                    cipher.ctr_xor(black_box(nonce as u64), black_box(&mut chunk));
                }
            });
            s * 1e9 / CALLS as f64
        })
        .collect();
    median(&batches)
}

/// Runs every probe on its own profiled system.
fn probes(spans: &mut Spans) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    for (name, kernel, iters, per_iter) in PROBES {
        let mut sys = System::boot(Mode::VirtualGhost);
        sys.machine.profile_enable();
        let (micros, host_s) = spans.time(&format!("probe.lmbench::{name}"), || {
            kernel(&mut sys, iters)
        });
        check_profiler(&sys, &format!("probe {name}"))?;
        let ops = (iters * per_iter) as f64;
        let d = sys.machine.profiler.domain_totals();
        out.push(metric(
            format!("probe.{name}.host_ns_per_op"),
            host_s * 1e9 / ops,
            "ns/op",
        ));
        out.push(metric(
            format!("probe.{name}.sim_cycles_per_op"),
            micros * CYCLES_PER_US,
            "cycles/op",
        ));
        for domain in PROBE_DOMAINS {
            out.push(metric(
                format!("probe.{name}.{}_cycles_per_op", domain.key()),
                domain_per_op(&d, domain, ops),
                "cycles/op",
            ));
        }
    }
    Ok(out)
}

/// The traced run: every per-layer metric.
pub fn per_layer(w: Workload, seed: u64, seconds: u64) -> Result<(Outcome, Spans), String> {
    let mut spans = Spans::new();
    let size = w.size();
    let run = spans.open(format!("{}.traced_run", w.name()));

    // Untraced drives first: the host baseline and the simulated results
    // the traced drive must reproduce.
    let reps = timed_reps(w, seed, size, seconds, &mut spans)?;
    let (mut attempted, mut failed) = books(&reps);
    let base = reps.iter().find_map(|r| r.sim.clone());
    let untraced_us = host_us_per_op(w, &reps, false);

    let (traced, mut sys) = rep(w, seed, size, true, &mut spans, |sys| {
        sys.machine.profile_enable();
        sys.machine.trace.enable(TRACE_CAPACITY);
    });
    check_same(
        base.as_ref(),
        traced.sim.as_ref(),
        "the traced and untraced drives",
    )?;
    check_profiler(&sys, "traced drive")?;
    attempted += traced.attempted;
    failed += traced.failed;
    let traced_us = host_us_per_op(w, std::slice::from_ref(&traced), true);

    let quarter: Vec<Rep> = (0..QUARTER_REPS)
        .map(|_| rep(w, seed, size / 4, false, &mut spans, |_| {}).0)
        .collect();
    let quarter_sim = quarter.iter().find_map(|r| r.sim.clone());
    let twins = twins(w, seed, size, &mut spans);

    let smp = traced.sim.as_ref().and_then(|s| s.smp.as_ref());
    let mut metrics = machine_layers(&mut sys, traced.attempted, smp, twins.uni.as_ref());
    let drive_s = median_by(&reps, |r| r.drive_only_s(w, false));
    let sim_cycles = base
        .as_ref()
        .map_or(0, |s| s.smp.as_ref().map_or(s.cycles, |b| b.total_cycles));
    let ctr_ns = ctr_8k_host_ns(&mut spans);
    let probe_metrics = probes(&mut spans)?;
    spans.close(run);

    let quarter_us = host_us_per_op(w, &quarter, false);
    let sim_scaling = match (&base, &quarter_sim) {
        (Some(full), Some(q)) => ratio(full.cycles_per_op(), q.cycles_per_op()),
        _ => 0.0,
    };
    metrics.extend([
        metric(
            "machine.sim_mcycles_per_host_s",
            ratio(sim_cycles as f64 / 1e6, drive_s),
            "Mcycles/s",
        ),
        metric("crypto.ctr_8k_host_ns", ctr_ns, "ns"),
        metric("apps.boot_host_s", median_by(&reps, |r| r.boot_s), "s"),
        metric(
            "apps.preload_host_s",
            median_by(&reps, |r| r.preload_s),
            "s",
        ),
        metric("apps.drive_host_s", drive_s, "s"),
        metric(
            "host.calibration_s",
            median_by(&reps, |r| r.calibration_s),
            "s",
        ),
        metric("apps.verify_host_s", median_by(&reps, |r| r.verify_s), "s"),
        metric("apps.host_scaling_x", ratio(untraced_us, quarter_us), "x"),
        metric("apps.sim_scaling_x", sim_scaling, "x"),
        metric(
            "apps.ops_failed_frac",
            ratio(failed as f64, attempted as f64),
            "ratio",
        ),
        metric(
            "trace.overhead_frac",
            ratio(traced_us, untraced_us) - 1.0,
            "ratio",
        ),
    ]);
    metrics.extend(probe_metrics);

    let mut notes = vec![
        format!(
            "{}: traced drive reproduces the untraced simulated results; profiler conserved, depth 0",
            w.name()
        ),
        format!(
            "host us/op {untraced_us:.3} at size {size}, {quarter_us:.3} at size {}; sim cycles/op ratio {sim_scaling:.4}",
            size / 4
        ),
    ];
    if let (Some(b), Some(u)) = (traced.sim.as_ref().and_then(|s| s.smp.as_ref()), &twins.uni) {
        notes.push(format!(
            "{} cores: horizon {} vs 1-core {}; {} IPIs, {} steals",
            b.cpus, b.horizon_cycles, u.cycles, b.ipis, b.steals
        ));
    }
    let outcome = Outcome {
        correct: failed == 0 && twins.ok(w),
        attempted,
        failed,
        metrics,
        notes,
    };
    Ok((outcome, spans))
}
