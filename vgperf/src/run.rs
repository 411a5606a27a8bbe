//! One benchmark run: repeated drives of one workload for a fixed host
//! time, with failure accounting and the determinism self-check, folded
//! into the end-to-end metrics.

use crate::spans::Spans;
use crate::workloads::{drive, drive_on, first_difference, verify, SimResult, Workload};
use std::collections::HashMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use vg_apps::smp;
use vg_kernel::{Mode, System};

/// Fewest drives a run makes, however short `--seconds` is.
pub const MIN_REPS: usize = 3;

/// Median time of the calibration kernel (`calibrate`) on the 2-vCPU
/// container the benchmark was tuned on. Host metrics are scaled by this
/// over the kernel's time in the run, i.e. reported at that container's
/// speed.
pub const CALIBRATION_REFERENCE_S: f64 = 0.025;

/// Paper Table 5: Postmark's slowdown under Virtual Ghost.
pub const PAPER_POSTMARK_OVERHEAD: f64 = 4.72;

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand for building a [`Metric`].
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// One drive of a workload on a freshly booted Virtual Ghost system.
pub struct Rep {
    /// The simulated result; `None` when the driver panicked.
    pub sim: Option<SimResult>,
    /// Ops the drive attempted.
    pub attempted: u64,
    /// Ops that failed: all of them on a panic, else failed checks plus
    /// flight-recorder denials.
    pub failed: u64,
    /// Host seconds of the boot.
    pub boot_s: f64,
    /// Host seconds of the input preload (0 when the workload has none).
    pub preload_s: f64,
    /// Host seconds of the driver call.
    pub drive_s: f64,
    /// Host seconds of the output checks.
    pub verify_s: f64,
    /// The process's peak RSS so far, read after the drive.
    pub peak_rss_mb: f64,
    /// Host seconds of the calibration kernel, timed just after the drive.
    pub calibration_s: f64,
}

impl Rep {
    /// Host seconds of boot plus input preload.
    pub fn setup_s(&self) -> f64 {
        self.boot_s + self.preload_s
    }

    /// Host seconds of the drive alone. The ghostkv and sshd drivers queue
    /// their own inputs and procmix's boots its own system; their preload
    /// or boot, timed on an identical twin, is taken out.
    pub fn drive_only_s(&self, w: Workload, on_sys: bool) -> f64 {
        let inside = if w.has_preload() {
            self.preload_s
        } else if w == Workload::ProcmixSmp && !on_sys {
            self.boot_s
        } else {
            0.0
        };
        (self.drive_s - inside).max(0.0)
    }
}

/// Runs one drive and returns it with the system it ran on. With
/// `on_sys`, procmix runs on that system rather than on its driver's own
/// (see [`drive_on`]); `prepare` runs on the system just before the drive
/// (the traced run turns tracing on there).
pub fn rep(
    w: Workload,
    seed: u64,
    size: u32,
    on_sys: bool,
    spans: &mut Spans,
    prepare: impl FnOnce(&mut System),
) -> (Rep, System) {
    let span = spans.open(format!("{}.rep", w.name()));
    let (mut sys, boot_s) = spans.time("kernel.System::boot", || w.boot(Mode::VirtualGhost));
    let preload_s = if w.has_preload() {
        let mut twin = w.boot(Mode::VirtualGhost);
        spans
            .time("apps.preload", || w.preload_twin(&mut twin, size))
            .1
    } else {
        0.0
    };
    prepare(&mut sys);
    let (outcome, drive_s) = spans.time(&format!("apps.{}", w.name()), || {
        catch_unwind(AssertUnwindSafe(|| {
            if on_sys {
                drive_on(w, &mut sys, seed, size)
            } else {
                drive(w, &mut sys, seed, size)
            }
        }))
    });
    let attempted = w.ops(size);
    let (sim, failed, verify_s) = match outcome {
        Ok(r) => {
            let (bad, verify_s) = spans.time("apps.verify", || verify(w, &mut sys, &r));
            let denials = sys.machine.trace.flight.total();
            let missing = attempted.saturating_sub(r.ops);
            let failed = (bad + denials + missing).min(attempted);
            (Some(r), failed, verify_s)
        }
        Err(_) => (None, attempted, 0.0),
    };
    let rss = peak_rss_mb();
    // After the RSS reading, so the first drive's peak RSS excludes it.
    let (_, calibration_s) = spans.time("host.calibration", calibrate);
    spans.close(span);
    let rep = Rep {
        sim,
        attempted,
        failed,
        boot_s,
        preload_s,
        drive_s,
        verify_s,
        peak_rss_mb: rss,
        calibration_s,
    };
    (rep, sys)
}

/// Drives `w` again and again on fresh systems until `seconds` of host
/// time have passed (at least [`MIN_REPS`] times). Fails, naming the
/// quantity, if two drives disagree on any simulated result.
pub fn timed_reps(
    w: Workload,
    seed: u64,
    size: u32,
    seconds: u64,
    spans: &mut Spans,
) -> Result<Vec<Rep>, String> {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < MIN_REPS || Instant::now() < deadline {
        let (r, _) = rep(w, seed, size, false, spans, |_| {});
        check_same(
            reps.iter().find_map(|r| r.sim.as_ref()),
            r.sim.as_ref(),
            "two drives",
        )?;
        reps.push(r);
    }
    Ok(reps)
}

/// The determinism self-check: simulated results must repeat bit for bit.
/// A difference is a bug in the simulator, never noise.
pub fn check_same(
    first: Option<&SimResult>,
    other: Option<&SimResult>,
    what: &str,
) -> Result<(), String> {
    match (first, other) {
        (Some(a), Some(b)) => match first_difference(a, b) {
            Some(name) => Err(format!(
                "determinism check failed: {what} differ in simulated {name}"
            )),
            None => Ok(()),
        },
        _ => Ok(()),
    }
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload never touches).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// A fixed kernel that uses only the standard library: sorting, hash-map
/// inserts and lookups over a few MB, and memory fills. The container's
/// speed shifts by 15-35% over minutes, for the simulator and this kernel
/// alike, so the ratio of the two is steadier than either.
fn calibrate() {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut keys: Vec<u64> = (0..1 << 18)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    keys.sort_unstable();
    let map: HashMap<u64, usize> = keys.iter().step_by(4).map(|&k| (k, 0)).collect();
    let hits = keys
        .iter()
        .rev()
        .step_by(3)
        .filter(|k| map.contains_key(k))
        .count();
    let mut buf = vec![0u8; 1 << 22];
    for round in 0..16u8 {
        buf.fill(round);
        black_box(&buf);
    }
    black_box(hits);
}

/// Host seconds scaled to the reference container's speed (see
/// [`CALIBRATION_REFERENCE_S`]), by the median calibration of `reps`.
pub fn at_reference_speed(host_s: f64, reps: &[Rep]) -> f64 {
    host_s * CALIBRATION_REFERENCE_S / median_by(reps, |r| r.calibration_s)
}

/// Median of `f` over `reps`.
pub fn median_by(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.iter().map(f).collect::<Vec<_>>())
}

/// Median host µs per op over `reps`, drive only.
pub fn host_us_per_op(w: Workload, reps: &[Rep], on_sys: bool) -> f64 {
    median_by(reps, |r| {
        r.drive_only_s(w, on_sys) * 1e6 / r.attempted as f64
    })
}

/// Simulated results a run needs beside its timed drives: the Native twin
/// (for `vg_overhead_x`) and, on procmix, the 1-core run (for
/// `smp_efficiency`). Both are deterministic, so their host time enters no
/// metric.
pub struct Twins {
    /// The same burst on a Native system.
    pub native: Option<SimResult>,
    /// procmix on 1 core with the same 8 shards.
    pub uni: Option<SimResult>,
}

impl Twins {
    /// Whether every twin `w` needs ran to completion.
    pub fn ok(&self, w: Workload) -> bool {
        self.native.is_some() && (w != Workload::ProcmixSmp || self.uni.is_some())
    }
}

/// Runs the [`Twins`] of `w`.
pub fn twins(w: Workload, seed: u64, size: u32, spans: &mut Spans) -> Twins {
    let native = spans
        .time("apps.native_twin", || {
            catch_unwind(AssertUnwindSafe(|| {
                drive_on(w, &mut w.boot(Mode::Native), seed, size)
            }))
        })
        .0
        .ok();
    let uni = (w == Workload::ProcmixSmp).then(|| {
        let b = spans
            .time("apps.procmix_1core", || {
                catch_unwind(AssertUnwindSafe(|| {
                    smp::procmix(1, crate::workloads::PROCMIX_SHARDS, size)
                }))
            })
            .0;
        b.ok().map(SimResult::from_smp)
    });
    Twins {
        native,
        uni: uni.flatten(),
    }
}

/// The result of one run: what the last stdout line reports.
pub struct Outcome {
    /// No op failed.
    pub correct: bool,
    /// Ops attempted over the timed drives.
    pub attempted: u64,
    /// Ops failed over the timed drives.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// Summed failure books of `reps`: (attempted, failed).
pub fn books(reps: &[Rep]) -> (u64, u64) {
    reps.iter()
        .fold((0, 0), |(a, f), r| (a + r.attempted, f + r.failed))
}

/// The simulated end-to-end metrics, identical on every run of the same
/// workload, size and seed.
pub fn sim_metrics(sim: &SimResult, twins: &Twins) -> Vec<Metric> {
    let overhead = twins
        .native
        .as_ref()
        .map_or(0.0, |n| ratio(sim.cycles_per_op(), n.cycles_per_op()));
    let efficiency = match (&sim.smp, &twins.uni) {
        (Some(b), Some(uni)) => ratio(uni.cycles as f64, b.horizon_cycles as f64) / b.cpus as f64,
        (Some(_), None) => 0.0,
        // One core: horizon(1) / horizon(1) / 1.
        (None, _) => 1.0,
    };
    vec![
        metric("sim_cycles_per_op", sim.cycles_per_op(), "cycles/op"),
        metric("vg_overhead_x", overhead, "x"),
        metric("sim_latency_p50_cycles", sim.latency_p50 as f64, "cycles"),
        metric("sim_latency_p99_cycles", sim.latency_p99 as f64, "cycles"),
        metric("smp_efficiency", efficiency, "ratio"),
    ]
}

/// Host peak resident set (VmHWM) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The untraced run: every end-to-end metric.
pub fn end_to_end(w: Workload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let mut spans = Spans::new();
    let size = w.size();
    let reps = timed_reps(w, seed, size, seconds, &mut spans)?;
    let twins = twins(w, seed, size, &mut spans);
    let (attempted, failed) = books(&reps);
    // Every drive panicked only if every op failed; the simulated metrics
    // then read 0.
    let sim = reps.iter().find_map(|r| r.sim.clone()).unwrap_or_default();
    let mut metrics = sim_metrics(&sim, &twins);
    let (host_us, setup) = (
        host_us_per_op(w, &reps, false),
        median_by(&reps, Rep::setup_s),
    );
    metrics.extend([
        metric("host_us_per_op", at_reference_speed(host_us, &reps), "us"),
        metric("setup_s", at_reference_speed(setup, &reps), "s"),
        // Read after the first drive: later drives add only allocator
        // fragmentation, which differs from run to run.
        metric("peak_rss_mb", reps[0].peak_rss_mb, "MB"),
    ]);
    let mut notes = vec![
        format!(
            "{}: {} drives of {} {}s, seed {seed}",
            w.name(),
            reps.len(),
            w.ops(size),
            w.op_name()
        ),
        format!(
            "as timed: host_us_per_op {host_us:.4}, setup_s {setup:.6}; calibration {:.6} s (reference {CALIBRATION_REFERENCE_S})",
            median_by(&reps, |r| r.calibration_s)
        ),
    ];
    notes.extend(validation_notes(w, &sim, &metrics));
    Ok(Outcome {
        correct: failed == 0 && twins.ok(w),
        attempted,
        failed,
        metrics,
        notes,
    })
}

/// The paper comparison printed beside the simulated metrics.
pub fn validation_notes(w: Workload, sim: &SimResult, metrics: &[Metric]) -> Vec<String> {
    let overhead = metrics
        .iter()
        .find(|m| m.name == "vg_overhead_x")
        .map_or(0.0, |m| m.value);
    let mut notes = Vec::new();
    if w == Workload::Postmark {
        let err = (overhead / PAPER_POSTMARK_OVERHEAD - 1.0) * 100.0;
        notes.push(format!(
            "vg_overhead_x {overhead:.3} vs paper Table 5 {PAPER_POSTMARK_OVERHEAD}x: error {err:+.1}%"
        ));
    } else {
        notes.push(format!(
            "vg_overhead_x {overhead:.3}: unvalidated (no paper figure reports this CPU overhead)"
        ));
    }
    notes.push(format!(
        "sim latency p50 {} / p99 {} cycles over {} samples{}",
        sim.latency_p50,
        sim.latency_p99,
        sim.latency_samples,
        if sim.latency_samples == 1 {
            " (no per-op completion times: the sample is the whole burst)"
        } else {
            ""
        }
    ));
    notes
}
