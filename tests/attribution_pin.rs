//! Pins the profiler's cycle attribution and the metrics registry for two
//! profiled workloads: the trace-determinism capture (LMBench open/close, a
//! ghost swap round trip, a small Postmark) and a 4-process run on 4 cores.
//!
//! The golden file records the clock, the per-domain, per-(process,
//! domain) and per-(core, domain) totals, the self cycles of every
//! attribution frame summed by its last `domain:label` (the folded stacks
//! with their ancestry dropped), and `metrics.report()`. An
//! instrumentation refactor may move a frame under a different parent; it
//! may not move a cycle to another domain, process, core or label, nor
//! change a histogram.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use vg_apps::{lmbench, postmark};
use vg_kernel::{Mode, System};

const GOLDEN: &str = include_str!("golden/attribution.txt");

fn capture_workload() -> System {
    let mut sys = System::boot(Mode::VirtualGhost);
    sys.machine.profile_enable();
    lmbench::open_close(&mut sys, 25);
    sys.install_app("ghost-swapper", true, || {
        Box::new(|env| {
            let va = env.allocgm(2).expect("ghost pages");
            env.write_mem(va, b"determinism");
            let pid = env.pid;
            env.sys.kernel_swap_out_ghost(pid, 2);
            assert_eq!(env.read_mem(va, 11), b"determinism");
            0
        })
    });
    let pid = sys.spawn("ghost-swapper");
    assert_eq!(sys.run_until_exit(pid), 0);
    postmark::run(
        &mut sys,
        postmark::PostmarkConfig {
            base_files: 10,
            transactions: 25,
            ..Default::default()
        },
    );
    sys
}

fn smp_workload() -> System {
    let mut sys = System::boot_with_cpus(Mode::VirtualGhost, 4);
    sys.machine.profile_enable();
    for i in 0..4usize {
        let name = format!("smp-pin-{i}");
        sys.install_app(&name, i % 2 == 0, move || {
            Box::new(move |env| {
                let buf = env.mmap_anon(4096);
                let fd = env.open(&format!("/smp-{i}"), vg_kernel::syscall::O_CREAT);
                for r in 0..(1 + i as u64) {
                    env.write_mem(buf, format!("cpu spread {i}.{r}").as_bytes());
                    env.write(fd, buf, 14);
                }
                env.close(fd);
                0
            })
        });
        let pid = sys.spawn(&name);
        sys.sched_enqueue(pid);
    }
    assert_eq!(sys.run_queued().exits.len(), 4);
    sys
}

/// Renders everything the golden file pins for one workload.
fn render(name: &str, sys: &System) -> String {
    let p = &sys.machine.profiler;
    let mut out = String::new();
    let _ = writeln!(out, "## {name}");
    let _ = writeln!(out, "clock {}", sys.machine.clock.cycles());
    for (d, c) in p.domain_totals() {
        let _ = writeln!(out, "domain {} {c}", d.key());
    }
    for ((pid, d), c) in p.proc_domain_totals() {
        let _ = writeln!(out, "proc {pid} {} {c}", d.key());
    }
    for ((cpu, d), c) in p.cpu_domain_totals() {
        let _ = writeln!(out, "cpu {cpu} {} {c}", d.key());
    }
    let mut by_frame: BTreeMap<&str, u64> = BTreeMap::new();
    let folded = vg_trace::folded_stacks(p);
    for line in folded.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("count");
        let last = stack.rsplit(';').next().expect("frame");
        *by_frame.entry(last).or_insert(0) += count.parse::<u64>().expect("numeric");
    }
    for (frame, c) in by_frame {
        let _ = writeln!(out, "frame {frame} {c}");
    }
    out.push_str(&sys.machine.metrics.report());
    out
}

#[test]
fn attribution_and_metrics_are_pinned() {
    let actual = render("capture", &capture_workload()) + &render("smp4", &smp_workload());
    if actual != GOLDEN {
        let first = actual
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, g)| a != g)
            .unwrap_or(actual.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "attribution drifted from tests/golden/attribution.txt at line {}:\n{actual}",
            first + 1
        );
    }
}
