//! The benchmark's self-checks: simulated results repeat bit for bit
//! (across drives and between traced and untraced drives), a difference is
//! reported by name, and failed ops are counted instead of aborting.

use vg_kernel::Mode;
use vgperf::run::{check_same, rep};
use vgperf::spans::Spans;
use vgperf::workloads::{drive, verify, Workload};

/// Small sizes, so every workload runs in well under a second.
fn small(w: Workload) -> u32 {
    match w {
        Workload::Postmark => 200,
        Workload::GhostkvC10k => 64,
        Workload::SshdTransfer => 4,
        Workload::ProcmixSmp => 24,
    }
}

#[test]
fn drives_repeat_and_tracing_moves_no_simulated_metric() {
    let mut spans = Spans::new();
    for w in Workload::ALL {
        let (a, _) = rep(w, 7, small(w), false, &mut spans, |_| {});
        let (b, _) = rep(w, 7, small(w), false, &mut spans, |_| {});
        let (traced, sys) = rep(w, 7, small(w), true, &mut spans, |sys| {
            sys.machine.profile_enable();
            sys.machine.trace.enable(1 << 12);
        });
        assert!(a.sim.is_some() && a.failed == 0, "{}", w.name());
        check_same(a.sim.as_ref(), b.sim.as_ref(), "two drives").unwrap();
        check_same(a.sim.as_ref(), traced.sim.as_ref(), "traced and untraced").unwrap();
        assert_eq!(traced.failed, 0, "{}", w.name());
        sys.machine
            .profiler
            .assert_conservation(sys.machine.clock.cycles());
        assert_eq!(sys.machine.profiler.depth(), 0);
    }
}

#[test]
fn a_difference_is_reported_by_name() {
    let w = Workload::GhostkvC10k;
    let a = drive(w, &mut w.boot(Mode::VirtualGhost), 0, 16);
    let mut b = a.clone();
    b.latency_p99 += 1;
    let err = check_same(Some(&a), Some(&b), "two drives").unwrap_err();
    assert!(err.contains("sim_latency_p99_cycles"), "{err}");
}

#[test]
fn the_seed_reaches_postmark_only_through_its_config() {
    let w = Workload::Postmark;
    let one = drive(w, &mut w.boot(Mode::VirtualGhost), 1, 200);
    let two = drive(w, &mut w.boot(Mode::VirtualGhost), 2, 200);
    assert_ne!(one.cycles, two.cycles);
    assert_eq!(one, drive(w, &mut w.boot(Mode::VirtualGhost), 1, 200));
}

#[test]
fn a_driver_panic_fails_every_op_of_its_drive() {
    let w = Workload::GhostkvC10k;
    let mut spans = Spans::new();
    // A malformed command makes the server's parser panic.
    let (r, _) = rep(w, 0, 8, false, &mut spans, |sys| {
        let flow = sys.wire_connect(vg_apps::ghostkv::KV_PORT).unwrap();
        sys.wire_send(flow, b"BOGUS\n");
        sys.wire_close(flow);
    });
    assert!(r.sim.is_none());
    assert_eq!((r.attempted, r.failed), (64, 64));
}

#[test]
fn a_leftover_spool_file_fails_the_postmark_check() {
    let w = Workload::Postmark;
    let mut sys = w.boot(Mode::VirtualGhost);
    let r = drive(w, &mut sys, 3, 100);
    assert_eq!(verify(w, &mut sys, &r), 0);
    sys.write_file("/pm/leftover", b"x");
    assert_eq!(verify(w, &mut sys, &r), r.ops);
}

#[test]
fn a_corrupted_sshd_transfer_is_counted() {
    let w = Workload::SshdTransfer;
    let mut sys = w.boot(Mode::VirtualGhost);
    let r = drive(w, &mut sys, 0, 3);
    let mut packets = sys.machine.nic.wire_drain();
    packets[0].data[0] ^= 1;
    for p in packets {
        sys.machine.nic.wire_requeue(p);
    }
    assert_eq!(verify(w, &mut sys, &r), 1);
}
