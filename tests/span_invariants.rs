//! Span invariants of the instrumentation scope (DESIGN.md §7.1):
//!
//! * every span a forked child emits is closed in the process that opened
//!   it, so the Chrome export has no end without a begin on any track;
//! * an SVA-OS operation that fails still emits its span — the scope
//!   closes on every exit path, the refusals included.

use std::collections::BTreeMap;
use vg_apps::lmbench;
use vg_core::{ProcId, ThreadId};
use vg_kernel::{Mode, System};
use vg_machine::TraceEvent;
use vg_trace::{chrome_trace_json, DEFAULT_TRACE_CAPACITY};

/// The value of `"key":` in one exported event line (numbers and strings).
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &line[start..];
    if let Some(s) = rest.strip_prefix('"') {
        return s.split('"').next();
    }
    rest.split([',', '}']).next()
}

#[test]
fn fork_children_emit_balanced_spans() {
    let mut sys = System::boot(Mode::VirtualGhost);
    sys.machine.trace.enable(DEFAULT_TRACE_CAPACITY);
    lmbench::fork_exit(&mut sys, 5);
    let json = chrome_trace_json(&sys.machine.trace);
    let mut open: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    let mut forks = 0;
    for line in json.lines().filter(|l| l.contains("\"ph\":")) {
        let (ph, tid, name) = (
            field(line, "ph").unwrap(),
            field(line, "tid").unwrap(),
            field(line, "name").unwrap(),
        );
        match ph {
            "B" => open.entry(tid).or_default().push(name),
            "E" => {
                let top = open.get_mut(tid).and_then(|s| s.pop());
                assert_eq!(top, Some(name), "end without a begin on tid {tid}: {line}");
            }
            _ => {}
        }
        if name == "sys.fork" && (ph == "X" || ph == "B") {
            forks += 1;
        }
    }
    assert!(
        open.values().all(|s| s.is_empty()),
        "begins left open: {open:?}"
    );
    assert_eq!(forks, 5, "one sys.fork span per fork");
}

/// Spans named `name` in the trace ring.
fn spans_named(sys: &System, name: &str) -> usize {
    sys.machine
        .trace
        .records()
        .filter(|r| matches!(r.ev, TraceEvent::Complete { name: n, .. } if n == name))
        .count()
}

#[test]
fn failed_sva_ops_still_emit_their_span() {
    let mut sys = System::boot(Mode::VirtualGhost);
    sys.machine.trace.enable(DEFAULT_TRACE_CAPACITY);
    let thread = ThreadId(99);
    assert!(sys.vm.sva_icontext_load(&mut sys.machine, thread).is_err());
    assert_eq!(spans_named(&sys, "sva.icontext.load"), 1);
    // The refusal that defeats the signal-handler rootkit: an unregistered
    // handler under Virtual Ghost.
    let denials = sys.machine.trace.flight.total();
    assert!(sys
        .vm
        .sva_ipush_function(&mut sys.machine, thread, ProcId(99), 0xdead_0000, 0)
        .is_err());
    assert_eq!(sys.machine.trace.flight.total(), denials + 1);
    assert_eq!(spans_named(&sys, "sva.ipush.function"), 1);
}
