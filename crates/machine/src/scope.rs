//! The one instrumentation primitive: a [`Scope`] around a body.
//!
//! Opening a scope pushes its profiler frame and remembers the start cycle
//! and the opening process. Closing it pops the frame, emits one
//! [`TraceEvent::Complete`] span stamped with that process and, for
//! [`timed`](Scope::timed) scopes, observes the elapsed cycles into the
//! histogram named by the label. Both halves are private to this module and
//! run only through [`Instrumented::scope`], which closes the scope however
//! the body returns, so frame, span and histogram cover the same region.
//! Like every emit helper, a scope reads the clock and never advances it.

use crate::Machine;
use vg_trace::{Domain, TraceEvent};

/// A profiler domain and a label. The span is named by the label and
/// categorised by the domain key; a [`leaf`](Self::leaf) inherits the
/// enclosing frame's domain and is traced under `kpath`.
#[derive(Debug, Clone, Copy)]
pub struct Scope {
    domain: Option<Domain>,
    label: &'static str,
    timed: bool,
}

impl Scope {
    /// A scope attributed to `domain`.
    pub const fn new(domain: Domain, label: &'static str) -> Self {
        Scope {
            domain: Some(domain),
            label,
            timed: false,
        }
    }

    /// A scope inheriting the enclosing frame's domain (kernel paths).
    pub const fn leaf(label: &'static str) -> Self {
        Scope {
            domain: None,
            label,
            timed: false,
        }
    }

    /// This scope, also observing its latency under its label.
    pub const fn timed(self) -> Self {
        Scope {
            timed: true,
            ..self
        }
    }
}

impl Machine {
    /// Opens `scope`; returns its start cycle and opening process.
    fn open_scope(&mut self, scope: Scope) -> (u64, u64) {
        let domain = scope
            .domain
            .unwrap_or_else(|| self.profiler.current_domain());
        self.profiler.push(domain, scope.label);
        (self.clock.cycles(), self.trace.cur_proc)
    }

    fn close_scope(&mut self, scope: Scope, (start, proc_id): (u64, u64)) {
        self.profiler.pop();
        let now = self.clock.cycles();
        let (cat, name) = (scope.domain.map_or("kpath", Domain::key), scope.label);
        let span = TraceEvent::Complete { cat, name, start };
        self.trace.emit_for(proc_id, now, span);
        if scope.timed {
            self.metrics.observe(name, now - start);
        }
    }

    /// Charges `cycles` inside a `domain`/`label` scope — the common
    /// one-charge body.
    #[inline]
    pub fn charge_in(&mut self, domain: Domain, label: &'static str, cycles: u64) {
        self.scope(Scope::new(domain, label), |m| m.charge(cycles));
    }
}

/// Anything that owns the [`Machine`] — the machine itself, or a kernel
/// whose bodies need the whole system — runs bodies inside scopes.
pub trait Instrumented {
    /// The machine whose profiler, tracer and metrics a scope drives.
    fn machine(&mut self) -> &mut Machine;

    /// Runs `body` inside `scope`, closing it on every exit path.
    #[inline]
    fn scope<R>(&mut self, scope: Scope, body: impl FnOnce(&mut Self) -> R) -> R
    where
        Self: Sized,
    {
        let open = self.machine().open_scope(scope);
        let r = body(self);
        self.machine().close_scope(scope, open);
        r
    }
}

impl Instrumented for Machine {
    #[inline]
    fn machine(&mut self) -> &mut Machine {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_scope_drives_frame_span_and_histogram_on_every_exit() {
        let mut m = Machine::new(Default::default());
        m.charge_in(Domain::Mmu, "off", 9);
        assert!(m.trace.is_empty() && m.profiler.total_attributed() == 0);
        m.trace.enable(64);
        m.profile_enable();
        m.trace.cur_proc = 3;
        let r: Result<(), &str> = m.scope(Scope::new(Domain::Syscall, "sys.x").timed(), |m| {
            m.scope(Scope::leaf("path"), |m| m.charge(5));
            m.trace.cur_proc = 4; // the span keeps its opener
            Err("denied")?;
            m.charge(1000);
            Ok(())
        });
        assert_eq!(r, Err("denied"));
        assert_eq!(m.profiler.depth(), 0);
        assert_eq!(m.profiler.domain_totals()[&Domain::Syscall], 5);
        let spans: Vec<_> = m.trace.records().map(|r| (r.proc_id, r.at, r.ev)).collect();
        let span = |cat, name, start| TraceEvent::Complete { cat, name, start };
        assert_eq!(
            spans,
            [
                (3, 14, span("kpath", "path", 9)),
                (3, 14, span("syscall", "sys.x", 9))
            ]
        );
        assert_eq!(m.metrics.histogram("sys.x").map(|h| h.sum()), Some(5));
        assert!(m.metrics.histogram("path").is_none(), "only timed scopes");
    }
}
