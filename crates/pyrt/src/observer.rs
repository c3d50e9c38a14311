//! Execution observers: the attachment point for sampling profilers.
//!
//! The paper's profiler attaches to a running function without instrumenting
//! it (TC-1): it observes time passing and snapshots the stack at sample
//! points. [`ExecutionObserver`] is that seam. The runtime reports every
//! virtual-time advance; the observer may charge *overhead* time back (the
//! cost of taking samples), which is exactly what Fig. 9 measures.

use std::sync::Arc;

use slimstart_appmodel::Application;
use slimstart_simcore::time::{SimDuration, SimTime};

use crate::loader::RecordedWalk;
use crate::stack::CallStack;

/// Context handed to an observer on each virtual-time advance.
#[derive(Debug)]
pub struct AdvanceContext<'a> {
    /// The application being executed.
    pub app: &'a Application,
    /// The live call stack during the advance (constant over the interval —
    /// the runtime only advances time within one statement).
    pub stack: &'a CallStack,
    /// Start of the interval.
    pub from: SimTime,
    /// End of the interval (exclusive).
    pub to: SimTime,
    /// The step of a recorded walk this advance replays: `None` for every
    /// other advance, those of the walk that records it included.
    pub site: Option<WalkSite<'a>>,
}

/// Where a replayed cold-start advance stands in its recorded walk. The
/// same walk and step always come with the same stack, in every process
/// that shares the walk's [`LoaderPlan`](crate::loader::LoaderPlan).
#[derive(Debug, Clone, Copy)]
pub struct WalkSite<'a> {
    /// The recorded walk being replayed.
    pub walk: &'a Arc<RecordedWalk>,
    /// The step's index: the advancing module's position in load order.
    pub step: usize,
}

/// An attachment that observes a process's execution.
///
/// Implementations must be deterministic: they see virtual time only.
pub trait ExecutionObserver {
    /// Called for every virtual-time advance while code executes.
    ///
    /// Returns the *overhead* the observer imposes during this interval
    /// (e.g. per-sample capture cost); the runtime adds it to the clock, so
    /// profiled runs are measurably slower — the paper's Fig. 9 effect.
    fn on_advance(&mut self, ctx: AdvanceContext<'_>) -> SimDuration;

    /// Called when an invocation completes; returns flush/teardown overhead
    /// (e.g. handing the local sample buffer to the asynchronous collector).
    fn on_invocation_end(&mut self, app: &Application) -> SimDuration {
        let _ = app;
        SimDuration::ZERO
    }

    /// Additional resident memory the attachment pins (sample buffer), KiB.
    fn extra_mem_kb(&self) -> u64 {
        0
    }
}

/// The default no-op observer: zero overhead, observes nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl ExecutionObserver for NullObserver {
    fn on_advance(&mut self, _ctx: AdvanceContext<'_>) -> SimDuration {
        SimDuration::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_observer_is_free() {
        let mut b = slimstart_appmodel::app::AppBuilder::new("t");
        let m = b.add_app_module("handler", SimDuration::ZERO, 0);
        let f = b.add_function("main", m, 1, vec![]);
        b.add_handler("h", f);
        let app = b.finish().unwrap();
        let stack = CallStack::new();
        let mut obs = NullObserver;
        let d = obs.on_advance(AdvanceContext {
            app: &app,
            stack: &stack,
            from: SimTime::ZERO,
            to: SimTime::from_millis(5),
            site: None,
        });
        assert_eq!(d, SimDuration::ZERO);
        assert_eq!(obs.on_invocation_end(&app), SimDuration::ZERO);
        assert_eq!(obs.extra_mem_kb(), 0);
    }
}
