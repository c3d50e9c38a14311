//! Container lifecycle: the unit of warmth.
//!
//! A container owns one [`Process`] (whose module cache is what makes warm
//! starts fast) and tracks when it last served a request, which drives
//! keep-alive reclamation.

use std::sync::Arc;

use slimstart_appmodel::Application;
use slimstart_pyrt::loader::LoaderPlan;
use slimstart_pyrt::process::Process;
use slimstart_pyrt::snapshot::SnapshotKey;
use slimstart_simcore::time::{SimDuration, SimTime};

/// A provisioned container holding a live runtime process.
pub struct Container {
    id: usize,
    process: Process,
    /// The container is serving a request until this instant.
    busy_until: SimTime,
    /// When the container last finished serving (for keep-alive).
    last_used: SimTime,
    /// The key of the snapshot this container's cold start went through
    /// (restored or freshly captured), so post-invocation working-set
    /// refinements know which store entry to update.
    snapshot_key: Option<SnapshotKey>,
}

impl std::fmt::Debug for Container {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Container")
            .field("id", &self.id)
            .field("busy_until", &self.busy_until)
            .field("last_used", &self.last_used)
            .finish()
    }
}

impl Container {
    /// Creates a container around a fresh process.
    pub fn new(id: usize, app: Arc<Application>, time_scale: f64, provisioned_at: SimTime) -> Self {
        let plan = Arc::new(LoaderPlan::build(&app));
        Container::with_plan(id, app, plan, time_scale, provisioned_at)
    }

    /// Creates a container around a fresh process that shares a precomputed
    /// [`LoaderPlan`]. The platform builds the plan once per deployment so
    /// every cold start skips the per-process prefix analysis.
    pub fn with_plan(
        id: usize,
        app: Arc<Application>,
        plan: Arc<LoaderPlan>,
        time_scale: f64,
        provisioned_at: SimTime,
    ) -> Self {
        Container {
            id,
            process: Process::with_plan(app, plan, time_scale),
            busy_until: provisioned_at,
            last_used: provisioned_at,
            snapshot_key: None,
        }
    }

    /// Remembers the key of the snapshot this container cold-started
    /// through.
    pub fn set_snapshot_key(&mut self, key: SnapshotKey) {
        self.snapshot_key = Some(key);
    }

    /// The key of the snapshot this container cold-started through, if any.
    pub fn snapshot_key(&self) -> Option<SnapshotKey> {
        self.snapshot_key
    }

    /// The container's id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The runtime process (loader state, clock, memory).
    pub fn process(&self) -> &Process {
        &self.process
    }

    /// Mutable access to the runtime process.
    pub fn process_mut(&mut self) -> &mut Process {
        &mut self.process
    }

    /// Whether the container is idle (not serving) at `now`.
    pub fn idle_at(&self, now: SimTime) -> bool {
        self.busy_until <= now
    }

    /// Whether the keep-alive window has lapsed at `now`, making the
    /// container eligible for reclamation.
    pub fn expired_at(&self, now: SimTime, keep_alive: SimDuration) -> bool {
        self.idle_at(now) && now.saturating_since(self.last_used) > keep_alive
    }

    /// Marks the container busy for `[start, start + duration)`.
    pub fn occupy(&mut self, start: SimTime, duration: SimDuration) {
        self.busy_until = start + duration;
        self.last_used = self.busy_until;
    }

    /// The instant the container becomes free.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimstart_appmodel::app::AppBuilder;

    fn app() -> Arc<Application> {
        let mut b = AppBuilder::new("t");
        let m = b.add_app_module("handler", SimDuration::ZERO, 0);
        let f = b.add_function("main", m, 1, vec![]);
        b.add_handler("h", f);
        Arc::new(b.finish().unwrap())
    }

    #[test]
    fn idle_and_occupy() {
        let mut c = Container::new(0, app(), 1.0, SimTime::ZERO);
        assert!(c.idle_at(SimTime::ZERO));
        c.occupy(SimTime::from_millis(10), SimDuration::from_millis(5));
        assert!(!c.idle_at(SimTime::from_millis(12)));
        assert!(c.idle_at(SimTime::from_millis(15)));
        assert_eq!(c.busy_until(), SimTime::from_millis(15));
    }

    #[test]
    fn keep_alive_expiry() {
        let mut c = Container::new(1, app(), 1.0, SimTime::ZERO);
        c.occupy(SimTime::ZERO, SimDuration::from_millis(10));
        let ka = SimDuration::from_secs(60);
        assert!(!c.expired_at(SimTime::from_millis(20), ka));
        assert!(!c.expired_at(SimTime::from_secs(60), ka));
        assert!(c.expired_at(SimTime::from_secs(61), ka));
        // A busy container is never expired.
        c.occupy(SimTime::from_secs(100), SimDuration::from_secs(120));
        assert!(!c.expired_at(SimTime::from_secs(130), ka));
    }
}
