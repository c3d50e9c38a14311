//! The platform: routes invocations, cold-starts containers, records
//! metrics.

use std::sync::Arc;

use slimstart_appmodel::{Application, ModuleId};
use slimstart_pyrt::loader::LoaderPlan;
use slimstart_pyrt::observer::ExecutionObserver;
use slimstart_pyrt::snapshot::{deployment_fingerprint, SnapshotKey, SnapshotStore};
use slimstart_pyrt::zygote::ZygoteImage;
use slimstart_pyrt::RuntimeFault;
use slimstart_simcore::event::EventQueue;
use slimstart_simcore::rng::SimRng;
use slimstart_simcore::time::{SimDuration, SimTime};

use crate::chaos::ChaosPlan;
use crate::container::Container;
use crate::invocation::{Invocation, InvocationRecord};

/// Builds a fresh observer (profiler attachment) for each new container.
pub type ObserverFactory = Arc<dyn Fn() -> Box<dyn ExecutionObserver> + Send + Sync>;

/// Cap on chaos-injected init crashes charged to one cold start; the
/// platform's retry-with-fresh-sandbox loop gives up (and lets the original
/// attempt through) after this many consecutive crashes so a high fault
/// rate degrades latency instead of livelocking.
const MAX_INIT_CRASHES: u64 = 3;

/// Platform configuration, with AWS-Lambda-like defaults.
#[derive(Clone)]
pub struct PlatformConfig {
    /// Container provisioning cost (scheduling + sandbox creation).
    pub provision_cost: SimDuration,
    /// Language-runtime startup cost (interpreter boot before user code).
    pub runtime_startup_cost: SimDuration,
    /// Idle window after which containers are reclaimed.
    pub keep_alive: SimDuration,
    /// Resident memory of an empty runtime, KiB.
    pub container_base_mem_kb: u64,
    /// Log-normal sigma of per-container speed jitter (0 = no jitter).
    pub jitter_sigma: f64,
    /// Maximum simultaneously provisioned containers.
    pub max_containers: usize,
    /// Profiler attachment installed into every new container, if any.
    pub observer_factory: Option<ObserverFactory>,
    /// Fault-injection schedule; `None` behaves exactly like
    /// [`ChaosPlan::none`] (no draws, no overhead).
    pub chaos: Option<Arc<ChaosPlan>>,
    /// Cold-start snapshot cache shared by this deployment's containers;
    /// `None` replays every cold start through the loader. Full-stream
    /// restores are byte-identical to replays, so with the default store
    /// this is purely a simulation-speed knob.
    pub snapshot_store: Option<Arc<SnapshotStore>>,
    /// Node zygote this deployment's containers fork from, if any: every
    /// cold start attaches the image, so resident modules are acquired at
    /// fork cost, and restores replay them even when the working set
    /// leaves them out. Warm starts and keep-alive are untouched — sharing
    /// only changes what a cold start pays, never whether one happens.
    pub zygote: Option<Arc<ZygoteImage>>,
}

impl std::fmt::Debug for PlatformConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlatformConfig")
            .field("provision_cost", &self.provision_cost)
            .field("runtime_startup_cost", &self.runtime_startup_cost)
            .field("keep_alive", &self.keep_alive)
            .field("container_base_mem_kb", &self.container_base_mem_kb)
            .field("jitter_sigma", &self.jitter_sigma)
            .field("max_containers", &self.max_containers)
            .field("observed", &self.observer_factory.is_some())
            .field(
                "chaos",
                &self.chaos.as_ref().is_some_and(|c| c.is_enabled()),
            )
            .field("snapshots", &self.snapshot_store.is_some())
            .field("zygote", &self.zygote.is_some())
            .finish()
    }
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            provision_cost: SimDuration::from_millis(45),
            runtime_startup_cost: SimDuration::from_millis(35),
            keep_alive: SimDuration::from_mins(10),
            container_base_mem_kb: 35 * 1024,
            jitter_sigma: 0.04,
            max_containers: 1_000,
            observer_factory: None,
            chaos: None,
            snapshot_store: Some(Arc::new(SnapshotStore::new())),
            zygote: None,
        }
    }
}

impl PlatformConfig {
    /// Returns a copy with the given profiler attachment factory.
    pub fn with_observer_factory(mut self, factory: ObserverFactory) -> Self {
        self.observer_factory = Some(factory);
        self
    }

    /// Returns a copy without speed jitter (for exact-arithmetic tests).
    pub fn without_jitter(mut self) -> Self {
        self.jitter_sigma = 0.0;
        self
    }

    /// Returns a copy injecting faults per the shared chaos plan.
    pub fn with_chaos(mut self, chaos: Arc<ChaosPlan>) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Returns a copy sharing the given cold-start snapshot store.
    pub fn with_snapshot_store(mut self, store: Arc<SnapshotStore>) -> Self {
        self.snapshot_store = Some(store);
        self
    }

    /// Returns a copy that replays every cold start through the loader
    /// (no snapshot memoization).
    pub fn without_snapshots(mut self) -> Self {
        self.snapshot_store = None;
        self
    }

    /// Returns a copy whose cold starts fork from the given zygote image.
    pub fn with_zygote(mut self, zygote: Arc<ZygoteImage>) -> Self {
        self.zygote = Some(zygote);
        self
    }
}

/// The serverless platform serving one application deployment.
pub struct Platform {
    app: Arc<Application>,
    /// Import-closure plan shared by every container's process, built once
    /// per deployment.
    plan: Arc<LoaderPlan>,
    config: PlatformConfig,
    containers: Vec<Container>,
    next_container_id: usize,
    rng: SimRng,
    records: Vec<InvocationRecord>,
    /// Earliest instants at which some container *could* have outlived its
    /// keep-alive window; the reclamation scan runs only when one is due.
    expiry_events: EventQueue<()>,
    /// Reused scratch for draining `expiry_events` without allocating.
    expiry_scratch: Vec<(SimTime, ())>,
    /// Snapshot-cache fingerprint of this deployment (application
    /// structure mixed with the chaos configuration), computed once at
    /// deploy time. A redeploy builds a new `Platform`, so an optimized
    /// application never reuses the pre-optimization entries.
    snapshot_fingerprint: u64,
}

impl std::fmt::Debug for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Platform")
            .field("app", &self.app.name())
            .field("containers", &self.containers.len())
            .field("records", &self.records.len())
            .finish()
    }
}

impl Platform {
    /// Creates a platform serving `app` with the given config and RNG seed.
    pub fn new(app: Arc<Application>, config: PlatformConfig, seed: u64) -> Self {
        let plan = Arc::new(LoaderPlan::build(&app));
        let snapshot_fingerprint = Self::fingerprint(&app, &config);
        // Redeploy invalidation: entries from other deployment generations
        // of a shared store are dead weight (their fingerprints can never
        // be looked up again by this platform), so evict them instead of
        // letting them occupy pool budget.
        if let Some(store) = &config.snapshot_store {
            store.invalidate_stale(snapshot_fingerprint);
        }
        Platform {
            app,
            plan,
            config,
            containers: Vec::new(),
            next_container_id: 0,
            rng: SimRng::seed_from(seed),
            records: Vec::new(),
            expiry_events: EventQueue::new(),
            expiry_scratch: Vec::new(),
            snapshot_fingerprint,
        }
    }

    /// The deployment's snapshot fingerprint: everything that shapes an
    /// init replay (module graph, stripped flags, import modes) plus the
    /// chaos perturbation rates, so experiments under different fault
    /// schedules never share cache entries.
    fn fingerprint(app: &Application, config: &PlatformConfig) -> u64 {
        let mut fp = deployment_fingerprint(app);
        if let Some(chaos) = config.chaos.as_ref().filter(|c| c.is_enabled()) {
            let c = chaos.config();
            for rate in [
                c.crash_during_init,
                c.sampler_dropout,
                c.upload_loss,
                c.upload_truncation,
                c.deploy_failure,
                c.reclamation_storm,
            ] {
                fp = SnapshotKey::new(ModuleId::from_index(0), fp)
                    .mix(rate.to_bits())
                    .fingerprint;
            }
        }
        fp
    }

    /// Cold-starts `container`'s process for `root`, restoring a memoized
    /// snapshot when one exists for this deployment. Observed processes
    /// always replay for real — the profiler must see every advance — and
    /// unobserved full-stream replays are byte-identical either way, so
    /// records, load events and golden reports cannot tell the paths
    /// apart. Once a lazy-restore store has recorded a working set, a
    /// restore replays only that set, modeling a REAP-style restore: the
    /// cold start gets cheaper and omitted modules fault in at first use.
    /// A full-stream store never records one, so its restores replay the
    /// whole capture.
    fn cold_start_container(
        &self,
        container: &mut Container,
        root: ModuleId,
        now: SimTime,
    ) -> Result<SimDuration, RuntimeFault> {
        let store = match &self.config.snapshot_store {
            Some(store) if !container.process().has_observer() => store,
            _ => return container.process_mut().cold_start(root),
        };
        let key = SnapshotKey::new(root, self.snapshot_fingerprint);
        if let Some(snapshot) = store.get(&key, now) {
            let load = container.process_mut().restore_snapshot_lazy(&snapshot);
            container.set_snapshot(key, snapshot);
            return Ok(load);
        }
        let load = container.process_mut().cold_start(root)?;
        let snapshot = store.insert(key, container.process().capture_snapshot(), now);
        container.set_snapshot(key, snapshot);
        Ok(load)
    }

    /// Post-invocation bookkeeping for working-set stores: charges the
    /// lazily-faulted loads this invocation paid and refines the stored
    /// working set with what the handler has touched. Full-stream stores
    /// skip all of it (nothing is ever omitted, so nothing can fault).
    fn refine_snapshot(store: &SnapshotStore, container: &mut Container, now: SimTime) {
        if !store.lazy_restore() {
            return;
        }
        let Some((key, snapshot)) = container.snapshot().cloned() else {
            return;
        };
        store.record_faults(container.process_mut().take_faulted_loads());
        let working = container.process().working_set_for(&snapshot);
        store.refine(&key, &working, now);
    }

    /// The deployed application.
    pub fn app(&self) -> &Arc<Application> {
        &self.app
    }

    /// All records so far.
    pub fn records(&self) -> &[InvocationRecord] {
        &self.records
    }

    /// Pre-provisions `count` warm containers at time zero, each cold-started
    /// for `handler`'s module graph — the platform-level mitigation
    /// (pre-warmed instances, provisioned concurrency) the paper's related
    /// work discusses. SlimStart's application-level optimization composes
    /// with it: a slimmer package also warms up faster and cheaper.
    ///
    /// The pool is not replenished: once keep-alive reclaims an idle
    /// pre-warmed container it is gone, like an expired provisioned burst.
    ///
    /// # Errors
    ///
    /// Propagates a [`RuntimeFault`] raised during warm-up.
    pub fn prewarm(
        &mut self,
        count: usize,
        handler: slimstart_appmodel::HandlerId,
    ) -> Result<(), RuntimeFault> {
        let root = self.app.handler_module(handler);
        for _ in 0..count {
            let (mut container, provision, runtime_startup) = self.new_container(SimTime::ZERO);
            let load = self.cold_start_container(&mut container, root, SimTime::ZERO)?;
            // The container is busy until its warm-up completes.
            container.occupy(SimTime::ZERO, provision + runtime_startup + load);
            self.note_occupied(container.busy_until());
            self.containers.push(container);
        }
        Ok(())
    }

    /// Serves a batch of invocations (must be sorted by arrival time) and
    /// returns the records for this batch.
    ///
    /// # Errors
    ///
    /// Propagates the first [`RuntimeFault`] raised by the application —
    /// faults indicate an unsafe optimization, so the run is aborted rather
    /// than papered over.
    ///
    /// # Panics
    ///
    /// Panics if `invocations` is not sorted by arrival time.
    pub fn run(&mut self, invocations: &[Invocation]) -> Result<&[InvocationRecord], RuntimeFault> {
        let first_new = self.records.len();
        let mut prev = SimTime::ZERO;
        for inv in invocations {
            assert!(inv.at >= prev, "invocations must be sorted by arrival time");
            prev = inv.at;
            let record = self.dispatch(*inv)?;
            self.records.push(record);
        }
        Ok(&self.records[first_new..])
    }

    /// Records the earliest instant at which a container that just became
    /// busy until `busy_until` could next be reclaimed. `occupy` sets
    /// `last_used = busy_until` and `expired_at` is strict (`> keep_alive`),
    /// so one microsecond past the window is the first expired instant.
    fn note_occupied(&mut self, busy_until: SimTime) {
        let due = busy_until + self.config.keep_alive + SimDuration::from_micros(1);
        self.expiry_events.schedule(due, ());
    }

    fn dispatch(&mut self, inv: Invocation) -> Result<InvocationRecord, RuntimeFault> {
        let now = inv.at;
        // Reclaim expired containers first (keep-alive policy). Every occupy
        // scheduled the occupant's earliest possible expiry, so the O(n)
        // retain scan runs only when such an instant has actually passed —
        // the steady-state dispatch gets by on a single heap peek. Stale
        // events (container re-occupied or already reclaimed since) just
        // trigger a scan that removes nothing.
        let keep_alive = self.config.keep_alive;
        self.expiry_events
            .pop_due_into(now, &mut self.expiry_scratch);
        if !self.expiry_scratch.is_empty() {
            self.containers.retain(|c| !c.expired_at(now, keep_alive));
        }

        // Chaos: a reclamation storm seizes every idle container at once,
        // as if the platform clawed back keep-alive capacity under pressure.
        if let Some(chaos) = &self.config.chaos {
            if chaos.reclamation_storm() {
                self.containers.retain(|c| !c.idle_at(now));
            }
        }

        // Prefer the warm container that has been idle the longest.
        let warm = self
            .containers
            .iter_mut()
            .filter(|c| c.idle_at(now))
            .min_by_key(|c| c.busy_until())
            .map(|c| c.id());

        match warm {
            Some(id) => self.dispatch_warm(inv, id),
            None => {
                if self.containers.len() >= self.config.max_containers {
                    self.dispatch_queued(inv)
                } else {
                    self.dispatch_cold(inv, SimDuration::ZERO)
                }
            }
        }
    }

    fn dispatch_warm(
        &mut self,
        inv: Invocation,
        container_id: usize,
    ) -> Result<InvocationRecord, RuntimeFault> {
        let container = self
            .containers
            .iter_mut()
            .find(|c| c.id() == container_id)
            .expect("warm container exists");
        let mut inv_rng = SimRng::seed_from(inv.seed);
        let outcome = container.process_mut().invoke(inv.handler, &mut inv_rng)?;
        if let Some(store) = &self.config.snapshot_store {
            Self::refine_snapshot(store, container, inv.at);
        }
        container.occupy(inv.at, outcome.exec_time);
        let busy_until = container.busy_until();
        self.note_occupied(busy_until);
        let base = self.config.container_base_mem_kb;
        Ok(InvocationRecord {
            at: inv.at,
            handler: inv.handler,
            cold: false,
            wait_time: SimDuration::ZERO,
            provision_time: SimDuration::ZERO,
            runtime_startup_time: SimDuration::ZERO,
            load_time: SimDuration::ZERO,
            init_latency: SimDuration::ZERO,
            exec_latency: outcome.exec_time,
            e2e_latency: outcome.exec_time,
            deferred_load_time: outcome.deferred_load_time,
            peak_mem_kb: outcome.peak_mem_kb + base,
            container: container_id,
        })
    }

    fn dispatch_cold(
        &mut self,
        inv: Invocation,
        wait: SimDuration,
    ) -> Result<InvocationRecord, RuntimeFault> {
        // Chaos: the sandbox may crash mid-init; the platform retries with a
        // fresh one and the request eats the wasted provision + runtime
        // startup as extra wait. Crashed attempts are charged at scale 1.0 —
        // deliberately not drawing `sample_time_scale` — so the platform's
        // jitter stream is never perturbed by chaos being enabled.
        let mut wait = wait;
        if let Some(chaos) = &self.config.chaos {
            let mut crashes: u64 = 0;
            while crashes < MAX_INIT_CRASHES && chaos.crash_during_init() {
                crashes += 1;
            }
            wait += (self.config.provision_cost + self.config.runtime_startup_cost) * crashes;
        }

        let (mut container, provision, runtime_startup) = self.new_container(inv.at);
        let root = self.app.handler_module(inv.handler);
        let load = self.cold_start_container(&mut container, root, inv.at)?;
        let init = provision + runtime_startup + load;

        let mut inv_rng = SimRng::seed_from(inv.seed);
        let outcome = container.process_mut().invoke(inv.handler, &mut inv_rng)?;
        if let Some(store) = &self.config.snapshot_store {
            Self::refine_snapshot(store, &mut container, inv.at);
        }
        let e2e = wait + init + outcome.exec_time;
        container.occupy(inv.at + wait, init + outcome.exec_time);
        self.note_occupied(container.busy_until());
        let base = self.config.container_base_mem_kb;
        let record = InvocationRecord {
            at: inv.at,
            handler: inv.handler,
            cold: true,
            wait_time: wait,
            provision_time: provision,
            runtime_startup_time: runtime_startup,
            load_time: load,
            init_latency: init,
            exec_latency: outcome.exec_time,
            e2e_latency: e2e,
            deferred_load_time: outcome.deferred_load_time,
            peak_mem_kb: outcome.peak_mem_kb + base,
            container: container.id(),
        };
        self.containers.push(container);
        Ok(record)
    }

    /// Provisions a fresh container created at `at`: draws its jitter time
    /// scale, takes the next id, and attaches the node zygote and the
    /// observer. Returns it with its scaled provision and runtime-startup
    /// costs; loading its module graph is left to the caller.
    fn new_container(&mut self, at: SimTime) -> (Container, SimDuration, SimDuration) {
        let time_scale = self.sample_time_scale();
        let id = self.next_container_id;
        self.next_container_id += 1;
        let mut container = Container::with_plan(
            id,
            Arc::clone(&self.app),
            Arc::clone(&self.plan),
            time_scale,
            at,
        );
        if let Some(zygote) = &self.config.zygote {
            container.process_mut().set_zygote(Arc::clone(zygote));
        }
        if let Some(factory) = &self.config.observer_factory {
            // Chaos: a sampler dropout window — the profiler attachment
            // fails for this container's whole lifetime (zero samples).
            let dropped = self
                .config
                .chaos
                .as_ref()
                .is_some_and(|c| c.sampler_dropout());
            if !dropped {
                container.process_mut().attach_observer(factory());
            }
        }
        let provision = self.config.provision_cost.mul_f64(time_scale);
        let runtime_startup = self.config.runtime_startup_cost.mul_f64(time_scale);
        (container, provision, runtime_startup)
    }

    /// All containers busy and at the cap: wait for the first to free up.
    fn dispatch_queued(&mut self, inv: Invocation) -> Result<InvocationRecord, RuntimeFault> {
        let free_at = self
            .containers
            .iter()
            .map(Container::busy_until)
            .min()
            .expect("cap implies at least one container");
        let wait = free_at.saturating_since(inv.at);
        let id = self
            .containers
            .iter()
            .min_by_key(|c| c.busy_until())
            .map(Container::id)
            .expect("container exists");
        let container = self
            .containers
            .iter_mut()
            .find(|c| c.id() == id)
            .expect("container exists");
        let mut inv_rng = SimRng::seed_from(inv.seed);
        let outcome = container.process_mut().invoke(inv.handler, &mut inv_rng)?;
        if let Some(store) = &self.config.snapshot_store {
            Self::refine_snapshot(store, container, inv.at);
        }
        container.occupy(free_at, outcome.exec_time);
        let busy_until = container.busy_until();
        self.note_occupied(busy_until);
        let base = self.config.container_base_mem_kb;
        Ok(InvocationRecord {
            at: inv.at,
            handler: inv.handler,
            cold: false,
            wait_time: wait,
            provision_time: SimDuration::ZERO,
            runtime_startup_time: SimDuration::ZERO,
            load_time: SimDuration::ZERO,
            init_latency: SimDuration::ZERO,
            exec_latency: outcome.exec_time,
            e2e_latency: wait + outcome.exec_time,
            deferred_load_time: outcome.deferred_load_time,
            peak_mem_kb: outcome.peak_mem_kb + base,
            container: id,
        })
    }

    fn sample_time_scale(&mut self) -> f64 {
        if self.config.jitter_sigma <= 0.0 {
            return 1.0;
        }
        // Log-normal with median 1.0.
        let u1 = (1.0 - self.rng.next_f64()).max(f64::MIN_POSITIVE);
        let u2 = self.rng.next_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (self.config.jitter_sigma * z).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimstart_appmodel::app::AppBuilder;
    use slimstart_appmodel::function::{Stmt, StmtKind};
    use slimstart_appmodel::imports::ImportMode;
    use slimstart_appmodel::HandlerId;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    fn app() -> Arc<Application> {
        let mut b = AppBuilder::new("t");
        let lib = b.add_library("lib");
        let h = b.add_app_module("handler", ms(1), 100);
        let root = b.add_library_module("lib", ms(99), 1_000, false, lib);
        b.add_import(h, root, 2, ImportMode::Global).unwrap();
        let f_lib = b.add_function(
            "work",
            root,
            5,
            vec![Stmt {
                line: 6,
                kind: StmtKind::Work(ms(10)),
            }],
        );
        let f = b.add_function(
            "main",
            h,
            4,
            vec![Stmt {
                line: 5,
                kind: StmtKind::call(f_lib),
            }],
        );
        b.add_handler("main", f);
        Arc::new(b.finish().unwrap())
    }

    fn cfg() -> PlatformConfig {
        PlatformConfig::default().without_jitter()
    }

    fn inv(at_ms: u64, seed: u64) -> Invocation {
        Invocation {
            at: SimTime::from_millis(at_ms),
            handler: HandlerId::from_index(0),
            seed,
        }
    }

    #[test]
    fn first_invocation_is_cold_with_decomposed_init() {
        let mut p = Platform::new(app(), cfg(), 1);
        let recs = p.run(&[inv(0, 1)]).unwrap();
        let r = recs[0];
        assert!(r.cold);
        assert_eq!(r.provision_time, ms(45));
        assert_eq!(r.runtime_startup_time, ms(35));
        assert_eq!(r.load_time, ms(100)); // 1 + 99
        assert_eq!(r.init_latency, ms(180));
        assert_eq!(r.exec_latency, ms(10));
        assert_eq!(r.e2e_latency, ms(190));
        // 35 MB base + 1.1 MB modules.
        assert_eq!(r.peak_mem_kb, 35 * 1024 + 1_100);
    }

    #[test]
    fn back_to_back_requests_hit_warm_container() {
        let mut p = Platform::new(app(), cfg(), 1);
        let recs = p
            .run(&[inv(0, 1), inv(1_000, 2), inv(2_000, 3)])
            .unwrap()
            .to_vec();
        assert!(recs[0].cold);
        assert!(!recs[1].cold);
        assert!(!recs[2].cold);
        assert_eq!(recs[1].init_latency, SimDuration::ZERO);
        assert_eq!(recs[1].e2e_latency, ms(10));
        assert_eq!(p.containers.len(), 1);
    }

    #[test]
    fn keep_alive_expiry_recreates_cold_start() {
        let mut p = Platform::new(app(), cfg(), 1);
        let gap_ms = 11 * 60 * 1000; // > 10 min keep-alive
        let recs = p.run(&[inv(0, 1), inv(gap_ms, 2)]).unwrap().to_vec();
        assert!(recs[0].cold);
        assert!(recs[1].cold);
        assert_eq!(p.containers.len(), 1); // old one reclaimed
    }

    #[test]
    fn concurrent_requests_scale_out() {
        let mut p = Platform::new(app(), cfg(), 1);
        // Second arrives while first still initializing.
        let recs = p.run(&[inv(0, 1), inv(5, 2)]).unwrap().to_vec();
        assert!(recs[0].cold);
        assert!(recs[1].cold);
        assert_eq!(p.containers.len(), 2);
    }

    #[test]
    fn container_cap_queues() {
        let config = PlatformConfig {
            max_containers: 1,
            ..cfg()
        };
        let mut p = Platform::new(app(), config, 1);
        let recs = p.run(&[inv(0, 1), inv(5, 2)]).unwrap().to_vec();
        assert!(recs[0].cold);
        assert!(!recs[1].cold);
        // First busy until 190 ms; second waits 185 ms then runs warm.
        assert_eq!(recs[1].wait_time, ms(185));
        assert_eq!(recs[1].e2e_latency, ms(195));
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_invocations_panic() {
        let mut p = Platform::new(app(), cfg(), 1);
        let _ = p.run(&[inv(10, 1), inv(0, 2)]);
    }

    #[test]
    fn prewarmed_pool_absorbs_first_requests() {
        let mut p = Platform::new(app(), cfg(), 1);
        p.prewarm(2, HandlerId::from_index(0)).unwrap();
        assert_eq!(p.containers.len(), 2);
        // Requests arriving after warm-up completes (init = 180 ms) are warm.
        let recs = p.run(&[inv(200, 1), inv(210, 2)]).unwrap().to_vec();
        assert!(!recs[0].cold);
        assert!(!recs[1].cold);
        assert_eq!(recs[0].init_latency, SimDuration::ZERO);
    }

    #[test]
    fn requests_during_warmup_still_cold_start() {
        let mut p = Platform::new(app(), cfg(), 1);
        p.prewarm(1, HandlerId::from_index(0)).unwrap();
        // Arrives at 10 ms, while the pool is still warming (busy to 180 ms).
        let recs = p.run(&[inv(10, 1)]).unwrap().to_vec();
        assert!(recs[0].cold);
        assert_eq!(p.containers.len(), 2);
    }

    #[test]
    fn prewarmed_pool_expires_like_any_container() {
        let mut p = Platform::new(app(), cfg(), 1);
        p.prewarm(1, HandlerId::from_index(0)).unwrap();
        // After keep-alive lapses, the pool is reclaimed and the request
        // cold-starts.
        let recs = p.run(&[inv(11 * 60 * 1000, 1)]).unwrap().to_vec();
        assert!(recs[0].cold);
        assert_eq!(p.containers.len(), 1);
    }

    #[test]
    fn jitter_produces_varying_init() {
        let config = PlatformConfig {
            jitter_sigma: 0.1,
            ..PlatformConfig::default()
        };
        let mut p = Platform::new(app(), config, 7);
        let gap = 11 * 60 * 1000;
        let recs = p
            .run(&[inv(0, 1), inv(gap, 2), inv(2 * gap, 3)])
            .unwrap()
            .to_vec();
        let inits: Vec<u64> = recs.iter().map(|r| r.init_latency.as_micros()).collect();
        assert!(inits[0] != inits[1] || inits[1] != inits[2]);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut p = Platform::new(app(), PlatformConfig::default(), 99);
            p.run(&[inv(0, 1), inv(10, 2)]).unwrap().to_vec()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn records_accumulate_across_batches() {
        let mut p = Platform::new(app(), cfg(), 1);
        p.run(&[inv(0, 1)]).unwrap();
        p.run(&[inv(1_000, 2)]).unwrap();
        assert_eq!(p.records().len(), 2);
    }

    mod snapshots {
        use super::*;

        #[test]
        fn snapshot_cache_is_byte_invisible_in_records() {
            // Jitter on, so restores replay through varying time scales;
            // the recurrent cold starts (keep-alive gaps) hit the cache and
            // must produce byte-identical records either way.
            let gap = 11 * 60 * 1000;
            let invs = [inv(0, 1), inv(gap, 2), inv(2 * gap, 3), inv(3 * gap, 4)];
            let jittered = PlatformConfig {
                jitter_sigma: 0.1,
                ..PlatformConfig::default()
            };
            let store = Arc::new(SnapshotStore::new());
            let cached = {
                let c = jittered.clone().with_snapshot_store(Arc::clone(&store));
                let mut p = Platform::new(app(), c, 7);
                p.run(&invs).unwrap().to_vec()
            };
            assert_eq!(store.misses(), 1, "first cold start populates");
            assert_eq!(store.hits(), 3, "repeats restore");
            let replayed = {
                let mut p = Platform::new(app(), jittered.without_snapshots(), 7);
                p.run(&invs).unwrap().to_vec()
            };
            assert_eq!(cached, replayed);
        }

        #[test]
        fn redeploy_invalidates_by_fingerprint() {
            let store = Arc::new(SnapshotStore::new());
            let c = cfg().with_snapshot_store(Arc::clone(&store));
            let mut p = Platform::new(app(), c.clone(), 1);
            p.run(&[inv(0, 1)]).unwrap();
            assert_eq!(store.len(), 1);
            // "Optimize" the app (defer the lib import, as the optimizer
            // would) and redeploy sharing the same store: the changed
            // fingerprint must miss and add a second entry.
            let mut b = AppBuilder::new("t");
            let lib = b.add_library("lib");
            let h = b.add_app_module("handler", ms(1), 100);
            let root = b.add_library_module("lib", ms(99), 1_000, false, lib);
            b.add_import(h, root, 2, ImportMode::Deferred).unwrap();
            let f_lib = b.add_function(
                "work",
                root,
                5,
                vec![Stmt {
                    line: 6,
                    kind: StmtKind::Work(ms(10)),
                }],
            );
            let f = b.add_function(
                "main",
                h,
                4,
                vec![Stmt {
                    line: 5,
                    kind: StmtKind::call(f_lib),
                }],
            );
            b.add_handler("main", f);
            let optimized = Arc::new(b.finish().unwrap());
            let mut p2 = Platform::new(optimized, c, 1);
            // Deploying the changed fingerprint evicted the stale entry
            // outright — not just a miss.
            assert_eq!(store.len(), 0, "redeploy must evict stale entries");
            assert_eq!(store.evictions(), 1);
            p2.run(&[inv(0, 1)]).unwrap();
            assert_eq!(store.len(), 1, "redeploy must not reuse old entries");
            assert_eq!(store.hits(), 0);
        }

        #[test]
        fn lazy_store_refines_working_set_and_speeds_cold_starts() {
            // handler calls into lib only; lib.dead is an eagerly imported
            // module the handler never uses. After the first invocation
            // refines the working set, later cold starts restore lazily and
            // skip lib.dead's 200 ms — a genuinely faster modeled cold
            // start, unlike the byte-invisible full-stream cache.
            let mut b = AppBuilder::new("lazy");
            let lib = b.add_library("lib");
            let h = b.add_app_module("handler", ms(1), 100);
            let root = b.add_library_module("lib", ms(99), 1_000, false, lib);
            let dead = b.add_library_module("lib.dead", ms(200), 4_000, false, lib);
            b.add_import(h, root, 2, ImportMode::Global).unwrap();
            b.add_import(root, dead, 3, ImportMode::Global).unwrap();
            let f_lib = b.add_function(
                "work",
                root,
                5,
                vec![Stmt {
                    line: 6,
                    kind: StmtKind::Work(ms(10)),
                }],
            );
            let f = b.add_function(
                "main",
                h,
                4,
                vec![Stmt {
                    line: 5,
                    kind: StmtKind::call(f_lib),
                }],
            );
            b.add_handler("main", f);
            let app = Arc::new(b.finish().unwrap());

            let store = Arc::new(SnapshotStore::with_limits(None, true));
            let c = cfg().with_snapshot_store(Arc::clone(&store));
            let mut p = Platform::new(Arc::clone(&app), c, 1);
            let gap = 11 * 60 * 1000;
            let recs = p
                .run(&[inv(0, 1), inv(gap, 2), inv(2 * gap, 3)])
                .unwrap()
                .to_vec();
            // First cold start replays everything: 1 + 99 + 200 ms.
            assert_eq!(recs[0].load_time, ms(300));
            // Later ones restore the refined working set: lib.dead omitted.
            assert_eq!(recs[1].load_time, ms(100));
            assert_eq!(recs[2].load_time, ms(100));
            // The handler never touches lib.dead, so nothing faults.
            assert_eq!(store.faulted_loads(), 0);
            assert_eq!((store.hits(), store.misses()), (2, 1));
            // Resident accounting shrank to the working set:
            // handler (100 KiB) + lib (1000 KiB), not lib.dead's 4000.
            assert_eq!(store.resident_bytes(), 1_100 * 1024);
        }

        #[test]
        fn observed_processes_never_use_the_cache() {
            use slimstart_pyrt::observer::NullObserver;
            let store = Arc::new(SnapshotStore::new());
            let factory: ObserverFactory = Arc::new(|| Box::new(NullObserver));
            let c = cfg()
                .with_snapshot_store(Arc::clone(&store))
                .with_observer_factory(factory);
            let gap = 11 * 60 * 1000;
            let mut p = Platform::new(app(), c, 1);
            p.run(&[inv(0, 1), inv(gap, 2)]).unwrap();
            assert!(store.is_empty(), "observed cold starts must replay");
            assert_eq!((store.hits(), store.misses()), (0, 0));
        }
    }

    mod zygotes {
        use super::*;
        use slimstart_pyrt::zygote::ZygoteCounters;

        fn lib_zygote(app: &Application, fork_us: u64) -> (Arc<ZygoteImage>, Arc<ZygoteCounters>) {
            let counters = Arc::new(ZygoteCounters::default());
            let image = Arc::new(ZygoteImage::for_app(
                app,
                &["lib"],
                1,
                SimDuration::from_micros(fork_us),
                Arc::clone(&counters),
            ));
            (image, counters)
        }

        #[test]
        fn forked_cold_starts_acquire_resident_libraries_cheaply() {
            let app = app();
            let (image, counters) = lib_zygote(&app, 100);
            let c = cfg().without_snapshots().with_zygote(image);
            let mut p = Platform::new(Arc::clone(&app), c, 1);
            let gap = 11 * 60 * 1000;
            let recs = p
                .run(&[inv(0, 1), inv(1_000, 2), inv(gap + 1_000, 3)])
                .unwrap()
                .to_vec();
            // Cold: handler runs its 1 ms top level, lib (99 ms nominal) is
            // acquired from the zygote at 100 µs.
            assert!(recs[0].cold);
            assert_eq!(recs[0].load_time, ms(1) + SimDuration::from_micros(100));
            // Warm routing and keep-alive are untouched by sharing.
            assert!(!recs[1].cold);
            assert_eq!(recs[1].e2e_latency, ms(10));
            // Keep-alive reclaim later: a fresh cold start forks again.
            assert!(recs[2].cold);
            assert_eq!(counters.forks(), 2);
            assert_eq!(counters.forked_loads(), 2);
        }

        #[test]
        fn zygote_snapshot_cache_is_byte_invisible_in_records() {
            // Snapshots record nominal charges; restores substitute the
            // fork cost exactly as real forked cold starts do, so the
            // full-stream cache stays byte-invisible under a zygote,
            // jitter included.
            let gap = 11 * 60 * 1000;
            let invs = [inv(0, 1), inv(gap, 2), inv(2 * gap, 3), inv(3 * gap, 4)];
            let jittered = PlatformConfig {
                jitter_sigma: 0.1,
                ..PlatformConfig::default()
            };
            let app = app();
            let cached = {
                let (image, _) = lib_zygote(&app, 100);
                let store = Arc::new(SnapshotStore::new());
                let c = jittered
                    .clone()
                    .with_snapshot_store(Arc::clone(&store))
                    .with_zygote(image);
                let mut p = Platform::new(Arc::clone(&app), c, 7);
                let recs = p.run(&invs).unwrap().to_vec();
                assert_eq!((store.hits(), store.misses()), (3, 1));
                recs
            };
            let replayed = {
                let (image, _) = lib_zygote(&app, 100);
                let c = jittered.without_snapshots().with_zygote(image);
                let mut p = Platform::new(Arc::clone(&app), c, 7);
                p.run(&invs).unwrap().to_vec()
            };
            assert_eq!(cached, replayed);
        }
    }

    mod chaos_injection {
        use super::*;
        use crate::chaos::{ChaosConfig, ChaosPlan};

        fn chaotic(config: ChaosConfig) -> PlatformConfig {
            cfg().with_chaos(Arc::new(ChaosPlan::from_seed(config, 11)))
        }

        #[test]
        fn none_plan_is_byte_identical_to_no_plan() {
            let plain = {
                let mut p = Platform::new(app(), cfg(), 5);
                p.run(&[inv(0, 1), inv(500, 2), inv(1_000, 3)])
                    .unwrap()
                    .to_vec()
            };
            let passthrough = {
                let c = cfg().with_chaos(Arc::new(ChaosPlan::none()));
                let mut p = Platform::new(app(), c, 5);
                p.run(&[inv(0, 1), inv(500, 2), inv(1_000, 3)])
                    .unwrap()
                    .to_vec()
            };
            assert_eq!(plain, passthrough);
        }

        #[test]
        fn certain_init_crashes_charge_capped_wait() {
            let config = ChaosConfig {
                crash_during_init: 1.0,
                ..ChaosConfig::DISABLED
            };
            let mut p = Platform::new(app(), chaotic(config), 5);
            let recs = p.run(&[inv(0, 1)]).unwrap();
            // Rate 1.0 hits the retry cap: 3 crashed sandboxes at
            // (45 + 35) ms each before one survives.
            assert!(recs[0].cold);
            assert_eq!(recs[0].wait_time, ms(3 * 80));
            assert_eq!(recs[0].e2e_latency, ms(3 * 80 + 190));
        }

        #[test]
        fn reclamation_storm_forces_recurrent_cold_starts() {
            let config = ChaosConfig {
                reclamation_storm: 1.0,
                ..ChaosConfig::DISABLED
            };
            let mut p = Platform::new(app(), chaotic(config), 5);
            // 1 s apart: without the storm the second request is warm
            // (see back_to_back_requests_hit_warm_container).
            let recs = p.run(&[inv(0, 1), inv(1_000, 2)]).unwrap();
            assert!(recs[0].cold);
            assert!(recs[1].cold);
        }

        #[test]
        fn sampler_dropout_skips_observer_attachment() {
            use slimstart_pyrt::observer::NullObserver;
            use std::sync::atomic::{AtomicUsize, Ordering};
            static ATTACHED: AtomicUsize = AtomicUsize::new(0);
            let factory: ObserverFactory = Arc::new(|| {
                ATTACHED.fetch_add(1, Ordering::SeqCst);
                Box::new(NullObserver)
            });
            let config = ChaosConfig {
                sampler_dropout: 1.0,
                ..ChaosConfig::DISABLED
            };
            let platform_cfg = chaotic(config).with_observer_factory(factory);
            let mut p = Platform::new(app(), platform_cfg, 5);
            p.run(&[inv(0, 1)]).unwrap();
            assert_eq!(
                ATTACHED.load(Ordering::SeqCst),
                0,
                "dropout must skip attachment"
            );
        }

        #[test]
        fn chaos_does_not_perturb_the_jitter_stream() {
            // Same platform seed, jitter on: the jittered init latencies
            // must be identical with and without chaos (crash penalties
            // land in wait_time, storms only affect warm/cold routing —
            // here every request is cold already).
            let gap = 11 * 60 * 1000;
            let invs = [inv(0, 1), inv(gap, 2), inv(2 * gap, 3)];
            let jittered = PlatformConfig {
                jitter_sigma: 0.1,
                ..PlatformConfig::default()
            };
            let plain: Vec<u64> = {
                let mut p = Platform::new(app(), jittered.clone(), 7);
                p.run(&invs)
                    .unwrap()
                    .iter()
                    .map(|r| r.init_latency.as_micros())
                    .collect()
            };
            let chaotic: Vec<u64> = {
                let config = ChaosConfig {
                    crash_during_init: 0.7,
                    reclamation_storm: 0.7,
                    ..ChaosConfig::DISABLED
                };
                let c = jittered.with_chaos(Arc::new(ChaosPlan::from_seed(config, 11)));
                let mut p = Platform::new(app(), c, 7);
                p.run(&invs)
                    .unwrap()
                    .iter()
                    .map(|r| r.init_latency.as_micros())
                    .collect()
            };
            assert_eq!(plain, chaotic);
        }
    }
}
