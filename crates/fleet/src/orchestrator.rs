//! The parallel fleet orchestrator.
//!
//! Fans a population of applications out across scoped worker threads,
//! running the full SLIMSTART pipeline for each and folding finished
//! apps into a streaming [`FleetAggregator`]. Determinism discipline:
//!
//! 1. **Seeds first.** All per-app seeds are split from the experiment
//!    seed *sequentially, before any worker starts*
//!    ([`slimstart_simcore::SimRng::split_seed`]), so seed assignment is a
//!    pure function of (experiment seed, population index) — which worker
//!    claims which chunk (and when) is racy and irrelevant.
//! 2. **Order-free aggregation.** The population is cut into fixed-size
//!    chunks of consecutive indices. Workers claim chunk ids one at a
//!    time from a shared counter and fold every app they run into one
//!    partial each; the partials merge after the workers join. Every
//!    field of the aggregator is an order-free fold (integer counts,
//!    fixed-point sums, histogram bins, min/max, an XOR digest, a detail
//!    window sorted at the end), so no fold or merge order can move a
//!    byte of the report.
//! 3. **Wall-clock stays out.** Timing and pool geometry live in
//!    [`FleetRunStats`], reported next to — never inside — the
//!    serialized [`FleetReport`].
//!
//! Consequently `threads = 1` and `threads = 8` produce byte-identical
//! report JSON for the same configuration (covered by
//! `tests/fleet_determinism.rs`, `tests/fleet_streaming_equivalence.rs`
//! and the `slimstart fleet` CLI contract), while memory stays constant:
//! no per-app record vector is ever retained at 10k scale.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use slimstart_appmodel::catalog::{fleet_population, CatalogApp};
use slimstart_core::pipeline::{Pipeline, PipelineConfig, PipelineError, PipelineOutcome};
use slimstart_core::resilience::DegradationLevel;
use slimstart_platform::chaos::{ChaosConfig, ChaosPlan};
use slimstart_platform::metrics::Speedup;
use slimstart_pyrt::snapshot::SnapshotStore;
use slimstart_pyrt::zygote::{ZygoteCounters, ZygoteImage};
use slimstart_simcore::SimRng;

use crate::report::{
    AppChaosRecord, AppRecord, AppSnapshotRecord, AppZygoteRecord, FleetAggregator, FleetReport,
};
use crate::snapshot_pool::NodeSnapshotPool;
use crate::zygote_pool::{NodeZygotePool, ZygotePlan};

/// XOR tag deriving the fleet's chaos seed root from the experiment seed.
/// Distinct from the pipeline's own chaos stream tag, so fleet-assigned
/// chaos seeds never collide with seeds a standalone pipeline would derive.
const FLEET_CHAOS_TAG: u64 = 0xFEE7_CA05;

/// Population indices per chunk a worker claims. Large enough that
/// claims are micro-rare next to per-app pipeline work, small enough
/// that a 10k-app fleet still yields ~300 units to balance.
pub const DEFAULT_CHUNK: usize = 32;

/// A per-app stall hook for tests: given the population index, how long
/// the worker should sleep before running that app. The scheduling
/// property suite uses it to perturb completion order without touching
/// seeds; the report must not move.
pub type StallHook = Arc<dyn Fn(usize) -> Duration + Send + Sync>;

/// Fleet-run configuration.
#[derive(Clone)]
pub struct FleetConfig {
    /// Number of applications (cycling the catalog when above 22).
    pub apps: usize,
    /// Worker threads (clamped to at least 1, and to the number of work
    /// chunks the population actually yields).
    pub threads: usize,
    /// The experiment seed every per-app stream is split from.
    pub seed: u64,
    /// Cold starts per measurement run (paper: 500).
    pub cold_starts: usize,
    /// Measurement runs averaged per application (`SLIMSTART_RUNS`
    /// methodology; the paper averages five).
    pub runs: usize,
    /// Population indices per chunk a worker claims (clamped to at least
    /// 1). Changing it regroups which apps share a partial, which is
    /// harmless: every fold is order-free, so the report bytes do not
    /// move.
    pub chunk: usize,
    /// Optional per-app stall hook (see [`StallHook`]). `None` runs
    /// apps back to back.
    pub stall: Option<StallHook>,
    /// Template pipeline configuration (platform, sampler, detector,
    /// collector transport). Its `seed` and `cold_starts` are overridden
    /// per app from the fields above.
    pub pipeline: PipelineConfig,
    /// Fault-injection rates. [`ChaosConfig::DISABLED`] (the default)
    /// keeps every report byte-identical to a chaos-free build.
    pub chaos: ChaosConfig,
    /// Node-level snapshot budgeting. `None` (the default) keeps PR 5
    /// behavior: per-app unbounded full-stream stores, and no snapshot
    /// counters in the report.
    pub snapshot: Option<NodeSnapshotPool>,
    /// Node-level zygote pool (live dependency sharing). `None` (the
    /// default) keeps every cold start booting an empty runtime and the
    /// report byte-identical to zygote-free builds.
    pub zygote: Option<NodeZygotePool>,
}

impl fmt::Debug for FleetConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FleetConfig")
            .field("apps", &self.apps)
            .field("threads", &self.threads)
            .field("seed", &self.seed)
            .field("cold_starts", &self.cold_starts)
            .field("runs", &self.runs)
            .field("chunk", &self.chunk)
            .field("stall", &self.stall.as_ref().map(|_| "<hook>"))
            .field("pipeline", &self.pipeline)
            .field("chaos", &self.chaos)
            .field("snapshot", &self.snapshot)
            .field("zygote", &self.zygote)
            .finish()
    }
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            apps: 22,
            threads: 1,
            seed: 2025,
            cold_starts: 500,
            runs: 1,
            chunk: DEFAULT_CHUNK,
            stall: None,
            pipeline: PipelineConfig::default(),
            chaos: ChaosConfig::DISABLED,
            snapshot: None,
            zygote: None,
        }
    }
}

impl FleetConfig {
    /// Sets the fleet size.
    #[must_use]
    pub fn with_apps(mut self, apps: usize) -> Self {
        self.apps = apps;
        self
    }

    /// Sets the worker-pool size.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the experiment seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the cold starts per measurement run.
    #[must_use]
    pub fn with_cold_starts(mut self, cold_starts: usize) -> Self {
        self.cold_starts = cold_starts;
        self
    }

    /// Sets the measurement runs averaged per application.
    #[must_use]
    pub fn with_runs(mut self, runs: usize) -> Self {
        self.runs = runs;
        self
    }

    /// Sets the chunk size.
    #[must_use]
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk;
        self
    }

    /// Installs a per-app stall hook.
    #[must_use]
    pub fn with_stall_hook(mut self, stall: StallHook) -> Self {
        self.stall = Some(stall);
        self
    }

    /// Sets the template pipeline configuration.
    #[must_use]
    pub fn with_pipeline(mut self, pipeline: PipelineConfig) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Sets the fault-injection rates applied to every application.
    #[must_use]
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = chaos;
        self
    }

    /// Installs a node-level snapshot pool (budgeted, working-set-lazy
    /// stores plus snapshot counters in the report).
    #[must_use]
    pub fn with_snapshot_pool(mut self, pool: NodeSnapshotPool) -> Self {
        self.snapshot = Some(pool);
        self
    }

    /// Installs a node-level zygote pool (fork-based live dependency
    /// sharing plus zygote counters in the report, schema v4).
    #[must_use]
    pub fn with_zygote_pool(mut self, pool: NodeZygotePool) -> Self {
        self.zygote = Some(pool);
        self
    }
}

/// Errors from a fleet run, tagged with the failing application.
#[derive(Debug, Clone)]
pub enum FleetError {
    /// The catalog blueprint failed to synthesize.
    Build {
        /// Catalog code of the failing application.
        code: String,
        /// The blueprint error, rendered.
        message: String,
    },
    /// The application's pipeline run failed.
    Pipeline {
        /// Catalog code of the failing application.
        code: String,
        /// The underlying pipeline error.
        source: PipelineError,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Build { code, message } => {
                write!(f, "{code}: blueprint failed: {message}")
            }
            FleetError::Pipeline { code, source } => {
                write!(f, "{code}: pipeline failed: {source}")
            }
        }
    }
}

impl std::error::Error for FleetError {}

/// Nondeterministic facts about a fleet run — wall-clock throughput and
/// pool geometry.
///
/// Kept separate from [`FleetReport`] so the serialized report stays
/// byte-identical across worker-pool sizes.
#[derive(Debug, Clone, Copy)]
pub struct FleetRunStats {
    /// Total wall-clock time of the run.
    pub wall_clock: Duration,
    /// Worker threads actually spawned (the configured count clamped to
    /// the number of work chunks).
    pub threads: usize,
    /// Applications completed.
    pub apps: usize,
    /// Applications completed per wall-clock second (0.0 for an empty
    /// fleet or an immeasurably fast run — never NaN or infinite).
    pub apps_per_second: f64,
    /// Peak resident size of the aggregation state: the workers'
    /// partials summed once they have all finished, in bytes. Bounded by
    /// the worker count, not fleet size.
    pub aggregate_peak_bytes: usize,
}

impl FleetRunStats {
    /// Assembles run stats, guarding the throughput division: zero apps
    /// or a zero-duration clock report 0.0 apps/s rather than NaN/inf.
    fn new(wall_clock: Duration, threads: usize, apps: usize, aggregate_peak_bytes: usize) -> Self {
        let secs = wall_clock.as_secs_f64();
        let apps_per_second = if apps == 0 || secs <= 0.0 {
            0.0
        } else {
            apps as f64 / secs
        };
        FleetRunStats {
            wall_clock,
            threads,
            apps,
            apps_per_second,
            aggregate_peak_bytes,
        }
    }
}

impl fmt::Display for FleetRunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "wall-clock {:.2?} across {} thread(s) ({:.2} apps/s, peak aggregate {} B)",
            self.wall_clock, self.threads, self.apps_per_second, self.aggregate_peak_bytes
        )
    }
}

/// Field-wise mean of a non-empty speedup set — the paper's
/// "averaged over five iterative runs" methodology.
///
/// # Panics
///
/// Panics when `speedups` is empty.
pub fn mean_speedup(speedups: &[Speedup]) -> Speedup {
    assert!(!speedups.is_empty(), "need at least one speedup");
    let n = speedups.len() as f64;
    Speedup {
        init: speedups.iter().map(|s| s.init).sum::<f64>() / n,
        load: speedups.iter().map(|s| s.load).sum::<f64>() / n,
        e2e: speedups.iter().map(|s| s.e2e).sum::<f64>() / n,
        p99_init: speedups.iter().map(|s| s.p99_init).sum::<f64>() / n,
        p99_load: speedups.iter().map(|s| s.p99_load).sum::<f64>() / n,
        p99_e2e: speedups.iter().map(|s| s.p99_e2e).sum::<f64>() / n,
        mem: speedups.iter().map(|s| s.mem).sum::<f64>() / n,
    }
}

/// Splits the per-app seed pairs for a population, sequentially and up
/// front: seed assignment is a pure function of (experiment seed,
/// population index), never of scheduling.
fn split_jobs(seed: u64, population: &[CatalogApp]) -> Vec<(usize, &CatalogApp, u64, u64)> {
    let mut root = SimRng::seed_from(seed);
    // Chaos seeds come from their own root stream: enabling fault
    // injection must not shift any app's main simulation seed.
    let mut chaos_root = SimRng::seed_from(seed ^ FLEET_CHAOS_TAG);
    population
        .iter()
        .enumerate()
        .map(|(i, entry)| (i, entry, root.split_seed(), chaos_root.split_seed()))
        .collect()
}

/// Plans the per-node zygotes sequentially, before any worker starts:
/// the plan is a pure function of the pool geometry and the population's
/// run-0 builds (each app's first measurement run uses its base seed),
/// so which worker later runs which app cannot move a single resident
/// module.
fn plan_zygotes(
    cfg: &FleetConfig,
    jobs: &[(usize, &CatalogApp, u64, u64)],
) -> Result<Option<ZygotePlan>, FleetError> {
    let Some(pool) = &cfg.zygote else {
        return Ok(None);
    };
    let mut apps = Vec::with_capacity(jobs.len());
    for &(index, entry, seed, _) in jobs {
        let built = entry.build(seed).map_err(|e| FleetError::Build {
            code: entry.code.to_string(),
            message: e.to_string(),
        })?;
        apps.push((index, built.app));
    }
    Ok(Some(pool.plan(&apps)))
}

/// The orchestrator.
#[derive(Debug, Clone, Default)]
pub struct FleetOrchestrator {
    config: FleetConfig,
}

impl FleetOrchestrator {
    /// Creates an orchestrator with the given configuration.
    pub fn new(config: FleetConfig) -> Self {
        FleetOrchestrator { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Runs the fleet over the default population: `config.apps`
    /// applications cycled from the catalog.
    ///
    /// # Errors
    ///
    /// Returns the lowest-index application failure.
    pub fn run(&self) -> Result<(FleetReport, FleetRunStats), FleetError> {
        self.run_population(&fleet_population(self.config.apps))
    }

    /// Runs the fleet over an explicit population on scoped workers and
    /// the streaming aggregator.
    ///
    /// # Errors
    ///
    /// Returns the lowest-index application failure, whatever the
    /// scheduling: chunk ids are claimed in ascending order and a worker
    /// stops at its first failure, so the chunk holding the lowest
    /// failing index is always claimed (by a worker that has not failed
    /// below it) and run up to that index.
    pub fn run_population(
        &self,
        population: &[CatalogApp],
    ) -> Result<(FleetReport, FleetRunStats), FleetError> {
        let cfg = &self.config;
        let start = Instant::now();

        let jobs = split_jobs(cfg.seed, population);
        let zygote_plan = plan_zygotes(cfg, &jobs)?;
        let chunks: Vec<_> = jobs.chunks(cfg.chunk.max(1)).collect();
        let threads = cfg.threads.max(1).min(chunks.len().max(1));

        // One chunk per claim: a worker takes the next chunk only when it
        // has finished its last, so no chunk waits behind a busy worker.
        // The counter publishes no other data (the jobs are shared
        // read-only and the partials come back through `join`), so
        // `Relaxed` will do.
        let next_chunk = AtomicUsize::new(0);
        let worker = || -> Result<FleetAggregator, (usize, FleetError)> {
            let mut partial = FleetAggregator::new();
            while let Some(chunk) = chunks.get(next_chunk.fetch_add(1, Ordering::Relaxed)) {
                for &(index, entry, seed, chaos_seed) in *chunk {
                    if let Some(stall) = &cfg.stall {
                        let pause = stall(index);
                        if !pause.is_zero() {
                            std::thread::sleep(pause);
                        }
                    }
                    let record = run_app(cfg, index, entry, seed, chaos_seed, zygote_plan.as_ref())
                        .map_err(|error| (index, error))?;
                    partial.fold(record);
                }
            }
            Ok(partial)
        };
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
            handles
                .into_iter()
                .map(|handle| {
                    handle
                        .join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect()
        });

        let mut aggregate = FleetAggregator::new();
        let mut peak_bytes = 0;
        let mut first_error: Option<(usize, FleetError)> = None;
        for result in results {
            match result {
                Ok(partial) => {
                    peak_bytes += partial.approx_bytes();
                    aggregate.merge(partial);
                }
                Err((index, error)) => {
                    if first_error
                        .as_ref()
                        .is_none_or(|(lowest, _)| index < *lowest)
                    {
                        first_error = Some((index, error));
                    }
                }
            }
        }
        if let Some((_, error)) = first_error {
            return Err(error);
        }
        debug_assert_eq!(aggregate.count(), jobs.len(), "every chunk folded");
        let report = aggregate.finish(cfg.seed, cfg.cold_starts, cfg.runs);
        let stats = FleetRunStats::new(start.elapsed(), threads, report.fleet_size, peak_bytes);
        Ok((report, stats))
    }

    /// Runs the fleet sequentially and returns every retained
    /// [`AppRecord`] in population order — the memory-proportional record
    /// source for the retained reference aggregation in
    /// `tests/fleet_streaming_equivalence.rs`, whose report must match
    /// [`run_population`](Self::run_population)'s byte for byte.
    ///
    /// # Errors
    ///
    /// Returns the lowest-index application failure.
    pub fn run_records(&self, population: &[CatalogApp]) -> Result<Vec<AppRecord>, FleetError> {
        let cfg = &self.config;
        let jobs = split_jobs(cfg.seed, population);
        let zygote_plan = plan_zygotes(cfg, &jobs)?;
        jobs.into_iter()
            .map(|(index, entry, seed, chaos_seed)| {
                run_app(cfg, index, entry, seed, chaos_seed, zygote_plan.as_ref())
            })
            .collect()
    }
}

/// Runs one application's pipeline `cfg.runs` times (derived seeds, as
/// `slimstart-bench`'s averaged runner does) and distills an [`AppRecord`].
fn run_app(
    cfg: &FleetConfig,
    index: usize,
    entry: &CatalogApp,
    seed: u64,
    chaos_seed: u64,
    zygote_plan: Option<&ZygotePlan>,
) -> Result<AppRecord, FleetError> {
    let runs = cfg.runs.max(1);
    // One plan spans all of this app's runs, so its fault counters
    // accumulate app-wide while the stream stays a pure function of
    // (experiment seed, population index).
    let chaos_plan =
        (!cfg.chaos.is_disabled()).then(|| Arc::new(ChaosPlan::from_seed(cfg.chaos, chaos_seed)));
    let zygote_spec = zygote_plan.and_then(|plan| {
        plan.spec(index)
            .map(|spec| (spec.clone(), plan.fork_cost()))
    });
    // One snapshot store per app, never shared across apps: restores are
    // byte-identical to replays, but keeping stores app-local means worker
    // scheduling cannot even share cache state across population indices —
    // thread-count independence stays structural, not incidental. With a
    // node pool the store is the app's bounded fair share of its node's
    // budget; without one it is an unbounded full-stream store. When a
    // zygote pool shares the node, its resident bytes come off the node's
    // snapshot budget first — zygotes and snapshot caches compete for the
    // same modeled memory.
    let snapshot_store = match (&cfg.snapshot, &zygote_spec) {
        (Some(pool), Some((spec, _))) => {
            Some(pool.store_for_reserved(index, spec.node_reserve_bytes))
        }
        (Some(pool), None) => Some(pool.store_for(index)),
        (None, _) => Some(Arc::new(SnapshotStore::new())),
    };
    // One counter block spans the app's containers and runs; runs are
    // sequential, so the totals are deterministic.
    let zygote_counters = zygote_spec
        .as_ref()
        .map(|_| Arc::new(ZygoteCounters::default()));
    let mut zygote_residency: Option<(u64, u64)> = None;
    let mut speedups = Vec::with_capacity(runs);
    let mut last: Option<PipelineOutcome> = None;
    for r in 0..runs {
        let run_seed = seed.wrapping_add(r as u64 * 7919);
        let built = entry.build(run_seed).map_err(|e| FleetError::Build {
            code: entry.code.to_string(),
            message: e.to_string(),
        })?;
        let mut pipeline_cfg = cfg
            .pipeline
            .clone()
            .with_seed(run_seed)
            .with_cold_starts(cfg.cold_starts);
        // Override whatever store the template platform carries (possibly
        // one shared fleet-wide through the clone) with this app's own.
        pipeline_cfg.platform.snapshot_store = snapshot_store.clone();
        if let Some((spec, fork_cost)) = &zygote_spec {
            // The image maps the node ranking onto this run's build (a
            // name-level view, so it is rebuilt per run over the run's
            // module ids) and shares the app-wide counters.
            let image = Arc::new(ZygoteImage::for_app(
                &built.app,
                &spec.ranked,
                spec.resident_prefix,
                *fork_cost,
                Arc::clone(zygote_counters.as_ref().expect("counters with spec")),
            ));
            zygote_residency = Some((image.resident_count() as u64, image.resident_bytes()));
            pipeline_cfg.platform.zygote = Some(image);
        }
        if let Some(plan) = &chaos_plan {
            pipeline_cfg = pipeline_cfg.with_chaos_plan(Arc::clone(plan));
        }
        let outcome = Pipeline::new(pipeline_cfg)
            .run(&built.app, &entry.workload_weights())
            .map_err(|e| FleetError::Pipeline {
                code: entry.code.to_string(),
                source: e,
            })?;
        speedups.push(outcome.speedup);
        last = Some(outcome);
    }
    let out = last.expect("runs >= 1");
    let rolled_back =
        (out.pre_deploy.has_errors() && out.report.gate_passed && !out.report.findings.is_empty())
            || out.resilience.degradation == DegradationLevel::RolledBack;
    // Distill the store's counters into the record before the store
    // drops with this app — the report is the only thing retained.
    let snapshot = match (&cfg.snapshot, &snapshot_store) {
        (Some(_), Some(store)) => {
            let stats = store.stats();
            Some(AppSnapshotRecord {
                hits: stats.hits,
                misses: stats.misses,
                evictions: stats.evictions,
                faulted_loads: stats.faulted_loads,
                resident_bytes: stats.resident_bytes,
            })
        }
        _ => None,
    };
    let chaos = chaos_plan.map(|plan| AppChaosRecord {
        faults: plan.total_injected(),
        profile_retries: out.resilience.profile_retries,
        deploy_retries: out.resilience.deploy_retries,
        degradation: out.resilience.degradation.label(),
        recovered: out.resilience.recovered,
    });
    let zygote = match (&zygote_counters, zygote_residency) {
        (Some(counters), Some((resident_modules, resident_bytes))) => Some(AppZygoteRecord {
            forks: counters.forks(),
            forked_loads: counters.forked_loads(),
            resident_modules,
            resident_bytes,
        }),
        _ => None,
    };
    Ok(AppRecord {
        index,
        code: entry.code.to_string(),
        name: entry.name.to_string(),
        seed,
        gate_passed: out.report.gate_passed,
        optimized: out.optimized_anything(),
        rolled_back,
        findings: out.report.findings.len(),
        deferred: out
            .optimization
            .as_ref()
            .map_or(0, |o| o.deferred_packages.len()),
        analyzer_errors: out.pre_deploy.error_count(),
        analyzer_warnings: out.pre_deploy.warning_count(),
        speedup: mean_speedup(&speedups),
        baseline_init_ms: out.baseline.mean_init_ms,
        baseline_e2e_ms: out.baseline.mean_e2e_ms,
        optimized_e2e_ms: out.optimized.mean_e2e_ms,
        chaos,
        snapshot,
        zygote,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimstart_platform::PlatformConfig;

    fn quick_fleet(apps: usize, threads: usize) -> FleetOrchestrator {
        FleetOrchestrator::new(
            FleetConfig::default()
                .with_apps(apps)
                .with_threads(threads)
                .with_seed(7)
                .with_cold_starts(10)
                .with_pipeline(
                    PipelineConfig::default()
                        .with_platform(PlatformConfig::default().without_jitter()),
                ),
        )
    }

    #[test]
    fn small_fleet_produces_per_app_rows_in_order() {
        let (report, stats) = quick_fleet(4, 2).run().unwrap();
        assert_eq!(report.fleet_size, 4);
        assert_eq!(report.detail.len(), 4);
        for (i, app) in report.detail.iter().enumerate() {
            assert_eq!(app.index, i);
        }
        assert!(!report.detail_truncated);
        assert!(stats.threads <= 2);
        assert!(report.init_speedup.mean >= 1.0);
    }

    #[test]
    fn thread_count_does_not_change_the_report() {
        let (seq, _) = quick_fleet(4, 1).run().unwrap();
        let (par, _) = quick_fleet(4, 4).run().unwrap();
        assert_eq!(seq.to_json(), par.to_json());
    }

    #[test]
    fn chunk_size_does_not_change_the_report() {
        let (big, _) = quick_fleet(5, 2).run().unwrap();
        let tiny = FleetOrchestrator::new(quick_fleet(5, 2).config().clone().with_chunk(1));
        let (small, _) = tiny.run().unwrap();
        assert_eq!(big.to_json(), small.to_json());
    }

    #[test]
    fn runs_averaging_is_applied() {
        let one = quick_fleet(1, 1);
        let (r1, _) = one.run().unwrap();
        let two = FleetOrchestrator::new(one.config().clone().with_runs(2));
        let (r2, _) = two.run().unwrap();
        assert_eq!(r2.runs, 2);
        // Averaged speedups differ from the single-run row (distinct
        // derived seeds), while staying in a plausible band.
        assert!(r2.detail[0].speedup.init > 1.0);
        assert!(
            r1.detail[0].seed == r2.detail[0].seed,
            "base seed is stable"
        );
    }

    #[test]
    fn chaos_fleet_is_deterministic_across_thread_counts() {
        let chaotic = |threads: usize| {
            FleetOrchestrator::new(
                quick_fleet(4, threads)
                    .config()
                    .clone()
                    .with_chaos(ChaosConfig::uniform(0.3)),
            )
        };
        let (seq, _) = chaotic(1).run().unwrap();
        let (par, _) = chaotic(4).run().unwrap();
        assert_eq!(seq.to_json(), par.to_json());
        assert!(seq.chaos.is_some(), "chaos summary present when enabled");
        assert!(seq.to_json().contains("\"chaos\""));
    }

    #[test]
    fn snapshot_pool_fleet_is_deterministic_across_thread_counts() {
        let pooled = |threads: usize| {
            FleetOrchestrator::new(
                quick_fleet(4, threads)
                    .config()
                    .clone()
                    .with_snapshot_pool(NodeSnapshotPool::new(Some(64 << 20), 2, true)),
            )
        };
        let (seq, _) = pooled(1).run().unwrap();
        let (par, _) = pooled(4).run().unwrap();
        assert_eq!(seq.to_json(), par.to_json());
        let snaps = seq.snapshots.expect("snapshot summary present with a pool");
        assert!(
            snaps.hits + snaps.misses > 0,
            "cold starts consulted the store"
        );
        assert!(seq.to_json().contains("\"snapshots\""));
        // Every detail row carries its own counters.
        assert!(seq.detail.iter().all(|a| a.snapshot.is_some()));
    }

    #[test]
    fn pool_free_fleet_reports_no_snapshot_counters() {
        let (plain, _) = quick_fleet(2, 1).run().unwrap();
        assert!(plain.snapshots.is_none());
        assert!(!plain.to_json().contains("\"snapshots\""));
    }

    #[test]
    fn zygote_fleet_is_deterministic_and_bumps_the_schema() {
        let forked = |threads: usize| {
            FleetOrchestrator::new(
                quick_fleet(4, threads)
                    .config()
                    .clone()
                    .with_zygote_pool(NodeZygotePool::default_geometry()),
            )
        };
        let (seq, _) = forked(1).run().unwrap();
        let (par, _) = forked(4).run().unwrap();
        assert_eq!(seq.to_json(), par.to_json());
        let zygotes = seq.zygotes.expect("zygote summary present with a pool");
        assert!(zygotes.forks > 0, "cold starts forked from the zygote");
        assert!(zygotes.forked_loads > 0, "resident modules were acquired");
        assert!(seq
            .to_json()
            .contains("\"schema\":\"slimstart-fleet-report/v4\""));
        // Every detail row carries its own counters.
        assert!(seq.detail.iter().all(|a| a.zygote.is_some()));
    }

    #[test]
    fn zygote_sharing_lowers_mean_cold_init() {
        let (plain, _) = quick_fleet(4, 1).run().unwrap();
        let forked = FleetOrchestrator::new(
            quick_fleet(4, 1)
                .config()
                .clone()
                .with_zygote_pool(NodeZygotePool::default_geometry()),
        );
        let (shared, _) = forked.run().unwrap();
        let plain_init: f64 = plain.detail.iter().map(|a| a.baseline_init_ms).sum();
        let shared_init: f64 = shared.detail.iter().map(|a| a.baseline_init_ms).sum();
        assert!(
            shared_init < plain_init,
            "forked cold starts must pay less init: {shared_init} vs {plain_init}"
        );
    }

    #[test]
    fn zygote_free_fleet_keeps_the_v3_report_bytes() {
        let (plain, _) = quick_fleet(2, 1).run().unwrap();
        assert!(plain.zygotes.is_none());
        assert!(!plain.to_json().contains("zygote"));
        assert!(plain
            .to_json()
            .contains("\"schema\":\"slimstart-fleet-report/v3\""));
    }

    #[test]
    fn combined_pools_share_the_node_budget_deterministically() {
        let both = |threads: usize| {
            FleetOrchestrator::new(
                quick_fleet(4, threads)
                    .config()
                    .clone()
                    .with_snapshot_pool(NodeSnapshotPool::new(Some(64 << 20), 2, true))
                    .with_zygote_pool(NodeZygotePool::default_geometry()),
            )
        };
        let (seq, _) = both(1).run().unwrap();
        let (par, _) = both(4).run().unwrap();
        assert_eq!(seq.to_json(), par.to_json());
        assert!(seq.snapshots.is_some() && seq.zygotes.is_some());
    }

    #[test]
    fn disabled_chaos_leaves_the_report_untouched() {
        let (plain, _) = quick_fleet(3, 2).run().unwrap();
        let zeroed = FleetOrchestrator::new(
            quick_fleet(3, 2)
                .config()
                .clone()
                .with_chaos(ChaosConfig::uniform(0.0)),
        );
        let (zero, _) = zeroed.run().unwrap();
        assert_eq!(plain.to_json(), zero.to_json());
        assert!(!plain.to_json().contains("chaos"));
    }

    #[test]
    fn seeds_are_pure_function_of_experiment_seed_and_index() {
        let (a, _) = quick_fleet(4, 3).run().unwrap();
        let (b, _) = quick_fleet(4, 1).run().unwrap();
        let seeds_a: Vec<u64> = a.detail.iter().map(|r| r.seed).collect();
        let seeds_b: Vec<u64> = b.detail.iter().map(|r| r.seed).collect();
        assert_eq!(seeds_a, seeds_b);
        // And they match a hand-rolled sequential split.
        let mut root = SimRng::seed_from(7);
        let expected: Vec<u64> = (0..4).map(|_| root.split_seed()).collect();
        assert_eq!(seeds_a, expected);
    }

    #[test]
    fn stall_hook_slows_the_run_but_not_the_report() {
        let (plain, _) = quick_fleet(3, 1).run().unwrap();
        let stalled = FleetOrchestrator::new(
            quick_fleet(3, 1)
                .config()
                .clone()
                .with_stall_hook(Arc::new(|_| Duration::from_micros(200))),
        );
        let (report, stats) = stalled.run().unwrap();
        assert_eq!(plain.to_json(), report.to_json());
        assert!(stats.wall_clock >= Duration::from_micros(3 * 200));
    }

    #[test]
    fn run_stats_guard_degenerate_divisions() {
        let zero_apps = FleetRunStats::new(Duration::from_secs(1), 2, 0, 0);
        assert_eq!(zero_apps.apps_per_second, 0.0);
        let zero_clock = FleetRunStats::new(Duration::ZERO, 2, 10, 0);
        assert_eq!(zero_clock.apps_per_second, 0.0);
        assert!(zero_clock.apps_per_second.is_finite());
        let normal = FleetRunStats::new(Duration::from_secs(2), 2, 10, 64);
        assert!((normal.apps_per_second - 5.0).abs() < 1e-9);
        assert!(normal.to_string().contains("2 thread(s)"));
    }

    #[test]
    fn threads_are_clamped_to_spawned_count() {
        // 3 apps with chunk size 1 yield 3 chunks; asking for 64 threads
        // must report the 3 actually spawned.
        let wide = FleetOrchestrator::new(quick_fleet(3, 64).config().clone().with_chunk(1));
        let (_, stats) = wide.run().unwrap();
        assert_eq!(stats.threads, 3);
        assert_eq!(stats.apps, 3);
        assert!(stats.aggregate_peak_bytes > 0);
    }
}
