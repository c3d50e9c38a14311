//! Differential testing for the sampling profiler: [`SamplerAttachment`],
//! which counts an advance's sampling boundaries with arithmetic, captures
//! the stack once per advance and attributes init time into a dense
//! per-module array, must equal the per-boundary sampler it replaced,
//! kept here as the reference (a `while` loop over the boundaries, one
//! capture per sample, one `HashMap` entry per attribution). Both are
//! driven with seeded advance sequences fed to `on_advance` directly, and
//! end to end through the pipeline's profile stage with the in-process
//! store and with the asynchronous collector. Samples are compared by
//! their frames: the reference keeps each path's frames, the sampler an
//! interned id. This is the oracle that says "faster, not different".

use std::collections::HashMap;
use std::sync::Arc;

use slimstart::appmodel::app::AppBuilder;
use slimstart::appmodel::catalog::{catalog, light_population};
use slimstart::appmodel::{Application, FunctionId, ModuleId};
use slimstart::core::collector::AsyncCollector;
use slimstart::core::pipeline::PipelineConfig;
use slimstart::core::profile::{PathId, ProfileStore};
use slimstart::core::sampler::SamplerAttachment;
use slimstart::core::stage::{PipelineCtx, ProfileStage, Stage};
use slimstart::core::SamplerConfig;
use slimstart::platform::{AppMetrics, Platform};
use slimstart::pyrt::observer::{AdvanceContext, ExecutionObserver};
use slimstart::pyrt::stack::{CallStack, Frame, FrameKind};
use slimstart::simcore::time::{SimDuration, SimTime};
use slimstart::simcore::SimRng;

/// The per-boundary sampler, retained verbatim as the differential oracle.
/// Not used on any production path.
mod reference {
    use std::collections::HashMap;
    use std::sync::{Arc, Mutex};

    use slimstart::appmodel::{Application, ModuleId};
    use slimstart::core::collector::BatchSender;
    use slimstart::core::profile::{PathTable, SampleRecord};
    use slimstart::core::wire::ProfileBatch;
    use slimstart::core::SamplerConfig;
    use slimstart::pyrt::observer::{AdvanceContext, ExecutionObserver};
    use slimstart::pyrt::stack::{CallStack, Frame};
    use slimstart::simcore::time::{SimDuration, SimTime};

    /// A captured sample: its path and whether it was taken during init.
    pub type Sample = (Arc<[Frame]>, bool);

    /// What the reference collects in process.
    #[derive(Debug, Clone, Default)]
    pub struct Store {
        pub samples: Vec<Sample>,
        pub init_micros_by_module: HashMap<ModuleId, u64>,
        pub invocations: u64,
        pub batches_transferred: u64,
    }

    /// Where the reference delivers its data at invocation end.
    pub enum Sink {
        /// Merge into an in-process store and count the invocation.
        Direct(Arc<Mutex<Store>>),
        /// Encode a batch for the asynchronous collector.
        Channel(BatchSender),
    }

    pub struct Sampler {
        config: SamplerConfig,
        sink: Sink,
        next_sample_at: SimTime,
        buffer: Vec<Sample>,
        last_path: Option<Arc<[Frame]>>,
        init_micros: HashMap<ModuleId, u64>,
        pending_batches: u64,
        pub samples_taken: u64,
        /// Batches completed by a sample that was not its advance's last.
        pub batches_mid_advance: u64,
    }

    impl Sampler {
        pub fn new(config: SamplerConfig, sink: Sink) -> Sampler {
            Sampler {
                next_sample_at: SimTime::ZERO + config.period,
                config,
                sink,
                buffer: Vec::new(),
                last_path: None,
                init_micros: HashMap::new(),
                pending_batches: 0,
                samples_taken: 0,
                batches_mid_advance: 0,
            }
        }

        /// One capture per sample: the previous path is reused when the
        /// frames are equal.
        fn capture(&mut self, stack: &CallStack) -> Arc<[Frame]> {
            match &self.last_path {
                Some(path) if path.as_ref() == stack.frames() => Arc::clone(path),
                _ => {
                    let path: Arc<[Frame]> = stack.frames().into();
                    self.last_path = Some(Arc::clone(&path));
                    path
                }
            }
        }
    }

    impl ExecutionObserver for Sampler {
        fn on_advance(&mut self, ctx: AdvanceContext<'_>) -> SimDuration {
            if let Some(init_frame) = ctx.stack.frames().iter().rev().find(|f| f.is_init()) {
                let module = init_frame.module(ctx.app);
                *self.init_micros.entry(module).or_insert(0) += ctx.to.since(ctx.from).as_micros();
            }

            let mut overhead = SimDuration::ZERO;
            while self.next_sample_at <= ctx.to {
                if self.next_sample_at > ctx.from && ctx.stack.depth() > 0 {
                    let path = self.capture(ctx.stack);
                    self.buffer.push((path, ctx.stack.in_init()));
                    self.samples_taken += 1;
                    overhead += self.config.per_sample_cost;
                    if self.buffer.len().is_multiple_of(self.config.batch_size) {
                        self.pending_batches += 1;
                        if self.next_sample_at + self.config.period <= ctx.to {
                            self.batches_mid_advance += 1;
                        }
                    }
                }
                self.next_sample_at += self.config.period;
            }
            overhead
        }

        fn on_invocation_end(&mut self, _app: &Application) -> SimDuration {
            let flushes = self.pending_batches;
            self.pending_batches = 0;
            match &self.sink {
                Sink::Direct(store) => {
                    let mut store = store.lock().expect("reference store lock");
                    store.samples.append(&mut self.buffer);
                    for (module, micros) in self.init_micros.drain() {
                        *store.init_micros_by_module.entry(module).or_insert(0) += micros;
                    }
                    store.batches_transferred += flushes;
                    store.invocations += 1;
                }
                Sink::Channel(sender) => {
                    // Each sample's frames interned from the root.
                    let mut paths = PathTable::new();
                    let samples = self
                        .buffer
                        .drain(..)
                        .map(|(path, is_init)| SampleRecord {
                            path: paths.intern(&path),
                            is_init,
                        })
                        .collect();
                    let batch = ProfileBatch {
                        samples,
                        paths,
                        init_micros: self.init_micros.drain().collect(),
                    };
                    if !batch.samples.is_empty() || !batch.init_micros.is_empty() {
                        sender.send_batch(&batch);
                    }
                }
            }
            self.config.flush_cost.mul_f64(flushes as f64)
        }

        fn extra_mem_kb(&self) -> u64 {
            (self.buffer.len() as u64 * self.config.bytes_per_sample) / 1024
        }
    }
}

/// A store as the reference keeps it: each sample's frames resolved from
/// the store's table.
fn resolved(store: &ProfileStore) -> reference::Store {
    reference::Store {
        samples: store
            .samples
            .iter()
            .map(|s| (store.paths.frames(s.path).into(), s.is_init))
            .collect(),
        init_micros_by_module: store
            .init_micros_by_module
            .iter()
            .map(|(&m, &us)| (m, us))
            .collect(),
        invocations: store.invocations,
        batches_transferred: store.batches_transferred,
    }
}

fn assert_stores_equal(ours: &ProfileStore, reference: &reference::Store, what: &str) {
    // One id per distinct path: equal ids exactly when the frames are
    // equal.
    let mut ids: HashMap<Vec<Frame>, PathId> = HashMap::new();
    for s in &ours.samples {
        let frames = ours.paths.frames(s.path);
        assert_eq!(*ids.entry(frames).or_insert(s.path), s.path, "{what}: ids");
    }
    let distinct: std::collections::HashSet<PathId> = ids.values().copied().collect();
    assert_eq!(distinct.len(), ids.len(), "{what}: one path per id");
    let ours = resolved(ours);
    assert_eq!(ours.samples, reference.samples, "{what}: samples");
    assert_eq!(
        ours.init_micros_by_module, reference.init_micros_by_module,
        "{what}: init micros"
    );
    assert_eq!(
        ours.invocations, reference.invocations,
        "{what}: invocations"
    );
    assert_eq!(
        ours.batches_transferred, reference.batches_transferred,
        "{what}: batches"
    );
}

/// Modules (and functions) in [`frame_app`].
const MODULES: usize = 8;

/// An app with enough modules and functions for any frame the seeded
/// stacks push.
fn frame_app() -> Application {
    let mut b = AppBuilder::new("frames");
    let lib = b.add_library("lib");
    let handler = b.add_app_module("handler", SimDuration::ZERO, 0);
    for i in 0..MODULES - 1 {
        let m = b.add_library_module(format!("lib.m{i}"), SimDuration::ZERO, 0, false, lib);
        b.add_function(format!("f{i}"), m, 1, vec![]);
    }
    let main = b.add_function("main", handler, 1, vec![]);
    b.add_handler("main", main);
    b.finish().expect("app validates")
}

/// Which edge cases a sequence exercised.
#[derive(Debug, Default)]
struct Coverage {
    boundary_at_from: u64,
    boundary_at_to: u64,
    zero_length: u64,
    many_periods: u64,
    depth_zero_sampled: u64,
    nested_init: u64,
    zero_micros_init: u64,
    batches_mid_advance: u64,
}

/// Drives both samplers with one seeded sequence of stack edits, advances
/// (with and without unobserved clock gaps) and invocation ends, checking
/// every returned cost as it goes and both stores at the end.
fn run_sequence(app: &Application, config: SamplerConfig, seed: u64, coverage: &mut Coverage) {
    let what = format!("seed {seed}, {config:?}");
    let store = ProfileStore::shared();
    let mut ours = SamplerAttachment::new(config, Arc::clone(&store));
    let reference_store = Arc::new(std::sync::Mutex::new(reference::Store::default()));
    let mut reference = reference::Sampler::new(
        config,
        reference::Sink::Direct(Arc::clone(&reference_store)),
    );
    let mut rng = SimRng::seed_from(seed);
    let mut stack = CallStack::new();
    let mut clock = SimTime::ZERO;
    let period = config.period.as_micros();
    for step in 0..400 {
        match rng.next_below(10) {
            0 | 1 if stack.depth() < 8 => {
                let kind = if rng.chance(0.5) {
                    FrameKind::ModuleInit(ModuleId::from_index(rng.next_below(MODULES)))
                } else {
                    FrameKind::Call(FunctionId::from_index(rng.next_below(MODULES)))
                };
                stack.push(kind, 1 + rng.next_below(3) as u32);
            }
            2 | 3 if stack.depth() > 0 => {
                stack.pop();
            }
            4 => stack.set_line(1 + rng.next_below(3) as u32),
            5 => {
                let flush = ours.on_invocation_end(app);
                assert_eq!(
                    flush,
                    reference.on_invocation_end(app),
                    "{what}: flush cost at step {step}"
                );
                clock += flush;
            }
            _ => {
                // Sometimes the clock moves without an observed advance, so
                // boundaries can fall at or before `from`.
                if rng.chance(0.2) {
                    clock += SimDuration::from_micros(rng.next_below(3 * period as usize) as u64);
                }
                if rng.chance(0.15) {
                    // Land exactly on the next boundary.
                    clock = SimTime::from_micros(clock.as_micros().div_ceil(period) * period);
                }
                let len = match rng.next_below(5) {
                    0 => 0,
                    1 => rng.next_below(period as usize) as u64,
                    2 => period * (1 + rng.next_below(3) as u64),
                    3 => rng.next_below(40 * period as usize) as u64,
                    _ => rng.next_below(4 * period as usize) as u64,
                };
                let from = clock;
                let to = from + SimDuration::from_micros(len);
                let init_frames = stack.frames().iter().filter(|f| f.is_init()).count();
                coverage.boundary_at_from += u64::from(from.as_micros().is_multiple_of(period));
                coverage.boundary_at_to += u64::from(to.as_micros().is_multiple_of(period));
                coverage.zero_length += u64::from(len == 0);
                coverage.many_periods += u64::from(len >= 3 * period);
                coverage.depth_zero_sampled += u64::from(stack.depth() == 0 && len >= period);
                coverage.nested_init += u64::from(init_frames >= 2);
                coverage.zero_micros_init += u64::from(init_frames > 0 && len == 0);
                let ctx = || AdvanceContext {
                    app,
                    stack: &stack,
                    from,
                    to,
                };
                let overhead = ours.on_advance(ctx());
                assert_eq!(
                    overhead,
                    reference.on_advance(ctx()),
                    "{what}: overhead at step {step} ({from} -> {to})"
                );
                clock = to + overhead;
            }
        }
        assert_eq!(
            ours.extra_mem_kb(),
            reference.extra_mem_kb(),
            "{what}: buffered samples at step {step}"
        );
    }
    assert_eq!(
        ours.on_invocation_end(app),
        reference.on_invocation_end(app),
        "{what}: final flush cost"
    );
    assert_eq!(
        ours.samples_taken(),
        reference.samples_taken,
        "{what}: samples taken"
    );
    coverage.batches_mid_advance += reference.batches_mid_advance;
    let ours_store = store.lock().expect("profile store lock").clone();
    let reference_store = reference_store
        .lock()
        .expect("reference store lock")
        .clone();
    assert_stores_equal(&ours_store, &reference_store, &what);
}

#[test]
fn seeded_advance_sequences_match_the_reference() {
    let app = frame_app();
    let mut coverage = Coverage::default();
    let mut seeds = SimRng::seed_from(16);
    for period in [1u64, 3, 5, 1_000] {
        for batch_size in [1usize, 2, 3, 7, 512] {
            for per_sample_cost in [0u64, 1, period + 2] {
                let config = SamplerConfig {
                    period: SimDuration::from_micros(period),
                    per_sample_cost: SimDuration::from_micros(per_sample_cost),
                    flush_cost: SimDuration::from_micros(13),
                    batch_size,
                    bytes_per_sample: 160,
                };
                run_sequence(&app, config, seeds.split_seed(), &mut coverage);
            }
        }
    }
    for (case, count) in [
        ("boundary at from", coverage.boundary_at_from),
        ("boundary at to", coverage.boundary_at_to),
        ("zero-length advance", coverage.zero_length),
        ("advance over many periods", coverage.many_periods),
        ("sampled advance at depth 0", coverage.depth_zero_sampled),
        ("nested init frames", coverage.nested_init),
        ("0 µs init advance", coverage.zero_micros_init),
        ("batch completed mid-advance", coverage.batches_mid_advance),
    ] {
        assert!(count >= 20, "only {count} cases of {case}: {coverage:?}");
    }
}

#[test]
fn hand_written_edges_match_the_reference() {
    // Period 10 µs, batches of 2. Each advance names the case it covers.
    let app = frame_app();
    let config = SamplerConfig {
        period: SimDuration::from_micros(10),
        per_sample_cost: SimDuration::from_micros(1),
        flush_cost: SimDuration::from_micros(5),
        batch_size: 2,
        bytes_per_sample: 1024,
    };
    let store = ProfileStore::shared();
    let mut ours = SamplerAttachment::new(config, Arc::clone(&store));
    let reference_store = Arc::new(std::sync::Mutex::new(reference::Store::default()));
    let mut reference = reference::Sampler::new(
        config,
        reference::Sink::Direct(Arc::clone(&reference_store)),
    );
    let mut stack = CallStack::new();
    let m = |i| FrameKind::ModuleInit(ModuleId::from_index(i));
    let mut advance = |stack: &CallStack, from: u64, to: u64| {
        let ctx = || AdvanceContext {
            app: &app,
            stack,
            from: SimTime::from_micros(from),
            to: SimTime::from_micros(to),
        };
        let overhead = ours.on_advance(ctx());
        assert_eq!(overhead, reference.on_advance(ctx()), "{from} -> {to}");
        overhead
    };
    // Depth 0 across two boundaries: consumed, not sampled.
    advance(&stack, 0, 20);
    // A module whose init advances 0 µs, on a boundary that is both `from`
    // and `to`.
    stack.push(m(1), 1);
    assert_eq!(advance(&stack, 30, 30), SimDuration::ZERO);
    stack.pop();
    // Nested init frames: time goes to the innermost one, and a boundary
    // exactly at `to` is sampled.
    stack.push(m(2), 1);
    stack.push(FrameKind::Call(FunctionId::from_index(0)), 4);
    stack.push(m(3), 1);
    assert_eq!(advance(&stack, 31, 40), SimDuration::from_micros(1));
    // Many periods, a boundary exactly at `from` (not sampled) and batch
    // multiples crossed mid-advance.
    stack.set_line(2);
    assert_eq!(advance(&stack, 50, 120), SimDuration::from_micros(7));
    ours.on_invocation_end(&app);
    reference.on_invocation_end(&app);
    assert_eq!(ours.samples_taken(), reference.samples_taken);
    assert_eq!(ours.samples_taken(), 8);
    let ours_store = store.lock().expect("profile store lock").clone();
    let reference_store = reference_store
        .lock()
        .expect("reference store lock")
        .clone();
    assert_stores_equal(&ours_store, &reference_store, "hand-written");
    assert_eq!(
        ours_store.init_time(ModuleId::from_index(1)),
        SimDuration::ZERO
    );
    assert!(ours_store
        .init_micros_by_module
        .contains_key(&ModuleId::from_index(1)));
    assert_eq!(ours_store.batches_transferred, 4);
}

/// The profile stage's store and profiled metrics, and the same run with
/// the reference sampler attached instead. The reference run repeats what
/// [`ProfileStage`] does without chaos: the deployment platform with a
/// sampler per container, seeded with `seed ^ 0x2`.
fn profile_both(
    config: &PipelineConfig,
    app: &Application,
    mix: &[(String, f64)],
) -> ((ProfileStore, AppMetrics), (reference::Store, AppMetrics)) {
    let mut ctx = PipelineCtx::new(config.clone(), app, mix).expect("workload resolves");
    ProfileStage.run(&mut ctx).expect("profiling runs");
    let ours = (
        ctx.profile_store
            .as_ref()
            .expect("the profile stage fills the store")
            .lock()
            .expect("profile store lock")
            .clone(),
        ctx.profiled.clone().expect("the profile stage measures"),
    );

    let sampler = config.sampler;
    let mut collector = config.async_collector.then(AsyncCollector::start);
    let direct = Arc::new(std::sync::Mutex::new(reference::Store::default()));
    let platform_config = match &collector {
        Some(c) => {
            let sender = c.sender();
            config
                .platform
                .clone()
                .with_observer_factory(Arc::new(move || {
                    Box::new(reference::Sampler::new(
                        sampler,
                        reference::Sink::Channel(sender.clone()),
                    ))
                }))
        }
        None => {
            let store = Arc::clone(&direct);
            config
                .platform
                .clone()
                .with_observer_factory(Arc::new(move || {
                    Box::new(reference::Sampler::new(
                        sampler,
                        reference::Sink::Direct(Arc::clone(&store)),
                    ))
                }))
        }
    };
    let mut platform = Platform::new(Arc::clone(&ctx.app), platform_config, config.seed ^ 0x2);
    let records = platform.run(&ctx.invocations).expect("profiling runs");
    let metrics = AppMetrics::aggregate(records);
    let store = match collector.as_mut() {
        Some(c) => {
            c.finish();
            resolved(&c.store().lock().expect("profile store lock"))
        }
        None => direct.lock().expect("reference store lock").clone(),
    };
    (ours, (store, metrics))
}

fn assert_profile_stage_matches(
    app: &Application,
    mix: &[(String, f64)],
    seed: u64,
    cold_starts: usize,
    what: &str,
) {
    let dense = SamplerConfig {
        period: SimDuration::from_micros(700),
        per_sample_cost: SimDuration::from_micros(30),
        batch_size: 7,
        ..SamplerConfig::default()
    };
    for sampler in [SamplerConfig::default(), dense] {
        for async_collector in [false, true] {
            let config = PipelineConfig::default()
                .with_cold_starts(cold_starts)
                .with_seed(seed)
                .with_sampler(sampler)
                .with_async_collector(async_collector);
            let what = format!("{what}, period {}, async {async_collector}", sampler.period);
            let ((ours, ours_metrics), (reference, reference_metrics)) =
                profile_both(&config, app, mix);
            assert!(!ours.samples.is_empty(), "{what}: no samples");
            assert_stores_equal(&ours, &reference, &what);
            assert_eq!(ours_metrics, reference_metrics, "{what}: profiled metrics");
        }
    }
}

#[test]
fn profile_stage_matches_the_reference_on_small_catalog_apps() {
    let mut apps = 0;
    for entry in catalog() {
        if entry.n_modules > 270 {
            continue;
        }
        apps += 1;
        let app = entry.build(2025).expect("catalog app builds").app;
        assert_profile_stage_matches(&app, &entry.workload_weights(), 2025, 12, entry.code);
    }
    assert!(
        apps >= 10,
        "only {apps} catalog apps have at most 270 modules"
    );
}

#[test]
fn profile_stage_matches_the_reference_on_light_apps() {
    let mut seeds = SimRng::seed_from(16);
    for (i, entry) in light_population(12).iter().enumerate() {
        let seed = seeds.split_seed();
        let app = entry.build(seed).expect("light app builds").app;
        let what = format!("light app {i} ({})", entry.code);
        assert_profile_stage_matches(&app, &entry.workload_weights(), seed, 8, &what);
    }
}
