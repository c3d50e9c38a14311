//! The attachable sampling profiler (paper §IV-A2, TC-1).
//!
//! [`SamplerAttachment`] implements the runtime's
//! [`ExecutionObserver`] seam.
//! On every virtual-time advance it:
//!
//! 1. counts the sampling-period boundaries the interval crosses (the
//!    timer-signal model) and records that many samples of the stack,
//!    captured once for the advance as an interned path id, charging the
//!    per-sample capture cost back to the application — the overhead
//!    Fig. 9 measures. A replayed cold-start advance names its step of the
//!    recorded walk, whose stack is the same in every container, so the
//!    in-process sink interns each step's stack once per deployment and
//!    reads its id back for every later capture of the step;
//! 2. measures *exact* per-module initialization time by attributing the
//!    interval to the innermost module-init frame, which yields the
//!    hierarchical breakdown of Eqs. 1–3;
//! 3. buffers samples locally and transfers them to the shared
//!    [`ProfileStore`] in batches at invocation end, charging the flush cost
//!    only when a batch boundary is crossed (asynchronous batched transfer,
//!    TC-1 strategies 2–3).

use std::sync::{Arc, Mutex};

use slimstart_appmodel::{Application, ModuleId};
use slimstart_pyrt::observer::{AdvanceContext, ExecutionObserver, WalkSite};
use slimstart_pyrt::stack::{CallStack, Frame};
use slimstart_simcore::time::{SimDuration, SimTime};

use crate::collector::BatchSender;
use crate::config::SamplerConfig;
use crate::profile::{lock, PathId, PathTable, ProfileStore, SampleRecord, WalkRow};
use crate::wire::ProfileBatch;

/// Where a sampler attachment delivers its data.
enum SampleSink {
    /// Synchronous in-process store (the default test/analysis path).
    /// Captures intern straight into the store's table, which every
    /// container of the deployment shares.
    Direct {
        store: Arc<Mutex<ProfileStore>>,
        cursor: PathCursor,
        /// The store's row of the walk this container replays, checked
        /// out at the walk's first capture and returned at invocation end,
        /// so a capture of a step some container captured before takes no
        /// lock.
        walk: Option<WalkRow>,
    },
    /// Encoded batches over a channel to the asynchronous collector
    /// (the paper's production path, §IV-D). Captures intern into the
    /// attachment's own table, which each batch carries.
    Channel {
        sender: BatchSender,
        capture: CaptureCache,
    },
}

impl SampleSink {
    /// The id of the stack's current path, which is `site`'s recorded
    /// stack when the advance replays a walk step.
    #[inline]
    fn capture(&mut self, stack: &CallStack, site: Option<WalkSite<'_>>) -> PathId {
        match self {
            SampleSink::Direct {
                store,
                cursor,
                walk,
            } => {
                let Some(site) = site else {
                    return intern(store, cursor, stack);
                };
                let row = match walk {
                    Some(row) if row.is_for(site.walk) => row,
                    _ => {
                        let mut store = lock(store);
                        if let Some(done) = walk.take() {
                            store.walk_paths.check_in(done);
                        }
                        walk.insert(store.walk_paths.check_out(site.walk))
                    }
                };
                // A hit leaves the cursor where it was: it still holds
                // frames and ids that the table gave out together.
                if let Some(id) = row.get(site.step) {
                    return id;
                }
                let id = intern(store, cursor, stack);
                row.set(site.step, id);
                id
            }
            SampleSink::Channel { capture, .. } => capture.capture(stack),
        }
    }
}

/// Interns the stack's path into the store's table through the cursor.
/// Only new frames need the table: an unchanged or popped stack is already
/// in the cursor, and is captured without the lock.
#[inline]
fn intern(store: &Mutex<ProfileStore>, cursor: &mut PathCursor, stack: &CallStack) -> PathId {
    let new = cursor.rewind(stack.frames());
    if new.is_empty() {
        cursor.leaf()
    } else {
        cursor.extend(new, &mut lock(store).paths)
    }
}

impl std::fmt::Debug for SampleSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SampleSink::Direct { .. } => write!(f, "Direct"),
            SampleSink::Channel { .. } => write!(f, "Channel"),
        }
    }
}

/// Incremental interning: the frames and ids of the last captured path.
///
/// A capture keeps the prefix it shares with the last one and looks up
/// one child per new frame. In a loader walk consecutive stacks differ in
/// one or two innermost frames, so most captures cost a prefix comparison
/// and at most a couple of lookups. The ids are only valid with the table
/// they came from: capture into one table, which only grows.
#[derive(Debug, Default)]
pub struct PathCursor {
    frames: Vec<Frame>,
    /// `ids[i]` is the id of `frames[..=i]`.
    ids: Vec<PathId>,
}

impl PathCursor {
    /// Creates a cursor at the empty path.
    pub fn new() -> Self {
        PathCursor::default()
    }

    /// Interns `frames` (outermost first) into `paths` and returns its id.
    #[inline]
    pub fn capture(&mut self, frames: &[Frame], paths: &mut PathTable) -> PathId {
        let new = self.rewind(frames);
        self.extend(new, paths)
    }

    /// Drops the cursor back to the longest prefix it shares with `frames`
    /// and returns the frames past it.
    #[inline]
    pub(crate) fn rewind<'f>(&mut self, frames: &'f [Frame]) -> &'f [Frame] {
        let shared = self
            .frames
            .iter()
            .zip(frames)
            .take_while(|(a, b)| a == b)
            .count();
        self.frames.truncate(shared);
        self.ids.truncate(shared);
        &frames[shared..]
    }

    /// Interns `new` below the cursor's path and returns the extended
    /// path's id.
    #[inline]
    pub(crate) fn extend(&mut self, new: &[Frame], paths: &mut PathTable) -> PathId {
        let mut id = self.leaf();
        for &frame in new {
            id = paths.child(id, frame);
            self.frames.push(frame);
            self.ids.push(id);
        }
        id
    }

    /// The id of the last captured path.
    #[inline]
    pub(crate) fn leaf(&self) -> PathId {
        self.ids.last().copied().unwrap_or(PathId::ROOT)
    }
}

/// Stack capture into a private [`PathTable`], through a [`PathCursor`].
#[derive(Debug, Default)]
pub struct CaptureCache {
    paths: PathTable,
    cursor: PathCursor,
}

impl CaptureCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        CaptureCache::default()
    }

    /// Captures the stack's current path and returns its id in the
    /// cache's own table.
    #[inline]
    pub fn capture(&mut self, stack: &CallStack) -> PathId {
        self.cursor.capture(stack.frames(), &mut self.paths)
    }
}

/// Exact init time per module since the last flush, in microseconds.
///
/// A dense array indexed by module id makes each attribution one indexed
/// add, and the list of modules attributed so far lets a flush visit only
/// those. `None` marks a module no advance was attributed to, so a module
/// whose init advanced 0 µs still reports its 0 entry.
#[derive(Debug, Default)]
struct InitTimes {
    micros: Vec<Option<u64>>,
    attributed: Vec<ModuleId>,
}

impl InitTimes {
    #[inline]
    fn add(&mut self, module: ModuleId, micros: u64) {
        let index = module.index();
        if index >= self.micros.len() {
            self.micros.resize(index + 1, None);
        }
        match &mut self.micros[index] {
            Some(total) => *total += micros,
            empty => {
                *empty = Some(micros);
                self.attributed.push(module);
            }
        }
    }

    /// Yields each attributed module with its total and resets both, for
    /// whichever sink the flush goes to. Consume it fully.
    fn drain(&mut self) -> impl Iterator<Item = (ModuleId, u64)> + '_ {
        let micros = &mut self.micros;
        self.attributed.drain(..).map(move |module| {
            let total = micros[module.index()].take();
            (module, total.expect("an attributed module has a total"))
        })
    }
}

/// A per-container profiler attachment.
pub struct SamplerAttachment {
    config: SamplerConfig,
    sink: SampleSink,
    next_sample_at: SimTime,
    buffer: Vec<SampleRecord>,
    init: InitTimes,
    pending_batches: u64,
    samples_taken: u64,
}

impl std::fmt::Debug for SamplerAttachment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SamplerAttachment")
            .field("period", &self.config.period)
            .field("buffered", &self.buffer.len())
            .field("samples_taken", &self.samples_taken)
            .finish()
    }
}

impl SamplerAttachment {
    /// Creates an attachment writing into `store`.
    ///
    /// # Panics
    ///
    /// Panics if the configured period is zero.
    pub fn new(config: SamplerConfig, store: Arc<Mutex<ProfileStore>>) -> Self {
        Self::with_sink(
            config,
            SampleSink::Direct {
                store,
                cursor: PathCursor::new(),
                walk: None,
            },
        )
    }

    /// Creates an attachment that ships encoded batches to an
    /// [`AsyncCollector`](crate::collector::AsyncCollector).
    ///
    /// # Panics
    ///
    /// Panics if the configured period is zero.
    pub fn with_transport(config: SamplerConfig, sender: BatchSender) -> Self {
        Self::with_sink(
            config,
            SampleSink::Channel {
                sender,
                capture: CaptureCache::new(),
            },
        )
    }

    fn with_sink(config: SamplerConfig, sink: SampleSink) -> Self {
        assert!(!config.period.is_zero(), "sampling period must be positive");
        SamplerAttachment {
            next_sample_at: SimTime::ZERO + config.period,
            config,
            sink,
            buffer: Vec::new(),
            init: InitTimes::default(),
            pending_batches: 0,
            samples_taken: 0,
        }
    }

    /// Total samples captured by this attachment.
    pub fn samples_taken(&self) -> u64 {
        self.samples_taken
    }

    /// Steps `next_sample_at` past `to` and returns how many of the
    /// boundaries it stepped over lie in (`from`, `to`]: the samples an
    /// advance over that interval takes. Boundaries at or before `from`
    /// fell inside charged overhead, which is never sampled.
    fn take_boundaries(&mut self, from: SimTime, to: SimTime) -> u64 {
        let next = self.next_sample_at;
        if next > to {
            return 0;
        }
        let period = self.config.period.as_micros();
        // Boundaries in [next, t] for t >= next.
        let through = |t: SimTime| (t.as_micros() - next.as_micros()) / period + 1;
        let due = through(to);
        let skipped = if from >= next { through(from) } else { 0 };
        self.next_sample_at = next + self.config.period * due;
        due - skipped
    }
}

impl ExecutionObserver for SamplerAttachment {
    fn on_advance(&mut self, ctx: AdvanceContext<'_>) -> SimDuration {
        // Exact init-time attribution: the interval belongs to the innermost
        // module-init frame, if any (the module actually executing its top
        // level — nested loads pause the outer module's top level).
        if ctx.stack.in_init() {
            if let Some(init_frame) = ctx.stack.frames().iter().rev().find(|f| f.is_init()) {
                self.init.add(
                    init_frame.module(ctx.app),
                    ctx.to.since(ctx.from).as_micros(),
                );
            }
        }

        // Statistical sampling at period boundaries: the stack is constant
        // over the advance, so every sample in it shares one capture.
        let samples = self.take_boundaries(ctx.from, ctx.to);
        if samples == 0 || ctx.stack.depth() == 0 {
            return SimDuration::ZERO;
        }
        let record = SampleRecord {
            path: self.sink.capture(ctx.stack, ctx.site),
            is_init: ctx.stack.in_init(),
        };
        let buffered = self.buffer.len();
        self.buffer
            .extend(std::iter::repeat_n(record, samples as usize));
        self.samples_taken += samples;
        // A batch completes at every multiple of the batch size the buffer
        // length passes.
        if let Some(full) = self.buffer.len().checked_div(self.config.batch_size) {
            self.pending_batches += (full - buffered / self.config.batch_size) as u64;
        }
        self.config.per_sample_cost * samples
    }

    fn on_invocation_end(&mut self, _app: &Application) -> SimDuration {
        // Local spool hands everything to the collector; the synchronous
        // cost charged to the invocation is only the batch hand-off.
        let flushes = std::mem::take(&mut self.pending_batches);
        match &mut self.sink {
            SampleSink::Direct { store, walk, .. } => {
                let mut store = lock(store);
                store.append(&mut self.buffer, self.init.drain(), flushes);
                store.invocations += 1;
                if let Some(row) = walk.take() {
                    store.walk_paths.check_in(row);
                }
            }
            SampleSink::Channel { sender, capture } => {
                // The batch borrows the attachment's table for the send;
                // the cursor's ids stay valid because it comes back.
                let batch = ProfileBatch {
                    samples: std::mem::take(&mut self.buffer),
                    paths: std::mem::take(&mut capture.paths),
                    init_micros: self.init.drain().collect(),
                };
                if !batch.samples.is_empty() || !batch.init_micros.is_empty() {
                    sender.send_batch(&batch);
                }
                capture.paths = batch.paths;
            }
        }
        self.config.flush_cost.mul_f64(flushes as f64)
    }

    fn extra_mem_kb(&self) -> u64 {
        (self.buffer.len() as u64 * self.config.bytes_per_sample) / 1024
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimstart_appmodel::app::AppBuilder;
    use slimstart_appmodel::function::{Stmt, StmtKind};
    use slimstart_appmodel::imports::ImportMode;
    use slimstart_pyrt::process::Process;
    use slimstart_simcore::rng::SimRng;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    /// handler imports lib (100 ms init); handler fn works 50 ms then calls
    /// lib.work (50 ms).
    fn app() -> Arc<Application> {
        let mut b = AppBuilder::new("t");
        let lib = b.add_library("lib");
        let h = b.add_app_module("handler", ms(10), 0);
        let root = b.add_library_module("lib", ms(100), 0, false, lib);
        b.add_import(h, root, 2, ImportMode::Global).unwrap();
        let f_lib = b.add_function(
            "work",
            root,
            5,
            vec![Stmt {
                line: 6,
                kind: StmtKind::Work(ms(50)),
            }],
        );
        let f = b.add_function(
            "main",
            h,
            4,
            vec![
                Stmt {
                    line: 5,
                    kind: StmtKind::Work(ms(50)),
                },
                Stmt {
                    line: 6,
                    kind: StmtKind::call(f_lib),
                },
            ],
        );
        b.add_handler("main", f);
        Arc::new(b.finish().unwrap())
    }

    fn run_profiled(config: SamplerConfig) -> (Arc<Mutex<ProfileStore>>, Arc<Application>) {
        let app = app();
        let store = ProfileStore::shared();
        let mut p = Process::new(Arc::clone(&app), 1.0);
        p.attach_observer(Box::new(SamplerAttachment::new(config, Arc::clone(&store))));
        let root = app.module_by_name("handler").unwrap();
        p.cold_start(root).unwrap();
        let h = app.handler_by_name("main").unwrap();
        p.invoke(h, &mut SimRng::seed_from(1)).unwrap();
        (store, app)
    }

    #[test]
    fn captures_samples_at_period() {
        let cfg = SamplerConfig {
            per_sample_cost: SimDuration::ZERO,
            flush_cost: SimDuration::ZERO,
            ..SamplerConfig::default()
        };
        let (store, _) = run_profiled(cfg);
        let store = lock(&store);
        // 210 ms of activity at 5 ms period → ~42 samples.
        let n = store.samples.len();
        assert!((38..=44).contains(&n), "samples = {n}");
    }

    #[test]
    fn classifies_init_vs_runtime_samples() {
        let cfg = SamplerConfig {
            per_sample_cost: SimDuration::ZERO,
            flush_cost: SimDuration::ZERO,
            ..SamplerConfig::default()
        };
        let (store, app) = run_profiled(cfg);
        let store = lock(&store);
        // Init phase: 110 ms → ~22 samples; runtime: 100 ms → ~20.
        let init = store.init_sample_count();
        let runtime = store.runtime_sample_count();
        assert!((19..=24).contains(&(init as usize)), "init = {init}");
        assert!(
            (18..=22).contains(&(runtime as usize)),
            "runtime = {runtime}"
        );
        // Runtime samples never contain init frames.
        for s in store.samples.iter().filter(|s| !s.is_init) {
            assert!(store.paths.frames(s.path).iter().all(|f| !f.is_init()));
        }
        let _ = app;
    }

    #[test]
    fn exact_init_attribution_matches_module_costs() {
        let cfg = SamplerConfig {
            per_sample_cost: SimDuration::ZERO,
            flush_cost: SimDuration::ZERO,
            ..SamplerConfig::default()
        };
        let (store, app) = run_profiled(cfg);
        let store = lock(&store);
        let lib = app.module_by_name("lib").unwrap();
        let handler = app.module_by_name("handler").unwrap();
        assert_eq!(store.init_time(lib), ms(100));
        assert_eq!(store.init_time(handler), ms(10));
    }

    #[test]
    fn sampling_overhead_is_charged() {
        let zero = SamplerConfig {
            per_sample_cost: SimDuration::ZERO,
            flush_cost: SimDuration::ZERO,
            ..SamplerConfig::default()
        };
        let costly = SamplerConfig {
            per_sample_cost: SimDuration::from_micros(500),
            flush_cost: SimDuration::ZERO,
            ..SamplerConfig::default()
        };
        let app = app();
        let run = |cfg: SamplerConfig| {
            let store = ProfileStore::shared();
            let mut p = Process::new(Arc::clone(&app), 1.0);
            p.attach_observer(Box::new(SamplerAttachment::new(cfg, Arc::clone(&store))));
            p.cold_start(app.module_by_name("handler").unwrap())
                .unwrap();
            p.invoke(
                app.handler_by_name("main").unwrap(),
                &mut SimRng::seed_from(1),
            )
            .unwrap();
            p.clock()
        };
        let base = run(zero);
        let slow = run(costly);
        assert!(slow > base, "profiling overhead must inflate latency");
        // ~42 samples * 500us ≈ 21 ms.
        let extra = slow.since(base);
        assert!((ms(15)..=ms(25)).contains(&extra), "overhead = {extra}");
    }

    #[test]
    fn buffer_memory_reported_then_released_on_flush() {
        let cfg = SamplerConfig {
            per_sample_cost: SimDuration::ZERO,
            flush_cost: SimDuration::ZERO,
            bytes_per_sample: 2048,
            ..SamplerConfig::default()
        };
        let app = app();
        let store = ProfileStore::shared();
        let mut attachment = SamplerAttachment::new(cfg, Arc::clone(&store));
        assert_eq!(attachment.extra_mem_kb(), 0);
        // Simulate captures by pushing through a real run.
        let mut p = Process::new(Arc::clone(&app), 1.0);
        p.attach_observer(Box::new(attachment));
        p.cold_start(app.module_by_name("handler").unwrap())
            .unwrap();
        assert!(p.mem_kb() > 0); // buffered samples pinned
        p.invoke(
            app.handler_by_name("main").unwrap(),
            &mut SimRng::seed_from(1),
        )
        .unwrap();
        // After invocation end everything flushed.
        let obs = p.detach_observer().unwrap();
        assert_eq!(obs.extra_mem_kb(), 0);
        attachment = SamplerAttachment::new(cfg, store);
        assert_eq!(attachment.samples_taken(), 0);
    }

    #[test]
    fn batch_flush_cost_charged_per_batch() {
        let cfg = SamplerConfig {
            period: SimDuration::from_millis(1),
            per_sample_cost: SimDuration::ZERO,
            flush_cost: ms(10),
            batch_size: 100,
            ..SamplerConfig::default()
        };
        // 210 ms at 1 ms period → ~210 samples → 2 full batches.
        let app = app();
        let store = ProfileStore::shared();
        let mut p = Process::new(Arc::clone(&app), 1.0);
        p.attach_observer(Box::new(SamplerAttachment::new(cfg, Arc::clone(&store))));
        p.cold_start(app.module_by_name("handler").unwrap())
            .unwrap();
        let out = p
            .invoke(
                app.handler_by_name("main").unwrap(),
                &mut SimRng::seed_from(1),
            )
            .unwrap();
        // Runtime work is 100 ms; exec also carries 2 batch flushes = 20 ms.
        assert_eq!(out.exec_time, ms(120));
        assert_eq!(lock(&store).batches_transferred, 2);
    }

    fn call(i: usize) -> slimstart_pyrt::stack::FrameKind {
        slimstart_pyrt::stack::FrameKind::Call(slimstart_appmodel::FunctionId::from_index(i))
    }

    #[test]
    fn unchanged_stack_returns_the_same_id() {
        let mut stack = CallStack::new();
        stack.push(call(0), 1);
        stack.push(call(1), 2);
        let mut cache = CaptureCache::new();
        let a = cache.capture(&stack);
        let nodes = cache.paths.len();
        assert_eq!(cache.capture(&stack), a);
        // Setting the line the frame already has leaves the stack unchanged.
        stack.set_line(2);
        assert_eq!(cache.capture(&stack), a);
        assert_eq!(cache.paths.len(), nodes);
        assert_eq!(cache.paths.frames(a), stack.frames());
    }

    #[test]
    fn popping_to_a_prefix_returns_the_prefix_id() {
        let mut stack = CallStack::new();
        stack.push(call(0), 1);
        let mut cache = CaptureCache::new();
        let outer = cache.capture(&stack);
        stack.push(call(1), 2);
        stack.push(call(2), 3);
        let inner = cache.capture(&stack);
        assert_eq!(
            cache.paths.parent(cache.paths.parent(inner).unwrap()),
            Some(outer)
        );
        stack.pop();
        stack.pop();
        assert_eq!(cache.capture(&stack), outer);
        assert_eq!(cache.paths.len(), 4);
        stack.pop();
        assert_eq!(cache.capture(&stack), PathId::ROOT);
    }

    #[test]
    fn popping_and_pushing_a_frame_back_returns_the_old_id() {
        let mut stack = CallStack::new();
        stack.push(call(0), 1);
        stack.push(call(1), 3);
        let mut cache = CaptureCache::new();
        let d = cache.capture(&stack);
        stack.pop();
        stack.push(call(1), 3);
        assert_eq!(cache.capture(&stack), d);
        // Also after the cursor moved to the shorter stack in between.
        stack.pop();
        cache.capture(&stack);
        stack.push(call(1), 3);
        assert_eq!(cache.capture(&stack), d);
        assert_eq!(cache.paths.len(), 3);
    }

    #[test]
    fn a_sibling_frame_creates_exactly_one_node() {
        let mut stack = CallStack::new();
        stack.push(call(0), 1);
        stack.push(call(1), 2);
        let mut cache = CaptureCache::new();
        let first = cache.capture(&stack);
        let nodes = cache.paths.len();
        // A new line in the innermost frame is a sibling call site.
        stack.set_line(5);
        let line = cache.capture(&stack);
        assert_eq!(cache.paths.len(), nodes + 1);
        stack.pop();
        stack.push(call(2), 2);
        let sibling = cache.capture(&stack);
        assert_eq!(cache.paths.len(), nodes + 2);
        let paths = cache.paths;
        assert_eq!(paths.parent(first), paths.parent(line));
        assert_eq!(paths.parent(first), paths.parent(sibling));
        assert_ne!(first, sibling);
    }

    #[test]
    fn cursor_matches_interning_from_the_root() {
        // Captures through the cursor give the ids a fresh walk from the
        // root gives, whatever the previous capture was.
        let mut rng = SimRng::seed_from(21);
        let mut stack = CallStack::new();
        let mut paths = PathTable::new();
        let mut cursor = PathCursor::new();
        for _ in 0..2_000 {
            match rng.next_below(4) {
                0 if stack.depth() < 10 => stack.push(call(rng.next_below(4)), 1),
                1 if stack.depth() > 0 => {
                    stack.pop();
                }
                2 if stack.depth() > 0 => stack.set_line(1 + rng.next_below(3) as u32),
                _ => {}
            }
            let id = cursor.capture(stack.frames(), &mut paths);
            assert_eq!(paths.frames(id), stack.frames());
            let nodes = paths.len();
            assert_eq!(paths.intern(stack.frames()), id);
            assert_eq!(paths.len(), nodes);
        }
    }

    #[test]
    fn direct_and_channel_sinks_store_the_same_samples() {
        let cfg = SamplerConfig {
            period: SimDuration::from_millis(1),
            per_sample_cost: SimDuration::from_micros(20),
            flush_cost: SimDuration::from_micros(50),
            batch_size: 16,
            ..SamplerConfig::default()
        };
        let app = app();
        let mut collector = crate::collector::AsyncCollector::start();
        let direct = ProfileStore::shared();
        let mut clocks = Vec::new();
        for observer in [
            SamplerAttachment::new(cfg, Arc::clone(&direct)),
            SamplerAttachment::with_transport(cfg, collector.sender()),
        ] {
            let mut p = Process::new(Arc::clone(&app), 1.0);
            p.attach_observer(Box::new(observer));
            p.cold_start(app.module_by_name("handler").unwrap())
                .unwrap();
            let h = app.handler_by_name("main").unwrap();
            for seed in 0..3 {
                p.invoke(h, &mut SimRng::seed_from(seed)).unwrap();
            }
            clocks.push(p.clock());
        }
        collector.finish();
        let channelled = collector.store();
        let (direct, channelled) = (lock(&direct), lock(&channelled));
        let resolved = |store: &ProfileStore| -> Vec<(Vec<Frame>, bool)> {
            store
                .samples
                .iter()
                .map(|s| (store.paths.frames(s.path), s.is_init))
                .collect()
        };
        assert!(direct.samples.len() > 300);
        assert_eq!(resolved(&direct), resolved(&channelled));
        assert_eq!(
            direct.init_micros_by_module,
            channelled.init_micros_by_module
        );
        assert_eq!(clocks[0], clocks[1], "same overhead charged");
        // The collector counts one batch per invocation.
        assert_eq!(channelled.batches_transferred, 3);
    }

    #[test]
    #[should_panic(expected = "period")]
    fn zero_period_rejected() {
        let cfg = SamplerConfig {
            period: SimDuration::ZERO,
            ..SamplerConfig::default()
        };
        SamplerAttachment::new(cfg, ProfileStore::shared());
    }
}
