//! The attachable sampling profiler (paper §IV-A2, TC-1).
//!
//! [`SamplerAttachment`] implements the runtime's
//! [`ExecutionObserver`] seam.
//! On every virtual-time advance it:
//!
//! 1. counts the sampling-period boundaries the interval crosses (the
//!    timer-signal model) and records that many samples of the stack,
//!    captured once for the advance, charging the per-sample capture cost
//!    back to the application — the overhead Fig. 9 measures;
//! 2. measures *exact* per-module initialization time by attributing the
//!    interval to the innermost module-init frame, which yields the
//!    hierarchical breakdown of Eqs. 1–3;
//! 3. buffers samples locally and transfers them to the shared
//!    [`ProfileStore`] in batches at invocation end, charging the flush cost
//!    only when a batch boundary is crossed (asynchronous batched transfer,
//!    TC-1 strategies 2–3).

use std::sync::Arc;

use parking_lot::Mutex;
use slimstart_appmodel::{Application, ModuleId};
use slimstart_pyrt::observer::{AdvanceContext, ExecutionObserver};
use slimstart_pyrt::stack::{CallStack, Frame};
use slimstart_simcore::time::{SimDuration, SimTime};

use crate::collector::BatchSender;
use crate::config::SamplerConfig;
use crate::profile::{ProfileStore, SampleRecord};
use crate::wire::ProfileBatch;

/// Where a sampler attachment delivers its data.
enum SampleSink {
    /// Synchronous in-process store (the default test/analysis path).
    Direct(Arc<Mutex<ProfileStore>>),
    /// Encoded batches over a channel to the asynchronous collector
    /// (the paper's production path, §IV-D).
    Channel(BatchSender),
}

impl std::fmt::Debug for SampleSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SampleSink::Direct(_) => write!(f, "Direct"),
            SampleSink::Channel(_) => write!(f, "Channel"),
        }
    }
}

/// Zero-clone stack capture: a one-entry cache of the last captured path.
///
/// Consecutive captures of an unchanged stack return `Arc` clones of one
/// shared path allocation. A capture reuses the cached path exactly when
/// its frames equal the stack's. The comparison runs from the innermost
/// frame outward, where consecutive stacks usually differ, so a miss is
/// cheap.
#[derive(Debug, Default)]
pub struct CaptureCache {
    path: Option<Arc<[Frame]>>,
}

impl CaptureCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        CaptureCache::default()
    }

    /// Captures the stack's current path, reusing the previous allocation
    /// when the stack is unchanged.
    #[inline]
    pub fn capture(&mut self, stack: &CallStack) -> Arc<[Frame]> {
        let frames = stack.frames();
        if let Some(cached) = &self.path {
            if cached.len() == frames.len() && cached.iter().rev().eq(frames.iter().rev()) {
                return Arc::clone(cached);
            }
        }
        let path: Arc<[Frame]> = frames.into();
        self.path = Some(Arc::clone(&path));
        path
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
    capture: CaptureCache,
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
        Self::with_sink(config, SampleSink::Direct(store))
    }

    /// Creates an attachment that ships encoded batches to an
    /// [`AsyncCollector`](crate::collector::AsyncCollector).
    ///
    /// # Panics
    ///
    /// Panics if the configured period is zero.
    pub fn with_transport(config: SamplerConfig, sender: BatchSender) -> Self {
        Self::with_sink(config, SampleSink::Channel(sender))
    }

    fn with_sink(config: SamplerConfig, sink: SampleSink) -> Self {
        assert!(!config.period.is_zero(), "sampling period must be positive");
        SamplerAttachment {
            next_sample_at: SimTime::ZERO + config.period,
            config,
            sink,
            buffer: Vec::new(),
            capture: CaptureCache::new(),
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
            path: self.capture.capture(ctx.stack),
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
        let samples = std::mem::take(&mut self.buffer);
        match &self.sink {
            SampleSink::Direct(store) => {
                let mut store = store.lock();
                store.absorb(samples, self.init.drain(), flushes);
                store.invocations += 1;
            }
            SampleSink::Channel(sender) => {
                let batch = ProfileBatch {
                    samples,
                    init_micros: self.init.drain().collect(),
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
        let store = store.lock();
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
        let store = store.lock();
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
            assert!(s.path.iter().all(|f| !f.is_init()));
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
        let store = store.lock();
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
        assert_eq!(store.lock().batches_transferred, 2);
    }

    #[test]
    fn capture_cache_reuses_allocation_for_identical_stacks() {
        use slimstart_appmodel::FunctionId;
        use slimstart_pyrt::stack::FrameKind;
        let mut stack = CallStack::new();
        stack.push(FrameKind::Call(FunctionId::from_index(0)), 1);
        let mut cache = CaptureCache::new();
        let a = cache.capture(&stack);
        let b = cache.capture(&stack);
        assert!(Arc::ptr_eq(&a, &b), "unchanged stack must share the path");
        // Setting the line the frame already has leaves the stack unchanged.
        stack.set_line(1);
        assert!(Arc::ptr_eq(&a, &cache.capture(&stack)));
        stack.set_line(2);
        let c = cache.capture(&stack);
        assert!(!Arc::ptr_eq(&b, &c));
        assert_eq!(c.as_ref(), stack.frames());
        stack.push(FrameKind::Call(FunctionId::from_index(1)), 3);
        let d = cache.capture(&stack);
        assert_eq!(d.len(), 2);
        // Popping the frame and pushing one of the same kind and line back
        // restores the cached stack, so the capture shares its path.
        stack.pop();
        stack.push(FrameKind::Call(FunctionId::from_index(1)), 3);
        assert!(Arc::ptr_eq(&d, &cache.capture(&stack)));
        stack.pop();
        // Back to the previous shape: contents equal even though the cache
        // was overwritten in between.
        assert_eq!(cache.capture(&stack).as_ref(), c.as_ref());
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
