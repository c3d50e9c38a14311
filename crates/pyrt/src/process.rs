//! The process: module loader + interpreter on a virtual clock.
//!
//! A [`Process`] models one language runtime inside one container. It lives
//! across invocations (warm starts reuse its module cache), pays module
//! initialization costs on the virtual clock, executes handler call trees,
//! and reports every time advance to an attached
//! [`ExecutionObserver`].

use std::sync::Arc;

use slimstart_appmodel::function::{Stmt, StmtKind};
use slimstart_appmodel::{Application, FunctionId, HandlerId, ModuleId};
use slimstart_simcore::rng::SimRng;
use slimstart_simcore::time::{SimDuration, SimTime};

use crate::fault::RuntimeFault;
use crate::loader::LoaderPlan;
use crate::observer::{AdvanceContext, ExecutionObserver};
use crate::snapshot::{SnapLoad, Snapshot};
use crate::stack::{CallStack, FrameKind};
use crate::zygote::ZygoteImage;

/// Maximum call depth before the interpreter aborts (guards against model
/// bugs; real applications in the catalog stay far below this).
const RECURSION_LIMIT: usize = 256;

/// One module load performed by this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadEvent {
    /// Which module loaded.
    pub module: ModuleId,
    /// When the load finished.
    pub at: SimTime,
    /// The module's own top-level cost actually paid (scaled), excluding
    /// the cost of modules it imported.
    pub self_cost: SimDuration,
    /// Whether the load happened during [`Process::cold_start`] (true) or
    /// was a deferred first-use load during execution (false).
    pub during_init: bool,
}

/// The result of one invocation on a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvocationOutcome {
    /// Wall time of the handler execution, including deferred library loads
    /// and profiling overhead.
    pub exec_time: SimDuration,
    /// Portion of `exec_time` spent in deferred (first-use) module loading.
    pub deferred_load_time: SimDuration,
    /// Peak resident memory observed so far in this process, KiB.
    pub peak_mem_kb: u64,
}

/// A language runtime instance executing one application.
pub struct Process {
    app: Arc<Application>,
    plan: Arc<LoaderPlan>,
    time_scale: f64,
    clock: SimTime,
    stack: CallStack,
    /// Loaded-module bitset (one bit per module id): a snapshot captures
    /// it as is, and a restore writes it a word at a time.
    loaded: Vec<u64>,
    /// Modules the handler actually used post-load (one bit per module
    /// id): set on every function entry and explicit touch, cumulative
    /// across invocations. This is the raw material of the REAP-style
    /// working set the platform refines snapshots with.
    touched: Vec<u64>,
    /// Modules a lazy (working-set) restore skipped: still in the
    /// snapshot, not in this process's module cache. A first-use load of
    /// one of these is a working-set fault, counted in `faulted_loads`.
    lazy_omitted: Vec<u64>,
    faulted_loads: u64,
    load_events: Vec<LoadEvent>,
    mem_kb: u64,
    peak_mem_kb: u64,
    observer: Option<Box<dyn ExecutionObserver>>,
    in_cold_start: bool,
    /// The zygote this process forked from, if any: modules resident in
    /// the image load at its flat fork cost instead of their init cost,
    /// and every restore replays them whether or not they are in the
    /// working set.
    zygote: Option<Arc<ZygoteImage>>,
    /// The zygote's fork cost scaled through `time_scale`, which never
    /// changes: what every resident load charges (zero with no zygote).
    fork_charge: SimDuration,
}

impl std::fmt::Debug for Process {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Process")
            .field("app", &self.app.name())
            .field("clock", &self.clock)
            .field(
                "loaded",
                &self.loaded.iter().map(|w| w.count_ones()).sum::<u32>(),
            )
            .field("mem_kb", &self.mem_kb)
            .field("observed", &self.observer.is_some())
            .field("forked", &self.zygote.is_some())
            .finish()
    }
}

impl Process {
    /// Creates a fresh process for `app`, building a private
    /// [`LoaderPlan`]. Callers that spin up many processes for the same
    /// application (the platform's container pool) should build the plan
    /// once and use [`Process::with_plan`] instead.
    ///
    /// `time_scale` multiplies every paid duration, modeling run-to-run
    /// performance jitter of real containers (1.0 = nominal).
    ///
    /// # Panics
    ///
    /// Panics if `time_scale` is not finite and positive.
    pub fn new(app: Arc<Application>, time_scale: f64) -> Self {
        let plan = Arc::new(LoaderPlan::build(&app));
        Process::with_plan(app, plan, time_scale)
    }

    /// Creates a fresh process sharing a prebuilt loader plan.
    ///
    /// The plan must have been built from this exact application state
    /// (same modules, same `stripped` flags).
    ///
    /// # Panics
    ///
    /// Panics if `time_scale` is not finite and positive.
    pub fn with_plan(app: Arc<Application>, plan: Arc<LoaderPlan>, time_scale: f64) -> Self {
        assert!(
            time_scale.is_finite() && time_scale > 0.0,
            "time_scale must be finite and positive"
        );
        let words = app.modules().len().div_ceil(64);
        Process {
            app,
            plan,
            time_scale,
            clock: SimTime::ZERO,
            stack: CallStack::new(),
            loaded: vec![0u64; words],
            touched: vec![0u64; words],
            lazy_omitted: vec![0u64; words],
            faulted_loads: 0,
            load_events: Vec::new(),
            mem_kb: 0,
            peak_mem_kb: 0,
            observer: None,
            in_cold_start: false,
            zygote: None,
            fork_charge: SimDuration::ZERO,
        }
    }

    /// Attaches the zygote image this process forks from, counting one
    /// fork on the image's shared counters. Must happen before any load —
    /// forking an already-running process is not a thing.
    ///
    /// # Panics
    ///
    /// Debug-asserts that nothing has loaded yet.
    pub fn set_zygote(&mut self, image: Arc<ZygoteImage>) {
        debug_assert!(self.is_fresh(), "zygote fork of a non-fresh process");
        image.note_fork();
        // `mul_f64` is a pure function of (duration, scale), so scaling
        // once here rounds exactly as scaling every resident load would.
        self.fork_charge = image.fork_cost().mul_f64(self.time_scale);
        self.zygote = Some(image);
    }

    /// The zygote image this process forked from, if any.
    pub fn zygote(&self) -> Option<&Arc<ZygoteImage>> {
        self.zygote.as_ref()
    }

    /// The loader plan this process shares.
    pub fn plan(&self) -> &Arc<LoaderPlan> {
        &self.plan
    }

    /// Attaches a profiler/observer. Replaces any existing attachment.
    pub fn attach_observer(&mut self, observer: Box<dyn ExecutionObserver>) {
        self.observer = Some(observer);
    }

    /// Detaches and returns the observer, if any.
    pub fn detach_observer(&mut self) -> Option<Box<dyn ExecutionObserver>> {
        self.observer.take()
    }

    /// Whether an observer is attached.
    pub fn has_observer(&self) -> bool {
        self.observer.is_some()
    }

    /// The application this process executes.
    pub fn app(&self) -> &Arc<Application> {
        &self.app
    }

    /// Current virtual time of this process.
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// Current resident memory (loaded modules + observer buffers), KiB.
    pub fn mem_kb(&self) -> u64 {
        self.mem_kb + self.observer.as_ref().map_or(0, |o| o.extra_mem_kb())
    }

    /// Peak resident memory observed, KiB.
    pub fn peak_mem_kb(&self) -> u64 {
        self.peak_mem_kb
    }

    /// Whether `module` has been loaded.
    #[inline]
    pub fn is_loaded(&self, module: ModuleId) -> bool {
        self.loaded[module.index() / 64] & (1u64 << (module.index() % 64)) != 0
    }

    /// Whether nothing has loaded yet.
    fn is_fresh(&self) -> bool {
        self.load_events.is_empty() && self.loaded.iter().all(|&w| w == 0)
    }

    #[inline]
    fn mark_loaded(&mut self, module: ModuleId) {
        let (word, bit) = (module.index() / 64, 1u64 << (module.index() % 64));
        self.loaded[word] |= bit;
        if self.lazy_omitted[word] & bit != 0 {
            // First use of a module a working-set restore left out: the
            // load cost being paid right now is the fault the lazy
            // restore deferred.
            self.lazy_omitted[word] &= !bit;
            self.faulted_loads += 1;
        }
    }

    #[inline]
    fn mark_touched(&mut self, module: ModuleId) {
        self.touched[module.index() / 64] |= 1u64 << (module.index() % 64);
    }

    /// Bitset of modules the handler has used post-load so far (function
    /// entries and explicit touches), cumulative across invocations.
    pub fn touched(&self) -> &[u64] {
        &self.touched
    }

    /// Takes (and resets) the count of working-set faults paid since the
    /// last call: first-use loads of modules a lazy restore omitted.
    pub fn take_faulted_loads(&mut self) -> u64 {
        std::mem::take(&mut self.faulted_loads)
    }

    /// The modules this process has touched during handler execution,
    /// intersected with `snapshot`'s loaded set and closed under package
    /// ancestry — what a REAP-style restore of `snapshot` must replay
    /// eagerly for this process's traffic. Ancestor chains are full
    /// dotted-prefix lists, so one closure pass over the intersection is
    /// already transitively closed.
    pub fn working_set_for(&self, snapshot: &Snapshot) -> Vec<u64> {
        debug_assert_eq!(self.touched.len(), snapshot.loaded.len());
        let mut working: Vec<u64> = self
            .touched
            .iter()
            .zip(snapshot.loaded.iter())
            .map(|(t, l)| t & l)
            .collect();
        for word in 0..working.len() {
            let mut bits = working[word];
            while bits != 0 {
                let index = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                for &a in self.plan.ancestors(ModuleId::from_index(index)) {
                    let (w, b) = (a.index() / 64, 1u64 << (a.index() % 64));
                    if snapshot.loaded[w] & b != 0 {
                        working[w] |= b;
                    }
                }
            }
        }
        working
    }

    /// All loads performed so far, in order.
    pub fn load_events(&self) -> &[LoadEvent] {
        &self.load_events
    }

    /// Performs the cold-start load of the handler module graph and returns
    /// the initialization latency (library-loading portion of a cold start).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeFault::StrippedHandlerModule`] if the entry module
    /// was removed by a static optimizer.
    pub fn cold_start(&mut self, root: ModuleId) -> Result<SimDuration, RuntimeFault> {
        if self.app.module(root).stripped() {
            return Err(RuntimeFault::StrippedHandlerModule { module: root });
        }
        let start = self.clock;
        self.in_cold_start = true;
        let app = Arc::clone(&self.app);
        self.load_with_parents(&app, root);
        self.in_cold_start = false;
        self.bump_peak();
        Ok(self.clock.since(start))
    }

    /// Captures the outcome of the cold start this process just performed
    /// as a [`Snapshot`]: load order with raw (unscaled) per-module
    /// charges, plus the resulting module-cache bitset.
    ///
    /// Only meaningful immediately after a successful
    /// [`Process::cold_start`] on an unobserved process — an observer
    /// perturbs clocks in ways a restore must not replay silently, and
    /// post-init deferred loads are not part of a cold start.
    ///
    /// # Panics
    ///
    /// Debug-asserts that no observer is attached and that every load so
    /// far happened during init.
    pub fn capture_snapshot(&self) -> Snapshot {
        debug_assert!(
            self.observer.is_none(),
            "snapshots must not capture observed cold starts"
        );
        debug_assert!(
            self.load_events.iter().all(|e| e.during_init),
            "snapshot capture after deferred loads"
        );
        let loads: Box<[SnapLoad]> = self
            .load_events
            .iter()
            .map(|e| {
                let module = self.app.module(e.module);
                SnapLoad {
                    module: e.module,
                    init_cost: module.init_cost(),
                    mem_kb: module.mem_kb(),
                }
            })
            .collect();
        let nominal_init = loads.iter().map(|l| l.init_cost).sum();
        Snapshot {
            loads,
            loaded: self.loaded.clone().into_boxed_slice(),
            nominal_init,
            // Unrefined: no invocation has recorded a working set yet, so
            // restores replay the full stream until the store refines it.
            working: None,
        }
    }

    /// Replays a captured cold start onto this fresh process and returns
    /// the initialization latency, exactly as [`Process::cold_start`]
    /// would have: each stored raw charge goes through the loader's own
    /// charge rule and per-module rounding at this process's `time_scale`,
    /// so clocks, load events, memory, and the module cache come out
    /// byte-identical to a real replay — in O(modules) straight-line work.
    ///
    /// # Panics
    ///
    /// Debug-asserts that this process is fresh (nothing loaded) and
    /// unobserved.
    pub fn restore_snapshot(&mut self, snapshot: &Snapshot) -> SimDuration {
        self.replay(snapshot, &snapshot.loaded)
    }

    /// REAP-style restore: replays only the snapshot's recorded working
    /// set eagerly and leaves the remaining modules unloaded, to be
    /// faulted in by the ordinary first-use deferred-load path at their
    /// real init cost. Unrefined snapshots (no working set recorded yet)
    /// replay the full stream, exactly like [`Process::restore_snapshot`].
    /// In a process forked from a zygote every zygote-resident captured
    /// module replays too, at fork cost: the fork maps it in regardless.
    ///
    /// # Panics
    ///
    /// Debug-asserts that this process is fresh (nothing loaded) and
    /// unobserved.
    pub fn restore_snapshot_lazy(&mut self, snapshot: &Snapshot) -> SimDuration {
        self.replay(
            snapshot,
            snapshot.working.as_deref().unwrap_or(&snapshot.loaded),
        )
    }

    /// The one restore kernel. Replays, in capture order, every captured
    /// load that is in `eager` or resident in this process's zygote (a
    /// fork maps those in regardless), charging each through
    /// [`Process::load_charge`] like the loader. Every other captured
    /// module is marked omitted, so its first use counts as a working-set
    /// fault. The resident captured modules are counted as forked loads
    /// once per restore: each loads once, and all of them are selected.
    fn replay(&mut self, snapshot: &Snapshot, eager: &[u64]) -> SimDuration {
        debug_assert!(self.is_fresh(), "snapshot restore into a non-fresh process");
        debug_assert!(
            self.observer.is_none(),
            "snapshot restore into an observed process"
        );
        debug_assert!(
            self.loaded.len() == snapshot.loaded.len() && eager.len() == snapshot.loaded.len(),
            "snapshot from a different application shape"
        );
        let mut selected_count = 0usize;
        let mut forked_count = 0u64;
        for (word, (&captured, &eager)) in snapshot.loaded.iter().zip(eager).enumerate() {
            let resident = self.zygote.as_deref().map_or(0, |z| z.resident()[word]);
            let selected = (eager | resident) & captured;
            self.loaded[word] = selected;
            self.lazy_omitted[word] = captured & !selected;
            selected_count += selected.count_ones() as usize;
            forked_count += u64::from((resident & captured).count_ones());
        }
        if let Some(zygote) = self.zygote.as_deref() {
            zygote.note_forked_loads(forked_count);
        }
        let start = self.clock;
        let mut clock = self.clock;
        let mut mem_kb = self.mem_kb;
        // A fresh process has no events yet; moving the buffer out lets
        // the loop charge through `&self` while it appends.
        let mut events = std::mem::take(&mut self.load_events);
        events.reserve(selected_count);
        events.extend(
            snapshot
                .loads
                .iter()
                .filter(|load| self.is_loaded(load.module))
                .map(|load| {
                    // Snapshots record nominal charges; the charge rule
                    // substitutes the fork charge for resident modules
                    // exactly as the real forked cold start did.
                    let charge = self.load_charge(load.module, load.init_cost);
                    clock += charge;
                    mem_kb += load.mem_kb;
                    LoadEvent {
                        module: load.module,
                        at: clock,
                        self_cost: charge,
                        during_init: true,
                    }
                }),
        );
        self.load_events = events;
        self.clock = clock;
        self.mem_kb = mem_kb;
        self.bump_peak();
        self.clock.since(start)
    }

    /// Executes one invocation of `handler`, using `rng` for the
    /// application's data-dependent branches.
    ///
    /// Deferred imports reached for the first time are loaded here and their
    /// cost lands in [`InvocationOutcome::exec_time`].
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeFault`] if the handler is unknown or execution
    /// reaches a stripped module.
    pub fn invoke(
        &mut self,
        handler: HandlerId,
        rng: &mut SimRng,
    ) -> Result<InvocationOutcome, RuntimeFault> {
        if handler.index() >= self.app.handlers().len() {
            return Err(RuntimeFault::UnknownHandler { handler });
        }
        let app = Arc::clone(&self.app);
        let function = app.handler(handler).function();
        let start = self.clock;
        let mut deferred = SimDuration::ZERO;

        // The handler's own module may itself be deferred-loaded if the
        // platform skipped cold_start (tests use this).
        let handler_module = app.function(function).module();
        if !self.is_loaded(handler_module) {
            let t0 = self.clock;
            if app.module(handler_module).stripped() {
                return Err(RuntimeFault::StrippedHandlerModule {
                    module: handler_module,
                });
            }
            self.load_with_parents(&app, handler_module);
            deferred += self.clock.since(t0);
        }

        self.exec_function(&app, function, rng, 0, &mut deferred)?;

        if let Some(observer) = self.observer.as_mut() {
            let overhead = observer.on_invocation_end(&app).mul_f64(self.time_scale);
            self.clock += overhead;
        }
        self.bump_peak();
        Ok(InvocationOutcome {
            exec_time: self.clock.since(start),
            deferred_load_time: deferred,
            peak_mem_kb: self.peak_mem_kb,
        })
    }

    // ---------------------------------------------------------------- internals

    /// The charge rule shared by the loader and the restore kernel: the
    /// scaled cost of one load of `module`, whose nominal cost is
    /// `nominal`. A module the zygote holds costs the fork charge, scaled
    /// once per process; any other costs its nominal cost scaled on its
    /// own (per load, never a scaled sum: `mul_f64` rounds per call).
    #[inline]
    fn load_charge(&self, module: ModuleId, nominal: SimDuration) -> SimDuration {
        match self.zygote.as_deref() {
            Some(zygote) if zygote.is_resident(module) => self.fork_charge,
            // `mul_f64(1.0)` is exact identity for any µs count below 2^53
            // (~285 years), so the unjittered common case can skip the
            // float round-trip without perturbing a single byte.
            _ if self.time_scale == 1.0 => nominal,
            _ => nominal.mul_f64(self.time_scale),
        }
    }

    /// Advances the clock by `scaled`, a duration already scaled through
    /// `time_scale`, reporting to the observer and charging its overhead.
    fn advance(&mut self, scaled: SimDuration) {
        let from = self.clock;
        let to = from + scaled;
        let overhead = match self.observer.as_mut() {
            Some(observer) => observer.on_advance(AdvanceContext {
                app: &self.app,
                stack: &self.stack,
                from,
                to,
            }),
            None => SimDuration::ZERO,
        };
        self.clock = to + overhead;
    }

    fn bump_peak(&mut self) {
        let now = self.mem_kb();
        if now > self.peak_mem_kb {
            self.peak_mem_kb = now;
        }
    }

    /// Loads `module` the Python way: ancestors first, then the module.
    fn load_with_parents(&mut self, app: &Arc<Application>, module: ModuleId) {
        let plan = Arc::clone(&self.plan);
        for &id in plan.ancestors(module) {
            if !self.is_loaded(id) && !app.module(id).stripped() {
                self.load_single(app, id);
            }
        }
    }

    /// Loads exactly one module: runs its global imports, then its top
    /// level.
    fn load_single(&mut self, app: &Arc<Application>, module: ModuleId) {
        debug_assert!(!self.is_loaded(module), "double load of {module}");
        // Mark first (Python registers in sys.modules before executing).
        self.mark_loaded(module);
        self.stack.push(FrameKind::ModuleInit(module), 1);

        for decl in app.imports_of(module) {
            if !decl.mode.is_global() {
                continue;
            }
            if app.module(decl.target).stripped() {
                continue; // the static optimizer removed this import
            }
            self.stack.set_line(decl.line);
            if !self.is_loaded(decl.target) {
                self.load_with_parents(app, decl.target);
            }
        }

        // Execute the module's own top level — or, when the zygote this
        // process forked from already holds the module initialized, just
        // acquire it at the flat fork cost.
        let before = self.clock;
        self.stack.set_line(1);
        if let Some(zygote) = self.zygote.as_deref().filter(|z| z.is_resident(module)) {
            zygote.note_forked_loads(1);
        }
        self.advance(self.load_charge(module, app.module(module).init_cost()));
        let self_cost = self.clock.since(before);

        self.stack.pop();
        self.mem_kb += app.module(module).mem_kb();
        self.bump_peak();
        self.load_events.push(LoadEvent {
            module,
            at: self.clock,
            self_cost,
            during_init: self.in_cold_start,
        });
    }

    fn exec_function(
        &mut self,
        app: &Arc<Application>,
        function: FunctionId,
        rng: &mut SimRng,
        depth: usize,
        deferred: &mut SimDuration,
    ) -> Result<(), RuntimeFault> {
        if depth >= RECURSION_LIMIT {
            return Err(RuntimeFault::RecursionLimit { function });
        }
        let f = app.function(function);
        self.mark_touched(f.module());
        self.stack.push(FrameKind::Call(function), f.line());
        let result = self.exec_stmts(app, f.body(), rng, depth, deferred);
        self.stack.pop();
        result
    }

    fn exec_stmts(
        &mut self,
        app: &Arc<Application>,
        stmts: &[Stmt],
        rng: &mut SimRng,
        depth: usize,
        deferred: &mut SimDuration,
    ) -> Result<(), RuntimeFault> {
        for stmt in stmts {
            self.stack.set_line(stmt.line);
            match &stmt.kind {
                StmtKind::Work(d) => self.advance(d.mul_f64(self.time_scale)),
                StmtKind::Call(site) => {
                    let callee_module = app.function(site.target).module();
                    if !self.is_loaded(callee_module) {
                        if app.module(callee_module).stripped() {
                            return Err(RuntimeFault::StrippedModuleCall {
                                module: callee_module,
                                function: site.target,
                            });
                        }
                        // First use of a deferred import: load now.
                        let t0 = self.clock;
                        self.load_with_parents(app, callee_module);
                        *deferred += self.clock.since(t0);
                    }
                    self.exec_function(app, site.target, rng, depth + 1, deferred)?;
                }
                StmtKind::Touch(module) => {
                    if !self.is_loaded(*module) {
                        if app.module(*module).stripped() {
                            return Err(RuntimeFault::StrippedModuleTouch { module: *module });
                        }
                        let t0 = self.clock;
                        self.load_with_parents(app, *module);
                        *deferred += self.clock.since(t0);
                    }
                    self.mark_touched(*module);
                }
                StmtKind::Branch { probability, body } => {
                    if rng.chance(*probability) {
                        self.exec_stmts(app, body, rng, depth, deferred)?;
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zygote::{ZygoteCounters, ZygoteImage};
    use slimstart_appmodel::app::AppBuilder;
    use slimstart_appmodel::imports::ImportMode;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    /// handler.py -> lib (root imports hot + cold subpackages); handler
    /// calls into hot only; cold has a function never called.
    fn build_app(defer_cold: bool) -> (Arc<Application>, ModuleId, HandlerId) {
        let mut b = AppBuilder::new("t");
        let lib = b.add_library("lib");
        let h = b.add_app_module("handler", ms(1), 128);
        let root = b.add_library_module("lib", ms(2), 256, false, lib);
        let hot = b.add_library_module("lib.hot", ms(10), 1_000, false, lib);
        let cold = b.add_library_module("lib.cold", ms(50), 5_000, false, lib);
        let cold_leaf = b.add_library_module("lib.cold.leaf", ms(25), 2_000, false, lib);
        b.add_import(h, root, 2, ImportMode::Global).unwrap();
        b.add_import(root, hot, 2, ImportMode::Global).unwrap();
        b.add_import(
            root,
            cold,
            3,
            if defer_cold {
                ImportMode::Deferred
            } else {
                ImportMode::Global
            },
        )
        .unwrap();
        b.add_import(cold, cold_leaf, 2, ImportMode::Global)
            .unwrap();
        let f_hot = b.add_function(
            "work",
            hot,
            5,
            vec![Stmt {
                line: 6,
                kind: StmtKind::Work(ms(4)),
            }],
        );
        let f_cold = b.add_function(
            "rare",
            cold,
            5,
            vec![Stmt {
                line: 6,
                kind: StmtKind::Work(ms(1)),
            }],
        );
        let f_main = b.add_function(
            "main",
            h,
            4,
            vec![
                Stmt {
                    line: 5,
                    kind: StmtKind::call(f_hot),
                },
                Stmt {
                    line: 6,
                    kind: StmtKind::Branch {
                        probability: 0.0,
                        body: vec![Stmt {
                            line: 7,
                            kind: StmtKind::call(f_cold),
                        }],
                    },
                },
            ],
        );
        let handler = b.add_handler("main", f_main);
        let app = Arc::new(b.finish().unwrap());
        let hm = app.module_by_name("handler").unwrap();
        (app, hm, handler)
    }

    #[test]
    fn eager_cold_start_pays_everything() {
        let (app, root, _) = build_app(false);
        let mut p = Process::new(Arc::clone(&app), 1.0);
        let init = p.cold_start(root).unwrap();
        // 1 + 2 + 10 + 50 + 25 ms.
        assert_eq!(init, ms(88));
        assert_eq!(p.mem_kb(), 128 + 256 + 1_000 + 5_000 + 2_000);
    }

    #[test]
    fn deferred_import_skips_cold_subtree() {
        let (app, root, _) = build_app(true);
        let mut p = Process::new(Arc::clone(&app), 1.0);
        let init = p.cold_start(root).unwrap();
        assert_eq!(init, ms(13)); // 1 + 2 + 10
        let cold = app.module_by_name("lib.cold").unwrap();
        assert!(!p.is_loaded(cold));
        assert_eq!(p.mem_kb(), 128 + 256 + 1_000);
    }

    #[test]
    fn invocation_executes_work() {
        let (app, root, h) = build_app(true);
        let mut p = Process::new(Arc::clone(&app), 1.0);
        p.cold_start(root).unwrap();
        let out = p.invoke(h, &mut SimRng::seed_from(1)).unwrap();
        assert_eq!(out.exec_time, ms(4)); // hot work only; branch never fires
        assert_eq!(out.deferred_load_time, SimDuration::ZERO);
    }

    #[test]
    fn first_use_triggers_deferred_load_with_parents() {
        let (app, root, _) = build_app(true);
        // Force the rare branch by invoking the cold function directly via a
        // dedicated app: simpler — raise probability to 1 by rebuilding.
        let mut b = AppBuilder::new("t2");
        let lib = b.add_library("lib");
        let hm = b.add_app_module("handler", ms(1), 0);
        let lroot = b.add_library_module("lib", ms(2), 0, false, lib);
        let cold = b.add_library_module("lib.cold", ms(50), 0, false, lib);
        b.add_import(hm, lroot, 2, ImportMode::Global).unwrap();
        b.add_import(lroot, cold, 2, ImportMode::Deferred).unwrap();
        let f_cold = b.add_function(
            "rare",
            cold,
            5,
            vec![Stmt {
                line: 6,
                kind: StmtKind::Work(ms(1)),
            }],
        );
        let f_main = b.add_function(
            "main",
            hm,
            4,
            vec![Stmt {
                line: 5,
                kind: StmtKind::call(f_cold),
            }],
        );
        let h2 = b.add_handler("main", f_main);
        let app2 = Arc::new(b.finish().unwrap());
        let hm2 = app2.module_by_name("handler").unwrap();
        let mut p = Process::new(Arc::clone(&app2), 1.0);
        let init = p.cold_start(hm2).unwrap();
        assert_eq!(init, ms(3)); // handler + lib root only
        let out = p.invoke(h2, &mut SimRng::seed_from(1)).unwrap();
        // Deferred load of lib.cold (50) + work (1).
        assert_eq!(out.exec_time, ms(51));
        assert_eq!(out.deferred_load_time, ms(50));
        assert!(p.is_loaded(app2.module_by_name("lib.cold").unwrap()));

        // keep the original app alive so the first part of this test is
        // meaningful
        let _ = (app, root);
    }

    #[test]
    fn warm_invocations_pay_no_load() {
        let (app, root, h) = build_app(false);
        let mut p = Process::new(Arc::clone(&app), 1.0);
        p.cold_start(root).unwrap();
        let first = p.invoke(h, &mut SimRng::seed_from(1)).unwrap();
        let second = p.invoke(h, &mut SimRng::seed_from(2)).unwrap();
        assert_eq!(first.exec_time, second.exec_time);
        assert_eq!(p.load_events().len(), 5);
    }

    #[test]
    fn time_scale_inflates_latency() {
        let (app, root, _) = build_app(false);
        let mut p = Process::new(Arc::clone(&app), 2.0);
        let init = p.cold_start(root).unwrap();
        assert_eq!(init, ms(176));
    }

    #[test]
    #[should_panic(expected = "time_scale")]
    fn rejects_bad_time_scale() {
        let (app, _, _) = build_app(false);
        Process::new(app, 0.0);
    }

    #[test]
    fn stripped_module_call_faults() {
        let (app, root, h) = build_app(false);
        let mut app2 = (*app).clone();
        let hot = app2.module_by_name("lib.hot").unwrap();
        app2.module_mut(hot).set_stripped(true);
        let app2 = Arc::new(app2);
        let mut p = Process::new(Arc::clone(&app2), 1.0);
        p.cold_start(root).unwrap();
        let err = p.invoke(h, &mut SimRng::seed_from(1)).unwrap_err();
        assert!(matches!(err, RuntimeFault::StrippedModuleCall { .. }));
    }

    #[test]
    fn stripped_handler_module_faults_cold_start() {
        let (app, root, _) = build_app(false);
        let mut app2 = (*app).clone();
        app2.module_mut(root).set_stripped(true);
        let app2 = Arc::new(app2);
        let mut p = Process::new(app2, 1.0);
        assert!(matches!(
            p.cold_start(root),
            Err(RuntimeFault::StrippedHandlerModule { .. })
        ));
    }

    #[test]
    fn unknown_handler_faults() {
        let (app, _, _) = build_app(false);
        let mut p = Process::new(app, 1.0);
        let err = p
            .invoke(HandlerId::from_index(99), &mut SimRng::seed_from(1))
            .unwrap_err();
        assert!(matches!(err, RuntimeFault::UnknownHandler { .. }));
    }

    #[test]
    fn invoke_without_cold_start_self_loads() {
        let (app, _, h) = build_app(false);
        let mut p = Process::new(Arc::clone(&app), 1.0);
        let out = p.invoke(h, &mut SimRng::seed_from(1)).unwrap();
        // All loading happens as "deferred" inside the invocation.
        assert_eq!(out.deferred_load_time, ms(88));
        assert!(p.load_events().iter().all(|e| !e.during_init));
    }

    #[test]
    fn load_events_record_self_costs() {
        let (app, root, _) = build_app(false);
        let mut p = Process::new(Arc::clone(&app), 1.0);
        p.cold_start(root).unwrap();
        let total: SimDuration = p.load_events().iter().map(|e| e.self_cost).sum();
        assert_eq!(total, ms(88));
        assert!(p.load_events().iter().all(|e| e.during_init));
        // Load order: dependencies before importers, handler last.
        let names: Vec<&str> = p
            .load_events()
            .iter()
            .map(|e| app.module(e.module).name())
            .collect();
        assert_eq!(names.last(), Some(&"handler"));
    }

    #[test]
    fn observer_overhead_is_charged() {
        struct FixedOverhead;
        impl ExecutionObserver for FixedOverhead {
            fn on_advance(&mut self, _ctx: AdvanceContext<'_>) -> SimDuration {
                SimDuration::from_micros(100)
            }
            fn on_invocation_end(&mut self, _app: &Application) -> SimDuration {
                SimDuration::from_millis(1)
            }
            fn extra_mem_kb(&self) -> u64 {
                512
            }
        }
        let (app, root, h) = build_app(false);
        let mut p = Process::new(Arc::clone(&app), 1.0);
        p.attach_observer(Box::new(FixedOverhead));
        let init = p.cold_start(root).unwrap();
        // 5 advances during load, each +100us.
        assert_eq!(init, ms(88) + SimDuration::from_micros(500));
        let out = p.invoke(h, &mut SimRng::seed_from(1)).unwrap();
        // 1 work advance (+100us) + invocation-end flush (1ms).
        assert_eq!(out.exec_time, ms(4) + SimDuration::from_micros(100) + ms(1));
        assert_eq!(p.mem_kb(), 128 + 256 + 1_000 + 5_000 + 2_000 + 512);
        assert!(p.has_observer());
        assert!(p.detach_observer().is_some());
        assert!(!p.has_observer());
    }

    /// The names of the modules a cold start of `root` loads in a fresh
    /// process, read back module by module with `is_loaded`.
    fn fresh_load_set<'a>(app: &'a Arc<Application>, root: &str) -> Vec<&'a str> {
        let mut p = Process::new(Arc::clone(app), 1.0);
        p.cold_start(app.module_by_name(root).unwrap()).unwrap();
        app.modules()
            .iter()
            .enumerate()
            .filter(|&(i, _)| p.is_loaded(ModuleId::from_index(i)))
            .map(|(_, module)| module.name())
            .collect()
    }

    #[test]
    fn cold_start_loads_global_imports_only() {
        let (app, _, _) = build_app(true);
        // The deferred lib.cold subtree is not part of the eager load.
        assert_eq!(
            fresh_load_set(&app, "handler"),
            vec!["handler", "lib", "lib.hot"]
        );
    }

    #[test]
    fn cold_start_of_submodule_loads_package_ancestry() {
        let (app, _, _) = build_app(true);
        // Loading lib.cold.leaf pulls in lib (an ancestor), which pulls in
        // lib.hot; nothing imports the handler.
        assert_eq!(
            fresh_load_set(&app, "lib.cold.leaf"),
            vec!["lib", "lib.hot", "lib.cold", "lib.cold.leaf"]
        );
    }

    #[test]
    fn cold_start_loads_the_eager_load_set() {
        let (app, _, _) = build_app(true);
        for i in 0..app.modules().len() {
            let m = ModuleId::from_index(i);
            let mut p = Process::new(Arc::clone(&app), 1.0);
            p.cold_start(m).unwrap();
            // eager_load_set has no parent-package rule, so it can only be a
            // subset of what the loader brings in; every eager module must
            // load.
            for e in app.eager_load_set(m) {
                assert!(p.is_loaded(e), "module {i}: missing {e}");
            }
        }
    }

    #[test]
    fn cold_start_skips_stripped_modules() {
        let (app, _, _) = build_app(true);
        let mut app2 = (*app).clone();
        let hot = app2.module_by_name("lib.hot").unwrap();
        app2.module_mut(hot).set_stripped(true);
        let app2 = Arc::new(app2);
        assert_eq!(fresh_load_set(&app2, "handler"), vec!["handler", "lib"]);
    }

    #[test]
    fn deferred_module_with_loaded_dependencies_loads_alone_under_any_plan() {
        // lib.cold is deferred and all of its dependencies load eagerly, so
        // its first use loads lib.cold and nothing else, and a fresh process
        // sharing the plan behaves exactly like one that builds its own.
        let mut b = AppBuilder::new("t3");
        let lib = b.add_library("lib");
        let h = b.add_app_module("handler", ms(1), 0);
        let root = b.add_library_module("lib", ms(2), 0, false, lib);
        let hot = b.add_library_module("lib.hot", ms(4), 0, false, lib);
        let cold = b.add_library_module("lib.cold", ms(8), 0, false, lib);
        b.add_import(h, root, 2, ImportMode::Global).unwrap();
        b.add_import(root, hot, 2, ImportMode::Global).unwrap();
        b.add_import(root, cold, 3, ImportMode::Deferred).unwrap();
        b.add_import(cold, hot, 2, ImportMode::Global).unwrap();
        let f_cold = b.add_function(
            "rare",
            cold,
            5,
            vec![Stmt {
                line: 6,
                kind: StmtKind::Work(ms(1)),
            }],
        );
        let f_main = b.add_function(
            "main",
            h,
            4,
            vec![Stmt {
                line: 5,
                kind: StmtKind::call(f_cold),
            }],
        );
        let handler = b.add_handler("main", f_main);
        let app = Arc::new(b.finish().unwrap());
        let hm = app.module_by_name("handler").unwrap();

        let plan = Arc::new(LoaderPlan::build(&app));
        let mut p = Process::with_plan(Arc::clone(&app), Arc::clone(&plan), 1.0);
        let init = p.cold_start(hm).unwrap();
        assert_eq!(init, ms(7));
        let out = p.invoke(handler, &mut SimRng::seed_from(1)).unwrap();
        assert_eq!(out.deferred_load_time, ms(8));
        assert_eq!(out.exec_time, ms(9));
        let names: Vec<&str> = p
            .load_events()
            .iter()
            .map(|e| app.module(e.module).name())
            .collect();
        assert_eq!(names, vec!["lib.hot", "lib", "handler", "lib.cold"]);

        // A fresh process sharing the plan is identical to one that builds
        // its own.
        let mut shared = Process::with_plan(Arc::clone(&app), plan, 1.0);
        let mut private = Process::new(Arc::clone(&app), 1.0);
        assert_eq!(shared.cold_start(hm), private.cold_start(hm));
        let a = shared.invoke(handler, &mut SimRng::seed_from(1)).unwrap();
        let b = private.invoke(handler, &mut SimRng::seed_from(1)).unwrap();
        assert_eq!(a, b);
        assert_eq!(shared.load_events(), private.load_events());
    }

    #[test]
    fn snapshot_restore_replays_cold_start_exactly() {
        let (app, root, h) = build_app(true);
        let plan = Arc::new(LoaderPlan::build(&app));
        // Capture from one cold start, restore into fresh processes at the
        // same and at jittered time scales — every observable must match a
        // real replay bit for bit.
        let mut origin = Process::with_plan(Arc::clone(&app), Arc::clone(&plan), 1.0);
        origin.cold_start(root).unwrap();
        let snapshot = origin.capture_snapshot();
        for scale in [1.0, 0.5, 1.37, 2.0] {
            let mut replay = Process::with_plan(Arc::clone(&app), Arc::clone(&plan), scale);
            let real = replay.cold_start(root).unwrap();
            let mut restored = Process::with_plan(Arc::clone(&app), Arc::clone(&plan), scale);
            let fast = restored.restore_snapshot(&snapshot);
            assert_eq!(fast, real, "init latency at scale {scale}");
            assert_eq!(restored.clock(), replay.clock());
            assert_eq!(restored.load_events(), replay.load_events());
            assert_eq!(restored.mem_kb(), replay.mem_kb());
            assert_eq!(restored.peak_mem_kb(), replay.peak_mem_kb());
            for i in 0..app.modules().len() {
                let m = ModuleId::from_index(i);
                assert_eq!(restored.is_loaded(m), replay.is_loaded(m));
            }
            // Warm execution after a restore is indistinguishable too,
            // including the first-use deferred load of the cold subtree.
            let a = replay.invoke(h, &mut SimRng::seed_from(9)).unwrap();
            let b = restored.invoke(h, &mut SimRng::seed_from(9)).unwrap();
            assert_eq!(a, b);
            assert_eq!(restored.load_events(), replay.load_events());
        }
    }

    fn bit_of(app: &Application, name: &str) -> (usize, u64) {
        let m = app.module_by_name(name).unwrap();
        (m.index() / 64, 1u64 << (m.index() % 64))
    }

    #[test]
    fn lazy_restore_with_full_working_set_matches_full_restore() {
        let (app, root, h) = build_app(true);
        let plan = Arc::new(LoaderPlan::build(&app));
        let mut origin = Process::with_plan(Arc::clone(&app), Arc::clone(&plan), 1.0);
        origin.cold_start(root).unwrap();
        let mut snapshot = origin.capture_snapshot();
        // Full working set: the lazy path must be byte-identical to the
        // full-stream restore — the differential oracle of this PR.
        snapshot.working = Some(snapshot.loaded.clone());
        for scale in [1.0, 0.5, 1.37, 2.0] {
            let mut full = Process::with_plan(Arc::clone(&app), Arc::clone(&plan), scale);
            let full_init = full.restore_snapshot(&snapshot);
            let mut lazy = Process::with_plan(Arc::clone(&app), Arc::clone(&plan), scale);
            let lazy_init = lazy.restore_snapshot_lazy(&snapshot);
            assert_eq!(lazy_init, full_init, "init latency at scale {scale}");
            assert_eq!(lazy.clock(), full.clock());
            assert_eq!(lazy.load_events(), full.load_events());
            assert_eq!(lazy.mem_kb(), full.mem_kb());
            let a = full.invoke(h, &mut SimRng::seed_from(9)).unwrap();
            let b = lazy.invoke(h, &mut SimRng::seed_from(9)).unwrap();
            assert_eq!(a, b);
            assert_eq!(lazy.take_faulted_loads(), 0);
        }
    }

    #[test]
    fn lazy_restore_faults_omitted_modules_on_first_use() {
        // handler -> lib -> lib.cold (all global). The working set leaves
        // lib.cold out; its first use inside the handler pays the real
        // load cost as a deferred load and counts one fault.
        let mut b = AppBuilder::new("ws");
        let lib = b.add_library("lib");
        let hm = b.add_app_module("handler", ms(1), 128);
        let root = b.add_library_module("lib", ms(2), 256, false, lib);
        let cold = b.add_library_module("lib.cold", ms(50), 5_000, false, lib);
        b.add_import(hm, root, 2, ImportMode::Global).unwrap();
        b.add_import(root, cold, 3, ImportMode::Global).unwrap();
        let f_cold = b.add_function(
            "rare",
            cold,
            5,
            vec![Stmt {
                line: 6,
                kind: StmtKind::Work(ms(1)),
            }],
        );
        let f_main = b.add_function(
            "main",
            hm,
            4,
            vec![Stmt {
                line: 5,
                kind: StmtKind::call(f_cold),
            }],
        );
        let h = b.add_handler("main", f_main);
        let app = Arc::new(b.finish().unwrap());
        let entry = app.module_by_name("handler").unwrap();

        let mut origin = Process::new(Arc::clone(&app), 1.0);
        assert_eq!(origin.cold_start(entry).unwrap(), ms(53));
        let mut snapshot = origin.capture_snapshot();
        let mut working = vec![0u64; snapshot.loaded.len()];
        for name in ["handler", "lib"] {
            let (w, bit) = bit_of(&app, name);
            working[w] |= bit;
        }
        snapshot.working = Some(working.into_boxed_slice());

        let mut p = Process::new(Arc::clone(&app), 1.0);
        let init = p.restore_snapshot_lazy(&snapshot);
        assert_eq!(init, ms(3)); // handler + lib only
        assert_eq!(p.mem_kb(), 128 + 256);
        assert!(!p.is_loaded(app.module_by_name("lib.cold").unwrap()));
        let out = p.invoke(h, &mut SimRng::seed_from(1)).unwrap();
        assert_eq!(out.deferred_load_time, ms(50));
        assert_eq!(out.exec_time, ms(51));
        assert_eq!(p.take_faulted_loads(), 1);
        // Once faulted in, the module is warm: no further faults.
        let again = p.invoke(h, &mut SimRng::seed_from(2)).unwrap();
        assert_eq!(again.deferred_load_time, SimDuration::ZERO);
        assert_eq!(p.take_faulted_loads(), 0);
    }

    #[test]
    fn working_set_closes_touched_modules_under_ancestry() {
        let (app, root, h) = build_app(false);
        let mut p = Process::new(Arc::clone(&app), 1.0);
        p.cold_start(root).unwrap();
        let snapshot = p.capture_snapshot();
        p.invoke(h, &mut SimRng::seed_from(1)).unwrap();
        // The handler ran work in lib.hot only; closure pulls in lib (its
        // package ancestor) and the handler module, never the cold subtree.
        let working = p.working_set_for(&snapshot);
        for name in ["handler", "lib", "lib.hot"] {
            let (w, bit) = bit_of(&app, name);
            assert!(working[w] & bit != 0, "{name} should be in the working set");
        }
        for name in ["lib.cold", "lib.cold.leaf"] {
            let (w, bit) = bit_of(&app, name);
            assert!(working[w] & bit == 0, "{name} should be omitted");
        }
    }

    #[test]
    fn snapshot_nominal_init_sums_raw_charges() {
        let (app, root, _) = build_app(false);
        let mut p = Process::new(Arc::clone(&app), 3.0);
        p.cold_start(root).unwrap();
        let snapshot = p.capture_snapshot();
        // Raw (unscaled) charges: 1 + 2 + 10 + 50 + 25 ms.
        assert_eq!(snapshot.nominal_init, ms(88));
        assert_eq!(snapshot.loads.len(), 5);
        assert_eq!(
            snapshot.loaded.iter().map(|w| w.count_ones()).sum::<u32>(),
            5
        );
    }

    #[test]
    fn branch_probability_one_always_fires() {
        let mut b = AppBuilder::new("t");
        let m = b.add_app_module("handler", SimDuration::ZERO, 0);
        let f = b.add_function(
            "main",
            m,
            1,
            vec![Stmt {
                line: 2,
                kind: StmtKind::Branch {
                    probability: 1.0,
                    body: vec![Stmt {
                        line: 3,
                        kind: StmtKind::Work(ms(7)),
                    }],
                },
            }],
        );
        let h = b.add_handler("h", f);
        let app = Arc::new(b.finish().unwrap());
        let mut p = Process::new(app, 1.0);
        let out = p.invoke(h, &mut SimRng::seed_from(1)).unwrap();
        assert_eq!(out.exec_time, ms(7));
    }

    #[test]
    fn recursion_limit_guards() {
        let mut b = AppBuilder::new("t");
        let m = b.add_app_module("handler", SimDuration::ZERO, 0);
        // f calls itself.
        let f_id = FunctionId::from_index(0);
        let f = b.add_function(
            "loopy",
            m,
            1,
            vec![Stmt {
                line: 2,
                kind: StmtKind::call(f_id),
            }],
        );
        let h = b.add_handler("h", f);
        let app = Arc::new(b.finish().unwrap());
        let mut p = Process::new(app, 1.0);
        let err = p.invoke(h, &mut SimRng::seed_from(1)).unwrap_err();
        assert!(matches!(err, RuntimeFault::RecursionLimit { .. }));
    }

    #[test]
    fn zygote_cold_start_acquires_resident_modules_at_fork_cost() {
        let (app, root, h) = build_app(false);
        let counters = Arc::new(ZygoteCounters::default());
        let image = Arc::new(ZygoteImage::for_app(
            &app,
            &["lib.cold", "lib.hot", "lib.cold.leaf"],
            3,
            SimDuration::from_micros(100),
            Arc::clone(&counters),
        ));
        let mut p = Process::new(Arc::clone(&app), 1.0);
        p.set_zygote(image);
        let init = p.cold_start(root).unwrap();
        // handler (1ms) + lib (2ms) run their top level; the three resident
        // modules are acquired from the zygote at 100µs each.
        assert_eq!(init, ms(3) + SimDuration::from_micros(300));
        assert_eq!(counters.forks(), 1);
        assert_eq!(counters.forked_loads(), 3);
        // Memory is modeled conservatively: full footprint either way.
        assert_eq!(p.mem_kb(), 128 + 256 + 1_000 + 5_000 + 2_000);
        // Warm execution is untouched by the fork.
        let out = p.invoke(h, &mut SimRng::seed_from(1)).unwrap();
        assert_eq!(out.exec_time, ms(4));
        assert_eq!(counters.forked_loads(), 3);
    }

    #[test]
    fn zygote_full_restore_matches_forked_cold_start() {
        // Snapshots record nominal charges (captured without a zygote);
        // restoring under a zygote — fully, or lazily before any working
        // set is recorded — must reproduce a real forked cold start bit for
        // bit at every time scale, fork counters included. The platform's
        // snapshot cache relies on this equivalence. An odd fork cost puts
        // scale 0.5 on a .5 product, so the fork charge scaled once per
        // process must round exactly as a per-load scaling would.
        let fork_cost = SimDuration::from_micros(101);
        let (app, root, h) = build_app(true);
        let plan = Arc::new(LoaderPlan::build(&app));
        let mut origin = Process::with_plan(Arc::clone(&app), Arc::clone(&plan), 1.0);
        origin.cold_start(root).unwrap();
        let snapshot = origin.capture_snapshot();
        let image = |counters: &Arc<ZygoteCounters>| {
            Arc::new(ZygoteImage::for_app(
                &app,
                &["lib.hot", "lib"],
                2,
                fork_cost,
                Arc::clone(counters),
            ))
        };
        let restores: [fn(&mut Process, &Snapshot) -> SimDuration; 2] =
            [Process::restore_snapshot, Process::restore_snapshot_lazy];
        for scale in [1.0, 0.5, 1.37, 2.0] {
            for restore in restores {
                let (real_counters, restored_counters) = (
                    Arc::new(ZygoteCounters::default()),
                    Arc::new(ZygoteCounters::default()),
                );
                let mut real = Process::with_plan(Arc::clone(&app), Arc::clone(&plan), scale);
                real.set_zygote(image(&real_counters));
                let real_init = real.cold_start(root).unwrap();
                let mut restored = Process::with_plan(Arc::clone(&app), Arc::clone(&plan), scale);
                restored.set_zygote(image(&restored_counters));
                let fast = restore(&mut restored, &snapshot);
                assert_eq!(fast, real_init, "init latency at scale {scale}");
                assert_eq!(restored.clock(), real.clock());
                assert_eq!(restored.load_events(), real.load_events());
                assert_eq!(restored.mem_kb(), real.mem_kb());
                let fork_charge = fork_cost.mul_f64(scale);
                for event in restored.load_events() {
                    if ["lib.hot", "lib"].contains(&app.module(event.module).name()) {
                        assert_eq!(event.self_cost, fork_charge, "at scale {scale}");
                    }
                }
                assert_eq!(restored_counters.forks(), 1);
                assert_eq!(restored_counters.forks(), real_counters.forks());
                assert_eq!(restored_counters.forked_loads(), 2);
                assert_eq!(
                    restored_counters.forked_loads(),
                    real_counters.forked_loads()
                );
                // The deferred first-use load of the cold subtree behaves
                // the same after either path (lib.cold is not resident:
                // full cost), and an unrefined lazy restore omits nothing.
                let a = real.invoke(h, &mut SimRng::seed_from(9)).unwrap();
                let b = restored.invoke(h, &mut SimRng::seed_from(9)).unwrap();
                assert_eq!(a, b);
                assert_eq!(restored.load_events(), real.load_events());
                assert_eq!(restored.take_faulted_loads(), 0);
                assert_eq!(
                    restored_counters.forked_loads(),
                    real_counters.forked_loads()
                );
            }
        }
    }

    #[test]
    fn zygote_lazy_restore_replays_capture_order_and_acquires_resident() {
        let (app, root, h) = build_app(false);
        let mut origin = Process::new(Arc::clone(&app), 1.0);
        origin.cold_start(root).unwrap();
        let mut snapshot = origin.capture_snapshot();
        let mut working = vec![0u64; snapshot.loaded.len()];
        for name in ["handler", "lib"] {
            let (w, bit) = bit_of(&app, name);
            working[w] |= bit;
        }
        snapshot.working = Some(working.into_boxed_slice());

        for scale in [1.0, 0.5, 1.37, 2.0] {
            let counters = Arc::new(ZygoteCounters::default());
            // Node ranking: lib.cold hottest (and resident), then handler,
            // then lib — an order that differs from capture order; lib.hot
            // and lib.cold.leaf unranked.
            let image = Arc::new(ZygoteImage::for_app(
                &app,
                &["lib.cold", "handler", "lib"],
                1,
                SimDuration::from_micros(100),
                Arc::clone(&counters),
            ));
            let mut p = Process::new(Arc::clone(&app), scale);
            p.set_zygote(image);
            let init = p.restore_snapshot_lazy(&snapshot);
            // Replay set = working {handler, lib} ∪ resident {lib.cold}, in
            // capture order whatever the ranking: lib.cold at fork cost,
            // then lib and handler at their nominal costs, each scaled on
            // its own.
            let charges = [SimDuration::from_micros(100), ms(2), ms(1)];
            let mut at = SimTime::ZERO;
            let expected: Vec<LoadEvent> = ["lib.cold", "lib", "handler"]
                .iter()
                .zip(charges)
                .map(|(name, raw)| {
                    let self_cost = raw.mul_f64(scale);
                    at += self_cost;
                    LoadEvent {
                        module: app.module_by_name(name).unwrap(),
                        at,
                        self_cost,
                        during_init: true,
                    }
                })
                .collect();
            assert_eq!(p.load_events(), &expected[..], "replay at scale {scale}");
            assert_eq!(init, at.since(SimTime::ZERO));
            assert_eq!(counters.forked_loads(), 1);
            assert!(p.is_loaded(app.module_by_name("lib.cold").unwrap()));
            assert!(!p.is_loaded(app.module_by_name("lib.hot").unwrap()));
            assert!(!p.is_loaded(app.module_by_name("lib.cold.leaf").unwrap()));
            assert_eq!(p.mem_kb(), 128 + 256 + 5_000);
            // Omitted modules still fault in at first use: the handler's
            // call into lib.hot (unranked, not resident) pays its full cost.
            let out = p.invoke(h, &mut SimRng::seed_from(1)).unwrap();
            assert_eq!(out.deferred_load_time, ms(10).mul_f64(scale));
            assert_eq!(out.exec_time, ms(10).mul_f64(scale) + ms(4).mul_f64(scale));
            assert_eq!(p.take_faulted_loads(), 1);
        }
    }
}
