//! Walk-replay equivalence: a fresh process's cold start replays its
//! plan's recording of the root's walk, written by the root's second fresh
//! walk on the plan, instead of walking the imports again, and must be
//! indistinguishable from that walk.
//!
//! For every handler root of every catalog app, of a FaaSLight-stripped
//! copy of each, and of seeded random apps with dotted-name gaps and
//! deferred imports, a replayed cold start and a recording walk are
//! compared with the plain recursive walk of a process on a fresh plan:
//! returned latency, clock, load events, memory, peak memory, forked-load
//! counts, the captured snapshot and every advance the observer sees (its
//! stack, `from` and `to`), at time scale 1.0 and jittered, with no zygote
//! and forked from zygotes whose fork costs are 0 µs (so some advances are
//! 0 µs long) and 101 µs. The replayed recording is written by unobserved
//! processes at scale 1.0 without a zygote, so each replay also shows that
//! a recording does not depend on the process that wrote it. After the
//! cold start every process invokes every handler, which loads deferred
//! imports through the recursion, and cold-starts another root on the now
//! non-fresh process; those must match too.
//!
//! An unobserved process replays a recording through the restore kernel,
//! as a full restore of the walk's snapshot that logs no per-load event.
//! So each cell also runs an unobserved replay of the recorded plan and
//! compares it with an unobserved plain walk on a fresh plan: latency,
//! clock, load events (the replay's are derived from the walk's stream),
//! memory, peak memory, forked-load counts and the captured snapshot, which
//! shares the walk's stream; then again after every handler's invocation
//! (deferred loads follow the derived events) and after a cold start of
//! another root.

mod common;

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use slimstart::appmodel::catalog::catalog;
use slimstart::appmodel::{Application, HandlerId, ModuleId};
use slimstart::faaslight::strip_unreachable;
use slimstart::pyrt::observer::{AdvanceContext, ExecutionObserver};
use slimstart::pyrt::stack::Frame;
use slimstart::pyrt::{LoadEvent, LoaderPlan, Process, Snapshot, ZygoteCounters, ZygoteImage};
use slimstart::simcore::{SimDuration, SimRng, SimTime};

/// One observed advance: the stack, the interval, and the walk step it
/// replays (the walk's address and the step index), if any.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Advance {
    frames: Vec<Frame>,
    from: SimTime,
    to: SimTime,
    site: Option<(usize, usize)>,
}

/// The advances one process's observer saw, in order.
type Log = Rc<RefCell<Vec<Advance>>>;

/// Records every advance and charges overhead for it, and pins memory that
/// grows with the advances seen, so peaks depend on when each load ends.
struct Recorder {
    log: Log,
}

impl ExecutionObserver for Recorder {
    fn on_advance(&mut self, ctx: AdvanceContext<'_>) -> SimDuration {
        let mut log = self.log.borrow_mut();
        log.push(Advance {
            frames: ctx.stack.frames().to_vec(),
            from: ctx.from,
            to: ctx.to,
            site: ctx
                .site
                .map(|site| (Arc::as_ptr(site.walk) as usize, site.step)),
        });
        SimDuration::from_micros(3 + log.len() as u64 % 5)
    }

    fn on_invocation_end(&mut self, _app: &Application) -> SimDuration {
        SimDuration::from_micros(11)
    }

    fn extra_mem_kb(&self) -> u64 {
        self.log.borrow().len() as u64 / 7
    }
}

/// A zygote holding every third module, with its own counters.
fn zygote(app: &Application, fork_us: u64) -> (Arc<ZygoteImage>, Arc<ZygoteCounters>) {
    let ranked: Vec<&str> = app.modules().iter().step_by(3).map(|m| m.name()).collect();
    let counters = Arc::new(ZygoteCounters::default());
    let image = ZygoteImage::for_app(
        app,
        &ranked,
        ranked.len(),
        SimDuration::from_micros(fork_us),
        Arc::clone(&counters),
    );
    (Arc::new(image), counters)
}

/// A process, what its observer saw (nothing if it has none), and its
/// zygote's counters.
struct Run {
    process: Process,
    log: Log,
    counters: Option<Arc<ZygoteCounters>>,
}

impl Run {
    /// An observed process on `plan` at `scale`, forked from a fresh
    /// zygote image when `fork_us` is set.
    fn new(
        app: &Arc<Application>,
        plan: &Arc<LoaderPlan>,
        scale: f64,
        fork_us: Option<u64>,
    ) -> Run {
        let mut run = Run::unobserved(app, plan, scale, fork_us);
        run.process.attach_observer(Box::new(Recorder {
            log: Rc::clone(&run.log),
        }));
        run
    }

    /// The same process without an observer.
    fn unobserved(
        app: &Arc<Application>,
        plan: &Arc<LoaderPlan>,
        scale: f64,
        fork_us: Option<u64>,
    ) -> Run {
        let mut process = Process::with_plan(Arc::clone(app), Arc::clone(plan), scale);
        let counters = fork_us.map(|us| {
            let (image, counters) = zygote(app, us);
            process.set_zygote(image);
            counters
        });
        Run {
            process,
            log: Rc::new(RefCell::new(Vec::new())),
            counters,
        }
    }

    /// The clock, load events, memory, peak memory and forked-load counts.
    fn state(&self) -> (SimTime, Vec<LoadEvent>, u64, u64, Option<(u64, u64)>) {
        let p = &self.process;
        (
            p.clock(),
            p.load_events(),
            p.mem_kb(),
            p.peak_mem_kb(),
            self.counters
                .as_ref()
                .map(|c| (c.forks(), c.forked_loads())),
        )
    }

    /// Every advance seen so far, without its site.
    fn advances(&self) -> Vec<(Vec<Frame>, SimTime, SimTime)> {
        let log = self.log.borrow();
        log.iter()
            .map(|a| (a.frames.clone(), a.from, a.to))
            .collect()
    }

    /// The sites of the advances seen so far.
    fn sites(&self) -> Vec<Option<(usize, usize)>> {
        self.log.borrow().iter().map(|a| a.site).collect()
    }

    /// The snapshot of the cold start just made.
    fn snapshot(&mut self) -> Snapshot {
        let observer = self.process.detach_observer();
        let snapshot = self.process.capture_snapshot();
        if let Some(observer) = observer {
            self.process.attach_observer(observer);
        }
        snapshot
    }
}

/// Which cases the apps exercised.
#[derive(Debug, Default)]
struct Coverage {
    replayed_steps: u64,
    zero_us_advances: u64,
    stripped_modules_skipped: u64,
    deferred_loads_after_replay: u64,
    unobserved_replayed_loads: u64,
    deferred_loads_after_unobserved_replay: u64,
}

/// A plan on which two unobserved fresh processes at scale 1.0 without a
/// zygote have cold-started `root`, the second recording its walk.
fn recorded_plan(app: &Arc<Application>, root: ModuleId) -> Arc<LoaderPlan> {
    let plan = Arc::new(LoaderPlan::build(app));
    for _ in 0..2 {
        Process::with_plan(Arc::clone(app), Arc::clone(&plan), 1.0)
            .cold_start(root)
            .expect("handler roots cold-start");
    }
    plan
}

/// Checks every handler root of `app` (see the module doc).
fn assert_replays_match(app: Application, what: &str, coverage: &mut Coverage) {
    let app = Arc::new(app);
    let mut roots: Vec<ModuleId> = (0..app.handlers().len())
        .map(|h| app.handler_module(HandlerId::from_index(h)))
        .filter(|&m| !app.module(m).stripped())
        .collect();
    roots.sort_by_key(|m| m.index());
    roots.dedup();
    assert!(!roots.is_empty(), "{what}: no loadable handler root");
    let handlers: Vec<HandlerId> = (0..app.handlers().len())
        .map(HandlerId::from_index)
        .filter(|&h| !app.module(app.handler_module(h)).stripped())
        .collect();

    for (r, &root) in roots.iter().enumerate() {
        let other = roots[(r + 1) % roots.len()];
        let plan = recorded_plan(&app, root);
        for scale in [1.0, 1.37, 0.61] {
            for fork_us in [None, Some(0), Some(101)] {
                let what = format!(
                    "{what}, root {}, scale {scale}, fork {fork_us:?}",
                    app.module(root).name()
                );
                // A fresh plan's first walk, its second (which records),
                // and a replay of the recorded plan.
                let fresh = Arc::new(LoaderPlan::build(&app));
                let mut runs = [
                    Run::new(&app, &fresh, scale, fork_us),
                    Run::new(&app, &fresh, scale, fork_us),
                    Run::new(&app, &plan, scale, fork_us),
                ];
                let latencies: Vec<_> = runs
                    .iter_mut()
                    .map(|run| run.process.cold_start(root))
                    .collect();
                let snapshots: Vec<Snapshot> = runs.iter_mut().map(Run::snapshot).collect();
                let [walked, recording, replayed] = &runs;
                for (i, run, name) in [(1, recording, "recording"), (2, replayed, "replay")] {
                    assert_eq!(latencies[i], latencies[0], "{what}: {name} latency");
                    assert_eq!(run.state(), walked.state(), "{what}: {name} state");
                    assert_eq!(run.advances(), walked.advances(), "{what}: {name} advances");
                    assert_eq!(snapshots[i], snapshots[0], "{what}: {name} snapshot");
                }
                assert!(
                    walked
                        .sites()
                        .iter()
                        .chain(&recording.sites())
                        .all(Option::is_none),
                    "{what}: a walk reported a site"
                );
                let sites = replayed.sites();
                let address = sites.first().copied().flatten().map(|(walk, _)| walk);
                assert!(address.is_some(), "{what}: the cold start did not replay");
                for (i, site) in sites.iter().enumerate() {
                    assert_eq!(*site, address.map(|w| (w, i)), "{what}: site {i}");
                }
                let replayed_steps = sites.len();
                coverage.replayed_steps += replayed_steps as u64;
                coverage.zero_us_advances += replayed
                    .log
                    .borrow()
                    .iter()
                    .filter(|a| a.from == a.to)
                    .count() as u64;
                coverage.stripped_modules_skipped += (0..app.modules().len())
                    .map(ModuleId::from_index)
                    .filter(|&m| app.module(m).stripped() && !walked.process.is_loaded(m))
                    .count() as u64;

                // Warm work after the cold start: deferred first-use loads
                // and a cold start of another root on a non-fresh process
                // take the recursion in every run.
                let loads = walked.process.load_events().len();
                for (k, &handler) in handlers.iter().enumerate() {
                    let outcomes: Vec<_> = runs
                        .iter_mut()
                        .map(|run| {
                            run.process
                                .invoke(handler, &mut SimRng::seed_from(k as u64))
                        })
                        .collect();
                    assert!(
                        outcomes.iter().all(|o| *o == outcomes[0]),
                        "{what}: invocation {k}"
                    );
                }
                let again: Vec<_> = runs
                    .iter_mut()
                    .map(|run| run.process.cold_start(other))
                    .collect();
                assert!(
                    again.iter().all(|l| *l == again[0]),
                    "{what}: second cold start"
                );
                let [walked, recording, replayed] = &runs;
                coverage.deferred_loads_after_replay +=
                    (walked.process.load_events().len() - loads) as u64;
                for run in [recording, replayed] {
                    assert_eq!(run.state(), walked.state(), "{what}: final state");
                    assert_eq!(run.advances(), walked.advances(), "{what}: all advances");
                }
                assert!(
                    replayed.sites()[replayed_steps..]
                        .iter()
                        .all(Option::is_none),
                    "{what}: an advance after the replay reported a site"
                );

                assert_unobserved_replay_matches(
                    &app,
                    &plan,
                    (root, other),
                    &handlers,
                    (scale, fork_us),
                    &what,
                    coverage,
                );
            }
        }
    }
}

/// Compares unobserved replays of `plan`'s recording of `root` with an
/// unobserved plain walk on a fresh plan (see the module doc), at `scale`
/// and forked from a zygote when `fork_us` is set.
fn assert_unobserved_replay_matches(
    app: &Arc<Application>,
    plan: &Arc<LoaderPlan>,
    (root, other): (ModuleId, ModuleId),
    handlers: &[HandlerId],
    (scale, fork_us): (f64, Option<u64>),
    what: &str,
    coverage: &mut Coverage,
) {
    let what = format!("{what}, unobserved");
    let fresh = Arc::new(LoaderPlan::build(app));
    let mut runs = [
        Run::unobserved(app, &fresh, scale, fork_us),
        Run::unobserved(app, plan, scale, fork_us),
        Run::unobserved(app, plan, scale, fork_us),
    ];
    let latencies: Vec<_> = runs
        .iter_mut()
        .map(|run| run.process.cold_start(root))
        .collect();
    let snapshots: Vec<Snapshot> = runs.iter_mut().map(Run::snapshot).collect();
    let [walked, replayed, again] = &runs;
    for (i, run) in [(1, replayed), (2, again)] {
        assert_eq!(latencies[i], latencies[0], "{what}: replay latency");
        assert_eq!(run.state(), walked.state(), "{what}: replay state");
        assert_eq!(snapshots[i], snapshots[0], "{what}: replay snapshot");
    }
    assert!(
        Arc::ptr_eq(&snapshots[1].loads, &snapshots[2].loads),
        "{what}: the captures of two replays do not share the walk's stream"
    );
    assert!(
        walked.log.borrow().is_empty() && replayed.log.borrow().is_empty(),
        "{what}: an unobserved process saw an advance"
    );
    let loads = walked.process.load_events().len();
    coverage.unobserved_replayed_loads += loads as u64;

    for (k, &handler) in handlers.iter().enumerate() {
        let outcomes: Vec<_> = runs
            .iter_mut()
            .map(|run| {
                run.process
                    .invoke(handler, &mut SimRng::seed_from(k as u64))
            })
            .collect();
        assert!(
            outcomes.iter().all(|o| *o == outcomes[0]),
            "{what}: invocation {k}"
        );
        for run in &runs[1..] {
            assert_eq!(run.state(), runs[0].state(), "{what}: after invocation {k}");
        }
    }
    let deferred = runs[0].process.load_events().len() - loads;
    coverage.deferred_loads_after_unobserved_replay += deferred as u64;
    let cold: Vec<_> = runs
        .iter_mut()
        .map(|run| run.process.cold_start(other))
        .collect();
    assert!(
        cold.iter().all(|l| *l == cold[0]),
        "{what}: second cold start"
    );
    for run in &runs[1..] {
        assert_eq!(run.state(), runs[0].state(), "{what}: final state");
    }
}

#[test]
fn catalog_cold_starts_replay_their_walks() {
    let mut coverage = Coverage::default();
    for entry in catalog() {
        let app = entry.build(2025).expect("catalog apps build").app;
        assert_replays_match(app, entry.code, &mut coverage);
    }
    assert!(coverage.replayed_steps > 100_000, "{coverage:?}");
    assert!(coverage.zero_us_advances > 1_000, "{coverage:?}");
    assert!(coverage.unobserved_replayed_loads > 100_000, "{coverage:?}");
}

#[test]
fn stripped_catalog_cold_starts_replay_their_walks() {
    let mut coverage = Coverage::default();
    for entry in catalog() {
        let app = entry.build(2025).expect("catalog apps build").app;
        let stripped = strip_unreachable(&app).app;
        assert_replays_match(stripped, entry.code, &mut coverage);
    }
    assert!(coverage.stripped_modules_skipped > 0, "{coverage:?}");
    assert!(coverage.zero_us_advances > 1_000, "{coverage:?}");
}

#[test]
fn random_app_cold_starts_replay_their_walks() {
    let mut coverage = Coverage::default();
    for seed in 0..80 {
        assert_replays_match(
            common::random_app(seed),
            &format!("random-{seed}"),
            &mut coverage,
        );
    }
    assert!(coverage.zero_us_advances > 100, "{coverage:?}");
    assert!(coverage.deferred_loads_after_replay > 100, "{coverage:?}");
    assert!(
        coverage.deferred_loads_after_unobserved_replay > 100,
        "{coverage:?}"
    );
}
