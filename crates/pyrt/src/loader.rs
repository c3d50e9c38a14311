//! Precomputed, shareable loader metadata for one application.
//!
//! Every [`Process`](crate::process::Process) used to rebuild a
//! `HashMap<String, ModuleId>` name index on construction and re-derive
//! dotted-prefix ancestry (allocating a `String` and probing the map per
//! prefix) on every load. A [`LoaderPlan`] computes each module's ancestor
//! chain once per application and is shared between processes behind an
//! `Arc`, so container cold starts pay zero name-resolution work.
//!
//! The loader walks each module's global imports itself, in declaration
//! order, because load order is observable (load events, stack shapes
//! under the sampler); a walk therefore costs O(the modules it loads and
//! the imports they declare). Building a plan finds each module's parent,
//! its longest dotted prefix that names a module, in the application's
//! name index ([`Application::module_name_index`]): one lookup per module
//! whose parent package exists, one more per missing package above it.
//! A module's chain is its parent's chain plus itself, and all chains sit
//! in one flat array.
//!
//! A fresh cold start of a root is the same walk in every process that
//! shares the plan: the same loads in the same order under the same
//! stacks, whatever the process's time scale, zygote or observer; only the
//! clock differs. So the plan also keeps a root's second fresh walk as a
//! [`RecordedWalk`], written by that walk itself, and later fresh cold
//! starts replay it instead of walking the imports again. The first walk
//! records nothing: on a platform with a snapshot store it is often the
//! only one. Nothing is built per module for it: a recording costs O(the
//! walk that writes it).
//!
//! A recording is a [`Snapshot`] of the walk (its load stream, loaded bits
//! and nominal init) next to the stack at each load, stored as deltas. An
//! unobserved replay is a full restore of that snapshot through the
//! restore kernel, which touches no stack and writes no per-load record;
//! an observed one replays step by step, so its observer sees every
//! advance under the walk's own stack.

use std::sync::{Arc, Mutex, PoisonError};

use slimstart_appmodel::{Application, ModuleId};

use crate::snapshot::{SnapLoad, Snapshot};
use crate::stack::{Frame, FrameKind};

/// Shared per-application loader metadata. Build once (it is deterministic
/// in the application, including its `stripped` flags) and share across all
/// processes via `Arc`.
#[derive(Debug)]
pub struct LoaderPlan {
    /// Every module's chain, in module-id order: the ids of its existing
    /// dotted-prefix ancestors in shortest-first order, ending with the
    /// module itself — exactly the sequence the CPython-style loader
    /// visits for `import a.b.c`.
    chains: Box<[ModuleId]>,
    /// Where each module's chain ends in `chains`; it starts where the
    /// previous module's ends.
    ends: Box<[u32]>,
    /// Each root a fresh process has walked, in the order of their first
    /// walks, with its recording once its second walk has written one. A
    /// deployment cold-starts a few roots (its handlers' modules), so a
    /// scan finds one.
    walks: Mutex<Vec<(ModuleId, Option<Arc<RecordedWalk>>)>>,
}

impl LoaderPlan {
    /// Computes ancestor chains for every module of `app`.
    pub fn build(app: &Application) -> LoaderPlan {
        let by_name = app.module_name_index();
        let modules = app.modules();
        let parents: Vec<Option<ModuleId>> = modules
            .iter()
            .map(|module| {
                let name = module.name();
                name.rmatch_indices('.')
                    .find_map(|(end, _)| by_name.get(&name[..end]).copied())
            })
            .collect();
        // Climbing the parents writes a chain back to front, so a parent
        // may come after its children in module-id order.
        let mut chains = Vec::with_capacity(modules.len());
        let mut ends = Vec::with_capacity(modules.len());
        for index in 0..modules.len() {
            let start = chains.len();
            let mut next = Some(ModuleId::from_index(index));
            while let Some(module) = next {
                chains.push(module);
                next = parents[module.index()];
            }
            chains[start..].reverse();
            ends.push(u32::try_from(chains.len()).expect("loader chains fit in u32"));
        }
        LoaderPlan {
            chains: chains.into_boxed_slice(),
            ends: ends.into_boxed_slice(),
            walks: Mutex::new(Vec::new()),
        }
    }

    /// The existing dotted-prefix ancestors of `module`, shortest first,
    /// ending with `module` itself.
    #[inline]
    pub fn ancestors(&self, module: ModuleId) -> &[ModuleId] {
        let index = module.index();
        let start = match index {
            0 => 0,
            _ => self.ends[index - 1] as usize,
        };
        &self.chains[start..self.ends[index] as usize]
    }

    /// The working set of `touched` within `loaded` (bitsets over module
    /// ids): the touched modules that are loaded, plus every loaded
    /// ancestor of each. Chains are full dotted-prefix lists, so one pass
    /// over the intersection is already transitively closed.
    pub(crate) fn working_set(&self, touched: &[u64], loaded: &[u64]) -> Vec<u64> {
        debug_assert_eq!(touched.len(), loaded.len());
        let mut working: Vec<u64> = touched.iter().zip(loaded).map(|(t, l)| t & l).collect();
        for word in 0..working.len() {
            let mut bits = working[word];
            while bits != 0 {
                let index = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                for &a in self.ancestors(ModuleId::from_index(index)) {
                    let (w, b) = (a.index() / 64, 1u64 << (a.index() % 64));
                    if loaded[w] & b != 0 {
                        working[w] |= b;
                    }
                }
            }
        }
        working
    }

    /// How a fresh process cold-starts `root` on this plan: it replays
    /// the root's recording, records one (the root's second fresh walk),
    /// or walks without recording (its first).
    pub(crate) fn fresh_walk(&self, root: ModuleId) -> FreshWalk {
        // Every update leaves the list whole, so a poisoned lock is usable.
        let mut walks = self.walks.lock().unwrap_or_else(PoisonError::into_inner);
        match walks.iter().find(|(walked, _)| *walked == root) {
            Some((_, Some(walk))) => FreshWalk::Replay(Arc::clone(walk)),
            Some((_, None)) => FreshWalk::Record,
            None => {
                walks.push((root, None));
                FreshWalk::Walk
            }
        }
    }

    /// Keeps `walk` as `root`'s recording, unless a process sharing the
    /// plan on another thread kept one first (recordings of one root are
    /// equal).
    pub(crate) fn keep_walk(&self, root: ModuleId, walk: RecordedWalk) {
        let mut walks = self.walks.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, kept @ None)) = walks.iter_mut().find(|(walked, _)| *walked == root) {
            *kept = Some(Arc::new(walk));
        }
    }
}

/// How a fresh cold start of a root goes on a plan
/// ([`LoaderPlan::fresh_walk`]).
pub(crate) enum FreshWalk {
    /// Replay the root's recording.
    Replay(Arc<RecordedWalk>),
    /// Walk the imports and record the walk.
    Record,
    /// Walk the imports.
    Walk,
}

/// One root's fresh cold start as the loader walked it: a [`Snapshot`] of
/// the walk (the modules whose top level ran, in load order, with their
/// nominal charges), and the call stack at each one's advance, stored as
/// a delta from the step before.
#[derive(Debug)]
pub struct RecordedWalk {
    snapshot: Snapshot,
    /// One step per load of the snapshot's stream, in the same order.
    steps: Box<[WalkStep]>,
    /// The frames the steps push below their own, step after step.
    frames: Box<[Frame]>,
}

/// The stack of one load of a recorded walk. It is the previous step's
/// stack with that step's own frame popped, cut to `keep` frames, with
/// the walk's frames from the previous step's `end` up to this one's
/// pushed on top, and the module's own frame, at line 1, on top of those.
#[derive(Debug, Clone, Copy)]
struct WalkStep {
    keep: u32,
    end: u32,
}

impl RecordedWalk {
    /// The walk as a snapshot: its load stream, loaded bits and nominal
    /// init, with no working set.
    pub(crate) fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }

    /// Number of steps: the modules the walk loads.
    pub(crate) fn len(&self) -> usize {
        self.steps.len()
    }

    /// Each step's module, how many frames of the previous step's stack
    /// (its own frame popped) it keeps, and the frames it pushes below
    /// the module's own.
    pub(crate) fn steps(&self) -> impl Iterator<Item = (ModuleId, usize, &[Frame])> {
        let mut start = 0;
        self.snapshot
            .loads
            .iter()
            .zip(self.steps.iter())
            .map(move |(load, step)| {
                let pushed = &self.frames[start..step.end as usize];
                start = step.end as usize;
                (load.module, step.keep as usize, pushed)
            })
    }
}

/// Writes a [`RecordedWalk`] while the loader walks: one
/// [`WalkRecorder::step`] per load, with the stack as it stands at the
/// load's advance.
#[derive(Debug)]
pub(crate) struct WalkRecorder {
    loads: Vec<SnapLoad>,
    loaded: Vec<u64>,
    steps: Vec<WalkStep>,
    frames: Vec<Frame>,
    /// The last step's stack without its own frame: where the next step
    /// starts from.
    below: Vec<Frame>,
}

impl WalkRecorder {
    /// A recorder for a walk of an application with `modules` modules.
    /// The walk loads each at most once, so its steps never outgrow the
    /// buffers.
    pub(crate) fn new(modules: usize) -> WalkRecorder {
        WalkRecorder {
            loads: Vec::with_capacity(modules),
            loaded: vec![0; modules.div_ceil(64)],
            steps: Vec::with_capacity(modules),
            // A step pushes about one frame below its own (its importer's,
            // at the next import's line).
            frames: Vec::with_capacity(modules),
            below: Vec::new(),
        }
    }

    /// Records `load` under `stack`, whose innermost frame is the loading
    /// module's own, at line 1.
    pub(crate) fn step(&mut self, load: SnapLoad, stack: &[Frame]) {
        let module = load.module;
        let (own, stack) = stack.split_last().expect("a loading module has a frame");
        debug_assert_eq!(
            *own,
            Frame {
                kind: FrameKind::ModuleInit(module),
                line: 1,
            }
        );
        // Between two steps the loader pops the last step's frame, moves
        // the line of the frame under it (its importer's) and pushes above
        // that, so only the importer's frame can differ below the top.
        let top = self.below.len().saturating_sub(1);
        debug_assert_eq!(self.below[..top], stack[..top], "a lower frame moved");
        let keep = match (self.below.get(top), stack.get(top)) {
            (Some(last), Some(now)) if last == now => top + 1,
            _ => top,
        };
        self.frames.extend_from_slice(&stack[keep..]);
        self.loads.push(load);
        self.loaded[module.index() / 64] |= 1u64 << (module.index() % 64);
        self.steps.push(WalkStep {
            keep: keep as u32,
            end: u32::try_from(self.frames.len()).expect("walk frames fit in u32"),
        });
        self.below.truncate(keep);
        self.below.extend_from_slice(&stack[keep..]);
    }

    /// The finished recording.
    pub(crate) fn finish(self) -> RecordedWalk {
        RecordedWalk {
            snapshot: Snapshot {
                nominal_init: self.loads.iter().map(|l| l.init_cost).sum(),
                mem_kb: self.loads.iter().map(|l| l.mem_kb).sum(),
                loads: self.loads.into(),
                loaded: self.loaded.into_boxed_slice(),
                working: None,
            },
            steps: self.steps.into_boxed_slice(),
            frames: self.frames.into_boxed_slice(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimstart_appmodel::app::AppBuilder;
    use slimstart_appmodel::imports::ImportMode;
    use slimstart_simcore::time::SimDuration;
    use std::sync::Arc;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    /// handler -> lib (-> lib.hot global, lib.cold deferred -> lib.cold.leaf global)
    fn app() -> Arc<Application> {
        let mut b = AppBuilder::new("t");
        let lib = b.add_library("lib");
        let h = b.add_app_module("handler", ms(1), 1);
        let root = b.add_library_module("lib", ms(1), 1, false, lib);
        let hot = b.add_library_module("lib.hot", ms(1), 1, false, lib);
        let cold = b.add_library_module("lib.cold", ms(1), 1, false, lib);
        let leaf = b.add_library_module("lib.cold.leaf", ms(1), 1, false, lib);
        b.add_import(h, root, 2, ImportMode::Global).unwrap();
        b.add_import(root, hot, 2, ImportMode::Global).unwrap();
        b.add_import(root, cold, 3, ImportMode::Deferred).unwrap();
        b.add_import(cold, leaf, 2, ImportMode::Global).unwrap();
        let f = b.add_function("main", h, 4, vec![]);
        b.add_handler("main", f);
        Arc::new(b.finish().unwrap())
    }

    #[test]
    fn ancestors_follow_dotted_prefixes() {
        let app = app();
        let plan = LoaderPlan::build(&app);
        let leaf = app.module_by_name("lib.cold.leaf").unwrap();
        let names: Vec<&str> = plan
            .ancestors(leaf)
            .iter()
            .map(|m| app.module(*m).name())
            .collect();
        assert_eq!(names, vec!["lib", "lib.cold", "lib.cold.leaf"]);
        let h = app.module_by_name("handler").unwrap();
        let names: Vec<&str> = plan
            .ancestors(h)
            .iter()
            .map(|m| app.module(*m).name())
            .collect();
        assert_eq!(names, vec!["handler"]);
    }

    #[test]
    fn ancestors_skip_missing_packages() {
        // `a.b` and `a.` name no module: `a.b.c` climbs past the first to
        // `a`, and `a..b` past the second. Children come before their
        // parents in module-id order.
        let mut b = AppBuilder::new("gaps");
        let lib = b.add_library("a");
        for name in ["a.b.c", "a..b", "a.b.c.d", "a"] {
            b.add_library_module(name, ms(1), 1, false, lib);
        }
        let f = b.add_function("main", ModuleId::from_index(3), 1, vec![]);
        b.add_handler("main", f);
        let app = b.finish().unwrap();
        let plan = LoaderPlan::build(&app);
        let chain = |name: &str| -> Vec<&str> {
            plan.ancestors(app.module_by_name(name).unwrap())
                .iter()
                .map(|m| app.module(*m).name())
                .collect()
        };
        assert_eq!(chain("a.b.c"), ["a", "a.b.c"]);
        assert_eq!(chain("a..b"), ["a", "a..b"]);
        assert_eq!(chain("a.b.c.d"), ["a", "a.b.c", "a.b.c.d"]);
        assert_eq!(chain("a"), ["a"]);
    }

    #[test]
    fn a_recording_rebuilds_every_step_stack() {
        let init = |i: usize, line: u32| Frame {
            kind: FrameKind::ModuleInit(ModuleId::from_index(i)),
            line,
        };
        // Each stack's innermost frame is the step's own; the lower
        // frames change their lines and depth from step to step.
        let stacks = [
            vec![init(0, 2), init(1, 1)],
            vec![init(0, 3), init(2, 4), init(3, 1)],
            vec![init(0, 3), init(2, 1)],
            vec![init(0, 1)],
            vec![init(4, 1)],
        ];
        let module = |stack: &[Frame]| match stack.last().map(|f| f.kind) {
            Some(FrameKind::ModuleInit(m)) => m,
            _ => unreachable!("every step's innermost frame is a module init"),
        };
        let mut recorder = WalkRecorder::new(5);
        for stack in &stacks {
            let load = SnapLoad {
                module: module(stack),
                init_cost: SimDuration::ZERO,
                mem_kb: 0,
            };
            recorder.step(load, stack);
        }
        let walk = recorder.finish();
        assert_eq!(walk.len(), stacks.len());
        let mut stack: Vec<Frame> = Vec::new();
        for ((step_module, keep, pushed), expected) in walk.steps().zip(&stacks) {
            stack.pop();
            assert!(keep <= stack.len());
            stack.truncate(keep);
            stack.extend_from_slice(pushed);
            stack.push(init(step_module.index(), 1));
            assert_eq!(&stack, expected);
        }
        // Steps keep what is unchanged: the second keeps nothing (its
        // outer frame moved to line 3), the third keeps one frame.
        let keeps: Vec<usize> = walk.steps().map(|(_, keep, _)| keep).collect();
        assert_eq!(keeps, vec![0, 0, 1, 0, 0]);
    }

    #[test]
    fn a_root_records_its_second_fresh_walk_and_replays_later_ones() {
        let app = app();
        let plan = LoaderPlan::build(&app);
        let (h, lib) = (ModuleId::from_index(0), ModuleId::from_index(1));
        assert!(matches!(plan.fresh_walk(h), FreshWalk::Walk));
        assert!(matches!(plan.fresh_walk(lib), FreshWalk::Walk));
        assert!(matches!(plan.fresh_walk(h), FreshWalk::Record));
        plan.keep_walk(h, WalkRecorder::new(0).finish());
        let FreshWalk::Replay(first) = plan.fresh_walk(h) else {
            panic!("a recorded root replays");
        };
        // A second recording of the same root is dropped.
        plan.keep_walk(h, WalkRecorder::new(0).finish());
        let FreshWalk::Replay(again) = plan.fresh_walk(h) else {
            panic!("a recorded root replays");
        };
        assert!(Arc::ptr_eq(&first, &again));
        assert!(matches!(plan.fresh_walk(lib), FreshWalk::Record));
    }
}
