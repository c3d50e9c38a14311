//! Profile data: samples, the call paths they use, per-module init
//! observations, and the shared collector store.
//!
//! The paper's profiler buffers samples locally inside the function instance
//! and batch-transfers them asynchronously to external storage (DynamoDB /
//! S3), where a background service analyzes them (§IV-D). [`ProfileStore`]
//! plays the external collector: sampler attachments in every container push
//! their buffers into one shared store, and the analysis side reads it once
//! the profiling window closes.
//!
//! A sample names its call path by a [`PathId`] into a [`PathTable`], a trie
//! holding each distinct path once, so a sample is 8 bytes however deep its
//! stack and an analysis can visit each distinct path once.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use slimstart_appmodel::ModuleId;
use slimstart_pyrt::stack::{Frame, FrameKind};
use slimstart_simcore::hash::FxHashMap;
use slimstart_simcore::time::SimDuration;

/// A call path interned in a [`PathTable`]: the index of the trie node
/// that ends it. It means something only to the table that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PathId(pub(crate) u32);

impl PathId {
    /// The empty path, every table's root.
    pub const ROOT: PathId = PathId(0);

    /// The node's index in its table.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// The placeholder frame stored at a table's root.
const ROOT_FRAME: Frame = Frame {
    kind: FrameKind::ModuleInit(ModuleId::from_index(u32::MAX as usize)),
    line: 0,
};

/// A trie of call paths. Node 0 is the empty path; every other node is
/// its parent's path extended by one frame, and a [`PathId`] names the path
/// from the root down to its node. Each distinct path has exactly one
/// node, and nodes are never removed or renumbered, so an id stays valid
/// while the table grows.
#[derive(Debug, Clone)]
pub struct PathTable {
    /// Each node's parent and innermost frame.
    nodes: Vec<(u32, Frame)>,
    /// `(parent, frame) → child`.
    index: FxHashMap<(u32, Frame), u32>,
}

impl Default for PathTable {
    fn default() -> Self {
        PathTable::new()
    }
}

impl PathTable {
    /// Creates a table holding only the empty path.
    pub fn new() -> Self {
        PathTable {
            nodes: vec![(0, ROOT_FRAME)],
            index: FxHashMap::default(),
        }
    }

    /// Number of nodes, the root included.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// The path `parent` extended by `frame`, interned on first use.
    ///
    /// # Panics
    ///
    /// Panics if the table outgrows `u32` ids.
    #[inline]
    pub(crate) fn child(&mut self, parent: PathId, frame: Frame) -> PathId {
        let next = self.nodes.len();
        let child = *self
            .index
            .entry((parent.0, frame))
            .or_insert_with(|| u32::try_from(next).expect("path table node count fits in u32"));
        if child as usize == next {
            self.nodes.push((parent.0, frame));
        }
        PathId(child)
    }

    /// Interns `frames`, outermost first.
    pub fn intern(&mut self, frames: &[Frame]) -> PathId {
        frames
            .iter()
            .fold(PathId::ROOT, |parent, &frame| self.child(parent, frame))
    }

    /// The path one frame shorter than `id`'s, `None` for the empty path.
    pub(crate) fn parent(&self, id: PathId) -> Option<PathId> {
        (id != PathId::ROOT).then(|| PathId(self.nodes[id.index()].0))
    }

    /// The innermost frame of `id`'s path, `None` for the empty path.
    pub fn leaf(&self, id: PathId) -> Option<Frame> {
        (id != PathId::ROOT).then(|| self.nodes[id.index()].1)
    }

    /// Writes `id`'s frames into `buf`, outermost first, and returns them.
    pub fn resolve<'b>(&self, id: PathId, buf: &'b mut Vec<Frame>) -> &'b [Frame] {
        buf.clear();
        let mut node = id.0;
        while node != 0 {
            let (parent, frame) = self.nodes[node as usize];
            buf.push(frame);
            node = parent;
        }
        buf.reverse();
        buf
    }

    /// `id`'s frames, outermost first.
    pub fn frames(&self, id: PathId) -> Vec<Frame> {
        let mut frames = Vec::new();
        self.resolve(id, &mut frames);
        frames
    }
}

/// "Not mapped yet" in a [`NodeMap`].
const UNMAPPED: u32 = u32::MAX;

/// A memoized map from one table's nodes to the nodes of another tree (a
/// second table, or a CCT). A node is mapped after its parent, so the
/// target tree gains nodes in the order a walk from the root would create
/// them. The root maps to the target's root, node 0.
pub(crate) struct NodeMap {
    to: Vec<u32>,
    /// Nodes waiting for their parent's target, innermost first.
    pending: Vec<u32>,
}

impl NodeMap {
    /// An empty map over `from`'s nodes.
    pub(crate) fn new(from: &PathTable) -> Self {
        let mut to = vec![UNMAPPED; from.len()];
        to[0] = 0;
        NodeMap {
            to,
            pending: Vec::new(),
        }
    }

    /// The target of `id`. Unmapped ancestors and `id` itself are mapped
    /// outermost first, each by `create(target of its parent, its frame)`.
    #[inline]
    pub(crate) fn map(
        &mut self,
        from: &PathTable,
        id: PathId,
        mut create: impl FnMut(u32, Frame) -> u32,
    ) -> u32 {
        let mut node = id.0;
        while self.to[node as usize] == UNMAPPED {
            self.pending.push(node);
            node = from.nodes[node as usize].0;
        }
        let mut target = self.to[node as usize];
        while let Some(node) = self.pending.pop() {
            target = create(target, from.nodes[node as usize].1);
            self.to[node as usize] = target;
        }
        target
    }
}

/// One captured stack sample: 8 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleRecord {
    /// The call path, in the table of the store or batch that holds the
    /// sample.
    pub path: PathId,
    /// Whether the stack contained a module-init frame (the sample belongs
    /// to the initialization phase, not runtime — paper §IV-A2).
    pub is_init: bool,
}

/// A maximal run of consecutive samples of one path.
pub(crate) struct PathRun {
    /// The run's call path.
    pub(crate) path: PathId,
    /// Samples in the run.
    pub(crate) samples: u64,
    /// Of those, samples taken during module initialization.
    pub(crate) init_samples: u64,
}

/// Groups `samples` into [`PathRun`]s, so an analysis can visit each
/// repeated stack once and weigh it by the run's length.
pub(crate) fn path_runs<'a, I>(samples: I) -> impl Iterator<Item = PathRun>
where
    I: IntoIterator<Item = &'a SampleRecord>,
{
    let mut samples = samples.into_iter().peekable();
    std::iter::from_fn(move || {
        let first = samples.next()?;
        let mut run = PathRun {
            path: first.path,
            samples: 1,
            init_samples: u64::from(first.is_init),
        };
        while let Some(next) = samples.next_if(|s| s.path == first.path) {
            run.samples += 1;
            run.init_samples += u64::from(next.is_init);
        }
        Some(run)
    })
}

/// The collector: aggregated profiling data for one application deployment.
#[derive(Debug, Clone, Default)]
pub struct ProfileStore {
    /// All transferred samples.
    pub samples: Vec<SampleRecord>,
    /// The call paths the samples' ids refer to, shared by every sampler
    /// attachment that writes into the store. Attachments intern into it
    /// while they run and remember ids across captures, so it must only
    /// grow while they are attached; it may hold paths that no sample uses.
    pub paths: PathTable,
    /// Exact per-module initialization time observed, accumulated across
    /// all cold starts (microseconds).
    pub init_micros_by_module: FxHashMap<ModuleId, u64>,
    /// Number of completed invocations observed.
    pub invocations: u64,
    /// Number of batches transferred (each paid the flush cost).
    pub batches_transferred: u64,
}

/// Locks a profile mutex, recovering the guard if a holder panicked. Every
/// update of the profile store and of the collector's counters (appends,
/// counter bumps, truncation) leaves them readable at each step, so a
/// holder's panic costs at most part of a profile.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ProfileStore {
    /// Creates an empty store behind the shared handle sampler attachments
    /// need.
    pub fn shared() -> Arc<Mutex<ProfileStore>> {
        Arc::new(Mutex::new(ProfileStore::default()))
    }

    /// Total observed init time for `module` across all cold starts.
    pub fn init_time(&self, module: ModuleId) -> SimDuration {
        SimDuration::from_micros(
            self.init_micros_by_module
                .get(&module)
                .copied()
                .unwrap_or(0),
        )
    }

    /// Number of samples classified as runtime (non-init).
    pub fn runtime_sample_count(&self) -> u64 {
        self.samples.iter().filter(|s| !s.is_init).count() as u64
    }

    /// Number of samples classified as initialization.
    pub fn init_sample_count(&self) -> u64 {
        self.samples.iter().filter(|s| s.is_init).count() as u64
    }

    /// Merges data collected elsewhere into the store: samples whose ids
    /// refer to `paths`, per-module init microseconds and a batch count.
    /// Each node of `paths` that a sample reaches is interned here once.
    pub fn absorb(
        &mut self,
        paths: &PathTable,
        samples: &[SampleRecord],
        init_micros: impl IntoIterator<Item = (ModuleId, u64)>,
        batches: u64,
    ) {
        let mut map = NodeMap::new(paths);
        let table = &mut self.paths;
        self.samples.extend(samples.iter().map(|s| SampleRecord {
            path: PathId(map.map(paths, s.path, |parent, frame| {
                table.child(PathId(parent), frame).0
            })),
            is_init: s.is_init,
        }));
        self.add_totals(init_micros, batches);
    }

    /// Moves `samples`, whose ids already refer to this store's table, into
    /// the store, with the init microseconds and batch count that came
    /// with them.
    pub(crate) fn append(
        &mut self,
        samples: &mut Vec<SampleRecord>,
        init_micros: impl IntoIterator<Item = (ModuleId, u64)>,
        batches: u64,
    ) {
        self.samples.append(samples);
        self.add_totals(init_micros, batches);
    }

    fn add_totals(&mut self, init_micros: impl IntoIterator<Item = (ModuleId, u64)>, batches: u64) {
        for (module, micros) in init_micros {
            *self.init_micros_by_module.entry(module).or_insert(0) += micros;
        }
        self.batches_transferred += batches;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimstart_appmodel::FunctionId;

    fn frame(i: usize) -> Frame {
        Frame {
            kind: FrameKind::Call(FunctionId::from_index(i)),
            line: 1,
        }
    }

    #[test]
    fn sample_record_is_eight_bytes() {
        assert_eq!(std::mem::size_of::<SampleRecord>(), 8);
    }

    #[test]
    fn table_interns_each_path_once() {
        let mut paths = PathTable::new();
        assert_eq!(paths.len(), 1);
        assert_eq!(paths.intern(&[]), PathId::ROOT);
        let ab = paths.intern(&[frame(0), frame(1)]);
        assert_eq!(paths.len(), 3);
        assert_eq!(paths.intern(&[frame(0), frame(1)]), ab);
        // A sibling adds one node; the shared prefix is reused.
        let ac = paths.intern(&[frame(0), frame(2)]);
        assert_eq!(paths.len(), 4);
        assert_ne!(ab, ac);
        assert_eq!(paths.parent(ab), paths.parent(ac));
        assert_eq!(paths.frames(ac), vec![frame(0), frame(2)]);
        assert_eq!(paths.leaf(ab), Some(frame(1)));
        assert_eq!(paths.leaf(PathId::ROOT), None);
        assert_eq!(paths.parent(PathId::ROOT), None);
        assert!(paths.frames(PathId::ROOT).is_empty());
        // The same frames under another parent are another path.
        let b = paths.intern(&[frame(1)]);
        assert_ne!(b, ab);
        assert_eq!(paths.parent(b), Some(PathId::ROOT));
    }

    #[test]
    fn path_runs_group_consecutive_equal_ids() {
        let mut paths = PathTable::new();
        let a = paths.intern(&[frame(0)]);
        let b = paths.intern(&[frame(1)]);
        let record = |path, is_init| SampleRecord { path, is_init };
        let samples = vec![
            record(a, false),
            record(a, true),
            record(a, false),
            record(b, false),
            record(a, false),
            record(a, true),
        ];
        let runs: Vec<(PathId, u64, u64)> = path_runs(&samples)
            .map(|r| (r.path, r.samples, r.init_samples))
            .collect();
        assert_eq!(runs, vec![(a, 3, 1), (b, 1, 0), (a, 2, 1)]);
        assert_eq!(path_runs(&[]).count(), 0);
    }

    #[test]
    fn absorb_accumulates() {
        let mut store = ProfileStore::default();
        let mut init = FxHashMap::default();
        init.insert(ModuleId::from_index(0), 500u64);
        let mut paths = PathTable::new();
        let samples = [
            SampleRecord {
                path: paths.intern(&[frame(0)]),
                is_init: true,
            },
            SampleRecord {
                path: paths.intern(&[frame(1)]),
                is_init: false,
            },
        ];
        store.absorb(&paths, &samples[..1], init.clone(), 1);
        store.absorb(&paths, &samples[1..], init, 2);
        assert_eq!(store.samples.len(), 2);
        assert_eq!(
            store.init_time(ModuleId::from_index(0)),
            SimDuration::from_micros(1_000)
        );
        assert_eq!(store.init_time(ModuleId::from_index(9)), SimDuration::ZERO);
        assert_eq!(store.batches_transferred, 3);
        assert_eq!(store.runtime_sample_count(), 1);
        assert_eq!(store.init_sample_count(), 1);
    }

    #[test]
    fn absorb_maps_each_foreign_node_once_and_keeps_frames() {
        // The store already holds a path the foreign table also has, under
        // a different id.
        let mut store = ProfileStore::default();
        let shared = [frame(5), frame(6)];
        let mut local = vec![SampleRecord {
            path: store.paths.intern(&shared),
            is_init: false,
        }];
        store.append(&mut local, [], 0);
        assert!(local.is_empty());

        let mut foreign = PathTable::new();
        let unused = foreign.intern(&[frame(9), frame(9), frame(9)]);
        let deep = [frame(1), frame(2), frame(3)];
        let ids = [
            foreign.intern(&deep),
            foreign.intern(&shared),
            foreign.intern(&deep[..2]),
            foreign.intern(&deep),
        ];
        let samples: Vec<SampleRecord> = ids
            .iter()
            .enumerate()
            .map(|(i, &path)| SampleRecord {
                path,
                is_init: i % 2 == 1,
            })
            .collect();
        let before = store.paths.len();
        store.absorb(&foreign, &samples, [], 1);
        // `deep` adds three nodes; `shared` and the prefix of `deep` add
        // none, and the unused path is not copied.
        assert_eq!(store.paths.len(), before + 3);
        assert_ne!(unused, PathId::ROOT);
        let resolved: Vec<(Vec<Frame>, bool)> = store.samples[1..]
            .iter()
            .map(|s| (store.paths.frames(s.path), s.is_init))
            .collect();
        let expected: Vec<(Vec<Frame>, bool)> = samples
            .iter()
            .map(|s| (foreign.frames(s.path), s.is_init))
            .collect();
        assert_eq!(resolved, expected);
        assert_eq!(store.samples[2].path, store.samples[0].path);
        assert_eq!(store.samples[1].path, store.samples[4].path);
    }

    #[test]
    fn node_map_creates_parents_first_once() {
        let mut paths = PathTable::new();
        let deep = paths.intern(&[frame(0), frame(1), frame(2)]);
        let mid = paths.parent(deep).expect("deep has a parent");
        let mut created = Vec::new();
        let mut map = NodeMap::new(&paths);
        let mut create = |parent: u32, frame: Frame| {
            created.push((parent, frame));
            created.len() as u32
        };
        assert_eq!(map.map(&paths, deep, &mut create), 3);
        assert_eq!(map.map(&paths, mid, &mut create), 2);
        assert_eq!(map.map(&paths, PathId::ROOT, &mut create), 0);
        assert_eq!(created, vec![(0, frame(0)), (1, frame(1)), (2, frame(2))]);
    }

    #[test]
    fn shared_handle_is_usable_across_clones() {
        let store = ProfileStore::shared();
        let clone = Arc::clone(&store);
        lock(&clone).invocations += 1;
        assert_eq!(lock(&store).invocations, 1);
    }
}
