//! The Calling Context Tree (paper §IV-A2, TC-2).
//!
//! Each node is a call site — a frame kind plus the source line it occupies
//! in its caller — so the same function invoked from different places (the
//! Lib-6 multi-path problem) occupies *different* nodes and its usage is
//! never conflated across paths. Sample counts recorded at leaves are
//! **escalated** bottom-up ([`Cct::inclusive`]), which re-attributes callee
//! activity to callers along the chain and solves the cascading-dependency
//! problem: an orchestrator with 1 % self samples still shows the full
//! weight of the work it coordinates (the Lib-1 problem).
//!
//! # Layout
//!
//! Nodes live in one arena `Vec` with intrusive `first_child`/`last_child`/
//! `next_sibling` links (u32 indices, `u32::MAX` = none) instead of a
//! per-node `Vec<usize>` of children, and the `(parent, key) → child`
//! lookup uses a seedless FxHash map, so inserting a hot path is a few
//! fixed-width probes with no per-node heap allocations. A faithful
//! pre-arena implementation lives in the `cct_equivalence` differential
//! suite, which checks this tree against it.

use slimstart_pyrt::stack::{Frame, FrameKind};
use slimstart_simcore::hash::FxHashMap;

use crate::profile::{path_runs, NodeMap, PathId, PathTable, SampleRecord};

/// Intrusive-link sentinel: "no node".
const NONE: u32 = u32::MAX;

/// Node identity under one parent: the frame and its current line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CctKey {
    /// The executing frame (function or module init).
    pub kind: FrameKind,
    /// The line at which the *caller* sits (for interior nodes) or the
    /// sampled line (for leaves).
    pub line: u32,
}

/// One calling-context node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CctNode {
    /// Identity.
    pub key: CctKey,
    /// Parent node index (`None` for the synthetic root).
    pub parent: Option<usize>,
    /// Intrusive links (u32::MAX = none); traverse via [`Cct::children`].
    first_child: u32,
    last_child: u32,
    next_sibling: u32,
    /// Samples whose innermost frame landed here.
    pub self_samples: u64,
    /// Of those, samples taken during module initialization.
    pub self_init_samples: u64,
}

impl CctNode {
    fn new(key: CctKey, parent: Option<usize>) -> CctNode {
        CctNode {
            key,
            parent,
            first_child: NONE,
            last_child: NONE,
            next_sibling: NONE,
            self_samples: 0,
            self_init_samples: 0,
        }
    }
}

/// The identity of the node a frame occupies.
fn key(frame: Frame) -> CctKey {
    CctKey {
        kind: frame.kind,
        line: frame.line,
    }
}

fn root_key() -> CctKey {
    CctKey {
        kind: FrameKind::ModuleInit(slimstart_appmodel::ModuleId::from_index(u32::MAX as usize)),
        line: 0,
    }
}

/// A calling context tree built from stack samples.
///
/// # Example
///
/// Escalation re-attributes callee samples to their callers, so a thin
/// orchestrator frame is credited with the work it coordinates:
///
/// ```
/// use slimstart_core::cct::Cct;
/// use slimstart_pyrt::stack::{Frame, FrameKind};
/// use slimstart_appmodel::FunctionId;
///
/// let call = |i: usize| Frame { kind: FrameKind::Call(FunctionId::from_index(i)), line: 1 };
/// let mut cct = Cct::new();
/// cct.insert(&[call(0)], false);              // 1 sample in the orchestrator itself
/// for _ in 0..9 {
///     cct.insert(&[call(0), call(1)], false); // 9 samples in its callee
/// }
/// let inclusive = cct.inclusive();
/// assert_eq!(cct.node(1).self_samples, 1);    // flat view: orchestrator looks idle
/// assert_eq!(inclusive[1], 10);               // escalated view: fully busy
/// ```
#[derive(Debug, Clone, Default)]
pub struct Cct {
    nodes: Vec<CctNode>,
    index: FxHashMap<(u32, CctKey), u32>,
}

impl Cct {
    /// Creates an empty tree with just the synthetic root.
    pub fn new() -> Self {
        Cct {
            nodes: vec![CctNode::new(root_key(), None)],
            index: FxHashMap::default(),
        }
    }

    /// Builds a tree from samples whose ids refer to `paths`. The tree
    /// equals one [`Cct::insert`] per sample, node order included.
    pub fn from_samples<'a, I>(paths: &PathTable, samples: I) -> Cct
    where
        I: IntoIterator<Item = &'a SampleRecord>,
    {
        let mut cct = Cct::new();
        cct.add_samples(paths, samples);
        cct
    }

    /// Adds samples whose ids refer to `paths`, as one [`Cct::insert`] per
    /// sample would. Each table node a run reaches is mapped to a tree node
    /// once, parents first, so nodes are created in the order the per-sample
    /// inserts would create them; each run then adds its counts to its
    /// leaf.
    pub(crate) fn add_samples<'a, I>(&mut self, paths: &PathTable, samples: I)
    where
        I: IntoIterator<Item = &'a SampleRecord>,
    {
        let mut map = NodeMap::new(paths);
        for run in path_runs(samples) {
            // An empty path records nothing, as in `insert`.
            if run.path == PathId::ROOT {
                continue;
            }
            let leaf = map.map(paths, run.path, |parent, frame| {
                self.child(parent, key(frame))
            });
            let leaf = &mut self.nodes[leaf as usize];
            leaf.self_samples += run.samples;
            leaf.self_init_samples += run.init_samples;
        }
    }

    /// Inserts one sampled call path, bumping the leaf's self count.
    pub fn insert(&mut self, path: &[Frame], is_init: bool) {
        self.insert_weighted(path, 1, u64::from(is_init));
    }

    /// Inserts a path carrying `samples` observations at once, of which
    /// `init_samples` were taken during module initialization. Equivalent
    /// to `samples` repeated [`Cct::insert`] calls but walks the path once
    /// — the workhorse behind O(paths) merging.
    pub fn insert_weighted(&mut self, path: &[Frame], samples: u64, init_samples: u64) {
        debug_assert!(init_samples <= samples);
        if path.is_empty() {
            return;
        }
        let node = path
            .iter()
            .fold(0u32, |node, &frame| self.child(node, key(frame)));
        let leaf = &mut self.nodes[node as usize];
        leaf.self_samples += samples;
        leaf.self_init_samples += init_samples;
    }

    /// The child of `parent` with identity `key`, created if missing.
    #[inline]
    fn child(&mut self, parent: u32, key: CctKey) -> u32 {
        match self.index.get(&(parent, key)) {
            Some(&child) => child,
            None => self.add_child(parent, key),
        }
    }

    /// Appends a fresh child of `parent` with identity `key`, maintaining
    /// the intrusive sibling chain and the child index.
    fn add_child(&mut self, parent: u32, key: CctKey) -> u32 {
        let child = u32::try_from(self.nodes.len()).expect("CCT node count fits in u32");
        self.nodes.push(CctNode::new(key, Some(parent as usize)));
        let p = &mut self.nodes[parent as usize];
        let prev_last = p.last_child;
        p.last_child = child;
        if prev_last == NONE {
            p.first_child = child;
        } else {
            self.nodes[prev_last as usize].next_sibling = child;
        }
        self.index.insert((parent, key), child);
        child
    }

    /// Number of nodes including the root.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree holds no samples.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Node accessor.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn node(&self, i: usize) -> &CctNode {
        &self.nodes[i]
    }

    /// All nodes (index 0 is the synthetic root).
    pub fn nodes(&self) -> &[CctNode] {
        &self.nodes
    }

    /// The children of node `i` in insertion order, via the intrusive
    /// sibling chain.
    pub fn children(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        let first = self.nodes[i].first_child;
        std::iter::successors((first != NONE).then_some(first as usize), move |&n| {
            let next = self.nodes[n].next_sibling;
            (next != NONE).then_some(next as usize)
        })
    }

    /// Total samples recorded.
    pub fn total_samples(&self) -> u64 {
        self.nodes.iter().map(|n| n.self_samples).sum()
    }

    /// **Escalation** (TC-2 solution 1): inclusive sample counts, where each
    /// node receives its own samples plus everything from its subtree.
    /// Index-aligned with [`Cct::nodes`].
    pub fn inclusive(&self) -> Vec<u64> {
        let mut inclusive: Vec<u64> = self.nodes.iter().map(|n| n.self_samples).collect();
        // Children always have larger indices than parents (creation order),
        // so one reverse pass propagates bottom-up.
        for i in (1..self.nodes.len()).rev() {
            let parent = self.nodes[i].parent.expect("non-root has parent");
            inclusive[parent] += inclusive[i];
        }
        inclusive
    }

    /// The path from the root to node `i` (exclusive of the synthetic
    /// root), outermost first.
    pub fn path_to(&self, i: usize) -> Vec<&CctNode> {
        let mut path = Vec::new();
        let mut cur = Some(i);
        while let Some(n) = cur {
            if n == 0 {
                break;
            }
            path.push(&self.nodes[n]);
            cur = self.nodes[n].parent;
        }
        path.reverse();
        path
    }

    /// Merges another tree into this one (used when combining profiling
    /// windows). Walks each of `other`'s populated paths exactly once —
    /// O(paths · depth), independent of how many samples each carries.
    pub fn merge(&mut self, other: &Cct) {
        let mut frames: Vec<Frame> = Vec::new();
        for (i, node) in other.nodes.iter().enumerate().skip(1) {
            if node.self_samples == 0 {
                continue;
            }
            frames.clear();
            let mut cur = i;
            while cur != 0 {
                let n = &other.nodes[cur];
                frames.push(Frame {
                    kind: n.key.kind,
                    line: n.key.line,
                });
                cur = n.parent.expect("non-root has parent");
            }
            frames.reverse();
            self.insert_weighted(&frames, node.self_samples, node.self_init_samples);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimstart_appmodel::{FunctionId, ModuleId};

    fn call(i: usize, line: u32) -> Frame {
        Frame {
            kind: FrameKind::Call(FunctionId::from_index(i)),
            line,
        }
    }

    fn init(i: usize, line: u32) -> Frame {
        Frame {
            kind: FrameKind::ModuleInit(ModuleId::from_index(i)),
            line,
        }
    }

    #[test]
    fn empty_tree() {
        let cct = Cct::new();
        assert!(cct.is_empty());
        assert_eq!(cct.len(), 1);
        assert_eq!(cct.total_samples(), 0);
    }

    #[test]
    fn insert_builds_shared_prefixes() {
        let mut cct = Cct::new();
        cct.insert(&[call(0, 5), call(1, 6)], false);
        cct.insert(&[call(0, 5), call(1, 6)], false);
        cct.insert(&[call(0, 5), call(2, 7)], false);
        // root + f0 + f1 + f2.
        assert_eq!(cct.len(), 4);
        assert_eq!(cct.total_samples(), 3);
    }

    #[test]
    fn distinct_call_sites_are_distinct_nodes() {
        // Same function called from two different lines (the Lib-6
        // multi-path scenario) must not be conflated.
        let mut cct = Cct::new();
        cct.insert(&[call(0, 5), call(9, 6)], false);
        cct.insert(&[call(0, 5), call(9, 8)], false);
        assert_eq!(cct.len(), 4); // root + f0 + two f9 nodes
    }

    #[test]
    fn escalation_propagates_to_ancestors() {
        // Orchestrator f0 has 1 self sample; its callees have 99. Inclusive
        // attribution must credit f0 with all 100 (the Lib-1 problem).
        let mut cct = Cct::new();
        cct.insert(&[call(0, 5)], false);
        for _ in 0..99 {
            cct.insert(&[call(0, 5), call(1, 6)], false);
        }
        let inclusive = cct.inclusive();
        // Node 1 is f0 (first created after root).
        assert_eq!(cct.node(1).self_samples, 1);
        assert_eq!(inclusive[1], 100);
        assert_eq!(inclusive[0], 100);
    }

    #[test]
    fn init_samples_tracked_separately() {
        let mut cct = Cct::new();
        cct.insert(&[init(0, 1)], true);
        cct.insert(&[init(0, 1)], true);
        cct.insert(&[call(0, 5)], false);
        assert_eq!(cct.total_samples(), 3);
        // Node 1 = the init frame: every sample on it is an init sample.
        assert_eq!(cct.node(1).self_samples, 2);
        assert_eq!(cct.node(1).self_init_samples, 2);
    }

    #[test]
    fn path_to_reconstructs_in_order() {
        let mut cct = Cct::new();
        cct.insert(&[call(0, 5), call(1, 6), call(2, 7)], false);
        // Find the leaf (self_samples == 1).
        let leaf = (0..cct.len())
            .find(|i| cct.node(*i).self_samples == 1)
            .unwrap();
        let path = cct.path_to(leaf);
        assert_eq!(path.len(), 3);
        assert_eq!(path[0].key.kind, FrameKind::Call(FunctionId::from_index(0)));
        assert_eq!(path[2].key.kind, FrameKind::Call(FunctionId::from_index(2)));
    }

    #[test]
    fn merge_preserves_counts() {
        let mut a = Cct::new();
        a.insert(&[call(0, 5)], false);
        let mut b = Cct::new();
        b.insert(&[call(0, 5)], false);
        b.insert(&[init(1, 1)], true);
        a.merge(&b);
        assert_eq!(a.total_samples(), 3);
        // Shared path merged into one node.
        assert_eq!(a.len(), 3);
        let init_node = (1..a.len())
            .find(|i| a.node(*i).self_init_samples > 0)
            .unwrap();
        assert_eq!(a.node(init_node).self_init_samples, 1);
    }

    #[test]
    fn from_samples_builds_tree() {
        let mut paths = PathTable::new();
        let samples = vec![
            SampleRecord {
                path: paths.intern(&[call(0, 5), call(1, 6)]),
                is_init: false,
            },
            SampleRecord {
                path: paths.intern(&[init(0, 1)]),
                is_init: true,
            },
            SampleRecord {
                path: PathId::ROOT,
                is_init: false,
            },
        ];
        let cct = Cct::from_samples(&paths, &samples);
        assert_eq!(cct.total_samples(), 2);
        assert_eq!(cct.len(), 4);
    }

    #[test]
    fn from_samples_creates_nodes_in_sample_order() {
        // The table interns `b` before `a`, but `a` is sampled first, so
        // the tree creates `a`'s nodes first, as per-sample inserts do.
        let mut paths = PathTable::new();
        let b = paths.intern(&[call(0, 1), call(2, 3)]);
        let a = paths.intern(&[call(0, 1), call(1, 2)]);
        let samples: Vec<SampleRecord> = [a, a, b, a]
            .into_iter()
            .map(|path| SampleRecord {
                path,
                is_init: false,
            })
            .collect();
        let cct = Cct::from_samples(&paths, &samples);
        let mut expected = Cct::new();
        for s in &samples {
            expected.insert(&paths.frames(s.path), s.is_init);
        }
        assert_eq!(cct.nodes(), expected.nodes());
        assert_eq!(cct.node(2).key.kind, call(1, 2).kind);
        assert_eq!(cct.node(2).self_samples, 3);
    }

    #[test]
    fn empty_path_is_ignored() {
        let mut cct = Cct::new();
        cct.insert(&[], false);
        assert_eq!(cct.total_samples(), 0);
    }

    #[test]
    fn inclusive_conserves_total() {
        let mut cct = Cct::new();
        cct.insert(&[call(0, 1), call(1, 2)], false);
        cct.insert(&[call(0, 1)], false);
        cct.insert(&[call(2, 3)], true);
        let inclusive = cct.inclusive();
        assert_eq!(inclusive[0], cct.total_samples());
    }

    #[test]
    fn children_follow_sibling_chain_in_insertion_order() {
        let mut cct = Cct::new();
        cct.insert(&[call(0, 1)], false);
        cct.insert(&[call(1, 2)], false);
        cct.insert(&[call(0, 1), call(2, 3)], false);
        cct.insert(&[call(1, 2), call(3, 4)], false);
        let roots: Vec<usize> = cct.children(0).collect();
        assert_eq!(roots, vec![1, 2]);
        assert_eq!(cct.children(1).count(), 1);
        assert_eq!(cct.children(2).count(), 1);
        // Leaves have no children.
        let leaf = cct.children(1).next().unwrap();
        assert_eq!(cct.children(leaf).count(), 0);
        // Every child's parent link points back.
        for i in 0..cct.len() {
            for c in cct.children(i) {
                assert_eq!(cct.node(c).parent, Some(i));
            }
        }
    }

    #[test]
    fn insert_weighted_equals_repeated_inserts() {
        let mut weighted = Cct::new();
        weighted.insert_weighted(&[call(0, 1), call(1, 2)], 7, 3);
        let mut repeated = Cct::new();
        for _ in 0..4 {
            repeated.insert(&[call(0, 1), call(1, 2)], false);
        }
        for _ in 0..3 {
            repeated.insert(&[call(0, 1), call(1, 2)], true);
        }
        assert_eq!(weighted.len(), repeated.len());
        assert_eq!(weighted.total_samples(), repeated.total_samples());
        for (a, b) in weighted.nodes().iter().zip(repeated.nodes()) {
            assert_eq!(a.self_samples, b.self_samples);
            assert_eq!(a.self_init_samples, b.self_init_samples);
        }
    }
}
