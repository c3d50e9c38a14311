//! Differential testing: the arena [`Cct`] must be observably equal to the
//! retained pre-arena [`ReferenceCct`] on every seeded sample stream —
//! same shape, same per-context attribution, same escalation totals, same
//! merge results. The arena changes the data layout and the merge
//! algorithm (O(paths) `insert_weighted` vs one re-insert per sample), and
//! [`Cct::from_samples`] builds the tree once per distinct interned path
//! instead of once per sample, so this is the oracle that says "faster,
//! not different": on synthetic streams, on the profiles the pipeline
//! builds for the catalog apps, and across profiling windows.

use std::collections::HashMap;

use slimstart::appmodel::catalog::catalog;
use slimstart::appmodel::{FunctionId, ModuleId};
use slimstart::core::cct::{Cct, CctKey};
use slimstart::core::history::ProfileHistory;
use slimstart::core::pipeline::PipelineConfig;
use slimstart::core::profile::{PathTable, ProfileStore, SampleRecord};
use slimstart::core::stage::{AnalyzeStage, BaselineStage, PipelineCtx, ProfileStage, StageEngine};
use slimstart::platform::chaos::ChaosConfig;
use slimstart::pyrt::stack::{Frame, FrameKind};
use slimstart::simcore::SimRng;

use reference::ReferenceCct;

/// The pre-arena CCT, retained verbatim as the differential-testing
/// oracle: per-node `Vec` of children, `std`-hasher index, merging by
/// re-inserting one path per sample. Not used on any production path.
mod reference {
    use std::collections::HashMap;

    use slimstart::appmodel::ModuleId;
    use slimstart::core::cct::CctKey;
    use slimstart::pyrt::stack::{Frame, FrameKind};

    /// The synthetic root's key, as the arena tree spells it.
    fn root_key() -> CctKey {
        CctKey {
            kind: FrameKind::ModuleInit(ModuleId::from_index(u32::MAX as usize)),
            line: 0,
        }
    }

    /// One calling-context node of the reference tree.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct RefNode {
        /// Identity.
        pub key: CctKey,
        /// Parent node index (`None` for the root).
        pub parent: Option<usize>,
        /// Child node indices, insertion-ordered.
        pub children: Vec<usize>,
        /// Samples whose innermost frame landed here.
        pub self_samples: u64,
        /// Of those, samples taken during module initialization.
        pub self_init_samples: u64,
    }

    /// The original `HashMap`-indexed calling context tree.
    #[derive(Debug, Clone, Default)]
    pub struct ReferenceCct {
        nodes: Vec<RefNode>,
        index: HashMap<(usize, CctKey), usize>,
    }

    impl ReferenceCct {
        /// Creates an empty tree with just the synthetic root.
        pub fn new() -> Self {
            ReferenceCct {
                nodes: vec![RefNode {
                    key: root_key(),
                    parent: None,
                    children: Vec::new(),
                    self_samples: 0,
                    self_init_samples: 0,
                }],
                index: HashMap::new(),
            }
        }

        /// Inserts one sampled call path, bumping the leaf's self count.
        pub fn insert(&mut self, path: &[Frame], is_init: bool) {
            if path.is_empty() {
                return;
            }
            let mut node = 0usize;
            for frame in path {
                let key = CctKey {
                    kind: frame.kind,
                    line: frame.line,
                };
                node = match self.index.get(&(node, key)) {
                    Some(&child) => child,
                    None => {
                        let child = self.nodes.len();
                        self.nodes.push(RefNode {
                            key,
                            parent: Some(node),
                            children: Vec::new(),
                            self_samples: 0,
                            self_init_samples: 0,
                        });
                        self.nodes[node].children.push(child);
                        self.index.insert((node, key), child);
                        child
                    }
                };
            }
            self.nodes[node].self_samples += 1;
            if is_init {
                self.nodes[node].self_init_samples += 1;
            }
        }

        /// All nodes (index 0 is the synthetic root).
        pub fn nodes(&self) -> &[RefNode] {
            &self.nodes
        }

        /// Total samples recorded.
        pub fn total_samples(&self) -> u64 {
            self.nodes.iter().map(|n| n.self_samples).sum()
        }

        /// Inclusive sample counts, index-aligned with nodes.
        pub fn inclusive(&self) -> Vec<u64> {
            let mut inclusive: Vec<u64> = self.nodes.iter().map(|n| n.self_samples).collect();
            for i in (1..self.nodes.len()).rev() {
                let parent = self.nodes[i].parent.expect("non-root has parent");
                inclusive[parent] += inclusive[i];
            }
            inclusive
        }

        /// The root-to-node path of frames (root exclusive), outermost
        /// first.
        pub fn path_of(&self, i: usize) -> Vec<Frame> {
            let mut frames = Vec::new();
            let mut cur = i;
            while cur != 0 {
                let n = &self.nodes[cur];
                frames.push(Frame {
                    kind: n.key.kind,
                    line: n.key.line,
                });
                cur = n.parent.expect("non-root has parent");
            }
            frames.reverse();
            frames
        }

        /// Merges another tree into this one, one insert per sample (the
        /// original quadratic-ish algorithm).
        pub fn merge(&mut self, other: &ReferenceCct) {
            for (i, node) in other.nodes.iter().enumerate().skip(1) {
                if node.self_samples == 0 {
                    continue;
                }
                let frames = other.path_of(i);
                let runtime = node.self_samples - node.self_init_samples;
                for _ in 0..runtime {
                    self.insert(&frames, false);
                }
                for _ in 0..node.self_init_samples {
                    self.insert(&frames, true);
                }
            }
        }
    }
}

fn synth_paths(n: usize, seed: u64) -> Vec<(Vec<Frame>, bool)> {
    let mut rng = SimRng::seed_from(seed);
    (0..n)
        .map(|_| {
            let depth = 1 + rng.next_below(8);
            let path: Vec<Frame> = (0..depth)
                .map(|d| {
                    if d == 0 && rng.chance(0.25) {
                        Frame {
                            kind: FrameKind::ModuleInit(ModuleId::from_index(rng.next_below(12))),
                            line: 1 + rng.next_below(40) as u32,
                        }
                    } else {
                        Frame {
                            kind: FrameKind::Call(FunctionId::from_index(rng.next_below(24))),
                            line: 1 + rng.next_below(40) as u32,
                        }
                    }
                })
                .collect();
            (path, rng.chance(0.3))
        })
        .collect()
}

/// Canonical view of a tree: full root-to-node key path → (self samples,
/// self init samples), for populated and interior nodes alike.
type Attribution = HashMap<Vec<CctKey>, (u64, u64)>;

fn arena_attribution(cct: &Cct) -> Attribution {
    (1..cct.len())
        .map(|i| {
            let path: Vec<CctKey> = cct.path_to(i).iter().map(|n| n.key).collect();
            let node = cct.node(i);
            (path, (node.self_samples, node.self_init_samples))
        })
        .collect()
}

fn reference_attribution(cct: &ReferenceCct) -> Attribution {
    (1..cct.nodes().len())
        .map(|i| {
            let path: Vec<CctKey> = cct
                .path_of(i)
                .iter()
                .map(|f| CctKey {
                    kind: f.kind,
                    line: f.line,
                })
                .collect();
            let node = &cct.nodes()[i];
            (path, (node.self_samples, node.self_init_samples))
        })
        .collect()
}

fn build_both(paths: &[(Vec<Frame>, bool)]) -> (Cct, ReferenceCct) {
    let mut arena = Cct::new();
    let mut reference = ReferenceCct::new();
    for (path, is_init) in paths {
        arena.insert(path, *is_init);
        reference.insert(path, *is_init);
    }
    (arena, reference)
}

/// Inclusive counts keyed by canonical path, so the comparison is
/// index-free.
fn inclusive_by_path(inclusive: &[u64], paths: &[Vec<CctKey>]) -> HashMap<Vec<CctKey>, u64> {
    paths
        .iter()
        .cloned()
        .zip(inclusive.iter().skip(1).copied())
        .collect()
}

#[test]
fn seeded_streams_build_identical_trees() {
    for seed in [1u64, 7, 42, 2025, 0xdead] {
        let paths = synth_paths(2_000, seed);
        let (arena, reference) = build_both(&paths);

        assert_eq!(
            arena.len(),
            reference.nodes().len(),
            "seed {seed}: node count"
        );
        assert_eq!(
            arena.total_samples(),
            reference.total_samples(),
            "seed {seed}: total samples"
        );
        assert_eq!(
            arena_attribution(&arena),
            reference_attribution(&reference),
            "seed {seed}: per-context attribution"
        );
    }
}

#[test]
fn escalation_totals_agree() {
    let paths = synth_paths(3_000, 99);
    let (arena, reference) = build_both(&paths);

    let arena_paths: Vec<Vec<CctKey>> = (1..arena.len())
        .map(|i| arena.path_to(i).iter().map(|n| n.key).collect())
        .collect();
    let ref_paths: Vec<Vec<CctKey>> = (1..reference.nodes().len())
        .map(|i| {
            reference
                .path_of(i)
                .iter()
                .map(|f| CctKey {
                    kind: f.kind,
                    line: f.line,
                })
                .collect()
        })
        .collect();

    let arena_inclusive = inclusive_by_path(&arena.inclusive(), &arena_paths);
    let ref_inclusive = inclusive_by_path(&reference.inclusive(), &ref_paths);
    assert_eq!(arena_inclusive, ref_inclusive);

    // The roots see every sample either way.
    assert_eq!(arena.inclusive()[0], reference.inclusive()[0]);
}

#[test]
fn merge_is_equivalent_across_implementations() {
    for (seed_a, seed_b) in [(1u64, 2u64), (2025, 31), (7, 7)] {
        let left = synth_paths(1_500, seed_a);
        let right = synth_paths(1_500, seed_b);
        let (mut arena, mut reference) = build_both(&left);
        let (arena_other, reference_other) = build_both(&right);

        arena.merge(&arena_other);
        reference.merge(&reference_other);

        assert_eq!(
            arena.total_samples(),
            reference.total_samples(),
            "seeds {seed_a}/{seed_b}: merged totals"
        );
        assert_eq!(
            arena_attribution(&arena),
            reference_attribution(&reference),
            "seeds {seed_a}/{seed_b}: merged attribution"
        );
    }
}

#[test]
fn children_iteration_matches_reference_order() {
    // Both implementations create child nodes in first-encounter order; the
    // arena must reproduce that order through its sibling chain.
    let paths = synth_paths(800, 1234);
    let (arena, reference) = build_both(&paths);
    for i in 0..arena.len() {
        let arena_children: Vec<CctKey> = arena.children(i).map(|c| arena.node(c).key).collect();
        let ref_children: Vec<CctKey> = reference.nodes()[i]
            .children
            .iter()
            .map(|&c| reference.nodes()[c].key)
            .collect();
        assert_eq!(arena_children, ref_children, "node {i} child order");
    }
}

#[test]
fn weighted_insert_collapses_repeated_samples() {
    // insert_weighted(path, n, k) must equal n repeated inserts with k of
    // them flagged init — the identity the O(paths) merge relies on.
    let paths = synth_paths(60, 5);
    let mut weighted = Cct::new();
    let mut repeated = ReferenceCct::new();
    for (path, _) in &paths {
        weighted.insert_weighted(path, 5, 2);
        for _ in 0..3 {
            repeated.insert(path, false);
        }
        for _ in 0..2 {
            repeated.insert(path, true);
        }
    }
    assert_eq!(
        arena_attribution(&weighted),
        reference_attribution(&repeated)
    );
}

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
fn merge_matches_reference_merge() {
    let paths: Vec<(Vec<Frame>, bool)> = vec![
        (vec![call(0, 1)], false),
        (vec![call(0, 1), call(1, 2)], false),
        (vec![init(0, 1)], true),
        (vec![call(0, 1), call(1, 2)], true),
        (vec![call(2, 9)], false),
    ];
    let mut arena_a = Cct::new();
    let mut arena_b = Cct::new();
    let mut ref_a = ReferenceCct::new();
    let mut ref_b = ReferenceCct::new();
    for (i, (path, is_init)) in paths.iter().enumerate() {
        if i % 2 == 0 {
            arena_a.insert(path, *is_init);
            ref_a.insert(path, *is_init);
        } else {
            arena_b.insert(path, *is_init);
            ref_b.insert(path, *is_init);
        }
    }
    arena_a.merge(&arena_b);
    ref_a.merge(&ref_b);
    assert_eq!(arena_a.total_samples(), ref_a.total_samples());
    assert_eq!(arena_a.len(), ref_a.nodes().len());
    assert_eq!(arena_a.inclusive(), ref_a.inclusive());
}

/// A sample stream as the sampler stores it: runs of interned ids, each
/// of `synth_paths`' paths a run of 1–5 samples, some runs instead
/// resuming the path of two runs back. A quarter of the runs mix init and
/// runtime flags. Some paths are interned before the stream starts, in
/// reverse, so the table's node order differs from the order the samples
/// first reach them.
fn synth_runs(n: usize, seed: u64) -> Stream {
    let mut rng = SimRng::seed_from(seed ^ 0x5eed);
    let paths_in_order = synth_paths(n, seed);
    let mut paths = PathTable::new();
    for (path, _) in paths_in_order.iter().rev().step_by(7) {
        paths.intern(path);
    }
    let mut runs: Vec<Vec<Frame>> = Vec::new();
    let mut samples = Vec::new();
    let mut frames = Vec::new();
    for (path, is_init) in paths_in_order {
        let path = if runs.len() >= 2 && rng.chance(0.2) {
            runs[runs.len() - 2].clone()
        } else {
            path
        };
        let id = paths.intern(&path);
        let mixed = rng.chance(0.25);
        for _ in 0..1 + rng.next_below(5) {
            let is_init = if mixed { rng.chance(0.5) } else { is_init };
            samples.push(SampleRecord { path: id, is_init });
            frames.push((path.clone(), is_init));
        }
        runs.push(path);
    }
    Stream {
        paths,
        samples,
        frames,
    }
}

/// A sample stream: the interned samples, and each sample's frames and
/// init flag for the reference.
struct Stream {
    paths: PathTable,
    samples: Vec<SampleRecord>,
    frames: Vec<(Vec<Frame>, bool)>,
}

/// Checks `arena` against `reference` index by index: key, parent, self
/// and init counts, and child order.
fn assert_same_nodes(arena: &Cct, reference: &ReferenceCct, what: &str) {
    let arena_nodes: Vec<_> = arena
        .nodes()
        .iter()
        .enumerate()
        .map(|(i, n)| {
            let children: Vec<usize> = arena.children(i).collect();
            (
                n.key,
                n.parent,
                n.self_samples,
                n.self_init_samples,
                children,
            )
        })
        .collect();
    let ref_nodes: Vec<_> = reference
        .nodes()
        .iter()
        .map(|n| {
            (
                n.key,
                n.parent,
                n.self_samples,
                n.self_init_samples,
                n.children.clone(),
            )
        })
        .collect();
    assert_eq!(arena_nodes.len(), ref_nodes.len(), "{what}: node count");
    for (i, (a, r)) in arena_nodes.iter().zip(&ref_nodes).enumerate() {
        assert_eq!(a, r, "{what}: node {i}");
    }
}

#[test]
fn sample_runs_build_the_per_sample_tree() {
    for seed in [3u64, 42, 2025] {
        let Stream {
            paths,
            samples,
            frames,
        } = synth_runs(1_500, seed);
        let mixed_run = samples
            .windows(2)
            .any(|w| w[0].path == w[1].path && w[0].is_init != w[1].is_init);
        let resumed = samples
            .windows(3)
            .any(|w| w[0].path == w[2].path && w[0].path != w[1].path);
        assert!(
            mixed_run && resumed,
            "seed {seed}: stream lacks a run shape"
        );

        let arena = Cct::from_samples(&paths, &samples);
        let mut reference = ReferenceCct::new();
        for (path, is_init) in &frames {
            reference.insert(path, *is_init);
        }
        assert_eq!(
            arena_attribution(&arena),
            reference_attribution(&reference),
            "seed {seed}: per-context attribution"
        );
        assert_same_nodes(&arena, &reference, &format!("seed {seed}"));
    }
}

/// The reference tree for a store: one insert per sample, each sample's
/// frames resolved by walking the store's table.
fn reference_for(store: &ProfileStore) -> ReferenceCct {
    let mut reference = ReferenceCct::new();
    let mut frames = Vec::new();
    for s in &store.samples {
        reference.insert(store.paths.resolve(s.path, &mut frames), s.is_init);
    }
    reference
}

/// The CCT the pipeline builds for each of the catalog apps the
/// benchmark's pipeline workload runs (at most 800 modules), at seed 2025
/// with 60 cold starts under `config`, against the per-sample reference.
fn assert_catalog_ccts_match(what: &str, config: impl Fn(PipelineConfig) -> PipelineConfig) {
    let mut apps = 0;
    for entry in catalog().into_iter().filter(|e| e.n_modules <= 800) {
        apps += 1;
        let app = entry.build(2025).expect("catalog app builds").app;
        let config = config(
            PipelineConfig::default()
                .with_seed(2025)
                .with_cold_starts(60),
        );
        let mut ctx =
            PipelineCtx::new(config, &app, &entry.workload_weights()).expect("workload resolves");
        StageEngine::new()
            .then(BaselineStage)
            .then(ProfileStage)
            .then(AnalyzeStage)
            .run(&mut ctx)
            .expect("stages run");
        let store = ctx
            .profile_store
            .as_ref()
            .expect("the profile stage fills the store")
            .lock();
        let cct = ctx.cct.as_ref().expect("the analyze stage builds the CCT");
        let what = format!("{what}, {}", entry.code);
        assert_same_nodes(cct, &reference_for(&store), &what);
    }
    assert_eq!(apps, 15, "{what}: catalog apps with at most 800 modules");
}

#[test]
fn catalog_profiles_build_the_per_sample_tree() {
    assert_catalog_ccts_match("default", |c| c);
}

#[test]
fn catalog_profiles_build_the_per_sample_tree_through_the_collector() {
    assert_catalog_ccts_match("async collector", |c| c.with_async_collector(true));
}

#[test]
fn truncated_catalog_profiles_build_the_per_sample_tree() {
    assert_catalog_ccts_match("truncated uploads", |c| {
        c.with_chaos(ChaosConfig {
            upload_truncation: 1.0,
            ..ChaosConfig::DISABLED
        })
    });
}

#[test]
fn chaotic_catalog_profiles_build_the_per_sample_tree() {
    assert_catalog_ccts_match("uniform chaos 0.3", |c| {
        c.with_chaos(ChaosConfig::uniform(0.3))
    });
}

#[test]
fn merged_cct_across_windows_builds_the_per_sample_tree() {
    // Three windows, each with its own table numbering the shared paths
    // differently.
    let mut history = ProfileHistory::new();
    let mut reference = ReferenceCct::new();
    for seed in [5u64, 6, 7] {
        let Stream {
            paths,
            samples,
            frames,
        } = synth_runs(600, seed % 2 + 1);
        for (path, is_init) in &frames {
            reference.insert(path, *is_init);
        }
        let store = ProfileStore {
            samples,
            paths,
            ..ProfileStore::default()
        };
        history.push(format!("w{seed}"), store);
    }
    let merged_cct = history.merged_cct();
    assert_same_nodes(&merged_cct, &reference, "merged_cct");
    // The merged store's table differs from every window's, and builds the
    // same tree.
    let merged = history.merged();
    assert_same_nodes(
        &Cct::from_samples(&merged.paths, &merged.samples),
        &reference,
        "merged store",
    );
}
