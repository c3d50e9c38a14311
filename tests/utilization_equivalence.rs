//! Differential testing for the analyze stage's builders: the run-weighted,
//! interned [`Utilization::from_samples`] must equal the retained
//! per-sample reference (one `HashSet` per sample for libraries, modules
//! and package names, one `String` per dotted prefix per frame), and
//! [`InitBreakdown::from_store`]'s package roll-up must equal the
//! roll-up through the string-keyed reference package tree
//! ([`common::ReferencePackageTree`]), on real profiles of the small
//! catalog apps, on a slice of the light fleet population and on seeded
//! synthetic sample streams. This is the oracle that says "faster, not
//! different".

mod common;

use std::collections::BTreeMap;

use slimstart::appmodel::app::AppBuilder;
use slimstart::appmodel::catalog::{catalog, light_population};
use slimstart::appmodel::{Application, FunctionId, ModuleId};
use slimstart::core::initprof::InitBreakdown;
use slimstart::core::optimizer::optimize_conservative;
use slimstart::core::pipeline::PipelineConfig;
use slimstart::core::profile::{PathTable, ProfileStore, SampleRecord};
use slimstart::core::stage::{PipelineCtx, ProfileStage, Stage};
use slimstart::core::utilization::Utilization;
use slimstart::platform::PlatformConfig;
use slimstart::pyrt::stack::{Frame, FrameKind};
use slimstart::simcore::time::SimDuration;
use slimstart::simcore::SimRng;

use common::ReferencePackageTree;

/// The per-sample utilization, retained verbatim as the differential
/// oracle. Not used on any production path.
mod reference {
    use std::collections::{BTreeMap, HashMap, HashSet};

    use slimstart::appmodel::{Application, LibraryId, ModuleId};
    use slimstart::core::utilization::Utilization;
    use slimstart::pyrt::stack::Frame;

    /// Computes utilization one sample at a time, from each sample's
    /// frames and init flag.
    pub fn utilization<'a, I>(samples: I, app: &Application) -> Utilization
    where
        I: IntoIterator<Item = (&'a [Frame], bool)>,
    {
        let mut total = 0u64;
        let mut lib_counts = vec![0u64; app.libraries().len()];
        let mut package_counts: BTreeMap<String, u64> = BTreeMap::new();
        let mut module_counts: HashMap<ModuleId, u64> = HashMap::new();

        for (path, is_init) in samples {
            if is_init {
                continue;
            }
            total += 1;
            let mut libs: HashSet<LibraryId> = HashSet::new();
            let mut modules: HashSet<ModuleId> = HashSet::new();
            let mut packages: HashSet<String> = HashSet::new();
            for frame in path {
                let module = frame.module(app);
                modules.insert(module);
                if let Some(lib) = app.module(module).library() {
                    libs.insert(lib);
                }
                let name = app.module(module).name();
                let bytes = name.as_bytes();
                for i in 0..=bytes.len() {
                    if i == bytes.len() || bytes[i] == b'.' {
                        packages.insert(name[..i].to_string());
                    }
                }
            }
            for lib in libs {
                lib_counts[lib.index()] += 1;
            }
            for m in modules {
                *module_counts.entry(m).or_insert(0) += 1;
            }
            for p in packages {
                *package_counts.entry(p).or_insert(0) += 1;
            }
        }

        let denom = total.max(1) as f64;
        Utilization {
            total_runtime_samples: total,
            by_library: lib_counts.iter().map(|c| *c as f64 / denom).collect(),
            by_package: package_counts
                .into_iter()
                .map(|(k, c)| (k, c as f64 / denom))
                .collect(),
            by_module: module_counts,
        }
    }
}

/// A sample as the reference sees it: its frames and init flag.
type Sample = (Vec<Frame>, bool);

/// Number of runs of consecutive samples of one path.
fn runs<T: PartialEq>(paths: impl IntoIterator<Item = T>) -> usize {
    let mut paths = paths.into_iter().peekable();
    let mut runs = 0;
    while let Some(path) = paths.next() {
        runs += 1;
        while paths.next_if(|next| *next == path).is_some() {}
    }
    runs
}

/// Checks a store's utilization against the reference fed each sample's
/// frames.
fn assert_store_utilization_matches(store: &ProfileStore, app: &Application, what: &str) {
    let samples: Vec<Sample> = store
        .samples
        .iter()
        .map(|s| (store.paths.frames(s.path), s.is_init))
        .collect();
    assert_eq!(
        Utilization::from_samples(&store.paths, &store.samples, app),
        reference::utilization(samples.iter().map(|(f, i)| (f.as_slice(), *i)), app),
        "{what}: utilization"
    );
}

/// Interns `samples` into one table and checks their utilization against
/// the reference fed the frames directly.
fn assert_utilization_matches(samples: &[Sample], app: &Application, what: &str) {
    let mut paths = PathTable::new();
    let records: Vec<SampleRecord> = samples
        .iter()
        .map(|(frames, is_init)| SampleRecord {
            path: paths.intern(frames),
            is_init: *is_init,
        })
        .collect();
    assert_eq!(
        Utilization::from_samples(&paths, &records, app),
        reference::utilization(samples.iter().map(|(f, i)| (f.as_slice(), *i)), app),
        "{what}: utilization"
    );
}

/// The Eq. 3 roll-up through the package tree: each node sums the mean
/// init times of every module at or beneath it.
fn tree_rollup(app: &Application, bd: &InitBreakdown) -> BTreeMap<String, SimDuration> {
    let tree = ReferencePackageTree::of(app);
    tree.iter()
        .map(|node| {
            let total: SimDuration = tree
                .modules_under(&node.path)
                .iter()
                .filter_map(|m| bd.by_module.get(m))
                .sum();
            (node.path.clone(), total)
        })
        .collect()
}

/// Checks the breakdown's package roll-up; returns how many packages have
/// zero init time.
fn assert_rollup_matches(store: &ProfileStore, app: &Application, what: &str) -> usize {
    let bd = InitBreakdown::from_store(store, app, 3, SimDuration::from_millis(100));
    let expected = tree_rollup(app, &bd);
    assert_eq!(bd.by_package, expected, "{what}: package roll-up");
    expected.values().filter(|d| d.is_zero()).count()
}

/// Profiles `app` with the real sampler (the pipeline's profile stage)
/// and returns the collected store.
fn profile(
    app: &Application,
    mix: &[(String, f64)],
    seed: u64,
    cold_starts: usize,
) -> ProfileStore {
    let config = PipelineConfig::default()
        .with_cold_starts(cold_starts)
        .with_seed(seed)
        .with_platform(PlatformConfig::default().without_jitter());
    let mut ctx = PipelineCtx::new(config, app, mix).expect("workload resolves");
    ProfileStage.run(&mut ctx).expect("profiling runs");
    let store = ctx
        .profile_store
        .as_ref()
        .expect("the profile stage fills the store")
        .lock()
        .expect("profile store lock")
        .clone();
    store
}

#[test]
fn small_catalog_profiles_match_the_reference() {
    let mut apps = 0;
    let mut zero_packages = 0;
    for entry in catalog() {
        if entry.n_modules > 270 {
            continue;
        }
        apps += 1;
        for seed in [2025u64, 7] {
            let built = entry.build(seed).expect("catalog app builds").app;
            // The conservatively optimized app never loads the packages it
            // defers, so its roll-up has packages with zero init time.
            let deferred = optimize_conservative(&built).app;
            for (variant, app) in [("as built", &built), ("deferred", &deferred)] {
                let store = profile(app, &entry.workload_weights(), seed, 40);
                let what = format!("{} {variant}, seed {seed}", entry.code);
                assert!(
                    store.runtime_sample_count() > 0,
                    "{what}: no runtime samples"
                );
                assert!(
                    runs(store.samples.iter().map(|s| s.path)) < store.samples.len(),
                    "{what}: no sample shares its predecessor's path"
                );
                assert_store_utilization_matches(&store, app, &what);
                zero_packages += assert_rollup_matches(&store, app, &what);
            }
        }
    }
    assert!(
        apps >= 10,
        "only {apps} catalog apps have at most 270 modules"
    );
    assert!(
        zero_packages > 0,
        "no package with zero init time was compared"
    );
}

#[test]
fn light_population_profiles_match_the_reference() {
    let mut seeds = SimRng::seed_from(11);
    for (i, entry) in light_population(15).iter().enumerate() {
        let seed = seeds.split_seed();
        let app = entry.build(seed).expect("light app builds").app;
        let store = profile(&app, &entry.workload_weights(), seed, 8);
        let what = format!("light app {i} ({})", entry.code);
        assert!(
            store.runtime_sample_count() > 0,
            "{what}: no runtime samples"
        );
        assert_store_utilization_matches(&store, &app, &what);
        assert_rollup_matches(&store, &app, &what);
    }
}

/// An app whose names exercise every prefix shape: dotted prefixes that
/// are not modules (`ext`, `lib.gap`, `app`), app code with no library
/// (`handler`, `app.util`), a sibling prefix (`lib.core` next to
/// `lib.corex`) and an empty name component (`lib..odd`).
fn prefix_app() -> (Application, Vec<FunctionId>, Vec<ModuleId>) {
    let ms = SimDuration::from_millis;
    let mut b = AppBuilder::new("prefixes");
    let lib = b.add_library("lib");
    let ext = b.add_library("ext");
    let handler = b.add_app_module("handler", ms(1), 8);
    let util = b.add_app_module("app.util", ms(1), 8);
    let mut modules = vec![handler, util];
    for name in [
        "lib",
        "lib.core",
        "lib.corex",
        "lib.gap.deep",
        "lib.core.fast",
        "lib..odd",
    ] {
        modules.push(b.add_library_module(name, ms(2), 8, false, lib));
    }
    modules.push(b.add_library_module("ext.io", ms(3), 8, false, ext));
    // Two functions per module, so one path can visit a module twice
    // through different functions as well as through recursion.
    let mut functions = Vec::new();
    for (i, &m) in modules.iter().enumerate() {
        for k in 0..2 {
            functions.push(b.add_function(format!("f{i}_{k}"), m, 1, vec![]));
        }
    }
    b.add_handler("main", functions[0]);
    (b.finish().expect("app validates"), functions, modules)
}

/// A seeded stream of runs: each run repeats one path 1–6 times. Most
/// runs use a fresh path; some resume the path of two runs back (a run
/// split by another path) or reuse any earlier path. A third of the runs
/// mix init and runtime flags.
fn synth_stream(
    functions: &[FunctionId],
    modules: &[ModuleId],
    n: usize,
    seed: u64,
) -> Vec<Sample> {
    let mut rng = SimRng::seed_from(seed);
    let mut paths: Vec<Vec<Frame>> = Vec::new();
    let mut samples = Vec::new();
    while samples.len() < n {
        let path = if paths.len() >= 2 && rng.chance(0.2) {
            paths[paths.len() - 2].clone()
        } else if !paths.is_empty() && rng.chance(0.15) {
            paths[rng.next_below(paths.len())].clone()
        } else {
            let depth = 1 + rng.next_below(7);
            let frames: Vec<Frame> = (0..depth)
                .map(|_| {
                    let kind = if rng.chance(0.15) {
                        FrameKind::ModuleInit(modules[rng.next_below(modules.len())])
                    } else {
                        FrameKind::Call(functions[rng.next_below(functions.len())])
                    };
                    Frame {
                        kind,
                        line: 1 + rng.next_below(9) as u32,
                    }
                })
                .collect();
            frames
        };
        paths.push(path.clone());
        let mixed = rng.chance(0.33);
        let is_init = rng.chance(0.3);
        for _ in 0..1 + rng.next_below(6) {
            samples.push((path.clone(), if mixed { rng.chance(0.5) } else { is_init }));
        }
    }
    samples
}

#[test]
fn seeded_synthetic_streams_match_the_reference() {
    let (app, functions, modules) = prefix_app();
    for seed in [1u64, 7, 11, 2025, 0xdead] {
        let samples = synth_stream(&functions, &modules, 3_000, seed);
        let what = format!("seed {seed}");
        // The stream must hold the shapes the run pass could get wrong.
        let split_and_resumed = samples
            .windows(3)
            .any(|w| w[0].0 == w[2].0 && w[0].0 != w[1].0);
        let mixed_run = samples
            .windows(2)
            .any(|w| w[0].0 == w[1].0 && w[0].1 != w[1].1);
        let repeated_module = samples.iter().any(|(path, _)| {
            let mut seen: Vec<ModuleId> = path.iter().map(|f| f.module(&app)).collect();
            seen.sort();
            seen.windows(2).any(|w| w[0] == w[1])
        });
        assert!(split_and_resumed && mixed_run && repeated_module, "{what}");
        assert!(
            runs(samples.iter().map(|(path, _)| path)) < samples.len() / 2,
            "{what}: runs"
        );
        assert_utilization_matches(&samples, &app, &what);
    }
}

#[test]
fn hand_written_streams_match_the_reference() {
    let (app, f, m) = prefix_app();
    let call = |i: usize| Frame {
        kind: FrameKind::Call(f[i]),
        line: 1,
    };
    let init = |i: usize| Frame {
        kind: FrameKind::ModuleInit(m[i]),
        line: 1,
    };
    let record = |path: &Vec<Frame>, is_init: bool| (path.clone(), is_init);
    // handler → app.util → ext.io, and handler → lib..odd → lib.core.fast.
    let a = vec![call(0), call(2), call(16)];
    let b = vec![call(0), call(14), call(12)];
    // lib.gap.deep twice, through two functions and by recursion.
    let twice = vec![call(1), call(10), call(11), call(10)];
    // Module init: the handler's top level importing lib.corex.
    let loading = vec![init(0), init(4)];
    // A prefix of `a`: its path ends at an interior node of `a`'s.
    let a_prefix = a[..2].to_vec();

    assert_utilization_matches(&[], &app, "empty input");
    let streams: Vec<(&str, Vec<Sample>)> = vec![
        (
            "run split by another path, then resumed",
            vec![
                record(&a, false),
                record(&a, false),
                record(&b, false),
                record(&a, false),
            ],
        ),
        (
            "module twice on one path",
            vec![record(&twice, false), record(&twice, false)],
        ),
        (
            "init samples inside a run",
            vec![
                record(&loading, true),
                record(&loading, false),
                record(&loading, true),
                record(&a, true),
                record(&a, false),
            ],
        ),
        (
            "init-only runs",
            vec![record(&loading, true), record(&a, true), record(&a, true)],
        ),
        (
            "a path and its prefix",
            vec![
                record(&a, false),
                record(&a_prefix, false),
                record(&a, true),
                record(&a_prefix, false),
            ],
        ),
    ];
    for (what, samples) in &streams {
        assert_utilization_matches(samples, &app, what);
    }
    let all: Vec<Sample> = streams.into_iter().flat_map(|(_, s)| s).collect();
    assert_utilization_matches(&all, &app, "all streams in sequence");
}

#[test]
fn init_rollup_covers_unmeasured_and_prefix_only_packages() {
    // Only some modules report init time, so packages with zero init time
    // (measured or not) and prefixes without a module of their own are
    // all rolled up.
    let (app, _, modules) = prefix_app();
    let mut store = ProfileStore::default();
    for (k, &m) in modules.iter().enumerate().filter(|(k, _)| k % 3 != 1) {
        store
            .init_micros_by_module
            .insert(m, 1_000 * (k as u64 + 1));
    }
    let zero = assert_rollup_matches(&store, &app, "prefix app");
    assert!(zero > 0);
    let empty = ProfileStore::default();
    assert_eq!(
        assert_rollup_matches(&empty, &app, "empty store"),
        ReferencePackageTree::of(&app).len()
    );
}
