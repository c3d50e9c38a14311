//! Property-based tests over the core data structures and invariants.
//!
//! Cases are generated from seeded [`SimRng`] streams rather than a
//! property-testing framework (the build environment is offline, so the
//! workspace carries no such dependency): each test sweeps a fixed,
//! deterministic family of random inputs and asserts the property on
//! every case, reporting the case seed on failure.

use slimstart::appmodel::app::AppBuilder;
use slimstart::appmodel::function::{Stmt, StmtKind};
use slimstart::appmodel::synth::{
    AppBlueprint, HandlerBlueprint, LibraryBlueprint, SubpackageBlueprint, UseSpec,
};
use slimstart::appmodel::{FunctionId, ImportMode, ModuleId};
use slimstart::core::cct::Cct;
use slimstart::core::profile::{PathTable, SampleRecord};
use slimstart::core::utilization::Utilization;
use slimstart::pyrt::process::Process;
use slimstart::pyrt::stack::{Frame, FrameKind};
use slimstart::simcore::dist::{Empirical, Zipf};
use slimstart::simcore::rng::SimRng;
use slimstart::simcore::stats::Percentiles;
use slimstart::simcore::time::SimDuration;

// ------------------------------------------------------------------ simcore

#[test]
fn percentiles_match_naive_sort() {
    let mut rng = SimRng::seed_from(0xA11CE);
    for case in 0..64 {
        let n = 1 + rng.next_below(199);
        let values: Vec<f64> = (0..n).map(|_| rng.uniform(-1e6, 1e6)).collect();
        let q = rng.next_f64();
        let p: Percentiles = values.iter().copied().collect();
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        assert_eq!(p.quantile(q), Some(sorted[rank - 1]), "case {case} (q={q})");
    }
}

#[test]
fn zipf_pmf_always_normalizes() {
    let mut rng = SimRng::seed_from(0x21FF);
    for case in 0..64 {
        let n = 1 + rng.next_below(199);
        let s = rng.uniform(0.0, 3.0);
        let z = Zipf::new(n, s).unwrap();
        let total: f64 = (0..n).map(|k| z.pmf(k)).sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "case {case}: pmf sums to {total} (n={n}, s={s})"
        );
    }
}

#[test]
fn empirical_sampling_stays_in_support() {
    let mut rng = SimRng::seed_from(0xE3921);
    for case in 0..64 {
        let n = 1 + rng.next_below(19);
        let weights: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, 10.0)).collect();
        if weights.iter().sum::<f64>() <= 0.0 {
            continue;
        }
        let e = Empirical::new(&weights).unwrap();
        let mut draw_rng = SimRng::seed_from(1000 + case);
        for _ in 0..100 {
            let k = e.sample(&mut draw_rng);
            assert!(k < weights.len(), "case {case}: index out of support");
            // Zero-weight categories never drawn.
            assert!(weights[k] > 0.0, "case {case}: zero-weight category drawn");
        }
    }
}

// --------------------------------------------------------------------- cct

fn arbitrary_paths(seed: u64, n: usize) -> Vec<(Vec<Frame>, bool)> {
    let mut rng = SimRng::seed_from(seed);
    (0..n)
        .map(|_| {
            let depth = 1 + rng.next_below(6);
            let path: Vec<Frame> = (0..depth)
                .map(|_| Frame {
                    kind: FrameKind::Call(FunctionId::from_index(rng.next_below(12))),
                    line: 1 + rng.next_below(5) as u32,
                })
                .collect();
            (path, rng.chance(0.4))
        })
        .collect()
}

#[test]
fn cct_conserves_samples() {
    let mut rng = SimRng::seed_from(0xCC7);
    for case in 0..48 {
        let seed = rng.next_u64() % 500;
        let n = 1 + rng.next_below(299);
        let paths = arbitrary_paths(seed, n);
        let mut cct = Cct::new();
        for (path, is_init) in &paths {
            cct.insert(path, *is_init);
        }
        assert_eq!(cct.total_samples(), n as u64, "case {case}");
        let inclusive = cct.inclusive();
        // Escalation conserves mass at the root…
        assert_eq!(inclusive[0], n as u64, "case {case}");
        // …and inclusive >= self everywhere.
        for (i, node) in cct.nodes().iter().enumerate() {
            assert!(inclusive[i] >= node.self_samples, "case {case}, node {i}");
        }
        // Parent inclusive >= child inclusive.
        for (i, node) in cct.nodes().iter().enumerate().skip(1) {
            let parent = node.parent.unwrap();
            assert!(inclusive[parent] >= inclusive[i], "case {case}, node {i}");
        }
    }
}

#[test]
fn cct_merge_conserves() {
    let mut rng = SimRng::seed_from(0x3E26E);
    for case in 0..48 {
        let seed_a = rng.next_u64() % 100;
        let seed_b = 100 + rng.next_u64() % 100;
        let n = 1 + rng.next_below(99);
        let a_paths = arbitrary_paths(seed_a, n);
        let b_paths = arbitrary_paths(seed_b, n);
        let mut a = Cct::new();
        for (p, i) in &a_paths {
            a.insert(p, *i);
        }
        let mut b = Cct::new();
        for (p, i) in &b_paths {
            b.insert(p, *i);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.total_samples(), 2 * n as u64, "case {case}");
        let init_total: u64 = merged.nodes().iter().map(|nd| nd.self_init_samples).sum();
        let expected: usize = a_paths.iter().chain(&b_paths).filter(|(_, i)| *i).count();
        assert_eq!(init_total, expected as u64, "case {case}");
    }
}

// ------------------------------------------------------------- utilization

#[test]
fn utilization_is_bounded() {
    let mut case_rng = SimRng::seed_from(0x07115);
    for case in 0..48 {
        let seed = case_rng.next_u64() % 300;
        let n = case_rng.next_below(200);

        // One app-module function, one library function.
        let mut b = AppBuilder::new("t");
        let lib = b.add_library("lib");
        let hm = b.add_app_module("handler", SimDuration::ZERO, 0);
        let lm = b.add_library_module("lib", SimDuration::ZERO, 0, false, lib);
        b.add_import(hm, lm, 2, ImportMode::Global).unwrap();
        let f_lib = b.add_function("f", lm, 1, vec![]);
        let f_main = b.add_function("main", hm, 1, vec![]);
        b.add_handler("main", f_main);
        let app = b.finish().unwrap();

        let mut rng = SimRng::seed_from(seed);
        let mut paths = PathTable::new();
        let samples: Vec<SampleRecord> = (0..n)
            .map(|_| {
                let in_lib = rng.chance(0.5);
                SampleRecord {
                    path: paths.intern(&[Frame {
                        kind: FrameKind::Call(if in_lib { f_lib } else { f_main }),
                        line: 1,
                    }]),
                    is_init: rng.chance(0.3),
                }
            })
            .collect();
        let u = Utilization::from_samples(&paths, &samples, &app);
        for v in u.by_package.values() {
            assert!((0.0..=1.0).contains(v), "case {case}: package util {v}");
        }
        for v in &u.by_library {
            assert!((0.0..=1.0).contains(v), "case {case}: library util {v}");
        }
        assert!(u.total_runtime_samples as usize <= n, "case {case}");
    }
}

// ------------------------------------------------------------------- pyrt

/// A randomized three-subpackage blueprint for loader/optimizer properties.
fn random_blueprint(seed: u64) -> AppBlueprint {
    let mut rng = SimRng::seed_from(seed);
    let hot_share = 0.3 + rng.next_f64() * 0.4;
    let dead_share = (1.0 - hot_share) * (0.3 + rng.next_f64() * 0.5);
    let rare_share = 1.0 - hot_share - dead_share;
    let sub = |name: &str, share: f64, api: usize| SubpackageBlueprint {
        name: name.to_string(),
        module_share: share,
        init_share: share,
        mem_share: share,
        side_effectful: false,
        api_functions: api,
        api_call_cost: SimDuration::from_millis(3),
    };
    AppBlueprint {
        name: format!("rand-{seed}"),
        app_init: SimDuration::from_millis(1),
        app_mem_kb: 64,
        libraries: vec![LibraryBlueprint {
            name: "randlib".to_string(),
            modules: 20 + rng.next_below(60),
            avg_depth: 3.0 + rng.next_f64() * 3.0,
            init_total: SimDuration::from_millis(200 + rng.next_below(800) as u64),
            mem_total_kb: 10_000,
            subpackages: vec![
                sub("hot", hot_share, 2),
                sub("dead", dead_share, 1),
                sub("rare", rare_share, 1),
            ],
        }],
        handlers: vec![
            HandlerBlueprint {
                name: "main".to_string(),
                local_work: SimDuration::from_millis(10),
                uses: vec![
                    UseSpec {
                        library: "randlib".to_string(),
                        subpackage: "hot".to_string(),
                        api_index: 0,
                        calls: 2,
                        branch_probability: None,
                        indirect: false,
                    },
                    UseSpec {
                        library: "randlib".to_string(),
                        subpackage: "rare".to_string(),
                        api_index: 0,
                        calls: 1,
                        branch_probability: Some(0.01),
                        indirect: false,
                    },
                ],
            },
            HandlerBlueprint {
                name: "admin".to_string(),
                local_work: SimDuration::from_millis(5),
                uses: vec![UseSpec {
                    library: "randlib".to_string(),
                    subpackage: "dead".to_string(),
                    api_index: 0,
                    calls: 1,
                    branch_probability: None,
                    indirect: false,
                }],
            },
        ],
    }
}

#[test]
fn loader_is_idempotent_and_cost_exact() {
    let mut case_rng = SimRng::seed_from(0x10AD);
    for case in 0..24 {
        let seed = case_rng.next_u64() % 10_000;
        let built = slimstart::appmodel::synth::build_app(&random_blueprint(seed), seed).unwrap();
        let app = std::sync::Arc::new(built.app);
        let mut p = Process::new(std::sync::Arc::clone(&app), 1.0);
        let root = app.module_by_name("handler").unwrap();
        let init = p.cold_start(root).unwrap();
        // The loader pays exactly the structural eager cost.
        assert_eq!(init, app.eager_init_cost(root), "case {case} (seed {seed})");
        // Second cold start is free (everything cached).
        let again = p.cold_start(root).unwrap();
        assert_eq!(again, SimDuration::ZERO, "case {case} (seed {seed})");
        assert_eq!(
            p.load_events().len(),
            app.eager_load_set(root).len(),
            "case {case} (seed {seed})"
        );
    }
}

#[test]
fn pipeline_never_faults_and_never_regresses() {
    let mut case_rng = SimRng::seed_from(0x919E);
    for case in 0..12 {
        let seed = case_rng.next_u64() % 2_000;
        let built = slimstart::appmodel::synth::build_app(&random_blueprint(seed), seed).unwrap();
        let mix = vec![("main".to_string(), 1.0), ("admin".to_string(), 0.0)];
        let config = slimstart::core::pipeline::PipelineConfig::default()
            .with_cold_starts(12)
            .with_platform(slimstart::platform::PlatformConfig::default().without_jitter());
        let out = slimstart::core::pipeline::Pipeline::new(config)
            .run(&built.app, &mix)
            .unwrap();
        assert!(
            out.speedup.e2e >= 0.999,
            "case {case} (seed {seed}): e2e regressed: {}",
            out.speedup.e2e
        );
        assert!(
            out.speedup.init >= 0.999,
            "case {case} (seed {seed}): init regressed: {}",
            out.speedup.init
        );
        // Optimized app still serves the admin handler correctly.
        let mut p = Process::new(std::sync::Arc::clone(&out.final_app), 1.0);
        let root = out.final_app.module_by_name("handler").unwrap();
        p.cold_start(root).unwrap();
        let admin = out.final_app.handler_by_name("admin").unwrap();
        assert!(
            p.invoke(admin, &mut SimRng::seed_from(seed)).is_ok(),
            "case {case} (seed {seed})"
        );
    }
}

// -------------------------------------------------------- interpreter paths

#[test]
fn branch_statistics_match_probability() {
    let mut case_rng = SimRng::seed_from(0xB3A9C4);
    for case in 0..24 {
        let p = case_rng.next_f64();
        let seed = case_rng.next_u64() % 200;
        let mut b = AppBuilder::new("t");
        let m = b.add_app_module("handler", SimDuration::ZERO, 0);
        let f = b.add_function(
            "main",
            m,
            1,
            vec![Stmt {
                line: 2,
                kind: StmtKind::Branch {
                    probability: p,
                    body: vec![Stmt {
                        line: 3,
                        kind: StmtKind::Work(SimDuration::from_millis(1)),
                    }],
                },
            }],
        );
        let h = b.add_handler("main", f);
        let app = std::sync::Arc::new(b.finish().unwrap());
        let mut proc = Process::new(std::sync::Arc::clone(&app), 1.0);
        let mut rng = SimRng::seed_from(seed);
        let n = 300;
        let mut fired = 0u32;
        for _ in 0..n {
            let out = proc.invoke(h, &mut rng).unwrap();
            if !out.exec_time.is_zero() {
                fired += 1;
            }
        }
        let rate = f64::from(fired) / f64::from(n);
        assert!(
            (rate - p).abs() < 0.15,
            "case {case} (seed {seed}): rate {rate} vs p {p}"
        );
    }
}

// ----------------------------------------------------- structural soundness

#[test]
fn eager_set_is_closed_under_global_imports() {
    let mut case_rng = SimRng::seed_from(0xEA93);
    for case in 0..16 {
        let seed = case_rng.next_u64() % 10_000;
        let built = slimstart::appmodel::synth::build_app(&random_blueprint(seed), seed).unwrap();
        let app = built.app;
        let root = app.module_by_name("handler").unwrap();
        let set: std::collections::HashSet<ModuleId> =
            app.eager_load_set(root).into_iter().collect();
        for m in &set {
            for decl in app.imports_of(*m) {
                if decl.mode.is_global() {
                    assert!(
                        set.contains(&decl.target),
                        "case {case} (seed {seed}): eager set must be transitively closed"
                    );
                }
            }
        }
    }
}
