//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **CCT escalation on/off** — path-inclusive vs leaf-only sample
//!    attribution (§III TC-2, the Lib-1 orchestrator problem);
//! 2. **Init-sample filtering on/off** — classifying samples taken during
//!    module init (the Lib-4 problem);
//! 3. **Utilization-threshold sweep** — sensitivity of detection to the 2 %
//!    rare-use threshold;
//! 4. **Sampling-period sweep** — profiler overhead vs detection recall.

use std::collections::BTreeMap;
use std::sync::Arc;

use slimstart_appmodel::app::AppBuilder;
use slimstart_appmodel::catalog::by_code;
use slimstart_appmodel::function::{Stmt, StmtKind};
use slimstart_appmodel::{Application, ImportMode};
use slimstart_bench::table::TextTable;
use slimstart_bench::{cold_starts, seed};
use slimstart_core::config::{DetectorConfig, SamplerConfig};
use slimstart_core::detect::detect;
use slimstart_core::initprof::InitBreakdown;
use slimstart_core::pipeline::{Pipeline, PipelineConfig};
use slimstart_core::profile::{PathTable, ProfileStore, SampleRecord};
use slimstart_core::sampler::SamplerAttachment;
use slimstart_core::utilization::Utilization;
use slimstart_platform::platform::{Platform, PlatformConfig};
use slimstart_simcore::time::SimDuration;
use slimstart_workload::generator::generate;
use slimstart_workload::spec::WorkloadSpec;

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

/// Profiles `app` under its workload and returns the collector store plus
/// baseline-equivalent e2e (profiled, close enough for ablations).
fn profile(
    app: &Application,
    mix: &[(String, f64)],
    colds: usize,
    sampler: SamplerConfig,
    seed: u64,
) -> (ProfileStore, f64, u64) {
    let store = ProfileStore::shared();
    let store_for_factory = Arc::clone(&store);
    let cfg = PlatformConfig::default()
        .without_jitter()
        .with_observer_factory(Arc::new(move || {
            Box::new(SamplerAttachment::new(
                sampler,
                Arc::clone(&store_for_factory),
            ))
        }));
    let mut platform = Platform::new(Arc::new(app.clone()), cfg, seed);
    let spec = WorkloadSpec::cold_starts_with_mix(mix, colds);
    let invs = generate(&spec, app, seed).expect("workload resolves");
    let records = platform.run(&invs).expect("no faults").to_vec();
    let e2e = records.iter().map(|r| r.e2e_ms()).sum::<f64>() / records.len() as f64;
    let colds = records.iter().filter(|r| r.cold).count() as u64;
    let store = store.lock().expect("profile store lock").clone();
    (store, e2e, colds)
}

/// Leaf-only utilization: the conventional flat profile (no escalation).
fn leaf_only_package_utilization(
    paths: &PathTable,
    samples: &[SampleRecord],
    app: &Application,
) -> BTreeMap<String, f64> {
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut total = 0u64;
    for s in samples {
        if s.is_init {
            continue;
        }
        total += 1;
        let leaf = paths.leaf(s.path).expect("sample path is never empty");
        for prefix in app.module(leaf.module(app)).package_prefixes() {
            *counts.entry(prefix.to_string()).or_insert(0) += 1;
        }
    }
    counts
        .into_iter()
        .map(|(k, c)| (k, c as f64 / total.max(1) as f64))
        .collect()
}

/// Orchestrator demo app (Lib-1): `orch` does tiny dispatch work, `worker`
/// burns the cycles. A flat profile starves `orch` of samples.
fn orchestrator_app() -> (Application, Vec<(String, f64)>) {
    let mut b = AppBuilder::new("orchestrator-demo");
    let l_orch = b.add_library("orch");
    let l_worker = b.add_library("worker");
    let h = b.add_app_module("handler", ms(1), 64);
    let orch = b.add_library_module("orch", ms(30), 512, false, l_orch);
    let worker = b.add_library_module("worker", ms(30), 512, false, l_worker);
    b.add_import(h, orch, 2, ImportMode::Global).unwrap();
    b.add_import(h, worker, 3, ImportMode::Global).unwrap();
    let f_crunch = b.add_function(
        "crunch",
        worker,
        10,
        vec![Stmt {
            line: 11,
            kind: StmtKind::Work(ms(99)),
        }],
    );
    let f_orch = b.add_function(
        "orchestrate",
        orch,
        10,
        vec![
            Stmt {
                line: 11,
                kind: StmtKind::Work(ms(1)), // 1 % self time
            },
            Stmt {
                line: 12,
                kind: StmtKind::call(f_crunch),
            },
        ],
    );
    let f_main = b.add_function(
        "main",
        h,
        4,
        vec![Stmt {
            line: 5,
            kind: StmtKind::call(f_orch),
        }],
    );
    b.add_handler("handler", f_main);
    (b.finish().unwrap(), vec![("handler".to_string(), 1.0)])
}

/// Lib-4 demo app: `heavy` has a huge init and is never used at runtime.
fn init_only_app() -> (Application, Vec<(String, f64)>) {
    let mut b = AppBuilder::new("init-only-demo");
    let l_heavy = b.add_library("heavy");
    let l_small = b.add_library("small");
    let h = b.add_app_module("handler", ms(1), 64);
    let heavy = b.add_library_module("heavy", ms(400), 4_096, false, l_heavy);
    let small = b.add_library_module("small", ms(5), 128, false, l_small);
    b.add_import(h, heavy, 2, ImportMode::Global).unwrap();
    b.add_import(h, small, 3, ImportMode::Global).unwrap();
    let f_small = b.add_function(
        "serve",
        small,
        10,
        vec![Stmt {
            line: 11,
            kind: StmtKind::Work(ms(40)),
        }],
    );
    let f_main = b.add_function(
        "main",
        h,
        4,
        vec![Stmt {
            line: 5,
            kind: StmtKind::call(f_small),
        }],
    );
    b.add_handler("handler", f_main);
    (b.finish().unwrap(), vec![("handler".to_string(), 1.0)])
}

fn ablation_escalation(colds: usize, seed: u64) {
    println!("-- Ablation 1: CCT escalation (path-inclusive) vs flat (leaf-only) attribution --\n");
    let (app, mix) = orchestrator_app();
    let (store, _, _) = profile(&app, &mix, colds, SamplerConfig::default(), seed);
    let inclusive = Utilization::from_samples(&store.paths, &store.samples, &app);
    let flat = leaf_only_package_utilization(&store.paths, &store.samples, &app);

    let mut t = TextTable::new(vec!["Package", "U (escalated)", "U (flat)", "flat verdict"]);
    for pkg in ["orch", "worker"] {
        let u_inc = inclusive.package(pkg);
        let u_flat = flat.get(pkg).copied().unwrap_or(0.0);
        t.row(vec![
            pkg.to_string(),
            format!("{:.1}%", u_inc * 100.0),
            format!("{:.1}%", u_flat * 100.0),
            if u_flat < 0.02 {
                "FALSELY flagged rare".to_string()
            } else {
                "ok".to_string()
            },
        ]);
    }
    println!("{}", t.render());
    println!("Without escalation the orchestrator library collects ~1% of samples and would");
    println!("be lazy-loaded even though it coordinates every request (paper Fig. 5, Lib-1).\n");
}

fn ablation_init_filter(colds: usize, seed: u64) {
    println!("-- Ablation 2: init-sample filtering on/off --\n");
    let (app, mix) = init_only_app();
    let (store, e2e, cold_count) = profile(&app, &mix, colds, SamplerConfig::default(), seed);

    // With filtering (SlimStart): init samples excluded from utilization.
    let filtered = Utilization::from_samples(&store.paths, &store.samples, &app);
    // Without filtering: treat every sample as runtime.
    let unfiltered_samples: Vec<SampleRecord> = store
        .samples
        .iter()
        .map(|s| SampleRecord {
            is_init: false,
            ..*s
        })
        .collect();
    let unfiltered = Utilization::from_samples(&store.paths, &unfiltered_samples, &app);

    let breakdown =
        InitBreakdown::from_store(&store, &app, cold_count, SimDuration::from_millis_f64(e2e));
    let det = DetectorConfig::default();
    let with_filter = detect(&app, &breakdown, &filtered, &det);
    let without_filter = detect(&app, &breakdown, &unfiltered, &det);

    let mut t = TextTable::new(vec!["Variant", "U(heavy)", "heavy flagged?"]);
    t.row(vec![
        "init filtering ON (SlimStart)".to_string(),
        format!("{:.1}%", filtered.package("heavy") * 100.0),
        with_filter
            .findings
            .iter()
            .any(|f| f.package == "heavy")
            .to_string(),
    ]);
    t.row(vec![
        "init filtering OFF".to_string(),
        format!("{:.1}%", unfiltered.package("heavy") * 100.0),
        without_filter
            .findings
            .iter()
            .any(|f| f.package == "heavy")
            .to_string(),
    ]);
    println!("{}", t.render());
    println!("Init-phase samples make the never-used `heavy` library look active; only");
    println!("filtering them exposes the optimization opportunity (paper Fig. 5, Lib-4).\n");
}

fn ablation_threshold_sweep(colds: usize, seed: u64) {
    println!("-- Ablation 3: rare-use threshold sweep (CVE-bin-tool) --\n");
    let entry = by_code("CVE").expect("catalog");
    let built = entry.build(seed).expect("builds");
    let mut t = TextTable::new(vec![
        "threshold",
        "findings",
        "detected init share",
        "xmlschema flagged?",
    ]);
    for threshold in [0.0, 0.005, 0.01, 0.02, 0.05, 0.10] {
        let config = PipelineConfig {
            cold_starts: colds,
            seed,
            detector: DetectorConfig {
                rare_threshold: threshold,
                ..DetectorConfig::default()
            },
            ..PipelineConfig::default()
        };
        let out = Pipeline::new(config)
            .run(&built.app, &entry.workload_weights())
            .expect("pipeline runs");
        t.row(vec![
            format!("{:.1}%", threshold * 100.0),
            out.report.findings.len().to_string(),
            format!("{:.1}%", out.report.detected_init_fraction() * 100.0),
            out.report
                .findings
                .iter()
                .any(|f| f.package == "xmlschema")
                .to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("Below ~1% the threshold misses xmlschema (0.78% utilization); far above 2%");
    println!("it starts flagging genuinely used packages. The paper's 2% sits in the knee.\n");
}

fn ablation_period_sweep(colds: usize, seed: u64) {
    println!("-- Ablation 4: sampling-period sweep (graph-bfs) --\n");
    let entry = by_code("R-GB").expect("catalog");
    let built = entry.build(seed).expect("builds");
    let mut t = TextTable::new(vec!["period (ms)", "overhead", "findings", "samples"]);
    for period_ms in [1u64, 2, 5, 10, 20, 50] {
        let config = PipelineConfig {
            cold_starts: colds,
            seed,
            sampler: SamplerConfig::default().with_period(ms(period_ms)),
            ..PipelineConfig::default()
        };
        let out = Pipeline::new(config)
            .run(&built.app, &entry.workload_weights())
            .expect("pipeline runs");
        t.row(vec![
            period_ms.to_string(),
            format!("{:.2}%", (out.profiler_overhead() - 1.0) * 100.0),
            out.report.findings.len().to_string(),
            out.cct.total_samples().to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("Finer sampling raises overhead roughly linearly while detection saturates —");
    println!("the default 5 ms period keeps overhead within Fig. 9's budget.\n");
}

fn main() {
    let colds = cold_starts().min(200);
    let seed = seed();
    println!("== Ablation studies (seed {seed}, {colds} cold starts) ==\n");
    ablation_escalation(colds, seed);
    ablation_init_filter(colds, seed);
    ablation_threshold_sweep(colds, seed);
    ablation_period_sweep(colds, seed);
}
