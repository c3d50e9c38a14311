//! End-to-end pipeline tests across the paper's application catalog.

use slimstart::appmodel::catalog::{by_code, catalog};
use slimstart::core::pipeline::{Pipeline, PipelineConfig};
use slimstart::platform::PlatformConfig;

fn config(cold_starts: usize) -> PipelineConfig {
    PipelineConfig::default()
        .with_cold_starts(cold_starts)
        .with_platform(PlatformConfig::default().without_jitter())
}

#[test]
fn gate_separates_seventeen_from_five() {
    let mut above = 0;
    let mut below = 0;
    for entry in catalog() {
        let built = entry.build(3).expect("builds");
        let out = Pipeline::new(config(10))
            .run(&built.app, &entry.workload_weights())
            .expect("pipeline runs");
        if out.report.gate_passed {
            above += 1;
            assert!(entry.above_gate(), "{} unexpectedly above gate", entry.code);
        } else {
            below += 1;
            assert!(
                !entry.above_gate(),
                "{} unexpectedly below gate",
                entry.code
            );
            // Gated-out apps are left untouched.
            assert!(out.optimization.is_none());
            assert_eq!(out.speedup.e2e, 1.0);
        }
    }
    assert_eq!(
        above, 17,
        "paper: 17 of 22 applications show inefficiencies"
    );
    assert_eq!(below, 5);
}

#[test]
fn speedups_track_paper_shape() {
    // Spot-check a spread of suites: speedups within a generous band of the
    // published numbers (library-loading speedup vs Table II).
    for code in ["R-DV", "R-GB", "FL-SA", "FL-TWM", "FWB-MS", "CVE", "HFP"] {
        let entry = by_code(code).expect("exists");
        let built = entry.build(11).expect("builds");
        let out = Pipeline::new(config(60))
            .run(&built.app, &entry.workload_weights())
            .expect("pipeline runs");
        let rel = (out.speedup.load - entry.paper.init_speedup).abs() / entry.paper.init_speedup;
        assert!(
            rel < 0.15,
            "{code}: load speedup {:.2} vs paper {:.2}",
            out.speedup.load,
            entry.paper.init_speedup
        );
        let rel_e2e = (out.speedup.e2e - entry.paper.e2e_speedup).abs() / entry.paper.e2e_speedup;
        assert!(
            rel_e2e < 0.15,
            "{code}: e2e speedup {:.2} vs paper {:.2}",
            out.speedup.e2e,
            entry.paper.e2e_speedup
        );
        assert!(out.speedup.mem >= 0.99, "{code}: memory must not regress");
    }
}

#[test]
fn profiler_overhead_stays_under_ten_percent() {
    for code in ["R-GB", "FL-PMP", "FWB-CML"] {
        let entry = by_code(code).expect("exists");
        let built = entry.build(5).expect("builds");
        let out = Pipeline::new(config(40))
            .run(&built.app, &entry.workload_weights())
            .expect("pipeline runs");
        let overhead = out.profiler_overhead();
        assert!(
            (1.0..1.10).contains(&overhead),
            "{code}: overhead ratio {overhead}"
        );
    }
}

#[test]
fn expected_packages_are_deferred_and_skipped() {
    let entry = by_code("R-SA").expect("exists");
    let built = entry.build(7).expect("builds");
    let out = Pipeline::new(config(60))
        .run(&built.app, &entry.workload_weights())
        .expect("pipeline runs");
    let opt = out.optimization.as_ref().expect("optimized");
    assert!(
        opt.deferred_packages.iter().any(|p| p == "nltk.sem"),
        "nltk.sem must be lazy-loaded: {:?}",
        opt.deferred_packages
    );
    assert!(
        opt.skipped.iter().any(|(p, _)| p == "nltk.plugins"),
        "side-effectful package must be skipped: {:?}",
        opt.skipped
    );
    // Every edit is auditable: commented global import + insertion site.
    for edit in &opt.edits {
        assert!(edit.after.starts_with("# import "));
        assert!(!edit.file.is_empty());
    }
}

#[test]
fn rare_library_pays_only_on_the_rare_path() {
    let entry = by_code("CVE").expect("exists");
    let built = entry.build(7).expect("builds");
    let out = Pipeline::new(config(200))
        .run(&built.app, &entry.workload_weights())
        .expect("pipeline runs");
    let opt = out.optimization.as_ref().expect("optimized");
    assert!(opt.deferred_packages.iter().any(|p| p == "xmlschema"));
    // After optimization the cold-start init no longer contains xmlschema,
    // so mean init drops by at least its share.
    assert!(
        out.speedup.load > 1.15,
        "load speedup {:.2}",
        out.speedup.load
    );
    // p99 speedup is dented by the rare path (paper: 1.08x init p99).
    assert!(
        out.speedup.p99_e2e < out.speedup.e2e + 0.05,
        "rare-path deferral should not help the tail"
    );
}

#[test]
fn pipeline_is_deterministic() {
    let entry = by_code("FL-PWM").expect("exists");
    let built = entry.build(9).expect("builds");
    let a = Pipeline::new(config(30))
        .run(&built.app, &entry.workload_weights())
        .expect("runs");
    let b = Pipeline::new(config(30))
        .run(&built.app, &entry.workload_weights())
        .expect("runs");
    assert_eq!(a.baseline, b.baseline);
    assert_eq!(a.speedup, b.speedup);
    assert_eq!(a.report.findings, b.report.findings);
}

#[test]
fn report_renders_for_every_gated_app() {
    for entry in catalog().into_iter().filter(|e| e.above_gate()).take(5) {
        let built = entry.build(13).expect("builds");
        let out = Pipeline::new(config(30))
            .run(&built.app, &entry.workload_weights())
            .expect("runs");
        let text = slimstart::core::report::render(&out.report, &built.app);
        assert!(text.contains("SLIMSTART Summary"));
        assert!(text.contains("Gate: PASSED"));
        assert!(text.contains("Call Path"), "{}: {text}", entry.code);
    }
}

#[test]
fn cli_rejects_zero_cold_starts() {
    for command in [
        &["run", "R-GB"][..],
        &["lint", "R-GB"],
        &["fleet", "--apps", "2"],
        &["chaos", "--apps", "2"],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_slimstart"))
            .args(command)
            .args(["--cold-starts", "0"])
            .output()
            .expect("the CLI starts");
        assert_eq!(out.status.code(), Some(1), "{command:?}");
        assert!(out.stdout.is_empty(), "{command:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            "error: --cold-starts must be at least 1\n",
            "{command:?}"
        );
    }
}
