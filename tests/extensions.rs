//! Integration tests for the production-path extensions: the binary wire
//! format, the asynchronous collector, JSON export, the iterative pipeline
//! and volume-aware adaptive thresholding.

use std::sync::Arc;

use slimstart::appmodel::catalog::by_code;
use slimstart::core::collector::AsyncCollector;
use slimstart::core::export::{outcome_to_json, report_to_json};
use slimstart::core::pipeline::{Pipeline, PipelineConfig};
use slimstart::core::wire::ProfileBatch;
use slimstart::platform::PlatformConfig;

fn config(cold_starts: usize) -> PipelineConfig {
    PipelineConfig::default()
        .with_cold_starts(cold_starts)
        .with_platform(PlatformConfig::default().without_jitter())
}

#[test]
fn async_collector_pipeline_matches_direct_pipeline() {
    let entry = by_code("R-GB").expect("exists");
    let built = entry.build(91).expect("builds");

    let direct = Pipeline::new(config(40))
        .run(&built.app, &entry.workload_weights())
        .expect("direct runs");

    let mut async_cfg = config(40);
    async_cfg.async_collector = true;
    let channelled = Pipeline::new(async_cfg)
        .run(&built.app, &entry.workload_weights())
        .expect("async runs");

    // The transport must not change the analysis: same findings, same
    // optimization, same measured speedups.
    assert_eq!(direct.report.findings, channelled.report.findings);
    assert_eq!(direct.speedup, channelled.speedup);
    assert_eq!(direct.cct.total_samples(), channelled.cct.total_samples());
}

#[test]
fn wire_round_trip_through_a_real_profile() {
    // Profile a real app, push everything through encode/decode, and verify
    // sample-for-sample equality.
    let entry = by_code("R-SA").expect("exists");
    let built = entry.build(93).expect("builds");
    let out = Pipeline::new(config(20))
        .run(&built.app, &entry.workload_weights())
        .expect("runs");
    // Rebuild a batch from the outcome's CCT leaves is lossy; instead run
    // the collector directly with a live profiling platform.
    let store = slimstart::core::profile::ProfileStore::shared();
    let sampler_cfg = slimstart::core::SamplerConfig::default();
    let mut collector = AsyncCollector::start();
    let sender = collector.sender();
    let observer_cfg = PlatformConfig::default()
        .without_jitter()
        .with_observer_factory(Arc::new(move || {
            Box::new(slimstart::core::SamplerAttachment::with_transport(
                sampler_cfg,
                sender.clone(),
            ))
        }));
    let spec = slimstart::workload::spec::WorkloadSpec::cold_starts_with_mix(
        &entry.workload_weights(),
        20,
    );
    let invs = slimstart::workload::generator::generate(&spec, &built.app, 5).expect("workload");
    let mut platform =
        slimstart::platform::platform::Platform::new(Arc::new(built.app.clone()), observer_cfg, 5);
    platform.run(&invs).expect("no faults");
    let stats = collector.finish();
    assert!(stats.batches >= 20, "one batch per invocation: {stats:?}");
    assert_eq!(stats.decode_errors, 0);
    assert!(stats.bytes > 1_000, "real byte volume: {stats:?}");
    let collected = collector.store();
    let collected = collected.lock().expect("profile store lock");
    assert!(collected.samples.len() > 100);
    // All init observations survived the wire.
    let nltk = built.app.module_by_name("nltk").expect("nltk");
    assert!(collected.init_time(nltk).as_micros() > 0);
    let _ = (out, store);
}

#[test]
fn json_export_is_parseable_shape() {
    let entry = by_code("CVE").expect("exists");
    let built = entry.build(95).expect("builds");
    let out = Pipeline::new(config(60))
        .run(&built.app, &entry.workload_weights())
        .expect("runs");
    let json = outcome_to_json(&out);
    // Structural well-formedness without a JSON parser dependency.
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
    assert!(json.contains("\"application\":\"cve-bin-tool\""));
    assert!(json.contains("\"package\":\"xmlschema\""));
    assert!(json.contains("\"speedup\""));
    assert!(json.contains("\"edits\""));
    let report_json = report_to_json(&out.report);
    assert!(report_json.contains("\"gate_passed\":true"));
}

#[test]
fn iterative_pipeline_reaches_fixpoint_in_two_rounds() {
    let entry = by_code("R-GB").expect("exists");
    let built = entry.build(97).expect("builds");
    let rounds = Pipeline::new(config(40))
        .run_iterative(&built.app, &entry.workload_weights(), 5)
        .expect("runs");
    // Round 1 optimizes; round 2 finds nothing new and stops the loop.
    assert_eq!(rounds.len(), 2, "expected fixpoint after one optimization");
    assert!(rounds[0].optimized_anything());
    assert!(!rounds[1].optimized_anything());
    // The final deployment keeps round 1's speedup.
    assert!(rounds[0].speedup.e2e > 1.3);
}

#[test]
fn iterative_pipeline_on_gated_app_stops_immediately() {
    let entry = by_code("FWB-FLT").expect("exists");
    let built = entry.build(99).expect("builds");
    let rounds = Pipeline::new(config(10))
        .run_iterative(&built.app, &entry.workload_weights(), 4)
        .expect("runs");
    assert_eq!(rounds.len(), 1);
    assert!(!rounds[0].report.gate_passed);
}

#[test]
fn batch_encoding_scales_with_content() {
    let empty = ProfileBatch::default();
    let mut paths = slimstart::core::profile::PathTable::new();
    let path = paths.intern(&[slimstart::pyrt::stack::Frame {
        kind: slimstart::pyrt::stack::FrameKind::Call(slimstart::appmodel::FunctionId::from_index(
            1,
        )),
        line: 3,
    }]);
    let small = ProfileBatch {
        samples: vec![slimstart::core::profile::SampleRecord {
            path,
            is_init: false,
        }],
        paths,
        init_micros: Default::default(),
    };
    assert!(small.encoded_len() > empty.encoded_len());
    assert_eq!(small.encode().len(), small.encoded_len());
}
