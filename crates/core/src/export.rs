//! JSON export of analysis artifacts.
//!
//! The paper's reports are JSON documents (Table IV is headed
//! `rainbowcake_sentiment_analysis.json`). This module serializes the
//! detection report and metric summaries to JSON with a small built-in
//! writer (no external JSON dependency), so the CLI and CI/CD integrations
//! can consume machine-readable output.

use std::fmt::Write as _;

use slimstart_platform::metrics::{AppMetrics, Speedup};
use slimstart_simcore::json::{escape, num};

use crate::detect::{InefficiencyReport, UsageClass};
use crate::pipeline::PipelineOutcome;
use crate::resilience::ResilienceOutcome;

/// Serializes an [`InefficiencyReport`] — the paper's report file format.
pub fn report_to_json(report: &InefficiencyReport) -> String {
    let mut out = String::new();
    out.push('{');
    let _ = write!(out, "\"application\":\"{}\",", escape(&report.app_name));
    let _ = write!(out, "\"gate_passed\":{},", report.gate_passed);
    let _ = write!(out, "\"init_share\":{},", num(report.init_share));
    let _ = write!(
        out,
        "\"total_init_ms\":{},",
        num(report.total_init.as_millis_f64())
    );
    let _ = write!(
        out,
        "\"e2e_mean_ms\":{},",
        num(report.e2e_mean.as_millis_f64())
    );
    out.push_str("\"libraries\":[");
    for (i, lib) in report.libraries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"utilization\":{},\"init_fraction\":{},\"init_ms\":{}}}",
            escape(&lib.name),
            num(lib.utilization),
            num(lib.init_fraction),
            num(lib.init_time.as_millis_f64())
        );
    }
    out.push_str("],\"findings\":[");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let class = match f.class {
            UsageClass::Unused => "unused",
            UsageClass::RarelyUsed => "rarely_used",
        };
        let _ = write!(
            out,
            "{{\"package\":\"{}\",\"class\":\"{class}\",\"utilization\":{},\"init_fraction\":{},\"init_ms\":{},\"deferrable\":{}}}",
            escape(&f.package),
            num(f.utilization),
            num(f.init_fraction),
            num(f.init_time.as_millis_f64()),
            f.deferrable
        );
    }
    out.push_str("]}");
    out
}

/// Serializes an [`AppMetrics`] summary.
fn metrics_to_json(metrics: &AppMetrics) -> String {
    format!(
        "{{\"invocations\":{},\"cold_starts\":{},\"mean_init_ms\":{},\"p99_init_ms\":{},\"mean_load_ms\":{},\"mean_e2e_ms\":{},\"p99_e2e_ms\":{},\"peak_mem_mb\":{}}}",
        metrics.invocations,
        metrics.cold_starts,
        num(metrics.mean_init_ms),
        num(metrics.p99_init_ms),
        num(metrics.mean_load_ms),
        num(metrics.mean_e2e_ms),
        num(metrics.p99_e2e_ms),
        num(metrics.peak_mem_mb),
    )
}

/// Serializes a [`Speedup`].
fn speedup_to_json(s: &Speedup) -> String {
    format!(
        "{{\"init\":{},\"load\":{},\"e2e\":{},\"p99_init\":{},\"p99_load\":{},\"p99_e2e\":{},\"mem\":{}}}",
        num(s.init),
        num(s.load),
        num(s.e2e),
        num(s.p99_init),
        num(s.p99_load),
        num(s.p99_e2e),
        num(s.mem),
    )
}

/// Serializes a [`ResilienceOutcome`] (emitted only for chaos-enabled runs).
fn resilience_to_json(r: &ResilienceOutcome) -> String {
    format!(
        "{{\"chaos_enabled\":{},\"faults_injected\":{},\"profile_retries\":{},\"deploy_retries\":{},\"backoff_ms\":{},\"degradation\":\"{}\",\"recovered\":{}}}",
        r.chaos_enabled,
        r.faults_injected,
        r.profile_retries,
        r.deploy_retries,
        num(r.backoff_ms),
        r.degradation.label(),
        r.recovered,
    )
}

/// Serializes a full [`PipelineOutcome`] summary (report, metrics, edits,
/// pre-deployment analysis). A `resilience` object is appended **only**
/// when the run had chaos enabled, keeping fault-free reports byte-identical
/// to releases that predate fault injection (golden-tested).
pub fn outcome_to_json(outcome: &PipelineOutcome) -> String {
    let mut out = String::new();
    out.push('{');
    let _ = write!(out, "\"report\":{},", report_to_json(&outcome.report));
    let _ = write!(out, "\"baseline\":{},", metrics_to_json(&outcome.baseline));
    let _ = write!(
        out,
        "\"optimized\":{},",
        metrics_to_json(&outcome.optimized)
    );
    let _ = write!(out, "\"speedup\":{},", speedup_to_json(&outcome.speedup));
    let _ = write!(
        out,
        "\"profiler_overhead\":{},",
        num(outcome.profiler_overhead())
    );
    out.push_str("\"edits\":[");
    if let Some(opt) = &outcome.optimization {
        for (i, e) in opt.edits.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"file\":\"{}\",\"line\":{},\"before\":\"{}\",\"after\":\"{}\",\"inserted\":\"{}\"}}",
                escape(&e.file),
                e.line,
                escape(&e.before),
                escape(&e.after),
                escape(&e.inserted)
            );
        }
    }
    out.push_str("],");
    let _ = write!(out, "\"pre_deploy\":{}", outcome.pre_deploy.render_json());
    if outcome.resilience.chaos_enabled {
        let _ = write!(
            out,
            ",\"resilience\":{}",
            resilience_to_json(&outcome.resilience)
        );
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimstart_appmodel::LibraryId;
    use slimstart_simcore::time::SimDuration;

    use crate::detect::{Finding, LibrarySummary};

    fn report() -> InefficiencyReport {
        InefficiencyReport {
            app_name: "rainbowcake_sentiment_analysis".into(),
            gate_passed: true,
            total_init: SimDuration::from_millis(2100),
            e2e_mean: SimDuration::from_millis(2200),
            init_share: 0.95,
            libraries: vec![LibrarySummary {
                library: LibraryId::from_index(0),
                name: "nltk".into(),
                utilization: 0.0533,
                init_fraction: 0.6993,
                init_time: SimDuration::from_millis(1500),
            }],
            findings: vec![Finding {
                package: "nltk.sem".into(),
                library: LibraryId::from_index(0),
                class: UsageClass::Unused,
                utilization: 0.0,
                init_time: SimDuration::from_millis(180),
                init_fraction: 0.0825,
                deferrable: true,
                skip_reason: None,
            }],
        }
    }

    #[test]
    fn report_json_is_well_formed() {
        let json = report_to_json(&report());
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"application\":\"rainbowcake_sentiment_analysis\""));
        assert!(json.contains("\"package\":\"nltk.sem\""));
        assert!(json.contains("\"class\":\"unused\""));
        assert!(json.contains("\"deferrable\":true"));
        // Balanced braces and brackets (cheap well-formedness check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn escaping_handles_specials() {
        assert_eq!(escape("a\"b"), "a\\\"b");
        assert_eq!(escape("a\\b"), "a\\\\b");
        assert_eq!(escape("a\nb"), "a\\nb");
        assert_eq!(escape("tab\there"), "tab\\there");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn numbers_are_finite_or_null() {
        assert_eq!(num(1.5), "1.500000");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
    }

    #[test]
    fn metrics_json_contains_fields() {
        use slimstart_appmodel::HandlerId;
        use slimstart_platform::invocation::InvocationRecord;
        use slimstart_simcore::time::SimTime;
        let rec = InvocationRecord {
            at: SimTime::ZERO,
            handler: HandlerId::from_index(0),
            cold: true,
            wait_time: SimDuration::ZERO,
            provision_time: SimDuration::from_millis(45),
            runtime_startup_time: SimDuration::from_millis(35),
            load_time: SimDuration::from_millis(400),
            init_latency: SimDuration::from_millis(480),
            exec_latency: SimDuration::from_millis(20),
            e2e_latency: SimDuration::from_millis(500),
            deferred_load_time: SimDuration::ZERO,
            peak_mem_kb: 102_400,
            container: 0,
        };
        let m = AppMetrics::aggregate(&[rec]);
        let json = metrics_to_json(&m);
        assert!(json.contains("\"cold_starts\":1"));
        assert!(json.contains("\"peak_mem_mb\":100.000000"));
    }
}
