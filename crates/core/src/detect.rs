//! Inefficiency detection: combining init overhead with utilization
//! (paper §IV-A2, "Detecting inefficient library usage").
//!
//! Libraries are ranked by initialization latency; those with significant
//! overhead but **no** runtime samples are flagged *unused*, those below the
//! 2 % utilization threshold are flagged *rarely used*. Detection works at
//! library granularity first and descends to sub-packages when a library is
//! hot overall but carries cold subtrees (the igraph-drawing pattern of
//! Table I).

use slimstart_analyzer::{ModuleIndex, SafetyViolation};
use slimstart_appmodel::{Application, LibraryId, Package};
use slimstart_simcore::time::SimDuration;

use crate::config::DetectorConfig;
use crate::initprof::InitBreakdown;
use crate::utilization::Utilization;

/// How a flagged package is (not) used under the observed workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UsageClass {
    /// Zero runtime samples across the whole profiling window: with enough
    /// executions, confidently unused (law of large numbers, §II-B).
    Unused,
    /// Below the rare-use threshold (2 % of runtime samples).
    RarelyUsed,
}

/// Why the optimizer will not defer a flagged package.
///
/// Each variant corresponds to one violation class of the
/// [`slimstart_analyzer`] deferral-safety verifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// The package's top level performs observable side effects; moving its
    /// execution point would change program behaviour.
    SideEffects,
    /// A side-effectful *ancestor* package outside the subtree loads
    /// eagerly only through the boundary imports being deferred.
    ParentSideEffects,
    /// A function touches an attribute of the package before the first call
    /// that would trigger the deferred import.
    ImportTimeTouch,
    /// Deferring the boundary imports would close a cycle among deferred
    /// import edges.
    DeferredCycle,
}

impl SkipReason {
    /// Short human-readable label, used by report rendering.
    pub fn label(self) -> &'static str {
        match self {
            SkipReason::SideEffects => "side effects",
            SkipReason::ParentSideEffects => "parent side effects",
            SkipReason::ImportTimeTouch => "import-time touch",
            SkipReason::DeferredCycle => "deferred-import cycle",
        }
    }

    /// Maps a verifier violation to the matching skip reason.
    pub fn from_violation(violation: &SafetyViolation) -> SkipReason {
        match violation {
            SafetyViolation::SideEffectfulModule { .. } => SkipReason::SideEffects,
            SafetyViolation::ParentSideEffects { .. } => SkipReason::ParentSideEffects,
            SafetyViolation::ImportTimeTouch { .. } => SkipReason::ImportTimeTouch,
            SafetyViolation::DeferredCycle { .. } => SkipReason::DeferredCycle,
        }
    }
}

/// One flagged package.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Dotted package path (a library root or a sub-package).
    pub package: String,
    /// Owning library.
    pub library: LibraryId,
    /// Usage classification.
    pub class: UsageClass,
    /// Path-inclusive utilization (share of runtime samples).
    pub utilization: f64,
    /// Mean per-cold-start initialization time of the subtree.
    pub init_time: SimDuration,
    /// Share of total initialization time.
    pub init_fraction: f64,
    /// Whether deferral is safe.
    pub deferrable: bool,
    /// Why not, when it is not.
    pub skip_reason: Option<SkipReason>,
}

/// Per-library overview rows (the top half of the paper's report tables).
#[derive(Debug, Clone, PartialEq)]
pub struct LibrarySummary {
    /// Library id.
    pub library: LibraryId,
    /// Library name.
    pub name: String,
    /// U(L).
    pub utilization: f64,
    /// Share of total initialization time.
    pub init_fraction: f64,
    /// Mean per-cold-start initialization time.
    pub init_time: SimDuration,
}

/// The full detection output for one application.
#[derive(Debug, Clone, PartialEq)]
pub struct InefficiencyReport {
    /// Application name.
    pub app_name: String,
    /// Whether the 10 % gate passed (no findings are produced otherwise).
    pub gate_passed: bool,
    /// Mean total initialization time per cold start.
    pub total_init: SimDuration,
    /// Mean end-to-end latency.
    pub e2e_mean: SimDuration,
    /// Initialization share of end-to-end time.
    pub init_share: f64,
    /// Per-library overview.
    pub libraries: Vec<LibrarySummary>,
    /// Flagged packages, ranked by initialization time (descending).
    pub findings: Vec<Finding>,
}

impl InefficiencyReport {
    /// Total init share of end-to-end time covered by all findings — the
    /// DYN upper bound of Fig. 2.
    pub fn detected_init_fraction(&self) -> f64 {
        self.findings.iter().map(|f| f.init_fraction).sum()
    }
}

/// Runs detection.
pub fn detect(
    app: &Application,
    breakdown: &InitBreakdown,
    utilization: &Utilization,
    config: &DetectorConfig,
) -> InefficiencyReport {
    let gate_passed = breakdown.passes_gate(config.gate_threshold);

    let libraries: Vec<LibrarySummary> = app
        .libraries()
        .iter()
        .enumerate()
        .map(|(i, lib)| {
            let id = LibraryId::from_index(i);
            LibrarySummary {
                library: id,
                name: lib.name().to_string(),
                utilization: utilization.library(id),
                init_fraction: breakdown.package_init_fraction(lib.name()),
                init_time: breakdown
                    .by_library
                    .get(i)
                    .copied()
                    .unwrap_or(SimDuration::ZERO),
            }
        })
        .collect();

    let mut findings = Vec::new();
    if gate_passed {
        let index = ModuleIndex::build(app);
        for (i, lib) in app.libraries().iter().enumerate() {
            let id = LibraryId::from_index(i);
            descend(
                app,
                &index,
                index.tree().package(app, lib.name()),
                1,
                id,
                breakdown,
                utilization,
                config,
                &mut findings,
            );
        }
        findings.sort_by_key(|f| std::cmp::Reverse(f.init_time));
    }

    InefficiencyReport {
        app_name: app.name().to_string(),
        gate_passed,
        total_init: breakdown.total,
        e2e_mean: breakdown.e2e_mean,
        init_share: breakdown.total_share(),
        libraries,
        findings,
    }
}

fn qualifies(util: f64, init_fraction: f64, config: &DetectorConfig) -> bool {
    util < config.rare_threshold && init_fraction >= config.min_init_share
}

/// Hierarchical descent (Fig. 6): flag the *highest* node whose whole
/// subtree qualifies; otherwise recurse into its children — down to
/// `config.max_depth` — so a mostly-hot package can still shed a cold
/// child. The depth cap exists because utilization evidence weakens with
/// depth: a deep module with no samples may still define names its hot
/// siblings reference at definition time.
#[allow(clippy::too_many_arguments)]
fn descend(
    app: &Application,
    index: &ModuleIndex,
    package: Package<'_>,
    depth: usize,
    library: LibraryId,
    breakdown: &InitBreakdown,
    utilization: &Utilization,
    config: &DetectorConfig,
    findings: &mut Vec<Finding>,
) {
    let path = package.path();
    let util = utilization.package(path);
    if qualifies(util, breakdown.package_init_fraction(path), config) {
        findings.push(make_finding(app, index, path, library, util, breakdown));
        return; // whole subtree flagged; no need to descend further
    }
    if depth >= config.max_depth {
        return;
    }
    // Children in the order they were added: `detect` stable-sorts the
    // findings by init time, so this order breaks its ties.
    for child in index.tree().children(app, &package) {
        descend(
            app,
            index,
            child,
            depth + 1,
            library,
            breakdown,
            utilization,
            config,
            findings,
        );
    }
}

fn make_finding(
    app: &Application,
    index: &ModuleIndex,
    package: &str,
    library: LibraryId,
    utilization: f64,
    breakdown: &InitBreakdown,
) -> Finding {
    // The deferral-safety verifier replaces the old single side-effect
    // subtree scan: it additionally proves parent-package safety, checks
    // import-time touches and rejects deferred-import cycles.
    let skip_reason = index
        .verify_deferral(app, package)
        .err()
        .map(|v| SkipReason::from_violation(&v));
    Finding {
        package: package.to_string(),
        library,
        class: if utilization == 0.0 {
            UsageClass::Unused
        } else {
            UsageClass::RarelyUsed
        },
        utilization,
        init_time: breakdown
            .by_package
            .get(package)
            .copied()
            .unwrap_or(SimDuration::ZERO),
        init_fraction: breakdown.package_init_fraction(package),
        deferrable: skip_reason.is_none(),
        skip_reason,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::collections::HashMap;

    use slimstart_appmodel::app::AppBuilder;
    use slimstart_appmodel::imports::ImportMode;
    use slimstart_appmodel::ModuleId;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    /// lib with hot + dead + sfx sub-packages, plus a rare library.
    fn app() -> Application {
        let mut b = AppBuilder::new("t");
        let lib = b.add_library("pandas");
        let rare_lib = b.add_library("xmlschema");
        let h = b.add_app_module("handler", ms(1), 0);
        let root = b.add_library_module("pandas", ms(2), 0, false, lib);
        let hot = b.add_library_module("pandas.core", ms(20), 0, false, lib);
        let dead = b.add_library_module("pandas.plotting", ms(60), 0, false, lib);
        let sfx = b.add_library_module("pandas.plugins", ms(10), 0, true, lib);
        let xml = b.add_library_module("xmlschema", ms(30), 0, false, rare_lib);
        b.add_import(h, root, 2, ImportMode::Global).unwrap();
        b.add_import(h, xml, 3, ImportMode::Global).unwrap();
        b.add_import(root, hot, 2, ImportMode::Global).unwrap();
        b.add_import(root, dead, 3, ImportMode::Global).unwrap();
        b.add_import(root, sfx, 4, ImportMode::Global).unwrap();
        let f = b.add_function("main", h, 4, vec![]);
        b.add_handler("main", f);
        b.finish().unwrap()
    }

    fn breakdown(app: &Application, e2e: SimDuration) -> InitBreakdown {
        let mut by_module = HashMap::new();
        for (i, m) in app.modules().iter().enumerate() {
            by_module.insert(ModuleId::from_index(i), m.init_cost());
        }
        let mut by_library = vec![SimDuration::ZERO; app.libraries().len()];
        for (m, d) in &by_module {
            if let Some(l) = app.module(*m).library() {
                by_library[l.index()] += *d;
            }
        }
        let tree = app.package_tree();
        let mut by_package = BTreeMap::new();
        for package in tree.packages(app) {
            by_package.insert(
                package.path().to_string(),
                tree.members(&package)
                    .iter()
                    .map(|m| app.module(*m).init_cost())
                    .sum(),
            );
        }
        InitBreakdown {
            cold_starts: 1,
            total: by_module.values().copied().sum(),
            by_module,
            by_library,
            by_package,
            e2e_mean: e2e,
        }
    }

    fn utilization(pairs: &[(&str, f64)], total: u64) -> Utilization {
        Utilization {
            total_runtime_samples: total,
            by_library: vec![],
            by_package: pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            by_module: HashMap::new(),
        }
    }

    fn config() -> DetectorConfig {
        DetectorConfig::default()
    }

    #[test]
    fn flags_unused_subpackage_and_rare_library() {
        let app = app();
        let bd = breakdown(&app, ms(150));
        let util = utilization(
            &[
                ("pandas", 0.9),
                ("pandas.core", 0.9),
                ("pandas.plotting", 0.0),
                ("pandas.plugins", 0.0),
                ("xmlschema", 0.008),
            ],
            1000,
        );
        let report = detect(&app, &bd, &util, &config());
        assert!(report.gate_passed);
        let names: Vec<&str> = report.findings.iter().map(|f| f.package.as_str()).collect();
        assert_eq!(
            names,
            vec!["pandas.plotting", "xmlschema", "pandas.plugins"]
        );
        let plotting = &report.findings[0];
        assert_eq!(plotting.class, UsageClass::Unused);
        assert!(plotting.deferrable);
        let xml = &report.findings[1];
        assert_eq!(xml.class, UsageClass::RarelyUsed);
        let plugins = &report.findings[2];
        assert!(!plugins.deferrable);
        assert_eq!(plugins.skip_reason, Some(SkipReason::SideEffects));
    }

    #[test]
    fn hot_packages_are_not_flagged() {
        let app = app();
        let bd = breakdown(&app, ms(150));
        let util = utilization(
            &[
                ("pandas", 0.9),
                ("pandas.core", 0.9),
                ("pandas.plotting", 0.5),
                ("pandas.plugins", 0.5),
                ("xmlschema", 0.5),
            ],
            1000,
        );
        let report = detect(&app, &bd, &util, &config());
        assert!(report.findings.is_empty());
    }

    #[test]
    fn whole_library_flagged_when_root_is_cold() {
        let app = app();
        let bd = breakdown(&app, ms(150));
        let util = utilization(
            &[
                ("pandas", 0.0),
                ("pandas.core", 0.0),
                ("pandas.plotting", 0.0),
                ("pandas.plugins", 0.0),
                ("xmlschema", 0.9),
            ],
            1000,
        );
        let report = detect(&app, &bd, &util, &config());
        // One finding covering the whole pandas library — not three
        // sub-package findings.
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].package, "pandas");
        // The library contains a side-effectful module → not deferrable.
        assert!(!report.findings[0].deferrable);
    }

    #[test]
    fn gate_suppresses_findings() {
        let app = app();
        // e2e so large that init share is < 10 %.
        let bd = breakdown(&app, ms(10_000));
        let util = utilization(&[("pandas.plotting", 0.0)], 1000);
        let report = detect(&app, &bd, &util, &config());
        assert!(!report.gate_passed);
        assert!(report.findings.is_empty());
        assert!(report.init_share < 0.10);
    }

    #[test]
    fn tiny_packages_ignored_as_noise() {
        let app = app();
        let bd = breakdown(&app, ms(150));
        let mut cfg = config();
        cfg.min_init_share = 0.50; // absurdly high floor
        let util = utilization(
            &[
                ("pandas", 0.9),
                ("pandas.core", 0.9),
                ("pandas.plotting", 0.0),
                ("pandas.plugins", 0.0),
                ("xmlschema", 0.9),
            ],
            1000,
        );
        let report = detect(&app, &bd, &util, &cfg);
        assert!(report.findings.is_empty());
    }

    #[test]
    fn detected_fraction_sums_findings() {
        let app = app();
        let bd = breakdown(&app, ms(150));
        let util = utilization(
            &[
                ("pandas", 0.9),
                ("pandas.core", 0.9),
                ("pandas.plotting", 0.0),
                ("pandas.plugins", 0.0),
                ("xmlschema", 0.008),
            ],
            1000,
        );
        let report = detect(&app, &bd, &util, &config());
        // (60 + 10 + 30) / 123 of init time.
        let expected = 100.0 / 123.0;
        assert!((report.detected_init_fraction() - expected).abs() < 1e-9);
    }

    #[test]
    fn detection_descends_below_depth_two() {
        // pandas.core is hot overall, but pandas.core.styles is dead: the
        // hierarchical descent must flag the grandchild.
        let mut b = AppBuilder::new("t");
        let lib = b.add_library("pandas");
        let h = b.add_app_module("handler", ms(1), 0);
        let root = b.add_library_module("pandas", ms(2), 0, false, lib);
        let core = b.add_library_module("pandas.core", ms(20), 0, false, lib);
        let styles = b.add_library_module("pandas.core.styles", ms(30), 0, false, lib);
        b.add_import(h, root, 2, ImportMode::Global).unwrap();
        b.add_import(root, core, 2, ImportMode::Global).unwrap();
        b.add_import(core, styles, 2, ImportMode::Global).unwrap();
        let f = b.add_function("main", h, 4, vec![]);
        b.add_handler("main", f);
        let app = b.finish().unwrap();
        let bd = breakdown(&app, ms(60));
        let util = utilization(
            &[
                ("pandas", 0.9),
                ("pandas.core", 0.9),
                ("pandas.core.styles", 0.0),
            ],
            1000,
        );
        // At the paper's default depth (2) the grandchild is out of scope.
        let shallow = detect(&app, &bd, &util, &config());
        assert!(shallow.findings.is_empty());
        // Deeper descent opts in via max_depth.
        let mut deep_cfg = config();
        deep_cfg.max_depth = 3;
        let report = detect(&app, &bd, &util, &deep_cfg);
        let names: Vec<&str> = report.findings.iter().map(|f| f.package.as_str()).collect();
        assert_eq!(names, vec!["pandas.core.styles"]);
    }

    #[test]
    fn library_summaries_cover_all_libraries() {
        let app = app();
        let bd = breakdown(&app, ms(150));
        let util = utilization(&[], 0);
        let report = detect(&app, &bd, &util, &config());
        assert_eq!(report.libraries.len(), 2);
        assert_eq!(report.libraries[0].name, "pandas");
        assert_eq!(report.libraries[0].init_time, ms(92));
    }
}
