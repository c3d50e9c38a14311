//! # slimstart-analyzer
//!
//! A multi-pass **static-analysis framework** over the application model:
//! the import graph, the static call graph and the projected source model.
//! Passes emit structured [`Diagnostic`]s — stable lint id, severity,
//! `file:line` span, message and (where mechanical) a suggested
//! [`CodeEdit`](slimstart_appmodel::source::CodeEdit) — collected into an
//! [`AnalysisReport`] with compiler-style text and JSON renderers.
//!
//! The five default passes:
//!
//! 1. **Deferral-safety verifier** ([`safety`]) — proves a candidate
//!    package deferral sound or returns the concrete
//!    [`SafetyViolation`]: a side-effectful module in the subtree, a
//!    side-effectful ancestor loaded only through the boundary, an
//!    import-time attribute touch before the first call, or a deferred-
//!    import cycle. The optimizer consults it before every deferral and
//!    the pipeline runs it as a pre-deployment gate. It runs against a
//!    [`ModuleIndex`], built once per application version.
//! 2. **Dead global imports** — imports no function of the importer
//!    reaches.
//! 3. **Duplicate/shadowed imports** — redundant global imports and
//!    deferrals nullified by another eager path.
//! 4. **Import-cycle reporting** — full cycle paths through deferred
//!    edges.
//! 5. **Over-approximation auditor** — diffs FaaSLight-style static
//!    reachability against profile-observed usage ([`ObservedUsage`]) and
//!    reports subtrees kept statically but never used (the paper's Fig. 2
//!    gap).
//!
//! On top of these, the [`antipattern`] module contributes six empirical
//! cold-start anti-pattern lints (`eager-monolithic-init`,
//! `oversized-dependency-tree`, `init-in-handler`,
//! `missing-connection-reuse`, `unused-heavy-library`,
//! `handler-hot-import`), each paired with a [`SuggestedFix`] and ranked
//! through a per-runtime [`RuntimeProfile`]; [`auto_fix`] applies the
//! verifier-approved subset and proves convergence by re-analysis.
//! [`Analyzer::with_antipattern_passes`] registers all eleven passes.
//!
//! # Example
//!
//! ```
//! use slimstart_analyzer::Analyzer;
//! use slimstart_appmodel::catalog::by_code;
//!
//! let built = by_code("R-GB").expect("catalog entry").build(7)?;
//! let report = Analyzer::with_default_passes().analyze(&built.app, None);
//! // Catalog apps as shipped carry no unsafe deployed deferrals.
//! assert!(!report.has_errors());
//! println!("{}", report.render_text());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod antipattern;
pub mod context;
pub mod diagnostic;
pub mod passes;
pub mod safety;
pub mod usage;

pub use antipattern::{
    auto_fix, collect_findings, estimated_cold_start_ms, lint_catalog, lint_info,
    AntipatternConfig, AntipatternFinding, AppliedFix, AutoFixReport, AutoFixResult, FixAction,
    LintInfo, RejectedFix, RuntimeProfile, SuggestedFix,
};
pub use context::{AnalysisContext, ModuleIndex};
pub use diagnostic::{AnalysisReport, Diagnostic, Severity, Span};
pub use passes::{
    AnalysisPass, Analyzer, DeadImportPass, DeferralSafetyPass, DuplicateImportPass,
    ImportCyclePass, OverApproximationPass,
};
pub use safety::{
    boundary_imports, verify_deferral, verify_deferred_import, BoundaryImport, SafetyViolation,
};
pub use usage::ObservedUsage;
