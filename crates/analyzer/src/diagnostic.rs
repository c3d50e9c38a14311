//! Structured diagnostics and their renderers.
//!
//! Every pass emits [`Diagnostic`] values: a stable lint id, a severity, a
//! source span projected from the application model (`file:line`), a
//! human-readable message and — where a mechanical fix exists — a suggested
//! [`CodeEdit`]. An [`AnalysisReport`] collects the diagnostics of one
//! analyzer run and renders them as compiler-style text or as JSON (the
//! same hand-rolled writer style as `slimstart-core`'s exporters, so the
//! workspace stays free of a JSON dependency).

use std::fmt;

use slimstart_appmodel::source::CodeEdit;
use slimstart_simcore::json::escape;

/// Diagnostic severity, ordered from least to most severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: quantifies a gap or an opportunity, not a defect.
    Info,
    /// A likely defect or anti-pattern that does not break the app.
    Warning,
    /// A correctness problem in the application as deployed.
    Error,
}

impl Severity {
    /// Lower-case label used by both renderers.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A source location in the projected Python-like source model.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Span {
    /// File path, e.g. `nltk/sem/__init__.py`.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
}

impl Span {
    /// Convenience constructor.
    pub fn new(file: impl Into<String>, line: u32) -> Span {
        Span {
            file: file.into(),
            line,
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.file, self.line)
    }
}

/// One finding of one analysis pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable lint identifier (e.g. `dead-import`) — CI configuration and
    /// tests key on this, so ids never change meaning between releases.
    pub lint_id: &'static str,
    /// How bad it is.
    pub severity: Severity,
    /// Where it is.
    pub span: Span,
    /// What it is.
    pub message: String,
    /// A mechanical fix, when one exists.
    pub suggestion: Option<CodeEdit>,
}

/// The collected output of one [`crate::Analyzer`] run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AnalysisReport {
    /// Name of the analyzed application.
    pub app_name: String,
    /// All diagnostics, sorted most-severe first, then by span.
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-severity diagnostics.
    pub fn warning_count(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// Number of info-severity diagnostics.
    fn info_count(&self) -> usize {
        self.count(Severity::Info)
    }

    fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Whether any diagnostic is an error — the CI-gate condition.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Diagnostics carrying a given lint id.
    pub fn with_lint<'a>(&'a self, lint_id: &'a str) -> impl Iterator<Item = &'a Diagnostic> + 'a {
        self.diagnostics
            .iter()
            .filter(move |d| d.lint_id == lint_id)
    }

    /// Sorts diagnostics most-severe first, then by file, line, lint id
    /// and finally message, so the ordering is a total order and renders
    /// (text, JSON, goldens) are byte-identical across runs — even when
    /// one pass emits several diagnostics for the same lint at the same
    /// span.
    pub fn sort(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| a.span.file.cmp(&b.span.file))
                .then_with(|| a.span.line.cmp(&b.span.line))
                .then_with(|| a.lint_id.cmp(b.lint_id))
                .then_with(|| a.message.cmp(&b.message))
        });
    }

    /// Renders the report as compiler-style text.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(
                out,
                "{}[{}] {}: {}",
                d.severity, d.lint_id, d.span, d.message
            );
            if let Some(edit) = &d.suggestion {
                for line in edit.to_string().lines() {
                    let _ = writeln!(out, "    {line}");
                }
            }
        }
        let _ = writeln!(
            out,
            "{}: {} error(s), {} warning(s), {} info(s)",
            self.app_name,
            self.error_count(),
            self.warning_count(),
            self.info_count()
        );
        out
    }

    /// Renders the report as a JSON document.
    pub fn render_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"app\": \"{}\",\n  \"errors\": {},\n  \"warnings\": {},\n  \"infos\": {},\n  \"diagnostics\": [",
            escape(&self.app_name),
            self.error_count(),
            self.warning_count(),
            self.info_count()
        );
        for (i, d) in self.diagnostics.iter().enumerate() {
            let comma = if i + 1 < self.diagnostics.len() {
                ","
            } else {
                ""
            };
            let _ = write!(
                out,
                "\n    {{\"lint\": \"{}\", \"severity\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\", \"suggestion\": {}}}{comma}",
                escape(d.lint_id),
                d.severity,
                escape(&d.span.file),
                d.span.line,
                escape(&d.message),
                match &d.suggestion {
                    None => "null".to_string(),
                    Some(e) => format!(
                        "{{\"file\": \"{}\", \"line\": {}, \"before\": \"{}\", \"after\": \"{}\", \"inserted\": \"{}\"}}",
                        escape(&e.file),
                        e.line,
                        escape(&e.before),
                        escape(&e.after),
                        escape(&e.inserted)
                    ),
                }
            );
        }
        if self.diagnostics.is_empty() {
            let _ = write!(out, "]\n}}");
        } else {
            let _ = write!(out, "\n  ]\n}}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> AnalysisReport {
        AnalysisReport {
            app_name: "demo".into(),
            diagnostics: vec![
                Diagnostic {
                    lint_id: "dead-import",
                    severity: Severity::Warning,
                    span: Span::new("handler.py", 3),
                    message: "global import of `xmlschema` is dead".into(),
                    suggestion: Some(CodeEdit {
                        file: "handler.py".into(),
                        line: 3,
                        before: "import xmlschema".into(),
                        after: "# import xmlschema".into(),
                        inserted: "nothing".into(),
                    }),
                },
                Diagnostic {
                    lint_id: "deferral-side-effects",
                    severity: Severity::Error,
                    span: Span::new("lib/__init__.py", 1),
                    message: "unsafe deferral".into(),
                    suggestion: None,
                },
            ],
        }
    }

    #[test]
    fn counts_by_severity() {
        let r = report();
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        assert_eq!(r.info_count(), 0);
        assert!(r.has_errors());
    }

    #[test]
    fn sort_puts_errors_first() {
        let mut r = report();
        r.sort();
        assert_eq!(r.diagnostics[0].severity, Severity::Error);
        assert_eq!(r.diagnostics[1].severity, Severity::Warning);
    }

    #[test]
    fn sort_is_a_total_order_with_message_tiebreak() {
        let d = |msg: &str| Diagnostic {
            lint_id: "dead-import",
            severity: Severity::Warning,
            span: Span::new("handler.py", 3),
            message: msg.into(),
            suggestion: None,
        };
        // Same severity, span and lint id — only the message differs.
        let mut r1 = AnalysisReport {
            app_name: "demo".into(),
            diagnostics: vec![d("b"), d("a"), d("c")],
        };
        let mut r2 = AnalysisReport {
            app_name: "demo".into(),
            diagnostics: vec![d("c"), d("b"), d("a")],
        };
        r1.sort();
        r2.sort();
        assert_eq!(r1, r2);
        assert_eq!(r1.render_json(), r2.render_json());
        let msgs: Vec<&str> = r1.diagnostics.iter().map(|d| d.message.as_str()).collect();
        assert_eq!(msgs, ["a", "b", "c"]);
    }

    #[test]
    fn text_render_includes_span_and_summary() {
        let text = report().render_text();
        assert!(text.contains("warning[dead-import] handler.py:3:"));
        assert!(text.contains("error[deferral-side-effects] lib/__init__.py:1:"));
        assert!(text.contains("demo: 1 error(s), 1 warning(s), 0 info(s)"));
    }

    #[test]
    fn json_render_is_well_formed() {
        let json = report().render_json();
        assert!(json.contains("\"app\": \"demo\""));
        assert!(json.contains("\"errors\": 1"));
        assert!(json.contains("\"lint\": \"dead-import\""));
        assert!(json.contains("\"suggestion\": {\"file\": \"handler.py\""));
        assert!(json.contains("\"suggestion\": null"));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn with_lint_filters() {
        let r = report();
        assert_eq!(r.with_lint("dead-import").count(), 1);
        assert_eq!(r.with_lint("nope").count(), 0);
    }
}
