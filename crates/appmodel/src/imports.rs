//! Import declarations: the edges the optimizer rewrites.
//!
//! A *global* import sits at a module's top level; loading the importer
//! transitively loads the target — this is the cold-start cost the paper
//! measures. A *deferred* import has been pushed down to the target's first
//! use point; the target's load cost is paid only on executions that
//! actually reach it.

use crate::ids::ModuleId;

/// How an import is declared in the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ImportMode {
    /// Module-top-level `import X`: the target loads eagerly when the
    /// importer loads.
    Global,
    /// Function-local `import X` inserted at the first use point: the target
    /// loads on first use.
    Deferred,
}

impl ImportMode {
    /// Whether the import is loaded eagerly at importer-load time.
    pub fn is_global(self) -> bool {
        matches!(self, ImportMode::Global)
    }

    /// Whether the import has been deferred to first use.
    pub fn is_deferred(self) -> bool {
        matches!(self, ImportMode::Deferred)
    }
}

/// One import declaration inside a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImportDecl {
    /// The imported module.
    pub target: ModuleId,
    /// Current mode (the optimizer flips `Global` to `Deferred`).
    pub mode: ImportMode,
    /// Source line of the original global declaration.
    pub line: u32,
}

impl ImportDecl {
    /// Creates a global import of `target` at source `line`.
    pub fn global(target: ModuleId, line: u32) -> Self {
        ImportDecl {
            target,
            mode: ImportMode::Global,
            line,
        }
    }

    /// Creates a deferred import of `target` (original declaration at `line`).
    pub fn deferred(target: ModuleId, line: u32) -> Self {
        ImportDecl {
            target,
            mode: ImportMode::Deferred,
            line,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_predicates() {
        assert!(ImportMode::Global.is_global());
        assert!(!ImportMode::Global.is_deferred());
        assert!(ImportMode::Deferred.is_deferred());
        assert!(!ImportMode::Deferred.is_global());
    }

    #[test]
    fn constructors_set_mode() {
        let t = ModuleId::from_index(3);
        assert_eq!(ImportDecl::global(t, 7).mode, ImportMode::Global);
        assert_eq!(ImportDecl::deferred(t, 7).mode, ImportMode::Deferred);
        assert_eq!(ImportDecl::global(t, 7).line, 7);
    }
}
