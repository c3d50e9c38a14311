//! Modules: the unit of loading, initialization cost and memory footprint.
//!
//! A module mirrors a Python module: importing it for the first time executes
//! its top level, which costs [`init_cost`](Module::init_cost) virtual time
//! and pins [`mem_kb`](Module::mem_kb) of memory for the life of the process.
//! Modules flagged [`side_effectful`](Module::side_effectful) perform
//! observable work at import time (registering plugins, opening files) and
//! must therefore never be converted to deferred loading by the optimizer.

use slimstart_simcore::time::SimDuration;

use crate::ids::LibraryId;

/// A loadable module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Module {
    name: String,
    file: String,
    init_cost: SimDuration,
    mem_kb: u64,
    side_effectful: bool,
    library: Option<LibraryId>,
    stripped: bool,
}

impl Module {
    /// Creates a module with the given dotted `name`.
    ///
    /// The source file path is derived from the name the way CPython lays out
    /// packages: `nltk.sem` becomes `nltk/sem/__init__.py` when the module
    /// has children, but since arity is not known up front we use the leaf
    /// form `nltk/sem.py` for plain modules and let
    /// [`Module::mark_package`] switch to the `__init__.py` form.
    pub(crate) fn new(
        name: impl Into<String>,
        init_cost: SimDuration,
        mem_kb: u64,
        side_effectful: bool,
        library: Option<LibraryId>,
    ) -> Self {
        let name = name.into();
        let file = format!("{}.py", name.replace('.', "/"));
        Module {
            name,
            file,
            init_cost,
            mem_kb,
            side_effectful,
            library,
            stripped: false,
        }
    }

    /// The dotted module path, e.g. `nltk.sem.logic`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The modeled source file path, e.g. `nltk/sem/logic.py`.
    pub fn file(&self) -> &str {
        &self.file
    }

    /// Virtual time spent executing this module's top level on first load
    /// (excluding the cost of modules it imports).
    pub fn init_cost(&self) -> SimDuration {
        self.init_cost
    }

    /// Resident memory pinned once the module is loaded, in KiB.
    pub fn mem_kb(&self) -> u64 {
        self.mem_kb
    }

    /// Whether the module's top level performs observable side effects,
    /// making deferral unsafe.
    pub fn side_effectful(&self) -> bool {
        self.side_effectful
    }

    /// The library this module belongs to, or `None` for application code.
    pub fn library(&self) -> Option<LibraryId> {
        self.library
    }

    /// Whether a static optimizer (FaaSLight) removed this module from the
    /// deployment package.
    pub fn stripped(&self) -> bool {
        self.stripped
    }

    /// Marks the module as removed from the package. Calling into a stripped
    /// module at runtime is a fault (see `slimstart-pyrt`).
    pub fn set_stripped(&mut self, stripped: bool) {
        self.stripped = stripped;
    }

    /// Switches the modeled file path to the package form
    /// (`pkg/__init__.py`). Idempotent.
    pub(crate) fn mark_package(&mut self) {
        let dir = self.name.replace('.', "/");
        self.file = format!("{dir}/__init__.py");
    }

    /// Every dotted prefix of the name, outermost first, ending with the
    /// name itself (`nltk.sem.logic` → `nltk`, `nltk.sem`,
    /// `nltk.sem.logic`). The name is split at every `.` byte, so an empty
    /// component yields a prefix ending in `.` (`a..b` → `a`, `a.`, `a..b`).
    pub fn package_prefixes(&self) -> impl Iterator<Item = &str> + '_ {
        let name = self.name.as_str();
        name.match_indices('.')
            .map(move |(end, _)| &name[..end])
            .chain(std::iter::once(name))
    }

    /// The depth of the module in the package hierarchy
    /// (`nltk` → 1, `nltk.sem.logic` → 3).
    pub fn depth(&self) -> usize {
        self.name.split('.').count()
    }

    /// Whether this module lies inside the dotted package `prefix`
    /// (inclusive: a package contains itself).
    ///
    /// # Example
    ///
    /// prefix `nltk.sem` contains `nltk.sem` and `nltk.sem.logic` but not
    /// `nltk.semantics`.
    pub fn in_package(&self, prefix: &str) -> bool {
        self.name == prefix
            || (self.name.len() > prefix.len()
                && self.name.starts_with(prefix)
                && self.name.as_bytes()[prefix.len()] == b'.')
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn module(name: &str) -> Module {
        Module::new(name, SimDuration::from_millis(1), 10, false, None)
    }

    #[test]
    fn file_path_derivation() {
        assert_eq!(module("handler").file(), "handler.py");
        assert_eq!(module("nltk.sem.logic").file(), "nltk/sem/logic.py");
    }

    #[test]
    fn mark_package_switches_to_init_form() {
        let mut m = module("nltk.sem");
        assert_eq!(m.file(), "nltk/sem.py");
        m.mark_package();
        assert_eq!(m.file(), "nltk/sem/__init__.py");
        m.mark_package();
        assert_eq!(m.file(), "nltk/sem/__init__.py");
    }

    #[test]
    fn depth_counts_components() {
        assert_eq!(module("nltk").depth(), 1);
        assert_eq!(module("nltk.sem.logic").depth(), 3);
    }

    #[test]
    fn package_prefixes_run_outermost_first_and_end_with_the_name() {
        let prefixes = |name: &str| -> Vec<String> {
            module(name).package_prefixes().map(str::to_owned).collect()
        };
        assert_eq!(prefixes("a"), ["a"]);
        assert_eq!(prefixes("a.b.c"), ["a", "a.b", "a.b.c"]);
        assert_eq!(prefixes("a..b"), ["a", "a.", "a..b"]);
    }

    #[test]
    fn in_package_requires_dotted_boundary() {
        let m = module("nltk.semantics");
        assert!(!m.in_package("nltk.sem"));
        assert!(m.in_package("nltk"));
        assert!(m.in_package("nltk.semantics"));
        assert!(module("nltk.sem.logic").in_package("nltk.sem"));
    }

    #[test]
    fn stripped_flag_round_trips() {
        let mut m = module("x");
        assert!(!m.stripped());
        m.set_stripped(true);
        assert!(m.stripped());
    }
}
