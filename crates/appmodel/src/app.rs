//! The [`Application`]: modules, libraries, imports, functions and handlers.
//!
//! An application is the unit the platform deploys and SlimStart optimizes.
//! [`AppBuilder`] constructs one incrementally and validates global
//! invariants (acyclic global-import graph, in-range ids, probabilities in
//! `[0, 1]`, at least one handler).

use std::collections::HashSet;

use fxhash::FxHashMap;
use slimstart_simcore::intern::Interner;
use slimstart_simcore::time::SimDuration;

use crate::error::AppModelError;
use crate::function::Function;
use crate::ids::{FunctionId, HandlerId, LibraryId, ModuleId};
use crate::imports::{ImportDecl, ImportMode};
use crate::library::{Library, PackageTree};
use crate::module::Module;

/// An entry point of the application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Handler {
    name: String,
    function: FunctionId,
}

impl Handler {
    /// The handler's externally visible name (route / trigger).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The function invoked for this entry point.
    pub fn function(&self) -> FunctionId {
        self.function
    }
}

/// A complete serverless application model.
///
/// Construct with [`AppBuilder`]; mutate only through the provided methods
/// (the optimizers flip import modes and strip modules).
#[derive(Debug, Clone, PartialEq)]
pub struct Application {
    name: String,
    modules: Vec<Module>,
    imports: Vec<Vec<ImportDecl>>,
    functions: Vec<Function>,
    libraries: Vec<Library>,
    handlers: Vec<Handler>,
}

impl Application {
    /// The application's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All modules, indexable by [`ModuleId::index`].
    pub fn modules(&self) -> &[Module] {
        &self.modules
    }

    /// Looks up a module.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range (ids from this app are always valid).
    pub fn module(&self, id: ModuleId) -> &Module {
        &self.modules[id.index()]
    }

    /// Mutable module access (used by the static optimizer to strip modules).
    pub fn module_mut(&mut self, id: ModuleId) -> &mut Module {
        &mut self.modules[id.index()]
    }

    /// The import declarations of `module`, in source order.
    pub fn imports_of(&self, module: ModuleId) -> &[ImportDecl] {
        &self.imports[module.index()]
    }

    /// All functions, indexable by [`FunctionId::index`].
    pub fn functions(&self) -> &[Function] {
        &self.functions
    }

    /// Looks up a function.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn function(&self, id: FunctionId) -> &Function {
        &self.functions[id.index()]
    }

    /// All libraries.
    pub fn libraries(&self) -> &[Library] {
        &self.libraries
    }

    /// Looks up a library.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn library(&self, id: LibraryId) -> &Library {
        &self.libraries[id.index()]
    }

    /// The entry points.
    pub fn handlers(&self) -> &[Handler] {
        &self.handlers
    }

    /// Looks up a handler.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn handler(&self, id: HandlerId) -> &Handler {
        &self.handlers[id.index()]
    }

    /// Finds a module by dotted name with a linear scan over the modules.
    /// A caller resolving many names should build
    /// [`Application::module_name_index`] once and probe that instead.
    pub fn module_by_name(&self, name: &str) -> Option<ModuleId> {
        self.modules
            .iter()
            .position(|m| m.name() == name)
            .map(ModuleId::from_index)
    }

    /// Every module's dotted name mapped to its id, borrowed from this
    /// application: one O(modules) pass, then O(1) per lookup.
    pub fn module_name_index(&self) -> FxHashMap<&str, ModuleId> {
        self.modules
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name(), ModuleId::from_index(i)))
            .collect()
    }

    /// Finds a handler by name.
    pub fn handler_by_name(&self, name: &str) -> Option<HandlerId> {
        self.handlers
            .iter()
            .position(|h| h.name() == name)
            .map(HandlerId::from_index)
    }

    /// The module containing the handler's function — what the platform
    /// imports first on a cold start.
    pub fn handler_module(&self, id: HandlerId) -> ModuleId {
        self.function(self.handler(id).function()).module()
    }

    /// Flips the mode of the import of `target` inside `importer`.
    ///
    /// Returns `true` if a matching declaration existed.
    pub fn set_import_mode(
        &mut self,
        importer: ModuleId,
        target: ModuleId,
        mode: ImportMode,
    ) -> bool {
        for decl in &mut self.imports[importer.index()] {
            if decl.target == target {
                decl.mode = mode;
                return true;
            }
        }
        false
    }

    /// All `(importer, decl)` pairs in the application.
    pub fn all_imports(&self) -> impl Iterator<Item = (ModuleId, &ImportDecl)> {
        self.imports
            .iter()
            .enumerate()
            .flat_map(|(i, decls)| decls.iter().map(move |d| (ModuleId::from_index(i), d)))
    }

    /// The set of modules loaded eagerly when `root` loads: the transitive
    /// closure over *global* imports, skipping stripped modules. Order is the
    /// depth-first load order the runtime will use.
    pub fn eager_load_set(&self, root: ModuleId) -> Vec<ModuleId> {
        let mut order = Vec::new();
        let mut seen = vec![false; self.modules.len()];
        self.eager_visit(root, &mut seen, &mut order);
        order
    }

    fn eager_visit(&self, m: ModuleId, seen: &mut [bool], order: &mut Vec<ModuleId>) {
        if seen[m.index()] || self.module(m).stripped() {
            return;
        }
        seen[m.index()] = true;
        for decl in self.imports_of(m) {
            if decl.mode.is_global() {
                self.eager_visit(decl.target, seen, order);
            }
        }
        order.push(m);
    }

    /// Total initialization cost of an eager cold start from `root`
    /// (Eq. 1's `T_total_initialization` for that entry).
    pub fn eager_init_cost(&self, root: ModuleId) -> SimDuration {
        self.eager_load_set(root)
            .iter()
            .map(|m| self.module(*m).init_cost())
            .sum()
    }

    /// Total memory pinned by an eager cold start from `root`, in KiB.
    pub fn eager_mem_kb(&self, root: ModuleId) -> u64 {
        self.eager_load_set(root)
            .iter()
            .map(|m| self.module(*m).mem_kb())
            .sum()
    }

    /// The static call graph: adjacency from each function to the targets of
    /// all its call sites (branches flattened — statically *possible* calls).
    pub fn static_call_graph(&self) -> Vec<Vec<FunctionId>> {
        self.functions
            .iter()
            .map(|f| f.call_sites().iter().map(|s| s.target).collect())
            .collect()
    }

    /// The functions defined in each module.
    pub fn functions_by_module(&self) -> Vec<Vec<FunctionId>> {
        let mut by_module = vec![Vec::new(); self.modules.len()];
        for (i, f) in self.functions.iter().enumerate() {
            by_module[f.module().index()].push(FunctionId::from_index(i));
        }
        by_module
    }

    /// Builds the package tree over all modules (Fig. 6 hierarchy).
    pub fn package_tree(&self) -> PackageTree {
        PackageTree::build(&self.modules)
    }

    /// Module ids belonging to `library`.
    pub fn modules_of_library(&self, library: LibraryId) -> &[ModuleId] {
        self.library(library).modules()
    }

    /// Average module depth (the paper's "Avg. Depth" column), over library
    /// modules only.
    pub fn avg_module_depth(&self) -> f64 {
        let lib_modules: Vec<&Module> = self
            .modules
            .iter()
            .filter(|m| m.library().is_some())
            .collect();
        if lib_modules.is_empty() {
            return 0.0;
        }
        lib_modules.iter().map(|m| m.depth() as f64).sum::<f64>() / lib_modules.len() as f64
    }

    /// Validates all cross-entity invariants. [`AppBuilder::finish`] calls
    /// this; re-validate after external mutation if needed.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant (unknown ids, duplicate names or
    /// imports, self-imports, global-import cycles, bad probabilities, no
    /// handlers).
    pub fn validate(&self) -> Result<(), AppModelError> {
        if self.modules.is_empty() {
            return Err(AppModelError::Empty);
        }
        if self.handlers.is_empty() {
            return Err(AppModelError::NoHandlers);
        }
        let mut names = HashSet::new();
        for m in &self.modules {
            if !names.insert(m.name()) {
                return Err(AppModelError::DuplicateModuleName(m.name().to_string()));
            }
        }
        for (i, decls) in self.imports.iter().enumerate() {
            let importer = ModuleId::from_index(i);
            let mut targets = HashSet::new();
            for d in decls {
                if d.target.index() >= self.modules.len() {
                    return Err(AppModelError::UnknownModule(d.target));
                }
                if d.target == importer {
                    return Err(AppModelError::SelfImport(importer));
                }
                if !targets.insert(d.target) {
                    return Err(AppModelError::DuplicateImport {
                        importer,
                        target: d.target,
                    });
                }
            }
        }
        for f in &self.functions {
            if f.module().index() >= self.modules.len() {
                return Err(AppModelError::UnknownModule(f.module()));
            }
            for site in f.call_sites() {
                if site.target.index() >= self.functions.len() {
                    return Err(AppModelError::UnknownFunction(site.target));
                }
            }
            for touched in f.touched_modules() {
                if touched.index() >= self.modules.len() {
                    return Err(AppModelError::UnknownModule(touched));
                }
            }
            for p in f.branch_probabilities() {
                if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                    return Err(AppModelError::InvalidProbability(p));
                }
            }
        }
        for h in &self.handlers {
            if h.function().index() >= self.functions.len() {
                return Err(AppModelError::UnknownFunction(h.function()));
            }
        }
        self.check_import_acyclicity()?;
        Ok(())
    }

    /// Detects cycles in the *global* import graph (deferred imports may
    /// legally form cycles, as in Python).
    fn check_import_acyclicity(&self) -> Result<(), AppModelError> {
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Gray,
            Black,
        }
        let mut marks = vec![Mark::White; self.modules.len()];
        // Iterative DFS with an explicit stack to survive deep module trees.
        for start in 0..self.modules.len() {
            if marks[start] != Mark::White {
                continue;
            }
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            marks[start] = Mark::Gray;
            while let Some(&mut (node, ref mut edge)) = stack.last_mut() {
                let decls = &self.imports[node];
                let mut advanced = false;
                while *edge < decls.len() {
                    let d = decls[*edge];
                    *edge += 1;
                    if !d.mode.is_global() {
                        continue;
                    }
                    let t = d.target.index();
                    match marks[t] {
                        Mark::Gray => {
                            return Err(AppModelError::ImportCycle(d.target));
                        }
                        Mark::White => {
                            marks[t] = Mark::Gray;
                            stack.push((t, 0));
                            advanced = true;
                            break;
                        }
                        Mark::Black => {}
                    }
                }
                if !advanced && stack.last().map(|&(n, _)| n) == Some(node) {
                    marks[node] = Mark::Black;
                    stack.pop();
                }
            }
        }
        Ok(())
    }
}

/// Incremental builder for [`Application`].
///
/// See the crate-level example for a complete construction.
#[derive(Debug, Clone)]
pub struct AppBuilder {
    app: Application,
    /// Dotted module names interned once; `module_of_symbol[sym]` maps the
    /// dense symbol id back to the module. Avoids one owned-`String` map
    /// entry per module and makes `module_by_name` a fixed-width hash probe.
    module_names: Interner,
    module_of_symbol: Vec<ModuleId>,
}

impl AppBuilder {
    /// Starts building an application named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        AppBuilder {
            app: Application {
                name: name.into(),
                modules: Vec::new(),
                imports: Vec::new(),
                functions: Vec::new(),
                libraries: Vec::new(),
                handlers: Vec::new(),
            },
            module_names: Interner::new(),
            module_of_symbol: Vec::new(),
        }
    }

    /// Registers a library (top-level package) named `name`.
    pub fn add_library(&mut self, name: impl Into<String>) -> LibraryId {
        let id = LibraryId::from_index(self.app.libraries.len());
        self.app.libraries.push(Library::new(name));
        id
    }

    /// Adds an application-code module (not part of any library).
    pub fn add_app_module(
        &mut self,
        name: impl Into<String>,
        init_cost: SimDuration,
        mem_kb: u64,
    ) -> ModuleId {
        self.push_module(Module::new(name, init_cost, mem_kb, false, None))
    }

    /// Adds a module belonging to `library`.
    pub fn add_library_module(
        &mut self,
        name: impl Into<String>,
        init_cost: SimDuration,
        mem_kb: u64,
        side_effectful: bool,
        library: LibraryId,
    ) -> ModuleId {
        let id = self.push_module(Module::new(
            name,
            init_cost,
            mem_kb,
            side_effectful,
            Some(library),
        ));
        self.app.libraries[library.index()].push_module(id);
        id
    }

    fn push_module(&mut self, module: Module) -> ModuleId {
        let id = ModuleId::from_index(self.app.modules.len());
        let sym = self.module_names.intern(module.name());
        if sym.index() == self.module_of_symbol.len() {
            self.module_of_symbol.push(id);
        } else {
            // Duplicate name: keep latest, matching the old HashMap insert
            // semantics. finish() rejects duplicates during validation.
            self.module_of_symbol[sym.index()] = id;
        }
        // A module whose name is a strict prefix of an existing one (or vice
        // versa) is a package; fix file forms lazily in finish().
        self.app.modules.push(module);
        self.app.imports.push(Vec::new());
        id
    }

    /// Looks up a previously added module by dotted name.
    pub fn module_by_name(&self, name: &str) -> Option<ModuleId> {
        self.module_names
            .get(name)
            .map(|sym| self.module_of_symbol[sym.index()])
    }

    /// Declares that `importer` imports `target` at source `line`.
    ///
    /// # Errors
    ///
    /// Returns an error for self-imports, unknown ids or duplicate targets.
    /// (Cycle detection runs in [`AppBuilder::finish`].)
    pub fn add_import(
        &mut self,
        importer: ModuleId,
        target: ModuleId,
        line: u32,
        mode: ImportMode,
    ) -> Result<(), AppModelError> {
        if importer.index() >= self.app.modules.len() {
            return Err(AppModelError::UnknownModule(importer));
        }
        if target.index() >= self.app.modules.len() {
            return Err(AppModelError::UnknownModule(target));
        }
        if importer == target {
            return Err(AppModelError::SelfImport(importer));
        }
        let decls = &mut self.app.imports[importer.index()];
        if decls.iter().any(|d| d.target == target) {
            return Err(AppModelError::DuplicateImport { importer, target });
        }
        decls.push(ImportDecl { target, mode, line });
        Ok(())
    }

    /// Adds a function and returns its id.
    pub fn add_function(
        &mut self,
        name: impl Into<String>,
        module: ModuleId,
        line: u32,
        body: Vec<crate::function::Stmt>,
    ) -> FunctionId {
        let id = FunctionId::from_index(self.app.functions.len());
        self.app
            .functions
            .push(Function::new(name, module, line, body));
        id
    }

    /// Registers `function` as the entry point named `name`.
    pub fn add_handler(&mut self, name: impl Into<String>, function: FunctionId) -> HandlerId {
        let id = HandlerId::from_index(self.app.handlers.len());
        self.app.handlers.push(Handler {
            name: name.into(),
            function,
        });
        id
    }

    /// Finalizes and validates the application.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant; see [`Application::validate`].
    pub fn finish(mut self) -> Result<Application, AppModelError> {
        // Mark modules that have children as packages so their modeled file
        // becomes `pkg/__init__.py`.
        let names: Vec<String> = self
            .app
            .modules
            .iter()
            .map(|m| m.name().to_string())
            .collect();
        let parents: HashSet<&str> = names
            .iter()
            .filter_map(|n| n.rsplit_once('.').map(|(p, _)| p))
            .collect();
        for m in &mut self.app.modules {
            if parents.contains(m.name()) {
                m.mark_package();
            }
        }
        self.app.validate()?;
        Ok(self.app)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::{Stmt, StmtKind};

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    /// handler.py imports lib root; lib root imports two submodules.
    fn small_app() -> Application {
        let mut b = AppBuilder::new("t");
        let lib = b.add_library("ig");
        let h = b.add_app_module("handler", ms(1), 10);
        let root = b.add_library_module("ig", ms(2), 20, false, lib);
        let a = b.add_library_module("ig.a", ms(3), 30, false, lib);
        let d = b.add_library_module("ig.draw", ms(40), 400, false, lib);
        b.add_import(h, root, 2, ImportMode::Global).unwrap();
        b.add_import(root, a, 2, ImportMode::Global).unwrap();
        b.add_import(root, d, 3, ImportMode::Global).unwrap();
        let fa = b.add_function(
            "bfs",
            a,
            5,
            vec![Stmt {
                line: 6,
                kind: StmtKind::Work(ms(1)),
            }],
        );
        let fh = b.add_function(
            "main",
            h,
            4,
            vec![Stmt {
                line: 5,
                kind: StmtKind::call(fa),
            }],
        );
        b.add_handler("main", fh);
        b.finish().unwrap()
    }

    #[test]
    fn eager_load_set_is_postorder_transitive() {
        let app = small_app();
        let h = app.module_by_name("handler").unwrap();
        let order = app.eager_load_set(h);
        let names: Vec<&str> = order.iter().map(|m| app.module(*m).name()).collect();
        // Children load before their importer, handler last.
        assert_eq!(names, vec!["ig.a", "ig.draw", "ig", "handler"]);
    }

    #[test]
    fn eager_costs_sum() {
        let app = small_app();
        let h = app.module_by_name("handler").unwrap();
        assert_eq!(app.eager_init_cost(h), ms(46));
        assert_eq!(app.eager_mem_kb(h), 460);
    }

    #[test]
    fn deferred_imports_are_excluded_from_eager_set() {
        let mut app = small_app();
        let root = app.module_by_name("ig").unwrap();
        let draw = app.module_by_name("ig.draw").unwrap();
        assert!(app.set_import_mode(root, draw, ImportMode::Deferred));
        let h = app.module_by_name("handler").unwrap();
        let names: Vec<&str> = app
            .eager_load_set(h)
            .iter()
            .map(|m| app.module(*m).name())
            .collect();
        assert!(!names.contains(&"ig.draw"));
        assert_eq!(app.eager_init_cost(h), ms(6));
    }

    #[test]
    fn stripped_modules_are_excluded() {
        let mut app = small_app();
        let draw = app.module_by_name("ig.draw").unwrap();
        app.module_mut(draw).set_stripped(true);
        let h = app.module_by_name("handler").unwrap();
        assert_eq!(app.eager_init_cost(h), ms(6));
    }

    #[test]
    fn set_import_mode_returns_false_for_missing_edge() {
        let mut app = small_app();
        let h = app.module_by_name("handler").unwrap();
        let a = app.module_by_name("ig.a").unwrap();
        assert!(!app.set_import_mode(h, a, ImportMode::Deferred));
    }

    #[test]
    fn package_file_forms_fixed_in_finish() {
        let app = small_app();
        let root = app.module_by_name("ig").unwrap();
        assert_eq!(app.module(root).file(), "ig/__init__.py");
        let leaf = app.module_by_name("ig.a").unwrap();
        assert_eq!(app.module(leaf).file(), "ig/a.py");
    }

    #[test]
    fn builder_rejects_duplicate_import() {
        let mut b = AppBuilder::new("t");
        let m1 = b.add_app_module("a", ms(1), 1);
        let m2 = b.add_app_module("b", ms(1), 1);
        b.add_import(m1, m2, 2, ImportMode::Global).unwrap();
        let err = b.add_import(m1, m2, 3, ImportMode::Global).unwrap_err();
        assert!(matches!(err, AppModelError::DuplicateImport { .. }));
    }

    #[test]
    fn builder_rejects_self_import() {
        let mut b = AppBuilder::new("t");
        let m = b.add_app_module("a", ms(1), 1);
        assert_eq!(
            b.add_import(m, m, 2, ImportMode::Global),
            Err(AppModelError::SelfImport(m))
        );
    }

    #[test]
    fn finish_detects_import_cycle() {
        let mut b = AppBuilder::new("t");
        let m1 = b.add_app_module("a", ms(1), 1);
        let m2 = b.add_app_module("b", ms(1), 1);
        b.add_import(m1, m2, 2, ImportMode::Global).unwrap();
        b.add_import(m2, m1, 2, ImportMode::Global).unwrap();
        let f = b.add_function("f", m1, 3, vec![]);
        b.add_handler("h", f);
        assert!(matches!(b.finish(), Err(AppModelError::ImportCycle(_))));
    }

    #[test]
    fn deferred_cycles_are_allowed() {
        let mut b = AppBuilder::new("t");
        let m1 = b.add_app_module("a", ms(1), 1);
        let m2 = b.add_app_module("b", ms(1), 1);
        b.add_import(m1, m2, 2, ImportMode::Global).unwrap();
        b.add_import(m2, m1, 2, ImportMode::Deferred).unwrap();
        let f = b.add_function("f", m1, 3, vec![]);
        b.add_handler("h", f);
        assert!(b.finish().is_ok());
    }

    #[test]
    fn finish_requires_handlers() {
        let mut b = AppBuilder::new("t");
        b.add_app_module("a", ms(1), 1);
        assert_eq!(b.finish().unwrap_err(), AppModelError::NoHandlers);
    }

    #[test]
    fn empty_app_is_rejected() {
        let b = AppBuilder::new("t");
        assert_eq!(b.finish().unwrap_err(), AppModelError::Empty);
    }

    #[test]
    fn validate_rejects_bad_probability() {
        let mut b = AppBuilder::new("t");
        let m = b.add_app_module("a", ms(1), 1);
        let f = b.add_function(
            "f",
            m,
            1,
            vec![Stmt {
                line: 2,
                kind: StmtKind::Branch {
                    probability: 1.5,
                    body: vec![],
                },
            }],
        );
        b.add_handler("h", f);
        assert!(matches!(
            b.finish(),
            Err(AppModelError::InvalidProbability(_))
        ));
    }

    #[test]
    fn lookup_helpers() {
        let app = small_app();
        assert!(app.module_by_name("nope").is_none());
        let h = app.handler_by_name("main").unwrap();
        assert_eq!(app.handler(h).name(), "main");
        assert_eq!(app.module(app.handler_module(h)).name(), "handler");
        assert_eq!(app.libraries().len(), 1);
        assert_eq!(app.modules_of_library(LibraryId::from_index(0)).len(), 3);
    }

    #[test]
    fn static_call_graph_shape() {
        let app = small_app();
        let cg = app.static_call_graph();
        // main calls bfs; bfs calls nothing.
        let main = app.handler(HandlerId::from_index(0)).function();
        assert_eq!(cg[main.index()].len(), 1);
        assert!(cg[cg[main.index()][0].index()].is_empty());
    }

    #[test]
    fn functions_by_module_partitions() {
        let app = small_app();
        let by_module = app.functions_by_module();
        let total: usize = by_module.iter().map(|v| v.len()).sum();
        assert_eq!(total, app.functions().len());
    }

    #[test]
    fn avg_module_depth_counts_library_modules_only() {
        let app = small_app();
        // Library modules: ig (1), ig.a (2), ig.draw (2) → 5/3.
        assert!((app.avg_module_depth() - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn all_imports_iterates_every_edge() {
        let app = small_app();
        assert_eq!(app.all_imports().count(), 3);
    }
}
