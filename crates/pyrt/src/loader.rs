//! Precomputed, shareable loader metadata for one application.
//!
//! Every [`Process`](crate::process::Process) used to rebuild a
//! `HashMap<String, ModuleId>` name index on construction and re-derive
//! dotted-prefix ancestry (allocating a `String` and probing the map per
//! prefix) on every load. A [`LoaderPlan`] computes all of that once per
//! application — ancestor chains eagerly, transitive import closures
//! lazily — and is shared between processes behind an `Arc`, so container
//! cold starts pay zero name-resolution work.
//!
//! The closure bitsets are a pure *fast path*: when everything a module
//! transitively needs is already loaded, the loader skips the recursive
//! import walk entirely. When anything is missing it falls back to the
//! exact ordered walk, because load order is observable (load events,
//! stack shapes under the sampler) and must not change.

use std::sync::OnceLock;

use slimstart_appmodel::{Application, ModuleId, NameTable};

/// A bitset over module ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleSet {
    words: Box<[u64]>,
}

impl ModuleSet {
    fn empty(modules: usize) -> ModuleSet {
        ModuleSet {
            words: vec![0u64; modules.div_ceil(64)].into_boxed_slice(),
        }
    }

    #[inline]
    fn insert(&mut self, m: ModuleId) {
        self.words[m.index() / 64] |= 1u64 << (m.index() % 64);
    }

    /// Whether `m` is in the set.
    #[inline]
    pub fn contains(&self, m: ModuleId) -> bool {
        self.words[m.index() / 64] & (1u64 << (m.index() % 64)) != 0
    }

    /// Number of modules in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Whether every member except `m` itself is set in the `loaded` bit
    /// words, `m` itself is a member, **and** `m` is not yet loaded. This
    /// is the loader's one-shot test for "the recursive walk would load
    /// exactly `m` and nothing else" — if `m` is already loaded the walk
    /// would load nothing, which the fast path must not change.
    #[inline]
    pub fn only_missing_is(&self, loaded: &[u64], m: ModuleId) -> bool {
        let m_word = m.index() / 64;
        let m_bit = 1u64 << (m.index() % 64);
        if self.words[m_word] & m_bit == 0 || loaded[m_word] & m_bit != 0 {
            return false;
        }
        self.words
            .iter()
            .zip(loaded.iter())
            .enumerate()
            .all(|(w, (&members, &have))| {
                let missing = members & !have;
                if w == m_word {
                    missing & !m_bit == 0
                } else {
                    missing == 0
                }
            })
    }
}

/// Shared per-application loader metadata. Build once (it is deterministic
/// in the application, including its `stripped` flags) and share across all
/// processes via `Arc`.
#[derive(Debug)]
pub struct LoaderPlan {
    /// For each module, the ids of its existing dotted-prefix ancestors in
    /// shortest-first order, ending with the module itself — exactly the
    /// sequence the CPython-style loader visits for `import a.b.c`.
    ancestors: Vec<Box<[ModuleId]>>,
    /// Lazily memoized transitive eager-load closures: `closures[m]` is the
    /// set of modules a load of `m` from an empty process would bring in
    /// (global imports only, stripped modules excluded).
    closures: Vec<OnceLock<ModuleSet>>,
}

impl LoaderPlan {
    /// Computes ancestor chains for every module of `app`.
    pub fn build(app: &Application) -> LoaderPlan {
        let table = NameTable::build(app);
        let modules = app.modules();
        let mut ancestors = Vec::with_capacity(modules.len());
        for module in modules {
            ancestors.push(
                module
                    .package_prefixes()
                    .filter_map(|prefix| table.module_by_name(prefix))
                    .collect(),
            );
        }
        LoaderPlan {
            ancestors,
            closures: (0..modules.len()).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The existing dotted-prefix ancestors of `module`, shortest first,
    /// ending with `module` itself.
    #[inline]
    pub fn ancestors(&self, module: ModuleId) -> &[ModuleId] {
        &self.ancestors[module.index()]
    }

    /// The transitive eager-load closure of `module`, computed on first use
    /// and memoized for the lifetime of the plan (thread-safe; the result
    /// is a pure function of the application, so racing initializers agree).
    pub fn closure(&self, app: &Application, module: ModuleId) -> &ModuleSet {
        self.closures[module.index()].get_or_init(|| {
            let mut set = ModuleSet::empty(app.modules().len());
            self.collect_with_parents(app, module, &mut set);
            set
        })
    }

    /// Mirrors `Process::load_with_parents` over a visited set.
    fn collect_with_parents(&self, app: &Application, module: ModuleId, set: &mut ModuleSet) {
        for &a in self.ancestors(module) {
            if !set.contains(a) && !app.module(a).stripped() {
                self.collect_single(app, a, set);
            }
        }
    }

    /// Mirrors `Process::load_single`'s recursion over global imports.
    fn collect_single(&self, app: &Application, module: ModuleId, set: &mut ModuleSet) {
        set.insert(module);
        for decl in app.imports_of(module) {
            if !decl.mode.is_global() || app.module(decl.target).stripped() {
                continue;
            }
            if !set.contains(decl.target) {
                self.collect_with_parents(app, decl.target, set);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimstart_appmodel::app::AppBuilder;
    use slimstart_appmodel::imports::ImportMode;
    use slimstart_simcore::time::SimDuration;
    use std::sync::Arc;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    /// handler -> lib (-> lib.hot global, lib.cold deferred -> lib.cold.leaf global)
    fn app() -> Arc<Application> {
        let mut b = AppBuilder::new("t");
        let lib = b.add_library("lib");
        let h = b.add_app_module("handler", ms(1), 1);
        let root = b.add_library_module("lib", ms(1), 1, false, lib);
        let hot = b.add_library_module("lib.hot", ms(1), 1, false, lib);
        let cold = b.add_library_module("lib.cold", ms(1), 1, false, lib);
        let leaf = b.add_library_module("lib.cold.leaf", ms(1), 1, false, lib);
        b.add_import(h, root, 2, ImportMode::Global).unwrap();
        b.add_import(root, hot, 2, ImportMode::Global).unwrap();
        b.add_import(root, cold, 3, ImportMode::Deferred).unwrap();
        b.add_import(cold, leaf, 2, ImportMode::Global).unwrap();
        let f = b.add_function("main", h, 4, vec![]);
        b.add_handler("main", f);
        Arc::new(b.finish().unwrap())
    }

    #[test]
    fn ancestors_follow_dotted_prefixes() {
        let app = app();
        let plan = LoaderPlan::build(&app);
        let leaf = app.module_by_name("lib.cold.leaf").unwrap();
        let names: Vec<&str> = plan
            .ancestors(leaf)
            .iter()
            .map(|m| app.module(*m).name())
            .collect();
        assert_eq!(names, vec!["lib", "lib.cold", "lib.cold.leaf"]);
        let h = app.module_by_name("handler").unwrap();
        let names: Vec<&str> = plan
            .ancestors(h)
            .iter()
            .map(|m| app.module(*m).name())
            .collect();
        assert_eq!(names, vec!["handler"]);
    }

    #[test]
    fn closure_follows_global_imports_only() {
        let app = app();
        let plan = LoaderPlan::build(&app);
        let h = app.module_by_name("handler").unwrap();
        let closure = plan.closure(&app, h);
        assert!(closure.contains(h));
        assert!(closure.contains(app.module_by_name("lib").unwrap()));
        assert!(closure.contains(app.module_by_name("lib.hot").unwrap()));
        // Deferred subtree is not part of the eager closure.
        assert!(!closure.contains(app.module_by_name("lib.cold").unwrap()));
        assert_eq!(closure.len(), 3);
    }

    #[test]
    fn closure_of_submodule_includes_package_ancestry() {
        let app = app();
        let plan = LoaderPlan::build(&app);
        let leaf = app.module_by_name("lib.cold.leaf").unwrap();
        let closure = plan.closure(&app, leaf);
        // Loading lib.cold.leaf pulls in lib (ancestor) which pulls lib.hot.
        for name in ["lib", "lib.hot", "lib.cold", "lib.cold.leaf"] {
            assert!(
                closure.contains(app.module_by_name(name).unwrap()),
                "{name}"
            );
        }
        assert!(!closure.contains(app.module_by_name("handler").unwrap()));
    }

    #[test]
    fn closure_matches_eager_load_set() {
        let app = app();
        let plan = LoaderPlan::build(&app);
        for (i, _) in app.modules().iter().enumerate() {
            let m = slimstart_appmodel::ModuleId::from_index(i);
            let closure = plan.closure(&app, m);
            // eager_load_set has no parent-package rule, so it can only be a
            // subset of the loader's closure; every eager module must appear.
            for e in app.eager_load_set(m) {
                assert!(closure.contains(e), "module {i}: missing {e}");
            }
        }
    }

    #[test]
    fn closure_skips_stripped_modules() {
        let app = app();
        let mut app2 = (*app).clone();
        let hot = app2.module_by_name("lib.hot").unwrap();
        app2.module_mut(hot).set_stripped(true);
        let plan = LoaderPlan::build(&app2);
        let h = app2.module_by_name("handler").unwrap();
        let closure = plan.closure(&app2, h);
        assert!(!closure.contains(hot));
        assert_eq!(closure.len(), 2);
    }

    #[test]
    fn only_missing_is_detects_shallow_loads() {
        let app = app();
        let plan = LoaderPlan::build(&app);
        let h = app.module_by_name("handler").unwrap();
        let lib = app.module_by_name("lib").unwrap();
        let hot = app.module_by_name("lib.hot").unwrap();
        let closure = plan.closure(&app, h);
        let mut loaded = vec![0u64; app.modules().len().div_ceil(64)];
        // Nothing loaded: handler's deps are missing.
        assert!(!closure.only_missing_is(&loaded, h));
        loaded[lib.index() / 64] |= 1 << (lib.index() % 64);
        loaded[hot.index() / 64] |= 1 << (hot.index() % 64);
        // Everything but handler itself is loaded.
        assert!(closure.only_missing_is(&loaded, h));
        // A module outside its own closure never qualifies.
        let cold = app.module_by_name("lib.cold").unwrap();
        assert!(!plan.closure(&app, h).only_missing_is(&loaded, cold));
        // Once handler itself is loaded the walk would load nothing, so the
        // shallow path must not fire (a reload would re-charge init cost).
        loaded[h.index() / 64] |= 1 << (h.index() % 64);
        assert!(!closure.only_missing_is(&loaded, h));
    }
}
