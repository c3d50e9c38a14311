//! Precomputed, shareable loader metadata for one application.
//!
//! Every [`Process`](crate::process::Process) used to rebuild a
//! `HashMap<String, ModuleId>` name index on construction and re-derive
//! dotted-prefix ancestry (allocating a `String` and probing the map per
//! prefix) on every load. A [`LoaderPlan`] computes each module's ancestor
//! chain once per application and is shared between processes behind an
//! `Arc`, so container cold starts pay zero name-resolution work.
//!
//! The plan holds nothing else. The loader walks each module's global
//! imports itself, in declaration order, because load order is observable
//! (load events, stack shapes under the sampler); a walk therefore costs
//! O(the modules it loads and the imports they declare), and building a
//! plan costs one lookup in the application's name index
//! ([`Application::module_name_index`]) per dotted prefix of each module.

use slimstart_appmodel::{Application, ModuleId};

/// Shared per-application loader metadata. Build once (it is deterministic
/// in the application, including its `stripped` flags) and share across all
/// processes via `Arc`.
#[derive(Debug)]
pub struct LoaderPlan {
    /// For each module, the ids of its existing dotted-prefix ancestors in
    /// shortest-first order, ending with the module itself — exactly the
    /// sequence the CPython-style loader visits for `import a.b.c`.
    ancestors: Vec<Box<[ModuleId]>>,
}

impl LoaderPlan {
    /// Computes ancestor chains for every module of `app`.
    pub fn build(app: &Application) -> LoaderPlan {
        let by_name = app.module_name_index();
        let modules = app.modules();
        let mut ancestors = Vec::with_capacity(modules.len());
        for module in modules {
            ancestors.push(
                module
                    .package_prefixes()
                    .filter_map(|prefix| by_name.get(prefix).copied())
                    .collect(),
            );
        }
        LoaderPlan { ancestors }
    }

    /// The existing dotted-prefix ancestors of `module`, shortest first,
    /// ending with `module` itself.
    #[inline]
    pub fn ancestors(&self, module: ModuleId) -> &[ModuleId] {
        &self.ancestors[module.index()]
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
}
