//! Package stripping: FaaSLight's unreachable-code elimination.
//!
//! A library (or one of its depth-2 sub-packages) is removed from the
//! deployment package when **no** function in its subtree is statically
//! reachable, it is not pinned by an indirect call, and it contains no
//! side-effectful module. Removed modules are marked *stripped*: the loader
//! skips them entirely (no init cost, no memory), and any runtime call into
//! them faults — which is why the analysis must stay conservative.

use slimstart_appmodel::library::{Package, PackageTree};
use slimstart_appmodel::{Application, FunctionId, LibraryId};
use slimstart_simcore::time::SimDuration;

use crate::reachability::StaticAnalysis;

/// The result of static slimming.
#[derive(Debug, Clone)]
pub struct StrippedApp {
    /// The slimmed application (input left untouched).
    pub app: Application,
    /// Dotted paths of removed packages.
    pub stripped_packages: Vec<String>,
    /// Total initialization cost removed from the eager path.
    pub removed_init: SimDuration,
    /// Total memory removed, KiB.
    pub removed_mem_kb: u64,
}

/// Applies FaaSLight-style slimming to a copy of `app`.
///
/// # Example
///
/// Static analysis removes the truly unreachable package but must keep the
/// workload-dead one (it is reachable from the never-invoked admin
/// handler) — the gap SlimStart closes:
///
/// ```
/// use slimstart_appmodel::catalog::by_code;
/// use slimstart_faaslight::strip_unreachable;
///
/// let built = by_code("R-GB").expect("catalog entry").build(7)?;
/// let out = strip_unreachable(&built.app);
/// assert!(out.stripped_packages.iter().any(|p| p == "igraph.compat"));
/// assert!(!out.stripped_packages.iter().any(|p| p.contains("drawing")));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn strip_unreachable(app: &Application) -> StrippedApp {
    let tree = app.package_tree();
    let packages = strippable_packages(app, &tree, &StaticAnalysis::analyze(app));

    let mut slimmed = app.clone();
    let mut stripped_packages = Vec::new();
    let mut removed_init = SimDuration::ZERO;
    let mut removed_mem_kb = 0u64;
    for package in packages {
        for &m in tree.members(&package) {
            let module = slimmed.module_mut(m);
            if !module.stripped() {
                removed_init += module.init_cost();
                removed_mem_kb += module.mem_kb();
                module.set_stripped(true);
            }
        }
        stripped_packages.push(package.path().to_string());
    }

    StrippedApp {
        app: slimmed,
        stripped_packages,
        removed_init,
        removed_mem_kb,
    }
}

/// The packages [`strip_unreachable`] removes from `app`, in library
/// order: each library whose whole subtree is strippable, or else its
/// strippable child packages. `tree` and `analysis` are `app`'s package
/// tree and static analysis.
pub fn strippable_packages<'a>(
    app: &'a Application,
    tree: &PackageTree,
    analysis: &StaticAnalysis,
) -> Vec<Package<'a>> {
    let by_module = app.functions_by_module();

    // Modules touched (attribute access) by any statically reachable
    // function must survive: stripping them would break `lib.CONSTANT`.
    let mut touched = vec![false; app.modules().len()];
    for (i, f) in app.functions().iter().enumerate() {
        if analysis.is_reachable(FunctionId::from_index(i)) {
            for m in f.touched_modules() {
                touched[m.index()] = true;
            }
        }
    }

    let subtree_strippable = |package: &Package<'_>, library: LibraryId| -> bool {
        if analysis.is_pinned(library) {
            return false;
        }
        let modules = tree.members(package);
        if modules.is_empty() {
            return false;
        }
        for m in modules {
            if app.module(*m).side_effectful() || touched[m.index()] {
                return false;
            }
            for f in &by_module[m.index()] {
                if analysis.is_reachable(*f) {
                    return false;
                }
            }
        }
        true
    };

    let mut packages = Vec::new();
    for (i, lib) in app.libraries().iter().enumerate() {
        let id = LibraryId::from_index(i);
        let library = tree.package(app, lib.name());
        if subtree_strippable(&library, id) {
            packages.push(library);
        } else {
            let mut children = tree.children(app, &library);
            children.retain(|child| subtree_strippable(child, id));
            packages.extend(children);
        }
    }
    packages
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimstart_appmodel::app::AppBuilder;
    use slimstart_appmodel::catalog::by_code;
    use slimstart_appmodel::function::{Stmt, StmtKind};
    use slimstart_appmodel::imports::ImportMode;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    fn app() -> Application {
        let mut b = AppBuilder::new("t");
        let lib = b.add_library("lib");
        let h = b.add_app_module("handler", ms(1), 10);
        let root = b.add_library_module("lib", ms(1), 10, false, lib);
        let hot = b.add_library_module("lib.hot", ms(10), 100, false, lib);
        let sdead = b.add_library_module("lib.sdead", ms(50), 500, false, lib);
        let sdead_leaf = b.add_library_module("lib.sdead.leaf", ms(5), 50, false, lib);
        let sfx = b.add_library_module("lib.sfx", ms(20), 200, true, lib);
        b.add_import(h, root, 2, ImportMode::Global).unwrap();
        b.add_import(root, hot, 2, ImportMode::Global).unwrap();
        b.add_import(root, sdead, 3, ImportMode::Global).unwrap();
        b.add_import(sdead, sdead_leaf, 2, ImportMode::Global)
            .unwrap();
        b.add_import(root, sfx, 4, ImportMode::Global).unwrap();
        let f_hot = b.add_function("hot_fn", hot, 5, vec![]);
        let _f_dead = b.add_function("dead_fn", sdead, 5, vec![]);
        let f = b.add_function(
            "main",
            h,
            4,
            vec![Stmt {
                line: 5,
                kind: StmtKind::call(f_hot),
            }],
        );
        b.add_handler("main", f);
        b.finish().unwrap()
    }

    #[test]
    fn strips_unreachable_subpackage_with_costs() {
        let app = app();
        let out = strip_unreachable(&app);
        assert_eq!(out.stripped_packages, vec!["lib.sdead".to_string()]);
        let stripped = out.app.modules().iter().filter(|m| m.stripped()).count();
        assert_eq!(stripped, 2); // sdead + leaf
        assert_eq!(out.removed_init, ms(55));
        assert_eq!(out.removed_mem_kb, 550);
    }

    #[test]
    fn side_effectful_package_is_never_stripped() {
        let app = app();
        let out = strip_unreachable(&app);
        let sfx = out.app.module_by_name("lib.sfx").unwrap();
        assert!(!out.app.module(sfx).stripped());
    }

    #[test]
    fn eager_init_drops_by_removed_amount() {
        let app = app();
        let h = app.module_by_name("handler").unwrap();
        let before = app.eager_init_cost(h);
        let out = strip_unreachable(&app);
        let after = out.app.eager_init_cost(h);
        assert_eq!(before - after, out.removed_init);
    }

    #[test]
    fn stripped_app_runs_without_faults() {
        use slimstart_pyrt::process::Process;
        use slimstart_simcore::rng::SimRng;
        use std::sync::Arc;

        let app = app();
        let out = strip_unreachable(&app);
        let arc = Arc::new(out.app);
        let mut p = Process::new(Arc::clone(&arc), 1.0);
        let root = arc.module_by_name("handler").unwrap();
        p.cold_start(root).unwrap();
        let h = arc.handler_by_name("main").unwrap();
        assert!(p.invoke(h, &mut SimRng::seed_from(1)).is_ok());
    }

    #[test]
    fn original_app_is_untouched() {
        let app = app();
        let _ = strip_unreachable(&app);
        assert!(app.modules().iter().all(|m| !m.stripped()));
    }

    #[test]
    fn catalog_apps_strip_their_static_dead_share() {
        // R-GB declares 12 % of init as statically dead; FaaSLight should
        // remove roughly that share and nothing that the workload needs.
        let entry = by_code("R-GB").unwrap();
        let built = entry.build(11).unwrap();
        let h = built.app.module_by_name("handler").unwrap();
        let before = built.app.eager_init_cost(h);
        let out = strip_unreachable(&built.app);
        let frac = out.removed_init.ratio(before);
        assert!(
            (0.08..0.18).contains(&frac),
            "stripped fraction = {frac:.3}"
        );
        assert!(out.stripped_packages.iter().any(|p| p == "igraph.compat"));
        // Workload-dead and rare packages must survive static analysis.
        assert!(!out.stripped_packages.iter().any(|p| p.contains("drawing")));
        assert!(!out.stripped_packages.iter().any(|p| p.contains("xmlio")));
    }

    #[test]
    fn touched_modules_survive_stripping() {
        // A package with no reachable *functions* but whose constants are
        // read by the handler must be kept.
        use slimstart_appmodel::function::{Stmt, StmtKind};
        let mut b = AppBuilder::new("t");
        let lib = b.add_library("lib");
        let h = b.add_app_module("handler", ms(1), 0);
        let root = b.add_library_module("lib", ms(1), 0, false, lib);
        let consts = b.add_library_module("lib.consts", ms(30), 0, false, lib);
        b.add_import(h, root, 2, ImportMode::Global).unwrap();
        b.add_import(root, consts, 2, ImportMode::Global).unwrap();
        let f = b.add_function(
            "main",
            h,
            4,
            vec![Stmt {
                line: 5,
                kind: StmtKind::Touch(consts),
            }],
        );
        b.add_handler("main", f);
        let app = b.finish().unwrap();
        let out = strip_unreachable(&app);
        assert!(out.stripped_packages.is_empty());
        assert!(!out.app.module(consts).stripped());
    }
}
