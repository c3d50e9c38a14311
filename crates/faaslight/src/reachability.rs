//! Static call-graph reachability from all entry points.

use std::collections::VecDeque;

use slimstart_appmodel::{Application, CallKind, FunctionId, LibraryId};

/// The result of static reachability analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticAnalysis {
    /// Whether each function (by index) is reachable from some handler.
    pub reachable_functions: Vec<bool>,
    /// Libraries pinned wholesale because an indirect call site targets
    /// them (conservative treatment of dynamic dispatch).
    pub pinned_libraries: Vec<bool>,
}

impl StaticAnalysis {
    /// Runs the analysis over `app`, rooting at every handler — static
    /// analysis cannot know which entry points the workload actually uses
    /// (the paper's central observation).
    pub fn analyze(app: &Application) -> StaticAnalysis {
        let roots: Vec<FunctionId> = app.handlers().iter().map(|h| h.function()).collect();
        StaticAnalysis::analyze_from(app, &roots)
    }

    /// Runs the analysis rooted at a single entry function — the
    /// per-handler view the anti-pattern lints need to ask "does *this*
    /// entry point reach that package?", which the all-handlers union
    /// cannot answer.
    fn analyze_entry(app: &Application, entry: FunctionId) -> StaticAnalysis {
        StaticAnalysis::analyze_from(app, &[entry])
    }

    /// Runs the analysis from an explicit set of entry functions.
    fn analyze_from(app: &Application, roots: &[FunctionId]) -> StaticAnalysis {
        let call_graph = app.static_call_graph();
        let mut reachable = vec![false; app.functions().len()];
        let mut pinned = vec![false; app.libraries().len()];
        let mut queue: VecDeque<FunctionId> = VecDeque::new();

        for &f in roots {
            if !reachable[f.index()] {
                reachable[f.index()] = true;
                queue.push_back(f);
            }
        }

        // BFS over the precomputed adjacency.
        while let Some(f) = queue.pop_front() {
            for &t in &call_graph[f.index()] {
                if !reachable[t.index()] {
                    reachable[t.index()] = true;
                    queue.push_back(t);
                }
            }
        }

        // Indirect sites in *reachable* functions pin the callee's whole
        // library (conservative treatment of dynamic dispatch).
        for (i, is_reachable) in reachable.iter().enumerate() {
            if !is_reachable {
                continue;
            }
            for site in app.function(FunctionId::from_index(i)).call_sites() {
                if site.kind == CallKind::Indirect {
                    let callee_module = app.function(site.target).module();
                    if let Some(lib) = app.module(callee_module).library() {
                        pinned[lib.index()] = true;
                    }
                }
            }
        }

        StaticAnalysis {
            reachable_functions: reachable,
            pinned_libraries: pinned,
        }
    }

    /// Whether function `f` is reachable from some entry point.
    pub fn is_reachable(&self, f: FunctionId) -> bool {
        self.reachable_functions[f.index()]
    }

    /// Whether `lib` was pinned wholesale by an indirect call.
    pub fn is_pinned(&self, lib: LibraryId) -> bool {
        self.pinned_libraries[lib.index()]
    }

    /// Whether any reachable function is defined in — or touches a module
    /// of — the dotted `package` subtree. Combined with
    /// [`StaticAnalysis::analyze_entry`] this answers the init-in-handler
    /// question: an entry point that statically uses a deferred package
    /// will pay its lazy load inside the request on every fresh container.
    fn uses_package(&self, app: &Application, package: &str) -> bool {
        self.reachable_functions
            .iter()
            .enumerate()
            .filter(|(_, r)| **r)
            .any(|(i, _)| {
                let f = app.function(FunctionId::from_index(i));
                app.module(f.module()).in_package(package)
                    || f.touched_modules()
                        .iter()
                        .any(|m| app.module(*m).in_package(package))
            })
    }
}

/// How many of `app`'s handlers statically reach the dotted `package` —
/// the call-graph query behind the init-in-handler lint (all handlers
/// reaching a deferred package means its lazy load is on every cold path).
pub fn handlers_reaching_package(app: &Application, package: &str) -> usize {
    app.handlers()
        .iter()
        .filter(|h| StaticAnalysis::analyze_entry(app, h.function()).uses_package(app, package))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimstart_appmodel::app::AppBuilder;
    use slimstart_appmodel::function::{Stmt, StmtKind};
    use slimstart_simcore::time::SimDuration;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    /// handler calls hot directly; admin handler calls wdead; nothing calls
    /// sdead; an indirect call targets ext.
    fn app() -> Application {
        let mut b = AppBuilder::new("t");
        let lib = b.add_library("lib");
        let ext = b.add_library("ext");
        let h = b.add_app_module("handler", ms(1), 0);
        let hot = b.add_library_module("lib.hot", ms(1), 0, false, lib);
        let wdead = b.add_library_module("lib.wdead", ms(1), 0, false, lib);
        let sdead = b.add_library_module("lib.sdead", ms(1), 0, false, lib);
        let extm = b.add_library_module("ext", ms(1), 0, false, ext);
        let f_hot = b.add_function("hot_fn", hot, 5, vec![]);
        let f_wdead = b.add_function("wdead_fn", wdead, 5, vec![]);
        let _f_sdead = b.add_function("sdead_fn", sdead, 5, vec![]);
        let f_ext = b.add_function("ext_fn", extm, 5, vec![]);
        let f_main = b.add_function(
            "main",
            h,
            4,
            vec![
                Stmt {
                    line: 5,
                    kind: StmtKind::call(f_hot),
                },
                Stmt {
                    line: 6,
                    kind: StmtKind::Branch {
                        probability: 0.001,
                        body: vec![Stmt {
                            line: 7,
                            kind: StmtKind::indirect_call(f_ext),
                        }],
                    },
                },
            ],
        );
        let f_admin = b.add_function(
            "admin",
            h,
            20,
            vec![Stmt {
                line: 21,
                kind: StmtKind::call(f_wdead),
            }],
        );
        b.add_handler("main", f_main);
        b.add_handler("admin", f_admin);
        b.finish().unwrap()
    }

    #[test]
    fn all_handlers_are_roots() {
        let app = app();
        let a = StaticAnalysis::analyze(&app);
        // Every function except sdead_fn is reachable: main, admin, hot_fn,
        // wdead_fn (via the never-invoked admin handler!), ext_fn.
        let reachable = a.reachable_functions.iter().filter(|r| **r).count();
        assert_eq!(reachable, app.functions().len() - 1);
        let sdead_fn = (0..app.functions().len())
            .map(FunctionId::from_index)
            .find(|f| app.function(*f).name() == "sdead_fn")
            .unwrap();
        assert!(!a.is_reachable(sdead_fn));
    }

    #[test]
    fn branches_are_statically_taken() {
        let app = app();
        let a = StaticAnalysis::analyze(&app);
        let ext_fn = (0..app.functions().len())
            .map(FunctionId::from_index)
            .find(|f| app.function(*f).name() == "ext_fn")
            .unwrap();
        // The 0.1 %-probability branch still counts.
        assert!(a.is_reachable(ext_fn));
    }

    #[test]
    fn indirect_calls_pin_their_library() {
        let app = app();
        let a = StaticAnalysis::analyze(&app);
        assert!(a.is_pinned(LibraryId::from_index(1))); // ext
        assert!(!a.is_pinned(LibraryId::from_index(0))); // lib (direct calls only)
    }

    #[test]
    fn per_entry_analysis_sees_only_that_handlers_world() {
        let app = app();
        let main = app.handlers()[0].function();
        let admin = app.handlers()[1].function();
        let from_main = StaticAnalysis::analyze_entry(&app, main);
        let from_admin = StaticAnalysis::analyze_entry(&app, admin);
        assert!(from_main.uses_package(&app, "lib.hot"));
        assert!(!from_main.uses_package(&app, "lib.wdead"));
        assert!(from_admin.uses_package(&app, "lib.wdead"));
        assert!(!from_admin.uses_package(&app, "ext"));
        // The union (analyze) reaches both.
        let union = StaticAnalysis::analyze(&app);
        assert!(union.uses_package(&app, "lib.hot"));
        assert!(union.uses_package(&app, "lib.wdead"));
        assert!(!union.uses_package(&app, "lib.sdead"));
    }

    #[test]
    fn handlers_reaching_package_counts_entries() {
        let app = app();
        assert_eq!(handlers_reaching_package(&app, "lib.hot"), 1);
        assert_eq!(handlers_reaching_package(&app, "lib.wdead"), 1);
        assert_eq!(handlers_reaching_package(&app, "lib"), 2);
        assert_eq!(handlers_reaching_package(&app, "lib.sdead"), 0);
    }
}
