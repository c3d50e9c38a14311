//! The 22 evaluated applications, reconstructed from the paper's published
//! structural parameters.
//!
//! Table II gives, per application: the dominant library, library count,
//! module count and average import depth. The motivation study (§II) and the
//! case studies (§VI) give the *composition* of each application's
//! initialization cost:
//!
//! * `frac_static_dead` — init share in modules unreachable from any entry
//!   point (what FaaSLight's reachability analysis removes);
//! * `frac_workload_dead` — init share reachable only from entry points that
//!   the observed workload never invokes (static analysis keeps it, dynamic
//!   profiling proves it unused — the paper's key gap, Observation 2);
//! * `frac_rare` — init share used on a small fraction of requests (< 2 %
//!   utilization; e.g. `xmlschema` behind the SBOM branch in CVE-bin-tool);
//! * `frac_side_effectful` — init share that dynamic profiling flags unused
//!   but the optimizer must keep eager because deferral would change
//!   behaviour (the gap between Fig. 2's upper bound and realized speedup).
//!
//! The remaining share is *hot* — genuinely needed on every request.
//! Published speedups/memory numbers are retained in [`PaperTargets`] so the
//! experiment harness can print paper-vs-measured tables.

use slimstart_simcore::time::SimDuration;

use crate::synth::{
    AppBlueprint, BlueprintError, BuiltApp, HandlerBlueprint, LibraryBlueprint,
    SubpackageBlueprint, UseSpec,
};

/// Which benchmark suite an application comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// RainbowCake benchmark (paper reference 14).
    RainbowCake,
    /// FaaSLight benchmark (paper reference 13).
    FaasLight,
    /// FaaSWorkbench / FunctionBench (paper reference 16).
    FaasWorkbench,
    /// The four real-world applications (§V-a).
    RealWorld,
}

impl Suite {
    /// Human-readable suite name as used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            Suite::RainbowCake => "RainbowCake",
            Suite::FaasLight => "FaaSLight",
            Suite::FaasWorkbench => "FaaS Workbench",
            Suite::RealWorld => "Real-World",
        }
    }
}

/// Published evaluation numbers for one application (Tables II & III,
/// Figs. 2 & 8), kept for paper-vs-measured reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperTargets {
    /// Table II "Initialization Speedup (times)".
    pub init_speedup: f64,
    /// Table II "Execution Speedup (times)" (end-to-end).
    pub e2e_speedup: f64,
    /// Table II 99th-percentile initialization speedup.
    pub p99_init_speedup: f64,
    /// Table II 99th-percentile end-to-end speedup.
    pub p99_e2e_speedup: f64,
    /// Fig. 8 memory reduction factor.
    pub mem_reduction: f64,
    /// Fig. 2 dynamic-profiling upper bound (% of init overhead), FaaSLight
    /// apps only.
    pub fig2_dyn_pct: Option<f64>,
    /// Fig. 2 static-reachability share (% of init overhead), FaaSLight apps
    /// only.
    pub fig2_stat_pct: Option<f64>,
}

/// Knobs that deliberately plant anti-patterns in a synthesized app.
///
/// The published catalog entries never set these; [`antipattern_apps`] uses
/// them to grow positive fixtures for the analyzer's anti-pattern lint
/// catalog and the verifier-gated auto-fix stage.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AntipatternSeed {
    /// Override the main handler's consecutive core-API call count. Four or
    /// more back-to-back calls to the same client API trip the
    /// `missing-connection-reuse` lint.
    pub chatty_calls: Option<usize>,
    /// Defer the handler-module import of the main library after building,
    /// so every entry point pays the lazy load inside the request
    /// (`init-in-handler` / `handler-hot-import`).
    pub deferred_hot: bool,
    /// If non-zero, add a `legacysdk` library with this many modules that no
    /// handler ever calls (`unused-heavy-library`; with 64+ modules it also
    /// trips `oversized-dependency-tree`).
    pub unused_lib_modules: usize,
    /// Eager initialization cost of the planted unused library, ms.
    pub unused_lib_init_ms: f64,
}

/// One catalog application: published structure plus the latent composition
/// used to synthesize it.
#[derive(Debug, Clone)]
pub struct CatalogApp {
    /// Short code used in the paper's figures (e.g. `R-DV`).
    pub code: &'static str,
    /// Full application name.
    pub name: &'static str,
    /// Source benchmark suite.
    pub suite: Suite,
    /// Dominant library (Table II "Library" column).
    pub main_library: &'static str,
    /// Application domain (Table II "Type" column).
    pub lib_type: &'static str,
    /// Number of libraries (Table II).
    pub n_libs: usize,
    /// Number of modules (Table II).
    pub n_modules: usize,
    /// Average import depth (Table II).
    pub avg_depth: f64,
    /// Baseline cold-start end-to-end latency, ms.
    pub e2e_ms: f64,
    /// Fraction of end-to-end time spent in library initialization (Fig. 1).
    pub init_share: f64,
    /// Init share in statically unreachable modules.
    pub frac_static_dead: f64,
    /// Init share reachable only from workload-dead entry points.
    pub frac_workload_dead: f64,
    /// Init share used on < 2 % of requests.
    pub frac_rare: f64,
    /// Init share that is unused but side-effectful (undeferrable).
    pub frac_side_effectful: f64,
    /// Per-request probability of the rare path.
    pub rare_probability: f64,
    /// If set, the rare share is materialized as its own library with this
    /// name (the CVE-bin-tool / `xmlschema` pattern).
    pub rare_as_library: Option<&'static str>,
    /// Name of the workload-dead subpackage (e.g. `sem` for nltk in R-SA,
    /// `drawing` for igraph in R-GB).
    pub wdead_sub: &'static str,
    /// Baseline peak memory, MB.
    pub mem_before_mb: f64,
    /// Fraction of baseline memory attributable to libraries.
    pub mem_lib_frac: f64,
    /// Fraction of library memory that sits in deferrable subpackages.
    pub mem_saveable_frac: f64,
    /// Whether one extra-library use is dispatched indirectly.
    pub indirect_extra: bool,
    /// Whether the app has a third, occasionally used entry point.
    pub extra_handler: bool,
    /// Deliberately planted anti-patterns (`None` for published entries).
    pub antipattern: Option<AntipatternSeed>,
    /// Published numbers for comparison.
    pub paper: PaperTargets,
}

/// Fraction of a request stream routed to the `admin` (workload-dead)
/// handler in the evaluation workload: zero, per Observation 3's skew.
pub const ADMIN_WEIGHT: f64 = 0.0;
/// Fraction routed to the occasional `batch` handler where present.
pub const BATCH_WEIGHT: f64 = 0.08;

const EXTRA_LIB_NAMES: &[&str] = &[
    "six", "dateutil", "urllib3", "chardet", "attrs", "yamlcfg", "certifi", "requests",
];

impl CatalogApp {
    /// The hot (always-needed) fraction of initialization cost.
    fn frac_hot(&self) -> f64 {
        1.0 - self.frac_static_dead
            - self.frac_workload_dead
            - self.frac_rare
            - self.frac_side_effectful
    }

    /// Whether the app clears the paper's 10 % initialization-overhead gate
    /// (§IV-A1): apps below it are excluded from optimization.
    pub fn above_gate(&self) -> bool {
        self.init_share > 0.10
    }

    /// Handler names and their invocation weights in the evaluation
    /// workload.
    pub fn workload_weights(&self) -> Vec<(String, f64)> {
        let mut w = Vec::new();
        if self.extra_handler {
            w.push(("handler".to_string(), 1.0 - BATCH_WEIGHT));
            w.push(("batch".to_string(), BATCH_WEIGHT));
        } else {
            w.push(("handler".to_string(), 1.0));
        }
        if self.has_admin_handler() {
            w.push(("admin".to_string(), ADMIN_WEIGHT));
        }
        w
    }

    fn has_admin_handler(&self) -> bool {
        self.frac_workload_dead > 0.0 || self.frac_side_effectful > 0.0
    }

    /// Expands this entry into a synthesizable [`AppBlueprint`].
    fn blueprint(&self) -> AppBlueprint {
        let init_total_ms = self.e2e_ms * self.init_share;
        let exec_total_ms = self.e2e_ms - init_total_ms;
        let app_init = SimDuration::from_millis_f64(init_total_ms * 0.01);

        let extras = if self.n_libs <= 1 {
            0
        } else {
            (self.n_libs - 1).min(8).min(self.n_modules / 24)
        };
        let rare_lib_modules = if self.rare_as_library.is_some() {
            (self.n_modules / 12).max(8)
        } else {
            0
        };
        let extras_init_frac = if extras == 0 {
            0.0
        } else {
            0.12f64.min((self.frac_hot() - 0.06).max(0.02))
        };

        // --- memory budgets -------------------------------------------------
        let lib_mem_total_kb = (self.mem_before_mb * self.mem_lib_frac * 1024.0) as u64;
        let base_mem_mb = self.mem_before_mb * (1.0 - self.mem_lib_frac);
        // 35 MB models the language runtime; the remainder is app-code state.
        let app_mem_kb = (((base_mem_mb - 35.0).max(4.0)) * 1024.0) as u64;
        let extras_mem_frac = extras_init_frac; // extras' memory tracks their init share
        let rare_lib_init_frac = if self.rare_as_library.is_some() {
            self.frac_rare
        } else {
            0.0
        };
        // Memory in deferrable subpackages, as a fraction of *all* library
        // memory; the main library holds all of it.
        let saveable = self.mem_saveable_frac.min(0.95);

        let mut libraries = Vec::new();

        // --- main library ---------------------------------------------------
        let main_modules = self.n_modules
            - extras * self.extra_modules_each(extras, rare_lib_modules)
            - rare_lib_modules;
        let main_init_frac = 1.0 - 0.01 - extras_init_frac - rare_lib_init_frac;
        let main_mem_frac = 1.0 - extras_mem_frac - rare_lib_init_frac;
        let core_frac = (self.frac_hot() - 0.01 - extras_init_frac).max(0.02);

        let mut subs: Vec<(&str, f64, bool, usize, f64)> = Vec::new();
        // (name, init frac of total, side_effectful, api_functions, mem frac of all-lib mem)
        let defer_total = self.frac_static_dead
            + self.frac_workload_dead
            + if self.rare_as_library.is_none() {
                self.frac_rare
            } else {
                0.0
            };
        let mem_of = |init_frac: f64| {
            if defer_total <= 0.0 {
                0.0
            } else {
                saveable * init_frac / defer_total
            }
        };
        let hot_mem = (1.0 - extras_mem_frac - rare_lib_init_frac - saveable).max(0.0);
        let sfx_mem_frac = if self.frac_side_effectful > 0.0 {
            hot_mem * 0.15
        } else {
            0.0
        };
        subs.push(("core", core_frac, false, 3, hot_mem - sfx_mem_frac));
        if self.frac_static_dead > 0.0 {
            subs.push((
                "compat",
                self.frac_static_dead,
                false,
                1,
                mem_of(self.frac_static_dead),
            ));
        }
        if self.frac_workload_dead > 0.0 {
            subs.push((
                self.wdead_sub,
                self.frac_workload_dead,
                false,
                1,
                mem_of(self.frac_workload_dead),
            ));
        }
        if self.frac_rare > 0.0 && self.rare_as_library.is_none() {
            subs.push(("xmlio", self.frac_rare, false, 1, mem_of(self.frac_rare)));
        }
        if self.frac_side_effectful > 0.0 {
            subs.push(("plugins", self.frac_side_effectful, true, 1, sfx_mem_frac));
        }

        let init_norm: f64 = subs.iter().map(|s| s.1).sum();
        let mem_norm: f64 = subs.iter().map(|s| s.4).sum::<f64>().max(1e-9);
        let module_weights: Vec<f64> = subs.iter().map(|s| s.1.max(0.06)).collect();
        let module_norm: f64 = module_weights.iter().sum();

        let main_api_cost = self.per_call_cost_ms(exec_total_ms, extras);
        libraries.push(LibraryBlueprint {
            name: self.main_library.to_string(),
            modules: main_modules,
            avg_depth: self.avg_depth,
            init_total: SimDuration::from_millis_f64(init_total_ms * main_init_frac),
            mem_total_kb: (lib_mem_total_kb as f64 * main_mem_frac) as u64,
            subpackages: subs
                .iter()
                .zip(&module_weights)
                .map(|((name, init, sfx, api, mem), mw)| SubpackageBlueprint {
                    name: name.to_string(),
                    module_share: mw / module_norm,
                    init_share: init / init_norm,
                    mem_share: mem / mem_norm,
                    side_effectful: *sfx,
                    api_functions: *api,
                    api_call_cost: SimDuration::from_millis_f64(if *name == "core" {
                        main_api_cost
                    } else {
                        8.0
                    }),
                })
                .collect(),
        });

        // --- extra (hot) libraries -------------------------------------------
        for i in 0..extras {
            libraries.push(LibraryBlueprint {
                name: EXTRA_LIB_NAMES[i % EXTRA_LIB_NAMES.len()].to_string(),
                modules: self.extra_modules_each(extras, rare_lib_modules),
                avg_depth: (self.avg_depth - 1.0).max(2.5),
                init_total: SimDuration::from_millis_f64(
                    init_total_ms * extras_init_frac / extras as f64,
                ),
                mem_total_kb: (lib_mem_total_kb as f64 * extras_mem_frac / extras as f64) as u64,
                subpackages: vec![SubpackageBlueprint {
                    name: "core".to_string(),
                    module_share: 1.0,
                    init_share: 1.0,
                    mem_share: 1.0,
                    side_effectful: false,
                    api_functions: 1,
                    api_call_cost: SimDuration::from_millis_f64(
                        self.per_call_cost_ms(exec_total_ms, extras),
                    ),
                }],
            });
        }

        // --- rare library (CVE / xmlschema pattern) ---------------------------
        if let Some(rare_name) = self.rare_as_library {
            libraries.push(LibraryBlueprint {
                name: rare_name.to_string(),
                modules: rare_lib_modules,
                avg_depth: (self.avg_depth - 1.5).max(2.5),
                init_total: SimDuration::from_millis_f64(init_total_ms * self.frac_rare),
                mem_total_kb: (lib_mem_total_kb as f64 * rare_lib_init_frac) as u64,
                subpackages: vec![SubpackageBlueprint {
                    name: "validator".to_string(),
                    module_share: 1.0,
                    init_share: 1.0,
                    mem_share: 1.0,
                    side_effectful: false,
                    api_functions: 1,
                    // The rare path does real work when it fires (an SBOM
                    // validation is a full scan), which is what gives the
                    // library its small-but-nonzero utilization (paper:
                    // 0.78 %).
                    api_call_cost: SimDuration::from_millis_f64(exec_total_ms * 0.75),
                }],
            });
        }

        // --- planted unused library (anti-pattern seeding) --------------------
        if let Some(seed) = &self.antipattern {
            if seed.unused_lib_modules > 0 {
                libraries.push(LibraryBlueprint {
                    name: "legacysdk".to_string(),
                    modules: seed.unused_lib_modules,
                    avg_depth: (self.avg_depth - 1.0).max(2.5),
                    init_total: SimDuration::from_millis_f64(seed.unused_lib_init_ms),
                    mem_total_kb: 4096,
                    // No handler ever references it; the eager import from the
                    // handler module is the whole anti-pattern.
                    subpackages: vec![SubpackageBlueprint {
                        name: "core".to_string(),
                        module_share: 1.0,
                        init_share: 1.0,
                        mem_share: 1.0,
                        side_effectful: false,
                        api_functions: 1,
                        api_call_cost: SimDuration::from_millis(5),
                    }],
                });
            }
        }

        // --- handlers ----------------------------------------------------------
        let mut handlers = Vec::new();
        let core_calls = self.antipattern.and_then(|s| s.chatty_calls).unwrap_or(2);
        let mut main_uses = vec![UseSpec {
            library: self.main_library.to_string(),
            subpackage: "core".to_string(),
            api_index: 0,
            calls: core_calls,
            branch_probability: None,
            indirect: false,
        }];
        for i in 0..extras {
            main_uses.push(UseSpec {
                library: EXTRA_LIB_NAMES[i % EXTRA_LIB_NAMES.len()].to_string(),
                subpackage: "core".to_string(),
                api_index: 0,
                calls: 1,
                branch_probability: None,
                indirect: self.indirect_extra && i == 0,
            });
        }
        if self.frac_rare > 0.0 {
            let (lib, sub) = match self.rare_as_library {
                Some(r) => (r.to_string(), "validator".to_string()),
                None => (self.main_library.to_string(), "xmlio".to_string()),
            };
            main_uses.push(UseSpec {
                library: lib,
                subpackage: sub,
                api_index: 0,
                calls: 1,
                branch_probability: Some(self.rare_probability),
                indirect: false,
            });
        }
        handlers.push(HandlerBlueprint {
            name: "handler".to_string(),
            local_work: SimDuration::from_millis_f64(exec_total_ms * 0.4),
            uses: main_uses,
        });

        if self.extra_handler {
            handlers.push(HandlerBlueprint {
                name: "batch".to_string(),
                local_work: SimDuration::from_millis_f64(exec_total_ms * 0.5),
                uses: vec![UseSpec {
                    library: self.main_library.to_string(),
                    subpackage: "core".to_string(),
                    api_index: 1,
                    calls: 3,
                    branch_probability: None,
                    indirect: false,
                }],
            });
        }

        if self.has_admin_handler() {
            let mut uses = Vec::new();
            if self.frac_workload_dead > 0.0 {
                uses.push(UseSpec {
                    library: self.main_library.to_string(),
                    subpackage: self.wdead_sub.to_string(),
                    api_index: 0,
                    calls: 1,
                    branch_probability: None,
                    indirect: false,
                });
            }
            if self.frac_side_effectful > 0.0 {
                uses.push(UseSpec {
                    library: self.main_library.to_string(),
                    subpackage: "plugins".to_string(),
                    api_index: 0,
                    calls: 1,
                    branch_probability: None,
                    indirect: false,
                });
            }
            handlers.push(HandlerBlueprint {
                name: "admin".to_string(),
                local_work: SimDuration::from_millis(20),
                uses,
            });
        }

        AppBlueprint {
            name: self.name.to_string(),
            app_init,
            app_mem_kb,
            libraries,
            handlers,
        }
    }

    fn extra_modules_each(&self, extras: usize, rare_lib_modules: usize) -> usize {
        if extras == 0 {
            return 0;
        }
        let pool = (self.n_modules - rare_lib_modules) as f64 * 0.28;
        ((pool / extras as f64) as usize).max(6)
    }

    fn per_call_cost_ms(&self, exec_total_ms: f64, extras: usize) -> f64 {
        let total_calls = 2 + extras;
        exec_total_ms * 0.6 / total_calls as f64
    }

    /// Builds the application deterministically from `seed`.
    ///
    /// # Errors
    ///
    /// Propagates blueprint validation failures (none occur for shipped
    /// catalog entries; covered by tests).
    pub fn build(&self, seed: u64) -> Result<BuiltApp, BlueprintError> {
        let mut built = crate::synth::build_app(&self.blueprint(), seed)?;
        if self.antipattern.is_some_and(|s| s.deferred_hot) {
            // Ship the app with the hot main library deferred: every handler
            // then pays the library load inside the request, the
            // `init-in-handler` anti-pattern.
            let root = built.libraries[self.main_library].root;
            let flipped = built.app.set_import_mode(
                built.app_module,
                root,
                crate::imports::ImportMode::Deferred,
            );
            debug_assert!(flipped, "handler module always imports the main library");
        }
        Ok(built)
    }
}

/// The full 22-application catalog: 17 Table II applications plus the five
/// below the 10 % initialization-overhead gate.
pub fn catalog() -> Vec<CatalogApp> {
    let mut apps = vec![
        // ---------------- RainbowCake ----------------
        CatalogApp {
            code: "R-DV",
            name: "dna-visualisation",
            suite: Suite::RainbowCake,
            main_library: "numpy",
            lib_type: "Scientific Computing",
            n_libs: 2,
            n_modules: 242,
            avg_depth: 4.75,
            e2e_ms: 2500.0,
            init_share: 0.987,
            frac_static_dead: 0.18,
            frac_workload_dead: 0.345,
            frac_rare: 0.04,
            frac_side_effectful: 0.02,
            rare_probability: 0.01,
            rare_as_library: None,
            wdead_sub: "polynomial",
            mem_before_mb: 180.0,
            mem_lib_frac: 0.6,
            mem_saveable_frac: 0.385,
            indirect_extra: false,
            extra_handler: true,
            antipattern: None,
            paper: PaperTargets {
                init_speedup: 2.30,
                e2e_speedup: 2.26,
                p99_init_speedup: 2.03,
                p99_e2e_speedup: 1.99,
                mem_reduction: 1.30,
                fig2_dyn_pct: None,
                fig2_stat_pct: None,
            },
        },
        CatalogApp {
            code: "R-GB",
            name: "graph-bfs",
            suite: Suite::RainbowCake,
            main_library: "igraph",
            lib_type: "Graph Processing",
            n_libs: 1,
            n_modules: 86,
            avg_depth: 3.74,
            e2e_ms: 900.0,
            init_share: 0.958,
            frac_static_dead: 0.12,
            frac_workload_dead: 0.265,
            frac_rare: 0.03,
            frac_side_effectful: 0.02,
            rare_probability: 0.01,
            rare_as_library: None,
            wdead_sub: "drawing",
            mem_before_mb: 95.0,
            mem_lib_frac: 0.6,
            mem_saveable_frac: 0.217,
            indirect_extra: false,
            extra_handler: false,
            antipattern: None,
            paper: PaperTargets {
                init_speedup: 1.71,
                e2e_speedup: 1.66,
                p99_init_speedup: 1.55,
                p99_e2e_speedup: 1.54,
                mem_reduction: 1.15,
                fig2_dyn_pct: None,
                fig2_stat_pct: None,
            },
        },
        CatalogApp {
            code: "R-GM",
            name: "graph-mst",
            suite: Suite::RainbowCake,
            main_library: "igraph",
            lib_type: "Graph Processing",
            n_libs: 1,
            n_modules: 86,
            avg_depth: 3.74,
            e2e_ms: 910.0,
            init_share: 0.968,
            frac_static_dead: 0.12,
            frac_workload_dead: 0.275,
            frac_rare: 0.03,
            frac_side_effectful: 0.02,
            rare_probability: 0.01,
            rare_as_library: None,
            wdead_sub: "drawing",
            mem_before_mb: 95.0,
            mem_lib_frac: 0.6,
            mem_saveable_frac: 0.217,
            indirect_extra: false,
            extra_handler: false,
            antipattern: None,
            paper: PaperTargets {
                init_speedup: 1.74,
                e2e_speedup: 1.70,
                p99_init_speedup: 1.67,
                p99_e2e_speedup: 1.64,
                mem_reduction: 1.15,
                fig2_dyn_pct: None,
                fig2_stat_pct: None,
            },
        },
        CatalogApp {
            code: "R-GPR",
            name: "graph-pagerank",
            suite: Suite::RainbowCake,
            main_library: "igraph",
            lib_type: "Graph Processing",
            n_libs: 1,
            n_modules: 86,
            avg_depth: 3.74,
            e2e_ms: 950.0,
            init_share: 0.929,
            frac_static_dead: 0.12,
            frac_workload_dead: 0.262,
            frac_rare: 0.03,
            frac_side_effectful: 0.02,
            rare_probability: 0.01,
            rare_as_library: None,
            wdead_sub: "drawing",
            mem_before_mb: 96.0,
            mem_lib_frac: 0.6,
            mem_saveable_frac: 0.205,
            indirect_extra: false,
            extra_handler: false,
            antipattern: None,
            paper: PaperTargets {
                init_speedup: 1.70,
                e2e_speedup: 1.62,
                p99_init_speedup: 1.69,
                p99_e2e_speedup: 1.64,
                mem_reduction: 1.14,
                fig2_dyn_pct: None,
                fig2_stat_pct: None,
            },
        },
        CatalogApp {
            code: "R-SA",
            name: "sentiment-analysis",
            suite: Suite::RainbowCake,
            main_library: "nltk",
            lib_type: "Natural Language Processing",
            n_libs: 4,
            n_modules: 265,
            avg_depth: 5.13,
            e2e_ms: 2200.0,
            init_share: 0.957,
            frac_static_dead: 0.0,
            frac_workload_dead: 0.26,
            frac_rare: 0.0,
            frac_side_effectful: 0.02,
            rare_probability: 0.01,
            rare_as_library: None,
            wdead_sub: "sem",
            mem_before_mb: 160.0,
            mem_lib_frac: 0.6,
            mem_saveable_frac: 0.109,
            indirect_extra: false,
            extra_handler: true,
            antipattern: None,
            paper: PaperTargets {
                init_speedup: 1.35,
                e2e_speedup: 1.33,
                p99_init_speedup: 1.37,
                p99_e2e_speedup: 1.34,
                mem_reduction: 1.07,
                fig2_dyn_pct: None,
                fig2_stat_pct: None,
            },
        },
        // ---------------- FaaSLight ----------------
        CatalogApp {
            code: "FL-PMP",
            name: "price-ml-predict",
            suite: Suite::FaasLight,
            main_library: "scipy",
            lib_type: "Machine Learning",
            n_libs: 3,
            n_modules: 832,
            avg_depth: 7.98,
            e2e_ms: 3184.67,
            init_share: 0.9755,
            frac_static_dead: 0.10,
            frac_workload_dead: 0.113,
            frac_rare: 0.024,
            frac_side_effectful: 0.015,
            rare_probability: 0.01,
            rare_as_library: None,
            wdead_sub: "signal",
            mem_before_mb: 123.64,
            mem_lib_frac: 0.566,
            mem_saveable_frac: 0.061,
            indirect_extra: false,
            extra_handler: true,
            antipattern: None,
            paper: PaperTargets {
                init_speedup: 1.31,
                e2e_speedup: 1.30,
                p99_init_speedup: 1.37,
                p99_e2e_speedup: 1.36,
                mem_reduction: 1.04,
                fig2_dyn_pct: Some(25.2),
                fig2_stat_pct: Some(10.0),
            },
        },
        CatalogApp {
            code: "FL-SN",
            name: "skimage-numpy",
            suite: Suite::FaasLight,
            main_library: "scipy",
            lib_type: "Image Processing",
            n_libs: 14,
            n_modules: 656,
            avg_depth: 5.32,
            e2e_ms: 1821.73,
            init_share: 0.9103,
            frac_static_dead: 0.22,
            frac_workload_dead: 0.042,
            frac_rare: 0.029,
            frac_side_effectful: 0.189,
            rare_probability: 0.01,
            rare_as_library: None,
            wdead_sub: "restoration",
            mem_before_mb: 112.09,
            mem_lib_frac: 0.642,
            mem_saveable_frac: 0.0,
            indirect_extra: false,
            extra_handler: false,
            antipattern: None,
            paper: PaperTargets {
                init_speedup: 1.41,
                e2e_speedup: 1.36,
                p99_init_speedup: 1.41,
                p99_e2e_speedup: 1.37,
                mem_reduction: 1.00,
                fig2_dyn_pct: Some(48.0),
                fig2_stat_pct: Some(22.0),
            },
        },
        CatalogApp {
            code: "FL-PWM",
            name: "predict-wine-ml",
            suite: Suite::FaasLight,
            main_library: "pandas",
            lib_type: "Machine Learning",
            n_libs: 6,
            n_modules: 1385,
            avg_depth: 7.57,
            e2e_ms: 6201.17,
            init_share: 0.9375,
            frac_static_dead: 0.25,
            frac_workload_dead: 0.139,
            frac_rare: 0.043,
            frac_side_effectful: 0.088,
            rare_probability: 0.01,
            rare_as_library: None,
            wdead_sub: "plotting",
            mem_before_mb: 252.08,
            mem_lib_frac: 0.583,
            mem_saveable_frac: 0.432,
            indirect_extra: false,
            extra_handler: true,
            antipattern: None,
            paper: PaperTargets {
                init_speedup: 1.76,
                e2e_speedup: 1.68,
                p99_init_speedup: 1.59,
                p99_e2e_speedup: 1.52,
                mem_reduction: 1.34,
                fig2_dyn_pct: Some(52.0),
                fig2_stat_pct: Some(25.0),
            },
        },
        CatalogApp {
            code: "FL-TWM",
            name: "train-wine-ml",
            suite: Suite::FaasLight,
            main_library: "pandas",
            lib_type: "Machine Learning",
            n_libs: 6,
            n_modules: 1385,
            avg_depth: 7.57,
            e2e_ms: 5154.34,
            init_share: 0.755,
            frac_static_dead: 0.21,
            frac_workload_dead: 0.187,
            frac_rare: 0.044,
            frac_side_effectful: 0.058,
            rare_probability: 0.01,
            rare_as_library: None,
            wdead_sub: "plotting",
            mem_before_mb: 251.91,
            mem_lib_frac: 0.577,
            mem_saveable_frac: 0.441,
            indirect_extra: false,
            extra_handler: true,
            antipattern: None,
            paper: PaperTargets {
                init_speedup: 1.79,
                e2e_speedup: 1.50,
                p99_init_speedup: 1.72,
                p99_e2e_speedup: 1.46,
                mem_reduction: 1.34,
                fig2_dyn_pct: Some(49.9),
                fig2_stat_pct: Some(21.0),
            },
        },
        CatalogApp {
            code: "FL-SA",
            name: "sentiment-analysis-fl",
            suite: Suite::FaasLight,
            main_library: "pandas",
            lib_type: "Natural Language Processing",
            n_libs: 6,
            n_modules: 1081,
            avg_depth: 6.8,
            e2e_ms: 4331.43,
            init_share: 0.985,
            frac_static_dead: 0.18,
            frac_workload_dead: 0.272,
            frac_rare: 0.05,
            frac_side_effectful: 0.281,
            rare_probability: 0.01,
            rare_as_library: None,
            wdead_sub: "plotting",
            mem_before_mb: 203.54,
            mem_lib_frac: 0.673,
            mem_saveable_frac: 0.502,
            indirect_extra: false,
            extra_handler: true,
            antipattern: None,
            paper: PaperTargets {
                init_speedup: 2.01,
                e2e_speedup: 2.01,
                p99_init_speedup: 2.15,
                p99_e2e_speedup: 2.15,
                mem_reduction: 1.51,
                fig2_dyn_pct: Some(78.32),
                fig2_stat_pct: Some(18.0),
            },
        },
        // ---------------- FaaS Workbench ----------------
        CatalogApp {
            code: "FWB-CML",
            name: "chameleon",
            suite: Suite::FaasWorkbench,
            main_library: "pkg_resources",
            lib_type: "Package Management",
            n_libs: 3,
            n_modules: 102,
            avg_depth: 4.8,
            e2e_ms: 650.0,
            init_share: 0.328,
            frac_static_dead: 0.05,
            frac_workload_dead: 0.075,
            frac_rare: 0.02,
            frac_side_effectful: 0.02,
            rare_probability: 0.01,
            rare_as_library: None,
            wdead_sub: "vendor",
            mem_before_mb: 80.0,
            mem_lib_frac: 0.55,
            mem_saveable_frac: 0.049,
            indirect_extra: false,
            extra_handler: false,
            antipattern: None,
            paper: PaperTargets {
                init_speedup: 1.17,
                e2e_speedup: 1.05,
                p99_init_speedup: 1.24,
                p99_e2e_speedup: 1.07,
                mem_reduction: 1.03,
                fig2_dyn_pct: None,
                fig2_stat_pct: None,
            },
        },
        CatalogApp {
            code: "FWB-MT",
            name: "model-training",
            suite: Suite::FaasWorkbench,
            main_library: "scipy",
            lib_type: "Machine Learning",
            n_libs: 5,
            n_modules: 1307,
            avg_depth: 8.16,
            e2e_ms: 4200.0,
            init_share: 0.476,
            frac_static_dead: 0.06,
            frac_workload_dead: 0.084,
            frac_rare: 0.03,
            frac_side_effectful: 0.02,
            rare_probability: 0.01,
            rare_as_library: None,
            wdead_sub: "sparse",
            mem_before_mb: 260.0,
            mem_lib_frac: 0.6,
            mem_saveable_frac: 0.123,
            indirect_extra: false,
            extra_handler: true,
            antipattern: None,
            paper: PaperTargets {
                init_speedup: 1.21,
                e2e_speedup: 1.09,
                p99_init_speedup: 1.20,
                p99_e2e_speedup: 1.09,
                mem_reduction: 1.08,
                fig2_dyn_pct: None,
                fig2_stat_pct: None,
            },
        },
        CatalogApp {
            code: "FWB-MS",
            name: "model-serving",
            suite: Suite::FaasWorkbench,
            main_library: "scipy",
            lib_type: "Machine Learning",
            n_libs: 16,
            n_modules: 1463,
            avg_depth: 7.97,
            e2e_ms: 4800.0,
            init_share: 0.486,
            frac_static_dead: 0.06,
            frac_workload_dead: 0.097,
            frac_rare: 0.03,
            frac_side_effectful: 0.02,
            rare_probability: 0.01,
            rare_as_library: None,
            wdead_sub: "sparse",
            mem_before_mb: 300.0,
            mem_lib_frac: 0.6,
            mem_saveable_frac: 0.152,
            indirect_extra: true,
            extra_handler: true,
            antipattern: None,
            paper: PaperTargets {
                init_speedup: 1.23,
                e2e_speedup: 1.10,
                p99_init_speedup: 1.22,
                p99_e2e_speedup: 1.10,
                mem_reduction: 1.10,
                fig2_dyn_pct: None,
                fig2_stat_pct: None,
            },
        },
        // ---------------- Real-world ----------------
        CatalogApp {
            code: "OCR",
            name: "ocrmypdf",
            suite: Suite::RealWorld,
            main_library: "pdfminer",
            lib_type: "Document Processing",
            n_libs: 20,
            n_modules: 586,
            avg_depth: 6.4,
            e2e_ms: 3500.0,
            init_share: 0.539,
            frac_static_dead: 0.10,
            frac_workload_dead: 0.166,
            frac_rare: 0.03,
            frac_side_effectful: 0.02,
            rare_probability: 0.01,
            rare_as_library: None,
            wdead_sub: "cmap",
            mem_before_mb: 220.0,
            mem_lib_frac: 0.6,
            mem_saveable_frac: 0.179,
            indirect_extra: true,
            extra_handler: true,
            antipattern: None,
            paper: PaperTargets {
                init_speedup: 1.42,
                e2e_speedup: 1.19,
                p99_init_speedup: 1.63,
                p99_e2e_speedup: 1.00,
                mem_reduction: 1.12,
                fig2_dyn_pct: None,
                fig2_stat_pct: None,
            },
        },
        CatalogApp {
            code: "CVE",
            name: "cve-bin-tool",
            suite: Suite::RealWorld,
            main_library: "cve_bin_tool",
            lib_type: "Security",
            n_libs: 6,
            n_modules: 760,
            avg_depth: 6.15,
            e2e_ms: 5200.0,
            init_share: 0.784,
            frac_static_dead: 0.06,
            frac_workload_dead: 0.07,
            frac_rare: 0.083,
            frac_side_effectful: 0.02,
            rare_probability: 0.008,
            rare_as_library: Some("xmlschema"),
            wdead_sub: "checkers_extra",
            mem_before_mb: 310.0,
            mem_lib_frac: 0.6,
            mem_saveable_frac: 0.289,
            indirect_extra: false,
            extra_handler: true,
            antipattern: None,
            paper: PaperTargets {
                init_speedup: 1.27,
                e2e_speedup: 1.20,
                p99_init_speedup: 1.08,
                p99_e2e_speedup: 1.01,
                mem_reduction: 1.21,
                fig2_dyn_pct: None,
                fig2_stat_pct: None,
            },
        },
        CatalogApp {
            code: "SensorTD",
            name: "sensor-telemetry-data",
            suite: Suite::RealWorld,
            main_library: "prophet",
            lib_type: "IoT Predictive Analysis",
            n_libs: 5,
            n_modules: 777,
            avg_depth: 5.9,
            e2e_ms: 6000.0,
            init_share: 0.166,
            frac_static_dead: 0.15,
            frac_workload_dead: 0.307,
            frac_rare: 0.04,
            frac_side_effectful: 0.02,
            rare_probability: 0.01,
            rare_as_library: None,
            wdead_sub: "diagnostics",
            mem_before_mb: 420.0,
            mem_lib_frac: 0.6,
            mem_saveable_frac: 0.333,
            indirect_extra: false,
            extra_handler: true,
            antipattern: None,
            paper: PaperTargets {
                init_speedup: 1.99,
                e2e_speedup: 1.09,
                p99_init_speedup: 1.83,
                p99_e2e_speedup: 1.10,
                mem_reduction: 1.25,
                fig2_dyn_pct: None,
                fig2_stat_pct: None,
            },
        },
        CatalogApp {
            code: "HFP",
            name: "heart-failure-prediction",
            suite: Suite::RealWorld,
            main_library: "scipy",
            lib_type: "Health Care",
            n_libs: 5,
            n_modules: 982,
            avg_depth: 8.79,
            e2e_ms: 2800.0,
            init_share: 0.838,
            frac_static_dead: 0.09,
            frac_workload_dead: 0.155,
            frac_rare: 0.03,
            frac_side_effectful: 0.02,
            rare_probability: 0.01,
            rare_as_library: None,
            wdead_sub: "integrate",
            mem_before_mb: 190.0,
            mem_lib_frac: 0.6,
            mem_saveable_frac: 0.217,
            indirect_extra: false,
            extra_handler: false,
            antipattern: None,
            paper: PaperTargets {
                init_speedup: 1.38,
                e2e_speedup: 1.30,
                p99_init_speedup: 1.46,
                p99_e2e_speedup: 1.39,
                mem_reduction: 1.15,
                fig2_dyn_pct: None,
                fig2_stat_pct: None,
            },
        },
    ];

    // The five applications below the 10 % initialization-overhead gate
    // (17 of 22 show inefficiencies; these five are excluded by the gate).
    apps.extend(trivial_apps());
    apps
}

fn trivial_apps() -> Vec<CatalogApp> {
    let trivial = |code: &'static str,
                   name: &'static str,
                   suite: Suite,
                   lib: &'static str,
                   e2e: f64,
                   init_share: f64| CatalogApp {
        code,
        name,
        suite,
        main_library: lib,
        lib_type: "Utility",
        n_libs: 1,
        n_modules: 24,
        avg_depth: 3.0,
        e2e_ms: e2e,
        init_share,
        frac_static_dead: 0.0,
        frac_workload_dead: 0.0,
        frac_rare: 0.0,
        frac_side_effectful: 0.0,
        rare_probability: 0.0,
        rare_as_library: None,
        wdead_sub: "unused",
        mem_before_mb: 60.0,
        mem_lib_frac: 0.3,
        mem_saveable_frac: 0.0,
        indirect_extra: false,
        extra_handler: false,
        antipattern: None,
        paper: PaperTargets {
            init_speedup: 1.0,
            e2e_speedup: 1.0,
            p99_init_speedup: 1.0,
            p99_e2e_speedup: 1.0,
            mem_reduction: 1.0,
            fig2_dyn_pct: None,
            fig2_stat_pct: None,
        },
    };
    vec![
        trivial(
            "R-UL",
            "uploader",
            Suite::RainbowCake,
            "boto_stub",
            420.0,
            0.06,
        ),
        trivial(
            "R-TN",
            "thumbnailer",
            Suite::RainbowCake,
            "pillow_lite",
            380.0,
            0.08,
        ),
        trivial(
            "FWB-FLT",
            "float-ops",
            Suite::FaasWorkbench,
            "mathkit",
            120.0,
            0.03,
        ),
        trivial(
            "FWB-JSN",
            "json-dumps",
            Suite::FaasWorkbench,
            "jsonkit",
            150.0,
            0.07,
        ),
        trivial(
            "FL-HW",
            "hello-rest",
            Suite::FaasLight,
            "microweb",
            90.0,
            0.05,
        ),
    ]
}

/// Returns the catalog entry with the given short code.
///
/// Resolves the published 22-app catalog first, then the anti-pattern
/// fixture apps ([`antipattern_apps`], codes `AP-*`).
pub fn by_code(code: &str) -> Option<CatalogApp> {
    catalog()
        .into_iter()
        .find(|a| a.code == code)
        .or_else(|| antipattern_apps().into_iter().find(|a| a.code == code))
}

/// Five deliberately mis-structured applications, each bearing at least one
/// anti-pattern from the analyzer's lint catalog.
///
/// They derive from `R-GB` (the smallest above-gate entry, so lint fixtures
/// stay fast to build) and are kept **out of** [`catalog`] so the published
/// evaluation set is untouched; [`by_code`] resolves their `AP-*` codes.
///
/// | code | planted anti-pattern | expected lints |
/// |------|----------------------|----------------|
/// | `AP-MONO`  | monolithic eager init (inherited from R-GB) | `eager-monolithic-init` |
/// | `AP-TREE`  | 96-module library nobody calls | `oversized-dependency-tree`, `unused-heavy-library` |
/// | `AP-HEAVY` | compact but expensive unused library | `unused-heavy-library` |
/// | `AP-CHAT`  | six back-to-back client calls per request | `missing-connection-reuse` |
/// | `AP-LAZY`  | hot main library shipped deferred | `init-in-handler`, `handler-hot-import` |
pub fn antipattern_apps() -> Vec<CatalogApp> {
    let base = |code: &'static str, name: &'static str, seed: Option<AntipatternSeed>| {
        let mut app = catalog()
            .into_iter()
            .find(|a| a.code == "R-GB")
            .expect("R-GB is in the catalog");
        app.code = code;
        app.name = name;
        app.antipattern = seed;
        app
    };
    let mut lazy = base(
        "AP-LAZY",
        "ap-hot-deferral",
        Some(AntipatternSeed {
            deferred_hot: true,
            ..AntipatternSeed::default()
        }),
    );
    // The restore-eager fix must pass the safety verifier, so the deferred
    // main library carries no side-effectful modules.
    lazy.frac_side_effectful = 0.0;
    vec![
        base("AP-MONO", "ap-monolithic-init", None),
        base(
            "AP-TREE",
            "ap-oversized-tree",
            Some(AntipatternSeed {
                unused_lib_modules: 96,
                unused_lib_init_ms: 120.0,
                ..AntipatternSeed::default()
            }),
        ),
        base(
            "AP-HEAVY",
            "ap-unused-heavy-library",
            Some(AntipatternSeed {
                unused_lib_modules: 24,
                unused_lib_init_ms: 160.0,
                ..AntipatternSeed::default()
            }),
        ),
        base(
            "AP-CHAT",
            "ap-chatty-client",
            Some(AntipatternSeed {
                chatty_calls: Some(6),
                ..AntipatternSeed::default()
            }),
        ),
        lazy,
    ]
}

/// Returns a deterministic population of `n` applications for fleet-scale
/// experiments by cycling the 22-entry catalog in order.
///
/// Entry `i` is `catalog()[i % 22]`; the fleet orchestrator diversifies
/// repeated entries through per-app build seeds, so two copies of the same
/// catalog entry still synthesize distinct module structures.
pub fn fleet_population(n: usize) -> Vec<CatalogApp> {
    let base = catalog();
    (0..n).map(|i| base[i % base.len()].clone()).collect()
}

/// Returns a deterministic population of `n` *lightweight* applications
/// by cycling the five single-library, below-gate fixture apps (`R-UL`,
/// `R-TN`, `FWB-FLT`, `FWB-JSN`, `FL-HW`).
///
/// Each entry simulates in well under a millisecond, so 10k-app fleets
/// finish in seconds — this is the population behind the orchestrator
/// scaling bench and the scale-out determinism suite, where per-app cost
/// would otherwise drown the scheduling behavior under test.
pub fn light_population(n: usize) -> Vec<CatalogApp> {
    let base = trivial_apps();
    (0..n).map(|i| base[i % base.len()].clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_22_apps() {
        assert_eq!(catalog().len(), 22);
    }

    #[test]
    fn fleet_population_cycles_catalog() {
        let pop = fleet_population(50);
        assert_eq!(pop.len(), 50);
        assert_eq!(pop[0].code, catalog()[0].code);
        assert_eq!(pop[22].code, catalog()[0].code);
        assert_eq!(pop[23].code, catalog()[1].code);
        assert!(fleet_population(0).is_empty());
    }

    #[test]
    fn light_population_cycles_the_trivial_fixtures() {
        let pop = light_population(12);
        assert_eq!(pop.len(), 12);
        assert_eq!(pop[0].code, "R-UL");
        assert_eq!(pop[4].code, "FL-HW");
        assert_eq!(pop[5].code, "R-UL");
        assert!(pop.iter().all(|a| a.n_libs == 1));
        assert!(light_population(0).is_empty());
    }

    #[test]
    fn seventeen_apps_clear_the_gate() {
        let above = catalog().iter().filter(|a| a.above_gate()).count();
        assert_eq!(above, 17);
    }

    #[test]
    fn fractions_are_consistent() {
        for app in catalog() {
            let hot = app.frac_hot();
            assert!(
                hot > 0.0 && hot <= 1.0,
                "{}: hot fraction {hot} out of range",
                app.code
            );
            let deferrable = app.frac_static_dead + app.frac_workload_dead + app.frac_rare;
            assert!(deferrable < 1.0, "{}", app.code);
            assert!((0.0..=1.0).contains(&app.init_share), "{}", app.code);
        }
    }

    #[test]
    fn every_entry_builds_and_validates() {
        for app in catalog() {
            let built = app
                .build(17)
                .unwrap_or_else(|e| panic!("{} failed to build: {e}", app.code));
            assert!(!built.app.handlers().is_empty(), "{}", app.code);
        }
    }

    #[test]
    fn module_counts_match_table_ii() {
        for app in catalog() {
            let built = app.build(17).unwrap();
            // 1 app module + n_modules library modules.
            assert_eq!(
                built.app.modules().len(),
                app.n_modules + 1,
                "{}: module count mismatch",
                app.code
            );
        }
    }

    #[test]
    fn eager_init_cost_matches_target() {
        for app in catalog().iter().filter(|a| a.above_gate()) {
            let built = app.build(17).unwrap();
            let init = built.app.eager_init_cost(built.app_module);
            let target = app.e2e_ms * app.init_share;
            let err = (init.as_millis_f64() - target).abs() / target;
            assert!(
                err < 0.02,
                "{}: init {} vs target {target}ms",
                app.code,
                init.as_millis_f64()
            );
        }
    }

    #[test]
    fn deferrable_fraction_realizes_target_speedup() {
        // Structural check: removing the deferrable subpackages' init cost
        // should reproduce the paper's initialization speedup within ~10 %.
        for app in catalog().iter().filter(|a| a.above_gate()) {
            let deferrable = app.frac_static_dead + app.frac_workload_dead + app.frac_rare;
            let expected = 1.0 / (1.0 - deferrable);
            let rel = (expected - app.paper.init_speedup).abs() / app.paper.init_speedup;
            assert!(
                rel < 0.12,
                "{}: structural speedup {expected:.2} vs paper {:.2}",
                app.code,
                app.paper.init_speedup
            );
        }
    }

    #[test]
    fn workload_weights_are_normalized() {
        for app in catalog() {
            let sum: f64 = app.workload_weights().iter().map(|(_, w)| w).sum();
            assert!((sum - 1.0).abs() < 1e-9, "{}: weights sum {sum}", app.code);
        }
    }

    #[test]
    fn admin_handler_exists_for_workload_dead_apps() {
        let rsa = by_code("R-SA").unwrap();
        let built = rsa.build(3).unwrap();
        assert!(built.app.handler_by_name("admin").is_some());
        let weights = rsa.workload_weights();
        let admin_w = weights.iter().find(|(n, _)| n == "admin").unwrap().1;
        assert_eq!(admin_w, 0.0);
    }

    #[test]
    fn cve_rare_library_is_xmlschema() {
        let cve = by_code("CVE").unwrap();
        let built = cve.build(3).unwrap();
        assert!(built.libraries.contains_key("xmlschema"));
        assert!(built.app.module_by_name("xmlschema").is_some());
    }

    #[test]
    fn rsa_wdead_subpackage_is_sem() {
        let rsa = by_code("R-SA").unwrap();
        let built = rsa.build(3).unwrap();
        assert!(built.app.module_by_name("nltk.sem").is_some());
    }

    #[test]
    fn by_code_lookup() {
        assert!(by_code("R-DV").is_some());
        assert!(by_code("NOPE").is_none());
    }

    #[test]
    fn builds_are_deterministic() {
        let a = by_code("R-GB").unwrap().build(5).unwrap();
        let b = by_code("R-GB").unwrap().build(5).unwrap();
        assert_eq!(a.app, b.app);
    }

    #[test]
    fn antipattern_apps_build_and_stay_out_of_the_catalog() {
        let apps = antipattern_apps();
        assert_eq!(apps.len(), 5);
        for app in &apps {
            let built = app
                .build(11)
                .unwrap_or_else(|e| panic!("{} failed to build: {e}", app.code));
            assert!(!built.app.handlers().is_empty(), "{}", app.code);
            assert!(by_code(app.code).is_some(), "{}", app.code);
        }
        // Seeding never grows the published evaluation set.
        assert_eq!(catalog().len(), 22);
        assert!(catalog().iter().all(|a| a.antipattern.is_none()));
    }

    #[test]
    fn planted_unused_library_is_never_called() {
        let built = by_code("AP-HEAVY").unwrap().build(11).unwrap();
        assert!(built.libraries.contains_key("legacysdk"));
        let root = built.app.module_by_name("legacysdk").unwrap();
        for h in built.app.handlers() {
            assert!(
                !crate::source::function_uses_module(&built.app, h.function(), root),
                "{} reaches legacysdk",
                h.name()
            );
        }
        // But the handler module still imports it eagerly — the anti-pattern.
        assert!(built
            .app
            .imports_of(built.app_module)
            .iter()
            .any(|d| d.target == root && d.mode == crate::imports::ImportMode::Global));
    }

    #[test]
    fn oversized_fixture_has_at_least_64_planted_modules() {
        let built = by_code("AP-TREE").unwrap().build(11).unwrap();
        let lib = &built.libraries["legacysdk"];
        assert!(built.app.library(lib.id).module_count() >= 64);
    }

    #[test]
    fn chatty_fixture_makes_six_consecutive_client_calls() {
        let built = by_code("AP-CHAT").unwrap().build(11).unwrap();
        let f = built
            .app
            .handlers()
            .iter()
            .find(|h| h.name() == "handler")
            .unwrap()
            .function();
        let body = built.app.function(f).body();
        let mut best = 0usize;
        let mut run = 0usize;
        let mut last = None;
        for stmt in body {
            match &stmt.kind {
                crate::function::StmtKind::Call(site) if last == Some(site.target) => {
                    run += 1;
                    best = best.max(run);
                }
                crate::function::StmtKind::Call(site) => {
                    last = Some(site.target);
                    run = 1;
                    best = best.max(run);
                }
                _ => {
                    last = None;
                    run = 0;
                }
            }
        }
        assert!(best >= 6, "longest same-target call run is {best}");
    }

    #[test]
    fn deferred_hot_fixture_ships_with_lazy_main_import() {
        let app = by_code("AP-LAZY").unwrap();
        assert_eq!(app.frac_side_effectful, 0.0);
        let built = app.build(11).unwrap();
        let root = built.libraries["igraph"].root;
        let decl = built
            .app
            .imports_of(built.app_module)
            .iter()
            .find(|d| d.target == root)
            .expect("handler module imports igraph");
        assert_eq!(decl.mode, crate::imports::ImportMode::Deferred);
        // Every entry point statically reaches the deferred library.
        for h in built.app.handlers() {
            assert!(
                crate::source::function_uses_package(&built.app, h.function(), "igraph"),
                "{} does not reach igraph",
                h.name()
            );
        }
    }
}
