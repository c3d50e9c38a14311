//! Synthetic application construction from compact blueprints.
//!
//! The paper evaluates on real Python applications whose *structural*
//! parameters (library/module counts, average import depth, per-subpackage
//! initialization shares) are published in Table II. This module generates
//! applications with those parameters: package trees with controlled module
//! counts and depth, parent-`__init__`-imports-children edges (the igraph
//! pattern from Table I), API functions with call chains for realistic
//! calling contexts, and handlers whose library usage is controlled per
//! entry point and per branch probability — the raw material of
//! *workload-dependent* library usage.

use std::collections::HashMap;
use std::fmt;

use slimstart_simcore::rng::SimRng;
use slimstart_simcore::time::SimDuration;

use crate::app::{AppBuilder, Application};
use crate::error::AppModelError;
use crate::function::{Stmt, StmtKind};
use crate::ids::{FunctionId, LibraryId, ModuleId};
use crate::imports::ImportMode;

/// Blueprint for one library.
#[derive(Debug, Clone)]
pub struct LibraryBlueprint {
    /// Top-level package name.
    pub name: String,
    /// Total modules in the library (including the root `__init__`).
    pub modules: usize,
    /// Target average module depth (dotted-path segments).
    pub avg_depth: f64,
    /// Total initialization cost across all modules.
    pub init_total: SimDuration,
    /// Total resident memory across all modules, in KiB.
    pub mem_total_kb: u64,
    /// Subpackages; their `module_share`/`init_share`/`mem_share` must each
    /// sum to 1 (± 1 %) across the vector.
    pub subpackages: Vec<SubpackageBlueprint>,
}

/// Blueprint for one subpackage of a library.
#[derive(Debug, Clone)]
pub struct SubpackageBlueprint {
    /// Subpackage name (single path segment under the library root).
    pub name: String,
    /// Fraction of the library's modules in this subpackage.
    pub module_share: f64,
    /// Fraction of the library's init cost in this subpackage.
    pub init_share: f64,
    /// Fraction of the library's memory in this subpackage.
    pub mem_share: f64,
    /// Whether the subpackage's top level performs observable side effects
    /// (unsafe to lazy-load).
    pub side_effectful: bool,
    /// Number of public API functions exposed on the subpackage root.
    pub api_functions: usize,
    /// Compute cost of one API call (split along the internal call chain).
    pub api_call_cost: SimDuration,
}

/// How a handler uses a library subpackage.
#[derive(Debug, Clone)]
pub struct UseSpec {
    /// Library name.
    pub library: String,
    /// Subpackage name within the library.
    pub subpackage: String,
    /// Which API function (modulo the subpackage's `api_functions`).
    pub api_index: usize,
    /// Number of call sites in the handler body.
    pub calls: usize,
    /// If set, wrap the calls in a branch taken with this probability — the
    /// mechanism behind rarely-used libraries (paper §VI-2).
    pub branch_probability: Option<f64>,
    /// Whether the call is dispatched indirectly (opaque to static analysis).
    pub indirect: bool,
}

/// Blueprint for one handler (entry point).
#[derive(Debug, Clone)]
pub struct HandlerBlueprint {
    /// Entry-point name.
    pub name: String,
    /// Handler-local compute time (excludes library work).
    pub local_work: SimDuration,
    /// Library usage.
    pub uses: Vec<UseSpec>,
}

/// Blueprint for a whole application.
#[derive(Debug, Clone)]
pub struct AppBlueprint {
    /// Application name.
    pub name: String,
    /// App-code module init cost (the `handler.py` top level itself).
    pub app_init: SimDuration,
    /// App-code module memory, KiB.
    pub app_mem_kb: u64,
    /// Libraries.
    pub libraries: Vec<LibraryBlueprint>,
    /// Handlers.
    pub handlers: Vec<HandlerBlueprint>,
}

/// Errors raised while instantiating a blueprint.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BlueprintError {
    /// The shares of a library's subpackages do not sum to 1.
    SharesDontSum {
        /// Library whose shares are inconsistent.
        library: String,
        /// Which share vector (modules/init/mem).
        which: &'static str,
        /// The offending sum.
        sum: f64,
    },
    /// A library needs at least one module per subpackage plus the root.
    TooFewModules {
        /// Library with too few modules.
        library: String,
    },
    /// A `UseSpec` referenced an unknown library or subpackage.
    UnknownUse {
        /// Referenced library.
        library: String,
        /// Referenced subpackage.
        subpackage: String,
    },
    /// A subpackage declares no API functions but a handler uses it.
    NoApiFunctions {
        /// Referenced library.
        library: String,
        /// Referenced subpackage.
        subpackage: String,
    },
    /// The underlying application failed validation.
    Model(AppModelError),
}

impl fmt::Display for BlueprintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlueprintError::SharesDontSum {
                library,
                which,
                sum,
            } => {
                write!(
                    f,
                    "library `{library}`: {which} shares sum to {sum}, expected 1"
                )
            }
            BlueprintError::TooFewModules { library } => {
                write!(
                    f,
                    "library `{library}`: module budget too small for its subpackages"
                )
            }
            BlueprintError::UnknownUse {
                library,
                subpackage,
            } => {
                write!(
                    f,
                    "handler uses unknown subpackage `{library}.{subpackage}`"
                )
            }
            BlueprintError::NoApiFunctions {
                library,
                subpackage,
            } => {
                write!(
                    f,
                    "subpackage `{library}.{subpackage}` exposes no API functions"
                )
            }
            BlueprintError::Model(e) => write!(f, "invalid generated application: {e}"),
        }
    }
}

impl std::error::Error for BlueprintError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BlueprintError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AppModelError> for BlueprintError {
    fn from(e: AppModelError) -> Self {
        BlueprintError::Model(e)
    }
}

/// A built library: handles back into the generated structure.
#[derive(Debug, Clone)]
pub struct BuiltLibrary {
    /// The library id.
    pub id: LibraryId,
    /// The root `__init__` module.
    pub root: ModuleId,
    /// Built subpackages by name.
    pub subpackages: HashMap<String, BuiltSubpackage>,
}

/// A built subpackage.
#[derive(Debug, Clone)]
pub struct BuiltSubpackage {
    /// The subpackage root module (`lib.sub`).
    pub root: ModuleId,
    /// All modules in the subpackage, root first.
    pub modules: Vec<ModuleId>,
    /// Public API functions on the subpackage root.
    pub api: Vec<FunctionId>,
}

/// The result of [`build_app`]: the application plus structural handles used
/// by tests and experiment harnesses.
#[derive(Debug, Clone)]
pub struct BuiltApp {
    /// The validated application.
    pub app: Application,
    /// The application-code module (`handler.py`).
    pub app_module: ModuleId,
    /// Built libraries by name.
    pub libraries: HashMap<String, BuiltLibrary>,
}

const MODULE_BASENAMES: &[&str] = &[
    "core", "util", "io", "ops", "fmt", "net", "db", "calc", "text", "meta",
];

/// Draws an approximately normal value via Box–Muller.
fn normalish(rng: &mut SimRng, mu: f64, sigma: f64) -> f64 {
    let u1 = (1.0 - rng.next_f64()).max(f64::MIN_POSITIVE);
    let u2 = rng.next_f64();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    mu + sigma * z
}

/// Splits `total` into `n` positive weights with log-normal spread, summing
/// exactly to `total` (in microseconds).
fn split_cost(total: SimDuration, n: usize, rng: &mut SimRng) -> Vec<SimDuration> {
    if n == 0 {
        return Vec::new();
    }
    let weights: Vec<f64> = (0..n).map(|_| normalish(rng, 0.0, 0.8).exp()).collect();
    let wsum: f64 = weights.iter().sum();
    let micros = total.as_micros();
    let mut out: Vec<SimDuration> = weights
        .iter()
        .map(|w| SimDuration::from_micros((micros as f64 * w / wsum) as u64))
        .collect();
    let assigned: u64 = out.iter().map(|d| d.as_micros()).sum();
    // Put rounding remainder on the first element so totals are exact.
    out[0] += SimDuration::from_micros(micros - assigned.min(micros));
    out
}

/// Splits an integer amount proportionally to weights, summing exactly.
fn split_u64(total: u64, n: usize, rng: &mut SimRng) -> Vec<u64> {
    split_cost(SimDuration::from_micros(total), n, rng)
        .into_iter()
        .map(|d| d.as_micros())
        .collect()
}

fn check_shares(
    library: &str,
    which: &'static str,
    shares: impl Iterator<Item = f64>,
) -> Result<(), BlueprintError> {
    let sum: f64 = shares.sum();
    if (sum - 1.0).abs() > 0.01 {
        return Err(BlueprintError::SharesDontSum {
            library: library.to_string(),
            which,
            sum,
        });
    }
    Ok(())
}

/// Builds one library into `b` per its blueprint.
///
/// # Errors
///
/// Returns an error if the blueprint's shares are inconsistent or the module
/// budget cannot cover the declared subpackages.
fn build_library(
    b: &mut AppBuilder,
    bp: &LibraryBlueprint,
    rng: &mut SimRng,
) -> Result<BuiltLibrary, BlueprintError> {
    check_shares(
        &bp.name,
        "module",
        bp.subpackages.iter().map(|s| s.module_share),
    )?;
    check_shares(
        &bp.name,
        "init",
        bp.subpackages.iter().map(|s| s.init_share),
    )?;
    check_shares(&bp.name, "mem", bp.subpackages.iter().map(|s| s.mem_share))?;
    if bp.modules < bp.subpackages.len() + 1 {
        return Err(BlueprintError::TooFewModules {
            library: bp.name.clone(),
        });
    }

    let lib_id = b.add_library(&bp.name);
    // The root `__init__` takes a fixed 2 % slice of init/memory; the
    // remainder is distributed across the subpackages per their shares.
    let root_init = bp.init_total.mul_f64(0.02);
    let root_mem = (bp.mem_total_kb as f64 * 0.02) as u64;
    let root = b.add_library_module(&bp.name, root_init, root_mem, false, lib_id);

    let body_init = bp.init_total - root_init;
    let body_mem = bp.mem_total_kb - root_mem;
    let module_budget = bp.modules - 1;

    // Integer module counts per subpackage, remainder to the largest share.
    let mut counts: Vec<usize> = bp
        .subpackages
        .iter()
        .map(|s| ((module_budget as f64 * s.module_share) as usize).max(1))
        .collect();
    let mut assigned: usize = counts.iter().sum();
    while assigned > module_budget {
        let i = counts
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| **c)
            .map(|(i, _)| i)
            .expect("non-empty counts");
        if counts[i] > 1 {
            counts[i] -= 1;
            assigned -= 1;
        } else {
            return Err(BlueprintError::TooFewModules {
                library: bp.name.clone(),
            });
        }
    }
    if let Some(first) = counts.first_mut() {
        *first += module_budget - assigned;
    }

    let mut subpackages = HashMap::new();
    // Import lines start at 2 (line 1 is the module header comment).
    for (import_line, (sub_bp, count)) in (2u32..).zip(bp.subpackages.iter().zip(&counts)) {
        let sub = build_subpackage(
            b,
            &bp.name,
            lib_id,
            sub_bp,
            *count,
            body_init.mul_f64(sub_bp.init_share),
            (body_mem as f64 * sub_bp.mem_share) as u64,
            bp.avg_depth,
            rng,
        )?;
        // The library root imports each subpackage root (the igraph pattern).
        b.add_import(root, sub.root, import_line, ImportMode::Global)?;
        subpackages.insert(sub_bp.name.clone(), sub);
    }

    Ok(BuiltLibrary {
        id: lib_id,
        root,
        subpackages,
    })
}

#[allow(clippy::too_many_arguments)]
fn build_subpackage(
    b: &mut AppBuilder,
    lib_name: &str,
    lib_id: LibraryId,
    bp: &SubpackageBlueprint,
    module_count: usize,
    init_total: SimDuration,
    mem_total: u64,
    avg_depth: f64,
    rng: &mut SimRng,
) -> Result<BuiltSubpackage, BlueprintError> {
    let init_costs = split_cost(init_total, module_count, rng);
    let mems = split_u64(mem_total, module_count, rng);

    let root_name = format!("{lib_name}.{}", bp.name);
    let root = b.add_library_module(
        &root_name,
        init_costs[0],
        mems[0],
        bp.side_effectful,
        lib_id,
    );

    // Grow the subtree: each module targets a depth sampled around the
    // library's average; its parent imports it (package-init pattern).
    let mut by_depth: Vec<Vec<(ModuleId, String)>> = vec![Vec::new(); 16];
    by_depth[2].push((root, root_name.clone()));
    let mut modules = vec![root];
    let mut child_counter: HashMap<ModuleId, u32> = HashMap::new();

    for i in 1..module_count {
        let target_depth = normalish(rng, avg_depth, 1.2).round().clamp(3.0, 12.0) as usize;
        // Find the deepest non-empty level at or below target_depth - 1.
        let parent_level = (2..target_depth)
            .rev()
            .find(|d| !by_depth[*d].is_empty())
            .unwrap_or(2);
        let slot = rng.next_below(by_depth[parent_level].len());
        let (parent, parent_name) = by_depth[parent_level][slot].clone();
        let base = MODULE_BASENAMES[i % MODULE_BASENAMES.len()];
        let name = format!("{parent_name}.{base}{i}");
        let module = b.add_library_module(
            &name,
            init_costs[i],
            mems[i],
            bp.side_effectful && rng.chance(0.6),
            lib_id,
        );
        let line = 2 + *child_counter.entry(parent).or_insert(0);
        *child_counter.get_mut(&parent).expect("just inserted") += 1;
        b.add_import(parent, module, line, ImportMode::Global)?;
        by_depth[parent_level + 1].push((module, name));
        modules.push(module);
    }

    // API functions on the subpackage root, each heading a helper chain
    // through the subtree (realistic calling contexts for the CCT).
    let mut api = Vec::new();
    let per_call = if bp.api_functions > 0 {
        bp.api_call_cost
    } else {
        SimDuration::ZERO
    };
    for a in 0..bp.api_functions {
        let chain_len = (modules.len() - 1).min(2);
        let mut costs = split_cost(per_call, chain_len + 1, rng);
        // Build the chain bottom-up so each caller can reference its callee.
        let mut callee: Option<FunctionId> = None;
        for level in (0..chain_len).rev() {
            let m = modules[1 + rng.next_below(modules.len() - 1)];
            let mut body = vec![Stmt {
                line: 61,
                kind: StmtKind::Work(costs.pop().expect("one cost per level")),
            }];
            if let Some(c) = callee {
                body.push(Stmt {
                    line: 62,
                    kind: StmtKind::call(c),
                });
            }
            let fname = format!("_helper_{a}_{level}");
            callee = Some(b.add_function(fname, m, 60, body));
        }
        let mut body = vec![Stmt {
            line: 51,
            kind: StmtKind::Work(costs.pop().expect("api-level cost")),
        }];
        if let Some(c) = callee {
            body.push(Stmt {
                line: 52,
                kind: StmtKind::call(c),
            });
        }
        let fname = format!("api_{a}");
        api.push(b.add_function(fname, root, 50 + a as u32 * 10, body));
    }

    Ok(BuiltSubpackage { root, modules, api })
}

/// Instantiates an [`AppBlueprint`] into a validated [`Application`].
///
/// Deterministic in `(blueprint, seed)`.
///
/// # Errors
///
/// Returns an error for inconsistent shares, unknown `UseSpec` references or
/// model-validation failures.
pub fn build_app(bp: &AppBlueprint, seed: u64) -> Result<BuiltApp, BlueprintError> {
    let mut rng = SimRng::seed_from(seed);
    let mut b = AppBuilder::new(&bp.name);

    let app_module = b.add_app_module("handler", bp.app_init, bp.app_mem_kb);

    let mut libraries = HashMap::new();
    for (line, lib_bp) in (2u32..).zip(bp.libraries.iter()) {
        let built = build_library(&mut b, lib_bp, &mut rng)?;
        b.add_import(app_module, built.root, line, ImportMode::Global)?;
        libraries.insert(lib_bp.name.clone(), built);
    }

    for (h_idx, h) in bp.handlers.iter().enumerate() {
        let mut body = Vec::new();
        let slices = h.uses.len().max(1) as u64 + 1;
        let work_slice = h.local_work / slices;
        let mut stmt_line = 11;
        body.push(Stmt {
            line: stmt_line,
            kind: StmtKind::Work(work_slice),
        });
        for use_spec in &h.uses {
            stmt_line += 1;
            let lib =
                libraries
                    .get(&use_spec.library)
                    .ok_or_else(|| BlueprintError::UnknownUse {
                        library: use_spec.library.clone(),
                        subpackage: use_spec.subpackage.clone(),
                    })?;
            let sub = lib.subpackages.get(&use_spec.subpackage).ok_or_else(|| {
                BlueprintError::UnknownUse {
                    library: use_spec.library.clone(),
                    subpackage: use_spec.subpackage.clone(),
                }
            })?;
            if sub.api.is_empty() {
                return Err(BlueprintError::NoApiFunctions {
                    library: use_spec.library.clone(),
                    subpackage: use_spec.subpackage.clone(),
                });
            }
            let target = sub.api[use_spec.api_index % sub.api.len()];
            let mut calls = Vec::new();
            for c in 0..use_spec.calls.max(1) {
                calls.push(Stmt {
                    line: stmt_line + c as u32,
                    kind: if use_spec.indirect {
                        StmtKind::indirect_call(target)
                    } else {
                        StmtKind::call(target)
                    },
                });
            }
            stmt_line += use_spec.calls.max(1) as u32;
            match use_spec.branch_probability {
                Some(p) => body.push(Stmt {
                    line: stmt_line,
                    kind: StmtKind::Branch {
                        probability: p,
                        body: calls,
                    },
                }),
                None => body.extend(calls),
            }
            stmt_line += 1;
            body.push(Stmt {
                line: stmt_line,
                kind: StmtKind::Work(work_slice),
            });
        }
        let f = b.add_function(&h.name, app_module, 10 + 50 * h_idx as u32, body);
        b.add_handler(&h.name, f);
    }

    let app = b.finish()?;
    Ok(BuiltApp {
        app,
        app_module,
        libraries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    fn sub(name: &str, module_share: f64, init_share: f64, api: usize) -> SubpackageBlueprint {
        SubpackageBlueprint {
            name: name.into(),
            module_share,
            init_share,
            mem_share: init_share,
            side_effectful: false,
            api_functions: api,
            api_call_cost: ms(2),
        }
    }

    fn blueprint() -> AppBlueprint {
        AppBlueprint {
            name: "demo".into(),
            app_init: ms(1),
            app_mem_kb: 100,
            libraries: vec![LibraryBlueprint {
                name: "igraph".into(),
                modules: 86,
                avg_depth: 3.74,
                init_total: ms(400),
                mem_total_kb: 40_000,
                subpackages: vec![
                    sub("community", 0.4, 0.4, 2),
                    sub("drawing", 0.4, 0.37, 1),
                    sub("ops", 0.2, 0.23, 1),
                ],
            }],
            handlers: vec![HandlerBlueprint {
                name: "bfs".into(),
                local_work: ms(10),
                uses: vec![UseSpec {
                    library: "igraph".into(),
                    subpackage: "community".into(),
                    api_index: 0,
                    calls: 2,
                    branch_probability: None,
                    indirect: false,
                }],
            }],
        }
    }

    #[test]
    fn builds_with_exact_module_count() {
        let built = build_app(&blueprint(), 7).unwrap();
        let lib = &built.libraries["igraph"];
        assert_eq!(built.app.library(lib.id).module_count(), 86);
        // 1 app module + 86 library modules.
        assert_eq!(built.app.modules().len(), 87);
    }

    #[test]
    fn init_cost_is_conserved() {
        let built = build_app(&blueprint(), 7).unwrap();
        let lib = &built.libraries["igraph"];
        let total: SimDuration = built
            .app
            .library(lib.id)
            .modules()
            .iter()
            .map(|m| built.app.module(*m).init_cost())
            .sum();
        assert_eq!(total, ms(400));
    }

    #[test]
    fn memory_is_conserved() {
        let built = build_app(&blueprint(), 7).unwrap();
        let lib = &built.libraries["igraph"];
        let total: u64 = built
            .app
            .library(lib.id)
            .modules()
            .iter()
            .map(|m| built.app.module(*m).mem_kb())
            .sum();
        assert_eq!(total, 40_000);
    }

    #[test]
    fn subpackage_init_share_is_respected() {
        let built = build_app(&blueprint(), 7).unwrap();
        let lib = &built.libraries["igraph"];
        let drawing = &lib.subpackages["drawing"];
        let drawing_init: SimDuration = drawing
            .modules
            .iter()
            .map(|m| built.app.module(*m).init_cost())
            .sum();
        let frac = drawing_init.ratio(ms(400));
        // 37 % of the non-root budget (root keeps 2 %).
        assert!((frac - 0.37 * 0.98).abs() < 0.01, "frac = {frac}");
    }

    #[test]
    fn avg_depth_lands_near_target() {
        let built = build_app(&blueprint(), 7).unwrap();
        let depth = built.app.avg_module_depth();
        assert!(
            (depth - 3.74).abs() < 0.8,
            "avg depth {depth} too far from 3.74"
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let a = build_app(&blueprint(), 9).unwrap();
        let b = build_app(&blueprint(), 9).unwrap();
        assert_eq!(a.app, b.app);
        let c = build_app(&blueprint(), 10).unwrap();
        assert_ne!(a.app, c.app);
    }

    #[test]
    fn eager_cold_start_loads_whole_library() {
        let built = build_app(&blueprint(), 7).unwrap();
        let set = built.app.eager_load_set(built.app_module);
        assert_eq!(set.len(), built.app.modules().len());
    }

    #[test]
    fn handler_reaches_used_subpackage() {
        let built = build_app(&blueprint(), 7).unwrap();
        let h = built.app.handlers()[0].function();
        let community_root = built.libraries["igraph"].subpackages["community"].root;
        assert!(crate::source::function_uses_module(
            &built.app,
            h,
            community_root
        ));
        let drawing_root = built.libraries["igraph"].subpackages["drawing"].root;
        assert!(!crate::source::function_uses_module(
            &built.app,
            h,
            drawing_root
        ));
    }

    #[test]
    fn rejects_bad_shares() {
        let mut bp = blueprint();
        bp.libraries[0].subpackages[0].init_share = 0.9;
        let err = build_app(&bp, 1).unwrap_err();
        assert!(matches!(err, BlueprintError::SharesDontSum { .. }));
    }

    #[test]
    fn rejects_unknown_use() {
        let mut bp = blueprint();
        bp.handlers[0].uses[0].subpackage = "nope".into();
        let err = build_app(&bp, 1).unwrap_err();
        assert!(matches!(err, BlueprintError::UnknownUse { .. }));
    }

    #[test]
    fn rejects_too_few_modules() {
        let mut bp = blueprint();
        bp.libraries[0].modules = 3;
        let err = build_app(&bp, 1).unwrap_err();
        assert!(matches!(err, BlueprintError::TooFewModules { .. }));
    }

    #[test]
    fn branch_uses_are_wrapped() {
        let mut bp = blueprint();
        bp.handlers[0].uses[0].branch_probability = Some(0.01);
        let built = build_app(&bp, 7).unwrap();
        let f = built.app.function(built.app.handlers()[0].function());
        let has_branch = f
            .body()
            .iter()
            .any(|s| matches!(s.kind, StmtKind::Branch { .. }));
        assert!(has_branch);
    }

    #[test]
    fn side_effectful_subpackage_flags_modules() {
        let mut bp = blueprint();
        bp.libraries[0].subpackages[1].side_effectful = true;
        let built = build_app(&bp, 7).unwrap();
        let drawing = &built.libraries["igraph"].subpackages["drawing"];
        assert!(built.app.module(drawing.root).side_effectful());
    }
}
