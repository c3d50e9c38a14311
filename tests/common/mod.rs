//! Shared fixtures of the differential tests: seeded random applications
//! and the string-keyed reference package tree.
//!
//! Module names of [`random_app`] are drawn from a small alphabet, so the
//! shapes the deferral-safety verifier has to get right turn up often:
//! dotted names whose intermediate packages have no module (`lib.sem.io`
//! without `lib.sem`), sibling prefixes (`lib.sem` next to
//! `lib.semantics`), handlers sharing a module, a handler inside a package
//! that other modules import into, side-effectful ancestors, deferred
//! edges that close cycles, and touches inside branches.
//!
//! Each test binary uses only part of this module.
#![allow(dead_code)]

use std::collections::BTreeMap;

use slimstart::appmodel::app::AppBuilder;
use slimstart::appmodel::function::{Stmt, StmtKind};
use slimstart::appmodel::{Application, FunctionId, ImportMode, Module, ModuleId};
use slimstart::simcore::rng::SimRng;
use slimstart::simcore::time::SimDuration;

/// A node of a library's package tree: a dotted path with aggregated
/// direct-member and descendant modules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackageNode {
    /// Dotted path of this package (e.g. `nltk.sem`).
    pub path: String,
    /// Modules whose name equals this path or whose parent is this path.
    pub direct_modules: Vec<ModuleId>,
    /// Child package paths.
    pub children: Vec<String>,
}

/// The string-keyed package tree the application model used before its
/// package-tree-order ranges, kept verbatim as the reference: nodes keyed
/// by dotted path in a `BTreeMap`, children in first-appearance order, and
/// `modules_under` walking them off a stack.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReferencePackageTree {
    nodes: BTreeMap<String, PackageNode>,
    roots: Vec<String>,
}

impl ReferencePackageTree {
    /// The tree over all modules of `app`.
    pub fn of(app: &Application) -> Self {
        ReferencePackageTree::build(
            app.modules()
                .iter()
                .enumerate()
                .map(|(i, m)| (ModuleId::from_index(i), m)),
        )
    }

    /// Builds the tree for the given `(id, module)` pairs.
    ///
    /// Every dotted prefix of every module name becomes a package node; the
    /// module itself is attached as a direct member of its own path's node.
    pub fn build<'a, I>(modules: I) -> Self
    where
        I: IntoIterator<Item = (ModuleId, &'a Module)>,
    {
        let mut tree = ReferencePackageTree::default();
        for (id, module) in modules {
            let mut parent: Option<&str> = None;
            for path in module.package_prefixes() {
                if !tree.nodes.contains_key(path) {
                    tree.nodes.insert(
                        path.to_owned(),
                        PackageNode {
                            path: path.to_owned(),
                            direct_modules: Vec::new(),
                            children: Vec::new(),
                        },
                    );
                    match parent {
                        Some(p) => {
                            let parent_node =
                                tree.nodes.get_mut(p).expect("parent inserted before child");
                            parent_node.children.push(path.to_owned());
                        }
                        None => tree.roots.push(path.to_owned()),
                    }
                }
                parent = Some(path);
            }
            tree.nodes
                .get_mut(module.name())
                .expect("leaf node just ensured")
                .direct_modules
                .push(id);
        }
        tree
    }

    /// The top-level package paths.
    pub fn roots(&self) -> &[String] {
        &self.roots
    }

    /// Looks up a node by dotted path.
    pub fn node(&self, path: &str) -> Option<&PackageNode> {
        self.nodes.get(path)
    }

    /// All nodes, ordered by dotted path.
    pub fn iter(&self) -> impl Iterator<Item = &PackageNode> {
        self.nodes.values()
    }

    /// All module ids at or beneath `path` (depth-first).
    pub fn modules_under(&self, path: &str) -> Vec<ModuleId> {
        let mut out = Vec::new();
        let mut stack = vec![path];
        while let Some(p) = stack.pop() {
            if let Some(node) = self.nodes.get(p) {
                out.extend(node.direct_modules.iter().copied());
                stack.extend(node.children.iter().map(String::as_str));
            }
        }
        out
    }

    /// Number of package nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// One random application; the same seed always builds the same app.
pub fn random_app(seed: u64) -> Application {
    random_app_with_roots(seed, &["lib", "libx"])
}

/// A random application built like [`random_app`]'s, with one library per
/// name in `roots`. Each library draws 2 to 10 dotted module names and
/// often its root module, so thirty roots make enough modules to fill
/// more than two bitset words.
pub fn random_app_with_roots(seed: u64, roots: &[&str]) -> Application {
    let mut rng = SimRng::seed_from(seed ^ 0x9a95_11ce);
    let mut b = AppBuilder::new(format!("random-{seed}"));
    let parts = ["sem", "semantics", "s", "io"];

    // Library modules, in creation order: a root package (sometimes
    // missing) and random dotted paths below it, so many have gaps.
    let mut lib_modules: Vec<ModuleId> = Vec::new();
    let mut lib_names: Vec<String> = Vec::new();
    for &root in roots {
        let lib = b.add_library(root);
        let mut names = Vec::new();
        if rng.chance(0.7) {
            names.push(root.to_string());
        }
        for _ in 0..(2 + rng.next_below(9)) {
            let mut name = root.to_string();
            for _ in 0..(1 + rng.next_below(3)) {
                name.push('.');
                name.push_str(parts[rng.next_below(parts.len())]);
            }
            names.push(name);
        }
        for name in names {
            if b.module_by_name(&name).is_some() {
                continue;
            }
            // Shallow packages are side-effectful more often, so hidden
            // side-effectful ancestors are common.
            let p = if name.contains('.') { 0.08 } else { 0.3 };
            let noisy = rng.chance(p);
            let cost = SimDuration::from_millis(1 + rng.next_below(20) as u64);
            lib_names.push(name.clone());
            lib_modules.push(b.add_library_module(name, cost, 8, noisy, lib));
        }
    }

    // Imports among library modules: global ones only forward in creation
    // order (the global graph must stay acyclic), deferred ones either way.
    for (i, &m) in lib_modules.iter().enumerate() {
        for (j, &t) in lib_modules.iter().enumerate() {
            if i < j && rng.chance(0.2) {
                let _ = b.add_import(m, t, 1 + j as u32, ImportMode::Global);
            } else if i != j && rng.chance(0.04) {
                let _ = b.add_import(m, t, 1 + j as u32, ImportMode::Deferred);
            }
        }
    }

    // One function per library module; some touch their own module.
    let lib_functions: Vec<FunctionId> = lib_modules
        .iter()
        .enumerate()
        .map(|(i, &m)| {
            let body = if rng.chance(0.3) {
                vec![Stmt {
                    line: 2,
                    kind: StmtKind::Touch(m),
                }]
            } else {
                Vec::new()
            };
            b.add_function(format!("api{i}"), m, 1, body)
        })
        .collect();

    // Application modules; handlers are spread over them, so two handlers
    // often share one module.
    let app_modules: Vec<ModuleId> = (0..(1 + rng.next_below(2)))
        .map(|i| b.add_app_module(format!("handler{i}"), SimDuration::from_millis(1), 8))
        .collect();
    for &h in &app_modules {
        for (j, &t) in lib_modules.iter().enumerate() {
            if rng.chance(0.25) {
                let mode = if rng.chance(0.25) {
                    ImportMode::Deferred
                } else {
                    ImportMode::Global
                };
                let _ = b.add_import(h, t, 1 + j as u32, mode);
            }
        }
        // A deferred edge back into application code lets library
        // deferrals close cycles through it.
        if rng.chance(0.3) {
            let _ = b.add_import(*rng.pick(&lib_modules), h, 1, ImportMode::Deferred);
        }
    }
    for k in 0..(1 + rng.next_below(3)) {
        let module = *rng.pick(&app_modules);
        let body = random_body(&mut rng, &lib_modules, &lib_functions, 10, true);
        let f = b.add_function(format!("main{k}"), module, 5 + 100 * k as u32, body);
        b.add_handler(format!("h{k}"), f);
    }
    // Sometimes one more handler lives in an application module inside a
    // library package, which the other handlers import into from outside:
    // that handler loads the package's modules without entering it.
    if rng.chance(0.3) {
        let name = format!("{}.svc", rng.pick(&lib_names));
        let svc = b.add_app_module(name, SimDuration::from_millis(1), 8);
        for (j, &t) in lib_modules.iter().enumerate() {
            if rng.chance(0.25) {
                let _ = b.add_import(svc, t, 1 + j as u32, ImportMode::Global);
            }
        }
        let body = random_body(&mut rng, &lib_modules, &lib_functions, 10, true);
        let f = b.add_function("serve", svc, 5, body);
        b.add_handler("serve", f);
    }
    b.finish()
        .expect("random apps satisfy the model invariants")
}

/// A handler body mixing calls, touches and work, with nested branches.
fn random_body(
    rng: &mut SimRng,
    modules: &[ModuleId],
    functions: &[FunctionId],
    first_line: u32,
    nest: bool,
) -> Vec<Stmt> {
    let mut body = Vec::new();
    for k in 0..(1 + rng.next_below(5)) as u32 {
        let line = first_line + 10 * k;
        let kind = match rng.next_below(if nest { 4 } else { 3 }) {
            0 => StmtKind::call(*rng.pick(functions)),
            1 => StmtKind::Touch(*rng.pick(modules)),
            2 => StmtKind::Work(SimDuration::from_millis(1)),
            _ => StmtKind::Branch {
                probability: 0.5,
                body: random_body(rng, modules, functions, line + 1, false),
            },
        };
        body.push(Stmt { line, kind });
    }
    body
}
