//! Shared analysis context: precomputed views over the application model.
//!
//! The context carries a [`ModuleIndex`], the module-graph index every
//! pass and the deferral-safety verifier share, built around the
//! application's [`PackageTree`]. Its eager-load closure mirrors the
//! runtime (`pyrt`) exactly: loading a module first loads every *existing*
//! dotted-prefix ancestor — whether or not an import declaration names
//! them, and skipping prefixes no module carries — and then executes its
//! global imports transitively. `Application::eager_load_set` follows
//! import edges only, so it misses implicitly-loaded parents; safety
//! verification must not.
//!
//! The reachability questions of the passes and the verifier are lookups
//! in two tables, each built at most once per index, on first use, from one
//! pass over the strongly connected components of the load graph: the
//! reach matrix (the eager-load closure of every module) and the
//! package-cut table (which eager side-effectful module deferring a
//! package's boundary imports would drop from the cold-start load set).

use std::ops::Range;
use std::sync::OnceLock;

use slimstart_appmodel::library::{Package, PackageTree};
use slimstart_appmodel::{Application, FunctionId, ModuleId};

use crate::usage::ObservedUsage;

/// Precomputed state shared by all passes of one analyzer run.
pub struct AnalysisContext<'a> {
    /// The application under analysis.
    pub app: &'a Application,
    /// Its module-graph index, which holds its package tree.
    pub index: ModuleIndex,
    /// Profile-observed usage, when a profile is available (required by the
    /// over-approximation auditor; ignored by the structural passes).
    pub usage: Option<&'a ObservedUsage>,
}

impl<'a> AnalysisContext<'a> {
    /// Builds the context for `app`.
    pub fn new(app: &'a Application, usage: Option<&'a ObservedUsage>) -> AnalysisContext<'a> {
        AnalysisContext::with_index(app, usage, ModuleIndex::build(app))
    }

    /// Builds the context for `app` around an index already built from it.
    pub(crate) fn with_index(
        app: &'a Application,
        usage: Option<&'a ObservedUsage>,
        index: ModuleIndex,
    ) -> AnalysisContext<'a> {
        AnalysisContext { app, index, usage }
    }

    /// The union of the eager closures of every handler's module — the set
    /// of modules the runtime loads at cold start, for any entry point —
    /// as one flag per module index.
    pub fn eager_closure_all_handlers(&self) -> &[bool] {
        self.index.eager()
    }
}

/// Items grouped into rows, stored flat: the rows `lo..hi` are one slice.
#[derive(Debug, Clone)]
struct Grouped<T> {
    start: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy> Grouped<T> {
    /// Groups `(row, item)` pairs into `rows` rows, keeping the pairs'
    /// order within each row.
    fn build(rows: usize, mut pairs: Vec<(u32, T)>) -> Grouped<T> {
        pairs.sort_by_key(|(row, _)| *row);
        let mut start = vec![0u32; rows + 1];
        for (row, _) in &pairs {
            start[*row as usize + 1] += 1;
        }
        for r in 0..rows {
            start[r + 1] += start[r];
        }
        Grouped {
            start,
            items: pairs.into_iter().map(|(_, item)| item).collect(),
        }
    }

    /// No rows yet; [`Self::push_row`] appends them in order.
    fn new() -> Grouped<T> {
        Grouped {
            start: vec![0],
            items: Vec::new(),
        }
    }

    /// Closes the current row: the items pushed since the previous call.
    fn push_row(&mut self) {
        self.start.push(self.items.len() as u32);
    }

    /// The number of rows.
    fn len(&self) -> usize {
        self.start.len() - 1
    }

    /// The items of `rows`.
    fn rows(&self, rows: Range<u32>) -> &[T] {
        &self.items
            [self.start[rows.start as usize] as usize..self.start[rows.end as usize] as usize]
    }

    /// The items of row `row`.
    fn row(&self, row: usize) -> &[T] {
        self.rows(row as u32..row as u32 + 1)
    }
}

/// A set of modules, one bit per module index: a row of the reach matrix.
#[derive(Debug, Clone, Copy)]
pub struct LoadSet<'a> {
    words: &'a [u64],
}

impl LoadSet<'_> {
    /// Whether `module` is in the set.
    #[inline]
    pub fn contains(&self, module: ModuleId) -> bool {
        let i = module.index();
        self.words[i / 64] >> (i % 64) & 1 == 1
    }
}

/// Sets bit `i` of a bitset row.
#[inline]
fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

/// Row `i` of a flat table of `stride`-word rows.
fn row_mut(rows: &mut [u64], stride: usize, i: usize) -> &mut [u64] {
    &mut rows[i * stride..(i + 1) * stride]
}

/// The as-written load graph — an edge from each module to its nearest
/// existing ancestor, then one per global import — and its strongly
/// connected components.
#[derive(Debug, Clone)]
struct LoadGraph {
    /// The load edges out of each module, by module index.
    edges: Grouped<ModuleId>,
    /// Each module's component, by module index.
    component: Vec<u32>,
    /// The modules of each component. Components are in reverse
    /// topological order: an edge that leaves a component enters an
    /// earlier one.
    members: Grouped<ModuleId>,
}

impl LoadGraph {
    fn build(tree: &PackageTree, app: &Application, roots: &[ModuleId]) -> LoadGraph {
        let n = app.modules().len();
        let mut edges = Grouped::new();
        for i in 0..n {
            let m = ModuleId::from_index(i);
            edges.items.extend(tree.parent(m));
            edges.items.extend(
                app.imports_of(m)
                    .iter()
                    .filter(|d| d.mode.is_global())
                    .map(|d| d.target),
            );
            edges.push_row();
        }

        // Tarjan's algorithm without recursion, from the handler roots
        // first. A component is complete when the walk leaves the first
        // module it visited there, so the components complete sinks first.
        const UNSEEN: u32 = u32::MAX;
        let mut number = vec![UNSEEN; n];
        let mut low = vec![0u32; n];
        let mut component = vec![UNSEEN; n];
        let mut components = 0;
        // Visited modules not yet in a component, the walk's path as
        // (module index, next edge), and the modules in the order the walk
        // left them.
        let mut open: Vec<usize> = Vec::new();
        let mut path: Vec<(usize, u32)> = Vec::new();
        let mut finished = Vec::with_capacity(n);
        let mut visited = 0;
        for root in roots.iter().map(|m| m.index()).chain(0..n) {
            if number[root] != UNSEEN {
                continue;
            }
            let mut next = Some(root);
            loop {
                if let Some(v) = next.take() {
                    number[v] = visited;
                    low[v] = visited;
                    visited += 1;
                    open.push(v);
                    path.push((v, edges.start[v]));
                }
                let Some(&(v, e)) = path.last() else {
                    break;
                };
                if e < edges.start[v + 1] {
                    let top = path.len() - 1;
                    path[top].1 += 1;
                    let w = edges.items[e as usize].index();
                    if number[w] == UNSEEN {
                        next = Some(w);
                    } else if component[w] == UNSEEN {
                        low[v] = low[v].min(number[w]);
                    }
                    continue;
                }
                path.pop();
                finished.push(v);
                if let Some(&(u, _)) = path.last() {
                    low[u] = low[u].min(low[v]);
                }
                if low[v] == number[v] {
                    loop {
                        let w = open.pop().expect("the component's first module is open");
                        component[w] = components;
                        if w == v {
                            break;
                        }
                    }
                    components += 1;
                }
            }
        }
        // Each component's members in reverse postorder of the walk, the
        // order in which a forward pass over a component sees most of its
        // edges after their source has settled.
        let members = Grouped::build(
            components as usize,
            finished
                .iter()
                .rev()
                .map(|&v| (component[v], ModuleId::from_index(v)))
                .collect(),
        );
        LoadGraph {
            edges,
            component,
            members,
        }
    }

    /// The component of `module`.
    fn component(&self, module: ModuleId) -> usize {
        self.component[module.index()] as usize
    }
}

/// The reach matrix: one bitset row per component of the load graph,
/// holding every module that loading any of the component's modules loads.
#[derive(Debug, Clone)]
struct Reach {
    /// Words per row.
    stride: usize,
    rows: Vec<u64>,
}

impl Reach {
    /// Fills the rows sinks first, so a row takes in the finished rows of
    /// the components its modules' edges enter.
    fn build(graph: &LoadGraph, modules: usize) -> Reach {
        let stride = modules.div_ceil(64);
        let components = graph.members.len();
        let mut rows = vec![0u64; components * stride];
        // The component whose row last took in each row, to take it once.
        let mut taken = vec![usize::MAX; components];
        for c in 0..components {
            let (done, rest) = rows.split_at_mut(c * stride);
            let row = &mut rest[..stride];
            for &m in graph.members.row(c) {
                set_bit(row, m.index());
                for &t in graph.edges.row(m.index()) {
                    let d = graph.component(t);
                    if d != c && taken[d] != c {
                        taken[d] = c;
                        let other = &done[d * stride..(d + 1) * stride];
                        for (word, bits) in row.iter_mut().zip(other) {
                            *word |= bits;
                        }
                    }
                }
            }
        }
        Reach { stride, rows }
    }
}

/// The package-cut table. Its columns are the member runs of the
/// application's packages (packages with the same members share one), and
/// it holds, per column, the first eager side-effectful module, in
/// module-index order, that every load path from a handler root reaches
/// only by entering the column's packages over an import from outside:
/// the module that deferring their boundary imports drops from the
/// cold-start load set.
#[derive(Debug, Clone)]
struct Cuts {
    /// Each column's run of package-tree positions, by start and then by
    /// end, descending (outer packages first).
    runs: Vec<(u32, u32)>,
    /// Each column's dropped module index, `u32::MAX` for none.
    dropped: Vec<u32>,
}

impl Cuts {
    const NONE: u32 = u32::MAX;

    fn build(index: &ModuleIndex, app: &Application, graph: &LoadGraph) -> Cuts {
        let tree = index.tree();
        let n = app.modules().len();

        // The columns, in one sweep over package-tree order that keeps the
        // packages holding the current module open, outermost first, as
        // (path length, index into `opened`). The packages opened at one
        // position that close at one position hold the same modules; they
        // are consecutive and share a column.
        let mut opened: Vec<(u32, u32)> = Vec::new();
        let mut open: Vec<(usize, u32)> = Vec::new();
        // The packages holding each module, innermost first, by position.
        let mut holding = Grouped::new();
        let mut previous: &[u8] = &[];
        for (p, &m) in tree.order().iter().enumerate() {
            let name = app.module(m).name().as_bytes();
            // An open path is a prefix of the previous name. It holds this
            // module too when this name shares it and a component of this
            // name ends there (`Module::in_package`).
            let common = name
                .iter()
                .zip(previous)
                .take_while(|(a, b)| a == b)
                .count();
            while let Some(&(len, k)) = open.last() {
                if len <= common && name.get(len).is_none_or(|b| *b == b'.') {
                    break;
                }
                opened[k as usize].1 = p as u32;
                open.pop();
            }
            // The module's longer prefixes open here: one ending at each
            // later separator, and its whole name.
            let from = open.last().map_or(0, |&(len, _)| len + 1);
            for end in (from..name.len())
                .filter(|&i| name[i] == b'.')
                .chain([name.len()])
            {
                open.push((end, opened.len() as u32));
                opened.push((p as u32, 0));
            }
            holding.items.extend(open.iter().rev().map(|&(_, k)| k));
            holding.push_row();
            previous = name;
        }
        for (_, k) in open {
            opened[k as usize].1 = n as u32;
        }
        let mut runs: Vec<(u32, u32)> = Vec::new();
        let mut column = Vec::with_capacity(opened.len());
        for run in &opened {
            if runs.last() != Some(run) {
                runs.push(*run);
            }
            column.push(runs.len() as u32 - 1);
        }
        for k in &mut holding.items {
            *k = column[*k as usize];
        }

        // in(v): the columns every load path from a root to `v` enters over
        // an edge from outside, as the greatest solution of in(root) = ∅ and
        // in(v) = ∩ over edges u → v of (in(u) ∪ the columns holding v but
        // not u). Components are visited sources first, and the rule is
        // iterated inside each until no set changes (a package importing
        // its own submodule closes a cycle through the ancestor edge).
        let stride = runs.len().div_ceil(64);
        let mut ins = vec![u64::MAX; n * stride];
        for root in index.roots() {
            row_mut(&mut ins, stride, root.index()).fill(0);
        }
        let mut through = vec![0u64; stride];
        let mut relax = |ins: &mut [u64], u: ModuleId, v: ModuleId| -> bool {
            through.copy_from_slice(&ins[u.index() * stride..(u.index() + 1) * stride]);
            let from = tree.position(u);
            // Only a package holding v but not u is entered; the runs of
            // the packages holding v grow outwards, so stop at u's.
            for &k in holding.row(tree.position(v) as usize) {
                let (lo, hi) = runs[k as usize];
                if (lo..hi).contains(&from) {
                    break;
                }
                set_bit(&mut through, k as usize);
            }
            let mut changed = false;
            for (word, t) in row_mut(ins, stride, v.index()).iter_mut().zip(&through) {
                let next = *word & t;
                changed |= next != *word;
                *word = next;
            }
            changed
        };
        // Whether a module's set changed since its edges were last relaxed.
        let mut dirty = vec![true; n];
        for c in (0..graph.members.len()).rev() {
            let members = graph.members.row(c);
            if !index.eager[members[0].index()] {
                continue; // not loaded at cold start, so on no load path
            }
            let inside = |t: &ModuleId| graph.component(*t) == c;
            loop {
                let mut changed = false;
                for &u in members {
                    if !std::mem::take(&mut dirty[u.index()]) {
                        continue;
                    }
                    for &v in graph.edges.row(u.index()).iter().filter(|t| inside(t)) {
                        if relax(&mut ins, u, v) {
                            dirty[v.index()] = true;
                            changed = true;
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
            for &u in members {
                for &v in graph.edges.row(u.index()).iter().filter(|t| !inside(t)) {
                    relax(&mut ins, u, v);
                }
            }
        }

        let mut dropped = vec![Cuts::NONE; runs.len()];
        for &s in &index.eager_side_effects {
            let row = &ins[s.index() * stride..(s.index() + 1) * stride];
            for (w, &word) in row.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let k = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if dropped[k] == Cuts::NONE {
                        dropped[k] = s.index() as u32;
                    }
                }
            }
        }
        Cuts { runs, dropped }
    }
}

/// The module-graph index of one application version: built once, then
/// shared by every pass and verifier call over that version.
///
/// It holds the application's [`PackageTree`] (each module's nearest
/// existing dotted-prefix ancestor, and the modules in package-tree order,
/// so "module `m` lies in package `P`" is a range test, see [`Package`]),
/// the handler root modules, the as-written all-handlers eager closure,
/// and per-package groupings of the incoming import edges, touching
/// functions and defining functions that the verifier reads instead of
/// scanning the whole application. The groupings' rows are package-tree
/// positions. The reach matrix and the package-cut table are built on
/// first use.
///
/// Import modes are part of what it indexes, so an index describes exactly
/// the application it was built from: pass that same application to every
/// method, and rebuild the index after flipping an import.
#[derive(Debug, Clone)]
pub struct ModuleIndex {
    /// The application's package tree.
    tree: PackageTree,
    /// The module of each handler's function, in handler order.
    roots: Vec<ModuleId>,
    /// The as-written all-handlers eager closure, per module index.
    eager: Vec<bool>,
    /// Side-effectful modules, in module-index order.
    side_effects: Vec<ModuleId>,
    /// Side-effectful modules in `eager`, in module-index order.
    eager_side_effects: Vec<ModuleId>,
    /// Modules with at least one deferred import, per module index.
    defers: Vec<bool>,
    /// Global imports as `(importer, declaration slot)`, grouped by the
    /// target's position.
    incoming: Grouped<(ModuleId, u32)>,
    /// Functions containing a `Touch` of a module, grouped by the touched
    /// module's position (a function appears once per touch).
    touchers: Grouped<FunctionId>,
    /// Functions grouped by their defining module's position.
    defined: Grouped<FunctionId>,
    /// The load graph and its components, for the two tables below.
    graph: OnceLock<LoadGraph>,
    /// The reach matrix.
    reach: OnceLock<Reach>,
    /// The package-cut table.
    cuts: OnceLock<Cuts>,
}

impl ModuleIndex {
    /// Indexes `app`.
    pub fn build(app: &Application) -> ModuleIndex {
        let modules = app.modules();
        let n = modules.len();
        let tree = app.package_tree();

        let mut incoming = Vec::new();
        let mut defers = vec![false; n];
        for (i, deferring) in defers.iter_mut().enumerate() {
            let importer = ModuleId::from_index(i);
            for (slot, decl) in app.imports_of(importer).iter().enumerate() {
                if decl.mode.is_global() {
                    incoming.push((tree.position(decl.target), (importer, slot as u32)));
                } else {
                    *deferring = true;
                }
            }
        }

        let mut touchers = Vec::new();
        let mut defined = Vec::with_capacity(app.functions().len());
        for (i, function) in app.functions().iter().enumerate() {
            let f = FunctionId::from_index(i);
            defined.push((tree.position(function.module()), f));
            for m in function.touched_modules() {
                touchers.push((tree.position(m), f));
            }
        }

        let mut index = ModuleIndex {
            tree,
            roots: app
                .handlers()
                .iter()
                .map(|h| app.function(h.function()).module())
                .collect(),
            eager: Vec::new(),
            side_effects: (0..n)
                .filter(|i| modules[*i].side_effectful())
                .map(ModuleId::from_index)
                .collect(),
            eager_side_effects: Vec::new(),
            defers,
            incoming: Grouped::build(n, incoming),
            touchers: Grouped::build(n, touchers),
            defined: Grouped::build(n, defined),
            graph: OnceLock::new(),
            reach: OnceLock::new(),
            cuts: OnceLock::new(),
        };
        index.eager = index.closure(app, &index.roots);
        index.eager_side_effects = index
            .side_effects
            .iter()
            .copied()
            .filter(|m| index.eager[m.index()])
            .collect();
        index
    }

    /// The application's package tree.
    pub fn tree(&self) -> &PackageTree {
        &self.tree
    }

    /// The module of each handler's function, in handler order.
    pub(crate) fn roots(&self) -> &[ModuleId] {
        &self.roots
    }

    /// The as-written all-handlers eager closure, one flag per module index.
    pub fn eager(&self) -> &[bool] {
        &self.eager
    }

    /// The parent-aware eager-load closure from every module in `roots`,
    /// in one traversal, one flag per module index.
    fn closure(&self, app: &Application, roots: &[ModuleId]) -> Vec<bool> {
        let mut loaded = vec![false; app.modules().len()];
        let mut stack = roots.to_vec();
        while let Some(m) = stack.pop() {
            if loaded[m.index()] {
                continue;
            }
            loaded[m.index()] = true;
            // Ancestor packages load first, exactly as the runtime's
            // load-with-parents does — even without an import edge to them.
            if let Some(p) = self.tree.parent(m) {
                if !loaded[p.index()] {
                    stack.push(p);
                }
            }
            for decl in app.imports_of(m) {
                if decl.mode.is_global() && !loaded[decl.target.index()] {
                    stack.push(decl.target);
                }
            }
        }
        loaded
    }

    /// The load graph, built on first use.
    fn graph(&self, app: &Application) -> &LoadGraph {
        self.graph
            .get_or_init(|| LoadGraph::build(&self.tree, app, &self.roots))
    }

    /// The parent-aware eager-load closure of `module`: every module that
    /// loading it in a fresh process loads, itself included. A row of the
    /// reach matrix, which the first call builds.
    pub fn reach(&self, app: &Application, module: ModuleId) -> LoadSet<'_> {
        let graph = self.graph(app);
        let reach = self
            .reach
            .get_or_init(|| Reach::build(graph, app.modules().len()));
        let c = graph.component(module);
        LoadSet {
            words: &reach.rows[c * reach.stride..(c + 1) * reach.stride],
        }
    }

    /// The first eager side-effectful module, in module-index order, that
    /// deferring every global import from outside `package` into it drops
    /// from the cold-start load set: every load path from a handler root to
    /// it enters `package` over such an import. Reads the package-cut
    /// table, which the first call builds when there are eager side
    /// effects at all.
    pub(crate) fn dropped_side_effect(
        &self,
        app: &Application,
        package: &Package<'_>,
    ) -> Option<ModuleId> {
        let run = package.positions();
        if self.eager_side_effects.is_empty() || run.is_empty() {
            return None;
        }
        let cuts = self
            .cuts
            .get_or_init(|| Cuts::build(self, app, self.graph(app)));
        let k = cuts
            .runs
            .binary_search_by(|&(lo, hi)| lo.cmp(&run.start).then(run.end.cmp(&hi)))
            .expect("every package with members has a column");
        let dropped = cuts.dropped[k];
        (dropped != Cuts::NONE).then(|| ModuleId::from_index(dropped as usize))
    }

    /// Whether `module` has at least one deferred import.
    pub(crate) fn defers(&self, module: ModuleId) -> bool {
        self.defers[module.index()]
    }

    /// Side-effectful modules, in module-index order.
    pub(crate) fn side_effects(&self) -> &[ModuleId] {
        &self.side_effects
    }

    /// Global imports into `package`'s members as `(importer, declaration
    /// slot)`, grouped by target, importers inside the package included.
    pub(crate) fn imports_into(&self, package: &Package<'_>) -> &[(ModuleId, u32)] {
        self.incoming.rows(package.positions())
    }

    /// Functions touching a member of `package`, grouped by the touched
    /// module, with repeats.
    pub(crate) fn touching(&self, package: &Package<'_>) -> &[FunctionId] {
        self.touchers.rows(package.positions())
    }

    /// Functions defined in `module`, in function-index order.
    pub(crate) fn defined_in(&self, module: ModuleId) -> &[FunctionId] {
        let p = self.tree.position(module);
        self.defined.rows(p..p + 1)
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use slimstart_appmodel::app::AppBuilder;
    use slimstart_appmodel::ImportMode;
    use slimstart_pyrt::{LoaderPlan, Process};
    use slimstart_simcore::rng::SimRng;
    use slimstart_simcore::time::SimDuration;
    use std::sync::Arc;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    /// handler imports lib.sub.deep directly; lib and lib.sub have no
    /// import edges pointing at them at all.
    fn app() -> Application {
        let mut b = AppBuilder::new("t");
        let lib = b.add_library("lib");
        let h = b.add_app_module("handler", ms(1), 0);
        let _root = b.add_library_module("lib", ms(5), 0, true, lib);
        let _sub = b.add_library_module("lib.sub", ms(2), 0, false, lib);
        let deep = b.add_library_module("lib.sub.deep", ms(3), 0, false, lib);
        b.add_import(h, deep, 2, ImportMode::Global).unwrap();
        let f = b.add_function("main", h, 4, vec![]);
        b.add_handler("main", f);
        b.finish().unwrap()
    }

    #[test]
    fn closure_includes_implicit_parents() {
        let app = app();
        let index = ModuleIndex::build(&app);
        let h = app.module_by_name("handler").unwrap();
        let closure = index.reach(&app, h);
        for name in ["handler", "lib", "lib.sub", "lib.sub.deep"] {
            let m = app.module_by_name(name).unwrap();
            assert!(closure.contains(m), "{name} must be in the eager closure");
        }
        // The import-edge-only closure misses the parents — the exact gap
        // this module exists to close.
        let edge_only = app.eager_load_set(h);
        let root = app.module_by_name("lib").unwrap();
        assert!(!edge_only.contains(&root));
    }

    #[test]
    fn all_handlers_union() {
        let app = app();
        let ctx = AnalysisContext::new(&app, None);
        let loaded = ctx.eager_closure_all_handlers();
        assert_eq!(loaded.iter().filter(|x| **x).count(), 4);
    }

    /// The side effect the package-cut table says deferring `path` drops.
    fn dropped(app: &Application, path: &str) -> Option<String> {
        let index = ModuleIndex::build(app);
        let package = index.tree().package(app, path);
        let m = index.dropped_side_effect(app, &package)?;
        Some(app.module(m).name().to_string())
    }

    /// `handler` imports `lib.a` and `lib.b` globally, and each of them
    /// imports the side-effectful `noisy`; with `rooted`, a second handler
    /// lives in `lib.svc`, inside `lib`, and imports `noisy` too.
    fn two_paths_app(rooted: bool) -> Application {
        let mut b = AppBuilder::new("t");
        let lib = b.add_library("lib");
        let side = b.add_library("noisy");
        let h = b.add_app_module("handler", ms(1), 0);
        let a = b.add_library_module("lib.a", ms(1), 0, false, lib);
        let bm = b.add_library_module("lib.b", ms(1), 0, false, lib);
        let noisy = b.add_library_module("noisy", ms(1), 0, true, side);
        b.add_import(h, a, 1, ImportMode::Global).unwrap();
        b.add_import(h, bm, 2, ImportMode::Global).unwrap();
        b.add_import(a, noisy, 1, ImportMode::Global).unwrap();
        b.add_import(bm, noisy, 1, ImportMode::Global).unwrap();
        let f = b.add_function("main", h, 4, vec![]);
        b.add_handler("main", f);
        if rooted {
            let svc = b.add_app_module("lib.svc", ms(1), 0);
            b.add_import(svc, noisy, 1, ImportMode::Global).unwrap();
            let g = b.add_function("serve", svc, 4, vec![]);
            b.add_handler("serve", g);
        }
        b.finish().unwrap()
    }

    #[test]
    fn cut_needs_every_load_path_to_enter_the_package() {
        // No single module lies on both paths to `noisy`, but both enter
        // `lib`: deferring `lib` drops it, deferring one branch does not.
        let app = two_paths_app(false);
        assert_eq!(dropped(&app, "lib").as_deref(), Some("noisy"));
        assert_eq!(dropped(&app, "lib.a"), None);
        assert_eq!(dropped(&app, "lib.b"), None);
        assert_eq!(dropped(&app, "handler"), None);
        // A handler module inside `lib` loads without entering it.
        let app = two_paths_app(true);
        assert_eq!(dropped(&app, "lib"), None);
        assert_eq!(dropped(&app, "lib.svc"), None);
    }

    /// A random app over dotted names drawn from a small alphabet, so
    /// missing intermediate packages and sibling prefixes are common.
    fn random_gappy_app(seed: u64) -> Application {
        let mut rng = SimRng::seed_from(seed);
        let parts = ["a", "b", "ab", "c"];
        let mut b = AppBuilder::new(format!("gappy-{seed}"));
        let lib = b.add_library("lib");
        let h = b.add_app_module("handler", ms(1), 0);
        let mut ids = Vec::new();
        for _ in 0..(4 + rng.next_below(20)) {
            let depth = 1 + rng.next_below(4);
            let mut name = "lib".to_string();
            for _ in 0..depth {
                name.push('.');
                name.push_str(parts[rng.next_below(parts.len())]);
            }
            if b.module_by_name(&name).is_none() {
                ids.push(b.add_library_module(name, ms(1), 0, false, lib));
            }
        }
        if rng.chance(0.5) {
            ids.push(b.add_library_module("lib", ms(1), 0, false, lib));
        }
        // Forward edges only, so the global graph stays acyclic.
        for (i, &m) in ids.iter().enumerate() {
            if rng.chance(0.4) {
                b.add_import(h, m, 1 + i as u32, ImportMode::Global)
                    .unwrap();
            }
            for &t in &ids[i + 1..] {
                if rng.chance(0.15) {
                    let mode = if rng.chance(0.3) {
                        ImportMode::Deferred
                    } else {
                        ImportMode::Global
                    };
                    b.add_import(m, t, 1, mode).unwrap();
                }
            }
        }
        let f = b.add_function("main", h, 4, vec![]);
        b.add_handler("main", f);
        b.finish().unwrap()
    }

    #[test]
    fn closure_equals_the_runtime_loader_on_apps_with_gaps() {
        let mut gaps = 0;
        for seed in 0..200u64 {
            let app = Arc::new(random_gappy_app(seed));
            let index = ModuleIndex::build(&app);
            let plan = Arc::new(LoaderPlan::build(&app));
            for i in 0..app.modules().len() {
                let m = ModuleId::from_index(i);
                let ours = index.reach(&app, m);
                // The oracle is the loader itself: what a cold start of `m`
                // in a fresh process actually loads.
                let mut process = Process::with_plan(Arc::clone(&app), Arc::clone(&plan), 1.0);
                process.cold_start(m).unwrap();
                for j in (0..app.modules().len()).map(ModuleId::from_index) {
                    assert_eq!(
                        ours.contains(j),
                        process.is_loaded(j),
                        "seed {seed}: closure of `{}` disagrees on `{}`",
                        app.module(m).name(),
                        app.module(j).name()
                    );
                }
                let name = app.module(m).name();
                if let Some((prefix, _)) = name.rsplit_once('.') {
                    if app.module_by_name(prefix).is_none() {
                        gaps += 1;
                    }
                }
            }
        }
        assert!(
            gaps >= 100,
            "only {gaps} modules sit below a missing package"
        );
    }
}
