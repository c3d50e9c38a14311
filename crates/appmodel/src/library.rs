//! Libraries: named collections of modules organized as package trees.
//!
//! A library is the unit at which the paper reports initialization overhead
//! and utilization (e.g. "nltk contributes 69.93 % of initialization latency
//! at 5.33 % utilization"). The [`PackageTree`] provides the hierarchical
//! decomposition of Fig. 6 (library → package → sub-package → module).

use std::cmp::Ordering;

use crate::app::Application;
use crate::ids::ModuleId;
use crate::module::Module;

/// A library: a top-level package plus all modules beneath it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Library {
    name: String,
    modules: Vec<ModuleId>,
}

impl Library {
    /// Creates an empty library named `name` (the top-level package path).
    pub fn new(name: impl Into<String>) -> Self {
        Library {
            name: name.into(),
            modules: Vec::new(),
        }
    }

    /// The library's top-level package name, e.g. `nltk`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The modules belonging to this library, in creation order.
    pub fn modules(&self) -> &[ModuleId] {
        &self.modules
    }

    /// Number of member modules.
    pub fn module_count(&self) -> usize {
        self.modules.len()
    }

    pub(crate) fn push_module(&mut self, id: ModuleId) {
        self.modules.push(id);
    }
}

/// Dotted names in package-tree order: byte order with `.` ranked below
/// every other byte. That equals comparing the names component by
/// component (`a.split('.').cmp(b.split('.'))`), because a component that
/// ends sorts before any longer one, so a package sorts directly before its
/// descendants: `lib.sem`, `lib.sem.x`, `lib.sem-x`, `lib.semantics`. Plain
/// byte order would not do: it puts `lib.sem-x` between `lib.sem` and
/// `lib.sem.x`, splitting the package's members.
fn package_order(a: &str, b: &str) -> Ordering {
    fn rank(byte: u8) -> u16 {
        if byte == b'.' {
            0
        } else {
            u16::from(byte) + 1
        }
    }
    a.bytes().map(rank).cmp(b.bytes().map(rank))
}

/// A dotted package resolved against a [`PackageTree`]. Its members (the
/// module named by the path and every module below it) occupy one
/// contiguous run of the tree's order, so membership is an integer range
/// test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Package<'p> {
    path: &'p str,
    lo: u32,
    hi: u32,
}

impl<'p> Package<'p> {
    /// The dotted path.
    pub fn path(&self) -> &'p str {
        self.path
    }

    /// The positions of the members in the tree's order.
    pub fn positions(&self) -> std::ops::Range<u32> {
        self.lo..self.hi
    }
}

/// The package tree of one application (Fig. 6 / Eqs. 1–3): its modules
/// in package-tree order (byte order of the names with `.` ranked below
/// every other byte), each module's position in that order and each
/// module's nearest existing ancestor.
///
/// A package is every distinct dotted prefix of some module name, whether
/// or not a module carries it. The tree stores module ids only and reads
/// names from the application, so pass the application it was built from
/// to every method.
#[derive(Debug, Clone)]
pub struct PackageTree {
    /// Modules in package-tree order.
    order: Vec<ModuleId>,
    /// Position of each module (by index) in `order`.
    pos: Vec<u32>,
    /// Nearest existing strict dotted-prefix ancestor, per module index.
    parent: Vec<Option<ModuleId>>,
}

impl PackageTree {
    /// Builds the tree over `modules`, indexed by [`ModuleId::index`].
    pub(crate) fn build(modules: &[Module]) -> PackageTree {
        let n = modules.len();
        let mut order: Vec<ModuleId> = (0..n).map(ModuleId::from_index).collect();
        order.sort_unstable_by(|a, b| {
            package_order(modules[a.index()].name(), modules[b.index()].name())
        });
        let mut pos = vec![0u32; n];
        for (p, m) in order.iter().enumerate() {
            pos[m.index()] = p as u32;
        }

        // In package-tree order every existing ancestor of a module comes
        // before it, so a stack of the open packages yields each module's
        // nearest existing ancestor in one sweep.
        let mut parent = vec![None; n];
        let mut open: Vec<ModuleId> = Vec::new();
        for &m in &order {
            let module = &modules[m.index()];
            while let Some(&top) = open.last() {
                let outer = modules[top.index()].name();
                if outer != module.name() && module.in_package(outer) {
                    break;
                }
                open.pop();
            }
            parent[m.index()] = open.last().copied();
            open.push(m);
        }
        PackageTree { order, pos, parent }
    }

    /// Resolves the dotted package `path`, which need not name a module
    /// (an unknown path resolves to a package with no members).
    pub fn package<'p>(&self, app: &Application, path: &'p str) -> Package<'p> {
        let lo = self
            .order
            .partition_point(|m| package_order(app.module(*m).name(), path).is_lt());
        self.package_from(app, path, lo)
    }

    /// `path` resolved given that its first member, if any, sits at `lo`.
    fn package_from<'p>(&self, app: &Application, path: &'p str, lo: usize) -> Package<'p> {
        let len = self.order[lo..].partition_point(|m| app.module(*m).in_package(path));
        Package {
            path,
            lo: lo as u32,
            hi: (lo + len) as u32,
        }
    }

    /// Whether `module` lies in `package` (inclusive).
    #[inline]
    pub fn contains(&self, package: &Package<'_>, module: ModuleId) -> bool {
        package.positions().contains(&self.pos[module.index()])
    }

    /// The members of `package`, in package-tree order: its own module,
    /// when one carries the path, comes first.
    pub fn members(&self, package: &Package<'_>) -> &[ModuleId] {
        &self.order[package.lo as usize..package.hi as usize]
    }

    /// Every module, in package-tree order.
    pub fn order(&self) -> &[ModuleId] {
        &self.order
    }

    /// The position of `module` in package-tree order.
    #[inline]
    pub fn position(&self, module: ModuleId) -> u32 {
        self.pos[module.index()]
    }

    /// The nearest existing strict dotted-prefix ancestor of `module`,
    /// skipping prefixes no module carries.
    #[inline]
    pub fn parent(&self, module: ModuleId) -> Option<ModuleId> {
        self.parent[module.index()]
    }

    /// Every package, in package-tree order: each distinct dotted prefix of
    /// some module name, including prefixes no module carries.
    pub fn packages<'a>(&'a self, app: &'a Application) -> impl Iterator<Item = Package<'a>> + 'a {
        // A module's prefixes that it shares with the module before it were
        // listed with that one; since every package's members are
        // contiguous, the others are new.
        let mut previous: Option<&'a Module> = None;
        self.order.iter().enumerate().flat_map(move |(lo, &m)| {
            let module = app.module(m);
            let shared = previous.replace(module);
            module
                .package_prefixes()
                .skip_while(move |p| shared.is_some_and(|s| s.in_package(p)))
                .map(move |path| self.package_from(app, path, lo))
        })
    }

    /// The child packages of `package` (one more dotted component), in the
    /// order their first members were added to the application: ascending
    /// smallest member [`ModuleId`].
    pub fn children<'a>(&self, app: &'a Application, package: &Package<'_>) -> Vec<Package<'a>> {
        let start = package.path.len() + 1;
        // Each child's members are one contiguous run of the package's.
        let mut children: Vec<(ModuleId, Package<'a>)> = Vec::new();
        for (p, &m) in (package.lo..).zip(self.members(package)) {
            let module = app.module(m);
            let name = module.name();
            if name.len() < start {
                continue; // the package's own module
            }
            match children.last_mut() {
                Some((first, child)) if module.in_package(child.path) => {
                    *first = (*first).min(m);
                    child.hi = p + 1;
                }
                _ => {
                    let end = name[start..].find('.').map_or(name.len(), |k| start + k);
                    let child = Package {
                        path: &name[..end],
                        lo: p,
                        hi: p + 1,
                    };
                    children.push((m, child));
                }
            }
        }
        children.sort_unstable_by_key(|(first, _)| *first);
        children.into_iter().map(|(_, child)| child).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::AppBuilder;
    use crate::imports::ImportMode;
    use slimstart_simcore::rng::SimRng;
    use slimstart_simcore::time::SimDuration;

    fn mid(i: usize) -> ModuleId {
        ModuleId::from_index(i)
    }

    /// An app whose library modules carry `names`, in that order, after
    /// one application module `handler` (id 0) that imports them all.
    fn app(names: &[&str]) -> Application {
        let mut b = AppBuilder::new("tree");
        let lib = b.add_library("lib");
        let h = b.add_app_module("handler", SimDuration::ZERO, 0);
        for (i, name) in names.iter().enumerate() {
            let m = b.add_library_module(*name, SimDuration::ZERO, 0, false, lib);
            b.add_import(h, m, 1 + i as u32, ImportMode::Global)
                .unwrap();
        }
        let f = b.add_function("main", h, 1, vec![]);
        b.add_handler("main", f);
        b.finish().unwrap()
    }

    fn paths<'a>(packages: impl IntoIterator<Item = Package<'a>>) -> Vec<&'a str> {
        packages.into_iter().map(|p| p.path()).collect()
    }

    #[test]
    fn library_collects_modules() {
        let mut lib = Library::new("igraph");
        lib.push_module(mid(0));
        lib.push_module(mid(1));
        assert_eq!(lib.name(), "igraph");
        assert_eq!(lib.module_count(), 2);
        assert_eq!(lib.modules(), &[mid(0), mid(1)]);
    }

    /// A random dotted name over short components, with empty components,
    /// trailing dots and bytes ranked below `.` (`-`, `!`, a space).
    fn random_name(rng: &mut SimRng) -> String {
        let parts = ["a", "ab", "-", "!", "_", "0", " ", ""];
        let mut name = String::new();
        for k in 0..(1 + rng.next_below(4)) {
            if k > 0 {
                name.push('.');
            }
            name.push_str(parts[rng.next_below(parts.len())]);
        }
        if rng.chance(0.1) {
            name.push('.');
        }
        name
    }

    #[test]
    fn package_order_equals_component_order() {
        let by_components = |a: &str, b: &str| a.split('.').cmp(b.split('.'));
        let mut rng = SimRng::seed_from(0x07de);
        for _ in 0..200 {
            let mut names: Vec<String> = (0..24).map(|_| random_name(&mut rng)).collect();
            for a in &names {
                for b in &names {
                    assert_eq!(package_order(a, b), by_components(a, b), "`{a}` vs `{b}`");
                }
            }
            let mut split_sorted = names.clone();
            split_sorted.sort_by(|a, b| by_components(a, b));
            names.sort_by(|a, b| package_order(a, b));
            assert_eq!(names, split_sorted);
        }
        // The separator ranks below every other byte, unlike in byte order.
        assert!(package_order("lib.sem.x", "lib.sem-x").is_lt());
        assert!("lib.sem.x" > "lib.sem-x");
    }

    #[test]
    fn package_ranges_respect_dotted_boundaries() {
        let app = app(&[
            "lib",
            "lib.semantics",
            "lib.sem.x",
            "lib.sem-x",
            "lib.sem",
            "lib.sem.x.y",
            "libx",
        ]);
        let tree = app.package_tree();
        for path in [
            "lib",
            "lib.sem",
            "lib.sem.x",
            "lib.semantics",
            "lib.s",
            "lib.gap",
            "x",
        ] {
            let package = tree.package(&app, path);
            let mut via_range: Vec<ModuleId> = tree.members(&package).to_vec();
            via_range.sort();
            let via_names: Vec<ModuleId> = (0..app.modules().len())
                .map(ModuleId::from_index)
                .filter(|m| app.module(*m).in_package(path))
                .collect();
            assert_eq!(via_range, via_names, "package `{path}`");
            for m in 0..app.modules().len() {
                let m = ModuleId::from_index(m);
                assert_eq!(
                    tree.contains(&package, m),
                    app.module(m).in_package(path),
                    "`{}` in `{path}`",
                    app.module(m).name()
                );
            }
        }
    }

    #[test]
    fn parent_skips_missing_intermediate_packages() {
        let app = app(&["lib", "lib.sub.deep", "lib.semantics"]);
        let tree = app.package_tree();
        let parent = |name: &str| -> Option<&str> {
            let m = app.module_by_name(name).unwrap();
            tree.parent(m).map(|p| app.module(p).name())
        };
        // `lib.sub.deep` climbs over the missing `lib.sub` to `lib`, and
        // `lib.semantics` is no child of a `lib.sem` prefix.
        assert_eq!(parent("lib.sub.deep"), Some("lib"));
        assert_eq!(parent("lib.semantics"), Some("lib"));
        assert_eq!(parent("lib"), None);
        assert_eq!(parent("handler"), None);
    }

    #[test]
    fn members_are_transitive_and_start_with_the_own_module() {
        let app = app(&["nltk.stem", "nltk.sem.logic", "nltk", "nltk.sem"]);
        let tree = app.package_tree();
        let names = |path: &str| -> Vec<&str> {
            let package = tree.package(&app, path);
            tree.members(&package)
                .iter()
                .map(|m| app.module(*m).name())
                .collect()
        };
        assert_eq!(names("nltk.sem"), ["nltk.sem", "nltk.sem.logic"]);
        assert_eq!(
            names("nltk"),
            ["nltk", "nltk.sem", "nltk.sem.logic", "nltk.stem"]
        );
        assert!(names("nltk.bogus").is_empty());
    }

    #[test]
    fn packages_list_every_prefix_once_in_tree_order() {
        // `a.b.c` with no module named `a.b` still makes `a.b` a package.
        let app = app(&["a.b.c", "a.x", "b", "a"]);
        let tree = app.package_tree();
        assert_eq!(
            paths(tree.packages(&app)),
            ["a", "a.b", "a.b.c", "a.x", "b", "handler"]
        );
        let ab = tree.packages(&app).nth(1).unwrap();
        assert_eq!(tree.members(&ab), &[app.module_by_name("a.b.c").unwrap()]);
    }

    #[test]
    fn children_follow_first_appearance_not_name_order() {
        let app = app(&["lib.z.x", "lib.a", "lib.m", "lib.z"]);
        let tree = app.package_tree();
        let lib = tree.package(&app, "lib");
        // `lib.z` appeared first, through `lib.z.x`.
        assert_eq!(
            paths(tree.children(&app, &lib)),
            ["lib.z", "lib.a", "lib.m"]
        );
        let z = tree.children(&app, &lib)[0];
        assert_eq!(z, tree.package(&app, "lib.z"));
        assert_eq!(paths(tree.children(&app, &z)), ["lib.z.x"]);
        assert!(tree.children(&app, &tree.package(&app, "lib.a")).is_empty());
        assert!(tree.children(&app, &tree.package(&app, "x")).is_empty());
    }

    #[test]
    fn random_trees_match_their_names() {
        let mut rng = SimRng::seed_from(0x9ac4);
        for _ in 0..60 {
            let mut names: Vec<String> = Vec::new();
            for _ in 0..(1 + rng.next_below(16)) {
                let name = format!("lib.{}", random_name(&mut rng));
                if !names.contains(&name) && name != "handler" {
                    names.push(name);
                }
            }
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let app = app(&refs);
            let tree = app.package_tree();

            let mut expected: Vec<&str> = app
                .modules()
                .iter()
                .flat_map(|m| m.package_prefixes())
                .collect();
            expected.sort_by(|a, b| a.split('.').cmp(b.split('.')));
            expected.dedup();
            let packages: Vec<Package<'_>> = tree.packages(&app).collect();
            assert_eq!(paths(packages.iter().copied()), expected, "{names:?}");

            for package in &packages {
                let path = package.path();
                assert_eq!(*package, tree.package(&app, path));
                let members = tree.members(package);
                assert!(members.iter().all(|m| app.module(*m).in_package(path)));
                let count = app.modules().iter().filter(|m| m.in_package(path)).count();
                assert_eq!(members.len(), count, "`{path}`");
                // Children: the packages one component below, by their
                // smallest member id.
                let mut below: Vec<(ModuleId, &str)> = packages
                    .iter()
                    .filter(|c| {
                        c.path().len() > path.len()
                            && c.path().starts_with(path)
                            && c.path().as_bytes()[path.len()] == b'.'
                            && !c.path()[path.len() + 1..].contains('.')
                    })
                    .map(|c| (*tree.members(c).iter().min().unwrap(), c.path()))
                    .collect();
                below.sort();
                let below: Vec<&str> = below.into_iter().map(|(_, p)| p).collect();
                assert_eq!(paths(tree.children(&app, package)), below, "`{path}`");
            }
        }
    }
}
