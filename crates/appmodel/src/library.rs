//! Libraries: named collections of modules organized as package trees.
//!
//! A library is the unit at which the paper reports initialization overhead
//! and utilization (e.g. "nltk contributes 69.93 % of initialization latency
//! at 5.33 % utilization"). The [`PackageNode`] tree provides the
//! hierarchical decomposition of Fig. 6 (library → package → sub-package →
//! module).

use std::collections::BTreeMap;

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

/// A package tree built from a set of modules, for hierarchical
/// initialization-overhead breakdowns (paper Fig. 6 / Eqs. 1–3).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PackageTree {
    nodes: BTreeMap<String, PackageNode>,
    roots: Vec<String>,
}

impl PackageTree {
    /// Builds the tree for the given `(id, module)` pairs.
    ///
    /// Every dotted prefix of every module name becomes a package node; the
    /// module itself is attached as a direct member of its own path's node.
    pub fn build<'a, I>(modules: I) -> Self
    where
        I: IntoIterator<Item = (ModuleId, &'a Module)>,
    {
        let mut tree = PackageTree::default();
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

#[cfg(test)]
mod tests {
    use super::*;
    use slimstart_simcore::time::SimDuration;

    fn mk(name: &str) -> Module {
        Module::new(name, SimDuration::ZERO, 0, false, None)
    }

    fn mid(i: usize) -> ModuleId {
        ModuleId::from_index(i)
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

    #[test]
    fn package_tree_structure() {
        let m0 = mk("nltk");
        let m1 = mk("nltk.sem");
        let m2 = mk("nltk.sem.logic");
        let m3 = mk("nltk.stem");
        let tree = PackageTree::build([(mid(0), &m0), (mid(1), &m1), (mid(2), &m2), (mid(3), &m3)]);
        assert_eq!(tree.roots(), &["nltk".to_string()]);
        let root = tree.node("nltk").unwrap();
        assert_eq!(root.direct_modules, vec![mid(0)]);
        assert_eq!(root.children.len(), 2);
        assert!(tree.node("nltk.sem").is_some());
        assert!(tree.node("nltk.bogus").is_none());
    }

    #[test]
    fn modules_under_is_transitive() {
        let m0 = mk("nltk");
        let m1 = mk("nltk.sem");
        let m2 = mk("nltk.sem.logic");
        let m3 = mk("nltk.stem");
        let tree = PackageTree::build([(mid(0), &m0), (mid(1), &m1), (mid(2), &m2), (mid(3), &m3)]);
        let mut under = tree.modules_under("nltk.sem");
        under.sort();
        assert_eq!(under, vec![mid(1), mid(2)]);
        let mut all = tree.modules_under("nltk");
        all.sort();
        assert_eq!(all, vec![mid(0), mid(1), mid(2), mid(3)]);
    }

    #[test]
    fn intermediate_packages_exist_without_modules() {
        // a.b.c with no module named a.b still creates node a.b.
        let m = mk("a.b.c");
        let tree = PackageTree::build([(mid(0), &m)]);
        assert_eq!(tree.len(), 3);
        let mid_node = tree.node("a.b").unwrap();
        assert!(mid_node.direct_modules.is_empty());
        assert_eq!(mid_node.children, vec!["a.b.c".to_string()]);
    }

    #[test]
    fn multiple_roots() {
        let m0 = mk("numpy");
        let m1 = mk("scipy");
        let tree = PackageTree::build([(mid(0), &m0), (mid(1), &m1)]);
        assert_eq!(tree.roots().len(), 2);
    }

    #[test]
    fn empty_tree() {
        let tree = PackageTree::build(std::iter::empty());
        assert!(tree.is_empty());
        assert!(tree.modules_under("x").is_empty());
    }
}
