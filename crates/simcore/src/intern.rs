//! String interning for hot-path name lookups.
//!
//! The simulator resolves dotted module paths, function names and handler
//! names constantly — during application building, loader ancestry
//! resolution and report rendering. Interning collapses every distinct
//! string to a dense [`Symbol`] (a `u32`), after which comparisons are a
//! word compare and map keys are fixed-width integers instead of owned
//! `String`s.
//!
//! Determinism: symbol ids are assigned in **insertion order**, never from
//! hash values, so identical inputs produce identical ids on every run and
//! on every thread count. The [`FxHashMap`] index only accelerates the
//! string→id lookup; it does not influence the ids themselves (and FxHash
//! is itself seedless and deterministic, so even iteration-order-dependent
//! debugging output is stable).

use std::sync::Arc;

use crate::hash::FxHashMap;

/// A dense handle to an interned string. Ids are assigned in insertion
/// order starting at 0, so they double as indices into per-symbol side
/// tables (`Vec<T>` keyed by `Symbol`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    /// The raw id, usable as a dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a symbol from a raw id. The caller is responsible for
    /// pairing it with the interner that issued it.
    #[inline]
    fn from_index(index: usize) -> Symbol {
        Symbol(u32::try_from(index).expect("symbol index fits in u32"))
    }
}

/// An insertion-ordered string interner.
///
/// Each distinct string is stored once (as an `Arc<str>` shared between the
/// lookup index and the id→string table) and mapped to a dense [`Symbol`].
///
/// # Example
///
/// ```
/// use slimstart_simcore::intern::Interner;
///
/// let mut interner = Interner::new();
/// let a = interner.intern("numpy.linalg");
/// let b = interner.intern("numpy.linalg");
/// assert_eq!(a, b);
/// assert_eq!(interner.resolve(a), "numpy.linalg");
/// assert_eq!(interner.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Interner {
    index: FxHashMap<Arc<str>, Symbol>,
    strings: Vec<Arc<str>>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Interns `s`, returning its symbol. The first occurrence of a string
    /// allocates once; every later occurrence is a hash lookup.
    pub fn intern(&mut self, s: &str) -> Symbol {
        if let Some(&sym) = self.index.get(s) {
            return sym;
        }
        let sym = Symbol::from_index(self.strings.len());
        let stored: Arc<str> = Arc::from(s);
        self.strings.push(Arc::clone(&stored));
        self.index.insert(stored, sym);
        sym
    }

    /// Looks up the symbol for `s` without interning it.
    #[inline]
    pub fn get(&self, s: &str) -> Option<Symbol> {
        self.index.get(s).copied()
    }

    /// The string behind `sym`.
    ///
    /// # Panics
    ///
    /// Panics if `sym` was not issued by this interner.
    #[inline]
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.strings[sym.index()]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether no strings have been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Iterates `(Symbol, &str)` pairs in insertion (= id) order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> {
        self.strings
            .iter()
            .enumerate()
            .map(|(i, s)| (Symbol::from_index(i), s.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_insertion_ordered() {
        let mut i = Interner::new();
        assert_eq!(i.intern("a").index(), 0);
        assert_eq!(i.intern("b").index(), 1);
        assert_eq!(i.intern("a").index(), 0);
        assert_eq!(i.intern("c").index(), 2);
        assert_eq!(i.len(), 3);
    }

    #[test]
    fn resolve_round_trips() {
        let mut i = Interner::new();
        let names = ["numpy", "numpy.linalg", "scipy.sparse", ""];
        let syms: Vec<Symbol> = names.iter().map(|n| i.intern(n)).collect();
        for (sym, name) in syms.iter().zip(names.iter()) {
            assert_eq!(i.resolve(*sym), *name);
        }
    }

    #[test]
    fn get_does_not_intern() {
        let mut i = Interner::new();
        assert_eq!(i.get("x"), None);
        let sym = i.intern("x");
        assert_eq!(i.get("x"), Some(sym));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn deterministic_across_instances() {
        let names = ["pkg", "pkg.a", "pkg.b", "pkg.a.inner", "other"];
        let mut first = Interner::new();
        let mut second = Interner::new();
        let a: Vec<Symbol> = names.iter().map(|n| first.intern(n)).collect();
        let b: Vec<Symbol> = names.iter().map(|n| second.intern(n)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn iter_yields_insertion_order() {
        let mut i = Interner::new();
        i.intern("one");
        i.intern("two");
        let pairs: Vec<(usize, &str)> = i.iter().map(|(s, n)| (s.index(), n)).collect();
        assert_eq!(pairs, vec![(0, "one"), (1, "two")]);
    }
}
