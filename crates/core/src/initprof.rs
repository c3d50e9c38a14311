//! Hierarchical breakdown of initialization overhead (paper §IV-A1,
//! Fig. 6, Eqs. 1–3).
//!
//! The profiler measures exact per-module top-level execution time; this
//! module rolls it up: module → package → library → total, and applies the
//! 10 % end-to-end gate that decides whether an application is worth
//! optimizing at all.

use std::collections::{BTreeMap, HashMap};

use slimstart_appmodel::{Application, ModuleId};
use slimstart_simcore::time::SimDuration;

use crate::profile::ProfileStore;

/// Mean-per-cold-start initialization times at every level of the
/// hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub struct InitBreakdown {
    /// Cold starts observed.
    pub cold_starts: u64,
    /// Eq. 1: total initialization time (mean per cold start).
    pub total: SimDuration,
    /// Mean per-module initialization time.
    pub by_module: HashMap<ModuleId, SimDuration>,
    /// Eq. 2: per-library totals, indexed by [`LibraryId::index`]
    /// (application code is excluded).
    ///
    /// [`LibraryId::index`]: slimstart_appmodel::LibraryId::index
    pub by_library: Vec<SimDuration>,
    /// Eq. 3: per-package subtree totals, keyed by dotted path.
    pub by_package: BTreeMap<String, SimDuration>,
    /// Mean end-to-end latency of the profiled invocations.
    pub e2e_mean: SimDuration,
}

impl InitBreakdown {
    /// Computes the breakdown from the collector's observations.
    ///
    /// # Panics
    ///
    /// Panics if `cold_starts` is zero.
    pub fn from_store(
        store: &ProfileStore,
        app: &Application,
        cold_starts: u64,
        e2e_mean: SimDuration,
    ) -> InitBreakdown {
        assert!(cold_starts > 0, "need at least one cold start to profile");
        let by_module: HashMap<ModuleId, SimDuration> = store
            .init_micros_by_module
            .iter()
            .map(|(m, micros)| (*m, SimDuration::from_micros(micros / cold_starts)))
            .collect();

        let mut by_library = vec![SimDuration::ZERO; app.libraries().len()];
        for (m, d) in &by_module {
            if let Some(lib) = app.module(*m).library() {
                by_library[lib.index()] += *d;
            }
        }

        // Eq. 3: a package's subtree is every module it is a dotted prefix
        // of. Every package of the app is listed, measured or not.
        let mut by_package = BTreeMap::new();
        for module in app.modules() {
            for prefix in module.package_prefixes() {
                if !by_package.contains_key(prefix) {
                    by_package.insert(prefix.to_owned(), SimDuration::ZERO);
                }
            }
        }
        for (m, d) in &by_module {
            for prefix in app.module(*m).package_prefixes() {
                *by_package
                    .get_mut(prefix)
                    .expect("every module's prefixes are seeded") += *d;
            }
        }

        let total: SimDuration = by_module.values().copied().sum();
        InitBreakdown {
            cold_starts,
            total,
            by_module,
            by_library,
            by_package,
            e2e_mean,
        }
    }

    /// Share of end-to-end time spent initializing (Fig. 1's ratio).
    pub fn total_share(&self) -> f64 {
        self.total.ratio(self.e2e_mean)
    }

    /// A package's share of *total initialization* time (the percentages in
    /// the paper's report tables).
    pub fn package_init_fraction(&self, path: &str) -> f64 {
        self.by_package
            .get(path)
            .copied()
            .unwrap_or(SimDuration::ZERO)
            .ratio(self.total)
    }

    /// Whether the application clears the optimization gate (§IV-A1).
    pub fn passes_gate(&self, threshold: f64) -> bool {
        self.total_share() > threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimstart_appmodel::app::AppBuilder;
    use slimstart_appmodel::imports::ImportMode;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    fn store_and_app() -> (ProfileStore, Application) {
        let mut b = AppBuilder::new("t");
        let lib = b.add_library("nltk");
        let h = b.add_app_module("handler", ms(1), 0);
        let root = b.add_library_module("nltk", ms(4), 0, false, lib);
        let sem = b.add_library_module("nltk.sem", ms(40), 0, false, lib);
        let logic = b.add_library_module("nltk.sem.logic", ms(15), 0, false, lib);
        b.add_import(h, root, 2, ImportMode::Global).unwrap();
        b.add_import(root, sem, 2, ImportMode::Global).unwrap();
        b.add_import(sem, logic, 2, ImportMode::Global).unwrap();
        let f = b.add_function("main", h, 4, vec![]);
        b.add_handler("main", f);
        let app = b.finish().unwrap();

        let mut store = ProfileStore::default();
        // Two cold starts, each paying the full init.
        for (name, per_start_ms) in [
            ("handler", 1u64),
            ("nltk", 4),
            ("nltk.sem", 40),
            ("nltk.sem.logic", 15),
        ] {
            let m = app.module_by_name(name).unwrap();
            store
                .init_micros_by_module
                .insert(m, per_start_ms * 1_000 * 2);
        }
        (store, app)
    }

    #[test]
    fn rollups_match_hierarchy() {
        let (store, app) = store_and_app();
        let bd = InitBreakdown::from_store(&store, &app, 2, ms(100));
        assert_eq!(bd.total, ms(60));
        assert_eq!(bd.by_library[0], ms(59)); // nltk tree (excludes handler)
        assert_eq!(bd.by_package["nltk"], ms(59));
        assert_eq!(bd.by_package["nltk.sem"], ms(55));
        assert_eq!(bd.by_package["nltk.sem.logic"], ms(15));
    }

    #[test]
    fn shares_and_gate() {
        let (store, app) = store_and_app();
        let bd = InitBreakdown::from_store(&store, &app, 2, ms(100));
        assert!((bd.total_share() - 0.60).abs() < 1e-9);
        assert!((bd.package_init_fraction("nltk.sem") - 55.0 / 60.0).abs() < 1e-9);
        assert!(bd.passes_gate(0.10));
        assert!(!bd.passes_gate(0.70));
    }

    #[test]
    fn missing_package_has_zero_share() {
        let (store, app) = store_and_app();
        let bd = InitBreakdown::from_store(&store, &app, 2, ms(100));
        assert_eq!(bd.package_init_fraction("numpy"), 0.0);
    }

    #[test]
    #[should_panic(expected = "cold start")]
    fn zero_cold_starts_panics() {
        let (store, app) = store_and_app();
        InitBreakdown::from_store(&store, &app, 0, ms(100));
    }

    #[test]
    fn mean_is_per_cold_start() {
        let (store, app) = store_and_app();
        let bd1 = InitBreakdown::from_store(&store, &app, 1, ms(100));
        let bd2 = InitBreakdown::from_store(&store, &app, 2, ms(100));
        assert_eq!(bd1.total, ms(120));
        assert_eq!(bd2.total, ms(60));
    }
}
