//! The library-utilization metric U(L) (paper Eq. 4).
//!
//! Utilization is computed over *runtime* samples only — initialization
//! samples are filtered out first (§IV-A2), so a library that is expensive
//! to load but never used shows U = 0 even though it soaked up plenty of
//! init-phase samples (the Lib-4 problem).
//!
//! Attribution is **path-inclusive**: a sample credits every library and
//! package on its call path, not just the innermost frame. This is the
//! CCT-escalation view (TC-2): an orchestrator library whose own frames are
//! rarely on top of the stack is still credited with the activity of the
//! work it coordinates (the Lib-1 problem).

use std::collections::{BTreeMap, HashMap};

use slimstart_appmodel::{Application, LibraryId, ModuleId};
use slimstart_simcore::intern::{Interner, Symbol};

use crate::profile::{PathId, PathTable, SampleRecord};

/// Utilization of every library, package and module.
#[derive(Debug, Clone, PartialEq)]
pub struct Utilization {
    /// Number of runtime samples the shares are relative to.
    pub total_runtime_samples: u64,
    /// U(L) per library, indexed by [`LibraryId::index`].
    pub by_library: Vec<f64>,
    /// U per dotted package path (path-inclusive).
    pub by_package: BTreeMap<String, f64>,
    /// Runtime sample counts per module (path-inclusive).
    pub by_module: HashMap<ModuleId, u64>,
}

/// Per-id sample counts that credit an id at most once per path.
struct OncePerPath {
    counts: Vec<u64>,
    /// The last path (numbered from 1) that credited each id.
    stamps: Vec<u64>,
}

impl OncePerPath {
    fn new(ids: usize) -> Self {
        OncePerPath {
            counts: vec![0; ids],
            stamps: vec![0; ids],
        }
    }

    /// Makes room for ids below `ids`.
    fn grow(&mut self, ids: usize) {
        self.counts.resize(ids, 0);
        self.stamps.resize(ids, 0);
    }

    /// Credits `weight` samples to `id` unless path `path` already did;
    /// returns whether it credited now.
    #[inline]
    fn credit(&mut self, id: usize, path: u64, weight: u64) -> bool {
        if self.stamps[id] == path {
            return false;
        }
        self.stamps[id] = path;
        self.counts[id] += weight;
        true
    }
}

impl Utilization {
    /// Computes utilization from samples whose ids refer to `paths`.
    ///
    /// Runtime samples are counted per distinct path, and each path with
    /// any is walked once, weighted by its count. Within a path, modules,
    /// libraries and packages are each credited once, through per-id
    /// stamps. A sampled module's dotted prefixes are interned the first
    /// time it is credited, and the package names are allocated once, for
    /// the result.
    pub fn from_samples<'a, I>(paths: &PathTable, samples: I, app: &Application) -> Utilization
    where
        I: IntoIterator<Item = &'a SampleRecord>,
    {
        let mut weights = vec![0u64; paths.len()];
        for sample in samples {
            weights[sample.path.index()] += u64::from(!sample.is_init);
        }
        let mut total = 0u64;
        let mut libs = OncePerPath::new(app.libraries().len());
        let mut modules = OncePerPath::new(app.modules().len());
        let mut packages = OncePerPath::new(0);
        let mut names = Interner::new();
        // Module `m`'s prefixes are `prefixes[chains[m]]`, empty until the
        // module is first credited.
        let mut chains = vec![0..0; app.modules().len()];
        let mut prefixes: Vec<Symbol> = Vec::new();

        let mut frames = Vec::new();
        let weighted = (0u32..).zip(weights).filter(|&(_, weight)| weight > 0);
        for (number, (id, weight)) in (1u64..).zip(weighted) {
            total += weight;
            for frame in paths.resolve(PathId(id), &mut frames) {
                let id = frame.module(app);
                if !modules.credit(id.index(), number, weight) {
                    continue;
                }
                let module = app.module(id);
                if let Some(lib) = module.library() {
                    libs.credit(lib.index(), number, weight);
                }
                if chains[id.index()].is_empty() {
                    let start = prefixes.len();
                    prefixes.extend(module.package_prefixes().map(|p| names.intern(p)));
                    chains[id.index()] = start..prefixes.len();
                    packages.grow(names.len());
                }
                for package in &prefixes[chains[id.index()].clone()] {
                    packages.credit(package.index(), number, weight);
                }
            }
        }

        // Every interned package was credited by the path that interned it.
        let denom = total.max(1) as f64;
        Utilization {
            total_runtime_samples: total,
            by_library: libs.counts.iter().map(|c| *c as f64 / denom).collect(),
            by_package: names
                .iter()
                .map(|(sym, name)| (name.to_owned(), packages.counts[sym.index()] as f64 / denom))
                .collect(),
            by_module: modules
                .counts
                .iter()
                .enumerate()
                .filter(|(_, c)| **c > 0)
                .map(|(m, c)| (ModuleId::from_index(m), *c))
                .collect(),
        }
    }

    /// U(L) for one library.
    pub fn library(&self, lib: LibraryId) -> f64 {
        self.by_library.get(lib.index()).copied().unwrap_or(0.0)
    }

    /// U for one package path (0 when never sampled).
    pub fn package(&self, path: &str) -> f64 {
        self.by_package.get(path).copied().unwrap_or(0.0)
    }

    /// Converts into the analyzer's package-granular usage view, for the
    /// over-approximation auditor.
    pub fn to_observed(&self) -> slimstart_analyzer::ObservedUsage {
        slimstart_analyzer::ObservedUsage {
            total_runtime_samples: self.total_runtime_samples,
            by_package: self.by_package.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimstart_appmodel::app::AppBuilder;
    use slimstart_appmodel::imports::ImportMode;
    use slimstart_pyrt::stack::{Frame, FrameKind};
    use slimstart_simcore::time::SimDuration;

    /// Two libraries: orchestrator `orch` whose function calls into
    /// `worker.sub`.
    fn app() -> (Application, Vec<Frame>) {
        let mut b = AppBuilder::new("t");
        let l_orch = b.add_library("orch");
        let l_w = b.add_library("worker");
        let h = b.add_app_module("handler", SimDuration::ZERO, 0);
        let orch = b.add_library_module("orch", SimDuration::ZERO, 0, false, l_orch);
        let w_root = b.add_library_module("worker", SimDuration::ZERO, 0, false, l_w);
        let w_sub = b.add_library_module("worker.sub", SimDuration::ZERO, 0, false, l_w);
        b.add_import(h, orch, 2, ImportMode::Global).unwrap();
        b.add_import(h, w_root, 3, ImportMode::Global).unwrap();
        b.add_import(w_root, w_sub, 2, ImportMode::Global).unwrap();
        let f_w = b.add_function("crunch", w_sub, 5, vec![]);
        let f_o = b.add_function("orchestrate", orch, 5, vec![]);
        let f_h = b.add_function("main", h, 4, vec![]);
        b.add_handler("main", f_h);
        let path = vec![
            Frame {
                kind: FrameKind::Call(f_h),
                line: 5,
            },
            Frame {
                kind: FrameKind::Call(f_o),
                line: 6,
            },
            Frame {
                kind: FrameKind::Call(f_w),
                line: 6,
            },
        ];
        (b.finish().unwrap(), path)
    }

    fn sample(path: Vec<Frame>, is_init: bool) -> (Vec<Frame>, bool) {
        (path, is_init)
    }

    /// Utilization of `samples`, interned into one table.
    fn utilization(samples: &[(Vec<Frame>, bool)], app: &Application) -> Utilization {
        let mut paths = PathTable::new();
        let records: Vec<SampleRecord> = samples
            .iter()
            .map(|(path, is_init)| SampleRecord {
                path: paths.intern(path),
                is_init: *is_init,
            })
            .collect();
        Utilization::from_samples(&paths, &records, app)
    }

    #[test]
    fn orchestrator_gets_path_inclusive_credit() {
        let (app, path) = app();
        // 10 samples all landing in worker.sub, via orch.
        let samples: Vec<_> = (0..10).map(|_| sample(path.clone(), false)).collect();
        let u = utilization(&samples, &app);
        assert_eq!(u.total_runtime_samples, 10);
        // Both libraries fully utilized thanks to escalation.
        assert!((u.library(LibraryId::from_index(0)) - 1.0).abs() < 1e-12);
        assert!((u.library(LibraryId::from_index(1)) - 1.0).abs() < 1e-12);
        assert!((u.package("worker.sub") - 1.0).abs() < 1e-12);
    }

    #[test]
    fn init_samples_are_excluded() {
        let (app, path) = app();
        let samples = vec![
            sample(path.clone(), true),
            sample(path.clone(), true),
            sample(path, false),
        ];
        let u = utilization(&samples, &app);
        assert_eq!(u.total_runtime_samples, 1);
        assert!((u.library(LibraryId::from_index(1)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unsampled_library_has_zero_utilization() {
        let (app, _) = app();
        let u = utilization(&[], &app);
        assert_eq!(u.total_runtime_samples, 0);
        assert_eq!(u.library(LibraryId::from_index(0)), 0.0);
        assert_eq!(u.package("worker"), 0.0);
        assert_eq!(u.package("unheard.of"), 0.0);
    }

    #[test]
    fn partial_utilization_fractions() {
        let (app, path) = app();
        // 1 of 4 runtime samples touches the libraries; 3 are handler-only.
        let handler_only = vec![path[0]];
        let samples = vec![
            sample(path.clone(), false),
            sample(handler_only.clone(), false),
            sample(handler_only.clone(), false),
            sample(handler_only, false),
        ];
        let u = utilization(&samples, &app);
        assert!((u.library(LibraryId::from_index(1)) - 0.25).abs() < 1e-12);
        assert!((u.package("worker") - 0.25).abs() < 1e-12);
    }

    #[test]
    fn package_prefixes_all_credited() {
        let (app, path) = app();
        let samples = vec![sample(path, false)];
        let u = utilization(&samples, &app);
        // Leaf frame in worker.sub credits both `worker` and `worker.sub`.
        assert_eq!(u.package("worker"), 1.0);
        assert_eq!(u.package("worker.sub"), 1.0);
    }
}
