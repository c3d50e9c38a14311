//! Profiling history: multiple collection windows over time.
//!
//! The paper's empirical study (§II-B) profiles deployed applications "over
//! a period of 1 week" and its adaptive mechanism re-profiles as workloads
//! evolve. [`ProfileHistory`] keeps each profiling window's
//! [`ProfileStore`] separately and offers the merged view the detector
//! consumes for maximum statistical confidence (the law-of-large-numbers
//! argument needs all samples).

use crate::cct::Cct;
use crate::profile::ProfileStore;

/// One retained profiling window.
#[derive(Debug, Clone)]
pub struct ProfileWindow {
    /// Human-readable label (e.g. `"day-3"`, `"post-deploy"`).
    pub label: String,
    /// The collected data.
    pub store: ProfileStore,
}

/// An ordered sequence of profiling windows.
#[derive(Debug, Clone, Default)]
pub struct ProfileHistory {
    windows: Vec<ProfileWindow>,
}

impl ProfileHistory {
    /// Creates an empty history.
    pub fn new() -> Self {
        ProfileHistory::default()
    }

    /// Appends a completed window.
    pub fn push(&mut self, label: impl Into<String>, store: ProfileStore) {
        self.windows.push(ProfileWindow {
            label: label.into(),
            store,
        });
    }

    /// The retained windows, oldest first.
    pub fn windows(&self) -> &[ProfileWindow] {
        &self.windows
    }

    /// Number of retained windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Whether no windows have been retained.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// All windows merged into one store — what the detector consumes when
    /// it wants the full week of evidence.
    pub fn merged(&self) -> ProfileStore {
        let mut merged = ProfileStore::default();
        for w in &self.windows {
            merged.absorb(
                &w.store.paths,
                &w.store.samples,
                w.store
                    .init_micros_by_module
                    .iter()
                    .map(|(&module, &micros)| (module, micros)),
                w.store.batches_transferred,
            );
            merged.invocations += w.store.invocations;
        }
        merged
    }

    /// A CCT over every retained sample: each window's store folded into
    /// one tree in turn.
    pub fn merged_cct(&self) -> Cct {
        let mut cct = Cct::new();
        for w in &self.windows {
            cct.add_samples(&w.store.paths, &w.store.samples);
        }
        cct
    }
}

impl Extend<ProfileWindow> for ProfileHistory {
    fn extend<I: IntoIterator<Item = ProfileWindow>>(&mut self, iter: I) {
        self.windows.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimstart_appmodel::app::AppBuilder;
    use slimstart_appmodel::{Application, FunctionId, ImportMode};
    use slimstart_pyrt::stack::{Frame, FrameKind};
    use slimstart_simcore::time::SimDuration;

    use crate::profile::SampleRecord;

    /// handler + one library function; utilization is driven by which
    /// fraction of samples touch the library.
    fn app() -> (Application, FunctionId, FunctionId) {
        let mut b = AppBuilder::new("t");
        let lib = b.add_library("lib");
        let hm = b.add_app_module("handler", SimDuration::ZERO, 0);
        let lm = b.add_library_module("lib", SimDuration::ZERO, 0, false, lib);
        b.add_import(hm, lm, 2, ImportMode::Global).unwrap();
        let f_lib = b.add_function("f", lm, 1, vec![]);
        let f_main = b.add_function("main", hm, 1, vec![]);
        b.add_handler("main", f_main);
        (b.finish().unwrap(), f_main, f_lib)
    }

    fn store_with(
        lib_samples: usize,
        app_samples: usize,
        f_main: FunctionId,
        f_lib: FunctionId,
    ) -> ProfileStore {
        let mut store = ProfileStore::default();
        let frame = |f: FunctionId| Frame {
            kind: FrameKind::Call(f),
            line: 1,
        };
        let in_lib = store.paths.intern(&[frame(f_main), frame(f_lib)]);
        let in_app = store.paths.intern(&[frame(f_main)]);
        for _ in 0..lib_samples {
            store.samples.push(SampleRecord {
                path: in_lib,
                is_init: false,
            });
        }
        for _ in 0..app_samples {
            store.samples.push(SampleRecord {
                path: in_app,
                is_init: false,
            });
        }
        store.invocations = (lib_samples + app_samples) as u64;
        store
    }

    #[test]
    fn merged_accumulates_all_windows() {
        let (_, f_main, f_lib) = app();
        let mut h = ProfileHistory::new();
        h.push("day-1", store_with(5, 5, f_main, f_lib));
        h.push("day-2", store_with(3, 7, f_main, f_lib));
        assert_eq!(h.len(), 2);
        let merged = h.merged();
        assert_eq!(merged.samples.len(), 20);
        assert_eq!(merged.invocations, 20);
        assert_eq!(h.merged_cct().total_samples(), 20);
    }

    #[test]
    fn empty_history_behaviour() {
        let h = ProfileHistory::new();
        assert!(h.is_empty());
        assert_eq!(h.merged().samples.len(), 0);
    }
}
