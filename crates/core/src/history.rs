//! Profiling history: multiple collection windows over time.
//!
//! The paper's empirical study (§II-B) profiles deployed applications "over
//! a period of 1 week" and its adaptive mechanism re-profiles as workloads
//! evolve. [`ProfileHistory`] keeps each profiling window's
//! [`ProfileStore`] separately so analyses can look at trends — is a
//! package's utilization rising? — while still offering the merged view the
//! detector consumes for maximum statistical confidence (the
//! law-of-large-numbers argument needs all samples).

use slimstart_appmodel::Application;

use crate::cct::Cct;
use crate::profile::ProfileStore;
use crate::utilization::Utilization;

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

    /// Drops all but the most recent `keep` windows (bounded retention for
    /// long-running deployments).
    pub fn truncate_to_recent(&mut self, keep: usize) {
        if self.windows.len() > keep {
            self.windows.drain(..self.windows.len() - keep);
        }
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

    /// Per-window utilization of one package — the trend the adaptive
    /// mechanism's triggers correspond to.
    pub fn utilization_trend(&self, app: &Application, package: &str) -> Vec<f64> {
        self.windows
            .iter()
            .map(|w| {
                Utilization::from_samples(&w.store.paths, &w.store.samples, app).package(package)
            })
            .collect()
    }

    /// Whether `package`'s utilization crossed `threshold` between the first
    /// and last window, in either direction — a cheap staleness probe for
    /// deployed optimizations.
    pub fn crossed_threshold(&self, app: &Application, package: &str, threshold: f64) -> bool {
        let trend = self.utilization_trend(app, package);
        match (trend.first(), trend.last()) {
            (Some(first), Some(last)) => (first < &threshold) != (last < &threshold),
            _ => false,
        }
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
    use slimstart_appmodel::{FunctionId, ImportMode};
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
    fn utilization_trend_tracks_drift() {
        let (app, f_main, f_lib) = app();
        let mut h = ProfileHistory::new();
        h.push("w0", store_with(8, 2, f_main, f_lib)); // 80 % lib use
        h.push("w1", store_with(4, 6, f_main, f_lib)); // 40 %
        h.push("w2", store_with(0, 10, f_main, f_lib)); // dead
        let trend = h.utilization_trend(&app, "lib");
        assert_eq!(trend.len(), 3);
        assert!((trend[0] - 0.8).abs() < 1e-12);
        assert!((trend[1] - 0.4).abs() < 1e-12);
        assert_eq!(trend[2], 0.0);
    }

    #[test]
    fn threshold_crossing_detects_both_directions() {
        let (app, f_main, f_lib) = app();
        let mut dying = ProfileHistory::new();
        dying.push("w0", store_with(8, 2, f_main, f_lib));
        dying.push("w1", store_with(0, 10, f_main, f_lib));
        assert!(dying.crossed_threshold(&app, "lib", 0.02));

        let mut waking = ProfileHistory::new();
        waking.push("w0", store_with(0, 10, f_main, f_lib));
        waking.push("w1", store_with(8, 2, f_main, f_lib));
        assert!(waking.crossed_threshold(&app, "lib", 0.02));

        let mut stable = ProfileHistory::new();
        stable.push("w0", store_with(8, 2, f_main, f_lib));
        stable.push("w1", store_with(7, 3, f_main, f_lib));
        assert!(!stable.crossed_threshold(&app, "lib", 0.02));
    }

    #[test]
    fn retention_keeps_most_recent() {
        let (_, f_main, f_lib) = app();
        let mut h = ProfileHistory::new();
        for i in 0..5 {
            h.push(format!("w{i}"), store_with(i, 1, f_main, f_lib));
        }
        h.truncate_to_recent(2);
        assert_eq!(h.len(), 2);
        assert_eq!(h.windows()[0].label, "w3");
        assert_eq!(h.windows()[1].label, "w4");
        // Truncating to more than we have is a no-op.
        h.truncate_to_recent(10);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn empty_history_behaviour() {
        let (app, _, _) = app();
        let h = ProfileHistory::new();
        assert!(h.is_empty());
        assert_eq!(h.merged().samples.len(), 0);
        assert!(h.utilization_trend(&app, "lib").is_empty());
        assert!(!h.crossed_threshold(&app, "lib", 0.02));
    }
}
