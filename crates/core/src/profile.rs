//! Profile data: samples, per-module init observations, and the shared
//! collector store.
//!
//! The paper's profiler buffers samples locally inside the function instance
//! and batch-transfers them asynchronously to external storage (DynamoDB /
//! S3), where a background service analyzes them (§IV-D). [`ProfileStore`]
//! plays the external collector: sampler attachments in every container push
//! their buffers into one shared store, and the analysis side reads it once
//! the profiling window closes.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use slimstart_appmodel::ModuleId;
use slimstart_pyrt::stack::Frame;
use slimstart_simcore::time::SimDuration;

/// One captured stack sample.
///
/// The path is a shared `Arc<[Frame]>`: repeated identical stacks (the
/// common case — long module inits and hot loops sampled many times) all
/// point at one allocation, cloned by reference count instead of by
/// copying frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleRecord {
    /// The call path, outermost frame first.
    pub path: Arc<[Frame]>,
    /// Whether the stack contained a module-init frame (the sample belongs
    /// to the initialization phase, not runtime — paper §IV-A2).
    pub is_init: bool,
}

impl SampleRecord {
    /// The innermost (sampled) frame.
    ///
    /// # Panics
    ///
    /// Panics if the path is empty (samples are only taken under live
    /// frames).
    pub fn leaf(&self) -> &Frame {
        self.path.last().expect("sample path is never empty")
    }
}

/// A maximal run of consecutive samples that share one path allocation.
pub(crate) struct PathRun<'a> {
    /// The run's call path.
    pub(crate) path: &'a [Frame],
    /// Samples in the run.
    pub(crate) samples: u64,
    /// Of those, samples taken during module initialization.
    pub(crate) init_samples: u64,
}

/// Groups `samples` into [`PathRun`]s, so an analysis can walk each
/// repeated stack once and weigh it by the run's length.
///
/// Runs are detected with [`Arc::ptr_eq`]. Every sample stays borrowed for
/// the whole pass, so no path allocation is freed and reused while the
/// iterator runs: two equal pointers always mean one path. Equal paths in
/// different allocations start separate runs, which costs only speed.
pub(crate) fn path_runs<'a, I>(samples: I) -> impl Iterator<Item = PathRun<'a>>
where
    I: IntoIterator<Item = &'a SampleRecord>,
{
    let mut samples = samples.into_iter().peekable();
    std::iter::from_fn(move || {
        let first = samples.next()?;
        let mut run = PathRun {
            path: &first.path,
            samples: 1,
            init_samples: u64::from(first.is_init),
        };
        while let Some(next) = samples.next_if(|s| Arc::ptr_eq(&s.path, &first.path)) {
            run.samples += 1;
            run.init_samples += u64::from(next.is_init);
        }
        Some(run)
    })
}

/// The collector: aggregated profiling data for one application deployment.
#[derive(Debug, Clone, Default)]
pub struct ProfileStore {
    /// All transferred samples.
    pub samples: Vec<SampleRecord>,
    /// Exact per-module initialization time observed, accumulated across
    /// all cold starts (microseconds).
    pub init_micros_by_module: HashMap<ModuleId, u64>,
    /// Number of completed invocations observed.
    pub invocations: u64,
    /// Number of batches transferred (each paid the flush cost).
    pub batches_transferred: u64,
}

impl ProfileStore {
    /// Creates an empty store behind the shared handle sampler attachments
    /// need.
    pub fn shared() -> Arc<Mutex<ProfileStore>> {
        Arc::new(Mutex::new(ProfileStore::default()))
    }

    /// Total observed init time for `module` across all cold starts.
    pub fn init_time(&self, module: ModuleId) -> SimDuration {
        SimDuration::from_micros(
            self.init_micros_by_module
                .get(&module)
                .copied()
                .unwrap_or(0),
        )
    }

    /// Number of samples classified as runtime (non-init).
    pub fn runtime_sample_count(&self) -> u64 {
        self.samples.iter().filter(|s| !s.is_init).count() as u64
    }

    /// Number of samples classified as initialization.
    pub fn init_sample_count(&self) -> u64 {
        self.samples.iter().filter(|s| s.is_init).count() as u64
    }

    /// Merges a sampler attachment's local state into the store: its
    /// samples, its per-module init microseconds and its batch count.
    pub fn absorb(
        &mut self,
        samples: Vec<SampleRecord>,
        init_micros: impl IntoIterator<Item = (ModuleId, u64)>,
        batches: u64,
    ) {
        self.samples.extend(samples);
        for (module, micros) in init_micros {
            *self.init_micros_by_module.entry(module).or_insert(0) += micros;
        }
        self.batches_transferred += batches;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimstart_appmodel::FunctionId;
    use slimstart_pyrt::stack::FrameKind;

    fn frame(i: usize) -> Frame {
        Frame {
            kind: FrameKind::Call(FunctionId::from_index(i)),
            line: 1,
        }
    }

    #[test]
    fn leaf_is_innermost() {
        let s = SampleRecord {
            path: vec![frame(0), frame(1)].into(),
            is_init: false,
        };
        assert_eq!(s.leaf(), &frame(1));
    }

    #[test]
    fn path_runs_group_consecutive_shared_paths() {
        let a: Arc<[Frame]> = vec![frame(0)].into();
        let b: Arc<[Frame]> = vec![frame(1)].into();
        // Same frames as `a`, different allocation.
        let a_copy: Arc<[Frame]> = vec![frame(0)].into();
        let record = |path: &Arc<[Frame]>, is_init| SampleRecord {
            path: Arc::clone(path),
            is_init,
        };
        let samples = vec![
            record(&a, false),
            record(&a, true),
            record(&a, false),
            record(&b, false),
            record(&a, false),
            record(&a_copy, true),
        ];
        let runs: Vec<(Vec<Frame>, u64, u64)> = path_runs(&samples)
            .map(|r| (r.path.to_vec(), r.samples, r.init_samples))
            .collect();
        assert_eq!(
            runs,
            vec![
                (vec![frame(0)], 3, 1),
                (vec![frame(1)], 1, 0),
                (vec![frame(0)], 1, 0),
                (vec![frame(0)], 1, 1),
            ]
        );
        assert_eq!(path_runs(&[]).count(), 0);
    }

    #[test]
    fn absorb_accumulates() {
        let mut store = ProfileStore::default();
        let mut init = HashMap::new();
        init.insert(ModuleId::from_index(0), 500u64);
        store.absorb(
            vec![SampleRecord {
                path: vec![frame(0)].into(),
                is_init: true,
            }],
            init.clone(),
            1,
        );
        store.absorb(
            vec![SampleRecord {
                path: vec![frame(1)].into(),
                is_init: false,
            }],
            init,
            2,
        );
        assert_eq!(store.samples.len(), 2);
        assert_eq!(
            store.init_time(ModuleId::from_index(0)),
            SimDuration::from_micros(1_000)
        );
        assert_eq!(store.init_time(ModuleId::from_index(9)), SimDuration::ZERO);
        assert_eq!(store.batches_transferred, 3);
        assert_eq!(store.runtime_sample_count(), 1);
        assert_eq!(store.init_sample_count(), 1);
    }

    #[test]
    fn shared_handle_is_usable_across_clones() {
        let store = ProfileStore::shared();
        let clone = Arc::clone(&store);
        clone.lock().invocations += 1;
        assert_eq!(store.lock().invocations, 1);
    }
}
