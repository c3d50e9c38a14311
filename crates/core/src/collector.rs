//! The asynchronous profile collector (paper §IV-D).
//!
//! "Profiling data is collected locally and batch-transferred asynchronously
//! to external storage services, such as AWS DynamoDB or S3 [...] Once the
//! data is collected, SLIMSTART runs a background service to perform the
//! analysis."
//!
//! [`AsyncCollector`] is that background service: a real OS thread draining
//! a standard-library channel of [`ProfileBatch`] wire
//! payloads, decoding them, and folding them into a [`ProfileStore`]. The
//! function side only pays the (simulated) hand-off cost; decoding happens
//! off the critical path, exactly like the paper's design. The collector
//! also tracks total bytes transferred, which the experiment harness can
//! report.

use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::profile::{lock, ProfileStore};
use crate::wire::{ProfileBatch, WireError};

/// A handle for submitting encoded batches to the collector.
#[derive(Debug, Clone)]
pub struct BatchSender {
    tx: Sender<Vec<u8>>,
}

impl BatchSender {
    /// Submits one encoded batch. Returns the payload size in bytes.
    ///
    /// Submissions after [`AsyncCollector::finish`] are dropped silently
    /// (the collector has left), mirroring fire-and-forget uploads.
    pub fn send(&self, payload: Vec<u8>) -> usize {
        if payload.is_empty() {
            return 0; // reserved as the shutdown sentinel
        }
        let len = payload.len();
        let _ = self.tx.send(payload);
        len
    }

    /// Encodes and submits a batch, returning the wire size.
    pub fn send_batch(&self, batch: &ProfileBatch) -> usize {
        self.send(batch.encode())
    }
}

/// Statistics accumulated by the collector.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectorStats {
    /// Batches successfully decoded.
    pub batches: u64,
    /// Total wire bytes received.
    pub bytes: u64,
    /// Batches rejected as malformed.
    pub decode_errors: u64,
}

/// A background service that decodes profile batches into a store.
pub struct AsyncCollector {
    store: Arc<Mutex<ProfileStore>>,
    stats: Arc<Mutex<CollectorStats>>,
    tx: Option<Sender<Vec<u8>>>,
    worker: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for AsyncCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncCollector")
            .field("stats", &*lock(&self.stats))
            .field("running", &self.worker.is_some())
            .finish()
    }
}

impl AsyncCollector {
    /// Spawns the collector thread writing into a fresh store.
    pub fn start() -> AsyncCollector {
        let store = ProfileStore::shared();
        AsyncCollector::start_with_store(store)
    }

    /// Spawns the collector thread writing into an existing store.
    pub fn start_with_store(store: Arc<Mutex<ProfileStore>>) -> AsyncCollector {
        let (tx, rx) = channel::<Vec<u8>>();
        let stats = Arc::new(Mutex::new(CollectorStats::default()));
        let store_for_worker = Arc::clone(&store);
        let stats_for_worker = Arc::clone(&stats);
        let worker = std::thread::Builder::new()
            .name("slimstart-collector".to_string())
            .spawn(move || {
                for payload in rx {
                    // Zero-length payload is the shutdown sentinel (real
                    // batches are at least 12 bytes): outstanding
                    // BatchSender clones must not keep the worker alive.
                    if payload.is_empty() {
                        break;
                    }
                    let len = payload.len() as u64;
                    match ProfileBatch::decode(&payload) {
                        Ok(batch) => {
                            let mut store = lock(&store_for_worker);
                            store.absorb(&batch.paths, &batch.samples, batch.init_micros, 1);
                            let mut stats = lock(&stats_for_worker);
                            stats.batches += 1;
                            stats.bytes += len;
                        }
                        Err(_e @ WireError::BadMagic)
                        | Err(_e @ WireError::Truncated)
                        | Err(_e @ WireError::BadFrameKind(_)) => {
                            lock(&stats_for_worker).decode_errors += 1;
                        }
                    }
                }
            })
            .expect("collector thread spawns");
        AsyncCollector {
            store,
            stats,
            tx: Some(tx),
            worker: Some(worker),
        }
    }

    /// A cloneable submission handle for sampler attachments.
    ///
    /// # Panics
    ///
    /// Panics if called after [`AsyncCollector::finish`].
    pub fn sender(&self) -> BatchSender {
        BatchSender {
            tx: self.tx.as_ref().expect("collector still running").clone(),
        }
    }

    /// Shared handle to the store the collector fills.
    pub fn store(&self) -> Arc<Mutex<ProfileStore>> {
        Arc::clone(&self.store)
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> CollectorStats {
        *lock(&self.stats)
    }

    /// Signals shutdown, waits for the worker to drain everything queued
    /// before the signal, and returns the final statistics. Idempotent.
    ///
    /// Shutdown uses an in-band sentinel rather than channel closure so
    /// that outstanding [`BatchSender`] clones (held by still-warm
    /// containers) cannot stall the join.
    pub fn finish(&mut self) -> CollectorStats {
        if let Some(tx) = self.tx.take() {
            let _ = tx.send(Vec::new()); // shutdown sentinel
        }
        if let Some(worker) = self.worker.take() {
            worker.join().expect("collector thread exits cleanly");
        }
        self.stats()
    }
}

impl Drop for AsyncCollector {
    fn drop(&mut self) {
        // Non-blocking teardown guarantee (C-DTOR-BLOCK): `finish` is the
        // blocking API; Drop only signals shutdown and detaches.
        if let Some(tx) = self.tx.take() {
            let _ = tx.send(Vec::new());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimstart_appmodel::{FunctionId, ModuleId};
    use slimstart_pyrt::stack::{Frame, FrameKind};

    use crate::profile::{PathTable, SampleRecord};
    use slimstart_simcore::hash::FxHashMap;

    fn frame(i: usize) -> Frame {
        Frame {
            kind: FrameKind::Call(FunctionId::from_index(i)),
            line: 7,
        }
    }

    /// A batch of one sample in function `i`.
    fn batch(i: usize, init_micros: FxHashMap<ModuleId, u64>) -> ProfileBatch {
        let mut paths = PathTable::new();
        ProfileBatch {
            samples: vec![SampleRecord {
                path: paths.intern(&[frame(i)]),
                is_init: false,
            }],
            paths,
            init_micros,
        }
    }

    #[test]
    fn batches_arrive_in_the_store() {
        let mut collector = AsyncCollector::start();
        let sender = collector.sender();
        let mut init = FxHashMap::default();
        init.insert(ModuleId::from_index(4), 2_000u64);
        for i in 0..5 {
            let n = sender.send_batch(&batch(i % 3, init.clone()));
            assert!(n > 0);
        }
        let stats = collector.finish();
        assert_eq!(stats.batches, 5);
        assert_eq!(stats.decode_errors, 0);
        assert!(stats.bytes > 0);
        let store = collector.store();
        let store = lock(&store);
        assert_eq!(store.samples.len(), 5);
        // Each batch's table is absorbed into the store's: three paths.
        assert_eq!(store.paths.len(), 4);
        let leaves: Vec<_> = store
            .samples
            .iter()
            .map(|s| store.paths.frames(s.path))
            .collect();
        let expected: Vec<_> = (0..5).map(|i| vec![frame(i % 3)]).collect();
        assert_eq!(leaves, expected);
        assert_eq!(
            store.init_time(ModuleId::from_index(4)),
            slimstart_simcore::time::SimDuration::from_micros(10_000)
        );
    }

    #[test]
    fn malformed_payloads_are_counted_not_fatal() {
        let mut collector = AsyncCollector::start();
        let sender = collector.sender();
        sender.send(b"garbage".to_vec());
        sender.send_batch(&batch(0, FxHashMap::default()));
        let stats = collector.finish();
        assert_eq!(stats.decode_errors, 1);
        assert_eq!(stats.batches, 1);
        assert_eq!(lock(&collector.store()).samples.len(), 1);
    }

    #[test]
    fn finish_is_idempotent() {
        let mut collector = AsyncCollector::start();
        let a = collector.finish();
        let b = collector.finish();
        assert_eq!(a, b);
    }

    #[test]
    fn senders_survive_collector_shutdown() {
        let mut collector = AsyncCollector::start();
        let sender = collector.sender();
        collector.finish();
        // Fire-and-forget: no panic, payload silently dropped.
        sender.send(b"late".to_vec());
    }

    #[test]
    fn start_with_existing_store_appends() {
        let store = ProfileStore::shared();
        lock(&store).invocations = 7;
        let mut collector = AsyncCollector::start_with_store(Arc::clone(&store));
        collector
            .sender()
            .send_batch(&batch(1, FxHashMap::default()));
        collector.finish();
        let store = lock(&store);
        assert_eq!(store.invocations, 7);
        assert_eq!(store.samples.len(), 1);
    }
}
