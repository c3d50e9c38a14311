//! Eviction-order determinism for the budgeted [`SnapshotStore`].
//!
//! The store's cost-aware eviction picks victims through a *total* order —
//! rebuild-cost-per-byte score, then sim-clock LRU, then the snapshot key —
//! so the victim can never depend on `HashMap` iteration order, allocator
//! state, or anything else that varies between runs. This property test
//! drives a seeded op sequence (inserts across fingerprint generations,
//! LRU-touching lookups, and interleaved redeploy invalidations) against
//! `SnapshotStore::with_limits` twice with the same seed and requires the
//! full observable trace — hit/miss outcomes, eviction counts, occupancy,
//! and resident bytes after every op — to match exactly. A diverging trace
//! means eviction picked different victims, which would leak scheduling
//! nondeterminism into every fleet report built on the node pool.

use slimstart::pyrt::snapshot::{SnapLoad, Snapshot, SnapshotKey, SnapshotStore};
use slimstart::simcore::{SimDuration, SimRng, SimTime};
use slimstart_appmodel::ModuleId;

/// One observable store state, recorded after every operation.
#[derive(Debug, PartialEq, Eq)]
struct TracePoint {
    op: String,
    hits: u64,
    misses: u64,
    evictions: u64,
    entries: usize,
    resident_bytes: u64,
}

fn synthetic_snapshot(rng: &mut SimRng) -> Snapshot {
    // 1-4 loads over a 64-module space; sizes and costs vary so the
    // cost-per-byte eviction score actually discriminates between entries.
    let n = 1 + rng.next_below(4);
    let loads: std::sync::Arc<[SnapLoad]> = (0..n)
        .map(|_| SnapLoad {
            module: ModuleId::from_index(rng.next_below(64)),
            init_cost: SimDuration::from_micros(50 + rng.next_below(5000) as u64),
            mem_kb: 64 + rng.next_below(2048) as u64,
        })
        .collect();
    let mut loaded = [0u64; 1];
    for load in loads.iter() {
        loaded[0] |= 1 << load.module.index();
    }
    Snapshot {
        loaded: Box::new(loaded),
        nominal_init: loads.iter().map(|l| l.init_cost).sum(),
        mem_kb: loads.iter().map(|l| l.mem_kb).sum(),
        working: None,
        loads,
    }
}

/// Runs the seeded op mix against a fresh budgeted store and returns the
/// per-op observable trace.
fn run_trace(seed: u64) -> Vec<TracePoint> {
    const GENERATIONS: [u64; 3] = [0xAAAA, 0xBBBB, 0xCCCC];
    // Tight budget relative to the ~0.1-2 MiB snapshots above, so budget
    // eviction fires constantly, not just at the margins.
    let store = SnapshotStore::with_limits(Some(4 * 1024 * 1024), true);
    let mut rng = SimRng::seed_from(seed);
    let mut inserted: Vec<SnapshotKey> = Vec::new();
    let mut trace = Vec::new();
    for step in 0..400u64 {
        let now = SimTime::default() + SimDuration::from_micros(step * 1_000);
        let op = match rng.next_below(10) {
            // Inserts dominate so the store keeps refilling after each
            // invalidation wave.
            0..=5 => {
                let fingerprint = *rng.pick(&GENERATIONS);
                let key = SnapshotKey::new(ModuleId::from_index(rng.next_below(64)), fingerprint);
                store.insert(key, synthetic_snapshot(&mut rng), now);
                inserted.push(key);
                format!("insert {}/{:x}", key.root.index(), fingerprint)
            }
            6..=8 if !inserted.is_empty() => {
                let key = *rng.pick(&inserted);
                let hit = store.get(&key, now).is_some();
                format!("get {}/{:x} -> {hit}", key.root.index(), key.fingerprint)
            }
            _ => {
                // Redeploy: one generation survives, the rest are evicted.
                let fingerprint = *rng.pick(&GENERATIONS);
                let evicted = store.invalidate_stale(fingerprint);
                format!("invalidate != {fingerprint:x} -> {evicted}")
            }
        };
        trace.push(TracePoint {
            op,
            hits: store.hits(),
            misses: store.misses(),
            evictions: store.evictions(),
            entries: store.len(),
            resident_bytes: store.resident_bytes(),
        });
    }
    trace
}

#[test]
fn same_seed_runs_evict_in_the_same_order() {
    let first = run_trace(2025);
    let second = run_trace(2025);
    assert_eq!(first.len(), second.len());
    for (i, (a, b)) in first.iter().zip(second.iter()).enumerate() {
        assert_eq!(a, b, "trace diverged at op {i}");
    }
    // The sequence must actually exercise the machinery it pins down.
    let last = first.last().expect("non-empty trace");
    assert!(last.evictions > 0, "no evictions happened");
    assert!(last.hits > 0 && last.misses > 0, "lookups never split");
    assert!(
        first.iter().any(|p| p.op.starts_with("invalidate")),
        "no redeploy invalidation ran"
    );
    assert!(
        last.resident_bytes <= 4 * 1024 * 1024,
        "budget exceeded: {} bytes resident",
        last.resident_bytes
    );
}

#[test]
fn different_seeds_produce_different_traces() {
    // Sanity check on the harness itself: if every seed yielded the same
    // trace the determinism assertion above would be vacuous.
    assert_ne!(run_trace(2025), run_trace(31));
}
