//! Cold-start snapshots: memoized init replays with working-set restores
//! and byte-accounted capacity limits.
//!
//! The cost model makes every cold start of a deployment a deterministic
//! replay of the same transitive import sequence — the loader plan walk,
//! the per-module init charges, the memory growth. A [`Snapshot`] captures
//! the complete outcome of one such replay (load order, per-module raw
//! init charges and memory, the resulting module-cache bitset) so the
//! second and later cold starts of the same deployment restore it in
//! O(modules) straight-line work instead of re-walking the plan.
//!
//! Two refinements sit on top of the PR 5 full-stream design:
//!
//! * **Working sets (REAP-style).** After an invocation has run, a store
//!   created in lazy-restore mode records which modules the handler
//!   actually touched and refines the stored snapshot with that bitmap
//!   ([`SnapshotStore::refine`]). Restores then replay only the working
//!   set eagerly ([`crate::process::Process::restore_snapshot_lazy`]);
//!   everything else faults in on first import through the ordinary
//!   deferred-load path, paying its real init cost through the same
//!   per-load `mul_f64(time_scale)` rounding. Unrefined snapshots (no
//!   invocation observed yet, or a full-stream store) always restore the
//!   full stream.
//! * **Byte-accounted budgets.** A store built with
//!   [`SnapshotStore::with_limits`] tracks the modeled resident bytes of
//!   every entry (the memory a restore of it would map in) and evicts
//!   cost-ineffective entries whenever an insert or a working-set growth
//!   pushes it over budget. The eviction score is rebuild-cost saved per
//!   resident byte, compared exactly via cross-multiplication; ties fall
//!   back to least-recently-used on *sim-clock* timestamps (never
//!   wall-clock) and then to the entry key, so eviction order is a pure
//!   function of the store's operation sequence.
//!
//! A [`SnapshotStore`] keys snapshots by [`SnapshotKey`]: the entry module
//! plus a fingerprint over everything that shapes the replay — module
//! names, `stripped` flags, init costs, memory sizes, and the
//! eager-vs-deferred mode of every import. Redeploying an optimized
//! application misses the cache, and [`SnapshotStore::invalidate_stale`]
//! lets the platform evict the stale generation outright; the platform
//! additionally folds its chaos configuration into the fingerprint so
//! perturbed experiments never share entries with clean ones.
//!
//! Restores are byte-exact: one kernel behind
//! [`crate::process::Process::restore_snapshot`] and
//! [`crate::process::Process::restore_snapshot_lazy`] replays the selected
//! loads (the eager set plus any zygote-resident captured modules) in
//! capture order and re-applies the stored raw charges through the
//! restoring process's own `time_scale` with the same per-module rounding
//! the loader uses, so load events, clocks, and memory are identical to a
//! real replay at any jittered container speed. With a full working set
//! the lazy path is byte-identical to the full stream — the retained
//! differential oracle.
//! Snapshots are only taken from — and only restored into — unobserved
//! processes: a profiling deployment must run its observer callbacks for
//! real.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use slimstart_appmodel::{Application, ModuleId};
use slimstart_simcore::hash::FxHasher;
use slimstart_simcore::time::{SimDuration, SimTime};

/// Identifies one memoized cold-start outcome: the entry module plus a
/// fingerprint of the deployment (and any platform perturbation) it was
/// captured under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SnapshotKey {
    /// The handler's entry module the cold start began at.
    pub root: ModuleId,
    /// [`deployment_fingerprint`] of the application, optionally mixed
    /// with platform-level perturbation state via [`SnapshotKey::mix`].
    pub fingerprint: u64,
}

impl SnapshotKey {
    /// Creates a key for `root` under `fingerprint`.
    pub fn new(root: ModuleId, fingerprint: u64) -> SnapshotKey {
        SnapshotKey { root, fingerprint }
    }

    /// Folds extra perturbation state (e.g. a chaos-config hash) into the
    /// fingerprint. Mixing is order-sensitive and collision-resistant
    /// enough for cache keying (splitmix-style finalizer).
    pub fn mix(self, extra: u64) -> SnapshotKey {
        let mut z = self.fingerprint ^ extra.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        SnapshotKey {
            root: self.root,
            fingerprint: z ^ (z >> 31),
        }
    }
}

/// One module load in a captured init replay: the module plus its *raw*
/// (unscaled) charges, so a restore can re-apply them through any
/// container's `time_scale`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapLoad {
    /// The module that loaded.
    pub module: ModuleId,
    /// Its nominal top-level init cost (unscaled).
    pub init_cost: SimDuration,
    /// Its resident size, KiB.
    pub mem_kb: u64,
}

/// The memoized outcome of one cold-start replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Every load in replay order, with raw charges.
    pub loads: Box<[SnapLoad]>,
    /// The loaded-module bitset after the replay (one bit per module id).
    pub loaded: Box<[u64]>,
    /// Cumulative nominal (unscaled) init latency of the replay.
    pub nominal_init: SimDuration,
    /// The recorded working set (one bit per module id), a subset of
    /// `loaded`: the modules a handler invocation actually touched, closed
    /// under package ancestry. `None` means no invocation has refined this
    /// snapshot yet, so a restore must replay the full stream.
    pub working: Option<Box<[u64]>>,
}

#[inline]
fn bit_set(words: &[u64], index: usize) -> bool {
    words[index / 64] & (1u64 << (index % 64)) != 0
}

impl Snapshot {
    /// Whether `module` is in the recorded working set. Unrefined
    /// snapshots treat every loaded module as working.
    pub fn in_working_set(&self, module: ModuleId) -> bool {
        match &self.working {
            Some(w) => bit_set(w, module.index()),
            None => bit_set(&self.loaded, module.index()),
        }
    }

    /// Modeled bytes a restore of this snapshot maps in eagerly: the
    /// working-set loads when refined, every load otherwise.
    pub fn resident_bytes(&self) -> u64 {
        self.loads
            .iter()
            .filter(|l| self.in_working_set(l.module))
            .map(|l| l.mem_kb * 1024)
            .sum()
    }
}

/// Entry bookkeeping inside a [`SnapshotStore`].
#[derive(Debug)]
struct StoreEntry {
    snapshot: Arc<Snapshot>,
    /// Modeled eagerly-restored bytes ([`Snapshot::resident_bytes`]).
    bytes: u64,
    /// Rebuild cost this entry saves per hit, in nominal µs.
    cost_micros: u64,
    /// Sim-clock timestamp of the last hit/insert/refinement (LRU
    /// tiebreak; never wall-clock, so eviction stays deterministic).
    last_used: SimTime,
}

#[derive(Debug, Default)]
struct StoreInner {
    map: HashMap<SnapshotKey, StoreEntry>,
    resident_bytes: u64,
}

/// Lifetime counters of one [`SnapshotStore`], snapshotted atomically
/// enough for reporting (each field is individually consistent).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Restores served from the cache.
    pub hits: u64,
    /// Lookups that found no entry.
    pub misses: u64,
    /// Entries removed by budget pressure or fingerprint invalidation.
    pub evictions: u64,
    /// Module loads paid lazily because a working-set restore omitted
    /// them and the handler faulted them in on first use.
    pub faulted_loads: u64,
    /// Modeled bytes currently resident across all entries.
    pub resident_bytes: u64,
    /// Number of memoized snapshots currently held.
    pub entries: usize,
}

/// A concurrent map from [`SnapshotKey`] to captured [`Snapshot`]s, shared
/// behind an `Arc` by every container of a deployment (the platform) or of
/// an app's run set (the fleet orchestrator, which keeps one store — one
/// node-pool shard — per app so thread scheduling can never leak state
/// across apps).
#[derive(Debug, Default)]
pub struct SnapshotStore {
    inner: Mutex<StoreInner>,
    /// Byte budget; `None` = unlimited (the PR 5 behavior).
    budget_bytes: Option<u64>,
    /// Whether the platform records working sets into this store (and so
    /// whether restores from it may replay only the working set).
    lazy_restore: bool,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    faulted: AtomicU64,
}

impl SnapshotStore {
    /// Creates an empty, unlimited, full-stream store — byte-invisible
    /// PR 5 semantics, used by the platform/pipeline default.
    pub fn new() -> SnapshotStore {
        SnapshotStore::default()
    }

    /// The explicit constructor: `budget_bytes` caps the modeled resident
    /// bytes (`None` = unlimited), `lazy_restore` enables working-set
    /// refinement. This is what the fleet's node pool uses.
    pub fn with_limits(budget_bytes: Option<u64>, lazy_restore: bool) -> SnapshotStore {
        SnapshotStore {
            budget_bytes,
            lazy_restore,
            ..SnapshotStore::default()
        }
    }

    /// Whether this store records working sets, so restores from it
    /// replay only the working set.
    pub fn lazy_restore(&self) -> bool {
        self.lazy_restore
    }

    /// The byte budget, if any.
    pub fn budget_bytes(&self) -> Option<u64> {
        self.budget_bytes
    }

    /// Looks up a snapshot at sim-time `now`, counting a hit or miss and
    /// refreshing the entry's LRU timestamp on a hit.
    pub fn get(&self, key: &SnapshotKey, now: SimTime) -> Option<Arc<Snapshot>> {
        let mut inner = self.inner.lock().expect("snapshot store poisoned");
        match inner.map.get_mut(key) {
            Some(entry) => {
                if now > entry.last_used {
                    entry.last_used = now;
                }
                let snapshot = Arc::clone(&entry.snapshot);
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(snapshot)
            }
            None => {
                drop(inner);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or replaces) the snapshot for `key` at sim-time `now`,
    /// then evicts lowest-score entries until the store is back within
    /// budget. An entry that alone exceeds the budget is rejected outright
    /// (the returned handle is still usable for the current restore), so
    /// resident bytes can never exceed the budget.
    pub fn insert(&self, key: SnapshotKey, snapshot: Snapshot, now: SimTime) -> Arc<Snapshot> {
        let snapshot = Arc::new(snapshot);
        let bytes = snapshot.resident_bytes();
        if self.budget_bytes.is_some_and(|b| bytes > b) {
            return snapshot;
        }
        let cost_micros = snapshot.nominal_init.as_micros();
        let mut inner = self.inner.lock().expect("snapshot store poisoned");
        if let Some(old) = inner.map.insert(
            key,
            StoreEntry {
                snapshot: Arc::clone(&snapshot),
                bytes,
                cost_micros,
                last_used: now,
            },
        ) {
            inner.resident_bytes -= old.bytes;
        }
        inner.resident_bytes += bytes;
        self.evict_over_budget(&mut inner, &key);
        snapshot
    }

    /// Merges `working` (a bitset over module ids, already intersected
    /// with the snapshot's loaded set and closed under ancestry by the
    /// caller) into the stored working set for `key`. The first
    /// refinement replaces the implicit full working set; later ones
    /// union in, so the set only grows. A growth that pushes the store
    /// over budget triggers eviction of *other* entries.
    pub fn refine(&self, key: &SnapshotKey, working: &[u64], now: SimTime) {
        let mut inner = self.inner.lock().expect("snapshot store poisoned");
        let Some(entry) = inner.map.get_mut(key) else {
            return;
        };
        debug_assert_eq!(
            working.len(),
            entry.snapshot.loaded.len(),
            "working set from a different application shape"
        );
        debug_assert!(
            working
                .iter()
                .zip(entry.snapshot.loaded.iter())
                .all(|(w, l)| w & !l == 0),
            "working set not a subset of the snapshot's loaded set"
        );
        let merged: Box<[u64]> = match &entry.snapshot.working {
            Some(old) => {
                if old.iter().zip(working.iter()).all(|(o, w)| w & !o == 0) {
                    // No new bits: keep the existing Arc (the steady state
                    // after the working set stabilizes).
                    if now > entry.last_used {
                        entry.last_used = now;
                    }
                    return;
                }
                old.iter().zip(working.iter()).map(|(o, w)| o | w).collect()
            }
            None => working.to_vec().into_boxed_slice(),
        };
        let mut refined = (*entry.snapshot).clone();
        refined.working = Some(merged);
        let bytes = refined.resident_bytes();
        let old_bytes = entry.bytes;
        entry.snapshot = Arc::new(refined);
        entry.bytes = bytes;
        if now > entry.last_used {
            entry.last_used = now;
        }
        inner.resident_bytes = inner.resident_bytes - old_bytes + bytes;
        let key = *key;
        self.evict_over_budget(&mut inner, &key);
    }

    /// Evicts every entry whose key fingerprint differs from
    /// `fingerprint` — the redeploy-invalidation path: stale generations
    /// are removed from the pool, not merely missed. Returns how many
    /// entries were evicted.
    pub fn invalidate_stale(&self, fingerprint: u64) -> u64 {
        let mut inner = self.inner.lock().expect("snapshot store poisoned");
        let before = inner.map.len();
        let mut freed = 0u64;
        inner.map.retain(|key, entry| {
            let keep = key.fingerprint == fingerprint;
            if !keep {
                freed += entry.bytes;
            }
            keep
        });
        let evicted = (before - inner.map.len()) as u64;
        inner.resident_bytes -= freed;
        drop(inner);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        evicted
    }

    /// Records `n` lazily-faulted module loads (working-set misses paid
    /// by a handler at first use).
    pub fn record_faults(&self, n: u64) {
        if n > 0 {
            self.faulted.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Evicts lowest-score entries (never `keep`) until resident bytes
    /// fit the budget. Score = rebuild-cost saved ÷ resident bytes,
    /// compared exactly by cross-multiplication; ties evict the least
    /// recently used (sim-clock), then the smallest key.
    fn evict_over_budget(&self, inner: &mut StoreInner, keep: &SnapshotKey) {
        let Some(budget) = self.budget_bytes else {
            return;
        };
        while inner.resident_bytes > budget {
            let victim = inner
                .map
                .iter()
                .filter(|(key, _)| *key != keep)
                .min_by(|(ka, a), (kb, b)| {
                    let score_a = a.cost_micros as u128 * b.bytes as u128;
                    let score_b = b.cost_micros as u128 * a.bytes as u128;
                    score_a
                        .cmp(&score_b)
                        .then_with(|| a.last_used.cmp(&b.last_used))
                        .then_with(|| {
                            (ka.root.index(), ka.fingerprint)
                                .cmp(&(kb.root.index(), kb.fingerprint))
                        })
                })
                .map(|(key, _)| *key);
            let Some(victim) = victim else {
                // Only the just-touched entry remains; admission control
                // guarantees it fits on its own.
                break;
            };
            let entry = inner.map.remove(&victim).expect("victim vanished");
            inner.resident_bytes -= entry.bytes;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of memoized snapshots.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("snapshot store poisoned")
            .map
            .len()
    }

    /// Whether the store holds no snapshots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Modeled bytes currently resident across all entries.
    pub fn resident_bytes(&self) -> u64 {
        self.inner
            .lock()
            .expect("snapshot store poisoned")
            .resident_bytes
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted so far (budget pressure + invalidation).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Lazily-faulted module loads recorded so far.
    pub fn faulted_loads(&self) -> u64 {
        self.faulted.load(Ordering::Relaxed)
    }

    /// All lifetime counters plus current occupancy, for reports.
    pub fn stats(&self) -> SnapshotStats {
        let (resident_bytes, entries) = {
            let inner = self.inner.lock().expect("snapshot store poisoned");
            (inner.resident_bytes, inner.map.len())
        };
        SnapshotStats {
            hits: self.hits(),
            misses: self.misses(),
            evictions: self.evictions(),
            faulted_loads: self.faulted_loads(),
            resident_bytes,
            entries,
        }
    }
}

/// Fingerprints everything about `app` that shapes a cold-start replay:
/// module names, `stripped` flags, init costs, memory sizes, and each
/// import's target and eager-vs-deferred mode. Two application states with
/// equal fingerprints replay identically; any optimizer edit (deferring an
/// import, stripping a module) changes the fingerprint and invalidates
/// every snapshot captured before the redeploy.
pub fn deployment_fingerprint(app: &Application) -> u64 {
    let mut h = FxHasher::default();
    app.name().hash(&mut h);
    app.modules().len().hash(&mut h);
    for (i, module) in app.modules().iter().enumerate() {
        module.name().hash(&mut h);
        module.stripped().hash(&mut h);
        module.init_cost().as_micros().hash(&mut h);
        module.mem_kb().hash(&mut h);
        for decl in app.imports_of(ModuleId::from_index(i)) {
            decl.target.index().hash(&mut h);
            decl.mode.is_global().hash(&mut h);
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(loads: &[(usize, u64, u64)]) -> Snapshot {
        // (module index, init ms, mem kb) triples; bitset sized for 64.
        let loads: Box<[SnapLoad]> = loads
            .iter()
            .map(|&(i, ms, kb)| SnapLoad {
                module: ModuleId::from_index(i),
                init_cost: SimDuration::from_millis(ms),
                mem_kb: kb,
            })
            .collect();
        let mut loaded = [0u64];
        for l in loads.iter() {
            loaded[0] |= 1 << l.module.index();
        }
        let nominal_init = loads.iter().map(|l| l.init_cost).sum();
        Snapshot {
            loads,
            loaded: Box::new(loaded),
            nominal_init,
            working: None,
        }
    }

    fn at(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn mix_changes_fingerprint_and_keeps_root() {
        let key = SnapshotKey::new(ModuleId::from_index(3), 42);
        let mixed = key.mix(7);
        assert_eq!(mixed.root, key.root);
        assert_ne!(mixed.fingerprint, key.fingerprint);
        // Deterministic and sensitive to the extra value.
        assert_eq!(key.mix(7), key.mix(7));
        assert_ne!(key.mix(7), key.mix(8));
    }

    #[test]
    fn store_counts_hits_and_misses() {
        let store = SnapshotStore::new();
        let key = SnapshotKey::new(ModuleId::from_index(0), 1);
        assert!(store.get(&key, at(0)).is_none());
        assert_eq!((store.hits(), store.misses()), (0, 1));
        store.insert(key, snap(&[]), at(1));
        assert!(store.get(&key, at(2)).is_some());
        assert_eq!((store.hits(), store.misses()), (1, 1));
        assert_eq!(store.len(), 1);
        assert!(!store.is_empty());
    }

    #[test]
    fn unlimited_store_never_evicts() {
        let store = SnapshotStore::new();
        for i in 0..8 {
            store.insert(
                SnapshotKey::new(ModuleId::from_index(i), 1),
                snap(&[(i, 10, 1 << 20)]),
                at(i as u64),
            );
        }
        assert_eq!(store.len(), 8);
        assert_eq!(store.evictions(), 0);
        assert!(!store.lazy_restore());
        assert_eq!(store.budget_bytes(), None);
    }

    #[test]
    fn budget_evicts_lowest_score_first() {
        // 3000-byte budget; each entry is 1024 bytes. Entry 0 saves 1ms,
        // entry 1 saves 100ms, entry 2 saves 50ms. Inserting entry 3
        // (10ms) must evict entry 0: lowest cost per byte.
        let store = SnapshotStore::with_limits(Some(3 * 1024), false);
        for (i, ms) in [(0, 1), (1, 100), (2, 50)] {
            store.insert(
                SnapshotKey::new(ModuleId::from_index(i), 1),
                snap(&[(i, ms, 1)]),
                at(i as u64),
            );
        }
        assert_eq!(store.resident_bytes(), 3 * 1024);
        store.insert(
            SnapshotKey::new(ModuleId::from_index(3), 1),
            snap(&[(3, 10, 1)]),
            at(10),
        );
        assert_eq!(store.len(), 3);
        assert_eq!(store.evictions(), 1);
        assert!(store
            .get(&SnapshotKey::new(ModuleId::from_index(0), 1), at(11))
            .is_none());
        for i in [1usize, 2, 3] {
            assert!(
                store
                    .get(&SnapshotKey::new(ModuleId::from_index(i), 1), at(12))
                    .is_some(),
                "entry {i} should have survived"
            );
        }
        assert!(store.resident_bytes() <= 3 * 1024);
    }

    #[test]
    fn eviction_ties_break_by_lru_then_key() {
        // Three identical-score entries; the least recently used goes
        // first. Touching entry 0 via get() protects it.
        let store = SnapshotStore::with_limits(Some(2 * 1024), false);
        for i in 0..2 {
            store.insert(
                SnapshotKey::new(ModuleId::from_index(i), 1),
                snap(&[(i, 10, 1)]),
                at(i as u64),
            );
        }
        store.get(&SnapshotKey::new(ModuleId::from_index(0), 1), at(5));
        store.insert(
            SnapshotKey::new(ModuleId::from_index(2), 1),
            snap(&[(2, 10, 1)]),
            at(6),
        );
        // Entry 1 (last used at t=1) lost; entry 0 (refreshed at t=5) kept.
        assert!(store
            .get(&SnapshotKey::new(ModuleId::from_index(1), 1), at(7))
            .is_none());
        assert!(store
            .get(&SnapshotKey::new(ModuleId::from_index(0), 1), at(7))
            .is_some());
    }

    #[test]
    fn oversized_entry_is_rejected_not_resident() {
        let store = SnapshotStore::with_limits(Some(1024), false);
        let handle = store.insert(
            SnapshotKey::new(ModuleId::from_index(0), 1),
            snap(&[(0, 10, 2)]), // 2 KiB > 1 KiB budget
            at(0),
        );
        assert_eq!(handle.loads.len(), 1); // still usable by the caller
        assert_eq!(store.len(), 0);
        assert_eq!(store.resident_bytes(), 0);
    }

    #[test]
    fn refine_shrinks_resident_bytes_and_merges_unions() {
        let store = SnapshotStore::with_limits(Some(1 << 30), true);
        let key = SnapshotKey::new(ModuleId::from_index(0), 1);
        store.insert(key, snap(&[(0, 1, 1), (1, 1, 1), (2, 1, 1)]), at(0));
        assert_eq!(store.resident_bytes(), 3 * 1024);
        // First refinement: only module 0 in the working set.
        store.refine(&key, &[0b001], at(1));
        assert_eq!(store.resident_bytes(), 1024);
        let s = store.get(&key, at(2)).unwrap();
        assert_eq!(s.working.as_deref(), Some(&[0b001u64][..]));
        // Second refinement unions in module 2; module 1 stays omitted.
        store.refine(&key, &[0b100], at(3));
        assert_eq!(store.resident_bytes(), 2 * 1024);
        let s = store.get(&key, at(4)).unwrap();
        assert_eq!(s.working.as_deref(), Some(&[0b101u64][..]));
        // A no-new-bits refinement keeps the same Arc.
        let before = Arc::as_ptr(&store.get(&key, at(5)).unwrap());
        store.refine(&key, &[0b001], at(6));
        assert_eq!(Arc::as_ptr(&store.get(&key, at(7)).unwrap()), before);
    }

    #[test]
    fn invalidate_stale_evicts_other_fingerprints() {
        let store = SnapshotStore::new();
        let stale = SnapshotKey::new(ModuleId::from_index(0), 1);
        let fresh = SnapshotKey::new(ModuleId::from_index(0), 2);
        store.insert(stale, snap(&[(0, 1, 1)]), at(0));
        store.insert(fresh, snap(&[(0, 1, 1)]), at(1));
        assert_eq!(store.invalidate_stale(2), 1);
        assert_eq!(store.len(), 1);
        assert_eq!(store.evictions(), 1);
        assert_eq!(store.resident_bytes(), 1024);
        assert!(store.get(&stale, at(2)).is_none());
        assert!(store.get(&fresh, at(3)).is_some());
    }

    #[test]
    fn stats_snapshot_reflects_counters() {
        let store = SnapshotStore::with_limits(Some(1 << 20), true);
        let key = SnapshotKey::new(ModuleId::from_index(0), 1);
        store.get(&key, at(0));
        store.insert(key, snap(&[(0, 1, 1)]), at(1));
        store.get(&key, at(2));
        store.record_faults(3);
        let stats = store.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.faulted_loads, 3);
        assert_eq!(stats.resident_bytes, 1024);
        assert_eq!(stats.entries, 1);
    }
}
