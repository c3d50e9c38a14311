//! Working-set snapshot restore under node memory pressure.
//!
//! Four guarantees:
//!
//! 1. **Differential oracle.** With an unlimited budget and a full working
//!    set (the app touches every module it loads), the lazy restore path
//!    must be byte-identical to the retained full-stream restore *and* to
//!    the snapshot-free platform, across a jitter × chaos grid.
//! 2. **Budget bound + determinism.** Under a constrained
//!    [`NodeSnapshotPool`], no shard ever exceeds its fair-share budget,
//!    and the fleet report — including every snapshot counter — is
//!    byte-identical across worker thread counts.
//! 3. **Redeploy invalidation.** A fingerprint change must *evict* stale
//!    entries from the shared pool store (counted as evictions), not
//!    merely miss alongside them.
//! 4. **Budget sweep shape.** A node of apps swept from an unlimited
//!    budget down to a quarter of its unlimited footprint: the unlimited
//!    point never evicts, constrained budgets do, the tightest budget hits
//!    less and has no better p99 cold start, and a same-seed rerun of both
//!    extremes is identical. The sweep is not monotone in between (the
//!    50% point thrashes to zero hits); this test pins its shape, not
//!    monotonicity.

use std::sync::Arc;

use slimstart::appmodel::app::AppBuilder;
use slimstart::appmodel::catalog::light_population;
use slimstart::appmodel::function::{Stmt, StmtKind};
use slimstart::appmodel::imports::ImportMode;
use slimstart::appmodel::Application;
use slimstart::fleet::{FleetConfig, FleetOrchestrator, NodeSnapshotPool};
use slimstart::platform::chaos::{ChaosConfig, ChaosPlan};
use slimstart::platform::{Invocation, Platform, PlatformConfig};
use slimstart::pyrt::snapshot::SnapshotStore;
use slimstart::simcore::time::{SimDuration, SimTime};

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

/// An app whose handler touches every module it loads: handler module,
/// hot library module (executed), and its transitive submodule (touched
/// explicitly). With a full working set, lazy restore may omit nothing.
fn full_touch_app() -> Arc<Application> {
    let mut b = AppBuilder::new("fulltouch");
    let lib = b.add_library("lib");
    let root = b.add_app_module("handler", ms(1), 64);
    let hot = b.add_library_module("lib", ms(40), 512, false, lib);
    let sub = b.add_library_module("lib.sub", ms(25), 256, false, lib);
    b.add_import(root, hot, 2, ImportMode::Global)
        .expect("import is valid");
    b.add_import(hot, sub, 3, ImportMode::Global)
        .expect("import is valid");
    let work = b.add_function(
        "work",
        hot,
        5,
        vec![
            Stmt {
                line: 6,
                kind: StmtKind::Work(ms(2)),
            },
            Stmt {
                line: 7,
                kind: StmtKind::Touch(sub),
            },
        ],
    );
    let main = b.add_function(
        "main",
        root,
        4,
        vec![Stmt {
            line: 5,
            kind: StmtKind::call(work),
        }],
    );
    b.add_handler("main", main);
    Arc::new(b.finish().expect("app builds"))
}

/// Like [`full_touch_app`] but `lib.sub` is only loaded, never touched by
/// the `main` handler — the working set omits it. A second handler `rare`
/// shares the same root module and *does* touch it, forcing a lazy fault.
fn partial_touch_app() -> Arc<Application> {
    let mut b = AppBuilder::new("partialtouch");
    let lib = b.add_library("lib");
    let root = b.add_app_module("handler", ms(1), 64);
    let hot = b.add_library_module("lib", ms(40), 512, false, lib);
    let sub = b.add_library_module("lib.sub", ms(25), 256, false, lib);
    b.add_import(root, hot, 2, ImportMode::Global)
        .expect("import is valid");
    b.add_import(hot, sub, 3, ImportMode::Global)
        .expect("import is valid");
    let work = b.add_function(
        "work",
        hot,
        5,
        vec![Stmt {
            line: 6,
            kind: StmtKind::Work(ms(2)),
        }],
    );
    let main = b.add_function(
        "main",
        root,
        4,
        vec![Stmt {
            line: 5,
            kind: StmtKind::call(work),
        }],
    );
    let rare = b.add_function(
        "rare",
        root,
        8,
        vec![
            Stmt {
                line: 9,
                kind: StmtKind::call(work),
            },
            Stmt {
                line: 10,
                kind: StmtKind::Touch(sub),
            },
        ],
    );
    b.add_handler("main", main);
    b.add_handler("rare", rare);
    Arc::new(b.finish().expect("app builds"))
}

/// `count` invocations of `handler`, spaced past the 10-minute keep-alive
/// so every one is a cold start.
fn cold_invocations(app: &Application, handler: &str, count: usize) -> Vec<Invocation> {
    let handler = app.handler_by_name(handler).expect("handler exists");
    (0..count)
        .map(|k| Invocation {
            at: SimTime::from_millis(k as u64 * 11 * 60 * 1000),
            handler,
            seed: k as u64 + 1,
        })
        .collect()
}

/// Runs `invocations` on a fresh platform and serializes the records.
fn run_records(
    app: &Arc<Application>,
    config: PlatformConfig,
    seed: u64,
    invocations: &[Invocation],
) -> String {
    let mut platform = Platform::new(Arc::clone(app), config, seed);
    let records = platform.run(invocations).expect("run completes");
    format!("{records:?}")
}

#[test]
fn unlimited_lazy_restore_matches_full_stream_oracle_across_grid() {
    let app = full_touch_app();
    let invocations = cold_invocations(&app, "main", 8);
    let chaos_grid: [Option<ChaosConfig>; 2] = [None, Some(ChaosConfig::uniform(0.25))];
    for jitter in [false, true] {
        for (c, chaos) in chaos_grid.iter().enumerate() {
            let seed = 900 + c as u64;
            let base = if jitter {
                PlatformConfig::default()
            } else {
                PlatformConfig::default().without_jitter()
            };
            let with_chaos = |cfg: PlatformConfig| match chaos {
                // A fresh plan per run: chaos draws are stateful, so each
                // variant must start from the same seeded stream.
                Some(mix) => cfg.with_chaos(Arc::new(ChaosPlan::from_seed(*mix, 11))),
                None => cfg,
            };
            let bare = run_records(
                &app,
                with_chaos(base.clone().without_snapshots()),
                seed,
                &invocations,
            );

            let full = Arc::new(SnapshotStore::new());
            let full_json = run_records(
                &app,
                with_chaos(base.clone().with_snapshot_store(Arc::clone(&full))),
                seed,
                &invocations,
            );

            let lazy = Arc::new(SnapshotStore::with_limits(None, true));
            let lazy_json = run_records(
                &app,
                with_chaos(base.clone().with_snapshot_store(Arc::clone(&lazy))),
                seed,
                &invocations,
            );

            let label = format!("jitter={jitter} chaos={}", chaos.is_some());
            assert_eq!(
                bare, full_json,
                "{label}: full-stream cache changed records"
            );
            assert_eq!(
                full_json, lazy_json,
                "{label}: lazy restore diverged from the full-stream oracle"
            );
            assert!(lazy.hits() > 0, "{label}: lazy cache never hit");
            assert_eq!(
                lazy.faulted_loads(),
                0,
                "{label}: a full working set must never fault"
            );
        }
    }
}

#[test]
fn omitted_modules_fault_in_lazily_at_real_cost() {
    let app = partial_touch_app();
    let store = Arc::new(SnapshotStore::with_limits(None, true));
    let config = PlatformConfig::default()
        .without_jitter()
        .with_snapshot_store(Arc::clone(&store));
    let mut platform = Platform::new(Arc::clone(&app), config, 41);

    // Warm the cache and refine the working set on the `main` handler:
    // `lib.sub` is loaded but untouched, so refinement drops it.
    let mut invocations = cold_invocations(&app, "main", 3);
    // A fourth cold start on `rare` (same root module, same snapshot
    // entry) restores without `lib.sub`, then touches it mid-execution.
    let rare = app.handler_by_name("rare").expect("handler exists");
    invocations.push(Invocation {
        at: SimTime::from_millis(3 * 11 * 60 * 1000),
        handler: rare,
        seed: 99,
    });
    let records: Vec<_> = platform.run(&invocations).expect("run completes").to_vec();

    assert_eq!(store.misses(), 1, "only the first cold start misses");
    assert_eq!(store.hits(), 3, "every later cold start restores");
    assert!(
        store.faulted_loads() >= 1,
        "touching an omitted module must fault it in"
    );
    // The lazy hits on `main` skip lib.sub's 25 ms load; the first (miss)
    // cold start pays the full 66 ms stream.
    assert!(
        records[1].load_time < records[0].load_time,
        "lazy hit {:?} not cheaper than full replay {:?}",
        records[1].load_time,
        records[0].load_time
    );
    // The faulting invocation pays lib.sub's load during execution — its
    // total work exceeds the clean lazy hit by at least that load cost.
    let clean = records[1].load_time + records[1].deferred_load_time;
    let faulted = records[3].load_time + records[3].deferred_load_time;
    assert!(
        faulted > clean,
        "fault cost not charged: clean {clean:?} vs faulted {faulted:?}"
    );
}

#[test]
fn constrained_store_never_exceeds_budget_and_is_deterministic() {
    // Three handlers share one store sized to hold roughly two of the
    // three snapshot entries, forcing steady eviction churn.
    let mut b = AppBuilder::new("churn");
    for h in 0..3u64 {
        let lib = b.add_library(format!("lib{h}"));
        let root = b.add_app_module(format!("h{h}"), ms(1), 64);
        let hot = b.add_library_module(format!("lib{h}"), ms(30 + 10 * h), 512, false, lib);
        b.add_import(root, hot, 2, ImportMode::Global)
            .expect("import is valid");
        let work = b.add_function(
            format!("work{h}"),
            hot,
            5,
            vec![Stmt {
                line: 6,
                kind: StmtKind::Work(ms(2)),
            }],
        );
        let main = b.add_function(
            format!("main{h}"),
            root,
            4,
            vec![Stmt {
                line: 5,
                kind: StmtKind::call(work),
            }],
        );
        b.add_handler(format!("main{h}"), main);
    }
    let app = Arc::new(b.finish().expect("app builds"));
    // Each entry is (64 + 512) KiB = 576 KiB resident; two fit, three
    // do not.
    let budget = 1_400 * 1024;

    let run_once = || {
        let store = Arc::new(SnapshotStore::with_limits(Some(budget), true));
        let config = PlatformConfig::default()
            .without_jitter()
            .with_snapshot_store(Arc::clone(&store));
        let mut platform = Platform::new(Arc::clone(&app), config, 17);
        let mut trace = String::new();
        for k in 0..12usize {
            let handler = app
                .handler_by_name(&format!("main{}", k % 3))
                .expect("handler exists");
            let records = platform
                .run(&[Invocation {
                    at: SimTime::from_millis(k as u64 * 11 * 60 * 1000),
                    handler,
                    seed: k as u64 + 1,
                }])
                .expect("run completes");
            // The budget is an invariant, not an end-of-run property.
            assert!(
                store.resident_bytes() <= budget,
                "after invocation {k}: resident {} exceeds budget {budget}",
                store.resident_bytes()
            );
            trace.push_str(&format!("{records:?}\n"));
        }
        (store.stats(), trace)
    };

    let (stats_a, trace_a) = run_once();
    let (stats_b, trace_b) = run_once();
    assert!(
        stats_a.evictions > 0,
        "churn workload must evict: {stats_a:?}"
    );
    assert!(
        stats_a.hits > 0,
        "some restores must still hit: {stats_a:?}"
    );
    assert_eq!(stats_a, stats_b, "eviction order must be deterministic");
    assert_eq!(trace_a, trace_b, "record streams must be deterministic");
}

#[test]
fn constrained_pool_fleet_is_byte_identical_across_thread_counts() {
    let apps = 24;
    let population = light_population(apps);
    // 12 MiB per shard (48 MiB node / 4 apps): holds one light-population
    // deployment generation at a time.
    let pool = NodeSnapshotPool::new(Some(48 << 20), 4, true);
    let base = FleetConfig::default()
        .with_apps(apps)
        .with_seed(11)
        .with_cold_starts(8)
        .with_runs(1)
        .with_snapshot_pool(pool);

    let mut jsons = Vec::new();
    let mut reports = Vec::new();
    for threads in [1usize, 2, 4] {
        let (report, _) = FleetOrchestrator::new(base.clone().with_threads(threads))
            .run_population(&population)
            .expect("fleet run succeeds");
        jsons.push(report.to_json());
        reports.push(report);
    }
    assert!(
        jsons.windows(2).all(|w| w[0] == w[1]),
        "fleet report (with snapshot counters) differs across thread counts"
    );

    let report = &reports[0];
    let summary = report
        .snapshots
        .expect("pool-enabled fleet reports counters");
    assert!(summary.hits + summary.misses > 0, "stores were consulted");
    let shard_budget = pool.shard_budget_bytes().expect("budget set");
    for row in &report.detail {
        let snap = row.snapshot.expect("every app row carries counters");
        assert!(
            snap.resident_bytes <= shard_budget,
            "app {}: resident {} exceeds shard budget {shard_budget}",
            row.index,
            snap.resident_bytes
        );
    }
}

#[test]
fn redeploy_fingerprint_change_evicts_stale_pool_entries() {
    // Two deployment generations of "the same app slot": v2 adds a module,
    // changing the deployment fingerprint.
    let build = |version: u32| -> Arc<Application> {
        let mut b = AppBuilder::new("slot");
        let lib = b.add_library("lib");
        let root = b.add_app_module("handler", ms(1), 64);
        let hot = b.add_library_module("lib", ms(40), 512, false, lib);
        b.add_import(root, hot, 2, ImportMode::Global)
            .expect("import is valid");
        if version >= 2 {
            let extra = b.add_library_module("lib.extra", ms(5), 32, false, lib);
            b.add_import(hot, extra, 3, ImportMode::Global)
                .expect("import is valid");
        }
        let work = b.add_function(
            "work",
            hot,
            5,
            vec![Stmt {
                line: 6,
                kind: StmtKind::Work(ms(2)),
            }],
        );
        let main = b.add_function(
            "main",
            root,
            4,
            vec![Stmt {
                line: 5,
                kind: StmtKind::call(work),
            }],
        );
        b.add_handler("main", main);
        Arc::new(b.finish().expect("app builds"))
    };

    let pool = NodeSnapshotPool::new(Some(64 << 20), 2, true);
    // One shard, reused across deployments — the redeploy scenario.
    let store = pool.store_for(0);
    let config = || {
        PlatformConfig::default()
            .without_jitter()
            .with_snapshot_store(Arc::clone(&store))
    };

    let v1 = build(1);
    let mut platform = Platform::new(Arc::clone(&v1), config(), 23);
    platform
        .run(&cold_invocations(&v1, "main", 3))
        .expect("v1 runs");
    assert_eq!(store.len(), 1, "v1 populated its entry");
    assert_eq!(store.evictions(), 0, "nothing stale yet");
    let hits_v1 = store.hits();
    assert_eq!(hits_v1, 2, "v1's later cold starts hit");

    // Same generation again: deploying an identical fingerprint must not
    // disturb the cache.
    let _same = Platform::new(Arc::clone(&v1), config(), 24);
    assert_eq!(store.evictions(), 0, "same fingerprint is not stale");
    assert_eq!(store.len(), 1);

    // New generation: constructing the platform evicts v1's entry.
    let v2 = build(2);
    let mut platform = Platform::new(Arc::clone(&v2), config(), 25);
    assert_eq!(
        store.evictions(),
        1,
        "stale generation must be evicted, not left to miss"
    );
    assert_eq!(store.len(), 0, "pool shard holds no stale entries");

    platform
        .run(&cold_invocations(&v2, "main", 3))
        .expect("v2 runs");
    assert_eq!(store.misses(), 2, "one miss per generation");
    assert_eq!(store.hits(), hits_v1 + 2, "v2 rebuilds and then hits");
}

/// Apps packed per modeled node in the pressure sweep.
const PRESSURE_NODE_SIZE: usize = 4;
/// Handlers — and hence snapshot roots — per pressure app.
const PRESSURE_HANDLERS: usize = 3;

/// Builds one synthetic pressure app. Each handler pulls a hot library
/// module (touched at runtime, so it stays in the working set) and a cold
/// transitive module that is loaded eagerly but — except for a rare
/// branch on handler 0 — never touched, so lazy restore omits it. Module
/// costs and footprints vary by `slot` so the node's apps compete for the
/// shared budget asymmetrically.
fn pressure_app(slot: usize) -> Arc<Application> {
    let mut b = AppBuilder::new(format!("pressure{slot}"));
    for h in 0..PRESSURE_HANDLERS {
        let lib = b.add_library(format!("lib{h}"));
        let entry_mod = b.add_app_module(format!("h{h}"), ms(1), 64);
        let hot = b.add_library_module(
            format!("lib{h}"),
            ms((20 + 10 * h + 5 * slot) as u64),
            (512 + 256 * h + 128 * slot) as u64,
            false,
            lib,
        );
        let cold = b.add_library_module(
            format!("lib{h}.cold"),
            ms((80 + 20 * h) as u64),
            96,
            false,
            lib,
        );
        b.add_import(entry_mod, hot, 2, ImportMode::Global)
            .expect("import is valid");
        b.add_import(hot, cold, 3, ImportMode::Global)
            .expect("import is valid");
        let mut body = vec![Stmt {
            line: 6,
            kind: StmtKind::Work(ms(2)),
        }];
        if h == 0 {
            // Rare cold-module access: exercises the lazy-restore fault
            // path (the module loads on first touch at real cost).
            body.push(Stmt {
                line: 7,
                kind: StmtKind::Branch {
                    probability: 0.02,
                    body: vec![Stmt {
                        line: 8,
                        kind: StmtKind::Touch(cold),
                    }],
                },
            });
        }
        let work = b.add_function(format!("work{h}"), hot, 5, body);
        let entry = b.add_function(
            format!("main{h}"),
            entry_mod,
            4,
            vec![Stmt {
                line: 5,
                kind: StmtKind::call(work),
            }],
        );
        b.add_handler(format!("main{h}"), entry);
    }
    Arc::new(b.finish().expect("pressure app builds"))
}

/// One budget point of the sweep: the node's summed store counters and
/// its cold-start latency percentiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PressurePoint {
    /// Modeled node memory budget for snapshots; `None` is unlimited.
    node_budget_bytes: Option<u64>,
    hits: u64,
    misses: u64,
    evictions: u64,
    rejections: u64,
    faulted_loads: u64,
    resident_bytes: u64,
    p99_cold_us: u64,
    mean_cold_us: u64,
}

impl PressurePoint {
    /// Snapshot hit rate in `[0, 1]`; 0.0 when nothing was consulted.
    fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Runs the node once at `node_budget` and distills counters and cold-start
/// latency percentiles. Every invocation arrives past the keep-alive
/// window, so each is a cold start that consults the app's pool shard.
fn pressure_point(
    apps: &[Arc<Application>],
    node_budget: Option<u64>,
    seed: u64,
    cold_starts: usize,
) -> PressurePoint {
    let pool = NodeSnapshotPool::new(node_budget, PRESSURE_NODE_SIZE, true);
    let mut point = PressurePoint {
        node_budget_bytes: node_budget,
        hits: 0,
        misses: 0,
        evictions: 0,
        rejections: 0,
        faulted_loads: 0,
        resident_bytes: 0,
        p99_cold_us: 0,
        mean_cold_us: 0,
    };
    let mut cold_us: Vec<u64> = Vec::with_capacity(apps.len() * cold_starts);
    for (i, app) in apps.iter().enumerate() {
        let store = pool.store_for(i);
        let cfg = PlatformConfig::default().with_snapshot_store(Arc::clone(&store));
        let app_seed = seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut platform = Platform::new(Arc::clone(app), cfg, app_seed);
        let handlers: Vec<_> = (0..PRESSURE_HANDLERS)
            .map(|h| {
                app.handler_by_name(&format!("main{h}"))
                    .expect("pressure handler exists")
            })
            .collect();
        let invocations: Vec<Invocation> = (0..cold_starts)
            .map(|k| Invocation {
                at: SimTime::from_millis(k as u64 * 11 * 60 * 1000),
                handler: handlers[k % PRESSURE_HANDLERS],
                seed: k as u64 + 1,
            })
            .collect();
        let records = platform
            .run(&invocations)
            .expect("pressure run is fault-free");
        cold_us.extend(
            records
                .iter()
                .filter(|r| r.cold)
                .map(|r| r.init_latency.as_micros()),
        );
        let stats = store.stats();
        point.hits += stats.hits;
        point.misses += stats.misses;
        point.evictions += stats.evictions;
        point.rejections += stats.rejections;
        point.faulted_loads += stats.faulted_loads;
        point.resident_bytes += stats.resident_bytes;
    }
    cold_us.sort_unstable();
    if !cold_us.is_empty() {
        point.p99_cold_us = cold_us[(cold_us.len() - 1) * 99 / 100];
        point.mean_cold_us = cold_us.iter().sum::<u64>() / cold_us.len() as u64;
    }
    point
}

#[test]
fn snapshot_pressure_sweep_shows_budget_pressure() {
    // 400 cold starts per app keeps unlimited-point misses under 1% of
    // samples, so the p99 contrast between budget points reflects steady
    // state, not warm-up.
    let (seed, cold_starts) = (2025, 400);
    let apps: Vec<Arc<Application>> = (0..PRESSURE_NODE_SIZE).map(pressure_app).collect();
    // The unlimited point calibrates the constrained budgets: 100%, 50%
    // and 25% of its measured resident bytes, fair-shared across shards.
    let unlimited = pressure_point(&apps, None, seed, cold_starts);
    let base = unlimited.resident_bytes;
    let mut points = vec![unlimited];
    for (num, den) in [(1u64, 1u64), (1, 2), (1, 4)] {
        let budget = Some((base * num / den).max(1));
        points.push(pressure_point(&apps, budget, seed, cold_starts));
    }

    assert_eq!(points.len(), 4);
    let unlimited = &points[0];
    let tightest = points.last().expect("sweep has points");
    assert_eq!(unlimited.node_budget_bytes, None);
    assert_eq!(unlimited.evictions, 0);
    assert!(unlimited.hit_rate() > 0.9, "{unlimited:?}");
    assert!(
        points.iter().skip(1).any(|p| p.evictions > 0),
        "constrained budgets must evict: {points:?}"
    );
    // Only the tightest budget turns entries away at admission: every
    // entry fits a shard at the unlimited, 100% and 50% points.
    for p in &points[..3] {
        assert_eq!(p.rejections, 0, "{p:?}");
    }
    assert!(tightest.rejections > 0, "{tightest:?}");
    assert!(
        tightest.hit_rate() < unlimited.hit_rate(),
        "tightest budget hit rate {:.3} not below unlimited {:.3}",
        tightest.hit_rate(),
        unlimited.hit_rate()
    );
    assert!(
        tightest.p99_cold_us >= unlimited.p99_cold_us,
        "tightest budget p99 {} us below unlimited {} us",
        tightest.p99_cold_us,
        unlimited.p99_cold_us
    );
    // Budgets were honored: each constrained point's resident bytes stay
    // within its node budget.
    for p in points.iter().skip(1) {
        let budget = p.node_budget_bytes.expect("constrained point");
        assert!(
            p.resident_bytes <= budget,
            "resident {} exceeds budget {}",
            p.resident_bytes,
            budget
        );
    }
    // Both extremes reproduce under the same seed.
    assert_eq!(pressure_point(&apps, None, seed, cold_starts), points[0]);
    assert_eq!(
        pressure_point(&apps, tightest.node_budget_bytes, seed, cold_starts),
        *tightest
    );
}
