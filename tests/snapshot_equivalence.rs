//! Snapshot-cache equivalence: the cold-start snapshot cache is a pure
//! memoization layer, so enabling it must never change a single byte of any
//! report. These tests run the full pipeline twice per cell — snapshots
//! force-disabled vs. force-enabled with a fresh store — and demand
//! byte-identical serialized outcomes across a chaos grid, with and without
//! platform jitter.
//!
//! The companion guarantee — that the goldens under `tests/golden/` keep
//! passing with snapshots on and *without* re-blessing (`SLIMSTART_BLESS=1`)
//! — is enforced by `tests/golden_reports.rs`, which runs with the default
//! (snapshot-enabled) platform configuration.
//!
//! The last cell goes below the pipeline: on the real module graphs of the
//! above-gate catalog apps, forked from their planned node zygotes at
//! jittered time scales, every restore must match a real forked cold start
//! load event for load event, forked-load counts included. A refined lazy
//! restore's load events, which the process derives from the snapshot's
//! stream, must be the selected captured loads in capture order, then the
//! loads its handler's invocations fault in, each once.

use std::sync::Arc;

use slimstart::appmodel::catalog::{catalog, fleet_population, CatalogApp};
use slimstart::appmodel::{Application, ModuleId};
use slimstart::core::export::outcome_to_json;
use slimstart::core::pipeline::{Pipeline, PipelineConfig};
use slimstart::fleet::NodeZygotePool;
use slimstart::platform::chaos::ChaosConfig;
use slimstart::platform::PlatformConfig;
use slimstart::pyrt::snapshot::{Snapshot, SnapshotStore};
use slimstart::pyrt::{
    LoadEvent, LoaderPlan, Process, ZygoteCounters, ZygoteImage, DEFAULT_FORK_COST,
};
use slimstart::simcore::{SimDuration, SimRng, SimTime};

/// Serialize one pipeline run with the given platform config.
fn run_json(
    entry: &CatalogApp,
    seed: u64,
    chaos: Option<ChaosConfig>,
    platform: PlatformConfig,
) -> String {
    let built = entry.build(seed).expect("catalog blueprint builds");
    let mut config = PipelineConfig::default()
        .with_cold_starts(8)
        .with_platform(platform)
        .with_seed(seed);
    if let Some(mix) = chaos {
        config = config.with_chaos(mix);
    }
    let outcome = Pipeline::new(config)
        .run(&built.app, &entry.workload_weights())
        .expect("pipeline completes");
    outcome_to_json(&outcome)
}

/// Run disabled-vs-enabled on one cell and return the enabled-side store so
/// callers can assert the cache actually participated.
fn assert_equivalent(
    entry: &CatalogApp,
    seed: u64,
    chaos: Option<ChaosConfig>,
    base: PlatformConfig,
    label: &str,
) -> Arc<SnapshotStore> {
    let store = Arc::new(SnapshotStore::new());
    let disabled = run_json(entry, seed, chaos, base.clone().without_snapshots());
    let enabled = run_json(entry, seed, chaos, base.with_snapshot_store(store.clone()));
    assert_eq!(
        disabled, enabled,
        "{label} ({}, seed {seed}): snapshot cache changed the report",
        entry.code
    );
    store
}

#[test]
fn chaos_free_reports_are_byte_identical_with_snapshots_on() {
    let population = fleet_population(3);
    for (i, entry) in population.iter().enumerate() {
        let seed = 100 + i as u64 * 13;
        let store = assert_equivalent(
            entry,
            seed,
            None,
            PlatformConfig::default().without_jitter(),
            "chaos-off",
        );
        // Eight cold starts per deployment: the first misses and captures,
        // the rest must restore from the cache — otherwise this test is
        // vacuously comparing two identical non-cached runs.
        assert!(
            store.hits() > 0,
            "{}: cache never hit (misses {})",
            entry.code,
            store.misses()
        );
        // One miss per distinct deployment fingerprint: the pipeline deploys
        // the original app and its optimized rewrite through the same store.
        assert_eq!(
            store.misses(),
            2,
            "{}: two deployments, two misses",
            entry.code
        );
    }
}

#[test]
fn jittered_time_scales_restore_exactly() {
    // Platform jitter gives every container its own time scale; the restore
    // path re-applies raw per-module costs through the same per-load scaling
    // as the loader, so byte equality must survive jitter too.
    let population = fleet_population(2);
    for (i, entry) in population.iter().enumerate() {
        let store = assert_equivalent(
            entry,
            7_000 + i as u64,
            None,
            PlatformConfig::default(),
            "jittered",
        );
        assert!(store.hits() > 0, "{}: cache never hit", entry.code);
    }
}

#[test]
fn chaos_grid_stays_equivalent() {
    // Fault injection perturbs which cold starts happen and when; the cache
    // key mixes the chaos rates, and restores must remain byte-invisible
    // under every mix (including observer-free sampler-dropout containers,
    // which are snapshot-eligible).
    let mixes = [
        ("uniform-0.25", ChaosConfig::uniform(0.25)),
        (
            "platform-storm",
            ChaosConfig {
                crash_during_init: 0.5,
                reclamation_storm: 0.4,
                sampler_dropout: 0.5,
                ..ChaosConfig::DISABLED
            },
        ),
        (
            "deploy-storm",
            ChaosConfig {
                deploy_failure: 0.9,
                ..ChaosConfig::DISABLED
            },
        ),
    ];
    let population = fleet_population(2);
    for (m, (name, mix)) in mixes.iter().enumerate() {
        let entry = &population[m % population.len()];
        assert_equivalent(
            entry,
            4_242 + m as u64 * 101,
            Some(*mix),
            PlatformConfig::default().without_jitter(),
            name,
        );
    }
}

/// A restore entry point of [`Process`].
type Restore = fn(&mut Process, &Snapshot) -> SimDuration;

/// One process of `app` at `scale`, forked from `image`, and the
/// forked-load count its `start` added to the image's counters.
fn forked(
    app: &Arc<Application>,
    plan: &Arc<LoaderPlan>,
    scale: f64,
    image: &Arc<ZygoteImage>,
    start: impl FnOnce(&mut Process),
) -> (Process, u64) {
    let mut p = Process::with_plan(Arc::clone(app), Arc::clone(plan), scale);
    p.set_zygote(Arc::clone(image));
    let before = image.counters().forked_loads();
    start(&mut p);
    (p, image.counters().forked_loads() - before)
}

#[test]
fn jittered_forked_restores_match_the_forked_walk_on_catalog_graphs() {
    // The node-shared geometry: the 17 above-gate catalog apps on
    // eight-app nodes with two zygotes each.
    let entries: Vec<CatalogApp> = catalog().into_iter().filter(|e| e.above_gate()).collect();
    assert_eq!(entries.len(), 17);
    let built: Vec<(usize, Application)> = entries
        .iter()
        .enumerate()
        .map(|(i, entry)| (i, entry.build(9_100 + i as u64).unwrap().app))
        .collect();
    let zygotes = NodeZygotePool::new(2, 8, DEFAULT_FORK_COST).plan(&built);
    let mut scales = SimRng::seed_from(0x5CA1E);
    let (mut forked_apps, mut resident_outside_working, mut faults) = (0, 0, 0);
    for ((index, app), entry) in built.into_iter().zip(&entries) {
        let app = Arc::new(app);
        let plan = Arc::new(LoaderPlan::build(&app));
        let handler = app.handler_by_name(&entry.workload_weights()[0].0).unwrap();
        let root = app.function(app.handler(handler).function()).module();
        let handlers: Vec<_> = entry
            .workload_weights()
            .iter()
            .filter_map(|(name, _)| app.handler_by_name(name))
            .collect();
        let spec = zygotes.spec(index).unwrap();
        let image = Arc::new(ZygoteImage::for_app(
            &app,
            &spec.ranked,
            spec.resident_prefix,
            zygotes.fork_cost(),
            Arc::new(ZygoteCounters::default()),
        ));

        // The capture is unforked: snapshots record nominal charges.
        let mut origin = Process::with_plan(Arc::clone(&app), Arc::clone(&plan), 1.0);
        origin.cold_start(root).unwrap();
        let snapshot = origin.capture_snapshot();
        let captured: Vec<ModuleId> = snapshot.loads.iter().map(|l| l.module).collect();
        let resident_captured = captured.iter().filter(|&&m| image.is_resident(m)).count();
        forked_apps += usize::from(resident_captured > 0);

        // A refined working set: what one invocation touched.
        origin.invoke(handler, &mut SimRng::seed_from(7)).unwrap();
        let refined = Snapshot {
            working: Some(origin.working_set_for(&snapshot).into_boxed_slice()),
            ..snapshot.clone()
        };
        resident_outside_working += captured
            .iter()
            .filter(|&&m| image.is_resident(m) && !refined.in_working_set(m))
            .count();

        let restores: [(&str, Restore); 2] = [
            ("full", Process::restore_snapshot),
            ("unrefined lazy", Process::restore_snapshot_lazy),
        ];
        let jittered = (0..8).map(|_| scales.uniform(0.85, 1.2));
        for scale in std::iter::once(1.0).chain(jittered) {
            let label = format!("{} at scale {scale}", entry.code);
            let (real, real_forked) = forked(&app, &plan, scale, &image, |p| {
                p.cold_start(root).unwrap();
            });
            assert_eq!(real_forked, resident_captured as u64, "{label}: real walk");
            let fork_charge = zygotes.fork_cost().mul_f64(scale);
            for event in real.load_events() {
                if image.is_resident(event.module) {
                    assert_eq!(event.self_cost, fork_charge, "{label}: fork charge");
                }
            }
            for (kind, restore) in restores {
                let (restored, restored_forked) = forked(&app, &plan, scale, &image, |p| {
                    restore(p, &snapshot);
                });
                assert_eq!(
                    restored.load_events(),
                    real.load_events(),
                    "{label}: {kind}"
                );
                assert_eq!(restored.clock(), real.clock(), "{label}: {kind}");
                assert_eq!(restored.mem_kb(), real.mem_kb(), "{label}: {kind}");
                assert_eq!(
                    restored.peak_mem_kb(),
                    real.peak_mem_kb(),
                    "{label}: {kind}"
                );
                assert_eq!(restored_forked, real_forked, "{label}: {kind}");
            }
            let (mut lazy, lazy_forked) = forked(&app, &plan, scale, &image, |p| {
                p.restore_snapshot_lazy(&refined);
            });
            assert_eq!(
                lazy_forked, resident_captured as u64,
                "{label}: refined lazy"
            );
            for &m in &captured {
                if image.is_resident(m) {
                    assert!(lazy.is_loaded(m), "{label}: resident module not replayed");
                }
            }

            // The reference: the selected captured loads in capture order,
            // each at the fork charge or its nominal cost scaled on its own.
            let mut at = SimTime::ZERO;
            let restored: Vec<LoadEvent> = snapshot
                .loads
                .iter()
                .filter(|l| refined.in_working_set(l.module) || image.is_resident(l.module))
                .map(|l| {
                    let self_cost = if image.is_resident(l.module) {
                        fork_charge
                    } else {
                        l.init_cost.mul_f64(scale)
                    };
                    at += self_cost;
                    LoadEvent {
                        module: l.module,
                        at,
                        self_cost,
                        during_init: true,
                    }
                })
                .collect();
            assert_eq!(lazy.load_events(), restored, "{label}: refined lazy events");
            // Then the loads the handlers fault in, each logged once after
            // the restored ones: invoke until an omitted module faults.
            let mut faulted = 0;
            for (k, handler) in handlers.iter().cycle().take(64).enumerate() {
                lazy.invoke(*handler, &mut SimRng::seed_from(k as u64))
                    .unwrap();
                faulted += lazy.take_faulted_loads();
                if faulted > 0 {
                    break;
                }
            }
            faults += faulted;
            let events = lazy.load_events();
            assert_eq!(
                events[..restored.len()],
                restored[..],
                "{label}: restored events after faults"
            );
            let later = &events[restored.len()..];
            assert!(
                later.iter().all(|e| !e.during_init && e.at > at),
                "{label}: a later load is not a deferred one"
            );
            let later_captured = later.iter().filter(|e| captured.contains(&e.module));
            assert_eq!(
                later_captured.count() as u64,
                faulted,
                "{label}: faulted loads"
            );
            let mut seen = vec![false; app.modules().len()];
            for event in &events {
                assert!(
                    !std::mem::replace(&mut seen[event.module.index()], true),
                    "{label}: {} loaded twice",
                    app.module(event.module).name()
                );
                assert!(
                    lazy.is_loaded(event.module),
                    "{label}: event of an unloaded module"
                );
            }
            let loaded = (0..app.modules().len())
                .filter(|&i| lazy.is_loaded(ModuleId::from_index(i)))
                .count();
            assert_eq!(
                events.len(),
                loaded,
                "{label}: a loaded module has no event"
            );
        }
    }
    // Not vacuous: every app forks captured modules from a zygote,
    // refined restores replay resident modules their working sets omit,
    // and handlers fault omitted modules in.
    assert_eq!(forked_apps, 17, "apps that fork a captured module");
    assert!(resident_outside_working > 0);
    assert!(faults > 0, "no refined lazy restore faulted");
}
