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
//! The last cells go below the pipeline. On the real module graphs of the
//! above-gate catalog apps, forked from their planned node zygotes at
//! jittered time scales, every restore must match a real forked cold start
//! load event for load event, forked-load counts included. The restore
//! kernel charges from the snapshot's bitsets, so every restore, on random
//! apps spanning three or more bitset words and on the catalog apps, under
//! empty, full, every-third and random zygote residency and random working
//! sets, must match a reference that charges the snapshot's stream load by
//! load. A restore's load events, which the process derives from the
//! snapshot's stream, must be the selected captured loads in capture
//! order, then the loads its handlers' invocations fault in, each once.

mod common;

use std::sync::Arc;

use slimstart::appmodel::catalog::{catalog, fleet_population, CatalogApp};
use slimstart::appmodel::{Application, HandlerId, ModuleId};
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

fn has_bit(words: &[u64], module: ModuleId) -> bool {
    words[module.index() / 64] & (1u64 << (module.index() % 64)) != 0
}

/// What a restore of a snapshot must produce, charged load by load over
/// the snapshot's stream as the restore kernel once did.
struct Reference {
    /// The selected loads' events, in capture order.
    events: Vec<LoadEvent>,
    /// The selected modules: the eager set and the resident modules,
    /// within the capture.
    loaded: Vec<u64>,
    /// The captured modules the restore leaves out.
    omitted: Vec<u64>,
    mem_kb: u64,
    forked: u64,
}

impl Reference {
    /// The restore of `snapshot` with eager set `eager` into a process at
    /// `scale` forked from `image`, if any: each selected load at the fork
    /// charge when resident, at its nominal cost scaled on its own
    /// otherwise.
    fn of(snapshot: &Snapshot, eager: &[u64], image: Option<&ZygoteImage>, scale: f64) -> Self {
        let resident = |m: ModuleId| image.is_some_and(|z| z.is_resident(m));
        let fork_charge = image.map_or(SimDuration::ZERO, |z| z.fork_cost().mul_f64(scale));
        let mut reference = Reference {
            events: Vec::new(),
            loaded: vec![0; snapshot.loaded.len()],
            omitted: vec![0; snapshot.loaded.len()],
            mem_kb: 0,
            forked: 0,
        };
        let mut at = SimTime::ZERO;
        for load in snapshot.loads.iter() {
            let (word, bit) = (load.module.index() / 64, 1u64 << (load.module.index() % 64));
            if !has_bit(eager, load.module) && !resident(load.module) {
                reference.omitted[word] |= bit;
                continue;
            }
            let self_cost = if resident(load.module) {
                reference.forked += 1;
                fork_charge
            } else {
                load.init_cost.mul_f64(scale)
            };
            at += self_cost;
            reference.events.push(LoadEvent {
                module: load.module,
                at,
                self_cost,
                during_init: true,
            });
            reference.loaded[word] |= bit;
            reference.mem_kb += load.mem_kb;
        }
        reference
    }

    /// The clock at the end of the restore.
    fn end(&self) -> SimTime {
        self.events.last().map_or(SimTime::ZERO, |e| e.at)
    }

    /// Asserts that `p`, right after its restore, matches the reference:
    /// latency, clock, memory, peak, loaded bits, forked loads and events.
    fn assert_restored(&self, p: &Process, init: SimDuration, forked: u64, label: &str) {
        assert_eq!(init, self.end().since(SimTime::ZERO), "{label}: latency");
        assert_eq!(p.clock(), self.end(), "{label}: clock");
        assert_eq!(p.mem_kb(), self.mem_kb, "{label}: memory");
        assert_eq!(p.peak_mem_kb(), self.mem_kb, "{label}: peak");
        for i in 0..p.app().modules().len() {
            let m = ModuleId::from_index(i);
            assert_eq!(p.is_loaded(m), has_bit(&self.loaded, m), "{label}: bit {i}");
        }
        assert_eq!(forked, self.forked, "{label}: forked loads");
        assert_eq!(p.load_events(), self.events, "{label}: events");
    }

    /// Invokes `handlers` in turn on `p`, restored as this reference says,
    /// until an invocation faults an omitted module in or `limit`
    /// invocations have run, and checks what follows the restore: its
    /// events stay first, every later load is deferred, the omitted ones
    /// among them are the faults, no module loads twice and every loaded
    /// module has an event. Returns the faults.
    fn assert_faults(
        &self,
        p: &mut Process,
        handlers: &[HandlerId],
        limit: usize,
        label: &str,
    ) -> u64 {
        let mut faulted = 0;
        for (k, handler) in handlers.iter().cycle().take(limit).enumerate() {
            p.invoke(*handler, &mut SimRng::seed_from(k as u64))
                .unwrap();
            faulted += p.take_faulted_loads();
            if faulted > 0 {
                break;
            }
        }
        let events = p.load_events();
        assert_eq!(
            events[..self.events.len()],
            self.events[..],
            "{label}: restored events after faults"
        );
        let later = &events[self.events.len()..];
        assert!(
            later.iter().all(|e| !e.during_init && e.at > self.end()),
            "{label}: a later load is not a deferred one"
        );
        let later_omitted = later.iter().filter(|e| has_bit(&self.omitted, e.module));
        assert_eq!(
            later_omitted.count() as u64,
            faulted,
            "{label}: faulted loads"
        );
        let mut seen = vec![false; p.app().modules().len()];
        for event in &events {
            assert!(
                !std::mem::replace(&mut seen[event.module.index()], true),
                "{label}: {} loaded twice",
                p.app().module(event.module).name()
            );
            assert!(
                p.is_loaded(event.module),
                "{label}: event of an unloaded module"
            );
        }
        let loaded = (0..seen.len()).filter(|&i| p.is_loaded(ModuleId::from_index(i)));
        assert_eq!(
            events.len(),
            loaded.count(),
            "{label}: a loaded module has no event"
        );
        faulted
    }
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
            let mut init = SimDuration::ZERO;
            let (mut lazy, lazy_forked) = forked(&app, &plan, scale, &image, |p| {
                init = p.restore_snapshot_lazy(&refined);
            });
            let working = refined.working.as_deref().expect("the snapshot is refined");
            let reference = Reference::of(&snapshot, working, Some(&image), scale);
            assert_eq!(reference.forked, resident_captured as u64);
            let label = format!("{label}: refined lazy");
            reference.assert_restored(&lazy, init, lazy_forked, &label);
            faults += reference.assert_faults(&mut lazy, &handlers, 64, &label);
        }
    }
    // Not vacuous: every app forks captured modules from a zygote,
    // refined restores replay resident modules their working sets omit,
    // and handlers fault omitted modules in.
    assert_eq!(forked_apps, 17, "apps that fork a captured module");
    assert!(resident_outside_working > 0);
    assert!(faults > 0, "no refined lazy restore faulted");
}

/// Coverage of [`bitset_restores_match_a_per_load_reference`], so that none
/// of its comparisons is vacuous.
#[derive(Debug, Default)]
struct KernelCoverage {
    restores: usize,
    /// Restores that leave a captured module out.
    omitting: usize,
    /// Restores that charge a selected module outside the zygote.
    charging_nominal: usize,
    /// Restores that fork a captured module.
    forking: usize,
    /// Restores that select a module on bit 63 or 64, the last of one
    /// bitset word or the first of the next.
    selecting_edge: usize,
    /// Restores that omit a module on bit 63 or 64.
    omitting_edge: usize,
    faults: u64,
}

#[test]
fn bitset_restores_match_a_per_load_reference() {
    // Random apps with thirty libraries span three or more bitset
    // words; the catalog apps add the real module graphs.
    let roots: Vec<String> = (0..30).map(|i| format!("lib{i}")).collect();
    let roots: Vec<&str> = roots.iter().map(String::as_str).collect();
    let mut apps: Vec<(String, Application, Vec<HandlerId>)> = (0..4u64)
        .map(|seed| {
            let app = common::random_app_with_roots(seed, &roots);
            assert!(
                app.modules().len() > 128,
                "random app {seed} spans three bitset words"
            );
            let handlers = (0..app.handlers().len())
                .map(HandlerId::from_index)
                .collect();
            (format!("random-{seed}"), app, handlers)
        })
        .collect();
    for entry in catalog() {
        let app = entry.build(2025).unwrap().app;
        let handlers = entry
            .workload_weights()
            .iter()
            .filter_map(|(name, _)| app.handler_by_name(name))
            .collect();
        apps.push((entry.code.to_string(), app, handlers));
    }
    let fork_cost = SimDuration::from_micros(101);
    let mut rng = SimRng::seed_from(0xB175E7);
    let mut coverage = KernelCoverage::default();
    for (name, app, handlers) in apps {
        let app = Arc::new(app);
        let plan = Arc::new(LoaderPlan::build(&app));
        let mut origin = Process::with_plan(Arc::clone(&app), Arc::clone(&plan), 1.0);
        origin.cold_start(app.handler_module(handlers[0])).unwrap();
        let snapshot = origin.capture_snapshot();

        let edge = |words: &[u64]| {
            [63, 64]
                .iter()
                .any(|&i| i < app.modules().len() && has_bit(words, ModuleId::from_index(i)))
        };
        let names: Vec<&str> = app.modules().iter().map(|m| m.name()).collect();
        let every_third: Vec<&str> = names.iter().copied().step_by(3).collect();
        let random: Vec<&str> = names.iter().copied().filter(|_| rng.chance(0.5)).collect();
        let residencies: [(&str, Option<&[&str]>); 5] = [
            ("no zygote", None),
            ("empty", Some(&[])),
            ("full", Some(&names)),
            ("every third", Some(&every_third)),
            ("random", Some(&random)),
        ];
        for (residency, ranked) in residencies {
            let image = ranked.map(|ranked| {
                Arc::new(ZygoteImage::for_app(
                    &app,
                    ranked,
                    ranked.len(),
                    fork_cost,
                    Arc::new(ZygoteCounters::default()),
                ))
            });
            // The full restore, then lazy restores of random working sets
            // of random densities.
            let mut workings: Vec<Option<Box<[u64]>>> = vec![None];
            for _ in 0..2 {
                let density = rng.uniform(0.0, 1.0);
                let working = snapshot
                    .loaded
                    .iter()
                    .map(|&w| {
                        (0..64)
                            .filter(|_| rng.chance(density))
                            .fold(0, |r, b| r | 1 << b)
                            & w
                    })
                    .collect();
                workings.push(Some(working));
            }
            for working in workings {
                let refined = Snapshot {
                    working,
                    ..snapshot.clone()
                };
                let (kind, restore, eager): (&str, Restore, &[u64]) = match &refined.working {
                    Some(working) => ("lazy", Process::restore_snapshot_lazy, working),
                    None => ("full", Process::restore_snapshot, &snapshot.loaded),
                };
                for scale in [1.0, rng.uniform(0.85, 1.2)] {
                    let label = format!("{name}, {residency} residency, {kind} at scale {scale}");
                    let reference = Reference::of(&snapshot, eager, image.as_deref(), scale);
                    let mut p = Process::with_plan(Arc::clone(&app), Arc::clone(&plan), scale);
                    if let Some(image) = &image {
                        p.set_zygote(Arc::clone(image));
                    }
                    let forked_loads = || image.as_ref().map_or(0, |z| z.counters().forked_loads());
                    let before = forked_loads();
                    let init = restore(&mut p, &refined);
                    reference.assert_restored(&p, init, forked_loads() - before, &label);
                    coverage.faults += reference.assert_faults(&mut p, &handlers, 8, &label);

                    let nominal = reference.events.len() as u64 > reference.forked;
                    coverage.restores += 1;
                    coverage.omitting += usize::from(reference.omitted.iter().any(|&w| w != 0));
                    coverage.charging_nominal += usize::from(nominal);
                    coverage.forking += usize::from(reference.forked > 0);
                    coverage.selecting_edge += usize::from(edge(&reference.loaded));
                    coverage.omitting_edge += usize::from(edge(&reference.omitted));
                }
            }
        }
    }
    // 26 apps, 5 residencies, 3 working sets, 2 scales.
    assert_eq!(coverage.restores, 26 * 5 * 3 * 2, "{coverage:?}");
    assert!(coverage.omitting >= 200, "{coverage:?}");
    assert!(coverage.charging_nominal >= 300, "{coverage:?}");
    assert!(coverage.forking >= 200, "{coverage:?}");
    assert!(coverage.selecting_edge >= 200, "{coverage:?}");
    assert!(coverage.omitting_edge >= 100, "{coverage:?}");
    assert!(coverage.faults >= 1_000, "{coverage:?}");
}
