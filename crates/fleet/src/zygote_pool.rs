//! Per-node zygote pools: planning live dependency sharing for a fleet.
//!
//! [`NodeZygotePool`] is the fleet-level companion of
//! [`slimstart_pyrt::zygote::ZygoteImage`]: apps share their node's
//! zygotes exactly as they share its snapshot budget
//! ([`crate::snapshot_pool::NodeSnapshotPool`] — same `node_size`
//! geometry, `node = index / node_size`). Planning happens once per
//! fleet run, **sequentially and up front** like seed splitting, so the
//! plan is a pure function of (pool config, population) and worker
//! scheduling can never move a byte of the report:
//!
//! 1. Each node's member apps are partitioned round-robin across the
//!    node's `zygotes_per_node` pre-warmed processes.
//! 2. Each zygote ranks the module names its member apps define by
//!    **load cost × hit frequency** — the summed nominal init cost the
//!    name would charge across those apps (an app that loads a library
//!    twice as often as another also builds it into twice as many
//!    containers, which is what the sum models) — hottest first,
//!    name-ascending on ties.
//! 3. The zygote holds a prefix of that ranking resident: names stay
//!    eligible while acquiring them at the fork cost is strictly
//!    cheaper than every member's own load (`min init cost > fork
//!    cost`) and while the optional per-zygote byte budget lasts.
//! 4. Every member app then forks from its **best-matching** zygote of
//!    the node: the one whose resident set overlaps the app's own
//!    modules with the highest summed init cost (lowest zygote index on
//!    ties) — an app benefits from a neighbor's zygote when that image
//!    covers more of its closure than its own partition's does.
//!
//! The plan also settles the node memory account: the bytes every
//! zygote on a node pins resident are reported per app as
//! `node_reserve_bytes`, which the orchestrator subtracts from the
//! node's snapshot budget before fair-sharing it
//! ([`crate::snapshot_pool::NodeSnapshotPool::store_for_reserved`]) —
//! zygotes and snapshot caches spend the same modeled RAM.

use std::collections::BTreeMap;
use std::sync::Arc;

use slimstart_appmodel::Application;
use slimstart_pyrt::zygote::DEFAULT_FORK_COST;
use slimstart_simcore::time::SimDuration;

use crate::snapshot_pool::DEFAULT_NODE_SIZE;

/// Configuration of the per-node zygote pools (the `--zygotes` /
/// `--fork-cost-us` CLI surface).
#[derive(Debug, Clone)]
pub struct NodeZygotePool {
    zygotes_per_node: usize,
    node_size: usize,
    fork_cost: SimDuration,
    resident_budget_bytes: Option<u64>,
}

impl NodeZygotePool {
    /// Creates a pool keeping `zygotes_per_node` pre-warmed processes on
    /// every node of `node_size` apps, acquiring resident modules at
    /// `fork_cost`.
    ///
    /// # Panics
    ///
    /// Panics if `zygotes_per_node` or `node_size` is zero.
    pub fn new(zygotes_per_node: usize, node_size: usize, fork_cost: SimDuration) -> Self {
        assert!(zygotes_per_node > 0, "a zygote pool needs >= 1 zygote");
        assert!(node_size > 0, "node size must be >= 1");
        NodeZygotePool {
            zygotes_per_node,
            node_size,
            fork_cost,
            resident_budget_bytes: None,
        }
    }

    /// A pool with the default geometry: one zygote per
    /// [`DEFAULT_NODE_SIZE`]-app node at [`DEFAULT_FORK_COST`].
    pub fn default_geometry() -> Self {
        NodeZygotePool::new(1, DEFAULT_NODE_SIZE, DEFAULT_FORK_COST)
    }

    /// Returns a copy capping each zygote's resident bytes (`None` holds
    /// the full eligible closure).
    #[must_use]
    pub fn with_resident_budget(mut self, budget_bytes: Option<u64>) -> Self {
        self.resident_budget_bytes = budget_bytes;
        self
    }

    /// Zygotes kept per node.
    pub fn zygotes_per_node(&self) -> usize {
        self.zygotes_per_node
    }

    /// Apps per simulated node.
    pub fn node_size(&self) -> usize {
        self.node_size
    }

    /// Flat nominal cost of acquiring one resident module at fork.
    pub fn fork_cost(&self) -> SimDuration {
        self.fork_cost
    }

    /// Plans the fleet's zygote images from the built population.
    ///
    /// `apps` pairs each population index with its built application
    /// (ascending index order is not required; grouping sorts by node).
    /// Runs in O(population × (modules + zygotes per node × resident
    /// prefix)), up to the log factors of ranking names and building
    /// BTreeMaps, with only deterministic ordering (BTreeMaps, index
    /// order, name-ascending ties).
    pub fn plan(&self, apps: &[(usize, Application)]) -> ZygotePlan {
        let mut by_node: BTreeMap<usize, Vec<&(usize, Application)>> = BTreeMap::new();
        for entry in apps {
            by_node
                .entry(entry.0 / self.node_size)
                .or_default()
                .push(entry);
        }
        let mut specs = BTreeMap::new();
        for members in by_node.values() {
            let zygotes = self.plan_node(members);
            let node_reserve_bytes: u64 = zygotes.iter().map(|z| z.resident_bytes).sum();
            for (index, app) in members.iter().map(|m| (&m.0, &m.1)) {
                let best = Self::best_match(app, &zygotes);
                specs.insert(
                    *index,
                    AppZygoteSpec {
                        ranked: Arc::clone(&zygotes[best].ranked),
                        resident_prefix: zygotes[best].resident_prefix,
                        node_reserve_bytes,
                    },
                );
            }
        }
        ZygotePlan {
            fork_cost: self.fork_cost,
            specs,
        }
    }

    /// Builds one node's zygotes from its members (round-robin
    /// partition by ascending member position).
    fn plan_node(&self, members: &[&(usize, Application)]) -> Vec<PlannedZygote> {
        (0..self.zygotes_per_node)
            .map(|j| {
                let partition = members
                    .iter()
                    .enumerate()
                    .filter(|(position, _)| position % self.zygotes_per_node == j)
                    .map(|(_, m)| &m.1);
                self.build_zygote(partition)
            })
            .collect()
    }

    /// Ranks one zygote's module names by summed init cost across its
    /// member apps and cuts the resident prefix.
    fn build_zygote<'a>(&self, members: impl Iterator<Item = &'a Application>) -> PlannedZygote {
        #[derive(Default)]
        struct NameScore {
            /// Σ init cost (µs) across member apps — cost × frequency.
            score: u128,
            /// Cheapest member-app load of this name: residency is only
            /// worth it when even that beats the fork cost.
            min_cost_us: u64,
            /// Largest member-app footprint — the bytes the zygote pins.
            max_bytes: u64,
        }
        let mut scores: BTreeMap<&str, NameScore> = BTreeMap::new();
        for app in members {
            for module in app.modules() {
                let cost_us = module.init_cost().as_micros();
                let entry = scores.entry(module.name()).or_insert_with(|| NameScore {
                    min_cost_us: u64::MAX,
                    ..NameScore::default()
                });
                entry.score += u128::from(cost_us);
                entry.min_cost_us = entry.min_cost_us.min(cost_us);
                entry.max_bytes = entry.max_bytes.max(module.mem_kb() * 1024);
            }
        }
        let mut ranked: Vec<(&str, NameScore)> =
            scores.into_iter().filter(|(_, s)| s.score > 0).collect();
        ranked.sort_by(|a, b| b.1.score.cmp(&a.1.score).then(a.0.cmp(b.0)));
        let fork_us = self.fork_cost.as_micros();
        let mut resident_prefix = 0usize;
        let mut resident_bytes = 0u64;
        for (_, s) in &ranked {
            if s.min_cost_us <= fork_us {
                break; // acquiring must strictly beat every member's load
            }
            if let Some(budget) = self.resident_budget_bytes {
                if resident_bytes + s.max_bytes > budget {
                    break;
                }
            }
            resident_bytes += s.max_bytes;
            resident_prefix += 1;
        }
        PlannedZygote {
            ranked: ranked
                .into_iter()
                .map(|(name, _)| name.to_string())
                .collect(),
            resident_prefix,
            resident_bytes,
        }
    }

    /// The node zygote covering the most of `app`'s closure: highest
    /// summed init cost over resident names the app defines, lowest
    /// zygote index on ties (including the no-overlap case). The app's
    /// name index is built once and probed across all the node's zygotes.
    fn best_match(app: &Application, zygotes: &[PlannedZygote]) -> usize {
        let names = app.module_name_index();
        let mut best = 0usize;
        let mut best_score = 0u128;
        for (j, zygote) in zygotes.iter().enumerate() {
            let mut score = 0u128;
            for name in &zygote.ranked[..zygote.resident_prefix] {
                if let Some(&module) = names.get(name.as_str()) {
                    score += u128::from(app.module(module).init_cost().as_micros());
                }
            }
            if score > best_score {
                best_score = score;
                best = j;
            }
        }
        best
    }
}

/// One planned node zygote: the hotness ranking and its resident prefix.
struct PlannedZygote {
    ranked: Arc<[String]>,
    resident_prefix: usize,
    resident_bytes: u64,
}

/// The fleet's planned zygote assignment: one spec per population index.
#[derive(Debug, Clone)]
pub struct ZygotePlan {
    fork_cost: SimDuration,
    specs: BTreeMap<usize, AppZygoteSpec>,
}

impl ZygotePlan {
    /// The flat fork acquisition cost every image charges.
    pub fn fork_cost(&self) -> SimDuration {
        self.fork_cost
    }

    /// The spec planned for a population index, if that app was planned.
    pub fn spec(&self, index: usize) -> Option<&AppZygoteSpec> {
        self.specs.get(&index)
    }
}

/// One app's zygote assignment: the chosen image's hotness ranking, how
/// much of it is resident, and the node-wide bytes all zygotes of its
/// node pin (shared with the snapshot budget).
#[derive(Debug, Clone)]
pub struct AppZygoteSpec {
    /// The chosen zygote's hotness ranking, hottest first — feeds
    /// [`slimstart_pyrt::zygote::ZygoteImage::for_app`] directly, which
    /// reads only its resident prefix.
    pub ranked: Arc<[String]>,
    /// How many leading ranked names the zygote holds resident.
    pub resident_prefix: usize,
    /// Total resident bytes of every zygote on this app's node.
    pub node_reserve_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimstart_appmodel::app::AppBuilder;
    use slimstart_appmodel::catalog::catalog;
    use slimstart_appmodel::ModuleId;
    use slimstart_pyrt::zygote::{ZygoteCounters, ZygoteImage};

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    /// One app with a private handler plus the given shared library
    /// modules (name, init ms, KiB).
    fn app(name: &str, libs: &[(&str, u64, u64)]) -> Application {
        let mut b = AppBuilder::new(name);
        let lib = b.add_library("lib");
        b.add_app_module("handler", ms(1), 64);
        for &(module, cost, kb) in libs {
            b.add_library_module(module, ms(cost), kb, false, lib);
        }
        let m = b.add_app_module("main", SimDuration::ZERO, 0);
        let f = b.add_function("main", m, 1, vec![]);
        b.add_handler("h", f);
        b.finish().unwrap()
    }

    #[test]
    fn ranking_orders_by_summed_cost_with_name_ties() {
        let pool = NodeZygotePool::new(1, 4, SimDuration::from_micros(100));
        // "lib.hot" scores 30+30 ms across two apps, beating "lib.big"'s
        // one-app 40 ms; "lib.a"/"lib.b" tie at 5 ms and order by name.
        let apps = vec![
            (
                0,
                app(
                    "a",
                    &[("lib", 2, 10), ("lib.hot", 30, 100), ("lib.a", 5, 10)],
                ),
            ),
            (
                1,
                app(
                    "b",
                    &[("lib", 2, 10), ("lib.hot", 30, 100), ("lib.b", 5, 10)],
                ),
            ),
            (2, app("c", &[("lib", 2, 10), ("lib.big", 40, 100)])),
        ];
        let plan = pool.plan(&apps);
        let spec = plan.spec(0).unwrap();
        // handler appears in all three (1 ms × 3 = 3 ms, above lib.a/b? no:
        // 3 ms < 5 ms); ranking: lib.hot (60), lib.big (40), lib (6),
        // lib.a (5), lib.b (5), handler (3).
        let ranked: Vec<&str> = spec.ranked.iter().map(String::as_str).collect();
        assert_eq!(
            ranked,
            vec!["lib.hot", "lib.big", "lib", "lib.a", "lib.b", "handler"]
        );
        // Everything costs > 100 µs, so the whole ranking is resident.
        assert_eq!(spec.resident_prefix, 6);
        // All three apps share the single node zygote and its reserve.
        for i in 0..3 {
            assert_eq!(
                plan.spec(i).unwrap().node_reserve_bytes,
                spec.node_reserve_bytes
            );
        }
        // max bytes per name: lib.hot 100, lib.big 100, lib 10, lib.a 10,
        // lib.b 10, handler 64 KiB.
        assert_eq!(
            spec.node_reserve_bytes,
            (100 + 100 + 10 + 10 + 10 + 64) * 1024
        );
        assert_eq!(plan.fork_cost(), SimDuration::from_micros(100));
    }

    #[test]
    fn residency_stops_at_cheap_modules_and_byte_budget() {
        // Fork cost 2 ms: "lib" (2 ms) is not strictly cheaper to load
        // than to fork, so residency stops there even though the ranking
        // continues past it.
        let pool = NodeZygotePool::new(1, 2, ms(2));
        let apps = vec![(0, app("a", &[("lib", 2, 10), ("lib.hot", 30, 100)]))];
        let plan = pool.plan(&apps);
        let spec = plan.spec(0).unwrap();
        let ranked: Vec<&str> = spec.ranked.iter().map(String::as_str).collect();
        assert_eq!(ranked, vec!["lib.hot", "lib", "handler"]);
        assert_eq!(spec.resident_prefix, 1, "lib's 2 ms load == fork cost");
        assert_eq!(spec.node_reserve_bytes, 100 * 1024);

        // A byte budget truncates the prefix the same way.
        let tight = NodeZygotePool::new(1, 2, SimDuration::from_micros(100))
            .with_resident_budget(Some(100 * 1024));
        let plan = tight.plan(&apps);
        let spec = plan.spec(0).unwrap();
        assert_eq!(spec.resident_prefix, 1, "only lib.hot fits 100 KiB");
        assert_eq!(spec.node_reserve_bytes, 100 * 1024);
    }

    #[test]
    fn apps_fork_from_the_best_matching_node_zygote() {
        // Two zygotes on one 4-app node; members partition round-robin:
        // zygote 0 gets apps 0 and 2 (numpy-shaped), zygote 1 gets apps
        // 1 and 3 (pandas-shaped). App 4 lands on the next node.
        let numpy = &[("lib", 2, 10), ("lib.numpy", 30, 100)][..];
        let pandas = &[("lib", 2, 10), ("lib.pandas", 50, 200)][..];
        let apps = vec![
            (0, app("a", numpy)),
            (1, app("b", pandas)),
            (2, app("c", numpy)),
            (3, app("d", pandas)),
            (4, app("e", numpy)),
        ];
        let pool = NodeZygotePool::new(2, 4, SimDuration::from_micros(100));
        let plan = pool.plan(&apps);
        for i in [0, 2] {
            assert!(
                plan.spec(i)
                    .unwrap()
                    .ranked
                    .iter()
                    .any(|n| n.as_str() == "lib.numpy"),
                "app {i} forks the numpy zygote"
            );
        }
        for i in [1, 3] {
            assert!(
                plan.spec(i)
                    .unwrap()
                    .ranked
                    .iter()
                    .any(|n| n.as_str() == "lib.pandas"),
                "app {i} forks the pandas zygote"
            );
        }
        // Node 0's reserve counts both zygotes; node 1 (app 4 alone, two
        // zygotes but one is empty) reserves only its members' modules.
        let node0 = plan.spec(0).unwrap().node_reserve_bytes;
        let node1 = plan.spec(4).unwrap().node_reserve_bytes;
        assert!(node0 > node1);
        assert_eq!(node1, (100 + 10 + 64) * 1024);
        // A pandas app matched against the numpy zygote would score lower:
        // check the chosen image actually holds the app's own hot library.
        let spec3 = plan.spec(3).unwrap();
        let resident: Vec<&str> = spec3.ranked[..spec3.resident_prefix]
            .iter()
            .map(String::as_str)
            .collect();
        assert!(resident.contains(&"lib.pandas"));
    }

    #[test]
    fn planning_is_deterministic() {
        let apps: Vec<(usize, Application)> = (0..6)
            .map(|i| {
                (
                    i,
                    app(&format!("app{i}"), &[("lib", 2, 10), ("lib.hot", 30, 100)]),
                )
            })
            .collect();
        let pool = NodeZygotePool::new(2, 3, SimDuration::from_micros(100));
        let a = pool.plan(&apps);
        let b = pool.plan(&apps);
        for i in 0..6 {
            let (sa, sb) = (a.spec(i).unwrap(), b.spec(i).unwrap());
            assert_eq!(sa.ranked, sb.ranked);
            assert_eq!(sa.resident_prefix, sb.resident_prefix);
            assert_eq!(sa.node_reserve_bytes, sb.node_reserve_bytes);
        }
    }

    /// The resident modules of `ranked[..resident_prefix]` in `app`,
    /// resolved one name at a time with the linear
    /// `Application::module_by_name`: the reference the indexed lookups
    /// of `ZygoteImage::for_app` and `best_match` must agree with.
    fn reference_resident(app: &Application, ranked: &[String], prefix: usize) -> Vec<ModuleId> {
        let mut resident: Vec<ModuleId> = ranked[..prefix]
            .iter()
            .filter_map(|name| app.module_by_name(name))
            .collect();
        resident.sort_by_key(|m| m.index());
        resident.dedup();
        resident
    }

    /// `best_match` with per-name linear lookups.
    fn reference_best_match(app: &Application, zygotes: &[PlannedZygote]) -> usize {
        let mut best = (0usize, 0u128);
        for (j, zygote) in zygotes.iter().enumerate() {
            let score: u128 = reference_resident(app, &zygote.ranked, zygote.resident_prefix)
                .iter()
                .map(|&m| u128::from(app.module(m).init_cost().as_micros()))
                .sum();
            if score > best.1 {
                best = (j, score);
            }
        }
        best.0
    }

    #[test]
    fn indexed_name_lookups_match_the_linear_reference_on_the_catalog() {
        // The node-shared geometry (two zygotes per eight-app node) over
        // the above-gate catalog apps, and over the whole catalog.
        let pool = NodeZygotePool::new(2, DEFAULT_NODE_SIZE, DEFAULT_FORK_COST);
        let entries = catalog();
        let above_gate: Vec<_> = entries.iter().filter(|e| e.above_gate()).collect();
        assert_eq!(above_gate.len(), 17);
        for population in [above_gate, entries.iter().collect()] {
            let apps: Vec<(usize, Application)> = population
                .iter()
                .enumerate()
                .map(|(i, entry)| (i, entry.build(2025 + i as u64).unwrap().app))
                .collect();
            let plan = pool.plan(&apps);
            let mut forked_apps = 0;
            for node in apps.chunks(DEFAULT_NODE_SIZE) {
                let members: Vec<&(usize, Application)> = node.iter().collect();
                let zygotes = pool.plan_node(&members);
                let reserve: u64 = zygotes.iter().map(|z| z.resident_bytes).sum();
                for (index, app) in node {
                    let spec = plan.spec(*index).unwrap();
                    let best = &zygotes[reference_best_match(app, &zygotes)];
                    assert_eq!(spec.ranked, best.ranked, "{}: chosen zygote", app.name());
                    assert_eq!(spec.resident_prefix, best.resident_prefix);
                    assert_eq!(spec.node_reserve_bytes, reserve);

                    let image = ZygoteImage::for_app(
                        app,
                        &spec.ranked,
                        spec.resident_prefix,
                        DEFAULT_FORK_COST,
                        Arc::new(ZygoteCounters::default()),
                    );
                    let expected = reference_resident(app, &spec.ranked, spec.resident_prefix);
                    let resident: Vec<ModuleId> = (0..app.modules().len())
                        .map(ModuleId::from_index)
                        .filter(|&m| image.is_resident(m))
                        .collect();
                    assert_eq!(resident, expected, "{}: resident set", app.name());
                    assert_eq!(image.resident_count(), expected.len());
                    let bytes: u64 = expected
                        .iter()
                        .map(|&m| app.module(m).mem_kb() * 1024)
                        .sum();
                    assert_eq!(image.resident_bytes(), bytes);
                    forked_apps += usize::from(!expected.is_empty());
                }
            }
            // Not vacuous: the catalog apps share libraries, so most fork
            // resident modules from a node zygote.
            assert!(
                forked_apps * 2 > apps.len(),
                "{forked_apps} of {}",
                apps.len()
            );
        }
    }
}
