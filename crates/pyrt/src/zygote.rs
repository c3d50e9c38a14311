//! Zygote fork images: per-node live dependency sharing.
//!
//! HotSwap-style dependency sharing keeps a small set of pre-warmed
//! *zygote* processes on each node, each holding an already-initialized
//! closure of the node's hottest libraries. A cold start then forks from
//! the best-matching zygote instead of booting an empty runtime: modules
//! the zygote already holds are *acquired* at a flat, configurable fork
//! cost (remapping shared pages) rather than re-paying their full init
//! cost, so a hot library's init runs once per node instead of once per
//! container.
//!
//! A [`ZygoteImage`] is the process-level view of one such fork: which
//! modules of *this* application are resident in the chosen zygote (a
//! bitset over module ids) and the fork acquisition cost. The fleet layer
//! plans images from node-wide profiles (load cost × member-app hit
//! frequency) and hands one to every container of an app;
//! [`crate::process::Process`] applies it at each cost-charging point:
//!
//! * the loader ([`crate::process::Process::cold_start`] and deferred
//!   first-use loads) charges the fork cost instead of `init_cost` for
//!   resident modules;
//! * snapshot restores substitute the same way — captured snapshots
//!   record *nominal* charges, so a restore under a zygote reproduces
//!   exactly what a real forked cold start would have paid;
//! * lazy (working-set) restores replay the working set **plus** the
//!   resident modules (the fork maps them in regardless), in capture
//!   order like every other restore.
//!
//! Memory is modeled conservatively: acquired modules still count their
//! full footprint in the forked process (no copy-on-write dedup), and
//! the zygote's own resident bytes are accounted against the node budget
//! by the fleet layer instead.
//!
//! Counters ([`ZygoteCounters`]) are shared across every container and
//! run of an app via `Arc` and flow into the fleet report's zygote rows.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use slimstart_appmodel::{Application, ModuleId};
use slimstart_simcore::time::SimDuration;

/// Default per-module fork acquisition cost: mapping an initialized
/// module from the zygote is near-free next to running its top level.
pub const DEFAULT_FORK_COST: SimDuration = SimDuration::from_micros(100);

/// Lifetime fork counters of one application's zygote attachment, shared
/// across its containers and measurement runs.
#[derive(Debug, Default)]
pub struct ZygoteCounters {
    forks: AtomicU64,
    forked_loads: AtomicU64,
}

impl ZygoteCounters {
    /// Cold starts that forked from a zygote.
    pub fn forks(&self) -> u64 {
        self.forks.load(Ordering::Relaxed)
    }

    /// Module loads acquired at fork cost instead of full init cost.
    pub fn forked_loads(&self) -> u64 {
        self.forked_loads.load(Ordering::Relaxed)
    }

    fn note_fork(&self) {
        self.forks.fetch_add(1, Ordering::Relaxed);
    }

    fn note_forked_load(&self) {
        self.forked_loads.fetch_add(1, Ordering::Relaxed);
    }
}

/// One application's view of the zygote it forks from: residency bitset
/// and fork cost.
pub struct ZygoteImage {
    /// Resident-module bitset (one bit per module id of this app).
    resident: Box<[u64]>,
    resident_count: usize,
    /// Modeled bytes the resident modules pin in the zygote process.
    resident_bytes: u64,
    /// Flat nominal cost of acquiring one resident module at fork.
    fork_cost: SimDuration,
    counters: Arc<ZygoteCounters>,
}

impl std::fmt::Debug for ZygoteImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ZygoteImage")
            .field("resident_count", &self.resident_count)
            .field("resident_bytes", &self.resident_bytes)
            .field("fork_cost", &self.fork_cost)
            .finish()
    }
}

impl ZygoteImage {
    /// Builds the image of one zygote as seen by `app`.
    ///
    /// `ranked` is the node's hotness ranking, hottest first (module
    /// names, so one ranking spans every app on the node); the first
    /// `resident_prefix` ranked names are resident in the zygote and the
    /// rest are ignored. Names `app` does not define are ignored too — a
    /// node ranking naturally mentions other apps' modules.
    pub fn for_app<S: AsRef<str>>(
        app: &Application,
        ranked: &[S],
        resident_prefix: usize,
        fork_cost: SimDuration,
        counters: Arc<ZygoteCounters>,
    ) -> ZygoteImage {
        let words = app.modules().len().div_ceil(64);
        let mut resident = vec![0u64; words].into_boxed_slice();
        let mut resident_count = 0usize;
        let mut resident_bytes = 0u64;
        for name in ranked.iter().take(resident_prefix) {
            let Some(module) = app.module_by_name(name.as_ref()) else {
                continue;
            };
            let index = module.index();
            let (word, bit) = (index / 64, 1u64 << (index % 64));
            if resident[word] & bit == 0 {
                resident[word] |= bit;
                resident_count += 1;
                resident_bytes += app.module(module).mem_kb() * 1024;
            }
        }
        ZygoteImage {
            resident,
            resident_count,
            resident_bytes,
            fork_cost,
            counters,
        }
    }

    /// Whether `module` is resident in the zygote (acquired at fork cost).
    #[inline]
    pub fn is_resident(&self, module: ModuleId) -> bool {
        self.resident[module.index() / 64] & (1u64 << (module.index() % 64)) != 0
    }

    /// The resident-module bitset (one bit per module id of this app).
    #[inline]
    pub(crate) fn resident(&self) -> &[u64] {
        &self.resident
    }

    /// The flat nominal fork acquisition cost per resident module.
    pub fn fork_cost(&self) -> SimDuration {
        self.fork_cost
    }

    /// Modules of this app resident in the zygote.
    pub fn resident_count(&self) -> usize {
        self.resident_count
    }

    /// Modeled bytes those modules pin in the zygote process.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// The shared counters this image reports into.
    pub fn counters(&self) -> &Arc<ZygoteCounters> {
        &self.counters
    }

    /// Records one cold start forking from this zygote.
    pub fn note_fork(&self) {
        self.counters.note_fork();
    }

    /// The effective raw (unscaled) charge for loading `module`: the fork
    /// cost when the zygote already holds it (counted as a forked load),
    /// its nominal cost otherwise. Both cost-charging points — the loader
    /// and the restore kernel — route through this so fork semantics stay
    /// consistent across paths.
    #[inline]
    pub fn effective_cost(&self, module: ModuleId, nominal: SimDuration) -> SimDuration {
        if self.is_resident(module) {
            self.counters.note_forked_load();
            self.fork_cost
        } else {
            nominal
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimstart_appmodel::app::AppBuilder;

    fn app() -> Application {
        let mut b = AppBuilder::new("z");
        let lib = b.add_library("lib");
        b.add_app_module("handler", SimDuration::from_millis(1), 128);
        b.add_library_module("lib", SimDuration::from_millis(2), 256, false, lib);
        b.add_library_module("lib.hot", SimDuration::from_millis(10), 1_000, false, lib);
        let m = b.add_app_module("main", SimDuration::ZERO, 0);
        let f = b.add_function("main", m, 1, vec![]);
        b.add_handler("h", f);
        b.finish().unwrap()
    }

    #[test]
    fn image_resolves_names_and_residency() {
        let app = app();
        let ranked = ["lib.hot", "lib", "other.app.module", "handler"];
        let image = ZygoteImage::for_app(
            &app,
            &ranked,
            2,
            DEFAULT_FORK_COST,
            Arc::new(ZygoteCounters::default()),
        );
        let hot = app.module_by_name("lib.hot").unwrap();
        let root = app.module_by_name("lib").unwrap();
        let handler = app.module_by_name("handler").unwrap();
        assert!(image.is_resident(hot));
        assert!(image.is_resident(root));
        assert!(!image.is_resident(handler), "past the resident prefix");
        assert_eq!(image.resident_count(), 2);
        assert_eq!(image.resident_bytes(), (1_000 + 256) * 1024);
    }

    #[test]
    fn effective_cost_substitutes_and_counts_only_resident_modules() {
        let app = app();
        let counters = Arc::new(ZygoteCounters::default());
        let image = ZygoteImage::for_app(
            &app,
            &["lib.hot"],
            1,
            SimDuration::from_micros(100),
            Arc::clone(&counters),
        );
        let hot = app.module_by_name("lib.hot").unwrap();
        let root = app.module_by_name("lib").unwrap();
        assert_eq!(
            image.effective_cost(hot, SimDuration::from_millis(10)),
            SimDuration::from_micros(100)
        );
        assert_eq!(
            image.effective_cost(root, SimDuration::from_millis(2)),
            SimDuration::from_millis(2)
        );
        assert_eq!(counters.forked_loads(), 1);
        image.note_fork();
        assert_eq!(counters.forks(), 1);
    }
}
