//! # slimstart-fleet
//!
//! The parallel fleet orchestrator: runs the SLIMSTART pipeline over a
//! population of N applications across a worker pool, producing an
//! aggregated [`FleetReport`].
//!
//! The paper's CI/CD methodology (§III Fig. 4, §V-b) evaluates one
//! application at a time; the ROADMAP north star is a production-scale
//! system serving *fleets* of functions, and FaaSLight likewise evaluates
//! across hundreds of real applications. This crate provides that scale
//! without giving up the repo's determinism discipline:
//!
//! * **Deterministic fan-out.** Every per-app seed is split from the one
//!   experiment seed *sequentially, up front* (see
//!   [`orchestrator::FleetOrchestrator`]), before any worker starts.
//!   Workers claiming chunks of the population from a shared counter
//!   only decide *when* an app runs, never *with which randomness* — so
//!   the serialized [`FleetReport`] is byte-identical for `--threads 1`
//!   and `--threads 8`.
//! * **Streaming aggregation.** Each finished app folds into its
//!   worker's constant-memory [`report::FleetAggregator`] (fixed-bin
//!   histograms, fixed-point sums, a capped detail window); every fold
//!   is order-free, so the workers' partials merge in any order and
//!   10k-app fleets never retain a per-app record vector. Wall-clock
//!   throughput is reported separately from the deterministic JSON,
//!   since wall-clock is inherently nondeterministic.

pub mod orchestrator;
pub mod report;
pub mod snapshot_pool;
pub mod zygote_pool;

pub use orchestrator::{FleetConfig, FleetError, FleetOrchestrator, FleetRunStats, StallHook};
pub use report::{
    AppChaosRecord, AppRecord, AppSnapshotRecord, AppZygoteRecord, FixedHistogram, FleetAggregator,
    FleetChaosSummary, FleetReport, FleetSnapshotSummary, FleetZygoteSummary, SpeedupDistribution,
};
pub use snapshot_pool::{parse_budget, NodeSnapshotPool, DEFAULT_NODE_SIZE};
pub use zygote_pool::{AppZygoteSpec, NodeZygotePool, ZygotePlan};
