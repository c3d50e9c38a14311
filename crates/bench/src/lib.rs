//! # slimstart-bench
//!
//! Shared support for the experiment harness. Each `benches/*.rs` target
//! regenerates one table or figure of the paper; this library holds the
//! common runners and text-table rendering they share.
//!
//! Environment knobs (all optional):
//!
//! * `SLIMSTART_COLD_STARTS` — cold starts per measurement run
//!   (default 500, the paper's methodology);
//! * `SLIMSTART_SEED` — experiment seed (default 2025);
//! * `SLIMSTART_RUNS` — measurement runs averaged per application
//!   (default 1; the paper averages five);
//! * `SLIMSTART_THREADS` — fleet worker threads (default: available
//!   parallelism; never changes results, only wall-clock).

pub mod runner;
pub mod table;

pub use runner::{
    cold_starts, run_catalog_app, run_catalog_app_averaged, run_fleet, runs, seed, threads,
    ExperimentRun,
};
pub use table::TextTable;
