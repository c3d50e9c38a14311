//! # slimstart-simcore
//!
//! Deterministic simulation kernel underpinning the SlimStart reproduction.
//!
//! Everything in the SlimStart workspace runs on *virtual time* with *seeded
//! randomness* so that every experiment is exactly reproducible from a seed.
//! This crate provides the shared building blocks:
//!
//! * [`time`] — [`SimTime`] / [`SimDuration`]
//!   newtypes with microsecond resolution.
//! * [`rng`] — a splittable, seedable random-number generator,
//!   [`SimRng`].
//! * [`dist`] — the distributions used by workload and application models
//!   (Zipf, exponential, log-normal, Pareto, empirical).
//! * [`stats`] — online summaries, exact percentiles and histograms used by
//!   the metric collectors.
//! * [`event`] — a generic discrete-event queue keyed by virtual time.
//! * [`intern`] — an insertion-ordered string interner issuing dense
//!   [`Symbol`] handles for hot-path name lookups.
//! * [`json`] — the string escape and float encoder shared by every
//!   hand-rolled JSON writer.
//!
//! # Example
//!
//! ```
//! use slimstart_simcore::rng::SimRng;
//! use slimstart_simcore::dist::Zipf;
//! use slimstart_simcore::time::SimDuration;
//!
//! let mut rng = SimRng::seed_from(42);
//! let zipf = Zipf::new(10, 1.1).expect("valid parameters");
//! let rank = zipf.sample(&mut rng);
//! assert!(rank < 10);
//! assert_eq!(SimDuration::from_millis(3).as_micros(), 3_000);
//! ```

pub mod dist;
pub mod event;
pub mod intern;
pub mod json;
pub mod rng;
pub mod stats;
pub mod time;

pub use dist::{Empirical, Exponential, LogNormal, Pareto, Zipf};
pub use event::EventQueue;
pub use intern::{Interner, Symbol};
pub use rng::SimRng;
pub use stats::{Histogram, Percentiles, Summary};
pub use time::{SimDuration, SimTime};
