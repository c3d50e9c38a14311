//! # slimstart-faaslight
//!
//! A FaaSLight-style **static analysis** baseline (Liu et al., TOSEM 2023 —
//! the paper's reference 13).
//!
//! FaaSLight builds a static call graph from *every* entry function and
//! removes code that is unreachable from any of them. Because it cannot see
//! the workload, it must keep anything *some* entry point might need — which
//! is exactly the gap SlimStart exploits (paper Observation 2): libraries
//! reachable only from rarely- or never-invoked handlers, or behind
//! low-probability branches, survive static slimming and keep inflating cold
//! starts.
//!
//! The analysis here is conservative in the same ways:
//!
//! * branches are assumed taken (statically *possible* calls count);
//! * indirect call sites (dispatch tables, callbacks) retain the *entire*
//!   target library, since the precise callee set is undecidable;
//! * side-effectful modules are never stripped;
//! * stripping is package-granular: a sub-package is removed only when no
//!   function in its subtree is reachable.

pub mod reachability;
pub mod strip;

pub use reachability::{handlers_reaching_package, StaticAnalysis};
pub use strip::{strip_unreachable, strippable_packages, StrippedApp};
