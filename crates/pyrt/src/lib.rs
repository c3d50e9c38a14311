//! # slimstart-pyrt
//!
//! A miniature Python-like *runtime substrate*: the module loader and
//! interpreter that execute [`Application`](slimstart_appmodel::Application)s
//! on a virtual clock.
//!
//! This crate replaces CPython in the reproduction. It implements exactly
//! the semantics the paper's optimization relies on:
//!
//! * **Eager transitive loading** — loading a module executes its top level,
//!   which first loads all of its *global* imports, recursively, with a
//!   process-wide module cache (load once per process lifetime).
//! * **Parent-package loading** — importing `a.b.c` first imports `a`, then
//!   `a.b` (CPython's rule), so deferring a subpackage moves its whole
//!   subtree's cost to first use.
//! * **Deferred (lazy) imports** — imports rewritten by the optimizer do not
//!   load at importer-load time; the interpreter loads the target's module
//!   graph at the first call that needs it, charging the cost to execution
//!   rather than initialization.
//! * **Observable call stacks** — every module-init and function frame is
//!   visible to an attached [`ExecutionObserver`],
//!   which is how the SlimStart sampler captures call paths without
//!   instrumenting the code.
//!
//! # Example
//!
//! ```
//! use slimstart_appmodel::catalog::by_code;
//! use slimstart_pyrt::process::Process;
//! use slimstart_simcore::rng::SimRng;
//! use std::sync::Arc;
//!
//! let built = by_code("R-GB").expect("catalog entry").build(7)?;
//! let app = Arc::new(built.app);
//! let mut proc = Process::new(Arc::clone(&app), 1.0);
//! let init = proc.cold_start(built.app_module)?;
//! assert!(!init.is_zero());
//! let handler = app.handler_by_name("handler").expect("handler exists");
//! let outcome = proc.invoke(handler, &mut SimRng::seed_from(1))?;
//! assert!(!outcome.exec_time.is_zero());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod fault;
pub mod loader;
pub mod observer;
pub mod process;
pub mod snapshot;
pub mod stack;
pub mod zygote;

pub use fault::RuntimeFault;
pub use loader::{LoaderPlan, RecordedWalk};
pub use observer::{AdvanceContext, ExecutionObserver, NullObserver, WalkSite};
pub use process::{InvocationOutcome, LoadEvent, Process};
pub use snapshot::{deployment_fingerprint, SnapLoad, Snapshot, SnapshotKey, SnapshotStore};
pub use stack::{CallStack, Frame, FrameKind};
pub use zygote::{ZygoteCounters, ZygoteImage, DEFAULT_FORK_COST};
