//! # slimstart-appmodel
//!
//! The serverless *application model*: a faithful structural simulation of a
//! Python serverless function package, which is the substrate the paper's
//! profile-guided optimization operates on.
//!
//! An [`Application`] bundles:
//!
//! * [`Module`]s — Python-module analogues with an
//!   initialization cost (top-level execution time), a memory footprint and a
//!   side-effect flag (side-effectful modules are unsafe to lazy-load);
//! * [`Library`]s — packages grouping modules under dotted
//!   paths like `nltk.sem.logic`;
//! * import declarations ([`ImportDecl`]) — either
//!   *global* (loaded eagerly when the importer loads, the cold-start cost
//!   the paper attacks) or *deferred* (loaded at first use, the optimized
//!   form);
//! * [`Function`]s — call-tree bodies with virtual-time
//!   work, direct/indirect call sites and probabilistic branches (the source
//!   of workload-dependent library usage);
//! * handlers — the entry points invoked by the platform.
//!
//! The [`synth`] module builds synthetic applications from compact
//! blueprints, and [`catalog`] instantiates the 22 applications evaluated in
//! the paper with their published structural parameters (Table II).
//!
//! # Example
//!
//! ```
//! use slimstart_appmodel::app::AppBuilder;
//! use slimstart_appmodel::function::{Stmt, StmtKind};
//! use slimstart_appmodel::imports::ImportMode;
//! use slimstart_simcore::time::SimDuration;
//!
//! let mut b = AppBuilder::new("demo");
//! let lib = b.add_library("numpy");
//! let app_mod = b.add_app_module("handler", SimDuration::from_micros(100), 64);
//! let np = b.add_library_module("numpy", SimDuration::from_millis(200), 4_096, false, lib);
//! b.add_import(app_mod, np, 2, ImportMode::Global)?;
//! let work = b.add_function(
//!     "fft",
//!     np,
//!     10,
//!     vec![Stmt { line: 11, kind: StmtKind::Work(SimDuration::from_millis(5)) }],
//! );
//! let main = b.add_function(
//!     "handler",
//!     app_mod,
//!     4,
//!     vec![Stmt { line: 5, kind: StmtKind::call(work) }],
//! );
//! b.add_handler("handler", main);
//! let app = b.finish()?;
//! assert_eq!(app.handlers().len(), 1);
//! # Ok::<(), slimstart_appmodel::AppModelError>(())
//! ```

pub mod app;
pub mod catalog;
pub mod dot;
pub mod function;
pub mod ids;
pub mod imports;
pub mod library;
pub mod module;
pub mod source;
pub mod synth;

mod error;

pub use app::{AppBuilder, Application, Handler};
pub use error::AppModelError;
pub use function::{CallKind, CallSite, Function, Stmt, StmtKind};
pub use ids::{FunctionId, HandlerId, LibraryId, ModuleId};
pub use imports::{ImportDecl, ImportMode};
pub use library::{Library, Package, PackageTree};
pub use module::Module;
