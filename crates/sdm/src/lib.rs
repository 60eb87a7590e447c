#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # vce-sdm — the Software Development Module + compilation manager
//!
//! Fig. 1 of the paper stacks five layers; this crate implements the
//! development-side three and the compilation manager that bridges into
//! the execution module:
//!
//! 1. **Problem specification** ([`spec`]): produce the initial task graph
//!    — including from an application-description script, which is how the
//!    §5 prototype described applications.
//! 2. **Design stage** ([`design`]): attach problem-architecture classes
//!    (Fox's synchronous / loosely-synchronous / asynchronous) by analysing
//!    "the computational needs and the existing dependencies for each task
//!    in the task graph".
//! 3. **Coding level** ([`coding`]): attach implementation languages and
//!    derive the communication plan (MPI channels for stream arcs, file
//!    transfers for dataflow arcs).
//! 4. **Compilation manager** ([`compilemgr`]): consult the machine
//!    database (§3.1.2's "simple database, maintained by VCE software"),
//!    map each task to *every* feasible machine class, and prepare binaries
//!    for all of them up front — §4.1: "By preparing all possible
//!    executables before an application is actually run, the runtime
//!    manager will be able to move a given task among various machine
//!    architectures without the need to compile a task while the
//!    application is running."
//!
//! Compilers are simulated by a cost model ([`compiler`]) — the documented
//! substitution for the native toolchains of the paper's testbed.

pub mod anticipate;
pub mod coding;
pub mod compilemgr;
pub mod compiler;
pub mod design;
pub mod machinedb;
pub mod spec;

pub use compilemgr::{Binary, BinaryCache, CompilationManager, CompileReport};
pub use compiler::{CompileError, CompileJob, Compiler};
pub use design::run_design_stage;
pub use machinedb::MachineDb;
pub use spec::graph_from_script;
