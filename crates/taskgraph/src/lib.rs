#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # vce-taskgraph — the application representation
//!
//! §3.1 of the paper: "A VCE application is broken down into functional
//! components called tasks, which are represented visually using a task
//! graph. ... The task graph defines the input, output, and function of
//! each task. The nodes in the task graph are connected by arcs which
//! define the communication and synchronization relationships among the
//! tasks."
//!
//! The task graph is annotated layer by layer as it flows through the
//! Software Development Module (Fig. 1):
//!
//! 1. the **problem specification layer** creates the bare graph
//!    ([`TaskSpec::new`], [`TaskGraph::add_task`], [`TaskGraph::add_arc`]);
//! 2. the **design stage** attaches the problem-architecture class
//!    ([`ProblemClass`]: synchronous / loosely synchronous / asynchronous,
//!    after Fox's classification) and the task's nature
//!    ([`TaskNature`]: compute / graphic / interactive);
//! 3. the **coding level** attaches implementation language, resource
//!    estimates and migratability traits;
//! 4. **user hints** (§3.1.1's "extra optimization" information, e.g.
//!    expected run-time dominance) ride along for the runtime manager.
//!
//! The graph algorithms here (topological order, critical path, ready sets)
//! are what the compilation and runtime managers consume.

pub mod algo;
pub mod classes;
pub mod dot;
pub mod graph;
pub mod task;
pub mod validate;

pub use classes::{Language, ProblemClass, TaskNature};
pub use graph::{Arc, ArcKind, TaskGraph};
pub use task::{MigrationTraits, TaskHints, TaskId, TaskSpec};
pub use validate::{validate, ValidationError};
