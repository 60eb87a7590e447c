#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # vce-workloads — synthetic workloads, fleets and reporting
//!
//! The evaluation substrate: task-graph families (chains, fans, diamonds,
//! random DAGs, Monte-Carlo bags), heterogeneous fleet generators,
//! owner-activity traces, and the ASCII table printer the `exp_*` binaries
//! use to emit EXPERIMENTS.md rows.

pub mod fleets;
pub mod graphs;
pub mod table;
pub mod traces;

pub use fleets::{mixed_fleet, workstation_fleet};
pub use graphs::{bag_of_tasks, chain, diamond, fan, random_dag};
pub use table::Table;
pub use traces::{busy_owner_after, intermittent_owner};
