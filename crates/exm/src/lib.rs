#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # vce-exm — the Execution Module
//!
//! The runtime half of Fig. 1 and the whole of §5's prototype, rebuilt in
//! full:
//!
//! * **[`daemon::DaemonEndpoint`]** — "a scheduling/dispatching daemon that
//!   runs in each workstation authorized to host remote executions". One
//!   per machine; daemons of a machine class form an Isis process group
//!   (`vce-isis`), and the group coordinator plays the paper's **group
//!   leader**: it fields resource requests, broadcasts state-disclosure
//!   requests, collects load bids, sorts them, and allocates (Fig. 3 and
//!   the `groupLeader()` pseudocode). Daemons also run the dispatched
//!   tasks, checkpoint cooperative ones, evict redundant incarnations when
//!   the owner returns, and execute leader-ordered migrations.
//! * **[`executor::ExecutorEndpoint`]** — "an execution program that
//!   executes applications on behalf of a local user" (the `execute()`
//!   pseudocode): walks the task graph, requests resources per ready task,
//!   loads programs onto allocated machines, tracks completions and the
//!   dataflow frontier, runs `LOCAL` tasks on the user's workstation, and
//!   broadcasts termination.
//! * **[`policy`]** — §4.3's task-placement policies (utilization-first
//!   vs. best-platform) and overload filtering; **[`queue`]** — request
//!   queueing with priority aging so "a task ... will eventually be
//!   dispatched even if that results in a globally suboptimal schedule".
//! * **[`migrate`]** — §4.4's four migration techniques (redundant
//!   execution, checkpointing, address-space dump, recompilation) and the
//!   policy that picks one per migration from task traits + system state.
//!
//! Everything is an [`vce_net::Endpoint`] state machine: it reaches time,
//! timers and the network only through its [`vce_net::Host`], which is the
//! deterministic simulator in every experiment and a
//! [`vce_net::testing`] double in unit tests.

mod backoff;
pub mod config;
pub mod daemon;
pub mod events;
pub mod executor;
pub mod migrate;
pub mod msg;
pub mod policy;
pub mod queue;
pub mod status;
pub mod wal;
pub mod wire;

pub use config::ExmConfig;
pub use daemon::DaemonEndpoint;
pub use events::{AppEvent, Timeline};
pub use executor::ExecutorEndpoint;
pub use migrate::MigrationTechnique;
pub use msg::{AppId, ExmMsg, InstanceKey, ReqId};
pub use policy::PlacementPolicy;
pub use status::DaemonStatus;
pub use wal::{DaemonWal, WalRecord, WalRecovery};
