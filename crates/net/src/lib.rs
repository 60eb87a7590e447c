#![warn(missing_docs)]
//! # vce-net — the communication substrate
//!
//! The VCE runtime (§3.1.2, §5 of the paper) is "a distributed application
//! whose components are running on each of the machines in the VCE network":
//! per-machine daemons, group leaders, and per-user execution programs, all
//! exchanging messages. This crate provides the addressing scheme, message
//! envelope, delivery statistics and fault-injection machinery those
//! components are built on, plus a **threaded in-memory transport** that runs
//! the protocol state machines on real OS threads (the "live" mode used by
//! examples and some integration tests).
//!
//! The deterministic discrete-event transport — used by all experiments —
//! lives in `vce-sim` and reuses the same [`Envelope`] and [`FaultPlan`]
//! types, so the protocol code cannot tell which world it is running in.
//!
//! Design note: protocol logic throughout the workspace is written as
//! transport-agnostic state machines that *return* the envelopes they want
//! sent (see `vce-isis` and `vce-exm`); transports only move bytes. This is
//! what lets the same scheduler be unit-tested, simulated at fleet scale, and
//! run live without divergence.

pub mod actor;
pub mod addr;
pub mod arena;
pub mod driver;
pub mod fault;
pub mod hash;
pub mod machine;
pub mod memory;
pub mod message;
pub mod stats;
pub mod testing;

pub use actor::{send_msg, Endpoint, Host};
pub use addr::{Addr, NodeId, PortId};
pub use arena::{NodeList, SeqWindow, SlotArena, NODE_LIST_INLINE};
pub use driver::{LiveDriver, LiveNodeConfig};
pub use fault::{FaultOp, FaultPlan, LinkFault};
pub use hash::{fnv64, DetHashState, DetHasher, Fnv64};
pub use machine::{MachineClass, MachineInfo};
pub use memory::{MemoryNetwork, NodeHandle};
pub use message::Envelope;
pub use stats::{MsgCategory, NetStats};
