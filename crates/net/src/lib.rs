#![warn(missing_docs)]
//! # vce-net — the communication substrate
//!
//! The VCE runtime (§3.1.2, §5 of the paper) is "a distributed application
//! whose components are running on each of the machines in the VCE network":
//! per-machine daemons, group leaders, and per-user execution programs, all
//! exchanging messages. This crate provides the addressing scheme, message
//! envelope, delivery statistics and fault-injection machinery those
//! components are built on, and the [`Host`]/[`Endpoint`] contract between a
//! protocol state machine and whatever runs it.
//!
//! The one host that runs them is the deterministic discrete-event engine in
//! `vce-sim` (its sharded mode puts them on real OS threads); [`testing`]
//! holds the hand-scripted doubles unit tests use.
//!
//! Design note: protocol logic throughout the workspace is written as
//! transport-agnostic state machines that *return* the envelopes they want
//! sent (see `vce-isis` and `vce-exm`); hosts only move bytes. This is what
//! lets the same scheduler be unit-tested against a mock and simulated at
//! fleet scale, on one thread or many, without divergence.

pub mod actor;
pub mod addr;
pub mod arena;
pub mod fault;
pub mod hash;
pub mod machine;
pub mod message;
pub mod stats;
pub mod testing;

pub use actor::{send_msg, Endpoint, Host};
pub use addr::{Addr, NodeId, PortId};
pub use arena::{NodeList, SeqWindow, SlotArena, NODE_LIST_INLINE};
pub use fault::{FaultOp, FaultPlan, LinkFault};
pub use hash::{fnv64, DetHashState, DetHasher, Fnv64};
pub use machine::{MachineClass, MachineInfo};
pub use message::Envelope;
pub use stats::{MsgCategory, NetStats};
