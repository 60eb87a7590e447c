#![warn(missing_docs)]
#![deny(unsafe_code)]
//! # vce-sim — the deterministic discrete-event cluster simulator
//!
//! The paper evaluated its prototype on a physical workstation LAN plus
//! (aspirationally) CM-5-class SIMD and MIMD machines. We do not have a 1994
//! machine room, so this crate is the substitution DESIGN.md documents: a
//! discrete-event simulation of a heterogeneous machine fleet that exposes
//! exactly the observables the VCE runtime bases decisions on —
//!
//! * per-machine **load** (runnable process count incl. background local
//!   users, the quantity §5's daemons put in their bids);
//! * **architecture class, speed and memory** per machine (the compilation
//!   manager's database, §3.1.2);
//! * **message latency** (LAN model + fault injection shared with
//!   `vce-net`);
//! * **compute progress** under processor sharing, so co-located tasks slow
//!   each other down and migration away from loaded machines actually pays.
//!
//! The protocol state machines from `vce-isis`/`vce-exm` run unmodified on
//! this engine via the [`vce_net::Endpoint`]/[`vce_net::Host`] traits. Every
//! run is a pure function of its seed: the event queue (a calendar queue,
//! [`queue::CalendarQueue`]) tie-breaks on insertion sequence and all
//! randomness derives from one master seed.
//!
//! ```
//! use vce_net::{Addr, Endpoint, Envelope, Host, MachineInfo, NodeId, PortId};
//! use vce_sim::{Sim, SimConfig};
//!
//! struct Nop;
//! impl Endpoint for Nop {
//!     fn on_envelope(&mut self, _e: Envelope, _h: &mut dyn Host) {}
//! }
//!
//! let mut sim = Sim::new(SimConfig::default());
//! sim.add_node(MachineInfo::workstation(NodeId(0), 100.0));
//! sim.add_endpoint(Addr::daemon(NodeId(0)), Box::new(Nop));
//! sim.run_until_idle();
//! assert_eq!(sim.now_us(), 0); // nothing ever happened
//! ```

pub mod cpu;
pub mod engine;
pub mod load;
mod lookahead;
pub mod metrics;
pub mod queue;
pub mod record;
mod shard;
mod sharded;
pub mod topology;
pub mod trace;

pub use cpu::Cpu;
pub use engine::{Sim, SimConfig};
pub use load::LoadTrace;
pub use metrics::NodeMetrics;
pub use record::{first_divergence, read_trace, read_trace_file, Divergence, RecordedTrace};
pub use topology::Topology;
pub use trace::{Trace, TraceEvent};
