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

/// The sharded engine's conservative window rule.
///
/// Shards advance in lock-step windows `[w_start, w_start + L)`; every
/// cross-shard message created inside a window must land at or after its
/// end (the always-on assert in `Shard::push_or_remote`). With one link
/// class every cross-node message pays at least
/// [`Topology::min_cross_latency_us`], so that floor is the window, and
/// with one shard no message crosses shards, so the window is unbounded.
mod lookahead {
    use crate::topology::Topology;

    /// Window width in µs for `shards` shards over `topology`.
    pub(crate) fn window_us(shards: usize, topology: &Topology) -> u64 {
        if shards <= 1 {
            u64::MAX
        } else {
            topology.min_cross_latency_us()
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::topology::LinkParams;

        #[test]
        fn empty_or_single_shard_is_unbounded() {
            for t in [Topology::default(), Topology::uniform(zero())] {
                assert_eq!(window_us(0, &t), u64::MAX);
                assert_eq!(window_us(1, &t), u64::MAX);
            }
        }

        #[test]
        fn uniform_topology_never_widens() {
            // One link class: the window is the LAN base at every shard
            // count, never anything wider.
            let t = Topology::default();
            for shards in [2, 3, 4, 8, 64] {
                assert_eq!(window_us(shards, &t), 1_000, "S={shards}");
            }
        }

        #[test]
        fn zero_cost_links_clamp_to_one() {
            let t = Topology::uniform(zero());
            for shards in [2, 4, 8] {
                assert_eq!(window_us(shards, &t), 1, "S={shards}");
            }
        }

        #[test]
        fn window_is_never_narrower_than_global_floor() {
            // Sweep link costs and shard counts; above one shard the
            // window is exactly the floor, so every cross-node message
            // lands in a later window.
            for (base_us, per_kib_us) in [(0, 0), (1, 0), (250, 7), (1_000, 800), (5_000, 0)] {
                let t = Topology::uniform(LinkParams {
                    base_us,
                    per_kib_us,
                });
                let floor = t.min_cross_latency_us();
                assert_eq!(floor, base_us.max(1));
                for shards in 2..=8 {
                    assert_eq!(window_us(shards, &t), floor, "S={shards}");
                }
            }
        }

        fn zero() -> LinkParams {
            LinkParams {
                base_us: 0,
                per_kib_us: 0,
            }
        }
    }
}
