//! Fault injection: message drop, delay, duplication, and network partition.
//!
//! The paper leans on Isis "error notification functions" for fault tolerance
//! (§5: leader takeover by the oldest surviving member). To evaluate that we
//! must be able to kill machines, partition the network and perturb delivery.
//! The simulator consults a [`FaultPlan`] for every envelope.

use std::collections::{BTreeMap, BTreeSet};

use rand::Rng;

use crate::addr::NodeId;

/// Per-link fault parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFault {
    /// Probability in `[0,1]` that a message on this link is silently lost.
    pub drop_prob: f64,
    /// Fixed extra delay applied to every message, in microseconds.
    pub extra_delay_us: u64,
    /// Uniform random jitter added on top, in microseconds.
    pub jitter_us: u64,
    /// Probability in `[0,1]` that a delivered message is delivered twice.
    pub dup_prob: f64,
}

impl Default for LinkFault {
    fn default() -> Self {
        Self {
            drop_prob: 0.0,
            extra_delay_us: 0,
            jitter_us: 0,
            dup_prob: 0.0,
        }
    }
}

/// One timed mutation of a [`FaultPlan`] — the unit of a *schedulable*
/// fault plan. Drivers queue `(at_us, FaultOp)` pairs (e.g. via
/// `vce_sim::Sim::schedule_fault`) so an entire crash/partition/heal
/// scenario rides the deterministic event heap instead of ad-hoc driver
/// stepping.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultOp {
    /// Crash a machine: its CPU state vanishes, messages to/from it drop.
    Kill(NodeId),
    /// Revive a crashed machine; its endpoints reboot via `on_start`.
    Revive(NodeId),
    /// Move a node into partition `group` (0 = the main component).
    Partition(NodeId, u32),
    /// Heal all partitions.
    Heal,
    /// Replace the every-link default fault — message loss/dup/jitter
    /// bursts start by installing one and end by restoring the default.
    DefaultLink(LinkFault),
    /// Install a *directed* per-link fault on `src → dst` only. The
    /// reverse direction is untouched — this is how asymmetric gray
    /// faults (one-way loss, one-way latency) are expressed.
    Link(NodeId, NodeId, LinkFault),
    /// Remove the directed `src → dst` entry so the link falls back to
    /// `default_link`. (Installing `LinkFault::default()` would instead
    /// *shield* the link from an ambient default fault.)
    ClearLink(NodeId, NodeId),
    /// Degrade a node's CPU: all work on it takes `factor`× longer
    /// (processor speed divided by `factor`). `SlowNode(n, 1)` restores
    /// full speed. The node stays alive and keeps answering messages —
    /// the canonical gray failure a naive failure detector evicts.
    SlowNode(NodeId, u32),
}

/// The verdict a transport gets for one envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Deliver after the given extra delay (microseconds).
    Deliver {
        /// Extra delay beyond base latency, µs.
        extra_delay_us: u64,
    },
    /// Deliver twice (duplicate), each after its own delay.
    Duplicate {
        /// Delay of the first copy.
        first_us: u64,
        /// Delay of the second copy.
        second_us: u64,
    },
    /// Silently drop.
    Drop,
}

/// A mutable description of what is currently wrong with the network.
///
/// Thread-safe wrappers are applied by the transports themselves; the plan is
/// plain data so the simulator can snapshot it.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Nodes that have crashed (messages to/from them vanish).
    dead: BTreeSet<NodeId>,
    /// Partition id per node; nodes in different partitions cannot talk.
    /// Nodes absent from the map are in partition 0.
    partition: BTreeMap<NodeId, u32>,
    /// Directed per-link faults, keyed `(src, dst)`.
    links: BTreeMap<(NodeId, NodeId), LinkFault>,
    /// Fault applied to every link without a specific entry.
    pub default_link: LinkFault,
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// Mark a node crashed. Idempotent.
    pub fn kill(&mut self, node: NodeId) {
        self.dead.insert(node);
    }

    /// Revive a crashed node.
    pub fn revive(&mut self, node: NodeId) {
        self.dead.remove(&node);
    }

    /// Whether the node is currently crashed.
    pub fn is_dead(&self, node: NodeId) -> bool {
        self.dead.contains(&node)
    }

    /// Place a node in a partition group. Nodes default to partition 0.
    pub fn set_partition(&mut self, node: NodeId, group: u32) {
        if group == 0 {
            self.partition.remove(&node);
        } else {
            self.partition.insert(node, group);
        }
    }

    /// Heal all partitions.
    pub fn heal_partitions(&mut self) {
        self.partition.clear();
    }

    /// Configure a directed link fault.
    pub fn set_link(&mut self, src: NodeId, dst: NodeId, fault: LinkFault) {
        self.links.insert((src, dst), fault);
    }

    /// Configure the same fault in both directions.
    pub fn set_link_bidir(&mut self, a: NodeId, b: NodeId, fault: LinkFault) {
        self.set_link(a, b, fault);
        self.set_link(b, a, fault);
    }

    /// Remove a directed link-fault entry; the link reverts to
    /// `default_link`.
    pub fn clear_link(&mut self, src: NodeId, dst: NodeId) {
        self.links.remove(&(src, dst));
    }

    /// The directed fault currently installed on `src → dst`, if any.
    pub fn link(&self, src: NodeId, dst: NodeId) -> Option<LinkFault> {
        self.links.get(&(src, dst)).copied()
    }

    fn partition_of(&self, node: NodeId) -> u32 {
        self.partition.get(&node).copied().unwrap_or(0)
    }

    /// Whether `src` can currently reach `dst` at all (liveness + partition).
    pub fn connected(&self, src: NodeId, dst: NodeId) -> bool {
        !self.is_dead(src) && !self.is_dead(dst) && self.partition_of(src) == self.partition_of(dst)
    }

    /// Decide the fate of one envelope from `src` to `dst`, drawing any
    /// randomness from `rng` (the caller owns determinism).
    pub fn judge<R: Rng + ?Sized>(&self, src: NodeId, dst: NodeId, rng: &mut R) -> Delivery {
        if !self.connected(src, dst) {
            return Delivery::Drop;
        }
        let fault = match self.links.get(&(src, dst)) {
            Some(f) => *f,
            // Loopback traffic never traverses the network, so the ambient
            // link fault does not apply (an explicit self-link entry still
            // does). Without this, a lossy `default_link` can drop a node's
            // message to itself — unrecoverable for head-of-stream losses
            // that gap-based NACK schemes cannot observe.
            None if src == dst => LinkFault::default(),
            None => self.default_link,
        };
        if fault.drop_prob > 0.0 && rng.gen::<f64>() < fault.drop_prob {
            return Delivery::Drop;
        }
        let delay = |rng: &mut R| {
            let jitter = if fault.jitter_us > 0 {
                rng.gen_range(0..=fault.jitter_us)
            } else {
                0
            };
            fault.extra_delay_us + jitter
        };
        let first = delay(rng);
        if fault.dup_prob > 0.0 && rng.gen::<f64>() < fault.dup_prob {
            let second = delay(rng);
            Delivery::Duplicate {
                first_us: first,
                second_us: second,
            }
        } else {
            Delivery::Deliver {
                extra_delay_us: first,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn clean_plan_delivers() {
        let plan = FaultPlan::none();
        let mut r = rng();
        assert_eq!(
            plan.judge(NodeId(0), NodeId(1), &mut r),
            Delivery::Deliver { extra_delay_us: 0 }
        );
    }

    #[test]
    fn dead_node_drops_both_directions() {
        let mut plan = FaultPlan::none();
        plan.kill(NodeId(1));
        let mut r = rng();
        assert_eq!(plan.judge(NodeId(0), NodeId(1), &mut r), Delivery::Drop);
        assert_eq!(plan.judge(NodeId(1), NodeId(0), &mut r), Delivery::Drop);
        assert!(plan.is_dead(NodeId(1)));
        plan.revive(NodeId(1));
        assert!(!plan.is_dead(NodeId(1)));
        assert!(matches!(
            plan.judge(NodeId(0), NodeId(1), &mut r),
            Delivery::Deliver { .. }
        ));
    }

    #[test]
    fn partition_blocks_cross_traffic_only() {
        let mut plan = FaultPlan::none();
        plan.set_partition(NodeId(2), 1);
        plan.set_partition(NodeId(3), 1);
        let mut r = rng();
        // Within partition 1: ok.
        assert!(matches!(
            plan.judge(NodeId(2), NodeId(3), &mut r),
            Delivery::Deliver { .. }
        ));
        // Across: dropped.
        assert_eq!(plan.judge(NodeId(0), NodeId(2), &mut r), Delivery::Drop);
        plan.heal_partitions();
        assert!(matches!(
            plan.judge(NodeId(0), NodeId(2), &mut r),
            Delivery::Deliver { .. }
        ));
    }

    #[test]
    fn drop_probability_one_always_drops() {
        let mut plan = FaultPlan::none();
        plan.set_link(
            NodeId(0),
            NodeId(1),
            LinkFault {
                drop_prob: 1.0,
                ..Default::default()
            },
        );
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(plan.judge(NodeId(0), NodeId(1), &mut r), Delivery::Drop);
        }
        // Reverse direction unaffected.
        assert!(matches!(
            plan.judge(NodeId(1), NodeId(0), &mut r),
            Delivery::Deliver { .. }
        ));
    }

    #[test]
    fn delay_and_jitter_bounds() {
        let mut plan = FaultPlan::none();
        plan.default_link = LinkFault {
            extra_delay_us: 100,
            jitter_us: 50,
            ..Default::default()
        };
        let mut r = rng();
        for _ in 0..200 {
            match plan.judge(NodeId(0), NodeId(1), &mut r) {
                Delivery::Deliver { extra_delay_us } => {
                    assert!((100..=150).contains(&extra_delay_us));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn duplication_produces_two_copies() {
        let mut plan = FaultPlan::none();
        plan.default_link = LinkFault {
            dup_prob: 1.0,
            extra_delay_us: 5,
            ..Default::default()
        };
        let mut r = rng();
        match plan.judge(NodeId(0), NodeId(1), &mut r) {
            Delivery::Duplicate {
                first_us,
                second_us,
            } => {
                assert_eq!(first_us, 5);
                assert_eq!(second_us, 5);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn drop_rate_is_approximately_honoured() {
        let mut plan = FaultPlan::none();
        plan.default_link = LinkFault {
            drop_prob: 0.3,
            ..Default::default()
        };
        let mut r = rng();
        let n = 10_000;
        let dropped = (0..n)
            .filter(|_| plan.judge(NodeId(0), NodeId(1), &mut r) == Delivery::Drop)
            .count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.03, "observed rate {rate}");
    }

    #[test]
    fn loopback_exempt_from_default_link_faults() {
        let mut plan = FaultPlan::none();
        plan.default_link = LinkFault {
            drop_prob: 1.0,
            extra_delay_us: 99,
            ..Default::default()
        };
        let mut r = rng();
        assert_eq!(
            plan.judge(NodeId(3), NodeId(3), &mut r),
            Delivery::Deliver { extra_delay_us: 0 }
        );
        // An explicit self-link entry is still honoured.
        plan.set_link(
            NodeId(3),
            NodeId(3),
            LinkFault {
                drop_prob: 1.0,
                ..Default::default()
            },
        );
        assert_eq!(plan.judge(NodeId(3), NodeId(3), &mut r), Delivery::Drop);
    }

    #[test]
    fn asymmetric_link_fault_is_one_directional() {
        // Regression for the chaos-schedule asymmetry gap: a directed
        // entry on A→B must leave B→A on the default link, and clearing
        // it must restore A→B to the default as well.
        let mut plan = FaultPlan::none();
        plan.set_link(
            NodeId(0),
            NodeId(1),
            LinkFault {
                drop_prob: 1.0,
                ..Default::default()
            },
        );
        let mut r = rng();
        for _ in 0..50 {
            assert_eq!(plan.judge(NodeId(0), NodeId(1), &mut r), Delivery::Drop);
            assert!(matches!(
                plan.judge(NodeId(1), NodeId(0), &mut r),
                Delivery::Deliver { .. }
            ));
        }
        assert!(plan.link(NodeId(0), NodeId(1)).is_some());
        assert!(plan.link(NodeId(1), NodeId(0)).is_none());
        plan.clear_link(NodeId(0), NodeId(1));
        assert!(matches!(
            plan.judge(NodeId(0), NodeId(1), &mut r),
            Delivery::Deliver { .. }
        ));
    }

    #[test]
    fn clear_link_reverts_to_ambient_default() {
        // An explicit benign entry shields a link from the ambient
        // default fault; clearing it re-exposes the link.
        let mut plan = FaultPlan::none();
        plan.default_link = LinkFault {
            drop_prob: 1.0,
            ..Default::default()
        };
        plan.set_link(NodeId(0), NodeId(1), LinkFault::default());
        let mut r = rng();
        assert!(matches!(
            plan.judge(NodeId(0), NodeId(1), &mut r),
            Delivery::Deliver { .. }
        ));
        plan.clear_link(NodeId(0), NodeId(1));
        assert_eq!(plan.judge(NodeId(0), NodeId(1), &mut r), Delivery::Drop);
    }

    #[test]
    fn bidir_link_fault() {
        let mut plan = FaultPlan::none();
        plan.set_link_bidir(
            NodeId(4),
            NodeId(5),
            LinkFault {
                extra_delay_us: 7,
                ..Default::default()
            },
        );
        let mut r = rng();
        for (a, b) in [(NodeId(4), NodeId(5)), (NodeId(5), NodeId(4))] {
            assert_eq!(
                plan.judge(a, b, &mut r),
                Delivery::Deliver { extra_delay_us: 7 }
            );
        }
    }
}
