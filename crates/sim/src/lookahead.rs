//! Adaptive conservative-window sizing from the fleet's site structure.
//!
//! The engine advances every shard through a shared lock-step window
//! `[w_start, w_start + L)`; correctness requires each cross-shard
//! message created inside a window to land at or after its end (the
//! always-on assert in `Shard::push_or_remote`). The global floor `L =
//! Topology::min_cross_latency_us()` — the cheapest link class anywhere
//! in the topology — is always safe. But that floor is only *reachable*
//! between two nodes in the same site. When the fleet is clustered and the
//! modulo node→shard assignment happens to keep each site's nodes on one
//! shard, every message that actually crosses a shard boundary also
//! crosses a site boundary and pays the (larger) inter-site base — so the
//! window can be that wide, cutting the number of barrier rounds by the
//! intra/inter latency ratio with zero change to observable output.
//!
//! The plan computes, for every ordered shard pair `(s, d)`, the minimum
//! latency a message from a node on `s` to a node owned by `d` can
//! possibly experience, and sets the window to the minimum over all pairs.
//! Two asymmetries keep this sound:
//!
//! * **Sources** must be registered — only registered nodes execute
//!   endpoints, so only their sites can originate traffic. The source sets
//!   grow as `Sim::add_node*` registers machines (never shrink: a kill
//!   leaves the machine in place), so the window only tightens over a
//!   sim's lifetime and is recomputed on each registration.
//! * **Destinations** need not be registered — a send to a never-added
//!   node still routes to (and drops at) its modulo owner, carrying the
//!   latency of whatever site the topology assigns it. Each shard's
//!   destination set is therefore fixed at construction from the full
//!   topology site map, plus site 0, which every shard can receive for
//!   (unmapped node ids default to site 0 and ids are unbounded, so every
//!   residue class contains some).
//!
//! The result is never narrower than the global floor — every site-pair
//! minimum is one of the two link-class bases, each ≥ the floor — which
//! the `window_us` debug assert and the engine's proptest gate both pin.
//! With no realizable pair at all (a single shard, or no registered node
//! yet) the minimum is over an empty set: `u64::MAX`, and the only window
//! boundaries left are fences and the run bound.

use std::collections::BTreeSet;

use crate::shard::shard_of;
use crate::topology::Topology;

/// Per-shard site occupancy and the window math over it. Owned by
/// [`crate::engine::Sim`]; one instance per sim, sized to the shard count.
#[derive(Debug)]
pub(crate) struct LookaheadPlan {
    /// `src[s]` = distinct sites with at least one *registered* node on
    /// shard `s` — the sites shard `s` can originate traffic from.
    src: Vec<BTreeSet<u32>>,
    /// `dst[d]` = sites shard `d` can receive traffic for: site 0 plus the
    /// site of every topology-mapped node `d` owns, registered or not.
    /// Fixed at construction (the topology is immutable once the sim is
    /// built).
    dst: Vec<BTreeSet<u32>>,
}

impl LookaheadPlan {
    /// Build the (initially source-empty) plan for `shards` shards.
    pub(crate) fn new(shards: usize, topo: &Topology) -> Self {
        let mut dst: Vec<BTreeSet<u32>> = (0..shards).map(|_| BTreeSet::from([0])).collect();
        for (&node, &site) in topo.site_map() {
            dst[shard_of(node, shards)].insert(site);
        }
        Self {
            src: vec![BTreeSet::new(); shards],
            dst,
        }
    }

    /// Record a registered node on `shard`. Returns `true` when the
    /// shard's source-site set grew — the only case where the window can
    /// change, so the caller recomputes [`LookaheadPlan::window_us`] then
    /// and only then (re-registering the same site is free).
    pub(crate) fn note_node(&mut self, shard: usize, site: u32) -> bool {
        self.src[shard].insert(site)
    }

    /// The conservative window width: the minimum over ordered shard pairs
    /// `(s, d)`, `s ≠ d`, of the cheapest site pair `(a ∈ src[s],
    /// b ∈ dst[d])` — `u64::MAX` when no cross-shard pair is realizable
    /// (single shard, or no registered node yet), and ≥ the global floor
    /// by construction.
    pub(crate) fn window_us(&self, topo: &Topology) -> u64 {
        let mut best = u64::MAX;
        for (s, src) in self.src.iter().enumerate() {
            for (d, dst) in self.dst.iter().enumerate() {
                if d == s {
                    continue;
                }
                for &a in src {
                    for &b in dst {
                        best = best.min(topo.min_site_pair_latency_us(a, b));
                    }
                }
            }
        }
        debug_assert!(
            best >= topo.min_cross_latency_us(),
            "adaptive window {best} narrower than the global floor"
        );
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkParams;
    use vce_net::NodeId;

    fn campus() -> Topology {
        Topology::two_tier(LinkParams::lan_1994(), LinkParams::campus_1994())
    }

    /// Register `nodes` (id, site) pairs under modulo sharding.
    fn plan_with(topo: &Topology, shards: usize, nodes: &[(u32, u32)]) -> LookaheadPlan {
        let mut plan = LookaheadPlan::new(shards, topo);
        for &(id, site) in nodes {
            plan.note_node(shard_of(NodeId(id), shards), site);
        }
        plan
    }

    #[test]
    fn empty_or_single_shard_is_unbounded() {
        let t = campus();
        assert_eq!(LookaheadPlan::new(2, &t).window_us(&t), u64::MAX);
        assert_eq!(plan_with(&t, 1, &[(0, 1), (1, 2)]).window_us(&t), u64::MAX);
    }

    #[test]
    fn site_pure_shards_widen_to_inter_site_base() {
        // Shard 0 = site 1 (even ids), shard 1 = site 2 (odd ids): every
        // cross-shard pair crosses sites, so the window is the campus base.
        let mut t = campus();
        for id in 0..4u32 {
            t.set_site(NodeId(id), 1 + id % 2);
        }
        let plan = plan_with(&t, 2, &[(0, 1), (2, 1), (1, 2), (3, 2)]);
        assert_eq!(plan.window_us(&t), 5_000);
    }

    #[test]
    fn shared_site_across_shards_keeps_intra_base() {
        // Site 1 has nodes on both shards: an intra-site message can cross
        // the shard boundary, so the window stays at the LAN base.
        let mut t = campus();
        for id in 0..4u32 {
            t.set_site(NodeId(id), 1);
        }
        let plan = plan_with(&t, 2, &[(0, 1), (1, 1)]);
        assert_eq!(plan.window_us(&t), 1_000);
    }

    #[test]
    fn site_zero_sources_keep_intra_base() {
        // A default-site source can reach a default-site destination on
        // any other shard (never-registered ids exist in every residue
        // class), so a site-0 source pins the window at the intra base.
        let mut t = campus();
        t.set_site(NodeId(1), 2);
        let plan = plan_with(&t, 2, &[(0, 0), (1, 2)]);
        assert_eq!(plan.window_us(&t), 1_000);
    }

    #[test]
    fn mapped_but_unregistered_destination_constrains_the_window() {
        // Node 3 is assigned site 1 but never registered; a shard-1-owned
        // drop target in site 1 makes intra-site cross-shard traffic
        // realizable from shard 0's site-1 source, even though every
        // *registered* pair crosses sites.
        let mut t = campus();
        t.set_site(NodeId(0), 1);
        t.set_site(NodeId(1), 2);
        t.set_site(NodeId(3), 1);
        let plan = plan_with(&t, 2, &[(0, 1), (1, 2)]);
        assert_eq!(plan.window_us(&t), 1_000);
        // Without the stale mapping the same fleet widens to the campus base.
        let mut t2 = campus();
        t2.set_site(NodeId(0), 1);
        t2.set_site(NodeId(1), 2);
        let plan2 = plan_with(&t2, 2, &[(0, 1), (1, 2)]);
        assert_eq!(plan2.window_us(&t2), 5_000);
    }

    #[test]
    fn uniform_topology_never_widens() {
        // intra == inter: nothing to gain, window equals the floor no
        // matter how sites are arranged.
        let mut t = Topology::default();
        t.set_site(NodeId(0), 1);
        t.set_site(NodeId(1), 2);
        let plan = plan_with(&t, 2, &[(0, 1), (1, 2)]);
        assert_eq!(plan.window_us(&t), 1_000);
    }

    #[test]
    fn zero_cost_links_clamp_to_one() {
        let zero = LinkParams {
            base_us: 0,
            per_kib_us: 0,
        };
        let mut t = Topology::two_tier(zero, LinkParams::campus_1994());
        t.set_site(NodeId(0), 1);
        t.set_site(NodeId(1), 2);
        let plan = plan_with(&t, 2, &[(0, 1), (1, 2)]);
        // Cross-shard pairs are all inter-site, so the window widens to
        // the campus base even though the intra link is degenerate…
        assert_eq!(plan.window_us(&t), 5_000);
        // …and a shared zero-cost site clamps at 1, the floor.
        let mut t2 = Topology::two_tier(zero, LinkParams::campus_1994());
        t2.set_site(NodeId(0), 1);
        t2.set_site(NodeId(1), 1);
        let plan2 = plan_with(&t2, 2, &[(0, 1), (1, 1)]);
        assert_eq!(plan2.window_us(&t2), 1);
    }

    #[test]
    fn window_is_never_narrower_than_global_floor() {
        // Sweep a grid of link costs and site layouts; the adaptive
        // window must dominate the floor everywhere.
        for (intra, inter) in [(0, 0), (1_000, 5_000), (5_000, 1_000), (250, 250)] {
            let mut t = Topology::two_tier(
                LinkParams {
                    base_us: intra,
                    per_kib_us: 0,
                },
                LinkParams {
                    base_us: inter,
                    per_kib_us: 0,
                },
            );
            for id in 0..6u32 {
                t.set_site(NodeId(id), id % 3);
            }
            for shards in [2usize, 3, 4] {
                let nodes: Vec<(u32, u32)> = (0..6u32).map(|id| (id, id % 3)).collect();
                let plan = plan_with(&t, shards, &nodes);
                assert!(plan.window_us(&t) >= t.min_cross_latency_us());
            }
        }
    }
}
