//! Network latency/bandwidth model.
//!
//! A 1994 department LAN (the paper's testbed) is well modelled by a uniform
//! base latency plus a per-byte serialization cost: every pair of distinct
//! nodes uses one [`LinkParams`], and a node talking to itself pays only a
//! loopback cost. The cheapest cross-node latency is also the sharded
//! engine's conservative window width (see [`Topology::min_cross_latency_us`]).

use vce_net::NodeId;

/// Latency parameters for one link class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// Fixed one-way latency in µs.
    pub base_us: u64,
    /// Serialization cost in µs per KiB.
    pub per_kib_us: u64,
}

impl LinkParams {
    /// 10BASE-T-era department LAN: ~1 ms base, ~0.8 ms/KiB.
    pub fn lan_1994() -> Self {
        Self {
            base_us: 1_000,
            per_kib_us: 800,
        }
    }

    /// Latency of a `bytes`-byte message on this link.
    pub fn latency_us(&self, bytes: usize) -> u64 {
        self.base_us + (bytes as u64 * self.per_kib_us) / 1024
    }
}

/// Fleet communication topology.
#[derive(Debug, Clone)]
pub struct Topology {
    link: LinkParams,
    /// Loopback cost (same node), typically ~free.
    local_us: u64,
}

impl Default for Topology {
    fn default() -> Self {
        Self::uniform(LinkParams::lan_1994())
    }
}

impl Topology {
    /// Every pair of distinct nodes uses the same link parameters.
    pub fn uniform(link: LinkParams) -> Self {
        Self { link, local_us: 10 }
    }

    /// One-way latency for a `bytes`-byte message from `src` to `dst`.
    ///
    /// Cross-node latency is clamped to ≥ 1 µs even if a caller constructs
    /// zero-cost [`LinkParams`] (the fields are public, so that is
    /// possible): the sharded engine's conservative lookahead window is
    /// derived from the minimum cross-node latency, and a zero-width window
    /// would wedge the barrier loop. One µs is also the physical floor —
    /// no 1994 network moved a datagram between machines in under a
    /// microsecond.
    pub fn latency_us(&self, src: NodeId, dst: NodeId, bytes: usize) -> u64 {
        if src == dst {
            return self.local_us;
        }
        self.link.latency_us(bytes).max(1)
    }

    /// The minimum possible cross-node latency under this topology — the
    /// conservative lookahead used by the sharded engine: an event executed
    /// at time `t` can only cause another *node* to act at
    /// `t + min_cross_latency_us()` or later, so shards may advance through
    /// a window of that width without exchanging messages.
    ///
    /// Same-node loopback (`local_us`) does not participate: a node never
    /// changes shard, so loopback traffic can never cross a shard boundary.
    /// Never returns 0 (see [`Topology::latency_us`] for the clamp).
    pub fn min_cross_latency_us(&self) -> u64 {
        self.link.base_us.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_delivery_is_cheap() {
        let t = Topology::default();
        assert_eq!(t.latency_us(NodeId(1), NodeId(1), 10_000), 10);
    }

    #[test]
    fn size_increases_latency() {
        let t = Topology::default();
        let small = t.latency_us(NodeId(0), NodeId(1), 100);
        let big = t.latency_us(NodeId(0), NodeId(1), 100_000);
        assert!(big > small);
        assert_eq!(small, 1_000 + 100 * 800 / 1024);
    }

    #[test]
    fn min_cross_latency_is_cheapest_link_class() {
        assert_eq!(Topology::default().min_cross_latency_us(), 1_000);
        let t = Topology::uniform(LinkParams {
            base_us: 250,
            per_kib_us: 4_000,
        });
        assert_eq!(t.min_cross_latency_us(), 250);
        // The floor is the cheapest message the link carries: an empty one.
        assert_eq!(t.latency_us(NodeId(0), NodeId(1), 0), 250);
    }

    #[test]
    fn zero_latency_links_clamp_to_one_microsecond() {
        // LinkParams fields are public, so a zero-cost link is
        // constructible; the lookahead (and the latency itself, for
        // consistency) must clamp to 1µs rather than 0, which would give
        // the sharded engine a zero-width window and wedge the barrier
        // loop.
        let zero = LinkParams {
            base_us: 0,
            per_kib_us: 0,
        };
        let t = Topology::uniform(zero);
        assert_eq!(t.min_cross_latency_us(), 1);
        assert_eq!(t.latency_us(NodeId(0), NodeId(1), 0), 1);
        // Loopback is unaffected by the clamp and by the lookahead.
        assert_eq!(t.latency_us(NodeId(2), NodeId(2), 64), 10);
    }

    #[test]
    fn link_params_math() {
        let p = LinkParams {
            base_us: 100,
            per_kib_us: 1024,
        };
        assert_eq!(p.latency_us(0), 100);
        assert_eq!(p.latency_us(1024), 100 + 1024);
        assert_eq!(p.latency_us(512), 100 + 512);
    }
}
