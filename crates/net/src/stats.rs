//! Delivery statistics.

/// Coarse traffic attribution, so experiments can tell a protocol's
/// *standing* cost (failure-detector heartbeats, sent whether or not
/// anything is happening) from the cost of the operation under measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MsgCategory {
    /// Protocol traffic proper (requests, bids, casts, NACKs, …).
    #[default]
    Protocol,
    /// Periodic liveness heartbeats.
    Heartbeat,
}

/// Monotone counters describing traffic through the simulator.
///
/// Plain integers: each engine shard owns one `NetStats` and is its only
/// writer; the engine sums them with [`NetStats::absorb`] when read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetStats {
    /// Messages submitted for sending.
    pub sent: u64,
    /// Messages delivered to a live node.
    pub delivered: u64,
    /// Messages dropped (fault plan or dead destination).
    pub dropped: u64,
    /// Extra deliveries caused by duplication faults.
    pub duplicated: u64,
    /// Total header+payload bytes submitted.
    pub bytes_sent: u64,
    /// Of `sent`, how many were liveness heartbeats.
    pub heartbeats_sent: u64,
}

/// The name reports use for a copy of [`NetStats`] taken at one instant.
pub type StatsSnapshot = NetStats;

impl NetStats {
    /// Add another counter set into this one. Counters are commutative, so
    /// the order shards are merged in does not matter.
    pub fn absorb(&mut self, other: &NetStats) {
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.bytes_sent += other.bytes_sent;
        self.heartbeats_sent += other.heartbeats_sent;
    }

    /// A copy of the counters as they stand now.
    pub fn snapshot(&self) -> StatsSnapshot {
        *self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = NetStats {
            sent: 2,
            bytes_sent: 150,
            delivered: 1,
            ..NetStats::default()
        };
        s.absorb(&NetStats {
            sent: 1,
            bytes_sent: 10,
            dropped: 1,
            duplicated: 1,
            heartbeats_sent: 1,
            ..NetStats::default()
        });
        let want = NetStats {
            sent: 3,
            delivered: 1,
            dropped: 1,
            duplicated: 1,
            bytes_sent: 160,
            heartbeats_sent: 1,
        };
        assert_eq!(s, want);
    }

    #[test]
    fn snapshot_copies() {
        let mut s = NetStats::default();
        s.sent += 1;
        let snap = s.snapshot();
        s.sent += 1;
        assert_eq!(snap.sent, 1);
        assert_eq!(s.sent, 2);
    }
}
