//! Delivery statistics, shared by both transports.

// vce-lint: allow(S002) commutative Relaxed counters for the live transport, read only after it stops
use std::sync::atomic::{AtomicU64, Ordering};

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

/// Monotone counters describing traffic through a transport.
///
/// All counters use relaxed atomics: they are statistics, not
/// synchronization, and the threaded transport updates them from many
/// threads (see *Rust Atomics and Locks* ch. 2-3 on when `Relaxed` is
/// sufficient — independent counters with no ordering dependencies).
#[derive(Debug, Default)]
pub struct NetStats {
    sent: AtomicU64,
    delivered: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    bytes_sent: AtomicU64,
    heartbeats_sent: AtomicU64,
}

impl NetStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a send attempt of `wire_size` bytes.
    pub fn record_sent(&self, wire_size: usize) {
        self.record_sent_category(wire_size, MsgCategory::Protocol);
    }

    /// Record a send attempt, attributed to a traffic category.
    pub fn record_sent_category(&self, wire_size: usize, category: MsgCategory) {
        self.sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent
            .fetch_add(wire_size as u64, Ordering::Relaxed);
        if category == MsgCategory::Heartbeat {
            self.heartbeats_sent.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Fold pre-aggregated counter deltas in at once. The sim engine
    /// stages counters in plain integers on its hot path and folds them
    /// here at sync points — one locked RMW per counter per window instead
    /// of several per message.
    pub fn record_batch(
        &self,
        sent: u64,
        bytes_sent: u64,
        heartbeats_sent: u64,
        delivered: u64,
        dropped: u64,
        duplicated: u64,
    ) {
        self.sent.fetch_add(sent, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes_sent, Ordering::Relaxed);
        self.heartbeats_sent
            .fetch_add(heartbeats_sent, Ordering::Relaxed);
        self.delivered.fetch_add(delivered, Ordering::Relaxed);
        self.dropped.fetch_add(dropped, Ordering::Relaxed);
        self.duplicated.fetch_add(duplicated, Ordering::Relaxed);
    }

    /// Record a successful delivery.
    pub fn record_delivered(&self) {
        self.delivered.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a drop (fault plan or dead destination).
    pub fn record_dropped(&self) {
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a duplicated delivery.
    pub fn record_duplicated(&self) {
        self.duplicated.fetch_add(1, Ordering::Relaxed);
    }

    /// Fold another counter set into this one. The sharded simulator keeps
    /// one `NetStats` per shard (each touched by exactly one worker) and
    /// merges them into the facade's aggregate at barrier sync points;
    /// counters are commutative, so the merge is order-independent.
    pub fn absorb(&self, other: &NetStats) {
        self.sent.fetch_add(other.sent(), Ordering::Relaxed);
        self.delivered
            .fetch_add(other.delivered(), Ordering::Relaxed);
        self.dropped.fetch_add(other.dropped(), Ordering::Relaxed);
        self.duplicated
            .fetch_add(other.duplicated(), Ordering::Relaxed);
        self.bytes_sent
            .fetch_add(other.bytes_sent(), Ordering::Relaxed);
        self.heartbeats_sent
            .fetch_add(other.heartbeats_sent(), Ordering::Relaxed);
    }

    /// Messages submitted for sending.
    pub fn sent(&self) -> u64 {
        self.sent.load(Ordering::Relaxed)
    }

    /// Messages delivered to a mailbox.
    pub fn delivered(&self) -> u64 {
        self.delivered.load(Ordering::Relaxed)
    }

    /// Messages dropped.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Extra deliveries caused by duplication faults.
    pub fn duplicated(&self) -> u64 {
        self.duplicated.load(Ordering::Relaxed)
    }

    /// Total payload+header bytes submitted.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed)
    }

    /// Messages submitted that were liveness heartbeats.
    pub fn heartbeats_sent(&self) -> u64 {
        self.heartbeats_sent.load(Ordering::Relaxed)
    }

    /// Messages submitted that were protocol traffic proper.
    pub fn protocol_sent(&self) -> u64 {
        self.sent() - self.heartbeats_sent()
    }

    /// A plain-data snapshot for reports.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            sent: self.sent(),
            delivered: self.delivered(),
            dropped: self.dropped(),
            duplicated: self.duplicated(),
            bytes_sent: self.bytes_sent(),
            heartbeats_sent: self.heartbeats_sent(),
        }
    }
}

/// Plain-data copy of [`NetStats`] at a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Messages submitted for sending.
    pub sent: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Messages dropped.
    pub dropped: u64,
    /// Extra duplicate deliveries.
    pub duplicated: u64,
    /// Bytes submitted.
    pub bytes_sent: u64,
    /// Of `sent`, how many were liveness heartbeats.
    pub heartbeats_sent: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = NetStats::new();
        s.record_sent(100);
        s.record_sent(50);
        s.record_delivered();
        s.record_dropped();
        s.record_duplicated();
        assert_eq!(s.sent(), 2);
        assert_eq!(s.bytes_sent(), 150);
        assert_eq!(s.delivered(), 1);
        assert_eq!(s.dropped(), 1);
        assert_eq!(s.duplicated(), 1);
    }

    #[test]
    fn heartbeats_split_out_of_sent() {
        let s = NetStats::new();
        s.record_sent_category(10, MsgCategory::Protocol);
        s.record_sent_category(10, MsgCategory::Heartbeat);
        s.record_sent_category(10, MsgCategory::Heartbeat);
        assert_eq!(s.sent(), 3);
        assert_eq!(s.heartbeats_sent(), 2);
        assert_eq!(s.protocol_sent(), 1);
        assert_eq!(s.bytes_sent(), 30);
        assert_eq!(s.snapshot().heartbeats_sent, 2);
    }

    #[test]
    fn snapshot_copies() {
        let s = NetStats::new();
        s.record_sent(10);
        let snap = s.snapshot();
        s.record_sent(10);
        assert_eq!(snap.sent, 1);
        assert_eq!(s.sent(), 2);
    }

    #[test]
    fn concurrent_updates_are_not_lost() {
        use std::sync::Arc;
        let s = Arc::new(NetStats::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        s.record_sent(1);
                        s.record_delivered();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(s.sent(), 8000);
        assert_eq!(s.delivered(), 8000);
        assert_eq!(s.bytes_sent(), 8000);
    }
}
