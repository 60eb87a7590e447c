//! Inbound ordering: reliable per-sender FIFO, the one cast order.
//!
//! Every [`IsisMsg::Cast`](crate::IsisMsg) travels a per-sender FIFO stream
//! (`fifo_seq`). Receivers hold back out-of-order casts, deliver contiguous
//! runs, drop duplicates, and NACK persistent gaps so senders retransmit
//! from their resend buffers.
//!
//! Senders are named by **rank**: their index in the group's sorted
//! candidate list, fixed when the group is configured. The per-sender
//! FIFO records live in a vector indexed by it, so the owning
//! [`GroupMember`](crate::GroupMember) resolves an address once per
//! message and everything here is an array access.

use bytes::Bytes;
use vce_net::SeqWindow;

use crate::member::{Upcall, NACK_AFTER_US, RESEND_BUFFER};
use crate::msg::BcastId;

/// A cast held back until its sender's earlier casts arrive.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivered {
    /// Broadcast identity: the transport sender and its `fifo_seq`;
    /// replies go to `id.origin`.
    pub id: BcastId,
    /// Application payload.
    pub payload: Bytes,
}

#[derive(Debug, Default)]
struct FifoIn {
    /// `false` until the first cast or stream advertisement from this
    /// sender (we adopt whatever number the stream starts at, so members
    /// that join mid-stream synchronize). Once synced, the holdback
    /// window's base *is* the next expected fifo_seq.
    synced: bool,
    /// Ring-buffered out-of-order casts, based at the expected seq — no
    /// per-entry heap nodes, unlike the `BTreeMap` it replaced.
    holdback: SeqWindow<Delivered>,
    /// Time at which the current gap (if any) was first observed.
    gap_since_us: Option<u64>,
}

/// Per-group inbound ordering state.
///
/// Storage follows the arena mutability classes (`vce_net::arena`): the
/// per-sender table is a vector indexed by sender rank (the membership
/// universe is fixed, so nothing is ever inserted or removed — a forgotten
/// sender's record is emptied in place) and each holdback queue is a
/// [`SeqWindow`] ring (dense seq-keyed) — so a steady-state in-order
/// stream delivers with zero transient allocations.
#[derive(Debug)]
pub struct OrderingState {
    per_sender: Vec<FifoIn>,
}

impl OrderingState {
    /// Fresh state for a group of `senders` candidates (ranks
    /// `0..senders`). Casts and advertisements from a rank outside that
    /// range are ignored.
    pub fn new(senders: usize) -> Self {
        Self {
            per_sender: (0..senders).map(|_| FifoIn::default()).collect(),
        }
    }

    /// Feed one cast received from the sender of rank `sender` at time
    /// `now_us`; `cast.id.seq` is its `fifo_seq`. Everything that becomes
    /// deliverable is appended to the caller's upcall vector as
    /// [`Upcall::Deliver`], in delivery order, so the per-message hot path
    /// allocates nothing. A cast [`RESEND_BUFFER`] or more past the next
    /// expected one is dropped: its sender can no longer re-send the cast
    /// the stream waits for, and holding it back would size the ring to
    /// the gap.
    pub fn on_cast(&mut self, sender: usize, cast: Delivered, now_us: u64, out: &mut Vec<Upcall>) {
        let Some(fifo) = self.per_sender.get_mut(sender) else {
            return;
        };
        let fifo_seq = cast.id.seq;
        if !fifo.synced {
            // First contact: adopt this stream position.
            fifo.synced = true;
            fifo.holdback.rebase(fifo_seq);
        } else if fifo_seq < fifo.holdback.base() {
            return; // duplicate
        } else if fifo_seq - fifo.holdback.base() >= RESEND_BUFFER as u64 {
            return; // past the sender's resend ring
        }
        fifo.holdback.insert(fifo_seq, cast);
        while let Some(Delivered { id, payload }) = fifo.holdback.take_next() {
            out.push(Upcall::Deliver { id, payload });
        }
        fifo.gap_since_us = if fifo.holdback.is_empty() {
            None
        } else {
            Some(fifo.gap_since_us.unwrap_or(now_us))
        };
    }

    /// Pin `sender`'s FIFO expectation to `fifo_next` (its advertised next
    /// outbound seq) if no cast from it has been seen yet. Heartbeats call
    /// this so a receiver that was present from the start of a stream
    /// expects seq 0 — making a dropped first cast a recoverable gap —
    /// while a late joiner still adopts the current stream position.
    /// No-op once an expectation exists: casts and the gap/NACK machinery
    /// own it from then on.
    pub fn sync_stream(&mut self, sender: usize, fifo_next: u64) {
        if let Some(fifo) = self.per_sender.get_mut(sender) {
            if !fifo.synced {
                fifo.synced = true;
                fifo.holdback.rebase(fifo_next);
            }
        }
    }

    /// Forget a departed sender's FIFO state so a rejoin starts cleanly.
    pub fn forget_sender(&mut self, sender: usize) {
        if let Some(fifo) = self.per_sender.get_mut(sender) {
            fifo.synced = false;
            fifo.holdback.clear();
            fifo.gap_since_us = None;
        }
    }

    /// Senders with a delivery gap older than [`NACK_AFTER_US`]: appends
    /// `(sender rank, first_missing_seq)` pairs in rank order to a
    /// caller-owned vector (the periodic tick reuses one, so a gap-free
    /// steady state is allocation-free) and refreshes their gap clocks so
    /// NACKs repeat at most once per interval.
    pub fn overdue_gaps(&mut self, now_us: u64, out: &mut Vec<(usize, u64)>) {
        for (sender, fifo) in self.per_sender.iter_mut().enumerate() {
            if let (Some(since), true) = (fifo.gap_since_us, fifo.synced) {
                if !fifo.holdback.is_empty() && now_us.saturating_sub(since) >= NACK_AFTER_US {
                    out.push((sender, fifo.holdback.base()));
                    fifo.gap_since_us = Some(now_us);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vce_net::{Addr, NodeId};

    /// `sender` (rank and node number alike) casts its `seq`th message;
    /// returns the ids of the casts that became deliverable.
    fn cast(st: &mut OrderingState, sender: u32, seq: u64, now: u64) -> Vec<BcastId> {
        let cast = Delivered {
            id: BcastId {
                origin: Addr::daemon(NodeId(sender)),
                seq,
            },
            payload: Bytes::from(format!("m{seq}")),
        };
        let mut out = Vec::new();
        st.on_cast(sender as usize, cast, now, &mut out);
        out.into_iter()
            .map(|up| match up {
                Upcall::Deliver { id, .. } => id,
                other => panic!("{other:?}"),
            })
            .collect()
    }

    fn gaps(st: &mut OrderingState, now: u64) -> Vec<(usize, u64)> {
        let mut out = Vec::new();
        st.overdue_gaps(now, &mut out);
        out
    }

    #[test]
    fn in_order_fifo_delivers_immediately() {
        let mut st = OrderingState::new(4);
        for s in 0..3 {
            let out = cast(&mut st, 1, s, 0);
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].seq, s);
        }
    }

    #[test]
    fn out_of_order_fifo_held_back_then_released() {
        let mut st = OrderingState::new(4);
        // Adopt stream at 0.
        assert_eq!(cast(&mut st, 1, 0, 0).len(), 1);
        // Gap: 2 before 1.
        assert!(cast(&mut st, 1, 2, 10).is_empty());
        let out = cast(&mut st, 1, 1, 20);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].seq, 1);
        assert_eq!(out[1].seq, 2);
    }

    #[test]
    fn duplicates_dropped() {
        let mut st = OrderingState::new(4);
        assert_eq!(cast(&mut st, 1, 0, 0).len(), 1);
        assert!(cast(&mut st, 1, 0, 1).is_empty());
    }

    #[test]
    fn first_contact_adopts_stream_position() {
        let mut st = OrderingState::new(4);
        // A late joiner first hears seq 41.
        let out = cast(&mut st, 1, 41, 0);
        assert_eq!(out.len(), 1);
        // 40 is now "duplicate" territory.
        assert!(cast(&mut st, 1, 40, 1).is_empty());
        assert_eq!(cast(&mut st, 1, 42, 2).len(), 1);
    }

    #[test]
    fn synced_stream_makes_head_of_stream_loss_a_gap() {
        let mut st = OrderingState::new(4);
        // Heartbeat pinned the stream start before any cast arrived.
        st.sync_stream(1, 0);
        // First cast seen is seq 1 (seq 0 was dropped): held back, not
        // adopted.
        assert!(cast(&mut st, 1, 1, 100).is_empty());
        // The gap is NACKable...
        assert_eq!(gaps(&mut st, 100 * NACK_AFTER_US), vec![(1, 0)]);
        // ...and the retransmit releases both in order.
        let out = cast(&mut st, 1, 0, 200 * NACK_AFTER_US);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].seq, 0);
        assert_eq!(out[1].seq, 1);
    }

    #[test]
    fn sync_stream_is_inert_once_casts_flow() {
        let mut st = OrderingState::new(4);
        assert_eq!(cast(&mut st, 1, 0, 0).len(), 1);
        // A stale (or fresher) advertisement must not rewind/skip.
        st.sync_stream(1, 0);
        st.sync_stream(1, 7);
        assert_eq!(cast(&mut st, 1, 1, 10).len(), 1);
    }

    #[test]
    fn late_joiner_adopts_advertised_position() {
        let mut st = OrderingState::new(4);
        // A joiner first hears a heartbeat advertising fifo_next = 41.
        st.sync_stream(1, 41);
        assert_eq!(cast(&mut st, 1, 41, 0).len(), 1);
        // Older history is duplicate territory, as with adoption.
        assert!(cast(&mut st, 1, 40, 1).is_empty());
    }

    #[test]
    fn gap_triggers_nack_once_per_interval() {
        let mut st = OrderingState::new(4);
        cast(&mut st, 1, 0, 0);
        let t = NACK_AFTER_US;
        cast(&mut st, 1, 5, t);
        assert!(gaps(&mut st, t + t / 2).is_empty()); // not overdue yet
        let n = gaps(&mut st, 2 * t + t / 2);
        assert_eq!(n, vec![(1, 1)]);
        // Refreshed: not again immediately.
        assert!(gaps(&mut st, 2 * t + t / 2 + t / 10).is_empty());
        assert_eq!(gaps(&mut st, 4 * t), vec![(1, 1)]);
    }

    #[test]
    fn gap_clock_clears_when_filled() {
        let mut st = OrderingState::new(4);
        cast(&mut st, 1, 0, 0);
        cast(&mut st, 1, 2, 10);
        cast(&mut st, 1, 1, 20);
        assert!(gaps(&mut st, 100 * NACK_AFTER_US).is_empty());
    }

    #[test]
    fn forget_sender_clears_state() {
        let mut st = OrderingState::new(4);
        cast(&mut st, 1, 0, 0);
        cast(&mut st, 1, 2, 1);
        st.forget_sender(1);
        // Fresh contact re-adopts.
        assert_eq!(cast(&mut st, 1, 9, 2).len(), 1);
    }

    #[test]
    fn a_rank_outside_the_group_is_ignored() {
        let mut st = OrderingState::new(2);
        st.sync_stream(2, 0);
        st.forget_sender(2);
        assert!(cast(&mut st, 2, 0, 0).is_empty());
        assert!(gaps(&mut st, 100 * NACK_AFTER_US).is_empty());
    }

    #[test]
    fn a_cast_past_the_resend_ring_is_refused() {
        let mut st = OrderingState::new(4);
        cast(&mut st, 1, 0, 0);
        cast(&mut st, 1, 2, 1); // held back for seq 1
        let ring = st.per_sender[1].holdback.capacity();
        assert!(cast(&mut st, 1, 1 << 40, 2).is_empty());
        assert_eq!(st.per_sender[1].holdback.len(), 1, "refused cast buffered");
        assert_eq!(st.per_sender[1].holdback.capacity(), ring, "ring grew");
        // The gap fills as before.
        assert_eq!(cast(&mut st, 1, 1, 3).len(), 2);
    }

    #[test]
    fn a_cast_just_inside_the_resend_ring_is_held_back() {
        let mut st = OrderingState::new(4);
        cast(&mut st, 1, 0, 0);
        let last = 1 + RESEND_BUFFER as u64 - 1;
        assert!(cast(&mut st, 1, last, 1).is_empty());
        assert!(cast(&mut st, 1, last + 1, 1).is_empty());
        assert_eq!(st.per_sender[1].holdback.len(), 1, "only the cast inside");
        assert!(st.per_sender[1].holdback.contains(last));
    }

    #[test]
    fn independent_senders_do_not_block_each_other() {
        let mut st = OrderingState::new(4);
        cast(&mut st, 1, 0, 0);
        cast(&mut st, 1, 5, 1); // gap on sender 1
        let out = cast(&mut st, 2, 0, 2);
        assert_eq!(out.len(), 1, "sender 2 unaffected by sender 1's gap");
    }
}
