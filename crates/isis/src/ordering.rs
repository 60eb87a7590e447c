//! Inbound ordering pipeline: reliable per-sender FIFO at the bottom,
//! causal and total holdback on top.
//!
//! Every [`IsisMsg::Cast`](crate::IsisMsg) travels a per-sender FIFO stream
//! (`fifo_seq`). Receivers hold back out-of-order casts, deliver contiguous
//! runs, drop duplicates, and NACK persistent gaps so senders retransmit
//! from their resend buffers. On top of that base:
//!
//! * `Fifo` casts deliver as soon as the FIFO layer releases them;
//! * `Causal` casts additionally wait for the Birman–Schiper–Stephenson
//!   vector-clock condition;
//! * `Total` casts (emitted only by the sequencer) additionally wait for
//!   contiguous global sequence numbers.
//!
//! Senders are named by **rank**: their index in the group's sorted
//! candidate list, fixed when the group is configured. The per-sender
//! FIFO records live in a vector indexed by it, so the owning
//! [`GroupMember`](crate::GroupMember) resolves an address once per
//! message and everything here is an array access.

use bytes::Bytes;
use vce_net::SeqWindow;

use crate::member::NACK_AFTER_US;
use crate::msg::{BcastId, CastOrder};
use crate::vclock::VClock;

/// A cast released by the ordering pipeline, ready for the application.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivered {
    /// Broadcast identity; `id.origin` is where replies go.
    pub id: BcastId,
    /// Ordering discipline it was sent under.
    pub order: CastOrder,
    /// Application payload.
    pub payload: Bytes,
}

/// Fields of a cast that matter after the FIFO layer.
#[derive(Debug, Clone, PartialEq)]
pub struct CastData {
    /// Broadcast identity.
    pub id: BcastId,
    /// Discipline.
    pub order: CastOrder,
    /// Vector timestamp (causal only).
    pub vclock: Option<VClock>,
    /// Global sequence (total only).
    pub total_seq: Option<u64>,
    /// Payload.
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
    holdback: SeqWindow<CastData>,
    /// Time at which the current gap (if any) was first observed.
    gap_since_us: Option<u64>,
}

/// Per-group inbound ordering state.
///
/// Storage follows the arena mutability classes (`vce_net::arena`): the
/// per-sender table is a vector indexed by sender rank (the membership
/// universe is fixed, so nothing is ever inserted or removed — a forgotten
/// sender's record is emptied in place), holdback queues are [`SeqWindow`]
/// rings (dense seq-keyed), and the release pipeline reuses an internal
/// scratch vector — so a steady-state in-order stream delivers with zero
/// transient allocations.
#[derive(Debug)]
pub struct OrderingState {
    per_sender: Vec<FifoIn>,
    /// Causal state: delivered-count clock.
    local_vc: VClock,
    /// Held-back causal casts, with the rank of the transport sender.
    causal_holdback: Vec<(usize, CastData)>,
    /// Total state: next expected global seq (`None` ⇒ adopt first seen;
    /// once set, mirrors `total_holdback.base()`).
    next_total: Option<u64>,
    total_holdback: SeqWindow<CastData>,
    /// Reused between [`Self::on_cast`] calls for the FIFO release
    /// run (capacity retained, contents always drained).
    released_scratch: Vec<CastData>,
}

impl OrderingState {
    /// Fresh state for a group of `senders` candidates (ranks
    /// `0..senders`). Casts and advertisements from a rank outside that
    /// range are ignored.
    pub fn new(senders: usize) -> Self {
        Self {
            per_sender: (0..senders).map(|_| FifoIn::default()).collect(),
            local_vc: VClock::default(),
            causal_holdback: Vec::new(),
            next_total: None,
            total_holdback: SeqWindow::new(),
            released_scratch: Vec::new(),
        }
    }

    /// The local causal clock (exposed for stamping tests).
    pub fn local_vc(&self) -> &VClock {
        &self.local_vc
    }

    /// Feed one cast received from the sender of rank `transport_sender`
    /// at time `now_us`. Everything that becomes deliverable is appended to
    /// a caller-owned vector, in delivery order, so the per-message hot
    /// path allocates nothing.
    pub fn on_cast(
        &mut self,
        transport_sender: usize,
        fifo_seq: u64,
        data: CastData,
        now_us: u64,
        out: &mut Vec<Delivered>,
    ) {
        let Some(fifo) = self.per_sender.get_mut(transport_sender) else {
            return;
        };
        if !fifo.synced {
            // First contact: adopt this stream position.
            fifo.synced = true;
            fifo.holdback.rebase(fifo_seq);
        } else if fifo_seq < fifo.holdback.base() {
            return; // duplicate
        }
        fifo.holdback.insert(fifo_seq, data);

        // Release the contiguous run into the reused scratch (stolen and
        // reinstalled around `admit`, which needs `&mut self`).
        let mut released = std::mem::take(&mut self.released_scratch);
        debug_assert!(released.is_empty());
        while let Some(d) = fifo.holdback.take_next() {
            released.push(d);
        }
        fifo.gap_since_us = if fifo.holdback.is_empty() {
            None
        } else {
            Some(fifo.gap_since_us.unwrap_or(now_us))
        };

        for d in released.drain(..) {
            self.admit(transport_sender, d, out);
        }
        self.released_scratch = released;
    }

    /// Run a cast through its discipline-specific holdback.
    fn admit(&mut self, transport_sender: usize, d: CastData, out: &mut Vec<Delivered>) {
        match d.order {
            CastOrder::Fifo => out.push(Delivered {
                id: d.id,
                order: d.order,
                payload: d.payload,
            }),
            CastOrder::Causal => {
                self.causal_holdback.push((transport_sender, d));
                self.drain_causal(out);
            }
            CastOrder::Total => {
                let seq = d.total_seq.unwrap_or(0);
                if self.next_total.is_none() {
                    self.next_total = Some(seq);
                    self.total_holdback.rebase(seq);
                }
                if seq < self.next_total.expect("set above") {
                    return; // duplicate of an already delivered total cast
                }
                self.total_holdback.insert(seq, d);
                self.drain_total(out);
            }
        }
    }

    fn drain_causal(&mut self, out: &mut Vec<Delivered>) {
        loop {
            let idx = self.causal_holdback.iter().position(|(_, d)| {
                let sender = d.id.origin;
                d.vclock
                    .as_ref()
                    .is_none_or(|vc| self.local_vc.deliverable(sender, vc))
            });
            match idx {
                Some(i) => {
                    let (_, d) = self.causal_holdback.remove(i);
                    let sender = d.id.origin;
                    let new = self.local_vc.get(sender) + 1;
                    self.local_vc.set(sender, new);
                    out.push(Delivered {
                        id: d.id,
                        order: d.order,
                        payload: d.payload,
                    });
                }
                None => break,
            }
        }
    }

    fn drain_total(&mut self, out: &mut Vec<Delivered>) {
        while let Some(d) = self.total_holdback.take_next() {
            out.push(Delivered {
                id: d.id,
                order: d.order,
                payload: d.payload,
            });
        }
        if self.next_total.is_some() {
            self.next_total = Some(self.total_holdback.base());
        }
    }

    /// On a view change with a new sequencer, total-order numbering restarts
    /// (documented weakening): drop the holdback and adopt the next stream.
    pub fn reset_total_order(&mut self) {
        self.next_total = None;
        self.total_holdback.clear();
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
        self.causal_holdback.retain(|(s, _)| *s != sender);
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

    /// Total casts currently held back (diagnostics).
    pub fn total_holdback_len(&self) -> usize {
        self.total_holdback.len()
    }

    /// Causal casts currently held back (diagnostics).
    pub fn causal_holdback_len(&self) -> usize {
        self.causal_holdback.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vce_net::{Addr, NodeId};

    fn a(n: u32) -> Addr {
        Addr::daemon(NodeId(n))
    }

    fn cast(
        st: &mut OrderingState,
        sender: usize,
        seq: u64,
        data: CastData,
        now: u64,
    ) -> Vec<Delivered> {
        let mut out = Vec::new();
        st.on_cast(sender, seq, data, now, &mut out);
        out
    }

    fn gaps(st: &mut OrderingState, now: u64) -> Vec<(usize, u64)> {
        let mut out = Vec::new();
        st.overdue_gaps(now, &mut out);
        out
    }

    fn fifo_cast(origin: u32, seq: u64) -> CastData {
        CastData {
            id: BcastId {
                origin: a(origin),
                seq,
            },
            order: CastOrder::Fifo,
            vclock: None,
            total_seq: None,
            payload: Bytes::from(format!("m{seq}")),
        }
    }

    #[test]
    fn in_order_fifo_delivers_immediately() {
        let mut st = OrderingState::new(4);
        for s in 0..3 {
            let out = cast(&mut st, 1, s, fifo_cast(1, s), 0);
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].id.seq, s);
        }
    }

    #[test]
    fn out_of_order_fifo_held_back_then_released() {
        let mut st = OrderingState::new(4);
        // Adopt stream at 0.
        assert_eq!(cast(&mut st, 1, 0, fifo_cast(1, 0), 0).len(), 1);
        // Gap: 2 before 1.
        assert!(cast(&mut st, 1, 2, fifo_cast(1, 2), 10).is_empty());
        let out = cast(&mut st, 1, 1, fifo_cast(1, 1), 20);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].id.seq, 1);
        assert_eq!(out[1].id.seq, 2);
    }

    #[test]
    fn duplicates_dropped() {
        let mut st = OrderingState::new(4);
        assert_eq!(cast(&mut st, 1, 0, fifo_cast(1, 0), 0).len(), 1);
        assert!(cast(&mut st, 1, 0, fifo_cast(1, 0), 1).is_empty());
    }

    #[test]
    fn first_contact_adopts_stream_position() {
        let mut st = OrderingState::new(4);
        // A late joiner first hears seq 41.
        let out = cast(&mut st, 1, 41, fifo_cast(1, 41), 0);
        assert_eq!(out.len(), 1);
        // 40 is now "duplicate" territory.
        assert!(cast(&mut st, 1, 40, fifo_cast(1, 40), 1).is_empty());
        assert_eq!(cast(&mut st, 1, 42, fifo_cast(1, 42), 2).len(), 1);
    }

    #[test]
    fn synced_stream_makes_head_of_stream_loss_a_gap() {
        let mut st = OrderingState::new(4);
        // Heartbeat pinned the stream start before any cast arrived.
        st.sync_stream(1, 0);
        // First cast seen is seq 1 (seq 0 was dropped): held back, not
        // adopted.
        assert!(cast(&mut st, 1, 1, fifo_cast(1, 1), 100).is_empty());
        // The gap is NACKable...
        assert_eq!(gaps(&mut st, 100 * NACK_AFTER_US), vec![(1, 0)]);
        // ...and the retransmit releases both in order.
        let out = cast(&mut st, 1, 0, fifo_cast(1, 0), 200 * NACK_AFTER_US);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].id.seq, 0);
        assert_eq!(out[1].id.seq, 1);
    }

    #[test]
    fn sync_stream_is_inert_once_casts_flow() {
        let mut st = OrderingState::new(4);
        assert_eq!(cast(&mut st, 1, 0, fifo_cast(1, 0), 0).len(), 1);
        // A stale (or fresher) advertisement must not rewind/skip.
        st.sync_stream(1, 0);
        st.sync_stream(1, 7);
        assert_eq!(cast(&mut st, 1, 1, fifo_cast(1, 1), 10).len(), 1);
    }

    #[test]
    fn late_joiner_adopts_advertised_position() {
        let mut st = OrderingState::new(4);
        // A joiner first hears a heartbeat advertising fifo_next = 41.
        st.sync_stream(1, 41);
        assert_eq!(cast(&mut st, 1, 41, fifo_cast(1, 41), 0).len(), 1);
        // Older history is duplicate territory, as with adoption.
        assert!(cast(&mut st, 1, 40, fifo_cast(1, 40), 1).is_empty());
    }

    #[test]
    fn gap_triggers_nack_once_per_interval() {
        let mut st = OrderingState::new(4);
        cast(&mut st, 1, 0, fifo_cast(1, 0), 0);
        let t = NACK_AFTER_US;
        cast(&mut st, 1, 5, fifo_cast(1, 5), t);
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
        cast(&mut st, 1, 0, fifo_cast(1, 0), 0);
        cast(&mut st, 1, 2, fifo_cast(1, 2), 10);
        cast(&mut st, 1, 1, fifo_cast(1, 1), 20);
        assert!(gaps(&mut st, 100 * NACK_AFTER_US).is_empty());
    }

    fn causal_cast(origin: u32, my_count: u64, seen: &[(u32, u64)]) -> CastData {
        let mut vc = VClock::new();
        for &(n, v) in seen {
            vc.set(a(n), v);
        }
        vc.set(a(origin), my_count);
        CastData {
            id: BcastId {
                origin: a(origin),
                seq: my_count,
            },
            order: CastOrder::Causal,
            vclock: Some(vc),
            total_seq: None,
            payload: Bytes::from_static(b"c"),
        }
    }

    #[test]
    fn causal_waits_for_dependencies() {
        let mut st = OrderingState::new(4);
        // Node 2's message depends on node 1's first message.
        let dependent = causal_cast(2, 1, &[(1, 1)]);
        assert!(cast(&mut st, 2, 0, dependent, 0).is_empty());
        assert_eq!(st.causal_holdback_len(), 1);
        // Node 1's message arrives: both deliver, dependency first.
        let out = cast(&mut st, 1, 0, causal_cast(1, 1, &[]), 10);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].id.origin, a(1));
        assert_eq!(out[1].id.origin, a(2));
        assert_eq!(st.causal_holdback_len(), 0);
    }

    #[test]
    fn causal_in_order_from_one_sender() {
        let mut st = OrderingState::new(4);
        assert_eq!(cast(&mut st, 1, 0, causal_cast(1, 1, &[]), 0).len(), 1);
        assert_eq!(cast(&mut st, 1, 1, causal_cast(1, 2, &[]), 1).len(), 1);
        assert_eq!(st.local_vc().get(a(1)), 2);
    }

    fn total_cast(seq: u64) -> CastData {
        CastData {
            id: BcastId { origin: a(0), seq },
            order: CastOrder::Total,
            vclock: None,
            total_seq: Some(seq),
            payload: Bytes::from_static(b"t"),
        }
    }

    #[test]
    fn total_orders_by_global_seq() {
        let mut st = OrderingState::new(4);
        // fifo seqs in order (same sequencer), but pretend global seq gap:
        // adopt 5 first.
        assert_eq!(cast(&mut st, 0, 0, total_cast(5), 0).len(), 1);
        // 7 held until 6 arrives.
        assert!(cast(&mut st, 0, 2, total_cast(7), 1).is_empty());
        // Wait: fifo gap too (seq 1 missing). Fill fifo 1 with total 6.
        let out = cast(&mut st, 0, 1, total_cast(6), 2);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].payload, Bytes::from_static(b"t"));
        assert_eq!(st.total_holdback_len(), 0);
    }

    #[test]
    fn total_reset_adopts_new_sequencer() {
        let mut st = OrderingState::new(4);
        assert_eq!(cast(&mut st, 0, 0, total_cast(5), 0).len(), 1);
        st.reset_total_order();
        // New sequencer starts numbering at 0.
        let mut c = total_cast(0);
        c.id.origin = a(3);
        assert_eq!(cast(&mut st, 3, 0, c, 1).len(), 1);
    }

    #[test]
    fn forget_sender_clears_state() {
        let mut st = OrderingState::new(4);
        cast(&mut st, 1, 0, fifo_cast(1, 0), 0);
        cast(&mut st, 1, 2, fifo_cast(1, 2), 1);
        st.forget_sender(1);
        // Fresh contact re-adopts.
        assert_eq!(cast(&mut st, 1, 9, fifo_cast(1, 9), 2).len(), 1);
    }

    #[test]
    fn a_rank_outside_the_group_is_ignored() {
        let mut st = OrderingState::new(2);
        st.sync_stream(2, 0);
        st.forget_sender(2);
        assert!(cast(&mut st, 2, 0, fifo_cast(2, 0), 0).is_empty());
        assert!(gaps(&mut st, 100 * NACK_AFTER_US).is_empty());
    }

    #[test]
    fn independent_senders_do_not_block_each_other() {
        let mut st = OrderingState::new(4);
        cast(&mut st, 1, 0, fifo_cast(1, 0), 0);
        cast(&mut st, 1, 5, fifo_cast(1, 5), 1); // gap on sender 1
        let out = cast(&mut st, 2, 0, fifo_cast(2, 0), 2);
        assert_eq!(out.len(), 1, "sender 2 unaffected by sender 1's gap");
    }
}
