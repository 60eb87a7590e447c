//! `bcast`/`reply` collection — the primitive behind Fig. 3's bidding.
//!
//! The paper's group leader broadcasts a state-disclosure request and
//! collects one reply per daemon (its pseudocode loops
//! `for (reps=0; reps<NUMINGRP; reps++) insertReplyIntoList()`). A
//! [`Collector`] tracks outstanding collected broadcasts; the owning
//! [`GroupMember`](crate::GroupMember) arms a deadline timer per collection
//! so a crashed daemon cannot hang the leader.

use std::collections::BTreeMap;

use bytes::Bytes;
use vce_net::Addr;

use crate::msg::BcastId;

/// Outcome of a finished collection.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectResult {
    /// The broadcast the replies answer.
    pub id: BcastId,
    /// Replies in arrival order.
    pub replies: Vec<(Addr, Bytes)>,
    /// True if the deadline expired before `expected` replies arrived.
    pub timed_out: bool,
}

#[derive(Debug)]
struct Pending {
    expected: usize,
    replies: Vec<(Addr, Bytes)>,
}

/// Book-keeping for outstanding collected broadcasts.
#[derive(Debug, Default)]
pub struct Collector {
    pending: BTreeMap<BcastId, Pending>,
    /// Reply vectors handed back via [`Collector::recycle`], reused by the
    /// next [`Collector::open`] so steady-state collection rounds don't
    /// allocate a fresh vector per round.
    spare: Vec<Vec<(Addr, Bytes)>>,
}

/// Cap on retained spare reply vectors ([`Collector::recycle`]).
const MAX_SPARE: usize = 8;

impl Collector {
    /// Fresh collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start collecting replies to `id`, expecting `expected` of them.
    pub fn open(&mut self, id: BcastId, expected: usize) {
        let mut replies = self.spare.pop().unwrap_or_default();
        replies.reserve(expected);
        self.pending.insert(id, Pending { expected, replies });
    }

    /// Hand a finished collection's reply vector back for reuse (payload
    /// views are dropped here, releasing their pooled buffers).
    pub fn recycle(&mut self, mut replies: Vec<(Addr, Bytes)>) {
        replies.clear();
        if self.spare.len() < MAX_SPARE && replies.capacity() > 0 {
            self.spare.push(replies);
        }
    }

    /// Record one reply. Returns the finished result once the expected
    /// count is reached. Replies to unknown/closed collections are ignored
    /// (stale bids from a previous request id — the tolerance the VCE
    /// scheduler depends on).
    pub fn on_reply(&mut self, id: BcastId, from: Addr, payload: Bytes) -> Option<CollectResult> {
        let pending = self.pending.get_mut(&id)?;
        // One reply per member: drop duplicates (retransmission artifacts).
        if pending.replies.iter().any(|(a, _)| *a == from) {
            return None;
        }
        pending.replies.push((from, payload));
        if pending.replies.len() >= pending.expected {
            let done = self.pending.remove(&id).expect("present");
            Some(CollectResult {
                id,
                replies: done.replies,
                timed_out: false,
            })
        } else {
            None
        }
    }

    /// Deadline expiry: close the collection with whatever arrived.
    /// Returns `None` if it already completed.
    pub fn on_deadline(&mut self, id: BcastId) -> Option<CollectResult> {
        self.pending.remove(&id).map(|p| CollectResult {
            id,
            replies: p.replies,
            timed_out: true,
        })
    }

    /// Number of collections still open.
    pub fn open_count(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vce_net::NodeId;

    fn id(s: u64) -> BcastId {
        BcastId {
            origin: Addr::leader(NodeId(0)),
            seq: s,
        }
    }

    fn a(n: u32) -> Addr {
        Addr::daemon(NodeId(n))
    }

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn completes_at_expected_count() {
        let mut c = Collector::new();
        c.open(id(1), 2);
        assert!(c.on_reply(id(1), a(1), b("x")).is_none());
        let r = c.on_reply(id(1), a(2), b("y")).unwrap();
        assert!(!r.timed_out);
        assert_eq!(r.replies.len(), 2);
        assert_eq!(c.open_count(), 0);
    }

    #[test]
    fn duplicate_replies_ignored() {
        let mut c = Collector::new();
        c.open(id(1), 2);
        assert!(c.on_reply(id(1), a(1), b("x")).is_none());
        assert!(c.on_reply(id(1), a(1), b("x-again")).is_none());
        let r = c.on_reply(id(1), a(2), b("y")).unwrap();
        assert_eq!(r.replies[0].1, b("x"));
    }

    #[test]
    fn stale_replies_ignored() {
        let mut c = Collector::new();
        assert!(c.on_reply(id(99), a(1), b("late bid")).is_none());
    }

    #[test]
    fn deadline_closes_with_partial_replies() {
        let mut c = Collector::new();
        c.open(id(2), 5);
        c.on_reply(id(2), a(1), b("x"));
        let r = c.on_deadline(id(2)).unwrap();
        assert!(r.timed_out);
        assert_eq!(r.replies.len(), 1);
        // Second deadline (stale timer) is a no-op.
        assert!(c.on_deadline(id(2)).is_none());
    }

    #[test]
    fn deadline_after_completion_is_noop() {
        let mut c = Collector::new();
        c.open(id(3), 1);
        assert!(c.on_reply(id(3), a(1), b("x")).is_some());
        assert!(c.on_deadline(id(3)).is_none());
    }

    #[test]
    fn zero_expected_never_autocompletes_but_deadline_works() {
        // expected 0 is degenerate; completion check happens on replies, so
        // the caller relies on the deadline.
        let mut c = Collector::new();
        c.open(id(4), 0);
        let r = c.on_deadline(id(4)).unwrap();
        assert!(r.timed_out);
        assert!(r.replies.is_empty());
    }

    #[test]
    fn concurrent_collections_are_independent() {
        let mut c = Collector::new();
        c.open(id(1), 1);
        c.open(id(2), 1);
        let r1 = c.on_reply(id(1), a(1), b("one")).unwrap();
        assert_eq!(r1.id, id(1));
        assert_eq!(c.open_count(), 1);
        let r2 = c.on_reply(id(2), a(2), b("two")).unwrap();
        assert_eq!(r2.id, id(2));
    }
}
