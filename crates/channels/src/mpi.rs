//! An MPI subset over VCE channels (§4.2: "Communication between tasks
//! will take place either through primitives defined in the MPI ...").
//!
//! The paper promises "a number of different libraries that will map MPI to
//! communication tools available in the system". This module is that
//! library: collectives (broadcast, barrier, reduce, allreduce, gather,
//! scatter) built from binomial trees over a point-to-point transport
//! trait, which [`ChannelConduit`] implements over the channel registry
//! (one rank per OS thread, every send routed by its destination port's
//! current location).
//!
//! Collective algorithms are the classic MPICH binomial/dissemination
//! shapes, so cost scales O(log n) in rounds.

use std::cell::Cell;

use vce_codec::{from_bytes, to_bytes, Codec};

use crate::conduit::{ChannelConduit, ConduitWorld};

/// A process index within a communicator.
pub type Rank = usize;

/// User message tags must stay below this; collectives use the space above.
pub const MAX_USER_TAG: u64 = 1 << 30;

/// Point-to-point byte transport between ranks.
///
/// `recv` blocks until a message with the exact `(from, tag)` pair arrives;
/// implementations must buffer mismatching arrivals (MPI envelope
/// matching).
pub trait PointToPoint {
    /// This process's rank.
    fn rank(&self) -> Rank;
    /// Number of ranks.
    fn size(&self) -> usize;
    /// Send bytes to a rank with a tag.
    fn send_bytes(&self, to: Rank, tag: u64, bytes: Vec<u8>);
    /// Blocking matched receive.
    fn recv_bytes(&self, from: Rank, tag: u64) -> Vec<u8>;
}

/// The MPI-style communicator: typed operations and collectives over any
/// [`PointToPoint`] transport.
pub struct Communicator<T: PointToPoint> {
    transport: T,
    /// Per-rank collective sequence number. MPI requires all ranks to call
    /// collectives in the same order, so local counters agree globally and
    /// serve as context ids.
    coll_seq: Cell<u64>,
}

impl<T: PointToPoint> Communicator<T> {
    /// Wrap a transport.
    pub fn new(transport: T) -> Self {
        Self {
            transport,
            coll_seq: Cell::new(0),
        }
    }

    /// This rank.
    pub fn rank(&self) -> Rank {
        self.transport.rank()
    }

    /// Communicator size.
    pub fn size(&self) -> usize {
        self.transport.size()
    }

    /// Typed point-to-point send.
    pub fn send<V: Codec>(&self, to: Rank, tag: u64, v: &V) {
        assert!(tag < MAX_USER_TAG, "tag too large");
        assert!(to < self.size(), "rank out of range");
        self.transport.send_bytes(to, tag, to_bytes(v));
    }

    /// Typed blocking receive.
    pub fn recv<V: Codec>(&self, from: Rank, tag: u64) -> V {
        assert!(tag < MAX_USER_TAG, "tag too large");
        let bytes = self.transport.recv_bytes(from, tag);
        from_bytes(&bytes).expect("peer sent a different type")
    }

    fn next_coll_tag(&self) -> u64 {
        let s = self.coll_seq.get();
        self.coll_seq.set(s + 1);
        MAX_USER_TAG + s
    }

    /// Broadcast from `root`: root passes `Some(v)`, others `None`; all
    /// return the value. Binomial tree, O(log n) rounds.
    pub fn bcast<V: Codec + Clone>(&self, root: Rank, v: Option<V>) -> V {
        let tag = self.next_coll_tag();
        let size = self.size();
        let me = self.rank();
        let vrank = (me + size - root) % size;
        let mut value = if me == root {
            to_bytes(&v.expect("root must supply the value"))
        } else {
            Vec::new()
        };
        // Find the lowest set bit of vrank: receive from the peer that bit
        // below, then forward to peers at lower bit positions.
        let mut mask = 1usize;
        while mask < size {
            if vrank & mask != 0 {
                let src = (vrank - mask + root) % size;
                value = self.transport.recv_bytes(src, tag);
                break;
            }
            mask <<= 1;
        }
        mask >>= 1;
        while mask > 0 {
            if vrank + mask < size {
                let dst = (vrank + mask + root) % size;
                self.transport.send_bytes(dst, tag, value.clone());
            }
            mask >>= 1;
        }
        from_bytes(&value).expect("bcast type mismatch")
    }

    /// Dissemination barrier: O(log n) rounds, no root.
    pub fn barrier(&self) {
        let tag = self.next_coll_tag();
        let size = self.size();
        let me = self.rank();
        let mut k = 1usize;
        while k < size {
            let to = (me + k) % size;
            let from = (me + size - k) % size;
            self.transport.send_bytes(to, tag, Vec::new());
            let _ = self.transport.recv_bytes(from, tag);
            k <<= 1;
        }
    }

    /// Reduce to `root` with a binary operator. Root gets `Some(result)`,
    /// others `None`. Binomial tree.
    pub fn reduce<V: Codec>(&self, root: Rank, v: V, op: impl Fn(V, V) -> V) -> Option<V> {
        let tag = self.next_coll_tag();
        let size = self.size();
        let me = self.rank();
        let vrank = (me + size - root) % size;
        let mut acc = v;
        let mut mask = 1usize;
        loop {
            if mask >= size {
                break;
            }
            if vrank & mask != 0 {
                let dst = (vrank - mask + root) % size;
                self.transport.send_bytes(dst, tag, to_bytes(&acc));
                return None;
            }
            if vrank + mask < size {
                let src = (vrank + mask + root) % size;
                let other: V =
                    from_bytes(&self.transport.recv_bytes(src, tag)).expect("reduce type");
                acc = op(acc, other);
            }
            mask <<= 1;
        }
        Some(acc)
    }

    /// Reduce-to-all: reduce to rank 0 then broadcast.
    pub fn allreduce<V: Codec + Clone>(&self, v: V, op: impl Fn(V, V) -> V) -> V {
        let partial = self.reduce(0, v, op);
        self.bcast(0, partial)
    }

    /// Gather all ranks' values at `root` (rank order). Root gets
    /// `Some(vec)`, others `None`.
    pub fn gather<V: Codec>(&self, root: Rank, v: V) -> Option<Vec<V>> {
        let tag = self.next_coll_tag();
        let me = self.rank();
        if me == root {
            let mut out = Vec::with_capacity(self.size());
            for r in 0..self.size() {
                if r == me {
                    out.push(from_bytes(&to_bytes(&v)).expect("self"));
                } else {
                    out.push(from_bytes(&self.transport.recv_bytes(r, tag)).expect("gather"));
                }
            }
            Some(out)
        } else {
            self.transport.send_bytes(root, tag, to_bytes(&v));
            None
        }
    }

    /// Scatter a vector from `root`: rank `i` receives element `i`.
    pub fn scatter<V: Codec>(&self, root: Rank, items: Option<Vec<V>>) -> V {
        let tag = self.next_coll_tag();
        let me = self.rank();
        if me == root {
            let items = items.expect("root must supply items");
            assert_eq!(items.len(), self.size(), "scatter arity");
            let mut own = None;
            for (r, item) in items.into_iter().enumerate() {
                if r == me {
                    own = Some(item);
                } else {
                    self.transport.send_bytes(r, tag, to_bytes(&item));
                }
            }
            own.expect("own element present")
        } else {
            from_bytes(&self.transport.recv_bytes(root, tag)).expect("scatter type")
        }
    }
}

/// Run `f(comm)` on `n` ranks of a fresh [`ConduitWorld`], one thread
/// each, collecting rank-ordered results. The standard harness for
/// MPI-style tests.
pub fn run_ranks<R: Send + 'static>(
    n: usize,
    f: impl Fn(&Communicator<ChannelConduit>) -> R + Send + Sync + 'static,
) -> Vec<R> {
    let (_world, conduits) = ConduitWorld::create(n);
    let f = std::sync::Arc::new(f);
    let handles: Vec<_> = conduits
        .into_iter()
        .map(|c| {
            let f = std::sync::Arc::clone(&f);
            // vce-lint: allow(D004) run_ranks is the MPI test harness: one OS thread per rank, as MPI ranks are processes
            std::thread::spawn(move || f(&Communicator::new(c)))
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("rank panicked"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_to_point_typed() {
        let results = run_ranks(2, |c| {
            if c.rank() == 0 {
                c.send(1, 7, &("hi".to_string(), 42u64));
                0u64
            } else {
                let (s, n): (String, u64) = c.recv(0, 7);
                assert_eq!(s, "hi");
                n
            }
        });
        assert_eq!(results, vec![0, 42]);
    }

    #[test]
    fn out_of_order_tags_are_matched() {
        let results = run_ranks(2, |c| {
            if c.rank() == 0 {
                c.send(1, 1, &1u64);
                c.send(1, 2, &2u64);
                0
            } else {
                // Receive tag 2 first although tag 1 arrived first.
                let b: u64 = c.recv(0, 2);
                let a: u64 = c.recv(0, 1);
                a * 10 + b
            }
        });
        assert_eq!(results[1], 12);
    }

    #[test]
    fn bcast_from_every_root() {
        for root in 0..5 {
            let results = run_ranks(5, move |c| {
                let v = if c.rank() == root {
                    Some(format!("from-{root}"))
                } else {
                    None
                };
                c.bcast(root, v)
            });
            assert!(results.iter().all(|r| r == &format!("from-{root}")));
        }
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let before = Arc::new(AtomicUsize::new(0));
        let b2 = Arc::clone(&before);
        let results = run_ranks(6, move |c| {
            b2.fetch_add(1, Ordering::SeqCst);
            c.barrier();
            // After the barrier every rank must observe all increments.
            b2.load(Ordering::SeqCst)
        });
        assert!(results.iter().all(|&r| r == 6), "{results:?}");
    }

    #[test]
    fn reduce_sums_at_root() {
        let results = run_ranks(7, |c| c.reduce(3, c.rank() as u64, |a, b| a + b));
        for (r, res) in results.iter().enumerate() {
            if r == 3 {
                assert_eq!(*res, Some(21)); // 0+1+...+6
            } else {
                assert_eq!(*res, None);
            }
        }
    }

    #[test]
    fn allreduce_max_everywhere() {
        let results = run_ranks(9, |c| c.allreduce(c.rank() as u64 * 3, std::cmp::max));
        assert!(results.iter().all(|&r| r == 24));
    }

    #[test]
    fn gather_in_rank_order() {
        let results = run_ranks(4, |c| c.gather(0, (c.rank() as u64) * 2));
        assert_eq!(results[0], Some(vec![0, 2, 4, 6]));
        assert!(results[1..].iter().all(|r| r.is_none()));
    }

    #[test]
    fn scatter_distributes() {
        let results = run_ranks(4, |c| {
            let items = (c.rank() == 2).then(|| vec![10u64, 11, 12, 13]);
            c.scatter(2, items)
        });
        assert_eq!(results, vec![10, 11, 12, 13]);
    }

    #[test]
    fn collectives_compose_in_sequence() {
        // Mixed sequence exercises the collective context-id counters.
        let results = run_ranks(5, |c| {
            let sum = c.allreduce(1u64, |a, b| a + b);
            c.barrier();
            let v = c.bcast(0, (c.rank() == 0).then_some(sum * 2));
            let g = c.gather(4, v);
            (v, g.map(|g| g.len()))
        });
        for (r, (v, g)) in results.iter().enumerate() {
            assert_eq!(*v, 10);
            assert_eq!(*g, (r == 4).then_some(5));
        }
    }

    #[test]
    fn single_rank_degenerate_cases() {
        let results = run_ranks(1, |c| {
            c.barrier();
            let b = c.bcast(0, Some(9u64));
            let r = c.reduce(0, 5u64, |a, b| a + b);
            let g = c.gather(0, 1u64);
            let s = c.scatter(0, Some(vec![7u64]));
            (b, r, g, s)
        });
        assert_eq!(results[0], (9, Some(5), Some(vec![1]), 7));
    }

    #[test]
    #[should_panic(expected = "tag too large")]
    fn user_tags_cannot_collide_with_collectives() {
        let (_world, conduits) = ConduitWorld::create(1);
        let c = Communicator::new(conduits.into_iter().next().unwrap());
        c.send(0, MAX_USER_TAG, &0u8);
    }
}
