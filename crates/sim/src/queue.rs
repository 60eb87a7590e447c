//! The event core: a two-level bucketed calendar queue (hierarchical timer
//! wheel) ordered by `(at_us, cause)`.
//!
//! # Why not a `BinaryHeap`?
//!
//! Every event in the simulator funnels through one priority queue, and the
//! dominant event class is *near-future* periodic work — heartbeats, CPU
//! checks, backoff probes — which is the worst case for a comparison heap
//! (every push/pop pays `O(log n)` sifts through cold memory) and the best
//! case for a timer wheel (`O(1)` amortized bucket append / cursor walk).
//!
//! # Structure
//!
//! * **Level 0 — the wheel.** `NUM_BUCKETS` ring slots of `BUCKET_US`
//!   microseconds each (~[`SPAN_US`] of horizon). An event whose slot
//!   (`at_us >> BUCKET_BITS`) lies inside the current admission window
//!   `[cur_slot, horizon_slot)` is appended, unsorted, to its bucket. When
//!   the drain cursor reaches a bucket, the bucket is sorted once by
//!   `(at_us, cause)` and popped from in order.
//! * **Level 1 — the overflow.** Events at or beyond `horizon_slot` go to a
//!   sorted overflow level (a min-heap on the same key). **Promotion rule:**
//!   only when the wheel runs completely dry does the window jump forward —
//!   `cur_slot` moves to the earliest overflow slot, `horizon_slot` to
//!   `cur_slot + NUM_BUCKETS`, and every overflow event now inside the
//!   window is scattered into its bucket. The admission horizon never moves
//!   between promotions, so a bucketed event is always earlier than every
//!   overflow event and the two levels never have to be compared.
//!
//! # Ordering contract
//!
//! Pop order is **exactly** ascending `(at_us, cause)`, where `cause` is a
//! **caller-supplied** tie-break key. The queue used to assign an internal
//! insertion sequence here, which made the total order depend on global
//! push order — fine for one serial queue, fatal for the sharded engine,
//! where S queues interleave pushes nondeterministically. The engine now
//! derives `cause` from the *creating* event (an `(origin node, per-origin
//! counter)` pair packed into one `u64`), which is a pure function of the
//! simulation itself, so the same total order falls out of any shard
//! count. Callers must keep `(at_us, cause)` pairs unique; equal keys pop
//! in an unspecified (but deterministic for a fixed push order) order.
//!
//! # The cursor never stays ahead of the earliest queued event
//!
//! `peek_time` moves the drain cursor to the next *occupied* bucket and
//! loads it, which can be far ahead of the caller's clock: a driver that
//! peeks, sees nothing due and then submits work at "now"; a shard whose
//! window ended before its next event and then receives a burst of mail
//! for the window after. Any later push may therefore land in or behind
//! `cur_slot`, and a burst of them must not turn the sorted in-flight run
//! (`current`) into the whole queue. `current` is always the earliest part
//! of the queue, and the cursor's own bucket may hold more of `cur_slot`'s
//! events, every one later than all of `current`; three rules keep it so:
//!
//! * **Later than the run** (`slot == cur_slot`, key above everything in
//!   `current`): append to `cur_slot`'s bucket, which is loaded when the
//!   run drains. A burst at one instant costs O(1) a push.
//! * **Hand-back** — when `current` holds only `cur_slot`'s events it can
//!   be returned to its bucket unsorted, and is (a) to *rewind*: a push at
//!   `slot < cur_slot` still inside the ring (`slot + NUM_BUCKETS >=
//!   horizon_slot`, so ring positions stay unique) moves `cur_slot` back
//!   to its slot, and the burst that follows lands in wheel buckets ahead
//!   of the cursor; and (b) when a push inside the run would bring the
//!   entries shifted since the run was loaded above the run's length: a
//!   run re-sorts once rather than `memmove` more than it holds.
//! * **Sorted insert** — everything else is binary-searched into the run:
//!   a cheap push inside it (the pop/push interleavings at one instant),
//!   and the two fallbacks the hand-back cannot serve — a push behind the
//!   ring, and a push behind a run that already spans slots (only an
//!   earlier fallback can make it so). Correct at any depth, `O(run)` a
//!   push; [`QueueStats`] counts what it costs and CI gates it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// log2 of the bucket width in microseconds (128 µs per bucket): fine
/// enough that a bucket rarely holds more than a handful of events, coarse
/// enough that periodic-timer slots are revisited (and their `Vec`
/// capacity reused) instead of sprayed across cold memory.
const BUCKET_BITS: u32 = 7;
/// Bucket width in microseconds.
const BUCKET_US: u64 = 1 << BUCKET_BITS;
/// Ring size. Must be a power of two (slot masking) and a multiple of 64
/// (occupancy bitmap words).
const NUM_BUCKETS: usize = 8192;
/// Wheel horizon: how far past the drain cursor an event may be admitted
/// to level 0 (~1.05 simulated seconds). Heartbeats, CPU checks and
/// backoff probes all live well inside this band.
pub const SPAN_US: u64 = NUM_BUCKETS as u64 * BUCKET_US;

const RING_MASK: usize = NUM_BUCKETS - 1;
const WORDS: usize = NUM_BUCKETS / 64;
/// Warm-buffer pool cap. Must exceed the number of simultaneously occupied
/// buckets a workload sustains, or drained capacity gets dropped and then
/// re-learned — one realloc chain per window jump, forever. 128 buffers of
/// steady-state size is a few hundred KiB at worst.
const SPARE_CAP: usize = 128;
/// Bucket buffers at or past this many entries (5 MiB of engine events)
/// grow by an eighth instead of doubling. Warm buffers circulate, so each
/// ends up with the capacity the fullest bucket ever needed; when that is
/// just past a power of two, doubling strands as much again in every one
/// of them (`storm_fleet`: fifteen buffers, 67,698 entries in the fullest).
const BIG_BUCKET: usize = 1 << 16;

/// One queued item with its ordering key.
#[derive(Debug)]
struct Entry<T> {
    at_us: u64,
    /// Caller-supplied tie-break key (the engine's cause key).
    cause_seq: u64,
    item: T,
}

impl<T> Entry<T> {
    #[inline]
    fn key(&self) -> (u64, u64) {
        (self.at_us, self.cause_seq)
    }
}

// Overflow-heap ordering: min on (at_us, cause) via `Reverse`.
impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// What the binary-search-and-`Vec::insert` path has cost so far: the only
/// place a push does work proportional to queue depth. Machine-independent,
/// so CI gates `entries_shifted` per event where wall-clock can only warn.
/// Diagnostic only — never part of a snapshot hash or a recording.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Pushes that were inserted into the sorted in-flight run.
    pub sorted_inserts: u64,
    /// Entries those inserts moved one place up (`memmove` length).
    pub entries_shifted: u64,
}

/// Two-level calendar queue with exact `(at_us, cause)` total order.
///
/// `cause` is supplied by the caller on every [`CalendarQueue::push`]; two
/// events at the same microsecond pop in ascending `cause` order.
pub struct CalendarQueue<T> {
    /// Level 0 ring; bucket `s & RING_MASK` holds slot `s`'s events,
    /// unsorted until the drain cursor reaches it.
    buckets: Vec<Vec<Entry<T>>>,
    /// Occupancy bitmap over ring positions (bit set ⇔ bucket non-empty).
    occupied: [u64; WORDS],
    /// Absolute slot (`at_us >> BUCKET_BITS`) currently being drained.
    cur_slot: u64,
    /// First slot *not* admitted to the wheel; events at `slot >=
    /// horizon_slot` go to the overflow level. Fixed between promotions.
    horizon_slot: u64,
    /// The in-flight run: sorted **descending** by `(at_us, cause)` so pops
    /// are `Vec::pop` from the tail. Earlier than everything else queued.
    current: Vec<Entry<T>>,
    /// Level 1: far-future events, min-heap on `(at_us, cause)`.
    overflow: BinaryHeap<Reverse<Entry<T>>>,
    /// Warm drained-bucket buffers. A sim revisits nearby ring slots but
    /// (over a long horizon) rarely the *same* slot, so capacity is pooled
    /// here instead of stranded in slots that won't be hit again; a fresh
    /// bucket's first push grabs a warm buffer and steady state allocates
    /// nothing.
    spare: Vec<Vec<Entry<T>>>,
    len: usize,
    /// Entries sorted inserts have shifted since `current` was loaded.
    run_shifted: usize,
    stats: QueueStats,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// An empty queue starting at time 0.
    pub fn new() -> Self {
        Self {
            buckets: std::iter::repeat_with(Vec::new).take(NUM_BUCKETS).collect(),
            occupied: [0u64; WORDS],
            cur_slot: 0,
            horizon_slot: NUM_BUCKETS as u64,
            current: Vec::new(),
            overflow: BinaryHeap::new(),
            spare: Vec::new(),
            len: 0,
            run_shifted: 0,
            stats: QueueStats::default(),
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Cost counters of the sorted-insert path since construction.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Insert `item` at absolute time `at_us` with tie-break key `cause`;
    /// events at the same microsecond pop in ascending `cause` order.
    pub fn push(&mut self, at_us: u64, cause: u64, item: T) {
        let entry = Entry {
            at_us,
            cause_seq: cause,
            item,
        };
        let slot = at_us >> BUCKET_BITS;
        if self.cur_slot < slot && slot < self.horizon_slot {
            self.push_bucket(entry);
        } else if slot >= self.horizon_slot {
            self.overflow.push(Reverse(entry));
        } else {
            self.push_at_or_behind_cursor(slot, entry);
        }
        self.len += 1;
    }

    /// Append to the entry's wheel bucket, through the warm pool: a cold
    /// bucket's first push would otherwise re-allocate capacity the drain
    /// cursor just pooled.
    #[inline]
    fn push_bucket(&mut self, entry: Entry<T>) {
        let ring = ((entry.at_us >> BUCKET_BITS) as usize) & RING_MASK;
        if self.buckets[ring].capacity() == 0 {
            if let Some(warm) = self.spare.pop() {
                self.buckets[ring] = warm;
            }
        }
        let bucket = &mut self.buckets[ring];
        if bucket.len() >= BIG_BUCKET && bucket.len() == bucket.capacity() {
            bucket.reserve_exact(bucket.len() / 8);
        }
        bucket.push(entry);
        self.occupied[ring / 64] |= 1u64 << (ring % 64);
    }

    /// `slot <= cur_slot`: the three rules of the module docs, in order.
    fn push_at_or_behind_cursor(&mut self, slot: u64, entry: Entry<T>) {
        let key = entry.key();
        let idx = self.current.partition_point(|e| e.key() > key);
        let shift = self.current.len() - idx;
        // `current` is descending and never holds a slot past `cur_slot`:
        // its tail (the minimum) being in `cur_slot` means all of it is.
        let run_is_one_bucket = self
            .current
            .last()
            .is_none_or(|e| e.at_us >> BUCKET_BITS == self.cur_slot);
        let hand_back = run_is_one_bucket
            && if slot < self.cur_slot {
                slot + NUM_BUCKETS as u64 >= self.horizon_slot
            } else {
                shift > 0 && self.run_shifted + shift > self.current.len()
            };
        if hand_back {
            let ring = (self.cur_slot as usize) & RING_MASK;
            if self.buckets[ring].is_empty() {
                std::mem::swap(&mut self.current, &mut self.buckets[ring]);
            } else {
                self.buckets[ring].append(&mut self.current);
            }
            if !self.buckets[ring].is_empty() {
                self.occupied[ring / 64] |= 1u64 << (ring % 64);
            }
            self.cur_slot = slot;
        }
        if slot == self.cur_slot && (hand_back || idx == 0) {
            self.push_bucket(entry);
            return;
        }
        self.stats.sorted_inserts += 1;
        self.stats.entries_shifted += shift as u64;
        self.run_shifted += shift;
        self.current.insert(idx, entry);
    }

    /// Timestamp of the earliest event, or `None` if empty. `&mut` because
    /// peeking may advance the drain cursor to (and sort) the next bucket.
    pub fn peek_time(&mut self) -> Option<u64> {
        if self.ensure_current() {
            self.current.last().map(|e| e.at_us)
        } else {
            None
        }
    }

    /// Remove and return the earliest event as `(at_us, cause, item)`.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        if !self.ensure_current() {
            return None;
        }
        let e = self.current.pop().expect("ensure_current guarantees one");
        self.len -= 1;
        Some((e.at_us, e.cause_seq, e.item))
    }

    /// Make `current` non-empty, advancing the cursor / promoting overflow
    /// as needed. Returns false iff the queue is empty.
    fn ensure_current(&mut self) -> bool {
        if !self.current.is_empty() {
            return true;
        }
        if self.len == 0 {
            return false;
        }
        loop {
            match self.next_occupied_slot() {
                Some(slot) => {
                    self.load_bucket(slot);
                    return true;
                }
                None => {
                    // Wheel dry: jump the window to the overflow's earliest
                    // slot and scatter everything now inside it.
                    let Some(Reverse(head)) = self.overflow.peek() else {
                        debug_assert_eq!(self.len, 0);
                        return false;
                    };
                    self.cur_slot = head.at_us >> BUCKET_BITS;
                    self.horizon_slot = self.cur_slot + NUM_BUCKETS as u64;
                    let bound = self.horizon_slot << BUCKET_BITS;
                    while let Some(Reverse(e)) = self.overflow.peek() {
                        if e.at_us >= bound {
                            break;
                        }
                        let Reverse(e) = self.overflow.pop().expect("peeked");
                        self.push_bucket(e);
                    }
                    // cur_slot's bucket is now occupied; next loop loads it.
                }
            }
        }
    }

    /// The earliest occupied slot in `[cur_slot, horizon_slot)`, via the
    /// bitmap (word-skipping scan in ring order from the cursor).
    fn next_occupied_slot(&self) -> Option<u64> {
        let start = (self.cur_slot as usize) & RING_MASK;
        // First (possibly partial) word: bits at/after the cursor.
        let mut word_idx = start / 64;
        let mut word = self.occupied[word_idx] & (!0u64 << (start % 64));
        for step in 0..=WORDS {
            if word != 0 {
                let ring = word_idx * 64 + word.trailing_zeros() as usize;
                // Ring position → absolute slot within the window.
                let delta = (ring.wrapping_sub(start) & RING_MASK) as u64;
                let slot = self.cur_slot + delta;
                if slot < self.horizon_slot {
                    return Some(slot);
                }
                // Occupied but past the horizon cannot happen (admission
                // keeps wheel events inside the window); defensive only.
                debug_assert!(false, "occupied bucket beyond horizon");
                return None;
            }
            if step == WORDS {
                break;
            }
            word_idx = (word_idx + 1) % WORDS;
            word = self.occupied[word_idx];
            if word_idx == start / 64 {
                // Wrapped: only bits *before* the cursor remain.
                word &= !(!0u64 << (start % 64));
            }
        }
        None
    }

    /// Move the drain cursor to `slot`: sort its bucket descending (pops
    /// are `Vec::pop` from the tail) and swap it in as the in-flight run.
    /// The drained buffer's capacity goes to the spare pool for reuse.
    fn load_bucket(&mut self, slot: u64) {
        self.cur_slot = slot;
        let ring = (slot as usize) & RING_MASK;
        let bucket = &mut self.buckets[ring];
        // Pushes mostly arrive in ascending key order, so buckets are
        // usually already ascending (frequently one timestamp run): detect
        // that with one pass and reverse, instead of a full sort.
        if bucket.windows(2).all(|w| w[0].key() < w[1].key()) {
            bucket.reverse();
        } else {
            bucket.sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
        }
        debug_assert!(self.current.is_empty());
        self.run_shifted = 0;
        std::mem::swap(&mut self.current, bucket);
        self.occupied[ring / 64] &= !(1u64 << (ring % 64));
        let warm = std::mem::take(bucket);
        if warm.capacity() > 0 && self.spare.len() < SPARE_CAP {
            self.spare.push(warm);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_cause_order() {
        let mut q = CalendarQueue::new();
        q.push(500, 1, "b");
        q.push(100, 2, "a");
        q.push(500, 3, "c");
        q.push(100, 4, "a2");
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek_time(), Some(100));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![(100, 2, "a"), (100, 4, "a2"), (500, 1, "b"), (500, 3, "c")]
        );
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cause_order_beats_push_order() {
        // The tie-break is the caller's key, not insertion order: pushing
        // the larger cause first must not change the pop order. This is
        // the property the sharded engine rests on — S queues push in
        // different interleavings but pop the same sequence.
        let mut q = CalendarQueue::new();
        q.push(100, 9, "late");
        q.push(100, 3, "early");
        assert_eq!(q.pop(), Some((100, 3, "early")));
        assert_eq!(q.pop(), Some((100, 9, "late")));
    }

    #[test]
    fn a_big_bucket_grows_by_an_eighth_not_by_doubling() {
        let mut q = CalendarQueue::new();
        // One bucket (slot 1), just past the power of two.
        let n = BIG_BUCKET as u64 + 100;
        for cause in 0..n {
            q.push(BUCKET_US + cause % BUCKET_US, cause, cause);
        }
        let cap = q.buckets[1].capacity();
        assert!(cap >= n as usize && cap <= BIG_BUCKET + BIG_BUCKET / 8 + 1);
        // Same contents, same order as any other bucket.
        let mut last = (0, 0);
        for _ in 0..n {
            let (at, cause, item) = q.pop().expect("n entries");
            assert!((at, cause) > last);
            assert_eq!((at, cause), (BUCKET_US + item % BUCKET_US, item));
            last = (at, cause);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_rides_the_overflow_level() {
        let mut q = CalendarQueue::new();
        // Beyond the wheel horizon → overflow, promoted on demand.
        q.push(3 * SPAN_US, 1, 1u32);
        q.push(10, 2, 0u32);
        q.push(7 * SPAN_US + 3, 3, 2u32);
        assert_eq!(q.pop(), Some((10, 2, 0)));
        assert_eq!(q.pop(), Some((3 * SPAN_US, 1, 1)));
        assert_eq!(q.pop(), Some((7 * SPAN_US + 3, 3, 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_instant_push_during_drain_keeps_order() {
        let mut q = CalendarQueue::new();
        q.push(100, 1, 0u32);
        q.push(100, 2, 1);
        assert_eq!(q.pop(), Some((100, 1, 0)));
        // Pushed mid-drain at the same instant: must pop after already
        // queued t=100 events (larger cause) but before t=101.
        q.push(100, 3, 2);
        q.push(101, 4, 3);
        assert_eq!(q.pop(), Some((100, 2, 1)));
        assert_eq!(q.pop(), Some((100, 3, 2)));
        assert_eq!(q.pop(), Some((101, 4, 3)));
        // And a mid-drain push with a *smaller* cause at the same instant
        // pops before larger-cause events still in flight.
        let mut q = CalendarQueue::new();
        q.push(200, 5, 0u32);
        q.push(200, 9, 1);
        assert_eq!(q.pop(), Some((200, 5, 0)));
        q.push(200, 7, 2);
        assert_eq!(q.pop(), Some((200, 7, 2)));
        assert_eq!(q.pop(), Some((200, 9, 1)));
    }

    #[test]
    fn interleaved_pushes_across_buckets() {
        let mut q = CalendarQueue::new();
        q.push(5 * BUCKET_US, 1, "far");
        q.push(1, 2, "near");
        assert_eq!(q.pop(), Some((1, 2, "near")));
        q.push(2 * BUCKET_US, 3, "mid");
        assert_eq!(q.pop(), Some((2 * BUCKET_US, 3, "mid")));
        assert_eq!(q.pop(), Some((5 * BUCKET_US, 1, "far")));
    }

    #[test]
    fn burst_behind_a_far_peek_goes_to_the_wheel() {
        // The shape `settle()` → `submit` produces: the next heartbeats sit
        // 100 ms out, a peek parks the cursor on them, then an application
        // starts at the clock and fans out — every pop spawns two pushes a
        // network latency (never under a bucket width) later until 10,000
        // are in, all inside [0, 6 ms).
        let mut q = CalendarQueue::new();
        let mut heap = BinaryHeap::new();
        let mut cause = 0u64;
        let mut push = |q: &mut CalendarQueue<()>, heap: &mut BinaryHeap<_>, at: u64| {
            cause += 1;
            q.push(at, cause, ());
            heap.push(Reverse((at, cause)));
        };
        for _ in 0..14 {
            push(&mut q, &mut heap, 100_000);
        }
        assert_eq!(q.peek_time(), Some(100_000));
        let mut lcg = 0x2545_F491_4F6C_DD1Du64;
        let mut latency = || {
            lcg = lcg
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            150 + (lcg >> 33) % 450
        };
        for _ in 0..64 {
            push(&mut q, &mut heap, 0);
        }
        let mut pushed = 64;
        while pushed < 10_000 {
            let Reverse(want) = heap.pop().expect("the fan-out never runs dry");
            let (at, c, ()) = q.pop().expect("same length as the heap");
            assert_eq!((at, c), want);
            for _ in 0..2 {
                let child = at + latency();
                assert!(child < 6_000);
                push(&mut q, &mut heap, child);
                pushed += 1;
            }
        }
        while let Some(Reverse(want)) = heap.pop() {
            assert_eq!(q.pop().map(|(at, c, ())| (at, c)), Some(want));
        }
        assert!(q.is_empty());
        let st = q.stats();
        assert!(
            st.entries_shifted < 2 * pushed,
            "{st:?} over {pushed} pushes: the in-flight run became the queue"
        );
    }

    #[test]
    fn burst_into_a_loaded_run_re_sorts_once() {
        // The shape a shard sees at S > 1: a window's last peek loads the
        // bucket of the next local events, then the next window's mail
        // arrives for the same instant with causes that interleave.
        let mut q = CalendarQueue::new();
        for c in 0..60 {
            q.push(1_000, 2 * c + 1, ());
        }
        assert_eq!(q.peek_time(), Some(1_000));
        for c in 0..72 {
            q.push(1_000, 2 * c, ());
        }
        assert!(q.stats().entries_shifted <= 60, "{:?}", q.stats());
        let mut want: Vec<u64> = (0..60)
            .map(|c| 2 * c + 1)
            .chain((0..72).map(|c| 2 * c))
            .collect();
        want.sort_unstable();
        let got: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, c, ())| c).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_then_reused_after_idle_gap() {
        let mut q = CalendarQueue::new();
        q.push(50, 1, ());
        assert_eq!(q.pop(), Some((50, 1, ())));
        assert_eq!(q.peek_time(), None);
        // Re-arm far past the original window (as run_until does after an
        // idle stretch).
        q.push(40 * SPAN_US, 2, ());
        q.push(40 * SPAN_US + BUCKET_US, 3, ());
        assert_eq!(q.pop(), Some((40 * SPAN_US, 2, ())));
        assert_eq!(q.pop(), Some((40 * SPAN_US + BUCKET_US, 3, ())));
    }
}
