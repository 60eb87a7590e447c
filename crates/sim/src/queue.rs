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
//!   `NUM_BUCKETS` past the slot the drain stopped in (past the earliest
//!   overflow slot when that is a whole ring or more ahead), and every
//!   overflow event now inside the window is scattered into its bucket.
//!   The admission horizon never moves between promotions, so a bucketed
//!   event is always earlier than every overflow event and the two levels
//!   never have to be compared.
//!
//! # Memory: buckets are chunk chains
//!
//! A bucket is a chain of chunks of [`CHUNK`] entries, newest first, and
//! every chunk comes from one free list per queue, so the capacity the
//! queue keeps follows what it holds. (Bucket `Vec`s that circulated
//! through a pool of warm buffers each ended up as large as the fullest
//! bucket ever was: on `storm_fleet` fourteen buffers of 65–74 k entries
//! held 194,560 queued events.) Chunks and the run hold `Option<Entry>`,
//! so an entry can be taken out of its chunk by position; the engine's
//! event has a niche, so the `Option` costs no byte. Loading a bucket
//! depends only on its own length:
//!
//! * **one chunk** — the chunk's buffer is swapped with the run's, then
//!   checked and reversed or sorted in place: no entry is copied;
//! * **several chunks** — a stable counting sort on the microsecond
//!   (`at_us & (BUCKET_US - 1)`, the only part of the key a bucket's
//!   entries differ in besides `cause`). One pass counts the bucket's
//!   [`BUCKET_US`] microseconds; one writes a `u32` position (chunk and
//!   index) per entry into the run's order, walking the newest chunk first
//!   and each chunk back to front; one moves every entry once, from its
//!   chunk straight to its place in one large run buffer. Each
//!   microsecond's group so comes out in reverse push order, which is
//!   descending `cause` whenever its pushes arrived in ascending `cause`;
//!   a check pass comparison-sorts only a group that did not. The large
//!   buffer is `parked` while one-chunk runs are served.
//!
//! [`QueueStats::retained`] counts the capacity all of it holds, and
//! [`QueueStats::entries_sorted`] the entries a load had to
//! comparison-sort.
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
//!   run re-sorts once rather than `memmove` more than it holds. A
//!   promotion keeps the slot the drain stopped in inside the ring for
//!   this reason: a peek that promotes must not strand the caller's clock
//!   behind it.
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
/// enough that a millisecond's periodic timers share a few chunks instead
/// of holding one mostly empty chunk each. A multi-chunk load counts one
/// slot per microsecond of the bucket, so this is also the size of its
/// counting-sort table.
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
/// Entries per bucket chunk. Every `storm_dense` bucket fits in one, and
/// so does nearly every application bucket (an opening burst need not:
/// `queue_shift`'s 64-task bag fills two past it), so those are served in
/// place; a bucket of several is counting-sorted into the large run
/// buffer, each entry moved once.
pub const CHUNK: usize = 256;
/// A load's position packs a chunk index above `CHUNK_BITS` bits of index
/// within the chunk.
const CHUNK_BITS: u32 = CHUNK.trailing_zeros();
const _: () = assert!(CHUNK.is_power_of_two());
/// Chunks a queue may allocate: every position must fit a `u32`.
const MAX_CHUNKS: usize = 1 << (u32::BITS - CHUNK_BITS);

const RING_MASK: usize = NUM_BUCKETS - 1;
const WORDS: usize = NUM_BUCKETS / 64;
/// No chunk: the end of a chain, an empty bucket, an empty free list.
const NIL: u32 = u32::MAX;

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

/// The key of a chunk or run entry; each is `Some` until a load moves it.
#[inline]
fn key_of<T>(e: &Option<Entry<T>>) -> (u64, u64) {
    e.as_ref().expect("a queued entry").key()
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

/// Up to [`CHUNK`] entries of one bucket, in push order.
struct Chunk<T> {
    entries: Vec<Option<Entry<T>>>,
    /// The bucket's next older chunk, or — on the free list — the next
    /// free chunk.
    next: u32,
}

/// What the queue costs beyond `O(1)` a push and a pop. Two costs: the
/// binary-search-and-`Vec::insert` path, the only place a push does work
/// proportional to queue depth; and the memory the queue keeps. Both are
/// machine-independent, so CI gates them where wall-clock and RSS can only
/// warn. Diagnostic only — never part of a snapshot hash or a recording.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Pushes that were inserted into the sorted in-flight run.
    pub sorted_inserts: u64,
    /// Entries those inserts moved one place up (`memmove` length).
    pub entries_shifted: u64,
    /// Entries of capacity held now: every chunk, the run, the parked run
    /// buffer and — in entry-sized units — a load's position list.
    pub retained: u64,
    /// Most entries queued at once.
    pub peak_len: u64,
    /// Most entries one bucket load put in the run.
    pub largest_run: u64,
    /// Entries a bucket load had to comparison-sort: a one-chunk bucket
    /// not pushed in key order, or a microsecond of a multi-chunk bucket
    /// not pushed in `cause` order.
    pub entries_sorted: u64,
}

impl std::ops::Add for QueueStats {
    type Output = Self;

    fn add(self, b: Self) -> Self {
        Self {
            sorted_inserts: self.sorted_inserts + b.sorted_inserts,
            entries_shifted: self.entries_shifted + b.entries_shifted,
            retained: self.retained + b.retained,
            peak_len: self.peak_len + b.peak_len,
            largest_run: self.largest_run + b.largest_run,
            entries_sorted: self.entries_sorted + b.entries_sorted,
        }
    }
}

/// Two-level calendar queue with exact `(at_us, cause)` total order.
///
/// `cause` is supplied by the caller on every [`CalendarQueue::push`]; two
/// events at the same microsecond pop in ascending `cause` order.
pub struct CalendarQueue<T> {
    /// Level 0 ring: bucket `s & RING_MASK` holds slot `s`'s events,
    /// unsorted until the drain cursor reaches it, as a chain from its
    /// newest chunk (an index into `chunks`, `NIL` when empty).
    heads: Box<[u32; NUM_BUCKETS]>,
    /// Occupancy bitmap over ring positions (bit set ⇔ bucket non-empty).
    occupied: [u64; WORDS],
    /// Every chunk the queue has allocated, in a bucket's chain or free.
    chunks: Vec<Chunk<T>>,
    /// Head of the free list, threaded through `Chunk::next`.
    free: u32,
    /// Absolute slot (`at_us >> BUCKET_BITS`) currently being drained.
    cur_slot: u64,
    /// First slot *not* admitted to the wheel; events at `slot >=
    /// horizon_slot` go to the overflow level. Fixed between promotions.
    horizon_slot: u64,
    /// The in-flight run: sorted **descending** by `(at_us, cause)` so pops
    /// are `Vec::pop` from the tail. Earlier than everything else queued.
    current: Vec<Option<Entry<T>>>,
    /// The run buffer `current` is not using: the large one while a
    /// one-chunk run is served, a chunk's while a large run is.
    parked: Vec<Option<Entry<T>>>,
    /// Whether `current` is the large run buffer.
    large_run: bool,
    /// A multi-chunk load's source for each place in the run, as
    /// `chunk << CHUNK_BITS | index`.
    positions: Vec<u32>,
    /// Level 1: far-future events, min-heap on `(at_us, cause)`.
    overflow: BinaryHeap<Reverse<Entry<T>>>,
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
            heads: Box::new([NIL; NUM_BUCKETS]),
            occupied: [0u64; WORDS],
            chunks: Vec::new(),
            free: NIL,
            cur_slot: 0,
            horizon_slot: NUM_BUCKETS as u64,
            // Chunk-sized: a one-chunk load hands this buffer to the chunk.
            current: Vec::with_capacity(CHUNK),
            parked: Vec::new(),
            large_run: false,
            positions: Vec::new(),
            overflow: BinaryHeap::new(),
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

    /// Cost counters since construction, and the capacity held now.
    pub fn stats(&self) -> QueueStats {
        let chunks: usize = self.chunks.iter().map(|c| c.entries.capacity()).sum();
        let positions = (self.positions.capacity() * std::mem::size_of::<u32>())
            .div_ceil(std::mem::size_of::<Option<Entry<T>>>());
        QueueStats {
            retained: (chunks + self.current.capacity() + self.parked.capacity() + positions)
                as u64,
            ..self.stats
        }
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
        self.stats.peak_len = self.stats.peak_len.max(self.len as u64);
    }

    /// Append to the newest chunk of the entry's wheel bucket, chaining a
    /// free one in front when it is full or the bucket empty.
    #[inline]
    fn push_bucket(&mut self, entry: Entry<T>) {
        let ring = ((entry.at_us >> BUCKET_BITS) as usize) & RING_MASK;
        let mut head = self.heads[ring];
        if head == NIL || self.chunks[head as usize].entries.len() == CHUNK {
            head = self.take_chunk(head);
            self.heads[ring] = head;
            self.occupied[ring / 64] |= 1u64 << (ring % 64);
        }
        self.chunks[head as usize].entries.push(Some(entry));
    }

    /// A free chunk — or a new one — whose chain continues at `older`.
    fn take_chunk(&mut self, older: u32) -> u32 {
        let c = if self.free == NIL {
            assert!(
                self.chunks.len() < MAX_CHUNKS,
                "a queue of {MAX_CHUNKS} chunks: a load position must fit a u32"
            );
            self.chunks.push(Chunk {
                entries: Vec::with_capacity(CHUNK),
                next: NIL,
            });
            (self.chunks.len() - 1) as u32
        } else {
            let c = self.free;
            self.free = self.chunks[c as usize].next;
            c
        };
        self.chunks[c as usize].next = older;
        c
    }

    /// Put the emptied chunk `c` on the free list; returns where its chain
    /// continued.
    fn free_chunk(&mut self, c: u32) -> u32 {
        let chunk = &mut self.chunks[c as usize];
        debug_assert!(chunk.entries.is_empty());
        let next = std::mem::replace(&mut chunk.next, self.free);
        self.free = c;
        next
    }

    /// `slot <= cur_slot`: the three rules of the module docs, in order.
    fn push_at_or_behind_cursor(&mut self, slot: u64, entry: Entry<T>) {
        let key = entry.key();
        let idx = self.current.partition_point(|e| key_of(e) > key);
        let shift = self.current.len() - idx;
        // `current` is descending and never holds a slot past `cur_slot`:
        // its tail (the minimum) being in `cur_slot` means all of it is.
        let run_is_one_bucket = self
            .current
            .last()
            .is_none_or(|e| key_of(e).0 >> BUCKET_BITS == self.cur_slot);
        let hand_back = run_is_one_bucket
            && if slot < self.cur_slot {
                slot + NUM_BUCKETS as u64 >= self.horizon_slot
            } else {
                shift > 0 && self.run_shifted + shift > self.current.len()
            };
        if hand_back {
            // Popped ascending, so an untouched run reloads without a sort.
            while let Some(e) = self.current.pop().flatten() {
                self.push_bucket(e);
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
        self.current.insert(idx, Some(entry));
    }

    /// Timestamp of the earliest event, or `None` if empty. `&mut` because
    /// peeking may advance the drain cursor to (and sort) the next bucket.
    pub fn peek_time(&mut self) -> Option<u64> {
        if self.ensure_current() {
            self.current.last().map(|e| key_of(e).0)
        } else {
            None
        }
    }

    /// The item `k + 1` pops from now will return (`k = 0` is the next),
    /// if it is in the loaded run; `None` past the run's end. Read-only: it
    /// never loads a bucket, so a `None` says nothing about the queue.
    #[inline]
    pub fn peek_nth(&self, k: usize) -> Option<&T> {
        let i = self.current.len().checked_sub(k + 1)?;
        self.current[i].as_ref().map(|e| &e.item)
    }

    /// Remove and return the earliest event as `(at_us, cause, item)`.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        if !self.ensure_current() {
            return None;
        }
        let e = self
            .current
            .pop()
            .flatten()
            .expect("ensure_current guarantees one");
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
                    // slot and scatter everything now inside it. The ring
                    // starts where the drain stopped if the head is less
                    // than a ring past it, so a push at the clock the
                    // caller still stands at can rewind.
                    let Some(Reverse(head)) = self.overflow.peek() else {
                        debug_assert_eq!(self.len, 0);
                        return false;
                    };
                    let head_slot = head.at_us >> BUCKET_BITS;
                    let base = if head_slot - self.cur_slot < NUM_BUCKETS as u64 {
                        self.cur_slot
                    } else {
                        head_slot
                    };
                    self.cur_slot = head_slot;
                    self.horizon_slot = base + NUM_BUCKETS as u64;
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

    /// Move the drain cursor to `slot` and make its bucket the in-flight
    /// run, sorted descending (pops are `Vec::pop` from the tail); its
    /// chunks go back to the free list.
    fn load_bucket(&mut self, slot: u64) {
        self.cur_slot = slot;
        let ring = (slot as usize) & RING_MASK;
        let head = std::mem::replace(&mut self.heads[ring], NIL);
        self.occupied[ring / 64] &= !(1u64 << (ring % 64));
        debug_assert!(head != NIL && self.current.is_empty());
        self.run_shifted = 0;
        if self.chunks[head as usize].next == NIL {
            if self.large_run {
                std::mem::swap(&mut self.current, &mut self.parked);
                self.large_run = false;
            }
            std::mem::swap(&mut self.current, &mut self.chunks[head as usize].entries);
            self.free_chunk(head);
            // Pushes mostly arrive in ascending key order, so buckets are
            // usually already ascending (frequently one timestamp run):
            // detect that with one pass and reverse, instead of a full
            // sort.
            if self
                .current
                .windows(2)
                .all(|w| key_of(&w[0]) < key_of(&w[1]))
            {
                self.current.reverse();
            } else {
                self.current.sort_unstable_by_key(|e| Reverse(key_of(e)));
                self.stats.entries_sorted += self.current.len() as u64;
            }
        } else {
            if !self.large_run {
                std::mem::swap(&mut self.current, &mut self.parked);
                self.large_run = true;
            }
            self.load_chain(head);
        }
        self.stats.largest_run = self.stats.largest_run.max(self.current.len() as u64);
    }

    /// The multi-chunk load of the module docs: a counting sort on the
    /// microsecond into the empty large run buffer, then a comparison sort
    /// of any microsecond whose pushes were not in `cause` order.
    fn load_chain(&mut self, head: u32) {
        const MICROS: usize = BUCKET_US as usize;
        // Pass 1: entries per microsecond, then where each microsecond's
        // group starts in the descending run — the latest first.
        let mut next = [0usize; MICROS];
        let mut c = head;
        while c != NIL {
            let chunk = &self.chunks[c as usize];
            for e in &chunk.entries {
                debug_assert_eq!(key_of(e).0 >> BUCKET_BITS, self.cur_slot);
                next[key_of(e).0 as usize % MICROS] += 1;
            }
            c = chunk.next;
        }
        let mut n = 0;
        for m in (0..MICROS).rev() {
            n += std::mem::replace(&mut next[m], n);
        }
        // Pass 2: each entry's source, at its place. Newest chunk first and
        // each chunk back to front, so a group is in reverse push order.
        self.positions.clear();
        self.positions.resize(n, 0);
        let mut c = head;
        while c != NIL {
            let chunk = &self.chunks[c as usize];
            for (i, e) in chunk.entries.iter().enumerate().rev() {
                let m = key_of(e).0 as usize % MICROS;
                self.positions[next[m]] = (c << CHUNK_BITS) | i as u32;
                next[m] += 1;
            }
            c = chunk.next;
        }
        // Pass 3: move every entry once, chunk to run.
        if self.current.capacity() < n {
            // Empty, so nothing to copy: trade it for an exact fit.
            self.current = Vec::with_capacity(n);
        }
        let chunks = &mut self.chunks;
        self.current.extend(
            self.positions
                .iter()
                .map(|&p| chunks[(p >> CHUNK_BITS) as usize].entries[p as usize % CHUNK].take()),
        );
        let mut c = head;
        while c != NIL {
            self.chunks[c as usize].entries.clear();
            c = self.free_chunk(c);
        }
        // `next[m]` now ends microsecond m's group.
        let mut start = 0;
        for &end in next.iter().rev() {
            let group = &mut self.current[start..end];
            start = end;
            if !group.windows(2).all(|w| key_of(&w[0]) > key_of(&w[1])) {
                group.sort_unstable_by_key(|e| Reverse(key_of(e)));
                self.stats.entries_sorted += group.len() as u64;
            }
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
    fn retained_capacity_follows_what_is_queued() {
        // `storm_fleet`'s shape, smaller: every 1,024 µs wave arms 10,000
        // watchdogs that wait ten waves — ten buckets of them are always
        // queued — delivers 60,000 messages into the bucket of the oldest
        // ten before the cursor reaches it, and ticks 100 times in another.
        // Bucket buffers that circulated through a warm pool each grew to
        // the 70 k bucket: 884,736 entries retained, 2.95× the peak queued
        // plus the largest run. Chunks keep what is queued, plus the one
        // large run buffer, which one-chunk loads leave parked: 232,816,
        // 0.78×.
        let mut q = CalendarQueue::new();
        let mut cause = 0u64;
        let mut last = (0, 0);
        for wave in 0..24u64 {
            let now = wave * 1_024;
            for _ in 0..10_000 {
                cause += 1;
                q.push(now + 10 * 1_024 + 3 * BUCKET_US, cause, cause);
            }
            for i in 0..60_000 {
                cause += 1;
                q.push(now + 1_024 + 3 * BUCKET_US + i / 500, cause, cause);
            }
            for _ in 0..100 {
                cause += 1;
                q.push(now + 5 * BUCKET_US, cause, cause);
            }
            while q.peek_time().is_some_and(|at| at < now + 1_024) {
                let (at, c, item) = q.pop().expect("peeked");
                assert!((at, c) > last && c == item);
                last = (at, c);
            }
        }
        let st = q.stats();
        assert_eq!(st.largest_run, 70_000);
        assert!(
            st.retained * 10 <= (st.peak_len + st.largest_run) * 11,
            "{st:?}"
        );
    }

    #[test]
    fn a_microsecond_pushed_in_descending_cause_is_sorted_alone() {
        // Three chunks of one bucket. Every microsecond but one is pushed
        // in ascending cause, so the load's counting sort leaves it
        // descending; one microsecond's 64 events, one every twelfth push,
        // come from senders in descending order (engine-shaped causes,
        // `origin << 40 | counter`), so only that group is comparison-
        // sorted.
        let mut q = CalendarQueue::new();
        let base = 4 * BUCKET_US;
        let mut want = Vec::new();
        for k in 0..3 * CHUNK as u64 {
            let (at, cause) = if k % 12 == 0 {
                (base + 120, (64 - k / 12) << 40 | k)
            } else {
                (base + k % 100, 1 << 40 | k)
            };
            q.push(at, cause, k);
            want.push((at, cause, k));
        }
        want.sort_unstable();
        let got: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(got, want);
        let st = q.stats();
        assert_eq!((st.largest_run, st.entries_sorted), (3 * CHUNK as u64, 64));
    }

    #[test]
    fn peek_nth_sees_the_loaded_run_and_nothing_past_it() {
        // A one-chunk bucket, a two-chunk bucket out of cause order, and an
        // overflow event. Before every pop, each `Some` of `peek_nth(k)` is
        // the item the (k+1)-th pop returns; `None` starts exactly where
        // the run ends, and peeking changes nothing.
        let mut q = CalendarQueue::new();
        for k in 0..10u64 {
            q.push(2 * BUCKET_US + k, k, k);
        }
        for k in 0..2 * CHUNK as u64 {
            q.push(5 * BUCKET_US + k % 7, 1_000 - k, 100 + k);
        }
        q.push(3 * SPAN_US, 0, 9_999);
        assert_eq!(q.peek_nth(0), None, "nothing is loaded before a peek");
        let mut runs = Vec::new();
        while q.peek_time().is_some() {
            let run: Vec<u64> = (0..).map_while(|k| q.peek_nth(k).copied()).collect();
            for &item in &run {
                assert_eq!(q.pop().map(|(_, _, i)| i), Some(item));
            }
            assert_eq!(q.peek_nth(0), None);
            runs.push(run.len());
        }
        assert_eq!(runs, [10, 2 * CHUNK, 1]);
        assert!(q.is_empty());
    }

    #[test]
    fn an_event_pays_no_byte_for_its_option() {
        // Chunks and the run hold `Option<Entry>` so a load can take an
        // entry by position; the engine's event must keep that free.
        use crate::shard::Event;
        use std::mem::size_of;
        assert_eq!(size_of::<Option<Entry<Event>>>(), size_of::<Entry<Event>>());
    }

    #[test]
    fn an_in_flight_message_is_two_addresses_and_its_bytes() {
        // Every queue push, load and pop moves an `Entry<Event>`, so its
        // size is paid per event: the envelope is `src`, `dst` and the
        // payload handle, nothing more (DESIGN decision 34).
        use crate::shard::Event;
        use std::mem::size_of;
        assert_eq!(size_of::<vce_net::Envelope>(), 48);
        assert_eq!(size_of::<Entry<Event>>(), 72);
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

    #[test]
    fn a_peek_that_promotes_keeps_the_drain_clock_inside_the_ring() {
        // The shape `queue_shift`'s fixture met once (ROADMAP 6f): the
        // next heartbeats wait in the overflow level, the drain stops at
        // 100 ms, a peek promotes the heartbeats, and the application
        // then starts at the clock the drain left. Its pushes must rewind
        // onto that clock, not sort into the heartbeats' run. With the
        // ring anchored at the promoted head instead, 64 pushes shift
        // 2,016 entries.
        let mut q = CalendarQueue::new();
        let mut heap = BinaryHeap::new();
        let mut cause = 0u64;
        let mut push = |q: &mut CalendarQueue<()>, heap: &mut BinaryHeap<_>, at: u64| {
            cause += 1;
            q.push(at, cause, ());
            heap.push(Reverse((at, cause)));
        };
        for _ in 0..14 {
            push(&mut q, &mut heap, SPAN_US + 5_000);
        }
        push(&mut q, &mut heap, 100_000);
        let Reverse(first) = heap.pop().expect("pushed");
        assert_eq!(q.pop().map(|(at, c, ())| (at, c)), Some(first));
        assert_eq!(q.peek_time(), Some(SPAN_US + 5_000));
        for k in 0..64 {
            push(&mut q, &mut heap, 100_000 + 50 * k);
        }
        while let Some(Reverse(want)) = heap.pop() {
            assert_eq!(q.pop().map(|(at, c, ())| (at, c)), Some(want));
        }
        assert!(q.is_empty());
        assert_eq!(q.stats().entries_shifted, 0, "{:?}", q.stats());
    }
}
