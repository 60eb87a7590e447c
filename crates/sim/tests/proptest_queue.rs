//! Oracle equivalence for the calendar-queue event core: random
//! push/pop/cancel schedules driven simultaneously through
//! [`CalendarQueue`] and a reference `BinaryHeap` keyed `(at_us, cause)` —
//! the structure it replaced in `Sim` — must produce identical pop
//! sequences, including same-timestamp cause-order tie-breaks and
//! interaction with lazy cancellation (cancelled entries stay queued and
//! are silently consumed at pop, like the entry of a timer the engine has
//! erased from its node's table) and bursts of up to three chunks into one
//! bucket, so loads walk chunk chains and multi-chunk runs are handed back
//! and rewound. A burst's causes are engine-shaped — `origin << 40 |
//! counter` from a few random sending nodes — and its times tie on a few
//! microseconds, so a microsecond's entries reach a load out of `cause`
//! order and take the load's per-microsecond sort. At every peek,
//! `peek_nth` must read the loaded run ahead exactly as the heap pops it.

use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet, VecDeque};
use vce_sim::queue::{CalendarQueue, CHUNK, SPAN_US};

/// The queue's bucket width (`queue::BUCKET_US`): a burst stays in one slot.
const SLOT_US: u64 = 128;
/// How far into the loaded run a peek checks `peek_nth`: four times the
/// engine's look-ahead, and cheap enough for a long soak.
const PEEK_AHEAD: usize = 64;

#[derive(Debug, Clone)]
enum Op {
    /// Push at this absolute time, with cause `origin << 40 | counter`
    /// (origin 0 unless a burst drew it).
    Push(u64, u64),
    /// Push this far behind the last peeked timestamp (clamped at 0).
    PushBehind(u64),
    /// Peek without popping: parks the wheel's cursor on the earliest
    /// event, however far ahead of the pushes that follow.
    Peek,
    /// Pop one observable (non-cancelled) event.
    Pop,
    /// Lazily cancel the most recently pushed still-live event.
    Cancel,
    /// Push `n` events into the slot of the last peek, at times ascending
    /// (0), descending (1) or scattered (2) in push order.
    Burst(usize, u8, Spread),
    /// A burst, a peek (which loads it when it is the earliest bucket) and
    /// a push this far behind the peek: the rewind of a multi-chunk run.
    BurstRewind(usize, u64, Spread),
}

/// How a burst's events share microseconds and causes.
#[derive(Debug, Clone, Copy)]
struct Spread {
    /// Microseconds of the slot the burst's times cover: one ties them
    /// all, [`SLOT_US`] spreads them over the slot.
    micros: u64,
    /// Sending nodes the burst's causes come from: with one they ascend in
    /// push order, with several a microsecond's causes do not.
    origins: u64,
    /// Draws each event's origin.
    seed: u64,
}

fn spread_strategy() -> impl Strategy<Value = Spread> {
    ((0usize..4), 1u64..6, 0u64..u64::MAX).prop_map(|(m, origins, seed)| Spread {
        micros: [1, 3, 16, SLOT_US][m],
        origins,
        seed,
    })
}

/// SplitMix64: the origin of a burst's `i`-th event.
fn draw_origin(spread: Spread, i: usize) -> u64 {
    let mut z = spread
        .seed
        .wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % spread.origins
}

/// Times are drawn from three absolute bands: a quantized near band
/// (forcing many same-timestamp ties), a mid band inside the wheel horizon,
/// and a far band beyond it (exercising the overflow level and promotion);
/// and two bands relative to the last peek: just behind the cursor (the
/// rewind) and more than a ring behind it (the sorted-insert fallback).
/// Bursts land in the last peek's slot, in or behind the cursor.
fn op_strategy() -> impl Strategy<Value = Op> {
    // (The vendored `prop_oneof!` is unweighted; arms are repeated to bias
    // toward tie-heavy near-band pushes and pops.)
    prop_oneof![
        (0u64..32).prop_map(|t| Op::Push(t * 64, 0)),
        (0u64..32).prop_map(|t| Op::Push(t * 64, 0)),
        (0u64..32).prop_map(|t| Op::Push(t * 64, 0)),
        (0u64..SPAN_US).prop_map(|t| Op::Push(t, 0)),
        (0u64..4000).prop_map(|r| Op::Push(SPAN_US + r * 731, 0)),
        (0u64..2048).prop_map(Op::PushBehind),
        (0u64..2048).prop_map(|d| Op::PushBehind(SPAN_US + d)),
        Just(Op::Peek),
        Just(Op::Pop),
        Just(Op::Pop),
        Just(Op::Pop),
        Just(Op::Cancel),
        (0..3 * CHUNK + 1, 0u8..3, spread_strategy())
            .prop_map(|(n, order, spread)| Op::Burst(n, order, spread)),
        (
            CHUNK + 1..3 * CHUNK + 1,
            1u64..4 * SLOT_US,
            spread_strategy()
        )
            .prop_map(|(n, d, spread)| Op::BurstRewind(n, d, spread)),
    ]
}

proptest! {
    #[test]
    fn wheel_matches_heap_oracle(ops in prop::collection::vec(op_strategy(), 1..300)) {
        let mut wheel: CalendarQueue<u32> = CalendarQueue::new();
        // The reference: a min-heap on (at_us, cause). The caller-side
        // counter is the cause key of a plain push — monotone push order,
        // exactly the serial engine's old insertion-sequence tie-break —
        // and the low bits of a burst's.
        let mut heap: BinaryHeap<Reverse<(u64, u64, u32)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut next_id = 0u32;
        let mut live: Vec<u32> = Vec::new();
        let mut cancelled: HashSet<u32> = HashSet::new();
        let mut last_peek = 0u64;

        let pop_both = |wheel: &mut CalendarQueue<u32>,
                            heap: &mut BinaryHeap<Reverse<(u64, u64, u32)>>,
                            cancelled: &HashSet<u32>| {
            // Lazy-cancel drain: cancelled entries are consumed silently.
            let w = loop {
                match wheel.pop() {
                    None => break None,
                    Some((_, _, id)) if cancelled.contains(&id) => continue,
                    Some((at, _, id)) => break Some((at, id)),
                }
            };
            let h = loop {
                match heap.pop() {
                    None => break None,
                    Some(Reverse((_, _, id))) if cancelled.contains(&id) => continue,
                    Some(Reverse((at, _, id))) => break Some((at, id)),
                }
            };
            (w, h)
        };

        // Compound ops expand in place into the primitive ones.
        let mut ops: VecDeque<Op> = ops.into();
        while let Some(op) = ops.pop_front() {
            match op {
                Op::Push(at, origin) => {
                    let id = next_id;
                    next_id += 1;
                    seq += 1;
                    let cause = origin << 40 | seq;
                    wheel.push(at, cause, id);
                    heap.push(Reverse((at, cause, id)));
                    live.push(id);
                }
                Op::Burst(n, order, spread) => {
                    let slot_start = last_peek / SLOT_US * SLOT_US;
                    for i in (0..n).rev() {
                        let k = match order {
                            0 => i,
                            1 => n - 1 - i,
                            _ => i * 37 % n,
                        };
                        let at = slot_start + k as u64 * spread.micros / n as u64;
                        ops.push_front(Op::Push(at, draw_origin(spread, i)));
                    }
                    continue;
                }
                Op::PushBehind(d) => {
                    ops.push_front(Op::Push(last_peek.saturating_sub(d), 0));
                    continue;
                }
                Op::BurstRewind(n, d, spread) => {
                    ops.push_front(Op::PushBehind(d));
                    ops.push_front(Op::Peek);
                    ops.push_front(Op::Burst(n, 2, spread));
                    continue;
                }
                Op::Cancel => {
                    if let Some(id) = live.pop() {
                        cancelled.insert(id);
                    }
                }
                Op::Peek | Op::Pop => {
                    // Before popping, the earliest timestamps must agree
                    // (peek may see a cancelled entry — on both sides).
                    let heap_peek = heap.peek().map(|Reverse((at, _, _))| *at);
                    prop_assert_eq!(wheel.peek_time(), heap_peek);
                    last_peek = heap_peek.unwrap_or(last_peek);
                    if matches!(op, Op::Peek) {
                        // The loaded run, read ahead (its first
                        // `PEEK_AHEAD` places; the unit test reads whole
                        // runs): the k-th `Some` is the heap's k-th pop
                        // (cancelled entries are still queued on both
                        // sides), and the first `None` ends it. A peek
                        // leaves a run loaded unless the queue is empty.
                        let mut ahead = heap.clone();
                        let run: Vec<u32> = (0..PEEK_AHEAD)
                            .map_while(|k| wheel.peek_nth(k).copied())
                            .collect();
                        for (k, &id) in run.iter().enumerate() {
                            let want = ahead.pop().map(|Reverse((_, _, id))| id);
                            prop_assert_eq!(Some(id), want, "peek_nth({}) diverged", k);
                        }
                        let k = run.len();
                        prop_assert!(k > 0 || heap.is_empty(), "no run after a peek");
                        prop_assert!(k == PEEK_AHEAD || (k..k + 4).all(|j| wheel.peek_nth(j).is_none()));
                    }
                    if matches!(op, Op::Pop) {
                        let (w, h) = pop_both(&mut wheel, &mut heap, &cancelled);
                        prop_assert_eq!(w, h, "divergent pop");
                        if let Some((_, id)) = w {
                            live.retain(|&x| x != id);
                        }
                    }
                }
            }
            prop_assert_eq!(wheel.len(), heap.len(), "divergent len");
        }

        // Drain to empty: the full residual order must match too.
        loop {
            let (w, h) = pop_both(&mut wheel, &mut heap, &cancelled);
            prop_assert_eq!(w, h, "divergent drain");
            if w.is_none() {
                break;
            }
        }
        prop_assert!(wheel.is_empty());
    }
}
