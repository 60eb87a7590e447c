//! Oracle equivalence for the calendar-queue event core: random
//! push/pop/cancel schedules driven simultaneously through
//! [`CalendarQueue`] and a reference `BinaryHeap` keyed `(at_us, cause)` —
//! the structure it replaced in `Sim` — must produce identical pop
//! sequences, including same-timestamp cause-order tie-breaks and
//! interaction with lazy cancellation (cancelled entries stay queued and
//! are silently consumed at pop, like the entry of a timer the engine has
//! erased from its node's table) and bursts of up to three chunks into one bucket, so loads walk
//! chunk chains and multi-chunk runs are handed back and rewound.

use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet, VecDeque};
use vce_sim::queue::{CalendarQueue, CHUNK, SPAN_US};

/// The queue's bucket width (`queue::BUCKET_US`): a burst stays in one slot.
const SLOT_US: u64 = 128;

#[derive(Debug, Clone)]
enum Op {
    /// Push at this absolute time.
    Push(u64),
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
    Burst(usize, u8),
    /// A burst, a peek (which loads it when it is the earliest bucket) and
    /// a push this far behind the peek: the rewind of a multi-chunk run.
    BurstRewind(usize, u64),
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
        (0u64..32).prop_map(|t| Op::Push(t * 64)),
        (0u64..32).prop_map(|t| Op::Push(t * 64)),
        (0u64..32).prop_map(|t| Op::Push(t * 64)),
        (0u64..SPAN_US).prop_map(Op::Push),
        (0u64..4000).prop_map(|r| Op::Push(SPAN_US + r * 731)),
        (0u64..2048).prop_map(Op::PushBehind),
        (0u64..2048).prop_map(|d| Op::PushBehind(SPAN_US + d)),
        Just(Op::Peek),
        Just(Op::Pop),
        Just(Op::Pop),
        Just(Op::Pop),
        Just(Op::Cancel),
        (0..3 * CHUNK + 1, 0u8..3).prop_map(|(n, order)| Op::Burst(n, order)),
        (CHUNK + 1..3 * CHUNK + 1, 1u64..4 * SLOT_US).prop_map(|(n, d)| Op::BurstRewind(n, d)),
    ]
}

proptest! {
    #[test]
    fn wheel_matches_heap_oracle(ops in prop::collection::vec(op_strategy(), 1..300)) {
        let mut wheel: CalendarQueue<u32> = CalendarQueue::new();
        // The reference: a min-heap on (at_us, cause). The caller-side
        // counter doubles as the cause key — monotone push order, exactly
        // the serial engine's old insertion-sequence tie-break.
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
                Op::Push(t) | Op::PushBehind(t) => {
                    let at = match op {
                        Op::PushBehind(_) => last_peek.saturating_sub(t),
                        _ => t,
                    };
                    let id = next_id;
                    next_id += 1;
                    seq += 1;
                    wheel.push(at, seq, id);
                    heap.push(Reverse((at, seq, id)));
                    live.push(id);
                }
                Op::Burst(n, order) => {
                    let slot_start = last_peek / SLOT_US * SLOT_US;
                    for i in (0..n).rev() {
                        let k = match order {
                            0 => i,
                            1 => n - 1 - i,
                            _ => i * 37 % n,
                        };
                        ops.push_front(Op::Push(slot_start + k as u64 * SLOT_US / n as u64));
                    }
                    continue;
                }
                Op::BurstRewind(n, d) => {
                    ops.push_front(Op::PushBehind(d));
                    ops.push_front(Op::Peek);
                    ops.push_front(Op::Burst(n, 2));
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
