//! The event queue keeps the memory of what it holds, not of what it once
//! held — and holds no timer nobody is waiting for.
//!
//! `CalendarQueue` buckets are chains of fixed-size chunks from one free
//! list, so the capacity a queue retains is bounded by the most entries it
//! ever held at once (partly filled chunks included) plus the one large
//! buffer its biggest bucket was moved into and that load's `u32` position
//! list (in entry-sized units, 922 at S=1). `QueueStats` counts both
//! sides exactly, on any machine, so this gates hard what `peak_rss_mb`
//! can only suggest — on the shape that showed it: the `sharded_storm`
//! fan-out, where every node cancels and re-arms a ten-millisecond watchdog
//! each millisecond. The parent's bucket `Vec`s circulated through a warm
//! pool and each grew to the fullest bucket: 376,832 entries retained at
//! S=1 and at S=2, a ratio of 4.97 and 6.13 to the bound's base. The chunk
//! chains read 1.003 and 1.008.
//!
//! A node's pending timers wait in its own table, and only the earliest has
//! a queue entry, so a watchdog that every tick cancels and re-arms never
//! enters the queue. With count-based cancels each cancelled watchdog
//! stayed queued until its deadline and then popped as an event: 27 entries
//! a node at the peak (55,296) and `nodes × (10 × ticks + 2)` events.
//! Exact cancels read 17 a node and `nodes × (9 × ticks + 2)`: per node and
//! tick one timer and eight deliveries, plus the start and the last
//! watchdog.
//!
//! A multi-chunk bucket is loaded by a counting sort on the microsecond,
//! which leaves each microsecond's entries in reverse push order; only a
//! microsecond not pushed in ascending `cause` is comparison-sorted, and
//! `entries_sorted` counts those entries exactly. At S=1 each tick's sends
//! are made in cause order, so nothing is sorted. At S=2 a delivery's
//! microsecond holds its shard's own sends, pushed as they are made, then
//! the other shard's mail, pushed at the window barrier: two ascending
//! runs, so every one of the 491,520 deliveries (8 a node a tick) is
//! sorted, and no timer is.

use vce_bench::sharded_storm_with_queue;

/// About 10 % above what the chunk chains measure.
const CEILING: f64 = 1.10;
const NODES: u32 = 2_048;
const TICKS: u32 = 30;
/// `entries_sorted` at S=1 and at S=2: none, and every delivery.
const SORTED: [u64; 2] = [0, 8 * NODES as u64 * TICKS as u64];

#[test]
fn a_storm_retains_what_it_queues_plus_its_largest_run() {
    for (shards, sorted) in [1, 2].into_iter().zip(SORTED) {
        let (run, q) = sharded_storm_with_queue(NODES, TICKS, shards);
        let ratio = q.retained as f64 / (q.peak_len + q.largest_run) as f64;
        eprintln!(
            "S={shards}: {} events, {q:?}, retained / (peak_len + largest_run) = {ratio:.3}",
            run.events
        );
        assert!(
            ratio <= CEILING,
            "S={shards}: the queue retains {} entries of capacity for at most \
             {} queued and a largest run of {} ({ratio:.2}×)",
            q.retained,
            q.peak_len,
            q.largest_run
        );
        assert_eq!(
            run.events,
            u64::from(NODES) * (9 * u64::from(TICKS) + 2),
            "S={shards}: a cancelled watchdog popped as an event"
        );
        assert!(
            q.peak_len <= 17 * u64::from(NODES),
            "S={shards}: {} entries queued at once, over 17 a node",
            q.peak_len
        );
        assert_eq!(
            q.entries_sorted, sorted,
            "S={shards}: bucket loads comparison-sorted a different number of entries"
        );
    }
}
