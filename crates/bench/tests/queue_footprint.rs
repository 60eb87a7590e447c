//! The event queue keeps the memory of what it holds, not of what it once
//! held.
//!
//! `CalendarQueue` buckets are chains of fixed-size chunks from one free
//! list, so the capacity a queue retains is bounded by the most entries it
//! ever held at once (partly filled chunks included) plus the one large
//! buffer its biggest bucket was copied into. `QueueStats` counts both
//! sides exactly, on any machine, so this gates hard what `peak_rss_mb`
//! can only suggest — on the shape that showed it: the `sharded_storm`
//! fan-out, where each millisecond's watchdogs wait ten milliseconds in
//! their own bucket and a wave's deliveries land on the oldest of them.
//! The parent's bucket `Vec`s circulated through a warm pool and each grew
//! to the fullest bucket: 376,832 entries retained at S=1 and at S=2, a
//! ratio of 4.97 and 6.13 to the bound's base. The chunk chains read 1.003
//! and 1.008.

use vce_bench::sharded_storm_with_queue;

/// About 10 % above what the chunk chains measure.
const CEILING: f64 = 1.10;

#[test]
fn a_storm_retains_what_it_queues_plus_its_largest_run() {
    for shards in [1, 2] {
        let (run, q) = sharded_storm_with_queue(2_048, 30, shards);
        assert!(
            run.events > 500_000,
            "S={shards}: only {} events",
            run.events
        );
        let ratio = q.retained as f64 / (q.peak_len + q.largest_run) as f64;
        eprintln!("S={shards}: {q:?}, retained / (peak_len + largest_run) = {ratio:.3}");
        assert!(
            ratio <= CEILING,
            "S={shards}: the queue retains {} entries of capacity for at most \
             {} queued and a largest run of {} ({ratio:.2}×)",
            q.retained,
            q.peak_len,
            q.largest_run
        );
    }
}
