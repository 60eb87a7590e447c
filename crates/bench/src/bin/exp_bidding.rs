#![forbid(unsafe_code)]
//! Experiment F3: the runtime bidding mechanism — allocation latency and
//! message cost vs group size (Fig. 3 made quantitative).
//!
//! Expected shape: the collect is one parallel round, so the *median*
//! latency is near-flat in group size, while the *tail* grows slowly (max
//! of n jittered bid arrivals). Protocol messages grow O(n) per round, and
//! so does the heartbeat column — the failure detector's standing cost,
//! split out so the two curves are visible separately. A second table puts
//! that cost per member, at group sizes the bidding sweep does not reach.

use vce_bench::sweep::seed_param_sweep;
use vce_bench::{bidding_round_detailed, idle_heartbeats, BiddingRound};
use vce_workloads::table::Table;

fn main() {
    let jitter_us = 800; // LAN jitter so the tail is visible
    let seeds: Vec<u64> = (0..7).map(|s| 100 + s).collect();
    let sizes = [2u32, 4, 8, 16, 32, 64];
    // Every (seed, size) run is independent: fan them out. Results come
    // back in row-major (seed-outer) order, identical to the serial loop.
    let runs: Vec<BiddingRound> = seed_param_sweep(&seeds, &sizes, |seed, &n| {
        bidding_round_detailed(seed, n, jitter_us)
    });
    let mut t = Table::new(
        "F3: bidding vs group size (0.8 ms link jitter)",
        &[
            "group size",
            "latency p50 (ms)",
            "latency max (ms)",
            "protocol msgs",
            "heartbeat msgs",
        ],
    );
    for (j, &n) in sizes.iter().enumerate() {
        let rows: Vec<&BiddingRound> = (0..seeds.len())
            .map(|i| &runs[i * sizes.len() + j])
            .collect();
        let mut lats: Vec<u64> = rows.iter().map(|r| r.latency_us).collect();
        lats.sort();
        let proto = rows.iter().map(|r| r.protocol_msgs).sum::<u64>() / rows.len() as u64;
        let hb = rows.iter().map(|r| r.heartbeat_msgs).sum::<u64>() / rows.len() as u64;
        t.row(&[
            n.to_string(),
            format!("{:.1}", lats[lats.len() / 2] as f64 / 1e3),
            format!("{:.1}", *lats.last().unwrap() as f64 / 1e3),
            proto.to_string(),
            hb.to_string(),
        ]);
    }
    t.print();

    // The liveness plane alone: an idle group for ten simulated seconds
    // (50 ticks of 200 ms). Deterministic — no jitter, one seed.
    let window_s = 10;
    let mut t = Table::new(
        "F3b: liveness standing cost vs group size (idle group, 10 s)",
        &[
            "group size",
            "heartbeats/s",
            "per member",
            "all-to-all per member",
        ],
    );
    let scale = [12u32, 48, 192];
    let beats: Vec<u64> = seed_param_sweep(&[100], &scale, |seed, &n| {
        idle_heartbeats(seed, n, window_s * 1_000_000)
    });
    for (&n, &hb) in scale.iter().zip(&beats) {
        let per_s = hb / window_s;
        t.row(&[
            n.to_string(),
            per_s.to_string(),
            format!("{:.1}", per_s as f64 / f64::from(n)),
            (5 * (n - 1)).to_string(),
        ]);
    }
    t.print();
    println!(
        "Paper-expected shape: one parallel collect round ⇒ flat median,\n\
         slowly growing tail (max of n jittered bids). The collect and the\n\
         failure detector underneath both cost O(n) messages: a view's two\n\
         seniors heartbeat everyone and everyone heartbeats them (at most\n\
         4n − 6 a tick; 2(n − 2) in a busy group, whose casts and replies\n\
         stand in for the coordinator's), so a member's share stays near\n\
         20/s at any group size. The all-to-all detector the 1994\n\
         prototype inherited from Isis cost each member 5(n − 1)/s — the\n\
         last column."
    );
}
