#![forbid(unsafe_code)]
//! Experiment F6: fixed-timeout vs adaptive (phi-accrual) failure
//! detection under gray failures.
//!
//! Two arms (see `vce_bench::graydetect`), each swept over seeds and both
//! detector configurations:
//!
//! * **Arm A — true crash, clean network.** A random worker is killed and
//!   the time until *every* surviving daemon's view excludes it is
//!   measured (detection + view install). Reported as p50/p99.
//! * **Arm B — gray links, no crash.** Every link drops and jitters
//!   heavily for a fixed window while nobody is actually dead. Counted:
//!   false evictions (an alive node leaving some daemon's view) and view
//!   churn (installed views).
//!
//! The claim the table must support (see ISSUE/EXPERIMENTS): the adaptive
//! detector strictly dominates on at least one axis — fewer false
//! evictions under gray links at equal-or-better true-crash detection
//! p99. The fixed detector's 1 s timeout beats nobody: on a clean network
//! the adaptive floor (4 heartbeats = 800 ms) detects *faster*, and under
//! loss/jitter the widened threshold stops the eviction churn.

use std::collections::BTreeMap;

use vce_bench::graydetect::{detection_latency, gray_link_churn, pct};
use vce_workloads::table::Table;

const SEEDS: u64 = 20;

fn secs(us: u64) -> String {
    format!("{:.2}", us as f64 / 1e6)
}

fn main() {
    let mut a = Table::new(
        "F6a: true-crash detection latency, clean network",
        &["detector", "seeds", "p50 (s)", "p99 (s)"],
    );
    let mut p99s = BTreeMap::new();
    for &(name, adaptive) in &[("fixed", false), ("adaptive", true)] {
        let mut lat: Vec<u64> = (0..SEEDS).map(|s| detection_latency(s, adaptive)).collect();
        lat.sort_unstable();
        p99s.insert(name, pct(&lat, 99));
        a.row(&[
            name.to_string(),
            SEEDS.to_string(),
            secs(pct(&lat, 50)),
            secs(pct(&lat, 99)),
        ]);
    }
    a.print();

    let mut b = Table::new(
        "F6b: gray links (50% loss, 150 ms jitter, 15 s), nobody dead",
        &["detector", "seeds", "false evictions", "views installed"],
    );
    let mut evictions = BTreeMap::new();
    for &(name, adaptive) in &[("fixed", false), ("adaptive", true)] {
        let (mut fe, mut churn) = (0u64, 0u64);
        for s in 0..SEEDS {
            let (f, c) = gray_link_churn(s, adaptive);
            fe += f;
            churn += c;
        }
        evictions.insert(name, fe);
        b.row(&[
            name.to_string(),
            SEEDS.to_string(),
            fe.to_string(),
            churn.to_string(),
        ]);
    }
    b.print();

    let dominates = evictions["adaptive"] < evictions["fixed"] && p99s["adaptive"] <= p99s["fixed"];
    println!(
        "Adaptive strictly dominates fixed (fewer false evictions at\n\
         equal-or-better true-crash detection p99): {dominates}"
    );
    assert!(
        dominates,
        "F6 regression: adaptive no longer dominates (evictions {evictions:?}, p99 {p99s:?})"
    );
    println!(
        "Paper-expected shape: a fixed 1 s timeout either lags a clean\n\
         crash or evicts healthy-but-noisy peers; the phi-accrual window\n\
         does neither — its floor detects faster on a quiet network and\n\
         its variance term widens under loss/jitter."
    );
}
