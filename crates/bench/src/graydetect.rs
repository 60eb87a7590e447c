//! F6 scenarios: fixed-timeout vs adaptive (phi-accrual) failure
//! detection under gray failures, as tabulated by `exp_graydetect`.

use std::collections::{BTreeMap, BTreeSet};

use vce::prelude::*;
use vce_net::{FaultOp, LinkFault};

/// Fleet size for both arms.
pub const FLEET: u32 = 6;
/// Arm B's gray window, µs.
pub const GRAY_WINDOW_US: u64 = 15_000_000;

fn fleet(seed: u64, adaptive: bool) -> Vce {
    let mut exm = ExmConfig::default();
    exm.adaptive_detection = adaptive;
    let mut b = VceBuilder::new(seed);
    for i in 0..FLEET {
        b.machine(MachineInfo::workstation(NodeId(i), 100.0));
    }
    b.exm_config(exm);
    let mut vce = b.build();
    vce.settle();
    vce
}

/// Nodes in daemon `m`'s current view.
fn view_nodes(vce: &mut Vce, m: u32) -> Option<BTreeSet<u32>> {
    vce.with_daemon(NodeId(m), |d| {
        d.view().members.iter().map(|mm| mm.addr.node.0).collect()
    })
}

/// Arm A: µs from kill to the victim being out of every survivor's view.
pub fn detection_latency(seed: u64, adaptive: bool) -> u64 {
    let mut vce = fleet(seed, adaptive);
    // Let the arrival windows warm past the detector's warmup.
    let warm = vce.sim().now_us() + 3_000_000;
    vce.sim_mut().run_until(warm);
    let victim = 1 + (seed % u64::from(FLEET - 1)) as u32;
    let killed_at = vce.sim().now_us();
    vce.kill_node(NodeId(victim));
    let deadline = killed_at + 30_000_000;
    loop {
        let now = vce.sim().now_us();
        let all_out = (0..FLEET)
            .filter(|&n| n != victim)
            .all(|m| view_nodes(&mut vce, m).is_none_or(|v| !v.contains(&victim)));
        if all_out {
            return now - killed_at;
        }
        assert!(
            now < deadline,
            "victim {victim} never detected (seed {seed})"
        );
        vce.sim_mut().run_until(now + 50_000);
    }
}

/// Arm B: (false evictions, views installed) over the gray window.
pub fn gray_link_churn(seed: u64, adaptive: bool) -> (u64, u64) {
    let mut vce = fleet(seed, adaptive);
    let start = vce.sim().now_us();
    // Heavy loss and jitter in both directions on every link — gray, not
    // dead: every node keeps heartbeating into the noise.
    vce.sim_mut().schedule_fault(
        start + 500_000,
        FaultOp::DefaultLink(LinkFault {
            drop_prob: 0.5,
            extra_delay_us: 10_000,
            jitter_us: 150_000,
            dup_prob: 0.0,
        }),
    );
    let end = start + GRAY_WINDOW_US;
    vce.sim_mut()
        .schedule_fault(end, FaultOp::DefaultLink(LinkFault::default()));
    let mut prev: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
    let start_view: u64 = (0..FLEET)
        .filter_map(|m| vce.with_daemon(NodeId(m), |d| d.view().id))
        .max()
        .unwrap_or(0);
    let mut false_evictions = 0u64;
    let mut now = start;
    while now < end {
        now = (now + 100_000).min(end);
        vce.sim_mut().run_until(now);
        for m in 0..FLEET {
            let Some(cur) = view_nodes(&mut vce, m) else {
                continue;
            };
            if let Some(old) = prev.get(&m) {
                // Nobody is dead in this arm: every departure is false.
                false_evictions += old.difference(&cur).count() as u64;
            }
            prev.insert(m, cur);
        }
    }
    let end_view: u64 = (0..FLEET)
        .filter_map(|m| vce.with_daemon(NodeId(m), |d| d.view().id))
        .max()
        .unwrap_or(0);
    (false_evictions, end_view.saturating_sub(start_view))
}

/// Nearest-rank percentile of an ascending-sorted slice.
pub fn pct(sorted: &[u64], p: usize) -> u64 {
    let idx = (sorted.len() * p / 100).min(sorted.len() - 1);
    sorted[idx]
}
