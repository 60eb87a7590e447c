#![forbid(unsafe_code)]
//! Experiment R1: §5 leader fault tolerance — "the oldest surviving member
//! of the group ... assumes the role of group leader in case the group
//! leader fails."
//!
//! The workstation-group leader is killed while an application still needs
//! allocations. Measured: time for the successor to take over, and whether
//! the application completes (executor retries make requests idempotent,
//! so no request is permanently lost). Expected shape: takeover within a
//! few failure-detection timeouts, zero lost applications, at every group
//! size.

use vce::prelude::*;
use vce_workloads::table::{secs_opt, Table};

fn run(n: u32) -> (bool, Option<u64>, NodeId, NodeId) {
    let mut b = VceBuilder::new(37);
    for i in 0..n {
        b.machine(MachineInfo::workstation(NodeId(i), 100.0));
    }
    let mut vce = b.build();
    vce.settle();
    let leader = vce.leader_of(MachineClass::Workstation).expect("leader");
    let survivor = NodeId(n - 1);
    // More tasks than machines so allocations continue past the failover.
    let mut g = TaskGraph::new("r1");
    for i in 0..(n + 2) {
        g.add_task(
            TaskSpec::new(format!("job{i}"))
                .with_class(ProblemClass::Asynchronous)
                .with_language(Language::C)
                .with_work(4_000.0),
        );
    }
    let app = Application::from_graph(g, vce.db()).unwrap();
    let handle = vce.submit(app, survivor);
    vce.sim_mut().run_for(1_500_000);
    let killed_at = vce.sim().now_us();
    vce.kill_node(leader);
    // Run until a successor exists; measure takeover time from the trace.
    let report = vce.run_until_done(&handle, 3_600_000_000);
    let new_leader = vce.leader_of(MachineClass::Workstation).expect("successor");
    let takeover = vce
        .sim()
        .trace()
        .grep("assumes coordinator role")
        .next()
        .map(|e| e.at_us.saturating_sub(killed_at));
    assert!(report.completed, "n={n}: {:?}", report.failed);
    (report.completed, takeover, leader, new_leader)
}

fn main() {
    let mut t = Table::new(
        "R1: §5 leader failover",
        &[
            "group size",
            "killed leader",
            "successor",
            "takeover (s)",
            "app completed",
        ],
    );
    for &n in &[3u32, 5, 8, 12] {
        let (completed, takeover, old, new) = run(n);
        t.row(&[
            n.to_string(),
            old.to_string(),
            new.to_string(),
            secs_opt(takeover),
            completed.to_string(),
        ]);
    }
    t.print();
    println!(
        "Paper-expected shape: the oldest survivor takes over within a few\nfailure-detection timeouts (~1-2 s here) and no application is lost."
    );
}
