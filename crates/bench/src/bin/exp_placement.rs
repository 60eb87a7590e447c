#![forbid(unsafe_code)]
//! Experiment P1: §4.3's task-placement example — utilization-first vs
//! best-platform.
//!
//! The fleet has one "machine A" (fast, big memory) that a restricted task
//! *requires*; a flexible task would also run fastest there. §4.3 argues
//! the flexible task should yield machine A. Expected shape:
//! utilization-first places the restricted task on A and the flexible one
//! elsewhere, beating best-platform's makespan.

use vce::prelude::*;
use vce_workloads::table::{secs_opt, Table};

fn run(policy: PlacementPolicy) -> (RunReport, NodeId, NodeId) {
    let mut b = VceBuilder::new(11);
    b.machine(MachineInfo::workstation(NodeId(0), 100.0)); // user
    b.machine(MachineInfo::workstation(NodeId(1), 50.0).with_mem_mb(64)); // small
    b.machine(MachineInfo::workstation(NodeId(2), 200.0).with_mem_mb(512)); // machine A
    let mut cfg = ExmConfig::default();
    cfg.policy = policy;
    cfg.migration_enabled = false;
    b.exm_config(cfg);
    b.trace_enabled(false);
    let mut vce = b.build();
    vce.settle();
    let mut g = TaskGraph::new("p1");
    g.add_task(
        TaskSpec::new("flexible")
            .with_class(ProblemClass::Asynchronous)
            .with_language(Language::C)
            .with_work(2_000.0)
            .with_mem(16),
    );
    g.add_task(
        TaskSpec::new("restricted")
            .with_class(ProblemClass::Asynchronous)
            .with_language(Language::C)
            .with_work(4_000.0)
            .with_mem(256),
    );
    let app = Application::from_graph(g, vce.db()).unwrap();
    let handle = vce.submit(app, NodeId(0));
    let report = vce.run_until_done(&handle, 600_000_000);
    assert!(report.completed, "{policy:?}: {:?}", report.failed);
    let node_of = |task: u32| {
        report
            .placements
            .iter()
            .find(|(k, _)| k.task == task)
            .map(|(_, &n)| n)
            .unwrap()
    };
    (report.clone(), node_of(0), node_of(1))
}

fn main() {
    let mut t = Table::new(
        "P1: §4.3 placement policies (machine A = n2)",
        &["policy", "flexible on", "restricted on", "makespan (s)"],
    );
    for policy in [
        PlacementPolicy::UtilizationFirst,
        PlacementPolicy::BestPlatform,
    ] {
        let (report, flex, restr) = run(policy);
        t.row(&[
            format!("{policy:?}"),
            flex.to_string(),
            restr.to_string(),
            secs_opt(report.makespan_us),
        ]);
    }
    t.print();
    println!("Paper-expected shape: UtilizationFirst keeps the flexible task off n2\nand finishes sooner; BestPlatform lets it grab n2 and serializes/shares.");
}
