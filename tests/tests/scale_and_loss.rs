//! Scale and adversity: the full protocol stack at fleet sizes beyond the
//! 1994 prototype, and under message loss.

use vce::prelude::*;
use vce_integration_tests::simple_task;
use vce_net::LinkFault;

#[test]
fn forty_machine_fleet_runs_a_forty_job_bag() {
    let mut b = VceBuilder::new(101);
    for i in 0..40 {
        b.machine(MachineInfo::workstation(NodeId(i), 100.0));
    }
    let mut cfg = ExmConfig::default();
    cfg.migration_enabled = false;
    cfg.overload_threshold = 1.0;
    b.exm_config(cfg);
    b.trace_enabled(false);
    let mut vce = b.build();
    vce.settle();
    let mut g = TaskGraph::new("bag40");
    for i in 0..40 {
        g.add_task(simple_task(&format!("job{i}"), 2_000.0));
    }
    let app = Application::from_graph(g, vce.db()).unwrap();
    let handle = vce.submit(app, NodeId(0));
    let report = vce.run_until_done(&handle, 3_600_000_000);
    assert!(report.completed, "{:?}", report.failed);
    // With 40 jobs, 40 machines and strict placement, the bag spreads wide.
    assert!(
        report.machines_used() >= 30,
        "used only {} machines",
        report.machines_used()
    );
    // 20 s of work each; generous bound including bidding/queue rounds.
    assert!(report.makespan_us.unwrap() < 120_000_000);
}

#[test]
fn application_survives_five_percent_message_loss() {
    let mut b = VceBuilder::new(103);
    for i in 0..5 {
        b.machine(MachineInfo::workstation(NodeId(i), 100.0));
    }
    let mut cfg = ExmConfig::default();
    cfg.migration_enabled = false;
    b.exm_config(cfg);
    let mut vce = b.build();
    vce.settle();
    // 5% loss on every link from now on: bids, allocations, loads and
    // completions may all vanish; retries and NACKs must cover.
    vce.sim_mut().with_fault_plan(|p| {
        p.default_link = LinkFault {
            drop_prob: 0.05,
            ..Default::default()
        };
    });
    let mut g = TaskGraph::new("lossy");
    for i in 0..4 {
        g.add_task(simple_task(&format!("job{i}"), 3_000.0));
    }
    let app = Application::from_graph(g, vce.db()).unwrap();
    let handle = vce.submit(app, NodeId(0));
    let report = vce.run_until_done(&handle, 3_600_000_000);
    assert!(report.completed, "{:?}", report.failed);
    assert!(vce.sim().stats().dropped > 0, "loss actually happened");
}

#[test]
fn heavy_loss_on_one_link_does_not_block_the_group() {
    let mut b = VceBuilder::new(105);
    for i in 0..4 {
        b.machine(MachineInfo::workstation(NodeId(i), 100.0));
    }
    let mut vce = b.build();
    vce.settle();
    // Node 3's link to the leader is terrible (40% loss both ways).
    vce.sim_mut().with_fault_plan(|p| {
        p.set_link_bidir(
            NodeId(0),
            NodeId(3),
            LinkFault {
                drop_prob: 0.4,
                ..Default::default()
            },
        );
    });
    let mut g = TaskGraph::new("degraded");
    for i in 0..3 {
        g.add_task(simple_task(&format!("job{i}"), 2_000.0));
    }
    let app = Application::from_graph(g, vce.db()).unwrap();
    let handle = vce.submit(app, NodeId(0));
    let report = vce.run_until_done(&handle, 3_600_000_000);
    assert!(report.completed, "{:?}", report.failed);
}
