#![forbid(unsafe_code)]
//! Ablation study: the design decisions DESIGN.md calls out, each toggled
//! off to show what it buys.
//!
//! * **A: staged-binary preference** — placement breaks load ties toward
//!   machines whose bids advertise the unit's binary. Off, anticipatory
//!   compilation can be wasted on machines placement never picks.
//! * **B: soft reservations** — the leader inflates just-allocated
//!   machines' bids for ~1 s. Off, a burst of concurrent requests piles
//!   onto the same machines between state disclosures.
//! * **C: watchdog probe period** — host-crash detection latency vs
//!   probing overhead.

use vce::prelude::*;
use vce_workloads::table::{secs, secs_opt, Table};

fn base_cfg() -> ExmConfig {
    let mut cfg = ExmConfig::default();
    cfg.migration_enabled = false;
    cfg
}

/// Arm A: the U2 "warm" scenario with and without the placement signal.
fn arm_a(prefer: bool) -> u64 {
    let mut b = VceBuilder::new(81);
    for i in 0..3 {
        b.machine(MachineInfo::workstation(NodeId(i), 100.0));
    }
    let mut cfg = base_cfg();
    cfg.dispatch_compile_mops = 800.0;
    cfg.input_file_kib = 4096;
    cfg.prefer_staged_binaries = prefer;
    b.exm_config(cfg);
    b.trace_enabled(false);
    let mut vce = b.build();
    vce.settle();
    let mut g = TaskGraph::new("two-stage");
    let first = g.add_task(
        TaskSpec::new("first")
            .with_class(ProblemClass::Asynchronous)
            .with_language(Language::C)
            .with_work(8_000.0),
    );
    let second = g.add_task(
        TaskSpec::new("second")
            .with_class(ProblemClass::Asynchronous)
            .with_language(Language::C)
            .with_work(2_000.0)
            .with_input_file("/data/grid.dat"),
    );
    g.depends(second, first, 1);
    let app = Application::from_graph(g, vce.db()).unwrap();
    let handle = vce.submit_with(
        app,
        NodeId(0),
        SubmitOptions {
            stage_binaries: false,
            anticipate: true,
        },
    );
    let report = vce.run_until_done(&handle, 3_600_000_000);
    assert!(report.completed, "{:?}", report.failed);
    let _ = (first, second);
    report.makespan_us.unwrap()
}

/// Arm B: a burst of parallel jobs with and without soft reservations —
/// without them, several requests allocate the same machine before its
/// load shows in a disclosure.
fn arm_b(soft: bool) -> (u64, f64) {
    let mut b = VceBuilder::new(83);
    for i in 0..6 {
        b.machine(MachineInfo::workstation(NodeId(i), 100.0));
    }
    let mut cfg = base_cfg();
    cfg.soft_reservations = soft;
    b.exm_config(cfg);
    b.trace_enabled(false);
    let mut vce = b.build();
    vce.settle();
    let mut g = TaskGraph::new("burst");
    for i in 0..6 {
        g.add_task(
            TaskSpec::new(format!("job{i}"))
                .with_class(ProblemClass::Asynchronous)
                .with_language(Language::C)
                .with_work(3_000.0),
        );
    }
    let app = Application::from_graph(g, vce.db()).unwrap();
    let handle = vce.submit(app, NodeId(0));
    let report = vce.run_until_done(&handle, 3_600_000_000);
    assert!(report.completed, "{:?}", report.failed);
    // Spread quality: how many distinct machines hosted work.
    (report.makespan_us.unwrap(), report.machines_used() as f64)
}

/// Arm C: kill the worker hosting a task; measure completion vs probe
/// period (detection ≈ period × (misses+1)).
fn arm_c(probe_period_us: u64) -> u64 {
    let mut b = VceBuilder::new(85);
    for i in 0..3 {
        b.machine(MachineInfo::workstation(NodeId(i), 100.0));
    }
    let mut cfg = base_cfg();
    cfg.probe_period_us = probe_period_us;
    b.exm_config(cfg);
    b.trace_enabled(false);
    let mut vce = b.build();
    vce.settle();
    let mut g = TaskGraph::new("fragile");
    g.add_task(
        TaskSpec::new("job")
            .with_class(ProblemClass::Asynchronous)
            .with_language(Language::C)
            .with_work(3_000.0),
    );
    let app = Application::from_graph(g, vce.db()).unwrap();
    // Submit from node 2 so the job lands on another machine we can kill.
    let handle = vce.submit(app, NodeId(2));
    vce.sim_mut().run_for(5_000_000);
    let host = vce.placements(&handle).values().next().copied().unwrap();
    assert_ne!(host, NodeId(2), "task must not share the executor's node");
    vce.kill_node(host);
    let report = vce.run_until_done(&handle, 3_600_000_000);
    assert!(report.completed, "{:?}", report.failed);
    report.makespan_us.unwrap()
}

fn main() {
    let mut t = Table::new(
        "Ablation A: staged-binary placement preference (anticipated 2-stage app)",
        &["preference", "makespan (s)"],
    );
    for (on, label) in [(true, "on (default)"), (false, "off")] {
        t.row(&[label.into(), secs(arm_a(on))]);
    }
    t.print();

    let mut t = Table::new(
        "Ablation B: soft reservations (6-job burst on 6 machines)",
        &["soft reservations", "makespan (s)", "machines used"],
    );
    for (on, label) in [(true, "on (default)"), (false, "off")] {
        let (mk, used) = arm_b(on);
        t.row(&[label.into(), secs(mk), format!("{used:.0}")]);
    }
    t.print();

    let mut t = Table::new(
        "Ablation C: watchdog probe period (worker killed at ~5 s)",
        &["probe period", "makespan (s)"],
    );
    for period in [500_000u64, 2_000_000, 8_000_000] {
        t.row(&[
            format!("{:.1} s", period as f64 / 1e6),
            secs_opt(Some(arm_c(period))),
        ]);
    }
    t.print();
    println!(
        "Expected: A-off wastes the anticipatory compile (makespan rises by\n\
         ~the compile time); B-off narrows the burst's spread across machines\n\
         or co-schedules; C shows recovery latency growing linearly with the\n\
         probe period."
    );
}
