#![forbid(unsafe_code)]
//! Experiment P2: §4.3 priority aging — "as a task waits to be dispatched
//! its priority will be increased to insure it will eventually be
//! dispatched even if that results in a globally suboptimal schedule."
//!
//! A deprioritized application arrives at a busy two-machine group while a
//! stream of high-priority applications keeps arriving. With aging, the
//! pariah's queue priority grows with its wait and it overtakes fresh
//! boosted arrivals after a bounded delay; with aging disabled every fresh
//! boosted request outranks it until the stream ends. Expected shape:
//! wait(aging off) ≫ wait(aging on).

use vce::prelude::*;
use vce_bench::sweep::seed_param_sweep;
use vce_exm::AppEvent;
use vce_taskgraph::TaskHints;
use vce_workloads::table::{secs, Table};

const SEEDS: [u64; 3] = [17, 18, 19];
const VIP_COUNT: u32 = 24;
const VIP_PERIOD_US: u64 = 2_500_000;
const VIP_WORK: f64 = 2_000.0; // 20 s on one machine
const PARIAH_WORK: f64 = 2_000.0;

fn one_job_app(db: &MachineDb, name: &str, mops: f64, boost: i32) -> Application {
    let mut g = TaskGraph::new(name);
    g.add_task(
        TaskSpec::new(name)
            .with_class(ProblemClass::Asynchronous)
            .with_language(Language::C)
            .with_work(mops)
            .with_hints(TaskHints {
                expected_dominance: 0,
                priority_boost: boost,
            }),
    );
    Application::from_graph(g, db).unwrap()
}

fn run(seed: u64, aging_quantum_us: u64) -> u64 {
    let mut b = VceBuilder::new(seed);
    b.machine(MachineInfo::workstation(NodeId(0), 100.0));
    b.machine(MachineInfo::workstation(NodeId(1), 100.0));
    let mut cfg = ExmConfig::default();
    cfg.aging_quantum_us = aging_quantum_us;
    cfg.migration_enabled = false;
    cfg.overload_threshold = 1.0; // strict: one job per machine, so queues form
    b.exm_config(cfg);
    b.trace_enabled(false);
    let mut vce = b.build();
    vce.settle();

    // Fill the machines and the queue with boosted work first.
    let mut vip_handles = Vec::new();
    for i in 0..4 {
        let app = one_job_app(vce.db(), &format!("vip{i}"), VIP_WORK, 5);
        vip_handles.push(vce.submit(app, NodeId(0)));
    }
    vce.sim_mut().run_for(500_000);
    // The pariah arrives.
    let app = one_job_app(vce.db(), "pariah", PARIAH_WORK, -5);
    let submitted_at = vce.sim().now_us();
    let pariah = vce.submit(app, NodeId(0));
    // The boosted stream keeps coming.
    for i in 4..VIP_COUNT {
        vce.sim_mut().run_for(VIP_PERIOD_US);
        let app = one_job_app(vce.db(), &format!("vip{i}"), VIP_WORK, 5);
        vip_handles.push(vce.submit(app, NodeId(0)));
    }
    let report = vce.run_until_done(&pariah, 3_600_000_000);
    assert!(report.completed, "{:?}", report.failed);
    let loaded = report
        .timeline
        .first_time(|e| matches!(e, AppEvent::Loaded { .. }))
        .expect("pariah loaded");
    loaded.saturating_sub(submitted_at)
}

fn main() {
    let mut t = Table::new(
        "P2: §4.3 starvation prevention (1 deprioritized job vs a boosted stream, median of 3 seeds)",
        &["aging quantum", "deprioritized job wait (s)"],
    );
    // (seed × quantum) grid, fanned out: every cell is an independent run.
    let quanta = [2_000_000u64, u64::MAX / 4];
    let runs = seed_param_sweep(&SEEDS, &quanta, |seed, &q| run(seed, q));
    let median = |col: usize| -> u64 {
        let mut xs: Vec<u64> = (0..SEEDS.len())
            .map(|i| runs[i * quanta.len() + col])
            .collect();
        xs.sort_unstable();
        xs[xs.len() / 2]
    };
    let with_aging = median(0);
    let without = median(1);
    t.row(&["2 s (aging on)".into(), secs(with_aging)]);
    t.row(&["∞ (aging off)".into(), secs(without)]);
    t.print();
    println!(
        "Paper-expected shape: with aging the deprioritized request's priority\ngrows past fresh boosted arrivals (bounded wait); without it, every new\nboosted request overtakes it until the stream ends."
    );
    assert!(with_aging < without, "aging must shorten the pariah's wait");
}
