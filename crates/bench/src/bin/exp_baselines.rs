#![forbid(unsafe_code)]
//! Experiment B1: the VCE against the schedulers the paper cites, on one
//! shared workload and fleet.
//!
//! A bag of batch jobs on owner-shared workstations. Baselines run in
//! their own (simpler, central) harness; the full VCE protocol stack runs
//! the same bag as a task graph on the same machines and traces. Expected
//! shape: owner-reactive policies (VCE, Condor-like, VCE-like) beat
//! suspension (Stealth-like) and oblivious placement (random/round-robin);
//! the VCE pays a modest protocol overhead versus the idealized central
//! baselines but stays in their band.
//!
//! Every (seed, scheduler) cell is an independent deterministic run, so
//! the whole grid fans out through [`vce_bench::sweep`]; rows aggregate
//! the per-seed results (median makespan).

use rand::rngs::SmallRng;
use rand::SeedableRng;
use vce::prelude::*;
use vce_baselines::harness::run_baseline;
use vce_baselines::policy::{condor, random, roundrobin, spawn, stealth, vcelike, Policy};
use vce_baselines::Workload;
use vce_bench::sweep::seed_param_sweep;
use vce_workloads::table::{ratio, secs_opt, Table};
use vce_workloads::traces::intermittent_owner;

const HORIZON: u64 = 8 * 3_600_000_000;
const N_MACHINES: u32 = 8;
const N_JOBS: u32 = 24;
const SEEDS: [u64; 3] = [29, 30, 31];

const SCHEDULERS: [&str; 7] = [
    "random",
    "round-robin",
    "stealth-like",
    "condor-like",
    "spawn-like",
    "vce-like",
    "VCE (full protocol)",
];

fn traces(seed: u64) -> Vec<vce_sim::LoadTrace> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..N_MACHINES)
        .map(|_| intermittent_owner(&mut rng, HORIZON))
        .collect()
}

fn workload(seed: u64) -> Workload {
    let mut rng = SmallRng::seed_from_u64(seed);
    Workload::bag(&mut rng, N_JOBS, 1_500.0, 4_500.0)
}

fn baseline_policy(name: &str, seed: u64) -> Box<dyn Policy> {
    match name {
        "random" => Box::new(random::Random::new(seed)),
        "round-robin" => Box::new(roundrobin::RoundRobin::new()),
        "stealth-like" => Box::new(stealth::Stealth::new()),
        "condor-like" => Box::new(condor::Condor::new()),
        "spawn-like" => Box::new(spawn::Spawn::new(seed)),
        "vce-like" => Box::new(vcelike::VceLike::new()),
        other => panic!("unknown baseline {other}"),
    }
}

struct Cell {
    makespan_us: Option<u64>,
    utilization: f64,
    moves: u64,
}

fn run_cell(seed: u64, scheduler: &str) -> Cell {
    if scheduler == "VCE (full protocol)" {
        let (mk, util, moves) = run_vce(seed);
        return Cell {
            makespan_us: mk,
            utilization: util,
            moves: moves as u64,
        };
    }
    let machines: Vec<(MachineInfo, vce_sim::LoadTrace)> = traces(seed)
        .into_iter()
        .enumerate()
        .map(|(i, tr)| (MachineInfo::workstation(NodeId(i as u32), 100.0), tr))
        .collect();
    let r = run_baseline(
        seed,
        &machines,
        &workload(seed),
        baseline_policy(scheduler, seed),
        HORIZON,
    );
    Cell {
        makespan_us: r.makespan_us,
        utilization: r.mean_utilization,
        moves: r.counters.recalls + r.counters.suspensions,
    }
}

fn run_vce(seed: u64) -> (Option<u64>, f64, usize) {
    let mut b = VceBuilder::new(seed);
    for (i, tr) in traces(seed).into_iter().enumerate() {
        b.machine_with_load(MachineInfo::workstation(NodeId(i as u32), 100.0), tr);
    }
    // Match the baselines' discipline: one job per machine (§5's
    // "excessively loaded" bar set strictly).
    let mut cfg = ExmConfig::default();
    cfg.overload_threshold = 1.0;
    cfg.idle_threshold = 0.9;
    b.exm_config(cfg);
    b.trace_enabled(false);
    let mut vce = b.build();
    vce.settle();
    let mut g = TaskGraph::new("bag");
    for j in workload(seed).jobs() {
        g.add_task(
            TaskSpec::new(format!("job{}", j.id.0))
                .with_class(ProblemClass::Asynchronous)
                .with_language(Language::C)
                .with_work(j.mops)
                .with_migration(MigrationTraits {
                    checkpoints: true,
                    checkpoint_interval_s: 5,
                    restartable: true,
                    core_dumpable: true,
                }),
        );
    }
    let app = Application::from_graph(g, vce.db()).unwrap();
    let handle = vce.submit(app, NodeId(0));
    let report = vce.run_until_done(&handle, HORIZON);
    (
        report.makespan_us,
        report.fleet().mean_utilization,
        report.migrations.len() + report.evictions as usize,
    )
}

fn median_opt(mut xs: Vec<u64>) -> Option<u64> {
    if xs.is_empty() {
        return None;
    }
    xs.sort_unstable();
    Some(xs[xs.len() / 2])
}

fn main() {
    let runs = seed_param_sweep(&SEEDS, &SCHEDULERS, |seed, name| run_cell(seed, name));
    let mut t = Table::new(
        "B1: schedulers on a 24-job bag, 8 owner-shared workstations (median of 3 seeds)",
        &["scheduler", "makespan (s)", "utilization", "moves/suspends"],
    );
    for (j, name) in SCHEDULERS.iter().enumerate() {
        let cells: Vec<&Cell> = (0..SEEDS.len())
            .map(|i| &runs[i * SCHEDULERS.len() + j])
            .collect();
        let mk = median_opt(cells.iter().filter_map(|c| c.makespan_us).collect());
        let util = cells.iter().map(|c| c.utilization).sum::<f64>() / cells.len() as f64;
        let moves = median_opt(cells.iter().map(|c| c.moves).collect()).unwrap_or(0);
        t.row(&[
            name.to_string(),
            secs_opt(mk),
            ratio(util),
            moves.to_string(),
        ]);
    }
    t.print();
    println!(
        "Paper-expected shape: migration-capable schedulers (VCE, condor-like,\nvce-like) beat suspension and oblivious placement on owner-shared fleets."
    );
}
