#![forbid(unsafe_code)]
//! Experiment M2: the §4.4 "ripple effect" — suspension vs migration on
//! dependent task graphs.
//!
//! > "If a virtual machine task is suspended to allow execution of local
//! > tasks, initiation of other tasks dependent on the output of the
//! > suspended task could be delayed. This ripple effect could adversely
//! > affect system throughput."
//!
//! Four parallel dependency chains run on a fleet whose owners come and go
//! (Krueger-style duty cycle). Expected shape: the Stealth-like suspending
//! policy stalls chains behind suspended stages; policies that migrate
//! (Condor-like, VCE-like) keep chains moving and finish sooner. The
//! oblivious policies (random/round-robin) suffer owner interference with
//! no reaction at all.
//!
//! The (seed × policy) grid fans out through [`vce_bench::sweep`].

use rand::rngs::SmallRng;
use rand::SeedableRng;
use vce_baselines::harness::{run_baseline, BaselineReport};
use vce_baselines::policy::{condor, random, roundrobin, spawn, stealth, vcelike, Policy};
use vce_baselines::Workload;
use vce_bench::sweep::seed_param_sweep;
use vce_net::{MachineInfo, NodeId};
use vce_workloads::table::{ratio, secs_opt, Table};
use vce_workloads::traces::intermittent_owner;

const HORIZON: u64 = 4 * 3_600_000_000; // 4 simulated hours
const SEEDS: [u64; 3] = [23, 24, 25];
const POLICIES: [&str; 6] = [
    "stealth-like",
    "condor-like",
    "vce-like",
    "spawn-like",
    "random",
    "round-robin",
];

fn fleet(seed: u64, n: u32) -> Vec<(MachineInfo, vce_sim::LoadTrace)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            (
                MachineInfo::workstation(NodeId(i), 100.0),
                intermittent_owner(&mut rng, HORIZON),
            )
        })
        .collect()
}

fn policy(name: &str, seed: u64) -> Box<dyn Policy> {
    match name {
        "stealth-like" => Box::new(stealth::Stealth::new()),
        "condor-like" => Box::new(condor::Condor::new()),
        "vce-like" => Box::new(vcelike::VceLike::new()),
        "spawn-like" => Box::new(spawn::Spawn::new(seed)),
        "random" => Box::new(random::Random::new(seed)),
        "round-robin" => Box::new(roundrobin::RoundRobin::new()),
        other => panic!("unknown policy {other}"),
    }
}

fn median(mut xs: Vec<u64>) -> Option<u64> {
    if xs.is_empty() {
        return None;
    }
    xs.sort_unstable();
    Some(xs[xs.len() / 2])
}

fn main() {
    // 4 chains × 6 stages × 30 s of work per stage.
    let runs: Vec<BaselineReport> = seed_param_sweep(&SEEDS, &POLICIES, |seed, name| {
        let workload = Workload::chains(4, 6, 3_000.0);
        let machines = fleet(seed, 8);
        run_baseline(seed, &machines, &workload, policy(name, seed), HORIZON)
    });
    let mut t = Table::new(
        "M2: ripple effect — 4 chains × 6 stages on 8 owner-shared machines (median of 3 seeds)",
        &[
            "policy",
            "makespan (s)",
            "mean turnaround (s)",
            "suspends",
            "recalls",
            "utilization",
        ],
    );
    let mut stealth_makespan = None;
    let mut migrating_best = u64::MAX;
    for (j, name) in POLICIES.iter().enumerate() {
        let rows: Vec<&BaselineReport> = (0..SEEDS.len())
            .map(|i| &runs[i * POLICIES.len() + j])
            .collect();
        let mk = median(rows.iter().filter_map(|r| r.makespan_us).collect());
        let turn = median(
            rows.iter()
                .filter_map(|r| r.mean_turnaround_us.map(|u| u as u64))
                .collect(),
        );
        let susp = median(rows.iter().map(|r| r.counters.suspensions).collect()).unwrap_or(0);
        let rec = median(rows.iter().map(|r| r.counters.recalls).collect()).unwrap_or(0);
        let util = rows.iter().map(|r| r.mean_utilization).sum::<f64>() / rows.len() as f64;
        if *name == "stealth-like" {
            stealth_makespan = mk;
        }
        if matches!(*name, "condor-like" | "vce-like") {
            if let Some(m) = mk {
                migrating_best = migrating_best.min(m);
            }
        }
        t.row(&[
            name.to_string(),
            secs_opt(mk),
            turn.map(|u| format!("{:.2}", u as f64 / 1e6))
                .unwrap_or_else(|| "-".into()),
            susp.to_string(),
            rec.to_string(),
            ratio(util),
        ]);
    }
    t.print();
    if let Some(s) = stealth_makespan {
        println!(
            "Paper-expected shape: suspension stalls dependent chains. Observed:\nstealth {:.1} s vs best migrating policy {:.1} s ({:.2}x).",
            s as f64 / 1e6,
            migrating_best as f64 / 1e6,
            s as f64 / migrating_best as f64
        );
    }
}
