#![forbid(unsafe_code)]
//! Experiment F5: what stable storage buys — re-executed work after a
//! crash, by recovery mode.
//!
//! Every cell runs the chaos campaign's application (three singletons plus
//! one divisible task) on a six-machine fleet, crashes the busiest daemon
//! machine mid-run, revives it three seconds later, and measures how much
//! task work the fleet executed beyond the application's ideal total —
//! i.e. how much was *re-executed* because the crash lost it. Three
//! recovery modes:
//!
//! * **amnesia** — `wal_enabled = false`: the pre-WAL daemon; a revived
//!   machine remembers nothing and every lost instance restarts from
//!   scratch wherever the watchdog re-dispatches it.
//! * **wal** — the write-ahead log with intact stable storage: the revived
//!   daemon replays its journal and resumes residents from their last
//!   checkpoint record.
//! * **wal-torn** — the WAL where the crash also tears the log tail
//!   (`torn_tail = 1.0`): recovery must truncate the torn record, so the
//!   daemon resumes from one checkpoint earlier than `wal`.
//!
//! crossed with the §4.4 migration techniques. Redundant runs carry a
//! constant redundancy overhead in the re-exec column (two copies of every
//! singleton by design); the comparison *within* a technique row is the
//! point. Output is a pure function of the grid — byte-identical under
//! `run_experiments.sh --check`.

use vce::prelude::*;
use vce_bench::sweep::sweep;
use vce_exm::migrate::MigrationTechnique;
use vce_net::FaultOp;
use vce_workloads::table::Table;

/// Machines in the fleet (node 0 is the submitting user's workstation).
const FLEET: u32 = 6;
/// Singleton tasks (plus one divisible task of 900 Mops).
const SINGLETONS: u32 = 3;
/// Seeds per cell.
const SEEDS: u64 = 5;
/// Seed base — fixed so runs are addressable.
const SEED_BASE: u64 = 4_000;
/// Crash lands this long after submission, µs (mid-run for every cell).
const CRASH_AT_US: u64 = 4_000_000;
/// The crashed machine revives this much later, µs.
const DOWN_FOR_US: u64 = 3_000_000;
/// Completion horizon after the crash, µs.
const HORIZON_US: u64 = 90_000_000;

/// The recovery mode under test — the experiment's independent variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Amnesia,
    Wal,
    WalTorn,
}

impl Mode {
    const ALL: [Mode; 3] = [Mode::Amnesia, Mode::Wal, Mode::WalTorn];

    fn name(self) -> &'static str {
        match self {
            Mode::Amnesia => "amnesia",
            Mode::Wal => "wal",
            Mode::WalTorn => "wal-torn",
        }
    }

    fn configure(self, exm: &mut ExmConfig) {
        match self {
            Mode::Amnesia => exm.wal_enabled = false,
            Mode::Wal => exm.storage.fault = vce_storage::FaultModel::none(),
            Mode::WalTorn => {
                exm.storage.fault = vce_storage::FaultModel {
                    torn_tail: 1.0,
                    ..vce_storage::FaultModel::none()
                }
            }
        }
    }
}

const TECHNIQUES: [MigrationTechnique; 4] = [
    MigrationTechnique::Redundant,
    MigrationTechnique::Checkpoint,
    MigrationTechnique::CoreDump,
    MigrationTechnique::Recompile,
];

fn tech_name(t: MigrationTechnique) -> &'static str {
    match t {
        MigrationTechnique::Redundant => "redundant",
        MigrationTechnique::Checkpoint => "checkpoint",
        MigrationTechnique::CoreDump => "coredump",
        MigrationTechnique::Recompile => "recompile",
        MigrationTechnique::Restart => "restart",
    }
}

fn app_for(db: &MachineDb, technique: MigrationTechnique) -> Application {
    let traits_ = MigrationTraits {
        checkpoints: technique == MigrationTechnique::Checkpoint,
        checkpoint_interval_s: 2,
        restartable: true,
        core_dumpable: technique == MigrationTechnique::CoreDump,
    };
    let mut g = TaskGraph::new("recovery");
    for i in 0..SINGLETONS {
        g.add_task(
            TaskSpec::new(format!("r{i}"))
                .with_class(ProblemClass::Asynchronous)
                .with_language(Language::C)
                .with_work(500.0)
                .with_migration(traits_),
        );
    }
    g.add_task(
        TaskSpec::new("rdiv")
            .with_class(ProblemClass::Asynchronous)
            .with_language(Language::C)
            .with_work(900.0)
            .with_instances(3)
            .with_migration(traits_)
            .divisible(),
    );
    Application::from_graph(g, db).expect("hostable")
}

/// Ideal work, Mops: what a fault-free, redundancy-free run executes.
fn ideal_mops() -> f64 {
    f64::from(SINGLETONS) * 500.0 + 900.0
}

struct Cell {
    completed: bool,
    makespan_us: Option<u64>,
    /// Work executed fleet-wide beyond the ideal total, Mops.
    re_exec_mops: f64,
    /// WAL records the victim replayed on revive (0 under amnesia).
    replayed: u64,
}

fn run_cell(mode: Mode, technique: MigrationTechnique, seed: u64) -> Cell {
    let mut exm = ExmConfig::default();
    if technique == MigrationTechnique::Redundant {
        exm.redundancy = 2;
    }
    mode.configure(&mut exm);
    let mut b = VceBuilder::new(seed);
    for i in 0..FLEET {
        b.machine(MachineInfo::workstation(NodeId(i), 100.0));
    }
    b.exm_config(exm);
    let mut vce = b.build();
    vce.settle();
    let app = app_for(vce.db(), technique);
    let handle = vce.submit(app, NodeId(0));
    let crash_at = vce.sim().now_us() + CRASH_AT_US;
    vce.sim_mut().run_until(crash_at);

    // Crash the machine hosting the most instances (first wins ties), so
    // the crash always costs real work.
    let mut victim = NodeId(1);
    let mut most = 0usize;
    for n in 1..FLEET {
        let cnt = vce
            .with_daemon(NodeId(n), |d| d.resident().len())
            .unwrap_or(0);
        if cnt > most {
            most = cnt;
            victim = NodeId(n);
        }
    }
    vce.kill_node(victim);
    vce.sim_mut()
        .schedule_fault(crash_at + DOWN_FOR_US, FaultOp::Revive(victim));
    let report = vce.run_until_done(&handle, HORIZON_US);

    let mut total_mops = 0.0;
    for n in 0..FLEET {
        total_mops += vce
            .with_daemon(NodeId(n), |d| d.mops_executed)
            .unwrap_or(0.0);
    }
    let replayed = vce
        .with_daemon(victim, |d| d.last_recovery.as_ref().map(|r| r.replayed))
        .flatten()
        .unwrap_or(0);
    Cell {
        completed: report.completed,
        makespan_us: report.makespan_us,
        re_exec_mops: (total_mops - ideal_mops()).max(0.0),
        replayed,
    }
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = xs.collect();
    if v.is_empty() {
        f64::NAN
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn main() {
    let mut grid: Vec<(Mode, MigrationTechnique, u64)> = Vec::new();
    for &mode in &Mode::ALL {
        for &technique in &TECHNIQUES {
            for s in 0..SEEDS {
                grid.push((mode, technique, SEED_BASE + s));
            }
        }
    }
    let cells: Vec<Cell> = sweep(&grid, |_, &(m, t, s)| run_cell(m, t, s));

    let mut table = Table::new(
        "F5: re-executed work after a mid-run crash, by recovery mode",
        &[
            "mode",
            "technique",
            "runs",
            "completed",
            "makespan (s)",
            "re-exec (Mops)",
            "replayed (recs)",
        ],
    );
    let mut summary: Vec<(Mode, f64)> = Vec::new();
    for &mode in &Mode::ALL {
        let mut mode_re = Vec::new();
        for &technique in &TECHNIQUES {
            let cell: Vec<&Cell> = grid
                .iter()
                .zip(&cells)
                .filter(|((m, t, _), _)| *m == mode && *t == technique)
                .map(|(_, c)| c)
                .collect();
            let re = mean(cell.iter().map(|c| c.re_exec_mops));
            mode_re.push(re);
            table.row(&[
                mode.name().to_string(),
                tech_name(technique).to_string(),
                cell.len().to_string(),
                cell.iter().filter(|c| c.completed).count().to_string(),
                format!(
                    "{:.1}",
                    mean(
                        cell.iter()
                            .filter_map(|c| c.makespan_us)
                            .map(|us| us as f64 / 1e6)
                    )
                ),
                format!("{re:.0}"),
                format!("{:.1}", mean(cell.iter().map(|c| c.replayed as f64))),
            ]);
        }
        summary.push((mode, mean(mode_re.into_iter())));
    }
    table.print();
    println!(
        "Mean re-executed work: {}",
        summary
            .iter()
            .map(|(m, re)| format!("{} {re:.0} Mops", m.name()))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "Paper-expected shape: the WAL re-executes strictly less work than amnesia\n(journal replay resumes from the last durable checkpoint record); a torn\ntail loses the tail record and costs part of that saving back. Redundant\nrows carry the two-copy overhead by design — compare within a row."
    );
}
