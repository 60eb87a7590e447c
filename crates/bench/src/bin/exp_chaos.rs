//! Experiment F4: chaos campaign over the Isis/EXM recovery path.
//!
//! A seeded fault-injection sweep (see `vce_bench::chaos`): every cell of
//! the `technique × schedule-shape × seed` grid drives a full VCE fleet
//! through a generated fault schedule — crashes/revives, partitions/heals,
//! loss/dup bursts, leader-targeted kills, and storage-fault crash shapes
//! (intact WAL, torn log tail, device loss) — and checks seven recovery
//! invariants. The table reports completed allocations and makespan
//! degradation versus the fault-free baseline, per §4.4 migration
//! technique. Any failing seed is replayed with the trace enabled and its
//! report printed.
//!
//! `exp_chaos --replay <seed> <shape> <technique>` replays one cell.
//!
//! Output is a pure function of the grid — byte-identical under
//! `run_experiments.sh --check`.

use vce_bench::chaos::{
    baseline_makespan_us, parse_cell, replay, run_chaos, run_chaos_recorded, technique_name,
    ChaosConfig, ChaosOutcome, RecordTo, ScheduleShape, TECHNIQUES,
};
use vce_bench::sweep::sweep;
use vce_workloads::table::Table;

/// Seeds per grid cell: 10 × 12 shapes × 4 techniques = 480 schedules.
const SEEDS: u64 = 10;
/// Seed base — arbitrary, fixed so reports name replayable seeds.
const SEED_BASE: u64 = 100;

fn tech_name(t: vce_exm::migrate::MigrationTechnique) -> &'static str {
    technique_name(t)
}

fn replay_main(args: &[String]) -> ! {
    let usage = "usage: exp_chaos --replay <seed> <shape> <technique>";
    let [seed, shape, tech] = args else {
        eprintln!(
            "exp_chaos: expected 3 arguments after --replay, got {}",
            args.len()
        );
        eprintln!("{usage}");
        std::process::exit(2);
    };
    let (seed, shape, tech) = match parse_cell(seed, shape, tech) {
        Ok(cell) => cell,
        Err(e) => {
            eprintln!("exp_chaos: {e}");
            eprintln!("{usage}");
            std::process::exit(2);
        }
    };
    let out = replay(seed, shape, tech);
    if out.green() {
        println!(
            "chaos OK seed={} shape={} technique={}: all invariants held",
            seed,
            shape.name(),
            tech_name(tech)
        );
        for line in &out.journal {
            println!("  journal: {line}");
        }
        std::process::exit(0);
    }
    print!("{}", out.report());
    std::process::exit(1);
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
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("--replay") {
        replay_main(&args[2..]);
    }

    let mut grid: Vec<ChaosConfig> = Vec::new();
    for &technique in &TECHNIQUES {
        for &shape in &ScheduleShape::ALL {
            for s in 0..SEEDS {
                grid.push(ChaosConfig {
                    seed: SEED_BASE + s,
                    shape,
                    technique,
                    trace: false,
                });
            }
        }
    }
    let baselines: Vec<u64> = sweep(&TECHNIQUES, |_, &t| baseline_makespan_us(t));
    let outcomes: Vec<ChaosOutcome> = sweep(&grid, |_, cfg| run_chaos(cfg));

    let mut t = Table::new(
        "F4: chaos campaign — recovery under generated fault schedules",
        &[
            "technique",
            "schedule",
            "runs",
            "green",
            "faults/run",
            "allocs/run",
            "makespan (s)",
            "degradation",
            "reconverge (hb)",
        ],
    );
    for (ti, &technique) in TECHNIQUES.iter().enumerate() {
        let base_s = baselines[ti] as f64 / 1e6;
        for &shape in &ScheduleShape::ALL {
            let cell: Vec<&ChaosOutcome> = outcomes
                .iter()
                .filter(|o| o.technique == technique && o.shape == shape)
                .collect();
            let green = cell.iter().filter(|o| o.green()).count();
            let mk = mean(
                cell.iter()
                    .filter_map(|o| o.makespan_us)
                    .map(|us| us as f64 / 1e6),
            );
            t.row(&[
                tech_name(technique).to_string(),
                shape.name().to_string(),
                cell.len().to_string(),
                green.to_string(),
                format!("{:.1}", mean(cell.iter().map(|o| f64::from(o.faults)))),
                format!("{:.1}", mean(cell.iter().map(|o| o.allocations as f64))),
                format!("{mk:.1}"),
                format!("{:.2}x", mk / base_s),
                format!(
                    "{:.0}",
                    mean(
                        cell.iter()
                            .filter_map(|o| o.reconverge_heartbeats)
                            .map(|h| h as f64)
                    )
                ),
            ]);
        }
    }
    t.print();
    println!(
        "Fault-free baselines: {}",
        TECHNIQUES
            .iter()
            .enumerate()
            .map(|(i, &tech)| format!("{} {:.1}s", tech_name(tech), baselines[i] as f64 / 1e6))
            .collect::<Vec<_>>()
            .join(", ")
    );

    let fails: Vec<&ChaosOutcome> = outcomes.iter().filter(|o| !o.green()).collect();
    for f in &fails {
        // Replay with the trace on so the report carries the event tail.
        print!("{}", replay(f.seed, f.shape, f.technique).report());
        // Additionally record the failing cell as a one-file `.vct` repro
        // artifact and print the divergence-check command.
        let vct = format!(
            "chaos_{}_{}_{}.vct",
            f.seed,
            f.shape.name(),
            tech_name(f.technique)
        );
        let cfg = ChaosConfig {
            seed: f.seed,
            shape: f.shape,
            technique: f.technique,
            trace: false,
        };
        run_chaos_recorded(&cfg, RecordTo::File(std::path::Path::new(&vct)));
        println!("  trace: {vct}");
        println!("  divergence: vce_replay --divergence {vct}");
    }
    println!(
        "chaos: {} schedules, {} green, {} failing",
        outcomes.len(),
        outcomes.len() - fails.len(),
        fails.len()
    );
    println!(
        "Paper-expected shape: all invariants hold under every schedule; makespan\ndegrades gracefully with fault intensity, least for redundant/checkpoint."
    );
    if !fails.is_empty() {
        std::process::exit(1);
    }
}
