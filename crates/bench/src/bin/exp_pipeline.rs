#![forbid(unsafe_code)]
//! Experiment F1: Fig. 1 — the five-layer SDM/EXM pipeline, walked stage
//! by stage with the artifacts each layer produces.

use vce::prelude::*;
use vce_script::{evaluate, parse, EvalEnv};
use vce_sdm::{graph_from_script, run_design_stage, CompilationManager};
use vce_workloads::table::{secs_opt, Table};

fn main() {
    let db = campus_fleet(6);
    println!("Fig. 1 pipeline on the §5 weather script\n");

    // Layer 1: problem specification.
    let script = parse(vce_script::WEATHER_SCRIPT).expect("parse");
    let mut env = EvalEnv::new();
    for class in MachineClass::ALL {
        let n = db.count(class) as u64;
        env = env.with_class(class, n, n);
    }
    let eval = evaluate(&script, &env);
    let mut graph = graph_from_script("weather", &eval);
    println!(
        "[1 problem specification] {} statements -> {} tasks, {} arcs",
        script.statements().len(),
        graph.len(),
        graph.arcs().len()
    );

    // Layer 2: design stage.
    let inferred = run_design_stage(&mut graph);
    let mut t = Table::new(
        "[2 design stage] problem-architecture classes",
        &["task", "class", "nature"],
    );
    for task in graph.tasks() {
        t.row(&[
            task.name.clone(),
            task.class
                .map(|c| c.script_keyword().into())
                .unwrap_or_default(),
            format!("{:?}", task.nature),
        ]);
    }
    t.print();
    println!("(classes inferred by analysis: {inferred})\n");

    // Layer 3: coding level.
    let plan = vce_sdm::coding::run_coding_level(&mut graph, 1_000.0);
    println!(
        "[3 coding level] languages assigned; comm plan: {} channels, {} transfers, {} KiB/step",
        plan.channels().count(),
        plan.transfers().count(),
        plan.total_kib()
    );

    // Layer 4: compilation manager.
    let mut mgr = CompilationManager::new();
    let (reports, unhostable) = mgr.prepare_all(&graph, &db);
    assert!(unhostable.is_empty());
    let mut t = Table::new(
        "[4 compilation manager] binaries prepared (all feasible classes)",
        &["task", "targets", "compile time (s)"],
    );
    for r in &reports {
        t.row(&[
            graph.get(r.task).unwrap().name.clone(),
            r.targets
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(","),
            format!("{:.1}", r.compile_us as f64 / 1e6),
        ]);
    }
    t.print();

    // Layer 5: runtime manager.
    let mut b = VceBuilder::new(1);
    for m in db.machines() {
        b.machine(m.clone());
    }
    let mut vce = b.build();
    vce.settle();
    let app = Application::from_graph(graph, vce.db()).expect("pipeline");
    let handle = vce.submit(app, NodeId(0));
    let report = vce.run_until_done(&handle, 600_000_000);
    assert!(report.completed);
    println!(
        "\n[5 runtime manager] executed on {} machines, makespan {} s, {} allocation rounds",
        report.machines_used(),
        secs_opt(report.makespan_us),
        report.allocations()
    );
}
