#![forbid(unsafe_code)]
//! Experiment U2: §4.5 anticipatory processing — pre-compile and
//! pre-replicate for dataflow-blocked tasks with idle cycles.
//!
//! A two-stage application: stage 2's binary is uncompiled and its input
//! file unstaged. Cold: stage 2's dispatch pays compile + fetch on the
//! critical path. Warm (anticipation on): idle machines did both while
//! stage 1 ran. Expected shape: warm dispatch latency collapses to ~the
//! allocation round; makespan drops by ~(compile + fetch) time.

use vce::prelude::*;
use vce_exm::AppEvent;
use vce_workloads::table::{secs, secs_opt, Table};

fn run(anticipate: bool, compile_mops: f64, file_kib: u64) -> (u64, u64) {
    let mut b = VceBuilder::new(81);
    for i in 0..3 {
        b.machine(MachineInfo::workstation(NodeId(i), 100.0));
    }
    let mut cfg = ExmConfig::default();
    cfg.migration_enabled = false;
    cfg.dispatch_compile_mops = compile_mops;
    cfg.input_file_kib = file_kib;
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
            anticipate,
        },
    );
    let report = vce.run_until_done(&handle, 3_600_000_000);
    assert!(report.completed, "{:?}", report.failed);
    // Stage-2 elapsed: stage-1 completion → stage-2 completion. Cold, this
    // includes the dispatch-time compile and input fetch; anticipated, it
    // is essentially allocation + compute.
    let stage1_done = report
        .timeline
        .first_time(|e| matches!(e, AppEvent::TaskComplete { task } if *task == first.0))
        .expect("stage 1 done");
    let stage2_done = report
        .timeline
        .first_time(|e| matches!(e, AppEvent::TaskComplete { task } if *task == second.0))
        .expect("stage 2 done");
    (
        stage2_done.saturating_sub(stage1_done),
        report.makespan_us.expect("done"),
    )
}

fn main() {
    let mut t = Table::new(
        "U2: §4.5 anticipatory compilation + file replication",
        &[
            "compile cost (Mops) / file (KiB)",
            "mode",
            "stage-2 elapsed (s)",
            "makespan (s)",
        ],
    );
    for &(compile_mops, file_kib) in &[(200.0, 1024u64), (800.0, 4096)] {
        for &(anticipate, label) in &[(false, "cold"), (true, "anticipated")] {
            let (lag, makespan) = run(anticipate, compile_mops, file_kib);
            t.row(&[
                format!("{compile_mops:.0} / {file_kib}"),
                label.to_string(),
                secs(lag),
                secs_opt(Some(makespan)),
            ]);
        }
    }
    t.print();
    println!(
        "Paper-expected shape: anticipation moves compile+fetch off the critical\npath, so the anticipated makespan beats cold by roughly those costs,\ngrowing with compile cost and file size."
    );
}
