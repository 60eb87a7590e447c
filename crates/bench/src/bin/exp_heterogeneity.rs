#![forbid(unsafe_code)]
//! Experiment H1: heterogeneous class routing at fleet scale — the
//! paper's core premise that "none of the existing computer systems are
//! general enough to address all classes of applications" (§1), so the
//! VCE routes each problem class to the hardware tuned for it (§4.1).
//!
//! A mixed application (synchronous solvers, loosely synchronous phases,
//! asynchronous utilities) on a mixed campus. Expected shape: every task
//! lands inside its class's preference list, with the best class chosen
//! when available.

use std::collections::BTreeMap;

use vce::prelude::*;
use vce_workloads::table::{secs_opt, Table};

fn main() {
    let db = vce_workloads::mixed_fleet(8, 2, 2, 1);
    let mut b = VceBuilder::new(61);
    for m in db.machines() {
        b.machine(m.clone());
    }
    b.trace_enabled(false);
    let mut vce = b.build();
    vce.settle();

    let mut g = TaskGraph::new("mixed");
    for i in 0..3 {
        g.add_task(
            TaskSpec::new(format!("lockstep{i}"))
                .with_class(ProblemClass::Synchronous)
                .with_language(Language::HpFortran)
                .with_work(8_000.0)
                .with_mem(256),
        );
    }
    for i in 0..3 {
        g.add_task(
            TaskSpec::new(format!("phases{i}"))
                .with_class(ProblemClass::LooselySynchronous)
                .with_language(Language::HpCpp)
                .with_work(6_000.0)
                .with_mem(128),
        );
    }
    for i in 0..6 {
        g.add_task(
            TaskSpec::new(format!("util{i}"))
                .with_class(ProblemClass::Asynchronous)
                .with_language(Language::C)
                .with_work(2_000.0),
        );
    }
    let graph = g.clone();
    let app = Application::from_graph(g, vce.db()).unwrap();
    let handle = vce.submit(app, NodeId(0));
    let report = vce.run_until_done(&handle, 3_600_000_000);
    assert!(report.completed, "{:?}", report.failed);

    // Problem class → machine-class histogram.
    let mut hist: BTreeMap<(String, String), u32> = BTreeMap::new();
    for (key, node) in &report.placements {
        let spec = graph.get(TaskId(key.task)).unwrap();
        let pc = spec.class.unwrap().script_keyword().to_string();
        let mc = vce.db().get(*node).unwrap().class.to_string();
        *hist.entry((pc, mc)).or_insert(0) += 1;
    }
    let mut t = Table::new(
        "H1: class routing (12 mixed tasks, 8 WS + 2 SIMD + 2 MIMD + 1 VECTOR)",
        &["problem class", "hosted on", "instances"],
    );
    for ((pc, mc), n) in &hist {
        t.row(&[pc.clone(), mc.clone(), n.to_string()]);
    }
    t.print();

    let mut t = Table::new("H1: run metrics", &["metric", "value"]);
    t.row(&["makespan (s)".into(), secs_opt(report.makespan_us)]);
    t.row(&["machines used".into(), report.machines_used().to_string()]);
    t.print();

    // Enforce the routing invariant in the binary itself.
    for (pc, mc) in hist.keys() {
        let allowed: Vec<&str> = match pc.as_str() {
            "SYNC" => vec!["SIMD", "VECTOR", "MIMD"],
            "LSYNC" => vec!["MIMD", "VECTOR", "WORKSTATION"],
            _ => vec!["WORKSTATION", "MIMD"],
        };
        assert!(allowed.contains(&mc.as_str()), "{pc} task on {mc}!");
    }
    println!(
        "Paper-expected shape: every task inside its §4.1 preference list —\nSYNC on data-parallel hardware, LSYNC on MIMD, ASYNC on workstations."
    );
}
