#![forbid(unsafe_code)]
//! Experiment S5: the §5 weather-forecasting script, end to end.
//!
//! Reproduces the paper's worked example: parse the exact published
//! script, run the SDM pipeline, schedule via bidding, and print the
//! placement decision per script line plus run metrics.

use vce::prelude::*;
use vce_workloads::table::{secs_opt, Table};

fn main() {
    let db = campus_fleet(6);
    let mut b = VceBuilder::new(1994);
    for m in db.machines() {
        b.machine(m.clone());
    }
    let mut vce = b.build();
    vce.settle();

    println!(
        "Input script (verbatim from the paper, §5):\n{}",
        vce_script::WEATHER_SCRIPT
    );

    let app = Application::from_script("weather", vce_script::WEATHER_SCRIPT, vce.db())
        .expect("pipeline");
    let graph = app.graph.clone();
    let handle = vce.submit(app, NodeId(0));
    let report = vce.run_until_done(&handle, 600_000_000);
    assert!(report.completed, "weather app failed: {:?}", report.failed);

    let mut t = Table::new(
        "S5: weather application placements",
        &["module", "class", "instances", "placed on"],
    );
    for task in graph.tasks() {
        let nodes: Vec<String> = report
            .placements
            .iter()
            .filter(|(k, _)| k.task == task.id.0)
            .map(|(_, n)| {
                let class = vce
                    .db()
                    .get(*n)
                    .map(|m| m.class.to_string())
                    .unwrap_or_default();
                format!("{n}({class})")
            })
            .collect();
        t.row(&[
            task.name.clone(),
            task.class
                .map(|c| c.script_keyword().to_string())
                .unwrap_or_default(),
            task.instances.to_string(),
            nodes.join(" "),
        ]);
    }
    t.print();

    let mut m = Table::new("S5: run metrics", &["metric", "value"]);
    m.row(&["makespan (s)".into(), secs_opt(report.makespan_us)]);
    m.row(&["allocation rounds".into(), report.allocations().to_string()]);
    m.row(&["machines used".into(), report.machines_used().to_string()]);
    m.row(&[
        "mean fleet utilization".into(),
        format!("{:.3}", report.fleet().mean_utilization),
    ]);
    m.print();
}
