#![forbid(unsafe_code)]
//! Experiment U1: §4.5 free parallelism — speed-up vs efficiency on idle
//! fleets.
//!
//! > "If 100 idle machines are available and the only way to use them is
//! > to distribute a single application over all 100 machines to realize a
//! > 10% speed-up, it is still worth doing because the 10% speed-up comes
//! > for 'free'."
//!
//! A divisible job spreads over n idle workstations. Dispatch and transfer
//! overheads make the speed-up sublinear; efficiency falls with n — and
//! per §4.5 that is fine, because the machines had nothing else to do.
//! Expected shape: monotone speed-up with steadily declining efficiency.

use vce_bench::freepar_run;
use vce_workloads::table::{ratio, secs, Table};

fn main() {
    let work = 60_000.0; // 10 minutes on one 100-Mops machine
    let t1 = freepar_run(31, 1, work);
    let mut t = Table::new(
        "U1: §4.5 free parallelism (divisible 60000-Mop job, idle fleet)",
        &["machines", "makespan (s)", "speed-up", "efficiency"],
    );
    for &n in &[1u32, 2, 4, 8, 16, 32, 64] {
        let tn = freepar_run(31, n, work);
        let speedup = t1 as f64 / tn as f64;
        t.row(&[
            n.to_string(),
            secs(tn),
            ratio(speedup),
            ratio(speedup / n as f64),
        ]);
    }
    t.print();
    println!(
        "Paper-expected shape: speed-up keeps growing while efficiency decays —\nand every extra machine was idle anyway, so the speed-up is free."
    );
}
