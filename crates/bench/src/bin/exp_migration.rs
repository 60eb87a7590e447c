#![forbid(unsafe_code)]
//! Experiment M1: §4.4's four migration techniques, measured head to head.
//!
//! One 60-second task; at t≈20 s it is forced off its machine by each
//! technique in turn. Expected shape (the paper's qualitative ordering):
//! redundant execution is cheapest (nothing moves), checkpointing pays a
//! small transfer plus bounded rollback, the address-space dump moves the
//! most bytes but loses nothing, restart loses everything, and
//! recompilation adds compile time on top of the checkpoint rollback.

use vce_bench::forced_migration;
use vce_exm::migrate::MigrationTechnique;
use vce_workloads::table::{secs, Table};

fn main() {
    let mut t = Table::new(
        "M1: §4.4 migration techniques (6000-Mop task, forced move at ~20 s)",
        &[
            "technique",
            "makespan (s)",
            "state moved (KiB)",
            "work re-run (Mops)",
            "migrations",
        ],
    );
    let mut makespans = std::collections::BTreeMap::new();
    for technique in [
        MigrationTechnique::Redundant,
        MigrationTechnique::Checkpoint,
        MigrationTechnique::CoreDump,
        MigrationTechnique::Restart,
        MigrationTechnique::Recompile,
    ] {
        let o = forced_migration(7, technique, 6_000.0);
        makespans.insert(format!("{technique:?}"), o.makespan_us);
        t.row(&[
            format!("{technique:?}"),
            secs(o.makespan_us),
            o.state_kib.to_string(),
            format!("{:.0}", o.lost_mops),
            o.migrations.to_string(),
        ]);
    }
    t.print();
    println!(
        "Paper-expected shape (§4.4's trade-offs, reproduced):\n\
         - Redundant: zero overhead — kill the loaded copy, a live one continues;\n\
         - Checkpoint: small transfer + bounded rollback (cooperation required);\n\
         - CoreDump: nothing lost but the largest transfer, homogeneity required;\n\
         - Restart: nothing moves, everything re-runs — worst when far along;\n\
         - Recompile: checkpoint rollback + target-side compile — 'very\n\
           expensive but may be very robust'."
    );
}
