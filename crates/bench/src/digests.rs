//! The two digests the identity gate pins beside the `exp_*` tables.
//!
//! `exp_digests` prints both; `scripts/run_experiments.sh` compares its
//! output with `experiment-results/exp_digests.txt` at `VCE_SHARDS` 1 and 4
//! and re-pins it with the tables under one `--repin` reason, and
//! `tests/shard_determinism.rs` holds every shard count to that file.
//!
//! * [`experiment_fingerprint`] covers the F3 round, a forced migration, a
//!   divisible job and one traced chaos cell: any change to what the
//!   protocol sends, or to when a message arrives, moves it.
//! * [`membership_churn_recording`] is a `.vct` recording whose snapshot
//!   frames carry every node's state hash (`GroupMember::snapshot_hash`
//!   among them) and whose event indices count every pop: it moves with
//!   any change to what the isis layer sends or remembers, to when it hears
//!   it, and to which events exist (whether a cancelled timer still pops).

use vce::prelude::*;
use vce_net::FaultOp;

use crate::chaos::{run_chaos, ChaosConfig, ScheduleShape};
use crate::{bidding_round_detailed, forced_migration, freepar_run};
use vce_exm::migrate::MigrationTechnique;

/// Everything observable from one full experiment pass, formatted so a
/// mismatch diff shows *which* scenario diverged.
pub fn experiment_fingerprint() -> String {
    let mut out = String::new();

    // F3: allocation round with LAN jitter (drop/dup/jitter RNG draws).
    let f3 = bidding_round_detailed(7, 8, 800);
    out.push_str(&format!(
        "f3: latency={} protocol={} heartbeats={}\n",
        f3.latency_us, f3.protocol_msgs, f3.heartbeat_msgs
    ));

    // M1: forced checkpoint migration (kill/revive-free but multi-node,
    // leader-ordered, state-volume sensitive).
    let m1 = forced_migration(7, MigrationTechnique::Checkpoint, 4_000.0);
    out.push_str(&format!(
        "m1: makespan={} state_kib={} lost_mops={} migrations={}\n",
        m1.makespan_us, m1.state_kib, m1.lost_mops, m1.migrations
    ));

    // U1: divisible job across 6 machines (placement + completion order).
    let u1 = freepar_run(7, 6, 6_000.0);
    out.push_str(&format!("u1: makespan={u1}\n"));

    // One chaos cell: mixed schedule (crashes, partition, loss bursts,
    // leader kill) — the full report plus the trace tail, which is the
    // closest thing to "byte-identical stdout and trace" the harness
    // exposes in-process.
    let chaos = run_chaos(&ChaosConfig {
        seed: 100,
        shape: ScheduleShape::Mixed,
        technique: MigrationTechnique::Checkpoint,
        trace: true,
    });
    out.push_str(&chaos.report());
    out.push('\n');
    if let Some(tail) = &chaos.trace_tail {
        out.push_str(tail);
        out.push('\n');
    }
    for line in &chaos.journal {
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// A `.vct` recording, in memory, of twelve workstations running one
/// application while the group loses and regains a member (reboot clears
/// its table, the coordinator evicts and readmits it), loses its
/// coordinator (succession) and is split four-against-eight and healed
/// (the minority is evicted, demotes and rejoins; flap records build up).
pub fn membership_churn_recording(shards: usize) -> Vec<u8> {
    const S: u64 = 1_000_000;
    let mut b = VceBuilder::new(15);
    for i in 0..12 {
        b.machine(MachineInfo::workstation(NodeId(i), 100.0));
    }
    b.trace_enabled(false);
    b.shards(shards);
    let mut vce = b.build();
    vce.sim_mut().record_to_memory("membership-churn", S);
    vce.settle();
    let coordinator = vce
        .leader_of(MachineClass::Workstation)
        .expect("settled group has a coordinator");
    let user = NodeId(11);
    assert_ne!(coordinator, user, "the executor's machine stays up");

    let mut g = TaskGraph::new("churn");
    for i in 0..3 {
        g.add_task(
            TaskSpec::new(format!("t{i}"))
                .with_class(ProblemClass::Asynchronous)
                .with_language(Language::C)
                .with_work(800.0),
        );
    }
    let app = Application::from_graph(g, vce.db()).expect("hostable");
    let handle = vce.submit(app, user);

    let t0 = vce.sim().now_us();
    let minority = (1..=4).map(NodeId).filter(|&n| n != coordinator);
    let faults = [
        (S, FaultOp::Kill(NodeId(5))),
        (4 * S, FaultOp::Revive(NodeId(5))),
        (7 * S, FaultOp::Kill(coordinator)),
        (11 * S, FaultOp::Revive(coordinator)),
    ]
    .into_iter()
    .chain(minority.map(|n| (15 * S, FaultOp::Partition(n, 1))))
    .chain([(19 * S, FaultOp::Heal)]);
    for (dt, op) in faults {
        vce.sim_mut().schedule_fault(t0 + dt, op);
    }
    // A snapshot frame is written where a `run_until` ends: step by the
    // second, so the state between the faults is hashed, not just the end.
    for s in 1..=45 {
        vce.sim_mut().run_until(t0 + s * S);
    }
    assert!(vce.report(&handle).completed, "the application finishes");
    vce.sim_mut()
        .finish_recording()
        .expect("memory recording cannot fail")
        .expect("memory recording returns bytes")
}
