//! The sharded engine must be invisible: every experiment scenario and the
//! chaos harness must produce byte-identical output for any shard count.
//! This is the regression gate for the conservative-window runner — it
//! exercises the full stack (daemons, Isis groups, executors, migration,
//! storage recovery) rather than the synthetic endpoints the unit tests
//! use.
//!
//! One `#[test]` drives all shard counts: `VCE_SHARDS` is process-global,
//! so the sweep has to be serial within a single test (the same pattern as
//! `sweep_determinism.rs`'s `VCE_SWEEP_THREADS`).

use vce::prelude::*;
use vce_bench::chaos::{run_chaos, ChaosConfig, ScheduleShape};
use vce_bench::{bidding_round_detailed, forced_migration, freepar_run, sharded_storm};
use vce_exm::migrate::MigrationTechnique;
use vce_net::FaultOp;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// FNV-64 of [`experiment_fingerprint`] at S=1. A change that does not
/// mean to alter protocol behaviour must reproduce it — at S=1 and, through
/// the sweep below, at every other shard count. Re-pinned on purpose three
/// times: by PR 18 (the O(n) liveness plane and the re-sent `TaskDone`
/// change what is sent, so every message count and link-RNG draw moved), by
/// PR 21,
/// whose bids answer the disclosure's question with a bit per asked unit
/// where they listed every staged binary: the messages are the same in
/// number and shorter, so every delivery after the first disclosure lands
/// earlier (by ≈ 10 µs a round on a fleet with nothing staged, ≈ 290 µs on
/// `app_dense`'s) and the chaos cell's RNG draws fall on different events.
/// PR 23 moves it the same way for the same reason: uvarint framing (the
/// envelope header, addresses, heartbeat and isis sequence numbers) sends
/// the same messages in under half the bytes, so each crosses the modelled
/// LAN a few µs sooner (`f3` still counts 35 protocol messages and 156
/// heartbeats; its latency reads 3,528 µs).
const SERIAL_ENGINE_FINGERPRINT: u64 = 0xcd8c_5ce5_cac3_563d;

/// FNV-64 of [`membership_churn_recording`]. The recording's snapshot
/// frames carry every node's state hash (`GroupMember::snapshot_hash` among
/// them), so this pins what used to be a by-hand `vce_replay --record … &&
/// cmp` against the parent. Captured on f81cdaa for the per-peer table (PR
/// 15 had to reproduce it); re-pinned by PR 18, whose liveness plane
/// deliberately changes which heartbeats exist and so every event after
/// the first tick, and by PR 21: the application's allocation rounds carry
/// shorter disclosures and bids (see above), which moves the arrival times
/// the members' `heard` stamps and arrival windows hash. PR 23: every
/// frame is shorter (uvarint framing, see above), so every delivery the
/// recording times, and every arrival the members hash, is earlier.
/// Exact timer cancels move it once more: cancelled timers are no longer
/// events — a cancel erases its timer
/// instead of leaving an entry that pops, is recorded and is dropped — so
/// the recording loses the pops of every collect timer an allocation round
/// cancelled, and the event indices its snapshots carry shift with them.
/// And once more when a crash took its node's pending timers with it: the
/// killed member's and coordinator's timers no longer pop, to be dropped,
/// while their nodes are down.
const MEMBERSHIP_CHURN_VCT: u64 = 0x317f_5901_f5c8_bc1d;

/// Everything observable from one full experiment pass, formatted so a
/// mismatch diff shows *which* scenario diverged.
fn experiment_fingerprint() -> String {
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

#[test]
fn experiments_are_identical_across_shard_counts() {
    let mut baseline: Option<String> = None;
    for shards in SHARD_COUNTS {
        std::env::set_var("VCE_SHARDS", shards.to_string());
        let fp = experiment_fingerprint();
        match &baseline {
            None => {
                assert_eq!(
                    vce_net::fnv64(fp.as_bytes()),
                    SERIAL_ENGINE_FINGERPRINT,
                    "S=1 no longer reproduces the pinned fingerprint:\n{fp}"
                );
                baseline = Some(fp);
            }
            Some(b) => assert_eq!(&fp, b, "shard count {shards} diverged from the serial run"),
        }
    }
    std::env::remove_var("VCE_SHARDS");
}

/// A `.vct` recording, in memory, of twelve workstations running one
/// application while the group loses and regains a member (reboot clears
/// its table, the coordinator evicts and readmits it), loses its
/// coordinator (succession) and is split four-against-eight and healed
/// (the minority is evicted, demotes and rejoins; flap records build up).
fn membership_churn_recording(shards: usize) -> Vec<u8> {
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

#[test]
fn membership_churn_recording_matches_the_pinned_digest() {
    for shards in [1, 4] {
        let digest = vce_net::fnv64(&membership_churn_recording(shards));
        assert_eq!(
            digest, MEMBERSHIP_CHURN_VCT,
            "S={shards}: .vct bytes differ from the pinned recording's (got {digest:#018x})"
        );
    }
}

#[test]
fn storm_digests_are_identical_across_shard_counts() {
    // Direct shard-count injection, larger fleet than the unit test.
    let serial = sharded_storm(1_024, 6, 1);
    assert!(serial.events > 0);
    for shards in [2, 4, 8] {
        let r = sharded_storm(1_024, 6, shards);
        assert_eq!(r, serial, "S={shards} diverged (digest/events/time)");
    }
}
