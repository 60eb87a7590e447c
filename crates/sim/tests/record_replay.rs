//! Integration gate for `.vct` record/replay: a recorded run is a pure
//! function of the scenario — identical runs produce byte-identical
//! recordings and zero divergence, the recording is byte-identical across
//! shard counts (frame and snapshot boundaries are driver-determined, so
//! the file never leaks the shard layout), and a deliberately perturbed
//! recording bisects to the exact first-divergence event window.

use vce_net::{send_msg, Addr, Endpoint, Envelope, Host, LinkFault, MachineInfo, NodeId};
use vce_sim::record::Divergence;
use vce_sim::{first_divergence, read_trace, RecordedTrace, Sim, SimConfig, Topology};

const HORIZON_US: u64 = 200_000;
const SNAPSHOT_EVERY_US: u64 = 20_000;

/// A chatty peer: periodic tick fanning out to two strided neighbours,
/// replying to every third message — enough cross-shard causality chains
/// that any recording nondeterminism would surface as a byte diff.
struct Peer {
    me: Addr,
    peers: Vec<Addr>,
    period_us: u64,
    ticks_left: u32,
    received: u64,
}

const TICK: u64 = 1;

impl Endpoint for Peer {
    fn on_start(&mut self, host: &mut dyn Host) {
        host.set_timer(self.period_us, TICK);
    }
    fn on_envelope(&mut self, env: Envelope, host: &mut dyn Host) {
        self.received += 1;
        if self.received.is_multiple_of(3) {
            send_msg(host, self.me, env.src, &self.received);
        }
    }
    fn on_timer(&mut self, _token: u64, host: &mut dyn Host) {
        if self.ticks_left == 0 {
            return;
        }
        for &p in &self.peers {
            send_msg(host, self.me, p, &self.received);
        }
        self.ticks_left -= 1;
        if self.ticks_left > 0 {
            host.set_timer(self.period_us, TICK);
        }
    }
    fn snapshot_hash(&self) -> u64 {
        // Deterministic endpoint digest so per-node hashes see state the
        // event stream alone wouldn't (exercises StateHash detection).
        vce_net::Fnv64::new()
            .write_u64(self.received)
            .write_u64(u64::from(self.ticks_left))
            .finish()
    }
}

/// Record one run of the fixed workload to memory and return the bytes.
fn record_run(shards: usize) -> Vec<u8> {
    let n_nodes = 8u32;
    let mut sim = Sim::new(SimConfig {
        seed: 11,
        topology: Topology::default(),
        trace_enabled: false,
        shards,
    });
    // Lossy, duplicating, jittery default link so the verdict RNG and the
    // EV_FENCE link record are both exercised.
    sim.with_fault_plan(|p| {
        p.default_link = LinkFault {
            drop_prob: 0.05,
            dup_prob: 0.05,
            jitter_us: 300,
            extra_delay_us: 0,
        };
    });
    let addrs: Vec<Addr> = (0..n_nodes).map(|i| Addr::daemon(NodeId(i))).collect();
    for i in 0..n_nodes {
        sim.add_node(MachineInfo::workstation(NodeId(i), 100.0));
        sim.add_endpoint(
            addrs[i as usize],
            Box::new(Peer {
                me: addrs[i as usize],
                peers: vec![
                    addrs[((i + 1) % n_nodes) as usize],
                    addrs[((i + 3) % n_nodes) as usize],
                ],
                period_us: 700 + u64::from(i) * 137,
                ticks_left: 60,
                received: 0,
            }),
        );
    }
    // Chaos fences mid-run: every fence kind lands in the event stream.
    sim.schedule_fault(40_000, vce_net::FaultOp::Kill(NodeId(3)));
    sim.schedule_fault(90_000, vce_net::FaultOp::Revive(NodeId(3)));
    sim.schedule_fault(60_000, vce_net::FaultOp::Partition(NodeId(5), 1));
    sim.schedule_fault(120_000, vce_net::FaultOp::Heal);
    sim.record_to_memory("record_replay gate", SNAPSHOT_EVERY_US);
    // Snapshots are cut at driver-call boundaries (`finish_run`), so step
    // the horizon in snapshot-sized increments the way a real driver's
    // heartbeat loop does — the schedule is identical for every shard
    // count, which is what keeps the recording shard-invariant.
    let mut t = 0;
    while t < HORIZON_US {
        t += SNAPSHOT_EVERY_US;
        sim.run_until(t);
    }
    sim.finish_recording()
        .expect("memory recording cannot fail on io")
        .expect("memory recorder returns bytes")
}

fn parse(bytes: &[u8]) -> RecordedTrace {
    read_trace(bytes).expect("recording parses cleanly")
}

#[test]
fn identical_runs_record_identical_bytes_and_no_divergence() {
    let a = record_run(1);
    let b = record_run(1);
    assert_eq!(a, b, "same scenario, same binary, different bytes");
    let (ta, tb) = (parse(&a), parse(&b));
    assert!(ta.end.events > 500, "workload too small to be a real gate");
    assert!(
        ta.snapshots.len() >= 5,
        "expected several snapshots, got {}",
        ta.snapshots.len()
    );
    assert_eq!(first_divergence(&ta, &tb), Divergence::None);
    // The v2 delta-varint event records must actually compress: a real
    // recording has to land well under the fixed-width format's 37 bytes
    // per event (frame/snapshot overhead rides on top in both formats, so
    // beating the *record* payload alone is a conservative bound).
    let fixed_width_payload = ta.end.events * 37;
    assert!(
        (a.len() as u64) * 2 < fixed_width_payload,
        "v2 recording is {}B for {} events — not under half the {}B \
         fixed-width event payload",
        a.len(),
        ta.end.events,
        fixed_width_payload
    );
}

#[test]
fn recording_is_byte_identical_across_shard_counts() {
    let baseline = record_run(1);
    for shards in [2, 4, 8] {
        let got = record_run(shards);
        assert_eq!(
            baseline, got,
            "recording bytes diverged at {shards} shards — frame or snapshot \
             boundaries leaked the shard layout"
        );
    }
}

#[test]
fn perturbed_recording_bisects_to_the_exact_event_window() {
    let bytes = record_run(1);
    let original = parse(&bytes);
    // Doctor a real recording: flip one event mid-stream and poison every
    // snapshot hash taken after it (as a genuinely divergent run would).
    let mut doctored = original.clone();
    let victim = (original.snapshots[2].event_index + 5) as usize;
    assert!(victim < original.events.len());
    doctored.events[victim].a ^= 0xdead_beef;
    for s in &mut doctored.snapshots {
        if s.event_index > victim as u64 {
            s.sim_hash ^= 1;
        }
    }
    doctored.end.sim_hash ^= 1;
    match first_divergence(&doctored, &original) {
        Divergence::Event { index, window, .. } => {
            assert_eq!(index, victim as u64, "bisection found the wrong event");
            assert!(
                window.0 <= victim as u64 && (victim as u64) < window.1,
                "window [{}, {}) does not contain event {victim}",
                window.0,
                window.1
            );
            // The window is one snapshot interval, not the whole stream.
            assert_eq!(window.0, original.snapshots[2].event_index);
            assert_eq!(window.1, original.snapshots[3].event_index);
        }
        other => panic!("expected Event divergence, got {other:?}"),
    }
}

#[test]
fn silent_state_drift_reports_statehash_with_the_node() {
    let bytes = record_run(1);
    let original = parse(&bytes);
    // Same event stream, but one node's state hash drifts from snapshot 3
    // on — the divergence events can't explain.
    let mut doctored = original.clone();
    for s in &mut doctored.snapshots[3..] {
        s.sim_hash ^= 7;
        s.nodes[2].1 ^= 7;
    }
    doctored.end.sim_hash ^= 7;
    match first_divergence(&doctored, &original) {
        Divergence::StateHash { snapshot, node, .. } => {
            assert_eq!(snapshot, 3);
            assert_eq!(node, Some(original.snapshots[3].nodes[2].0));
        }
        other => panic!("expected StateHash divergence, got {other:?}"),
    }
}
