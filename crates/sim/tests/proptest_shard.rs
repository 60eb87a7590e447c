//! Property gate for the sharded engine: on **random topologies** (random
//! link costs down to the zero-cost degenerate case, random
//! jitter/drop/duplicate link faults, random crash/revive schedules) a
//! sharded run must be indistinguishable from the serial run — same event
//! count, same final clock, same network stats, same trace, byte for byte.
//!
//! The conservative-window invariant — *no cross-shard event ever lands
//! inside the window that produced it* — is enforced by an always-on
//! assert in the engine's cross-shard enqueue path (`push_or_remote` in
//! `shard.rs`), so every sharded case here is also a direct test of the
//! barrier rule: a topology whose minimum cross-node latency undercut the
//! lookahead would abort the run rather than silently diverge. The
//! explicit assertion below pins the window to that floor exactly.

use proptest::prelude::*;
use vce_net::{send_msg, Addr, Endpoint, Envelope, Host, LinkFault, MachineInfo, NodeId};
use vce_sim::topology::LinkParams;
use vce_sim::{Sim, SimConfig, Topology};

const HORIZON_US: u64 = 120_000;

/// Everything a run can observe, rendered comparable.
fn fingerprint(sim: Sim) -> (u64, u64, String, String) {
    let events = sim.events_processed();
    let now = sim.now_us();
    let stats = format!("{:?}", sim.stats().snapshot());
    let trace = sim.trace().dump();
    (events, now, stats, trace)
}

/// A chatty peer: periodic tick, two strided sends per tick, reply to a
/// fraction of received messages (amplification), watchdog churn.
struct Peer {
    me: Addr,
    peers: Vec<Addr>,
    period_us: u64,
    ticks_left: u32,
    received: u64,
}

const TICK: u64 = 1;
const WATCHDOG: u64 = 2;

impl Endpoint for Peer {
    fn on_start(&mut self, host: &mut dyn Host) {
        host.set_timer(self.period_us, TICK);
        host.set_timer(self.period_us * 4, WATCHDOG);
    }
    fn on_envelope(&mut self, env: Envelope, host: &mut dyn Host) {
        self.received += 1;
        // Every third message is answered — cross-shard causality chains.
        if self.received.is_multiple_of(3) {
            send_msg(host, self.me, env.src, &self.received);
        }
    }
    fn on_timer(&mut self, token: u64, host: &mut dyn Host) {
        if token != TICK || self.ticks_left == 0 {
            // A revive re-runs on_start, which re-arms the tick after the
            // budget is spent — quiesce instead of underflowing.
            return;
        }
        for &p in &self.peers {
            send_msg(host, self.me, p, &self.received);
        }
        host.cancel_timer(WATCHDOG);
        host.set_timer(self.period_us * 4, WATCHDOG);
        self.ticks_left -= 1;
        if self.ticks_left > 0 {
            host.set_timer(self.period_us, TICK);
        }
    }
}

#[derive(Debug, Clone)]
struct Case {
    seed: u64,
    nodes: u32,
    shards: usize,
    base_us: u64,
    per_kib_us: u64,
    jitter_us: u64,
    drop_prob: f64,
    dup_prob: f64,
    /// (node index, kill at, revive at) — scheduled mid-run crash.
    crash: Option<(u32, u64, u64)>,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        any::<u64>(),
        3u32..=10,
        2usize..=8,
        0u64..=2_000,
        0u64..=64,
        (0u64..=1_500, 0.0f64..0.3, 0.0f64..0.3),
        proptest::option::of((0u32..10, 10_000u64..60_000, 60_000u64..110_000)),
    )
        .prop_map(
            |(
                seed,
                nodes,
                shards,
                base_us,
                per_kib_us,
                (jitter_us, drop_prob, dup_prob),
                crash,
            )| Case {
                seed,
                nodes,
                shards,
                base_us,
                per_kib_us,
                jitter_us,
                drop_prob,
                dup_prob,
                crash: crash.map(|(n, k, r)| (n % nodes, k, r)),
            },
        )
}

fn build_and_run(case: &Case, shards: usize) -> (u64, u64, String, String) {
    let topo = Topology::uniform(LinkParams {
        base_us: case.base_us,
        per_kib_us: case.per_kib_us,
    });
    let mut sim = Sim::new(SimConfig {
        seed: case.seed,
        topology: topo,
        trace_enabled: true,
        shards,
    });
    sim.with_fault_plan(|p| {
        p.default_link = LinkFault {
            jitter_us: case.jitter_us,
            drop_prob: case.drop_prob,
            dup_prob: case.dup_prob,
            extra_delay_us: 0,
        };
    });
    let addrs: Vec<Addr> = (0..case.nodes).map(|i| Addr::daemon(NodeId(i))).collect();
    for i in 0..case.nodes {
        sim.add_node(MachineInfo::workstation(NodeId(i), 100.0));
        let far = 1 + (i as usize * 7) % (case.nodes as usize - 1);
        sim.add_endpoint(
            addrs[i as usize],
            Box::new(Peer {
                me: addrs[i as usize],
                peers: vec![
                    addrs[((i + 1) % case.nodes) as usize],
                    addrs[(i as usize + far) % case.nodes as usize],
                ],
                period_us: 400 + u64::from(i) * 37 % 1_100,
                ticks_left: 40,
                received: 0,
            }),
        );
    }
    // One shard has no cross-shard pair and an unbounded window; more
    // shards advance exactly one link floor at a time (a wider window
    // would trip the push_or_remote assert mid-run).
    let floor = if shards == 1 {
        u64::MAX
    } else {
        case.base_us.max(1)
    };
    assert_eq!(sim.window_lookahead_us(), floor, "S={shards}");
    if let Some((victim, kill_at, revive_at)) = case.crash {
        sim.schedule_fault(kill_at, vce_net::FaultOp::Kill(NodeId(victim)));
        sim.schedule_fault(revive_at, vce_net::FaultOp::Revive(NodeId(victim)));
    }
    sim.run_until(HORIZON_US);
    fingerprint(sim)
}

proptest! {
    #[test]
    fn sharded_runs_match_serial_on_random_topologies(case in case_strategy()) {
        let serial = build_and_run(&case, 1);
        prop_assert!(serial.0 > 0, "workload generated no events");
        let sharded = build_and_run(&case, case.shards);
        prop_assert_eq!(&sharded.0, &serial.0, "events diverged (S={})", case.shards);
        prop_assert_eq!(&sharded.1, &serial.1, "final time diverged");
        prop_assert_eq!(&sharded.2, &serial.2, "net stats diverged");
        prop_assert_eq!(&sharded.3, &serial.3, "trace diverged");
    }
}
