#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Shared experiment scenarios, so the `exp_*` binaries and the
//! determinism and allocation gates under `tests/` drive identical code.

pub mod chaos;
pub mod digests;
pub mod graydetect;
pub mod sweep;

use vce::prelude::*;
use vce_exm::migrate::MigrationTechnique;
use vce_exm::msg::ExmMsg;
use vce_net::{send_msg, Addr, Endpoint, Envelope, Host};

/// Default horizon for experiment runs (10 simulated minutes).
pub const HORIZON_US: u64 = 600_000_000;

/// Outcome of one [`sharded_storm`] run: enough to verify two runs were
/// identical (digest over every endpoint's final state plus the engine's
/// own counters) and to rate the engine (events processed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StormRun {
    /// Events the engine processed.
    pub events: u64,
    /// Order-sensitive digest of all endpoint receive counters, the event
    /// count and the final simulated time. Equal digests ⇒ identical runs.
    pub digest: u64,
    /// Final simulated time, µs.
    pub final_time_us: u64,
}

/// Scalable engine stress for the sharded runner: `nodes` endpoints each
/// tick 20× per simulated second for `ticks` ticks, sending one message to
/// each of 8 deterministic neighbours (stride pattern, so traffic crosses
/// any shard layout) and churning a watchdog timer — O(n) fan-out, so it
/// scales to 10k+ nodes. `shards` picks the partition count explicitly;
/// output must be byte-identical for any value — including
/// under `VCE_SHARDS_STAGGER` wake-order permutations (the
/// `shard_stagger` race gate drives this harness through seeded sweeps).
pub fn sharded_storm(nodes: u32, ticks: u32, shards: usize) -> StormRun {
    sharded_storm_with_queue(nodes, ticks, shards).0
}

/// [`sharded_storm`], and what its event queues cost and hold at the end —
/// beside the [`StormRun`], not in it: capacity differs between shard
/// counts, the run must not.
pub fn sharded_storm_with_queue(
    nodes: u32,
    ticks: u32,
    shards: usize,
) -> (StormRun, vce_sim::queue::QueueStats) {
    const TICK: u64 = 1;
    const WATCHDOG: u64 = 2;

    struct FanoutPeer {
        me: Addr,
        peers: Vec<Addr>,
        ticks_left: u32,
        received: u64,
    }

    impl Endpoint for FanoutPeer {
        fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
            Some(self)
        }
        fn snapshot_hash(&self) -> u64 {
            let mut h = vce_net::Fnv64::new();
            h.write_u64(u64::from(self.me.node.0))
                .write_u64(u64::from(self.ticks_left))
                .write_u64(self.received);
            h.finish()
        }
        fn on_start(&mut self, host: &mut dyn Host) {
            host.set_timer(1_000, TICK);
            host.set_timer(10_000, WATCHDOG);
        }
        fn on_envelope(&mut self, _env: Envelope, _host: &mut dyn Host) {
            self.received += 1;
        }
        fn on_timer(&mut self, token: u64, host: &mut dyn Host) {
            if token != TICK {
                return;
            }
            for &p in &self.peers {
                send_msg(host, self.me, p, &self.received);
            }
            host.cancel_timer(WATCHDOG);
            host.set_timer(10_000, WATCHDOG);
            self.ticks_left -= 1;
            if self.ticks_left > 0 {
                host.set_timer(1_000, TICK);
            }
        }
    }

    let mut sim = vce_sim::Sim::new(vce_sim::SimConfig {
        seed: 0,
        topology: vce_sim::Topology::default(),
        trace_enabled: false,
        shards,
    });
    let addrs: Vec<Addr> = (0..nodes).map(|i| Addr::daemon(NodeId(i))).collect();
    // Strided neighbour set: nearby and far ids, so messages cross shard
    // boundaries under the id-modulo layout no matter the shard count.
    let strides: [u32; 8] = [1, 2, 3, 5, 7, 11, nodes / 3 + 1, nodes / 2 + 1];
    for i in 0..nodes {
        sim.add_node(MachineInfo::workstation(NodeId(i), 100.0));
        sim.add_endpoint(
            addrs[i as usize],
            Box::new(FanoutPeer {
                me: addrs[i as usize],
                peers: strides
                    .iter()
                    .map(|&s| addrs[((i + s) % nodes) as usize])
                    .collect(),
                ticks_left: ticks,
                received: 0,
            }),
        );
    }
    sim.run_until_idle();
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            digest ^= b as u64;
            digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for &a in &addrs {
        let received = sim
            .with_endpoint_mut::<FanoutPeer, u64>(a, |p| p.received)
            .expect("storm peer");
        mix(received);
    }
    mix(sim.events_processed());
    mix(sim.now_us());
    let run = StormRun {
        events: sim.events_processed(),
        digest,
        final_time_us: sim.now_us(),
    };
    (run, sim.queue_stats())
}

/// Build a settled all-workstation VCE.
pub fn workstation_vce(seed: u64, n: u32, speed: f64, cfg: ExmConfig) -> Vce {
    let mut b = VceBuilder::new(seed);
    for i in 0..n {
        b.machine(MachineInfo::workstation(NodeId(i), speed));
    }
    b.exm_config(cfg);
    b.trace_enabled(false);
    let mut vce = b.build();
    vce.settle();
    vce
}

/// A coding-complete single task.
pub fn simple_task(name: &str, mops: f64) -> TaskSpec {
    TaskSpec::new(name)
        .with_class(ProblemClass::Asynchronous)
        .with_language(Language::C)
        .with_work(mops)
}

/// One-task application.
pub fn single_task_app(db: &MachineDb, spec: TaskSpec) -> Application {
    let mut g = TaskGraph::new("single");
    g.add_task(spec);
    Application::from_graph(g, db).expect("hostable")
}

/// Measured outcome of one F3 allocation round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BiddingRound {
    /// Request→allocation latency, µs.
    pub latency_us: u64,
    /// Protocol messages during the round: request broadcast, bids,
    /// allocation, membership traffic.
    pub protocol_msgs: u64,
    /// Failure-detector heartbeats during the round — the standing cost
    /// of group liveness (at most 4n − 6 a tick; 2(n − 2) in a busy group),
    /// split out so F3 shows both curves.
    pub heartbeat_msgs: u64,
}

/// F3 scenario: one allocation round on `n` workstations under `jitter_us`
/// of LAN jitter, with messages counted from request send to allocation
/// receipt and attributed to protocol vs heartbeat via the transport's
/// category counters.
pub fn bidding_round_detailed(seed: u64, n: u32, jitter_us: u64) -> BiddingRound {
    let mut cfg = ExmConfig::default();
    cfg.migration_enabled = false;
    let mut vce = workstation_vce(seed, n, 100.0, cfg);
    if jitter_us > 0 {
        vce.sim_mut().with_fault_plan(|p| {
            p.default_link = vce_net::LinkFault {
                jitter_us,
                ..Default::default()
            };
        });
    }
    let sent_before = vce.sim().stats().sent;
    let hb_before = vce.sim().stats().heartbeats_sent;
    let app = single_task_app(vce.db(), simple_task("probe", 100.0));
    let handle = vce.submit(app, NodeId(0));
    let report = vce.run_until_done(&handle, HORIZON_US);
    assert!(
        report.completed,
        "bidding round failed: {:?}",
        report.failed
    );
    let req = vce_exm::ReqId {
        app: handle.app,
        seq: 0,
    };
    let latency = report
        .timeline
        .allocation_latency(req)
        .expect("allocation observed");
    let msgs = vce.sim().stats().sent - sent_before;
    let heartbeat_msgs = vce.sim().stats().heartbeats_sent - hb_before;
    BiddingRound {
        latency_us: latency,
        protocol_msgs: msgs - heartbeat_msgs,
        heartbeat_msgs,
    }
}

/// F3 scale row: heartbeats an idle, settled group of `n` workstations
/// sends in `window_us` — the liveness plane's standing cost.
pub fn idle_heartbeats(seed: u64, n: u32, window_us: u64) -> u64 {
    let mut vce = workstation_vce(seed, n, 100.0, ExmConfig::default());
    let before = vce.sim().stats().heartbeats_sent;
    vce.sim_mut().run_for(window_us);
    vce.sim().stats().heartbeats_sent - before
}

/// Outcome of one forced-technique migration (M1).
#[derive(Debug, Clone)]
pub struct MigrationOutcome {
    /// The technique.
    pub technique: MigrationTechnique,
    /// Total app completion time, µs.
    pub makespan_us: u64,
    /// State volume moved, KiB.
    pub state_kib: u64,
    /// Work re-executed, Mops.
    pub lost_mops: f64,
    /// Number of migration records.
    pub migrations: usize,
}

/// M1 scenario: run one `work_mops` task on a 3-workstation fleet, force a
/// migration with `technique` at `migrate_at_us`, report the cost.
///
/// `Redundant` is exercised through its natural path (redundancy = 2 and
/// an owner-eviction) rather than a forced order.
pub fn forced_migration(
    seed: u64,
    technique: MigrationTechnique,
    work_mops: f64,
) -> MigrationOutcome {
    let mut cfg = ExmConfig::default();
    cfg.migration_enabled = false; // we drive the migration ourselves
    if technique == MigrationTechnique::Redundant {
        cfg.redundancy = 2;
    }
    let mut b = VceBuilder::new(seed);
    for i in 0..4 {
        b.machine(MachineInfo::workstation(NodeId(i), 100.0).with_mem_mb(64));
    }
    b.exm_config(cfg);
    b.trace_enabled(false);
    let mut vce = b.build();
    vce.settle();
    let spec = simple_task("migrant", work_mops).with_migration(MigrationTraits {
        checkpoints: technique == MigrationTechnique::Checkpoint
            || technique == MigrationTechnique::Recompile,
        checkpoint_interval_s: 5,
        restartable: true,
        core_dumpable: technique == MigrationTechnique::CoreDump,
    });
    let app = single_task_app(vce.db(), spec);
    let handle = vce.submit(app, NodeId(0));
    // Let it run for a while, then force the move.
    let migrate_at = vce.sim().now_us() + 20_000_000;
    vce.sim_mut().run_until(migrate_at);
    let (key, host) = vce
        .placements(&handle)
        .into_iter()
        .next()
        .expect("task placed");
    if technique == MigrationTechnique::Redundant {
        // Owner returns: the daemon evicts its redundant incarnation.
        vce.set_background(host, 2.0);
    } else {
        // Order the migration directly (the leader would do this on its
        // rebalance sweep; forcing it makes the comparison exact).
        let target = NodeId(if host == NodeId(3) { 2 } else { 3 });
        let leader = Addr::leader(NodeId(0));
        vce.sim_mut().inject(
            leader,
            Addr::daemon(host),
            &ExmMsg::MigrateOut {
                key,
                to: target,
                technique,
            },
        );
    }
    let report = vce.run_until_done(&handle, 4 * HORIZON_US);
    assert!(
        report.completed,
        "{technique:?} migration run failed: {:?}",
        report.failed
    );
    let (state_kib, lost_mops) = report
        .migrations
        .first()
        .map(|m| (m.state_kib, m.lost_mops))
        .unwrap_or((0, 0.0));
    MigrationOutcome {
        technique,
        makespan_us: report.makespan_us.expect("done"),
        state_kib,
        lost_mops,
        migrations: report.migrations.len(),
    }
}

/// U1 scenario: a divisible job of `work_mops` across `n` idle machines;
/// returns the makespan.
pub fn freepar_run(seed: u64, n: u32, work_mops: f64) -> u64 {
    let mut cfg = ExmConfig::default();
    cfg.migration_enabled = false;
    let mut vce = workstation_vce(seed, n.max(2), 100.0, cfg);
    let app = single_task_app(
        vce.db(),
        simple_task("sweep", work_mops)
            .with_instances(n.max(1))
            .divisible(),
    );
    let handle = vce.submit(app, NodeId(0));
    let report = vce.run_until_done(&handle, 40 * HORIZON_US);
    assert!(report.completed, "{:?}", report.failed);
    report.makespan_us.expect("done")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bidding_round_reports_latency() {
        let lat = bidding_round_detailed(1, 4, 0).latency_us;
        // One collect round: ≥ bid timeout is not required (all bids
        // arrive), but at least a couple of network hops.
        assert!(lat > 2_000, "latency {lat}");
        assert!(lat < 5_000_000, "latency {lat}");
    }

    #[test]
    fn forced_checkpoint_migration_outcome() {
        let o = forced_migration(2, MigrationTechnique::Checkpoint, 8_000.0);
        assert_eq!(o.migrations, 1);
        assert!(o.state_kib > 0);
        assert!(o.lost_mops >= 0.0);
    }

    #[test]
    fn sharded_storm_is_shard_invariant() {
        let serial = sharded_storm(96, 4, 1);
        assert!(serial.events > 0);
        for shards in [2, 4, 8] {
            assert_eq!(sharded_storm(96, 4, shards), serial, "S={shards}");
        }
    }

    #[test]
    fn freepar_speedup_exists() {
        let t1 = freepar_run(3, 1, 20_000.0);
        let t8 = freepar_run(3, 8, 20_000.0);
        assert!(
            t8 < t1 / 3,
            "8 machines should be much faster: t1={t1} t8={t8}"
        );
    }
}
