//! `storm_dense` and `storm_fleet`: engine-only message storms.
//!
//! Every node ticks each simulated millisecond (a *wave*): it sends the
//! current time as a `u64` to each of its peers, then cancels and re-arms a
//! 10 ms watchdog — the delivery / timer-cancel / effects pattern of the
//! legacy `message_storm` and `sharded_storm` rows, made endless so the
//! harness can slice it. Links carry 200 µs of seeded jitter and lose
//! nothing. Sixteen nodes keep a latency histogram; the rest only count.

use vce_net::{send_msg, Addr, Endpoint, Envelope, Host, MachineInfo, NodeId};
use vce_sim::{Sim, SimConfig, Topology};

use crate::trace::{self, Kind, Role};
use crate::workload::{run_until, Batch, Dist, Hist, Net, Opts, Recording, Workload};

const TICK: u64 = 1;
const WATCHDOG: u64 = 2;
const WAVE_US: u64 = 1_000;
const WATCHDOG_US: u64 = 10_000;
const JITTER_US: u64 = 200;
/// Slice boundaries sit this far after a tick: past the last delivery of
/// the previous wave (≤ 1 ms + payload + jitter after *its* tick) and
/// before the first of this one, so exactly one wave is in flight at
/// every boundary and per-slice sent and delivered counts match.
const BOUNDARY_OFFSET_US: u64 = 500;
/// Nodes that record latencies.
const WATCHERS: u32 = 16;

/// Latency bookkeeping of one watcher node.
struct PeerWatch {
    /// Send → deliver, µs.
    latency: Hist,
    /// Wave tick → last delivery of that wave at this node, µs.
    wave: Hist,
    cur_stamp: u64,
    last_arrival: u64,
}

struct StormPeer {
    me: Addr,
    peers: Vec<Addr>,
    received: u64,
    watch: Option<Box<PeerWatch>>,
}

impl Endpoint for StormPeer {
    fn on_start(&mut self, host: &mut dyn Host) {
        host.set_timer(WAVE_US, TICK);
        host.set_timer(WATCHDOG_US, WATCHDOG);
    }

    fn on_envelope(&mut self, env: Envelope, host: &mut dyn Host) {
        self.received += 1;
        let Some(w) = self.watch.as_mut() else {
            return;
        };
        let stamp: u64 = env.decode_payload().expect("storm payloads are u64");
        let now = host.now_us();
        w.latency.record(now - stamp);
        if stamp != w.cur_stamp {
            if w.cur_stamp != 0 {
                w.wave.record(w.last_arrival - w.cur_stamp);
            }
            w.cur_stamp = stamp;
        }
        w.last_arrival = now;
    }

    fn on_timer(&mut self, token: u64, host: &mut dyn Host) {
        if token != TICK {
            return; // the watchdog never fires: every tick pushes it out
        }
        let now = host.now_us();
        for &p in &self.peers {
            send_msg(host, self.me, p, &now);
        }
        host.cancel_timer(WATCHDOG);
        host.set_timer(WATCHDOG_US, WATCHDOG);
        host.set_timer(WAVE_US, TICK);
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }

    fn snapshot_hash(&self) -> u64 {
        let mut h = vce_net::Fnv64::new();
        h.write_u64(u64::from(self.me.node.0))
            .write_u64(self.received);
        h.finish()
    }
}

/// A storm over `NODES` machines: all-to-all at 16, eight strided peers
/// (near and far ids, so traffic crosses any shard layout) at 10,240.
pub struct Storm<const NODES: u32> {
    sim: Sim,
    opts: Opts,
    /// The next slice boundary, µs.
    next_us: u64,
    ops_done: u64,
    fanout: u64,
}

fn peers_of(i: u32, nodes: u32) -> Vec<Addr> {
    if nodes <= 16 {
        (0..nodes)
            .filter(|&j| j != i)
            .map(|j| Addr::daemon(NodeId(j)))
            .collect()
    } else {
        [1, 2, 3, 5, 7, 11, nodes / 3 + 1, nodes / 2 + 1]
            .iter()
            .map(|&s| Addr::daemon(NodeId((i + s) % nodes)))
            .collect()
    }
}

impl<const NODES: u32> Storm<NODES> {
    fn build(seed: u64, opts: Opts, warmup_waves: u64) -> Self {
        let mut sim = Sim::new(SimConfig {
            seed,
            topology: Topology::default(),
            trace_enabled: false,
            shards: opts.shards,
        });
        sim.with_fault_plan(|p| p.default_link.jitter_us = JITTER_US);
        for i in 0..NODES {
            sim.add_node(MachineInfo::workstation(NodeId(i), 100.0));
            let me = Addr::daemon(NodeId(i));
            let peer = StormPeer {
                me,
                peers: peers_of(i, NODES),
                received: 0,
                watch: (i < WATCHERS).then(|| {
                    Box::new(PeerWatch {
                        latency: Hist::new(WAVE_US, 512),
                        wave: Hist::new(WAVE_US, 512),
                        cur_stamp: 0,
                        last_arrival: 0,
                    })
                }),
            };
            sim.add_endpoint(me, trace::boxed(peer, Role::Storm, opts.traced));
        }
        let fanout = peers_of(0, NODES).len() as u64;
        let mut storm = Self {
            sim,
            opts,
            next_us: BOUNDARY_OFFSET_US,
            ops_done: 0,
            fanout,
        };
        // Warm-up: queue, effect buffers and encode pool reach steady
        // capacity; its samples are discarded.
        storm.advance(warmup_waves);
        storm.drain_watchers();
        if opts.record {
            storm.sim.record_to_memory("storm", u64::MAX / 2);
        }
        storm
    }

    fn advance(&mut self, waves: u64) {
        let target = self.next_us + waves * WAVE_US;
        // One `.vct` frame per call, ≤ 1 MiB at ≈17 B per event: a hundred
        // dense waves, or a twentieth of a fleet wave (whose 82 k deliveries
        // all land within the 200 µs of jitter).
        let step = match (self.opts.fine_steps, NODES <= 16) {
            (false, _) => waves * WAVE_US,
            (true, true) => 100 * WAVE_US,
            (true, false) => WAVE_US / 20,
        };
        while self.next_us < target {
            self.next_us = (self.next_us + step).min(target);
            run_until(&mut self.sim, self.next_us, self.opts.traced);
        }
    }

    /// Collect (and reset) the watcher histograms; returns the
    /// distributions and how many samples overflowed a histogram.
    fn drain_watchers(&mut self) -> (Dist, Dist, u64) {
        let (mut latency, mut wave, mut overflow) = (Dist::default(), Dist::default(), 0);
        for i in 0..WATCHERS.min(NODES) {
            self.sim
                .with_endpoint_mut::<StormPeer, _>(Addr::daemon(NodeId(i)), |p| {
                    let w = p.watch.as_mut().expect("watcher node");
                    overflow += w.latency.overflow() + w.wave.overflow();
                    w.latency.drain_into(&mut latency);
                    w.wave.drain_into(&mut wave);
                })
                .expect("storm peer exists");
        }
        (latency, wave, overflow)
    }

    fn run_waves(&mut self, ops: u64) -> Batch {
        let mut b = Batch::default();
        let before = self.sim.stats().snapshot();
        let events0 = self.sim.events_processed();
        if self.opts.traced {
            // One driver call per op, so every span carries its op id.
            for _ in 0..ops {
                trace::set_op(self.ops_done);
                b.measure(|| trace::span(Kind::Op, || self.advance(1)));
                self.ops_done += 1;
            }
        } else {
            b.measure(|| self.advance(ops));
            self.ops_done += ops;
        }
        let s = &mut b.sim;
        s.ops = ops;
        s.events = self.sim.events_processed() - events0;
        s.net = Net::delta(&before, &self.sim.stats().snapshot());
        let (latency, wave, overflow) = self.drain_watchers();
        s.latency_us = latency;
        s.makespan_us = wave;
        // Every message of every wave must arrive: one wave is in flight at
        // both ends of the batch, so a batch delivers exactly what it sends.
        let per_wave = self.fanout * u64::from(NODES);
        let missing = (ops * per_wave).saturating_sub(s.net.delivered) + s.net.dropped + overflow;
        s.failed = missing.div_ceil(per_wave).min(ops);
        b
    }
}

macro_rules! storm_workload {
    ($nodes:literal, $name:literal, $slice:literal, $probe:literal, $warmup:literal) => {
        impl Workload for Storm<$nodes> {
            const NAME: &'static str = $name;
            const SLICE_OPS: u64 = $slice;
            const SIM_SLICES: usize = 100;
            const REPLAYS: bool = false;
            const PROBE_OPS: u64 = $probe;

            fn setup(seed: u64, opts: Opts) -> Self {
                Self::build(seed, opts, $warmup)
            }
            fn nodes(&self) -> u64 {
                $nodes
            }
            fn run(&mut self, ops: u64) -> Batch {
                self.run_waves(ops)
            }
            fn finish(mut self) -> Recording {
                let mut r = Recording::default();
                if self.opts.record {
                    r.absorb_from(&mut self.sim);
                }
                r
            }
        }
    };
}

// 16 nodes: 272 events per wave, cache-resident.
storm_workload!(16, "storm_dense", 1_250, 1_500, 2_000);
// 10,240 nodes: ≈103 k events per wave, working set far beyond L2.
storm_workload!(10_240, "storm_fleet", 1, 4, 4);

/// The dense storm.
pub type StormDense = Storm<16>;
/// The fleet-scale storm.
pub type StormFleet = Storm<10_240>;
