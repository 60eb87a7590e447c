//! `alloc_steady`: the paper's Fig. 3 bidding protocol in steady state.
//!
//! Eight workstation daemons form the default Isis group; a ninth node
//! hosts a client that, every 50 ms of simulated time, fires a fresh
//! `ResourceRequest` at every daemon (exactly what the real executor does)
//! and times the `Allocation` reply from the scheduled send. In simulated
//! time this is an open loop at 20 requests/s — the period is far above the
//! ≈3.4 ms round, so no backlog forms. WAL and migration are off (the warm
//! round is allocation-free); links carry 800 µs of seeded jitter.

use vce_codec::Codec;
use vce_exm::{AppId, ExmConfig, ExmMsg, ReqId};
use vce_net::{Addr, Endpoint, Envelope, Host, MachineClass, MachineInfo, NodeId};
use vce_sim::LoadTrace;

use crate::fleet::{Fleet, FleetSpec};
use crate::trace::{self, Kind, Role};
use crate::workload::{run_until, Batch, Dist, Hist, Net, Opts, Recording, Workload};

const DAEMONS: u32 = 8;
const PERIOD_US: u64 = 50_000;
const JITTER_US: u64 = 800;
const TICK: u64 = 1;
/// Rounds run (and discarded) by set-up: every slab, scratch vector and
/// pool reaches its steady capacity.
const WARMUP_ROUNDS: u64 = 400;

struct Client {
    me: Addr,
    daemons: Vec<Addr>,
    seq: u32,
    /// Scheduled send time of the round in flight (0 = none).
    sent_at: u64,
    granted: u64,
    /// Replies that matched no round in flight (late duplicates).
    stray: u64,
    latency: Hist,
}

impl Endpoint for Client {
    fn on_start(&mut self, host: &mut dyn Host) {
        host.set_timer(PERIOD_US, TICK);
    }

    fn on_envelope(&mut self, env: Envelope, host: &mut dyn Host) {
        let Ok(ExmMsg::Allocation { req, nodes }) = env.decode_payload::<ExmMsg>() else {
            return;
        };
        if req.seq != self.seq || self.sent_at == 0 || nodes.is_empty() {
            self.stray += 1;
            return;
        }
        self.latency.record(host.now_us() - self.sent_at);
        self.sent_at = 0;
        self.granted += 1;
    }

    fn on_timer(&mut self, _token: u64, host: &mut dyn Host) {
        self.seq += 1;
        self.sent_at = host.now_us();
        let msg = ExmMsg::ResourceRequest {
            req: ReqId {
                app: AppId(7),
                seq: self.seq,
            },
            class: MachineClass::Workstation,
            count_min: 1,
            count_max: 2,
            mem_mb: 0,
            unit: String::new(),
            priority_boost: 0,
            reply_to: self.me,
        };
        let payload = host.encode_with(&mut |enc| msg.encode(enc));
        for &d in &self.daemons {
            host.send(self.me, d, payload.clone());
        }
        host.set_timer(PERIOD_US, TICK);
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }

    fn snapshot_hash(&self) -> u64 {
        let mut h = vce_net::Fnv64::new();
        h.write_u64(u64::from(self.seq)).write_u64(self.granted);
        h.finish()
    }
}

fn fleet_spec(seed: u64) -> FleetSpec {
    FleetSpec {
        seed,
        machines: (0..DAEMONS)
            .map(|i| {
                (
                    MachineInfo::workstation(NodeId(i), 100.0),
                    LoadTrace::idle(),
                )
            })
            .collect(),
        cfg: ExmConfig {
            wal_enabled: false,
            migration_enabled: false,
            ..ExmConfig::default()
        },
    }
}

pub struct AllocSteady {
    fleet: Fleet,
    opts: Opts,
    client: Addr,
    /// Simulated time of the next batch boundary (mid-period, after the
    /// round's reply and before the next tick).
    next_us: u64,
    ops_done: u64,
}

impl AllocSteady {
    fn advance(&mut self, rounds: u64) {
        let target = self.next_us + rounds * PERIOD_US;
        // One `.vct` frame per call, ≤ 1 MiB at ≈15 B per event.
        let step = if self.opts.fine_steps {
            500 * PERIOD_US
        } else {
            rounds * PERIOD_US
        };
        while self.next_us < target {
            self.next_us = (self.next_us + step).min(target);
            run_until(self.fleet.sim(), self.next_us, self.opts.traced);
        }
    }

    /// `(granted, stray, overflow)` since the last call, with the latency
    /// samples moved into `dist`.
    fn drain_client(&mut self, dist: &mut Dist) -> (u64, u64, u64) {
        self.fleet
            .sim()
            .with_endpoint_mut::<Client, _>(self.client, |c| {
                let overflow = c.latency.overflow();
                c.latency.drain_into(dist);
                let out = (c.granted, c.stray, overflow);
                c.granted = 0;
                c.stray = 0;
                out
            })
            .expect("client endpoint exists")
    }
}

impl Workload for AllocSteady {
    const NAME: &'static str = "alloc_steady";
    const SLICE_OPS: u64 = 2_500;
    const SIM_SLICES: usize = 100;
    const REPLAYS: bool = false;
    // Two shards cost ≈3 ms per round here (three barriers per window).
    const PROBE_OPS: u64 = 2_000;

    fn setup(seed: u64, opts: Opts) -> Self {
        let mut fleet = Fleet::build(&fleet_spec(seed), opts);
        fleet
            .sim()
            .with_fault_plan(|p| p.default_link.jitter_us = JITTER_US);
        fleet.settle();
        let sim = fleet.sim();
        let client = Addr::executor(NodeId(DAEMONS));
        sim.add_node(MachineInfo::workstation(client.node, 100.0));
        let ep = Client {
            me: client,
            daemons: (0..DAEMONS).map(|i| Addr::daemon(NodeId(i))).collect(),
            seq: 0,
            sent_at: 0,
            granted: 0,
            stray: 0,
            latency: Hist::new(0, 16_384),
        };
        sim.add_endpoint(client, trace::boxed(ep, Role::Client, opts.traced));
        let mut this = Self {
            next_us: sim.now_us() + PERIOD_US / 2,
            fleet,
            opts,
            client,
            ops_done: 0,
        };
        this.advance(WARMUP_ROUNDS);
        this.drain_client(&mut Dist::default());
        if opts.record {
            this.fleet.sim().record_to_memory(Self::NAME, u64::MAX / 2);
        }
        this
    }

    fn nodes(&self) -> u64 {
        u64::from(DAEMONS) + 1
    }

    fn run(&mut self, ops: u64) -> Batch {
        let mut b = Batch::default();
        let before = self.fleet.sim().stats().snapshot();
        let events0 = self.fleet.sim().events_processed();
        if self.opts.traced {
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
        s.events = self.fleet.sim().events_processed() - events0;
        s.net = Net::delta(&before, &self.fleet.sim().stats().snapshot());
        let (granted, stray, overflow) = self.drain_client(&mut s.latency_us);
        // The round is the op: its completion time is its latency.
        s.makespan_us = s.latency_us.clone();
        s.requests = ops;
        s.grants = granted;
        s.failed = (ops - granted.min(ops) + stray + overflow).min(ops);
        b
    }

    fn finish(mut self) -> Recording {
        let mut r = Recording::default();
        if self.opts.record {
            r.absorb_from(self.fleet.sim());
        }
        r
    }
}
