//! `app_dense` and `app_faults`: whole applications on a fresh fleet each.
//!
//! One op is what every `exp_*` binary does: build a fleet of 12
//! workstations (three speeds, some with an intermittent owner) plus one
//! SIMD and one MIMD machine under the **default** `ExmConfig` (WAL,
//! migration, hedging and adaptive detection all on), let the groups form,
//! push one application through the script/SDM front end, submit it from
//! node 0 and run it to completion. Applications are dispatch-dense — bags,
//! random DAGs, fans and generated §5 scripts, a quarter each — so the
//! executor, the CPU model, the journal and the front end all carry weight
//! beside the heartbeat floor. `app_faults` runs the same applications
//! under a seeded schedule of crashes (one of them the group leader), a
//! partition and a duplicating, delaying burst, so recovery, view change and
//! retry run where `app_dense` journals, heartbeats and dispatches.

use std::collections::BTreeSet;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vce::Application;
use vce_exm::{AppEvent, DaemonEndpoint, ExmConfig, ReqId};
use vce_net::{Addr, FaultOp, LinkFault, MachineClass, MachineInfo, NodeId};
use vce_sim::{LoadTrace, Sim};
use vce_taskgraph::TaskGraph;
use vce_workloads::{bag_of_tasks, fan, intermittent_owner, random_dag};

use crate::fleet::{Fleet, FleetSpec};
use crate::trace::{self, Kind};
use crate::workload::{spanned, Batch, Net, Opts, Recording, Watch, Workload};

/// Workstations per fleet (node 0 is the user's).
pub const WORKSTATIONS: u32 = 12;
/// Machines per fleet: the workstations, one SIMD, one MIMD.
pub const FLEET: u32 = WORKSTATIONS + 2;
/// Applications in the set; the window runs through it again and again.
const SET: u64 = 96;
/// Applications per timed slice: four of each kind.
const SLICE: u64 = 16;
/// Seeded LAN jitter on every link, as on `alloc_steady`.
const JITTER_US: u64 = 800;
/// Simulated time an application is given before it counts as failed.
const HORIZON_US: u64 = 600_000_000;

/// What is pushed through the front end.
#[derive(Debug, Clone)]
pub enum AppInput {
    Graph(TaskGraph),
    Script(String),
}

/// One generated operation: a fleet and an application. A pure function
/// of `(seed, index, faults)`.
#[derive(Debug, Clone)]
pub struct Fixture {
    pub seed: u64,
    pub fleet: FleetSpec,
    pub input: AppInput,
    pub faults: bool,
}

/// A §5 application description: remote directives with count ranges, a
/// conditional on fleet state, a channel and a local program.
fn script(rng: &mut SmallRng, seed: u64) -> String {
    let collectors = rng.gen_range(2..=4);
    let extra = rng.gen_range(2..=3);
    let want_idle = rng.gen_range(4..=16);
    let kib = rng.gen_range(8..=64);
    format!(
        "# generated, seed {seed}\n\
         ASYNC {collectors} \"/bench/{seed}/collect.vce\"\n\
         WORKSTATION 1 \"/bench/{seed}/gather.vce\"\n\
         IF IDLE(WORKSTATION) >= {want_idle}\n\
         ASYNC {extra}- \"/bench/{seed}/refine.vce\"\n\
         ELSE\n\
         ASYNC 1 \"/bench/{seed}/refine.vce\"\n\
         END\n\
         SYNC 1 \"/bench/{seed}/predict.vce\"\n\
         LSYNC 1 \"/bench/{seed}/couple.vce\"\n\
         CONNECT \"/bench/{seed}/collect.vce\" \"/bench/{seed}/gather.vce\" {kib}\n\
         LOCAL \"/bench/{seed}/display.vce\"\n"
    )
}

/// The `index`-th fixture of the set derived from `base_seed`.
pub fn fixture(base_seed: u64, index: u64, faults: bool) -> Fixture {
    let seed = base_seed.wrapping_mul(1_000_003).wrapping_add(index);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut machines = Vec::new();
    for i in 0..WORKSTATIONS {
        let speed = [50.0, 80.0, 120.0][(i % 3) as usize];
        // Every third machine that is not the user's has an owner who
        // comes and goes.
        let load = if i != 0 && i % 3 == 0 {
            intermittent_owner(&mut rng, HORIZON_US)
        } else {
            LoadTrace::idle()
        };
        machines.push((MachineInfo::workstation(NodeId(i), speed), load));
    }
    machines.push((
        MachineInfo::workstation(NodeId(WORKSTATIONS), 2_000.0)
            .with_class(MachineClass::Simd)
            .with_mem_mb(512),
        LoadTrace::idle(),
    ));
    machines.push((
        MachineInfo::workstation(NodeId(WORKSTATIONS + 1), 800.0)
            .with_class(MachineClass::Mimd)
            .with_mem_mb(256),
        LoadTrace::idle(),
    ));
    let input = match index % 4 {
        0 => AppInput::Graph(bag_of_tasks(&mut rng, 64, 20.0, 80.0)),
        1 => AppInput::Graph(random_dag(&mut rng, 40, 0.08, 40.0)),
        2 => AppInput::Graph(fan(24, 60.0)),
        _ => AppInput::Script(script(&mut rng, seed)),
    };
    let mut cfg = ExmConfig::default();
    if faults && index.is_multiple_of(3) {
        // Every crash of this fleet tears the tail of the victim's log.
        cfg.storage.fault.torn_tail = 1.0;
    }
    Fixture {
        seed,
        fleet: FleetSpec {
            seed,
            machines,
            cfg,
        },
        input,
        faults,
    }
}

/// One crash window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kill {
    pub at_us: u64,
    pub until_us: u64,
    pub node: NodeId,
}

/// A fault schedule in absolute simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Everything handed to `Sim::schedule_fault`.
    pub ops: Vec<(u64, FaultOp)>,
    pub kills: Vec<Kill>,
    /// `(from, until, nodes cut off from node 0)`.
    pub partition: (u64, u64, Vec<NodeId>),
}

/// The schedule for one application submitted at `start_us`: three
/// crash/revive pairs on workstations other than the user's (the first
/// victim is `leader`, unless that is the user's machine), one partition
/// and heal, one duplicating, delaying burst on every link. A pure function of
/// its arguments.
pub fn fault_schedule(seed: u64, leader: NodeId, start_us: u64) -> Schedule {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x00FA_17ED);
    let mut ops = Vec::new();
    let mut kills: Vec<Kill> = Vec::new();
    while kills.len() < 3 {
        let node = if kills.is_empty() && leader != NodeId(0) {
            leader
        } else {
            NodeId(rng.gen_range(1..WORKSTATIONS))
        };
        if kills.iter().any(|k| k.node == node) {
            continue;
        }
        let at_us = start_us + rng.gen_range(300_000..2_500_000);
        let until_us = at_us + rng.gen_range(1_500_000..3_000_000);
        kills.push(Kill {
            at_us,
            until_us,
            node,
        });
        ops.push((at_us, FaultOp::Kill(node)));
        ops.push((until_us, FaultOp::Revive(node)));
    }
    let from = start_us + rng.gen_range(500_000..2_500_000);
    let until = from + rng.gen_range(1_000_000..2_000_000);
    // Two workstations, so that with all three victims down the user's
    // side still holds a strict majority of the group (7 of 12), and each
    // parallel machine on a coin flip.
    let mut cut: Vec<NodeId> = Vec::new();
    while cut.len() < 2 {
        let n = NodeId(rng.gen_range(1..WORKSTATIONS));
        if !cut.contains(&n) {
            cut.push(n);
        }
    }
    cut.extend(
        (WORKSTATIONS..FLEET)
            .map(NodeId)
            .filter(|_| rng.gen::<bool>()),
    );
    ops.extend(cut.iter().map(|&n| (from, FaultOp::Partition(n, 1))));
    ops.push((until, FaultOp::Heal));
    let burst_at = start_us + rng.gen_range(300_000..2_500_000);
    let burst_until = burst_at + rng.gen_range(500_000..1_500_000);
    let burst = LinkFault {
        // No loss: a `MigrateIn` dropped on a live link loses its task for
        // good (the executor only re-places instances of *crashed* hosts),
        // and a workload must not contain ops that fail. Kills and the
        // partition still drop plenty.
        drop_prob: 0.0,
        extra_delay_us: rng.gen_range(0..3_000),
        jitter_us: rng.gen_range(0..10_000),
        dup_prob: rng.gen_range(0.05..0.15),
    };
    ops.push((burst_at, FaultOp::DefaultLink(burst)));
    ops.push((burst_until, FaultOp::DefaultLink(LinkFault::default())));
    ops.sort_by_key(|&(at, _)| at);
    Schedule {
        ops,
        kills,
        partition: (from, until, cut),
    }
}

/// Polls the workstation daemons' views (traced pass only): how long a
/// crash takes to leave every survivor's view, and whether a machine the
/// schedule leaves alone is ever dropped from one.
struct ViewWatch {
    schedule: Option<Schedule>,
    evicted: Vec<bool>,
    /// `(observer, member)` pairs present at the previous poll.
    present: BTreeSet<(u32, u32)>,
    out: Watch,
}

impl ViewWatch {
    fn new(schedule: Option<Schedule>) -> Self {
        let kills = schedule.as_ref().map_or(0, |s| s.kills.len());
        Self {
            schedule,
            evicted: vec![false; kills],
            present: BTreeSet::new(),
            out: Watch::default(),
        }
    }

    fn poll(&mut self, sim: &mut Sim) {
        let now = sim.now_us();
        let mut present = BTreeSet::new();
        let mut observers = Vec::new();
        for d in 0..WORKSTATIONS {
            if sim.is_node_dead(NodeId(d)) {
                continue;
            }
            observers.push(d);
            sim.with_endpoint_mut::<DaemonEndpoint, _>(Addr::daemon(NodeId(d)), |ep| {
                present.extend(ep.view().addrs().map(|a| (d, a.node.0)));
            });
        }
        // A false eviction: a machine the schedule never touches, dropped
        // since the last poll by an observer it never touches either.
        let touched = |n: u32| {
            self.schedule.as_ref().is_some_and(|s| {
                s.kills.iter().any(|k| k.node.0 == n) || s.partition.2.contains(&NodeId(n))
            })
        };
        let dropped: BTreeSet<u32> = self
            .present
            .iter()
            .filter(|&&(d, m)| !present.contains(&(d, m)) && !touched(d) && !touched(m))
            .map(|&(_, m)| m)
            .collect();
        self.out.false_evictions += dropped.len() as u64;
        self.present = present;
        let Some(s) = &self.schedule else { return };
        for (i, k) in s.kills.iter().enumerate() {
            if self.evicted[i] || now < k.at_us {
                continue;
            }
            if now >= k.until_us {
                self.evicted[i] = true;
                self.out.unevicted += 1;
            } else if observers
                .iter()
                .all(|&d| !self.present.contains(&(d, k.node.0)))
            {
                self.evicted[i] = true;
                self.out.evict_ms.push((now - k.at_us) / 1_000);
            }
        }
    }
}

/// Run one fixture to completion and fold what happened into `batch`.
fn run_app(fx: &Fixture, opts: Opts, batch: &mut Batch, rec: &mut Recording) {
    let mut watch = ViewWatch::new(None);
    let (mut fleet, report, submitted_us) = batch.measure(|| {
        let mut fleet = Fleet::build(&fx.fleet, opts);
        fleet
            .sim()
            .with_fault_plan(|p| p.default_link.jitter_us = JITTER_US);
        if opts.record {
            fleet.sim().record_to_memory("app", u64::MAX / 2);
        }
        spanned(Kind::Settle, opts.traced, || fleet.settle());
        let app = spanned(Kind::AppBuild, opts.traced, || match &fx.input {
            AppInput::Graph(g) => Application::from_graph(g.clone(), fleet.db()),
            AppInput::Script(src) => Application::from_script("generated", src, fleet.db()),
        })
        .expect("generated applications are hostable on the generated fleet");
        let submitted_us = fleet.sim().now_us();
        let handle = fleet.submit(app, NodeId(0));
        if fx.faults {
            let leader = fleet
                .leader_of(MachineClass::Workstation)
                .unwrap_or(NodeId(0));
            let schedule = fault_schedule(fx.seed, leader, submitted_us);
            for (at, op) in &schedule.ops {
                fleet.sim().schedule_fault(*at, op.clone());
            }
            watch = ViewWatch::new(Some(schedule));
        }
        let report = fleet.run_until_done(&handle, HORIZON_US, |sim| watch.poll(sim));
        (fleet, report, submitted_us)
    });

    let s = &mut batch.sim;
    s.ops += 1;
    s.events += fleet.sim().events_processed();
    let zero = vce_net::stats::StatsSnapshot::default();
    s.net
        .absorb(&Net::delta(&zero, &fleet.sim().stats().snapshot()));

    let mut ok = report.completed;
    if let Some(done) = report.makespan_us {
        // `makespan_us` is the clock at AppDone; the fleet's formation
        // time before submission is not the application's.
        s.makespan_us.add(done - submitted_us, 1);
    }
    let mut reqs: BTreeSet<ReqId> = BTreeSet::new();
    let mut sent = 0;
    for (_, ev) in report.timeline.events() {
        match ev {
            AppEvent::RequestSent { req } => {
                sent += 1;
                reqs.insert(*req);
            }
            AppEvent::Allocated { .. } => s.grants += 1,
            _ => {}
        }
    }
    s.requests += sent;
    s.retries += sent - reqs.len() as u64;
    for req in reqs {
        if let Some(lat) = report.timeline.allocation_latency(req) {
            s.latency_us.add(lat, 1);
        }
    }
    s.migrations += report.migrations.len() as u64;
    s.evictions += report.evictions;
    for n in 0..FLEET {
        let rec = fleet
            .sim()
            .with_endpoint_mut::<DaemonEndpoint, _>(Addr::daemon(NodeId(n)), |d| {
                d.last_recovery
                    .as_ref()
                    .map(|r| (r.seq, r.replayed, r.prefix_ok))
            })
            .flatten();
        if let Some((seq, replayed, prefix_ok)) = rec {
            s.recoveries += seq;
            s.replayed += replayed;
            s.prefix_ok += u64::from(prefix_ok);
            ok &= prefix_ok;
        }
    }
    s.failed += u64::from(!ok);

    batch.watch.evict_ms.extend_from_slice(&watch.out.evict_ms);
    batch.watch.unevicted += watch.out.unevicted;
    batch.watch.false_evictions += watch.out.false_evictions;
    if opts.record {
        rec.absorb_from(fleet.sim());
    }
}

/// The application workloads; `FAULTS` selects `app_faults`.
pub struct Apps<const FAULTS: bool> {
    fixtures: Vec<Fixture>,
    opts: Opts,
    cursor: usize,
    ops_done: u64,
    rec: Recording,
}

impl<const FAULTS: bool> Apps<FAULTS> {
    fn build(seed: u64, opts: Opts) -> Self {
        let fixtures: Vec<Fixture> = (0..SET).map(|i| fixture(seed, i, FAULTS)).collect();
        // Warm-up: one application outside the window (allocator arenas,
        // page faults, lazy statics); the untraced, unrecorded variant so
        // it leaves no spans or frames behind.
        run_app(
            &fixtures[0],
            Opts::TIMED,
            &mut Batch::default(),
            &mut Recording::default(),
        );
        Self {
            fixtures,
            opts,
            cursor: 0,
            ops_done: 0,
            rec: Recording::default(),
        }
    }

    fn run_apps(&mut self, ops: u64) -> Batch {
        let mut b = Batch::default();
        for _ in 0..ops {
            let fx = &self.fixtures[self.cursor % self.fixtures.len()];
            self.cursor += 1;
            if self.opts.traced {
                trace::set_op(self.ops_done);
                trace::span(Kind::Op, || run_app(fx, self.opts, &mut b, &mut self.rec));
            } else {
                run_app(fx, self.opts, &mut b, &mut self.rec);
            }
            self.ops_done += 1;
        }
        b
    }
}

macro_rules! app_workload {
    ($faults:literal, $name:literal) => {
        impl Workload for Apps<$faults> {
            const NAME: &'static str = $name;
            const SLICE_OPS: u64 = SLICE;
            const SIM_SLICES: usize = (SET / SLICE) as usize;
            const REPLAYS: bool = true;
            // One of each kind: two shards cost ≈2 s per application here.
            const PROBE_OPS: u64 = 4;

            fn setup(seed: u64, opts: Opts) -> Self {
                Self::build(seed, opts)
            }
            fn nodes(&self) -> u64 {
                u64::from(FLEET)
            }
            fn run(&mut self, ops: u64) -> Batch {
                self.run_apps(ops)
            }
            fn finish(self) -> Recording {
                self.rec
            }
            fn scripts(&self) -> Vec<String> {
                self.fixtures
                    .iter()
                    .filter_map(|f| match &f.input {
                        AppInput::Script(s) => Some(s.clone()),
                        AppInput::Graph(_) => None,
                    })
                    .collect()
            }
        }
    };
}

app_workload!(false, "app_dense");
app_workload!(true, "app_faults");

/// Applications on a healthy fleet.
pub type AppDense = Apps<false>;
/// The same applications under a fault schedule.
pub type AppFaults = Apps<true>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_a_pure_function_of_the_seed() {
        for i in 0..8 {
            let (a, b) = (fixture(7, i, true), fixture(7, i, true));
            assert_eq!(a.seed, b.seed);
            assert_eq!(format!("{:?}", a.input), format!("{:?}", b.input));
            assert_eq!(format!("{:?}", a.fleet), format!("{:?}", b.fleet));
            let c = fixture(8, i, true);
            assert_ne!(format!("{:?}", a.fleet), format!("{:?}", c.fleet));
        }
        // The four kinds rotate with the index.
        assert!(matches!(fixture(1, 3, false).input, AppInput::Script(_)));
        assert!(matches!(fixture(1, 4, false).input, AppInput::Graph(_)));
    }

    #[test]
    fn generated_scripts_parse_and_build() {
        for i in (3..40).step_by(4) {
            let fx = fixture(11, i, false);
            let AppInput::Script(src) = &fx.input else {
                panic!("index {i} should be a script");
            };
            let mut db = vce_sdm::MachineDb::new();
            for (m, _) in &fx.fleet.machines {
                db.register(m.clone());
            }
            let app = Application::from_script("generated", src, &db).expect("hostable");
            assert!(app.graph.len() >= 6);
        }
    }

    #[test]
    fn fault_schedules_spare_the_user_and_most_of_the_fleet() {
        for seed in 0..200u64 {
            let leader = NodeId((seed % u64::from(WORKSTATIONS)) as u32);
            let s = fault_schedule(seed, leader, 2_500_000);
            assert_eq!(s, fault_schedule(seed, leader, 2_500_000), "pure");
            assert_eq!(s.kills.len(), 3);
            if leader != NodeId(0) {
                assert_eq!(s.kills[0].node, leader, "the leader is a victim");
            }
            let mut dead: BTreeSet<NodeId> = BTreeSet::new();
            for (at, op) in &s.ops {
                assert!(*at >= 2_500_000);
                match op {
                    FaultOp::Kill(n) => {
                        assert_ne!(*n, NodeId(0), "seed {seed} kills the user's machine");
                        assert!(n.0 < WORKSTATIONS);
                        assert!(dead.insert(*n), "double kill");
                        assert!(dead.len() <= (FLEET / 2) as usize);
                    }
                    FaultOp::Revive(n) => assert!(dead.remove(n), "revive of a live node"),
                    FaultOp::Partition(n, _) => assert_ne!(*n, NodeId(0)),
                    _ => {}
                }
            }
            assert!(dead.is_empty(), "every victim is revived");
            // Victims and cut-off workstations together leave the user's
            // side a strict majority of the 12-member group.
            let gone: BTreeSet<NodeId> = s
                .kills
                .iter()
                .map(|k| k.node)
                .chain(s.partition.2.iter().copied().filter(|n| n.0 < WORKSTATIONS))
                .collect();
            assert!(WORKSTATIONS as usize - gone.len() > WORKSTATIONS as usize / 2);
            assert!(matches!(
                s.ops.iter().rev().find(|(_, op)| matches!(op, FaultOp::DefaultLink(_))),
                Some((_, FaultOp::DefaultLink(lf))) if *lf == LinkFault::default()
            ));
        }
    }
}
