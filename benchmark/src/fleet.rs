//! A fleet of VCE daemons, built the way experiments build it or — for the
//! traced pass — by hand.
//!
//! `VceBuilder::build` constructs the daemons itself, so it cannot hand out
//! decorated ones. The traced pass therefore assembles the same fleet from
//! `Sim`, `DaemonEndpoint::new`, `ExecutorEndpoint::new` and `stage_binary`,
//! step for step as `vce::cluster` does; the harness asserts that both
//! builds produce identical simulated counters, so the trace provably
//! describes the run that was timed.

use std::collections::BTreeMap;

use vce::{AppHandle, Application, RunReport, Vce, VceBuilder};
use vce_exm::{AppId, DaemonEndpoint, ExecutorEndpoint, ExmConfig};
use vce_net::{Addr, MachineClass, MachineInfo, NodeId, PortId};
use vce_sdm::MachineDb;
use vce_sim::{LoadTrace, Sim, SimConfig, Topology};

use crate::trace::{self, Kind, Role};
use crate::workload::{run_until, Opts};

/// Everything that determines a fleet.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    pub seed: u64,
    pub machines: Vec<(MachineInfo, LoadTrace)>,
    pub cfg: ExmConfig,
}

pub enum Fleet {
    /// Built by `VceBuilder` (timed pass).
    Built(Box<Vce>),
    /// Built by hand with decorated endpoints (traced pass).
    ByHand(Box<ByHand>),
}

/// What `Vce` holds, for the hand-built fleet.
pub struct ByHand {
    sim: Sim,
    db: MachineDb,
    cfg: ExmConfig,
}

impl Fleet {
    pub fn build(spec: &FleetSpec, opts: Opts) -> Fleet {
        if !opts.traced {
            let mut b = VceBuilder::new(spec.seed);
            for (info, load) in &spec.machines {
                b.machine_with_load(info.clone(), load.clone());
            }
            b.exm_config(spec.cfg.clone())
                .trace_enabled(false)
                .shards(opts.shards);
            return Fleet::Built(Box::new(b.build()));
        }
        trace::span(Kind::FleetBuild, || {
            let mut sim = Sim::new(SimConfig {
                seed: spec.seed,
                topology: Topology::default(),
                trace_enabled: false,
                shards: opts.shards,
            });
            let mut db = MachineDb::new();
            for (info, _) in &spec.machines {
                db.register(info.clone());
            }
            let loads: BTreeMap<NodeId, &LoadTrace> =
                spec.machines.iter().map(|(m, l)| (m.node, l)).collect();
            for m in db.machines() {
                sim.add_node_with_load(m.clone(), loads[&m.node].clone());
            }
            for m in db.machines() {
                let peers = db.by_class(m.class).map(|p| Addr::daemon(p.node)).collect();
                let d = DaemonEndpoint::new(m.node, m.class, peers, spec.cfg.clone());
                sim.add_endpoint(Addr::daemon(m.node), trace::boxed(d, Role::Daemon, true));
            }
            Fleet::ByHand(Box::new(ByHand {
                sim,
                db,
                cfg: spec.cfg.clone(),
            }))
        })
    }

    pub fn sim(&mut self) -> &mut Sim {
        match self {
            Fleet::Built(vce) => vce.sim_mut(),
            Fleet::ByHand(f) => &mut f.sim,
        }
    }

    pub fn db(&self) -> &MachineDb {
        match self {
            Fleet::Built(vce) => vce.db(),
            Fleet::ByHand(f) => &f.db,
        }
    }

    /// The group-formation phase (`Vce::settle`).
    pub fn settle(&mut self) {
        match self {
            Fleet::Built(vce) => vce.settle(),
            Fleet::ByHand(f) => {
                let t = f.sim.now_us() + vce::cluster::SETTLE_US;
                run_until(&mut f.sim, t, true);
            }
        }
    }

    /// The current leader of `class` (`Vce::leader_of`).
    pub fn leader_of(&mut self, class: MachineClass) -> Option<NodeId> {
        match self {
            Fleet::Built(vce) => vce.leader_of(class),
            Fleet::ByHand(f) => f.db.by_class(class).map(|m| m.node).find(|&n| {
                let sim = &mut f.sim;
                !sim.is_node_dead(n)
                    && sim
                        .with_endpoint_mut::<DaemonEndpoint, _>(Addr::daemon(n), |d| d.is_leader())
                        .unwrap_or(false)
            }),
        }
    }

    /// Submit the fleet's first application from `user` with binaries
    /// pre-staged (`Vce::submit`).
    pub fn submit(&mut self, app: Application, user: NodeId) -> AppHandle {
        match self {
            Fleet::Built(vce) => vce.submit(app, user),
            Fleet::ByHand(f) => trace::span(Kind::Submit, || {
                let ByHand { sim, db, cfg } = &mut **f;
                for task in app.graph.tasks() {
                    for m in db.feasible_machines(task) {
                        let unit = task.name.clone();
                        sim.with_endpoint_mut::<DaemonEndpoint, _>(Addr::daemon(m.node), |d| {
                            d.stage_binary(unit)
                        });
                    }
                }
                let id = AppId(1);
                let exec = Addr::new(user, PortId::EXECUTOR);
                let ep =
                    ExecutorEndpoint::new(id, exec, app.graph.clone(), db.clone(), cfg.clone())
                        .with_anticipation(false);
                sim.add_endpoint(exec, trace::boxed(ep, Role::Executor, true));
                AppHandle { app: id, exec }
            }),
        }
    }

    /// Run until the application is done or `horizon_us` passes, in the
    /// 100 ms steps of `Vce::run_until_done`, and return its report. The
    /// traced fleet takes each step as two 50 ms halves and calls `watch`
    /// after each (same events, same final clock).
    pub fn run_until_done(
        &mut self,
        handle: &AppHandle,
        horizon_us: u64,
        mut watch: impl FnMut(&mut Sim),
    ) -> RunReport {
        let (sim, db) = match self {
            Fleet::Built(vce) => return vce.run_until_done(handle, horizon_us),
            Fleet::ByHand(f) => (&mut f.sim, &f.db),
        };
        let deadline = sim.now_us() + horizon_us;
        loop {
            let done = sim
                .with_endpoint_mut::<ExecutorEndpoint, _>(handle.exec, |e| e.is_done())
                .unwrap_or(true);
            if done || sim.now_us() >= deadline {
                break;
            }
            let next = (sim.now_us() + 100_000).min(deadline);
            let mid = sim.now_us() + 50_000;
            if mid < next {
                run_until(sim, mid, true);
                watch(sim);
            }
            run_until(sim, next, true);
            watch(sim);
        }
        trace::span(Kind::Report, || {
            let (completed, failed, makespan_us, timeline, placements) = sim
                .with_endpoint_mut::<ExecutorEndpoint, _>(handle.exec, |e| {
                    (
                        e.is_done() && e.failed.is_none(),
                        e.failed.clone(),
                        e.makespan_us(),
                        e.timeline.clone(),
                        e.placements.clone(),
                    )
                })
                .expect("the executor was added by submit");
            let nodes = sim.all_metrics();
            let mut migrations = Vec::new();
            let mut evictions = 0;
            for m in db.machines() {
                let daemon = Addr::daemon(m.node);
                if let Some((mig, ev)) = sim.with_endpoint_mut::<DaemonEndpoint, _>(daemon, |d| {
                    (d.migrations.clone(), d.evictions)
                }) {
                    migrations.extend(mig);
                    evictions += ev;
                }
            }
            RunReport {
                completed,
                failed,
                makespan_us,
                timeline,
                placements,
                nodes,
                migrations,
                evictions,
            }
        })
    }
}
