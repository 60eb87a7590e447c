//! The virtual machine room: a simulated heterogeneous fleet running real
//! VCE daemons, plus application submission and reporting.
//!
//! Builds the §5 deployment: one scheduling/dispatching daemon per
//! machine, daemons grouped by machine class into Isis process groups
//! whose coordinators are the group leaders of Fig. 3. Executors are added
//! per submitted application. The whole thing is deterministic per seed.

use std::collections::BTreeMap;

use vce_exm::{AppId, DaemonEndpoint, ExecutorEndpoint, ExmConfig, InstanceKey};
use vce_net::{Addr, MachineClass, MachineInfo, NodeId};
use vce_sdm::MachineDb;
use vce_sim::{LoadTrace, Sim, SimConfig, Topology};

use crate::app::Application;
use crate::report::RunReport;

/// Time the group-formation phase is given before applications submit
/// (bootstrap quiet period + a couple of heartbeats).
pub const SETTLE_US: u64 = 2_500_000;

/// Fleet builder.
pub struct VceBuilder {
    seed: u64,
    db: MachineDb,
    loads: Vec<(NodeId, LoadTrace)>,
    cfg: ExmConfig,
    trace_enabled: bool,
    shards: usize,
}

impl VceBuilder {
    /// Start building a fleet; `seed` makes the whole run deterministic.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            db: MachineDb::new(),
            loads: Vec::new(),
            cfg: ExmConfig::default(),
            trace_enabled: true,
            shards: SimConfig::shards_from_env(),
        }
    }

    /// Add an always-idle machine.
    pub fn machine(&mut self, info: MachineInfo) -> &mut Self {
        self.db.register(info);
        self
    }

    /// Add a machine whose owner's activity follows `load`.
    pub fn machine_with_load(&mut self, info: MachineInfo, load: LoadTrace) -> &mut Self {
        let node = info.node;
        self.db.register(info);
        self.loads.push((node, load));
        self
    }

    /// Override the runtime configuration.
    pub fn exm_config(&mut self, cfg: ExmConfig) -> &mut Self {
        self.cfg = cfg;
        self
    }

    /// Disable tracing (hot benchmark loops).
    pub fn trace_enabled(&mut self, on: bool) -> &mut Self {
        self.trace_enabled = on;
        self
    }

    /// Partition the fleet across `n` simulator shards (defaults to the
    /// `VCE_SHARDS` environment variable; output is identical for any `n`).
    pub fn shards(&mut self, n: usize) -> &mut Self {
        self.shards = n.clamp(1, 64);
        self
    }

    /// Construct the fleet: nodes, load traces and daemons.
    pub fn build(self) -> Vce {
        let mut sim = Sim::new(SimConfig {
            seed: self.seed,
            topology: Topology::default(),
            trace_enabled: self.trace_enabled,
            shards: self.shards,
        });
        let mut loads: BTreeMap<NodeId, LoadTrace> = self.loads.into_iter().collect();
        // Group candidates per class (sorted by the GroupConfig).
        let peers_of = |class: MachineClass, db: &MachineDb| -> Vec<Addr> {
            db.by_class(class).map(|m| Addr::daemon(m.node)).collect()
        };
        for m in self.db.machines() {
            let load = loads.remove(&m.node).unwrap_or_else(LoadTrace::idle);
            sim.add_node_with_load(m.clone(), load);
        }
        for m in self.db.machines() {
            let daemon = DaemonEndpoint::new(
                m.node,
                m.class,
                peers_of(m.class, &self.db),
                self.cfg.clone(),
            );
            sim.add_endpoint(Addr::daemon(m.node), Box::new(daemon));
        }
        Vce {
            sim,
            db: self.db,
            cfg: self.cfg,
            next_app: 1,
            apps: Vec::new(),
        }
    }
}

/// Handle to a submitted application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppHandle {
    /// Application id.
    pub app: AppId,
    /// The executor endpoint address.
    pub exec: Addr,
}

/// The running virtual computing environment.
pub struct Vce {
    sim: Sim,
    db: MachineDb,
    cfg: ExmConfig,
    next_app: u64,
    apps: Vec<AppHandle>,
}

impl Vce {
    /// Run the group-formation phase. Call once before submitting.
    pub fn settle(&mut self) {
        let t = self.sim.now_us() + SETTLE_US;
        self.sim.run_until(t);
    }

    /// The machine database.
    pub fn db(&self) -> &MachineDb {
        &self.db
    }

    /// The runtime configuration in force.
    pub fn cfg(&self) -> &ExmConfig {
        &self.cfg
    }

    /// The underlying simulator (metrics, trace, fault injection).
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// Mutable simulator access.
    pub fn sim_mut(&mut self) -> &mut Sim {
        &mut self.sim
    }

    /// Submit an application from `user`'s workstation, with binaries
    /// pre-staged on every feasible machine (§4.1's prepare-before-run).
    pub fn submit(&mut self, app: Application, user: NodeId) -> AppHandle {
        self.submit_with(app, user, SubmitOptions::default())
    }

    /// Submit with explicit options.
    pub fn submit_with(
        &mut self,
        app: Application,
        user: NodeId,
        opts: SubmitOptions,
    ) -> AppHandle {
        let id = AppId(self.next_app);
        self.next_app += 1;
        if opts.stage_binaries {
            self.stage_binaries(&app);
        }
        // Each application gets its own executor port, so one workstation
        // can submit many applications concurrently.
        let exec = Addr::new(
            user,
            vce_net::PortId(vce_net::PortId::EXECUTOR.0 + (id.0 - 1) as u32),
        );
        let endpoint = ExecutorEndpoint::new(
            id,
            exec,
            app.graph.clone(),
            self.db.clone(),
            self.cfg.clone(),
        )
        .with_anticipation(opts.anticipate);
        self.sim.add_endpoint(exec, Box::new(endpoint));
        let handle = AppHandle { app: id, exec };
        self.apps.push(handle);
        handle
    }

    /// Distribute an application's prepared binaries to every feasible
    /// daemon (models §4.1: executables prepared before the run).
    pub fn stage_binaries(&mut self, app: &Application) {
        for task in app.graph.tasks() {
            let nodes: Vec<NodeId> = self
                .db
                .feasible_machines(task)
                .iter()
                .map(|m| m.node)
                .collect();
            for node in nodes {
                let unit = task.name.clone();
                self.with_daemon(node, |d| d.stage_binary(unit.clone()));
            }
            // LOCAL tasks run inside the executor; no staging needed.
        }
    }

    /// Pre-stage an input file on specific machines.
    pub fn stage_file(&mut self, node: NodeId, file: &str) {
        let f = file.to_string();
        self.with_daemon(node, |d| d.stage_file(f.clone()));
    }

    /// Run until the application reports done (or `horizon_us` elapses)
    /// and return the report.
    pub fn run_until_done(&mut self, handle: &AppHandle, horizon_us: u64) -> RunReport {
        let deadline = self.sim.now_us() + horizon_us;
        loop {
            let done = self.with_executor(handle, |e| e.is_done()).unwrap_or(true);
            if done || self.sim.now_us() >= deadline {
                break;
            }
            let next = (self.sim.now_us() + 100_000).min(deadline);
            self.sim.run_until(next);
        }
        self.report(handle)
    }

    /// Build the report for an application in its current state.
    pub fn report(&mut self, handle: &AppHandle) -> RunReport {
        let (completed, failed, makespan_us, timeline, placements) = self
            .with_executor(handle, |e| {
                (
                    e.is_done() && e.failed.is_none(),
                    e.failed.clone(),
                    e.makespan_us(),
                    e.timeline.clone(),
                    e.placements.clone(),
                )
            })
            .unwrap_or((
                false,
                Some("executor missing".into()),
                None,
                Default::default(),
                BTreeMap::new(),
            ));
        let nodes = self.sim.all_metrics();
        let node_ids: Vec<NodeId> = self.db.machines().iter().map(|m| m.node).collect();
        let mut migrations = Vec::new();
        let mut evictions = 0;
        for n in node_ids {
            if let Some((m, e)) = self.with_daemon(n, |d| (d.migrations.clone(), d.evictions)) {
                migrations.extend(m);
                evictions += e;
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
    }

    /// Inspect/mutate an executor endpoint.
    pub fn with_executor<T>(
        &mut self,
        handle: &AppHandle,
        f: impl FnOnce(&mut ExecutorEndpoint) -> T,
    ) -> Option<T> {
        self.sim
            .with_endpoint_mut::<ExecutorEndpoint, T>(handle.exec, f)
    }

    /// Inspect/mutate a daemon endpoint.
    pub fn with_daemon<T>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut DaemonEndpoint) -> T,
    ) -> Option<T> {
        self.sim
            .with_endpoint_mut::<DaemonEndpoint, T>(Addr::daemon(node), f)
    }

    /// The current group leader of a machine class, if any daemon claims
    /// the role.
    pub fn leader_of(&mut self, class: MachineClass) -> Option<NodeId> {
        let nodes: Vec<NodeId> = self.db.by_class(class).map(|m| m.node).collect();
        let alive: Vec<NodeId> = nodes
            .into_iter()
            .filter(|&n| !self.sim.is_node_dead(n))
            .collect();
        alive
            .into_iter()
            .find(|&n| self.with_daemon(n, |d| d.is_leader()).unwrap_or(false))
    }

    /// Crash a machine (daemon, tasks and all).
    pub fn kill_node(&mut self, node: NodeId) {
        self.sim.kill_node(node);
    }

    /// Revive a crashed machine; its daemon reboots and re-joins.
    pub fn revive_node(&mut self, node: NodeId) {
        self.sim.revive_node(node);
    }

    /// Set a machine's owner (background) load immediately.
    pub fn set_background(&mut self, node: NodeId, background: f64) {
        self.sim.set_background(node, background);
    }

    /// Final placements of an app keyed by instance.
    pub fn placements(&mut self, handle: &AppHandle) -> BTreeMap<InstanceKey, NodeId> {
        self.with_executor(handle, |e| e.placements.clone())
            .unwrap_or_default()
    }
}

/// Submission options.
#[derive(Debug, Clone, Copy)]
pub struct SubmitOptions {
    /// Pre-stage binaries on all feasible machines (§4.1). Disable to make
    /// daemons compile at dispatch time (the anticipatory-compilation
    /// experiment's "cold" arm).
    pub stage_binaries: bool,
    /// Enable §4.5 anticipatory processing in the executor.
    pub anticipate: bool,
}

impl Default for SubmitOptions {
    fn default() -> Self {
        Self {
            stage_binaries: true,
            anticipate: false,
        }
    }
}
