//! The execution program (§5's `execute()` pseudocode) — one per
//! application, running on the submitting user's workstation.
//!
//! It walks the (coding-complete) task graph: for every dispatchable task
//! it sends a resource request to the appropriate class group, loads the
//! program on the allocated machines, tracks instance completions (and
//! evictions, and moves), charges dataflow transfer time before dependents
//! dispatch, runs `LOCAL` tasks on the user's own workstation, and
//! broadcasts termination when everything is done.
//!
//! One deliberate generalization over the 1994 pseudocode: the prototype
//! allocated *everything* up front and then started execution; we dispatch
//! tasks as their dataflow predecessors finish (the paper's own §4
//! describes exactly this dynamic behaviour as the goal). Retries make the
//! executor robust to leader failover: requests are idempotent and
//! re-sent until answered.
//!
//! State is one row per task, indexed by `TaskId`, holding one row per
//! instance the task runs with (DESIGN decision 32); a remote key names a
//! row or is dropped.

use std::collections::{BTreeMap, BTreeSet};

use vce_channels::registry::{ChannelId, ChannelRegistry, PortId as ChanPortId, Role};
use vce_codec::Codec;
use vce_net::{Addr, Endpoint, Envelope, Host, MachineClass, NodeId, NodeList};
use vce_sdm::MachineDb;
use vce_taskgraph::{TaskGraph, TaskId};

use crate::backoff::backoff_delay_us;
use crate::config::{
    ExmConfig, HEDGE_MIN_REMAINING_MOPS, HEDGE_MIN_SAMPLES, HEDGE_STALL_PERMILLE,
    REQUEST_RETRY_LIMIT, TRANSFER_US_PER_KIB,
};
use crate::events::{AppEvent, Timeline};
use crate::msg::{AppId, ExmMsg, InstanceKey, LoadProgram, ReqId};

/// Timer tokens carry a kind tag in bits 32.. and a 32-bit payload (task
/// id or request seq) in the low bits, so the *full* `u32` id space is
/// collision-free. (The previous scheme added ids to bases spaced 2^20
/// apart, so a task id ≥ 2^20 bled into the probe token and beyond.) Tags
/// stay far below the isis namespace at 2^48 — see docs/PROTOCOL.md. The
/// daemon uses the same encoding since PR 7, and vce-lint P003 now
/// enforces space disjointness statically (it caught the daemon carrying
/// this file's pre-fix scheme).
const TOKEN_TAG_SHIFT: u32 = 32;
const TAG_RETRY: u64 = 1;
const TAG_DISPATCH: u64 = 2;
const TAG_PROBE: u64 = 3;
const TOKEN_PROBE: u64 = TAG_PROBE << TOKEN_TAG_SHIFT;
const LOCAL_PID_BASE: u64 = 1 << 16;

/// Retry timer for request `seq`.
fn retry_token(seq: u32) -> u64 {
    (TAG_RETRY << TOKEN_TAG_SHIFT) | u64::from(seq)
}

/// Dispatch (dataflow-delay) timer for `task`.
fn dispatch_token(task: TaskId) -> u64 {
    (TAG_DISPATCH << TOKEN_TAG_SHIFT) | u64::from(task.0)
}

/// Split a token into its kind tag and 32-bit payload.
fn decode_token(token: u64) -> (u64, u32) {
    (token >> TOKEN_TAG_SHIFT, token as u32)
}
/// Unanswered probes before an instance is declared lost.
const PROBE_MISS_LIMIT: u32 = 3;

#[derive(Debug)]
struct PendingReq {
    task: TaskId,
    /// Instance slots this request will fill.
    slots: Vec<u32>,
    class: MachineClass,
    /// Machines the group may grant, `(count_min, count_max)`: every retry
    /// re-sends the range the request was opened with.
    count: (u32, u32),
    allocated: bool,
    retries: u32,
    /// Speculative straggler hedge: the granted copies load as *redundant*
    /// so the stalling primary keeps running and the first finisher wins
    /// (never two non-redundant copies of one instance).
    hedge: bool,
}

/// Progress estimate for one instance's primary copy, built from probe
/// replies (`TaskStatusReply.remaining_mops`). The rate over the whole
/// sample span — not adjacent samples — damps processor-sharing jitter.
#[derive(Debug)]
struct ProgressTrack {
    node: NodeId,
    first_at_us: u64,
    first_remaining: f64,
    last_at_us: u64,
    last_remaining: f64,
    samples: u32,
}

/// One task of the graph.
#[derive(Debug, Default)]
struct TaskRow {
    /// Its request, dataflow-delay timer or local work was started.
    dispatched: bool,
    /// Every instance reported done.
    complete: bool,
    /// Work per instance, Mops (fixed at first allocation for divisible
    /// tasks).
    per_instance_mops: f64,
    /// One row per instance the task runs with: empty until the first
    /// allocation (or the local start), then as many as were granted. A
    /// ranged task's count only grows; a divisible task's is fixed then.
    instances: Vec<InstanceRow>,
}

/// One instance slot of a task. Where its primary copy runs is not here
/// but in [`ExecutorEndpoint::placements`].
#[derive(Debug, Default)]
struct InstanceRow {
    done: bool,
    /// Live copies (redundant execution).
    copies: BTreeSet<NodeId>,
    /// Copies written off by the watchdog whose hosts may in fact be alive
    /// behind a partition (§5's false-suspicion case). Until the instance
    /// completes we keep sending kills so a healed stale copy cannot keep
    /// running a SYNC task concurrently with its replacement.
    superseded: BTreeSet<NodeId>,
    /// Watchdog: unanswered probes (0 when none is counted).
    probe_misses: u32,
    /// Straggler hedging: progress estimate of the primary copy, fed by
    /// probe replies.
    progress: Option<ProgressTrack>,
    /// Already hedged (at most one speculative copy).
    hedged: bool,
    /// §4.2: the port the instance connects through.
    port: Option<ChanPortId>,
}

/// The executor endpoint.
pub struct ExecutorEndpoint {
    me: Addr,
    app: AppId,
    graph: TaskGraph,
    db: MachineDb,
    cfg: ExmConfig,
    /// §4.5 anticipatory processing on/off.
    anticipate: bool,
    /// One row per task, indexed by `TaskId`.
    tasks: Vec<TaskRow>,
    /// Every request sent, indexed by `ReqId::seq` (dense from 0, never
    /// removed: a late answer must find its request).
    requests: Vec<PendingReq>,
    /// The task of each local work item, indexed by pid − `LOCAL_PID_BASE`.
    local_pids: Vec<TaskId>,
    /// Where each instance currently runs (primary copy).
    pub placements: BTreeMap<InstanceKey, NodeId>,
    /// Recorded run history for experiments.
    pub timeline: Timeline,
    /// Set when the application cannot proceed (allocation refused).
    pub failed: Option<String>,
    /// §4.2 channel bookkeeping: one channel per stream arc, one port per
    /// connected instance, redirected as instances move.
    pub channels: ChannelRegistry,
    /// Channel per stream arc `(from task, to task)`.
    stream_channels: Vec<(TaskId, TaskId, ChannelId)>,
    done: bool,
}

impl ExecutorEndpoint {
    /// Build an executor for `app` at endpoint `me` (conventionally
    /// `Addr::executor(user_node)`; concurrent applications from one
    /// workstation use distinct ports). The graph must be coding-complete
    /// (`vce_taskgraph::validate`).
    pub fn new(app: AppId, me: Addr, graph: TaskGraph, db: MachineDb, cfg: ExmConfig) -> Self {
        debug_assert!(vce_taskgraph::validate(&graph).is_ok());
        // Provision one channel per stream arc up front; ports attach as
        // instances are placed ("the runtime system will be responsible for
        // the creation, placement, and destruction of ports", §4.2).
        let mut channels = ChannelRegistry::new();
        let stream_channels: Vec<(TaskId, TaskId, ChannelId)> = graph
            .arcs()
            .iter()
            .filter(|a| a.kind == vce_taskgraph::ArcKind::Stream)
            .map(|a| (a.from, a.to, channels.create_channel()))
            .collect();
        Self {
            me,
            app,
            tasks: graph.ids().map(|_| TaskRow::default()).collect(),
            graph,
            db,
            cfg,
            anticipate: false,
            requests: Vec::new(),
            local_pids: Vec::new(),
            placements: BTreeMap::new(),
            timeline: Timeline::default(),
            failed: None,
            channels,
            stream_channels,
            done: false,
        }
    }

    fn row(&self, task: TaskId) -> Option<&TaskRow> {
        self.tasks.get(task.0 as usize)
    }

    fn is_complete(&self, task: TaskId) -> bool {
        self.row(task).is_some_and(|r| r.complete)
    }

    /// The row of one of this application's instances: `None` for another
    /// application's key, a task the graph does not know, or a slot past
    /// the instances the task runs with.
    fn slot(&self, key: InstanceKey) -> Option<&InstanceRow> {
        if key.app != self.app {
            return None;
        }
        self.tasks
            .get(key.task as usize)?
            .instances
            .get(key.instance as usize)
    }

    fn slot_mut(&mut self, key: InstanceKey) -> Option<&mut InstanceRow> {
        if key.app != self.app {
            return None;
        }
        self.tasks
            .get_mut(key.task as usize)?
            .instances
            .get_mut(key.instance as usize)
    }

    /// This application's key for `instance` of `task`.
    fn key(&self, task: u32, instance: u32) -> InstanceKey {
        InstanceKey {
            app: self.app,
            task,
            instance,
        }
    }

    /// Every instance row with its key, in key order.
    fn slots(&self) -> impl Iterator<Item = (InstanceKey, &InstanceRow)> + '_ {
        (0u32..).zip(&self.tasks).flat_map(move |(task, row)| {
            (0u32..)
                .zip(&row.instances)
                .map(move |(instance, s)| (self.key(task, instance), s))
        })
    }

    /// One of this application's requests (`None` for another's, or a seq
    /// never sent).
    fn request_mut(&mut self, req: ReqId) -> Option<&mut PendingReq> {
        if req.app != self.app {
            return None;
        }
        self.requests.get_mut(req.seq as usize)
    }

    /// Connect a placed instance's port to every stream channel its task
    /// participates in, at its current machine.
    fn wire_ports(&mut self, key: InstanceKey, node: NodeId) {
        let task = TaskId(key.task);
        let involved: Vec<(ChannelId, Role)> = self
            .stream_channels
            .iter()
            .filter_map(|&(from, to, ch)| {
                if from == task {
                    Some((ch, Role::Sender))
                } else if to == task {
                    Some((ch, Role::Receiver))
                } else {
                    None
                }
            })
            .collect();
        if involved.is_empty() {
            return;
        }
        let port = match self.slot(key).and_then(|s| s.port) {
            Some(port) => port,
            None => self.channels.create_port(Addr::daemon(node)),
        };
        if let Some(s) = self.slot_mut(key) {
            s.port = Some(port);
        }
        let _ = self.channels.move_port(port, Addr::daemon(node));
        for (ch, role) in involved {
            let _ = self.channels.attach(port, ch, role);
        }
    }

    /// Redirect an instance's port after a move (§4.2: "monitor, redirect,
    /// and move connections between tasks").
    fn redirect_port(&mut self, key: InstanceKey, to: NodeId) {
        if let Some(port) = self.slot(key).and_then(|s| s.port) {
            let _ = self.channels.move_port(port, Addr::daemon(to));
        }
    }

    /// Destroy an instance's port when it finishes.
    fn retire_port(&mut self, key: InstanceKey) {
        if let Some(port) = self.slot_mut(key).and_then(|s| s.port.take()) {
            let _ = self.channels.destroy_port(port);
        }
    }

    /// Enable §4.5 anticipatory processing (pre-compilation and input-file
    /// replication for dataflow-blocked tasks).
    pub fn with_anticipation(mut self, on: bool) -> Self {
        self.anticipate = on;
        self
    }

    /// Application finished (successfully or not)?
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Makespan, µs, once done.
    pub fn makespan_us(&self) -> Option<u64> {
        self.timeline.done_at()
    }

    fn send(&self, host: &mut dyn Host, dst: Addr, msg: &ExmMsg) {
        // Pooled encode: see ExmDaemon::send.
        let payload = host.encode_with(&mut |enc| msg.encode(enc));
        host.send(self.me, dst, payload);
    }

    fn class_daemons(&self, class: MachineClass) -> Vec<Addr> {
        self.db
            .by_class(class)
            .map(|m| Addr::daemon(m.node))
            .collect()
    }

    // ------------------------------------------------------------------
    // Dispatch
    // ------------------------------------------------------------------

    fn dispatch_ready(&mut self, host: &mut dyn Host) {
        let mut ready: Vec<TaskId> = self
            .graph
            .ids()
            .filter(|&t| self.row(t).is_some_and(|r| !r.complete && !r.dispatched))
            .filter(|&t| self.graph.predecessors(t).all(|p| self.is_complete(p)))
            .collect();
        // §3.1.1's hint: "dispatching of the longer job can be given higher
        // priority so opportunities for parallel execution will be
        // maximized" — request resources for dominant tasks first.
        ready.sort_by_key(|&t| {
            let dominance = self.graph.get(t).map_or(0, |s| s.hints.expected_dominance);
            (std::cmp::Reverse(dominance), t)
        });
        for task in ready {
            // Charge the dataflow transfer time from finished predecessors
            // before the dependent may start.
            let delay: u64 = self
                .graph
                .arcs()
                .iter()
                .filter(|a| a.kind == vce_taskgraph::ArcKind::DataFlow && a.to == task)
                .map(|a| a.data_kib * TRANSFER_US_PER_KIB)
                .max()
                .unwrap_or(0);
            if let Some(row) = self.tasks.get_mut(task.0 as usize) {
                row.dispatched = true;
            }
            if delay > 0 {
                host.set_timer(delay, dispatch_token(task));
            } else {
                self.dispatch_task(task, host);
            }
        }
    }

    fn dispatch_task(&mut self, task: TaskId, host: &mut dyn Host) {
        let Some(spec) = self.graph.get(task).cloned() else {
            return;
        };
        if spec.local_only {
            // Run on the user's workstation (§5 LOCAL).
            if let Some(row) = self.tasks.get_mut(task.0 as usize) {
                row.instances
                    .resize_with(spec.instances as usize, Default::default);
            }
            let node = host.machine().node;
            for i in 0..spec.instances {
                let pid = LOCAL_PID_BASE + self.local_pids.len() as u64;
                self.local_pids.push(task);
                host.start_work(pid, spec.work_mops);
                let key = self.key(task.0, i);
                self.placements.insert(key, node);
                self.timeline
                    .push(host.now_us(), AppEvent::Loaded { key, node });
            }
            return;
        }
        let classes = self.db.feasible_classes(&spec);
        let Some(&class) = classes.first() else {
            self.fail(host, format!("no feasible machines for task {task:?}"));
            return;
        };
        let count = if spec.divisible {
            (1, spec.instances)
        } else {
            (
                spec.instances_min.min(spec.instances),
                spec.instances * self.cfg.redundancy.max(1),
            )
        };
        let slots: Vec<u32> = (0..spec.instances).collect();
        self.open_request(task, class, slots, count, false, host);
    }

    /// Open a request for `slots` of `task` that admits `count` machines
    /// (`count_min`, `count_max`), send it and arm its retry timer.
    fn open_request(
        &mut self,
        task: TaskId,
        class: MachineClass,
        slots: Vec<u32>,
        count: (u32, u32),
        hedge: bool,
        host: &mut dyn Host,
    ) {
        let seq = self.requests.len() as u32;
        self.requests.push(PendingReq {
            task,
            slots,
            class,
            count,
            allocated: false,
            retries: 0,
            hedge,
        });
        self.send_request(seq, host);
        host.set_timer(self.cfg.request_retry_us, retry_token(seq));
    }

    /// Send request `seq` to its class group as it was opened: the first
    /// time and on every retry.
    fn send_request(&mut self, seq: u32, host: &mut dyn Host) {
        let Some(p) = self.requests.get(seq as usize) else {
            return;
        };
        let Some(spec) = self.graph.get(p.task) else {
            return;
        };
        let req = ReqId { app: self.app, seq };
        let msg = ExmMsg::ResourceRequest {
            req,
            class: p.class,
            count_min: p.count.0,
            count_max: p.count.1,
            mem_mb: spec.mem_mb,
            unit: spec.name.clone(),
            priority_boost: spec.hints.priority_boost,
            reply_to: self.me,
        };
        for d in self.class_daemons(p.class) {
            self.send(host, d, &msg);
        }
        self.timeline
            .push(host.now_us(), AppEvent::RequestSent { req });
    }

    fn handle_allocation(&mut self, req: ReqId, nodes: NodeList, host: &mut dyn Host) {
        let Some(pending) = self.request_mut(req) else {
            return;
        };
        if pending.allocated || nodes.is_empty() {
            return; // duplicate (leader retry / failover re-allocation)
        }
        pending.allocated = true;
        let task = pending.task;
        let slots = pending.slots.clone();
        let hedge = pending.hedge;
        self.timeline.push(
            host.now_us(),
            AppEvent::Allocated {
                req,
                nodes: nodes.as_slice().to_vec(),
            },
        );
        let Some(spec) = self.graph.get(task).cloned() else {
            return;
        };
        let Some(run) = self.tasks.get_mut(task.0 as usize) else {
            return;
        };
        // Instance plan: divisible tasks split work across what we got;
        // others replicate, with surplus machines as redundant copies.
        let (assignments, per_instance): (Vec<(u32, NodeId, bool)>, f64) = if spec.divisible {
            let n = nodes.len().min(slots.len()).max(1);
            // Only the first allocation fixes the work split. A later
            // re-request for a *lost* slot arrives here with slots=[that
            // slot]; reuse the established plan — resetting it used to
            // relaunch slot 0 with the whole task's work and shrink
            // the instance count, so the task never converged (found by
            // the exp_chaos eviction/re-request schedules).
            let per = if run.instances.is_empty() {
                run.instances.resize_with(n, Default::default);
                spec.work_mops / n as f64
            } else {
                run.per_instance_mops
            };
            (
                slots
                    .iter()
                    .zip(nodes.iter())
                    .take(n)
                    // A hedge copy is redundant by construction: the
                    // stalling primary stays the one non-redundant
                    // incarnation, whoever finishes first wins.
                    .map(|(&slot, &node)| (slot, node, hedge))
                    .collect(),
                per,
            )
        } else {
            // Ranged requests (`SYNC 5,10`) accept fewer primaries than the
            // maximum: the task runs with what the group granted (at least
            // instances_min — the leader enforced count_min).
            let primaries = slots.len().min(nodes.len()).max(1);
            let n = primaries.max(run.instances.len());
            run.instances.resize_with(n, Default::default);
            let redundant = nodes.len() > primaries;
            let mut v = Vec::new();
            for (i, &slot) in slots.iter().take(primaries).enumerate() {
                if let Some(&node) = nodes.as_slice().get(i) {
                    v.push((slot, node, redundant));
                }
            }
            // Surplus machines host redundant copies, round-robin. The
            // node list came off the wire: index defensively rather than
            // trusting its length arithmetic.
            for (j, &node) in nodes.iter().enumerate().skip(primaries) {
                let Some(&slot) = slots.get((j - primaries) % primaries) else {
                    break;
                };
                v.push((slot, node, true));
            }
            (v, spec.work_mops)
        };
        run.per_instance_mops = per_instance;
        for (slot, node, redundant) in assignments {
            let key = self.key(task.0, slot);
            let Some(s) = self.slot_mut(key) else {
                continue;
            };
            s.copies.insert(node);
            // The node legitimately hosts this instance again — don't keep
            // killing its fresh copy.
            s.superseded.remove(&node);
            self.placements.entry(key).or_insert(node);
            if !hedge {
                // A hedge copy must not steal the primary's stream ports.
                self.wire_ports(key, node);
            }
            let lp = LoadProgram {
                key,
                unit: spec.name.clone(),
                work_mops: per_instance,
                mem_mb: spec.mem_mb,
                checkpoints: spec.migration.checkpoints,
                checkpoint_interval_us: u64::from(spec.migration.checkpoint_interval_s) * 1_000_000,
                restartable: spec.migration.restartable,
                core_dumpable: spec.migration.core_dumpable,
                redundant,
                input_files: spec.input_files.clone(),
                reply_to: self.me,
            };
            self.send(host, Addr::daemon(node), &ExmMsg::Load(lp));
            self.timeline
                .push(host.now_us(), AppEvent::Loaded { key, node });
        }
    }

    fn instance_done(&mut self, key: InstanceKey, node: NodeId, host: &mut dyn Host) {
        let Some(s) = self.slot_mut(key) else {
            return;
        };
        if s.done {
            return; // duplicate completion (redundant copy raced the kill)
        }
        s.done = true;
        // Kill surviving redundant copies of this instance, plus any
        // written-off copy on a host that may still be alive behind a
        // partition.
        let mut doomed = std::mem::take(&mut s.copies);
        doomed.append(&mut s.superseded);
        doomed.remove(&node);
        s.progress = None;
        s.hedged = false;
        self.placements.insert(key, node);
        self.retire_port(key);
        self.timeline
            .push(host.now_us(), AppEvent::InstanceDone { key, node });
        for other in doomed {
            self.send(host, Addr::daemon(other), &ExmMsg::KillTask { key });
        }
        let task = TaskId(key.task);
        let Some(run) = self.tasks.get_mut(task.0 as usize) else {
            return;
        };
        if run.instances.iter().all(|s| s.done) {
            run.complete = true;
            self.timeline
                .push(host.now_us(), AppEvent::TaskComplete { task: task.0 });
            if self.tasks.iter().all(|r| r.complete) {
                self.finish(host);
            } else {
                if self.anticipate {
                    self.send_anticipations(host);
                }
                self.dispatch_ready(host);
            }
        }
    }

    fn instance_evicted(&mut self, key: InstanceKey, node: NodeId, host: &mut dyn Host) {
        let Some(s) = self.slot_mut(key) else {
            return;
        };
        // Whatever copy survives, its progress history starts over.
        s.progress = None;
        self.timeline
            .push(host.now_us(), AppEvent::InstanceEvicted { key, node });
        let Some(s) = self.slot_mut(key).filter(|s| !s.done) else {
            return;
        };
        s.copies.remove(&node);
        if let Some(&next) = s.copies.first() {
            // A redundant copy survives: it becomes the primary the
            // watchdog follows.
            self.placements.insert(key, next);
            return;
        }
        // Last incarnation gone: re-request one machine for this slot.
        let task = TaskId(key.task);
        let Some(spec) = self.graph.get(task) else {
            return;
        };
        if let Some(&class) = self.db.feasible_classes(spec).first() {
            self.open_request(task, class, vec![key.instance], (1, 1), false, host);
        }
    }

    fn finish(&mut self, host: &mut dyn Host) {
        if self.done {
            return;
        }
        self.done = true;
        self.timeline.push(host.now_us(), AppEvent::AppDone);
        // "When an application terminates, the execution program notifies
        // all machines working on the application to terminate." (§5)
        let app = self.app;
        let daemons: Vec<Addr> = self
            .db
            .machines()
            .iter()
            .map(|m| Addr::daemon(m.node))
            .collect();
        for d in daemons {
            self.send(host, d, &ExmMsg::Terminate { app });
        }
    }

    fn fail(&mut self, host: &mut dyn Host, reason: String) {
        if host.log_enabled() {
            host.log(format!("executor: application failed: {reason}"));
        }
        self.failed = Some(reason);
        self.finish(host);
    }

    /// §4.5: ask idle machines to pre-compile blocked tasks' programs and
    /// pre-stage their input files.
    fn send_anticipations(&mut self, host: &mut dyn Host) {
        let blocked: Vec<TaskId> = self
            .graph
            .ids()
            .filter(|&t| self.row(t).is_some_and(|r| !r.complete && !r.dispatched))
            .filter(|&t| self.graph.predecessors(t).any(|p| !self.is_complete(p)))
            .collect();
        for task in blocked {
            let Some(spec) = self.graph.get(task).cloned() else {
                continue;
            };
            for class in self.db.feasible_classes(&spec) {
                // Fund a couple of *candidate* machines per class, not the
                // whole group: anticipation must not steal cycles from the
                // machines about to run the current frontier. Prefer the
                // high end of the class (placement ties break low), and
                // avoid our own workstation.
                let mut targets = self.class_daemons(class);
                targets.retain(|d| d.node != self.me.node);
                targets.reverse();
                targets.truncate(2);
                if targets.is_empty() {
                    targets = self.class_daemons(class);
                    targets.truncate(1);
                }
                for d in targets {
                    self.send(
                        host,
                        d,
                        &ExmMsg::AnticipateCompile {
                            unit: spec.name.clone(),
                            compile_mops: self.cfg.dispatch_compile_mops,
                        },
                    );
                    for f in &spec.input_files {
                        self.send(
                            host,
                            d,
                            &ExmMsg::AnticipateFile {
                                file: f.clone(),
                                kib: self.cfg.input_file_kib,
                            },
                        );
                    }
                }
            }
        }
    }
}

/// Watchdog helper block.
impl ExecutorEndpoint {
    fn instance_outstanding(&self, key: InstanceKey) -> bool {
        !self.is_complete(TaskId(key.task)) && self.slot(key).is_some_and(|s| !s.done)
    }

    /// Fold a probe reply's remaining-work report into the instance's
    /// progress estimate and hedge if the primary copy has stalled
    /// (CPU-degraded host, gray failure): speculatively request one more
    /// machine, loading the copy as *redundant* so the duplicate-execution
    /// invariant is preserved and the first finisher kills the loser.
    fn note_progress(
        &mut self,
        key: InstanceKey,
        node: NodeId,
        remaining: f64,
        host: &mut dyn Host,
    ) {
        if !self.instance_outstanding(key) {
            return;
        }
        // Only the primary copy's progress drives hedging.
        if self.placements.get(&key) != Some(&node) {
            return;
        }
        let now = host.now_us();
        let Some(s) = self.slot_mut(key) else {
            return;
        };
        let (samples, first_at_us, first_remaining) = match &mut s.progress {
            Some(t) if t.node == node => {
                t.samples += 1;
                t.last_at_us = now;
                t.last_remaining = remaining;
                (t.samples, t.first_at_us, t.first_remaining)
            }
            _ => {
                // First sample for this host (or the primary moved):
                // (re)base the estimate.
                s.progress = Some(ProgressTrack {
                    node,
                    first_at_us: now,
                    first_remaining: remaining,
                    last_at_us: now,
                    last_remaining: remaining,
                    samples: 1,
                });
                return;
            }
        };
        if samples < HEDGE_MIN_SAMPLES || s.hedged || remaining <= HEDGE_MIN_REMAINING_MOPS {
            return;
        }
        let elapsed = now.saturating_sub(first_at_us);
        if elapsed == 0 {
            return;
        }
        let rate = (first_remaining - remaining).max(0.0) / elapsed as f64;
        // Nominal: the host's full per-job speed. Processor sharing divides
        // it, so the stall fraction must sit below 1/(plausible co-runners).
        let Some(nominal) = self.db.get(node).map(|m| m.speed_mops / 1e6) else {
            return;
        };
        if rate * 1000.0 >= nominal * f64::from(HEDGE_STALL_PERMILLE) {
            return;
        }
        let task = TaskId(key.task);
        let Some(spec) = self.graph.get(task) else {
            return;
        };
        if !spec.divisible {
            // Non-divisible tasks already have the redundancy knob; hedging
            // targets divisible slots whose work split is fixed.
            return;
        }
        let Some(&class) = self.db.feasible_classes(spec).first() else {
            return;
        };
        if let Some(s) = self.slot_mut(key) {
            s.hedged = true;
        }
        if host.log_enabled() {
            host.log(format!(
                "executor: instance {key:?} stalled on {node} (rate {:.3}/{:.3} Mops/ms), hedging",
                rate * 1000.0,
                nominal * 1000.0
            ));
        }
        self.timeline
            .push(now, AppEvent::InstanceHedged { key, node });
        self.open_request(task, class, vec![key.instance], (1, 1), true, host);
    }

    fn run_probes(&mut self, host: &mut dyn Host) {
        let my_node = self.me.node;
        let targets: Vec<(InstanceKey, NodeId)> = self
            .placements
            .iter()
            .filter(|(&k, &n)| n != my_node && self.instance_outstanding(k))
            .map(|(&k, &n)| (k, n))
            .collect();
        for (key, node) in targets {
            let Some(s) = self.slot_mut(key) else {
                continue;
            };
            s.probe_misses += 1;
            if s.probe_misses > PROBE_MISS_LIMIT {
                // Host presumed dead: recover the instance. Suspicion can
                // be wrong (partition, not crash), so remember the node and
                // keep killing the possibly-live stale copy below.
                s.probe_misses = 0;
                s.superseded.insert(node);
                if host.log_enabled() {
                    host.log(format!("executor: instance {key:?} lost on {node}"));
                }
                self.instance_evicted(key, node, host);
            } else {
                self.send(
                    host,
                    Addr::daemon(node),
                    &ExmMsg::ProbeTask {
                        key,
                        reply_to: self.me,
                    },
                );
            }
        }
        // Re-kill written-off copies: the KillTask is dropped while the
        // host is dead or partitioned away, so one shot is not enough. A
        // heal delivers the next round within one probe period, bounding
        // how long a stale copy can run concurrently with its replacement.
        let stale: Vec<(InstanceKey, NodeId)> = self
            .slots()
            .flat_map(|(k, s)| s.superseded.iter().map(move |&n| (k, n)))
            .collect();
        for (key, node) in stale {
            self.send(host, Addr::daemon(node), &ExmMsg::KillTask { key });
        }
    }
}

impl Endpoint for ExecutorEndpoint {
    fn on_start(&mut self, host: &mut dyn Host) {
        // Revive hardening: a crash killed every pending timer and local
        // work item, so restart from surviving in-memory state *before*
        // dispatching new work. All three sets are empty on a first boot,
        // so fair-weather behaviour is unchanged.
        let unanswered: Vec<u32> = (0u32..)
            .zip(&self.requests)
            .filter(|(_, p)| !p.allocated)
            .map(|(seq, _)| seq)
            .collect();
        let stuck: Vec<TaskId> = self
            .graph
            .ids()
            .filter(|&t| {
                self.row(t)
                    .is_some_and(|r| r.dispatched && !r.complete && r.instances.is_empty())
            })
            .filter(|t| !self.requests.iter().any(|p| p.task == *t && !p.allocated))
            .collect();
        let local_restart: Vec<(u64, TaskId)> = (LOCAL_PID_BASE..)
            .zip(self.local_pids.iter().copied())
            .filter(|&(_, t)| !self.is_complete(t))
            .collect();
        for seq in unanswered {
            host.set_timer(self.cfg.request_retry_us, retry_token(seq));
        }
        for task in stuck {
            // Its dataflow-delay timer died with the node: dispatch now.
            self.dispatch_task(task, host);
        }
        for (pid, task) in local_restart {
            if host.work_remaining(pid).is_none() {
                if let Some(spec) = self.graph.get(task) {
                    host.start_work(pid, spec.work_mops);
                }
            }
        }

        if self.anticipate {
            self.send_anticipations(host);
        }
        self.dispatch_ready(host);
        host.set_timer(self.cfg.probe_period_us, TOKEN_PROBE);
    }

    fn on_envelope(&mut self, env: Envelope, host: &mut dyn Host) {
        let Ok(msg) = vce_codec::from_backing::<ExmMsg>(&env.payload) else {
            return;
        };
        // A key that is not one of ours names nothing: drop the message
        // before any handler sees it (docs/PROTOCOL.md).
        let key = match &msg {
            ExmMsg::TaskDone { key, .. }
            | ExmMsg::TaskEvicted { key, .. }
            | ExmMsg::TaskMoved { key, .. }
            | ExmMsg::RecoveredTask { key, .. }
            | ExmMsg::TaskStatusReply { key, .. } => Some(*key),
            _ => None,
        };
        if key.is_some_and(|k| self.slot(k).is_none()) {
            return;
        }
        match msg {
            ExmMsg::Allocation { req, nodes } => self.handle_allocation(req, nodes, host),
            ExmMsg::AllocError { req, reason } => {
                let Some(unanswered) = self.request_mut(req).map(|p| !p.allocated) else {
                    return;
                };
                let refused = AppEvent::AllocFailed {
                    req,
                    reason: reason.clone(),
                };
                self.timeline.push(host.now_us(), refused);
                if unanswered {
                    self.fail(host, reason);
                }
            }
            ExmMsg::TaskDone { key, node } => self.instance_done(key, node, host),
            ExmMsg::TaskEvicted { key, node } => self.instance_evicted(key, node, host),
            ExmMsg::TaskMoved { key, to } => {
                self.placements.insert(key, to);
                self.redirect_port(key, to);
                if let Some(s) = self.slot_mut(key) {
                    s.probe_misses = 0;
                    s.progress = None;
                }
                self.timeline
                    .push(host.now_us(), AppEvent::InstanceMoved { key, to });
            }
            ExmMsg::RequestQueued { req } => {
                // The group has the request; a queue wait is not a failure.
                if let Some(p) = self.request_mut(req) {
                    if !p.allocated {
                        p.retries = 0;
                    }
                }
            }
            ExmMsg::RecoveredTask { key, node } => {
                // A crashed-and-revived daemon replayed its journal and
                // restarted this instance. The recovered copy defers to
                // the live view: keep it only if this node still
                // legitimately hosts the instance and it is still wanted.
                let keep = self.instance_outstanding(key)
                    && self
                        .slot(key)
                        .is_some_and(|s| s.copies.contains(&node) && !s.superseded.contains(&node));
                if keep {
                    // The incarnation resumed from its checkpoint; give the
                    // watchdog a fresh budget.
                    if let Some(s) = self.slot_mut(key) {
                        s.probe_misses = 0;
                    }
                    self.timeline
                        .push(host.now_us(), AppEvent::Loaded { key, node });
                } else {
                    self.send(host, Addr::daemon(node), &ExmMsg::KillTask { key });
                }
            }
            ExmMsg::TaskStatusReply {
                key,
                running,
                node,
                remaining_mops,
            } => {
                if running {
                    if let Some(s) = self.slot_mut(key) {
                        s.probe_misses = 0;
                    }
                    self.note_progress(key, node, remaining_mops, host);
                } else if self.instance_outstanding(key) {
                    // The daemon is alive but no longer hosts it (e.g. a
                    // Load lost to a crash window): recover now.
                    if let Some(s) = self.slot_mut(key) {
                        s.probe_misses = 0;
                    }
                    self.instance_evicted(key, node, host);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, token: u64, host: &mut dyn Host) {
        if self.done {
            return;
        }
        let (tag, payload) = decode_token(token);
        if tag == TAG_PROBE {
            self.run_probes(host);
            host.set_timer(self.cfg.probe_period_us, TOKEN_PROBE);
        } else if tag == TAG_DISPATCH {
            self.dispatch_task(TaskId(payload), host);
        } else if tag == TAG_RETRY {
            let req = ReqId {
                app: self.app,
                seq: payload,
            };
            let Some(p) = self.request_mut(req).filter(|p| !p.allocated) else {
                return;
            };
            let retries = p.retries;
            if retries >= REQUEST_RETRY_LIMIT {
                // A request unanswered through every retry window means
                // the group is unreachable (every daemon dead or
                // partitioned away): surface it instead of hanging.
                let reason = format!("request {req:?} unanswered after {retries} retries");
                self.fail(host, reason);
                return;
            }
            p.retries += 1;
            self.send_request(payload, host);
            // Exponential backoff with seeded jitter: a dead or
            // partitioned group is retried at a decaying rate instead
            // of full-rate lockstep (RequestQueued resets `retries`,
            // so a live-but-busy leader keeps the fast interval).
            let delay = backoff_delay_us(
                self.cfg.request_retry_us,
                self.cfg.request_retry_cap_us,
                retries + 1,
                host.rand_u64(),
            );
            host.set_timer(delay, token);
        }
    }

    fn on_work_done(&mut self, pid: u64, host: &mut dyn Host) {
        let task = pid
            .checked_sub(LOCAL_PID_BASE)
            .and_then(|i| usize::try_from(i).ok())
            .and_then(|i| self.local_pids.get(i).copied());
        if let Some(task) = task {
            // Determine which instance finished: local instances complete
            // in pid order; use the count of done instances as the slot.
            let node = host.machine().node;
            let instance = self
                .row(task)
                .map_or(0, |r| r.instances.iter().filter(|s| s.done).count() as u32);
            let key = self.key(task.0, instance);
            self.instance_done(key, node, host);
        }
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }

    fn snapshot_hash(&self) -> u64 {
        // The values and order the keyed maps these rows replaced folded:
        // a map's length is the number of rows with the field set.
        let completed = || self.graph.ids().filter(|&t| self.is_complete(t));
        let dispatched = self
            .graph
            .ids()
            .filter(|&t| self.row(t).is_some_and(|r| r.dispatched));
        let mut h = vce_net::Fnv64::new();
        h.write_u64(self.app.0)
            .write_bool(self.done)
            .write_bool(self.failed.is_some())
            .write_u64(self.requests.len() as u64)
            .write_u64(LOCAL_PID_BASE + self.local_pids.len() as u64)
            .write_u64(self.requests.len() as u64)
            .write_u64(completed().count() as u64);
        for t in completed().chain(dispatched) {
            h.write_u64(u64::from(t.0));
        }
        h.write_u64(self.placements.len() as u64);
        for (key, node) in &self.placements {
            h.write_u64(u64::from(key.task))
                .write_u64(u64::from(key.instance))
                .write_u64(u64::from(node.0));
        }
        let count = |f: fn(&InstanceRow) -> bool| self.slots().filter(|(_, s)| f(s)).count() as u64;
        h.write_u64(count(|s| !s.superseded.is_empty()))
            .write_u64(count(|s| s.probe_misses > 0));
        h.write_u64(count(|s| s.hedged));
        for (key, _) in self.slots().filter(|(_, s)| s.hedged) {
            h.write_u64(u64::from(key.task))
                .write_u64(u64::from(key.instance));
        }
        h.write_u64(count(|s| s.progress.is_some()));
        for (key, t) in self
            .slots()
            .filter_map(|(k, s)| Some((k, s.progress.as_ref()?)))
        {
            h.write_u64(u64::from(key.task))
                .write_u64(u64::from(key.instance))
                .write_u64(u64::from(t.node.0))
                .write_u64(t.last_at_us)
                .write_u64(t.last_remaining.to_bits())
                .write_u64(u64::from(t.samples));
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vce_net::testing::MockHost;
    use vce_net::MachineInfo;
    use vce_taskgraph::{Language, ProblemClass, TaskSpec};

    /// Messages `host` saw sent to `dst`, decoded.
    fn msgs_to(host: &MockHost, dst: Addr) -> Vec<ExmMsg> {
        host.sent
            .iter()
            .filter(|(_, d, _)| *d == dst)
            .filter_map(|(_, _, p)| vce_codec::from_bytes(p).ok())
            .collect()
    }

    fn tiny_executor() -> ExecutorEndpoint {
        let mut g = TaskGraph::new("t");
        g.add_task(
            TaskSpec::new("job")
                .with_class(ProblemClass::Asynchronous)
                .with_language(Language::C)
                .with_work(10.0),
        );
        let mut db = MachineDb::new();
        db.register(MachineInfo::workstation(NodeId(0), 100.0));
        let me = Addr::executor(NodeId(0));
        ExecutorEndpoint::new(AppId(1), me, g, db, ExmConfig::default())
    }

    /// The old additive scheme (`2<<20 + task.0`) made the dispatch token
    /// for task id 2^20 numerically equal to the probe token; every id
    /// beyond kept bleeding into foreign ranges. The tagged encoding must
    /// keep the full u32 id space distinct across kinds.
    #[test]
    fn token_kinds_stay_distinct_across_the_full_id_space() {
        for id in [0u32, 1, (1 << 20) - 1, 1 << 20, (1 << 20) + 1, u32::MAX] {
            assert_ne!(dispatch_token(TaskId(id)), TOKEN_PROBE, "id {id}");
            assert_ne!(retry_token(id), TOKEN_PROBE, "id {id}");
            assert_ne!(dispatch_token(TaskId(id)), retry_token(id), "id {id}");
            assert_eq!(decode_token(dispatch_token(TaskId(id))), (TAG_DISPATCH, id));
            assert_eq!(decode_token(retry_token(id)), (TAG_RETRY, id));
        }
        assert_eq!(decode_token(TOKEN_PROBE).0, TAG_PROBE);
        // Stay inside the documented exm timer namespace, below isis'.
        const { assert!(TOKEN_PROBE < vce_isis::ISIS_TOKEN_BASE) };
        assert!(retry_token(u32::MAX) < vce_isis::ISIS_TOKEN_BASE);
    }

    /// One divisible task, executor on node 0, workers on 1 and 2. Returns
    /// the executor already started and allocated to node 1 only, with the
    /// start-up traffic drained from the host.
    fn hedge_fixture(host: &mut MockHost) -> (ExecutorEndpoint, InstanceKey) {
        let mut g = TaskGraph::new("t");
        let t = g.add_task(
            TaskSpec::new("solver")
                .with_class(ProblemClass::Asynchronous)
                .with_language(Language::C)
                .with_work(10_000.0)
                .with_instances(1)
                .divisible(),
        );
        let mut db = MachineDb::new();
        db.register(MachineInfo::workstation(NodeId(0), 100.0));
        db.register(MachineInfo::workstation(NodeId(1), 100.0));
        db.register(MachineInfo::workstation(NodeId(2), 100.0));
        let me = Addr::executor(NodeId(0));
        let mut exec = ExecutorEndpoint::new(AppId(1), me, g, db, ExmConfig::default());
        exec.on_start(host);
        let req = ReqId {
            app: AppId(1),
            seq: 0,
        };
        deliver(
            &mut exec,
            host,
            &ExmMsg::Allocation {
                req,
                nodes: vec![NodeId(1)].into(),
            },
        );
        let key = InstanceKey {
            app: AppId(1),
            task: t.0,
            instance: 0,
        };
        assert_eq!(exec.placements.get(&key), Some(&NodeId(1)));
        host.sent.clear();
        (exec, key)
    }

    fn deliver(exec: &mut ExecutorEndpoint, host: &mut MockHost, msg: &ExmMsg) {
        let env = Envelope {
            src: Addr::daemon(NodeId(1)),
            dst: Addr::executor(NodeId(0)),
            payload: crate::msg::encode_msg(msg),
        };
        exec.on_envelope(env, host);
    }

    fn status(key: InstanceKey, node: NodeId, remaining: f64) -> ExmMsg {
        ExmMsg::TaskStatusReply {
            key,
            running: true,
            node,
            remaining_mops: remaining,
        }
    }

    /// A primary whose probe replies show <30% of the host's nominal rate
    /// gets hedged exactly once: a 1-machine re-request for its slot whose
    /// granted copy loads as *redundant* (the stalling primary stays the
    /// only non-redundant incarnation), and the primary placement is kept.
    #[test]
    fn stalled_primary_hedges_once_with_a_redundant_copy() {
        let mut host = MockHost::new(NodeId(0));
        let (mut exec, key) = hedge_fixture(&mut host);
        // Node 1 nominal: 100 Mops/s. Two samples 2 s apart showing only
        // 20 Mops done = 10 Mops/s = 10% — well under the 30% stall line.
        host.now = 2_000_000;
        deliver(&mut exec, &mut host, &status(key, NodeId(1), 9_000.0));
        host.now = 4_000_000;
        deliver(&mut exec, &mut host, &status(key, NodeId(1), 8_980.0));
        assert_eq!(
            exec.timeline
                .count(|e| matches!(e, AppEvent::InstanceHedged { .. })),
            1
        );
        let hedge_req = ReqId {
            app: AppId(1),
            seq: 1,
        };
        assert!(
            exec.request_mut(hedge_req).is_some(),
            "hedge must re-request the stalled slot"
        );
        // A third stalled sample must not hedge again.
        host.now = 6_000_000;
        deliver(&mut exec, &mut host, &status(key, NodeId(1), 8_960.0));
        assert_eq!(exec.requests.len(), 2, "at most one hedge per instance");
        // Grant the hedge on node 2: the copy loads redundant, primary stays.
        host.sent.clear();
        deliver(
            &mut exec,
            &mut host,
            &ExmMsg::Allocation {
                req: hedge_req,
                nodes: vec![NodeId(2)].into(),
            },
        );
        let loads: Vec<LoadProgram> = msgs_to(&host, Addr::daemon(NodeId(2)))
            .into_iter()
            .filter_map(|m| match m {
                ExmMsg::Load(lp) => Some(lp),
                _ => None,
            })
            .collect();
        assert_eq!(loads.len(), 1);
        assert!(loads[0].redundant, "hedge copies must load redundant");
        assert_eq!(loads[0].work_mops, 10_000.0, "established split reused");
        assert_eq!(exec.placements.get(&key), Some(&NodeId(1)));
        // First finisher wins: the hedge completing kills the straggler.
        host.sent.clear();
        deliver(
            &mut exec,
            &mut host,
            &ExmMsg::TaskDone {
                key,
                node: NodeId(2),
            },
        );
        let kills = msgs_to(&host, Addr::daemon(NodeId(1)))
            .into_iter()
            .filter(|m| matches!(m, ExmMsg::KillTask { .. }))
            .count();
        assert_eq!(kills, 1, "losing straggler copy must be killed");
        assert!(exec.is_done());
    }

    /// Healthy progress (at/above nominal) must never trigger a hedge, and
    /// neither must a stall whose remaining work is under the floor.
    #[test]
    fn healthy_or_nearly_done_instances_are_not_hedged() {
        let mut host = MockHost::new(NodeId(0));
        let (mut exec, key) = hedge_fixture(&mut host);
        // Full-rate progress: 100 Mops/s on a 100 Mops/s host.
        host.now = 2_000_000;
        deliver(&mut exec, &mut host, &status(key, NodeId(1), 9_800.0));
        host.now = 4_000_000;
        deliver(&mut exec, &mut host, &status(key, NodeId(1), 9_600.0));
        host.now = 6_000_000;
        deliver(&mut exec, &mut host, &status(key, NodeId(1), 9_400.0));
        assert_eq!(
            exec.timeline
                .count(|e| matches!(e, AppEvent::InstanceHedged { .. })),
            0
        );
        // Stalled but nearly done (< HEDGE_MIN_REMAINING_MOPS): pointless.
        host.now = 8_000_000;
        deliver(&mut exec, &mut host, &status(key, NodeId(1), 40.0));
        host.now = 10_000_000;
        deliver(&mut exec, &mut host, &status(key, NodeId(1), 39.9));
        assert_eq!(
            exec.timeline
                .count(|e| matches!(e, AppEvent::InstanceHedged { .. })),
            0
        );
        assert_eq!(exec.requests.len(), 1, "no hedge requests were sent");
    }

    /// Boundary regression: a dispatch timer for task id 2^20 must route to
    /// dispatch handling (a no-op for an unknown task), not masquerade as
    /// the probe timer. On the pre-fix encoding this token *was*
    /// `TOKEN_PROBE`, so `on_timer` re-armed the probe timer — which this
    /// test rejects.
    #[test]
    fn boundary_dispatch_token_is_not_misrouted_to_the_watchdog() {
        let mut exec = tiny_executor();
        let mut host = MockHost::new(NodeId(0));
        exec.on_timer(dispatch_token(TaskId(1 << 20)), &mut host);
        assert!(
            host.timers.is_empty() && host.sent.is_empty(),
            "dispatch timer for an unknown task must be inert, got timers \
             {:?} / sends {:?}",
            host.timers,
            host.sent
        );
    }
    /// Two replicated instances of one task on nodes 1 and 2, the executor
    /// on node 0; started, allocated, and the start-up traffic drained.
    fn two_instance_fixture(host: &mut MockHost) -> ExecutorEndpoint {
        let mut g = TaskGraph::new("t");
        g.add_task(
            TaskSpec::new("pair")
                .with_class(ProblemClass::Asynchronous)
                .with_language(Language::C)
                .with_work(1_000.0)
                .with_instances(2),
        );
        let mut db = MachineDb::new();
        for n in 0..3 {
            db.register(MachineInfo::workstation(NodeId(n), 100.0));
        }
        let me = Addr::executor(NodeId(0));
        let mut exec = ExecutorEndpoint::new(AppId(1), me, g, db, ExmConfig::default());
        exec.on_start(host);
        let req = ReqId {
            app: AppId(1),
            seq: 0,
        };
        deliver(
            &mut exec,
            host,
            &ExmMsg::Allocation {
                req,
                nodes: vec![NodeId(1), NodeId(2)].into(),
            },
        );
        assert_eq!(exec.placements.len(), 2);
        host.sent.clear();
        exec
    }

    fn key(app: u64, task: u32, instance: u32) -> InstanceKey {
        InstanceKey {
            app: AppId(app),
            task,
            instance,
        }
    }

    /// Deliver `msg` and assert it was dropped whole: no state hash,
    /// placement or timeline change, and nothing sent.
    fn assert_dropped(exec: &mut ExecutorEndpoint, host: &mut MockHost, msg: &ExmMsg) {
        let hash = exec.snapshot_hash();
        let placements = exec.placements.clone();
        let timeline = exec.timeline.events().to_vec();
        deliver(exec, host, msg);
        assert_eq!(exec.snapshot_hash(), hash, "{msg:?} changed the state");
        assert_eq!(exec.placements, placements, "{msg:?} changed placements");
        assert_eq!(
            exec.timeline.events(),
            timeline,
            "{msg:?} changed the timeline"
        );
        assert!(host.sent.is_empty(), "{msg:?} sent {:?}", host.sent);
    }

    /// A retry re-sends the range its request was opened with: the
    /// one-slot re-request after an eviction asks for exactly one machine
    /// on every retry, whatever the redundancy the first request used.
    #[test]
    fn a_retry_resends_the_count_range_it_retries() {
        let mut g = TaskGraph::new("t");
        g.add_task(
            TaskSpec::new("job")
                .with_class(ProblemClass::Asynchronous)
                .with_language(Language::C)
                .with_work(1_000.0),
        );
        let mut db = MachineDb::new();
        for n in 0..3 {
            db.register(MachineInfo::workstation(NodeId(n), 100.0));
        }
        let mut cfg = ExmConfig::default();
        cfg.redundancy = 2;
        let me = Addr::executor(NodeId(0));
        let mut exec = ExecutorEndpoint::new(AppId(1), me, g, db, cfg);
        let mut host = MockHost::new(NodeId(0));
        exec.on_start(&mut host);
        let first = ReqId {
            app: AppId(1),
            seq: 0,
        };
        let nodes = vec![NodeId(1)].into();
        deliver(
            &mut exec,
            &mut host,
            &ExmMsg::Allocation { req: first, nodes },
        );
        let lost = ExmMsg::TaskEvicted {
            key: key(1, 0, 0),
            node: NodeId(1),
        };
        deliver(&mut exec, &mut host, &lost);
        host.sent.clear();
        exec.on_timer(retry_token(1), &mut host);
        let ranges: Vec<(u32, u32)> = msgs_to(&host, Addr::daemon(NodeId(2)))
            .into_iter()
            .filter_map(|m| match m {
                ExmMsg::ResourceRequest {
                    count_min,
                    count_max,
                    ..
                } => Some((count_min, count_max)),
                _ => None,
            })
            .collect();
        assert_eq!(ranges, vec![(1, 1)]);
    }

    /// A move for a task the graph does not have names no instance: it is
    /// not placed, and the watchdog never probes it.
    #[test]
    fn a_move_for_an_unknown_task_is_never_probed() {
        let mut host = MockHost::new(NodeId(0));
        let mut exec = two_instance_fixture(&mut host);
        let ghost = key(1, 5, 0);
        let moved = ExmMsg::TaskMoved {
            key: ghost,
            to: NodeId(2),
        };
        assert_dropped(&mut exec, &mut host, &moved);
        for round in 1..=20u64 {
            host.now = round * exec.cfg.probe_period_us;
            exec.on_timer(TOKEN_PROBE, &mut host);
        }
        let ghost_probes = msgs_to(&host, Addr::daemon(NodeId(2)))
            .into_iter()
            .filter(|m| matches!(m, ExmMsg::ProbeTask { key, .. } if *key == ghost))
            .count();
        assert_eq!(ghost_probes, 0);
    }

    /// A completion for a slot past the task's instances does not count
    /// toward the task: the application stays running while instance 1
    /// does.
    #[test]
    fn a_done_past_the_instance_count_does_not_finish_the_app() {
        let mut host = MockHost::new(NodeId(0));
        let mut exec = two_instance_fixture(&mut host);
        deliver(
            &mut exec,
            &mut host,
            &ExmMsg::TaskDone {
                key: key(1, 0, 0),
                node: NodeId(1),
            },
        );
        host.sent.clear();
        let done = ExmMsg::TaskDone {
            key: key(1, 0, 7),
            node: NodeId(1),
        };
        assert_dropped(&mut exec, &mut host, &done);
        assert!(!exec.is_done());
        deliver(
            &mut exec,
            &mut host,
            &ExmMsg::TaskDone {
                key: key(1, 0, 1),
                node: NodeId(2),
            },
        );
        assert!(exec.is_done());
    }

    /// An eviction for a slot that does not exist requests no machine.
    #[test]
    fn an_eviction_past_the_instance_count_requests_nothing() {
        let mut host = MockHost::new(NodeId(0));
        let mut exec = two_instance_fixture(&mut host);
        let evicted = ExmMsg::TaskEvicted {
            key: key(1, 0, 7),
            node: NodeId(1),
        };
        assert_dropped(&mut exec, &mut host, &evicted);
        assert_eq!(exec.requests.len(), 1);
    }

    /// Another application's key names none of this one's instances, even
    /// where its task and slot numbers match.
    #[test]
    fn a_done_for_another_application_is_dropped() {
        let mut host = MockHost::new(NodeId(0));
        let mut exec = two_instance_fixture(&mut host);
        for instance in 0..2 {
            let done = ExmMsg::TaskDone {
                key: key(2, 0, instance),
                node: NodeId(1 + instance),
            };
            assert_dropped(&mut exec, &mut host, &done);
        }
        assert!(!exec.is_done());
    }
}
