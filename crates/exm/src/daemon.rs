//! The scheduling/dispatching daemon (§5) — one per machine.
//!
//! A daemon is simultaneously:
//!
//! * a **group member**: daemons of one machine class form an Isis process
//!   group; membership, failure detection and leader succession come from
//!   `vce-isis`;
//! * a **bidder**: on the leader's state-disclosure broadcast it replies
//!   with a [`DaemonStatus`] bid ("each bid includes the current load of
//!   the bidding machine");
//! * a **host**: it loads programs (compiling missing binaries and
//!   fetching missing input files first — the costs anticipatory
//!   processing removes), runs them on the machine's CPU, checkpoints
//!   cooperative tasks, and reports completions;
//! * an **owner's agent**: when local (background) activity returns it
//!   evicts redundant incarnations (§4.4 migration-through-redundancy);
//! * and, when its group member is the coordinator, the **group leader**:
//!   fielding resource requests, collecting bids, sorting by load,
//!   allocating or queueing with priority aging, and driving §4.4
//!   migrations on its rebalance sweep.

use std::collections::{BTreeMap, BTreeSet};

use vce_codec::{Codec, Decoder};
use vce_isis::{is_isis_token, BcastId, GroupConfig, GroupMember, Upcall};
use vce_net::{Addr, Endpoint, Envelope, Host, MachineClass, NodeId, NodeList, SlotArena};

use crate::backoff::backoff_delay_us;
use crate::config::{
    ExmConfig, BID_TIMEOUT_CAP_US, BID_TIMEOUT_US, MIGRATION_COOLDOWN_US, OWNER_BUSY_THRESHOLD,
    REBALANCE_PERIOD_US, TRANSFER_US_PER_KIB,
};
use crate::events::MigrationRecord;
use crate::migrate::{carried_remaining, choose_technique, state_kib, MigrationTechnique};
use crate::msg::{
    encode_disclose, DaemonInput, ExmMsg, InstanceKey, LoadProgram, MigrationState, ReqId,
    ResourceRequest, MAX_ASKED_UNITS,
};
use crate::policy::{select_into, Candidate, Needs};
use crate::queue::{QueuedRequest, RequestQueue};
use crate::status::{staged_answer, staged_bit, DaemonStatus, ResidentTask};
use crate::wal::{DaemonWal, WalRecord};
use crate::wire::{NameList, WireStr};

// Timer tokens carry a kind tag in bits 32.. and the 32-bit pid in the low
// bits, mirroring executor.rs, so the full pid space is collision-free.
// (The previous scheme added the unbounded monotone pid to bases spaced
// 2^20 apart — vce-lint P003 caught that a pid ≥ 2^20 bleeds into the
// neighbouring token range.) Tags stay far below the isis namespace at
// 2^48 — see docs/PROTOCOL.md.
const TOKEN_TICK: u64 = 1;
const TOKEN_TAG_SHIFT: u32 = 32;
const TAG_CHECKPOINT: u64 = 1;
const TAG_FETCH: u64 = 2;
const TAG_TRANSFER: u64 = 3;

/// Pack a kind tag and pid into a timer token.
fn pid_token(tag: u64, pid: u64) -> u64 {
    debug_assert!(pid < 1 << TOKEN_TAG_SHIFT, "pid space exhausted");
    (tag << TOKEN_TAG_SHIFT) | pid
}

/// Split a token into its kind tag and pid payload.
fn decode_token(token: u64) -> (u64, u64) {
    (token >> TOKEN_TAG_SHIFT, u64::from(token as u32))
}
/// Daemon housekeeping period, µs (eviction checks; leader rebalance runs
/// on its own configured period).
const TICK_US: u64 = 500_000;

/// Where a resident is in its prep pipeline. Each state carries the pid
/// its work item or timer was issued under: a completion or timer finds its
/// resident by state, and a stale one finds none.
#[derive(Debug, Clone, Copy, PartialEq)]
enum RunState {
    /// Compiling the missing binary (pid of the compile work item).
    Compiling(u64),
    /// Fetching input files (pid of the pending fetch timer).
    Fetching(u64),
    /// Waiting out the migration state transfer (pid of its timer).
    Transferring(u64),
    /// Executing (pid of the task work item).
    Running(u64),
}

#[derive(Debug, Clone)]
struct Resident {
    lp: LoadProgram,
    /// `lp.unit` in the form every bid discloses it in.
    unit: WireStr,
    state: RunState,
    /// Remaining work when last checkpointed (== total until the first
    /// checkpoint fires).
    checkpointed_remaining: f64,
    /// Work the *current incarnation* must execute (differs from
    /// `lp.work_mops` after a migration carried partial state in).
    work_to_run: f64,
}

impl Resident {
    /// An incarnation with `remaining` Mops to run, entering `state`.
    fn new(lp: LoadProgram, remaining: f64, state: RunState) -> Self {
        Resident {
            unit: lp.unit.as_str().into(),
            lp,
            state,
            checkpointed_remaining: remaining,
            work_to_run: remaining,
        }
    }
}

/// Why bids are being collected. A bid's `staged` bit *i* answers for the
/// *i*-th unit the disclosure asked about.
enum CollectKind {
    /// One request's round, which asked about its unit (`asked_for`).
    Allocate(ReqId),
    /// A rebalance sweep, which asked about these units of the queue.
    Rebalance(Vec<WireStr>),
}

/// Leader-role state (meaningful only while this daemon coordinates).
///
/// The request-keyed tables are [`SlotArena`]s, not `BTreeMap`s: every
/// bidding round touches `served`/`pending`/`recent_alloc`, and the arenas
/// keep entries in dense recycled slots (iteration order still sorted by
/// key) instead of allocating a tree node per insert.
struct LeaderState {
    /// Requests granted, with the grant time, kept to replay a retry's
    /// allocation. An entry lives at least one retry horizon
    /// ([`ExmConfig::retry_horizon_us`]) and less than two.
    served: SlotArena<ReqId, (NodeList, u64)>,
    /// When `served` was last swept of grants past the horizon.
    served_swept_us: u64,
    pending: SlotArena<ReqId, (Needs, Addr, i32)>,
    queue: RequestQueue,
    collects: BTreeMap<BcastId, CollectKind>,
    /// Soft reservations: nodes allocated recently, with expiry µs — their
    /// bids are inflated until the loads show up for real.
    recent_alloc: SlotArena<NodeId, u64>,
    last_rebalance_us: u64,
    /// Instances this leader ordered to migrate that a sweep must skip:
    /// still in flight, or inside the cooldown since the order.
    migration_orders: BTreeMap<InstanceKey, MigrationOrder>,
    /// Consecutive bid collects that expired short of a full reply set —
    /// drives exponential backoff of the collect deadline.
    short_rounds: u32,
}

impl LeaderState {
    fn new(aging_quantum_us: u64) -> Self {
        Self {
            served: SlotArena::new(),
            served_swept_us: 0,
            pending: SlotArena::new(),
            queue: RequestQueue::new(aging_quantum_us),
            collects: BTreeMap::new(),
            recent_alloc: SlotArena::new(),
            last_rebalance_us: 0,
            migration_orders: BTreeMap::new(),
            short_rounds: 0,
        }
    }
}

/// A migration order the leader gave at `at_us`, `in_flight` until no bid
/// shows the instance any more.
struct MigrationOrder {
    at_us: u64,
    in_flight: bool,
}

impl MigrationOrder {
    /// Does it keep its instance out of a sweep at `now`: in flight (a
    /// second order would race the move), or inside the thrash cooldown?
    fn holds(&self, now: u64) -> bool {
        self.in_flight || now.saturating_sub(self.at_us) < MIGRATION_COOLDOWN_US
    }
}

/// What one crash-and-revive recovered, for invariant checkers and the
/// chaos report. Published on the daemon after every `on_start` that
/// replayed a log.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Recovery counter on this daemon (1 = first revive).
    pub seq: u64,
    /// Sim time of the recovery.
    pub at_us: u64,
    /// Records journaled since the previous recovery.
    pub appended: u64,
    /// Records replayed from the committed prefix.
    pub replayed: u64,
    /// Replay was a prefix of the journal — the storage invariant.
    pub prefix_ok: bool,
    /// Bytes truncated at the log tail (torn record + garbage).
    pub truncated_bytes: usize,
    /// Storage fault the crash injected, if any.
    pub fault: Option<vce_storage::StorageFault>,
    /// Instances restarted from the log.
    pub restored: Vec<InstanceKey>,
    /// Restored instances whose completion was *also* in the committed
    /// prefix — must always be empty (no-reexec invariant).
    pub resurrected: Vec<InstanceKey>,
}

/// The per-machine scheduling/dispatching daemon.
pub struct DaemonEndpoint {
    me: Addr,
    class: MachineClass,
    cfg: ExmConfig,
    gm: GroupMember,
    tasks: BTreeMap<InstanceKey, Resident>,
    /// Instances that completed here — journaled `Done` since boot, or in
    /// the log's committed prefix at the last recovery. A `Load` or probe
    /// for one of these means the owner never got the `TaskDone`: it is
    /// sent again, and the instance never runs a second time.
    done: BTreeSet<InstanceKey>,
    next_pid: u64,
    /// Work items that are compiles, mapping pid → unit being compiled.
    compiles: BTreeMap<u64, String>,
    /// Units with a binary for this machine's class on disk.
    binaries: BTreeSet<String>,
    /// Input files present locally.
    files: BTreeSet<String>,
    leader: LeaderState,
    /// Write-ahead log over this machine's stable store.
    wal: DaemonWal,
    /// Allocation decisions replayed from the log, held back until the
    /// group actually elects this daemon again: a recovered coordinator
    /// defers to whoever leads now.
    recovered_served: BTreeMap<ReqId, Vec<NodeId>>,
    /// Recoveries performed (distinguishes reports across revives).
    recovery_seq: u64,
    /// Reusable upcall buffer: the isis layer drains into this instead of
    /// returning a fresh `Vec` per envelope/timer (steady-state rounds
    /// must not allocate).
    upcall_scratch: Vec<Upcall>,
    /// Reusable decoded-bid buffer for [`Self::effective_bids_into`].
    bids_scratch: Vec<DaemonStatus>,
    /// Reusable ranking scratch for [`select_into`].
    select_scratch: Vec<Candidate>,
    /// Reusable index scratch for the migration sweep.
    targets_scratch: Vec<u32>,
    /// Reusable buffer for [`Self::reservations_into`].
    reserved_scratch: Vec<NodeId>,
    /// Reusable resident-task buffer for [`Self::bid`].
    tasks_scratch: Vec<ResidentTask>,
    /// The last recovery, for chaos invariants and experiment accounting.
    pub last_recovery: Option<RecoveryReport>,
    /// Task Mops actually executed on this machine, including work later
    /// lost to crashes — the numerator of the re-executed-work metric.
    pub mops_executed: f64,
    /// Experiment accounting.
    pub migrations: Vec<MigrationRecord>,
    /// Redundant incarnations evicted for the owner.
    pub evictions: u64,
    /// Tasks completed on this machine.
    pub completed: u64,
}

impl DaemonEndpoint {
    /// Build a daemon for `node` of `class`, given the daemon addresses of
    /// every machine in the same class (the group's candidate list).
    pub fn new(node: NodeId, class: MachineClass, peers: Vec<Addr>, cfg: ExmConfig) -> Self {
        let me = Addr::daemon(node);
        let mut group_cfg = GroupConfig::new(peers);
        if !cfg.adaptive_detection {
            group_cfg = group_cfg.with_fixed_detection();
        }
        let gm = GroupMember::with_wrapper(me, group_cfg, crate::msg::encode_isis_frame);
        let aging = cfg.aging_quantum_us;
        let wal = DaemonWal::new(cfg.storage.clone(), cfg.wal_enabled);
        Self {
            me,
            class,
            cfg,
            gm,
            tasks: BTreeMap::new(),
            done: BTreeSet::new(),
            next_pid: 1,
            compiles: BTreeMap::new(),
            binaries: BTreeSet::new(),
            files: BTreeSet::new(),
            leader: LeaderState::new(aging),
            wal,
            recovered_served: BTreeMap::new(),
            recovery_seq: 0,
            upcall_scratch: Vec::new(),
            bids_scratch: Vec::new(),
            select_scratch: Vec::new(),
            targets_scratch: Vec::new(),
            reserved_scratch: Vec::new(),
            tasks_scratch: Vec::new(),
            last_recovery: None,
            mops_executed: 0.0,
            migrations: Vec::new(),
            evictions: 0,
            completed: 0,
        }
    }

    /// One-line stable-storage summary (chaos replay reports).
    pub fn wal_summary(&self) -> String {
        self.wal.summary()
    }

    /// This daemon's group view (diagnostics).
    pub fn view(&self) -> &vce_isis::View {
        self.gm.view()
    }

    /// Is this daemon currently the group leader?
    pub fn is_leader(&self) -> bool {
        self.gm.is_coordinator()
    }

    /// Resident instance keys (diagnostics).
    pub fn resident(&self) -> Vec<InstanceKey> {
        self.tasks.keys().copied().collect()
    }

    /// Resident instances with the flags invariant checkers need:
    /// `(key, is_redundant_copy, is_executing)`. Chaos-campaign observers
    /// use this to assert a non-redundant instance never executes on two
    /// reachable machines for longer than the watchdog's kill latency.
    pub fn resident_detail(&self) -> Vec<(InstanceKey, bool, bool)> {
        self.tasks
            .iter()
            .map(|(&k, r)| (k, r.lp.redundant, matches!(r.state, RunState::Running(_))))
            .collect()
    }

    /// Mark a binary as locally available (pre-staging / test setup).
    pub fn stage_binary(&mut self, unit: impl Into<String>) {
        self.binaries.insert(unit.into());
    }

    /// Mark an input file as locally available.
    pub fn stage_file(&mut self, file: impl Into<String>) {
        self.files.insert(file.into());
    }

    fn send(&self, host: &mut dyn Host, dst: Addr, msg: &ExmMsg) {
        // Encode via the host's pooled scratch buffer: daemon traffic is
        // the hot path, and this avoids a fresh allocation per message.
        let payload = host.encode_with(&mut |enc| msg.encode(enc));
        host.send(self.me, dst, payload);
    }

    fn alloc_pid(&mut self) -> u64 {
        let pid = self.next_pid;
        self.next_pid += 1;
        pid
    }

    /// The resident in `state`, which names the pid it was issued under.
    fn resident_in(&self, state: RunState) -> Option<InstanceKey> {
        self.tasks
            .iter()
            .find(|(_, r)| r.state == state)
            .map(|(&k, _)| k)
    }

    /// VCE work items currently charged to the CPU by this daemon.
    /// Dispatch compiles already appear in `compiles`, so tasks only count
    /// while actually running.
    fn active_work_items(&self) -> usize {
        self.compiles.len()
            + self
                .tasks
                .values()
                .filter(|r| matches!(r.state, RunState::Running(_)))
                .count()
    }

    /// The owner's share of the machine load.
    fn background(&self, host: &dyn Host) -> f64 {
        (host.load() - self.active_work_items() as f64).max(0.0)
    }

    /// This machine's bid (§5's "sends its load description to the group
    /// leader") on a disclosure that `asked`, marshalled through the host's
    /// pooled scratch buffer. The task list is written from a reused buffer
    /// and the answer is a word, so a warm daemon bids off the heap.
    fn bid(&mut self, asked: &NameList, host: &mut dyn Host) -> bytes::Bytes {
        let mut tasks = std::mem::take(&mut self.tasks_scratch);
        tasks.extend(self.tasks.iter().map(|(&key, r)| ResidentTask {
            key,
            unit: r.unit.clone(),
            remaining_mops: match r.state {
                RunState::Running(pid) => host.work_remaining(pid).unwrap_or(0.0),
                _ => r.work_to_run,
            },
            checkpoints: r.lp.checkpoints,
            restartable: r.lp.restartable,
            core_dumpable: r.lp.core_dumpable,
            redundant: r.lp.redundant,
            mem_mb: r.lp.mem_mb,
        }));
        let m = host.machine();
        let load = host.load();
        let status = DaemonStatus {
            node: m.node,
            class: self.class,
            load,
            background: self.background(host),
            speed_mops: m.speed_mops,
            mem_mb: m.mem_mb,
            willing: m.allows_remote
                && load
                    < self
                        .cfg
                        .overload_threshold
                        .min(crate::policy::OVERLOAD_THRESHOLD),
            tasks: Default::default(),
            staged: staged_answer(asked, |unit| self.binaries.contains(unit)),
        };
        let bytes = host.encode_with(&mut |enc| status.encode_with_tasks(&tasks, enc));
        tasks.clear();
        self.tasks_scratch = tasks;
        bytes
    }

    // ------------------------------------------------------------------
    // Program lifecycle
    // ------------------------------------------------------------------

    fn handle_load(&mut self, lp: LoadProgram, host: &mut dyn Host) {
        let key = lp.key;
        if self.tasks.contains_key(&key) {
            return; // duplicate Load (executor retry)
        }
        if self.resend_done(key, lp.reply_to, host) {
            return; // the retry of a Load whose `TaskDone` was lost
        }
        self.wal
            .journal(host.now_us(), &WalRecord::Loaded(lp.clone()));
        let work = lp.work_mops;
        // A placeholder under no pid; `advance_prep` sets the real state.
        self.tasks
            .insert(key, Resident::new(lp, work, RunState::Fetching(0)));
        self.advance_prep(key, host);
    }

    /// Drive the prep pipeline: compile → fetch → run.
    fn advance_prep(&mut self, key: InstanceKey, host: &mut dyn Host) {
        let Some(r) = self.tasks.get(&key) else {
            return;
        };
        // 1. Missing binary? Compile it (consumes CPU).
        if !self.binaries.contains(&r.lp.unit) {
            let unit = r.lp.unit.clone();
            let pid = self.alloc_pid();
            self.compiles.insert(pid, unit.clone());
            if let Some(r) = self.tasks.get_mut(&key) {
                r.state = RunState::Compiling(pid);
            }
            let mops = self.cfg.dispatch_compile_mops;
            if host.log_enabled() {
                host.log(format!("daemon: compiling {unit} at dispatch"));
            }
            host.start_work(pid, mops);
            return;
        }
        // 2. Missing input files? Fetch them (network delay).
        let Some(resident) = self.tasks.get(&key) else {
            return;
        };
        let missing: Vec<String> = resident
            .lp
            .input_files
            .iter()
            .filter(|f| !self.files.contains(*f))
            .cloned()
            .collect();
        if !missing.is_empty() {
            let delay = missing.len() as u64 * self.cfg.input_file_kib * TRANSFER_US_PER_KIB;
            for f in missing {
                self.files.insert(f);
            }
            let pid = self.alloc_pid();
            if let Some(r) = self.tasks.get_mut(&key) {
                r.state = RunState::Fetching(pid);
            }
            if let Some(r) = self.tasks.get(&key).filter(|_| host.log_enabled()) {
                host.log(format!("daemon: fetching inputs for {}", r.lp.unit));
            }
            host.set_timer(delay.max(1), pid_token(TAG_FETCH, pid));
            return;
        }
        // 3. Run.
        self.start_running(key, host);
    }

    fn start_running(&mut self, key: InstanceKey, host: &mut dyn Host) {
        let pid = self.alloc_pid();
        let Some(r) = self.tasks.get_mut(&key) else {
            return;
        };
        r.state = RunState::Running(pid);
        let work = r.work_to_run;
        let checkpoints = r.lp.checkpoints;
        let interval = r.lp.checkpoint_interval_us;
        host.start_work(pid, work);
        if checkpoints {
            host.set_timer(interval.max(1), pid_token(TAG_CHECKPOINT, pid));
        }
    }

    /// If `key` already completed here, tell `to` so (again) and return
    /// true: the first `TaskDone` was lost, and running the instance a
    /// second time would put `Loaded` after `Done` in the journal.
    fn resend_done(&mut self, key: InstanceKey, to: Addr, host: &mut dyn Host) -> bool {
        let done = self.done.contains(&key);
        if done {
            let node = host.machine().node;
            self.send(host, to, &ExmMsg::TaskDone { key, node });
        }
        done
    }

    fn finish_task(&mut self, key: InstanceKey, host: &mut dyn Host) {
        if let Some(r) = self.tasks.remove(&key) {
            // Write-ahead: the completion must be journaled before the
            // owner hears about it, or a crash after the send could
            // resurrect a task the application already counted done.
            self.wal.journal(host.now_us(), &WalRecord::Done { key });
            self.done.insert(key);
            self.completed += 1;
            self.mops_executed += r.work_to_run;
            let node = host.machine().node;
            self.send(host, r.lp.reply_to, &ExmMsg::TaskDone { key, node });
        }
    }

    fn kill_task(&mut self, key: InstanceKey, host: &mut dyn Host) -> Option<Resident> {
        let r = self.tasks.remove(&key)?;
        self.wal.journal(host.now_us(), &WalRecord::Killed { key });
        match r.state {
            RunState::Running(pid) | RunState::Compiling(pid) => {
                if self.compiles.remove(&pid).is_none() {
                    // Partial task progress was real execution.
                    let rem = host.work_remaining(pid).unwrap_or(r.work_to_run);
                    self.mops_executed += (r.work_to_run - rem).max(0.0);
                }
                host.cancel_work(pid);
            }
            _ => {}
        }
        Some(r)
    }

    /// Owner returned: evict redundant incarnations (§4.4's cheapest
    /// migration — a live copy elsewhere keeps going).
    fn evict_redundant(&mut self, host: &mut dyn Host) {
        if self.background(host) < OWNER_BUSY_THRESHOLD {
            return;
        }
        let victims: Vec<InstanceKey> = self
            .tasks
            .iter()
            .filter(|(_, r)| r.lp.redundant && matches!(r.state, RunState::Running(_)))
            .map(|(&k, _)| k)
            .collect();
        for key in victims {
            if let Some(r) = self.kill_task(key, host) {
                self.evictions += 1;
                let node = host.machine().node;
                if host.log_enabled() {
                    host.log(format!("daemon: evicted redundant {key:?} for owner"));
                }
                self.send(host, r.lp.reply_to, &ExmMsg::TaskEvicted { key, node });
            }
        }
    }

    // ------------------------------------------------------------------
    // Migration (§4.4)
    // ------------------------------------------------------------------

    fn handle_migrate_out(
        &mut self,
        key: InstanceKey,
        to: NodeId,
        technique: MigrationTechnique,
        host: &mut dyn Host,
    ) {
        let Some(r) = self.tasks.get(&key) else {
            return; // already finished or moved
        };
        let remaining = match r.state {
            RunState::Running(pid) => host.work_remaining(pid).unwrap_or(r.work_to_run),
            _ => r.work_to_run,
        };
        let total = r.lp.work_mops;
        let checkpointed = r.checkpointed_remaining;
        let Some(r) = self.kill_task(key, host) else {
            return; // raced with completion between the get and the kill
        };
        if technique == MigrationTechnique::Redundant {
            // Kill only; a surviving copy completes elsewhere.
            self.evictions += 1;
            let node = host.machine().node;
            self.send(host, r.lp.reply_to, &ExmMsg::TaskEvicted { key, node });
            return;
        }
        let carried = carried_remaining(technique, remaining, checkpointed, total);
        let kib = state_kib(technique, r.lp.mem_mb);
        let from = host.machine().node;
        self.migrations.push(MigrationRecord {
            key,
            technique,
            from,
            to,
            out_at_us: host.now_us(),
            state_kib: kib,
            lost_mops: (carried - remaining).max(0.0),
        });
        if host.log_enabled() {
            host.log(format!(
                "daemon: migrating {key:?} to {to} via {technique:?} ({kib} KiB)"
            ));
        }
        let state = MigrationState {
            key,
            unit: r.lp.unit.clone(),
            remaining_mops: carried,
            state_kib: kib,
            technique,
            mem_mb: r.lp.mem_mb,
            checkpoints: r.lp.checkpoints,
            checkpoint_interval_us: r.lp.checkpoint_interval_us,
            reply_to: r.lp.reply_to,
        };
        self.send(host, Addr::daemon(to), &ExmMsg::MigrateIn(state));
        self.send(host, r.lp.reply_to, &ExmMsg::TaskMoved { key, to });
    }

    fn handle_migrate_in(&mut self, st: MigrationState, host: &mut dyn Host) {
        let key = st.key;
        if self.tasks.contains_key(&key) {
            return;
        }
        // Recompilation: the task crossed architectures, so whatever binary
        // this machine holds is for the wrong source state — it must build
        // a fresh one (advance_prep charges it when the unit is absent).
        // Other techniques arrive ready to run.
        if st.technique == MigrationTechnique::Recompile {
            self.binaries.remove(&st.unit);
        } else {
            self.binaries.insert(st.unit.clone());
        }
        let lp = LoadProgram {
            key,
            unit: st.unit,
            work_mops: st.remaining_mops,
            mem_mb: st.mem_mb,
            checkpoints: st.checkpoints,
            checkpoint_interval_us: st.checkpoint_interval_us,
            restartable: true,
            core_dumpable: st.technique == MigrationTechnique::CoreDump,
            redundant: false,
            input_files: vec![],
            reply_to: st.reply_to,
        };
        self.wal
            .journal(host.now_us(), &WalRecord::Loaded(lp.clone()));
        // Charge the state-transfer time, then run the prep pipeline.
        let pid = self.alloc_pid();
        let resident = Resident::new(lp, st.remaining_mops, RunState::Transferring(pid));
        self.tasks.insert(key, resident);
        let delay = (st.state_kib * TRANSFER_US_PER_KIB).max(1);
        host.set_timer(delay, pid_token(TAG_TRANSFER, pid));
    }

    // ------------------------------------------------------------------
    // Leader role
    // ------------------------------------------------------------------

    fn handle_resource_request(&mut self, request: ResourceRequest, host: &mut dyn Host) {
        let ResourceRequest {
            req,
            class,
            needs,
            priority_boost,
            reply_to,
        } = request;
        if class != self.class || !self.gm.is_coordinator() {
            return; // not for my group / not the leader
        }
        if let Some((nodes, _)) = self.leader.served.get(&req) {
            // Executor retry after a lost reply.
            let nodes = nodes.clone();
            self.send(host, reply_to, &ExmMsg::Allocation { req, nodes });
            return;
        }
        if self.leader.queue.iter().any(|q| q.req == req) {
            // Still queued: re-acknowledge so the executor keeps waiting.
            self.send(host, reply_to, &ExmMsg::RequestQueued { req });
            return;
        }
        if self.leader.pending.contains_key(&req) {
            return; // collect in flight
        }
        self.leader
            .pending
            .insert(req, (needs, reply_to, priority_boost));
        self.start_collect(CollectKind::Allocate(req), host);
    }

    /// What a request's own round asks the bidders about: its unit, unless
    /// it names none or staged binaries are not to be preferred.
    fn asked_for<'a>(&self, needs: &'a Needs) -> &'a [WireStr] {
        if self.cfg.prefer_staged_binaries && needs.unit != WireStr::default() {
            std::slice::from_ref(&needs.unit)
        } else {
            &[]
        }
    }

    /// The units `kind`'s disclosure asks (or asked) about.
    fn asked<'a>(&'a self, kind: &'a CollectKind) -> &'a [WireStr] {
        match kind {
            CollectKind::Allocate(req) => {
                let pending = self.leader.pending.get(req);
                pending.map_or(&[], |p| self.asked_for(&p.0))
            }
            CollectKind::Rebalance(asked) => asked,
        }
    }

    /// What a rebalance sweep asks about: the queue's distinct units in
    /// service order, as many as a bid has bits for. A request past those
    /// is served all the same, without the staged-binary tie-break.
    fn sweep_asks(&self, now: u64) -> Vec<WireStr> {
        let mut asked = Vec::new();
        for q in self.leader.queue.service_order(now) {
            for unit in self.asked_for(&q.needs) {
                if asked.len() < MAX_ASKED_UNITS as usize && !asked.contains(unit) {
                    asked.push(unit.clone());
                }
            }
        }
        asked
    }

    fn start_collect(&mut self, kind: CollectKind, host: &mut dyn Host) {
        let asked = self.asked(&kind);
        let payload = host.encode_with(&mut |enc| encode_disclose(asked, enc));
        // Collects that keep expiring short (members crashed or partitioned
        // away) stretch the deadline exponentially up to the cap, so a
        // leader bridging an outage doesn't spin full-rate collects.
        let timeout = backoff_delay_us(
            BID_TIMEOUT_US,
            BID_TIMEOUT_CAP_US,
            self.leader.short_rounds,
            host.rand_u64(),
        );
        if let Some(id) = self.gm.bcast_collect(payload, None, timeout, host) {
            self.leader.collects.insert(id, kind);
        }
    }

    /// Machines that *restricted* requests depend on: a queued or pending
    /// request (other than the one being served) whose eligible machines
    /// are no more numerous than it needs reserves all of them — the §4.3
    /// example's "machine A". Lands in `reserved` (cleared first), a buffer
    /// the caller reuses across rounds.
    fn reservations_into(&self, bids: &[DaemonStatus], except: ReqId, reserved: &mut Vec<NodeId>) {
        reserved.clear();
        let mut consider = |needs: &Needs| {
            let eligible = || {
                bids.iter()
                    .filter(|b| crate::policy::eligible(b, needs, self.cfg.overload_threshold))
                    .map(|b| b.node)
            };
            let n = eligible().count();
            if n != 0 && n <= needs.count_min as usize {
                reserved.extend(eligible());
            }
        };
        for q in self.leader.queue.iter() {
            if q.req != except {
                consider(&q.needs);
            }
        }
        for (req, (needs, _, _)) in self.leader.pending.iter() {
            if *req != except {
                consider(needs);
            }
        }
        reserved.sort();
        reserved.dedup();
    }

    /// Decode the collected bids into `out` (cleared first; the caller
    /// hands back a reusable scratch vector so steady-state rounds reuse
    /// its capacity), dropping any that does not decode and any `staged`
    /// bit past the `asked` units. Task lists are views of `replies`.
    fn effective_bids_into(
        &self,
        replies: &[(Addr, bytes::Bytes)],
        now: u64,
        asked: usize,
        out: &mut Vec<DaemonStatus>,
    ) {
        out.clear();
        out.extend(
            replies
                .iter()
                .filter_map(|(_, bytes)| vce_codec::from_backing::<DaemonStatus>(bytes).ok())
                .map(|mut b| {
                    b.clear_unasked(asked);
                    // Soft-reserve recently allocated machines.
                    if self.cfg.soft_reservations
                        && self
                            .leader
                            .recent_alloc
                            .get(&b.node)
                            .is_some_and(|&until| until > now)
                    {
                        b.load += 1.0;
                    }
                    b
                }),
        );
    }

    fn try_allocate(
        &mut self,
        req: ReqId,
        needs: Needs,
        reply_to: Addr,
        priority_boost: i32,
        bids: &[DaemonStatus],
        host: &mut dyn Host,
    ) -> bool {
        let mut reserved = std::mem::take(&mut self.reserved_scratch);
        self.reservations_into(bids, req, &mut reserved);
        let mut order = std::mem::take(&mut self.select_scratch);
        let mut nodes = NodeList::new();
        select_into(
            self.cfg.policy,
            bids,
            &needs,
            &reserved,
            self.cfg.overload_threshold,
            staged_bit(self.asked_for(&needs), &needs.unit),
            &mut order,
            &mut nodes,
        );
        self.select_scratch = order;
        self.reserved_scratch = reserved;
        if nodes.is_empty() {
            if self.cfg.queue_insufficient {
                self.leader.queue.push(QueuedRequest {
                    req,
                    class: self.class,
                    // The queue outlives the message `unit` is a view of.
                    needs: Needs {
                        unit: needs.unit.as_str().into(),
                        ..needs
                    },
                    priority_boost,
                    enqueued_at_us: host.now_us(),
                    reply_to,
                });
                if host.log_enabled() {
                    host.log(format!("leader: queued {req:?} (insufficient resources)"));
                }
                // Tell the executor we have it (stops retry exhaustion).
                self.send(host, reply_to, &ExmMsg::RequestQueued { req });
            } else {
                self.send(
                    host,
                    reply_to,
                    &ExmMsg::AllocError {
                        req,
                        reason: "insufficient resources in group".into(),
                    },
                );
            }
            return false;
        }
        self.grant(req, nodes, reply_to, "allocated", host);
        true
    }

    /// Make an allocation stick: soft-reserve its machines, journal it,
    /// keep it for retries (for a retry horizon) and tell the executor;
    /// `how` is for the trace.
    fn grant(&mut self, req: ReqId, nodes: NodeList, to: Addr, how: &str, host: &mut dyn Host) {
        let now = host.now_us();
        for &n in nodes.iter() {
            self.leader.recent_alloc.insert(n, now + 1_000_000);
        }
        // Only build the (heap-backed) journal record when the WAL is on:
        // with it off the clone would be pure waste on the hot path.
        if self.wal.is_enabled() {
            let nodes = nodes.as_slice().to_vec();
            self.wal.journal(now, &WalRecord::Allocated { req, nodes });
        }
        // No retry can reach us past the horizon: forget such grants, once
        // a horizon, into the slab's free list (no allocation).
        let horizon = self.cfg.retry_horizon_us();
        if now >= self.leader.served_swept_us.saturating_add(horizon) {
            self.leader
                .served
                .retain(|_, (_, at)| at.saturating_add(horizon) > now);
            self.leader.served_swept_us = now;
        }
        self.leader.served.insert(req, (nodes.clone(), now));
        if host.log_enabled() {
            host.log(format!("leader: {how} {req:?} -> {nodes:?}"));
        }
        self.send(host, to, &ExmMsg::Allocation { req, nodes });
    }

    fn handle_collect_done(
        &mut self,
        id: BcastId,
        replies: Vec<(Addr, bytes::Bytes)>,
        timed_out: bool,
        host: &mut dyn Host,
    ) {
        let kind = self.leader.collects.remove(&id);
        let (Some(kind), true) = (kind, self.gm.is_coordinator()) else {
            // Unknown collect, or deposed mid-collect. Still hand the
            // reply vector (and its pooled payload views) back for reuse.
            self.gm.recycle_replies(replies);
            return;
        };
        if timed_out {
            self.leader.short_rounds = (self.leader.short_rounds + 1).min(8);
        } else {
            self.leader.short_rounds = 0;
        }
        let now = host.now_us();
        let mut bids = std::mem::take(&mut self.bids_scratch);
        self.effective_bids_into(&replies, now, self.asked(&kind).len(), &mut bids);
        // Bids are decoded; the raw reply payloads can go back to the
        // collector's spare pool (dropping their pooled-buffer views).
        self.gm.recycle_replies(replies);
        match kind {
            CollectKind::Allocate(req) => {
                if let Some((needs, reply_to, boost)) = self.leader.pending.remove(&req) {
                    self.try_allocate(req, needs, reply_to, boost, &bids, host);
                }
            }
            CollectKind::Rebalance(asked) => {
                self.serve_queue(&asked, &mut bids, host);
                if self.cfg.migration_enabled {
                    self.plan_migrations(&bids, host);
                }
            }
        }
        bids.clear();
        self.bids_scratch = bids;
    }

    /// Serve what the queue holds from this sweep's bids (which `asked`).
    /// Each allocation counts against its machines for the requests behind
    /// it; `bids` is handed back as it came, for the migration sweep.
    fn serve_queue(&mut self, asked: &[WireStr], bids: &mut [DaemonStatus], host: &mut dyn Host) {
        if self.leader.queue.is_empty() {
            return;
        }
        let now = host.now_us();
        // (index into `bids`, load as disclosed), in the order applied.
        let mut bumped: Vec<(usize, f64)> = Vec::new();
        let mut order = std::mem::take(&mut self.select_scratch);
        let mut nodes = NodeList::new();
        for q in self.leader.queue.service_order(now) {
            select_into(
                self.cfg.policy,
                bids,
                &q.needs,
                &[], // aged head of queue takes what it needs
                self.cfg.overload_threshold,
                staged_bit(asked, &q.needs.unit),
                &mut order,
                &mut nodes,
            );
            if nodes.is_empty() {
                continue;
            }
            self.leader.queue.remove(q.req);
            // Reflect the allocation in the remaining bids.
            for (i, b) in bids.iter_mut().enumerate() {
                if nodes.contains(b.node) {
                    bumped.push((i, b.load));
                    b.load += 1.0;
                }
            }
            self.grant(q.req, nodes.clone(), q.reply_to, "dequeued", host);
        }
        self.select_scratch = order;
        // Newest first, so a machine allocated twice ends at its own figure.
        for (i, load) in bumped.into_iter().rev() {
            if let Some(b) = bids.get_mut(i) {
                b.load = load;
            }
        }
    }

    /// §4.4 sweep: move work off owner-reclaimed machines onto idle ones.
    fn plan_migrations(&mut self, bids: &[DaemonStatus], host: &mut dyn Host) {
        let mut targets = std::mem::take(&mut self.targets_scratch);
        targets.clear();
        targets.extend(
            (0u32..)
                .zip(bids)
                .filter(|(_, b)| b.willing && b.load <= self.cfg.idle_threshold)
                .map(|(i, _)| i),
        );
        // total_cmp, not partial_cmp().expect(): `load` arrives in a remote
        // DiscloseState reply, and a corrupt peer sending NaN must not be
        // able to panic the leader. One bid per node, so the order is total
        // and the in-place sort deterministic.
        let by_load = |i: &u32| bids.get(*i as usize).map(|b| (b.load, b.node));
        targets.sort_unstable_by(|a, b| match (by_load(a), by_load(b)) {
            (Some((la, na)), Some((lb, nb))) => la.total_cmp(&lb).then(na.cmp(&nb)),
            _ => std::cmp::Ordering::Equal,
        });
        let mut target_iter = targets.iter().filter_map(|&i| bids.get(i as usize));
        let now = host.now_us();
        for src in bids {
            if src.background < OWNER_BUSY_THRESHOLD || src.tasks.is_empty() {
                continue;
            }
            // One migration per loaded machine per sweep.
            let candidate = src.tasks.iter().find_map(|t| {
                // Redundant incarnations are the source daemon's own
                // (cheaper) problem. Hysteresis: a freshly migrated
                // instance stays put for the cooldown even if the new owner
                // returns — repeated rollback costs more than sharing.
                let ordered = self.leader.migration_orders.get(&t.key);
                if t.redundant || ordered.is_some_and(|o| o.holds(now)) {
                    return None;
                }
                choose_technique(&t, true).map(|tech| (t.key, tech))
            });
            let Some((key, technique)) = candidate else {
                continue;
            };
            let Some(target) = target_iter.next() else {
                break; // no idle machines left
            };
            if target.node == src.node {
                continue;
            }
            let order = MigrationOrder {
                at_us: now,
                in_flight: true,
            };
            self.leader.migration_orders.insert(key, order);
            if host.log_enabled() {
                host.log(format!(
                    "leader: ordering migration of {key:?} {} -> {} ({technique:?})",
                    src.node, target.node
                ));
            }
            self.send(
                host,
                Addr::daemon(src.node),
                &ExmMsg::MigrateOut {
                    key,
                    to: target.node,
                    technique,
                },
            );
        }
        drop(target_iter);
        self.targets_scratch = targets;
        // Forget confirmations we can observe: anything no longer resident
        // anywhere will re-appear in future disclosures if still running.
        // An order neither in flight nor cooling down holds nothing back.
        self.leader.migration_orders.retain(|k, o| {
            o.in_flight &= bids.iter().any(|b| b.tasks.iter().any(|t| t.key == *k));
            o.holds(now)
        });
    }

    // ------------------------------------------------------------------
    // Upcall plumbing
    // ------------------------------------------------------------------

    /// Drain and act on isis upcalls. The buffer is the caller's reusable
    /// scratch (it comes back empty) — the bidding round processes two
    /// upcall batches per message and must not allocate for them.
    fn process_upcalls(&mut self, ups: &mut Vec<Upcall>, host: &mut dyn Host) {
        for up in ups.drain(..) {
            match up {
                Upcall::Deliver { id, payload, .. } => {
                    if let Ok(ExmMsg::DiscloseState { units }) =
                        vce_codec::from_backing::<ExmMsg>(&payload)
                    {
                        let bytes = self.bid(&units, host);
                        self.gm.reply(id, bytes, host);
                    }
                }
                Upcall::CollectDone(result) => {
                    self.handle_collect_done(result.id, result.replies, result.timed_out, host);
                }
                Upcall::BecameCoordinator(view) => {
                    if host.log_enabled() {
                        host.log(format!("daemon: {} is now group leader of {view}", self.me));
                    }
                    // Fresh leader state: outstanding executor retries will
                    // repopulate requests.
                    self.leader = LeaderState::new(self.cfg.aging_quantum_us);
                    // Only now may journal-recovered allocation decisions
                    // come back: the group has (re-)elected this daemon, so
                    // answering old requests idempotently cannot contradict
                    // a live allocator. Until this point they stay inert —
                    // a recovered coordinator stands down by default.
                    // Their horizon runs from the election.
                    let now = host.now_us();
                    for (req, nodes) in std::mem::take(&mut self.recovered_served) {
                        self.leader.served.insert(req, (NodeList::from(nodes), now));
                    }
                }
                Upcall::ViewInstalled(_) | Upcall::Evicted => {}
            }
        }
    }
}

impl Endpoint for DaemonEndpoint {
    fn on_start(&mut self, host: &mut dyn Host) {
        // A (re)boot loses every local process: resident instances,
        // dispatch compiles, and the leader's soft state died with the
        // machine (staged binaries and input files are on disk and
        // survive). Keeping `tasks` across a revive made the daemon
        // answer probes with `running=true` for processes the crash
        // destroyed, wedging the owning application forever — found by
        // the exp_chaos crash/revive campaign.
        self.tasks.clear();
        self.done.clear();
        self.compiles.clear();
        self.leader = LeaderState::new(self.cfg.aging_quantum_us);
        self.recovered_served.clear();

        // Replay the write-ahead log: restart committed-resident tasks
        // from their last checkpoint instead of waiting for the owner to
        // notice the loss and re-dispatch from scratch. Replay is
        // read-only on the journal — the surviving records are still in
        // the store, so nothing is re-journaled here.
        if let Some(rec) = self.wal.recover() {
            self.recovery_seq += 1;
            let resurrected: Vec<InstanceKey> = rec
                .tasks
                .iter()
                .filter(|(lp, _)| rec.committed_done.contains(&lp.key))
                .map(|(lp, _)| lp.key)
                .collect();
            let mut restored = Vec::new();
            let node = host.machine().node;
            for (lp, rem) in rec.tasks {
                let key = lp.key;
                // Log bytes are untrusted: clamp the checkpointed work
                // into the range the load order allows.
                let rem = rem.clamp(0.0, lp.work_mops.max(0.0));
                let reply_to = lp.reply_to;
                // A placeholder under no pid; `advance_prep` below fixes it.
                self.tasks
                    .insert(key, Resident::new(lp, rem, RunState::Fetching(0)));
                restored.push(key);
                // Tell the owner this incarnation is back. The executor
                // replies KillTask if the instance already finished or now
                // runs elsewhere: the recovered copy defers to the live
                // view, never the other way round.
                self.send(host, reply_to, &ExmMsg::RecoveredTask { key, node });
            }
            if host.log_enabled() {
                host.log(format!(
                    "daemon: wal recovery #{} replayed {}/{} records, restored {} tasks ({})",
                    self.recovery_seq,
                    rec.replayed,
                    rec.appended,
                    restored.len(),
                    rec.fault.map_or("clean", vce_storage::StorageFault::name),
                ));
            }
            self.recovered_served = rec.served;
            self.done = rec.committed_done;
            self.last_recovery = Some(RecoveryReport {
                seq: self.recovery_seq,
                at_us: host.now_us(),
                appended: rec.appended,
                replayed: rec.replayed,
                prefix_ok: rec.prefix_ok,
                truncated_bytes: rec.truncated_bytes,
                fault: rec.fault,
                restored: restored.clone(),
                resurrected,
            });
            for key in restored {
                self.advance_prep(key, host);
            }
        }

        self.gm.start(host);
        host.set_timer(TICK_US, TOKEN_TICK);
    }

    fn on_crash(&mut self, host: &mut dyn Host) {
        // Progress the crash destroys was still real execution: account
        // it before the CPU state is cleared (re-executed-work metric).
        for r in self.tasks.values() {
            if let RunState::Running(pid) = r.state {
                let rem = host.work_remaining(pid).unwrap_or(r.work_to_run);
                self.mops_executed += (r.work_to_run - rem).max(0.0);
            }
        }
        // Settle the stable store: in-flight writes may be lost, and the
        // configured fault model draws from the node's seeded RNG.
        let (r1, r2) = (host.rand_u64(), host.rand_u64());
        self.wal.on_crash(host.now_us(), r1, r2);
    }

    fn on_envelope(&mut self, env: Envelope, host: &mut dyn Host) {
        let mut dec = Decoder::with_backing(&env.payload);
        let input = DaemonInput::decode(&mut dec).ok();
        let msg = match input.filter(|_| dec.is_empty()) {
            Some(DaemonInput::Msg(msg)) => msg,
            Some(DaemonInput::Request(request)) => {
                return self.handle_resource_request(request, host);
            }
            None => {
                if host.log_enabled() {
                    host.log("daemon: undecodable message dropped".into());
                }
                return;
            }
        };
        match msg {
            ExmMsg::Isis(m) => {
                let mut ups = std::mem::take(&mut self.upcall_scratch);
                self.gm.handle(env.src, m, host, &mut ups);
                self.process_upcalls(&mut ups, host);
                self.upcall_scratch = ups;
            }
            ExmMsg::Load(lp) => self.handle_load(lp, host),
            ExmMsg::KillTask { key } => {
                self.kill_task(key, host);
            }
            ExmMsg::MigrateOut { key, to, technique } => {
                self.handle_migrate_out(key, to, technique, host);
            }
            ExmMsg::MigrateIn(state) => self.handle_migrate_in(state, host),
            ExmMsg::Terminate { app } => {
                let keys: Vec<InstanceKey> = self
                    .tasks
                    .keys()
                    .copied()
                    .filter(|k| k.app == app)
                    .collect();
                for key in keys {
                    self.kill_task(key, host);
                }
                self.done.retain(|k| k.app != app);
            }
            ExmMsg::AnticipateCompile { unit, compile_mops } => {
                // §4.5: anticipatory work uses *idle* cycles only — a busy
                // machine ignores the suggestion.
                if host.load() >= 1.0 {
                    return;
                }
                if !self.binaries.contains(&unit) && !self.compiles.values().any(|u| *u == unit) {
                    let pid = self.next_pid;
                    self.next_pid += 1;
                    self.compiles.insert(pid, unit);
                    host.start_work(pid, compile_mops);
                }
            }
            ExmMsg::AnticipateFile { file, kib } => {
                if !self.files.contains(&file) {
                    // The replica transfer happens off the critical path;
                    // model arrival after the transfer time.
                    self.files.insert(file);
                    let _ = kib; // charged to the (idle) network, not the CPU
                }
            }
            ExmMsg::ProbeTask { key, reply_to } => {
                if self.resend_done(key, reply_to, host) {
                    return;
                }
                let running = self.tasks.contains_key(&key);
                // Report live progress so the executor's straggler hedging
                // can estimate this copy's rate (0 when not resident).
                let remaining_mops = self.tasks.get(&key).map_or(0.0, |r| match r.state {
                    RunState::Running(pid) => host.work_remaining(pid).unwrap_or(r.work_to_run),
                    _ => r.work_to_run,
                });
                let node = host.machine().node;
                self.send(
                    host,
                    reply_to,
                    &ExmMsg::TaskStatusReply {
                        key,
                        running,
                        node,
                        remaining_mops,
                    },
                );
            }
            // Decoded as `DaemonInput::Request`, above.
            ExmMsg::ResourceRequest { .. } => {}
            // Messages only other roles receive.
            ExmMsg::Allocation { .. }
            | ExmMsg::RecoveredTask { .. }
            | ExmMsg::RequestQueued { .. }
            | ExmMsg::TaskStatusReply { .. }
            | ExmMsg::AllocError { .. }
            | ExmMsg::DiscloseState { .. }
            | ExmMsg::TaskDone { .. }
            | ExmMsg::TaskEvicted { .. }
            | ExmMsg::TaskMoved { .. } => {}
        }
    }

    fn on_timer(&mut self, token: u64, host: &mut dyn Host) {
        if is_isis_token(token) {
            let mut ups = std::mem::take(&mut self.upcall_scratch);
            self.gm.on_timer(token, host, &mut ups);
            self.process_upcalls(&mut ups, host);
            self.upcall_scratch = ups;
            return;
        }
        match token {
            TOKEN_TICK => {
                host.set_timer(TICK_US, TOKEN_TICK);
                self.evict_redundant(host);
                if self.gm.is_coordinator() {
                    let now = host.now_us();
                    let due =
                        now.saturating_sub(self.leader.last_rebalance_us) >= REBALANCE_PERIOD_US;
                    let needed = !self.leader.queue.is_empty()
                        || (self.cfg.migration_enabled && self.gm.view().len() > 1);
                    if due && needed {
                        self.leader.last_rebalance_us = now;
                        self.start_collect(CollectKind::Rebalance(self.sweep_asks(now)), host);
                    }
                    // Expire soft reservations.
                    self.leader.recent_alloc.retain(|_, &mut until| until > now);
                }
            }
            t if decode_token(t).0 == TAG_TRANSFER => {
                if let Some(key) = self.resident_in(RunState::Transferring(decode_token(t).1)) {
                    self.advance_prep(key, host);
                }
            }
            t if decode_token(t).0 == TAG_FETCH => {
                if let Some(key) = self.resident_in(RunState::Fetching(decode_token(t).1)) {
                    self.start_running(key, host);
                }
            }
            t if decode_token(t).0 == TAG_CHECKPOINT => {
                let pid = decode_token(t).1;
                let Some(key) = self.resident_in(RunState::Running(pid)) else {
                    return;
                };
                let (Some(rem), Some(r)) = (host.work_remaining(pid), self.tasks.get_mut(&key))
                else {
                    return;
                };
                r.checkpointed_remaining = rem;
                let interval = r.lp.checkpoint_interval_us.max(1);
                host.set_timer(interval, pid_token(TAG_CHECKPOINT, pid));
                let record = WalRecord::Checkpoint {
                    key,
                    remaining_mops: rem,
                };
                self.wal.journal(host.now_us(), &record);
            }
            _ => {}
        }
    }

    fn on_work_done(&mut self, pid: u64, host: &mut dyn Host) {
        if let Some(unit) = self.compiles.remove(&pid) {
            self.binaries.insert(unit);
            // A dispatch-blocked task may be waiting on this compile.
            if let Some(key) = self.resident_in(RunState::Compiling(pid)) {
                self.advance_prep(key, host);
            }
        } else if let Some(key) = self.resident_in(RunState::Running(pid)) {
            self.finish_task(key, host);
        }
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }

    fn snapshot_hash(&self) -> u64 {
        let mut h = vce_net::Fnv64::new();
        h.write_u64(self.gm.snapshot_hash())
            .write_u64(self.next_pid)
            .write_u64(self.recovery_seq)
            .write_u64(self.completed)
            .write_u64(self.evictions)
            .write_u64(self.migrations.len() as u64)
            .write_f64(self.mops_executed)
            .write_u64(self.binaries.len() as u64)
            .write_u64(self.files.len() as u64)
            .write_u64(self.tasks.len() as u64);
        for (key, r) in &self.tasks {
            // A fetch or transfer hashes pid 0: its pid names a timer, not
            // a work item.
            let (tag, pid) = match r.state {
                RunState::Compiling(p) => (0u8, p),
                RunState::Fetching(_) => (1, 0),
                RunState::Transferring(_) => (2, 0),
                RunState::Running(p) => (3, p),
            };
            h.write_u64(key.app.0)
                .write_u64(u64::from(key.task))
                .write_u64(u64::from(key.instance))
                .write_u8(tag)
                .write_u64(pid)
                .write_f64(r.checkpointed_remaining)
                .write_f64(r.work_to_run);
        }
        h.write_u64(self.leader.served.len() as u64)
            .write_u64(self.leader.pending.len() as u64)
            .write_u64(self.recovered_served.len() as u64)
            .write_u64(self.done.len() as u64);
        h.finish()
    }
}

#[cfg(test)]
mod queue_tests {
    use super::*;
    use vce_net::testing::MockHost;

    /// The queue outlives the round: a request waiting in it must not keep
    /// the pooled receive buffer of the message that brought it.
    #[test]
    fn a_queued_request_holds_its_own_unit_bytes() {
        let me = NodeId(0);
        let mut daemon = DaemonEndpoint::new(
            me,
            MachineClass::Workstation,
            vec![Addr::daemon(me)],
            ExmConfig::default(),
        );
        let unit = "a unit name that is too long to be stored inline";
        let msg = crate::msg::encode_msg(&ExmMsg::ResourceRequest {
            req: ReqId {
                app: crate::msg::AppId(1),
                seq: 1,
            },
            class: MachineClass::Workstation,
            count_min: 1,
            count_max: 1,
            mem_mb: 16,
            unit: unit.into(),
            priority_boost: 0,
            reply_to: Addr::executor(NodeId(9)),
        });
        let Ok(DaemonInput::Request(request)) =
            DaemonInput::decode(&mut Decoder::with_backing(&msg))
        else {
            panic!("a resource request");
        };
        let inside = |s: &WireStr| msg.as_ptr_range().contains(&s.as_str().as_ptr());
        assert!(inside(&request.needs.unit), "decoded as a view");
        // No bids: the request cannot be placed and waits.
        let mut host = MockHost::new(me);
        let placed = daemon.try_allocate(
            request.req,
            request.needs,
            request.reply_to,
            request.priority_boost,
            &[],
            &mut host,
        );
        assert!(!placed);
        let queued: Vec<&QueuedRequest> = daemon.leader.queue.iter().collect();
        assert_eq!(queued.len(), 1);
        assert_eq!(queued[0].needs.unit.as_str(), unit);
        assert!(
            !inside(&queued[0].needs.unit),
            "still a view of the message"
        );
    }

    /// Retries every 2.5 s at most: a retry horizon of 30.9 s.
    fn short_retry_cfg() -> ExmConfig {
        ExmConfig {
            request_retry_us: 2_500_000,
            request_retry_cap_us: 2_500_000,
            wal_enabled: false,
            ..ExmConfig::default()
        }
    }

    /// The daemon of a one-machine group, run on `host` until it leads.
    fn lone_leader(cfg: ExmConfig, host: &mut MockHost) -> DaemonEndpoint {
        let me = host.info.node;
        let mut daemon =
            DaemonEndpoint::new(me, MachineClass::Workstation, vec![Addr::daemon(me)], cfg);
        daemon.on_start(host);
        while !daemon.gm.is_coordinator() {
            assert!(host.now < 10_000_000, "the lone daemon never led");
            let timers = std::mem::take(&mut host.timers);
            host.now += timers.iter().map(|t| t.0).min().expect("a timer armed");
            for (_, token) in timers {
                daemon.on_timer(token, host);
            }
        }
        daemon
    }

    fn request(seq: u32) -> ResourceRequest {
        ResourceRequest {
            req: ReqId {
                app: crate::msg::AppId(1),
                seq,
            },
            class: MachineClass::Workstation,
            needs: Needs {
                mem_mb: 0,
                count_min: 1,
                count_max: 1,
                unit: WireStr::default(),
            },
            priority_boost: 0,
            reply_to: Addr::executor(NodeId(9)),
        }
    }

    /// A retry inside the horizon gets the grant's own nodes back and
    /// costs no round; one after the grant was forgotten starts a fresh
    /// round, as a retry reaching a successor leader does.
    #[test]
    fn a_retry_inside_the_horizon_replays_the_grant() {
        let cfg = short_retry_cfg();
        let horizon = cfg.retry_horizon_us();
        let mut host = MockHost::new(NodeId(0));
        let mut daemon = lone_leader(cfg, &mut host);
        let first = request(1);
        let nodes = NodeList::from(vec![NodeId(3), NodeId(5)]);
        daemon.grant(
            first.req,
            nodes.clone(),
            first.reply_to,
            "allocated",
            &mut host,
        );

        host.now += horizon - 1;
        host.sent.clear();
        daemon.handle_resource_request(first.clone(), &mut host);
        let [(_, to, payload)] = host.sent.as_slice() else {
            panic!("one reply, got {:?}", host.sent);
        };
        assert_eq!(*to, first.reply_to);
        assert_eq!(
            vce_codec::from_backing::<ExmMsg>(payload).expect("an ExmMsg"),
            ExmMsg::Allocation {
                req: first.req,
                nodes: nodes.clone()
            }
        );
        assert!(daemon.leader.collects.is_empty(), "a retry started a round");
        assert!(!daemon.leader.pending.contains_key(&first.req));

        // A grant a horizon after the first one sweeps it away.
        host.now += 1;
        let second = request(2);
        daemon.grant(second.req, nodes, second.reply_to, "allocated", &mut host);
        assert!(!daemon.leader.served.contains_key(&first.req));
        daemon.handle_resource_request(first.clone(), &mut host);
        assert!(daemon.leader.pending.contains_key(&first.req));
        assert_eq!(daemon.leader.collects.len(), 1, "no fresh round");
    }

    /// A leader granting without pause keeps each grant at least one
    /// horizon and at most the grants of the last two.
    #[test]
    fn served_keeps_at_most_two_horizons_of_grants() {
        let cfg = short_retry_cfg();
        let horizon = cfg.retry_horizon_us();
        let me = NodeId(0);
        let mut daemon =
            DaemonEndpoint::new(me, MachineClass::Workstation, vec![Addr::daemon(me)], cfg);
        let mut host = MockHost::new(me);
        let period = 50_000;
        host.now = period;
        let mut granted_at = Vec::new();
        let mut seq = 0;
        while host.now < 4 * horizon {
            seq += 1;
            let r = request(seq);
            daemon.grant(
                r.req,
                NodeList::from(vec![NodeId(1)]),
                r.reply_to,
                "allocated",
                &mut host,
            );
            host.sent.clear();
            granted_at.push(host.now);
            let since = |span: u64| {
                let from = host.now.saturating_sub(span);
                granted_at.iter().filter(|&&at| at > from).count()
            };
            let live = daemon.leader.served.len();
            assert!(live >= since(horizon), "forgot a grant inside the horizon");
            assert!(live <= since(2 * horizon), "{live} live at {} µs", host.now);
            host.now += period;
        }
        // Swept three times over; the slab holds no more than two horizons.
        assert!(daemon.leader.served.slab_len() as u64 <= 2 * horizon / period + 1);
    }
}

#[cfg(test)]
mod token_tests {
    use super::*;
    use vce_isis::ISIS_TOKEN_BASE;

    /// The old additive scheme (`1<<20 + pid` / `2<<20 + pid` /
    /// `3<<20 + pid`) let any pid ≥ 2^20 bleed a checkpoint timer into the
    /// fetch range and beyond — vce-lint P003 flags exactly that overlap.
    /// The tagged encoding must keep the kinds distinct over the full u32
    /// pid space, round-trip the pid, and stay clear of TICK and isis.
    #[test]
    fn token_kinds_stay_distinct_across_the_full_pid_space() {
        for pid in [
            0u64,
            1,
            (1 << 20) - 1,
            1 << 20,
            (1 << 20) + 1,
            u64::from(u32::MAX),
        ] {
            let (cp, fe, tr) = (
                pid_token(TAG_CHECKPOINT, pid),
                pid_token(TAG_FETCH, pid),
                pid_token(TAG_TRANSFER, pid),
            );
            assert_ne!(cp, fe, "pid {pid}");
            assert_ne!(cp, tr, "pid {pid}");
            assert_ne!(fe, tr, "pid {pid}");
            for t in [cp, fe, tr] {
                assert_ne!(t, TOKEN_TICK, "pid {pid}");
                assert!(t < ISIS_TOKEN_BASE, "pid {pid}");
                assert!(!is_isis_token(t), "pid {pid}");
            }
            assert_eq!(decode_token(cp), (TAG_CHECKPOINT, pid));
            assert_eq!(decode_token(fe), (TAG_FETCH, pid));
            assert_eq!(decode_token(tr), (TAG_TRANSFER, pid));
        }
    }
}
