//! The discrete-event engine facade: partitions nodes across shards,
//! schedules fault fences, and merges per-shard traces and statistics back
//! into one global-order view.
//!
//! Determinism contract: a run is a pure function of (config seed, the
//! sequence of `add_*`/`kill_*`/`inject` calls) — **independent of the
//! shard count**. Every event carries a *cause key* derived from its
//! creator (see [`crate::shard`]); the global total order is `(at_us,
//! cause)`, and shards advance in conservative time windows sized by the
//! adaptive lookahead plan (`crate::lookahead` — at least
//! [`Topology::min_cross_latency_us`], wider on clustered fleets) so
//! cross-shard events always land in a later window. Traces, experiment
//! stdout and chaos invariants are byte-identical for `shards` ∈ {1, 2, 4,
//! 8}; every shard count advances through the one window loop in
//! [`crate::sharded`], which with `shards = 1` runs on the caller's thread
//! with fences as the only window boundaries.
//!
//! Fault mutations (scheduled chaos ops and driver-time kills/revives) are
//! not ordinary events: they touch the *global* fault plan, which every
//! shard consults. They are kept as **fences** — a time-ordered side list
//! that caps window ends — and applied to every shard's plan replica at
//! window starts, before same-microsecond events, identically on every
//! shard count.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::Arc;

use bytes::Bytes;

use vce_net::{Addr, Endpoint, Envelope, FaultPlan, MachineInfo, NetStats, NodeId};

use crate::load::LoadTrace;
use crate::lookahead::LookaheadPlan;
use crate::metrics::NodeMetrics;
use crate::queue::QueueStats;
use crate::record::{EventRecord, SnapshotRecord, TraceWriter};
use crate::shard::{apply_plan_op, cause_key, shard_of, Shard};
use crate::sharded::{self, Fence, Rendezvous};
use crate::topology::Topology;
use crate::trace::Trace;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Master seed; everything random in the run derives from it.
    pub seed: u64,
    /// Latency model.
    pub topology: Topology,
    /// Whether to keep a full trace (disable for hot benchmarks).
    pub trace_enabled: bool,
    /// Number of shards the node slab is partitioned into (1–64). Output
    /// is byte-identical for every value; each shard past the first runs
    /// on a worker thread of its own. Defaults from `VCE_SHARDS`.
    pub shards: usize,
}

impl SimConfig {
    /// Shard count from the `VCE_SHARDS` environment variable, clamped to
    /// 1–64; 1 when unset or unparsable.
    pub fn shards_from_env() -> usize {
        std::env::var("VCE_SHARDS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .map_or(1, |n| n.clamp(1, 64))
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            topology: Topology::default(),
            trace_enabled: true,
            shards: Self::shards_from_env(),
        }
    }
}

/// The simulator: a facade over `shards` shard-local engines.
pub struct Sim {
    now: u64,
    shards: Vec<Shard>,
    topology: Arc<Topology>,
    /// Canonical fault plan (driver's view). Shards hold replicas, updated
    /// op-wise at fences; [`Sim::with_fault_plan`] re-clones wholesale.
    fault: FaultPlan,
    /// Pending fault fences, ordered by `(at_us, driver cause)`.
    fences: BTreeMap<(u64, u64), vce_net::FaultOp>,
    /// Driver cause counter (origin 0): injections, fences, driver kills.
    driver_seq: u64,
    /// Conservative window width: the cheapest latency any *realizable*
    /// cross-shard pair can achieve, per the site-occupancy plan below.
    /// Unbounded while no such pair exists (one shard, or no node yet) and
    /// recomputed whenever a node registration grows a shard's site set;
    /// never narrower than [`Topology::min_cross_latency_us`].
    lookahead: u64,
    /// Which sites each shard hosts (sources) and owns (destinations) —
    /// the adaptive-window planner behind `lookahead`.
    lookahead_plan: LookaheadPlan,
    /// Master trace, appended in global `(at_us, phase, cause)` order at
    /// every sync point.
    trace: Trace,
    trace_enabled: bool,
    /// Attached `.vct` recorder, if any (see [`crate::record`]).
    recorder: Option<Recorder>,
    /// Barrier, inboxes and window plan the shard workers meet at.
    rendezvous: Rendezvous,
}

/// Live recording state: the streaming writer plus snapshot cadence.
/// Frames are written at sync points and snapshots at `finish_run` — both
/// driver-call boundaries, independent of the shard count, which is what
/// makes a `.vct` file byte-identical across `VCE_SHARDS` values.
struct Recorder {
    writer: TraceWriter,
    every_us: u64,
    /// Next sim time at or after which a snapshot is cut.
    next_at: u64,
    /// Events written so far (the index space snapshots refer into).
    event_index: u64,
    /// First write failure, if any; recording stops and the error
    /// resurfaces from [`Sim::finish_recording`].
    io_error: Option<String>,
}

/// Whole-sim digest: time, event index, and every per-node hash in node
/// order.
fn sim_hash_of(now: u64, event_index: u64, nodes: &[(NodeId, u64)]) -> u64 {
    let mut h = vce_net::Fnv64::new();
    h.write_u64(now)
        .write_u64(event_index)
        .write_u64(nodes.len() as u64);
    for &(n, hash) in nodes {
        h.write_u64(u64::from(n.0)).write_u64(hash);
    }
    h.finish()
}

/// Drain one keyed buffer from every shard and yield its items in global
/// `(at_us, phase, cause)` order.
fn splice<T>(
    shards: &mut [Shard],
    buf: impl Fn(&mut Shard) -> &mut Vec<(u64, u8, u64, T)>,
) -> impl Iterator<Item = T> {
    let mut batch = Vec::new();
    for sh in shards {
        batch.append(buf(sh));
    }
    batch.sort_by_key(|a| (a.0, a.1, a.2));
    batch.into_iter().map(|(_, _, _, item)| item)
}

impl Sim {
    /// Build an empty simulator.
    pub fn new(config: SimConfig) -> Self {
        let shards = config.shards.clamp(1, 64);
        let topology = Arc::new(config.topology);
        let lookahead_plan = LookaheadPlan::new(shards, &topology);
        // No node is registered yet, so the window is unbounded;
        // add_node_with_load narrows it as site occupancy becomes known.
        let lookahead = lookahead_plan.window_us(&topology);
        Self {
            now: 0,
            shards: (0..shards)
                .map(|i| {
                    Shard::new(
                        i,
                        shards,
                        config.seed,
                        Arc::clone(&topology),
                        config.trace_enabled,
                    )
                })
                .collect(),
            topology,
            fault: FaultPlan::none(),
            fences: BTreeMap::new(),
            driver_seq: 0,
            lookahead,
            lookahead_plan,
            trace: if config.trace_enabled {
                Trace::new()
            } else {
                Trace::disabled()
            },
            trace_enabled: config.trace_enabled,
            recorder: None,
            rendezvous: Rendezvous::new(shards),
        }
    }

    // ---- record/replay (see `crate::record`) ----

    /// Start recording every event pop and periodic state snapshots to a
    /// `.vct` file at `path`. `scenario` is a free-form string a replay
    /// tool can use to reconstruct the run; `snapshot_every_us` is the
    /// snapshot cadence in sim time.
    pub fn record_to(
        &mut self,
        path: &Path,
        scenario: &str,
        snapshot_every_us: u64,
    ) -> io::Result<()> {
        let writer = TraceWriter::to_file(path, scenario, snapshot_every_us)?;
        self.attach_recorder(writer, snapshot_every_us);
        Ok(())
    }

    /// Start recording into memory; [`Sim::finish_recording`] returns the
    /// bytes.
    pub fn record_to_memory(&mut self, scenario: &str, snapshot_every_us: u64) {
        let writer = TraceWriter::to_memory(scenario, snapshot_every_us);
        self.attach_recorder(writer, snapshot_every_us);
    }

    fn attach_recorder(&mut self, writer: TraceWriter, every_us: u64) {
        assert!(self.recorder.is_none(), "a recording is already attached");
        for sh in &mut self.shards {
            sh.rec.set_enabled(true);
        }
        self.recorder = Some(Recorder {
            writer,
            every_us,
            next_at: 0,
            event_index: 0,
            io_error: None,
        });
        // Baseline snapshot at event index 0, so divergence before the
        // first cadence point is still bracketed from below.
        self.take_snapshot();
    }

    /// Whether a recorder is attached.
    pub fn is_recording(&self) -> bool {
        self.recorder.is_some()
    }

    /// Seal the recording with its `End` frame and detach the recorder.
    /// Memory recordings return their bytes; file recordings return
    /// `None`. Any write error swallowed mid-run resurfaces here.
    pub fn finish_recording(&mut self) -> io::Result<Option<Vec<u8>>> {
        assert!(self.recorder.is_some(), "no recording attached");
        self.sync();
        let mut nodes = Vec::new();
        for sh in &self.shards {
            sh.node_hashes(&mut nodes);
        }
        nodes.sort_unstable_by_key(|&(n, _)| n);
        for sh in &mut self.shards {
            sh.rec.set_enabled(false);
        }
        let Recorder {
            writer,
            event_index,
            io_error,
            ..
        } = self.recorder.take().expect("checked above");
        if let Some(e) = io_error {
            return Err(io::Error::other(e));
        }
        writer.finish(sim_hash_of(self.now, event_index, &nodes), self.now)
    }

    /// Cut a snapshot frame now (called at recording start and whenever
    /// `finish_run` crosses the cadence point).
    fn take_snapshot(&mut self) {
        let mut nodes = Vec::new();
        for sh in &self.shards {
            sh.node_hashes(&mut nodes);
        }
        nodes.sort_unstable_by_key(|&(n, _)| n);
        let now = self.now;
        let Some(r) = self.recorder.as_mut() else {
            return;
        };
        let snap = SnapshotRecord {
            at_us: now,
            event_index: r.event_index,
            sim_hash: sim_hash_of(now, r.event_index, &nodes),
            nodes,
        };
        if r.io_error.is_none() {
            if let Err(e) = r.writer.snapshot(&snap) {
                r.io_error = Some(e.to_string());
            }
        }
        r.next_at = now.saturating_add(r.every_us);
    }

    /// Current simulated time, µs.
    pub fn now_us(&self) -> u64 {
        self.now
    }

    /// Width of the conservative time window the sharded runner advances
    /// through per barrier round, in µs. At least
    /// [`Topology::min_cross_latency_us`]; wider when the registered fleet
    /// is clustered so that every realizable cross-shard message crosses a
    /// site boundary, and `u64::MAX` when no message can cross shards at
    /// all (see `crate::lookahead`). Purely diagnostic — output is
    /// byte-identical whatever the window width.
    pub fn window_lookahead_us(&self) -> u64 {
        self.lookahead
    }

    /// Number of shards the simulator is running with.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total events processed so far, summed across shards. Independent of
    /// the shard count (batched deliveries count per envelope).
    pub fn events_processed(&self) -> u64 {
        self.shards.iter().map(|s| s.events_processed).sum()
    }

    /// What the event queues' sorted-insert path has cost so far and the
    /// capacity they hold, summed across shards (see [`QueueStats`]).
    /// Diagnostic: in no snapshot hash and no recording, and — unlike
    /// [`Sim::events_processed`] — free to differ between shard counts.
    pub fn queue_stats(&self) -> QueueStats {
        self.shards
            .iter()
            .map(|s| s.queue_stats())
            .fold(QueueStats::default(), |a, b| a + b)
    }

    /// Network statistics, summed over the shards' own counters.
    pub fn stats(&self) -> NetStats {
        self.shards.iter().fold(NetStats::default(), |mut sum, s| {
            sum.absorb(&s.stats);
            sum
        })
    }

    /// The run trace, in global `(time, cause)` order.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Mutate the fault plan (partitions, link faults). For whole-machine
    /// crash semantics prefer [`Sim::kill_node`], which also clears the CPU.
    pub fn with_fault_plan<T>(&mut self, f: impl FnOnce(&mut FaultPlan) -> T) -> T {
        let out = f(&mut self.fault);
        for sh in &mut self.shards {
            sh.fault = self.fault.clone();
        }
        out
    }

    /// Register a machine with an idle background-load trace.
    pub fn add_node(&mut self, info: MachineInfo) {
        self.add_node_with_load(info, LoadTrace::idle());
    }

    /// Register a machine and schedule its background-load trace.
    pub fn add_node_with_load(&mut self, info: MachineInfo, load: LoadTrace) {
        let owner = shard_of(info.node, self.shards.len());
        let site = self.topology.site_of(info.node);
        if self.lookahead_plan.note_node(owner, site) {
            self.lookahead = self.lookahead_plan.window_us(&self.topology);
        }
        let now = self.now;
        self.shards[owner].add_node_with_load(info, &load, now);
    }

    /// Register an endpoint; its `on_start` runs as the next event.
    pub fn add_endpoint(&mut self, addr: Addr, ep: Box<dyn Endpoint>) {
        let owner = shard_of(addr.node, self.shards.len());
        let now = self.now;
        self.shards[owner].add_endpoint(addr, ep, now);
    }

    /// Inject an external envelope, delivered to `dst` at `at_us`
    /// (≥ now). Used by experiment harnesses to kick off scenarios.
    pub fn inject_at(&mut self, at_us: u64, src: Addr, dst: Addr, payload: Bytes) {
        let env = Envelope::new(src, dst, u64::MAX, payload);
        let cause = self.next_driver_cause();
        let owner = shard_of(dst.node, self.shards.len());
        let at = at_us.max(self.now);
        self.shards[owner].push_driver_event(at, cause, dst.node, env);
    }

    /// Encode and inject an external message for immediate delivery.
    pub fn inject<T: vce_codec::Codec>(&mut self, src: Addr, dst: Addr, msg: &T) {
        let mut enc = vce_codec::Encoder::with_capacity(64);
        msg.encode(&mut enc);
        self.inject_at(self.now, src, dst, enc.finish_bytes());
    }

    /// Crash a machine immediately: connectivity drops, resident jobs and
    /// pending timers are lost. Endpoint state survives for a later
    /// [`Sim::revive_node`] (a rebooted daemon restarting from scratch is
    /// modelled by the endpoint itself on `on_start`).
    pub fn kill_node(&mut self, node: NodeId) {
        self.apply_fence_now(vce_net::FaultOp::Kill(node));
    }

    /// Revive a crashed machine and re-run `on_start` on its endpoints.
    pub fn revive_node(&mut self, node: NodeId) {
        self.apply_fence_now(vce_net::FaultOp::Revive(node));
    }

    /// Degrade a machine's CPU immediately: work takes `factor`× longer
    /// (`factor == 1` restores full speed). The node stays alive.
    pub fn slow_node(&mut self, node: NodeId, factor: u32) {
        self.apply_fence_now(vce_net::FaultOp::SlowNode(node, factor));
    }

    /// Apply a fault op at driver time (now), on the canonical plan and
    /// every replica, then sync so its trace line is visible. Cross-shard
    /// mail an `on_crash` callback produces waits in the outbox for the
    /// next run to ship.
    fn apply_fence_now(&mut self, op: vce_net::FaultOp) {
        let cause = self.next_driver_cause();
        let now = self.now;
        apply_plan_op(&mut self.fault, &op);
        for sh in &mut self.shards {
            sh.apply_fence(now, cause, &op);
        }
        self.sync();
    }

    /// Schedule a fault-plan mutation at absolute sim time `at_us` —
    /// crash/revive, partition/heal, or a default-link change. Ops become
    /// *fences*: they cap conservative windows and apply before
    /// same-microsecond events, so an entire chaos schedule queued up
    /// front interleaves deterministically with protocol traffic on any
    /// shard count, and each application is visible in the trace.
    pub fn schedule_fault(&mut self, at_us: u64, op: vce_net::FaultOp) {
        let cause = self.next_driver_cause();
        self.fences.insert((at_us.max(self.now), cause), op);
    }

    /// Immediately set a node's background load.
    pub fn set_background(&mut self, node: NodeId, background: f64) {
        let owner = shard_of(node, self.shards.len());
        let now = self.now;
        self.shards[owner].set_background(node, background, now);
    }

    /// Whether a node is currently crashed.
    pub fn is_node_dead(&self, node: NodeId) -> bool {
        let owner = shard_of(node, self.shards.len());
        self.shards[owner].node_is_dead(node)
    }

    /// A node's instantaneous load.
    pub fn node_load(&self, node: NodeId) -> f64 {
        let owner = shard_of(node, self.shards.len());
        self.shards[owner].node_load(node)
    }

    /// Metrics snapshot for one node (advances its CPU accounting to now).
    pub fn metrics(&mut self, node: NodeId) -> Option<NodeMetrics> {
        let owner = shard_of(node, self.shards.len());
        let now = self.now;
        self.shards[owner].metrics(node, now)
    }

    /// Metrics for every node, sorted by node id.
    pub fn all_metrics(&mut self) -> Vec<NodeMetrics> {
        let mut ids: Vec<NodeId> = self.shards.iter().flat_map(|s| s.node_ids()).collect();
        ids.sort();
        ids.into_iter().filter_map(|id| self.metrics(id)).collect()
    }

    /// Access an endpoint's concrete state (via its `as_any_mut` hook).
    pub fn with_endpoint_mut<E: 'static, T>(
        &mut self,
        addr: Addr,
        f: impl FnOnce(&mut E) -> T,
    ) -> Option<T> {
        let owner = shard_of(addr.node, self.shards.len());
        self.shards[owner].with_endpoint_mut(addr, f)
    }

    /// Run until the event heap is empty; returns the final time.
    ///
    /// **Only terminates for self-quenching scenarios.** Endpoints with
    /// periodic timers (every VCE daemon re-arms heartbeat/housekeeping
    /// ticks forever) keep the heap non-empty — drive those with
    /// [`Sim::run_until`]/[`Sim::run_for`] instead.
    pub fn run_until_idle(&mut self) -> u64 {
        self.run_bounded(u64::MAX);
        self.finish_run(None);
        self.now
    }

    /// Run until simulated time reaches `t_us` (events at exactly `t_us`
    /// are processed); the clock advances to `t_us` even if the heap
    /// empties first.
    pub fn run_until(&mut self, t_us: u64) {
        self.run_bounded(t_us);
        self.finish_run(Some(t_us));
    }

    /// Run for `d_us` more simulated microseconds.
    pub fn run_for(&mut self, d_us: u64) {
        self.run_until(self.now.saturating_add(d_us));
    }

    // ---- run internals ----

    fn next_driver_cause(&mut self) -> u64 {
        let c = cause_key(0, self.driver_seq);
        self.driver_seq += 1;
        c
    }

    /// Run everything (events and fences) at or before `t`.
    fn run_bounded(&mut self, t: u64) {
        let fences = self.take_fences_through(t);
        sharded::run(
            &mut self.shards,
            &self.rendezvous,
            &fences,
            self.lookahead,
            t,
        );
    }

    /// Pop every fence at or before `t` (sorted), applying each to the
    /// canonical plan; the workers apply them to the replicas.
    fn take_fences_through(&mut self, t: u64) -> Vec<Fence> {
        let mut out = Vec::new();
        while let Some(e) = self.fences.first_entry() {
            let (at, cause) = *e.key();
            if at > t {
                break;
            }
            let op = e.remove();
            apply_plan_op(&mut self.fault, &op);
            out.push((at, cause, op));
        }
        out
    }

    /// Post-run bookkeeping: reconcile the global clock (optionally
    /// clamping up to a target time) and merge shard state.
    fn finish_run(&mut self, clamp_to: Option<u64>) {
        let latest = self.shards.iter().map(|s| s.now).max().unwrap_or(self.now);
        if latest > self.now {
            self.now = latest;
        }
        if let Some(t) = clamp_to {
            if self.now < t {
                self.now = t;
            }
        }
        let now = self.now;
        for sh in &mut self.shards {
            sh.advance_clock(now);
        }
        self.sync();
        if self
            .recorder
            .as_ref()
            .is_some_and(|r| now >= r.next_at && r.io_error.is_none())
        {
            self.take_snapshot();
        }
    }

    /// Splice per-shard trace buffers into the master trace in global
    /// `(at_us, phase, cause)` order.
    ///
    /// The batch is *sorted*, not concatenated, even with one shard: a
    /// zero-delay timer can legitimately execute after a
    /// same-microsecond event with a larger cause (its key is assigned at
    /// creation, mid-microsecond), so execution order and key order can
    /// differ. Sorting by key yields one canonical order that every shard
    /// count agrees on; the sort is stable and key collisions only occur
    /// within a single callback's lines, which are already in order.
    fn sync(&mut self) {
        if let Some(r) = self.recorder.as_mut() {
            let recs: Vec<EventRecord> = splice(&mut self.shards, |sh| &mut sh.rec.buf).collect();
            r.event_index += recs.len() as u64;
            if r.io_error.is_none() {
                if let Err(e) = r.writer.append_events(&recs) {
                    r.io_error = Some(e.to_string());
                }
            }
        }
        if self.trace_enabled {
            for ev in splice(&mut self.shards, |sh| &mut sh.trace.buf) {
                self.trace.push(ev.at_us, ev.node, ev.line);
            }
        }
    }

    /// The latency model in use.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vce_net::{send_msg, Host};

    /// Echo endpoint: replies to every envelope with the same number + 1,
    /// until a cap.
    struct Counter {
        me: Addr,
        cap: u64,
        last_seen: u64,
        finish_time: Option<u64>,
    }

    impl Endpoint for Counter {
        fn on_envelope(&mut self, env: Envelope, host: &mut dyn Host) {
            let v: u64 = env.decode_payload().unwrap();
            self.last_seen = v;
            if v >= self.cap {
                self.finish_time = Some(host.now_us());
            } else {
                send_msg(host, self.me, env.src, &(v + 1));
            }
        }
        fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
            Some(self)
        }
    }

    fn two_node_sim() -> Sim {
        let mut sim = Sim::new(SimConfig::default());
        sim.add_node(MachineInfo::workstation(NodeId(0), 100.0));
        sim.add_node(MachineInfo::workstation(NodeId(1), 100.0));
        sim
    }

    #[test]
    fn message_ping_pong_advances_time_by_latency() {
        let mut sim = two_node_sim();
        for n in [0u32, 1] {
            sim.add_endpoint(
                Addr::daemon(NodeId(n)),
                Box::new(Counter {
                    me: Addr::daemon(NodeId(n)),
                    cap: 10,
                    last_seen: 0,
                    finish_time: None,
                }),
            );
        }
        sim.inject(Addr::daemon(NodeId(0)), Addr::daemon(NodeId(1)), &0u64);
        sim.run_until_idle();
        let t = sim
            .with_endpoint_mut::<Counter, _>(Addr::daemon(NodeId(0)), |c| c.finish_time)
            .flatten()
            .or_else(|| {
                sim.with_endpoint_mut::<Counter, _>(Addr::daemon(NodeId(1)), |c| c.finish_time)
                    .flatten()
            })
            .expect("someone finished");
        // Ten hops at ~1ms base latency each.
        assert!(t >= 10_000, "time {t}");
        assert_eq!(sim.stats().delivered, 11); // inject + 10 replies
    }

    #[test]
    fn deterministic_runs_produce_identical_traces() {
        let run = || {
            let mut sim = two_node_sim();
            for n in [0u32, 1] {
                sim.add_endpoint(
                    Addr::daemon(NodeId(n)),
                    Box::new(Counter {
                        me: Addr::daemon(NodeId(n)),
                        cap: 50,
                        last_seen: 0,
                        finish_time: None,
                    }),
                );
            }
            sim.inject(Addr::daemon(NodeId(0)), Addr::daemon(NodeId(1)), &0u64);
            sim.run_until_idle();
            (sim.now_us(), sim.events_processed(), sim.stats().snapshot())
        };
        assert_eq!(run(), run());
    }

    /// A mesh scenario with faults, duplicates, background load and
    /// cross-node chatter, run at a given shard count.
    fn sharded_fingerprint(shards: usize) -> (u64, u64, vce_net::stats::StatsSnapshot, String) {
        let mut sim = Sim::new(SimConfig {
            seed: 7,
            topology: Topology::default(),
            trace_enabled: true,
            shards,
        });
        let n_nodes = 12u32;
        for n in 0..n_nodes {
            sim.add_node_with_load(
                MachineInfo::workstation(NodeId(n), 100.0),
                LoadTrace::from_steps(vec![(40_000 + u64::from(n) * 1_000, 0.5)]),
            );
        }
        for n in 0..n_nodes {
            sim.add_endpoint(
                Addr::daemon(NodeId(n)),
                Box::new(Counter {
                    me: Addr::daemon(NodeId(n)),
                    cap: 400,
                    last_seen: 0,
                    finish_time: None,
                }),
            );
        }
        // Lossy, duplicating default link so verdict RNG is exercised.
        sim.with_fault_plan(|p| {
            p.default_link.drop_prob = 0.05;
            p.default_link.dup_prob = 0.05;
            p.default_link.jitter_us = 500;
        });
        // Several interleaved ping-pong chains crossing shard boundaries.
        for n in 0..n_nodes {
            sim.inject(
                Addr::daemon(NodeId(n)),
                Addr::daemon(NodeId((n + 1) % n_nodes)),
                &0u64,
            );
        }
        // Chaos fences mid-run.
        sim.schedule_fault(120_000, vce_net::FaultOp::Kill(NodeId(3)));
        sim.schedule_fault(240_000, vce_net::FaultOp::Revive(NodeId(3)));
        sim.schedule_fault(180_000, vce_net::FaultOp::Partition(NodeId(5), 1));
        sim.schedule_fault(300_000, vce_net::FaultOp::Heal);
        sim.run_until(600_000);
        // Driver-time kill/revive as well.
        sim.kill_node(NodeId(7));
        sim.run_for(100_000);
        sim.revive_node(NodeId(7));
        sim.run_until_idle();
        (
            sim.now_us(),
            sim.events_processed(),
            sim.stats().snapshot(),
            sim.trace().dump(),
        )
    }

    #[test]
    fn shard_counts_produce_identical_runs() {
        let baseline = sharded_fingerprint(1);
        for shards in [2, 4, 8] {
            let got = sharded_fingerprint(shards);
            assert_eq!(baseline.0, got.0, "final time diverged at {shards} shards");
            assert_eq!(baseline.1, got.1, "event count diverged at {shards} shards");
            assert_eq!(baseline.2, got.2, "net stats diverged at {shards} shards");
            assert_eq!(baseline.3, got.3, "trace diverged at {shards} shards");
        }
    }

    /// A clustered campus fleet whose modulo shard assignment is site-pure
    /// (even ids = site 1, odd ids = site 2, two shards), run at a given
    /// shard count. On two shards the adaptive plan widens the window to
    /// the campus inter-site base; output must not care.
    fn clustered_fingerprint(shards: usize) -> (u64, u64, vce_net::stats::StatsSnapshot, String) {
        let mut topo = crate::topology::Topology::two_tier(
            crate::topology::LinkParams::lan_1994(),
            crate::topology::LinkParams::campus_1994(),
        );
        let n_nodes = 8u32;
        for n in 0..n_nodes {
            topo.set_site(NodeId(n), 1 + n % 2);
        }
        let mut sim = Sim::new(SimConfig {
            seed: 11,
            topology: topo,
            trace_enabled: true,
            shards,
        });
        for n in 0..n_nodes {
            sim.add_node(MachineInfo::workstation(NodeId(n), 100.0));
        }
        if shards == 2 {
            // Site-pure shards: every cross-shard hop crosses sites, so the
            // window is the campus base, 5× the global floor.
            assert_eq!(sim.window_lookahead_us(), 5_000);
        } else {
            assert!(sim.window_lookahead_us() >= 1_000);
        }
        for n in 0..n_nodes {
            sim.add_endpoint(
                Addr::daemon(NodeId(n)),
                Box::new(Counter {
                    me: Addr::daemon(NodeId(n)),
                    cap: 200,
                    last_seen: 0,
                    finish_time: None,
                }),
            );
        }
        sim.with_fault_plan(|p| {
            p.default_link.jitter_us = 700;
            p.default_link.dup_prob = 0.04;
        });
        // Chains that alternate sites every hop (odd stride) and chains
        // that stay within a site (even stride).
        for n in 0..n_nodes {
            sim.inject(
                Addr::daemon(NodeId(n)),
                Addr::daemon(NodeId((n + 1) % n_nodes)),
                &0u64,
            );
            sim.inject(
                Addr::daemon(NodeId(n)),
                Addr::daemon(NodeId((n + 2) % n_nodes)),
                &0u64,
            );
        }
        sim.schedule_fault(200_000, vce_net::FaultOp::Kill(NodeId(2)));
        sim.schedule_fault(400_000, vce_net::FaultOp::Revive(NodeId(2)));
        sim.run_until(900_000);
        sim.run_until_idle();
        (
            sim.now_us(),
            sim.events_processed(),
            sim.stats().snapshot(),
            sim.trace().dump(),
        )
    }

    #[test]
    fn adaptive_lookahead_widens_on_clustered_fleet_without_changing_output() {
        let baseline = clustered_fingerprint(1);
        assert!(baseline.1 > 0, "workload generated no events");
        for shards in [2, 4, 8] {
            let got = clustered_fingerprint(shards);
            assert_eq!(baseline.0, got.0, "final time diverged at {shards} shards");
            assert_eq!(baseline.1, got.1, "event count diverged at {shards} shards");
            assert_eq!(baseline.2, got.2, "net stats diverged at {shards} shards");
            assert_eq!(baseline.3, got.3, "trace diverged at {shards} shards");
        }
    }

    struct WorkOnce {
        mops: f64,
        done_at: Option<u64>,
    }
    impl Endpoint for WorkOnce {
        fn on_start(&mut self, host: &mut dyn Host) {
            host.start_work(1, self.mops);
        }
        fn on_envelope(&mut self, _env: Envelope, _host: &mut dyn Host) {}
        fn on_work_done(&mut self, _pid: u64, host: &mut dyn Host) {
            self.done_at = Some(host.now_us());
        }
        fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
            Some(self)
        }
    }

    #[test]
    fn work_completes_at_predicted_time() {
        let mut sim = Sim::new(SimConfig::default());
        sim.add_node(MachineInfo::workstation(NodeId(0), 200.0));
        sim.add_endpoint(
            Addr::daemon(NodeId(0)),
            Box::new(WorkOnce {
                mops: 100.0,
                done_at: None,
            }),
        );
        sim.run_until_idle();
        let done = sim
            .with_endpoint_mut::<WorkOnce, _>(Addr::daemon(NodeId(0)), |w| w.done_at)
            .flatten()
            .unwrap();
        assert_eq!(done, 500_000); // 100 Mops at 200 Mops/s
    }

    #[test]
    fn background_load_trace_slows_work() {
        let mut sim = Sim::new(SimConfig::default());
        sim.add_node_with_load(
            MachineInfo::workstation(NodeId(0), 100.0),
            LoadTrace::constant(1.0),
        );
        sim.add_endpoint(
            Addr::daemon(NodeId(0)),
            Box::new(WorkOnce {
                mops: 50.0,
                done_at: None,
            }),
        );
        sim.run_until_idle();
        let done = sim
            .with_endpoint_mut::<WorkOnce, _>(Addr::daemon(NodeId(0)), |w| w.done_at)
            .flatten()
            .unwrap();
        assert_eq!(done, 1_000_000); // halved by one background job
        assert_eq!(sim.node_load(NodeId(0)), 1.0); // background remains
    }

    #[test]
    fn mid_run_load_change_repredicts_completion() {
        let mut sim = Sim::new(SimConfig::default());
        sim.add_node_with_load(
            MachineInfo::workstation(NodeId(0), 100.0),
            LoadTrace::from_steps(vec![(250_000, 1.0)]),
        );
        sim.add_endpoint(
            Addr::daemon(NodeId(0)),
            Box::new(WorkOnce {
                mops: 50.0,
                done_at: None,
            }),
        );
        sim.run_until_idle();
        let done = sim
            .with_endpoint_mut::<WorkOnce, _>(Addr::daemon(NodeId(0)), |w| w.done_at)
            .flatten()
            .unwrap();
        // 25 Mops at full speed (250ms), then 25 Mops at half speed (500ms).
        assert_eq!(done, 750_000);
    }

    struct TimerEp {
        fired: Vec<(u64, u64)>,
    }
    impl Endpoint for TimerEp {
        fn on_start(&mut self, host: &mut dyn Host) {
            host.set_timer(100, 1);
            host.set_timer(50, 2);
            host.set_timer(200, 3);
            host.cancel_timer(3);
        }
        fn on_envelope(&mut self, _env: Envelope, _host: &mut dyn Host) {}
        fn on_timer(&mut self, token: u64, host: &mut dyn Host) {
            self.fired.push((host.now_us(), token));
        }
        fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
            Some(self)
        }
    }

    #[test]
    fn timers_fire_in_time_order_and_respect_cancel() {
        let mut sim = Sim::new(SimConfig::default());
        sim.add_node(MachineInfo::workstation(NodeId(0), 100.0));
        sim.add_endpoint(Addr::daemon(NodeId(0)), Box::new(TimerEp { fired: vec![] }));
        sim.run_until_idle();
        let fired = sim
            .with_endpoint_mut::<TimerEp, _>(Addr::daemon(NodeId(0)), |t| t.fired.clone())
            .unwrap();
        assert_eq!(fired, vec![(50, 2), (100, 1)]);
    }

    #[test]
    fn a_cancel_with_nothing_pending_is_a_no_op() {
        // `Host::cancel_timer`'s contract: an erasure, not a count.
        struct CancelFirst {
            fired: Vec<(u64, u64)>,
        }
        impl Endpoint for CancelFirst {
            fn on_start(&mut self, host: &mut dyn Host) {
                host.cancel_timer(7);
                host.set_timer(100, 7);
                host.set_timer(200, 8);
            }
            fn on_envelope(&mut self, _env: Envelope, _host: &mut dyn Host) {}
            fn on_timer(&mut self, token: u64, host: &mut dyn Host) {
                self.fired.push((host.now_us(), token));
            }
            fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
                Some(self)
            }
        }
        let mut sim = Sim::new(SimConfig::default());
        sim.add_node(MachineInfo::workstation(NodeId(0), 100.0));
        let me = Addr::daemon(NodeId(0));
        sim.add_endpoint(me, Box::new(CancelFirst { fired: vec![] }));
        sim.run_until_idle();
        let fired = sim
            .with_endpoint_mut::<CancelFirst, _>(me, |t| t.fired.clone())
            .unwrap();
        assert_eq!(fired, vec![(100, 7), (200, 8)]);
    }

    #[test]
    fn killed_node_stops_participating() {
        let mut sim = two_node_sim();
        for n in [0u32, 1] {
            sim.add_endpoint(
                Addr::daemon(NodeId(n)),
                Box::new(Counter {
                    me: Addr::daemon(NodeId(n)),
                    cap: 1_000_000,
                    last_seen: 0,
                    finish_time: None,
                }),
            );
        }
        sim.inject(Addr::daemon(NodeId(0)), Addr::daemon(NodeId(1)), &0u64);
        sim.run_until(20_000);
        sim.kill_node(NodeId(1));
        sim.run_until_idle();
        // The ping-pong stopped: far fewer than cap messages happened.
        let last = sim
            .with_endpoint_mut::<Counter, _>(Addr::daemon(NodeId(0)), |c| c.last_seen)
            .unwrap();
        assert!(last < 100, "last {last}");
        assert!(sim.stats().dropped > 0);
    }

    #[test]
    fn revive_reruns_on_start() {
        struct Boot {
            boots: u32,
        }
        impl Endpoint for Boot {
            fn on_start(&mut self, _h: &mut dyn Host) {
                self.boots += 1;
            }
            fn on_envelope(&mut self, _env: Envelope, _h: &mut dyn Host) {}
            fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
                Some(self)
            }
        }
        let mut sim = Sim::new(SimConfig::default());
        sim.add_node(MachineInfo::workstation(NodeId(0), 100.0));
        sim.add_endpoint(Addr::daemon(NodeId(0)), Box::new(Boot { boots: 0 }));
        sim.run_until_idle();
        sim.kill_node(NodeId(0));
        sim.revive_node(NodeId(0));
        sim.run_until_idle();
        let boots = sim
            .with_endpoint_mut::<Boot, _>(Addr::daemon(NodeId(0)), |b| b.boots)
            .unwrap();
        assert_eq!(boots, 2);
    }

    #[test]
    fn kill_clears_cpu_jobs() {
        let mut sim = Sim::new(SimConfig::default());
        sim.add_node(MachineInfo::workstation(NodeId(0), 100.0));
        sim.add_endpoint(
            Addr::daemon(NodeId(0)),
            Box::new(WorkOnce {
                mops: 1000.0,
                done_at: None,
            }),
        );
        sim.run_until(1_000);
        assert_eq!(sim.node_load(NodeId(0)), 1.0);
        sim.kill_node(NodeId(0));
        assert_eq!(sim.node_load(NodeId(0)), 0.0);
        sim.run_until_idle();
        let done = sim
            .with_endpoint_mut::<WorkOnce, _>(Addr::daemon(NodeId(0)), |w| w.done_at)
            .unwrap();
        assert!(done.is_none());
    }

    #[test]
    fn metrics_report_utilization() {
        let mut sim = Sim::new(SimConfig::default());
        sim.add_node(MachineInfo::workstation(NodeId(0), 100.0));
        sim.add_node(MachineInfo::workstation(NodeId(1), 100.0));
        sim.add_endpoint(
            Addr::daemon(NodeId(0)),
            Box::new(WorkOnce {
                mops: 50.0,
                done_at: None,
            }),
        );
        sim.run_until(1_000_000);
        let m = sim.metrics(NodeId(0)).unwrap();
        assert_eq!(m.busy_us, 500_000);
        assert!((m.utilization() - 0.5).abs() < 1e-6);
        assert_eq!(m.completed_jobs, 1);
        let idle = sim.metrics(NodeId(1)).unwrap();
        assert_eq!(idle.utilization(), 0.0);
        let all = sim.all_metrics();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].node, NodeId(0));
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut sim = Sim::new(SimConfig::default());
        sim.add_node(MachineInfo::workstation(NodeId(0), 100.0));
        sim.run_until(5_000_000);
        assert_eq!(sim.now_us(), 5_000_000);
        sim.run_for(1_000);
        assert_eq!(sim.now_us(), 5_001_000);
    }

    #[test]
    fn run_for_saturates_at_the_end_of_time() {
        let mut sim = Sim::new(SimConfig::default());
        sim.run_until(1_000);
        sim.run_for(u64::MAX);
        assert_eq!(sim.now_us(), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "endpoint blew up")]
    fn panicking_shard_worker_fails_the_run_instead_of_hanging_it() {
        struct Bomb;
        impl Endpoint for Bomb {
            fn on_start(&mut self, host: &mut dyn Host) {
                host.set_timer(500, 1);
            }
            fn on_envelope(&mut self, _env: Envelope, _host: &mut dyn Host) {}
            fn on_timer(&mut self, _token: u64, _host: &mut dyn Host) {
                panic!("endpoint blew up");
            }
        }
        fn run_bomb() {
            let mut sim = Sim::new(SimConfig {
                shards: 2,
                ..SimConfig::default()
            });
            // Node 1 lives on shard 1 — a spawned worker, not the caller.
            sim.add_node(MachineInfo::workstation(NodeId(0), 100.0));
            sim.add_node(MachineInfo::workstation(NodeId(1), 100.0));
            sim.add_endpoint(Addr::daemon(NodeId(1)), Box::new(Bomb));
            sim.run_until(10_000);
        }
        // Repeated, because how the unwinding worker and the coordinator
        // interleave around the stop flag is up to the scheduler.
        for _ in 0..64 {
            assert!(std::panic::catch_unwind(run_bomb).is_err());
        }
        run_bomb();
    }

    #[test]
    #[should_panic(expected = "added twice")]
    fn duplicate_node_panics() {
        let mut sim = Sim::new(SimConfig::default());
        sim.add_node(MachineInfo::workstation(NodeId(0), 100.0));
        sim.add_node(MachineInfo::workstation(NodeId(0), 100.0));
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_endpoint_panics() {
        let mut sim = Sim::new(SimConfig::default());
        sim.add_node(MachineInfo::workstation(NodeId(0), 100.0));
        sim.add_endpoint(Addr::daemon(NodeId(0)), Box::new(TimerEp { fired: vec![] }));
        sim.add_endpoint(Addr::daemon(NodeId(0)), Box::new(TimerEp { fired: vec![] }));
    }

    #[test]
    fn trace_records_engine_events() {
        let mut sim = Sim::new(SimConfig::default());
        sim.add_node(MachineInfo::workstation(NodeId(0), 100.0));
        sim.kill_node(NodeId(0));
        assert!(sim.trace().first_time("node killed").is_some());
    }

    #[test]
    fn pooled_encode_roundtrips_through_sim_host() {
        struct EncodeOnStart {
            me: Addr,
            peer: Addr,
        }
        impl Endpoint for EncodeOnStart {
            fn on_start(&mut self, host: &mut dyn Host) {
                // Two encodes back-to-back: the pooled scratch must not
                // leak bytes between messages.
                send_msg(host, self.me, self.peer, &("first".to_string(), 1u64));
                send_msg(
                    host,
                    self.me,
                    self.peer,
                    &("second-longer".to_string(), 2u64),
                );
            }
            fn on_envelope(&mut self, _env: Envelope, _host: &mut dyn Host) {}
        }
        struct Collect {
            got: Vec<(String, u64)>,
        }
        impl Endpoint for Collect {
            fn on_envelope(&mut self, env: Envelope, _host: &mut dyn Host) {
                self.got.push(env.decode_payload().unwrap());
            }
            fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
                Some(self)
            }
        }
        let mut sim = two_node_sim();
        sim.add_endpoint(
            Addr::daemon(NodeId(0)),
            Box::new(EncodeOnStart {
                me: Addr::daemon(NodeId(0)),
                peer: Addr::daemon(NodeId(1)),
            }),
        );
        sim.add_endpoint(Addr::daemon(NodeId(1)), Box::new(Collect { got: vec![] }));
        sim.run_until_idle();
        let got = sim
            .with_endpoint_mut::<Collect, _>(Addr::daemon(NodeId(1)), |c| c.got.clone())
            .unwrap();
        assert_eq!(
            got,
            vec![("first".to_string(), 1), ("second-longer".to_string(), 2)]
        );
    }
}
