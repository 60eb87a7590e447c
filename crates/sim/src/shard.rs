//! Shard-local simulator state: one partition of the node slab plus its own
//! calendar queue, dispatch tables, fault-plan replica and statistics.
//!
//! The engine (see `DESIGN.md` decision 17) partitions nodes across `S`
//! shards by `NodeId % S` and advances all shards in lock-step
//! *conservative time windows* of width `lookahead` — the cheapest latency
//! any cross-node message can have ([`Topology::min_cross_latency_us`]).
//! Everything a node does lands either on itself (timers, CPU checks, load
//! changes — always intra-shard) or on a peer reached through the network,
//! and a peer on another shard is at least `lookahead` away; therefore no
//! event created inside a window `[w, w+lookahead)` can *fire*
//! inside that same window on another shard, and shards can run a window in
//! parallel with no communication at all. Cross-shard sends are buffered in
//! per-destination outboxes and exchanged at the window barrier
//! ([`Shard::push_or_remote`] asserts the invariant on every remote event).
//!
//! # The cause key: one total order for every shard count
//!
//! A global insertion counter cannot break ties at equal timestamps across
//! concurrently-running shards. Ties are broken instead by a **cause key**
//! derived from the event's *creator*: each node (plus the driver, origin
//! 0) owns a monotone counter, and every scheduled
//! event carries `cause = origin << CAUSE_SEQ_BITS | counter++`. Because a
//! node's events execute in the same relative order on any shard layout, the
//! key is a pure function of the simulation itself, and ordering the global
//! event set by `(at_us, cause)` yields the *same* total order for S ∈ {1,
//! 2, 4, 8, …}. Traces are merged on exactly that key at barrier-sync
//! points, so experiment stdout is byte-identical across shard counts.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

use vce_net::fault::Delivery;
use vce_net::{
    Addr, Endpoint, Envelope, FaultOp, FaultPlan, Host, MachineInfo, MsgCategory, NetStats, NodeId,
    PortId,
};

use crate::cpu::{Cpu, JobKey};
use crate::load::LoadTrace;
use crate::metrics::NodeMetrics;
use crate::queue::{CalendarQueue, QueueStats};
use crate::record::{
    EventRecord, EV_CPU, EV_DELIVER, EV_FENCE, EV_LOAD, EV_START, EV_TIMER, FENCE_CLEAR_LINK,
    FENCE_HEAL, FENCE_KILL, FENCE_LINK, FENCE_LINK_DIR, FENCE_PARTITION, FENCE_REVIVE, FENCE_SLOW,
};
use crate::topology::Topology;
use crate::trace::TraceEvent;

/// Low bits of a cause key: the per-origin counter. 2^40 events per origin
/// is ~12 days of one node scheduling an event every simulated microsecond.
pub(crate) const CAUSE_SEQ_BITS: u32 = 40;
/// High bits: the origin. Origin 0 is the driver (injections, fences);
/// node `n` is origin `n + 1`, up to [`MAX_ORIGIN`].
pub(crate) const MAX_ORIGIN: u64 = (1 << (64 - CAUSE_SEQ_BITS)) - 1;

/// Trace-merge phase for fence applications (fault ops, driver kills):
/// sorts before same-microsecond event lines, matching execution order.
pub(crate) const PHASE_FENCE: u8 = 0;
/// Trace-merge phase for ordinary event dispatch.
pub(crate) const PHASE_EVENT: u8 = 1;

/// Cause-key origin of a node's counter stream.
#[inline]
pub(crate) fn origin_of(node: NodeId) -> u64 {
    u64::from(node.0) + 1
}

/// Pack an origin and a per-origin counter into one ordering key.
#[inline]
pub(crate) fn cause_key(origin: u64, seq: u64) -> u64 {
    debug_assert!(origin <= MAX_ORIGIN);
    debug_assert!(seq < (1 << CAUSE_SEQ_BITS));
    (origin << CAUSE_SEQ_BITS) | seq
}

/// Which shard owns `node` when the slab is split `total` ways. Pure
/// function of the id so even never-registered destinations have a
/// well-defined owner (their deliveries count as drops there).
#[inline]
pub(crate) fn shard_of(node: NodeId, total: usize) -> usize {
    // Every routed event passes through here; skip the hardware divide
    // when there is nothing to partition.
    if total == 1 {
        0
    } else {
        node.0 as usize % total
    }
}

#[derive(Debug)]
pub(crate) enum EventKind {
    Start {
        port: PortId,
    },
    Deliver(Envelope),
    /// Several envelopes for the same node at the same timestamp, sent
    /// back-to-back by one callback — coalesced into one queue entry (and
    /// one outbox entry when remote) to cut insert cost on burst traffic.
    /// Carries the *first* envelope's cause; the batch occupies consecutive
    /// same-origin causes, so no foreign event can order between them and
    /// processing order is identical to the uncoalesced form.
    DeliverBatch(Vec<Envelope>),
    /// A node's earliest pending timer, queued under the key it was armed
    /// with. Stale — and skipped unseen — once that timer is cancelled or
    /// its node crashes (see [`PendingTimer`]).
    Timer {
        port: PortId,
        token: u64,
    },
    CpuCheck {
        generation: u64,
    },
    LoadChange {
        background: f64,
    },
}

/// An event in a shard's calendar queue; its `(at_us, cause)` ordering key
/// lives in the queue entry itself (see [`CalendarQueue`]).
#[derive(Debug)]
pub(crate) struct Event {
    pub(crate) node: NodeId,
    pub(crate) kind: EventKind,
}

/// A cross-shard event in flight: carried through an outbox with its full
/// ordering key, enqueued into the destination shard at the window barrier.
#[derive(Debug)]
pub(crate) struct RemoteEvent {
    pub(crate) at_us: u64,
    pub(crate) cause: u64,
    pub(crate) ev: Event,
}

struct SimNode {
    info: MachineInfo,
    cpu: Cpu,
    /// Kept **sorted by `PortId`** (the order the old `BTreeMap` iterated
    /// in): `kill_node`/`revive_node` replay `on_crash`/`on_start` in this
    /// order, which must not vary run to run. Nodes host a handful of
    /// endpoints, so lookup is a binary search over a short, contiguous
    /// array — cheaper and cache-friendlier than a tree walk.
    endpoints: Vec<(PortId, Box<dyn Endpoint>)>,
    /// Index of the last endpoint hit — a one-entry port→slot cache.
    /// Validated against the port on every use, so staleness is harmless.
    ep_cache: u32,
    /// Endpoint-visible randomness (`Host::rand_u64`).
    rng: SmallRng,
    /// Fault-judgment randomness, drawn in this node's execution order so
    /// verdicts are identical for any shard count. Seeded separately from
    /// `rng` so endpoint draws and link draws can't perturb each other.
    link_rng: SmallRng,
    /// `origin_of(node) << CAUSE_SEQ_BITS`, precomputed.
    cause_base: u64,
    cause_seq: u64,
    /// Pending timers, sorted **descending** by `(at_us, cause)` so the
    /// earliest is `last()`.
    timers: Vec<PendingTimer>,
    dead: bool,
}

/// How many pops ahead `Shard::run_window` prefetches each level of an
/// event's node state: the `SimNode`, then (reading it) its endpoint
/// table and earliest timer, then (reading the table) its cached
/// endpoint. Far enough that a miss to memory completes before the next
/// level reads the line, near enough that the run still holds the event.
/// On `storm_fleet` (10,240 nodes, working set far past L2) two levels
/// at 8/4, 16/8, 24/12 and 32/8 all gained, 16/8 the steadiest; the
/// third level, at 24/16/8, won 6 of 6 pairs over 16/8 (DESIGN decision
/// 30).
const NODE_AHEAD: usize = 24;
const TABLE_AHEAD: usize = 16;
const ENDPOINT_AHEAD: usize = 8;

/// Ask the CPU to bring the cache line holding `p` into L1. A hint: it
/// never faults, whatever `p` is, and changes no state the program can
/// observe. A no-op off x86_64.
#[inline(always)]
#[allow(unsafe_code)]
fn prefetch(p: *const u8) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the intrinsic needs the `sse` target feature, which every
    // x86_64 target has. PREFETCHT0 reads no memory in the architectural
    // sense: it cannot fault on any address, dangling or not, and `p` is
    // never dereferenced.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(p.cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// A timer armed and neither fired nor cancelled. Its ordering key is
/// drawn when it is armed, so keys and counters are those of a queue entry
/// per `set_timer`; but only the node's earliest pending timer is sure to
/// have a queue entry. Every other one waits here, and a cancel (or a
/// crash) erases it. The entry of an erased timer stays queued until its
/// instant and is skipped there: a popped timer entry is live iff its key
/// is its node's earliest pending timer's. Everything earlier has popped
/// by then, so a pending timer is always its node's earliest when its
/// entry pops.
struct PendingTimer {
    at_us: u64,
    cause: u64,
    port: PortId,
    token: u64,
    /// Whether the calendar queue holds an entry for it.
    queued: bool,
}

impl SimNode {
    /// Endpoint slot for `port`: cache check, then binary search.
    #[inline]
    fn ep_slot(&mut self, port: PortId) -> Option<usize> {
        let c = self.ep_cache as usize;
        if let Some((p, _)) = self.endpoints.get(c) {
            if *p == port {
                return Some(c);
            }
        }
        match self.endpoints.binary_search_by_key(&port, |(p, _)| *p) {
            Ok(i) => {
                self.ep_cache = i as u32;
                Some(i)
            }
            Err(_) => None,
        }
    }

    /// Next cause key from this node's counter stream.
    #[inline]
    fn next_cause(&mut self) -> u64 {
        let c = self.cause_base | self.cause_seq;
        self.cause_seq += 1;
        c
    }

    /// Record a timer `port` armed with `token`, due at `at_us`.
    fn arm_timer(&mut self, at_us: u64, port: PortId, token: u64) {
        let cause = self.next_cause();
        let i = self
            .timers
            .partition_point(|t| (t.at_us, t.cause) > (at_us, cause));
        self.timers.insert(
            i,
            PendingTimer {
                at_us,
                cause,
                port,
                token,
                queued: false,
            },
        );
    }
}

/// Dense `NodeId → slab slot` index. Node ids in every experiment are
/// small and dense, so the common path is a single array load; ids past
/// [`NodeSlots::DENSE_CAP`] (which would make the array wasteful) spill to
/// a side map.
#[derive(Default)]
struct NodeSlots {
    dense: Vec<u32>,
    spill: BTreeMap<u32, u32>,
}

impl NodeSlots {
    const DENSE_CAP: usize = 1 << 16;
    const EMPTY: u32 = u32::MAX;

    #[inline]
    fn get(&self, node: NodeId) -> Option<usize> {
        let id = node.0 as usize;
        if id < Self::DENSE_CAP {
            match self.dense.get(id) {
                Some(&s) if s != Self::EMPTY => Some(s as usize),
                _ => None,
            }
        } else {
            self.spill.get(&node.0).map(|&s| s as usize)
        }
    }

    /// Returns false if the node was already present.
    fn insert(&mut self, node: NodeId, slot: usize) -> bool {
        let id = node.0 as usize;
        if id < Self::DENSE_CAP {
            if self.dense.len() <= id {
                self.dense.resize(id + 1, Self::EMPTY);
            }
            if self.dense[id] != Self::EMPTY {
                return false;
            }
            self.dense[id] = slot as u32;
            true
        } else {
            self.spill.insert(node.0, slot as u32).is_none()
        }
    }
}

/// A work mutation, kept in issue order. Interleaving starts and cancels in
/// one list (rather than two) preserves the order the endpoint issued them:
/// `cancel(p)` then `start(p)` in one callback leaves `p` running, while
/// `start(p)` then `cancel(p)` leaves it stopped.
enum WorkOp {
    Start(u64, f64),
    Cancel(u64),
}

/// A timer mutation, kept in issue order for the same reason as [`WorkOp`]:
/// `set(d, t)` then `cancel(t)` in one callback leaves nothing armed, while
/// `cancel(t)` then `set(d, t)` leaves one timer.
enum TimerOp {
    Set(u64, u64),
    Cancel(u64),
}

/// Deferred side effects collected while an endpoint runs.
///
/// One instance lives on the [`Shard`] and is lent to each dispatch in
/// turn; the vectors are drained (not dropped) when applied, so after
/// warm-up the hot path allocates nothing here.
#[derive(Default)]
struct Effects {
    sends: Vec<(Addr, Addr, Bytes, MsgCategory)>,
    timer_ops: Vec<TimerOp>,
    work_ops: Vec<WorkOp>,
    logs: Vec<String>,
    /// Pooled encode scratch served to endpoints through
    /// [`Host::encode_with`]: cleared per message, capacity retained, so
    /// hot-path envelope encode stops allocating per message.
    enc: vce_codec::Encoder,
    /// Rotating slot pool that turns the scratch encoder's contents into
    /// `Bytes` without a per-message `Arc::from` — slots are reclaimed as
    /// soon as every consumer view drops (see `bytes::BytesPool`).
    pool: bytes::BytesPool,
}

struct HostCtx<'a> {
    now: u64,
    info: &'a MachineInfo,
    load: f64,
    /// CPU state advanced to `now`, for lazy job lookups.
    cpu: &'a Cpu,
    port: PortId,
    trace_on: bool,
    rng: &'a mut SmallRng,
    fx: &'a mut Effects,
}

impl Host for HostCtx<'_> {
    fn now_us(&self) -> u64 {
        self.now
    }
    fn send(&mut self, src: Addr, dst: Addr, payload: Bytes) {
        self.fx
            .sends
            .push((src, dst, payload, MsgCategory::Protocol));
    }
    fn send_category(&mut self, src: Addr, dst: Addr, payload: Bytes, category: MsgCategory) {
        self.fx.sends.push((src, dst, payload, category));
    }
    fn set_timer(&mut self, delay_us: u64, token: u64) {
        self.fx.timer_ops.push(TimerOp::Set(delay_us, token));
    }
    fn cancel_timer(&mut self, token: u64) {
        self.fx.timer_ops.push(TimerOp::Cancel(token));
    }
    fn start_work(&mut self, pid: u64, mops: f64) {
        self.load += 1.0; // reflect immediately in subsequent load() calls
        self.fx.work_ops.push(WorkOp::Start(pid, mops));
    }
    fn cancel_work(&mut self, pid: u64) {
        self.fx.work_ops.push(WorkOp::Cancel(pid));
    }
    fn work_remaining(&self, pid: u64) -> Option<f64> {
        // The latest mutation within this callback wins; otherwise consult
        // the CPU directly (advanced to `now` before the callback began).
        for op in self.fx.work_ops.iter().rev() {
            match *op {
                WorkOp::Start(p, m) if p == pid => return Some(m),
                WorkOp::Cancel(p) if p == pid => return None,
                _ => {}
            }
        }
        self.cpu.remaining((self.port, pid))
    }
    fn load(&self) -> f64 {
        self.load
    }
    fn machine(&self) -> &MachineInfo {
        self.info
    }
    fn rand_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }
    fn log(&mut self, line: String) {
        if self.trace_on {
            self.fx.logs.push(line);
        }
    }
    fn log_enabled(&self) -> bool {
        self.trace_on
    }
    fn encode_with(&mut self, f: &mut dyn FnMut(&mut vce_codec::Encoder)) -> Bytes {
        self.fx.enc.clear();
        f(&mut self.fx.enc);
        self.fx.pool.freeze(self.fx.enc.as_slice())
    }
}

/// Accumulator for coalescing consecutive deliverable sends into one
/// [`EventKind::DeliverBatch`] entry (see `Shard::route_send`). Carries the
/// first envelope's cause as the batch key.
enum PendingDelivery {
    None,
    One(u64, u64, NodeId, Envelope),
    Many(u64, u64, NodeId, Vec<Envelope>),
}

/// Shard-local trace buffer: records carry their merge key `(at_us, phase,
/// cause)` so the facade can splice S buffers into one global-order trace
/// at barrier-sync points.
pub(crate) struct TraceBuf {
    enabled: bool,
    pub(crate) buf: Vec<(u64, u8, u64, TraceEvent)>,
}

impl TraceBuf {
    fn new(enabled: bool) -> Self {
        Self {
            enabled,
            buf: Vec::new(),
        }
    }

    #[inline]
    pub(crate) fn is_enabled(&self) -> bool {
        self.enabled
    }

    #[inline]
    fn push(&mut self, at_us: u64, phase: u8, cause: u64, node: NodeId, line: String) {
        if self.enabled {
            self.buf
                .push((at_us, phase, cause, TraceEvent { at_us, node, line }));
        }
    }
}

/// Shard-local record/replay buffer: every event pop lands here as an
/// [`EventRecord`] keyed by `(at_us, phase, cause)` — the same merge key the
/// trace uses — so the facade can splice S buffers into the one global-order
/// stream the `.vct` writer serialises. Off (and allocation-free) unless a
/// recorder is attached.
pub(crate) struct RecBuf {
    enabled: bool,
    pub(crate) buf: Vec<(u64, u8, u64, EventRecord)>,
}

impl RecBuf {
    fn new() -> Self {
        Self {
            enabled: false,
            buf: Vec::new(),
        }
    }

    pub(crate) fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    #[inline]
    pub(crate) fn is_enabled(&self) -> bool {
        self.enabled
    }

    #[inline]
    fn push(&mut self, phase: u8, rec: EventRecord) {
        if self.enabled {
            self.buf.push((rec.at_us, phase, rec.cause, rec));
        }
    }
}

/// Stable code for an address folded into delivery records: node and port
/// in one word.
#[inline]
fn addr_code(a: Addr) -> u64 {
    (u64::from(a.node.0) << 32) | u64::from(a.port.0)
}

/// Apply one fault op to a plan — the pure plan mutation, shared by the
/// canonical plan on the facade and every shard's replica.
pub(crate) fn apply_plan_op(plan: &mut FaultPlan, op: &FaultOp) {
    match op {
        FaultOp::Kill(n) => plan.kill(*n),
        FaultOp::Revive(n) => plan.revive(*n),
        FaultOp::Partition(n, g) => plan.set_partition(*n, *g),
        FaultOp::Heal => plan.heal_partitions(),
        FaultOp::DefaultLink(lf) => plan.default_link = *lf,
        FaultOp::Link(src, dst, lf) => plan.set_link(*src, *dst, *lf),
        FaultOp::ClearLink(src, dst) => plan.clear_link(*src, *dst),
        // CPU degradation has no plan component — the network judges
        // nothing differently; the owning shard slows the node's CPU.
        FaultOp::SlowNode(..) => {}
    }
}

/// One partition of the simulator: a slab of nodes, their calendar queue,
/// a fault-plan replica, statistics and a trace buffer. The facade
/// (`vce_sim::Sim`) owns `S` of these, advanced window by window by
/// `crate::sharded`.
pub(crate) struct Shard {
    pub(crate) index: usize,
    pub(crate) total: usize,
    pub(crate) now: u64,
    events: CalendarQueue<Event>,
    /// Index-stable node slab: slots are assigned in registration order and
    /// never reused or removed (crash marks the node dead in place).
    nodes: Vec<SimNode>,
    slots: NodeSlots,
    /// Replica of the facade's canonical [`FaultPlan`], updated op-wise at
    /// fences so every shard judges deliveries against identical state.
    pub(crate) fault: FaultPlan,
    topology: Arc<Topology>,
    pub(crate) stats: NetStats,
    pub(crate) trace: TraceBuf,
    pub(crate) rec: RecBuf,
    pub(crate) events_processed: u64,
    /// Scratch [`Effects`] reused across dispatches (capacity persists).
    /// Boxed so lending it to a callback is a pointer move, not a copy of
    /// six buffer headers; `None` only while a dispatch is borrowing it.
    scratch_fx: Option<Box<Effects>>,
    /// Recycled [`EventKind::DeliverBatch`] buffers: drained batches park
    /// here and `route_send` reuses them, so steady-state burst delivery
    /// allocates no fresh `Vec`s.
    batch_pool: Vec<Vec<Envelope>>,
    /// Scratch for the jobs one `CpuCheck` completes (capacity persists).
    done_jobs: Vec<JobKey>,
    /// Cross-shard events produced this window, per destination shard
    /// (`outboxes[self.index]` stays empty). Exchanged at window barriers.
    outboxes: Vec<Vec<RemoteEvent>>,
    /// End of the currently-running window, or `u64::MAX` outside windows
    /// (driver time). Guards the conservative-barrier invariant: a remote
    /// event must never land inside the window that produced it.
    window_end: u64,
    seed: u64,
}

impl Shard {
    pub(crate) fn new(
        index: usize,
        total: usize,
        seed: u64,
        topology: Arc<Topology>,
        trace_enabled: bool,
    ) -> Self {
        Self {
            index,
            total,
            now: 0,
            events: CalendarQueue::new(),
            nodes: Vec::new(),
            slots: NodeSlots::default(),
            fault: FaultPlan::none(),
            topology,
            stats: NetStats::default(),
            trace: TraceBuf::new(trace_enabled),
            rec: RecBuf::new(),
            events_processed: 0,
            scratch_fx: Some(Box::default()),
            batch_pool: Vec::new(),
            done_jobs: Vec::new(),
            outboxes: (0..total).map(|_| Vec::new()).collect(),
            window_end: u64::MAX,
            seed,
        }
    }

    // ---- registration (driver time) ----

    pub(crate) fn add_node_with_load(&mut self, info: MachineInfo, load: &LoadTrace, now: u64) {
        let node = info.node;
        debug_assert_eq!(shard_of(node, self.total), self.index);
        assert!(
            origin_of(node) <= MAX_ORIGIN,
            "node id {node} too large for a cause-key origin"
        );
        let node_seed = self.seed ^ (u64::from(node.0) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let link_seed = self.seed ^ (u64::from(node.0) + 1).wrapping_mul(0xD1B5_4A32_D192_ED03);
        let cpu = Cpu::new(info.speed_mops);
        let slot = self.nodes.len();
        assert!(self.slots.insert(node, slot), "node {node} added twice");
        self.nodes.push(SimNode {
            info,
            cpu,
            endpoints: Vec::new(),
            ep_cache: 0,
            rng: SmallRng::seed_from_u64(node_seed),
            link_rng: SmallRng::seed_from_u64(link_seed),
            cause_base: origin_of(node) << CAUSE_SEQ_BITS,
            cause_seq: 0,
            timers: Vec::new(),
            dead: false,
        });
        for &(at_us, background) in load.steps() {
            let cause = self.nodes[slot].next_cause();
            self.events.push(
                at_us.max(now),
                cause,
                Event {
                    node,
                    kind: EventKind::LoadChange { background },
                },
            );
        }
    }

    pub(crate) fn add_endpoint(&mut self, addr: Addr, ep: Box<dyn Endpoint>, now: u64) {
        let slot = self
            .slots
            .get(addr.node)
            .unwrap_or_else(|| panic!("endpoint on unknown node {}", addr.node));
        let node = &mut self.nodes[slot];
        match node.endpoints.binary_search_by_key(&addr.port, |(p, _)| *p) {
            Ok(_) => panic!("endpoint {addr} registered twice"),
            Err(i) => node.endpoints.insert(i, (addr.port, ep)),
        }
        let cause = self.nodes[slot].next_cause();
        self.events.push(
            now,
            cause,
            Event {
                node: addr.node,
                kind: EventKind::Start { port: addr.port },
            },
        );
    }

    /// Enqueue a driver-originated event (injection) on this shard. Driver
    /// time only: the queue is directly reachable, no outbox involved.
    pub(crate) fn push_driver_event(
        &mut self,
        at_us: u64,
        cause: u64,
        node: NodeId,
        env: Envelope,
    ) {
        debug_assert_eq!(shard_of(node, self.total), self.index);
        self.events.push(
            at_us,
            cause,
            Event {
                node,
                kind: EventKind::Deliver(env),
            },
        );
    }

    /// Schedule an immediate background-load change for an owned node.
    pub(crate) fn set_background(&mut self, node: NodeId, background: f64, now: u64) {
        let Some(slot) = self.slots.get(node) else {
            return;
        };
        let cause = self.nodes[slot].next_cause();
        self.events.push(
            now,
            cause,
            Event {
                node,
                kind: EventKind::LoadChange { background },
            },
        );
    }

    // ---- inspection ----

    pub(crate) fn node_load(&self, node: NodeId) -> f64 {
        self.slots
            .get(node)
            .map_or(0.0, |s| self.nodes[s].cpu.load())
    }

    pub(crate) fn node_is_dead(&self, node: NodeId) -> bool {
        self.live_slot(node).is_none()
    }

    pub(crate) fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().map(|n| n.info.node)
    }

    pub(crate) fn metrics(&mut self, node: NodeId, now: u64) -> Option<NodeMetrics> {
        self.slots.get(node).map(|s| {
            let n = &mut self.nodes[s];
            n.cpu.advance(now);
            NodeMetrics {
                node,
                class: n.info.class,
                busy_us: n.cpu.busy_us(),
                elapsed_us: now,
                completed_jobs: n.cpu.completed_jobs(),
                mops_done: n.cpu.total_mops_done(),
                avg_load: if now == 0 {
                    0.0
                } else {
                    n.cpu.weighted_load_us() / now as f64
                },
                load_now: n.cpu.load(),
            }
        })
    }

    pub(crate) fn with_endpoint_mut<E: 'static, T>(
        &mut self,
        addr: Addr,
        f: impl FnOnce(&mut E) -> T,
    ) -> Option<T> {
        let node = &mut self.nodes[self.slots.get(addr.node)?];
        let i = node.ep_slot(addr.port)?;
        let any = node.endpoints[i].1.as_any_mut()?;
        any.downcast_mut::<E>().map(f)
    }

    // ---- window machinery ----

    #[inline]
    pub(crate) fn advance_clock(&mut self, t: u64) {
        if t > self.now {
            self.now = t;
        }
    }

    pub(crate) fn peek_time(&mut self) -> Option<u64> {
        self.events.peek_time()
    }

    pub(crate) fn queue_stats(&self) -> QueueStats {
        self.events.stats()
    }

    /// Run every queued event strictly before `w_end`, as one window:
    /// cross-shard sends made inside it must land at or after `w_end`.
    pub(crate) fn run_window(&mut self, w_end: u64) {
        self.window_end = w_end;
        while self.events.peek_time().is_some_and(|at| at < w_end) {
            let (at_us, cause, ev) = self.events.pop().expect("peeked an event");
            if cfg!(target_arch = "x86_64") {
                self.prefetch_ahead();
            }
            if matches!(ev.kind, EventKind::Timer { .. })
                && !self.timer_is_due(ev.node, at_us, cause)
            {
                continue; // a cancelled or crashed-away timer: no event at all
            }
            debug_assert!(at_us >= self.now, "event queue went backwards");
            self.now = at_us;
            self.events_processed += 1;
            if self.rec.is_enabled() {
                self.record_pop(at_us, cause, &ev);
            }
            self.handle(cause, ev);
        }
        self.window_end = u64::MAX;
    }

    /// Start the cache misses of events still queued in the loaded run,
    /// so their node state is in L1 when they pop. Each level reads only
    /// node state the level before prefetched; the reads of the run
    /// entry and the slot table are ordinary loads. Only hints: no state
    /// changes. Run only on x86_64, where `prefetch` is not a no-op.
    #[inline]
    fn prefetch_ahead(&self) {
        let node_of = |k: usize| {
            let ev = self.events.peek_nth(k - 1)?;
            self.slots.get(ev.node).map(|slot| &self.nodes[slot])
        };
        if let Some(n) = node_of(NODE_AHEAD) {
            let p = std::ptr::from_ref(n).cast::<u8>();
            let size = std::mem::size_of::<SimNode>();
            // Every 64 B and the last byte: each line the node straddles.
            for off in (0..size).step_by(64).chain([size - 1]) {
                prefetch(p.wrapping_add(off));
            }
        }
        if let Some(n) = node_of(TABLE_AHEAD) {
            prefetch(n.endpoints.as_ptr().cast());
            if let Some(t) = n.timers.last() {
                prefetch(std::ptr::from_ref(t).cast());
            }
        }
        if let Some(n) = node_of(ENDPOINT_AHEAD) {
            if let Some((_, ep)) = n.endpoints.get(n.ep_cache as usize) {
                prefetch(std::ptr::from_ref::<dyn Endpoint>(&**ep).cast());
            }
        }
    }

    /// Append this pop to the record/replay buffer. Batched deliveries are
    /// recorded one envelope each under their consecutive same-origin
    /// causes, so the record stream is identical to the uncoalesced form.
    fn record_pop(&mut self, at_us: u64, cause: u64, ev: &Event) {
        let node = ev.node;
        let rec = |kind, a, b| EventRecord {
            at_us,
            cause,
            node,
            kind,
            a,
            b,
        };
        match &ev.kind {
            EventKind::Start { port } => {
                self.rec
                    .push(PHASE_EVENT, rec(EV_START, u64::from(port.0), 0));
            }
            EventKind::Deliver(env) => {
                self.rec.push(
                    PHASE_EVENT,
                    rec(EV_DELIVER, env.payload.len() as u64, addr_code(env.src)),
                );
            }
            EventKind::DeliverBatch(envs) => {
                for (i, env) in envs.iter().enumerate() {
                    self.rec.push(
                        PHASE_EVENT,
                        EventRecord {
                            at_us,
                            cause: cause + i as u64,
                            node,
                            kind: EV_DELIVER,
                            a: env.payload.len() as u64,
                            b: addr_code(env.src),
                        },
                    );
                }
            }
            EventKind::Timer { port, token } => {
                self.rec
                    .push(PHASE_EVENT, rec(EV_TIMER, *token, u64::from(port.0)));
            }
            EventKind::CpuCheck { generation } => {
                self.rec.push(PHASE_EVENT, rec(EV_CPU, *generation, 0));
            }
            EventKind::LoadChange { background } => {
                self.rec
                    .push(PHASE_EVENT, rec(EV_LOAD, background.to_bits(), 0));
            }
        }
    }

    /// Drain arrived cross-shard events into the local queue. Push order
    /// does not matter: the queue orders purely on `(at_us, cause)`.
    pub(crate) fn enqueue_remote_drain(&mut self, mail: &mut Vec<RemoteEvent>) {
        for m in mail.drain(..) {
            self.events.push(m.at_us, m.cause, m.ev);
        }
    }

    /// Move this shard's outbox for `dst` into `sink` (capacity of the
    /// outbox is retained for the next window).
    pub(crate) fn drain_outbox_into(&mut self, dst: usize, sink: &mut Vec<RemoteEvent>) {
        sink.append(&mut self.outboxes[dst]);
    }

    pub(crate) fn outbox_is_empty(&self, dst: usize) -> bool {
        self.outboxes[dst].is_empty()
    }

    // ---- fences (fault ops and driver-time kills/revives) ----

    /// Apply one fence at `(at, cause)`: every shard updates its plan
    /// replica; the owning shard additionally performs the node-state part
    /// (crash/boot callbacks, trace line). Runs at window starts — never
    /// inside a window — so its ordering against events is the same for
    /// every shard count.
    pub(crate) fn apply_fence(&mut self, at: u64, cause: u64, op: &FaultOp) {
        self.advance_clock(at);
        apply_plan_op(&mut self.fault, op);
        if self.rec.is_enabled() {
            self.record_fence(at, cause, op);
        }
        match *op {
            FaultOp::Kill(n) => {
                if shard_of(n, self.total) == self.index {
                    self.kill_local(at, cause, n);
                }
            }
            FaultOp::Revive(n) => {
                if shard_of(n, self.total) == self.index {
                    self.revive_local(at, cause, n);
                }
            }
            FaultOp::Partition(n, group) => {
                if shard_of(n, self.total) == self.index && self.trace.is_enabled() {
                    self.trace.push(
                        at,
                        PHASE_FENCE,
                        cause,
                        n,
                        format!("engine: partition -> group {group}"),
                    );
                }
            }
            FaultOp::Heal => {
                if self.index == 0 && self.trace.is_enabled() {
                    self.trace.push(
                        at,
                        PHASE_FENCE,
                        cause,
                        NodeId(0),
                        "engine: partitions healed".into(),
                    );
                }
            }
            FaultOp::DefaultLink(lf) => {
                if self.index == 0 && self.trace.is_enabled() {
                    self.trace.push(
                        at,
                        PHASE_FENCE,
                        cause,
                        NodeId(0),
                        format!(
                            "engine: default link drop={} dup={} delay={}µs+{}µs",
                            lf.drop_prob, lf.dup_prob, lf.extra_delay_us, lf.jitter_us
                        ),
                    );
                }
            }
            FaultOp::Link(src, dst, lf) => {
                if shard_of(src, self.total) == self.index && self.trace.is_enabled() {
                    self.trace.push(
                        at,
                        PHASE_FENCE,
                        cause,
                        src,
                        format!(
                            "engine: link ->{} drop={} dup={} delay={}µs+{}µs",
                            dst.0, lf.drop_prob, lf.dup_prob, lf.extra_delay_us, lf.jitter_us
                        ),
                    );
                }
            }
            FaultOp::ClearLink(src, dst) => {
                if shard_of(src, self.total) == self.index && self.trace.is_enabled() {
                    self.trace.push(
                        at,
                        PHASE_FENCE,
                        cause,
                        src,
                        format!("engine: link ->{} cleared", dst.0),
                    );
                }
            }
            FaultOp::SlowNode(n, factor) => {
                if shard_of(n, self.total) == self.index {
                    self.slow_local(at, cause, n, factor);
                }
            }
        }
    }

    /// Degrade (or restore, `factor == 1`) an owned machine's CPU. The
    /// node stays alive — timers and messages are unaffected, only work
    /// stretches — so outstanding completion predictions are invalidated
    /// (generation bump inside `set_slow_factor`) and re-predicted.
    fn slow_local(&mut self, at: u64, cause: u64, node: NodeId, factor: u32) {
        if let Some(s) = self.slots.get(node) {
            let n = &mut self.nodes[s];
            n.cpu.advance(at);
            n.cpu.set_slow_factor(factor);
        }
        if self.trace.is_enabled() {
            let msg = if factor <= 1 {
                "engine: cpu restored to full speed".into()
            } else {
                format!("engine: cpu slowed {factor}x")
            };
            self.trace.push(at, PHASE_FENCE, cause, node, msg);
        }
        self.schedule_cpu_check(node);
    }

    /// Append a fence application to the record/replay buffer. Exactly one
    /// shard records each fence — the owning shard for node-scoped ops,
    /// shard 0 for global ones — mirroring the trace-line conditions, so
    /// the merged stream is identical for every shard count.
    fn record_fence(&mut self, at: u64, cause: u64, op: &FaultOp) {
        let (node, a, b) = match *op {
            FaultOp::Kill(n) => (n, FENCE_KILL, 0),
            FaultOp::Revive(n) => (n, FENCE_REVIVE, 0),
            FaultOp::Partition(n, group) => (n, FENCE_PARTITION, u64::from(group)),
            FaultOp::Heal => (NodeId(0), FENCE_HEAL, 0),
            FaultOp::DefaultLink(lf) => {
                let mut h = vce_net::Fnv64::new();
                h.write_f64(lf.drop_prob)
                    .write_f64(lf.dup_prob)
                    .write_u64(lf.extra_delay_us)
                    .write_u64(lf.jitter_us);
                (NodeId(0), FENCE_LINK, h.finish())
            }
            FaultOp::Link(src, dst, lf) => {
                let mut h = vce_net::Fnv64::new();
                h.write_f64(lf.drop_prob)
                    .write_f64(lf.dup_prob)
                    .write_u64(lf.extra_delay_us)
                    .write_u64(lf.jitter_us);
                (
                    src,
                    FENCE_LINK_DIR,
                    (u64::from(dst.0) << 32) | (h.finish() & 0xFFFF_FFFF),
                )
            }
            FaultOp::ClearLink(src, dst) => (src, FENCE_CLEAR_LINK, u64::from(dst.0)),
            FaultOp::SlowNode(n, factor) => (n, FENCE_SLOW, u64::from(factor)),
        };
        let owns = match *op {
            FaultOp::Kill(n)
            | FaultOp::Revive(n)
            | FaultOp::Partition(n, _)
            | FaultOp::SlowNode(n, _) => shard_of(n, self.total) == self.index,
            FaultOp::Link(src, ..) | FaultOp::ClearLink(src, _) => {
                shard_of(src, self.total) == self.index
            }
            FaultOp::Heal | FaultOp::DefaultLink(_) => self.index == 0,
        };
        if owns {
            self.rec.push(
                PHASE_FENCE,
                EventRecord {
                    at_us: at,
                    cause,
                    node,
                    kind: EV_FENCE,
                    a,
                    b,
                },
            );
        }
    }

    /// Fold every owned node's observable state into per-node digests,
    /// appended to `out` as `(node, hash)` (unsorted; the facade sorts the
    /// combined slice). Folds only shard-invariant state: slab-independent
    /// scalars, CPU accounting, and each endpoint's
    /// [`Endpoint::snapshot_hash`] in sorted-port order. Reads the CPU
    /// without advancing it — its advanced-to point is a pure function of
    /// the events dispatched, which is identical for every shard count.
    pub(crate) fn node_hashes(&self, out: &mut Vec<(NodeId, u64)>) {
        for n in &self.nodes {
            let mut h = vce_net::Fnv64::new();
            h.write_u64(u64::from(n.info.node.0))
                .write_bool(n.dead)
                .write_u64(n.cause_seq)
                .write_u64(n.cpu.busy_us())
                .write_u64(n.cpu.completed_jobs())
                .write_u64(n.cpu.job_count() as u64)
                .write_u64(u64::from(n.cpu.slow_factor()))
                .write_f64(n.cpu.background())
                .write_f64(n.cpu.total_mops_done());
            for (port, ep) in &n.endpoints {
                h.write_u64(u64::from(port.0)).write_u64(ep.snapshot_hash());
            }
            out.push((n.info.node, h.finish()));
        }
    }

    /// Crash an owned machine: give each endpoint its crash instant (the
    /// plan replica is already updated, so anything `on_crash` sends is
    /// dropped by the fault judge), then mark it dead and clear its CPU and
    /// its pending timers, whose queue entries go stale.
    fn kill_local(&mut self, at: u64, cause: u64, node: NodeId) {
        let slot = self.slots.get(node);
        let ports: Vec<PortId> = match slot {
            Some(s) if !self.nodes[s].dead => {
                self.nodes[s].endpoints.iter().map(|(p, _)| *p).collect()
            }
            _ => Vec::new(),
        };
        if let Some(s) = slot {
            for port in ports {
                self.dispatch(s, port, PHASE_FENCE, cause, |ep, host| ep.on_crash(host));
            }
            let n = &mut self.nodes[s];
            n.dead = true;
            n.cpu.advance(at);
            n.cpu.clear();
            n.timers.clear();
        }
        if self.trace.is_enabled() {
            self.trace
                .push(at, PHASE_FENCE, cause, node, "engine: node killed".into());
        }
    }

    /// Revive an owned machine and re-run `on_start` on its endpoints.
    fn revive_local(&mut self, at: u64, cause: u64, node: NodeId) {
        if let Some(s) = self.slots.get(node) {
            let n = &mut self.nodes[s];
            n.dead = false;
            // Sorted by port: the deterministic replay order the old
            // BTreeMap iteration gave us.
            let ports: Vec<PortId> = n.endpoints.iter().map(|(p, _)| *p).collect();
            for port in ports {
                let c = self.nodes[s].next_cause();
                self.events.push(
                    at,
                    c,
                    Event {
                        node,
                        kind: EventKind::Start { port },
                    },
                );
            }
        }
        if self.trace.is_enabled() {
            self.trace
                .push(at, PHASE_FENCE, cause, node, "engine: node revived".into());
        }
    }

    // ---- event handling ----

    fn handle(&mut self, cause: u64, ev: Event) {
        match ev.kind {
            EventKind::Start { port } => {
                let Some(slot) = self.live_slot(ev.node) else {
                    return;
                };
                self.dispatch(slot, port, PHASE_EVENT, cause, |ep, host| ep.on_start(host));
            }
            EventKind::Deliver(env) => self.deliver_one(cause, ev.node, env),
            EventKind::DeliverBatch(mut envs) => {
                // Count each coalesced delivery like its uncoalesced form,
                // so `events_processed` is independent of batching.
                self.events_processed += envs.len() as u64 - 1;
                for env in envs.drain(..) {
                    self.deliver_one(cause, ev.node, env);
                }
                // Park the drained buffer for route_send to reuse.
                if self.batch_pool.len() < 64 {
                    self.batch_pool.push(envs);
                }
            }
            EventKind::Timer { port, token } => {
                // `run_window` let only the node's earliest pending timer
                // through (a dead node has none): it fires now and leaves
                // the table first.
                let slot = self.slots.get(ev.node).expect("a due timer's node");
                debug_assert!(!self.nodes[slot].dead, "a dead node kept a timer");
                self.nodes[slot].timers.pop();
                self.dispatch(slot, port, PHASE_EVENT, cause, move |ep, host| {
                    ep.on_timer(token, host)
                });
                // Only now, so the re-arm a callback makes replaces what it
                // cancels instead of joining it in the queue.
                self.queue_earliest_timer(slot);
            }
            EventKind::CpuCheck { generation } => {
                let Some(slot) = self.live_slot(ev.node) else {
                    return;
                };
                let now = self.now;
                let n = &mut self.nodes[slot];
                if n.cpu.generation != generation {
                    return; // stale prediction
                }
                n.cpu.advance(now);
                // Everything numerically finished completes together.
                let mut done = std::mem::take(&mut self.done_jobs);
                n.cpu.done_jobs(&mut done);
                for &key in &done {
                    n.cpu.remove_job(key);
                    n.cpu.note_completed();
                }
                for &(port, pid) in &done {
                    self.dispatch(slot, port, PHASE_EVENT, cause, move |ep, host| {
                        ep.on_work_done(pid, host)
                    });
                }
                self.done_jobs = done;
                self.schedule_cpu_check(ev.node);
            }
            EventKind::LoadChange { background } => {
                if let Some(slot) = self.slots.get(ev.node) {
                    let now = self.now;
                    let n = &mut self.nodes[slot];
                    n.cpu.advance(now);
                    n.cpu.set_background(background);
                    if self.trace.is_enabled() {
                        self.trace.push(
                            now,
                            PHASE_EVENT,
                            cause,
                            ev.node,
                            format!("engine: background load -> {background}"),
                        );
                    }
                    self.schedule_cpu_check(ev.node);
                }
            }
        }
    }

    fn deliver_one(&mut self, cause: u64, node: NodeId, env: Envelope) {
        // Specialised dispatch for the dominant event kind: one slab index
        // covers the liveness check, the endpoint lookup, and the callback
        // itself.
        let now = self.now;
        let trace_on = self.trace.is_enabled();
        let port = env.dst.port;
        let Some(slot) = self.slots.get(node) else {
            self.stats.dropped += 1;
            return;
        };
        let mut fx = self.scratch_fx.take().unwrap_or_default();
        {
            let n = &mut self.nodes[slot];
            // The destination may have died after the send was judged.
            if n.dead || self.fault.is_dead(env.dst.node) {
                self.scratch_fx = Some(fx);
                self.stats.dropped += 1;
                return;
            }
            self.stats.delivered += 1;
            let Some(i) = n.ep_slot(port) else {
                self.scratch_fx = Some(fx);
                if trace_on {
                    self.trace.push(
                        now,
                        PHASE_EVENT,
                        cause,
                        node,
                        format!("engine: no endpoint for port {port:?}"),
                    );
                }
                return;
            };
            let SimNode {
                info,
                cpu,
                endpoints,
                rng,
                ..
            } = n;
            let ep = &mut endpoints[i].1;
            cpu.advance(now);
            let mut ctx = HostCtx {
                now,
                info,
                load: cpu.load(),
                cpu,
                port,
                trace_on,
                rng,
                fx: &mut fx,
            };
            ep.on_envelope(env, &mut ctx);
        }
        self.apply_effects(slot, port, PHASE_EVENT, cause, &mut fx);
        self.scratch_fx = Some(fx);
    }

    /// Slab slot of `node` if it exists and is alive.
    #[inline]
    fn live_slot(&self, node: NodeId) -> Option<usize> {
        self.slots.get(node).filter(|&s| !self.nodes[s].dead)
    }

    /// Whether a timer entry popped at `(at_us, cause)` for `node` is that
    /// node's earliest pending timer — and so not a cancelled one.
    #[inline]
    fn timer_is_due(&self, node: NodeId, at_us: u64, cause: u64) -> bool {
        self.slots.get(node).is_some_and(|s| {
            self.nodes[s]
                .timers
                .last()
                .is_some_and(|t| t.at_us == at_us && t.cause == cause)
        })
    }

    /// Give the earliest pending timer of the node in `slot` its queue
    /// entry, unless it has one. A timer targets the node that armed it:
    /// always intra-shard.
    fn queue_earliest_timer(&mut self, slot: usize) {
        let n = &mut self.nodes[slot];
        let Some(t) = n.timers.last_mut().filter(|t| !t.queued) else {
            return;
        };
        t.queued = true;
        let kind = EventKind::Timer {
            port: t.port,
            token: t.token,
        };
        let node = n.info.node;
        self.events.push(t.at_us, t.cause, Event { node, kind });
    }

    fn schedule_cpu_check(&mut self, node: NodeId) {
        let now = self.now;
        let next = self.slots.get(node).and_then(|s| {
            let n = &mut self.nodes[s];
            n.cpu
                .next_completion(now)
                .map(|(_, at)| (at, n.cpu.generation, n.next_cause()))
        });
        if let Some((at, generation, cause)) = next {
            // A CPU check targets the node itself: always intra-shard.
            self.events.push(
                at,
                cause,
                Event {
                    node,
                    kind: EventKind::CpuCheck { generation },
                },
            );
        }
    }

    /// Run one callback of the endpoint on `port` of the node in `slot` and
    /// apply its effects. `(tphase, tcause)` key any trace lines the
    /// callback emits.
    fn dispatch(
        &mut self,
        slot: usize,
        port: PortId,
        tphase: u8,
        tcause: u64,
        f: impl FnOnce(&mut dyn Endpoint, &mut dyn Host),
    ) {
        let now = self.now;
        let trace_on = self.trace.is_enabled();
        // Lend the shared scratch buffers to this callback; drained on
        // apply, returned below with their capacity intact. (apply_effects
        // never re-enters dispatch, so one scratch instance suffices.)
        let mut fx = self.scratch_fx.take().unwrap_or_default();
        {
            let node = &mut self.nodes[slot];
            let Some(i) = node.ep_slot(port) else {
                self.scratch_fx = Some(fx);
                return;
            };
            // Disjoint field borrows: the endpoint (mut) runs against its
            // node's info/cpu (shared) and rng (mut) with no clones and
            // without moving it out of the table.
            let SimNode {
                info,
                cpu,
                endpoints,
                rng,
                ..
            } = node;
            let ep = &mut endpoints[i].1;
            cpu.advance(now);
            let mut ctx = HostCtx {
                now,
                info,
                load: cpu.load(),
                cpu,
                port,
                trace_on,
                rng,
                fx: &mut fx,
            };
            f(ep.as_mut(), &mut ctx);
        }
        self.apply_effects(slot, port, tphase, tcause, &mut fx);
        self.scratch_fx = Some(fx);
    }

    /// Apply what the callback of `port` on the node in `slot` issued.
    fn apply_effects(
        &mut self,
        slot: usize,
        port: PortId,
        tphase: u8,
        tcause: u64,
        fx: &mut Effects,
    ) {
        let now = self.now;
        let node_id = self.nodes[slot].info.node;
        for line in fx.logs.drain(..) {
            self.trace.push(now, tphase, tcause, node_id, line);
        }
        if !fx.timer_ops.is_empty() {
            let n = &mut self.nodes[slot];
            for op in fx.timer_ops.drain(..) {
                match op {
                    TimerOp::Set(delay, token) => n.arm_timer(now + delay, port, token),
                    TimerOp::Cancel(token) => {
                        n.timers.retain(|t| t.port != port || t.token != token)
                    }
                }
            }
            self.queue_earliest_timer(slot);
        }
        if !fx.work_ops.is_empty() {
            let n = &mut self.nodes[slot];
            n.cpu.advance(now);
            for op in fx.work_ops.drain(..) {
                match op {
                    WorkOp::Start(pid, mops) => n.cpu.add_job((port, pid), mops),
                    WorkOp::Cancel(pid) => {
                        n.cpu.remove_job((port, pid));
                    }
                }
            }
            self.schedule_cpu_check(node_id);
        }
        if fx.sends.is_empty() {
            return;
        }
        let mut pending = PendingDelivery::None;
        // Every per-send draw — cause key(s), fault verdict —
        // comes from the *executing* node's counters and link RNG, in the
        // node's own execution order. That order is identical for any shard
        // layout, which is what makes the whole run shard-invariant.
        for (src, dst, payload, category) in fx.sends.drain(..) {
            let n = &mut self.nodes[slot];
            let cause = n.next_cause();
            let verdict = self.fault.judge(src.node, dst.node, &mut n.link_rng);
            // A duplicate verdict needs a second ordering key (the two
            // copies may land at the same microsecond); drawn only then, so
            // counters advance identically on every layout.
            let cause2 = matches!(verdict, Delivery::Duplicate { .. }).then(|| n.next_cause());
            self.route_send(
                src,
                dst,
                payload,
                category,
                cause,
                cause2,
                verdict,
                &mut pending,
            );
        }
        self.flush_delivery(pending);
    }

    #[allow(clippy::too_many_arguments)]
    fn route_send(
        &mut self,
        src: Addr,
        dst: Addr,
        payload: Bytes,
        category: MsgCategory,
        cause: u64,
        cause2: Option<u64>,
        verdict: Delivery,
        pending: &mut PendingDelivery,
    ) {
        let env = Envelope::new(src, dst, payload);
        self.stats.sent += 1;
        let wire_size = env.wire_size();
        self.stats.bytes_sent += wire_size as u64;
        self.stats.heartbeats_sent += u64::from(category == MsgCategory::Heartbeat);
        let base = self.topology.latency_us(src.node, dst.node, wire_size);
        match verdict {
            Delivery::Drop => self.stats.dropped += 1,
            Delivery::Deliver { extra_delay_us } => {
                let at = self.now + base + extra_delay_us;
                // Coalesce with the previous deliverable send when both land
                // on the same node at the same instant: their causes are
                // consecutive draws from this node's counter (nothing else
                // can order between them), so one batched entry keyed by the
                // first cause fires in identical order.
                *pending = match std::mem::replace(pending, PendingDelivery::None) {
                    PendingDelivery::None => PendingDelivery::One(at, cause, dst.node, env),
                    PendingDelivery::One(pat, pcause, pnode, penv)
                        if pat == at && pnode == dst.node =>
                    {
                        // Reuse a drained batch buffer if one is parked.
                        let mut envs = self.batch_pool.pop().unwrap_or_default();
                        envs.push(penv);
                        envs.push(env);
                        PendingDelivery::Many(at, pcause, pnode, envs)
                    }
                    PendingDelivery::Many(pat, pcause, pnode, mut envs)
                        if pat == at && pnode == dst.node =>
                    {
                        envs.push(env);
                        PendingDelivery::Many(pat, pcause, pnode, envs)
                    }
                    other => {
                        self.flush_delivery(other);
                        PendingDelivery::One(at, cause, dst.node, env)
                    }
                };
            }
            Delivery::Duplicate {
                first_us,
                second_us,
            } => {
                // Flush first so ordering matches the serial (unbatched)
                // push sequence exactly.
                self.flush_delivery(std::mem::replace(pending, PendingDelivery::None));
                self.stats.duplicated += 1;
                self.push_or_remote(
                    self.now + base + first_us,
                    cause,
                    dst.node,
                    EventKind::Deliver(env.clone()),
                );
                self.push_or_remote(
                    self.now + base + second_us,
                    cause2.expect("duplicate verdict drew a second cause"),
                    dst.node,
                    EventKind::Deliver(env),
                );
            }
        }
    }

    fn flush_delivery(&mut self, pending: PendingDelivery) {
        match pending {
            PendingDelivery::None => {}
            PendingDelivery::One(at, cause, node, env) => {
                self.push_or_remote(at, cause, node, EventKind::Deliver(env));
            }
            PendingDelivery::Many(at, cause, node, envs) => {
                self.push_or_remote(at, cause, node, EventKind::DeliverBatch(envs));
            }
        }
    }

    /// Route a new event to its owning shard: the local queue, or the
    /// outbox for exchange at the window barrier. The assert is the
    /// conservative-barrier invariant — network latency ≥ lookahead
    /// guarantees a cross-shard event never lands inside the window that
    /// produced it (`window_end` is `u64::MAX` outside windows).
    fn push_or_remote(&mut self, at_us: u64, cause: u64, node: NodeId, kind: EventKind) {
        let owner = shard_of(node, self.total);
        if owner == self.index {
            self.events.push(at_us, cause, Event { node, kind });
        } else {
            assert!(
                self.window_end == u64::MAX || at_us >= self.window_end,
                "cross-shard event at {at_us}µs inside its own window (end {}µs)",
                self.window_end
            );
            self.outboxes[owner].push(RemoteEvent {
                at_us,
                cause,
                ev: Event { node, kind },
            });
        }
    }
}
