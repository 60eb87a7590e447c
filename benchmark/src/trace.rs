//! The traced pass's instrumentation, recorded from outside the program.
//!
//! Everything that names an [`Endpoint`] or [`Host`] method lives in this
//! file, so a later change can swap these decorators for spans recorded
//! inside the program without touching the workloads.
//!
//! Two decorators sit at the two public boundaries the design already has:
//! [`Traced`] wraps an endpoint (`Sim::run_until` → `Endpoint::on_*`) and
//! [`TracedHost`] wraps the `&mut dyn Host` that endpoint is handed
//! (`Endpoint::on_*` → `Host::*`). Each call becomes a span — kind, start,
//! end, parent, op id — on a thread-local [`Tracer`]; the workloads add the
//! spans around their own driver calls (`Sim::run_until`, `Vce::submit`, …).
//!
//! A span's *self time* is its duration minus the part its child spans
//! cover. Spans nest strictly (one thread, no overlap), so the per-kind
//! self times of a pass add up to the duration of its top-level spans.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::time::Instant;

use bytes::Bytes;
use vce_exm::ExmMsg;
use vce_isis::IsisMsg;
use vce_net::{Addr, Endpoint, Envelope, Host, MachineInfo, MsgCategory};

/// What a span covers. The order is the order of the trace file's
/// `kinds` table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// One benchmark operation (wave batch, round batch, application).
    Op,
    /// Building a fleet: `Sim::new`, `add_node*`, `add_endpoint`.
    FleetBuild,
    /// Group formation (`Vce::settle`); encloses a `SimRun`.
    Settle,
    /// `Application::from_graph` / `from_script`.
    AppBuild,
    /// Staging binaries and adding the executor endpoint.
    Submit,
    /// Collecting the run report from executor and daemons.
    Report,
    /// `Sim::run_until`; its self time is the engine's.
    SimRun,
    /// The decorator decoding an envelope to classify its handler; also the
    /// `codec.decode_ns_per_msg` sample.
    Classify,
    /// Handler for an `ExmMsg::Isis` envelope or an Isis-token timer.
    HandlerIsis,
    /// Any other daemon handler.
    HandlerDaemon,
    /// Executor handler.
    HandlerExecutor,
    /// Handler of one of the benchmark's own endpoints (storm peer, client).
    HandlerHarness,
    /// `Host::encode_with`: encoder plus the net buffer pool.
    HostEncode,
    /// `Host::send` / `send_category`.
    HostSend,
    /// `Host::set_timer`.
    HostSetTimer,
    /// `Host::cancel_timer`.
    HostCancelTimer,
    /// `Host::start_work`.
    HostStartWork,
    /// `Host::cancel_work`.
    HostCancelWork,
    /// `Host::work_remaining`.
    HostWorkRemaining,
    /// `Host::load`.
    HostLoad,
    /// `Host::rand_u64`.
    HostRand,
}

/// Number of [`Kind`] variants.
pub const KINDS: usize = Kind::HostRand as usize + 1;

/// Names of the kinds, indexed by discriminant (the trace file's table).
pub const KIND_NAMES: [&str; KINDS] = [
    "op",
    "core.fleet_build",
    "core.settle",
    "core.app_build",
    "core.submit",
    "core.report",
    "sim.run_until",
    "trace.classify",
    "handler.isis",
    "handler.exm_daemon",
    "handler.exm_executor",
    "handler.harness",
    "host.encode_with",
    "host.send",
    "host.set_timer",
    "host.cancel_timer",
    "host.start_work",
    "host.cancel_work",
    "host.work_remaining",
    "host.load",
    "host.rand_u64",
];

/// One finished span, kept in full for the first ops ([`LOG_OPS`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index into the span log of the enclosing span, if that was logged.
    pub parent: Option<u32>,
    /// The operation this span belongs to.
    pub op: u64,
}

/// Count and time totals of one span kind over the whole pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    kind: Kind,
    start_ns: u64,
    child_ns: u64,
    /// Slot reserved in the span log (so children can name their parent).
    log_idx: Option<u32>,
}

/// Message counts the [`Traced`] decorator sees while classifying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgCounts {
    pub envelopes: u64,
    pub undecodable: u64,
    pub heartbeats: u64,
    pub casts: u64,
    pub view_installs: u64,
    pub roundtrip_checked: u64,
    pub roundtrip_ok: u64,
}

impl MsgCounts {
    const ZERO: Self = Self {
        envelopes: 0,
        undecodable: 0,
        heartbeats: 0,
        casts: 0,
        view_installs: 0,
        roundtrip_checked: 0,
        roundtrip_ok: 0,
    };
}

/// Full spans are kept for the first ops only: at most this many ops …
pub const LOG_OPS: u64 = 200;
/// … and at most this many spans (one fleet-storm wave alone has 370,000).
pub const LOG_SPANS: usize = 50_000;

/// The in-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    op: u64,
    /// Full spans are kept while this holds; aggregates always.
    logging: bool,
    open: Vec<Open>,
    pub agg: [Agg; KINDS],
    pub spans: Vec<Span>,
    /// Every duration of the driver-level kinds (those before
    /// [`Kind::SimRun`]), for medians; they are few per op.
    pub durations: [Vec<u64>; Kind::SimRun as usize],
    pub msgs: MsgCounts,
    /// Wall time from [`start`] to [`finish`], ns.
    pub lifetime_ns: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            op: 0,
            logging: true,
            open: Vec::with_capacity(8),
            agg: [Agg::default(); KINDS],
            spans: Vec::new(),
            durations: Default::default(),
            msgs: MsgCounts::ZERO,
            lifetime_ns: 0,
        }
    }

    /// Spans from now on belong to `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
        self.logging = op < LOG_OPS;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span at `t`.
    pub fn enter_at(&mut self, kind: Kind, t: u64) {
        let log_idx = (self.logging && self.spans.len() < LOG_SPANS).then(|| {
            let parent = self.open.last().and_then(|o| o.log_idx);
            self.spans.push(Span {
                kind,
                start_ns: t,
                end_ns: t,
                parent,
                op: self.op,
            });
            (self.spans.len() - 1) as u32
        });
        self.open.push(Open {
            kind,
            start_ns: t,
            child_ns: 0,
            log_idx,
        });
    }

    /// Close the innermost open span at `t`.
    pub fn exit_at(&mut self, t: u64) {
        let o = self.open.pop().expect("exit without a matching enter");
        let dur = t - o.start_ns;
        let a = &mut self.agg[o.kind as usize];
        a.count += 1;
        a.total_ns += dur;
        a.self_ns += dur - o.child_ns;
        if let Some(d) = self.durations.get_mut(o.kind as usize) {
            d.push(dur);
        }
        if let Some(p) = self.open.last_mut() {
            p.child_ns += dur;
        }
        if let Some(i) = o.log_idx {
            self.spans[i as usize].end_ns = t;
        }
    }

    /// Sum of self times over every kind — equals the total duration of the
    /// top-level spans once all spans are closed.
    pub fn self_sum_ns(&self) -> u64 {
        self.agg.iter().map(|a| a.self_ns).sum()
    }
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
    /// Kept beside the tracer, not in it, so classifying an envelope does
    /// not borrow the tracer while the decode runs.
    static MSGS: Cell<MsgCounts> = const { Cell::new(MsgCounts::ZERO) };
}

/// Install a fresh tracer on this thread (replacing any other).
pub fn start() {
    TRACER.with(|t| *t.borrow_mut() = Some(Tracer::new()));
    MSGS.set(MsgCounts::ZERO);
}

/// Remove and return this thread's tracer, with the message counts.
pub fn finish() -> Tracer {
    let mut t = TRACER
        .with(|t| t.borrow_mut().take())
        .expect("trace::finish without trace::start");
    t.msgs = MSGS.get();
    t.lifetime_ns = t.now_ns();
    t
}

/// Set the op id that subsequent spans carry.
pub fn set_op(op: u64) {
    with(|t| t.set_op(op));
}

fn with<T>(f: impl FnOnce(&mut Tracer) -> T) -> T {
    TRACER.with(|t| f(t.borrow_mut().as_mut().expect("no tracer installed")))
}

/// Run `f` inside a span of `kind`. The clock is read last on entry and
/// first on exit, so the recorder's own bookkeeping lands in the parent.
pub fn span<T>(kind: Kind, f: impl FnOnce() -> T) -> T {
    with(|t| {
        t.enter_at(kind, 0);
        let now = t.now_ns();
        let o = t.open.last_mut().expect("just pushed");
        o.start_ns = now;
        if let Some(i) = o.log_idx {
            t.spans[i as usize].start_ns = now;
        }
    });
    let out = f();
    with(|t| {
        let now = t.now_ns();
        t.exit_at(now);
    });
    out
}

/// Median cost of one empty span on this host, ns: what every recorded
/// span adds to the pass (part lands in the span itself, part in its
/// parent). Read self times of cheap, frequent spans against it.
pub fn span_cost_ns() -> f64 {
    const SPANS: u32 = 20_000;
    let outer = TRACER.with(|t| t.borrow_mut().take());
    let mut samples = Vec::new();
    for _ in 0..5 {
        start();
        set_op(LOG_OPS); // aggregate only
        let t = Instant::now();
        for _ in 0..SPANS {
            span(Kind::HostLoad, || {});
        }
        samples.push(t.elapsed().as_nanos() as f64 / f64::from(SPANS));
    }
    TRACER.with(|t| *t.borrow_mut() = outer);
    crate::stats::median(&samples)
}

/// Which protocol an endpoint speaks, for handler classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// `DaemonEndpoint`: `ExmMsg` payloads, Isis inside.
    Daemon,
    /// `ExecutorEndpoint`: `ExmMsg` payloads.
    Executor,
    /// The benchmark's allocation client: `ExmMsg` payloads.
    Client,
    /// The benchmark's storm peer: `u64` payloads.
    Storm,
}

impl Role {
    fn handler(self) -> Kind {
        match self {
            Role::Daemon => Kind::HandlerDaemon,
            Role::Executor => Kind::HandlerExecutor,
            Role::Client | Role::Storm => Kind::HandlerHarness,
        }
    }
}

/// Decode `payload` as the role's message type and name the handler span
/// it will run under. Every 16th envelope is re-encoded and compared with
/// the bytes received (`codec.roundtrip_ok_share`).
fn classify(role: Role, payload: &Bytes, counts: &mut MsgCounts) -> Kind {
    counts.envelopes += 1;
    let check = counts.envelopes.is_multiple_of(16);
    if role == Role::Storm {
        match vce_codec::from_backing::<u64>(payload) {
            Ok(v) if check => {
                counts.roundtrip_checked += 1;
                counts.roundtrip_ok += u64::from(vce_codec::to_bytes(&v) == payload[..]);
            }
            Ok(_) => {}
            Err(_) => counts.undecodable += 1,
        }
        return Kind::HandlerHarness;
    }
    let msg = match vce_codec::from_backing::<ExmMsg>(payload) {
        Ok(m) => m,
        Err(_) => {
            counts.undecodable += 1;
            return role.handler();
        }
    };
    if check {
        counts.roundtrip_checked += 1;
        counts.roundtrip_ok += u64::from(vce_codec::to_bytes(&msg) == payload[..]);
    }
    match msg {
        ExmMsg::Isis(m) => {
            match m {
                IsisMsg::Heartbeat { .. } => counts.heartbeats += 1,
                IsisMsg::Cast { .. } => counts.casts += 1,
                IsisMsg::ViewInstall { .. } => counts.view_installs += 1,
                _ => {}
            }
            Kind::HandlerIsis
        }
        _ => role.handler(),
    }
}

/// An endpoint decorator: every callback becomes a handler span, run
/// against a [`TracedHost`]. State inspection (`as_any_mut`) and the
/// snapshot hash pass straight through, so `Sim::with_endpoint_mut::<E>`
/// and `.vct` hashes behave exactly as on the bare endpoint.
pub struct Traced<E> {
    inner: E,
    role: Role,
}

impl<E> Traced<E> {
    pub fn new(inner: E, role: Role) -> Self {
        Self { inner, role }
    }
}

impl<E: Endpoint> Endpoint for Traced<E> {
    fn on_start(&mut self, host: &mut dyn Host) {
        span(self.role.handler(), || {
            self.inner.on_start(&mut TracedHost { inner: host })
        });
    }

    fn on_envelope(&mut self, env: Envelope, host: &mut dyn Host) {
        let role = self.role;
        let kind = span(Kind::Classify, || {
            let mut counts = MSGS.get();
            let kind = classify(role, &env.payload, &mut counts);
            MSGS.set(counts);
            kind
        });
        span(kind, || {
            self.inner.on_envelope(env, &mut TracedHost { inner: host })
        });
    }

    fn on_timer(&mut self, token: u64, host: &mut dyn Host) {
        let kind = if self.role == Role::Daemon && vce_isis::is_isis_token(token) {
            Kind::HandlerIsis
        } else {
            self.role.handler()
        };
        span(kind, || {
            self.inner.on_timer(token, &mut TracedHost { inner: host })
        });
    }

    fn on_work_done(&mut self, pid: u64, host: &mut dyn Host) {
        span(self.role.handler(), || {
            self.inner
                .on_work_done(pid, &mut TracedHost { inner: host })
        });
    }

    fn on_crash(&mut self, host: &mut dyn Host) {
        span(self.role.handler(), || {
            self.inner.on_crash(&mut TracedHost { inner: host })
        });
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
        self.inner.as_any_mut()
    }

    fn snapshot_hash(&self) -> u64 {
        self.inner.snapshot_hash()
    }
}

/// A host decorator: the effectful `Host` calls become spans; the pure
/// accessors (`now_us`, `machine`, `log*`) pass through untimed.
struct TracedHost<'a> {
    inner: &'a mut dyn Host,
}

impl Host for TracedHost<'_> {
    fn now_us(&self) -> u64 {
        self.inner.now_us()
    }
    fn send(&mut self, src: Addr, dst: Addr, payload: Bytes) {
        span(Kind::HostSend, || self.inner.send(src, dst, payload));
    }
    fn send_category(&mut self, src: Addr, dst: Addr, payload: Bytes, category: MsgCategory) {
        span(Kind::HostSend, || {
            self.inner.send_category(src, dst, payload, category)
        });
    }
    fn set_timer(&mut self, delay_us: u64, token: u64) {
        span(Kind::HostSetTimer, || self.inner.set_timer(delay_us, token));
    }
    fn cancel_timer(&mut self, token: u64) {
        span(Kind::HostCancelTimer, || self.inner.cancel_timer(token));
    }
    fn start_work(&mut self, pid: u64, mops: f64) {
        span(Kind::HostStartWork, || self.inner.start_work(pid, mops));
    }
    fn cancel_work(&mut self, pid: u64) {
        span(Kind::HostCancelWork, || self.inner.cancel_work(pid));
    }
    fn work_remaining(&self, pid: u64) -> Option<f64> {
        span(Kind::HostWorkRemaining, || self.inner.work_remaining(pid))
    }
    fn load(&self) -> f64 {
        span(Kind::HostLoad, || self.inner.load())
    }
    fn machine(&self) -> &MachineInfo {
        self.inner.machine()
    }
    fn rand_u64(&mut self) -> u64 {
        span(Kind::HostRand, || self.inner.rand_u64())
    }
    fn log(&mut self, line: String) {
        self.inner.log(line);
    }
    fn log_enabled(&self) -> bool {
        self.inner.log_enabled()
    }
    fn encode_with(&mut self, f: &mut dyn FnMut(&mut vce_codec::Encoder)) -> Bytes {
        span(Kind::HostEncode, || self.inner.encode_with(f))
    }
}

/// Box `ep` for `Sim::add_endpoint`, decorated when `traced`.
pub fn boxed<E: Endpoint + 'static>(ep: E, role: Role, traced: bool) -> Box<dyn Endpoint> {
    if traced {
        Box::new(Traced::new(ep, role))
    } else {
        Box::new(ep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let mut t = Tracer::new();
        // run [0,100) { handler [10,40) { send [15,20), timer [20,25) }, handler [40,90) }
        t.enter_at(Kind::SimRun, 0);
        t.enter_at(Kind::HandlerDaemon, 10);
        t.enter_at(Kind::HostSend, 15);
        t.exit_at(20);
        t.enter_at(Kind::HostSetTimer, 20);
        t.exit_at(25);
        t.exit_at(40);
        t.enter_at(Kind::HandlerDaemon, 40);
        t.exit_at(90);
        t.exit_at(100);
        let a = |k: Kind| t.agg[k as usize];
        assert_eq!(
            a(Kind::SimRun),
            Agg {
                count: 1,
                total_ns: 100,
                self_ns: 20
            }
        );
        assert_eq!(
            a(Kind::HandlerDaemon),
            Agg {
                count: 2,
                total_ns: 80,
                self_ns: 70
            }
        );
        assert_eq!(a(Kind::HostSend).self_ns, 5);
        assert_eq!(a(Kind::HostSetTimer).self_ns, 5);
        // Self times of all kinds add up to the top-level span.
        assert_eq!(t.self_sum_ns(), 100);
    }

    #[test]
    fn span_log_records_parents_and_stops_after_log_ops() {
        let mut t = Tracer::new();
        t.enter_at(Kind::Op, 0);
        t.enter_at(Kind::SimRun, 1);
        t.enter_at(Kind::HandlerIsis, 2);
        t.exit_at(3);
        t.exit_at(4);
        t.exit_at(5);
        t.set_op(LOG_OPS);
        t.enter_at(Kind::Op, 6);
        t.exit_at(7);
        assert_eq!(t.spans.len(), 3, "later ops are aggregated, not logged");
        assert_eq!(t.durations[Kind::Op as usize], vec![5, 1]);
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(1));
        assert_eq!((t.spans[2].start_ns, t.spans[2].end_ns), (2, 3));
        assert_eq!(t.agg[Kind::Op as usize].count, 2);
    }

    #[test]
    fn kind_table_covers_every_kind() {
        assert_eq!(KIND_NAMES.len(), KINDS);
        assert_eq!(KIND_NAMES[Kind::HostRand as usize], "host.rand_u64");
        assert_eq!(KIND_NAMES[Kind::SimRun as usize], "sim.run_until");
    }

    #[test]
    fn classification_names_isis_traffic_and_checks_roundtrip() {
        let mut c = MsgCounts {
            envelopes: 15, // so this one is the 16th and gets re-encoded
            ..MsgCounts::ZERO
        };
        let hb = ExmMsg::Isis(IsisMsg::Heartbeat {
            incarnation: 1,
            view_id: 2,
            view_len: 3,
            joining: false,
            fifo_next: 4,
        });
        let p = Bytes::from(vce_codec::to_bytes(&hb));
        assert_eq!(classify(Role::Daemon, &p, &mut c), Kind::HandlerIsis);
        assert_eq!(
            (c.heartbeats, c.roundtrip_checked, c.roundtrip_ok),
            (1, 1, 1)
        );
        let term = ExmMsg::Terminate {
            app: vce_exm::AppId(9),
        };
        let p = Bytes::from(vce_codec::to_bytes(&term));
        assert_eq!(classify(Role::Daemon, &p, &mut c), Kind::HandlerDaemon);
        assert_eq!(classify(Role::Executor, &p, &mut c), Kind::HandlerExecutor);
        let p = Bytes::from(vce_codec::to_bytes(&7u64));
        assert_eq!(classify(Role::Storm, &p, &mut c), Kind::HandlerHarness);
        assert_eq!(c.undecodable, 0);
        let junk = Bytes::from(vec![0xFFu8; 3]);
        assert_eq!(classify(Role::Client, &junk, &mut c), Kind::HandlerHarness);
        assert_eq!(c.undecodable, 1);
    }
}
