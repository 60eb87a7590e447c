//! The two passes of a run: the timed pass (`--trace 0`, end-to-end
//! metrics, tracing off) and the traced pass (`--trace 1`, per-layer
//! metrics plus the consistency checks that need a second run).

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::probe;
use crate::report::{self, RunResult};
use crate::stats::{median, p90, quartiles, supports_quantile};
use crate::storm::StormDense;
use crate::trace::{self, Kind, Tracer, KIND_NAMES};
use crate::workload::{Batch, Opts, Workload};

/// Set-ups per timed run; `setup_s` is their median.
const SETUPS: usize = 7;

/// What a run was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    pub seed: u64,
    pub seconds: u64,
    /// A tenth of the ops per slice: smoke runs only.
    pub quick: bool,
}

fn slice_ops<W: Workload>(req: Request) -> u64 {
    // A replaying workload's slices tile its input set; they stay whole.
    if req.quick && !W::REPLAYS {
        (W::SLICE_OPS / 10).max(1)
    } else {
        W::SLICE_OPS
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The timed pass: set up several times, then run fixed-size slices until
/// `seconds` have passed (and at least `SIM_SLICES` are done).
pub fn timed<W: Workload>(req: Request) -> RunResult {
    let ops = slice_ops::<W>(req);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut w = None;
    for _ in 0..SETUPS {
        drop(w.take());
        let c0 = probe::thread_cpu_ns();
        w = Some(W::setup(req.seed, Opts::TIMED));
        setups.push((probe::thread_cpu_ns() - c0) as f64 / 1e9);
    }
    let mut w = w.expect("SETUPS > 0");

    let window = Duration::from_secs(req.seconds);
    let (_, wait0) = probe::schedstat();
    let start = Instant::now();
    let mut rates = Vec::new();
    let mut prefix = Batch::default();
    let mut program_wall_ns = 0;
    // What each slice of the prefix simulated; a replaying workload must
    // simulate exactly that again every `SIM_SLICES` slices later.
    let mut seen = Vec::with_capacity(W::SIM_SLICES);
    let mut replays_equal = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut peak_rss = 0.0;
    loop {
        let b = w.run(ops);
        rates.push(b.events_per_cpu_s());
        program_wall_ns += b.wall_ns;
        attempted += b.sim.ops;
        failed += b.sim.failed;
        if seen.len() < W::SIM_SLICES {
            prefix.absorb(&b);
            seen.push(b.sim);
            if seen.len() == W::SIM_SLICES {
                peak_rss = probe::peak_rss_mib();
            }
        } else if W::REPLAYS {
            replays_equal &= seen[(rates.len() - 1) % W::SIM_SLICES] == b.sim;
        }
        if seen.len() == W::SIM_SLICES && start.elapsed() >= window {
            break;
        }
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    let (_, wait1) = probe::schedstat();

    let mut complaints = Vec::new();
    if failed > 0 {
        complaints.push(format!("{failed} of {attempted} ops failed their check"));
    }
    if !replays_equal {
        complaints.push("slices replaying the same seeds produced different counters".into());
        failed = attempted;
    }
    let s = &prefix.sim;
    let events_per_op = ratio(s.events, s.ops);
    let rate = quartiles(&rates);
    let mut r = RunResult {
        workload: W::NAME,
        correct: complaints.is_empty(),
        attempted,
        failed,
        metrics: Vec::new(),
        extras: vec![
            (
                "ops_per_s.median_slice",
                "op/s",
                rate.median / events_per_op,
            ),
            ("ops_per_s.q1_slice", "op/s", rate.q1 / events_per_op),
            ("ops_per_s.q3_slice", "op/s", rate.q3 / events_per_op),
            ("ops_per_s.slices", "count", rate.n as f64),
            (
                "ops_per_wall_s",
                "op/s",
                attempted as f64 / (program_wall_ns as f64 / 1e9),
            ),
            ("harness.slice_iqr_ratio", "ratio", rate.iqr_ratio()),
            (
                "harness.runq_wait_share",
                "ratio",
                ratio(wait1 - wait0, wall_ns),
            ),
            (
                "sim_alloc_latency.samples",
                "count",
                s.latency_us.n() as f64,
            ),
            ("sim_makespan.samples", "count", s.makespan_us.n() as f64),
            (
                "sim_alloc_latency_us_p99",
                "us",
                s.latency_us.quantile(0.99),
            ),
            ("sim_makespan_s_p50", "s", s.makespan_us.quantile(0.5) / 1e6),
            ("sim.events_per_op", "count", events_per_op),
            ("allocs_per_op", "count", ratio(prefix.allocs, s.ops)),
        ],
        complaints,
    };
    r.set_metrics(
        report::END_TO_END,
        &[
            ("setup_s", median(&setups)),
            ("ops_per_s", p90(&rates) / events_per_op),
            ("peak_rss_mb", peak_rss),
            ("sim_msgs_per_op", ratio(s.net.sent, s.ops)),
            ("sim_bytes_per_op", ratio(s.net.bytes, s.ops)),
            ("sim_alloc_latency_us_p50", s.latency_us.quantile(0.5)),
            ("sim_makespan_s_mean", s.makespan_us.mean() / 1e6),
        ],
    );
    r
}

/// Run `slices` slices of `ops` on a fresh instance; returns the total,
/// the per-slice rates and the instance. A traced run leaves its spans —
/// without those of set-up and warm-up — for `trace::finish`.
fn run_slices<W: Workload>(
    req: Request,
    opts: Opts,
    ops: u64,
    slices: u64,
) -> (Batch, Vec<f64>, W) {
    if opts.traced {
        trace::start();
    }
    let mut w = W::setup(req.seed, opts);
    if opts.traced {
        trace::start();
    }
    let mut total = Batch::default();
    let mut rates = Vec::new();
    for _ in 0..slices {
        let b = w.run(ops);
        rates.push(b.events_per_cpu_s());
        total.absorb(&b);
    }
    (total, rates, w)
}

fn median_us(ns: &[u64]) -> f64 {
    if ns.is_empty() {
        0.0
    } else {
        median(&ns.iter().map(|&n| n as f64 / 1e3).collect::<Vec<_>>())
    }
}

/// The traced pass. Runs the same ops three ways — bare (the reference),
/// decorated (the spans), and recorded at one and two shards — and checks
/// that all of them simulate exactly the same thing.
pub fn traced<W: Workload>(req: Request) -> RunResult {
    let ops = slice_ops::<W>(req);
    // Two fifths of the timed pass's prefix: ≈2 s bare, a few times that
    // decorated.
    let slices = (2 * W::SIM_SLICES as u64).div_ceil(5);
    let mut complaints = Vec::new();

    // Bare reference, with the footprint of one set-up.
    let rss0 = probe::rss_bytes();
    let (_, wait0) = probe::schedstat();
    let t0 = Instant::now();
    let (reference, rates, w) = run_slices::<W>(req, Opts::TIMED, ops, slices);
    let ref_wall = t0.elapsed().as_nanos() as u64;
    let (_, wait1) = probe::schedstat();
    let nodes = w.nodes();
    let rss_per_node = (probe::rss_bytes().saturating_sub(rss0)) as f64 / nodes as f64;
    let scripts = w.scripts();
    drop(w);

    // Decorated: same ops, spans on.
    let (spans, _, w) = run_slices::<W>(
        req,
        Opts {
            traced: true,
            ..Opts::TIMED
        },
        ops,
        slices,
    );
    let tracer = trace::finish();
    drop(w);
    if spans.sim != reference.sim {
        complaints.push("traced pass simulated something else than the untraced pass".into());
    }

    // Recorded, one and two shards: state hashes must agree.
    let probe_ops = if req.quick {
        (W::PROBE_OPS / 4).max(1)
    } else {
        W::PROBE_OPS
    };
    let recorded = |shards: usize, record: bool| {
        let opts = Opts {
            traced: false,
            shards,
            record,
            fine_steps: true,
        };
        let (b, _, w) = run_slices::<W>(req, opts, probe_ops, 1);
        (b, w.finish())
    };
    let (plain, _) = recorded(1, false);
    let (one, rec_one) = recorded(1, true);
    let (two, rec_two) = recorded(2, true);
    let shards_identical = rec_one == rec_two && one.sim == two.sim && one.sim == plain.sim;
    if !shards_identical {
        complaints.push("shards=1 and shards=2 recordings differ".into());
    }

    // The dense storm's cost per event, as the base of the slide ratio
    // (the same upper-decile slice rate on both sides: the box is shared).
    let (_, dense_rates, _) =
        run_slices::<StormDense>(req, Opts::TIMED, slice_ops::<StormDense>(req), 20);

    let (append_ns, recover_ns) = probe::storage_ns();
    let failed = reference.sim.failed + spans.sim.failed;
    let attempted = reference.sim.ops + spans.sim.ops;
    if failed > 0 {
        complaints.push(format!("{failed} of {attempted} ops failed their check"));
    }
    if tracer.msgs.undecodable > 0 {
        complaints.push(format!("{} undecodable payloads", tracer.msgs.undecodable));
    }

    let a = |k: Kind| tracer.agg[k as usize];
    let per = |k: Kind| ratio(a(k).self_ns, a(k).count);
    let self_sum = tracer.self_sum_ns();
    let share = |ns: u64| ratio(ns, self_sum);
    let s = &reference.sim;
    let cpu = [
        Kind::HostStartWork,
        Kind::HostCancelWork,
        Kind::HostWorkRemaining,
    ];
    let timers = [Kind::HostSetTimer, Kind::HostCancelTimer];
    let sum = |ks: &[Kind], f: fn(trace::Agg) -> u64| ks.iter().map(|&k| f(a(k))).sum::<u64>();
    let dur = |k: Kind| median_us(&tracer.durations[k as usize]);
    let exm_self = a(Kind::HandlerDaemon).self_ns + a(Kind::HandlerExecutor).self_ns;
    let evict_ms: Vec<f64> = spans.watch.evict_ms.iter().map(|&m| m as f64).collect();

    // The p99 is only reported where ten samples lie beyond it.
    let p99 = if supports_quantile(s.latency_us.n() as usize, 0.99) {
        s.latency_us.quantile(0.99)
    } else {
        0.0
    };
    let values = [
        ("allocs_per_op", ratio(reference.allocs, s.ops)),
        ("failed_ops_share", ratio(failed, attempted)),
        ("sim_alloc_latency_us_p99", p99),
        ("sim_makespan_s_p50", s.makespan_us.quantile(0.5) / 1e6),
        (
            "harness.trace_overhead_ratio",
            ratio(spans.cpu_ns, reference.cpu_ns),
        ),
        (
            "harness.span_sum_ratio",
            ratio(self_sum, tracer.lifetime_ns),
        ),
        ("harness.span_cost_ns", trace::span_cost_ns()),
        ("harness.runq_wait_share", ratio(wait1 - wait0, ref_wall)),
        ("harness.slice_iqr_ratio", quartiles(&rates).iqr_ratio()),
        (
            "harness.self_ns_per_op",
            ratio(a(Kind::HandlerHarness).self_ns, s.ops),
        ),
        ("sim.events_per_op", ratio(s.events, s.ops)),
        ("sim.events_per_s", p90(&rates)),
        (
            "sim.engine_self_ns_per_event",
            ratio(a(Kind::SimRun).self_ns, s.events),
        ),
        ("sim.engine_share", share(a(Kind::SimRun).self_ns)),
        ("sim.host_send_ns_per_msg", per(Kind::HostSend)),
        (
            "sim.timer_set_per_op",
            ratio(a(Kind::HostSetTimer).count, s.ops),
        ),
        (
            "sim.timer_cancel_per_op",
            ratio(a(Kind::HostCancelTimer).count, s.ops),
        ),
        (
            "sim.timer_ns_per_call",
            ratio(sum(&timers, |x| x.self_ns), sum(&timers, |x| x.count)),
        ),
        ("sim.cpu_calls_per_op", ratio(sum(&cpu, |x| x.count), s.ops)),
        (
            "sim.cpu_ns_per_call",
            ratio(sum(&cpu, |x| x.self_ns), sum(&cpu, |x| x.count)),
        ),
        (
            "sim.queue_hold_ns_per_op",
            probe::queue_hold_ns(2 * nodes, req.seed),
        ),
        ("sim.fleet_slide_ratio", p90(&dense_rates) / p90(&rates)),
        ("sim.rss_bytes_per_node", rss_per_node),
        ("sim.shards2_speedup", ratio(one.wall_ns, two.wall_ns)),
        (
            "sim.shards2_identical",
            f64::from(u8::from(shards_identical)),
        ),
        ("sim.record_overhead_ratio", ratio(one.cpu_ns, plain.cpu_ns)),
        (
            "sim.record_bytes_per_event",
            ratio(rec_one.bytes, rec_one.events),
        ),
        (
            "codec.encode_calls_per_op",
            ratio(a(Kind::HostEncode).count, s.ops),
        ),
        ("codec.encode_ns_per_call", per(Kind::HostEncode)),
        ("codec.decode_ns_per_msg", per(Kind::Classify)),
        ("codec.bytes_per_msg", ratio(s.net.bytes, s.net.sent)),
        (
            "codec.roundtrip_ok_share",
            ratio(tracer.msgs.roundtrip_ok, tracer.msgs.roundtrip_checked),
        ),
        ("net.msgs_per_op", ratio(s.net.sent, s.ops)),
        ("net.heartbeat_share", ratio(s.net.heartbeats, s.net.sent)),
        ("net.delivered_share", ratio(s.net.delivered, s.net.sent)),
        ("net.dropped_share", ratio(s.net.dropped, s.net.sent)),
        ("net.duplicated_share", ratio(s.net.duplicated, s.net.sent)),
        ("isis.handler_ns_per_event", per(Kind::HandlerIsis)),
        ("isis.handler_share", share(a(Kind::HandlerIsis).self_ns)),
        ("isis.heartbeats_per_op", ratio(s.net.heartbeats, s.ops)),
        ("isis.casts_per_op", ratio(tracer.msgs.casts, s.ops)),
        (
            "isis.view_installs_per_op",
            ratio(tracer.msgs.view_installs, s.ops),
        ),
        (
            "isis.evict_sim_ms_p50",
            if evict_ms.is_empty() {
                0.0
            } else {
                median(&evict_ms)
            },
        ),
        (
            "isis.false_evictions_per_op",
            ratio(spans.watch.false_evictions, s.ops),
        ),
        ("exm.daemon_handler_ns_per_event", per(Kind::HandlerDaemon)),
        (
            "exm.executor_handler_ns_per_event",
            per(Kind::HandlerExecutor),
        ),
        ("exm.handler_share", share(exm_self)),
        ("exm.requests_per_op", ratio(s.requests, s.ops)),
        ("exm.grants_per_request", ratio(s.grants, s.requests)),
        ("exm.retries_per_op", ratio(s.retries, s.ops)),
        ("exm.migrations_per_op", ratio(s.migrations, s.ops)),
        ("exm.evictions_per_op", ratio(s.evictions, s.ops)),
        ("exm.wal_journal_ns_per_record", probe::wal_journal_ns()),
        ("storage.append_ns_per_record", append_ns),
        ("storage.recover_ns_per_record", recover_ns),
        ("storage.recoveries_per_op", ratio(s.recoveries, s.ops)),
        (
            "storage.replayed_per_recovery",
            ratio(s.replayed, s.recoveries),
        ),
        ("storage.prefix_ok_share", ratio(s.prefix_ok, s.recoveries)),
        ("script.parse_us_p50", probe::script_parse_us(&scripts)),
        ("core.fleet_build_us_p50", dur(Kind::FleetBuild)),
        ("core.app_build_us_p50", dur(Kind::AppBuild)),
        ("core.submit_us_p50", dur(Kind::Submit)),
        ("core.settle_ms_p50", dur(Kind::Settle) / 1e3),
        ("core.report_us_p50", dur(Kind::Report)),
    ];

    let trace_file = write_trace::<W>(req, &tracer);
    let mut r = RunResult {
        workload: W::NAME,
        correct: complaints.is_empty(),
        attempted,
        failed: if complaints.is_empty() {
            0
        } else {
            failed.max(1)
        },
        metrics: Vec::new(),
        extras: vec![
            ("harness.traced_ops", "count", spans.sim.ops as f64),
            (
                "harness.unevicted_kills",
                "count",
                spans.watch.unevicted as f64,
            ),
            ("harness.spans_logged", "count", tracer.spans.len() as f64),
        ],
        complaints,
    };
    if let Err(e) = trace_file {
        r.complaints
            .push(format!("could not write the trace file: {e}"));
        r.correct = false;
    }
    r.set_metrics(report::PER_LAYER, &values);
    r
}

/// Where run products go: `out/` beside this package's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Write the spans kept in memory to `out/trace-<workload>.json`.
fn write_trace<W: Workload>(req: Request, t: &Tracer) -> std::io::Result<()> {
    let mut s = String::with_capacity(64 + t.spans.len() * 48);
    let _ = write!(
        s,
        "{{\"workload\": \"{}\", \"seed\": {}, \"unit\": \"ns\", \"kinds\": [",
        W::NAME,
        req.seed
    );
    for (i, k) in KIND_NAMES.iter().enumerate() {
        let _ = write!(s, "{}\"{k}\"", if i > 0 { ", " } else { "" });
    }
    s.push_str("],\n\"aggregates\": [");
    for (i, a) in t.agg.iter().enumerate() {
        let _ = write!(
            s,
            "{}\n  {{\"kind\": \"{}\", \"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
            if i > 0 { "," } else { "" },
            KIND_NAMES[i],
            a.count,
            a.total_ns,
            a.self_ns
        );
    }
    let m = &t.msgs;
    let _ = write!(
        s,
        "],\n\"messages\": {{\"envelopes\": {}, \"undecodable\": {}, \"heartbeats\": {}, \
         \"casts\": {}, \"view_installs\": {}, \"roundtrip_checked\": {}, \"roundtrip_ok\": {}}},\n\
         \"span_columns\": [\"kind\", \"start_ns\", \"end_ns\", \"parent\", \"op\"],\n\"spans\": [",
        m.envelopes,
        m.undecodable,
        m.heartbeats,
        m.casts,
        m.view_installs,
        m.roundtrip_checked,
        m.roundtrip_ok
    );
    for (i, sp) in t.spans.iter().enumerate() {
        let _ = write!(
            s,
            "{}\n  [{}, {}, {}, {}, {}]",
            if i > 0 { "," } else { "" },
            sp.kind as u8,
            sp.start_ns,
            sp.end_ns,
            sp.parent.map_or(-1, i64::from),
            sp.op
        );
    }
    s.push_str("\n]}\n");
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    std::fs::write(dir.join(format!("trace-{}.json", W::NAME)), s)
}
