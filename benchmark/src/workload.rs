//! What every workload gives the harness: a set-up, a way to run a fixed
//! number of operations, and the simulated counters of what it ran.

use std::collections::BTreeMap;
use std::time::Instant;

use vce_net::stats::StatsSnapshot;
use vce_sim::Sim;

use crate::probe;
use crate::trace::{self, Kind};

/// How a workload instance is built.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Wrap every endpoint in [`trace::Traced`] and record spans.
    pub traced: bool,
    /// Simulator shards (1 everywhere except the shard-invariance probe).
    pub shards: usize,
    /// Record a `.vct` trace in memory (the state-hash probe).
    pub record: bool,
    /// Drive the simulator in steps short enough that each fits one `.vct`
    /// frame (1 MiB), whether or not this run records — so a recorded run
    /// and its unrecorded baseline differ in the recording alone.
    pub fine_steps: bool,
}

impl Opts {
    /// The timed pass: bare endpoints, one shard, no recording.
    pub const TIMED: Opts = Opts {
        traced: false,
        shards: 1,
        record: false,
        fine_steps: false,
    };
}

/// A distribution of whole-microsecond samples as `value → count`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Dist {
    runs: BTreeMap<u64, u64>,
    n: u64,
}

impl Dist {
    pub fn add(&mut self, value: u64, count: u64) {
        if count > 0 {
            *self.runs.entry(value).or_insert(0) += count;
            self.n += count;
        }
    }

    pub fn merge(&mut self, other: &Dist) {
        for (&v, &c) in &other.runs {
            self.add(v, c);
        }
    }

    pub fn n(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean; 0.0 for an empty distribution.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        self.runs
            .iter()
            .map(|(&v, &c)| v as f64 * c as f64)
            .sum::<f64>()
            / self.n as f64
    }

    /// The `q`-quantile, treating each value `v` as the interval
    /// `[v-0.5, v+0.5)` with its samples spread evenly (grouped-data
    /// quantile): simulated times are whole microseconds, and the plain
    /// order statistic would hide any movement smaller than 1 µs.
    /// 0.0 for an empty distribution.
    pub fn quantile(&self, q: f64) -> f64 {
        let target = q * self.n as f64;
        let mut below = 0u64;
        for (&v, &c) in &self.runs {
            if (below + c) as f64 > target || below + c == self.n {
                return v as f64 - 0.5 + (target - below as f64) / c as f64;
            }
            below += c;
        }
        0.0
    }
}

/// A fixed-bucket histogram an endpoint can fill without allocating.
/// Values at or beyond `base + len - 1` land in the last bucket, which
/// callers treat as an overflow (a failed check) when it is non-empty.
#[derive(Debug, Clone)]
pub struct Hist {
    base: u64,
    counts: Vec<u32>,
}

impl Hist {
    pub fn new(base: u64, buckets: usize) -> Self {
        Self {
            base,
            counts: vec![0; buckets],
        }
    }

    #[inline]
    pub fn record(&mut self, value: u64) {
        let i = (value.saturating_sub(self.base) as usize).min(self.counts.len() - 1);
        self.counts[i] += 1;
    }

    /// Samples that fell off the top of the range.
    pub fn overflow(&self) -> u64 {
        u64::from(*self.counts.last().expect("non-empty"))
    }

    /// Move the counts into `dist` and zero the histogram.
    pub fn drain_into(&mut self, dist: &mut Dist) {
        for (i, c) in self.counts.iter_mut().enumerate() {
            dist.add(self.base + i as u64, u64::from(*c));
            *c = 0;
        }
    }
}

/// Network counters over an interval (from `NetStats::snapshot` deltas).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Net {
    pub sent: u64,
    pub bytes: u64,
    pub delivered: u64,
    pub dropped: u64,
    pub duplicated: u64,
    pub heartbeats: u64,
}

impl Net {
    pub fn delta(before: &StatsSnapshot, after: &StatsSnapshot) -> Self {
        Self {
            sent: after.sent - before.sent,
            bytes: after.bytes_sent - before.bytes_sent,
            delivered: after.delivered - before.delivered,
            dropped: after.dropped - before.dropped,
            duplicated: after.duplicated - before.duplicated,
            heartbeats: after.heartbeats_sent - before.heartbeats_sent,
        }
    }

    pub fn absorb(&mut self, o: &Net) {
        self.sent += o.sent;
        self.bytes += o.bytes;
        self.delivered += o.delivered;
        self.dropped += o.dropped;
        self.duplicated += o.duplicated;
        self.heartbeats += o.heartbeats;
    }
}

/// Simulated — hence exactly repeatable — counters of a batch of ops.
/// Two runs of the same inputs must compare equal, whatever the host,
/// the shard count or the tracing mode.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimCounters {
    pub ops: u64,
    /// Ops that failed their own check (ungranted round, incomplete
    /// application, lost storm message, bad recovery).
    pub failed: u64,
    pub events: u64,
    pub net: Net,
    /// Request→allocation latency samples, µs (see README for the storm
    /// stand-in).
    pub latency_us: Dist,
    /// Op completion time samples, µs.
    pub makespan_us: Dist,
    pub requests: u64,
    pub grants: u64,
    pub retries: u64,
    pub migrations: u64,
    pub evictions: u64,
    pub recoveries: u64,
    pub replayed: u64,
    pub prefix_ok: u64,
}

/// What the view watcher of the traced fault pass saw (host-independent,
/// but only collected when traced, so kept out of [`SimCounters`]).
#[derive(Debug, Clone, Default)]
pub struct Watch {
    /// Kill → victim absent from every survivor's view, simulated ms.
    pub evict_ms: Vec<u64>,
    /// Kills whose victim was still in some view when it was revived.
    pub unevicted: u64,
    /// Machines the fault schedule never touches, dropped from the view of
    /// a daemon it never touches either (counted once per poll).
    pub false_evictions: u64,
}

/// Everything one `run` call produced.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    pub sim: SimCounters,
    /// Wall time inside the program under test, ns.
    pub wall_ns: u64,
    /// CPU time of the driver thread inside the program under test, ns.
    pub cpu_ns: u64,
    /// Heap allocations inside the program under test.
    pub allocs: u64,
    pub watch: Watch,
}

impl Batch {
    pub fn absorb(&mut self, o: &Batch) {
        let (s, t) = (&mut self.sim, &o.sim);
        s.ops += t.ops;
        s.failed += t.failed;
        s.events += t.events;
        s.net.absorb(&t.net);
        s.latency_us.merge(&t.latency_us);
        s.makespan_us.merge(&t.makespan_us);
        s.requests += t.requests;
        s.grants += t.grants;
        s.retries += t.retries;
        s.migrations += t.migrations;
        s.evictions += t.evictions;
        s.recoveries += t.recoveries;
        s.replayed += t.replayed;
        s.prefix_ok += t.prefix_ok;
        self.wall_ns += o.wall_ns;
        self.cpu_ns += o.cpu_ns;
        self.allocs += o.allocs;
        self.watch.evict_ms.extend_from_slice(&o.watch.evict_ms);
        self.watch.unevicted += o.watch.unevicted;
        self.watch.false_evictions += o.watch.false_evictions;
    }

    /// Account `f` — a call into the program under test — to this batch's
    /// times and allocation count.
    pub fn measure<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let a0 = probe::allocs();
        let c0 = probe::thread_cpu_ns();
        let t0 = Instant::now();
        let out = f();
        self.wall_ns += t0.elapsed().as_nanos() as u64;
        self.cpu_ns += probe::thread_cpu_ns() - c0;
        self.allocs += probe::allocs() - a0;
        out
    }

    /// Simulator events per second of driver-thread CPU time.
    pub fn events_per_cpu_s(&self) -> f64 {
        self.sim.events as f64 / (self.cpu_ns as f64 / 1e9)
    }
}

/// Totals of a finished `.vct` recording.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Recording {
    /// End-record state hashes, folded in op order.
    pub state_hash: u64,
    pub events: u64,
    pub bytes: u64,
}

impl Recording {
    /// Seal `sim`'s in-memory recording and fold its totals in.
    pub fn absorb_from(&mut self, sim: &mut Sim) {
        let bytes = sim
            .finish_recording()
            .expect("in-memory recording cannot fail")
            .expect("memory recordings return their bytes");
        let end = vce_sim::read_trace(&bytes)
            .expect("a trace this process just wrote must parse")
            .end;
        let mut h = vce_net::Fnv64::new();
        h.write_u64(self.state_hash).write_u64(end.sim_hash);
        self.state_hash = h.finish();
        self.events += end.events;
        self.bytes += bytes.len() as u64;
    }
}

/// `Sim::run_until`, as a span when traced.
pub fn run_until(sim: &mut Sim, t_us: u64, traced: bool) {
    if traced {
        trace::span(Kind::SimRun, || sim.run_until(t_us));
    } else {
        sim.run_until(t_us);
    }
}

/// Run `f` as a span of `kind` when traced, bare otherwise.
pub fn spanned<T>(kind: Kind, traced: bool, f: impl FnOnce() -> T) -> T {
    if traced {
        trace::span(kind, f)
    } else {
        f()
    }
}

/// One benchmark workload.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// Ops per timed slice (≈50 ms on the reference box for the endless
    /// workloads, ≈150 ms for the applications): short, so that a window
    /// holds a hundred of them and the median slice rate shrugs off the
    /// stretches in which the host takes the CPU away.
    const SLICE_OPS: u64;
    /// How many leading slices the simulated metrics are taken over. The
    /// window may run more slices; these are always run, so simulated
    /// metrics cover the same ops on any host.
    const SIM_SLICES: usize;
    /// Whether the inputs repeat every `SIM_SLICES` slices (and a slice
    /// must therefore produce the [`SimCounters`] it produced last time).
    const REPLAYS: bool;
    /// Ops for the recorded shard-invariance probe (a few 100 k events:
    /// the recording is parsed in memory).
    const PROBE_OPS: u64;

    /// Build inputs and warm state from `seed`. `setup_s` times this.
    fn setup(seed: u64, opts: Opts) -> Self;
    /// Machines in one fleet (per-node footprint).
    fn nodes(&self) -> u64;
    /// Run the next `ops` operations.
    fn run(&mut self, ops: u64) -> Batch;
    /// Seal any recording (`Opts::record`) and return its totals.
    fn finish(self) -> Recording;
    /// Application-description scripts among the inputs (front-end probe).
    fn scripts(&self) -> Vec<String> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_quantile_interpolates_inside_a_microsecond() {
        let mut d = Dist::default();
        d.add(5, 10);
        assert_eq!(d.quantile(0.5), 5.0);
        // 4 × 10 µs then 6 × 20 µs: the median is the first of the 20s.
        let mut d = Dist::default();
        d.add(20, 6);
        d.add(10, 4);
        assert!((d.quantile(0.5) - (19.5 + 1.0 / 6.0)).abs() < 1e-12);
        assert!(d.quantile(0.9) > d.quantile(0.5));
        assert!(d.quantile(0.3) < 10.5);
        assert_eq!(d.n(), 10);
        assert_eq!(d.mean(), 16.0);
        assert_eq!(Dist::default().quantile(0.5), 0.0);
        assert_eq!(Dist::default().mean(), 0.0);
    }

    #[test]
    fn dist_merge_adds_counts() {
        let mut a = Dist::default();
        a.add(1, 2);
        let mut b = Dist::default();
        b.add(1, 3);
        b.add(7, 1);
        a.merge(&b);
        let mut want = Dist::default();
        want.add(1, 5);
        want.add(7, 1);
        assert_eq!(a, want);
    }

    #[test]
    fn hist_clamps_and_drains() {
        let mut h = Hist::new(100, 4);
        for v in [50, 100, 101, 103, 9_999] {
            h.record(v);
        }
        assert_eq!(h.overflow(), 2);
        let mut d = Dist::default();
        h.drain_into(&mut d);
        assert_eq!(d.n(), 5);
        assert_eq!(h.overflow(), 0);
        let mut want = Dist::default();
        want.add(100, 2);
        want.add(101, 1);
        want.add(103, 2);
        assert_eq!(d, want);
    }
}
