//! Metrics by name with unit: the tables in `README.md` as data, the
//! line format children print, and the JSON the benchmark contract asks for.

use std::fmt::Write as _;

/// A metric definition: `(name, unit)`.
pub type Def = (&'static str, &'static str);

/// End-to-end metrics, reported by every `--trace 0` run on every workload.
/// Must list exactly the `end_to_end` names of `BENCHMARK.json`.
pub const END_TO_END: &[Def] = &[
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("peak_rss_mb", "MiB"),
    ("sim_msgs_per_op", "count"),
    ("sim_bytes_per_op", "B"),
    ("sim_alloc_latency_us_p50", "us"),
    ("sim_makespan_s_mean", "s"),
];

/// `(name, bound, higher is better)` of each end-to-end metric, as in
/// `BENCHMARK.json`: the share by which it may get worse before a change
/// counts as a regression. Each is about three times the largest spread
/// seen between ten runs with different seeds (README, *End-to-end
/// metrics*), or the contract's ceiling of 0.25 where that is lower.
pub const BOUNDS: &[(&str, f64, bool)] = &[
    ("setup_s", 0.25, false),
    ("ops_per_s", 0.25, true),
    ("peak_rss_mb", 0.25, false),
    ("sim_msgs_per_op", 0.07, false),
    ("sim_bytes_per_op", 0.06, false),
    ("sim_alloc_latency_us_p50", 0.02, false),
    ("sim_makespan_s_mean", 0.12, false),
];

/// Per-layer metrics, reported by every `--trace 1` run on every workload
/// (0 where a layer does no work). Must list exactly the `per_layer` names
/// of `BENCHMARK.json`.
pub const PER_LAYER: &[Def] = &[
    ("allocs_per_op", "count"),
    ("failed_ops_share", "ratio"),
    ("sim_alloc_latency_us_p99", "us"),
    ("sim_makespan_s_p50", "s"),
    ("harness.trace_overhead_ratio", "ratio"),
    ("harness.span_sum_ratio", "ratio"),
    ("harness.span_cost_ns", "ns"),
    ("harness.runq_wait_share", "ratio"),
    ("harness.slice_iqr_ratio", "ratio"),
    ("harness.self_ns_per_op", "ns"),
    ("sim.events_per_op", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.engine_self_ns_per_event", "ns"),
    ("sim.engine_share", "ratio"),
    ("sim.host_send_ns_per_msg", "ns"),
    ("sim.timer_set_per_op", "count"),
    ("sim.timer_cancel_per_op", "count"),
    ("sim.timer_ns_per_call", "ns"),
    ("sim.cpu_calls_per_op", "count"),
    ("sim.cpu_ns_per_call", "ns"),
    ("sim.queue_hold_ns_per_op", "ns"),
    ("sim.fleet_slide_ratio", "ratio"),
    ("sim.rss_bytes_per_node", "B"),
    ("sim.shards2_speedup", "ratio"),
    ("sim.shards2_identical", "count"),
    ("sim.record_overhead_ratio", "ratio"),
    ("sim.record_bytes_per_event", "B"),
    ("codec.encode_calls_per_op", "count"),
    ("codec.encode_ns_per_call", "ns"),
    ("codec.decode_ns_per_msg", "ns"),
    ("codec.bytes_per_msg", "B"),
    ("codec.roundtrip_ok_share", "ratio"),
    ("net.msgs_per_op", "count"),
    ("net.heartbeat_share", "ratio"),
    ("net.delivered_share", "ratio"),
    ("net.dropped_share", "ratio"),
    ("net.duplicated_share", "ratio"),
    ("isis.handler_ns_per_event", "ns"),
    ("isis.handler_share", "ratio"),
    ("isis.heartbeats_per_op", "count"),
    ("isis.casts_per_op", "count"),
    ("isis.view_installs_per_op", "count"),
    ("isis.evict_sim_ms_p50", "ms"),
    ("isis.false_evictions_per_op", "count"),
    ("exm.daemon_handler_ns_per_event", "ns"),
    ("exm.executor_handler_ns_per_event", "ns"),
    ("exm.handler_share", "ratio"),
    ("exm.requests_per_op", "count"),
    ("exm.grants_per_request", "ratio"),
    ("exm.retries_per_op", "count"),
    ("exm.migrations_per_op", "count"),
    ("exm.evictions_per_op", "count"),
    ("exm.wal_journal_ns_per_record", "ns"),
    ("storage.append_ns_per_record", "ns"),
    ("storage.recover_ns_per_record", "ns"),
    ("storage.recoveries_per_op", "count"),
    ("storage.replayed_per_recovery", "count"),
    ("storage.prefix_ok_share", "ratio"),
    ("script.parse_us_p50", "us"),
    ("core.fleet_build_us_p50", "us"),
    ("core.app_build_us_p50", "us"),
    ("core.submit_us_p50", "us"),
    ("core.settle_ms_p50", "ms"),
    ("core.report_us_p50", "us"),
];

/// The outcome of one run of one workload.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: &'static str,
    /// All outputs checked out: no failed op, every consistency check held.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, unit, value)` for each contract metric, in table order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Diagnostics that are not contract metrics (`name unit value`).
    pub extras: Vec<(&'static str, &'static str, f64)>,
    /// Why `correct` is false, one line per failed check.
    pub complaints: Vec<String>,
}

impl RunResult {
    /// Fill `metrics` from `defs`, looking each value up in `values`; a
    /// name `values` lacks is a bug in the harness.
    pub fn set_metrics(&mut self, defs: &[Def], values: &[(&'static str, f64)]) {
        assert_eq!(
            defs.len(),
            values.len(),
            "a metric was computed twice or not at all"
        );
        self.metrics = defs
            .iter()
            .map(|&(name, unit)| {
                let v = values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .unwrap_or_else(|| panic!("metric {name} was not computed"))
                    .1;
                (name, unit, v)
            })
            .collect();
    }

    /// The human-readable lines (`metric <workload> <name> <value> <unit>`),
    /// which `--selfcheck` and the full run parse back.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for (name, unit, v) in self.metrics.iter().chain(&self.extras) {
            let _ = writeln!(out, "metric {} {name} {} {unit}", self.workload, num(*v));
        }
        for c in &self.complaints {
            let _ = writeln!(out, "check-failed {} {c}", self.workload);
        }
        out
    }

    /// The contract's result object, one line.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, unit, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*v)
            );
        }
        s.push_str("}}");
        s
    }
}

/// A finite number with all its digits, valid as JSON.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Parse the `metric` lines of a child's output for `workload`.
pub fn parse_lines(workload: &str, out: &str) -> Vec<(String, f64, String)> {
    out.lines()
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            (it.next()? == "metric" && it.next()? == workload).then_some(())?;
            let name = it.next()?.to_string();
            let value = it.next()?.parse().ok()?;
            Some((name, value, it.next()?.to_string()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_one_line_with_exactly_the_contract_keys() {
        let mut r = RunResult {
            workload: "w",
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: Vec::new(),
            extras: vec![("x.y", "ns", 1.5)],
            complaints: Vec::new(),
        };
        r.set_metrics(&[("a", "s"), ("b", "op/s")], &[("b", 2.0), ("a", 0.125)]);
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 0.125, \"unit\": \"s\"}, \"b\": {\"value\": 2, \"unit\": \"op/s\"}}}"
        );
        let parsed = parse_lines("w", &r.lines());
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[0], ("a".to_string(), 0.125, "s".to_string()));
        assert_eq!(parsed[2].0, "x.y");
        assert!(parse_lines("other", &r.lines()).is_empty());
    }

    #[test]
    fn metric_names_are_unique_and_within_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` is written by hand; this is what keeps it and the
    /// tables above from drifting apart.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        let entry = |name: &str| {
            let at = json
                .find(&format!("\"name\": \"{name}\""))
                .unwrap_or_else(|| panic!("{name} is missing from BENCHMARK.json"));
            &json[at..json[at..].find('}').map_or(json.len(), |e| at + e)]
        };
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                entry(name).contains(&format!("\"unit\": \"{unit}\"")),
                "{name}: unit differs"
            );
        }
        assert_eq!(BOUNDS.len(), END_TO_END.len());
        for (&(name, bound, higher), &(listed, _)) in BOUNDS.iter().zip(END_TO_END) {
            assert_eq!(name, listed, "BOUNDS and END_TO_END are in the same order");
            let e = entry(name);
            assert!(
                e.contains(&format!("\"bound\": {bound}")),
                "{name}: bound differs"
            );
            let better = if higher { "higher" } else { "lower" };
            assert!(e.contains(&format!("\"better\": \"{better}\"")), "{name}");
        }
        assert_eq!(
            json.matches("\"name\": ").count(),
            5 + END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json names a workload or metric the tables lack"
        );
    }

    #[test]
    fn non_finite_values_print_as_zero() {
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(num(1.25), "1.25");
    }
}
