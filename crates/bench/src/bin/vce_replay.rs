#![forbid(unsafe_code)]
//! `.vct` trace tooling: record, inspect, and divergence-check chaos runs.
//!
//! A `.vct` file (see `vce_sim::record` and `docs/REPLAY.md`) is a
//! CRC-chained binary recording of every event the simulator popped plus
//! periodic per-node state hashes. This tool closes the loop:
//!
//! * `vce_replay --record <out.vct> <seed> <shape> <technique>` — run one
//!   chaos cell with a recorder attached and write the trace.
//! * `vce_replay --divergence <file.vct>` — re-execute the recorded
//!   scenario against the *current* binary and report the first event
//!   where the two runs split, bisected over snapshot intervals down to a
//!   single event window. Exit 0 = no divergence, 1 = diverged, 2 = bad
//!   arguments or an unreadable trace.
//! * `vce_replay --info <file.vct>` — print the header, totals and
//!   snapshot chain without re-running anything.
//!
//! The same-binary round trip (`--record` then `--divergence`) must always
//! report zero divergence — `scripts/ci.sh` gates on exactly that — so a
//! *reported* divergence isolates a real behavior change between the
//! recording binary and this one (or a nondeterminism bug).

use std::path::Path;
use std::process::exit;

use vce_bench::chaos::{parse_cell, parse_scenario, run_chaos_recorded, ChaosConfig, RecordTo};
use vce_sim::record::{first_divergence, read_trace, read_trace_file, Divergence};

const USAGE: &str = "usage: vce_replay --record <out.vct> <seed> <shape> <technique>
       vce_replay --divergence <file.vct>
       vce_replay --info <file.vct>";

fn die(msg: &str) -> ! {
    eprintln!("vce_replay: {msg}");
    eprintln!("{USAGE}");
    exit(2);
}

fn record_main(out: &str, seed: &str, shape: &str, technique: &str) -> ! {
    let (seed, shape, technique) = match parse_cell(seed, shape, technique) {
        Ok(cell) => cell,
        Err(e) => die(&e),
    };
    let cfg = ChaosConfig {
        seed,
        shape,
        technique,
        trace: false,
    };
    let (outcome, _) = run_chaos_recorded(&cfg, RecordTo::File(Path::new(out)));
    let trace = match read_trace_file(Path::new(out)) {
        Ok(t) => t,
        Err(e) => die(&format!("recorded file does not read back: {e}")),
    };
    println!(
        "recorded {out}: {} events, {} snapshots, final hash {:#018x} ({})",
        trace.end.events,
        trace.end.snapshots,
        trace.end.sim_hash,
        if outcome.green() {
            "run green".to_string()
        } else {
            format!("{} violations", outcome.violations.len())
        }
    );
    exit(0);
}

fn divergence_main(file: &str) -> ! {
    let recorded = match read_trace_file(Path::new(file)) {
        Ok(t) => t,
        Err(e) => die(&format!("{file}: {e}")),
    };
    let Some((seed, shape, technique)) = parse_scenario(&recorded.scenario) else {
        die(&format!(
            "{file}: unknown scenario {:?} — cannot re-run it",
            recorded.scenario
        ));
    };
    let cfg = ChaosConfig {
        seed,
        shape,
        technique,
        trace: false,
    };
    let (_, bytes) = run_chaos_recorded(&cfg, RecordTo::Memory);
    let bytes = bytes.expect("memory recording returns bytes");
    let replayed = match read_trace(&bytes) {
        Ok(t) => t,
        Err(e) => die(&format!("replay recording does not parse: {e}")),
    };
    println!(
        "recorded: {} events over {} snapshots; replayed: {} events over {} snapshots",
        recorded.end.events,
        recorded.snapshots.len(),
        replayed.end.events,
        replayed.snapshots.len()
    );
    match first_divergence(&recorded, &replayed) {
        Divergence::None => {
            println!("no divergence: {}", recorded.scenario);
            exit(0);
        }
        d => {
            println!("{d}");
            exit(1);
        }
    }
}

fn info_main(file: &str) -> ! {
    let trace = match read_trace_file(Path::new(file)) {
        Ok(t) => t,
        Err(e) => die(&format!("{file}: {e}")),
    };
    println!("scenario:        {}", trace.scenario);
    println!("snapshot period: {}µs", trace.snapshot_every_us);
    println!("frames:          {}", trace.frames);
    println!("events:          {}", trace.end.events);
    println!("snapshots:       {}", trace.end.snapshots);
    println!("final time:      {}µs", trace.end.now_us);
    println!("final hash:      {:#018x}", trace.end.sim_hash);
    for (i, s) in trace.snapshots.iter().enumerate() {
        println!(
            "  snapshot {i:>3}: {:>12}µs event {:>8} hash {:#018x}",
            s.at_us, s.event_index, s.sim_hash
        );
    }
    exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let strs: Vec<&str> = args.iter().map(String::as_str).collect();
    match strs.as_slice() {
        [_, "--record", out, seed, shape, technique] => record_main(out, seed, shape, technique),
        [_, "--divergence", file] => divergence_main(file),
        [_, "--info", file] => info_main(file),
        _ => die("bad arguments"),
    }
}
