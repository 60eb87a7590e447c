//! `vce-benchmark`: the repo's one benchmark. See `README.md`.
//!
//! ```text
//! vce-benchmark --workload W --seed N --seconds S --trace 0|1 [--quick]
//!     one run of one workload in this process; the last line of stdout is
//!     the contract's JSON object
//! vce-benchmark [--workload W] [--seed N] [--seconds S] [--quick]
//!     every workload (or W), timed then traced, each in its own child
//!     process; prints every metric and writes out/result.json
//! vce-benchmark --selfcheck [--workload W] [--seed N] [--seconds S]
//!     the timed pass twice per workload; fails if the two disagree
//! ```

mod alloc;
mod app;
mod fleet;
mod harness;
mod probe;
mod report;
mod stats;
mod storm;
mod trace;
mod workload;

use std::process::{Command, ExitCode};

use harness::Request;
use report::{RunResult, BOUNDS};
use workload::Workload;

#[global_allocator]
static ALLOCATOR: probe::Counting = probe::Counting;

/// Workload names, in the order of `BENCHMARK.json`.
const WORKLOADS: [&str; 5] = [
    "storm_dense",
    "storm_fleet",
    "alloc_steady",
    "app_dense",
    "app_faults",
];

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: Option<bool>,
    quick: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                a.seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--quick" => a.quick = true,
            "--selfcheck" => a.selfcheck = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &a.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w}; one of {WORKLOADS:?}"));
        }
    }
    Ok(a)
}

fn run_one(workload: &str, req: Request, traced: bool) -> RunResult {
    fn go<W: Workload>(req: Request, traced: bool) -> RunResult {
        if traced {
            harness::traced::<W>(req)
        } else {
            harness::timed::<W>(req)
        }
    }
    match workload {
        "storm_dense" => go::<storm::StormDense>(req, traced),
        "storm_fleet" => go::<storm::StormFleet>(req, traced),
        "alloc_steady" => go::<alloc::AllocSteady>(req, traced),
        "app_dense" => go::<app::AppDense>(req, traced),
        "app_faults" => go::<app::AppFaults>(req, traced),
        other => unreachable!("parse_args admitted workload {other}"),
    }
}

/// One child: this executable on one workload, one pass. Returns its
/// `metric` lines and whether it exited 0 with `"correct": true`.
fn child(workload: &str, req: Request, traced: bool) -> (Vec<(String, f64, String)>, bool) {
    let exe = std::env::current_exe().expect("own path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &req.seed.to_string()])
        .args(["--seconds", &req.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if req.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().expect("spawn child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for l in stdout.lines().filter(|l| l.starts_with("check-failed")) {
        eprintln!("{l}");
    }
    let ok = out.status.success()
        && stdout
            .lines()
            .last()
            .is_some_and(|l| l.contains("\"correct\": true"));
    if !out.status.success() {
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
    }
    (report::parse_lines(workload, &stdout), ok)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Every workload, timed then traced, each pass in its own child process.
fn run_all(names: &[&str], req: Request) -> bool {
    let mut ok = true;
    let mut json = format!(
        "{{\"seed\": {}, \"seconds\": {}, \"nproc\": {}, \"cpu\": \"{}\", \"rustc\": \"{}\", \
         \"commit\": \"{}\", \"workloads\": {{",
        req.seed,
        req.seconds,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        cpu_model(),
        std::env::var("VCE_BENCH_RUSTC").unwrap_or_else(|_| "unknown".into()),
        std::env::var("VCE_BENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
    );
    for (i, name) in names.iter().enumerate() {
        json.push_str(&format!("{}\n\"{name}\": {{", if i > 0 { "," } else { "" }));
        let mut first = true;
        for traced in [false, true] {
            let (metrics, child_ok) = child(name, req, traced);
            ok &= child_ok;
            println!(
                "# {name}, {} pass{}",
                if traced { "traced" } else { "timed" },
                if child_ok { "" } else { " — CHECK FAILED" }
            );
            for (metric, value, unit) in metrics {
                println!("{name:<13} {metric:<36} {:>16} {unit}", report::num(value));
                json.push_str(&format!(
                    "{}\n  \"{metric}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    if first { "" } else { "," },
                    report::num(value)
                ));
                first = false;
            }
        }
        json.push('}');
    }
    json.push_str("}}\n");
    if req.quick {
        println!("# --quick: smoke run, result file not written");
    } else {
        let dir = harness::out_dir();
        let path = dir.join("result.json");
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
            Ok(()) => println!("# wrote {}", path.display()),
            Err(e) => {
                eprintln!("could not write {}: {e}", path.display());
                ok = false;
            }
        }
    }
    ok
}

/// The timed pass twice per workload: every end-to-end metric must agree
/// within its bound, every simulated one exactly, and the box must not
/// have been stealing more than a tenth of the time.
fn selfcheck(names: &[&str], req: Request) -> bool {
    let mut ok = true;
    for name in names {
        let (a, ok_a) = child(name, req, false);
        let (b, ok_b) = child(name, req, false);
        ok &= ok_a && ok_b;
        let get = |set: &[(String, f64, String)], m: &str| {
            set.iter()
                .find(|(n, _, _)| n == m)
                .map_or(f64::NAN, |x| x.1)
        };
        for &(metric, bound, higher_better) in BOUNDS {
            let (x, y) = (get(&a, metric), get(&b, metric));
            let worse = if higher_better {
                (x - y) / x
            } else {
                (y - x) / x
            };
            let exact = metric.starts_with("sim_");
            let pass = if exact { x == y } else { worse.abs() <= bound };
            println!(
                "{name:<13} {metric:<26} {:>16} {:>16} {:>+8.2}% {}",
                report::num(x),
                report::num(y),
                100.0 * worse,
                if pass { "ok" } else { "DIFFERS" }
            );
            ok &= pass;
        }
        for m in [
            "ops_per_s.q1_slice",
            "ops_per_s.median_slice",
            "ops_per_s.q3_slice",
            "allocs_per_op",
        ] {
            println!(
                "{name:<13} {m:<26} {:>16} {:>16}",
                report::num(get(&a, m)),
                report::num(get(&b, m))
            );
        }
        ok &= get(&a, "allocs_per_op") == get(&b, "allocs_per_op");
        for run in [&a, &b] {
            let wait = get(run, "harness.runq_wait_share");
            if wait > 0.10 {
                println!("{name:<13} runqueue wait share {wait:.3} > 0.10: box too noisy to trust");
                ok = false;
            }
        }
    }
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vce-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let req = Request {
        seed: args.seed.unwrap_or(1),
        seconds: args.seconds.unwrap_or(20),
        quick: args.quick,
    };
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let ok = if args.selfcheck {
        selfcheck(&names, req)
    } else if let (Some(traced), Some(w)) = (args.trace, &args.workload) {
        let r = run_one(w, req, traced);
        print!("{}", r.lines());
        println!("{}", r.json());
        r.correct
    } else {
        run_all(&names, req)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
