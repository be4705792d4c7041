//! The repository's one benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! rambo-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

mod corpus;
mod metrics;
mod oracle;
mod rng;
mod stats;
mod sut;
mod trace;
mod wire;
mod workloads;

use std::process::ExitCode;
use workloads::{Outcome, RunConfig};

pub const WORKLOADS: [&str; 4] = [
    "archive_build",
    "query_direct",
    "serve_wire",
    "tenant_mixed",
];

type Run = fn(&RunConfig) -> Outcome;
type Trace = fn(&RunConfig, &mut trace::Tracer) -> Outcome;

/// The untraced and the traced entry point of each workload, in the order of
/// [`WORKLOADS`].
const ENTRY_POINTS: [(Run, Trace); 4] = [
    (
        workloads::archive_build::run,
        workloads::archive_build::trace,
    ),
    (workloads::query_direct::run, workloads::query_direct::trace),
    (workloads::serve_wire::run, workloads::serve_wire::trace),
    (workloads::tenant_mixed::run, workloads::tenant_mixed::trace),
];

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
}

fn usage() -> String {
    format!(
        "usage: rambo-benchmark [--workload <{}>] [--seed <n>] [--seconds <1..60>] \
         [--trace <0|1>] [--quick]",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.iter().map(|w| w.to_string()).collect(),
        seed: 1,
        seconds: 10,
        trace: false,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name}"));
                }
                args.workloads = vec![name];
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or("--seconds needs a whole number from 1 to 60")?;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            "--quick" => args.quick = true,
            "--help" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Where the run came from: printed with every result so that a number can
/// be traced to the commit, machine and inputs that produced it.
fn provenance(args: &Args) -> String {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|m| m.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "commit={commit} nproc={nproc} cpu=\"{cpu}\" seed={} seconds={} mode={}{}",
        args.seed,
        args.seconds,
        if args.trace { "trace" } else { "end-to-end" },
        if args.quick {
            " QUICK (a smoke run: a tenth of the work, not a measurement)"
        } else {
            ""
        },
    )
}

fn trace_path(workload: &str) -> std::path::PathBuf {
    // Beside the executable, so inside the build directory whatever
    // CARGO_TARGET_DIR says, and never among the sources.
    let dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(std::path::Path::to_path_buf))
        .unwrap_or_else(|| ".".into());
    dir.join(format!("trace-{workload}.jsonl"))
}

fn run_one(workload: &str, args: &Args, cfg: &RunConfig) -> Outcome {
    let at = WORKLOADS
        .iter()
        .position(|w| *w == workload)
        .expect("parse_args admits only known workloads");
    let (run, trace) = ENTRY_POINTS[at];
    if !args.trace {
        return run(cfg);
    }
    let mut tracer = trace::Tracer::new();
    let outcome = trace(cfg, &mut tracer);
    let path = trace_path(workload);
    match tracer.write_jsonl(&path) {
        Ok(()) => println!("{} spans written to {}", tracer.len(), path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    outcome
}

/// The contract's result line. Values keep every digit they were measured
/// with.
fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value)| {
            // JSON has no NaN or infinity; a metric that is one is a bug in
            // the benchmark, and the run must not pass for correct.
            assert!(value.is_finite(), "{name} is {value}");
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                metrics::unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.tally.failed == 0,
        outcome.tally.attempted,
        outcome.tally.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
    };
    println!("provenance: {}", provenance(&args));
    let mut all_correct = true;
    for workload in &args.workloads {
        let started = std::time::Instant::now();
        let outcome = run_one(workload, &args, &cfg);
        println!("workload {workload}: {}", outcome.sizes);
        for (name, value) in &outcome.metrics {
            println!("  {name:<44} {value:>16.4} {}", metrics::unit_of(name));
        }
        println!(
            "  attempted {} failed {} wall {:.1} s",
            outcome.tally.attempted,
            outcome.tally.failed,
            started.elapsed().as_secs_f64()
        );
        for note in outcome.tally.notes() {
            println!("  FAILED: {note}");
        }
        all_correct &= outcome.tally.failed == 0 && outcome.tally.attempted > 0;
        println!("{}", result_json(&outcome));
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
