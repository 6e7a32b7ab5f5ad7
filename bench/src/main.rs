//! Wall-clock benchmark of the ISS reproduction (see `README.md`).
//!
//! ```text
//! bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! bench trace <workload> [--seed <n>] [--seconds <s>] [--quick]
//! bench aa --sets 2 --runs <n> [--seed <n>] [--seconds <s>] [--quick]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the exit code is non-zero when an
//! output check failed.

mod aa;
mod checks;
mod clock;
mod cluster;
mod loadgen;
mod metrics;
mod micro;
mod procstat;
mod scratch;
mod sim;
mod tcp;
mod trace;

use metrics::Outcome;
use std::process::ExitCode;

/// The seed the committed numbers in the README were taken with, and a
/// second one held out for later claims (a claimed gain must also hold on a
/// seed not used while the change was written).
pub const DEFAULT_SEED: u64 = 20_220_405;
pub const HELD_OUT_SEED: u64 = 7_919_173;
/// Measured window when `--seconds` is absent; matches `run_seconds` in
/// `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 20.0;
/// Measured window of a `--quick` smoke run.
const QUICK_SECONDS: f64 = 5.0;

pub const WORKLOADS: [&str; 4] = [
    "tcp_signed_closed",
    "tcp_wal_open",
    "tcp_crash_open",
    "sim_paper_scale",
];

/// Parsed command line.
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub sets: usize,
    pub runs: usize,
}

fn parse(mut words: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        sets: 2,
        runs: 10,
    };
    while let Some(word) = words.next() {
        let mut value = |what: &str| words.next().ok_or_else(|| format!("{word} needs {what}"));
        match word.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--quick" => args.seconds = QUICK_SECONDS,
            "--sets" => {
                args.sets = value("a number")?
                    .parse()
                    .map_err(|e| format!("--sets: {e}"))?;
            }
            "--runs" => {
                args.runs = value("a number")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
            }
            other if !other.starts_with('-') && args.workload.is_none() => {
                args.workload = Some(other.to_string());
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Runs one workload once.
fn run_workload(name: &str, args: &Args) -> Result<Outcome, String> {
    let tcp_workload = match name {
        "tcp_signed_closed" => Some(tcp::SIGNED_CLOSED),
        "tcp_wal_open" => Some(tcp::WAL_OPEN),
        "tcp_crash_open" => Some(tcp::CRASH_OPEN),
        "sim_paper_scale" => None,
        other => {
            return Err(format!(
                "unknown workload {other}; choose one of {}",
                WORKLOADS.join(", ")
            ))
        }
    };
    if !args.traced {
        return match tcp_workload {
            Some(w) => tcp::run_untraced(&w, args.seed, args.seconds),
            None => sim::run(args.seed, args.seconds, false),
        };
    }
    let mut out = match tcp_workload {
        Some(w) => {
            let spans = scratch::root()?.join(format!("spans-{name}-{}.jsonl", args.seed));
            let mut out = tcp::run_traced(&w, args.seed, args.seconds, &spans)?;
            if name == "tcp_wal_open" {
                // A fifth of the window is enough for a floor.
                let floor = tcp::run_single_replica(args.seed, args.seconds / 5.0)?;
                out.values.set("core.n1_cpu_us_per_req", floor);
            }
            out
        }
        None => sim::run(args.seed, args.seconds, true)?,
    };
    micro::run(&mut out.values, args.seed)?;
    Ok(out)
}

fn report(out: &Outcome, traced: bool) -> ExitCode {
    for note in &out.notes {
        println!("# {note}");
    }
    for check in &out.failed_checks {
        eprintln!("bench: output check FAILED: {check}");
    }
    let schema = if traced {
        metrics::PER_LAYER.to_vec()
    } else {
        metrics::end_to_end_schema()
    };
    for (name, unit) in &schema {
        println!("{name:<40} {:>16.4} {unit}", out.values.get(name));
    }
    println!("{}", out.result_line(&schema));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let mut words = std::env::args().skip(1).peekable();
    let command = match words.peek().map(String::as_str) {
        Some("trace") | Some("aa") => words.next(),
        _ => None,
    };
    let mut args = match parse(words) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench: {e}");
            return ExitCode::from(2);
        }
    };
    match command.as_deref() {
        Some("aa") => return aa::run(&args),
        Some("trace") => args.traced = true,
        _ => {}
    }
    let Some(name) = args.workload.clone() else {
        eprintln!("bench: name a workload: {}", WORKLOADS.join(", "));
        return ExitCode::from(2);
    };
    match run_workload(&name, &args) {
        Ok(out) => report(&out, args.traced),
        Err(e) => {
            eprintln!("bench: {name}: {e}");
            ExitCode::FAILURE
        }
    }
}
