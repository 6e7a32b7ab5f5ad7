//! `bench aa`: two sets of runs of the *same* build, workloads alternating,
//! to learn how far two sets of identical code disagree. An end-to-end
//! metric whose sets disagree by more than its bound, or whose run-to-run
//! spread exceeds it, cannot resolve a regression of that size and is
//! reported as unresolved. So is a workload on which any operation failed:
//! the benchmark's workloads are chosen so that none does, and two sets that
//! count different failures are two different measurements.
//!
//! Each run is a child process of this executable, so every run starts with
//! a fresh address space (peak memory) and fresh CPU counters.

use crate::metrics::{median, END_TO_END};
use crate::{Args, WORKLOADS};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so the spread printed here is the one the
/// acceptance rule uses.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The whole number after `"key": ` in a result line.
fn parse_count(line: &str, key: &str) -> Option<f64> {
    let rest = line.split_once(&format!("\"{key}\": "))?.1;
    rest.split(',').next()?.trim().parse().ok()
}

/// Pulls `"name": {"value": x` pairs out of a result line; `attempted` and
/// `failed` are returned under those names beside the metrics.
fn parse_result(line: &str) -> Option<(bool, BTreeMap<String, f64>)> {
    let correct = line.contains("\"correct\": true");
    let metrics = line.split_once("\"metrics\": {")?.1;
    let mut values = BTreeMap::new();
    for key in ["attempted", "failed"] {
        values.insert(key.to_string(), parse_count(line, key)?);
    }
    for part in metrics.split("\"unit\"") {
        let Some((head, value)) = part.rsplit_once("{\"value\": ") else {
            continue;
        };
        let name = head.rsplit('"').nth(1)?;
        let value: f64 = value.trim_end_matches([',', ' ']).parse().ok()?;
        values.insert(name.to_string(), value);
    }
    Some((correct, values))
}

fn run_child(workload: &str, seed: u64, seconds: f64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("spawn run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    match parse_result(last) {
        Some((true, values)) if output.status.success() => Ok(values),
        _ => Err(format!(
            "{workload} seed {seed} failed: {}",
            String::from_utf8_lossy(&output.stderr).trim()
        )),
    }
}

pub fn run(args: &Args) -> ExitCode {
    let workloads: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    // samples[set][workload][metric] -> values
    let mut samples: Vec<BTreeMap<&str, BTreeMap<String, Vec<f64>>>> =
        vec![BTreeMap::new(); args.sets];
    for run in 0..args.runs {
        for (set, set_samples) in samples.iter_mut().enumerate() {
            for workload in &workloads {
                // Every run of a set has its own seed; the sets use
                // different seeds too, as two sessions would.
                let seed = args.seed + (set * args.runs + run) as u64;
                match run_child(workload, seed, args.seconds) {
                    Ok(values) => {
                        eprintln!("aa: set {set} run {run} {workload} seed {seed} ok");
                        let slot = set_samples.entry(workload).or_default();
                        for (name, value) in values {
                            slot.entry(name).or_default().push(value);
                        }
                    }
                    Err(e) => {
                        eprintln!("aa: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
    }

    let mut unresolved = 0;
    println!("workload,metric,set,median,q1,q3,spread,bound,verdict");
    for workload in &workloads {
        for (set, s) in samples.iter().enumerate() {
            let failed: f64 = s[workload]["failed"].iter().sum();
            let attempted: f64 = s[workload]["attempted"].iter().sum();
            let verdict = if failed == 0.0 { "agree" } else { "UNRESOLVED" };
            unresolved += usize::from(failed != 0.0);
            println!("{workload},failed_of_{attempted},{set},{failed},,,,0,{verdict}");
        }
        for m in END_TO_END {
            let stats: Vec<(f64, f64, f64)> = samples
                .iter()
                .map(|s| quartiles(&s[workload][m.name]))
                .collect();
            let medians: Vec<f64> = samples
                .iter()
                .map(|s| median(&s[workload][m.name]))
                .collect();
            // Worsening of each later set against the first, as a share of
            // the first set's median, signed so that positive is worse.
            let worst_shift = medians[1..]
                .iter()
                .map(|later| {
                    let shift = (later - medians[0]) / medians[0];
                    if m.higher_is_better {
                        -shift
                    } else {
                        shift
                    }
                })
                .fold(f64::MIN, f64::max);
            for (set, ((q1, _, q3), med)) in stats.iter().zip(&medians).enumerate() {
                let spread = (q3 - q1) / med;
                // Set-up time is gated on its median only.
                let steady = m.name == "setup_s" || spread <= m.bound;
                let agrees = worst_shift <= m.bound;
                let verdict = if steady && agrees {
                    "agree"
                } else {
                    "UNRESOLVED"
                };
                unresolved += usize::from(verdict != "agree");
                println!(
                    "{workload},{},{set},{med:.4},{q1:.4},{q3:.4},{spread:.4},{},{verdict}",
                    m.name, m.bound
                );
            }
        }
    }
    if unresolved == 0 {
        println!("aa: every end-to-end metric agrees across sets within its bound");
        ExitCode::SUCCESS
    } else {
        println!("aa: {unresolved} rows unresolved");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, ..., 10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 3.0, 4.5));
    }

    #[test]
    fn result_lines_parse_back() {
        let line = "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": \
                    {\"a_b\": {\"value\": 1.25, \"unit\": \"ms\"}, \
                    \"c\": {\"value\": 3e-7, \"unit\": \"s\"}}}";
        let (correct, values) = parse_result(line).expect("parses");
        assert!(correct);
        assert_eq!(values["attempted"], 5.0);
        assert_eq!(values["failed"], 0.0);
        assert_eq!(values["a_b"], 1.25);
        assert_eq!(values["c"], 3e-7);
    }
}
