//! Diffs a fresh `target/bench-baselines.json` (written by the vendored
//! criterion stand-in on every `cargo bench` run) against the baseline
//! snapshot committed at the repo root, failing CI when a benchmark's median
//! regresses beyond a tolerance band.
//!
//! Usage: `bench_diff <committed-baseline.json> <fresh-baselines.json>`
//!
//! The tolerance is multiplicative and deliberately loose by default
//! (`ISS_BENCH_TOLERANCE`, default 4.0): the committed snapshot and the CI
//! runner are different machines, so the band only catches order-of-magnitude
//! regressions — an accidental O(n) → O(n²), a lost memoization — not
//! noise-level drift. Missing benchmarks fail the diff so renames force a
//! snapshot refresh; extra benchmarks in the fresh run are reported only.
//!
//! Exits non-zero on any violation.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Parses the stand-in's dump format: one benchmark per line,
/// `"<name>": {"median": <f64>, "mean": <f64>, "p95": <f64>}`. The writer
/// lives in `vendor/criterion`; this parser only needs to understand its
/// output, not general JSON.
fn parse_baselines(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        let Some(rest) = line.strip_prefix('"') else {
            continue;
        };
        let Some((name, rest)) = rest.split_once('"') else {
            continue;
        };
        let Some((_, rest)) = rest.split_once("\"median\":") else {
            continue;
        };
        let median: f64 = rest
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
            .collect::<String>()
            .parse()
            .unwrap_or(f64::NAN);
        if median.is_finite() {
            out.insert(name.replace("\\\"", "\"").replace("\\\\", "\\"), median);
        }
    }
    out
}

/// Extracts the optional `"recorded_cores": N` header written by the
/// stand-in's dump (absent in snapshots taken before it existed).
fn parse_recorded_cores(text: &str) -> Option<usize> {
    let (_, rest) = text.split_once("\"recorded_cores\":")?;
    rest.trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .ok()
}

fn tolerance_from_env() -> f64 {
    std::env::var("ISS_BENCH_TOLERANCE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4.0)
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else {
        format!("{:.3} ms", ns / 1_000_000.0)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let [_, committed_path, fresh_path] = &args[..] else {
        eprintln!("usage: bench_diff <committed-baseline.json> <fresh-baselines.json>");
        return ExitCode::FAILURE;
    };
    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(text) => Some(text),
        Err(e) => {
            eprintln!("bench-diff: cannot read {path}: {e}");
            None
        }
    };
    let (Some(committed_text), Some(fresh_text)) = (read(committed_path), read(fresh_path)) else {
        return ExitCode::FAILURE;
    };
    let committed = parse_baselines(&committed_text);
    let fresh = parse_baselines(&fresh_text);
    if committed.is_empty() {
        eprintln!("bench-diff: no benchmarks parsed from {committed_path}");
        return ExitCode::FAILURE;
    }
    let tolerance = tolerance_from_env();
    println!(
        "bench-diff: {} committed vs {} fresh benchmarks, tolerance {tolerance:.2}x",
        committed.len(),
        fresh.len()
    );

    let mut failures = 0usize;
    for (name, &base) in &committed {
        match fresh.get(name) {
            Some(&now) => {
                let ratio = now / base;
                let verdict = if ratio > tolerance {
                    failures += 1;
                    "REGRESSION"
                } else {
                    "ok"
                };
                println!(
                    "  {verdict:<10} {name:<48} {} -> {} ({ratio:.2}x)",
                    fmt_ns(base),
                    fmt_ns(now)
                );
            }
            None => {
                failures += 1;
                println!("  MISSING    {name:<48} (in committed baseline but not in fresh run; refresh bench-baselines.json)");
            }
        }
    }
    for name in fresh.keys() {
        if !committed.contains_key(name) {
            println!("  new        {name:<48} (not in committed baseline; consider refreshing the snapshot)");
        }
    }

    // Serial-vs-parallel verify sanity check: on a multi-core runner the
    // pooled verification path must not lose to the serial path by more than
    // the tolerance band. On a single hardware thread the parallel path
    // legitimately degenerates to serial-plus-thread-overhead, so the
    // comparison would only measure that overhead — skip it there. (The
    // "parallel" row also pays the cache witness and insert per item, which
    // the serial oracle does not: on 2 cores with a 0.3 µs MAC it reads
    // ≈ 1.4x serial, inside the band.)
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let recorded = parse_recorded_cores(&fresh_text).unwrap_or(cores);
    let serial = fresh.get("verify/verify_batch_serial_2048");
    let parallel = fresh.get("verify/verify_batch_parallel_2048");
    match (serial, parallel) {
        _ if cores == 1 || recorded == 1 => {
            println!("  skipped    verify serial-vs-parallel comparison (single hardware thread)");
        }
        (Some(&serial), Some(&parallel)) => {
            let ratio = parallel / serial;
            let verdict = if ratio > tolerance {
                failures += 1;
                "REGRESSION"
            } else {
                "ok"
            };
            println!(
                "  {verdict:<10} {:<48} {} vs {} serial ({ratio:.2}x, {cores} cores)",
                "verify/parallel_vs_serial",
                fmt_ns(parallel),
                fmt_ns(serial)
            );
        }
        _ => {
            failures += 1;
            println!("  MISSING    verify serial/parallel benchmarks absent from the fresh run");
        }
    }

    if failures > 0 {
        eprintln!(
            "bench-diff: {failures} benchmark(s) regressed beyond {tolerance:.2}x or went missing"
        );
        return ExitCode::FAILURE;
    }
    println!("bench-diff: OK");
    ExitCode::SUCCESS
}
