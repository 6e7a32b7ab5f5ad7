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

    if failures > 0 {
        eprintln!(
            "bench-diff: {failures} benchmark(s) regressed beyond {tolerance:.2}x or went missing"
        );
        return ExitCode::FAILURE;
    }
    println!("bench-diff: OK");
    ExitCode::SUCCESS
}
