//! `iss-bench record <workload>… [--runs N] [--seed S]`: appends one row to
//! the repository's benchmark trajectory, `BENCH_trajectory.json`.
//!
//! Run from the repository root. For each workload it runs
//! `BENCHMARK.json`'s `command` unchanged, as a child process, `N` times
//! (default 3) with seeds counted up from `S` (default 20220405) and
//! `BENCHMARK.json`'s `run_seconds`, and reads the JSON object on the last
//! line of each run's standard output. The row holds:
//!
//! * the commit (`git rev-parse HEAD`, and whether the working tree differs
//!   from it), the UTC date, and the box: cores, CPU model and the SHA-256
//!   kernel every digest runs on;
//! * a calibration reading taken in this process: nanoseconds per SHA-256
//!   of 500 bytes and the wall time of one quick-scale Figure 8 run, so
//!   rows from different days can be normalised;
//! * per workload, the first quartile, median and third quartile of each
//!   end-to-end metric, with the values of every run;
//! * per workload, the headline per-layer metrics ([`PER_LAYER`]) of one
//!   more run with `--trace 1` and the first seed (`null` for a metric
//!   missing from its result line; the benchmark reports 0 for a metric
//!   the workload has no layer for, such as `sim_paper_scale`'s protocol
//!   thread).
//!
//! A run that exits non-zero or reports `"correct": false` or a failed
//! request aborts the recording; no row is written.

use iss_crypto::sha256::{self, Sha256};
use iss_sim::experiments::{figure8, Scale};
use std::fmt;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Where the rows go, next to `BENCHMARK.json`.
const TRAJECTORY: &str = "BENCH_trajectory.json";

/// The end-to-end metrics every row summarises.
const METRICS: [&str; 3] = ["setup_s", "throughput_rps", "cpu_us_per_req"];

/// The per-layer metrics every row carries: where a request's CPU goes in
/// the core and on the protocol thread, what a checkpoint's prune costs,
/// the peak memory, and the tail latency a batching change spends.
const PER_LAYER: [&str; 5] = [
    "core.busy_us_per_req",
    "net.proto_thread_cpu_us_per_req",
    "storage.prune_ms_mean",
    "proc.peak_rss_mb",
    "client.latency_p99_ms",
];

const USAGE: &str = "usage: iss-bench record <workload>... [--runs N] [--seed S]";

/// Runs the `record` command on its arguments (everything after `record`).
pub fn run(args: &[&str]) -> ExitCode {
    match record(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("iss-bench record: {e}");
            ExitCode::FAILURE
        }
    }
}

fn record(args: &[&str]) -> Result<(), String> {
    let (workloads, runs, seed) = parse_args(args)?;
    let spec = Json::parse(&read("BENCHMARK.json")?)?;
    let command: Vec<&str> = spec
        .get("command")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no command")?
        .iter()
        .map(|word| word.as_str().ok_or("command words must be strings"))
        .collect::<Result<_, _>>()?;
    let seconds = spec
        .get("run_seconds")
        .and_then(Json::as_f64)
        .ok_or("BENCHMARK.json has no run_seconds")?;
    let (program, fixed) = command.split_first().ok_or("empty command")?;

    let bench = |workload: &str, seed: u64, trace: bool| -> Result<Json, String> {
        let output = Command::new(program)
            .args(fixed)
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {program}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().rev().find(|l| !l.trim().is_empty());
        let result = Json::parse(last.unwrap_or_default())?;
        let correct = result.get("correct") == Some(&Json::Bool(true));
        let failed = result.get("failed").and_then(Json::as_f64);
        if !output.status.success() || !correct || failed != Some(0.0) {
            return Err(format!(
                "{workload} seed {seed}: {} (correct {correct}, failed {failed:?})",
                output.status
            ));
        }
        result
            .get("metrics")
            .cloned()
            .ok_or_else(|| format!("{workload}: no metrics in {result}"))
    };
    let value = |metrics: &Json, metric: &str| {
        metrics
            .get(metric)
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
    };

    let mut results = Vec::new();
    for workload in &workloads {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); METRICS.len()];
        for k in 0..runs {
            let seed = seed + k;
            eprintln!(
                "iss-bench record: {workload} seed {seed} ({}/{runs})",
                k + 1
            );
            let metrics = bench(workload, seed, false)?;
            for (metric, values) in METRICS.iter().zip(&mut values) {
                let value = value(&metrics, metric)
                    .ok_or_else(|| format!("{workload}: no {metric} in {metrics}"))?;
                values.push(value);
            }
        }
        let mut summary: Vec<(String, Json)> = METRICS
            .iter()
            .zip(values)
            .map(|(metric, values)| (metric.to_string(), summarise(values)))
            .collect();
        eprintln!("iss-bench record: {workload} seed {seed} traced");
        let traced = bench(workload, seed, true)?;
        let per_layer = PER_LAYER
            .iter()
            .map(|&metric| {
                let value = value(&traced, metric).map_or(Json::Null, Json::Num);
                (metric.to_string(), value)
            })
            .collect();
        summary.push(("per_layer".into(), Json::Obj(per_layer)));
        results.push((workload.to_string(), Json::Obj(summary)));
    }

    let row = Json::Obj(vec![
        ("commit".into(), Json::Str(git(&["rev-parse", "HEAD"])?)),
        (
            "dirty".into(),
            Json::Bool(!git(&["status", "--porcelain", "--untracked-files=no"])?.is_empty()),
        ),
        ("date".into(), Json::Str(utc_now())),
        ("box".into(), machine()),
        ("calibration".into(), calibrate()),
        ("runs".into(), Json::Num(runs as f64)),
        ("first_seed".into(), Json::Num(seed as f64)),
        ("workloads".into(), Json::Obj(results)),
    ]);
    let mut rows = match std::fs::read_to_string(TRAJECTORY) {
        Ok(text) => match Json::parse(&text)? {
            Json::Arr(rows) => rows,
            _ => return Err(format!("{TRAJECTORY} is not a JSON array")),
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("cannot read {TRAJECTORY}: {e}")),
    };
    println!("{row}");
    rows.push(row);
    let lines: Vec<String> = rows.iter().map(Json::to_string).collect();
    let text = format!("[\n{}\n]\n", lines.join(",\n"));
    std::fs::write(TRAJECTORY, text).map_err(|e| format!("cannot write {TRAJECTORY}: {e}"))
}

/// Workload names, `--runs` and `--seed`.
fn parse_args(args: &[&str]) -> Result<(Vec<String>, u64, u64), String> {
    let (mut workloads, mut runs, mut seed) = (Vec::new(), 3, 20220405);
    let mut words = args.iter();
    while let Some(&word) = words.next() {
        let mut number = || -> Result<u64, String> {
            let value = words.next().ok_or(format!("{word} takes a number"))?;
            value.parse().map_err(|e| format!("{word} {value}: {e}"))
        };
        match word {
            "--runs" => runs = number()?,
            "--seed" => seed = number()?,
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}; {USAGE}")),
            workload => workloads.push(workload.to_string()),
        }
    }
    if workloads.is_empty() || runs == 0 {
        return Err(USAGE.into());
    }
    Ok((workloads, runs, seed))
}

/// The quartiles and median of `values`, and the values in run order.
fn summarise(values: Vec<f64>) -> Json {
    let mut sorted = values.clone();
    sorted.sort_by(f64::total_cmp);
    Json::Obj(vec![
        ("q1".into(), Json::Num(quantile(&sorted, 0.25))),
        ("median".into(), Json::Num(quantile(&sorted, 0.5))),
        ("q3".into(), Json::Num(quantile(&sorted, 0.75))),
        (
            "values".into(),
            Json::Arr(values.into_iter().map(Json::Num).collect()),
        ),
    ])
}

/// The `q` quantile of sorted, non-empty `values`, interpolated linearly
/// between the two nearest ranks.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let at = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {path} (run from the repository root): {e}"))
}

fn git(args: &[&str]) -> Result<String, String> {
    let output = Command::new("git")
        .args(args)
        .output()
        .map_err(|e| format!("cannot run git: {e}"))?;
    if !output.status.success() {
        return Err(format!("git {} failed", args.join(" ")));
    }
    Ok(String::from_utf8_lossy(&output.stdout).trim().to_string())
}

/// Cores, CPU model and SHA-256 kernel.
fn machine() -> Json {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|l| {
                Some(
                    l.strip_prefix("model name")?
                        .trim_start_matches([' ', '\t', ':'])
                        .to_string(),
                )
            })
        })
        .unwrap_or_else(|| "unknown".into());
    Json::Obj(vec![
        ("cores".into(), Json::Num(cores as f64)),
        ("cpu".into(), Json::Str(cpu)),
        (
            "sha256_kernel".into(),
            Json::Str(sha256::kernel_name().into()),
        ),
    ])
}

/// Nanoseconds per SHA-256 of 500 bytes (the median of 11 timed loops) and
/// seconds of wall time for one quick-scale Figure 8.
fn calibrate() -> Json {
    let payload = [0u8; 500];
    const HASHES: u32 = 20_000;
    let mut loops: Vec<f64> = (0..11)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..HASHES {
                std::hint::black_box(Sha256::digest(std::hint::black_box(&payload)));
            }
            start.elapsed().as_nanos() as f64 / f64::from(HASHES)
        })
        .collect();
    loops.sort_by(f64::total_cmp);
    let start = Instant::now();
    std::hint::black_box(figure8(Scale::quick()));
    let fig8 = start.elapsed().as_secs_f64();
    Json::Obj(vec![
        ("sha256_500B_ns".into(), Json::Num(loops[loops.len() / 2])),
        ("fig8_quick_s".into(), Json::Num(fig8)),
    ])
}

/// The current UTC time as `YYYY-MM-DDTHH:MM:SSZ`.
fn utc_now() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (days, rest) = (secs / 86_400, secs % 86_400);
    // Days since 1970-01-01 to a civil date (Howard Hinnant's algorithm).
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rest / 3600,
        rest / 60 % 60,
        rest % 60
    )
}

/// A JSON value: just enough to read `BENCHMARK.json` and a run's result
/// line, and to read and write the trajectory.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Members in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = parser.value()?;
        parser.space();
        if parser.at != parser.bytes.len() {
            return Err(parser.error("trailing characters"));
        }
        Ok(value)
    }

    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Compact JSON.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) if n.is_finite() => write!(f, "{n}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    let comma = if i > 0 { ", " } else { "" };
                    write!(f, "{comma}{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(members) => {
                f.write_str("{")?;
                for (i, (key, value)) in members.iter().enumerate() {
                    f.write_str(if i > 0 { ", " } else { "" })?;
                    write_str(f, key)?;
                    write!(f, ": {value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.at)
    }

    fn space(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        let found = self.bytes[self.at..].starts_with(literal.as_bytes());
        if found {
            self.at += literal.len();
        }
        found
    }

    fn value(&mut self) -> Result<Json, String> {
        self.space();
        match self.bytes.get(self.at) {
            Some(b'{') => {
                self.at += 1;
                let mut members = Vec::new();
                self.space();
                if self.eat("}") {
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.space();
                    let key = self.string()?;
                    self.space();
                    if !self.eat(":") {
                        return Err(self.error("expected ':'"));
                    }
                    members.push((key, self.value()?));
                    self.space();
                    if self.eat("}") {
                        return Ok(Json::Obj(members));
                    }
                    if !self.eat(",") {
                        return Err(self.error("expected ',' or '}'"));
                    }
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.space();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.space();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    if !self.eat(",") {
                        return Err(self.error("expected ',' or ']'"));
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            _ if self.eat("true") => Ok(Json::Bool(true)),
            _ if self.eat("false") => Ok(Json::Bool(false)),
            _ if self.eat("null") => Ok(Json::Null),
            _ => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
                {
                    self.at += 1;
                }
                let number = std::str::from_utf8(&self.bytes[start..self.at]).unwrap_or("");
                number
                    .parse()
                    .map(Json::Num)
                    .map_err(|_| self.error("expected a value"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.error("expected a string"));
        }
        let mut out = Vec::new();
        loop {
            let Some(&byte) = self.bytes.get(self.at) else {
                return Err(self.error("unterminated string"));
            };
            self.at += 1;
            match byte {
                b'"' => break,
                b'\\' => {
                    let Some(&escape) = self.bytes.get(self.at) else {
                        return Err(self.error("unterminated escape"));
                    };
                    self.at += 1;
                    let c = match escape {
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let hex = self.bytes.get(self.at..self.at + 4).unwrap_or_default();
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            self.at += 4;
                            char::from_u32(code).unwrap_or(char::REPLACEMENT_CHARACTER)
                        }
                        other => other as char,
                    };
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                byte => out.push(byte),
            }
        }
        String::from_utf8(out).map_err(|_| self.error("invalid UTF-8"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_result_line_and_a_row_roundtrip() {
        let line = r#"{"correct": true, "attempted": 200000, "failed": 0, "metrics": {"setup_s": {"value": 0.138, "unit": "s"}, "note": "a \"b\"\né"}}"#;
        let parsed = Json::parse(line).unwrap();
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        let setup = parsed.get("metrics").and_then(|m| m.get("setup_s"));
        assert_eq!(setup.and_then(|s| s.get("value")), Some(&Json::Num(0.138)));
        assert_eq!(Json::parse(&parsed.to_string()).unwrap(), parsed);
        assert!(Json::parse("{\"a\": 1} x").is_err());
        assert!(Json::parse("[1, 2").is_err());
    }

    #[test]
    fn quartiles_interpolate_between_ranks() {
        let summary = summarise(vec![4.0, 1.0, 3.0, 2.0]);
        let get = |k| summary.get(k).and_then(Json::as_f64).unwrap();
        assert_eq!((get("q1"), get("median"), get("q3")), (1.75, 2.5, 3.25));
        assert_eq!(
            parse_args(&["tcp_wal_open", "--runs", "5", "--seed", "7"]).unwrap(),
            (vec!["tcp_wal_open".to_string()], 5, 7)
        );
        assert!(parse_args(&["--runs", "5"]).is_err());
    }

    #[test]
    fn dates_are_civil_utc() {
        let date = utc_now();
        assert_eq!(date.len(), 20, "{date}");
        assert!(date.starts_with("20") && date.ends_with('Z'), "{date}");
    }
}
