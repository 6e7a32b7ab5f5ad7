//! `iss-bench <command>`: regenerates the paper's Table 1 and Figures 5–12
//! on the simulated WAN, runs the CI smokes and diffs micro-bench baselines.
//!
//! * `table1`, `fig5` … `fig12` — print one table or figure series each,
//!   at `ISS_SCALE` (`quick`, `default` or `paper`; the benchmark scale
//!   `default` when unset).
//! * `smoke {experiments|recovery|byzantine|telemetry}` — run one CI gate
//!   at `ISS_SCALE` (`quick` when unset) and exit non-zero when it fails.
//! * `point <series> <nodes> [--seconds S]` — run one Figure 5 point (a
//!   series label of the figure, e.g. `ISS-PBFT`, at `nodes` replicas) at
//!   `ISS_SCALE`, `S` virtual seconds long when given; print the wall time,
//!   then a fingerprint line that two runs of the same point must repeat.
//! * `diff <committed.json> <fresh.json>` — compare micro-bench medians.
//! * `record <workload>… [--runs N] [--seed S]` — run `BENCHMARK.json`'s
//!   command and append a row to `BENCH_trajectory.json` (see [`record`]).
//!
//! `ISS_FAULT_NODES` overrides the cluster size of the fault experiments
//! (figures 7–9) under every command.

use iss_bench::scale_for;
use iss_core::Mode;
use iss_net::TcpCluster;
use iss_sim::experiments::{
    attack_matrix, figure11, figure12, figure5, figure5_scenario, figure6, figure7, figure8,
    scenario_bursty, scenario_crash_restart, scenario_lossy_window, scenario_partition_heal,
    scenario_skewed, throughput_timeline, Scale, FIGURE5_SERIES,
};
use iss_sim::{CrashTiming, Protocol, Report, Scenario, TopologySpec, CENSORSHIP_EPOCH_BOUND};
use iss_telemetry::{Phase, TelemetrySnapshot};
use iss_types::{Duration, IssConfig, MsgClass, NodeId};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

mod record;

const USAGE: &str = "usage: iss-bench <command>
  table1 | fig5 | fig6 | fig7 | fig8 | fig9 | fig10 | fig11 | fig12
  smoke experiments | smoke recovery | smoke byzantine | smoke telemetry
  point <series> <nodes> [--seconds S]
  diff <committed-baseline.json> <fresh-baselines.json>
  record <workload>... [--runs N] [--seed S]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let scale = scale_for(args.first().copied().unwrap_or_default());
    match args[..] {
        ["table1"] => table1(),
        ["fig5"] => fig5(scale),
        ["fig6"] => fig6(scale),
        ["fig7"] => fig7(scale),
        ["fig8"] => fig8(scale),
        ["fig9"] => fig9(scale),
        ["fig10"] => fig10(scale),
        ["fig11"] => fig11(scale),
        ["fig12"] => fig12(scale),
        ["smoke", "experiments"] => return smoke_experiments(scale),
        ["smoke", "recovery"] => return smoke_recovery(scale),
        ["smoke", "byzantine"] => smoke_byzantine(scale),
        ["smoke", "telemetry"] => return smoke_telemetry(),
        ["point", series, nodes] => return point(series, nodes, None, scale),
        ["point", series, nodes, "--seconds", seconds] => {
            return point(series, nodes, Some(seconds), scale)
        }
        ["diff", committed, fresh] => return diff(committed, fresh),
        ["record", ref rest @ ..] => return record::run(rest),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// `point <series> <nodes> [--seconds S]`: one Figure 5 scenario, timed on
/// the wall clock. The fingerprint line (last) holds the counts a seeded
/// run must reproduce bit for bit.
fn point(series: &str, nodes: &str, seconds: Option<&str>, scale: Scale) -> ExitCode {
    let Ok(nodes) = nodes.parse::<usize>() else {
        eprintln!("point: <nodes> must be a number, got {nodes:?}");
        return ExitCode::FAILURE;
    };
    let duration_secs = match seconds.map(str::parse::<u64>) {
        None => scale.duration_secs,
        Some(Ok(s)) if s > 0 => s,
        Some(_) => {
            eprintln!("point: --seconds must be a positive number of seconds");
            return ExitCode::FAILURE;
        }
    };
    let scale = Scale {
        duration_secs,
        ..scale
    };
    let Some(scenario) = figure5_scenario(series, nodes, scale) else {
        let names: Vec<&str> = FIGURE5_SERIES.iter().map(|(name, _, _)| *name).collect();
        eprintln!(
            "point: unknown series {series:?}; one of {}",
            names.join(", ")
        );
        return ExitCode::FAILURE;
    };
    let start = Instant::now();
    let report = scenario.run();
    println!("wall_s {:.2}", start.elapsed().as_secs_f64());
    println!(
        "{series} n={nodes} {duration_secs}s: delivered {} messages_sent {} bytes_sent {} \
         throughput_bits {:#018x} ({:.0} req/s)",
        report.delivered,
        report.messages_sent,
        report.bytes_sent,
        report.throughput.to_bits(),
        report.throughput
    );
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// Table 1 and the figures.
// ---------------------------------------------------------------------------

/// Prints the header every table and figure starts with.
fn header(figure: &str, description: &str) {
    println!("# {figure}: {description}");
    println!("# (reproduction on the simulated 16-datacenter WAN; see EXPERIMENTS.md)");
}

/// Prints a throughput timeline, one line per 1 s bin.
fn print_timeline(timeline: &[u64]) {
    for (second, tput) in timeline.iter().enumerate() {
        println!("t={second:>3}s  {tput:>8} req/s");
    }
}

/// Table 1: the ISS configuration parameters used in the evaluation.
fn table1() {
    header("Table 1", "ISS configuration parameters used in evaluation");
    let n = 32;
    let configs = [
        IssConfig::pbft(n),
        IssConfig::hotstuff(n),
        IssConfig::raft(n),
    ];
    println!(
        "{:<26} {:>12} {:>12} {:>12}",
        "parameter", "PBFT", "HotStuff", "Raft"
    );
    let row = |name: &str, f: &dyn Fn(&IssConfig) -> String| {
        println!(
            "{:<26} {:>12} {:>12} {:>12}",
            name,
            f(&configs[0]),
            f(&configs[1]),
            f(&configs[2])
        );
    };
    row("Initial leaderset size", &|c| {
        format!("|N|={}", c.num_nodes)
    });
    row("Max batch size", &|c| c.max_batch_size.to_string());
    row("Batch rate (b/s)", &|c| {
        c.batch_rate.map(|r| r.to_string()).unwrap_or("n/a".into())
    });
    row("Min batch timeout (s)", &|c| {
        format!("{:.0}", c.min_batch_timeout.as_secs_f64())
    });
    row("Max batch timeout (s)", &|c| {
        format!("{:.0}", c.max_batch_timeout.as_secs_f64())
    });
    row("Min epoch length", &|c| c.min_epoch_length.to_string());
    row("Min segment size", &|c| c.min_segment_size.to_string());
    row("Epoch change timeout (s)", &|c| {
        format!("{:.0}", c.epoch_change_timeout.as_secs_f64())
    });
    row("Buckets per leader", &|c| c.buckets_per_leader.to_string());
    row("Client signatures", &|c| {
        if c.client_signatures {
            "256-bit".into()
        } else {
            "none".into()
        }
    });
}

/// Figure 5: scalability of the single-leader protocols, their ISS
/// counterparts and Mir-BFT (peak throughput vs number of nodes).
fn fig5(scale: Scale) {
    header("Figure 5", "peak throughput (kreq/s) vs number of nodes");
    let points = figure5(scale);
    println!("{:<14} {:>6} {:>14}", "series", "nodes", "kreq/s");
    for p in points {
        println!("{:<14} {:>6} {:>14.1}", p.series, p.nodes, p.kreq_per_sec);
    }
}

/// Figure 6: latency over throughput for increasing load (ISS vs single
/// leader) for PBFT, HotStuff and Raft.
fn fig6(scale: Scale) {
    header(
        "Figure 6",
        "latency (s) over throughput (kreq/s) for increasing load",
    );
    for protocol in [Protocol::Pbft, Protocol::HotStuff, Protocol::Raft] {
        println!("--- {} ---", protocol.name());
        for p in figure6(protocol, scale) {
            println!(
                "{:<30} {:>10.2} kreq/s {:>8.2} s",
                p.series, p.kreq_per_sec, p.latency_secs
            );
        }
    }
}

/// Figure 7: impact of the leader-selection policies on mean and tail
/// latency under one epoch-start / epoch-end crash fault.
fn fig7(scale: Scale) {
    header(
        "Figure 7",
        "leader selection policies under one crash (mean / 95th pct latency)",
    );
    for row in figure7(scale) {
        println!(
            "{:<10} {:<12} mean {:>7.2} s   p95 {:>7.2} s",
            row.policy, row.timing, row.mean_secs, row.p95_secs
        );
    }
}

/// Figure 8: impact of crash faults on mean and tail latency for increasing
/// experiment duration (Blacklist policy).
fn fig8(scale: Scale) {
    header(
        "Figure 8",
        "crash faults vs experiment duration (Blacklist policy)",
    );
    for row in figure8(scale) {
        println!(
            "f={} {:<12} duration {:>4} s   mean {:>7.2} s   p95 {:>7.2} s",
            row.faults, row.timing, row.duration_secs, row.mean_secs, row.p95_secs
        );
    }
}

/// Figure 9: ISS-PBFT throughput over time (1 s bins) with one crash fault
/// at the beginning (a) and end (b) of the first epoch.
fn fig9(scale: Scale) {
    header(
        "Figure 9",
        "ISS-PBFT throughput over time with one crash fault",
    );
    for (label, timing) in [
        ("(a) epoch-start", CrashTiming::EpochStart),
        ("(b) epoch-end", CrashTiming::EpochEnd),
    ] {
        let report = throughput_timeline(Mode::Iss, timing, scale);
        println!(
            "--- {label} crash; epoch ends: {:?} ---",
            report
                .epochs
                .iter()
                .map(|(e, t)| (*e, t.as_secs_f64()))
                .collect::<Vec<_>>()
        );
        print_timeline(&report.timeline);
    }
}

/// Figure 10: Mir-BFT throughput over time with one epoch-start crash
/// (periodic zero-throughput windows at every epoch change, long stalls when
/// the crashed node is the epoch primary).
fn fig10(scale: Scale) {
    header(
        "Figure 10",
        "Mir-BFT throughput over time with one epoch-start crash",
    );
    let report = throughput_timeline(Mode::Mir, CrashTiming::EpochStart, scale);
    print_timeline(&report.timeline);
}

/// Figure 11: ISS-PBFT latency over throughput with an increasing number of
/// Byzantine stragglers.
fn fig11(scale: Scale) {
    header(
        "Figure 11",
        "latency over throughput with Byzantine stragglers",
    );
    for p in figure11(scale) {
        println!(
            "{:<16} {:>8.2} kreq/s   mean latency {:>7.2} s",
            p.series, p.kreq_per_sec, p.latency_secs
        );
    }
}

/// Figure 12: ISS-PBFT throughput over time with one Byzantine straggler
/// (spikes whenever the straggler's batch finally commits).
fn fig12(scale: Scale) {
    header(
        "Figure 12",
        "ISS-PBFT throughput over time with one Byzantine straggler",
    );
    let report = figure12(scale);
    print_timeline(&report.timeline);
    println!("# nil (⊥) entries committed: {}", report.nil_committed);
}

// ---------------------------------------------------------------------------
// The CI smokes.
// ---------------------------------------------------------------------------

fn verdict(ok: bool) -> &'static str {
    if ok {
        "ok"
    } else {
        "FAIL"
    }
}

fn check(ok: bool, what: &str, failures: &mut u32) {
    println!("  {:<4} {what}", verdict(ok));
    if !ok {
        *failures += 1;
    }
}

fn finite_nonneg(x: f64) -> bool {
    x.is_finite() && x >= 0.0
}

/// Experiment-matrix smoke: iterates every scripted experiment besides
/// figure 8 (figures 5, 6, 7, 11 and 12), plus the beyond-the-paper
/// Scenario-API shapes (bursty workload, Zipf-skewed workload,
/// heal-after-partition, lossy-link window), and asserts the output is
/// non-empty and shape-sane, so CI exercises the full scenario matrix
/// instead of the fig8 path only.
///
/// "Shape-sane" deliberately stops short of asserting absolute numbers —
/// quick scale is tiny and noisy by design — but every series must exist,
/// every statistic must be finite and non-negative, and the workloads must
/// actually deliver traffic.
fn smoke_experiments(scale: Scale) -> ExitCode {
    let mut failures = 0u32;
    println!(
        "# experiment-matrix smoke ({} nodes for fault runs)",
        scale.fault_nodes
    );

    // Figure 5: every series present at every node count, finite
    // throughputs, and the ISS series must move actual traffic.
    let f5 = figure5(scale);
    println!("figure5: {} points", f5.len());
    check(
        f5.len() == 7 * scale.node_counts.len(),
        "figure5 has 7 series x node counts",
        &mut failures,
    );
    check(
        f5.iter().all(|p| finite_nonneg(p.kreq_per_sec)),
        "figure5 throughputs finite",
        &mut failures,
    );
    check(
        f5.iter()
            .filter(|p| p.series.starts_with("ISS"))
            .all(|p| p.kreq_per_sec > 0.0),
        "figure5 ISS series deliver traffic",
        &mut failures,
    );

    // Figure 6: latency/throughput curves for ISS vs single-leader.
    let f6 = figure6(Protocol::Pbft, scale);
    println!("figure6: {} points", f6.len());
    check(
        f6.len() == scale.node_counts.len() * 2 * 4,
        "figure6 has 2 modes x 4 load points",
        &mut failures,
    );
    check(
        f6.iter()
            .all(|p| finite_nonneg(p.kreq_per_sec) && finite_nonneg(p.latency_secs)),
        "figure6 stats finite",
        &mut failures,
    );
    check(
        f6.iter().any(|p| p.kreq_per_sec > 0.0),
        "figure6 delivers traffic",
        &mut failures,
    );

    // Figure 7: one bar per (policy, crash timing).
    let f7 = figure7(scale);
    println!("figure7: {} rows", f7.len());
    check(
        f7.len() == 6,
        "figure7 has 3 policies x 2 crash timings",
        &mut failures,
    );
    check(
        f7.iter()
            .all(|r| finite_nonneg(r.mean_secs) && finite_nonneg(r.p95_secs)),
        "figure7 latencies finite",
        &mut failures,
    );
    check(
        f7.iter().any(|r| r.mean_secs > 0.0),
        "figure7 measures latency despite the crash",
        &mut failures,
    );

    // Figure 11: straggler sweep.
    let f11 = figure11(scale);
    println!("figure11: {} points", f11.len());
    check(!f11.is_empty(), "figure11 non-empty", &mut failures);
    check(
        f11.iter()
            .all(|p| finite_nonneg(p.kreq_per_sec) && finite_nonneg(p.latency_secs)),
        "figure11 stats finite",
        &mut failures,
    );
    check(
        f11.iter().any(|p| p.kreq_per_sec > 0.0),
        "figure11 delivers traffic",
        &mut failures,
    );

    // Figure 12: throughput timeline with one straggler.
    let f12 = figure12(scale);
    println!(
        "figure12: {} timeline buckets, {} delivered",
        f12.timeline.len(),
        f12.delivered
    );
    check(
        f12.delivered > 0,
        "figure12 delivers traffic",
        &mut failures,
    );
    check(
        !f12.timeline.is_empty(),
        "figure12 timeline non-empty",
        &mut failures,
    );
    check(
        f12.timeline.iter().sum::<u64>() > 0,
        "figure12 timeline carries the deliveries",
        &mut failures,
    );

    // Beyond-the-paper scenarios (Scenario API): a bursty workload must
    // leave visibly idle seconds between bursts.
    let bursty = scenario_bursty(scale);
    println!(
        "scenario bursty: {} delivered over {} timeline buckets",
        bursty.delivered,
        bursty.timeline.len()
    );
    check(
        bursty.delivered > 0,
        "bursty delivers traffic",
        &mut failures,
    );
    let peak = bursty.timeline.iter().copied().max().unwrap_or(0);
    check(
        peak > 0 && bursty.timeline.iter().any(|b| *b < peak / 4),
        "bursty timeline alternates busy and near-idle seconds",
        &mut failures,
    );

    // Zipf-skewed per-client rates still make it through the buckets.
    let skewed = scenario_skewed(scale);
    println!("scenario skewed: {} delivered", skewed.delivered);
    check(
        skewed.delivered > 0,
        "skewed delivers traffic",
        &mut failures,
    );
    check(
        finite_nonneg(skewed.mean_latency.as_secs_f64()),
        "skewed latency finite",
        &mut failures,
    );

    // Heal-after-partition: the partition must actually drop traffic, the
    // 3-of-4 quorum keeps committing, and deliveries continue after heal.
    let partition = scenario_partition_heal(scale);
    println!(
        "scenario partition-heal: {} delivered, {} dropped",
        partition.delivered, partition.messages_dropped
    );
    check(
        partition.delivered > 0,
        "partition-heal delivers traffic",
        &mut failures,
    );
    check(
        partition.messages_dropped > 0,
        "partition drops cross-group traffic",
        &mut failures,
    );
    check(
        partition.timeline.iter().skip(20).sum::<u64>() > 0,
        "deliveries resume after the heal and view change",
        &mut failures,
    );
    // The recovery-gap bound. The total order stalls at the isolated
    // leader's first in-flight slot (its dropped pre-prepares are never
    // retransmitted), so after the heal at t=6 s the stall resolves through
    // the epoch change: the 10 s epoch-change timeout fires, the view
    // change ⊥-resolves the dead slots and delivery resumes. The gap is
    // therefore bounded by heal + timeout + a few seconds of view-change
    // rounds; blowing past it means the recovery path needed a *second*
    // timeout period (e.g. a botched epoch change re-stalling the log).
    const HEAL_S: usize = 6;
    const EPOCH_CHANGE_TIMEOUT_S: usize = 10; // IssConfig::pbft default
    const VIEW_CHANGE_SLACK_S: usize = 5;
    let resumed_at = partition
        .timeline
        .iter()
        .enumerate()
        .skip(HEAL_S)
        .find(|(_, &per_sec)| per_sec > 0)
        .map(|(second, _)| second);
    println!(
        "scenario partition-heal: deliveries resumed at t={resumed_at:?} s (heal at {HEAL_S} s)"
    );
    check(
        matches!(
            resumed_at,
            Some(second) if second < HEAL_S + EPOCH_CHANGE_TIMEOUT_S + VIEW_CHANGE_SLACK_S
        ),
        "heal-recovery gap bounded by one epoch-change timeout",
        &mut failures,
    );

    // Lossy-link window: loss is injected, yet the run completes.
    let lossy = scenario_lossy_window(scale);
    println!(
        "scenario lossy-window: {} delivered, {} dropped",
        lossy.delivered, lossy.messages_dropped
    );
    check(
        lossy.delivered > 0,
        "lossy window delivers traffic",
        &mut failures,
    );
    check(
        lossy.messages_dropped > 0,
        "lossy window drops messages",
        &mut failures,
    );

    if failures > 0 {
        eprintln!("experiment-matrix smoke: {failures} check(s) failed");
        return ExitCode::FAILURE;
    }
    println!("experiment-matrix smoke: OK");
    ExitCode::SUCCESS
}

/// Crash-restart recovery smoke: runs the crash-restart scenario (node 1
/// down for a window, rebooting from its durable storage) and prints every
/// number a recovery produces — WAL entries replayed, snapshot chunks
/// installed, catch-up time in whole microseconds of virtual time — plus
/// the headline delivery counters.
///
/// The output is purely a function of the simulation seed, so CI runs this
/// smoke twice and diffs the bytes: the durable-storage path (WAL replay,
/// the catch-up request, snapshot assembly and the state response) is
/// covered by the same same-seed-same-bytes gate as the fault-free figures,
/// and its output is also committed as a golden. It also
/// enforces the recovery-latency bound — catch-up must take well under the
/// ≈10 s epoch-change timeout a snapshot-less rejoin would wait out.
fn smoke_recovery(scale: Scale) -> ExitCode {
    let report = scenario_crash_restart(scale);
    println!("# crash-restart recovery smoke");
    println!("delivered {}", report.delivered);
    println!("nil_committed {}", report.nil_committed);
    println!("messages_dropped {}", report.messages_dropped);
    println!("recoveries {}", report.recoveries.len());
    for r in &report.recoveries {
        println!(
            "recovery node={} started_us={} completed_us={} wal_entries={} snapshot_chunks={} \
             catch_up_us={}",
            r.node.0,
            r.started_at.as_micros(),
            r.completed_at.as_micros(),
            r.entries_replayed,
            r.snapshot_chunks,
            r.time_to_catch_up().as_micros()
        );
    }

    let Some(recovery) = report.recoveries.iter().find(|r| r.node == NodeId(1)) else {
        eprintln!("recovery smoke: restarted node never completed recovery");
        return ExitCode::FAILURE;
    };
    if recovery.entries_replayed == 0 && recovery.snapshot_chunks == 0 {
        eprintln!("recovery smoke: recovery bypassed the durable-storage path");
        return ExitCode::FAILURE;
    }
    if recovery.time_to_catch_up() >= Duration::from_secs(2) {
        eprintln!(
            "recovery smoke: catch-up took {:?} — not well under the epoch-change timeout",
            recovery.time_to_catch_up()
        );
        return ExitCode::FAILURE;
    }
    println!("recovery smoke: OK");
    ExitCode::SUCCESS
}

/// Byzantine attack-matrix smoke: runs every adversarial scenario of
/// [`attack_matrix`] — equivocating leader, censoring leader, Byzantine
/// clients (conflicting + duplicate/replayed requests), malformed and
/// oversized proposals, and the combined equivocation+censor acceptance
/// attack — and asserts the cluster-wide gates on each:
///
/// * **Safety** is checked inline by the delivery checker on every delivery
///   of every node (agreement + no duplicate delivery); a violation panics.
/// * **Liveness**: epochs keep advancing under leader misbehavior, requests
///   keep being delivered, and — for censoring scenarios — every censored
///   request is delivered within [`CENSORSHIP_EPOCH_BOUND`] epochs of its
///   bucket rotating to a correct leader (Section 4.3's rotation defense).
/// * **Determinism**: each scenario is run twice in-process and the two
///   reports must compare equal, so the adversarial machinery is covered by
///   the same same-seed-same-bytes gate as the fault-free figures.
///
/// The output is purely a function of the simulation seed; CI also runs the
/// whole smoke twice and diffs the bytes.
fn smoke_byzantine(scale: Scale) {
    println!("# byzantine attack matrix smoke");
    for (name, scenario) in attack_matrix(scale) {
        let report = scenario.clone().run();
        let again = scenario.run();
        assert_eq!(
            report, again,
            "{name}: same-seed adversarial runs must be bit-identical"
        );
        check_attack_gates(name, &report);
        let gates = report.adversary.as_ref().expect("checked above");
        let rejected: u64 = report.rejected_requests.iter().map(|(_, c)| c).sum();
        println!(
            "attack {name}: throughput_kreq_s {:.2} mean_ms {} p95_ms {} delivered {} nil {} \
             epochs {} rejected {rejected} rejected_proposals {} replayed {} \
             censored_checked {} censored_missed {}",
            report.throughput / 1000.0,
            report.mean_latency.as_micros() / 1000,
            report.p95_latency.as_micros() / 1000,
            report.delivered,
            report.nil_committed,
            gates.epoch_advances,
            gates.rejected_proposals_total,
            gates.replayed_total,
            gates.censored_checked,
            gates.censored_missed,
        );
        println!("attack {name}: gates ok, double-run identical");
    }
    println!("# all attack gates passed");
}

fn check_attack_gates(name: &str, report: &Report) {
    assert!(
        report.delivered > 0,
        "{name}: the correct quorum must keep delivering requests"
    );
    let gates = report
        .adversary
        .as_ref()
        .unwrap_or_else(|| panic!("{name}: adversarial run must carry a gate verdict"));
    // Duplicate-in-batch recovery can stack several view-change rounds per
    // epoch at quick scale, so the generic liveness floor is two epoch
    // advances; the combined-attack unit test holds the stricter >= 3.
    assert!(
        gates.epoch_advances >= 2,
        "{name}: epochs must keep advancing under the attack (saw {})",
        gates.epoch_advances
    );
    assert!(
        gates.censorship_gate_ok(),
        "{name}: {} of {} censored requests missed the {CENSORSHIP_EPOCH_BOUND}-epoch \
         delivery bound",
        gates.censored_missed,
        gates.censored_checked
    );
    if name.contains("censor") || name.contains("combined") {
        assert!(
            gates.censored_checked > 0,
            "{name}: the censored bucket must receive requests"
        );
    }
    if name.contains("malformed") || name.contains("oversized") {
        assert!(
            gates.rejected_proposals_total > 0,
            "{name}: correct followers must refuse to vote for the malformed proposals"
        );
    }
    if name.contains("byzantine") {
        assert!(
            gates.rejected_total > 0,
            "{name}: intake validation must reject the malicious client traffic"
        );
        assert!(
            gates.replayed_total > 0,
            "{name}: replayed requests must be classified as Error::Replayed"
        );
    }
    if name.contains("equivocating") || name.contains("combined") {
        assert!(
            report.nil_committed > 0,
            "{name}: the starved instances must resolve to \u{22a5}"
        );
    }
}

/// Telemetry smoke: exercises the engine-agnostic telemetry subsystem under
/// both runtimes and gates on its invariants.
///
/// **Simnet section** — a fig8-style 4-node ISS-PBFT run with telemetry
/// enabled. Every number printed is derived from virtual time, so the whole
/// section is a pure function of the seed: CI double-runs this smoke and
/// diffs the bytes. The section additionally re-runs the identical scenario
/// in-process and asserts the two snapshots' rendered exports (summary table
/// *and* JSONL timeline) are byte-identical — the determinism claim of the
/// telemetry subsystem itself, not just of the simulation around it.
///
/// **TCP section** — a 4-node loopback cluster with telemetry enabled, run
/// briefly on the wall clock. Wall-clock latencies vary run to run, so this
/// section prints invariant verdicts only (histogram shape, span retention,
/// transport counters), never timings — keeping the smoke's stdout as a
/// whole byte-stable for the determinism gate.
fn smoke_telemetry() -> ExitCode {
    println!("# telemetry smoke: spans + histograms + profiling under both engines");
    let simnet_ok = telemetry_simnet();
    let tcp_ok = telemetry_tcp();
    if simnet_ok && tcp_ok {
        println!("telemetry smoke: OK");
        ExitCode::SUCCESS
    } else {
        eprintln!("telemetry smoke: FAILED");
        ExitCode::FAILURE
    }
}

fn simnet_snapshot(seed: u64) -> TelemetrySnapshot {
    let report = Scenario::builder(Protocol::Pbft, 4)
        .seed(seed)
        .open_loop(8, 2_000.0)
        .duration(Duration::from_secs(8))
        .warmup(Duration::from_secs(2))
        .telemetry(true)
        .build()
        .run();
    report
        .telemetry
        .expect("telemetry-enabled scenario must produce a snapshot")
}

/// Shared shape checks: every commit-path phase saw traffic and its
/// histogram is internally consistent (min ≤ p50 ≤ p99 ≤ max).
fn check_phases(snapshot: &TelemetrySnapshot, section: &str) -> bool {
    let mut ok = true;
    for phase in Phase::ALL {
        let h = snapshot.phase(phase);
        let shape = !h.is_empty() && h.min() <= h.p50() && h.p50() <= h.p99() && h.p99() <= h.max();
        println!(
            "{section}: phase {:<15} populated and ordered: {}",
            phase.label(),
            verdict(shape)
        );
        ok &= shape;
    }
    ok
}

fn telemetry_simnet() -> bool {
    println!("## simnet: 4-node ISS-PBFT, 8 clients, 2000 req/s offered, 8 s virtual");
    let snapshot = simnet_snapshot(8);
    print!("{}", snapshot.render_table());

    let mut ok = check_phases(&snapshot, "simnet");

    // The node profile: proposal processing must dominate the node's
    // attributed CPU (~70% of its cycles, most of it in proposal
    // validation/digesting).
    let total = snapshot.cpu_total_us();
    let proposal = snapshot.cpu_us[MsgClass::Proposal as usize];
    let proposal_pct = 100 * proposal / total.max(1);
    println!("simnet: cpu attributed total_us={total} proposal_pct={proposal_pct}");
    let cpu_ok = total > 0 && proposal * 2 > total;
    println!(
        "simnet: proposal processing dominates attributed cpu: {}",
        verdict(cpu_ok)
    );
    ok &= cpu_ok;

    // Same seed, same virtual world — the exports must match byte for byte.
    let again = simnet_snapshot(8);
    let stable =
        snapshot.render_table() == again.render_table() && snapshot.to_jsonl() == again.to_jsonl();
    println!(
        "simnet: same-seed re-run renders byte-identical exports: {}",
        verdict(stable)
    );
    ok && stable
}

fn telemetry_tcp() -> bool {
    println!("## tcp: 4-node loopback cluster, 4 clients, telemetry on");
    let scenario = Scenario::builder(Protocol::Pbft, 4)
        .topology(TopologySpec::Lan(Duration::from_millis(1)))
        .open_loop(4, 800.0)
        .duration(Duration::from_secs(30))
        .telemetry(true)
        .build();
    let cluster = TcpCluster::launch(&scenario, None).expect("cluster boots");
    let metrics = cluster.metrics();
    // Run until real traffic has flowed end to end (bounded by a deadline so
    // a wedged cluster fails loudly instead of hanging CI).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        std::thread::sleep(std::time::Duration::from_millis(200));
        let delivered = {
            let m = metrics.lock().expect("metrics poisoned");
            cluster
                .node_ids()
                .iter()
                .map(|n| m.checker.delivered_at(*n))
                .min()
                .unwrap_or(0)
        };
        if delivered >= 200 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "tcp cluster failed to deliver 200 requests per node within 30 s"
        );
    }
    let snapshot = cluster
        .telemetry_snapshot()
        .expect("telemetry-enabled cluster must produce a snapshot");
    let mut ok = check_phases(&snapshot, "tcp");
    if let Some(violation) = &metrics.lock().expect("metrics poisoned").violation {
        eprintln!("tcp: {violation}");
        ok = false;
    }

    let spans_ok = !snapshot.spans.is_empty();
    println!("tcp: span timeline retained records: {}", verdict(spans_ok));
    ok &= spans_ok;

    // Transport gauges stamped from the runtimes' NetStats: every replica
    // dials 3 peers, so the merged snapshot must carry per-peer frame/byte
    // series, and nothing should have been dropped on an idle loopback.
    let gauge_sum = |gauge: &str| -> u64 {
        snapshot
            .gauges
            .iter()
            .filter(|((name, _), _)| *name == gauge)
            .map(|(_, g)| g.max)
            .sum()
    };
    let net_ok = gauge_sum("net.frames_sent") > 0;
    let drops_ok = gauge_sum("net.writer_drops") == 0;
    println!(
        "tcp: per-peer frames_sent gauges populated: {}",
        verdict(net_ok)
    );
    println!(
        "tcp: writer queues dropped nothing under light load: {}",
        verdict(drops_ok)
    );
    ok &= net_ok && drops_ok;
    cluster.shutdown();
    ok
}

// ---------------------------------------------------------------------------
// Micro-bench baseline diff.
// ---------------------------------------------------------------------------

/// Diffs a fresh `target/bench-baselines.json` (written by the vendored
/// criterion stand-in on every `cargo bench` run) against the baseline
/// snapshot committed at the repo root, failing when a benchmark's median
/// regresses beyond a tolerance band.
///
/// The first line names the SHA-256 kernel this process hashes with next to
/// the `"sha256_kernel"` the committed snapshot was recorded under, and
/// flags a mismatch: medians taken under different kernels do not compare.
///
/// The tolerance is multiplicative and deliberately loose by default
/// (`ISS_BENCH_TOLERANCE`, default 4.0): the committed snapshot and the CI
/// runner are different machines, so the band only catches order-of-magnitude
/// regressions — an accidental O(n) → O(n²), a lost memoization — not
/// noise-level drift. Missing benchmarks fail the diff so renames force a
/// snapshot refresh; extra benchmarks in the fresh run are reported only.
fn diff(committed_path: &str, fresh_path: &str) -> ExitCode {
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
    let kernel = iss_crypto::sha256::kernel_name();
    let recorded = baseline_kernel(&committed_text).unwrap_or("unrecorded");
    println!(
        "bench-diff: sha256 kernel {kernel}, committed baseline recorded under {recorded}{}",
        if kernel == recorded {
            ""
        } else {
            " (KERNELS DIFFER: crypto and end-to-end medians do not compare)"
        }
    );
    let committed = parse_baselines(&committed_text);
    let fresh = parse_baselines(&fresh_text);
    if committed.is_empty() {
        eprintln!("bench-diff: no benchmarks parsed from {committed_path}");
        return ExitCode::FAILURE;
    }
    let tolerance = std::env::var("ISS_BENCH_TOLERANCE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4.0);
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

/// The `"sha256_kernel": "<name>"` header of a baseline snapshot.
fn baseline_kernel(text: &str) -> Option<&str> {
    text.lines().find_map(|line| {
        let value = line.trim().strip_prefix("\"sha256_kernel\":")?;
        Some(value.trim().trim_end_matches(',').trim_matches('"'))
    })
}

/// Parses the stand-in's dump format: one benchmark per line,
/// `"<name>": {"median": <f64>, "mean": <f64>, "p95": <f64>}`. Header lines
/// carry no `"median"` and are skipped. The writer lives in
/// `vendor/criterion`; this parser only needs to understand its output, not
/// general JSON.
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

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else {
        format!("{:.3} ms", ns / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_reads_the_kernel_header_and_leaves_it_out_of_the_rows() {
        let snapshot = r#"{
  "schema": 1,
  "unit": "ns_per_iter",
  "recorded_cores": 2,
  "sha256_kernel": "sha-ni",
  "benchmarks": {
    "crypto/sha256_64B": {"median": 101.5, "mean": 102.0, "p95": 110.0}
  }
}"#;
        assert_eq!(baseline_kernel(snapshot), Some("sha-ni"));
        let rows = parse_baselines(snapshot);
        assert_eq!(
            rows.into_iter().collect::<Vec<_>>(),
            [("crypto/sha256_64B".to_string(), 101.5)]
        );
    }
}
