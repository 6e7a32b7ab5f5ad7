//! Experiment-matrix smoke: iterates every scripted experiment besides
//! figure 8 (figures 5, 6, 7, 11 and 12) at quick scale, plus the
//! beyond-the-paper Scenario-API shapes (bursty workload, Zipf-skewed
//! workload, heal-after-partition, lossy-link window), and asserts the
//! output is non-empty and shape-sane, so CI exercises the full scenario
//! matrix instead of the fig8 path only.
//!
//! "Shape-sane" deliberately stops short of asserting absolute numbers —
//! quick scale is tiny and noisy by design — but every series must exist,
//! every statistic must be finite and non-negative, and the workloads must
//! actually deliver traffic.
//!
//! Scale defaults to `quick` (unlike the figure binaries, whose default is
//! the benchmark scale); set `ISS_SCALE` explicitly to override.

use iss_bench::smoke_scale;
use iss_sim::experiments::{
    figure11, figure12, figure5, figure6, figure7, scenario_bursty, scenario_crash_restart,
    scenario_lossy_window, scenario_partition_heal, scenario_skewed,
};
use iss_sim::Protocol;
use iss_types::NodeId;

fn check(ok: bool, what: &str, failures: &mut u32) {
    if ok {
        println!("  ok   {what}");
    } else {
        println!("  FAIL {what}");
        *failures += 1;
    }
}

fn finite_nonneg(x: f64) -> bool {
    x.is_finite() && x >= 0.0
}

fn main() -> std::process::ExitCode {
    let scale = smoke_scale();
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

    // Crash-restart recovery: the rebooted node must come back through the
    // durable-storage path (WAL replay and/or snapshot chunks) and catch up
    // in well under the ≈10 s epoch-change timeout a snapshot-less rejoin
    // would wait out.
    let restart = scenario_crash_restart(scale);
    println!(
        "scenario crash-restart: {} delivered, {} recovery event(s)",
        restart.delivered,
        restart.recoveries.len()
    );
    check(
        restart.delivered > 0,
        "crash-restart delivers traffic",
        &mut failures,
    );
    let recovery = restart.recoveries.iter().find(|r| r.node == NodeId(1));
    check(
        recovery.is_some(),
        "restarted node records a completed recovery",
        &mut failures,
    );
    if let Some(recovery) = recovery {
        println!(
            "  node 1 replayed {} WAL entries, {} snapshot chunk(s), caught up in {:.3} s",
            recovery.entries_replayed,
            recovery.snapshot_chunks,
            recovery.time_to_catch_up().as_secs_f64()
        );
        check(
            recovery.entries_replayed > 0 || recovery.snapshot_chunks > 0,
            "recovery used the durable-storage path",
            &mut failures,
        );
        check(
            recovery.time_to_catch_up() < iss_types::Duration::from_secs(2),
            "catch-up well under the epoch-change timeout",
            &mut failures,
        );
    }

    if failures > 0 {
        eprintln!("experiment-matrix smoke: {failures} check(s) failed");
        return std::process::ExitCode::FAILURE;
    }
    println!("experiment-matrix smoke: OK");
    std::process::ExitCode::SUCCESS
}
