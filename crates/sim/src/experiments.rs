//! One experiment function per table / figure of the paper's evaluation
//! (Section 6), plus beyond-the-paper scenario smokes, all expressed as
//! [`Scenario`]s. Every function takes a [`Scale`] so the same code can run
//! as a quick smoke test (`Scale::quick()`), at the default benchmark scale
//! (`Scale::default()`), or at paper scale (`Scale::paper()`, hours of
//! simulated traffic).

use crate::adversary::MalformedKind;
use crate::cluster::Report;
use crate::factories::Protocol;
use crate::scenario::{CrashTiming, Scenario, ScenarioBuilder};
use iss_core::Mode;
use iss_types::{BucketId, ClientId, Duration, LeaderPolicyKind, NodeId, Time};

/// Scaling knobs for the experiments.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Node counts used for the scalability sweeps.
    pub node_counts: &'static [usize],
    /// Run duration in (virtual) seconds.
    pub duration_secs: u64,
    /// Multiplier on the offered load.
    pub load_factor: f64,
    /// Node count for the fault experiments (the paper uses 32).
    pub fault_nodes: usize,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            node_counts: &[4, 8, 16, 32],
            duration_secs: 25,
            load_factor: 1.0,
            fault_nodes: 16,
        }
    }
}

impl Scale {
    /// A very small scale for CI / smoke tests.
    pub fn quick() -> Self {
        Scale {
            node_counts: &[4, 8],
            duration_secs: 12,
            load_factor: 0.5,
            fault_nodes: 8,
        }
    }

    /// The paper's scale (4 to 128 nodes, 32-node fault experiments,
    /// two-minute runs). Expect long wall-clock times.
    pub fn paper() -> Self {
        Scale {
            node_counts: &[4, 16, 32, 64, 128],
            duration_secs: 120,
            load_factor: 1.0,
            fault_nodes: 32,
        }
    }
}

/// A single data point of the scalability figure.
#[derive(Clone, Debug)]
pub struct ScalabilityPoint {
    /// Series label (e.g. "ISS-PBFT").
    pub series: String,
    /// Number of nodes.
    pub nodes: usize,
    /// Peak delivered throughput in kreq/s.
    pub kreq_per_sec: f64,
}

fn saturating_rate(nodes: usize, iss: bool, load_factor: f64) -> f64 {
    // Offered load high enough to saturate the deployment: the batch-rate
    // ceiling is 32 b/s × 2048 req ≈ 65 kreq/s for ISS; single-leader
    // deployments saturate far below that.
    let base = if iss {
        70_000.0_f64.min(6_000.0 * nodes as f64)
    } else {
        24_000.0 / (nodes as f64).sqrt()
    };
    base * load_factor
}

/// The scalability-sweep scenario shape shared by figures 5 and 6: the
/// paper's 16-client open loop at `total_rate`, seeded per (series, size).
fn scenario_for(
    series: &str,
    protocol: Protocol,
    mode: Mode,
    nodes: usize,
    total_rate: f64,
    scale: Scale,
) -> Scenario {
    Scenario::builder(protocol, nodes)
        .mode(mode)
        .open_loop(16, total_rate)
        .duration(Duration::from_secs(scale.duration_secs))
        .warmup(Duration::from_secs(scale.duration_secs / 3))
        .seed(7 + nodes as u64 + series.len() as u64)
        .build()
}

/// The series of Figure 5 in plotting order: label, ordering protocol and
/// deployment mode.
pub const FIGURE5_SERIES: [(&str, Protocol, Mode); 7] = [
    ("ISS-PBFT", Protocol::Pbft, Mode::Iss),
    ("ISS-HotStuff", Protocol::HotStuff, Mode::Iss),
    ("ISS-Raft", Protocol::Raft, Mode::Iss),
    ("MirBFT", Protocol::Pbft, Mode::Mir),
    ("PBFT", Protocol::Pbft, Mode::SingleLeader),
    ("HotStuff", Protocol::HotStuff, Mode::SingleLeader),
    ("Raft", Protocol::Raft, Mode::SingleLeader),
];

/// The scenario behind one Figure 5 point: series `name` (a label of
/// [`FIGURE5_SERIES`]) at `nodes` replicas under its saturating load;
/// `None` for an unknown label.
pub fn figure5_scenario(name: &str, nodes: usize, scale: Scale) -> Option<Scenario> {
    let &(name, protocol, mode) = FIGURE5_SERIES.iter().find(|(s, _, _)| *s == name)?;
    let rate = saturating_rate(nodes, mode != Mode::SingleLeader, scale.load_factor);
    Some(scenario_for(name, protocol, mode, nodes, rate, scale))
}

/// Figure 5: peak throughput vs. number of nodes for ISS-{PBFT, HotStuff,
/// Raft}, Mir-BFT and the single-leader baselines.
pub fn figure5(scale: Scale) -> Vec<ScalabilityPoint> {
    let mut points = Vec::new();
    for (name, _, _) in FIGURE5_SERIES {
        for &nodes in scale.node_counts {
            let report = figure5_scenario(name, nodes, scale)
                .expect("a series of the table")
                .run();
            points.push(ScalabilityPoint {
                series: name.to_string(),
                nodes,
                kreq_per_sec: report.throughput / 1000.0,
            });
        }
    }
    points
}

/// A latency/throughput data point of Figure 6 or Figure 11.
#[derive(Clone, Debug)]
pub struct LatencyThroughputPoint {
    /// Series label.
    pub series: String,
    /// Delivered throughput (kreq/s).
    pub kreq_per_sec: f64,
    /// Mean latency in seconds.
    pub latency_secs: f64,
}

/// Figure 6: latency over throughput for increasing load, ISS vs. the single
/// leader baseline, for one protocol at several node counts.
pub fn figure6(protocol: Protocol, scale: Scale) -> Vec<LatencyThroughputPoint> {
    let mut points = Vec::new();
    for &nodes in scale.node_counts {
        for (label, mode) in [("ISS", Mode::Iss), ("single-leader", Mode::SingleLeader)] {
            let saturation = saturating_rate(nodes, mode != Mode::SingleLeader, scale.load_factor);
            for fraction in [0.25, 0.5, 0.75, 1.0] {
                let scenario =
                    scenario_for(label, protocol, mode, nodes, saturation * fraction, scale);
                let report = scenario.run();
                points.push(LatencyThroughputPoint {
                    series: format!("{label}-{} {nodes} nodes", protocol.name()),
                    kreq_per_sec: report.throughput / 1000.0,
                    latency_secs: report.mean_latency.as_secs_f64(),
                });
            }
        }
    }
    points
}

/// One bar of Figure 7: latency under one crash for a leader policy.
#[derive(Clone, Debug)]
pub struct PolicyLatency {
    /// Policy name.
    pub policy: String,
    /// Crash timing ("epoch-start" / "epoch-end").
    pub timing: String,
    /// Mean latency in seconds.
    pub mean_secs: f64,
    /// 95th-percentile latency in seconds.
    pub p95_secs: f64,
}

/// The fault-experiment scenario shape (figures 7–12): `fault_nodes`
/// replicas at `rate_factor` × the paper's 16.4 kreq/s, 2 s warm-up. The
/// caller appends the fault plan.
fn fault_scenario(scale: Scale, policy: LeaderPolicyKind, rate_factor: f64) -> ScenarioBuilder {
    Scenario::builder(Protocol::Pbft, scale.fault_nodes)
        .policy(policy)
        .open_loop(16, 16_400.0 * scale.load_factor * rate_factor)
        .duration(Duration::from_secs(scale.duration_secs.max(20)))
        .warmup(Duration::from_secs(2))
}

/// Figure 7: impact of the leader-selection policy on latency under a single
/// epoch-start / epoch-end crash (32 nodes, 16.4 kreq/s in the paper).
pub fn figure7(scale: Scale) -> Vec<PolicyLatency> {
    let mut rows = Vec::new();
    for policy in [
        LeaderPolicyKind::Simple,
        LeaderPolicyKind::Backoff,
        LeaderPolicyKind::Blacklist,
    ] {
        for (label, timing) in [
            ("epoch-start", CrashTiming::EpochStart),
            ("epoch-end", CrashTiming::EpochEnd),
        ] {
            let scenario = fault_scenario(scale, policy, 1.0)
                .crash(NodeId(0), timing)
                .build();
            let report = scenario.run();
            rows.push(PolicyLatency {
                policy: policy.name().to_string(),
                timing: label.to_string(),
                mean_secs: report.mean_latency.as_secs_f64(),
                p95_secs: report.p95_latency.as_secs_f64(),
            });
        }
    }
    rows
}

/// One point of Figure 8: latency vs. experiment duration under crashes.
#[derive(Clone, Debug)]
pub struct CrashLatencyPoint {
    /// Number of crashed leaders.
    pub faults: usize,
    /// Crash timing label.
    pub timing: String,
    /// Experiment duration in seconds.
    pub duration_secs: u64,
    /// Mean latency (s).
    pub mean_secs: f64,
    /// 95th-percentile latency (s).
    pub p95_secs: f64,
}

/// Figure 8: crash-fault impact on mean and tail latency as the experiment
/// duration grows (Blacklist policy).
pub fn figure8(scale: Scale) -> Vec<CrashLatencyPoint> {
    let mut rows = Vec::new();
    let durations: Vec<u64> = vec![scale.duration_secs / 2, scale.duration_secs];
    for faults in [0usize, 1, 2] {
        for (label, timing) in [
            ("epoch-start", CrashTiming::EpochStart),
            ("epoch-end", CrashTiming::EpochEnd),
        ] {
            if faults == 0 && label == "epoch-end" {
                continue; // f=0 has a single series in the paper
            }
            for &duration in &durations {
                let mut builder = fault_scenario(scale, LeaderPolicyKind::Blacklist, 1.0)
                    .duration(Duration::from_secs(duration));
                for i in 0..faults {
                    builder = builder.crash(NodeId(i as u32), timing);
                }
                let report = builder.build().run();
                rows.push(CrashLatencyPoint {
                    faults,
                    timing: label.to_string(),
                    duration_secs: duration,
                    mean_secs: report.mean_latency.as_secs_f64(),
                    p95_secs: report.p95_latency.as_secs_f64(),
                });
            }
        }
    }
    rows
}

/// Figure 9 (ISS) / Figure 10 (Mir-BFT): throughput over time with one crash.
pub fn throughput_timeline(mode: Mode, timing: CrashTiming, scale: Scale) -> Report {
    let scenario = fault_scenario(scale, LeaderPolicyKind::Blacklist, 1.0)
        .mode(mode)
        .crash(NodeId(0), timing)
        .build();
    scenario.run()
}

/// Figure 11: latency over throughput with 0/1/5/10 Byzantine stragglers.
pub fn figure11(scale: Scale) -> Vec<LatencyThroughputPoint> {
    let mut points = Vec::new();
    let straggler_counts: &[usize] = if scale.fault_nodes >= 32 {
        &[0, 1, 5, 10]
    } else {
        &[0, 1, 2]
    };
    for &count in straggler_counts {
        for fraction in [0.5, 1.0] {
            let mut builder = fault_scenario(scale, LeaderPolicyKind::Blacklist, fraction);
            for i in 0..count {
                builder = builder.straggler(NodeId(i as u32));
            }
            let report = builder.build().run();
            points.push(LatencyThroughputPoint {
                series: format!("{count} stragglers"),
                kreq_per_sec: report.throughput / 1000.0,
                latency_secs: report.mean_latency.as_secs_f64(),
            });
        }
    }
    points
}

/// Figure 12: throughput over time with one Byzantine straggler.
pub fn figure12(scale: Scale) -> Report {
    let scenario = fault_scenario(scale, LeaderPolicyKind::Blacklist, 1.0)
        .straggler(NodeId(0))
        .build();
    scenario.run()
}

// ---------------------------------------------------------------------------
// Beyond-the-paper scenarios (new workload / fault shapes the Scenario API
// opens up; exercised by the `iss-bench smoke experiments` CI gate).
// ---------------------------------------------------------------------------

/// Bursty on/off load on a small ISS-PBFT cluster: 3 s bursts separated by
/// 3 s of silence, so the throughput timeline alternates between busy and
/// idle seconds.
pub fn scenario_bursty(scale: Scale) -> Report {
    let duration = scale.duration_secs.max(12);
    Scenario::builder(Protocol::Pbft, 4)
        .bursty(
            8,
            2_000.0 * scale.load_factor,
            Duration::from_secs(3),
            Duration::from_secs(3),
        )
        .duration(Duration::from_secs(duration))
        .warmup(Duration::from_secs(2))
        .build()
        .run()
}

/// Zipf-skewed per-client rates on a small ISS-PBFT cluster (a few heavy
/// hitters dominate the request space).
pub fn scenario_skewed(scale: Scale) -> Report {
    let duration = scale.duration_secs.max(12);
    Scenario::builder(Protocol::Pbft, 4)
        .skewed(8, 1_200.0 * scale.load_factor, 1.2)
        .duration(Duration::from_secs(duration))
        .warmup(Duration::from_secs(2))
        .build()
        .run()
}

/// A minority partition that heals: node 0 is cut off from the other three
/// replicas between t=3 s and t=6 s, then communication resumes. The
/// partitioned node leads segments, so in-order delivery stalls until the
/// view-change / epoch-change machinery replaces it (≈10 s timeouts);
/// the run is long enough (≥24 s) to observe the full
/// stall → heal → recover arc at the observer.
pub fn scenario_partition_heal(scale: Scale) -> Report {
    let duration = scale.duration_secs.max(24);
    Scenario::builder(Protocol::Pbft, 4)
        .open_loop(8, 800.0 * scale.load_factor)
        .duration(Duration::from_secs(duration))
        .warmup(Duration::from_secs(2))
        .partition(
            vec![NodeId(1), NodeId(2), NodeId(3)],
            vec![NodeId(0)],
            Time::from_secs(3),
            Time::from_secs(6),
        )
        .build()
        .run()
}

/// A crash-restart: node 1 crashes at t=3 s, stays down for 12 s, then
/// reboots from its durable storage (checkpoint snapshot + WAL replay),
/// fetches a peer snapshot over the reconnect fast path and rejoins under
/// the same identity. The down window is long enough for the cluster to
/// resolve the crashed leader's segment (⊥ via view change) and stabilize
/// the epoch checkpoint, so the reboot demonstrates the fast path proper:
/// catch-up takes well under a second of virtual time, instead of the ≈10 s
/// epoch-change timeout a snapshot-less rejoin would wait out.
pub fn scenario_crash_restart(scale: Scale) -> Report {
    let duration = scale.duration_secs.max(24);
    Scenario::builder(Protocol::Pbft, 4)
        .open_loop(8, 800.0 * scale.load_factor)
        .duration(Duration::from_secs(duration))
        .warmup(Duration::from_secs(2))
        .crash_restart(
            NodeId(1),
            CrashTiming::At(Time::from_secs(3)),
            Duration::from_secs(12),
        )
        .build()
        .run()
}

/// A lossy-link window: 10% of all messages sent between t=2 s and t=5 s
/// are dropped, after which the network is clean again. Like the partition
/// scenario, lost proposals can stall segments until the ≈10 s protocol
/// timeouts fire, so the run is long enough to observe recovery.
pub fn scenario_lossy_window(scale: Scale) -> Report {
    let duration = scale.duration_secs.max(24);
    Scenario::builder(Protocol::Pbft, 4)
        .open_loop(8, 800.0 * scale.load_factor)
        .duration(Duration::from_secs(duration))
        .warmup(Duration::from_secs(2))
        .lossy_window(0.1, Time::from_secs(2), Time::from_secs(5))
        .build()
        .run()
}

// ---------------------------------------------------------------------------
// Byzantine attack scenarios (the adversary subsystem of [`crate::adversary`];
// exercised by the `iss-bench smoke byzantine` CI gate).
// ---------------------------------------------------------------------------

/// The shared shape of the attack scenarios: 4 ISS-PBFT replicas (f = 1)
/// under the **Simple** rotation policy — every node leads every epoch, so
/// the bucket-rotation schedule is statically computable and the censorship
/// liveness gate can find each request's first correct-owner epoch — with an
/// 8-client open loop. The window spans ≥5 of the 8 s epochs and drains long
/// enough for the ≈10 s epoch-change timeout to resolve a sabotaged epoch.
fn attack_scenario(scale: Scale, seed: u64) -> ScenarioBuilder {
    let duration = scale.duration_secs.max(40);
    Scenario::builder(Protocol::Pbft, 4)
        .policy(LeaderPolicyKind::Simple)
        .open_loop(8, 800.0 * scale.load_factor)
        .duration(Duration::from_secs(duration))
        .warmup(Duration::from_secs(5))
        .drain(Duration::from_secs(12))
        .seed(seed)
}

/// Attack (a): node 0 equivocates during epoch 1 — conflicting batches for
/// the same sequence number to different followers. Quorum intersection
/// starves both variants of a 2f+1 certificate; the instances resolve to ⊥
/// and the cluster keeps advancing epochs.
pub fn scenario_equivocating_leader(scale: Scale) -> Scenario {
    attack_scenario(scale, 1101)
        .equivocating_leader(NodeId(0), 1, 2)
        .build()
}

/// Attack (b): node 0 silently drops every request of bucket 0 for the whole
/// run. Bucket rotation (Section 4.3) hands the bucket to a correct leader
/// one epoch later, and clients re-submit unanswered requests on rotation.
pub fn scenario_censoring_leader(scale: Scale) -> Scenario {
    attack_scenario(scale, 1102)
        .censoring_leader(NodeId(0), BucketId(0))
        .build()
}

/// Attacks (c) + (e): client 0 submits a conflicting twin (same id,
/// different payload) of every request to a second replica; client 1
/// duplicates every 4th request and replays an old one every 8th. Bucket
/// partitioning and replay validation keep the log clean.
pub fn scenario_byzantine_clients(scale: Scale) -> Scenario {
    attack_scenario(scale, 1103)
        .byzantine_client(ClientId(0))
        .duplicating_client(ClientId(1))
        .build()
}

/// Attack (d), variant 1: node 0's epoch-1 proposals carry an in-batch
/// duplicate request; follower-side proposal validation rejects them.
pub fn scenario_malformed_batches(scale: Scale) -> Scenario {
    attack_scenario(scale, 1104)
        .malformed_proposals(NodeId(0), MalformedKind::DuplicateInBatch, 1, 2)
        .build()
}

/// Attack (d), variant 2: node 0's epoch-1 proposals exceed
/// `max_batch_size`; the size cap rejects them before any per-request work.
pub fn scenario_oversized_batches(scale: Scale) -> Scenario {
    attack_scenario(scale, 1105)
        .malformed_proposals(NodeId(0), MalformedKind::Oversized, 1, 2)
        .build()
}

/// The combined acceptance attack: the *same* node 0 (keeping the Byzantine
/// count within f = 1 at n = 4) equivocates during epoch 1 **and** censors
/// bucket 0 for the whole run. The gates require zero safety violations,
/// epoch progress, and every censored request delivered within
/// [`crate::adversary::CENSORSHIP_EPOCH_BOUND`] epochs of its bucket
/// rotating to a correct leader.
pub fn scenario_combined_attack(scale: Scale) -> Scenario {
    attack_scenario(scale, 1106)
        .equivocating_leader(NodeId(0), 1, 2)
        .censoring_leader(NodeId(0), BucketId(0))
        .build()
}

/// The full attack matrix, in presentation order.
pub fn attack_matrix(scale: Scale) -> Vec<(&'static str, Scenario)> {
    vec![
        ("equivocating-leader", scenario_equivocating_leader(scale)),
        ("censoring-leader", scenario_censoring_leader(scale)),
        ("byzantine-clients", scenario_byzantine_clients(scale)),
        ("malformed-batches", scenario_malformed_batches(scale)),
        ("oversized-batches", scenario_oversized_batches(scale)),
        ("combined-attack", scenario_combined_attack(scale)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure5_quick_shape_iss_beats_single_leader() {
        let tiny = Scale {
            node_counts: &[4],
            duration_secs: 12,
            load_factor: 0.3,
            fault_nodes: 4,
        };
        // Only compare the two PBFT series to keep the test fast.
        let rate_iss = saturating_rate(4, true, tiny.load_factor);
        let iss = scenario_for("ISS-PBFT", Protocol::Pbft, Mode::Iss, 4, rate_iss, tiny).run();
        let rate_single = saturating_rate(4, false, tiny.load_factor);
        let single = scenario_for(
            "PBFT",
            Protocol::Pbft,
            Mode::SingleLeader,
            4,
            rate_single,
            tiny,
        )
        .run();
        assert!(iss.delivered > 0 && single.delivered > 0);
    }

    #[test]
    fn crash_timeline_has_epoch_transitions() {
        let tiny = Scale {
            node_counts: &[4],
            duration_secs: 20,
            load_factor: 0.2,
            fault_nodes: 4,
        };
        let report = throughput_timeline(Mode::Iss, CrashTiming::EpochStart, tiny);
        assert!(!report.timeline.is_empty());
        assert!(report.delivered > 0);
    }

    #[test]
    fn partition_heal_scenario_recovers() {
        let report = scenario_partition_heal(Scale::quick());
        assert!(report.delivered > 0);
        assert!(report.messages_dropped > 0, "partition must drop traffic");
    }

    #[test]
    fn crash_restart_scenario_catches_up_fast() {
        let report = scenario_crash_restart(Scale::quick());
        assert!(report.delivered > 0);
        assert!(report.messages_dropped > 0, "the crash must drop traffic");
        let recovery = report
            .recoveries
            .iter()
            .find(|r| r.node == NodeId(1))
            .expect("the restarted node must complete recovery");
        assert!(
            recovery.entries_replayed > 0 || recovery.snapshot_chunks > 0,
            "recovery must restore state from the WAL or a peer snapshot"
        );
        // The reconnect fast path must beat the ≈10 s epoch-change timeout
        // by a wide margin.
        assert!(
            recovery.time_to_catch_up() < Duration::from_secs(2),
            "caught up in {:?}",
            recovery.time_to_catch_up()
        );
    }

    #[test]
    fn empty_adversary_plan_reports_are_identical() {
        // A scenario without attacks carries the empty plan, and the
        // adversary subsystem wires up nothing for it: no verdict, no
        // rejections, and the same report on every run.
        let base = || {
            Scenario::builder(Protocol::Pbft, 4)
                .open_loop(4, 400.0)
                .duration(Duration::from_secs(12))
                .warmup(Duration::from_secs(2))
        };
        let plain = base().build().run();
        let with_empty_plan = base().build().run();
        assert_eq!(plain, with_empty_plan);
        assert!(plain.adversary.is_none());
        assert!(plain.rejected_requests.is_empty());
    }

    #[test]
    fn combined_attack_gates_pass_and_runs_are_deterministic() {
        // The acceptance scenario: node 0 equivocates in epoch 1 and censors
        // bucket 0 throughout (f = 1 at n = 4). Safety invariants are
        // checked inline (a violation panics); the liveness gates come back
        // in the report. Running the same scenario twice must produce
        // bit-identical reports.
        let first = scenario_combined_attack(Scale::quick()).run();
        let second = scenario_combined_attack(Scale::quick()).run();
        assert_eq!(first, second, "adversarial runs must be deterministic");
        assert!(first.delivered > 0);
        let gates = first.adversary.expect("adversarial run carries a verdict");
        assert!(
            gates.epoch_advances >= 3,
            "epochs must keep advancing under the attack (saw {})",
            gates.epoch_advances
        );
        assert!(
            gates.censored_checked > 0,
            "the censored bucket must receive requests"
        );
        assert_eq!(
            gates.censored_missed,
            0,
            "every censored request must be delivered within {} epochs of \
             rotating to a correct leader ({} checked)",
            crate::adversary::CENSORSHIP_EPOCH_BOUND,
            gates.censored_checked
        );
    }
}
