//! Byzantine attack-matrix smoke: runs every adversarial scenario of
//! `iss_sim::experiments::attack_matrix` — equivocating leader, censoring
//! leader, Byzantine clients (conflicting + duplicate/replayed requests),
//! malformed and oversized proposals, and the combined equivocation+censor
//! acceptance attack — and asserts the cluster-wide gates on each:
//!
//! * **Safety** is checked inline by the metrics sink on every delivery of
//!   every node (agreement + no duplicate delivery); a violation panics and
//!   fails the binary.
//! * **Liveness**: epochs keep advancing under leader misbehavior, requests
//!   keep being delivered, and — for censoring scenarios — every censored
//!   request is delivered within `CENSORSHIP_EPOCH_BOUND` epochs of its
//!   bucket rotating to a correct leader (Section 4.3's rotation defense).
//! * **Determinism**: each scenario is run twice in-process and the two
//!   reports must compare equal, so the adversarial machinery is covered by
//!   the same same-seed-same-bytes gate as the fault-free figures.
//!
//! The output is purely a function of the simulation seed; CI also runs the
//! whole binary twice and diffs the bytes.
//!
//! Scale defaults to `quick`; set `ISS_SCALE` explicitly to override.

use iss_bench::smoke_scale;
use iss_sim::experiments::attack_matrix;
use iss_sim::{run_scenario, Report, CENSORSHIP_EPOCH_BOUND};

fn check_gates(name: &str, report: &Report) {
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
    }
    if name.contains("byzantine") {
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

fn main() {
    let scale = smoke_scale();
    println!("# byzantine attack matrix smoke");
    for (name, scenario) in attack_matrix(scale) {
        let report = run_scenario(scenario.clone());
        let again = run_scenario(scenario);
        assert_eq!(
            report, again,
            "{name}: same-seed adversarial runs must be bit-identical"
        );
        check_gates(name, &report);
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
