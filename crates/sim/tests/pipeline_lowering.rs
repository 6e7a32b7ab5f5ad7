//! Lockstep equivalence of the degenerate compartmentalized pipeline and the
//! monolithic node: `.batchers(1).executors(1)` with zero stage latency is
//! *defined* to lower to the monolithic wiring (one batcher with a free
//! handoff is the monolith), so its report must be bit-identical to the
//! default build — same delivered count, same timeline, same message/byte
//! totals, same latency statistics down to the f64 bits. Any drift means the
//! lowering rule in `Scenario::stage_counts` regressed and "pipeline off"
//! silently stopped meaning "exactly yesterday's node".

use iss_sim::{Protocol, Report, Scenario};
use iss_types::Duration;

fn assert_identical(monolith: &Report, degenerate: &Report, label: &str) {
    assert_eq!(
        monolith.delivered, degenerate.delivered,
        "{label}: delivered diverged"
    );
    assert_eq!(
        monolith.timeline, degenerate.timeline,
        "{label}: timeline diverged"
    );
    assert_eq!(
        monolith.epochs, degenerate.epochs,
        "{label}: epoch transitions diverged"
    );
    assert_eq!(
        monolith.nil_committed, degenerate.nil_committed,
        "{label}: nil commits diverged"
    );
    assert_eq!(
        monolith.messages_sent, degenerate.messages_sent,
        "{label}: message count diverged"
    );
    assert_eq!(
        monolith.bytes_sent, degenerate.bytes_sent,
        "{label}: byte count diverged"
    );
    assert_eq!(
        monolith.messages_dropped, degenerate.messages_dropped,
        "{label}: drop count diverged"
    );
    assert_eq!(
        monolith.throughput.to_bits(),
        degenerate.throughput.to_bits(),
        "{label}: throughput diverged"
    );
    assert_eq!(
        monolith.mean_latency, degenerate.mean_latency,
        "{label}: mean latency diverged"
    );
    assert_eq!(
        monolith.p95_latency, degenerate.p95_latency,
        "{label}: p95 latency diverged"
    );
    assert_eq!(
        monolith.stages, degenerate.stages,
        "{label}: stage rows diverged (both must be empty)"
    );
}

fn base(nodes: usize) -> iss_sim::ScenarioBuilder {
    Scenario::builder(Protocol::Pbft, nodes)
        .open_loop(4, 600.0)
        .duration(Duration::from_secs(12))
        .warmup(Duration::from_secs(2))
        .seed(33)
}

#[test]
fn single_stage_zero_latency_pipeline_is_byte_identical_to_the_monolith() {
    for nodes in [4usize, 8] {
        let monolith = base(nodes).build().run();
        let degenerate = base(nodes).batchers(1).executors(1).build().run();
        assert!(
            monolith.delivered > 0,
            "n={nodes}: the run must actually deliver requests"
        );
        assert!(
            monolith.stages.is_empty(),
            "n={nodes}: monolithic runs must not report stage rows"
        );
        assert_identical(&monolith, &degenerate, &format!("pbft n={nodes} (1,1)"));
    }
}
