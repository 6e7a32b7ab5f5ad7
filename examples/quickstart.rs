//! Quickstart: build a small ISS-PBFT scenario with the Scenario API, run
//! it on the simulated WAN and print what it did.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use iss::sim::{Protocol, Scenario};
use iss::types::Duration;

fn main() {
    // A scenario is Protocol stack × Workload × Topology × FaultPlan ×
    // AdversaryPlan × RunWindow; faults and attacks are scheduled by builder
    // methods such as `.crash(..)` and `.censoring_leader(..)`. Here: 4
    // ISS-PBFT replicas spread over 4 continents, 16 open-loop clients
    // submitting 500-byte requests at 1000 req/s in aggregate, no faults,
    // 20 simulated seconds with a 5 s warm-up.
    let scenario = Scenario::builder(Protocol::Pbft, 4)
        .open_loop(16, 1_000.0)
        .duration(Duration::from_secs(20))
        .warmup(Duration::from_secs(5))
        .build();

    println!("building a 4-node ISS-PBFT cluster on the simulated 16-datacenter WAN…");
    let report = scenario.run();

    println!();
    println!("results over {} simulated seconds:", 20);
    println!("  delivered requests (observer node): {}", report.delivered);
    println!(
        "  average throughput:                 {:.1} req/s",
        report.throughput
    );
    println!(
        "  mean end-to-end latency:            {:.3} s",
        report.mean_latency.as_secs_f64()
    );
    println!(
        "  95th-percentile latency:            {:.3} s",
        report.p95_latency.as_secs_f64()
    );
    println!(
        "  protocol messages sent:             {}",
        report.messages_sent
    );
    println!(
        "  epochs completed:                   {}",
        report.epochs.len()
    );
    println!();
    println!("per-second throughput at the observer node:");
    for (second, tput) in report.timeline.iter().enumerate() {
        println!("  t={second:>2}s  {tput:>6} req/s");
    }
}
