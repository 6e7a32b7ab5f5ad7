//! Compartmentalized-pipeline smoke: runs the n=4 compartmentalization
//! scenario with 1 batcher (which lowers to the monolithic wiring) and with
//! 3 batcher stages per node, prints every headline number, and fails unless
//! the 3-batcher deployment's saturated throughput is at least the
//! monolith's — the whole point of the stage split.
//!
//! Safety is asserted as a side effect: the metrics sink panics on an
//! agreement violation or a duplicate delivery at any node, so a clean run
//! is itself the safety gate. The output is purely a function of the seed,
//! so CI also double-runs this binary and diffs the bytes.
//!
//! Scale defaults to `quick`; set `ISS_SCALE` explicitly to override.

use iss_bench::smoke_scale;
use iss_sim::cluster::{run_scenario, Report};
use iss_sim::experiments::compartment_scenario;

fn print_report(batchers: usize, report: &Report) {
    println!(
        "batchers={batchers} kreq_per_sec={:.1} delivered={} nil_committed={} \
         messages_sent={} bytes_sent={}",
        report.throughput / 1_000.0,
        report.delivered,
        report.nil_committed,
        report.messages_sent,
        report.bytes_sent
    );
    for s in &report.stages {
        println!(
            "stage node={} role={} index={} cpu_pct={:.1} handoffs={} peak_queue={}",
            s.node.0,
            s.role,
            s.index,
            s.cpu_utilization * 100.0,
            s.handoffs,
            s.max_queue_depth
        );
    }
}

fn main() -> std::process::ExitCode {
    let scale = smoke_scale();
    println!("# compartment smoke: n=4, 1 vs 3 batcher stages per node");
    let monolith = run_scenario(compartment_scenario(4, 1, scale));
    print_report(1, &monolith);
    let compartmentalized = run_scenario(compartment_scenario(4, 3, scale));
    print_report(3, &compartmentalized);

    if monolith.delivered == 0 || compartmentalized.delivered == 0 {
        eprintln!("compartment smoke: a run delivered nothing");
        return std::process::ExitCode::FAILURE;
    }
    if !monolith.stages.is_empty() {
        eprintln!("compartment smoke: the 1-batcher point must lower to the monolith");
        return std::process::ExitCode::FAILURE;
    }
    // 1 orderer + 3 batchers + 2 executors at the observer node.
    if compartmentalized.stages.len() != 6 {
        eprintln!(
            "compartment smoke: expected 6 stage rows, got {}",
            compartmentalized.stages.len()
        );
        return std::process::ExitCode::FAILURE;
    }
    if compartmentalized.throughput < monolith.throughput {
        eprintln!(
            "compartment smoke: 3 batchers ({:.1} kreq/s) fell below the monolith \
             ({:.1} kreq/s) — the stage split stopped paying for itself",
            compartmentalized.throughput / 1_000.0,
            monolith.throughput / 1_000.0
        );
        return std::process::ExitCode::FAILURE;
    }
    println!("compartment smoke: OK");
    std::process::ExitCode::SUCCESS
}
