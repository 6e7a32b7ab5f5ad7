//! A blockchain ordering-layer scenario (the use case motivating the paper's
//! introduction, e.g. the ordering service of Hyperledger Fabric): compare
//! how many 500-byte transactions per second a single-leader PBFT ordering
//! service and its ISS counterpart sustain as the number of ordering nodes
//! grows.
//!
//! ```sh
//! cargo run --release --example ordering_service
//! ```
//!
//! With `--tcp`, the same service scenario runs as a real ordering service
//! instead of a simulation: 4 ISS replicas over localhost TCP sockets, each
//! with a durable write-ahead log, loaded by the same 16 open-loop clients
//! for a 10 s window on the wall clock (see `iss::net` and the
//! runtime-boundary section of `docs/architecture.md`):
//!
//! ```sh
//! cargo run --release --example ordering_service -- --tcp
//! ```

use iss::core::Mode;
use iss::net::TcpCluster;
use iss::sim::{Protocol, Report, Scenario, ScenarioBuilder, TopologySpec};
use iss::types::Duration;

/// The ordering service under test: `nodes` replicas in `mode`, loaded by
/// 16 open-loop clients offering `offered` transactions per second.
fn service(mode: Mode, nodes: usize, offered: f64) -> ScenarioBuilder {
    Scenario::builder(Protocol::Pbft, nodes)
        .mode(mode)
        .open_loop(16, offered)
}

fn print(label: &str, nodes: usize, offered: f64, report: &Report) {
    println!(
        "  {label:<14} n={nodes:<3} offered {:>7.0} tx/s  delivered {:>8.1} tx/s  mean latency {:>5.2} s",
        offered,
        report.throughput,
        report.mean_latency.as_secs_f64()
    );
}

fn run(label: &str, mode: Mode, nodes: usize, offered: f64) -> f64 {
    let report = service(mode, nodes, offered)
        .duration(Duration::from_secs(16))
        .warmup(Duration::from_secs(6))
        .build()
        .run();
    print(label, nodes, offered, &report);
    report.throughput
}

/// Runs the same service shape as a real 4-node ISS-PBFT ordering service
/// on loopback sockets, with durable per-node storage, for a 10 s window on
/// the wall clock.
fn run_tcp() {
    let storage = std::env::temp_dir().join(format!("iss-ordering-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&storage);
    let scenario = service(Mode::Iss, 4, 1_000.0)
        .topology(TopologySpec::Lan(Duration::from_millis(1)))
        .duration(Duration::from_secs(8))
        .warmup(Duration::from_secs(2))
        .drain(Duration::from_secs(2))
        .telemetry(true)
        .build();
    println!("ordering service over TCP: 4 ISS-PBFT replicas on 127.0.0.1, file WAL per node");
    let report = TcpCluster::run(scenario, Some(storage.clone())).expect("cluster runs");
    let _ = std::fs::remove_dir_all(&storage);
    print("ISS-PBFT", 4, 1_000.0, &report);
    assert_eq!(report.violation, None, "agreement across replicas");
    assert!(report.delivered > 0, "the service delivered nothing");
    println!("  agreement and no duplication checked at every delivery");
    if let Some(snapshot) = report.telemetry {
        println!();
        print!("{}", snapshot.render_table());
    }
}

fn main() {
    if std::env::args().any(|a| a == "--tcp") {
        run_tcp();
        return;
    }
    println!("ordering-service throughput, single-leader PBFT vs ISS-PBFT");
    println!("(500-byte transactions, simulated 16-datacenter WAN, 1 Gbps interfaces)");
    for nodes in [4usize, 8, 16] {
        println!("--- {nodes} ordering nodes ---");
        let single = run("PBFT", Mode::SingleLeader, nodes, 6_000.0);
        let iss = run("ISS-PBFT", Mode::Iss, nodes, 3_000.0 * nodes as f64);
        println!("  speedup: {:.1}x", iss / single.max(1.0));
    }
}
