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
//! With `--tcp`, the same node code runs as a real ordering service instead
//! of a simulation: 4 replicas over localhost TCP sockets, each with a
//! durable write-ahead log, loaded by open-loop clients on the wall clock
//! (see `iss::net` and the runtime-boundary section of
//! `docs/architecture.md`):
//!
//! ```sh
//! cargo run --release --example ordering_service -- --tcp
//! ```

use iss::core::Mode;
use iss::net::{TcpCluster, TcpClusterConfig};
use iss::sim::{Protocol, Scenario};
use iss::types::Duration;

fn run(label: &str, mode: Mode, nodes: usize, offered: f64) -> f64 {
    let report = Scenario::builder(Protocol::Pbft, nodes)
        .mode(mode)
        .open_loop(16, offered)
        .duration(Duration::from_secs(16))
        .warmup(Duration::from_secs(6))
        .build()
        .run();
    println!(
        "  {label:<14} n={nodes:<3} offered {:>7.0} tx/s  delivered {:>8.1} tx/s  mean latency {:>5.2} s",
        offered,
        report.throughput,
        report.mean_latency.as_secs_f64()
    );
    report.throughput
}

/// Boots a real 4-node ISS-PBFT ordering service on loopback sockets with
/// durable per-node storage and measures delivered throughput on the wall
/// clock.
fn run_tcp() {
    let storage = std::env::temp_dir().join(format!("iss-ordering-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&storage);
    let mut cfg = TcpClusterConfig::new(4);
    cfg.num_clients = 4;
    cfg.total_rate = 1_000.0;
    cfg.run_for = Duration::from_secs(60);
    cfg.storage_root = Some(storage.clone());
    cfg.telemetry = true;
    println!("ordering service over TCP: 4 ISS-PBFT replicas on 127.0.0.1, file WAL per node");
    let cluster = TcpCluster::launch(cfg).expect("cluster boots");
    let commits = cluster.commits();
    let start = std::time::Instant::now();
    std::thread::sleep(std::time::Duration::from_secs(10));
    let elapsed = start.elapsed().as_secs_f64();
    {
        let log = commits.lock().unwrap();
        for n in cluster.node_ids() {
            println!(
                "  node {}: delivered {:>6} tx  ({:>7.1} tx/s)",
                n.0,
                log.delivered_at(n),
                log.delivered_at(n) as f64 / elapsed
            );
        }
        log.check().expect("agreement across replicas");
    }
    println!("  agreement and no duplication checked at every delivery");
    if let Some(snapshot) = cluster.telemetry_snapshot() {
        println!();
        print!("{}", snapshot.render_table());
    }
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&storage);
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
