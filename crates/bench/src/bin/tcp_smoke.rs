//! Threaded-TCP-runtime smoke: boots a 4-node localhost ISS-PBFT cluster
//! over real sockets with per-node durable [`FileStorage`], loads it with
//! open-loop clients, kills one replica mid-run, verifies the surviving
//! 2f+1 keep delivering, restarts the victim and requires it to recover by
//! replaying its own WAL and rejoin ordering. Every delivery of every node,
//! before and after the restart, goes through the online delivery checker
//! (agreement and no duplication); the smoke fails on its first violation.
//!
//! This is the wall-clock twin of the simulator's crash-restart scenario
//! (`recovery_smoke`): same protocol code behind the sans-IO runtime
//! boundary, driven by OS threads, kernel sockets and real file writes
//! instead of virtual time. (The WAL is written, not synced, and the "kill"
//! stops threads inside one process, so the page cache survives it: this
//! gate proves replay logic, not power-loss durability — ROADMAP.md's
//! storage item.) Timings here are load-dependent, so unlike the
//! simulator smokes this binary is *not* byte-diffed by the determinism
//! job — it gates on invariants, not output bytes.
//!
//! [`FileStorage`]: iss_storage::FileStorage

use iss_net::{TcpCluster, TcpClusterConfig};
use iss_types::{Duration, NodeId};
use std::process::ExitCode;
use std::time::{Duration as StdDuration, Instant};

fn wait_until(deadline: StdDuration, mut done: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if done() {
            return true;
        }
        std::thread::sleep(StdDuration::from_millis(50));
    }
    done()
}

fn fail(cluster: TcpCluster, what: &str) -> ExitCode {
    eprintln!("tcp smoke: FAILED: {what}");
    cluster.shutdown();
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let storage = std::env::temp_dir().join(format!("iss-tcp-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&storage);
    let mut cfg = TcpClusterConfig::new(4);
    cfg.total_rate = 600.0;
    cfg.run_for = Duration::from_secs(120);
    cfg.storage_root = Some(storage.clone());
    println!("# tcp smoke: 4-node ISS-PBFT on 127.0.0.1, durable storage, kill + WAL recovery");
    let mut cluster = match TcpCluster::launch(cfg) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("tcp smoke: FAILED to boot the cluster: {e}");
            return ExitCode::FAILURE;
        }
    };
    let commits = cluster.commits();
    let nodes = cluster.node_ids();
    let victim = NodeId(0);

    if !wait_until(StdDuration::from_secs(30), || {
        commits.lock().unwrap().delivered_at(victim) >= 200
    }) {
        return fail(cluster, "no pre-crash progress at the victim");
    }
    println!(
        "pre-crash: victim delivered {}",
        commits.lock().unwrap().delivered_at(victim)
    );

    cluster.kill_node(victim);
    let mark = commits.lock().unwrap().delivered_at(NodeId(1));
    if !wait_until(StdDuration::from_secs(30), || {
        commits.lock().unwrap().delivered_at(NodeId(1)) >= mark + 200
    }) {
        return fail(cluster, "survivors stalled while the victim was down");
    }
    println!(
        "victim down: survivors delivered {} more",
        commits.lock().unwrap().delivered_at(NodeId(1)) - mark
    );

    if let Err(e) = cluster.restart_node(victim) {
        return fail(cluster, &format!("restart failed: {e}"));
    }
    if !wait_until(StdDuration::from_secs(45), || {
        commits
            .lock()
            .unwrap()
            .recoveries
            .iter()
            .any(|(n, replayed, _)| *n == victim && *replayed > 0)
    }) {
        return fail(cluster, "restarted node never recovered through its WAL");
    }
    let rejoin_mark = commits.lock().unwrap().delivered_at(victim);
    if !wait_until(StdDuration::from_secs(45), || {
        commits.lock().unwrap().delivered_at(victim) > rejoin_mark
    }) {
        return fail(cluster, "restarted node never delivered a fresh request");
    }
    {
        let log = commits.lock().unwrap();
        let (_, replayed, chunks) = *log
            .recoveries
            .iter()
            .find(|(n, _, _)| *n == victim)
            .expect("recovery recorded");
        println!("recovery: wal_entries={replayed} snapshot_chunks={chunks}");
        if let Err(violation) = log.check() {
            drop(log);
            return fail(cluster, &format!("{violation}"));
        }
        for n in &nodes {
            println!("delivered node={} count={}", n.0, log.delivered_at(*n));
        }
    }
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&storage);
    println!("tcp smoke: OK");
    ExitCode::SUCCESS
}
