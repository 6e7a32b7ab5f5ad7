//! Telemetry smoke: exercises the engine-agnostic telemetry subsystem under
//! both runtimes and gates on its invariants.
//!
//! **Simnet section** — a fig8-style 4-node ISS-PBFT run with telemetry
//! enabled. Every number printed is derived from virtual time, so the whole
//! section is a pure function of the seed: CI double-runs this binary and
//! diffs the bytes. The section additionally re-runs the identical scenario
//! in-process and asserts the two snapshots' rendered exports (summary table
//! *and* JSONL timeline) are byte-identical — the determinism claim of the
//! telemetry subsystem itself, not just of the simulation around it.
//!
//! **TCP section** — a 4-node loopback cluster with telemetry enabled, run
//! briefly on the wall clock. Wall-clock latencies vary run to run, so this
//! section prints invariant verdicts only (histogram shape, span retention,
//! transport counters), never timings — keeping the binary's stdout as a
//! whole byte-stable for the determinism gate.

use iss_net::{TcpCluster, TcpClusterConfig};
use iss_sim::{Protocol, Scenario};
use iss_telemetry::{Phase, TelemetrySnapshot};
use iss_types::{Duration, MsgClass};

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
            if shape { "ok" } else { "FAIL" }
        );
        ok &= shape;
    }
    ok
}

fn run_simnet() -> bool {
    println!("## simnet: 4-node ISS-PBFT, 8 clients, 2000 req/s offered, 8 s virtual");
    let snapshot = simnet_snapshot(8);
    print!("{}", snapshot.render_table());

    let mut ok = check_phases(&snapshot, "simnet");

    // The orderer profile: proposal processing must dominate the node's
    // attributed CPU (the paper's motivation for compartmentalization — the
    // orderer burns ~70% of a monolithic node's cycles, most of it in
    // proposal validation/digesting).
    let total = snapshot.cpu_total_us();
    let proposal = snapshot.cpu_us[MsgClass::Proposal as usize];
    let proposal_pct = 100 * proposal / total.max(1);
    println!("simnet: cpu attributed total_us={total} proposal_pct={proposal_pct}");
    let cpu_ok = total > 0 && proposal * 2 > total;
    println!(
        "simnet: proposal processing dominates attributed cpu: {}",
        if cpu_ok { "ok" } else { "FAIL" }
    );
    ok &= cpu_ok;

    // Same seed, same virtual world — the exports must match byte for byte.
    let again = simnet_snapshot(8);
    let stable =
        snapshot.render_table() == again.render_table() && snapshot.to_jsonl() == again.to_jsonl();
    println!(
        "simnet: same-seed re-run renders byte-identical exports: {}",
        if stable { "ok" } else { "FAIL" }
    );
    ok && stable
}

fn run_tcp() -> bool {
    println!("## tcp: 4-node loopback cluster, 4 clients, telemetry on");
    let mut cfg = TcpClusterConfig::new(4);
    cfg.total_rate = 800.0;
    cfg.run_for = Duration::from_secs(30);
    cfg.telemetry = true;
    let cluster = TcpCluster::launch(cfg).expect("cluster boots");
    let commits = cluster.commits();
    // Run until real traffic has flowed end to end (bounded by a deadline so
    // a wedged cluster fails loudly instead of hanging CI).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        std::thread::sleep(std::time::Duration::from_millis(200));
        let delivered = {
            let log = commits.lock().unwrap();
            cluster
                .node_ids()
                .iter()
                .map(|n| log.delivered_at(*n))
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
    if let Err(violation) = commits.lock().unwrap().check() {
        eprintln!("tcp: {violation}");
        ok = false;
    }

    let spans_ok = !snapshot.spans.is_empty();
    println!(
        "tcp: span timeline retained records: {}",
        if spans_ok { "ok" } else { "FAIL" }
    );
    ok &= spans_ok;

    // Transport gauges stamped from the runtimes' NetStats: every replica
    // dials 3 peers, so the merged snapshot must carry per-peer frame/byte
    // series, and nothing should have been dropped on an idle loopback.
    let frames: u64 = snapshot
        .gauges
        .iter()
        .filter(|((name, _), _)| *name == "net.frames_sent")
        .map(|(_, g)| g.max)
        .sum();
    let drops: u64 = snapshot
        .gauges
        .iter()
        .filter(|((name, _), _)| *name == "net.writer_drops")
        .map(|(_, g)| g.max)
        .sum();
    let net_ok = frames > 0;
    println!(
        "tcp: per-peer frames_sent gauges populated: {}",
        if net_ok { "ok" } else { "FAIL" }
    );
    println!(
        "tcp: writer queues dropped nothing under light load: {}",
        if drops == 0 { "ok" } else { "FAIL" }
    );
    ok &= net_ok && drops == 0;
    cluster.shutdown();
    ok
}

fn main() -> std::process::ExitCode {
    println!("# telemetry smoke: spans + histograms + profiling under both engines");
    let simnet_ok = run_simnet();
    let tcp_ok = run_tcp();
    if simnet_ok && tcp_ok {
        println!("telemetry smoke: OK");
        std::process::ExitCode::SUCCESS
    } else {
        eprintln!("telemetry smoke: FAILED");
        std::process::ExitCode::FAILURE
    }
}
