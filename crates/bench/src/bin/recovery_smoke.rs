//! Crash-restart recovery smoke: runs the crash-restart scenario (node 1
//! down for a window, rebooting from its durable storage) and prints every
//! number a recovery produces — WAL entries replayed, snapshot chunks
//! installed, catch-up time in whole microseconds of virtual time — plus
//! the headline delivery counters.
//!
//! The output is purely a function of the simulation seed, so CI runs this
//! binary twice and diffs the bytes: the durable-storage path (WAL replay,
//! snapshot assembly, the gap-chasing state transfer) is covered by the
//! same same-seed-same-bytes gate as the fault-free figures. It also
//! enforces the recovery-latency bound — catch-up must take well under the
//! ≈10 s epoch-change timeout a snapshot-less rejoin would wait out.
//!
//! Scale defaults to `quick`; set `ISS_SCALE` explicitly to override.

use iss_bench::smoke_scale;
use iss_sim::experiments::scenario_crash_restart;
use iss_types::{Duration, NodeId};

fn main() -> std::process::ExitCode {
    let report = scenario_crash_restart(smoke_scale());
    println!("# crash-restart recovery smoke");
    println!("delivered {}", report.delivered);
    println!("nil_committed {}", report.nil_committed);
    println!("messages_dropped {}", report.messages_dropped);
    println!("recoveries {}", report.recoveries.len());
    for r in &report.recoveries {
        println!(
            "recovery node={} started_us={} completed_us={} wal_entries={} snapshot_chunks={} \
             catch_up_us={}",
            r.node.0,
            r.started_at.as_micros(),
            r.completed_at.as_micros(),
            r.entries_replayed,
            r.snapshot_chunks,
            r.time_to_catch_up().as_micros()
        );
    }

    let Some(recovery) = report.recoveries.iter().find(|r| r.node == NodeId(1)) else {
        eprintln!("recovery smoke: restarted node never completed recovery");
        return std::process::ExitCode::FAILURE;
    };
    if recovery.entries_replayed == 0 && recovery.snapshot_chunks == 0 {
        eprintln!("recovery smoke: recovery bypassed the durable-storage path");
        return std::process::ExitCode::FAILURE;
    }
    if recovery.time_to_catch_up() >= Duration::from_secs(2) {
        eprintln!(
            "recovery smoke: catch-up took {:?} — not well under the epoch-change timeout",
            recovery.time_to_catch_up()
        );
        return std::process::ExitCode::FAILURE;
    }
    println!("recovery smoke: OK");
    std::process::ExitCode::SUCCESS
}
