//! Perf smoke for the simnet engine and the SHA-256 kernel, run by CI on
//! every PR.
//!
//! Quick mode (sub-second): drives the timing-wheel [`EventQueue`] and the
//! reference `BinaryHeap` queue through the identical steady-state workload
//! the `simnet_event_throughput` benchmark uses, then
//!
//! 1. asserts the wheel popped the exact event sequence of the reference
//!    queue (correctness smoke), and
//! 2. asserts the wheel's throughput did not regress below the reference
//!    queue's (regression guard; threshold configurable via
//!    `ISS_PERF_SMOKE_GUARD`, default 1.0 — the wheel must at least match
//!    the heap it replaced), and
//! 3. prints which SHA-256 kernel the process hashes with (`sha256 kernel:
//!    sha-ni | armv8-sha2 | scalar`), so every bench row recorded next to
//!    this output names its kernel, and — when that kernel is a hardware
//!    one — asserts it agrees with the scalar oracle on 1 MiB of seeded
//!    bytes.
//!
//! Exits non-zero on any violation, which fails the CI step.

use iss_bench::engine::{next_delay_us, DEPTH, WORKLOAD_SEED};
use iss_crypto::sha256::{digest_scalar, kernel_name};
use iss_crypto::Sha256;
use iss_simnet::event::{EventKind, EventQueue, ReferenceQueue};
use iss_simnet::Addr;
use iss_types::{Duration, NodeId, Time};
use std::hint::black_box;
use std::time::Instant;

fn ops_from_env() -> u64 {
    std::env::var("ISS_PERF_SMOKE_OPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000_000)
}

fn guard_from_env() -> f64 {
    std::env::var("ISS_PERF_SMOKE_GUARD")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0)
}

/// Runs `ops` pop+push steps on a queue and returns (events/s, checksum of
/// popped times). The checksum makes the two implementations comparable
/// without storing the full sequence.
macro_rules! run_workload {
    ($queue:expr, $ops:expr) => {{
        let mut q = $queue;
        let mut state = WORKLOAD_SEED;
        for i in 0..DEPTH {
            q.push(
                Time::from_micros(next_delay_us(&mut state)),
                EventKind::Start {
                    addr: Addr::Node(NodeId(i as u32)),
                },
            );
        }
        let start = Instant::now();
        let mut checksum = 0u64;
        for _ in 0..$ops {
            let e = q.pop().expect("queue is held at constant depth");
            checksum = checksum
                .wrapping_mul(0x100_0000_01b3)
                .wrapping_add(e.at.as_micros());
            q.push(
                e.at + Duration::from_micros(next_delay_us(&mut state)),
                e.kind,
            );
        }
        black_box(&mut q);
        let rate = $ops as f64 / start.elapsed().as_secs_f64();
        (rate, checksum)
    }};
}

/// Names the active SHA-256 kernel and, if it is a hardware one, checks it
/// against the portable scalar kernel on 1 MiB of seeded bytes.
fn sha256_kernel_smoke() {
    let kernel = kernel_name();
    println!("perf-smoke: sha256 kernel: {kernel}");
    if kernel == "scalar" {
        return;
    }
    let mut state = WORKLOAD_SEED;
    let data: Vec<u8> = (0..1 << 20)
        .map(|_| next_delay_us(&mut state) as u8)
        .collect();
    let start = Instant::now();
    let hardware = Sha256::digest(&data);
    let hardware_time = start.elapsed();
    let start = Instant::now();
    let scalar = digest_scalar(&data);
    let scalar_time = start.elapsed();
    assert_eq!(
        hardware, scalar,
        "{kernel} kernel diverged from the scalar oracle on 1 MiB"
    );
    println!(
        "perf-smoke: sha256 1 MiB: {kernel} {:.0} us, scalar {:.0} us ({:.1}x), digests equal",
        hardware_time.as_secs_f64() * 1e6,
        scalar_time.as_secs_f64() * 1e6,
        scalar_time.as_secs_f64() / hardware_time.as_secs_f64(),
    );
}

fn main() {
    let ops = ops_from_env();
    let guard = guard_from_env();

    let (wheel_rate, wheel_sum) = run_workload!(EventQueue::<u32>::new(), ops);
    let (heap_rate, heap_sum) = run_workload!(ReferenceQueue::<u32>::new(), ops);

    println!(
        "perf-smoke: wheel {:.2} Mevents/s, reference heap {:.2} Mevents/s ({:.2}x), {} ops",
        wheel_rate / 1e6,
        heap_rate / 1e6,
        wheel_rate / heap_rate,
        ops,
    );

    assert_eq!(
        wheel_sum, heap_sum,
        "timing wheel diverged from the reference queue's pop sequence"
    );
    assert!(
        wheel_rate >= heap_rate * guard,
        "regression guard: wheel {:.2} Mevents/s < {guard:.2}x reference heap {:.2} Mevents/s",
        wheel_rate / 1e6,
        heap_rate / 1e6,
    );

    sha256_kernel_smoke();

    println!("perf-smoke: OK (guard {guard:.2}x)");
}
