//! Perf smoke for the SHA-256 kernel, run by CI on every PR.
//!
//! Prints which SHA-256 kernel the process hashes with (`sha256 kernel:
//! sha-ni | armv8-sha2 | scalar`), so every bench row recorded next to this
//! output names its kernel, and — when that kernel is a hardware one —
//! asserts it agrees with the scalar oracle on 1 MiB of seeded bytes.
//!
//! Exits non-zero on a divergence, which fails the CI step.

use iss_bench::engine::{next_delay_us, WORKLOAD_SEED};
use iss_crypto::sha256::{digest_scalar, kernel_name};
use iss_crypto::Sha256;
use std::time::Instant;

fn main() {
    let kernel = kernel_name();
    println!("perf-smoke: sha256 kernel: {kernel}");
    if kernel != "scalar" {
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
    println!("perf-smoke: OK");
}
