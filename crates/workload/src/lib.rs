//! Workload generation and measurement containers used by the evaluation
//! harness: the [`Workload`] trait with its built-in generators (open-loop,
//! bursty, skewed), payload-size distributions, latency statistics and
//! per-second throughput time series.
//!
//! # The `Workload` trait
//!
//! A workload is a *deterministic, recomputable* submission schedule: the
//! submission time and payload size of request `timestamp` of any client are
//! pure functions of `(client, timestamp)` (plus the workload's own
//! parameters and seed). This has two consequences the harness relies on:
//!
//! * **Latency without bookkeeping** — the metrics sink recomputes the
//!   submission time of a delivered request from its identifier instead of
//!   remembering every in-flight request.
//! * **Determinism by seed** — two runs of the same scenario produce the
//!   same submission sequence, which is what makes whole-run byte-identity
//!   (the determinism CI gate) possible at all.
//!
//! The trait is object-safe and `Send + Sync` (a schedule is plain data):
//! the experiment harness stores a scenario's workload as one
//! `Arc<dyn Workload>` that the simulator's clients and the loopback
//! engine's client threads share.

pub mod generators;
pub mod stats;
pub mod timeline;

pub use generators::{Bursty, OpenLoop, Skewed};
pub use stats::LatencyStats;
pub use timeline::ThroughputTimeline;

use iss_types::{ClientId, ReqTimestamp, Time};

/// An object-safe, deterministic request-submission schedule for a set of
/// clients (see the crate docs for the determinism contract).
pub trait Workload: std::fmt::Debug + Send + Sync {
    /// Number of clients this workload drives.
    fn num_clients(&self) -> usize;

    /// How many requests `client` should have submitted by `now`.
    ///
    /// Monotonically non-decreasing in `now`; the client process submits
    /// the difference between this and its submitted count at every tick.
    fn due_by(&self, client: ClientId, now: Time) -> u64;

    /// The submission time of request `timestamp` of `client`.
    ///
    /// Must be consistent with [`Workload::due_by`]: request `k` is due by
    /// `now` exactly when `submit_time(client, k) <= now` (modulo the
    /// floating-point floor at the window edge), and non-decreasing in
    /// `timestamp`.
    fn submit_time(&self, client: ClientId, timestamp: ReqTimestamp) -> Time;

    /// Payload size in bytes of request `timestamp` of `client`.
    fn payload_size(&self, client: ClientId, timestamp: ReqTimestamp) -> u32;
}

const _OBJECT_SAFE: fn(&dyn Workload) = |_| {};

/// A deterministic payload-size distribution.
///
/// Sizes are a pure function of `(seed, client, timestamp)` so the same
/// request always gets the same size — across runs, and across the generator
/// and the metrics side.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PayloadDist {
    /// Every request carries exactly this many bytes (the paper uses 500,
    /// the average Bitcoin transaction size).
    Fixed(u32),
    /// Sizes drawn uniformly from `min..=max`.
    Uniform {
        /// Smallest payload.
        min: u32,
        /// Largest payload (inclusive).
        max: u32,
    },
    /// Mostly `small` payloads with a deterministic fraction of `large`
    /// ones (roughly one in `large_every`), modelling occasional bulky
    /// transactions.
    Bimodal {
        /// The common payload size.
        small: u32,
        /// The occasional large payload size.
        large: u32,
        /// Approximate period of large payloads (must be non-zero).
        large_every: u64,
    },
}

impl PayloadDist {
    /// The paper's default: fixed 500-byte payloads.
    pub const DEFAULT: PayloadDist = PayloadDist::Fixed(500);

    /// The size of request `timestamp` of `client` under this distribution.
    pub fn size_for(&self, seed: u64, client: ClientId, timestamp: ReqTimestamp) -> u32 {
        match *self {
            PayloadDist::Fixed(size) => size,
            PayloadDist::Uniform { min, max } => {
                let (lo, hi) = (min.min(max), min.max(max));
                let span = (hi - lo) as u64 + 1;
                lo + (mix(seed, client, timestamp) % span) as u32
            }
            PayloadDist::Bimodal {
                small,
                large,
                large_every,
            } => {
                if mix(seed, client, timestamp).is_multiple_of(large_every.max(1)) {
                    large
                } else {
                    small
                }
            }
        }
    }
}

/// SplitMix64 finalizer over `(seed, client, timestamp)` — the deterministic
/// "randomness" behind payload sizing and the skewed-rate permutation.
pub(crate) fn mix(seed: u64, client: ClientId, timestamp: ReqTimestamp) -> u64 {
    let mut z = seed
        .wrapping_add((client.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(timestamp.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_payloads_are_constant() {
        let d = PayloadDist::Fixed(500);
        assert_eq!(d.size_for(1, ClientId(0), 0), 500);
        assert_eq!(d.size_for(99, ClientId(7), 12345), 500);
    }

    #[test]
    fn uniform_payloads_stay_in_range_and_are_deterministic() {
        let d = PayloadDist::Uniform { min: 100, max: 900 };
        let mut distinct = std::collections::HashSet::new();
        for ts in 0..200 {
            let a = d.size_for(42, ClientId(3), ts);
            let b = d.size_for(42, ClientId(3), ts);
            assert_eq!(a, b, "same (seed, client, ts) must give the same size");
            assert!((100..=900).contains(&a), "size {a} out of range");
            distinct.insert(a);
        }
        assert!(distinct.len() > 20, "uniform sizes should actually vary");
        // A different seed reshuffles sizes.
        assert!(
            (0..200).any(|ts| d.size_for(42, ClientId(3), ts) != d.size_for(43, ClientId(3), ts))
        );
    }

    #[test]
    fn bimodal_payloads_mix_small_and_large() {
        let d = PayloadDist::Bimodal {
            small: 200,
            large: 4_000,
            large_every: 10,
        };
        let sizes: Vec<u32> = (0..500).map(|ts| d.size_for(7, ClientId(0), ts)).collect();
        let large = sizes.iter().filter(|s| **s == 4_000).count();
        assert!(sizes.iter().all(|s| *s == 200 || *s == 4_000));
        assert!(
            (10..=120).contains(&large),
            "≈1 in 10 large, got {large}/500"
        );
    }
}
