//! The built-in [`Workload`] generators: open-loop (the paper's load
//! shape), bursty on/off traffic and per-client Zipf-skewed rates.
//!
//! Every generator is closed-form: both the forward direction (how many
//! requests are due by `now`) and the inverse (when request `k` was
//! submitted) are computed from the parameters alone, which keeps schedules
//! recomputable and byte-deterministic under a fixed seed.

use crate::{mix, PayloadDist, Workload};
use iss_types::{ClientId, Duration, ReqTimestamp, Time};

/// Floor guard for divisions by a configured rate.
const MIN_RATE: f64 = 1e-9;

/// An open-loop, fixed-rate submission schedule for a set of clients.
///
/// Each client submits `per_client_rate` requests per second with evenly
/// spaced inter-arrival times, matching the paper's load generation (16
/// client machines × 16 clients submitting 500-byte requests).
#[derive(Clone, Copy, Debug)]
pub struct OpenLoop {
    /// Number of clients.
    pub num_clients: usize,
    /// Aggregate request rate (requests per second across all clients).
    pub total_rate: f64,
    /// Payload-size distribution (the paper uses fixed 500-byte payloads).
    pub payload: PayloadDist,
    /// Seed for the payload-size distribution.
    pub seed: u64,
    /// Time at which submission starts.
    pub start: Time,
}

impl OpenLoop {
    /// Creates a schedule with the paper's default payload size.
    pub fn new(num_clients: usize, total_rate: f64, start: Time) -> Self {
        OpenLoop {
            num_clients,
            total_rate,
            payload: PayloadDist::DEFAULT,
            seed: 0,
            start,
        }
    }

    /// Replaces the payload-size distribution.
    pub fn with_payload(mut self, payload: PayloadDist) -> Self {
        self.payload = payload;
        self
    }

    /// Replaces the seed of the payload-size distribution.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Rate of a single client in requests per second.
    pub fn per_client_rate(&self) -> f64 {
        self.total_rate / self.num_clients.max(1) as f64
    }

    /// Interval between two consecutive requests of one client.
    pub fn per_client_interval(&self) -> Duration {
        let rate = self.per_client_rate();
        if rate <= 0.0 {
            Duration::from_secs(3600)
        } else {
            Duration::from_secs_f64(1.0 / rate)
        }
    }
}

impl Workload for OpenLoop {
    fn num_clients(&self) -> usize {
        self.num_clients
    }

    fn due_by(&self, _client: ClientId, now: Time) -> u64 {
        if now < self.start {
            return 0;
        }
        let elapsed = (now - self.start).as_secs_f64();
        (elapsed * self.per_client_rate()).floor() as u64
    }

    fn submit_time(&self, _client: ClientId, timestamp: ReqTimestamp) -> Time {
        self.start
            + Duration::from_secs_f64(timestamp as f64 / self.per_client_rate().max(MIN_RATE))
    }

    fn payload_size(&self, client: ClientId, timestamp: ReqTimestamp) -> u32 {
        self.payload.size_for(self.seed, client, timestamp)
    }
}

/// On/off duty-cycle traffic: every client submits at the burst rate for
/// `on`, then goes silent for `off`, repeating. Models diurnal or batchy
/// load where the interesting behaviour is the transient at each burst edge.
#[derive(Clone, Copy, Debug)]
pub struct Bursty {
    /// Number of clients.
    pub num_clients: usize,
    /// Aggregate rate *during a burst* (requests per second across all
    /// clients); the long-run average is `burst_rate × on / (on + off)`.
    pub burst_rate: f64,
    /// Length of the submitting phase of each cycle.
    pub on: Duration,
    /// Length of the silent phase of each cycle.
    pub off: Duration,
    /// Payload-size distribution.
    pub payload: PayloadDist,
    /// Seed for the payload-size distribution.
    pub seed: u64,
    /// Time at which the first burst starts.
    pub start: Time,
}

impl Bursty {
    /// Creates a bursty schedule with default 500-byte payloads.
    pub fn new(num_clients: usize, burst_rate: f64, on: Duration, off: Duration) -> Self {
        Bursty {
            num_clients,
            burst_rate,
            on,
            off,
            payload: PayloadDist::DEFAULT,
            seed: 0,
            start: Time::ZERO,
        }
    }

    /// Replaces the payload-size distribution.
    pub fn with_payload(mut self, payload: PayloadDist) -> Self {
        self.payload = payload;
        self
    }

    /// Replaces the seed of the payload-size distribution.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn per_client_rate(&self) -> f64 {
        self.burst_rate / self.num_clients.max(1) as f64
    }

    /// Seconds of *burst* time accumulated `t` seconds into the schedule.
    fn active_secs(&self, t: f64) -> f64 {
        let on = self.on.as_secs_f64();
        let cycle = on + self.off.as_secs_f64();
        if cycle <= 0.0 {
            return 0.0;
        }
        let full = (t / cycle).floor();
        full * on + (t - full * cycle).min(on)
    }
}

impl Workload for Bursty {
    fn num_clients(&self) -> usize {
        self.num_clients
    }

    fn due_by(&self, _client: ClientId, now: Time) -> u64 {
        if now < self.start {
            return 0;
        }
        let t = (now - self.start).as_secs_f64();
        (self.active_secs(t) * self.per_client_rate()).floor() as u64
    }

    fn submit_time(&self, _client: ClientId, timestamp: ReqTimestamp) -> Time {
        // Invert `active_secs`: request k happens once k / rate seconds of
        // burst time have accumulated.
        let on = self.on.as_secs_f64();
        let cycle = on + self.off.as_secs_f64();
        let active_needed = timestamp as f64 / self.per_client_rate().max(MIN_RATE);
        if on <= 0.0 || cycle <= 0.0 {
            return self.start + Duration::from_secs_f64(active_needed);
        }
        let full = (active_needed / on).floor();
        let rem = active_needed - full * on;
        self.start + Duration::from_secs_f64(full * cycle + rem)
    }

    fn payload_size(&self, client: ClientId, timestamp: ReqTimestamp) -> u32 {
        self.payload.size_for(self.seed, client, timestamp)
    }
}

/// Zipf-skewed per-client rates: client ranks are a seed-deterministic
/// permutation and the client of rank `r` submits proportionally to
/// `1 / (r + 1)^exponent`, so a few heavy hitters dominate the request
/// space — the adversarial shape for bucket-based load balancing.
#[derive(Clone, Debug)]
pub struct Skewed {
    /// Number of clients.
    pub num_clients: usize,
    /// Aggregate request rate across all clients (requests per second).
    pub total_rate: f64,
    /// Zipf exponent (0 = uniform; 1 ≈ classic Zipf; larger = more skew).
    pub exponent: f64,
    /// Payload-size distribution.
    pub payload: PayloadDist,
    /// Seed: permutes which client gets which rank (and payload sizes).
    pub seed: u64,
    /// Time at which submission starts.
    pub start: Time,
    /// Per-client rates, precomputed at construction (index = client).
    rates: Vec<f64>,
}

impl Skewed {
    /// Creates a skewed schedule with default 500-byte payloads.
    pub fn new(num_clients: usize, total_rate: f64, exponent: f64, seed: u64) -> Self {
        let n = num_clients.max(1);
        // Seed-deterministic rank permutation (Fisher-Yates over SplitMix64
        // draws), then Zipf weights by rank, normalized to the total rate.
        let mut ranks: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (mix(seed, ClientId(i as u32), 0xDECAF) % (i as u64 + 1)) as usize;
            ranks.swap(i, j);
        }
        // Normalize in canonical rank order (not permuted client order) so
        // the per-client rate multiset is bit-identical across seeds.
        let sum: f64 = (0..n)
            .map(|rank| 1.0 / ((rank + 1) as f64).powf(exponent))
            .sum();
        let rates = ranks
            .iter()
            .map(|rank| total_rate * (1.0 / ((rank + 1) as f64).powf(exponent)) / sum.max(MIN_RATE))
            .collect();
        Skewed {
            num_clients,
            total_rate,
            exponent,
            payload: PayloadDist::DEFAULT,
            seed,
            start: Time::ZERO,
            rates,
        }
    }

    /// Replaces the payload-size distribution.
    pub fn with_payload(mut self, payload: PayloadDist) -> Self {
        self.payload = payload;
        self
    }

    /// The rate of one client in requests per second.
    pub fn client_rate(&self, client: ClientId) -> f64 {
        self.rates.get(client.index()).copied().unwrap_or(0.0)
    }
}

impl Workload for Skewed {
    fn num_clients(&self) -> usize {
        self.num_clients
    }

    fn due_by(&self, client: ClientId, now: Time) -> u64 {
        if now < self.start {
            return 0;
        }
        let elapsed = (now - self.start).as_secs_f64();
        (elapsed * self.client_rate(client)).floor() as u64
    }

    fn submit_time(&self, client: ClientId, timestamp: ReqTimestamp) -> Time {
        self.start
            + Duration::from_secs_f64(timestamp as f64 / self.client_rate(client).max(MIN_RATE))
    }

    fn payload_size(&self, client: ClientId, timestamp: ReqTimestamp) -> u32 {
        self.payload.size_for(self.seed, client, timestamp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_rates_and_intervals() {
        let s = OpenLoop::new(16, 1600.0, Time::ZERO);
        assert!((s.per_client_rate() - 100.0).abs() < 1e-9);
        assert_eq!(s.per_client_interval(), Duration::from_millis(10));
        assert_eq!(s.payload_size(ClientId(0), 0), 500);
    }

    #[test]
    fn open_loop_submit_time_is_recomputable() {
        let s = OpenLoop::new(4, 400.0, Time::from_secs(2));
        // 100 req/s per client → request #50 at 2.5 s.
        assert_eq!(s.submit_time(ClientId(0), 50), Time::from_millis(2500));
        assert_eq!(s.submit_time(ClientId(3), 0), Time::from_secs(2));
    }

    #[test]
    fn open_loop_due_by_counts_elapsed_requests() {
        let s = OpenLoop::new(1, 100.0, Time::from_secs(1));
        assert_eq!(s.due_by(ClientId(0), Time::ZERO), 0);
        assert_eq!(s.due_by(ClientId(0), Time::from_secs(1)), 0);
        assert_eq!(s.due_by(ClientId(0), Time::from_millis(1500)), 50);
        assert_eq!(s.due_by(ClientId(0), Time::from_secs(3)), 200);
    }

    #[test]
    fn open_loop_zero_rate_is_safe() {
        let s = OpenLoop::new(4, 0.0, Time::ZERO);
        assert_eq!(s.due_by(ClientId(0), Time::from_secs(100)), 0);
        assert!(s.per_client_interval() >= Duration::from_secs(3600));
    }

    #[test]
    fn bursty_pauses_during_off_windows() {
        // 1 client, 100 req/s bursts: 2 s on, 3 s off.
        let w = Bursty::new(1, 100.0, Duration::from_secs(2), Duration::from_secs(3));
        let c = ClientId(0);
        assert_eq!(w.due_by(c, Time::from_secs(1)), 100);
        assert_eq!(w.due_by(c, Time::from_secs(2)), 200);
        // Nothing is due while the burst is off.
        assert_eq!(w.due_by(c, Time::from_secs(3)), 200);
        assert_eq!(w.due_by(c, Time::from_millis(4999)), 200);
        // The second burst resumes at t = 5 s.
        assert_eq!(w.due_by(c, Time::from_secs(6)), 300);
    }

    #[test]
    fn bursty_submit_time_inverts_due_by() {
        let w = Bursty::new(1, 100.0, Duration::from_secs(2), Duration::from_secs(3));
        let c = ClientId(0);
        // Request #200 is the first of the second burst: t = 5 s.
        assert_eq!(w.submit_time(c, 200), Time::from_secs(5));
        // Request #100 lands 1 s into the first burst.
        assert_eq!(w.submit_time(c, 100), Time::from_secs(1));
        // Request #250 lands 0.5 s into the second burst.
        assert_eq!(w.submit_time(c, 250), Time::from_millis(5500));
    }

    #[test]
    fn bursty_with_zero_off_is_open_loop() {
        let b = Bursty::new(2, 300.0, Duration::from_secs(1), Duration::ZERO);
        let o = OpenLoop::new(2, 300.0, Time::ZERO);
        for k in [0u64, 1, 10, 999] {
            assert_eq!(b.submit_time(ClientId(0), k), o.submit_time(ClientId(0), k));
        }
        assert_eq!(
            b.due_by(ClientId(0), Time::from_secs(7)),
            o.due_by(ClientId(0), Time::from_secs(7))
        );
    }

    #[test]
    fn skewed_rates_sum_to_total_and_are_skewed() {
        let w = Skewed::new(8, 800.0, 1.0, 42);
        let total: f64 = (0..8).map(|i| w.client_rate(ClientId(i))).sum();
        assert!((total - 800.0).abs() < 1e-6, "rates sum to {total}");
        let mut rates: Vec<f64> = (0..8).map(|i| w.client_rate(ClientId(i))).collect();
        rates.sort_by(|a, b| b.partial_cmp(a).unwrap());
        assert!(
            rates[0] > 3.0 * rates[7],
            "heaviest client ({:.1}) should dominate the lightest ({:.1})",
            rates[0],
            rates[7]
        );
    }

    #[test]
    fn skewed_seed_permutes_but_preserves_the_rate_multiset() {
        let a = Skewed::new(8, 800.0, 1.0, 1);
        let b = Skewed::new(8, 800.0, 1.0, 2);
        let mut ra: Vec<u64> = (0..8)
            .map(|i| a.client_rate(ClientId(i)).to_bits())
            .collect();
        let mut rb: Vec<u64> = (0..8)
            .map(|i| b.client_rate(ClientId(i)).to_bits())
            .collect();
        assert_ne!(ra, rb, "different seeds should assign ranks differently");
        ra.sort_unstable();
        rb.sort_unstable();
        assert_eq!(ra, rb, "the rate multiset is seed-independent");
    }

    #[test]
    fn skewed_zero_exponent_is_uniform() {
        let w = Skewed::new(4, 400.0, 0.0, 9);
        for i in 0..4 {
            assert!((w.client_rate(ClientId(i)) - 100.0).abs() < 1e-9);
        }
    }
}
