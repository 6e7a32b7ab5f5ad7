//! Property tests of the built-in [`Workload`] generators: under a fixed
//! seed every generator must produce the *same* submission sequence twice
//! (determinism is what the whole-run byte-identity CI gate rests on), the
//! sequence must be non-decreasing in the request timestamp, `due_by` must
//! be monotone in time and consistent with `submit_time`, and payload sizes
//! must be recomputable.

use iss_types::{ClientId, Duration, Time};
use iss_workload::{Bursty, OpenLoop, PayloadDist, Skewed, Workload};
use proptest::prelude::*;

/// The generators under test, built twice from identical parameters.
fn pair(kind: u8, clients: usize, rate: f64, seed: u64) -> (Box<dyn Workload>, Box<dyn Workload>) {
    let secs = 1 + seed % 5;
    match kind % 3 {
        0 => (
            Box::new(OpenLoop::new(clients, rate, Time::ZERO).with_seed(seed)),
            Box::new(OpenLoop::new(clients, rate, Time::ZERO).with_seed(seed)),
        ),
        1 => {
            let on = Duration::from_secs(secs);
            let off = Duration::from_millis(250 * (seed % 8));
            (
                Box::new(Bursty::new(clients, rate, on, off).with_seed(seed)),
                Box::new(Bursty::new(clients, rate, on, off).with_seed(seed)),
            )
        }
        _ => (
            Box::new(Skewed::new(clients, rate, 1.0, seed)),
            Box::new(Skewed::new(clients, rate, 1.0, seed)),
        ),
    }
}

/// A payload distribution drawn from the seed.
fn payload_for(seed: u64) -> PayloadDist {
    match seed % 3 {
        0 => PayloadDist::Fixed(100 + (seed % 900) as u32),
        1 => PayloadDist::Uniform {
            min: 64,
            max: 64 + (seed % 2000) as u32,
        },
        _ => PayloadDist::Bimodal {
            small: 200,
            large: 4096,
            large_every: 1 + seed % 50,
        },
    }
}

proptest! {
    #[test]
    fn same_seed_gives_the_same_submit_sequence_twice(
        kind in 0u8..3,
        clients in 1usize..12,
        rate_centi in 100u64..400_000,
        seed in 0u64..1_000_000,
    ) {
        let rate = rate_centi as f64 / 100.0;
        let (a, b) = pair(kind, clients, rate, seed);
        prop_assert_eq!(a.num_clients(), b.num_clients());
        for c in 0..clients as u32 {
            let client = ClientId(c);
            for ts in 0..64u64 {
                prop_assert_eq!(
                    a.submit_time(client, ts),
                    b.submit_time(client, ts),
                    "kind {} client {} ts {}", kind % 3, c, ts
                );
                prop_assert_eq!(
                    a.payload_size(client, ts),
                    b.payload_size(client, ts),
                    "payload kind {} client {} ts {}", kind % 3, c, ts
                );
            }
        }
    }

    #[test]
    fn submit_times_are_monotone_in_the_timestamp(
        kind in 0u8..3,
        clients in 1usize..8,
        rate_centi in 1_000u64..400_000,
        seed in 0u64..1_000_000,
    ) {
        let rate = rate_centi as f64 / 100.0;
        let (w, _) = pair(kind, clients, rate, seed);
        for c in 0..clients as u32 {
            let client = ClientId(c);
            let mut prev = w.submit_time(client, 0);
            for ts in 1..128u64 {
                let t = w.submit_time(client, ts);
                prop_assert!(
                    t >= prev,
                    "kind {} client {}: submit_time({}) = {:?} < submit_time({}) = {:?}",
                    kind % 3, c, ts, t, ts - 1, prev
                );
                prev = t;
            }
        }
    }

    #[test]
    fn due_by_is_monotone_and_consistent_with_submit_time(
        kind in 0u8..3,
        clients in 1usize..8,
        rate_centi in 1_000u64..200_000,
        seed in 0u64..1_000_000,
        probe_ms in 0u64..20_000,
    ) {
        let rate = rate_centi as f64 / 100.0;
        let (w, _) = pair(kind, clients, rate, seed);
        let client = ClientId((seed % clients as u64) as u32);
        // Monotone: sampling later never yields fewer due requests.
        let earlier = w.due_by(client, Time::from_millis(probe_ms));
        let later = w.due_by(client, Time::from_millis(probe_ms + 1 + seed % 5_000));
        prop_assert!(later >= earlier, "due_by went backwards: {earlier} -> {later}");
        // Consistent: every request counted due by `t` was submitted by `t`
        // (one count of float-floor slack at the window edge).
        let t = Time::from_millis(probe_ms);
        let due = w.due_by(client, t);
        if due > 0 {
            let submitted = w.submit_time(client, due - 1);
            prop_assert!(
                submitted <= t + iss_types::Duration::from_micros(1),
                "request {} counted due by {:?} but submits at {:?}",
                due - 1, t, submitted
            );
        }
    }

    #[test]
    fn payload_distributions_are_recomputable_and_bounded(
        seed in 0u64..1_000_000,
        client in 0u32..32,
        ts in 0u64..100_000,
    ) {
        let dist = payload_for(seed);
        let a = dist.size_for(seed, ClientId(client), ts);
        let b = dist.size_for(seed, ClientId(client), ts);
        prop_assert_eq!(a, b);
        let bound_ok = match dist {
            PayloadDist::Fixed(s) => a == s,
            PayloadDist::Uniform { min, max } => a >= min && a <= max,
            PayloadDist::Bimodal { small, large, .. } => a == small || a == large,
        };
        prop_assert!(bound_ok, "size {} escapes {:?}", a, dist);
    }
}
