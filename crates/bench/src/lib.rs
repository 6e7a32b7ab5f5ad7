//! Benchmark harness regenerating the tables and figures of the paper's
//! evaluation (Section 6).
//!
//! * `cargo bench -p iss-bench --bench micro` — Criterion micro-benchmarks of
//!   the substrates (hashing, Merkle trees, signatures, bucket mapping,
//!   batch cutting, codec, PBFT instance stepping).
//! * `cargo run --release -p iss-bench -- <command>` — the `iss-bench`
//!   command: `table1`, `fig5` … `fig12` and `compartment-scale` print one
//!   table or figure each at configurable scale (`ISS_SCALE=quick|default|paper`),
//!   `smoke <name>` runs a CI gate and `diff` compares micro-bench baselines.

use iss_sim::experiments::Scale;

pub mod engine {
    //! The seeded delay stream of the `simnet_event_throughput` bench.

    /// Deterministic xorshift64* delay stream: mostly sub-250 ms network/CPU
    /// style delays, occasionally seconds-out protocol timers.
    pub fn next_delay_us(state: &mut u64) -> u64 {
        *state ^= *state >> 12;
        *state ^= *state << 25;
        *state ^= *state >> 27;
        let x = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
        if x % 100 < 90 {
            x % 250_000
        } else {
            1_000_000 + x % 4_000_000
        }
    }

    /// Seed used by every engine workload.
    pub const WORKLOAD_SEED: u64 = 0x155_5eed;

    /// Queue depth the steady-state workload holds (a fig8-scale run keeps
    /// thousands of in-flight events).
    pub const DEPTH: usize = 65536;
}

pub mod authload {
    //! Signed-request workload for the `verify` micro bench.

    use iss_crypto::{request_digest, Identity, KeyPair, VerifyItem};
    use iss_types::{ClientId, Request};

    /// Number of distinct signing clients in the workload.
    pub const CLIENTS: u32 = 64;

    /// `n` signed 64-byte requests from [`CLIENTS`] round-robin clients.
    pub fn signed_requests(n: usize) -> Vec<Request> {
        (0..n as u32)
            .map(|i| {
                let client = ClientId(i % CLIENTS);
                let req = Request::new(client, i as u64, vec![0u8; 64]);
                let sig = KeyPair::for_client(client)
                    .sign(&request_digest(&req))
                    .to_vec();
                req.with_signature(sig)
            })
            .collect()
    }

    /// The request digests of `requests` (warms each request's memo).
    pub fn digests(requests: &[Request]) -> Vec<[u8; 32]> {
        requests.iter().map(request_digest).collect()
    }

    /// Verification work items borrowing parallel request/digest storage.
    pub fn items<'a>(requests: &'a [Request], digests: &'a [[u8; 32]]) -> Vec<VerifyItem<'a>> {
        requests
            .iter()
            .zip(digests)
            .map(|(r, d)| (Identity::Client(r.id.client), &d[..], &r.signature[..]))
            .collect()
    }
}

/// The scale an `iss-bench` command runs at, read from `ISS_SCALE`
/// (`quick`, `default` or `paper`). Unset, `smoke` gets `quick` and every
/// other command the benchmark scale `default`. `ISS_FAULT_NODES` overrides
/// the cluster size of the fault experiments (figures 7–9), e.g. to
/// reproduce the full-scale n=32 crash runs at quick duration.
pub fn scale_for(command: &str) -> Scale {
    let mut scale = match std::env::var("ISS_SCALE").as_deref() {
        Ok("quick") => Scale::quick(),
        Ok("paper") => Scale::paper(),
        Ok(_) => Scale::default(),
        Err(_) if command == "smoke" => Scale::quick(),
        Err(_) => Scale::default(),
    };
    if let Some(n) = std::env::var("ISS_FAULT_NODES")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        scale.fault_nodes = n;
    }
    scale
}

#[cfg(test)]
mod tests {
    use super::*;

    fn same_scale(a: Scale, b: Scale) -> bool {
        a.node_counts == b.node_counts
            && a.duration_secs == b.duration_secs
            && a.load_factor == b.load_factor
    }

    #[test]
    fn scale_default_without_env() {
        std::env::remove_var("ISS_SCALE");
        for figure in [
            "table1",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "compartment-scale",
        ] {
            assert!(
                same_scale(scale_for(figure), Scale::default()),
                "{figure} must default to the benchmark scale"
            );
        }
        assert!(
            same_scale(scale_for("smoke"), Scale::quick()),
            "smoke commands must default to quick scale"
        );
    }
}
