//! Metric names, units and the result line. The lists here are the single
//! source of the names; `BENCHMARK.json` repeats them and a test in this
//! package checks the two agree.

use std::fmt::Write;

/// An end-to-end metric: what a user of the system sees, with the share of
/// the parent's median by which it may worsen before a change is rejected.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// End-to-end metrics, printed by an untraced run (`--trace 0`). Every
/// workload reports every one of them. Client latency and peak memory are
/// *not* here: their run-to-run spread on the open-loop workloads is wider
/// than any admissible bound (README, "Why three end-to-end metrics"), so
/// they are per-layer values.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_rps",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_req",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// `(name, unit)` of every end-to-end metric, in print order.
pub fn end_to_end_schema() -> Vec<(&'static str, &'static str)> {
    END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
}

/// Per-layer metrics, printed by a traced run (`--trace 1`). A metric that
/// does not apply to a workload (storage on a run without a WAL, `net` on
/// the simulator) prints 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("client.submitted", "count"),
    ("client.confirmed", "count"),
    ("client.retransmitted", "count"),
    ("client.gen_late_p99_ms", "ms"),
    ("client.latency_p50_ms", "ms"),
    ("client.latency_p99_ms", "ms"),
    ("client.outage_ms", "ms"),
    ("client.failed_frac", "ratio"),
    ("client.thread_cpu_us_per_req", "us"),
    ("net.frames_per_req", "count"),
    ("net.bytes_per_req", "B"),
    ("net.mailbox_depth_max", "count"),
    ("net.writer_depth_max", "count"),
    ("net.writer_drops", "count"),
    ("net.reconnects", "count"),
    ("net.proto_thread_cpu_us_per_req", "us"),
    ("net.io_thread_cpu_us_per_req", "us"),
    ("net.sys_cpu_share", "ratio"),
    ("net.frame_write_vote_ns", "ns"),
    ("net.frame_write_proposal_ns", "ns"),
    ("net.frame_read_proposal_ns", "ns"),
    ("messages.encode_ns_per_req", "ns"),
    ("messages.decode_ns_per_req", "ns"),
    ("messages.vote_encode_ns", "ns"),
    ("messages.vote_decode_ns", "ns"),
    ("messages.wire_bytes_per_req", "B"),
    ("crypto.sign_ns", "ns"),
    ("crypto.verify_ns", "ns"),
    ("crypto.verify_cached_ns", "ns"),
    ("crypto.verify_batch_ns_per_req", "ns"),
    ("crypto.request_digest_ns", "ns"),
    ("crypto.batch_digest_ns_per_req", "ns"),
    ("core.busy_us_per_req", "us"),
    ("core.busy_request_us_per_req", "us"),
    ("core.busy_proposal_us_per_req", "us"),
    ("core.busy_vote_us_per_req", "us"),
    ("core.busy_checkpoint_us_per_req", "us"),
    ("core.busy_timer_us_per_req", "us"),
    ("core.callback_p99_us", "us"),
    ("core.validate_request_ns", "ns"),
    ("core.validate_proposal_ns_per_req", "ns"),
    ("core.cut_batch_ns_per_req", "ns"),
    ("core.batch_size_mean", "count"),
    ("core.phase_arrival_cut_p50_ms", "ms"),
    ("core.phase_propose_quorum_p50_ms", "ms"),
    ("core.phase_quorum_deliver_p50_ms", "ms"),
    ("core.epochs", "count"),
    ("core.nil_committed", "count"),
    ("core.requests_rejected", "count"),
    ("core.recovery_catchup_ms", "ms"),
    ("core.wal_entries_replayed", "count"),
    ("core.n1_cpu_us_per_req", "us"),
    ("pbft.msgs_per_batch", "count"),
    ("storage.append_us_per_req", "us"),
    ("storage.appends_per_req", "count"),
    ("storage.wal_bytes_per_req", "B"),
    ("storage.prune_count", "count"),
    ("storage.prune_ms_mean", "ms"),
    ("storage.snapshot_ms_mean", "ms"),
    ("storage.recover_ms", "ms"),
    ("sim.step_p50_ms", "ms"),
    ("sim.step_p99_ms", "ms"),
    ("sim.model_throughput_rps", "1/s"),
    ("sim.model_latency_mean_ms", "ms"),
    ("sim.msgs_per_req", "count"),
    ("sim.bytes_per_req", "B"),
    ("sim.model_cpu_share_proposal", "ratio"),
    ("sim.model_cpu_share_request", "ratio"),
    ("sim.model_cpu_share_vote", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_cpu_us_per_req", "us"),
    ("trace.spans", "count"),
    ("proc.peak_rss_mb", "MiB"),
    ("proc.threads", "count"),
];

/// Named values of one run, in insertion order.
#[derive(Default, Debug, Clone)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// What one benchmark run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Requests submitted in the measured window.
    pub attempted: u64,
    /// Of those, still unconfirmed after the drain.
    pub failed: u64,
    /// Output checks that failed, by name; empty when all held.
    pub failed_checks: Vec<String>,
    pub values: Values,
    /// Human-readable context printed above the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed_checks.is_empty()
    }

    /// The result line: exactly the keys of `schema`, in its order.
    pub fn result_line(&self, schema: &[(&str, &str)]) -> String {
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in schema.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                line,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                self.values.get(name)
            );
        }
        line.push_str("}}");
        line
    }
}

/// `q`-quantile (nearest rank) of an ascending slice; 0 when empty.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of a slice of floats (not required to be sorted); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must list exactly the metrics this package prints.
    #[test]
    fn manifest_lists_every_metric() {
        let manifest =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        for m in END_TO_END {
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}",
                m.name, m.unit, m.bound
            );
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, unit) in PER_LAYER {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = manifest.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&[], 0.5), 0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
