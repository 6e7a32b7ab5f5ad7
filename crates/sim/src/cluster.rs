//! Deployment construction and execution: materializes a [`Scenario`] into
//! an n-node ISS (or baseline) deployment with simulated clients on the
//! configured topology, runs it for the scenario's window and produces a
//! [`Report`]. [`replica`] and [`Report`] are shared with the loopback TCP
//! engine (`iss_net::TcpCluster`).

use crate::adversary::{
    evaluate_gates, AdversarialProcess, AdversaryReport, ClientAdversary, NodeAdversary,
};
use crate::factories::{make_factory, Protocol};
use crate::metrics::{MetricsHandle, MetricsSink, RecoveryEvent};
use crate::scenario::Scenario;
use iss_core::{DeliverySink, IssNode, Mode, NodeOptions, Violation};
use iss_crypto::SignatureRegistry;
use iss_messages::NetMsg;
use iss_runtime::{Addr, Process};
use iss_simnet::fault::CrashSchedule;
use iss_simnet::{CpuModel, Runtime, RuntimeConfig};
use iss_storage::{MemStorage, Storage};
use iss_telemetry::{TelemetryHandle, TelemetrySnapshot};
use iss_types::{ClientId, Duration, NodeId, Time};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

pub use crate::scenario::CrashTiming;

/// A built deployment, ready to run.
pub struct Deployment {
    /// The discrete-event runtime holding all processes.
    pub runtime: Runtime<NetMsg>,
    /// Shared metrics.
    pub metrics: MetricsHandle,
    /// The scenario the deployment was built from.
    pub scenario: Scenario,
    /// Per-node telemetry handles (empty when the scenario leaves telemetry
    /// off); their shards merge into `Report::telemetry` after the run.
    telemetry_handles: Vec<(NodeId, TelemetryHandle)>,
}

/// Summary of one run, on either engine.
///
/// On loopback TCP every time is the clock of the runtime that observed it,
/// counted from that runtime's spawn: the observer's deliveries are stamped
/// on the observer's clock and their submission times on the clients',
/// which start a few milliseconds later, so latencies include that launch
/// skew. A restarted node's clock starts again at its restart.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Average delivered throughput (requests/s) in the measurement window.
    pub throughput: f64,
    /// Mean end-to-end latency.
    pub mean_latency: Duration,
    /// 95th-percentile latency.
    pub p95_latency: Duration,
    /// Total requests delivered at the observer node.
    pub delivered: u64,
    /// Per-second throughput series at the observer node.
    pub timeline: Vec<u64>,
    /// Epoch transition times at the observer node.
    pub epochs: Vec<(u64, Time)>,
    /// ⊥ entries committed at the observer node.
    pub nil_committed: u64,
    /// Total protocol messages sent in the run. No loopback source (0): see
    /// the telemetry's `net.frames_sent` gauges there.
    pub messages_sent: u64,
    /// Total bytes sent in the run. No loopback source (0): see the
    /// telemetry's `net.bytes_sent` gauges there.
    pub bytes_sent: u64,
    /// Messages dropped by crashes, partitions or probabilistic loss. No
    /// loopback source (0): see the telemetry's `net.writer_drops` gauges.
    pub messages_dropped: u64,
    /// Completed recoveries (crash-restarts rebooting from durable storage,
    /// reconnect fast paths), with time-to-catch-up, WAL entries replayed
    /// and snapshot chunks transferred.
    pub recoveries: Vec<RecoveryEvent>,
    /// Requests rejected at intake validation, per node (sorted by node id;
    /// empty in benign runs).
    pub rejected_requests: Vec<(NodeId, u64)>,
    /// Liveness-gate verdict of the adversary plan; `None` when the scenario
    /// schedules no adversarial behavior. Always `None` on loopback, which
    /// refuses attacks.
    pub adversary: Option<AdversaryReport>,
    /// The first delivery the checker rejected. Always `None` on the
    /// simulator, which panics at it.
    pub violation: Option<Violation>,
    /// Cluster-wide telemetry snapshot (all nodes' shards merged); `None`
    /// unless the scenario enables telemetry. Virtual time makes the
    /// snapshot — including its rendered exports — byte-identical across
    /// same-seed runs; on loopback it also carries the transport gauges and
    /// no `cpu.node_busy_us`.
    pub telemetry: Option<TelemetrySnapshot>,
}

/// Replica `node_id` ordering with `protocol`, built the same way on both
/// engines: with `storage`, it first recovers what an earlier incarnation
/// persisted there.
pub fn replica(
    node_id: NodeId,
    opts: NodeOptions,
    protocol: Protocol,
    registry: Arc<SignatureRegistry>,
    sink: Rc<RefCell<dyn DeliverySink>>,
    storage: Option<Rc<dyn Storage>>,
) -> IssNode {
    let factory = make_factory(protocol, &opts.config, Arc::clone(&registry));
    match storage {
        Some(storage) => IssNode::with_storage(node_id, opts, factory, registry, sink, storage),
        None => IssNode::new(node_id, opts, factory, registry, sink),
    }
}

impl Deployment {
    /// Builds the deployment described by `scenario`.
    pub fn new(scenario: Scenario) -> Self {
        let config = scenario.iss_config();
        let registry = scenario.registry();

        // The fault plan lowers in one pass: the crash schedule is the one
        // source of which nodes go down and which of them reboot when.
        let mut crashes = CrashSchedule::none();
        for (node, down, up) in scenario.crashes() {
            crashes = match up {
                None => crashes.crash(node, down),
                Some(up) => crashes.crash_restart(node, down, up),
            };
        }
        let metrics = Rc::new(RefCell::new(scenario.metrics()));

        // Simulated testbed on the scenario's topology.
        let mut runtime_config = RuntimeConfig::testbed();
        runtime_config.topology = scenario.topology.build();
        runtime_config.seed = scenario.seed;
        runtime_config.cpu = match scenario.stack.protocol {
            Protocol::Raft => CpuModel::testbed_no_sigs(),
            _ => CpuModel::testbed(),
        };
        if scenario.stack.mode == Mode::Mir {
            // The paper attributes ISS-PBFT's edge over Mir-BFT to more
            // careful concurrency handling; model it as a per-request
            // processing overhead.
            runtime_config.cpu.per_request =
                runtime_config.cpu.per_request.saturating_mul(13).div(10);
        }
        runtime_config.faults.crashes = crashes;
        runtime_config.faults.partitions = scenario.faults.partitions.clone();
        runtime_config.faults.loss_windows = scenario.faults.loss_windows.clone();

        let mut runtime: Runtime<NetMsg> = Runtime::new(runtime_config);
        let mut telemetry_handles: Vec<(NodeId, TelemetryHandle)> = Vec::new();

        for n in 0..scenario.num_nodes as u32 {
            let node_id = NodeId(n);
            let opts = scenario.node_options(node_id, &config);
            // Each node's telemetry is also attached to its address for
            // CPU-by-class attribution.
            if opts.telemetry.is_enabled() {
                telemetry_handles.push((node_id, opts.telemetry.clone()));
                runtime.attach_telemetry(Addr::Node(node_id), opts.telemetry.clone());
            }
            // A restarting node gets durable (simulated in-memory) storage
            // and a reboot scheduled at the end of its down window; everyone
            // else runs storage-free.
            let restart_at = scenario
                .crashes()
                .find_map(|(id, _, up)| up.filter(|_| id == node_id));
            let behavior = scenario.adversary.nodes.get(&node_id).map(|&attacks| {
                NodeAdversary::new(
                    node_id,
                    attacks,
                    scenario.num_nodes,
                    config.num_buckets(),
                    config.max_batch_size,
                )
            });
            Self::add_node(
                &mut runtime,
                scenario.stack.protocol,
                node_id,
                opts,
                &registry,
                &metrics,
                restart_at,
                behavior,
            );
        }

        for c in (0..scenario.num_clients() as u32).map(ClientId) {
            let process: Box<dyn Process<NetMsg>> = Box::new(scenario.client_process(c, &config));
            let process = match scenario.adversary.clients.get(&c) {
                Some(&attacks) => Box::new(AdversarialProcess::new(
                    process,
                    Box::new(ClientAdversary::new(attacks, scenario.num_nodes)),
                )),
                None => process,
            };
            runtime.add_process(Addr::Client(c), process);
        }

        Deployment {
            runtime,
            metrics,
            scenario,
            telemetry_handles,
        }
    }

    /// Registers one replica, wiring up durable storage and a scheduled
    /// reboot when the fault plan restarts it (at `restart_at`). The rebooted
    /// incarnation is built at restart time from the same shared storage, so
    /// it recovers exactly what the pre-crash incarnation persisted. An
    /// adversarial `behavior` wraps the node's I/O (adversarial nodes are not
    /// combinable with crash-restarts: a restarting Byzantine node is
    /// indistinguishable from a fresh one in this model, so the plan simply
    /// does not schedule both on one node).
    #[allow(clippy::too_many_arguments)]
    fn add_node(
        runtime: &mut Runtime<NetMsg>,
        protocol: Protocol,
        node_id: NodeId,
        opts: NodeOptions,
        registry: &Arc<SignatureRegistry>,
        metrics: &MetricsHandle,
        restart_at: Option<Time>,
        behavior: Option<NodeAdversary>,
    ) {
        debug_assert!(
            behavior.is_none() || restart_at.is_none(),
            "adversarial nodes must not be scheduled for crash-restart"
        );
        let storage = restart_at.map(|_| Rc::new(MemStorage::new()) as Rc<dyn Storage>);
        let (registry, metrics) = (Arc::clone(registry), Rc::clone(metrics));
        let build = move |storage| {
            let sink = Rc::new(RefCell::new(MetricsSink::new(Rc::clone(&metrics))));
            replica(
                node_id,
                opts.clone(),
                protocol,
                Arc::clone(&registry),
                sink,
                storage,
            )
        };
        let process: Box<dyn Process<NetMsg>> = Box::new(build(storage.clone()));
        let process = match behavior {
            Some(b) => Box::new(AdversarialProcess::new(process, Box::new(b))),
            None => process,
        };
        runtime.add_process(Addr::Node(node_id), process);
        if let Some(up_at) = restart_at {
            runtime.schedule_restart(Addr::Node(node_id), up_at, move || {
                Box::new(build(storage)) as Box<dyn Process<NetMsg>>
            });
        }
    }

    /// Runs the deployment for the configured duration and summarizes it.
    pub fn run(&mut self) -> Report {
        let window = self.scenario.window;
        // Run past the submission cutoff so the last proposals settle.
        // Throughput is averaged over [warmup, duration] only; latency
        // samples, delivery counts and message/byte totals deliberately
        // include the drain window, so late deliveries of pre-cutoff
        // requests are observed instead of truncated.
        self.runtime
            .run_until(Time::ZERO + window.duration + window.drain);
        let stats = self.runtime.stats();
        let mut m = self.metrics.borrow_mut();
        let adversary =
            (!self.scenario.adversary.is_empty()).then(|| evaluate_gates(&self.scenario, &m));
        // Telemetry: stamp per-node CPU gauges, then merge all shards into one
        // cluster-wide snapshot. Everything is virtual time, so the snapshot
        // is byte-identical across same-seed runs.
        let telemetry = if self.telemetry_handles.is_empty() {
            None
        } else {
            for (node, h) in &self.telemetry_handles {
                h.gauge_set_for(
                    "cpu.node_busy_us",
                    node.0,
                    self.runtime.busy_time(Addr::Node(*node)).as_micros(),
                );
            }
            let mut merged = TelemetrySnapshot::empty();
            for (_, h) in &self.telemetry_handles {
                if let Some(snap) = h.snapshot() {
                    merged.merge(&snap);
                }
            }
            Some(merged)
        };
        Report {
            messages_sent: stats.messages_sent,
            bytes_sent: stats.bytes_sent,
            messages_dropped: stats.messages_dropped,
            adversary,
            telemetry,
            ..m.report(window)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioBuilder;

    /// 4 replicas, 4 open-loop clients at 400 requests/s, 12 s with 2 s of
    /// warm-up; every other dimension at the builder's defaults.
    fn small(protocol: Protocol) -> ScenarioBuilder {
        Scenario::builder(protocol, 4)
            .open_loop(4, 400.0)
            .duration(Duration::from_secs(12))
            .warmup(Duration::from_secs(2))
    }

    #[test]
    fn iss_pbft_cluster_delivers_requests() {
        let report = small(Protocol::Pbft).build().run();
        assert!(report.delivered > 1000, "delivered {}", report.delivered);
        assert!(
            report.throughput > 100.0,
            "throughput {}",
            report.throughput
        );
        assert!(report.mean_latency > Duration::ZERO);
        assert!(report.messages_sent > 0);
    }

    #[test]
    fn iss_raft_cluster_delivers_requests() {
        let report = small(Protocol::Raft).build().run();
        assert!(report.delivered > 1000, "delivered {}", report.delivered);
    }

    #[test]
    fn iss_hotstuff_cluster_delivers_requests() {
        let report = small(Protocol::HotStuff).build().run();
        assert!(report.delivered > 500, "delivered {}", report.delivered);
    }

    #[test]
    fn single_leader_baseline_also_works() {
        let report = small(Protocol::Pbft).mode(Mode::SingleLeader).build().run();
        assert!(report.delivered > 500, "delivered {}", report.delivered);
    }

    #[test]
    fn crash_timing_helpers() {
        let scenario = small(Protocol::Pbft).build();
        assert_eq!(scenario.expected_epoch_duration(), Duration::from_secs(8));
        assert_eq!(
            scenario.crash_time(CrashTiming::EpochStart),
            Time::from_millis(500)
        );
        assert!(scenario.crash_time(CrashTiming::EpochEnd) > Time::from_secs(7));
        assert_eq!(
            scenario.crash_time(CrashTiming::At(Time::from_secs(3))),
            Time::from_secs(3)
        );
    }

    #[test]
    fn partition_scenario_drops_and_heals() {
        // Cut node 0 off from the rest between t=3s and t=6s; the remaining
        // 3-of-4 quorum (including the observer) keeps committing.
        let scenario = Scenario::builder(Protocol::Pbft, 4)
            .open_loop(4, 400.0)
            .duration(Duration::from_secs(12))
            .warmup(Duration::from_secs(2))
            .partition(
                vec![NodeId(1), NodeId(2), NodeId(3)],
                vec![NodeId(0)],
                Time::from_secs(3),
                Time::from_secs(6),
            )
            .build();
        let report = scenario.run();
        assert!(report.delivered > 500, "delivered {}", report.delivered);
        assert!(
            report.messages_dropped > 0,
            "the partition must actually drop traffic"
        );
    }

    #[test]
    fn observer_avoids_the_minority_side_of_a_partition() {
        let partitioned = || {
            Scenario::builder(Protocol::Pbft, 4)
                .open_loop(4, 400.0)
                .partition(
                    vec![NodeId(0), NodeId(1), NodeId(2)],
                    vec![NodeId(3)],
                    Time::from_secs(3),
                    Time::from_secs(6),
                )
        };
        let observer = |builder: ScenarioBuilder| {
            let deployment = Deployment::new(builder.build());
            let observer = deployment.metrics.borrow().observer;
            observer
        };
        assert_eq!(
            observer(partitioned()),
            NodeId(2),
            "the cut-off node 3 must not be the observer"
        );
        // Faults on the majority side push the observer further down it.
        assert_eq!(observer(partitioned().straggler(NodeId(2))), NodeId(1));
        assert_eq!(
            observer(
                partitioned()
                    .crash(NodeId(2), CrashTiming::EpochStart)
                    .crash_restart(NodeId(1), CrashTiming::EpochEnd, Duration::from_secs(2))
            ),
            NodeId(0)
        );
        // Without partitions the highest node is chosen, as before.
        assert_eq!(observer(Scenario::builder(Protocol::Pbft, 4)), NodeId(3));
    }

    #[test]
    fn observer_avoids_adversarial_nodes() {
        let base = || Scenario::builder(Protocol::Pbft, 4).open_loop(4, 400.0);
        let cases = [
            (
                "an equivocator",
                base().equivocating_leader(NodeId(3), 1, 2),
            ),
            (
                "a crashed node",
                base().crash(NodeId(3), CrashTiming::EpochStart),
            ),
            (
                "a restarting node",
                base().crash_restart(
                    NodeId(3),
                    CrashTiming::At(Time::from_secs(3)),
                    Duration::from_secs(2),
                ),
            ),
            ("a straggler", base().straggler(NodeId(3))),
        ];
        for (what, builder) in cases {
            let deployment = Deployment::new(builder.build());
            let metrics = deployment.metrics.borrow();
            assert_eq!(
                metrics.observer,
                NodeId(2),
                "{what} must not be the observer"
            );
            assert_eq!(
                metrics.track_deliveries,
                what == "an equivocator",
                "only adversarial runs track per-request delivery times for the gates"
            );
        }
    }

    #[test]
    fn lossy_window_scenario_still_delivers() {
        let scenario = Scenario::builder(Protocol::Pbft, 4)
            .open_loop(4, 400.0)
            .duration(Duration::from_secs(12))
            .warmup(Duration::from_secs(2))
            .lossy_window(0.05, Time::from_secs(2), Time::from_secs(5))
            .build();
        let report = scenario.run();
        assert!(report.delivered > 500, "delivered {}", report.delivered);
        assert!(
            report.messages_dropped > 0,
            "5% loss over 3 s must drop something"
        );
    }
}
