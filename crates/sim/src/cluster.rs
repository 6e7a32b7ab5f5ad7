//! Deployment construction and execution: materializes a [`Scenario`] into
//! an n-node ISS (or baseline) deployment with simulated clients on the
//! configured topology, runs it for the scenario's window and produces a
//! [`Report`].

use crate::adversary::{
    evaluate_gates, AdversarialProcess, AdversaryReport, ClientAdversary, NodeAdversary,
};
use crate::client_proc::ClientProcess;
use crate::factories::{make_factory, Protocol};
use crate::metrics::{metrics_handle, MetricsHandle, MetricsSink, RecoveryEvent};
use crate::scenario::Scenario;
use iss_core::{IssNode, Mode, NodeOptions, StragglerBehavior};
use iss_crypto::SignatureRegistry;
use iss_messages::NetMsg;
use iss_runtime::{Addr, Process};
use iss_simnet::fault::CrashSchedule;
use iss_simnet::{CpuModel, Runtime, RuntimeConfig};
use iss_storage::{MemStorage, Storage};
use iss_telemetry::{TelemetryHandle, TelemetrySnapshot};
use iss_types::{ClientId, Duration, IssConfig, NodeId, Time};
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

/// Summary of one run.
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
    /// Total protocol messages sent in the run.
    pub messages_sent: u64,
    /// Total bytes sent in the run.
    pub bytes_sent: u64,
    /// Messages dropped by crashes, partitions or probabilistic loss.
    pub messages_dropped: u64,
    /// Completed recoveries (crash-restarts rebooting from durable storage,
    /// reconnect fast paths), with time-to-catch-up, WAL entries replayed
    /// and snapshot chunks transferred.
    pub recoveries: Vec<RecoveryEvent>,
    /// Requests rejected at intake validation, per node (sorted by node id;
    /// empty in benign runs).
    pub rejected_requests: Vec<(NodeId, u64)>,
    /// Liveness-gate verdict of the adversary plan; `None` when the scenario
    /// schedules no adversarial behavior.
    pub adversary: Option<AdversaryReport>,
    /// Cluster-wide telemetry snapshot (all nodes' shards merged); `None`
    /// unless the scenario enables telemetry. Virtual time makes the
    /// snapshot — including its rendered exports — byte-identical across
    /// same-seed runs.
    pub telemetry: Option<TelemetrySnapshot>,
}

impl Deployment {
    /// Builds the deployment described by `scenario`.
    pub fn new(scenario: Scenario) -> Self {
        let config = scenario.iss_config();
        let num_clients = scenario.num_clients();
        let registry = Arc::new(SignatureRegistry::with_processes(
            scenario.num_nodes,
            num_clients,
        ));
        let workload = Rc::clone(&scenario.workload);

        // The fault plan lowers in one pass: the crash schedule is the one
        // source of which nodes go down and which of them reboot when.
        let faults = &scenario.faults;
        let mut crashes = CrashSchedule::none();
        for (&node, &(timing, restart_after)) in &faults.crashes {
            let down = scenario.crash_time(timing);
            crashes = match restart_after {
                None => crashes.crash(node, down),
                Some(down_for) => crashes.crash_restart(node, down, down + down_for),
            };
        }
        let restarts = crashes.restarts();

        // Observer: the highest-numbered node that neither crashes (a
        // restarting node spends part of the run down and catching up), lags
        // nor attacks (an equivocator's or censor's local log is not what the
        // correct quorum commits), preferring nodes outside the minority side
        // of every scheduled partition — a cut-off replica delivers nothing
        // while partitioned (and takes a protocol timeout to catch up after
        // heal), so it would silently report the stalled side instead of the
        // committing quorum.
        let crashed = crashes.crashed_nodes();
        let isolated: Vec<NodeId> = faults
            .partitions
            .iter()
            .flat_map(|p| match p.group_a.len().cmp(&p.group_b.len()) {
                std::cmp::Ordering::Less => p.group_a.clone(),
                std::cmp::Ordering::Greater => p.group_b.clone(),
                std::cmp::Ordering::Equal => Vec::new(),
            })
            .collect();
        let healthy = |n: &NodeId| {
            !crashed.contains(n)
                && !faults.stragglers.contains(n)
                && !scenario.adversary.nodes.contains_key(n)
        };
        let observer = (0..scenario.num_nodes as u32)
            .rev()
            .map(NodeId)
            .find(|n| healthy(n) && !isolated.contains(n))
            .or_else(|| {
                (0..scenario.num_nodes as u32)
                    .rev()
                    .map(NodeId)
                    .find(healthy)
            })
            .unwrap_or(NodeId(0));
        let metrics = metrics_handle(scenario.num_nodes, observer, Some(Rc::clone(&workload)));
        if !scenario.adversary.is_empty() {
            // Liveness gates need the observer's per-request delivery times;
            // the map stays empty (and unallocated) in benign runs.
            metrics.borrow_mut().track_deliveries = true;
        }
        // Censorship recovery relies on clients retransmitting requests that
        // got no response, so censoring scenarios turn responses and client
        // retransmission on; every other run measures latency at delivery and
        // keeps the response traffic out of the event count.
        let respond_to_clients = scenario
            .adversary
            .nodes
            .values()
            .any(|a| a.censor.is_some());

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
        runtime_config.faults.partitions = faults.partitions.clone();
        runtime_config.faults.loss_windows = faults.loss_windows.clone();

        let mut runtime: Runtime<NetMsg> = Runtime::new(runtime_config);
        let clients: Vec<ClientId> = (0..num_clients as u32).map(ClientId).collect();
        let mut telemetry_handles: Vec<(NodeId, TelemetryHandle)> = Vec::new();

        for n in 0..scenario.num_nodes as u32 {
            let node_id = NodeId(n);
            let mut opts = NodeOptions::new(config.clone());
            // One telemetry instance per node, also attached to the node's
            // address for CPU-by-class attribution.
            let telemetry = if scenario.telemetry {
                TelemetryHandle::enabled(n)
            } else {
                TelemetryHandle::disabled()
            };
            opts.telemetry = telemetry.clone();
            if telemetry.is_enabled() {
                telemetry_handles.push((node_id, telemetry.clone()));
                runtime.attach_telemetry(Addr::Node(node_id), telemetry.clone());
            }
            opts.mode = scenario.stack.mode;
            opts.respond_to_clients = respond_to_clients;
            opts.announce_buckets = true;
            opts.clients = clients.clone();
            if faults.stragglers.contains(&node_id) {
                opts.straggler = Some(StragglerBehavior {
                    proposal_interval: config.epoch_change_timeout.div(2),
                });
            }
            // A restarting node gets durable (simulated in-memory) storage
            // and a reboot scheduled at the end of its down window; everyone
            // else runs storage-free.
            let restart_at = restarts
                .iter()
                .find(|(id, _)| *id == node_id)
                .map(|&(_, up)| up);
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
                &scenario,
                node_id,
                opts,
                &config,
                &registry,
                &metrics,
                restart_at,
                behavior,
            );
        }

        let stop_at = Time::ZERO + scenario.window.duration;
        for c in &clients {
            let mut client = ClientProcess::new(
                *c,
                Rc::clone(&workload),
                config.all_nodes(),
                config.num_buckets(),
                config.f() + 1,
                stop_at,
            );
            if respond_to_clients {
                client = client.with_retransmission();
            }
            let process: Box<dyn Process<NetMsg>> = Box::new(client);
            let process = match scenario.adversary.clients.get(c) {
                Some(&attacks) => Box::new(AdversarialProcess::new(
                    process,
                    Box::new(ClientAdversary::new(attacks, scenario.num_nodes)),
                )),
                None => process,
            };
            runtime.add_process(Addr::Client(*c), process);
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
        scenario: &Scenario,
        node_id: NodeId,
        opts: NodeOptions,
        config: &IssConfig,
        registry: &Arc<SignatureRegistry>,
        metrics: &MetricsHandle,
        restart_at: Option<Time>,
        behavior: Option<NodeAdversary>,
    ) {
        let factory = make_factory(scenario.stack.protocol, config, Arc::clone(registry));
        let sink = Rc::new(RefCell::new(MetricsSink::new(Rc::clone(metrics))));
        let Some(up_at) = restart_at else {
            let node = IssNode::new(node_id, opts, factory, Arc::clone(registry), sink);
            let process: Box<dyn Process<NetMsg>> = Box::new(node);
            let process = match behavior {
                Some(b) => Box::new(AdversarialProcess::new(process, Box::new(b))),
                None => process,
            };
            runtime.add_process(Addr::Node(node_id), process);
            return;
        };
        debug_assert!(
            behavior.is_none(),
            "adversarial nodes must not be scheduled for crash-restart"
        );
        let storage: Rc<MemStorage> = Rc::new(MemStorage::new());
        let node = IssNode::with_storage(
            node_id,
            opts.clone(),
            factory,
            Arc::clone(registry),
            sink,
            Rc::clone(&storage) as Rc<dyn Storage>,
        );
        runtime.add_process(Addr::Node(node_id), Box::new(node));
        let protocol = scenario.stack.protocol;
        let config = config.clone();
        let registry = Arc::clone(registry);
        let metrics = Rc::clone(metrics);
        runtime.schedule_restart(Addr::Node(node_id), up_at, move || {
            let factory = make_factory(protocol, &config, Arc::clone(&registry));
            let sink = Rc::new(RefCell::new(MetricsSink::new(metrics)));
            Box::new(IssNode::with_storage(
                node_id,
                opts,
                factory,
                registry,
                sink,
                storage as Rc<dyn Storage>,
            )) as Box<dyn Process<NetMsg>>
        });
    }

    /// Runs the deployment for the configured duration and summarizes it.
    pub fn run(&mut self) -> Report {
        let window = self.scenario.window;
        let end = Time::ZERO + window.duration;
        // Run past the submission cutoff so the last proposals settle.
        // Throughput is averaged over [warmup, duration] only; latency
        // samples, delivery counts and message/byte totals deliberately
        // include the drain window, so late deliveries of pre-cutoff
        // requests are observed instead of truncated.
        self.runtime.run_until(end + window.drain);
        let warm = Time::ZERO + window.warmup;
        let stats = self.runtime.stats();
        let mut m = self.metrics.borrow_mut();
        let throughput = m.average_throughput(warm, end);
        let mean_latency = m.latency.mean();
        let p95_latency = m.latency.p95();
        let mut rejected_requests: Vec<(NodeId, u64)> =
            m.rejected_per_node.iter().map(|(n, c)| (*n, *c)).collect();
        rejected_requests.sort_unstable_by_key(|(n, _)| *n);
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
            throughput,
            mean_latency,
            p95_latency,
            delivered: m.observer_delivered(),
            timeline: m.timeline.series().to_vec(),
            epochs: m.epochs.clone(),
            nil_committed: m.nil_committed,
            messages_sent: stats.messages_sent,
            bytes_sent: stats.bytes_sent,
            messages_dropped: stats.messages_dropped,
            recoveries: m.recoveries.clone(),
            rejected_requests,
            adversary,
            telemetry,
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
