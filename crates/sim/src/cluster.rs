//! Deployment construction and execution: materializes a [`Scenario`] into
//! an n-node ISS (or baseline) deployment with simulated clients on the
//! configured topology, runs it for the scenario's window and produces a
//! [`Report`].

use crate::adversary::{evaluate_gates, AdversarialProcess, AdversaryReport, NodeAdversary};
use crate::client_proc::ClientProcess;
use crate::factories::{make_factory, Protocol};
use crate::metrics::{metrics_handle, MetricsHandle, MetricsSink, RecoveryEvent};
use crate::scenario::Scenario;
use iss_core::{IssNode, Mode, NodeOptions, StragglerBehavior};
use iss_crypto::SignatureRegistry;
use iss_messages::NetMsg;
use iss_simnet::fault::CrashSchedule;
use iss_simnet::process::{Addr, Process, StageRole};
use iss_simnet::{CpuModel, Runtime, RuntimeConfig};
use iss_storage::{MemStorage, Storage};
use iss_telemetry::{Recorder, TelemetryHandle, TelemetrySnapshot};
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
    /// Observer-node pipeline probes (empty in monolithic deployments):
    /// counter handles and addresses for the per-stage report rows.
    stage_probes: Vec<StageProbe>,
    /// CPU cores per simulated machine (after any scenario override), used
    /// to normalize per-stage busy time into a utilization.
    cpu_cores: usize,
    /// Per-node telemetry handles (empty when the scenario leaves telemetry
    /// off); their shards merge into `Report::telemetry` after the run.
    telemetry_handles: Vec<(NodeId, TelemetryHandle)>,
}

/// One observer-node pipeline probe: where to read a stage's busy time and
/// counters when the run is summarized.
struct StageProbe {
    node: NodeId,
    role: &'static str,
    index: u32,
    addr: Addr,
    counters: iss_core::StageCountersHandle,
}

/// Per-stage utilization/backlog row of a compartmentalized run (observer
/// node only; [`Report::stages`] is empty for monolithic deployments). The
/// `orderer` row covers the node process itself, so the three roles together
/// show which stage saturates first.
#[derive(Clone, Debug, PartialEq)]
pub struct StageReport {
    /// The replica machine the stage runs on.
    pub node: NodeId,
    /// `"batcher"`, `"orderer"` or `"executor"`.
    pub role: &'static str,
    /// Index among the stages of the same role on this replica.
    pub index: u32,
    /// Fraction of the machine's per-core time this stage kept busy over the
    /// whole run (busy time / (run length × cores)).
    pub cpu_utilization: f64,
    /// Peak backlog observed at this stage (requests queued at a batcher,
    /// ready batches at the orderer, deliveries per handoff at an executor).
    pub max_queue_depth: usize,
    /// Handoff messages produced (batcher) or consumed (orderer, executor).
    pub handoffs: u64,
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
    /// Per-stage CPU utilization and backlog at the observer node; empty
    /// unless the scenario compartmentalizes the node pipeline.
    pub stages: Vec<StageReport>,
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

        // Observer: the highest-numbered node that neither crashes nor lags,
        // preferring nodes outside the minority side of every scheduled
        // partition — a cut-off replica delivers nothing while partitioned
        // (and takes a protocol timeout to catch up after heal), so it would
        // silently report the stalled side instead of the committing quorum.
        let crashes = scenario.faults.crashes();
        let crash_restarts = scenario.faults.crash_restarts();
        // A restarting node spends part of the run down and catching up, so
        // it is just as unsuitable an observer as a permanently crashed one.
        let crashed: Vec<NodeId> = crashes
            .iter()
            .map(|(n, _)| *n)
            .chain(crash_restarts.iter().map(|(n, _, _)| *n))
            .collect();
        let stragglers = scenario.faults.stragglers();
        let isolated: Vec<NodeId> = scenario
            .faults
            .partitions()
            .iter()
            .flat_map(|p| match p.group_a.len().cmp(&p.group_b.len()) {
                std::cmp::Ordering::Less => p.group_a.clone(),
                std::cmp::Ordering::Greater => p.group_b.clone(),
                std::cmp::Ordering::Equal => Vec::new(),
            })
            .collect();
        // Adversarial replicas are just as unsuitable observers: an
        // equivocator's or censor's local log is not representative of what
        // the correct quorum commits.
        let adversarial = scenario.adversary.adversarial_nodes();
        let healthy = |n: &NodeId| {
            !crashed.contains(n) && !stragglers.contains(n) && !adversarial.contains(n)
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
        let metrics = metrics_handle(observer, Some(Rc::clone(&workload)));
        if !scenario.adversary.is_empty() {
            // Liveness gates need the observer's per-request delivery times;
            // the map stays empty (and unallocated) in benign runs.
            metrics.borrow_mut().track_deliveries = true;
        }
        // Censorship recovery relies on clients retransmitting requests that
        // got no response, so censoring scenarios force responses on.
        let respond_to_clients =
            scenario.respond_to_clients || !scenario.adversary.censors().is_empty();

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
        if let Some(cores) = scenario.cpu_cores {
            runtime_config.cpu.cores = cores;
        }
        runtime_config.stage_latency = scenario.stage_latency;
        let cpu_cores = runtime_config.cpu.cores;

        // Compartmentalized pipeline: spawn per-node batcher/executor stages
        // unless the configuration lowers to the monolith (see
        // [`Scenario::stage_counts`]).
        let stages = scenario.stage_counts();
        if stages.is_some() {
            assert_eq!(
                scenario.stack.mode,
                Mode::Iss,
                "the compartmentalized pipeline is ISS-only"
            );
            assert!(
                scenario.faults.is_empty() && scenario.adversary.is_empty(),
                "compartmentalized deployments are fault-free: the batcher \
                 derives its cut cadence from every node leading"
            );
        }
        let mut crash_schedule = CrashSchedule::none();
        for (node, timing) in &crashes {
            crash_schedule = crash_schedule.crash(*node, scenario.crash_time(*timing));
        }
        for (node, timing, down_for) in &crash_restarts {
            let down = scenario.crash_time(*timing);
            crash_schedule = crash_schedule.crash_restart(*node, down, down + *down_for);
        }
        runtime_config.faults.crashes = crash_schedule;
        runtime_config.faults.partitions = scenario.faults.partitions();
        runtime_config.faults.loss_windows = scenario.faults.loss_windows();

        let mut runtime: Runtime<NetMsg> = Runtime::new(runtime_config);
        let clients: Vec<ClientId> = (0..num_clients as u32).map(ClientId).collect();
        let mut stage_probes: Vec<StageProbe> = Vec::new();
        let mut telemetry_handles: Vec<(NodeId, TelemetryHandle)> = Vec::new();

        for n in 0..scenario.num_nodes as u32 {
            let node_id = NodeId(n);
            let mut opts = NodeOptions::new(config.clone());
            // One telemetry instance per machine, shared by the node and its
            // co-located stages (cut/propose pairing works through the
            // shared maps) and attached to every address of the machine for
            // CPU-by-class attribution.
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
            if stragglers.contains(&node_id) {
                opts.straggler = Some(StragglerBehavior {
                    proposal_interval: config.epoch_change_timeout.div(2),
                });
            }
            // A restarting node gets durable (simulated in-memory) storage
            // and a reboot scheduled at the end of its down window; everyone
            // else runs storage-free, exactly as before.
            let restart_window = crash_restarts.iter().find(|(id, _, _)| *id == node_id).map(
                |(_, timing, down_for)| {
                    let down = scenario.crash_time(*timing);
                    (down, down + *down_for)
                },
            );
            let behavior = scenario.adversary.node_behavior(
                node_id,
                scenario.num_nodes,
                config.num_buckets(),
                config.max_batch_size,
            );
            // Only the observer node carries counters: the report's stage
            // rows are observer-scoped, and counter-free nodes skip the
            // bookkeeping entirely.
            let orderer_counters =
                (stages.is_some() && node_id == observer).then(iss_core::stage_counters);
            if let Some((batchers, executors)) = stages {
                opts.pipeline = Some(iss_core::PipelineOptions {
                    batchers,
                    executors,
                    counters: orderer_counters.clone(),
                });
            }
            Self::add_node(
                &mut runtime,
                &scenario,
                node_id,
                opts,
                &config,
                &registry,
                &metrics,
                restart_window,
                behavior,
            );
            let Some((batchers, executors)) = stages else {
                continue;
            };
            if let Some(counters) = orderer_counters {
                stage_probes.push(StageProbe {
                    node: node_id,
                    role: "orderer",
                    index: 0,
                    addr: Addr::Node(node_id),
                    counters,
                });
            }
            for index in 0..batchers {
                let counters = (node_id == observer).then(iss_core::stage_counters);
                let addr = Addr::Stage {
                    node: node_id,
                    role: StageRole::Batcher,
                    index,
                };
                if let Some(c) = &counters {
                    stage_probes.push(StageProbe {
                        node: node_id,
                        role: "batcher",
                        index,
                        addr,
                        counters: Rc::clone(c),
                    });
                }
                if telemetry.is_enabled() {
                    runtime.attach_telemetry(addr, telemetry.clone());
                }
                runtime.add_process(
                    addr,
                    Box::new(iss_core::BatcherProcess::new(
                        node_id,
                        index,
                        batchers,
                        config.clone(),
                        Arc::clone(&registry),
                        counters,
                        telemetry.clone(),
                    )),
                );
            }
            for index in 0..executors {
                let counters = (node_id == observer).then(iss_core::stage_counters);
                let addr = Addr::Stage {
                    node: node_id,
                    role: StageRole::Executor,
                    index,
                };
                if let Some(c) = &counters {
                    stage_probes.push(StageProbe {
                        node: node_id,
                        role: "executor",
                        index,
                        addr,
                        counters: Rc::clone(c),
                    });
                }
                let sink = Rc::new(RefCell::new(MetricsSink::new(Rc::clone(&metrics))));
                if telemetry.is_enabled() {
                    runtime.attach_telemetry(addr, telemetry.clone());
                }
                runtime.add_process(
                    addr,
                    Box::new(iss_core::ExecutorProcess::new(
                        node_id,
                        respond_to_clients,
                        sink,
                        counters,
                        telemetry.clone(),
                    )),
                );
            }
        }

        let stop_at = Time::ZERO + scenario.window.duration;
        let retransmit = !scenario.adversary.censors().is_empty();
        for c in &clients {
            let mut client = ClientProcess::new(
                *c,
                Rc::clone(&workload),
                config.all_nodes(),
                config.num_buckets(),
                config.f() + 1,
                false,
                stop_at,
            );
            if retransmit {
                client = client.with_retransmission();
            }
            if let Some((batchers, _)) = stages {
                client = client.with_batchers(batchers);
            }
            let process: Box<dyn Process<NetMsg>> = Box::new(client);
            let process = match scenario.adversary.client_behavior(*c, scenario.num_nodes) {
                Some(behavior) => Box::new(AdversarialProcess::new(process, Box::new(behavior))),
                None => process,
            };
            runtime.add_process(Addr::Client(*c), process);
        }

        Deployment {
            runtime,
            metrics,
            scenario,
            stage_probes,
            cpu_cores,
            telemetry_handles,
        }
    }

    /// Registers one replica, wiring up durable storage and a scheduled
    /// reboot when the fault plan restarts it (`restart_window` is its
    /// `(down, up)` interval). The rebooted incarnation is built at restart
    /// time from the same shared storage, so it recovers exactly what the
    /// pre-crash incarnation persisted. An adversarial `behavior` wraps the
    /// node's I/O (adversarial nodes are not combinable with crash-restarts:
    /// a restarting Byzantine node is indistinguishable from a fresh one in
    /// this model, so the plan simply does not schedule both on one node).
    #[allow(clippy::too_many_arguments)]
    fn add_node(
        runtime: &mut Runtime<NetMsg>,
        scenario: &Scenario,
        node_id: NodeId,
        opts: NodeOptions,
        config: &IssConfig,
        registry: &Arc<SignatureRegistry>,
        metrics: &MetricsHandle,
        restart_window: Option<(Time, Time)>,
        behavior: Option<NodeAdversary>,
    ) {
        let factory = make_factory(scenario.stack.protocol, config, Arc::clone(registry));
        let sink = Rc::new(RefCell::new(MetricsSink::new(Rc::clone(metrics))));
        let Some((_down_at, up_at)) = restart_window else {
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
        // Per-stage rows: busy time normalized over the whole run (including
        // the drain, during which stages keep processing in-flight work).
        let full_run = (window.duration + window.drain).as_secs_f64();
        let stages: Vec<StageReport> = self
            .stage_probes
            .iter()
            .map(|p| {
                let c = p.counters.borrow();
                StageReport {
                    node: p.node,
                    role: p.role,
                    index: p.index,
                    cpu_utilization: self.runtime.busy_time(p.addr).as_secs_f64()
                        / (full_run * self.cpu_cores as f64),
                    max_queue_depth: c.max_queue_depth,
                    handoffs: c.handoffs,
                }
            })
            .collect();
        // Telemetry: stamp per-machine CPU gauges (node process plus any
        // observer-stage probes), then merge all shards into one
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
            for p in &self.stage_probes {
                let Some((_, h)) = self.telemetry_handles.iter().find(|(n, _)| *n == p.node) else {
                    continue;
                };
                let busy = self.runtime.busy_time(p.addr).as_micros();
                match p.role {
                    "batcher" => h.gauge_set_for("cpu.batcher_busy_us", p.index, busy),
                    "executor" => h.gauge_set_for("cpu.executor_busy_us", p.index, busy),
                    _ => h.gauge_set("cpu.orderer_busy_us", busy),
                }
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
            stages,
            telemetry,
        }
    }
}

/// Convenience: build and run a scenario in one call.
pub fn run_scenario(scenario: Scenario) -> Report {
    Deployment::new(scenario).run()
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
        assert!(
            report.stages.is_empty(),
            "monolithic runs must report no stage rows"
        );
    }

    #[test]
    fn compartmentalized_pipeline_delivers_and_reports_stages() {
        let scenario = Scenario::builder(Protocol::Pbft, 4)
            .open_loop(4, 400.0)
            .batchers(2)
            .executors(2)
            .duration(Duration::from_secs(12))
            .warmup(Duration::from_secs(2))
            .build();
        let report = run_scenario(scenario);
        assert!(report.delivered > 1000, "delivered {}", report.delivered);
        // Observer rows: 1 orderer + 2 batchers + 2 executors.
        assert_eq!(report.stages.len(), 5, "stages: {:?}", report.stages);
        let roles = |r: &str| report.stages.iter().filter(|s| s.role == r).count();
        assert_eq!(roles("orderer"), 1);
        assert_eq!(roles("batcher"), 2);
        assert_eq!(roles("executor"), 2);
        for s in &report.stages {
            assert!(
                (0.0..=1.0).contains(&s.cpu_utilization),
                "utilization {s:?}"
            );
        }
        let orderer = report.stages.iter().find(|s| s.role == "orderer").unwrap();
        assert!(
            orderer.handoffs > 50,
            "the orderer must receive its batches through the handoff path \
             (got {})",
            orderer.handoffs
        );
        for s in report.stages.iter().filter(|s| s.role == "batcher") {
            assert!(s.handoffs > 0, "every batcher must cut batches: {s:?}");
            assert!(s.cpu_utilization > 0.0, "intake cost lands on batchers");
        }
        for s in report.stages.iter().filter(|s| s.role == "executor") {
            assert!(s.handoffs > 0, "every executor must see deliveries: {s:?}");
        }
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
        let report = run_scenario(scenario);
        assert!(report.delivered > 500, "delivered {}", report.delivered);
        assert!(
            report.messages_dropped > 0,
            "the partition must actually drop traffic"
        );
    }

    #[test]
    fn observer_avoids_the_minority_side_of_a_partition() {
        let scenario = Scenario::builder(Protocol::Pbft, 4)
            .open_loop(4, 400.0)
            .partition(
                vec![NodeId(0), NodeId(1), NodeId(2)],
                vec![NodeId(3)],
                Time::from_secs(3),
                Time::from_secs(6),
            )
            .build();
        let deployment = Deployment::new(scenario);
        assert_eq!(
            deployment.metrics.borrow().observer,
            NodeId(2),
            "the cut-off node 3 must not be the observer"
        );
        // Without partitions the highest node is chosen, as before.
        let plain = Deployment::new(Scenario::builder(Protocol::Pbft, 4).build());
        assert_eq!(plain.metrics.borrow().observer, NodeId(3));
    }

    #[test]
    fn observer_avoids_adversarial_nodes() {
        let scenario = Scenario::builder(Protocol::Pbft, 4)
            .open_loop(4, 400.0)
            .equivocating_leader(NodeId(3), 1, 2)
            .build();
        let deployment = Deployment::new(scenario);
        assert_eq!(
            deployment.metrics.borrow().observer,
            NodeId(2),
            "an equivocator must not be the observer"
        );
        assert!(
            deployment.metrics.borrow().track_deliveries,
            "adversarial runs track per-request delivery times for the gates"
        );
    }

    #[test]
    fn lossy_window_scenario_still_delivers() {
        let scenario = Scenario::builder(Protocol::Pbft, 4)
            .open_loop(4, 400.0)
            .duration(Duration::from_secs(12))
            .warmup(Duration::from_secs(2))
            .lossy_window(0.05, Time::from_secs(2), Time::from_secs(5))
            .build();
        let report = run_scenario(scenario);
        assert!(report.delivered > 500, "delivered {}", report.delivered);
        assert!(
            report.messages_dropped > 0,
            "5% loss over 3 s must drop something"
        );
    }
}
