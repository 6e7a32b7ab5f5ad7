//! The Scenario API: the composable experiment surface of the harness.
//!
//! A [`Scenario`] is the cartesian product the paper's "one framework, many
//! deployments" claim needs to be testable:
//!
//! ```text
//! Scenario = ProtocolStack × Workload × Topology × FaultPlan × RunWindow
//! ```
//!
//! * [`ProtocolStack`] — which ordering protocol runs in each segment, in
//!   which mode (ISS / single-leader / Mir-BFT baseline) and under which
//!   leader-selection policy.
//! * [`iss_workload::Workload`] — *what* the clients submit and when: the
//!   paper's uniform open loop, bursty on/off traffic, a linear ramp, or
//!   Zipf-skewed per-client rates, each with configurable payload-size
//!   distributions.
//! * [`TopologySpec`] — *where* the deployment runs: the paper's
//!   16-datacenter WAN, a LAN, a uniform mesh, or a custom latency matrix.
//! * [`FaultPlan`] — one unified schedule of crashes (permanent or with a
//!   restart from durable storage), Byzantine stragglers, timed partitions
//!   (with heal) and lossy-link windows.
//! * [`crate::adversary::AdversaryPlan`] — the actively malicious dimension:
//!   equivocating and censoring leaders, malformed/oversized proposers, and
//!   Byzantine clients (conflicting, duplicated and replayed requests), with
//!   cluster-wide safety/liveness gates evaluated into the run report.
//! * [`RunWindow`] — how long the run lasts, how much of it is warm-up, and
//!   how long the post-cutoff drain is.
//!
//! Scenarios are built with [`ScenarioBuilder`] (see [`Scenario::builder`])
//! and are pure data: new experiment shapes are new scenarios, not new code
//! paths.

use crate::adversary::AdversaryPlan;
use crate::cluster::{Deployment, Report};
use crate::factories::Protocol;
use iss_core::Mode;
use iss_simnet::fault::{LossWindow, Partition};
use iss_simnet::Topology;
use iss_types::{Duration, IssConfig, LeaderPolicyKind, NodeId, ProtocolKind, Time};
use iss_workload::{Bursty, OpenLoop, Ramp, Skewed, Workload};
use std::rc::Rc;

/// When a crash fault is injected (Section 6.4.1).
#[derive(Clone, Copy, Debug)]
pub enum CrashTiming {
    /// At the beginning of the first epoch.
    EpochStart,
    /// Just before the leader would propose the last sequence number of its
    /// segment in the first epoch.
    EpochEnd,
    /// At an explicit time.
    At(Time),
}

/// The protocol dimension of a scenario: ordering protocol × mode ×
/// leader-selection policy.
#[derive(Clone, Copy, Debug)]
pub struct ProtocolStack {
    /// Ordering protocol instantiated per segment.
    pub protocol: Protocol,
    /// ISS, single-leader baseline or Mir-BFT baseline.
    pub mode: Mode,
    /// Leader-selection policy.
    pub policy: LeaderPolicyKind,
    /// Batcher stages per node (compartmentalized pipeline). `0` keeps the
    /// monolithic wiring; so does `1` with zero stage latency, because one
    /// batcher with a free handoff is the monolith by another name.
    pub batchers: usize,
    /// Executor stages per node (compartmentalized pipeline). Same lowering
    /// rule as [`ProtocolStack::batchers`].
    pub executors: usize,
}

impl ProtocolStack {
    /// ISS over `protocol` with the Blacklist policy (the paper's default)
    /// and the monolithic (non-compartmentalized) node pipeline.
    pub fn new(protocol: Protocol) -> Self {
        ProtocolStack {
            protocol,
            mode: Mode::Iss,
            policy: LeaderPolicyKind::Blacklist,
            batchers: 0,
            executors: 0,
        }
    }
}

/// The topology dimension of a scenario.
#[derive(Clone, Debug)]
pub enum TopologySpec {
    /// The paper's 16-datacenter WAN (Section 6.1).
    Wan16,
    /// A single datacenter with the given one-way latency.
    Lan(Duration),
    /// `datacenters` locations with a uniform cross-datacenter latency.
    Uniform {
        /// Number of datacenters.
        datacenters: usize,
        /// One-way latency between distinct datacenters.
        latency: Duration,
    },
    /// An explicit topology (e.g. from [`Topology::custom`]).
    Custom(Topology),
}

impl TopologySpec {
    /// Materializes the simulator topology.
    pub fn build(&self) -> Topology {
        match self {
            TopologySpec::Wan16 => Topology::wan16(),
            TopologySpec::Lan(latency) => Topology::lan(*latency),
            TopologySpec::Uniform {
                datacenters,
                latency,
            } => Topology::uniform(*datacenters, *latency),
            TopologySpec::Custom(t) => t.clone(),
        }
    }
}

/// The time dimension of a scenario.
#[derive(Clone, Copy, Debug)]
pub struct RunWindow {
    /// Virtual-time duration of the run (clients submit until this point).
    pub duration: Duration,
    /// Measurements before this point are excluded from averages (warm-up).
    pub warmup: Duration,
    /// Extra virtual time after `duration` during which no new requests are
    /// submitted but the simulation keeps running, so in-flight batches
    /// commit on every node and per-node delivery counts converge.
    pub drain: Duration,
}

impl Default for RunWindow {
    fn default() -> Self {
        RunWindow {
            duration: Duration::from_secs(30),
            warmup: Duration::from_secs(10),
            drain: Duration::from_secs(4),
        }
    }
}

/// One entry of a [`FaultPlan`].
#[derive(Clone, Debug)]
pub enum FaultEvent {
    /// `node` crashes at the given timing and stays down for the rest of the
    /// run (schedule a [`FaultEvent::CrashRestart`] instead for a node that
    /// comes back).
    Crash {
        /// The crashing node.
        node: NodeId,
        /// When the crash happens.
        at: CrashTiming,
    },
    /// `node` crashes at the given timing, stays down for `down_for`, then
    /// reboots from its durable storage (WAL + latest checkpoint snapshot),
    /// replays its log and rejoins the cluster under the same identity.
    CrashRestart {
        /// The crashing node.
        node: NodeId,
        /// When the crash happens.
        at: CrashTiming,
        /// How long the node stays down before rebooting.
        down_for: Duration,
    },
    /// `node` behaves as a Byzantine straggler for the whole run
    /// (Section 6.4.2: proposes as late and as little as possible).
    Straggler {
        /// The misbehaving node.
        node: NodeId,
    },
    /// The network partitions `group_a` from `group_b` during `[from,
    /// until)`; communication heals at `until` (the GST of the partial
    /// synchrony assumption).
    Partition {
        /// One side of the partition.
        group_a: Vec<NodeId>,
        /// The other side.
        group_b: Vec<NodeId>,
        /// Start of the partition (inclusive).
        from: Time,
        /// Heal time (exclusive).
        until: Time,
    },
    /// Every message sent during `[from, until)` is dropped with the given
    /// probability.
    LossyWindow {
        /// Drop probability inside the window.
        probability: f64,
        /// Start of the window (inclusive).
        from: Time,
        /// End of the window (exclusive).
        until: Time,
    },
}

/// The fault dimension of a scenario: one schedule unifying crash faults,
/// Byzantine stragglers, timed partitions and lossy-link windows. The plan
/// is lowered onto [`iss_simnet::FaultConfig`] (crashes, partitions, loss)
/// and node options (stragglers) when the deployment is built.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// The scheduled fault events, in insertion order.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The fault-free plan.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Adds a crash of `node` at `at` (permanent: the node stays down).
    pub fn crash(mut self, node: NodeId, at: CrashTiming) -> Self {
        self.events.push(FaultEvent::Crash { node, at });
        self
    }

    /// Adds a crash of `node` at `at` followed by a reboot from durable
    /// storage `down_for` later.
    pub fn crash_restart(mut self, node: NodeId, at: CrashTiming, down_for: Duration) -> Self {
        self.events
            .push(FaultEvent::CrashRestart { node, at, down_for });
        self
    }

    /// Marks `node` as a Byzantine straggler.
    pub fn straggler(mut self, node: NodeId) -> Self {
        self.events.push(FaultEvent::Straggler { node });
        self
    }

    /// Partitions `group_a` from `group_b` during `[from, until)`.
    pub fn partition(
        mut self,
        group_a: Vec<NodeId>,
        group_b: Vec<NodeId>,
        from: Time,
        until: Time,
    ) -> Self {
        self.events.push(FaultEvent::Partition {
            group_a,
            group_b,
            from,
            until,
        });
        self
    }

    /// Drops every message with `probability` during `[from, until)`.
    pub fn lossy_window(mut self, probability: f64, from: Time, until: Time) -> Self {
        self.events.push(FaultEvent::LossyWindow {
            probability,
            from,
            until,
        });
        self
    }

    /// The scheduled permanent crashes, in plan order.
    pub fn crashes(&self) -> Vec<(NodeId, CrashTiming)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::Crash { node, at } => Some((*node, *at)),
                _ => None,
            })
            .collect()
    }

    /// The scheduled crash-restarts, in plan order.
    pub fn crash_restarts(&self) -> Vec<(NodeId, CrashTiming, Duration)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::CrashRestart { node, at, down_for } => Some((*node, *at, *down_for)),
                _ => None,
            })
            .collect()
    }

    /// The straggler nodes, in plan order.
    pub fn stragglers(&self) -> Vec<NodeId> {
        self.events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::Straggler { node } => Some(*node),
                _ => None,
            })
            .collect()
    }

    /// The partition windows, lowered to the simulator representation.
    pub fn partitions(&self) -> Vec<Partition> {
        self.events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::Partition {
                    group_a,
                    group_b,
                    from,
                    until,
                } => Some(Partition {
                    group_a: group_a.clone(),
                    group_b: group_b.clone(),
                    from: *from,
                    until: *until,
                }),
                _ => None,
            })
            .collect()
    }

    /// The lossy windows, lowered to the simulator representation.
    pub fn loss_windows(&self) -> Vec<LossWindow> {
        self.events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::LossyWindow {
                    probability,
                    from,
                    until,
                } => Some(LossWindow {
                    probability: *probability,
                    from: *from,
                    until: *until,
                }),
                _ => None,
            })
            .collect()
    }
}

/// Full description of one experiment run (see the module docs).
///
/// Construct via [`Scenario::builder`]; every field is public so scripted
/// experiment sweeps can still tweak a built scenario in place.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Protocol × mode × leader policy.
    pub stack: ProtocolStack,
    /// Number of replicas.
    pub num_nodes: usize,
    /// The client workload (also defines the number of clients).
    pub workload: Rc<dyn Workload>,
    /// Where the deployment runs.
    pub topology: TopologySpec,
    /// The unified fault schedule.
    pub faults: FaultPlan,
    /// Actively malicious node/client behaviors (equivocation, censorship,
    /// malformed proposals, Byzantine clients). Empty by default; an empty
    /// plan wires up nothing and leaves runs byte-identical to
    /// adversary-free builds.
    pub adversary: AdversaryPlan,
    /// Duration / warm-up / drain.
    pub window: RunWindow,
    /// Whether nodes send responses to clients (off by default in large
    /// simulations to bound event counts; latency is measured at delivery).
    pub respond_to_clients: bool,
    /// RNG seed.
    pub seed: u64,
    /// Extra delivery delay of the in-memory handoff between a node and its
    /// co-located pipeline stages (zero by default: a handoff between worker
    /// pools of one process costs CPU, not network).
    pub stage_latency: Duration,
    /// Overrides the number of CPU cores per machine (`None` keeps the
    /// testbed's 32). Compartmentalization experiments pin this to a small
    /// number so the stage split, not raw core count, is what moves the
    /// saturation plateau.
    pub cpu_cores: Option<usize>,
    /// Record commit-path telemetry (spans, phase histograms, CPU-by-class)
    /// on every node and include the merged snapshot in the report. Off by
    /// default: recording is observer-only bookkeeping and cannot change a
    /// run's outcome, but default-off keeps reports byte-identical with
    /// pre-telemetry baselines.
    pub telemetry: bool,
}

impl Scenario {
    /// Starts building a scenario for an ISS deployment of `num_nodes`
    /// replicas running `protocol`, with the paper's defaults for every
    /// other dimension (open-loop 16-client workload, WAN topology, no
    /// faults, 30 s run with 10 s warm-up).
    pub fn builder(protocol: Protocol, num_nodes: usize) -> ScenarioBuilder {
        ScenarioBuilder {
            scenario: Scenario {
                stack: ProtocolStack::new(protocol),
                num_nodes,
                workload: Rc::new(OpenLoop::new(16, 1_000.0, Time::ZERO)),
                topology: TopologySpec::Wan16,
                faults: FaultPlan::none(),
                adversary: AdversaryPlan::none(),
                window: RunWindow::default(),
                respond_to_clients: false,
                seed: 42,
                stage_latency: Duration::ZERO,
                cpu_cores: None,
                telemetry: false,
            },
            skewed: None,
        }
    }

    /// Number of clients (defined by the workload).
    pub fn num_clients(&self) -> usize {
        self.workload.num_clients()
    }

    /// The ISS configuration (Table 1 preset adapted for simulation).
    pub fn iss_config(&self) -> IssConfig {
        let kind = match self.stack.protocol {
            Protocol::Pbft | Protocol::Reference => ProtocolKind::Pbft,
            Protocol::HotStuff => ProtocolKind::HotStuff,
            Protocol::Raft => ProtocolKind::Raft,
        };
        let mut config = IssConfig::preset(kind, self.num_nodes).with_policy(self.stack.policy);
        // Client authenticity is charged through the CPU cost model in the
        // simulator instead of computing real signatures on the host
        // (see DESIGN.md, substitutions).
        config.client_signatures = false;
        // The open-loop generator is not throttled by watermarks.
        config.client_watermark_window = 1 << 30;
        config
    }

    /// The epoch duration implied by the configuration (used to time
    /// epoch-start / epoch-end crash faults).
    pub fn expected_epoch_duration(&self) -> Duration {
        let config = self.iss_config();
        let leaders = match self.stack.mode {
            Mode::SingleLeader => 1,
            _ => self.num_nodes,
        };
        match config.batch_rate {
            Some(rate) => Duration::from_secs_f64(config.epoch_length(leaders) as f64 / rate),
            None => Duration::from_secs_f64(config.epoch_length(leaders) as f64 * 0.1),
        }
    }

    /// The `(batchers, executors)` stage counts of a compartmentalized
    /// deployment, or `None` when the scenario lowers to the monolithic
    /// wiring. One batcher and one executor with zero stage latency *are*
    /// the monolith (same work on the same machine, handed off for free), so
    /// that degenerate configuration lowers to the monolithic path and stays
    /// byte-identical to it; real stage processes spawn as soon as any stage
    /// is replicated or the handoff costs time.
    pub fn stage_counts(&self) -> Option<(u32, u32)> {
        let compartmentalized = self.stack.batchers >= 2
            || self.stack.executors >= 2
            || ((self.stack.batchers > 0 || self.stack.executors > 0)
                && self.stage_latency > Duration::ZERO);
        compartmentalized.then(|| {
            (
                self.stack.batchers.max(1) as u32,
                self.stack.executors.max(1) as u32,
            )
        })
    }

    /// The absolute time at which a [`CrashTiming`] fires in this scenario.
    pub fn crash_time(&self, timing: CrashTiming) -> Time {
        match timing {
            CrashTiming::At(t) => t,
            CrashTiming::EpochStart => Time::from_millis(500),
            CrashTiming::EpochEnd => {
                let epoch = self.expected_epoch_duration();
                // Just before the last proposals of the first epoch.
                let back_off = epoch.div(16).max(Duration::from_millis(200));
                Time::from_micros(epoch.as_micros().saturating_sub(back_off.as_micros()))
            }
        }
    }

    /// Builds and runs the scenario, returning the run summary.
    pub fn run(self) -> Report {
        Deployment::new(self).run()
    }
}

/// Builder for [`Scenario`] — see the module docs for a worked example.
#[derive(Clone, Debug)]
pub struct ScenarioBuilder {
    scenario: Scenario,
    /// Deferred [`Skewed`] workload parameters `(num_clients, total_rate,
    /// exponent)`; materialized in [`ScenarioBuilder::build`] with the
    /// *final* scenario seed so `.seed()` and `.skewed()` compose in any
    /// order.
    skewed: Option<(usize, f64, f64)>,
}

impl ScenarioBuilder {
    /// Switches between ISS and the single-leader / Mir-BFT baselines.
    pub fn mode(mut self, mode: Mode) -> Self {
        self.scenario.stack.mode = mode;
        self
    }

    /// Sets the leader-selection policy.
    pub fn policy(mut self, policy: LeaderPolicyKind) -> Self {
        self.scenario.stack.policy = policy;
        self
    }

    /// Runs `n` batcher stages (request intake, validation, batch cutting)
    /// in front of each node's orderer. `0` (the default) keeps the
    /// monolithic node.
    pub fn batchers(mut self, n: usize) -> Self {
        self.scenario.stack.batchers = n;
        self
    }

    /// Runs `n` executor stages (commit fan-out, delivery, client responses)
    /// behind each node's orderer. `0` (the default) keeps the monolithic
    /// node.
    pub fn executors(mut self, n: usize) -> Self {
        self.scenario.stack.executors = n;
        self
    }

    /// Sets the in-memory handoff delay between a node and its co-located
    /// pipeline stages.
    pub fn stage_latency(mut self, latency: Duration) -> Self {
        self.scenario.stage_latency = latency;
        self
    }

    /// Enables commit-path telemetry (spans, phase histograms, CPU-by-class)
    /// on every node; the merged snapshot lands in `Report::telemetry`.
    pub fn telemetry(mut self, enabled: bool) -> Self {
        self.scenario.telemetry = enabled;
        self
    }

    /// Overrides the number of CPU cores per simulated machine.
    pub fn cpu_cores(mut self, cores: usize) -> Self {
        self.scenario.cpu_cores = Some(cores);
        self
    }

    /// Installs an arbitrary [`Workload`] implementation.
    pub fn workload(mut self, workload: impl Workload + 'static) -> Self {
        self.scenario.workload = Rc::new(workload);
        self.skewed = None;
        self
    }

    /// The paper's workload: `num_clients` open-loop clients submitting
    /// 500-byte requests at `total_rate` requests/s in aggregate.
    pub fn open_loop(self, num_clients: usize, total_rate: f64) -> Self {
        self.workload(OpenLoop::new(num_clients, total_rate, Time::ZERO))
    }

    /// Bursty on/off traffic: `total_rate` requests/s while a burst is on.
    pub fn bursty(self, num_clients: usize, total_rate: f64, on: Duration, off: Duration) -> Self {
        self.workload(Bursty::new(num_clients, total_rate, on, off))
    }

    /// Load ramping linearly from `start_rate` to `end_rate` over `ramp`.
    pub fn ramp(self, num_clients: usize, start_rate: f64, end_rate: f64, ramp: Duration) -> Self {
        self.workload(Ramp::new(num_clients, start_rate, end_rate, ramp))
    }

    /// Zipf-skewed per-client rates. The rank permutation is drawn from the
    /// scenario seed when [`ScenarioBuilder::build`] runs, so this composes
    /// with [`ScenarioBuilder::seed`] in either order.
    pub fn skewed(mut self, num_clients: usize, total_rate: f64, exponent: f64) -> Self {
        self.skewed = Some((num_clients, total_rate, exponent));
        self
    }

    /// Selects the topology.
    pub fn topology(mut self, topology: TopologySpec) -> Self {
        self.scenario.topology = topology;
        self
    }

    /// Replaces the whole fault plan.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.scenario.faults = faults;
        self
    }

    /// Schedules a permanent crash of `node` at `at`.
    pub fn crash(mut self, node: NodeId, at: CrashTiming) -> Self {
        self.scenario.faults = self.scenario.faults.crash(node, at);
        self
    }

    /// Schedules a crash of `node` at `at` with a reboot from durable
    /// storage `down_for` later.
    pub fn crash_restart(mut self, node: NodeId, at: CrashTiming, down_for: Duration) -> Self {
        self.scenario.faults = self.scenario.faults.crash_restart(node, at, down_for);
        self
    }

    /// Marks `node` as a Byzantine straggler.
    pub fn straggler(mut self, node: NodeId) -> Self {
        self.scenario.faults = self.scenario.faults.straggler(node);
        self
    }

    /// Partitions `group_a` from `group_b` during `[from, until)`.
    pub fn partition(
        mut self,
        group_a: Vec<NodeId>,
        group_b: Vec<NodeId>,
        from: Time,
        until: Time,
    ) -> Self {
        self.scenario.faults = self
            .scenario
            .faults
            .partition(group_a, group_b, from, until);
        self
    }

    /// Drops every message with `probability` during `[from, until)`.
    pub fn lossy_window(mut self, probability: f64, from: Time, until: Time) -> Self {
        self.scenario.faults = self.scenario.faults.lossy_window(probability, from, until);
        self
    }

    /// Replaces the whole adversary plan.
    pub fn adversary(mut self, adversary: AdversaryPlan) -> Self {
        self.scenario.adversary = adversary;
        self
    }

    /// Makes `node` an equivocating leader during epochs `[from_epoch,
    /// until_epoch)`: it proposes conflicting batches to different followers.
    pub fn equivocating_leader(
        mut self,
        node: NodeId,
        from_epoch: iss_types::EpochNr,
        until_epoch: iss_types::EpochNr,
    ) -> Self {
        self.scenario.adversary =
            self.scenario
                .adversary
                .equivocating_leader(node, from_epoch, until_epoch);
        self
    }

    /// Makes `node` censor every client request of `bucket` for the whole
    /// run (Section 4.3's bucket-rotation defense is what bounds the damage).
    pub fn censoring_leader(mut self, node: NodeId, bucket: iss_types::BucketId) -> Self {
        self.scenario.adversary = self.scenario.adversary.censoring_leader(node, bucket);
        self
    }

    /// Makes `node` propose malformed batches during epochs `[from_epoch,
    /// until_epoch)`.
    pub fn malformed_proposals(
        mut self,
        node: NodeId,
        kind: crate::adversary::MalformedKind,
        from_epoch: iss_types::EpochNr,
        until_epoch: iss_types::EpochNr,
    ) -> Self {
        self.scenario.adversary =
            self.scenario
                .adversary
                .malformed_proposals(node, kind, from_epoch, until_epoch);
        self
    }

    /// Makes `client` submit conflicting same-id requests to two replicas.
    pub fn byzantine_client(mut self, client: iss_types::ClientId) -> Self {
        self.scenario.adversary = self.scenario.adversary.byzantine_client(client);
        self
    }

    /// Makes `client` duplicate fresh requests and replay delivered ones.
    pub fn duplicating_client(mut self, client: iss_types::ClientId) -> Self {
        self.scenario.adversary = self.scenario.adversary.duplicating_client(client);
        self
    }

    /// Sets the run duration.
    pub fn duration(mut self, duration: Duration) -> Self {
        self.scenario.window.duration = duration;
        self
    }

    /// Sets the warm-up window.
    pub fn warmup(mut self, warmup: Duration) -> Self {
        self.scenario.window.warmup = warmup;
        self
    }

    /// Sets the post-cutoff drain window.
    pub fn drain(mut self, drain: Duration) -> Self {
        self.scenario.window.drain = drain;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.scenario.seed = seed;
        self
    }

    /// Makes nodes send responses back to clients.
    pub fn respond_to_clients(mut self, respond: bool) -> Self {
        self.scenario.respond_to_clients = respond;
        self
    }

    /// Finishes the scenario (materializing a deferred skewed workload with
    /// the final seed).
    pub fn build(mut self) -> Scenario {
        if let Some((num_clients, total_rate, exponent)) = self.skewed {
            self.scenario.workload = Rc::new(Skewed::new(
                num_clients,
                total_rate,
                exponent,
                self.scenario.seed,
            ));
        }
        self.scenario
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_the_paper() {
        let s = Scenario::builder(Protocol::Pbft, 4).build();
        assert_eq!(s.num_nodes, 4);
        assert_eq!(s.num_clients(), 16);
        assert!(matches!(s.topology, TopologySpec::Wan16));
        assert!(s.faults.is_empty());
        assert!(s.adversary.is_empty());
        assert_eq!(s.window.duration, Duration::from_secs(30));
        assert_eq!(s.window.warmup, Duration::from_secs(10));
        assert_eq!(s.window.drain, Duration::from_secs(4));
        assert_eq!(s.seed, 42);
        assert!(!s.respond_to_clients);
        assert_eq!(s.stack.batchers, 0);
        assert_eq!(s.stack.executors, 0);
        assert_eq!(s.stage_latency, Duration::ZERO);
        assert_eq!(s.cpu_cores, None);
        assert_eq!(s.stage_counts(), None);
    }

    #[test]
    fn degenerate_stage_configs_lower_to_the_monolith() {
        // No stages, or one free batcher/executor: monolithic wiring.
        for (b, e) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
            let s = Scenario::builder(Protocol::Pbft, 4)
                .batchers(b)
                .executors(e)
                .build();
            assert_eq!(s.stage_counts(), None, "({b},{e}) must stay monolithic");
        }
        // Replicating either stage (or pricing the handoff) compartmentalizes,
        // and the missing count is normalized up to one stage.
        let s = Scenario::builder(Protocol::Pbft, 4).batchers(3).build();
        assert_eq!(s.stage_counts(), Some((3, 1)));
        let s = Scenario::builder(Protocol::Pbft, 4)
            .batchers(2)
            .executors(2)
            .build();
        assert_eq!(s.stage_counts(), Some((2, 2)));
        let s = Scenario::builder(Protocol::Pbft, 4)
            .batchers(1)
            .executors(1)
            .stage_latency(Duration::from_micros(50))
            .build();
        assert_eq!(s.stage_counts(), Some((1, 1)));
        let s = Scenario::builder(Protocol::Pbft, 4)
            .stage_latency(Duration::from_micros(50))
            .build();
        assert_eq!(s.stage_counts(), None, "latency alone configures nothing");
    }

    #[test]
    fn fault_plan_partitions_events_by_kind_preserving_order() {
        let plan = FaultPlan::none()
            .crash(NodeId(1), CrashTiming::EpochStart)
            .straggler(NodeId(2))
            .partition(
                vec![NodeId(0)],
                vec![NodeId(3)],
                Time::from_secs(1),
                Time::from_secs(2),
            )
            .lossy_window(0.3, Time::from_secs(4), Time::from_secs(5))
            .crash(NodeId(3), CrashTiming::EpochEnd);
        let crashes = plan.crashes();
        assert_eq!(crashes.len(), 2);
        assert_eq!(crashes[0].0, NodeId(1));
        assert_eq!(crashes[1].0, NodeId(3));
        assert_eq!(plan.stragglers(), vec![NodeId(2)]);
        let parts = plan.partitions();
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].group_a, vec![NodeId(0)]);
        assert_eq!(parts[0].until, Time::from_secs(2));
        let loss = plan.loss_windows();
        assert_eq!(loss.len(), 1);
        assert_eq!(loss[0].probability, 0.3);
        assert!(!plan.is_empty());
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn topology_spec_builds_every_variant() {
        assert_eq!(TopologySpec::Wan16.build().num_datacenters(), 16);
        assert_eq!(
            TopologySpec::Lan(Duration::from_micros(200))
                .build()
                .num_datacenters(),
            1
        );
        assert_eq!(
            TopologySpec::Uniform {
                datacenters: 4,
                latency: Duration::from_millis(50)
            }
            .build()
            .num_datacenters(),
            4
        );
        let custom = Topology::custom(vec![vec![300, 1000], vec![1000, 300]], 100);
        assert_eq!(TopologySpec::Custom(custom).build().num_datacenters(), 2);
    }

    #[test]
    fn skewed_builder_uses_the_final_scenario_seed_regardless_of_call_order() {
        let a = Scenario::builder(Protocol::Pbft, 4)
            .seed(7)
            .skewed(8, 800.0, 1.0)
            .build();
        let b = Scenario::builder(Protocol::Pbft, 4)
            .skewed(8, 800.0, 1.0)
            .seed(7)
            .build();
        let default_seed = Scenario::builder(Protocol::Pbft, 4)
            .skewed(8, 800.0, 1.0)
            .build();
        let mut diverged = false;
        for c in 0..8 {
            let client = iss_types::ClientId(c);
            assert_eq!(
                a.workload.submit_time(client, 13),
                b.workload.submit_time(client, 13),
                ".seed()/.skewed() must compose in either order"
            );
            diverged |=
                a.workload.submit_time(client, 13) != default_seed.workload.submit_time(client, 13);
        }
        assert!(
            diverged,
            "seed 7 must permute client ranks differently from the default seed"
        );
    }

    #[test]
    fn later_workload_call_supersedes_a_pending_skewed() {
        let s = Scenario::builder(Protocol::Pbft, 4)
            .skewed(8, 800.0, 1.0)
            .open_loop(4, 400.0)
            .build();
        assert_eq!(s.num_clients(), 4, "open_loop must win over .skewed()");
    }
}
