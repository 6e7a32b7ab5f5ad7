//! The Scenario API: the composable experiment surface of the harness.
//!
//! A [`Scenario`] is the cartesian product the paper's "one framework, many
//! deployments" claim needs to be testable:
//!
//! ```text
//! Scenario = ProtocolStack × Workload × Topology × FaultPlan × AdversaryPlan × RunWindow
//! ```
//!
//! * [`ProtocolStack`] — which ordering protocol runs in each segment, in
//!   which mode (ISS / single-leader / Mir-BFT baseline) and under which
//!   leader-selection policy.
//! * [`iss_workload::Workload`] — *what* the clients submit and when: the
//!   paper's uniform open loop, bursty on/off traffic, or Zipf-skewed
//!   per-client rates, each with configurable payload-size distributions.
//! * [`TopologySpec`] — *where* the deployment runs: the paper's
//!   16-datacenter WAN, a LAN, a uniform mesh, or a custom latency matrix.
//! * [`FaultPlan`] — crashes (permanent or with a restart from durable
//!   storage) and Byzantine stragglers per node, timed partitions (with
//!   heal) and lossy-link windows.
//! * [`crate::adversary::AdversaryPlan`] — the actively malicious dimension,
//!   per node (equivocating and censoring leaders, malformed/oversized
//!   proposers) and per client (conflicting, duplicated and replayed
//!   requests), with cluster-wide safety/liveness gates evaluated into the
//!   run report.
//! * [`RunWindow`] — how long the run lasts, how much of it is warm-up, and
//!   how long the post-cutoff drain is.
//!
//! Scenarios are built with [`ScenarioBuilder`] (see [`Scenario::builder`]),
//! whose methods are the only way to schedule a fault or an attack, and are
//! pure, `Send` data: new experiment shapes are new scenarios, not new code
//! paths.
//!
//! # Two engines
//!
//! [`Scenario::run`] runs a scenario on the simulator and
//! `iss_net::TcpCluster::run` runs it over loopback TCP on the wall clock;
//! both build replicas and clients with [`Scenario::node_options`],
//! [`crate::cluster::replica`] and [`Scenario::client_process`], and
//! return the same [`Report`]. On both engines: PBFT in ISS or
//! single-leader mode under any policy, any workload, window and seed,
//! crashes and crash-restarts (loopback restarts a node from its file WAL,
//! so it needs a storage root), stragglers and telemetry. Simulator-only,
//! refused by loopback before it opens a socket: HotStuff, Raft and the
//! reference protocol (their messages encode, but their timeouts are set
//! for the simulated WAN and have no loopback values yet), Mir mode, every
//! topology but [`TopologySpec::Lan`] (loopback has its own latency),
//! partitions, loss windows and every attack.

use crate::adversary::{AdversaryPlan, ClientAttacks, MalformedKind, NodeAttacks};
use crate::client_proc::ClientProcess;
use crate::cluster::{Deployment, Report};
use crate::factories::Protocol;
use crate::metrics::Metrics;
use iss_core::{Mode, NodeOptions, StragglerBehavior};
use iss_crypto::SignatureRegistry;
use iss_simnet::fault::{LossWindow, Partition};
use iss_simnet::Topology;
use iss_telemetry::TelemetryHandle;
use iss_types::{
    BucketId, ClientId, Duration, EpochNr, IssConfig, LeaderPolicyKind, NodeId, ProtocolKind, Time,
};
use iss_workload::{Bursty, OpenLoop, Skewed, Workload};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

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
}

impl ProtocolStack {
    /// ISS over `protocol` with the Blacklist policy (the paper's default).
    pub fn new(protocol: Protocol) -> Self {
        ProtocolStack {
            protocol,
            mode: Mode::Iss,
            policy: LeaderPolicyKind::Blacklist,
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

/// The fault dimension of a scenario, filled by the [`ScenarioBuilder`]
/// fault methods and lowered by [`Deployment::new`]: crashes onto the
/// simulator's [`iss_simnet::fault::CrashSchedule`], stragglers onto node
/// options, partitions and loss windows onto [`iss_simnet::FaultConfig`]
/// as they are.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Per crashing node: when it crashes and, for a crash-restart, how long
    /// it stays down before rebooting from durable storage (`None`: down for
    /// the rest of the run).
    pub(crate) crashes: BTreeMap<NodeId, (CrashTiming, Option<Duration>)>,
    /// Byzantine stragglers (Section 6.4.2).
    pub(crate) stragglers: BTreeSet<NodeId>,
    /// Timed partitions, each healing at its `until`.
    pub(crate) partitions: Vec<Partition>,
    /// Windows of probabilistic message loss.
    pub(crate) loss_windows: Vec<LossWindow>,
}

impl FaultPlan {
    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
            && self.stragglers.is_empty()
            && self.partitions.is_empty()
            && self.loss_windows.is_empty()
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
    pub workload: Arc<dyn Workload>,
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
    /// RNG seed.
    pub seed: u64,
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
                workload: Arc::new(OpenLoop::new(16, 1_000.0, Time::ZERO)),
                topology: TopologySpec::Wan16,
                faults: FaultPlan::default(),
                adversary: AdversaryPlan::default(),
                window: RunWindow::default(),
                seed: 42,
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
        // (see docs/threat-model.md#simplifications).
        config.client_signatures = false;
        // The open-loop generator is not throttled by watermarks.
        config.client_watermark_window = 1 << 30;
        config
    }

    /// The keys of every replica and client of the scenario.
    pub fn registry(&self) -> Arc<SignatureRegistry> {
        let (nodes, clients) = (self.num_nodes, self.num_clients());
        Arc::new(SignatureRegistry::with_processes(nodes, clients))
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

    /// The crash plan at absolute times: `(node, down, up)` per crashing
    /// node in node order, where `up` is the reboot time of a
    /// crash-restart.
    pub fn crashes(&self) -> impl Iterator<Item = (NodeId, Time, Option<Time>)> + '_ {
        self.faults
            .crashes
            .iter()
            .map(|(&node, &(timing, down_for))| {
                let down = self.crash_time(timing);
                (node, down, down_for.map(|d| down + d))
            })
    }

    /// The first dimension of this scenario that only the simulator runs
    /// (see the module docs), named for an error message; `None` when the
    /// loopback engine can lower all of them.
    pub fn simulator_only(&self) -> Option<String> {
        let topology = match self.topology {
            TopologySpec::Lan(_) => None,
            TopologySpec::Wan16 => Some("the Wan16 topology"),
            TopologySpec::Uniform { .. } => Some("a Uniform topology"),
            TopologySpec::Custom(_) => Some("a Custom topology"),
        };
        let protocol = self.stack.protocol;
        [
            (protocol != Protocol::Pbft)
                .then(|| format!("protocol {protocol:?} (no loopback timeouts)")),
            (self.stack.mode == Mode::Mir).then(|| "Mir mode".into()),
            topology.map(String::from),
            (!self.faults.partitions.is_empty()).then(|| "a partition".into()),
            (!self.faults.loss_windows.is_empty()).then(|| "a loss window".into()),
            (!self.adversary.is_empty()).then(|| "an attack".into()),
        ]
        .into_iter()
        .flatten()
        .next()
    }

    /// The node whose deliveries feed the timeline and latency statistics:
    /// the highest-numbered node that neither crashes (a restarting node
    /// spends part of the run down and catching up), lags nor attacks (an
    /// equivocator's or censor's local log is not what the correct quorum
    /// commits), preferring nodes outside the minority side of every
    /// scheduled partition — a cut-off replica delivers nothing while
    /// partitioned (and takes a protocol timeout to catch up after heal), so
    /// it would silently report the stalled side instead of the committing
    /// quorum.
    fn observer(&self) -> NodeId {
        let isolated: Vec<NodeId> = self
            .faults
            .partitions
            .iter()
            .flat_map(|p| match p.group_a.len().cmp(&p.group_b.len()) {
                std::cmp::Ordering::Less => p.group_a.clone(),
                std::cmp::Ordering::Greater => p.group_b.clone(),
                std::cmp::Ordering::Equal => Vec::new(),
            })
            .collect();
        let healthy = |n: &NodeId| {
            !self.faults.crashes.contains_key(n)
                && !self.faults.stragglers.contains(n)
                && !self.adversary.nodes.contains_key(n)
        };
        let nodes = || (0..self.num_nodes as u32).rev().map(NodeId);
        nodes()
            .find(|n| healthy(n) && !isolated.contains(n))
            .or_else(|| nodes().find(healthy))
            .unwrap_or(NodeId(0))
    }

    /// Empty metrics for a run of this scenario, observed at its
    /// highest-numbered healthy node, with latency taken against the
    /// workload's schedule.
    pub fn metrics(&self) -> Metrics {
        let mut metrics = Metrics::new(
            self.num_nodes,
            self.observer(),
            Some(Arc::clone(&self.workload)),
        );
        // Liveness gates need the observer's per-request delivery times;
        // the map stays empty (and unallocated) in benign runs.
        metrics.track_deliveries = !self.adversary.is_empty();
        metrics
    }

    /// Censorship recovery relies on clients retransmitting requests that
    /// got no response, so censoring scenarios turn responses and client
    /// retransmission on; every other run measures latency at delivery and
    /// keeps the response traffic out of the event count.
    fn respond_to_clients(&self) -> bool {
        self.adversary.nodes.values().any(|a| a.censor.is_some())
    }

    /// The options of replica `node` under `config` ([`Scenario::iss_config`]
    /// or an engine's adjustment of it): mode, client set, bucket
    /// announcements, straggling, responses and a telemetry handle of its
    /// own when the scenario records telemetry.
    pub fn node_options(&self, node: NodeId, config: &IssConfig) -> NodeOptions {
        let mut opts = NodeOptions::new(config.clone());
        opts.mode = self.stack.mode;
        opts.respond_to_clients = self.respond_to_clients();
        opts.announce_buckets = true;
        opts.clients = (0..self.num_clients() as u32).map(ClientId).collect();
        if self.faults.stragglers.contains(&node) {
            opts.straggler = Some(StragglerBehavior {
                proposal_interval: config.epoch_change_timeout.div(2),
            });
        }
        if self.telemetry {
            opts.telemetry = TelemetryHandle::enabled(node.0);
        }
        opts
    }

    /// The process of `client`: submits the scenario's workload to the
    /// replicas of `config` until the end of the run window, and re-sends
    /// unanswered requests when the replicas respond.
    pub fn client_process(&self, client: ClientId, config: &IssConfig) -> ClientProcess {
        let process = ClientProcess::new(
            client,
            Arc::clone(&self.workload),
            config.all_nodes(),
            config.num_buckets(),
            config.f() + 1,
            Time::ZERO + self.window.duration,
        );
        if self.respond_to_clients() {
            process.with_retransmission()
        } else {
            process
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

    /// Enables commit-path telemetry (spans, phase histograms, CPU-by-class)
    /// on every node; the merged snapshot lands in `Report::telemetry`.
    pub fn telemetry(mut self, enabled: bool) -> Self {
        self.scenario.telemetry = enabled;
        self
    }

    /// Installs an arbitrary [`Workload`] implementation.
    pub fn workload(mut self, workload: impl Workload + 'static) -> Self {
        self.scenario.workload = Arc::new(workload);
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

    /// Schedules a permanent crash of `node` at `at`. A node crashes at most
    /// once: this replaces any crash scheduled for it before.
    pub fn crash(mut self, node: NodeId, at: CrashTiming) -> Self {
        self.scenario.faults.crashes.insert(node, (at, None));
        self
    }

    /// Schedules a crash of `node` at `at` with a reboot from durable
    /// storage `down_for` later, replacing any crash scheduled for it before.
    pub fn crash_restart(mut self, node: NodeId, at: CrashTiming, down_for: Duration) -> Self {
        self.scenario
            .faults
            .crashes
            .insert(node, (at, Some(down_for)));
        self
    }

    /// Marks `node` as a Byzantine straggler: it proposes as late and as
    /// little as possible for the whole run (Section 6.4.2).
    pub fn straggler(mut self, node: NodeId) -> Self {
        self.scenario.faults.stragglers.insert(node);
        self
    }

    /// Partitions `group_a` from `group_b` during `[from, until)`;
    /// communication heals at `until` (the GST of partial synchrony).
    pub fn partition(
        mut self,
        group_a: Vec<NodeId>,
        group_b: Vec<NodeId>,
        from: Time,
        until: Time,
    ) -> Self {
        self.scenario.faults.partitions.push(Partition {
            group_a,
            group_b,
            from,
            until,
        });
        self
    }

    /// Drops every message with `probability` during `[from, until)`.
    pub fn lossy_window(mut self, probability: f64, from: Time, until: Time) -> Self {
        self.scenario.faults.loss_windows.push(LossWindow {
            probability,
            from,
            until,
        });
        self
    }

    /// Makes `node` an equivocating leader during epochs `[from_epoch,
    /// until_epoch)`: it proposes conflicting batches to different followers.
    pub fn equivocating_leader(
        mut self,
        node: NodeId,
        from_epoch: EpochNr,
        until_epoch: EpochNr,
    ) -> Self {
        self.node_attacks(node).equivocate = Some((from_epoch, until_epoch));
        self
    }

    /// Makes `node` censor every client request of `bucket` for the whole
    /// run (Section 4.3's bucket-rotation defense is what bounds the damage).
    pub fn censoring_leader(mut self, node: NodeId, bucket: BucketId) -> Self {
        self.node_attacks(node).censor = Some(bucket);
        self
    }

    /// Makes `node` propose malformed batches during epochs `[from_epoch,
    /// until_epoch)`.
    pub fn malformed_proposals(
        mut self,
        node: NodeId,
        kind: MalformedKind,
        from_epoch: EpochNr,
        until_epoch: EpochNr,
    ) -> Self {
        self.node_attacks(node).malformed = Some((kind, from_epoch, until_epoch));
        self
    }

    /// Makes `client` submit a conflicting copy (same request id, different
    /// payload) of every request to a second replica.
    pub fn byzantine_client(mut self, client: ClientId) -> Self {
        self.client_attacks(client).conflict = true;
        self
    }

    /// Makes `client` re-send every 4th request immediately and replay an
    /// old (typically long-delivered) request every 8th submission.
    pub fn duplicating_client(mut self, client: ClientId) -> Self {
        self.client_attacks(client).duplicate_replay = true;
        self
    }

    /// The attacks scheduled for `node` so far (an empty entry if none).
    fn node_attacks(&mut self, node: NodeId) -> &mut NodeAttacks {
        self.scenario.adversary.nodes.entry(node).or_default()
    }

    /// The attacks scheduled for `client` so far (an empty entry if none).
    fn client_attacks(&mut self, client: ClientId) -> &mut ClientAttacks {
        self.scenario.adversary.clients.entry(client).or_default()
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

    /// Finishes the scenario (materializing a deferred skewed workload with
    /// the final seed).
    pub fn build(mut self) -> Scenario {
        if let Some((num_clients, total_rate, exponent)) = self.skewed {
            self.scenario.workload = Arc::new(Skewed::new(
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
    }

    #[test]
    fn fault_plan_partitions_events_by_kind_preserving_order() {
        let plan = Scenario::builder(Protocol::Pbft, 4)
            .crash(NodeId(3), CrashTiming::EpochEnd)
            .straggler(NodeId(2))
            .partition(
                vec![NodeId(0)],
                vec![NodeId(3)],
                Time::from_secs(1),
                Time::from_secs(2),
            )
            .lossy_window(0.3, Time::from_secs(4), Time::from_secs(5))
            .lossy_window(0.1, Time::from_secs(6), Time::from_secs(7))
            .crash_restart(NodeId(1), CrashTiming::EpochStart, Duration::from_secs(2))
            .build()
            .faults;
        let crashes: Vec<_> = plan
            .crashes
            .iter()
            .map(|(n, (_, restart))| (*n, *restart))
            .collect();
        assert_eq!(
            crashes,
            vec![(NodeId(1), Some(Duration::from_secs(2))), (NodeId(3), None)]
        );
        assert!(matches!(plan.crashes[&NodeId(3)].0, CrashTiming::EpochEnd));
        assert_eq!(
            plan.stragglers.iter().copied().collect::<Vec<_>>(),
            vec![NodeId(2)]
        );
        assert_eq!(plan.partitions.len(), 1);
        assert_eq!(plan.partitions[0].group_a, vec![NodeId(0)]);
        assert_eq!(plan.partitions[0].until, Time::from_secs(2));
        let loss: Vec<f64> = plan.loss_windows.iter().map(|w| w.probability).collect();
        assert_eq!(loss, vec![0.3, 0.1], "windows keep their scheduling order");
        assert!(!plan.is_empty());
        assert!(Scenario::builder(Protocol::Pbft, 4)
            .build()
            .faults
            .is_empty());
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
