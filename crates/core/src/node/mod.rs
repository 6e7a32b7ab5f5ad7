//! The ISS replica (the Manager module of Section 4.1), implemented as an
//! event-driven process over the [`iss_runtime::process`] interface.
//!
//! One [`IssNode`] owns the log, the bucket queues, the leader-selection
//! policy, the checkpointing state and the currently active SB instances
//! (one per segment of the current epoch), and drives them from three kinds
//! of events: client requests, protocol messages and timers.
//!
//! Besides the regular ISS mode, the node supports two additional modes used
//! by the evaluation:
//!
//! * [`Mode::SingleLeader`] — the single-leader baseline: every epoch has a
//!   single segment led by node 0 holding every bucket, which reproduces the
//!   original (non-ISS) protocols' behaviour including their leader
//!   bandwidth bottleneck;
//! * [`Mode::Mir`] — a Mir-BFT-like construction that, unlike ISS, relies on
//!   an *epoch primary* and stalls all instances during the epoch change
//!   (used for the comparison in Figures 5 and 10).
//!
//! This module holds the node's types and state and dispatches its events.
//! Each job the replica does lives in one submodule: `ordering` (SB
//! instances, proposals, commits and in-order delivery), `epochs` (epoch
//! transitions, checkpoints and Mir's epoch primary) and `recovery` (WAL
//! replay, persistence, snapshots and state transfer; every storage call is
//! there).
//!
//! # Epoch-state layout
//!
//! The Manager's per-epoch bookkeeping — which SB instance owns a message,
//! which leader owned a sequence number, what this node proposed where, and
//! which instance a timer belongs to — lives in one dense [`EpochState`]
//! arena: offset-indexed sequence-number tables, a generation-stamped
//! instance slab addressed by [`crate::state::InstanceSlot`] handles, and
//! wholesale-drop epoch GC. The original four-`HashMap` implementation
//! survives only as the lockstep oracle in
//! `crates/core/tests/state_equivalence.rs`.
//!
//! The generation-stamp argument, in short: every handle (instance slot or
//! timer route) carries the generation of the slab slot it points at, and
//! retiring a slot bumps the generation. A dangling reference — a timer that
//! fires after its epoch was garbage-collected, a late message for a dead
//! instance — therefore fails an O(1) comparison instead of requiring the GC
//! to eagerly scrub every map that might mention the instance. Epoch GC
//! becomes one generation bump per instance plus dropping the arena's dense
//! tables, replacing four `retain` scans whose cost grew with the node count
//! and the timer population.

mod epochs;
mod ordering;
mod recovery;

use crate::buckets::BucketQueues;
use crate::checkpoint::CheckpointManager;
use crate::epoch::EpochConfig;
use crate::log::IssLog;
use crate::orderer::OrdererFactory;
use crate::policy::LeaderPolicy;
use crate::state::EpochState;
use crate::validation::RequestValidation;
use iss_crypto::{KeyPair, SignatureRegistry};
use iss_messages::{ClientMsg, IssMsg, MirMsg, NetMsg, SbMsg};
use iss_runtime::process::{Addr, Context, Process};
use iss_storage::record::PolicyState;
use iss_storage::Storage;
use iss_telemetry::TelemetryHandle;
use iss_types::{
    Batch, ClientId, Duration, EpochNr, Error, InstanceId, IssConfig, NodeId, Request, RequestId,
    SeqNr, Time, TimerId,
};
use recovery::{RecoveryProgress, SnapshotAssembly};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// Timer kinds used by the node on the runtime context.
const KIND_PROPOSE: u64 = 1;
const KIND_INSTANCE: u64 = 2;
const KIND_MIR_EPOCH: u64 = 3;

/// Deployment mode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Regular ISS: multi-leader, leader policy driven.
    Iss,
    /// Single-leader baseline (the original protocol, node 0 leads forever).
    SingleLeader,
    /// Mir-BFT-like baseline: multi-leader but with an epoch primary and a
    /// stop-the-world epoch change.
    Mir,
}

/// Byzantine straggler behaviour (Section 6.4.2): the leader delays proposals
/// as much as possible without being suspected and proposes only empty
/// batches.
#[derive(Clone, Copy, Debug)]
pub struct StragglerBehavior {
    /// Interval between the straggler's (empty) proposals; the evaluation
    /// uses 0.5 × the epoch-change timeout.
    pub proposal_interval: Duration,
}

/// Observer of a node's deliveries (metrics collection, application hookup).
pub trait DeliverySink {
    /// A request was delivered with its global request sequence number.
    fn on_request_delivered(
        &mut self,
        node: NodeId,
        request: &Request,
        request_seq_nr: u64,
        now: Time,
    );
    /// A batch (or ⊥) was committed at a log position.
    fn on_batch_committed(&mut self, node: NodeId, seq_nr: SeqNr, batch_size: usize, now: Time);
    /// The node advanced to a new epoch.
    fn on_epoch_advanced(&mut self, node: NodeId, epoch: EpochNr, now: Time);
    /// The node rejected an incoming client request at intake validation
    /// (bad signature, watermark violation, replay, unknown client). Default
    /// no-op: only adversarial-scenario metrics care.
    fn on_request_rejected(
        &mut self,
        _node: NodeId,
        _request: &Request,
        _error: &Error,
        _now: Time,
    ) {
    }
    /// The node's validation refused to vote for `count` proposals since the
    /// last report (malformed, oversized, duplicated or replay-carrying
    /// batches from a misbehaving leader). Default no-op.
    fn on_proposal_rejected(&mut self, _node: NodeId, _count: u64, _now: Time) {}
    /// The node booted from durable state or detected it had fallen behind
    /// and entered recovery.
    fn on_recovery_started(&mut self, _node: NodeId, _now: Time) {}
    /// The node finished catching up: `entries_replayed` log entries came
    /// from its WAL, `snapshot_chunks` snapshot chunks arrived over the
    /// state-transfer fast path.
    fn on_recovery_completed(
        &mut self,
        _node: NodeId,
        _entries_replayed: u64,
        _snapshot_chunks: u64,
        _now: Time,
    ) {
    }
}

/// A sink that ignores everything.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl DeliverySink for NullSink {
    fn on_request_delivered(&mut self, _: NodeId, _: &Request, _: u64, _: Time) {}
    fn on_batch_committed(&mut self, _: NodeId, _: SeqNr, _: usize, _: Time) {}
    fn on_epoch_advanced(&mut self, _: NodeId, _: EpochNr, _: Time) {}
}

/// Per-node deployment options.
#[derive(Clone)]
pub struct NodeOptions {
    /// The ISS configuration (Table 1 preset).
    pub config: IssConfig,
    /// Deployment mode.
    pub mode: Mode,
    /// Whether to send RESPONSE messages back to clients.
    pub respond_to_clients: bool,
    /// Whether to announce bucket-to-leader assignments to clients at epoch
    /// transitions (Section 4.3).
    pub announce_buckets: bool,
    /// The client population (used for announcements).
    pub clients: Vec<ClientId>,
    /// If set, this node behaves as a Byzantine straggler when leading.
    pub straggler: Option<StragglerBehavior>,
    /// Commit-path telemetry for this node (disabled by default). Recording
    /// never touches the process RNG or emits actions, so enabling it cannot
    /// perturb a run.
    pub telemetry: TelemetryHandle,
}

impl NodeOptions {
    /// Default options for the given configuration: ISS mode, responses on,
    /// no straggling, telemetry off. Bucket announcements are off: a caller
    /// that turns them on also lists the `clients` to announce to.
    pub fn new(config: IssConfig) -> Self {
        NodeOptions {
            config,
            mode: Mode::Iss,
            respond_to_clients: true,
            announce_buckets: false,
            clients: Vec::new(),
            straggler: None,
            telemetry: TelemetryHandle::disabled(),
        }
    }
}

/// Telemetry correlation key of a request (stable across the machines that
/// see the same request).
pub(crate) fn telemetry_request_key(id: &RequestId) -> u64 {
    iss_telemetry::request_key(id.client.0 as u64, id.timestamp)
}

/// Records a batch cut at `now`; returns the batch's telemetry key, the
/// order-sensitive fold over its request keys.
pub(crate) fn record_cut(telemetry: &TelemetryHandle, now: Time, batch: &Batch) -> u64 {
    let requests = || {
        batch
            .requests()
            .iter()
            .map(|r| telemetry_request_key(&r.id))
    };
    let key = iss_telemetry::batch_key(requests());
    telemetry.on_cut(now, key, requests());
    key
}

/// The ISS replica (see the module docs).
pub struct IssNode {
    my_id: NodeId,
    opts: NodeOptions,
    /// All node ids, computed once (the broadcast fan-out iterates this on
    /// every message; recomputing or cloning it there would be per-message
    /// allocation).
    all_nodes: Vec<NodeId>,
    factory: OrdererFactory,
    sink: Rc<RefCell<dyn DeliverySink>>,

    // Manager state.
    /// The current epoch (its number is the node's epoch number).
    epoch: EpochConfig,
    /// Instance storage/dispatch, seq-nr → leader, proposed batches and
    /// timer routing (the former four `HashMap`s).
    state: EpochState,
    log: IssLog,
    buckets: BucketQueues,
    validation: RequestValidation,
    policy: LeaderPolicy,
    checkpoints: CheckpointManager,
    /// SB messages of the next epoch in arrival order, replayed when this
    /// node enters it, and how many of them each sender has held.
    next_epoch_msgs: Vec<(NodeId, InstanceId, SbMsg)>,
    held_per_sender: HashMap<NodeId, u64>,

    // Proposal state for the segment this node leads (if any).
    my_segment_idx: Option<usize>,
    next_proposal: usize,
    last_proposal_at: Time,

    // Mir mode: waiting for the epoch primary's NEW-EPOCH message.
    mir_waiting: bool,

    // Durable persistence and recovery (the WAL + snapshot subsystem).
    /// Durable backend, if this deployment persists the node's log. Shared
    /// (`Rc`) so a simulated restart can hand the same storage to the next
    /// incarnation.
    storage: Option<Rc<dyn Storage>>,
    /// Per finished epoch: `totalDelivered` at the cut and the policy state
    /// right after `on_epoch_end` — everything a snapshot needs beyond the
    /// stable checkpoint itself.
    snapshot_meta: HashMap<EpochNr, (u64, PolicyState)>,
    /// Epoch of the last snapshot persisted to `storage`.
    last_snapshot_epoch: Option<EpochNr>,
    /// In-progress catch-up bookkeeping (`None` when fully caught up).
    recovery: Option<RecoveryProgress>,
    /// Reassembly buffer for an incoming chunked snapshot.
    incoming_snapshot: Option<SnapshotAssembly>,

    /// Proposal rejections already forwarded to the sink (the validation
    /// counter is cumulative; this tracks the delta reported so far).
    reported_proposal_rejections: u64,
}

impl IssNode {
    /// Creates a node.
    pub fn new(
        my_id: NodeId,
        opts: NodeOptions,
        factory: OrdererFactory,
        registry: Arc<SignatureRegistry>,
        sink: Rc<RefCell<dyn DeliverySink>>,
    ) -> Self {
        let config = &opts.config;
        let keypair = KeyPair::for_node(my_id);
        let validation = RequestValidation::new(
            Arc::clone(&registry),
            config.client_signatures,
            config.num_buckets(),
            config.client_watermark_window,
            config.max_batch_size,
        );
        let policy = LeaderPolicy::new(
            config.leader_policy,
            config.all_nodes(),
            config.f(),
            config.backoff_ban_period,
            config.backoff_decrease,
        );
        let checkpoints =
            CheckpointManager::new(my_id, keypair, Arc::clone(&registry), 2 * config.f() + 1);
        let epoch = epochs::epoch_config(&opts, &policy, 0, 0);
        let buckets = BucketQueues::new(config.num_buckets());
        let all_nodes = config.all_nodes();
        IssNode {
            my_id,
            opts,
            all_nodes,
            factory,
            sink,
            epoch,
            state: EpochState::new(),
            log: IssLog::new(),
            buckets,
            validation,
            policy,
            checkpoints,
            next_epoch_msgs: Vec::new(),
            held_per_sender: HashMap::new(),
            my_segment_idx: None,
            next_proposal: 0,
            last_proposal_at: Time::ZERO,
            mir_waiting: false,
            storage: None,
            snapshot_meta: HashMap::new(),
            last_snapshot_epoch: None,
            recovery: None,
            incoming_snapshot: None,
            reported_proposal_rejections: 0,
        }
    }

    /// Creates a node backed by durable storage, recovering whatever the
    /// storage holds: the latest checkpoint snapshot re-anchors the log and
    /// the policy, and the WAL suffix is replayed *silently* (delivery is a
    /// deterministic function of the committed set, so replay restores the
    /// exact pre-crash delivery state without re-emitting sink events or
    /// client responses). On an empty storage this is an ordinary cold boot
    /// that additionally persists from the first commit on.
    pub fn with_storage(
        my_id: NodeId,
        opts: NodeOptions,
        factory: OrdererFactory,
        registry: Arc<SignatureRegistry>,
        sink: Rc<RefCell<dyn DeliverySink>>,
        storage: Rc<dyn Storage>,
    ) -> Self {
        let mut node = Self::new(my_id, opts, factory, registry, sink);
        node.storage = Some(Rc::clone(&storage));
        node.replay_from_storage(&*storage);
        node
    }

    /// The node's current epoch number.
    pub fn current_epoch(&self) -> EpochNr {
        self.epoch.epoch
    }

    /// Read access to the log (testing / state inspection).
    pub fn log(&self) -> &IssLog {
        &self.log
    }

    /// Number of requests waiting in this node's bucket queues.
    pub fn pending_requests(&self) -> usize {
        self.buckets.len()
    }

    /// Number of SB messages of the next epoch held back until this node
    /// enters it (testing / diagnostics).
    pub fn held_next_epoch_messages(&self) -> usize {
        self.next_epoch_msgs.len()
    }

    /// Whether the node is currently catching up (testing / diagnostics).
    pub fn is_recovering(&self) -> bool {
        self.recovery.is_some()
    }
}

impl Process<NetMsg> for IssNode {
    fn on_start(&mut self, ctx: &mut Context<'_, NetMsg>) {
        self.setup_epoch_instances(ctx);
        ctx.set_timer(self.proposal_interval(), KIND_PROPOSE);
        if self.recovery.is_some() {
            // Rebooted from durable state: immediately ask the cluster for
            // everything we missed while down (reconnect fast path).
            self.request_snapshot(None, ctx);
        }
    }

    fn on_message(&mut self, from: Addr, msg: NetMsg, ctx: &mut Context<'_, NetMsg>) {
        // What is handled on behalf of the sending peer needs one.
        match (msg, from.as_node()) {
            (NetMsg::Client(ClientMsg::Request(req)), _) => {
                match self.validation.validate_request(&req) {
                    Ok(()) => {
                        self.opts
                            .telemetry
                            .on_arrival(ctx.now(), telemetry_request_key(&req.id));
                        self.buckets.add(req);
                    }
                    Err(e) => {
                        self.sink
                            .borrow_mut()
                            .on_request_rejected(self.my_id, &req, &e, ctx.now());
                    }
                }
            }
            (NetMsg::Sb { instance, msg }, Some(node)) => {
                self.on_sb_message(node, instance, msg, ctx);
            }
            (
                NetMsg::Iss(IssMsg::Checkpoint {
                    epoch,
                    max_seq_nr,
                    root,
                    signature,
                }),
                Some(node),
            ) => {
                let stable = self
                    .checkpoints
                    .on_checkpoint(node, epoch, max_seq_nr, root, signature);
                if let Some(stable) = stable {
                    self.on_checkpoint_stable(stable, ctx);
                }
            }
            (
                NetMsg::Iss(IssMsg::StateRequest {
                    from_seq_nr,
                    to_seq_nr,
                }),
                Some(node),
            ) => self.serve_state_request(node, from_seq_nr, to_seq_nr, ctx),
            (NetMsg::Iss(IssMsg::StateResponse { entries, .. }), Some(_)) => {
                // Only a replica transfers committed state. Integrity is
                // protected by the stable checkpoint; the proof was verified
                // against known signers when the checkpoint was formed.
                self.commit_transferred(entries.into_iter().map(|e| (e.seq_nr, e.batch)), ctx);
                self.maybe_finish_epoch(ctx);
            }
            (NetMsg::Iss(IssMsg::SnapshotRequest { from_seq_nr }), Some(node)) => {
                self.serve_snapshot_request(node, from_seq_nr, ctx);
            }
            (NetMsg::Iss(chunk @ IssMsg::SnapshotChunk { .. }), Some(node)) => {
                self.on_snapshot_chunk(node, chunk, ctx);
            }
            (NetMsg::Mir(MirMsg::NewEpoch { epoch, .. }), Some(node)) => {
                // Only the next epoch's primary announces it.
                if self.opts.mode == Mode::Mir
                    && self.mir_waiting
                    && epoch == self.epoch.epoch + 1
                    && node == self.mir_primary(epoch)
                {
                    self.start_next_epoch(ctx);
                }
            }
            (NetMsg::Client(_), _)
            | (NetMsg::Sb { .. } | NetMsg::Iss(_) | NetMsg::Mir(_), None) => {}
        }
    }

    fn on_timer(&mut self, id: TimerId, kind: u64, ctx: &mut Context<'_, NetMsg>) {
        match kind {
            KIND_PROPOSE => self.on_propose_tick(ctx),
            KIND_INSTANCE => {
                // O(1) timer → instance resolution: the route carries the
                // instance's slot handle; a stale timer (instance GC'd)
                // fails the generation check inside `resolve_timer`.
                if let Some((slot, token)) = self.state.resolve_timer(id) {
                    self.drive(slot, ctx, |inst, sb| inst.on_timer(token, sb));
                }
            }
            KIND_MIR_EPOCH if self.mir_waiting => {
                // Ungraceful epoch change: the primary was unresponsive.
                self.start_next_epoch(ctx);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iss_sb::reference::ReferenceSb;
    use iss_sb::SbInstance;

    fn make_node(mode: Mode, n: usize) -> IssNode {
        let mut config = IssConfig::pbft(n);
        config.min_epoch_length = 8;
        config.client_signatures = false;
        let timeout = config.epoch_change_timeout;
        let mut opts = NodeOptions::new(config);
        opts.mode = mode;
        let factory: OrdererFactory = Box::new(move |id, seg| {
            Box::new(ReferenceSb::new(id, seg, timeout)) as Box<dyn SbInstance>
        });
        IssNode::new(
            NodeId(0),
            opts,
            factory,
            Arc::new(SignatureRegistry::with_processes(n, 4)),
            Rc::new(RefCell::new(NullSink)),
        )
    }

    #[test]
    fn single_leader_mode_has_one_segment_led_by_node_zero() {
        let node = make_node(Mode::SingleLeader, 4);
        assert_eq!(node.epoch.segments.len(), 1);
        assert_eq!(node.epoch.segments[0].leader, NodeId(0));
        assert_eq!(
            node.epoch.segments[0].buckets.len(),
            node.opts.config.num_buckets()
        );
    }

    #[test]
    fn iss_mode_uses_all_nodes_as_leaders_initially() {
        let node = make_node(Mode::Iss, 4);
        assert_eq!(node.epoch.segments.len(), 4);
        assert_eq!(node.current_epoch(), 0);
    }

    #[test]
    fn mir_primary_rotates_with_epoch() {
        let node = make_node(Mode::Mir, 4);
        assert_eq!(node.mir_primary(0), NodeId(0));
        assert_eq!(node.mir_primary(1), NodeId(1));
        assert_eq!(node.mir_primary(5), NodeId(1));
    }

    #[test]
    fn mir_epoch_starts_only_on_its_primarys_announcement() {
        use rand::SeedableRng;
        let mut node = make_node(Mode::Mir, 4);
        node.mir_waiting = true;
        let mut timers = 0;
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut announce = |node: &mut IssNode, from: Addr| {
            let mut actions = Vec::new();
            let me = Addr::Node(NodeId(0));
            let mut ctx = Context::new(Time::ZERO, me, &mut timers, &mut actions, &mut rng);
            let msg = MirMsg::NewEpoch {
                epoch: 1,
                config_digest: [0; 32],
            };
            node.on_message(from, NetMsg::Mir(msg), &mut ctx);
        };
        // Epoch 1's primary is node 1: neither another replica nor a client
        // can start it.
        announce(&mut node, Addr::Node(NodeId(2)));
        announce(&mut node, Addr::Client(ClientId(0)));
        assert_eq!(node.current_epoch(), 0);
        assert!(node.mir_waiting);
        announce(&mut node, Addr::Node(NodeId(1)));
        assert_eq!(node.current_epoch(), 1);
        assert!(!node.mir_waiting);
    }

    #[test]
    fn proposal_interval_follows_batch_rate() {
        let node = make_node(Mode::Iss, 4);
        // 4 leaders at 32 batches/s system-wide → one proposal every 125 ms.
        assert_eq!(node.proposal_interval(), Duration::from_millis(125));
        let single = make_node(Mode::SingleLeader, 4);
        assert_eq!(single.proposal_interval(), Duration::from_micros(31_250));
    }
}
