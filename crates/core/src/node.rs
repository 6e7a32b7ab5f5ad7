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

use crate::buckets::BucketQueues;
use crate::checkpoint::{CheckpointManager, StableCheckpoint};
use crate::epoch::EpochConfig;
use crate::log::{DeliveredBatch, IssLog};
use crate::orderer::OrdererFactory;
use crate::policy::LeaderPolicy;
use crate::stages::StageCountersHandle;
use crate::state::{EpochState, InstanceSlot};
use crate::validation::{EpochBuckets, RequestValidation};
use bytes::{Bytes, BytesMut};
use iss_crypto::{Digest, KeyPair, SignatureRegistry};
use iss_messages::codec::{decode_log, encode_log};
use iss_messages::{ClientMsg, IssMsg, MirMsg, NetMsg, SbMsg, StageMsg};
use iss_runtime::process::{Addr, Context, Process, StageRole};
use iss_sb::{SbAction, SbContext, SbInstance};
use iss_storage::record::{decode_policy, encode_policy, PolicyState, Snapshot, WalRecord};
use iss_storage::Storage;
use iss_telemetry::{Recorder, TelemetryHandle};
use iss_types::{
    Batch, BucketId, ClientId, Duration, EpochNr, Error, InstanceId, IssConfig, NodeId, Request,
    RequestId, SeqNr, Time, TimerId,
};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

/// Timer kinds used by the node on the runtime context.
const KIND_PROPOSE: u64 = 1;
const KIND_INSTANCE: u64 = 2;
const KIND_MIR_EPOCH: u64 = 3;

/// Size of one snapshot chunk on the state-transfer fast path.
const SNAPSHOT_CHUNK_BYTES: usize = 64 << 10;

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

/// Wiring of the compartmentalized pipeline around one orderer: how many
/// batcher/executor stage processes the deployment spawned for this node.
/// The stage counts must match the processes actually registered at
/// `Addr::Stage { node, .. }` addresses — the node fans handoffs out by
/// `bucket mod batchers` and `request_seq_nr mod executors`.
#[derive(Clone)]
pub struct PipelineOptions {
    /// Number of batcher stages in front of this orderer (≥ 1).
    pub batchers: u32,
    /// Number of executor stages behind it (≥ 1).
    pub executors: u32,
    /// Counter handle for the orderer's ready-batch backlog column.
    pub counters: Option<StageCountersHandle>,
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
    /// Compartmentalized pipeline wiring (`None` = monolithic node).
    pub pipeline: Option<PipelineOptions>,
    /// Commit-path telemetry for this machine, shared with any co-located
    /// pipeline stages (disabled by default). Recording never touches the
    /// process RNG or emits actions, so enabling it cannot perturb a run.
    pub telemetry: TelemetryHandle,
}

impl NodeOptions {
    /// Default options for the given configuration: ISS mode, responses on,
    /// announcements off (the simulator's clients route by configuration),
    /// monolithic (no pipeline stages).
    pub fn new(config: IssConfig) -> Self {
        NodeOptions {
            config,
            mode: Mode::Iss,
            respond_to_clients: true,
            announce_buckets: false,
            clients: Vec::new(),
            straggler: None,
            pipeline: None,
            telemetry: TelemetryHandle::disabled(),
        }
    }
}

/// Telemetry correlation key of a request (stable across the machines and
/// stages that see the same request).
pub fn telemetry_request_key(id: &RequestId) -> u64 {
    iss_telemetry::request_key(id.client.0 as u64, id.timestamp)
}

/// Telemetry correlation key of a batch: the order-sensitive fold over its
/// request keys. The batcher (at cut time) and the orderer (per constituent
/// batch at proposal time) compute the same key independently.
pub fn telemetry_batch_key(batch: &Batch) -> u64 {
    iss_telemetry::batch_key(
        batch
            .requests()
            .iter()
            .map(|r| telemetry_request_key(&r.id)),
    )
}

/// The ISS replica (see the module docs).
pub struct IssNode {
    my_id: NodeId,
    opts: NodeOptions,
    /// All node ids, computed once (the broadcast fan-out iterates this on
    /// every message; recomputing or cloning it there would be per-message
    /// allocation).
    all_nodes: Vec<NodeId>,
    factory: Box<dyn OrdererFactory>,
    sink: Rc<RefCell<dyn DeliverySink>>,

    // Manager state.
    current_epoch: EpochNr,
    epoch: EpochConfig,
    /// Instance storage/dispatch, seq-nr → leader, proposed batches and
    /// timer routing (the former four `HashMap`s).
    state: EpochState,
    log: IssLog,
    buckets: BucketQueues,
    validation: RequestValidation,
    policy: LeaderPolicy,
    checkpoints: CheckpointManager,

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

    /// Suspicions reported by the ordering protocol instances (diagnostics).
    pub suspicions: Vec<(EpochNr, NodeId)>,

    /// Proposal rejections already forwarded to the sink (the validation
    /// counter is cumulative; this tracks the delta reported so far).
    reported_proposal_rejections: u64,

    /// Compartmentalized pipeline state (`None` = monolithic node).
    pipeline: Option<PipelineState>,
}

/// Runtime state of the compartmentalized pipeline at the orderer.
struct PipelineState {
    batchers: u32,
    executors: u32,
    /// Batches cut by the batcher stages, waiting for a free slot in this
    /// node's segment.
    ready: VecDeque<Batch>,
    /// Peak ready-queue backlog (the orderer's queue-depth column).
    counters: Option<StageCountersHandle>,
}

/// Catch-up bookkeeping between recovery start and completion.
#[derive(Clone, Copy, Debug, Default)]
struct RecoveryProgress {
    /// Whether `on_recovery_started` was already emitted.
    announced: bool,
    /// Log entries restored from the WAL at boot.
    entries_replayed: u64,
    /// Snapshot chunks received over the fast path.
    snapshot_chunks: u64,
}

/// An incoming chunked snapshot being reassembled.
struct SnapshotAssembly {
    epoch: EpochNr,
    max_seq_nr: SeqNr,
    root: Digest,
    proof: Vec<(NodeId, Bytes)>,
    total_delivered: u64,
    policy: Bytes,
    data: Vec<u8>,
    total_len: u32,
}

impl IssNode {
    /// Creates a node.
    pub fn new(
        my_id: NodeId,
        opts: NodeOptions,
        factory: Box<dyn OrdererFactory>,
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
        let leaders = Self::leaders_for(&opts, &policy, 0);
        let epoch = EpochConfig::build(config, 0, 0, leaders);
        let buckets = BucketQueues::new(config.num_buckets());
        let all_nodes = config.all_nodes();
        let pipeline = opts.pipeline.clone().map(|p| PipelineState {
            batchers: p.batchers.max(1),
            executors: p.executors.max(1),
            ready: VecDeque::new(),
            counters: p.counters,
        });
        IssNode {
            my_id,
            opts,
            all_nodes,
            factory,
            sink,
            current_epoch: 0,
            epoch,
            state: EpochState::new(),
            log: IssLog::new(),
            buckets,
            validation,
            policy,
            checkpoints,
            my_segment_idx: None,
            next_proposal: 0,
            last_proposal_at: Time::ZERO,
            mir_waiting: false,
            storage: None,
            snapshot_meta: HashMap::new(),
            last_snapshot_epoch: None,
            recovery: None,
            incoming_snapshot: None,
            suspicions: Vec::new(),
            reported_proposal_rejections: 0,
            pipeline,
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
        factory: Box<dyn OrdererFactory>,
        registry: Arc<SignatureRegistry>,
        sink: Rc<RefCell<dyn DeliverySink>>,
        storage: Rc<dyn Storage>,
    ) -> Self {
        let mut node = Self::new(my_id, opts, factory, registry, sink);
        node.storage = Some(Rc::clone(&storage));
        node.replay_from_storage(&*storage);
        node
    }

    fn leaders_for(opts: &NodeOptions, policy: &LeaderPolicy, epoch: EpochNr) -> Vec<NodeId> {
        match opts.mode {
            Mode::SingleLeader => vec![NodeId(0)],
            Mode::Iss | Mode::Mir => policy.leaders(epoch),
        }
    }

    /// The epoch primary in Mir mode.
    fn mir_primary(&self, epoch: EpochNr) -> NodeId {
        NodeId((epoch % self.opts.config.num_nodes as u64) as u32)
    }

    /// The node's current epoch number.
    pub fn current_epoch(&self) -> EpochNr {
        self.current_epoch
    }

    /// Read access to the log (testing / state inspection).
    pub fn log(&self) -> &IssLog {
        &self.log
    }

    /// Number of requests waiting in this node's bucket queues.
    pub fn pending_requests(&self) -> usize {
        self.buckets.len()
    }

    /// Whether the node is currently catching up (testing / diagnostics).
    pub fn is_recovering(&self) -> bool {
        self.recovery.is_some()
    }

    /// Restores log, policy and checkpoint state from `storage` (see
    /// [`IssNode::with_storage`]).
    fn replay_from_storage(&mut self, storage: &dyn Storage) {
        let Ok(recovered) = storage.recover() else {
            return;
        };
        let mut replayed = 0u64;
        if let Some(snap) = &recovered.snapshot {
            self.policy
                .restore_records(&snap.policy.penalties, &snap.policy.failures);
            self.log
                .restore_delivery_state(snap.max_seq_nr + 1, snap.total_delivered);
            self.checkpoints.install_stable(StableCheckpoint {
                epoch: snap.epoch,
                max_seq_nr: snap.max_seq_nr,
                root: snap.root,
                proof: snap
                    .proof
                    .iter()
                    .map(|(n, s)| (*n, Bytes::from(s.clone())))
                    .collect(),
            });
            self.snapshot_meta
                .insert(snap.epoch, (snap.total_delivered, snap.policy.clone()));
            self.last_snapshot_epoch = Some(snap.epoch);
            // Re-anchor the epoch sequence at the snapshot boundary; the
            // restored policy yields the same leadersets the live cluster
            // computed for this epoch.
            self.current_epoch = snap.epoch + 1;
            let leaders = Self::leaders_for(&self.opts, &self.policy, self.current_epoch);
            self.epoch = EpochConfig::build(
                &self.opts.config,
                self.current_epoch,
                snap.max_seq_nr + 1,
                leaders,
            );
        }
        // Silent WAL replay: no sink events, no client responses — those
        // happened before the crash.
        for record in &recovered.wal {
            let WalRecord::Committed {
                seq_nr,
                leader,
                batch,
            } = record;
            if !self.log.commit(*seq_nr, batch.clone(), *leader) {
                continue;
            }
            replayed += 1;
            match batch {
                Some(b) => {
                    for req in b.requests() {
                        self.validation.mark_delivered(&req.id);
                    }
                }
                None => self.policy.record_nil_delivery(*leader, *seq_nr),
            }
        }
        let _ = self.log.deliver_ready();
        self.fast_forward_epochs();
        if recovered.snapshot.is_some() || replayed > 0 {
            self.recovery = Some(RecoveryProgress {
                announced: false,
                entries_replayed: replayed,
                snapshot_chunks: 0,
            });
        }
    }

    /// Advances through epochs whose full range is already committed,
    /// without network traffic or sink events (used after WAL replay, where
    /// the cluster already went through these transitions).
    fn fast_forward_epochs(&mut self) {
        loop {
            let first = self.epoch.first_seq_nr;
            let last = self.epoch.max_seq_nr();
            if !self.log.range_complete(first, last) {
                return;
            }
            self.policy.on_epoch_end((first, last));
            self.capture_snapshot_meta();
            self.current_epoch += 1;
            let leaders = Self::leaders_for(&self.opts, &self.policy, self.current_epoch);
            self.epoch = EpochConfig::build(
                &self.opts.config,
                self.current_epoch,
                self.epoch.next_first_seq_nr(),
                leaders,
            );
        }
    }

    /// Captures what a snapshot of the *current* (just-finished) epoch needs
    /// beyond the stable checkpoint. Must run right after
    /// `policy.on_epoch_end`, while `firstUndelivered == max(Sn(e)) + 1` —
    /// at that moment `totalDelivered` is exactly the request count through
    /// the checkpoint.
    fn capture_snapshot_meta(&mut self) {
        let (penalties, failures) = self.policy.export_records();
        self.snapshot_meta.insert(
            self.current_epoch,
            (
                self.log.total_delivered(),
                PolicyState {
                    penalties,
                    failures,
                },
            ),
        );
        // Only the recent epochs can still be served or snapshotted.
        let keep_from = self.current_epoch.saturating_sub(2);
        self.snapshot_meta.retain(|e, _| *e >= keep_from);
    }

    /// Appends a committed entry to the WAL, if this node persists.
    fn persist_commit(&mut self, sn: SeqNr, leader: NodeId, batch: &Option<Batch>) {
        if let Some(storage) = &self.storage {
            let _ = storage.append(&WalRecord::Committed {
                seq_nr: sn,
                leader,
                batch: batch.clone(),
            });
        }
    }

    /// Persists a snapshot at a newly stable checkpoint and prunes the WAL
    /// below it.
    fn maybe_persist_snapshot(&mut self, stable: &StableCheckpoint) {
        let Some(storage) = &self.storage else {
            return;
        };
        if self.last_snapshot_epoch.is_some_and(|e| e >= stable.epoch) {
            return;
        }
        // Snapshot only what this node has actually delivered through.
        if self.log.first_undelivered() <= stable.max_seq_nr {
            return;
        }
        let Some((total_delivered, policy)) = self.snapshot_meta.get(&stable.epoch) else {
            return;
        };
        let snapshot = Snapshot {
            epoch: stable.epoch,
            max_seq_nr: stable.max_seq_nr,
            root: stable.root,
            proof: stable.proof.iter().map(|(n, s)| (*n, s.to_vec())).collect(),
            total_delivered: *total_delivered,
            policy: policy.clone(),
        };
        if storage.save_snapshot(&snapshot).is_ok() {
            let _ = storage.prune_below(stable.max_seq_nr + 1);
            self.last_snapshot_epoch = Some(stable.epoch);
        }
    }

    /// Marks the node as recovering (idempotent) and emits
    /// `on_recovery_started` once.
    fn enter_recovery(&mut self, now: Time) {
        let progress = self.recovery.get_or_insert_with(RecoveryProgress::default);
        if !progress.announced {
            progress.announced = true;
            self.sink.borrow_mut().on_recovery_started(self.my_id, now);
        }
    }

    /// Emits `on_recovery_completed` if a recovery was in progress.
    fn finish_recovery(&mut self, now: Time) {
        if let Some(progress) = self.recovery.take() {
            self.sink.borrow_mut().on_recovery_completed(
                self.my_id,
                progress.entries_replayed,
                progress.snapshot_chunks,
                now,
            );
        }
    }

    /// Broadcasts a snapshot request for everything at or above this node's
    /// delivery head (the reconnect fast path, Section 3.5 state transfer
    /// generalized to checkpoint snapshots).
    fn request_snapshot(&mut self, ctx: &mut Context<'_, NetMsg>) {
        self.enter_recovery(ctx.now());
        let msg = NetMsg::Iss(IssMsg::SnapshotRequest {
            from_seq_nr: self.log.first_undelivered(),
        });
        for node in &self.all_nodes {
            if *node != self.my_id {
                ctx.send(Addr::Node(*node), msg.clone());
            }
        }
    }

    /// A checkpoint just became stable on this node: persist a snapshot, and
    /// detect whether the cluster has moved past us (reconnect fast path).
    fn on_checkpoint_stable(&mut self, stable: StableCheckpoint, ctx: &mut Context<'_, NetMsg>) {
        self.maybe_persist_snapshot(&stable);
        // A quorum finished an epoch we have not even started (e.g. the far
        // side of a healed partition), or — while already catching up — the
        // checkpoint now covers our delivery gap: fetch the snapshot instead
        // of waiting out epoch-change timeouts.
        let covers_our_gap =
            self.recovery.is_some() && stable.max_seq_nr >= self.log.first_undelivered();
        if stable.epoch > self.current_epoch || covers_our_gap {
            self.request_snapshot(ctx);
        }
    }

    /// Serves a snapshot request: the latest stable checkpoint plus every
    /// retained log entry from the requester's head through the checkpoint,
    /// chunked so reassembly is independent of message size limits.
    fn serve_snapshot_request(
        &mut self,
        to: NodeId,
        from_seq_nr: SeqNr,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        let Some(stable) = self.checkpoints.latest_stable() else {
            return;
        };
        if from_seq_nr > stable.max_seq_nr {
            return; // requester is not behind our stable state
        }
        let Some((total_delivered, policy)) = self.snapshot_meta.get(&stable.epoch) else {
            return;
        };
        // The served range must be contiguous: a gap (entries pruned below
        // our own snapshot cut) would stall the requester's delivery.
        let entries: Vec<(SeqNr, Option<Batch>)> = self
            .log
            .range(from_seq_nr, stable.max_seq_nr)
            .map(|(sn, e)| (sn, e.batch.clone()))
            .collect();
        if entries.len() as u64 != stable.max_seq_nr - from_seq_nr + 1 {
            return;
        }
        let data = Bytes::from(encode_log(&entries));
        let policy_bytes = {
            let mut buf = BytesMut::new();
            encode_policy(policy, &mut buf);
            buf.freeze()
        };
        let (epoch, max_seq_nr, root, proof) = (
            stable.epoch,
            stable.max_seq_nr,
            stable.root,
            stable.proof.clone(),
        );
        let total_delivered = *total_delivered;
        let total_len = data.len() as u32;
        let mut offset = 0usize;
        loop {
            let end = (offset + SNAPSHOT_CHUNK_BYTES).min(data.len());
            let done = end == data.len();
            ctx.send(
                Addr::Node(to),
                NetMsg::Iss(IssMsg::SnapshotChunk {
                    epoch,
                    max_seq_nr,
                    root,
                    proof: proof.clone(),
                    total_delivered,
                    policy: policy_bytes.clone(),
                    offset: offset as u32,
                    total_len,
                    data: data.slice(offset..end),
                    done,
                }),
            );
            if done {
                return;
            }
            offset = end;
        }
    }

    /// Reassembles an incoming snapshot chunk; installs the snapshot when
    /// the final chunk arrives.
    #[allow(clippy::too_many_arguments)]
    fn on_snapshot_chunk(
        &mut self,
        from: NodeId,
        epoch: EpochNr,
        max_seq_nr: SeqNr,
        root: Digest,
        proof: Vec<(NodeId, Bytes)>,
        total_delivered: u64,
        policy: Bytes,
        offset: u32,
        total_len: u32,
        data: Bytes,
        done: bool,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        // Already caught up past this snapshot (e.g. a second peer's stream).
        if epoch < self.current_epoch || max_seq_nr < self.log.first_undelivered() {
            return;
        }
        if offset == 0 {
            self.incoming_snapshot = Some(SnapshotAssembly {
                epoch,
                max_seq_nr,
                root,
                proof,
                total_delivered,
                policy,
                data: Vec::with_capacity(total_len as usize),
                total_len,
            });
        }
        let Some(assembly) = self.incoming_snapshot.as_mut() else {
            return;
        };
        if assembly.epoch != epoch || assembly.data.len() != offset as usize {
            return; // out-of-order or interleaved stream; wait for a restart
        }
        assembly.data.extend_from_slice(&data);
        if let Some(progress) = self.recovery.as_mut() {
            progress.snapshot_chunks += 1;
        }
        if !done || assembly.data.len() != assembly.total_len as usize {
            return;
        }
        let assembly = self.incoming_snapshot.take().expect("checked above");
        self.install_snapshot(from, assembly, ctx);
    }

    /// Verifies and installs a fully reassembled snapshot: commits the
    /// transferred entries (with *normal* delivery — they are new to this
    /// node), adopts the policy state at the cut, fast-forwards the epoch to
    /// just past the checkpoint, and asks the serving peer for the log
    /// suffix beyond it.
    fn install_snapshot(
        &mut self,
        from: NodeId,
        assembly: SnapshotAssembly,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        if !self.checkpoints.verify_stable_proof(
            assembly.epoch,
            assembly.max_seq_nr,
            &assembly.root,
            &assembly.proof,
        ) {
            return;
        }
        let Ok(entries) = decode_log(&assembly.data) else {
            return;
        };
        let Ok(policy) = decode_policy(&mut assembly.policy.clone()) else {
            return;
        };
        for (sn, batch) in &entries {
            let leader = self.state.leader_of(*sn).unwrap_or(NodeId(0));
            if self.log.commit(*sn, batch.clone(), leader) {
                self.persist_commit(*sn, leader, batch);
                if let Some(b) = batch {
                    for req in b.requests() {
                        self.buckets.remove(&req.id);
                        self.validation.mark_delivered(&req.id);
                    }
                }
            }
        }
        self.deliver_ready(ctx);
        if self.log.first_undelivered() <= assembly.max_seq_nr {
            return; // served range had a hole we could not close; keep waiting
        }
        // Adopt the cluster's view at the cut: the policy state determines
        // future leadersets, the stable checkpoint unlocks GC and serving.
        self.policy
            .restore_records(&policy.penalties, &policy.failures);
        let stable = StableCheckpoint {
            epoch: assembly.epoch,
            max_seq_nr: assembly.max_seq_nr,
            root: assembly.root,
            proof: assembly.proof,
        };
        self.checkpoints.install_stable(stable.clone());
        self.snapshot_meta
            .insert(assembly.epoch, (assembly.total_delivered, policy));
        self.maybe_persist_snapshot(&stable);
        if assembly.epoch >= self.current_epoch {
            // Jump straight past the checkpoint. Dropping the stale arenas
            // first lets `begin_epoch` open a non-successor epoch.
            self.state
                .gc(assembly.epoch + 1, Some(assembly.max_seq_nr + 1));
            self.current_epoch = assembly.epoch + 1;
            self.sink
                .borrow_mut()
                .on_epoch_advanced(self.my_id, self.current_epoch, ctx.now());
            let leaders = Self::leaders_for(&self.opts, &self.policy, self.current_epoch);
            self.epoch = EpochConfig::build(
                &self.opts.config,
                self.current_epoch,
                assembly.max_seq_nr + 1,
                leaders,
            );
            self.setup_epoch_instances(ctx);
        }
        // Recovery is NOT finished yet: the cluster's frontier is past the
        // checkpoint just installed. The next live commit that gets
        // delivered with nothing stranded completes it (`on_sb_deliver`).
        // Fetch whatever the serving peer ordered beyond the checkpoint.
        ctx.send(
            Addr::Node(from),
            NetMsg::Iss(IssMsg::StateRequest {
                from_seq_nr: self.log.first_undelivered(),
                to_seq_nr: self.epoch.max_seq_nr(),
            }),
        );
    }

    /// The interval between this leader's proposals, derived from the
    /// system-wide batch rate (Section 6.2: a fixed batch rate means O(1/n)
    /// proposals per leader).
    fn proposal_interval(&self) -> Duration {
        match self.opts.config.batch_rate {
            Some(rate) => {
                let leaders = self.epoch.leaders.len().max(1) as f64;
                Duration::from_secs_f64(leaders / rate)
            }
            None => Duration::from_millis(100),
        }
    }

    fn setup_epoch_instances(&mut self, ctx: &mut Context<'_, NetMsg>) {
        // Open the epoch's arena, then record segment leadership for the
        // policy and the bucket restriction for proposal validation. Both
        // tables are dense and offset-indexed: one leader and one segment
        // bucket-bitmap entry per sequence number of the epoch.
        self.state.begin_epoch(
            self.current_epoch,
            self.epoch.first_seq_nr,
            self.epoch.length,
        );
        let mut epoch_buckets =
            EpochBuckets::new(self.epoch.first_seq_nr, self.opts.config.num_buckets());
        for segment in &self.epoch.segments {
            epoch_buckets.add_segment(&segment.seq_nrs, &segment.buckets);
            self.state.record_segment(&segment.seq_nrs, segment.leader);
        }
        self.validation.on_epoch_start(epoch_buckets);

        // Create and initialize one SB instance per segment. Segments are
        // `Arc`-shared with the instances, so this clone of the segment list
        // is a refcount bump per segment, not a deep copy.
        self.my_segment_idx = None;
        for (idx, segment) in self.epoch.segments.clone().into_iter().enumerate() {
            if segment.leader == self.my_id {
                self.my_segment_idx = Some(idx);
            }
            let instance_id = segment.instance;
            let instance = self.factory.create(self.my_id, segment);
            let slot = self.state.insert_instance(instance_id, instance);
            self.drive(slot, ctx, |inst, sb| inst.init(sb));
        }
        self.next_proposal = 0;
        self.state.clear_proposed();
        self.last_proposal_at = ctx.now();

        // Announce the bucket assignment to clients (Section 4.3).
        if self.opts.announce_buckets {
            let leaders = ClientMsg::BucketLeaders {
                epoch: self.current_epoch,
                leaders: self.epoch.bucket_owners(),
            };
            for client in &self.opts.clients {
                ctx.send(Addr::Client(*client), NetMsg::Client(leaders.clone()));
            }
        }

        // Compartmentalized pipeline: batches still queued for proposal were
        // cut against the previous epoch's bucket-leader alignment. Hand
        // their requests back to the owning batchers, then announce the new
        // epoch's led buckets (empty when this node does not lead) so the
        // batchers cut only from buckets this orderer may propose.
        if let Some(p) = self.pipeline.as_mut() {
            let leftover: Vec<Batch> = p.ready.drain(..).collect();
            for batch in &leftover {
                self.resurrect_to_batchers(batch.requests(), ctx);
            }
            let led: Vec<BucketId> = self
                .my_segment_idx
                .map(|idx| self.epoch.segments[idx].buckets.clone())
                .unwrap_or_default();
            let epoch = self.current_epoch;
            let batchers = self.pipeline.as_ref().map_or(0, |p| p.batchers);
            for index in 0..batchers {
                ctx.send(
                    self.batcher_addr(index as usize),
                    NetMsg::Stage(StageMsg::EpochLeading {
                        epoch,
                        buckets: led.clone(),
                    }),
                );
            }
        }
    }

    /// Address of this node's `index`-th batcher stage.
    fn batcher_addr(&self, index: usize) -> Addr {
        Addr::Stage {
            node: self.my_id,
            role: StageRole::Batcher,
            index: index as u32,
        }
    }

    /// Compartment fan-out on commit: tell the owning batchers these requests
    /// are ordered, so queued copies are dropped and re-submissions rejected.
    fn notify_committed(&self, batch: &Batch, ctx: &mut Context<'_, NetMsg>) {
        let Some(p) = &self.pipeline else { return };
        let b = p.batchers;
        let num_buckets = self.opts.config.num_buckets();
        let num_nodes = self.opts.config.num_nodes;
        let mut per_batcher: Vec<Vec<RequestId>> = vec![Vec::new(); b as usize];
        for req in batch.requests() {
            let owner = crate::stages::batcher_for(req.id.bucket(num_buckets), num_nodes, b);
            per_batcher[owner as usize].push(req.id);
        }
        for (index, requests) in per_batcher.into_iter().enumerate() {
            if !requests.is_empty() {
                ctx.send(
                    self.batcher_addr(index),
                    NetMsg::Stage(StageMsg::Committed { requests }),
                );
            }
        }
    }

    /// Compartment fan-out of not-yet-delivered requests back to the owning
    /// batcher stages (⊥-resolved proposals, stale ready batches at epoch
    /// transitions).
    fn resurrect_to_batchers(&self, requests: &[Request], ctx: &mut Context<'_, NetMsg>) {
        let Some(p) = &self.pipeline else { return };
        let b = p.batchers;
        let num_buckets = self.opts.config.num_buckets();
        let num_nodes = self.opts.config.num_nodes;
        let mut per_batcher: Vec<Vec<Request>> = vec![Vec::new(); b as usize];
        for req in requests {
            if !self.validation.is_delivered(&req.id) {
                let owner = crate::stages::batcher_for(req.id.bucket(num_buckets), num_nodes, b);
                per_batcher[owner as usize].push(req.clone());
            }
        }
        for (index, requests) in per_batcher.into_iter().enumerate() {
            if !requests.is_empty() {
                ctx.send(
                    self.batcher_addr(index),
                    NetMsg::Stage(StageMsg::Resurrect { requests }),
                );
            }
        }
    }

    /// Runs a closure against the SB instance at `slot` and applies its
    /// actions. Dispatch is slot-based: the caller resolves an `InstanceId`
    /// to a slot once (at the message boundary), and every touch from here
    /// on — take, restore, timer registration — is an O(1) slab access.
    fn drive<F>(&mut self, slot: InstanceSlot, ctx: &mut Context<'_, NetMsg>, f: F)
    where
        F: FnOnce(&mut dyn SbInstance, &mut SbContext<'_>),
    {
        let Some((instance_id, mut instance)) = self.state.take_instance(slot) else {
            return;
        };
        let actions = {
            let mut sb_ctx = SbContext::new(ctx.now(), &mut self.validation, ctx.rng());
            f(instance.as_mut(), &mut sb_ctx);
            sb_ctx.take_actions()
        };
        self.state.restore_instance(slot, instance);
        let rejected = self.validation.rejected_proposals();
        if rejected > self.reported_proposal_rejections {
            let delta = rejected - self.reported_proposal_rejections;
            self.reported_proposal_rejections = rejected;
            self.sink
                .borrow_mut()
                .on_proposal_rejected(self.my_id, delta, ctx.now());
        }
        self.apply_sb_actions(slot, instance_id, actions, ctx);
    }

    fn apply_sb_actions(
        &mut self,
        slot: InstanceSlot,
        instance_id: InstanceId,
        actions: Vec<SbAction>,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        for action in actions {
            match action {
                SbAction::Send { to, msg } => {
                    ctx.send(
                        Addr::Node(to),
                        NetMsg::Sb {
                            instance: instance_id,
                            msg,
                        },
                    );
                }
                SbAction::Broadcast(msg) => {
                    for node in &self.all_nodes {
                        if *node != self.my_id {
                            ctx.send(
                                Addr::Node(*node),
                                NetMsg::Sb {
                                    instance: instance_id,
                                    msg: msg.clone(),
                                },
                            );
                        }
                    }
                }
                SbAction::Deliver { seq_nr, batch } => {
                    self.on_sb_deliver(seq_nr, batch, ctx);
                }
                SbAction::SetTimer { token, delay } => {
                    let id = ctx.set_timer(delay, KIND_INSTANCE);
                    self.state.register_timer(id, slot, token);
                }
                SbAction::CancelTimer { token } => {
                    let mut ids = Vec::new();
                    self.state.take_matching_timers(slot, token, &mut ids);
                    for id in ids {
                        ctx.cancel_timer(id);
                    }
                }
                SbAction::Suspect(node) => {
                    self.suspicions.push((self.current_epoch, node));
                }
            }
        }
    }

    /// Handles an sb-delivery: inserts the batch into the log, removes its
    /// requests from the bucket queues, resurrects unsuccessfully proposed
    /// requests on ⊥, delivers the contiguous prefix and advances the epoch
    /// when complete (Algorithm 1, lines 40-56).
    fn on_sb_deliver(&mut self, sn: SeqNr, batch: Option<Batch>, ctx: &mut Context<'_, NetMsg>) {
        let leader = self.state.leader_of(sn).unwrap_or(
            self.epoch
                .segment_of(sn)
                .map(|s| s.leader)
                .unwrap_or(NodeId(0)),
        );
        if !self.log.commit(sn, batch.clone(), leader) {
            return; // already committed (e.g. via state transfer)
        }
        self.opts.telemetry.on_quorum(ctx.now(), sn);
        self.persist_commit(sn, leader, &batch);
        match &batch {
            Some(b) => {
                for req in b.requests() {
                    self.buckets.remove(&req.id);
                    self.validation.mark_delivered(&req.id);
                }
                // Compartmentalized pipeline: the queued copies live at the
                // batcher stages, not in `self.buckets` — drop them there.
                if self.pipeline.is_some() {
                    self.notify_committed(b, ctx);
                }
            }
            None => {
                // ⊥ delivered: resurrect our own unsuccessful proposal, if any.
                self.policy.record_nil_delivery(leader, sn);
                if let Some(proposed) = self.state.take_proposed(sn) {
                    if self.pipeline.is_some() {
                        self.resurrect_to_batchers(proposed.requests(), ctx);
                    } else {
                        for req in proposed.requests() {
                            if !self.validation.is_delivered(&req.id) {
                                self.buckets.resurrect(req.clone());
                            }
                        }
                    }
                }
            }
        }
        self.sink.borrow_mut().on_batch_committed(
            self.my_id,
            sn,
            batch.as_ref().map(Batch::len).unwrap_or(0),
            ctx.now(),
        );
        self.deliver_ready(ctx);
        // A recovering node is caught up the moment a *live* commit gets
        // delivered with nothing stranded behind a gap: delivery has reached
        // the cluster's frontier. (Deliveries during snapshot install do not
        // count — the frontier is past the checkpoint being installed.)
        // While the gap persists, chase it: ask the gap head's leader for
        // the delivered prefix we are missing. Each live commit re-triggers
        // the request, so the transfer succeeds as soon as some peer has
        // delivered past our gap; the recovery window bounds the chatter.
        if self.recovery.is_some() {
            if self.log.fully_delivered() {
                self.finish_recovery(ctx.now());
            } else {
                let head = self.log.first_undelivered();
                let target = self
                    .state
                    .leader_of(head)
                    .filter(|l| *l != self.my_id)
                    .unwrap_or(NodeId((self.my_id.0 + 1) % self.all_nodes.len() as u32));
                ctx.send(
                    Addr::Node(target),
                    NetMsg::Iss(IssMsg::StateRequest {
                        from_seq_nr: head,
                        to_seq_nr: sn,
                    }),
                );
            }
        }
        self.maybe_finish_epoch(ctx);
    }

    fn deliver_ready(&mut self, ctx: &mut Context<'_, NetMsg>) {
        let delivered = self.log.deliver_ready();
        if delivered.is_empty() {
            return;
        }
        let now = ctx.now();
        // One deliver span per batch. End-to-end completion is recorded
        // wherever delivery actually happens: here for the monolithic node,
        // at the executor stages for the pipeline (through the shared
        // per-machine telemetry).
        for d in &delivered {
            self.opts.telemetry.on_deliver(now, d.seq_nr);
        }
        // Compartmentalized pipeline: delivery (sink notification and client
        // responses) happens at the executor stages; fan the committed
        // requests out by the deterministic seq-nr hash and return.
        if let Some(p) = &self.pipeline {
            let e = p.executors as usize;
            let mut per_executor: Vec<Vec<(Request, SeqNr)>> = vec![Vec::new(); e];
            for (request_seq_nr, request) in delivered.iter().flat_map(DeliveredBatch::numbered) {
                per_executor[(request_seq_nr % e as u64) as usize]
                    .push((request.clone(), request_seq_nr));
            }
            for (index, deliveries) in per_executor.into_iter().enumerate() {
                if !deliveries.is_empty() {
                    ctx.send(
                        Addr::Stage {
                            node: self.my_id,
                            role: StageRole::Executor,
                            index: index as u32,
                        },
                        NetMsg::Stage(StageMsg::Execute { deliveries }),
                    );
                }
            }
            return;
        }
        let mut sink = self.sink.borrow_mut();
        for (request_seq_nr, request) in delivered.iter().flat_map(DeliveredBatch::numbered) {
            self.opts
                .telemetry
                .on_end_to_end(now, telemetry_request_key(&request.id));
            sink.on_request_delivered(self.my_id, request, request_seq_nr, now);
            if self.opts.respond_to_clients {
                ctx.send(
                    Addr::Client(request.id.client),
                    NetMsg::Client(ClientMsg::Response {
                        request: request.id,
                        seq_nr: request_seq_nr,
                    }),
                );
            }
        }
    }

    fn maybe_finish_epoch(&mut self, ctx: &mut Context<'_, NetMsg>) {
        let first = self.epoch.first_seq_nr;
        let last = self.epoch.max_seq_nr();
        if !self.log.range_complete(first, last) {
            return;
        }
        // Broadcast the epoch checkpoint (Section 3.5).
        let root = CheckpointManager::epoch_root(&self.log, first, last);
        let msg = self
            .checkpoints
            .make_checkpoint(self.current_epoch, last, root);
        for node in &self.all_nodes {
            if *node != self.my_id {
                ctx.send(Addr::Node(*node), NetMsg::Iss(msg.clone()));
            }
        }
        // Update the leader policy with the epoch's outcome, and capture the
        // snapshot metadata for the epoch while `totalDelivered` is exactly
        // the request count through the checkpoint.
        self.policy.on_epoch_end((first, last));
        self.capture_snapshot_meta();
        // Completing an epoch the ordinary way means any pending catch-up is
        // over (the node kept pace without needing a snapshot).
        self.finish_recovery(ctx.now());

        match self.opts.mode {
            Mode::Mir => {
                // Mir-BFT: the epoch primary announces the next epoch; all
                // instances stall until the announcement (or a timeout)
                // arrives. This is the behaviour ISS removes.
                let next = self.current_epoch + 1;
                let primary = self.mir_primary(next);
                if primary == self.my_id {
                    for node in &self.all_nodes {
                        if *node != self.my_id {
                            ctx.send(
                                Addr::Node(*node),
                                NetMsg::Mir(MirMsg::NewEpoch {
                                    epoch: next,
                                    config_digest: root,
                                }),
                            );
                        }
                    }
                    self.start_next_epoch(ctx);
                } else {
                    self.mir_waiting = true;
                    ctx.set_timer(self.opts.config.epoch_change_timeout, KIND_MIR_EPOCH);
                }
            }
            Mode::Iss | Mode::SingleLeader => self.start_next_epoch(ctx),
        }
    }

    fn start_next_epoch(&mut self, ctx: &mut Context<'_, NetMsg>) {
        self.mir_waiting = false;
        let finished = self.current_epoch;
        self.current_epoch += 1;
        self.sink
            .borrow_mut()
            .on_epoch_advanced(self.my_id, self.current_epoch, ctx.now());

        // Garbage-collect instances of epochs strictly older than the one we
        // just finished (the just-finished epoch's instances are kept one more
        // epoch so slow nodes can still be served, Section 2.3), and the
        // delivered log prefix below the latest stable checkpoint older than
        // the kept epoch. For the dense state this is a wholesale arena drop:
        // one generation bump per dead instance, no retain scans.
        let keep_from = finished;
        let cut = self
            .checkpoints
            .stable_for(finished.saturating_sub(1))
            .map(|stable| stable.max_seq_nr + 1);
        if let Some(cut) = cut {
            self.log.garbage_collect(cut);
        }
        self.state.gc(keep_from, cut);

        let leaders = Self::leaders_for(&self.opts, &self.policy, self.current_epoch);
        self.epoch = EpochConfig::build(
            &self.opts.config,
            self.current_epoch,
            self.epoch.next_first_seq_nr(),
            leaders,
        );
        self.setup_epoch_instances(ctx);
    }

    /// Proposal pacing tick (Section 3.2 "Proposing Batches" plus the batch
    /// rate of Section 6.2 and the straggler behaviour of Section 6.4.2).
    fn on_propose_tick(&mut self, ctx: &mut Context<'_, NetMsg>) {
        // Re-arm first so the tick keeps running across epochs.
        let interval = match self.opts.straggler {
            Some(s) => s.proposal_interval.div(4).max(Duration::from_millis(100)),
            None => self.proposal_interval(),
        };
        ctx.set_timer(interval, KIND_PROPOSE);

        let Some(seg_idx) = self.my_segment_idx else {
            return;
        };
        if self.mir_waiting {
            return;
        }
        let segment = &self.epoch.segments[seg_idx];
        if self.next_proposal >= segment.seq_nrs.len() {
            return;
        }
        let sn = segment.seq_nrs[self.next_proposal];
        let instance_id = segment.instance;
        let now = ctx.now();

        // Telemetry: batch keys of the ready batches merged into this
        // proposal (pipeline mode), pairing the batcher's cut timestamps
        // with the proposal below. Only collected while telemetry is on.
        let mut proposal_sources: Vec<u64> = Vec::new();
        let telemetry_on = self.opts.telemetry.is_enabled();

        let batch = if let Some(straggler) = self.opts.straggler {
            // A Byzantine straggler delays as much as possible and proposes
            // only empty batches.
            if now.saturating_since(self.last_proposal_at) < straggler.proposal_interval
                && self.next_proposal > 0
            {
                return;
            }
            Batch::empty()
        } else if let Some(p) = self.pipeline.as_mut() {
            // Compartmentalized pipeline: propose what the batcher stages
            // cut. B batchers each cut ~1/B-sized batches on the same
            // cadence, so merge queued batches up to the size cap — one
            // ready batch per tick would divide throughput by B instead of
            // scaling it. An empty proposal on the max-batch timeout keeps
            // the segment live when the batchers have nothing.
            let max_size = self.opts.config.max_batch_size;
            let max_wait = self.opts.config.max_batch_timeout;
            match p.ready.pop_front() {
                Some(first) => {
                    if telemetry_on {
                        proposal_sources.push(telemetry_batch_key(&first));
                    }
                    let mut requests = first.requests().to_vec();
                    while let Some(next) = p.ready.front() {
                        if requests.len() + next.len() > max_size {
                            break;
                        }
                        let next = p.ready.pop_front().expect("front checked");
                        if telemetry_on {
                            proposal_sources.push(telemetry_batch_key(&next));
                        }
                        requests.extend_from_slice(next.requests());
                    }
                    Batch::new(requests)
                }
                None => {
                    let since_last = now.saturating_since(self.last_proposal_at);
                    if max_wait > Duration::ZERO && since_last >= max_wait {
                        Batch::empty()
                    } else {
                        return;
                    }
                }
            }
        } else {
            // `segment` borrows `self.epoch`; the queues live in
            // `self.buckets` — disjoint fields, so the bucket list is read in
            // place instead of being cloned per tick.
            let available = self.buckets.available_in(&segment.buckets);
            let max_size = self.opts.config.max_batch_size;
            let since_last = now.saturating_since(self.last_proposal_at);
            let min_wait = self.opts.config.min_batch_timeout;
            let max_wait = self.opts.config.max_batch_timeout;
            let full = available >= max_size;
            let have_some = available > 0 && since_last >= min_wait;
            let timed_out = max_wait > Duration::ZERO && since_last >= max_wait;
            if full || have_some || timed_out {
                self.buckets.cut_batch(&segment.buckets, max_size)
            } else {
                return;
            }
        };

        if telemetry_on {
            if self.pipeline.is_none() && !batch.is_empty() {
                // Monolithic node: the batch is cut and proposed in the same
                // tick, so record both edges here (cut→propose ≈ 0; the
                // pipeline's batcher stages record their cuts themselves).
                let bkey = telemetry_batch_key(&batch);
                self.opts.telemetry.on_cut(
                    now,
                    bkey,
                    batch
                        .requests()
                        .iter()
                        .map(|r| telemetry_request_key(&r.id)),
                );
                proposal_sources.push(bkey);
            }
            self.opts.telemetry.on_propose(
                now,
                sn,
                batch.len() as u64,
                proposal_sources.into_iter(),
            );
        }

        self.last_proposal_at = now;
        self.next_proposal += 1;
        self.state.record_proposed(sn, batch.clone());
        let Some(slot) = self.state.slot_of(instance_id) else {
            return;
        };
        self.drive(slot, ctx, |inst, sb| inst.propose(sn, batch, sb));
    }

    fn on_net_message(&mut self, from: Addr, msg: NetMsg, ctx: &mut Context<'_, NetMsg>) {
        match msg {
            NetMsg::Client(ClientMsg::Request(req)) => match self.validation.validate_request(&req)
            {
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
            },
            NetMsg::Client(_) => {}
            NetMsg::Sb { instance, msg } => {
                let Some(node) = from.as_node() else { return };
                if let Some(slot) = self.state.slot_of(instance) {
                    self.drive(slot, ctx, |inst, sb| inst.on_message(node, msg, sb));
                } else if instance.epoch > self.current_epoch {
                    // We have fallen behind: take the snapshot fast path —
                    // the sender serves its latest stable checkpoint plus
                    // the retained log suffix, which catches us up without
                    // waiting out epoch-change timeouts (Section 3.5
                    // generalized to checkpoint snapshots).
                    self.enter_recovery(ctx.now());
                    ctx.send(
                        Addr::Node(node),
                        NetMsg::Iss(IssMsg::SnapshotRequest {
                            from_seq_nr: self.log.first_undelivered(),
                        }),
                    );
                }
            }
            NetMsg::Iss(IssMsg::Checkpoint {
                epoch,
                max_seq_nr,
                root,
                signature,
            }) => {
                if let Some(node) = from.as_node() {
                    if let Some(stable) = self
                        .checkpoints
                        .on_checkpoint(node, epoch, max_seq_nr, root, signature)
                    {
                        self.on_checkpoint_stable(stable, ctx);
                    }
                }
            }
            NetMsg::Iss(IssMsg::StateRequest {
                from_seq_nr,
                to_seq_nr,
            }) => {
                let Some(node) = from.as_node() else { return };
                // Serve the delivered contiguous prefix: everything this
                // node has itself delivered is backed by an SB quorum (a
                // production implementation would attach the per-entry
                // commit certificates; the simulator does not model forged
                // state transfer). Serving past the last stable checkpoint
                // is what lets a rebooted replica close a mid-epoch gap
                // without waiting out view-change timeouts.
                let delivered_head = self.log.first_undelivered();
                if delivered_head == 0 {
                    return;
                }
                let last = to_seq_nr.min(delivered_head - 1);
                if from_seq_nr > last {
                    return;
                }
                // Batch clones here are refcount bumps: state transfer no
                // longer copies payload bytes out of the log.
                let entries: Vec<iss_messages::isscp::LogEntry> = self
                    .log
                    .range(from_seq_nr, last)
                    .map(|(sn, e)| iss_messages::isscp::LogEntry {
                        seq_nr: sn,
                        batch: e.batch.clone(),
                    })
                    .collect();
                // The checkpoint anchor is advisory for the receiver (it
                // trusts the quorum behind the entries, see above); absent a
                // stable checkpoint the anchor fields are zeroed.
                let (epoch, root, proof) = match self.checkpoints.latest_stable() {
                    Some(stable) => (
                        stable.epoch,
                        stable.root,
                        stable.proof.iter().map(|(_, s)| s.clone()).collect(),
                    ),
                    None => (0, [0u8; 32], Vec::new()),
                };
                ctx.send(
                    Addr::Node(node),
                    NetMsg::Iss(IssMsg::StateResponse {
                        epoch,
                        entries,
                        root,
                        proof,
                    }),
                );
            }
            NetMsg::Iss(IssMsg::StateResponse { entries, .. }) => {
                // Fill the log with the transferred entries. Integrity is
                // protected by the stable checkpoint; the proof was verified
                // against known signers when the checkpoint was formed.
                for entry in entries {
                    let leader = self.state.leader_of(entry.seq_nr).unwrap_or(NodeId(0));
                    if self.log.commit(entry.seq_nr, entry.batch.clone(), leader) {
                        self.persist_commit(entry.seq_nr, leader, &entry.batch);
                        if let Some(b) = &entry.batch {
                            for req in b.requests() {
                                self.buckets.remove(&req.id);
                                self.validation.mark_delivered(&req.id);
                            }
                        }
                    }
                }
                self.deliver_ready(ctx);
                self.maybe_finish_epoch(ctx);
            }
            NetMsg::Iss(IssMsg::SnapshotRequest { from_seq_nr }) => {
                if let Some(node) = from.as_node() {
                    self.serve_snapshot_request(node, from_seq_nr, ctx);
                }
            }
            NetMsg::Iss(IssMsg::SnapshotChunk {
                epoch,
                max_seq_nr,
                root,
                proof,
                total_delivered,
                policy,
                offset,
                total_len,
                data,
                done,
            }) => {
                if let Some(node) = from.as_node() {
                    self.on_snapshot_chunk(
                        node,
                        epoch,
                        max_seq_nr,
                        root,
                        proof,
                        total_delivered,
                        policy,
                        offset,
                        total_len,
                        data,
                        done,
                        ctx,
                    );
                }
            }
            NetMsg::Mir(MirMsg::NewEpoch { epoch, .. }) => {
                if self.opts.mode == Mode::Mir
                    && self.mir_waiting
                    && epoch == self.current_epoch + 1
                {
                    self.start_next_epoch(ctx);
                }
            }
            NetMsg::Stage(StageMsg::BatchReady { batch }) => {
                // A batcher stage cut a batch; queue it for the next free
                // proposal slot (the pacing tick enforces the batch rate).
                if let Some(p) = self.pipeline.as_mut() {
                    p.ready.push_back(batch);
                    if let Some(c) = &p.counters {
                        let mut c = c.borrow_mut();
                        c.handoffs += 1;
                        c.max_queue_depth = c.max_queue_depth.max(p.ready.len());
                    }
                    self.opts
                        .telemetry
                        .gauge_set("orderer.ready_queue", p.ready.len() as u64);
                }
            }
            NetMsg::Stage(_) => {}
            NetMsg::Baseline(_) => {}
        }
    }
}

impl Process<NetMsg> for IssNode {
    fn on_start(&mut self, ctx: &mut Context<'_, NetMsg>) {
        self.setup_epoch_instances(ctx);
        ctx.set_timer(self.proposal_interval(), KIND_PROPOSE);
        if self.recovery.is_some() {
            // Rebooted from durable state: immediately ask the cluster for
            // everything we missed while down (reconnect fast path).
            self.request_snapshot(ctx);
        }
    }

    fn on_message(&mut self, from: Addr, msg: NetMsg, ctx: &mut Context<'_, NetMsg>) {
        self.on_net_message(from, msg, ctx);
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

/// Extracts an `SbMsg` protocol name for diagnostics (helper used by tests
/// and tracing).
pub fn sb_msg_kind(msg: &SbMsg) -> &'static str {
    match msg {
        SbMsg::Pbft(_) => "pbft",
        SbMsg::HotStuff(_) => "hotstuff",
        SbMsg::Raft(_) => "raft",
        SbMsg::Reference(_) => "reference",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orderer::FnOrdererFactory;
    use iss_sb::reference::ReferenceSb;

    fn make_node(mode: Mode, n: usize) -> IssNode {
        let mut config = IssConfig::pbft(n);
        config.min_epoch_length = 8;
        config.client_signatures = false;
        let mut opts = NodeOptions::new(config);
        opts.mode = mode;
        let factory = FnOrdererFactory::new("reference", |id, seg| {
            Box::new(ReferenceSb::new(id, seg)) as Box<dyn SbInstance>
        });
        IssNode::new(
            NodeId(0),
            opts,
            Box::new(factory),
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
    fn proposal_interval_follows_batch_rate() {
        let node = make_node(Mode::Iss, 4);
        // 4 leaders at 32 batches/s system-wide → one proposal every 125 ms.
        assert_eq!(node.proposal_interval(), Duration::from_millis(125));
        let single = make_node(Mode::SingleLeader, 4);
        assert_eq!(single.proposal_interval(), Duration::from_micros(31_250));
    }

    #[test]
    fn sb_msg_kind_names() {
        assert_eq!(
            sb_msg_kind(&SbMsg::Reference(iss_messages::RefSbMsg::Heartbeat)),
            "reference"
        );
    }
}
