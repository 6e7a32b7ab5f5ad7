//! The adversary-injection subsystem: actively malicious behaviors for
//! replicas and clients, scheduled per node and per client in an
//! [`AdversaryPlan`] by the [`crate::ScenarioBuilder`] attack methods.
//!
//! ISS's headline claim (Stathakopoulou et al., EuroSys 2022; extended
//! version arXiv 2203.05681) is safety *and* liveness under Byzantine
//! replicas and clients. The benign [`crate::FaultPlan`] (crashes,
//! stragglers, partitions, loss) cannot exercise that claim, so this module
//! adds the malicious half of the fault model:
//!
//! * **Equivocating SB leader** — proposes *conflicting* batches for the
//!   same sequence number to different followers. Defended by the quorum
//!   intersection of the SB protocols (PBFT prepare certificates, BRB
//!   echo/ready consistency): no conflicting batch can gather 2f+1 votes,
//!   the instance stalls, and the epoch-change timeout resolves it to ⊥.
//! * **Censoring leader** — silently drops every incoming client request
//!   mapping to one bucket. Defended by bucket rotation (Section 4.3):
//!   the bucket is reassigned to a different leader every epoch, and the
//!   client re-submits outstanding requests when it learns the new
//!   assignment, bounding censorship latency to a constant number of epochs.
//! * **Duplicate / replaying client** — re-sends fresh and long-delivered
//!   requests. Defended by idempotent bucket queues and the client watermark
//!   / delivered-set checks of `RequestValidation` (Section 3.7), which
//!   classify cross-epoch re-submissions as [`iss_types::Error::Replayed`].
//! * **Malformed / oversized proposer** — emits batches with in-batch
//!   duplicates or more requests than `max_batch_size`. Defended by
//!   proposal validation on every follower (Section 4.2, design
//!   principle 3): the proposal is rejected before any per-request work and
//!   the instance resolves to ⊥ like a crashed leader's.
//! * **Byzantine client with conflicting requests** — submits two payloads
//!   under one request id to different replicas. Defended by the
//!   bucket-to-segment partitioning (one bucket is proposable by exactly one
//!   segment per epoch) plus the per-epoch proposed/delivered sets, so at
//!   most one variant is ever delivered.
//!
//! Mechanically, a [`Behavior`] wraps a node's (or client's) callbacks via
//! [`AdversarialProcess`]: inbound messages can be dropped, and every
//! outbound send buffered by the inner process is rewritten through the
//! behavior using [`iss_runtime::Context::rewrite_sends_since`] — dropped,
//! mutated, or multiplied per destination. The rewrite operates on the
//! engine-agnostic [`iss_runtime::Action`] list, *behind* the runtime
//! boundary: an adversarial wrapper therefore works unchanged under any
//! driver — the simulator here, or the threaded TCP runtime. Behaviors draw no
//! randomness: every decision is a function of (destination, epoch, local
//! counters), so runs stay bit-deterministic under a fixed seed.
//!
//! The liveness side of the claim is checked by [`evaluate_gates`], which
//! turns the run's delivery record into an [`AdversaryReport`]:
//! censorship-bounded latency (every censored-bucket request delivered
//! within ≤ 2 epochs of its bucket rotating to a correct leader), epoch
//! progress under leader misbehavior, and the per-node rejected-request
//! counters. The agreement and no-duplicate-delivery invariants stay
//! always-on in [`crate::metrics::MetricsSink`] and panic on violation.

use crate::metrics::Metrics;
use crate::scenario::Scenario;
use iss_core::BucketAssignment;
use iss_crypto::batch_digest;
use iss_messages::{ClientMsg, NetMsg, PbftMsg, RefSbMsg, SbMsg};
use iss_runtime::{Addr, Context, Process};
use iss_types::{Batch, BucketId, ClientId, EpochNr, NodeId, Request, RequestId, Time, TimerId};
use std::collections::{BTreeMap, VecDeque};

/// How a malformed proposer corrupts its batches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MalformedKind {
    /// The batch carries the same request twice (rejected by in-batch
    /// duplicate detection).
    DuplicateInBatch,
    /// The batch carries more requests than `max_batch_size` (rejected by
    /// the size cap before any per-request work).
    Oversized,
}

/// The attacks one replica runs. One node may combine several, so the
/// combined-attack acceptance scenario stays within f = 1.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct NodeAttacks {
    /// Epochs `[from, until)` in which every proposal goes out as
    /// conflicting batches to different followers.
    pub(crate) equivocate: Option<(EpochNr, EpochNr)>,
    /// The bucket whose incoming client requests are dropped all run.
    pub(crate) censor: Option<BucketId>,
    /// The corruption applied to every proposal of epochs `[from, until)`.
    pub(crate) malformed: Option<(MalformedKind, EpochNr, EpochNr)>,
}

/// The attacks one client runs.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct ClientAttacks {
    /// Every request also goes, with a different payload under the same id,
    /// to a second replica.
    pub(crate) conflict: bool,
    /// Every 4th request is re-sent at once and every 8th submission
    /// replays an old (typically long-delivered) request.
    pub(crate) duplicate_replay: bool,
}

/// The adversarial dimension of a scenario, filled by the
/// [`crate::ScenarioBuilder`] attack methods: the attacks each adversarial
/// node and client runs. An empty plan wires up nothing at all — attack-free
/// deployments are byte-identical to pre-adversary builds.
#[derive(Clone, Debug, Default)]
pub struct AdversaryPlan {
    /// Per adversarial replica, its attacks. These nodes are excluded from
    /// observer selection and do not count as "correct" owners for the
    /// censorship liveness gate.
    pub(crate) nodes: BTreeMap<NodeId, NodeAttacks>,
    /// Per adversarial client, its attacks.
    pub(crate) clients: BTreeMap<ClientId, ClientAttacks>,
}

impl AdversaryPlan {
    /// Whether the plan schedules no adversarial behavior at all.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty() && self.clients.is_empty()
    }
}

/// An adversarial wrapper around a process's I/O. Implementations must be
/// deterministic: no randomness, no wall clock — decisions are functions of
/// the message, the destination and local counters only.
pub trait Behavior {
    /// Inbound filter: return `false` to silently drop the message before
    /// the wrapped process sees it. Default: deliver everything.
    fn on_inbound(&mut self, _now: Time, _from: Addr, _msg: &NetMsg) -> bool {
        true
    }

    /// Outbound rewrite: called once per send the wrapped process buffered,
    /// a broadcast once per destination.
    /// Whatever is passed to `emit` replaces the original send — emit zero
    /// times to drop it, several times to multiply or equivocate.
    fn on_outbound(&mut self, now: Time, to: Addr, msg: NetMsg, emit: &mut dyn FnMut(Addr, NetMsg));
}

/// A [`Process`] wrapper applying a [`Behavior`] to an inner process's
/// traffic. The inner process is unmodified and unaware — the same replica
/// and client implementations run in honest and adversarial deployments.
pub struct AdversarialProcess {
    inner: Box<dyn Process<NetMsg>>,
    behavior: Box<dyn Behavior>,
}

impl AdversarialProcess {
    /// Wraps `inner` with `behavior`.
    pub fn new(inner: Box<dyn Process<NetMsg>>, behavior: Box<dyn Behavior>) -> Self {
        AdversarialProcess { inner, behavior }
    }

    fn rewrite(&mut self, mark: usize, ctx: &mut Context<'_, NetMsg>) {
        let behavior = &mut self.behavior;
        let now = ctx.now();
        ctx.rewrite_sends_since(mark, |to, msg, emit| {
            behavior.on_outbound(now, to, msg, emit)
        });
    }
}

impl Process<NetMsg> for AdversarialProcess {
    fn on_start(&mut self, ctx: &mut Context<'_, NetMsg>) {
        let mark = ctx.mark();
        self.inner.on_start(ctx);
        self.rewrite(mark, ctx);
    }

    fn on_message(&mut self, from: Addr, msg: NetMsg, ctx: &mut Context<'_, NetMsg>) {
        if !self.behavior.on_inbound(ctx.now(), from, &msg) {
            return;
        }
        let mark = ctx.mark();
        self.inner.on_message(from, msg, ctx);
        self.rewrite(mark, ctx);
    }

    fn on_timer(&mut self, id: TimerId, kind: u64, ctx: &mut Context<'_, NetMsg>) {
        let mark = ctx.mark();
        self.inner.on_timer(id, kind, ctx);
        self.rewrite(mark, ctx);
    }
}

/// The node-side adversary: a replica's [`NodeAttacks`] wrapped around its
/// I/O.
pub(crate) struct NodeAdversary {
    node: NodeId,
    attacks: NodeAttacks,
    num_nodes: usize,
    num_buckets: usize,
    max_batch_size: usize,
}

/// A batch with the last request removed — a *conflicting* proposal for the
/// same sequence number (different digest, same origin).
fn conflicting_variant(batch: &Batch) -> Batch {
    let requests = batch.requests();
    Batch::new(requests[..requests.len() - 1].to_vec())
}

/// A batch corrupted per `kind`; `None` when the original is empty (nothing
/// to duplicate or pad with).
fn malformed_variant(batch: &Batch, kind: MalformedKind, max_batch_size: usize) -> Option<Batch> {
    let requests = batch.requests();
    if requests.is_empty() {
        return None;
    }
    let corrupted = match kind {
        MalformedKind::DuplicateInBatch => {
            let mut reqs = requests.to_vec();
            reqs.push(requests[0].clone());
            reqs
        }
        MalformedKind::Oversized => {
            let mut reqs = Vec::with_capacity(max_batch_size + 1);
            while reqs.len() <= max_batch_size {
                reqs.extend_from_slice(requests);
            }
            reqs.truncate(max_batch_size + 1);
            reqs
        }
    };
    Some(Batch::new(corrupted))
}

/// `sb` with the batch it proposes (a PBFT pre-prepare's or a BRB send's)
/// replaced by `corrupt(batch)`, the pre-prepare digest recomputed to match;
/// `None` when `sb` proposes no batch or `corrupt` declines.
fn corrupt_proposal(sb: &SbMsg, corrupt: impl FnOnce(&Batch) -> Option<Batch>) -> Option<SbMsg> {
    Some(match sb {
        SbMsg::Pbft(PbftMsg::PrePrepare {
            view,
            seq_nr,
            batch: Some(batch),
            ..
        }) => {
            let batch = corrupt(batch)?;
            SbMsg::Pbft(PbftMsg::PrePrepare {
                view: *view,
                seq_nr: *seq_nr,
                digest: batch_digest(&batch),
                batch: Some(batch),
            })
        }
        SbMsg::Reference(RefSbMsg::BrbSend { seq_nr, batch }) => {
            SbMsg::Reference(RefSbMsg::BrbSend {
                seq_nr: *seq_nr,
                batch: corrupt(batch)?,
            })
        }
        _ => return None,
    })
}

impl NodeAdversary {
    /// `node` running `attacks` in a cluster of `num_nodes` replicas with
    /// `num_buckets` buckets and batches of at most `max_batch_size`.
    pub(crate) fn new(
        node: NodeId,
        attacks: NodeAttacks,
        num_nodes: usize,
        num_buckets: usize,
        max_batch_size: usize,
    ) -> Self {
        NodeAdversary {
            node,
            attacks,
            num_nodes,
            num_buckets,
            max_batch_size,
        }
    }

    /// Whether this send is a proposal the equivocator splits: the immediate
    /// successor of the adversary keeps the original, everyone else gets the
    /// conflicting variant. At n = 4 this yields a 2-vs-2 split *including
    /// the leader itself*, so neither side can reach a 2f+1 certificate and
    /// the instance must resolve via the timeout/⊥ path.
    fn gets_original(&self, to: NodeId) -> bool {
        (to.0 as usize + self.num_nodes - self.node.0 as usize) % self.num_nodes == 1
    }
}

impl Behavior for NodeAdversary {
    fn on_inbound(&mut self, _now: Time, _from: Addr, msg: &NetMsg) -> bool {
        let Some(censored) = self.attacks.censor else {
            return true;
        };
        match msg {
            NetMsg::Client(ClientMsg::Request(req)) => req.id.bucket(self.num_buckets) != censored,
            _ => true,
        }
    }

    fn on_outbound(
        &mut self,
        _now: Time,
        to: Addr,
        msg: NetMsg,
        emit: &mut dyn FnMut(Addr, NetMsg),
    ) {
        let NetMsg::Sb { instance, msg: sb } = &msg else {
            emit(to, msg);
            return;
        };
        let in_window = |(from, until): (EpochNr, EpochNr)| (from..until).contains(&instance.epoch);
        // Equivocation: per-destination conflicting proposals.
        let equivocate = self.attacks.equivocate.is_some_and(in_window)
            && to.as_node().is_some_and(|n| !self.gets_original(n));
        let corrupted = if equivocate {
            corrupt_proposal(sb, |b| (!b.is_empty()).then(|| conflicting_variant(b)))
        } else {
            None
        };
        // Malformed proposals: the same corrupted batch to every follower.
        let corrupted = corrupted.or_else(|| {
            let (kind, ..) = self
                .attacks
                .malformed
                .filter(|&(_, from, until)| in_window((from, until)))?;
            corrupt_proposal(sb, |b| malformed_variant(b, kind, self.max_batch_size))
        });
        match corrupted {
            Some(sb) => emit(
                to,
                NetMsg::Sb {
                    instance: *instance,
                    msg: sb,
                },
            ),
            None => emit(to, msg),
        }
    }
}

/// Number of requests the duplicating client keeps for replays.
const REPLAY_HISTORY: usize = 64;

/// The client-side adversary: a client's [`ClientAttacks`] wrapped around
/// its I/O.
pub(crate) struct ClientAdversary {
    attacks: ClientAttacks,
    num_nodes: usize,
    /// Recent requests with their original targets, for replays.
    history: VecDeque<(Addr, Request)>,
    /// Requests observed from the wrapped client (drives the deterministic
    /// every-Nth duplication/replay schedule).
    sent: u64,
}

impl ClientAdversary {
    /// A client running `attacks` against `num_nodes` replicas.
    pub(crate) fn new(attacks: ClientAttacks, num_nodes: usize) -> Self {
        ClientAdversary {
            attacks,
            num_nodes,
            history: VecDeque::new(),
            sent: 0,
        }
    }
}

impl Behavior for ClientAdversary {
    fn on_outbound(
        &mut self,
        _now: Time,
        to: Addr,
        msg: NetMsg,
        emit: &mut dyn FnMut(Addr, NetMsg),
    ) {
        let NetMsg::Client(ClientMsg::Request(req)) = &msg else {
            emit(to, msg);
            return;
        };
        let req = req.clone();
        emit(to, msg);
        if self.attacks.conflict {
            // Same request id, different payload — a conflicting "signing"
            // of the request — to a second replica. Both copies map to the
            // same bucket (the bucket is a function of the id alone), so the
            // bucket-to-segment partitioning guarantees at most one variant
            // is delivered.
            let twin = Request::synthetic(req.id.client, req.id.timestamp, req.payload_size + 1);
            let other = match to {
                Addr::Node(n) => Addr::Node(NodeId((n.0 + 1) % self.num_nodes as u32)),
                other => other,
            };
            emit(other, NetMsg::Client(ClientMsg::Request(twin)));
        }
        if self.attacks.duplicate_replay {
            self.sent += 1;
            if self.sent.is_multiple_of(4) {
                // Immediate duplicate of the fresh request.
                emit(to, NetMsg::Client(ClientMsg::Request(req.clone())));
            }
            if self.sent.is_multiple_of(8) {
                // Replay the oldest request still in the history window —
                // by now typically delivered, so replicas classify it as
                // `Error::Replayed` and bump their rejection counters.
                if let Some((old_to, old_req)) = self.history.front() {
                    emit(*old_to, NetMsg::Client(ClientMsg::Request(old_req.clone())));
                }
            }
            self.history.push_back((to, req));
            if self.history.len() > REPLAY_HISTORY {
                self.history.pop_front();
            }
        }
    }
}

/// How many epochs after its bucket rotates to a correct leader a censored
/// request may take to be delivered (the acceptance bound of the
/// censorship-liveness gate).
pub const CENSORSHIP_EPOCH_BOUND: u64 = 2;

/// The adversarial-run verdict computed by [`evaluate_gates`] and attached
/// to [`crate::Report`] when the scenario has a non-empty plan.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AdversaryReport {
    /// Total client requests rejected at intake validation, summed over
    /// nodes.
    pub rejected_total: u64,
    /// Rejections classified as replays ([`iss_types::Error::Replayed`]).
    pub replayed_total: u64,
    /// Proposals the correct followers refused to vote for (malformed,
    /// oversized, or duplicate-carrying batches), summed over nodes.
    pub rejected_proposals_total: u64,
    /// Censored-bucket requests whose delivery deadline materialized inside
    /// the run (the gate's sample size).
    pub censored_checked: u64,
    /// Of those, requests delivered within [`CENSORSHIP_EPOCH_BOUND`] epochs
    /// of their bucket rotating to a correct leader.
    pub censored_within_bound: u64,
    /// Of those, requests that missed the bound (must be 0 for the gate to
    /// pass).
    pub censored_missed: u64,
    /// Epoch transitions observed at the observer node (epoch-change
    /// progress under leader misbehavior).
    pub epoch_advances: u64,
}

impl AdversaryReport {
    /// Whether the censorship-bounded-latency gate passed (trivially true
    /// when the plan censors nothing).
    pub fn censorship_gate_ok(&self) -> bool {
        self.censored_missed == 0
    }
}

/// Computes the liveness-gate verdict for an adversarial run.
///
/// The censorship gate assumes the Simple leader policy (every node leads
/// every epoch), which makes bucket ownership statically computable:
/// `owner(b, e) = nodes[(b + e) mod n]` (see
/// [`iss_core::BucketAssignment::compute`]). For every request of a censored
/// bucket the gate finds the first epoch `e_rot` — starting at or after the
/// request's submission — whose owner is a correct (non-adversarial) node,
/// and requires delivery at the observer before epoch `e_rot + 2` begins.
/// Requests whose deadline epoch never started inside the run (the tail) are
/// skipped, not failed.
pub fn evaluate_gates(scenario: &Scenario, metrics: &Metrics) -> AdversaryReport {
    let plan = &scenario.adversary;
    let mut report = AdversaryReport {
        rejected_total: metrics.rejected_per_node.values().sum(),
        replayed_total: metrics.replayed_per_node.values().sum(),
        rejected_proposals_total: metrics.rejected_proposals_per_node.values().sum(),
        epoch_advances: metrics.epochs.len() as u64,
        ..Default::default()
    };
    let censored: Vec<BucketId> = plan.nodes.values().filter_map(|a| a.censor).collect();
    if censored.is_empty() {
        return report;
    }

    let config = scenario.iss_config();
    let num_buckets = config.num_buckets();
    let all_nodes = config.all_nodes();

    // Observer epoch start times: epoch 0 starts at t=0, later epochs when
    // the observer announced the transition.
    let mut epoch_starts: Vec<(EpochNr, Time)> = vec![(0, Time::ZERO)];
    epoch_starts.extend(metrics.epochs.iter().copied());
    epoch_starts.sort_by_key(|(e, _)| *e);
    epoch_starts.dedup_by_key(|(e, _)| *e);
    let start_of = |epoch: EpochNr| -> Option<Time> {
        epoch_starts
            .binary_search_by_key(&epoch, |(e, _)| *e)
            .ok()
            .map(|i| epoch_starts[i].1)
    };
    let max_epoch = epoch_starts.last().map(|(e, _)| *e).unwrap_or(0);

    // Per-epoch bucket owners under the Simple policy (all nodes lead every
    // epoch), matching what the replicas themselves compute.
    let owner_of = |bucket: BucketId, epoch: EpochNr| -> NodeId {
        let assignment = BucketAssignment::compute(epoch, num_buckets, &all_nodes, &all_nodes);
        assignment
            .bucket_owners(&all_nodes)
            .into_iter()
            .find(|(b, _)| *b == bucket)
            .map(|(_, n)| n)
            .unwrap_or(all_nodes[(bucket.index() + epoch as usize) % all_nodes.len()])
    };

    let stop_at = Time::ZERO + scenario.window.duration;
    for bucket in censored {
        // Cache the rotation schedule of this bucket across observed epochs.
        let owners: Vec<NodeId> = (0..=max_epoch).map(|e| owner_of(bucket, e)).collect();
        for c in 0..scenario.num_clients() as u32 {
            let client = ClientId(c);
            let submitted = scenario.workload.due_by(client, stop_at);
            for t in 0..submitted {
                let id = RequestId::new(client, t);
                if id.bucket(num_buckets) != bucket {
                    continue;
                }
                let submit = scenario.workload.submit_time(client, t);
                // First epoch at/after submission owned by a correct node.
                let e_rot = (0..=max_epoch).find(|&e| {
                    start_of(e).is_some_and(|s| s >= submit)
                        && !plan.nodes.contains_key(&owners[e as usize])
                });
                let Some(e_rot) = e_rot else { continue };
                let Some(deadline) = start_of(e_rot + CENSORSHIP_EPOCH_BOUND) else {
                    continue; // deadline epoch never started: tail, skip
                };
                report.censored_checked += 1;
                match metrics.delivered_at.get(&id) {
                    Some(&at) if at <= deadline => report.censored_within_bound += 1,
                    _ => report.censored_missed += 1,
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builders_and_accessors() {
        let builder = || Scenario::builder(crate::Protocol::Pbft, 4);
        let plan = builder()
            .equivocating_leader(NodeId(0), 1, 2)
            .censoring_leader(NodeId(0), BucketId(3))
            .malformed_proposals(NodeId(2), MalformedKind::Oversized, 1, 3)
            .byzantine_client(ClientId(5))
            .duplicating_client(ClientId(6))
            .build()
            .adversary;
        assert!(!plan.is_empty());
        assert!(builder().build().adversary.is_empty());
        let nodes: Vec<NodeId> = plan.nodes.keys().copied().collect();
        assert_eq!(nodes, vec![NodeId(0), NodeId(2)]);
        let censors: Vec<(NodeId, BucketId)> = plan
            .nodes
            .iter()
            .filter_map(|(n, a)| a.censor.map(|b| (*n, b)))
            .collect();
        assert_eq!(censors, vec![(NodeId(0), BucketId(3))]);
        // Node 0 combines two roles in one entry; node 1 has none.
        let b = plan.nodes[&NodeId(0)];
        assert_eq!(b.equivocate, Some((1, 2)));
        assert_eq!(b.censor, Some(BucketId(3)));
        assert!(b.malformed.is_none());
        assert!(!plan.nodes.contains_key(&NodeId(1)));
        assert!(plan.clients[&ClientId(5)].conflict);
        assert!(plan.clients[&ClientId(6)].duplicate_replay);
        assert!(!plan.clients.contains_key(&ClientId(7)));
    }

    /// The behavior a 4-node deployment wraps around `node` for `attacks`.
    fn node_adversary(node: u32, attacks: NodeAttacks) -> NodeAdversary {
        NodeAdversary::new(NodeId(node), attacks, 4, 16, 64)
    }

    #[test]
    fn equivocator_splits_two_versus_two() {
        // At n=4, whoever the adversary is, exactly one follower keeps the
        // original; with the leader itself that is a 2-2 split.
        for leader in 0..4u32 {
            let attacks = NodeAttacks {
                equivocate: Some((0, 1)),
                ..NodeAttacks::default()
            };
            let adv = node_adversary(leader, attacks);
            let originals: Vec<u32> = (0..4)
                .filter(|&n| n != leader && adv.gets_original(NodeId(n)))
                .collect();
            assert_eq!(originals, vec![(leader + 1) % 4]);
        }
    }

    #[test]
    fn censor_drops_only_the_censored_bucket() {
        let attacks = NodeAttacks {
            censor: Some(BucketId(0)),
            ..NodeAttacks::default()
        };
        let mut adv = node_adversary(0, attacks);
        let from = Addr::Client(ClientId(0));
        // Find one request per bucket-class deterministically.
        let mut kept = 0;
        let mut dropped = 0;
        for t in 0..64u64 {
            let req = Request::synthetic(ClientId(0), t, 100);
            let censored = req.id.bucket(16) == BucketId(0);
            let msg = NetMsg::Client(ClientMsg::Request(req));
            let delivered = adv.on_inbound(Time::ZERO, from, &msg);
            assert_eq!(delivered, !censored);
            if delivered {
                kept += 1;
            } else {
                dropped += 1;
            }
        }
        assert!(kept > 0 && dropped > 0, "kept {kept}, dropped {dropped}");
    }

    #[test]
    fn malformed_variants_are_actually_malformed() {
        let reqs: Vec<Request> = (0..3)
            .map(|c| Request::synthetic(ClientId(c), 0, 64))
            .collect();
        let batch = Batch::new(reqs);
        let dup = malformed_variant(&batch, MalformedKind::DuplicateInBatch, 64).unwrap();
        assert_eq!(dup.len(), 4);
        assert_eq!(dup.requests()[0].id, dup.requests()[3].id);
        let big = malformed_variant(&batch, MalformedKind::Oversized, 64).unwrap();
        assert_eq!(big.len(), 65);
        assert!(malformed_variant(&Batch::new(vec![]), MalformedKind::Oversized, 64).is_none());
    }

    #[test]
    fn conflicting_variant_differs_in_digest() {
        let reqs: Vec<Request> = (0..3)
            .map(|c| Request::synthetic(ClientId(c), 0, 64))
            .collect();
        let batch = Batch::new(reqs);
        let variant = conflicting_variant(&batch);
        assert_eq!(variant.len(), 2);
        assert_ne!(batch_digest(&batch), batch_digest(&variant));
    }

    #[test]
    fn client_adversary_emits_conflicting_twin_to_next_node() {
        let attacks = ClientAttacks {
            conflict: true,
            ..ClientAttacks::default()
        };
        let mut adv = ClientAdversary::new(attacks, 4);
        let req = Request::synthetic(ClientId(1), 0, 100);
        let mut out: Vec<(Addr, NetMsg)> = Vec::new();
        adv.on_outbound(
            Time::ZERO,
            Addr::Node(NodeId(3)),
            NetMsg::Client(ClientMsg::Request(req)),
            &mut |to, msg| out.push((to, msg)),
        );
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, Addr::Node(NodeId(3)));
        assert_eq!(out[1].0, Addr::Node(NodeId(0)), "wraps to the next node");
        let (NetMsg::Client(ClientMsg::Request(a)), NetMsg::Client(ClientMsg::Request(b))) =
            (&out[0].1, &out[1].1)
        else {
            panic!("both emissions must be requests");
        };
        assert_eq!(a.id, b.id, "same request id");
        assert_ne!(a.payload_size, b.payload_size, "conflicting payloads");
    }

    #[test]
    fn duplicating_client_schedule_is_deterministic() {
        let attacks = ClientAttacks {
            duplicate_replay: true,
            ..ClientAttacks::default()
        };
        let mut adv = ClientAdversary::new(attacks, 4);
        let mut emissions = 0usize;
        for t in 0..16u64 {
            let req = Request::synthetic(ClientId(0), t, 100);
            adv.on_outbound(
                Time::ZERO,
                Addr::Node(NodeId(0)),
                NetMsg::Client(ClientMsg::Request(req)),
                &mut |_, _| emissions += 1,
            );
        }
        // 16 originals + 4 duplicates (every 4th) + 2 replays (every 8th).
        assert_eq!(emissions, 16 + 4 + 2);
    }
}
