//! The PBFT state machine for one segment.

use crate::slot::{Slot, NIL_DIGEST};
use iss_crypto::{batch_digest, Digest, KeyPair, SignatureRegistry};
use iss_messages::pbft::PreparedProof;
use iss_messages::{PbftMsg, SbMsg};
use iss_sb::{SbContext, SbInstance};
use iss_types::{Batch, Duration, NodeId, Segment, SeqNr, ViewNr};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// A PREPARE or COMMIT that arrived before this node accepted a pre-prepare
/// for its slot. Nothing orders messages across peers: over TCP each peer
/// connection is delivered independently, and on a simulated LAN the
/// leader's interface serializes a large pre-prepare to each backup in turn,
/// so the first backup's vote can reach the last backup before it does.
/// After a view change a peer's vote of the new view can likewise overtake
/// the NEW-VIEW itself. PBFT never retransmits votes, so such a vote is
/// always held back and replayed once the slot has a digest; dropping it
/// could wedge the slot short of quorum forever.
#[derive(Clone, Copy)]
struct EarlyVote {
    from: NodeId,
    view: ViewNr,
    digest: Digest,
    commit: bool,
}

/// PBFT as an SB instance.
pub struct PbftInstance {
    my_id: NodeId,
    segment: Arc<Segment>,
    keypair: KeyPair,
    registry: Arc<SignatureRegistry>,

    view: ViewNr,
    /// Set while a view change is in progress (we have sent a VIEW-CHANGE for
    /// this view but have not installed it yet).
    changing_to: Option<ViewNr>,
    slots: BTreeMap<SeqNr, Slot>,
    /// VIEW-CHANGE messages collected per target view.
    view_changes: HashMap<ViewNr, HashMap<NodeId, Vec<PreparedProof>>>,
    /// Digests announced by the NEW-VIEW of the current view; pre-prepares in
    /// views > 0 must match them.
    expected_digests: HashMap<SeqNr, Digest>,
    /// Digests that already passed ISS proposal validation.
    validated: HashSet<Digest>,
    /// Batches observed for a digest (from pre-prepares or view changes), so
    /// re-proposals can be delivered even after a view change.
    known_batches: HashMap<Digest, Batch>,
    /// Votes buffered until the pre-prepare for their slot arrives; bounded
    /// per slot, cleared on view change (see [`EarlyVote`]).
    early_votes: HashMap<SeqNr, Vec<EarlyVote>>,

    current_timeout: Duration,
    delivered: usize,
}

impl PbftInstance {
    /// Creates a PBFT instance for `my_id` over `segment`. A follower starts
    /// a view change after `view_change_timeout` without any commit (Section
    /// 6.4 uses 10 s), and doubles it with every view change.
    pub fn new(
        my_id: NodeId,
        segment: Arc<Segment>,
        view_change_timeout: Duration,
        keypair: KeyPair,
        registry: Arc<SignatureRegistry>,
    ) -> Self {
        let n = segment.num_nodes();
        let slots = segment
            .seq_nrs
            .iter()
            .map(|sn| (*sn, Slot::new(n)))
            .collect();
        PbftInstance {
            my_id,
            segment,
            keypair,
            registry,
            view: 0,
            changing_to: None,
            slots,
            view_changes: HashMap::new(),
            expected_digests: HashMap::new(),
            validated: HashSet::new(),
            known_batches: HashMap::new(),
            early_votes: HashMap::new(),
            current_timeout: view_change_timeout,
            delivered: 0,
        }
    }

    /// The segment this instance is responsible for.
    pub fn segment(&self) -> &Segment {
        &self.segment
    }

    /// The current view.
    pub fn view(&self) -> ViewNr {
        self.view
    }

    /// The primary (leader) of a view: view 0 is led by the segment leader,
    /// later views rotate through the segment's node list.
    pub fn primary_of(&self, view: ViewNr) -> NodeId {
        let n = self.segment.nodes.len();
        let leader_pos = self
            .segment
            .nodes
            .iter()
            .position(|x| *x == self.segment.leader)
            .unwrap_or(0);
        self.segment.nodes[(leader_pos + view as usize) % n]
    }

    fn quorum(&self) -> usize {
        self.segment.strong_quorum()
    }

    /// Arms the progress (view-change) timer, the instance's only timer.
    fn arm_progress_timer(&self, ctx: &mut SbContext<'_>) {
        ctx.set_timer(0, self.current_timeout);
    }

    fn vc_signing_bytes(new_view: ViewNr, prepared: &[PreparedProof]) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(16 + prepared.len() * 40);
        bytes.extend_from_slice(b"pbft-vc");
        bytes.extend_from_slice(&new_view.to_le_bytes());
        for p in prepared {
            bytes.extend_from_slice(&p.seq_nr.to_le_bytes());
            bytes.extend_from_slice(&p.digest);
        }
        bytes
    }

    /// Buffers a vote whose slot has no accepted pre-prepare yet, bounded so
    /// a Byzantine peer cannot grow the buffer past its legitimate size (one
    /// prepare plus one commit per node).
    fn buffer_early_vote(&mut self, sn: SeqNr, vote: EarlyVote) {
        let cap = 2 * self.segment.nodes.len();
        let pending = self.early_votes.entry(sn).or_default();
        if pending.len() < cap {
            pending.push(vote);
        }
    }

    /// Buffers a vote of a later view than this node's when that view is
    /// one this node has asked to move to: the NEW-VIEW that starts it and
    /// the votes it triggers at other nodes travel different connections.
    fn buffer_next_view_vote(&mut self, sn: SeqNr, vote: EarlyVote) {
        let awaited = self
            .changing_to
            .is_some_and(|to| self.view < vote.view && vote.view <= to);
        if awaited && self.slots.contains_key(&sn) {
            self.buffer_early_vote(sn, vote);
        }
    }

    /// Replays the buffered votes for `sn` now that its pre-prepare fixed a
    /// digest; `record_prepare`/`record_commit` re-check view and digest, so
    /// stale or conflicting buffered votes fall out here.
    fn drain_early_votes(&mut self, sn: SeqNr, ctx: &mut SbContext<'_>) {
        let Some(pending) = self.early_votes.remove(&sn) else {
            return;
        };
        for v in pending {
            if v.commit {
                self.record_commit(sn, v.view, v.digest, v.from, ctx);
            } else {
                self.record_prepare(sn, v.view, v.digest, v.from, ctx);
            }
        }
    }

    fn record_prepare(
        &mut self,
        sn: SeqNr,
        view: ViewNr,
        digest: Digest,
        from: NodeId,
        ctx: &mut SbContext<'_>,
    ) {
        let vote = EarlyVote {
            from,
            view,
            digest,
            commit: false,
        };
        if view != self.view {
            self.buffer_next_view_vote(sn, vote);
            return;
        }
        match self.slots.get(&sn).map(Slot::digest) {
            None => return, // not in this segment
            Some(None) => {
                self.buffer_early_vote(sn, vote);
                return;
            }
            Some(Some(d)) if d != digest => return,
            Some(Some(_)) => {}
        }
        let quorum = self.quorum();
        let my_id = self.my_id;
        let slot = self.slots.get_mut(&sn).expect("checked above");
        slot.prepares.insert(from);
        if slot.prepares.len() >= quorum && !slot.commits.contains(my_id) {
            slot.prepared = true;
            slot.prepared_view = view;
            slot.commits.insert(my_id);
            ctx.broadcast(SbMsg::Pbft(PbftMsg::Commit {
                view,
                seq_nr: sn,
                digest,
            }));
            self.check_committed(sn, ctx);
        }
    }

    fn record_commit(
        &mut self,
        sn: SeqNr,
        view: ViewNr,
        digest: Digest,
        from: NodeId,
        ctx: &mut SbContext<'_>,
    ) {
        let vote = EarlyVote {
            from,
            view,
            digest,
            commit: true,
        };
        if view != self.view {
            self.buffer_next_view_vote(sn, vote);
            return;
        }
        match self.slots.get(&sn).map(Slot::digest) {
            None => return, // not in this segment
            Some(None) => {
                self.buffer_early_vote(sn, vote);
                return;
            }
            Some(Some(d)) if d != digest => return,
            Some(Some(_)) => {}
        }
        let slot = self.slots.get_mut(&sn).expect("checked above");
        slot.commits.insert(from);
        self.check_committed(sn, ctx);
    }

    fn check_committed(&mut self, sn: SeqNr, ctx: &mut SbContext<'_>) {
        let quorum = self.quorum();
        let Some(slot) = self.slots.get_mut(&sn) else {
            return;
        };
        if !slot.prepared || slot.commits.len() < quorum {
            return;
        }
        slot.committed = true;
        if !slot.delivered {
            slot.delivered = true;
            let value = slot.pre_prepared.as_ref().and_then(|(_, b)| b.clone());
            ctx.deliver(sn, value);
            self.delivered += 1;
        }
        // Progress was made: reset the view-change timer.
        self.arm_progress_timer(ctx);
    }

    fn accept_pre_prepare(
        &mut self,
        from: NodeId,
        view: ViewNr,
        sn: SeqNr,
        batch: Option<Batch>,
        digest: Digest,
        ctx: &mut SbContext<'_>,
    ) {
        if view != self.view || from != self.primary_of(view) || !self.segment.contains(sn) {
            return;
        }
        // Check digest integrity.
        let expected = match &batch {
            Some(b) => batch_digest(b),
            None => NIL_DIGEST,
        };
        if expected != digest {
            return;
        }
        // In views > 0 only the values announced in the NEW-VIEW may be
        // proposed (⊥ or a previously prepared value).
        if view > 0 {
            match self.expected_digests.get(&sn) {
                Some(d) if *d == digest => {}
                _ => return,
            }
        }
        // ISS proposal validation for non-nil, not-yet-validated batches.
        if let Some(b) = &batch {
            if !self.validated.contains(&digest) {
                if ctx.validator.validate_proposal(sn, b).is_err() {
                    return;
                }
                self.validated.insert(digest);
            }
            self.known_batches.insert(digest, b.clone());
        }
        let my_id = self.my_id;
        {
            let Some(slot) = self.slots.get_mut(&sn) else {
                return;
            };
            if slot.pre_prepared.is_some() {
                return;
            }
            slot.pre_prepared = Some((digest, batch));
            slot.pre_prepare_view = view;
            // The primary's pre-prepare counts as its prepare; add ours too.
            slot.prepares.insert(from);
            slot.prepares.insert(my_id);
        }
        ctx.broadcast(SbMsg::Pbft(PbftMsg::Prepare {
            view,
            seq_nr: sn,
            digest,
        }));
        // Our own prepare may complete the quorum (e.g. n = 4 ⇒ 2f+1 = 3).
        self.record_prepare(sn, view, digest, my_id, ctx);
        // Votes that overtook this pre-prepare on the wire count now.
        self.drain_early_votes(sn, ctx);
    }

    fn start_view_change(&mut self, target: ViewNr, ctx: &mut SbContext<'_>) {
        if target <= self.view || self.changing_to.is_some_and(|v| v >= target) {
            return;
        }
        self.changing_to = Some(target);
        let prepared: Vec<PreparedProof> = self
            .slots
            .iter()
            .filter(|(_, s)| s.prepared)
            .map(|(sn, s)| {
                let digest = s.digest().unwrap_or(NIL_DIGEST);
                PreparedProof {
                    seq_nr: *sn,
                    view: s.prepared_view,
                    digest,
                    batch: self.known_batches.get(&digest).cloned(),
                }
            })
            .collect();
        let signature = bytes::Bytes::from(
            self.keypair
                .sign(&Self::vc_signing_bytes(target, &prepared))
                .to_vec(),
        );
        let msg = PbftMsg::ViewChange {
            new_view: target,
            prepared: prepared.clone(),
            signature,
        };
        ctx.broadcast(SbMsg::Pbft(msg));
        self.view_changes
            .entry(target)
            .or_default()
            .insert(self.my_id, prepared);
        // Exponential back-off of the view-change timeout.
        self.current_timeout = self.current_timeout.saturating_mul(2);
        self.arm_progress_timer(ctx);
        self.maybe_install_view(target, ctx);
    }

    fn maybe_install_view(&mut self, target: ViewNr, ctx: &mut SbContext<'_>) {
        let count = self
            .view_changes
            .get(&target)
            .map(HashMap::len)
            .unwrap_or(0);
        if count < self.quorum() || self.view >= target {
            return;
        }
        if self.primary_of(target) != self.my_id {
            return;
        }
        // We are the new primary: compute the re-proposals.
        let vcs = self.view_changes.get(&target).cloned().unwrap_or_default();
        let mut re_proposals: Vec<(SeqNr, Digest)> = Vec::new();
        let mut values: Vec<(SeqNr, Option<Batch>, Digest)> = Vec::new();
        for sn in self.segment.seq_nrs.clone() {
            // Highest-view prepared proof for this sequence number. Slots
            // already committed locally are included as well: other nodes may
            // not have committed them yet and need the re-proposal.
            let own_proof = self.slots.get(&sn).and_then(|s| {
                if s.prepared {
                    let digest = s.digest().unwrap_or(NIL_DIGEST);
                    Some(PreparedProof {
                        seq_nr: sn,
                        view: s.prepared_view,
                        digest,
                        batch: self.known_batches.get(&digest).cloned(),
                    })
                } else {
                    None
                }
            });
            let mut best: Option<&PreparedProof> = own_proof.as_ref();
            for proofs in vcs.values() {
                for p in proofs.iter().filter(|p| p.seq_nr == sn) {
                    if best.map(|b| p.view > b.view).unwrap_or(true) {
                        best = Some(p);
                    }
                }
            }
            match best {
                Some(p) if p.digest != NIL_DIGEST => {
                    re_proposals.push((sn, p.digest));
                    let batch = p
                        .batch
                        .clone()
                        .or_else(|| self.known_batches.get(&p.digest).cloned());
                    values.push((sn, batch, p.digest));
                }
                _ => {
                    // Design principle 2 (Section 4.2): the new leader
                    // proposes ⊥ for everything not prepared under the
                    // original segment leader.
                    re_proposals.push((sn, NIL_DIGEST));
                    values.push((sn, None, NIL_DIGEST));
                }
            }
        }
        let certificate: Vec<bytes::Bytes> = vec![bytes::Bytes::new(); count];
        ctx.broadcast(SbMsg::Pbft(PbftMsg::NewView {
            view: target,
            re_proposals: re_proposals.clone(),
            certificate,
        }));
        self.install_view(target, &re_proposals, ctx);
        // As the new primary, immediately pre-prepare the re-proposals.
        for (sn, batch, digest) in values {
            let my_id = self.my_id;
            if let Some(b) = &batch {
                self.known_batches.insert(digest, b.clone());
                self.validated.insert(digest);
            }
            {
                let Some(slot) = self.slots.get_mut(&sn) else {
                    continue;
                };
                slot.pre_prepared = Some((digest, batch.clone()));
                slot.pre_prepare_view = target;
                slot.prepares.insert(my_id);
            }
            ctx.broadcast(SbMsg::Pbft(PbftMsg::PrePrepare {
                view: target,
                seq_nr: sn,
                batch,
                digest,
            }));
            self.record_prepare(sn, target, digest, my_id, ctx);
            self.drain_early_votes(sn, ctx);
        }
    }

    fn install_view(
        &mut self,
        view: ViewNr,
        re_proposals: &[(SeqNr, Digest)],
        ctx: &mut SbContext<'_>,
    ) {
        self.view = view;
        self.changing_to = None;
        self.expected_digests = re_proposals.iter().copied().collect();
        for (_, slot) in self.slots.iter_mut() {
            slot.reset_for_view();
        }
        // Votes of older views would be filtered on replay anyway, so free
        // them eagerly; votes of this view that overtook the NEW-VIEW wait
        // for its pre-prepares.
        self.early_votes.retain(|_, votes| {
            votes.retain(|v| v.view >= view);
            !votes.is_empty()
        });
        self.arm_progress_timer(ctx);
    }
}

impl SbInstance for PbftInstance {
    fn init(&mut self, ctx: &mut SbContext<'_>) {
        // Everyone arms the progress timer; it is reset on every commit.
        self.arm_progress_timer(ctx);
    }

    fn propose(&mut self, seq_nr: SeqNr, batch: Batch, ctx: &mut SbContext<'_>) {
        // Only the segment leader proposes non-⊥ values, and only in view 0
        // (after a view change new leaders propose ⊥ via the NEW-VIEW path).
        if self.my_id != self.segment.leader || self.view != 0 || self.changing_to.is_some() {
            return;
        }
        if !self.segment.contains(seq_nr) {
            return;
        }
        if self
            .slots
            .get(&seq_nr)
            .map(|s| s.pre_prepared.is_some())
            .unwrap_or(true)
        {
            return;
        }
        let digest = batch_digest(&batch);
        self.known_batches.insert(digest, batch.clone());
        self.validated.insert(digest);
        let my_id = self.my_id;
        {
            let slot = self.slots.get_mut(&seq_nr).expect("slot exists");
            slot.pre_prepared = Some((digest, Some(batch.clone())));
            slot.pre_prepare_view = 0;
            slot.prepares.insert(my_id);
        }
        ctx.broadcast(SbMsg::Pbft(PbftMsg::PrePrepare {
            view: 0,
            seq_nr,
            batch: Some(batch),
            digest,
        }));
        self.record_prepare(seq_nr, 0, digest, my_id, ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: SbMsg, ctx: &mut SbContext<'_>) {
        let SbMsg::Pbft(msg) = msg else { return };
        // The segment's nodes are `0..n`; nothing from another id counts,
        // and nothing from it is buffered.
        if from.index() >= self.segment.num_nodes() {
            return;
        }
        match msg {
            PbftMsg::PrePrepare {
                view,
                seq_nr,
                batch,
                digest,
            } => {
                self.accept_pre_prepare(from, view, seq_nr, batch, digest, ctx);
            }
            PbftMsg::Prepare {
                view,
                seq_nr,
                digest,
            } => {
                self.record_prepare(seq_nr, view, digest, from, ctx);
            }
            PbftMsg::Commit {
                view,
                seq_nr,
                digest,
            } => {
                self.record_commit(seq_nr, view, digest, from, ctx);
            }
            PbftMsg::ViewChange {
                new_view,
                prepared,
                signature,
            } => {
                if new_view <= self.view {
                    return;
                }
                let bytes = Self::vc_signing_bytes(new_view, &prepared);
                if self.registry.verify_node(from, &bytes, &signature).is_err() {
                    return;
                }
                for p in &prepared {
                    if p.digest != NIL_DIGEST {
                        if let Some(b) = &p.batch {
                            if batch_digest(b) == p.digest {
                                self.known_batches.insert(p.digest, b.clone());
                            }
                        }
                    }
                }
                self.view_changes
                    .entry(new_view)
                    .or_default()
                    .insert(from, prepared);
                let count = self.view_changes[&new_view].len();
                // Join the view change once f+1 nodes ask for it.
                if count >= self.segment.weak_quorum()
                    && self.changing_to.is_none_or(|v| v < new_view)
                {
                    self.start_view_change(new_view, ctx);
                }
                self.maybe_install_view(new_view, ctx);
            }
            PbftMsg::NewView {
                view,
                re_proposals,
                certificate,
            } => {
                if view <= self.view || from != self.primary_of(view) {
                    return;
                }
                if certificate.len() < self.quorum() {
                    return;
                }
                self.install_view(view, &re_proposals, ctx);
            }
        }
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut SbContext<'_>) {
        if self.is_complete() {
            return;
        }
        let target = self.changing_to.unwrap_or(self.view) + 1;
        self.start_view_change(target, ctx);
    }

    fn is_complete(&self) -> bool {
        self.delivered == self.segment.seq_nrs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iss_sb::testing::LocalNet;
    use iss_sb::validator::RejectAll;
    use iss_types::{BucketId, ClientId, InstanceId, Request};

    fn segment(n: usize, leader: u32, seq_nrs: Vec<SeqNr>) -> Arc<Segment> {
        Arc::new(Segment {
            instance: InstanceId::new(0, 0),
            leader: NodeId(leader),
            seq_nrs,
            buckets: vec![BucketId(0)],
            nodes: (0..n as u32).map(NodeId).collect(),
            f: (n - 1) / 3,
        })
    }

    fn net(n: usize, leader: u32, seq_nrs: Vec<SeqNr>, timeout_ms: u64) -> LocalNet<PbftInstance> {
        let registry = Arc::new(SignatureRegistry::with_processes(n, 0));
        let instances = (0..n)
            .map(|i| {
                PbftInstance::new(
                    NodeId(i as u32),
                    segment(n, leader, seq_nrs.clone()),
                    Duration::from_millis(timeout_ms),
                    KeyPair::for_node(NodeId(i as u32)),
                    Arc::clone(&registry),
                )
            })
            .collect();
        LocalNet::new(instances)
    }

    fn batch(tag: u32) -> Batch {
        Batch::new(vec![Request::synthetic(ClientId(tag), tag as u64, 100)])
    }

    #[test]
    fn normal_case_commits_at_all_nodes() {
        let mut net = net(4, 0, vec![0, 1, 2], 10_000);
        net.init_all();
        for sn in 0..3u64 {
            net.propose(0, sn, batch(sn as u32));
        }
        net.run_messages();
        assert!(net.all_complete());
        net.assert_agreement();
        for node in 0..4 {
            for sn in 0..3u64 {
                assert_eq!(
                    net.log_of(node).get(&sn).unwrap().as_ref(),
                    Some(&batch(sn as u32))
                );
            }
        }
    }

    #[test]
    fn non_leader_view_zero_proposals_are_ignored() {
        let mut net = net(4, 1, vec![0], 10_000);
        net.init_all();
        // Node 3 fabricates a pre-prepare although node 1 is the leader.
        let b = batch(9);
        let digest = batch_digest(&b);
        for to in [0u32, 1, 2] {
            net.inject_message(
                NodeId(3),
                NodeId(to),
                SbMsg::Pbft(PbftMsg::PrePrepare {
                    view: 0,
                    seq_nr: 0,
                    batch: Some(b.clone()),
                    digest,
                }),
            );
        }
        net.run_messages();
        for node in 0..3 {
            assert!(net.log_of(node).get(&0).is_none());
        }
    }

    #[test]
    fn crashed_leader_leads_to_nil_deliveries_via_view_change() {
        let mut net = net(4, 0, vec![0, 1], 100);
        net.init_all();
        net.crash(0);
        // Fire enough timers for the view change to go through at the three
        // correct nodes.
        net.run(12);
        for node in 1..4 {
            assert!(
                net.instances[node].is_complete(),
                "SB termination after leader crash (node {node}): delivered {}",
                net.log_of(node).len()
            );
            assert_eq!(net.log_of(node).get(&0), Some(&None));
            assert_eq!(net.log_of(node).get(&1), Some(&None));
        }
        net.assert_agreement();
    }

    #[test]
    fn prepared_value_survives_view_change() {
        let mut net = net(4, 0, vec![0, 1], 100);
        // Node 3 never hears from the leader directly.
        net.drop_links.insert((NodeId(0), NodeId(3)));
        net.init_all();
        net.propose(0, 0, batch(7));
        net.run_messages();
        // Nodes 0-2 commit sequence number 0; node 3 cannot (no pre-prepare).
        assert_eq!(net.log_of(1).get(&0).unwrap().as_ref(), Some(&batch(7)));
        assert!(net.log_of(3).get(&0).is_none());
        // Leader crashes before proposing sequence number 1.
        net.crash(0);
        net.run(16);
        // After the view change everyone (including node 3) has the batch for
        // sn 0 and ⊥ for sn 1.
        for node in 1..4 {
            assert_eq!(
                net.log_of(node).get(&0).unwrap().as_ref(),
                Some(&batch(7)),
                "prepared value must survive the view change at node {node}"
            );
            assert_eq!(net.log_of(node).get(&1), Some(&None));
            assert!(net.instances[node].is_complete());
        }
        net.assert_agreement();
    }

    #[test]
    fn rejecting_validator_prevents_commit() {
        let mut net = net(4, 0, vec![0], 10_000);
        for node in 1..4 {
            net.set_validator(node, Box::new(RejectAll));
        }
        net.init_all();
        net.propose(0, 0, batch(1));
        net.run_messages();
        for node in 1..4 {
            assert!(net.log_of(node).get(&0).is_none());
        }
    }

    #[test]
    fn digest_mismatch_is_rejected() {
        let mut net = net(4, 0, vec![0], 10_000);
        net.init_all();
        let b = batch(1);
        for to in 1..4u32 {
            net.inject_message(
                NodeId(0),
                NodeId(to),
                SbMsg::Pbft(PbftMsg::PrePrepare {
                    view: 0,
                    seq_nr: 0,
                    batch: Some(b.clone()),
                    digest: [0xAB; 32], // wrong digest
                }),
            );
        }
        net.run_messages();
        for node in 1..4 {
            assert!(net.log_of(node).get(&0).is_none());
        }
    }

    #[test]
    fn view_change_requires_valid_signatures() {
        let mut net = net(4, 0, vec![0], 10_000);
        net.init_all();
        // Forge unsigned view-change messages from 3 distinct nodes; the
        // primary of view 1 (node 1) must not install a new view from them.
        for from in [2u32, 3] {
            for to in 0..4u32 {
                if to != from {
                    net.inject_message(
                        NodeId(from),
                        NodeId(to),
                        SbMsg::Pbft(PbftMsg::ViewChange {
                            new_view: 1,
                            prepared: vec![],
                            signature: vec![0u8; 64].into(),
                        }),
                    );
                }
            }
        }
        net.run_messages();
        for node in 0..4 {
            assert_eq!(
                net.instances[node].view(),
                0,
                "forged view change must not advance the view"
            );
        }
    }

    #[test]
    fn primary_rotation_is_round_robin_from_segment_leader() {
        let seg = segment(4, 2, vec![0]);
        let inst = PbftInstance::new(
            NodeId(0),
            seg,
            Duration::from_secs(10),
            KeyPair::for_node(NodeId(0)),
            Arc::new(SignatureRegistry::with_processes(4, 0)),
        );
        assert_eq!(inst.primary_of(0), NodeId(2));
        assert_eq!(inst.primary_of(1), NodeId(3));
        assert_eq!(inst.primary_of(2), NodeId(0));
        assert_eq!(inst.primary_of(5), NodeId(3));
    }

    #[test]
    fn votes_arriving_before_the_pre_prepare_are_buffered() {
        let mut net = net(4, 0, vec![0], 10_000);
        net.init_all();
        let b = batch(1);
        let digest = batch_digest(&b);
        // Real transports deliver each peer connection independently, so the
        // backups' votes can overtake the leader's pre-prepare. Node 3 first
        // hears both other backups' prepares and commits ...
        for from in [1u32, 2] {
            net.inject_message(
                NodeId(from),
                NodeId(3),
                SbMsg::Pbft(PbftMsg::Prepare {
                    view: 0,
                    seq_nr: 0,
                    digest,
                }),
            );
            net.inject_message(
                NodeId(from),
                NodeId(3),
                SbMsg::Pbft(PbftMsg::Commit {
                    view: 0,
                    seq_nr: 0,
                    digest,
                }),
            );
        }
        net.run_messages();
        assert!(net.log_of(3).get(&0).is_none());
        // ... and only then the pre-prepare. The buffered votes must count,
        // or the slot is wedged short of quorum forever (the peers never
        // retransmit).
        net.inject_message(
            NodeId(0),
            NodeId(3),
            SbMsg::Pbft(PbftMsg::PrePrepare {
                view: 0,
                seq_nr: 0,
                batch: Some(b.clone()),
                digest,
            }),
        );
        net.run_messages();
        assert_eq!(net.log_of(3).get(&0).unwrap().as_ref(), Some(&b));
    }

    #[test]
    fn conflicting_early_votes_cannot_fake_a_quorum() {
        let mut net = net(4, 0, vec![0], 10_000);
        net.init_all();
        let b = batch(1);
        let digest = batch_digest(&b);
        // Byzantine votes for a different digest arrive first; once the real
        // pre-prepare lands they must be discarded on replay, not counted.
        for from in [1u32, 2] {
            net.inject_message(
                NodeId(from),
                NodeId(3),
                SbMsg::Pbft(PbftMsg::Prepare {
                    view: 0,
                    seq_nr: 0,
                    digest: [0xAB; 32],
                }),
            );
        }
        net.inject_message(
            NodeId(0),
            NodeId(3),
            SbMsg::Pbft(PbftMsg::PrePrepare {
                view: 0,
                seq_nr: 0,
                batch: Some(b),
                digest,
            }),
        );
        net.run_messages();
        assert!(net.log_of(3).get(&0).is_none());
    }

    #[test]
    fn a_vote_that_overtakes_its_new_view_still_counts() {
        let mut net = net(4, 0, vec![0], 100);
        net.init_all();
        net.crash(0);
        // Node 2 hears nothing from node 1, the primary of view 1, while the
        // view change runs: node 3's votes of view 1 reach it first.
        net.drop_links.insert((NodeId(1), NodeId(2)));
        net.run(3);
        assert!(net.log_of(2).get(&0).is_none());
        net.drop_links.clear();
        let re_proposals = vec![(0, NIL_DIGEST)];
        for msg in [
            PbftMsg::NewView {
                view: 1,
                re_proposals,
                certificate: vec![bytes::Bytes::new(); 3],
            },
            PbftMsg::PrePrepare {
                view: 1,
                seq_nr: 0,
                batch: None,
                digest: NIL_DIGEST,
            },
        ] {
            net.inject_message(NodeId(1), NodeId(2), SbMsg::Pbft(msg));
        }
        net.run_messages();
        for node in 1..4 {
            assert_eq!(
                net.log_of(node).get(&0),
                Some(&None),
                "node {node} did not commit the re-proposal"
            );
        }
        net.assert_agreement();
    }

    #[test]
    fn duplicate_proposals_for_same_slot_are_ignored() {
        let mut net = net(4, 0, vec![0], 10_000);
        net.init_all();
        net.propose(0, 0, batch(1));
        net.propose(0, 0, batch(2));
        net.run_messages();
        for node in 0..4 {
            assert_eq!(net.log_of(node).get(&0).unwrap().as_ref(), Some(&batch(1)));
        }
        net.assert_agreement();
    }

    #[test]
    fn out_of_segment_proposals_ignored() {
        let mut net = net(4, 0, vec![0, 1], 10_000);
        net.init_all();
        net.propose(0, 17, batch(1));
        net.run_messages();
        for node in 0..4 {
            assert!(net.log_of(node).is_empty());
        }
    }

    #[test]
    fn sixty_seven_nodes_commit_with_ids_in_two_words() {
        // Ids 64..67 live in the second word of every vote set; the leader
        // is one of them.
        let n = 67;
        let mut net = net(n, 65, vec![0, 1], 10_000);
        net.init_all();
        for sn in 0..2u64 {
            net.propose(65, sn, batch(sn as u32));
        }
        net.run_messages();
        assert!(net.all_complete());
        net.assert_agreement();
        for node in [0, 63, 64, 66] {
            assert_eq!(net.log_of(node).get(&1).unwrap().as_ref(), Some(&batch(1)));
            let slot = &net.instances[node].slots[&1];
            assert_eq!(slot.prepares.word_count(), 2);
            // Every vote reached every node, each counted once.
            assert_eq!((slot.prepares.len(), slot.commits.len()), (n, n));
            assert!(slot.prepares.contains(NodeId(66)) && slot.commits.contains(NodeId(64)));
        }
    }

    #[test]
    fn a_vote_from_outside_the_segment_neither_counts_nor_allocates() {
        let n = 4;
        let mut net = net(n, 0, vec![0], 10_000);
        net.init_all();
        let b = batch(1);
        let digest = batch_digest(&b);
        let outsider = NodeId(n as u32 + 5);
        let prepare = SbMsg::Pbft(PbftMsg::Prepare {
            view: 0,
            seq_nr: 0,
            digest,
        });
        // Before the pre-prepare: not buffered.
        net.inject_message(outsider, NodeId(3), prepare.clone());
        net.run_messages();
        assert!(net.instances[3].early_votes.is_empty());
        // After it: node 3 holds the primary's and its own prepare, one
        // short of the quorum of 3, and the outsider does not fill the gap.
        net.inject_message(
            NodeId(0),
            NodeId(3),
            SbMsg::Pbft(PbftMsg::PrePrepare {
                view: 0,
                seq_nr: 0,
                batch: Some(b),
                digest,
            }),
        );
        net.run_messages();
        net.inject_message(outsider, NodeId(3), prepare);
        net.run_messages();
        let slot = &net.instances[3].slots[&0];
        assert_eq!(slot.prepares.len(), 2);
        assert!(!slot.prepares.contains(outsider));
        assert!(!slot.prepared);
        assert_eq!(slot.prepares.word_count(), 1);
        assert!(net.instances[3].early_votes.is_empty());
        assert!(net.log_of(3).get(&0).is_none());
    }

    #[test]
    fn seven_nodes_two_faults_still_commit() {
        let mut net = net(7, 0, vec![0, 1, 2], 10_000);
        net.init_all();
        // Two non-leader nodes crash (f = 2 for n = 7).
        net.crash(5);
        net.crash(6);
        for sn in 0..3u64 {
            net.propose(0, sn, batch(sn as u32));
        }
        net.run_messages();
        for node in 0..5 {
            assert!(net.instances[node].is_complete(), "node {node} incomplete");
        }
        net.assert_agreement();
    }
}
