//! The reference implementation of Sequenced Broadcast (Algorithm 5 of the
//! paper): Byzantine reliable broadcast (Bracha echo/ready) per sequence
//! number, followed by a per-sequence-number agreement on either the
//! brb-delivered batch or the nil value ⊥, driven by a ◇S(bz) failure
//! detector.
//!
//! Like the production protocols, the instance derives that detector from
//! its own timeout (Section 4.2.4). The progress timer is armed at `SB-INIT`
//! and re-armed on every delivery; when it fires on an incomplete segment,
//! the node suspects the sender and runs `abort()`, voting ⊥ for every
//! sequence number it has not voted on yet.
//!
//! This implementation serves as an executable specification of the SB
//! properties and is used by the property tests; the production path wraps
//! PBFT, HotStuff or Raft instead (Section 4.2). One simplification relative
//! to Algorithm 5: the per-sequence-number Byzantine consensus is realized as
//! a single round of votes decided at a strong quorum (2f+1) of matching
//! values. This is sufficient for every scenario exercised here (correct
//! sender, crashed/quiet sender); a sender that *equivocates* within BRB is
//! blocked by BRB consistency before the vote round — no conflicting digest
//! can gather a 2f+1 echo quorum, so the instance starves until the timeout
//! resolves it to ⊥ (exercised by the
//! `equivocating_sender_is_blocked_by_brb_and_resolves_to_nil` test below) —
//! but a fully Byzantine-resilient decision under split votes would require
//! the view-change machinery that the production protocols provide.

use crate::instance::{SbContext, SbInstance};
use iss_crypto::{batch_digest, Digest};
use iss_messages::{RefSbMsg, SbMsg};
use iss_types::{Batch, Duration, NodeId, Segment, SeqNr};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The reference SB instance for one node and one segment.
pub struct ReferenceSb {
    /// This node.
    my_id: NodeId,
    /// The segment (sender σ, sequence numbers S, nodes, f).
    segment: Arc<Segment>,
    /// How long the segment may go without a delivery before this node
    /// suspects the sender.
    timeout: Duration,

    /// Batches received via BRB SEND, keyed by digest.
    batches: HashMap<(SeqNr, Digest), Batch>,
    echoed: HashSet<SeqNr>,
    ready_sent: HashSet<SeqNr>,
    echoes: HashMap<(SeqNr, Digest), HashSet<NodeId>>,
    readies: HashMap<(SeqNr, Digest), HashSet<NodeId>>,
    brb_delivered: HashMap<SeqNr, Digest>,

    voted: HashSet<SeqNr>,
    votes: HashMap<(SeqNr, Option<Digest>), HashSet<NodeId>>,
    decided: HashMap<SeqNr, Option<Digest>>,
    /// Decisions whose batch content has not arrived yet.
    pending_delivery: HashSet<SeqNr>,
    delivered: HashSet<SeqNr>,
}

impl ReferenceSb {
    /// Creates an instance for `my_id` over `segment` that suspects the
    /// sender after `timeout` without a delivery.
    pub fn new(my_id: NodeId, segment: Arc<Segment>, timeout: Duration) -> Self {
        ReferenceSb {
            my_id,
            segment,
            timeout,
            batches: HashMap::new(),
            echoed: HashSet::new(),
            ready_sent: HashSet::new(),
            echoes: HashMap::new(),
            readies: HashMap::new(),
            brb_delivered: HashMap::new(),
            voted: HashSet::new(),
            votes: HashMap::new(),
            decided: HashMap::new(),
            pending_delivery: HashSet::new(),
            delivered: HashSet::new(),
        }
    }

    /// The segment this instance is responsible for.
    pub fn segment(&self) -> &Segment {
        &self.segment
    }

    fn quorum(&self) -> usize {
        self.segment.strong_quorum()
    }

    fn weak(&self) -> usize {
        self.segment.weak_quorum()
    }

    fn record_echo(&mut self, sn: SeqNr, digest: Digest, from: NodeId, ctx: &mut SbContext<'_>) {
        self.echoes.entry((sn, digest)).or_default().insert(from);
        self.maybe_ready(sn, digest, ctx);
    }

    fn record_ready(&mut self, sn: SeqNr, digest: Digest, from: NodeId, ctx: &mut SbContext<'_>) {
        self.readies.entry((sn, digest)).or_default().insert(from);
        // Amplification: f+1 readies ⇒ send own ready.
        let count = self.readies[&(sn, digest)].len();
        if count >= self.weak() && !self.ready_sent.contains(&sn) {
            self.send_ready(sn, digest, ctx);
        }
        if count >= self.quorum() && !self.brb_delivered.contains_key(&sn) {
            self.brb_delivered.insert(sn, digest);
            self.cast_vote(sn, Some(digest), ctx);
        }
    }

    fn maybe_ready(&mut self, sn: SeqNr, digest: Digest, ctx: &mut SbContext<'_>) {
        if self
            .echoes
            .get(&(sn, digest))
            .map(HashSet::len)
            .unwrap_or(0)
            >= self.quorum()
            && !self.ready_sent.contains(&sn)
        {
            self.send_ready(sn, digest, ctx);
        }
    }

    fn send_ready(&mut self, sn: SeqNr, digest: Digest, ctx: &mut SbContext<'_>) {
        self.ready_sent.insert(sn);
        ctx.broadcast(SbMsg::Reference(RefSbMsg::BrbReady { seq_nr: sn, digest }));
        let me = self.my_id;
        self.record_ready(sn, digest, me, ctx);
    }

    fn cast_vote(&mut self, sn: SeqNr, value: Option<Digest>, ctx: &mut SbContext<'_>) {
        if self.voted.contains(&sn) {
            return;
        }
        self.voted.insert(sn);
        ctx.broadcast(SbMsg::Reference(RefSbMsg::Vote { seq_nr: sn, value }));
        let me = self.my_id;
        self.record_vote(sn, value, me, ctx);
    }

    fn record_vote(
        &mut self,
        sn: SeqNr,
        value: Option<Digest>,
        from: NodeId,
        ctx: &mut SbContext<'_>,
    ) {
        self.votes.entry((sn, value)).or_default().insert(from);
        if self.votes[&(sn, value)].len() >= self.quorum() && !self.decided.contains_key(&sn) {
            self.decided.insert(sn, value);
            self.try_deliver(sn, ctx);
        }
    }

    fn try_deliver(&mut self, sn: SeqNr, ctx: &mut SbContext<'_>) {
        if self.delivered.contains(&sn) {
            return;
        }
        let Some(value) = self.decided.get(&sn).copied() else {
            return;
        };
        let batch = match value {
            None => None,
            Some(digest) => match self.batches.get(&(sn, digest)) {
                Some(batch) => Some(batch.clone()),
                None => {
                    self.pending_delivery.insert(sn);
                    return;
                }
            },
        };
        self.delivered.insert(sn);
        self.pending_delivery.remove(&sn);
        ctx.deliver(sn, batch);
        if !self.is_complete() {
            ctx.set_timer(0, self.timeout);
        }
    }

    /// Abort (Algorithm 5, `abort()`): vote ⊥ for every sequence number for
    /// which nothing has been proposed / voted yet.
    fn abort(&mut self, ctx: &mut SbContext<'_>) {
        for sn in self.segment.seq_nrs.clone() {
            if !self.voted.contains(&sn) {
                self.cast_vote(sn, None, ctx);
            }
        }
    }
}

impl SbInstance for ReferenceSb {
    fn init(&mut self, ctx: &mut SbContext<'_>) {
        ctx.set_timer(0, self.timeout);
    }

    fn propose(&mut self, seq_nr: SeqNr, batch: Batch, ctx: &mut SbContext<'_>) {
        debug_assert_eq!(self.my_id, self.segment.leader, "only σ may sb-cast");
        if !self.segment.contains(seq_nr) {
            return;
        }
        let digest = batch_digest(&batch);
        self.batches.insert((seq_nr, digest), batch.clone());
        ctx.broadcast(SbMsg::Reference(RefSbMsg::BrbSend { seq_nr, batch }));
        // The sender participates in its own BRB instance.
        self.echoed.insert(seq_nr);
        ctx.broadcast(SbMsg::Reference(RefSbMsg::BrbEcho { seq_nr, digest }));
        let me = self.my_id;
        self.record_echo(seq_nr, digest, me, ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: SbMsg, ctx: &mut SbContext<'_>) {
        let SbMsg::Reference(msg) = msg else {
            return;
        };
        match msg {
            RefSbMsg::BrbSend { seq_nr, batch } => {
                // Only the designated sender's sends are honoured.
                if from != self.segment.leader || !self.segment.contains(seq_nr) {
                    return;
                }
                if ctx.validator.validate_proposal(seq_nr, &batch).is_err() {
                    return;
                }
                let digest = batch_digest(&batch);
                self.batches.insert((seq_nr, digest), batch);
                if !self.echoed.contains(&seq_nr) {
                    self.echoed.insert(seq_nr);
                    ctx.broadcast(SbMsg::Reference(RefSbMsg::BrbEcho { seq_nr, digest }));
                    let me = self.my_id;
                    self.record_echo(seq_nr, digest, me, ctx);
                }
                // A decision may have been waiting for this batch.
                self.try_deliver(seq_nr, ctx);
            }
            RefSbMsg::BrbEcho { seq_nr, digest } => {
                if self.segment.contains(seq_nr) {
                    self.record_echo(seq_nr, digest, from, ctx);
                }
            }
            RefSbMsg::BrbReady { seq_nr, digest } => {
                if self.segment.contains(seq_nr) {
                    self.record_ready(seq_nr, digest, from, ctx);
                }
            }
            RefSbMsg::Vote { seq_nr, value } => {
                if self.segment.contains(seq_nr) {
                    self.record_vote(seq_nr, value, from, ctx);
                }
            }
            RefSbMsg::Decide { .. } | RefSbMsg::Heartbeat => {}
        }
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut SbContext<'_>) {
        // No delivery for a whole timeout: suspect the sender.
        if !self.is_complete() {
            self.abort(ctx);
        }
    }

    fn is_complete(&self) -> bool {
        self.delivered.len() == self.segment.seq_nrs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::LocalNet;
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

    fn net(n: usize, leader: u32, seq_nrs: Vec<SeqNr>) -> LocalNet<ReferenceSb> {
        let instances = (0..n)
            .map(|i| {
                ReferenceSb::new(
                    NodeId(i as u32),
                    segment(n, leader, seq_nrs.clone()),
                    Duration::from_millis(100),
                )
            })
            .collect();
        LocalNet::new(instances)
    }

    fn batch(tag: u32) -> Batch {
        Batch::new(vec![Request::synthetic(ClientId(tag), tag as u64, 100)])
    }

    #[test]
    fn correct_sender_all_deliver_its_batches() {
        let mut net = net(4, 0, vec![0, 1, 2]);
        net.init_all();
        for sn in 0..3u64 {
            net.propose(0, sn, batch(sn as u32));
        }
        net.run_messages();
        assert!(net.all_complete(), "SB3 termination with a correct sender");
        net.assert_agreement();
        for node in 0..4 {
            for sn in 0..3u64 {
                let delivered = net.log_of(node).get(&sn).unwrap();
                assert_eq!(delivered.as_ref(), Some(&batch(sn as u32)), "SB1 integrity");
            }
        }
    }

    #[test]
    fn quiet_sender_delivers_nil_after_suspicion() {
        let mut net = net(4, 0, vec![0, 1]);
        net.crash(0);
        net.init_all();
        // The progress timeout suspects the quiet sender at every correct
        // node.
        net.run(16);
        for node in 1..4 {
            assert_eq!(net.log_of(node).get(&0), Some(&None), "⊥ delivered");
            assert_eq!(net.log_of(node).get(&1), Some(&None));
            assert!(net.instances[node].is_complete());
        }
        net.assert_agreement();
    }

    #[test]
    fn nil_requires_suspicion_sb4() {
        // Before any progress timer fires, no correct node ever delivers ⊥
        // (SB4 eventual progress, contrapositive).
        let mut net = net(4, 0, vec![0]);
        net.init_all();
        net.propose(0, 0, batch(9));
        net.run_messages();
        for node in 0..4 {
            assert_ne!(net.log_of(node).get(&0), Some(&None));
        }
    }

    #[test]
    fn sender_crashing_mid_segment_terminates_with_mixed_values() {
        let mut net = net(4, 0, vec![0, 1, 2, 3]);
        net.init_all();
        net.propose(0, 0, batch(1));
        net.propose(0, 1, batch(2));
        net.run_messages();
        // Sender crashes before proposing 2 and 3.
        net.crash(0);
        net.run(16);
        for node in 1..4 {
            assert!(net.instances[node].is_complete(), "termination after crash");
            assert_eq!(net.log_of(node).get(&0).unwrap().as_ref(), Some(&batch(1)));
            assert_eq!(net.log_of(node).get(&1).unwrap().as_ref(), Some(&batch(2)));
            assert_eq!(net.log_of(node).get(&2), Some(&None));
            assert_eq!(net.log_of(node).get(&3), Some(&None));
        }
        net.assert_agreement();
    }

    #[test]
    fn stale_progress_timers_do_not_abort_a_live_sender() {
        let mut net = net(4, 0, vec![0, 1]);
        net.init_all();
        net.propose(0, 0, batch(0));
        net.run_messages();
        // The delivery of 0 re-armed every progress timer, which replaces
        // the arming of SB-INIT: no fire is left to vote ⊥ for 1.
        net.propose(0, 1, batch(1));
        net.run_messages();
        assert!(net.all_complete());
        for node in 0..4 {
            assert_eq!(net.log_of(node).get(&1).unwrap().as_ref(), Some(&batch(1)));
        }
    }

    #[test]
    fn proposals_outside_segment_are_ignored() {
        let mut net = net(4, 0, vec![0, 1]);
        net.init_all();
        net.propose(0, 99, batch(1));
        net.run_messages();
        for node in 0..4 {
            assert!(net.log_of(node).is_empty());
        }
    }

    #[test]
    fn non_sender_broadcasts_are_ignored() {
        // A Byzantine non-leader node (node 2) fabricates BrbSend messages.
        let mut net = net(4, 0, vec![0]);
        net.init_all();
        let forged = batch(7);
        for to in [0u32, 1, 3] {
            net.inject_message(
                NodeId(2),
                NodeId(to),
                SbMsg::Reference(RefSbMsg::BrbSend {
                    seq_nr: 0,
                    batch: forged.clone(),
                }),
            );
        }
        net.run_messages();
        for node in [0usize, 1, 3] {
            assert!(
                net.log_of(node).get(&0).is_none(),
                "node {node} must not deliver a batch sb-cast by a non-sender"
            );
        }
    }

    #[test]
    fn equivocating_sender_is_blocked_by_brb_and_resolves_to_nil() {
        // The designated sender (node 0) equivocates: it sb-casts batch A to
        // node 1 and a conflicting batch B to nodes 2 and 3 for the same
        // sequence number. BRB consistency blocks both: digest(A) gathers one
        // echo and digest(B) two, so neither reaches the 2f+1 = 3 echo
        // quorum, no ready forms, and no correct node brb-delivers or votes
        // for a batch.
        let mut net = net(4, 0, vec![0]);
        net.crash(0);
        net.init_all();
        let (a, b) = (batch(1), batch(2));
        assert_ne!(batch_digest(&a), batch_digest(&b));
        net.inject_message(
            NodeId(0),
            NodeId(1),
            SbMsg::Reference(RefSbMsg::BrbSend {
                seq_nr: 0,
                batch: a,
            }),
        );
        for to in [2u32, 3] {
            net.inject_message(
                NodeId(0),
                NodeId(to),
                SbMsg::Reference(RefSbMsg::BrbSend {
                    seq_nr: 0,
                    batch: b.clone(),
                }),
            );
        }
        net.run_messages();
        for node in 1..4 {
            assert!(
                net.log_of(node).is_empty(),
                "node {node} must not deliver either equivocated batch"
            );
        }
        // The progress timeout eventually suspects the stalled sender; the
        // abort path votes ⊥ and the three correct nodes form a ⊥ quorum.
        net.run(16);
        for node in 1..4 {
            assert_eq!(net.log_of(node).get(&0), Some(&None), "resolved via ⊥");
            assert!(net.instances[node].is_complete());
        }
        net.assert_agreement();
    }

    #[test]
    fn rejecting_validator_blocks_delivery_of_invalid_batches() {
        use crate::validator::RejectAll;
        let mut net = net(4, 0, vec![0]);
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
    fn completion_tracks_delivery_progress() {
        let mut net = net(4, 0, vec![0, 1]);
        net.init_all();
        net.propose(0, 0, batch(0));
        net.run_messages();
        assert_eq!(net.log_of(1).len(), 1);
        assert!(!net.instances[1].is_complete());
        net.propose(0, 1, batch(1));
        net.run_messages();
        assert_eq!(net.log_of(1).len(), 2);
        assert!(net.instances[1].is_complete());
    }
}
