//! The chained-HotStuff state machine for one segment.

use iss_crypto::{Digest, Sha256, ThresholdScheme};
use iss_messages::hotstuff::{HsBlock, QuorumCert};
use iss_messages::{HotStuffMsg, SbMsg};
use iss_sb::{SbContext, SbInstance};
use iss_types::{Batch, Duration, NodeId, Segment, SeqNr, ViewNr};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Number of dummy views appended to flush the pipeline (Section 4.2.2).
pub const DUMMY_VIEWS: u64 = 3;

/// HotStuff instance configuration.
#[derive(Clone, Copy, Debug)]
pub struct HotStuffConfig {
    /// Pacemaker timeout: time without progress before the leader round
    /// advances.
    pub pacemaker_timeout: Duration,
}

impl Default for HotStuffConfig {
    fn default() -> Self {
        HotStuffConfig {
            pacemaker_timeout: Duration::from_secs(10),
        }
    }
}

/// Computes the digest of a block (view, seq_nr, batch digest, parent).
fn block_digest(block: &HsBlock) -> Digest {
    let batch_digest = match &block.batch {
        Some(b) => iss_crypto::batch_digest(b),
        None => [0u8; 32],
    };
    let mut h = Sha256::new();
    h.update(&block.view.to_le_bytes());
    h.update(&block.seq_nr.map(|s| s + 1).unwrap_or(0).to_le_bytes());
    h.update(&batch_digest);
    h.update(&block.justify.block);
    h.finalize()
}

/// Chained HotStuff as an SB instance.
pub struct HotStuffInstance {
    my_id: NodeId,
    segment: Arc<Segment>,
    scheme: ThresholdScheme,

    /// Blocks by view, together with their digest.
    blocks: BTreeMap<ViewNr, (HsBlock, Digest)>,
    /// Views for which a quorum certificate is known.
    certified: BTreeMap<ViewNr, QuorumCert>,
    /// Votes collected by the (current) leader, per view.
    votes: HashMap<ViewNr, Vec<iss_crypto::ThresholdShare>>,
    /// Highest certified view / QC known.
    high_qc: QuorumCert,
    /// Highest view this node voted in (vote-once rule).
    last_voted: ViewNr,
    /// Batches queued by the embedding, keyed by segment sequence number.
    pending: BTreeMap<SeqNr, Batch>,
    /// Leader round: 0 means the segment leader leads; each pacemaker timeout
    /// advances it by one.
    leader_round: u64,
    /// Next view this node would propose if it is the current leader.
    next_propose_view: ViewNr,
    /// Views already delivered.
    delivered_views: BTreeMap<ViewNr, ()>,
    delivered: usize,
    current_timeout: Duration,
}

impl HotStuffInstance {
    /// Creates a HotStuff instance for `my_id` over `segment`.
    pub fn new(my_id: NodeId, segment: Arc<Segment>, config: HotStuffConfig) -> Self {
        let domain = format!(
            "hotstuff-{}-{}",
            segment.instance.epoch, segment.instance.index
        );
        let scheme = ThresholdScheme::new(
            segment.nodes.len(),
            segment.strong_quorum(),
            domain.as_bytes(),
        )
        .expect("2f+1 <= n");
        let current_timeout = config.pacemaker_timeout;
        HotStuffInstance {
            my_id,
            segment,
            scheme,
            blocks: BTreeMap::new(),
            certified: BTreeMap::new(),
            votes: HashMap::new(),
            high_qc: QuorumCert::genesis(),
            last_voted: 0,
            pending: BTreeMap::new(),
            leader_round: 0,
            next_propose_view: 1,
            delivered_views: BTreeMap::new(),
            delivered: 0,
            current_timeout,
        }
    }

    /// Total number of views of the segment, including dummy views.
    pub fn total_views(&self) -> u64 {
        self.segment.seq_nrs.len() as u64 + DUMMY_VIEWS
    }

    /// The segment sequence number a view decides, if it is not a dummy view.
    fn seq_nr_of_view(&self, view: ViewNr) -> Option<SeqNr> {
        if view == 0 || view > self.segment.seq_nrs.len() as u64 {
            None
        } else {
            Some(self.segment.seq_nrs[(view - 1) as usize])
        }
    }

    /// The current leader: the segment leader in round 0, rotating afterwards.
    pub fn current_leader(&self) -> NodeId {
        let n = self.segment.nodes.len();
        let leader_pos = self
            .segment
            .nodes
            .iter()
            .position(|x| *x == self.segment.leader)
            .unwrap_or(0);
        self.segment.nodes[(leader_pos + self.leader_round as usize) % n]
    }

    fn is_leader(&self) -> bool {
        self.current_leader() == self.my_id
    }

    /// Leader: propose the next view if its justification (QC of the previous
    /// view) is available and a payload is ready.
    fn try_propose(&mut self, ctx: &mut SbContext<'_>) {
        while self.is_leader() && self.next_propose_view <= self.total_views() {
            let view = self.next_propose_view;
            // The justification is the QC of the previous view (genesis for view 1).
            let justify = if view == 1 {
                QuorumCert::genesis()
            } else {
                match self.certified.get(&(view - 1)) {
                    Some(qc) => qc.clone(),
                    None => return, // pipeline not ready yet
                }
            };
            let seq_nr = self.seq_nr_of_view(view);
            let batch = match seq_nr {
                // Dummy view: always an empty payload.
                None => None,
                Some(sn) => {
                    if self.leader_round > 0 {
                        // A replacement leader proposes only ⊥ (SB adaptation).
                        None
                    } else {
                        match self.pending.remove(&sn) {
                            Some(b) => Some(b),
                            None => return, // wait for the embedding to provide the batch
                        }
                    }
                }
            };
            let block = HsBlock {
                view,
                seq_nr,
                batch,
                justify,
            };
            let digest = block_digest(&block);
            self.blocks.insert(view, (block.clone(), digest));
            self.next_propose_view += 1;
            ctx.broadcast(SbMsg::HotStuff(HotStuffMsg::Proposal {
                block: block.clone(),
            }));
            // The leader votes for its own proposal.
            let share = self.scheme.sign_share(self.my_id, &digest);
            self.record_vote(view, digest, share, ctx);
            self.check_commit(ctx);
        }
    }

    fn record_vote(
        &mut self,
        view: ViewNr,
        digest: Digest,
        share: iss_crypto::ThresholdShare,
        ctx: &mut SbContext<'_>,
    ) {
        // Only the current leader aggregates votes.
        if !self.is_leader() {
            return;
        }
        // Ignore votes for unknown or mismatching blocks.
        let Some((_, expected)) = self.blocks.get(&view) else {
            return;
        };
        if *expected != digest || self.certified.contains_key(&view) {
            return;
        }
        if self.scheme.verify_share(&share, &digest).is_err() {
            return;
        }
        let shares = self.votes.entry(view).or_default();
        if shares.iter().any(|s| s.signer == share.signer) {
            return;
        }
        shares.push(share);
        if shares.len() >= self.segment.strong_quorum() {
            if let Ok(signature) = self.scheme.aggregate(shares, &digest) {
                let qc = QuorumCert {
                    view,
                    block: digest,
                    signature: Some(signature),
                };
                self.install_qc(qc, ctx);
                self.try_propose(ctx);
            }
        }
    }

    fn install_qc(&mut self, qc: QuorumCert, ctx: &mut SbContext<'_>) {
        if self.certified.contains_key(&qc.view) {
            return;
        }
        if qc.view > self.high_qc.view || self.high_qc.signature.is_none() {
            self.high_qc = qc.clone();
        }
        self.certified.insert(qc.view, qc);
        self.check_commit(ctx);
        // Progress: reset the pacemaker, the instance's one timer.
        ctx.set_timer(0, self.current_timeout);
    }

    /// Three-chain commit rule: once views w-2, w-1, w are all certified,
    /// the block of view w-2 is decided.
    fn check_commit(&mut self, ctx: &mut SbContext<'_>) {
        let certified_views: Vec<ViewNr> = self.certified.keys().copied().collect();
        for w in certified_views {
            if w < 3 {
                // Views 1 and 2 are decided by the chains ending at views 3 and 4.
                continue;
            }
            if self.certified.contains_key(&(w - 1)) && self.certified.contains_key(&(w - 2)) {
                self.decide(w - 2, ctx);
            }
        }
        // The first two views are decided once their three-chain completes.
        if self.certified.contains_key(&1)
            && self.certified.contains_key(&2)
            && self.certified.contains_key(&3)
        {
            self.decide(1, ctx);
        }
        if self.certified.contains_key(&2)
            && self.certified.contains_key(&3)
            && self.certified.contains_key(&4)
        {
            self.decide(2, ctx);
        }
    }

    fn decide(&mut self, view: ViewNr, ctx: &mut SbContext<'_>) {
        if self.delivered_views.contains_key(&view) {
            return;
        }
        let Some((block, _)) = self.blocks.get(&view) else {
            return;
        };
        let Some(seq_nr) = block.seq_nr else {
            self.delivered_views.insert(view, ());
            return; // dummy view, nothing to deliver
        };
        self.delivered_views.insert(view, ());
        ctx.deliver(seq_nr, block.batch.clone());
        self.delivered += 1;
    }
}

impl SbInstance for HotStuffInstance {
    fn init(&mut self, ctx: &mut SbContext<'_>) {
        ctx.set_timer(0, self.current_timeout);
    }

    fn propose(&mut self, seq_nr: SeqNr, batch: Batch, ctx: &mut SbContext<'_>) {
        if self.my_id != self.segment.leader || !self.segment.contains(seq_nr) {
            return;
        }
        self.pending.insert(seq_nr, batch);
        self.try_propose(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: SbMsg, ctx: &mut SbContext<'_>) {
        let SbMsg::HotStuff(msg) = msg else { return };
        match msg {
            HotStuffMsg::Proposal { block } => {
                // Proposals must come from the current leader.
                if from != self.current_leader() {
                    return;
                }
                let view = block.view;
                if view == 0 || view > self.total_views() || self.blocks.contains_key(&view) {
                    return;
                }
                // The justification must be a valid QC for the previous view.
                if view > 1 {
                    let qc = &block.justify;
                    if qc.view != view - 1 {
                        return;
                    }
                    match &qc.signature {
                        Some(sig) => {
                            if self.scheme.verify(sig, &qc.block).is_err() {
                                return;
                            }
                        }
                        None => return,
                    }
                }
                // Sequence-number / view consistency and ISS validation.
                if block.seq_nr != self.seq_nr_of_view(view) {
                    return;
                }
                if let Some(b) = &block.batch {
                    if block.seq_nr.is_some() && !b.is_empty() {
                        if let Some(sn) = block.seq_nr {
                            if ctx.validator.validate_proposal(sn, b).is_err() {
                                return;
                            }
                        }
                    }
                }
                let digest = block_digest(&block);
                // Learn the QC carried by the proposal.
                if block.justify.signature.is_some() {
                    self.install_qc(block.justify.clone(), ctx);
                }
                self.blocks.insert(view, (block, digest));
                // Vote-once rule.
                if view > self.last_voted {
                    self.last_voted = view;
                    let share = self.scheme.sign_share(self.my_id, &digest);
                    let leader = self.current_leader();
                    if leader == self.my_id {
                        self.record_vote(view, digest, share, ctx);
                    } else {
                        ctx.send(
                            leader,
                            SbMsg::HotStuff(HotStuffMsg::Vote {
                                view,
                                block: digest,
                                share,
                            }),
                        );
                    }
                }
                self.check_commit(ctx);
            }
            HotStuffMsg::Vote { view, block, share } => {
                if from != share.signer {
                    return;
                }
                self.record_vote(view, block, share, ctx);
            }
            HotStuffMsg::NewView { view: _, high_qc } => {
                if let Some(sig) = &high_qc.signature {
                    if self.scheme.verify(sig, &high_qc.block).is_ok() {
                        self.install_qc(high_qc, ctx);
                    }
                }
                if self.is_leader() {
                    self.try_propose(ctx);
                    // The sender may have missed proposals sent before it
                    // advanced its leader round: re-send every block that is
                    // not certified yet so it can vote.
                    let resend: Vec<HsBlock> = self
                        .blocks
                        .iter()
                        .filter(|(v, _)| !self.certified.contains_key(*v))
                        .map(|(_, (b, _))| b.clone())
                        .collect();
                    for block in resend {
                        ctx.send(from, SbMsg::HotStuff(HotStuffMsg::Proposal { block }));
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut SbContext<'_>) {
        if self.is_complete() {
            return;
        }
        // Pacemaker timeout: suspect the current leader, advance the round,
        // send our high QC to the new leader.
        self.leader_round += 1;
        self.current_timeout = self.current_timeout.saturating_mul(2);
        // Resume proposing from the first view without a certified block.
        let first_uncertified = (1..=self.total_views())
            .find(|v| !self.certified.contains_key(v))
            .unwrap_or(self.total_views());
        self.next_propose_view = self.next_propose_view.max(first_uncertified);
        let leader = self.current_leader();
        if leader == self.my_id {
            self.try_propose(ctx);
        } else {
            ctx.send(
                leader,
                SbMsg::HotStuff(HotStuffMsg::NewView {
                    view: self.next_propose_view,
                    high_qc: self.high_qc.clone(),
                }),
            );
        }
        ctx.set_timer(0, self.current_timeout);
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

    fn net(
        n: usize,
        leader: u32,
        seq_nrs: Vec<SeqNr>,
        timeout_ms: u64,
    ) -> LocalNet<HotStuffInstance> {
        let instances = (0..n)
            .map(|i| {
                HotStuffInstance::new(
                    NodeId(i as u32),
                    segment(n, leader, seq_nrs.clone()),
                    HotStuffConfig {
                        pacemaker_timeout: Duration::from_millis(timeout_ms),
                    },
                )
            })
            .collect();
        LocalNet::new(instances)
    }

    fn batch(tag: u32) -> Batch {
        Batch::new(vec![Request::synthetic(ClientId(tag), tag as u64, 100)])
    }

    #[test]
    fn figure4_segment_of_three_decides_after_dummy_views() {
        // Figure 4: a segment with sequence numbers {0, 4, 8}; the three dummy
        // views at the end flush the pipeline so batch 8 is decided too.
        let mut net = net(4, 0, vec![0, 4, 8], 10_000);
        net.init_all();
        for (i, sn) in [0u64, 4, 8].iter().enumerate() {
            net.propose(0, *sn, batch(i as u32));
        }
        net.run_messages();
        assert!(net.all_complete());
        net.assert_agreement();
        for node in 0..4 {
            assert_eq!(net.log_of(node).get(&0).unwrap().as_ref(), Some(&batch(0)));
            assert_eq!(net.log_of(node).get(&4).unwrap().as_ref(), Some(&batch(1)));
            assert_eq!(net.log_of(node).get(&8).unwrap().as_ref(), Some(&batch(2)));
        }
    }

    #[test]
    fn proposals_arriving_out_of_order_are_buffered() {
        let mut net = net(4, 0, vec![0, 1], 10_000);
        net.init_all();
        // The embedding provides the batch for sequence number 1 before 0.
        net.propose(0, 1, batch(11));
        net.run_messages();
        // Nothing can be decided yet: view 1 (sn 0) has no payload.
        assert!(!net.instances[1].is_complete());
        net.propose(0, 0, batch(10));
        net.run_messages();
        assert!(net.all_complete());
        net.assert_agreement();
    }

    #[test]
    fn crashed_leader_leads_to_nil_deliveries() {
        let mut net = net(4, 0, vec![0, 1], 50);
        net.init_all();
        net.crash(0);
        net.run(40);
        for node in 1..4 {
            assert!(
                net.instances[node].is_complete(),
                "node {node} delivered {}",
                net.log_of(node).len()
            );
            assert_eq!(net.log_of(node).get(&0), Some(&None));
            assert_eq!(net.log_of(node).get(&1), Some(&None));
        }
        net.assert_agreement();
    }

    #[test]
    fn votes_with_bad_shares_are_ignored() {
        let mut net = net(4, 0, vec![0], 10_000);
        net.init_all();
        net.propose(0, 0, batch(1));
        // Inject a forged vote claiming to be from node 2 with a bogus share.
        let scheme = ThresholdScheme::new(4, 3, b"bogus").unwrap();
        let share = scheme.sign_share(NodeId(2), b"whatever");
        net.inject_message(
            NodeId(2),
            NodeId(0),
            SbMsg::HotStuff(HotStuffMsg::Vote {
                view: 1,
                block: [0u8; 32],
                share,
            }),
        );
        net.run_messages();
        // Delivery still works correctly via the 2f+1 honest votes.
        assert!(net.all_complete());
        net.assert_agreement();
    }

    #[test]
    fn proposals_from_non_leader_are_ignored() {
        let mut net = net(4, 0, vec![0], 10_000);
        net.init_all();
        let block = HsBlock {
            view: 1,
            seq_nr: Some(0),
            batch: Some(batch(5)),
            justify: QuorumCert::genesis(),
        };
        for to in [0u32, 1, 3] {
            net.inject_message(
                NodeId(2),
                NodeId(to),
                SbMsg::HotStuff(HotStuffMsg::Proposal {
                    block: block.clone(),
                }),
            );
        }
        net.run_messages();
        for node in [0usize, 1, 3] {
            assert!(net.log_of(node).is_empty());
        }
    }

    #[test]
    fn rejecting_validator_blocks_progress() {
        let mut net = net(4, 0, vec![0], 10_000);
        for node in 1..4 {
            net.set_validator(node, Box::new(RejectAll));
        }
        net.init_all();
        net.propose(0, 0, batch(1));
        net.run_messages();
        for node in 1..4 {
            assert!(net.log_of(node).is_empty());
        }
    }

    #[test]
    fn larger_segment_pipeline_commits_everything() {
        let seq: Vec<SeqNr> = (0..16).map(|i| i * 4 + 1).collect();
        let mut net = net(4, 1, seq.clone(), 10_000);
        net.init_all();
        for (i, sn) in seq.iter().enumerate() {
            net.propose(1, *sn, batch(i as u32));
        }
        net.run_messages();
        assert!(net.all_complete());
        net.assert_agreement();
        for (i, sn) in seq.iter().enumerate() {
            assert_eq!(
                net.log_of(0).get(sn).unwrap().as_ref(),
                Some(&batch(i as u32))
            );
        }
    }

    #[test]
    fn view_to_seq_nr_mapping() {
        let inst = HotStuffInstance::new(
            NodeId(0),
            segment(4, 0, vec![3, 7, 11]),
            HotStuffConfig::default(),
        );
        assert_eq!(inst.total_views(), 6);
        assert_eq!(inst.seq_nr_of_view(1), Some(3));
        assert_eq!(inst.seq_nr_of_view(3), Some(11));
        assert_eq!(inst.seq_nr_of_view(4), None, "dummy view");
        assert_eq!(inst.seq_nr_of_view(0), None);
        assert_eq!(inst.current_leader(), NodeId(0));
    }
}
