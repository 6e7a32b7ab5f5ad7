//! The Raft state machine for one segment.

use iss_messages::raft::RaftEntry;
use iss_messages::{RaftMsg, SbMsg};
use iss_sb::{SbContext, SbInstance};
use iss_types::{Batch, Duration, NodeId, Segment, SeqNr, ViewNr};
use rand::Rng;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Timer tags: the instance's one timer is armed either as the election
/// timeout or as the leader's heartbeat, and the tag says which.
const TIMER_ELECTION: u64 = 0;
const TIMER_HEARTBEAT: u64 = 1;

/// Raft instance configuration.
#[derive(Clone, Copy, Debug)]
pub struct RaftConfig {
    /// Leader heartbeat / retransmission interval.
    pub heartbeat_interval: Duration,
    /// Lower bound of the randomized election timeout window.
    pub election_timeout_min: Duration,
    /// Upper bound of the randomized election timeout window. The window is
    /// doubled whenever an election fails to elect a leader (Section 4.2.3).
    pub election_timeout_max: Duration,
}

impl Default for RaftConfig {
    fn default() -> Self {
        RaftConfig {
            heartbeat_interval: Duration::from_millis(500),
            election_timeout_min: Duration::from_secs(10),
            election_timeout_max: Duration::from_secs(20),
        }
    }
}

/// The role a node currently plays within the instance.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Role {
    Follower,
    Candidate,
    Leader,
}

/// Raft as an SB instance.
pub struct RaftInstance {
    my_id: NodeId,
    segment: Arc<Segment>,
    config: RaftConfig,

    term: ViewNr,
    role: Role,
    voted_for: HashMap<ViewNr, NodeId>,
    votes_received: usize,
    /// The replicated log; position `i` decides `segment.seq_nrs[i]`.
    log: Vec<RaftEntry>,
    commit_index: i64,
    last_delivered: i64,

    /// Leader volatile state: highest log index known replicated per node.
    match_index: HashMap<NodeId, i64>,
    /// Batches provided by the embedding, keyed by sequence number, not yet
    /// appended to the log.
    pending: BTreeMap<SeqNr, Batch>,

    election_window: (Duration, Duration),
    delivered: usize,
}

impl RaftInstance {
    /// Creates a Raft instance for `my_id` over `segment`.
    ///
    /// The election phase is skipped: the segment leader starts as the Raft
    /// leader of term 1 (Section 4.2.3).
    pub fn new(my_id: NodeId, segment: Arc<Segment>, config: RaftConfig) -> Self {
        let role = if my_id == segment.leader {
            Role::Leader
        } else {
            Role::Follower
        };
        let election_window = (config.election_timeout_min, config.election_timeout_max);
        RaftInstance {
            my_id,
            segment,
            config,
            term: 1,
            role,
            voted_for: HashMap::new(),
            votes_received: 0,
            log: Vec::new(),
            commit_index: -1,
            last_delivered: -1,
            match_index: HashMap::new(),
            pending: BTreeMap::new(),
            election_window,
            delivered: 0,
        }
    }

    /// The current term.
    pub fn term(&self) -> ViewNr {
        self.term
    }

    /// Whether this node currently acts as the Raft leader of the instance.
    pub fn is_leader(&self) -> bool {
        self.role == Role::Leader
    }

    fn majority(&self) -> usize {
        self.segment.majority_quorum()
    }

    fn arm_election_timer(&self, ctx: &mut SbContext<'_>) {
        let (min, max) = self.election_window;
        let span = max.as_micros().saturating_sub(min.as_micros()).max(1);
        let delay = Duration::from_micros(min.as_micros() + ctx.rng.gen_range(0..span));
        ctx.set_timer(TIMER_ELECTION, delay);
    }

    /// Leader: move pending batches into the log in segment order.
    fn absorb_pending(&mut self) {
        while self.log.len() < self.segment.seq_nrs.len() {
            let next_sn = self.segment.seq_nrs[self.log.len()];
            match self.pending.remove(&next_sn) {
                Some(batch) => self.log.push(RaftEntry {
                    term: self.term,
                    seq_nr: next_sn,
                    batch: Some(batch),
                }),
                None => break,
            }
        }
    }

    /// Leader: fill the remainder of the log with ⊥ entries (used by a
    /// replacement leader, which may only propose ⊥ — the SB adaptation).
    fn fill_with_nil(&mut self) {
        while self.log.len() < self.segment.seq_nrs.len() {
            let next_sn = self.segment.seq_nrs[self.log.len()];
            self.log.push(RaftEntry {
                term: self.term,
                seq_nr: next_sn,
                batch: None,
            });
        }
    }

    /// Leader: send append-entries (possibly empty heartbeats) to followers.
    fn replicate(&mut self, ctx: &mut SbContext<'_>) {
        if self.role != Role::Leader {
            return;
        }
        for &node in &self.segment.nodes {
            if node == self.my_id {
                continue;
            }
            let matched = *self.match_index.get(&node).unwrap_or(&-1);
            let from_idx = (matched + 1) as usize;
            let entries: Vec<RaftEntry> = self.log.get(from_idx..).unwrap_or(&[]).to_vec();
            let prev_index = matched;
            let prev_term = if prev_index >= 0 {
                self.log
                    .get(prev_index as usize)
                    .map(|e| e.term)
                    .unwrap_or(0)
            } else {
                0
            };
            ctx.send(
                node,
                SbMsg::Raft(RaftMsg::AppendEntries {
                    term: self.term,
                    prev_index: (prev_index + 1) as u64, // encode -1 as 0, i as i+1
                    prev_term,
                    entries,
                    leader_commit: (self.commit_index + 1) as u64,
                }),
            );
        }
    }

    /// Leader: recompute the commit index from the match indices.
    fn advance_commit(&mut self, ctx: &mut SbContext<'_>) {
        if self.role != Role::Leader {
            return;
        }
        let before = self.commit_index;
        for idx in ((self.commit_index + 1) as usize)..self.log.len() {
            let replicated = 1 + self
                .segment
                .nodes
                .iter()
                .filter(|n| **n != self.my_id)
                .filter(|n| *self.match_index.get(n).unwrap_or(&-1) >= idx as i64)
                .count();
            // Only entries of the current term are committed by counting
            // (Raft's commitment rule); earlier-term entries commit implicitly.
            if replicated >= self.majority() && self.log[idx].term == self.term {
                self.commit_index = idx as i64;
            }
        }
        self.deliver_committed(ctx);
        // Propagate the new commit index to followers right away instead of
        // waiting for the next heartbeat (reduces end-to-end latency).
        if self.commit_index > before {
            self.replicate(ctx);
        }
    }

    fn deliver_committed(&mut self, ctx: &mut SbContext<'_>) {
        while self.last_delivered < self.commit_index {
            let idx = (self.last_delivered + 1) as usize;
            let entry = &self.log[idx];
            ctx.deliver(entry.seq_nr, entry.batch.clone());
            self.delivered += 1;
            self.last_delivered += 1;
        }
    }

    fn become_leader(&mut self, ctx: &mut SbContext<'_>) {
        self.role = Role::Leader;
        self.match_index.clear();
        // A replacement leader proposes ⊥ for every slot it has no entry for.
        self.fill_with_nil();
        self.replicate(ctx);
        ctx.set_timer(TIMER_HEARTBEAT, self.config.heartbeat_interval);
    }

    fn start_election(&mut self, ctx: &mut SbContext<'_>) {
        self.term += 1;
        self.role = Role::Candidate;
        self.voted_for.insert(self.term, self.my_id);
        self.votes_received = 1;
        let last_log_index = self.log.len() as u64;
        let last_log_term = self.log.last().map(|e| e.term).unwrap_or(0);
        ctx.broadcast(SbMsg::Raft(RaftMsg::RequestVote {
            term: self.term,
            last_log_index,
            last_log_term,
        }));
        // Double the election window (eventual synchrony adaptation).
        self.election_window = (
            self.election_window.0.saturating_mul(2),
            self.election_window.1.saturating_mul(2),
        );
        self.arm_election_timer(ctx);
        // Single-node segments elect themselves immediately.
        if self.votes_received >= self.majority() {
            self.become_leader(ctx);
        }
    }
}

impl SbInstance for RaftInstance {
    fn init(&mut self, ctx: &mut SbContext<'_>) {
        if self.role == Role::Leader {
            ctx.set_timer(TIMER_HEARTBEAT, self.config.heartbeat_interval);
        } else {
            self.arm_election_timer(ctx);
        }
    }

    fn propose(&mut self, seq_nr: SeqNr, batch: Batch, ctx: &mut SbContext<'_>) {
        if self.my_id != self.segment.leader || self.role != Role::Leader {
            return;
        }
        if !self.segment.contains(seq_nr) {
            return;
        }
        self.pending.insert(seq_nr, batch);
        self.absorb_pending();
        self.replicate(ctx);
        self.advance_commit(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: SbMsg, ctx: &mut SbContext<'_>) {
        let SbMsg::Raft(msg) = msg else { return };
        match msg {
            RaftMsg::AppendEntries {
                term,
                prev_index,
                prev_term,
                entries,
                leader_commit,
            } => {
                if term < self.term {
                    ctx.send(
                        from,
                        SbMsg::Raft(RaftMsg::AppendResponse {
                            term: self.term,
                            success: false,
                            match_index: 0,
                        }),
                    );
                    return;
                }
                // Valid leader for this term: step down if needed, reset timer.
                self.term = term;
                if self.role != Role::Follower {
                    self.role = Role::Follower;
                }
                self.arm_election_timer(ctx);

                // Log-matching check. `prev_index` encodes -1 as 0, i as i+1.
                let prev = prev_index as i64 - 1;
                let matches = if prev < 0 {
                    true
                } else {
                    self.log
                        .get(prev as usize)
                        .map(|e| e.term == prev_term)
                        .unwrap_or(false)
                };
                if !matches {
                    ctx.send(
                        from,
                        SbMsg::Raft(RaftMsg::AppendResponse {
                            term: self.term,
                            success: false,
                            match_index: (self.log.len()) as u64,
                        }),
                    );
                    return;
                }
                // Append / overwrite entries after prev, validating proposals.
                for (idx, entry) in ((prev + 1) as usize..).zip(entries) {
                    let conflicting = self
                        .log
                        .get(idx)
                        .map(|e| e.term != entry.term)
                        .unwrap_or(false);
                    if conflicting {
                        self.log.truncate(idx);
                    }
                    if self.log.len() == idx {
                        if let Some(b) = &entry.batch {
                            if ctx.validator.validate_proposal(entry.seq_nr, b).is_err() {
                                break;
                            }
                        }
                        self.log.push(entry);
                    }
                }
                // Advance our commit index based on the leader's.
                let leader_commit = leader_commit as i64 - 1;
                if leader_commit > self.commit_index {
                    self.commit_index = leader_commit.min(self.log.len() as i64 - 1);
                    self.deliver_committed(ctx);
                }
                ctx.send(
                    from,
                    SbMsg::Raft(RaftMsg::AppendResponse {
                        term: self.term,
                        success: true,
                        match_index: self.log.len() as u64,
                    }),
                );
            }
            RaftMsg::AppendResponse {
                term,
                success,
                match_index,
            } => {
                if self.role != Role::Leader || term > self.term {
                    return;
                }
                if success {
                    let idx = match_index as i64 - 1;
                    let entry = self.match_index.entry(from).or_insert(-1);
                    if idx > *entry {
                        *entry = idx;
                    }
                    self.advance_commit(ctx);
                } else {
                    // Follower is behind: retransmission happens on the next
                    // heartbeat from its match index (kept conservative).
                    self.match_index.entry(from).or_insert(-1);
                }
            }
            RaftMsg::RequestVote {
                term,
                last_log_index,
                last_log_term,
            } => {
                if term <= self.term {
                    ctx.send(
                        from,
                        SbMsg::Raft(RaftMsg::VoteResponse {
                            term: self.term,
                            granted: false,
                        }),
                    );
                    return;
                }
                self.term = term;
                self.role = Role::Follower;
                // Grant if we have not voted in this term and the candidate's
                // log is at least as up to date as ours.
                let our_last_term = self.log.last().map(|e| e.term).unwrap_or(0);
                let up_to_date = last_log_term > our_last_term
                    || (last_log_term == our_last_term && last_log_index >= self.log.len() as u64);
                let granted = up_to_date && !self.voted_for.contains_key(&term);
                if granted {
                    self.voted_for.insert(term, from);
                    self.arm_election_timer(ctx);
                }
                ctx.send(from, SbMsg::Raft(RaftMsg::VoteResponse { term, granted }));
            }
            RaftMsg::VoteResponse { term, granted } => {
                if self.role != Role::Candidate || term != self.term || !granted {
                    return;
                }
                self.votes_received += 1;
                if self.votes_received >= self.majority() {
                    self.become_leader(ctx);
                }
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut SbContext<'_>) {
        // A leader that stepped down without arming the election timer
        // still finds its heartbeat deadline here, and ignores it.
        if token == TIMER_HEARTBEAT {
            if self.role == Role::Leader {
                // Periodic (possibly empty) append-entries: heartbeat plus
                // retransmission of anything not yet acknowledged; continues
                // until every follower has the full segment (Section 4.2.3).
                self.absorb_pending();
                let all_matched =
                    self.segment
                        .nodes
                        .iter()
                        .filter(|n| **n != self.my_id)
                        .all(|n| {
                            *self.match_index.get(n).unwrap_or(&-1) + 1
                                >= self.segment.seq_nrs.len() as i64
                        });
                if !(self.is_complete() && all_matched) {
                    self.replicate(ctx);
                    ctx.set_timer(TIMER_HEARTBEAT, self.config.heartbeat_interval);
                }
            }
        } else if token == TIMER_ELECTION && self.role != Role::Leader && !self.is_complete() {
            self.start_election(ctx);
        }
    }

    fn is_complete(&self) -> bool {
        self.delivered == self.segment.seq_nrs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iss_sb::testing::LocalNet;
    use iss_types::{BucketId, ClientId, InstanceId, Request};

    fn segment(n: usize, leader: u32, seq_nrs: Vec<SeqNr>) -> Arc<Segment> {
        Arc::new(Segment {
            instance: InstanceId::new(0, 0),
            leader: NodeId(leader),
            seq_nrs,
            buckets: vec![BucketId(0)],
            nodes: (0..n as u32).map(NodeId).collect(),
            f: (n - 1) / 2,
        })
    }

    fn net(n: usize, leader: u32, seq_nrs: Vec<SeqNr>, election_ms: u64) -> LocalNet<RaftInstance> {
        let config = RaftConfig {
            heartbeat_interval: Duration::from_millis(50),
            election_timeout_min: Duration::from_millis(election_ms),
            election_timeout_max: Duration::from_millis(election_ms * 2),
        };
        let instances = (0..n)
            .map(|i| {
                RaftInstance::new(
                    NodeId(i as u32),
                    segment(n, leader, seq_nrs.clone()),
                    config,
                )
            })
            .collect();
        LocalNet::new(instances)
    }

    fn batch(tag: u32) -> Batch {
        Batch::new(vec![Request::synthetic(ClientId(tag), tag as u64, 100)])
    }

    #[test]
    fn normal_case_replicates_and_commits() {
        let mut net = net(3, 0, vec![0, 1, 2], 10_000);
        net.init_all();
        for sn in 0..3u64 {
            net.propose(0, sn, batch(sn as u32));
        }
        net.run_messages();
        assert!(net.all_complete());
        net.assert_agreement();
        for node in 0..3 {
            for sn in 0..3u64 {
                assert_eq!(
                    net.log_of(node).get(&sn).unwrap().as_ref(),
                    Some(&batch(sn as u32))
                );
            }
        }
    }

    #[test]
    fn five_nodes_tolerate_two_crashed_followers() {
        let mut net = net(5, 1, vec![0, 1], 10_000);
        net.init_all();
        net.crash(3);
        net.crash(4);
        net.propose(1, 0, batch(0));
        net.propose(1, 1, batch(1));
        net.run_messages();
        for node in 0..3 {
            assert!(net.instances[node].is_complete(), "node {node}");
        }
        net.assert_agreement();
    }

    #[test]
    fn crashed_leader_triggers_election_and_nil_filling() {
        let mut net = net(3, 0, vec![0, 1], 100);
        net.init_all();
        net.crash(0);
        net.run(30);
        for node in 1..3 {
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
    fn new_leader_preserves_replicated_entries() {
        let mut net = net(3, 0, vec![0, 1], 100);
        net.init_all();
        net.propose(0, 0, batch(7));
        net.run_messages();
        // Everyone has committed sn 0; now the leader crashes.
        net.crash(0);
        net.run(30);
        for node in 1..3 {
            assert_eq!(net.log_of(node).get(&0).unwrap().as_ref(), Some(&batch(7)));
            assert_eq!(net.log_of(node).get(&1), Some(&None));
            assert!(net.instances[node].is_complete());
        }
        net.assert_agreement();
    }

    #[test]
    fn proposals_by_non_leader_are_ignored() {
        let mut net = net(3, 0, vec![0], 10_000);
        net.init_all();
        net.propose(1, 0, batch(3));
        net.run_messages();
        for node in 0..3 {
            assert!(net.log_of(node).is_empty());
        }
    }

    #[test]
    fn stale_term_append_entries_rejected() {
        let mut net = net(3, 0, vec![0], 10_000);
        net.init_all();
        // A stale message with term 0 (< initial term 1) is answered with a
        // failure and does not disturb the instance.
        net.inject_message(
            NodeId(2),
            NodeId(1),
            SbMsg::Raft(RaftMsg::AppendEntries {
                term: 0,
                prev_index: 0,
                prev_term: 0,
                entries: vec![RaftEntry {
                    term: 0,
                    seq_nr: 0,
                    batch: Some(batch(5)),
                }],
                leader_commit: 1,
            }),
        );
        net.run_messages();
        assert!(net.log_of(1).is_empty());
        // The real leader still works.
        net.propose(0, 0, batch(1));
        net.run_messages();
        assert!(net.all_complete());
        net.assert_agreement();
    }

    #[test]
    fn heartbeats_eventually_commit_followers_that_missed_responses() {
        let mut net = net(3, 0, vec![0], 10_000);
        net.init_all();
        // Drop the first round of messages from the leader to node 2: it will
        // be caught up by a later heartbeat retransmission.
        net.drop_links.insert((NodeId(0), NodeId(2)));
        net.propose(0, 0, batch(1));
        net.run_messages();
        assert!(net.log_of(2).is_empty());
        net.drop_links.clear();
        // Let heartbeat timers fire to retransmit.
        net.run(6);
        assert_eq!(net.log_of(2).get(&0).unwrap().as_ref(), Some(&batch(1)));
        net.assert_agreement();
    }

    #[test]
    fn leader_role_and_term_accessors() {
        let inst = RaftInstance::new(NodeId(0), segment(3, 0, vec![0]), RaftConfig::default());
        assert!(inst.is_leader());
        assert_eq!(inst.term(), 1);
        let follower = RaftInstance::new(NodeId(1), segment(3, 0, vec![0]), RaftConfig::default());
        assert!(!follower.is_leader());
    }
}
