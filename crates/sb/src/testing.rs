//! An in-memory, single-threaded harness for exercising [`SbInstance`]
//! implementations without the network simulator.
//!
//! The harness delivers protocol messages synchronously (FIFO per run loop),
//! keeps each instance's one pending timer (a new arming replaces it, as
//! the SB contract says), supports crashing nodes and dropping
//! messages, and records every sb-delivery per node so tests can assert the
//! SB properties (SB1–SB4). It is used by the unit tests of every protocol
//! crate (`iss-pbft`, `iss-hotstuff`, `iss-raft`) as well as by the reference
//! implementation's own tests.

use crate::instance::{SbAction, SbContext, SbInstance};
use crate::validator::{AcceptAll, ProposalValidator};
use iss_messages::SbMsg;
use iss_types::{Batch, NodeId, SeqNr, Time};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashSet, VecDeque};

/// A node's pending timer: the deadline and token of its latest arming.
#[derive(Debug, Clone, Copy)]
struct PendingTimer {
    at: Time,
    seq: u64,
    token: u64,
}

/// The in-memory harness.
pub struct LocalNet<I> {
    /// The instances, indexed by node index (node `i` has id `NodeId(i)`).
    pub instances: Vec<I>,
    validators: Vec<Box<dyn ProposalValidator>>,
    queue: VecDeque<(NodeId, NodeId, SbMsg)>,
    /// Each node's pending timer, by node index.
    timers: Vec<Option<PendingTimer>>,
    timer_seq: u64,
    now: Time,
    crashed: HashSet<usize>,
    /// Per-node sb-delivered values.
    pub delivered: Vec<BTreeMap<SeqNr, Option<Batch>>>,
    rng: StdRng,
    /// Drop every message whose (from, to) pair is in this set.
    pub drop_links: HashSet<(NodeId, NodeId)>,
}

impl<I: SbInstance> LocalNet<I> {
    /// Creates a harness over the given instances with accept-all validators.
    pub fn new(instances: Vec<I>) -> Self {
        let n = instances.len();
        LocalNet {
            instances,
            validators: (0..n)
                .map(|_| Box::new(AcceptAll) as Box<dyn ProposalValidator>)
                .collect(),
            queue: VecDeque::new(),
            timers: vec![None; n],
            timer_seq: 0,
            now: Time::ZERO,
            crashed: HashSet::new(),
            delivered: vec![BTreeMap::new(); n],
            rng: StdRng::seed_from_u64(0xD15C0),
            drop_links: HashSet::new(),
        }
    }

    /// Replaces the validator of one node.
    pub fn set_validator(&mut self, node: usize, validator: Box<dyn ProposalValidator>) {
        self.validators[node] = validator;
    }

    /// Current harness time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Marks a node as crashed: it no longer receives messages or timer
    /// callbacks and its outgoing messages are discarded.
    pub fn crash(&mut self, node: usize) {
        self.crashed.insert(node);
    }

    /// Calls `SB-INIT` on every (non-crashed) instance.
    pub fn init_all(&mut self) {
        for i in 0..self.instances.len() {
            self.step(i, |inst, ctx| inst.init(ctx));
        }
    }

    /// Invokes `propose` (SB-CAST) at the given node.
    pub fn propose(&mut self, node: usize, seq_nr: SeqNr, batch: Batch) {
        self.step(node, |inst, ctx| inst.propose(seq_nr, batch, ctx));
    }

    /// Injects a protocol message as if `from` had sent it to `to` (used to
    /// model Byzantine senders fabricating messages).
    pub fn inject_message(&mut self, from: NodeId, to: NodeId, msg: SbMsg) {
        self.queue.push_back((from, to, msg));
    }

    /// Runs until the message queue is empty and either no timer is pending
    /// or `max_timer_fires` timers have fired.
    pub fn run(&mut self, max_timer_fires: usize) {
        let mut fired = 0;
        loop {
            // Drain all in-flight messages first.
            while let Some((from, to, msg)) = self.queue.pop_front() {
                let node = to.index();
                if self.crashed.contains(&node) {
                    continue;
                }
                self.step(node, |inst, ctx| inst.on_message(from, msg, ctx));
            }
            if fired >= max_timer_fires {
                break;
            }
            // Fire the earliest pending timer, advancing time.
            let next = self
                .timers
                .iter()
                .enumerate()
                .filter(|(node, _)| !self.crashed.contains(node))
                .filter_map(|(node, t)| Some((t.as_ref()?, node)))
                .min_by_key(|(t, _)| (t.at, t.seq))
                .map(|(_, node)| node);
            let Some(node) = next else { break };
            let timer = self.timers[node].take().expect("picked a pending timer");
            self.now = self.now.max(timer.at);
            fired += 1;
            self.step(node, |inst, ctx| inst.on_timer(timer.token, ctx));
        }
    }

    /// Runs without firing any timers (pure message exchange).
    pub fn run_messages(&mut self) {
        self.run(0);
    }

    /// Whether every non-crashed instance reports completion.
    pub fn all_complete(&self) -> bool {
        self.instances
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.crashed.contains(i))
            .all(|(_, inst)| inst.is_complete())
    }

    /// The delivered log of a node.
    pub fn log_of(&self, node: usize) -> &BTreeMap<SeqNr, Option<Batch>> {
        &self.delivered[node]
    }

    /// Asserts SB2 (Agreement): any two correct nodes that delivered the same
    /// sequence number delivered the same value. Panics with a description on
    /// violation; returns the number of compared pairs otherwise.
    pub fn assert_agreement(&self) -> usize {
        let mut compared = 0;
        let live: Vec<usize> = (0..self.instances.len())
            .filter(|i| !self.crashed.contains(i))
            .collect();
        for (ai, &a) in live.iter().enumerate() {
            for &b in &live[ai + 1..] {
                for (sn, va) in &self.delivered[a] {
                    if let Some(vb) = self.delivered[b].get(sn) {
                        assert_eq!(
                            va, vb,
                            "SB2 violated: nodes {a} and {b} disagree on sequence number {sn}"
                        );
                        compared += 1;
                    }
                }
            }
        }
        compared
    }

    fn step<F>(&mut self, node: usize, f: F)
    where
        F: FnOnce(&mut I, &mut SbContext<'_>),
    {
        if self.crashed.contains(&node) {
            return;
        }
        let instance = &mut self.instances[node];
        let validator = &mut self.validators[node];
        let mut ctx = SbContext::new(self.now, validator.as_mut(), &mut self.rng);
        f(instance, &mut ctx);
        let actions = ctx.take_actions();
        self.apply(node, actions);
    }

    fn apply(&mut self, node: usize, actions: Vec<SbAction>) {
        let from = NodeId(node as u32);
        for action in actions {
            match action {
                SbAction::Send { to, msg } => {
                    if !self.crashed.contains(&node) && !self.drop_links.contains(&(from, to)) {
                        self.queue.push_back((from, to, msg));
                    }
                }
                SbAction::Broadcast(msg) => {
                    for to in 0..self.instances.len() {
                        if to != node {
                            let to_id = NodeId(to as u32);
                            if !self.drop_links.contains(&(from, to_id)) {
                                self.queue.push_back((from, to_id, msg.clone()));
                            }
                        }
                    }
                }
                SbAction::Deliver { seq_nr, batch } => {
                    let prev = self.delivered[node].insert(seq_nr, batch);
                    assert!(
                        prev.is_none(),
                        "instance at node {node} delivered sequence number {seq_nr} twice"
                    );
                }
                SbAction::SetTimer { token, delay } => {
                    self.timer_seq += 1;
                    self.timers[node] = Some(PendingTimer {
                        at: self.now + delay,
                        seq: self.timer_seq,
                        token,
                    });
                }
            }
        }
    }
}

/// An inert [`SbInstance`]: ignores every callback and never completes.
///
/// Used by tests and benchmarks that exercise the *embedding*'s bookkeeping
/// (instance storage, dispatch, timer routing) without paying for a real
/// ordering protocol behind it.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSb;

impl SbInstance for NullSb {
    fn init(&mut self, _ctx: &mut SbContext<'_>) {}
    fn propose(&mut self, _seq_nr: SeqNr, _batch: Batch, _ctx: &mut SbContext<'_>) {}
    fn on_message(&mut self, _from: NodeId, _msg: SbMsg, _ctx: &mut SbContext<'_>) {}
    fn on_timer(&mut self, _token: u64, _ctx: &mut SbContext<'_>) {}
    fn is_complete(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iss_types::Duration;

    /// Arms its timer once per `(token, delay)` at `SB-INIT` and records
    /// every expiry with its time.
    struct Arming {
        arms: Vec<(u64, Duration)>,
        fired: Vec<(Time, u64)>,
    }

    impl SbInstance for Arming {
        fn init(&mut self, ctx: &mut SbContext<'_>) {
            for &(token, delay) in &self.arms {
                ctx.set_timer(token, delay);
            }
        }
        fn propose(&mut self, _seq_nr: SeqNr, _batch: Batch, _ctx: &mut SbContext<'_>) {}
        fn on_message(&mut self, _from: NodeId, _msg: SbMsg, _ctx: &mut SbContext<'_>) {}
        fn on_timer(&mut self, token: u64, ctx: &mut SbContext<'_>) {
            self.fired.push((ctx.now, token));
        }
        fn is_complete(&self) -> bool {
            false
        }
    }

    fn fires_of(arms: &[(u64, u64)]) -> Vec<(Time, u64)> {
        let arms: Vec<(u64, Duration)> = arms
            .iter()
            .map(|&(token, ms)| (token, Duration::from_millis(ms)))
            .collect();
        let mut net = LocalNet::new(vec![Arming {
            arms,
            fired: Vec::new(),
        }]);
        net.init_all();
        net.run(100);
        std::mem::take(&mut net.instances[0].fired)
    }

    #[test]
    fn a_rearmed_timer_fires_once_at_its_latest_deadline() {
        let arms: Vec<(u64, u64)> = (1..=5).map(|k| (k, 10 * k)).collect();
        assert_eq!(fires_of(&arms), vec![(Time::from_millis(50), 5)]);
    }

    #[test]
    fn a_shorter_arming_fires_at_the_shorter_deadline() {
        // Raft's randomized election delay can arm a nearer deadline than
        // the one it replaces.
        assert_eq!(
            fires_of(&[(1, 50), (2, 10)]),
            vec![(Time::from_millis(10), 2)]
        );
    }
}
