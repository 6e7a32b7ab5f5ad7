//! An in-memory, single-threaded harness for exercising [`SbInstance`]
//! implementations without the network simulator.
//!
//! The harness delivers protocol messages synchronously (FIFO per run loop),
//! keeps a miniature timer wheel, supports crashing nodes and dropping
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

/// A pending timer.
#[derive(Debug)]
struct PendingTimer {
    at: Time,
    seq: u64,
    node: usize,
    token: u64,
}

/// The in-memory harness.
pub struct LocalNet<I> {
    /// The instances, indexed by node index (node `i` has id `NodeId(i)`).
    pub instances: Vec<I>,
    validators: Vec<Box<dyn ProposalValidator>>,
    queue: VecDeque<(NodeId, NodeId, SbMsg)>,
    timers: Vec<PendingTimer>,
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
            timers: Vec::new(),
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

    /// Runs until the message queue is empty and either all timers have fired
    /// or `max_timer_fires` timers have been processed.
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
                .filter(|(_, t)| !self.crashed.contains(&t.node))
                .min_by_key(|(_, t)| (t.at, t.seq))
                .map(|(i, _)| i);
            match next {
                None => break,
                Some(idx) => {
                    let timer = self.timers.remove(idx);
                    if timer.at > self.now {
                        self.now = timer.at;
                    }
                    fired += 1;
                    self.step(timer.node, |inst, ctx| inst.on_timer(timer.token, ctx));
                }
            }
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
                    self.timers.push(PendingTimer {
                        at: self.now + delay,
                        seq: self.timer_seq,
                        node,
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
