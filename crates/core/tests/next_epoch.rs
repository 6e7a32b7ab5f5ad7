//! A node enters an epoch once it has itself delivered the previous one, so
//! a peer that got there first already sends SB traffic of the next epoch.
//! That traffic is held back and replayed when this node enters the epoch,
//! within a per-sender bound; a snapshot that jumps past the epoch discards
//! it.

use iss_core::{EpochConfig, IssNode, NodeOptions, NullSink, OrdererFactory};
use iss_crypto::SignatureRegistry;
use iss_messages::isscp::LogEntry;
use iss_messages::{IssMsg, NetMsg, RefSbMsg, SbMsg};
use iss_runtime::{Action, Addr, Context, Event, Process, SansIo};
use iss_sb::reference::ReferenceSb;
use iss_sb::SbInstance;
use iss_types::{Batch, EpochNr, InstanceId, IssConfig, NodeId, SeqNr, Time, TimerId};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::ops::Range;
use std::rc::Rc;
use std::sync::Arc;

const N: usize = 4;

fn config() -> IssConfig {
    let mut config = IssConfig::pbft(N);
    config.min_epoch_length = 8;
    config.client_signatures = false;
    config
}

/// Sequence numbers per epoch.
fn epoch_len() -> SeqNr {
    config().epoch_length(N)
}

/// Mounts a node the test keeps a handle to, so it stays observable.
struct Shared(Rc<RefCell<IssNode>>);

impl Process<NetMsg> for Shared {
    fn on_start(&mut self, ctx: &mut Context<'_, NetMsg>) {
        self.0.borrow_mut().on_start(ctx);
    }
    fn on_message(&mut self, from: Addr, msg: NetMsg, ctx: &mut Context<'_, NetMsg>) {
        self.0.borrow_mut().on_message(from, msg, ctx);
    }
    fn on_timer(&mut self, id: TimerId, kind: u64, ctx: &mut Context<'_, NetMsg>) {
        self.0.borrow_mut().on_timer(id, kind, ctx);
    }
}

/// Node `id` of a 4-node reference-SB cluster on `SansIo`, started. No
/// timer ever fires: every step is a message the test hands in.
fn started(id: u32) -> (SansIo<NetMsg>, Rc<RefCell<IssNode>>) {
    let config = config();
    let timeout = config.epoch_change_timeout;
    let factory: OrdererFactory = Box::new(move |id, seg| {
        Box::new(ReferenceSb::new(id, seg, timeout)) as Box<dyn SbInstance>
    });
    let node = IssNode::new(
        NodeId(id),
        NodeOptions::new(config),
        factory,
        Arc::new(SignatureRegistry::with_processes(N, 0)),
        Rc::new(RefCell::new(NullSink)),
    );
    let node = Rc::new(RefCell::new(node));
    let mut driver = SansIo::new(u64::from(id));
    driver.mount(Addr::Node(NodeId(id)), Box::new(Shared(Rc::clone(&node))));
    driver.handle(Time::ZERO, Event::Start);
    (driver, node)
}

/// The instance node 1 leads in `epoch`, and its first sequence number.
fn led_by_node_1(epoch: EpochNr) -> (InstanceId, SeqNr) {
    let config = config();
    let first = epoch * epoch_len();
    let layout = EpochConfig::build(&config, epoch, first, config.all_nodes());
    let segment = layout
        .segments
        .iter()
        .find(|s| s.leader == NodeId(1))
        .expect("every node leads a segment");
    (segment.instance, segment.seq_nrs[0])
}

fn sb(from: u32, instance: InstanceId, msg: RefSbMsg) -> Event<NetMsg> {
    let msg = SbMsg::Reference(msg);
    Event::Message {
        from: Addr::Node(NodeId(from)),
        msg: NetMsg::Sb { instance, msg },
    }
}

/// Node 1's proposal of an empty batch at its first sequence number of
/// `epoch`.
fn proposal(epoch: EpochNr) -> Event<NetMsg> {
    let (instance, seq_nr) = led_by_node_1(epoch);
    let batch = Batch::new(Vec::new());
    sb(1, instance, RefSbMsg::BrbSend { seq_nr, batch })
}

/// A state response from node 2 transferring ⊥ at every sequence number of
/// `range`.
fn transfer(range: Range<SeqNr>) -> Event<NetMsg> {
    let entries = range
        .map(|seq_nr| LogEntry {
            seq_nr,
            batch: None,
        })
        .collect();
    let response = IssMsg::StateResponse {
        epoch: 0,
        entries,
        root: [0; 32],
        proof: Vec::new(),
    };
    let msg = NetMsg::Iss(response);
    let from = Addr::Node(NodeId(2));
    Event::Message { from, msg }
}

/// Whether `actions` carry an SB message of `epoch`.
fn sends_in_epoch(actions: &[Action<NetMsg>], epoch: EpochNr) -> bool {
    actions
        .iter()
        .flat_map(Action::sends)
        .any(|(_, msg)| matches!(msg, NetMsg::Sb { instance, .. } if instance.epoch == epoch))
}

#[test]
fn next_epoch_proposal_is_replayed_on_entering_the_epoch() {
    let (mut driver, node) = started(0);
    let (instance, seq_nr) = led_by_node_1(1);

    // Node 1 has finished epoch 0 and proposes in epoch 1; node 0 has not.
    let early = driver.handle(Time::from_millis(1), proposal(1));
    assert!(!sends_in_epoch(&early, 1), "epoch 1 is not open yet");
    assert_eq!(node.borrow().held_next_epoch_messages(), 1);

    // The rest of epoch 0 commits: node 0 enters epoch 1 and echoes the
    // proposal it held, as if it had just arrived.
    let entered = driver.handle(Time::from_millis(2), transfer(0..epoch_len()));
    assert_eq!(node.borrow().current_epoch(), 1);
    assert_eq!(node.borrow().held_next_epoch_messages(), 0);
    let echoed = entered.iter().flat_map(Action::sends).any(|(_, msg)| {
        matches!(
            msg,
            NetMsg::Sb {
                instance: i,
                msg: SbMsg::Reference(RefSbMsg::BrbEcho { seq_nr: s, .. }),
            } if *i == instance && *s == seq_nr
        )
    });
    assert!(echoed, "the held proposal is echoed in epoch 1");
}

#[test]
fn a_sender_holds_at_most_three_messages_per_sequence_number() {
    let (mut driver, node) = started(0);
    let (instance, seq_nr) = led_by_node_1(1);
    let limit = 3 * epoch_len() as usize;

    for i in 0..limit + 5 {
        let echo = RefSbMsg::BrbEcho {
            seq_nr,
            digest: [i as u8; 32],
        };
        driver.handle(Time::from_millis(1), sb(1, instance, echo));
    }
    assert_eq!(node.borrow().held_next_epoch_messages(), limit);

    // The bound is per sender: another peer is still heard.
    driver.handle(Time::from_millis(2), sb(2, instance, RefSbMsg::Heartbeat));
    assert_eq!(node.borrow().held_next_epoch_messages(), limit + 1);

    // A message two epochs ahead is not held at all.
    let (later, later_sn) = led_by_node_1(2);
    let ready = RefSbMsg::BrbReady {
        seq_nr: later_sn,
        digest: [0; 32],
    };
    driver.handle(Time::from_millis(3), sb(3, later, ready));
    assert_eq!(node.borrow().held_next_epoch_messages(), limit + 1);
}

/// Four nodes on `SansIo`, each message routed to its destination until
/// none is left in flight.
struct Cluster {
    nodes: Vec<(SansIo<NetMsg>, Rc<RefCell<IssNode>>)>,
    in_flight: VecDeque<(NodeId, NodeId, NetMsg)>,
    /// Every message node 0 sent.
    sent_by_0: Vec<Action<NetMsg>>,
}

impl Cluster {
    fn new() -> Self {
        Cluster {
            nodes: (0..N as u32).map(started).collect(),
            in_flight: VecDeque::new(),
            sent_by_0: Vec::new(),
        }
    }

    fn handle(&mut self, at: u32, event: Event<NetMsg>) {
        let actions = self.nodes[at as usize]
            .0
            .handle(Time::from_millis(1), event);
        for (to, msg) in actions.iter().flat_map(Action::sends) {
            if let Addr::Node(to) = to {
                self.in_flight.push_back((NodeId(at), to, msg.clone()));
            }
        }
        if at == 0 {
            self.sent_by_0.extend(actions);
        }
    }

    fn run(&mut self) {
        while let Some((from, to, msg)) = self.in_flight.pop_front() {
            let from = Addr::Node(from);
            self.handle(to.0, Event::Message { from, msg });
        }
    }
}

#[test]
fn messages_held_for_an_epoch_a_snapshot_jumps_past_are_discarded() {
    let mut cluster = Cluster::new();
    let len = epoch_len();

    // Node 0 holds node 1's epoch-1 proposal.
    cluster.handle(0, proposal(1));
    cluster.run();
    assert_eq!(cluster.nodes[0].1.borrow().held_next_epoch_messages(), 1);

    // Nodes 1-3 commit epochs 0 and 1 and checkpoint both. Node 0 sees the
    // stable checkpoint of epoch 1, fetches a snapshot and installs it.
    for at in 1..N as u32 {
        cluster.handle(at, transfer(0..len));
        cluster.handle(at, transfer(len..2 * len));
    }
    cluster.run();

    let node = cluster.nodes[0].1.borrow();
    assert_eq!(node.current_epoch(), 2, "the snapshot jumped past epoch 1");
    assert_eq!(node.held_next_epoch_messages(), 0);
    assert!(
        !sends_in_epoch(&cluster.sent_by_0, 1),
        "nothing held for epoch 1 was replayed"
    );
}
