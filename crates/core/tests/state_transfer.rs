//! State transfer: a transferred commit settles a request this node holds in
//! its bucket queues (it drops the queued copy, delivers the request and
//! makes a re-submission a replay), and a node that has fallen behind
//! catches up with one request at a time. Its counterpart on the live
//! path: ⊥ committed where this node proposed sends the proposal's
//! requests back to its queues.

use iss_core::{DeliverySink, EpochConfig, IssNode, NodeOptions, NullSink, OrdererFactory};
use iss_crypto::SignatureRegistry;
use iss_messages::isscp::LogEntry;
use iss_messages::{ClientMsg, IssMsg, NetMsg, RefSbMsg, SbMsg};
use iss_runtime::{Action, Addr, Context, Event, Process, SansIo};
use iss_sb::reference::ReferenceSb;
use iss_sb::SbInstance;
use iss_storage::record::WalRecord;
use iss_storage::{MemStorage, Storage};
use iss_types::{
    Batch, ClientId, Duration, EpochNr, Error, IssConfig, NodeId, Request, RequestId, SeqNr, Time,
    TimerId,
};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::ops::Range;
use std::rc::Rc;
use std::sync::Arc;

const N: usize = 4;

#[derive(Default)]
struct Sink {
    delivered: Vec<(RequestId, u64)>,
    rejected: Vec<RequestId>,
}

impl DeliverySink for Sink {
    fn on_request_delivered(&mut self, _: NodeId, request: &Request, seq_nr: u64, _: Time) {
        self.delivered.push((request.id, seq_nr));
    }
    fn on_batch_committed(&mut self, _: NodeId, _: SeqNr, _: usize, _: Time) {}
    fn on_epoch_advanced(&mut self, _: NodeId, _: EpochNr, _: Time) {}
    fn on_request_rejected(&mut self, _: NodeId, request: &Request, _: &Error, _: Time) {
        self.rejected.push(request.id);
    }
}

/// Mounts a node the test keeps a handle to, so its queues stay observable.
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

type Mounted = (SansIo<NetMsg>, Rc<RefCell<IssNode>>, Rc<RefCell<Sink>>);

/// Node `id` of a 4-node reference-SB cluster on `SansIo`, not yet started,
/// restored from `storage` if one is given.
fn mount(
    id: u32,
    config: &IssConfig,
    storage: Option<Rc<MemStorage>>,
    sink: Rc<RefCell<dyn DeliverySink>>,
) -> (SansIo<NetMsg>, Rc<RefCell<IssNode>>) {
    let timeout = config.epoch_change_timeout;
    let factory: OrdererFactory = Box::new(move |id, seg| {
        Box::new(ReferenceSb::new(id, seg, timeout)) as Box<dyn SbInstance>
    });
    let registry = Arc::new(SignatureRegistry::with_processes(N, 4));
    let opts = NodeOptions::new(config.clone());
    let node = match storage {
        Some(storage) => IssNode::with_storage(NodeId(id), opts, factory, registry, sink, storage),
        None => IssNode::new(NodeId(id), opts, factory, registry, sink),
    };
    let node = Rc::new(RefCell::new(node));
    let mut driver: SansIo<NetMsg> = SansIo::new(u64::from(id) + 1);
    driver.mount(Addr::Node(NodeId(id)), Box::new(Shared(Rc::clone(&node))));
    (driver, node)
}

/// Node 0 of a 4-node cluster on `SansIo`, started, with `req` queued in its
/// buckets.
fn node_with_queued(req: &Request) -> Mounted {
    let mut config = IssConfig::pbft(N);
    config.client_signatures = false;
    let sink = Rc::new(RefCell::new(Sink::default()));
    let (mut driver, node) = mount(0, &config, None, sink.clone());
    driver.handle(Time::ZERO, Event::Start);
    driver.handle(Time::from_millis(1), submit(req));
    assert_eq!(node.borrow().pending_requests(), 1);
    (driver, node, sink)
}

fn submit(req: &Request) -> Event<NetMsg> {
    Event::Message {
        from: Addr::Client(req.id.client),
        msg: NetMsg::Client(ClientMsg::Request(req.clone())),
    }
}

/// A state response transferring the committed batch at sequence number 0
/// that carries `req`, as sent by `from`.
fn transfer(from: Addr, req: &Request) -> Event<NetMsg> {
    let entries = vec![LogEntry {
        seq_nr: 0,
        batch: Some(Batch::new(vec![req.clone()])),
    }];
    let response = IssMsg::StateResponse {
        epoch: 0,
        entries,
        root: [0; 32],
        proof: Vec::new(),
    };
    let msg = NetMsg::Iss(response);
    Event::Message { from, msg }
}

#[test]
fn transferred_batch_settles_a_queued_request() {
    let req = Request::synthetic(ClientId(1), 0, 16);
    let (mut driver, node, sink) = node_with_queued(&req);

    // A peer transfers the committed batch that carries the request.
    driver.handle(Time::from_millis(2), transfer(Addr::Node(NodeId(1)), &req));
    assert_eq!(node.borrow().pending_requests(), 0, "queued copy dropped");
    assert_eq!(sink.borrow().delivered, vec![(req.id, 0)]);

    driver.handle(Time::from_millis(3), submit(&req));
    assert_eq!(
        sink.borrow().rejected,
        vec![req.id],
        "re-submission is a replay"
    );
}

#[test]
fn state_response_from_a_client_commits_nothing() {
    let req = Request::synthetic(ClientId(1), 0, 16);
    let (mut driver, node, sink) = node_with_queued(&req);

    // A client is not a replica: it cannot transfer committed state.
    driver.handle(
        Time::from_millis(2),
        transfer(Addr::Client(ClientId(2)), &req),
    );
    assert_eq!(node.borrow().pending_requests(), 1, "request stays queued");
    assert!(sink.borrow().delivered.is_empty(), "nothing delivered");
}

/// A 4-node configuration with epochs of `epoch_length` sequence numbers.
/// Its view-change timeout, which times the catch-up re-ask, differs from
/// every other timeout, so the re-ask timer is told apart by its delay.
fn short_epochs(epoch_length: u64) -> IssConfig {
    let mut config = IssConfig::pbft(N);
    config.min_epoch_length = epoch_length;
    config.client_signatures = false;
    config.view_change_timeout = Duration::from_secs(3);
    config
}

/// Node 0 restored from a WAL holding ⊥ at each of `committed`, not yet
/// started.
fn restarted(config: &IssConfig, committed: &[SeqNr]) -> (SansIo<NetMsg>, Rc<RefCell<IssNode>>) {
    let storage = Rc::new(MemStorage::new());
    for &seq_nr in committed {
        let record = WalRecord::Committed {
            seq_nr,
            leader: NodeId((seq_nr % N as u64) as u32),
            batch: None,
        };
        storage.append(&record).unwrap();
    }
    mount(0, config, Some(storage), Rc::new(RefCell::new(NullSink)))
}

/// The destinations of the state-transfer messages among `actions`: a
/// node that serves nobody sends only catch-up requests.
fn catch_up_requests(actions: &[Action<NetMsg>]) -> Vec<Addr> {
    actions
        .iter()
        .flat_map(Action::sends)
        .filter_map(|(to, msg)| match msg {
            NetMsg::Iss(msg) if !matches!(msg, IssMsg::Checkpoint { .. }) => Some(to),
            _ => None,
        })
        .collect()
}

/// The firing of the catch-up re-ask timer armed among `actions`.
fn re_ask_timer(actions: &[Action<NetMsg>], config: &IssConfig) -> Event<NetMsg> {
    actions
        .iter()
        .find_map(|a| match a {
            Action::SetTimer { id, delay, kind } if *delay == config.view_change_timeout => {
                Some(Event::Timer {
                    id: *id,
                    kind: *kind,
                })
            }
            _ => None,
        })
        .expect("a re-ask timer is armed")
}

/// The votes of nodes 1-3 that commit ⊥ at `seq_nr` of epoch 0 on a live
/// SB instance.
fn live_nil_commit(config: &IssConfig, seq_nr: SeqNr) -> Vec<Event<NetMsg>> {
    let layout = EpochConfig::build(config, 0, 0, config.all_nodes());
    let segment = layout
        .segments
        .iter()
        .find(|s| s.seq_nrs.contains(&seq_nr))
        .expect("the sequence number is in epoch 0");
    let vote = RefSbMsg::Vote {
        seq_nr,
        value: None,
    };
    (1..N as u32)
        .map(|from| Event::Message {
            from: Addr::Node(NodeId(from)),
            msg: NetMsg::Sb {
                instance: segment.instance,
                msg: SbMsg::Reference(vote.clone()),
            },
        })
        .collect()
}

/// A state response from `from` transferring ⊥ at every sequence number of
/// `range`.
fn nil_transfer(from: u32, range: Range<SeqNr>) -> Event<NetMsg> {
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
    let from = Addr::Node(NodeId(from));
    Event::Message { from, msg }
}

#[test]
fn a_restarted_node_asks_once_until_the_answer_or_the_re_ask_timer() {
    let config = short_epochs(16);
    // Sequence numbers 3 and 4 are a gap in the WAL.
    let (mut driver, node) = restarted(&config, &[0, 1, 2, 5]);
    let mut sent = driver.handle(Time::ZERO, Event::Start);
    assert!(node.borrow().is_recovering());

    // Live commits of later sequence numbers leave the gap open and ask
    // nothing more.
    for seq_nr in [6, 7, 9, 10, 11, 13] {
        for vote in live_nil_commit(&config, seq_nr) {
            sent.extend(driver.handle(Time::from_millis(seq_nr), vote));
        }
        assert!(node.borrow().log().is_committed(seq_nr));
    }
    assert_eq!(node.borrow().log().first_undelivered(), 3);
    assert_eq!(catch_up_requests(&sent), vec![Addr::Node(NodeId(1))]);

    // No answer within the timeout: the next peer is asked, once.
    let first_timer = re_ask_timer(&sent, &config);
    let re_asked = driver.handle(Time::from_secs(3), first_timer);
    assert_eq!(catch_up_requests(&re_asked), vec![Addr::Node(NodeId(2))]);
    let second_timer = re_ask_timer(&re_asked, &config);

    // Its answer closes the gap and ends the recovery.
    let answered = driver.handle(Time::from_secs(4), nil_transfer(2, 3..5));
    assert_eq!(node.borrow().log().first_undelivered(), 8);
    assert!(!node.borrow().is_recovering());
    assert!(catch_up_requests(&answered).is_empty());

    // Neither a later commit nor the answered request's timer asks again.
    let mut after = Vec::new();
    for vote in live_nil_commit(&config, 14) {
        after.extend(driver.handle(Time::from_secs(5), vote));
    }
    after.extend(driver.handle(Time::from_secs(7), second_timer));
    assert!(catch_up_requests(&after).is_empty());
}

/// Four nodes on `SansIo`, each message routed to its destination until
/// none is left in flight. Node 0 is down until it is started: what is
/// sent to it meanwhile is lost.
struct Cluster {
    nodes: Vec<(SansIo<NetMsg>, Rc<RefCell<IssNode>>)>,
    node_0_up: bool,
    in_flight: VecDeque<(NodeId, NodeId, NetMsg)>,
    /// Every message sent, in order.
    sent: Vec<(NodeId, NodeId, NetMsg)>,
}

impl Cluster {
    fn handle(&mut self, at: u32, event: Event<NetMsg>) {
        let actions = self.nodes[at as usize]
            .0
            .handle(Time::from_millis(1), event);
        for (to, msg) in actions.iter().flat_map(Action::sends) {
            if let Addr::Node(to) = to {
                self.sent.push((NodeId(at), to, msg.clone()));
                self.in_flight.push_back((NodeId(at), to, msg.clone()));
            }
        }
    }

    fn run(&mut self) {
        while let Some((from, to, msg)) = self.in_flight.pop_front() {
            if to != NodeId(0) || self.node_0_up {
                let from = Addr::Node(from);
                self.handle(to.0, Event::Message { from, msg });
            }
        }
    }
}

#[test]
fn a_request_past_a_stable_checkpoint_is_answered_with_chunks_then_a_state_response() {
    let config = short_epochs(8);
    let len = config.epoch_length(N);
    let mut nodes = vec![restarted(&config, &[0, 1, 2])];
    for id in 1..N as u32 {
        let (mut driver, node) = mount(id, &config, None, Rc::new(RefCell::new(NullSink)));
        driver.handle(Time::ZERO, Event::Start);
        nodes.push((driver, node));
    }
    let mut cluster = Cluster {
        nodes,
        node_0_up: false,
        in_flight: VecDeque::new(),
        sent: Vec::new(),
    };

    // While node 0 is down, nodes 1-3 commit epoch 0 and three entries of
    // epoch 1, and checkpoint epoch 0.
    for at in 1..N as u32 {
        cluster.handle(at, nil_transfer(2, 0..len + 3));
    }
    cluster.run();

    // Node 0 restarts from its WAL (it delivered through 2) and asks node 1.
    cluster.node_0_up = true;
    cluster.handle(0, Event::Start);
    cluster.run();

    let to_0: Vec<&IssMsg> = cluster
        .sent
        .iter()
        .filter_map(|(from, to, msg)| match msg {
            NetMsg::Iss(IssMsg::Checkpoint { .. }) => None,
            NetMsg::Iss(m) if *from == NodeId(1) && *to == NodeId(0) => Some(m),
            _ => None,
        })
        .collect();
    let (last, chunks) = to_0.split_last().expect("node 1 answered");
    assert!(!chunks.is_empty());
    assert!(chunks
        .iter()
        .all(|m| matches!(m, IssMsg::SnapshotChunk { max_seq_nr, .. } if *max_seq_nr == len - 1)));
    assert!(matches!(last, IssMsg::StateResponse { .. }));

    let node = cluster.nodes[0].1.borrow();
    assert_eq!(node.log().first_undelivered(), len + 3, "both installed");
    assert_eq!(node.current_epoch(), 1);
    assert!(!node.is_recovering());
    let requests = cluster
        .sent
        .iter()
        .filter(|(from, _, msg)| {
            *from == NodeId(0) && matches!(msg, NetMsg::Iss(IssMsg::SnapshotRequest { .. }))
        })
        .count();
    assert_eq!(requests, 1, "no second request");
}

/// The firing of the proposal tick armed among `actions`: with 4 leaders at
/// PBFT's 32 batches/s it is the timer of 125 ms.
fn proposal_tick(actions: &[Action<NetMsg>]) -> Event<NetMsg> {
    actions
        .iter()
        .find_map(|a| match a {
            Action::SetTimer { id, delay, kind } if *delay == Duration::from_millis(125) => {
                Some(Event::Timer {
                    id: *id,
                    kind: *kind,
                })
            }
            _ => None,
        })
        .expect("a proposal tick is armed")
}

/// The batch this node proposes at `seq_nr` among `actions`, if any.
fn proposed_at(actions: &[Action<NetMsg>], seq_nr: SeqNr) -> Option<Batch> {
    actions
        .iter()
        .flat_map(Action::sends)
        .find_map(|(_, msg)| match msg {
            NetMsg::Sb {
                msg: SbMsg::Reference(RefSbMsg::BrbSend { seq_nr: sn, batch }),
                ..
            } if *sn == seq_nr => Some(batch.clone()),
            _ => None,
        })
}

#[test]
fn nil_at_an_own_proposal_requeues_its_requests_for_the_next_one() {
    let mut config = IssConfig::pbft(N);
    config.client_signatures = false;
    let layout = EpochConfig::build(&config, 0, 0, config.all_nodes());
    let own = &layout.segments[0];
    assert_eq!(own.leader, NodeId(0));
    // A request in one of node 0's buckets, so node 0 proposes it.
    let req = (0..)
        .map(|t| Request::synthetic(ClientId(1), t, 16))
        .find(|r| own.buckets.contains(&r.bucket(config.num_buckets())))
        .expect("node 0 owns a bucket");
    let sink = Rc::new(RefCell::new(Sink::default()));
    let (mut driver, node) = mount(0, &config, None, sink.clone());
    let started = driver.handle(Time::ZERO, Event::Start);
    driver.handle(Time::from_millis(1), submit(&req));

    // Node 0 proposes the request at its first sequence number...
    let (first, second) = (own.seq_nrs[0], own.seq_nrs[1]);
    let ticked = driver.handle(Time::from_millis(200), proposal_tick(&started));
    let batch = proposed_at(&ticked, first).expect("node 0 proposes");
    assert_eq!(batch.requests()[0].id, req.id);
    assert_eq!(node.borrow().pending_requests(), 0, "cut into the batch");

    // ...but nodes 1-3 commit ⊥ there: the request goes back to the queues.
    for vote in live_nil_commit(&config, first) {
        driver.handle(Time::from_millis(300), vote);
    }
    assert!(node.borrow().log().is_committed(first));
    assert_eq!(node.borrow().pending_requests(), 1, "requeued");
    assert!(sink.borrow().delivered.is_empty());

    // The next proposal carries it.
    let next = driver.handle(Time::from_millis(400), proposal_tick(&ticked));
    let batch = proposed_at(&next, second).expect("node 0 proposes again");
    assert_eq!(batch.requests()[0].id, req.id);
    assert_eq!(node.borrow().pending_requests(), 0);
}
