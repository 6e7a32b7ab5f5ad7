//! State transfer settles a request this node holds in its bucket queues:
//! the transferred commit drops the queued copy, delivers the request and
//! makes a re-submission a replay.

use iss_core::{DeliverySink, IssNode, NodeOptions, OrdererFactory};
use iss_crypto::SignatureRegistry;
use iss_messages::isscp::LogEntry;
use iss_messages::{ClientMsg, IssMsg, NetMsg};
use iss_runtime::{Addr, Context, Event, Process, SansIo};
use iss_sb::reference::ReferenceSb;
use iss_sb::SbInstance;
use iss_types::{
    Batch, ClientId, EpochNr, Error, IssConfig, NodeId, Request, RequestId, SeqNr, Time, TimerId,
};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

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

/// Node 0 of a 4-node cluster on `SansIo`, started, with `req` queued in its
/// buckets.
fn node_with_queued(req: &Request) -> Mounted {
    let mut config = IssConfig::pbft(4);
    config.client_signatures = false;
    let timeout = config.epoch_change_timeout;
    let factory: OrdererFactory = Box::new(move |id, seg| {
        Box::new(ReferenceSb::new(id, seg, timeout)) as Box<dyn SbInstance>
    });
    let registry = Arc::new(SignatureRegistry::with_processes(4, 4));
    let sink = Rc::new(RefCell::new(Sink::default()));
    let node = IssNode::new(
        NodeId(0),
        NodeOptions::new(config),
        factory,
        registry,
        sink.clone(),
    );
    let node = Rc::new(RefCell::new(node));
    let mut driver: SansIo<NetMsg> = SansIo::new(1);
    driver.mount(Addr::Node(NodeId(0)), Box::new(Shared(Rc::clone(&node))));
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
