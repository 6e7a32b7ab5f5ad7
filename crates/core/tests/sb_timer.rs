//! The embedding keeps an SB instance's one timer: a re-arm moves the
//! deadline and arms a runtime timer only when none armed for the instance
//! expires by then, a runtime timer that fires before the deadline arms the
//! rest, and one superseded by a nearer deadline drives nothing.
//!
//! A node runs on `SansIo` with instances that arm their timer at `SB-INIT`
//! and again on every message, for the delay the message names; the test
//! hands in every message and every runtime timer expiry itself.

use iss_core::{IssNode, NodeOptions, NullSink, OrdererFactory, KIND_INSTANCE};
use iss_crypto::SignatureRegistry;
use iss_messages::{NetMsg, RefSbMsg, SbMsg};
use iss_runtime::{Action, Addr, Event, SansIo};
use iss_sb::{SbContext, SbInstance};
use iss_types::{Batch, Duration, InstanceId, IssConfig, NodeId, SeqNr, Time, TimerId};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

const N: usize = 4;
/// The delay every instance arms at `SB-INIT`.
const INIT_MS: u64 = 100;

/// Every `on_timer` the node ran: when, on which instance, with which token.
type Expiries = Rc<RefCell<Vec<(Time, InstanceId, u64)>>>;

/// Arms its timer at `SB-INIT` (token 0) and on every message, for as many
/// milliseconds as the message's `seq_nr` names (tokens 1, 2, ...).
struct Arming {
    id: InstanceId,
    arms: u64,
    expiries: Expiries,
}

impl SbInstance for Arming {
    fn init(&mut self, ctx: &mut SbContext<'_>) {
        ctx.set_timer(0, Duration::from_millis(INIT_MS));
    }
    fn propose(&mut self, _seq_nr: SeqNr, _batch: Batch, _ctx: &mut SbContext<'_>) {}
    fn on_message(&mut self, _from: NodeId, msg: SbMsg, ctx: &mut SbContext<'_>) {
        if let SbMsg::Reference(RefSbMsg::Vote { seq_nr, .. }) = msg {
            self.arms += 1;
            ctx.set_timer(self.arms, Duration::from_millis(seq_nr));
        }
    }
    fn on_timer(&mut self, token: u64, ctx: &mut SbContext<'_>) {
        self.expiries.borrow_mut().push((ctx.now, self.id, token));
    }
    fn is_complete(&self) -> bool {
        false
    }
}

struct Node {
    driver: SansIo<NetMsg>,
    expiries: Expiries,
    /// The runtime timer each instance of epoch 0 armed at `SB-INIT`.
    init_timers: Vec<TimerId>,
}

impl Node {
    fn start() -> Self {
        let mut config = IssConfig::pbft(N);
        config.min_epoch_length = 8;
        config.client_signatures = false;
        let expiries = Expiries::default();
        let shared = Rc::clone(&expiries);
        let factory: OrdererFactory = Box::new(move |_, segment| {
            Box::new(Arming {
                id: segment.instance,
                arms: 0,
                expiries: Rc::clone(&shared),
            }) as Box<dyn SbInstance>
        });
        let node = IssNode::new(
            NodeId(0),
            NodeOptions::new(config),
            factory,
            Arc::new(SignatureRegistry::with_processes(N, 0)),
            Rc::new(RefCell::new(NullSink)),
        );
        let mut driver = SansIo::new(0);
        driver.mount(Addr::Node(NodeId(0)), Box::new(node));
        let init_timers = sb_timers(&driver.handle(Time::ZERO, Event::Start))
            .into_iter()
            .map(|(id, _)| id)
            .collect::<Vec<_>>();
        assert_eq!(init_timers.len(), N, "one timer per instance of epoch 0");
        Node {
            driver,
            expiries,
            init_timers,
        }
    }

    /// Hands instance `index` of epoch 0 a message that re-arms it for
    /// `delay_ms` at `at_ms`; returns the runtime timers the node armed.
    fn rearm(&mut self, index: u32, at_ms: u64, delay_ms: u64) -> Vec<(TimerId, Duration)> {
        let msg = NetMsg::Sb {
            instance: InstanceId::new(0, index),
            msg: SbMsg::Reference(RefSbMsg::Vote {
                seq_nr: delay_ms,
                value: None,
            }),
        };
        let from = Addr::Node(NodeId(1));
        let event = Event::Message { from, msg };
        sb_timers(&self.driver.handle(Time::from_millis(at_ms), event))
    }

    /// Fires runtime timer `id` at `at_ms`; returns the runtime timers the
    /// node armed.
    fn fire(&mut self, id: TimerId, at_ms: u64) -> Vec<(TimerId, Duration)> {
        let event = Event::Timer {
            id,
            kind: KIND_INSTANCE,
        };
        sb_timers(&self.driver.handle(Time::from_millis(at_ms), event))
    }

    fn expiries(&self) -> Vec<(Time, InstanceId, u64)> {
        self.expiries.borrow().clone()
    }
}

/// The SB runtime timers among `actions`.
fn sb_timers(actions: &[Action<NetMsg>]) -> Vec<(TimerId, Duration)> {
    actions
        .iter()
        .filter_map(|a| match a {
            Action::SetTimer { id, delay, kind } if *kind == KIND_INSTANCE => Some((*id, *delay)),
            _ => None,
        })
        .collect()
}

#[test]
fn rearming_an_outstanding_timer_arms_no_runtime_timer() {
    let mut node = Node::start();
    for k in 1..=5 {
        // Each re-arm moves instance 2's deadline to k × 10 + 100 ms.
        assert!(node.rearm(2, k * 10, INIT_MS).is_empty(), "re-arm {k}");
    }
    // The timer of SB-INIT fires 50 ms early and arms the rest...
    let rest = node.fire(node.init_timers[2], INIT_MS);
    assert_eq!(rest.len(), 1);
    assert_eq!(rest[0].1, Duration::from_millis(50));
    assert!(node.expiries().is_empty());
    // ...which runs the latest arming once, at its deadline.
    assert!(node.fire(rest[0].0, 150).is_empty());
    let instance = InstanceId::new(0, 2);
    assert_eq!(node.expiries(), [(Time::from_millis(150), instance, 5)]);
    // Another instance, never re-armed, expires at its own deadline.
    assert!(node.fire(node.init_timers[1], INIT_MS).is_empty());
    assert_eq!(node.expiries().len(), 2);
}

#[test]
fn a_superseded_timer_drives_nothing() {
    let mut node = Node::start();
    // A nearer deadline than the pending one needs a runtime timer of its
    // own.
    let nearer = node.rearm(3, 10, 20);
    assert_eq!(nearer.len(), 1);
    assert!(node.fire(nearer[0].0, 30).is_empty());
    let instance = InstanceId::new(0, 3);
    assert_eq!(node.expiries(), [(Time::from_millis(30), instance, 1)]);
    // The timer it superseded fires into nothing and arms nothing.
    assert!(node.fire(node.init_timers[3], INIT_MS).is_empty());
    assert_eq!(node.expiries().len(), 1);
}
