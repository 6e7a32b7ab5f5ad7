//! The simulated client process: a load generator driven by a [`Workload`]
//! schedule that routes each request to the leader currently owning its
//! bucket (Section 4.3).

use iss_client::{LeaderTable, RequestFactory, ResponseTracker};
use iss_messages::{ClientMsg, NetMsg};
use iss_runtime::{Addr, Context, Process};
use iss_types::{ClientId, Duration, NodeId, Request, RequestId, Time, TimerId};
use iss_workload::Workload;
use std::collections::HashMap;
use std::sync::Arc;

/// Tick granularity of the generator: several requests may be emitted per
/// tick to keep the event count manageable at high rates.
const TICK: Duration = Duration(10_000); // 10 ms

/// One simulated client.
pub struct ClientProcess {
    id: ClientId,
    factory: RequestFactory,
    workload: Arc<dyn Workload>,
    leaders: LeaderTable,
    submitted: u64,
    /// Stop submitting after this time (lets the run drain).
    stop_at: Time,
    /// Whether the client re-submits unanswered requests when the bucket
    /// assignment rotates (the paper's client-side censorship defense,
    /// Section 4.3: a censored bucket reaches a correct leader within a
    /// bounded number of epochs, and the client re-targets it there).
    retransmit: bool,
    /// Requests not yet answered by an `f+1` quorum, with the announcement
    /// generation they were last sent in (0 = before any accepted
    /// announcement). Only populated when `retransmit` is on.
    outstanding: HashMap<RequestId, (Request, u64)>,
    /// Quorum tracker for responses (drives `outstanding` removal).
    tracker: ResponseTracker,
}

impl ClientProcess {
    /// Creates a client driven by `workload`. Its requests are unsigned:
    /// the simulator charges client authentication through the CPU model.
    pub fn new(
        id: ClientId,
        workload: Arc<dyn Workload>,
        nodes: Vec<NodeId>,
        num_buckets: usize,
        quorum: usize,
        stop_at: Time,
    ) -> Self {
        ClientProcess {
            id,
            factory: RequestFactory::new(id, false),
            workload,
            leaders: LeaderTable::new(nodes, num_buckets, quorum),
            submitted: 0,
            stop_at,
            retransmit: false,
            outstanding: HashMap::new(),
            tracker: ResponseTracker::new(quorum),
        }
    }

    /// Where a request goes: the leader node owning its bucket.
    fn target_addr(&self, id: &RequestId) -> Addr {
        Addr::Node(self.leaders.target_for(id))
    }

    /// Enables re-submission of unanswered requests on every accepted bucket
    /// rotation. Requires the nodes to respond to clients (the deployment
    /// forces responses on whenever a censoring leader is scheduled).
    pub fn with_retransmission(mut self) -> Self {
        self.retransmit = true;
        self
    }

    /// The announcement generation: 0 before any accepted announcement,
    /// `epoch + 1` afterwards.
    fn generation(&self) -> u64 {
        self.leaders.accepted_epoch().map_or(0, |e| e + 1)
    }

    /// Re-sends every outstanding request not yet sent in the current
    /// generation, routed through the (new) bucket assignment. Iteration is
    /// sorted by request id so the event schedule stays deterministic.
    fn retransmit_outstanding(&mut self, ctx: &mut Context<'_, NetMsg>) {
        let generation = self.generation();
        let mut stale: Vec<RequestId> = self
            .outstanding
            .iter()
            .filter(|(_, (_, last))| *last < generation)
            .map(|(id, _)| *id)
            .collect();
        stale.sort_unstable();
        for id in stale {
            let target = self.target_addr(&id);
            let (request, last) = self.outstanding.get_mut(&id).expect("stale id present");
            *last = generation;
            ctx.send(target, NetMsg::Client(ClientMsg::Request(request.clone())));
        }
    }

    fn tick(&mut self, ctx: &mut Context<'_, NetMsg>) {
        let now = ctx.now();
        if now < self.stop_at {
            ctx.set_timer(TICK, 0);
        }
        let due = self.workload.due_by(self.id, now);
        while self.submitted < due {
            let size = self
                .workload
                .payload_size(self.id, self.factory.next_timestamp());
            let request = self.factory.next_request(size);
            let target = self.target_addr(&request.id);
            if self.retransmit {
                self.outstanding
                    .insert(request.id, (request.clone(), self.generation()));
            }
            ctx.send(target, NetMsg::Client(ClientMsg::Request(request)));
            self.submitted += 1;
        }
    }
}

impl Process<NetMsg> for ClientProcess {
    fn on_start(&mut self, ctx: &mut Context<'_, NetMsg>) {
        ctx.set_timer(TICK, 0);
    }

    fn on_message(&mut self, from: Addr, msg: NetMsg, ctx: &mut Context<'_, NetMsg>) {
        let NetMsg::Client(msg) = msg else { return };
        match &msg {
            ClientMsg::BucketLeaders { .. } => {
                if let Some(node) = from.as_node() {
                    let accepted_new_epoch = self.leaders.on_announcement(node, &msg);
                    if self.retransmit && accepted_new_epoch {
                        self.retransmit_outstanding(ctx);
                    }
                }
            }
            ClientMsg::Response { request, seq_nr } => {
                if self.retransmit {
                    if let Some(node) = from.as_node() {
                        if self.tracker.on_response(node, *request, *seq_nr).is_some() {
                            self.outstanding.remove(request);
                        }
                    }
                }
            }
            ClientMsg::Request(_) => {}
        }
    }

    fn on_timer(&mut self, _id: TimerId, _kind: u64, ctx: &mut Context<'_, NetMsg>) {
        self.tick(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iss_simnet::{Runtime, RuntimeConfig};
    use iss_types::Time;
    use iss_workload::{Bursty, OpenLoop, PayloadDist};
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::Arc;

    /// A node stub that counts received client requests (and their bytes).
    struct CountingNode {
        count: Rc<RefCell<u64>>,
        sizes: Rc<RefCell<Vec<u32>>>,
    }
    impl Process<NetMsg> for CountingNode {
        fn on_start(&mut self, _ctx: &mut Context<'_, NetMsg>) {}
        fn on_message(&mut self, _from: Addr, msg: NetMsg, _ctx: &mut Context<'_, NetMsg>) {
            if let NetMsg::Client(ClientMsg::Request(req)) = msg {
                *self.count.borrow_mut() += 1;
                self.sizes.borrow_mut().push(req.payload_size);
            }
        }
        fn on_timer(&mut self, _id: TimerId, _kind: u64, _ctx: &mut Context<'_, NetMsg>) {}
    }

    type Counters = (Rc<RefCell<u64>>, Rc<RefCell<Vec<u32>>>);

    fn counting_runtime(workload: Arc<dyn Workload>, clients: u32) -> (Runtime<NetMsg>, Counters) {
        let count = Rc::new(RefCell::new(0u64));
        let sizes = Rc::new(RefCell::new(Vec::new()));
        let mut rt: Runtime<NetMsg> = Runtime::new(RuntimeConfig::ideal());
        for n in 0..4u32 {
            rt.add_process(
                Addr::Node(NodeId(n)),
                Box::new(CountingNode {
                    count: Rc::clone(&count),
                    sizes: Rc::clone(&sizes),
                }),
            );
        }
        for c in 0..clients {
            rt.add_process(
                Addr::Client(ClientId(c)),
                Box::new(ClientProcess::new(
                    ClientId(c),
                    Arc::clone(&workload),
                    (0..4).map(NodeId).collect(),
                    64,
                    1,
                    Time::from_secs(5),
                )),
            );
        }
        (rt, (count, sizes))
    }

    #[test]
    fn client_submits_at_the_configured_rate() {
        let workload: Arc<dyn Workload> = Arc::new(OpenLoop::new(2, 200.0, Time::ZERO));
        let (mut rt, (count, sizes)) = counting_runtime(workload, 2);
        rt.run_until(Time::from_secs(2));
        // 200 req/s aggregate for ~2 s ≈ 400 requests (within tick rounding).
        let received = *count.borrow();
        assert!((380..=400).contains(&received), "received {received}");
        assert!(sizes.borrow().iter().all(|s| *s == 500));
    }

    #[test]
    fn bursty_client_is_silent_during_off_windows() {
        let workload: Arc<dyn Workload> = Arc::new(Bursty::new(
            1,
            100.0,
            Duration::from_secs(1),
            Duration::from_secs(2),
        ));
        let (mut rt, (count, _)) = counting_runtime(workload, 1);
        rt.run_until(Time::from_millis(2900));
        // One 1-s burst at 100 req/s, then silence until t=3 s.
        let received = *count.borrow();
        assert!((90..=101).contains(&received), "received {received}");
    }

    /// A node stub that counts requests, optionally answers them, and
    /// announces an epoch-1 bucket rotation at t = 1 s.
    struct AnnouncingNode {
        respond: bool,
        count: Rc<RefCell<u64>>,
    }
    impl Process<NetMsg> for AnnouncingNode {
        fn on_start(&mut self, ctx: &mut Context<'_, NetMsg>) {
            ctx.set_timer(Duration::from_secs(1), 0);
        }
        fn on_message(&mut self, from: Addr, msg: NetMsg, ctx: &mut Context<'_, NetMsg>) {
            if let NetMsg::Client(ClientMsg::Request(req)) = msg {
                *self.count.borrow_mut() += 1;
                if self.respond {
                    ctx.send(
                        from,
                        NetMsg::Client(ClientMsg::Response {
                            request: req.id,
                            seq_nr: 0,
                        }),
                    );
                }
            }
        }
        fn on_timer(&mut self, _id: TimerId, _kind: u64, ctx: &mut Context<'_, NetMsg>) {
            ctx.send(
                Addr::Client(ClientId(0)),
                NetMsg::Client(ClientMsg::BucketLeaders {
                    epoch: 1,
                    leaders: (0..64)
                        .map(|b| (iss_types::BucketId(b), NodeId(0)))
                        .collect(),
                }),
            );
        }
    }

    fn retransmission_run(respond: bool) -> u64 {
        let count = Rc::new(RefCell::new(0u64));
        let mut rt: Runtime<NetMsg> = Runtime::new(RuntimeConfig::ideal());
        rt.add_process(
            Addr::Node(NodeId(0)),
            Box::new(AnnouncingNode {
                respond,
                count: Rc::clone(&count),
            }),
        );
        let workload: Arc<dyn Workload> = Arc::new(OpenLoop::new(1, 100.0, Time::ZERO));
        rt.add_process(
            Addr::Client(ClientId(0)),
            Box::new(
                ClientProcess::new(
                    ClientId(0),
                    workload,
                    vec![NodeId(0)],
                    64,
                    1,
                    Time::from_secs(1),
                )
                .with_retransmission(),
            ),
        );
        rt.run_until(Time::from_secs(2));
        let received = *count.borrow();
        received
    }

    #[test]
    fn unanswered_requests_are_resent_on_bucket_rotation() {
        // Nodes never answer: the epoch-1 announcement at t = 1 s makes the
        // client re-send every outstanding request, roughly doubling the
        // ~100 originals submitted in the first second.
        let received = retransmission_run(false);
        assert!((190..=210).contains(&received), "received {received}");
    }

    #[test]
    fn answered_requests_are_not_resent() {
        // Every request is answered immediately (quorum 1), so nothing is
        // outstanding when the rotation is announced.
        let received = retransmission_run(true);
        assert!((90..=105).contains(&received), "received {received}");
    }

    #[test]
    fn client_applies_the_payload_distribution() {
        let workload: Arc<dyn Workload> = Arc::new(
            OpenLoop::new(1, 100.0, Time::ZERO)
                .with_payload(PayloadDist::Uniform { min: 100, max: 900 })
                .with_seed(11),
        );
        let (mut rt, (_, sizes)) = counting_runtime(Arc::clone(&workload), 1);
        rt.run_until(Time::from_secs(1));
        let sizes = sizes.borrow();
        assert!(!sizes.is_empty());
        assert!(sizes.iter().all(|s| (100..=900).contains(s)));
        // And they match what the workload predicts per timestamp.
        for (ts, size) in sizes.iter().enumerate() {
            assert_eq!(*size, workload.payload_size(ClientId(0), ts as u64));
        }
    }
}
