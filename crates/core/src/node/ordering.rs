//! Ordering: driving the epoch's SB instances and applying their actions,
//! this node's proposals, commits and in-order delivery (Algorithm 1).

use super::{record_cut, telemetry_request_key, IssNode, KIND_INSTANCE, KIND_PROPOSE};
use crate::log::DeliveredBatch;
use iss_messages::{ClientMsg, NetMsg};
use iss_runtime::process::{Addr, Context};
use iss_sb::{SbAction, SbContext, SbInstance};
use iss_types::{Batch, Duration, InstanceId, SeqNr};

impl IssNode {
    /// The interval between this leader's proposals, derived from the
    /// system-wide batch rate (Section 6.2: a fixed batch rate means O(1/n)
    /// proposals per leader).
    pub(super) fn proposal_interval(&self) -> Duration {
        match self.opts.config.batch_rate {
            Some(rate) => {
                let leaders = self.epoch.leaders.len().max(1) as f64;
                Duration::from_secs_f64(leaders / rate)
            }
            None => Duration::from_millis(100),
        }
    }

    /// Runs a closure against the SB instance `instance_id` and applies its
    /// actions. Does nothing if the instance is gone: its epoch was
    /// collected, or it never existed.
    pub(super) fn drive<F>(&mut self, instance_id: InstanceId, ctx: &mut Context<'_, NetMsg>, f: F)
    where
        F: FnOnce(&mut dyn SbInstance, &mut SbContext<'_>),
    {
        let Some(mut instance) = self.state.take_instance(instance_id) else {
            return;
        };
        let actions = {
            let mut sb_ctx = SbContext::new(ctx.now(), &mut self.validation, ctx.rng());
            f(instance.as_mut(), &mut sb_ctx);
            sb_ctx.take_actions()
        };
        self.state.restore_instance(instance_id, instance);
        let rejected = self.validation.rejected_proposals();
        if rejected > self.reported_proposal_rejections {
            let delta = rejected - self.reported_proposal_rejections;
            self.reported_proposal_rejections = rejected;
            self.sink
                .borrow_mut()
                .on_proposal_rejected(self.my_id, delta, ctx.now());
        }
        self.apply_sb_actions(instance_id, actions, ctx);
    }

    fn apply_sb_actions(
        &mut self,
        instance_id: InstanceId,
        actions: Vec<SbAction>,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        for action in actions {
            match action {
                SbAction::Send { to, msg } => {
                    ctx.send(
                        Addr::Node(to),
                        NetMsg::Sb {
                            instance: instance_id,
                            msg,
                        },
                    );
                }
                SbAction::Broadcast(msg) => {
                    let msg = NetMsg::Sb {
                        instance: instance_id,
                        msg,
                    };
                    ctx.broadcast(&self.all_nodes, msg);
                }
                SbAction::Deliver { seq_nr, batch } => {
                    self.on_sb_deliver(seq_nr, batch, ctx);
                }
                SbAction::SetTimer { token, delay } => {
                    let now = ctx.now();
                    let arm = |delay| ctx.set_timer(delay, KIND_INSTANCE);
                    self.state.set_timer(instance_id, token, now, delay, arm);
                }
            }
        }
    }

    /// Handles an sb-delivery: inserts the batch into the log, removes its
    /// requests from the bucket queues, resurrects unsuccessfully proposed
    /// requests on ⊥, delivers the contiguous prefix and advances the epoch
    /// when complete (Algorithm 1, lines 40-56).
    fn on_sb_deliver(&mut self, sn: SeqNr, batch: Option<Batch>, ctx: &mut Context<'_, NetMsg>) {
        let leader = self
            .state
            .leader_of(sn)
            .expect("a live instance's epoch knows its leaders");
        if !self.log.commit(sn, batch.clone(), leader) {
            return; // already committed (e.g. via state transfer)
        }
        self.opts.telemetry.on_quorum(ctx.now(), sn);
        self.persist_commit(sn, leader, &batch);
        match &batch {
            Some(b) => {
                for req in b.requests() {
                    self.buckets.remove(&req.id);
                    self.validation.mark_delivered(&req.id);
                }
            }
            None => {
                // ⊥ delivered: resurrect our own unsuccessful proposal, if any.
                self.policy.record_nil_delivery(leader, sn);
                if let Some(proposed) = self.state.take_proposed(sn) {
                    for req in proposed.requests() {
                        if !self.validation.is_delivered(&req.id) {
                            self.buckets.resurrect(req.clone());
                        }
                    }
                }
            }
        }
        self.sink.borrow_mut().on_batch_committed(
            self.my_id,
            sn,
            batch.as_ref().map(Batch::len).unwrap_or(0),
            ctx.now(),
        );
        self.deliver_ready(ctx);
        self.maybe_finish_epoch(ctx);
    }

    /// Delivers the log's newly contiguous prefix: one deliver span per
    /// batch, then, in order, each request's end-to-end span, the sink
    /// notification and (when enabled) the client response.
    pub(super) fn deliver_ready(&mut self, ctx: &mut Context<'_, NetMsg>) {
        let delivered = self.log.deliver_ready();
        if delivered.is_empty() {
            return;
        }
        let now = ctx.now();
        let telemetry = &self.opts.telemetry;
        for d in &delivered {
            telemetry.on_deliver(now, d.seq_nr);
        }
        let mut sink = self.sink.borrow_mut();
        for (request_seq_nr, request) in delivered.iter().flat_map(DeliveredBatch::numbered) {
            telemetry.on_end_to_end(now, telemetry_request_key(&request.id));
            sink.on_request_delivered(self.my_id, request, request_seq_nr, now);
            if self.opts.respond_to_clients {
                ctx.send(
                    Addr::Client(request.id.client),
                    NetMsg::Client(ClientMsg::Response {
                        request: request.id,
                        seq_nr: request_seq_nr,
                    }),
                );
            }
        }
    }

    /// Proposal pacing tick (Section 3.2 "Proposing Batches" plus the batch
    /// rate of Section 6.2 and the straggler behaviour of Section 6.4.2).
    pub(super) fn on_propose_tick(&mut self, ctx: &mut Context<'_, NetMsg>) {
        // Re-arm first so the tick keeps running across epochs.
        let interval = match self.opts.straggler {
            Some(s) => s.proposal_interval.div(4).max(Duration::from_millis(100)),
            None => self.proposal_interval(),
        };
        ctx.set_timer(interval, KIND_PROPOSE);

        let Some(seg_idx) = self.my_segment_idx else {
            return;
        };
        if self.mir_waiting {
            return;
        }
        let segment = &self.epoch.segments[seg_idx];
        if self.next_proposal >= segment.seq_nrs.len() {
            return;
        }
        let sn = segment.seq_nrs[self.next_proposal];
        let instance_id = segment.instance;
        let now = ctx.now();
        let since_last = now.saturating_since(self.last_proposal_at);
        let max_size = self.opts.config.max_batch_size;
        let max_wait = self.opts.config.max_batch_timeout;
        // An empty proposal on the max-batch timeout keeps the segment live
        // when there is nothing to propose.
        let timed_out = max_wait > Duration::ZERO && since_last >= max_wait;

        let batch = if let Some(straggler) = self.opts.straggler {
            // A Byzantine straggler delays as much as possible and proposes
            // only empty batches.
            if since_last < straggler.proposal_interval && self.next_proposal > 0 {
                return;
            }
            Batch::empty()
        } else {
            // `segment` borrows `self.epoch`; the queues live in
            // `self.buckets` — disjoint fields, so the bucket list is read in
            // place instead of being cloned per tick.
            let available = self.buckets.available_in(&segment.buckets);
            let full = available >= max_size;
            let have_some = available > 0 && since_last >= self.opts.config.min_batch_timeout;
            if !(full || have_some || timed_out) {
                return;
            }
            self.buckets.cut_batch(&segment.buckets, max_size)
        };

        if self.opts.telemetry.is_enabled() {
            // The batch is cut and proposed in the same tick, so record both
            // edges here (cut→propose ≈ 0).
            let source = (!batch.is_empty()).then(|| record_cut(&self.opts.telemetry, now, &batch));
            self.opts
                .telemetry
                .on_propose(now, sn, batch.len() as u64, source.into_iter());
        }

        self.last_proposal_at = now;
        self.next_proposal += 1;
        self.state.record_proposed(sn, batch.clone());
        self.drive(instance_id, ctx, |inst, sb| inst.propose(sn, batch, sb));
    }
}
