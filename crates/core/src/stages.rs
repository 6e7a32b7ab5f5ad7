//! Compartmentalized pipeline stages: the scalable batcher/executor split.
//!
//! A monolithic replica pays for request intake (signature verification,
//! dedup, bucket queueing), ordering, and delivery out of one CPU budget. The
//! compartmentalized deployment splits the first and last of these into
//! first-class simnet processes co-located with the orderer:
//!
//! * [`BatcherProcess`] — owns the bucket queues for the buckets `b` with
//!   `b mod B == index` (`B` batchers per node), validates incoming client
//!   requests, and cuts batches from the currently led buckets on the node's
//!   proposal cadence, handing them to the orderer as
//!   [`StageMsg::BatchReady`];
//! * [`ExecutorProcess`] — receives committed `(request, seq-nr)` pairs
//!   (fanned out by `request_seq_nr mod E`) and performs delivery: sink
//!   notification and, when enabled, the client response.
//!
//! Work distribution is a deterministic bucket hash on the batcher side and a
//! deterministic seq-nr hash on the executor side, so a run is
//! bit-reproducible for a fixed stage count. Each stage is its own simnet
//! process with its own CPU budget; client requests are delivered *to the
//! batcher*, so their per-request verification cost lands on the batcher's
//! CPU rather than the orderer's. That relocation is the lever that moves the
//! saturation plateau (see `docs/architecture.md` for the measured curve).
//!
//! The request-id → bucket → batcher mapping is stable across epochs, so all
//! state about one request (queued copy, delivered mark) lives at exactly one
//! batcher and the [`StageMsg::Committed`] / [`StageMsg::Resurrect`] fan-outs
//! from the orderer always reach the stage that holds it.
//!
//! The orderer's side — its ready queue and every handoff to these stages —
//! is `PipelineState`, which [`IssNode`](crate::IssNode) calls through
//! one-line hooks.

use crate::buckets::BucketQueues;
use crate::log::DeliveredBatch;
use crate::node::{
    record_cut, telemetry_batch_key, telemetry_request_key, DeliverySink, PipelineOptions,
};
use crate::validation::{EpochBuckets, RequestValidation};
use iss_crypto::SignatureRegistry;
use iss_messages::{ClientMsg, NetMsg, StageMsg};
use iss_runtime::process::{Addr, Context, Process, StageRole};
use iss_telemetry::TelemetryHandle;
use iss_types::{
    Batch, BucketId, Duration, EpochNr, IssConfig, NodeId, Request, RequestId, Time, TimerId,
};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

/// Timer kind of the batcher's periodic cut tick.
const KIND_CUT: u64 = 1;

/// The batcher stage owning `bucket` among `num_batchers` stages on an
/// `num_nodes`-replica deployment.
///
/// A plain `bucket % num_batchers` would correlate with the bucket → leader
/// assignment (a node's led buckets form one residue class mod `n`):
/// whenever `gcd(B, n) > 1`, every bucket a node leads falls into the same
/// batcher and a single stage ends up doing all of the node's intake.
/// Round-robin on the *quotient* `bucket / n` instead walks each residue
/// class `{c, c+n, c+2n, …}` through the batchers in turn, so every node's
/// led set splits evenly (±1) across its stages. Clients, the orderer's
/// commit/resurrect fan-out and the batcher's ownership check all route
/// through this one function, so the mapping can never drift apart.
pub fn batcher_for(bucket: BucketId, num_nodes: usize, num_batchers: u32) -> u32 {
    ((bucket.index() / num_nodes.max(1)) % num_batchers as usize) as u32
}

/// Live counters of one pipeline stage (or of the orderer's ready-batch
/// queue), shared with the deployment for the per-stage `Report` columns.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageCounters {
    /// Handoff messages this stage produced (batcher: batches cut) or
    /// consumed (executor: `Execute` messages; orderer: ready batches).
    pub handoffs: u64,
    /// Peak backlog observed: queued requests at a batcher, queued ready
    /// batches at the orderer, deliveries per handoff at an executor.
    pub max_queue_depth: usize,
}

/// Shared handle to a stage's counters, held by the stage and the deployment.
pub type StageCountersHandle = Rc<RefCell<StageCounters>>;

/// Creates a fresh counter handle.
pub fn stage_counters() -> StageCountersHandle {
    Rc::new(RefCell::new(StageCounters::default()))
}

/// The intake stage in front of one orderer: request validation, bucket
/// queueing and bucket-aware batch cutting for its share of the buckets.
pub struct BatcherProcess {
    parent: NodeId,
    index: u32,
    num_batchers: u32,
    config: IssConfig,
    buckets: BucketQueues,
    validation: RequestValidation,
    /// Intersection of the parent's currently led buckets with the buckets
    /// this batcher owns (empty while the parent is not leading).
    led: Vec<BucketId>,
    last_cut_at: Time,
    counters: Option<StageCountersHandle>,
    /// The parent machine's telemetry (shared with the orderer, so a cut
    /// recorded here pairs with the orderer's proposal).
    telemetry: TelemetryHandle,
}

impl BatcherProcess {
    /// Creates batcher `index` of `num_batchers` for the replica `parent`.
    pub fn new(
        parent: NodeId,
        index: u32,
        num_batchers: u32,
        config: IssConfig,
        registry: Arc<SignatureRegistry>,
        counters: Option<StageCountersHandle>,
        telemetry: TelemetryHandle,
    ) -> Self {
        assert!(index < num_batchers, "batcher index out of range");
        let validation = RequestValidation::new(
            registry,
            config.client_signatures,
            config.num_buckets(),
            config.client_watermark_window,
            config.max_batch_size,
        );
        let buckets = BucketQueues::new(config.num_buckets());
        BatcherProcess {
            parent,
            index,
            num_batchers,
            config,
            buckets,
            validation,
            led: Vec::new(),
            last_cut_at: Time::ZERO,
            counters,
            telemetry,
        }
    }

    /// Whether this batcher owns `bucket` (deterministic bucket hash).
    fn owns(&self, bucket: BucketId) -> bool {
        batcher_for(bucket, self.config.num_nodes, self.num_batchers) == self.index
    }

    /// The cut cadence. The orderer proposes every `leaders / batch_rate`
    /// seconds; compartment deployments are fault-free, so every node leads
    /// and the batcher can derive the same interval from the node count
    /// without tracking the live leaderset.
    fn cut_interval(&self) -> Duration {
        match self.config.batch_rate {
            Some(rate) => Duration::from_secs_f64(self.config.num_nodes as f64 / rate),
            None => Duration::from_millis(100),
        }
    }

    /// Per-cut size cap. The orderer consumes at most `max_batch_size`
    /// requests per proposal tick and all `B` batchers cut on that same
    /// cadence, so each cut is capped at a `1/B` share: the merged proposal
    /// exactly fills and the ready queue never builds a backlog that would be
    /// flushed (and stranded at a no-longer-leading node) at the next epoch
    /// transition.
    fn cut_size(&self) -> usize {
        (self.config.max_batch_size / self.num_batchers.max(1) as usize).max(1)
    }

    fn note_depth(&self) {
        if let Some(c) = &self.counters {
            let mut c = c.borrow_mut();
            c.max_queue_depth = c.max_queue_depth.max(self.buckets.len());
        }
    }
}

impl Process<NetMsg> for BatcherProcess {
    fn on_start(&mut self, ctx: &mut Context<'_, NetMsg>) {
        self.last_cut_at = ctx.now();
        ctx.set_timer(self.cut_interval(), KIND_CUT);
    }

    fn on_message(&mut self, _from: Addr, msg: NetMsg, ctx: &mut Context<'_, NetMsg>) {
        match msg {
            // Intake: this stage pays the per-request verification cost
            // (charged by the runtime on delivery); invalid requests fail
            // the guard and fall through to the drop arm, exactly as the
            // monolithic node drops them.
            NetMsg::Client(ClientMsg::Request(req))
                if self.validation.validate_request(&req).is_ok() =>
            {
                self.telemetry
                    .on_arrival(ctx.now(), telemetry_request_key(&req.id));
                self.buckets.add(req);
                self.note_depth();
            }
            NetMsg::Stage(StageMsg::Committed { requests }) => {
                for id in &requests {
                    self.buckets.remove(id);
                    self.validation.mark_delivered(id);
                }
            }
            NetMsg::Stage(StageMsg::Resurrect { requests }) => {
                for req in requests {
                    if !self.validation.is_delivered(&req.id) {
                        self.buckets.resurrect(req);
                    }
                }
                self.note_depth();
            }
            NetMsg::Stage(StageMsg::EpochLeading { buckets, .. }) => {
                self.led = buckets.into_iter().filter(|b| self.owns(*b)).collect();
                // Advance the client watermark windows at the epoch boundary
                // the same way the orderer's validation does. The bucket
                // restriction stays empty: batchers never validate proposals.
                self.validation.on_epoch_start(EpochBuckets::default());
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, _id: TimerId, kind: u64, ctx: &mut Context<'_, NetMsg>) {
        if kind != KIND_CUT {
            return;
        }
        // Re-arm first so the tick keeps running across epochs.
        ctx.set_timer(self.cut_interval(), KIND_CUT);
        if self.led.is_empty() {
            return;
        }
        let now = ctx.now();
        let available = self.buckets.available_in(&self.led);
        let since_last = now.saturating_since(self.last_cut_at);
        let full = available >= self.cut_size();
        let have_some = available > 0 && since_last >= self.config.min_batch_timeout;
        if !(full || have_some) {
            // Empty and timed-out proposals stay the orderer's concern: a
            // batcher never hands over an empty batch.
            return;
        }
        let batch = self.buckets.cut_batch(&self.led, self.cut_size());
        if batch.is_empty() {
            return;
        }
        self.last_cut_at = now;
        if let Some(c) = &self.counters {
            c.borrow_mut().handoffs += 1;
        }
        record_cut(&self.telemetry, now, &batch);
        ctx.send(
            Addr::Node(self.parent),
            NetMsg::Stage(StageMsg::BatchReady { batch }),
        );
    }
}

/// The delivery stage behind one orderer: applies its share of the committed
/// requests (sink notification) and answers clients.
pub struct ExecutorProcess {
    parent: NodeId,
    respond_to_clients: bool,
    sink: Rc<RefCell<dyn DeliverySink>>,
    counters: Option<StageCountersHandle>,
    /// The parent machine's telemetry; delivery here closes the arrival
    /// recorded at the batcher (end-to-end latency).
    telemetry: TelemetryHandle,
}

impl ExecutorProcess {
    /// Creates an executor for the replica `parent`, reporting deliveries to
    /// `sink` under the parent's node id.
    pub fn new(
        parent: NodeId,
        respond_to_clients: bool,
        sink: Rc<RefCell<dyn DeliverySink>>,
        counters: Option<StageCountersHandle>,
        telemetry: TelemetryHandle,
    ) -> Self {
        ExecutorProcess {
            parent,
            respond_to_clients,
            sink,
            counters,
            telemetry,
        }
    }
}

impl Process<NetMsg> for ExecutorProcess {
    fn on_start(&mut self, _ctx: &mut Context<'_, NetMsg>) {}

    fn on_message(&mut self, _from: Addr, msg: NetMsg, ctx: &mut Context<'_, NetMsg>) {
        let NetMsg::Stage(StageMsg::Execute { deliveries }) = msg else {
            return;
        };
        if let Some(c) = &self.counters {
            let mut c = c.borrow_mut();
            c.handoffs += 1;
            c.max_queue_depth = c.max_queue_depth.max(deliveries.len());
        }
        deliver_requests(
            self.parent,
            deliveries.iter().map(|(request, sn)| (*sn, request)),
            &self.sink,
            &self.telemetry,
            self.respond_to_clients,
            ctx,
        );
    }

    fn on_timer(&mut self, _id: TimerId, _kind: u64, _ctx: &mut Context<'_, NetMsg>) {}
}

/// Delivers requests at replica `node`, in order: closes each request's
/// end-to-end telemetry span, notifies the sink and, when `respond` is set,
/// answers the client. Used by the monolithic orderer and by the executor
/// stages alike.
pub(crate) fn deliver_requests<'a>(
    node: NodeId,
    deliveries: impl IntoIterator<Item = (u64, &'a Request)>,
    sink: &RefCell<dyn DeliverySink>,
    telemetry: &TelemetryHandle,
    respond: bool,
    ctx: &mut Context<'_, NetMsg>,
) {
    let now = ctx.now();
    let mut sink = sink.borrow_mut();
    for (request_seq_nr, request) in deliveries {
        telemetry.on_end_to_end(now, telemetry_request_key(&request.id));
        sink.on_request_delivered(node, request, request_seq_nr, now);
        if respond {
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

/// The orderer's side of the compartmentalized pipeline: the batches its
/// batcher stages cut, waiting for a proposal slot, and every handoff from
/// the orderer to its stages.
pub(crate) struct PipelineState {
    node: NodeId,
    batchers: u32,
    executors: u32,
    num_buckets: usize,
    num_nodes: usize,
    /// Batches cut by the batcher stages, waiting for a free slot in this
    /// node's segment.
    ready: VecDeque<Batch>,
    /// Peak ready-queue backlog (the orderer's queue-depth column).
    counters: Option<StageCountersHandle>,
}

impl PipelineState {
    pub(crate) fn new(node: NodeId, config: &IssConfig, opts: &PipelineOptions) -> Self {
        PipelineState {
            node,
            batchers: opts.batchers.max(1),
            executors: opts.executors.max(1),
            num_buckets: config.num_buckets(),
            num_nodes: config.num_nodes,
            ready: VecDeque::new(),
            counters: opts.counters.clone(),
        }
    }

    /// Queues a batch a batcher stage cut for the next free proposal slot
    /// (the orderer's pacing tick enforces the batch rate).
    pub(crate) fn on_batch_ready(&mut self, batch: Batch, telemetry: &TelemetryHandle) {
        self.ready.push_back(batch);
        if let Some(c) = &self.counters {
            let mut c = c.borrow_mut();
            c.handoffs += 1;
            c.max_queue_depth = c.max_queue_depth.max(self.ready.len());
        }
        telemetry.gauge_set("orderer.ready_queue", self.ready.len() as u64);
    }

    /// Merges queued batches, oldest first, into one proposal of at most
    /// `max_size` requests (`None` when nothing is queued): B batchers each
    /// cut ~1/B-sized batches on the same cadence, so one ready batch per
    /// proposal would divide throughput by B instead of scaling it. The
    /// telemetry key of each merged batch goes to `sources`, if given.
    pub(crate) fn take_proposal(
        &mut self,
        max_size: usize,
        sources: Option<&mut Vec<u64>>,
    ) -> Option<Batch> {
        let mut merged = vec![self.ready.pop_front()?];
        let mut len = merged[0].len();
        while let Some(next) = self.ready.front() {
            if len + next.len() > max_size {
                break;
            }
            len += next.len();
            merged.push(self.ready.pop_front().expect("front checked"));
        }
        if let Some(sources) = sources {
            sources.extend(merged.iter().map(telemetry_batch_key));
        }
        let requests = merged.iter().flat_map(|b| b.requests().iter().cloned());
        Some(Batch::new(requests.collect()))
    }

    /// Epoch transition. Batches still queued for proposal were cut against
    /// the previous epoch's bucket-leader alignment: hand their requests back
    /// to the owning batchers. Then announce the new epoch's `led` buckets
    /// (empty when this node does not lead), so the batchers cut only from
    /// buckets this orderer may propose.
    pub(crate) fn on_epoch_start(
        &mut self,
        epoch: EpochNr,
        led: &[BucketId],
        validation: &RequestValidation,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        for batch in std::mem::take(&mut self.ready) {
            self.resurrect(batch.requests(), validation, ctx);
        }
        for index in 0..self.batchers {
            let buckets = led.to_vec();
            let msg = StageMsg::EpochLeading { epoch, buckets };
            ctx.send(self.stage(StageRole::Batcher, index), NetMsg::Stage(msg));
        }
    }

    /// Commit fan-out: tells the owning batchers these requests are ordered,
    /// so queued copies are dropped and re-submissions rejected.
    pub(crate) fn on_commit(&self, batch: &Batch, ctx: &mut Context<'_, NetMsg>) {
        let ids = batch.requests().iter().map(|r| (self.batcher(&r.id), r.id));
        let msg = |requests| StageMsg::Committed { requests };
        self.fan_out(StageRole::Batcher, ids, msg, ctx);
    }

    /// Hands the not-yet-delivered `requests` back to their owning batchers
    /// (⊥-resolved proposals, stale ready batches at epoch transitions).
    pub(crate) fn resurrect(
        &self,
        requests: &[Request],
        validation: &RequestValidation,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        let undelivered = requests
            .iter()
            .filter(|r| !validation.is_delivered(&r.id))
            .map(|r| (self.batcher(&r.id), r.clone()));
        let msg = |requests| StageMsg::Resurrect { requests };
        self.fan_out(StageRole::Batcher, undelivered, msg, ctx);
    }

    /// Delivery fan-out: each delivered request goes to the executor stage
    /// `request_seq_nr mod E`, which notifies the sink and answers the
    /// client.
    pub(crate) fn execute(&self, delivered: &[DeliveredBatch], ctx: &mut Context<'_, NetMsg>) {
        let e = self.executors as u64;
        let deliveries = delivered
            .iter()
            .flat_map(DeliveredBatch::numbered)
            .map(|(sn, request)| ((sn % e) as u32, (request.clone(), sn)));
        let msg = |deliveries| StageMsg::Execute { deliveries };
        self.fan_out(StageRole::Executor, deliveries, msg, ctx);
    }

    /// The batcher stage owning the bucket of request `id`.
    fn batcher(&self, id: &RequestId) -> u32 {
        batcher_for(id.bucket(self.num_buckets), self.num_nodes, self.batchers)
    }

    /// Groups `items` by the index of their stage of `role` and sends each
    /// stage its group as one message, skipping empty groups.
    fn fan_out<T>(
        &self,
        role: StageRole,
        items: impl Iterator<Item = (u32, T)>,
        msg: fn(Vec<T>) -> StageMsg,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        let stages = match role {
            StageRole::Batcher => self.batchers,
            StageRole::Executor => self.executors,
        };
        let mut groups: Vec<Vec<T>> = (0..stages).map(|_| Vec::new()).collect();
        for (index, item) in items {
            groups[index as usize].push(item);
        }
        for (index, group) in (0..stages).zip(groups) {
            if !group.is_empty() {
                ctx.send(self.stage(role, index), NetMsg::Stage(msg(group)));
            }
        }
    }

    fn stage(&self, role: StageRole, index: u32) -> Addr {
        let node = self.node;
        Addr::Stage { node, role, index }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iss_types::{ClientId, Request};

    fn batcher(index: u32, num_batchers: u32) -> BatcherProcess {
        let mut config = IssConfig::pbft(4);
        config.client_signatures = false;
        BatcherProcess::new(
            NodeId(0),
            index,
            num_batchers,
            config,
            Arc::new(SignatureRegistry::with_processes(4, 4)),
            Some(stage_counters()),
            TelemetryHandle::disabled(),
        )
    }

    #[test]
    fn bucket_ownership_partitions_across_batchers() {
        let b0 = batcher(0, 3);
        let b1 = batcher(1, 3);
        let b2 = batcher(2, 3);
        for i in 0..64u32 {
            let owners = [&b0, &b1, &b2]
                .iter()
                .filter(|b| b.owns(BucketId(i)))
                .count();
            assert_eq!(owners, 1, "bucket {i} owned by exactly one batcher");
        }
    }

    #[test]
    fn batcher_hash_balances_every_leader_residue_class() {
        // The buckets one node of n leads are those ≡ node (mod n). For every
        // (n, B) with gcd > 1, a plain `bucket % B` would dump all of them on
        // one batcher; the quotient round-robin must split each node's led
        // set evenly (±1) instead.
        for n in [4usize, 8] {
            for b in [2u32, 3] {
                for node in 0..n as u32 {
                    let led: Vec<u32> = (0..64).filter(|i| i % n as u32 == node).collect();
                    let mut per_batcher = vec![0usize; b as usize];
                    for i in led {
                        per_batcher[batcher_for(BucketId(i), n, b) as usize] += 1;
                    }
                    let max = per_batcher.iter().max().unwrap();
                    let min = per_batcher.iter().min().unwrap();
                    assert!(
                        max - min <= 1,
                        "n={n} B={b} node={node}: unbalanced {per_batcher:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn cut_interval_matches_the_orderer_proposal_cadence() {
        // pbft(4): 32 batches/s system-wide, 4 leaders → 125 ms per leader.
        let b = batcher(0, 2);
        assert_eq!(b.cut_interval(), Duration::from_millis(125));
    }

    #[test]
    fn committed_and_resurrect_keep_dedup_state_consistent() {
        let mut b = batcher(0, 1);
        let req = Request::synthetic(ClientId(1), 1, 100);
        b.buckets.add(req.clone());
        // Commit drops the queued copy and blocks resurrection afterwards.
        b.buckets.remove(&req.id);
        b.validation.mark_delivered(&req.id);
        assert!(b.validation.validate_request(&req).is_err());
        if !b.validation.is_delivered(&req.id) {
            b.buckets.resurrect(req.clone());
        }
        assert!(!b.buckets.contains(&req.id));
    }
}
