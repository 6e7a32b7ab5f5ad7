//! Engine-agnostic telemetry for the ISS reproduction.
//!
//! This crate instruments the sans-IO runtime boundary: processes record
//! commit-path events with timestamps taken from `Context::now()`, which is
//! virtual time under the simulator and monotonic wall-clock time under the
//! TCP runtime — so the *same* instrumentation code in `iss-core` yields
//! latency breakdowns under both engines.
//!
//! Three recording primitives, all allocation-free on the hot path:
//!
//! * **Spans** — commit-path causality events (request arrival → batch cut →
//!   proposal → quorum → delivery) in a fixed-capacity, overwrite-oldest
//!   [`ring::SpanRing`] per machine.
//! * **Phase histograms** — log-linear [`hist::Histogram`]s of the latency
//!   between consecutive commit-path events, paired through compact `u64`
//!   correlation keys ([`request_key`] / [`batch_key`]).
//! * **Counters / gauges / CPU-by-class** — keyed by `&'static str` names
//!   (plus an optional small index for per-peer series) so
//!   recording never formats or allocates.
//!
//! Every recording call goes through a [`TelemetryHandle`]. The disabled mode
//! is a `None` handle: every recording call is one branch and returns, the event loop's behaviour (RNG draws, event order, output)
//! is untouched, and same-seed runs stay byte-identical with telemetry off.

pub mod export;
pub mod hist;
pub mod ring;

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use iss_types::{FxHashMap, MsgClass, Time};

pub use hist::Histogram;
pub use ring::{SpanKind, SpanRecord, SpanRing};

/// Per-machine span-ring capacity.
pub const RING_CAPACITY: usize = 4096;

/// A commit-path phase whose latency is tracked in its own histogram.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
#[repr(u8)]
pub enum Phase {
    /// Request arrival at its node → the batch containing it is cut.
    ArrivalToCut = 0,
    /// Batch cut → the batch is included in a proposal. Near zero: the node
    /// cuts a batch at proposal time.
    CutToPropose = 1,
    /// Proposal → the ordering instance commits the sequence number
    /// (recorded on the proposing node).
    ProposeToQuorum = 2,
    /// Commit → the batch clears the ISS log's in-order delivery barrier.
    QuorumToDeliver = 3,
    /// Request arrival → the request is delivered to the application.
    EndToEnd = 4,
}

impl Phase {
    /// Number of phases (array-table sizing).
    pub const COUNT: usize = 5;

    /// All phases, in commit-path order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::ArrivalToCut,
        Phase::CutToPropose,
        Phase::ProposeToQuorum,
        Phase::QuorumToDeliver,
        Phase::EndToEnd,
    ];

    /// Stable label (export format).
    pub fn label(self) -> &'static str {
        match self {
            Phase::ArrivalToCut => "arrival->cut",
            Phase::CutToPropose => "cut->propose",
            Phase::ProposeToQuorum => "propose->quorum",
            Phase::QuorumToDeliver => "quorum->deliver",
            Phase::EndToEnd => "end-to-end",
        }
    }
}

/// Compact correlation key for a client request, computed from the request's
/// identity `(client, timestamp)`. The same mix on both sides of a phase
/// pairs arrival with cut and delivery without carrying extra state in
/// messages.
#[inline]
pub fn request_key(client: u64, timestamp: u64) -> u64 {
    let mut x = client.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29)
        ^ timestamp.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    x ^= x >> 32;
    x = x.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    x ^ (x >> 29)
}

/// Compact correlation key for a batch: an order-sensitive fold over the
/// request keys of its requests. Batches preserve request order from cut to
/// proposal, so the cut and the proposal compute the same key independently.
#[inline]
pub fn batch_key(req_keys: impl Iterator<Item = u64>) -> u64 {
    let mut acc = 0xCBF2_9CE4_8422_2325u64;
    for k in req_keys {
        acc = (acc ^ k).wrapping_mul(0x0000_0100_0000_01B3);
    }
    acc
}

/// Last-written and maximum value of a gauge.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct GaugeStat {
    /// Most recently set value.
    pub last: u64,
    /// Largest value ever set.
    pub max: u64,
}

/// Key for counter/gauge series: a static name plus an optional small index
/// (a peer id) so per-peer series never allocate a name string.
pub type SeriesKey = (&'static str, Option<u32>);

/// Per-machine telemetry state: span ring, phase histograms, correlation
/// maps, counters/gauges and CPU-by-class totals, one per node.
#[derive(Debug)]
pub struct Telemetry {
    node: u32,
    ring: SpanRing,
    phases: [Histogram; Phase::COUNT],
    /// request key → arrival time (consumed at end-to-end delivery).
    pending_arrival: FxHashMap<u64, u64>,
    /// batch key → cut time (consumed at proposal).
    pending_cut: FxHashMap<u64, u64>,
    /// sequence number → proposal time (consumed at commit).
    pending_propose: FxHashMap<u64, u64>,
    /// sequence number → commit time (consumed at delivery).
    pending_quorum: FxHashMap<u64, u64>,
    counters: BTreeMap<SeriesKey, u64>,
    gauges: BTreeMap<SeriesKey, GaugeStat>,
    cpu_us: [u64; MsgClass::COUNT],
}

impl Telemetry {
    /// Fresh telemetry for `node` with a [`RING_CAPACITY`]-span ring.
    pub fn new(node: u32) -> Self {
        Telemetry {
            node,
            ring: SpanRing::new(RING_CAPACITY),
            phases: std::array::from_fn(|_| Histogram::new()),
            pending_arrival: FxHashMap::default(),
            pending_cut: FxHashMap::default(),
            pending_propose: FxHashMap::default(),
            pending_quorum: FxHashMap::default(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            cpu_us: [0; MsgClass::COUNT],
        }
    }

    #[inline]
    fn span(&mut self, t: Time, kind: SpanKind, key: u64, aux: u64) {
        self.ring.push(SpanRecord {
            t_us: t.as_micros(),
            node: self.node,
            kind,
            key,
            aux,
        });
    }

    /// A client request arrived at its node.
    pub fn on_arrival(&mut self, t: Time, req_key: u64) {
        self.span(t, SpanKind::Arrival, req_key, 0);
        self.pending_arrival.insert(req_key, t.as_micros());
    }

    /// A batch was cut. `req_keys` are the keys of its requests (pairs each
    /// with its arrival for [`Phase::ArrivalToCut`]); the batch itself waits
    /// in `pending_cut` until proposed.
    pub fn on_cut(&mut self, t: Time, bkey: u64, req_keys: impl Iterator<Item = u64>) {
        let now = t.as_micros();
        let mut n = 0u64;
        for rk in req_keys {
            n += 1;
            if let Some(&at) = self.pending_arrival.get(&rk) {
                self.phases[Phase::ArrivalToCut as usize].record(now.saturating_sub(at));
            }
        }
        self.span(t, SpanKind::Cut, bkey, n);
        self.pending_cut.insert(bkey, now);
    }

    /// Sequence number `sn` was proposed carrying `num_requests` requests
    /// merged from the batches identified by `source_batch_keys`.
    pub fn on_propose(
        &mut self,
        t: Time,
        sn: u64,
        num_requests: u64,
        source_batch_keys: impl Iterator<Item = u64>,
    ) {
        let now = t.as_micros();
        for bkey in source_batch_keys {
            if let Some(cut) = self.pending_cut.remove(&bkey) {
                self.phases[Phase::CutToPropose as usize].record(now.saturating_sub(cut));
            }
        }
        self.span(t, SpanKind::Propose, sn, num_requests);
        self.pending_propose.insert(sn, now);
    }

    /// The ordering instance committed `sn`. The propose→quorum sample only
    /// materialises on the node that proposed `sn`; every node starts the
    /// quorum→deliver clock.
    pub fn on_quorum(&mut self, t: Time, sn: u64) {
        let now = t.as_micros();
        if let Some(prop) = self.pending_propose.remove(&sn) {
            self.phases[Phase::ProposeToQuorum as usize].record(now.saturating_sub(prop));
        }
        self.span(t, SpanKind::Quorum, sn, 0);
        self.pending_quorum.insert(sn, now);
    }

    /// The batch at `sn` cleared the in-order delivery barrier.
    pub fn on_deliver(&mut self, t: Time, sn: u64) {
        let now = t.as_micros();
        if let Some(q) = self.pending_quorum.remove(&sn) {
            self.phases[Phase::QuorumToDeliver as usize].record(now.saturating_sub(q));
        }
        self.span(t, SpanKind::Deliver, sn, 0);
    }

    /// The request identified by `req_key` was delivered to the application.
    pub fn on_end_to_end(&mut self, t: Time, req_key: u64) {
        let now = t.as_micros();
        if let Some(at) = self.pending_arrival.remove(&req_key) {
            let lat = now.saturating_sub(at);
            self.phases[Phase::EndToEnd as usize].record(lat);
            self.span(t, SpanKind::EndToEnd, req_key, lat);
        }
    }

    /// Adds `by` to a counter series.
    pub fn counter_add(&mut self, key: SeriesKey, by: u64) {
        *self.counters.entry(key).or_insert(0) += by;
    }

    /// Sets a gauge series to `v`.
    pub fn gauge_set(&mut self, key: SeriesKey, v: u64) {
        let g = self.gauges.entry(key).or_default();
        g.last = v;
        g.max = g.max.max(v);
    }

    /// Attributes CPU time to a message class.
    pub fn cpu_charge(&mut self, class: MsgClass, us: u64) {
        self.cpu_us[class as usize] += us;
    }

    /// An immutable snapshot of everything recorded so far.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            nodes: vec![self.node],
            phases: self.phases.clone(),
            cpu_us: self.cpu_us,
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            spans: self.ring.iter_ordered().copied().collect(),
            spans_dropped: self.ring.dropped(),
        }
    }
}

/// Everything a [`Telemetry`] recorded, detached from the live instance.
/// Snapshots from different machines [`merge`](TelemetrySnapshot::merge)
/// into a cluster-wide view.
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetrySnapshot {
    /// Nodes that contributed to this snapshot, ascending.
    pub nodes: Vec<u32>,
    /// Per-phase latency histograms, indexed by `Phase as usize`.
    pub phases: [Histogram; Phase::COUNT],
    /// CPU microseconds attributed per message class, indexed by
    /// `MsgClass as usize`.
    pub cpu_us: [u64; MsgClass::COUNT],
    /// Counter series.
    pub counters: BTreeMap<SeriesKey, u64>,
    /// Gauge series.
    pub gauges: BTreeMap<SeriesKey, GaugeStat>,
    /// Retained span records, oldest first (sorted after a merge).
    pub spans: Vec<SpanRecord>,
    /// Spans overwritten because the ring was full.
    pub spans_dropped: u64,
}

impl TelemetrySnapshot {
    /// An empty snapshot (identity element for [`merge`](Self::merge)).
    pub fn empty() -> Self {
        TelemetrySnapshot {
            nodes: Vec::new(),
            phases: std::array::from_fn(|_| Histogram::new()),
            cpu_us: [0; MsgClass::COUNT],
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            spans: Vec::new(),
            spans_dropped: 0,
        }
    }

    /// Histogram for one phase.
    pub fn phase(&self, p: Phase) -> &Histogram {
        &self.phases[p as usize]
    }

    /// Total CPU microseconds attributed across all classes.
    pub fn cpu_total_us(&self) -> u64 {
        self.cpu_us.iter().sum()
    }

    /// Merges another machine's snapshot into this one: histograms and
    /// counters add, gauges keep the element-wise maximum, spans are
    /// concatenated and re-sorted by time (ties broken by node, kind, key)
    /// so the merged timeline is deterministic regardless of merge order.
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        for n in &other.nodes {
            if !self.nodes.contains(n) {
                self.nodes.push(*n);
            }
        }
        self.nodes.sort_unstable();
        for (a, b) in self.phases.iter_mut().zip(other.phases.iter()) {
            a.merge(b);
        }
        for (a, b) in self.cpu_us.iter_mut().zip(other.cpu_us.iter()) {
            *a += *b;
        }
        for (k, v) in &other.counters {
            *self.counters.entry(*k).or_insert(0) += *v;
        }
        for (k, g) in &other.gauges {
            let e = self.gauges.entry(*k).or_default();
            e.last = e.last.max(g.last);
            e.max = e.max.max(g.max);
        }
        self.spans.extend_from_slice(&other.spans);
        self.spans
            .sort_by_key(|s| (s.t_us, s.node, s.kind, s.key, s.aux));
        self.spans_dropped += other.spans_dropped;
    }

    /// Renders the deterministic human-readable summary table.
    pub fn render_table(&self) -> String {
        export::render_table(self)
    }

    /// Renders the span timeline plus summary as JSON lines.
    pub fn to_jsonl(&self) -> String {
        export::to_jsonl(self)
    }
}

/// Cheap, cloneable, `Send` handle to a machine's [`Telemetry`] — or to
/// nothing when telemetry is disabled, in which case every recording call is
/// a single branch on `None`.
///
/// Under the TCP runtime the handle is shared between the protocol thread
/// and the cluster harness reading snapshots — hence `Arc<Mutex<_>>` rather than anything
/// thread-local. The mutex is uncontended in steady state (the protocol
/// thread is the only recorder).
#[derive(Clone, Default, Debug)]
pub struct TelemetryHandle {
    inner: Option<Arc<Mutex<Telemetry>>>,
}

impl TelemetryHandle {
    /// The disabled handle: all recording is a no-op.
    pub fn disabled() -> Self {
        TelemetryHandle { inner: None }
    }

    /// An enabled handle for `node`.
    pub fn enabled(node: u32) -> Self {
        TelemetryHandle {
            inner: Some(Arc::new(Mutex::new(Telemetry::new(node)))),
        }
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    #[inline]
    fn with<R>(&self, f: impl FnOnce(&mut Telemetry) -> R) -> Option<R> {
        self.inner
            .as_ref()
            .map(|t| f(&mut t.lock().expect("telemetry poisoned")))
    }

    /// See [`Telemetry::on_arrival`].
    #[inline]
    pub fn on_arrival(&self, t: Time, req_key: u64) {
        self.with(|tel| tel.on_arrival(t, req_key));
    }

    /// See [`Telemetry::on_cut`].
    #[inline]
    pub fn on_cut(&self, t: Time, bkey: u64, req_keys: impl Iterator<Item = u64>) {
        self.with(|tel| tel.on_cut(t, bkey, req_keys));
    }

    /// See [`Telemetry::on_propose`].
    #[inline]
    pub fn on_propose(
        &self,
        t: Time,
        sn: u64,
        num_requests: u64,
        source_batch_keys: impl Iterator<Item = u64>,
    ) {
        self.with(|tel| tel.on_propose(t, sn, num_requests, source_batch_keys));
    }

    /// See [`Telemetry::on_quorum`].
    #[inline]
    pub fn on_quorum(&self, t: Time, sn: u64) {
        self.with(|tel| tel.on_quorum(t, sn));
    }

    /// See [`Telemetry::on_deliver`].
    #[inline]
    pub fn on_deliver(&self, t: Time, sn: u64) {
        self.with(|tel| tel.on_deliver(t, sn));
    }

    /// See [`Telemetry::on_end_to_end`].
    #[inline]
    pub fn on_end_to_end(&self, t: Time, req_key: u64) {
        self.with(|tel| tel.on_end_to_end(t, req_key));
    }

    /// Adds `by` to the counter `name`.
    #[inline]
    pub fn counter_add(&self, name: &'static str, by: u64) {
        self.with(|tel| tel.counter_add((name, None), by));
    }

    /// Sets the gauge `name` to `v` (tracks last and max).
    #[inline]
    pub fn gauge_set(&self, name: &'static str, v: u64) {
        self.with(|tel| tel.gauge_set((name, None), v));
    }

    /// Sets the indexed gauge series `name[idx]` to `v`.
    #[inline]
    pub fn gauge_set_for(&self, name: &'static str, idx: u32, v: u64) {
        self.with(|tel| tel.gauge_set((name, Some(idx)), v));
    }

    /// Attributes `us` microseconds of CPU time to message class `class`.
    #[inline]
    pub fn cpu_charge(&self, class: MsgClass, us: u64) {
        self.with(|tel| tel.cpu_charge(class, us));
    }

    /// Snapshot of everything recorded, `None` when disabled.
    pub fn snapshot(&self) -> Option<TelemetrySnapshot> {
        self.with(|tel| tel.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> Time {
        Time::from_micros(us)
    }

    #[test]
    fn full_commit_path_fills_every_phase() {
        let h = TelemetryHandle::enabled(0);
        let rk = request_key(7, 100);
        let bk = batch_key([rk].into_iter());
        h.on_arrival(t(10), rk);
        h.on_cut(t(25), bk, [rk].into_iter());
        h.on_propose(t(30), 0, 1, [bk].into_iter());
        h.on_quorum(t(90), 0);
        h.on_deliver(t(95), 0);
        h.on_end_to_end(t(95), rk);

        let s = h.snapshot().unwrap();
        assert_eq!(s.phase(Phase::ArrivalToCut).max(), 15);
        assert_eq!(s.phase(Phase::CutToPropose).max(), 5);
        assert_eq!(s.phase(Phase::ProposeToQuorum).max(), 60);
        assert_eq!(s.phase(Phase::QuorumToDeliver).max(), 5);
        assert_eq!(s.phase(Phase::EndToEnd).max(), 85);
        assert_eq!(s.spans.len(), 6);
        assert_eq!(s.spans_dropped, 0);
    }

    #[test]
    fn quorum_without_local_propose_still_tracks_delivery() {
        let h = TelemetryHandle::enabled(1);
        h.on_quorum(t(50), 3);
        h.on_deliver(t(70), 3);
        let s = h.snapshot().unwrap();
        assert!(s.phase(Phase::ProposeToQuorum).is_empty());
        assert_eq!(s.phase(Phase::QuorumToDeliver).max(), 20);
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let h = TelemetryHandle::disabled();
        assert!(!h.is_enabled());
        h.on_arrival(t(1), 1);
        h.counter_add("x", 1);
        h.cpu_charge(MsgClass::Request, 5);
        assert!(h.snapshot().is_none());
    }

    #[test]
    fn merge_combines_counters_gauges_and_sorts_spans() {
        let a = TelemetryHandle::enabled(0);
        let b = TelemetryHandle::enabled(1);
        a.counter_add("deliveries", 3);
        b.counter_add("deliveries", 4);
        a.gauge_set_for("queue", 2, 10);
        b.gauge_set_for("queue", 2, 7);
        b.on_arrival(t(5), 1);
        a.on_arrival(t(9), 2);

        let mut m = a.snapshot().unwrap();
        m.merge(&b.snapshot().unwrap());
        assert_eq!(m.nodes, vec![0, 1]);
        assert_eq!(m.counters[&("deliveries", None)], 7);
        assert_eq!(m.gauges[&("queue", Some(2))].max, 10);
        assert_eq!(m.spans[0].t_us, 5);
        assert_eq!(m.spans[1].t_us, 9);
    }

    #[test]
    fn merge_is_associative_on_snapshots() {
        let mk = |node: u32, base: u64| {
            let h = TelemetryHandle::enabled(node);
            for i in 0..20 {
                h.on_arrival(t(base + i), base + i);
                h.on_end_to_end(t(base + i + 50), base + i);
            }
            h.counter_add("n", node as u64 + 1);
            h.snapshot().unwrap()
        };
        let (a, b, c) = (mk(0, 0), mk(1, 1000), mk(2, 2000));

        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);

        let mut right = b.clone();
        right.merge(&c);
        let mut right_total = a.clone();
        right_total.merge(&right);

        assert_eq!(left, right_total);
    }

    #[test]
    fn request_key_spreads_and_is_stable() {
        assert_eq!(request_key(1, 2), request_key(1, 2));
        assert_ne!(request_key(1, 2), request_key(2, 1));
        assert_ne!(request_key(0, 0), request_key(0, 1));
    }

    #[test]
    fn batch_key_is_order_sensitive() {
        let fwd = batch_key([1u64, 2, 3].into_iter());
        let rev = batch_key([3u64, 2, 1].into_iter());
        assert_ne!(fwd, rev);
        assert_eq!(fwd, batch_key([1u64, 2, 3].into_iter()));
    }
}
