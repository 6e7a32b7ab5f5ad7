//! Metrics collection: throughput time series, latency statistics and
//! progress counters, shared between the harness and the node processes of
//! either engine ([`MetricsHandle`] on the simulator, [`SharedMetrics`]
//! across loopback's protocol threads).
//!
//! Beyond measurement, the sink is where a run's safety is checked: every
//! delivery from every node flows through it into one
//! [`DeliveryChecker`] (see [`iss_core::checker`] for the invariants and
//! the argument). On the simulator a [`Violation`] panics at the delivery
//! that caused it; on loopback, where a protocol thread must not panic,
//! [`Metrics::violation`] keeps the first one. The checker never prints, so
//! deterministic experiment stdout is unaffected.

use crate::cluster::Report;
use crate::scenario::RunWindow;
use iss_core::{DeliveryChecker, DeliverySink, Violation};
use iss_types::{EpochNr, Error, NodeId, Request, RequestId, SeqNr, Time};
use iss_workload::{LatencyStats, ThroughputTimeline, Workload};
use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::DerefMut;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

/// One completed catch-up (crash-restart recovery or reconnect fast path).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryEvent {
    /// The recovering node.
    pub node: NodeId,
    /// When the node entered recovery (boot from storage, or the moment it
    /// detected it had fallen behind).
    pub started_at: Time,
    /// When the node was fully caught up again.
    pub completed_at: Time,
    /// Log entries restored from the WAL at boot.
    pub entries_replayed: u64,
    /// Snapshot chunks received over the state-transfer fast path.
    pub snapshot_chunks: u64,
}

impl RecoveryEvent {
    /// Virtual time from recovery start to full catch-up.
    pub fn time_to_catch_up(&self) -> iss_types::Duration {
        self.completed_at.saturating_since(self.started_at)
    }
}

/// Aggregated measurements of one run.
#[derive(Default)]
pub struct Metrics {
    /// Throughput time series measured at the observer node.
    pub timeline: ThroughputTimeline,
    /// End-to-end latency (submission to delivery at the observer node).
    pub latency: LatencyStats,
    /// Epoch transitions observed at the observer node: (epoch, time).
    pub epochs: Vec<(EpochNr, Time)>,
    /// Batches (or ⊥) committed at the observer node.
    pub batches_committed: u64,
    /// ⊥ entries committed at the observer node.
    pub nil_committed: u64,
    /// Completed recoveries, in completion order.
    pub recoveries: Vec<RecoveryEvent>,
    /// Nodes currently in recovery and when they entered it.
    pub recovery_started: HashMap<NodeId, Time>,
    /// The workload whose (deterministic) schedule is used to recompute
    /// request submit times.
    pub workload: Option<Arc<dyn Workload>>,
    /// The node whose deliveries feed the timeline and latency statistics.
    pub observer: NodeId,
    /// Requests rejected at intake validation, per rejecting node (any
    /// error class). Always counted; empty in benign runs.
    pub rejected_per_node: HashMap<NodeId, u64>,
    /// The subset of rejections classified as replays
    /// ([`iss_types::Error::Replayed`]), per rejecting node.
    pub replayed_per_node: HashMap<NodeId, u64>,
    /// Proposals a node's validation refused to vote for (malformed,
    /// oversized, duplicate-carrying batches), per rejecting node.
    pub rejected_proposals_per_node: HashMap<NodeId, u64>,
    /// Whether to record per-request delivery times at the observer (enabled
    /// only for adversarial runs, where the liveness gates need them).
    pub track_deliveries: bool,
    /// First delivery time of each request at the observer node (populated
    /// only when [`Metrics::track_deliveries`] is set).
    pub delivered_at: HashMap<RequestId, Time>,
    /// Checks every delivery of every node (always on) and counts
    /// deliveries per node.
    pub checker: DeliveryChecker,
    /// The first delivery the checker rejected. Only a [`SharedMetrics`]
    /// sink records one; a [`MetricsHandle`] sink panics at it instead.
    pub violation: Option<Violation>,
}

impl Metrics {
    /// Creates metrics for a run of `num_nodes` nodes observed at
    /// `observer`.
    pub fn new(num_nodes: usize, observer: NodeId, workload: Option<Arc<dyn Workload>>) -> Self {
        Metrics {
            observer,
            workload,
            checker: DeliveryChecker::new(num_nodes),
            ..Default::default()
        }
    }

    /// Total requests delivered at the observer node.
    pub fn observer_delivered(&self) -> u64 {
        self.checker.delivered_at(self.observer)
    }

    /// Average delivered throughput at the observer over `[from, until)`.
    pub fn average_throughput(&self, from: Time, until: Time) -> f64 {
        self.timeline.average_between(from, until)
    }

    /// The report fields both engines take from the metrics (throughput
    /// over `window`'s `[warmup, duration]`), the rest zero or `None`.
    pub fn report(&mut self, window: RunWindow) -> Report {
        let (warm, end) = (Time::ZERO + window.warmup, Time::ZERO + window.duration);
        let mut rejected_requests: Vec<_> = self.rejected_per_node.clone().into_iter().collect();
        rejected_requests.sort_unstable_by_key(|(n, _)| *n);
        Report {
            throughput: self.average_throughput(warm, end),
            mean_latency: self.latency.mean(),
            p95_latency: self.latency.p95(),
            delivered: self.observer_delivered(),
            timeline: self.timeline.series().to_vec(),
            epochs: self.epochs.clone(),
            nil_committed: self.nil_committed,
            messages_sent: 0,
            bytes_sent: 0,
            messages_dropped: 0,
            recoveries: self.recoveries.clone(),
            rejected_requests,
            adversary: None,
            violation: self.violation.clone(),
            telemetry: None,
        }
    }
}

/// The simulator's handle to the run's metrics: one thread, so a
/// violation can panic at the delivery that caused it.
pub type MetricsHandle = Rc<RefCell<Metrics>>;

/// The loopback engine's handle to the run's metrics, shared by the
/// protocol threads; it keeps the first violation instead of panicking.
pub type SharedMetrics = Arc<Mutex<Metrics>>;

/// Creates a fresh shared metrics handle for a run of `num_nodes` nodes.
pub fn metrics_handle(
    num_nodes: usize,
    observer: NodeId,
    workload: Option<Arc<dyn Workload>>,
) -> MetricsHandle {
    Rc::new(RefCell::new(Metrics::new(num_nodes, observer, workload)))
}

/// A handle a [`MetricsSink`] records through: [`MetricsHandle`] or
/// [`SharedMetrics`].
pub trait MetricsCell {
    /// The metrics behind the handle, borrowed for one callback.
    fn open(&self) -> impl DerefMut<Target = Metrics> + '_;

    /// Handles a delivery the checker rejected.
    fn violated(metrics: &mut Metrics, violation: Violation);
}

impl MetricsCell for MetricsHandle {
    fn open(&self) -> impl DerefMut<Target = Metrics> + '_ {
        self.borrow_mut()
    }

    fn violated(_: &mut Metrics, violation: Violation) {
        panic!("{violation}");
    }
}

impl MetricsCell for SharedMetrics {
    fn open(&self) -> impl DerefMut<Target = Metrics> + '_ {
        self.lock().expect("metrics poisoned by a panic")
    }

    fn violated(metrics: &mut Metrics, violation: Violation) {
        metrics.violation.get_or_insert(violation);
    }
}

/// The [`DeliverySink`] installed into every node, funnelling observations
/// into the shared [`Metrics`].
pub struct MetricsSink<H = MetricsHandle> {
    metrics: H,
}

impl<H> MetricsSink<H> {
    /// Creates a sink backed by the shared metrics.
    pub fn new(metrics: H) -> Self {
        MetricsSink { metrics }
    }
}

impl<H: MetricsCell> DeliverySink for MetricsSink<H> {
    fn on_request_delivered(
        &mut self,
        node: NodeId,
        request: &Request,
        request_seq_nr: u64,
        now: Time,
    ) {
        let mut guard = self.metrics.open();
        let m = &mut *guard;
        if let Err(violation) = m.checker.check(node, request.id, request_seq_nr) {
            H::violated(m, violation);
        }
        if node == m.observer {
            m.timeline.record(now, 1);
            if let Some(workload) = &m.workload {
                let submitted = workload.submit_time(request.id.client, request.id.timestamp);
                m.latency.record(now.saturating_since(submitted));
            }
            if m.track_deliveries {
                m.delivered_at.entry(request.id).or_insert(now);
            }
        }
    }

    fn on_request_rejected(&mut self, node: NodeId, _request: &Request, error: &Error, _now: Time) {
        let mut m = self.metrics.open();
        *m.rejected_per_node.entry(node).or_insert(0) += 1;
        if matches!(error, Error::Replayed(_)) {
            *m.replayed_per_node.entry(node).or_insert(0) += 1;
        }
    }

    fn on_proposal_rejected(&mut self, node: NodeId, count: u64, _now: Time) {
        let mut m = self.metrics.open();
        *m.rejected_proposals_per_node.entry(node).or_insert(0) += count;
    }

    fn on_batch_committed(&mut self, node: NodeId, _seq_nr: SeqNr, batch_size: usize, _now: Time) {
        let mut m = self.metrics.open();
        if node == m.observer {
            m.batches_committed += 1;
            if batch_size == 0 {
                m.nil_committed += 1;
            }
        }
    }

    fn on_epoch_advanced(&mut self, node: NodeId, epoch: EpochNr, now: Time) {
        let mut m = self.metrics.open();
        if node == m.observer {
            m.epochs.push((epoch, now));
        }
    }

    fn on_recovery_started(&mut self, node: NodeId, now: Time) {
        let mut m = self.metrics.open();
        m.recovery_started.entry(node).or_insert(now);
    }

    fn on_recovery_completed(
        &mut self,
        node: NodeId,
        entries_replayed: u64,
        snapshot_chunks: u64,
        now: Time,
    ) {
        let mut m = self.metrics.open();
        let started_at = m.recovery_started.remove(&node).unwrap_or(now);
        m.recoveries.push(RecoveryEvent {
            node,
            started_at,
            completed_at: now,
            entries_replayed,
            snapshot_chunks,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iss_types::{ClientId, Duration};
    use iss_workload::OpenLoop;

    #[test]
    fn sink_records_observer_only_series() {
        let schedule: Arc<dyn Workload> = Arc::new(OpenLoop::new(1, 100.0, Time::ZERO));
        let handle = metrics_handle(4, NodeId(1), Some(schedule));
        let mut sink = MetricsSink::new(Rc::clone(&handle));
        let req = Request::synthetic(ClientId(0), 0, 500);
        sink.on_request_delivered(NodeId(0), &req, 0, Time::from_millis(50));
        sink.on_request_delivered(NodeId(1), &req, 0, Time::from_millis(80));
        sink.on_batch_committed(NodeId(1), 0, 1, Time::from_millis(80));
        sink.on_batch_committed(NodeId(1), 1, 0, Time::from_millis(90));
        sink.on_epoch_advanced(NodeId(1), 1, Time::from_millis(100));

        let m = handle.borrow();
        assert_eq!(m.observer_delivered(), 1);
        assert_eq!(m.checker.delivered_at(NodeId(0)), 1);
        assert_eq!(m.timeline.total(), 1);
        assert_eq!(m.batches_committed, 2);
        assert_eq!(m.nil_committed, 1);
        assert_eq!(m.epochs, vec![(1, Time::from_millis(100))]);
        assert_eq!(m.latency.count(), 1);
    }

    #[test]
    fn latency_uses_schedule_submit_time() {
        // Request #10 of a 100 req/s client is submitted at 100 ms; delivered
        // at 350 ms → latency 250 ms.
        let schedule: Arc<dyn Workload> = Arc::new(OpenLoop::new(1, 100.0, Time::ZERO));
        let handle = metrics_handle(4, NodeId(0), Some(schedule));
        let mut sink = MetricsSink::new(Rc::clone(&handle));
        let req = Request::synthetic(ClientId(0), 10, 500);
        sink.on_request_delivered(NodeId(0), &req, 0, Time::from_millis(350));
        assert_eq!(handle.borrow().latency.mean(), Duration::from_millis(250));
    }

    #[test]
    fn recovery_events_pair_start_and_completion() {
        let handle = metrics_handle(4, NodeId(0), None);
        let mut sink = MetricsSink::new(Rc::clone(&handle));
        sink.on_recovery_started(NodeId(1), Time::from_secs(6));
        // Re-entering recovery keeps the earliest start.
        sink.on_recovery_started(NodeId(1), Time::from_secs(7));
        sink.on_recovery_completed(NodeId(1), 120, 3, Time::from_millis(6_500));

        let m = handle.borrow();
        assert_eq!(m.recoveries.len(), 1);
        let r = m.recoveries[0];
        assert_eq!(r.node, NodeId(1));
        assert_eq!(r.entries_replayed, 120);
        assert_eq!(r.snapshot_chunks, 3);
        assert_eq!(r.time_to_catch_up(), Duration::from_millis(500));
        assert!(m.recovery_started.is_empty());
    }

    #[test]
    #[should_panic(expected = "agreement violation")]
    fn conflicting_delivery_at_same_position_panics() {
        let handle = metrics_handle(4, NodeId(0), None);
        let mut sink = MetricsSink::new(Rc::clone(&handle));
        sink.on_request_delivered(
            NodeId(0),
            &Request::synthetic(ClientId(0), 0, 16),
            7,
            Time::ZERO,
        );
        sink.on_request_delivered(
            NodeId(1),
            &Request::synthetic(ClientId(1), 0, 16),
            7,
            Time::ZERO,
        );
    }

    #[test]
    #[should_panic(expected = "duplicate delivery")]
    fn redelivering_a_request_on_the_same_node_panics() {
        let handle = metrics_handle(4, NodeId(0), None);
        let mut sink = MetricsSink::new(Rc::clone(&handle));
        let req = Request::synthetic(ClientId(0), 4, 16);
        sink.on_request_delivered(NodeId(0), &req, 10, Time::ZERO);
        sink.on_request_delivered(NodeId(0), &req, 11, Time::from_millis(1));
    }

    #[test]
    #[should_panic(expected = "duplicate delivery")]
    fn redelivering_a_position_after_a_restart_panics() {
        let handle = metrics_handle(4, NodeId(0), None);
        let mut sink = MetricsSink::new(Rc::clone(&handle));
        for ts in 0..3 {
            let req = Request::synthetic(ClientId(0), ts, 16);
            sink.on_request_delivered(NodeId(2), &req, ts, Time::ZERO);
        }
        // The restarted node replays position 1 to the sink again.
        let req = Request::synthetic(ClientId(0), 1, 16);
        sink.on_request_delivered(NodeId(2), &req, 1, Time::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "duplicate delivery")]
    fn one_request_at_two_positions_on_different_nodes_panics() {
        let handle = metrics_handle(4, NodeId(0), None);
        let mut sink = MetricsSink::new(Rc::clone(&handle));
        let req = Request::synthetic(ClientId(3), 9, 16);
        sink.on_request_delivered(NodeId(0), &req, 4, Time::ZERO);
        sink.on_request_delivered(NodeId(1), &req, 5, Time::ZERO);
    }

    #[test]
    fn out_of_order_positions_from_executor_stages_pass() {
        let handle = metrics_handle(4, NodeId(0), None);
        let mut sink = MetricsSink::new(Rc::clone(&handle));
        // Reports in no particular order: odd positions overtake even ones,
        // and late positions arrive before early ones.
        let order = [1u64, 3, 0, 5, 2, 4, 7, 6, 200, 130, 64, 63];
        for node in 0..2 {
            for &pos in &order {
                let req = Request::synthetic(ClientId(1), pos, 16);
                sink.on_request_delivered(NodeId(node), &req, pos, Time::ZERO);
            }
        }
        assert_eq!(handle.borrow().checker.delivered_at(NodeId(1)), 12);
    }

    #[test]
    fn skipped_positions_after_a_snapshot_install_pass() {
        let handle = metrics_handle(4, NodeId(0), None);
        let mut sink = MetricsSink::new(Rc::clone(&handle));
        let deliver = |sink: &mut MetricsSink, node: u32, pos: u64| {
            let req = Request::synthetic(ClientId(2), pos, 16);
            sink.on_request_delivered(NodeId(node), &req, pos, Time::ZERO);
        };
        for pos in 0..1000 {
            deliver(&mut sink, 0, pos);
        }
        // Node 1 delivered a prefix, installed a snapshot up to 900, and
        // continues from there.
        for pos in (0..10).chain(900..1000) {
            deliver(&mut sink, 1, pos);
        }
        for pos in 1000..1100 {
            deliver(&mut sink, 1, pos);
            deliver(&mut sink, 0, pos);
        }
        assert_eq!(handle.borrow().checker.delivered_at(NodeId(1)), 210);
    }

    #[test]
    fn rejections_are_counted_per_node_and_split_by_replay() {
        let handle = metrics_handle(4, NodeId(0), None);
        let mut sink = MetricsSink::new(Rc::clone(&handle));
        let req = Request::synthetic(ClientId(0), 0, 16);
        sink.on_request_rejected(
            NodeId(1),
            &req,
            &Error::replayed("already delivered"),
            Time::ZERO,
        );
        sink.on_request_rejected(NodeId(1), &req, &Error::invalid("bad"), Time::ZERO);
        sink.on_request_rejected(NodeId(2), &req, &Error::replayed("old"), Time::ZERO);
        let m = handle.borrow();
        assert_eq!(m.rejected_per_node.get(&NodeId(1)), Some(&2));
        assert_eq!(m.rejected_per_node.get(&NodeId(2)), Some(&1));
        assert_eq!(m.replayed_per_node.get(&NodeId(1)), Some(&1));
        assert_eq!(m.replayed_per_node.get(&NodeId(2)), Some(&1));
    }

    #[test]
    fn delivery_times_are_tracked_only_when_enabled() {
        let handle = metrics_handle(4, NodeId(0), None);
        let req = Request::synthetic(ClientId(0), 3, 16);
        {
            let mut sink = MetricsSink::new(Rc::clone(&handle));
            sink.on_request_delivered(NodeId(0), &req, 0, Time::from_millis(5));
        }
        assert!(handle.borrow().delivered_at.is_empty());
        let tracked = metrics_handle(4, NodeId(0), None);
        tracked.borrow_mut().track_deliveries = true;
        {
            let mut sink = MetricsSink::new(Rc::clone(&tracked));
            sink.on_request_delivered(NodeId(0), &req, 0, Time::from_millis(5));
        }
        assert_eq!(
            tracked.borrow().delivered_at.get(&req.id),
            Some(&Time::from_millis(5))
        );
    }

    #[test]
    fn matching_deliveries_across_nodes_pass_the_checker() {
        let handle = metrics_handle(4, NodeId(0), None);
        let mut sink = MetricsSink::new(Rc::clone(&handle));
        for node in 0..3 {
            for ts in 0..50 {
                let req = Request::synthetic(ClientId(ts as u32 % 4), ts, 16);
                sink.on_request_delivered(NodeId(node), &req, ts, Time::ZERO);
            }
        }
        let m = handle.borrow();
        assert!((0..3).all(|node| m.checker.delivered_at(NodeId(node)) == 50));
    }
}
