//! Localhost cluster boot: lowers a simulator [`Scenario`] onto one
//! [`TcpRuntime`] per replica and client over loopback sockets, with
//! optional per-node durable storage.
//!
//! The replicas, the clients and the metrics are the simulator's own: the
//! same [`Scenario::node_options`], [`replica`] and
//! [`Scenario::client_process`] recipes, and the same [`iss_sim::Metrics`]
//! behind a [`SharedMetrics`] the node threads share. Under its lock every
//! delivery goes through the [`iss_core::DeliveryChecker`] the simulator
//! uses, and the first [`iss_core::Violation`] is kept (a protocol thread
//! must not panic). What stays engine-specific is the runtime, the storage
//! (a [`FileStorage`] per node under a caller-given root) and the two
//! protocol settings a loopback wall clock needs (see
//! [`TcpCluster::launch`]).

use crate::runtime::{peer_table, PeerTable, TcpConfig, TcpHandle, TcpRuntime};
use iss_core::{DeliveryChecker, NodeOptions};
use iss_crypto::SignatureRegistry;
use iss_messages::NetMsg;
use iss_runtime::{Addr, Process};
use iss_sim::{replica, MetricsSink, Protocol, Report, Scenario, SharedMetrics};
use iss_storage::{FileStorage, Storage};
use iss_telemetry::TelemetrySnapshot;
use iss_types::{ClientId, Duration, NodeId, RequestId, Time};
use std::cell::RefCell;
use std::io;
use std::net::{Ipv4Addr, TcpListener};
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The delivery check after the run, for a harness that collects its
/// deliveries itself: [`CommitLog::check_agreement`] replays them through a
/// [`DeliveryChecker`].
#[doc(hidden)]
#[derive(Default)]
pub struct CommitLog {
    /// `(node, request_seq_nr, request id)` per delivered request.
    pub delivered: Vec<(NodeId, u64, RequestId)>,
}

impl CommitLog {
    /// Replays the deliveries of `nodes` through one [`DeliveryChecker`]
    /// and returns its first violation.
    pub fn check_agreement(&self, nodes: &[NodeId]) -> Result<(), String> {
        let num_nodes = nodes.iter().map(|n| n.index() + 1).max().unwrap_or(0);
        let mut checker = DeliveryChecker::new(num_nodes);
        self.delivered
            .iter()
            .filter(|(node, _, _)| nodes.contains(node))
            .try_for_each(|&(node, position, id)| checker.check(node, id, position))
            .map_err(|violation| violation.to_string())
    }
}

/// View-change and epoch-change timeout of a [`TcpCluster`]. The Table 1
/// presets use 10 s — tuned for WAN latencies in virtual time, where waiting
/// is free. On a loopback wall clock that turns every leader failure into a
/// 10-second stall, so the cluster uses an aggressive 2 s (commits reset the
/// progress timer, so a loaded healthy segment never fires it).
pub const PROTOCOL_TIMEOUT: Duration = Duration::from_secs(2);

/// A running localhost cluster.
pub struct TcpCluster {
    protocol: Protocol,
    seed: u64,
    registry: Arc<SignatureRegistry>,
    storage_root: Option<PathBuf>,
    peers: PeerTable,
    /// Per replica, built at launch and reused across restarts, so a node's
    /// telemetry accumulates over its incarnations.
    options: Vec<NodeOptions>,
    nodes: Vec<Option<TcpHandle>>,
    clients: Vec<TcpHandle>,
    metrics: SharedMetrics,
}

impl TcpCluster {
    /// Boots `scenario` on loopback: binds every replica's listener first
    /// (so the peer table is complete before anything dials), then spawns
    /// node runtimes, then the clients. With a `storage_root`, node `i`
    /// persists to `<root>/node-<i>` through [`FileStorage`]. A
    /// [`Scenario::simulator_only`] dimension, or a crash-restart without a
    /// storage root, fails with [`io::ErrorKind::Unsupported`] naming it,
    /// before any socket or thread exists.
    pub fn launch(scenario: &Scenario, storage_root: Option<PathBuf>) -> io::Result<Self> {
        let restarts = scenario.crashes().any(|(_, _, up)| up.is_some());
        let rootless = restarts && storage_root.is_none();
        let rootless = rootless.then(|| "a crash_restart without a storage root".into());
        if let Some(feature) = scenario.simulator_only().or(rootless) {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!("loopback TCP cannot run {feature}: simulator only"),
            ));
        }
        let mut iss = scenario.iss_config();
        iss.view_change_timeout = PROTOCOL_TIMEOUT;
        iss.epoch_change_timeout = PROTOCOL_TIMEOUT;
        let peers = peer_table();
        let node_ids: Vec<NodeId> = (0..scenario.num_nodes as u32).map(NodeId).collect();
        let mut listeners = Vec::with_capacity(node_ids.len());
        for &n in &node_ids {
            let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
            let addr = listener.local_addr()?;
            peers.write().expect("peer table poisoned").insert(n, addr);
            listeners.push(listener);
        }

        let mut cluster = TcpCluster {
            protocol: scenario.stack.protocol,
            seed: scenario.seed,
            registry: scenario.registry(),
            storage_root,
            peers,
            options: node_ids
                .iter()
                .map(|&n| scenario.node_options(n, &iss))
                .collect(),
            nodes: Vec::new(),
            clients: Vec::new(),
            metrics: Arc::new(Mutex::new(scenario.metrics())),
        };
        for (&n, listener) in node_ids.iter().zip(listeners) {
            let handle = cluster.spawn_node(n, listener)?;
            cluster.nodes.push(Some(handle));
        }
        for c in 0..scenario.num_clients() as u32 {
            let client = scenario.client_process(ClientId(c), &iss);
            let handle = TcpRuntime::spawn(
                TcpConfig {
                    addr: Addr::Client(ClientId(c)),
                    dial: node_ids.clone(),
                    peers: Arc::clone(&cluster.peers),
                    seed: scenario.seed ^ (u64::from(c) << 32),
                },
                None,
                Box::new(move || Box::new(client)),
            )?;
            cluster.clients.push(handle);
        }
        Ok(cluster)
    }

    /// Runs `scenario` on loopback for its whole window on the wall clock:
    /// launches it, kills and restarts nodes at the scenario's crash times,
    /// lets the drain pass and shuts down, returning the same [`Report`]
    /// the simulator returns (see its fields for what loopback fills).
    pub fn run(scenario: Scenario, storage_root: Option<PathBuf>) -> io::Result<Report> {
        let start = Instant::now();
        let mut cluster = TcpCluster::launch(&scenario, storage_root)?;
        let window = scenario.window;
        let end = Time::ZERO + window.duration + window.drain;
        let sleep_until = |at: Time| {
            let at = start + std::time::Duration::from_micros(at.as_micros());
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
        };
        // `(when, node, whether it comes back up)`, in time order.
        let mut steps = Vec::new();
        for (node, down, up) in scenario.crashes() {
            steps.push((down, node, false));
            steps.extend(up.map(|up| (up, node, true)));
        }
        steps.retain(|&(at, _, _)| at < end);
        steps.sort();
        let lowered = steps.into_iter().try_for_each(|(at, node, restart)| {
            sleep_until(at);
            if restart {
                cluster.restart_node(node)
            } else {
                cluster.kill_node(node);
                Ok(())
            }
        });
        if lowered.is_ok() {
            sleep_until(end);
        }
        let (telemetry, metrics) = (cluster.telemetry_snapshot(), cluster.metrics());
        cluster.shutdown();
        let report = metrics.lock().expect("metrics poisoned").report(window);
        lowered.map(|()| Report {
            telemetry,
            ..report
        })
    }

    /// The metrics the node sinks record into.
    pub fn metrics(&self) -> SharedMetrics {
        Arc::clone(&self.metrics)
    }

    /// All replica ids.
    pub fn node_ids(&self) -> Vec<NodeId> {
        (0..self.options.len() as u32).map(NodeId).collect()
    }

    /// Kills node `n`: its runtime shuts down (process dropped, storage
    /// flushed, sockets closed) and stays down until
    /// [`TcpCluster::restart_node`].
    pub fn kill_node(&mut self, n: NodeId) {
        if let Some(handle) = self.nodes[n.index()].take() {
            handle.shutdown();
        }
    }

    /// Restarts a killed node on a **fresh** port: the new listener address
    /// replaces the old one in the peer table and every peer's reconnect
    /// loop finds it there (re-binding the old port would race the kernel's
    /// TIME_WAIT hold on the dead connections). With a storage root, the
    /// rebooted node recovers from the WAL and snapshots its previous
    /// incarnation persisted — the same replay path the simulator's
    /// crash-restart fault exercises.
    pub fn restart_node(&mut self, n: NodeId) -> io::Result<()> {
        assert!(
            self.nodes[n.index()].is_none(),
            "restart_node requires a prior kill_node"
        );
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
        let addr = listener.local_addr()?;
        self.peers
            .write()
            .expect("peer table poisoned")
            .insert(n, addr);
        let handle = self.spawn_node(n, listener)?;
        self.nodes[n.index()] = Some(handle);
        Ok(())
    }

    /// Merged telemetry across all replicas, or `None` unless the scenario
    /// records telemetry.
    ///
    /// Before merging, each live node's transport statistics are stamped
    /// into its telemetry as gauges (`net.mailbox_depth`,
    /// `net.wakeups[node]`, `net.writer_depth[peer]`, `net.writer_drops[peer]`,
    /// `net.reconnects[peer]`, `net.frames_sent[peer]`,
    /// `net.bytes_sent[peer]`), so the snapshot carries the satellite view
    /// of the wire next to the protocol's latency histograms. Killed nodes
    /// keep their protocol telemetry (the handle outlives the runtime) but
    /// their final transport numbers are lost with the sockets.
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        if !self.options.iter().any(|o| o.telemetry.is_enabled()) {
            return None;
        }
        for (i, handle) in self.nodes.iter().enumerate() {
            let Some(handle) = handle else { continue };
            let stats = handle.stats();
            let tel = &self.options[i].telemetry;
            // Stamp the observed maximum first, then the current value:
            // `GaugeStat` keeps `last` = latest set and `max` = largest set,
            // so this order leaves (last = current, max = peak).
            tel.gauge_set("net.mailbox_depth", stats.max_mailbox_depth.load(Relaxed));
            tel.gauge_set("net.mailbox_depth", stats.mailbox_depth.load(Relaxed));
            tel.gauge_set_for("net.wakeups", i as u32, stats.wakeups.load(Relaxed));
            let mut peers: Vec<_> = stats.peers.iter().collect();
            peers.sort_by_key(|(peer, _)| **peer);
            for (peer, p) in peers {
                let idx = peer.0;
                tel.gauge_set_for("net.writer_depth", idx, p.max_queue_depth.load(Relaxed));
                tel.gauge_set_for("net.writer_depth", idx, p.queue_depth.load(Relaxed));
                tel.gauge_set_for("net.writer_drops", idx, p.dropped.load(Relaxed));
                tel.gauge_set_for("net.reconnects", idx, p.connects.load(Relaxed));
                tel.gauge_set_for("net.frames_sent", idx, p.frames_sent.load(Relaxed));
                tel.gauge_set_for("net.bytes_sent", idx, p.bytes_sent.load(Relaxed));
            }
        }
        let mut merged = TelemetrySnapshot::empty();
        for opts in &self.options {
            if let Some(snap) = opts.telemetry.snapshot() {
                merged.merge(&snap);
            }
        }
        Some(merged)
    }

    /// Shuts the whole cluster down (clients first, then replicas).
    pub fn shutdown(mut self) {
        for c in self.clients.drain(..) {
            c.shutdown();
        }
        for n in self.nodes.drain(..).flatten() {
            n.shutdown();
        }
    }

    /// Spawns one replica runtime. The process builder runs on the new
    /// protocol thread and builds the replica there from `Send` parts;
    /// only the storage and the sink handle are the loopback engine's own.
    fn spawn_node(&self, node_id: NodeId, listener: TcpListener) -> io::Result<TcpHandle> {
        let opts = self.options[node_id.index()].clone();
        let protocol = self.protocol;
        let registry = Arc::clone(&self.registry);
        let metrics = Arc::clone(&self.metrics);
        let dir = self
            .storage_root
            .as_ref()
            .map(|root| root.join(format!("node-{}", node_id.0)));
        let builder = Box::new(move || {
            let storage = dir.map(|dir| {
                std::fs::create_dir_all(&dir).expect("create storage dir");
                Rc::new(FileStorage::open(&dir).expect("open node storage")) as Rc<dyn Storage>
            });
            let sink = Rc::new(RefCell::new(MetricsSink::new(metrics)));
            let node = replica(node_id, opts, protocol, registry, sink, storage);
            Box::new(node) as Box<dyn Process<NetMsg>>
        });
        let dial = self
            .node_ids()
            .into_iter()
            .filter(|n| *n != node_id)
            .collect();
        TcpRuntime::spawn(
            TcpConfig {
                addr: Addr::Node(node_id),
                dial,
                peers: Arc::clone(&self.peers),
                seed: self.seed ^ u64::from(node_id.0),
            },
            Some(listener),
            builder,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iss_core::{DeliverySink, Violation};
    use iss_sim::Metrics;
    use iss_types::Request;

    /// Feeds `(node, client, timestamp, position)` deliveries through one
    /// loopback metrics sink, in order, and returns the recorded verdict.
    fn verdict(deliveries: &[(u32, u32, u64, u64)]) -> Result<(), Violation> {
        let metrics: SharedMetrics = Arc::new(Mutex::new(Metrics::new(4, NodeId(0), None)));
        let mut sink = MetricsSink::new(Arc::clone(&metrics));
        for &(node, client, timestamp, position) in deliveries {
            let request = Request::synthetic(ClientId(client), timestamp, 16);
            sink.on_request_delivered(NodeId(node), &request, position, Time::ZERO);
        }
        let violation = metrics.lock().unwrap().violation.clone();
        violation.map_or(Ok(()), Err)
    }

    #[test]
    fn the_first_violation_is_reported_and_not_overwritten() {
        let c = |client, timestamp| RequestId::new(ClientId(client), timestamp);
        // Node 1 diverges at 7; node 2 then delivers c0#8 twice.
        let divergent = verdict(&[(0, 0, 7, 7), (1, 1, 7, 7), (2, 0, 8, 8), (2, 0, 8, 9)]);
        let (node, position, first, delivered) = (NodeId(1), 7, c(0, 7), c(1, 7));
        let agreement = Violation::Agreement {
            node,
            position,
            first,
            delivered,
        };
        assert_eq!(divergent, Err(agreement.clone()));
        // Node 0 delivers c0#3 at 3 and again at 4; node 1 then diverges at 3.
        let duplicate = verdict(&[(0, 0, 3, 3), (0, 0, 3, 4), (1, 1, 0, 3)]);
        let (node, position, id) = (NodeId(0), 4, c(0, 3));
        let duplicated = Violation::Duplicated { node, position, id };
        assert_eq!(duplicate, Err(duplicated.clone()));
        for (violation, prefix, names) in [
            (
                agreement,
                "agreement violation",
                ["number 7", "c0#7", "c1#7"],
            ),
            (duplicated, "duplicate delivery", ["number 4", "c0#3", "n0"]),
        ] {
            let text = violation.to_string();
            assert!(text.starts_with(prefix), "{text}");
            assert!(names.iter().all(|name| text.contains(name)), "{text}");
        }
    }
}
