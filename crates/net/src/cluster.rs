//! Localhost cluster boot: spin up an n-node ISS deployment over real
//! sockets, with per-node durable storage, plus the client fleet that loads
//! it.
//!
//! This mirrors the node recipe of the simulator's `Deployment` (same
//! [`NodeOptions`], same orderer factory, same `ClientProcess`), swapping
//! the discrete-event runtime for one [`TcpRuntime`] per process. Where the
//! simulated deployment collects metrics through per-process `Rc` sinks,
//! the TCP cluster's sinks funnel into one `Arc<Mutex<CommitLog>>` shared
//! across node threads — the log is both the test oracle (agreement across
//! nodes, recovery evidence) and the observable progress counter.

use crate::runtime::{peer_table, PeerTable, TcpConfig, TcpHandle, TcpRuntime};
use iss_core::{DeliverySink, IssNode, NodeOptions};
use iss_crypto::SignatureRegistry;
use iss_sim::client_proc::ClientProcess;
use iss_sim::{make_factory, Protocol, Scenario};
use iss_storage::{FileStorage, Storage};
use iss_telemetry::{Recorder, TelemetryHandle, TelemetrySnapshot};
use iss_types::{ClientId, Duration, EpochNr, IssConfig, NodeId, Request, RequestId, SeqNr, Time};
use iss_workload::OpenLoop;
use std::cell::RefCell;
use std::collections::HashMap;
use std::io;
use std::net::{Ipv4Addr, TcpListener};
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

/// Everything the node sinks record, shared across the cluster's threads.
#[derive(Default)]
pub struct CommitLog {
    /// `(node, request_seq_nr, request id)` per delivered request, in each
    /// node's local delivery order.
    pub delivered: Vec<(NodeId, u64, RequestId)>,
    /// Per-node count of committed log entries and the highest committed
    /// sequence number (progress/diagnostic indicator).
    pub committed: HashMap<NodeId, (u64, SeqNr)>,
    /// Per-node epoch advancement count (progress indicator).
    pub epochs: HashMap<NodeId, EpochNr>,
    /// `(node, entries_replayed, snapshot_chunks)` per completed recovery.
    pub recoveries: Vec<(NodeId, u64, u64)>,
}

impl CommitLog {
    /// Requests delivered at `node`.
    pub fn delivered_at(&self, node: NodeId) -> u64 {
        self.delivered.iter().filter(|(n, _, _)| *n == node).count() as u64
    }

    /// The `(request_seq_nr, request id)` sequence a node delivered, sorted
    /// by request sequence number.
    pub fn sequence_of(&self, node: NodeId) -> Vec<(u64, RequestId)> {
        let mut seq: Vec<(u64, RequestId)> = self
            .delivered
            .iter()
            .filter(|(n, _, _)| *n == node)
            .map(|(_, sn, id)| (*sn, *id))
            .collect();
        seq.sort_unstable_by_key(|(sn, _)| *sn);
        seq
    }

    /// Checks the agreement invariant: every pair of nodes must assign the
    /// same request to every request sequence number both delivered.
    pub fn check_agreement(&self, nodes: &[NodeId]) -> Result<(), String> {
        let sequences: Vec<(NodeId, Vec<(u64, RequestId)>)> =
            nodes.iter().map(|n| (*n, self.sequence_of(*n))).collect();
        for (i, (na, a)) in sequences.iter().enumerate() {
            for (nb, b) in &sequences[i + 1..] {
                let common = a.len().min(b.len());
                for k in 0..common {
                    if a[k] != b[k] {
                        return Err(format!(
                            "divergence at position {k}: {na} delivered {:?}, {nb} \
                             delivered {:?}",
                            a[k], b[k]
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Shared handle to the cluster's commit log.
pub type CommitLogHandle = Arc<Mutex<CommitLog>>;

/// A [`DeliverySink`] writing into the shared [`CommitLog`]. Each node
/// thread constructs its own (the `Rc<RefCell<…>>` the node wants cannot
/// cross threads); the `Arc` inside can.
struct SharedSink {
    log: CommitLogHandle,
}

impl DeliverySink for SharedSink {
    fn on_request_delivered(
        &mut self,
        node: NodeId,
        request: &Request,
        request_seq_nr: u64,
        _now: Time,
    ) {
        self.log
            .lock()
            .unwrap()
            .delivered
            .push((node, request_seq_nr, request.id));
    }

    fn on_batch_committed(&mut self, node: NodeId, seq_nr: SeqNr, _: usize, _: Time) {
        let mut log = self.log.lock().unwrap();
        let entry = log.committed.entry(node).or_insert((0, 0));
        entry.0 += 1;
        entry.1 = entry.1.max(seq_nr);
    }

    fn on_epoch_advanced(&mut self, node: NodeId, epoch: EpochNr, _now: Time) {
        self.log.lock().unwrap().epochs.insert(node, epoch);
    }

    fn on_recovery_completed(
        &mut self,
        node: NodeId,
        entries_replayed: u64,
        snapshot_chunks: u64,
        _now: Time,
    ) {
        self.log
            .lock()
            .unwrap()
            .recoveries
            .push((node, entries_replayed, snapshot_chunks));
    }
}

/// Configuration of a localhost TCP cluster. Its replicas order with PBFT,
/// the one protocol the socket wire format encodes.
pub struct TcpClusterConfig {
    /// Number of replicas.
    pub num_nodes: usize,
    /// Number of load-generating clients.
    pub num_clients: usize,
    /// Aggregate offered load, requests per second (wall clock).
    pub total_rate: f64,
    /// How long clients submit (wall clock from each client's start).
    pub run_for: Duration,
    /// RNG seed (drives the workload schedule and driver RNGs).
    pub seed: u64,
    /// When set, node `i` persists to `<root>/node-<i>` through
    /// [`FileStorage`]; a restarted node recovers from the same directory.
    pub storage_root: Option<PathBuf>,
    /// View-change and epoch-change timeout. The Table 1 presets use 10 s —
    /// tuned for WAN latencies in virtual time, where waiting is free. On a
    /// loopback wall clock that turns every leader failure into a 10-second
    /// stall, so the cluster defaults to an aggressive 2 s (commits reset
    /// the progress timer, so a loaded healthy segment never fires it).
    pub protocol_timeout: Duration,
    /// When `true`, every replica records telemetry (commit-path spans,
    /// per-phase latency histograms, transport gauges) into a per-node
    /// [`TelemetryHandle`]; [`TcpCluster::telemetry_snapshot`] merges them.
    /// Default `false`: disabled telemetry is a no-op on the hot path.
    pub telemetry: bool,
}

impl TcpClusterConfig {
    /// A small PBFT cluster with durable storage under `storage_root`.
    pub fn new(num_nodes: usize) -> Self {
        TcpClusterConfig {
            num_nodes,
            num_clients: 4,
            total_rate: 500.0,
            run_for: Duration::from_secs(3),
            seed: 42,
            storage_root: None,
            protocol_timeout: Duration::from_secs(2),
            telemetry: false,
        }
    }
}

/// A running localhost cluster.
pub struct TcpCluster {
    cfg: TcpClusterConfig,
    iss: IssConfig,
    peers: PeerTable,
    nodes: Vec<Option<TcpHandle>>,
    clients: Vec<TcpHandle>,
    commits: CommitLogHandle,
    /// One handle per replica, created at launch and reused across
    /// restarts, so a node's histograms accumulate over its incarnations.
    telemetry: Vec<TelemetryHandle>,
}

impl TcpCluster {
    /// Boots the cluster: binds every replica's listener first (so the peer
    /// table is complete before anything dials), then spawns node runtimes,
    /// then the client fleet.
    pub fn launch(cfg: TcpClusterConfig) -> io::Result<Self> {
        let scenario = Scenario::builder(Protocol::Pbft, cfg.num_nodes)
            .seed(cfg.seed)
            .build();
        let mut iss = scenario.iss_config();
        iss.view_change_timeout = cfg.protocol_timeout;
        iss.epoch_change_timeout = cfg.protocol_timeout;
        // Per-peer TCP connections give no cross-peer ordering: a backup's
        // vote can overtake the leader's pre-prepare (it cannot under the
        // simulator's metric latency matrix), and PBFT never retransmits
        // votes, so dropping them would wedge slots short of quorum forever.
        iss.buffer_early_votes = true;
        let peers = peer_table();
        let commits: CommitLogHandle = Arc::new(Mutex::new(CommitLog::default()));

        let mut listeners = Vec::with_capacity(cfg.num_nodes);
        for n in 0..cfg.num_nodes as u32 {
            let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
            peers
                .write()
                .unwrap()
                .insert(NodeId(n), listener.local_addr()?);
            listeners.push(listener);
        }

        let telemetry = (0..cfg.num_nodes as u32)
            .map(|n| {
                if cfg.telemetry {
                    TelemetryHandle::enabled(n)
                } else {
                    TelemetryHandle::disabled()
                }
            })
            .collect();
        let mut cluster = TcpCluster {
            cfg,
            iss,
            peers,
            nodes: Vec::new(),
            clients: Vec::new(),
            commits,
            telemetry,
        };
        for (n, listener) in listeners.into_iter().enumerate() {
            let handle = cluster.spawn_node(NodeId(n as u32), listener)?;
            cluster.nodes.push(Some(handle));
        }
        for c in 0..cluster.cfg.num_clients as u32 {
            let handle = cluster.spawn_client(ClientId(c))?;
            cluster.clients.push(handle);
        }
        Ok(cluster)
    }

    /// The shared commit log (test oracle and progress counter).
    pub fn commits(&self) -> CommitLogHandle {
        Arc::clone(&self.commits)
    }

    /// All replica ids.
    pub fn node_ids(&self) -> Vec<NodeId> {
        (0..self.cfg.num_nodes as u32).map(NodeId).collect()
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
    /// TIME_WAIT hold on the dead connections). With a `storage_root`, the
    /// rebooted node recovers from the WAL and snapshots its previous
    /// incarnation persisted — the same replay path the simulator's
    /// crash-restart fault exercises.
    pub fn restart_node(&mut self, n: NodeId) -> io::Result<()> {
        assert!(
            self.nodes[n.index()].is_none(),
            "restart_node requires a prior kill_node"
        );
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
        self.peers
            .write()
            .unwrap()
            .insert(n, listener.local_addr()?);
        let handle = self.spawn_node(n, listener)?;
        self.nodes[n.index()] = Some(handle);
        Ok(())
    }

    /// Merged telemetry across all replicas, or `None` when the cluster was
    /// launched with `telemetry: false`.
    ///
    /// Before merging, each live node's transport statistics are stamped
    /// into its telemetry as gauges (`net.mailbox_depth`,
    /// `net.writer_depth[peer]`, `net.writer_drops[peer]`,
    /// `net.reconnects[peer]`, `net.frames_sent[peer]`,
    /// `net.bytes_sent[peer]`), so the snapshot carries the satellite view
    /// of the wire next to the protocol's latency histograms. Killed nodes
    /// keep their protocol telemetry (the handle outlives the runtime) but
    /// their final transport numbers are lost with the sockets.
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        if !self.cfg.telemetry {
            return None;
        }
        for (i, handle) in self.nodes.iter().enumerate() {
            let Some(handle) = handle else { continue };
            let stats = handle.stats();
            let tel = &self.telemetry[i];
            // Stamp the observed maximum first, then the current value:
            // `GaugeStat` keeps `last` = latest set and `max` = largest set,
            // so this order leaves (last = current, max = peak).
            tel.gauge_set(
                "net.mailbox_depth",
                stats
                    .max_mailbox_depth
                    .load(std::sync::atomic::Ordering::Relaxed),
            );
            tel.gauge_set(
                "net.mailbox_depth",
                stats
                    .mailbox_depth
                    .load(std::sync::atomic::Ordering::Relaxed),
            );
            let mut peers: Vec<_> = stats.peers.iter().collect();
            peers.sort_by_key(|(peer, _)| **peer);
            for (peer, p) in peers {
                use std::sync::atomic::Ordering::Relaxed;
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
        for tel in &self.telemetry {
            if let Some(snap) = tel.snapshot() {
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
    /// protocol thread and assembles the exact node recipe the simulated
    /// deployment uses; only `Send` data crosses into it.
    fn spawn_node(&self, node_id: NodeId, listener: TcpListener) -> io::Result<TcpHandle> {
        let iss = self.iss.clone();
        let num_nodes = self.cfg.num_nodes;
        let num_clients = self.cfg.num_clients;
        let log = Arc::clone(&self.commits);
        let dir = self
            .cfg
            .storage_root
            .as_ref()
            .map(|root| root.join(format!("node-{}", node_id.0)));
        let telemetry = self.telemetry[node_id.index()].clone();
        let builder = Box::new(move || {
            let registry = Arc::new(SignatureRegistry::with_processes(num_nodes, num_clients));
            let mut opts = NodeOptions::new(iss.clone());
            opts.respond_to_clients = true;
            opts.announce_buckets = true;
            opts.telemetry = telemetry;
            opts.clients = (0..num_clients as u32).map(ClientId).collect();
            let factory = make_factory(Protocol::Pbft, &iss, Arc::clone(&registry));
            let sink = Rc::new(RefCell::new(SharedSink { log }));
            let node = match dir {
                Some(dir) => {
                    std::fs::create_dir_all(&dir).expect("create storage dir");
                    let storage = Rc::new(FileStorage::open(&dir).expect("open node storage"));
                    IssNode::with_storage(
                        node_id,
                        opts,
                        factory,
                        registry,
                        sink,
                        storage as Rc<dyn Storage>,
                    )
                }
                None => IssNode::new(node_id, opts, factory, registry, sink),
            };
            Box::new(node) as Box<dyn iss_runtime::Process<iss_messages::NetMsg>>
        });
        let dial = (0..num_nodes as u32)
            .map(NodeId)
            .filter(|n| *n != node_id)
            .collect();
        TcpRuntime::spawn(
            TcpConfig {
                addr: iss_runtime::Addr::Node(node_id),
                dial,
                peers: Arc::clone(&self.peers),
                seed: self.cfg.seed ^ u64::from(node_id.0),
            },
            Some(listener),
            builder,
        )
    }

    /// Spawns one client runtime: no listener (responses arrive over the
    /// client's own dialed connections), dialing every replica.
    fn spawn_client(&self, client_id: ClientId) -> io::Result<TcpHandle> {
        let iss = self.iss.clone();
        let num_clients = self.cfg.num_clients;
        let total_rate = self.cfg.total_rate;
        let run_for = self.cfg.run_for;
        let seed = self.cfg.seed;
        let builder = Box::new(move || {
            let workload: Rc<dyn iss_workload::Workload> =
                Rc::new(OpenLoop::new(num_clients, total_rate, Time::ZERO).with_seed(seed));
            let client = ClientProcess::new(
                client_id,
                workload,
                iss.all_nodes(),
                iss.num_buckets(),
                iss.f() + 1,
                false,
                Time::ZERO + run_for,
            );
            Box::new(client) as Box<dyn iss_runtime::Process<iss_messages::NetMsg>>
        });
        TcpRuntime::spawn(
            TcpConfig {
                addr: iss_runtime::Addr::Client(client_id),
                dial: self.node_ids(),
                peers: Arc::clone(&self.peers),
                seed: self.cfg.seed ^ (u64::from(client_id.0) << 32),
            },
            None,
            builder,
        )
    }
}
