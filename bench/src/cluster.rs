//! The benchmark's own loopback cluster, assembled from the public parts
//! (`TcpRuntime::spawn`, `peer_table`, `IssNode::{new, with_storage}`,
//! `make_factory`, `Scenario::builder(..).iss_config()`). `iss_net::TcpCluster`
//! cannot be used: it hard-wires unsigned open-loop `ClientProcess`es that
//! record no client latency, and it never turns client signatures on.

use crate::clock::Clock;
use crate::loadgen::{ClientShared, LoadGen, LoadGenConfig, LoadMode};
use crate::trace::{NodeTrace, NodeTraceHandle, TimedNode, TimedStorage};
use iss_core::{DeliverySink, IssNode, NodeOptions};
use iss_crypto::SignatureRegistry;
use iss_messages::NetMsg;
use iss_net::runtime::NetStats;
use iss_net::{peer_table, PeerTable, TcpConfig, TcpHandle, TcpRuntime};
use iss_runtime::{Addr, Process};
use iss_sim::{make_factory, Protocol, Scenario};
use iss_storage::{FileStorage, Storage};
use iss_telemetry::TelemetryHandle;
use iss_types::{
    ClientId, Duration, EpochNr, Error, IssConfig, NodeId, Request, RequestId, SeqNr, Time,
};
use std::cell::RefCell;
use std::io;
use std::net::{Ipv4Addr, TcpListener};
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// What one replica's sink recorded, in that replica's delivery order.
#[derive(Default)]
pub struct NodeLog {
    /// `(request sequence number, request id)` per delivered request.
    pub delivered: Vec<(u64, RequestId)>,
    /// Committed log entries that carried requests, and how many in total.
    pub batches: u64,
    pub batch_requests: u64,
    /// Committed log entries without requests (⊥ or an empty batch — the
    /// sink cannot tell them apart).
    pub empty_entries: u64,
    /// `(epoch, clock µs)` per epoch advance.
    pub epochs: Vec<(EpochNr, u64)>,
    pub requests_rejected: u64,
    /// `(clock µs, WAL entries replayed, snapshot chunks)`.
    pub recovery_completed: Option<(u64, u64, u64)>,
    /// Requests delivered after the harness raised [`NodeProbe::mark`].
    pub delivered_after_mark: u64,
}

/// A replica's sink log plus the flag the crash workload raises at restart.
#[derive(Default)]
pub struct NodeProbe {
    pub log: Mutex<NodeLog>,
    pub mark: AtomicBool,
}

struct BenchSink {
    probe: Arc<NodeProbe>,
    clock: Clock,
}

impl BenchSink {
    fn log(&self) -> std::sync::MutexGuard<'_, NodeLog> {
        self.probe.log.lock().expect("node log lock poisoned")
    }
}

impl DeliverySink for BenchSink {
    fn on_request_delivered(&mut self, _: NodeId, request: &Request, seq_nr: u64, _: Time) {
        let after_mark = self.probe.mark.load(Ordering::Relaxed);
        let mut log = self.log();
        log.delivered.push((seq_nr, request.id));
        log.delivered_after_mark += u64::from(after_mark);
    }

    fn on_batch_committed(&mut self, _: NodeId, _: SeqNr, batch_size: usize, _: Time) {
        let mut log = self.log();
        if batch_size == 0 {
            log.empty_entries += 1;
        } else {
            log.batches += 1;
            log.batch_requests += batch_size as u64;
        }
    }

    fn on_epoch_advanced(&mut self, _: NodeId, epoch: EpochNr, _: Time) {
        let now = self.clock.now_us();
        self.log().epochs.push((epoch, now));
    }

    fn on_request_rejected(&mut self, _: NodeId, _: &Request, _: &Error, _: Time) {
        self.log().requests_rejected += 1;
    }

    fn on_recovery_completed(&mut self, _: NodeId, replayed: u64, chunks: u64, _: Time) {
        let now = self.clock.now_us();
        self.log().recovery_completed = Some((now, replayed, chunks));
    }
}

/// Client identities loading every cluster.
pub const NUM_CLIENTS: usize = 2;
/// Payload bytes of every request (the paper's 500 B).
const PAYLOAD_BYTES: usize = 500;

/// What to boot.
#[derive(Clone)]
pub struct ClusterSpec {
    pub num_nodes: usize,
    /// Clients sign and replicas verify (Table 1's PBFT setting).
    pub signed: bool,
    /// Replica `i` persists to `<root>/node-<i>` when set.
    pub storage_root: Option<PathBuf>,
    pub seed: u64,
    pub mode: LoadMode,
    /// Wrap replicas and storage in the timing wrappers and turn
    /// `iss-telemetry` on.
    pub traced: bool,
}

/// A running loopback cluster with its load generators.
pub struct BenchCluster {
    spec: ClusterSpec,
    iss: IssConfig,
    clock: Clock,
    peers: PeerTable,
    nodes: Vec<Option<TcpHandle>>,
    clients: Vec<TcpHandle>,
    pub probes: Vec<Arc<NodeProbe>>,
    pub client_shared: Vec<Arc<ClientShared>>,
    pub telemetry: Vec<TelemetryHandle>,
    pub traces: Vec<NodeTraceHandle>,
}

/// The replica configuration of every TCP workload: the simulator's Table 1
/// preset with the three adjustments `TcpCluster` makes for a loopback wall
/// clock, plus the signature switch it lacks.
fn iss_config(spec: &ClusterSpec) -> IssConfig {
    let mut iss = Scenario::builder(Protocol::Pbft, spec.num_nodes)
        .seed(spec.seed)
        .build()
        .iss_config();
    // Table 1's 10 s timeouts are tuned for WAN latencies; `TcpCluster`
    // uses 2 s on loopback and so does the benchmark.
    iss.view_change_timeout = Duration::from_secs(2);
    iss.epoch_change_timeout = Duration::from_secs(2);
    // Per-peer connections give no cross-peer ordering (see `TcpCluster`).
    iss.buffer_early_votes = true;
    iss.client_signatures = spec.signed;
    iss
}

impl BenchCluster {
    /// Binds every listener, then spawns replicas, then load generators.
    pub fn launch(spec: ClusterSpec, clock: Clock) -> io::Result<Self> {
        let iss = iss_config(&spec);
        let peers = peer_table();
        let mut listeners = Vec::with_capacity(spec.num_nodes);
        for n in 0..spec.num_nodes as u32 {
            let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
            peers
                .write()
                .expect("peer table lock poisoned")
                .insert(NodeId(n), listener.local_addr()?);
            listeners.push(listener);
        }
        let n = spec.num_nodes;
        let mut cluster = BenchCluster {
            iss,
            clock,
            peers,
            nodes: Vec::new(),
            clients: Vec::new(),
            probes: (0..n).map(|_| Arc::new(NodeProbe::default())).collect(),
            client_shared: (0..NUM_CLIENTS).map(|_| ClientShared::new()).collect(),
            telemetry: (0..n as u32)
                .map(|i| {
                    if spec.traced {
                        TelemetryHandle::enabled(i)
                    } else {
                        TelemetryHandle::disabled()
                    }
                })
                .collect(),
            traces: (0..n)
                .map(|_| Arc::new(Mutex::new(NodeTrace::default())))
                .collect(),
            spec,
        };
        for (i, listener) in listeners.into_iter().enumerate() {
            let handle = cluster.spawn_node(NodeId(i as u32), listener)?;
            cluster.nodes.push(Some(handle));
        }
        for c in 0..NUM_CLIENTS as u32 {
            let handle = cluster.spawn_client(ClientId(c))?;
            cluster.clients.push(handle);
        }
        Ok(cluster)
    }

    pub fn node_ids(&self) -> Vec<NodeId> {
        (0..self.spec.num_nodes as u32).map(NodeId).collect()
    }

    pub fn storage_root(&self) -> Option<PathBuf> {
        self.spec.storage_root.clone()
    }

    /// Transport statistics of every live replica and every generator.
    pub fn net_stats(&self) -> (Vec<Arc<NetStats>>, Vec<Arc<NetStats>>) {
        (
            self.nodes.iter().flatten().map(TcpHandle::stats).collect(),
            self.clients.iter().map(TcpHandle::stats).collect(),
        )
    }

    /// Stops replica `n`'s runtime: the process is dropped and its sockets
    /// close. This is a thread stop inside one OS process — the page cache
    /// survives, so what follows measures replay, not durability.
    pub fn kill_node(&mut self, n: NodeId) {
        if let Some(handle) = self.nodes[n.index()].take() {
            handle.shutdown();
        }
    }

    /// Restarts a killed replica on a fresh port from its storage directory.
    pub fn restart_node(&mut self, n: NodeId) -> io::Result<()> {
        assert!(
            self.nodes[n.index()].is_none(),
            "restart needs a prior kill"
        );
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
        self.peers
            .write()
            .expect("peer table lock poisoned")
            .insert(n, listener.local_addr()?);
        self.nodes[n.index()] = Some(self.spawn_node(n, listener)?);
        Ok(())
    }

    /// Shuts every runtime down and joins its protocol thread; generators
    /// first, so their records are handed over before replicas disappear.
    pub fn shutdown(&mut self) {
        for c in self.clients.drain(..) {
            c.shutdown();
        }
        for n in self.nodes.iter_mut() {
            if let Some(handle) = n.take() {
                handle.shutdown();
            }
        }
    }

    fn spawn_node(&self, node_id: NodeId, listener: TcpListener) -> io::Result<TcpHandle> {
        let iss = self.iss.clone();
        let num_nodes = self.spec.num_nodes;
        let traced = self.spec.traced;
        let clock = self.clock;
        let probe = Arc::clone(&self.probes[node_id.index()]);
        let telemetry = self.telemetry[node_id.index()].clone();
        let trace = Arc::clone(&self.traces[node_id.index()]);
        let dir = self
            .spec
            .storage_root
            .as_ref()
            .map(|root| root.join(format!("node-{}", node_id.0)));
        let builder = Box::new(move || {
            let registry = Arc::new(SignatureRegistry::with_processes(num_nodes, NUM_CLIENTS));
            let mut opts = NodeOptions::new(iss.clone());
            opts.respond_to_clients = true;
            opts.announce_buckets = true;
            opts.telemetry = telemetry;
            opts.clients = (0..NUM_CLIENTS as u32).map(ClientId).collect();
            let factory = make_factory(Protocol::Pbft, &iss, Arc::clone(&registry));
            let sink = Rc::new(RefCell::new(BenchSink { probe, clock }));
            let node = match dir {
                Some(dir) => {
                    let file = FileStorage::open(&dir).expect("open node storage");
                    let storage: Rc<dyn Storage> = if traced {
                        Rc::new(TimedStorage::new(
                            file,
                            node_id.0,
                            clock,
                            Arc::clone(&trace),
                        ))
                    } else {
                        Rc::new(file)
                    };
                    IssNode::with_storage(node_id, opts, factory, registry, sink, storage)
                }
                None => IssNode::new(node_id, opts, factory, registry, sink),
            };
            let node: Box<dyn Process<NetMsg>> = Box::new(node);
            if traced {
                Box::new(TimedNode::new(node, node_id.0, clock, trace))
            } else {
                node
            }
        });
        TcpRuntime::spawn(
            TcpConfig {
                addr: Addr::Node(node_id),
                dial: self
                    .node_ids()
                    .into_iter()
                    .filter(|n| *n != node_id)
                    .collect(),
                peers: Arc::clone(&self.peers),
                seed: self.spec.seed ^ u64::from(node_id.0),
            },
            Some(listener),
            builder,
        )
    }

    fn spawn_client(&self, client: ClientId) -> io::Result<TcpHandle> {
        let cfg = LoadGenConfig {
            client,
            num_clients: NUM_CLIENTS,
            nodes: self.node_ids(),
            num_buckets: self.iss.num_buckets(),
            quorum: self.iss.f() + 1,
            sign: self.spec.signed,
            payload_bytes: PAYLOAD_BYTES,
            seed: self.spec.seed,
            mode: self.spec.mode,
            clock: self.clock,
        };
        let shared = Arc::clone(&self.client_shared[client.0 as usize]);
        let builder =
            Box::new(move || Box::new(LoadGen::new(cfg, shared)) as Box<dyn Process<NetMsg>>);
        TcpRuntime::spawn(
            TcpConfig {
                addr: Addr::Client(client),
                dial: self.node_ids(),
                peers: Arc::clone(&self.peers),
                seed: self.spec.seed ^ (u64::from(client.0) << 32),
            },
            None,
            builder,
        )
    }
}

impl Drop for BenchCluster {
    fn drop(&mut self) {
        // Every exit path joins the runtimes, including an early return
        // from a failed check.
        self.shutdown();
    }
}
