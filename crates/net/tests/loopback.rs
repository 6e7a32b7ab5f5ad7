//! End-to-end tests over real loopback sockets.
//!
//! These are wall-clock tests: real protocol threads, real listeners and
//! real connections on 127.0.0.1. The cluster tests boot a [`TcpCluster`]
//! and poll the shared commit log until it has made enough progress; the
//! transport tests host small scripted processes directly on
//! [`TcpRuntime`]. Every wait is bounded by a generous deadline, so a hung
//! runtime fails loudly instead of hanging the suite.
//!
//! The tests of this file take turns ([`serial`]): one asserts a round-trip
//! time and one counts the process's threads, and neither can share the
//! machine or the process with a four-replica cluster under load.

use iss_messages::{ClientMsg, NetMsg};
use iss_net::frame;
use iss_net::runtime::FLUSH_BYTES;
use iss_net::{
    peer_table, CommitLog, PeerTable, TcpCluster, TcpClusterConfig, TcpConfig, TcpHandle,
    TcpRuntime,
};
use iss_runtime::{Addr, Context, Process};
use iss_types::{ClientId, Duration, NodeId, Request, RequestId, TimerId};
use std::collections::HashSet;
use std::io::{ErrorKind, Read};
use std::net::{Ipv4Addr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration as StdDuration, Instant};

/// Held by every test of this file for its whole run.
fn serial() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    // A test that failed while holding the turn has not broken anything the
    // next one relies on.
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Polls `done` until it returns true or `deadline` elapses.
fn wait_until(deadline: StdDuration, mut done: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if done() {
            return true;
        }
        std::thread::sleep(StdDuration::from_millis(50));
    }
    done()
}

/// No request and no request sequence number may be delivered twice at any
/// node: a chunk re-sent whole after a failed write puts duplicate frames on
/// the wire, and they must die in the protocol, not in the log.
fn assert_no_duplicate_delivery(log: &CommitLog, nodes: &[NodeId]) {
    for node in nodes {
        let seq = log.sequence_of(*node);
        let seq_nrs: HashSet<u64> = seq.iter().map(|(sn, _)| *sn).collect();
        let requests: HashSet<RequestId> = seq.iter().map(|(_, id)| *id).collect();
        assert_eq!(
            seq_nrs.len(),
            seq.len(),
            "{node} delivered a sequence number twice"
        );
        assert_eq!(
            requests.len(),
            seq.len(),
            "{node} delivered a request twice"
        );
    }
}

/// The numbered message the transport tests exchange.
fn numbered(k: u64) -> NetMsg {
    NetMsg::Client(ClientMsg::Response {
        request: RequestId::new(ClientId(0), k),
        seq_nr: k,
    })
}

/// The number a transport-test message carries, whichever kind it is.
fn number_of(msg: &NetMsg) -> u64 {
    match msg {
        NetMsg::Client(ClientMsg::Response { seq_nr, .. }) => *seq_nr,
        NetMsg::Client(ClientMsg::Request(r)) => r.id.timestamp,
        other => panic!("unexpected message {other:?}"),
    }
}

/// Binds a listener for replica `n`, publishes it and hosts `process` there.
fn host_node(
    n: u32,
    dial: &[u32],
    peers: &PeerTable,
    process: impl Process<NetMsg> + Send + 'static,
) -> TcpHandle {
    let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind");
    let addr = listener.local_addr().expect("local addr");
    peers.write().unwrap().insert(NodeId(n), addr);
    let cfg = TcpConfig {
        addr: Addr::Node(NodeId(n)),
        dial: dial.iter().copied().map(NodeId).collect(),
        peers: Arc::clone(peers),
        seed: u64::from(n),
    };
    TcpRuntime::spawn(cfg, Some(listener), Box::new(move || Box::new(process))).expect("spawn")
}

/// The numbers of the messages a test process received, in arrival order.
type Seen = Arc<Mutex<Vec<u64>>>;

/// A client that knocks at a node — which gives the node the inbound
/// connection it answers over — and records what comes back.
struct Knocker {
    at: Addr,
    seen: Seen,
}

impl Process<NetMsg> for Knocker {
    fn on_start(&mut self, ctx: &mut Context<'_, NetMsg>) {
        ctx.send(self.at, numbered(0));
    }

    fn on_message(&mut self, _from: Addr, msg: NetMsg, _ctx: &mut Context<'_, NetMsg>) {
        self.seen.lock().unwrap().push(number_of(&msg));
    }

    fn on_timer(&mut self, _: TimerId, _: u64, _: &mut Context<'_, NetMsg>) {}
}

/// Once a client knocks, sends the numbers `0..total` both to it and to an
/// echoing peer node, and records the echoes. The opening callback alone
/// overruns [`FLUSH_BYTES`] a dozen times; timer ticks of a few frames each
/// follow; every 97th frame is larger than [`FLUSH_BYTES`] by itself.
struct Burster {
    peer: Addr,
    next: u64,
    total: u64,
    echoed: Seen,
}

impl Burster {
    const OPENING: u64 = 300;
    const PER_TICK: u64 = 40;
    const PAYLOADS: [usize; 5] = [0, 40, 700, 3000, 12000];

    fn send(&mut self, count: u64, ctx: &mut Context<'_, NetMsg>) {
        for _ in 0..count.min(self.total - self.next) {
            let k = self.next;
            self.next += 1;
            let len = if k % 97 == 96 {
                FLUSH_BYTES + 1000
            } else {
                Self::PAYLOADS[k as usize % Self::PAYLOADS.len()]
            };
            let msg = NetMsg::Client(ClientMsg::Request(Request::new(
                ClientId(0),
                k,
                vec![k as u8; len],
            )));
            ctx.send(self.peer, msg.clone());
            ctx.send(Addr::Client(ClientId(0)), msg);
        }
        if self.next < self.total {
            ctx.set_timer(Duration::from_millis(1), 0);
        }
    }
}

impl Process<NetMsg> for Burster {
    fn on_start(&mut self, _ctx: &mut Context<'_, NetMsg>) {}

    fn on_message(&mut self, from: Addr, msg: NetMsg, ctx: &mut Context<'_, NetMsg>) {
        if from == self.peer {
            self.echoed.lock().unwrap().push(number_of(&msg));
        } else {
            self.send(Self::OPENING, ctx);
        }
    }

    fn on_timer(&mut self, _: TimerId, _: u64, ctx: &mut Context<'_, NetMsg>) {
        self.send(Self::PER_TICK, ctx);
    }
}

#[test]
fn every_destination_sees_fifo_order_across_bursts_and_threshold_flushes() {
    let _turn = serial();
    let peers = peer_table();
    let total = Burster::OPENING + 50 * Burster::PER_TICK;
    let echoed = Seen::default();
    let at_client = Seen::default();

    let echo = host_node(0, &[1], &peers, Echo);
    let burster = host_node(
        1,
        &[0],
        &peers,
        Burster {
            peer: Addr::Node(NodeId(0)),
            next: 0,
            total,
            echoed: Arc::clone(&echoed),
        },
    );
    let seen = Arc::clone(&at_client);
    let client = TcpRuntime::spawn(
        TcpConfig {
            addr: Addr::Client(ClientId(0)),
            dial: vec![NodeId(1)],
            peers: Arc::clone(&peers),
            seed: 7,
        },
        None,
        Box::new(move || {
            let at = Addr::Node(NodeId(1));
            Box::new(Knocker { at, seen })
        }),
    )
    .expect("spawn client");

    // The client's copy crossed one inbound connection, the echo two writer
    // threads and the echoing node's bursts in between.
    let expected: Vec<u64> = (0..total).collect();
    for (who, seen) in [("the client", &at_client), ("the echoing peer", &echoed)] {
        let complete = wait_until(StdDuration::from_secs(30), || {
            seen.lock().unwrap().len() >= expected.len()
        });
        let seen = seen.lock().unwrap();
        assert!(
            complete,
            "{} of {total} frames came back from {who}",
            seen.len()
        );
        assert!(*seen == expected, "frames from {who} out of order");
    }
    // The writer's counters count frames, whatever the chunking.
    let stats = burster.stats();
    let to_peer = &stats.peers[&NodeId(0)];
    let relaxed = std::sync::atomic::Ordering::Relaxed;
    assert_eq!(to_peer.frames_sent.load(relaxed), total);
    assert_eq!(to_peer.dropped.load(relaxed), 0);
    assert_eq!(to_peer.queue_depth.load(relaxed), 0);
    let max_depth = to_peer.max_queue_depth.load(relaxed);
    assert!((1..=4096).contains(&max_depth), "max depth {max_depth}");

    client.shutdown();
    burster.shutdown();
    echo.shutdown();
}

/// Sends back whatever it receives.
struct Echo;

impl Process<NetMsg> for Echo {
    fn on_start(&mut self, _ctx: &mut Context<'_, NetMsg>) {}

    fn on_message(&mut self, from: Addr, msg: NetMsg, ctx: &mut Context<'_, NetMsg>) {
        ctx.send(from, msg);
    }

    fn on_timer(&mut self, _: TimerId, _: u64, _: &mut Context<'_, NetMsg>) {}
}

/// Stage addresses are simulator-only, so a peer whose hello claims one has
/// no place on a socket: the acceptor must hang up instead of registering
/// it under an address no reply can be routed to.
#[test]
fn a_stage_hello_gets_its_connection_closed() {
    let _turn = serial();
    let peers = peer_table();
    let node = host_node(0, &[], &peers, Echo);
    let target = peers.read().unwrap()[&NodeId(0)];
    let mut raw = TcpStream::connect(target).expect("connect");
    // A hello claiming a stage address: tag 2, node 0, role 0 (batcher),
    // index 0.
    frame::write_frame(&mut raw, &[2, 0, 0, 0, 0, 0, 0, 0, 0, 0]).expect("send hello");
    raw.set_read_timeout(Some(StdDuration::from_secs(2)))
        .expect("read timeout");
    let mut byte = [0u8; 1];
    let closed = match raw.read(&mut byte) {
        Ok(n) => n == 0,
        Err(e) => !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
    };
    assert!(
        closed,
        "the connection that claimed a stage address was still open after 2 s"
    );
    node.shutdown();
}

/// Sends one message, waits for its echo, sends the next; arms no timer.
struct Pinger {
    to: Addr,
    rounds: u64,
    sent_at: Instant,
    round_trips: Arc<Mutex<Vec<StdDuration>>>,
}

impl Process<NetMsg> for Pinger {
    fn on_start(&mut self, ctx: &mut Context<'_, NetMsg>) {
        self.sent_at = Instant::now();
        ctx.send(self.to, numbered(0));
    }

    fn on_message(&mut self, _from: Addr, msg: NetMsg, ctx: &mut Context<'_, NetMsg>) {
        self.round_trips
            .lock()
            .unwrap()
            .push(self.sent_at.elapsed());
        let k = number_of(&msg) + 1;
        if k < self.rounds {
            self.sent_at = Instant::now();
            ctx.send(self.to, numbered(k));
        }
    }

    fn on_timer(&mut self, _: TimerId, _: u64, _: &mut Context<'_, NetMsg>) {}
}

#[test]
fn a_lone_message_on_an_idle_runtime_waits_for_no_timer() {
    let _turn = serial();
    let peers = peer_table();
    let rounds = 21;
    let round_trips = Arc::new(Mutex::new(Vec::new()));
    let echo = host_node(0, &[1], &peers, Echo);
    let pinger = host_node(
        1,
        &[0],
        &peers,
        Pinger {
            to: Addr::Node(NodeId(0)),
            rounds,
            sent_at: Instant::now(),
            round_trips: Arc::clone(&round_trips),
        },
    );
    let done = wait_until(StdDuration::from_secs(20), || {
        round_trips.lock().unwrap().len() as u64 >= rounds
    });
    let mut round_trips = round_trips.lock().unwrap().clone();
    assert!(
        done,
        "only {} of {rounds} echoes came back",
        round_trips.len()
    );
    // Neither runtime has a timer armed, so a protocol thread with nothing
    // to do sleeps 100 ms at a time: bytes held across that sleep would make
    // every hop take that long. The median shrugs off a scheduling hiccup.
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < StdDuration::from_millis(20),
        "median round trip {median:?}, all: {round_trips:?}"
    );
    pinger.shutdown();
    echo.shutdown();
}

/// Live threads of this process, the process-wide signature-verification
/// pool aside (it is spawned once, on first use, and never torn down).
#[cfg(target_os = "linux")]
fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(Result::ok)
        .filter(|task| {
            std::fs::read_to_string(task.path().join("comm"))
                .map(|name| !name.starts_with("iss-verify"))
                .unwrap_or(false)
        })
        .count()
}

#[cfg(target_os = "linux")]
#[test]
fn shut_down_clusters_leave_no_threads_behind() {
    let _turn = serial();
    let cycle = || {
        let mut cfg = TcpClusterConfig::new(3);
        cfg.num_clients = 2;
        cfg.total_rate = 400.0;
        cfg.run_for = Duration::from_secs(30);
        let cluster = TcpCluster::launch(cfg).expect("cluster boots");
        let commits = cluster.commits();
        let nodes = cluster.node_ids();
        assert!(
            wait_until(StdDuration::from_secs(30), || {
                let log = commits.lock().unwrap();
                nodes.iter().all(|n| log.delivered_at(*n) >= 100)
            }),
            "cluster must come up and deliver"
        );
        cluster.shutdown();
    };
    let before = live_threads();
    for _ in 0..3 {
        cycle();
    }
    // Readers end on the shutdown of their sockets and writers on the close
    // of their channels, a moment after `shutdown` returns. One running
    // cluster is about 50 threads; a few of slack covers the test harness.
    let mut after = 0;
    let settled = wait_until(StdDuration::from_secs(10), || {
        after = live_threads();
        after <= before + 5
    });
    assert!(
        settled,
        "{before} threads before three clusters, {after} after"
    );
}

#[test]
fn three_node_loopback_cluster_delivers_and_agrees() {
    let _turn = serial();
    let mut cfg = TcpClusterConfig::new(3);
    cfg.num_clients = 4;
    cfg.total_rate = 800.0;
    cfg.run_for = Duration::from_secs(3);
    let cluster = TcpCluster::launch(cfg).expect("cluster boots");
    let commits = cluster.commits();
    let nodes = cluster.node_ids();

    // Every node must deliver at least 1000 requests.
    let delivered_everywhere = wait_until(StdDuration::from_secs(30), || {
        let log = commits.lock().unwrap();
        nodes.iter().all(|n| log.delivered_at(*n) >= 1000)
    });
    {
        let log = commits.lock().unwrap();
        let counts: Vec<(NodeId, u64)> = nodes.iter().map(|n| (*n, log.delivered_at(*n))).collect();
        assert!(
            delivered_everywhere,
            "every node must deliver ≥1000 requests, got {counts:?}"
        );
        log.check_agreement(&nodes).expect("agreement invariant");
    }
    cluster.shutdown();
}

#[test]
fn killed_node_recovers_from_its_wal_on_restart() {
    let _turn = serial();
    let tmp = std::env::temp_dir().join(format!("iss-net-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let mut cfg = TcpClusterConfig::new(4);
    cfg.num_clients = 4;
    cfg.total_rate = 600.0;
    // Keep the load running for the whole test: the later phases (survivor
    // progress while the victim is down, fresh deliveries after the restart)
    // need requests still flowing when they run.
    cfg.run_for = Duration::from_secs(120);
    cfg.storage_root = Some(tmp.clone());
    let mut cluster = TcpCluster::launch(cfg).expect("cluster boots");
    let commits = cluster.commits();
    let nodes = cluster.node_ids();
    let victim = NodeId(0);

    // Let the victim commit (and persist) some work first.
    let progressed = wait_until(StdDuration::from_secs(20), || {
        commits.lock().unwrap().delivered_at(victim) >= 200
    });
    {
        let log = commits.lock().unwrap();
        let counts: Vec<(NodeId, u64)> = nodes.iter().map(|n| (*n, log.delivered_at(*n))).collect();
        assert!(
            progressed,
            "victim must make progress before the crash; delivered: {counts:?}, \
             committed: {:?}, epochs: {:?}",
            log.committed, log.epochs
        );
    }
    cluster.kill_node(victim);
    // The survivors (3 of 4 = 2f+1 for f=1) keep committing while the
    // victim is down.
    let down_mark = commits.lock().unwrap().delivered_at(NodeId(1));
    let survivors_progressed = wait_until(StdDuration::from_secs(20), || {
        commits.lock().unwrap().delivered_at(NodeId(1)) >= down_mark + 200
    });
    {
        let log = commits.lock().unwrap();
        let counts: Vec<(NodeId, u64)> = nodes.iter().map(|n| (*n, log.delivered_at(*n))).collect();
        assert!(
            survivors_progressed,
            "survivors must keep committing while the victim is down; \
             down_mark: {down_mark}, delivered: {counts:?}, committed: {:?}, \
             epochs: {:?}",
            log.committed, log.epochs
        );
    }

    cluster.restart_node(victim).expect("restart");
    // The rebooted incarnation must have replayed its WAL: recovery
    // completes with a positive replay count once it has caught up.
    assert!(
        wait_until(StdDuration::from_secs(30), || {
            let log = commits.lock().unwrap();
            log.recoveries
                .iter()
                .any(|(n, replayed, _)| *n == victim && *replayed > 0)
        }),
        "the restarted node must recover through WAL replay; recoveries: {:?}",
        commits.lock().unwrap().recoveries
    );
    // And it must rejoin ordering: fresh deliveries after the restart.
    let after_restart = commits.lock().unwrap().delivered_at(victim);
    assert!(
        wait_until(StdDuration::from_secs(30), || {
            commits.lock().unwrap().delivered_at(victim) > after_restart
        }),
        "the restarted node must deliver new requests"
    );
    {
        // Every survivor's writer to the victim had a write fail and wrote
        // that chunk again on the new connection.
        let log = commits.lock().unwrap();
        log.check_agreement(&nodes)
            .expect("agreement invariant across the crash-restart");
        assert_no_duplicate_delivery(&log, &nodes);
    }

    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&tmp);
}
