//! End-to-end tests over real loopback sockets.
//!
//! These are wall-clock tests: real protocol threads, real listeners and
//! real connections on 127.0.0.1. The cluster tests boot a [`TcpCluster`]
//! from a simulator [`Scenario`] and poll its metrics until it has made
//! enough progress, or run a whole scenario on both engines; the transport
//! tests host small scripted processes directly on [`TcpRuntime`]. Every wait is bounded by a generous deadline, so a hung
//! runtime fails loudly instead of hanging the suite.
//!
//! The tests of this file take turns ([`serial`]): one asserts a round-trip
//! time and two count the process's threads, and none of them can share the
//! machine or the process with a four-replica cluster under load.

use iss_messages::{ClientMsg, NetMsg};
use iss_net::cluster::PROTOCOL_TIMEOUT;
use iss_net::frame;
use iss_net::runtime::{FLUSH_BYTES, HELLO_TIMEOUT, INTAKE};
use iss_net::{peer_table, PeerTable, TcpCluster, TcpConfig, TcpHandle, TcpRuntime};
use iss_runtime::{Addr, Context, Process};
use iss_sim::{CrashTiming, Protocol, Report, Scenario, ScenarioBuilder, SharedMetrics};
use iss_sim::{MalformedKind, TopologySpec};
use iss_types::{BucketId, ClientId, Duration, NodeId, Request, RequestId, Time, TimerId};
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

    // The client's copy crossed one inbound connection, the echo two dialed
    // connections and the echoing node's bursts in between.
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
    // The buffer's counters count frames, whatever the writes.
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

/// A hello with tag 2 (once a pipeline-stage claim) names no address: the
/// runtime must hang up instead of registering the peer under an address
/// no reply can be routed to.
#[test]
fn a_stage_hello_gets_its_connection_closed() {
    let _turn = serial();
    let peers = peer_table();
    let node = host_node(0, &[], &peers, Echo);
    let target = peers.read().unwrap()[&NodeId(0)];
    let mut raw = TcpStream::connect(target).expect("connect");
    // A tag-2 hello in the retired stage layout: node 0, role 0, index 0.
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
        "the connection with a tag-2 hello was still open after 2 s"
    );
    node.shutdown();
}

/// A dialer that never sends its hello holds nothing up: a real peer
/// connects and exchanges messages meanwhile, and the silent socket is
/// closed once the hello bound has passed.
#[test]
fn a_silent_connection_blocks_nothing() {
    let _turn = serial();
    let peers = peer_table();
    let round_trips = Arc::new(Mutex::new(Vec::new()));
    let echo = host_node(0, &[1], &peers, Echo);
    let target = peers.read().unwrap()[&NodeId(0)];
    let mut silent = TcpStream::connect(target).expect("connect");
    let opened = Instant::now();

    let rounds = 5;
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
    assert!(
        wait_until(StdDuration::from_secs(2), || {
            round_trips.lock().unwrap().len() as u64 >= rounds
        }),
        "a silent connection held up a real peer: {} of {rounds} echoes",
        round_trips.lock().unwrap().len()
    );

    let mut byte = [0u8; 1];
    silent
        .set_read_timeout(Some(StdDuration::from_millis(100)))
        .expect("read timeout");
    let early = silent.read(&mut byte);
    assert!(
        matches!(&early, Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)),
        "the silent connection ended before the hello bound: {early:?}"
    );
    silent
        .set_read_timeout(Some(HELLO_TIMEOUT + StdDuration::from_secs(3)))
        .expect("read timeout");
    let end = silent.read(&mut byte);
    assert!(
        matches!(end, Ok(0)),
        "the silent connection read {end:?} after {:?}",
        opened.elapsed()
    );
    assert!(opened.elapsed() >= HELLO_TIMEOUT, "closed before the bound");
    pinger.shutdown();
    echo.shutdown();
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

/// When each numbered message arrived, in arrival order.
type Arrivals = Arc<Mutex<Vec<(u64, Instant)>>>;

/// A replica that notes when each request arrives and answers nothing.
struct Intake {
    arrived: Arrivals,
}

impl Process<NetMsg> for Intake {
    fn on_start(&mut self, _ctx: &mut Context<'_, NetMsg>) {}

    fn on_message(&mut self, _from: Addr, msg: NetMsg, _ctx: &mut Context<'_, NetMsg>) {
        let now = Instant::now();
        self.arrived.lock().unwrap().push((number_of(&msg), now));
    }

    fn on_timer(&mut self, _: TimerId, _: u64, _: &mut Context<'_, NetMsg>) {}
}

/// A client that sends request `k` to node 0 once `k` ms have passed, for
/// [`Trickle::STREAM`] requests, and then [`Trickle::LONE`] more, each after
/// [`Trickle::QUIET_MS`] without a request. Notes when each one left.
struct Trickle {
    start: Instant,
    next: u64,
    sent: Arc<Mutex<Vec<Instant>>>,
}

impl Trickle {
    const STREAM: u64 = 1000;
    const LONE: u64 = 20;
    /// Milliseconds of quiet before each lone request.
    const QUIET_MS: u64 = 50;

    fn send(&mut self, ctx: &mut Context<'_, NetMsg>) {
        let k = self.next;
        self.next += 1;
        self.sent.lock().unwrap().push(Instant::now());
        let request = Request::new(ClientId(0), k, vec![k as u8; 100]);
        ctx.send(
            Addr::Node(NodeId(0)),
            NetMsg::Client(ClientMsg::Request(request)),
        );
    }
}

impl Process<NetMsg> for Trickle {
    fn on_start(&mut self, ctx: &mut Context<'_, NetMsg>) {
        self.start = Instant::now();
        self.on_timer(TimerId(0), 0, ctx);
    }

    fn on_message(&mut self, _: Addr, _: NetMsg, _: &mut Context<'_, NetMsg>) {}

    fn on_timer(&mut self, _: TimerId, _: u64, ctx: &mut Context<'_, NetMsg>) {
        if self.next < Self::STREAM {
            let due = (self.start.elapsed().as_millis() as u64 + 1).min(Self::STREAM);
            while self.next < due {
                self.send(ctx);
            }
            let wait = if self.next < Self::STREAM {
                Duration::from_millis(1)
            } else {
                Duration::from_millis(Self::QUIET_MS)
            };
            ctx.set_timer(wait, 0);
        } else if self.next < Self::STREAM + Self::LONE {
            self.send(ctx);
            ctx.set_timer(Duration::from_millis(Self::QUIET_MS), 0);
        }
    }
}

/// A client writing every millisecond wakes an idle replica about once per
/// [`INTAKE`], not once per write; the requests wait about half a period,
/// and a lone request after a quiet spell waits for nothing.
#[test]
fn a_replica_under_client_load_wakes_once_per_intake_period() {
    let _turn = serial();
    let peers = peer_table();
    let arrived = Arrivals::default();
    let sent = Arc::new(Mutex::new(Vec::new()));
    let replica = host_node(
        0,
        &[],
        &peers,
        Intake {
            arrived: Arc::clone(&arrived),
        },
    );
    let stats = replica.stats();
    let trickle = Trickle {
        start: Instant::now(),
        next: 0,
        sent: Arc::clone(&sent),
    };
    let client = TcpRuntime::spawn(
        TcpConfig {
            addr: Addr::Client(ClientId(0)),
            dial: vec![NodeId(0)],
            peers: Arc::clone(&peers),
            seed: 7,
        },
        None,
        Box::new(move || Box::new(trickle)),
    )
    .expect("spawn client");

    // The replica's wake-ups from the stream's first request to its last.
    let wakeups_once = |arrivals: u64| {
        let start = Instant::now();
        while (arrived.lock().unwrap().len() as u64) < arrivals {
            assert!(
                start.elapsed() < StdDuration::from_secs(20),
                "{} of {arrivals} requests arrived",
                arrived.lock().unwrap().len()
            );
            std::thread::sleep(StdDuration::from_millis(1));
        }
        stats.wakeups.load(std::sync::atomic::Ordering::Relaxed)
    };
    let first = wakeups_once(1);
    let last = wakeups_once(Trickle::STREAM);
    wakeups_once(Trickle::STREAM + Trickle::LONE);
    client.shutdown();
    replica.shutdown();

    let bound = (StdDuration::from_secs(1).as_micros() / INTAKE.as_micros()) as u64 + 20;
    let wakeups = last - first;
    assert!(
        wakeups <= bound,
        "{wakeups} wake-ups for {} requests in 1 s",
        Trickle::STREAM
    );
    let sent = sent.lock().unwrap();
    let (mut stream, mut lone): (Vec<_>, Vec<_>) = arrived
        .lock()
        .unwrap()
        .iter()
        .map(|&(k, at)| (k, at - sent[k as usize]))
        .partition(|&(k, _)| k < Trickle::STREAM);
    let median = |delays: &mut Vec<(u64, StdDuration)>| {
        delays.sort_by_key(|&(_, delay)| delay);
        delays[delays.len() / 2].1
    };
    let stream_median = median(&mut stream);
    assert!(
        stream_median <= INTAKE + StdDuration::from_millis(5),
        "median delay under load {stream_median:?}"
    );
    let lone_median = median(&mut lone);
    assert!(
        lone_median < StdDuration::from_millis(2),
        "median delay of a lone request {lone_median:?}, all: {lone:?}"
    );
}

/// Live threads of this process.
#[cfg(target_os = "linux")]
fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

/// Threads an engine call made from this thread may have started: runtime
/// threads are named `proto-<Addr>` (their dial helpers inherit the name),
/// and any other thread spawned from here inherits this thread's name. The
/// harness's threads for the other tests are left out: they start and end
/// while this test runs, whatever it does.
#[cfg(target_os = "linux")]
fn threads_started_here() -> usize {
    let own = std::fs::read_to_string("/proc/thread-self/comm").expect("procfs");
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter(|task| {
            let path = task.as_ref().expect("procfs").path().join("comm");
            // A thread that ended since the listing has no name to read.
            let comm = std::fs::read_to_string(path).unwrap_or_default();
            comm.starts_with("proto-") || comm == own
        })
        .count()
}

/// PBFT on loopback: `n` replicas under an open loop of `clients` at
/// `rate` requests/s, submitting for `secs` seconds.
fn lan(n: usize, clients: usize, rate: f64, secs: u64) -> ScenarioBuilder {
    Scenario::builder(Protocol::Pbft, n)
        .topology(TopologySpec::Lan(Duration::from_micros(100)))
        .open_loop(clients, rate)
        .duration(Duration::from_secs(secs))
}

/// Requests each of `nodes` has delivered so far.
fn delivered(metrics: &SharedMetrics, nodes: &[NodeId]) -> Vec<(NodeId, u64)> {
    let m = metrics.lock().unwrap();
    nodes
        .iter()
        .map(|&n| (n, m.checker.delivered_at(n)))
        .collect()
}

/// Whether every one of `nodes` has delivered `at_least` requests.
fn all_delivered(metrics: &SharedMetrics, nodes: &[NodeId], at_least: u64) -> bool {
    delivered(metrics, nodes)
        .iter()
        .all(|&(_, count)| count >= at_least)
}

/// Launches `scenario` and waits until every replica has delivered
/// `at_least` requests.
fn delivering(scenario: ScenarioBuilder, at_least: u64) -> TcpCluster {
    let cluster = TcpCluster::launch(&scenario.build(), None).expect("cluster boots");
    let (metrics, nodes) = (cluster.metrics(), cluster.node_ids());
    let up = wait_until(StdDuration::from_secs(30), || {
        all_delivered(&metrics, &nodes, at_least)
    });
    let counts = delivered(&metrics, &nodes);
    assert!(
        up,
        "every node must deliver ≥{at_least} requests, got {counts:?}"
    );
    cluster
}

#[cfg(target_os = "linux")]
#[test]
fn shut_down_clusters_leave_no_threads_behind() {
    let _turn = serial();
    let before = live_threads();
    for _ in 0..3 {
        delivering(lan(3, 2, 400.0, 30), 100).shutdown();
    }
    // A dial helper still running at shutdown ends a moment after
    // `shutdown` returns; a few of slack covers the test harness.
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

#[cfg(target_os = "linux")]
#[test]
fn a_running_cluster_has_one_thread_per_runtime() {
    let _turn = serial();
    let before = live_threads();
    let cluster = delivering(lan(4, 2, 400.0, 30), 100);
    // Six runtimes, one thread each, and room for two dial helpers.
    let allowed = before + 6 + 2;
    let mut peak = 0;
    for _ in 0..20 {
        peak = peak.max(live_threads());
        std::thread::sleep(StdDuration::from_millis(50));
    }
    assert!(
        all_delivered(&cluster.metrics(), &cluster.node_ids(), 200),
        "the cluster stopped delivering"
    );
    assert!(
        peak <= allowed,
        "{peak} threads while delivering, {before} before launch"
    );
    cluster.shutdown();
}

/// Every scenario dimension the loopback engine has no lowering for makes
/// `launch` fail with `Unsupported`, naming it, before any thread starts.
#[cfg(target_os = "linux")]
#[test]
fn simulator_only_features_are_refused_before_anything_starts() {
    let _turn = serial();
    let base = || lan(4, 2, 400.0, 5);
    let (a, b) = (vec![NodeId(0)], vec![NodeId(1), NodeId(2), NodeId(3)]);
    let (from, until) = (Time::from_secs(1), Time::from_secs(2));
    let rows: Vec<(&str, ScenarioBuilder)> = vec![
        (
            "HotStuff",
            Scenario::builder(Protocol::HotStuff, 4).topology(TopologySpec::Lan(Duration::ZERO)),
        ),
        (
            "Raft",
            Scenario::builder(Protocol::Raft, 4).topology(TopologySpec::Lan(Duration::ZERO)),
        ),
        (
            "Reference",
            Scenario::builder(Protocol::Reference, 4).topology(TopologySpec::Lan(Duration::ZERO)),
        ),
        ("Mir", base().mode(iss_core::Mode::Mir)),
        ("Wan16", base().topology(TopologySpec::Wan16)),
        (
            "Uniform",
            base().topology(TopologySpec::Uniform {
                datacenters: 2,
                latency: Duration::from_millis(5),
            }),
        ),
        ("partition", base().partition(a, b, from, until)),
        ("loss window", base().lossy_window(0.1, from, until)),
        ("attack", base().equivocating_leader(NodeId(1), 1, 2)),
        ("attack", base().censoring_leader(NodeId(1), BucketId(0))),
        (
            "attack",
            base().malformed_proposals(NodeId(1), MalformedKind::Oversized, 1, 2),
        ),
        ("attack", base().byzantine_client(ClientId(0))),
        ("attack", base().duplicating_client(ClientId(1))),
        (
            "crash_restart",
            base().crash_restart(NodeId(0), CrashTiming::EpochStart, Duration::from_secs(1)),
        ),
    ];
    // A dial helper of an earlier test's cluster may still be ending.
    let before = threads_started_here();
    for (feature, builder) in rows {
        let refused = TcpCluster::launch(&builder.build(), None).map(|c| c.shutdown());
        let error = refused.expect_err(feature);
        assert_eq!(error.kind(), ErrorKind::Unsupported, "{feature}: {error}");
        assert!(error.to_string().contains(feature), "{feature}: {error}");
        let after = threads_started_here();
        assert!(
            after <= before,
            "{feature} started a thread: {after} > {before}"
        );
    }
}

#[test]
fn three_node_loopback_cluster_delivers_and_agrees() {
    let _turn = serial();
    // Every node must deliver at least 1000 requests.
    let cluster = delivering(lan(3, 4, 800.0, 3), 1000);
    let violation = cluster.metrics().lock().unwrap().violation.clone();
    assert_eq!(violation, None, "agreement and no duplication");
    cluster.shutdown();
}

#[test]
fn killed_node_recovers_from_its_wal_on_restart() {
    let _turn = serial();
    let tmp = std::env::temp_dir().join(format!("iss-net-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    // Keep the load running for the whole test: the later phases (survivor
    // progress while the victim is down, fresh deliveries after the restart)
    // need requests still flowing when they run.
    let scenario = lan(4, 4, 600.0, 120).build();
    let mut cluster = TcpCluster::launch(&scenario, Some(tmp.clone())).expect("cluster boots");
    let (metrics, nodes) = (cluster.metrics(), cluster.node_ids());
    let victim = NodeId(0);
    let at = |node| metrics.lock().unwrap().checker.delivered_at(node);

    // Let the victim commit (and persist) some work first.
    let progressed = wait_until(StdDuration::from_secs(20), || at(victim) >= 200);
    let counts = delivered(&metrics, &nodes);
    assert!(
        progressed,
        "victim must make progress before the crash; delivered: {counts:?}"
    );
    cluster.kill_node(victim);
    // The survivors (3 of 4 = 2f+1 for f=1) keep committing while the
    // victim is down.
    let down_mark = at(NodeId(1));
    let survivors_progressed = wait_until(StdDuration::from_secs(20), || {
        at(NodeId(1)) >= down_mark + 200
    });
    let counts = delivered(&metrics, &nodes);
    assert!(
        survivors_progressed,
        "survivors must keep committing while the victim is down; \
         down_mark: {down_mark}, delivered: {counts:?}"
    );

    cluster.restart_node(victim).expect("restart");
    // The rebooted incarnation must have replayed its WAL: recovery
    // completes with a positive replay count once it has caught up.
    assert!(
        wait_until(StdDuration::from_secs(30), || {
            let m = metrics.lock().unwrap();
            m.recoveries
                .iter()
                .any(|r| r.node == victim && r.entries_replayed > 0)
        }),
        "the restarted node must recover through WAL replay; recoveries: {:?}",
        metrics.lock().unwrap().recoveries
    );
    // And it must rejoin ordering: fresh deliveries after the restart.
    let after_restart = at(victim);
    assert!(
        wait_until(StdDuration::from_secs(30), || at(victim) > after_restart),
        "the restarted node must deliver new requests"
    );
    // Every survivor's connection to the victim died and was dialed again,
    // and the frames buffered for the victim went with it: the protocol
    // must absorb the loss, and the checker must not see duplicates.
    let violation = metrics.lock().unwrap().violation.clone();
    assert_eq!(
        violation, None,
        "agreement and no duplication across the crash-restart"
    );

    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&tmp);
}

/// The fields of two reports, one row each, side by side.
fn side_by_side(simulated: &Report, loopback: &Report) -> String {
    let rows = |r: &Report| {
        [
            format!("delivered {}", r.delivered),
            format!("throughput {:.1}/s", r.throughput),
            format!("mean latency {:?}", r.mean_latency),
            format!("p95 latency {:?}", r.p95_latency),
            format!("timeline {:?}", r.timeline),
            format!("epochs {:?}", r.epochs),
            format!("nil committed {}", r.nil_committed),
            format!("recoveries {:?}", r.recoveries),
            format!("violation {:?}", r.violation),
        ]
    };
    let mut table = format!("{:<60} | loopback\n", "simulated");
    for (s, l) in rows(simulated).iter().zip(rows(loopback)) {
        table += &format!("{s:<60} | {l}\n");
    }
    table
}

/// One `Scenario`, both engines: the same value runs on the simulator and
/// on loopback TCP, and both reports agree on what matters — no
/// violation, the observer delivering, and node 0 recovering from its WAL
/// after a crash 2 s into the first epoch, away from its boundary.
///
/// On both engines the crash loses what the node's peers sent it while it
/// was down: the simulator drops each message, and a TCP peer drops its
/// frames with the dead connection and with each failed redial, so at
/// most the last backoff's worth arrives late. The restarted node asks a
/// peer for what it missed as it starts, so on both engines it completes
/// that recovery within one protocol timeout of its restart.
#[test]
fn one_scenario_runs_on_both_engines() {
    let _turn = serial();
    let scenario = lan(4, 4, 400.0, 12)
        .warmup(Duration::from_secs(1))
        .drain(Duration::from_secs(1))
        .crash_restart(
            NodeId(0),
            CrashTiming::At(Time::from_secs(2)),
            Duration::from_secs(1),
        )
        .build();
    let simulated = scenario.clone().run();
    let root = std::env::temp_dir().join(format!("iss-both-engines-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let loopback = TcpCluster::run(scenario, Some(root.clone())).expect("loopback run");
    let _ = std::fs::remove_dir_all(&root);

    let both = side_by_side(&simulated, &loopback);
    for report in [&simulated, &loopback] {
        assert_eq!(report.violation, None, "\n{both}");
        assert!(report.delivered > 1500, "observer deliveries\n{both}");
        let replay = report
            .recoveries
            .iter()
            .find(|r| r.node == NodeId(0) && r.entries_replayed > 0)
            .unwrap_or_else(|| panic!("node 0 must recover through WAL replay\n{both}"));
        // A node's recovery starts as it starts, so this is the time from
        // its restart on either engine's clock.
        assert!(
            replay.time_to_catch_up() <= PROTOCOL_TIMEOUT,
            "node 0 must catch up within one protocol timeout\n{both}"
        );
    }
}
