//! The TCP runtime: hosts one sans-IO [`Process`] over real sockets, on one
//! thread.
//!
//! # Thread layout
//!
//! One [`TcpRuntime`] runs one process (a replica or a client) on one
//! thread, named `proto-<Addr>`. It is the only thread that touches the
//! process or its sockets: it owns a [`SansIo`] driver, a monotonic-clock
//! timer wheel and every connection, and it executes handler callbacks
//! strictly serially, so the process sees the same single-threaded world it
//! sees under the simulator. Between callbacks it waits in `ppoll(2)` on
//! everything at once — the listener (replicas only), every connection and
//! one end of a `UnixStream` pair that other threads write to wake it —
//! until the earliest deadline: the next timer, a dial retry, a hello
//! bound or the end of an intake period (see *Receiving* below).
//!
//! * **Accepting.** A replica accepts inline. A new connection's first frame
//!   is its hello, naming the dialer; a connection that has not sent one
//!   after [`HELLO_TIMEOUT`] is closed, so a silent dialer costs a socket,
//!   never a wait.
//! * **Dialing.** `std` has no nonblocking connect, so every dial attempt
//!   runs on a short-lived helper thread: it connects, sends the hello,
//!   hands the stream back over a channel and wakes the protocol thread. A
//!   peer is dialed whenever it has frames to send and no connection; a
//!   failed attempt is retried after 10 ms, doubling up to
//!   `MAX_BACKOFF_MS`. The peer's socket address is re-read from the
//!   shared [`PeerTable`] on every attempt, so a peer that restarts on a new
//!   port is found without reconfiguration.
//!
//! # Batching
//!
//! The wire format is a sequence of length-prefixed frames, one per
//! message; how many frames travel per syscall is this module's business,
//! and the answer is "all that are there":
//!
//! * **Receiving.** Each wake-up gives every readable connection one `read`
//!   into its 64 KiB buffer ([`frame::FrameReader`]). Every frame the read
//!   completed is decoded, and the messages are handled one by one, in
//!   order, exactly as if they had arrived separately (self-sends and due
//!   timers still run between any two of them). Bytes a read leaves in the
//!   socket make the next `ppoll` return at once.
//!
//!   Client connections — on a replica, the only runtime that has them —
//!   are read in batches. For [`INTAKE`] after the thread last read one,
//!   they stay in the wait set only for writability and hang-ups: their
//!   bytes are read whenever the thread wakes for anything else, through
//!   one `ppoll` over them that waits for nothing, and at the latest when
//!   the period ends. After a quiet period they rejoin the wait set, so a
//!   lone request is read at once. At every wake-up the client connections
//!   are read first, and every request they delivered is handled before a
//!   peer connection is read or a due timer runs (only self-sends run in
//!   between); a read that filled the buffer is followed by another. A
//!   batch cut at a wake-up therefore takes every request that had
//!   arrived, and under client load a replica wakes about once per period
//!   instead of once per client write ([`NetStats::wakeups`] counts the
//!   wake-ups).
//! * **Sending.** Every `Action::Send` is encoded straight into a buffer of
//!   whole frames kept per destination. The thread works in *bursts* —
//!   everything one wake-up brings — and a destination's buffer is written,
//!   all of it with one nonblocking `write`, when it passes [`FLUSH_BYTES`],
//!   when the burst has handled [`MAX_BURST`] messages, and always before
//!   the thread waits again: **no byte is ever held across a wait**, and an
//!   idle runtime adds no delay to a lone message. What the socket does not
//!   take stays buffered until `ppoll` reports the connection writable.
//!
//! A destination buffers at most `WRITER_QUEUE` frames, in FIFO order, and
//! its frames go with its connection: when the connection dies, or a dial
//! attempt fails, they are dropped and counted, as the simulator drops a
//! message to a crashed node. Frames sent while a peer's dial waits out its
//! backoff wait for the next attempt.
//!
//! # Connection policy
//!
//! Node-to-node traffic always travels over the *sender's* dialed
//! connection: each replica dials every peer, writes only to sockets it
//! dialed, and treats inbound node connections as read-only. Clients never
//! listen; a node answers a client over the client's own inbound
//! connection, keyed by its hello. This keeps connection ownership
//! unambiguous (exactly one writer per socket) at the cost of two sockets
//! per node pair — the simulator models neither, see
//! `docs/architecture.md`. Every socket has one owner, the protocol thread,
//! so giving a connection up is dropping it.
//!
//! # Time
//!
//! `ctx.now()` is the monotonic-clock duration since the runtime started,
//! in microseconds — the same [`Time`] axis the simulator uses, anchored at
//! process boot instead of at global virtual zero. Timers are kept in a
//! `BinaryHeap` and fire when the monotonic clock passes their deadline;
//! `ppoll` takes its timeout in nanoseconds, so a timer is not rounded up
//! to the next millisecond. Every timer fires once: nothing cancels one, so
//! the heap is the only place a timer lives, and its handle is the one the
//! driver numbered it with, exactly as under the simulator.

use crate::frame::{self, FrameReader};
use bytes::BytesMut;
use iss_messages::NetMsg;
use iss_runtime::{Action, Addr, Event, Process, SansIo};
use iss_types::{NodeId, Time, TimerId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, RwLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Shared node-id → socket-address table.
///
/// Dial attempts re-read it every time, so restarting a node on a fresh port
/// only requires updating the table — every peer's next attempt picks the
/// new address up.
pub type PeerTable = Arc<RwLock<HashMap<NodeId, SocketAddr>>>;

/// Creates an empty peer table.
pub fn peer_table() -> PeerTable {
    Arc::new(RwLock::new(HashMap::new()))
}

/// Builds the hosted process. Runs *inside* the protocol thread, so the
/// process is free to hold thread-local handles (`Rc<dyn Storage>`,
/// `Rc<RefCell<dyn DeliverySink>>`) that could never cross threads
/// themselves.
pub type ProcessBuilder = Box<dyn FnOnce() -> Box<dyn Process<NetMsg>> + Send>;

/// Frames buffered for one destination beyond this bound are dropped: a
/// live but stalled peer or client must not grow the sender's memory
/// without limit, and the protocols tolerate message loss by design. The
/// bound counts frames, however many bytes they hold. Each drop is counted
/// — in the peer's [`PeerStats`], or in [`NetStats::client_dropped`] — and
/// surfaced by a rate-limited warning: loss is tolerated, but never silent.
const WRITER_QUEUE: usize = 4096;

/// Emit a dropped-frame warning on the first drop to a destination and then
/// once every this many drops (a full buffer drops frames in bursts;
/// per-frame logging would melt stderr exactly when the node is busiest).
const DROP_WARN_EVERY: u64 = 1024;

/// A destination's frame buffer is written as soon as it holds this many
/// bytes, burst or not: past a socket buffer's worth, waiting for more
/// saves no syscall and only delays the peer.
pub const FLUSH_BYTES: usize = 64 << 10;

/// A burst is cut (every buffer written) after this many network messages
/// even if the wake-up brought more, so a saturated node's votes wait for
/// at most this many callbacks, not for [`FLUSH_BYTES`] of votes.
pub const MAX_BURST: usize = 256;

/// An accepted connection that has not sent its hello within this bound is
/// closed.
pub const HELLO_TIMEOUT: Duration = Duration::from_secs(5);

/// The wait before the first retry of a failed dial; it doubles with every
/// further failure, up to [`MAX_BACKOFF_MS`].
const MIN_BACKOFF_MS: u64 = 10;

/// The longest wait between two dial attempts.
const MAX_BACKOFF_MS: u64 = 500;

/// A replica that has just read a client connection stops waiting on client
/// connections for this long: their bytes are picked up whenever the thread
/// wakes for anything else, and at the latest when the period ends. A
/// request is of no use to its leader before the next batch cut (every
/// 125 ms in Table 1), so the few milliseconds cost little latency, while
/// a replica under client load wakes once per period instead of once per
/// client write. The period is bounded instead of lasting until the next
/// timer: a loopback socket's receive window starts near 64 KiB, less than
/// a load generator writes between two batch cuts, so a longer wait leaves
/// the tail of its requests in the sender's buffers until after the cut.
pub const INTAKE: Duration = Duration::from_millis(5);

/// Live statistics of one dialed peer's frame buffer, written by the
/// protocol thread and sampled by any harness. All plain counters — no
/// ordering requirements beyond each counter being individually consistent,
/// so `Relaxed` throughout.
#[derive(Debug, Default)]
pub struct PeerStats {
    /// Frames buffered for the peer that its socket has not taken whole, as
    /// of the last write attempt.
    pub queue_depth: AtomicU64,
    /// Peak buffer depth observed.
    pub max_queue_depth: AtomicU64,
    /// Frames dropped: on a full buffer, or with a connection that died or
    /// could not be made.
    pub dropped: AtomicU64,
    /// Successful dials (the first connect plus every reconnect).
    pub connects: AtomicU64,
    /// Frames the socket took whole.
    pub frames_sent: AtomicU64,
    /// Payload bytes of those frames (length prefixes not counted).
    pub bytes_sent: AtomicU64,
}

impl PeerStats {
    /// One write attempt: the buffer held `before` frames and holds `after`
    /// now; the socket took `frames` whole, of `bytes` payload bytes.
    fn note_written(&self, before: usize, after: usize, frames: u64, bytes: u64) {
        self.max_queue_depth
            .fetch_max(before as u64, Ordering::Relaxed);
        self.queue_depth.store(after as u64, Ordering::Relaxed);
        if frames > 0 {
            self.frames_sent.fetch_add(frames, Ordering::Relaxed);
            self.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
        }
    }
}

/// Counts `frames` frames to `to` dropped because of `cause`.
fn note_dropped(counter: &AtomicU64, to: Addr, frames: u64, cause: &str) {
    let before = counter.fetch_add(frames, Ordering::Relaxed);
    let drops = before + frames;
    if before == 0 || before / DROP_WARN_EVERY < drops / DROP_WARN_EVERY {
        eprintln!("iss-net: {cause}: frames to {to:?} dropped, {drops} so far");
    }
}

/// Live statistics of one [`TcpRuntime`]. Obtained from
/// [`TcpHandle::stats`] and safe to sample from any thread while the
/// runtime runs.
#[derive(Debug, Default)]
pub struct NetStats {
    /// Messages one socket read delivered that the protocol thread has not
    /// handled yet.
    pub mailbox_depth: AtomicU64,
    /// The most messages one socket read delivered.
    pub max_mailbox_depth: AtomicU64,
    /// Frames to clients dropped because the client's buffer was full.
    pub client_dropped: AtomicU64,
    /// Returns from the blocking wait: how often the protocol thread woke.
    pub wakeups: AtomicU64,
    /// Frame buffer statistics per dialed peer.
    pub peers: HashMap<NodeId, Arc<PeerStats>>,
}

/// Configuration of one [`TcpRuntime`].
pub struct TcpConfig {
    /// Address of the hosted process.
    pub addr: Addr,
    /// Every replica this runtime dials (usually all nodes except itself
    /// for a replica, all nodes for a client).
    pub dial: Vec<NodeId>,
    /// The shared node address table.
    pub peers: PeerTable,
    /// Seed for the driver's deterministic RNG.
    pub seed: u64,
}

/// Handle to a running [`TcpRuntime`]; dropping it without calling
/// [`TcpHandle::shutdown`] detaches the runtime's thread.
pub struct TcpHandle {
    stop: Arc<AtomicBool>,
    waker: Arc<UnixStream>,
    thread: Option<JoinHandle<()>>,
    stats: Arc<NetStats>,
}

impl TcpHandle {
    /// Live transport statistics of this runtime (read batches, per-peer
    /// buffers, drops and reconnects). Safe to sample from any thread.
    pub fn stats(&self) -> Arc<NetStats> {
        Arc::clone(&self.stats)
    }

    /// Stops the runtime: the protocol thread writes what its sockets take,
    /// drops the hosted process (flushing any durable storage it holds) and
    /// closes every connection, which ends them at the other end too.
    /// Blocks until the protocol thread has terminated, so a caller that
    /// restarts the process immediately afterwards observes fully-persisted
    /// state.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        wake(&self.waker);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Wakes the protocol thread. A full wake-up socket already holds a
/// wake-up, so a failed write loses nothing.
fn wake(waker: &UnixStream) {
    let _ = (&*waker).write(&[0]);
}

/// The TCP runtime (see the module docs for the thread layout).
pub struct TcpRuntime;

impl TcpRuntime {
    /// Spawns a runtime hosting the process built by `builder`.
    ///
    /// `listener` is the already-bound listening socket for a replica
    /// (bind first, publish the address in the peer table, then spawn —
    /// that way no peer can dial an unbound address), or `None` for a
    /// client, which only dials.
    pub fn spawn(
        cfg: TcpConfig,
        listener: Option<TcpListener>,
        builder: ProcessBuilder,
    ) -> io::Result<TcpHandle> {
        if let Some(listener) = &listener {
            listener.set_nonblocking(true)?;
        }
        let (wake_rx, waker) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        waker.set_nonblocking(true)?;
        let waker = Arc::new(waker);
        let stats = Arc::new(NetStats {
            peers: cfg.dial.iter().map(|&p| (p, Arc::default())).collect(),
            ..NetStats::default()
        });
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel();
        let dialer = Dialer {
            hello: frame::encode_hello(cfg.addr).into(),
            peers: Arc::clone(&cfg.peers),
            waker: Arc::clone(&waker),
            tx,
            rx,
        };
        let net = Net::new(Arc::clone(&stats));
        let thread = thread::Builder::new()
            .name(format!("proto-{:?}", cfg.addr))
            .spawn({
                let stop = Arc::clone(&stop);
                move || {
                    let mut driver: SansIo<NetMsg> = SansIo::new(cfg.seed);
                    driver.mount(cfg.addr, builder());
                    let p = Protocol {
                        addr: cfg.addr,
                        start: Instant::now(),
                        driver,
                        timers: BinaryHeapWheel::new(),
                        selfq: VecDeque::new(),
                        actions: Vec::new(),
                        net,
                        dialer,
                        listener,
                        wake: wake_rx,
                        burst: 0,
                        inbox: Vec::new(),
                        fds: Vec::new(),
                        tokens: Vec::new(),
                        intake_until: None,
                    };
                    p.run(&stop);
                }
            })?;
        Ok(TcpHandle {
            stop,
            waker,
            thread: Some(thread),
            stats,
        })
    }
}

/// Names one connection of a runtime for as long as it is open.
type Token = u64;

/// One connection the protocol thread reads (and perhaps writes).
struct Conn {
    frames: FrameReader<TcpStream>,
    /// The process at the other end: the dialed peer, or whoever the hello
    /// of an accepted connection named; `None` until that hello arrives.
    from: Option<Addr>,
    /// When an accepted connection still without a hello is closed.
    hello_by: Option<Instant>,
    /// The socket took less than it was offered: nothing more is written
    /// until `ppoll` reports it writable.
    blocked: bool,
}

impl Conn {
    /// Whether the hello named a client: only a replica accepts those.
    fn is_client(&self) -> bool {
        matches!(self.from, Some(Addr::Client(_)))
    }
}

/// Whole frames for one destination that no connection has taken whole, in
/// send order.
#[derive(Default)]
struct Queue {
    buf: BytesMut,
    /// The bytes at the front of `buf` of frames already taken whole. They
    /// are reclaimed once they are at least half of `buf`, so a backlog the
    /// socket takes in many pieces is moved a few times in all, not once
    /// per write.
    retired: usize,
    /// The length, prefix included, of each frame behind `retired`.
    lens: VecDeque<usize>,
    /// The bytes behind `retired` the current connection has taken: always
    /// part of the first frame once [`Queue::retire`] has run.
    sent: usize,
}

impl Queue {
    fn frames(&self) -> usize {
        self.lens.len()
    }

    /// The frames no connection has taken whole.
    fn pending(&self) -> &[u8] {
        &self.buf[self.retired..]
    }

    fn unsent(&self) -> usize {
        self.pending().len() - self.sent
    }

    /// Encodes `msg` behind whatever is already buffered. Every message
    /// encodes; which protocols a cluster may boot over TCP is decided before
    /// it starts (`Scenario::simulator_only`).
    fn push(&mut self, msg: &NetMsg) {
        let at = self.buf.len();
        frame::encode_frame(msg, &mut self.buf);
        self.lens.push_back(self.buf.len() - at);
    }

    /// Writes the unsent bytes until the socket takes no more without
    /// blocking.
    fn write_to(&mut self, mut socket: &TcpStream) -> io::Result<()> {
        while self.unsent() > 0 {
            match socket.write(&self.pending()[self.sent..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Forgets the frames the socket took whole; returns how many, and
    /// their payload bytes.
    fn retire(&mut self) -> (u64, u64) {
        let (mut frames, mut done) = (0, 0);
        while let Some(&len) = self.lens.front() {
            if done + len > self.sent {
                break;
            }
            done += len;
            frames += 1;
            self.lens.pop_front();
        }
        self.retired += done;
        self.sent -= done;
        if self.retired == self.buf.len() {
            self.buf.clear();
            self.retired = 0;
        } else if 2 * self.retired >= self.buf.len() {
            self.buf.copy_within(self.retired.., 0);
            self.buf.truncate(self.buf.len() - self.retired);
            self.retired = 0;
        }
        (frames as u64, (done - frame::PREFIX * frames) as u64)
    }
}

/// A dialed peer's side of its destination.
struct Link {
    stats: Arc<PeerStats>,
    /// The helper thread running a dial attempt, joined once the attempt
    /// has reported back.
    dialing: Option<JoinHandle<()>>,
    /// No attempt starts before this.
    retry_at: Option<Instant>,
    backoff_ms: u64,
}

impl Link {
    fn failed(&mut self, now: Instant) {
        self.retry_at = Some(now + Duration::from_millis(self.backoff_ms));
        self.backoff_ms = (2 * self.backoff_ms).min(MAX_BACKOFF_MS);
    }
}

/// One destination the process sends to: a peer this runtime dials, or a
/// client that connected to it.
struct Dest {
    queue: Queue,
    /// The connection its frames leave on.
    conn: Option<Token>,
    /// `None` for a client.
    link: Option<Link>,
}

impl Dest {
    /// The connection to `to` died or could not be made: every buffered
    /// frame goes with it, counted as dropped.
    fn discard(&mut self, to: Addr, cause: &str) {
        let frames = std::mem::take(&mut self.queue).frames() as u64;
        if let Some(link) = self.link.as_ref().filter(|_| frames > 0) {
            link.stats.queue_depth.store(0, Ordering::Relaxed);
            note_dropped(&link.stats.dropped, to, frames, cause);
        }
    }

    /// Offers the buffered frames to the destination's connection unless it
    /// is blocked; `Err` names a connection that failed.
    fn write(&mut self, conns: &mut HashMap<Token, Conn>) -> Result<(), Token> {
        let before = self.queue.frames();
        if before == 0 {
            return Ok(());
        }
        let (mut result, mut frames, mut bytes) = (Ok(()), 0, 0);
        if let Some((token, conn)) = self.conn.and_then(|t| Some((t, conns.get_mut(&t)?))) {
            if !conn.blocked {
                let written = self.queue.write_to(conn.frames.get_ref());
                (frames, bytes) = self.queue.retire();
                conn.blocked = self.queue.unsent() > 0;
                result = written.map_err(|_| token);
            }
        }
        if let Some(link) = &self.link {
            link.stats
                .note_written(before, self.queue.frames(), frames, bytes);
        }
        result
    }
}

/// Every connection and destination of one runtime.
struct Net {
    conns: HashMap<Token, Conn>,
    next_token: Token,
    dests: HashMap<Addr, Dest>,
    stats: Arc<NetStats>,
}

impl Net {
    /// A destination per dialed peer in `stats`, none connected yet.
    fn new(stats: Arc<NetStats>) -> Net {
        let dests = stats
            .peers
            .iter()
            .map(|(&peer, peer_stats)| {
                let link = Link {
                    stats: Arc::clone(peer_stats),
                    dialing: None,
                    retry_at: None,
                    backoff_ms: MIN_BACKOFF_MS,
                };
                let dest = Dest {
                    queue: Queue::default(),
                    conn: None,
                    link: Some(link),
                };
                (Addr::Node(peer), dest)
            })
            .collect();
        Net {
            conns: HashMap::new(),
            next_token: 0,
            dests,
            stats,
        }
    }

    /// Starts reading a nonblocking socket.
    fn add(&mut self, socket: TcpStream, from: Option<Addr>, hello_by: Option<Instant>) -> Token {
        let token = self.next_token;
        self.next_token += 1;
        let conn = Conn {
            frames: FrameReader::new(socket),
            from,
            hello_by,
            blocked: false,
        };
        self.conns.insert(token, conn);
        token
    }

    /// Encodes `msg` behind whatever is already buffered for `to`.
    fn send(&mut self, to: Addr, msg: &NetMsg) {
        // A node this runtime does not dial, or a client that has not
        // connected or is gone: the frame has nowhere to go.
        let Some(dest) = self.dests.get_mut(&to) else {
            return;
        };
        if dest.queue.frames() >= WRITER_QUEUE {
            let counter = match &dest.link {
                Some(link) => &link.stats.dropped,
                None => &self.stats.client_dropped,
            };
            note_dropped(counter, to, 1, "buffer full");
            return;
        }
        dest.queue.push(msg);
        if dest.queue.unsent() >= FLUSH_BYTES {
            if let Err(token) = dest.write(&mut self.conns) {
                self.close(token);
            }
        }
    }

    /// Ends a burst: every destination's buffer is offered to its socket.
    fn flush(&mut self) {
        let mut failed = Vec::new();
        for dest in self.dests.values_mut() {
            if let Err(token) = dest.write(&mut self.conns) {
                failed.push(token);
            }
        }
        for token in failed {
            self.close(token);
        }
    }

    /// Reads `token`'s socket once and decodes every frame the read
    /// completed into `msgs`; returns who sent them, and whether the read
    /// filled the connection's buffer (so more bytes may wait). An accepted
    /// connection's first frame is its hello: it names the sender, and a
    /// client's replies leave over the connection it names. `Err` for a
    /// connection that ended or spoke garbage (which gets dropped, not
    /// interpreted).
    fn receive(
        &mut self,
        token: Token,
        msgs: &mut Vec<NetMsg>,
    ) -> io::Result<(Option<Addr>, bool)> {
        let Some(conn) = self.conns.get_mut(&token) else {
            return Ok((None, false));
        };
        match conn.frames.fill() {
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok((conn.from, false)),
            read => read?,
        }
        let full = conn.frames.is_full();
        while let Some(payload) = conn.frames.next_frame()? {
            if conn.from.is_some() {
                msgs.push(frame::decode_frame(payload)?);
                continue;
            }
            let from = frame::decode_hello(payload)?;
            conn.from = Some(from);
            conn.hello_by = None;
            if let Addr::Client(_) = from {
                let dest = Dest {
                    queue: Queue::default(),
                    conn: Some(token),
                    link: None,
                };
                self.dests.insert(from, dest);
            }
        }
        Ok((conn.from, full))
    }

    /// Gives a connection up, and its destination's frames with it: a dialed
    /// peer keeps only its link, for the redial, and a client's destination
    /// goes.
    fn close(&mut self, token: Token) {
        let Some(from) = self.conns.remove(&token).and_then(|conn| conn.from) else {
            return;
        };
        let Some(dest) = self.dests.get_mut(&from) else {
            return;
        };
        if dest.conn != Some(token) {
            return;
        }
        if dest.link.is_some() {
            dest.conn = None;
            dest.discard(from, "connection died");
        } else {
            self.dests.remove(&from);
        }
    }

    /// A dial attempt to `peer` ended, with a connected and greeted socket
    /// or without one.
    fn dialed(&mut self, peer: NodeId, socket: Option<TcpStream>, now: Instant) {
        let to = Addr::Node(peer);
        let token = socket.map(|socket| self.add(socket, Some(to), None));
        let Some(dest) = self.dests.get_mut(&to) else {
            return;
        };
        let Some(link) = &mut dest.link else {
            return;
        };
        // The helper has handed its result over: joining it only reaps it.
        if let Some(helper) = link.dialing.take() {
            let _ = helper.join();
        }
        match token {
            Some(token) => {
                dest.conn = Some(token);
                link.backoff_ms = MIN_BACKOFF_MS;
                link.stats.connects.fetch_add(1, Ordering::Relaxed);
            }
            None => {
                link.failed(now);
                dest.discard(to, "dial failed");
            }
        }
    }
}

/// Runs dial attempts on helper threads and collects their sockets.
struct Dialer {
    hello: Arc<[u8]>,
    peers: PeerTable,
    waker: Arc<UnixStream>,
    tx: Sender<(NodeId, Option<TcpStream>)>,
    rx: Receiver<(NodeId, Option<TcpStream>)>,
}

impl Dialer {
    /// Starts an attempt for every dialed peer with frames to send, no
    /// connection and no attempt running, whose backoff has passed; returns
    /// when the next backoff still running ends.
    fn start_due(&self, net: &mut Net, now: Instant) -> Option<Instant> {
        let mut next = None;
        for (to, dest) in &mut net.dests {
            let (Addr::Node(peer), Some(link)) = (*to, &mut dest.link) else {
                continue;
            };
            if dest.conn.is_some() || link.dialing.is_some() || dest.queue.frames() == 0 {
                continue;
            }
            match link.retry_at {
                Some(at) if at > now => next = earliest(next, Some(at)),
                _ => match self.spawn(peer) {
                    Ok(helper) => {
                        link.dialing = Some(helper);
                        link.retry_at = None;
                    }
                    Err(_) => link.failed(now),
                },
            }
        }
        next
    }

    /// One attempt at a connection to `peer` on a helper thread, which
    /// hands the socket back and wakes the protocol thread.
    fn spawn(&self, peer: NodeId) -> io::Result<JoinHandle<()>> {
        let hello = Arc::clone(&self.hello);
        let peers = Arc::clone(&self.peers);
        let waker = Arc::clone(&self.waker);
        let tx = self.tx.clone();
        thread::Builder::new().spawn(move || {
            let socket = dial(peer, &peers, &hello);
            // A failed send means the protocol thread is gone: no one to wake.
            if tx.send((peer, socket)).is_ok() {
                wake(&waker);
            }
        })
    }
}

/// Connects to `peer` at the address the peer table holds now, sends the
/// hello and leaves the socket nonblocking.
fn dial(peer: NodeId, peers: &PeerTable, hello: &[u8]) -> Option<TcpStream> {
    let target = peers.read().ok()?.get(&peer).copied()?;
    let mut socket = TcpStream::connect(target).ok()?;
    let _ = socket.set_nodelay(true);
    frame::write_frame(&mut socket, hello).ok()?;
    socket.set_nonblocking(true).ok()?;
    Some(socket)
}

/// The earlier of two optional deadlines.
fn earliest(a: Option<Instant>, b: Option<Instant>) -> Option<Instant> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// The protocol thread's state: the single place the hosted process
/// executes, and the owner of every socket.
struct Protocol {
    addr: Addr,
    start: Instant,
    driver: SansIo<NetMsg>,
    /// Min-heap of (deadline µs, insertion seq, handle, kind). The insertion
    /// sequence keeps equal-deadline timers FIFO, matching the simulator's
    /// same-time submission order.
    timers: BinaryHeapWheel,
    /// Self-addressed sends loop straight back as the next events, ahead of
    /// anything the network delivers — same as the simulator's zero-latency
    /// local delivery being scheduled before later arrivals.
    selfq: VecDeque<NetMsg>,
    actions: Vec<Action<NetMsg>>,
    net: Net,
    dialer: Dialer,
    listener: Option<TcpListener>,
    /// The read end of the wake-up pair.
    wake: UnixStream,
    /// Network messages handled since the buffers were last written.
    burst: usize,
    /// The messages of one read, waiting to be handled.
    inbox: Vec<NetMsg>,
    /// The poll set of the current wait: the wake-up socket, the listener
    /// if any, then the connection of each entry of `tokens`, clients
    /// first.
    fds: Vec<PollFd>,
    tokens: Vec<Token>,
    /// Until then, client connections are not waited on for reading (see
    /// [`INTAKE`]); `None` on a client runtime, which has none.
    intake_until: Option<Instant>,
}

impl Protocol {
    fn now(&self) -> Time {
        Time(self.start.elapsed().as_micros() as u64)
    }

    /// Runs one callback and routes its actions: timers onto the wheel,
    /// sends into the destination's frame buffer.
    fn handle(&mut self, event: Event<NetMsg>) {
        let now = self.now();
        self.driver.handle_into(now, event, &mut self.actions);
        for action in self.actions.drain(..) {
            match action {
                Action::SetTimer { id, delay, kind } => {
                    self.timers.push(now.0 + delay.as_micros(), id, kind);
                }
                Action::Send { to, msg } if to == self.addr => self.selfq.push_back(msg),
                Action::Send { to, msg } => self.net.send(to, &msg),
            }
        }
    }

    /// Self-sends, and the self-sends they cause, until none is left.
    fn run_self_sends(&mut self) {
        while let Some(msg) = self.selfq.pop_front() {
            let from = self.addr;
            self.handle(Event::Message { from, msg });
        }
    }

    /// Self-sends first, then due timers, until neither is left: what runs
    /// ahead of the next network message.
    fn run_local(&mut self) {
        loop {
            self.run_self_sends();
            while let Some((id, kind)) = self.timers.pop_due(self.now()) {
                self.handle(Event::Timer { id, kind });
            }
            if self.selfq.is_empty() {
                return;
            }
        }
    }

    /// The protocol thread (see the module docs for bursts and the flush
    /// rule).
    fn run(mut self, stop: &AtomicBool) {
        self.handle(Event::Start);
        loop {
            self.run_local();
            // The burst ends: nothing stays buffered while the thread waits.
            self.net.flush();
            self.burst = 0;
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let retry = self.dialer.start_due(&mut self.net, Instant::now());
            self.wait(retry);
        }
        // On return `self` drops here, on the protocol thread: the driver
        // (and with it the process and its storage handle) and every socket.
    }

    /// Waits for a socket, the wake-up pair or the earliest deadline, and
    /// handles what the wake-up brought: client connections first, then the
    /// others.
    fn wait(&mut self, dial_retry: Option<Instant>) {
        self.fds.clear();
        self.tokens.clear();
        self.fds.push(PollFd::new(self.wake.as_raw_fd(), POLLIN));
        if let Some(listener) = &self.listener {
            self.fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
        }
        let fixed = self.fds.len();
        let now = Instant::now();
        let intake_until = self.intake_until.filter(|&until| until > now);
        let mut deadline = dial_retry;
        let mut clients = 0;
        for client_pass in [true, false] {
            for (&token, conn) in &self.net.conns {
                if conn.is_client() != client_pass {
                    continue;
                }
                let mut events = if conn.blocked { POLLOUT } else { 0 };
                // Inside the intake period a client connection stays in the
                // set only for writability and hang-ups.
                if !(client_pass && intake_until.is_some()) {
                    events |= POLLIN;
                }
                self.fds
                    .push(PollFd::new(conn.frames.get_ref().as_raw_fd(), events));
                self.tokens.push(token);
                deadline = earliest(deadline, conn.hello_by);
            }
            if client_pass {
                clients = self.tokens.len();
            }
        }
        let mut timeout = self.timers.until_next(self.now());
        if let Some(until) = earliest(deadline, intake_until) {
            timeout = timeout.min(until.saturating_duration_since(now));
        }
        poll(&mut self.fds, timeout);
        self.net.stats.wakeups.fetch_add(1, Ordering::Relaxed);
        let intake = fixed..fixed + clients;
        if intake_until.is_some() && !intake.is_empty() {
            // What every client sent meanwhile, in one look that waits for
            // nothing.
            for fd in &mut self.fds[intake.clone()] {
                fd.events |= POLLIN;
            }
            poll(&mut self.fds[intake], Duration::ZERO);
        }

        if self.fds[0].revents != 0 {
            self.woken();
        }
        if fixed == 2 && self.fds[1].revents != 0 {
            self.accept();
        }
        let tokens = std::mem::take(&mut self.tokens);
        for (i, &token) in tokens.iter().enumerate() {
            if self.fds[fixed + i].revents & POLLOUT != 0 {
                if let Some(conn) = self.net.conns.get_mut(&token) {
                    conn.blocked = false;
                }
            }
        }
        // Readable, or at its end or failed: a read tells which. Every client
        // request that has arrived is handled before a due timer runs, so a
        // batch cut at this wake-up takes all of them; a read that filled the
        // buffer is followed by another.
        for (i, &token) in tokens.iter().enumerate() {
            if self.fds[fixed + i].revents & !POLLOUT == 0 {
                continue;
            }
            if i < clients {
                self.intake_until = Some(Instant::now() + INTAKE);
                while self.read(token, false) {}
            } else {
                self.read(token, true);
            }
        }
        self.tokens = tokens;

        let now = Instant::now();
        if deadline.is_some_and(|deadline| deadline <= now) {
            self.net
                .conns
                .retain(|_, conn| conn.hello_by.is_none_or(|by| by > now));
        }
    }

    /// Drains the wake-up socket and takes the sockets dial attempts
    /// handed back.
    fn woken(&mut self) {
        let mut sink = [0u8; 64];
        while matches!((&self.wake).read(&mut sink), Ok(n) if n > 0) {}
        let now = Instant::now();
        while let Ok((peer, socket)) = self.dialer.rx.try_recv() {
            self.net.dialed(peer, socket, now);
        }
    }

    /// Accepts every pending connection; each waits for its hello.
    fn accept(&mut self) {
        let Some(listener) = &self.listener else {
            return;
        };
        loop {
            match listener.accept() {
                Ok((socket, _)) => {
                    if socket.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = socket.set_nodelay(true);
                    let hello_by = Instant::now() + HELLO_TIMEOUT;
                    self.net.add(socket, None, Some(hello_by));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Nothing left to accept (or no descriptor to accept it
                // with): the next wake-up tries again.
                Err(_) => return,
            }
        }
    }

    /// Reads one connection once and handles every message it delivered,
    /// with due timers in between only if `timers`; returns whether the
    /// read filled the connection's buffer.
    fn read(&mut self, token: Token, timers: bool) -> bool {
        let mut msgs = std::mem::take(&mut self.inbox);
        let read = self.net.receive(token, &mut msgs);
        let full = matches!(read, Ok((_, true)));
        match read {
            Ok((Some(from), _)) if !msgs.is_empty() => {
                let depth = msgs.len() as u64;
                let stats = &self.net.stats;
                stats.max_mailbox_depth.fetch_max(depth, Ordering::Relaxed);
                stats.mailbox_depth.store(depth, Ordering::Relaxed);
                for msg in msgs.drain(..) {
                    self.handle(Event::Message { from, msg });
                    if timers {
                        self.run_local();
                    } else {
                        self.run_self_sends();
                    }
                    self.burst += 1;
                    if self.burst >= MAX_BURST {
                        self.net.flush();
                        self.burst = 0;
                    }
                }
                self.net.stats.mailbox_depth.store(0, Ordering::Relaxed);
            }
            Ok(_) => {}
            Err(_) => {
                msgs.clear();
                self.net.close(token);
            }
        }
        self.inbox = msgs;
        full
    }
}

/// Min-heap timer wheel on the monotonic clock.
struct BinaryHeapWheel {
    heap: BinaryHeap<Reverse<(u64, u64, u64, u64)>>,
    seq: u64,
}

impl BinaryHeapWheel {
    fn new() -> Self {
        BinaryHeapWheel {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    fn push(&mut self, deadline_us: u64, id: TimerId, kind: u64) {
        self.heap.push(Reverse((deadline_us, self.seq, id.0, kind)));
        self.seq += 1;
    }

    /// Pops the next timer whose deadline has passed.
    fn pop_due(&mut self, now: Time) -> Option<(TimerId, u64)> {
        match self.heap.peek() {
            Some(&Reverse((deadline, _, id, kind))) if deadline <= now.0 => {
                self.heap.pop();
                Some((TimerId(id), kind))
            }
            _ => None,
        }
    }

    /// How long the protocol thread may sleep before the next deadline.
    fn until_next(&self, now: Time) -> Duration {
        match self.heap.peek() {
            Some(&Reverse((deadline, ..))) => Duration::from_micros(deadline.saturating_sub(now.0)),
            // No timer armed: wake periodically anyway, purely defensively.
            None => Duration::from_millis(100),
        }
    }
}

/// `struct pollfd` of `poll(2)`.
#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    fn new(fd: RawFd, events: c_short) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }
}

/// `struct timespec`.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;

extern "C" {
    /// `ppoll(2)`; `nfds_t` is an `unsigned long` on Linux.
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

/// Waits until a socket of `fds` is ready or `timeout` passes, and leaves
/// what happened in each entry's `revents`.
fn poll(fds: &mut [PollFd], timeout: Duration) {
    let timeout = Timespec {
        tv_sec: timeout.as_secs().min(c_long::MAX as u64) as c_long,
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `fds` is an exclusively borrowed slice of `repr(C)` pollfd
    // structs, passed with its exact length, so the kernel reads and writes
    // (`revents` only) inside it; `timeout` is a valid timespec that
    // outlives the call; a null signal mask leaves the mask unchanged.
    let ready = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            &timeout,
            std::ptr::null(),
        )
    };
    if ready < 0 {
        let error = io::Error::last_os_error();
        assert_eq!(error.kind(), io::ErrorKind::Interrupted, "ppoll: {error}");
        // A signal cut the wait short: nothing is ready.
        for fd in fds {
            fd.revents = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iss_messages::ClientMsg;
    use iss_types::{ClientId, Request};
    use std::net::Ipv4Addr;

    #[test]
    fn a_client_that_stops_reading_cannot_stall_a_replica() {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind");
        // The client's end: connected, never read.
        let _client_end = TcpStream::connect(listener.local_addr().expect("addr")).expect("dial");
        let (socket, _) = listener.accept().expect("accept");
        socket.set_nonblocking(true).expect("nonblocking");
        let stats = Arc::new(NetStats::default());
        let mut net = Net::new(Arc::clone(&stats));
        let client = Addr::Client(ClientId(0));
        let token = net.add(socket, Some(client), None);
        let dest = Dest {
            queue: Queue::default(),
            conn: Some(token),
            link: None,
        };
        net.dests.insert(client, dest);
        let reply = NetMsg::Client(ClientMsg::Request(Request::new(
            ClientId(0),
            0,
            vec![7; 4096],
        )));
        let dropped = || stats.client_dropped.load(Ordering::Relaxed);

        // Until the socket is full, then the buffer, then a buffer's worth
        // more: every frame past the bound must be dropped, none may wait.
        let mut slowest = Duration::ZERO;
        let mut sends = 0;
        while dropped() < WRITER_QUEUE as u64 && sends < 1 << 16 {
            let began = Instant::now();
            net.send(client, &reply);
            if sends % 64 == 0 {
                net.flush();
            }
            slowest = slowest.max(began.elapsed());
            sends += 1;
            let buffered = net.dests[&client].queue.frames();
            assert!(buffered <= WRITER_QUEUE, "{buffered} frames buffered");
        }
        assert!(
            slowest < Duration::from_millis(100),
            "a send took {slowest:?}"
        );
        assert_eq!(
            dropped(),
            WRITER_QUEUE as u64,
            "{sends} sends, {} frames buffered",
            net.dests[&client].queue.frames()
        );
        assert!(
            net.conns[&token].blocked,
            "the stalled socket waits for POLLOUT"
        );
    }

    #[test]
    fn a_dialed_peers_frames_go_with_its_connection() {
        let peer = NodeId(1);
        let to = Addr::Node(peer);
        let stats = Arc::new(NetStats {
            peers: HashMap::from([(peer, Arc::default())]),
            ..NetStats::default()
        });
        let mut net = Net::new(Arc::clone(&stats));
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind");
        let msg = |k| {
            NetMsg::Client(ClientMsg::Request(Request::new(
                ClientId(0),
                k,
                vec![1; 10],
            )))
        };
        // Hands frame `k` over, dials the peer and checks that `k` is the
        // first frame the new connection carries; leaves it connected.
        let next_connection_carries = |net: &mut Net, k| {
            net.send(to, &msg(k));
            let socket = TcpStream::connect(listener.local_addr().expect("addr")).expect("dial");
            socket.set_nonblocking(true).expect("nonblocking");
            net.dialed(peer, Some(socket), Instant::now());
            let mut peer_end = listener.accept().expect("accept").0;
            net.flush();
            let first = frame::read_frame(&mut peer_end).expect("a frame");
            assert_eq!(first, frame::encode_msg(&msg(k)).expect("encodes"));
        };
        let link = &stats.peers[&peer];
        let dropped = || link.dropped.load(Ordering::Relaxed);

        // Frames queued, then the connection dies: they go with it, counted
        // as dropped.
        next_connection_carries(&mut net, 0);
        for k in 1..4 {
            net.send(to, &msg(k));
        }
        net.close(net.dests[&to].conn.expect("connected"));
        assert_eq!(net.dests[&to].queue.frames(), 0);
        assert_eq!(dropped(), 3);
        assert_eq!(link.queue_depth.load(Ordering::Relaxed), 0);
        next_connection_carries(&mut net, 4);

        // Frames queued, then a dial attempt fails: the same.
        net.close(net.dests[&to].conn.expect("connected"));
        for k in 5..8 {
            net.send(to, &msg(k));
        }
        net.dialed(peer, None, Instant::now());
        assert_eq!(net.dests[&to].queue.frames(), 0);
        assert_eq!(dropped(), 6);
        next_connection_carries(&mut net, 8);
    }
}
