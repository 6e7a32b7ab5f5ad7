//! The threaded TCP runtime: hosts one sans-IO [`Process`] over real
//! sockets.
//!
//! # Thread layout
//!
//! One [`TcpRuntime`] runs one process (a replica or a client) and owns:
//!
//! * a **protocol thread** — the only thread that touches the process. It
//!   owns a [`SansIo`] driver and a monotonic-clock timer wheel, drains one
//!   mailbox, and executes handler callbacks strictly serially, so the
//!   process sees the same single-threaded world it sees under the
//!   simulator;
//! * an **acceptor thread** (replicas only) — accepts inbound connections,
//!   reads the hello frame identifying the dialer, hands the write half to
//!   the protocol thread and becomes the connection's reader;
//! * one **writer thread per dialed peer** — owns the outbound connection
//!   to that peer, dials lazily with exponential backoff, re-dials (and
//!   re-sends its hello) whenever a write fails. In a client it also spawns
//!   a reader on each fresh connection, since replicas answer clients over
//!   it; a replica's dialed connections carry nothing back (see the
//!   connection policy below). The peer's current socket address is re-read
//!   from the shared [`PeerTable`] on every dial, so a peer that restarts
//!   on a new port is found without reconfiguration.
//!
//! # Batching
//!
//! The wire format is a sequence of length-prefixed frames, one per
//! message; how many frames travel per syscall and per thread wake-up is
//! this module's business, and at every hop the answer is "all that are
//! there":
//!
//! * **Sending.** The protocol thread works in *bursts*: it keeps taking
//!   inputs while the mailbox has any, and every `Action::Send` is encoded
//!   straight into a buffer of whole frames kept per destination. A
//!   destination's buffer is *flushed* — handed to the peer's writer thread
//!   as one chunk (one channel send, one `write`), or written to a client's
//!   inbound socket with one `write_all` — when it passes [`FLUSH_BYTES`],
//!   when the burst has handled [`MAX_BURST`] messages, and always before
//!   the protocol thread blocks: the mailbox running dry ends the burst, so
//!   **no byte is ever held across a blocking wait** and an idle runtime
//!   adds no delay to a lone message.
//! * **Receiving.** A reader thread reads through a 64 KiB buffer
//!   ([`frame::FrameReader`]), decodes every complete frame one `read`
//!   returned and posts them as a single mailbox entry. The protocol thread
//!   handles the messages of an entry one by one, in order, exactly as if
//!   they had arrived separately (self-sends and due timers still run
//!   between any two of them).
//!
//! Per-destination FIFO order is kept end to end. A chunk whose write fails
//! is written again, whole, on the next connection, so the receiver may see
//! frames of its first part twice — the protocols discard duplicates, as
//! they must on any retransmitting transport.
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
//! `docs/architecture.md`.
//!
//! A reader holds a clone of the socket its connection's writer owns, so
//! dropping the writer's handle closes nothing: whoever gives a connection
//! up — a writer on a failed write or on exit, the protocol thread on exit
//! for its inbound connections — calls `shutdown(Both)`, which ends the
//! reader at either end.
//!
//! # Time
//!
//! `ctx.now()` is the monotonic-clock duration since the runtime started,
//! in microseconds — the same [`Time`] axis the simulator uses, anchored at
//! process boot instead of at global virtual zero. Timers are kept in a
//! `BinaryHeap` and fire when the monotonic clock passes their deadline;
//! cancellation stays O(1) through the driver's
//! [`iss_runtime::TimerSlab`] generation check, exactly as under the
//! simulator.

use crate::frame::{self, FrameReader};
use bytes::BytesMut;
use iss_messages::NetMsg;
use iss_runtime::{Action, Addr, Driver, Event, Process, SansIo};
use iss_types::{NodeId, Time, TimerId};
use std::cmp::Reverse;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, RwLock};
use std::thread::{self, JoinHandle};
use std::time::Instant;

/// Shared node-id → socket-address table.
///
/// Writer threads re-read it on every dial, so restarting a node on a fresh
/// port only requires updating the table — every peer's reconnect loop picks
/// the new address up on its next attempt.
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

/// Frames queued to one peer's writer thread beyond this bound are dropped:
/// a crashed or unreachable peer must not grow the sender's memory without
/// limit, and the protocols tolerate message loss by design (a recovering
/// replica catches up through the WAL / state-transfer path). The bound
/// counts frames, however they are grouped into chunks. Each drop is
/// counted in the peer's [`PeerStats`] and surfaced by a rate-limited
/// warning — loss is tolerated, but never silent.
const WRITER_QUEUE: u64 = 4096;

/// Emit a dropped-frame warning on the first drop to a peer and then once
/// every this many drops (a saturated writer queue drops frames in bursts;
/// per-frame logging would melt stderr exactly when the node is busiest).
const DROP_WARN_EVERY: u64 = 1024;

/// A destination's frame buffer is flushed as soon as it holds this many
/// bytes, burst or not: past a socket buffer's worth, waiting for more
/// saves no syscall and only delays the peer.
pub const FLUSH_BYTES: usize = 64 << 10;

/// A burst is cut (every buffer flushed) after this many network messages
/// even if the mailbox never runs dry, so a saturated node's votes wait for
/// at most this many callbacks, not for [`FLUSH_BYTES`] of votes.
pub const MAX_BURST: usize = 256;

/// Live statistics of one peer's outbound writer, shared between the
/// protocol thread (which enqueues), the writer thread (which drains and
/// writes) and any harness sampling them. All plain counters — no ordering
/// requirements beyond each counter being individually consistent, so
/// `Relaxed` throughout.
#[derive(Debug, Default)]
pub struct PeerStats {
    /// Frames currently queued to the writer thread.
    pub queue_depth: AtomicU64,
    /// Peak queue depth observed.
    pub max_queue_depth: AtomicU64,
    /// Frames dropped because the writer queue was full.
    pub dropped: AtomicU64,
    /// Successful dials (the first connect plus every reconnect).
    pub connects: AtomicU64,
    /// Frames successfully written to the socket.
    pub frames_sent: AtomicU64,
    /// Payload bytes successfully written to the socket (length prefixes
    /// not counted).
    pub bytes_sent: AtomicU64,
}

impl PeerStats {
    fn note_enqueued(&self, frames: u64) {
        let depth = self.queue_depth.fetch_add(frames, Ordering::Relaxed) + frames;
        self.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
    }

    fn note_dequeued(&self, frames: u64) {
        self.queue_depth.fetch_sub(frames, Ordering::Relaxed);
    }

    fn note_dropped(&self, peer: NodeId) {
        let drops = self.dropped.fetch_add(1, Ordering::Relaxed) + 1;
        if drops == 1 || drops.is_multiple_of(DROP_WARN_EVERY) {
            eprintln!("iss-net: writer queue to {peer:?} full, {drops} frame(s) dropped so far");
        }
    }
}

/// Live statistics of one [`TcpRuntime`]: mailbox depth plus one
/// [`PeerStats`] per dialed peer. Obtained from [`TcpHandle::stats`] and
/// safe to sample from any thread while the runtime runs.
#[derive(Debug, Default)]
pub struct NetStats {
    /// Messages (and connection hand-offs) currently queued to the protocol
    /// thread, however they are grouped into mailbox entries.
    pub mailbox_depth: AtomicU64,
    /// Peak mailbox depth observed.
    pub max_mailbox_depth: AtomicU64,
    /// Outbound writer statistics per dialed peer.
    pub peers: HashMap<NodeId, Arc<PeerStats>>,
}

/// The mailbox sender with depth accounting: every producer (acceptor,
/// readers, the handle) goes through [`MailboxTx::send`], the protocol
/// thread decrements after each receive, so `NetStats` always shows how far
/// the protocol thread has fallen behind its inputs.
#[derive(Clone)]
struct MailboxTx {
    tx: Sender<Input>,
    stats: Arc<NetStats>,
}

impl MailboxTx {
    /// Sends with depth accounting; the error (protocol thread gone — only
    /// during shutdown) carries no payload, every caller just stops.
    fn send(&self, input: Input) -> Result<(), ()> {
        let weight = input.weight();
        let depth = self
            .stats
            .mailbox_depth
            .fetch_add(weight, Ordering::Relaxed)
            + weight;
        self.stats
            .max_mailbox_depth
            .fetch_max(depth, Ordering::Relaxed);
        self.tx.send(input).map_err(|_| {
            self.stats
                .mailbox_depth
                .fetch_sub(weight, Ordering::Relaxed);
        })
    }
}

/// How long a dial-retry loop sleeps at most between attempts.
const MAX_BACKOFF_MS: u64 = 500;

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

/// Everything the protocol thread can receive.
enum Input {
    /// Every message one `read` of one connection completed, in wire order.
    Messages { from: Addr, msgs: Vec<NetMsg> },
    /// The write half of a fresh inbound connection, keyed by its hello.
    Inbound { from: Addr, stream: TcpStream },
    /// Stop the runtime.
    Shutdown,
}

impl Input {
    /// What the entry adds to [`NetStats::mailbox_depth`]: the gauge counts
    /// messages, so that it means the same whatever the readers' batching.
    fn weight(&self) -> u64 {
        match self {
            Input::Messages { msgs, .. } => msgs.len() as u64,
            Input::Inbound { .. } | Input::Shutdown => 1,
        }
    }
}

/// Handle to a running [`TcpRuntime`]; dropping it without calling
/// [`TcpHandle::shutdown`] detaches the runtime's threads.
pub struct TcpHandle {
    mailbox: MailboxTx,
    stop: Arc<AtomicBool>,
    listen: Option<SocketAddr>,
    thread: Option<JoinHandle<()>>,
    stats: Arc<NetStats>,
}

impl TcpHandle {
    /// Live transport statistics of this runtime (mailbox depth, per-peer
    /// writer queues/drops/reconnects). Safe to sample from any thread.
    pub fn stats(&self) -> Arc<NetStats> {
        Arc::clone(&self.stats)
    }

    /// Stops the runtime: the protocol thread flushes what it has buffered,
    /// drops the hosted process (flushing any durable storage it holds) and
    /// shuts its inbound connections down, the acceptor is woken and exits,
    /// each writer thread shuts its connection down as its channel closes,
    /// and the readers at both ends of every connection end with them.
    /// Blocks until the protocol thread has terminated, so a caller that
    /// restarts the process immediately afterwards observes fully-persisted
    /// state.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.mailbox.send(Input::Shutdown);
        if let Some(listen) = self.listen {
            // Wake the acceptor blocked in accept().
            let _ = TcpStream::connect(listen);
        }
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The threaded TCP runtime (see the module docs for the thread layout).
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
        let hello = frame::encode_hello(cfg.addr);
        let (mailbox_tx, mailbox_rx) = mpsc::channel::<Input>();
        let stop = Arc::new(AtomicBool::new(false));
        let listen = listener.as_ref().map(|l| l.local_addr()).transpose()?;

        let mut stats = NetStats::default();
        for peer in &cfg.dial {
            stats.peers.insert(*peer, Arc::new(PeerStats::default()));
        }
        let stats = Arc::new(stats);
        let mailbox = MailboxTx {
            tx: mailbox_tx,
            stats: Arc::clone(&stats),
        };

        if let Some(listener) = listener {
            let tx = mailbox.clone();
            let stop = Arc::clone(&stop);
            thread::spawn(move || acceptor_loop(listener, tx, stop));
        }

        // One writer per dialed peer, created up front; the writer dials on
        // first use and re-dials on failure. Only a client reads what comes
        // back: a replica never writes on an inbound replica connection.
        let read_back = matches!(cfg.addr, Addr::Client(_));
        let mut outbox = Outbox::default();
        for peer in &cfg.dial {
            // Unbounded channel, bounded use: `Outbox::send` admits a frame
            // only while the peer's `queue_depth` is below `WRITER_QUEUE`.
            let (tx, rx) = mpsc::channel::<Chunk>();
            let peers = Arc::clone(&cfg.peers);
            let mailbox = read_back.then(|| mailbox.clone());
            let stop = Arc::clone(&stop);
            let hello = hello.clone();
            let peer = *peer;
            let peer_stats = Arc::clone(&stats.peers[&peer]);
            let writer_stats = Arc::clone(&peer_stats);
            thread::spawn(move || writer_loop(peer, peers, hello, rx, mailbox, stop, writer_stats));
            outbox.peers.insert(
                peer,
                PeerOut {
                    tx,
                    stats: peer_stats,
                    buf: BytesMut::new(),
                    frames: 0,
                },
            );
        }

        let run_stats = Arc::clone(&stats);
        let thread = thread::Builder::new()
            .name(format!("proto-{:?}", cfg.addr))
            .spawn(move || protocol_loop(cfg, builder, mailbox_rx, outbox, run_stats))?;

        Ok(TcpHandle {
            mailbox,
            stop,
            listen,
            thread: Some(thread),
            stats,
        })
    }
}

/// Whole frames for one peer, written with one `write`.
struct Chunk {
    bytes: Vec<u8>,
    frames: u64,
}

/// The protocol thread's side of one dialed peer: the channel to its writer
/// thread and the frames encoded for it since the last flush.
struct PeerOut {
    tx: Sender<Chunk>,
    stats: Arc<PeerStats>,
    buf: BytesMut,
    frames: u64,
}

impl PeerOut {
    /// Hands the buffered frames to the writer thread as one chunk.
    fn flush(&mut self) {
        if self.frames == 0 {
            return;
        }
        let chunk = Chunk {
            bytes: std::mem::take(&mut self.buf).into(),
            frames: std::mem::take(&mut self.frames),
        };
        // Count the frames in *before* the send: the writer thread may drain
        // (and decrement) them the instant `send` returns, and the depth
        // counter must never dip below zero.
        self.stats.note_enqueued(chunk.frames);
        if let Err(mpsc::SendError(chunk)) = self.tx.send(chunk) {
            // Shutdown path: the writer thread is gone.
            self.stats.note_dequeued(chunk.frames);
        }
    }
}

/// The write half of an inbound connection (a client, which never listens)
/// and the frames encoded for it since the last flush.
struct InboundOut {
    stream: TcpStream,
    buf: BytesMut,
}

impl InboundOut {
    /// Writes the buffered frames with one `write_all`. After an error the
    /// connection is of no more use.
    fn flush(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let written = self.stream.write_all(&self.buf);
        self.buf.clear();
        written
    }
}

/// Where the protocol thread's sends go: one frame buffer per destination,
/// flushed by the rules in the module docs.
#[derive(Default)]
struct Outbox {
    peers: HashMap<NodeId, PeerOut>,
    inbound: HashMap<Addr, InboundOut>,
}

impl Outbox {
    /// Encodes `msg` behind whatever is already buffered for `to`.
    fn send(&mut self, to: Addr, msg: &NetMsg) {
        // Only simulator-only message kinds fail to encode; reaching this is
        // a deployment bug (e.g. booting a Mir-mode node over TCP), not a
        // runtime state.
        let encode = |buf: &mut BytesMut| {
            if let Err(e) = frame::encode_frame(msg, buf) {
                panic!("unencodable message to {to:?}: {e}");
            }
        };
        match to {
            Addr::Node(n) => {
                let Some(peer) = self.peers.get_mut(&n) else {
                    return;
                };
                // Only this thread adds to the depth, so the check cannot be
                // overtaken; the writer draining meanwhile only makes room.
                if peer.stats.queue_depth.load(Ordering::Relaxed) + peer.frames >= WRITER_QUEUE {
                    peer.stats.note_dropped(n);
                    return;
                }
                encode(&mut peer.buf);
                peer.frames += 1;
                if peer.buf.len() >= FLUSH_BYTES {
                    peer.flush();
                }
            }
            // Clients never listen: answer over their inbound connection. A
            // vanished client just loses the frame.
            Addr::Client(_) => {
                let Some(conn) = self.inbound.get_mut(&to) else {
                    return;
                };
                encode(&mut conn.buf);
                if conn.buf.len() >= FLUSH_BYTES && conn.flush().is_err() {
                    self.inbound.remove(&to);
                }
            }
        }
    }

    /// Ends a burst: every destination's buffer leaves. An inbound
    /// connection that fails is forgotten.
    fn flush(&mut self) {
        for peer in self.peers.values_mut() {
            peer.flush();
        }
        self.inbound.retain(|_, conn| conn.flush().is_ok());
    }
}

/// The protocol thread's state: the single place the hosted process
/// executes.
struct Protocol {
    addr: Addr,
    start: Instant,
    driver: SansIo<NetMsg>,
    /// Min-heap of (deadline µs, insertion seq, handle, kind). The insertion
    /// sequence keeps equal-deadline timers FIFO, matching the simulator's
    /// same-time submission order.
    timers: BinaryHeapWheel,
    out: Outbox,
    /// Self-addressed sends loop straight back as the next events, ahead of
    /// anything the network delivers — same as the simulator's zero-latency
    /// local delivery being scheduled before later arrivals.
    selfq: VecDeque<NetMsg>,
    actions: Vec<Action<NetMsg>>,
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
                Action::Send { to, msg } => self.out.send(to, &msg),
            }
        }
    }

    /// Self-sends first, then due timers, until neither is left: what runs
    /// ahead of the next network message.
    fn run_local(&mut self) {
        loop {
            while let Some(msg) = self.selfq.pop_front() {
                let from = self.addr;
                self.handle(Event::Message { from, msg });
            }
            while let Some((id, kind)) = self.timers.pop_due(self.now()) {
                self.handle(Event::Timer { id, kind });
            }
            if self.selfq.is_empty() {
                return;
            }
        }
    }
}

/// The protocol thread (see the module docs for bursts and the flush rule).
fn protocol_loop(
    cfg: TcpConfig,
    builder: ProcessBuilder,
    mailbox: Receiver<Input>,
    out: Outbox,
    stats: Arc<NetStats>,
) {
    let mut driver: SansIo<NetMsg> = SansIo::new(cfg.seed);
    driver.mount(cfg.addr, builder());
    let mut p = Protocol {
        addr: cfg.addr,
        start: Instant::now(),
        driver,
        timers: BinaryHeapWheel::new(),
        out,
        selfq: VecDeque::new(),
        actions: Vec::new(),
    };
    p.handle(Event::Start);

    // Network messages handled since the last full flush.
    let mut burst = 0;
    loop {
        p.run_local();
        let input = match mailbox.try_recv() {
            Ok(input) => input,
            Err(TryRecvError::Disconnected) => break,
            // The mailbox ran dry: the burst ends, and nothing stays
            // buffered while this thread sleeps.
            Err(TryRecvError::Empty) => {
                p.out.flush();
                burst = 0;
                match mailbox.recv_timeout(p.timers.until_next(p.now())) {
                    Ok(input) => input,
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
        };
        stats
            .mailbox_depth
            .fetch_sub(input.weight(), Ordering::Relaxed);
        match input {
            Input::Messages { from, msgs } => {
                for msg in msgs {
                    p.handle(Event::Message { from, msg });
                    p.run_local();
                    burst += 1;
                    if burst >= MAX_BURST {
                        p.out.flush();
                        burst = 0;
                    }
                }
            }
            Input::Inbound { from, stream } => {
                let buf = BytesMut::new();
                p.out.inbound.insert(from, InboundOut { stream, buf });
            }
            Input::Shutdown => break,
        }
    }
    p.out.flush();
    // The readers of the inbound connections hold clones of these sockets:
    // only an explicit shutdown ends them (and a dialing client's reader at
    // the other end).
    for conn in p.out.inbound.values() {
        let _ = conn.stream.shutdown(Shutdown::Both);
    }
    // On return `p` drops here, on the protocol thread: the driver (and with
    // it the process and its storage handle), and the writers' senders,
    // which ends the writer threads.
}

/// Min-heap timer wheel on the monotonic clock.
struct BinaryHeapWheel {
    heap: std::collections::BinaryHeap<Reverse<(u64, u64, u64, u64)>>,
    seq: u64,
}

impl BinaryHeapWheel {
    fn new() -> Self {
        BinaryHeapWheel {
            heap: std::collections::BinaryHeap::new(),
            seq: 0,
        }
    }

    fn push(&mut self, deadline_us: u64, id: TimerId, kind: u64) {
        self.heap.push(Reverse((deadline_us, self.seq, id.0, kind)));
        self.seq += 1;
    }

    /// Pops the next timer whose deadline has passed. Stale handles are
    /// filtered later by the driver's generation check, not here.
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
    fn until_next(&self, now: Time) -> std::time::Duration {
        match self.heap.peek() {
            Some(&Reverse((deadline, ..))) => {
                std::time::Duration::from_micros(deadline.saturating_sub(now.0))
            }
            // No timer armed: wake periodically anyway, purely defensively.
            None => std::time::Duration::from_millis(100),
        }
    }
}

/// Accepts inbound connections; each gets a thread that reads the hello,
/// registers the write half with the protocol thread and then reads frames
/// until the connection dies.
fn acceptor_loop(listener: TcpListener, mailbox: MailboxTx, stop: Arc<AtomicBool>) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = conn else { continue };
        let mailbox = mailbox.clone();
        thread::spawn(move || {
            let _ = stream.set_nodelay(true);
            let mut reader = stream;
            // Bound the hello wait so a connection that never identifies
            // itself cannot hold this thread forever.
            let _ = reader.set_read_timeout(Some(std::time::Duration::from_secs(5)));
            let Ok(hello) = frame::read_frame(&mut reader) else {
                return;
            };
            let Ok(from) = frame::decode_hello(&hello) else {
                return;
            };
            let _ = reader.set_read_timeout(None);
            if let Ok(write_half) = reader.try_clone() {
                if mailbox
                    .send(Input::Inbound {
                        from,
                        stream: write_half,
                    })
                    .is_err()
                {
                    return;
                }
            }
            reader_loop(reader, from, mailbox);
        });
    }
}

/// Decodes one connection's frames into the mailbox, one entry per `read`:
/// every frame the read completed, in wire order. Exits when the socket or
/// the mailbox closes, or on the first malformed frame (a peer speaking
/// garbage gets its connection dropped, not interpreted).
fn reader_loop(stream: TcpStream, from: Addr, mailbox: MailboxTx) {
    let mut frames = FrameReader::new(stream);
    loop {
        if frames.fill().is_err() {
            return;
        }
        let mut msgs = Vec::new();
        loop {
            match frames.next_frame() {
                Ok(Some(payload)) => match frame::decode_frame(payload) {
                    Ok(msg) => msgs.push(msg),
                    Err(_) => return,
                },
                Ok(None) => break,
                Err(_) => return,
            }
        }
        if !msgs.is_empty() && mailbox.send(Input::Messages { from, msgs }).is_err() {
            return;
        }
    }
}

/// Owns the outbound connection to one peer: dials lazily (with exponential
/// backoff), writes each chunk with one `write`, and re-dials whenever a
/// write fails — the chunk being written when the connection died is
/// written again, whole, on the new connection; frames the protocol thread
/// finds no room for in the queue are dropped there instead. With a
/// `mailbox`, each connection also gets a reader for what the peer writes
/// back.
fn writer_loop(
    peer: NodeId,
    peers: PeerTable,
    hello: Vec<u8>,
    rx: Receiver<Chunk>,
    mailbox: Option<MailboxTx>,
    stop: Arc<AtomicBool>,
    stats: Arc<PeerStats>,
) {
    let mut conn: Option<TcpStream> = None;
    let mut backoff = 10u64;
    'chunks: for chunk in rx.iter() {
        stats.note_dequeued(chunk.frames);
        while !stop.load(Ordering::SeqCst) {
            let Some(stream) = &mut conn else {
                conn = dial(peer, &peers, &hello, mailbox.as_ref());
                if conn.is_some() {
                    backoff = 10;
                    stats.connects.fetch_add(1, Ordering::Relaxed);
                } else {
                    thread::sleep(std::time::Duration::from_millis(backoff));
                    backoff = (backoff * 2).min(MAX_BACKOFF_MS);
                }
                continue;
            };
            if stream.write_all(&chunk.bytes).is_ok() {
                stats.frames_sent.fetch_add(chunk.frames, Ordering::Relaxed);
                let payload = chunk.bytes.len() as u64 - frame::PREFIX as u64 * chunk.frames;
                stats.bytes_sent.fetch_add(payload, Ordering::Relaxed);
                continue 'chunks;
            }
            close(&mut conn);
        }
        break;
    }
    close(&mut conn);
}

/// One attempt at a connection to `peer`: its address re-read from the peer
/// table, the hello sent, and, given a `mailbox`, a reader spawned for
/// whatever the peer writes back.
fn dial(
    peer: NodeId,
    peers: &PeerTable,
    hello: &[u8],
    mailbox: Option<&MailboxTx>,
) -> Option<TcpStream> {
    let target = peers.read().ok()?.get(&peer).copied()?;
    let mut stream = TcpStream::connect(target).ok()?;
    let _ = stream.set_nodelay(true);
    frame::write_frame(&mut stream, hello).ok()?;
    if let (Some(mailbox), Ok(read_half)) = (mailbox, stream.try_clone()) {
        let mailbox = mailbox.clone();
        thread::spawn(move || reader_loop(read_half, Addr::Node(peer), mailbox));
    }
    Some(stream)
}

/// Gives a dialed connection up. Dropping the handle alone would leave the
/// socket open under the reader's clone, and both ends' readers blocked on
/// it for good.
fn close(conn: &mut Option<TcpStream>) {
    if let Some(stream) = conn.take() {
        let _ = stream.shutdown(Shutdown::Both);
    }
}
