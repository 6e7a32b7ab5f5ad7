//! Traced-run instrumentation, all of it on the benchmark's side of the
//! public API: a `Process<NetMsg>` wrapper that times every callback into
//! the replica by message class, a `Storage` wrapper that times every call
//! into the WAL, and the in-memory span log both write to.
//!
//! A span is `(name, start, end, parent, key)`. A storage span's parent is
//! the replica callback that issued it, so a callback's *self* time is its
//! duration minus its storage children.

use crate::clock::Clock;
use iss_messages::{ClientMsg, NetMsg, PbftMsg, SbMsg};
use iss_runtime::{Addr, Context, Process};
use iss_storage::{Recovered, Snapshot, Storage, WalRecord};
use iss_telemetry::Histogram;
use iss_types::{MsgClass, Payload, Result, SeqNr, TimerId};
use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Callback classes: the eight message classes plus timers.
pub const CLASSES: usize = MsgClass::COUNT + 1;
/// Index of the timer class in per-class tables.
pub const TIMER_CLASS: usize = MsgClass::COUNT;

/// One request-class callback in this many is kept as a span (every other
/// class is kept in full): at 25k requests/s on four replicas, keeping them
/// all would be 100k spans per second.
const REQUEST_SPAN_SAMPLE: u64 = 64;

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The replica callback currently executing on this protocol thread
    /// (0 = none); storage spans take it as their parent.
    static CURRENT_CALLBACK: Cell<u64> = const { Cell::new(0) };
}

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub node: u32,
    pub start_us: u64,
    pub dur_ns: u64,
    /// Request key, sequence number or 0.
    pub key: u64,
}

/// Everything the wrappers of one replica recorded.
#[derive(Default)]
pub struct NodeTrace {
    pub busy_ns: [u64; CLASSES],
    pub calls: [u64; CLASSES],
    /// Callback durations in nanoseconds.
    pub callback_ns: Histogram,
    pub spans: Vec<Span>,
    pub append_ns: u64,
    pub appends: u64,
    pub prune_ns: u64,
    pub prunes: u64,
    pub snapshot_ns: u64,
    pub snapshots: u64,
    /// WAL bytes written, tallied at each prune and at the end.
    pub wal_bytes: u64,
}

pub type NodeTraceHandle = Arc<Mutex<NodeTrace>>;

fn class_label(class: usize) -> &'static str {
    match class {
        0 => "core.on_request",
        1 => "core.on_proposal",
        2 => "core.on_vote",
        3 => "core.on_checkpoint",
        4 => "core.on_state_transfer",
        5 => "core.on_handoff",
        6 => "core.on_response",
        7 => "core.on_other",
        _ => "core.on_timer",
    }
}

/// Correlation key of a message: the request key for a client request, the
/// sequence number for a PBFT message.
fn msg_key(msg: &NetMsg) -> u64 {
    match msg {
        NetMsg::Client(ClientMsg::Request(r)) => {
            iss_telemetry::request_key(u64::from(r.id.client.0), r.id.timestamp)
        }
        NetMsg::Sb {
            msg:
                SbMsg::Pbft(
                    PbftMsg::PrePrepare { seq_nr, .. }
                    | PbftMsg::Prepare { seq_nr, .. }
                    | PbftMsg::Commit { seq_nr, .. },
                ),
            ..
        } => *seq_nr,
        _ => 0,
    }
}

/// Times every callback into the wrapped replica.
pub struct TimedNode {
    inner: Box<dyn Process<NetMsg>>,
    node: u32,
    clock: Clock,
    trace: NodeTraceHandle,
    requests_seen: u64,
}

impl TimedNode {
    pub fn new(
        inner: Box<dyn Process<NetMsg>>,
        node: u32,
        clock: Clock,
        trace: NodeTraceHandle,
    ) -> Self {
        TimedNode {
            inner,
            node,
            clock,
            trace,
            requests_seen: 0,
        }
    }

    fn timed(&mut self, class: usize, key: u64, f: impl FnOnce(&mut dyn Process<NetMsg>)) {
        let keep_span = if class == MsgClass::Request as usize {
            self.requests_seen += 1;
            self.requests_seen.is_multiple_of(REQUEST_SPAN_SAMPLE)
        } else {
            true
        };
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let start_us = self.clock.now_us();
        CURRENT_CALLBACK.with(|c| c.set(id));
        let t = Instant::now();
        f(self.inner.as_mut());
        let dur_ns = t.elapsed().as_nanos() as u64;
        CURRENT_CALLBACK.with(|c| c.set(0));
        let mut trace = self.trace.lock().expect("trace lock poisoned");
        trace.busy_ns[class] += dur_ns;
        trace.calls[class] += 1;
        trace.callback_ns.record(dur_ns);
        if keep_span {
            trace.spans.push(Span {
                id,
                parent: 0,
                name: class_label(class),
                node: self.node,
                start_us,
                dur_ns,
                key,
            });
        }
    }
}

impl Process<NetMsg> for TimedNode {
    fn on_start(&mut self, ctx: &mut Context<'_, NetMsg>) {
        self.timed(TIMER_CLASS, 0, |p| p.on_start(ctx));
    }

    fn on_message(&mut self, from: Addr, msg: NetMsg, ctx: &mut Context<'_, NetMsg>) {
        let class = msg.class() as usize;
        let key = msg_key(&msg);
        self.timed(class, key, |p| p.on_message(from, msg, ctx));
    }

    fn on_timer(&mut self, id: TimerId, kind: u64, ctx: &mut Context<'_, NetMsg>) {
        self.timed(TIMER_CLASS, kind, |p| p.on_timer(id, kind, ctx));
    }
}

/// Times every call into the wrapped storage backend.
pub struct TimedStorage<S: Storage> {
    inner: S,
    node: u32,
    clock: Clock,
    trace: NodeTraceHandle,
    /// WAL size right after the last prune (bytes already tallied).
    tallied_base: Cell<u64>,
}

impl<S: Storage> TimedStorage<S> {
    pub fn new(inner: S, node: u32, clock: Clock, trace: NodeTraceHandle) -> Self {
        let tallied_base = Cell::new(inner.wal_bytes());
        TimedStorage {
            inner,
            node,
            clock,
            trace,
            tallied_base,
        }
    }

    fn timed<R>(
        &self,
        name: &'static str,
        key: u64,
        f: impl FnOnce(&S) -> R,
        tally: impl FnOnce(&mut NodeTrace, u64),
    ) -> R {
        let start_us = self.clock.now_us();
        let t = Instant::now();
        let out = f(&self.inner);
        let dur_ns = t.elapsed().as_nanos() as u64;
        let mut trace = self.trace.lock().expect("trace lock poisoned");
        tally(&mut trace, dur_ns);
        trace.spans.push(Span {
            id: NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed),
            parent: CURRENT_CALLBACK.with(Cell::get),
            name,
            node: self.node,
            start_us,
            dur_ns,
            key,
        });
        out
    }

    /// Adds the bytes appended since the last tally to the trace. Also runs
    /// in `drop`, so it must not panic: a poisoned trace loses this tally.
    fn tally_wal_growth(&self) {
        let size = self.inner.wal_bytes();
        if let Ok(mut trace) = self.trace.lock() {
            trace.wal_bytes += size.saturating_sub(self.tallied_base.get());
        }
        self.tallied_base.set(size);
    }
}

impl<S: Storage> Storage for TimedStorage<S> {
    fn append(&self, record: &WalRecord) -> Result<()> {
        self.timed(
            "storage.append",
            record.seq_nr(),
            |s| s.append(record),
            |t, ns| {
                t.append_ns += ns;
                t.appends += 1;
            },
        )
    }

    fn save_snapshot(&self, snapshot: &Snapshot) -> Result<()> {
        self.timed(
            "storage.save_snapshot",
            snapshot.max_seq_nr,
            |s| s.save_snapshot(snapshot),
            |t, ns| {
                t.snapshot_ns += ns;
                t.snapshots += 1;
            },
        )
    }

    fn prune_below(&self, below: SeqNr) -> Result<()> {
        self.tally_wal_growth();
        let out = self.timed(
            "storage.prune_below",
            below,
            |s| s.prune_below(below),
            |t, ns| {
                t.prune_ns += ns;
                t.prunes += 1;
            },
        );
        self.tallied_base.set(self.inner.wal_bytes());
        out
    }

    fn recover(&self) -> Result<Recovered> {
        self.inner.recover()
    }

    fn wal_bytes(&self) -> u64 {
        self.inner.wal_bytes()
    }
}

impl<S: Storage> Drop for TimedStorage<S> {
    fn drop(&mut self) {
        self.tally_wal_growth();
    }
}

/// Writes spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"node\":{},\"start_us\":{},\"dur_ns\":{},\"key\":{}}}",
            s.id, s.parent, s.name, s.node, s.start_us, s.dur_ns, s.key
        )?;
    }
    out.flush()
}
