//! The load generator: a `Process<NetMsg>` hosted on a `TcpRuntime` exactly
//! like the cluster's own clients, so requests and responses cross the same
//! sockets, framing and codec a real client's would.
//!
//! Routing and completion reuse the production client parts
//! (`iss_client::{LeaderTable, ResponseTracker}`); the open-loop schedule is
//! `iss_workload::OpenLoop`. Requests are built here rather than through
//! `iss_client::RequestFactory` because the factory only produces
//! *synthetic* requests (a declared `payload_size` with zero payload bytes):
//! over a socket that would move 24 bytes per request instead of 500.
//! Signing follows the factory line for line.

use crate::clock::Clock;
use iss_client::{LeaderTable, ResponseTracker};
use iss_crypto::{request_digest, KeyPair};
use iss_messages::{ClientMsg, NetMsg};
use iss_runtime::{Addr, Context, Process};
use iss_types::{ClientId, Duration, NodeId, Request, RequestId, Time, TimerId};
use iss_workload::{OpenLoop, Workload};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Generator tick. Open-loop requests fall due between ticks, so the tick
/// bounds how late a request can be sent; `client.gen_late_p99_ms` reports
/// what was actually achieved.
const TICK: Duration = Duration(1_000);

/// Delay between dialing every replica (a no-op frame per replica, sent at
/// start) and the first request: a replica answers a client over the
/// client's own inbound connection, so a response sent before that
/// connection exists is lost.
const CONNECT_GRACE: Duration = Duration(30_000);

/// Re-sends per tick after a bucket rotation. A rotation makes every
/// outstanding request stale at once; handing them to the transport in one
/// burst overflows the 4096-frame writer queues, which drop on full, and a
/// dropped request is not re-sent before the next rotation.
const RESEND_PER_TICK: usize = 64;

/// Re-sending starts this long after a bucket rotation is accepted, which
/// keeps re-sent requests out of each new leader's first proposal (one per
/// 125 ms). A replica that enters the epoch a few milliseconds after its
/// leader drops that proposal (README, finding 4), the slot resolves to ⊥
/// when the epoch ends, and its requests are re-sent at the next rotation:
/// sent at once they would be in a first proposal again.
const RESEND_DELAY_US: u64 = 200_000;

const KIND_BEGIN: u64 = 1;
const KIND_TICK: u64 = 2;

/// How requests are paced.
#[derive(Clone, Copy, Debug)]
pub enum LoadMode {
    /// Send on a fixed schedule regardless of completions; latency is timed
    /// from each request's due time.
    Open { total_rate: f64 },
    /// Keep this many requests outstanding per client identity; send the
    /// next when one completes. Latency is timed from the send.
    Closed { outstanding: usize },
}

/// One request's life, in microseconds on the shared [`Clock`].
#[derive(Clone, Copy, Debug)]
pub struct RequestRecord {
    /// When the request was due (open loop) or sent (closed loop).
    pub due_us: u64,
    /// When it was first handed to the transport.
    pub sent_us: u64,
    /// When the `f+1`-th matching response arrived; 0 while unconfirmed.
    pub done_us: u64,
}

/// State shared between one generator and the harness thread.
#[derive(Default)]
pub struct ClientShared {
    /// Re-sends after an accepted bucket rotation.
    pub retransmitted: AtomicU64,
    /// Clock time of the first confirmation; 0 until it happens.
    pub first_confirm_us: AtomicU64,
    /// No request due (open) or replacing a completion (closed) at or after
    /// this clock time is generated. `u64::MAX` until the harness ends the
    /// run: load keeps flowing while the window's last requests drain,
    /// because an idle ISS leader only fills its sequence numbers on the
    /// 4 s batch timeout and in-order delivery would hold the tail for it.
    pub stop_at_us: AtomicU64,
    /// End of the measured window; `u64::MAX` until the harness fixes it.
    pub window_end_us: AtomicU64,
    /// Requests due before `window_end_us` and not yet confirmed.
    pub pending_before_end: AtomicU64,
    /// Every request's record, indexed by request timestamp. Handed over
    /// when the generator is dropped (the runtime drops the process on its
    /// protocol thread at shutdown), so the hot path takes no lock.
    pub records: Mutex<Vec<RequestRecord>>,
}

impl ClientShared {
    pub fn new() -> Arc<Self> {
        let shared = ClientShared::default();
        shared.stop_at_us.store(u64::MAX, Ordering::Relaxed);
        shared.window_end_us.store(u64::MAX, Ordering::Relaxed);
        Arc::new(shared)
    }
}

/// Static configuration of one generator.
pub struct LoadGenConfig {
    pub client: ClientId,
    pub num_clients: usize,
    pub nodes: Vec<NodeId>,
    pub num_buckets: usize,
    /// `f + 1`.
    pub quorum: usize,
    pub sign: bool,
    pub payload_bytes: usize,
    pub seed: u64,
    pub mode: LoadMode,
    pub clock: Clock,
}

/// SplitMix64: the seeded stream behind payload bytes and schedule phases.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds request `timestamp` of `client`: `payload_bytes` seeded bytes,
/// signed with the client's key when `sign` is set.
pub fn make_request(
    client: ClientId,
    timestamp: u64,
    payload_bytes: usize,
    seed: u64,
    keypair: Option<&KeyPair>,
) -> Request {
    let mut state =
        seed ^ (u64::from(client.0) << 40) ^ timestamp.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    let mut payload = Vec::with_capacity(payload_bytes + 8);
    while payload.len() < payload_bytes {
        payload.extend_from_slice(&splitmix64(&mut state).to_le_bytes());
    }
    payload.truncate(payload_bytes);
    let req = Request::new(client, timestamp, payload);
    match keypair {
        Some(kp) => {
            let digest = request_digest(&req);
            let sig = kp.sign(&digest).to_vec();
            req.with_signature(sig)
        }
        None => req,
    }
}

struct Outstanding {
    request: Request,
    /// Announcement generation the request was last sent in.
    generation: u64,
}

/// The generator process.
pub struct LoadGen {
    cfg: LoadGenConfig,
    keypair: Option<KeyPair>,
    schedule: Option<OpenLoop>,
    leaders: LeaderTable,
    tracker: ResponseTracker,
    next_timestamp: u64,
    outstanding: HashMap<u64, Outstanding>,
    /// Timestamps waiting to be re-sent, oldest first.
    resend_queue: VecDeque<u64>,
    /// Clock time at which the requests stranded by the last accepted
    /// rotation are queued for re-sending.
    queue_stale_at_us: Option<u64>,
    records: Vec<RequestRecord>,
    shared: Arc<ClientShared>,
}

impl LoadGen {
    pub fn new(cfg: LoadGenConfig, shared: Arc<ClientShared>) -> Self {
        let keypair = cfg.sign.then(|| KeyPair::for_client(cfg.client));
        let leaders = LeaderTable::new(cfg.nodes.clone(), cfg.num_buckets, cfg.quorum);
        let tracker = ResponseTracker::new(cfg.quorum);
        LoadGen {
            cfg,
            keypair,
            schedule: None,
            leaders,
            tracker,
            next_timestamp: 0,
            outstanding: HashMap::new(),
            resend_queue: VecDeque::new(),
            queue_stale_at_us: None,
            records: Vec::with_capacity(1 << 16),
            shared,
        }
    }

    fn generation(&self) -> u64 {
        self.leaders.accepted_epoch().map_or(0, |e| e + 1)
    }

    fn submit(&mut self, due_us: u64, ctx: &mut Context<'_, NetMsg>) {
        let ts = self.next_timestamp;
        self.next_timestamp += 1;
        let request = make_request(
            self.cfg.client,
            ts,
            self.cfg.payload_bytes,
            self.cfg.seed,
            self.keypair.as_ref(),
        );
        let target = self.leaders.target_for(&request.id);
        let sent_us = self.cfg.clock.now_us();
        let due_us = due_us.min(sent_us);
        if due_us < self.shared.window_end_us.load(Ordering::Relaxed) {
            self.shared
                .pending_before_end
                .fetch_add(1, Ordering::Relaxed);
        }
        self.records.push(RequestRecord {
            due_us,
            sent_us,
            done_us: 0,
        });
        ctx.send(
            Addr::Node(target),
            NetMsg::Client(ClientMsg::Request(request.clone())),
        );
        self.outstanding.insert(
            ts,
            Outstanding {
                request,
                generation: self.generation(),
            },
        );
    }

    fn may_generate(&self, at_us: u64) -> bool {
        at_us < self.shared.stop_at_us.load(Ordering::Relaxed)
    }

    fn tick(&mut self, ctx: &mut Context<'_, NetMsg>) {
        let Some(schedule) = self.schedule else {
            return;
        };
        let now = Time(self.cfg.clock.now_us());
        let due = schedule.due_by(self.cfg.client, now);
        while self.next_timestamp < due {
            let due_us = schedule
                .submit_time(self.cfg.client, self.next_timestamp)
                .as_micros();
            if !self.may_generate(due_us) {
                return;
            }
            self.submit(due_us, ctx);
        }
    }

    /// Queues every outstanding request last sent under an older bucket
    /// assignment for re-sending, oldest first.
    fn queue_stale(&mut self) {
        let generation = self.generation();
        let mut stale: Vec<u64> = self
            .outstanding
            .iter()
            .filter(|(_, out)| out.generation < generation)
            .map(|(ts, _)| *ts)
            .collect();
        stale.sort_unstable();
        self.resend_queue = stale.into();
    }

    /// Re-sends up to [`RESEND_PER_TICK`] queued requests through the
    /// current bucket assignment.
    fn resend_some(&mut self, ctx: &mut Context<'_, NetMsg>) {
        if self
            .queue_stale_at_us
            .is_some_and(|at| self.cfg.clock.now_us() >= at)
        {
            self.queue_stale_at_us = None;
            self.queue_stale();
        }
        let generation = self.generation();
        let mut resent = 0;
        while resent < RESEND_PER_TICK {
            let Some(ts) = self.resend_queue.pop_front() else {
                break;
            };
            // Confirmed while it waited in the queue: nothing to do.
            let Some(out) = self.outstanding.get_mut(&ts) else {
                continue;
            };
            out.generation = generation;
            let target = self.leaders.target_for(&out.request.id);
            ctx.send(
                Addr::Node(target),
                NetMsg::Client(ClientMsg::Request(out.request.clone())),
            );
            resent += 1;
        }
        self.shared
            .retransmitted
            .fetch_add(resent as u64, Ordering::Relaxed);
    }

    fn on_confirmed(&mut self, request: RequestId, ctx: &mut Context<'_, NetMsg>) {
        let now_us = self.cfg.clock.now_us();
        self.outstanding.remove(&request.timestamp);
        if let Some(rec) = self.records.get_mut(request.timestamp as usize) {
            rec.done_us = now_us;
            // The window's end is fixed before any request at or past it can
            // be due, so this sees the same side of it `submit` saw.
            if rec.due_us < self.shared.window_end_us.load(Ordering::Relaxed) {
                self.shared
                    .pending_before_end
                    .fetch_sub(1, Ordering::Relaxed);
            }
        }
        if self.shared.first_confirm_us.load(Ordering::Relaxed) == 0 {
            self.shared
                .first_confirm_us
                .store(now_us, Ordering::Relaxed);
        }
        if matches!(self.cfg.mode, LoadMode::Closed { .. }) && self.may_generate(now_us) {
            self.submit(now_us, ctx);
        }
    }
}

impl Process<NetMsg> for LoadGen {
    fn on_start(&mut self, ctx: &mut Context<'_, NetMsg>) {
        // Dial every replica now: writers connect on first use, and the
        // replicas ignore an announcement that comes from a client.
        for node in self.cfg.nodes.clone() {
            ctx.send(
                Addr::Node(node),
                NetMsg::Client(ClientMsg::BucketLeaders {
                    epoch: 0,
                    leaders: Vec::new(),
                }),
            );
        }
        ctx.set_timer(CONNECT_GRACE, KIND_BEGIN);
    }

    fn on_message(&mut self, from: Addr, msg: NetMsg, ctx: &mut Context<'_, NetMsg>) {
        let (NetMsg::Client(msg), Some(node)) = (msg, from.as_node()) else {
            return;
        };
        match msg {
            ClientMsg::Response { request, seq_nr } => {
                if self.tracker.on_response(node, request, seq_nr).is_some() {
                    self.on_confirmed(request, ctx);
                }
            }
            ClientMsg::BucketLeaders { .. } => {
                // A rotated bucket strands what was sent to its old leader:
                // re-send it (Section 4.3), or it waits n epochs.
                if self.leaders.on_announcement(node, &msg) {
                    self.queue_stale_at_us = Some(self.cfg.clock.now_us() + RESEND_DELAY_US);
                }
            }
            ClientMsg::Request(_) => {}
        }
    }

    fn on_timer(&mut self, _id: TimerId, kind: u64, ctx: &mut Context<'_, NetMsg>) {
        match kind {
            KIND_BEGIN => match self.cfg.mode {
                LoadMode::Open { total_rate } => {
                    // Seeded phase per client, so identities do not fire in
                    // lockstep and the seed moves the schedule.
                    let mut state = self.cfg.seed ^ u64::from(self.cfg.client.0);
                    let interval_us = 1e6 * self.cfg.num_clients as f64 / total_rate;
                    let phase = (splitmix64(&mut state) as f64 / u64::MAX as f64) * interval_us;
                    let start = Time(self.cfg.clock.now_us() + phase as u64);
                    self.schedule = Some(OpenLoop::new(self.cfg.num_clients, total_rate, start));
                    ctx.set_timer(TICK, KIND_TICK);
                }
                LoadMode::Closed { outstanding } => {
                    for _ in 0..outstanding {
                        let now_us = self.cfg.clock.now_us();
                        self.submit(now_us, ctx);
                    }
                    ctx.set_timer(TICK, KIND_TICK);
                }
            },
            KIND_TICK => {
                ctx.set_timer(TICK, KIND_TICK);
                self.resend_some(ctx);
                self.tick(ctx);
            }
            _ => {}
        }
    }
}

impl Drop for LoadGen {
    fn drop(&mut self) {
        // A poisoned lock means the harness thread panicked while holding
        // it; the records are of no use to anyone then.
        if let Ok(mut records) = self.shared.records.lock() {
            *records = std::mem::take(&mut self.records);
        }
    }
}
