//! The three loopback-TCP workloads: boot a 4-replica ISS-PBFT cluster on
//! 127.0.0.1, load it, measure from outside, check the outputs.

use crate::checks;
use crate::clock::Clock;
use crate::cluster::{BenchCluster, ClusterSpec, NodeLog, NUM_CLIENTS};
use crate::loadgen::{LoadMode, RequestRecord};
use crate::metrics::{median, quantile, Outcome};
use crate::procstat::{self, CpuTime, ThreadCpu, ThreadRole};
use crate::scratch::ScratchDir;
use crate::trace::{self, NodeTrace, TIMER_CLASS};
use iss_storage::{FileStorage, Storage};
use iss_telemetry::{Phase, TelemetrySnapshot};
use iss_types::{MsgClass, NodeId};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

pub const NUM_NODES: usize = 4;

/// How many times the cluster is set up per run; `setup_s` is the median.
const SETUP_REPS: usize = 5;
/// Load runs this long before the measured window opens.
const WARMUP: Duration = Duration::from_secs(3);
/// After the window closes, its unconfirmed requests get at most this long.
/// They need a fraction of a second, or on the crash workload the ~3 s to
/// the next bucket rotation. The cap is for the wedged epoch of finding 4:
/// in-order delivery then waits for the epoch's end, and a request of the
/// wedged batch for the end of the epoch after it, 12.5 s each.
const DRAIN: Duration = Duration::from_secs(60);
/// The crash workload stops replica 0 this long after the survivors enter
/// epoch [`CRASH_EPOCH`], and restarts it this long after the stop.
/// Anchoring the fault to an epoch boundary instead of to the wall clock
/// fixes how much of the epoch is left to wait out, which is what sets the
/// latency tail.
const KILL_AFTER_EPOCH_START: Duration = Duration::from_secs(1);
const DOWN_FOR: Duration = Duration::from_secs(4);
/// Epoch 2 starts ~13.5 s into a 20 s window, so the stop (+14.5 s), the
/// 2 s view change and the restart (+18.5 s) are inside the window and the
/// first epoch change after the restart (~+22 s) is not. That epoch change
/// is where one run in sixteen wedges (finding 4); a wedge inside the window
/// takes a third off `throughput_rps`, which with an early crash made the
/// metric two-valued.
const CRASH_EPOCH: u64 = 2;
/// The crash schedule does not fit a shorter window. A shorter `--seconds`
/// (a `--quick` smoke run) is raised to this.
const MIN_CRASH_WINDOW_S: f64 = 20.0;
/// After the drain the restarted replica gets this long to finish its
/// catch-up (it does at the next epoch change) and deliver a fresh request.
const VICTIM_CATCH_UP: Duration = Duration::from_secs(30);
const VICTIM: NodeId = NodeId(0);
/// The replica whose sink supplies per-cluster counts (batches, epochs); it
/// is never the victim.
const OBSERVER: NodeId = NodeId(1);

/// One TCP workload.
#[derive(Clone, Copy, Debug)]
pub struct TcpWorkload {
    pub name: &'static str,
    pub signed: bool,
    pub wal: bool,
    pub mode: LoadMode,
    pub crash: bool,
}

pub const SIGNED_CLOSED: TcpWorkload = TcpWorkload {
    name: "tcp_signed_closed",
    signed: true,
    wal: false,
    mode: LoadMode::Closed { outstanding: 4096 },
    crash: false,
};

pub const WAL_OPEN: TcpWorkload = TcpWorkload {
    name: "tcp_wal_open",
    signed: false,
    wal: true,
    mode: LoadMode::Open {
        total_rate: 10_000.0,
    },
    crash: false,
};

pub const CRASH_OPEN: TcpWorkload = TcpWorkload {
    name: "tcp_crash_open",
    signed: false,
    wal: true,
    mode: LoadMode::Open {
        total_rate: 5_000.0,
    },
    crash: true,
};

/// What one measured window produced, before it is turned into metrics.
pub struct WindowResult {
    pub seconds: f64,
    pub client: ClientSide,
    pub retransmitted: u64,
    pub cpu: CpuTime,
    pub threads: std::collections::HashMap<ThreadRole, CpuTime>,
    pub thread_count: u64,
    pub frames: u64,
    pub bytes: u64,
    pub mailbox_depth_max: u64,
    pub writer_depth_max: u64,
    pub writer_drops: u64,
    pub connects: u64,
    pub batches: u64,
    pub batch_requests: u64,
    pub empty_entries: u64,
    pub epochs: u64,
    pub requests_rejected: u64,
    pub recovery_catchup_ms: f64,
    pub wal_entries_replayed: u64,
    pub storage_recover_ms: f64,
    pub traces: Vec<NodeTrace>,
    pub telemetry: Option<TelemetrySnapshot>,
    pub failed_checks: Vec<String>,
    /// Crash workload: when the fault schedule's events happened.
    pub timeline: Option<String>,
}

fn sleep_until(clock: Clock, at_us: u64) {
    let now = clock.now_us();
    if at_us > now {
        std::thread::sleep(Duration::from_micros(at_us - now));
    }
}

/// Polls `done` every millisecond until it holds or `timeout` passes.
fn wait_for(timeout: Duration, mut done: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < timeout {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    done()
}

fn spec_for(w: &TcpWorkload, seed: u64, traced: bool, dir: &ScratchDir, tag: &str) -> ClusterSpec {
    ClusterSpec {
        num_nodes: NUM_NODES,
        signed: w.signed,
        storage_root: w.wal.then(|| dir.path().join(tag)),
        seed,
        mode: w.mode,
        traced,
    }
}

/// Boots a cluster and waits for the first client-confirmed commit; returns
/// the cluster and how long that took.
fn set_up(spec: ClusterSpec, clock: Clock) -> Result<(BenchCluster, f64), String> {
    let t = Instant::now();
    let cluster = BenchCluster::launch(spec, clock).map_err(|e| format!("cluster boot: {e}"))?;
    let confirmed = wait_for(Duration::from_secs(20), || {
        cluster
            .client_shared
            .iter()
            .any(|c| c.first_confirm_us.load(Ordering::Relaxed) != 0)
    });
    if !confirmed {
        return Err("no client-confirmed commit within 20 s of boot".into());
    }
    Ok((cluster, t.elapsed().as_secs_f64()))
}

/// Median set-up time over [`SETUP_REPS`] boots; the last cluster is kept
/// and returned for the measured window.
fn set_up_repeatedly(
    w: &TcpWorkload,
    seed: u64,
    dir: &ScratchDir,
    clock: Clock,
) -> Result<(BenchCluster, f64), String> {
    let mut samples = Vec::with_capacity(SETUP_REPS);
    for rep in 1..SETUP_REPS {
        // The cluster is shut down and joined as it drops here.
        let (_, secs) = set_up(
            spec_for(w, seed, false, dir, &format!("setup-{rep}")),
            clock,
        )?;
        samples.push(secs);
    }
    let (cluster, secs) = set_up(spec_for(w, seed, false, dir, "measured"), clock)?;
    samples.push(secs);
    Ok((cluster, median(&samples)))
}

/// What the generators' records say about the window `[w0, w1)`.
pub struct ClientSide {
    /// Requests due inside the window.
    pub submitted: u64,
    /// Of those, never confirmed.
    pub failed: u64,
    /// Confirmations that arrived inside the window.
    pub confirmed_in_window: u64,
    /// Latencies of requests due in the window, ascending, µs.
    pub latencies_us: Vec<u64>,
    /// How late each request left the generator, ascending, µs.
    pub lateness_us: Vec<u64>,
    /// Longest interval between consecutive confirmations in the window.
    pub longest_gap_us: u64,
}

impl ClientSide {
    fn from_records(per_client: &[Vec<RequestRecord>], w0: u64, w1: u64) -> Self {
        let in_window = |t: u64| t >= w0 && t < w1;
        let mut latencies_us = Vec::new();
        let mut lateness_us = Vec::new();
        let (mut submitted, mut failed) = (0u64, 0u64);
        let mut confirm_times = Vec::new();
        for r in per_client.iter().flatten() {
            if in_window(r.due_us) {
                submitted += 1;
                lateness_us.push(r.sent_us - r.due_us);
                if r.done_us == 0 {
                    failed += 1;
                } else {
                    latencies_us.push(r.done_us - r.due_us);
                }
            }
            if r.done_us != 0 && in_window(r.done_us) {
                confirm_times.push(r.done_us);
            }
        }
        latencies_us.sort_unstable();
        lateness_us.sort_unstable();
        confirm_times.sort_unstable();
        let mut longest_gap_us = 0;
        let mut prev = w0;
        for t in confirm_times.iter().copied().chain([w1]) {
            longest_gap_us = longest_gap_us.max(t - prev);
            prev = t;
        }
        ClientSide {
            submitted,
            failed,
            confirmed_in_window: confirm_times.len() as u64,
            latencies_us,
            lateness_us,
            longest_gap_us,
        }
    }
}

/// Runs warm-up, the measured window and the drain on a booted cluster,
/// then shuts it down and checks its outputs.
pub fn measure(
    w: &TcpWorkload,
    mut cluster: BenchCluster,
    clock: Clock,
    warmup: Duration,
    seconds: f64,
) -> WindowResult {
    let seconds = if w.crash {
        seconds.max(MIN_CRASH_WINDOW_S)
    } else {
        seconds
    };
    std::thread::sleep(warmup);
    let w0 = clock.now_us();
    let w1 = w0 + (seconds * 1e6) as u64;
    for c in &cluster.client_shared {
        c.window_end_us.store(w1, Ordering::Relaxed);
    }
    let cpu0 = procstat::process_cpu();
    let threads0 = ThreadCpu::sample();

    // The window closes at `w1` wherever the fault schedule stands then.
    let close_window = || {
        sleep_until(clock, w1);
        (
            procstat::process_cpu(),
            ThreadCpu::sample(),
            procstat::thread_count(),
        )
    };
    let mut closed = None;
    let mut failed_checks = Vec::new();
    let mut fault_us = None;
    if w.crash {
        // A survivor entering the epoch anchors the fault schedule.
        let witness = &cluster.probes[OBSERVER.index()];
        let entered = wait_for(Duration::from_micros(w1 - w0), || {
            let log = witness.log.lock().expect("node log lock poisoned");
            log.epochs.iter().any(|(e, _)| *e >= CRASH_EPOCH)
        });
        if entered {
            std::thread::sleep(KILL_AFTER_EPOCH_START);
            let kill = clock.now_us();
            cluster.kill_node(VICTIM);
            let restart = kill + DOWN_FOR.as_micros() as u64;
            if restart > w1 {
                closed = Some(close_window());
            }
            sleep_until(clock, restart);
            cluster.probes[VICTIM.index()]
                .mark
                .store(true, Ordering::Relaxed);
            fault_us = Some((kill, clock.now_us()));
            if let Err(e) = cluster.restart_node(VICTIM) {
                failed_checks.push(format!("victim restart: {e}"));
            }
        } else {
            failed_checks.push(format!(
                "no change to epoch {CRASH_EPOCH} inside the window to anchor the crash"
            ));
        }
    }
    let (cpu1, threads1, thread_count) = closed.unwrap_or_else(close_window);

    // Drain: every request due inside the window gets a bounded time to
    // confirm, with load still flowing (see `ClientShared::stop_at_us`).
    wait_for(DRAIN, || {
        cluster
            .client_shared
            .iter()
            .all(|c| c.pending_before_end.load(Ordering::Relaxed) == 0)
    });
    let drained_us = clock.now_us() - w1;
    if fault_us.is_some() {
        let victim = &cluster.probes[VICTIM.index()];
        wait_for(VICTIM_CATCH_UP, || {
            let log = victim.log.lock().expect("node log lock poisoned");
            log.recovery_completed.is_some() && log.delivered_after_mark > 0
        });
    }
    let stop = clock.now_us();
    for c in &cluster.client_shared {
        c.stop_at_us.store(stop, Ordering::Relaxed);
    }

    // A client is answered by the fastest `f+1` replicas; give the others a
    // moment to deliver the same prefix before the logs are compared.
    let delivered_counts = |cluster: &BenchCluster| -> Vec<usize> {
        cluster
            .probes
            .iter()
            .enumerate()
            .filter(|(i, _)| !(w.crash && *i == VICTIM.index()))
            .map(|(_, p)| {
                p.log
                    .lock()
                    .expect("node log lock poisoned")
                    .delivered
                    .len()
            })
            .collect()
    };
    let mut last = delivered_counts(&cluster);
    wait_for(Duration::from_secs(3), || {
        std::thread::sleep(Duration::from_millis(20));
        let now = delivered_counts(&cluster);
        let settled = now == last && now.iter().all(|c| *c == now[0]);
        last = now;
        settled
    });

    // Transport counters (taken before the sockets go away).
    let (node_stats, client_stats) = cluster.net_stats();
    let (mut frames, mut bytes, mut writer_depth_max, mut writer_drops, mut connects) =
        (0, 0, 0, 0, 0);
    let mut mailbox_depth_max = 0;
    for s in node_stats.iter().chain(&client_stats) {
        for p in s.peers.values() {
            frames += p.frames_sent.load(Ordering::Relaxed);
            bytes += p.bytes_sent.load(Ordering::Relaxed);
            writer_depth_max = writer_depth_max.max(p.max_queue_depth.load(Ordering::Relaxed));
            writer_drops += p.dropped.load(Ordering::Relaxed);
            connects += p.connects.load(Ordering::Relaxed);
        }
    }
    for s in &node_stats {
        mailbox_depth_max = mailbox_depth_max.max(s.max_mailbox_depth.load(Ordering::Relaxed));
    }

    cluster.shutdown();

    // Client side.
    let per_client: Vec<Vec<RequestRecord>> = cluster
        .client_shared
        .iter()
        .map(|c| std::mem::take(&mut *c.records.lock().expect("records lock poisoned")))
        .collect();
    let client = ClientSide::from_records(&per_client, w0, w1);
    let retransmitted = cluster
        .client_shared
        .iter()
        .map(|c| c.retransmitted.load(Ordering::Relaxed))
        .sum();

    // Replica side.
    let logs: Vec<_> = cluster
        .probes
        .iter()
        .map(|p| std::mem::take(&mut *p.log.lock().expect("node log lock poisoned")))
        .collect();
    failed_checks.extend(checks::check_tcp_outputs(
        &logs,
        &per_client,
        w.crash.then_some(VICTIM),
    ));
    let observer = &logs[OBSERVER.index().min(logs.len() - 1)];
    let mut recovery_catchup_ms = 0.0;
    let mut wal_entries_replayed = 0;
    let mut storage_recover_ms = 0.0;
    if w.crash {
        let victim = &logs[VICTIM.index()];
        match (fault_us, victim.recovery_completed) {
            (Some((_, restart)), Some((done, replayed, _chunks))) => {
                recovery_catchup_ms = done.saturating_sub(restart) as f64 / 1e3;
                wal_entries_replayed = replayed;
            }
            _ => failed_checks.push("victim never completed recovery".into()),
        }
        if victim.delivered_after_mark == 0 {
            failed_checks.push("victim delivered nothing after its restart".into());
        }
        if let Some(root) = cluster.storage_root() {
            let t = Instant::now();
            let recovered = FileStorage::open(root.join(format!("node-{}", VICTIM.0)))
                .and_then(|s| s.recover());
            storage_recover_ms = t.elapsed().as_secs_f64() * 1e3;
            if let Err(e) = recovered {
                failed_checks.push(format!("victim storage does not recover: {e}"));
            }
        }
    }

    let timeline = fault_us.map(|(kill, restart)| {
        let at = |us: u64| (us as f64 - w0 as f64) / 1e6;
        let epochs = |log: &NodeLog| -> String {
            let starts: Vec<String> = log
                .epochs
                .iter()
                .map(|(e, us)| format!("e{e} {:+.2}", at(*us)))
                .collect();
            starts.join(", ")
        };
        let victim = &logs[VICTIM.index()];
        format!(
            "{}: s from window start: kill {:+.2}, restart {:+.2}, caught up {:+.2}; epochs at n{} [{}], \
             at the victim [{}]; drained {:.2} s after the window",
            w.name,
            at(kill),
            at(restart),
            victim
                .recovery_completed
                .map_or(f64::NAN, |(us, ..)| at(us)),
            OBSERVER.0,
            epochs(observer),
            epochs(victim),
            drained_us as f64 / 1e6,
        )
    });

    let traces = cluster
        .traces
        .iter()
        .map(|t| std::mem::take(&mut *t.lock().expect("trace lock poisoned")))
        .collect();
    let mut telemetry: Option<TelemetrySnapshot> = None;
    for t in &cluster.telemetry {
        if let Some(snap) = t.snapshot() {
            telemetry
                .get_or_insert_with(TelemetrySnapshot::empty)
                .merge(&snap);
        }
    }

    WindowResult {
        seconds,
        client,
        retransmitted,
        cpu: cpu1.since(cpu0),
        threads: threads1.since(&threads0),
        thread_count,
        frames,
        bytes,
        mailbox_depth_max,
        writer_depth_max,
        writer_drops,
        connects,
        batches: observer.batches,
        batch_requests: observer.batch_requests,
        empty_entries: observer.empty_entries,
        epochs: observer.epochs.len() as u64,
        requests_rejected: logs.iter().map(|l| l.requests_rejected).sum(),
        recovery_catchup_ms,
        wal_entries_replayed,
        storage_recover_ms,
        traces,
        telemetry,
        failed_checks,
        timeline,
    }
}

fn per_req(total: f64, reqs: u64) -> f64 {
    if reqs == 0 {
        0.0
    } else {
        total / reqs as f64
    }
}

/// The untraced run: every end-to-end metric.
pub fn run_untraced(w: &TcpWorkload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let dir = ScratchDir::create(w.name, seed)?;
    let clock = Clock::start();
    let (cluster, setup_s) = set_up_repeatedly(w, seed, &dir, clock)?;
    let r = measure(w, cluster, clock, WARMUP, seconds);
    let mut out = Outcome {
        attempted: r.client.submitted,
        failed: r.client.failed,
        failed_checks: r.failed_checks.clone(),
        ..Outcome::default()
    };
    end_to_end_values(&mut out, &r, setup_s);
    out.notes.push(summary(w, &r));
    out.notes.extend(r.timeline.clone());
    Ok(out)
}

/// The human-readable line above the result: sample counts, latency (a
/// per-layer value, shown here because it is what a reader looks for first)
/// and the machine the numbers came from.
fn summary(w: &TcpWorkload, r: &WindowResult) -> String {
    format!(
        "{}: {} submitted, {} confirmed in window, {} failed, {} retransmitted; latency p50 {:.1} ms \
         p99 {:.1} ms over {} samples, generator late p99 {:.3} ms; peak rss {:.0} MiB, cores {}, \
         threads {}",
        w.name,
        r.client.submitted,
        r.client.confirmed_in_window,
        r.client.failed,
        r.retransmitted,
        quantile(&r.client.latencies_us, 0.50) as f64 / 1e3,
        quantile(&r.client.latencies_us, 0.99) as f64 / 1e3,
        r.client.latencies_us.len(),
        quantile(&r.client.lateness_us, 0.99) as f64 / 1e3,
        procstat::peak_rss_mb(),
        std::thread::available_parallelism().map_or(0, usize::from),
        r.thread_count,
    )
}

fn end_to_end_values(out: &mut Outcome, r: &WindowResult, setup_s: f64) {
    let v = &mut out.values;
    v.set("setup_s", setup_s);
    v.set(
        "throughput_rps",
        r.client.confirmed_in_window as f64 / r.seconds,
    );
    v.set(
        "cpu_us_per_req",
        per_req(r.cpu.total_us() as f64, r.client.submitted),
    );
}

/// The traced run: an untraced window, then a traced window on a fresh
/// cluster, so the tracing overhead is the difference between two windows of
/// the same process; then the per-layer values from the traced one.
///
/// The crash workload needs its whole window for the fault schedule, so it
/// runs traced only and reports no overhead.
pub fn run_traced(
    w: &TcpWorkload,
    seed: u64,
    seconds: f64,
    spans_path: &std::path::Path,
) -> Result<Outcome, String> {
    let dir = ScratchDir::create(w.name, seed)?;
    let clock = Clock::start();
    // The crash schedule is laid out for the untraced run's warm-up.
    let warmup = if w.crash {
        WARMUP
    } else {
        Duration::from_secs(2)
    };
    let (plain_cpu_per_req, traced_seconds) = if w.crash {
        (None, seconds)
    } else {
        let (cluster, _) = set_up(spec_for(w, seed, false, &dir, "plain"), clock)?;
        let plain = measure(w, cluster, clock, warmup, seconds * 0.4);
        if !plain.failed_checks.is_empty() {
            return Err(format!("untraced half: {}", plain.failed_checks.join("; ")));
        }
        (
            Some(per_req(plain.cpu.total_us() as f64, plain.client.submitted)),
            seconds * 0.6,
        )
    };
    let (cluster, setup_s) = set_up(spec_for(w, seed, true, &dir, "traced"), clock)?;
    let r = measure(w, cluster, clock, warmup, traced_seconds);

    let mut out = Outcome {
        attempted: r.client.submitted,
        failed: r.client.failed,
        failed_checks: r.failed_checks.clone(),
        ..Outcome::default()
    };
    end_to_end_values(&mut out, &r, setup_s);
    // CPU is taken per request *due* in the window, like `cpu_us_per_req`.
    let reqs = r.client.submitted;
    let cpu_per_req = per_req(r.cpu.total_us() as f64, reqs);
    let v = &mut out.values;

    v.set("client.submitted", r.client.submitted as f64);
    v.set("client.confirmed", r.client.confirmed_in_window as f64);
    v.set("client.retransmitted", r.retransmitted as f64);
    v.set(
        "client.gen_late_p99_ms",
        quantile(&r.client.lateness_us, 0.99) as f64 / 1e3,
    );
    v.set(
        "client.latency_p50_ms",
        quantile(&r.client.latencies_us, 0.50) as f64 / 1e3,
    );
    v.set(
        "client.latency_p99_ms",
        quantile(&r.client.latencies_us, 0.99) as f64 / 1e3,
    );
    v.set("client.outage_ms", r.client.longest_gap_us as f64 / 1e3);
    v.set(
        "client.failed_frac",
        per_req(r.client.failed as f64, r.client.submitted),
    );

    let role_cpu = |role| r.threads.get(&role).copied().unwrap_or_default();
    let node_proto = role_cpu(ThreadRole::NodeProto);
    let client_proto = role_cpu(ThreadRole::ClientProto);
    let io = role_cpu(ThreadRole::Io);
    v.set(
        "client.thread_cpu_us_per_req",
        per_req(client_proto.total_us() as f64, reqs),
    );
    v.set(
        "net.proto_thread_cpu_us_per_req",
        per_req(node_proto.total_us() as f64, reqs),
    );
    v.set(
        "net.io_thread_cpu_us_per_req",
        per_req(io.total_us() as f64, reqs),
    );
    v.set(
        "net.sys_cpu_share",
        per_req(r.cpu.sys_us as f64, r.cpu.total_us()),
    );
    let attributed = node_proto.total_us() + client_proto.total_us() + io.total_us();
    v.set(
        "trace.unattributed_cpu_us_per_req",
        cpu_per_req - per_req(attributed as f64, reqs),
    );
    if let Some(plain) = plain_cpu_per_req {
        v.set("trace.overhead_frac", (cpu_per_req - plain) / plain);
    }

    // Replica responses go straight down the client's inbound socket and are
    // not in `PeerStats`: one frame per delivered request per replica.
    let delivered_frames: u64 = r.batch_requests * NUM_NODES as u64;
    v.set(
        "net.frames_per_req",
        per_req((r.frames + delivered_frames) as f64, r.batch_requests),
    );
    v.set(
        "net.bytes_per_req",
        per_req(r.bytes as f64, r.batch_requests),
    );
    v.set("net.mailbox_depth_max", r.mailbox_depth_max as f64);
    v.set("net.writer_depth_max", r.writer_depth_max as f64);
    v.set("net.writer_drops", r.writer_drops as f64);
    // Every writer connects once; anything beyond that is a reconnect.
    let writers = (NUM_NODES * (NUM_NODES - 1) + NUM_CLIENTS * NUM_NODES) as u64;
    v.set("net.reconnects", r.connects.saturating_sub(writers) as f64);

    // Busy time inside replica callbacks, summed over replicas, per request
    // delivered at the observer (every replica processes every request).
    let mut busy = [0u64; trace::CLASSES];
    let mut calls = [0u64; trace::CLASSES];
    let mut callback_ns = iss_telemetry::Histogram::new();
    let mut storage = NodeTrace::default();
    let mut spans = Vec::new();
    for t in &r.traces {
        for c in 0..trace::CLASSES {
            busy[c] += t.busy_ns[c];
            calls[c] += t.calls[c];
        }
        callback_ns.merge(&t.callback_ns);
        storage.append_ns += t.append_ns;
        storage.appends += t.appends;
        storage.prune_ns += t.prune_ns;
        storage.prunes += t.prunes;
        storage.snapshot_ns += t.snapshot_ns;
        storage.snapshots += t.snapshots;
        storage.wal_bytes += t.wal_bytes;
        spans.extend_from_slice(&t.spans);
    }
    // The wrappers count from boot, the window from warm-up's end: scale by
    // the requests each saw. Delivered-at-observer covers boot to shutdown.
    let all_reqs = r.batch_requests;
    let busy_us = |class: usize| per_req(busy[class] as f64 / 1e3, all_reqs);
    v.set(
        "core.busy_us_per_req",
        per_req(busy.iter().sum::<u64>() as f64 / 1e3, all_reqs),
    );
    v.set(
        "core.busy_request_us_per_req",
        busy_us(MsgClass::Request as usize),
    );
    v.set(
        "core.busy_proposal_us_per_req",
        busy_us(MsgClass::Proposal as usize),
    );
    v.set(
        "core.busy_vote_us_per_req",
        busy_us(MsgClass::Vote as usize),
    );
    v.set(
        "core.busy_checkpoint_us_per_req",
        busy_us(MsgClass::Checkpoint as usize),
    );
    v.set("core.busy_timer_us_per_req", busy_us(TIMER_CLASS));
    v.set("core.callback_p99_us", callback_ns.p99() as f64 / 1e3);
    v.set(
        "core.batch_size_mean",
        per_req(r.batch_requests as f64, r.batches),
    );
    if let Some(t) = &r.telemetry {
        let p50_ms = |p: Phase| t.phase(p).p50() as f64 / 1e3;
        v.set("core.phase_arrival_cut_p50_ms", p50_ms(Phase::ArrivalToCut));
        v.set(
            "core.phase_propose_quorum_p50_ms",
            p50_ms(Phase::ProposeToQuorum),
        );
        v.set(
            "core.phase_quorum_deliver_p50_ms",
            p50_ms(Phase::QuorumToDeliver),
        );
    }
    v.set("core.epochs", r.epochs as f64);
    v.set("core.nil_committed", r.empty_entries as f64);
    v.set("core.requests_rejected", r.requests_rejected as f64);
    v.set("core.recovery_catchup_ms", r.recovery_catchup_ms);
    v.set("core.wal_entries_replayed", r.wal_entries_replayed as f64);
    // Vote-class callbacks over all replicas per batch committed at one.
    v.set(
        "pbft.msgs_per_batch",
        per_req(
            calls[MsgClass::Vote as usize] as f64 / NUM_NODES as f64,
            r.batches + r.empty_entries,
        ),
    );

    let node_reqs = all_reqs * NUM_NODES as u64;
    v.set(
        "storage.append_us_per_req",
        per_req(storage.append_ns as f64 / 1e3, node_reqs),
    );
    v.set(
        "storage.appends_per_req",
        per_req(storage.appends as f64, node_reqs),
    );
    v.set(
        "storage.wal_bytes_per_req",
        per_req(storage.wal_bytes as f64, node_reqs),
    );
    v.set("storage.prune_count", storage.prunes as f64);
    v.set(
        "storage.prune_ms_mean",
        per_req(storage.prune_ns as f64 / 1e6, storage.prunes),
    );
    v.set(
        "storage.snapshot_ms_mean",
        per_req(storage.snapshot_ns as f64 / 1e6, storage.snapshots),
    );
    v.set("storage.recover_ms", r.storage_recover_ms);

    v.set("trace.spans", spans.len() as f64);
    v.set("proc.peak_rss_mb", procstat::peak_rss_mb());
    v.set("proc.threads", r.thread_count as f64);
    spans.sort_unstable_by_key(|s| s.start_us);
    trace::write_jsonl(spans_path, &spans).map_err(|e| format!("write spans: {e}"))?;
    out.notes.push(summary(w, &r));
    out.notes.extend(r.timeline.clone());
    out.notes.push(format!(
        "{}: traced window {:.1} s, {} spans -> {}",
        w.name,
        traced_seconds,
        spans.len(),
        spans_path.display()
    ));
    Ok(out)
}

/// `core.n1_cpu_us_per_req`: the unsigned WAL workload against a single
/// replica — the floor replication is added to.
pub fn run_single_replica(seed: u64, seconds: f64) -> Result<f64, String> {
    let dir = ScratchDir::create("n1", seed)?;
    let clock = Clock::start();
    let mut spec = spec_for(&WAL_OPEN, seed, false, &dir, "n1");
    spec.num_nodes = 1;
    let (cluster, _) = set_up(spec, clock)?;
    let r = measure(&WAL_OPEN, cluster, clock, Duration::from_secs(1), seconds);
    if !r.failed_checks.is_empty() {
        return Err(format!("single replica: {}", r.failed_checks.join("; ")));
    }
    Ok(per_req(r.cpu.total_us() as f64, r.client.submitted))
}
