//! `sim_paper_scale`: the paper's cluster sizes exist only under the
//! simulator. ISS-PBFT n=32 at 16,400 req/s, ISS-HotStuff n=16 and ISS-Raft
//! n=16 at 8,000 req/s on the 16-datacenter WAN, advanced in lockstep and
//! repeated; what is measured is how fast the host gets through them.
//!
//! Simulated time is free, so nothing the cost model says (throughput,
//! latency, CPU shares) is an end-to-end metric here — those are per-layer
//! counts, checked for exact equality across repetitions.

use crate::metrics::{median, quantile, Outcome};
use crate::procstat;
use iss_sim::{Deployment, Protocol, Report, Scenario};
use iss_types::{Duration, MsgClass, Time};
use std::time::Instant;

/// Repetitions of the three-scenario set in one run.
const REPS: usize = 3;
/// Simulated seconds per scenario for each wall-clock second asked for, so
/// that [`REPS`] repetitions fill the requested window on the 2-core
/// reference box.
const VIRTUAL_PER_WALL_S: f64 = 0.45;
/// Lockstep granularity: every scenario advances this much virtual time per
/// step, and a step's wall time is the `sim.step_*` sample.
const STEP_MS: u64 = 20;
const STEP: Duration = Duration(STEP_MS * 1_000);

const SHAPES: [(Protocol, usize, f64); 3] = [
    (Protocol::Pbft, 32, 16_400.0),
    (Protocol::HotStuff, 16, 8_000.0),
    (Protocol::Raft, 16, 8_000.0),
];

fn scenario(shape: (Protocol, usize, f64), seed: u64, virtual_s: f64, telemetry: bool) -> Scenario {
    let (protocol, n, rate) = shape;
    Scenario::builder(protocol, n)
        .open_loop(16, rate)
        .duration(Duration::from_secs_f64(virtual_s))
        .warmup(Duration::from_secs_f64(virtual_s / 3.0))
        .seed(seed)
        .telemetry(telemetry)
        .build()
}

/// Extra scenario builds per repetition, timed and thrown away: building
/// takes milliseconds, so one sample per repetition would make `setup_s`
/// the noisiest number in the file.
const EXTRA_BUILDS: usize = 4;

/// One repetition's measurements.
struct Rep {
    setup_s: Vec<f64>,
    wall_s: f64,
    cpu_us: u64,
    /// Wall time of each lockstep step, then of the drain as a last entry.
    step_us: Vec<u64>,
    reports: Vec<Report>,
}

fn run_rep(seed: u64, virtual_s: f64, telemetry: bool) -> Rep {
    let build = || -> (Vec<Deployment>, f64) {
        let t = Instant::now();
        let deployments = SHAPES
            .iter()
            .map(|s| Deployment::new(scenario(*s, seed, virtual_s, telemetry)))
            .collect();
        (deployments, t.elapsed().as_secs_f64())
    };
    let mut setup_s: Vec<f64> = (0..EXTRA_BUILDS).map(|_| build().1).collect();
    let (mut deployments, secs) = build();
    setup_s.push(secs);

    let end = Time::ZERO + Duration::from_secs_f64(virtual_s);
    let cpu0 = procstat::process_cpu();
    let t = Instant::now();
    let mut step_us = Vec::new();
    let mut now = Time::ZERO;
    while now < end {
        now = (now + STEP).min(end);
        let s = Instant::now();
        for d in &mut deployments {
            d.runtime.run_until(now);
        }
        step_us.push(s.elapsed().as_micros() as u64);
    }
    // `run` finishes the drain window and summarizes.
    let s = Instant::now();
    let reports = deployments.iter_mut().map(Deployment::run).collect();
    step_us.push(s.elapsed().as_micros() as u64);
    Rep {
        setup_s,
        wall_s: t.elapsed().as_secs_f64(),
        cpu_us: procstat::process_cpu().since(cpu0).total_us(),
        step_us,
        reports,
    }
}

/// The counts that must not depend on which repetition produced them.
fn fingerprint(r: &Report) -> (u64, u64, u64, u64) {
    (
        r.delivered,
        r.messages_sent,
        r.bytes_sent,
        r.throughput.to_bits(),
    )
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let virtual_s = (seconds * VIRTUAL_PER_WALL_S).max(1.0);
    // A traced run turns `iss-telemetry` on for the last repetition only:
    // the plain repetitions are the baseline its overhead is taken against.
    let reps: Vec<Rep> = (0..REPS)
        .map(|i| run_rep(seed, virtual_s, traced && i + 1 == REPS))
        .collect();

    // An operation here is a simulated request delivered at the observer;
    // it fails if a repetition of the same seed does not reproduce it. (What
    // is still in flight when a scenario is cut off is not a failure: the
    // simulator's clients never re-send, and chained HotStuff cannot flush
    // its pipeline without new proposals.) Agreement and duplicate delivery
    // are asserted inside the simulator on every delivery and abort the run.
    let delivered: u64 = reps[0].reports.iter().map(|r| r.delivered).sum();
    let mut out = Outcome {
        attempted: delivered,
        ..Outcome::default()
    };
    for rep in &reps[1..] {
        for (a, b) in reps[0].reports.iter().zip(&rep.reports) {
            if fingerprint(a) != fingerprint(b) {
                out.failed += a.delivered.abs_diff(b.delivered).max(1);
                out.failed_checks.push(format!(
                    "simulator outputs differ across repetitions: {:?} vs {:?}",
                    fingerprint(a),
                    fingerprint(b)
                ));
            }
        }
    }

    let plain = if traced { &reps[..REPS - 1] } else { &reps[..] };
    // The repetitions do identical work step for step, and interference
    // from the host only ever adds time: a step costs what its fastest
    // repetition took, and the run costs the sum of those.
    let num_steps = plain[0].step_us.len();
    let undisturbed_s = (0..num_steps)
        .map(|k| plain.iter().map(|r| r.step_us[k]).min().unwrap_or(0))
        .sum::<u64>() as f64
        / 1e6;
    let mut steps: Vec<u64> = plain
        .iter()
        .flat_map(|r| r.step_us[..num_steps - 1].iter().copied())
        .collect();
    steps.sort_unstable();
    let v = &mut out.values;
    let setups: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.setup_s.iter().copied())
        .collect();
    v.set("setup_s", median(&setups));
    v.set("throughput_rps", delivered as f64 / undisturbed_s);
    let least_cpu_us = plain.iter().map(|r| r.cpu_us).min().unwrap_or(0);
    v.set(
        "cpu_us_per_req",
        least_cpu_us as f64 / delivered.max(1) as f64,
    );

    if traced {
        v.set("sim.step_p50_ms", quantile(&steps, 0.50) as f64 / 1e3);
        v.set("sim.step_p99_ms", quantile(&steps, 0.99) as f64 / 1e3);
        v.set("proc.peak_rss_mb", procstat::peak_rss_mb());
        v.set("proc.threads", procstat::thread_count() as f64);
        let last = &reps[REPS - 1];
        let base = median(&plain.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        v.set("trace.overhead_frac", (last.wall_s - base) / base);
        let pbft = &last.reports[0];
        v.set("sim.model_throughput_rps", pbft.throughput);
        v.set(
            "sim.model_latency_mean_ms",
            pbft.mean_latency.as_micros() as f64 / 1e3,
        );
        let (msgs, bytes): (u64, u64) = last
            .reports
            .iter()
            .fold((0, 0), |(m, b), r| (m + r.messages_sent, b + r.bytes_sent));
        v.set("sim.msgs_per_req", msgs as f64 / delivered.max(1) as f64);
        v.set("sim.bytes_per_req", bytes as f64 / delivered.max(1) as f64);
        if let Some(t) = &pbft.telemetry {
            let total = t.cpu_total_us().max(1) as f64;
            let share = |c: MsgClass| t.cpu_us[c as usize] as f64 / total;
            v.set("sim.model_cpu_share_proposal", share(MsgClass::Proposal));
            v.set("sim.model_cpu_share_request", share(MsgClass::Request));
            v.set("sim.model_cpu_share_vote", share(MsgClass::Vote));
        }
        v.set("core.epochs", pbft.epochs.len() as f64);
        v.set("core.nil_committed", pbft.nil_committed as f64);
    }

    out.notes.push(format!(
        "sim_paper_scale: {virtual_s:.2} virtual s x {REPS} repetitions, {delivered} delivered per \
         repetition; {STEP_MS} ms lockstep step p50 {:.2} ms p99 {:.2} ms over {} steps, wall per \
         repetition {:?} s; peak rss {:.0} MiB, cores {}, threads {}",
        quantile(&steps, 0.50) as f64 / 1e3,
        quantile(&steps, 0.99) as f64 / 1e3,
        steps.len(),
        reps.iter()
            .map(|r| (r.wall_s * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
        procstat::peak_rss_mb(),
        std::thread::available_parallelism().map_or(0, usize::from),
        procstat::thread_count(),
    ));
    Ok(out)
}
