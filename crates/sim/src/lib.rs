//! Full-system evaluation harness.
//!
//! This crate assembles everything into runnable deployments on the
//! discrete-event simulator. The experiment surface is the composable
//! **Scenario API** ([`scenario`]):
//!
//! ```text
//! Scenario = ProtocolStack × Workload × Topology × FaultPlan × RunWindow
//! ```
//!
//! Pick an ordering protocol and mode, a client workload (open-loop, bursty,
//! ramp, Zipf-skewed — or any [`iss_workload::Workload`] implementation), a
//! topology (the paper's 16-datacenter WAN, a LAN, a uniform mesh, or a
//! custom latency matrix), a unified fault plan (crashes, Byzantine
//! stragglers, healing partitions, lossy-link windows), an adversary plan
//! (equivocating/censoring leaders, malformed proposers, Byzantine clients —
//! see [`adversary`]) and a run window, then build and run:
//!
//! ```no_run
//! use iss_sim::{Protocol, Scenario};
//! use iss_types::{Duration, NodeId, Time};
//!
//! // 8 ISS-PBFT replicas on the WAN under bursty load; node 0 crashes at
//! // the start of the first epoch and a 10%-loss window hits mid-run.
//! let report = Scenario::builder(Protocol::Pbft, 8)
//!     .bursty(16, 4_000.0, Duration::from_secs(3), Duration::from_secs(2))
//!     .crash(NodeId(0), iss_sim::CrashTiming::EpochStart)
//!     .lossy_window(0.1, Time::from_secs(10), Time::from_secs(12))
//!     .duration(Duration::from_secs(30))
//!     .warmup(Duration::from_secs(5))
//!     .build()
//!     .run();
//! println!("delivered {} requests", report.delivered);
//! ```
//!
//! One experiment function per table/figure of the paper's evaluation
//! (Section 6) lives in [`experiments`], alongside beyond-the-paper
//! scenarios (bursty, skewed, partition-heal, lossy-window) exercised by the
//! `iss-bench smoke experiments` CI gate.

pub mod adversary;
pub mod client_proc;
pub mod cluster;
pub mod experiments;
pub mod factories;
pub mod metrics;
pub mod scenario;

pub use adversary::{
    evaluate_gates, AdversarialProcess, AdversaryEvent, AdversaryPlan, AdversaryReport, Behavior,
    ClientAdversary, MalformedKind, NodeAdversary, CENSORSHIP_EPOCH_BOUND,
};
pub use cluster::{run_scenario, CrashTiming, Deployment, Report, StageReport};
pub use factories::{make_factory, Protocol};
pub use metrics::{Metrics, MetricsHandle, MetricsSink};
pub use scenario::{
    FaultEvent, FaultPlan, ProtocolStack, RunWindow, Scenario, ScenarioBuilder, TopologySpec,
};
