//! Trace equivalence across the runtime boundary.
//!
//! The runtime boundary's core claim is that a node is a *pure* event
//! handler: the same inbound events must produce the same outbound actions
//! no matter which engine drives it. This suite checks the claim end to
//! end: record every invocation of one replica inside a full simulated
//! fig8-style run (quick scale, PBFT, one crash fault — so the trace
//! crosses epoch changes and the crashed leader's ⊥ path), then replay the
//! recorded events through a **fresh** node mounted on the standalone
//! [`SansIo`] driver, asserting action-for-action equality.
//!
//! The replayed node is built through the same recipe `Deployment` uses
//! ([`Scenario::node_options`] and [`replica`]) — a construction drift
//! between the engines shows up here as a divergence at some entry index.
//! A negative control (a node configured differently) proves the
//! comparison has teeth.

use iss_core::{IssNode, NullSink};
use iss_messages::NetMsg;
use iss_runtime::{replay_trace, Addr, SansIo, TraceEntry, TraceRecorder};
use iss_sim::{replica, CrashTiming, Deployment, Protocol, Scenario};
use iss_types::{Duration, LeaderPolicyKind, NodeId};
use std::cell::RefCell;
use std::rc::Rc;

const NUM_NODES: usize = 4;
const NUM_CLIENTS: usize = 4;
/// Highest-numbered healthy node: the crash hits node 0, so the simulated
/// deployment picks node 3 as its observer; we trace the same replica.
const TRACED: NodeId = NodeId(3);

/// The fig8 quick-scale shape: smallest node count, crash fault at the
/// start of an epoch, Blacklist leader policy, half-load open loop.
fn fig8_quick_scenario() -> Scenario {
    Scenario::builder(Protocol::Pbft, NUM_NODES)
        .policy(LeaderPolicyKind::Blacklist)
        .open_loop(NUM_CLIENTS, 300.0)
        .duration(Duration::from_secs(7))
        .crash(NodeId(0), CrashTiming::EpochStart)
        .seed(7)
        .build()
}

/// Runs the scenario in the simulator with a trace recorder installed on
/// the traced replica, returning every invocation it saw.
fn record_sim_trace(scenario: Scenario) -> Vec<TraceEntry<NetMsg>> {
    let mut deployment = Deployment::new(scenario);
    let recorder: TraceRecorder<NetMsg> = TraceRecorder::new();
    let handle = recorder.handle();
    deployment
        .runtime
        .record_trace(Addr::Node(TRACED), Box::new(recorder));
    deployment.run();
    let trace = handle.borrow().clone();
    trace
}

/// Builds a replica through the recipe `Deployment` builds the simulated
/// one with (same options, same orderer factory, same signature registry
/// shape), to be mounted on the standalone driver; `respond_to_clients`
/// overrides the recipe's response rule.
fn standalone_replica(scenario: &Scenario, respond_to_clients: bool) -> IssNode {
    let registry = scenario.registry();
    let mut opts = scenario.node_options(TRACED, &scenario.iss_config());
    opts.respond_to_clients = respond_to_clients;
    let sink = Rc::new(RefCell::new(NullSink));
    replica(TRACED, opts, Protocol::Pbft, registry, sink, None)
}

#[test]
fn sim_recorded_trace_replays_identically_on_the_standalone_driver() {
    let scenario = fig8_quick_scenario();
    let trace = record_sim_trace(fig8_quick_scenario());
    assert!(
        trace.len() > 1_000,
        "the run must exercise the node substantially, got {} invocations",
        trace.len()
    );

    // A fresh node under the standalone driver (different engine, different
    // driver seed) must make every decision the simulated node made, down
    // to the handle of every timer it arms.
    let mut driver: SansIo<NetMsg> = SansIo::new(0xD1CE);
    driver.mount(
        Addr::Node(TRACED),
        Box::new(standalone_replica(&scenario, false)),
    );
    let compared = replay_trace(&mut driver, &trace).unwrap_or_else(|e| {
        panic!("replay diverged from the simulated run:\n{e}");
    });
    assert!(
        compared > 1_000,
        "the replay must compare a substantial action stream, got {compared}"
    );
}

#[test]
fn replay_flags_a_differently_configured_replica() {
    let scenario = fig8_quick_scenario();
    let trace = record_sim_trace(fig8_quick_scenario());
    // Negative control: the deployment ran with client responses off; a
    // replica that answers clients emits extra sends and must be caught.
    let mut driver: SansIo<NetMsg> = SansIo::new(0xD1CE);
    driver.mount(
        Addr::Node(TRACED),
        Box::new(standalone_replica(&scenario, true)),
    );
    assert!(
        replay_trace(&mut driver, &trace).is_err(),
        "a misconfigured replica must not replay cleanly"
    );
}
