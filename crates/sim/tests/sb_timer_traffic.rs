//! An SB instance has one timer, so the runtime timers a replica arms for
//! its SB instances follow the instances and the length of the run, not the
//! traffic: a commit vote moves an instance's deadline and arms nothing.
//!
//! Each instance arms its first runtime timer when it starts and, at most,
//! one more per timeout that it stays live, so a node arms at most
//! `instances × (1 + run / timeout)` of them, however many slots commit.

use iss_core::KIND_INSTANCE;
use iss_messages::NetMsg;
use iss_runtime::{Action, Addr, Event, TraceEntry, TraceRecorder};
use iss_sim::{Deployment, Protocol, Scenario};
use iss_types::{Duration, InstanceId, NodeId};
use std::collections::HashSet;

const TRACED: NodeId = NodeId(0);
const RUN: Duration = Duration::from_secs(30);

/// What node 0 of a seeded n = 4 ISS-PBFT run at `rate` req/s armed.
struct Count {
    sb_timers: u64,
    instances: u64,
    delivered: u64,
    bound: u64,
}

fn count(rate: f64) -> Count {
    let scenario = Scenario::builder(Protocol::Pbft, 4)
        .open_loop(4, rate)
        .duration(RUN)
        .seed(11)
        .build();
    let run = scenario.window.duration + scenario.window.drain;
    let timeout = scenario.iss_config().view_change_timeout;
    let mut deployment = Deployment::new(scenario);
    let recorder: TraceRecorder<NetMsg> = TraceRecorder::new();
    let handle = recorder.handle();
    deployment
        .runtime
        .record_trace(Addr::Node(TRACED), Box::new(recorder));
    let delivered = deployment.run().delivered;
    let trace: Vec<TraceEntry<NetMsg>> = handle.borrow().clone();

    let mut instances: HashSet<InstanceId> = HashSet::new();
    let mut sb_timers = 0;
    for entry in &trace {
        if let Event::Message {
            msg: NetMsg::Sb { instance, .. },
            ..
        } = &entry.event
        {
            instances.insert(*instance);
        }
        for action in &entry.actions {
            match action {
                Action::SetTimer { kind, .. } if *kind == KIND_INSTANCE => sb_timers += 1,
                Action::Send {
                    msg: NetMsg::Sb { instance, .. },
                    ..
                }
                | Action::Broadcast {
                    msg: NetMsg::Sb { instance, .. },
                    ..
                } => {
                    instances.insert(*instance);
                }
                _ => {}
            }
        }
    }
    let instances = instances.len() as u64;
    let bound = instances * (1 + run.as_micros() / timeout.as_micros());
    Count {
        sb_timers,
        instances,
        delivered,
        bound,
    }
}

#[test]
fn sb_timers_follow_the_instances_not_the_commits() {
    let light = count(100.0);
    let heavy = count(2_000.0);

    for c in [&light, &heavy] {
        assert!(c.instances >= 8, "the run spans epochs: {}", c.instances);
        assert!(
            c.sb_timers <= c.bound,
            "{} SB runtime timers for {} instances exceed {}",
            c.sb_timers,
            c.instances,
            c.bound
        );
    }
    assert!(
        heavy.delivered >= 10 * light.delivered,
        "the heavy run commits far more: {} against {}",
        heavy.delivered,
        light.delivered
    );
}
