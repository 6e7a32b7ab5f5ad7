//! Invocation tracing and standalone replay.
//!
//! The equivalence obligation of the runtime boundary — *same inbound trace
//! ⇒ same outbound actions under every driver* — is checked with three
//! pieces:
//!
//! 1. a [`TraceSink`] an engine hands every invocation of one process to,
//!    as plain data: the time, the triggering [`Event`] and the actions the
//!    callback emitted (simnet's `Runtime::record_trace` installs one for a
//!    single address; the hook is `None` by default, so untraced runs pay
//!    one branch and stay byte-identical);
//! 2. [`TraceRecorder`], the sink that keeps each invocation as an owned
//!    [`TraceEntry`];
//! 3. [`replay_trace`], which drives a *fresh* process under the standalone
//!    [`SansIo`] driver with the recorded events and compares the emitted
//!    actions entry by entry, verbatim.
//!
//! Timer handles compare verbatim too: every driver numbers a process
//! incarnation's timers from zero in the order it arms them, so the same
//! decisions carry the same handles under every engine.

use crate::driver::{Event, SansIo};
use crate::process::{Action, Payload};
use iss_types::Time;
use std::cell::RefCell;
use std::fmt::Debug;
use std::rc::Rc;

/// Receives every traced invocation once the callback has returned.
pub trait TraceSink<M> {
    /// Records that the callback for `event` ran at `now` and emitted
    /// `actions`.
    fn record(&mut self, now: Time, event: Event<M>, actions: &[Action<M>]);
}

/// One recorded invocation: when, what came in, what went out.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry<M> {
    /// The engine's `now` during the invocation.
    pub now: Time,
    /// The triggering event.
    pub event: Event<M>,
    /// The actions the callback emitted.
    pub actions: Vec<Action<M>>,
}

/// Shared handle to a recorded trace (the engine owns the sink; the test
/// keeps the handle).
pub type TraceHandle<M> = Rc<RefCell<Vec<TraceEntry<M>>>>;

/// A [`TraceSink`] that keeps every invocation as an owned entry.
#[derive(Default)]
pub struct TraceRecorder<M> {
    entries: TraceHandle<M>,
}

impl<M> TraceRecorder<M> {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        TraceRecorder {
            entries: Rc::new(RefCell::new(Vec::new())),
        }
    }

    /// A shared handle to the entries, for reading the trace back after the
    /// recording run (the engine keeps the recorder itself).
    pub fn handle(&self) -> TraceHandle<M> {
        Rc::clone(&self.entries)
    }
}

impl<M: Clone> TraceSink<M> for TraceRecorder<M> {
    fn record(&mut self, now: Time, event: Event<M>, actions: &[Action<M>]) {
        self.entries.borrow_mut().push(TraceEntry {
            now,
            event,
            actions: actions.to_vec(),
        });
    }
}

/// Replays `trace` through `driver` (which must have a fresh process
/// mounted) and checks that every entry emits exactly the recorded
/// actions, timer handles included, returning the total number of actions
/// compared. The first divergence (different action, different count) is
/// reported with its entry index.
pub fn replay_trace<M>(driver: &mut SansIo<M>, trace: &[TraceEntry<M>]) -> Result<usize, String>
where
    M: Payload + Clone + PartialEq + Debug,
{
    let mut compared = 0usize;
    let mut out = Vec::new();
    for (i, entry) in trace.iter().enumerate() {
        out.clear();
        driver.handle_into(entry.now, entry.event.clone(), &mut out);
        if out.len() != entry.actions.len() {
            return Err(format!(
                "entry {i} (t={:?}, {:?}): recorded {} actions, replay emitted {}\nrecorded: {:#?}\nreplayed: {:#?}",
                entry.now,
                entry.event,
                entry.actions.len(),
                out.len(),
                entry.actions,
                out,
            ));
        }
        for (j, (recorded, replayed)) in entry.actions.iter().zip(out.iter()).enumerate() {
            if recorded != replayed {
                return Err(format!(
                    "entry {i} action {j} diverged\nrecorded: {recorded:#?}\nreplayed: {replayed:#?}"
                ));
            }
            compared += 1;
        }
    }
    Ok(compared)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{Addr, Context, Process};
    use iss_types::{Duration, NodeId, TimerId};

    #[derive(Clone, Debug, PartialEq)]
    struct Msg(u32);
    impl Payload for Msg {
        fn wire_size(&self) -> usize {
            4
        }
    }

    /// Arms a retransmit timer per message — enough timer churn that every
    /// entry's handles are checked.
    struct Proto {
        divergent: bool,
    }
    impl Process<Msg> for Proto {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            ctx.set_timer(Duration::from_millis(100), 9);
        }
        fn on_message(&mut self, from: Addr, msg: Msg, ctx: &mut Context<'_, Msg>) {
            let reply = if self.divergent { msg.0 * 2 } else { msg.0 + 1 };
            ctx.send(from, Msg(reply));
            ctx.set_timer(Duration::from_millis(50), 1);
        }
        fn on_timer(&mut self, _id: TimerId, kind: u64, ctx: &mut Context<'_, Msg>) {
            ctx.send(Addr::Node(NodeId(1)), Msg(kind as u32));
        }
    }

    /// Records a reference run under one SansIo driver, on the second
    /// process it mounts: a second `mount` numbers its timers from zero, so
    /// the recording's handles are a fresh driver's.
    fn record(divergent: bool) -> Vec<TraceEntry<Msg>> {
        let mut sink: TraceRecorder<Msg> = TraceRecorder::new();
        let handle = sink.handle();
        let mut rec = SansIo::new(3);
        // The first incarnation arms five timers that never fire.
        rec.mount(Addr::Node(NodeId(0)), Box::new(Proto { divergent: false }));
        for _ in 0..5 {
            rec.handle(Time::ZERO, Event::Start);
        }
        rec.mount(Addr::Node(NodeId(0)), Box::new(Proto { divergent }));
        let mut feed = |now: Time, event: Event<Msg>| {
            let actions = rec.handle(now, event.clone());
            sink.record(now, event, &actions);
            actions
        };
        let started = feed(Time::ZERO, Event::Start);
        let Action::SetTimer { id: watchdog, .. } = started[0] else {
            panic!();
        };
        assert_eq!(watchdog, TimerId(0), "a second mount numbers from zero");
        for k in 0..3u32 {
            feed(
                Time::from_millis(10 + k as u64),
                Event::Message {
                    from: Addr::Node(NodeId(2)),
                    msg: Msg(k),
                },
            );
        }
        // Fire the start-time watchdog through its recorded handle.
        feed(
            Time::from_millis(100),
            Event::Timer {
                id: watchdog,
                kind: 9,
            },
        );
        drop(sink);
        Rc::try_unwrap(handle).ok().unwrap().into_inner()
    }

    #[test]
    fn replay_matches_an_identical_process() {
        // The recording ran on a driver that had mounted a process before,
        // yet the replay is action-identical, handles included.
        let trace = record(false);
        let mut fresh = SansIo::new(99);
        fresh.mount(Addr::Node(NodeId(0)), Box::new(Proto { divergent: false }));
        let compared = replay_trace(&mut fresh, &trace).expect("equivalent");
        assert!(compared >= 8, "compared {compared} actions");
    }

    #[test]
    fn replay_flags_a_divergent_process() {
        let trace = record(false);
        let mut fresh = SansIo::new(99);
        fresh.mount(Addr::Node(NodeId(0)), Box::new(Proto { divergent: true }));
        let err = replay_trace(&mut fresh, &trace).unwrap_err();
        assert!(err.contains("diverged"), "got: {err}");
    }

    #[test]
    fn recorder_pairs_events_with_their_actions() {
        let trace = record(false);
        assert!(matches!(trace[0].event, Event::Start));
        assert!(matches!(trace[0].actions[0], Action::SetTimer { .. }));
        assert!(matches!(
            trace.last().unwrap().event,
            Event::Timer { kind: 9, .. }
        ));
    }
}
