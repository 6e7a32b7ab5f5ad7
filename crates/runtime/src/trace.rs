//! Invocation tracing and standalone replay.
//!
//! The equivalence obligation of the runtime boundary — *same inbound trace
//! ⇒ same outbound actions under every driver* — is checked with three
//! pieces:
//!
//! 1. a [`TraceSink`] hook an engine calls around each process invocation
//!    (simnet's `Runtime::record_trace` installs one for a single address;
//!    the hook is `None` by default, so untraced runs pay one branch and
//!    stay byte-identical);
//! 2. [`TraceRecorder`], the sink that clones each invocation into an owned
//!    [`TraceEntry`] list;
//! 3. [`replay_trace`], which drives a *fresh* process under the standalone
//!    [`SansIo`] driver with the recorded events and diffs the emitted
//!    actions entry by entry.
//!
//! Timer handles need care: a `TimerId` packs a slot of the driver's
//! [`crate::timer::TimerSlab`], and the recording engine may share one slab
//! across many processes (simnet does), so the replayed node allocates
//! *different* handle values for the *same* timers. The replay therefore
//! matches `SetTimer` actions on `(delay, kind)` and maintains the recorded
//! → replayed handle bijection, translating recorded timer events through it
//! before delivery. Everything else must be equal verbatim.

use crate::driver::{Event, SansIo};
use crate::process::{Action, Addr, Payload};
use iss_types::{Time, TimerId};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Debug;
use std::rc::Rc;

/// A borrowed view of one invocation's triggering event, handed to
/// [`TraceSink::begin`] before the callback runs (the engine still owns the
/// message and is about to consume it).
#[derive(Debug)]
pub enum EventRef<'a, M> {
    /// `on_start` is about to run.
    Start,
    /// `on_message(from, msg)` is about to run.
    Message {
        /// Sender address.
        from: Addr,
        /// The message, still owned by the engine.
        msg: &'a M,
    },
    /// `on_timer(id, kind)` is about to run.
    Timer {
        /// The timer handle.
        id: TimerId,
        /// The timer tag.
        kind: u64,
    },
}

/// Receives one `begin`/`finish` pair around every traced invocation.
///
/// Split in two because the engine hands the message to the callback by
/// value: the event is only borrowable *before* the invocation, the action
/// list only exists *after* it.
pub trait TraceSink<M> {
    /// Called before the callback runs, with the triggering event.
    fn begin(&mut self, now: Time, event: EventRef<'_, M>);

    /// Called after the callback returns, with everything it emitted.
    fn finish(&mut self, actions: &[Action<M>]);
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

/// A [`TraceSink`] that clones every invocation into an owned entry list.
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
    fn begin(&mut self, now: Time, event: EventRef<'_, M>) {
        let event = match event {
            EventRef::Start => Event::Start,
            EventRef::Message { from, msg } => Event::Message {
                from,
                msg: msg.clone(),
            },
            EventRef::Timer { id, kind } => Event::Timer { id, kind },
        };
        self.entries.borrow_mut().push(TraceEntry {
            now,
            event,
            actions: Vec::new(),
        });
    }

    fn finish(&mut self, actions: &[Action<M>]) {
        let mut entries = self.entries.borrow_mut();
        let entry = entries.last_mut().expect("finish follows begin");
        entry.actions = actions.to_vec();
    }
}

/// Replays `trace` through `driver` (which must have a fresh process
/// mounted) and checks action-for-action equivalence, returning the total
/// number of actions compared.
///
/// `SetTimer` actions are matched on `(delay, kind)` — handle values are
/// driver-local, see the module docs — and every match extends the recorded
/// → replayed handle bijection used to translate later timer events. Any
/// other divergence (different action kind, different send, different
/// count) is reported with its entry index.
pub fn replay_trace<M>(driver: &mut SansIo<M>, trace: &[TraceEntry<M>]) -> Result<usize, String>
where
    M: Payload + Clone + PartialEq + Debug,
{
    let mut timer_map: HashMap<TimerId, TimerId> = HashMap::new();
    let mut compared = 0usize;
    let mut out = Vec::new();
    for (i, entry) in trace.iter().enumerate() {
        let event = match &entry.event {
            Event::Timer { id, kind } => {
                let mapped = *timer_map.get(id).ok_or_else(|| {
                    format!("entry {i}: timer event for unknown recorded handle {id:?}")
                })?;
                Event::Timer {
                    id: mapped,
                    kind: *kind,
                }
            }
            other => other.clone(),
        };
        out.clear();
        driver.handle_into(entry.now, event, &mut out);
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
            match (recorded, replayed) {
                (
                    Action::SetTimer {
                        id: rid,
                        delay: rd,
                        kind: rk,
                    },
                    Action::SetTimer {
                        id: pid,
                        delay: pd,
                        kind: pk,
                    },
                ) => {
                    if (rd, rk) != (pd, pk) {
                        return Err(format!(
                            "entry {i} action {j}: recorded SetTimer({rd:?}, kind {rk}), \
                             replay armed SetTimer({pd:?}, kind {pk})"
                        ));
                    }
                    timer_map.insert(*rid, *pid);
                }
                (recorded, replayed) => {
                    if recorded != replayed {
                        return Err(format!(
                            "entry {i} action {j} diverged\nrecorded: {recorded:#?}\nreplayed: {replayed:#?}"
                        ));
                    }
                }
            }
            compared += 1;
        }
    }
    Ok(compared)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{Context, Process};
    use iss_types::{Duration, NodeId};

    #[derive(Clone, Debug, PartialEq)]
    struct Msg(u32);
    impl Payload for Msg {
        fn wire_size(&self) -> usize {
            4
        }
    }

    /// Arms a retransmit timer per message and cancels it on the next one —
    /// enough timer churn to exercise the handle bijection.
    struct Proto {
        pending: Option<TimerId>,
        divergent: bool,
    }
    impl Process<Msg> for Proto {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            ctx.set_timer(Duration::from_millis(100), 9);
        }
        fn on_message(&mut self, from: Addr, msg: Msg, ctx: &mut Context<'_, Msg>) {
            if let Some(t) = self.pending.take() {
                ctx.cancel_timer(t);
            }
            let reply = if self.divergent { msg.0 * 2 } else { msg.0 + 1 };
            ctx.send(from, Msg(reply));
            self.pending = Some(ctx.set_timer(Duration::from_millis(50), 1));
        }
        fn on_timer(&mut self, _id: TimerId, kind: u64, ctx: &mut Context<'_, Msg>) {
            ctx.send(Addr::Node(NodeId(1)), Msg(kind as u32));
        }
    }

    /// Records a reference run under one SansIo driver, pre-polluting the
    /// slab so recorded handle values differ from a fresh driver's.
    fn record(divergent: bool) -> Vec<TraceEntry<Msg>> {
        let recorder: TraceRecorder<Msg> = TraceRecorder::new();
        let handle = recorder.handle();
        let mut sink = recorder;
        let mut rec = SansIo::new(3);
        // Burn slab slots (each Start arms a never-cancelled timer) so the
        // recording's TimerIds differ from a fresh replay driver's.
        rec.mount(
            Addr::Node(NodeId(0)),
            Box::new(Proto {
                pending: None,
                divergent: false,
            }),
        );
        for _ in 0..5 {
            rec.handle(Time::ZERO, Event::Start);
        }
        rec.mount(
            Addr::Node(NodeId(0)),
            Box::new(Proto {
                pending: None,
                divergent,
            }),
        );
        let mut feed = |now: Time, event: Event<Msg>| {
            sink.begin(
                now,
                match &event {
                    Event::Start => EventRef::Start,
                    Event::Message { from, msg } => EventRef::Message { from: *from, msg },
                    Event::Timer { id, kind } => EventRef::Timer {
                        id: *id,
                        kind: *kind,
                    },
                },
            );
            let actions = rec.handle(now, event);
            sink.finish(&actions);
            actions
        };
        let started = feed(Time::ZERO, Event::Start);
        let Action::SetTimer { id: watchdog, .. } = started[0] else {
            panic!();
        };
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
        // The recording ran on a polluted slab (handles differ), yet the
        // replay is action-identical thanks to the bijection.
        let trace = record(false);
        let mut fresh = SansIo::new(99);
        fresh.mount(
            Addr::Node(NodeId(0)),
            Box::new(Proto {
                pending: None,
                divergent: false,
            }),
        );
        let compared = replay_trace(&mut fresh, &trace).expect("equivalent");
        assert!(compared >= 8, "compared {compared} actions");
    }

    #[test]
    fn replay_flags_a_divergent_process() {
        let trace = record(false);
        let mut fresh = SansIo::new(99);
        fresh.mount(
            Addr::Node(NodeId(0)),
            Box::new(Proto {
                pending: None,
                divergent: true,
            }),
        );
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
