//! Drivers: the things that host a [`Process`] and feed it [`Event`]s.
//!
//! A driver owns everything ambient a process is allowed to observe — the
//! clock behind `ctx.now()`, the [`TimerSlab`] behind timer handles, the
//! seeded RNG — and interprets the [`Action`] list each callback emits.
//! `iss-simnet`'s `Runtime` and `iss-net`'s `TcpRuntime` are the two real
//! drivers; [`SansIo`] is the degenerate one that interprets nothing and
//! returns the actions to the caller, which is exactly what standalone trace
//! replay needs.

use crate::process::{Action, Addr, Context, Payload, Process};
use crate::timer::TimerSlab;
use iss_types::{Time, TimerId};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One input to a sans-IO process: the owned counterpart of the three
/// [`Process`] callbacks.
#[derive(Debug, Clone, PartialEq)]
pub enum Event<M> {
    /// The process (re)starts.
    Start,
    /// A message from `from` is delivered.
    Message {
        /// Sender address.
        from: Addr,
        /// The message.
        msg: M,
    },
    /// A timer armed by the process fires.
    Timer {
        /// The handle returned by `set_timer`.
        id: TimerId,
        /// The tag passed to `set_timer`.
        kind: u64,
    },
}

/// The standalone driver: feed events in, get actions back, nothing else.
///
/// `SansIo` owns the full ambient state of one process — its [`TimerSlab`]
/// (so `set_timer`/`cancel_timer` handles behave exactly as under a real
/// engine, including generation-stamped staleness), a reusable action
/// buffer, and a per-driver seeded RNG. [`SansIo::handle`] runs one callback
/// and returns what the process decided. Timer events whose handle was
/// cancelled (or already fired) are suppressed here, mirroring the
/// generation check real engines perform when a timer pops.
///
/// Used by the trace-equivalence suite (replay a recorded simnet trace
/// through a fresh node and diff the decisions) and by `iss-net`'s protocol
/// thread (which turns the returned actions into socket writes and timer
/// wheel entries).
pub struct SansIo<M> {
    addr: Option<Addr>,
    process: Option<Box<dyn Process<M>>>,
    timers: TimerSlab,
    actions: Vec<Action<M>>,
    rng: StdRng,
}

impl<M: Payload> SansIo<M> {
    /// Creates an empty driver; [`SansIo::mount`] a process before handling
    /// events. The seed feeds `ctx.rng()` — note that a standalone driver
    /// has its own RNG, so only processes that never draw from the context
    /// RNG (every protocol here except Raft's election jitter) replay
    /// bit-identically against a trace recorded under another engine.
    pub fn new(seed: u64) -> Self {
        SansIo {
            addr: None,
            process: None,
            timers: TimerSlab::new(),
            actions: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Registers `process` under `addr`, replacing any process mounted
    /// before; [`SansIo::handle`] drives it from now on.
    pub fn mount(&mut self, addr: Addr, process: Box<dyn Process<M>>) {
        self.addr = Some(addr);
        self.process = Some(process);
    }

    /// The mounted address, if any.
    pub fn addr(&self) -> Option<Addr> {
        self.addr
    }

    /// Whether a timer handle is still armed and uncancelled.
    pub fn timer_live(&self, id: TimerId) -> bool {
        self.timers.is_live(id)
    }

    /// Runs one callback at time `now` and appends the actions the process
    /// emitted to `out` (reusing the internal buffer, so steady-state calls
    /// allocate nothing). A [`Event::Timer`] whose handle is stale is a
    /// no-op, exactly as under a real engine.
    ///
    /// # Panics
    ///
    /// Panics if no process has been mounted.
    pub fn handle_into(&mut self, now: Time, event: Event<M>, out: &mut Vec<Action<M>>) {
        let addr = self.addr.expect("mount a process before driving events");
        let process = self.process.as_mut().expect("process mounted with addr");
        if let Event::Timer { id, .. } = event {
            // Same O(1) generation check every engine performs when a timer
            // pops: retiring a stale handle fails and the event is dropped.
            if !self.timers.retire(id) {
                return;
            }
        }
        debug_assert!(self.actions.is_empty());
        let mut actions = std::mem::take(&mut self.actions);
        {
            let mut ctx = Context::new(now, addr, &mut self.timers, &mut actions, &mut self.rng);
            match event {
                Event::Start => process.on_start(&mut ctx),
                Event::Message { from, msg } => process.on_message(from, msg, &mut ctx),
                Event::Timer { id, kind } => process.on_timer(id, kind, &mut ctx),
            }
        }
        out.append(&mut actions);
        self.actions = actions;
    }

    /// Convenience form of [`SansIo::handle_into`] returning a fresh vector.
    pub fn handle(&mut self, now: Time, event: Event<M>) -> Vec<Action<M>> {
        let mut out = Vec::new();
        self.handle_into(now, event, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iss_types::{Duration, NodeId};

    #[derive(Clone, Debug, PartialEq)]
    struct Msg(u32);
    impl Payload for Msg {
        fn wire_size(&self) -> usize {
            8
        }
    }

    /// Echoes every message back to its sender and re-arms a heartbeat.
    struct Echo {
        heartbeat: Option<TimerId>,
        beats: u32,
    }
    impl Process<Msg> for Echo {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            self.heartbeat = Some(ctx.set_timer(Duration::from_millis(10), 1));
        }
        fn on_message(&mut self, from: Addr, msg: Msg, ctx: &mut Context<'_, Msg>) {
            ctx.send(from, Msg(msg.0 + 1));
            if msg.0 == 99 {
                // Cancel the pending heartbeat on a poison message.
                if let Some(t) = self.heartbeat.take() {
                    ctx.cancel_timer(t);
                }
            }
        }
        fn on_timer(&mut self, _id: TimerId, kind: u64, ctx: &mut Context<'_, Msg>) {
            assert_eq!(kind, 1);
            self.beats += 1;
            self.heartbeat = Some(ctx.set_timer(Duration::from_millis(10), 1));
        }
    }

    fn driver() -> SansIo<Msg> {
        let mut d = SansIo::new(7);
        d.mount(
            Addr::Node(NodeId(0)),
            Box::new(Echo {
                heartbeat: None,
                beats: 0,
            }),
        );
        d
    }

    #[test]
    fn start_message_timer_round_trip() {
        let mut d = driver();
        let start = d.handle(Time::ZERO, Event::Start);
        let Action::SetTimer { id, delay, kind } = start[0] else {
            panic!("expected a heartbeat arm, got {start:?}");
        };
        assert_eq!((delay, kind), (Duration::from_millis(10), 1));
        assert!(d.timer_live(id));

        let replies = d.handle(
            Time::from_millis(1),
            Event::Message {
                from: Addr::Node(NodeId(2)),
                msg: Msg(5),
            },
        );
        assert_eq!(
            replies,
            vec![Action::Send {
                to: Addr::Node(NodeId(2)),
                msg: Msg(6)
            }]
        );

        // The heartbeat fires and re-arms itself under a fresh handle.
        let beat = d.handle(Time::from_millis(10), Event::Timer { id, kind: 1 });
        assert!(!d.timer_live(id), "fired handle is retired");
        assert!(matches!(beat[0], Action::SetTimer { kind: 1, .. }));
    }

    #[test]
    fn stale_timer_events_are_suppressed() {
        let mut d = driver();
        let start = d.handle(Time::ZERO, Event::Start);
        let Action::SetTimer { id, .. } = start[0] else {
            panic!();
        };
        // The poison message cancels the heartbeat in the slab...
        d.handle(
            Time::from_millis(2),
            Event::Message {
                from: Addr::Node(NodeId(1)),
                msg: Msg(99),
            },
        );
        // ...so the queued timer event is dropped on arrival, exactly like
        // the simulator's generation check.
        let fired = d.handle(Time::from_millis(10), Event::Timer { id, kind: 1 });
        assert!(fired.is_empty());
    }

    #[test]
    fn handle_into_reuses_the_buffer() {
        let mut d = driver();
        let mut out = Vec::new();
        d.handle_into(Time::ZERO, Event::Start, &mut out);
        let before = out.len();
        d.handle_into(
            Time::from_millis(1),
            Event::Message {
                from: Addr::Node(NodeId(1)),
                msg: Msg(0),
            },
            &mut out,
        );
        assert_eq!(out.len(), before + 1, "actions append, nothing is lost");
    }
}
