//! Drivers: the things that host a [`Process`] and feed it [`Event`]s.
//!
//! A driver owns everything ambient a process is allowed to observe — the
//! clock behind `ctx.now()`, the count of timers armed behind timer handles,
//! the seeded RNG — and interprets the [`Action`] list each callback emits.
//! It keeps no per-timer state: a timer fires once, and nothing cancels it.
//! `iss-simnet`'s `Runtime` and `iss-net`'s `TcpRuntime` are the two real
//! drivers; [`SansIo`] is the degenerate one that interprets nothing and
//! returns the actions to the caller, which is exactly what standalone trace
//! replay needs.

use crate::process::{Action, Addr, Context, Payload, Process};
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
/// `SansIo` owns the full ambient state of one process — its timer count
/// (so `set_timer` handles are numbered exactly as under a real engine), a
/// reusable action buffer, and a per-driver seeded RNG. [`SansIo::handle`]
/// runs one callback and returns what the process decided; every event is
/// delivered, timer events included.
///
/// Used by the trace-equivalence suite (replay a recorded simnet trace
/// through a fresh node and diff the decisions) and by `iss-net`'s protocol
/// thread (which turns the returned actions into socket writes and timer
/// wheel entries).
pub struct SansIo<M> {
    addr: Option<Addr>,
    process: Option<Box<dyn Process<M>>>,
    /// Timers the mounted process armed so far: the next handle.
    next_timer: u64,
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
            next_timer: 0,
            actions: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Registers `process` under `addr`, replacing any process mounted
    /// before; [`SansIo::handle`] drives it from now on. The mounted process
    /// is a new incarnation: its timers are numbered from zero.
    pub fn mount(&mut self, addr: Addr, process: Box<dyn Process<M>>) {
        self.addr = Some(addr);
        self.process = Some(process);
        self.next_timer = 0;
    }

    /// Runs one callback at time `now` and appends the actions the process
    /// emitted to `out` (reusing the internal buffer, so steady-state calls
    /// allocate nothing).
    ///
    /// # Panics
    ///
    /// Panics if no process has been mounted.
    pub fn handle_into(&mut self, now: Time, event: Event<M>, out: &mut Vec<Action<M>>) {
        let addr = self.addr.expect("mount a process before driving events");
        let process = self.process.as_mut().expect("process mounted with addr");
        debug_assert!(self.actions.is_empty());
        let mut actions = std::mem::take(&mut self.actions);
        {
            let mut ctx =
                Context::new(now, addr, &mut self.next_timer, &mut actions, &mut self.rng);
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
    struct Echo;
    impl Process<Msg> for Echo {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            ctx.set_timer(Duration::from_millis(10), 1);
        }
        fn on_message(&mut self, from: Addr, msg: Msg, ctx: &mut Context<'_, Msg>) {
            ctx.send(from, Msg(msg.0 + 1));
        }
        fn on_timer(&mut self, _id: TimerId, kind: u64, ctx: &mut Context<'_, Msg>) {
            assert_eq!(kind, 1);
            ctx.set_timer(Duration::from_millis(10), 1);
        }
    }

    fn driver() -> SansIo<Msg> {
        let mut d = SansIo::new(7);
        d.mount(Addr::Node(NodeId(0)), Box::new(Echo));
        d
    }

    #[test]
    fn start_message_timer_round_trip() {
        let mut d = driver();
        let start = d.handle(Time::ZERO, Event::Start);
        let Action::SetTimer { id, delay, kind } = start[0] else {
            panic!("expected a heartbeat arm, got {start:?}");
        };
        assert_eq!(
            (id, delay, kind),
            (TimerId(0), Duration::from_millis(10), 1)
        );

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

        // The heartbeat fires and re-arms itself under the next handle.
        let beat = d.handle(Time::from_millis(10), Event::Timer { id, kind: 1 });
        assert!(matches!(
            beat[0],
            Action::SetTimer {
                id: TimerId(1),
                kind: 1,
                ..
            }
        ));
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
