//! The process model: every participant (replica or client)
//! implements [`Process`] and interacts with the world exclusively through a
//! [`Context`].
//!
//! Keeping the interface this narrow makes protocol state machines
//! deterministic and lets the same implementation run on the discrete-event
//! simulator (`iss-simnet`), on a real threaded transport (`iss-net`), or
//! standalone under the [`crate::driver::SansIo`] driver for trace replay.
//!
//! A timer is armed once and fires once; nothing cancels it. Its handle,
//! `TimerId(n)`, says it is the n-th timer this process incarnation armed,
//! counted by the driver from zero at every (re)start, so every driver
//! hands a process the same handles and keeps no per-timer state.

use iss_types::{ClientId, Duration, NodeId, Time, TimerId};
use rand::rngs::StdRng;

/// Address of a participant.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Addr {
    /// A replica.
    Node(NodeId),
    /// A client.
    Client(ClientId),
}

impl Addr {
    /// Whether the address denotes a replica.
    pub fn is_node(&self) -> bool {
        matches!(self, Addr::Node(_))
    }

    /// Returns the node identifier if this is a node address.
    pub fn as_node(&self) -> Option<NodeId> {
        match self {
            Addr::Node(n) => Some(*n),
            _ => None,
        }
    }

    /// Returns the client identifier if this is a client address.
    pub fn as_client(&self) -> Option<ClientId> {
        match self {
            Addr::Client(c) => Some(*c),
            _ => None,
        }
    }
}

impl From<NodeId> for Addr {
    fn from(n: NodeId) -> Self {
        Addr::Node(n)
    }
}

impl From<ClientId> for Addr {
    fn from(c: ClientId) -> Self {
        Addr::Client(c)
    }
}

/// Anything that can travel over a network.
///
/// Re-exported from [`iss_types::payload`] so protocol crates can implement
/// it without depending on any runtime.
pub use iss_types::Payload;

/// Actions a process can request from its driver during a single callback.
///
/// A timer is armed once and fires once: there is no cancellation, and a
/// process that no longer wants a timeout ignores its fire itself. Durable
/// storage is not an action either: a node that persists holds its
/// `Storage` handle directly (the handle *is* the disk), so a commit is
/// durable before the callback returns instead of at some later point in
/// the driver's action loop.
#[derive(Debug, Clone, PartialEq)]
pub enum Action<M> {
    /// Send `msg` to `to`.
    Send {
        /// Destination address.
        to: Addr,
        /// The message.
        msg: M,
    },
    /// Arm a timer firing after `delay`, identified by `id` and carrying the
    /// opaque `kind` tag back to the process.
    SetTimer {
        /// Handle assigned by the context.
        id: TimerId,
        /// Delay until the timer fires.
        delay: Duration,
        /// Opaque tag passed back in `on_timer`.
        kind: u64,
    },
}

/// Execution context handed to a process on every callback.
///
/// The context *buffers* actions in a driver-owned buffer (reused across
/// invocations, so steady-state callbacks allocate nothing); the driver
/// applies them after the callback returns, which keeps the borrow structure
/// simple and the execution deterministic.
pub struct Context<'a, M> {
    now: Time,
    self_addr: Addr,
    next_timer: &'a mut u64,
    actions: &'a mut Vec<Action<M>>,
    rng: &'a mut StdRng,
}

impl<'a, M> Context<'a, M> {
    /// Creates a context (used by drivers; protocol code never constructs
    /// one). `next_timer` is the number of timers this process incarnation
    /// has armed so far, which the driver keeps; `actions` is the driver's
    /// reusable buffer and must be empty.
    pub fn new(
        now: Time,
        self_addr: Addr,
        next_timer: &'a mut u64,
        actions: &'a mut Vec<Action<M>>,
        rng: &'a mut StdRng,
    ) -> Self {
        debug_assert!(actions.is_empty());
        Context {
            now,
            self_addr,
            next_timer,
            actions,
            rng,
        }
    }

    /// Current time (virtual under the simulator, monotonic-clock micros
    /// under a real transport).
    pub fn now(&self) -> Time {
        self.now
    }

    /// The address of the process being invoked.
    pub fn self_addr(&self) -> Addr {
        self.self_addr
    }

    /// Sends a message to another participant.
    pub fn send(&mut self, to: Addr, msg: M) {
        self.actions.push(Action::Send { to, msg });
    }

    /// Sends the same message to every node in `nodes` except the sender
    /// itself (self-delivery, when needed, is the caller's responsibility —
    /// protocols in this codebase handle their own state locally).
    pub fn broadcast(&mut self, nodes: &[NodeId], msg: M)
    where
        M: Clone,
    {
        for &n in nodes {
            if Addr::Node(n) != self.self_addr {
                self.send(Addr::Node(n), msg.clone());
            }
        }
    }

    /// Arms a timer that fires once, after `delay`. The handle is
    /// `TimerId(n)` for the n-th timer this process incarnation armed, so
    /// every driver numbers a process's timers alike.
    pub fn set_timer(&mut self, delay: Duration, kind: u64) -> TimerId {
        let id = TimerId(*self.next_timer);
        *self.next_timer += 1;
        self.actions.push(Action::SetTimer { id, delay, kind });
        id
    }

    /// Deterministic random number generator (seeded per run by the driver).
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Marks the current position in the action buffer. Together with
    /// [`Context::rewrite_sends_since`] this lets a wrapper process intercept
    /// everything an inner process sent during a callback.
    pub fn mark(&self) -> usize {
        self.actions.len()
    }

    /// Rewrites every [`Action::Send`] buffered since `mark` through `f`.
    ///
    /// `f` receives the original destination and message plus an `emit`
    /// callback; whatever it emits replaces the original send (emit zero
    /// times to drop it, several times to multiply or equivocate). Non-send
    /// actions (timers) buffered in the same window are kept untouched, and
    /// the relative order of actions `f` leaves alone is preserved.
    ///
    /// This is the engine-agnostic primitive behind adversarial `Behavior`
    /// wrappers (`iss_sim::adversary`): interception operates on the plain
    /// action list, never on driver internals, so the same wrapper works
    /// under every driver.
    pub fn rewrite_sends_since(
        &mut self,
        mark: usize,
        mut f: impl FnMut(Addr, M, &mut dyn FnMut(Addr, M)),
    ) {
        debug_assert!(mark <= self.actions.len());
        let tail: Vec<Action<M>> = self.actions.drain(mark..).collect();
        for action in tail {
            match action {
                Action::Send { to, msg } => {
                    let sink: &mut Vec<Action<M>> = self.actions;
                    let mut emit = |to: Addr, msg: M| sink.push(Action::Send { to, msg });
                    f(to, msg, &mut emit);
                }
                other => self.actions.push(other),
            }
        }
    }
}

/// A deterministic, event-driven participant.
pub trait Process<M: Payload> {
    /// Invoked once when the run starts.
    fn on_start(&mut self, ctx: &mut Context<'_, M>);

    /// Invoked when a message from `from` is delivered to this process.
    fn on_message(&mut self, from: Addr, msg: M, ctx: &mut Context<'_, M>);

    /// Invoked when a timer armed by this process fires. `kind` is the tag
    /// passed to [`Context::set_timer`].
    fn on_timer(&mut self, id: TimerId, kind: u64, ctx: &mut Context<'_, M>);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[derive(Clone, Debug)]
    struct Msg(usize);
    impl Payload for Msg {
        fn wire_size(&self) -> usize {
            self.0
        }
    }

    #[test]
    fn addr_helpers() {
        let n: Addr = NodeId(1).into();
        let c: Addr = ClientId(2).into();
        assert!(n.is_node());
        assert!(!c.is_node());
        assert_eq!(n.as_node(), Some(NodeId(1)));
        assert_eq!(n.as_client(), None);
        assert_eq!(c.as_client(), Some(ClientId(2)));
        assert_eq!(c.as_node(), None);
    }

    #[test]
    fn context_buffers_actions() {
        let mut timers = 0;
        let mut actions = Vec::new();
        let mut rng = StdRng::seed_from_u64(1);
        {
            let mut ctx = Context::new(
                Time::from_secs(1),
                Addr::Node(NodeId(0)),
                &mut timers,
                &mut actions,
                &mut rng,
            );
            assert_eq!(ctx.now(), Time::from_secs(1));
            assert_eq!(ctx.self_addr(), Addr::Node(NodeId(0)));
            ctx.send(Addr::Node(NodeId(1)), Msg(10));
            assert_eq!(ctx.set_timer(Duration::from_millis(5), 7), TimerId(0));
        }
        // Send and SetTimer are buffered, in order, and the context counted
        // the armed timer.
        assert_eq!(actions.len(), 2);
        assert!(matches!(
            actions[0],
            Action::Send {
                to: Addr::Node(NodeId(1)),
                ..
            }
        ));
        assert!(matches!(actions[1], Action::SetTimer { kind: 7, .. }));
        assert_eq!(timers, 1);
    }

    #[test]
    fn broadcast_excludes_self() {
        let mut timers = 0;
        let mut actions = Vec::new();
        let mut rng = StdRng::seed_from_u64(1);
        {
            let mut ctx = Context::new(
                Time::ZERO,
                Addr::Node(NodeId(0)),
                &mut timers,
                &mut actions,
                &mut rng,
            );
            let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
            ctx.broadcast(&nodes, Msg(1));
        }
        let sends: Vec<_> = actions
            .into_iter()
            .filter_map(|a| match a {
                Action::Send { to, .. } => Some(to),
                _ => None,
            })
            .collect();
        assert_eq!(
            sends,
            vec![
                Addr::Node(NodeId(1)),
                Addr::Node(NodeId(2)),
                Addr::Node(NodeId(3))
            ]
        );
    }

    #[test]
    fn rewrite_sends_since_drops_multiplies_and_keeps_timers() {
        let mut timers = 0;
        let mut actions = Vec::new();
        let mut rng = StdRng::seed_from_u64(1);
        {
            let mut ctx: Context<'_, Msg> = Context::new(
                Time::ZERO,
                Addr::Node(NodeId(0)),
                &mut timers,
                &mut actions,
                &mut rng,
            );
            // A send buffered before the mark must be untouchable.
            ctx.send(Addr::Node(NodeId(9)), Msg(99));
            let mark = ctx.mark();
            ctx.send(Addr::Node(NodeId(1)), Msg(1));
            ctx.set_timer(Duration::from_millis(5), 7);
            ctx.send(Addr::Node(NodeId(2)), Msg(2));
            ctx.rewrite_sends_since(mark, |to, msg, emit| match msg.0 {
                1 => {} // drop
                2 => {
                    // duplicate to two destinations
                    emit(to, Msg(20));
                    emit(Addr::Node(NodeId(3)), Msg(21));
                }
                _ => emit(to, msg),
            });
        }
        // Pre-mark send intact, timer preserved in place, send 1 dropped,
        // send 2 rewritten into two sends.
        assert_eq!(actions.len(), 4);
        assert!(
            matches!(&actions[0], Action::Send { to: Addr::Node(NodeId(9)), msg } if msg.0 == 99)
        );
        assert!(matches!(actions[1], Action::SetTimer { kind: 7, .. }));
        assert!(
            matches!(&actions[2], Action::Send { to: Addr::Node(NodeId(2)), msg } if msg.0 == 20)
        );
        assert!(
            matches!(&actions[3], Action::Send { to: Addr::Node(NodeId(3)), msg } if msg.0 == 21)
        );
    }

    #[test]
    fn rewrite_sends_since_noop_rewriter_preserves_everything() {
        let mut timers = 0;
        let mut actions = Vec::new();
        let mut rng = StdRng::seed_from_u64(1);
        {
            let mut ctx: Context<'_, Msg> = Context::new(
                Time::ZERO,
                Addr::Node(NodeId(0)),
                &mut timers,
                &mut actions,
                &mut rng,
            );
            let mark = ctx.mark();
            ctx.send(Addr::Node(NodeId(1)), Msg(1));
            ctx.send(Addr::Node(NodeId(2)), Msg(2));
            ctx.rewrite_sends_since(mark, |to, msg, emit| emit(to, msg));
        }
        let sends: Vec<_> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Send { to, msg } => Some((*to, msg.0)),
                _ => None,
            })
            .collect();
        assert_eq!(
            sends,
            vec![(Addr::Node(NodeId(1)), 1), (Addr::Node(NodeId(2)), 2)]
        );
    }

    #[test]
    fn timer_ids_are_unique() {
        let mut timers = 0;
        let mut actions = Vec::new();
        let mut rng = StdRng::seed_from_u64(1);
        let mut ctx: Context<'_, Msg> = Context::new(
            Time::ZERO,
            Addr::Node(NodeId(0)),
            &mut timers,
            &mut actions,
            &mut rng,
        );
        let a = ctx.set_timer(Duration::from_millis(1), 0);
        let b = ctx.set_timer(Duration::from_millis(1), 0);
        assert_ne!(a, b);
        assert_eq!((a, b), (TimerId(0), TimerId(1)));
    }
}
