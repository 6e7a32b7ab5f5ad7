//! The [`SbInstance`] trait and its effect vocabulary.

use crate::validator::ProposalValidator;
use iss_messages::SbMsg;
use iss_types::{Batch, Duration, NodeId, SeqNr, Time};
use rand::rngs::StdRng;

/// Effects an SB instance can request from its embedding.
#[derive(Debug)]
pub enum SbAction {
    /// Send a protocol message to one node.
    Send {
        /// Destination node.
        to: NodeId,
        /// The message.
        msg: SbMsg,
    },
    /// Send a protocol message to every node of the segment except the local
    /// one.
    Broadcast(SbMsg),
    /// sb-deliver: commit `batch` (or ⊥ when `None`) at `seq_nr`.
    Deliver {
        /// The delivered sequence number.
        seq_nr: SeqNr,
        /// The delivered batch, or `None` for the nil value ⊥.
        batch: Option<Batch>,
    },
    /// Arm the instance's one timer: [`SbInstance::on_timer`] runs with
    /// `token` after `delay`. Arming again replaces the earlier arming, its
    /// deadline and its token; nothing cancels the timer.
    SetTimer {
        /// Token passed back on expiry.
        token: u64,
        /// Delay until expiry.
        delay: Duration,
    },
}

/// Per-callback context handed to an SB instance.
///
/// It carries the current time, the proposal validator of the embedding and
/// a deterministic RNG, and buffers the instance's requested actions.
pub struct SbContext<'a> {
    /// Current virtual time.
    pub now: Time,
    /// Validator used to check proposals received from the (remote) leader.
    pub validator: &'a mut dyn ProposalValidator,
    /// Deterministic randomness (e.g. Raft election jitter).
    pub rng: &'a mut StdRng,
    actions: Vec<SbAction>,
}

impl<'a> SbContext<'a> {
    /// Creates a context.
    pub fn new(now: Time, validator: &'a mut dyn ProposalValidator, rng: &'a mut StdRng) -> Self {
        SbContext {
            now,
            validator,
            rng,
            actions: Vec::new(),
        }
    }

    /// Sends a message to one node.
    pub fn send(&mut self, to: NodeId, msg: SbMsg) {
        self.actions.push(SbAction::Send { to, msg });
    }

    /// Broadcasts a message to all other nodes of the segment.
    pub fn broadcast(&mut self, msg: SbMsg) {
        self.actions.push(SbAction::Broadcast(msg));
    }

    /// Delivers a batch (or ⊥) for a sequence number.
    pub fn deliver(&mut self, seq_nr: SeqNr, batch: Option<Batch>) {
        self.actions.push(SbAction::Deliver { seq_nr, batch });
    }

    /// Arms the instance's timer, replacing any earlier arming.
    pub fn set_timer(&mut self, token: u64, delay: Duration) {
        self.actions.push(SbAction::SetTimer { token, delay });
    }

    /// Drains the buffered actions (embedding use).
    pub fn take_actions(self) -> Vec<SbAction> {
        self.actions
    }

    /// Number of buffered actions (testing helper).
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Whether no actions have been buffered.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }
}

/// One Sequenced Broadcast instance: the ordering protocol responsible for a
/// single segment.
///
/// The embedding (the ISS Orderer module, or a test harness) drives the
/// instance by calling these methods and applying the returned actions; the
/// instance never touches the network or the clock directly.
pub trait SbInstance {
    /// `SB-INIT`: start the instance (leaders typically do nothing here;
    /// followers arm their leader-failure timers).
    fn init(&mut self, ctx: &mut SbContext<'_>);

    /// `SB-CAST(sn, batch)`: the local node is the segment leader and
    /// proposes `batch` for `sn`. Must only be called at the designated
    /// sender and only for sequence numbers of the segment.
    fn propose(&mut self, seq_nr: SeqNr, batch: Batch, ctx: &mut SbContext<'_>);

    /// A protocol message for this instance arrived from `from`.
    fn on_message(&mut self, from: NodeId, msg: SbMsg, ctx: &mut SbContext<'_>);

    /// The instance's timer expired: this runs once per arming that no later
    /// arming replaced, at its deadline and with its token. This is also
    /// where an instance suspects its sender: each implementation derives
    /// its ◇S(bz) failure detector from its own timeout (Section 4.2.4).
    fn on_timer(&mut self, token: u64, ctx: &mut SbContext<'_>);

    /// Whether the instance has delivered a value for every sequence number
    /// of its segment (SB3 Termination reached).
    fn is_complete(&self) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validator::AcceptAll;
    use rand::SeedableRng;

    #[test]
    fn context_buffers_all_action_kinds() {
        let mut v = AcceptAll;
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = SbContext::new(Time::from_secs(1), &mut v, &mut rng);
        assert!(ctx.is_empty());
        ctx.send(
            NodeId(1),
            SbMsg::Reference(iss_messages::RefSbMsg::Heartbeat),
        );
        ctx.broadcast(SbMsg::Reference(iss_messages::RefSbMsg::Heartbeat));
        ctx.deliver(3, None);
        ctx.deliver(4, Some(Batch::empty()));
        ctx.set_timer(1, Duration::from_secs(1));
        assert_eq!(ctx.len(), 5);
        let actions = ctx.take_actions();
        assert!(matches!(actions[0], SbAction::Send { to: NodeId(1), .. }));
        assert!(matches!(actions[1], SbAction::Broadcast(_)));
        assert!(matches!(
            actions[2],
            SbAction::Deliver {
                seq_nr: 3,
                batch: None
            }
        ));
        assert!(matches!(
            actions[3],
            SbAction::Deliver {
                seq_nr: 4,
                batch: Some(_)
            }
        ));
        assert!(matches!(actions[4], SbAction::SetTimer { token: 1, .. }));
    }

    #[test]
    fn context_exposes_time_and_rng() {
        let mut v = AcceptAll;
        let mut rng = StdRng::seed_from_u64(7);
        let ctx = SbContext::new(Time::from_millis(250), &mut v, &mut rng);
        assert_eq!(ctx.now, Time::from_millis(250));
        use rand::Rng;
        let x: u64 = ctx.rng.gen_range(0..10);
        assert!(x < 10);
    }
}
