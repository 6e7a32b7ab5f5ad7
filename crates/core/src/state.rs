//! The Manager's epoch-scoped bookkeeping ([`EpochState`]): the live SB
//! instances and their timers, the leader of each sequence number, the
//! batches this node proposed, and which instance each runtime timer
//! belongs to.
//!
//! An SB instance is addressed by its [`InstanceId`], the `(epoch, segment)`
//! pair of the paper. Each live epoch has one arena, found by
//! `epoch - front_epoch` because epochs are contiguous. An arena holds the
//! epoch's instances (each with its one timer) by segment index, its
//! leaders in segment order and this node's proposals by sequence-number
//! offset. Sequence numbers are laid out round-robin over the leaders
//! (Figure 1, [`crate::EpochConfig::build`]), so the leader of `sn` is
//! `leaders[(sn - first_seq_nr) % leaders.len()]`. Dispatch and `leader_of`
//! are array reads, and a fired timer is one hash lookup away from its
//! instance.
//!
//! Garbage collection retires an epoch's instances and drops its arena once
//! the stable-checkpoint cut passes its last sequence number; until then the
//! arena still answers `leader_of`. A late message or a timer that fires
//! after its epoch was collected finds the arena gone or retired and is
//! ignored.
//!
//! An SB instance has one timer, and arming it again moves its deadline
//! (the SB contract). The instance's slot keeps the latest deadline and
//! token and the one runtime timer armed to wake it; runtime timers are
//! never cancelled, and a route leaves the table when its timer fires. A
//! re-arm at or after that timer's expiry arms nothing; a fire before the
//! deadline arms the remaining time; a re-arm to an earlier deadline arms a
//! new runtime timer, and the one it supersedes resolves to nothing.
//!
//! `crates/core/tests/state_equivalence.rs` checks this state in lockstep
//! against a `HashMap` oracle over randomized epoch lifecycles.

use iss_sb::SbInstance;
use iss_types::{Batch, Duration, EpochNr, FxHashMap, InstanceId, NodeId, SeqNr, Time, TimerId};
use std::collections::VecDeque;

/// An SB instance and its one timer.
#[derive(Default)]
struct Slot {
    /// `None` while the instance is out for a callback.
    instance: Option<Box<dyn SbInstance>>,
    /// The deadline and token of the instance's latest arming.
    deadline: Time,
    token: u64,
    /// The runtime timer armed to wake the instance and its expiry, at or
    /// before `deadline`; `None` once the latest arming is spent.
    wake: Option<(TimerId, Time)>,
}

/// One live epoch.
struct EpochArena {
    epoch: EpochNr,
    first_seq_nr: SeqNr,
    /// The epoch's leaders in segment order.
    leaders: Vec<NodeId>,
    /// The SB instances by segment index, empty once the epoch's instances
    /// are retired (every epoch has at least one segment).
    slots: Vec<Slot>,
    /// This node's proposed batch per sequence-number offset; its length is
    /// the epoch's length.
    proposed: Vec<Option<Batch>>,
}

impl EpochArena {
    fn offset_of(&self, sn: SeqNr) -> Option<usize> {
        let offset = sn.checked_sub(self.first_seq_nr)?;
        (offset < self.proposed.len() as u64).then_some(offset as usize)
    }

    fn end(&self) -> SeqNr {
        self.first_seq_nr + self.proposed.len() as u64
    }
}

/// The Manager's per-epoch bookkeeping: instance storage and dispatch,
/// sequence-number → leader resolution, the leader's own proposed batches,
/// and instance-timer routing. See the module docs for the layout.
///
/// The contract (all of it exercised by the lockstep property suite):
///
/// * `begin_epoch` opens a new arena with the epoch's leaders; epochs must
///   be opened in order. `insert_instance` stores its SB instances in
///   segment order.
/// * `take_instance` / `restore_instance` bracket a callback into an
///   instance (the node's `drive` loop); a take of a collected or
///   already-taken instance returns `None`, and an instance restored after
///   its epoch was collected is dropped.
/// * `set_timer` moves an instance's one deadline, arming a runtime timer
///   only when none armed for it expires by then; `fire_timer` resolves a
///   runtime timer to the (instance, token) whose deadline it reached, and
///   to `None` when it fired early (and armed the rest), was superseded,
///   or outlived its instance.
/// * `record_proposed` / `take_proposed` / `clear_proposed` track the
///   batches this node proposed for its own segment (resurrection on ⊥).
/// * `gc(keep_epochs_from, leader_cut)` retires the instances of epochs
///   before `keep_epochs_from` and forgets leaders below `leader_cut` (the
///   stable-checkpoint cut; `None` keeps them all).
#[derive(Default)]
pub struct EpochState {
    /// Live epochs, oldest first: the arena of epoch `e` sits at index
    /// `e - arenas[0].epoch`.
    arenas: VecDeque<EpochArena>,
    /// Runtime timer → the instance it wakes, removed when the timer fires.
    timer_routes: FxHashMap<TimerId, InstanceId>,
    /// `leader_of` answers `None` below this (stable-checkpoint) cut.
    leader_cut: SeqNr,
}

impl EpochState {
    /// Creates an empty state.
    pub fn new() -> Self {
        Self::default()
    }

    fn arena_index(&self, epoch: EpochNr) -> Option<usize> {
        let front = self.arenas.front()?.epoch;
        Some(epoch.checked_sub(front)? as usize)
    }

    fn slot_mut(&mut self, id: InstanceId) -> Option<&mut Slot> {
        let index = self.arena_index(id.epoch)?;
        let arena = self.arenas.get_mut(index)?;
        arena.slots.get_mut(id.index as usize)
    }

    /// The proposal slot of `sn`, searched newest epoch first.
    fn proposed_mut(&mut self, sn: SeqNr) -> Option<&mut Option<Batch>> {
        self.arenas.iter_mut().rev().find_map(|a| {
            let offset = a.offset_of(sn)?;
            Some(&mut a.proposed[offset])
        })
    }

    /// Number of live epoch arenas (tests).
    pub fn arena_count(&self) -> usize {
        self.arenas.len()
    }

    /// Opens the arena of `epoch`, whose sequence numbers
    /// `first_seq_nr .. first_seq_nr + length` are laid out round-robin over
    /// `leaders`.
    pub fn begin_epoch(
        &mut self,
        epoch: EpochNr,
        first_seq_nr: SeqNr,
        length: u64,
        leaders: Vec<NodeId>,
    ) {
        assert!(!leaders.is_empty(), "an epoch needs at least one leader");
        if let Some(back) = self.arenas.back() {
            assert_eq!(epoch, back.epoch + 1, "epochs must be opened in order");
        }
        self.arenas.push_back(EpochArena {
            epoch,
            first_seq_nr,
            leaders,
            slots: Vec::new(),
            proposed: (0..length).map(|_| None).collect(),
        });
    }

    /// Stores the SB instance of segment `id` of the most recently opened
    /// epoch; segments are inserted in order.
    pub fn insert_instance(&mut self, id: InstanceId, instance: Box<dyn SbInstance>) {
        let arena = self.arenas.back_mut().expect("no epoch opened");
        assert_eq!(
            (id.epoch, id.index as usize),
            (arena.epoch, arena.slots.len()),
            "instances are inserted into the newest epoch in segment order"
        );
        arena.slots.push(Slot {
            instance: Some(instance),
            ..Slot::default()
        });
    }

    /// Takes the instance `id` out for a callback. Returns `None` if it was
    /// collected, never existed or is already out.
    pub fn take_instance(&mut self, id: InstanceId) -> Option<Box<dyn SbInstance>> {
        self.slot_mut(id)?.instance.take()
    }

    /// Puts an instance taken with [`Self::take_instance`] back. If its epoch
    /// was collected while it was out, the instance is dropped.
    pub fn restore_instance(&mut self, id: InstanceId, instance: Box<dyn SbInstance>) {
        if let Some(slot) = self.slot_mut(id) {
            debug_assert!(slot.instance.is_none(), "restore over an untaken instance");
            slot.instance = Some(instance);
        }
    }

    /// The leader of the segment that owns `sn`, if its epoch is still
    /// known.
    pub fn leader_of(&self, sn: SeqNr) -> Option<NodeId> {
        if sn < self.leader_cut {
            return None;
        }
        self.arenas.iter().rev().find_map(|a| {
            let offset = a.offset_of(sn)?;
            Some(a.leaders[offset % a.leaders.len()])
        })
    }

    /// Records the batch this node proposed for `sn` (own segment only).
    pub fn record_proposed(&mut self, sn: SeqNr, batch: Batch) {
        if let Some(slot) = self.proposed_mut(sn) {
            *slot = Some(batch);
        }
    }

    /// Takes the batch this node proposed for `sn`, if any (⊥ delivery:
    /// the requests are resurrected by the caller).
    pub fn take_proposed(&mut self, sn: SeqNr) -> Option<Batch> {
        self.proposed_mut(sn)?.take()
    }

    /// Forgets every recorded proposal (epoch start).
    pub fn clear_proposed(&mut self) {
        for arena in &mut self.arenas {
            arena.proposed.fill(None);
        }
    }

    /// Arms the timer of instance `id` to expire with `token` at `now +
    /// delay`, replacing its earlier arming. `arm(delay)` arms a runtime
    /// timer; it is called only when none armed for the instance expires by
    /// the new deadline. A collected instance arms nothing.
    pub fn set_timer(
        &mut self,
        id: InstanceId,
        token: u64,
        now: Time,
        delay: Duration,
        arm: impl FnOnce(Duration) -> TimerId,
    ) {
        let deadline = now + delay;
        let Some(slot) = self.slot_mut(id) else {
            return;
        };
        (slot.deadline, slot.token) = (deadline, token);
        if slot.wake.is_some_and(|(_, at)| at <= deadline) {
            return;
        }
        let wake = arm(delay);
        slot.wake = Some((wake, deadline));
        self.timer_routes.insert(wake, id);
    }

    /// Resolves the runtime timer `timer`, fired at `now`, to the instance
    /// and token whose deadline it reached; that arming is then spent. It
    /// resolves to `None` when it fired before the deadline (and armed the
    /// rest through `arm`), when a nearer arming superseded it, or when its
    /// instance was collected.
    pub fn fire_timer(
        &mut self,
        timer: TimerId,
        now: Time,
        arm: impl FnOnce(Duration) -> TimerId,
    ) -> Option<(InstanceId, u64)> {
        let id = self.timer_routes.remove(&timer)?;
        let slot = self.slot_mut(id)?;
        slot.wake.filter(|&(wake, _)| wake == timer)?;
        slot.wake = None;
        if now >= slot.deadline {
            return Some((id, slot.token));
        }
        let (token, rest) = (slot.token, slot.deadline.saturating_since(now));
        self.set_timer(id, token, now, rest, arm);
        None
    }

    /// Epoch garbage collection: retires the instances of every epoch before
    /// `keep_epochs_from` and, when `leader_cut` is set, forgets `leader_of`
    /// below the cut. An arena goes once both have happened to it.
    pub fn gc(&mut self, keep_epochs_from: EpochNr, leader_cut: Option<SeqNr>) {
        // `proposed` is left alone: the node clears it with
        // `clear_proposed` when it sets up the next epoch.
        for arena in self.arenas.iter_mut() {
            if arena.epoch < keep_epochs_from {
                arena.slots = Vec::new();
            }
        }
        if let Some(cut) = leader_cut {
            self.leader_cut = self.leader_cut.max(cut);
        }
        while self
            .arenas
            .front()
            .is_some_and(|a| a.slots.is_empty() && a.end() <= self.leader_cut)
        {
            self.arenas.pop_front();
        }
    }

    /// Number of live (not collected) instances, counting taken ones.
    /// Diagnostics and tests.
    pub fn live_instances(&self) -> usize {
        self.arenas.iter().map(|a| a.slots.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::EpochConfig;
    use iss_sb::testing::NullSb;
    use iss_types::IssConfig;

    fn null() -> Box<dyn SbInstance> {
        Box::new(NullSb)
    }

    /// Opens `epoch` with `segments` leaders `NodeId(0..segments)` and one
    /// instance each; returns the instance ids.
    fn epoch_with_instances(
        state: &mut EpochState,
        epoch: EpochNr,
        first: SeqNr,
        segments: u32,
        sns_per_segment: u64,
    ) -> Vec<InstanceId> {
        let length = segments as u64 * sns_per_segment;
        state.begin_epoch(epoch, first, length, (0..segments).map(NodeId).collect());
        (0..segments)
            .map(|s| {
                let id = InstanceId::new(epoch, s);
                state.insert_instance(id, null());
                id
            })
            .collect()
    }

    #[test]
    fn dense_dispatch_roundtrip() {
        let mut state = EpochState::new();
        let ids = epoch_with_instances(&mut state, 0, 0, 4, 3);
        assert_eq!(state.live_instances(), 4);
        for id in ids {
            let inst = state.take_instance(id).expect("live");
            // While taken, a second take fails but the instance stays live.
            assert!(state.take_instance(id).is_none());
            assert_eq!(state.live_instances(), 4);
            state.restore_instance(id, inst);
            let again = state.take_instance(id).expect("restored");
            state.restore_instance(id, again);
        }
        assert!(state.take_instance(InstanceId::new(0, 4)).is_none());
        assert!(state.take_instance(InstanceId::new(1, 0)).is_none());
        assert_eq!(state.leader_of(0), Some(NodeId(0)));
        assert_eq!(state.leader_of(5), Some(NodeId(1)));
        assert_eq!(state.leader_of(12), None);
    }

    #[test]
    fn gc_retires_instances_then_drops_the_arena_at_the_cut() {
        let mut state = EpochState::new();
        let old = epoch_with_instances(&mut state, 0, 0, 4, 2);
        let kept = epoch_with_instances(&mut state, 1, 8, 4, 2);
        let out = state.take_instance(old[0]).expect("live");
        assert_eq!(state.live_instances(), 8);
        state.gc(1, None);
        assert_eq!(state.live_instances(), 4);
        for id in &old {
            assert!(state.take_instance(*id).is_none(), "retired");
        }
        state.restore_instance(old[0], out);
        assert!(state.take_instance(old[0]).is_none(), "restored into GC");
        // Leaders survive until the checkpoint cut...
        assert_eq!(state.leader_of(0), Some(NodeId(0)));
        state.gc(1, Some(8));
        assert_eq!(state.leader_of(0), None);
        assert_eq!(state.leader_of(8), Some(NodeId(0)));
        assert_eq!(state.arena_count(), 1, "dead arena dropped wholesale");
        // ...and a later epoch never revives a collected instance.
        epoch_with_instances(&mut state, 2, 16, 4, 2);
        assert!(state.take_instance(old[1]).is_none());
        assert!(state.take_instance(kept[1]).is_some());
    }

    #[test]
    fn timers_route_in_o1_and_die_with_their_instance() {
        let ms = Time::from_millis;
        let mut state = EpochState::new();
        let ids = epoch_with_instances(&mut state, 0, 0, 2, 2);
        let mut armed = Vec::new();
        let mut arm = |delay: Duration| {
            armed.push(delay);
            TimerId(armed.len() as u64)
        };
        let d = Duration::from_millis;
        // A re-arm to a later deadline arms nothing; the early fire arms the
        // remaining 2 ms, and the deadline's fire resolves once.
        state.set_timer(ids[1], 9, ms(0), d(10), &mut arm);
        state.set_timer(ids[1], 7, ms(2), d(10), &mut arm);
        assert_eq!(state.fire_timer(TimerId(1), ms(10), &mut arm), None);
        assert_eq!(state.fire_timer(TimerId(1), ms(10), &mut arm), None);
        assert_eq!(
            state.fire_timer(TimerId(2), ms(12), &mut arm),
            Some((ids[1], 7))
        );
        assert_eq!(state.fire_timer(TimerId(2), ms(12), &mut arm), None, "once");
        // A re-arm to an earlier deadline arms anew; the old timer is dead.
        state.set_timer(ids[0], 1, ms(20), d(50), &mut arm);
        state.set_timer(ids[0], 2, ms(21), d(5), &mut arm);
        assert_eq!(
            state.fire_timer(TimerId(4), ms(26), &mut arm),
            Some((ids[0], 2))
        );
        assert_eq!(state.fire_timer(TimerId(3), ms(70), &mut arm), None);
        // A timer surviving its instance resolves to None after GC...
        state.set_timer(ids[0], 1, ms(80), d(10), &mut arm);
        epoch_with_instances(&mut state, 1, 4, 2, 2);
        state.gc(1, None);
        assert_eq!(state.fire_timer(TimerId(5), ms(90), &mut arm), None);
        // ...and a collected instance arms nothing.
        state.set_timer(ids[0], 1, ms(90), d(10), &mut arm);
        assert_eq!(armed, [d(10), d(2), d(50), d(5), d(10)]);
    }

    #[test]
    fn proposed_slots_are_per_sequence_number() {
        let mut state = EpochState::new();
        epoch_with_instances(&mut state, 0, 10, 2, 2);
        state.record_proposed(11, Batch::empty());
        assert!(state.take_proposed(10).is_none());
        assert!(state.take_proposed(11).is_some());
        assert!(state.take_proposed(11).is_none(), "taken once");
        state.record_proposed(12, Batch::empty());
        state.clear_proposed();
        assert!(state.take_proposed(12).is_none());
    }

    /// The stride rule of `leader_of` names, for every sequence number, the
    /// leader of the segment whose `seq_nrs` hold it.
    #[test]
    fn leader_of_follows_the_segment_layout() {
        let layout = |n: usize, length: u64, leaders: Vec<NodeId>| {
            let mut config = IssConfig::pbft(n);
            config.min_epoch_length = length;
            config.min_segment_size = 0;
            let epoch = EpochConfig::build(&config, 3, 40, leaders);
            assert_eq!(epoch.length, length);
            epoch
        };
        let layouts = [
            // Figure 1: n = 4, 3 leaders, length 12.
            layout(4, 12, vec![NodeId(0), NodeId(1), NodeId(2)]),
            layout(4, 16, vec![NodeId(2)]),
            // 128 leaders in a permuted order, so segment index ≠ node id.
            layout(
                128,
                512,
                (0..128).map(|i| NodeId((i * 5 + 3) % 128)).collect(),
            ),
            // A length that is not a multiple of the number of leaders.
            layout(4, 10, vec![NodeId(3), NodeId(1), NodeId(0)]),
        ];
        for epoch in layouts {
            let mut state = EpochState::new();
            state.begin_epoch(
                epoch.epoch,
                epoch.first_seq_nr,
                epoch.length,
                epoch.leaders.clone(),
            );
            let mut seen = 0;
            for segment in &epoch.segments {
                for &sn in &segment.seq_nrs {
                    assert_eq!(state.leader_of(sn), Some(segment.leader), "sn {sn}");
                    seen += 1;
                }
            }
            assert_eq!(seen, epoch.length, "the segments cover the epoch");
            assert_eq!(state.leader_of(epoch.first_seq_nr - 1), None);
            assert_eq!(state.leader_of(epoch.next_first_seq_nr()), None);
        }
    }
}
