//! Dense, epoch-scoped orderer state: the bookkeeping the Manager keeps per
//! sequence number and per SB instance ([`EpochState`]).
//!
//! Until this module existed, [`crate::node::IssNode`] tracked its epoch
//! state in four `HashMap`s keyed by `InstanceId`, `SeqNr` and `TimerId`
//! (`instances`, `leader_of_sn`, `proposed`, `instance_timers`). Every
//! protocol message paid a SipHash probe to find its instance, every
//! delivery paid one to find its leader, and every epoch transition paid
//! four full `retain` scans. At 64/128 nodes — hundreds of sequence numbers
//! per epoch, one instance per leader — that bookkeeping is the per-batch
//! constant the profile shows once the simnet and crypto layers are out of
//! the way.
//!
//! [`EpochState`] replaces the maps with an epoch-scoped arena:
//!
//! * **Sequence numbers are offsets.** An epoch's sequence numbers form a
//!   contiguous range, so `leader_of(sn)` and the proposed-batch slot of
//!   `sn` are direct reads of per-epoch dense tables indexed by
//!   `sn - first_seq_nr` (one `EpochArena` per live epoch, found O(1) by
//!   `epoch - front_epoch` since epochs are contiguous too).
//! * **Instances live in a generation-stamped slab.** Each live
//!   `Box<dyn SbInstance>` occupies a slab slot addressed by a compact
//!   [`InstanceSlot`] handle (slot index + generation). Message dispatch
//!   resolves `InstanceId` → slot through the arena's dense
//!   segment-index table, and every subsequent touch (drive, timer
//!   registration) is an array index.
//! * **Timers resolve in O(1) and GC is a wholesale drop.** A timer route
//!   stores the `InstanceSlot` it belongs to; when the epoch dies the slab
//!   slot's generation is bumped, so a stale timer firing later fails its
//!   generation check in O(1) instead of being filtered out of a map by a
//!   `retain` scan at GC time. Epoch GC retires the arena's slots (one
//!   generation bump each, instances dropped wholesale with the arena's
//!   tables) — no per-entry scans over any map.
//! * **Timers are never cancelled.** An SB instance can only arm a timer;
//!   one that re-arms a timeout stamps the token with a generation and
//!   ignores stale fires itself. So a route leaves the table only when its
//!   timer fires, and an instance needs no list of its own timers.
//!
//! The old `HashMap` implementation lives on in
//! `crates/core/tests/state_equivalence.rs`, not in this crate: it is the
//! oracle the arena is property-tested against, driven through randomized
//! epoch lifecycles in lockstep with it.

use iss_sb::SbInstance;
use iss_types::{Batch, EpochNr, FxHashMap, InstanceId, NodeId, SeqNr, TimerId};

/// Compact handle of a live SB instance in the [`EpochState`] slab.
///
/// Packs a slab slot index (high 32 bits) and a generation (low 32 bits):
/// a handle is *live* iff its generation matches the slot's current
/// generation, so a handle outliving its instance (a timer armed by a GC'd
/// epoch, a late message) is rejected in O(1).
/// The test-file oracle, which has no slab, treats the handle as an opaque
/// unique token.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct InstanceSlot(pub u64);

impl InstanceSlot {
    /// Packs a slab slot index and its generation into a handle.
    pub fn from_parts(slot: u32, generation: u32) -> Self {
        InstanceSlot(((slot as u64) << 32) | generation as u64)
    }

    /// The slab slot index encoded in the handle.
    pub fn slot(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// The generation encoded in the handle.
    pub fn generation(self) -> u32 {
        self.0 as u32
    }
}

/// Sentinel for "no leader recorded" in the dense per-epoch leader table.
const NO_LEADER: NodeId = NodeId(u32::MAX);

/// One slab slot: the instance boxed in it and its identifier.
struct SlabEntry {
    /// Current generation; an [`InstanceSlot`] handle is live iff it
    /// carries this value.
    generation: u32,
    /// Whether the slot currently holds a live instance (possibly taken).
    live: bool,
    /// The instance's identifier (valid while `live`).
    id: InstanceId,
    /// The boxed instance; `None` while taken for a callback.
    instance: Option<Box<dyn SbInstance>>,
}

/// The dense tables of one live epoch. All three tables are indexed by
/// offset: sequence-number tables by `sn - first_seq_nr`, the slot table by
/// the segment index of the `InstanceId`.
struct EpochArena {
    epoch: EpochNr,
    first_seq_nr: SeqNr,
    length: u64,
    /// Leader per sequence-number offset ([`NO_LEADER`] = none recorded).
    leaders: Vec<NodeId>,
    /// This node's proposed batch per sequence-number offset.
    proposed: Vec<Option<Batch>>,
    /// Slab slot per segment index.
    slots: Vec<InstanceSlot>,
    /// Whether the epoch's instances have been garbage-collected (the
    /// arena itself may outlive them to keep serving `leader_of` until the
    /// stable-checkpoint cut passes it).
    instances_retired: bool,
}

impl EpochArena {
    fn offset_of(&self, sn: SeqNr) -> Option<usize> {
        let offset = sn.checked_sub(self.first_seq_nr)?;
        (offset < self.length).then_some(offset as usize)
    }
}

/// The Manager's per-epoch bookkeeping: instance storage and dispatch,
/// sequence-number → leader resolution, the leader's own proposed batches,
/// and instance-timer routing, as epoch-scoped arenas over a
/// generation-stamped instance slab. See the module docs for the layout and
/// the O(1) arguments.
///
/// The contract (all of it exercised by the lockstep property suite):
///
/// * `begin_epoch` opens a new arena; epochs must be opened in order.
/// * `record_segment` registers a segment's sequence numbers and leader for
///   `leader_of`; `insert_instance` stores its SB instance and returns the
///   slot used for all further dispatch.
/// * `take_instance` / `restore_instance` bracket a callback into the
///   instance (the node's `drive` loop); a take of a dead or already-taken
///   slot returns `None`.
/// * `register_timer` / `resolve_timer` route the embedding's timer handles
///   to (slot, token) pairs; resolving a timer whose instance died returns
///   `None` and drops the route.
/// * `record_proposed` / `take_proposed` / `clear_proposed` track the
///   batches this node proposed for its own segment (resurrection on ⊥).
/// * `gc(keep_epochs_from, leader_cut)` drops instances and timer routes of
///   epochs before `keep_epochs_from` and forgets leaders below
///   `leader_cut` (the stable-checkpoint cut; `None` keeps them all).
#[derive(Default)]
pub struct EpochState {
    /// Live epochs, oldest first. Epochs are contiguous, so the arena of
    /// epoch `e` sits at index `e - arenas[0].epoch`.
    arenas: std::collections::VecDeque<EpochArena>,
    /// The instance slab. Slots are recycled through `free` with bumped
    /// generations, so capacity is bounded by the peak number of
    /// *concurrently* live instances (two epochs' worth), not by the run
    /// length.
    slab: Vec<SlabEntry>,
    free: Vec<u32>,
    /// Timer handle → (instance slot, token). Entries are removed when the
    /// timer fires — a dead instance's timers fall out on their own fire via
    /// the generation check, so GC never scans this map.
    timer_routes: FxHashMap<TimerId, (InstanceSlot, u64)>,
    /// `leader_of` answers `None` below this (stable-checkpoint) cut,
    /// matching the reference oracle's `retain`-based forgetting.
    leader_cut: SeqNr,
}

impl EpochState {
    /// Creates an empty state.
    pub fn new() -> Self {
        Self::default()
    }

    fn arena_of_epoch(&self, epoch: EpochNr) -> Option<&EpochArena> {
        let front = self.arenas.front()?.epoch;
        self.arenas
            .get(usize::try_from(epoch.checked_sub(front)?).ok()?)
    }

    /// The arena containing `sn`, searched newest-first (lookups are almost
    /// always about the current epoch).
    fn arena_of_sn(&self, sn: SeqNr) -> Option<&EpochArena> {
        self.arenas.iter().rev().find(|a| a.offset_of(sn).is_some())
    }

    fn arena_of_sn_mut(&mut self, sn: SeqNr) -> Option<&mut EpochArena> {
        self.arenas
            .iter_mut()
            .rev()
            .find(|a| a.offset_of(sn).is_some())
    }

    fn entry(&self, slot: InstanceSlot) -> Option<&SlabEntry> {
        self.slab
            .get(slot.slot() as usize)
            .filter(|e| e.live && e.generation == slot.generation())
    }

    fn entry_mut(&mut self, slot: InstanceSlot) -> Option<&mut SlabEntry> {
        self.slab
            .get_mut(slot.slot() as usize)
            .filter(|e| e.live && e.generation == slot.generation())
    }

    /// Retires one slab slot: bumps the generation (invalidating every
    /// outstanding handle), drops the instance, and recycles the slot.
    fn retire_slot(&mut self, slot: InstanceSlot) {
        if let Some(entry) = self.entry_mut(slot) {
            entry.generation = entry.generation.wrapping_add(1);
            entry.live = false;
            entry.instance = None;
            self.free.push(slot.slot());
        }
    }

    /// Slab capacity watermark (tests: memory is bounded by concurrently
    /// live instances).
    pub fn slab_capacity(&self) -> usize {
        self.slab.len()
    }

    /// Number of live epoch arenas (tests).
    pub fn arena_count(&self) -> usize {
        self.arenas.len()
    }

    /// Opens the arena of `epoch`, whose sequence numbers are
    /// `first_seq_nr .. first_seq_nr + length`.
    pub fn begin_epoch(&mut self, epoch: EpochNr, first_seq_nr: SeqNr, length: u64) {
        if let Some(back) = self.arenas.back() {
            assert_eq!(epoch, back.epoch + 1, "epochs must be opened in order");
        }
        self.arenas.push_back(EpochArena {
            epoch,
            first_seq_nr,
            length,
            leaders: vec![NO_LEADER; length as usize],
            proposed: (0..length).map(|_| None).collect(),
            slots: Vec::new(),
            instances_retired: false,
        });
    }

    /// Records that `leader` owns every sequence number in `seq_nrs` (all of
    /// which belong to the most recently opened epoch).
    pub fn record_segment(&mut self, seq_nrs: &[SeqNr], leader: NodeId) {
        let arena = self.arenas.back_mut().expect("no epoch opened");
        for sn in seq_nrs {
            let offset = arena
                .offset_of(*sn)
                .expect("segment sequence number outside its epoch");
            arena.leaders[offset] = leader;
        }
    }

    /// Stores the SB instance of segment `id` (of the most recently opened
    /// epoch) and returns its dispatch handle.
    pub fn insert_instance(
        &mut self,
        id: InstanceId,
        instance: Box<dyn SbInstance>,
    ) -> InstanceSlot {
        let slot = match self.free.pop() {
            Some(index) => {
                let entry = &mut self.slab[index as usize];
                debug_assert!(!entry.live);
                entry.live = true;
                entry.id = id;
                entry.instance = Some(instance);
                InstanceSlot::from_parts(index, entry.generation)
            }
            None => {
                let index = u32::try_from(self.slab.len()).expect("instance slab overflow");
                self.slab.push(SlabEntry {
                    generation: 0,
                    live: true,
                    id,
                    instance: Some(instance),
                });
                InstanceSlot::from_parts(index, 0)
            }
        };
        let arena = self.arenas.back_mut().expect("no epoch opened");
        debug_assert_eq!(
            arena.epoch, id.epoch,
            "instance inserted into the wrong epoch"
        );
        let index = id.index as usize;
        if index >= arena.slots.len() {
            arena
                .slots
                .resize(index + 1, InstanceSlot::from_parts(u32::MAX, u32::MAX));
        }
        arena.slots[index] = slot;
        slot
    }

    /// Resolves an instance identifier to its live slot, if the instance
    /// exists and has not been garbage-collected.
    pub fn slot_of(&self, id: InstanceId) -> Option<InstanceSlot> {
        let arena = self.arena_of_epoch(id.epoch)?;
        if arena.instances_retired {
            return None;
        }
        let slot = *arena.slots.get(id.index as usize)?;
        self.entry(slot).map(|_| slot)
    }

    /// Temporarily removes the instance at `slot` for a callback. Returns
    /// `None` if the slot is dead or the instance is currently taken.
    pub fn take_instance(
        &mut self,
        slot: InstanceSlot,
    ) -> Option<(InstanceId, Box<dyn SbInstance>)> {
        let entry = self.entry_mut(slot)?;
        let instance = entry.instance.take()?;
        Some((entry.id, instance))
    }

    /// Puts an instance taken with [`Self::take_instance`] back. If the slot
    /// died while the instance was out (epoch GC during the callback's
    /// actions), the instance is dropped.
    pub fn restore_instance(&mut self, slot: InstanceSlot, instance: Box<dyn SbInstance>) {
        if let Some(entry) = self.entry_mut(slot) {
            debug_assert!(entry.instance.is_none(), "restore over an untaken instance");
            entry.instance = Some(instance);
        }
        // Dead slot: the epoch was garbage-collected while the instance was
        // out; dropping it here matches the reference behaviour of
        // re-inserting into the map just before the GC `retain` removes it.
    }

    /// The leader of the segment that owned `sn`, if still known.
    pub fn leader_of(&self, sn: SeqNr) -> Option<NodeId> {
        if sn < self.leader_cut {
            return None;
        }
        let arena = self.arena_of_sn(sn)?;
        match arena.leaders[arena.offset_of(sn)?] {
            NO_LEADER => None,
            leader => Some(leader),
        }
    }

    /// Records the batch this node proposed for `sn` (own segment only).
    pub fn record_proposed(&mut self, sn: SeqNr, batch: Batch) {
        if let Some(arena) = self.arena_of_sn_mut(sn) {
            let offset = arena.offset_of(sn).expect("arena_of_sn postcondition");
            arena.proposed[offset] = Some(batch);
        }
    }

    /// Takes the batch this node proposed for `sn`, if any (⊥ delivery:
    /// the requests are resurrected by the caller).
    pub fn take_proposed(&mut self, sn: SeqNr) -> Option<Batch> {
        let arena = self.arena_of_sn_mut(sn)?;
        let offset = arena.offset_of(sn)?;
        arena.proposed[offset].take()
    }

    /// Forgets every recorded proposal (epoch start).
    pub fn clear_proposed(&mut self) {
        for arena in &mut self.arenas {
            for slot in &mut arena.proposed {
                *slot = None;
            }
        }
    }

    /// Routes `timer` to `(slot, token)` for [`Self::resolve_timer`].
    pub fn register_timer(&mut self, timer: TimerId, slot: InstanceSlot, token: u64) {
        if self.entry(slot).is_some() {
            self.timer_routes.insert(timer, (slot, token));
        }
    }

    /// Resolves a fired timer to the instance slot and token it was armed
    /// with, dropping the route. Returns `None` (and still drops the route)
    /// if the instance died in the meantime.
    pub fn resolve_timer(&mut self, timer: TimerId) -> Option<(InstanceSlot, u64)> {
        let (slot, token) = self.timer_routes.remove(&timer)?;
        self.entry(slot)?; // dead instance: route already dropped
        Some((slot, token))
    }

    /// Epoch garbage collection: drops instances (and their timer routing)
    /// of every epoch before `keep_epochs_from`, and — when `leader_cut` is
    /// set — forgets `leader_of` entries below the cut.
    pub fn gc(&mut self, keep_epochs_from: EpochNr, leader_cut: Option<SeqNr>) {
        // Retire the instances (and with them, all timer liveness) of dead
        // epochs: one generation bump per slot, no scans over timer or
        // instance maps.
        let dead: Vec<InstanceSlot> = self
            .arenas
            .iter_mut()
            .filter(|a| a.epoch < keep_epochs_from && !a.instances_retired)
            .flat_map(|a| {
                a.instances_retired = true;
                // `proposed` is deliberately left alone: the reference
                // oracle's GC never touched it either (the node clears it
                // via `clear_proposed` at the next epoch's setup, which
                // follows GC in the same call chain).
                std::mem::take(&mut a.slots)
            })
            .collect();
        for slot in dead {
            self.retire_slot(slot);
        }
        if let Some(cut) = leader_cut {
            self.leader_cut = self.leader_cut.max(cut);
        }
        // Drop arenas wholesale once both their instances are gone and
        // their leader table is entirely below the cut.
        while let Some(front) = self.arenas.front() {
            if front.instances_retired && front.first_seq_nr + front.length <= self.leader_cut {
                self.arenas.pop_front();
            } else {
                break;
            }
        }
    }

    /// Number of live (not garbage-collected) instances, counting taken
    /// ones. Diagnostics and tests.
    pub fn live_instances(&self) -> usize {
        self.slab.iter().filter(|e| e.live).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iss_sb::testing::NullSb;

    fn null() -> Box<dyn SbInstance> {
        Box::new(NullSb)
    }

    fn epoch_with_instances(
        state: &mut EpochState,
        epoch: EpochNr,
        first: SeqNr,
        segments: u32,
        sns_per_segment: u64,
    ) -> Vec<InstanceSlot> {
        let length = segments as u64 * sns_per_segment;
        state.begin_epoch(epoch, first, length);
        (0..segments)
            .map(|s| {
                let seq_nrs: Vec<SeqNr> = (0..length)
                    .filter(|o| o % segments as u64 == s as u64)
                    .map(|o| first + o)
                    .collect();
                state.record_segment(&seq_nrs, NodeId(s));
                state.insert_instance(InstanceId::new(epoch, s), null())
            })
            .collect()
    }

    #[test]
    fn dense_dispatch_roundtrip() {
        let mut state = EpochState::new();
        let slots = epoch_with_instances(&mut state, 0, 0, 4, 3);
        assert_eq!(state.live_instances(), 4);
        for (i, slot) in slots.iter().enumerate() {
            let id = InstanceId::new(0, i as u32);
            assert_eq!(state.slot_of(id), Some(*slot));
            let (got_id, inst) = state.take_instance(*slot).expect("live");
            assert_eq!(got_id, id);
            // While taken, a second take fails but the slot stays live.
            assert!(state.take_instance(*slot).is_none());
            assert_eq!(state.slot_of(id), Some(*slot));
            state.restore_instance(*slot, inst);
            assert!(state.take_instance(*slot).is_some_and(|(_, i2)| {
                state.restore_instance(*slot, i2);
                true
            }));
        }
        assert_eq!(state.leader_of(0), Some(NodeId(0)));
        assert_eq!(state.leader_of(5), Some(NodeId(1)));
        assert_eq!(state.leader_of(12), None);
    }

    #[test]
    fn gc_retires_slots_and_reuses_them_with_fresh_generations() {
        let mut state = EpochState::new();
        let old = epoch_with_instances(&mut state, 0, 0, 4, 2);
        let _kept = epoch_with_instances(&mut state, 1, 8, 4, 2);
        assert_eq!(state.live_instances(), 8);
        state.gc(1, None);
        assert_eq!(state.live_instances(), 4);
        for slot in &old {
            assert!(
                state.take_instance(*slot).is_none(),
                "retired slot must be dead"
            );
        }
        assert!(state.slot_of(InstanceId::new(0, 0)).is_none());
        // Leaders survive until the checkpoint cut...
        assert_eq!(state.leader_of(0), Some(NodeId(0)));
        state.gc(1, Some(8));
        assert_eq!(state.leader_of(0), None);
        assert_eq!(state.leader_of(8), Some(NodeId(0)));
        assert_eq!(state.arena_count(), 1, "dead arena dropped wholesale");
        // Recycled slots come back under new generations: old handles stay
        // dead even though the slot indices are reused.
        let fresh = epoch_with_instances(&mut state, 2, 16, 4, 2);
        assert_eq!(
            state.slab_capacity(),
            8,
            "slab bounded by concurrent instances"
        );
        for slot in &old {
            assert!(state.take_instance(*slot).is_none());
            assert!(fresh.iter().any(|f| f.slot() == slot.slot()));
        }
    }

    #[test]
    fn timers_route_in_o1_and_die_with_their_instance() {
        let mut state = EpochState::new();
        let slots = epoch_with_instances(&mut state, 0, 0, 2, 2);
        let t3 = TimerId(303);
        state.register_timer(t3, slots[1], 9);
        assert_eq!(state.resolve_timer(t3), Some((slots[1], 9)));
        assert!(state.resolve_timer(t3).is_none(), "a route resolves once");
        // A timer surviving its instance resolves to None after GC.
        let t4 = TimerId(404);
        state.register_timer(t4, slots[0], 1);
        epoch_with_instances(&mut state, 1, 4, 2, 2);
        state.gc(1, None);
        assert!(state.resolve_timer(t4).is_none());
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
}
