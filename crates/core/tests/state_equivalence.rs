//! Lockstep equivalence property suite: the dense [`EpochState`] arena must
//! be observably indistinguishable from the [`ReferenceNodeState`] `HashMap`
//! oracle under randomized epoch lifecycles — propose bookkeeping, message
//! dispatch (take/restore), timer register/fire/cancel, epoch changes and
//! garbage collection. The oracle is the arena's pre-arena implementation
//! and lives here, in the test, rather than in the crate.
//!
//! Every operation is applied to both implementations and every output is
//! compared: leader lookups, proposed-batch round-trips, slot liveness,
//! timer resolutions and cancellation sets, live-instance counts. Slot
//! handles themselves are implementation-specific, so the driver tracks the
//! pair of handles an insertion returned and always addresses both states
//! through their own handle.
//!
//! The workloads are generated from seeded RNGs (the house property-test
//! idiom; failures reproduce exactly): 300 randomized lifecycles of up to 12
//! epochs each.

use iss_core::state::{EpochState, InstanceSlot};
use iss_sb::testing::NullSb;
use iss_sb::SbInstance;
use iss_types::{Batch, ClientId, EpochNr, InstanceId, NodeId, Request, SeqNr, TimerId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// The pre-arena implementation, kept verbatim as the behavioural oracle:
/// four `HashMap`s keyed by `InstanceId` / `SeqNr` / `TimerId`, epoch GC by
/// `retain` scans, timer cancellation by filtering the whole timer map.
/// Slot handles are opaque unique tokens resolved through a map.
#[derive(Default)]
struct ReferenceNodeState {
    instances: HashMap<InstanceId, Box<dyn SbInstance>>,
    /// Instances currently taken for a callback (so `live_instances` and
    /// `slot_of` keep counting them, as the slab does).
    taken: HashMap<InstanceId, ()>,
    handle_to_id: HashMap<u64, InstanceId>,
    id_to_handle: HashMap<InstanceId, u64>,
    next_handle: u64,
    leader_of_sn: HashMap<SeqNr, NodeId>,
    proposed: HashMap<SeqNr, Batch>,
    instance_timers: HashMap<TimerId, (InstanceId, u64)>,
}

impl ReferenceNodeState {
    fn new() -> Self {
        Self::default()
    }

    fn begin_epoch(&mut self, _epoch: EpochNr, _first_seq_nr: SeqNr, _length: u64) {}

    fn record_segment(&mut self, seq_nrs: &[SeqNr], leader: NodeId) {
        for sn in seq_nrs {
            self.leader_of_sn.insert(*sn, leader);
        }
    }

    fn insert_instance(&mut self, id: InstanceId, instance: Box<dyn SbInstance>) -> InstanceSlot {
        let handle = self.next_handle;
        self.next_handle += 1;
        self.instances.insert(id, instance);
        self.handle_to_id.insert(handle, id);
        self.id_to_handle.insert(id, handle);
        InstanceSlot(handle)
    }

    fn slot_of(&self, id: InstanceId) -> Option<InstanceSlot> {
        if self.instances.contains_key(&id) || self.taken.contains_key(&id) {
            self.id_to_handle.get(&id).map(|h| InstanceSlot(*h))
        } else {
            None
        }
    }

    fn take_instance(&mut self, slot: InstanceSlot) -> Option<(InstanceId, Box<dyn SbInstance>)> {
        let id = *self.handle_to_id.get(&slot.0)?;
        let instance = self.instances.remove(&id)?;
        self.taken.insert(id, ());
        Some((id, instance))
    }

    fn restore_instance(&mut self, slot: InstanceSlot, instance: Box<dyn SbInstance>) {
        if let Some(id) = self.handle_to_id.get(&slot.0) {
            self.taken.remove(id);
            self.instances.insert(*id, instance);
        }
    }

    fn leader_of(&self, sn: SeqNr) -> Option<NodeId> {
        self.leader_of_sn.get(&sn).copied()
    }

    fn record_proposed(&mut self, sn: SeqNr, batch: Batch) {
        self.proposed.insert(sn, batch);
    }

    fn take_proposed(&mut self, sn: SeqNr) -> Option<Batch> {
        self.proposed.remove(&sn)
    }

    fn clear_proposed(&mut self) {
        self.proposed.clear();
    }

    fn register_timer(&mut self, timer: TimerId, slot: InstanceSlot, token: u64) {
        if let Some(id) = self.handle_to_id.get(&slot.0) {
            self.instance_timers.insert(timer, (*id, token));
        }
    }

    fn resolve_timer(&mut self, timer: TimerId) -> Option<(InstanceSlot, u64)> {
        let (id, token) = self.instance_timers.remove(&timer)?;
        let handle = self.id_to_handle.get(&id)?;
        if self.instances.contains_key(&id) || self.taken.contains_key(&id) {
            Some((InstanceSlot(*handle), token))
        } else {
            None
        }
    }

    fn take_matching_timers(&mut self, slot: InstanceSlot, token: u64, out: &mut Vec<TimerId>) {
        let Some(id) = self.handle_to_id.get(&slot.0).copied() else {
            return;
        };
        let ids: Vec<TimerId> = self
            .instance_timers
            .iter()
            .filter(|(_, (inst, t))| *inst == id && *t == token)
            .map(|(timer, _)| *timer)
            .collect();
        for timer in ids {
            self.instance_timers.remove(&timer);
            out.push(timer);
        }
    }

    fn gc(&mut self, keep_epochs_from: EpochNr, leader_cut: Option<SeqNr>) {
        self.instances.retain(|id, _| id.epoch >= keep_epochs_from);
        self.taken.retain(|id, _| id.epoch >= keep_epochs_from);
        self.instance_timers
            .retain(|_, (id, _)| id.epoch >= keep_epochs_from);
        self.handle_to_id
            .retain(|_, id| id.epoch >= keep_epochs_from);
        self.id_to_handle
            .retain(|id, _| id.epoch >= keep_epochs_from);
        if let Some(cut) = leader_cut {
            self.leader_of_sn.retain(|sn, _| *sn >= cut);
        }
    }

    fn live_instances(&self) -> usize {
        self.instances.len() + self.taken.len()
    }
}

fn null() -> Box<dyn SbInstance> {
    Box::new(NullSb)
}

/// A marker batch whose identity survives the round-trip (batches don't
/// implement `Eq`; we compare by their single request's id).
fn marker_batch(tag: u64) -> Batch {
    Batch::new(vec![Request::synthetic(
        ClientId((tag % 997) as u32),
        tag,
        8,
    )])
}

fn marker_of(batch: &Batch) -> u64 {
    batch.requests()[0].id.timestamp
}

/// One live epoch as the driver sees it.
struct LiveEpoch {
    epoch: EpochNr,
    first_seq_nr: SeqNr,
    length: u64,
    /// Per segment: the two handles (dense, reference) and the instance id.
    segments: Vec<(InstanceId, InstanceSlot, InstanceSlot)>,
}

/// Timers the driver has armed and not yet seen fire or cancel.
struct LiveTimer {
    id: TimerId,
    /// Which segment pair the timer belongs to.
    dense_slot: InstanceSlot,
    reference_slot: InstanceSlot,
    token: u64,
}

struct Driver {
    dense: EpochState,
    reference: ReferenceNodeState,
    epochs: Vec<LiveEpoch>,
    timers: Vec<LiveTimer>,
    next_epoch: EpochNr,
    next_seq_nr: SeqNr,
    next_timer: u64,
    next_marker: u64,
}

impl Driver {
    fn new() -> Self {
        Driver {
            dense: EpochState::new(),
            reference: ReferenceNodeState::new(),
            epochs: Vec::new(),
            timers: Vec::new(),
            next_epoch: 0,
            next_seq_nr: 0,
            next_timer: 1,
            next_marker: 1,
        }
    }

    /// Opens a new epoch with `segments` round-robin segments on both
    /// implementations.
    fn begin_epoch(&mut self, rng: &mut StdRng) {
        let segments = rng.gen_range(1u32..6);
        let per_segment = rng.gen_range(1u64..5);
        let length = segments as u64 * per_segment;
        let epoch = self.next_epoch;
        let first = self.next_seq_nr;
        self.next_epoch += 1;
        self.next_seq_nr += length;
        self.dense.begin_epoch(epoch, first, length);
        self.reference.begin_epoch(epoch, first, length);
        let mut live = LiveEpoch {
            epoch,
            first_seq_nr: first,
            length,
            segments: Vec::new(),
        };
        for s in 0..segments {
            let seq_nrs: Vec<SeqNr> = (0..length)
                .filter(|o| o % segments as u64 == s as u64)
                .map(|o| first + o)
                .collect();
            let leader = NodeId(rng.gen_range(0u32..8));
            self.dense.record_segment(&seq_nrs, leader);
            self.reference.record_segment(&seq_nrs, leader);
            let id = InstanceId::new(epoch, s);
            let d = self.dense.insert_instance(id, null());
            let r = self.reference.insert_instance(id, null());
            live.segments.push((id, d, r));
        }
        self.epochs.push(live);
    }

    /// Picks a random known instance pair — possibly one whose epoch has
    /// been GC'd, so dead-handle behaviour is exercised too.
    fn pick_pair(&self, rng: &mut StdRng) -> Option<(InstanceId, InstanceSlot, InstanceSlot)> {
        if self.epochs.is_empty() {
            return None;
        }
        let e = &self.epochs[rng.gen_range(0..self.epochs.len())];
        Some(e.segments[rng.gen_range(0..e.segments.len())])
    }

    /// A random sequence number drawn from the full history (including GC'd
    /// epochs and a margin of never-assigned numbers).
    fn pick_sn(&self, rng: &mut StdRng) -> SeqNr {
        rng.gen_range(0..self.next_seq_nr.max(1) + 4)
    }

    fn check_lookups(&self, sn: SeqNr, id: InstanceId) {
        assert_eq!(
            self.dense.leader_of(sn),
            self.reference.leader_of(sn),
            "leader_of({sn}) diverged"
        );
        assert_eq!(
            self.dense.slot_of(id).is_some(),
            self.reference.slot_of(id).is_some(),
            "slot_of({id:?}) liveness diverged"
        );
    }

    fn step(&mut self, rng: &mut StdRng) {
        match rng.gen_range(0u32..100) {
            // Epoch change: GC exactly like the node does (keep the epoch
            // just finished and the new one), sometimes with a checkpoint
            // cut at an epoch boundary.
            0..=9 => {
                if self.next_epoch > 0 && rng.gen_range(0u32..2) == 0 {
                    let finished = self.next_epoch - 1;
                    let cut = if rng.gen_range(0u32..2) == 0 {
                        // The stable cut trails by one epoch, as in the node.
                        self.epochs
                            .iter()
                            .find(|e| e.epoch == finished.saturating_sub(1))
                            .map(|e| e.first_seq_nr + e.length)
                    } else {
                        None
                    };
                    self.dense.gc(finished, cut);
                    self.reference.gc(finished, cut);
                }
                self.begin_epoch(rng);
                self.dense.clear_proposed();
                self.reference.clear_proposed();
            }
            // Dispatch: take + restore through both handles.
            10..=39 => {
                let Some((id, d, r)) = self.pick_pair(rng) else {
                    return;
                };
                let dense_taken = self.dense.take_instance(d);
                let reference_taken = self.reference.take_instance(r);
                assert_eq!(
                    dense_taken.is_some(),
                    reference_taken.is_some(),
                    "take_instance liveness diverged for {id:?}"
                );
                if let (Some((di, dbox)), Some((ri, rbox))) = (dense_taken, reference_taken) {
                    assert_eq!(di, id);
                    assert_eq!(ri, id);
                    // While taken, both must refuse a second take but still
                    // count the instance as live.
                    assert!(self.dense.take_instance(d).is_none());
                    assert!(self.reference.take_instance(r).is_none());
                    self.dense.restore_instance(d, dbox);
                    self.reference.restore_instance(r, rbox);
                }
            }
            // Propose bookkeeping. The node only records proposals for its
            // own segment of the *current* epoch (that is the
            // `EpochState` contract), so draw from the newest epoch's range.
            40..=54 => {
                let Some(current) = self.epochs.last() else {
                    return;
                };
                let sn = current.first_seq_nr + rng.gen_range(0..current.length);
                let tag = self.next_marker;
                self.next_marker += 1;
                self.dense.record_proposed(sn, marker_batch(tag));
                self.reference.record_proposed(sn, marker_batch(tag));
            }
            55..=69 => {
                let sn = self.pick_sn(rng);
                let dense = self.dense.take_proposed(sn);
                let reference = self.reference.take_proposed(sn);
                match (&dense, &reference) {
                    (Some(d), Some(r)) => assert_eq!(marker_of(d), marker_of(r)),
                    (None, None) => {}
                    _ => panic!(
                        "take_proposed({sn}) diverged: dense={:?} reference={:?}",
                        dense.as_ref().map(marker_of),
                        reference.as_ref().map(marker_of)
                    ),
                }
            }
            // Timers: arm on a (possibly dead) instance pair.
            70..=79 => {
                let Some((_, d, r)) = self.pick_pair(rng) else {
                    return;
                };
                let token = rng.gen_range(0u64..4);
                let id = TimerId(self.next_timer);
                self.next_timer += 1;
                self.dense.register_timer(id, d, token);
                self.reference.register_timer(id, r, token);
                self.timers.push(LiveTimer {
                    id,
                    dense_slot: d,
                    reference_slot: r,
                    token,
                });
            }
            // Fire a random armed timer.
            80..=89 => {
                if self.timers.is_empty() {
                    return;
                }
                let t = self.timers.swap_remove(rng.gen_range(0..self.timers.len()));
                let dense = self.dense.resolve_timer(t.id);
                let reference = self.reference.resolve_timer(t.id);
                assert_eq!(
                    dense.is_some(),
                    reference.is_some(),
                    "resolve_timer({:?}) liveness diverged",
                    t.id
                );
                if let (Some((ds, dt)), Some((rs, rt))) = (dense, reference) {
                    assert_eq!(ds, t.dense_slot);
                    assert_eq!(rs, t.reference_slot);
                    assert_eq!(dt, rt);
                    assert_eq!(dt, t.token);
                }
                // A second resolution must fail on both.
                assert!(self.dense.resolve_timer(t.id).is_none());
                assert!(self.reference.resolve_timer(t.id).is_none());
            }
            // Cancel by (instance, token), as `SbAction::CancelTimer` does.
            90..=94 => {
                let Some((_, d, r)) = self.pick_pair(rng) else {
                    return;
                };
                let token = rng.gen_range(0u64..4);
                let mut dense_ids = Vec::new();
                let mut reference_ids = Vec::new();
                self.dense.take_matching_timers(d, token, &mut dense_ids);
                self.reference
                    .take_matching_timers(r, token, &mut reference_ids);
                dense_ids.sort();
                reference_ids.sort();
                assert_eq!(dense_ids, reference_ids, "cancellation sets diverged");
                self.timers.retain(|t| !dense_ids.contains(&t.id));
            }
            // Queries.
            _ => {
                let sn = self.pick_sn(rng);
                if let Some((id, _, _)) = self.pick_pair(rng) {
                    self.check_lookups(sn, id);
                }
                assert_eq!(
                    self.dense.live_instances(),
                    self.reference.live_instances(),
                    "live_instances diverged"
                );
            }
        }
    }
}

#[test]
fn dense_state_matches_reference_oracle_under_random_lifecycles() {
    for seed in 0..300u64 {
        let mut rng = StdRng::seed_from_u64(0x57A7E ^ (seed * 0x9E37_79B9));
        let mut driver = Driver::new();
        driver.begin_epoch(&mut rng);
        let ops = rng.gen_range(40usize..250);
        for _ in 0..ops {
            driver.step(&mut rng);
        }
        // Exhaustive sweep at the end of every lifecycle: every sequence
        // number and instance ever created agrees between the two states.
        for sn in 0..driver.next_seq_nr + 4 {
            assert_eq!(driver.dense.leader_of(sn), driver.reference.leader_of(sn));
        }
        let pairs: Vec<(InstanceId, InstanceSlot, InstanceSlot)> = driver
            .epochs
            .iter()
            .flat_map(|e| e.segments.iter().copied())
            .collect();
        for (id, _, _) in pairs {
            assert_eq!(
                driver.dense.slot_of(id).is_some(),
                driver.reference.slot_of(id).is_some(),
                "final slot_of({id:?}) diverged"
            );
        }
        // Fire every still-armed timer; resolutions must agree.
        let timers = std::mem::take(&mut driver.timers);
        for t in timers {
            let dense = driver.dense.resolve_timer(t.id);
            let reference = driver.reference.resolve_timer(t.id);
            assert_eq!(dense.is_some(), reference.is_some());
            if let (Some((_, dt)), Some((_, rt))) = (dense, reference) {
                assert_eq!(dt, rt);
            }
        }
    }
}

/// The slab must never grow beyond the two-epoch instance watermark no
/// matter how many epochs a lifecycle churns through (the memory half of the
/// wholesale-GC claim).
#[test]
fn slab_capacity_is_bounded_by_concurrent_epochs() {
    let mut state = EpochState::new();
    let mut first = 0u64;
    let mut peak = 0usize;
    for epoch in 0..200u64 {
        state.begin_epoch(epoch, first, 8);
        for s in 0..4u32 {
            let seq_nrs: Vec<SeqNr> = (0..8)
                .filter(|o| o % 4 == s as u64)
                .map(|o| first + o)
                .collect();
            state.record_segment(&seq_nrs, NodeId(s));
            state.insert_instance(InstanceId::new(epoch, s), null());
        }
        first += 8;
        peak = peak.max(state.live_instances());
        if epoch > 0 {
            state.gc(epoch, Some(first.saturating_sub(16)));
        }
    }
    assert_eq!(peak, 8, "at most two epochs of instances live at once");
    assert!(
        state.slab_capacity() <= 8,
        "slab capacity {} exceeds the concurrent-instance watermark",
        state.slab_capacity()
    );
    assert!(
        state.arena_count() <= 3,
        "dead arenas must be dropped wholesale"
    );
}

#[test]
fn reference_matches_on_the_basics() {
    let mut state = ReferenceNodeState::new();
    state.begin_epoch(0, 0, 4);
    state.record_segment(&[0, 2], NodeId(0));
    state.record_segment(&[1, 3], NodeId(1));
    let slot = state.insert_instance(InstanceId::new(0, 0), null());
    assert_eq!(state.slot_of(InstanceId::new(0, 0)), Some(slot));
    assert_eq!(state.leader_of(2), Some(NodeId(0)));
    let (id, inst) = state.take_instance(slot).unwrap();
    assert_eq!(id, InstanceId::new(0, 0));
    assert_eq!(state.live_instances(), 1, "taken instances still count");
    state.restore_instance(slot, inst);
    state.register_timer(TimerId(1), slot, 5);
    assert_eq!(state.resolve_timer(TimerId(1)), Some((slot, 5)));
    state.gc(1, Some(4));
    assert!(state.slot_of(InstanceId::new(0, 0)).is_none());
    assert_eq!(state.leader_of(2), None);
    assert_eq!(state.live_instances(), 0);
}
