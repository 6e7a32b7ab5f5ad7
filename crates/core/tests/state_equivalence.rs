//! Lockstep equivalence property suite: the dense [`EpochState`] arena must
//! be observably indistinguishable from the [`ReferenceNodeState`] `HashMap`
//! oracle under randomized epoch lifecycles — propose bookkeeping, message
//! dispatch (take/restore), timer arming and expiry, epoch changes and
//! garbage collection. The oracle is the arena's pre-arena implementation
//! and lives here, in the test, rather than in the crate.
//!
//! Every operation is applied to both implementations and every output is
//! compared: leader lookups, proposed-batch round-trips, instance liveness,
//! timer expiries, live-instance counts. Both sides address an instance by
//! its `InstanceId`. The oracle records every sequence number's leader from
//! the segment layout, so `leader_of` also checks the arena's stride rule.
//!
//! Timers follow the SB contract: an instance has one timer, and arming it
//! again replaces its deadline and token. The oracle keeps just that, the
//! latest deadline and token per instance. The arena is driven through a
//! simulated runtime that fires each runtime timer it armed at its expiry,
//! and must run exactly the oracle's expiries, at the same times; it may
//! arm a runtime timer only when the new deadline is nearer than the
//! pending one.
//!
//! The workloads are generated from seeded RNGs (the house property-test
//! idiom; failures reproduce exactly): 300 randomized lifecycles of up to 12
//! epochs each.

use iss_core::state::EpochState;
use iss_sb::testing::NullSb;
use iss_sb::SbInstance;
use iss_types::{
    Batch, ClientId, Duration, EpochNr, InstanceId, NodeId, Request, SeqNr, Time, TimerId,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

/// The pre-arena implementation, kept as the behavioural oracle: maps keyed
/// by `InstanceId` / `SeqNr`, epoch GC by `retain` scans.
#[derive(Default)]
struct ReferenceNodeState {
    instances: HashMap<InstanceId, Box<dyn SbInstance>>,
    /// Instances currently taken for a callback (so `live_instances` keeps
    /// counting them, as the arena does).
    taken: HashSet<InstanceId>,
    leader_of_sn: HashMap<SeqNr, NodeId>,
    proposed: HashMap<SeqNr, Batch>,
    /// The deadline and token of each instance's pending timer.
    instance_timers: HashMap<InstanceId, (Time, u64)>,
}

impl ReferenceNodeState {
    fn new() -> Self {
        Self::default()
    }

    fn record_segment(&mut self, seq_nrs: &[SeqNr], leader: NodeId) {
        for sn in seq_nrs {
            self.leader_of_sn.insert(*sn, leader);
        }
    }

    fn insert_instance(&mut self, id: InstanceId, instance: Box<dyn SbInstance>) {
        self.instances.insert(id, instance);
    }

    fn is_live(&self, id: InstanceId) -> bool {
        self.instances.contains_key(&id) || self.taken.contains(&id)
    }

    fn take_instance(&mut self, id: InstanceId) -> Option<Box<dyn SbInstance>> {
        let instance = self.instances.remove(&id)?;
        self.taken.insert(id);
        Some(instance)
    }

    fn restore_instance(&mut self, id: InstanceId, instance: Box<dyn SbInstance>) {
        if self.taken.remove(&id) {
            self.instances.insert(id, instance);
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

    fn set_timer(&mut self, id: InstanceId, token: u64, deadline: Time) {
        if self.is_live(id) {
            self.instance_timers.insert(id, (deadline, token));
        }
    }

    /// The pending deadline of `id`, if any.
    fn deadline(&self, id: InstanceId) -> Option<Time> {
        self.instance_timers.get(&id).map(|&(at, _)| at)
    }

    /// Takes every expiry due by `now`, in order.
    fn due(&mut self, now: Time) -> Vec<(Time, InstanceId, u64)> {
        let mut due: Vec<(Time, InstanceId, u64)> = self
            .instance_timers
            .iter()
            .filter(|(_, &(at, _))| at <= now)
            .map(|(&id, &(at, token))| (at, id, token))
            .collect();
        for (_, id, _) in &due {
            self.instance_timers.remove(id);
        }
        due.sort();
        due
    }

    fn gc(&mut self, keep_epochs_from: EpochNr, leader_cut: Option<SeqNr>) {
        self.instances.retain(|id, _| id.epoch >= keep_epochs_from);
        self.taken.retain(|id| id.epoch >= keep_epochs_from);
        self.instance_timers
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
    segments: u32,
}

/// The runtime timers the arena armed and that have not fired yet: the
/// simulated runtime fires each at its expiry, in arming order on ties.
#[derive(Default)]
struct Runtime {
    pending: Vec<(Time, TimerId)>,
    armed: u64,
}

impl Runtime {
    /// Arms a runtime timer `delay` after `now`.
    fn arm(&mut self, now: Time, delay: Duration) -> TimerId {
        self.armed += 1;
        let id = TimerId(self.armed);
        self.pending.push((now + delay, id));
        id
    }

    /// Takes the earliest pending timer that expires by `now`.
    fn pop_due(&mut self, now: Time) -> Option<(Time, TimerId)> {
        let (i, _) = self
            .pending
            .iter()
            .enumerate()
            .filter(|(_, (at, _))| *at <= now)
            .min_by_key(|(_, &entry)| entry)?;
        Some(self.pending.swap_remove(i))
    }
}

struct Driver {
    dense: EpochState,
    reference: ReferenceNodeState,
    epochs: Vec<LiveEpoch>,
    runtime: Runtime,
    now: Time,
    next_epoch: EpochNr,
    next_seq_nr: SeqNr,
    next_marker: u64,
}

impl Driver {
    fn new() -> Self {
        Driver {
            dense: EpochState::new(),
            reference: ReferenceNodeState::new(),
            epochs: Vec::new(),
            runtime: Runtime::default(),
            now: Time::ZERO,
            next_epoch: 0,
            next_seq_nr: 0,
            next_marker: 1,
        }
    }

    /// Opens a new epoch with `segments` round-robin segments on both
    /// implementations. Its length need not be a multiple of the number of
    /// segments.
    fn begin_epoch(&mut self, rng: &mut StdRng) {
        let segments = rng.gen_range(1u32..6);
        let per_segment = rng.gen_range(1u64..5);
        let length = segments as u64 * per_segment + rng.gen_range(0..segments as u64);
        let epoch = self.next_epoch;
        let first = self.next_seq_nr;
        self.next_epoch += 1;
        self.next_seq_nr += length;
        let leaders: Vec<NodeId> = (0..segments)
            .map(|_| NodeId(rng.gen_range(0u32..8)))
            .collect();
        self.dense
            .begin_epoch(epoch, first, length, leaders.clone());
        for (s, leader) in (0..segments).zip(leaders) {
            let seq_nrs: Vec<SeqNr> = (0..length)
                .filter(|o| o % segments as u64 == s as u64)
                .map(|o| first + o)
                .collect();
            self.reference.record_segment(&seq_nrs, leader);
            let id = InstanceId::new(epoch, s);
            self.dense.insert_instance(id, null());
            self.reference.insert_instance(id, null());
        }
        self.epochs.push(LiveEpoch {
            epoch,
            first_seq_nr: first,
            length,
            segments,
        });
    }

    /// Picks a random instance of a known epoch — possibly one whose epoch
    /// has been GC'd, or a segment index past the epoch's last, so
    /// dead-instance behaviour is exercised too.
    fn pick_instance(&self, rng: &mut StdRng) -> Option<InstanceId> {
        if self.epochs.is_empty() {
            return None;
        }
        let e = &self.epochs[rng.gen_range(0..self.epochs.len())];
        Some(InstanceId::new(e.epoch, rng.gen_range(0..=e.segments)))
    }

    /// A random sequence number drawn from the full history (including GC'd
    /// epochs and a margin of never-assigned numbers).
    fn pick_sn(&self, rng: &mut StdRng) -> SeqNr {
        rng.gen_range(0..self.next_seq_nr.max(1) + 4)
    }

    /// Takes `id` out of both states and puts it back, checking that they
    /// agree on whether it is live and that a taken instance cannot be taken
    /// twice.
    fn dispatch(&mut self, id: InstanceId) {
        let dense = self.dense.take_instance(id);
        let reference = self.reference.take_instance(id);
        assert_eq!(
            dense.is_some(),
            reference.is_some(),
            "take_instance liveness diverged for {id:?}"
        );
        if let (Some(dense), Some(reference)) = (dense, reference) {
            assert!(self.dense.take_instance(id).is_none());
            assert!(self.reference.take_instance(id).is_none());
            self.dense.restore_instance(id, dense);
            self.reference.restore_instance(id, reference);
        }
    }

    /// Arms `instance`'s timer on both states; the arena arms at most one
    /// runtime timer, and none when the pending deadline is at or before
    /// the new one.
    fn arm(&mut self, instance: InstanceId, token: u64, delay: Duration) {
        let now = self.now;
        let deadline = now + delay;
        let pending = self.reference.deadline(instance);
        let before = self.runtime.armed;
        let runtime = &mut self.runtime;
        self.dense
            .set_timer(instance, token, now, delay, |d| runtime.arm(now, d));
        // A nearer deadline than the pending one may still find the runtime
        // timer armed for an even earlier arming.
        let armed = self.runtime.armed - before;
        let allowed = match pending {
            _ if !self.reference.is_live(instance) => 0..=0,
            None => 1..=1,
            Some(at) if at <= deadline => 0..=0,
            Some(_) => 0..=1,
        };
        assert!(
            allowed.contains(&armed),
            "{armed} runtime timers armed for {instance:?}"
        );
        self.reference.set_timer(instance, token, deadline);
    }

    /// Fires every runtime timer due by `by`, each at its expiry, and
    /// checks that the arena ran exactly the oracle's expiries.
    fn advance(&mut self, by: Time) {
        let mut fired = Vec::new();
        while let Some((at, timer)) = self.runtime.pop_due(by) {
            let runtime = &mut self.runtime;
            if let Some((id, token)) = self.dense.fire_timer(timer, at, |d| runtime.arm(at, d)) {
                fired.push((at, id, token));
            }
        }
        fired.sort();
        assert_eq!(fired, self.reference.due(by), "expiries diverged by {by:?}");
        self.now = by;
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
            // Dispatch: take + restore on both.
            10..=39 => {
                if let Some(id) = self.pick_instance(rng) {
                    self.dispatch(id);
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
            // Timers: arm on a (possibly dead) instance, sometimes at a
            // nearer deadline than the pending one.
            70..=79 => {
                let Some(instance) = self.pick_instance(rng) else {
                    return;
                };
                let token = rng.gen_range(0u64..4);
                let delay = Duration::from_millis(rng.gen_range(0u64..40));
                self.arm(instance, token, delay);
            }
            // Let time pass: the runtime fires what is due.
            80..=89 => {
                let by = self.now + Duration::from_millis(rng.gen_range(0u64..30));
                self.advance(by);
            }
            // Queries.
            _ => {
                let sn = self.pick_sn(rng);
                assert_eq!(
                    self.dense.leader_of(sn),
                    self.reference.leader_of(sn),
                    "leader_of({sn}) diverged"
                );
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
        let ids: Vec<InstanceId> = driver
            .epochs
            .iter()
            .flat_map(|e| (0..=e.segments).map(move |s| InstanceId::new(e.epoch, s)))
            .collect();
        for id in ids {
            driver.dispatch(id);
        }
        // Run out the clock: every pending expiry agrees, and no runtime
        // timer is left behind.
        let end = driver.now + Duration::from_secs(3600);
        driver.advance(end);
        assert!(driver.runtime.pending.is_empty());
    }
}

/// Live arenas and instances never exceed what the node keeps at once (the
/// previous, current and next epoch's arenas; the current and previous
/// epoch's instances), no matter how many epochs a lifecycle churns through
/// (the memory half of the wholesale-GC claim).
#[test]
fn live_arenas_are_bounded_by_concurrent_epochs() {
    let mut state = EpochState::new();
    let mut first = 0u64;
    let mut peak_instances = 0usize;
    let mut peak_arenas = 0usize;
    for epoch in 0..200u64 {
        state.begin_epoch(epoch, first, 8, (0..4).map(NodeId).collect());
        for s in 0..4u32 {
            state.insert_instance(InstanceId::new(epoch, s), null());
        }
        first += 8;
        peak_instances = peak_instances.max(state.live_instances());
        peak_arenas = peak_arenas.max(state.arena_count());
        if epoch > 0 {
            state.gc(epoch, Some(first.saturating_sub(16)));
        }
    }
    assert_eq!(
        peak_instances, 8,
        "at most two epochs of instances live at once"
    );
    assert!(
        peak_arenas <= 3,
        "{peak_arenas} arenas live: dead arenas must be dropped wholesale"
    );
}

#[test]
fn reference_matches_on_the_basics() {
    let mut state = ReferenceNodeState::new();
    state.record_segment(&[0, 2], NodeId(0));
    state.record_segment(&[1, 3], NodeId(1));
    let id = InstanceId::new(0, 0);
    state.insert_instance(id, null());
    assert!(state.is_live(id));
    assert_eq!(state.leader_of(2), Some(NodeId(0)));
    let inst = state.take_instance(id).unwrap();
    assert_eq!(state.live_instances(), 1, "taken instances still count");
    state.restore_instance(id, inst);
    state.set_timer(id, 5, Time::from_millis(10));
    state.set_timer(id, 6, Time::from_millis(30));
    assert!(
        state.due(Time::from_millis(20)).is_empty(),
        "moved deadline"
    );
    assert_eq!(
        state.due(Time::from_millis(30)),
        [(Time::from_millis(30), id, 6)]
    );
    assert!(state.due(Time::from_millis(40)).is_empty(), "runs once");
    state.gc(1, Some(4));
    assert!(!state.is_live(id));
    assert_eq!(state.leader_of(2), None);
    assert_eq!(state.live_instances(), 0);
}
