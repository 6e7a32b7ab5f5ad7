//! Epochs: entering an epoch (Algorithm 3, `initEpoch`), opening its SB
//! instances and replaying the SB messages held back for it, the epoch-end
//! checkpoint and transition (Section 3.5), and Mir's epoch primary.

use super::{IssNode, Mode, NodeOptions, KIND_MIR_EPOCH};
use crate::checkpoint::{CheckpointManager, StableCheckpoint};
use crate::epoch::EpochConfig;
use crate::policy::LeaderPolicy;
use crate::validation::EpochBuckets;
use iss_messages::{ClientMsg, MirMsg, NetMsg, SbMsg};
use iss_runtime::process::{Addr, Context};
use iss_storage::record::PolicyState;
use iss_types::{EpochNr, InstanceId, NodeId, SeqNr};

/// Epoch `epoch` starting at `first_seq_nr`, led by the leaderset the mode
/// and the leader policy choose. Every epoch the node enters — at boot,
/// after a WAL replay or a snapshot, and at the end of the previous one — is
/// laid out here.
pub(super) fn epoch_config(
    opts: &NodeOptions,
    policy: &LeaderPolicy,
    epoch: EpochNr,
    first_seq_nr: SeqNr,
) -> EpochConfig {
    let leaders = match opts.mode {
        Mode::SingleLeader => vec![NodeId(0)],
        Mode::Iss | Mode::Mir => policy.leaders(epoch),
    };
    EpochConfig::build(&opts.config, epoch, first_seq_nr, leaders)
}

impl IssNode {
    /// The epoch primary in Mir mode.
    pub(super) fn mir_primary(&self, epoch: EpochNr) -> NodeId {
        NodeId((epoch % self.opts.config.num_nodes as u64) as u32)
    }

    /// Enters `epoch` at `first_seq_nr` on a running node: reports the
    /// advance to the sink, opens the epoch's SB instances and replays the
    /// messages held back for it. Held messages of any other epoch (one a
    /// snapshot jumped past) are discarded.
    pub(super) fn start_epoch(
        &mut self,
        epoch: EpochNr,
        first_seq_nr: SeqNr,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        self.epoch = epoch_config(&self.opts, &self.policy, epoch, first_seq_nr);
        self.sink
            .borrow_mut()
            .on_epoch_advanced(self.my_id, epoch, ctx.now());
        self.setup_epoch_instances(ctx);
        self.held_per_sender.clear();
        for (from, instance, msg) in std::mem::take(&mut self.next_epoch_msgs) {
            if instance.epoch == epoch {
                self.on_sb_message(from, instance, msg, ctx);
            }
        }
    }

    /// Hands an SB message to its instance. One addressed to an epoch at or
    /// below the current one is driven if its instance is still live and
    /// dropped otherwise. A message of the next epoch is held back until
    /// this node enters it: a node enters an epoch once it has itself
    /// delivered the previous one, so peers normally start it first, and SB
    /// protocols never re-send a proposal. A sender may have at most
    /// `3 × epoch length` messages held, what a correct peer sends for one
    /// epoch at view 0 (a pre-prepare, a prepare and a commit per sequence
    /// number); past that, and two epochs ahead, it is dropped.
    pub(super) fn on_sb_message(
        &mut self,
        from: NodeId,
        instance: InstanceId,
        msg: SbMsg,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        if instance.epoch <= self.epoch.epoch {
            self.drive(instance, ctx, |inst, sb| inst.on_message(from, msg, sb));
            return;
        }
        if instance.epoch == self.epoch.epoch + 1 {
            let config = &self.opts.config;
            let held = self.held_per_sender.entry(from).or_default();
            if *held < 3 * config.epoch_length(config.num_nodes) {
                *held += 1;
                self.next_epoch_msgs.push((from, instance, msg));
            }
        }
        // We may also have fallen behind: catch up from the sender, which
        // serves what it delivered, including commits of our own epoch that
        // no one will re-send (Section 3.5 generalized to checkpoint
        // snapshots).
        self.catch_up(Some(from), ctx);
    }

    pub(super) fn setup_epoch_instances(&mut self, ctx: &mut Context<'_, NetMsg>) {
        // Open the epoch's arena with its leaders in segment order (the
        // leader of a sequence number follows from the stride), and give
        // proposal validation each segment's buckets.
        self.state.begin_epoch(
            self.epoch.epoch,
            self.epoch.first_seq_nr,
            self.epoch.length,
            self.epoch.leaders.clone(),
        );
        let mut epoch_buckets =
            EpochBuckets::new(self.epoch.first_seq_nr, self.opts.config.num_buckets());
        for segment in &self.epoch.segments {
            epoch_buckets.add_segment(&segment.seq_nrs, &segment.buckets);
        }
        self.validation.on_epoch_start(epoch_buckets);

        // Create and initialize one SB instance per segment, stored in the
        // arena by its segment index. Segments are `Arc`-shared with the
        // instances, so this clone of the segment list is a refcount bump
        // per segment, not a deep copy.
        self.my_segment_idx = None;
        for (idx, segment) in self.epoch.segments.clone().into_iter().enumerate() {
            if segment.leader == self.my_id {
                self.my_segment_idx = Some(idx);
            }
            let instance_id = segment.instance;
            let instance = (self.factory)(self.my_id, segment);
            self.state.insert_instance(instance_id, instance);
            self.drive(instance_id, ctx, |inst, sb| inst.init(sb));
        }
        self.next_proposal = 0;
        self.state.clear_proposed();
        self.last_proposal_at = ctx.now();

        // Announce the bucket assignment to clients (Section 4.3).
        if self.opts.announce_buckets {
            let leaders = ClientMsg::BucketLeaders {
                epoch: self.epoch.epoch,
                leaders: self.epoch.bucket_owners(),
            };
            for client in &self.opts.clients {
                ctx.send(Addr::Client(*client), NetMsg::Client(leaders.clone()));
            }
        }
    }

    /// A checkpoint just became stable on this node, `from`'s checkpoint
    /// message completing it: persist a snapshot, and detect whether the
    /// cluster has moved past us (reconnect fast path).
    pub(super) fn on_checkpoint_stable(
        &mut self,
        from: NodeId,
        stable: StableCheckpoint,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        self.maybe_persist_snapshot(&stable);
        // A quorum finished an epoch we have not even started (e.g. the far
        // side of a healed partition): catch up from a peer that finished
        // it instead of waiting out epoch-change timeouts.
        if stable.epoch > self.epoch.epoch {
            self.catch_up(Some(from), ctx);
        }
    }

    /// Closes the current epoch if its whole range is committed: hands its
    /// outcome to the leader policy and captures what a snapshot of it needs
    /// beyond the stable checkpoint. Right now `firstUndelivered ==
    /// max(Sn(e)) + 1`, so `totalDelivered` is exactly the request count
    /// through the checkpoint.
    fn close_epoch(&mut self) -> bool {
        let (first, last) = (self.epoch.first_seq_nr, self.epoch.max_seq_nr());
        if !self.log.range_complete(first, last) {
            return false;
        }
        self.policy.on_epoch_end((first, last));
        let (penalties, failures) = self.policy.export_records();
        let policy = PolicyState {
            penalties,
            failures,
        };
        let epoch = self.epoch.epoch;
        self.snapshot_meta
            .insert(epoch, (self.log.total_delivered(), policy));
        // Only the recent epochs can still be served or snapshotted.
        self.snapshot_meta
            .retain(|e, _| *e >= epoch.saturating_sub(2));
        true
    }

    pub(super) fn maybe_finish_epoch(&mut self, ctx: &mut Context<'_, NetMsg>) {
        if !self.close_epoch() {
            return;
        }
        // Broadcast the epoch checkpoint (Section 3.5).
        let (first, last) = (self.epoch.first_seq_nr, self.epoch.max_seq_nr());
        let root = CheckpointManager::epoch_root(&self.log, first, last);
        let msg = self
            .checkpoints
            .make_checkpoint(self.epoch.epoch, last, root);
        ctx.broadcast(&self.all_nodes, NetMsg::Iss(msg));
        // Completing an epoch the ordinary way means any pending catch-up is
        // over (the node kept pace without needing a snapshot).
        self.finish_recovery(ctx.now());

        match self.opts.mode {
            Mode::Mir => {
                // Mir-BFT: the epoch primary announces the next epoch; all
                // instances stall until the announcement (or a timeout)
                // arrives. This is the behaviour ISS removes.
                let next = self.epoch.epoch + 1;
                if self.mir_primary(next) == self.my_id {
                    let msg = MirMsg::NewEpoch {
                        epoch: next,
                        config_digest: root,
                    };
                    ctx.broadcast(&self.all_nodes, NetMsg::Mir(msg));
                    self.start_next_epoch(ctx);
                } else {
                    self.mir_waiting = true;
                    ctx.set_timer(self.opts.config.epoch_change_timeout, KIND_MIR_EPOCH);
                }
            }
            Mode::Iss | Mode::SingleLeader => self.start_next_epoch(ctx),
        }
    }

    pub(super) fn start_next_epoch(&mut self, ctx: &mut Context<'_, NetMsg>) {
        self.mir_waiting = false;
        let finished = self.epoch.epoch;

        // Garbage-collect instances of epochs strictly older than the one we
        // just finished (the just-finished epoch's instances are kept one more
        // epoch so slow nodes can still be served, Section 2.3), and the
        // delivered log prefix below the latest stable checkpoint older than
        // the kept epoch. A collected epoch's arena forgets its instances and
        // goes once the cut passes it; a message or timer still addressed to
        // one of them finds nothing to drive.
        let cut = self
            .checkpoints
            .stable_for(finished.saturating_sub(1))
            .map(|stable| stable.max_seq_nr + 1);
        if let Some(cut) = cut {
            self.log.garbage_collect(cut);
        }
        self.state.gc(finished, cut);

        self.start_epoch(finished + 1, self.epoch.next_first_seq_nr(), ctx);
    }

    /// Advances through epochs whose full range is already committed,
    /// without network traffic or sink events (used after WAL replay, where
    /// the cluster already went through these transitions).
    pub(super) fn fast_forward_epochs(&mut self) {
        while self.close_epoch() {
            let (epoch, first) = (self.epoch.epoch + 1, self.epoch.next_first_seq_nr());
            self.epoch = epoch_config(&self.opts, &self.policy, epoch, first);
        }
    }
}
