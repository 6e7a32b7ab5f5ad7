//! Recovery: durable persistence (the WAL and checkpoint snapshots), the
//! silent replay at boot, and catching up from peers — snapshot serving and
//! installation and state transfer (Section 3.5, generalized to checkpoint
//! snapshots). Every storage call the node makes is in this module.

use super::epochs::epoch_config;
use super::IssNode;
use crate::checkpoint::StableCheckpoint;
use bytes::{Bytes, BytesMut};
use iss_messages::codec::{decode_log, encode_log};
use iss_messages::isscp::LogEntry;
use iss_messages::{IssMsg, NetMsg};
use iss_runtime::process::{Addr, Context};
use iss_storage::record::{decode_policy, encode_policy, PolicyState, Snapshot, WalRecord};
use iss_storage::Storage;
use iss_types::{Batch, NodeId, SeqNr, Time};

/// Size of one snapshot chunk on the state-transfer fast path.
const SNAPSHOT_CHUNK_BYTES: usize = 64 << 10;

/// Catch-up bookkeeping between recovery start and completion.
#[derive(Clone, Copy, Debug, Default)]
pub(super) struct RecoveryProgress {
    /// Whether `on_recovery_started` was already emitted.
    announced: bool,
    /// Log entries restored from the WAL at boot.
    entries_replayed: u64,
    /// Snapshot chunks received over the fast path.
    snapshot_chunks: u64,
}

/// An incoming chunked snapshot being reassembled.
pub(super) struct SnapshotAssembly {
    stable: StableCheckpoint,
    total_delivered: u64,
    policy: Bytes,
    data: Vec<u8>,
    total_len: u32,
}

impl IssNode {
    /// Restores log, policy and checkpoint state from `storage` (see
    /// [`IssNode::with_storage`]).
    pub(super) fn replay_from_storage(&mut self, storage: &dyn Storage) {
        let Ok(recovered) = storage.recover() else {
            return;
        };
        let mut replayed = 0u64;
        if let Some(snap) = &recovered.snapshot {
            self.log
                .restore_delivery_state(snap.max_seq_nr + 1, snap.total_delivered);
            let stable = StableCheckpoint {
                epoch: snap.epoch,
                max_seq_nr: snap.max_seq_nr,
                root: snap.root,
                proof: snap
                    .proof
                    .iter()
                    .map(|(n, s)| (*n, Bytes::from(s.clone())))
                    .collect(),
            };
            self.adopt_checkpoint(stable, snap.total_delivered, snap.policy.clone());
            self.last_snapshot_epoch = Some(snap.epoch);
            // Re-anchor the epoch sequence at the snapshot boundary; the
            // restored policy yields the same leadersets the live cluster
            // computed for this epoch.
            self.epoch = epoch_config(
                &self.opts,
                &self.policy,
                snap.epoch + 1,
                snap.max_seq_nr + 1,
            );
        }
        // Silent WAL replay: no sink events, no client responses — those
        // happened before the crash.
        for record in &recovered.wal {
            let WalRecord::Committed {
                seq_nr,
                leader,
                batch,
            } = record;
            if !self.log.commit(*seq_nr, batch.clone(), *leader) {
                continue;
            }
            replayed += 1;
            match batch {
                Some(b) => {
                    for req in b.requests() {
                        self.validation.mark_delivered(&req.id);
                    }
                }
                None => self.policy.record_nil_delivery(*leader, *seq_nr),
            }
        }
        let _ = self.log.deliver_ready();
        self.fast_forward_epochs();
        if recovered.snapshot.is_some() || replayed > 0 {
            self.recovery = Some(RecoveryProgress {
                announced: false,
                entries_replayed: replayed,
                snapshot_chunks: 0,
            });
        }
    }

    /// Adopts the cluster's view at a stable checkpoint: the policy state
    /// determines future leadersets, the checkpoint unlocks GC and serving.
    fn adopt_checkpoint(&mut self, stable: StableCheckpoint, total: u64, policy: PolicyState) {
        self.policy
            .restore_records(&policy.penalties, &policy.failures);
        self.snapshot_meta.insert(stable.epoch, (total, policy));
        self.checkpoints.install_stable(stable);
    }

    /// Appends a committed entry to the WAL, if this node persists.
    pub(super) fn persist_commit(&mut self, sn: SeqNr, leader: NodeId, batch: &Option<Batch>) {
        if let Some(storage) = &self.storage {
            let _ = storage.append(&WalRecord::Committed {
                seq_nr: sn,
                leader,
                batch: batch.clone(),
            });
        }
    }

    /// Persists a snapshot at a newly stable checkpoint and prunes the WAL
    /// below it.
    pub(super) fn maybe_persist_snapshot(&mut self, stable: &StableCheckpoint) {
        let Some(storage) = &self.storage else {
            return;
        };
        if self.last_snapshot_epoch.is_some_and(|e| e >= stable.epoch) {
            return;
        }
        // Snapshot only what this node has actually delivered through.
        if self.log.first_undelivered() <= stable.max_seq_nr {
            return;
        }
        let Some((total_delivered, policy)) = self.snapshot_meta.get(&stable.epoch) else {
            return;
        };
        let snapshot = Snapshot {
            epoch: stable.epoch,
            max_seq_nr: stable.max_seq_nr,
            root: stable.root,
            proof: stable.proof.iter().map(|(n, s)| (*n, s.to_vec())).collect(),
            total_delivered: *total_delivered,
            policy: policy.clone(),
        };
        if storage.save_snapshot(&snapshot).is_ok() {
            let _ = storage.prune_below(stable.max_seq_nr + 1);
            self.last_snapshot_epoch = Some(stable.epoch);
        }
    }

    /// Marks the node as recovering (idempotent) and emits
    /// `on_recovery_started` once.
    fn enter_recovery(&mut self, now: Time) {
        let progress = self.recovery.get_or_insert_with(RecoveryProgress::default);
        if !progress.announced {
            progress.announced = true;
            self.sink.borrow_mut().on_recovery_started(self.my_id, now);
        }
    }

    /// Emits `on_recovery_completed` if a recovery was in progress.
    pub(super) fn finish_recovery(&mut self, now: Time) {
        if let Some(progress) = self.recovery.take() {
            self.sink.borrow_mut().on_recovery_completed(
                self.my_id,
                progress.entries_replayed,
                progress.snapshot_chunks,
                now,
            );
        }
    }

    /// Enters recovery and asks `target` (every other node when `None`) for
    /// a snapshot of everything at or above this node's delivery head.
    pub(super) fn request_snapshot(
        &mut self,
        target: Option<NodeId>,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        self.enter_recovery(ctx.now());
        let msg = NetMsg::Iss(IssMsg::SnapshotRequest {
            from_seq_nr: self.log.first_undelivered(),
        });
        match target {
            Some(node) => ctx.send(Addr::Node(node), msg),
            None => ctx.broadcast(&self.all_nodes, msg),
        }
    }

    /// After a live commit on a recovering node. The node is caught up the
    /// moment a *live* commit gets delivered with nothing stranded behind a
    /// gap: delivery has reached the cluster's frontier. (Deliveries during
    /// snapshot install do not count — the frontier is past the checkpoint
    /// being installed.) While the gap persists, chase it: ask the gap
    /// head's leader for the delivered prefix we are missing. Each live
    /// commit re-triggers the request, so the transfer succeeds as soon as
    /// some peer has delivered past our gap; the recovery window bounds the
    /// chatter.
    pub(super) fn continue_recovery(&mut self, committed: SeqNr, ctx: &mut Context<'_, NetMsg>) {
        if self.recovery.is_none() {
            return;
        }
        if self.log.fully_delivered() {
            self.finish_recovery(ctx.now());
            return;
        }
        let head = self.log.first_undelivered();
        let target = self
            .state
            .leader_of(head)
            .filter(|l| *l != self.my_id)
            .unwrap_or(NodeId((self.my_id.0 + 1) % self.all_nodes.len() as u32));
        ctx.send(
            Addr::Node(target),
            NetMsg::Iss(IssMsg::StateRequest {
                from_seq_nr: head,
                to_seq_nr: committed,
            }),
        );
    }

    /// Commits log entries another node transferred (a snapshot's log or a
    /// state response) and delivers what they complete. The entries are new
    /// to this node, so unlike WAL replay they are persisted and their
    /// requests leave the bucket queues.
    pub(super) fn commit_transferred(
        &mut self,
        entries: impl IntoIterator<Item = (SeqNr, Option<Batch>)>,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        for (sn, batch) in entries {
            let leader = self.state.leader_of(sn).unwrap_or(NodeId(0));
            if self.log.commit(sn, batch.clone(), leader) {
                self.persist_commit(sn, leader, &batch);
                if let Some(b) = &batch {
                    for req in b.requests() {
                        self.buckets.remove(&req.id);
                        self.validation.mark_delivered(&req.id);
                    }
                }
            }
        }
        self.deliver_ready(ctx);
    }

    /// Serves a state request with the delivered contiguous prefix in
    /// `[from_seq_nr, to_seq_nr]`.
    pub(super) fn serve_state_request(
        &self,
        to: NodeId,
        from_seq_nr: SeqNr,
        to_seq_nr: SeqNr,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        // Everything this node has itself delivered is backed by an SB
        // quorum (a production implementation would attach the per-entry
        // commit certificates; the simulator does not model forged state
        // transfer). Serving past the last stable checkpoint is what lets a
        // rebooted replica close a mid-epoch gap without waiting out
        // view-change timeouts.
        let delivered_head = self.log.first_undelivered();
        if delivered_head == 0 {
            return;
        }
        let last = to_seq_nr.min(delivered_head - 1);
        if from_seq_nr > last {
            return;
        }
        // Batch clones are refcount bumps, not payload copies.
        let entries: Vec<LogEntry> = self
            .log
            .range(from_seq_nr, last)
            .map(|(sn, e)| LogEntry {
                seq_nr: sn,
                batch: e.batch.clone(),
            })
            .collect();
        // The checkpoint anchor is advisory for the receiver (it trusts the
        // quorum behind the entries, see above); absent a stable checkpoint
        // the anchor fields are zeroed.
        let (epoch, root, proof) = match self.checkpoints.latest_stable() {
            Some(stable) => (
                stable.epoch,
                stable.root,
                stable.proof.iter().map(|(_, s)| s.clone()).collect(),
            ),
            None => (0, [0u8; 32], Vec::new()),
        };
        ctx.send(
            Addr::Node(to),
            NetMsg::Iss(IssMsg::StateResponse {
                epoch,
                entries,
                root,
                proof,
            }),
        );
    }

    /// Serves a snapshot request: the latest stable checkpoint plus every
    /// retained log entry from the requester's head through the checkpoint,
    /// chunked so reassembly is independent of message size limits.
    pub(super) fn serve_snapshot_request(
        &self,
        to: NodeId,
        from_seq_nr: SeqNr,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        let Some(stable) = self.checkpoints.latest_stable() else {
            return;
        };
        if from_seq_nr > stable.max_seq_nr {
            return; // requester is not behind our stable state
        }
        let Some((total_delivered, policy)) = self.snapshot_meta.get(&stable.epoch) else {
            return;
        };
        // The served range must be contiguous: a gap (entries pruned below
        // our own snapshot cut) would stall the requester's delivery.
        let entries: Vec<(SeqNr, Option<Batch>)> = self
            .log
            .range(from_seq_nr, stable.max_seq_nr)
            .map(|(sn, e)| (sn, e.batch.clone()))
            .collect();
        if entries.len() as u64 != stable.max_seq_nr - from_seq_nr + 1 {
            return;
        }
        let data = Bytes::from(encode_log(&entries));
        let policy_bytes = {
            let mut buf = BytesMut::new();
            encode_policy(policy, &mut buf);
            buf.freeze()
        };
        let total_len = data.len() as u32;
        for offset in (0..data.len()).step_by(SNAPSHOT_CHUNK_BYTES) {
            let end = (offset + SNAPSHOT_CHUNK_BYTES).min(data.len());
            let done = end == data.len();
            ctx.send(
                Addr::Node(to),
                NetMsg::Iss(IssMsg::SnapshotChunk {
                    epoch: stable.epoch,
                    max_seq_nr: stable.max_seq_nr,
                    root: stable.root,
                    proof: stable.proof.clone(),
                    total_delivered: *total_delivered,
                    policy: policy_bytes.clone(),
                    offset: offset as u32,
                    total_len,
                    data: data.slice(offset..end),
                    done,
                }),
            );
        }
    }

    /// Reassembles an incoming [`IssMsg::SnapshotChunk`]; installs the
    /// snapshot when the final chunk arrives.
    pub(super) fn on_snapshot_chunk(
        &mut self,
        from: NodeId,
        chunk: IssMsg,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        let IssMsg::SnapshotChunk {
            epoch,
            max_seq_nr,
            root,
            proof,
            total_delivered,
            policy,
            offset,
            total_len,
            data,
            done,
        } = chunk
        else {
            return;
        };
        // Already caught up past this snapshot (e.g. a second peer's stream).
        if epoch < self.epoch.epoch || max_seq_nr < self.log.first_undelivered() {
            return;
        }
        if offset == 0 {
            self.incoming_snapshot = Some(SnapshotAssembly {
                stable: StableCheckpoint {
                    epoch,
                    max_seq_nr,
                    root,
                    proof,
                },
                total_delivered,
                policy,
                data: Vec::with_capacity(total_len as usize),
                total_len,
            });
        }
        let Some(assembly) = self.incoming_snapshot.as_mut() else {
            return;
        };
        if assembly.stable.epoch != epoch || assembly.data.len() != offset as usize {
            return; // out-of-order or interleaved stream; wait for a restart
        }
        assembly.data.extend_from_slice(&data);
        if let Some(progress) = self.recovery.as_mut() {
            progress.snapshot_chunks += 1;
        }
        if !done || assembly.data.len() != assembly.total_len as usize {
            return;
        }
        let assembly = self.incoming_snapshot.take().expect("checked above");
        self.install_snapshot(from, assembly, ctx);
    }

    /// Verifies and installs a fully reassembled snapshot: commits the
    /// transferred entries (with *normal* delivery — they are new to this
    /// node), adopts the policy state at the cut, fast-forwards the epoch to
    /// just past the checkpoint, and asks the serving peer for the log
    /// suffix beyond it.
    fn install_snapshot(
        &mut self,
        from: NodeId,
        assembly: SnapshotAssembly,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        let stable = &assembly.stable;
        if !self.checkpoints.verify_stable_proof(stable) {
            return;
        }
        let Ok(entries) = decode_log(&assembly.data) else {
            return;
        };
        let Ok(policy) = decode_policy(&mut assembly.policy.clone()) else {
            return;
        };
        let (epoch, max_seq_nr) = (stable.epoch, stable.max_seq_nr);
        self.commit_transferred(entries, ctx);
        if self.log.first_undelivered() <= max_seq_nr {
            return; // served range had a hole we could not close; keep waiting
        }
        self.adopt_checkpoint(assembly.stable.clone(), assembly.total_delivered, policy);
        self.maybe_persist_snapshot(&assembly.stable);
        if epoch >= self.epoch.epoch {
            // Jump straight past the checkpoint. Dropping the stale arenas
            // first lets `begin_epoch` open a non-successor epoch.
            self.state.gc(epoch + 1, Some(max_seq_nr + 1));
            self.start_epoch(epoch + 1, max_seq_nr + 1, ctx);
        }
        // Recovery is NOT finished yet: the cluster's frontier is past the
        // checkpoint just installed. The next live commit that gets
        // delivered with nothing stranded completes it
        // (`continue_recovery`). Fetch whatever the serving peer ordered
        // beyond the checkpoint.
        ctx.send(
            Addr::Node(from),
            NetMsg::Iss(IssMsg::StateRequest {
                from_seq_nr: self.log.first_undelivered(),
                to_seq_nr: self.epoch.max_seq_nr(),
            }),
        );
    }
}
