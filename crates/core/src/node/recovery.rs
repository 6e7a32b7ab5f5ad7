//! Recovery: durable persistence (the WAL and checkpoint snapshots), the
//! silent replay at boot, and catching up from peers — one request, one
//! re-ask timer, and an answer of snapshot chunks and a state response
//! (Section 3.5, generalized to checkpoint snapshots). Every storage call
//! the node makes is in this module.

use super::epochs::epoch_config;
use super::{IssNode, KIND_CATCH_UP};
use crate::checkpoint::StableCheckpoint;
use bytes::{Bytes, BytesMut};
use iss_messages::codec::{decode_log, encode_log};
use iss_messages::isscp::LogEntry;
use iss_messages::{IssMsg, NetMsg};
use iss_runtime::process::{Addr, Context};
use iss_storage::record::{decode_policy, encode_policy, PolicyState, Snapshot, WalRecord};
use iss_storage::Storage;
use iss_types::{Batch, NodeId, SeqNr, Time, TimerId};
use std::collections::btree_map::{BTreeMap, Entry};

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
    /// The re-ask timer of the catch-up request in flight. At most one
    /// request is outstanding; a timer of an earlier request or recovery
    /// matches nothing.
    outstanding: Option<TimerId>,
    /// The delivery head an answer promised: once `firstUndelivered`
    /// reaches it, the node has delivered everything the peer had.
    caught_up_at: Option<SeqNr>,
    /// Peers asked in rotation so far.
    rotations: u32,
}

/// An incoming chunked snapshot being reassembled.
pub(super) struct SnapshotAssembly {
    stable: StableCheckpoint,
    total_delivered: u64,
    policy: Bytes,
    /// The chunks received so far, by offset.
    chunks: BTreeMap<u32, Bytes>,
    /// Bytes the chunks hold together.
    received: usize,
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
                entries_replayed: replayed,
                ..RecoveryProgress::default()
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

    /// Catches up from a peer, the only way this node asks for state:
    /// enters recovery (emitting `on_recovery_started` once) and, unless a
    /// request is outstanding, asks one peer for everything it delivered
    /// from this node's delivery head on — `prefer`, a peer that showed it
    /// is ahead, or else the next peer in rotation — and arms the re-ask
    /// timer.
    pub(super) fn catch_up(&mut self, prefer: Option<NodeId>, ctx: &mut Context<'_, NetMsg>) {
        let progress = self.recovery.get_or_insert_with(RecoveryProgress::default);
        if !progress.announced {
            progress.announced = true;
            self.sink
                .borrow_mut()
                .on_recovery_started(self.my_id, ctx.now());
        }
        if progress.outstanding.is_some() {
            return;
        }
        let peer = prefer.unwrap_or_else(|| {
            let n = self.all_nodes.len() as u32;
            let offset = 1 + progress.rotations % n.saturating_sub(1).max(1);
            progress.rotations += 1;
            NodeId((self.my_id.0 + offset) % n)
        });
        let timeout = self.opts.config.view_change_timeout;
        progress.outstanding = Some(ctx.set_timer(timeout, KIND_CATCH_UP));
        let from_seq_nr = self.log.first_undelivered();
        ctx.send(
            Addr::Node(peer),
            NetMsg::Iss(IssMsg::SnapshotRequest { from_seq_nr }),
        );
    }

    /// The re-ask timer fired: if its request is still outstanding, no
    /// answer caught this node up in time, so ask the next peer.
    pub(super) fn on_catch_up_timer(&mut self, id: TimerId, ctx: &mut Context<'_, NetMsg>) {
        let outstanding = self.recovery.as_mut().filter(|p| p.outstanding == Some(id));
        if let Some(progress) = outstanding {
            progress.outstanding = None;
            self.catch_up(None, ctx);
        }
    }

    /// The last answer to a catch-up request: commits the peer's delivered
    /// suffix. The node is caught up once it has delivered through the
    /// suffix's last entry, now or when snapshot chunks still in flight
    /// close the gap below it, and at once when the suffix is empty.
    pub(super) fn on_state_response(
        &mut self,
        entries: Vec<LogEntry>,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        if let Some(progress) = self.recovery.as_mut() {
            progress.caught_up_at = Some(entries.last().map_or(0, |e| e.seq_nr + 1));
        }
        self.commit_transferred(entries.into_iter().map(|e| (e.seq_nr, e.batch)), ctx);
        self.maybe_finish_epoch(ctx);
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
        let caught_up_at = self.recovery.as_ref().and_then(|p| p.caught_up_at);
        if caught_up_at.is_some_and(|head| self.log.first_undelivered() >= head) {
            self.finish_recovery(ctx.now());
        }
    }

    /// Answers a catch-up request with everything this node has delivered
    /// from `from_seq_nr` on: its latest stable checkpoint as snapshot
    /// chunks when `from_seq_nr` is at or below it, then always a state
    /// response with the delivered entries from the chunks' last one on
    /// (from `from_seq_nr` without chunks; empty when it has nothing
    /// newer).
    pub(super) fn serve_catch_up(
        &self,
        to: NodeId,
        from_seq_nr: SeqNr,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        // After chunks, the suffix repeats the snapshot's last entry, so a
        // response that overtakes its chunks cannot end the requester's
        // recovery before they are installed.
        let suffix_from = self
            .send_snapshot(to, from_seq_nr, ctx)
            .unwrap_or(from_seq_nr);
        // Everything this node has itself delivered is backed by an SB
        // quorum (a production implementation would attach the per-entry
        // commit certificates; the simulator does not model forged state
        // transfer). Serving past the last stable checkpoint is what lets a
        // rebooted replica close a mid-epoch gap without waiting out
        // view-change timeouts. Batch clones are refcount bumps, not
        // payload copies.
        let head = self.log.first_undelivered();
        let entries: Vec<LogEntry> = if suffix_from < head {
            self.log
                .range(suffix_from, head - 1)
                .map(|(sn, e)| LogEntry {
                    seq_nr: sn,
                    batch: e.batch.clone(),
                })
                .collect()
        } else {
            Vec::new()
        };
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

    /// Sends the latest stable checkpoint plus every retained log entry from
    /// `from_seq_nr` through it, chunked so reassembly is independent of
    /// message size limits. Returns the checkpoint's last sequence number,
    /// or `None` when `from_seq_nr` is past it or the range cannot be
    /// served whole.
    fn send_snapshot(
        &self,
        to: NodeId,
        from_seq_nr: SeqNr,
        ctx: &mut Context<'_, NetMsg>,
    ) -> Option<SeqNr> {
        let stable = self.checkpoints.latest_stable()?;
        if from_seq_nr > stable.max_seq_nr {
            return None; // requester is not behind our stable state
        }
        let (total_delivered, policy) = self.snapshot_meta.get(&stable.epoch)?;
        // The served range must be contiguous: a gap (entries pruned below
        // our own snapshot cut) would stall the requester's delivery.
        let entries: Vec<(SeqNr, Option<Batch>)> = self
            .log
            .range(from_seq_nr, stable.max_seq_nr)
            .map(|(sn, e)| (sn, e.batch.clone()))
            .collect();
        if entries.len() as u64 != stable.max_seq_nr - from_seq_nr + 1 {
            return None;
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
        Some(stable.max_seq_nr)
    }

    /// Reassembles an incoming [`IssMsg::SnapshotChunk`]; installs the
    /// snapshot once its chunks add up to the whole payload.
    pub(super) fn on_snapshot_chunk(&mut self, chunk: IssMsg, ctx: &mut Context<'_, NetMsg>) {
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
            ..
        } = chunk
        else {
            return;
        };
        // Already caught up past this snapshot (e.g. a second peer's stream).
        if epoch < self.epoch.epoch || max_seq_nr < self.log.first_undelivered() {
            return;
        }
        // Chunks may arrive in any order (a simulated receiver's cores
        // finish small messages first); a chunk of another snapshot starts
        // the assembly over.
        let same = self.incoming_snapshot.as_ref().is_some_and(|a| {
            (a.stable.epoch, a.stable.max_seq_nr, a.total_len) == (epoch, max_seq_nr, total_len)
        });
        if !same {
            self.incoming_snapshot = Some(SnapshotAssembly {
                stable: StableCheckpoint {
                    epoch,
                    max_seq_nr,
                    root,
                    proof,
                },
                total_delivered,
                policy,
                chunks: BTreeMap::new(),
                received: 0,
                total_len,
            });
        }
        let assembly = self.incoming_snapshot.as_mut().expect("set above");
        let Entry::Vacant(slot) = assembly.chunks.entry(offset) else {
            return;
        };
        assembly.received += data.len();
        slot.insert(data);
        if let Some(progress) = self.recovery.as_mut() {
            progress.snapshot_chunks += 1;
        }
        if assembly.received != total_len as usize {
            return;
        }
        let assembly = self.incoming_snapshot.take().expect("checked above");
        self.install_snapshot(assembly, ctx);
    }

    /// Verifies and installs a fully reassembled snapshot: commits the
    /// transferred entries (with *normal* delivery — they are new to this
    /// node), adopts the policy state at the cut, and fast-forwards the
    /// epoch to just past the checkpoint. The state response that follows
    /// the chunks carries the log suffix beyond it.
    fn install_snapshot(&mut self, assembly: SnapshotAssembly, ctx: &mut Context<'_, NetMsg>) {
        let stable = &assembly.stable;
        if !self.checkpoints.verify_stable_proof(stable) {
            return;
        }
        let mut data = Vec::with_capacity(assembly.received);
        for (offset, chunk) in &assembly.chunks {
            if *offset as usize != data.len() {
                return; // overlapping chunks
            }
            data.extend_from_slice(chunk);
        }
        let Ok(entries) = decode_log(&data) else {
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
    }
}
