//! The ISS checkpointing sub-protocol and state transfer (Section 3.5).
//!
//! At the end of every epoch each node broadcasts a signed CHECKPOINT message
//! carrying the Merkle root of the digests of the epoch's batches. A *stable
//! checkpoint* is a set of 2f+1 matching, correctly signed CHECKPOINT
//! messages; once a node holds one it can garbage-collect the epoch's SB
//! instances and serve state-transfer requests to lagging nodes.

use crate::log::IssLog;
use bytes::Bytes;
use iss_crypto::{maybe_batch_digest, merkle_root, Digest, KeyPair, SignatureRegistry};
use iss_messages::IssMsg;
use iss_types::{EpochNr, NodeId, SeqNr};
use std::collections::HashMap;
use std::sync::Arc;

/// A stable checkpoint: proof that the epoch prefix is final.
#[derive(Clone, Debug, PartialEq)]
pub struct StableCheckpoint {
    /// The covered epoch.
    pub epoch: EpochNr,
    /// `max(Sn(e))`.
    pub max_seq_nr: SeqNr,
    /// Merkle root of the epoch's batch digests.
    pub root: Digest,
    /// The 2f+1 signatures (`π(e)` in the paper), paired with their signers.
    /// Refcounted so fanning the proof out during state transfer clones
    /// handles, not signature bytes.
    pub proof: Vec<(NodeId, Bytes)>,
}

/// Per-node checkpointing state.
pub struct CheckpointManager {
    my_id: NodeId,
    keypair: KeyPair,
    registry: Arc<SignatureRegistry>,
    quorum: usize,
    /// Collected CHECKPOINT signatures per (epoch, root), for epochs not yet
    /// stable.
    collected: HashMap<(EpochNr, Digest), HashMap<NodeId, Bytes>>,
    stable: HashMap<EpochNr, StableCheckpoint>,
    latest_stable: Option<EpochNr>,
}

impl CheckpointManager {
    /// Creates the manager for one node; `quorum` is 2f+1.
    pub fn new(
        my_id: NodeId,
        keypair: KeyPair,
        registry: Arc<SignatureRegistry>,
        quorum: usize,
    ) -> Self {
        CheckpointManager {
            my_id,
            keypair,
            registry,
            quorum,
            collected: HashMap::new(),
            stable: HashMap::new(),
            latest_stable: None,
        }
    }

    /// Bytes covered by a checkpoint signature.
    fn signing_bytes(epoch: EpochNr, max_seq_nr: SeqNr, root: &Digest) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(56);
        bytes.extend_from_slice(b"iss-checkpoint");
        bytes.extend_from_slice(&epoch.to_le_bytes());
        bytes.extend_from_slice(&max_seq_nr.to_le_bytes());
        bytes.extend_from_slice(root);
        bytes
    }

    /// Computes the Merkle root over the batch digests of an epoch
    /// (`D(e)` in the paper).
    ///
    /// Reads the batches in place: no batch is cloned, and each leaf digest
    /// is a memo hit when the batch was already hashed on the ordering path.
    pub fn epoch_root(log: &IssLog, first: SeqNr, last: SeqNr) -> Digest {
        let leaves: Vec<Digest> = (first..=last)
            .map(|sn| maybe_batch_digest(log.get(sn).and_then(|e| e.batch.as_ref())))
            .collect();
        merkle_root(&leaves)
    }

    /// Builds this node's signed CHECKPOINT message for an epoch, recording
    /// the own signature towards the stable checkpoint.
    pub fn make_checkpoint(&mut self, epoch: EpochNr, max_seq_nr: SeqNr, root: Digest) -> IssMsg {
        let signature = Bytes::from(
            self.keypair
                .sign(&Self::signing_bytes(epoch, max_seq_nr, &root))
                .to_vec(),
        );
        let my_id = self.my_id;
        self.record(my_id, epoch, max_seq_nr, root, signature.clone());
        IssMsg::Checkpoint {
            epoch,
            max_seq_nr,
            root,
            signature,
        }
    }

    /// Processes a CHECKPOINT message from another node. Returns the stable
    /// checkpoint if this message completed a quorum.
    pub fn on_checkpoint(
        &mut self,
        from: NodeId,
        epoch: EpochNr,
        max_seq_nr: SeqNr,
        root: Digest,
        signature: Bytes,
    ) -> Option<StableCheckpoint> {
        let bytes = Self::signing_bytes(epoch, max_seq_nr, &root);
        if self.registry.verify_node(from, &bytes, &signature).is_err() {
            return None;
        }
        self.record(from, epoch, max_seq_nr, root, signature)
    }

    fn record(
        &mut self,
        from: NodeId,
        epoch: EpochNr,
        max_seq_nr: SeqNr,
        root: Digest,
        signature: Bytes,
    ) -> Option<StableCheckpoint> {
        if self.stable.contains_key(&epoch) {
            return None;
        }
        let entry = self.collected.entry((epoch, root)).or_default();
        entry.insert(from, signature);
        if entry.len() >= self.quorum {
            // Refcount bumps, not signature copies.
            let proof: Vec<(NodeId, Bytes)> = entry.iter().map(|(n, s)| (*n, s.clone())).collect();
            let stable = StableCheckpoint {
                epoch,
                max_seq_nr,
                root,
                proof,
            };
            self.install_stable(stable.clone());
            return Some(stable);
        }
        None
    }

    /// Installs an externally obtained stable checkpoint (loaded from a
    /// durable snapshot on reboot, or received — and verified — over the
    /// snapshot fast path). The caller is responsible for having verified
    /// the proof; see [`CheckpointManager::verify_stable_proof`].
    pub fn install_stable(&mut self, stable: StableCheckpoint) {
        let epoch = stable.epoch;
        // `record` ignores a stable epoch, so its signatures are done with.
        self.collected.retain(|(e, _), _| *e != epoch);
        self.stable.insert(epoch, stable);
        if self.latest_stable.is_none_or(|e| epoch > e) {
            self.latest_stable = Some(epoch);
        }
    }

    /// The most recent stable checkpoint, if any.
    pub fn latest_stable(&self) -> Option<&StableCheckpoint> {
        self.latest_stable.and_then(|e| self.stable.get(&e))
    }

    /// The stable checkpoint of a given epoch, if formed.
    pub fn stable_for(&self, epoch: EpochNr) -> Option<&StableCheckpoint> {
        self.stable.get(&epoch)
    }

    /// Verifies that a state-transfer response's proof is a valid stable
    /// checkpoint (2f+1 valid signatures over the same root).
    pub fn verify_stable_proof(&self, stable: &StableCheckpoint) -> bool {
        let bytes = Self::signing_bytes(stable.epoch, stable.max_seq_nr, &stable.root);
        let mut valid_signers: Vec<NodeId> = stable
            .proof
            .iter()
            .filter(|(n, s)| self.registry.verify_node(*n, &bytes, s).is_ok())
            .map(|(n, _)| *n)
            .collect();
        valid_signers.sort();
        valid_signers.dedup();
        valid_signers.len() >= self.quorum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iss_types::{Batch, ClientId, Request};

    fn manager(node: u32, quorum: usize) -> CheckpointManager {
        CheckpointManager::new(
            NodeId(node),
            KeyPair::for_node(NodeId(node)),
            Arc::new(SignatureRegistry::with_processes(4, 0)),
            quorum,
        )
    }

    fn filled_log(n: u64) -> IssLog {
        let mut log = IssLog::new();
        for sn in 0..n {
            let batch = Batch::new(vec![Request::synthetic(ClientId(sn as u32), sn, 100)]);
            log.commit(sn, Some(batch), NodeId(0));
        }
        log
    }

    #[test]
    fn epoch_root_is_content_sensitive() {
        let a = CheckpointManager::epoch_root(&filled_log(8), 0, 7);
        let b = CheckpointManager::epoch_root(&filled_log(8), 0, 7);
        assert_eq!(a, b);
        let mut other = filled_log(8);
        other.commit(8, None, NodeId(0));
        let c = CheckpointManager::epoch_root(&other, 1, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn quorum_of_checkpoints_becomes_stable() {
        let registry = Arc::new(SignatureRegistry::with_processes(4, 0));
        let root = CheckpointManager::epoch_root(&filled_log(4), 0, 3);
        let mut mine = manager(0, 3);
        // Own checkpoint counts as one signature.
        let msg = mine.make_checkpoint(0, 3, root);
        let IssMsg::Checkpoint { signature, .. } = msg else {
            panic!("wrong variant")
        };
        assert!(!signature.is_empty());
        // Two more valid checkpoints complete the quorum.
        let sig1 = Bytes::from(
            KeyPair::for_node(NodeId(1))
                .sign(&CheckpointManager::signing_bytes(0, 3, &root))
                .to_vec(),
        );
        assert!(mine.on_checkpoint(NodeId(1), 0, 3, root, sig1).is_none());
        let sig2 = Bytes::from(
            KeyPair::for_node(NodeId(2))
                .sign(&CheckpointManager::signing_bytes(0, 3, &root))
                .to_vec(),
        );
        let stable = mine
            .on_checkpoint(NodeId(2), 0, 3, root, sig2)
            .expect("stable");
        assert_eq!(stable.epoch, 0);
        assert_eq!(stable.proof.len(), 3);
        assert_eq!(mine.latest_stable().unwrap().epoch, 0);
        assert!(mine.stable_for(0).is_some());
        // The proof verifies, and dropping one signature invalidates it.
        assert!(mine.verify_stable_proof(&stable));
        let mut short = stable.clone();
        short.proof.truncate(2);
        assert!(!mine.verify_stable_proof(&short));
        let _ = registry;
    }

    #[test]
    fn invalid_signatures_do_not_count() {
        let root = [7u8; 32];
        let mut mine = manager(0, 3);
        mine.make_checkpoint(0, 3, root);
        assert!(mine
            .on_checkpoint(NodeId(1), 0, 3, root, vec![0u8; 64].into())
            .is_none());
        assert!(mine
            .on_checkpoint(NodeId(2), 0, 3, root, vec![0u8; 64].into())
            .is_none());
        assert!(mine.latest_stable().is_none());
    }

    #[test]
    fn mismatching_roots_do_not_mix() {
        let mut mine = manager(0, 2);
        mine.make_checkpoint(0, 3, [1u8; 32]);
        let sig = Bytes::from(
            KeyPair::for_node(NodeId(1))
                .sign(&CheckpointManager::signing_bytes(0, 3, &[2u8; 32]))
                .to_vec(),
        );
        assert!(mine
            .on_checkpoint(NodeId(1), 0, 3, [2u8; 32], sig)
            .is_none());
    }

    #[test]
    fn latest_stable_tracks_highest_epoch() {
        let mut mine = manager(0, 1);
        mine.make_checkpoint(2, 35, [1u8; 32]);
        mine.make_checkpoint(1, 23, [2u8; 32]);
        assert_eq!(mine.latest_stable().unwrap().epoch, 2);
    }

    #[test]
    fn stable_epochs_keep_no_collected_signatures() {
        let signed = |node: u32, epoch, max_seq_nr, root: &Digest| {
            let bytes = CheckpointManager::signing_bytes(epoch, max_seq_nr, root);
            Bytes::from(KeyPair::for_node(NodeId(node)).sign(&bytes).to_vec())
        };
        let mut mine = manager(0, 3);
        for epoch in 0..100u64 {
            let (max_seq_nr, root, other) = (epoch * 8 + 7, [epoch as u8; 32], [255; 32]);
            // A minority root, then the quorum's.
            let sig = signed(3, epoch, max_seq_nr, &other);
            assert!(mine
                .on_checkpoint(NodeId(3), epoch, max_seq_nr, other, sig)
                .is_none());
            mine.make_checkpoint(epoch, max_seq_nr, root);
            for node in 1..3 {
                let sig = signed(node, epoch, max_seq_nr, &root);
                mine.on_checkpoint(NodeId(node), epoch, max_seq_nr, root, sig);
            }
            assert!(mine.stable_for(epoch).is_some());
            // A late signature of a stable epoch is not collected either.
            let sig = signed(3, epoch, max_seq_nr, &root);
            mine.on_checkpoint(NodeId(3), epoch, max_seq_nr, root, sig);
            assert!(mine.collected.is_empty(), "epoch {epoch} left signatures");
        }
        assert_eq!(mine.latest_stable().unwrap().epoch, 99);
    }
}
