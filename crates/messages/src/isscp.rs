//! ISS checkpointing and state-transfer messages (Section 3.5).
//!
//! Signature payloads are refcounted [`Bytes`]: a checkpoint broadcast to n
//! nodes and a 2f+1-signature stable-checkpoint proof shipped during state
//! transfer clone handles, not byte buffers.

use bytes::Bytes;
use iss_types::{Batch, EpochNr, NodeId, SeqNr};

/// Digest type alias (32 bytes).
pub type Digest = [u8; 32];

/// A log entry shipped during state transfer.
#[derive(Clone, Debug, PartialEq)]
pub struct LogEntry {
    /// Sequence number of the entry.
    pub seq_nr: SeqNr,
    /// The committed batch (`None` = ⊥).
    pub batch: Option<Batch>,
}

/// ISS-level control messages.
#[derive(Clone, Debug, PartialEq)]
pub enum IssMsg {
    /// Signed checkpoint: "I have committed every sequence number of epoch
    /// `epoch` (up to `max_seq_nr`) and the Merkle root of the epoch's batch
    /// digests is `root`."
    Checkpoint {
        /// Epoch the checkpoint covers.
        epoch: EpochNr,
        /// `max(Sn(e))`.
        max_seq_nr: SeqNr,
        /// Merkle root over the digests of the epoch's batches.
        root: Digest,
        /// Signature by the sending node.
        signature: Bytes,
    },
    /// The last answer to a [`IssMsg::SnapshotRequest`]: the log entries the
    /// sender has delivered from the last one its snapshot chunks carried
    /// on (from `from_seq_nr` when it sent none; empty when it has nothing
    /// newer), plus the stable checkpoint (2f+1 checkpoint signatures)
    /// proving their integrity.
    StateResponse {
        /// Epoch of the attached stable checkpoint.
        epoch: EpochNr,
        /// The transferred log entries.
        entries: Vec<LogEntry>,
        /// Merkle root of the covering stable checkpoint.
        root: Digest,
        /// The 2f+1 signatures forming the stable checkpoint π(e).
        proof: Vec<Bytes>,
    },
    /// The catch-up request, sent by a replica that has fallen behind
    /// (after a reboot or a healed partition): "send me everything you have
    /// delivered from `from_seq_nr` on." The answer is the sender's latest
    /// stable checkpoint as [`IssMsg::SnapshotChunk`]s when `from_seq_nr`
    /// is at or below it, then always one [`IssMsg::StateResponse`].
    SnapshotRequest {
        /// First sequence number the requester has not delivered.
        from_seq_nr: SeqNr,
    },
    /// One chunk of a checkpoint snapshot (the `InstallSnapshot` shape:
    /// checkpoint metadata repeated per chunk, plus an `offset`/`done`
    /// window into the snapshot payload, so chunks can arrive and be
    /// reassembled independently).
    SnapshotChunk {
        /// Epoch of the serving node's latest stable checkpoint.
        epoch: EpochNr,
        /// Highest sequence number covered by the checkpoint.
        max_seq_nr: SeqNr,
        /// Merkle root of the checkpoint.
        root: Digest,
        /// Checkpoint certificate: `(signer, signature)` from ≥ 2f+1 nodes.
        proof: Vec<(NodeId, Bytes)>,
        /// Requests delivered through `max_seq_nr` (Equation-2 numbering,
        /// so an installing replica resumes request numbering correctly).
        total_delivered: u64,
        /// Leader-policy state at the checkpoint cut (opaque; encoded with
        /// `iss_storage::record`'s policy codec).
        policy: Bytes,
        /// Byte offset of `data` within the snapshot payload.
        offset: u32,
        /// Total length of the snapshot payload in bytes.
        total_len: u32,
        /// This chunk of the payload (encoded log entries the server still
        /// retains at or above the requested sequence number).
        data: Bytes,
        /// Whether this is the final chunk.
        done: bool,
    },
}

impl IssMsg {
    /// Number of client requests the message carries.
    pub fn num_requests(&self) -> usize {
        match self {
            IssMsg::StateResponse { entries, .. } => entries
                .iter()
                .map(|e| e.batch.as_ref().map(Batch::len).unwrap_or(0))
                .sum(),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetMsg;
    use iss_types::{ClientId, Payload, Request};

    fn size(msg: &IssMsg) -> usize {
        NetMsg::Iss(msg.clone()).wire_size()
    }

    #[test]
    fn checkpoint_is_constant_size() {
        let m = IssMsg::Checkpoint {
            epoch: 3,
            max_seq_nr: 1023,
            root: [0; 32],
            signature: vec![0u8; 64].into(),
        };
        assert!(size(&m) < 200);
        assert_eq!(m.num_requests(), 0);
    }

    #[test]
    fn state_response_scales_with_entries() {
        let entries: Vec<LogEntry> = (0..4)
            .map(|i| LogEntry {
                seq_nr: i,
                batch: Some(Batch::new(vec![Request::synthetic(ClientId(0), i, 500); 8])),
            })
            .collect();
        let m = IssMsg::StateResponse {
            epoch: 0,
            entries,
            root: [0; 32],
            proof: vec![Bytes::from(vec![0u8; 64]); 3],
        };
        assert!(size(&m) > 4 * 8 * 500);
        assert_eq!(m.num_requests(), 32);
    }

    #[test]
    fn snapshot_chunk_wire_size_scales_with_payload() {
        let chunk = |data_len: usize| IssMsg::SnapshotChunk {
            epoch: 2,
            max_seq_nr: 511,
            root: [7; 32],
            proof: (0..3)
                .map(|i| (NodeId(i), Bytes::from(vec![0u8; 64])))
                .collect(),
            total_delivered: 4_096,
            policy: Bytes::from(vec![0u8; 40]),
            offset: 0,
            total_len: data_len as u32,
            data: Bytes::from(vec![0u8; data_len]),
            done: true,
        };
        let small = size(&chunk(0));
        let big = size(&chunk(64 << 10));
        assert_eq!(big - small, 64 << 10);
        assert!(small > 3 * 64 + 40, "the proof and the policy are counted");
        assert_eq!(chunk(128).num_requests(), 0);
        assert!(
            size(&IssMsg::SnapshotRequest { from_seq_nr: 9 }) < 64,
            "snapshot requests are tiny"
        );
    }
}
