//! Logical WAL records and checkpoint snapshots, with binary codecs.
//!
//! The codecs reuse the request/batch encoders of `iss_messages::codec` so
//! the on-disk format and the state-transfer wire format stay in one place,
//! and they are property-tested for round-trip fidelity in
//! `tests/codec_props.rs`.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use iss_messages::codec::{capacity_for, decode_log_entry, encode_log_entry};
use iss_types::{Batch, EpochNr, Error, NodeId, Result, SeqNr};

/// One write-ahead-log record.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// A log entry was committed: sequence number, the leader whose segment
    /// it belongs to, and the batch (`None` encodes the nil value ⊥).
    Committed {
        /// Sequence number of the entry.
        seq_nr: SeqNr,
        /// Leader of the segment the entry belongs to.
        leader: NodeId,
        /// The committed batch, or `None` for ⊥.
        batch: Option<Batch>,
    },
}

/// Record tag of [`WalRecord::Committed`].
const TAG_COMMITTED: u8 = 0x01;

/// Byte offset of a [`WalRecord::Committed`] payload's `seq_nr`: after the
/// tag (`u8`) and the leader (`u32`).
const COMMITTED_SEQ_NR_AT: usize = 5;

/// Shortest [`WalRecord::Committed`] payload: tag, leader, `seq_nr` and the
/// log entry's batch tag (⊥).
const COMMITTED_MIN_LEN: usize = COMMITTED_SEQ_NR_AT + 8 + 1;

impl WalRecord {
    /// Sequence number the record refers to (the pruning key).
    pub fn seq_nr(&self) -> SeqNr {
        match self {
            WalRecord::Committed { seq_nr, .. } => *seq_nr,
        }
    }

    /// Reads the sequence number of an encoded record from its fixed-offset
    /// field, without decoding the batch. `None` when the payload is too
    /// short or has an unknown tag; for every payload [`WalRecord::decode`]
    /// accepts it agrees with [`WalRecord::seq_nr`].
    pub fn seq_nr_of(payload: &[u8]) -> Option<SeqNr> {
        if payload.len() < COMMITTED_MIN_LEN || payload[0] != TAG_COMMITTED {
            return None;
        }
        let at = COMMITTED_SEQ_NR_AT;
        Some(SeqNr::from_le_bytes(
            payload[at..at + 8].try_into().expect("8-byte field"),
        ))
    }

    /// Encodes the record payload (framing is the caller's job).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        self.encode_into(&mut buf);
        buf.into()
    }

    /// Appends the record payload to `buf`.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        match self {
            WalRecord::Committed {
                seq_nr,
                leader,
                batch,
            } => {
                buf.put_u8(TAG_COMMITTED);
                buf.put_u32_le(leader.0);
                encode_log_entry(*seq_nr, batch, buf);
            }
        }
    }

    /// Decodes a record payload.
    pub fn decode(data: &Bytes) -> Result<WalRecord> {
        let mut buf = data.clone();
        if buf.remaining() < 5 {
            return Err(Error::Codec("truncated WAL record header".into()));
        }
        match buf.get_u8() {
            TAG_COMMITTED => {
                let leader = NodeId(buf.get_u32_le());
                let (seq_nr, batch) = decode_log_entry(&mut buf)?;
                Ok(WalRecord::Committed {
                    seq_nr,
                    leader,
                    batch,
                })
            }
            t => Err(Error::Codec(format!("invalid WAL record tag {t}"))),
        }
    }
}

/// Leader-policy state captured in a snapshot, in a representation neutral
/// to `iss-core` (which converts to and from its `LeaderPolicy` internals):
/// the Backoff penalty counters and the Blacklist failure records.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PolicyState {
    /// Backoff penalties per node (sorted by node for determinism).
    pub penalties: Vec<(NodeId, i64)>,
    /// Highest sequence number at which each node failed (nil delivery),
    /// sorted by node.
    pub failures: Vec<(NodeId, SeqNr)>,
}

/// A checkpoint snapshot, cut when an ISS checkpoint becomes stable.
///
/// Carries everything a rebooting replica cannot re-derive from the WAL
/// suffix: where the log stood at the checkpoint (so Equation-2 request
/// numbering resumes correctly), the certificate proving it (so peers served
/// a snapshot over state transfer can verify it against 2f+1 signers), and
/// the leader-policy state at the cut (so the restarted replica computes the
/// same leader sets as everyone else).
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// Epoch whose checkpoint this snapshot was cut at.
    pub epoch: EpochNr,
    /// Highest sequence number covered by the checkpoint.
    pub max_seq_nr: SeqNr,
    /// Merkle root over the checkpointed log range.
    pub root: [u8; 32],
    /// Checkpoint certificate: `(signer, signature)` pairs from ≥ 2f+1
    /// distinct nodes.
    pub proof: Vec<(NodeId, Vec<u8>)>,
    /// Requests delivered through `max_seq_nr` (Equation-2 numbering).
    pub total_delivered: u64,
    /// Leader-policy state at the cut.
    pub policy: PolicyState,
}

impl Snapshot {
    /// Encodes the snapshot payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        buf.put_u64_le(self.epoch);
        buf.put_u64_le(self.max_seq_nr);
        buf.put_slice(&self.root);
        buf.put_u32_le(self.proof.len() as u32);
        for (node, sig) in &self.proof {
            buf.put_u32_le(node.0);
            buf.put_u32_le(sig.len() as u32);
            buf.put_slice(sig);
        }
        buf.put_u64_le(self.total_delivered);
        encode_policy(&self.policy, &mut buf);
        buf.to_vec()
    }

    /// Decodes a snapshot payload.
    pub fn decode(data: &[u8]) -> Result<Snapshot> {
        let mut buf = Bytes::copy_from_slice(data);
        if buf.remaining() < 8 + 8 + 32 + 4 {
            return Err(Error::Codec("truncated snapshot header".into()));
        }
        let epoch = buf.get_u64_le();
        let max_seq_nr = buf.get_u64_le();
        let mut root = [0u8; 32];
        let root_bytes = buf.copy_to_bytes(32);
        root.copy_from_slice(&root_bytes);
        let n_proof = buf.get_u32_le() as usize;
        let mut proof = Vec::with_capacity(capacity_for(n_proof, &buf, 8));
        for _ in 0..n_proof {
            if buf.remaining() < 8 {
                return Err(Error::Codec("truncated snapshot proof".into()));
            }
            let node = NodeId(buf.get_u32_le());
            let sig_len = buf.get_u32_le() as usize;
            if buf.remaining() < sig_len {
                return Err(Error::Codec("truncated snapshot proof signature".into()));
            }
            proof.push((node, buf.copy_to_bytes(sig_len).to_vec()));
        }
        if buf.remaining() < 8 {
            return Err(Error::Codec("truncated snapshot delivered count".into()));
        }
        let total_delivered = buf.get_u64_le();
        let policy = decode_policy(&mut buf)?;
        Ok(Snapshot {
            epoch,
            max_seq_nr,
            root,
            proof,
            total_delivered,
            policy,
        })
    }
}

/// Encodes a [`PolicyState`].
pub fn encode_policy(policy: &PolicyState, buf: &mut BytesMut) {
    buf.put_u32_le(policy.penalties.len() as u32);
    for (node, penalty) in &policy.penalties {
        buf.put_u32_le(node.0);
        buf.put_u64_le(*penalty as u64);
    }
    buf.put_u32_le(policy.failures.len() as u32);
    for (node, sn) in &policy.failures {
        buf.put_u32_le(node.0);
        buf.put_u64_le(*sn);
    }
}

/// Decodes a [`PolicyState`].
pub fn decode_policy(buf: &mut Bytes) -> Result<PolicyState> {
    if buf.remaining() < 4 {
        return Err(Error::Codec("truncated policy state".into()));
    }
    let n_pen = buf.get_u32_le() as usize;
    let mut penalties = Vec::with_capacity(capacity_for(n_pen, &*buf, 12));
    for _ in 0..n_pen {
        if buf.remaining() < 12 {
            return Err(Error::Codec("truncated policy penalty".into()));
        }
        penalties.push((NodeId(buf.get_u32_le()), buf.get_u64_le() as i64));
    }
    if buf.remaining() < 4 {
        return Err(Error::Codec("truncated policy failures".into()));
    }
    let n_fail = buf.get_u32_le() as usize;
    let mut failures = Vec::with_capacity(capacity_for(n_fail, &*buf, 12));
    for _ in 0..n_fail {
        if buf.remaining() < 12 {
            return Err(Error::Codec("truncated policy failure".into()));
        }
        failures.push((NodeId(buf.get_u32_le()), buf.get_u64_le()));
    }
    Ok(PolicyState {
        penalties,
        failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use iss_types::{ClientId, Request};

    fn sample_batch(n: u32) -> Batch {
        Batch::new(
            (0..n)
                .map(|i| {
                    Request::new(ClientId(i), i as u64, vec![i as u8; 16])
                        .with_signature(vec![0xCD; 64])
                })
                .collect(),
        )
    }

    #[test]
    fn committed_record_roundtrip() {
        for batch in [None, Some(Batch::empty()), Some(sample_batch(3))] {
            let rec = WalRecord::Committed {
                seq_nr: 42,
                leader: NodeId(7),
                batch,
            };
            let encoded = Bytes::from(rec.encode());
            assert_eq!(WalRecord::decode(&encoded).unwrap(), rec);
            assert_eq!(rec.seq_nr(), 42);
            assert_eq!(WalRecord::seq_nr_of(&encoded), Some(42));
        }
    }

    #[test]
    fn record_with_bad_tag_is_rejected() {
        assert!(WalRecord::decode(&Bytes::from_static(&[0x7F, 0, 0, 0, 0, 0])).is_err());
        assert!(WalRecord::decode(&Bytes::from_static(&[0x01])).is_err());
        let mut bad_tag = committed_bytes(9);
        bad_tag[0] = 0x7F;
        assert_eq!(WalRecord::seq_nr_of(&bad_tag), None);
        let short = committed_bytes(9);
        assert_eq!(WalRecord::seq_nr_of(&short[..short.len() - 1]), None);
    }

    fn committed_bytes(seq_nr: SeqNr) -> Vec<u8> {
        WalRecord::Committed {
            seq_nr,
            leader: NodeId(3),
            batch: None,
        }
        .encode()
    }

    #[test]
    fn snapshot_roundtrip() {
        let snap = Snapshot {
            epoch: 3,
            max_seq_nr: 511,
            root: [0xAB; 32],
            proof: vec![(NodeId(0), vec![1; 64]), (NodeId(2), vec![2; 64])],
            total_delivered: 12_345,
            policy: PolicyState {
                penalties: vec![(NodeId(1), -4), (NodeId(3), 9)],
                failures: vec![(NodeId(0), 100)],
            },
        };
        assert_eq!(Snapshot::decode(&snap.encode()).unwrap(), snap);
    }

    #[test]
    fn truncated_snapshot_is_an_error_not_a_panic() {
        let snap = Snapshot {
            epoch: 1,
            max_seq_nr: 10,
            root: [0; 32],
            proof: vec![(NodeId(0), vec![5; 64])],
            total_delivered: 7,
            policy: PolicyState::default(),
        };
        let encoded = snap.encode();
        for cut in 0..encoded.len() {
            assert!(Snapshot::decode(&encoded[..cut]).is_err(), "cut at {cut}");
        }
    }
}
