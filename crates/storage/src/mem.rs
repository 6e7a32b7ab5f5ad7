//! The in-memory storage backend used by the deterministic simulator.
//!
//! A [`MemStorage`] handle plays the role of a replica's disk: the
//! deployment creates it, hands it to the node process, and keeps its own
//! reference — when the simulated process crashes and restarts, the new
//! incarnation reopens the *same* handle and recovers from it. The byte
//! layout is identical to [`crate::FileStorage`] (same framing, same
//! codecs), so everything recovery exercises in simulation — including
//! torn-tail truncation — holds for the file-backed path too.
//!
//! Both backends prune by the same rule, [`FrameIndex::prune`]: a prune
//! copies and re-verifies only the frames it keeps, found through the
//! in-memory frame index, and never decodes a record. Its cost is the bytes
//! above the cut, not the size of the log.

use crate::record::{Snapshot, WalRecord};
use crate::wal::{append_frame, scan_frames, FrameIndex};
use crate::{Recovered, Storage};
use bytes::Bytes;
use iss_types::{Result, SeqNr};
use std::cell::RefCell;

/// In-memory [`Storage`] backend (see the module docs).
#[derive(Default)]
pub struct MemStorage {
    wal: RefCell<Vec<u8>>,
    /// The intact frames of `wal`; bytes past its end are a torn tail.
    index: RefCell<FrameIndex>,
    snapshot: RefCell<Option<Vec<u8>>>,
}

impl MemStorage {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Injects raw WAL bytes (tests: simulating torn tails and corruption).
    /// The frame index is rebuilt by scanning them; a torn tail stays in
    /// place until [`Storage::recover`] truncates it.
    pub fn set_wal_bytes(&self, bytes: Vec<u8>) {
        let scan = scan_frames(&Bytes::from(bytes.clone()));
        *self.index.borrow_mut() = FrameIndex::from_scan(&scan);
        *self.wal.borrow_mut() = bytes;
    }

    /// Raw WAL bytes (tests).
    pub fn raw_wal(&self) -> Vec<u8> {
        self.wal.borrow().clone()
    }
}

impl Storage for MemStorage {
    fn append(&self, record: &WalRecord) -> Result<()> {
        let payload = record.encode();
        let mut index = self.index.borrow_mut();
        let mut wal = self.wal.borrow_mut();
        // Land on the intact prefix, as a reopened file would.
        wal.truncate(index.end());
        append_frame(&mut wal, &payload);
        index.push(&payload);
        Ok(())
    }

    fn save_snapshot(&self, snapshot: &Snapshot) -> Result<()> {
        *self.snapshot.borrow_mut() = Some(snapshot.encode());
        Ok(())
    }

    fn prune_below(&self, below: SeqNr) -> Result<()> {
        let mut wal = self.wal.borrow_mut();
        let mut index = self.index.borrow_mut();
        let pruned = index.prune(below, |offset, buf| {
            buf.copy_from_slice(&wal[offset..offset + buf.len()]);
            Ok(())
        })?;
        if let Some((kept, kept_index)) = pruned {
            *wal = kept;
            *index = kept_index;
        }
        Ok(())
    }

    fn recover(&self) -> Result<Recovered> {
        let snapshot = match self.snapshot.borrow().as_ref() {
            Some(bytes) => Some(Snapshot::decode(bytes)?),
            None => None,
        };
        let raw = Bytes::from(self.wal.borrow().clone());
        let scan = scan_frames(&raw);
        let truncated_bytes = (raw.len() - scan.valid_len) as u64;
        if truncated_bytes > 0 {
            self.wal.borrow_mut().truncate(scan.valid_len);
        }
        let mut wal = Vec::with_capacity(scan.frames.len());
        for frame in &scan.frames {
            wal.push(WalRecord::decode(frame)?);
        }
        Ok(Recovered {
            snapshot,
            wal,
            truncated_bytes,
        })
    }

    fn wal_bytes(&self) -> u64 {
        self.wal.borrow().len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::PolicyState;
    use iss_types::NodeId;

    fn committed(sn: SeqNr) -> WalRecord {
        WalRecord::Committed {
            seq_nr: sn,
            leader: NodeId((sn % 4) as u32),
            batch: None,
        }
    }

    #[test]
    fn append_then_recover_preserves_order() {
        let store = MemStorage::new();
        for sn in 0..5 {
            store.append(&committed(sn)).unwrap();
        }
        let rec = store.recover().unwrap();
        assert!(rec.snapshot.is_none());
        assert_eq!(rec.truncated_bytes, 0);
        let sns: Vec<SeqNr> = rec.wal.iter().map(|r| r.seq_nr()).collect();
        assert_eq!(sns, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn recover_truncates_torn_tail_in_place() {
        let store = MemStorage::new();
        store.append(&committed(0)).unwrap();
        let intact = store.wal_bytes();
        let mut raw = store.raw_wal();
        raw.extend_from_slice(&[0xEE; 7]); // partial frame header
        store.set_wal_bytes(raw);
        let rec = store.recover().unwrap();
        assert_eq!(rec.wal.len(), 1);
        assert_eq!(rec.truncated_bytes, 7);
        // The tail was physically dropped: a second recover is clean.
        assert_eq!(store.wal_bytes(), intact);
        assert_eq!(store.recover().unwrap().truncated_bytes, 0);
    }

    #[test]
    fn prune_drops_only_records_below_the_cut() {
        let store = MemStorage::new();
        for sn in 0..6 {
            store.append(&committed(sn)).unwrap();
        }
        store.prune_below(3).unwrap();
        let sns: Vec<SeqNr> = store
            .recover()
            .unwrap()
            .wal
            .iter()
            .map(|r| r.seq_nr())
            .collect();
        assert_eq!(sns, vec![3, 4, 5]);
    }

    #[test]
    fn snapshot_is_replaced_atomically() {
        let store = MemStorage::new();
        let snap = |epoch| Snapshot {
            epoch,
            max_seq_nr: epoch * 128,
            root: [epoch as u8; 32],
            proof: Vec::new(),
            total_delivered: epoch * 100,
            policy: PolicyState::default(),
        };
        store.save_snapshot(&snap(1)).unwrap();
        store.save_snapshot(&snap(2)).unwrap();
        assert_eq!(store.recover().unwrap().snapshot, Some(snap(2)));
    }
}
