//! Property tests for the WAL record and snapshot codecs and the frame
//! scanner: round-trip fidelity on arbitrary inputs, and no panics on
//! arbitrary (adversarial) byte soup.

use bytes::Bytes;
use iss_storage::record::{PolicyState, Snapshot, WalRecord};
use iss_storage::wal::{append_frame, scan_frames};
use iss_storage::{MemStorage, Storage};
use iss_types::{Batch, ClientId, NodeId, Request};
use proptest::prelude::*;

/// Deterministically expands a compact seed into a request (the vendored
/// proptest has no `prop_map`, so structured values are built in-body from
/// primitive draws).
fn request_from(seed: u64) -> Request {
    let client = ClientId((seed % 64) as u32);
    let payload: Vec<u8> = (0..(seed % 96)).map(|i| (seed ^ i) as u8).collect();
    let sig: Vec<u8> = (0..(seed % 80))
        .map(|i| (seed.rotate_left(7) ^ i) as u8)
        .collect();
    Request::new(client, seed / 64, payload).with_signature(sig)
}

/// Expands `(seq_nr, leader, batch_shape)` draws into a WAL record:
/// `batch_shape` of 0 is ⊥, otherwise a batch of `batch_shape - 1` requests.
fn record_from(seq_nr: u64, leader: u32, batch_shape: u64) -> WalRecord {
    let batch = match batch_shape {
        0 => None,
        n => Some(Batch::new(
            (0..(n - 1))
                .map(|i| request_from(seq_nr ^ (i << 13) ^ n))
                .collect(),
        )),
    };
    WalRecord::Committed {
        seq_nr,
        leader: NodeId(leader),
        batch,
    }
}

fn policy_from(seeds: &[u64]) -> PolicyState {
    PolicyState {
        penalties: seeds
            .iter()
            .map(|&s| (NodeId((s % 64) as u32), (s as i64).wrapping_sub(1 << 40)))
            .collect(),
        failures: seeds
            .iter()
            .map(|&s| (NodeId((s % 31) as u32), s ^ 0xF00D))
            .collect(),
    }
}

proptest! {
    #[test]
    fn prop_wal_record_roundtrip(
        seq_nr in any::<u64>(),
        leader in 0u32..128,
        batch_shape in 0u64..7,
    ) {
        let record = record_from(seq_nr, leader, batch_shape);
        let encoded = Bytes::from(record.encode());
        prop_assert_eq!(WalRecord::seq_nr_of(&encoded), Some(seq_nr));
        prop_assert_eq!(WalRecord::decode(&encoded).unwrap(), record);
    }

    #[test]
    fn prop_snapshot_roundtrip(
        epoch in any::<u64>(),
        max_seq_nr in any::<u64>(),
        total_delivered in any::<u64>(),
        seeds in proptest::collection::vec(any::<u64>(), 0..8),
    ) {
        let snapshot = Snapshot {
            epoch,
            max_seq_nr,
            root: std::array::from_fn(|i| (epoch >> (i % 8)) as u8),
            proof: seeds
                .iter()
                .map(|&s| (NodeId((s % 64) as u32), vec![s as u8; (s % 80) as usize]))
                .collect(),
            total_delivered,
            policy: policy_from(&seeds),
        };
        prop_assert_eq!(Snapshot::decode(&snapshot.encode()).unwrap(), snapshot);
    }

    #[test]
    fn prop_framed_records_survive_a_storage_cycle(
        shapes in proptest::collection::vec((any::<u64>(), 0u32..16, 0u64..5), 0..10)
    ) {
        let records: Vec<WalRecord> = shapes
            .iter()
            .map(|&(sn, leader, shape)| record_from(sn, leader, shape))
            .collect();
        let store = MemStorage::new();
        for r in &records {
            store.append(r).unwrap();
        }
        prop_assert_eq!(store.recover().unwrap().wal, records);
    }

    #[test]
    fn prop_scan_stops_cleanly_on_any_tail_corruption(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..40), 1..6),
        cut_back in 1usize..16,
    ) {
        let mut buf = Vec::new();
        let mut boundaries = vec![0usize];
        for p in &payloads {
            append_frame(&mut buf, p);
            boundaries.push(buf.len());
        }
        // Chop an arbitrary number of bytes off the tail: the scan must
        // recover exactly the frames whose bytes fully survived.
        let cut = buf.len().saturating_sub(cut_back);
        let out = scan_frames(&Bytes::from(buf[..cut].to_vec()));
        let intact = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
        prop_assert_eq!(out.frames.len(), intact);
        prop_assert_eq!(out.valid_len, boundaries[intact]);
    }

    #[test]
    fn prop_decoders_never_panic_on_arbitrary_bytes(
        data in proptest::collection::vec(any::<u8>(), 0..256)
    ) {
        let _ = scan_frames(&Bytes::from(data.clone()));
        let _ = WalRecord::decode(&Bytes::from(data.clone()));
        let _ = Snapshot::decode(&data);
        // And a MemStorage seeded with garbage recovers without panicking.
        let store = MemStorage::new();
        store.set_wal_bytes(data);
        let _ = store.recover();
    }
}
