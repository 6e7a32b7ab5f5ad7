//! Model-based property test of the WAL: random sequences of appends (out
//! of order, with ⊥ entries), prunes, reopens and crashes mid-append, run
//! against both backends side by side. After every step both must recover
//! exactly what a plain `Vec<WalRecord>` model holds, and `wal.log` must be
//! byte-identical to the in-memory backend's log.

use iss_storage::record::WalRecord;
use iss_storage::wal::append_frame;
use iss_storage::{FileStorage, MemStorage, Storage};
use iss_types::{Batch, ClientId, NodeId, Request};
use proptest::prelude::*;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// `shape` 0 is ⊥, otherwise a batch of `shape - 1` small requests.
fn record(seq_nr: u64, shape: u64) -> WalRecord {
    let batch = (shape > 0).then(|| {
        Batch::new(
            (0..shape - 1)
                .map(|i| Request::new(ClientId(i as u32), seq_nr, vec![seq_nr as u8; 24]))
                .collect(),
        )
    });
    WalRecord::Committed {
        seq_nr,
        leader: NodeId((seq_nr % 4) as u32),
        batch,
    }
}

/// A fresh storage directory per case (cases and tests run concurrently).
fn case_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "iss-prune-model-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Compares both backends with the model.
fn check(
    file: &FileStorage,
    mem: &MemStorage,
    dir: &Path,
    model: &[WalRecord],
) -> Result<(), String> {
    let on_disk = std::fs::read(dir.join("wal.log")).unwrap();
    prop_assert_eq!(&on_disk, &mem.raw_wal());
    prop_assert_eq!(file.wal_bytes(), on_disk.len() as u64);
    prop_assert_eq!(mem.wal_bytes(), on_disk.len() as u64);
    for recovered in [file.recover().unwrap(), mem.recover().unwrap()] {
        prop_assert_eq!(recovered.truncated_bytes, 0);
        prop_assert_eq!(&recovered.wal, &model.to_vec());
    }
    Ok(())
}

proptest! {
    #[test]
    fn prop_both_backends_follow_the_model(
        ops in proptest::collection::vec((0u8..11, 0u64..48, 0u64..4), 1..40)
    ) {
        let dir = case_dir();
        let mut file = FileStorage::open(&dir).unwrap();
        let mem = MemStorage::new();
        let mut model: Vec<WalRecord> = Vec::new();
        for (kind, a, b) in ops {
            match kind {
                0..=5 => {
                    let r = record(a, b);
                    file.append(&r).unwrap();
                    mem.append(&r).unwrap();
                    model.push(r);
                }
                6 | 7 => {
                    file.prune_below(a).unwrap();
                    mem.prune_below(a).unwrap();
                    model.retain(|r| r.seq_nr() >= a);
                }
                8 => {
                    // A restart: the directory is reopened, the in-memory
                    // handle outlives the process.
                    drop(file);
                    file = FileStorage::open(&dir).unwrap();
                }
                _ => {
                    // A crash mid-append: part of one more frame reached
                    // the log. `open` cuts it on a restart (kind 9);
                    // `recover` cuts it on a handle that outlived the crash
                    // (kind 10, and always for the in-memory backend).
                    let mut frame = Vec::new();
                    append_frame(&mut frame, &record(a, b).encode());
                    let torn = &frame[..1 + (a as usize * 7) % (frame.len() - 1)];
                    std::fs::OpenOptions::new()
                        .append(true)
                        .open(dir.join("wal.log"))
                        .unwrap()
                        .write_all(torn)
                        .unwrap();
                    if kind == 9 {
                        drop(file);
                        file = FileStorage::open(&dir).unwrap();
                    } else {
                        prop_assert_eq!(file.recover().unwrap().truncated_bytes, torn.len() as u64);
                    }
                    let mut raw = mem.raw_wal();
                    raw.extend_from_slice(torn);
                    mem.set_wal_bytes(raw);
                    prop_assert_eq!(mem.recover().unwrap().truncated_bytes, torn.len() as u64);
                }
            }
            check(&file, &mem, &dir, &model)?;
        }
        drop(file);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
