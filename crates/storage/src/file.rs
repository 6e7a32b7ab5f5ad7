//! The file-backed storage backend.
//!
//! Layout inside the storage directory:
//!
//! * `wal.log` — the write-ahead log, appended in place. Torn tails (a
//!   crash mid-append) are truncated by [`FileStorage::open`] and by
//!   [`Storage::recover`] via `set_len`.
//! * `snapshot.bin` — the latest checkpoint snapshot, replaced atomically
//!   by writing `snapshot.tmp` and renaming over the old file, so a crash
//!   mid-save leaves either the old snapshot or the new one, never a
//!   half-written hybrid.
//!
//! Byte-for-byte the same framing and record codecs as [`crate::MemStorage`]
//! (the simulation backend), so recovery behaviour validated in simulation
//! carries over to real disks.
//!
//! **What a prune costs.** The backend keeps a [`FrameIndex`] of `wal.log`
//! in memory: one `(seq_nr, offset, len)` entry per record, built from the
//! scan [`FileStorage::open`] makes anyway and extended by every append.
//! A prune returns at once when no record is below the cut. Otherwise it
//! reads only the frames it keeps, one positioned read per run of adjacent
//! frames, re-verifies their checksums, writes them to `wal.tmp` and
//! renames that over `wal.log`. It decodes no record, and the frames below
//! the cut are neither read nor checked: a stable checkpoint costs the
//! bytes above the cut, and the log's size does not enter. The protocol
//! thread makes that call, so a whole-log rewrite would stall ordering for
//! as long as the log is large.

use crate::record::{Snapshot, WalRecord};
use crate::wal::{append_record, scan_frames, FrameIndex, FRAME_HEADER};
use crate::{Recovered, Storage};
use bytes::{Bytes, BytesMut};
use iss_types::{Error, Result, SeqNr};
use std::cell::RefCell;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// File-backed [`Storage`] backend (see the module docs).
pub struct FileStorage {
    dir: PathBuf,
    wal: RefCell<File>,
    /// The frames of `wal.log`, which ends where the index ends.
    index: RefCell<FrameIndex>,
    /// The frame being appended, encoded in place; it keeps its capacity
    /// from one append to the next.
    frame: RefCell<BytesMut>,
}

fn io_err(what: &str, e: std::io::Error) -> Error {
    Error::Io(format!("{what}: {e}"))
}

impl FileStorage {
    /// Opens (creating if necessary) a storage directory, truncating any
    /// torn WAL tail left by a previous crash.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| io_err("create storage dir", e))?;
        let mut wal = Self::open_wal(&dir.join("wal.log"))?;
        // Torn-tail truncation on open: scan the whole log and cut it back
        // to the longest intact prefix.
        let mut raw = Vec::new();
        wal.read_to_end(&mut raw)
            .map_err(|e| io_err("read wal.log", e))?;
        let scan = scan_frames(&Bytes::from(raw));
        wal.set_len(scan.valid_len as u64)
            .map_err(|e| io_err("truncate torn wal tail", e))?;
        Ok(FileStorage {
            dir,
            wal: RefCell::new(wal),
            index: RefCell::new(FrameIndex::from_scan(&scan)),
            frame: RefCell::new(BytesMut::new()),
        })
    }

    fn open_wal(path: &Path) -> Result<File> {
        OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)
            .map_err(|e| io_err("open wal.log", e))
    }

    fn snapshot_path(&self) -> PathBuf {
        self.dir.join("snapshot.bin")
    }
}

impl Storage for FileStorage {
    fn append(&self, record: &WalRecord) -> Result<()> {
        let mut frame = self.frame.borrow_mut();
        frame.clear();
        append_record(&mut frame, record);
        let mut wal = self.wal.borrow_mut();
        let mut index = self.index.borrow_mut();
        if let Err(e) = wal.write_all(&frame) {
            // Cut a partial write back off, so the file keeps ending where
            // the index does.
            let _ = wal.set_len(index.end() as u64);
            return Err(io_err("append wal record", e));
        }
        index.push(&frame[FRAME_HEADER..]);
        Ok(())
    }

    fn save_snapshot(&self, snapshot: &Snapshot) -> Result<()> {
        let tmp = self.dir.join("snapshot.tmp");
        std::fs::write(&tmp, snapshot.encode()).map_err(|e| io_err("write snapshot.tmp", e))?;
        std::fs::rename(&tmp, self.snapshot_path()).map_err(|e| io_err("publish snapshot", e))
    }

    fn prune_below(&self, below: SeqNr) -> Result<()> {
        let mut wal = self.wal.borrow_mut();
        let mut index = self.index.borrow_mut();
        let pruned = index.prune(below, |offset, buf| {
            wal.read_exact_at(buf, offset as u64)
                .map_err(|e| io_err("read wal.log", e))
        })?;
        let Some((kept, kept_index)) = pruned else {
            return Ok(());
        };
        // Rewrite through a temp file + rename so a crash mid-prune cannot
        // lose records above the cut.
        let tmp = self.dir.join("wal.tmp");
        let wal_path = self.dir.join("wal.log");
        std::fs::write(&tmp, &kept).map_err(|e| io_err("write wal.tmp", e))?;
        std::fs::rename(&tmp, &wal_path).map_err(|e| io_err("publish wal", e))?;
        *wal = Self::open_wal(&wal_path)?;
        *index = kept_index;
        Ok(())
    }

    fn recover(&self) -> Result<Recovered> {
        let snapshot = match std::fs::read(self.snapshot_path()) {
            Ok(bytes) => Some(Snapshot::decode(&bytes)?),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(io_err("read snapshot.bin", e)),
        };
        let raw = std::fs::read(self.dir.join("wal.log")).map_err(|e| io_err("read wal.log", e))?;
        let raw = Bytes::from(raw);
        let scan = scan_frames(&raw);
        let truncated_bytes = (raw.len() - scan.valid_len) as u64;
        if truncated_bytes > 0 {
            self.wal
                .borrow_mut()
                .set_len(scan.valid_len as u64)
                .map_err(|e| io_err("truncate torn wal tail", e))?;
            self.index.borrow_mut().truncate(scan.frames.len());
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
        self.index.borrow().end() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::PolicyState;
    use iss_types::NodeId;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("iss-storage-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn committed(sn: SeqNr) -> WalRecord {
        WalRecord::Committed {
            seq_nr: sn,
            leader: NodeId(0),
            batch: None,
        }
    }

    #[test]
    fn file_backend_round_trips_wal_and_snapshot_across_reopen() {
        let dir = tmp_dir("roundtrip");
        {
            let store = FileStorage::open(&dir).unwrap();
            for sn in 0..4 {
                store.append(&committed(sn)).unwrap();
            }
            store
                .save_snapshot(&Snapshot {
                    epoch: 0,
                    max_seq_nr: 1,
                    root: [9; 32],
                    proof: Vec::new(),
                    total_delivered: 17,
                    policy: PolicyState::default(),
                })
                .unwrap();
            store.prune_below(2).unwrap();
        }
        // A fresh process opens the same directory.
        let store = FileStorage::open(&dir).unwrap();
        let rec = store.recover().unwrap();
        assert_eq!(rec.snapshot.as_ref().unwrap().total_delivered, 17);
        let sns: Vec<SeqNr> = rec.wal.iter().map(|r| r.seq_nr()).collect();
        assert_eq!(sns, vec![2, 3]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_truncates_a_torn_tail_left_on_disk() {
        let dir = tmp_dir("torn");
        {
            let store = FileStorage::open(&dir).unwrap();
            store.append(&committed(0)).unwrap();
        }
        // Simulate a crash mid-append: garbage after the intact record.
        let wal_path = dir.join("wal.log");
        let mut raw = std::fs::read(&wal_path).unwrap();
        let intact = raw.len();
        raw.extend_from_slice(&[0x55; 9]);
        std::fs::write(&wal_path, &raw).unwrap();
        let store = FileStorage::open(&dir).unwrap();
        assert_eq!(store.wal_bytes(), intact as u64);
        let rec = store.recover().unwrap();
        assert_eq!(rec.wal.len(), 1);
        assert_eq!(rec.truncated_bytes, 0, "open already cut the tail");
        // And appends after the cut extend the intact prefix.
        store.append(&committed(1)).unwrap();
        let rec = store.recover().unwrap();
        assert_eq!(rec.wal.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Six equal-sized records `0..6` on disk; returns the store and the
    /// size of one frame.
    fn six_records(dir: &Path) -> (FileStorage, usize) {
        let store = FileStorage::open(dir).unwrap();
        for sn in 0..6 {
            store.append(&committed(sn)).unwrap();
        }
        let frame_len = store.wal_bytes() as usize / 6;
        (store, frame_len)
    }

    /// Flips one payload byte of the `nth` frame of `wal.log` in place.
    fn corrupt_frame(dir: &Path, frame_len: usize, nth: usize) {
        let wal = OpenOptions::new()
            .read(true)
            .write(true)
            .open(dir.join("wal.log"))
            .unwrap();
        let at = (nth * frame_len + FRAME_HEADER + 2) as u64;
        let mut byte = [0u8];
        wal.read_exact_at(&mut byte, at).unwrap();
        wal.write_all_at(&[byte[0] ^ 0x40], at).unwrap();
    }

    #[test]
    fn prune_keeps_every_record_above_the_cut_past_a_corrupt_frame_below_it() {
        let dir = tmp_dir("corrupt-below");
        let (store, frame_len) = six_records(&dir);
        corrupt_frame(&dir, frame_len, 1);
        store.prune_below(3).unwrap();
        let sns: Vec<SeqNr> = FileStorage::open(&dir)
            .unwrap()
            .recover()
            .unwrap()
            .wal
            .iter()
            .map(|r| r.seq_nr())
            .collect();
        assert_eq!(sns, vec![3, 4, 5]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_fails_and_leaves_the_log_alone_on_a_corrupt_frame_above_the_cut() {
        let dir = tmp_dir("corrupt-above");
        let (store, frame_len) = six_records(&dir);
        corrupt_frame(&dir, frame_len, 4);
        let before = std::fs::read(dir.join("wal.log")).unwrap();
        assert!(store.prune_below(3).is_err());
        assert_eq!(std::fs::read(dir.join("wal.log")).unwrap(), before);
        assert!(!dir.join("wal.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_that_cuts_a_corrupt_frame_trims_the_index() {
        let dir = tmp_dir("corrupt-recover");
        let (store, frame_len) = six_records(&dir);
        corrupt_frame(&dir, frame_len, 4);
        assert_eq!(store.recover().unwrap().wal.len(), 4);
        assert_eq!(store.wal_bytes(), 4 * frame_len as u64);
        store.append(&committed(6)).unwrap();
        store.prune_below(2).unwrap();
        let sns: Vec<SeqNr> = store
            .recover()
            .unwrap()
            .wal
            .iter()
            .map(|r| r.seq_nr())
            .collect();
        assert_eq!(sns, vec![2, 3, 6]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
