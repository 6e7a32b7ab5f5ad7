//! Durable persistence for the ordered log: a write-ahead log, checkpoint
//! snapshots, and recovery.
//!
//! ISS assumes replicas can crash, reboot and rejoin with the same identity
//! (Section 3.5 leans on the stable-checkpoint mechanism for exactly this).
//! This crate provides the persistence substrate that makes that possible in
//! the reproduction:
//!
//! * [`wal`] — record framing for the write-ahead log: length-prefixed,
//!   checksummed records, with **torn-tail truncation** on open (a crash
//!   mid-append leaves a partial or corrupt final record; the scan stops at
//!   the first bad frame and discards everything from there on, never
//!   anything before it), and the frame index both backends prune by.
//! * [`record`] — the logical WAL record ([`WalRecord::Committed`], one per
//!   committed log entry) and the checkpoint [`Snapshot`] cut at ISS stable
//!   checkpoints, both with fully round-trip-tested binary codecs built on
//!   `iss-messages::codec`.
//! * [`Storage`] — the backend trait: [`MemStorage`] is the deterministic
//!   in-memory backend the simulator uses (the handle outlives a simulated
//!   process crash, playing the role of the disk), and [`FileStorage`] is a
//!   real file-backed implementation behind the same trait for running
//!   outside the simulator.
//!
//! The intended protocol usage (implemented in `iss-core`):
//! every committed entry is appended to the WAL; when a checkpoint becomes
//! stable a [`Snapshot`] is cut and WAL records at or below the checkpoint
//! are pruned; on reboot [`Storage::recover`] returns the snapshot plus the
//! surviving WAL suffix, from which the replica rebuilds a delivered log
//! bit-identical to the one it had before crashing.

pub mod file;
pub mod mem;
pub mod record;
pub mod wal;

pub use file::FileStorage;
pub use mem::MemStorage;
pub use record::{PolicyState, Snapshot, WalRecord};

use iss_types::{Result, SeqNr};

/// Everything a backend recovered from durable state on open: the latest
/// checkpoint snapshot (if one was ever cut) and the WAL records that
/// survived torn-tail truncation, in append order.
#[derive(Debug, Default)]
pub struct Recovered {
    /// The most recent snapshot, if any.
    pub snapshot: Option<Snapshot>,
    /// Surviving WAL records in append order.
    pub wal: Vec<WalRecord>,
    /// Bytes discarded from the WAL tail (torn or corrupt frames).
    pub truncated_bytes: u64,
}

/// A durable backend for the ordered log.
///
/// Methods take `&self`: backends use interior mutability so a node can hold
/// a shared handle (`Rc<dyn Storage>`) that survives a simulated process
/// restart — the handle *is* the disk.
pub trait Storage {
    /// Appends a record to the WAL.
    fn append(&self, record: &WalRecord) -> Result<()>;

    /// Atomically replaces the checkpoint snapshot.
    fn save_snapshot(&self, snapshot: &Snapshot) -> Result<()>;

    /// Drops WAL records with `seq_nr < below` (entries covered by the
    /// latest snapshot). Records above the cut are preserved verbatim, in
    /// append order.
    ///
    /// Both backends work from an in-memory frame index
    /// ([`wal::FrameIndex`]): a prune reads and re-verifies only the records
    /// it keeps and decodes none, so its cost is the bytes above the cut.
    /// It is a no-op when no record is below the cut, and it fails, leaving
    /// the log as it was, if a record it would keep no longer passes its
    /// checksum.
    fn prune_below(&self, below: SeqNr) -> Result<()>;

    /// Reads back the snapshot and the surviving WAL records, truncating a
    /// torn tail if the last append was interrupted.
    fn recover(&self) -> Result<Recovered>;

    /// Current WAL size in bytes (diagnostics and tests).
    fn wal_bytes(&self) -> u64;
}
