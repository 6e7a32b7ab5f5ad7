//! WAL record framing: length-prefixed, checksummed frames with torn-tail
//! truncation on scan.
//!
//! Frame layout (all little-endian):
//!
//! ```text
//! ┌─────────────┬───────────────┬────────────────┐
//! │ len: u32    │ check: u64    │ payload (len)  │
//! └─────────────┴───────────────┴────────────────┘
//! ```
//!
//! `check` is the first eight bytes of `SHA-256("iss-wal-frame" ‖ payload)`,
//! so a bit flip anywhere in the payload — or a length field pointing past
//! the true end of the payload — fails verification. [`scan_frames`] walks
//! the buffer from the front and stops at the first frame that is truncated
//! or fails its checksum: everything before the bad frame is returned,
//! everything from it on is reported as the torn tail to truncate. A crash
//! mid-append can therefore lose at most the record being written, never a
//! previously acknowledged one.
//!
//! [`FrameIndex`] is both backends' in-memory map of the intact frames: one
//! `(seq_nr, offset, len)` entry per record. It is built from the scan a
//! backend makes on open and extended by each append, and it is what a
//! prune works from: [`FrameIndex::prune`] reads and re-verifies only the
//! frames it keeps, so a stable checkpoint costs the bytes above the cut,
//! not the whole log.

use crate::record::WalRecord;
use bytes::{Bytes, BytesMut};
use iss_crypto::Sha256;
use iss_types::{Error, Result, SeqNr};

/// Bytes of framing overhead per record (`u32` length + `u64` checksum).
pub const FRAME_HEADER: usize = 12;

/// Frames may not exceed this payload size (64 MiB) — a sanity bound so a
/// corrupt length field cannot drive a huge allocation during a scan.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Domain-separation prefix of the frame checksum.
const FRAME_DOMAIN: &[u8] = b"iss-wal-frame";

/// Computes the 8-byte checksum of a frame payload.
fn frame_check(payload: &[u8]) -> u64 {
    let digest = Sha256::digest_parts(&[FRAME_DOMAIN, payload]);
    u64::from_le_bytes(digest[..8].try_into().expect("8-byte prefix"))
}

/// Fills in the header of `frame`, a reserved header followed by the whole
/// payload.
fn seal(frame: &mut [u8]) {
    let (header, payload) = frame.split_at_mut(FRAME_HEADER);
    debug_assert!(payload.len() <= MAX_FRAME_LEN, "oversized WAL frame");
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&frame_check(payload).to_le_bytes());
}

/// Appends one framed record to `buf`.
pub fn append_frame(buf: &mut Vec<u8>, payload: &[u8]) {
    let at = buf.len();
    buf.resize(at + FRAME_HEADER, 0);
    buf.extend_from_slice(payload);
    seal(&mut buf[at..]);
}

/// Appends `record` to `buf` as one frame, with no copy of its payload:
/// the header is reserved, the record encoded behind it, and the header
/// filled in place.
pub fn append_record(buf: &mut BytesMut, record: &WalRecord) {
    let at = buf.len();
    buf.extend_from_slice(&[0; FRAME_HEADER]);
    record.encode_into(buf);
    seal(&mut buf[at..]);
}

/// The result of scanning a WAL buffer.
#[derive(Debug)]
pub struct ScanOutcome {
    /// Payloads of every intact frame, in append order (zero-copy slices of
    /// the input buffer).
    pub frames: Vec<Bytes>,
    /// Length of the intact prefix; bytes at `valid_len..` are the torn
    /// tail and must be truncated before appending again.
    pub valid_len: usize,
}

/// Length (header included) of the frame at the front of `data`, or `None`
/// when that frame is truncated, claims a nonsense length, or fails its
/// checksum.
fn intact_frame_len(data: &[u8]) -> Option<usize> {
    let header = data.get(..FRAME_HEADER)?;
    let len = u32::from_le_bytes(header[..4].try_into().expect("4-byte field")) as usize;
    let check = u64::from_le_bytes(header[4..].try_into().expect("8-byte field"));
    if len > MAX_FRAME_LEN {
        return None;
    }
    let payload = data.get(FRAME_HEADER..FRAME_HEADER + len)?;
    (frame_check(payload) == check).then_some(FRAME_HEADER + len)
}

/// Scans `data` from the front, verifying each frame, and stops at the first
/// truncated or corrupt one (see the module docs).
pub fn scan_frames(data: &Bytes) -> ScanOutcome {
    let mut frames = Vec::new();
    let mut offset = 0usize;
    while let Some(len) = intact_frame_len(&data[offset..]) {
        frames.push(data.slice(offset + FRAME_HEADER..offset + len));
        offset += len;
    }
    ScanOutcome {
        frames,
        valid_len: offset,
    }
}

/// One intact frame of the log: the record's sequence number and the
/// frame's place in the log's bytes (header included).
#[derive(Clone, Copy, Debug)]
struct IndexedFrame {
    seq_nr: SeqNr,
    offset: usize,
    len: usize,
}

/// The intact frames of a log, in append order (see the module docs).
///
/// Entries are contiguous from offset 0, so [`FrameIndex::end`] is the
/// length of the log's intact prefix. A frame whose payload is not a
/// readable record is indexed at `SeqNr::MAX`: no cut drops what it cannot
/// read, and recovery reports the record as undecodable.
#[derive(Debug, Default)]
pub struct FrameIndex {
    frames: Vec<IndexedFrame>,
}

impl FrameIndex {
    /// Indexes the frames a [`scan_frames`] pass found.
    pub fn from_scan(scan: &ScanOutcome) -> Self {
        let mut index = FrameIndex::default();
        for payload in &scan.frames {
            index.push(payload);
        }
        index
    }

    /// Records one more frame, carrying `payload`, at the end of the log.
    pub fn push(&mut self, payload: &[u8]) {
        self.frames.push(IndexedFrame {
            seq_nr: WalRecord::seq_nr_of(payload).unwrap_or(SeqNr::MAX),
            offset: self.end(),
            len: FRAME_HEADER + payload.len(),
        });
    }

    /// Length of the indexed log in bytes.
    pub fn end(&self) -> usize {
        self.frames.last().map_or(0, |f| f.offset + f.len)
    }

    /// Keeps the first `frames` entries (a torn-tail truncation).
    pub fn truncate(&mut self, frames: usize) {
        self.frames.truncate(frames);
    }

    /// The log without its records below `below`: the bytes of every frame
    /// at or above the cut, verbatim and in append order, and their index.
    /// `None` when no frame is below the cut.
    ///
    /// `read_at(offset, buf)` fills `buf` from the log's bytes at `offset`;
    /// it is called once per run of adjacent kept frames. Only the kept
    /// frames are read, and each is re-verified: one that went bad since it
    /// was indexed fails the prune with an error rather than being carried
    /// over or dropped.
    pub fn prune(
        &self,
        below: SeqNr,
        mut read_at: impl FnMut(usize, &mut [u8]) -> Result<()>,
    ) -> Result<Option<(Vec<u8>, FrameIndex)>> {
        if self.frames.iter().all(|f| f.seq_nr >= below) {
            return Ok(None);
        }
        let mut kept = FrameIndex::default();
        // Runs of adjacent kept frames: where each starts in this log, and
        // its range in the pruned one.
        let mut runs: Vec<(usize, std::ops::Range<usize>)> = Vec::new();
        for f in self.frames.iter().filter(|f| f.seq_nr >= below) {
            let at = kept.end();
            match runs.last_mut() {
                Some((src, dst)) if *src + dst.len() == f.offset => dst.end += f.len,
                _ => runs.push((f.offset, at..at + f.len)),
            }
            kept.frames.push(IndexedFrame { offset: at, ..*f });
        }
        let mut bytes = vec![0u8; kept.end()];
        for (src, dst) in runs {
            read_at(src, &mut bytes[dst])?;
        }
        for f in &kept.frames {
            let frame = &bytes[f.offset..f.offset + f.len];
            if intact_frame_len(frame) != Some(f.len) {
                return Err(Error::Io(format!(
                    "WAL frame of seq_nr {} fails its checksum; prune aborted",
                    f.seq_nr
                )));
            }
        }
        Ok(Some((bytes, kept)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf_with(payloads: &[&[u8]]) -> Vec<u8> {
        let mut buf = Vec::new();
        for p in payloads {
            append_frame(&mut buf, p);
        }
        buf
    }

    /// Frame headers recorded on the commit before the SHA-256 kernel
    /// changed: a log written by an older build must still scan clean.
    #[test]
    fn frame_checksum_matches_logs_already_on_disk() {
        let payload: Vec<u8> = (0..200usize).map(|i| (i * 7 + 3) as u8).collect();
        let buf = buf_with(&[&payload, b""]);
        assert_eq!(
            buf[..FRAME_HEADER],
            [0xc8, 0, 0, 0, 0x94, 0x04, 0x23, 0x00, 0xb7, 0x9f, 0xcc, 0xa7]
        );
        assert_eq!(
            buf[FRAME_HEADER + 200..],
            [0, 0, 0, 0, 0x44, 0xae, 0xfc, 0x23, 0xba, 0xab, 0x13, 0x9f]
        );
    }

    #[test]
    fn roundtrip_preserves_frames_in_order() {
        let buf = buf_with(&[b"alpha", b"", b"gamma-longer-payload"]);
        let out = scan_frames(&Bytes::from(buf.clone()));
        assert_eq!(out.valid_len, buf.len());
        let got: Vec<&[u8]> = out.frames.iter().map(|f| f.as_ref()).collect();
        assert_eq!(
            got,
            vec![&b"alpha"[..], &b""[..], &b"gamma-longer-payload"[..]]
        );
    }

    #[test]
    fn torn_tail_is_truncated_but_prefix_survives() {
        let intact = buf_with(&[b"one", b"two"]);
        let mut buf = intact.clone();
        // Simulate a crash mid-append: only half of the third frame's bytes
        // made it to the buffer.
        let mut third = Vec::new();
        append_frame(&mut third, b"three");
        buf.extend_from_slice(&third[..third.len() / 2]);
        let out = scan_frames(&Bytes::from(buf));
        assert_eq!(out.valid_len, intact.len());
        assert_eq!(out.frames.len(), 2);
    }

    #[test]
    fn corrupt_checksum_stops_the_scan_at_the_bad_frame() {
        let mut buf = buf_with(&[b"good", b"bad", b"unreachable"]);
        // Flip one payload bit of the second frame.
        let second_payload_at = (FRAME_HEADER + 4) + FRAME_HEADER;
        buf[second_payload_at] ^= 0x01;
        let out = scan_frames(&Bytes::from(buf));
        assert_eq!(out.frames.len(), 1);
        assert_eq!(out.frames[0].as_ref(), b"good");
        assert_eq!(out.valid_len, FRAME_HEADER + 4);
    }

    #[test]
    fn oversized_length_field_is_treated_as_torn() {
        let mut buf = buf_with(&[b"keep"]);
        let keep = buf.len();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0u8; 8]);
        buf.extend_from_slice(&[0xAA; 64]);
        let out = scan_frames(&Bytes::from(buf));
        assert_eq!(out.frames.len(), 1);
        assert_eq!(out.valid_len, keep);
    }

    fn record(seq_nr: SeqNr) -> Vec<u8> {
        WalRecord::Committed {
            seq_nr,
            leader: iss_types::NodeId(1),
            batch: None,
        }
        .encode()
    }

    #[test]
    fn a_record_framed_in_place_is_its_payload_framed() {
        let batch = iss_types::Batch::new(vec![iss_types::Request::new(
            iss_types::ClientId(3),
            9,
            vec![0xAB; 300],
        )]);
        let records = [
            WalRecord::Committed {
                seq_nr: 4,
                leader: iss_types::NodeId(2),
                batch: Some(batch),
            },
            WalRecord::Committed {
                seq_nr: 5,
                leader: iss_types::NodeId(3),
                batch: None,
            },
        ];
        let mut in_place = BytesMut::new();
        in_place.extend_from_slice(b"earlier bytes");
        let mut copied = b"earlier bytes".to_vec();
        for rec in &records {
            append_record(&mut in_place, rec);
            append_frame(&mut copied, &rec.encode());
        }
        assert_eq!(in_place[..], copied[..]);
    }

    /// A log of `seq_nrs` in append order, and its index.
    fn indexed_log(seq_nrs: &[SeqNr]) -> (Vec<u8>, FrameIndex) {
        let mut log = Vec::new();
        let mut index = FrameIndex::default();
        for &sn in seq_nrs {
            append_frame(&mut log, &record(sn));
            index.push(&record(sn));
        }
        assert_eq!(index.end(), log.len());
        (log, index)
    }

    #[test]
    fn prune_reads_only_the_kept_frames_once_per_run() {
        let (log, index) = indexed_log(&[5, 0, 6, 7, 1, 8]);
        let mut reads = 0;
        let (kept, kept_index) = index
            .prune(5, |offset, buf| {
                reads += 1;
                buf.copy_from_slice(&log[offset..offset + buf.len()]);
                Ok(())
            })
            .unwrap()
            .expect("two records are below the cut");
        assert_eq!(reads, 3, "runs [5], [6 7] and [8]");
        let (expected, _) = indexed_log(&[5, 6, 7, 8]);
        assert_eq!(kept, expected);
        assert_eq!(kept_index.end(), expected.len());
        // Nothing below the cut: no read, no rewrite.
        let untouched = index.prune(0, |_, _| panic!("nothing to copy")).unwrap();
        assert!(untouched.is_none());
    }

    #[test]
    fn prune_rejects_a_kept_frame_that_went_bad() {
        let (mut log, index) = indexed_log(&[0, 1, 2]);
        let last = log.len() - 1;
        log[last] ^= 0x01;
        let out = index.prune(1, |offset, buf| {
            buf.copy_from_slice(&log[offset..offset + buf.len()]);
            Ok(())
        });
        assert!(out.is_err());
    }

    #[test]
    fn a_frame_that_is_not_a_record_survives_every_cut() {
        let mut index = FrameIndex::default();
        index.push(&record(0));
        index.push(b"not a record");
        let mut log = Vec::new();
        append_frame(&mut log, &record(0));
        append_frame(&mut log, b"not a record");
        let (kept, _) = index
            .prune(SeqNr::MAX, |offset, buf| {
                buf.copy_from_slice(&log[offset..offset + buf.len()]);
                Ok(())
            })
            .unwrap()
            .unwrap();
        assert_eq!(kept, log[FRAME_HEADER + record(0).len()..]);
    }

    #[test]
    fn empty_and_header_only_buffers_scan_clean() {
        assert_eq!(scan_frames(&Bytes::new()).valid_len, 0);
        let out = scan_frames(&Bytes::from(vec![0u8; FRAME_HEADER - 1]));
        assert_eq!(out.valid_len, 0);
        assert!(out.frames.is_empty());
    }
}
