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

use bytes::{Buf, BufMut, Bytes, BytesMut};
use iss_crypto::Sha256;

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

/// Appends one framed record to `buf`.
pub fn append_frame(buf: &mut Vec<u8>, payload: &[u8]) {
    debug_assert!(payload.len() <= MAX_FRAME_LEN, "oversized WAL frame");
    let mut header = BytesMut::with_capacity(FRAME_HEADER);
    header.put_u32_le(payload.len() as u32);
    header.put_u64_le(frame_check(payload));
    buf.extend_from_slice(&header);
    buf.extend_from_slice(payload);
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

/// Scans `data` from the front, verifying each frame, and stops at the first
/// truncated or corrupt one (see the module docs).
pub fn scan_frames(data: &Bytes) -> ScanOutcome {
    let mut frames = Vec::new();
    let mut offset = 0usize;
    while data.len() - offset >= FRAME_HEADER {
        let mut header = data.slice(offset..offset + FRAME_HEADER);
        let len = header.get_u32_le() as usize;
        let check = header.get_u64_le();
        if len > MAX_FRAME_LEN || data.len() - offset - FRAME_HEADER < len {
            break; // truncated payload (or nonsense length): torn tail
        }
        let payload = data.slice(offset + FRAME_HEADER..offset + FRAME_HEADER + len);
        if frame_check(&payload) != check {
            break; // corrupt frame: stop here, keep the intact prefix
        }
        frames.push(payload);
        offset += FRAME_HEADER + len;
    }
    ScanOutcome {
        frames,
        valid_len: offset,
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

    #[test]
    fn empty_and_header_only_buffers_scan_clean() {
        assert_eq!(scan_frames(&Bytes::new()).valid_len, 0);
        let out = scan_frames(&Bytes::from(vec![0u8; FRAME_HEADER - 1]));
        assert_eq!(out.valid_len, 0);
        assert!(out.frames.is_empty());
    }
}
