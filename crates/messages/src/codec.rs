//! The binary codec's building blocks: requests, batches and log entries.
//!
//! WAL records (`iss_storage::record`), snapshot state transfer (the log
//! bytes `iss_core`'s recovery ships) and the socket wire format
//! ([`crate::wire`]) are all built from these encoders, so the three share
//! one byte layout for a request. The format is deliberately simple:
//! length-prefixed little-endian fields, fully round-trip tested, including
//! property-based tests.
//!
//! Every encoder writes into a [`Sink`]: a buffer, or a [`Counter`], which
//! writes nothing and measures. Measuring through the encoders is how a
//! simulated message is priced (`<NetMsg as Payload>::wire_size`), so the
//! simulator charges exactly the bytes the socket would carry.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use iss_types::{Batch, ClientId, Error, Request, Result, SeqNr};

/// Where the encoders write.
pub trait Sink: BufMut {
    /// Takes note of `len` payload bytes that a synthetic request declares
    /// (`payload_size`) but does not carry. A buffer has nothing to write;
    /// a [`Counter`] counts them, so a simulated request is charged its
    /// declared size.
    fn absent_payload(&mut self, _len: usize) {}

    /// Appends the bytes `data` holds. A [`Counter`] adds their length
    /// without forming a slice of them.
    fn put_shared(&mut self, data: &Bytes) {
        self.put_slice(data);
    }
}

impl Sink for BytesMut {}

/// A sink that writes nothing: `len` is the number of bytes the encoders
/// would have written, plus the payload synthetic requests declare and do
/// not carry.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counter {
    /// Bytes counted so far.
    pub len: usize,
}

impl BufMut for Counter {
    fn put_slice(&mut self, data: &[u8]) {
        self.len += data.len();
    }
}

impl Sink for Counter {
    fn absent_payload(&mut self, len: usize) {
        self.len += len;
    }

    fn put_shared(&mut self, data: &Bytes) {
        self.len += data.len();
    }
}

/// How many of `claimed` elements to reserve room for before decoding
/// them: no more than the bytes left in `buf` can hold, at `min_len` bytes
/// (the shortest encoding of one element) each. A count is the sender's
/// claim; a few bytes that claim `u32::MAX` elements reserve nothing.
pub fn capacity_for(claimed: usize, buf: &impl Buf, min_len: usize) -> usize {
    claimed.min(buf.remaining() / min_len)
}

/// Shortest encoding of a request: id, `payload_size`, and two empty
/// length-prefixed byte strings.
const REQUEST_MIN_LEN: usize = 24;

/// Shortest encoding of a log entry: sequence number and the ⊥ tag.
pub(crate) const LOG_ENTRY_MIN_LEN: usize = 9;

/// Encodes a request.
pub fn encode_request(req: &Request, buf: &mut impl Sink) {
    buf.put_u32_le(req.id.client.0);
    buf.put_u64_le(req.id.timestamp);
    buf.put_u32_le(req.payload_size);
    buf.put_u32_le(req.payload.len() as u32);
    buf.put_shared(&req.payload);
    buf.absent_payload((req.payload_size as usize).saturating_sub(req.payload.len()));
    buf.put_u32_le(req.signature.len() as u32);
    buf.put_shared(&req.signature);
}

/// Decodes a request.
///
/// Zero-copy: the decoded payload and signature are sub-slices of the input
/// buffer sharing its allocation (`Buf::copy_to_bytes` on a [`Bytes`] does
/// not copy), so decoding a batch of requests performs no per-request
/// payload allocation.
///
/// Trade-off: each decoded request keeps the *whole* input buffer's
/// allocation alive for as long as the request lives. Decode one wire unit
/// (one batch / one state-transfer chunk) per buffer — as this codec's
/// entry points do — so a surviving request pins at most its own chunk; if
/// a decoded request must outlive its buffer by a lot, copy it out
/// explicitly (`Bytes::copy_from_slice(&req.payload)`).
pub fn decode_request(buf: &mut Bytes) -> Result<Request> {
    if buf.remaining() < 20 {
        return Err(Error::Codec("truncated request header".into()));
    }
    let client = ClientId(buf.get_u32_le());
    let timestamp = buf.get_u64_le();
    let payload_size = buf.get_u32_le();
    let payload_len = buf.get_u32_le() as usize;
    if buf.remaining() < payload_len {
        return Err(Error::Codec("truncated request payload".into()));
    }
    let payload = buf.copy_to_bytes(payload_len);
    if buf.remaining() < 4 {
        return Err(Error::Codec("truncated signature length".into()));
    }
    let sig_len = buf.get_u32_le() as usize;
    if buf.remaining() < sig_len {
        return Err(Error::Codec("truncated signature".into()));
    }
    let signature = buf.copy_to_bytes(sig_len);
    let mut req = Request::new(client, timestamp, payload);
    req.payload_size = payload_size;
    req.signature = signature;
    Ok(req)
}

/// Encodes a batch.
pub fn encode_batch(batch: &Batch, buf: &mut impl Sink) {
    buf.put_u32_le(batch.len() as u32);
    for req in batch.requests() {
        encode_request(req, buf);
    }
}

/// Decodes a batch.
pub fn decode_batch(buf: &mut Bytes) -> Result<Batch> {
    if buf.remaining() < 4 {
        return Err(Error::Codec("truncated batch header".into()));
    }
    let n = buf.get_u32_le() as usize;
    let mut requests = Vec::with_capacity(capacity_for(n, &*buf, REQUEST_MIN_LEN));
    for _ in 0..n {
        requests.push(decode_request(buf)?);
    }
    Ok(Batch::new(requests))
}

/// Encodes a log entry `(sn, Option<Batch>)`; ⊥ is encoded with a zero tag.
pub fn encode_log_entry(sn: SeqNr, batch: &Option<Batch>, buf: &mut impl Sink) {
    buf.put_u64_le(sn);
    match batch {
        None => buf.put_u8(0),
        Some(b) => {
            buf.put_u8(1);
            encode_batch(b, buf);
        }
    }
}

/// Decodes a log entry.
pub fn decode_log_entry(buf: &mut Bytes) -> Result<(SeqNr, Option<Batch>)> {
    if buf.remaining() < 9 {
        return Err(Error::Codec("truncated log entry".into()));
    }
    let sn = buf.get_u64_le();
    let tag = buf.get_u8();
    match tag {
        0 => Ok((sn, None)),
        1 => Ok((sn, Some(decode_batch(buf)?))),
        t => Err(Error::Codec(format!("invalid log entry tag {t}"))),
    }
}

/// Encodes a whole log (sequence of entries) into a byte vector.
pub fn encode_log(entries: &[(SeqNr, Option<Batch>)]) -> Vec<u8> {
    let mut buf = BytesMut::new();
    buf.put_u64_le(entries.len() as u64);
    for (sn, batch) in entries {
        encode_log_entry(*sn, batch, &mut buf);
    }
    buf.to_vec()
}

/// Decodes a whole log.
pub fn decode_log(data: &[u8]) -> Result<Vec<(SeqNr, Option<Batch>)>> {
    let mut buf = Bytes::copy_from_slice(data);
    if buf.remaining() < 8 {
        return Err(Error::Codec("truncated log".into()));
    }
    let n = buf.get_u64_le() as usize;
    let mut entries = Vec::with_capacity(capacity_for(n, &buf, LOG_ENTRY_MIN_LEN));
    for _ in 0..n {
        entries.push(decode_log_entry(&mut buf)?);
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_request(i: u32) -> Request {
        Request::new(ClientId(i), i as u64 * 3, vec![i as u8; (i % 7) as usize])
            .with_signature(vec![0xAB; 64])
    }

    #[test]
    fn request_roundtrip() {
        let req = sample_request(5);
        let mut buf = BytesMut::new();
        encode_request(&req, &mut buf);
        let mut bytes = buf.freeze();
        let decoded = decode_request(&mut bytes).unwrap();
        assert_eq!(decoded, req);
    }

    #[test]
    fn batch_roundtrip() {
        let batch = Batch::new((0..10).map(sample_request).collect());
        let mut buf = BytesMut::new();
        encode_batch(&batch, &mut buf);
        let mut bytes = buf.freeze();
        assert_eq!(decode_batch(&mut bytes).unwrap(), batch);
    }

    #[test]
    fn log_roundtrip_with_nil_entries() {
        let entries = vec![
            (0u64, Some(Batch::new(vec![sample_request(1)]))),
            (1u64, None),
            (2u64, Some(Batch::empty())),
        ];
        let encoded = encode_log(&entries);
        assert_eq!(decode_log(&encoded).unwrap(), entries);
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let entries = vec![(0u64, Some(Batch::new(vec![sample_request(1)])))];
        let encoded = encode_log(&entries);
        for cut in [0, 1, 5, 9, encoded.len() - 1] {
            assert!(decode_log(&encoded[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn decode_is_zero_copy() {
        // The decoded payload must point into the encode buffer's allocation
        // rather than a fresh copy.
        let req = Request::new(ClientId(1), 2, vec![0xEE; 256]).with_signature(vec![0xDD; 64]);
        let mut buf = BytesMut::new();
        encode_request(&req, &mut buf);
        let wire = buf.freeze();
        let wire_range = wire.as_ptr() as usize..wire.as_ptr() as usize + wire.len();
        let mut cursor = wire.clone();
        let decoded = decode_request(&mut cursor).unwrap();
        assert!(wire_range.contains(&(decoded.payload.as_ptr() as usize)));
        assert!(wire_range.contains(&(decoded.signature.as_ptr() as usize)));
    }

    #[test]
    fn capacity_is_bounded_by_the_bytes_left() {
        let buf = Bytes::from(vec![0u8; 100]);
        assert_eq!(capacity_for(3, &buf, 24), 3, "a believable claim is kept");
        assert_eq!(
            capacity_for(1_000, &buf, 24),
            4,
            "100 bytes hold 4 requests"
        );
        assert_eq!(capacity_for(u32::MAX as usize, &buf, 9), 11);
        assert_eq!(capacity_for(u32::MAX as usize, &Bytes::new(), 1), 0);
    }

    #[test]
    fn a_short_buffer_claiming_u32_max_elements_is_rejected() {
        let mut batch = Bytes::from(vec![0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3]);
        assert!(decode_batch(&mut batch).is_err());
        let mut log = u64::from(u32::MAX).to_le_bytes().to_vec();
        log.extend_from_slice(&[0, 1, 2]);
        assert!(decode_log(&log).is_err());
    }

    #[test]
    fn encoded_request_size_counts_payload_and_signature() {
        let size = |req: &Request| {
            let mut counter = Counter::default();
            encode_request(req, &mut counter);
            counter.len
        };
        let real = Request::new(ClientId(0), 0, vec![0u8; 500]).with_signature(vec![0u8; 64]);
        assert_eq!(size(&real), REQUEST_MIN_LEN + 500 + 64);
        let mut buf = BytesMut::new();
        encode_request(&real, &mut buf);
        assert_eq!(
            buf.len(),
            size(&real),
            "the counter measures what is written"
        );
        // A synthetic request is charged the payload it declares.
        let synthetic = Request::synthetic(ClientId(0), 0, 500);
        assert_eq!(size(&synthetic), REQUEST_MIN_LEN + 500);
    }

    #[test]
    fn invalid_tag_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u64_le(0);
        buf.put_u8(7);
        let mut bytes = buf.freeze();
        assert!(decode_log_entry(&mut bytes).is_err());
    }

    proptest! {
        #[test]
        fn prop_request_roundtrip(
            client in 0u32..1000,
            ts in 0u64..1_000_000,
            payload in proptest::collection::vec(any::<u8>(), 0..600),
            sig in proptest::collection::vec(any::<u8>(), 0..80),
        ) {
            let req = Request::new(ClientId(client), ts, payload).with_signature(sig);
            let mut buf = BytesMut::new();
            encode_request(&req, &mut buf);
            let mut bytes = buf.freeze();
            prop_assert_eq!(decode_request(&mut bytes).unwrap(), req);
        }

        #[test]
        fn prop_log_roundtrip(
            lens in proptest::collection::vec(proptest::option::of(0usize..5), 0..8)
        ) {
            let entries: Vec<(SeqNr, Option<Batch>)> = lens
                .iter()
                .enumerate()
                .map(|(sn, l)| {
                    (sn as u64, l.map(|l| Batch::new((0..l as u32).map(sample_request).collect())))
                })
                .collect();
            let encoded = encode_log(&entries);
            prop_assert_eq!(decode_log(&encoded).unwrap(), entries);
        }

        #[test]
        fn prop_decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..200)) {
            let _ = decode_log(&data);
            let mut bytes = Bytes::copy_from_slice(&data);
            let _ = decode_request(&mut bytes);
        }
    }
}
