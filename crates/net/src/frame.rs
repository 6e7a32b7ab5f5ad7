//! Length-prefixed framing over a byte stream, plus the hello frame that
//! opens every connection.
//!
//! A connection carries a sequence of frames, each a `u32` little-endian
//! length followed by that many payload bytes. The first frame on every
//! connection is a *hello* identifying the dialing process by its
//! [`Addr`], which is a node or a client: stage addresses are
//! simulator-only and have no hello. Every later frame is one [`NetMsg`]
//! encoded with [`iss_messages::wire`]. The hello is what lets an accepting
//! node route responses: a client never listens, so the node writes
//! `Response` frames back over the client's own inbound connection, keyed
//! by the hello.
//!
//! Framing is a property of the byte stream, not of the syscalls that move
//! it: a sender may put any number of frames into one `write`
//! ([`encode_frame`] appends to a shared buffer) and a receiver may find any
//! number of frames, and any fraction of one, in one `read`
//! ([`FrameReader`]).

use bytes::{Buf, BufMut, Bytes, BytesMut};
use iss_messages::wire::{decode_net_msg, encode_net_msg};
use iss_messages::NetMsg;
use iss_runtime::Addr;
use iss_types::{ClientId, NodeId};
use std::io::{self, IoSlice, Read, Write};

/// Refuse frames larger than this (a corrupt or hostile length prefix must
/// not make the reader buffer gigabytes). Generous: the largest legitimate
/// frame is a full proposal, about a megabyte.
pub const MAX_FRAME: usize = 64 << 20;

/// A reader's buffer to begin with. The length prefix is the sender's
/// claim, so a frame larger than this gets its memory as its bytes arrive:
/// each step asks for as much again as has been received (at least this
/// much), never for the claimed length.
pub const READ_BUF: usize = 64 << 10;

/// Size of the length prefix.
pub(crate) const PREFIX: usize = 4;

const ADDR_NODE: u8 = 0;
const ADDR_CLIENT: u8 = 1;

/// Checks a received length prefix against [`MAX_FRAME`].
fn checked_len(prefix: [u8; PREFIX]) -> io::Result<usize> {
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    Ok(len)
}

/// Writes one length-prefixed frame: prefix and payload leave in a single
/// vectored write (on a `TCP_NODELAY` socket two writes are two segments and
/// two syscalls).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let prefix = (payload.len() as u32).to_le_bytes();
    let written = loop {
        match w.write_vectored(&[IoSlice::new(&prefix), IoSlice::new(payload)]) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            other => break other?,
        }
    };
    // A short write (or a writer without vectored support, which takes the
    // first slice only) leaves a remainder for plain `write_all`.
    if written < PREFIX {
        w.write_all(&prefix[written..])?;
        w.write_all(payload)?;
    } else {
        w.write_all(&payload[written - PREFIX..])?;
    }
    w.flush()
}

/// Reads one length-prefixed frame, taking exactly the frame's bytes from
/// `r` (the hello is read this way, before a [`FrameReader`] takes over the
/// connection). The payload buffer grows as the bytes arrive, see
/// [`READ_BUF`].
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut prefix = [0u8; PREFIX];
    r.read_exact(&mut prefix)?;
    let len = checked_len(prefix)?;
    let mut payload = Vec::new();
    while payload.len() < len {
        let got = payload.len();
        payload.resize(got + (len - got).min(READ_BUF.max(got)), 0);
        r.read_exact(&mut payload[got..])?;
    }
    Ok(payload)
}

/// Reads frames through one buffer: each [`FrameReader::fill`] is a single
/// `read` into all the room the buffer has, after which
/// [`FrameReader::next_frame`] yields every complete frame the buffer holds.
/// A frame split across reads — inside its payload or inside its length
/// prefix — is completed by later fills.
pub struct FrameReader<R> {
    inner: R,
    /// `buf[start..end]` holds received bytes not yet yielded as frames.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a byte stream positioned at a frame boundary.
    pub fn new(inner: R) -> Self {
        FrameReader {
            inner,
            buf: vec![0; READ_BUF],
            start: 0,
            end: 0,
        }
    }

    /// Receives more bytes with one `read`. End of stream is an error
    /// (`UnexpectedEof`): a connection only ever ends by failing.
    pub fn fill(&mut self) -> io::Result<()> {
        // Move the unread tail (less than one frame once `next_frame` has
        // returned `None`) to the front, so the space behind it is one run.
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        // Full of one incomplete frame: it is larger than the buffer, which
        // doubles — as much again as the frame has delivered so far.
        if self.end == self.buf.len() {
            self.buf.resize(2 * self.end, 0);
        }
        let n = loop {
            match self.inner.read(&mut self.buf[self.end..]) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                other => break other?,
            }
        };
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        self.end += n;
        Ok(())
    }

    /// The next complete frame's payload already received, `None` when the
    /// buffer holds only part of one (call [`FrameReader::fill`]), or an
    /// error for a length prefix over [`MAX_FRAME`].
    pub fn next_frame(&mut self) -> io::Result<Option<&[u8]>> {
        let unread = &self.buf[self.start..self.end];
        let Some(prefix) = unread.first_chunk::<PREFIX>() else {
            return Ok(None);
        };
        let len = checked_len(*prefix)?;
        if unread.len() < PREFIX + len {
            return Ok(None);
        }
        let payload = self.start + PREFIX..self.start + PREFIX + len;
        self.start = payload.end;
        Ok(Some(&self.buf[payload]))
    }
}

/// Encodes a message into a frame payload.
pub fn encode_msg(msg: &NetMsg) -> io::Result<Vec<u8>> {
    let mut buf = BytesMut::new();
    encode_net_msg(msg, &mut buf)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    Ok(buf.into())
}

/// Appends `msg` to `buf` as one whole frame: the prefix is reserved, the
/// message encoded behind it, and the length patched in place, so a buffer
/// of many frames is ready to leave in one write. On error `buf` is left as
/// it was.
pub fn encode_frame(msg: &NetMsg, buf: &mut BytesMut) -> io::Result<()> {
    let at = buf.len();
    buf.put_u32_le(0);
    if let Err(e) = encode_net_msg(msg, buf) {
        buf.truncate(at);
        return Err(io::Error::new(io::ErrorKind::InvalidInput, e.to_string()));
    }
    let len = (buf.len() - at - PREFIX) as u32;
    buf[at..at + PREFIX].copy_from_slice(&len.to_le_bytes());
    Ok(())
}

/// Decodes a frame payload into a message.
pub fn decode_msg(payload: Vec<u8>) -> io::Result<NetMsg> {
    decode_bytes(Bytes::from(payload))
}

/// Decodes a frame payload borrowed from a read buffer. The one copy into
/// refcounted storage is the same one [`decode_msg`] makes: request payloads
/// inside the message are slices of it.
pub fn decode_frame(payload: &[u8]) -> io::Result<NetMsg> {
    decode_bytes(Bytes::copy_from_slice(payload))
}

fn decode_bytes(mut buf: Bytes) -> io::Result<NetMsg> {
    let msg = decode_net_msg(&mut buf)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    if buf.remaining() != 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "trailing bytes after message",
        ));
    }
    Ok(msg)
}

/// Encodes a hello payload announcing `addr`. Fails for a stage address:
/// stages are simulator-only.
pub fn encode_hello(addr: Addr) -> io::Result<Vec<u8>> {
    let mut buf = BytesMut::new();
    match addr {
        Addr::Node(n) => {
            buf.put_u8(ADDR_NODE);
            buf.put_u32_le(n.0);
        }
        Addr::Client(c) => {
            buf.put_u8(ADDR_CLIENT);
            buf.put_u32_le(c.0);
        }
        Addr::Stage { .. } => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "stage addresses are simulator-only and have no hello",
            ))
        }
    }
    Ok(buf.to_vec())
}

/// Decodes a hello payload: a node or a client. Any other claim, a stage
/// address included, is an error, and the acceptor drops the connection.
pub fn decode_hello(payload: &[u8]) -> io::Result<Addr> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let mut buf = Bytes::copy_from_slice(payload);
    if buf.remaining() < 5 {
        return Err(bad("truncated hello"));
    }
    match buf.get_u8() {
        ADDR_NODE => Ok(Addr::Node(NodeId(buf.get_u32_le()))),
        ADDR_CLIENT => Ok(Addr::Client(ClientId(buf.get_u32_le()))),
        _ => Err(bad("invalid hello tag")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iss_messages::{ClientMsg, RaftMsg, SbMsg};
    use iss_types::{InstanceId, Request, RequestId};

    fn response(k: u64) -> NetMsg {
        NetMsg::Client(ClientMsg::Response {
            request: RequestId::new(ClientId(1), k),
            seq_nr: k,
        })
    }

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, &[7u8; 300]).unwrap();
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap(), vec![7u8; 300]);
        assert!(read_frame(&mut r).is_err(), "stream exhausted");
    }

    /// Accepts at most `limit` bytes per call and counts the calls.
    struct Trickle {
        limit: usize,
        calls: usize,
        wire: Vec<u8>,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let all: Vec<u8> = bufs.iter().flat_map(|b| b.iter().copied()).collect();
            let n = all.len().min(self.limit);
            self.wire.extend_from_slice(&all[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_is_one_write_and_survives_short_writes() {
        let payload = [9u8; 10];
        let mut expected = 10u32.to_le_bytes().to_vec();
        expected.extend_from_slice(&payload);
        // A cut inside the prefix, at its end, inside the payload, nowhere.
        for limit in [1, 3, 4, 5, 13, usize::MAX] {
            let mut w = Trickle {
                limit,
                calls: 0,
                wire: Vec::new(),
            };
            write_frame(&mut w, &payload).unwrap();
            assert_eq!(w.wire, expected, "limit {limit}");
            if limit >= expected.len() {
                assert_eq!(w.calls, 1, "prefix and payload must leave together");
            }
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(read_frame(&mut &wire[..]).is_err());
        let mut frames = FrameReader::new(&wire[..]);
        frames.fill().unwrap();
        assert!(frames.next_frame().is_err());
    }

    /// Serves `wire` and then end-of-stream, recording the largest buffer it
    /// was ever asked to fill.
    struct CountingRead<'a> {
        wire: &'a [u8],
        largest_ask: usize,
    }

    impl Read for CountingRead<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.largest_ask = self.largest_ask.max(buf.len());
            self.wire.read(buf)
        }
    }

    #[test]
    fn a_claimed_length_commits_no_memory_before_its_bytes_arrive() {
        // The largest acceptable claim, some payload bytes, end of stream:
        // no read may ask for more than has already arrived (or `READ_BUF`).
        for received in [100, 5 * READ_BUF + 1] {
            let mut wire = (MAX_FRAME as u32).to_le_bytes().to_vec();
            wire.resize(PREFIX + received, 5);
            let allowed = wire.len().max(READ_BUF);
            let counting = |wire| CountingRead {
                wire,
                largest_ask: 0,
            };

            let mut r = counting(&wire);
            assert!(read_frame(&mut r).is_err());
            assert!(
                r.largest_ask <= allowed,
                "read_frame asked for {} bytes at once, {received} received",
                r.largest_ask
            );

            let mut frames = FrameReader::new(counting(&wire));
            let err = loop {
                assert!(matches!(frames.next_frame(), Ok(None)));
                if let Err(e) = frames.fill() {
                    break e;
                }
            };
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
            assert!(frames.buf.len() <= 2 * allowed);
            assert!(
                frames.inner.largest_ask <= allowed,
                "FrameReader asked for {} bytes at once, {received} received",
                frames.inner.largest_ask
            );
        }
    }

    #[test]
    fn frame_reader_grows_for_a_frame_larger_than_its_buffer() {
        let big: Vec<u8> = (0..3 * READ_BUF + 17).map(|i| i as u8).collect();
        let mut wire = Vec::new();
        write_frame(&mut wire, b"before").unwrap();
        write_frame(&mut wire, &big).unwrap();
        write_frame(&mut wire, b"after").unwrap();
        let mut frames = FrameReader::new(&wire[..]);
        let mut seen = Vec::new();
        while seen.len() < 3 {
            match frames.next_frame().unwrap() {
                Some(payload) => seen.push(payload.to_vec()),
                None => frames.fill().unwrap(),
            }
        }
        assert_eq!(seen, [b"before".to_vec(), big, b"after".to_vec()]);
        assert!(frames.next_frame().unwrap().is_none());
        assert!(frames.fill().is_err(), "stream exhausted");
    }

    #[test]
    fn hello_roundtrips_for_every_addr_kind() {
        for addr in [Addr::Node(NodeId(3)), Addr::Client(ClientId(17))] {
            assert_eq!(decode_hello(&encode_hello(addr).unwrap()).unwrap(), addr);
        }
        // Stage addresses are simulator-only: there is no hello to send for
        // one, and a claim of one (tag 2, node 1, role 0, index 2) is
        // refused.
        let stage = Addr::Stage {
            node: NodeId(1),
            role: iss_runtime::StageRole::Batcher,
            index: 2,
        };
        assert!(encode_hello(stage).is_err());
        assert!(decode_hello(&[2, 1, 0, 0, 0, 0, 2, 0, 0, 0]).is_err());
        assert!(decode_hello(&[9, 0, 0, 0, 0]).is_err());
        assert!(decode_hello(&[0, 1]).is_err());
    }

    #[test]
    fn messages_roundtrip_through_frame_payloads() {
        let msg = response(4);
        let payload = encode_msg(&msg).unwrap();
        assert_eq!(decode_frame(&payload).unwrap(), msg);
        assert_eq!(decode_msg(payload).unwrap(), msg);
        let req = NetMsg::Client(ClientMsg::Request(Request::new(
            ClientId(1),
            5,
            vec![1u8; 32],
        )));
        let mut wire = Vec::new();
        write_frame(&mut wire, &encode_msg(&req).unwrap()).unwrap();
        let decoded = decode_msg(read_frame(&mut &wire[..]).unwrap()).unwrap();
        assert_eq!(decoded, req);
    }

    #[test]
    fn encode_frame_appends_the_bytes_write_frame_would_write() {
        let mut wire = Vec::new();
        let mut buf = BytesMut::new();
        for k in 0..3 {
            write_frame(&mut wire, &encode_msg(&response(k)).unwrap()).unwrap();
            encode_frame(&response(k), &mut buf).unwrap();
        }
        assert_eq!(&buf[..], &wire[..]);

        // A simulator-only message fails part-way through; the frames
        // already buffered must come out untouched.
        let unencodable = NetMsg::Sb {
            instance: InstanceId::new(0, 0),
            msg: SbMsg::Raft(RaftMsg::AppendResponse {
                term: 0,
                success: true,
                match_index: 0,
            }),
        };
        assert!(encode_frame(&unencodable, &mut buf).is_err());
        assert_eq!(&buf[..], &wire[..]);
    }
}
