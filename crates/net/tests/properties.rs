//! Property tests of the framing layer: frames are a property of the byte
//! stream, not of the reads that deliver it.

use bytes::BytesMut;
use iss_messages::{ClientMsg, NetMsg};
use iss_net::frame::{decode_frame, encode_frame, FrameReader, READ_BUF};
use iss_types::{ClientId, Request, RequestId};
use proptest::prelude::*;
use std::io::{self, Read};

/// Serves `wire` in reads of the given sizes (cycled), then end of stream.
struct Rechunked<'a> {
    wire: &'a [u8],
    sizes: &'a [usize],
    reads: usize,
}

impl Read for Rechunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let size = self.sizes[self.reads % self.sizes.len()];
        self.reads += 1;
        let n = size.min(buf.len()).min(self.wire.len());
        buf[..n].copy_from_slice(&self.wire[..n]);
        self.wire = &self.wire[n..];
        Ok(n)
    }
}

/// Message `k` of a stream: a response, or a request of `payload` bytes.
fn message(k: u64, payload: Option<usize>) -> NetMsg {
    NetMsg::Client(match payload {
        None => ClientMsg::Response {
            request: RequestId::new(ClientId(3), k),
            seq_nr: k,
        },
        Some(len) => ClientMsg::Request(Request::new(ClientId(3), k, vec![k as u8; len])),
    })
}

/// Everything a [`FrameReader`] yields from `wire` delivered in `sizes`.
fn read_all(wire: &[u8], sizes: &[usize]) -> Vec<NetMsg> {
    let mut frames = FrameReader::new(Rechunked {
        wire,
        sizes,
        reads: 0,
    });
    let mut msgs = Vec::new();
    loop {
        while let Some(payload) = frames.next_frame().expect("well-formed stream") {
            msgs.push(decode_frame(payload).expect("decodable frame"));
        }
        if frames.fill().is_err() {
            return msgs;
        }
    }
}

fn concatenated(msgs: &[NetMsg]) -> BytesMut {
    let mut wire = BytesMut::new();
    for msg in msgs {
        encode_frame(msg, &mut wire);
    }
    wire
}

proptest! {
    #[test]
    fn prop_any_rechunking_yields_the_same_messages_in_order(
        payloads in proptest::collection::vec(proptest::option::of(0usize..3 * READ_BUF), 0..24),
        draws in proptest::collection::vec((0u8..3, 1usize..2 * READ_BUF), 1..12),
        head in 1usize..4,
    ) {
        // A third of the reads a few bytes, a third under a kilobyte, a
        // third up to twice the reader's buffer.
        let sizes: Vec<usize> = draws
            .iter()
            .map(|&(scale, size)| match scale {
                0 => 1 + size % 7,
                1 => 1 + size % 1000,
                _ => size,
            })
            .collect();
        let msgs: Vec<NetMsg> = payloads
            .iter()
            .enumerate()
            .map(|(k, payload)| message(k as u64, *payload))
            .collect();
        let wire = concatenated(&msgs);
        prop_assert_eq!(&read_all(&wire, &sizes), &msgs);
        // The first read ends inside the first length prefix.
        let mut split_prefix = vec![head];
        split_prefix.extend_from_slice(&sizes);
        prop_assert_eq!(&read_all(&wire, &split_prefix), &msgs);
    }
}

#[test]
fn one_byte_reads_yield_the_same_messages_in_order() {
    let msgs: Vec<NetMsg> = [None, Some(0), Some(700), None, Some(READ_BUF + 5), None]
        .into_iter()
        .enumerate()
        .map(|(k, payload)| message(k as u64, payload))
        .collect();
    assert_eq!(read_all(&concatenated(&msgs), &[1]), msgs);
}
