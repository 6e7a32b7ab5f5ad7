//! The simulator's size model against the codec's.
//!
//! The simulator charges bandwidth and per-byte CPU with
//! `NetMsg::wire_size()`; the TCP engine sends what
//! `wire::encode_net_msg` writes. This test builds every variant the codec
//! encodes (3 client, 5 PBFT and 5 ISS messages) and commits, per variant,
//! `wire_size() - encoded length`: positive means the simulator charges for
//! bytes that never reach the socket.
//!
//! Each message is built twice: with **real** requests (signed, 500 payload
//! bytes, as a TCP client sends them) and with **synthetic** ones (unsigned,
//! declaring a 500-byte `payload_size` but carrying no payload, as the
//! simulated client sends them). The codec writes only the bytes present,
//! so a synthetic request's declared payload is added to the encoded length.
//!
//! The shapes are fixed, so the table is exact: a change to either size
//! model changes a row and fails the test.

use bytes::{Bytes, BytesMut};
use iss_crypto::{request_digest, KeyPair};
use iss_messages::isscp::LogEntry;
use iss_messages::pbft::PreparedProof;
use iss_messages::wire::encode_net_msg;
use iss_messages::{ClientMsg, IssMsg, NetMsg, PbftMsg, SbMsg};
use iss_types::{Batch, BucketId, ClientId, InstanceId, NodeId, Payload, Request, RequestId};

/// `(variant, divergence with real requests, with synthetic requests)`, in
/// bytes. The columns agree because both models count the declared payload
/// and the signature a request carries. The rows show the model itself:
/// * a message without requests is charged 22 bytes too many, less its
///   length prefixes: `HEADER_WIRE` charges 24 bytes for the codec's two tag
///   bytes;
/// * each request in a batch is charged 12 bytes too few: `Request::wire_size`
///   counts a 12-byte id, the codec writes 24 bytes of id and lengths;
/// * a client request is charged 74 bytes too many: `SIG_WIRE` is added on
///   top of the request's own signature, even when it has none.
const EXPECTED: [(&str, i64, i64); 13] = [
    ("Client::Request", 74, 74),
    ("Client::Response", 22, 22),
    ("Client::BucketLeaders", 18, 18),
    ("Pbft::PrePrepare", -23, -23),
    ("Pbft::Prepare", 22, 22),
    ("Pbft::Commit", 22, 22),
    ("Pbft::ViewChange", -39, -39),
    ("Pbft::NewView", -6, -6),
    ("Iss::Checkpoint", 18, 18),
    ("Iss::StateRequest", 22, 22),
    ("Iss::StateResponse", -49, -49),
    ("Iss::SnapshotRequest", 22, 22),
    ("Iss::SnapshotChunk", -2, -2),
];

const PAYLOAD: u32 = 500;

fn request(timestamp: u64, real: bool) -> Request {
    let client = ClientId(1);
    if !real {
        return Request::synthetic(client, timestamp, PAYLOAD);
    }
    let req = Request::new(client, timestamp, vec![0xA5; PAYLOAD as usize]);
    let signature = KeyPair::for_client(client).sign(&request_digest(&req));
    req.with_signature(signature.to_vec())
}

/// A batch of 4 requests.
fn batch(real: bool) -> Option<Batch> {
    Some(Batch::new((0..4).map(|t| request(t, real)).collect()))
}

fn signature(node: u32) -> Bytes {
    Bytes::from(KeyPair::for_node(NodeId(node)).sign(b"wire size").to_vec())
}

/// Every variant the codec encodes, in [`EXPECTED`] order, with the number
/// of requests it carries.
fn messages(real: bool) -> Vec<(&'static str, usize, NetMsg)> {
    let sb = |msg| NetMsg::Sb {
        instance: InstanceId::new(3, 1),
        msg: SbMsg::Pbft(msg),
    };
    let (view, seq_nr, digest) = (0, 17, [7; 32]);
    let certificate: Vec<Bytes> = (0..3).map(signature).collect();
    let prepared = |seq_nr, batch: Option<Batch>| PreparedProof {
        seq_nr,
        view,
        digest,
        batch,
    };
    let entry = |seq_nr, batch| LogEntry { seq_nr, batch };
    let leaders = (0..16).map(|b| (BucketId(b), NodeId(b % 4))).collect();
    let response = ClientMsg::Response {
        request: RequestId::new(ClientId(1), 9),
        seq_nr,
    };
    let pre_prepare = PbftMsg::PrePrepare {
        view,
        seq_nr,
        batch: batch(real),
        digest,
    };
    let prepare = PbftMsg::Prepare {
        view,
        seq_nr,
        digest,
    };
    let commit = PbftMsg::Commit {
        view,
        seq_nr,
        digest,
    };
    let view_change = PbftMsg::ViewChange {
        new_view: 1,
        prepared: vec![prepared(17, batch(real)), prepared(18, None)],
        signature: signature(1),
    };
    let new_view = PbftMsg::NewView {
        view: 1,
        re_proposals: vec![(17, digest), (18, [0; 32])],
        certificate: certificate.clone(),
    };
    let checkpoint = IssMsg::Checkpoint {
        epoch: 3,
        max_seq_nr: 255,
        root: digest,
        signature: signature(0),
    };
    let state_request = IssMsg::StateRequest {
        from_seq_nr: 0,
        to_seq_nr: 256,
    };
    let state_response = IssMsg::StateResponse {
        epoch: 3,
        entries: vec![entry(17, batch(real)), entry(18, None)],
        root: digest,
        proof: certificate,
    };
    let chunk = IssMsg::SnapshotChunk {
        epoch: 3,
        max_seq_nr: 255,
        root: digest,
        proof: (0..3).map(|n| (NodeId(n), signature(n))).collect(),
        total_delivered: 1024,
        policy: Bytes::from(vec![1u8; 40]),
        offset: 0,
        total_len: 256,
        data: Bytes::from(vec![2u8; 256]),
        done: true,
    };
    let client = NetMsg::Client;
    let iss = NetMsg::Iss;
    vec![
        (
            "Client::Request",
            1,
            client(ClientMsg::Request(request(9, real))),
        ),
        ("Client::Response", 0, client(response)),
        (
            "Client::BucketLeaders",
            0,
            client(ClientMsg::BucketLeaders { epoch: 3, leaders }),
        ),
        ("Pbft::PrePrepare", 4, sb(pre_prepare)),
        ("Pbft::Prepare", 0, sb(prepare)),
        ("Pbft::Commit", 0, sb(commit)),
        ("Pbft::ViewChange", 4, sb(view_change)),
        ("Pbft::NewView", 0, sb(new_view)),
        ("Iss::Checkpoint", 0, iss(checkpoint)),
        ("Iss::StateRequest", 0, iss(state_request)),
        ("Iss::StateResponse", 4, iss(state_response)),
        (
            "Iss::SnapshotRequest",
            0,
            iss(IssMsg::SnapshotRequest { from_seq_nr: 0 }),
        ),
        ("Iss::SnapshotChunk", 0, iss(chunk)),
    ]
}

/// `wire_size()` less what the socket carries, per variant.
fn divergence(real: bool) -> Vec<(&'static str, i64)> {
    let absent_per_request = if real { 0 } else { PAYLOAD as usize };
    messages(real)
        .into_iter()
        .map(|(name, requests, msg)| {
            let mut buf = BytesMut::new();
            encode_net_msg(&msg, &mut buf).expect("the codec encodes every listed variant");
            let sent = buf.len() + requests * absent_per_request;
            (name, msg.wire_size() as i64 - sent as i64)
        })
        .collect()
}

#[test]
fn wire_size_divergence_from_the_codec_is_the_committed_table() {
    let table: Vec<(&str, i64, i64)> = divergence(true)
        .into_iter()
        .zip(divergence(false))
        .map(|((name, real), (_, synthetic))| (name, real, synthetic))
        .collect();
    assert_eq!(table, EXPECTED, "wire_size() - encoded length, per variant");
}
