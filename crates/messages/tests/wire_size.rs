//! The simulator's size of a message is what the socket carries.
//!
//! The simulator charges bandwidth and per-byte CPU with
//! `NetMsg::wire_size()`; the TCP engine sends what
//! `wire::encode_net_msg` writes. This test builds every variant of every
//! message enum and checks that the two agree, and that each variant
//! decodes back to itself.
//!
//! Each message is built twice: with **real** requests (signed, 500 payload
//! bytes, as a TCP client sends them) and with **synthetic** ones (unsigned,
//! declaring a 500-byte `payload_size` but carrying no payload, as the
//! simulated client sends them). The codec writes only the bytes present,
//! so a synthetic request's declared payload is the one estimate
//! `wire_size()` adds to the encoded length.

use bytes::{Bytes, BytesMut};
use iss_crypto::{request_digest, KeyPair, ThresholdScheme};
use iss_messages::hotstuff::{HsBlock, QuorumCert};
use iss_messages::isscp::LogEntry;
use iss_messages::pbft::PreparedProof;
use iss_messages::raft::RaftEntry;
use iss_messages::wire::{decode_net_msg, encode_net_msg};
use iss_messages::{
    ClientMsg, HotStuffMsg, IssMsg, MirMsg, NetMsg, PbftMsg, RaftMsg, RefSbMsg, SbMsg,
};
use iss_types::{Batch, BucketId, ClientId, InstanceId, NodeId, Payload, Request, RequestId};

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
fn batch(real: bool) -> Batch {
    Batch::new((0..4).map(|t| request(t, real)).collect())
}

fn signature(node: u32) -> Bytes {
    Bytes::from(KeyPair::for_node(NodeId(node)).sign(b"wire size").to_vec())
}

/// A quorum certificate of 2f + 1 = 3 of 4 nodes.
fn qc() -> QuorumCert {
    let scheme = ThresholdScheme::new(4, 3, b"wire size").expect("valid scheme");
    let shares: Vec<_> = (0..3)
        .map(|i| scheme.sign_share(NodeId(i), b"block"))
        .collect();
    QuorumCert {
        view: 4,
        block: [5; 32],
        signature: Some(scheme.aggregate(&shares, b"block").expect("a quorum")),
    }
}

/// Every variant of every message enum, with the number of requests it
/// carries.
fn messages(real: bool) -> Vec<(&'static str, usize, NetMsg)> {
    let sb = |msg| NetMsg::Sb {
        instance: InstanceId::new(3, 1),
        msg,
    };
    let pbft = |msg| sb(SbMsg::Pbft(msg));
    let hotstuff = |msg| sb(SbMsg::HotStuff(msg));
    let raft = |msg| sb(SbMsg::Raft(msg));
    let reference = |msg| sb(SbMsg::Reference(msg));
    let (view, seq_nr, digest) = (0, 17, [7; 32]);
    let certificate: Vec<Bytes> = (0..3).map(signature).collect();
    let prepared = |seq_nr, batch: Option<Batch>| PreparedProof {
        seq_nr,
        view,
        digest,
        batch,
    };
    let entry = |seq_nr, batch| LogEntry { seq_nr, batch };
    let raft_entry = |seq_nr, batch| RaftEntry {
        term: 2,
        seq_nr,
        batch,
    };
    let leaders = (0..16).map(|b| (BucketId(b), NodeId(b % 4))).collect();
    let share = ThresholdScheme::new(4, 3, b"wire size")
        .expect("valid scheme")
        .sign_share(NodeId(1), b"block");
    vec![
        (
            "Client::Request",
            1,
            NetMsg::Client(ClientMsg::Request(request(9, real))),
        ),
        (
            "Client::Response",
            0,
            NetMsg::Client(ClientMsg::Response {
                request: RequestId::new(ClientId(1), 9),
                seq_nr,
            }),
        ),
        (
            "Client::BucketLeaders",
            0,
            NetMsg::Client(ClientMsg::BucketLeaders { epoch: 3, leaders }),
        ),
        (
            "Pbft::PrePrepare",
            4,
            pbft(PbftMsg::PrePrepare {
                view,
                seq_nr,
                batch: Some(batch(real)),
                digest,
            }),
        ),
        (
            "Pbft::Prepare",
            0,
            pbft(PbftMsg::Prepare {
                view,
                seq_nr,
                digest,
            }),
        ),
        (
            "Pbft::Commit",
            0,
            pbft(PbftMsg::Commit {
                view,
                seq_nr,
                digest,
            }),
        ),
        (
            "Pbft::ViewChange",
            4,
            pbft(PbftMsg::ViewChange {
                new_view: 1,
                prepared: vec![prepared(17, Some(batch(real))), prepared(18, None)],
                signature: signature(1),
            }),
        ),
        (
            "Pbft::NewView",
            0,
            pbft(PbftMsg::NewView {
                view: 1,
                re_proposals: vec![(17, digest), (18, [0; 32])],
                certificate: certificate.clone(),
            }),
        ),
        (
            "HotStuff::Proposal",
            4,
            hotstuff(HotStuffMsg::Proposal {
                block: HsBlock {
                    view: 5,
                    seq_nr: Some(seq_nr),
                    batch: Some(batch(real)),
                    justify: qc(),
                },
            }),
        ),
        (
            "HotStuff::Vote",
            0,
            hotstuff(HotStuffMsg::Vote {
                view: 5,
                block: digest,
                share,
            }),
        ),
        (
            "HotStuff::NewView",
            0,
            hotstuff(HotStuffMsg::NewView {
                view: 6,
                high_qc: qc(),
            }),
        ),
        (
            "Raft::AppendEntries",
            4,
            raft(RaftMsg::AppendEntries {
                term: 2,
                prev_index: 0,
                prev_term: 1,
                entries: vec![raft_entry(17, Some(batch(real))), raft_entry(18, None)],
                leader_commit: 0,
            }),
        ),
        (
            "Raft::AppendResponse",
            0,
            raft(RaftMsg::AppendResponse {
                term: 2,
                success: true,
                match_index: 2,
            }),
        ),
        (
            "Raft::RequestVote",
            0,
            raft(RaftMsg::RequestVote {
                term: 3,
                last_log_index: 2,
                last_log_term: 2,
            }),
        ),
        (
            "Raft::VoteResponse",
            0,
            raft(RaftMsg::VoteResponse {
                term: 3,
                granted: true,
            }),
        ),
        (
            "Reference::BrbSend",
            4,
            reference(RefSbMsg::BrbSend {
                seq_nr,
                batch: batch(real),
            }),
        ),
        (
            "Reference::BrbEcho",
            0,
            reference(RefSbMsg::BrbEcho { seq_nr, digest }),
        ),
        (
            "Reference::BrbReady",
            0,
            reference(RefSbMsg::BrbReady { seq_nr, digest }),
        ),
        (
            "Reference::Vote",
            0,
            reference(RefSbMsg::Vote {
                seq_nr,
                value: Some(digest),
            }),
        ),
        (
            "Reference::Decide",
            0,
            reference(RefSbMsg::Decide {
                seq_nr,
                value: None,
            }),
        ),
        ("Reference::Heartbeat", 0, reference(RefSbMsg::Heartbeat)),
        (
            "Iss::Checkpoint",
            0,
            NetMsg::Iss(IssMsg::Checkpoint {
                epoch: 3,
                max_seq_nr: 255,
                root: digest,
                signature: signature(0),
            }),
        ),
        (
            "Iss::StateResponse",
            4,
            NetMsg::Iss(IssMsg::StateResponse {
                epoch: 3,
                entries: vec![entry(17, Some(batch(real))), entry(18, None)],
                root: digest,
                proof: certificate,
            }),
        ),
        (
            "Iss::SnapshotRequest",
            0,
            NetMsg::Iss(IssMsg::SnapshotRequest { from_seq_nr: 0 }),
        ),
        (
            "Iss::SnapshotChunk",
            0,
            NetMsg::Iss(IssMsg::SnapshotChunk {
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
            }),
        ),
        (
            "Mir::NewEpoch",
            0,
            NetMsg::Mir(MirMsg::NewEpoch {
                epoch: 4,
                config_digest: digest,
            }),
        ),
    ]
}

#[test]
fn every_variant_roundtrips_and_costs_its_encoded_length() {
    for real in [true, false] {
        let absent_per_request = if real { 0 } else { PAYLOAD as usize };
        for (name, requests, msg) in messages(real) {
            let mut buf = BytesMut::new();
            encode_net_msg(&msg, &mut buf);
            let encoded = buf.len();
            let decoded = decode_net_msg(&mut buf.freeze());
            assert_eq!(decoded.as_ref(), Ok(&msg), "{name} (real requests: {real})");
            assert_eq!(
                msg.wire_size(),
                encoded + requests * absent_per_request,
                "{name} (real requests: {real})"
            );
        }
    }
}
