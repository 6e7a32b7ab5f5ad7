//! The bytes of the socket frames and of the WAL, pinned.
//!
//! Every frame the TCP engine sends carries one `NetMsg` encoded by
//! `iss_messages::wire`, and every WAL record is written by
//! `iss_storage::record` with the same request encoders. A replica reads
//! bytes that an older build wrote (its WAL across an upgrade, a peer not
//! yet upgraded), so these bytes must never move by accident. Each case
//! below holds the hex of one message as the format stands; a change that
//! alters any of them fails here, and must be a deliberate format change.

use bytes::{Bytes, BytesMut};
use iss_messages::isscp::LogEntry;
use iss_messages::wire::{decode_net_msg, encode_net_msg};
use iss_messages::{ClientMsg, IssMsg, NetMsg, PbftMsg, SbMsg};
use iss_storage::record::WalRecord;
use iss_types::{Batch, ClientId, InstanceId, NodeId, Request};

/// `(case, hex of its encoding)`, recorded before HotStuff, Raft, the
/// reference protocol and Mir joined the wire format.
const PINNED: [(&str, &str); 6] = [
    (
        "signed client request",
        concat!(
            "0000070000002a000000000000000b0000000b00000070696e207061796c6f61",
            "6440000000000102030405060708090a0b0c0d0e0f101112131415161718191a",
            "1b1c1d1e1f202122232425262728292a2b2c2d2e2f303132333435363738393a",
            "3b3c3d3e3f",
        ),
    ),
    (
        "pre-prepare of a 2-request batch",
        concat!(
            "0102000000000000000100000000000000000000000082000000000000000102",
            "000000070000002a000000000000000b0000000b00000070696e207061796c6f",
            "616440000000000102030405060708090a0b0c0d0e0f10111213141516171819",
            "1a1b1c1d1e1f202122232425262728292a2b2c2d2e2f30313233343536373839",
            "3a3b3c3d3e3f080000000300000000000000f40100000000000000000000d1d1",
            "d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1",
        ),
    ),
    (
        "commit",
        concat!(
            "010200000000000000010000000201000000000000008200000000000000c0c0",
            "c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0",
        ),
    ),
    (
        "checkpoint",
        concat!(
            "03000200000000000000ff00000000000000abababababababababababababab",
            "abababababababababababababababababab080000005151515151515151",
        ),
    ),
    (
        "state response",
        concat!(
            "030201000000000000005e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e5e",
            "5e5e5e5e5e5e5e5e5e5e02000000800000000000000001010000000700000029",
            "000000000000000b0000000b00000070696e207061796c6f6164400000000001",
            "02030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f2021",
            "22232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f8100",
            "0000000000000003000000080000000101010101010101080000000202020202",
            "020202080000000303030303030303",
        ),
    ),
    (
        "WAL committed record",
        concat!(
            "010100000082000000000000000102000000070000002a000000000000000b00",
            "00000b00000070696e207061796c6f616440000000000102030405060708090a",
            "0b0c0d0e0f101112131415161718191a1b1c1d1e1f202122232425262728292a",
            "2b2c2d2e2f303132333435363738393a3b3c3d3e3f0800000003000000000000",
            "00f40100000000000000000000",
        ),
    ),
];

fn signed_request(timestamp: u64) -> Request {
    Request::new(ClientId(7), timestamp, b"pin payload".to_vec())
        .with_signature((0..64).collect::<Vec<u8>>())
}

/// A signed request and a synthetic one, which declares a payload it does
/// not carry.
fn two_requests() -> Batch {
    Batch::new(vec![
        signed_request(42),
        Request::synthetic(ClientId(8), 3, 500),
    ])
}

fn sb(msg: PbftMsg) -> NetMsg {
    NetMsg::Sb {
        instance: InstanceId::new(2, 1),
        msg: SbMsg::Pbft(msg),
    }
}

fn signature(byte: u8) -> Bytes {
    Bytes::from(vec![byte; 8])
}

fn messages() -> Vec<NetMsg> {
    vec![
        NetMsg::Client(ClientMsg::Request(signed_request(42))),
        sb(PbftMsg::PrePrepare {
            view: 0,
            seq_nr: 130,
            batch: Some(two_requests()),
            digest: [0xD1; 32],
        }),
        sb(PbftMsg::Commit {
            view: 1,
            seq_nr: 130,
            digest: [0xC0; 32],
        }),
        NetMsg::Iss(IssMsg::Checkpoint {
            epoch: 2,
            max_seq_nr: 255,
            root: [0xAB; 32],
            signature: signature(0x51),
        }),
        NetMsg::Iss(IssMsg::StateResponse {
            epoch: 1,
            entries: vec![
                LogEntry {
                    seq_nr: 128,
                    batch: Some(Batch::new(vec![signed_request(41)])),
                },
                LogEntry {
                    seq_nr: 129,
                    batch: None,
                },
            ],
            root: [0x5E; 32],
            proof: (1..=3).map(signature).collect(),
        }),
    ]
}

fn wal_record() -> WalRecord {
    WalRecord::Committed {
        seq_nr: 130,
        leader: NodeId(1),
        batch: Some(two_requests()),
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn client_pbft_iss_frames_and_wal_records_keep_their_bytes() {
    let mut encoded: Vec<Vec<u8>> = messages()
        .iter()
        .map(|msg| {
            let mut buf = BytesMut::new();
            encode_net_msg(msg, &mut buf);
            buf.to_vec()
        })
        .collect();
    encoded.push(wal_record().encode());
    let actual: Vec<(&str, String)> = PINNED
        .iter()
        .zip(&encoded)
        .map(|((case, _), bytes)| (*case, hex(bytes)))
        .collect();
    let pinned: Vec<(&str, String)> = PINNED
        .iter()
        .map(|(case, hex)| (*case, hex.to_string()))
        .collect();
    assert_eq!(actual, pinned, "encodings moved");

    // The pinned bytes decode back to the messages they were made from.
    for (msg, bytes) in messages().into_iter().zip(&encoded) {
        assert_eq!(
            decode_net_msg(&mut Bytes::from(bytes.clone())).ok(),
            Some(msg)
        );
    }
    let record = Bytes::from(encoded.pop().expect("the WAL record"));
    assert_eq!(WalRecord::decode(&record).ok(), Some(wal_record()));
}
