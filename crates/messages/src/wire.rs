//! Socket wire format for [`NetMsg`].
//!
//! The simulator moves `NetMsg` values between processes as in-memory Rust
//! enums; the threaded TCP runtime (`iss-net`) has to move them between OS
//! processes, so this module gives the subset of `NetMsg` that actually
//! crosses machine boundaries a real binary encoding. It builds on the
//! [`crate::codec`] primitives (requests, batches) and uses the same
//! conventions: little-endian fixed-width integers, `u32` length prefixes,
//! one leading tag byte per enum.
//!
//! # Scope
//!
//! Encoded: `Client(*)`, `Sb { instance, Pbft(*) }` and `Iss(*)` —
//! everything a PBFT-backed ISS deployment (the configuration the TCP
//! backend boots) puts on the wire, including checkpoint snapshots for
//! crash recovery. HotStuff/Raft/Reference
//! ordering messages and the Mir baseline return [`Error::Codec`]: they
//! are simulator-only baselines, so attempting to serialize one is a
//! routing bug worth surfacing loudly.
//!
//! Framing (length prefix on the socket) is the transport's concern; these
//! functions encode and decode one message body.

use crate::client::ClientMsg;
use crate::codec::{decode_batch, decode_request, encode_batch, encode_request};
use crate::isscp::{IssMsg, LogEntry};
use crate::net::{NetMsg, SbMsg};
use crate::pbft::{PbftMsg, PreparedProof};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use iss_types::{Batch, BucketId, Error, InstanceId, NodeId, RequestId, Result};

// Leading tag bytes, one namespace per enum.
const NET_CLIENT: u8 = 0;
const NET_SB: u8 = 1;
const NET_ISS: u8 = 3;

const CLIENT_REQUEST: u8 = 0;
const CLIENT_RESPONSE: u8 = 1;
const CLIENT_BUCKET_LEADERS: u8 = 2;

const PBFT_PRE_PREPARE: u8 = 0;
const PBFT_PREPARE: u8 = 1;
const PBFT_COMMIT: u8 = 2;
const PBFT_VIEW_CHANGE: u8 = 3;
const PBFT_NEW_VIEW: u8 = 4;

const ISS_CHECKPOINT: u8 = 0;
const ISS_STATE_REQUEST: u8 = 1;
const ISS_STATE_RESPONSE: u8 = 2;
const ISS_SNAPSHOT_REQUEST: u8 = 3;
const ISS_SNAPSHOT_CHUNK: u8 = 4;

/// Encodes a message into `buf`.
///
/// Fails with [`Error::Codec`] for the simulator-only variants that have no
/// wire representation (HotStuff/Raft/Reference SB messages, Mir baseline
/// traffic).
pub fn encode_net_msg(msg: &NetMsg, buf: &mut BytesMut) -> Result<()> {
    match msg {
        NetMsg::Client(m) => {
            buf.put_u8(NET_CLIENT);
            encode_client_msg(m, buf);
        }
        NetMsg::Sb { instance, msg } => {
            buf.put_u8(NET_SB);
            buf.put_u64_le(instance.epoch);
            buf.put_u32_le(instance.index);
            encode_sb_msg(msg, buf)?;
        }
        NetMsg::Iss(m) => {
            buf.put_u8(NET_ISS);
            encode_iss_msg(m, buf);
        }
        NetMsg::Mir(_) => {
            return Err(Error::Codec(
                "Mir baseline messages have no socket encoding".into(),
            ))
        }
    }
    Ok(())
}

/// Decodes one message from `buf`.
pub fn decode_net_msg(buf: &mut Bytes) -> Result<NetMsg> {
    let tag = get_u8(buf, "net tag")?;
    match tag {
        NET_CLIENT => Ok(NetMsg::Client(decode_client_msg(buf)?)),
        NET_SB => {
            if buf.remaining() < 12 {
                return Err(Error::Codec("truncated instance id".into()));
            }
            let epoch = buf.get_u64_le();
            let index = buf.get_u32_le();
            Ok(NetMsg::Sb {
                instance: InstanceId::new(epoch, index),
                msg: decode_sb_msg(buf)?,
            })
        }
        NET_ISS => Ok(NetMsg::Iss(decode_iss_msg(buf)?)),
        t => Err(Error::Codec(format!("invalid net message tag {t}"))),
    }
}

fn encode_client_msg(msg: &ClientMsg, buf: &mut BytesMut) {
    match msg {
        ClientMsg::Request(req) => {
            buf.put_u8(CLIENT_REQUEST);
            encode_request(req, buf);
        }
        ClientMsg::Response { request, seq_nr } => {
            buf.put_u8(CLIENT_RESPONSE);
            buf.put_u32_le(request.client.0);
            buf.put_u64_le(request.timestamp);
            buf.put_u64_le(*seq_nr);
        }
        ClientMsg::BucketLeaders { epoch, leaders } => {
            buf.put_u8(CLIENT_BUCKET_LEADERS);
            buf.put_u64_le(*epoch);
            buf.put_u32_le(leaders.len() as u32);
            for (bucket, leader) in leaders {
                buf.put_u32_le(bucket.0);
                buf.put_u32_le(leader.0);
            }
        }
    }
}

fn decode_client_msg(buf: &mut Bytes) -> Result<ClientMsg> {
    let tag = get_u8(buf, "client tag")?;
    match tag {
        CLIENT_REQUEST => Ok(ClientMsg::Request(decode_request(buf)?)),
        CLIENT_RESPONSE => {
            if buf.remaining() < 20 {
                return Err(Error::Codec("truncated response".into()));
            }
            let client = iss_types::ClientId(buf.get_u32_le());
            let timestamp = buf.get_u64_le();
            let seq_nr = buf.get_u64_le();
            Ok(ClientMsg::Response {
                request: RequestId::new(client, timestamp),
                seq_nr,
            })
        }
        CLIENT_BUCKET_LEADERS => {
            if buf.remaining() < 12 {
                return Err(Error::Codec("truncated bucket leaders".into()));
            }
            let epoch = buf.get_u64_le();
            let n = buf.get_u32_le() as usize;
            if buf.remaining() < n * 8 {
                return Err(Error::Codec("truncated bucket leader list".into()));
            }
            let leaders = (0..n)
                .map(|_| (BucketId(buf.get_u32_le()), NodeId(buf.get_u32_le())))
                .collect();
            Ok(ClientMsg::BucketLeaders { epoch, leaders })
        }
        t => Err(Error::Codec(format!("invalid client message tag {t}"))),
    }
}

fn encode_sb_msg(msg: &SbMsg, buf: &mut BytesMut) -> Result<()> {
    match msg {
        SbMsg::Pbft(m) => {
            encode_pbft_msg(m, buf);
            Ok(())
        }
        SbMsg::HotStuff(_) | SbMsg::Raft(_) | SbMsg::Reference(_) => Err(Error::Codec(
            "only PBFT-backed SB instances have a socket encoding".into(),
        )),
    }
}

fn decode_sb_msg(buf: &mut Bytes) -> Result<SbMsg> {
    Ok(SbMsg::Pbft(decode_pbft_msg(buf)?))
}

fn encode_pbft_msg(msg: &PbftMsg, buf: &mut BytesMut) {
    match msg {
        PbftMsg::PrePrepare {
            view,
            seq_nr,
            batch,
            digest,
        } => {
            buf.put_u8(PBFT_PRE_PREPARE);
            buf.put_u64_le(*view);
            buf.put_u64_le(*seq_nr);
            encode_opt_batch(batch, buf);
            buf.put_slice(digest);
        }
        PbftMsg::Prepare {
            view,
            seq_nr,
            digest,
        } => {
            buf.put_u8(PBFT_PREPARE);
            buf.put_u64_le(*view);
            buf.put_u64_le(*seq_nr);
            buf.put_slice(digest);
        }
        PbftMsg::Commit {
            view,
            seq_nr,
            digest,
        } => {
            buf.put_u8(PBFT_COMMIT);
            buf.put_u64_le(*view);
            buf.put_u64_le(*seq_nr);
            buf.put_slice(digest);
        }
        PbftMsg::ViewChange {
            new_view,
            prepared,
            signature,
        } => {
            buf.put_u8(PBFT_VIEW_CHANGE);
            buf.put_u64_le(*new_view);
            buf.put_u32_le(prepared.len() as u32);
            for p in prepared {
                buf.put_u64_le(p.seq_nr);
                buf.put_u64_le(p.view);
                buf.put_slice(&p.digest);
                encode_opt_batch(&p.batch, buf);
            }
            put_bytes(signature, buf);
        }
        PbftMsg::NewView {
            view,
            re_proposals,
            certificate,
        } => {
            buf.put_u8(PBFT_NEW_VIEW);
            buf.put_u64_le(*view);
            buf.put_u32_le(re_proposals.len() as u32);
            for (sn, digest) in re_proposals {
                buf.put_u64_le(*sn);
                buf.put_slice(digest);
            }
            buf.put_u32_le(certificate.len() as u32);
            for sig in certificate {
                put_bytes(sig, buf);
            }
        }
    }
}

fn decode_pbft_msg(buf: &mut Bytes) -> Result<PbftMsg> {
    let tag = get_u8(buf, "pbft tag")?;
    match tag {
        PBFT_PRE_PREPARE => {
            let (view, seq_nr) = get_view_seq(buf)?;
            let batch = decode_opt_batch(buf)?;
            let digest = get_digest(buf)?;
            Ok(PbftMsg::PrePrepare {
                view,
                seq_nr,
                batch,
                digest,
            })
        }
        PBFT_PREPARE => {
            let (view, seq_nr) = get_view_seq(buf)?;
            let digest = get_digest(buf)?;
            Ok(PbftMsg::Prepare {
                view,
                seq_nr,
                digest,
            })
        }
        PBFT_COMMIT => {
            let (view, seq_nr) = get_view_seq(buf)?;
            let digest = get_digest(buf)?;
            Ok(PbftMsg::Commit {
                view,
                seq_nr,
                digest,
            })
        }
        PBFT_VIEW_CHANGE => {
            if buf.remaining() < 12 {
                return Err(Error::Codec("truncated view change".into()));
            }
            let new_view = buf.get_u64_le();
            let n = buf.get_u32_le() as usize;
            let mut prepared = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                if buf.remaining() < 16 {
                    return Err(Error::Codec("truncated prepared proof".into()));
                }
                let seq_nr = buf.get_u64_le();
                let view = buf.get_u64_le();
                let digest = get_digest(buf)?;
                let batch = decode_opt_batch(buf)?;
                prepared.push(PreparedProof {
                    seq_nr,
                    view,
                    digest,
                    batch,
                });
            }
            let signature = get_bytes(buf)?;
            Ok(PbftMsg::ViewChange {
                new_view,
                prepared,
                signature,
            })
        }
        PBFT_NEW_VIEW => {
            if buf.remaining() < 12 {
                return Err(Error::Codec("truncated new view".into()));
            }
            let view = buf.get_u64_le();
            let n = buf.get_u32_le() as usize;
            let mut re_proposals = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                if buf.remaining() < 8 {
                    return Err(Error::Codec("truncated re-proposal".into()));
                }
                let sn = buf.get_u64_le();
                re_proposals.push((sn, get_digest(buf)?));
            }
            if buf.remaining() < 4 {
                return Err(Error::Codec("truncated certificate count".into()));
            }
            let c = buf.get_u32_le() as usize;
            let mut certificate = Vec::with_capacity(c.min(1 << 16));
            for _ in 0..c {
                certificate.push(get_bytes(buf)?);
            }
            Ok(PbftMsg::NewView {
                view,
                re_proposals,
                certificate,
            })
        }
        t => Err(Error::Codec(format!("invalid pbft message tag {t}"))),
    }
}

fn encode_iss_msg(msg: &IssMsg, buf: &mut BytesMut) {
    match msg {
        IssMsg::Checkpoint {
            epoch,
            max_seq_nr,
            root,
            signature,
        } => {
            buf.put_u8(ISS_CHECKPOINT);
            buf.put_u64_le(*epoch);
            buf.put_u64_le(*max_seq_nr);
            buf.put_slice(root);
            put_bytes(signature, buf);
        }
        IssMsg::StateRequest {
            from_seq_nr,
            to_seq_nr,
        } => {
            buf.put_u8(ISS_STATE_REQUEST);
            buf.put_u64_le(*from_seq_nr);
            buf.put_u64_le(*to_seq_nr);
        }
        IssMsg::StateResponse {
            epoch,
            entries,
            root,
            proof,
        } => {
            buf.put_u8(ISS_STATE_RESPONSE);
            buf.put_u64_le(*epoch);
            buf.put_slice(root);
            buf.put_u32_le(entries.len() as u32);
            for e in entries {
                buf.put_u64_le(e.seq_nr);
                encode_opt_batch(&e.batch, buf);
            }
            buf.put_u32_le(proof.len() as u32);
            for sig in proof {
                put_bytes(sig, buf);
            }
        }
        IssMsg::SnapshotRequest { from_seq_nr } => {
            buf.put_u8(ISS_SNAPSHOT_REQUEST);
            buf.put_u64_le(*from_seq_nr);
        }
        IssMsg::SnapshotChunk {
            epoch,
            max_seq_nr,
            root,
            proof,
            total_delivered,
            policy,
            offset,
            total_len,
            data,
            done,
        } => {
            buf.put_u8(ISS_SNAPSHOT_CHUNK);
            buf.put_u64_le(*epoch);
            buf.put_u64_le(*max_seq_nr);
            buf.put_slice(root);
            buf.put_u32_le(proof.len() as u32);
            for (signer, sig) in proof {
                buf.put_u32_le(signer.0);
                put_bytes(sig, buf);
            }
            buf.put_u64_le(*total_delivered);
            put_bytes(policy, buf);
            buf.put_u32_le(*offset);
            buf.put_u32_le(*total_len);
            put_bytes(data, buf);
            buf.put_u8(u8::from(*done));
        }
    }
}

fn decode_iss_msg(buf: &mut Bytes) -> Result<IssMsg> {
    let tag = get_u8(buf, "iss tag")?;
    match tag {
        ISS_CHECKPOINT => {
            if buf.remaining() < 16 {
                return Err(Error::Codec("truncated checkpoint".into()));
            }
            let epoch = buf.get_u64_le();
            let max_seq_nr = buf.get_u64_le();
            let root = get_digest(buf)?;
            let signature = get_bytes(buf)?;
            Ok(IssMsg::Checkpoint {
                epoch,
                max_seq_nr,
                root,
                signature,
            })
        }
        ISS_STATE_REQUEST => {
            if buf.remaining() < 16 {
                return Err(Error::Codec("truncated state request".into()));
            }
            Ok(IssMsg::StateRequest {
                from_seq_nr: buf.get_u64_le(),
                to_seq_nr: buf.get_u64_le(),
            })
        }
        ISS_STATE_RESPONSE => {
            if buf.remaining() < 8 {
                return Err(Error::Codec("truncated state response".into()));
            }
            let epoch = buf.get_u64_le();
            let root = get_digest(buf)?;
            if buf.remaining() < 4 {
                return Err(Error::Codec("truncated entry count".into()));
            }
            let n = buf.get_u32_le() as usize;
            let mut entries = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                if buf.remaining() < 8 {
                    return Err(Error::Codec("truncated log entry".into()));
                }
                let seq_nr = buf.get_u64_le();
                let batch = decode_opt_batch(buf)?;
                entries.push(LogEntry { seq_nr, batch });
            }
            if buf.remaining() < 4 {
                return Err(Error::Codec("truncated proof count".into()));
            }
            let p = buf.get_u32_le() as usize;
            let mut proof = Vec::with_capacity(p.min(1 << 16));
            for _ in 0..p {
                proof.push(get_bytes(buf)?);
            }
            Ok(IssMsg::StateResponse {
                epoch,
                entries,
                root,
                proof,
            })
        }
        ISS_SNAPSHOT_REQUEST => {
            if buf.remaining() < 8 {
                return Err(Error::Codec("truncated snapshot request".into()));
            }
            Ok(IssMsg::SnapshotRequest {
                from_seq_nr: buf.get_u64_le(),
            })
        }
        ISS_SNAPSHOT_CHUNK => {
            if buf.remaining() < 16 {
                return Err(Error::Codec("truncated snapshot chunk".into()));
            }
            let epoch = buf.get_u64_le();
            let max_seq_nr = buf.get_u64_le();
            let root = get_digest(buf)?;
            if buf.remaining() < 4 {
                return Err(Error::Codec("truncated chunk proof count".into()));
            }
            let n = buf.get_u32_le() as usize;
            let mut proof = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                if buf.remaining() < 4 {
                    return Err(Error::Codec("truncated chunk signer".into()));
                }
                let signer = NodeId(buf.get_u32_le());
                proof.push((signer, get_bytes(buf)?));
            }
            if buf.remaining() < 8 {
                return Err(Error::Codec("truncated chunk delivered count".into()));
            }
            let total_delivered = buf.get_u64_le();
            let policy = get_bytes(buf)?;
            if buf.remaining() < 8 {
                return Err(Error::Codec("truncated chunk window".into()));
            }
            let offset = buf.get_u32_le();
            let total_len = buf.get_u32_le();
            let data = get_bytes(buf)?;
            let done = get_u8(buf, "chunk done flag")? != 0;
            Ok(IssMsg::SnapshotChunk {
                epoch,
                max_seq_nr,
                root,
                proof,
                total_delivered,
                policy,
                offset,
                total_len,
                data,
                done,
            })
        }
        t => Err(Error::Codec(format!("invalid iss message tag {t}"))),
    }
}

fn encode_opt_batch(batch: &Option<Batch>, buf: &mut BytesMut) {
    match batch {
        None => buf.put_u8(0),
        Some(b) => {
            buf.put_u8(1);
            encode_batch(b, buf);
        }
    }
}

fn decode_opt_batch(buf: &mut Bytes) -> Result<Option<Batch>> {
    match get_u8(buf, "batch option tag")? {
        0 => Ok(None),
        1 => Ok(Some(decode_batch(buf)?)),
        t => Err(Error::Codec(format!("invalid batch option tag {t}"))),
    }
}

fn put_bytes(b: &Bytes, buf: &mut BytesMut) {
    buf.put_u32_le(b.len() as u32);
    buf.put_slice(b);
}

fn get_bytes(buf: &mut Bytes) -> Result<Bytes> {
    if buf.remaining() < 4 {
        return Err(Error::Codec("truncated byte-string length".into()));
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(Error::Codec("truncated byte string".into()));
    }
    Ok(buf.copy_to_bytes(len))
}

fn get_u8(buf: &mut Bytes, what: &str) -> Result<u8> {
    if buf.remaining() < 1 {
        return Err(Error::Codec(format!("truncated {what}")));
    }
    Ok(buf.get_u8())
}

fn get_digest(buf: &mut Bytes) -> Result<[u8; 32]> {
    if buf.remaining() < 32 {
        return Err(Error::Codec("truncated digest".into()));
    }
    let mut digest = [0u8; 32];
    digest.copy_from_slice(&buf.copy_to_bytes(32));
    Ok(digest)
}

fn get_view_seq(buf: &mut Bytes) -> Result<(u64, u64)> {
    if buf.remaining() < 16 {
        return Err(Error::Codec("truncated view/seq header".into()));
    }
    Ok((buf.get_u64_le(), buf.get_u64_le()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mir::MirMsg;
    use iss_types::{ClientId, Request};

    fn roundtrip(msg: NetMsg) {
        let mut buf = BytesMut::new();
        encode_net_msg(&msg, &mut buf).expect("encodable");
        let mut bytes: Bytes = buf.freeze();
        let decoded = decode_net_msg(&mut bytes).expect("decodable");
        assert_eq!(decoded, msg);
        assert_eq!(bytes.remaining(), 0, "decoder consumed the whole message");
    }

    fn batch(n: usize) -> Batch {
        Batch::new(
            (0..n)
                .map(|i| Request::synthetic(ClientId(i as u32), i as u64, 64))
                .collect(),
        )
    }

    #[test]
    fn client_messages_roundtrip() {
        let mut req = Request::new(ClientId(3), 17, vec![9u8; 48]);
        req.signature = Bytes::from(vec![5u8; 64]);
        roundtrip(NetMsg::Client(ClientMsg::Request(req)));
        roundtrip(NetMsg::Client(ClientMsg::Response {
            request: RequestId::new(ClientId(3), 17),
            seq_nr: 42,
        }));
        roundtrip(NetMsg::Client(ClientMsg::BucketLeaders {
            epoch: 2,
            leaders: (0..8).map(|b| (BucketId(b), NodeId(b % 4))).collect(),
        }));
    }

    #[test]
    fn pbft_messages_roundtrip() {
        for msg in [
            PbftMsg::PrePrepare {
                view: 1,
                seq_nr: 7,
                batch: Some(batch(3)),
                digest: [4; 32],
            },
            PbftMsg::PrePrepare {
                view: 1,
                seq_nr: 8,
                batch: None,
                digest: [0; 32],
            },
            PbftMsg::Prepare {
                view: 1,
                seq_nr: 7,
                digest: [4; 32],
            },
            PbftMsg::Commit {
                view: 1,
                seq_nr: 7,
                digest: [4; 32],
            },
            PbftMsg::ViewChange {
                new_view: 2,
                prepared: vec![
                    PreparedProof {
                        seq_nr: 7,
                        view: 1,
                        digest: [4; 32],
                        batch: Some(batch(2)),
                    },
                    PreparedProof {
                        seq_nr: 8,
                        view: 1,
                        digest: [0; 32],
                        batch: None,
                    },
                ],
                signature: Bytes::from(vec![1u8; 64]),
            },
            PbftMsg::NewView {
                view: 2,
                re_proposals: vec![(7, [4; 32]), (8, [0; 32])],
                certificate: vec![Bytes::from(vec![2u8; 64]); 3],
            },
        ] {
            roundtrip(NetMsg::Sb {
                instance: InstanceId::new(5, 2),
                msg: SbMsg::Pbft(msg),
            });
        }
    }

    #[test]
    fn iss_messages_roundtrip() {
        roundtrip(NetMsg::Iss(IssMsg::Checkpoint {
            epoch: 3,
            max_seq_nr: 1023,
            root: [7; 32],
            signature: Bytes::from(vec![1u8; 64]),
        }));
        roundtrip(NetMsg::Iss(IssMsg::StateRequest {
            from_seq_nr: 10,
            to_seq_nr: 20,
        }));
        roundtrip(NetMsg::Iss(IssMsg::StateResponse {
            epoch: 1,
            entries: vec![
                LogEntry {
                    seq_nr: 10,
                    batch: Some(batch(2)),
                },
                LogEntry {
                    seq_nr: 11,
                    batch: None,
                },
            ],
            root: [9; 32],
            proof: vec![Bytes::from(vec![3u8; 64]); 3],
        }));
        roundtrip(NetMsg::Iss(IssMsg::SnapshotRequest { from_seq_nr: 512 }));
        roundtrip(NetMsg::Iss(IssMsg::SnapshotChunk {
            epoch: 2,
            max_seq_nr: 511,
            root: [8; 32],
            proof: (0..3)
                .map(|i| (NodeId(i), Bytes::from(vec![i as u8; 64])))
                .collect(),
            total_delivered: 4096,
            policy: Bytes::from(vec![6u8; 40]),
            offset: 128,
            total_len: 1024,
            data: Bytes::from(vec![1u8; 256]),
            done: false,
        }));
    }

    #[test]
    fn simulator_only_variants_refuse_to_encode() {
        let mut buf = BytesMut::new();
        for msg in [
            NetMsg::Mir(MirMsg::NewEpoch {
                epoch: 0,
                config_digest: [0; 32],
            }),
            NetMsg::Sb {
                instance: InstanceId::new(0, 0),
                msg: SbMsg::Raft(crate::raft::RaftMsg::VoteResponse {
                    term: 0,
                    granted: true,
                }),
            },
        ] {
            assert!(encode_net_msg(&msg, &mut buf).is_err(), "{msg:?}");
        }
    }

    #[test]
    fn truncated_inputs_error_instead_of_panicking() {
        let mut buf = BytesMut::new();
        encode_net_msg(
            &NetMsg::Sb {
                instance: InstanceId::new(1, 0),
                msg: SbMsg::Pbft(PbftMsg::PrePrepare {
                    view: 0,
                    seq_nr: 3,
                    batch: Some(batch(2)),
                    digest: [1; 32],
                }),
            },
            &mut buf,
        )
        .unwrap();
        let encoded = buf.freeze();
        for cut in 0..encoded.len() {
            let mut prefix = encoded.slice(..cut);
            assert!(
                decode_net_msg(&mut prefix).is_err(),
                "prefix of length {cut} decoded"
            );
        }
        // Unassigned tags, including 2 (no `NetMsg` variant encodes to it).
        for tag in [2u8, 99] {
            let mut garbage = Bytes::from(vec![tag, 1, 2, 3]);
            match decode_net_msg(&mut garbage) {
                Err(Error::Codec(e)) => assert_eq!(e, format!("invalid net message tag {tag}")),
                other => panic!("tag {tag} decoded: {other:?}"),
            }
        }
    }
}
