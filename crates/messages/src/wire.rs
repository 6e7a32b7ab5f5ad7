//! Socket wire format for [`NetMsg`], and with it the size of every message.
//!
//! The simulator moves `NetMsg` values between processes as in-memory Rust
//! enums; the threaded TCP runtime (`iss-net`) moves them between OS
//! processes as the bytes this module writes. It builds on the
//! [`crate::codec`] primitives (requests, batches) and uses the same
//! conventions: little-endian fixed-width integers, `u32` length prefixes,
//! one leading tag byte per enum.
//!
//! # Scope
//!
//! Every `NetMsg` variant encodes and decodes, and encoding cannot fail.
//! The TCP runtime boots PBFT-backed ISS; the HotStuff, Raft, reference-SB
//! and Mir encodings exist as well, so that one size model prices every
//! message: the simulator charges a message what [`encode_net_msg`] writes
//! into a [`Counter`](crate::codec::Counter)
//! (`<NetMsg as Payload>::wire_size`). The SB tag byte is shared by the four
//! protocols: PBFT 0–4, HotStuff 5–7, Raft 8–11, reference SB 12–17.
//!
//! A quorum certificate's threshold signature carries its signer set as a
//! length-prefixed bitmap (bit `i % 8` of byte `i / 8` is node `i`): 36
//! bytes plus one byte per 8 nodes up to the highest signer. Decoding yields
//! the signers sorted and distinct, as `ThresholdScheme::aggregate` makes
//! them; a bitmap that names more than [`MAX_SIGNERS`] nodes, or ends in a
//! zero byte, is an error.
//!
//! Decoders take untrusted bytes: a truncated or corrupt message is an
//! [`Error::Codec`], never a panic, and a decoder reserves room for no more
//! elements than the remaining bytes can hold.
//!
//! Framing (length prefix on the socket) is the transport's concern; these
//! functions encode and decode one message body.

use crate::client::ClientMsg;
use crate::codec::{
    capacity_for, decode_batch, decode_log_entry, decode_request, encode_batch, encode_log_entry,
    encode_request, Sink, LOG_ENTRY_MIN_LEN,
};
use crate::hotstuff::{HotStuffMsg, HsBlock, QuorumCert};
use crate::isscp::{IssMsg, LogEntry};
use crate::mir::MirMsg;
use crate::net::{NetMsg, SbMsg};
use crate::pbft::{PbftMsg, PreparedProof};
use crate::raft::{RaftEntry, RaftMsg};
use crate::refsb::RefSbMsg;
use bytes::{Buf, Bytes};
use iss_crypto::{ThresholdShare, ThresholdSignature};
use iss_types::{BucketId, ClientId, Error, InstanceId, NodeId, RequestId, Result};

// Leading tag bytes, one namespace per enum.
const NET_CLIENT: u8 = 0;
const NET_SB: u8 = 1;
const NET_MIR: u8 = 2;
const NET_ISS: u8 = 3;

const CLIENT_REQUEST: u8 = 0;
const CLIENT_RESPONSE: u8 = 1;
const CLIENT_BUCKET_LEADERS: u8 = 2;

// One namespace for the messages of every SB protocol.
const PBFT_PRE_PREPARE: u8 = 0;
const PBFT_PREPARE: u8 = 1;
const PBFT_COMMIT: u8 = 2;
const PBFT_VIEW_CHANGE: u8 = 3;
const PBFT_NEW_VIEW: u8 = 4;
const HOTSTUFF_PROPOSAL: u8 = 5;
const HOTSTUFF_VOTE: u8 = 6;
const HOTSTUFF_NEW_VIEW: u8 = 7;
const RAFT_APPEND_ENTRIES: u8 = 8;
const RAFT_APPEND_RESPONSE: u8 = 9;
const RAFT_REQUEST_VOTE: u8 = 10;
const RAFT_VOTE_RESPONSE: u8 = 11;
const REF_BRB_SEND: u8 = 12;
const REF_BRB_ECHO: u8 = 13;
const REF_BRB_READY: u8 = 14;
const REF_VOTE: u8 = 15;
const REF_DECIDE: u8 = 16;
const REF_HEARTBEAT: u8 = 17;

// Tag 1 is unused, so the tags below keep their bytes.
const ISS_CHECKPOINT: u8 = 0;
const ISS_STATE_RESPONSE: u8 = 2;
const ISS_SNAPSHOT_REQUEST: u8 = 3;
const ISS_SNAPSHOT_CHUNK: u8 = 4;

const MIR_NEW_EPOCH: u8 = 0;

// Shortest encoding of one element of each decoded list.
const BUCKET_LEADER_LEN: usize = 8;
const PREPARED_PROOF_MIN_LEN: usize = 8 + 8 + 32 + 1;
const RE_PROPOSAL_LEN: usize = 8 + 32;
const BYTES_MIN_LEN: usize = 4;
const CHUNK_PROOF_MIN_LEN: usize = 4 + BYTES_MIN_LEN;

/// Encodes a message into `buf`: a buffer, or a
/// [`Counter`](crate::codec::Counter) that measures it.
pub fn encode_net_msg(msg: &NetMsg, buf: &mut impl Sink) {
    match msg {
        NetMsg::Client(m) => {
            buf.put_u8(NET_CLIENT);
            encode_client_msg(m, buf);
        }
        NetMsg::Sb { instance, msg } => {
            buf.put_u8(NET_SB);
            buf.put_u64_le(instance.epoch);
            buf.put_u32_le(instance.index);
            match msg {
                SbMsg::Pbft(m) => encode_pbft_msg(m, buf),
                SbMsg::HotStuff(m) => encode_hotstuff_msg(m, buf),
                SbMsg::Raft(m) => encode_raft_msg(m, buf),
                SbMsg::Reference(m) => encode_refsb_msg(m, buf),
            }
        }
        NetMsg::Mir(MirMsg::NewEpoch {
            epoch,
            config_digest,
        }) => {
            buf.put_u8(NET_MIR);
            buf.put_u8(MIR_NEW_EPOCH);
            buf.put_u64_le(*epoch);
            buf.put_slice(config_digest);
        }
        NetMsg::Iss(m) => {
            buf.put_u8(NET_ISS);
            encode_iss_msg(m, buf);
        }
    }
}

/// Decodes one message from `buf`.
pub fn decode_net_msg(buf: &mut Bytes) -> Result<NetMsg> {
    match get_u8(buf, "net tag")? {
        NET_CLIENT => Ok(NetMsg::Client(decode_client_msg(buf)?)),
        NET_SB => Ok(NetMsg::Sb {
            instance: InstanceId::new(get_u64(buf, "instance epoch")?, get_u32(buf, "instance")?),
            msg: decode_sb_msg(buf)?,
        }),
        NET_MIR => match get_u8(buf, "mir tag")? {
            MIR_NEW_EPOCH => Ok(NetMsg::Mir(MirMsg::NewEpoch {
                epoch: get_u64(buf, "epoch")?,
                config_digest: get_digest(buf)?,
            })),
            t => Err(invalid_tag("mir", t)),
        },
        NET_ISS => Ok(NetMsg::Iss(decode_iss_msg(buf)?)),
        t => Err(invalid_tag("net", t)),
    }
}

fn encode_client_msg(msg: &ClientMsg, buf: &mut impl Sink) {
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
    Ok(match get_u8(buf, "client tag")? {
        CLIENT_REQUEST => ClientMsg::Request(decode_request(buf)?),
        CLIENT_RESPONSE => ClientMsg::Response {
            request: RequestId::new(
                ClientId(get_u32(buf, "client")?),
                get_u64(buf, "timestamp")?,
            ),
            seq_nr: get_u64(buf, "sequence number")?,
        },
        CLIENT_BUCKET_LEADERS => ClientMsg::BucketLeaders {
            epoch: get_u64(buf, "epoch")?,
            leaders: get_vec(buf, BUCKET_LEADER_LEN, |buf| {
                Ok((
                    BucketId(get_u32(buf, "bucket")?),
                    NodeId(get_u32(buf, "leader")?),
                ))
            })?,
        },
        t => return Err(invalid_tag("client", t)),
    })
}

fn decode_sb_msg(buf: &mut Bytes) -> Result<SbMsg> {
    let tag = get_u8(buf, "sb tag")?;
    match tag {
        PBFT_PRE_PREPARE..=PBFT_NEW_VIEW => decode_pbft_msg(tag, buf).map(SbMsg::Pbft),
        HOTSTUFF_PROPOSAL..=HOTSTUFF_NEW_VIEW => decode_hotstuff_msg(tag, buf).map(SbMsg::HotStuff),
        RAFT_APPEND_ENTRIES..=RAFT_VOTE_RESPONSE => decode_raft_msg(tag, buf).map(SbMsg::Raft),
        REF_BRB_SEND..=REF_HEARTBEAT => decode_refsb_msg(tag, buf).map(SbMsg::Reference),
        t => Err(invalid_tag("sb", t)),
    }
}

fn encode_pbft_msg(msg: &PbftMsg, buf: &mut impl Sink) {
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
            put_opt(batch, buf, encode_batch);
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
                put_opt(&p.batch, buf, encode_batch);
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

fn decode_pbft_msg(tag: u8, buf: &mut Bytes) -> Result<PbftMsg> {
    Ok(match tag {
        PBFT_PRE_PREPARE => PbftMsg::PrePrepare {
            view: get_u64(buf, "view")?,
            seq_nr: get_u64(buf, "sequence number")?,
            batch: get_opt(buf, "batch", decode_batch)?,
            digest: get_digest(buf)?,
        },
        PBFT_PREPARE => PbftMsg::Prepare {
            view: get_u64(buf, "view")?,
            seq_nr: get_u64(buf, "sequence number")?,
            digest: get_digest(buf)?,
        },
        PBFT_COMMIT => PbftMsg::Commit {
            view: get_u64(buf, "view")?,
            seq_nr: get_u64(buf, "sequence number")?,
            digest: get_digest(buf)?,
        },
        PBFT_VIEW_CHANGE => PbftMsg::ViewChange {
            new_view: get_u64(buf, "view")?,
            prepared: get_vec(buf, PREPARED_PROOF_MIN_LEN, |buf| {
                Ok(PreparedProof {
                    seq_nr: get_u64(buf, "sequence number")?,
                    view: get_u64(buf, "view")?,
                    digest: get_digest(buf)?,
                    batch: get_opt(buf, "batch", decode_batch)?,
                })
            })?,
            signature: get_bytes(buf)?,
        },
        PBFT_NEW_VIEW => PbftMsg::NewView {
            view: get_u64(buf, "view")?,
            re_proposals: get_vec(buf, RE_PROPOSAL_LEN, |buf| {
                Ok((get_u64(buf, "sequence number")?, get_digest(buf)?))
            })?,
            certificate: get_vec(buf, BYTES_MIN_LEN, get_bytes)?,
        },
        t => return Err(invalid_tag("pbft", t)),
    })
}

fn encode_hotstuff_msg(msg: &HotStuffMsg, buf: &mut impl Sink) {
    match msg {
        HotStuffMsg::Proposal { block } => {
            buf.put_u8(HOTSTUFF_PROPOSAL);
            buf.put_u64_le(block.view);
            put_opt(&block.seq_nr, buf, |sn, buf| buf.put_u64_le(*sn));
            put_opt(&block.batch, buf, encode_batch);
            encode_qc(&block.justify, buf);
        }
        HotStuffMsg::Vote { view, block, share } => {
            buf.put_u8(HOTSTUFF_VOTE);
            buf.put_u64_le(*view);
            buf.put_slice(block);
            buf.put_u32_le(share.signer.0);
            buf.put_slice(&share.mac);
        }
        HotStuffMsg::NewView { view, high_qc } => {
            buf.put_u8(HOTSTUFF_NEW_VIEW);
            buf.put_u64_le(*view);
            encode_qc(high_qc, buf);
        }
    }
}

fn decode_hotstuff_msg(tag: u8, buf: &mut Bytes) -> Result<HotStuffMsg> {
    Ok(match tag {
        HOTSTUFF_PROPOSAL => HotStuffMsg::Proposal {
            block: HsBlock {
                view: get_u64(buf, "view")?,
                seq_nr: get_opt(buf, "sequence number", |buf| {
                    get_u64(buf, "sequence number")
                })?,
                batch: get_opt(buf, "batch", decode_batch)?,
                justify: decode_qc(buf)?,
            },
        },
        HOTSTUFF_VOTE => HotStuffMsg::Vote {
            view: get_u64(buf, "view")?,
            block: get_digest(buf)?,
            share: ThresholdShare {
                signer: NodeId(get_u32(buf, "signer")?),
                mac: get_digest(buf)?,
            },
        },
        HOTSTUFF_NEW_VIEW => HotStuffMsg::NewView {
            view: get_u64(buf, "view")?,
            high_qc: decode_qc(buf)?,
        },
        t => return Err(invalid_tag("hotstuff", t)),
    })
}

/// Most signers a quorum certificate's bitmap may name: a bitmap is at
/// most `MAX_SIGNERS / 8` bytes, so a peer cannot make a replica expand a
/// frame-sized bitmap into a signer list 32 times its size.
pub const MAX_SIGNERS: usize = 1 << 16;

/// Writes the signer set as a bitmap of `highest / 8 + 1` bytes, one byte
/// at a time; `signers` is sorted, as `ThresholdScheme::aggregate` leaves it.
fn encode_qc(qc: &QuorumCert, buf: &mut impl Sink) {
    buf.put_u64_le(qc.view);
    buf.put_slice(&qc.block);
    put_opt(&qc.signature, buf, |sig, buf| {
        buf.put_slice(&sig.aggregate);
        let len = sig
            .signers
            .iter()
            .map(|s| s.index() / 8 + 1)
            .max()
            .unwrap_or(0);
        buf.put_u32_le(len as u32);
        let (mut at, mut byte) = (0, 0u8);
        for s in &sig.signers {
            for _ in at..s.index() / 8 {
                buf.put_u8(std::mem::take(&mut byte));
            }
            at = at.max(s.index() / 8);
            byte |= 1 << (s.index() % 8);
        }
        if len > 0 {
            buf.put_u8(byte);
        }
    });
}

fn decode_qc(buf: &mut Bytes) -> Result<QuorumCert> {
    Ok(QuorumCert {
        view: get_u64(buf, "view")?,
        block: get_digest(buf)?,
        signature: get_opt(buf, "signature", |buf| {
            let aggregate = get_digest(buf)?;
            let bitmap = get_bytes(buf)?;
            if bitmap.len() > MAX_SIGNERS / 8 {
                return Err(Error::Codec(format!(
                    "signer bitmap of {} bytes",
                    bitmap.len()
                )));
            }
            if bitmap.last() == Some(&0) {
                return Err(Error::Codec("signer bitmap ends in a zero byte".into()));
            }
            let signers = (0..bitmap.len() * 8)
                .filter(|i| bitmap[i / 8] & (1 << (i % 8)) != 0)
                .map(|i| NodeId(i as u32))
                .collect();
            Ok(ThresholdSignature { signers, aggregate })
        })?,
    })
}

fn encode_raft_msg(msg: &RaftMsg, buf: &mut impl Sink) {
    match msg {
        RaftMsg::AppendEntries {
            term,
            prev_index,
            prev_term,
            entries,
            leader_commit,
        } => {
            buf.put_u8(RAFT_APPEND_ENTRIES);
            buf.put_u64_le(*term);
            buf.put_u64_le(*prev_index);
            buf.put_u64_le(*prev_term);
            buf.put_u32_le(entries.len() as u32);
            for e in entries {
                buf.put_u64_le(e.term);
                encode_log_entry(e.seq_nr, &e.batch, buf);
            }
            buf.put_u64_le(*leader_commit);
        }
        RaftMsg::AppendResponse {
            term,
            success,
            match_index,
        } => {
            buf.put_u8(RAFT_APPEND_RESPONSE);
            buf.put_u64_le(*term);
            buf.put_u8(u8::from(*success));
            buf.put_u64_le(*match_index);
        }
        RaftMsg::RequestVote {
            term,
            last_log_index,
            last_log_term,
        } => {
            buf.put_u8(RAFT_REQUEST_VOTE);
            buf.put_u64_le(*term);
            buf.put_u64_le(*last_log_index);
            buf.put_u64_le(*last_log_term);
        }
        RaftMsg::VoteResponse { term, granted } => {
            buf.put_u8(RAFT_VOTE_RESPONSE);
            buf.put_u64_le(*term);
            buf.put_u8(u8::from(*granted));
        }
    }
}

fn decode_raft_msg(tag: u8, buf: &mut Bytes) -> Result<RaftMsg> {
    Ok(match tag {
        RAFT_APPEND_ENTRIES => RaftMsg::AppendEntries {
            term: get_u64(buf, "term")?,
            prev_index: get_u64(buf, "index")?,
            prev_term: get_u64(buf, "term")?,
            entries: get_vec(buf, 8 + LOG_ENTRY_MIN_LEN, |buf| {
                let term = get_u64(buf, "term")?;
                let (seq_nr, batch) = decode_log_entry(buf)?;
                Ok(RaftEntry {
                    term,
                    seq_nr,
                    batch,
                })
            })?,
            leader_commit: get_u64(buf, "index")?,
        },
        RAFT_APPEND_RESPONSE => RaftMsg::AppendResponse {
            term: get_u64(buf, "term")?,
            success: get_bool(buf)?,
            match_index: get_u64(buf, "index")?,
        },
        RAFT_REQUEST_VOTE => RaftMsg::RequestVote {
            term: get_u64(buf, "term")?,
            last_log_index: get_u64(buf, "index")?,
            last_log_term: get_u64(buf, "term")?,
        },
        RAFT_VOTE_RESPONSE => RaftMsg::VoteResponse {
            term: get_u64(buf, "term")?,
            granted: get_bool(buf)?,
        },
        t => return Err(invalid_tag("raft", t)),
    })
}

fn encode_refsb_msg(msg: &RefSbMsg, buf: &mut impl Sink) {
    match msg {
        RefSbMsg::BrbSend { seq_nr, batch } => {
            buf.put_u8(REF_BRB_SEND);
            buf.put_u64_le(*seq_nr);
            encode_batch(batch, buf);
        }
        RefSbMsg::BrbEcho { seq_nr, digest } => {
            buf.put_u8(REF_BRB_ECHO);
            buf.put_u64_le(*seq_nr);
            buf.put_slice(digest);
        }
        RefSbMsg::BrbReady { seq_nr, digest } => {
            buf.put_u8(REF_BRB_READY);
            buf.put_u64_le(*seq_nr);
            buf.put_slice(digest);
        }
        RefSbMsg::Vote { seq_nr, value } => {
            buf.put_u8(REF_VOTE);
            buf.put_u64_le(*seq_nr);
            put_opt(value, buf, |digest, buf| buf.put_slice(digest));
        }
        RefSbMsg::Decide { seq_nr, value } => {
            buf.put_u8(REF_DECIDE);
            buf.put_u64_le(*seq_nr);
            put_opt(value, buf, |digest, buf| buf.put_slice(digest));
        }
        RefSbMsg::Heartbeat => buf.put_u8(REF_HEARTBEAT),
    }
}

fn decode_refsb_msg(tag: u8, buf: &mut Bytes) -> Result<RefSbMsg> {
    Ok(match tag {
        REF_BRB_SEND => RefSbMsg::BrbSend {
            seq_nr: get_u64(buf, "sequence number")?,
            batch: decode_batch(buf)?,
        },
        REF_BRB_ECHO => RefSbMsg::BrbEcho {
            seq_nr: get_u64(buf, "sequence number")?,
            digest: get_digest(buf)?,
        },
        REF_BRB_READY => RefSbMsg::BrbReady {
            seq_nr: get_u64(buf, "sequence number")?,
            digest: get_digest(buf)?,
        },
        REF_VOTE => RefSbMsg::Vote {
            seq_nr: get_u64(buf, "sequence number")?,
            value: get_opt(buf, "value", get_digest)?,
        },
        REF_DECIDE => RefSbMsg::Decide {
            seq_nr: get_u64(buf, "sequence number")?,
            value: get_opt(buf, "value", get_digest)?,
        },
        REF_HEARTBEAT => RefSbMsg::Heartbeat,
        t => return Err(invalid_tag("reference sb", t)),
    })
}

fn encode_iss_msg(msg: &IssMsg, buf: &mut impl Sink) {
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
                encode_log_entry(e.seq_nr, &e.batch, buf);
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
    Ok(match get_u8(buf, "iss tag")? {
        ISS_CHECKPOINT => IssMsg::Checkpoint {
            epoch: get_u64(buf, "epoch")?,
            max_seq_nr: get_u64(buf, "sequence number")?,
            root: get_digest(buf)?,
            signature: get_bytes(buf)?,
        },
        ISS_STATE_RESPONSE => IssMsg::StateResponse {
            epoch: get_u64(buf, "epoch")?,
            root: get_digest(buf)?,
            entries: get_vec(buf, LOG_ENTRY_MIN_LEN, |buf| {
                let (seq_nr, batch) = decode_log_entry(buf)?;
                Ok(LogEntry { seq_nr, batch })
            })?,
            proof: get_vec(buf, BYTES_MIN_LEN, get_bytes)?,
        },
        ISS_SNAPSHOT_REQUEST => IssMsg::SnapshotRequest {
            from_seq_nr: get_u64(buf, "sequence number")?,
        },
        ISS_SNAPSHOT_CHUNK => IssMsg::SnapshotChunk {
            epoch: get_u64(buf, "epoch")?,
            max_seq_nr: get_u64(buf, "sequence number")?,
            root: get_digest(buf)?,
            proof: get_vec(buf, CHUNK_PROOF_MIN_LEN, |buf| {
                Ok((NodeId(get_u32(buf, "signer")?), get_bytes(buf)?))
            })?,
            total_delivered: get_u64(buf, "delivered count")?,
            policy: get_bytes(buf)?,
            offset: get_u32(buf, "chunk offset")?,
            total_len: get_u32(buf, "chunk total length")?,
            data: get_bytes(buf)?,
            done: get_bool(buf)?,
        },
        t => return Err(invalid_tag("iss", t)),
    })
}

/// Writes ⊥ as a zero tag, and a value as a one tag followed by `put`.
fn put_opt<T, B: Sink>(value: &Option<T>, buf: &mut B, put: impl FnOnce(&T, &mut B)) {
    match value {
        None => buf.put_u8(0),
        Some(v) => {
            buf.put_u8(1);
            put(v, buf);
        }
    }
}

fn get_opt<T>(
    buf: &mut Bytes,
    what: &str,
    get: impl FnOnce(&mut Bytes) -> Result<T>,
) -> Result<Option<T>> {
    match get_u8(buf, what)? {
        0 => Ok(None),
        1 => Ok(Some(get(buf)?)),
        t => Err(Error::Codec(format!("invalid {what} option tag {t}"))),
    }
}

/// Reads a `u32` element count, then that many elements, reserving room
/// for no more than the remaining bytes hold at `min_len` bytes each.
fn get_vec<T>(
    buf: &mut Bytes,
    min_len: usize,
    mut get: impl FnMut(&mut Bytes) -> Result<T>,
) -> Result<Vec<T>> {
    let n = get_u32(buf, "element count")? as usize;
    let mut items = Vec::with_capacity(capacity_for(n, &*buf, min_len));
    for _ in 0..n {
        items.push(get(buf)?);
    }
    Ok(items)
}

fn put_bytes(b: &Bytes, buf: &mut impl Sink) {
    buf.put_u32_le(b.len() as u32);
    buf.put_shared(b);
}

fn get_bytes(buf: &mut Bytes) -> Result<Bytes> {
    let len = get_u32(buf, "byte-string length")? as usize;
    if buf.remaining() < len {
        return Err(Error::Codec("truncated byte string".into()));
    }
    Ok(buf.copy_to_bytes(len))
}

fn get_u8(buf: &mut Bytes, what: &str) -> Result<u8> {
    if buf.remaining() < 1 {
        return Err(truncated(what));
    }
    Ok(buf.get_u8())
}

fn get_bool(buf: &mut Bytes) -> Result<bool> {
    Ok(get_u8(buf, "flag")? != 0)
}

fn get_u32(buf: &mut Bytes, what: &str) -> Result<u32> {
    if buf.remaining() < 4 {
        return Err(truncated(what));
    }
    Ok(buf.get_u32_le())
}

fn get_u64(buf: &mut Bytes, what: &str) -> Result<u64> {
    if buf.remaining() < 8 {
        return Err(truncated(what));
    }
    Ok(buf.get_u64_le())
}

fn get_digest(buf: &mut Bytes) -> Result<[u8; 32]> {
    if buf.remaining() < 32 {
        return Err(truncated("digest"));
    }
    let mut digest = [0u8; 32];
    digest.copy_from_slice(&buf.chunk()[..32]);
    buf.advance(32);
    Ok(digest)
}

fn truncated(what: &str) -> Error {
    Error::Codec(format!("truncated {what}"))
}

fn invalid_tag(what: &str, tag: u8) -> Error {
    Error::Codec(format!("invalid {what} message tag {tag}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;
    use iss_types::{Batch, Request};
    use proptest::prelude::*;

    fn encode(msg: &NetMsg) -> Bytes {
        let mut buf = BytesMut::new();
        encode_net_msg(msg, &mut buf);
        buf.freeze()
    }

    fn roundtrip(msg: NetMsg) {
        let mut bytes = encode(&msg);
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

    fn sb(msg: SbMsg) -> NetMsg {
        NetMsg::Sb {
            instance: InstanceId::new(5, 2),
            msg,
        }
    }

    fn client_msgs() -> Vec<NetMsg> {
        let mut req = Request::new(ClientId(3), 17, vec![9u8; 48]);
        req.signature = Bytes::from(vec![5u8; 64]);
        [
            ClientMsg::Request(req),
            ClientMsg::Response {
                request: RequestId::new(ClientId(3), 17),
                seq_nr: 42,
            },
            ClientMsg::BucketLeaders {
                epoch: 2,
                leaders: (0..8).map(|b| (BucketId(b), NodeId(b % 4))).collect(),
            },
        ]
        .into_iter()
        .map(NetMsg::Client)
        .collect()
    }

    fn pbft_msgs() -> Vec<NetMsg> {
        [
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
        ]
        .into_iter()
        .map(|m| sb(SbMsg::Pbft(m)))
        .collect()
    }

    fn iss_msgs() -> Vec<NetMsg> {
        [
            IssMsg::Checkpoint {
                epoch: 3,
                max_seq_nr: 1023,
                root: [7; 32],
                signature: Bytes::from(vec![1u8; 64]),
            },
            IssMsg::StateResponse {
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
            },
            IssMsg::SnapshotRequest { from_seq_nr: 512 },
            IssMsg::SnapshotChunk {
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
            },
        ]
        .into_iter()
        .map(NetMsg::Iss)
        .collect()
    }

    fn qc(signers: impl IntoIterator<Item = u32>) -> QuorumCert {
        QuorumCert {
            view: 6,
            block: [6; 32],
            signature: Some(ThresholdSignature {
                signers: signers.into_iter().map(NodeId).collect(),
                aggregate: [3; 32],
            }),
        }
    }

    fn other_sb_msgs() -> Vec<NetMsg> {
        let hotstuff = [
            HotStuffMsg::Proposal {
                block: HsBlock {
                    view: 7,
                    seq_nr: Some(3),
                    batch: Some(batch(2)),
                    justify: qc([0, 2, 3]),
                },
            },
            HotStuffMsg::Proposal {
                block: HsBlock {
                    view: 8,
                    seq_nr: None,
                    batch: None,
                    justify: QuorumCert::genesis(),
                },
            },
            HotStuffMsg::Vote {
                view: 7,
                block: [7; 32],
                share: ThresholdShare {
                    signer: NodeId(2),
                    mac: [8; 32],
                },
            },
            HotStuffMsg::NewView {
                view: 9,
                high_qc: qc([1, 9, 10, 40]),
            },
        ];
        let raft = [
            RaftMsg::AppendEntries {
                term: 2,
                prev_index: 3,
                prev_term: 1,
                entries: vec![
                    RaftEntry {
                        term: 2,
                        seq_nr: 4,
                        batch: Some(batch(2)),
                    },
                    RaftEntry {
                        term: 2,
                        seq_nr: 5,
                        batch: None,
                    },
                ],
                leader_commit: 3,
            },
            RaftMsg::AppendResponse {
                term: 2,
                success: true,
                match_index: 5,
            },
            RaftMsg::RequestVote {
                term: 3,
                last_log_index: 5,
                last_log_term: 2,
            },
            RaftMsg::VoteResponse {
                term: 3,
                granted: false,
            },
        ];
        let reference = [
            RefSbMsg::BrbSend {
                seq_nr: 4,
                batch: batch(2),
            },
            RefSbMsg::BrbEcho {
                seq_nr: 4,
                digest: [1; 32],
            },
            RefSbMsg::BrbReady {
                seq_nr: 4,
                digest: [1; 32],
            },
            RefSbMsg::Vote {
                seq_nr: 4,
                value: Some([1; 32]),
            },
            RefSbMsg::Decide {
                seq_nr: 4,
                value: None,
            },
            RefSbMsg::Heartbeat,
        ];
        hotstuff
            .into_iter()
            .map(SbMsg::HotStuff)
            .chain(raft.into_iter().map(SbMsg::Raft))
            .chain(reference.into_iter().map(SbMsg::Reference))
            .map(sb)
            .collect()
    }

    fn mir_msgs() -> Vec<NetMsg> {
        vec![NetMsg::Mir(MirMsg::NewEpoch {
            epoch: 4,
            config_digest: [2; 32],
        })]
    }

    fn every_variant() -> Vec<NetMsg> {
        [
            client_msgs(),
            pbft_msgs(),
            iss_msgs(),
            other_sb_msgs(),
            mir_msgs(),
        ]
        .concat()
    }

    #[test]
    fn client_messages_roundtrip() {
        client_msgs().into_iter().for_each(roundtrip);
    }

    #[test]
    fn pbft_messages_roundtrip() {
        pbft_msgs().into_iter().for_each(roundtrip);
    }

    #[test]
    fn iss_messages_roundtrip() {
        iss_msgs().into_iter().for_each(roundtrip);
    }

    #[test]
    fn hotstuff_raft_reference_and_mir_messages_roundtrip() {
        other_sb_msgs().into_iter().for_each(roundtrip);
        mir_msgs().into_iter().for_each(roundtrip);
    }

    #[test]
    fn truncated_inputs_error_instead_of_panicking() {
        for msg in every_variant() {
            let encoded = encode(&msg);
            for cut in 0..encoded.len() {
                let mut prefix = encoded.slice(..cut);
                assert!(
                    decode_net_msg(&mut prefix).is_err(),
                    "prefix of length {cut} of {msg:?} decoded"
                );
            }
        }
        for tag in [4u8, 99] {
            let mut garbage = Bytes::from(vec![tag, 1, 2, 3]);
            match decode_net_msg(&mut garbage) {
                Err(Error::Codec(e)) => assert_eq!(e, format!("invalid net message tag {tag}")),
                other => panic!("tag {tag} decoded: {other:?}"),
            }
        }
        let mut unassigned_sb = vec![NET_SB];
        unassigned_sb.extend_from_slice(&[0; 12]);
        unassigned_sb.push(REF_HEARTBEAT + 1);
        assert!(decode_net_msg(&mut Bytes::from(unassigned_sb)).is_err());
    }

    #[test]
    fn a_signer_bitmap_is_bounded_and_canonical() {
        let new_view = |signers: &[u32]| {
            sb(SbMsg::HotStuff(HotStuffMsg::NewView {
                view: 9,
                high_qc: qc(signers.iter().copied()),
            }))
        };
        // A NewView ends in its QC's bitmap: swap in `bitmap` for the one
        // byte that names signer 0.
        let with_bitmap = |bitmap: &[u8]| {
            let encoded = encode(&new_view(&[0]));
            assert_eq!(&encoded[encoded.len() - 5..], &[1, 0, 0, 0, 1]);
            let mut data = encoded[..encoded.len() - 5].to_vec();
            data.extend_from_slice(&(bitmap.len() as u32).to_le_bytes());
            data.extend_from_slice(bitmap);
            decode_net_msg(&mut Bytes::from(data))
        };
        let full: Vec<u32> = (0..MAX_SIGNERS as u32).collect();
        assert_eq!(
            with_bitmap(&[0xFF; MAX_SIGNERS / 8]).unwrap(),
            new_view(&full)
        );
        assert!(with_bitmap(&[0xFF; MAX_SIGNERS / 8 + 1]).is_err());
        assert!(with_bitmap(&vec![0xFF; 1 << 20]).is_err());
        assert!(with_bitmap(&[1, 0]).is_err(), "a trailing zero byte");
        assert!(with_bitmap(&[]).is_ok());
    }

    proptest! {
        #[test]
        fn prop_random_bytes_never_panic_the_decoder(
            net_tag in 0u8..5,
            inner_tag in 0u8..20,
            rest in proptest::collection::vec(any::<u8>(), 0..300),
        ) {
            // Reach past the tag bytes: an SB message puts its instance id
            // between the two.
            let mut data = vec![net_tag];
            if net_tag == NET_SB {
                data.extend_from_slice(&[0; 12]);
            }
            data.push(inner_tag);
            data.extend_from_slice(&rest);
            let _ = decode_net_msg(&mut Bytes::from(data));
        }

        #[test]
        fn prop_single_byte_flips_never_panic_the_decoder(
            which in 0usize..1 << 16,
            at in 0usize..1 << 16,
            flip in 1u8..=255,
        ) {
            let msgs = every_variant();
            let mut data = encode(&msgs[which % msgs.len()]).to_vec();
            let at = at % data.len();
            data[at] ^= flip;
            let _ = decode_net_msg(&mut Bytes::from(data));
        }
    }
}
