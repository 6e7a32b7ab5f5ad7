//! Top-level message enums: [`SbMsg`] (all ordering-protocol messages) and
//! [`NetMsg`] (everything that travels between processes).

use crate::client::ClientMsg;
use crate::hotstuff::HotStuffMsg;
use crate::isscp::IssMsg;
use crate::mir::MirMsg;
use crate::pbft::PbftMsg;
use crate::raft::RaftMsg;
use crate::refsb::RefSbMsg;
use crate::stage::StageMsg;
use iss_types::{InstanceId, MsgClass, Payload};

/// A message of one of the ordering protocols usable as an SB implementation.
#[derive(Clone, Debug, PartialEq)]
pub enum SbMsg {
    /// PBFT message.
    Pbft(PbftMsg),
    /// HotStuff message.
    HotStuff(HotStuffMsg),
    /// Raft message.
    Raft(RaftMsg),
    /// Reference BRB + consensus implementation (Algorithm 5).
    Reference(RefSbMsg),
}

impl SbMsg {
    /// Approximate size of the message on the wire.
    pub fn wire_size(&self) -> usize {
        match self {
            SbMsg::Pbft(m) => m.wire_size(),
            SbMsg::HotStuff(m) => m.wire_size(),
            SbMsg::Raft(m) => m.wire_size(),
            SbMsg::Reference(m) => m.wire_size(),
        }
    }

    /// Number of client requests the message carries.
    pub fn num_requests(&self) -> usize {
        match self {
            SbMsg::Pbft(m) => m.num_requests(),
            SbMsg::HotStuff(m) => m.num_requests(),
            SbMsg::Raft(m) => m.num_requests(),
            SbMsg::Reference(m) => m.num_requests(),
        }
    }
}

/// Everything that travels between participants.
#[derive(Clone, Debug, PartialEq)]
pub enum NetMsg {
    /// Client ↔ node traffic.
    Client(ClientMsg),
    /// An ordering-protocol message belonging to the SB instance `instance`.
    Sb {
        /// The SB instance (segment) the message belongs to.
        instance: InstanceId,
        /// The protocol message.
        msg: SbMsg,
    },
    /// An ordering-protocol message of a single-leader baseline deployment
    /// (no ISS multiplexing, one unbounded instance).
    Baseline(SbMsg),
    /// ISS checkpointing / state transfer.
    Iss(IssMsg),
    /// Mir-BFT baseline traffic.
    Mir(MirMsg),
    /// Handoffs between a replica's orderer and its co-located
    /// batcher/executor pipeline stages.
    Stage(StageMsg),
}

impl Payload for NetMsg {
    fn wire_size(&self) -> usize {
        match self {
            NetMsg::Client(m) => m.wire_size(),
            NetMsg::Sb { msg, .. } => 12 + msg.wire_size(),
            NetMsg::Baseline(m) => m.wire_size(),
            NetMsg::Iss(m) => m.wire_size(),
            NetMsg::Mir(m) => m.wire_size(),
            NetMsg::Stage(m) => m.wire_size(),
        }
    }

    fn num_requests(&self) -> usize {
        match self {
            NetMsg::Client(m) => m.num_requests(),
            NetMsg::Sb { msg, .. } => msg.num_requests(),
            NetMsg::Baseline(m) => m.num_requests(),
            NetMsg::Iss(m) => m.num_requests(),
            NetMsg::Mir(_) => 0,
            NetMsg::Stage(m) => m.num_requests(),
        }
    }

    fn class(&self) -> MsgClass {
        match self {
            NetMsg::Client(ClientMsg::Request(_)) => MsgClass::Request,
            NetMsg::Client(_) => MsgClass::Response,
            // Protocol messages carrying a batch are proposal processing
            // (digesting, validation, logging); the rest is quorum
            // bookkeeping. This split is what separates the orderer's
            // per-request work from its per-message work.
            NetMsg::Sb { msg, .. } | NetMsg::Baseline(msg) => {
                if msg.num_requests() > 0 {
                    MsgClass::Proposal
                } else {
                    MsgClass::Vote
                }
            }
            NetMsg::Iss(IssMsg::Checkpoint { .. }) => MsgClass::Checkpoint,
            NetMsg::Iss(_) => MsgClass::StateTransfer,
            // Mir's only message of its own, the epoch announcement, carries
            // no requests.
            NetMsg::Mir(_) => MsgClass::Vote,
            NetMsg::Stage(_) => MsgClass::Handoff,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iss_types::{Batch, ClientId, Request};

    fn preprepare(reqs: usize) -> PbftMsg {
        PbftMsg::PrePrepare {
            view: 0,
            seq_nr: 0,
            batch: Some(Batch::new(vec![
                Request::synthetic(ClientId(0), 0, 500);
                reqs
            ])),
            digest: [0; 32],
        }
    }

    #[test]
    fn sb_wrapper_adds_instance_overhead() {
        let inner = SbMsg::Pbft(preprepare(4));
        let wrapped = NetMsg::Sb {
            instance: InstanceId::new(0, 1),
            msg: inner.clone(),
        };
        assert_eq!(wrapped.wire_size(), 12 + inner.wire_size());
        assert_eq!(wrapped.num_requests(), 4);
    }

    #[test]
    fn all_variants_report_sizes() {
        let msgs = vec![
            NetMsg::Client(ClientMsg::Request(Request::synthetic(ClientId(0), 0, 500))),
            NetMsg::Baseline(SbMsg::Raft(RaftMsg::VoteResponse {
                term: 0,
                granted: true,
            })),
            NetMsg::Iss(IssMsg::StateRequest {
                from_seq_nr: 0,
                to_seq_nr: 1,
            }),
            NetMsg::Mir(MirMsg::NewEpoch {
                epoch: 0,
                config_digest: [0; 32],
            }),
            NetMsg::Sb {
                instance: InstanceId::new(0, 0),
                msg: SbMsg::HotStuff(HotStuffMsg::NewView {
                    view: 0,
                    high_qc: crate::hotstuff::QuorumCert::genesis(),
                }),
            },
            NetMsg::Sb {
                instance: InstanceId::new(0, 0),
                msg: SbMsg::Reference(RefSbMsg::Heartbeat),
            },
        ];
        for m in msgs {
            assert!(m.wire_size() > 0);
        }
    }

    #[test]
    fn classes_split_proposals_from_votes() {
        let proposal = NetMsg::Baseline(SbMsg::Pbft(preprepare(3)));
        assert_eq!(proposal.class(), MsgClass::Proposal);
        let vote = NetMsg::Sb {
            instance: InstanceId::new(0, 0),
            msg: SbMsg::Reference(RefSbMsg::Heartbeat),
        };
        assert_eq!(vote.class(), MsgClass::Vote);
        let req = NetMsg::Client(ClientMsg::Request(Request::synthetic(ClientId(0), 0, 500)));
        assert_eq!(req.class(), MsgClass::Request);
        let st = NetMsg::Iss(IssMsg::StateRequest {
            from_seq_nr: 0,
            to_seq_nr: 1,
        });
        assert_eq!(st.class(), MsgClass::StateTransfer);
    }

    #[test]
    fn num_requests_routed_through() {
        let m = NetMsg::Baseline(SbMsg::Pbft(preprepare(7)));
        assert_eq!(m.num_requests(), 7);
        let m = NetMsg::Client(ClientMsg::Request(Request::synthetic(ClientId(0), 0, 500)));
        assert_eq!(m.num_requests(), 1);
    }
}
