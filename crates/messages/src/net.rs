//! Top-level message enums: [`SbMsg`] (all ordering-protocol messages) and
//! [`NetMsg`] (everything that travels between processes).

use crate::client::ClientMsg;
use crate::codec::Counter;
use crate::hotstuff::HotStuffMsg;
use crate::isscp::IssMsg;
use crate::mir::MirMsg;
use crate::pbft::PbftMsg;
use crate::raft::RaftMsg;
use crate::refsb::RefSbMsg;
use crate::wire::encode_net_msg;
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
    /// ISS checkpointing / state transfer.
    Iss(IssMsg),
    /// Mir-BFT baseline traffic.
    Mir(MirMsg),
}

impl Payload for NetMsg {
    /// The length of the message's socket encoding, measured by running the
    /// encoder into a [`Counter`], plus the payload that synthetic requests
    /// declare and do not carry.
    fn wire_size(&self) -> usize {
        let mut counter = Counter::default();
        encode_net_msg(self, &mut counter);
        counter.len
    }

    fn num_requests(&self) -> usize {
        match self {
            NetMsg::Client(m) => m.num_requests(),
            NetMsg::Sb { msg, .. } => msg.num_requests(),
            NetMsg::Iss(m) => m.num_requests(),
            NetMsg::Mir(_) => 0,
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
            NetMsg::Sb { msg, .. } => {
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
        }
    }
}

/// The size of `msg` inside some SB instance.
#[cfg(test)]
pub(crate) fn sb_wire_size(msg: SbMsg) -> usize {
    NetMsg::Sb {
        instance: InstanceId::new(0, 0),
        msg,
    }
    .wire_size()
}

#[cfg(test)]
mod tests {
    use super::*;
    use iss_types::{Batch, ClientId, Request};

    fn sb(msg: SbMsg) -> NetMsg {
        NetMsg::Sb {
            instance: InstanceId::new(0, 0),
            msg,
        }
    }

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
        let prepare = sb(SbMsg::Pbft(PbftMsg::Prepare {
            view: 0,
            seq_nr: 0,
            digest: [0; 32],
        }));
        // The net tag and the instance id ahead of the SB tag, view,
        // sequence number and digest.
        assert_eq!(prepare.wire_size(), 1 + 12 + 1 + 16 + 32);
        let wrapped = NetMsg::Sb {
            instance: InstanceId::new(0, 1),
            msg: SbMsg::Pbft(preprepare(4)),
        };
        assert_eq!(wrapped.num_requests(), 4);
    }

    #[test]
    fn all_variants_report_sizes() {
        let msgs = vec![
            NetMsg::Client(ClientMsg::Request(Request::synthetic(ClientId(0), 0, 500))),
            sb(SbMsg::Raft(RaftMsg::VoteResponse {
                term: 0,
                granted: true,
            })),
            NetMsg::Iss(IssMsg::SnapshotRequest { from_seq_nr: 0 }),
            NetMsg::Mir(MirMsg::NewEpoch {
                epoch: 0,
                config_digest: [0; 32],
            }),
            sb(SbMsg::HotStuff(HotStuffMsg::NewView {
                view: 0,
                high_qc: crate::hotstuff::QuorumCert::genesis(),
            })),
            sb(SbMsg::Reference(RefSbMsg::Heartbeat)),
        ];
        for m in msgs {
            assert!(m.wire_size() > 0);
        }
    }

    #[test]
    fn classes_split_proposals_from_votes() {
        let proposal = sb(SbMsg::Pbft(preprepare(3)));
        assert_eq!(proposal.class(), MsgClass::Proposal);
        let vote = sb(SbMsg::Reference(RefSbMsg::Heartbeat));
        assert_eq!(vote.class(), MsgClass::Vote);
        let req = NetMsg::Client(ClientMsg::Request(Request::synthetic(ClientId(0), 0, 500)));
        assert_eq!(req.class(), MsgClass::Request);
        let st = NetMsg::Iss(IssMsg::SnapshotRequest { from_seq_nr: 0 });
        assert_eq!(st.class(), MsgClass::StateTransfer);
    }

    #[test]
    fn num_requests_routed_through() {
        let m = sb(SbMsg::Pbft(preprepare(7)));
        assert_eq!(m.num_requests(), 7);
        let m = NetMsg::Client(ClientMsg::Request(Request::synthetic(ClientId(0), 0, 500)));
        assert_eq!(m.num_requests(), 1);
    }
}
