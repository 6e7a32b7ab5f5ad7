//! Client ↔ node messages (Sections 3.7 and 4.3).

use iss_types::{BucketId, EpochNr, NodeId, Request, RequestId, SeqNr};

/// Messages exchanged between clients and nodes.
#[derive(Clone, Debug, PartialEq)]
pub enum ClientMsg {
    /// A client submits a (signed) request.
    Request(Request),
    /// A node notifies a client that its request was delivered at `sn`.
    /// The client waits for `f + 1` matching responses.
    Response {
        /// Identifier of the delivered request.
        request: RequestId,
        /// The global sequence number assigned to the request (Equation 2).
        seq_nr: SeqNr,
    },
    /// At every epoch transition, nodes announce the leader responsible for
    /// each bucket so clients can route requests to the right leader
    /// (Section 4.3). The client accepts the announcement once received from
    /// a quorum of nodes.
    BucketLeaders {
        /// The epoch the assignment applies to.
        epoch: EpochNr,
        /// `leaders[b]` is the leader of bucket `b` in this epoch.
        leaders: Vec<(BucketId, NodeId)>,
    },
}

impl ClientMsg {
    /// Number of client requests the message carries.
    pub fn num_requests(&self) -> usize {
        match self {
            ClientMsg::Request(_) => 1,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetMsg;
    use iss_types::{ClientId, Payload};

    fn size(msg: &ClientMsg) -> usize {
        NetMsg::Client(msg.clone()).wire_size()
    }

    #[test]
    fn request_wire_size_includes_payload_and_signature() {
        let req = Request::new(ClientId(0), 0, vec![0u8; 500]).with_signature(vec![0u8; 64]);
        let msg = ClientMsg::Request(req);
        assert!(size(&msg) >= 500 + 64);
        assert_eq!(msg.num_requests(), 1);
    }

    #[test]
    fn response_is_small() {
        let msg = ClientMsg::Response {
            request: RequestId::new(ClientId(1), 2),
            seq_nr: 3,
        };
        assert!(size(&msg) < 100);
        assert_eq!(msg.num_requests(), 0);
    }

    #[test]
    fn bucket_leaders_scales_with_buckets() {
        let small = ClientMsg::BucketLeaders {
            epoch: 1,
            leaders: vec![(BucketId(0), NodeId(0))],
        };
        let big = ClientMsg::BucketLeaders {
            epoch: 1,
            leaders: (0..512).map(|b| (BucketId(b), NodeId(b % 32))).collect(),
        };
        assert!(size(&big) > size(&small));
    }
}
