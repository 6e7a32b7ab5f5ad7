//! The [`Payload`] trait: anything that can travel over a transport.
//!
//! It lives in `iss-types` so that both the network simulator (`iss-simnet`)
//! and the wire-message definitions (`iss-messages`) can reference it without
//! depending on each other.

/// Coarse classification of a message for CPU/latency attribution.
///
/// The telemetry layer attributes the CPU cost a driver charges for a
/// message delivery to one of these classes, so a profile can say *which
/// kind of processing* a node's busy time went into (request intake vs
/// proposal processing vs protocol votes, …) without the driver knowing
/// anything about concrete message enums.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
#[repr(u8)]
pub enum MsgClass {
    /// A client request entering the system (intake/validation cost).
    Request = 0,
    /// An ordering-protocol message carrying a proposed batch
    /// (proposal processing: validation, digesting, logging).
    Proposal = 1,
    /// An ordering-protocol message without a batch (votes, view changes,
    /// heartbeats — quorum bookkeeping).
    Vote = 2,
    /// Checkpointing traffic.
    Checkpoint = 3,
    /// State transfer / snapshot / recovery traffic.
    StateTransfer = 4,
    /// Responses back to clients.
    Response = 5,
    /// Everything else.
    Other = 6,
}

impl MsgClass {
    /// Number of classes (array-table sizing).
    pub const COUNT: usize = 7;

    /// All classes, in `repr` order.
    pub const ALL: [MsgClass; MsgClass::COUNT] = [
        MsgClass::Request,
        MsgClass::Proposal,
        MsgClass::Vote,
        MsgClass::Checkpoint,
        MsgClass::StateTransfer,
        MsgClass::Response,
        MsgClass::Other,
    ];

    /// Stable lowercase label (export format).
    pub fn label(self) -> &'static str {
        match self {
            MsgClass::Request => "request",
            MsgClass::Proposal => "proposal",
            MsgClass::Vote => "vote",
            MsgClass::Checkpoint => "checkpoint",
            MsgClass::StateTransfer => "state-transfer",
            MsgClass::Response => "response",
            MsgClass::Other => "other",
        }
    }
}

/// Anything that can travel over the (simulated or real) network.
pub trait Payload: Clone {
    /// Number of bytes the message occupies on the wire, which the
    /// simulator charges to bandwidth and per-byte CPU. For `NetMsg` it is
    /// the length the socket codec writes (`iss_messages::wire`), plus the
    /// payload a synthetic request declares and does not carry.
    fn wire_size(&self) -> usize;

    /// Number of client requests carried by the message (used by the CPU
    /// model to charge per-request processing such as signature
    /// verification). Defaults to zero.
    fn num_requests(&self) -> usize {
        0
    }

    /// Coarse class of the message for telemetry attribution. Defaults to
    /// [`MsgClass::Other`]; wire-message enums override this to split a
    /// node's busy time by the kind of processing it buys.
    fn class(&self) -> MsgClass {
        MsgClass::Other
    }
}

impl Payload for Vec<u8> {
    fn wire_size(&self) -> usize {
        self.len()
    }
}

impl Payload for bytes::Bytes {
    fn wire_size(&self) -> usize {
        self.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone)]
    struct Fixed;
    impl Payload for Fixed {
        fn wire_size(&self) -> usize {
            10
        }
    }

    #[test]
    fn default_num_requests_is_zero() {
        assert_eq!(Fixed.num_requests(), 0);
        assert_eq!(Fixed.wire_size(), 10);
    }

    #[test]
    fn bytes_payload_uses_length() {
        let v = vec![0u8; 123];
        assert_eq!(v.wire_size(), 123);
        let b = bytes::Bytes::from(vec![0u8; 77]);
        assert_eq!(b.wire_size(), 77);
    }
}
