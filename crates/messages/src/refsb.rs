//! Messages of the reference Sequenced Broadcast implementation
//! (Algorithm 5 of the paper): Byzantine reliable broadcast (Bracha) plus a
//! per-sequence-number binary-ish consensus on the brb-delivered value or ⊥.
//!
//! This implementation exists to validate the SB abstraction itself and to
//! serve as an executable specification; the production path uses PBFT,
//! HotStuff or Raft instead.

use iss_types::{Batch, SeqNr};

/// Digest type alias (32 bytes).
pub type Digest = [u8; 32];

/// Reference-SB messages.
#[derive(Clone, Debug, PartialEq)]
pub enum RefSbMsg {
    /// BRB SEND from the designated sender σ.
    BrbSend {
        /// Sequence number being broadcast.
        seq_nr: SeqNr,
        /// The broadcast batch.
        batch: Batch,
    },
    /// BRB ECHO.
    BrbEcho {
        /// Sequence number.
        seq_nr: SeqNr,
        /// Digest of the echoed batch.
        digest: Digest,
    },
    /// BRB READY.
    BrbReady {
        /// Sequence number.
        seq_nr: SeqNr,
        /// Digest of the batch.
        digest: Digest,
    },
    /// Consensus proposal (vote) for a sequence number: either the digest of
    /// the brb-delivered batch or ⊥ (encoded as `None`).
    Vote {
        /// Sequence number.
        seq_nr: SeqNr,
        /// Proposed value: digest of the brb-delivered batch, or ⊥.
        value: Option<Digest>,
    },
    /// Decision broadcast once a node observes a strong quorum of matching
    /// votes (turns the vote exchange into a decision certificate).
    Decide {
        /// Sequence number.
        seq_nr: SeqNr,
        /// The decided value (digest or ⊥).
        value: Option<Digest>,
    },
    /// Heartbeat used by the ◇S(bz) failure-detector implementation
    /// (Section 5.1.3); carried inside the SB instance for simplicity.
    Heartbeat,
}

impl RefSbMsg {
    /// Number of client requests the message carries.
    pub fn num_requests(&self) -> usize {
        match self {
            RefSbMsg::BrbSend { batch, .. } => batch.len(),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SbMsg;
    use iss_types::{ClientId, Request};

    fn size(msg: &RefSbMsg) -> usize {
        crate::net::sb_wire_size(SbMsg::Reference(msg.clone()))
    }

    #[test]
    fn send_carries_batch() {
        let m = RefSbMsg::BrbSend {
            seq_nr: 0,
            batch: Batch::new(vec![Request::synthetic(ClientId(0), 0, 500); 4]),
        };
        assert!(size(&m) > 2000);
        assert_eq!(m.num_requests(), 4);
    }

    #[test]
    fn control_messages_small() {
        for m in [
            RefSbMsg::BrbEcho {
                seq_nr: 0,
                digest: [0; 32],
            },
            RefSbMsg::BrbReady {
                seq_nr: 0,
                digest: [0; 32],
            },
            RefSbMsg::Vote {
                seq_nr: 0,
                value: None,
            },
            RefSbMsg::Decide {
                seq_nr: 0,
                value: Some([1; 32]),
            },
            RefSbMsg::Heartbeat,
        ] {
            assert!(size(&m) < 100);
            assert_eq!(m.num_requests(), 0);
        }
    }
}
