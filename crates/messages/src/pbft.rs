//! PBFT protocol messages (Castro–Liskov, adapted per Section 4.2.1).
//!
//! The view-change sub-protocol follows the signature-based variant
//! (Castro & Liskov 1998); within ISS, a new leader installed by a view
//! change proposes only ⊥ for sequence numbers that the original segment
//! leader had not proposed (design principle 2 of Section 4.2).

use bytes::Bytes;
use iss_types::{Batch, SeqNr, ViewNr};

/// Digest type alias (32 bytes).
pub type Digest = [u8; 32];

/// A `(sequence number, view, digest)` triple certifying that a proposal was
/// prepared in a view; carried by view-change messages.
#[derive(Clone, Debug, PartialEq)]
pub struct PreparedProof {
    /// Sequence number of the prepared proposal.
    pub seq_nr: SeqNr,
    /// View in which it was prepared.
    pub view: ViewNr,
    /// Digest of the prepared proposal (or the nil digest for ⊥).
    pub digest: Digest,
    /// The prepared value itself (`None` for ⊥), so the new primary can
    /// re-propose it even if it never received the original pre-prepare.
    pub batch: Option<Batch>,
}

/// PBFT messages.
#[derive(Clone, Debug, PartialEq)]
pub enum PbftMsg {
    /// Leader proposal assigning `batch` (or ⊥ encoded as `None`) to `seq_nr`.
    PrePrepare {
        /// Current view.
        view: ViewNr,
        /// Proposed sequence number.
        seq_nr: SeqNr,
        /// The proposed batch; `None` encodes the nil value ⊥.
        batch: Option<Batch>,
        /// Digest of the batch.
        digest: Digest,
    },
    /// Follower acknowledgement of a pre-prepare.
    Prepare {
        /// Current view.
        view: ViewNr,
        /// Sequence number being prepared.
        seq_nr: SeqNr,
        /// Digest of the pre-prepared proposal.
        digest: Digest,
    },
    /// Commit vote: sent once a node has collected a prepared certificate.
    Commit {
        /// Current view.
        view: ViewNr,
        /// Sequence number being committed.
        seq_nr: SeqNr,
        /// Digest of the proposal.
        digest: Digest,
    },
    /// Signed view-change request: the sender suspects the current leader.
    ViewChange {
        /// The view the sender wants to move to.
        new_view: ViewNr,
        /// Certificates for proposals prepared by the sender.
        prepared: Vec<PreparedProof>,
        /// Signature over the message by the sender (refcounted: broadcast
        /// fan-out clones a handle, not the 64 bytes).
        signature: Bytes,
    },
    /// New-view message from the leader of `view`, carrying the view-change
    /// certificate and the proposals (batches or ⊥) it re-proposes.
    NewView {
        /// The newly installed view.
        view: ViewNr,
        /// For every sequence number of the segment not yet committed, the
        /// digest the new leader is bound to re-propose (nil digest for ⊥).
        re_proposals: Vec<(SeqNr, Digest)>,
        /// Signatures of the 2f+1 view-change messages justifying this view.
        certificate: Vec<Bytes>,
    },
}

impl PbftMsg {
    /// Number of client requests the message carries.
    pub fn num_requests(&self) -> usize {
        match self {
            PbftMsg::PrePrepare { batch: Some(b), .. } => b.len(),
            _ => 0,
        }
    }

    /// The view the message belongs to.
    pub fn view(&self) -> ViewNr {
        match self {
            PbftMsg::PrePrepare { view, .. }
            | PbftMsg::Prepare { view, .. }
            | PbftMsg::Commit { view, .. }
            | PbftMsg::NewView { view, .. } => *view,
            PbftMsg::ViewChange { new_view, .. } => *new_view,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SbMsg;
    use iss_types::{ClientId, Request};

    fn size(msg: &PbftMsg) -> usize {
        crate::net::sb_wire_size(SbMsg::Pbft(msg.clone()))
    }

    fn batch(n: usize) -> Batch {
        Batch::new(
            (0..n)
                .map(|i| Request::synthetic(ClientId(i as u32), 0, 500))
                .collect(),
        )
    }

    #[test]
    fn preprepare_carries_batch_weight() {
        let full = PbftMsg::PrePrepare {
            view: 0,
            seq_nr: 1,
            batch: Some(batch(10)),
            digest: [0; 32],
        };
        let nil = PbftMsg::PrePrepare {
            view: 0,
            seq_nr: 1,
            batch: None,
            digest: [0; 32],
        };
        assert!(size(&full) > 10 * 500);
        assert!(size(&nil) < 200);
        assert_eq!(full.num_requests(), 10);
        assert_eq!(nil.num_requests(), 0);
    }

    #[test]
    fn votes_are_constant_size() {
        let p = PbftMsg::Prepare {
            view: 3,
            seq_nr: 9,
            digest: [1; 32],
        };
        let c = PbftMsg::Commit {
            view: 3,
            seq_nr: 9,
            digest: [1; 32],
        };
        assert_eq!(size(&p), size(&c));
        assert!(size(&p) < 100);
    }

    #[test]
    fn view_accessor() {
        assert_eq!(
            PbftMsg::Prepare {
                view: 5,
                seq_nr: 0,
                digest: [0; 32]
            }
            .view(),
            5
        );
        assert_eq!(
            PbftMsg::ViewChange {
                new_view: 2,
                prepared: vec![],
                signature: Bytes::new()
            }
            .view(),
            2
        );
        assert_eq!(
            PbftMsg::NewView {
                view: 4,
                re_proposals: vec![],
                certificate: vec![]
            }
            .view(),
            4
        );
    }

    #[test]
    fn view_change_size_grows_with_prepared_set() {
        let empty = PbftMsg::ViewChange {
            new_view: 1,
            prepared: vec![],
            signature: vec![0u8; 64].into(),
        };
        let loaded = PbftMsg::ViewChange {
            new_view: 1,
            prepared: (0..8)
                .map(|i| PreparedProof {
                    seq_nr: i,
                    view: 0,
                    digest: [0; 32],
                    batch: None,
                })
                .collect(),
            signature: vec![0u8; 64].into(),
        };
        assert!(size(&loaded) > size(&empty));
    }
}
