//! Chained HotStuff messages (Yin et al., adapted per Section 4.2.2).
//!
//! Each segment sequence number corresponds to one HotStuff view; a segment
//! is extended by three dummy views so the chained pipeline can be flushed
//! (Figure 4 of the paper). Quorum certificates are threshold signatures
//! (`iss-crypto::threshold`) over the block digest.

use iss_crypto::{ThresholdShare, ThresholdSignature};
use iss_types::{Batch, SeqNr, ViewNr};

/// Digest type alias (32 bytes).
pub type Digest = [u8; 32];

/// A quorum certificate: a threshold signature over `(view, block digest)`.
#[derive(Clone, Debug, PartialEq)]
pub struct QuorumCert {
    /// View of the certified block.
    pub view: ViewNr,
    /// Digest of the certified block.
    pub block: Digest,
    /// The aggregated threshold signature (empty for the genesis QC).
    pub signature: Option<ThresholdSignature>,
}

impl QuorumCert {
    /// The genesis certificate `QC0` a new segment instance starts from.
    pub fn genesis() -> Self {
        QuorumCert {
            view: 0,
            block: [0u8; 32],
            signature: None,
        }
    }
}

/// A block in the HotStuff chain.
#[derive(Clone, Debug, PartialEq)]
pub struct HsBlock {
    /// The view (one view per segment sequence number plus dummies).
    pub view: ViewNr,
    /// The segment sequence number this block proposes for, or `None` for a
    /// dummy block appended to flush the pipeline.
    pub seq_nr: Option<SeqNr>,
    /// The proposed batch (`None` = ⊥ / dummy).
    pub batch: Option<Batch>,
    /// Certificate for the parent block.
    pub justify: QuorumCert,
}

/// HotStuff protocol messages.
#[derive(Clone, Debug, PartialEq)]
pub enum HotStuffMsg {
    /// Leader proposal of the next block in the chain.
    Proposal {
        /// The proposed block.
        block: HsBlock,
    },
    /// Follower vote: a threshold-signature share over the block digest.
    Vote {
        /// View being voted.
        view: ViewNr,
        /// Digest of the block voted for.
        block: Digest,
        /// The voter's partial signature.
        share: ThresholdShare,
    },
    /// Pacemaker timeout: a node gives up on the current view and sends its
    /// highest known QC to the next leader.
    NewView {
        /// View being abandoned.
        view: ViewNr,
        /// Highest QC known to the sender.
        high_qc: QuorumCert,
    },
}

impl HotStuffMsg {
    /// Number of client requests the message carries.
    pub fn num_requests(&self) -> usize {
        match self {
            HotStuffMsg::Proposal { block } => block.batch.as_ref().map(Batch::len).unwrap_or(0),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SbMsg;
    use iss_crypto::ThresholdScheme;
    use iss_types::{ClientId, NodeId, Request};

    fn size(msg: &HotStuffMsg) -> usize {
        crate::net::sb_wire_size(SbMsg::HotStuff(msg.clone()))
    }

    #[test]
    fn genesis_qc_has_no_signature() {
        let qc = QuorumCert::genesis();
        assert!(qc.signature.is_none());
        assert_eq!(qc.view, 0);
    }

    #[test]
    fn proposal_size_tracks_batch() {
        let batch = Batch::new(vec![Request::synthetic(ClientId(0), 0, 500); 8]);
        let block = HsBlock {
            view: 1,
            seq_nr: Some(4),
            batch: Some(batch),
            justify: QuorumCert::genesis(),
        };
        let msg = HotStuffMsg::Proposal { block };
        assert!(size(&msg) > 8 * 500);
        assert_eq!(msg.num_requests(), 8);
        let dummy = HotStuffMsg::Proposal {
            block: HsBlock {
                view: 2,
                seq_nr: None,
                batch: None,
                justify: QuorumCert::genesis(),
            },
        };
        assert!(size(&dummy) < 200);
        assert_eq!(dummy.num_requests(), 0);
    }

    #[test]
    fn vote_is_small_and_constant() {
        let scheme = ThresholdScheme::new(4, 3, b"t").unwrap();
        let share = scheme.sign_share(NodeId(1), b"block");
        let msg = HotStuffMsg::Vote {
            view: 1,
            block: [0; 32],
            share,
        };
        assert!(size(&msg) < 200);
        let far = HotStuffMsg::Vote {
            view: 1,
            block: [0; 32],
            share: ThresholdScheme::new(128, 86, b"t")
                .unwrap()
                .sign_share(NodeId(127), b"block"),
        };
        assert_eq!(size(&msg), size(&far), "a vote does not grow with n");
    }

    #[test]
    fn qc_wire_size_nearly_constant_in_n() {
        let new_view = |n: usize| {
            let scheme = ThresholdScheme::new(n, 2 * (n - 1) / 3 + 1, b"qc").unwrap();
            let shares: Vec<_> = (0..n as u32)
                .rev()
                .take(scheme.threshold)
                .map(|i| scheme.sign_share(NodeId(i), b"block"))
                .collect();
            let high_qc = QuorumCert {
                view: 1,
                block: [0; 32],
                signature: Some(scheme.aggregate(&shares, b"block").unwrap()),
            };
            size(&HotStuffMsg::NewView { view: 2, high_qc })
        };
        let (small, large) = (new_view(4), new_view(128));
        let genesis = size(&HotStuffMsg::NewView {
            view: 2,
            high_qc: QuorumCert::genesis(),
        });
        assert_eq!(
            small - genesis,
            32 + 4 + 1,
            "aggregate, bitmap length, ⌈4/8⌉"
        );
        assert_eq!(
            large - small,
            128 / 8 - 1,
            "QC grows only by the signer bitmap"
        );
    }
}
