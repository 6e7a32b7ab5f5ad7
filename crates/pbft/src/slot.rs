//! Per-sequence-number agreement state ("slot").

use iss_crypto::Digest;
use iss_types::{Batch, NodeSet, ViewNr};

/// The digest representing the nil value ⊥.
pub const NIL_DIGEST: Digest = [0u8; 32];

/// Agreement state of one sequence number within a PBFT instance.
#[derive(Clone, Debug)]
pub struct Slot {
    /// The accepted pre-prepare for the current view: digest and value.
    /// `value = None` encodes ⊥.
    pub pre_prepared: Option<(Digest, Option<Batch>)>,
    /// View in which the current pre-prepare was accepted.
    pub pre_prepare_view: ViewNr,
    /// Nodes from which a matching PREPARE was received (the primary's
    /// pre-prepare counts as its prepare). Sized to the segment's nodes: a
    /// vote from an id outside them is not counted.
    pub prepares: NodeSet,
    /// Nodes from which a matching COMMIT was received.
    pub commits: NodeSet,
    /// Whether the prepared predicate held at this node (2f+1 prepares).
    pub prepared: bool,
    /// View in which the slot was (last) prepared.
    pub prepared_view: ViewNr,
    /// Whether the slot has committed locally.
    pub committed: bool,
    /// Whether the committed value has been delivered to the embedding.
    pub delivered: bool,
}

impl Slot {
    /// A fresh slot of a segment over `n` nodes.
    pub fn new(n: usize) -> Self {
        Slot {
            pre_prepared: None,
            pre_prepare_view: 0,
            prepares: NodeSet::new(n),
            commits: NodeSet::new(n),
            prepared: false,
            prepared_view: 0,
            committed: false,
            delivered: false,
        }
    }

    /// Resets the vote counts for a new view, keeping the prepared
    /// certificate (needed for the view-change message).
    pub fn reset_for_view(&mut self) {
        self.pre_prepared = None;
        self.prepares.clear();
        self.commits.clear();
        // `prepared`, `prepared_view` and the committed/delivered flags are
        // deliberately retained.
    }

    /// The digest of the currently pre-prepared value, if any.
    pub fn digest(&self) -> Option<Digest> {
        self.pre_prepared.as_ref().map(|(d, _)| *d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iss_types::NodeId;

    #[test]
    fn reset_keeps_prepared_certificate() {
        let mut slot = Slot::new(4);
        slot.pre_prepared = Some(([1u8; 32], None));
        slot.prepares.insert(NodeId(0));
        slot.prepares.insert(NodeId(1));
        slot.commits.insert(NodeId(0));
        slot.prepared = true;
        slot.reset_for_view();
        assert!(slot.pre_prepared.is_none());
        assert!(slot.prepares.is_empty());
        assert!(slot.commits.is_empty());
        assert!(slot.prepared, "prepared certificate survives view change");
    }

    #[test]
    fn digest_accessor() {
        let mut slot = Slot::new(4);
        assert_eq!(slot.digest(), None);
        slot.pre_prepared = Some(([7u8; 32], Some(Batch::empty())));
        assert_eq!(slot.digest(), Some([7u8; 32]));
    }
}
