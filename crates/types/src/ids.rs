//! Identifier newtypes used throughout the system.
//!
//! All identifiers are small, `Copy`, totally ordered and hashable so they
//! can serve as map keys in protocol state machines and as compact wire
//! representations.

use std::fmt;

/// Identifier of a replica (node) participating in the SMR service.
///
/// Nodes are numbered `0..n` as in the paper's round-robin formulas
/// (e.g. the bucket assignment of Section 2.4).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the numeric index of the node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(v as u32)
    }
}

/// Identifier of a client process.
///
/// The paper represents the client identifier as an integer associated with
/// the client's public key (Section 3.7); we do the same.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ClientId(pub u32);

impl ClientId {
    /// Returns the numeric index of the client.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Per-client logical request timestamp (`r.id.t` in the paper).
pub type ReqTimestamp = u64;

/// A position in the totally ordered log of request batches.
///
/// Sequence numbers start at 0 and are dense: ISS agrees on the assignment of
/// exactly one batch (or the nil value ⊥) to every sequence number.
pub type SeqNr = u64;

/// Epoch number (monotonically increasing, starting at 0).
pub type EpochNr = u64;

/// View number inside an ordering-protocol instance (PBFT view, HotStuff
/// view, Raft term).
pub type ViewNr = u64;

/// Bucket number in `0..numBuckets` (Section 2.4).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BucketId(pub u32);

impl BucketId {
    /// Returns the numeric index of the bucket.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for BucketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// Identifies one Sequenced Broadcast instance: the segment with index
/// `index` of epoch `epoch`.
///
/// Every protocol message carries the instance identifier of the SB instance
/// it belongs to so that a node can dispatch it to the right state machine
/// (or buffer it if the epoch has not started locally yet).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct InstanceId {
    /// Epoch this instance belongs to.
    pub epoch: EpochNr,
    /// Index of the segment within the epoch (`0..|Leaders(e)|`).
    pub index: u32,
}

impl InstanceId {
    /// Creates an instance identifier.
    pub fn new(epoch: EpochNr, index: u32) -> Self {
        InstanceId { epoch, index }
    }
}

impl fmt::Debug for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}/s{}", self.epoch, self.index)
    }
}

/// Handle of a timer set through a runtime [`crate::time`] context:
/// `TimerId(n)` is the n-th timer its process incarnation armed, counting
/// from zero, under every runtime.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct TimerId(pub u64);

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn node_id_roundtrip_and_display() {
        let n = NodeId(7);
        assert_eq!(n.index(), 7);
        assert_eq!(format!("{n}"), "n7");
        assert_eq!(format!("{n:?}"), "n7");
        assert_eq!(NodeId::from(7usize), n);
    }

    #[test]
    fn client_id_display() {
        let c = ClientId(3);
        assert_eq!(c.index(), 3);
        assert_eq!(format!("{c}"), "c3");
    }

    #[test]
    fn instance_id_ordering_is_epoch_major() {
        let a = InstanceId::new(0, 5);
        let b = InstanceId::new(1, 0);
        assert!(a < b);
        let set: BTreeSet<_> = [b, a].into_iter().collect();
        assert_eq!(set.into_iter().next(), Some(a));
    }

    #[test]
    fn bucket_id_index() {
        assert_eq!(BucketId(11).index(), 11);
        assert_eq!(format!("{:?}", BucketId(2)), "b2");
    }

    #[test]
    fn ids_are_copy_and_hashable() {
        fn assert_copy_hash<T: Copy + std::hash::Hash + Eq>() {}
        assert_copy_hash::<NodeId>();
        assert_copy_hash::<ClientId>();
        assert_copy_hash::<BucketId>();
        assert_copy_hash::<InstanceId>();
        assert_copy_hash::<TimerId>();
    }
}
