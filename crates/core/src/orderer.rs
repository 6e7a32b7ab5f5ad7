//! The Orderer side of the Manager/Orderer split (Section 4.1).
//!
//! The Manager (in [`crate::node`]) announces segments; the Orderer
//! instantiates one ordering-protocol instance per segment. Which protocol is
//! used is decided by the [`OrdererFactory`] the node is constructed with —
//! `iss-sim`'s `make_factory` builds one for PBFT, HotStuff, Raft or the
//! reference implementation.

use iss_sb::SbInstance;
use iss_types::{NodeId, Segment};
use std::sync::Arc;

/// Creates one SB instance per announced segment: called with the node's
/// own id and the segment to order.
pub type OrdererFactory = Box<dyn Fn(NodeId, Arc<Segment>) -> Box<dyn SbInstance>>;

#[cfg(test)]
mod tests {
    use super::*;
    use iss_sb::reference::ReferenceSb;
    use iss_types::{BucketId, Duration, InstanceId};

    #[test]
    fn fn_factory_creates_instances() {
        let factory: OrdererFactory = Box::new(|id, seg| {
            Box::new(ReferenceSb::new(id, seg, Duration::from_secs(10))) as Box<dyn SbInstance>
        });
        let segment = Segment {
            instance: InstanceId::new(0, 0),
            leader: NodeId(0),
            seq_nrs: vec![0, 1],
            buckets: vec![BucketId(0)],
            nodes: (0..4).map(NodeId).collect(),
            f: 1,
        };
        let instance = factory(NodeId(1), Arc::new(segment));
        assert!(!instance.is_complete());
    }
}
