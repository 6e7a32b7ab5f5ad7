//! Orderer factories: one per supported ordering protocol.

use iss_core::orderer::OrdererFactory;
use iss_crypto::{KeyPair, SignatureRegistry};
use iss_hotstuff::{HotStuffConfig, HotStuffInstance};
use iss_pbft::{PbftConfig, PbftInstance};
use iss_raft::{RaftConfig, RaftInstance};
use iss_sb::reference::ReferenceSb;
use iss_types::{Duration, IssConfig};
use std::sync::Arc;

/// The ordering protocol to instantiate per segment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Protocol {
    /// PBFT (BFT).
    Pbft,
    /// Chained HotStuff (BFT).
    HotStuff,
    /// Raft (CFT).
    Raft,
    /// The reference BRB+consensus implementation (testing).
    Reference,
}

impl Protocol {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Pbft => "PBFT",
            Protocol::HotStuff => "HotStuff",
            Protocol::Raft => "Raft",
            Protocol::Reference => "Reference",
        }
    }
}

/// Builds the factory matching a protocol choice and an ISS configuration
/// (PBFT parametrized per Table 1 / Section 6.4).
pub fn make_factory(
    protocol: Protocol,
    config: &IssConfig,
    registry: Arc<SignatureRegistry>,
) -> OrdererFactory {
    match protocol {
        Protocol::Pbft => {
            let pbft = PbftConfig {
                view_change_timeout: config.view_change_timeout,
                buffer_early_votes: config.buffer_early_votes,
            };
            Box::new(move |my_id, segment| {
                Box::new(PbftInstance::new(
                    my_id,
                    segment,
                    pbft,
                    KeyPair::for_node(my_id),
                    Arc::clone(&registry),
                ))
            })
        }
        Protocol::HotStuff => {
            let hotstuff = HotStuffConfig {
                pacemaker_timeout: config.epoch_change_timeout,
            };
            Box::new(move |my_id, segment| {
                Box::new(HotStuffInstance::new(my_id, segment, hotstuff))
            })
        }
        Protocol::Raft => {
            let raft = RaftConfig {
                heartbeat_interval: Duration::from_millis(500),
                election_timeout_min: config.epoch_change_timeout,
                election_timeout_max: config.epoch_change_timeout.saturating_mul(2),
            };
            Box::new(move |my_id, segment| Box::new(RaftInstance::new(my_id, segment, raft)))
        }
        Protocol::Reference => {
            let timeout = config.epoch_change_timeout;
            Box::new(move |my_id, segment| Box::new(ReferenceSb::new(my_id, segment, timeout)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iss_types::{BucketId, InstanceId, NodeId, Segment};

    fn segment() -> Segment {
        Segment {
            instance: InstanceId::new(0, 0),
            leader: NodeId(0),
            seq_nrs: vec![0, 1],
            buckets: vec![BucketId(0)],
            nodes: (0..4).map(NodeId).collect(),
            f: 1,
        }
    }

    #[test]
    fn all_factories_create_instances() {
        let registry = Arc::new(SignatureRegistry::with_processes(4, 0));
        let config = IssConfig::pbft(4);
        for protocol in [
            Protocol::Pbft,
            Protocol::HotStuff,
            Protocol::Raft,
            Protocol::Reference,
        ] {
            let factory = make_factory(protocol, &config, Arc::clone(&registry));
            let inst = factory(NodeId(1), Arc::new(segment()));
            assert!(!inst.is_complete());
            assert!(!protocol.name().is_empty());
        }
    }
}
