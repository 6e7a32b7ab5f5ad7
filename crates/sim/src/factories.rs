//! Orderer factories: one per supported ordering protocol.

use iss_core::orderer::OrdererFactory;
use iss_crypto::{KeyPair, SignatureRegistry};
use iss_hotstuff::{HotStuffConfig, HotStuffInstance};
use iss_pbft::{PbftConfig, PbftInstance};
use iss_raft::{RaftConfig, RaftInstance};
use iss_sb::reference::ReferenceSb;
use iss_sb::SbInstance;
use iss_types::{Duration, IssConfig, NodeId, Segment};
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

/// Factory producing PBFT instances parametrized per Table 1 / Section 6.4.
pub struct PbftFactory {
    /// View-change timeout.
    pub view_change_timeout: Duration,
    /// Whether instances buffer votes that overtake their pre-prepare
    /// (required on transports without cross-peer ordering).
    pub buffer_early_votes: bool,
    /// Shared key registry.
    pub registry: Arc<SignatureRegistry>,
}

impl OrdererFactory for PbftFactory {
    fn create(&self, my_id: NodeId, segment: Arc<Segment>) -> Box<dyn SbInstance> {
        Box::new(PbftInstance::new(
            my_id,
            segment,
            PbftConfig {
                view_change_timeout: self.view_change_timeout,
                buffer_early_votes: self.buffer_early_votes,
            },
            KeyPair::for_node(my_id),
            Arc::clone(&self.registry),
        ))
    }

    fn name(&self) -> &'static str {
        "PBFT"
    }
}

/// Factory producing chained-HotStuff instances.
pub struct HotStuffFactory {
    /// Pacemaker timeout.
    pub pacemaker_timeout: Duration,
}

impl OrdererFactory for HotStuffFactory {
    fn create(&self, my_id: NodeId, segment: Arc<Segment>) -> Box<dyn SbInstance> {
        Box::new(HotStuffInstance::new(
            my_id,
            segment,
            HotStuffConfig {
                pacemaker_timeout: self.pacemaker_timeout,
            },
        ))
    }

    fn name(&self) -> &'static str {
        "HotStuff"
    }
}

/// Factory producing Raft instances.
pub struct RaftFactory {
    /// Raft timing configuration.
    pub config: RaftConfig,
}

impl OrdererFactory for RaftFactory {
    fn create(&self, my_id: NodeId, segment: Arc<Segment>) -> Box<dyn SbInstance> {
        Box::new(RaftInstance::new(my_id, segment, self.config))
    }

    fn name(&self) -> &'static str {
        "Raft"
    }
}

/// Factory producing reference SB instances (used in integration tests).
pub struct ReferenceFactory;

impl OrdererFactory for ReferenceFactory {
    fn create(&self, my_id: NodeId, segment: Arc<Segment>) -> Box<dyn SbInstance> {
        Box::new(ReferenceSb::new(my_id, segment))
    }

    fn name(&self) -> &'static str {
        "Reference"
    }
}

/// Builds the factory matching a protocol choice and an ISS configuration.
pub fn make_factory(
    protocol: Protocol,
    config: &IssConfig,
    registry: Arc<SignatureRegistry>,
) -> Box<dyn OrdererFactory> {
    match protocol {
        Protocol::Pbft => Box::new(PbftFactory {
            view_change_timeout: config.view_change_timeout,
            buffer_early_votes: config.buffer_early_votes,
            registry,
        }),
        Protocol::HotStuff => Box::new(HotStuffFactory {
            pacemaker_timeout: config.epoch_change_timeout,
        }),
        Protocol::Raft => Box::new(RaftFactory {
            config: RaftConfig {
                heartbeat_interval: Duration::from_millis(500),
                election_timeout_min: config.epoch_change_timeout,
                election_timeout_max: config.epoch_change_timeout.saturating_mul(2),
            },
        }),
        Protocol::Reference => Box::new(ReferenceFactory),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iss_types::{BucketId, InstanceId};

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
            let inst = factory.create(NodeId(1), Arc::new(segment()));
            assert!(!inst.is_complete());
            assert!(!factory.name().is_empty());
            assert!(!protocol.name().is_empty());
        }
    }
}
