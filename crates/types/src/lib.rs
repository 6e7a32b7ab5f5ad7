//! Common identifiers, request/batch types, time, configuration and errors
//! shared by every crate of the ISS reproduction.
//!
//! The types in this crate mirror the vocabulary of the paper
//! *State-Machine Replication Scalability Made Simple* (EuroSys'22):
//! nodes, clients, buckets, sequence numbers, epochs, segments, requests and
//! batches. They carry no protocol logic; the ISS framework lives in
//! `iss-core`, the ordering protocols in `iss-pbft` / `iss-hotstuff` /
//! `iss-raft`.

pub mod bitwindow;
pub mod config;
pub mod error;
pub mod fxhash;
pub mod ids;
pub mod nodeset;
pub mod payload;
pub mod request;
pub mod segment;
pub mod time;

pub use bitwindow::BitWindow;
pub use config::{IssConfig, LeaderPolicyKind, ProtocolKind};
pub use error::{Error, Result};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use ids::{
    BucketId, ClientId, EpochNr, InstanceId, NodeId, ReqTimestamp, SeqNr, TimerId, ViewNr,
};
pub use nodeset::NodeSet;
pub use payload::{MsgClass, Payload};
pub use request::{Batch, BatchDigest, Request, RequestDigest, RequestId};
pub use segment::Segment;
pub use time::{Duration, Time};
