//! Wire messages exchanged by clients, ISS nodes and the ordering protocols.
//!
//! All message types used anywhere in the system are defined here so that
//! protocol crates (`iss-pbft`, `iss-hotstuff`, `iss-raft`, `iss-core`)
//! only contain logic, never message definitions, and so that a
//! single top-level [`NetMsg`] enum can implement [`iss_types::Payload`] for
//! the network simulator's bandwidth and CPU accounting.
//!
//! The module layout mirrors the system structure:
//!
//! * [`client`] — client ↔ node traffic (requests, responses, bucket
//!   assignment announcements, Section 4.3);
//! * [`pbft`], [`hotstuff`], [`raft`] — the three ordering protocols of
//!   Section 4.2;
//! * [`refsb`] — messages of the reference SB implementation (Algorithm 5);
//! * [`isscp`] — ISS checkpointing and state transfer (Section 3.5);
//! * [`mir`] — the Mir-BFT baseline used for comparison in the evaluation;
//! * [`net`] — the top-level [`NetMsg`] / [`SbMsg`] enums; a message's
//!   size is the length of its encoding;
//! * [`codec`] — the binary encoders of requests, batches and log entries
//!   that WAL records, recovery's state transfer and the wire format share;
//! * [`wire`] — the socket wire format used by the threaded TCP runtime
//!   (`iss-net`) to ship [`NetMsg`] values between OS processes, and the
//!   simulator's measure of every message.

pub mod client;
pub mod codec;
pub mod hotstuff;
pub mod isscp;
pub mod mir;
pub mod net;
pub mod pbft;
pub mod raft;
pub mod refsb;
pub mod wire;

pub use client::ClientMsg;
pub use hotstuff::HotStuffMsg;
pub use isscp::IssMsg;
pub use mir::MirMsg;
pub use net::{NetMsg, SbMsg};
pub use pbft::PbftMsg;
pub use raft::RaftMsg;
pub use refsb::RefSbMsg;
