//! The ISS framework: multiplexing Sequenced Broadcast instances into a
//! single totally ordered log (Sections 2.3, 2.4 and 3 of the paper).
//!
//! The crate is organized along the paper's structure:
//!
//! * [`buckets`] — the request-space partition: FIFO, idempotent bucket
//!   queues, the `initBuckets`/`extraBuckets` assignment formulas of
//!   Section 2.4 and batch cutting (Algorithm 2, `cutBatch`);
//! * [`epoch`] — epochs and segments: `seqNrs(e)`, round-robin assignment of
//!   sequence numbers to segments (Figure 1) and epoch initialization
//!   (Algorithm 3);
//! * [`policy`] — the SIMPLE / BACKOFF / BLACKLIST leader-selection policies
//!   (Algorithm 4);
//! * [`log`] — the contiguous log, delivery in sequence-number order and the
//!   request numbering of Equation (2);
//! * [`validation`] — request validity (Section 3.7), client watermarks and
//!   duplication prevention across segments and epochs; implements the
//!   [`iss_sb::ProposalValidator`] hook used by the ordering protocols;
//! * [`checkpoint`] — the checkpointing sub-protocol and state transfer
//!   (Section 3.5);
//! * [`orderer`] — the Orderer side of the Manager/Orderer split
//!   (Section 4.1): the factory that instantiates an SB implementation per
//!   segment;
//! * [`state`] — the Manager's dense, epoch-scoped bookkeeping
//!   ([`state::EpochState`]: offset-indexed sequence-number tables and a
//!   generation-stamped instance slab; its `HashMap` oracle lives in
//!   `tests/state_equivalence.rs`);
//! * [`node`] — the Manager: the full ISS replica tying everything together
//!   as an event-driven process (also usable in single-leader baseline mode
//!   and in a Mir-BFT-like mode with an epoch primary);
//! * [`stages`] — the compartmentalized pipeline: batcher stages (request
//!   intake and batch cutting) in front of the orderer and executor stages
//!   (delivery fan-out) behind it, each a first-class simulated process with
//!   its own CPU budget.

pub mod buckets;
pub mod checkpoint;
pub mod epoch;
pub mod log;
pub mod node;
pub mod orderer;
pub mod policy;
pub mod stages;
pub mod state;
pub mod validation;

pub use buckets::{BucketAssignment, BucketQueues};
pub use checkpoint::CheckpointManager;
pub use epoch::EpochConfig;
pub use log::IssLog;
pub use node::{
    DeliverySink, IssNode, Mode, NodeOptions, NullSink, PipelineOptions, StragglerBehavior,
};
pub use orderer::OrdererFactory;
pub use policy::LeaderPolicy;
pub use stages::{
    batcher_for, stage_counters, BatcherProcess, ExecutorProcess, StageCounters,
    StageCountersHandle,
};
pub use state::{EpochState, InstanceSlot};
pub use validation::{EpochBuckets, RequestValidation};
