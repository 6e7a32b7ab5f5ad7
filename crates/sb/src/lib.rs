//! Sequenced Broadcast (SB): the core abstraction of ISS (Section 2.2).
//!
//! An instance `SB(σ, S, M, D)` lets a single designated sender σ assign one
//! message from `M` (here: a request batch) to every sequence number in the
//! finite set `S`, with the guarantee that every correct node eventually
//! delivers *something* (a batch or the nil value ⊥) for every sequence
//! number — even if σ fails — while ⊥ may only be delivered if some correct
//! node suspected σ after the instance was initialized.
//!
//! This crate defines:
//!
//! * [`SbInstance`] — the trait every ordering protocol implements to act as
//!   an SB instance for one segment (PBFT, HotStuff and Raft adapters live in
//!   their own crates);
//! * [`SbAction`] / [`SbContext`] — the effect vocabulary instances use to
//!   talk to the embedding (send, deliver, timers, suspicion);
//! * [`ProposalValidator`] — the hook through which the embedding (ISS)
//!   enforces request validity, bucket membership and duplication freedom on
//!   proposals received from leaders (design principle 3 of Section 4.2);
//! * [`mod@reference`] — the paper's reference implementation of SB from
//!   Byzantine reliable broadcast + per-sequence-number agreement + a ◇S(bz)
//!   failure detector (Algorithm 5), used as an executable specification in
//!   tests.

pub mod instance;
pub mod reference;
pub mod testing;
pub mod validator;

pub use instance::{SbAction, SbContext, SbInstance};
pub use validator::{AcceptAll, ProposalValidator};
