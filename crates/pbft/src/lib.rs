//! PBFT (Castro & Liskov) implemented as a Sequenced Broadcast instance
//! (Section 4.2.1 of the paper).
//!
//! The implementation follows the classical three-phase normal case
//! (pre-prepare / prepare / commit) with the signature-based view change of
//! Castro & Liskov '98, adapted to ISS:
//!
//! * the first primary of every instance is the segment leader (the
//!   designated SB sender σ);
//! * batch-level progress timeouts replace per-request timeouts: a view
//!   change is triggered only if *no* batch commits for too long, because
//!   censoring is already prevented by ISS's bucket rotation;
//! * after a view change, the new primary re-proposes prepared values and
//!   proposes the nil value ⊥ for every other sequence number of the
//!   segment, which is what makes PBFT implement SB (a new leader never
//!   introduces new non-⊥ values);
//! * followers accept a non-⊥ proposal only if it passes the ISS proposal
//!   validator (request validity, bucket membership, no duplication).
//!
//! The same state machine doubles as the single-leader PBFT baseline used in
//! the evaluation: the baseline is simply an instance whose segment spans the
//! whole log prefix and whose leader is never rotated by ISS.

pub mod instance;
pub mod slot;

pub use instance::PbftInstance;
