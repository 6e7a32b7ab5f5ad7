//! Cryptographic substrate for the ISS reproduction.
//!
//! The paper's implementation uses 256-bit ECDSA client signatures, BLS
//! threshold signatures (HotStuff quorum certificates) and Merkle trees
//! (checkpoints). This crate provides from-scratch, dependency-free
//! replacements with equivalent interfaces and properties relevant to the
//! protocols:
//!
//! * [`sha256`] — a complete SHA-256 implementation (FIPS 180-4), verified
//!   against the NIST test vectors: a portable scalar kernel and, chosen by
//!   run-time CPU detection, an x86-64 SHA-NI or ARMv8 SHA-2 one.
//! * [`hmac`] — HMAC-SHA-256 (RFC 2104), verified against RFC 4231 vectors;
//!   [`HmacKey`] keeps a key's two pad states so each MAC skips them.
//! * [`sign`] — a deterministic MAC-based signature scheme with a trusted
//!   key registry, standing in for ECDSA. It is *not* a public-key scheme;
//!   it is a simulation substitute (documented in `DESIGN.md`) whose only
//!   purpose is to provide per-identity unforgeability against the modelled
//!   adversary and a realistic verification cost hook.
//!
//!   The registry doubles as the node's **request-authentication pipeline**
//!   (the per-request cost Section 6.3 identifies as the term batching and
//!   sharding cannot amortize). Three tiers, fastest first:
//!
//!   1. a process-wide, sharded **verified-signature cache** keyed by the
//!      SHA-256 witness of `(identity, message, signature)` — a signature is
//!      verified at most once per process even when N simulated nodes (all
//!      holding clones of one registry) validate the same batch; only
//!      successes are cached, so a bad signature can never be laundered
//!      through the cache, and a cached entry can never vouch for a
//!      different message or signature short of a SHA-256 collision;
//!   2. `SignatureRegistry::verify_batch` — fans cache misses across a
//!      long-lived worker pool sized by `available_parallelism` (threads are
//!      spawned once per process and fed through a submission queue; the
//!      caller helps), with positional result collection. Determinism
//!      argument: workers only compute `verify_uncached`, a pure function of
//!      the item, into disjoint slots of a pre-sized buffer, so the returned
//!      vector is bit-identical to the serial oracle for every pool size
//!      (including 1); thread scheduling can change wall-clock time, never
//!      outcomes;
//!   3. `SignatureRegistry::verify_uncached` / `verify_batch_serial` — the
//!      serial MAC-recomputation oracle the other tiers are property-tested
//!      against (`tests/verify_equivalence.rs`) and that the `perf_smoke`
//!      CI binary re-checks pop-for-pop on every run.
//!
//!   Request digests feeding this pipeline are memoized inline in
//!   [`iss_types::Request`] (see [`digest::request_digest`]), so the signed
//!   content is hashed once per request handle rather than on every
//!   validate/propose/commit touch.
//! * [`threshold`] — a (k, n) threshold "signature" built from per-share
//!   MACs, standing in for BLS: an aggregate verifies only if k distinct
//!   valid shares were combined.
//! * [`merkle`] — Merkle trees over batch digests used by the ISS
//!   checkpointing sub-protocol (Section 3.5).
//! * [`digest`] — helpers for hashing requests and batches.

pub mod digest;
pub mod hmac;
pub mod merkle;
pub mod sha256;
pub mod sign;
pub mod threshold;

pub use digest::{
    batch_digest, batch_digest_uncached, maybe_batch_digest, request_digest,
    request_digest_uncached, Digest,
};
pub use hmac::{hmac_sha256, HmacKey};
pub use merkle::{merkle_root, MerkleTree};
pub use sha256::Sha256;
pub use sign::{
    Identity, KeyPair, PublicKey, Signature, SignatureRegistry, VerifyItem, PARALLEL_VERIFY_MIN,
    SIGNATURE_LEN,
};
pub use threshold::{ThresholdScheme, ThresholdShare, ThresholdSignature};
