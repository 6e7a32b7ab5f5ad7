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
//!   it is a simulation substitute (see
//!   `docs/threat-model.md#simplifications`) whose only purpose is to
//!   provide per-identity unforgeability against the modelled adversary and
//!   a realistic verification cost hook.
//!
//!   Request authentication is one MAC recomputation per signature checked,
//!   on the caller's thread. The request digests it signs over are
//!   memoized inline in [`iss_types::Request`] (see
//!   [`digest::request_digest`]), so the signed content is hashed once per
//!   request handle rather than on every validate/propose/commit touch.
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
    Identity, KeyPair, PublicKey, Signature, SignatureRegistry, VerifyItem, SIGNATURE_LEN,
};
pub use threshold::{ThresholdScheme, ThresholdShare, ThresholdSignature};
