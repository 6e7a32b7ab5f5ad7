//! Identity signatures (substitute for 256-bit ECDSA).
//!
//! Every process (node or client) owns a [`KeyPair`]; verifiers hold a
//! [`SignatureRegistry`] mapping identities to public keys, playing the role
//! of the PKI assumed in Section 2.1 of the paper.
//!
//! The scheme is a *simulation substitute* for ECDSA (see
//! `docs/threat-model.md#simplifications`): a signature is
//! `HMAC(secret, message)` and the "public key" is a commitment
//! `SHA256(secret)`. Verification recomputes the MAC using the secret stored
//! in the registry. In a real deployment this would be replaced by an actual
//! public-key scheme; the interface (sign / verify / registry) is identical,
//! which is all the protocols depend on. Within the simulated threat model
//! the scheme is unforgeable because faulty processes never learn other
//! processes' secrets (the registry is never serialized onto the simulated
//! wire).
//!
//! What the stand-in does *not* reproduce is the cost: one verification is
//! four SHA-256 compressions (≈ 0.3–0.4 µs with a hardware SHA kernel,
//! ≈ 1.5–2 µs without), roughly 100× cheaper than the ECDSA P-256
//! verification it replaces (tens of µs). A wall-clock run with `client_signatures` on
//! therefore measures hashing, the codec and ordering — not signature
//! arithmetic; the simulator's `CpuModel` charges the paper's figure
//! instead.
//!
//! Every call to [`SignatureRegistry::verify`] recomputes the MAC, and
//! [`SignatureRegistry::verify_batch`] is that call per item, on the
//! caller's thread. As in the paper's deployment, where each replica runs
//! on its own machine, the TCP engine builds one registry per replica, and
//! every replica pays for every signature it checks.

use crate::hmac::HmacKey;
use crate::sha256::Sha256;
use iss_types::{ClientId, Error, NodeId, Result};
use std::collections::HashMap;

/// Byte length of a signature (matches the 64-byte ECDSA P-256 signatures of
/// the paper for wire-size accounting).
pub const SIGNATURE_LEN: usize = 64;

/// A signing identity: either a replica or a client.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Identity {
    /// A replica.
    Node(NodeId),
    /// A client.
    Client(ClientId),
}

/// Public verification key (a commitment to the secret).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PublicKey(pub [u8; 32]);

/// A signature over a message. Stored inline — signing and verifying are
/// allocation-free; callers that need an owned buffer (wire messages) convert
/// explicitly via [`Signature::to_vec`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Signature(pub [u8; SIGNATURE_LEN]);

impl Signature {
    /// The signature bytes as a slice.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Copies the signature into an owned heap buffer (wire encoding).
    pub fn to_vec(&self) -> Vec<u8> {
        self.0.to_vec()
    }
}

/// A key pair bound to an identity.
#[derive(Clone)]
pub struct KeyPair {
    /// The identity this key pair belongs to.
    pub identity: Identity,
    /// The 32-byte secret, held as the HMAC key prepared from it: the two
    /// pad blocks are compressed once here, not once per signature.
    secret: HmacKey,
    public: PublicKey,
}

/// Computes the signature bytes for `message` under `(secret, public)`:
/// the 32-byte MAC followed by a 32-byte binding of the MAC to the public
/// key, padding the signature to [`SIGNATURE_LEN`] so wire-size accounting
/// matches ECDSA.
fn signature_bytes(secret: &HmacKey, public: &PublicKey, message: &[u8]) -> [u8; SIGNATURE_LEN] {
    let mac = secret.mac(message);
    let mut sig = [0u8; SIGNATURE_LEN];
    sig[..32].copy_from_slice(&mac);
    sig[32..].copy_from_slice(&Sha256::digest_parts(&[&mac, &public.0]));
    sig
}

impl KeyPair {
    /// Deterministically derives the key pair of a node (test/simulation
    /// convenience; a real deployment would generate random keys).
    pub fn for_node(node: NodeId) -> Self {
        Self::derive(Identity::Node(node), b"node-key", node.0 as u64)
    }

    /// Deterministically derives the key pair of a client.
    pub fn for_client(client: ClientId) -> Self {
        Self::derive(Identity::Client(client), b"client-key", client.0 as u64)
    }

    fn derive(identity: Identity, domain: &[u8], index: u64) -> Self {
        let secret = Sha256::digest_parts(&[domain, &index.to_le_bytes()]);
        let public = Sha256::digest(&secret);
        KeyPair {
            identity,
            secret: HmacKey::new(&secret),
            public: PublicKey(public),
        }
    }

    /// Returns the public key.
    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// Signs a message.
    pub fn sign(&self, message: &[u8]) -> Signature {
        Signature(signature_bytes(&self.secret, &self.public, message))
    }
}

/// One verification work item for [`SignatureRegistry::verify_batch`]:
/// `(signer, message, signature bytes)`.
pub type VerifyItem<'a> = (Identity, &'a [u8], &'a [u8]);

/// Registry of public keys (and, in this simulation substitute, the secrets
/// needed to recompute MACs during verification). Plays the role of the PKI.
#[derive(Clone, Default)]
pub struct SignatureRegistry {
    keys: HashMap<Identity, (PublicKey, HmacKey)>,
}

impl SignatureRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a registry holding keys for `num_nodes` nodes and
    /// `num_clients` clients with deterministically derived keys.
    pub fn with_processes(num_nodes: usize, num_clients: usize) -> Self {
        let mut reg = Self::new();
        for i in 0..num_nodes {
            reg.register(KeyPair::for_node(NodeId(i as u32)));
        }
        for i in 0..num_clients {
            reg.register(KeyPair::for_client(ClientId(i as u32)));
        }
        reg
    }

    /// Registers a key pair.
    pub fn register(&mut self, kp: KeyPair) {
        self.keys.insert(kp.identity, (kp.public, kp.secret));
    }

    /// Returns the public key of an identity, if registered.
    pub fn public_key(&self, id: Identity) -> Option<PublicKey> {
        self.keys.get(&id).map(|(p, _)| *p)
    }

    /// Whether the identity is known to the registry.
    pub fn knows(&self, id: Identity) -> bool {
        self.keys.contains_key(&id)
    }

    /// Verifies `signature` over `message` for identity `id` by recomputing
    /// the MAC.
    pub fn verify(&self, id: Identity, message: &[u8], signature: &[u8]) -> Result<()> {
        let (public, secret) = self
            .keys
            .get(&id)
            .ok_or_else(|| Error::Unknown(format!("no key registered for {id:?}")))?;
        if signature.len() != SIGNATURE_LEN {
            return Err(Error::CryptoFailure(format!(
                "signature length {} != {SIGNATURE_LEN}",
                signature.len()
            )));
        }
        if signature_bytes(secret, public, message).as_slice() == signature {
            Ok(())
        } else {
            Err(Error::CryptoFailure(format!(
                "invalid signature for {id:?}"
            )))
        }
    }

    /// Verifies a batch of signatures: `result[i]` is [`Self::verify`] of
    /// `items[i]`.
    pub fn verify_batch(&self, items: &[VerifyItem<'_>]) -> Vec<Result<()>> {
        items
            .iter()
            .map(|(id, m, s)| self.verify(*id, m, s))
            .collect()
    }

    /// The same as [`Self::verify`]. Exists only for `bench/src/micro.rs`.
    #[doc(hidden)]
    pub fn verify_uncached(&self, id: Identity, message: &[u8], signature: &[u8]) -> Result<()> {
        self.verify(id, message, signature)
    }

    /// Does nothing: the registry caches no verification. Exists only for
    /// `bench/src/micro.rs`.
    #[doc(hidden)]
    pub fn clear_verified_cache(&self) {}

    /// Verifies a signature by a node.
    pub fn verify_node(&self, node: NodeId, message: &[u8], signature: &[u8]) -> Result<()> {
        self.verify(Identity::Node(node), message, signature)
    }

    /// Verifies a signature by a client.
    pub fn verify_client(&self, client: ClientId, message: &[u8], signature: &[u8]) -> Result<()> {
        self.verify(Identity::Client(client), message, signature)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_and_verify_roundtrip() {
        let reg = SignatureRegistry::with_processes(4, 2);
        let kp = KeyPair::for_node(NodeId(2));
        let sig = kp.sign(b"hello");
        assert_eq!(sig.0.len(), SIGNATURE_LEN);
        assert_eq!(sig.as_bytes(), &sig.to_vec()[..]);
        reg.verify_node(NodeId(2), b"hello", &sig.0).unwrap();
    }

    #[test]
    fn verification_rejects_wrong_message() {
        let reg = SignatureRegistry::with_processes(4, 0);
        let sig = KeyPair::for_node(NodeId(1)).sign(b"a");
        assert!(reg.verify_node(NodeId(1), b"b", &sig.0).is_err());
    }

    #[test]
    fn verification_rejects_wrong_identity() {
        let reg = SignatureRegistry::with_processes(4, 4);
        let sig = KeyPair::for_node(NodeId(1)).sign(b"msg");
        assert!(reg.verify_node(NodeId(2), b"msg", &sig.0).is_err());
        assert!(reg.verify_client(ClientId(1), b"msg", &sig.0).is_err());
    }

    #[test]
    fn verification_rejects_unknown_identity() {
        let reg = SignatureRegistry::with_processes(2, 0);
        let sig = KeyPair::for_node(NodeId(5)).sign(b"msg");
        assert!(matches!(
            reg.verify_node(NodeId(5), b"msg", &sig.0),
            Err(Error::Unknown(_))
        ));
    }

    #[test]
    fn verification_rejects_malformed_signature() {
        let reg = SignatureRegistry::with_processes(1, 0);
        assert!(reg.verify_node(NodeId(0), b"msg", b"short").is_err());
    }

    #[test]
    fn client_signatures_work() {
        let reg = SignatureRegistry::with_processes(0, 3);
        let kp = KeyPair::for_client(ClientId(2));
        let sig = kp.sign(b"request");
        reg.verify_client(ClientId(2), b"request", &sig.0).unwrap();
        assert!(reg.knows(Identity::Client(ClientId(2))));
        assert!(!reg.knows(Identity::Client(ClientId(9))));
        assert!(reg.public_key(Identity::Client(ClientId(2))).is_some());
    }

    #[test]
    fn signatures_are_deterministic_per_key() {
        let kp = KeyPair::for_node(NodeId(0));
        assert_eq!(kp.sign(b"m"), kp.sign(b"m"));
        assert_ne!(kp.sign(b"m"), KeyPair::for_node(NodeId(1)).sign(b"m"));
    }
}
