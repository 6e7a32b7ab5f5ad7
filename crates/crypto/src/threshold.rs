//! (k, n) threshold signatures (substitute for BLS).
//!
//! HotStuff quorum certificates aggregate `2f + 1` partial signatures into a
//! constant-size certificate. This module provides a simulation substitute
//! (see `docs/threat-model.md#simplifications`): each node holds a share
//! key; a share is an HMAC of the message under the share key; the
//! aggregate stores the XOR-fold of the share MACs together with the bitmap
//! of contributing signers and verifies by recomputation. The two properties the protocol relies on hold:
//!
//! 1. an aggregate that verifies proves that at least `k` *distinct* share
//!    holders signed the message, and
//! 2. the aggregate is nearly constant in size: 32 bytes of folded MACs
//!    plus the signer set, which the wire format (`iss_messages::wire`)
//!    writes as a length-prefixed bitmap of about `⌈n/8⌉` bytes, close
//!    enough to the practical constant-size claim for bandwidth accounting.

use crate::hmac::HmacKey;
use crate::sha256::Sha256;
use iss_types::{Error, NodeId, Result};

/// A partial (share) signature produced by one node.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ThresholdShare {
    /// The signing node.
    pub signer: NodeId,
    /// The share MAC.
    pub mac: [u8; 32],
}

/// An aggregated threshold signature.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ThresholdSignature {
    /// Indices of contributing signers (sorted, deduplicated).
    pub signers: Vec<NodeId>,
    /// Fold of the share MACs.
    pub aggregate: [u8; 32],
}

/// The scheme: derives share keys, signs shares, aggregates and verifies.
#[derive(Clone, Debug)]
pub struct ThresholdScheme {
    /// Total number of share holders.
    pub num_nodes: usize,
    /// Number of shares required for a valid aggregate.
    pub threshold: usize,
    /// Node `i`'s share key, derived from the domain-separation tag (e.g.
    /// one per SB instance) and prepared once, when the scheme is made.
    share_keys: Vec<HmacKey>,
}

impl ThresholdScheme {
    /// Creates a scheme for `num_nodes` share holders requiring `threshold`
    /// shares, under a domain-separation tag.
    pub fn new(num_nodes: usize, threshold: usize, domain: &[u8]) -> Result<Self> {
        if threshold == 0 || threshold > num_nodes {
            return Err(Error::config(format!(
                "invalid threshold {threshold} for {num_nodes} nodes"
            )));
        }
        let share_keys = (0..num_nodes as u32)
            .map(|node| {
                HmacKey::new(&Sha256::digest_parts(&[
                    b"threshold-share",
                    domain,
                    &node.to_le_bytes(),
                ]))
            })
            .collect();
        Ok(ThresholdScheme {
            num_nodes,
            threshold,
            share_keys,
        })
    }

    fn share_key(&self, signer: NodeId) -> Result<&HmacKey> {
        self.share_keys
            .get(signer.index())
            .ok_or_else(|| Error::Unknown(format!("unknown signer {signer:?}")))
    }

    /// Produces node `signer`'s share over `message`.
    ///
    /// # Panics
    ///
    /// If `signer` is not one of the scheme's `num_nodes` share holders.
    pub fn sign_share(&self, signer: NodeId, message: &[u8]) -> ThresholdShare {
        ThresholdShare {
            signer,
            mac: self.share_keys[signer.index()].mac(message),
        }
    }

    /// Verifies a single share.
    pub fn verify_share(&self, share: &ThresholdShare, message: &[u8]) -> Result<()> {
        if self.share_key(share.signer)?.mac(message) == share.mac {
            Ok(())
        } else {
            Err(Error::CryptoFailure(format!(
                "bad share from {:?}",
                share.signer
            )))
        }
    }

    /// Aggregates shares into a threshold signature.
    ///
    /// Fails if fewer than `threshold` distinct valid shares are provided.
    pub fn aggregate(
        &self,
        shares: &[ThresholdShare],
        message: &[u8],
    ) -> Result<ThresholdSignature> {
        let mut signers: Vec<NodeId> = Vec::new();
        let mut aggregate = [0u8; 32];
        for share in shares {
            if signers.contains(&share.signer) {
                continue;
            }
            self.verify_share(share, message)?;
            for (a, b) in aggregate.iter_mut().zip(share.mac.iter()) {
                *a ^= b;
            }
            signers.push(share.signer);
        }
        if signers.len() < self.threshold {
            return Err(Error::CryptoFailure(format!(
                "only {} distinct shares, need {}",
                signers.len(),
                self.threshold
            )));
        }
        signers.sort();
        Ok(ThresholdSignature { signers, aggregate })
    }

    /// Verifies an aggregated signature over `message`.
    pub fn verify(&self, sig: &ThresholdSignature, message: &[u8]) -> Result<()> {
        if sig.signers.len() < self.threshold {
            return Err(Error::CryptoFailure("too few signers".into()));
        }
        let mut distinct = sig.signers.clone();
        distinct.dedup();
        if distinct.len() != sig.signers.len() {
            return Err(Error::CryptoFailure("duplicate signers".into()));
        }
        let mut expected = [0u8; 32];
        for signer in &sig.signers {
            let mac = self.share_key(*signer)?.mac(message);
            for (a, b) in expected.iter_mut().zip(mac.iter()) {
                *a ^= b;
            }
        }
        if expected == sig.aggregate {
            Ok(())
        } else {
            Err(Error::CryptoFailure("aggregate mismatch".into()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheme() -> ThresholdScheme {
        ThresholdScheme::new(4, 3, b"test-instance").unwrap()
    }

    #[test]
    fn aggregate_of_quorum_verifies() {
        let s = scheme();
        let msg = b"view-3-digest";
        let shares: Vec<_> = (0..3).map(|i| s.sign_share(NodeId(i), msg)).collect();
        let agg = s.aggregate(&shares, msg).unwrap();
        s.verify(&agg, msg).unwrap();
        assert_eq!(agg.signers.len(), 3);
    }

    #[test]
    fn too_few_shares_rejected() {
        let s = scheme();
        let msg = b"m";
        let shares: Vec<_> = (0..2).map(|i| s.sign_share(NodeId(i), msg)).collect();
        assert!(s.aggregate(&shares, msg).is_err());
    }

    #[test]
    fn duplicate_shares_do_not_count_twice() {
        let s = scheme();
        let msg = b"m";
        let one = s.sign_share(NodeId(0), msg);
        let shares = vec![one.clone(), one.clone(), one];
        assert!(s.aggregate(&shares, msg).is_err());
    }

    #[test]
    fn bad_share_rejected() {
        let s = scheme();
        let msg = b"m";
        let mut share = s.sign_share(NodeId(1), msg);
        share.mac[0] ^= 1;
        assert!(s.verify_share(&share, msg).is_err());
        let good: Vec<_> = (0..2).map(|i| s.sign_share(NodeId(i), msg)).collect();
        let mut all = good;
        all.push(share);
        assert!(s.aggregate(&all, msg).is_err());
    }

    #[test]
    fn aggregate_does_not_verify_for_other_message() {
        let s = scheme();
        let shares: Vec<_> = (0..3).map(|i| s.sign_share(NodeId(i), b"a")).collect();
        let agg = s.aggregate(&shares, b"a").unwrap();
        assert!(s.verify(&agg, b"b").is_err());
    }

    #[test]
    fn domain_separation() {
        let s1 = ThresholdScheme::new(4, 3, b"inst-1").unwrap();
        let s2 = ThresholdScheme::new(4, 3, b"inst-2").unwrap();
        let msg = b"m";
        let shares: Vec<_> = (0..3).map(|i| s1.sign_share(NodeId(i), msg)).collect();
        let agg = s1.aggregate(&shares, msg).unwrap();
        assert!(s2.verify(&agg, msg).is_err());
    }

    #[test]
    fn tampered_aggregate_rejected() {
        let s = scheme();
        let msg = b"m";
        let shares: Vec<_> = (0..3).map(|i| s.sign_share(NodeId(i), msg)).collect();
        let mut agg = s.aggregate(&shares, msg).unwrap();
        agg.aggregate[5] ^= 0x10;
        assert!(s.verify(&agg, msg).is_err());
        let mut agg2 = s.aggregate(&shares, msg).unwrap();
        agg2.signers = vec![NodeId(0), NodeId(0), NodeId(1)];
        assert!(s.verify(&agg2, msg).is_err());
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(ThresholdScheme::new(4, 0, b"x").is_err());
        assert!(ThresholdScheme::new(4, 5, b"x").is_err());
    }

    #[test]
    fn unknown_signer_rejected() {
        let s = scheme();
        let share = ThresholdShare {
            signer: NodeId(9),
            mac: [0u8; 32],
        };
        assert!(s.verify_share(&share, b"m").is_err());
    }
}
