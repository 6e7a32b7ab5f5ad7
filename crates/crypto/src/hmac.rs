//! HMAC-SHA-256 (RFC 2104).
//!
//! Two entry points that agree on every input: [`hmac_sha256`] is the
//! one-shot translation of the RFC (key block, two pads, two hashes), kept
//! as the reference; [`HmacKey`] holds the SHA-256 states left by the two
//! pad blocks, so a key that authenticates many messages compresses its pads
//! once instead of once per MAC. For a 32-byte message (a request digest)
//! that is two compressions per MAC instead of four.

use crate::sha256::Sha256;

const BLOCK_SIZE: usize = 64;

/// The RFC's `K'`: `key` zero-padded to a block, hashed first if longer.
fn key_block(key: &[u8]) -> [u8; BLOCK_SIZE] {
    let mut block = [0u8; BLOCK_SIZE];
    if key.len() > BLOCK_SIZE {
        block[..32].copy_from_slice(&Sha256::digest(key));
    } else {
        block[..key.len()].copy_from_slice(key);
    }
    block
}

/// Computes `HMAC-SHA256(key, message)`.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    let key_block = key_block(key);
    let ipad = key_block.map(|b| b ^ 0x36);
    let opad = key_block.map(|b| b ^ 0x5c);
    let inner = Sha256::digest_parts(&[&ipad, message]);
    Sha256::digest_parts(&[&opad, &inner])
}

/// An HMAC-SHA-256 key with both pad blocks already compressed: the inner
/// and outer hashes of every [`HmacKey::mac`] resume from these two states.
/// The states are as secret as the key they were derived from.
#[derive(Clone)]
pub struct HmacKey {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl HmacKey {
    /// Prepares `key` (any length; hashed first if longer than a block).
    pub fn new(key: &[u8]) -> Self {
        let key_block = key_block(key);
        let pad_state = |pad: u8| {
            let mut h = Sha256::new();
            h.update(&key_block.map(|b| b ^ pad));
            h.midstate()
        };
        HmacKey {
            inner: pad_state(0x36),
            outer: pad_state(0x5c),
        }
    }

    /// Computes `HMAC-SHA256(key, message)`.
    pub fn mac(&self, message: &[u8]) -> [u8; 32] {
        let mut inner = Sha256::resume(self.inner, 1);
        inner.update(message);
        let mut outer = Sha256::resume(self.outer, 1);
        outer.update(&inner.finalize());
        outer.finalize()
    }
}

impl std::fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("HmacKey(..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::to_hex;
    use proptest::prelude::*;

    /// RFC 4231 test cases 1–4, 6 and 7 (5 truncates the output): short
    /// keys, a block-sized message, and the two 131-byte keys that must be
    /// hashed first. Checked through both entry points.
    #[test]
    fn rfc4231_vectors_one_shot_and_prepared_key() {
        let case4_key: Vec<u8> = (1..=25).collect();
        let vectors: [(&[u8], &[u8], &str); 6] = [
            (
                &[0x0b; 20],
                b"Hi There",
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe",
                b"what do ya want for nothing?",
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                &[0xaa; 20],
                &[0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                &case4_key,
                &[0xcd; 50],
                "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
            ),
            (
                &[0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First",
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
            (
                &[0xaa; 131],
                b"This is a test using a larger than block-size key and a larger \
than block-size data. The key needs to be hashed before being used by the HMAC algorithm.",
                "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
            ),
        ];
        for (i, (key, data, expected)) in vectors.iter().enumerate() {
            assert_eq!(to_hex(&hmac_sha256(key, data)), *expected, "vector {i}");
            assert_eq!(
                to_hex(&HmacKey::new(key).mac(data)),
                *expected,
                "vector {i}"
            );
        }
    }

    #[test]
    fn different_keys_different_macs() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
        assert_ne!(hmac_sha256(b"k", b"m1"), hmac_sha256(b"k", b"m2"));
    }

    #[test]
    fn debug_output_hides_the_key_states() {
        assert_eq!(format!("{:?}", HmacKey::new(b"secret")), "HmacKey(..)");
    }

    proptest! {
        /// A prepared key is a cache, not a different MAC: keys on both
        /// sides of the block size, messages across several blocks.
        #[test]
        fn prepared_key_equals_one_shot(
            key in proptest::collection::vec(any::<u8>(), 0..150),
            message in proptest::collection::vec(any::<u8>(), 0..300),
        ) {
            let prepared = HmacKey::new(&key);
            prop_assert_eq!(prepared.mac(&message), hmac_sha256(&key, &message));
            // Reusable: a second MAC under the same key is unaffected.
            prop_assert_eq!(prepared.mac(&key), hmac_sha256(&key, &key));
        }
    }
}
