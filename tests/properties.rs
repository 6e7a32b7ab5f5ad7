//! Property-based tests of the ISS core invariants, exercised through the
//! public API of the facade crate.

use iss::core::buckets::{BucketAssignment, BucketQueues};
use iss::core::epoch::EpochConfig;
use iss::core::log::IssLog;
use iss::core::policy::LeaderPolicy;
use iss::crypto::{merkle_root, MerkleTree, Sha256};
use iss::types::{Batch, ClientId, IssConfig, LeaderPolicyKind, NodeId, Request, SeqNr};
use proptest::prelude::*;
use std::collections::HashSet;

proptest! {
    /// Section 2.4: the bucket assignment is a partition — every bucket is
    /// assigned to exactly one leader in every epoch, for any leaderset.
    #[test]
    fn bucket_assignment_is_always_a_partition(
        epoch in 0u64..50,
        n in 1usize..24,
        leader_mask in proptest::collection::vec(any::<bool>(), 1..24),
    ) {
        let all: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        let mut leaders: Vec<NodeId> = all
            .iter()
            .zip(leader_mask.iter().cycle())
            .filter(|(_, keep)| **keep)
            .map(|(node, _)| *node)
            .collect();
        if leaders.is_empty() {
            leaders.push(all[0]);
        }
        let num_buckets = n * 16;
        let assignment = BucketAssignment::compute(epoch, num_buckets, &all, &leaders);
        let mut seen = HashSet::new();
        for per_leader in &assignment.per_leader {
            for bucket in per_leader {
                prop_assert!(seen.insert(*bucket), "bucket assigned twice");
            }
        }
        prop_assert_eq!(seen.len(), num_buckets);
    }

    /// Figure 1: segments partition the epoch's sequence numbers and the
    /// epochs are contiguous (no gaps, no overlaps).
    #[test]
    fn epochs_are_contiguous_and_segments_partition_them(
        num_nodes in 4usize..12,
        leaders_per_epoch in proptest::collection::vec(1usize..8, 1..4),
    ) {
        let mut config = IssConfig::pbft(num_nodes);
        config.min_epoch_length = 24;
        config.min_segment_size = 2;
        let mut first = 0u64;
        for (e, leader_count) in leaders_per_epoch.iter().enumerate() {
            let leaders: Vec<NodeId> =
                (0..*leader_count.min(&num_nodes) as u32).map(NodeId).collect();
            let epoch = EpochConfig::build(&config, e as u64, first, leaders);
            prop_assert_eq!(epoch.first_seq_nr, first);
            let mut all: Vec<SeqNr> = epoch.segments.iter().flat_map(|s| s.seq_nrs.clone()).collect();
            all.sort_unstable();
            let expected: Vec<SeqNr> = epoch.seq_nrs().collect();
            prop_assert_eq!(all, expected);
            first = epoch.next_first_seq_nr();
        }
    }

    /// Bucket queues never hold duplicates and cutting a batch never returns
    /// a request that maps outside the allowed buckets.
    #[test]
    fn bucket_queue_invariants(
        ops in proptest::collection::vec((0u32..32, 0u64..64), 1..200),
        allowed in proptest::collection::vec(0u32..16, 1..8),
        max_size in 1usize..64,
    ) {
        let mut queues = BucketQueues::new(16);
        for (client, ts) in &ops {
            queues.add(Request::synthetic(ClientId(*client), *ts, 100));
        }
        let unique: HashSet<(u32, u64)> = ops.iter().copied().collect();
        prop_assert_eq!(queues.len(), unique.len());
        let allowed: Vec<iss::types::BucketId> =
            allowed.into_iter().map(iss::types::BucketId).collect();
        let before = queues.len();
        let batch = queues.cut_batch(&allowed, max_size);
        prop_assert!(batch.len() <= max_size);
        prop_assert_eq!(queues.len(), before - batch.len());
        for req in batch.requests() {
            prop_assert!(allowed.contains(&req.bucket(16)));
        }
    }

    /// Equation 2: delivery numbering is dense and gap-free regardless of the
    /// order in which positions commit and of ⊥ entries.
    #[test]
    fn log_delivery_numbering_is_dense(
        entries in proptest::collection::vec(proptest::option::of(0usize..5), 1..40),
        order in proptest::collection::vec(any::<u16>(), 1..40),
    ) {
        let mut log = IssLog::new();
        // Commit positions in a permuted order.
        let mut positions: Vec<usize> = (0..entries.len()).collect();
        positions.sort_by_key(|p| order.get(*p).copied().unwrap_or(0));
        let mut delivered = Vec::new();
        for p in positions {
            let batch = entries[p].map(|len| {
                Batch::new(
                    (0..len as u32)
                        .map(|i| Request::synthetic(ClientId(i), p as u64, 10))
                        .collect(),
                )
            });
            log.commit(p as u64, batch, NodeId(0));
            for d in log.deliver_ready() {
                delivered.extend(d.numbered().map(|(nr, _)| nr));
            }
        }
        let expected_total: usize = entries.iter().map(|e| e.unwrap_or(0)).sum();
        prop_assert_eq!(delivered.len(), expected_total);
        for (i, nr) in delivered.iter().enumerate() {
            prop_assert_eq!(*nr, i as u64, "request sequence numbers must be dense");
        }
        prop_assert_eq!(log.first_undelivered(), entries.len() as u64);
    }

    /// The leader policies never return an empty leaderset and BLACKLIST
    /// never excludes more than f nodes.
    #[test]
    fn leader_policies_respect_bounds(
        n in 4usize..16,
        failures in proptest::collection::vec((0u32..16, 0u64..500), 0..32),
    ) {
        let f = (n - 1) / 3;
        let nodes: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        for kind in [LeaderPolicyKind::Simple, LeaderPolicyKind::Backoff, LeaderPolicyKind::Blacklist] {
            let mut policy = LeaderPolicy::new(kind, nodes.clone(), f, 4, 1);
            for (node, sn) in &failures {
                policy.record_nil_delivery(NodeId(node % n as u32), *sn);
            }
            policy.on_epoch_end((0, 255));
            let leaders = policy.leaders(1);
            prop_assert!(!leaders.is_empty());
            prop_assert!(leaders.iter().all(|l| nodes.contains(l)));
            if kind == LeaderPolicyKind::Blacklist {
                prop_assert!(leaders.len() >= n - f);
            }
        }
    }

    /// Merkle inclusion proofs verify for every leaf and fail for any other
    /// leaf, for arbitrary tree sizes.
    #[test]
    fn merkle_proofs_sound_and_complete(leaves in 1usize..40, probe in any::<u64>()) {
        let data: Vec<[u8; 32]> = (0..leaves as u64)
            .map(|i| Sha256::digest(&i.to_le_bytes()))
            .collect();
        let tree = MerkleTree::build(&data);
        let root = merkle_root(&data);
        prop_assert_eq!(tree.root(), root);
        let idx = (probe % leaves as u64) as usize;
        let proof = tree.prove(idx).expect("index in range");
        prop_assert!(MerkleTree::verify(&root, &data[idx], &proof));
        let wrong = Sha256::digest(b"not a leaf");
        prop_assert!(!MerkleTree::verify(&root, &wrong, &proof));
    }
}

proptest! {
    /// Zero-copy invariant: the digest memoized on a batch equals a fresh
    /// recomputation from its requests, before and after a codec round-trip
    /// (the decoded batch is backed by sub-slices of the wire buffer, which
    /// must not change its identity).
    #[test]
    fn batch_digest_memo_matches_fresh_recompute_after_roundtrip(
        specs in proptest::collection::vec((0u32..64, 0u64..1000, 0usize..80, 0usize..72), 0..24),
    ) {
        use iss::crypto::{batch_digest, batch_digest_uncached};
        use iss::messages::codec;

        let batch = Batch::new(
            specs
                .iter()
                .map(|(c, t, plen, slen)| {
                    Request::new(ClientId(*c), *t, vec![0xA5u8; *plen])
                        .with_signature(vec![0x5Au8; *slen])
                })
                .collect(),
        );
        // First call computes and memoizes; the memo must equal the raw hash.
        let memoized = batch_digest(&batch);
        prop_assert_eq!(memoized, batch_digest_uncached(batch.requests()));
        prop_assert_eq!(batch.cached_digest(), Some(&memoized));

        // Round-trip through the wire format: the decoded batch (zero-copy
        // slices of the encode buffer) hashes to the same digest.
        let mut buf = bytes::BytesMut::new();
        codec::encode_batch(&batch, &mut buf);
        let mut wire = buf.freeze();
        let decoded = codec::decode_batch(&mut wire).unwrap();
        prop_assert_eq!(decoded.clone(), batch);
        prop_assert_eq!(batch_digest(&decoded), memoized);
        prop_assert_eq!(batch_digest_uncached(decoded.requests()), memoized);
    }

    /// Request payloads and signatures survive the codec unchanged for any
    /// combination of lengths, including zero-length payloads/signatures.
    #[test]
    fn codec_roundtrips_bytes_payloads(
        client in 0u32..10_000,
        ts in 0u64..1_000_000,
        payload in proptest::collection::vec(any::<u8>(), 0..600),
        sig in proptest::collection::vec(any::<u8>(), 0..80),
    ) {
        use iss::messages::codec;

        let req = Request::new(ClientId(client), ts, payload.clone()).with_signature(sig.clone());
        let mut buf = bytes::BytesMut::new();
        codec::encode_request(&req, &mut buf);
        let mut wire = buf.freeze();
        let decoded = codec::decode_request(&mut wire).unwrap();
        prop_assert_eq!(&decoded, &req);
        prop_assert_eq!(decoded.payload.as_ref(), payload.as_slice());
        prop_assert_eq!(decoded.signature.as_ref(), sig.as_slice());
        prop_assert_eq!(wire.len(), 0, "decoder must consume the request exactly");
    }
}

#[test]
fn batch_digest_is_a_cache_hit_once_computed() {
    use iss::crypto::batch_digest;

    let batch = Batch::new(
        (0..512u32)
            .map(|i| Request::new(ClientId(i), 0, vec![i as u8; 500]))
            .collect(),
    );
    assert!(
        batch.cached_digest().is_none(),
        "no digest before first use"
    );
    let first = batch_digest(&batch);
    assert_eq!(
        batch.cached_digest(),
        Some(&first),
        "digest memoized after first use"
    );
    // A clone shares the memo, and repeated calls return the cached value
    // without recomputing (observable through the shared OnceLock cell).
    let clone = batch.clone();
    assert_eq!(clone.cached_digest(), Some(&first));
    assert_eq!(batch_digest(&clone), first);
}

#[test]
fn codec_zero_length_payload_and_signature_edge_cases() {
    use iss::messages::codec;

    for (plen, slen) in [(0usize, 0usize), (0, 64), (500, 0)] {
        let req = Request::new(ClientId(7), 9, vec![1u8; plen]).with_signature(vec![2u8; slen]);
        let mut buf = bytes::BytesMut::new();
        codec::encode_request(&req, &mut buf);
        let mut wire = buf.freeze();
        let decoded = codec::decode_request(&mut wire).unwrap();
        assert_eq!(decoded, req);
        assert_eq!(decoded.payload.len(), plen);
        assert_eq!(decoded.signature.len(), slen);
    }
    // An entirely empty batch also round-trips.
    let mut buf = bytes::BytesMut::new();
    codec::encode_batch(&Batch::empty(), &mut buf);
    let mut wire = buf.freeze();
    assert_eq!(codec::decode_batch(&mut wire).unwrap(), Batch::empty());
}
