//! Client requests and request batches.
//!
//! A request `r = (o, id)` carries an opaque payload `o` and a unique
//! identifier `id = (t, c)` where `t` is a per-client logical timestamp and
//! `c` the client identity (Section 2.1 of the paper). Requests are grouped
//! into batches; ISS agrees on the assignment of one batch to every log
//! sequence number.
//!
//! Both types are designed for the zero-copy hot path of the ISS node:
//! payloads and signatures are refcounted [`Bytes`] (cloning a [`Request`]
//! never copies payload bytes), a [`Batch`] is a refcounted handle to its
//! request storage (cloning is an `Arc` bump, independent of batch size),
//! and a batch memoizes its digest so it is computed at most once per
//! process no matter how many times the batch changes hands.

use crate::ids::{BucketId, ClientId, ReqTimestamp};
use bytes::Bytes;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Unique request identifier `id = (t, c)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId {
    /// The submitting client.
    pub client: ClientId,
    /// The client's logical timestamp (per-client sequence number).
    pub timestamp: ReqTimestamp,
}

impl RequestId {
    /// Creates a request identifier.
    pub fn new(client: ClientId, timestamp: ReqTimestamp) -> Self {
        RequestId { client, timestamp }
    }

    /// Maps the request to its bucket using the paper's payload-independent
    /// hash `b = (c || t) mod |B|` (Section 3.7).
    ///
    /// The payload is deliberately excluded so malicious clients cannot bias
    /// the distribution of requests over buckets by crafting payloads.
    pub fn bucket(&self, num_buckets: usize) -> BucketId {
        debug_assert!(num_buckets > 0, "bucket count must be positive");
        // A small multiplicative mix of (c, t); deterministic and uniform for
        // the identifier space clients are allowed to use (watermarks bound t).
        let c = self.client.0 as u64;
        let mixed = c
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.timestamp.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        let mixed = (mixed ^ (mixed >> 31)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let mixed = mixed ^ (mixed >> 29);
        BucketId((mixed % num_buckets as u64) as u32)
    }
}

impl fmt::Debug for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.client, self.timestamp)
    }
}

/// Digest of a request (32 bytes). Computed by `iss-crypto`; the alias lives
/// here so the memo cell can be typed without a dependency cycle.
pub type RequestDigest = [u8; 32];

/// A client request: payload plus identifier plus the client's signature.
///
/// Payload and signature are refcounted [`Bytes`]: cloning a request is O(1)
/// and shares the underlying allocations, so requests can move between the
/// bucket queues, proposals, the log and delivery without copying payload
/// bytes.
///
/// The request digest is memoized inline (see [`Request::digest_or_init`]):
/// every node-side touch of a request — reception validation, proposal
/// validation, batch hashing — needs `H(id, payload)`, and before the memo
/// each touch recomputed it. The cell is carried by clones, excluded from
/// equality/hashing, and never serialized; a request decoded from the wire
/// always starts with an empty cell, so tampered wire bytes can never reuse
/// a stale digest.
///
/// In the simulator the payload is usually represented only by its size
/// (`payload_size`) to keep memory bounded; the `payload` buffer is used by
/// the real (in-process) deployment path and the examples.
pub struct Request {
    /// Unique identifier `(t, c)`.
    pub id: RequestId,
    /// Opaque operation payload (may be empty when only the size matters).
    pub payload: Bytes,
    /// Size in bytes the payload occupies on the wire. For requests carrying
    /// a real payload this equals `payload.len()`.
    pub payload_size: u32,
    /// Client signature over `(id, payload)`. Empty when signatures are
    /// disabled (e.g. the Raft configuration of Table 1).
    pub signature: Bytes,
    /// Memoized request digest; filled in by `iss-crypto` on first use.
    digest: OnceLock<RequestDigest>,
}

impl Clone for Request {
    fn clone(&self) -> Self {
        // Carry the memo: a clone of an already-hashed request must not pay
        // for the hash again. `OnceLock` itself is not `Clone`, so the
        // computed value (if any) is moved into a fresh cell.
        let digest = OnceLock::new();
        if let Some(d) = self.digest.get() {
            let _ = digest.set(*d);
        }
        Request {
            id: self.id,
            payload: self.payload.clone(),
            payload_size: self.payload_size,
            signature: self.signature.clone(),
            digest,
        }
    }
}

impl PartialEq for Request {
    fn eq(&self, other: &Self) -> bool {
        // The digest memo is derived state and deliberately excluded: two
        // equal requests compare equal whether or not either has been hashed.
        self.id == other.id
            && self.payload == other.payload
            && self.payload_size == other.payload_size
            && self.signature == other.signature
    }
}

impl Eq for Request {}

impl std::hash::Hash for Request {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
        self.payload.hash(state);
        self.payload_size.hash(state);
        self.signature.hash(state);
    }
}

impl Request {
    /// Creates a request with a real payload.
    pub fn new(client: ClientId, timestamp: ReqTimestamp, payload: impl Into<Bytes>) -> Self {
        let payload = payload.into();
        let payload_size = payload.len() as u32;
        Request {
            id: RequestId::new(client, timestamp),
            payload,
            payload_size,
            signature: Bytes::new(),
            digest: OnceLock::new(),
        }
    }

    /// Creates a request that carries only a payload size (simulation mode).
    pub fn synthetic(client: ClientId, timestamp: ReqTimestamp, payload_size: u32) -> Self {
        Request {
            id: RequestId::new(client, timestamp),
            payload: Bytes::new(),
            payload_size,
            signature: Bytes::new(),
            digest: OnceLock::new(),
        }
    }

    /// Attaches a signature, returning the signed request.
    pub fn with_signature(mut self, signature: impl Into<Bytes>) -> Self {
        self.signature = signature.into();
        self
    }

    /// Maps the request to its bucket (see [`RequestId::bucket`]).
    pub fn bucket(&self, num_buckets: usize) -> BucketId {
        self.id.bucket(num_buckets)
    }

    /// The memoized request digest, if it has been computed already.
    pub fn cached_digest(&self) -> Option<&RequestDigest> {
        self.digest.get()
    }

    /// Returns the request digest, computing it with `compute` at most once
    /// per handle (clones carry the memo forward). The hash function lives
    /// in `iss-crypto`; this cell only stores the result. Thread-safe: two
    /// threads racing on a cold cell both compute, one result wins.
    ///
    /// Trust model: like the [`Batch`] digest memo, the cell is an
    /// in-process cache — whoever first touches a handle decides its memo,
    /// and downstream code (including signature verification) trusts it.
    /// That is sound in this codebase because in-memory `Request` handles
    /// only travel between components of the same trust domain: anything
    /// that crossed a real trust boundary goes through the wire codec,
    /// which always constructs cold cells, so tampered bytes can never
    /// reuse a stale digest. A Byzantine-*process* model that hands
    /// poisoned in-memory handles to honest nodes would need to strip the
    /// memo at reception (`Request::clone` of the fields into a fresh
    /// handle) before this cell can be trusted.
    pub fn digest_or_init(&self, compute: impl FnOnce(&Request) -> RequestDigest) -> RequestDigest {
        *self.digest.get_or_init(|| compute(self))
    }
}

impl fmt::Debug for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Request({:?}, {}B)", self.id, self.payload_size)
    }
}

/// Digest of a batch (32 bytes). Computed by `iss-crypto`; stored here so the
/// type is available without a dependency cycle.
pub type BatchDigest = [u8; 32];

/// Shared storage of one batch: the requests plus the once-computed digest.
#[derive(Default)]
struct BatchInner {
    requests: Vec<Request>,
    /// Memoized batch digest; filled in by `iss-crypto` on first use and
    /// shared by every clone of the batch.
    digest: OnceLock<BatchDigest>,
}

/// A batch of client requests assigned (or proposed for assignment) to one
/// log sequence number.
///
/// A `Batch` is a cheap-clone handle: the request storage and the memoized
/// digest live behind one `Arc`, so cloning a batch — on propose, on SB
/// fan-out, on commit, on state transfer — is a refcount bump regardless of
/// how many requests or payload bytes it holds.
#[derive(Clone, Default)]
pub struct Batch {
    inner: Arc<BatchInner>,
}

impl Batch {
    /// Creates a batch from a list of requests.
    pub fn new(requests: Vec<Request>) -> Self {
        Batch {
            inner: Arc::new(BatchInner {
                requests,
                digest: OnceLock::new(),
            }),
        }
    }

    /// The empty batch (used for heartbeat proposals and HotStuff dummy
    /// blocks). All empty batches share one allocation.
    pub fn empty() -> Self {
        static EMPTY: OnceLock<Arc<BatchInner>> = OnceLock::new();
        Batch {
            inner: Arc::clone(EMPTY.get_or_init(|| Arc::new(BatchInner::default()))),
        }
    }

    /// The requests in proposal order.
    pub fn requests(&self) -> &[Request] {
        &self.inner.requests
    }

    /// Number of requests in the batch.
    pub fn len(&self) -> usize {
        self.inner.requests.len()
    }

    /// Whether the batch contains no requests.
    pub fn is_empty(&self) -> bool {
        self.inner.requests.is_empty()
    }

    /// Returns the identifiers of all requests in the batch.
    pub fn request_ids(&self) -> impl Iterator<Item = RequestId> + '_ {
        self.requests().iter().map(|r| r.id)
    }

    /// The memoized digest, if it has been computed already.
    pub fn cached_digest(&self) -> Option<&BatchDigest> {
        self.inner.digest.get()
    }

    /// Returns the batch digest, computing it with `compute` exactly once
    /// per batch (clones share the memo). The hash function lives in
    /// `iss-crypto`; this cell only stores the result.
    pub fn digest_or_init(&self, compute: impl FnOnce(&[Request]) -> BatchDigest) -> BatchDigest {
        *self
            .inner
            .digest
            .get_or_init(|| compute(&self.inner.requests))
    }

    /// Whether two batches are the same handle (share storage). Used as an
    /// equality fast path.
    pub fn ptr_eq(&self, other: &Batch) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl PartialEq for Batch {
    fn eq(&self, other: &Self) -> bool {
        // Clones share storage, so the common case is O(1). Distinct handles
        // compare by content — deliberately NOT by memoized digest: the
        // digest does not cover signatures and is caller-supplied via
        // `digest_or_init`, so using it here would make equality depend on
        // hashing history.
        self.ptr_eq(other) || self.requests() == other.requests()
    }
}

impl Eq for Batch {}

impl fmt::Debug for Batch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Batch")
            .field("requests", &self.inner.requests)
            .field("digest", &self.cached_digest().map(|_| "memoized"))
            .finish()
    }
}

impl FromIterator<Request> for Batch {
    fn from_iter<T: IntoIterator<Item = Request>>(iter: T) -> Self {
        Batch::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_mapping_ignores_payload() {
        let a = Request::new(ClientId(1), 7, vec![1, 2, 3]);
        let b = Request::new(ClientId(1), 7, vec![9, 9, 9, 9, 9]);
        assert_eq!(a.bucket(16), b.bucket(16));
    }

    #[test]
    fn bucket_mapping_in_range_and_spread() {
        let num_buckets = 16;
        let mut seen = std::collections::HashSet::new();
        for c in 0..64u32 {
            for t in 0..16u64 {
                let b = RequestId::new(ClientId(c), t).bucket(num_buckets);
                assert!(b.index() < num_buckets);
                seen.insert(b);
            }
        }
        // With 1024 ids over 16 buckets we expect every bucket to be hit.
        assert_eq!(seen.len(), num_buckets);
    }

    #[test]
    fn bucket_mapping_is_deterministic() {
        let id = RequestId::new(ClientId(42), 1234);
        assert_eq!(id.bucket(32), id.bucket(32));
    }

    #[test]
    fn request_equality_is_id_and_payload() {
        let a = Request::new(ClientId(1), 1, vec![1]);
        let b = Request::new(ClientId(1), 1, vec![1]);
        let c = Request::new(ClientId(1), 2, vec![1]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn batch_helpers() {
        let reqs = vec![
            Request::synthetic(ClientId(0), 0, 100),
            Request::synthetic(ClientId(1), 0, 100),
        ];
        let b = Batch::new(reqs.clone());
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
        assert!(Batch::empty().is_empty());
        let ids: Vec<_> = b.request_ids().collect();
        assert_eq!(ids, vec![reqs[0].id, reqs[1].id]);
    }

    #[test]
    fn request_clone_shares_payload_storage() {
        let payload = Bytes::from(vec![7u8; 4096]);
        let r = Request::new(ClientId(0), 0, payload.clone());
        let c = r.clone();
        // Bytes equality plus the slices pointing at the same address prove
        // the clone did not copy the payload.
        assert_eq!(c.payload, r.payload);
        assert_eq!(c.payload.as_ptr(), r.payload.as_ptr());
    }

    #[test]
    fn batch_clone_is_a_refcount_bump() {
        let b = Batch::new(
            (0..64u32)
                .map(|i| Request::synthetic(ClientId(i), 0, 100))
                .collect(),
        );
        let c = b.clone();
        assert!(b.ptr_eq(&c));
        assert_eq!(b, c);
    }

    #[test]
    fn digest_memo_is_computed_once_and_shared_by_clones() {
        let b = Batch::new(vec![Request::synthetic(ClientId(1), 2, 3)]);
        assert!(b.cached_digest().is_none());
        let c = b.clone();
        let mut calls = 0;
        let d1 = b.digest_or_init(|_| {
            calls += 1;
            [0xAB; 32]
        });
        // The clone sees the memo and never recomputes.
        let d2 = c.digest_or_init(|_| {
            calls += 1;
            [0xCD; 32]
        });
        assert_eq!(calls, 1);
        assert_eq!(d1, d2);
        assert_eq!(c.cached_digest(), Some(&[0xAB; 32]));
    }

    #[test]
    fn request_digest_memo_is_carried_by_clones_but_not_compared() {
        let r = Request::new(ClientId(1), 2, vec![3u8; 8]);
        assert!(r.cached_digest().is_none());
        let mut calls = 0;
        let d1 = r.digest_or_init(|_| {
            calls += 1;
            [0xAB; 32]
        });
        // A clone carries the memo and never recomputes.
        let c = r.clone();
        let d2 = c.digest_or_init(|_| {
            calls += 1;
            [0xCD; 32]
        });
        assert_eq!(calls, 1);
        assert_eq!(d1, d2);
        // The memo does not leak into equality: a fresh, never-hashed request
        // with the same content still compares equal.
        assert_eq!(r, Request::new(ClientId(1), 2, vec![3u8; 8]));
    }

    #[test]
    fn with_signature_preserves_the_digest_memo() {
        // The digest covers (id, payload) but not the signature, so attaching
        // a signature must not invalidate the memo.
        let r = Request::new(ClientId(1), 2, vec![3u8; 8]);
        r.digest_or_init(|_| [0x11; 32]);
        let signed = r.with_signature(vec![0u8; 64]);
        assert_eq!(signed.cached_digest(), Some(&[0x11; 32]));
    }

    #[test]
    fn empty_batches_share_storage() {
        assert!(Batch::empty().ptr_eq(&Batch::empty()));
        assert_eq!(Batch::default(), Batch::empty());
    }
}
