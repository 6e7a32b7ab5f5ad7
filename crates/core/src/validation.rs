//! Request validity, client watermarks and duplication prevention
//! (Sections 3.7 and 4.2, design principle 3).
//!
//! This is the hottest per-request path of a node — every request in every
//! proposal passes through [`RequestValidation::validate_proposal`] and
//! every committed request through [`RequestValidation::mark_delivered`] —
//! so its state is dense and relative to the client watermark windows the
//! ISS extended version defines duplicate prevention with. Per-request work
//! is one client lookup per pass and a bit operation, allocation-free (the
//! only per-proposal allocation left is the verify-item list handed to the
//! signature registry, one small `Vec` per *signed* proposal):
//!
//! * each client has one window (`ClientWindow`): its low watermark, its
//!   delivered timestamps as a [`BitWindow`] whose base is the first
//!   timestamp not yet delivered, and the timestamps accepted into this
//!   epoch's proposals as a [`BitWindow`] above the low watermark. Requests
//!   are admitted only inside `[low, low + window)`, and the delivered base
//!   never falls below `low`, so each bitmap spans at most one watermark
//!   window (as long as committed requests respect the window, which every
//!   correct node's validation enforces before voting);
//! * in-batch duplicates are found by test-and-set on the proposed bitmap,
//!   and a rejected proposal clears the bits it set — whether the in-batch
//!   check or the signature check rejected it — so its valid requests can
//!   still be proposed later;
//! * client signatures are checked with
//!   [`iss_crypto::SignatureRegistry::verify_batch`], one MAC recomputation
//!   per signature and per check (the simulator's scenarios turn signatures
//!   off and charge them as CPU cost instead);
//! * the per-sequence-number bucket restriction is a dense offset-indexed
//!   table of per-segment bucket bitmaps ([`EpochBuckets`]) instead of a
//!   `HashMap<SeqNr, Arc<[BucketId]>>` probed per proposal with a linear
//!   `contains` scan per request.

use iss_crypto::{request_digest, Identity, SignatureRegistry, VerifyItem};
use iss_sb::ProposalValidator;
use iss_types::{
    Batch, BitWindow, BucketId, ClientId, Error, FxHashMap, ReqTimestamp, Request, RequestDigest,
    RequestId, Result, SeqNr,
};
use std::sync::Arc;

/// The validation state of one client, all of it relative to the client's
/// watermark window.
#[derive(Clone, Debug, Default)]
struct ClientWindow {
    /// Low watermark of the current epoch (advanced at epoch starts).
    low: ReqTimestamp,
    /// Delivered timestamps: every one below its base, plus the recorded
    /// out-of-order deliveries above it.
    delivered: BitWindow,
    /// Timestamps accepted into proposals during the current epoch
    /// (prevents duplication across segments of the same epoch); its base
    /// is `low`, below which validation admits nothing.
    proposed: BitWindow,
}

/// The window of a client this node has no state for yet.
static NO_WINDOW: ClientWindow = ClientWindow {
    low: 0,
    delivered: BitWindow::new(0),
    proposed: BitWindow::new(0),
};

impl ClientWindow {
    /// Watermark-window and already-delivered checks. A timestamp *below*
    /// the low watermark can only be a re-submission of an already
    /// delivered request (watermarks advance past delivered prefixes only),
    /// so it is classified as [`Error::Replayed`] — same as an explicit
    /// delivered-set hit — while a timestamp *above* the window is merely
    /// premature and stays [`Error::LimitExceeded`].
    fn admit(&self, t: ReqTimestamp, window: u64) -> Result<()> {
        let low = self.low;
        if t < low {
            return Err(Error::replayed(format!(
                "request timestamp {t} below client low watermark {low}"
            )));
        }
        if t >= low + window {
            return Err(Error::LimitExceeded(format!(
                "request timestamp {t} outside watermark window [{low}, {})",
                low + window
            )));
        }
        if self.delivered.contains(t) {
            return Err(Error::replayed("request already delivered".to_string()));
        }
        Ok(())
    }
}

/// Marker for "this sequence number has no recorded segment" in
/// [`EpochBuckets`].
const NO_SEGMENT: u16 = u16::MAX;

/// Dense per-epoch table answering "may bucket `b` appear at sequence number
/// `sn`?" (Section 2.4: every segment draws from its own bucket subset).
///
/// Sequence numbers of an epoch form a contiguous range, so the table is
/// indexed by offset from the epoch's first sequence number; each entry
/// points at its segment's bucket *bitmap*, making the membership test two
/// array reads and a bit probe instead of a hash lookup plus a linear scan
/// of a bucket list.
#[derive(Clone, Debug, Default)]
pub struct EpochBuckets {
    first_seq_nr: SeqNr,
    num_buckets: usize,
    /// Segment index per sequence-number offset (`NO_SEGMENT` = none).
    seg_of_offset: Vec<u16>,
    /// One bucket-membership bitmap per segment.
    masks: Vec<Vec<u64>>,
}

impl EpochBuckets {
    /// Creates an empty table for an epoch starting at `first_seq_nr` over
    /// `num_buckets` buckets. Until segments are added, every sequence
    /// number is unrestricted.
    pub fn new(first_seq_nr: SeqNr, num_buckets: usize) -> Self {
        EpochBuckets {
            first_seq_nr,
            num_buckets,
            seg_of_offset: Vec::new(),
            masks: Vec::new(),
        }
    }

    /// Records one segment: all of `seq_nrs` may draw exactly from
    /// `buckets`. Segment sequence numbers below the epoch's first violate
    /// the epoch layout; they trip a debug assertion and are skipped in
    /// release builds (leaving them unrestricted rather than mis-indexed).
    pub fn add_segment(&mut self, seq_nrs: &[SeqNr], buckets: &[BucketId]) {
        let seg = u16::try_from(self.masks.len()).expect("more than u16::MAX segments");
        assert_ne!(seg, NO_SEGMENT, "more than u16::MAX - 1 segments");
        let words = self.num_buckets.div_ceil(64).max(1);
        let mut mask = vec![0u64; words];
        for b in buckets {
            let i = b.index();
            debug_assert!(i < self.num_buckets, "bucket {i} out of range");
            mask[i / 64] |= 1 << (i % 64);
        }
        self.masks.push(mask);
        for sn in seq_nrs {
            let Some(offset) = sn.checked_sub(self.first_seq_nr) else {
                debug_assert!(
                    false,
                    "segment sequence number {sn} below epoch start {}",
                    self.first_seq_nr
                );
                continue;
            };
            let offset = offset as usize;
            if offset >= self.seg_of_offset.len() {
                self.seg_of_offset.resize(offset + 1, NO_SEGMENT);
            }
            self.seg_of_offset[offset] = seg;
        }
    }

    /// The bucket bitmap of `sn`'s segment, or `None` if the sequence number
    /// has no recorded restriction.
    fn mask_of(&self, sn: SeqNr) -> Option<&[u64]> {
        let offset = sn.checked_sub(self.first_seq_nr)? as usize;
        match *self.seg_of_offset.get(offset)? {
            NO_SEGMENT => None,
            seg => Some(&self.masks[seg as usize]),
        }
    }

    /// Whether `bucket` may appear at `sn` (unrestricted sequence numbers
    /// allow everything).
    pub fn allows(&self, sn: SeqNr, bucket: BucketId) -> bool {
        match self.mask_of(sn) {
            Some(mask) => {
                let i = bucket.index();
                i < self.num_buckets && mask[i / 64] & (1 << (i % 64)) != 0
            }
            None => true,
        }
    }
}

/// The ISS-level validation state of one node. Implements the
/// [`ProposalValidator`] hook handed to the ordering protocols.
pub struct RequestValidation {
    registry: Arc<SignatureRegistry>,
    /// Whether client signatures are required (Table 1: disabled for Raft).
    verify_signatures: bool,
    num_buckets: usize,
    /// Client watermark window size.
    watermark_window: u64,
    /// Maximum number of requests a proposed batch may carry; larger batches
    /// are rejected outright before any per-request work (a Byzantine leader
    /// must not be able to buy quadratic validation time with one message).
    max_batch_size: usize,
    /// Watermarks, delivered and proposed timestamps, per client.
    clients: FxHashMap<ClientId, ClientWindow>,
    /// Requests accepted into proposals during the current epoch.
    proposed_count: usize,
    /// The bucket restriction of the current epoch's sequence numbers
    /// (set by the manager at epoch initialization).
    epoch_buckets: EpochBuckets,
    /// Reusable buffer of request digests for batched signature checks.
    digest_scratch: Vec<RequestDigest>,
    /// Proposals this node refused to vote for (malformed, oversized,
    /// duplicated, replay-carrying, or bucket-violating batches) —
    /// Byzantine-accounting, polled by the node after protocol steps.
    rejected_proposals: u64,
}

impl RequestValidation {
    /// Creates the validation state.
    pub fn new(
        registry: Arc<SignatureRegistry>,
        verify_signatures: bool,
        num_buckets: usize,
        watermark_window: u64,
        max_batch_size: usize,
    ) -> Self {
        RequestValidation {
            registry,
            verify_signatures,
            num_buckets,
            watermark_window,
            max_batch_size,
            clients: FxHashMap::default(),
            proposed_count: 0,
            epoch_buckets: EpochBuckets::default(),
            digest_scratch: Vec::new(),
            rejected_proposals: 0,
        }
    }

    /// Total proposals this node's validation has rejected so far.
    pub fn rejected_proposals(&self) -> u64 {
        self.rejected_proposals
    }

    /// Known-client check (only meaningful when signatures are verified).
    fn check_known_client(&self, req: &Request) -> Result<()> {
        if self.verify_signatures && !self.registry.knows(Identity::Client(req.id.client)) {
            return Err(Error::Unknown(format!(
                "unknown client {:?}",
                req.id.client
            )));
        }
        Ok(())
    }

    /// The window of `client` (empty if the node has seen nothing of it).
    fn window(&self, client: ClientId) -> &ClientWindow {
        self.clients.get(&client).unwrap_or(&NO_WINDOW)
    }

    /// Validates a single client request on reception (Section 3.7): known
    /// client, valid signature, within the watermark window.
    pub fn validate_request(&self, req: &Request) -> Result<()> {
        self.check_known_client(req)?;
        if self.verify_signatures {
            let digest = request_digest(req);
            self.registry
                .verify_client(req.id.client, &digest, &req.signature)?;
        }
        self.window(req.id.client)
            .admit(req.id.timestamp, self.watermark_window)
    }

    /// Whether the request was already delivered.
    pub fn is_delivered(&self, id: &RequestId) -> bool {
        self.window(id.client).delivered.contains(id.timestamp)
    }

    /// Records the delivery of a request (prevents duplication across
    /// epochs). Deliveries may arrive out of timestamp order; the delivered
    /// base follows the contiguous prefix.
    pub fn mark_delivered(&mut self, id: &RequestId) {
        let delivered = &mut self.clients.entry(id.client).or_default().delivered;
        if delivered.insert(id.timestamp) && id.timestamp == delivered.base() {
            delivered.advance();
        }
    }

    /// Epoch transition: clears the per-epoch proposal record, installs the
    /// bucket restriction for the new epoch's sequence numbers and advances
    /// client watermarks to just above the last delivered contiguous
    /// timestamp (Section 3.7: "ISS advances all clients' watermark windows
    /// at the end of each epoch").
    pub fn on_epoch_start(&mut self, epoch_buckets: EpochBuckets) {
        self.proposed_count = 0;
        self.epoch_buckets = epoch_buckets;
        for window in self.clients.values_mut() {
            window.low = window.delivered.base();
            window.proposed.reset(window.low);
        }
    }

    /// The number of requests recorded as proposed in the current epoch
    /// (diagnostics).
    pub fn proposed_in_epoch(&self) -> usize {
        self.proposed_count
    }
}

impl ProposalValidator for RequestValidation {
    fn validate_proposal(&mut self, seq_nr: SeqNr, batch: &Batch) -> Result<()> {
        let result = self.validate_proposal_inner(seq_nr, batch);
        if result.is_err() {
            self.rejected_proposals += 1;
        }
        result
    }
}

impl RequestValidation {
    fn validate_proposal_inner(&mut self, seq_nr: SeqNr, batch: &Batch) -> Result<()> {
        let requests = batch.requests();

        // Size cap first, before any per-request work: an oversized batch
        // from a malicious leader is rejected at O(1) cost.
        if requests.len() > self.max_batch_size {
            return Err(Error::LimitExceeded(format!(
                "batch carries {} requests, exceeding the maximum of {}",
                requests.len(),
                self.max_batch_size
            )));
        }

        // (a) semantics, (c) bucket membership, (b.2) no duplication against
        // proposals already accepted this epoch. Read-only: a rejection
        // here leaves nothing to undo.
        for req in requests {
            self.check_known_client(req)?;
            let window = self.window(req.id.client);
            window.admit(req.id.timestamp, self.watermark_window)?;
            if !self
                .epoch_buckets
                .allows(seq_nr, req.bucket(self.num_buckets))
            {
                return Err(Error::invalid(format!(
                    "request {:?} maps to bucket {:?} not assigned to sequence number {seq_nr}",
                    req.id,
                    req.bucket(self.num_buckets)
                )));
            }
            if window.proposed.contains(req.id.timestamp) {
                return Err(Error::invalid(format!(
                    "request {:?} already proposed in this epoch",
                    req.id
                )));
            }
        }

        // (b.1) no duplication within the batch, recording acceptance as we
        // go: after the pass above every bit is clear, so a bit found set
        // here was set by an earlier request of this batch.
        for (i, req) in requests.iter().enumerate() {
            let window = self.clients.entry(req.id.client).or_default();
            if !window.proposed.insert(req.id.timestamp) {
                self.unpropose(&requests[..i]);
                return Err(Error::invalid("duplicate request within batch"));
            }
        }

        // (a) signatures, last so the cheap checks short-circuit first.
        if self.verify_signatures {
            if let Err(e) = self.verify_client_signatures(requests) {
                self.unpropose(requests);
                return Err(e);
            }
        }
        self.proposed_count += requests.len();
        Ok(())
    }

    /// Checks every request's signature over its digest; the first failure
    /// rejects the proposal.
    fn verify_client_signatures(&mut self, requests: &[Request]) -> Result<()> {
        self.digest_scratch.clear();
        self.digest_scratch
            .extend(requests.iter().map(request_digest));
        let items: Vec<VerifyItem<'_>> = requests
            .iter()
            .zip(&self.digest_scratch)
            .map(|(req, digest)| {
                (
                    Identity::Client(req.id.client),
                    &digest[..],
                    &req.signature[..],
                )
            })
            .collect();
        self.registry.verify_batch(&items).into_iter().collect()
    }

    /// Rolls back the proposed bits a rejected proposal set for `requests`.
    fn unpropose(&mut self, requests: &[Request]) {
        for req in requests {
            if let Some(window) = self.clients.get_mut(&req.id.client) {
                window.proposed.remove(req.id.timestamp);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iss_crypto::KeyPair;
    use iss_types::ClientId;

    fn registry(clients: usize) -> Arc<SignatureRegistry> {
        Arc::new(SignatureRegistry::with_processes(4, clients))
    }

    fn signed_request(c: u32, t: u64) -> Request {
        let req = Request::new(ClientId(c), t, vec![0u8; 64]);
        let digest = request_digest(&req);
        let sig = KeyPair::for_client(ClientId(c)).sign(&digest).to_vec();
        req.with_signature(sig)
    }

    fn validation(verify: bool) -> RequestValidation {
        RequestValidation::new(registry(4), verify, 16, 128, 64)
    }

    #[test]
    fn valid_signed_request_accepted() {
        let v = validation(true);
        assert!(v.validate_request(&signed_request(1, 5)).is_ok());
    }

    #[test]
    fn bad_signature_rejected() {
        let v = validation(true);
        let mut req = signed_request(1, 5);
        let mut sig = req.signature.to_vec();
        sig[3] ^= 0xff;
        req.signature = sig.into();
        assert!(v.validate_request(&req).is_err());
    }

    #[test]
    fn unknown_client_rejected() {
        let v = validation(true);
        let req = signed_request(99, 0);
        assert!(v.validate_request(&req).is_err());
    }

    #[test]
    fn unsigned_requests_allowed_when_signatures_disabled() {
        let v = validation(false);
        let req = Request::synthetic(ClientId(77), 3, 500);
        assert!(v.validate_request(&req).is_ok());
    }

    #[test]
    fn watermark_window_enforced() {
        let mut v = validation(false);
        assert!(v
            .validate_request(&Request::synthetic(ClientId(0), 127, 1))
            .is_ok());
        assert!(v
            .validate_request(&Request::synthetic(ClientId(0), 128, 1))
            .is_err());
        // Deliver a prefix, start a new epoch: the window slides.
        for t in 0..100u64 {
            v.mark_delivered(&RequestId::new(ClientId(0), t));
        }
        v.on_epoch_start(EpochBuckets::default());
        assert!(v
            .validate_request(&Request::synthetic(ClientId(0), 200, 1))
            .is_ok());
        assert!(
            v.validate_request(&Request::synthetic(ClientId(0), 50, 1))
                .is_err(),
            "below low watermark"
        );
    }

    #[test]
    fn delivered_requests_rejected_and_tracked_compactly() {
        let mut v = validation(false);
        let id = RequestId::new(ClientId(1), 0);
        assert!(!v.is_delivered(&id));
        v.mark_delivered(&id);
        assert!(v.is_delivered(&id));
        assert!(v
            .validate_request(&Request::synthetic(ClientId(1), 0, 1))
            .is_err());
        // Out-of-order delivery collapses into the low watermark.
        v.mark_delivered(&RequestId::new(ClientId(1), 2));
        v.mark_delivered(&RequestId::new(ClientId(1), 1));
        assert!(v.is_delivered(&RequestId::new(ClientId(1), 2)));
        assert!(!v.is_delivered(&RequestId::new(ClientId(1), 3)));
    }

    #[test]
    fn replayed_requests_get_a_distinct_error() {
        let mut v = validation(false);
        // Explicitly delivered (above the delivered base): Replayed.
        v.mark_delivered(&RequestId::new(ClientId(1), 5));
        assert!(matches!(
            v.validate_request(&Request::synthetic(ClientId(1), 5, 1)),
            Err(Error::Replayed(_))
        ));
        // Delivered prefix collapsed into the low watermark, watermark
        // advanced at the epoch boundary: a cross-epoch replay is *below*
        // the window, and must also be classified as Replayed, not as a
        // generic window violation.
        for t in 0..10u64 {
            v.mark_delivered(&RequestId::new(ClientId(2), t));
        }
        v.on_epoch_start(EpochBuckets::default());
        assert!(matches!(
            v.validate_request(&Request::synthetic(ClientId(2), 3, 1)),
            Err(Error::Replayed(_))
        ));
        // A timestamp beyond the window is premature, not a replay.
        assert!(matches!(
            v.validate_request(&Request::synthetic(ClientId(2), 10_000, 1)),
            Err(Error::LimitExceeded(_))
        ));
    }

    #[test]
    fn oversized_batch_rejected_before_per_request_work() {
        let mut v = validation(false);
        let requests: Vec<Request> = (0..65)
            .map(|c| Request::synthetic(ClientId(c), 0, 8))
            .collect();
        assert!(matches!(
            v.validate_proposal(0, &Batch::new(requests)),
            Err(Error::LimitExceeded(_))
        ));
        // Nothing was marked proposed: the batch was rejected wholesale.
        assert_eq!(v.proposed_in_epoch(), 0);
        // A batch exactly at the cap passes.
        let ok: Vec<Request> = (0..64)
            .map(|c| Request::synthetic(ClientId(c), 0, 8))
            .collect();
        assert!(v.validate_proposal(0, &Batch::new(ok)).is_ok());
    }

    #[test]
    fn proposal_validation_checks_buckets_and_duplicates() {
        let mut v = validation(false);
        let req = Request::synthetic(ClientId(1), 1, 100);
        let bucket = req.bucket(16);
        let mut table = EpochBuckets::new(0, 16);
        table.add_segment(&[0], &[bucket]);
        table.add_segment(&[1], &[BucketId((bucket.0 + 1) % 16)]);
        v.on_epoch_start(table);

        // Accepted for the segment owning the request's bucket.
        assert!(v
            .validate_proposal(0, &Batch::new(vec![req.clone()]))
            .is_ok());
        // Re-proposing the same request in the same epoch is rejected.
        assert!(v
            .validate_proposal(0, &Batch::new(vec![req.clone()]))
            .is_err());
        // A different request mapping to the wrong bucket is rejected.
        let other = Request::synthetic(ClientId(2), 9, 100);
        if other.bucket(16) != BucketId((bucket.0 + 1) % 16) {
            assert!(v.validate_proposal(1, &Batch::new(vec![other])).is_err());
        }
    }

    #[test]
    fn duplicate_within_batch_rejected() {
        let mut v = validation(false);
        let req = Request::synthetic(ClientId(1), 1, 100);
        let batch = Batch::new(vec![req.clone(), req]);
        assert!(v.validate_proposal(0, &batch).is_err());
    }

    #[test]
    fn epoch_start_clears_per_epoch_state() {
        let mut v = validation(false);
        let req = Request::synthetic(ClientId(1), 1, 100);
        assert!(v
            .validate_proposal(0, &Batch::new(vec![req.clone()]))
            .is_ok());
        assert_eq!(v.proposed_in_epoch(), 1);
        v.on_epoch_start(EpochBuckets::default());
        assert_eq!(v.proposed_in_epoch(), 0);
        // The same request can be proposed again in a later epoch as long as
        // it has not been delivered.
        assert!(v.validate_proposal(10, &Batch::new(vec![req])).is_ok());
    }

    #[test]
    fn signed_proposal_batch_verifies_and_rejects_tampering() {
        let mut v = validation(true);
        let good = Batch::new(vec![
            signed_request(1, 1),
            signed_request(2, 1),
            signed_request(3, 1),
        ]);
        assert!(v.validate_proposal(0, &good).is_ok());

        let mut bad = signed_request(1, 2);
        let mut sig = bad.signature.to_vec();
        sig[7] ^= 0x01;
        bad.signature = sig.into();
        let tampered = Batch::new(vec![signed_request(2, 2), bad]);
        assert!(v.validate_proposal(1, &tampered).is_err());
    }

    #[test]
    fn epoch_buckets_dense_table() {
        let mut t = EpochBuckets::new(100, 200);
        t.add_segment(&[100, 102], &[BucketId(0), BucketId(199)]);
        t.add_segment(&[101], &[BucketId(64)]);
        assert!(t.allows(100, BucketId(0)));
        assert!(t.allows(100, BucketId(199)));
        assert!(!t.allows(100, BucketId(64)));
        assert!(t.allows(101, BucketId(64)));
        assert!(!t.allows(101, BucketId(0)));
        assert!(t.allows(102, BucketId(199)));
        // Unknown sequence numbers (below first, beyond table) are
        // unrestricted, matching the sparse-map behaviour it replaced.
        assert!(t.allows(99, BucketId(5)));
        assert!(t.allows(1000, BucketId(5)));
    }
}
