//! Model-based property tests of `RequestValidation`: random operation
//! sequences run against the real validation state and against a plain
//! `HashSet` model of the rules (Section 3.7), and must agree step by step.
//!
//! The model keeps every delivered and proposed request id in hash sets and
//! recomputes each client's low watermark from scratch at epoch starts; the
//! implementation keeps per-client bitmaps relative to those watermarks.

use iss_core::validation::{EpochBuckets, RequestValidation};
use iss_crypto::{request_digest, KeyPair, SignatureRegistry};
use iss_sb::ProposalValidator;
use iss_types::{Batch, BucketId, ClientId, Error, Request, RequestId, Result};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::mem::discriminant;
use std::sync::Arc;

const CLIENTS: u32 = 4;
const WINDOW: u64 = 16;
const NUM_BUCKETS: usize = 8;
const MAX_BATCH: usize = 8;

/// The validation rules over plain hash sets.
#[derive(Default)]
struct Model {
    verify_signatures: bool,
    delivered: HashSet<RequestId>,
    low: HashMap<ClientId, u64>,
    proposed: HashSet<RequestId>,
    rejected: u64,
}

impl Model {
    fn low(&self, client: ClientId) -> u64 {
        self.low.get(&client).copied().unwrap_or(0)
    }

    fn on_epoch_start(&mut self) {
        self.proposed.clear();
        let clients: HashSet<ClientId> = self.delivered.iter().map(|id| id.client).collect();
        for client in clients {
            let mut low = 0;
            while self.delivered.contains(&RequestId::new(client, low)) {
                low += 1;
            }
            self.low.insert(client, low);
        }
    }

    fn admit(&self, req: &Request) -> Result<()> {
        if self.verify_signatures && req.id.client.0 >= CLIENTS {
            return Err(Error::Unknown(String::new()));
        }
        let low = self.low(req.id.client);
        if req.id.timestamp < low {
            return Err(Error::Replayed(String::new()));
        }
        if req.id.timestamp >= low + WINDOW {
            return Err(Error::LimitExceeded(String::new()));
        }
        if self.delivered.contains(&req.id) {
            return Err(Error::Replayed(String::new()));
        }
        Ok(())
    }

    fn validate_proposal(&mut self, seq_nr: u64, requests: &[(Request, bool)]) -> Result<()> {
        let result = self.validate_proposal_inner(seq_nr, requests);
        if result.is_err() {
            self.rejected += 1;
        }
        result
    }

    fn validate_proposal_inner(&mut self, seq_nr: u64, requests: &[(Request, bool)]) -> Result<()> {
        if requests.len() > MAX_BATCH {
            return Err(Error::LimitExceeded(String::new()));
        }
        for (req, _) in requests {
            self.admit(req)?;
            if !bucket_allowed(seq_nr, req.bucket(NUM_BUCKETS)) {
                return Err(Error::invalid(""));
            }
            if self.proposed.contains(&req.id) {
                return Err(Error::invalid(""));
            }
        }
        let mut seen = HashSet::new();
        if !requests.iter().all(|(req, _)| seen.insert(req.id)) {
            return Err(Error::invalid(""));
        }
        if self.verify_signatures && requests.iter().any(|(_, bad)| *bad) {
            return Err(Error::CryptoFailure(String::new()));
        }
        self.proposed.extend(requests.iter().map(|(req, _)| req.id));
        Ok(())
    }
}

/// Sequence number 0 admits even buckets only; 1 admits every bucket.
fn bucket_allowed(seq_nr: u64, bucket: BucketId) -> bool {
    seq_nr != 0 || bucket.0.is_multiple_of(2)
}

fn epoch_buckets() -> EpochBuckets {
    let mut table = EpochBuckets::new(0, NUM_BUCKETS);
    let even: Vec<BucketId> = (0..NUM_BUCKETS as u32)
        .filter(|b| b.is_multiple_of(2))
        .map(BucketId)
        .collect();
    let all: Vec<BucketId> = (0..NUM_BUCKETS as u32).map(BucketId).collect();
    table.add_segment(&[0], &even);
    table.add_segment(&[1], &all);
    table
}

fn validation(verify_signatures: bool) -> RequestValidation {
    let registry = Arc::new(SignatureRegistry::with_processes(4, CLIENTS as usize));
    let mut v = RequestValidation::new(registry, verify_signatures, NUM_BUCKETS, WINDOW, MAX_BATCH);
    v.on_epoch_start(epoch_buckets());
    v
}

/// A request, validly signed by its client unless `bad_signature`.
fn request(id: RequestId, bad_signature: bool) -> Request {
    let req = Request::new(id.client, id.timestamp, vec![id.timestamp as u8; 8]);
    let key = if id.client.0 < CLIENTS {
        KeyPair::for_client(id.client)
    } else {
        KeyPair::for_client(ClientId(0))
    };
    let mut sig = key.sign(&request_digest(&req)).to_vec();
    if bad_signature {
        sig[0] ^= 0x01;
    }
    req.with_signature(sig)
}

/// A timestamp around the client's current window in the model: a little
/// below `low`, anywhere inside it, and up to `low + WINDOW + 1`.
fn timestamp(model: &Model, client: ClientId, delta: u64) -> u64 {
    (model.low(client) + delta).saturating_sub(2)
}

fn same_kind(a: &Result<()>, b: &Result<()>) -> bool {
    match (a, b) {
        (Ok(()), Ok(())) => true,
        (Err(x), Err(y)) => discriminant(x) == discriminant(y),
        _ => false,
    }
}

proptest! {
    /// Out-of-order deliveries, membership probes and epoch starts, with
    /// timestamps up to and past `low + WINDOW - 1`: `is_delivered` and the
    /// window checks of `validate_request` agree with the model throughout.
    #[test]
    fn delivered_windows_match_a_hash_set_model(
        ops in proptest::collection::vec((0u8..10, 0u32..2, 0u64..WINDOW + 4), 1..600),
    ) {
        let mut v = validation(false);
        let mut model = Model::default();
        for (op, c, delta) in ops {
            let client = ClientId(c);
            let id = RequestId::new(client, timestamp(&model, client, delta));
            match op {
                0..=5 => {
                    v.mark_delivered(&id);
                    model.delivered.insert(id);
                }
                6 | 7 => {
                    prop_assert_eq!(v.is_delivered(&id), model.delivered.contains(&id), "{:?}", id);
                    let req = request(id, false);
                    let (got, want) = (v.validate_request(&req), model.admit(&req));
                    prop_assert!(same_kind(&got, &want), "{:?}: {:?} vs model {:?}", id, got, want);
                }
                _ => {
                    v.on_epoch_start(epoch_buckets());
                    model.on_epoch_start();
                }
            }
        }
        for c in 0..CLIENTS {
            for t in 0..model.low(ClientId(c)) + 2 * WINDOW {
                let id = RequestId::new(ClientId(c), t);
                prop_assert_eq!(v.is_delivered(&id), model.delivered.contains(&id), "{:?}", id);
            }
        }
    }

    /// Proposals with in-batch duplicates, already-proposed requests, bad
    /// signatures in the middle, foreign buckets, unknown clients and
    /// oversized batches, between deliveries and epoch starts: same Ok/Err
    /// kind, `proposed_in_epoch()` and `rejected_proposals()` as the model.
    /// After every rejection the batch's valid requests, deduplicated and
    /// correctly signed, must pass in the next proposal — the rejected
    /// batch left no proposed marks behind.
    #[test]
    fn proposal_validation_matches_a_hash_set_model(
        steps in proptest::collection::vec(
            (
                0u8..12,
                proptest::collection::vec((0u32..CLIENTS + 1, 0u64..WINDOW + 4, 0u8..12), 0..MAX_BATCH + 2),
            ),
            1..60,
        ),
        verify in any::<bool>(),
    ) {
        let mut v = validation(verify);
        let mut model = Model { verify_signatures: verify, ..Model::default() };
        for (op, spec) in steps {
            match op {
                0 => {
                    v.on_epoch_start(epoch_buckets());
                    model.on_epoch_start();
                }
                1 | 2 => {
                    for (c, delta, _) in spec {
                        let client = ClientId(c);
                        let id = RequestId::new(client, timestamp(&model, client, delta));
                        v.mark_delivered(&id);
                        model.delivered.insert(id);
                    }
                }
                _ => {
                    let seq_nr = u64::from(op % 4 == 3);
                    let mut requests: Vec<(Request, bool)> = spec
                        .iter()
                        .map(|&(c, delta, kind)| {
                            let client = ClientId(c);
                            let id = RequestId::new(client, timestamp(&model, client, delta));
                            (request(id, kind < 2), kind < 2)
                        })
                        .collect();
                    // Echo an earlier request of the batch now and then.
                    if requests.len() > 2 && op % 3 == 0 {
                        let echo = requests[0].clone();
                        requests.push(echo);
                    }
                    let batch = Batch::new(requests.iter().map(|(r, _)| r.clone()).collect());
                    let got = v.validate_proposal(seq_nr, &batch);
                    let want = model.validate_proposal(seq_nr, &requests);
                    prop_assert!(same_kind(&got, &want), "{:?} vs model {:?}", got, want);
                    prop_assert_eq!(v.proposed_in_epoch(), model.proposed.len());
                    prop_assert_eq!(v.rejected_proposals(), model.rejected);
                    if got.is_err() {
                        let mut seen = HashSet::new();
                        let repaired: Vec<(Request, bool)> = requests
                            .iter()
                            .filter(|(r, _)| {
                                model.admit(r).is_ok()
                                    && bucket_allowed(seq_nr, r.bucket(NUM_BUCKETS))
                                    && !model.proposed.contains(&r.id)
                                    && seen.insert(r.id)
                            })
                            .take(MAX_BATCH)
                            .map(|(r, _)| (request(r.id, false), false))
                            .collect();
                        let batch = Batch::new(repaired.iter().map(|(r, _)| r.clone()).collect());
                        prop_assert!(v.validate_proposal(seq_nr, &batch).is_ok());
                        prop_assert!(model.validate_proposal(seq_nr, &repaired).is_ok());
                        prop_assert_eq!(v.proposed_in_epoch(), model.proposed.len());
                    }
                }
            }
        }
    }
}
