//! Direct-call timings of single layers: each value is the median of
//! several timed loops around a public item, so the per-layer table can say
//! what one call costs next to how often the run made it.
//!
//! Inputs are built the way the TCP workloads build them (two client
//! identities, 500-byte seeded payloads, 2048-request batches — Table 1's
//! PBFT batch size), so the numbers describe the work the runs did.

use crate::loadgen::make_request;
use crate::metrics::{median, Values};
use iss_core::{BucketQueues, EpochBuckets, RequestValidation};
use iss_crypto::digest::{batch_digest_uncached, request_digest_uncached};
use iss_crypto::{request_digest, Identity, KeyPair, SignatureRegistry};
use iss_messages::{NetMsg, PbftMsg, SbMsg};
use iss_net::frame;
use iss_sb::ProposalValidator;
use iss_types::{Batch, BucketId, ClientId, InstanceId, Request};
use std::hint::black_box;
use std::net::{Ipv4Addr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Instant;

const BATCH: usize = 2048;
const CLIENTS: u32 = 2;
const PAYLOAD: usize = 500;
const NUM_BUCKETS: usize = 64;
/// Timed loops per value; the median is reported.
const ROUNDS: usize = 5;

/// Median over [`ROUNDS`] of `ns per item` for `f`, which processes `items`
/// items per call.
fn time_ns(items: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / items as f64
        })
        .collect();
    median(&samples)
}

fn requests(seed: u64, signed: bool) -> Vec<Request> {
    let keys: Vec<KeyPair> = (0..CLIENTS)
        .map(|c| KeyPair::for_client(ClientId(c)))
        .collect();
    (0..BATCH as u64)
        .map(|i| {
            let c = (i % u64::from(CLIENTS)) as u32;
            make_request(
                ClientId(c),
                i / u64::from(CLIENTS),
                PAYLOAD,
                seed,
                signed.then(|| &keys[c as usize]),
            )
        })
        .collect()
}

fn pre_prepare(batch: Batch) -> NetMsg {
    NetMsg::Sb {
        instance: InstanceId::new(0, 0),
        msg: SbMsg::Pbft(PbftMsg::PrePrepare {
            view: 0,
            seq_nr: 0,
            digest: iss_crypto::batch_digest(&batch),
            batch: Some(batch),
        }),
    }
}

fn vote() -> NetMsg {
    NetMsg::Sb {
        instance: InstanceId::new(0, 0),
        msg: SbMsg::Pbft(PbftMsg::Prepare {
            view: 0,
            seq_nr: 7,
            digest: [7; 32],
        }),
    }
}

fn crypto(v: &mut Values, signed: &[Request]) {
    let registry = SignatureRegistry::with_processes(4, CLIENTS as usize);
    let key = KeyPair::for_client(ClientId(0));
    let digests: Vec<_> = signed.iter().map(request_digest).collect();
    v.set(
        "crypto.sign_ns",
        time_ns(BATCH, || {
            for d in &digests {
                black_box(key.sign(black_box(d)));
            }
        }),
    );
    v.set(
        "crypto.verify_ns",
        time_ns(BATCH, || {
            for (r, d) in signed.iter().zip(&digests) {
                let id = Identity::Client(r.id.client);
                black_box(registry.verify_uncached(id, d, &r.signature)).expect("valid signature");
            }
        }),
    );
    let verify_all = || {
        for (r, d) in signed.iter().zip(&digests) {
            let id = Identity::Client(r.id.client);
            black_box(registry.verify(id, d, &r.signature)).expect("valid signature");
        }
    };
    verify_all(); // fill the verified-signature cache
    v.set("crypto.verify_cached_ns", time_ns(BATCH, verify_all));
    let items: Vec<_> = signed
        .iter()
        .zip(&digests)
        .map(|(r, d)| (Identity::Client(r.id.client), &d[..], &r.signature[..]))
        .collect();
    let samples: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            registry.clear_verified_cache();
            let t = Instant::now();
            black_box(registry.verify_batch(&items));
            t.elapsed().as_nanos() as f64 / BATCH as f64
        })
        .collect();
    v.set("crypto.verify_batch_ns_per_req", median(&samples));
    v.set(
        "crypto.request_digest_ns",
        time_ns(BATCH, || {
            for r in signed {
                black_box(request_digest_uncached(black_box(r)));
            }
        }),
    );
}

fn messages(v: &mut Values, unsigned: &[Request]) -> (Vec<u8>, Vec<u8>) {
    let proposal = pre_prepare(Batch::new(unsigned.to_vec()));
    let vote = vote();
    let proposal_bytes = frame::encode_msg(&proposal).expect("encodable");
    let vote_bytes = frame::encode_msg(&vote).expect("encodable");
    v.set(
        "messages.wire_bytes_per_req",
        proposal_bytes.len() as f64 / BATCH as f64,
    );
    v.set(
        "messages.encode_ns_per_req",
        time_ns(BATCH, || {
            black_box(frame::encode_msg(black_box(&proposal))).expect("encodable");
        }),
    );
    // Decoding consumes its buffer; the copies are made outside the timer.
    let decode = |bytes: &[u8], items: usize, reps: usize| {
        let samples: Vec<f64> = (0..ROUNDS)
            .map(|_| {
                let copies: Vec<Vec<u8>> = (0..reps).map(|_| bytes.to_vec()).collect();
                let t = Instant::now();
                for c in copies {
                    black_box(frame::decode_msg(c)).expect("decodable");
                }
                t.elapsed().as_nanos() as f64 / (items * reps) as f64
            })
            .collect();
        median(&samples)
    };
    v.set(
        "messages.decode_ns_per_req",
        decode(&proposal_bytes, BATCH, 1),
    );
    v.set(
        "messages.vote_encode_ns",
        time_ns(BATCH, || {
            for _ in 0..BATCH {
                black_box(frame::encode_msg(black_box(&vote))).expect("encodable");
            }
        }),
    );
    v.set("messages.vote_decode_ns", decode(&vote_bytes, 1, BATCH));

    // A batch as a follower first sees it: decoded off the wire, every
    // digest memo cold.
    let samples: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let NetMsg::Sb {
                msg:
                    SbMsg::Pbft(PbftMsg::PrePrepare {
                        batch: Some(batch), ..
                    }),
                ..
            } = frame::decode_msg(proposal_bytes.clone()).expect("decodable")
            else {
                unreachable!("encoded a pre-prepare");
            };
            let t = Instant::now();
            black_box(batch_digest_uncached(batch.requests()));
            t.elapsed().as_nanos() as f64 / BATCH as f64
        })
        .collect();
    v.set("crypto.batch_digest_ns_per_req", median(&samples));
    (proposal_bytes, vote_bytes)
}

/// `frame::{write_frame, read_frame}` over a loopback socket pair: the
/// writer's time per frame with a reader draining, and the reader's time
/// per frame with a writer keeping it fed.
fn frames(v: &mut Values, proposal: &[u8], vote: &[u8]) -> std::io::Result<()> {
    let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
    let mut tx = TcpStream::connect(listener.local_addr()?)?;
    tx.set_nodelay(true)?;
    let (mut rx, _) = listener.accept()?;
    let mut pass = |payload: &[u8], count: usize| -> std::io::Result<(f64, f64)> {
        std::thread::scope(|s| {
            let reader = s.spawn(|| -> std::io::Result<f64> {
                let t = Instant::now();
                for _ in 0..count {
                    black_box(frame::read_frame(&mut rx)?);
                }
                Ok(t.elapsed().as_nanos() as f64 / count as f64)
            });
            let t = Instant::now();
            for _ in 0..count {
                frame::write_frame(&mut tx, black_box(payload))?;
            }
            let write_ns = t.elapsed().as_nanos() as f64 / count as f64;
            let read_ns = reader.join().expect("reader thread panicked")?;
            Ok((write_ns, read_ns))
        })
    };
    let mut votes = Vec::new();
    let mut proposal_writes = Vec::new();
    let mut proposal_reads = Vec::new();
    for _ in 0..ROUNDS {
        votes.push(pass(vote, 4096)?.0);
        let (w, r) = pass(proposal, 32)?;
        proposal_writes.push(w);
        proposal_reads.push(r);
    }
    v.set("net.frame_write_vote_ns", median(&votes));
    v.set("net.frame_write_proposal_ns", median(&proposal_writes));
    v.set("net.frame_read_proposal_ns", median(&proposal_reads));
    Ok(())
}

fn core(v: &mut Values, unsigned: &[Request]) {
    let registry = Arc::new(SignatureRegistry::with_processes(4, CLIENTS as usize));
    let all_buckets: Vec<BucketId> = (0..NUM_BUCKETS as u32).map(BucketId).collect();
    let fresh = || {
        let mut val =
            RequestValidation::new(Arc::clone(&registry), false, NUM_BUCKETS, 1 << 30, BATCH);
        let mut table = EpochBuckets::new(0, NUM_BUCKETS);
        table.add_segment(&[0], &all_buckets);
        val.on_epoch_start(table);
        val
    };
    let val = fresh();
    v.set(
        "core.validate_request_ns",
        time_ns(BATCH, || {
            for r in unsigned {
                black_box(val.validate_request(black_box(r))).expect("valid request");
            }
        }),
    );
    let batch = Batch::new(unsigned.to_vec());
    let samples: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let mut val = fresh();
            let t = Instant::now();
            black_box(val.validate_proposal(0, &batch)).expect("valid batch");
            t.elapsed().as_nanos() as f64 / BATCH as f64
        })
        .collect();
    v.set("core.validate_proposal_ns_per_req", median(&samples));
    let samples: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let mut queues = BucketQueues::new(NUM_BUCKETS);
            for r in unsigned {
                queues.add(r.clone());
            }
            let t = Instant::now();
            let cut = black_box(queues.cut_batch(&all_buckets, BATCH));
            let ns = t.elapsed().as_nanos() as f64 / BATCH as f64;
            assert_eq!(cut.len(), BATCH, "cut took every queued request");
            ns
        })
        .collect();
    v.set("core.cut_batch_ns_per_req", median(&samples));
}

/// Fills every `crypto.*`, `messages.*`, `net.frame_*` and direct-call
/// `core.*` value.
pub fn run(v: &mut Values, seed: u64) -> Result<(), String> {
    let signed = requests(seed, true);
    let unsigned = requests(seed, false);
    crypto(v, &signed);
    let (proposal_bytes, vote_bytes) = messages(v, &unsigned);
    frames(v, &proposal_bytes, &vote_bytes).map_err(|e| format!("frame timing: {e}"))?;
    core(v, &unsigned);
    Ok(())
}
