//! Criterion micro-benchmarks of the building blocks: hashing, signatures,
//! batch signature verification, request-digest memoization, proposal
//! validation and delivery bookkeeping, the delivery checker behind the
//! simulator's metrics sink, the CPU-model scheduler, Merkle trees, bucket
//! mapping, batch cutting, the binary codec, a full PBFT three-phase round
//! for one batch, the file WAL's checkpoint prune, the simnet timing-wheel
//! event queue (start and delivery events, and in broadcast bursts at the
//! cursor), one vote broadcast through the simulator and a fig8-scale
//! simulation wall-clock smoke.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use iss_core::buckets::BucketQueues;
use iss_core::validation::{EpochBuckets, RequestValidation};
use iss_crypto::{
    batch_digest, merkle_root, request_digest, request_digest_uncached, HmacKey, KeyPair, Sha256,
    SignatureRegistry, ThresholdScheme,
};
use iss_messages::codec;
use iss_messages::{NetMsg, PbftMsg, SbMsg};
use iss_pbft::PbftInstance;
use iss_runtime::{Addr, Context, Process};
use iss_sb::testing::LocalNet;
use iss_sb::{ProposalValidator, SbInstance};
use iss_sim::{CrashTiming, Protocol, Scenario};
use iss_simnet::cpu::CpuState;
use iss_simnet::event::{EventKind, EventQueue};
use iss_simnet::{BandwidthConfig, CpuModel, FaultConfig, Runtime, RuntimeConfig, Topology};
use iss_types::{
    Batch, BucketId, ClientId, Duration, InstanceId, NodeId, Request, RequestId, Segment, Time,
};
use std::sync::Arc;

fn request(i: u32) -> Request {
    Request::new(ClientId(i % 64), i as u64, vec![0u8; 500])
}

fn batch(n: usize) -> Batch {
    Batch::new((0..n as u32).map(request).collect())
}

fn bench_crypto(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto");
    let payload = vec![0u8; 500];
    group.throughput(Throughput::Bytes(500));
    group.bench_function("sha256_500B", |b| b.iter(|| Sha256::digest(&payload)));
    // Short messages, where the per-hash overhead (buffering, padding, the
    // HMAC key pads) is not amortized over nine blocks as it is above: one
    // data block plus one padding block, and a MAC over a request digest
    // under a prepared key (two compressions).
    let block = [0u8; 64];
    group.bench_function("sha256_64B", |b| b.iter(|| Sha256::digest(&block)));
    let mac_key = HmacKey::new(&[7u8; 32]);
    let digest = [9u8; 32];
    group.bench_function("hmac_32B", |b| b.iter(|| mac_key.mac(&digest)));
    let kp = KeyPair::for_node(NodeId(0));
    group.bench_function("sign_500B", |b| b.iter(|| kp.sign(&payload)));
    let scheme = ThresholdScheme::new(32, 21, b"bench").unwrap();
    let shares: Vec<_> = (0..21)
        .map(|i| scheme.sign_share(NodeId(i), &payload))
        .collect();
    group.bench_function("threshold_aggregate_2f1_of_32", |b| {
        b.iter(|| scheme.aggregate(&shares, &payload).unwrap())
    });
    group.bench_function("batch_digest_2048_uncached", |b| {
        b.iter_batched(
            || batch(2048),
            |fresh| batch_digest(&fresh),
            BatchSize::LargeInput,
        )
    });
    let b2048 = batch(2048);
    batch_digest(&b2048); // warm the memo
    group.bench_function("batch_digest_2048_memoized", |b| {
        b.iter(|| batch_digest(&b2048))
    });
    let leaves: Vec<[u8; 32]> = (0..256u64)
        .map(|i| Sha256::digest(&i.to_le_bytes()))
        .collect();
    group.bench_function("merkle_root_256", |b| b.iter(|| merkle_root(&leaves)));
    group.finish();
}

fn bench_buckets(c: &mut Criterion) {
    let mut group = c.benchmark_group("buckets");
    group.bench_function("bucket_mapping", |b| {
        let req = request(7);
        b.iter(|| req.bucket(512))
    });
    group.bench_function("cut_batch_2048_of_65536", |b| {
        b.iter_batched(
            || {
                let mut q = BucketQueues::new(512);
                for i in 0..65_536u32 {
                    q.add(Request::synthetic(ClientId(i % 256), (i / 256) as u64, 500));
                }
                q
            },
            |mut q| {
                let buckets: Vec<BucketId> = (0..16).map(BucketId).collect();
                q.cut_batch(&buckets, 2048)
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec");
    for n in [128usize, 2048] {
        let batch_n = batch(n);
        group.bench_function(format!("encode_batch_{n}"), |b| {
            b.iter(|| {
                let mut buf = bytes::BytesMut::new();
                codec::encode_batch(&batch_n, &mut buf);
                buf
            })
        });
        let mut buf = bytes::BytesMut::new();
        codec::encode_batch(&batch_n, &mut buf);
        let encoded = buf.freeze();
        group.bench_function(format!("decode_batch_{n}"), |b| {
            b.iter(|| {
                let mut bytes = encoded.clone();
                codec::decode_batch(&mut bytes).unwrap()
            })
        });
    }
    group.finish();
}

fn bench_batch_handles(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch");
    let b2048 = batch(2048);
    // The hot-path operation: cloning a batch on propose / fan-out / commit.
    // O(1) refcount bump — should report in nanoseconds, independent of the
    // ~1 MB of payload the batch carries.
    group.bench_function("batch_clone_2048", |b| b.iter(|| b2048.clone()));
    // What every one of those clones cost before the zero-copy refactor:
    // duplicating all request metadata and payload bytes.
    group.bench_function("batch_deep_copy_2048", |b| {
        b.iter(|| {
            Batch::new(
                b2048
                    .requests()
                    .iter()
                    .map(|r| {
                        Request::new(r.id.client, r.id.timestamp, r.payload.to_vec())
                            .with_signature(r.signature.to_vec())
                    })
                    .collect(),
            )
        })
    });
    group.finish();
}

fn pbft_net(n: usize, seq: Vec<u64>) -> LocalNet<PbftInstance> {
    let registry = Arc::new(iss_crypto::SignatureRegistry::with_processes(n, 0));
    let segment = |_: usize| {
        Arc::new(Segment {
            instance: InstanceId::new(0, 0),
            leader: NodeId(0),
            seq_nrs: seq.clone(),
            buckets: vec![BucketId(0)],
            nodes: (0..n as u32).map(NodeId).collect(),
            f: (n - 1) / 3,
        })
    };
    LocalNet::new(
        (0..n)
            .map(|i| {
                PbftInstance::new(
                    NodeId(i as u32),
                    segment(i),
                    Duration::from_secs(10),
                    KeyPair::for_node(NodeId(i as u32)),
                    Arc::clone(&registry),
                )
            })
            .collect(),
    )
}

fn bench_pbft_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("pbft");
    group.sample_size(20);
    for n in [4usize, 16] {
        group.bench_function(format!("three_phase_commit_n{n}_batch128"), |b| {
            b.iter_batched(
                || (pbft_net(n, vec![0]), batch(128)),
                |(mut net, payload)| {
                    net.init_all();
                    net.propose(0, 0, payload);
                    net.run_messages();
                    assert!(net.instances[1].is_complete());
                    net
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

/// Client-signature verification of a fig8-scale batch, plus the
/// request-digest memo against a fresh recomputation.
fn bench_verify(c: &mut Criterion) {
    let mut group = c.benchmark_group("verify");
    group.sample_size(20);
    const N: usize = 2048;
    let registry = SignatureRegistry::with_processes(4, iss_bench::authload::CLIENTS as usize);
    let requests = iss_bench::authload::signed_requests(N);
    let digests = iss_bench::authload::digests(&requests);
    let items = iss_bench::authload::items(&requests, &digests);

    group.throughput(Throughput::Elements(N as u64));
    group.bench_function("verify_batch_2048", |b| {
        b.iter(|| registry.verify_batch(&items))
    });
    group.finish();

    let mut group = c.benchmark_group("digest");
    let req = request(7);
    request_digest(&req); // warm the memo
    group.bench_function("request_digest_memo_hit", |b| {
        b.iter(|| request_digest(&req))
    });
    group.bench_function("request_digest_recompute", |b| {
        b.iter(|| request_digest_uncached(&req))
    });
    group.finish();
}

/// The dense non-cryptographic proposal-validation path: watermarks,
/// delivered/proposed window bitmaps (in-batch dedup by test-and-set) and the
/// bucket bitmap, for one 2048-request batch (signatures measured separately
/// above); and the commit-side bookkeeping of the same 2048 requests,
/// recorded as delivered in a scrambled order as commits from independent
/// segments arrive.
fn bench_validate_proposal(c: &mut Criterion) {
    let mut group = c.benchmark_group("validation");
    group.sample_size(20);
    let registry = Arc::new(SignatureRegistry::with_processes(4, 0));
    let num_buckets = 512usize;
    let batch = Batch::new(
        (0..2048u32)
            .map(|i| Request::synthetic(ClientId(i % 256), (i / 256) as u64, 500))
            .collect(),
    );
    let all_buckets: Vec<BucketId> = (0..num_buckets as u32).map(BucketId).collect();
    group.throughput(Throughput::Elements(2048));
    group.bench_function("validate_proposal_2048", |b| {
        b.iter_batched(
            || {
                let mut v =
                    RequestValidation::new(Arc::clone(&registry), false, num_buckets, 128, 4096);
                let mut table = EpochBuckets::new(0, num_buckets);
                table.add_segment(&[0], &all_buckets);
                v.on_epoch_start(table);
                v
            },
            |mut v| {
                v.validate_proposal(0, &batch).expect("valid batch");
                v
            },
            BatchSize::LargeInput,
        )
    });
    // 256 clients x 8 timestamps, visited with a stride coprime to 2048.
    let ids: Vec<RequestId> = (0..2048u32)
        .map(|i| batch.requests()[(i as usize * 1031) % 2048].id)
        .collect();
    group.bench_function("mark_delivered_out_of_order_2048", |b| {
        b.iter_batched(
            || RequestValidation::new(Arc::clone(&registry), false, num_buckets, 128, 4096),
            |mut v| {
                for id in &ids {
                    v.mark_delivered(id);
                }
                v
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

/// The simulator's always-on delivery checker at the paper's largest PBFT
/// shape: 32 nodes each deliver the same 2048 requests at the same global
/// request sequence numbers, through the metrics sink every node feeds.
fn bench_check_delivery(c: &mut Criterion) {
    use iss_core::DeliverySink;
    use iss_sim::metrics::{metrics_handle, MetricsSink};

    let mut group = c.benchmark_group("sim");
    group.sample_size(20);
    let requests: Vec<Request> = (0..2048u32)
        .map(|i| Request::synthetic(ClientId(i % 16), (i / 16) as u64, 500))
        .collect();
    group.throughput(Throughput::Elements(32 * 2048));
    group.bench_function("check_delivery_n32_2048", |b| {
        b.iter_batched(
            || MetricsSink::new(metrics_handle(32, NodeId(0), None)),
            |mut sink| {
                for node in 0..32 {
                    for (nr, req) in requests.iter().enumerate() {
                        sink.on_request_delivered(NodeId(node), req, nr as u64, Time::ZERO);
                    }
                }
                sink
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

/// The file WAL's work at a stable checkpoint: a log of 256 committed
/// batches of 320 × 500 B requests (one epoch's worth, ~41 MB), pruned down
/// to its last 8 batches. Each iteration prunes a fresh copy of the same
/// log, opened outside the timed region.
fn bench_file_prune(c: &mut Criterion) {
    use iss_storage::{FileStorage, Storage, WalRecord};

    const BATCHES: u64 = 256;
    const KEPT: u64 = 8;
    let root = std::env::temp_dir().join(format!("iss-bench-prune-{}", std::process::id()));
    let template = root.join("template");
    let _ = std::fs::remove_dir_all(&root);
    {
        let store = FileStorage::open(&template).expect("open template storage");
        let batch = batch(320);
        for seq_nr in 0..BATCHES {
            let record = WalRecord::Committed {
                seq_nr,
                leader: NodeId((seq_nr % 4) as u32),
                batch: Some(batch.clone()),
            };
            store.append(&record).expect("append template record");
        }
    }
    let run = root.join("run");
    let mut group = c.benchmark_group("storage");
    group.sample_size(10);
    // One prune per sample: the calibration stops at a single iteration.
    group.measurement_time(std::time::Duration::from_millis(2));
    group.bench_function("file_prune_epoch", |b| {
        b.iter_batched(
            || {
                let _ = std::fs::remove_dir_all(&run);
                std::fs::create_dir_all(&run).expect("create run dir");
                std::fs::copy(template.join("wal.log"), run.join("wal.log")).expect("copy log");
                FileStorage::open(&run).expect("open run storage")
            },
            |store| {
                store.prune_below(BATCHES - KEPT).expect("prune");
                store
            },
            BatchSize::PerIteration,
        )
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&root);
}

/// The per-message CPU-model scheduling step at fig8-and-beyond core counts,
/// on a saturating workload.
fn bench_cpu_schedule(c: &mut Criterion) {
    let mut group = c.benchmark_group("cpu");
    group.throughput(Throughput::Elements(1));
    group.bench_function("cpu_schedule_128cores", |b| {
        let mut cpu = CpuState::new(128);
        let mut arrival = Time::ZERO;
        let mut state = 0xDEAD_BEEFu64;
        let mut draw = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state
        };
        b.iter(|| {
            arrival += Duration::from_micros(draw() % 3);
            cpu.schedule(arrival, Duration::from_micros(100 + draw() % 200))
        })
    });
    group.finish();
}

/// The Manager's per-message bookkeeping at 128-node scale: take an
/// instance out by its `InstanceId` and put it back (the `drive` loop),
/// round-robin across one epoch's 128 SB instances, plus the delivery
/// path's leader lookup.
fn bench_node_state(c: &mut Criterion) {
    use iss_core::state::EpochState;
    use iss_sb::testing::NullSb;
    use iss_types::{EpochNr, SeqNr, TimerId};

    const SEGMENTS: u32 = 128;
    const PER_SEGMENT: u64 = 4;

    /// Populates one epoch: 128 segments, round-robin sequence numbers,
    /// one inert instance each, two armed timers per instance.
    fn fill_epoch(state: &mut EpochState, epoch: EpochNr, timer_base: &mut u64) {
        let length = SEGMENTS as u64 * PER_SEGMENT;
        let first = epoch * length;
        state.begin_epoch(epoch, first, length, (0..SEGMENTS).map(NodeId).collect());
        for s in 0..SEGMENTS {
            let id = InstanceId::new(epoch, s);
            state.insert_instance(id, Box::new(NullSb));
            for token in 0..2u64 {
                *timer_base += 1;
                state.register_timer(TimerId(*timer_base), id, token);
            }
        }
    }

    fn dispatch_workload(state: &mut EpochState, i: &mut u32) -> SeqNr {
        let id = InstanceId::new(0, *i % SEGMENTS);
        *i = (*i + 1) % SEGMENTS;
        let instance = state.take_instance(id).expect("live instance");
        state.restore_instance(id, instance);
        // The delivery path's companion lookup: seq-nr → leader.
        let sn = (id.index as u64) * PER_SEGMENT;
        state.leader_of(sn).map(|n| n.0 as u64).unwrap_or(0)
    }

    let mut group = c.benchmark_group("node_state");
    group.throughput(Throughput::Elements(1));

    let mut dense = EpochState::new();
    let mut timer_base = 0u64;
    fill_epoch(&mut dense, 0, &mut timer_base);
    let mut i = 0u32;
    group.bench_function("node_dispatch_128", |b| {
        b.iter(|| dispatch_workload(&mut dense, &mut i))
    });

    // Epoch GC at the same scale: two live epochs of 128 instances (plus
    // two armed timers each), collect the older one and advance the
    // checkpoint cut — the wholesale arena drop.
    group.sample_size(20);
    group.bench_function("epoch_gc", |b| {
        b.iter_batched(
            || {
                let mut state = EpochState::new();
                let mut timer_base = 0u64;
                fill_epoch(&mut state, 0, &mut timer_base);
                fill_epoch(&mut state, 1, &mut timer_base);
                state
            },
            |mut state| {
                state.gc(1, Some(SEGMENTS as u64 * PER_SEGMENT));
                state
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

use iss_bench::engine::next_delay_us;

/// Steady-state event-engine throughput: hold the queue at a sim-realistic
/// depth and, per element, pop the earliest event and push a successor at a
/// randomized offset — exactly the simulator's pop→dispatch→push cycle.
fn bench_simnet_event_throughput(c: &mut Criterion) {
    const DEPTH: usize = iss_bench::engine::DEPTH;
    let mut group = c.benchmark_group("simnet_event_throughput");
    group.throughput(Throughput::Elements(1));

    let start_event = |i: usize| EventKind::Start {
        addr: Addr::Node(NodeId(i as u32)),
    };

    group.bench_function("wheel", |b| {
        let mut q = EventQueue::new();
        let mut state = iss_bench::engine::WORKLOAD_SEED;
        for i in 0..DEPTH {
            q.push(Time::from_micros(next_delay_us(&mut state)), start_event(i));
        }
        b.iter(|| {
            let e = q.pop().expect("queue is held at constant depth");
            q.push(
                e.at + Duration::from_micros(next_delay_us(&mut state)),
                e.kind,
            );
            e.at
        })
    });

    // The same cycle with the simulator's delivery events, which carry a
    // message slot, not the message.
    group.bench_function("wheel_netmsg", |b| {
        let mut q = EventQueue::new();
        let mut state = iss_bench::engine::WORKLOAD_SEED;
        for i in 0..DEPTH {
            q.push(Time::from_micros(next_delay_us(&mut state)), deliver(i));
        }
        b.iter(|| {
            let e = q.pop().expect("queue is held at constant depth");
            q.push(
                e.at + Duration::from_micros(next_delay_us(&mut state)),
                e.kind,
            );
            e.at
        })
    });

    // A broadcast to 128 nodes: each element pops one event, schedules
    // `BURST` deliveries into its own wheel slot and pops them back, so
    // every insert lands at the cursor.
    const BURST: usize = 128;
    group.throughput(Throughput::Elements(BURST as u64));
    group.bench_function("cursor_burst", |b| {
        let mut q = EventQueue::new();
        let mut state = iss_bench::engine::WORKLOAD_SEED;
        for i in 0..DEPTH {
            q.push(Time::from_micros(next_delay_us(&mut state)), deliver(i));
        }
        b.iter(|| {
            let e = q.pop().expect("queue is held at constant depth");
            let slot_us = 1 << iss_simnet::event::SLOT_BITS;
            let slot_left = slot_us - e.at.as_micros() % slot_us;
            for i in 0..BURST {
                let delay = next_delay_us(&mut state) % slot_left;
                q.push(e.at + Duration::from_micros(delay), deliver(i));
            }
            for _ in 0..BURST {
                criterion::black_box(q.pop());
            }
            q.push(
                e.at + Duration::from_micros(next_delay_us(&mut state)),
                e.kind,
            );
            e.at
        })
    });

    group.finish();
}

/// A delivery between two nodes of the message in slot `i`.
fn deliver(i: usize) -> EventKind {
    EventKind::Deliver {
        from: Addr::Node(NodeId(i as u32 % 128)),
        to: Addr::Node(NodeId((i as u32 + 1) % 128)),
        msg: i as u32,
        size: 0,
    }
}

/// Every tick node 0 broadcasts a PBFT commit vote to all nodes; the
/// others take it and do nothing.
struct Voter {
    nodes: Vec<NodeId>,
}

/// The interval between node 0's votes, in milliseconds.
const VOTE_TICK_MS: u64 = 1;

impl Process<NetMsg> for Voter {
    fn on_start(&mut self, ctx: &mut Context<'_, NetMsg>) {
        if ctx.self_addr() == Addr::Node(NodeId(0)) {
            ctx.set_timer(Duration::from_millis(VOTE_TICK_MS), 0);
        }
    }

    fn on_message(&mut self, _from: Addr, _msg: NetMsg, _ctx: &mut Context<'_, NetMsg>) {}

    fn on_timer(&mut self, _id: iss_types::TimerId, _kind: u64, ctx: &mut Context<'_, NetMsg>) {
        let vote = PbftMsg::Commit {
            view: 0,
            seq_nr: 0,
            digest: [7; 32],
        };
        let instance = InstanceId::new(0, 0);
        let msg = SbMsg::Pbft(vote);
        ctx.broadcast(&self.nodes, NetMsg::Sb { instance, msg });
        ctx.set_timer(Duration::from_millis(VOTE_TICK_MS), 0);
    }
}

/// One vote broadcast through the simulator at 31 peers: each element is
/// one peer's share of the send, its delivery and its CPU-deferred
/// invocation (a LAN, gigabit NICs and the testbed CPU model, so every
/// vote arrives and is handled within the tick it was sent in).
fn bench_simnet_broadcast(c: &mut Criterion) {
    const PEERS: u32 = 31;
    let mut group = c.benchmark_group("simnet");
    group.throughput(Throughput::Elements(PEERS as u64));
    group.bench_function("broadcast_31", |b| {
        let mut rt: Runtime<NetMsg> = Runtime::new(RuntimeConfig {
            topology: Topology::lan(Duration::from_micros(100)),
            bandwidth: BandwidthConfig::gigabit(),
            cpu: CpuModel::testbed(),
            faults: FaultConfig::none(),
            seed: 1,
        });
        let nodes: Vec<NodeId> = (0..=PEERS).map(NodeId).collect();
        for &n in &nodes {
            let nodes = nodes.clone();
            rt.add_process(Addr::Node(n), Box::new(Voter { nodes }));
        }
        rt.run_until(Time::ZERO);
        b.iter(|| {
            let until = rt.now() + Duration::from_millis(VOTE_TICK_MS);
            rt.run_until(until)
        })
    });
    group.finish();
}

/// A scaled-down Figure 8 deployment (crash fault at epoch start, Blacklist
/// policy): 8 nodes on the WAN testbed, one epoch-start crash, several
/// seconds of virtual traffic per iteration.
fn fig8_smoke_scenario() -> Scenario {
    Scenario::builder(Protocol::Pbft, 8)
        .open_loop(8, 3_000.0)
        .duration(iss_types::Duration::from_secs(10))
        .warmup(iss_types::Duration::from_secs(2))
        .crash(NodeId(0), CrashTiming::EpochStart)
        .build()
}

/// End-to-end engine wall-clock: how long one fig8-scale `run_until` takes.
fn bench_fig8_smoke_wallclock(c: &mut Criterion) {
    let mut group = c.benchmark_group("simnet");
    group.sample_size(10);
    group.bench_function("fig8_smoke_wallclock", |b| {
        b.iter_batched(
            fig8_smoke_scenario,
            |scenario| {
                let report = scenario.run();
                assert!(report.delivered > 0, "smoke run must deliver requests");
                report.delivered
            },
            BatchSize::PerIteration,
        )
    });
    group.finish();
}

fn bench_telemetry(c: &mut Criterion) {
    use iss_telemetry::{request_key, TelemetryHandle};
    let mut group = c.benchmark_group("telemetry");

    // The guard for the default configuration: with telemetry disabled,
    // every recording call must compile down to a branch on `None` — the
    // hot path of an uninstrumented node pays (near) nothing.
    let disabled = TelemetryHandle::disabled();
    group.bench_function("disabled_overhead", |b| {
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            disabled.on_arrival(Time(t), request_key(criterion::black_box(3), t));
            disabled.gauge_set("orderer.ready_queue", t);
            disabled.cpu_charge(iss_types::MsgClass::Proposal, t);
            disabled.on_end_to_end(Time(t + 7), request_key(3, t));
        })
    });

    // The enabled path: ring write + histogram record + correlation-map
    // traffic for one arrival→delivery request round trip. Allocation-free
    // by design; this bench keeps it honest.
    let enabled = TelemetryHandle::enabled(0);
    group.bench_function("record_hot_path", |b| {
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            enabled.on_arrival(Time(t), request_key(criterion::black_box(3), t));
            enabled.gauge_set("orderer.ready_queue", t);
            enabled.cpu_charge(iss_types::MsgClass::Proposal, t);
            enabled.on_end_to_end(Time(t + 7), request_key(3, t));
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_crypto,
    bench_verify,
    bench_validate_proposal,
    bench_check_delivery,
    bench_node_state,
    bench_cpu_schedule,
    bench_buckets,
    bench_codec,
    bench_batch_handles,
    bench_pbft_round,
    bench_file_prune,
    bench_simnet_event_throughput,
    bench_simnet_broadcast,
    bench_telemetry,
    bench_fig8_smoke_wallclock,
);
criterion_main!(benches);
