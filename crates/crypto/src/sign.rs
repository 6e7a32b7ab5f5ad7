//! Identity signatures (substitute for 256-bit ECDSA) and the batched,
//! parallel, memoized verification pipeline.
//!
//! Every process (node or client) owns a [`KeyPair`]; verifiers hold a
//! [`SignatureRegistry`] mapping identities to public keys, playing the role
//! of the PKI assumed in Section 2.1 of the paper.
//!
//! The scheme is a *simulation substitute* for ECDSA (see `DESIGN.md`):
//! a signature is `HMAC(secret, message)` and the "public key" is a
//! commitment `SHA256(secret)`. Verification recomputes the MAC using the
//! secret stored in the registry. In a real deployment this would be replaced
//! by an actual public-key scheme; the interface (sign / verify / registry)
//! is identical, which is all the protocols depend on. Within the simulated
//! threat model the scheme is unforgeable because faulty processes never
//! learn other processes' secrets (the registry is never serialized onto the
//! simulated wire).
//!
//! What the stand-in does *not* reproduce is the cost: one verification is
//! four SHA-256 compressions, six with the cache witness (≈ 0.3–0.5 µs with
//! a hardware SHA kernel, ≈ 1.5–2 µs without), roughly 100× cheaper than
//! the ECDSA P-256 verification it replaces (tens of µs). A wall-clock run
//! with `client_signatures` on therefore measures hashing, the codec and
//! ordering — not signature arithmetic; the simulator's `CpuModel` charges
//! the paper's figure instead.
//!
//! # Verification pipeline
//!
//! Request authentication is the per-request constant that sharding cannot
//! amortize (Section 6.3 charges ~22 µs of CPU per delivered request), so
//! the registry provides three verification tiers:
//!
//! 1. [`SignatureRegistry::verify_uncached`] — one serial MAC recomputation;
//!    the ground-truth oracle.
//! 2. [`SignatureRegistry::verify`] — consults the **verified-signature
//!    cache** first: a sharded set of SHA-256 witnesses over
//!    `(identity, message, signature)`. The cache lives behind an `Arc`
//!    shared by every clone of the registry, so in a simulation where all N
//!    nodes hold clones of one registry, any given client signature is
//!    verified at most once per process — the leader pays the MAC, the N−1
//!    followers validating the same batch pay one hash and a set lookup.
//!    That is a property of *sharing a registry*, not of the scheme: the TCP
//!    engine (`iss_net::TcpCluster`) and the wall-clock benchmark build one
//!    registry per replica, as separate machines would, so there every
//!    follower pays witness + MAC for every request, and the cache only hits
//!    on a leader re-validating its own proposals and on re-sent requests.
//!    Only *successful* verifications are cached, and the witness covers the
//!    full `(identity, length-prefixed message, signature)` triple, so a bad
//!    signature can never be cached as valid and a cached entry can never
//!    vouch for a different message or a tampered signature (that would
//!    require a SHA-256 collision). The cache is **bounded** by a
//!    generation scheme (two witness generations per shard, rotated when
//!    the configured cap — `ISS_SIG_CACHE_MAX`, default
//!    [`DEFAULT_SIG_CACHE_MAX`] — fills; hot witnesses are promoted across
//!    rotations), so multi-hour simulations hold ~2× the cap of 32-byte
//!    witnesses at most. Eviction can only ever cost a recomputation,
//!    never change a verification result.
//! 3. [`SignatureRegistry::verify_batch`] — the cache check of (2) plus a
//!    fan-out of the cache misses across a **long-lived worker pool** sized
//!    by `available_parallelism`. The pool threads are spawned once per
//!    process (lazily, on the first batch large enough to parallelize) and
//!    then fed through a submission queue, so a batch pays two mutex
//!    operations and a condvar wake instead of a `thread::spawn`/`join`
//!    round-trip per call — the spawn cost is what previously made the
//!    parallel path *slower* than serial for fig-scale batches. Workers
//!    claim fixed strides of the miss list with an atomic cursor and write
//!    results positionally, so the output is bit-identical to the serial
//!    oracle regardless of worker count or interleaving: parallelism
//!    changes wall-clock, never outcomes.

use crate::hmac::HmacKey;
use crate::sha256::Sha256;
use iss_types::{ClientId, Error, FxBuildHasher, NodeId, Result};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Byte length of a signature (matches the 64-byte ECDSA P-256 signatures of
/// the paper for wire-size accounting).
pub const SIGNATURE_LEN: usize = 64;

/// Below this many cache misses [`SignatureRegistry::verify_batch`] verifies
/// serially: waking pool workers costs more than the MACs they would compute.
///
/// Measured, not tuned by hand: with the SHA-NI kernel a miss costs ≈ 0.44 µs
/// (witness + MAC + cache insert), of which only the MAC half fans out. On
/// the 2-core reference box, caller + one pool worker against serial, an
/// otherwise idle machine: 64 misses 27 → 39–56 µs (slower), 128 misses
/// 57 → 74–81 µs (slower), 256 misses 115 → 115–119 µs (a tie), 512 misses
/// 219–232 → 203–222 µs, 2048 misses 0.89–0.94 → 0.74–0.77 ms (−17 %). On the
/// saturated `tcp_signed_closed` workload, where no core is idle, 512 and
/// "never" cost the same CPU per request and 64 cost ≈ 8 % more.
pub const PARALLEL_VERIFY_MIN: usize = 512;

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

/// Number of shards of the verified-signature cache. Sharding keeps lock
/// hold times negligible when `verify_batch` workers insert concurrently
/// with other registry users.
const CACHE_SHARDS: usize = 16;

/// Default witness cap of the verified-signature cache (see
/// [`sig_cache_max`]): 2²⁰ ≈ 1M witnesses ≈ 32 MB of resident 32-byte
/// hashes per generation, far above what a fig8-scale run accumulates but a
/// hard bound for multi-hour simulations.
pub const DEFAULT_SIG_CACHE_MAX: usize = 1 << 20;

/// Resolves the process-wide witness cap: `ISS_SIG_CACHE_MAX` (a witness
/// count; `0` is clamped to 1 per generation) or [`DEFAULT_SIG_CACHE_MAX`].
/// Read once per process.
pub fn sig_cache_max() -> usize {
    static CAP: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CAP.get_or_init(|| parse_sig_cache_max(std::env::var("ISS_SIG_CACHE_MAX").ok().as_deref()))
}

/// Parses an `ISS_SIG_CACHE_MAX` value (separated from the env read so the
/// parsing is unit-testable without mutating process state).
pub fn parse_sig_cache_max(raw: Option<&str>) -> usize {
    raw.and_then(|v| v.trim().parse().ok())
        .unwrap_or(DEFAULT_SIG_CACHE_MAX)
}

/// One cache shard: two *generations* of witness sets. Inserts go to
/// `current`; when `current` reaches the per-shard generation cap, it is
/// rotated into `previous` and the old `previous` — the witnesses least
/// recently confirmed — is dropped wholesale. Lookups probe both
/// generations and promote `previous` hits into `current`, so hot witnesses
/// survive rotations indefinitely while cold ones age out after two.
#[derive(Default)]
struct CacheShard {
    current: HashSet<[u8; 32], FxBuildHasher>,
    previous: HashSet<[u8; 32], FxBuildHasher>,
}

impl CacheShard {
    /// Membership probe with promotion (see the struct docs).
    fn contains(&mut self, witness: &[u8; 32], generation_cap: usize) -> bool {
        if self.current.contains(witness) {
            return true;
        }
        if self.previous.remove(witness) {
            self.insert(*witness, generation_cap);
            return true;
        }
        false
    }

    fn insert(&mut self, witness: [u8; 32], generation_cap: usize) {
        if self.current.len() >= generation_cap && !self.current.contains(&witness) {
            self.previous = std::mem::take(&mut self.current);
        }
        self.current.insert(witness);
    }
}

/// Sharded, *bounded* set of verification witnesses (see the module docs):
/// the SHA-256 of `(identity, length-prefixed message, signature)` for every
/// signature this process has successfully verified, held in two
/// generations per shard so the cache can never grow past ~2× the
/// configured witness cap no matter how long the simulation runs.
///
/// Eviction is invisible to callers beyond wall-clock: a dropped witness
/// just makes the next verification of that signature recompute the MAC —
/// the *result* of every verification is identical with any cap (including
/// a cap of one), which `tests/verify_equivalence.rs` asserts.
struct VerifiedCache {
    shards: [Mutex<CacheShard>; CACHE_SHARDS],
    /// Per-shard, per-generation witness cap: the process-wide cap split
    /// across the shards and the two generations.
    generation_cap: usize,
}

impl Default for VerifiedCache {
    fn default() -> Self {
        Self::with_cap(sig_cache_max())
    }
}

impl VerifiedCache {
    /// Creates a cache bounded to roughly `cap` resident witnesses (exactly
    /// `2 × CACHE_SHARDS × generation_cap` in the limit).
    fn with_cap(cap: usize) -> Self {
        VerifiedCache {
            shards: std::array::from_fn(|_| Mutex::new(CacheShard::default())),
            generation_cap: (cap / (2 * CACHE_SHARDS)).max(1),
        }
    }

    /// The collision-resistant cache key. The message is length-prefixed so
    /// `(message, signature)` boundaries are unambiguous, and the identity is
    /// domain-separated from the payload, so two distinct verification
    /// questions can only share a witness via a SHA-256 collision.
    ///
    /// The preimage is kept compact on purpose: for the hot case (32-byte
    /// request digest, 64-byte signature) it is 110 bytes — two SHA-256
    /// compression blocks including padding — and the witness hash is most
    /// of the cost of a cache hit.
    fn witness(id: Identity, message: &[u8], signature: &[u8]) -> [u8; 32] {
        // Version/domain byte: bump if the preimage layout ever changes.
        let (tag, index) = match id {
            Identity::Node(n) => (0xA0u8, n.0),
            Identity::Client(c) => (0xA1u8, c.0),
        };
        let mut h = Sha256::new();
        h.update(&[0x56, tag]);
        h.update(&index.to_le_bytes());
        h.update(&(message.len() as u64).to_le_bytes());
        h.update(message);
        h.update(signature);
        h.finalize()
    }

    fn shard(&self, witness: &[u8; 32]) -> &Mutex<CacheShard> {
        // The witness is a hash, so its first byte is already uniform.
        &self.shards[witness[0] as usize % CACHE_SHARDS]
    }

    fn contains(&self, witness: &[u8; 32]) -> bool {
        self.shard(witness)
            .lock()
            .expect("cache shard lock")
            .contains(witness, self.generation_cap)
    }

    fn insert(&self, witness: [u8; 32]) {
        self.shard(&witness)
            .lock()
            .expect("cache shard lock")
            .insert(witness, self.generation_cap);
    }

    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let shard = s.lock().expect("cache shard lock");
                shard.current.len() + shard.previous.len()
            })
            .sum()
    }

    fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock().expect("cache shard lock");
            shard.current.clear();
            shard.previous.clear();
        }
    }
}

/// One verification work item for [`SignatureRegistry::verify_batch`]:
/// `(signer, message, signature bytes)`.
pub type VerifyItem<'a> = (Identity, &'a [u8], &'a [u8]);

/// Items claimed per atomic-cursor grab in the verification pool. Coarse
/// enough to amortize the claim and the latch update (≈ 4 µs of MACs per
/// grab), fine enough that a straggler worker never holds more than a few
/// percent of a [`PARALLEL_VERIFY_MIN`]-sized batch.
const POOL_STRIDE: usize = 16;

/// One batch-verification job on the pool queue.
///
/// The raw pointers reference the submitting `verify_batch` call's stack
/// frame (its item slice, miss-index list, and output buffer) with the
/// lifetimes erased. That is sound because the submitter blocks on
/// [`BatchJob::wait`] — a latch that opens only after every item has been
/// verified and its result written — before any of the pointed-to storage
/// can go away, and because workers never dereference the pointers again
/// once the claim cursor is exhausted.
struct BatchJob {
    registry: *const SignatureRegistry,
    items: *const VerifyItem<'static>,
    misses: *const usize,
    misses_len: usize,
    out: *mut Result<()>,
    /// Next miss-list position to claim (strided).
    cursor: AtomicUsize,
    /// Items not yet verified; the latch [`BatchJob::wait`] blocks on.
    /// A mutex (not an atomic) so the decrement-to-zero and the condvar
    /// signal are a single critical section.
    remaining: Mutex<usize>,
    done: Condvar,
}

// SAFETY: the raw pointers are only dereferenced between submission and the
// latch opening, during which the submitter keeps the referenced storage
// alive and does not touch the output buffer (see the struct docs). Disjoint
// strides write disjoint output slots; the shared `SignatureRegistry` read
// through `registry` is `Sync` (its interior mutability is the mutex-sharded
// witness cache).
unsafe impl Send for BatchJob {}
unsafe impl Sync for BatchJob {}

impl BatchJob {
    /// Claims strides of the miss list until the cursor is exhausted,
    /// verifying each claimed item and writing its result positionally.
    /// Called by pool workers and by the submitting thread itself (the
    /// caller helps, so a batch never waits for a busy pool).
    fn run(&self) {
        loop {
            let start = self.cursor.fetch_add(POOL_STRIDE, Ordering::Relaxed);
            if start >= self.misses_len {
                return;
            }
            let end = (start + POOL_STRIDE).min(self.misses_len);
            for k in start..end {
                // SAFETY: `k < misses_len`, strides are disjoint, and the
                // submitter keeps the storage alive (see the struct docs).
                unsafe {
                    let i = *self.misses.add(k);
                    let (id, message, signature) = *self.items.add(i);
                    *self.out.add(k) = (*self.registry).verify_uncached(id, message, signature);
                }
            }
            let mut remaining = self.remaining.lock().expect("verify job latch");
            *remaining -= end - start;
            if *remaining == 0 {
                self.done.notify_all();
            }
        }
    }

    /// Blocks until every item of the job has been verified. The mutex
    /// handoff also publishes the workers' result writes to the waiter.
    fn wait(&self) {
        let mut remaining = self.remaining.lock().expect("verify job latch");
        while *remaining > 0 {
            remaining = self.done.wait(remaining).expect("verify job latch");
        }
    }
}

/// The process-wide verification worker pool: long-lived threads blocked on
/// a submission queue. Spawned lazily by the first batch that wants
/// parallelism and never torn down (the threads idle on the condvar and die
/// with the process), so steady-state batches pay queue operations instead
/// of thread spawns.
struct VerifyPool {
    queue: Mutex<VecDeque<Arc<BatchJob>>>,
    ready: Condvar,
    /// Number of worker threads (excluding submitting callers).
    threads: usize,
}

impl VerifyPool {
    /// The pool, spawning its threads on first use: one per core minus the
    /// submitting caller's, and at least one so the pooled path exists (and
    /// stays testable) on single-core machines.
    fn global() -> &'static VerifyPool {
        static POOL: OnceLock<&'static VerifyPool> = OnceLock::new();
        POOL.get_or_init(|| {
            let threads = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .saturating_sub(1)
                .max(1);
            let pool: &'static VerifyPool = Box::leak(Box::new(VerifyPool {
                queue: Mutex::new(VecDeque::new()),
                ready: Condvar::new(),
                threads,
            }));
            for w in 0..threads {
                std::thread::Builder::new()
                    .name(format!("iss-verify-{w}"))
                    .spawn(move || pool.worker_loop())
                    .expect("spawn verification worker");
            }
            pool
        })
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut queue = self.queue.lock().expect("verify pool queue");
                loop {
                    if let Some(job) = queue.pop_front() {
                        break job;
                    }
                    queue = self.ready.wait(queue).expect("verify pool queue");
                }
            };
            job.run();
        }
    }

    /// Enqueues `handles` references to `job`, waking that many workers. A
    /// worker that dequeues the job after its cursor is exhausted returns
    /// immediately, so over-submission is harmless.
    fn submit(&self, job: &Arc<BatchJob>, handles: usize) {
        let mut queue = self.queue.lock().expect("verify pool queue");
        for _ in 0..handles {
            queue.push_back(Arc::clone(job));
        }
        drop(queue);
        self.ready.notify_all();
    }
}

/// Registry of public keys (and, in this simulation substitute, the secrets
/// needed to recompute MACs during verification). Plays the role of the PKI,
/// and carries the process-wide verified-signature cache (shared by every
/// clone of the registry — see the module docs).
#[derive(Clone, Default)]
pub struct SignatureRegistry {
    keys: HashMap<Identity, (PublicKey, HmacKey)>,
    cache: Arc<VerifiedCache>,
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

    /// Replaces the verified-signature cache with a fresh one bounded to
    /// roughly `cap` resident witnesses, detaching this registry (and
    /// clones made *from now on*) from the previously shared cache. Tests
    /// use tiny caps to force eviction; production uses the process-wide
    /// [`sig_cache_max`] default.
    pub fn with_cache_cap(mut self, cap: usize) -> Self {
        self.cache = Arc::new(VerifiedCache::with_cap(cap));
        self
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
    /// the MAC. Never touches the cache: this is the serial ground-truth
    /// oracle the cached and parallel tiers are tested against.
    pub fn verify_uncached(&self, id: Identity, message: &[u8], signature: &[u8]) -> Result<()> {
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

    /// Verifies `signature` over `message` for identity `id`, memoized: a
    /// `(id, message, signature)` triple this process has verified before is
    /// accepted with one hash and a set lookup instead of a MAC
    /// recomputation. Failures are never cached.
    pub fn verify(&self, id: Identity, message: &[u8], signature: &[u8]) -> Result<()> {
        let witness = VerifiedCache::witness(id, message, signature);
        if self.cache.contains(&witness) {
            return Ok(());
        }
        self.verify_uncached(id, message, signature)?;
        self.cache.insert(witness);
        Ok(())
    }

    /// Verifies a batch of signatures, memoized and in parallel.
    ///
    /// Every item is first checked against the verified-signature cache; the
    /// misses are verified with [`Self::verify_uncached`], fanned out across
    /// the process-wide long-lived worker pool (plus the calling thread,
    /// which helps) when there are at least [`PARALLEL_VERIFY_MIN`] of them.
    /// Results are written positionally — `result[i]` always corresponds to
    /// `items[i]` and is identical to what the serial oracle returns,
    /// regardless of worker count. Successful verifications are added to the
    /// cache.
    pub fn verify_batch(&self, items: &[VerifyItem<'_>]) -> Vec<Result<()>> {
        self.verify_batch_with_workers(items, None)
    }

    /// [`Self::verify_batch`] with an explicit degree of parallelism. `None`
    /// sizes it automatically (`available_parallelism`, serial below the
    /// miss threshold); `Some(n)` forces `n` participating threads (the
    /// caller plus `n − 1` pool workers, capped by the pool size) regardless
    /// of the machine, which tests and benchmarks use to exercise the pooled
    /// path deterministically even on single-core runners.
    pub fn verify_batch_with_workers(
        &self,
        items: &[VerifyItem<'_>],
        workers: Option<usize>,
    ) -> Vec<Result<()>> {
        let mut results: Vec<Result<()>> = vec![Ok(()); items.len()];
        let mut witnesses: Vec<[u8; 32]> = Vec::with_capacity(items.len());
        let mut misses: Vec<usize> = Vec::new();
        for (i, (id, message, signature)) in items.iter().enumerate() {
            let witness = VerifiedCache::witness(*id, message, signature);
            if !self.cache.contains(&witness) {
                misses.push(i);
            }
            witnesses.push(witness);
        }

        let workers = workers
            .map(|n| n.clamp(1, misses.len().max(1)))
            .unwrap_or_else(|| Self::verify_workers(misses.len()));
        if workers > 1 {
            let mut miss_results: Vec<Result<()>> = vec![Ok(()); misses.len()];
            let job = Arc::new(BatchJob {
                registry: self as *const SignatureRegistry,
                items: items.as_ptr() as *const VerifyItem<'static>,
                misses: misses.as_ptr(),
                misses_len: misses.len(),
                out: miss_results.as_mut_ptr(),
                cursor: AtomicUsize::new(0),
                remaining: Mutex::new(misses.len()),
                done: Condvar::new(),
            });
            let pool = VerifyPool::global();
            pool.submit(&job, (workers - 1).min(pool.threads));
            // The caller helps drain the cursor, then blocks on the latch:
            // the borrows behind the job's raw pointers stay live until
            // every result is in, and the latch's mutex publishes the
            // workers' writes to this thread.
            job.run();
            job.wait();
            for (&i, result) in misses.iter().zip(miss_results) {
                results[i] = result;
            }
        } else {
            for &i in &misses {
                let (id, message, signature) = items[i];
                results[i] = self.verify_uncached(id, message, signature);
            }
        }

        for &i in &misses {
            if results[i].is_ok() {
                self.cache.insert(witnesses[i]);
            }
        }
        results
    }

    /// Verifies a batch serially with the uncached oracle — the reference
    /// implementation `verify_batch` is benchmarked and property-tested
    /// against.
    pub fn verify_batch_serial(&self, items: &[VerifyItem<'_>]) -> Vec<Result<()>> {
        items
            .iter()
            .map(|(id, m, s)| self.verify_uncached(*id, m, s))
            .collect()
    }

    /// Degree of parallelism for `misses` outstanding verifications: bounded
    /// by the machine's `available_parallelism`, and 1 (serial) below the
    /// [`PARALLEL_VERIFY_MIN`] threshold where the pool wake-up dominates.
    fn verify_workers(misses: usize) -> usize {
        if misses < PARALLEL_VERIFY_MIN {
            return 1;
        }
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        // Keep at least PARALLEL_VERIFY_MIN/2 items per participant so each
        // wakes for a meaningful amount of work.
        cores.min(misses / (PARALLEL_VERIFY_MIN / 2)).max(1)
    }

    /// Number of signatures memoized as verified (diagnostics, tests).
    pub fn verified_cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Drops every memoized verification (benchmarks, tests).
    pub fn clear_verified_cache(&self) {
        self.cache.clear();
    }

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

    #[test]
    fn successful_verification_is_cached_and_shared_by_clones() {
        let reg = SignatureRegistry::with_processes(1, 1);
        let sig = KeyPair::for_client(ClientId(0)).sign(b"m");
        assert_eq!(reg.verified_cache_len(), 0);
        reg.verify_client(ClientId(0), b"m", &sig.0).unwrap();
        assert_eq!(reg.verified_cache_len(), 1);
        // A clone (another simulated node) sees the memo.
        let clone = reg.clone();
        clone.verify_client(ClientId(0), b"m", &sig.0).unwrap();
        assert_eq!(clone.verified_cache_len(), 1);
        clone.clear_verified_cache();
        assert_eq!(reg.verified_cache_len(), 0);
    }

    #[test]
    fn failed_verification_is_never_cached() {
        let reg = SignatureRegistry::with_processes(1, 1);
        let mut sig = KeyPair::for_client(ClientId(0)).sign(b"m").to_vec();
        sig[0] ^= 0xff;
        assert!(reg.verify_client(ClientId(0), b"m", &sig).is_err());
        assert_eq!(reg.verified_cache_len(), 0);
        // And re-asking the same bad question still fails.
        assert!(reg.verify_client(ClientId(0), b"m", &sig).is_err());
    }

    #[test]
    fn cache_hit_does_not_vouch_for_other_messages_or_signatures() {
        let reg = SignatureRegistry::with_processes(0, 1);
        let kp = KeyPair::for_client(ClientId(0));
        let sig = kp.sign(b"good");
        reg.verify_client(ClientId(0), b"good", &sig.0).unwrap();
        // Same signature, different message: miss → MAC check → reject.
        assert!(reg.verify_client(ClientId(0), b"evil", &sig.0).is_err());
        // Same message, tampered signature: miss → MAC check → reject.
        let mut bad = sig.to_vec();
        bad[63] ^= 1;
        assert!(reg.verify_client(ClientId(0), b"good", &bad).is_err());
    }

    #[test]
    fn sig_cache_max_parsing() {
        assert_eq!(parse_sig_cache_max(None), DEFAULT_SIG_CACHE_MAX);
        assert_eq!(parse_sig_cache_max(Some("4096")), 4096);
        assert_eq!(parse_sig_cache_max(Some(" 64 ")), 64);
        assert_eq!(
            parse_sig_cache_max(Some("not-a-number")),
            DEFAULT_SIG_CACHE_MAX
        );
        assert_eq!(parse_sig_cache_max(Some("")), DEFAULT_SIG_CACHE_MAX);
        // 0 is accepted and clamped to one witness per shard generation.
        let cache = VerifiedCache::with_cap(0);
        assert_eq!(cache.generation_cap, 1);
    }

    #[test]
    fn bounded_cache_evicts_but_never_changes_results() {
        // A cap this small forces continuous rotation: every shard holds at
        // most one witness per generation.
        let reg = SignatureRegistry::with_processes(0, 8).with_cache_cap(CACHE_SHARDS * 2);
        let messages: Vec<Vec<u8>> = (0..512u32).map(|i| i.to_le_bytes().to_vec()).collect();
        let sigs: Vec<Vec<u8>> = (0..512u32)
            .map(|i| {
                let mut sig = KeyPair::for_client(ClientId(i % 8))
                    .sign(&messages[i as usize])
                    .to_vec();
                if i % 3 == 0 {
                    sig[(i as usize) % SIGNATURE_LEN] ^= 0x40; // corrupt every 3rd
                }
                sig
            })
            .collect();
        let verify_all = |reg: &SignatureRegistry| -> Vec<bool> {
            (0..512usize)
                .map(|i| {
                    reg.verify_client(ClientId(i as u32 % 8), &messages[i], &sigs[i])
                        .is_ok()
                })
                .collect()
        };
        let oracle: Vec<bool> = (0..512usize)
            .map(|i| {
                reg.verify_uncached(
                    Identity::Client(ClientId(i as u32 % 8)),
                    &messages[i],
                    &sigs[i],
                )
                .is_ok()
            })
            .collect();
        // Three passes: cold, after heavy eviction churn, and again — the
        // results must match the uncached oracle every time.
        for pass in 0..3 {
            assert_eq!(
                verify_all(&reg),
                oracle,
                "pass {pass} diverged from the oracle"
            );
            // The resident witness count respects the two-generation bound.
            assert!(
                reg.verified_cache_len() <= 2 * CACHE_SHARDS * 2,
                "cache grew past its bound: {}",
                reg.verified_cache_len()
            );
        }
    }

    #[test]
    fn hot_witnesses_survive_rotations_via_promotion() {
        let reg = SignatureRegistry::with_processes(0, 4).with_cache_cap(CACHE_SHARDS * 4);
        let hot_msg = b"hot".to_vec();
        let hot_sig = KeyPair::for_client(ClientId(0)).sign(&hot_msg);
        reg.verify_client(ClientId(0), &hot_msg, &hot_sig.0)
            .unwrap();
        // Churn through enough distinct witnesses to rotate every shard
        // several times, touching the hot witness between batches.
        for round in 0..8u32 {
            for i in 0..64u32 {
                let msg = (round * 64 + i).to_le_bytes().to_vec();
                let sig = KeyPair::for_client(ClientId(1)).sign(&msg);
                reg.verify_client(ClientId(1), &msg, &sig.0).unwrap();
            }
            reg.verify_client(ClientId(0), &hot_msg, &hot_sig.0)
                .unwrap();
        }
        // Still verifies (and would even if evicted — the point of the
        // companion test — but promotion keeps it resident and cheap).
        reg.verify_client(ClientId(0), &hot_msg, &hot_sig.0)
            .unwrap();
        assert!(reg.verified_cache_len() <= 2 * CACHE_SHARDS * 4);
    }

    #[test]
    fn verify_batch_matches_serial_oracle_and_caches_successes() {
        let reg = SignatureRegistry::with_processes(0, 8);
        let messages: Vec<Vec<u8>> = (0..200u32).map(|i| i.to_le_bytes().to_vec()).collect();
        let mut sigs: Vec<Vec<u8>> = (0..200u32)
            .map(|i| {
                KeyPair::for_client(ClientId(i % 8))
                    .sign(&messages[i as usize])
                    .to_vec()
            })
            .collect();
        // Corrupt every 7th signature.
        for (i, sig) in sigs.iter_mut().enumerate() {
            if i % 7 == 0 {
                sig[i % SIGNATURE_LEN] ^= 0x80;
            }
        }
        let items: Vec<VerifyItem<'_>> = (0..200usize)
            .map(|i| {
                (
                    Identity::Client(ClientId(i as u32 % 8)),
                    &messages[i][..],
                    &sigs[i][..],
                )
            })
            .collect();
        let serial = reg.verify_batch_serial(&items);
        let batch = reg.verify_batch(&items);
        assert_eq!(batch, serial);
        // A forced multi-worker pool (exercises the scoped-thread path even
        // on single-core machines) must agree item for item.
        reg.clear_verified_cache();
        assert_eq!(reg.verify_batch_with_workers(&items, Some(4)), serial);
        let good = serial.iter().filter(|r| r.is_ok()).count();
        assert_eq!(reg.verified_cache_len(), good);
        // Second round: everything good is a cache hit, bad still fails.
        assert_eq!(reg.verify_batch(&items), serial);
        assert_eq!(reg.verified_cache_len(), good);
    }
}
