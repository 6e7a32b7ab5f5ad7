//! SHA-256 (FIPS 180-4), implemented from scratch, with a hardware
//! compression kernel where the CPU has one.
//!
//! There is one hash type, [`Sha256`], and one compression entry point,
//! `compress_blocks`, which every block of every digest, MAC and WAL
//! checksum in the workspace goes through. It runs one of:
//!
//! * **`scalar`** — the constant-table translation of the specification
//!   (512-bit blocks, 64 rounds). Portable, always compiled, and the oracle
//!   the hardware kernels are tested against ([`digest_scalar`]).
//! * **`sha-ni`** (x86-64) — the Intel SHA extensions: `sha256rnds2` does two
//!   rounds per instruction on the `(A,B,E,F)` / `(C,D,G,H)` halves of the
//!   state, `sha256msg1` + `sha256msg2` (with one `palignr` and one `paddd`)
//!   produce four message-schedule words at a time, and a `pshufb` turns the
//!   big-endian input into host-order lanes. Needs `sha`, `sse2`, `ssse3`
//!   (`pshufb`, `palignr`) and `sse4.1` (`pextrd`).
//! * **`armv8-sha2`** (aarch64) — the ARMv8 cryptography extension:
//!   `sha256h` / `sha256h2` do four rounds per pair on `(A,B,C,D)` /
//!   `(E,F,G,H)`, `sha256su0` + `sha256su1` produce four schedule words,
//!   `rev32` byte-swaps the input. Needs `neon` and `sha2`. CI only
//!   type-checks this kernel (its runners are x86-64); the unit tests below
//!   exercise it on any aarch64 machine that runs them.
//!
//! # Dispatch rule
//!
//! The kernel is chosen **once per process**, by the first hasher created:
//! `is_x86_feature_detected!` (resp. `is_aarch64_feature_detected!`) asks the
//! running CPU, the answer is kept in a `OnceLock`, and every [`Sha256`]
//! copies it into a private field that `compress_blocks` matches on. There
//! is no cargo feature, environment variable or configuration field: a
//! machine with the instructions uses them, any other machine runs the
//! scalar loop, and the digests are bit-identical either way (the unit tests
//! run the NIST vectors through every kernel the test machine has, and a
//! property test compares the kernels on random inputs and chunkings).
//! [`kernel_name`] says which one is active, so a recorded benchmark row can
//! name its kernel.
//!
//! # Why the `unsafe` is sound
//!
//! The hardware kernels are safe `#[target_feature]` functions; calling one
//! from code compiled without the feature is the `unsafe` step, and it is
//! sound exactly when the CPU has the feature. The only place a hardware
//! `Kernel` value is made is `Kernel::hardware`, after the detection macro has
//! confirmed every feature the kernel's attribute names; the enum and the
//! hasher field holding it are private to this module, so safe code outside
//! it cannot name a kernel the CPU lacks. Inside the kernels the only
//! `unsafe` operations are unaligned 16-byte vector loads and stores, each
//! behind a bounds `assert!` (input blocks, round constants) or on a
//! fixed-size array (the `[u32; 8]` state).

use std::sync::OnceLock;

/// The chaining value: eight 32-bit words `a..h`.
type State = [u32; 8];

const BLOCK: usize = 64;

const H0: State = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Which compression function a hasher runs (see the module docs). Private:
/// a hardware variant existing is the proof that the CPU has its features.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kernel {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    ShaNi,
    #[cfg(target_arch = "aarch64")]
    ArmSha2,
}

impl Kernel {
    /// The kernel this process uses, detected on first call.
    fn active() -> Kernel {
        static ACTIVE: OnceLock<Kernel> = OnceLock::new();
        *ACTIVE.get_or_init(|| Kernel::hardware().unwrap_or(Kernel::Scalar))
    }

    /// The hardware kernel of the running CPU, if it has one.
    fn hardware() -> Option<Kernel> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("sse2")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
        {
            return Some(Kernel::ShaNi);
        }
        #[cfg(target_arch = "aarch64")]
        if std::arch::is_aarch64_feature_detected!("neon")
            && std::arch::is_aarch64_feature_detected!("sha2")
        {
            return Some(Kernel::ArmSha2);
        }
        None
    }

    fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            Kernel::ShaNi => "sha-ni",
            #[cfg(target_arch = "aarch64")]
            Kernel::ArmSha2 => "armv8-sha2",
        }
    }
}

/// Name of the compression kernel this process hashes with: `"sha-ni"`,
/// `"armv8-sha2"` or `"scalar"`.
pub fn kernel_name() -> &'static str {
    Kernel::active().name()
}

/// [`Sha256::digest`] computed by the portable scalar kernel whatever the
/// CPU offers — the oracle a hardware kernel is compared against.
pub fn digest_scalar(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::with_kernel(Kernel::Scalar);
    h.update(data);
    h.finalize()
}

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: State,
    /// Total number of input bytes processed so far.
    len: u64,
    /// Buffered partial block.
    buf: [u8; BLOCK],
    buf_len: usize,
    kernel: Kernel,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self::with_kernel(Kernel::active())
    }

    fn with_kernel(kernel: Kernel) -> Self {
        Sha256 {
            state: H0,
            len: 0,
            buf: [0u8; BLOCK],
            buf_len: 0,
            kernel,
        }
    }

    /// A hasher that continues from `state`, the chaining value left by
    /// `blocks` whole 64-byte blocks (see [`Self::midstate`]). This is what
    /// lets an HMAC key pay for its two pad blocks once.
    pub(crate) fn resume(state: [u32; 8], blocks: u64) -> Self {
        Sha256 {
            state,
            len: blocks * BLOCK as u64,
            ..Self::new()
        }
    }

    /// The chaining value after the whole blocks fed so far. Only meaningful
    /// on a block boundary (nothing buffered).
    pub(crate) fn midstate(&self) -> [u32; 8] {
        debug_assert_eq!(self.buf_len, 0, "midstate taken inside a block");
        self.state
    }

    /// Feeds `data` into the hasher.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buf_len > 0 {
            let take = (BLOCK - self.buf_len).min(input.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&input[..take]);
            self.buf_len += take;
            input = &input[take..];
            if self.buf_len < BLOCK {
                return self;
            }
            compress_blocks(self.kernel, &mut self.state, &self.buf);
            self.buf_len = 0;
        }
        // Whole blocks are compressed where they lie, in one kernel call.
        let (blocks, tail) = input.split_at(input.len() - input.len() % BLOCK);
        if !blocks.is_empty() {
            compress_blocks(self.kernel, &mut self.state, blocks);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
        self
    }

    /// Finalizes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        // Padding: 0x80, zeros to 56 mod 64, 8-byte big-endian bit length —
        // one block, or two when fewer than 9 bytes of the last one are free.
        let mut pad = [0u8; 2 * BLOCK];
        pad[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        pad[self.buf_len] = 0x80;
        let padded = if self.buf_len < BLOCK - 8 {
            BLOCK
        } else {
            2 * BLOCK
        };
        let bit_len = self.len.wrapping_mul(8);
        pad[padded - 8..padded].copy_from_slice(&bit_len.to_be_bytes());
        compress_blocks(self.kernel, &mut self.state, &pad[..padded]);
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Convenience: hash a single message.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Convenience: hash the concatenation of several messages.
    pub fn digest_parts(parts: &[&[u8]]) -> [u8; 32] {
        let mut h = Sha256::new();
        for p in parts {
            h.update(p);
        }
        h.finalize()
    }
}

/// Folds `blocks` — a whole number of 64-byte blocks — into `state` with
/// `kernel`. The single dispatch point.
fn compress_blocks(kernel: Kernel, state: &mut State, blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % BLOCK, 0, "partial block");
    match kernel {
        Kernel::Scalar => compress_scalar(state, blocks),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Kernel::ShaNi` is only ever produced by `Kernel::hardware`
        // after `is_x86_feature_detected!` confirmed sha, sse2, ssse3 and
        // sse4.1 — every feature `x86::compress` enables — on this CPU.
        Kernel::ShaNi => unsafe { x86::compress(state, blocks) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: `Kernel::ArmSha2` is only ever produced by
        // `Kernel::hardware` after `is_aarch64_feature_detected!` confirmed
        // neon and sha2 — every feature `arm::compress` enables — on this
        // CPU.
        Kernel::ArmSha2 => unsafe { arm::compress(state, blocks) },
    }
}

/// The portable kernel: FIPS 180-4 §6.2.2, one block at a time.
fn compress_scalar(state: &mut State, blocks: &[u8]) {
    for block in blocks.chunks_exact(BLOCK) {
        let mut w = [0u32; 64];
        for (wi, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
            *wi = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{State, BLOCK, K};
    use core::arch::x86_64::*;

    /// SHA-NI kernel. The instructions keep the state as two vectors,
    /// `(A,B,E,F)` and `(C,D,G,H)` from the high lane down; `sha256rnds2`
    /// advances one of them by two rounds given the other and two `W + K`
    /// sums in the low lanes of its third operand.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut State, blocks: &[u8]) {
        let [a, b, c, d, e, f, g, h] = state.map(|word| word as i32);
        let mut abef = _mm_set_epi32(a, b, e, f);
        let mut cdgh = _mm_set_epi32(c, d, g, h);
        for block in blocks.chunks_exact(BLOCK) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // Rounds 4j..4j+4, given schedule words 4j..4j+4.
            let mut rounds = |words: __m128i, j: usize| {
                assert!(j < 16);
                // SAFETY: `K` has 64 words and j < 16 was just checked, so
                // words 4j..4j+4 exist; the load has no alignment
                // requirement.
                let k = unsafe { _mm_loadu_si128(K.as_ptr().add(4 * j).cast()) };
                let wk = _mm_add_epi32(words, k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
                words
            };
            let mut w0 = rounds(load_be(block, 0), 0);
            let mut w1 = rounds(load_be(block, 1), 1);
            let mut w2 = rounds(load_be(block, 2), 2);
            let mut w3 = rounds(load_be(block, 3), 3);
            // Each step replaces the oldest of the four live schedule
            // vectors with the next one.
            for j in [4, 8, 12] {
                w0 = rounds(schedule(w0, w1, w2, w3), j);
                w1 = rounds(schedule(w1, w2, w3, w0), j + 1);
                w2 = rounds(schedule(w2, w3, w0, w1), j + 2);
                w3 = rounds(schedule(w3, w0, w1, w2), j + 3);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        *state = [
            _mm_extract_epi32(abef, 3),
            _mm_extract_epi32(abef, 2),
            _mm_extract_epi32(cdgh, 3),
            _mm_extract_epi32(cdgh, 2),
            _mm_extract_epi32(abef, 1),
            _mm_extract_epi32(abef, 0),
            _mm_extract_epi32(cdgh, 1),
            _mm_extract_epi32(cdgh, 0),
        ]
        .map(|word| word as u32);
    }

    /// Message words 4i..4i+4 of `block` (i < 4), big-endian, as host-order
    /// lanes.
    #[inline]
    #[target_feature(enable = "sse2,ssse3")]
    fn load_be(block: &[u8], i: usize) -> __m128i {
        assert!(16 * i + 16 <= block.len());
        // SAFETY: the assertion above puts the 16 bytes at offset 16 * i
        // inside `block`; the load has no alignment requirement.
        let raw = unsafe { _mm_loadu_si128(block.as_ptr().add(16 * i).cast()) };
        // Reverse the bytes of each 32-bit lane.
        let byte_swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        _mm_shuffle_epi8(raw, byte_swap)
    }

    /// The next four schedule words from the previous sixteen, oldest first:
    /// `W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16]`. `sha256msg1`
    /// adds the σ0 terms to the oldest vector, `palignr` supplies `W[t-7]`,
    /// `sha256msg2` adds the σ1 terms (two of which it has just produced).
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3")]
    fn schedule(w16: __m128i, w12: __m128i, w8: __m128i, w4: __m128i) -> __m128i {
        let partial = _mm_add_epi32(_mm_sha256msg1_epu32(w16, w12), _mm_alignr_epi8(w4, w8, 4));
        _mm_sha256msg2_epu32(partial, w4)
    }
}

#[cfg(target_arch = "aarch64")]
mod arm {
    use super::{State, BLOCK, K};
    use core::arch::aarch64::*;

    /// ARMv8 SHA-2 kernel. The state is two vectors, `(A,B,C,D)` and
    /// `(E,F,G,H)` from lane 0 up — the order of `State` itself; `sha256h`
    /// and `sha256h2` advance them by four rounds given four `W + K` sums.
    #[target_feature(enable = "neon,sha2")]
    pub(super) fn compress(state: &mut State, blocks: &[u8]) {
        // SAFETY: `state` is eight `u32`s; the two loads read words 0..4 and
        // 4..8 of it.
        let (mut abcd, mut efgh) =
            unsafe { (vld1q_u32(state.as_ptr()), vld1q_u32(state.as_ptr().add(4))) };
        for block in blocks.chunks_exact(BLOCK) {
            let (abcd_in, efgh_in) = (abcd, efgh);
            // Rounds 4j..4j+4, given schedule words 4j..4j+4.
            let mut rounds = |words: uint32x4_t, j: usize| {
                assert!(j < 16);
                // SAFETY: `K` has 64 words and j < 16 was just checked, so
                // words 4j..4j+4 exist.
                let wk = vaddq_u32(words, unsafe { vld1q_u32(K.as_ptr().add(4 * j)) });
                let abcd_prev = abcd;
                abcd = vsha256hq_u32(abcd, efgh, wk);
                efgh = vsha256h2q_u32(efgh, abcd_prev, wk);
                words
            };
            let mut w0 = rounds(load_be(block, 0), 0);
            let mut w1 = rounds(load_be(block, 1), 1);
            let mut w2 = rounds(load_be(block, 2), 2);
            let mut w3 = rounds(load_be(block, 3), 3);
            // Each step replaces the oldest of the four live schedule
            // vectors with the next one: `sha256su0` adds the σ0 terms to
            // it, `sha256su1` the `W[t-7]` and σ1 terms.
            for j in [4, 8, 12] {
                w0 = rounds(vsha256su1q_u32(vsha256su0q_u32(w0, w1), w2, w3), j);
                w1 = rounds(vsha256su1q_u32(vsha256su0q_u32(w1, w2), w3, w0), j + 1);
                w2 = rounds(vsha256su1q_u32(vsha256su0q_u32(w2, w3), w0, w1), j + 2);
                w3 = rounds(vsha256su1q_u32(vsha256su0q_u32(w3, w0), w1, w2), j + 3);
            }
            abcd = vaddq_u32(abcd, abcd_in);
            efgh = vaddq_u32(efgh, efgh_in);
        }
        // SAFETY: `state` is eight `u32`s; the two stores write words 0..4
        // and 4..8 of it.
        unsafe {
            vst1q_u32(state.as_mut_ptr(), abcd);
            vst1q_u32(state.as_mut_ptr().add(4), efgh);
        }
    }

    /// Message words 4i..4i+4 of `block` (i < 4), big-endian, as host-order
    /// lanes.
    #[inline]
    #[target_feature(enable = "neon")]
    fn load_be(block: &[u8], i: usize) -> uint32x4_t {
        assert!(16 * i + 16 <= block.len());
        // SAFETY: the assertion above puts the 16 bytes at offset 16 * i
        // inside `block`.
        let raw = unsafe { vld1q_u8(block.as_ptr().add(16 * i)) };
        vreinterpretq_u32_u8(vrev32q_u8(raw))
    }
}

/// Converts a digest to a lowercase hexadecimal string (testing helper).
pub fn to_hex(digest: &[u8]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every kernel this machine can run: the scalar one always, the
    /// hardware one when the CPU has it.
    fn kernels() -> Vec<Kernel> {
        std::iter::once(Kernel::Scalar)
            .chain(Kernel::hardware())
            .collect()
    }

    fn digest_with(kernel: Kernel, data: &[u8]) -> [u8; 32] {
        digest_chunked(kernel, data, &[])
    }

    /// Hashes `data` with `kernel`, cutting it into `update` calls of the
    /// given sizes (cycled, zero-length cuts included, for at most
    /// `data.len() + 1` calls; whatever is left goes in a last one).
    fn digest_chunked(kernel: Kernel, data: &[u8], cuts: &[usize]) -> [u8; 32] {
        let mut h = Sha256::with_kernel(kernel);
        let mut rest = data;
        for &cut in cuts.iter().cycle().take(data.len() + 1) {
            let (head, tail) = rest.split_at(cut.min(rest.len()));
            h.update(head);
            rest = tail;
        }
        h.update(rest);
        h.finalize()
    }

    /// NIST FIPS 180-4 examples, plus `'a' × n` at the padding edges (one
    /// padding block up to 55 bytes, two from 56; a full block at 64) as
    /// computed by coreutils' `sha256sum`.
    #[test]
    fn known_vectors_on_every_kernel() {
        let a = |n: usize| vec![b'a'; n];
        let vectors: [(Vec<u8>, &str); 11] = [
            (
                b"".to_vec(),
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc".to_vec(),
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq".to_vec(),
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
                    .to_vec(),
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
            (
                a(55),
                "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318",
            ),
            (
                a(56),
                "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a",
            ),
            (
                a(63),
                "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34",
            ),
            (
                a(64),
                "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb",
            ),
            (
                a(119),
                "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb",
            ),
            (
                a(120),
                "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c",
            ),
            (
                a(1_000_000),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ];
        for kernel in kernels() {
            for (message, expected) in &vectors {
                assert_eq!(
                    to_hex(&digest_with(kernel, message)),
                    *expected,
                    "{kernel:?}, {} bytes",
                    message.len()
                );
            }
        }
    }

    #[test]
    fn public_entry_points_agree_with_the_scalar_oracle() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        assert_eq!(Sha256::digest(&data), digest_scalar(&data));
        assert_eq!(digest_scalar(&data), digest_with(Kernel::Scalar, &data));
        assert_eq!(kernel_name(), Kernel::active().name());
        assert!(kernels().contains(&Kernel::active()));
    }

    #[test]
    fn chunk_edges_around_block_boundaries() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 31 + 7) as u8).collect();
        for kernel in kernels() {
            let one_shot = digest_with(Kernel::Scalar, &data);
            for cut in [1usize, 3, 7, 55, 56, 63, 64, 65, 127, 128, 129, 299] {
                assert_eq!(
                    digest_chunked(kernel, &data, &[cut]),
                    one_shot,
                    "{kernel:?}, chunk size {cut}"
                );
            }
        }
    }

    #[test]
    fn resume_continues_from_a_block_boundary() {
        let data: Vec<u8> = (0..200u32).map(|i| i as u8).collect();
        let mut head = Sha256::new();
        head.update(&data[..128]);
        let mut tail = Sha256::resume(head.midstate(), 2);
        tail.update(&data[128..]);
        assert_eq!(tail.finalize(), Sha256::digest(&data));
    }

    #[test]
    fn digest_parts_equals_concatenation() {
        let a = b"hello ";
        let b = b"world";
        assert_eq!(
            Sha256::digest_parts(&[a, b]),
            Sha256::digest(b"hello world")
        );
    }

    #[test]
    fn different_inputs_give_different_digests() {
        assert_ne!(Sha256::digest(b"a"), Sha256::digest(b"b"));
        assert_ne!(Sha256::digest(b""), Sha256::digest(b"\0"));
    }

    proptest! {
        /// Every kernel, under any re-chunking of `update`, gives the scalar
        /// one-shot digest. Lengths cover 0..=300 (up to five blocks, every
        /// padding case); cut sizes are drawn near block edges as often as
        /// not.
        #[test]
        fn every_kernel_and_chunking_matches_the_scalar_one_shot(
            data in proptest::collection::vec(any::<u8>(), 0..301),
            cuts in proptest::collection::vec((any::<bool>(), 0usize..4, 0usize..70), 0..8),
        ) {
            let cuts: Vec<usize> = cuts
                .into_iter()
                .map(|(edge, blocks, free)| {
                    if edge { (blocks * BLOCK + free % 3).saturating_sub(1) } else { free }
                })
                .collect();
            let expected = digest_with(Kernel::Scalar, &data);
            for kernel in kernels() {
                prop_assert_eq!(digest_chunked(kernel, &data, &cuts), expected, "{:?}", kernel);
            }
        }
    }
}
