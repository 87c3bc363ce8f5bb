//! CRC32-C (Castagnoli), as LevelDB/RocksDB use it: the checksum of WAL and
//! MANIFEST records, SST block frames, whole-file CRCs and per-entry
//! protection.
//!
//! [`Hasher::update`] is the one place that computes it, with three
//! [`Body`]s, picked once per process:
//! - the bytewise table loop, the reference the tests hold the others to
//!   and the only body off x86-64;
//! - the CPU's `crc32` instruction in three interleaved lanes, on x86-64
//!   with SSE 4.2;
//! - carry-less multiplication folding 256 bytes per step, on x86-64 with
//!   AVX-512 `VPCLMULQDQ`, for inputs of 256 bytes or more; shorter ones go
//!   to the three lanes.
//!
//! The instruction takes three cycles to produce a result but can start a
//! new one every cycle, so one dependent chain of them runs at a third of
//! its speed. Inputs of `3 * LANE` bytes or more are therefore hashed in
//! rounds of three independent lanes, joined after each round by shifting
//! the first two lanes' CRCs past the bytes that follow them
//! (`ZERO_RUNS`).
//!
//! The folding body keeps four 512-bit accumulators: CRC is linear, so
//! multiplying 16 bytes by `x^n mod P` moves them `n` bits further on
//! without changing the remainder, and one multiply-and-XOR per 64 bytes
//! carries each accumulator over the 256 bytes the step reads. What is left
//! at the end is one 16-byte value, and the `crc32` instruction finishes it
//! and the tail. On a 2.1 GHz Xeon, pinned (`engine_micro`'s `crc32c`
//! rows), a hot 4 KiB block hashes in about 71 ns against 266 through the
//! three lanes and 14,800 through the table loop, and a 1 KiB value in 26
//! against 76 (EXPERIMENTS.md "Host cost, round 11").

const POLY: u32 = 0x82F6_3B78; // reversed Castagnoli polynomial

const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut k = 0;
        while k < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            k += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Advances the (pre-inversion) CRC `state` over `data`, a byte per step.
fn update_table(state: u32, data: &[u8]) -> u32 {
    let table = &TABLE;
    let mut crc = state;
    for &b in data {
        crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xff) as usize];
    }
    crc
}

/// Bytes each lane of the three-lane kernel hashes per round: `2^8`, so
/// [`ZERO_RUNS`]`[8]` and `[9]` shift a lane's CRC past one and two lanes.
const LANE: usize = 1 << 8;

/// A table that advances a CRC state over a fixed run of zero bytes, one
/// lookup per byte of the state: `shift(table, crc)`.
type ShiftTable = [[u32; 256]; 4];

/// The [`ShiftTable`] of a run, from where the run takes each of the 32
/// state bits: feeding zero bytes is linear in the state.
const fn table_from_basis(basis: [u32; 32]) -> ShiftTable {
    let mut table = [[0u32; 256]; 4];
    let mut byte = 0;
    while byte < 4 {
        let mut v = 0;
        while v < 256 {
            let mut b = 0;
            while b < 8 {
                if (v >> b) & 1 != 0 {
                    table[byte][v] ^= basis[8 * byte + b];
                }
                b += 1;
            }
            v += 1;
        }
        byte += 1;
    }
    table
}

/// How many [`ZERO_RUNS`] there are: the ten up to the two lane shifts.
const ZERO_RUN_TABLES: usize = 10;

/// `ZERO_RUNS[k]` advances a CRC state over `2^k` zero bytes. The first
/// is one step of the table loop; each next one is the one before applied
/// twice.
static ZERO_RUNS: [ShiftTable; ZERO_RUN_TABLES] = {
    let mut tables = [[[0u32; 256]; 4]; ZERO_RUN_TABLES];
    let mut basis = [0u32; 32];
    let mut bit = 0;
    while bit < 32 {
        basis[bit] = ((1u32 << bit) >> 8) ^ TABLE[((1u32 << bit) & 0xff) as usize];
        bit += 1;
    }
    tables[0] = table_from_basis(basis);
    let mut k = 1;
    while k < ZERO_RUN_TABLES {
        let mut bit = 0;
        while bit < 32 {
            basis[bit] = shift(&tables[k - 1], shift(&tables[k - 1], 1 << bit));
            bit += 1;
        }
        tables[k] = table_from_basis(basis);
        k += 1;
    }
    tables
};

/// `crc` advanced over the zero bytes `table` was built for.
const fn shift(table: &ShiftTable, crc: u32) -> u32 {
    let [b0, b1, b2, b3] = crc.to_le_bytes();
    table[0][b0 as usize] ^ table[1][b1 as usize] ^ table[2][b2 as usize] ^ table[3][b3 as usize]
}

/// Advances `state` over `data` with the `crc32` instruction: rounds of
/// three interleaved lanes of [`LANE`] bytes while `3 * LANE` bytes remain,
/// then one lane eight bytes per instruction, then the 0–7-byte tail one
/// byte per instruction. Callable only where SSE 4.2 is known to be
/// present.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn update_sse42(state: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("chunks_exact(8)"));
    let mut crc = state;
    let mut rounds = data.chunks_exact(3 * LANE);
    for round in &mut rounds {
        let (a, rest) = round.split_at(LANE);
        let (b, c) = rest.split_at(LANE);
        // Lane `a` continues the running CRC; `b` and `c` start from zero
        // and are shifted into place below, which is what linearity allows.
        let (mut ca, mut cb, mut cc) = (u64::from(crc), 0u64, 0u64);
        for ((wa, wb), wc) in a
            .chunks_exact(8)
            .zip(b.chunks_exact(8))
            .zip(c.chunks_exact(8))
        {
            ca = _mm_crc32_u64(ca, word(wa));
            cb = _mm_crc32_u64(cb, word(wb));
            cc = _mm_crc32_u64(cc, word(wc));
        }
        // The instruction leaves the upper half of its 64-bit result zero.
        crc = shift(&ZERO_RUNS[9], ca as u32) ^ shift(&ZERO_RUNS[8], cb as u32) ^ cc as u32;
    }
    let mut words = rounds.remainder().chunks_exact(8);
    let mut crc = u64::from(crc);
    for w in &mut words {
        crc = _mm_crc32_u64(crc, word(w));
    }
    let mut crc = crc as u32;
    for &b in words.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    crc
}

/// The shortest input the folding body takes: its four accumulators'
/// first load. Below it [`update_fold`] hands the input to the three lanes.
/// A folding body from one accumulator would win only from about 192
/// bytes, and the engine hashes almost nothing between that and 256
/// (EXPERIMENTS.md "Host cost, round 11").
const FOLD_MIN: usize = 4 * 64;

/// The multiplier that carries a reflected 64-bit half `n` bits further:
/// `x^n mod P`, bit-reflected and shifted left by one (a carry-less
/// product of two reflected values comes out one bit short).
const fn fold_constant(n: u32) -> u64 {
    let mut rem = 1u32; // x^0, in the polynomial's normal bit order
    let mut i = 0;
    while i < n {
        let carry = rem & 0x8000_0000 != 0;
        rem <<= 1;
        if carry {
            rem ^= POLY.reverse_bits();
        }
        i += 1;
    }
    (rem.reverse_bits() as u64) << 1
}

/// The pair that carries a 16-byte value `n` bits further on: the low
/// (earlier) half's multiplier, then the high half's. The halves sit 64
/// bits apart and a 32-bit multiplier sits 32 bits up in its 64, hence
/// `n + 32` and `n - 32`.
const fn fold_by(n: u32) -> [i64; 2] {
    [fold_constant(n + 32) as i64, fold_constant(n - 32) as i64]
}

/// One accumulator's way over a step of four: 256 bytes.
const FOLD_2048: [i64; 2] = fold_by(2048);
/// One accumulator into the next: 64 bytes.
const FOLD_512: [i64; 2] = fold_by(512);
/// The four 16-byte quarters of the last accumulator into its last one.
const FOLD_384: [i64; 2] = fold_by(384);
const FOLD_256: [i64; 2] = fold_by(256);
const FOLD_128: [i64; 2] = fold_by(128);

/// Advances `state` over `data` by carry-less multiplication: four 512-bit
/// accumulators take 256 bytes per step, fold into one by 512 bits, that
/// one takes the 64-byte blocks left, then its four quarters fold into one
/// 16-byte value by 384, 256 and 128 bits, which takes the 16-byte pieces
/// left. The `crc32` instruction hashes that value and the 0–15-byte tail
/// from state 0. Inputs shorter than [`FOLD_MIN`] go to [`update_sse42`].
/// Callable only where every feature it names is known to be present.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,vpclmulqdq,pclmulqdq,sse4.2")]
fn update_fold(state: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::*;
    let (blocks, rest) = data.as_chunks::<64>();
    let Some((first, blocks)) = blocks.split_first_chunk::<{ FOLD_MIN / 64 }>() else {
        return update_sse42(state, data);
    };
    let wide = |[lo, hi]: [i64; 2]| _mm512_broadcast_i32x4(_mm_set_epi64x(hi, lo));
    let (k2048, k512) = (wide(FOLD_2048), wide(FOLD_512));
    // The caller's state is XORed into the first four bytes: the CRC of
    // `data` from `state` is the CRC from 0 of `data` so changed.
    let mut acc = first.each_ref().map(|block| load_512(block));
    acc[0] = _mm512_xor_si512(
        acc[0],
        _mm512_set_epi64(0, 0, 0, 0, 0, 0, 0, i64::from(state)),
    );
    let (steps, blocks) = blocks.as_chunks::<4>();
    for step in steps {
        for (a, block) in acc.iter_mut().zip(step) {
            *a = _mm512_xor_si512(fold_512(*a, k2048), load_512(block));
        }
    }
    let mut one = acc[0];
    for a in &acc[1..] {
        one = _mm512_xor_si512(fold_512(one, k512), *a);
    }
    for block in blocks {
        one = _mm512_xor_si512(fold_512(one, k512), load_512(block));
    }
    let ([a0, a1], [b0, b1], [c0, c1]) = (FOLD_384, FOLD_256, FOLD_128);
    let quarters = fold_512(one, _mm512_set_epi64(0, 0, c1, c0, b1, b0, a1, a0));
    let mut x = _mm_xor_si128(
        _mm_xor_si128(
            _mm512_extracti32x4_epi32::<0>(quarters),
            _mm512_extracti32x4_epi32::<1>(quarters),
        ),
        _mm_xor_si128(
            _mm512_extracti32x4_epi32::<2>(quarters),
            _mm512_extracti32x4_epi32::<3>(one),
        ),
    );
    let (pieces, tail) = rest.as_chunks::<16>();
    let k128 = _mm_set_epi64x(c1, c0);
    let word = |w: &[u8]| i64::from_le_bytes(w.try_into().expect("split_at(8) of 16"));
    for piece in pieces {
        let (lo, hi) = piece.split_at(8);
        let folded = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(x, k128),
            _mm_clmulepi64_si128::<0x11>(x, k128),
        );
        x = _mm_xor_si128(folded, _mm_set_epi64x(word(hi), word(lo)));
    }
    let mut last = [0u8; 16];
    last[..8].copy_from_slice(&_mm_cvtsi128_si64(x).to_le_bytes());
    last[8..].copy_from_slice(&_mm_extract_epi64::<1>(x).to_le_bytes());
    update_sse42(update_sse42(0, &last), tail)
}

/// `acc`'s four 16-byte quarters each carried on by the pair `k` holds in
/// that quarter.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,vpclmulqdq")]
fn fold_512(
    acc: std::arch::x86_64::__m512i,
    k: std::arch::x86_64::__m512i,
) -> std::arch::x86_64::__m512i {
    use std::arch::x86_64::{_mm512_clmulepi64_epi128, _mm512_xor_si512};
    _mm512_xor_si512(
        _mm512_clmulepi64_epi128::<0x00>(acc, k),
        _mm512_clmulepi64_epi128::<0x11>(acc, k),
    )
}

/// The 64 bytes of `block` as one 512-bit value.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn load_512(block: &[u8; 64]) -> std::arch::x86_64::__m512i {
    // SAFETY: `block` is 64 readable bytes, and an unaligned load asks for
    // nothing more; the caller's `target_feature` proves AVX-512F.
    #[allow(unsafe_code)]
    unsafe {
        std::arch::x86_64::_mm512_loadu_si512(block.as_ptr().cast())
    }
}

/// One way to compute the CRC. Every body computes the same function;
/// they differ in speed and in what the CPU must have. Each needs what the
/// one before it needs and more, so a host runs every body up to the one it
/// picks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Body {
    /// The bytewise table loop: the reference, and the only body off
    /// x86-64.
    Table,
    /// The `crc32` instruction in three interleaved lanes (SSE 4.2).
    #[cfg(target_arch = "x86_64")]
    ThreeLane,
    /// Carry-less multiplication, 256 bytes per step (AVX-512
    /// `VPCLMULQDQ`), on inputs of 256 bytes or more; shorter ones take
    /// [`Body::ThreeLane`].
    #[cfg(target_arch = "x86_64")]
    Fold,
}

impl Body {
    /// The fastest body this host can run: what [`Hasher::update`] uses,
    /// found on the first call and kept for the life of the process.
    pub fn picked() -> Body {
        static PICKED: std::sync::LazyLock<Body> = std::sync::LazyLock::new(|| {
            #[cfg(target_arch = "x86_64")]
            {
                use std::arch::is_x86_feature_detected as has;
                if has!("avx512f") && has!("vpclmulqdq") && has!("pclmulqdq") && has!("sse4.2") {
                    return Body::Fold;
                }
                if has!("sse4.2") {
                    return Body::ThreeLane;
                }
            }
            Body::Table
        });
        *PICKED
    }

    /// Every body this host can run, slowest first.
    pub fn available() -> Vec<Body> {
        let mut bodies = vec![Body::Table];
        #[cfg(target_arch = "x86_64")]
        bodies.extend([Body::ThreeLane, Body::Fold]);
        bodies.retain(|&body| body <= Body::picked());
        bodies
    }

    /// The CRC32-C of `data` through this body alone. Panics if the host
    /// cannot run it.
    pub fn crc32c(self, data: &[u8]) -> u32 {
        !self.update(!0, data)
    }

    /// Advances the (pre-inversion) CRC `state` over `data`.
    fn update(self, state: u32, data: &[u8]) -> u32 {
        assert!(
            self <= Body::picked(),
            "{self:?} needs a CPU feature this host lacks"
        );
        match self {
            Body::Table => update_table(state, data),
            // SAFETY: a body needs the features `Body::picked` saw and
            // nothing more (the assert above), so the bodies' features are
            // present.
            #[cfg(target_arch = "x86_64")]
            #[allow(unsafe_code)]
            body => unsafe {
                match body {
                    Body::Fold => update_fold(state, data),
                    _ => update_sse42(state, data),
                }
            },
        }
    }
}

/// CRC32-C of `data`.
pub fn crc32c(data: &[u8]) -> u32 {
    let mut h = Hasher::new();
    h.update(data);
    h.finish()
}

/// Incremental CRC32-C over a stream of chunks — used for whole-file
/// checksums (SSTs, WAL segments) where buffering the entire file just to
/// hash it would be wasteful. `Hasher::new().update(a).update(b).finish()`
/// equals `crc32c(a ++ b)`.
#[derive(Clone, Copy, Debug)]
pub struct Hasher {
    /// Internal (pre-inversion) CRC state.
    state: u32,
}

impl Default for Hasher {
    fn default() -> Hasher {
        Hasher::new()
    }
}

impl Hasher {
    /// A fresh hasher (equivalent to having hashed zero bytes).
    pub fn new() -> Hasher {
        Hasher { state: !0u32 }
    }

    /// Feeds `data` into the running CRC, through [`Body::picked`].
    pub fn update(&mut self, data: &[u8]) -> &mut Hasher {
        self.state = Body::picked().update(self.state, data);
        self
    }

    /// The CRC32-C of everything fed so far (does not consume the hasher;
    /// more `update` calls may follow).
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// LevelDB-style masked CRC (so that CRCs stored alongside data do not
/// accidentally validate as CRCs of themselves).
pub fn masked(crc: u32) -> u32 {
    crc.rotate_right(15).wrapping_add(0xa282_ead8)
}

/// Inverse of [`masked`].
pub fn unmask(masked_crc: u32) -> u32 {
    let rot = masked_crc.wrapping_sub(0xa282_ead8);
    rot.rotate_left(15)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The table loop as a one-shot CRC: what every build computed before the
    /// instruction, and what a machine without it still computes.
    fn reference(data: &[u8]) -> u32 {
        !update_table(!0, data)
    }

    #[test]
    fn known_vectors() {
        // RFC 3720 test vectors, through the dispatch, the reference and
        // every body this host runs, and the same bytes repeated past the
        // folding body's minimum against the reference.
        let ascending: Vec<u8> = (0..32).collect();
        let descending: Vec<u8> = (0..32).rev().collect();
        let every_crc = |data: &[u8]| {
            let bodies = Body::available().into_iter().map(|body| body.crc32c(data));
            [crc32c(data), reference(data)]
                .into_iter()
                .chain(bodies)
                .collect::<Vec<_>>()
        };
        for (data, want) in [
            (&[0u8; 32][..], 0x8A91_36AA),
            (&[0xffu8; 32], 0x62A8_AB43),
            (&ascending, 0x46DD_794E),
            (&descending, 0x113F_DB5C),
            (b"123456789", 0xE306_9283),
            (b"", 0),
        ] {
            assert!(every_crc(data).iter().all(|&crc| crc == want), "{data:?}");
            let long = data.repeat(FOLD_MIN / 32 * 3 + 1);
            assert!(every_crc(&long).iter().all(|&crc| crc == reference(&long)));
        }
    }

    #[test]
    fn fold_constants_are_the_known_ones() {
        assert_eq!(FOLD_2048, [0xdcb1_7aa4, 0xb9e0_2b86]);
        assert_eq!(FOLD_512, [0x740e_ef02, 0x9e4a_ddf8]);
    }

    /// Every length through two full folding steps after the first and
    /// every 64- and 16-byte remainder after them, at every alignment of
    /// the first byte, through every body this host runs, in one piece and
    /// cut in two at one of several points.
    #[test]
    fn every_body_matches_the_table_loop() {
        let mut rng = xlsm_sim::rng::SplitMix64::new(48);
        let buf: Vec<u8> = (0..4 * FOLD_MIN + 8)
            .map(|_| rng.next_u64() as u8)
            .collect();
        for body in Body::available() {
            for len in 0..4 * FOLD_MIN {
                for offset in 0..8 {
                    let data = &buf[offset..offset + len];
                    let want = reference(data);
                    assert_eq!(
                        body.crc32c(data),
                        want,
                        "{body:?}, {len} bytes at +{offset}"
                    );
                    let cut = [1, 7, 16, FOLD_MIN, len / 2][len % 5].min(len);
                    let (a, b) = data.split_at(cut);
                    assert_eq!(
                        !body.update(body.update(!0, a), b),
                        want,
                        "{body:?}, {len} cut at {cut}"
                    );
                }
            }
        }
    }

    #[test]
    fn incremental_hasher_matches_one_shot() {
        let data: Vec<u8> = (0..255u8).cycle().take(4096).collect();
        for split in [0usize, 1, 7, 255, 2048, 4095, 4096] {
            let mut h = Hasher::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), crc32c(&data), "split at {split}");
        }
        // finish() is non-destructive.
        let mut h = Hasher::new();
        h.update(b"abc");
        let first = h.finish();
        assert_eq!(h.finish(), first);
        h.update(b"def");
        assert_eq!(h.finish(), crc32c(b"abcdef"));
    }

    #[test]
    fn mask_roundtrip_known() {
        let c = crc32c(b"foo");
        assert_ne!(masked(c), c);
        assert_eq!(unmask(masked(c)), c);
    }

    #[test]
    fn zero_runs_feed_zero_bytes() {
        let zeros = vec![0u8; 1 << 13];
        for (k, table) in ZERO_RUNS.iter().enumerate() {
            for crc in [0u32, 1, 0x8000_0000, 0xdead_beef, !0] {
                assert_eq!(
                    shift(table, crc),
                    update_table(crc, &zeros[..1 << k]),
                    "2^{k}"
                );
            }
        }
    }

    proptest! {
        /// Every length the engine hashes in one call (up to two blocks and
        /// a bit, so every count of three-lane rounds from none to eleven
        /// and of folding steps to thirty-five, with every remainder), at
        /// every alignment of the first byte, in one piece and cut into
        /// `update` calls — 1–7-byte pieces included, which is how
        /// `integrity::feed_entry` feeds a hasher and what sends a whole
        /// `update` through the kernel's tail loop — through the dispatch
        /// and through every body this host runs.
        #[test]
        fn dispatch_matches_the_table_loop(
            seed in any::<u64>(),
            len in 0usize..9001,
            offset in 0usize..8,
            cuts in prop::collection::vec(prop_oneof![1usize..8, 1usize..2048], 0..32),
        ) {
            let mut rng = xlsm_sim::rng::SplitMix64::new(seed);
            let buf: Vec<u8> = (0..9008).map(|_| rng.next_u64() as u8).collect();
            let data = &buf[offset..offset + len];
            let want = reference(data);
            prop_assert_eq!(crc32c(data), want);
            let mut h = Hasher::new();
            let mut rest = data;
            for &cut in &cuts {
                let (piece, tail) = rest.split_at(cut.min(rest.len()));
                h.update(piece);
                rest = tail;
            }
            h.update(rest);
            prop_assert_eq!(h.finish(), want);
            for body in Body::available() {
                prop_assert_eq!(body.crc32c(data), want);
                let mut state = !0;
                let mut rest = data;
                for &cut in &cuts {
                    let (piece, tail) = rest.split_at(cut.min(rest.len()));
                    state = body.update(state, piece);
                    rest = tail;
                }
                prop_assert_eq!(!body.update(state, rest), want, "{:?}", body);
            }
        }

        #[test]
        fn mask_roundtrip(v in any::<u32>()) {
            prop_assert_eq!(unmask(masked(v)), v);
        }

        #[test]
        fn different_data_different_crc(a in prop::collection::vec(any::<u8>(), 1..64),
                                        b in prop::collection::vec(any::<u8>(), 1..64)) {
            prop_assume!(a != b);
            // Not a guarantee, but with proptest's case counts a collision
            // would indicate a broken implementation.
            prop_assert_ne!(crc32c(&a), crc32c(&b));
        }
    }
}
