//! CRC32-C (Castagnoli), as LevelDB/RocksDB use it: the checksum of WAL and
//! MANIFEST records, SST block frames, whole-file CRCs and per-entry
//! protection.
//!
//! [`Hasher::update`] is the one place that computes it, with two bodies:
//! the CPU's CRC32 instruction on x86-64 with SSE 4.2 (detected at run
//! time), the bytewise table loop everywhere else. The table loop is also
//! the reference the tests hold the instruction to.
//!
//! The instruction takes three cycles to produce a result but can start a
//! new one every cycle, so one dependent chain of them runs at a third of
//! its speed. Inputs of `3 * LANE` bytes or more are therefore hashed in
//! rounds of three independent lanes, joined after each round by shifting
//! the first two lanes' CRCs past the bytes that follow them
//! (`ZERO_RUNS`).

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

    /// Feeds `data` into the running CRC.
    pub fn update(&mut self, data: &[u8]) -> &mut Hasher {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sse4.2") {
            // SAFETY: `update_sse42` requires SSE 4.2 and nothing else; the
            // `is_x86_feature_detected!("sse4.2")` check above just saw it.
            #[allow(unsafe_code)]
            let state = unsafe { update_sse42(self.state, data) };
            self.state = state;
            return self;
        }
        self.state = update_table(self.state, data);
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
        // RFC 3720 test vectors, through the dispatch and through the
        // reference.
        let ascending: Vec<u8> = (0..32).collect();
        let descending: Vec<u8> = (0..32).rev().collect();
        for crc in [crc32c as fn(&[u8]) -> u32, reference] {
            assert_eq!(crc(&[0u8; 32]), 0x8A91_36AA);
            assert_eq!(crc(&[0xffu8; 32]), 0x62A8_AB43);
            assert_eq!(crc(&ascending), 0x46DD_794E);
            assert_eq!(crc(&descending), 0x113F_DB5C);
            assert_eq!(crc(b"123456789"), 0xE306_9283);
            assert_eq!(crc(b""), 0);
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
        /// with every remainder), at every alignment of the first byte, in
        /// one piece and cut into `update` calls — 1–7-byte pieces
        /// included, which is how `integrity::feed_entry` feeds a hasher and
        /// what sends a whole `update` through the kernel's tail loop.
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
            for cut in cuts {
                let (piece, tail) = rest.split_at(cut.min(rest.len()));
                h.update(piece);
                rest = tail;
            }
            h.update(rest);
            prop_assert_eq!(h.finish(), want);
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
