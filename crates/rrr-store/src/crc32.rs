//! CRC-32 (IEEE 802.3, the zlib/PNG polynomial).
//!
//! Implemented in-tree because the build environment vendors no checksum
//! crate. Two loops compute the same checksum:
//!
//! - **Slicing-by-8**, on every target: eight 256-entry tables built at
//!   compile time let the loop fold eight input bytes per iteration (table
//!   `k` is the byte table advanced over `k` further zero bytes); the tail
//!   runs the textbook byte-at-a-time loop over table 0.
//! - **Carry-less multiply**, on `x86_64` CPUs that report PCLMULQDQ and
//!   SSE4.1 at run time: inputs of at least 128 bytes are folded 64 bytes a
//!   step (the `clmul` module); the tail of fewer than 16 bytes goes to the
//!   table loop.
//!
//! Which loop runs is decided by the CPU and the input length alone; there
//! is no setting. The table loop is the oracle: the tests compare it, the
//! bytewise algorithm and the dispatching [`Crc32::update`] on every split
//! of random inputs up to 64 KiB, so the table loop stays tested on hosts
//! where the kernel takes the long inputs.
//!
//! [`combine`] derives the checksum of a concatenation from the checksums
//! of its parts, so a caller that needs both never reads the bytes twice.

const POLY: u32 = 0xEDB8_8320;

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Slicing-by-8 over `bytes`, from and to the raw (un-inverted) register.
fn table_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Streaming CRC-32 state.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    pub fn new() -> Self {
        Crc32 { state: u32::MAX }
    }

    pub fn update(&mut self, bytes: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        let (state, bytes) = clmul::fold(self.state, bytes);
        #[cfg(not(target_arch = "x86_64"))]
        let state = self.state;
        self.state = table_update(state, bytes);
    }

    /// Finished checksum. The state itself is unaffected; more bytes can
    /// still be fed after peeking.
    pub fn finish(&self) -> u32 {
        self.state ^ u32::MAX
    }
}

/// One-shot checksum of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// `a · b` modulo the polynomial, both operands and the product in the
/// reflected representation (bit 31 is `x⁰`).
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut m = 1u32 << 31;
    while m != 0 {
        if a & m != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
        m >>= 1;
    }
    product
}

/// `X2N[k]` = `x^(2^k)` modulo the polynomial, reflected. The order of `x`
/// divides `2³² − 1`, so `x^(2^(k+32)) = x^(2^k)` and 32 entries cover
/// every `k`.
static X2N: [u32; 32] = {
    let mut t = [0u32; 32];
    t[0] = 1 << 30; // x¹
    let mut k = 1;
    while k < 32 {
        t[k] = multmodp(t[k - 1], t[k - 1]);
        k += 1;
    }
    t
};

/// The checksum of `A ‖ B` from `crc32(A)`, `crc32(B)` and the length of
/// `B`, in `O(log len_b)` without reading a byte (zlib's `crc32_combine`).
///
/// Appending `B` shifts `A`'s register `8 · len_b` bits further along, i.e.
/// multiplies it by `x^(8·len_b)`; the init and final inversions of the two
/// halves cancel, so the shifted `crc_a` is simply added to `crc_b`.
pub fn combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    let mut shift = 1 << 31; // x⁰
    let mut n = len_b;
    let mut k = 3; // one byte is x^(2^3)
    while n != 0 {
        if n & 1 != 0 {
            shift = multmodp(X2N[k % 32], shift);
        }
        n >>= 1;
        k += 1;
    }
    multmodp(shift, crc_a) ^ crc_b
}

/// The carry-less-multiply kernel: Intel's "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ" (Gopal et al., 2009), fold-by-4
/// with a Barrett reduction, in the bit-reflected form the IEEE CRC uses.
///
/// Four 128-bit accumulators each absorb one 16-byte block per 64-byte
/// step: an accumulator is multiplied forward over 512 bits (by `x^(512±32)
/// mod P`, constants k1/k2) and added to the block that lands on it. The
/// four then fold into one (k3/k4, 128 bits at a time), leftover 16-byte
/// blocks fold the same way, and the 128-bit remainder is reduced to 64
/// bits (k3/k4, k5) and then to the 32-bit register by Barrett reduction
/// (`P`, `μ = ⌊x⁶⁴ / P⌋`).
///
/// This module holds the crate's only `unsafe`: the unaligned loads, and the
/// call into the `#[target_feature]` function after the run-time check.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Shorter inputs go to the table loop: below this, loading four
    /// accumulators and the final reductions cost what the folds save.
    const MIN_LEN: usize = 128;

    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// Folds the whole 16-byte blocks of `bytes` into the raw register
    /// `state` when this CPU has the instructions and the input is long
    /// enough; returns the register and the bytes left for the table loop.
    pub(super) fn fold(state: u32, bytes: &[u8]) -> (u32, &[u8]) {
        if bytes.len() < MIN_LEN
            || !is_x86_feature_detected!("pclmulqdq")
            || !is_x86_feature_detected!("sse4.1")
        {
            return (state, bytes);
        }
        let (blocks, tail) = bytes.as_chunks::<16>();
        // SAFETY: `fold_blocks` is compiled for PCLMULQDQ and SSE4.1, and
        // both were detected on the running CPU just above.
        (unsafe { fold_blocks(state, blocks) }, tail)
    }

    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes, and `loadu` has no
        // alignment requirement.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// `acc` carried forward over the span `keys` encodes, plus `next`.
    #[target_feature(enable = "pclmulqdq")]
    fn fold_into(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, keys);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// The register after `blocks` (at least four of them).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_blocks(state: u32, blocks: &[[u8; 16]]) -> u32 {
        let (first, rest) = blocks.split_first_chunk::<4>().expect("at least 64 bytes");
        let mut acc = first.map(|b| load(&b));
        acc[0] = _mm_xor_si128(acc[0], _mm_cvtsi32_si128(state as i32));

        let k1k2 = _mm_set_epi64x(K2, K1);
        let (quads, singles) = rest.as_chunks::<4>();
        for quad in quads {
            for (a, b) in acc.iter_mut().zip(quad) {
                *a = fold_into(*a, load(b), k1k2);
            }
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold_into(acc[0], acc[1], k3k4);
        x = fold_into(x, acc[2], k3k4);
        x = fold_into(x, acc[3], k3k4);
        for b in singles {
            x = fold_into(x, load(b), k3k4);
        }

        // 128 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        x = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(x, k3k4), _mm_srli_si128::<8>(x));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );

        // Barrett reduction, 64 → 32 bits; reflected, so the result is
        // the upper half of the low quadword.
        let pmu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pmu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pmu);
        _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The textbook byte-at-a-time algorithm: the reference both loops must
    /// agree with.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        crc ^ u32::MAX
    }

    /// The slicing-by-8 loop alone, whatever this CPU offers.
    fn table_only(bytes: &[u8]) -> u32 {
        table_update(u32::MAX, bytes) ^ u32::MAX
    }

    /// Deterministic pseudo-random bytes (xorshift).
    fn noise(len: usize, mut seed: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                (seed >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn standard_vectors() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        assert_eq!(bytewise(b"123456789"), 0xCBF4_3926);
        // A megabyte of zeros, as zlib's `crc32` reports it.
        assert_eq!(crc32(&vec![0u8; 1 << 20]), 0xA738_EA1C);
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data = b"split into several chunks of uneven length";
        let mut c = Crc32::new();
        c.update(&data[..7]);
        c.update(&data[7..9]);
        c.update(&data[9..]);
        assert_eq!(c.finish(), crc32(data));
    }

    #[test]
    fn sensitive_to_single_bit() {
        let mut data = b"some payload bytes".to_vec();
        let before = crc32(&data);
        data[5] ^= 0x01;
        assert_ne!(before, crc32(&data));
    }

    /// Both sides of every length at which the dispatch or the kernel's
    /// loops change shape: the 128-byte kernel floor, the 16-byte block,
    /// the 64-byte fold-by-4 step, and long inputs with ragged tails.
    #[test]
    fn dispatch_edges_agree_with_the_references() {
        let data = noise(1 << 20, 0x9E37_79B9_7F4A_7C15);
        for len in [0, 15, 16, 63, 64, 127, 128, 129, 143, 144, 191, 192, 65_535, 65_537, 1 << 20] {
            let bytes = &data[..len];
            let want = bytewise(bytes);
            assert_eq!(table_only(bytes), want, "table loop, len {len}");
            assert_eq!(crc32(bytes), want, "dispatching update, len {len}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The dispatching `update` over arbitrary data up to 64 KiB, fed
        /// from a misaligned start in pieces cut at arbitrary points,
        /// equals the table loop and the bytewise reference over the same
        /// bytes. Lengths are log-uniform so short inputs are common too.
        #[test]
        fn update_matches_table_loop_and_bytewise_on_any_split(
            data in (0usize..=16).prop_flat_map(|bits| {
                proptest::collection::vec(any::<u8>(), 0..(1usize << bits) + 17)
            }),
            start in 0usize..16,
            cuts in proptest::collection::vec(0usize..66_000, 0..6),
        ) {
            let data = &data[start.min(data.len())..];
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.push(data.len());
            cuts.sort_unstable();
            let mut c = Crc32::new();
            let mut from = 0;
            for to in cuts {
                c.update(&data[from..to]);
                from = to;
            }
            let want = bytewise(data);
            prop_assert_eq!(c.finish(), want);
            prop_assert_eq!(crc32(data), want);
            prop_assert_eq!(table_only(data), want);
        }

        /// `combine(crc(a), crc(b), |b|) == crc(a ‖ b)` for an arbitrary
        /// split and for both splits with an empty half.
        #[test]
        fn combine_is_the_checksum_of_the_concatenation(
            data in (0usize..=13).prop_flat_map(|bits| {
                proptest::collection::vec(any::<u8>(), 0..(1usize << bits) + 1)
            }),
            cut in 0usize..8_200,
        ) {
            let whole = crc32(&data);
            for cut in [cut.min(data.len()), 0, data.len()] {
                let (a, b) = data.split_at(cut);
                prop_assert_eq!(combine(crc32(a), crc32(b), b.len() as u64), whole);
            }
        }
    }
}
