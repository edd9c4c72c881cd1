//! CRC-32 (IEEE 802.3, the zlib/PNG polynomial), slicing-by-8.
//!
//! Implemented in-tree because the build environment vendors no checksum
//! crate. Eight 256-entry tables built at compile time let the hot loop
//! fold eight input bytes per iteration (table `k` is the byte table
//! advanced over `k` further zero bytes); the tail runs the textbook
//! byte-at-a-time loop over table 0. Portable safe code, one path on every
//! target, and the same checksum as the bytewise algorithm on every input
//! and every split of an input — the tests compare the two.

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
        let t = &TABLES;
        let mut crc = self.state;
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
        self.state = crc;
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The textbook byte-at-a-time algorithm: the reference the sliced
    /// `update` must agree with.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        crc ^ u32::MAX
    }

    #[test]
    fn standard_vectors() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        assert_eq!(bytewise(b"123456789"), 0xCBF4_3926);
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Slicing `update` over arbitrary data, fed from a misaligned
        /// start in pieces cut at arbitrary points, equals the bytewise
        /// reference over the same bytes.
        #[test]
        fn sliced_update_matches_bytewise_on_any_split(
            data in proptest::collection::vec(any::<u8>(), 0..4104),
            start in 0usize..8,
            cuts in proptest::collection::vec(0usize..4097, 0..6),
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
            prop_assert_eq!(c.finish(), bytewise(data));
            prop_assert_eq!(crc32(data), bytewise(data));
        }
    }
}
