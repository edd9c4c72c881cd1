//! A small multiply-rotate hasher for the workspace's fixed-width keys.
//!
//! The hot maps are keyed by one to four machine words — `(VpId, Prefix)`,
//! `Ipv4` pairs, arena ids, interned AS paths — and std's SipHash-1-3 costs
//! more than the probe it guards. [`FastHasher`] folds each word the derived
//! `Hash` impls write (`write_u8` … `write_u64`) into a 64-bit state with one
//! widening multiply, and rotates on `finish` so both the bucket index (low
//! bits) and hashbrown's control tag (top seven bits) see every input bit.
//!
//! Each map instance draws its own seed from std's `RandomState`, the way a
//! default `HashMap` does. That keeps two properties of the default hasher:
//! collisions cannot be precomputed from the source, and iteration order
//! differs between instances and runs, so an order leak into output still
//! trips the determinism tests. It does **not** make this a keyed PRF: an
//! adversary who can time probes against a long-lived map could in principle
//! recover enough of the seed to aim collisions, which SipHash is built to
//! resist and this is not.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// Odd 64-bit constant (2^64 / φ).
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// `HashMap` over [`FastState`].
pub type FastMap<K, V> = HashMap<K, V, FastState>;
/// `HashSet` over [`FastState`].
pub type FastSet<T> = HashSet<T, FastState>;

/// Per-map seed for [`FastHasher`]; `Default` draws a fresh one.
#[derive(Debug, Clone, Copy)]
pub struct FastState {
    seed: u64,
}

impl Default for FastState {
    fn default() -> Self {
        // `RandomState::new()` is randomly keyed per thread and bumps the key
        // per instance; hashing a constant through it turns that into a word.
        FastState { seed: RandomState::new().hash_one(0u8) }
    }
}

impl BuildHasher for FastState {
    type Hasher = FastHasher;

    #[inline]
    fn build_hasher(&self) -> FastHasher {
        FastHasher { state: self.seed }
    }
}

/// See the module docs.
#[derive(Debug, Clone, Copy)]
pub struct FastHasher {
    state: u64,
}

impl FastHasher {
    /// Full 64×64→128 multiply folded back to 64 bits, so high input bits
    /// reach low output bits and the other way round.
    #[inline]
    fn mix(&mut self, word: u64) {
        let wide = u128::from(self.state ^ word) * u128::from(K);
        self.state = (wide as u64) ^ ((wide >> 64) as u64);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state.rotate_left(26)
    }

    /// Variable-length input (strings, byte slices): eight bytes a step, the
    /// length folded in last so a zero-padded tail cannot alias.
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.mix(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(last));
        }
        self.mix(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(u64::from(v));
    }
    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.mix(u64::from(v));
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ipv4, Prefix, VpId};

    #[test]
    fn behaves_like_a_map() {
        let mut m: FastMap<(VpId, Prefix), u32> = FastMap::default();
        let p: Prefix = "10.1.0.0/16".parse().expect("prefix");
        for vp in 0..1000 {
            m.insert((VpId(vp), p), vp);
        }
        assert_eq!(m.len(), 1000);
        for vp in 0..1000 {
            assert_eq!(m.get(&(VpId(vp), p)), Some(&vp));
        }
        assert_eq!(m.remove(&(VpId(7), p)), Some(7));
        assert_eq!(m.get(&(VpId(7), p)), None);
    }

    #[test]
    fn seeds_differ_between_instances() {
        // 64 random bits colliding sixteen times over is not a flake.
        let seeds: FastSet<u64> = (0..16).map(|_| FastState::default().seed).collect();
        assert!(seeds.len() > 1, "every map drew the same seed");
        let a = FastState::default();
        let b = FastState::default();
        assert_ne!(a.hash_one(Ipv4(1)), b.hash_one(Ipv4(1)));
    }

    /// Sequential keys — what dense ids and neighbouring addresses are —
    /// must spread over both the low bits (bucket) and the top seven (tag).
    #[test]
    fn sequential_keys_spread_over_buckets_and_tags() {
        let s = FastState::default();
        let mut buckets = [0u32; 256];
        let mut tags = [0u32; 128];
        let n = 1 << 16;
        for i in 0..n {
            let h = s.hash_one(Ipv4(0x0A00_0000 + i));
            buckets[(h & 0xFF) as usize] += 1;
            tags[(h >> 57) as usize] += 1;
        }
        let fair = n / 256;
        assert!(buckets.iter().all(|&c| c > fair / 2 && c < fair * 2), "{buckets:?}");
        let fair = n / 128;
        assert!(tags.iter().all(|&c| c > fair / 2 && c < fair * 2), "{tags:?}");
    }

    #[test]
    fn byte_input_distinguishes_padding_from_length() {
        let s = FastState::default();
        assert_ne!(s.hash_one([1u8, 0].as_slice()), s.hash_one([1u8].as_slice()));
        assert_ne!(s.hash_one("ab"), s.hash_one("ab\0"));
    }
}
