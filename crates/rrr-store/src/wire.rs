//! Deterministic binary encoding: the [`Persist`] trait and its impls for
//! std containers and the `rrr-types` vocabulary.
//!
//! Design rules:
//!
//! - everything is little-endian fixed-width; floats round-trip via
//!   [`f64::to_bits`] so bit-identical state stays bit-identical;
//! - collection lengths are `u64` prefixes;
//! - `HashMap` / `HashSet` are encoded **sorted by key** (`K: Ord`) so the
//!   same logical state always serializes to the same bytes regardless of
//!   hasher seed or insertion history; `Vec`, `VecDeque`, and [`Arena`]
//!   preserve order exactly, because downstream behavior depends on it;
//! - decoding is total: malformed input yields a typed [`StoreError`],
//!   never a panic, and preallocation is capped so a corrupt length prefix
//!   cannot trigger an absurd allocation.
//!
//! Types with private fields implement [`Persist`] inside their defining
//! modules (Rust privacy is module-scoped); this module only covers what is
//! publicly constructible.

use crate::error::StoreError;
use rrr_types::{
    AnchorId, Arena, ArenaId, AsPath, Asn, BgpElem, BgpUpdate, CityId, CollectorId, Community,
    Duration, FacilityId, Hop, Ipv4, IxpId, PeeringPointId, Prefix, ProbeId, RouterId, Timestamp,
    Traceroute, TracerouteId, VpId, Window, WindowConfig,
};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::hash::{BuildHasher, Hash};
use std::io::{Read, Write};
use std::sync::Arc;

/// Cap on speculative preallocation from a decoded length prefix. Real
/// lengths above this still decode fine — the vector just grows as elements
/// arrive — but a corrupt 2⁶³ length cannot OOM the process.
const PREALLOC_CAP: usize = 4096;

/// Byte sink for [`Persist::store`]. Integrity is the frame's business
/// ([`crate::checkpoint`], [`crate::wal`] checksum the finished bytes once);
/// the encoder only lays fields out.
pub struct Encoder<W: Write> {
    w: W,
}

impl<W: Write> Encoder<W> {
    pub fn new(w: W) -> Self {
        Encoder { w }
    }

    pub fn bytes(&mut self, b: &[u8]) -> Result<(), StoreError> {
        self.w.write_all(b)?;
        Ok(())
    }

    pub fn u8(&mut self, v: u8) -> Result<(), StoreError> {
        self.bytes(&[v])
    }
    pub fn u16(&mut self, v: u16) -> Result<(), StoreError> {
        self.bytes(&v.to_le_bytes())
    }
    pub fn u32(&mut self, v: u32) -> Result<(), StoreError> {
        self.bytes(&v.to_le_bytes())
    }
    pub fn u64(&mut self, v: u64) -> Result<(), StoreError> {
        self.bytes(&v.to_le_bytes())
    }
    pub fn len(&mut self, v: usize) -> Result<(), StoreError> {
        self.u64(v as u64)
    }

    /// A borrowed sequence, wire-identical to a `Vec<T>` of the same items:
    /// `u64` length prefix, then each item in order.
    pub fn slice<T: Persist>(&mut self, items: &[T]) -> Result<(), StoreError> {
        self.len(items.len())?;
        for item in items {
            item.store(self)?;
        }
        Ok(())
    }
}

/// Byte source tracking its offset (for error reporting).
pub struct Decoder<R: Read> {
    r: R,
    offset: usize,
}

impl<R: Read> Decoder<R> {
    pub fn new(r: R) -> Self {
        Decoder { r, offset: 0 }
    }

    /// A [`StoreError::Corrupt`] at the current offset.
    pub fn corrupt(&self, what: &'static str) -> StoreError {
        StoreError::Corrupt { offset: self.offset, what }
    }

    pub fn bytes(&mut self, buf: &mut [u8]) -> Result<(), StoreError> {
        self.r.read_exact(buf)?;
        self.offset += buf.len();
        Ok(())
    }

    pub fn u8(&mut self) -> Result<u8, StoreError> {
        let mut b = [0u8; 1];
        self.bytes(&mut b)?;
        Ok(b[0])
    }
    pub fn u16(&mut self) -> Result<u16, StoreError> {
        let mut b = [0u8; 2];
        self.bytes(&mut b)?;
        Ok(u16::from_le_bytes(b))
    }
    pub fn u32(&mut self) -> Result<u32, StoreError> {
        let mut b = [0u8; 4];
        self.bytes(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }
    pub fn u64(&mut self) -> Result<u64, StoreError> {
        let mut b = [0u8; 8];
        self.bytes(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }
    pub fn read_len(&mut self) -> Result<usize, StoreError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| self.corrupt("length exceeds usize"))
    }

    /// Bytes consumed so far.
    pub fn offset(&self) -> usize {
        self.offset
    }
}

/// Deterministic binary serialization for one type.
pub trait Persist: Sized {
    fn store<W: Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError>;
    fn load<R: Read>(d: &mut Decoder<R>) -> Result<Self, StoreError>;
}

/// Encodes a value to a standalone byte buffer.
pub fn to_payload<T: Persist>(value: &T) -> Result<Vec<u8>, StoreError> {
    let mut buf = Vec::new();
    let mut e = Encoder::new(&mut buf);
    value.store(&mut e)?;
    Ok(buf)
}

/// Decodes a value from a byte buffer, requiring full consumption.
pub fn from_payload<T: Persist>(bytes: &[u8]) -> Result<T, StoreError> {
    let mut d = Decoder::new(bytes);
    let v = T::load(&mut d)?;
    let remaining = bytes.len() - d.offset();
    if remaining != 0 {
        return Err(StoreError::TrailingData { remaining });
    }
    Ok(v)
}

// --- primitive impls ---

macro_rules! persist_prim {
    ($ty:ty, $put:ident, $take:ident) => {
        impl Persist for $ty {
            fn store<W: Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
                e.$put(*self)
            }
            fn load<R: Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
                d.$take()
            }
        }
    };
}

persist_prim!(u8, u8, u8);
persist_prim!(u16, u16, u16);
persist_prim!(u32, u32, u32);
persist_prim!(u64, u64, u64);

impl Persist for usize {
    fn store<W: Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        e.len(*self)
    }
    fn load<R: Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        d.read_len()
    }
}

impl Persist for bool {
    fn store<W: Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        e.u8(*self as u8)
    }
    fn load<R: Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        match d.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(d.corrupt("bool byte not 0/1")),
        }
    }
}

impl Persist for f64 {
    fn store<W: Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        e.u64(self.to_bits())
    }
    fn load<R: Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        Ok(f64::from_bits(d.u64()?))
    }
}

impl Persist for String {
    fn store<W: Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        e.len(self.len())?;
        e.bytes(self.as_bytes())
    }
    fn load<R: Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        let bytes = Vec::<u8>::load(d)?;
        String::from_utf8(bytes).map_err(|_| d.corrupt("invalid utf-8 in string"))
    }
}

// --- containers ---

impl<T: Persist> Persist for Option<T> {
    fn store<W: Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        match self {
            None => e.u8(0),
            Some(v) => {
                e.u8(1)?;
                v.store(e)
            }
        }
    }
    fn load<R: Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        match d.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(d)?)),
            _ => Err(d.corrupt("option tag not 0/1")),
        }
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn store<W: Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        e.slice(self)
    }
    fn load<R: Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        let n = d.read_len()?;
        let mut out = Vec::with_capacity(n.min(PREALLOC_CAP));
        for _ in 0..n {
            out.push(T::load(d)?);
        }
        Ok(out)
    }
}

impl<T: Persist> Persist for VecDeque<T> {
    fn store<W: Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        e.len(self.len())?;
        for item in self {
            item.store(e)?;
        }
        Ok(())
    }
    fn load<R: Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        Ok(Vec::<T>::load(d)?.into())
    }
}

impl<T: Persist, const N: usize> Persist for [T; N] {
    fn store<W: Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        for item in self {
            item.store(e)?;
        }
        Ok(())
    }
    fn load<R: Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::load(d)?);
        }
        out.try_into().map_err(|_| d.corrupt("array length mismatch"))
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn store<W: Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        self.0.store(e)?;
        self.1.store(e)
    }
    fn load<R: Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        Ok((A::load(d)?, B::load(d)?))
    }
}

impl<A: Persist, B: Persist, C: Persist> Persist for (A, B, C) {
    fn store<W: Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        self.0.store(e)?;
        self.1.store(e)?;
        self.2.store(e)
    }
    fn load<R: Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        Ok((A::load(d)?, B::load(d)?, C::load(d)?))
    }
}

impl<A: Persist, B: Persist, C: Persist, D2: Persist> Persist for (A, B, C, D2) {
    fn store<W: Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        self.0.store(e)?;
        self.1.store(e)?;
        self.2.store(e)?;
        self.3.store(e)
    }
    fn load<R: Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        Ok((A::load(d)?, B::load(d)?, C::load(d)?, D2::load(d)?))
    }
}

impl<K: Persist + Ord, V: Persist> Persist for BTreeMap<K, V> {
    fn store<W: Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        e.len(self.len())?;
        for (k, v) in self {
            k.store(e)?;
            v.store(e)?;
        }
        Ok(())
    }
    fn load<R: Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        let n = d.read_len()?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::load(d)?;
            let v = V::load(d)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<T: Persist + Ord> Persist for BTreeSet<T> {
    fn store<W: Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        e.len(self.len())?;
        for item in self {
            item.store(e)?;
        }
        Ok(())
    }
    fn load<R: Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        let n = d.read_len()?;
        let mut out = BTreeSet::new();
        for _ in 0..n {
            out.insert(T::load(d)?);
        }
        Ok(out)
    }
}

impl<K: Persist + Ord + Eq + Hash, V: Persist, S: BuildHasher + Default> Persist
    for HashMap<K, V, S>
{
    fn store<W: Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        e.len(entries.len())?;
        for (k, v) in entries {
            k.store(e)?;
            v.store(e)?;
        }
        Ok(())
    }
    fn load<R: Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        let n = d.read_len()?;
        let mut out = HashMap::with_capacity_and_hasher(n.min(PREALLOC_CAP), S::default());
        for _ in 0..n {
            let k = K::load(d)?;
            let v = V::load(d)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<T: Persist + Ord + Eq + Hash> Persist for HashSet<T> {
    fn store<W: Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        let mut entries: Vec<&T> = self.iter().collect();
        entries.sort();
        e.len(entries.len())?;
        for item in entries {
            item.store(e)?;
        }
        Ok(())
    }
    fn load<R: Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        let n = d.read_len()?;
        let mut out = HashSet::with_capacity(n.min(PREALLOC_CAP));
        for _ in 0..n {
            out.insert(T::load(d)?);
        }
        Ok(out)
    }
}

impl<T: Persist> Persist for Arc<T> {
    fn store<W: Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        (**self).store(e)
    }
    fn load<R: Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        Ok(Arc::new(T::load(d)?))
    }
}

impl<T: Persist> Persist for Arc<[T]> {
    // Byte-identical to `Vec<T>`: length prefix followed by items.
    fn store<W: Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        e.slice(self)
    }
    fn load<R: Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        Ok(Vec::<T>::load(d)?.into())
    }
}

// --- rrr-types vocabulary ---

macro_rules! persist_newtype {
    ($ty:ident, $inner:ty) => {
        impl Persist for $ty {
            fn store<W: Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
                self.0.store(e)
            }
            fn load<R: Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
                Ok($ty(<$inner>::load(d)?))
            }
        }
    };
}

persist_newtype!(Asn, u32);
persist_newtype!(Community, u32);
persist_newtype!(CityId, u16);
persist_newtype!(Ipv4, u32);
persist_newtype!(Timestamp, u64);
persist_newtype!(Duration, u64);
persist_newtype!(Window, u64);
persist_newtype!(TracerouteId, u64);
persist_newtype!(RouterId, u32);
persist_newtype!(IxpId, u16);
persist_newtype!(FacilityId, u16);
persist_newtype!(PeeringPointId, u32);
persist_newtype!(ProbeId, u32);
persist_newtype!(AnchorId, u32);
persist_newtype!(CollectorId, u16);
persist_newtype!(VpId, u32);

impl Persist for Prefix {
    fn store<W: Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        e.u32(self.network().0)?;
        e.u8(self.len())
    }
    fn load<R: Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        let addr = Ipv4(d.u32()?);
        let len = d.u8()?;
        if len > 32 {
            return Err(d.corrupt("prefix length > 32"));
        }
        Ok(Prefix::new(addr, len))
    }
}

impl Persist for WindowConfig {
    fn store<W: Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        self.duration.store(e)
    }
    fn load<R: Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        let duration = Duration::load(d)?;
        if duration.0 == 0 {
            return Err(d.corrupt("zero window duration"));
        }
        Ok(WindowConfig::new(duration))
    }
}

impl Persist for AsPath {
    fn store<W: Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        self.0.store(e)
    }
    fn load<R: Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        Ok(AsPath(Vec::load(d)?))
    }
}

impl<T> Persist for ArenaId<T> {
    fn store<W: Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        e.u32(self.index() as u32)
    }
    fn load<R: Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        Ok(ArenaId::from_index(d.u32()?))
    }
}

impl<T: Persist + Eq + Hash> Persist for Arena<T> {
    fn store<W: Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        e.len(self.len())?;
        for (_, item) in self.iter() {
            item.store(e)?;
        }
        Ok(())
    }
    fn load<R: Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        // Re-interning in insertion order reproduces the exact dense ids the
        // serialized state refers to (the "handle remap" is the identity).
        let n = d.read_len()?;
        let mut arena = Arena::new();
        for _ in 0..n {
            arena.intern_owned(T::load(d)?);
        }
        Ok(arena)
    }
}

impl Persist for Hop {
    fn store<W: Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        self.addr.store(e)
    }
    fn load<R: Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        Ok(Hop { addr: Option::load(d)? })
    }
}

impl Persist for Traceroute {
    fn store<W: Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        self.id.store(e)?;
        self.probe.store(e)?;
        self.src.store(e)?;
        self.dst.store(e)?;
        self.time.store(e)?;
        self.hops.store(e)?;
        self.reached.store(e)
    }
    fn load<R: Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        Ok(Traceroute {
            id: Persist::load(d)?,
            probe: Persist::load(d)?,
            src: Persist::load(d)?,
            dst: Persist::load(d)?,
            time: Persist::load(d)?,
            hops: Persist::load(d)?,
            reached: Persist::load(d)?,
        })
    }
}

impl Persist for BgpElem {
    fn store<W: Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        match self {
            BgpElem::Announce { path, communities } => {
                e.u8(0)?;
                path.store(e)?;
                communities.store(e)
            }
            BgpElem::Withdraw => e.u8(1),
        }
    }
    fn load<R: Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        match d.u8()? {
            0 => Ok(BgpElem::Announce { path: Persist::load(d)?, communities: Persist::load(d)? }),
            1 => Ok(BgpElem::Withdraw),
            _ => Err(d.corrupt("bgp elem tag")),
        }
    }
}

impl Persist for BgpUpdate {
    fn store<W: Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        self.time.store(e)?;
        self.vp.store(e)?;
        self.prefix.store(e)?;
        self.elem.store(e)
    }
    fn load<R: Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        Ok(BgpUpdate {
            time: Persist::load(d)?,
            vp: Persist::load(d)?,
            prefix: Persist::load(d)?,
            elem: Persist::load(d)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Persist + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = to_payload(v).expect("encode");
        let back: T = from_payload(&bytes).expect("decode");
        assert_eq!(&back, v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(&0u8);
        roundtrip(&u16::MAX);
        roundtrip(&0xDEAD_BEEFu32);
        roundtrip(&u64::MAX);
        roundtrip(&usize::MAX);
        roundtrip(&true);
        roundtrip(&false);
        roundtrip(&std::f64::consts::PI);
        roundtrip(&f64::NAN.to_bits()); // NaN itself fails PartialEq; bits round-trip
        roundtrip(&"héllo wörld".to_string());
    }

    #[test]
    fn nan_bits_preserved() {
        let v = f64::from_bits(0x7FF8_0000_0000_1234);
        let bytes = to_payload(&v).unwrap();
        let back: f64 = from_payload(&bytes).unwrap();
        assert_eq!(back.to_bits(), v.to_bits());
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(&vec![1u32, 2, 3]);
        roundtrip(&Some(7u64));
        roundtrip(&Option::<u64>::None);
        roundtrip(&VecDeque::from(vec![1u8, 2, 3]));
        roundtrip(&[1u32, 2, 3, 4]);
        roundtrip(&(1u8, 2u16, 3u32, 4u64));
        roundtrip(&BTreeMap::from([(1u32, "a".to_string()), (2, "b".to_string())]));
        roundtrip(&BTreeSet::from([3u64, 1, 2]));
        roundtrip(&HashMap::from([(5u32, vec![1u8]), (1, vec![2, 3])]));
        roundtrip(&HashSet::from([9u16, 4, 7]));
        roundtrip(&Arc::new(42u32));
        let arc_slice: Arc<[u32]> = vec![1, 2, 3].into();
        roundtrip(&arc_slice);
        // Arc<[T]> must stay byte-compatible with Vec<T> on the wire.
        assert_eq!(to_payload(&arc_slice).unwrap(), to_payload(&vec![1u32, 2, 3]).unwrap());
    }

    #[test]
    fn hash_containers_encode_sorted() {
        // Two maps with different insertion order must serialize identically.
        let mut a = HashMap::new();
        for k in 0..64u32 {
            a.insert(k, k * 3);
        }
        let mut b = HashMap::new();
        for k in (0..64u32).rev() {
            b.insert(k, k * 3);
        }
        assert_eq!(to_payload(&a).unwrap(), to_payload(&b).unwrap());
    }

    #[test]
    fn hasher_choice_never_reaches_the_bytes() {
        use rrr_types::FastMap;
        let key = |i: u32| (VpId(i % 12), Prefix::new(Ipv4(i.wrapping_mul(0x0101_0100)), 24));
        let mut std_map: HashMap<(VpId, Prefix), Vec<u32>> = HashMap::new();
        let mut fast_map: FastMap<(VpId, Prefix), Vec<u32>> = FastMap::default();
        for i in 0..500u32 {
            std_map.insert(key(i), vec![i, i + 1]);
        }
        for i in (0..500u32).rev() {
            fast_map.insert(key(i), vec![i, i + 1]);
        }
        let bytes = to_payload(&std_map).unwrap();
        assert_eq!(bytes, to_payload(&fast_map).unwrap());
        // Either hasher loads the other's bytes back to the same entries.
        let as_fast: FastMap<(VpId, Prefix), Vec<u32>> = from_payload(&bytes).unwrap();
        let as_std: HashMap<(VpId, Prefix), Vec<u32>> = from_payload(&bytes).unwrap();
        assert_eq!(as_fast, fast_map);
        assert_eq!(as_std, std_map);
        assert!(as_fast.iter().all(|(k, v)| std_map.get(k) == Some(v)));
    }

    #[test]
    fn rrr_types_roundtrip() {
        roundtrip(&Asn(64512));
        roundtrip(&Community::new(13030, 51701));
        roundtrip(&Ipv4::new(10, 1, 2, 3));
        roundtrip(&Prefix::new(Ipv4::new(10, 0, 0, 0), 8));
        roundtrip(&Timestamp(9000));
        roundtrip(&Duration::minutes(15));
        roundtrip(&Window(42));
        roundtrip(&WindowConfig::BGP);
        roundtrip(&AsPath::from_asns([3356, 1299, 13030]));
        roundtrip(&VpId(3));
        roundtrip(&ProbeId(17));
        roundtrip(&TracerouteId(u64::MAX));
        roundtrip(&Hop::star());
        roundtrip(&Hop::responsive(Ipv4::new(10, 0, 0, 1)));
    }

    #[test]
    fn records_roundtrip() {
        roundtrip(&Traceroute {
            id: TracerouteId(5),
            probe: ProbeId(1),
            src: Ipv4::new(10, 0, 0, 1),
            dst: Ipv4::new(10, 9, 0, 1),
            time: Timestamp(123),
            hops: vec![Hop::responsive(Ipv4::new(10, 1, 0, 1)), Hop::star()],
            reached: true,
        });
        roundtrip(&BgpUpdate {
            time: Timestamp(7),
            vp: VpId(2),
            prefix: Prefix::new(Ipv4::new(10, 3, 0, 0), 16),
            elem: BgpElem::Announce {
                path: AsPath::from_asns([1, 2, 3]),
                communities: vec![Community::new(1, 2)],
            },
        });
        roundtrip(&BgpUpdate {
            time: Timestamp(8),
            vp: VpId(0),
            prefix: Prefix::new(Ipv4::new(10, 3, 0, 0), 16),
            elem: BgpElem::Withdraw,
        });
    }

    #[test]
    fn arena_roundtrip_preserves_ids() {
        let mut arena: Arena<AsPath> = Arena::new();
        let a = arena.intern(&AsPath::from_asns([1, 2]));
        let b = arena.intern(&AsPath::from_asns([3]));
        let bytes = to_payload(&arena).unwrap();
        let back: Arena<AsPath> = from_payload(&bytes).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.get(a), &AsPath::from_asns([1, 2]));
        assert_eq!(back.get(b), &AsPath::from_asns([3]));
        // ArenaId handles themselves round-trip as raw indices.
        let id_bytes = to_payload(&b).unwrap();
        let b2: ArenaId<AsPath> = from_payload(&id_bytes).unwrap();
        assert_eq!(b2, b);
    }

    #[test]
    fn malformed_input_is_typed_error() {
        // Truncated vec payload: declared length 3, no elements.
        let mut bytes = to_payload(&3usize).unwrap();
        let err = from_payload::<Vec<u64>>(&bytes).unwrap_err();
        assert!(matches!(err, StoreError::Io(_)), "{err}");
        // Bad bool byte.
        bytes = vec![7];
        let err = from_payload::<bool>(&bytes).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        // Bad option tag.
        let err = from_payload::<Option<u8>>(&[9]).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        // Prefix length out of range.
        let mut pb = to_payload(&Prefix::new(Ipv4::new(10, 0, 0, 0), 8)).unwrap();
        *pb.last_mut().unwrap() = 60;
        let err = from_payload::<Prefix>(&pb).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        // Trailing garbage after a clean decode.
        let mut ok = to_payload(&5u32).unwrap();
        ok.push(0);
        let err = from_payload::<u32>(&ok).unwrap_err();
        assert!(matches!(err, StoreError::TrailingData { remaining: 1 }), "{err}");
        // Absurd length prefix must not OOM; it fails on the short read.
        let huge = to_payload(&u64::MAX).unwrap();
        let err = from_payload::<Vec<u8>>(&huge).unwrap_err();
        assert!(matches!(err, StoreError::Io(_) | StoreError::Corrupt { .. }), "{err}");
    }
}
