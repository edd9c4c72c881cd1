//! IPv4 addresses and prefixes.
//!
//! We use a thin `u32` wrapper rather than `std::net::Ipv4Addr` so the rest
//! of the workspace can do arithmetic (prefix containment, trie walks,
//! address allocation) without repeated octet conversions, while keeping the
//! familiar dotted-quad `Display`.

use std::fmt;
use std::str::FromStr;

/// An IPv4 address stored as a host-order `u32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ipv4(pub u32);

impl Ipv4 {
    /// Builds an address from dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    /// Raw numeric value.
    #[inline]
    pub fn value(self) -> u32 {
        self.0
    }

    /// The octets, most significant first.
    pub fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }
}

impl fmt::Display for Ipv4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

impl From<u32> for Ipv4 {
    fn from(v: u32) -> Self {
        Ipv4(v)
    }
}

impl From<[u8; 4]> for Ipv4 {
    fn from(o: [u8; 4]) -> Self {
        Ipv4(u32::from_be_bytes(o))
    }
}

/// Error returned when parsing a prefix or address from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixParseError(pub String);

impl fmt::Display for PrefixParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid prefix: {}", self.0)
    }
}

impl std::error::Error for PrefixParseError {}

impl FromStr for Ipv4 {
    type Err = PrefixParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut octets = [0u8; 4];
        let mut parts = s.split('.');
        for slot in octets.iter_mut() {
            let part = parts.next().ok_or_else(|| PrefixParseError(s.into()))?;
            *slot = part.parse().map_err(|_| PrefixParseError(s.into()))?;
        }
        if parts.next().is_some() {
            return Err(PrefixParseError(s.into()));
        }
        Ok(Ipv4::from(octets))
    }
}

/// An IPv4 prefix in CIDR form, always stored normalized (host bits zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Prefix {
    addr: Ipv4,
    len: u8,
}

impl Prefix {
    /// Creates a normalized prefix; host bits below `len` are masked off.
    ///
    /// # Panics
    /// Panics if `len > 32`.
    pub fn new(addr: Ipv4, len: u8) -> Self {
        assert!(len <= 32, "prefix length {len} > 32");
        Prefix { addr: Ipv4(addr.0 & Self::mask(len)), len }
    }

    /// The network mask for a given length.
    #[inline]
    pub fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// The (masked) network address.
    #[inline]
    pub fn network(self) -> Ipv4 {
        self.addr
    }

    /// Prefix length in bits.
    // A prefix length is not a container length; `is_empty` has no meaning.
    #[allow(clippy::len_without_is_empty)]
    #[inline]
    pub fn len(self) -> u8 {
        self.len
    }

    /// `true` only for the zero-length default route.
    pub fn is_default(self) -> bool {
        self.len == 0
    }

    /// Whether `ip` falls inside this prefix.
    #[inline]
    pub fn contains(self, ip: Ipv4) -> bool {
        (ip.0 & Self::mask(self.len)) == self.addr.0
    }

    /// Whether `other` is fully contained in (or equal to) this prefix.
    pub fn covers(self, other: Prefix) -> bool {
        self.len <= other.len && self.contains(other.addr)
    }

    /// Number of host addresses in the prefix (saturating for /0).
    pub fn size(self) -> u64 {
        1u64 << (32 - self.len as u64)
    }

    /// The `i`-th address inside the prefix.
    ///
    /// # Panics
    /// Panics if `i` is outside the prefix.
    pub fn nth(self, i: u64) -> Ipv4 {
        assert!(i < self.size(), "address index {i} outside {self}");
        Ipv4(self.addr.0 + i as u32)
    }

    /// Is this prefix more specific than a /24? Such prefixes generally do
    /// not propagate and the paper's pipeline discards them (§4.1.1).
    pub fn more_specific_than_24(self) -> bool {
        self.len > 24
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

impl FromStr for Prefix {
    type Err = PrefixParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s.split_once('/').ok_or_else(|| PrefixParseError(s.into()))?;
        let addr: Ipv4 = addr.parse()?;
        let len: u8 = len.parse().map_err(|_| PrefixParseError(s.into()))?;
        if len > 32 {
            return Err(PrefixParseError(s.into()));
        }
        Ok(Prefix::new(addr, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_display_parse() {
        let p: Prefix = "200.61.128.0/19".parse().unwrap();
        assert_eq!(p.to_string(), "200.61.128.0/19");
        assert_eq!(p.len(), 19);
        let ip: Ipv4 = "200.61.159.255".parse().unwrap();
        assert!(p.contains(ip));
        assert!(!p.contains("200.61.160.0".parse().unwrap()));
    }

    #[test]
    fn normalization_masks_host_bits() {
        let p = Prefix::new(Ipv4::new(10, 1, 2, 3), 16);
        assert_eq!(p.network(), Ipv4::new(10, 1, 0, 0));
        assert_eq!(p.to_string(), "10.1.0.0/16");
    }

    #[test]
    fn covers_and_specificity() {
        let a: Prefix = "10.0.0.0/8".parse().unwrap();
        let b: Prefix = "10.2.0.0/16".parse().unwrap();
        assert!(a.covers(b));
        assert!(!b.covers(a));
        assert!(a.covers(a));
        assert!(!"10.0.0.0/25".parse::<Prefix>().unwrap().covers(b));
        assert!("10.0.0.0/25".parse::<Prefix>().unwrap().more_specific_than_24());
        assert!(!"10.0.0.0/24".parse::<Prefix>().unwrap().more_specific_than_24());
    }

    #[test]
    fn nth_and_size() {
        let p: Prefix = "192.0.2.0/24".parse().unwrap();
        assert_eq!(p.size(), 256);
        assert_eq!(p.nth(1).to_string(), "192.0.2.1");
        assert_eq!(p.nth(255).to_string(), "192.0.2.255");
    }

    #[test]
    #[should_panic]
    fn nth_out_of_range_panics() {
        let p: Prefix = "192.0.2.0/24".parse().unwrap();
        let _ = p.nth(256);
    }

    #[test]
    fn default_route() {
        let d = Prefix::new(Ipv4(0), 0);
        assert!(d.is_default());
        assert!(d.contains(Ipv4::new(8, 8, 8, 8)));
        assert_eq!(Prefix::mask(0), 0);
        assert_eq!(Prefix::mask(32), u32::MAX);
    }

    #[test]
    fn bad_parses() {
        assert!("1.2.3/8".parse::<Prefix>().is_err());
        assert!("1.2.3.4.5/8".parse::<Prefix>().is_err());
        assert!("1.2.3.4/33".parse::<Prefix>().is_err());
        assert!("1.2.3.4".parse::<Prefix>().is_err());
        assert!("300.2.3.4/8".parse::<Prefix>().is_err());
    }
}
