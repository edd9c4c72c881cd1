//! Autonomous system numbers.

use std::fmt;

/// An autonomous system number (32-bit, per RFC 6793).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Asn(pub u32);

impl Asn {
    /// `AS0`, used by convention for "no AS" / IXP LAN address space in this
    /// workspace (mirrors how IP-to-AS mapping tools mark IXP prefixes).
    pub const RESERVED: Asn = Asn(0);

    /// Returns `true` if this ASN is in a reserved range (RFC 7607 AS0,
    /// RFC 6996 private-use 64512–65534 and 4200000000–4294967294,
    /// 65535 / 4294967295 last-ASN reservations, 23456 AS_TRANS).
    pub fn is_reserved(self) -> bool {
        matches!(self.0,
            0
            | 23_456
            | 64_512..=65_535
            | 4_200_000_000..=u32::MAX)
    }

    /// Raw numeric value.
    #[inline]
    pub fn value(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl From<u32> for Asn {
    fn from(v: u32) -> Self {
        Asn(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserved_ranges() {
        assert!(Asn(0).is_reserved());
        assert!(Asn(23_456).is_reserved());
        assert!(Asn(64_512).is_reserved());
        assert!(Asn(65_534).is_reserved());
        assert!(Asn(65_535).is_reserved());
        assert!(Asn(4_200_000_000).is_reserved());
        assert!(Asn(u32::MAX).is_reserved());
        assert!(!Asn(1).is_reserved());
        assert!(!Asn(13_030).is_reserved());
        assert!(!Asn(64_511).is_reserved());
        assert!(!Asn(65_536).is_reserved());
    }

    #[test]
    fn display_and_order() {
        assert_eq!(Asn(1299).to_string(), "AS1299");
        assert!(Asn(1) < Asn(2));
        assert_eq!(Asn::from(7u32).value(), 7);
    }
}
