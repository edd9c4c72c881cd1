//! BGP communities (RFC 1997) and the geo-encoding convention the paper's
//! community-based staleness technique exploits (§4.1.3).

use crate::{Asn, CityId};
use std::fmt;

/// A standard 32-bit BGP community `asn:value`.
///
/// By convention the top 16 bits name the AS that defines the community and
/// the low 16 bits carry its meaning (e.g. `13030:51701` = "learned at
/// Telehouse LON-1" in the paper's Figure 3 example).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Community(pub u32);

impl Community {
    /// Builds `asn:value`. Both halves must fit in 16 bits.
    ///
    /// # Panics
    /// Panics if `asn` or `value` exceed `u16::MAX`.
    pub fn new(asn: u32, value: u32) -> Self {
        assert!(asn <= u16::MAX as u32, "community ASN {asn} > 16 bits");
        assert!(value <= u16::MAX as u32, "community value {value} > 16 bits");
        Community((asn << 16) | value)
    }

    /// The AS that defines this community (top 16 bits).
    #[inline]
    pub fn asn(self) -> Asn {
        Asn(self.0 >> 16)
    }

    /// The low 16 bits.
    #[inline]
    pub fn value(self) -> u16 {
        (self.0 & 0xFFFF) as u16
    }

    /// Geo-community convention used by the simulator: value `GEO_BASE + city`
    /// means "route learned at a border router in `city`". Real networks use
    /// ad-hoc encodings; the detection pipeline never relies on this decoding
    /// (it must *learn* which communities correlate with changes), only the
    /// simulator and tests use it.
    pub const GEO_BASE: u16 = 50_000;

    /// Builds the simulator's geo community for an AS and city.
    pub fn geo(asn: Asn, city: CityId) -> Self {
        Community::new(asn.0, Self::GEO_BASE as u32 + city.0 as u32)
    }

    /// Decodes a geo community back to its city, if it follows the
    /// simulator's convention.
    pub fn geo_city(self) -> Option<CityId> {
        let v = self.value();
        (v >= Self::GEO_BASE).then(|| CityId(v - Self::GEO_BASE))
    }

    /// `true` when the community value is in the simulator's geo range.
    pub fn is_geo(self) -> bool {
        self.value() >= Self::GEO_BASE
    }
}

impl fmt::Display for Community {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.0 >> 16, self.value())
    }
}

/// Diffs two community sets restricted to the communities *defined by* `asn`
/// (i.e. `asn:xxx`), returning `(added, removed)`.
///
/// The community technique only considers communities defined by an AS that
/// intersects the monitored traceroute (§4.1.3).
pub fn diff_for_asn(
    before: &[Community],
    after: &[Community],
    asn: Asn,
) -> (Vec<Community>, Vec<Community>) {
    let added = after.iter().filter(|c| c.asn() == asn && !before.contains(c)).copied().collect();
    let removed = before.iter().filter(|c| c.asn() == asn && !after.contains(c)).copied().collect();
    (added, removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack() {
        let c = Community::new(13_030, 51_701);
        assert_eq!(c.asn(), Asn(13_030));
        assert_eq!(c.value(), 51_701);
        assert_eq!(c.to_string(), "13030:51701");
    }

    #[test]
    #[should_panic]
    fn asn_overflow_panics() {
        let _ = Community::new(70_000, 1);
    }

    #[test]
    fn geo_roundtrip() {
        let c = Community::geo(Asn(13_030), CityId(7));
        assert!(c.is_geo());
        assert_eq!(c.geo_city(), Some(CityId(7)));
        assert_eq!(c.asn(), Asn(13_030));
        let te = Community::new(13_030, 100);
        assert!(!te.is_geo());
        assert_eq!(te.geo_city(), None);
    }

    #[test]
    fn diff_scoped_to_asn() {
        let a = Asn(10);
        let before = vec![Community::new(10, 1), Community::new(10, 2), Community::new(20, 9)];
        let after = vec![
            Community::new(10, 2),
            Community::new(10, 3),
            Community::new(20, 8), // different AS: ignored
        ];
        let (added, removed) = diff_for_asn(&before, &after, a);
        assert_eq!(added, vec![Community::new(10, 3)]);
        assert_eq!(removed, vec![Community::new(10, 1)]);
    }

    #[test]
    fn diff_empty_when_unchanged() {
        let set = vec![Community::new(10, 1)];
        let (added, removed) = diff_for_asn(&set, &set, Asn(10));
        assert!(added.is_empty() && removed.is_empty());
    }
}
