//! Opaque identifier newtypes used across the workspace.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal, $inner:ty) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
        )]
        pub struct $name(pub $inner);

        impl $name {
            /// Raw index value.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<usize> for $name {
            fn from(v: usize) -> Self {
                $name(v as $inner)
            }
        }
    };
}

id_type!(
    /// A router in the simulated topology. Border routers own one or more
    /// interface IPs (aliases).
    RouterId, "r", u32
);
id_type!(
    /// An Internet exchange point.
    IxpId, "ixp", u16
);
id_type!(
    /// A colocation facility within a city.
    FacilityId, "fac", u16
);
id_type!(
    /// One physical interconnection (peering point) between two ASes:
    /// a (city, router pair, interface pair) tuple.
    PeeringPointId, "pp", u32
);
id_type!(
    /// A traceroute vantage point (RIPE Atlas Probe analogue).
    ProbeId, "probe", u32
);
id_type!(
    /// A traceroute target with well-known address (RIPE Atlas Anchor analogue).
    AnchorId, "anchor", u32
);
id_type!(
    /// A BGP route collector (RouteViews / RIS collector analogue).
    CollectorId, "rc", u16
);
id_type!(
    /// A BGP vantage point: a router peering with a collector and feeding it
    /// updates (a "collector peer" in the paper).
    VpId, "vp", u32
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_prefixes() {
        assert_eq!(RouterId(3).to_string(), "r3");
        assert_eq!(IxpId(1).to_string(), "ixp1");
        assert_eq!(ProbeId(9).to_string(), "probe9");
        assert_eq!(VpId(0).to_string(), "vp0");
        assert_eq!(PeeringPointId(12).to_string(), "pp12");
    }

    #[test]
    fn conversions() {
        let r: RouterId = 5usize.into();
        assert_eq!(r.index(), 5);
        assert!(RouterId(1) < RouterId(2));
    }
}
