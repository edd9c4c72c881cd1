//! Measurement record types: BGP updates as seen at a route collector, and
//! traceroutes as issued by a measurement platform.

use crate::{AsPath, Community, Ipv4, Prefix, ProbeId, Timestamp, VpId};
use std::fmt;

/// The body of a BGP update element.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BgpElem {
    /// A (re-)announcement. A "duplicate update" in the paper's sense is an
    /// `Announce` whose path and communities equal the previously announced
    /// ones — routers emit these when non-transitive attributes (MED, IGP
    /// cost) change (§4.1.4).
    Announce { path: AsPath, communities: Vec<Community> },
    /// A withdrawal of the prefix.
    Withdraw,
}

impl BgpElem {
    /// Returns the AS path for announcements.
    pub fn path(&self) -> Option<&AsPath> {
        match self {
            BgpElem::Announce { path, .. } => Some(path),
            BgpElem::Withdraw => None,
        }
    }

    /// Returns the communities for announcements.
    pub fn communities(&self) -> &[Community] {
        match self {
            BgpElem::Announce { communities, .. } => communities,
            BgpElem::Withdraw => &[],
        }
    }
}

/// One BGP update element received by a collector from a vantage point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BgpUpdate {
    /// When the collector received the update.
    pub time: Timestamp,
    /// Which collector peer (vantage point) sent it.
    pub vp: VpId,
    /// The prefix the update concerns.
    pub prefix: Prefix,
    /// Announce or withdraw.
    pub elem: BgpElem,
}

impl BgpUpdate {
    /// Convenience: is this an announcement?
    pub fn is_announce(&self) -> bool {
        matches!(self.elem, BgpElem::Announce { .. })
    }
}

impl fmt::Display for BgpUpdate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.elem {
            BgpElem::Announce { path, communities } => {
                write!(f, "{} {} A {} path=[{}]", self.time, self.vp, self.prefix, path)?;
                if !communities.is_empty() {
                    write!(f, " comm=[")?;
                    for (i, c) in communities.iter().enumerate() {
                        if i > 0 {
                            write!(f, " ")?;
                        }
                        write!(f, "{c}")?;
                    }
                    write!(f, "]")?;
                }
                Ok(())
            }
            BgpElem::Withdraw => write!(f, "{} {} W {}", self.time, self.vp, self.prefix),
        }
    }
}

/// Unique identifier of a traceroute measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TracerouteId(pub u64);

impl fmt::Display for TracerouteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tr{}", self.0)
    }
}

/// One hop of a traceroute. `None` means the hop did not respond (`*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Hop {
    pub addr: Option<Ipv4>,
}

impl Hop {
    pub fn responsive(ip: Ipv4) -> Self {
        Hop { addr: Some(ip) }
    }
    pub fn star() -> Self {
        Hop { addr: None }
    }
    pub fn is_star(self) -> bool {
        self.addr.is_none()
    }
}

/// A traceroute measurement: source probe, destination, and the hop list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Traceroute {
    pub id: TracerouteId,
    /// The probe that issued the measurement.
    pub probe: ProbeId,
    /// Source address of the probe.
    pub src: Ipv4,
    /// Destination address probed.
    pub dst: Ipv4,
    /// When the traceroute was issued.
    pub time: Timestamp,
    /// IP hops in order, excluding the source, ideally ending at `dst`.
    pub hops: Vec<Hop>,
    /// Whether the destination replied (traceroute completed).
    pub reached: bool,
}

impl Traceroute {
    /// Responsive hop addresses in order.
    pub fn responsive_hops(&self) -> impl Iterator<Item = Ipv4> + '_ {
        self.hops.iter().filter_map(|h| h.addr)
    }

    /// Whether any hop is unresponsive.
    pub fn has_stars(&self) -> bool {
        self.hops.iter().any(|h| h.is_star())
    }

    /// Whether the same responsive address appears twice (an IP-level loop,
    /// a symptom of measurement error; such traces are discarded upstream).
    pub fn has_ip_loop(&self) -> bool {
        let hops: Vec<Ipv4> = self.responsive_hops().collect();
        for (i, h) in hops.iter().enumerate() {
            if hops[i + 1..].contains(h) {
                return true;
            }
        }
        false
    }
}

impl fmt::Display for Traceroute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {} -> {} [", self.id, self.time, self.src, self.dst)?;
        for (i, h) in self.hops.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            match h.addr {
                Some(ip) => write!(f, "{ip}")?,
                None => write!(f, "*")?,
            }
        }
        write!(f, "]{}", if self.reached { "" } else { " (incomplete)" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Asn;

    fn ip(s: &str) -> Ipv4 {
        s.parse().unwrap()
    }

    #[test]
    fn bgp_elem_accessors() {
        let a = BgpElem::Announce {
            path: AsPath::from_asns([1, 2, 3]),
            communities: vec![Community::new(1, 2)],
        };
        assert_eq!(a.path().unwrap().origin(), Some(Asn(3)));
        assert_eq!(a.communities().len(), 1);
        assert!(BgpElem::Withdraw.path().is_none());
        assert!(BgpElem::Withdraw.communities().is_empty());
    }

    #[test]
    fn update_display() {
        let u = BgpUpdate {
            time: Timestamp(0),
            vp: VpId(1),
            prefix: "10.0.0.0/24".parse().unwrap(),
            elem: BgpElem::Announce {
                path: AsPath::from_asns([13030, 1299]),
                communities: vec![Community::new(13030, 2)],
            },
        };
        assert!(u.is_announce());
        let s = u.to_string();
        assert!(s.contains("10.0.0.0/24"), "{s}");
        assert!(s.contains("13030 1299"), "{s}");
        assert!(s.contains("13030:2"), "{s}");
        let w = BgpUpdate { elem: BgpElem::Withdraw, ..u };
        assert!(!w.is_announce());
        assert!(w.to_string().contains(" W "));
    }

    #[test]
    fn traceroute_loops_and_stars() {
        let tr = Traceroute {
            id: TracerouteId(1),
            probe: ProbeId(0),
            src: ip("10.0.0.1"),
            dst: ip("10.9.0.1"),
            time: Timestamp(5),
            hops: vec![
                Hop::responsive(ip("10.1.0.1")),
                Hop::star(),
                Hop::responsive(ip("10.2.0.1")),
            ],
            reached: true,
        };
        assert!(tr.has_stars());
        assert!(!tr.has_ip_loop());
        assert_eq!(tr.responsive_hops().count(), 2);
        let mut looped = tr.clone();
        looped.hops.push(Hop::responsive(ip("10.1.0.1")));
        assert!(looped.has_ip_loop());
        assert!(tr.to_string().contains('*'));
    }
}
