//! Inter-AS border inference from mapped traceroutes ("bdrmap-lite",
//! Appendix A): where the AS mapping transitions, both flanking IPs are
//! considered part of the border; an IXP address is itself the border.

use crate::mapping::{IpOrigin, IpToAsMap};
use rrr_types::{Asn, Ipv4, IxpId, Traceroute};

/// One inferred inter-AS border crossing within a traceroute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Border {
    /// Last hop attributed to the near AS.
    pub near_ip: Ipv4,
    /// First hop attributed to the far AS (for IXP crossings, the IXP LAN
    /// address).
    pub far_ip: Ipv4,
    pub near_as: Asn,
    pub far_as: Asn,
    /// Set when the crossing traverses an IXP fabric.
    pub ixp: Option<IxpId>,
    /// Hop indices of `near_ip` / `far_ip` in the traceroute.
    pub near_idx: usize,
    pub far_idx: usize,
}

impl rrr_store::Persist for Border {
    fn store<W: std::io::Write>(
        &self,
        e: &mut rrr_store::Encoder<W>,
    ) -> Result<(), rrr_store::StoreError> {
        self.near_ip.store(e)?;
        self.far_ip.store(e)?;
        self.near_as.store(e)?;
        self.far_as.store(e)?;
        self.ixp.store(e)?;
        self.near_idx.store(e)?;
        self.far_idx.store(e)
    }
    fn load<R: std::io::Read>(
        d: &mut rrr_store::Decoder<R>,
    ) -> Result<Self, rrr_store::StoreError> {
        Ok(Border {
            near_ip: rrr_store::Persist::load(d)?,
            far_ip: rrr_store::Persist::load(d)?,
            near_as: rrr_store::Persist::load(d)?,
            far_as: rrr_store::Persist::load(d)?,
            ixp: rrr_store::Persist::load(d)?,
            near_idx: rrr_store::Persist::load(d)?,
            far_idx: rrr_store::Persist::load(d)?,
        })
    }
}

/// Maps every hop of a traceroute once: `None` for unresponsive and
/// unmapped hops. The slice indexes like `tr.hops`, so one longest-prefix
/// lookup per hop serves border inference and every later per-hop question
/// about the same traceroute.
pub fn hop_origins(tr: &Traceroute, map: &IpToAsMap) -> Vec<Option<IpOrigin>> {
    tr.hops.iter().map(|h| h.addr.and_then(|ip| map.lookup(ip))).collect()
}

/// Finds all border crossings in a traceroute.
///
/// The scan walks responsive hops; an AS transition `A → B` yields a border
/// whose far IP is the first hop after the transition — the IXP LAN address
/// when the next hop maps to an IXP (with the far AS taken from the first
/// mapped hop beyond it), otherwise the first hop of `B`. Unmapped and
/// unresponsive hops inside the transition are skipped, matching the
/// merge-across-gaps rule used for AS paths.
pub fn find_borders(tr: &Traceroute, map: &IpToAsMap) -> Vec<Border> {
    find_borders_in(tr, &hop_origins(tr, map))
}

/// [`find_borders`] over origins already resolved by [`hop_origins`].
pub fn find_borders_in(tr: &Traceroute, origins: &[Option<IpOrigin>]) -> Vec<Border> {
    let mut out = Vec::new();
    let mut near: Option<(usize, Ipv4, Asn)> = None;
    let mut pending_ixp: Option<(usize, Ipv4, IxpId)> = None;

    for (i, (hop, origin)) in tr.hops.iter().zip(origins).enumerate() {
        let (Some(ip), Some(origin)) = (hop.addr, *origin) else { continue };
        match origin {
            IpOrigin::As(asn) => {
                if let Some((ni, nip, nas)) = near {
                    if nas != asn {
                        // Transition: possibly via a recorded IXP hop.
                        let (far_idx, far_ip, ixp) = match pending_ixp {
                            Some((xi, xip, ixp)) => (xi, xip, Some(ixp)),
                            None => (i, ip, None),
                        };
                        out.push(Border {
                            near_ip: nip,
                            far_ip,
                            near_as: nas,
                            far_as: asn,
                            ixp,
                            near_idx: ni,
                            far_idx,
                        });
                    }
                }
                near = Some((i, ip, asn));
                pending_ixp = None;
            }
            IpOrigin::Ixp(ixp) => {
                pending_ixp = Some((i, ip, ixp));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::IpToAsMap;
    use rrr_types::{Hop, ProbeId, Timestamp, TracerouteId};

    fn ip(s: &str) -> Ipv4 {
        s.parse().expect("valid ip")
    }

    fn tr(hops: &[Option<&str>]) -> Traceroute {
        Traceroute {
            id: TracerouteId(0),
            probe: ProbeId(0),
            src: ip("10.0.0.1"),
            dst: ip("10.3.0.1"),
            time: Timestamp(0),
            hops: hops
                .iter()
                .map(|h| match h {
                    Some(s) => Hop::responsive(ip(s)),
                    None => Hop::star(),
                })
                .collect(),
            reached: true,
        }
    }

    fn test_map() -> IpToAsMap {
        let mut m = IpToAsMap::new();
        m.add_origin("10.0.0.0/16".parse().expect("p"), Asn(100));
        m.add_origin("10.1.0.0/16".parse().expect("p"), Asn(101));
        m.add_origin("10.2.0.0/16".parse().expect("p"), Asn(102));
        m.add_ixp_lan("11.0.0.0/20".parse().expect("p"), IxpId(3));
        m
    }

    #[test]
    fn simple_border() {
        let m = test_map();
        let t = tr(&[Some("10.0.0.2"), Some("10.0.0.3"), Some("10.1.0.1"), Some("10.1.0.2")]);
        let b = find_borders(&t, &m);
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].near_ip, ip("10.0.0.3"));
        assert_eq!(b[0].far_ip, ip("10.1.0.1"));
        assert_eq!((b[0].near_as, b[0].far_as), (Asn(100), Asn(101)));
        assert_eq!(b[0].ixp, None);
        assert_eq!((b[0].near_idx, b[0].far_idx), (1, 2));
    }

    #[test]
    fn border_across_star() {
        let m = test_map();
        let t = tr(&[Some("10.0.0.2"), None, Some("10.1.0.1")]);
        let b = find_borders(&t, &m);
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].near_ip, ip("10.0.0.2"));
        assert_eq!(b[0].far_ip, ip("10.1.0.1"));
    }

    #[test]
    fn ixp_crossing_uses_lan_ip_as_border() {
        let m = test_map();
        let t = tr(&[Some("10.0.0.2"), Some("11.0.0.7"), Some("10.2.0.1")]);
        let b = find_borders(&t, &m);
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].far_ip, ip("11.0.0.7"));
        assert_eq!(b[0].far_as, Asn(102));
        assert_eq!(b[0].ixp, Some(IxpId(3)));
    }

    #[test]
    fn ixp_without_crossing_is_ignored() {
        // IXP hop followed by the same AS again: no border.
        let m = test_map();
        let t = tr(&[Some("10.0.0.2"), Some("11.0.0.7"), Some("10.0.0.9")]);
        assert!(find_borders(&t, &m).is_empty());
    }

    #[test]
    fn multi_border_path() {
        let m = test_map();
        let t = tr(&[
            Some("10.0.0.2"),
            Some("10.1.0.1"),
            Some("10.1.0.9"),
            Some("11.0.0.4"),
            Some("10.2.0.1"),
        ]);
        let b = find_borders(&t, &m);
        assert_eq!(b.len(), 2);
        assert_eq!((b[0].near_as, b[0].far_as), (Asn(100), Asn(101)));
        assert_eq!((b[1].near_as, b[1].far_as), (Asn(101), Asn(102)));
        assert_eq!(b[1].ixp, Some(IxpId(3)));
    }

    #[test]
    fn origins_index_like_hops_and_carry_the_borders() {
        let m = test_map();
        let t =
            tr(&[Some("10.0.0.2"), None, Some("172.16.0.1"), Some("11.0.0.4"), Some("10.2.0.1")]);
        let origins = hop_origins(&t, &m);
        assert_eq!(
            origins,
            vec![
                Some(IpOrigin::As(Asn(100))),
                None,
                None,
                Some(IpOrigin::Ixp(IxpId(3))),
                Some(IpOrigin::As(Asn(102)))
            ]
        );
        assert_eq!(find_borders_in(&t, &origins), find_borders(&t, &m));
        assert_eq!(find_borders(&t, &m).len(), 1);
    }

    #[test]
    fn no_borders_in_single_as() {
        let m = test_map();
        let t = tr(&[Some("10.0.0.2"), Some("10.0.0.3")]);
        assert!(find_borders(&t, &m).is_empty());
    }
}
