//! Traceroute AS-path extraction and unresponsive-hop patching (Appendix A).

use crate::mapping::{IpOrigin, IpToAsMap};
use rrr_types::{Asn, FastMap, Ipv4, Traceroute};
use std::collections::BTreeSet;

/// A traceroute mapped to AS granularity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsTrace {
    /// Merged AS path (consecutive identical hops collapsed, unmapped gaps
    /// bridged, IXP hops treated as glue). First element is the source AS.
    pub path: Vec<Asn>,
    /// For each AS in `path`, the index of the first and last hop (in the
    /// original hop list) that mapped to it.
    pub spans: Vec<(usize, usize)>,
}

impl AsTrace {
    /// Index in `path` of the given AS, if present.
    pub fn position(&self, asn: Asn) -> Option<usize> {
        self.path.iter().position(|a| *a == asn)
    }
}

/// Maps a traceroute to its AS path.
///
/// Rules from Appendix A:
/// - hops are mapped by longest-prefix match; IXP addresses do not
///   contribute AS hops,
/// - consecutive hops in the same AS merge; same-AS hops separated by
///   unmapped/unresponsive hops also merge,
/// - a mapping containing an AS loop disqualifies the traceroute (`None`).
///
/// `src_asn` is the probe's AS (the traceroute's source address may be in
/// unannounced infrastructure space, so the caller supplies it; pass `None`
/// to derive it from `tr.src`).
pub fn map_traceroute(tr: &Traceroute, map: &IpToAsMap, src_asn: Option<Asn>) -> Option<AsTrace> {
    let mut path: Vec<Asn> = Vec::new();
    let mut spans: Vec<(usize, usize)> = Vec::new();

    let push = |asn: Asn, idx: usize, path: &mut Vec<Asn>, spans: &mut Vec<(usize, usize)>| {
        if path.last() == Some(&asn) {
            spans.last_mut().expect("span exists for last AS").1 = idx;
        } else {
            path.push(asn);
            spans.push((idx, idx));
        }
    };

    if let Some(asn) = src_asn.or_else(|| match map.lookup(tr.src) {
        Some(IpOrigin::As(a)) => Some(a),
        _ => None,
    }) {
        push(asn, 0, &mut path, &mut spans);
    }

    for (i, hop) in tr.hops.iter().enumerate() {
        let Some(ip) = hop.addr else { continue };
        match map.lookup(ip) {
            Some(IpOrigin::As(asn)) => push(asn, i, &mut path, &mut spans),
            Some(IpOrigin::Ixp(_)) | None => {}
        }
    }

    // AS loops disqualify the trace.
    for (i, a) in path.iter().enumerate() {
        if path[i + 1..].contains(a) {
            return None;
        }
    }
    Some(AsTrace { path, spans })
}

/// Unresponsive-hop patcher: for each `(prev, next)` responsive pair around
/// a single `*`, tracks every responsive middle ever observed between them;
/// when exactly one is known, the star can be patched (Appendix A).
#[derive(Debug, Default, Clone)]
pub struct StarPatcher {
    observed: FastMap<(Ipv4, Ipv4), BTreeSet<Ipv4>>,
}

impl rrr_store::Persist for StarPatcher {
    fn store<W: std::io::Write>(
        &self,
        e: &mut rrr_store::Encoder<W>,
    ) -> Result<(), rrr_store::StoreError> {
        self.observed.store(e)
    }
    fn load<R: std::io::Read>(
        d: &mut rrr_store::Decoder<R>,
    ) -> Result<Self, rrr_store::StoreError> {
        Ok(StarPatcher { observed: rrr_store::Persist::load(d)? })
    }
}

impl StarPatcher {
    pub fn new() -> Self {
        StarPatcher::default()
    }

    /// Learns responsive triples from a traceroute.
    pub fn learn(&mut self, tr: &Traceroute) {
        for w in tr.hops.windows(3) {
            if let (Some(a), Some(b), Some(c)) = (w[0].addr, w[1].addr, w[2].addr) {
                self.observed.entry((a, c)).or_default().insert(b);
            }
        }
    }

    /// The unique middle hop for `(prev, next)` when exactly one has ever
    /// been observed.
    pub fn unique_middle(&self, prev: Ipv4, next: Ipv4) -> Option<Ipv4> {
        let set = self.observed.get(&(prev, next))?;
        if set.len() == 1 {
            set.iter().next().copied()
        } else {
            None
        }
    }

    /// Returns a copy of the traceroute with single stars patched where the
    /// surrounding pair has a unique known middle. Remaining stars stay as
    /// wildcards.
    pub fn patch(&self, tr: &Traceroute) -> Traceroute {
        self.patch_stars(tr).unwrap_or_else(|| tr.clone())
    }

    /// [`StarPatcher::patch`] without the copy in the common case: `None`
    /// when no star has a unique known middle, so the caller keeps using
    /// `tr` itself. The copy is made at the first hop actually patched and
    /// later stars read their neighbours from it.
    pub fn patch_stars(&self, tr: &Traceroute) -> Option<Traceroute> {
        let mut out: Option<Traceroute> = None;
        for i in 1..tr.hops.len().saturating_sub(1) {
            let hops = out.as_ref().map_or(&tr.hops, |o| &o.hops);
            if !hops[i].is_star() {
                continue;
            }
            if let (Some(p), Some(n)) = (hops[i - 1].addr, hops[i + 1].addr) {
                if let Some(mid) = self.unique_middle(p, n) {
                    out.get_or_insert_with(|| tr.clone()).hops[i].addr = Some(mid);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        m.add_origin("10.3.0.0/16".parse().expect("p"), Asn(103));
        m.add_ixp_lan("11.0.0.0/20".parse().expect("p"), rrr_types::IxpId(0));
        m
    }

    #[test]
    fn merges_consecutive_and_gapped_hops() {
        let m = test_map();
        let t = tr(&[
            Some("10.0.0.2"),
            Some("10.1.0.1"),
            None, // star inside AS 101
            Some("10.1.0.2"),
            Some("10.3.0.1"),
        ]);
        let at = map_traceroute(&t, &m, None).expect("no loop");
        assert_eq!(at.path, vec![Asn(100), Asn(101), Asn(103)]);
        // span of AS 101 covers hops 1..=3 (first and last mapped hop)
        assert_eq!(at.spans[1], (1, 3));
    }

    #[test]
    fn ixp_hops_are_glue() {
        let m = test_map();
        let t = tr(&[Some("10.0.0.2"), Some("11.0.0.5"), Some("10.2.0.1"), Some("10.3.0.1")]);
        let at = map_traceroute(&t, &m, None).expect("no loop");
        assert_eq!(at.path, vec![Asn(100), Asn(102), Asn(103)]);
    }

    #[test]
    fn as_loop_discards() {
        let m = test_map();
        let t = tr(&[Some("10.1.0.1"), Some("10.2.0.1"), Some("10.1.0.9")]);
        assert!(map_traceroute(&t, &m, None).is_none());
    }

    #[test]
    fn src_asn_override() {
        let m = test_map();
        let t = tr(&[Some("10.1.0.1")]);
        let at = map_traceroute(&t, &m, Some(Asn(999))).expect("no loop");
        assert_eq!(at.path, vec![Asn(999), Asn(101)]);
    }

    #[test]
    fn patcher_learns_and_patches_unique_middles() {
        let mut p = StarPatcher::new();
        p.learn(&tr(&[Some("10.0.0.2"), Some("10.1.0.1"), Some("10.2.0.1")]));
        let broken = tr(&[Some("10.0.0.2"), None, Some("10.2.0.1")]);
        let fixed = p.patch(&broken);
        assert_eq!(fixed.hops[1].addr, Some(ip("10.1.0.1")));
        // Ambiguous middles are left alone.
        p.learn(&tr(&[Some("10.0.0.2"), Some("10.1.0.7"), Some("10.2.0.1")]));
        let still = p.patch(&broken);
        assert!(still.hops[1].is_star());
        assert_eq!(p.unique_middle(ip("10.0.0.2"), ip("10.2.0.1")), None);
    }

    #[test]
    fn patch_stars_copies_only_when_it_patches() {
        let mut p = StarPatcher::new();
        p.learn(&tr(&[Some("10.0.0.2"), Some("10.1.0.1"), Some("10.2.0.1"), Some("10.3.0.1")]));
        // Nothing to patch: no star, a star with unknown context, a star at
        // either end, two stars in a row.
        for hops in [
            &[Some("10.0.0.2"), Some("10.1.0.1"), Some("10.2.0.1")][..],
            &[Some("10.0.0.9"), None, Some("10.2.0.1")],
            &[None, Some("10.1.0.1"), None],
            &[Some("10.0.0.2"), None, None, Some("10.3.0.1")],
            &[],
        ] {
            assert_eq!(p.patch_stars(&tr(hops)), None, "{hops:?}");
        }
        // Two separate stars are both patched in the one copy.
        let broken = tr(&[Some("10.0.0.2"), None, Some("10.2.0.1"), None, Some("10.2.0.1")]);
        p.learn(&tr(&[Some("10.2.0.1"), Some("10.3.0.7"), Some("10.2.0.1")]));
        let fixed = p.patch_stars(&broken).expect("patched");
        assert_eq!(fixed.hops[1].addr, Some(ip("10.1.0.1")));
        assert_eq!(fixed.hops[3].addr, Some(ip("10.3.0.7")));
        assert_eq!(fixed, p.patch(&broken));
    }

    #[test]
    fn patcher_ignores_unknown_context() {
        let p = StarPatcher::new();
        let broken = tr(&[Some("10.0.0.2"), None, Some("10.2.0.1")]);
        assert_eq!(p.patch(&broken), broken);
    }
}
