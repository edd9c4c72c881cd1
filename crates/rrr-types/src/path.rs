//! AS paths and the overlap computations the paper's BGP techniques rely on.

use crate::Asn;
use std::fmt;

/// A BGP AS path, stored nearest-neighbor first (index 0 is the AS closest
/// to the vantage point; the last element is the origin AS).
///
/// Prepending is preserved as repeated elements; [`AsPath::deduped`] collapses
/// them for hop-level comparisons (the paper merges consecutive identical AS
/// hops, Appendix A).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct AsPath(pub Vec<Asn>);

impl AsPath {
    /// Empty path.
    pub fn new() -> Self {
        AsPath(Vec::new())
    }

    /// Builds a path from raw ASN values (nearest first).
    pub fn from_asns<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        AsPath(iter.into_iter().map(Asn).collect())
    }

    /// Number of elements including prepending.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` if the path has no hops.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The origin AS (last hop) if any.
    pub fn origin(&self) -> Option<Asn> {
        self.0.last().copied()
    }

    /// The AS nearest to the vantage point, if any.
    pub fn head(&self) -> Option<Asn> {
        self.0.first().copied()
    }

    /// Path with consecutive duplicate ASes (prepending) collapsed.
    pub fn deduped(&self) -> AsPath {
        AsPath(dedup_slice(&self.0))
    }

    /// Whether the (deduped) path visits any AS twice — an AS loop.
    /// Traceroutes whose AS mapping contains loops are discarded (Appendix A).
    pub fn has_loop(&self) -> bool {
        let d = self.deduped();
        for (i, a) in d.0.iter().enumerate() {
            if d.0[i + 1..].contains(a) {
                return true;
            }
        }
        false
    }

    /// Returns a copy of the path with every AS in `strip` removed.
    /// Used to drop IXP route-server ASNs from AS paths (§4.1.1).
    pub fn stripped(&self, strip: &[Asn]) -> AsPath {
        AsPath(self.0.iter().copied().filter(|a| !strip.contains(a)).collect())
    }

    /// Like [`AsPath::stripped`], but writes into `out`, reusing its
    /// allocation. Hot loops that strip every incoming update can hold one
    /// scratch path instead of allocating per call.
    pub fn stripped_into(&self, strip: &[Asn], out: &mut AsPath) {
        out.0.clear();
        out.0.extend(self.0.iter().copied().filter(|a| !strip.contains(a)));
    }

    /// Whether [`AsPath::stripped`]`(strip)` would equal `other`, without
    /// building it.
    pub fn stripped_eq(&self, strip: &[Asn], other: &AsPath) -> bool {
        self.0.iter().filter(|a| !strip.contains(a)).eq(&other.0)
    }

    /// Whether the path contains `a` at all.
    pub fn contains(&self, a: Asn) -> bool {
        self.0.contains(&a)
    }

    /// The *first intersection* of this (BGP) path with a traceroute AS path
    /// `tau`: the AS in both paths that is **farthest from the destination**
    /// on `tau` (§4.1.2). Both paths must be destination-last. Returns the
    /// index into `tau` of that AS, or `None` when the paths are disjoint.
    pub fn first_intersection(&self, tau: &[Asn]) -> Option<usize> {
        tau.iter().position(|a| self.contains(*a))
    }

    /// Whether this path's suffix from AS `tau[j]` to the origin traverses
    /// exactly the ASes `tau[j..]` (the "match" condition for
    /// `P_match` in §4.1.2). Prepending on either side is ignored.
    ///
    /// Runs per distinct path per monitor at every window close, so it
    /// compares the two deduplicated sequences as it walks them instead of
    /// building either.
    pub fn suffix_matches(&self, tau: &[Asn], j: usize) -> bool {
        let from = tau[j];
        dedup_iter(&self.0).skip_while(|a| *a != from).eq(dedup_iter(&tau[j..]))
    }

    /// Whether the deduped path ends with the deduped `suffix`.
    pub fn has_suffix(&self, suffix: &[Asn]) -> bool {
        let want = dedup_slice(suffix);
        let d = self.deduped();
        if want.len() > d.0.len() {
            return false;
        }
        d.0[d.0.len() - want.len()..] == want[..]
    }

    /// Iterator over hops nearest-first.
    pub fn iter(&self) -> impl Iterator<Item = Asn> + '_ {
        self.0.iter().copied()
    }
}

/// `s` with consecutive repeats (prepending) collapsed, lazily.
fn dedup_iter(s: &[Asn]) -> impl Iterator<Item = Asn> + '_ {
    s.iter().enumerate().filter(|&(i, a)| i == 0 || s[i - 1] != *a).map(|(_, a)| *a)
}

fn dedup_slice(s: &[Asn]) -> Vec<Asn> {
    // Sized up front: a filter gives `collect` no lower bound, and growing
    // by doubling made registering a monitor group half as slow again.
    let mut out = Vec::with_capacity(s.len());
    out.extend(dedup_iter(s));
    out
}

impl fmt::Display for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for a in &self.0 {
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{}", a.0)?;
            first = false;
        }
        Ok(())
    }
}

impl From<Vec<Asn>> for AsPath {
    fn from(v: Vec<Asn>) -> Self {
        AsPath(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: &[u32]) -> AsPath {
        AsPath::from_asns(v.iter().copied())
    }

    fn asns(v: &[u32]) -> Vec<Asn> {
        v.iter().copied().map(Asn).collect()
    }

    #[test]
    fn dedup_collapses_prepending() {
        assert_eq!(p(&[1, 1, 1, 2, 3, 3]).deduped(), p(&[1, 2, 3]));
        assert_eq!(p(&[]).deduped(), p(&[]));
    }

    #[test]
    fn loop_detection() {
        assert!(!p(&[1, 2, 3]).has_loop());
        assert!(!p(&[1, 1, 2, 3]).has_loop());
        assert!(p(&[1, 2, 1, 3]).has_loop());
        assert!(p(&[4, 2, 3, 2]).has_loop());
    }

    #[test]
    fn strip_ixp_asns() {
        let stripped = p(&[13030, 59900, 1299, 18747]).stripped(&[Asn(59900)]);
        assert_eq!(stripped, p(&[13030, 1299, 18747]));
    }

    #[test]
    fn stripped_into_reuses_buffer() {
        let mut out = p(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let cap = out.0.capacity();
        p(&[13030, 59900, 1299, 18747]).stripped_into(&[Asn(59900)], &mut out);
        assert_eq!(out, p(&[13030, 1299, 18747]));
        assert_eq!(out.0.capacity(), cap, "buffer must be reused, not reallocated");
        p(&[10, 20]).stripped_into(&[], &mut out);
        assert_eq!(out, p(&[10, 20]));
    }

    #[test]
    fn first_intersection_is_farthest_from_destination() {
        // traceroute AS path (source..dest): [10, 20, 30, 40]
        let tau = asns(&[10, 20, 30, 40]);
        // BGP path that shares 20 and 40: first intersection (farthest from
        // the destination 40) is 20 at index 1.
        let bgp = p(&[99, 20, 55, 40]);
        assert_eq!(bgp.first_intersection(&tau), Some(1));
        assert_eq!(p(&[7, 8]).first_intersection(&tau), None);
    }

    #[test]
    fn suffix_match_semantics() {
        let tau = asns(&[10, 20, 30, 40]);
        // matches from index 1: suffix 20 30 40
        assert!(p(&[99, 20, 30, 40]).suffix_matches(&tau, 1));
        // prepending ignored
        assert!(p(&[99, 20, 20, 30, 40, 40]).suffix_matches(&tau, 1));
        // deviation after the intersection
        assert!(!p(&[99, 20, 31, 40]).suffix_matches(&tau, 1));
        // path that rejoins later but skips 30
        assert!(!p(&[99, 20, 40]).suffix_matches(&tau, 1));
        assert!(p(&[20, 30, 40]).suffix_matches(&tau, 1));
    }

    #[test]
    fn has_suffix() {
        assert!(p(&[1, 2, 3, 4]).has_suffix(&asns(&[3, 4])));
        assert!(p(&[1, 2, 3, 4]).has_suffix(&asns(&[1, 2, 3, 4])));
        assert!(!p(&[1, 2, 3, 4]).has_suffix(&asns(&[2, 4])));
        assert!(!p(&[3, 4]).has_suffix(&asns(&[1, 2, 3, 4])));
        // prepended representation on either side
        assert!(p(&[1, 2, 3, 3, 4]).has_suffix(&asns(&[3, 4])));
        assert!(p(&[1, 2, 3, 4]).has_suffix(&asns(&[3, 3, 4])));
    }

    #[test]
    fn display() {
        assert_eq!(p(&[13030, 1299, 2914, 18747]).to_string(), "13030 1299 2914 18747");
    }

    #[test]
    fn accessors() {
        let path = p(&[5, 6, 7]);
        assert_eq!(path.head(), Some(Asn(5)));
        assert_eq!(path.origin(), Some(Asn(7)));
        assert_eq!(path.len(), 3);
        assert!(!path.is_empty());
        assert!(AsPath::new().is_empty());
        assert_eq!(AsPath::new().origin(), None);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_path() -> impl Strategy<Value = AsPath> {
        proptest::collection::vec(1u32..50, 0..10).prop_map(AsPath::from_asns)
    }

    proptest! {
        /// Dedup is idempotent and never lengthens a path.
        #[test]
        fn dedup_idempotent(p in arb_path()) {
            let d = p.deduped();
            prop_assert!(d.len() <= p.len());
            prop_assert_eq!(d.deduped(), d);
        }

        /// A path always has each of its own suffixes.
        #[test]
        fn own_suffixes_match(p in arb_path()) {
            let d = p.deduped();
            for j in 0..d.len() {
                prop_assert!(d.has_suffix(&d.0[j..]), "{} lacks its own suffix {:?}", d, &d.0[j..]);
            }
        }

        /// Prepending never changes suffix semantics.
        #[test]
        fn prepending_invisible(p in arb_path(), reps in 1usize..4) {
            let mut fat = Vec::new();
            for a in p.iter() {
                for _ in 0..reps {
                    fat.push(a);
                }
            }
            let fat = AsPath(fat);
            let tau: Vec<Asn> = p.deduped().0;
            if !tau.is_empty() {
                prop_assert_eq!(
                    fat.first_intersection(&tau),
                    p.first_intersection(&tau)
                );
                for j in 0..tau.len() {
                    prop_assert_eq!(
                        fat.suffix_matches(&tau, j),
                        p.suffix_matches(&tau, j)
                    );
                }
            }
        }

        /// The walking comparison answers as the definition does: find the
        /// first `tau[j]` in the deduplicated path, and everything from
        /// there must equal the deduplicated `tau[j..]`.
        #[test]
        fn suffix_matches_is_its_definition(
            p in arb_path(),
            tau in proptest::collection::vec(1u32..50, 1..8),
            reps in 1usize..3,
        ) {
            // Paths over a small alphabet sharing tails with `tau`, with
            // prepending on both sides.
            let tau: Vec<Asn> = tau.into_iter().flat_map(|a| vec![Asn(a); reps]).collect();
            for cut in 0..tau.len() {
                let mut hops = p.0.clone();
                hops.extend_from_slice(&tau[cut..]);
                let path = AsPath(hops);
                for j in 0..tau.len() {
                    let want = dedup_slice(&tau[j..]);
                    let d = path.deduped();
                    let by_definition = d.0.iter().position(|a| *a == want[0])
                        .is_some_and(|pos| d.0[pos..] == want[..]);
                    prop_assert_eq!(path.suffix_matches(&tau, j), by_definition, "{} vs {:?} at {}", path, tau, j);
                }
            }
        }

        /// `stripped_eq` is `stripped` then `==`, for equal and unequal
        /// counterparts alike.
        #[test]
        fn stripped_eq_is_stripped_then_eq(
            p in arb_path(),
            q in arb_path(),
            strip in proptest::collection::vec(1u32..50, 0..4),
        ) {
            let strip: Vec<Asn> = strip.into_iter().map(Asn).collect();
            prop_assert!(p.stripped_eq(&strip, &p.stripped(&strip)));
            prop_assert_eq!(p.stripped_eq(&strip, &q), p.stripped(&strip) == q);
            prop_assert_eq!(p.stripped_eq(&strip, &q.stripped(&strip)), p.stripped(&strip) == q.stripped(&strip));
        }

        /// Stripping removes exactly the stripped ASes and nothing else.
        #[test]
        fn strip_removes_only_targets(p in arb_path(), strip in proptest::collection::vec(1u32..50, 0..4)) {
            let strip: Vec<Asn> = strip.into_iter().map(Asn).collect();
            let out = p.stripped(&strip);
            for a in out.iter() {
                prop_assert!(!strip.contains(&a));
                prop_assert!(p.contains(a));
            }
            for a in p.iter() {
                if !strip.contains(&a) {
                    prop_assert!(out.contains(a));
                }
            }
        }
    }
}
