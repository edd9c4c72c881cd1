//! The monitored corpus of traceroutes and their freshness state.

use rrr_ip2as::{find_borders, map_traceroute, Border, IpToAsMap};
use rrr_store::{Decoder, Encoder, Persist, StoreError};
use rrr_types::{Asn, FastMap, Ipv4, Prefix, Timestamp, Traceroute, TracerouteId};
use std::collections::{BTreeSet, HashMap};

/// Freshness classification of a corpus traceroute (§6.2's three classes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Freshness {
    /// No signal fired and every border is monitored by at least one
    /// technique.
    Fresh,
    /// At least one staleness prediction signal fired since issuance.
    Stale {
        since: Timestamp,
        /// Keys of the monitors currently asserting staleness (removed on
        /// revocation, §4.3.2).
        asserting: usize,
    },
    /// No signal fired but some borders are unmonitored; silence proves
    /// nothing there.
    Unknown,
}

impl Freshness {
    pub fn is_stale(&self) -> bool {
        matches!(self, Freshness::Stale { .. })
    }
}

/// One monitored traceroute with its derived views.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    pub id: TracerouteId,
    pub traceroute: Traceroute,
    /// When the traceroute was issued (== traceroute.time at insertion).
    pub issued: Timestamp,
    /// AS path extracted per Appendix A (source AS first).
    pub as_path: Vec<Asn>,
    /// Inferred inter-AS border crossings.
    pub borders: Vec<Border>,
    /// Most specific announced prefix covering the destination.
    pub dst_prefix: Option<Prefix>,
    /// Number of monitors (potential signals) watching this entry.
    pub monitors: usize,
    /// Monitors currently asserting staleness.
    pub asserting: usize,
    /// First assertion time.
    pub stale_since: Option<Timestamp>,
    /// Transient: value of [`Corpus::seq`] when this entry was last
    /// mutated. Lets incremental snapshot publication patch only the
    /// entries that changed since the previous snapshot. Not persisted.
    pub touched_seq: u64,
}

impl CorpusEntry {
    pub fn freshness(&self) -> Freshness {
        if self.asserting > 0 {
            Freshness::Stale {
                since: self.stale_since.expect("asserting implies a first assertion"),
                asserting: self.asserting,
            }
        } else if self.monitors >= self.borders.len().max(1) {
            Freshness::Fresh
        } else {
            Freshness::Unknown
        }
    }
}

impl Persist for CorpusEntry {
    fn store<W: std::io::Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        self.id.store(e)?;
        self.traceroute.store(e)?;
        self.issued.store(e)?;
        self.as_path.store(e)?;
        self.borders.store(e)?;
        self.dst_prefix.store(e)?;
        self.monitors.store(e)?;
        self.asserting.store(e)?;
        self.stale_since.store(e)
    }
    fn load<R: std::io::Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        Ok(CorpusEntry {
            id: Persist::load(d)?,
            traceroute: Persist::load(d)?,
            issued: Persist::load(d)?,
            as_path: Persist::load(d)?,
            borders: Persist::load(d)?,
            dst_prefix: Persist::load(d)?,
            monitors: Persist::load(d)?,
            asserting: Persist::load(d)?,
            stale_since: Persist::load(d)?,
            touched_seq: 0,
        })
    }
}

/// Presence-tagged value for delta records whose absent case means "key
/// removed" (`Option<&T>` cannot implement `Persist` directly).
fn store_opt<W: std::io::Write, T: Persist>(
    e: &mut Encoder<W>,
    v: Option<&T>,
) -> Result<(), StoreError> {
    match v {
        Some(v) => {
            true.store(e)?;
            v.store(e)
        }
        None => false.store(e),
    }
}

fn load_opt<R: std::io::Read, T: Persist>(d: &mut Decoder<R>) -> Result<Option<T>, StoreError> {
    Ok(if bool::load(d)? { Some(T::load(d)?) } else { None })
}

// The index vectors keep insertion order (monitor registration iterates
// them), so they are persisted verbatim rather than rebuilt from entries.
impl Persist for Corpus {
    fn store<W: std::io::Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        self.entries.store(e)?;
        self.by_dst_prefix.store(e)?;
        self.by_asn.store(e)?;
        self.by_pair.store(e)
    }
    fn load<R: std::io::Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        let entries: HashMap<TracerouteId, CorpusEntry> = Persist::load(d)?;
        let by_dst_prefix: HashMap<Prefix, Vec<TracerouteId>> = Persist::load(d)?;
        let by_asn: HashMap<Asn, Vec<TracerouteId>> = Persist::load(d)?;
        let by_pair: FastMap<(Ipv4, Ipv4), TracerouteId> = Persist::load(d)?;
        // Conservative: everything is delta-dirty until the owner
        // establishes a fresh full-snapshot base via `mark_clean`.
        Ok(Corpus {
            touched: entries.keys().copied().collect(),
            dirty_pfx: by_dst_prefix.keys().copied().collect(),
            dirty_asn: by_asn.keys().copied().collect(),
            dirty_pair: by_pair.keys().copied().collect(),
            seq: 0,
            membership_gen: 0,
            entries,
            by_dst_prefix,
            by_asn,
            by_pair,
        })
    }
}

/// The corpus: entries plus lookup indices used by monitor registration.
#[derive(Debug, Default)]
pub struct Corpus {
    entries: HashMap<TracerouteId, CorpusEntry>,
    /// dst prefix → entries.
    pub by_dst_prefix: HashMap<Prefix, Vec<TracerouteId>>,
    /// AS → entries whose path contains it.
    pub by_asn: HashMap<Asn, Vec<TracerouteId>>,
    /// (src, dst) → current entry (a refresh replaces the previous one).
    pub by_pair: FastMap<(Ipv4, Ipv4), TracerouteId>,
    /// Transient delta tracking: entries written (or removed) since the
    /// last full-snapshot base. The delta encodes each touched id's *final*
    /// state, so churned-then-removed ids resolve correctly.
    touched: BTreeSet<TracerouteId>,
    /// Index keys whose vectors were written since the base; their final
    /// vectors ride the delta wholesale (replay-order independent).
    dirty_pfx: BTreeSet<Prefix>,
    dirty_asn: BTreeSet<Asn>,
    dirty_pair: BTreeSet<(Ipv4, Ipv4)>,
    /// Transient mutation counter: bumps on every write. Drives
    /// [`CorpusEntry::touched_seq`] for incremental snapshot publication.
    seq: u64,
    /// Transient generation counter: bumps whenever membership (the id
    /// set) changes, invalidating shared index views.
    membership_gen: u64,
}

impl Corpus {
    pub fn new() -> Self {
        Corpus::default()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn get(&self, id: TracerouteId) -> Option<&CorpusEntry> {
        self.entries.get(&id)
    }

    pub fn get_mut(&mut self, id: TracerouteId) -> Option<&mut CorpusEntry> {
        if !self.entries.contains_key(&id) {
            return None;
        }
        // The caller may mutate through the returned reference; marking the
        // entry dirty unconditionally over-approximates, which is safe.
        self.seq += 1;
        self.touched.insert(id);
        let seq = self.seq;
        let e = self.entries.get_mut(&id).expect("checked above");
        e.touched_seq = seq;
        Some(e)
    }

    pub fn ids(&self) -> impl Iterator<Item = TracerouteId> + '_ {
        self.entries.keys().copied()
    }

    pub fn entries(&self) -> impl Iterator<Item = &CorpusEntry> {
        self.entries.values()
    }

    /// Inserts a traceroute, computing its derived views. Returns `None`
    /// (and does not insert) when the AS mapping is disqualified (loops) or
    /// empty; otherwise returns the freshly inserted entry, so callers that
    /// register monitors can read and annotate it without re-looking it up.
    /// A previous entry for the same (src, dst) pair is replaced.
    pub fn insert(
        &mut self,
        tr: Traceroute,
        map: &IpToAsMap,
        src_asn: Option<Asn>,
    ) -> Option<&mut CorpusEntry> {
        let as_trace = map_traceroute(&tr, map, src_asn)?;
        if as_trace.path.is_empty() {
            return None;
        }
        let borders = find_borders(&tr, map);
        let dst_prefix = map.most_specific_prefix(tr.dst);
        let id = tr.id;

        // Re-inserting an id that is already present (e.g. a replayed feed)
        // must first clean the old entry's index references — overwriting
        // the entry alone would leave dangling ids in by_dst_prefix/by_asn
        // that a later remove() could never reach.
        if self.entries.contains_key(&id) {
            self.remove(id);
        }
        if let Some(old) = self.by_pair.insert((tr.src, tr.dst), id) {
            self.remove(old);
        }

        let pfx_key = dst_prefix.unwrap_or(Prefix::new(tr.dst, 32));
        self.by_dst_prefix.entry(pfx_key).or_default().push(id);
        for &a in &as_trace.path {
            self.by_asn.entry(a).or_default().push(id);
        }
        self.seq += 1;
        self.membership_gen += 1;
        self.touched.insert(id);
        self.dirty_pfx.insert(pfx_key);
        self.dirty_asn.extend(as_trace.path.iter().copied());
        self.dirty_pair.insert((tr.src, tr.dst));
        let entry = CorpusEntry {
            id,
            issued: tr.time,
            traceroute: tr,
            as_path: as_trace.path,
            borders,
            dst_prefix,
            monitors: 0,
            asserting: 0,
            stale_since: None,
            touched_seq: self.seq,
        };
        // The up-front remove above guarantees the slot is vacant.
        Some(self.entries.entry(id).or_insert(entry))
    }

    /// Removes an entry and cleans indices. Index entries whose vectors
    /// drain are removed outright, so long-running corpus churn doesn't
    /// leak dead prefix/ASN keys.
    pub fn remove(&mut self, id: TracerouteId) -> Option<CorpusEntry> {
        let e = self.entries.remove(&id)?;
        let pfx = e.dst_prefix.unwrap_or(Prefix::new(e.traceroute.dst, 32));
        self.seq += 1;
        self.membership_gen += 1;
        self.touched.insert(id);
        self.dirty_pfx.insert(pfx);
        self.dirty_asn.extend(e.as_path.iter().copied());
        self.dirty_pair.insert((e.traceroute.src, e.traceroute.dst));
        if let Some(v) = self.by_dst_prefix.get_mut(&pfx) {
            v.retain(|x| *x != id);
            if v.is_empty() {
                self.by_dst_prefix.remove(&pfx);
            }
        }
        for a in &e.as_path {
            if let Some(v) = self.by_asn.get_mut(a) {
                v.retain(|x| *x != id);
                if v.is_empty() {
                    self.by_asn.remove(a);
                }
            }
        }
        if self.by_pair.get(&(e.traceroute.src, e.traceroute.dst)) == Some(&id) {
            self.by_pair.remove(&(e.traceroute.src, e.traceroute.dst));
        }
        Some(e)
    }

    /// Marks monitors asserting staleness on an entry.
    pub fn assert_stale(&mut self, id: TracerouteId, at: Timestamp) {
        self.seq += 1;
        let seq = self.seq;
        if let Some(e) = self.entries.get_mut(&id) {
            e.asserting += 1;
            e.stale_since.get_or_insert(at);
            e.touched_seq = seq;
            self.touched.insert(id);
        }
    }

    /// Revokes one assertion (§4.3.2); freshness returns once all revoke.
    pub fn revoke_stale(&mut self, id: TracerouteId) {
        self.seq += 1;
        let seq = self.seq;
        if let Some(e) = self.entries.get_mut(&id) {
            e.asserting = e.asserting.saturating_sub(1);
            if e.asserting == 0 {
                e.stale_since = None;
            }
            e.touched_seq = seq;
            self.touched.insert(id);
        }
    }

    /// Validates every lookup index against the entry table: indexed ids
    /// must exist, index vectors must be duplicate-free and non-empty, and
    /// every entry must be reachable through all of its indexes. Returns
    /// the first inconsistency found as a typed
    /// [`Error::Invariant`](rrr_types::Error::Invariant). Used by the
    /// simulation harness as a standing invariant after every pipeline
    /// round.
    pub fn validate(&self) -> Result<(), rrr_types::Error> {
        self.consistency_violation().map_err(|v| rrr_types::Error::invariant("corpus", v))
    }

    fn consistency_violation(&self) -> Result<(), String> {
        for (pfx, ids) in &self.by_dst_prefix {
            if ids.is_empty() {
                return Err(format!("by_dst_prefix[{pfx}] is an empty vector"));
            }
            let mut seen = std::collections::HashSet::new();
            for id in ids {
                if !self.entries.contains_key(id) {
                    return Err(format!("by_dst_prefix[{pfx}] references missing entry {id:?}"));
                }
                if !seen.insert(*id) {
                    return Err(format!("by_dst_prefix[{pfx}] lists {id:?} twice"));
                }
            }
        }
        for (asn, ids) in &self.by_asn {
            if ids.is_empty() {
                return Err(format!("by_asn[{asn}] is an empty vector"));
            }
            let mut seen = std::collections::HashSet::new();
            for id in ids {
                if !self.entries.contains_key(id) {
                    return Err(format!("by_asn[{asn}] references missing entry {id:?}"));
                }
                if !seen.insert(*id) {
                    return Err(format!("by_asn[{asn}] lists {id:?} twice"));
                }
            }
        }
        for ((src, dst), id) in &self.by_pair {
            if !self.entries.contains_key(id) {
                return Err(format!("by_pair[({src}, {dst})] references missing entry {id:?}"));
            }
        }
        for e in self.entries.values() {
            let pfx = e.dst_prefix.unwrap_or(Prefix::new(e.traceroute.dst, 32));
            if !self.by_dst_prefix.get(&pfx).is_some_and(|v| v.contains(&e.id)) {
                return Err(format!("entry {:?} missing from by_dst_prefix[{pfx}]", e.id));
            }
            for a in &e.as_path {
                if !self.by_asn.get(a).is_some_and(|v| v.contains(&e.id)) {
                    return Err(format!("entry {:?} missing from by_asn[{a}]", e.id));
                }
            }
            if self.by_pair.get(&(e.traceroute.src, e.traceroute.dst)) != Some(&e.id) {
                return Err(format!("entry {:?} not the by_pair entry for its pair", e.id));
            }
        }
        Ok(())
    }

    /// Monotonic mutation counter: bumps on every corpus write. Compare
    /// against [`CorpusEntry::touched_seq`] to find entries written since a
    /// previous observation. Transient (resets on restore).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Generation counter of the id set: unchanged generation means no
    /// entry was inserted or removed, so the lookup indices are
    /// structurally identical to the previous observation.
    pub fn membership_gen(&self) -> u64 {
        self.membership_gen
    }

    /// Serializes everything written since [`Corpus::mark_clean`] last
    /// established a full-snapshot base: each touched id's final state
    /// (`None` = removed) and each dirtied index key's final vector.
    /// Encoding final values rather than operations makes application
    /// independent of replay order and idempotent.
    pub(crate) fn store_delta<W: std::io::Write>(
        &self,
        e: &mut Encoder<W>,
    ) -> Result<(), StoreError> {
        e.len(self.touched.len())?;
        for id in &self.touched {
            id.store(e)?;
            store_opt(e, self.entries.get(id))?;
        }
        e.len(self.dirty_pfx.len())?;
        for p in &self.dirty_pfx {
            p.store(e)?;
            store_opt(e, self.by_dst_prefix.get(p))?;
        }
        e.len(self.dirty_asn.len())?;
        for a in &self.dirty_asn {
            a.store(e)?;
            store_opt(e, self.by_asn.get(a))?;
        }
        e.len(self.dirty_pair.len())?;
        for k in &self.dirty_pair {
            k.store(e)?;
            store_opt(e, self.by_pair.get(k))?;
        }
        Ok(())
    }

    /// Applies one [`Corpus::store_delta`] payload on top of the base it
    /// was built from, re-marking everything it touched as delta-dirty.
    pub(crate) fn apply_delta<R: std::io::Read>(
        &mut self,
        d: &mut Decoder<R>,
    ) -> Result<(), StoreError> {
        let n = d.read_len()?;
        for _ in 0..n {
            let id: TracerouteId = Persist::load(d)?;
            match load_opt::<_, CorpusEntry>(d)? {
                Some(entry) => {
                    self.entries.insert(id, entry);
                }
                None => {
                    self.entries.remove(&id);
                }
            }
            self.touched.insert(id);
        }
        let n = d.read_len()?;
        for _ in 0..n {
            let p: Prefix = Persist::load(d)?;
            match load_opt::<_, Vec<TracerouteId>>(d)? {
                Some(v) => {
                    self.by_dst_prefix.insert(p, v);
                }
                None => {
                    self.by_dst_prefix.remove(&p);
                }
            }
            self.dirty_pfx.insert(p);
        }
        let n = d.read_len()?;
        for _ in 0..n {
            let a: Asn = Persist::load(d)?;
            match load_opt::<_, Vec<TracerouteId>>(d)? {
                Some(v) => {
                    self.by_asn.insert(a, v);
                }
                None => {
                    self.by_asn.remove(&a);
                }
            }
            self.dirty_asn.insert(a);
        }
        let n = d.read_len()?;
        for _ in 0..n {
            let k: (Ipv4, Ipv4) = Persist::load(d)?;
            match load_opt::<_, TracerouteId>(d)? {
                Some(v) => {
                    self.by_pair.insert(k, v);
                }
                None => {
                    self.by_pair.remove(&k);
                }
            }
            self.dirty_pair.insert(k);
        }
        self.seq += 1;
        self.membership_gen += 1;
        Ok(())
    }

    /// Declares the current state a full-snapshot base: clears all delta
    /// dirty tracking so subsequent [`Corpus::store_delta`] calls
    /// serialize only what mutates from here on.
    pub(crate) fn mark_clean(&mut self) {
        self.touched.clear();
        self.dirty_pfx.clear();
        self.dirty_asn.clear();
        self.dirty_pair.clear();
    }

    /// Counts entries per freshness class.
    pub fn freshness_summary(&self) -> crate::query::FreshnessSummary {
        let mut s = crate::query::FreshnessSummary::default();
        for e in self.entries.values() {
            s.count(&e.freshness());
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrr_types::{Hop, ProbeId};

    fn ip(s: &str) -> Ipv4 {
        s.parse().expect("valid ip")
    }

    fn tr(id: u64, hops: &[&str]) -> Traceroute {
        Traceroute {
            id: TracerouteId(id),
            probe: ProbeId(0),
            src: ip("10.0.200.1"),
            dst: ip("10.2.0.1"),
            time: Timestamp(100),
            hops: hops.iter().map(|h| Hop::responsive(ip(h))).collect(),
            reached: true,
        }
    }

    fn map() -> IpToAsMap {
        let mut m = IpToAsMap::new();
        m.add_origin("10.0.0.0/16".parse().expect("p"), Asn(100));
        m.add_origin("10.1.0.0/16".parse().expect("p"), Asn(101));
        m.add_origin("10.2.0.0/16".parse().expect("p"), Asn(102));
        m.add_origin("10.2.0.0/20".parse().expect("p"), Asn(102));
        m
    }

    #[test]
    fn insert_builds_views() {
        let mut c = Corpus::new();
        let m = map();
        let id = c
            .insert(tr(1, &["10.0.0.9", "10.1.0.1", "10.2.0.1"]), &m, None)
            .expect("valid trace")
            .id;
        let e = c.get(id).expect("inserted");
        assert_eq!(e.as_path, vec![Asn(100), Asn(101), Asn(102)]);
        assert_eq!(e.borders.len(), 2);
        assert_eq!(e.dst_prefix, Some("10.2.0.0/20".parse().expect("p")));
        assert_eq!(c.len(), 1);
        assert!(c.by_asn.get(&Asn(101)).expect("indexed").contains(&id));
    }

    #[test]
    fn looped_trace_rejected() {
        let mut c = Corpus::new();
        let m = map();
        assert!(c.insert(tr(1, &["10.1.0.1", "10.2.0.1", "10.1.0.3"]), &m, None).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn refresh_replaces_pair() {
        let mut c = Corpus::new();
        let m = map();
        let id1 = c.insert(tr(1, &["10.0.0.9", "10.1.0.1", "10.2.0.1"]), &m, None).expect("ok").id;
        let id2 = c.insert(tr(2, &["10.0.0.9", "10.2.0.1"]), &m, None).expect("ok").id;
        assert_eq!(c.len(), 1);
        assert!(c.get(id1).is_none());
        assert!(c.get(id2).is_some());
        // Index hygiene: AS 101 no longer references the removed entry.
        assert!(!c.by_asn.get(&Asn(101)).map(|v| v.contains(&id1)).unwrap_or(false));
    }

    #[test]
    fn remove_drains_empty_index_entries() {
        let mut c = Corpus::new();
        let m = map();
        let id = c.insert(tr(1, &["10.0.0.9", "10.1.0.1", "10.2.0.1"]), &m, None).expect("ok").id;
        assert!(!c.by_dst_prefix.is_empty());
        assert!(!c.by_asn.is_empty());
        c.remove(id);
        // No dead keys left behind: churn must not leak index entries.
        assert!(c.by_dst_prefix.is_empty(), "{:?}", c.by_dst_prefix);
        assert!(c.by_asn.is_empty(), "{:?}", c.by_asn);
    }

    /// Regression: removing the same probe id twice must be a graceful
    /// no-op — no panic, no index damage — including when another entry was
    /// inserted between the two removes.
    #[test]
    fn double_remove_is_graceful() {
        let mut c = Corpus::new();
        let m = map();
        let id = c.insert(tr(1, &["10.0.0.9", "10.1.0.1", "10.2.0.1"]), &m, None).expect("ok").id;
        assert!(c.remove(id).is_some());
        assert!(c.remove(id).is_none(), "second remove must return None");
        c.validate().expect("indices intact after double remove");

        // Interleaved: a new entry sharing the same dst prefix and ASNs
        // must survive a stale re-remove of the old id untouched.
        let mut t2 = tr(2, &["10.0.0.9", "10.1.0.1", "10.2.0.1"]);
        t2.src = ip("10.0.200.7");
        let id2 = c.insert(t2, &m, None).expect("ok").id;
        assert!(c.remove(id).is_none());
        assert!(c.get(id2).is_some(), "survivor evicted by stale remove");
        c.validate().expect("indices intact");
        assert!(c.by_asn.get(&Asn(101)).expect("indexed").contains(&id2));
    }

    /// Regression: re-inserting an existing id under a *different* pair
    /// must clean the old entry's index references, so a later remove
    /// leaves nothing dangling.
    #[test]
    fn reinsert_same_id_different_pair_cleans_indices() {
        let mut c = Corpus::new();
        let m = map();
        let id = c.insert(tr(1, &["10.0.0.9", "10.1.0.1", "10.2.0.1"]), &m, None).expect("ok").id;
        // Same id, different destination (and thus pair + prefix + path).
        let mut t2 = tr(1, &["10.0.0.9", "10.1.0.5"]);
        t2.dst = ip("10.1.0.5");
        assert_eq!(c.insert(t2, &m, None).expect("ok").id, id);
        assert_eq!(c.len(), 1);
        c.validate().expect("reinsertion left dangling references");
        c.remove(id);
        assert!(c.by_dst_prefix.is_empty(), "{:?}", c.by_dst_prefix);
        assert!(c.by_asn.is_empty(), "{:?}", c.by_asn);
        assert!(c.by_pair.is_empty(), "{:?}", c.by_pair);
    }

    #[test]
    fn staleness_lifecycle() {
        let mut c = Corpus::new();
        let m = map();
        let id = c.insert(tr(1, &["10.0.0.9", "10.1.0.1", "10.2.0.1"]), &m, None).expect("ok").id;
        // Unknown until monitors registered (2 borders, 0 monitors).
        assert_eq!(c.get(id).expect("entry").freshness(), Freshness::Unknown);
        c.get_mut(id).expect("entry").monitors = 2;
        assert_eq!(c.get(id).expect("entry").freshness(), Freshness::Fresh);

        c.assert_stale(id, Timestamp(500));
        c.assert_stale(id, Timestamp(600));
        match c.get(id).expect("entry").freshness() {
            Freshness::Stale { since, asserting } => {
                assert_eq!(since, Timestamp(500));
                assert_eq!(asserting, 2);
            }
            other => panic!("expected stale, got {other:?}"),
        }
        c.revoke_stale(id);
        assert!(c.get(id).expect("entry").freshness().is_stale());
        c.revoke_stale(id);
        assert_eq!(c.get(id).expect("entry").freshness(), Freshness::Fresh);
        let s = c.freshness_summary();
        let (f, s, u) = (s.fresh, s.stale, s.unknown);
        assert_eq!((f, s, u), (1, 0, 0));
    }
}
