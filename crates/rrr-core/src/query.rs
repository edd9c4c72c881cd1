//! The read-only query surface and epoch-versioned snapshots.
//!
//! Two implementors answer the same [`Query`] trait:
//!
//! - the live [`StalenessDetector`] itself (answers reflect the state as of
//!   the last `step`), and
//! - an immutable [`DetectorSnapshot`] extracted at a window boundary,
//!   which `rrr-serve` publishes behind an epoch-stamped pointer so heavy
//!   read traffic never contends with ingestion.
//!
//! Every answer is attributable to an **epoch** — the number of closed BGP
//! windows — so a caller can tell exactly which prefix of the input stream
//! an answer reflects, and harnesses can compare a concurrent daemon
//! against a serial batch replay at the same epoch.
//!
//! Planning from a snapshot clones the calibrator (its RNG included), so
//! the same snapshot always returns the same [`RefreshPlan`] and never
//! perturbs the live random stream.

use crate::calibration::{AssertingSignal, Calibrator, RefreshPlan};
use crate::corpus::Freshness;
use crate::detector::StalenessDetector;
use crate::signal::{SignalKey, StalenessSignal};
use rrr_types::{Asn, Community, Ipv4, Prefix, ProbeId, Timestamp, TracerouteId, Window};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// Inventory counts for one monitor family.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FamilyStats {
    /// Monitors registered.
    pub total: usize,
    /// Monitors whose series hold enough history to fire.
    pub ready: usize,
    /// Monitors that gave up (series never stabilized).
    pub gave_up: usize,
}

/// Traceroute-derived monitor inventory (diagnostics; replaces the old
/// nested-tuple return of `trace_monitor_stats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MonitorStats {
    /// §4.2.1 IP-level subpath monitors.
    pub subpaths: FamilyStats,
    /// §4.2.2 router-level ⟨AS, city⟩ border monitors.
    pub borders: FamilyStats,
}

/// Corpus entry counts per freshness class (§6.2's three classes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FreshnessSummary {
    pub fresh: usize,
    pub stale: usize,
    pub unknown: usize,
}

impl FreshnessSummary {
    /// Tallies one entry's freshness class.
    pub fn count(&mut self, f: &Freshness) {
        match f {
            Freshness::Fresh => self.fresh += 1,
            Freshness::Stale { .. } => self.stale += 1,
            Freshness::Unknown => self.unknown += 1,
        }
    }

    /// Total entries counted.
    pub fn total(&self) -> usize {
        self.fresh + self.stale + self.unknown
    }
}

/// Whole-corpus state at one epoch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CorpusSummary {
    /// Corpus entries monitored.
    pub entries: usize,
    /// Freshness class tallies over those entries.
    pub freshness: FreshnessSummary,
    /// Staleness signals emitted since the detector started.
    pub signals_logged: usize,
}

/// Corpus entries whose destination falls under one announced prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixSummary {
    pub prefix: Prefix,
    /// Matching corpus traceroutes, ascending by id.
    pub traceroutes: Vec<TracerouteId>,
    /// Freshness tallies over those traceroutes.
    pub freshness: FreshnessSummary,
}

/// Corpus entries whose AS path traverses one AS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsSummary {
    pub asn: Asn,
    /// Matching corpus traceroutes, ascending by id.
    pub traceroutes: Vec<TracerouteId>,
    /// Freshness tallies over those traceroutes.
    pub freshness: FreshnessSummary,
}

/// The read-only question surface shared by the live detector and its
/// immutable snapshots. All answers are deterministic functions of the
/// input stream consumed so far; [`Query::epoch`] names that point.
pub trait Query {
    /// Number of closed BGP windows behind the answers (the snapshot
    /// version every response is stamped with).
    fn epoch(&self) -> u64;

    /// Freshness of one corpus traceroute; `None` if it is not monitored.
    fn freshness_of(&self, id: TracerouteId) -> Option<Freshness>;

    /// Whole-corpus tallies.
    fn corpus_summary(&self) -> CorpusSummary;

    /// Entries destined under `prefix` (the corpus's own most-specific
    /// indexing; unannounced destinations index as host /32s).
    fn prefix_summary(&self, prefix: Prefix) -> PrefixSummary;

    /// Entries whose AS path traverses `asn`.
    fn as_summary(&self, asn: Asn) -> AsSummary;

    /// A refresh plan under `budget`, computed from a *copy* of the
    /// calibrator so repeated calls return the same plan and the live
    /// random stream is untouched (unlike
    /// [`StalenessDetector::plan_refresh`], which advances it).
    fn plan(&self, budget: usize) -> RefreshPlan;

    /// Traceroute-derived monitor inventory.
    fn monitor_stats(&self) -> MonitorStats;
}

/// One corpus entry's queryable fields, frozen at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapEntry {
    pub probe: ProbeId,
    pub dst: Ipv4,
    pub issued: Timestamp,
    pub freshness: Freshness,
}

/// An immutable copy of everything the [`Query`] trait can be asked about,
/// extracted from a detector at a window boundary.
///
/// The snapshot is `Send + Sync` and self-contained: `rrr-serve` hands
/// `Arc<DetectorSnapshot>`s to any number of reader threads while the
/// detector keeps ingesting. Signal keys are shared `Arc` handles, so
/// capture cost is dominated by the corpus index copy, not key cloning.
pub struct DetectorSnapshot {
    epoch: u64,
    /// Corpus write sequence at capture time; entries with a newer
    /// `touched_seq` are the only ones a later incremental capture copies.
    corpus_seq: u64,
    /// Corpus membership generation at capture time. While it is
    /// unchanged, the id set — and therefore the prefix/ASN indexes and
    /// the potential-signal map — are unchanged too, and successor
    /// snapshots share them by `Arc` instead of rebuilding.
    membership_gen: u64,
    entries: HashMap<TracerouteId, SnapEntry>,
    by_prefix: Arc<BTreeMap<Prefix, Vec<TracerouteId>>>,
    by_asn: Arc<BTreeMap<Asn, Vec<TracerouteId>>>,
    active: HashMap<TracerouteId, HashMap<Arc<SignalKey>, Vec<Community>>>,
    potential: Arc<HashMap<TracerouteId, Vec<Arc<SignalKey>>>>,
    cal: Calibrator,
    monitors: MonitorStats,
    signals_logged: usize,
}

impl DetectorSnapshot {
    /// Number of corpus entries frozen in this snapshot.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Every monitored traceroute id in this snapshot (ascending).
    pub fn ids(&self) -> Vec<TracerouteId> {
        let mut ids: Vec<TracerouteId> = self.entries.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Every indexed destination prefix (ascending).
    pub fn prefixes(&self) -> impl Iterator<Item = Prefix> + '_ {
        self.by_prefix.keys().copied()
    }

    /// Every indexed traversed AS (ascending).
    pub fn asns(&self) -> impl Iterator<Item = Asn> + '_ {
        self.by_asn.keys().copied()
    }

    /// Whether this snapshot shares its membership-derived structures
    /// (prefix/ASN indexes, potential-signal map) with `other` by pointer —
    /// true exactly when an incremental capture reused them rather than
    /// rebuilding. Diagnostic for publication-path tests.
    pub fn shares_indexes_with(&self, other: &DetectorSnapshot) -> bool {
        Arc::ptr_eq(&self.by_prefix, &other.by_prefix)
            && Arc::ptr_eq(&self.by_asn, &other.by_asn)
            && Arc::ptr_eq(&self.potential, &other.potential)
    }
}

impl StalenessDetector {
    /// Extracts an immutable, epoch-stamped snapshot of the queryable
    /// state. Intended to be called at window boundaries (`rrr-serve`
    /// does so whenever `closed_bgp_windows` advances).
    pub fn snapshot(&self) -> DetectorSnapshot {
        let mut entries = HashMap::with_capacity(self.corpus.len());
        for e in self.corpus.entries() {
            entries.insert(
                e.id,
                SnapEntry {
                    probe: e.traceroute.probe,
                    dst: e.traceroute.dst,
                    issued: e.issued,
                    freshness: e.freshness(),
                },
            );
        }
        let mut by_prefix: BTreeMap<Prefix, Vec<TracerouteId>> = BTreeMap::new();
        for (pfx, ids) in &self.corpus.by_dst_prefix {
            let mut ids = ids.clone();
            ids.sort_unstable();
            by_prefix.insert(*pfx, ids);
        }
        let mut by_asn: BTreeMap<Asn, Vec<TracerouteId>> = BTreeMap::new();
        for (asn, ids) in &self.corpus.by_asn {
            let mut ids = ids.clone();
            ids.sort_unstable();
            by_asn.insert(*asn, ids);
        }
        DetectorSnapshot {
            epoch: self.closed_bgp_windows(),
            corpus_seq: self.corpus.seq(),
            membership_gen: self.corpus.membership_gen(),
            entries,
            by_prefix: Arc::new(by_prefix),
            by_asn: Arc::new(by_asn),
            active: self.active.clone(),
            potential: Arc::new(self.potential.clone()),
            cal: self.cal.clone(),
            monitors: self.trace.stats(),
            signals_logged: self.log.len(),
        }
    }

    /// Extracts a snapshot by reusing an earlier one, copying only what
    /// changed since — the publication-side half of the churn-proportional
    /// design. When corpus membership is unchanged since `prev`, the
    /// prefix/ASN indexes and the potential-signal map are shared by `Arc`
    /// (they are pure functions of membership), and only entries whose
    /// `touched_seq` advanced past `prev`'s capture point are re-copied.
    /// On membership change it degrades to a full [`Self::snapshot`].
    ///
    /// The result is indistinguishable from a full capture at the same
    /// instant — `rrr-serve`'s replay oracle holds incremental publishes
    /// to exactly that standard.
    pub fn snapshot_incremental(&self, prev: &DetectorSnapshot) -> DetectorSnapshot {
        if prev.membership_gen != self.corpus.membership_gen() {
            return self.snapshot();
        }
        let mut entries = prev.entries.clone();
        for e in self.corpus.entries() {
            if e.touched_seq > prev.corpus_seq {
                entries.insert(
                    e.id,
                    SnapEntry {
                        probe: e.traceroute.probe,
                        dst: e.traceroute.dst,
                        issued: e.issued,
                        freshness: e.freshness(),
                    },
                );
            }
        }
        DetectorSnapshot {
            epoch: self.closed_bgp_windows(),
            corpus_seq: self.corpus.seq(),
            membership_gen: prev.membership_gen,
            entries,
            by_prefix: Arc::clone(&prev.by_prefix),
            by_asn: Arc::clone(&prev.by_asn),
            active: self.active.clone(),
            potential: Arc::clone(&prev.potential),
            cal: self.cal.clone(),
            monitors: self.trace.stats(),
            signals_logged: self.log.len(),
        }
    }
}

fn summarize<'a>(
    ids: impl Iterator<Item = &'a TracerouteId>,
    freshness_of: impl Fn(TracerouteId) -> Option<Freshness>,
) -> (Vec<TracerouteId>, FreshnessSummary) {
    let mut out: Vec<TracerouteId> = ids.copied().collect();
    out.sort_unstable();
    let mut s = FreshnessSummary::default();
    for id in &out {
        if let Some(f) = freshness_of(*id) {
            s.count(&f);
        }
    }
    (out, s)
}

impl Query for DetectorSnapshot {
    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn freshness_of(&self, id: TracerouteId) -> Option<Freshness> {
        self.entries.get(&id).map(|e| e.freshness.clone())
    }

    fn corpus_summary(&self) -> CorpusSummary {
        let mut freshness = FreshnessSummary::default();
        for e in self.entries.values() {
            freshness.count(&e.freshness);
        }
        CorpusSummary {
            entries: self.entries.len(),
            freshness,
            signals_logged: self.signals_logged,
        }
    }

    fn prefix_summary(&self, prefix: Prefix) -> PrefixSummary {
        let ids = self.by_prefix.get(&prefix).map(Vec::as_slice).unwrap_or(&[]);
        let (traceroutes, freshness) = summarize(ids.iter(), |id| self.freshness_of(id));
        PrefixSummary { prefix, traceroutes, freshness }
    }

    fn as_summary(&self, asn: Asn) -> AsSummary {
        let ids = self.by_asn.get(&asn).map(Vec::as_slice).unwrap_or(&[]);
        let (traceroutes, freshness) = summarize(ids.iter(), |id| self.freshness_of(id));
        AsSummary { asn, traceroutes, freshness }
    }

    fn plan(&self, budget: usize) -> RefreshPlan {
        let mut cal = self.cal.clone();
        plan_refresh_impl(
            &self.active,
            &self.potential,
            &|id| self.entries.get(&id).map(|e| e.probe),
            &mut cal,
            budget,
        )
    }

    fn monitor_stats(&self) -> MonitorStats {
        self.monitors
    }
}

impl Query for StalenessDetector {
    fn epoch(&self) -> u64 {
        self.closed_bgp_windows()
    }

    fn freshness_of(&self, id: TracerouteId) -> Option<Freshness> {
        self.corpus.get(id).map(|e| e.freshness())
    }

    fn corpus_summary(&self) -> CorpusSummary {
        CorpusSummary {
            entries: self.corpus.len(),
            freshness: self.corpus.freshness_summary(),
            signals_logged: self.log.len(),
        }
    }

    fn prefix_summary(&self, prefix: Prefix) -> PrefixSummary {
        let ids = self.corpus.by_dst_prefix.get(&prefix).map(Vec::as_slice).unwrap_or(&[]);
        let (traceroutes, freshness) = summarize(ids.iter(), |id| self.freshness_of(id));
        PrefixSummary { prefix, traceroutes, freshness }
    }

    fn as_summary(&self, asn: Asn) -> AsSummary {
        let ids = self.corpus.by_asn.get(&asn).map(Vec::as_slice).unwrap_or(&[]);
        let (traceroutes, freshness) = summarize(ids.iter(), |id| self.freshness_of(id));
        AsSummary { asn, traceroutes, freshness }
    }

    fn plan(&self, budget: usize) -> RefreshPlan {
        let corpus = self.corpus();
        let mut cal = self.cal.clone();
        plan_refresh_impl(
            &self.active,
            &self.potential,
            &|id| corpus.get(id).map(|e| e.traceroute.probe),
            &mut cal,
            budget,
        )
    }

    fn monitor_stats(&self) -> MonitorStats {
        self.trace.stats()
    }
}

/// The shared refresh-planning body behind both the mutating
/// [`StalenessDetector::plan_refresh`] and the read-only [`Query::plan`]:
/// groups active assertions back into per-(probe, key) signals, collects
/// the quiet potential signals, and hands both to the calibrator.
pub(crate) fn plan_refresh_impl(
    active: &HashMap<TracerouteId, HashMap<Arc<SignalKey>, Vec<Community>>>,
    potential: &HashMap<TracerouteId, Vec<Arc<SignalKey>>>,
    probe_of: &dyn Fn(TracerouteId) -> Option<ProbeId>,
    cal: &mut Calibrator,
    budget: usize,
) -> RefreshPlan {
    // Group active assertions back into per-key signals (ordered for
    // deterministic planning). Only `Arc` handles move around here.
    let mut by_key: BTreeMap<Arc<SignalKey>, Vec<TracerouteId>> = BTreeMap::new();
    for (tr, per) in active {
        for key in per.keys() {
            by_key.entry(Arc::clone(key)).or_default().push(*tr);
        }
    }
    for v in by_key.values_mut() {
        v.sort_unstable();
    }
    let mut asserting = Vec::new();
    let mut stale_keys_per_probe: HashMap<ProbeId, HashSet<Arc<SignalKey>>> = HashMap::new();
    for (key, trs) in by_key {
        // Split by probe so calibration is per vantage point. Ordered: the
        // push order into `asserting` decides the order calibration draws
        // from its RNG, which must be stable across processes for
        // checkpoint/restore equivalence.
        let mut per_probe: BTreeMap<ProbeId, Vec<TracerouteId>> = BTreeMap::new();
        for tr in trs {
            if let Some(probe) = probe_of(tr) {
                per_probe.entry(probe).or_default().push(tr);
            }
        }
        for (probe, trs) in per_probe {
            stale_keys_per_probe.entry(probe).or_default().insert(key.clone());
            asserting.push(AssertingSignal {
                probe,
                signal: StalenessSignal {
                    key: key.clone(),
                    time: Timestamp(0),
                    window: Window(0),
                    score: trs.len() as f64,
                    traceroutes: trs.into(),
                    trigger_communities: Vec::new(),
                },
            });
        }
    }
    // Quiet potential signals per probe (ordered iteration).
    let mut quiet: HashMap<ProbeId, Vec<Arc<SignalKey>>> = HashMap::new();
    let mut potential_sorted: Vec<_> = potential.iter().collect();
    potential_sorted.sort_by_key(|(id, _)| **id);
    for (id, keys) in potential_sorted {
        let Some(probe) = probe_of(*id) else { continue };
        let stale = stale_keys_per_probe.get(&probe);
        for k in keys {
            if stale.is_none_or(|s| !s.contains(k)) {
                quiet.entry(probe).or_default().push(k.clone());
            }
        }
    }
    cal.plan_refresh(budget, &asserting, &quiet)
}
