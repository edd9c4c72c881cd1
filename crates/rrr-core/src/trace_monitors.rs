//! Public-traceroute staleness techniques: IP-level subpath ratios (§4.2.1)
//! and router-level ⟨AS, city⟩ border monitoring (§4.2.2).
//!
//! Both loosen "overlap" so that public traceroutes toward *any* destination
//! contribute: a public trace that traverses the monitored segment counts,
//! regardless of where it is headed. Accuracy is protected by (a) only
//! monitoring segments that cross AS boundaries and (b) acting on shifts in
//! observation *frequencies* (ratio time series with modified z-score
//! outliers), never on a single discordant traceroute.

use crate::adaptive::{AdaptiveSeries, FlushSchedule, Obs};
use crate::bgp_monitors::RevokeEvent;
use crate::corpus::CorpusEntry;
use crate::signal::{KeyInterner, SignalKey, SignalScope, StalenessSignal, Technique};
use rrr_anomaly::ModifiedZScore;
use rrr_geo::Geolocator;
use rrr_ip2as::{
    find_borders_in, hop_origins, AliasKey, AliasResolver, Border, IpOrigin, IpToAsMap, StarPatcher,
};
use rrr_store::{Decoder, Encoder, Persist, StoreError};
use rrr_topology::Topology;
use rrr_types::{Asn, CityId, FastMap, Ipv4, Timestamp, Traceroute, TracerouteId};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// How far ahead of the segment start we search for its end hop in a public
/// traceroute. Bounds matching cost; real segments are short.
const SEARCH_HORIZON: usize = 12;

/// One ratio monitor: what it watches, who it speaks for, and its series.
#[derive(Debug, Clone)]
struct Monitor<W> {
    watched: W,
    /// Interned signal identity, fixed at registration.
    key: Arc<SignalKey>,
    traceroutes: Vec<TracerouteId>,
    series: AdaptiveSeries,
    asserting: bool,
}

/// §4.2.1 monitor: an exact IP-level subpath around one border crossing.
/// Watches the expected hop sequence, first = ι_m, last = ι_n.
type SubpathMonitor = Monitor<Vec<Ipv4>>;

/// §4.2.2 monitor: which border router two ⟨AS, city⟩ locations use. Watches
/// the border router observed by the corpus traceroute (alias identity of
/// the far-side border interface); the key's [`SignalScope::CityBorder`]
/// carries the ⟨AS, city⟩ endpoints and border interface.
type BorderMonitor = Monitor<AliasKey>;

impl<W> Monitor<W> {
    fn new(watched: W, key: Arc<SignalKey>, absorb_outliers: bool) -> Self {
        Monitor {
            watched,
            key,
            traceroutes: Vec::new(),
            series: AdaptiveSeries::with_absorb_outliers(absorb_outliers),
            asserting: false,
        }
    }
}

type BorderKey = (Asn, CityId, Asn, CityId);

/// The ⟨AS, city⟩ endpoints of the segment around a border crossing
/// (Figure 5): the city where the trace *enters* the near AS and the city
/// where it *leaves* the far AS. These are stable across hot-potato egress
/// flips, so the monitored quantity — which border router connects the two
/// locations — shifts exactly when the interconnection moves.
fn segment_cities(
    tr: &Traceroute,
    origins: &[Option<IpOrigin>],
    topo: &Topology,
    geo: &mut Geolocator,
    b: &Border,
) -> Option<(CityId, CityId)> {
    let mut near_entry: Option<Ipv4> = None;
    for (h, o) in tr.hops[..=b.near_idx].iter().zip(origins) {
        if matches!(o, Some(IpOrigin::As(a)) if *a == b.near_as) {
            near_entry = h.addr;
            break;
        }
    }
    let mut far_exit: Option<Ipv4> = None;
    for (h, o) in tr.hops.iter().zip(origins).skip(b.far_idx) {
        let owned = match o {
            Some(IpOrigin::As(a)) => *a == b.far_as,
            // The crossing interface itself may sit on an IXP LAN.
            Some(IpOrigin::Ixp(_)) => h.addr == Some(b.far_ip),
            None => false,
        };
        if owned {
            far_exit = h.addr;
        }
    }
    let nc = geo.locate(topo, near_entry?)?;
    let fc = geo.locate(topo, far_exit?)?;
    Some((nc, fc))
}

/// The §4.2 monitor set.
pub struct TraceMonitors {
    subpaths: Vec<SubpathMonitor>,
    by_start: FastMap<Ipv4, Vec<usize>>,
    subpath_index: FastMap<Vec<Ipv4>, usize>,
    borders: Vec<BorderMonitor>,
    by_border_key: FastMap<BorderKey, Vec<usize>>,
    border_index: FastMap<(BorderKey, AliasKey), usize>,
    detector: ModifiedZScore,
    absorb_outliers: bool,
    /// Learns responsive hop triples and patches single stars before border
    /// extraction (Appendix A).
    patcher: StarPatcher,
    /// Canonical shared handles for every monitor's signal identity.
    interner: KeyInterner,
    /// Reverse index: (subpath, border) monitor indices each corpus
    /// traceroute registered into, so `unregister` touches only those.
    monitors_of: HashMap<TracerouteId, (Vec<usize>, Vec<usize>)>,
    /// Transient: which series the next `flush` has to visit, per family.
    /// Derived from the series, so never stored: rebuilt on load and after
    /// a delta is applied.
    subpath_sched: FlushSchedule,
    border_sched: FlushSchedule,
    /// Transient: series the last `flush` visited (observability only).
    flush_visited: usize,
    /// Transient: monitors whose series or membership changed since the
    /// last full snapshot, by index — what a delta frame carries.
    dirty_subpaths: BTreeSet<usize>,
    dirty_borders: BTreeSet<usize>,
    /// Transient: the registration indexes, interner, or reverse index
    /// changed (monitor created, corpus entry (un)registered). These maps
    /// cross-reference each other by vector index, so deltas repack them
    /// wholesale rather than risk a partial view.
    reg_dirty: bool,
    /// Transient: the star patcher learned from a trace since the last
    /// full snapshot.
    patcher_dirty: bool,
}

impl TraceMonitors {
    pub fn new(detector: ModifiedZScore) -> Self {
        Self::new_with(detector, false)
    }

    /// `absorb_outliers` disables stationarity preservation (ablation).
    pub fn new_with(detector: ModifiedZScore, absorb_outliers: bool) -> Self {
        TraceMonitors {
            subpaths: Vec::new(),
            by_start: FastMap::default(),
            subpath_index: FastMap::default(),
            borders: Vec::new(),
            by_border_key: FastMap::default(),
            border_index: FastMap::default(),
            detector,
            absorb_outliers,
            patcher: StarPatcher::new(),
            interner: KeyInterner::new(),
            monitors_of: HashMap::new(),
            subpath_sched: FlushSchedule::default(),
            border_sched: FlushSchedule::default(),
            flush_visited: 0,
            dirty_subpaths: BTreeSet::new(),
            dirty_borders: BTreeSet::new(),
            reg_dirty: false,
            patcher_dirty: false,
        }
    }

    /// Registers monitors for one corpus entry: per border crossing, an
    /// exact IP subpath monitor (one responsive hop of context on each
    /// side) and a router-level ⟨AS, city⟩ monitor. Returns the keys of
    /// the potential signals now watching the entry.
    pub fn register(
        &mut self,
        entry: &CorpusEntry,
        map: &IpToAsMap,
        topo: &Topology,
        geo: &mut Geolocator,
        alias: &AliasResolver,
    ) -> Vec<Arc<SignalKey>> {
        let hops = &entry.traceroute.hops;
        let origins = hop_origins(&entry.traceroute, map);
        let mut created = Vec::new();

        for b in &entry.borders {
            // The "crossing" into the destination host itself is not a
            // reusable border (no other traceroute shares the far hop).
            if b.far_ip == entry.traceroute.dst {
                continue;
            }
            // --- subpath monitor ---
            // Extend one responsive hop before and after when available.
            let mut m = b.near_idx;
            if let Some(prev) = hops[..b.near_idx].iter().rposition(|h| h.addr.is_some()) {
                m = prev;
            }
            let mut n = b.far_idx;
            if let Some(next) = hops[b.far_idx + 1..].iter().position(|h| h.addr.is_some()) {
                n = b.far_idx + 1 + next;
            }
            let expected: Option<Vec<Ipv4>> = hops[m..=n].iter().map(|h| h.addr).collect();
            if let Some(expected) = expected {
                if expected.len() >= 2 {
                    let idx = match self.subpath_index.get(&expected) {
                        Some(&idx) => idx,
                        None => {
                            let idx = self.subpaths.len();
                            let skey = self.interner.intern(SignalKey {
                                technique: Technique::TraceSubpath,
                                scope: SignalScope::IpSubpath { hops: expected.clone() },
                            });
                            self.by_start.entry(expected[0]).or_default().push(idx);
                            self.subpath_index.insert(expected.clone(), idx);
                            self.subpaths.push(Monitor::new(expected, skey, self.absorb_outliers));
                            self.reg_dirty = true;
                            idx
                        }
                    };
                    let mon = &mut self.subpaths[idx];
                    if !mon.traceroutes.contains(&entry.id) {
                        mon.traceroutes.push(entry.id);
                        self.monitors_of.entry(entry.id).or_default().0.push(idx);
                        self.reg_dirty = true;
                        self.dirty_subpaths.insert(idx);
                    }
                    created.push(Arc::clone(&mon.key));
                }
            }

            // --- border monitor ---
            if let Some((nc, fc)) = segment_cities(&entry.traceroute, &origins, topo, geo, b) {
                let key = (b.near_as, nc, b.far_as, fc);
                let router = alias.key(b.far_ip);
                let idx = match self.border_index.get(&(key, router)) {
                    Some(&idx) => idx,
                    None => {
                        let idx = self.borders.len();
                        let skey = self.interner.intern(SignalKey {
                            technique: Technique::TraceBorder,
                            scope: SignalScope::CityBorder {
                                near_as: b.near_as,
                                near_city: nc,
                                far_as: b.far_as,
                                far_city: fc,
                                border_ip: b.far_ip,
                            },
                        });
                        self.by_border_key.entry(key).or_default().push(idx);
                        self.border_index.insert((key, router), idx);
                        self.borders.push(Monitor::new(router, skey, self.absorb_outliers));
                        self.reg_dirty = true;
                        idx
                    }
                };
                let mon = &mut self.borders[idx];
                if !mon.traceroutes.contains(&entry.id) {
                    mon.traceroutes.push(entry.id);
                    self.monitors_of.entry(entry.id).or_default().1.push(idx);
                    self.reg_dirty = true;
                    self.dirty_borders.insert(idx);
                }
                created.push(Arc::clone(&mon.key));
            }
        }
        created
    }

    /// Removes a traceroute from the monitors it registered into — O(that
    /// traceroute's monitors) via the reverse index (empty monitors are
    /// retired from firing but keep their series state for reuse).
    pub fn unregister(&mut self, id: TracerouteId) {
        let Some((subs, bors)) = self.monitors_of.remove(&id) else { return };
        self.reg_dirty = true;
        for i in subs {
            self.subpaths[i].traceroutes.retain(|t| *t != id);
            self.dirty_subpaths.insert(i);
        }
        for i in bors {
            self.borders[i].traceroutes.retain(|t| *t != id);
            self.dirty_borders.insert(i);
        }
    }

    /// Feeds one public traceroute into every overlapping monitor.
    pub fn observe_trace(
        &mut self,
        tr: &Traceroute,
        map: &IpToAsMap,
        topo: &Topology,
        geo: &mut Geolocator,
        alias: &AliasResolver,
    ) {
        let origins = hop_origins(tr, map);
        let borders = find_borders_in(tr, &origins);
        self.observe_mapped(tr, &origins, &borders, map, topo, geo, alias);
    }

    /// [`TraceMonitors::observe_trace`] for a caller that already resolved
    /// the traceroute: `origins` are its [`hop_origins`] and `borders` its
    /// borders, both of `tr` as measured. Matching runs on the star-patched
    /// view; only hops the patcher fills in are looked up here.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn observe_mapped(
        &mut self,
        tr: &Traceroute,
        origins: &[Option<IpOrigin>],
        borders: &[Border],
        map: &IpToAsMap,
        topo: &Topology,
        geo: &mut Geolocator,
        alias: &AliasResolver,
    ) {
        // Patch single unresponsive hops with their unique known middles
        // before any matching (Appendix A), and learn from this trace.
        self.patcher.learn(tr);
        self.patcher_dirty = true;
        let patched = self.patcher.patch_stars(tr).map(|p| {
            let mut origins = origins.to_vec();
            for ((o, raw), hop) in origins.iter_mut().zip(&tr.hops).zip(&p.hops) {
                if let (None, Some(ip)) = (raw.addr, hop.addr) {
                    *o = map.lookup(ip);
                }
            }
            let borders = find_borders_in(&p, &origins);
            (p, origins, borders)
        });
        let (tr, origins, borders) = match &patched {
            Some((p, o, b)) => (p, &o[..], &b[..]),
            None => (tr, origins, borders),
        };

        // --- subpath matching ---
        let hops = &tr.hops;
        for (i, hop) in hops.iter().enumerate() {
            let Some(ip) = hop.addr else { continue };
            let Some(monitors) = self.by_start.get(&ip) else { continue };
            for &mi in monitors {
                let m = &mut self.subpaths[mi];
                let end = *m.watched.last().expect("subpaths have >= 2 hops");
                // Does this trace reach ι_n after ι_m?
                let horizon = (i + 1 + SEARCH_HORIZON).min(hops.len());
                let Some(j) = hops[i + 1..horizon].iter().position(|h| h.addr == Some(end)) else {
                    continue;
                };
                let j = i + 1 + j;
                let observed = &hops[i..=j];
                let matched = observed.len() == m.watched.len()
                    && observed
                        .iter()
                        .zip(&m.watched)
                        // unresponsive hops are wildcards, never evidence of
                        // change (Appendix A)
                        .all(|(o, e)| o.addr.is_none_or(|o| o == *e));
                let obs = Obs { time: tr.time, matched };
                self.subpath_sched.update(mi, &mut m.series, |s| s.push(obs));
                self.dirty_subpaths.insert(mi);
            }
        }

        // --- border matching ---
        for b in borders {
            let Some((nc, fc)) = segment_cities(tr, origins, topo, geo, b) else {
                continue;
            };
            let key = (b.near_as, nc, b.far_as, fc);
            let Some(monitors) = self.by_border_key.get(&key) else { continue };
            let observed_router = alias.key(b.far_ip);
            for &mi in monitors {
                let m = &mut self.borders[mi];
                let obs = Obs { time: tr.time, matched: observed_router == m.watched };
                self.border_sched.update(mi, &mut m.series, |s| s.push(obs));
                self.dirty_borders.insert(mi);
            }
        }
    }

    /// Advances the adaptive series to `now`, emitting signals for outliers
    /// and revocations for monitors whose ratio returned to its normal
    /// distribution (§4.3.2). Visits only the series a flush can do
    /// something for (`adaptive::FlushSchedule`), subpaths then borders,
    /// each in index order — the order a walk over every monitor emits in.
    pub fn flush(&mut self, now: Timestamp) -> (Vec<StalenessSignal>, Vec<RevokeEvent>) {
        let mut signals = Vec::new();
        let mut revokes = Vec::new();
        self.flush_visited = flush_due(
            &mut self.subpaths,
            &mut self.subpath_sched,
            &mut self.dirty_subpaths,
            now,
            &self.detector,
            &mut signals,
            &mut revokes,
        ) + flush_due(
            &mut self.borders,
            &mut self.border_sched,
            &mut self.dirty_borders,
            now,
            &self.detector,
            &mut signals,
            &mut revokes,
        );
        (signals, revokes)
    }

    /// The flush every other one is held against: walks every monitor of
    /// both families and sweeps every change flag, as `flush` did before
    /// it had a schedule.
    #[cfg(test)]
    fn flush_full_scan(&mut self, now: Timestamp) -> (Vec<StalenessSignal>, Vec<RevokeEvent>) {
        let mut signals = Vec::new();
        let mut revokes = Vec::new();
        let det = &self.detector;
        for (i, m) in self.subpaths.iter_mut().enumerate() {
            flush_monitor(m, &mut self.subpath_sched, i, now, det, &mut signals, &mut revokes);
        }
        for (i, m) in self.borders.iter_mut().enumerate() {
            flush_monitor(m, &mut self.border_sched, i, now, det, &mut signals, &mut revokes);
        }
        for (i, m) in self.subpaths.iter_mut().enumerate() {
            if m.series.take_changed() {
                self.dirty_subpaths.insert(i);
            }
        }
        for (i, m) in self.borders.iter_mut().enumerate() {
            if m.series.take_changed() {
                self.dirty_borders.insert(i);
            }
        }
        self.subpath_sched.take_changed();
        self.border_sched.take_changed();
        (signals, revokes)
    }

    /// Recovers the flush schedules from the series themselves.
    fn rebuild_schedules(&mut self) {
        self.subpath_sched = FlushSchedule::rebuild(self.subpaths.iter().map(|m| &m.series));
        self.border_sched = FlushSchedule::rebuild(self.borders.iter().map(|m| &m.series));
    }

    /// Series the last [`TraceMonitors::flush`] visited, of
    /// `subpath_count() + border_count()`.
    pub fn flush_visited(&self) -> usize {
        self.flush_visited
    }

    pub fn subpath_count(&self) -> usize {
        self.subpaths.len()
    }

    /// Monitor inventory per family.
    pub fn stats(&self) -> crate::query::MonitorStats {
        crate::query::MonitorStats {
            subpaths: crate::query::FamilyStats {
                total: self.subpaths.len(),
                ready: self.subpaths.iter().filter(|m| m.series.ready()).count(),
                gave_up: self.subpaths.iter().filter(|m| m.series.gave_up()).count(),
            },
            borders: crate::query::FamilyStats {
                total: self.borders.len(),
                ready: self.borders.iter().filter(|m| m.series.ready()).count(),
                gave_up: self.borders.iter().filter(|m| m.series.gave_up()).count(),
            },
        }
    }

    pub fn border_count(&self) -> usize {
        self.borders.len()
    }

    /// Serializes only the state changed since the last full snapshot:
    /// the registration pack (when membership changed), dirty monitors by
    /// index, and the patcher (when it learned). Monitor indices are
    /// stable — a delta upserts `[idx] = monitor`, appending when the
    /// index is one past the base.
    pub(crate) fn store_delta<W: std::io::Write>(
        &self,
        e: &mut Encoder<W>,
    ) -> Result<(), StoreError> {
        self.reg_dirty.store(e)?;
        if self.reg_dirty {
            self.by_start.store(e)?;
            self.subpath_index.store(e)?;
            self.by_border_key.store(e)?;
            self.border_index.store(e)?;
            self.interner.store(e)?;
            self.monitors_of.store(e)?;
        }
        e.len(self.dirty_subpaths.len())?;
        for &i in &self.dirty_subpaths {
            e.len(i)?;
            self.subpaths[i].store(e)?;
        }
        e.len(self.dirty_borders.len())?;
        for &i in &self.dirty_borders {
            e.len(i)?;
            self.borders[i].store(e)?;
        }
        self.patcher_dirty.store(e)?;
        if self.patcher_dirty {
            self.patcher.store(e)?;
        }
        Ok(())
    }

    /// Applies one delta frame on top of restored base state. Upserted
    /// monitor keys are re-interned so canonical `Arc`s stay shared; an
    /// index that would leave a gap means the delta was cut against a
    /// different base.
    pub(crate) fn apply_delta<R: std::io::Read>(
        &mut self,
        d: &mut Decoder<R>,
    ) -> Result<(), StoreError> {
        if bool::load(d)? {
            self.by_start = Persist::load(d)?;
            self.subpath_index = Persist::load(d)?;
            self.by_border_key = Persist::load(d)?;
            self.border_index = Persist::load(d)?;
            self.interner = Persist::load(d)?;
            self.monitors_of = Persist::load(d)?;
            self.reg_dirty = true;
        }
        let n = d.read_len()?;
        for _ in 0..n {
            let i = d.read_len()?;
            let mut m = SubpathMonitor::load(d)?;
            m.key = self.interner.intern((*m.key).clone());
            match i.cmp(&self.subpaths.len()) {
                std::cmp::Ordering::Less => self.subpaths[i] = m,
                std::cmp::Ordering::Equal => self.subpaths.push(m),
                std::cmp::Ordering::Greater => {
                    return Err(StoreError::DeltaChainBroken {
                        what: "subpath monitor index beyond the restored base",
                    })
                }
            }
            self.dirty_subpaths.insert(i);
        }
        let n = d.read_len()?;
        for _ in 0..n {
            let i = d.read_len()?;
            let mut m = BorderMonitor::load(d)?;
            m.key = self.interner.intern((*m.key).clone());
            match i.cmp(&self.borders.len()) {
                std::cmp::Ordering::Less => self.borders[i] = m,
                std::cmp::Ordering::Equal => self.borders.push(m),
                std::cmp::Ordering::Greater => {
                    return Err(StoreError::DeltaChainBroken {
                        what: "border monitor index beyond the restored base",
                    })
                }
            }
            self.dirty_borders.insert(i);
        }
        if bool::load(d)? {
            self.patcher = Persist::load(d)?;
            self.patcher_dirty = true;
        }
        self.rebuild_schedules();
        Ok(())
    }

    /// Resets churn tracking after a full snapshot captured everything.
    pub(crate) fn mark_clean(&mut self) {
        self.dirty_subpaths.clear();
        self.dirty_borders.clear();
        self.reg_dirty = false;
        self.patcher_dirty = false;
    }
}

impl<W: Persist> Persist for Monitor<W> {
    fn store<Wr: std::io::Write>(&self, e: &mut Encoder<Wr>) -> Result<(), StoreError> {
        self.watched.store(e)?;
        self.key.store(e)?;
        self.traceroutes.store(e)?;
        self.series.store(e)?;
        self.asserting.store(e)
    }
    fn load<R: std::io::Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        Ok(Monitor {
            watched: Persist::load(d)?,
            key: Persist::load(d)?,
            traceroutes: Persist::load(d)?,
            series: Persist::load(d)?,
            asserting: Persist::load(d)?,
        })
    }
}

// The index maps (`by_start`, `subpath_index`, `by_border_key`,
// `border_index`) reference monitors by vector index, which serialization
// preserves, so they are persisted verbatim rather than rebuilt. The flush
// schedules are not persisted at all: they follow from the series. Monitor
// keys are re-interned through the restored interner so the canonical
// `Arc`s are shared again.
impl Persist for TraceMonitors {
    fn store<W: std::io::Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        self.subpaths.store(e)?;
        self.by_start.store(e)?;
        self.subpath_index.store(e)?;
        self.borders.store(e)?;
        self.by_border_key.store(e)?;
        self.border_index.store(e)?;
        self.detector.store(e)?;
        self.absorb_outliers.store(e)?;
        self.patcher.store(e)?;
        self.interner.store(e)?;
        self.monitors_of.store(e)
    }
    fn load<R: std::io::Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        let mut monitors = TraceMonitors {
            subpaths: Persist::load(d)?,
            by_start: Persist::load(d)?,
            subpath_index: Persist::load(d)?,
            borders: Persist::load(d)?,
            by_border_key: Persist::load(d)?,
            border_index: Persist::load(d)?,
            detector: Persist::load(d)?,
            absorb_outliers: Persist::load(d)?,
            patcher: Persist::load(d)?,
            interner: Persist::load(d)?,
            monitors_of: Persist::load(d)?,
            subpath_sched: FlushSchedule::default(),
            border_sched: FlushSchedule::default(),
            flush_visited: 0,
            dirty_subpaths: BTreeSet::new(),
            dirty_borders: BTreeSet::new(),
            reg_dirty: true,
            patcher_dirty: true,
        };
        monitors.rebuild_schedules();
        for m in &mut monitors.subpaths {
            m.key = monitors.interner.intern((*m.key).clone());
        }
        for m in &mut monitors.borders {
            m.key = monitors.interner.intern((*m.key).clone());
        }
        // Conservative until proven otherwise: a freshly loaded monitor set
        // has no delta base, so everything counts as changed. `mark_clean`
        // (run by full checkpoints and restore) resets this.
        monitors.dirty_subpaths = (0..monitors.subpaths.len()).collect();
        monitors.dirty_borders = (0..monitors.borders.len()).collect();
        Ok(monitors)
    }
}

/// One monitor's flush step — shared by both monitor families and by the
/// scheduled and the full-scan flush, so every path emits the same stream.
fn flush_monitor<W>(
    m: &mut Monitor<W>,
    sched: &mut FlushSchedule,
    i: usize,
    now: Timestamp,
    det: &ModifiedZScore,
    signals: &mut Vec<StalenessSignal>,
    revokes: &mut Vec<RevokeEvent>,
) {
    let normals_before = m.series.normal_count();
    let outliers = sched.update(i, &mut m.series, |s| s.flush_until(now, det));
    if m.traceroutes.is_empty() {
        return;
    }
    if let Some(o) = outliers.last() {
        signals.push(StalenessSignal {
            key: Arc::clone(&m.key),
            time: o.time,
            window: o.window,
            score: o.score,
            traceroutes: m.traceroutes.as_slice().into(),
            trigger_communities: Vec::new(),
        });
        m.asserting = true;
    } else if m.asserting && m.series.normal_count() > normals_before {
        // A new window closed in-distribution: the monitored quantity
        // behaves as it did at issuance again (§4.3.2).
        m.asserting = false;
        revokes.push(RevokeEvent {
            key: Arc::clone(&m.key),
            traceroutes: m.traceroutes.as_slice().into(),
        });
    }
}

/// Flushes the series of one family that are due at `now`, in index order,
/// then sweeps the exact per-series change flags — of the series pushed to
/// or flushed since the last sweep; no other can be up — into the family's
/// delta dirty set. `take_changed` only reports real state mutations, so a
/// monitor that merely *held* a static sub-threshold buffer across this
/// flush is not re-serialized in the next delta. A monitor's `asserting`
/// flag only flips when a window closed, which also marks its series
/// changed, so the sweep covers it. Returns the number of series visited.
fn flush_due<W>(
    monitors: &mut [Monitor<W>],
    sched: &mut FlushSchedule,
    dirty: &mut BTreeSet<usize>,
    now: Timestamp,
    det: &ModifiedZScore,
    signals: &mut Vec<StalenessSignal>,
    revokes: &mut Vec<RevokeEvent>,
) -> usize {
    let due = sched.due(now);
    for &i in &due {
        flush_monitor(&mut monitors[i], sched, i, now, det, signals, revokes);
    }
    for i in sched.take_changed() {
        if monitors[i].series.take_changed() {
            dirty.insert(i);
        }
    }
    due.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrr_geo::GeoDb;
    use rrr_ip2as::IpToAsMap;
    use rrr_topology::{generate, TopologyConfig};
    use rrr_types::{Hop, Prefix, ProbeId};

    fn ip(s: &str) -> Ipv4 {
        s.parse().expect("valid ip")
    }

    fn trace(id: u64, t: u64, hops: &[&str]) -> Traceroute {
        Traceroute {
            id: TracerouteId(id),
            probe: ProbeId(0),
            src: ip("10.0.0.200"),
            dst: ip("10.2.0.1"),
            time: Timestamp(t),
            hops: hops.iter().map(|h| Hop::responsive(ip(h))).collect(),
            reached: true,
        }
    }

    fn map() -> IpToAsMap {
        let mut m = IpToAsMap::new();
        m.add_origin("10.0.0.0/16".parse::<Prefix>().expect("p"), Asn(100));
        m.add_origin("10.1.0.0/16".parse::<Prefix>().expect("p"), Asn(101));
        m.add_origin("10.2.0.0/16".parse::<Prefix>().expect("p"), Asn(102));
        m
    }

    /// A self-contained environment: synthetic map; geolocation database
    /// placing every test address in a fixed city; no aliases resolved (so
    /// router identity = address).
    fn env() -> (Topology, Geolocator, AliasResolver, IpToAsMap) {
        let topo = generate(&TopologyConfig::small(3));
        let mut db = GeoDb::default();
        for third in 0..3u8 {
            for last in 0..30u8 {
                db.insert(Ipv4::new(10, third, 0, last), CityId(third as u16));
            }
        }
        let geo = Geolocator::new(db, vec![]);
        let alias = AliasResolver::from_topology(&topo, 1.0, 0); // nothing resolved
        (topo, geo, alias, map())
    }

    fn corpus_entry() -> CorpusEntry {
        let mut corpus = crate::corpus::Corpus::new();
        let tr = trace(1, 0, &["10.0.0.2", "10.0.0.3", "10.1.0.1", "10.1.0.2", "10.2.0.1"]);
        let id = corpus.insert(tr, &map(), None).expect("valid").id;
        corpus.remove(id).expect("present")
    }

    #[test]
    fn registration_creates_monitors_per_border() {
        let (topo, mut geo, alias, _m) = env();
        let mut tm = TraceMonitors::new(ModifiedZScore::default());
        let entry = corpus_entry();
        assert_eq!(entry.borders.len(), 2);
        let created = tm.register(&entry, &_m, &topo, &mut geo, &alias);
        // The second border's far hop is the destination host itself and is
        // skipped (nothing else can ever observe it).
        assert_eq!(tm.subpath_count(), 1);
        assert_eq!(tm.border_count(), 1);
        assert_eq!(created.len(), 2);
        // Re-registration dedupes.
        let again = tm.register(&entry, &_m, &topo, &mut geo, &alias);
        assert_eq!(tm.subpath_count(), 1);
        assert_eq!(again.len(), 2);
    }

    /// Drives the monitors with `per_round` public traces per 15-minute
    /// round, all matching or all deviating at the first border.
    fn feed_rounds(
        tm: &mut TraceMonitors,
        env: &mut (Topology, Geolocator, AliasResolver, IpToAsMap),
        rounds: std::ops::Range<u64>,
        matching: bool,
    ) -> (Vec<StalenessSignal>, Vec<RevokeEvent>) {
        let (topo, geo, alias, m) = (&env.0, &mut env.1, &env.2, &env.3);
        let mut signals = Vec::new();
        let mut revokes = Vec::new();
        for r in rounds {
            for k in 0..3u64 {
                let t = r * 900 + k * 120;
                // Public traces to a different destination crossing the
                // same segment; deviating traces cross a different border
                // interface 10.1.0.9.
                let hops: &[&str] = if matching {
                    &["10.0.0.2", "10.0.0.3", "10.1.0.1", "10.1.0.2", "10.1.0.8"]
                } else {
                    &["10.0.0.2", "10.0.0.3", "10.1.0.9", "10.1.0.2", "10.1.0.8"]
                };
                let tr = trace(1000 + r * 10 + k, t, hops);
                tm.observe_trace(&tr, m, topo, geo, alias);
            }
            let (s, rv) = tm.flush(Timestamp((r + 1) * 900));
            signals.extend(s);
            revokes.extend(rv);
        }
        (signals, revokes)
    }

    #[test]
    fn stable_segment_never_fires_then_shift_fires() {
        let mut e = env();
        let mut tm = TraceMonitors::new(ModifiedZScore::default());
        let entry = corpus_entry();
        tm.register(&entry, &e.3, &e.0, &mut e.1, &e.2);

        let (pre, _) = feed_rounds(&mut tm, &mut e, 0..40, true);
        assert!(pre.is_empty(), "stable feed fired: {pre:?}");

        let (post, _) = feed_rounds(&mut tm, &mut e, 40..50, false);
        let sub: Vec<_> =
            post.iter().filter(|s| s.key.technique == Technique::TraceSubpath).collect();
        assert!(!sub.is_empty(), "subpath shift missed");
        assert!(sub[0].traceroutes.contains(&TracerouteId(1)));
        // Border monitor fires too: the crossing router changed (10.1.0.1 →
        // 10.1.0.9 between the same AS-city pair).
        assert!(
            post.iter().any(|s| s.key.technique == Technique::TraceBorder),
            "border shift missed: {post:?}"
        );
    }

    #[test]
    fn revert_revokes() {
        let mut e = env();
        let mut tm = TraceMonitors::new(ModifiedZScore::default());
        let entry = corpus_entry();
        tm.register(&entry, &e.3, &e.0, &mut e.1, &e.2);
        let _ = feed_rounds(&mut tm, &mut e, 0..40, true);
        let (post, _) = feed_rounds(&mut tm, &mut e, 40..46, false);
        assert!(!post.is_empty());
        let (_, revokes) = feed_rounds(&mut tm, &mut e, 46..52, true);
        assert!(
            revokes.iter().any(|r| r.key.technique == Technique::TraceSubpath),
            "revert must revoke subpath assertions"
        );
    }

    #[test]
    fn stars_are_wildcards_not_changes() {
        let mut e = env();
        let mut tm = TraceMonitors::new(ModifiedZScore::default());
        let entry = corpus_entry();
        tm.register(&entry, &e.3, &e.0, &mut e.1, &e.2);
        let _ = feed_rounds(&mut tm, &mut e, 0..40, true);
        // A matching trace with the middle hop unresponsive still matches.
        let (topo, geo, alias, m) = (&e.0, &mut e.1, &e.2, &e.3);
        let mut starred = trace(
            9999,
            40 * 900 + 10,
            &["10.0.0.2", "10.0.0.3", "10.1.0.1", "10.1.0.2", "10.1.0.8"],
        );
        starred.hops[2] = Hop::star();
        tm.observe_trace(&starred, m, topo, geo, alias);
        // Fill out the round with normal traces so the window has data.
        for k in 1..3u64 {
            let tr = trace(
                10_000 + k,
                40 * 900 + k * 120,
                &["10.0.0.2", "10.0.0.3", "10.1.0.1", "10.1.0.2", "10.1.0.8"],
            );
            tm.observe_trace(&tr, m, topo, geo, alias);
        }
        let (signals, _) = tm.flush(Timestamp(41 * 900));
        assert!(signals.is_empty(), "wildcard hop treated as change: {signals:?}");
    }

    #[test]
    fn unregistered_monitor_stops_firing() {
        let mut e = env();
        let mut tm = TraceMonitors::new(ModifiedZScore::default());
        let entry = corpus_entry();
        tm.register(&entry, &e.3, &e.0, &mut e.1, &e.2);
        let _ = feed_rounds(&mut tm, &mut e, 0..40, true);
        tm.unregister(TracerouteId(1));
        let (post, _) = feed_rounds(&mut tm, &mut e, 40..50, false);
        assert!(post.is_empty(), "unregistered monitors must not fire");
    }

    /// `step` resolves a public traceroute once and shows it to the two
    /// monitors differently: the trace monitors match on the star-patched
    /// view, the IXP monitor learns from what was measured. Here the star's
    /// one known middle is an IXP LAN address.
    #[test]
    fn patched_ixp_hop_feeds_the_border_monitor_not_ixp_membership() {
        use crate::detector::{DetectorConfig, StalenessDetector};
        use rrr_types::{IxpId, VpId};
        let (mut topo, _, alias, _) = env();
        topo.registry.ixp_members.clear();
        let mut map = IpToAsMap::new();
        for i in 0..6u32 {
            map.add_origin(format!("10.{i}.0.0/16").parse::<Prefix>().expect("p"), Asn(100 + i));
        }
        map.add_ixp_lan("11.0.0.0/20".parse::<Prefix>().expect("p"), IxpId(0));
        let mut db = GeoDb::default();
        for ip in ["10.5.0.2", "10.4.0.6", "11.0.0.7", "10.2.0.6", "10.2.0.7"] {
            db.insert(self::ip(ip), CityId(1));
        }
        let mut d = StalenessDetector::new(
            Arc::new(topo),
            map,
            Geolocator::new(db, vec![]),
            alias,
            vec![VpId(0)],
            DetectorConfig::default(),
        );
        // The corpus path enters AS 102 from AS 105 over the IXP LAN, an
        // unmapped hop before the LAN address.
        let via = |id, t, first: &str, lan: &str| {
            let mut tr = trace(id, t, &[first, "172.16.0.9", lan, "10.2.0.6", "10.2.0.7"]);
            tr.dst = ip("10.2.0.30");
            tr
        };
        d.add_corpus(via(1, 0, "10.5.0.2", "11.0.0.7"), None).expect("maps cleanly");
        assert_eq!(d.trace.border_count(), 1);

        for r in 0..30u64 {
            // AS 104 crosses the LAN hop in the open (and is learnt as a
            // member); AS 105's traces have it silent.
            let mut public = vec![via(100 + r * 10, r * 900 + 10, "10.4.0.6", "11.0.0.7")];
            for k in 1..4 {
                let mut tr = via(100 + r * 10 + k, r * 900 + 10 + k * 100, "10.5.0.2", "11.0.0.7");
                tr.hops[2] = Hop::star();
                public.push(tr);
            }
            let signals = d.step(Timestamp((r + 1) * 900), &[], &public);
            assert!(signals.is_empty(), "{signals:?}");
        }
        // Patched, every AS 105 trace crosses at the monitored LAN address:
        // ratio 1. As measured its first AS 102 hop is another router: 0.
        assert_eq!(d.trace.borders[0].series.last_normal_ratio(), Some(1.0));
        let members = d.ixp.members(IxpId(0)).expect("IXP seen");
        assert!(members.contains(&Asn(104)), "{members:?}");
        assert!(
            !members.contains(&Asn(105)),
            "a patched-in LAN hop is not a sighting: {members:?}"
        );
    }

    // ---- scheduled flush ≡ full-scan flush ----

    /// The monitored segments: (source-side hops, border hop, far-side
    /// hops). A public trace crosses segment `k` through its border hop,
    /// through `.9` of the far AS instead (a deviation), or with the border
    /// hop silent.
    const SEGMENTS: [([&str; 2], &str, [&str; 2]); 4] = [
        (["10.0.0.2", "10.0.0.3"], "10.1.0.1", ["10.1.0.2", "10.1.0.8"]),
        (["10.0.0.4", "10.0.0.5"], "10.1.0.3", ["10.1.0.4", "10.1.0.8"]),
        (["10.1.0.10", "10.1.0.11"], "10.2.0.10", ["10.2.0.11", "10.2.0.18"]),
        (["10.0.0.6", "10.0.0.7"], "10.2.0.12", ["10.2.0.13", "10.2.0.18"]),
    ];

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Crossing {
        Match,
        Deviate,
        Star,
    }

    fn crossing(id: u64, t: u64, k: usize, how: Crossing) -> Traceroute {
        let (near, border, far) = SEGMENTS[k];
        let mut tr = trace(id, t, &[near[0], near[1], border, far[0], far[1]]);
        match how {
            Crossing::Match => {}
            Crossing::Deviate => {
                let b = ip(border);
                tr.hops[2] = Hop::responsive(Ipv4::new(b.octets()[0], b.octets()[1], 0, 9));
            }
            Crossing::Star => tr.hops[2] = Hop::star(),
        }
        tr
    }

    fn segment_entry(k: usize) -> CorpusEntry {
        let mut corpus = crate::corpus::Corpus::new();
        let tr = crossing(k as u64 + 1, 0, k, Crossing::Match);
        let id = corpus.insert(tr, &map(), None).expect("valid").id;
        corpus.remove(id).expect("present")
    }

    /// One step of a flush-equivalence run.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// `rounds` 15-minute rounds, each flushed at its end, with
        /// `per_round` crossings of segment `seg` in every `every`-th (a
        /// stride above one makes for windows wider than a round).
        Rounds { seg: usize, rounds: u64, per_round: u64, every: u64, how: Crossing },
        /// Crossings stamped backwards in time and into rounds long closed.
        OutOfOrder { seg: usize, n: u64 },
        /// Nothing for `days`, then a flush.
        Silence { days: u64 },
        /// Unregisters the segment's corpus entry, or registers it back.
        Toggle { seg: usize },
        /// Full store → load.
        Restore,
        /// Delta against the last full store, applied to a reload of it.
        DeltaRestore,
    }

    fn op_from(kind: u8, seg: usize, a: u64, b: u64) -> Op {
        let how = [Crossing::Match, Crossing::Match, Crossing::Deviate, Crossing::Star];
        match kind {
            0..=7 => Op::Rounds {
                seg,
                rounds: 1 + a % 30,
                per_round: 1 + b % 5,
                every: 1,
                how: how[kind as usize % 4],
            },
            // One round's burst past the decide threshold.
            8 => Op::Rounds {
                seg,
                rounds: 1,
                per_round: 40 + b % 30,
                every: 1,
                how: Crossing::Match,
            },
            9 => Op::Rounds {
                seg,
                rounds: 40 + a % 80,
                per_round: 3,
                every: 2 + b % 2,
                how: how[b as usize % 4],
            },
            10 => Op::OutOfOrder { seg, n: 1 + a % 8 },
            11 => Op::Silence { days: 1 + a % 25 },
            12 | 13 => Op::Toggle { seg },
            14 => Op::Restore,
            _ => Op::DeltaRestore,
        }
    }

    fn stored(tm: &TraceMonitors) -> Vec<u8> {
        let mut bytes = Vec::new();
        tm.store(&mut Encoder::new(&mut bytes)).expect("vec write");
        bytes
    }

    fn stored_delta(tm: &TraceMonitors) -> Vec<u8> {
        let mut bytes = Vec::new();
        tm.store_delta(&mut Encoder::new(&mut bytes)).expect("vec write");
        bytes
    }

    fn loaded(bytes: &[u8]) -> TraceMonitors {
        let mut tm = TraceMonitors::load(&mut Decoder::new(bytes)).expect("own bytes load");
        tm.mark_clean();
        tm
    }

    /// What a run went through, so a test can tell it was not vacuous.
    #[derive(Debug, Default)]
    struct Seen {
        signals: usize,
        revokes: usize,
        gave_up: usize,
        visited: usize,
        flushes: usize,
        monitors: usize,
    }

    /// Two monitor sets fed the same ops; `a` flushes by schedule, `b` by
    /// walking everything. Compared after every flush.
    struct Pair {
        a: TraceMonitors,
        b: TraceMonitors,
        env_a: (Topology, Geolocator, AliasResolver, IpToAsMap),
        env_b: (Topology, Geolocator, AliasResolver, IpToAsMap),
        registered: [bool; SEGMENTS.len()],
        base: Option<Vec<u8>>,
        now: u64,
        next_id: u64,
        seen: Seen,
    }

    impl Pair {
        fn new() -> Pair {
            let mut p = Pair {
                a: TraceMonitors::new(ModifiedZScore::default()),
                b: TraceMonitors::new(ModifiedZScore::default()),
                env_a: env(),
                env_b: env(),
                registered: [false; SEGMENTS.len()],
                base: None,
                now: 0,
                next_id: 1000,
                seen: Seen::default(),
            };
            for seg in 0..SEGMENTS.len() {
                p.apply(Op::Toggle { seg });
            }
            p
        }

        fn observe(&mut self, t: u64, seg: usize, how: Crossing) {
            let tr = crossing(self.next_id, t, seg, how);
            self.next_id += 1;
            let (topo, geo, alias, m) = &mut self.env_a;
            self.a.observe_trace(&tr, m, topo, geo, alias);
            let (topo, geo, alias, m) = &mut self.env_b;
            self.b.observe_trace(&tr, m, topo, geo, alias);
        }

        fn flush(&mut self) {
            let now = Timestamp(self.now);
            let (sa, ra) = self.a.flush(now);
            let (sb, rb) = self.b.flush_full_scan(now);
            assert_eq!(sa, sb, "signals at {now:?}");
            let keyed = |r: &[RevokeEvent]| -> Vec<(Arc<SignalKey>, Vec<TracerouteId>)> {
                r.iter().map(|r| (Arc::clone(&r.key), r.traceroutes.to_vec())).collect()
            };
            assert_eq!(keyed(&ra), keyed(&rb), "revocations at {now:?}");
            assert_eq!(self.a.dirty_subpaths, self.b.dirty_subpaths, "dirty subpaths at {now:?}");
            assert_eq!(self.a.dirty_borders, self.b.dirty_borders, "dirty borders at {now:?}");
            assert!(stored(&self.a) == stored(&self.b), "stored bytes at {now:?}");
            assert!(stored_delta(&self.a) == stored_delta(&self.b), "delta bytes at {now:?}");
            let stats = self.a.stats();
            self.seen.signals += sa.len();
            self.seen.revokes += ra.len();
            self.seen.gave_up = stats.subpaths.gave_up + stats.borders.gave_up;
            self.seen.visited += self.a.flush_visited();
            self.seen.flushes += 1;
            self.seen.monitors = stats.subpaths.total + stats.borders.total;
        }

        fn apply(&mut self, op: Op) {
            match op {
                Op::Rounds { seg, rounds, per_round, every, how } => {
                    for r in 0..rounds {
                        for k in (0..per_round).filter(|_| r.is_multiple_of(every)) {
                            self.observe(self.now + 10 + 800 * k / per_round, seg, how);
                        }
                        self.now += 900;
                        self.flush();
                    }
                }
                Op::OutOfOrder { seg, n } => {
                    for k in 0..n {
                        let back = 850 - 100 * k + 900 * (k % 3) * 4;
                        self.observe((self.now + 900).saturating_sub(back), seg, Crossing::Match);
                    }
                    self.now += 900;
                    self.flush();
                }
                Op::Silence { days } => {
                    self.now += days * 86_400;
                    self.flush();
                }
                Op::Toggle { seg } => {
                    let entry = segment_entry(seg);
                    self.registered[seg] ^= true;
                    if !self.registered[seg] {
                        self.a.unregister(entry.id);
                        self.b.unregister(entry.id);
                    } else {
                        let (topo, geo, alias, m) = &mut self.env_a;
                        self.a.register(&entry, m, topo, geo, alias);
                        let (topo, geo, alias, m) = &mut self.env_b;
                        self.b.register(&entry, m, topo, geo, alias);
                    }
                }
                Op::Restore => {
                    let bytes = stored(&self.a);
                    self.a = loaded(&bytes);
                    self.b = loaded(&stored(&self.b));
                    self.base = Some(bytes);
                }
                Op::DeltaRestore => {
                    let Some(base) = &self.base else { return self.apply(Op::Restore) };
                    for tm in [&mut self.a, &mut self.b] {
                        let delta = stored_delta(tm);
                        *tm = loaded(base);
                        tm.apply_delta(&mut Decoder::new(&delta[..])).expect("own delta applies");
                    }
                }
            }
        }
    }

    /// A fixed run through every path of the schedule, and the proof that
    /// the property below has something to compare: windows get chosen,
    /// signals fire and are revoked, a sparse series gives up at its
    /// deadline, and the scheduled flush visits a fraction of the family.
    #[test]
    fn scheduled_flush_matches_full_scan_on_a_run_through_every_path() {
        use Crossing::*;
        let mut p = Pair::new();
        let rounds =
            |seg, rounds, per_round, how| Op::Rounds { seg, rounds, per_round, every: 1, how };
        let ops = [
            rounds(0, 30, 3, Match),
            rounds(3, 2, 1, Match),
            Op::Restore,
            rounds(0, 6, 3, Deviate),
            Op::DeltaRestore,
            rounds(0, 6, 3, Match),
            rounds(1, 1, 60, Match),
            Op::OutOfOrder { seg: 1, n: 6 },
            // Half-hour windows: one stays open over flushes that bring
            // it nothing, then closes in a round that is not its own.
            Op::Rounds { seg: 2, rounds: 100, per_round: 3, every: 2, how: Match },
            Op::Toggle { seg: 0 },
            rounds(0, 3, 3, Star),
            Op::DeltaRestore,
            Op::Silence { days: 21 },
            rounds(3, 2, 2, Match),
            rounds(2, 25, 2, Match),
        ];
        for op in ops {
            p.apply(op);
        }
        let seen = &p.seen;
        assert!(seen.signals > 0 && seen.revokes > 0 && seen.gave_up > 0, "{seen:?}");
        assert!(seen.visited > 0 && seen.visited < seen.flushes * seen.monitors / 2, "{seen:?}");
    }

    mod flush_equivalence {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Whatever is registered, observed, silenced, stored and
            /// restored in whatever order: the scheduled flush and the walk
            /// over every monitor emit the same signals and revocations
            /// and leave the same dirty sets and the same bytes, after
            /// every flush. A restore in the middle only continues the same
            /// way if the schedules are rebuilt right.
            #[test]
            fn scheduled_flush_matches_full_scan(
                ops in proptest::collection::vec(
                    (0u8..16, 0usize..SEGMENTS.len(), any::<u64>(), any::<u64>()),
                    1..40,
                ),
            ) {
                let mut p = Pair::new();
                for (kind, seg, a, b) in ops {
                    p.apply(op_from(kind, seg, a, b));
                }
            }
        }
    }
}
