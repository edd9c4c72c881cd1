//! BGP-feed staleness techniques (§4.1): AS-path overlap ratios, community
//! change tracking, and duplicate-update burst correlation.
//!
//! All three share a per-(destination prefix, traceroute AS path) monitor
//! group, registered when a corpus traceroute is inserted. The engine feeds
//! updates one at a time ([`BgpMonitors::observe`]); at the end of each
//! 15-minute window ([`BgpMonitors::close_window`]) the time series advance
//! and signals fire. Both run on the calling thread.
//!
//! Ingestion state is partitioned into `NUM_SHARDS` (32) prefix shards, each
//! owning its slice of the RIB mirror, the open-window sample log, and the
//! intern arenas for AS paths and community sets. A shard is fully
//! determined by an update's prefix. The shards are the checkpoint layout:
//! each one's section and its arenas' dense ids are stored as they are.
//!
//! Window closes are *churn-proportional*: window samples exist only for
//! monitored prefixes, so the sample keys taken at close time name exactly
//! the groups that saw input ("dirty" groups). Quiet groups run against a
//! frozen RIB, and once every series of a quiet group is provably inert —
//! its next pushes are guaranteed `Normal` verdicts that cannot fire or
//! revoke anything — the group *parks*: subsequent quiet closes skip it
//! entirely, and the deferred windows are replayed in closed form
//! ([`MonitoredSeries::advance_constant`]) when input returns. The emitted
//! signal/revocation streams and the materialized state are bit-identical
//! to the full scan.

use crate::signal::{KeyInterner, SignalKey, SignalScope, StalenessSignal, Technique};
use rrr_anomaly::{BitmapDetector, MonitoredSeries, SeriesVerdict};
use rrr_store::{Decoder, Encoder, Persist, StoreError};
use rrr_types::{
    community, Arena, ArenaId, AsPath, Asn, BgpElem, BgpUpdate, Community, FastMap, FastSet,
    Prefix, Timestamp, TracerouteId, VpId, Window,
};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// Interned handle for a (stripped) AS path within one shard's arena.
type PathId = ArenaId<AsPath>;
/// Interned handle for a community set within one shard's arena.
type CommsId = ArenaId<Vec<Community>>;
/// Final value per dirtied RIB key (`None` = withdrawn) in a delta frame.
type RibDeltaOps = Vec<((VpId, Prefix), Option<(PathId, CommsId)>)>;
/// Canonically serialized monitor groups: (key bytes, group bytes) pairs.
type CanonicalGroupBytes = Vec<(Vec<u8>, Vec<u8>)>;

/// Number of ingestion shards. Part of the checkpoint layout: every shard is
/// stored as its own section, and its arena ids are dense per shard.
const NUM_SHARDS: usize = 32;

/// The shard owning a prefix: a fixed multiplicative hash, deterministic
/// across runs (unlike `HashMap`'s seeded hasher).
#[inline]
fn shard_of(prefix: Prefix) -> usize {
    let h = prefix
        .network()
        .value()
        .wrapping_mul(0x9E37_79B1)
        .wrapping_add(u32::from(prefix.len()).wrapping_mul(0x85EB_CA77));
    (h >> 27) as usize % NUM_SHARDS
}

/// A monitor group key: one destination prefix and one traceroute AS path.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct GroupKey {
    dst_prefix: Prefix,
    as_path: Vec<Asn>,
}

/// §4.1.2 per-intersection state.
#[derive(Debug, Clone)]
struct AsPathJ {
    /// Index of `a_j` in the traceroute AS path.
    j: usize,
    /// Interned signal identity, fixed at registration.
    key: Arc<SignalKey>,
    /// VPs whose BGP path first intersected the traceroute at `a_j` when
    /// the monitor was registered — the fixed population that keeps VP
    /// churn out of the series (§4.1.2).
    vps0: BTreeSet<VpId>,
    series: MonitoredSeries,
    /// Ratio at registration (revocation reference, §4.3.2).
    ref_ratio: f64,
    asserting: bool,
}

/// §4.1.4 per-suffix state.
#[derive(Debug, Clone)]
struct BurstJ {
    /// Interned signal identity, fixed at registration; its scope carries
    /// the monitored suffix `tau[j..]`.
    key: Arc<SignalKey>,
    /// VPs sharing the suffix at registration.
    v0: BTreeSet<VpId>,
    /// Confounder ASes: on ≥2 member VPs' paths but not on the traceroute,
    /// with the set of *all* VPs traversing them toward the destination
    /// (minus those sharing the full suffix).
    confounders: BTreeMap<Asn, BTreeSet<VpId>>,
    /// Which confounder ASes each member VP's path traverses.
    member_confounders: BTreeMap<VpId, BTreeSet<Asn>>,
    u_series: MonitoredSeries,
    u_prime: BTreeMap<Asn, MonitoredSeries>,
    asserting: bool,
}

/// §4.1.3 state (per group).
#[derive(Debug, Clone)]
struct CommState {
    /// Interned signal identity, fixed at registration.
    key: Arc<SignalKey>,
    /// VPs whose path overlapped some suffix of the traceroute at
    /// registration.
    vps: BTreeSet<VpId>,
    /// Reference: per VP, the per-traceroute-AS community sets at
    /// registration (revocation target).
    reference: BTreeMap<VpId, BTreeSet<Community>>,
    asserting: bool,
}

/// State of a parked group: the close at which it was last really
/// evaluated, plus the frozen per-monitor §4.1.2 values needed to replay
/// the skipped quiet closes in closed form at unpark time. (Burst series
/// need no stored values: a quiet window carries no duplicates, so every
/// burst-side push is exactly `Some(0.0)`.)
#[derive(Debug, Clone)]
struct ParkState {
    /// Value of the close counter at the close where the group parked.
    since: u64,
    /// §4.1.2 value per `aspath` monitor under the frozen RIB.
    aspath_vals: Vec<Option<f64>>,
}

struct Group {
    key: GroupKey,
    traceroutes: Vec<TracerouteId>,
    aspath: Vec<AsPathJ>,
    bursts: Vec<BurstJ>,
    comm: CommState,
    /// Pending community-change signals for the open window, folded in from
    /// the owning shard when the window closes.
    pending_comm: Vec<Vec<Community>>,
    /// `Some` while parked: quiet and provably inert, skipped at close.
    park: Option<ParkState>,
    /// Transient: this group's prefix saw window samples or pending
    /// community changes in the closing window. Set and cleared inside
    /// [`BgpMonitors::close_window`].
    dirty_window: bool,
    /// Transient cache of the quiet-close §4.1.2 values (pure functions of
    /// the frozen RIB); invalidated whenever the group is dirty.
    quiet_vals: Option<Vec<Option<f64>>>,
    /// Transient shared handle to `traceroutes` so signal emission clones
    /// an `Arc`, not the vector; invalidated on (un)registration.
    shared: Option<Arc<[TracerouteId]>>,
}

/// Per-(vp, prefix) samples observed in the open window: the standing path
/// at window start plus each update's path, run-length encoded over
/// interned path ids (`None` = withdrawn/absent). Identical consecutive
/// announcements — the dominant §4.1.4 duplicate load — collapse into one
/// run, so window memory stays proportional to path *changes*.
///
/// The first run lives inline. Nearly every row of a window is that run
/// alone — the standing path, re-announced or withdrawn once — and a heap
/// vector or two per row per window was the largest single cost of feeding
/// an update.
#[derive(Debug, Clone)]
struct WindowSamples {
    first: (Option<PathId>, u32),
    /// The runs after `first`.
    rest: Vec<(Option<PathId>, u32)>,
    /// Number of duplicate announcements.
    duplicates: u32,
    /// Running observe-time aggregate of the runs: total samples per
    /// *distinct* path, in first-seen order — kept only once there is more
    /// than one run (read it through [`WindowSamples::counts`]). Window
    /// close sums §4.1.2 contributions over it — one path evaluation per
    /// distinct path even when runs alternate (A,B,A,B…). Derived state:
    /// rebuilt from the runs on load, never persisted.
    counts: Vec<(Option<PathId>, u32)>,
}

impl WindowSamples {
    fn starting(path: Option<PathId>) -> Self {
        WindowSamples { first: (path, 1), rest: Vec::new(), duplicates: 0, counts: Vec::new() }
    }

    fn push(&mut self, path: Option<PathId>) {
        if self.rest.is_empty() {
            if self.first.0 == path {
                self.first.1 += 1;
                return;
            }
            self.counts.push(self.first);
        }
        match self.rest.last_mut() {
            Some((p, n)) if *p == path => *n += 1,
            _ => self.rest.push((path, 1)),
        }
        Self::tally(&mut self.counts, path, 1);
    }

    /// Adds `n` samples of `path` to per-distinct-path totals. Distinct
    /// paths per (vp, prefix, window) are few; a linear scan beats hashing
    /// at this size.
    fn tally(counts: &mut Vec<(Option<PathId>, u32)>, path: Option<PathId>, n: u32) {
        match counts.iter_mut().find(|(p, _)| *p == path) {
            Some((_, total)) => *total += n,
            None => counts.push((path, n)),
        }
    }

    fn runs(&self) -> impl Iterator<Item = &(Option<PathId>, u32)> {
        std::iter::once(&self.first).chain(&self.rest)
    }

    /// Total samples per distinct path, in first-seen order.
    fn counts(&self) -> &[(Option<PathId>, u32)] {
        if self.rest.is_empty() {
            std::slice::from_ref(&self.first)
        } else {
            &self.counts
        }
    }
}

/// One prefix's rows of a window, sorted by VP.
type PrefixRows = Vec<(VpId, WindowSamples)>;

/// One VP's row among a prefix's.
fn samples_of(rows: &[(VpId, WindowSamples)], vp: VpId) -> Option<&WindowSamples> {
    rows.binary_search_by_key(&vp, |&(v, _)| v).ok().map(|i| &rows[i].1)
}

/// One shard's open window, grouped by prefix as the updates land: window
/// close reads a group's whole prefix at once, so it finds the rows with
/// one probe and a VP's row among them with a search over a dozen ids, and
/// the map's keys *are* the prefixes that saw input.
#[derive(Debug, Default)]
struct OpenWindow {
    rows: FastMap<Prefix, PrefixRows>,
}

impl OpenWindow {
    /// The row of `(vp, prefix)`, created holding `standing` — the route
    /// before the update that opens it.
    fn row(&mut self, vp: VpId, prefix: Prefix, standing: Option<PathId>) -> &mut WindowSamples {
        let rows = self.rows.entry(prefix).or_default();
        let at = match rows.binary_search_by_key(&vp, |&(v, _)| v) {
            Ok(at) => at,
            Err(at) => {
                rows.insert(at, (vp, WindowSamples::starting(standing)));
                at
            }
        };
        &mut rows[at].1
    }

    fn iter(&self) -> impl Iterator<Item = ((VpId, Prefix), &WindowSamples)> {
        self.rows.iter().flat_map(|(&p, rows)| rows.iter().map(move |(vp, ws)| ((*vp, p), ws)))
    }
}

/// One ingestion shard: the slice of mutable per-update state owned by the
/// prefixes hashing to it. Everything [`BgpMonitors::observe`] writes lives
/// here, and every cross-vantage-point read during ingestion (§4.1.3's
/// guard 2, duplicate detection) stays within the update's own prefix —
/// hence within one shard.
#[derive(Debug, Default)]
struct IngestShard {
    /// RIB mirror partition: interned (path, communities) per (vp, prefix).
    rib: FastMap<(VpId, Prefix), (PathId, CommsId)>,
    /// Open-window sample partition.
    window: OpenWindow,
    /// Arena for stripped AS paths announced toward this shard's prefixes.
    paths: Arena<AsPath>,
    /// Arena for community sets.
    comms: Arena<Vec<Community>>,
    /// §4.1.3 changes detected during the open window, per group, in
    /// arrival order; drained into `Group::pending_comm` at window close.
    pending_comm: HashMap<GroupKey, Vec<Vec<Community>>>,
    /// Reusable stripping buffer.
    strip_scratch: AsPath,
    /// Transient delta-checkpoint tracking: RIB keys written (inserted,
    /// replaced, or removed — possibly as no-ops) since the last full
    /// snapshot base. Over-approximation is fine. Hashed, since every
    /// update lands here; [`BgpMonitors::store_delta`] sorts it.
    dirty_rib: FastSet<(VpId, Prefix)>,
    /// Arena lengths at the last full snapshot base; items past these
    /// indices form the delta tails.
    paths_base: usize,
    comms_base: usize,
    /// Reference switch for the equivalence test: take neither shortcut of
    /// [`shard_observe`] — strip, intern and write every announcement, and
    /// run §4.1.3 on every monitored one.
    #[cfg(test)]
    reference: bool,
}

impl IngestShard {
    fn rib_resolved(&self, vp: VpId, prefix: Prefix) -> Option<(&AsPath, &Vec<Community>)> {
        self.rib.get(&(vp, prefix)).map(|&(p, c)| (self.paths.get(p), self.comms.get(c)))
    }
}

/// A request to revoke previous assertions of a monitor (§4.3.2).
#[derive(Debug, Clone)]
pub struct RevokeEvent {
    pub key: Arc<SignalKey>,
    pub traceroutes: Arc<[TracerouteId]>,
}

/// The §4.1 monitor set.
pub struct BgpMonitors {
    /// Ordered so per-window signal emission is deterministic.
    groups: BTreeMap<GroupKey, Group>,
    /// Groups indexed by destination prefix for update routing.
    by_prefix: FastMap<Prefix, Vec<GroupKey>>,
    /// Sharded per-update state: RIB mirror, window samples, intern arenas.
    shards: Vec<IngestShard>,
    /// ASNs to strip from AS paths before any comparison (IXP route
    /// servers, §4.1.1).
    strip_asns: Vec<Asn>,
    detector: BitmapDetector,
    absorb_outliers: bool,
    /// Canonical shared handles for every monitor's signal identity.
    interner: KeyInterner,
    /// Reverse index: the groups each corpus traceroute registered into,
    /// so `unregister` touches only those groups.
    groups_of: HashMap<TracerouteId, Vec<GroupKey>>,
    /// Total number of window closes performed — the clock parked groups'
    /// `ParkState::since` is measured against. Persisted so parked groups
    /// survive a checkpoint/restore cycle.
    closes: u64,
    /// Runtime switch for the incremental (parked) close path; disabling
    /// it materializes all deferred state and reverts to the full scan.
    park_enabled: bool,
    /// Transient delta-checkpoint tracking: groups whose monitor state
    /// mutated since the last full snapshot base.
    delta_groups: BTreeSet<GroupKey>,
    /// Transient: a (de)registration happened since the last full snapshot
    /// base, so the registration indexes must ride the next delta whole.
    delta_reg: bool,
}

impl BgpMonitors {
    pub fn new(strip_asns: Vec<Asn>, detector: BitmapDetector) -> Self {
        Self::new_with(strip_asns, detector, false)
    }

    /// `absorb_outliers` disables stationarity preservation (ablation).
    pub fn new_with(strip_asns: Vec<Asn>, detector: BitmapDetector, absorb_outliers: bool) -> Self {
        BgpMonitors {
            groups: BTreeMap::new(),
            by_prefix: FastMap::default(),
            shards: (0..NUM_SHARDS).map(|_| IngestShard::default()).collect(),
            strip_asns,
            detector,
            absorb_outliers,
            interner: KeyInterner::new(),
            groups_of: HashMap::new(),
            closes: 0,
            park_enabled: true,
            delta_groups: BTreeSet::new(),
            delta_reg: false,
        }
    }

    /// Enables or disables the incremental (parked) close path. Disabling
    /// materializes all deferred state so subsequent closes run the
    /// original full scan; the emitted signal stream is identical either
    /// way.
    pub fn set_incremental(&mut self, enabled: bool) {
        self.park_enabled = enabled;
        if !enabled {
            self.materialize_all();
        }
    }

    /// Brings every parked group fully up to date by replaying its skipped
    /// quiet closes in closed form. Required before any whole-state read
    /// that must match the full-scan reference byte for byte (full
    /// checkpoints), and before mutating the RIB outside the observe path.
    pub fn materialize_all(&mut self) {
        let closes = self.closes;
        for (gk, g) in self.groups.iter_mut() {
            if g.park.is_some() {
                unpark_group(g, closes);
                self.delta_groups.insert(gk.clone());
            }
        }
    }

    /// Number of currently parked groups (for tests/stats).
    pub fn parked_count(&self) -> usize {
        self.groups.values().filter(|g| g.park.is_some()).count()
    }

    /// The most values any BGP series stores: each AS-path monitor's, and
    /// each burst monitor's `u` and `u'` series.
    pub(crate) fn longest_series(&self) -> usize {
        let lens = self.groups.values().flat_map(|g| {
            let aspath = g.aspath.iter().map(|m| &m.series);
            let bursts = g
                .bursts
                .iter()
                .flat_map(|b| std::iter::once(&b.u_series).chain(b.u_prime.values()));
            aspath.chain(bursts).map(|s| s.history().len())
        });
        lens.max().unwrap_or(0)
    }

    /// A series keeps only the tail its detector scores (at least one value,
    /// the least a series holds).
    fn new_series(&self) -> MonitoredSeries {
        MonitoredSeries::new(self.detector.tail_len().max(1))
            .with_absorb_outliers(self.absorb_outliers)
    }

    /// Initializes the RIB mirror from a table dump, without generating
    /// window samples.
    pub fn init_rib(&mut self, rib: &[BgpUpdate]) {
        // A table dump mutates the RIB without leaving window samples, so
        // the frozen-input premise behind parked groups and cached quiet
        // values no longer holds: materialize and invalidate first.
        self.materialize_all();
        for g in self.groups.values_mut() {
            g.quiet_vals = None;
        }
        for u in rib {
            if let BgpElem::Announce { path, communities } = &u.elem {
                let shard = &mut self.shards[shard_of(u.prefix)];
                let mut stripped = std::mem::take(&mut shard.strip_scratch);
                path.stripped_into(&self.strip_asns, &mut stripped);
                let pid = shard.paths.intern(&stripped);
                shard.strip_scratch = stripped;
                let cid = shard.comms.intern(communities);
                shard.rib.insert((u.vp, u.prefix), (pid, cid));
                shard.dirty_rib.insert((u.vp, u.prefix));
            }
        }
    }

    fn current_path(&self, vp: VpId, prefix: Prefix) -> Option<&AsPath> {
        let shard = &self.shards[shard_of(prefix)];
        shard.rib.get(&(vp, prefix)).map(|&(p, _)| shard.paths.get(p))
    }

    /// Registers monitors for one corpus traceroute, returning the keys of
    /// every potential signal now watching it (used by §4.3.1 calibration
    /// as the TN/FN population).
    ///
    /// `vps` is the full set of collector peers; the current RIB mirror
    /// determines each monitor's fixed VP population.
    pub fn register(
        &mut self,
        id: TracerouteId,
        dst_prefix: Prefix,
        as_path: &[Asn],
        vps: &[VpId],
    ) -> Vec<Arc<SignalKey>> {
        let key = GroupKey { dst_prefix, as_path: as_path.to_vec() };
        if let Some(g) = self.groups.get_mut(&key) {
            if !g.traceroutes.contains(&id) {
                g.traceroutes.push(id);
                g.shared = None;
                self.groups_of.entry(id).or_default().push(key.clone());
                self.delta_groups.insert(key.clone());
                self.delta_reg = true;
            }
            return Self::group_keys(g);
        }

        // Classify each VP's current path against the traceroute.
        let mut first_int: BTreeMap<usize, BTreeSet<VpId>> = BTreeMap::new();
        let mut suffix_share: BTreeMap<usize, BTreeSet<VpId>> = BTreeMap::new();
        let mut overlapping: BTreeSet<VpId> = BTreeSet::new();
        let mut vp_paths: BTreeMap<VpId, AsPath> = BTreeMap::new();
        for &vp in vps {
            let Some(p) = self.current_path(vp, dst_prefix) else { continue };
            if let Some(j) = p.first_intersection(as_path) {
                first_int.entry(j).or_default().insert(vp);
                overlapping.insert(vp);
                for jj in j..as_path.len() {
                    if p.suffix_matches(as_path, jj) {
                        suffix_share.entry(jj).or_default().insert(vp);
                    }
                }
                vp_paths.insert(vp, p.clone());
            }
        }

        // §4.1.2 monitors: one per intersection index with any VPs.
        let mut aspath = Vec::new();
        for (&j, vps0) in &first_int {
            let matched = vps0
                .iter()
                .filter(|vp| vp_paths.get(vp).is_some_and(|p| p.suffix_matches(as_path, j)))
                .count();
            let skey = self.interner.intern(SignalKey {
                technique: Technique::BgpAsPath,
                scope: SignalScope::AsSuffix { dst_prefix, suffix: as_path[j..].to_vec() },
            });
            aspath.push(AsPathJ {
                j,
                key: skey,
                vps0: vps0.clone(),
                series: self.new_series(),
                ref_ratio: matched as f64 / vps0.len() as f64,
                asserting: false,
            });
        }

        // §4.1.4 monitors: one per suffix with ≥2 sharing VPs.
        let mut bursts = Vec::new();
        for (&j, v0) in &suffix_share {
            if v0.len() < 2 {
                continue;
            }
            // Confounders: ASes on member paths, not on the traceroute,
            // appearing on ≥2 member paths.
            let mut counts: BTreeMap<Asn, BTreeSet<VpId>> = BTreeMap::new();
            for vp in v0 {
                for a in vp_paths[vp].deduped().iter() {
                    if !as_path.contains(&a) {
                        counts.entry(a).or_default().insert(*vp);
                    }
                }
            }
            let confounder_asns: BTreeSet<Asn> =
                counts.iter().filter(|(_, s)| s.len() >= 2).map(|(a, _)| *a).collect();
            // W^{k,d}: all VPs traversing a_k toward d but not sharing the
            // full suffix.
            let mut confounders = BTreeMap::new();
            for &a_k in &confounder_asns {
                let mut w = BTreeSet::new();
                for &vp in vps {
                    if v0.contains(&vp) {
                        continue;
                    }
                    if let Some(p) = self.current_path(vp, dst_prefix) {
                        if p.contains(a_k) {
                            w.insert(vp);
                        }
                    }
                }
                if !w.is_empty() {
                    confounders.insert(a_k, w);
                }
            }
            let member_confounders = v0
                .iter()
                .map(|vp| {
                    let set: BTreeSet<Asn> = vp_paths[vp]
                        .deduped()
                        .iter()
                        .filter(|a| confounders.contains_key(a))
                        .collect();
                    (*vp, set)
                })
                .collect();
            let u_prime = confounders.keys().map(|a| (*a, self.new_series())).collect();
            let skey = self.interner.intern(SignalKey {
                technique: Technique::BgpBurst,
                scope: SignalScope::AsSuffix { dst_prefix, suffix: as_path[j..].to_vec() },
            });
            bursts.push(BurstJ {
                key: skey,
                v0: v0.clone(),
                confounders,
                member_confounders,
                u_series: self.new_series(),
                u_prime,
                asserting: false,
            });
        }

        // §4.1.3 reference state.
        let mut reference = BTreeMap::new();
        for &vp in &overlapping {
            reference.insert(vp, self.tau_communities(vp, dst_prefix, as_path));
        }
        let comm_key = self.interner.intern(SignalKey {
            technique: Technique::BgpCommunity,
            scope: SignalScope::AsSuffix { dst_prefix, suffix: as_path.to_vec() },
        });
        let comm = CommState { key: comm_key, vps: overlapping, reference, asserting: false };

        self.by_prefix.entry(dst_prefix).or_default().push(key.clone());
        self.groups_of.entry(id).or_default().push(key.clone());
        self.delta_groups.insert(key.clone());
        self.delta_reg = true;
        let group = Group {
            key: key.clone(),
            traceroutes: vec![id],
            aspath,
            bursts,
            comm,
            pending_comm: Vec::new(),
            park: None,
            dirty_window: false,
            quiet_vals: None,
            shared: None,
        };
        let keys = Self::group_keys(&group);
        self.groups.insert(key, group);
        keys
    }

    /// The potential-signal keys of one monitor group — `Arc` clones of
    /// the interned keys fixed at registration.
    fn group_keys(g: &Group) -> Vec<Arc<SignalKey>> {
        let mut keys = Vec::with_capacity(g.aspath.len() + g.bursts.len() + 1);
        keys.extend(g.aspath.iter().map(|m| Arc::clone(&m.key)));
        keys.extend(g.bursts.iter().map(|b| Arc::clone(&b.key)));
        keys.push(Arc::clone(&g.comm.key));
        keys
    }

    /// Removes a traceroute from the groups it registered into — O(that
    /// traceroute's groups) via the reverse index, not O(all groups).
    /// Groups left with no traceroutes are kept alive: their time series
    /// stay warm, so a refresh that re-measures the same path re-attaches
    /// to calibrated monitors instead of restarting the 20-window
    /// eligibility clock.
    pub fn unregister(&mut self, id: TracerouteId) {
        let gks = self.groups_of.remove(&id).unwrap_or_default();
        if gks.is_empty() {
            return;
        }
        self.delta_reg = true;
        for gk in gks {
            if let Some(g) = self.groups.get_mut(&gk) {
                g.traceroutes.retain(|t| *t != id);
                g.shared = None;
            }
            self.delta_groups.insert(gk);
        }
    }

    /// Communities relevant to a traceroute on a VP's current route: those
    /// defined by ASes on the traceroute path.
    fn tau_communities(&self, vp: VpId, prefix: Prefix, as_path: &[Asn]) -> BTreeSet<Community> {
        let shard = &self.shards[shard_of(prefix)];
        match shard.rib.get(&(vp, prefix)) {
            Some(&(_, cid)) => shard
                .comms
                .get(cid)
                .iter()
                .filter(|c| as_path.contains(&c.asn()))
                .copied()
                .collect(),
            None => BTreeSet::new(),
        }
    }

    /// Feeds one update into the open window.
    pub fn observe(&mut self, u: &BgpUpdate) {
        shard_observe(
            &mut self.shards[shard_of(u.prefix)],
            &self.groups,
            &self.by_prefix,
            &self.strip_asns,
            u,
        );
    }

    /// Test/diagnostic view of the RIB mirror with interned handles
    /// resolved to owned values.
    pub fn rib_snapshot(&self) -> BTreeMap<(VpId, Prefix), (AsPath, Vec<Community>)> {
        let mut out = BTreeMap::new();
        for shard in &self.shards {
            for (&k, &(pid, cid)) in &shard.rib {
                out.insert(k, (shard.paths.get(pid).clone(), shard.comms.get(cid).clone()));
            }
        }
        out
    }

    /// Test/diagnostic view of the open window: run-length-expanded sample
    /// paths and duplicate counts per (vp, prefix).
    #[allow(clippy::type_complexity)]
    pub fn window_snapshot(&self) -> BTreeMap<(VpId, Prefix), (Vec<Option<AsPath>>, u32)> {
        let mut out = BTreeMap::new();
        for shard in &self.shards {
            for (k, ws) in shard.window.iter() {
                let mut paths = Vec::new();
                for &(pid, n) in ws.runs() {
                    for _ in 0..n {
                        paths.push(pid.map(|p| shard.paths.get(p).clone()));
                    }
                }
                out.insert(k, (paths, ws.duplicates));
            }
        }
        out
    }

    /// Closes the current window: advances all series, emits signals and
    /// revocations in deterministic group order. `comm_allowed` filters
    /// communities through the calibration pruning of Appendix B.
    pub fn close_window(
        &mut self,
        window: Window,
        time: Timestamp,
        comm_allowed: &dyn Fn(Community, Prefix) -> bool,
    ) -> (Vec<StalenessSignal>, Vec<RevokeEvent>) {
        // Fold the shards' pending §4.1.3 changes into their groups. Each
        // group is owned by exactly one shard (its prefix's), so per-group
        // ordering is the shard's arrival order regardless of how the
        // shard maps iterate. A pending change also marks the group dirty:
        // it must run the full evaluation this close.
        let closes = self.closes;
        for shard in &mut self.shards {
            for (gk, items) in shard.pending_comm.drain() {
                if let Some(g) = self.groups.get_mut(&gk) {
                    g.pending_comm.extend(items);
                    mark_dirty(g, closes);
                }
            }
        }
        let samples: Vec<FastMap<Prefix, PrefixRows>> =
            self.shards.iter_mut().map(|s| std::mem::take(&mut s.window.rows)).collect();

        // Dirty-set derivation: window rows are created only for monitored
        // prefixes (both the announce and withdraw branches of ingestion),
        // so the taken keys name exactly the prefixes whose groups saw
        // input this window. Every other group ran against a frozen RIB.
        // Cost is proportional to churn, not corpus size. A dirty parked
        // group is unparked on the spot: the quiet closes it skipped are
        // replayed in closed form, then the normal close path runs on the
        // fresh samples.
        for p in samples.iter().flat_map(|m| m.keys()) {
            for gk in self.by_prefix.get(p).map(Vec::as_slice).unwrap_or(&[]) {
                if let Some(g) = self.groups.get_mut(gk) {
                    mark_dirty(g, closes);
                }
            }
        }

        let ctx = CloseCtx {
            window,
            time,
            det: self.detector,
            shards: &self.shards,
            samples: &samples,
            comm_allowed,
            park: self.park_enabled,
            close_seq: closes + 1,
        };

        // Parked groups are skipped outright. Filtering a sorted BTreeMap
        // iteration yields a subsequence of the full-scan evaluation order,
        // and parked groups provably emit nothing, so the concatenated
        // output stream is unchanged. (Which quiet groups are still awake
        // is not something the dirty set knows, so this one scan stays.)
        let mut signals = Vec::new();
        let mut revokes = Vec::new();
        for g in self.groups.values_mut().filter(|g| g.park.is_none()) {
            close_group(g, &ctx, &mut signals, &mut revokes);
            // Every group evaluated this close — including one that parked
            // at its end — mutated series state; record it for delta
            // checkpoints. Between two cuts all but the first close find the
            // key there.
            if !self.delta_groups.contains(&g.key) {
                self.delta_groups.insert(g.key.clone());
            }
        }
        self.closes += 1;
        (signals, revokes)
    }

    /// Number of registered monitor groups (for tests/stats).
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Trigger communities of the last window's community signals are folded
    /// into the signal score; expose per-group assertion state for tests.
    pub fn comm_asserting(&self, dst_prefix: Prefix, as_path: &[Asn]) -> bool {
        self.groups
            .get(&GroupKey { dst_prefix, as_path: as_path.to_vec() })
            .map(|g| g.comm.asserting)
            .unwrap_or(false)
    }

    /// Serializes everything that changed since [`BgpMonitors::mark_clean`]
    /// last established a full-snapshot base: per-shard RIB write-backs and
    /// arena tails, the open-window state, registration indexes (only when
    /// a (de)registration happened), and the mutated monitor groups.
    ///
    /// Deltas are cumulative since the base, so applying the latest delta
    /// to a restored base reproduces the current state exactly.
    pub(crate) fn store_delta<W: std::io::Write>(
        &self,
        e: &mut Encoder<W>,
    ) -> Result<(), StoreError> {
        for shard in &self.shards {
            // Final value per dirtied RIB key (`None` = withdrawn), in key
            // order whatever order the dirty set iterates in.
            let mut ops: RibDeltaOps =
                shard.dirty_rib.iter().map(|&k| (k, shard.rib.get(&k).copied())).collect();
            ops.sort_unstable_by_key(|&(k, _)| k);
            ops.store(e)?;
            // Open-window state rides whole: it is churn-proportional by
            // construction (samples exist only where updates landed).
            shard.window.store(e)?;
            shard.pending_comm.store(e)?;
            // Arena tails: values interned past the base, in insertion
            // order, so re-interning on the base reproduces the same dense
            // ids the RIB ops reference.
            let paths_tail: Vec<AsPath> = (shard.paths_base..shard.paths.len())
                .map(|i| shard.paths.get(PathId::from_index(i as u32)).clone())
                .collect();
            paths_tail.store(e)?;
            let comms_tail: Vec<Vec<Community>> = (shard.comms_base..shard.comms.len())
                .map(|i| shard.comms.get(CommsId::from_index(i as u32)).clone())
                .collect();
            comms_tail.store(e)?;
            shard.paths.len().store(e)?;
            shard.comms.len().store(e)?;
        }
        self.delta_reg.store(e)?;
        if self.delta_reg {
            self.by_prefix.store(e)?;
            self.groups_of.store(e)?;
            self.interner.store(e)?;
        }
        // Mutated groups, upserted whole (wire-identical to a
        // `Vec<(GroupKey, Group)>`). Groups are never removed, so upserts
        // cover every possible group mutation.
        e.len(self.delta_groups.len())?;
        for gk in &self.delta_groups {
            let g = self.groups.get(gk).expect("delta-dirty group exists");
            gk.store(e)?;
            g.store(e)?;
        }
        self.closes.store(e)
    }

    /// Applies one [`BgpMonitors::store_delta`] payload on top of the base
    /// state it was built from. Idempotent (re-applying reaches the same
    /// state), and re-marks everything it touched as delta-dirty so the
    /// applied-to detector can itself cut further deltas against the same
    /// base.
    pub(crate) fn apply_delta<R: std::io::Read>(
        &mut self,
        d: &mut Decoder<R>,
    ) -> Result<(), StoreError> {
        for shard in self.shards.iter_mut() {
            let ops: RibDeltaOps = Persist::load(d)?;
            shard.window = Persist::load(d)?;
            shard.pending_comm = Persist::load(d)?;
            let paths_tail: Vec<AsPath> = Persist::load(d)?;
            let comms_tail: Vec<Vec<Community>> = Persist::load(d)?;
            let expect_paths: usize = Persist::load(d)?;
            let expect_comms: usize = Persist::load(d)?;
            for p in &paths_tail {
                shard.paths.intern(p);
            }
            for c in &comms_tail {
                shard.comms.intern(c);
            }
            // Interning dedups, so the length check both validates that the
            // delta extends *this* base and makes re-application a no-op.
            if shard.paths.len() != expect_paths || shard.comms.len() != expect_comms {
                return Err(StoreError::DeltaChainBroken {
                    what: "arena tail does not extend the restored base snapshot",
                });
            }
            for (k, v) in ops {
                match v {
                    Some(ids) => {
                        shard.rib.insert(k, ids);
                    }
                    None => {
                        shard.rib.remove(&k);
                    }
                }
                shard.dirty_rib.insert(k);
            }
        }
        let reg: bool = Persist::load(d)?;
        if reg {
            self.by_prefix = Persist::load(d)?;
            self.groups_of = Persist::load(d)?;
            self.interner = Persist::load(d)?;
            self.delta_reg = true;
        }
        let upserts: Vec<(GroupKey, Group)> = Persist::load(d)?;
        for (gk, mut g) in upserts {
            for m in &mut g.aspath {
                m.key = self.interner.intern((*m.key).clone());
            }
            for b in &mut g.bursts {
                b.key = self.interner.intern((*b.key).clone());
            }
            g.comm.key = self.interner.intern((*g.comm.key).clone());
            self.delta_groups.insert(gk.clone());
            self.groups.insert(gk, g);
        }
        self.closes = Persist::load(d)?;
        Ok(())
    }

    /// Declares the current state a full-snapshot base: clears all delta
    /// dirty tracking so subsequent [`BgpMonitors::store_delta`] calls
    /// serialize only what mutates from here on.
    pub(crate) fn mark_clean(&mut self) {
        for shard in &mut self.shards {
            shard.dirty_rib.clear();
            shard.paths_base = shard.paths.len();
            shard.comms_base = shard.comms.len();
        }
        self.delta_groups.clear();
        self.delta_reg = false;
    }

    /// Canonical per-group serialization: each group's key and state
    /// encoded independently, ordered by key. Monitor groups are disjoint
    /// across detector partitions (a group lives with its destination
    /// prefix's owner), so concatenating partitions' vectors and re-sorting
    /// by key bytes reproduces a single instance's vector byte for byte.
    /// Callers comparing across instances must [`BgpMonitors::materialize_all`]
    /// first so park replay depth doesn't differ.
    pub(crate) fn canonical_groups(&self) -> Result<CanonicalGroupBytes, StoreError> {
        self.groups
            .iter()
            .map(|(gk, g)| Ok((rrr_store::to_payload(gk)?, rrr_store::to_payload(g)?)))
            .collect()
    }

    /// Total number of window closes performed.
    pub(crate) fn closes(&self) -> u64 {
        self.closes
    }
}

/// Per-update ingestion core of [`BgpMonitors::observe`], operating on the
/// update's prefix shard: it writes only shard-owned state and only reads
/// the monitor groups.
fn shard_observe(
    shard: &mut IngestShard,
    groups: &BTreeMap<GroupKey, Group>,
    by_prefix: &FastMap<Prefix, Vec<GroupKey>>,
    strip_asns: &[Asn],
    u: &BgpUpdate,
) {
    let gks = by_prefix.get(&u.prefix).map(Vec::as_slice).unwrap_or(&[]);
    let key = (u.vp, u.prefix);
    // The standing route is read here and, where it changes, replaced here.
    // §4.1.3 below looks up only *other* VPs' routes, so it does not see
    // that this VP's is already written.
    let (old, new) = match &u.elem {
        BgpElem::Announce { path, communities } => {
            let old = shard.rib.get(&key).copied();
            // A re-announcement of the standing route — most of a feed —
            // is told by comparing against that route: interning an equal
            // path and community set would hand back the ids it holds.
            let same = old.filter(|&(pid, cid)| {
                path.stripped_eq(strip_asns, shard.paths.get(pid))
                    && communities == shard.comms.get(cid)
            });
            #[cfg(test)]
            let same = same.filter(|_| !shard.reference);
            let new = same.unwrap_or_else(|| {
                // Strip once per update into the shard's reusable scratch
                // buffer; interning clones only the first occurrence of a
                // distinct path or community set.
                let mut stripped = std::mem::take(&mut shard.strip_scratch);
                path.stripped_into(strip_asns, &mut stripped);
                let pid = shard.paths.intern(&stripped);
                shard.strip_scratch = stripped; // hand the buffer back
                let new = (pid, shard.comms.intern(communities));
                shard.rib.insert(key, new);
                new
            });
            (old, Some(new))
        }
        BgpElem::Withdraw => (shard.rib.remove(&key), None),
    };
    shard.dirty_rib.insert(key);
    if gks.is_empty() {
        return;
    }
    let entry = shard.window.row(u.vp, u.prefix, old.map(|(p, _)| p));
    entry.push(new.map(|(p, _)| p));
    let Some((pid, cid)) = new else { return };
    // Duplicate announcement (§4.1.4): same interned path and community-set
    // ids as the standing route — two integer comparisons instead of deep
    // vector equality.
    if old == new {
        entry.duplicates += 1;
    }

    // §4.1.3: community change detection per group — only when the interned
    // community set changed. An equal id is an equal set, every per-AS diff
    // of a set against itself is empty, and `detect_comm_change` returns at
    // its empty-diff check having written nothing; so does it with no
    // standing route. Most of a feed is such re-announcements.
    let comms_changed = old.is_some_and(|(_, old_cid)| old_cid != cid);
    #[cfg(test)]
    let comms_changed = comms_changed || shard.reference;
    if comms_changed {
        for gk in gks {
            detect_comm_change(shard, groups, gk, u.vp, old, pid, cid);
        }
    }
}

/// §4.1.3 edge detection for one update against one group. Reads the
/// other VPs' routes from the shard's RIB partition (this VP's pre-update
/// route comes in as `old`) and the group's registration-time state, and
/// records changes into the shard's pending buffer — the group
/// itself is untouched until the window closes.
fn detect_comm_change(
    shard: &mut IngestShard,
    groups: &BTreeMap<GroupKey, Group>,
    gk: &GroupKey,
    vp: VpId,
    old: Option<(PathId, CommsId)>,
    new_path: PathId,
    new_comms: CommsId,
) {
    let g = &groups[gk];
    if !g.comm.vps.contains(&vp) {
        return;
    }
    let Some((old_path, old_comms)) = old else { return };
    let old_comms = shard.comms.get(old_comms);
    let new_comms = shard.comms.get(new_comms);
    // The VP must still overlap a suffix of the traceroute.
    let resolved = shard.paths.get(new_path);
    let Some(j) = resolved.first_intersection(&g.key.as_path) else { return };
    if !resolved.suffix_matches(&g.key.as_path, j) {
        return;
    }

    // Guard 1: all-or-nothing community transitions only count when the
    // AS path is unchanged (stripping artifacts, §4.1.3). Interned ids
    // make the path comparison an integer equality.
    let had = !old_comms.is_empty();
    let has = !new_comms.is_empty();
    if had != has && old_path != new_path {
        return;
    }

    let mut added_all: Vec<Community> = Vec::new();
    let mut removed_all: Vec<Community> = Vec::new();
    for &a_j in &g.key.as_path {
        let (added, removed) = community::diff_for_asn(old_comms, new_comms, a_j);
        added_all.extend(added);
        removed_all.extend(removed);
    }
    if added_all.is_empty() && removed_all.is_empty() {
        return;
    }

    // Guard 2: an "added" community already visible on another overlapping
    // VP's path is not a new signal. The cross-VP view only consults this
    // prefix's RIB entries — all shard-local — and is built only once a
    // candidate change exists, not on every update.
    if !added_all.is_empty() {
        let mut others_have: HashSet<Community> = HashSet::new();
        for &ovp in &g.comm.vps {
            if ovp == vp {
                continue;
            }
            if let Some(&(_, oc)) = shard.rib.get(&(ovp, gk.dst_prefix)) {
                others_have.extend(shard.comms.get(oc).iter().copied());
            }
        }
        added_all.retain(|c| !others_have.contains(c));
    }

    let mut changed = added_all;
    changed.extend(removed_all);
    if !changed.is_empty() {
        shard.pending_comm.entry(gk.clone()).or_default().push(changed);
    }
}

/// Read-only context every group reads while one window closes. Lookups
/// route through the prefix-shard layout: the RIB mirror and the
/// taken window samples are both per-shard, and interned path ids resolve
/// against the owning shard's arena.
struct CloseCtx<'a> {
    window: Window,
    time: Timestamp,
    det: BitmapDetector,
    shards: &'a [IngestShard],
    /// The closing window's rows, per shard and prefix.
    samples: &'a [FastMap<Prefix, PrefixRows>],
    comm_allowed: &'a dyn Fn(Community, Prefix) -> bool,
    /// Whether quiet groups may cache values and park.
    park: bool,
    /// Close counter value this close will commit as.
    close_seq: u64,
}

impl CloseCtx<'_> {
    fn rib(&self, vp: VpId, prefix: Prefix) -> Option<(&AsPath, &Vec<Community>)> {
        self.shards[shard_of(prefix)].rib_resolved(vp, prefix)
    }

    /// The closing window's rows for one prefix, sorted by VP.
    fn rows(&self, prefix: Prefix) -> &[(VpId, WindowSamples)] {
        self.samples[shard_of(prefix)].get(&prefix).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Marks a group as having input in the closing window, waking it if it was
/// parked.
fn mark_dirty(g: &mut Group, closes: u64) {
    g.dirty_window = true;
    unpark_group(g, closes);
}

/// Replays the quiet closes a parked group skipped: every series advances
/// by the same constant value the full scan would have pushed each window
/// (aspath: the frozen RIB ratio captured at park time; burst series: 0.0,
/// since quiet windows carry no duplicates) via the closed-form
/// [`MonitoredSeries::advance_constant`].
fn unpark_group(g: &mut Group, closes: u64) {
    let Some(park) = g.park.take() else { return };
    g.quiet_vals = None;
    let k = closes - park.since;
    if k == 0 {
        return;
    }
    for (m, &v) in g.aspath.iter_mut().zip(&park.aspath_vals) {
        m.series.advance_constant(v, k);
    }
    for b in &mut g.bursts {
        b.u_series.advance_constant(Some(0.0), k);
        for s in b.u_prime.values_mut() {
            s.advance_constant(Some(0.0), k);
        }
    }
}

/// Whether a quiet group may park: every series must be guaranteed to keep
/// producing `Normal` verdicts under its frozen quiet-close value, which
/// also rules out any signal or revocation firing (an asserting monitor
/// whose revocation condition held fired it at this close already; one
/// whose condition did not hold under frozen inputs never will).
fn group_inert(g: &Group, det: &BitmapDetector) -> bool {
    let Some(vals) = g.quiet_vals.as_ref() else { return false };
    let need = det.inert_tail();
    g.aspath.iter().zip(vals).all(|(m, v)| m.series.inert_under(*v, need))
        && g.bursts.iter().all(|b| {
            b.u_series.inert_under(Some(0.0), need)
                && b.u_prime.values().all(|s| s.inert_under(Some(0.0), need))
        })
}

/// Advances every series of one monitor group for the closing window,
/// appending signals and revocations in deterministic monitor order.
fn close_group(
    g: &mut Group,
    ctx: &CloseCtx<'_>,
    signals: &mut Vec<StalenessSignal>,
    revokes: &mut Vec<RevokeEvent>,
) {
    let dirty = g.dirty_window;
    g.dirty_window = false;
    let dormant = g.traceroutes.is_empty();
    let trs: Arc<[TracerouteId]> = match &g.shared {
        Some(a) => Arc::clone(a),
        None => {
            let a: Arc<[TracerouteId]> = g.traceroutes.clone().into();
            g.shared = Some(Arc::clone(&a));
            a
        }
    };
    let dst = g.key.dst_prefix;
    let tau = &g.key.as_path;
    // This prefix's rows of the closing window, found once. Only a dirty
    // group can have any.
    let rows = if dirty { ctx.rows(dst) } else { &[] };
    let paths = &ctx.shards[shard_of(dst)].paths;

    // Quiet close on the incremental path: no samples landed on this
    // prefix, so every §4.1.2 value is a pure function of the frozen RIB.
    // Compute them once per quiet streak and reuse until dirtied.
    let quiet = ctx.park && !dirty;
    if dirty {
        g.quiet_vals = None;
    } else if quiet && g.quiet_vals.is_none() {
        let vals = g
            .aspath
            .iter()
            .map(|m| {
                let mut intersect = 0u32;
                let mut matched = 0u32;
                for &vp in &m.vps0 {
                    if let Some((p, _)) = ctx.rib(vp, dst) {
                        if p.first_intersection(tau) == Some(m.j) {
                            intersect += 1;
                            if p.suffix_matches(tau, m.j) {
                                matched += 1;
                            }
                        }
                    }
                }
                (intersect > 0).then(|| matched as f64 / intersect as f64)
            })
            .collect();
        g.quiet_vals = Some(vals);
    }

    // --- §4.1.2 AS-path ratio ---
    for (i, m) in g.aspath.iter_mut().enumerate() {
        let value = match g.quiet_vals.as_ref().filter(|_| quiet) {
            Some(vals) => vals[i],
            None => {
                let mut intersect = 0u32;
                let mut matched = 0u32;
                // One evaluation per RLE run: identical consecutive samples
                // contribute their run length without re-walking the path.
                let mut scan = |p: &AsPath, n: u32| {
                    if p.first_intersection(tau) == Some(m.j) {
                        intersect += n;
                        if p.suffix_matches(tau, m.j) {
                            matched += n;
                        }
                    }
                };
                for &vp in &m.vps0 {
                    match samples_of(rows, vp) {
                        Some(ws) => {
                            // One evaluation per distinct path, via the
                            // observe-time aggregate.
                            for &(pid, n) in ws.counts() {
                                if let Some(pid) = pid {
                                    scan(paths.get(pid), n);
                                }
                            }
                        }
                        None => {
                            if let Some((p, _)) = ctx.rib(vp, dst) {
                                scan(p, 1);
                            }
                        }
                    }
                }
                (intersect > 0).then(|| matched as f64 / intersect as f64)
            }
        };
        let verdict = m.series.push(value, &ctx.det);
        if let SeriesVerdict::Outlier { score } = verdict {
            if !dormant {
                signals.push(StalenessSignal {
                    key: Arc::clone(&m.key),
                    time: ctx.time,
                    window: ctx.window,
                    score,
                    traceroutes: Arc::clone(&trs),
                    trigger_communities: Vec::new(),
                });
                m.asserting = true;
            }
        } else if m.asserting {
            // §4.3.2: revoke when the ratio returns to its issuance value.
            if let Some(v) = value {
                if (v - m.ref_ratio).abs() < 0.05 {
                    m.asserting = false;
                    revokes.push(RevokeEvent {
                        key: Arc::clone(&m.key),
                        traceroutes: Arc::clone(&trs),
                    });
                }
            }
        }
    }

    // --- §4.1.4 duplicate bursts ---
    let sent_dup = |vp: &VpId| samples_of(rows, *vp).is_some_and(|ws| ws.duplicates > 0);
    // How many of `vps` sent a duplicate this window. The set and the rows
    // both ascend by VP id, so one pass over each counts the overlap; a
    // dozen tree-set members each searching the rows, ten monitors a group,
    // was most of a dense close. With no duplicate on the prefix — every
    // quiet group, and most groups of a change-only feed — the answer is 0
    // at the first look.
    let dup_senders = |vps: &BTreeSet<VpId>| -> f64 {
        let mut senders =
            rows.iter().filter(|(_, ws)| ws.duplicates > 0).map(|&(vp, _)| vp).peekable();
        let mut n = 0u32;
        for &vp in vps {
            while senders.next_if(|&s| s < vp).is_some() {}
            match senders.peek() {
                None => break,
                Some(&s) if s == vp => n += 1,
                Some(_) => {}
            }
        }
        f64::from(n)
    };
    for b in &mut g.bursts {
        let u_val = dup_senders(&b.v0);
        let u_verdict = b.u_series.push(Some(u_val), &ctx.det);

        // Advance confounder series regardless, so they stay aligned.
        let mut outlier_confounders: BTreeSet<Asn> = BTreeSet::new();
        for (a_k, w_set) in &b.confounders {
            let u2 = dup_senders(w_set);
            let series = b.u_prime.get_mut(a_k).expect("series registered");
            if series.push(Some(u2), &ctx.det).is_outlier() {
                outlier_confounders.insert(*a_k);
            }
        }

        if let SeriesVerdict::Outlier { score } = u_verdict {
            if dormant {
                continue;
            }
            // The technique keys on *contemporaneous* duplicates from
            // multiple peers sharing the suffix (§4.1.4) — a single chatty
            // peer is not a correlated burst.
            let multi_peer = u_val >= 2.0;
            // At least one duplicate-sending member VP must traverse no
            // confounder that is itself bursting (Figure 4).
            let clean_member = b.v0.iter().any(|vp| {
                sent_dup(vp)
                    && b.member_confounders[vp].iter().all(|a_k| !outlier_confounders.contains(a_k))
            });
            if multi_peer && clean_member {
                signals.push(StalenessSignal {
                    key: Arc::clone(&b.key),
                    time: ctx.time,
                    window: ctx.window,
                    score,
                    traceroutes: Arc::clone(&trs),
                    trigger_communities: Vec::new(),
                });
                b.asserting = true;
            }
        } else if b.asserting {
            // §4.3.2: a burst is transient evidence — once the duplicate
            // count returns in-distribution, the signal that backed the
            // assertion has reverted.
            b.asserting = false;
            revokes.push(RevokeEvent { key: Arc::clone(&b.key), traceroutes: Arc::clone(&trs) });
        }
    }

    // --- §4.1.3 community changes ---
    let pending = std::mem::take(&mut g.pending_comm);
    let mut fired_comms: Vec<Community> = Vec::new();
    for comms in pending {
        let allowed: Vec<Community> =
            comms.into_iter().filter(|c| (ctx.comm_allowed)(*c, dst)).collect();
        fired_comms.extend(allowed);
    }
    if !fired_comms.is_empty() && !dormant {
        fired_comms.sort_unstable();
        fired_comms.dedup();
        signals.push(StalenessSignal {
            key: Arc::clone(&g.comm.key),
            time: ctx.time,
            window: ctx.window,
            score: fired_comms.len() as f64,
            traceroutes: Arc::clone(&trs),
            trigger_communities: fired_comms.clone(),
        });
        g.comm.asserting = true;
    } else if g.comm.asserting {
        // Revocation: every overlapping VP's τ-scoped community set matches
        // the reference again.
        let reverted = g.comm.reference.iter().all(|(&vp, reference)| {
            let now: BTreeSet<Community> = match ctx.rib(vp, dst) {
                Some((_, comms)) => {
                    comms.iter().filter(|c| tau.contains(&c.asn())).copied().collect()
                }
                None => BTreeSet::new(),
            };
            now == *reference
        });
        if reverted {
            g.comm.asserting = false;
            revokes
                .push(RevokeEvent { key: Arc::clone(&g.comm.key), traceroutes: Arc::clone(&trs) });
        }
    }

    // Park when quiet and provably inert: subsequent quiet closes would be
    // pure no-ops (constant Normal pushes, no emissions), so they can be
    // skipped and replayed in closed form at unpark time.
    if quiet && group_inert(g, &ctx.det) {
        g.park = Some(ParkState {
            since: ctx.close_seq,
            aspath_vals: g.quiet_vals.take().expect("quiet close cached values"),
        });
    }
}

impl Persist for GroupKey {
    fn store<W: std::io::Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        self.dst_prefix.store(e)?;
        self.as_path.store(e)
    }
    fn load<R: std::io::Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        Ok(GroupKey { dst_prefix: Persist::load(d)?, as_path: Persist::load(d)? })
    }
}

impl Persist for AsPathJ {
    fn store<W: std::io::Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        self.j.store(e)?;
        self.key.store(e)?;
        self.vps0.store(e)?;
        self.series.store(e)?;
        self.ref_ratio.store(e)?;
        self.asserting.store(e)
    }
    fn load<R: std::io::Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        Ok(AsPathJ {
            j: Persist::load(d)?,
            key: Persist::load(d)?,
            vps0: Persist::load(d)?,
            series: Persist::load(d)?,
            ref_ratio: Persist::load(d)?,
            asserting: Persist::load(d)?,
        })
    }
}

impl Persist for BurstJ {
    fn store<W: std::io::Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        self.key.store(e)?;
        self.v0.store(e)?;
        self.confounders.store(e)?;
        self.member_confounders.store(e)?;
        self.u_series.store(e)?;
        self.u_prime.store(e)?;
        self.asserting.store(e)
    }
    fn load<R: std::io::Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        Ok(BurstJ {
            key: Persist::load(d)?,
            v0: Persist::load(d)?,
            confounders: Persist::load(d)?,
            member_confounders: Persist::load(d)?,
            u_series: Persist::load(d)?,
            u_prime: Persist::load(d)?,
            asserting: Persist::load(d)?,
        })
    }
}

impl Persist for CommState {
    fn store<W: std::io::Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        self.key.store(e)?;
        self.vps.store(e)?;
        self.reference.store(e)?;
        self.asserting.store(e)
    }
    fn load<R: std::io::Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        Ok(CommState {
            key: Persist::load(d)?,
            vps: Persist::load(d)?,
            reference: Persist::load(d)?,
            asserting: Persist::load(d)?,
        })
    }
}

impl Persist for ParkState {
    fn store<W: std::io::Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        self.since.store(e)?;
        self.aspath_vals.store(e)
    }
    fn load<R: std::io::Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        Ok(ParkState { since: Persist::load(d)?, aspath_vals: Persist::load(d)? })
    }
}

impl Persist for Group {
    fn store<W: std::io::Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        self.key.store(e)?;
        self.traceroutes.store(e)?;
        self.aspath.store(e)?;
        self.bursts.store(e)?;
        self.comm.store(e)?;
        self.pending_comm.store(e)?;
        self.park.store(e)
    }
    fn load<R: std::io::Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        Ok(Group {
            key: Persist::load(d)?,
            traceroutes: Persist::load(d)?,
            aspath: Persist::load(d)?,
            bursts: Persist::load(d)?,
            comm: Persist::load(d)?,
            pending_comm: Persist::load(d)?,
            park: Persist::load(d)?,
            dirty_window: false,
            quiet_vals: None,
            shared: None,
        })
    }
}

// On the wire a row is its runs as one `Vec` and the duplicate count;
// `counts` is a pure function of the runs and is rebuilt on load.
impl Persist for WindowSamples {
    fn store<W: std::io::Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        e.len(1 + self.rest.len())?;
        for run in self.runs() {
            run.store(e)?;
        }
        self.duplicates.store(e)
    }
    fn load<R: std::io::Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        let mut runs = Vec::<(Option<PathId>, u32)>::load(d)?.into_iter();
        // A row exists from the update that opened it, standing path first.
        let first = runs.next().ok_or_else(|| d.corrupt("window row without a run"))?;
        let rest: Vec<_> = runs.collect();
        let duplicates = Persist::load(d)?;
        let mut counts: Vec<(Option<PathId>, u32)> = Vec::new();
        if !rest.is_empty() {
            for &(p, n) in std::iter::once(&first).chain(&rest) {
                WindowSamples::tally(&mut counts, p, n);
            }
        }
        Ok(WindowSamples { first, rest, duplicates, counts })
    }
}

// Wire-identical to the `HashMap<(VpId, Prefix), WindowSamples>` the window
// used to be: rows sorted by that key, whatever the grouping in memory.
impl Persist for OpenWindow {
    fn store<W: std::io::Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        let mut rows: Vec<_> = self.iter().collect();
        rows.sort_unstable_by_key(|&(k, _)| k);
        e.len(rows.len())?;
        for (k, ws) in rows {
            k.store(e)?;
            ws.store(e)?;
        }
        Ok(())
    }
    fn load<R: std::io::Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        let mut window = OpenWindow::default();
        for ((vp, prefix), ws) in Vec::<((VpId, Prefix), WindowSamples)>::load(d)? {
            *window.row(vp, prefix, None) = ws;
        }
        Ok(window)
    }
}

// `strip_scratch` is a reusable buffer with no information content; a fresh
// one is equivalent. The arenas serialize in insertion order, so re-interning
// on load reproduces the exact same dense ids the rib/window maps reference.
impl Persist for IngestShard {
    fn store<W: std::io::Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        self.rib.store(e)?;
        self.window.store(e)?;
        self.paths.store(e)?;
        self.comms.store(e)?;
        self.pending_comm.store(e)
    }
    fn load<R: std::io::Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        let rib: FastMap<(VpId, Prefix), (PathId, CommsId)> = Persist::load(d)?;
        // Conservative: everything is dirty until the owner establishes a
        // fresh full-snapshot base via `mark_clean`.
        let dirty_rib = rib.keys().copied().collect();
        Ok(IngestShard {
            rib,
            window: Persist::load(d)?,
            paths: Persist::load(d)?,
            comms: Persist::load(d)?,
            pending_comm: Persist::load(d)?,
            strip_scratch: AsPath::default(),
            dirty_rib,
            paths_base: 0,
            comms_base: 0,
            #[cfg(test)]
            reference: false,
        })
    }
}

// The incremental-close switch is runtime configuration, not state: it is
// re-applied via [`BgpMonitors::set_incremental`] after load. Monitor keys are
// re-interned
// through the restored interner so every monitor shares the canonical `Arc`
// again instead of holding a private deserialized copy.
impl Persist for BgpMonitors {
    fn store<W: std::io::Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        self.groups.store(e)?;
        self.by_prefix.store(e)?;
        self.shards.store(e)?;
        self.strip_asns.store(e)?;
        self.detector.store(e)?;
        self.absorb_outliers.store(e)?;
        self.interner.store(e)?;
        self.groups_of.store(e)?;
        self.closes.store(e)
    }
    fn load<R: std::io::Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        let groups: BTreeMap<GroupKey, Group> = Persist::load(d)?;
        let by_prefix = Persist::load(d)?;
        let shards: Vec<IngestShard> = Persist::load(d)?;
        if shards.len() != NUM_SHARDS {
            return Err(d.corrupt("ingest shard count"));
        }
        // Conservative: every group is delta-dirty until a full-snapshot
        // base is established via `mark_clean`.
        let delta_groups = groups.keys().cloned().collect();
        let mut monitors = BgpMonitors {
            groups,
            by_prefix,
            shards,
            strip_asns: Persist::load(d)?,
            detector: Persist::load(d)?,
            absorb_outliers: Persist::load(d)?,
            interner: Persist::load(d)?,
            groups_of: Persist::load(d)?,
            closes: Persist::load(d)?,
            park_enabled: true,
            delta_groups,
            delta_reg: true,
        };
        for g in monitors.groups.values_mut() {
            for m in &mut g.aspath {
                m.key = monitors.interner.intern((*m.key).clone());
            }
            for b in &mut g.bursts {
                b.key = monitors.interner.intern((*b.key).clone());
            }
            g.comm.key = monitors.interner.intern((*g.comm.key).clone());
        }
        Ok(monitors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pfx(s: &str) -> Prefix {
        s.parse().expect("valid prefix")
    }

    fn announce(vp: u32, prefix: &str, path: &[u32], comms: &[(u32, u32)], t: u64) -> BgpUpdate {
        BgpUpdate {
            time: Timestamp(t),
            vp: VpId(vp),
            prefix: pfx(prefix),
            elem: BgpElem::Announce {
                path: AsPath::from_asns(path.iter().copied()),
                communities: comms.iter().map(|(a, v)| Community::new(*a, *v)).collect(),
            },
        }
    }

    fn asns(v: &[u32]) -> Vec<Asn> {
        v.iter().copied().map(Asn).collect()
    }

    const P: &str = "10.9.0.0/16";
    /// Corpus traceroute AS path: 10 → 20 → 30 (destination AS 30).
    const TAU: &[u32] = &[10, 20, 30];

    /// Two VPs whose paths share the suffix [20, 30]; one confounder VP.
    fn setup() -> BgpMonitors {
        let mut m = BgpMonitors::new(vec![], BitmapDetector::spike());
        m.init_rib(&[
            announce(0, P, &[99, 20, 30], &[(20, 50_001)], 0),
            announce(1, P, &[98, 20, 30], &[(20, 50_001)], 0),
            announce(2, P, &[97, 55, 30], &[], 0),
        ]);
        let n = m.register(TracerouteId(1), pfx(P), &asns(TAU), &[VpId(0), VpId(1), VpId(2)]);
        assert!(n.len() >= 2, "expected multiple potential monitors, got {}", n.len());
        m
    }

    fn run_stable_windows(m: &mut BgpMonitors, count: u64, start: u64) -> u64 {
        for w in start..start + count {
            let (s, _) = m.close_window(Window(w), Timestamp(w * 900), &|_, _| true);
            assert!(s.is_empty(), "stable window fired: {s:?}");
        }
        start + count
    }

    #[test]
    fn registration_builds_monitors() {
        let m = setup();
        assert_eq!(m.group_count(), 1);
    }

    /// Shift both VPs onto a path that still first-intersects the
    /// traceroute at AS 20 but deviates downstream — the change §4.1.2's
    /// ratio is built to catch. Returns collected signals.
    fn shift_and_collect(m: &mut BgpMonitors, w: u64, windows: u64) -> Vec<StalenessSignal> {
        m.observe(&announce(0, P, &[99, 20, 55, 30], &[(20, 50_001)], w * 900 + 10));
        m.observe(&announce(1, P, &[98, 20, 55, 30], &[(20, 50_001)], w * 900 + 11));
        let mut signals = Vec::new();
        for i in 0..windows {
            let (s, _) = m.close_window(Window(w + i), Timestamp((w + i + 1) * 900), &|_, _| true);
            signals.extend(s);
        }
        signals
    }

    #[test]
    fn aspath_shift_fires_after_warmup() {
        let mut m = setup();
        let w = run_stable_windows(&mut m, 40, 0);
        let signals = shift_and_collect(&mut m, w, 4);
        assert!(
            signals.iter().any(|s| s.key.technique == Technique::BgpAsPath),
            "AS-path monitor must fire: {signals:?}"
        );
        assert!(signals.iter().all(|s| s.traceroutes.to_vec() == vec![TracerouteId(1)]));
    }

    #[test]
    fn aspath_revokes_on_revert() {
        let mut m = setup();
        let w = run_stable_windows(&mut m, 40, 0);
        let signals = shift_and_collect(&mut m, w, 4);
        assert!(signals.iter().any(|s| s.key.technique == Technique::BgpAsPath));
        // Revert to original paths: ratio returns to its issuance value.
        let w = w + 4;
        m.observe(&announce(0, P, &[99, 20, 30], &[(20, 50_001)], w * 900 + 10));
        m.observe(&announce(1, P, &[98, 20, 30], &[(20, 50_001)], w * 900 + 11));
        let mut revoked = Vec::new();
        for i in 0..3 {
            let (_, r) = m.close_window(Window(w + i), Timestamp((w + i + 1) * 900), &|_, _| true);
            revoked.extend(r);
        }
        assert!(
            revoked.iter().any(|r| r.key.technique == Technique::BgpAsPath),
            "revert must revoke"
        );
    }

    #[test]
    fn community_change_fires_with_same_path() {
        let mut m = setup();
        // Same AS path, community 20:50001 → 20:50009 (geo move).
        m.observe(&announce(0, P, &[99, 20, 30], &[(20, 50_009)], 10));
        let (signals, _) = m.close_window(Window(0), Timestamp(900), &|_, _| true);
        let comm: Vec<_> =
            signals.iter().filter(|s| s.key.technique == Technique::BgpCommunity).collect();
        assert_eq!(comm.len(), 1, "{signals:?}");
        assert!(m.comm_asserting(pfx(P), &asns(TAU)));
    }

    #[test]
    fn community_pruning_suppresses() {
        let mut m = setup();
        m.observe(&announce(0, P, &[99, 20, 30], &[(20, 50_009)], 10));
        let (signals, _) = m.close_window(Window(0), Timestamp(900), &|_, _| false);
        assert!(
            !signals.iter().any(|s| s.key.technique == Technique::BgpCommunity),
            "pruned communities must not fire"
        );
    }

    #[test]
    fn community_unrelated_asn_ignored() {
        let mut m = setup();
        // AS 97 is not on the traceroute; its community change is invisible
        // (and VP2 doesn't overlap the suffix anyway).
        m.observe(&announce(2, P, &[97, 55, 30], &[(97, 50_002)], 10));
        // VP0 gains a community from off-path AS 99... 99 not in τ either.
        m.observe(&announce(0, P, &[99, 20, 30], &[(20, 50_001), (99, 7)], 11));
        let (signals, _) = m.close_window(Window(0), Timestamp(900), &|_, _| true);
        assert!(!signals.iter().any(|s| s.key.technique == Technique::BgpCommunity), "{signals:?}");
    }

    #[test]
    fn community_strip_artifact_guard() {
        let mut m = setup();
        // VP0's path changes AND communities vanish entirely: stripping
        // artifact, not a signal.
        m.observe(&announce(0, P, &[96, 20, 30], &[], 10));
        let (signals, _) = m.close_window(Window(0), Timestamp(900), &|_, _| true);
        assert!(!signals.iter().any(|s| s.key.technique == Technique::BgpCommunity), "{signals:?}");
    }

    #[test]
    fn community_cross_vp_dedup_guard() {
        let mut m = setup();
        // VP1 already carries 20:50001; VP0 "gaining" it is not novel. VP0
        // starts without it:
        m.observe(&announce(0, P, &[99, 20, 30], &[], 5));
        let _ = m.close_window(Window(0), Timestamp(900), &|_, _| true);
        // Now VP0 gains the community VP1 already has, same path:
        m.observe(&announce(0, P, &[99, 20, 30], &[(20, 50_001)], 910));
        let (signals, _) = m.close_window(Window(1), Timestamp(1800), &|_, _| true);
        assert!(
            !signals.iter().any(|s| s.key.technique == Technique::BgpCommunity),
            "cross-VP duplicate community must not fire: {signals:?}"
        );
    }

    #[test]
    fn burst_fires_on_correlated_duplicates() {
        let mut m = setup();
        let w = run_stable_windows(&mut m, 40, 0);
        // Duplicates (identical announcements) from both suffix-sharing VPs.
        m.observe(&announce(0, P, &[99, 20, 30], &[(20, 50_001)], w * 900 + 1));
        m.observe(&announce(1, P, &[98, 20, 30], &[(20, 50_001)], w * 900 + 2));
        let (signals, _) = m.close_window(Window(w), Timestamp((w + 1) * 900), &|_, _| true);
        assert!(
            signals.iter().any(|s| s.key.technique == Technique::BgpBurst),
            "burst must fire: {signals:?}"
        );
    }

    #[test]
    fn unregister_makes_group_dormant_but_keeps_series_warm() {
        let mut m = setup();
        m.unregister(TracerouteId(1));
        // Group retained (warm series) but dormant: no signals fire.
        assert_eq!(m.group_count(), 1);
        let w = run_stable_windows(&mut m, 40, 0);
        let signals = shift_and_collect(&mut m, w, 4);
        assert!(signals.is_empty(), "dormant group fired: {signals:?}");
        // Re-attaching a traceroute resumes firing immediately — the
        // 20-window eligibility clock did not restart.
        m.register(TracerouteId(2), pfx(P), &asns(TAU), &[VpId(0), VpId(1), VpId(2)]);
        // Revert then shift again to produce fresh outliers.
        let w = w + 4;
        m.observe(&announce(0, P, &[99, 20, 30], &[(20, 50_001)], w * 900 + 1));
        m.observe(&announce(1, P, &[98, 20, 30], &[(20, 50_001)], w * 900 + 2));
        for i in 0..2 {
            let _ = m.close_window(Window(w + i), Timestamp((w + i + 1) * 900), &|_, _| true);
        }
        let signals = shift_and_collect(&mut m, w + 2, 4);
        assert!(
            signals.iter().any(|s| s.traceroutes.to_vec() == vec![TracerouteId(2)]),
            "re-attached traceroute must fire without re-warmup: {signals:?}"
        );
    }
    /// The route menus the equivalence streams draw from. Paths overlap the
    /// corpus traceroute [10, 20, 30] at different depths or not at all,
    /// some only once the stripped route-server AS 777 is gone; community
    /// sets are empty, on-path (AS 20 / AS 30), off-path, or mixed.
    const PATHS: &[&[u32]] = &[
        &[99, 20, 30],
        &[99, 777, 20, 30],
        &[98, 20, 30],
        &[98, 20, 55, 30],
        &[97, 55, 30],
        &[96, 10, 20, 30],
        &[95, 41, 42],
    ];
    const COMMS: &[&[(u32, u32)]] = &[
        &[],
        &[(20, 50_001)],
        &[(20, 50_009)],
        &[(20, 50_001), (30, 7)],
        &[(99, 7)],
        &[(20, 50_001), (99, 7)],
    ];

    /// Two prefixes with monitor groups (one with two traceroutes' worth of
    /// AS paths) and one nobody monitors, four VPs.
    fn equivalence_setup(reference: bool) -> BgpMonitors {
        const PREFIXES: [&str; 3] = ["10.9.0.0/16", "10.8.0.0/16", "10.7.0.0/16"];
        let mut m = BgpMonitors::new(vec![Asn(777)], BitmapDetector::spike());
        let mut rib = Vec::new();
        for (pi, p) in PREFIXES.iter().enumerate() {
            for vp in 0..4u32 {
                let route = (vp as usize + pi) % 3;
                rib.push(announce(vp, p, PATHS[route], COMMS[1 + route % 2], 0));
            }
        }
        m.init_rib(&rib);
        let vps: Vec<VpId> = (0..4).map(VpId).collect();
        m.register(TracerouteId(1), pfx(PREFIXES[0]), &asns(TAU), &vps);
        m.register(TracerouteId(2), pfx(PREFIXES[0]), &asns(&[20, 30]), &vps);
        m.register(TracerouteId(3), pfx(PREFIXES[1]), &asns(TAU), &vps);
        for shard in &mut m.shards {
            shard.reference = reference;
        }
        m
    }

    mod equivalence {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Ingestion with its two shortcuts — a re-announced standing
            /// route skips strip/intern/write, an unchanged community set
            /// skips §4.1.3 — leaves every byte of state, and every signal
            /// of the closes in between, equal to the reference that takes
            /// neither. Streams are duplicate-heavy with community-only,
            /// path-only and all-or-nothing changes, withdrawals and
            /// re-announcements, on monitored and unmonitored prefixes.
            #[test]
            fn shortcuts_leave_state_equal_to_the_reference(
                steps in proptest::collection::vec((0u32..4, 0usize..3, 0u8..10, 0usize..7, 0usize..6), 1..120),
                close_every in 5usize..40,
            ) {
                const PREFIXES: [&str; 3] = ["10.9.0.0/16", "10.8.0.0/16", "10.7.0.0/16"];
                let mut fast = equivalence_setup(false);
                let mut reference = equivalence_setup(true);
                // The test's own view of each session's standing route, to
                // aim duplicates and single-attribute changes.
                let mut standing: BTreeMap<(u32, usize), Option<(usize, usize)>> = BTreeMap::new();
                for pi in 0..3 {
                    for vp in 0..4u32 {
                        let route = (vp as usize + pi) % 3;
                        standing.insert((vp, pi), Some((route, 1 + route % 2)));
                    }
                }
                let mut w = 0u64;
                for (i, &(vp, pi, kind, path, comms)) in steps.iter().enumerate() {
                    let t = w * 900 + i as u64;
                    let slot = standing.get_mut(&(vp, pi)).expect("session");
                    let next = match (kind, *slot) {
                        // Half the stream: the standing route again.
                        (0..=4, Some(route)) => Some(route),
                        // Community-only, path-only, both.
                        (5, Some((p, _))) => Some((p, comms)),
                        (6, Some((_, c))) => Some((path, c)),
                        // All-or-nothing, with the path kept or changed.
                        (7, Some((p, c))) => Some((if path % 2 == 0 { p } else { path }, if c == 0 { comms } else { 0 })),
                        (8, _) => None,
                        _ => Some((path, comms)),
                    };
                    let u = match next {
                        Some((p, c)) => announce(vp, PREFIXES[pi], PATHS[p], COMMS[c], t),
                        None => BgpUpdate {
                            time: Timestamp(t),
                            vp: VpId(vp),
                            prefix: pfx(PREFIXES[pi]),
                            elem: BgpElem::Withdraw,
                        },
                    };
                    *slot = next;
                    fast.observe(&u);
                    reference.observe(&u);
                    if (i + 1) % close_every == 0 {
                        let a = fast.close_window(Window(w), Timestamp((w + 1) * 900), &|_, _| true);
                        let b = reference.close_window(Window(w), Timestamp((w + 1) * 900), &|_, _| true);
                        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
                        w += 1;
                    }
                }
                prop_assert_eq!(fast.rib_snapshot(), reference.rib_snapshot());
                prop_assert_eq!(fast.window_snapshot(), reference.window_snapshot());
                for (a, b) in fast.shards.iter().zip(&reference.shards) {
                    prop_assert_eq!(&a.pending_comm, &b.pending_comm);
                    // Arena contents in id order: a shortcut that skipped
                    // an intern the reference made would shift every id
                    // after it.
                    prop_assert_eq!(a.paths.iter().collect::<Vec<_>>(), b.paths.iter().collect::<Vec<_>>());
                    prop_assert_eq!(a.comms.iter().collect::<Vec<_>>(), b.comms.iter().collect::<Vec<_>>());
                    let dirty = |s: &IngestShard| s.dirty_rib.iter().copied().collect::<BTreeSet<_>>();
                    prop_assert_eq!(dirty(a), dirty(b));
                }
                // And all of it at once, as a checkpoint and as a delta.
                prop_assert_eq!(
                    rrr_store::to_payload(&fast).expect("encode"),
                    rrr_store::to_payload(&reference).expect("encode")
                );
                let delta = |m: &BgpMonitors| {
                    let mut bytes = Vec::new();
                    m.store_delta(&mut Encoder::new(&mut bytes)).expect("encode delta");
                    bytes
                };
                prop_assert_eq!(delta(&fast), delta(&reference));
            }
        }
    }
}
