//! BGP-feed staleness techniques (§4.1): AS-path overlap ratios, community
//! change tracking, and duplicate-update burst correlation.
//!
//! All three share a per-(destination prefix, traceroute AS path) monitor
//! group, registered when a corpus traceroute is inserted. The engine feeds
//! updates either one at a time ([`BgpMonitors::observe`]) or in batches
//! ([`BgpMonitors::observe_batch`]); at the end of each 15-minute window
//! ([`BgpMonitors::close_window`]) the time series advance and signals fire.
//!
//! Ingestion state is partitioned into `NUM_SHARDS` (32) prefix shards, each
//! owning its slice of the RIB mirror, the open-window sample log, and the
//! intern arenas for AS paths and community sets. A shard is fully
//! determined by an update's prefix, and monitor groups are read-only while
//! updates flow, so [`BgpMonitors::observe_batch`] can fan shards across
//! scoped worker threads without locks and still produce bit-identical
//! state to the serial loop.
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
//! to the full scan at any thread count.

use crate::signal::{KeyInterner, SignalKey, SignalScope, StalenessSignal, Technique};
use rrr_anomaly::{BitmapDetector, MonitoredSeries, SeriesVerdict};
use rrr_store::{Decoder, Encoder, Persist, StoreError};
use rrr_types::{
    community, Arena, ArenaId, AsPath, Asn, BgpElem, BgpUpdate, Community, Prefix, Timestamp,
    TracerouteId, VpId, Window,
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

/// Number of ingestion shards. Fixed (not tied to the worker count) so the
/// sharded state layout — and therefore every id comparison — is identical
/// at any thread count.
const NUM_SHARDS: usize = 32;

/// Batches smaller than this are fed serially even when workers are
/// configured: thread spawn overhead would dominate.
const MIN_PAR_UPDATES: usize = 256;

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
#[derive(Debug, Default, Clone)]
struct WindowSamples {
    runs: Vec<(Option<PathId>, u32)>,
    /// Number of duplicate announcements.
    duplicates: u32,
    /// Running observe-time aggregate of `runs`: total samples per
    /// *distinct* path, in first-seen order. Window close sums §4.1.2
    /// contributions over this vector — one path evaluation per distinct
    /// path even when runs alternate (A,B,A,B…). Derived state: rebuilt
    /// from `runs` on load, never persisted.
    counts: Vec<(Option<PathId>, u32)>,
}

impl WindowSamples {
    fn starting(path: Option<PathId>) -> Self {
        WindowSamples { runs: vec![(path, 1)], duplicates: 0, counts: vec![(path, 1)] }
    }

    fn push(&mut self, path: Option<PathId>) {
        match self.runs.last_mut() {
            Some((p, n)) if *p == path => *n += 1,
            _ => self.runs.push((path, 1)),
        }
        // Distinct paths per (vp, prefix, window) are few; a linear scan
        // beats hashing at this size.
        match self.counts.iter_mut().find(|(p, _)| *p == path) {
            Some((_, n)) => *n += 1,
            None => self.counts.push((path, 1)),
        }
    }
}

/// One ingestion shard: the slice of mutable per-update state owned by the
/// prefixes hashing to it. Everything [`BgpMonitors::observe`] writes lives
/// here, and every cross-vantage-point read during ingestion (§4.1.3's
/// guard 2, duplicate detection) stays within the update's own prefix —
/// hence within one shard — so shards never contend.
#[derive(Debug, Default)]
struct IngestShard {
    /// RIB mirror partition: interned (path, communities) per (vp, prefix).
    rib: HashMap<(VpId, Prefix), (PathId, CommsId)>,
    /// Open-window sample partition.
    window: HashMap<(VpId, Prefix), WindowSamples>,
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
    /// snapshot base. Over-approximation is fine.
    dirty_rib: BTreeSet<(VpId, Prefix)>,
    /// Arena lengths at the last full snapshot base; items past these
    /// indices form the delta tails.
    paths_base: usize,
    comms_base: usize,
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
    by_prefix: HashMap<Prefix, Vec<GroupKey>>,
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
    /// Worker threads for `observe_batch` / `close_window` (≤ 1 selects
    /// the serial path).
    threads: usize,
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
            by_prefix: HashMap::new(),
            shards: (0..NUM_SHARDS).map(|_| IngestShard::default()).collect(),
            strip_asns,
            detector,
            absorb_outliers,
            interner: KeyInterner::new(),
            groups_of: HashMap::new(),
            closes: 0,
            threads: 1,
            park_enabled: true,
            delta_groups: BTreeSet::new(),
            delta_reg: false,
        }
    }

    /// Sets the worker count for [`BgpMonitors::observe_batch`] and
    /// [`BgpMonitors::close_window`]. Values ≤ 1 select the serial paths;
    /// the emitted signal stream and all internal state are identical at
    /// any thread count.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
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

    fn new_series(&self) -> MonitoredSeries {
        MonitoredSeries::default().with_absorb_outliers(self.absorb_outliers)
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

    /// Feeds a batch of updates, partitioned by prefix shard across the
    /// configured worker threads. Per-shard update order follows batch
    /// order, all state an update touches lives in its prefix's shard, and
    /// monitor groups are read-only during ingestion — so the resulting
    /// RIB mirror, window samples, and pending signals are bit-identical
    /// to feeding the same slice through [`BgpMonitors::observe`] one
    /// update at a time, at any thread count.
    pub fn observe_batch(&mut self, updates: &[BgpUpdate]) {
        if self.threads <= 1 || updates.len() < MIN_PAR_UPDATES {
            for u in updates {
                self.observe(u);
            }
            return;
        }
        let mut buckets: Vec<Vec<&BgpUpdate>> = (0..NUM_SHARDS).map(|_| Vec::new()).collect();
        for u in updates {
            buckets[shard_of(u.prefix)].push(u);
        }
        let groups = &self.groups;
        let by_prefix = &self.by_prefix;
        let strip_asns = &self.strip_asns;
        let per = NUM_SHARDS.div_ceil(self.threads.min(NUM_SHARDS));
        std::thread::scope(|s| {
            for (shard_chunk, bucket_chunk) in self.shards.chunks_mut(per).zip(buckets.chunks(per))
            {
                if bucket_chunk.iter().all(|b| b.is_empty()) {
                    continue;
                }
                s.spawn(move || {
                    for (shard, bucket) in shard_chunk.iter_mut().zip(bucket_chunk) {
                        for u in bucket {
                            shard_observe(shard, groups, by_prefix, strip_asns, u);
                        }
                    }
                });
            }
        });
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
            for (&k, ws) in &shard.window {
                let mut paths = Vec::new();
                for &(pid, n) in &ws.runs {
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
    ///
    /// With [`BgpMonitors::set_threads`] > 1 the monitor groups — each one
    /// ⟨destination prefix, AS path⟩ shard — are split across scoped worker
    /// threads, and per-shard outputs are concatenated in shard order.
    /// `BTreeMap` iteration is sorted, so the emitted stream is
    /// bit-identical to the serial path.
    pub fn close_window(
        &mut self,
        window: Window,
        time: Timestamp,
        comm_allowed: &(dyn Fn(Community, Prefix) -> bool + Sync),
    ) -> (Vec<StalenessSignal>, Vec<RevokeEvent>) {
        // Fold the shards' pending §4.1.3 changes into their groups. Each
        // group is owned by exactly one shard (its prefix's), so per-group
        // ordering is the shard's arrival order regardless of how the
        // shard maps iterate. A pending change also marks the group dirty:
        // it must run the full evaluation this close.
        for shard in &mut self.shards {
            for (gk, items) in shard.pending_comm.drain() {
                if let Some(g) = self.groups.get_mut(&gk) {
                    g.pending_comm.extend(items);
                    g.dirty_window = true;
                }
            }
        }
        let window_samples: Vec<HashMap<(VpId, Prefix), WindowSamples>> =
            self.shards.iter_mut().map(|s| std::mem::take(&mut s.window)).collect();

        // Dirty-set derivation: window entries are created only for
        // monitored prefixes (both the announce and withdraw branches of
        // ingestion), so the taken sample keys name exactly the prefixes
        // whose groups saw input this window. Every other group ran against
        // a frozen RIB. Cost is proportional to churn, not corpus size.
        let mut dirty_prefixes: HashSet<Prefix> = HashSet::new();
        for m in &window_samples {
            for &(_, p) in m.keys() {
                dirty_prefixes.insert(p);
            }
        }
        for p in &dirty_prefixes {
            if let Some(gks) = self.by_prefix.get(p) {
                for gk in gks {
                    if let Some(g) = self.groups.get_mut(gk) {
                        g.dirty_window = true;
                    }
                }
            }
        }
        // Unpark every dirty parked group before evaluation: replay the
        // quiet closes it skipped in closed form, then let the normal close
        // path run on the fresh samples.
        let closes = self.closes;
        for g in self.groups.values_mut() {
            if g.dirty_window && g.park.is_some() {
                unpark_group(g, closes);
            }
        }

        let ctx = CloseCtx {
            window,
            time,
            det: self.detector,
            shards: &self.shards,
            samples: &window_samples,
            comm_allowed,
            park: self.park_enabled,
            close_seq: closes + 1,
        };

        // Parked groups are skipped outright. Filtering a sorted BTreeMap
        // iteration yields a subsequence of the full-scan evaluation order,
        // and parked groups provably emit nothing, so the concatenated
        // output stream is unchanged.
        let mut signals = Vec::new();
        let mut revokes = Vec::new();
        let mut work: Vec<&mut Group> =
            self.groups.values_mut().filter(|g| g.park.is_none()).collect();
        if self.threads <= 1 || work.len() < 2 {
            for g in work {
                close_group(g, &ctx, &mut signals, &mut revokes);
            }
        } else {
            let per = work.len().div_ceil(self.threads);
            let ctx = &ctx;
            let outs: Vec<(Vec<StalenessSignal>, Vec<RevokeEvent>)> = std::thread::scope(|s| {
                let handles: Vec<_> = work
                    .chunks_mut(per)
                    .map(|chunk| {
                        s.spawn(move || {
                            let mut sig = Vec::new();
                            let mut rev = Vec::new();
                            for g in chunk.iter_mut() {
                                close_group(g, ctx, &mut sig, &mut rev);
                            }
                            (sig, rev)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("window shard worker")).collect()
            });
            for (s, r) in outs {
                signals.extend(s);
                revokes.extend(r);
            }
        }
        self.closes += 1;
        // Every group evaluated this close — including those that parked at
        // its end — mutated series state; record it for delta checkpoints.
        let seq = self.closes;
        for (gk, g) in &self.groups {
            let evaluated = match &g.park {
                None => true,
                Some(p) => p.since == seq,
            };
            if evaluated {
                self.delta_groups.insert(gk.clone());
            }
        }
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
            // Final value per dirtied RIB key (`None` = withdrawn). The
            // dirty set is a BTreeSet, so the op order is deterministic.
            let ops: RibDeltaOps =
                shard.dirty_rib.iter().map(|&k| (k, shard.rib.get(&k).copied())).collect();
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

/// Per-update ingestion core, operating on the update's prefix shard. The
/// serial [`BgpMonitors::observe`] and sharded [`BgpMonitors::observe_batch`]
/// paths both funnel through this function; it only writes shard-owned
/// state and only reads the (frozen-during-ingestion) monitor groups, which
/// is what makes the batch path embarrassingly parallel.
fn shard_observe(
    shard: &mut IngestShard,
    groups: &BTreeMap<GroupKey, Group>,
    by_prefix: &HashMap<Prefix, Vec<GroupKey>>,
    strip_asns: &[Asn],
    u: &BgpUpdate,
) {
    let gks = by_prefix.get(&u.prefix).map(Vec::as_slice).unwrap_or(&[]);
    let monitored = !gks.is_empty();
    let old = shard.rib.get(&(u.vp, u.prefix)).copied();

    match &u.elem {
        BgpElem::Announce { path, communities } => {
            // Strip once per update into the shard's reusable scratch
            // buffer; interning clones only the first occurrence of a
            // distinct path or community set.
            let mut stripped = std::mem::take(&mut shard.strip_scratch);
            path.stripped_into(strip_asns, &mut stripped);
            let pid = shard.paths.intern(&stripped);
            shard.strip_scratch = stripped; // hand the buffer back
            let cid = shard.comms.intern(communities);

            if monitored {
                let entry = shard
                    .window
                    .entry((u.vp, u.prefix))
                    .or_insert_with(|| WindowSamples::starting(old.map(|(p, _)| p)));
                entry.push(Some(pid));
                // Duplicate announcement (§4.1.4): same interned path and
                // community-set ids as the standing route — two integer
                // comparisons instead of deep vector equality.
                if old == Some((pid, cid)) {
                    entry.duplicates += 1;
                }

                // §4.1.3: community change detection per group.
                for gk in gks {
                    detect_comm_change(shard, groups, gk, u.vp, old, pid, cid);
                }
            }
            shard.rib.insert((u.vp, u.prefix), (pid, cid));
            shard.dirty_rib.insert((u.vp, u.prefix));
        }
        BgpElem::Withdraw => {
            if monitored {
                let entry = shard
                    .window
                    .entry((u.vp, u.prefix))
                    .or_insert_with(|| WindowSamples::starting(old.map(|(p, _)| p)));
                entry.push(None);
            }
            shard.rib.remove(&(u.vp, u.prefix));
            shard.dirty_rib.insert((u.vp, u.prefix));
        }
    }
}

/// §4.1.3 edge detection for one update against one group. Reads the
/// shard's pre-update RIB partition and the group's registration-time
/// state, and records changes into the shard's pending buffer — the group
/// itself is untouched, keeping ingestion lock-free across shards.
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

/// Read-only context shared by every worker while one window closes.
/// Lookups route through the prefix-shard layout: the RIB mirror and the
/// taken window samples are both per-shard, and interned path ids resolve
/// against the owning shard's arena.
struct CloseCtx<'a> {
    window: Window,
    time: Timestamp,
    det: BitmapDetector,
    shards: &'a [IngestShard],
    samples: &'a [HashMap<(VpId, Prefix), WindowSamples>],
    comm_allowed: &'a (dyn Fn(Community, Prefix) -> bool + Sync),
    /// Whether quiet groups may cache values and park.
    park: bool,
    /// Close counter value this close will commit as.
    close_seq: u64,
}

impl CloseCtx<'_> {
    fn rib(&self, vp: VpId, prefix: Prefix) -> Option<(&AsPath, &Vec<Community>)> {
        self.shards[shard_of(prefix)].rib_resolved(vp, prefix)
    }

    fn samples(&self, vp: VpId, prefix: Prefix) -> Option<&WindowSamples> {
        self.samples[shard_of(prefix)].get(&(vp, prefix))
    }

    fn path(&self, prefix: Prefix, id: PathId) -> &AsPath {
        self.shards[shard_of(prefix)].paths.get(id)
    }
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
/// appending signals and revocations in deterministic monitor order. The
/// serial and sharded paths of [`BgpMonitors::close_window`] both funnel
/// through this function, so the emitted stream is identical at any
/// thread count.
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
                    match ctx.samples(vp, dst) {
                        Some(ws) => {
                            // One evaluation per distinct path, via the
                            // observe-time aggregate.
                            for &(pid, n) in &ws.counts {
                                if let Some(pid) = pid {
                                    scan(ctx.path(dst, pid), n);
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
    for b in &mut g.bursts {
        let dups_of = |vp: VpId| -> u32 { ctx.samples(vp, dst).map(|w| w.duplicates).unwrap_or(0) };
        let u_val = b.v0.iter().filter(|vp| dups_of(**vp) > 0).count() as f64;
        let u_verdict = b.u_series.push(Some(u_val), &ctx.det);

        // Advance confounder series regardless, so they stay aligned.
        let mut outlier_confounders: BTreeSet<Asn> = BTreeSet::new();
        for (a_k, w_set) in &b.confounders {
            let u2 = w_set.iter().filter(|vp| dups_of(**vp) > 0).count() as f64;
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
                dups_of(*vp) > 0
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

// `counts` is a pure function of `runs`; rebuilding it on load keeps the
// wire format identical to the pre-aggregate encoding.
impl Persist for WindowSamples {
    fn store<W: std::io::Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        self.runs.store(e)?;
        self.duplicates.store(e)
    }
    fn load<R: std::io::Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        let runs: Vec<(Option<PathId>, u32)> = Persist::load(d)?;
        let duplicates = Persist::load(d)?;
        let mut counts: Vec<(Option<PathId>, u32)> = Vec::new();
        for &(p, n) in &runs {
            match counts.iter_mut().find(|(q, _)| *q == p) {
                Some((_, c)) => *c += n,
                None => counts.push((p, n)),
            }
        }
        Ok(WindowSamples { runs, duplicates, counts })
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
        let rib: HashMap<(VpId, Prefix), (PathId, CommsId)> = Persist::load(d)?;
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
        })
    }
}

// The worker count is runtime configuration, not state: it is re-applied via
// [`BgpMonitors::set_threads`] after load. Monitor keys are re-interned
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
            threads: 1,
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
}
