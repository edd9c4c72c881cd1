//! Internet-weather worlds: generator-driven evaluation regimes with
//! periodic churn schedules, degraded vantage-point feeds, and a lazily
//! materialized large-scale topology.
//!
//! Where the scenario corpus (`rrr-sim`) proves the pipeline survives
//! *faults*, a weather world measures detection *quality*: every routing
//! event it injects is recorded in a ground-truth log, so a run can be
//! scored for per-window signal precision and coverage. The phenomena
//! come from the two measurement papers this instrument leans on:
//!
//! - **Periodic churn** (*The Internet Pendulum*): link-fail/restore,
//!   egress-shift, and community-churn events are sampled from
//!   sinusoidal diurnal/weekly [`RateEnvelope`]s rather than flat
//!   Poisson rates.
//! - **Degraded feeds** (*Most Valuable Points*): vantage points drop
//!   updates, skew timestamps, and mirror one upstream in redundancy
//!   groups of `k`, so the detector sees the biased collector view a
//!   real deployment would.
//!
//! The world itself is a [`LazyTopology`] (~100k ASes / ~1M prefixes by
//! default) that materializes provider chains on first touch: a soak of
//! thousands of windows over a few hundred corpus prefixes allocates
//! state proportional to what it touched, never to the world size.
//!
//! Event model per corpus prefix (a tiny state machine driven by the
//! envelopes; every *transition* is a truth event):
//!
//! - `LinkFail` → the path takes the [`PathVariant::Detour`] until a
//!   sampled hold expires (`LinkRestore`), both route-changing;
//! - `EgressShift` → [`PathVariant::EgressShift`] until expiry
//!   (`EgressRevert`), both route-changing;
//! - `CommunityChurn` → a one-window community flip with an unchanged
//!   path: *not* route-changing, so any signal it triggers counts
//!   against precision — the §4.1.3 noise floor.

use rrr_bgp::envelope::{mix64, RateEnvelope};
use rrr_core::{DetectorConfig, StalenessDetector};
use rrr_geo::{GeoDb, Geolocator};
use rrr_ip2as::{AliasResolver, IpToAsMap};
use rrr_topology::{generate, LazyConfig, LazyTopology, PathVariant, TopologyConfig};
use rrr_types::{
    AsPath, Asn, BgpElem, BgpUpdate, Community, Hop, Prefix, ProbeId, Timestamp, Traceroute,
    TracerouteId, VpId,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Window length in seconds (one RouteViews dump cycle, the BGP window).
pub const WINDOW_SECS: u64 = 900;

/// What happened to one corpus prefix at one window, per the generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TruthKind {
    LinkFail,
    LinkRestore,
    EgressShift,
    EgressRevert,
    /// Community flip with an unchanged AS path — noise, not staleness.
    CommunityChurn,
}

impl TruthKind {
    /// Whether the event changed the route (the staleness ground truth).
    pub fn route_changing(self) -> bool {
        !matches!(self, TruthKind::CommunityChurn)
    }
}

/// One ground-truth log entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TruthEvent {
    pub window: u64,
    /// Index into the world's corpus prefix list.
    pub corpus_idx: usize,
    pub kind: TruthKind,
}

/// Per-VP feed degradation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeedModel {
    /// Per-(vp, prefix, window) announcement drop probability.
    pub loss: f64,
    /// Timestamp skew applied to skewed VPs, clamped into the window.
    pub skew_secs: i64,
    /// Every `skewed_stride`-th VP is skewed (0 disables skew).
    pub skewed_stride: u32,
    /// Redundancy-group size: `k` VPs mirror one upstream — identical
    /// paths after the first hop and one shared loss coin per group.
    pub redundancy_k: u32,
}

impl FeedModel {
    pub fn clean() -> Self {
        FeedModel { loss: 0.0, skew_secs: 0, skewed_stride: 0, redundancy_k: 1 }
    }
}

/// A named weather regime: envelopes, hold durations, and feed model.
#[derive(Debug, Clone, PartialEq)]
pub struct Regime {
    pub name: &'static str,
    pub link_fail: RateEnvelope,
    pub egress_shift: RateEnvelope,
    pub community_churn: RateEnvelope,
    /// Link-failure hold in windows, sampled uniformly inclusive.
    pub fail_hold: (u64, u64),
    /// Egress-shift hold in windows, sampled uniformly inclusive.
    pub shift_hold: (u64, u64),
    pub feed: FeedModel,
}

impl Regime {
    /// Every regime family, one per generated phenomenon.
    pub const FAMILIES: [&'static str; 4] = ["diurnal", "weekly", "lossy", "redundant"];

    /// Looks up a regime family by name.
    pub fn by_name(name: &str) -> Option<Regime> {
        // Rates are events/day over the whole corpus; at 96 windows/day a
        // base of ~100/day peaks near 2 events per window under a 0.7
        // swing — enough for mixed (TP + FP) windows without drowning the
        // series in churn.
        match name {
            "diurnal" => Some(Regime {
                name: "diurnal",
                link_fail: RateEnvelope::periodic(110.0, 0.7, 0.1, 0.0),
                egress_shift: RateEnvelope::periodic(70.0, 0.6, 0.2, 10_800.0),
                community_churn: RateEnvelope::periodic(160.0, 0.7, 0.0, 21_600.0),
                fail_hold: (2, 8),
                shift_hold: (3, 10),
                feed: FeedModel { loss: 0.05, skew_secs: 0, skewed_stride: 0, redundancy_k: 1 },
            }),
            "weekly" => Some(Regime {
                name: "weekly",
                link_fail: RateEnvelope::periodic(90.0, 0.2, 0.7, 43_200.0),
                egress_shift: RateEnvelope::periodic(60.0, 0.3, 0.6, 0.0),
                community_churn: RateEnvelope::periodic(140.0, 0.2, 0.6, 86_400.0),
                fail_hold: (3, 12),
                shift_hold: (4, 16),
                feed: FeedModel { loss: 0.03, skew_secs: 0, skewed_stride: 0, redundancy_k: 1 },
            }),
            "lossy" => Some(Regime {
                name: "lossy",
                link_fail: RateEnvelope::periodic(100.0, 0.3, 0.0, 0.0),
                egress_shift: RateEnvelope::periodic(60.0, 0.3, 0.0, 7_200.0),
                community_churn: RateEnvelope::periodic(150.0, 0.3, 0.0, 14_400.0),
                fail_hold: (2, 8),
                shift_hold: (3, 10),
                feed: FeedModel { loss: 0.35, skew_secs: 240, skewed_stride: 2, redundancy_k: 1 },
            }),
            "redundant" => Some(Regime {
                name: "redundant",
                link_fail: RateEnvelope::periodic(100.0, 0.4, 0.1, 0.0),
                egress_shift: RateEnvelope::periodic(60.0, 0.4, 0.1, 18_000.0),
                community_churn: RateEnvelope::periodic(150.0, 0.4, 0.0, 32_400.0),
                fail_hold: (2, 8),
                shift_hold: (3, 10),
                feed: FeedModel { loss: 0.25, skew_secs: 120, skewed_stride: 3, redundancy_k: 3 },
            }),
            _ => None,
        }
    }
}

/// World dimensions, decoupled from the regime so the same physics runs
/// at corpus-test scale and soak scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeatherScale {
    pub ases: u32,
    pub prefixes: u32,
    /// Monitored corpus size (traceroutes / tracked destination prefixes).
    pub corpus: u32,
    pub vps: u32,
}

impl WeatherScale {
    /// Soak scale: ~100k ASes, ~1M prefixes, lazily materialized.
    pub fn full() -> Self {
        WeatherScale { ases: 100_000, prefixes: 1 << 20, corpus: 384, vps: 12 }
    }

    /// Corpus-test scale: small enough for scenario runs and CI smoke.
    pub fn small() -> Self {
        WeatherScale { ases: 2_048, prefixes: 1 << 14, corpus: 24, vps: 6 }
    }
}

/// Per-corpus-prefix dynamic state.
#[derive(Debug, Clone, Copy)]
struct PrefixState {
    fail_until: u64,
    shift_until: u64,
    prev: PathVariant,
}

/// A weather world: lazy topology, corpus, event state machine, and the
/// degraded per-VP update feed. Construction is cheap; everything heavy
/// materializes per advanced window.
pub struct WeatherWorld {
    pub regime: Regime,
    pub scale: WeatherScale,
    pub seed: u64,
    topo: LazyTopology,
    /// Corpus prefix indices (distinct, hash-spread over the plan).
    corpus: Vec<u32>,
    by_prefix: HashMap<Prefix, usize>,
    state: Vec<PrefixState>,
}

const SALT_CORPUS: u64 = 0x10;
const SALT_FAIL: u64 = 0x20;
const SALT_SHIFT: u64 = 0x30;
const SALT_COMM: u64 = 0x40;
const SALT_LOSS: u64 = 0x50;
const SALT_OFFSET: u64 = 0x60;
const SALT_HOLD: u64 = 0x70;

/// Community operator ASN: communities carry 16-bit ASNs, so the
/// (32-bit) derived core ASNs can't own them — a private-range constant
/// plays the role of "the operator tagging its routes".
const COMM_OPERATOR: u32 = 64_512;

impl WeatherWorld {
    pub fn new(regime: Regime, scale: WeatherScale, seed: u64) -> Self {
        let topo = LazyTopology::new(LazyConfig::new(scale.ases, scale.prefixes, seed));
        // Distinct hash-spread corpus prefixes: probe linearly from a
        // hashed start so collisions stay deterministic.
        let mut corpus = Vec::with_capacity(scale.corpus as usize);
        let mut seen = std::collections::HashSet::new();
        let mut i = 0u64;
        while corpus.len() < scale.corpus as usize {
            let p = (mix64(seed ^ SALT_CORPUS ^ i) % scale.prefixes as u64) as u32;
            if seen.insert(p) {
                corpus.push(p);
            }
            i += 1;
        }
        let by_prefix =
            corpus.iter().enumerate().map(|(ci, &p)| (topo.dst_prefix(p), ci)).collect();
        let state = vec![
            PrefixState { fail_until: 0, shift_until: 0, prev: PathVariant::Steady };
            corpus.len()
        ];
        WeatherWorld { regime, scale, seed, topo, corpus, by_prefix, state }
    }

    /// The corpus index monitoring `prefix`, if any — how signals
    /// (scoped by destination prefix) map back to ground truth.
    pub fn corpus_index_of(&self, prefix: Prefix) -> Option<usize> {
        self.by_prefix.get(&prefix).copied()
    }

    /// Materialized provider chains so far — the laziness witness.
    pub fn materialized_chains(&self) -> usize {
        self.topo.materialized_chains()
    }

    /// Vantage points with AS numbers (MRT peer registration).
    pub fn vp_asns(&self) -> Vec<(VpId, Asn)> {
        (0..self.scale.vps).map(|v| (VpId(v), self.topo.vp_asn(v))).collect()
    }

    fn skewed(&self, vp: u32) -> bool {
        let stride = self.regime.feed.skewed_stride;
        stride > 0 && vp.is_multiple_of(stride)
    }

    fn hold(&self, lo: u64, hi: u64, key: u64) -> u64 {
        lo + mix64(self.seed ^ SALT_HOLD ^ key) % (hi - lo + 1)
    }

    fn variant_at(st: &PrefixState, w: u64) -> PathVariant {
        if w < st.fail_until {
            PathVariant::Detour
        } else if w < st.shift_until {
            PathVariant::EgressShift
        } else {
            PathVariant::Steady
        }
    }

    /// One announcement for `(vp, corpus ci)` at window `w`, or `None`
    /// when the feed dropped it. `tail` is the group-shared path after
    /// the VP's own AS.
    fn announcement(
        &mut self,
        vp: u32,
        ci: usize,
        w: u64,
        tail: &[u32],
        comm_variant: Option<u32>,
    ) -> Option<BgpUpdate> {
        let k = self.regime.feed.redundancy_k.max(1);
        // Redundant VPs mirror one upstream: the loss coin is the
        // group's, so a gap in the upstream feed hits every mirror.
        let loss_key = if k > 1 { vp / k } else { vp };
        let coin = mix64(self.seed ^ SALT_LOSS ^ mix64(w) ^ ((loss_key as u64) << 32) ^ ci as u64);
        if ((coin >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < self.regime.feed.loss {
            return None;
        }
        let p = self.corpus[ci];
        let start = w * WINDOW_SECS;
        let off =
            mix64(self.seed ^ SALT_OFFSET ^ ((vp as u64) << 32) ^ ci as u64) % (WINDOW_SECS - 20);
        let mut t = start + off;
        if self.skewed(vp) {
            let skewed = t as i64 + self.regime.feed.skew_secs;
            t = skewed.clamp(start as i64, (start + WINDOW_SECS - 1) as i64) as u64;
        }
        let mut path = Vec::with_capacity(1 + tail.len());
        path.push(self.topo.vp_asn(vp).0);
        path.extend_from_slice(tail);
        let communities = match comm_variant {
            Some(vr) => vec![Community::new(COMM_OPERATOR, 60_002 + vr)],
            None => vec![Community::new(COMM_OPERATOR, 60_001)],
        };
        Some(BgpUpdate {
            time: Timestamp(t),
            vp: VpId(vp),
            prefix: self.topo.dst_prefix(p),
            elem: BgpElem::Announce { path: AsPath::from_asns(path), communities },
        })
    }

    /// Generates window `w`: samples events from the envelopes, advances
    /// the per-prefix state machines, and emits the degraded update feed.
    /// Returns the window's updates (time-sorted) and its truth events.
    pub fn advance(&mut self, w: u64) -> (Vec<BgpUpdate>, Vec<TruthEvent>) {
        let start = w * WINDOW_SECS;
        let mut truth = Vec::new();
        let mut comm_flips: HashMap<usize, u32> = HashMap::new();

        // 1. Sample this window's events per family.
        let families: [(u64, RateEnvelope); 3] = [
            (SALT_FAIL, self.regime.link_fail),
            (SALT_SHIFT, self.regime.egress_shift),
            (SALT_COMM, self.regime.community_churn),
        ];
        for (salt, env) in families {
            let n = env.sample_in(self.seed ^ salt, start, WINDOW_SECS);
            for e in 0..n as u64 {
                let ci = (mix64(self.seed ^ salt ^ mix64(w) ^ (e << 40)) % self.corpus.len() as u64)
                    as usize;
                match salt {
                    SALT_FAIL if w >= self.state[ci].fail_until => {
                        let (lo, hi) = self.regime.fail_hold;
                        self.state[ci].fail_until =
                            w + self.hold(lo, hi, mix64(w) ^ ci as u64 ^ salt);
                    }
                    SALT_SHIFT if w >= self.state[ci].shift_until => {
                        let (lo, hi) = self.regime.shift_hold;
                        self.state[ci].shift_until =
                            w + self.hold(lo, hi, mix64(w) ^ ci as u64 ^ salt);
                    }
                    SALT_COMM => {
                        comm_flips.insert(ci, (mix64(self.seed ^ salt ^ mix64(w) ^ e) % 4) as u32);
                    }
                    _ => {}
                }
            }
        }

        // 2. Record transitions (the route-changing ground truth) and
        //    community churn (the noise floor).
        let mut variants = Vec::with_capacity(self.corpus.len());
        for ci in 0..self.corpus.len() {
            let cur = Self::variant_at(&self.state[ci], w);
            let prev = self.state[ci].prev;
            if cur != prev {
                let kind = match (prev, cur) {
                    (_, PathVariant::Detour) => TruthKind::LinkFail,
                    (PathVariant::Detour, PathVariant::EgressShift) => TruthKind::EgressShift,
                    (PathVariant::Detour, _) => TruthKind::LinkRestore,
                    (_, PathVariant::EgressShift) => TruthKind::EgressShift,
                    (PathVariant::EgressShift, _) => TruthKind::EgressRevert,
                    _ => unreachable!("prev != cur covers every remaining pair"),
                };
                truth.push(TruthEvent { window: w, corpus_idx: ci, kind });
                self.state[ci].prev = cur;
            }
            if comm_flips.contains_key(&ci) {
                truth.push(TruthEvent {
                    window: w,
                    corpus_idx: ci,
                    kind: TruthKind::CommunityChurn,
                });
            }
            variants.push(cur);
        }

        // 3. Emit the degraded feed: per redundancy group, one shared
        //    path tail; per VP, its own first hop, loss coin, and skew.
        let k = self.regime.feed.redundancy_k.max(1);
        let mut updates = Vec::with_capacity(self.corpus.len() * self.scale.vps as usize);
        for (ci, &variant) in variants.iter().enumerate() {
            let p = self.corpus[ci];
            let comm = comm_flips.get(&ci).copied();
            let mut g = 0;
            while g * k < self.scale.vps {
                let rep = g * k;
                let tail: Vec<u32> = self.topo.as_path(rep, p, variant)[1..].to_vec();
                for vp in rep..(rep + k).min(self.scale.vps) {
                    if let Some(u) = self.announcement(vp, ci, w, &tail, comm) {
                        updates.push(u);
                    }
                }
                g += 1;
            }
        }
        updates.sort_by_key(|u| u.time);
        (updates, truth)
    }

    /// The RIB-mirror seed: every VP's steady-state path for every corpus
    /// prefix, at t = 0 (before the first window).
    pub fn rib_seed(&mut self) -> Vec<BgpUpdate> {
        let mut rib = Vec::new();
        let k = self.regime.feed.redundancy_k.max(1);
        for ci in 0..self.corpus.len() {
            let p = self.corpus[ci];
            let mut g = 0;
            while g * k < self.scale.vps {
                let rep = g * k;
                let tail: Vec<u32> = self.topo.as_path(rep, p, PathVariant::Steady)[1..].to_vec();
                for vp in rep..(rep + k).min(self.scale.vps) {
                    let mut path = Vec::with_capacity(1 + tail.len());
                    path.push(self.topo.vp_asn(vp).0);
                    path.extend_from_slice(&tail);
                    rib.push(BgpUpdate {
                        time: Timestamp(0),
                        vp: VpId(vp),
                        prefix: self.topo.dst_prefix(p),
                        elem: BgpElem::Announce {
                            path: AsPath::from_asns(path),
                            communities: vec![Community::new(COMM_OPERATOR, 60_001)],
                        },
                    });
                }
                g += 1;
            }
        }
        rib
    }

    /// The corpus traceroutes: one per monitored prefix, hopping through
    /// the infrastructure address of every AS on the steady provider
    /// chain so the IP-derived AS path matches the BGP suffix.
    pub fn corpus_seed(&mut self) -> Vec<Traceroute> {
        (0..self.corpus.len()).map(|ci| self.corpus_trace(ci)).collect()
    }

    fn corpus_trace(&mut self, ci: usize) -> Traceroute {
        let p = self.corpus[ci];
        let origin = self.topo.origin_of(p);
        let chain: Vec<u32> = self.topo.chain(origin).to_vec();
        let dst = self.topo.dst_prefix(p).nth(1);
        let mut hops: Vec<Hop> = Vec::with_capacity(chain.len() + 1);
        for &a in chain.iter().rev() {
            hops.push(Hop::responsive(self.topo.infra_ip(a, 1)));
        }
        hops.push(Hop::responsive(dst));
        Traceroute {
            id: TracerouteId(1 + ci as u64),
            probe: ProbeId(ci as u32),
            src: self.topo.infra_ip(0, 200),
            dst,
            time: Timestamp(0),
            hops,
            reached: true,
        }
    }

    /// The detector environment for this world: a small placeholder
    /// `Topology` (the detector consults it only for registry/alias/geo
    /// services), an IP-to-AS map covering exactly the touched address
    /// plan, and empty geolocation.
    pub fn detector_env(
        &mut self,
    ) -> (Arc<rrr_topology::Topology>, IpToAsMap, Geolocator, AliasResolver) {
        let placeholder = Arc::new(generate(&TopologyConfig::small(3)));
        let mut map = IpToAsMap::new();
        let mut infra_added = std::collections::HashSet::new();
        for ci in 0..self.corpus.len() {
            let p = self.corpus[ci];
            let origin = self.topo.origin_of(p);
            map.add_origin(self.topo.dst_prefix(p), self.topo.asn(origin));
            for a in self.topo.chain(origin).to_vec() {
                if infra_added.insert(a) {
                    map.add_origin(self.topo.infra_prefix(a), self.topo.asn(a));
                }
            }
        }
        for c in 0..self.topo.config().core {
            if infra_added.insert(c) {
                map.add_origin(self.topo.infra_prefix(c), self.topo.asn(c));
            }
        }
        let alias = AliasResolver::from_topology(&placeholder, 1.0, 0);
        (placeholder, map, Geolocator::new(GeoDb::default(), vec![]), alias)
    }

    /// Builds a fresh, fully seeded detector for this world. Identical
    /// across calls (the world's caches only memoize pure derivations).
    /// `threads` only fills the ignored [`DetectorConfig::threads`].
    pub fn build_detector(&mut self, threads: usize) -> StalenessDetector {
        let (topo, map, geo, alias) = self.detector_env();
        let vps: Vec<VpId> = (0..self.scale.vps).map(VpId).collect();
        let cfg = DetectorConfig { seed: self.seed, threads, ..DetectorConfig::default() };
        let mut det = StalenessDetector::new(topo, map, geo, alias, vps, cfg);
        det.init_rib(&self.rib_seed());
        for tr in self.corpus_seed() {
            det.add_corpus(tr, None).expect("weather corpus trace is valid");
        }
        det
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_world(name: &str, seed: u64) -> WeatherWorld {
        WeatherWorld::new(Regime::by_name(name).expect("known regime"), WeatherScale::small(), seed)
    }

    #[test]
    fn every_family_resolves() {
        for f in Regime::FAMILIES {
            assert!(Regime::by_name(f).is_some(), "{f}");
        }
        assert!(Regime::by_name("nope").is_none());
    }

    #[test]
    fn generation_is_deterministic() {
        let mut a = small_world("diurnal", 7);
        let mut b = small_world("diurnal", 7);
        for w in 0..24 {
            let (ua, ta) = a.advance(w);
            let (ub, tb) = b.advance(w);
            assert_eq!(ua, ub, "window {w} updates");
            assert_eq!(ta, tb, "window {w} truth");
        }
        assert_eq!(a.rib_seed(), b.rib_seed());
        assert_eq!(a.corpus_seed(), b.corpus_seed());
    }

    #[test]
    fn truth_records_transitions_and_noise() {
        let mut w = small_world("diurnal", 3);
        let mut fails = 0;
        let mut restores = 0;
        let mut churns = 0;
        for win in 0..96 {
            let (_, truth) = w.advance(win);
            for t in &truth {
                match t.kind {
                    TruthKind::LinkFail => fails += 1,
                    TruthKind::LinkRestore => restores += 1,
                    TruthKind::CommunityChurn => churns += 1,
                    _ => {}
                }
            }
        }
        assert!(fails > 0, "a day of diurnal weather must fail some links");
        assert!(restores > 0, "holds expire within the day");
        assert!(churns > 0, "community noise is part of the regime");
        assert!(restores <= fails, "every restore had a fail");
    }

    #[test]
    fn lossy_feed_drops_updates_and_redundant_mirrors_share_tails() {
        let mut clean = small_world("diurnal", 5);
        let mut lossy = small_world("lossy", 5);
        let full: usize = (0..8).map(|w| clean.advance(w).0.len()).sum();
        let dropped: usize = (0..8).map(|w| lossy.advance(w).0.len()).sum();
        assert!(
            (dropped as f64) < full as f64 * 0.85,
            "lossy feed kept {dropped} of {full} updates"
        );

        let mut red = small_world("redundant", 5);
        let (updates, _) = red.advance(0);
        let k = red.regime.feed.redundancy_k;
        // Two VPs of the same group announcing the same prefix differ
        // only in their first hop.
        let mut by_prefix: HashMap<Prefix, Vec<&BgpUpdate>> = HashMap::new();
        for u in &updates {
            by_prefix.entry(u.prefix).or_default().push(u);
        }
        let mut mirrored = 0;
        for (_, us) in by_prefix {
            for a in &us {
                for b in &us {
                    if a.vp.0 < b.vp.0 && a.vp.0 / k == b.vp.0 / k {
                        let pa = a.elem.path().expect("announce");
                        let pb = b.elem.path().expect("announce");
                        assert_eq!(pa.0[1..], pb.0[1..], "group tails mirror");
                        mirrored += 1;
                    }
                }
            }
        }
        assert!(mirrored > 0, "redundancy groups must overlap in the feed");
    }

    #[test]
    fn world_stays_lazy() {
        let mut w = WeatherWorld::new(
            Regime::by_name("diurnal").expect("regime"),
            WeatherScale { ases: 100_000, prefixes: 1 << 20, corpus: 32, vps: 6 },
            11,
        );
        for win in 0..8 {
            let _ = w.advance(win);
        }
        assert!(
            w.materialized_chains() < 4_096,
            "touched {} chains for 32 prefixes",
            w.materialized_chains()
        );
    }

    #[test]
    fn detector_builds_and_registers_the_corpus() {
        let mut w = small_world("diurnal", 9);
        let det = w.build_detector(1);
        assert_eq!(det.corpus().len(), WeatherScale::small().corpus as usize);
        det.validate().expect("fresh weather detector is consistent");
    }
}
