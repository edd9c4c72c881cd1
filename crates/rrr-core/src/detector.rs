//! The top-level staleness detector: owns the corpus, all six monitor
//! families, and calibration; consumes BGP update and public traceroute
//! streams; emits signals; plans and verifies refreshes.

use crate::bgp_monitors::{BgpMonitors, RevokeEvent};
use crate::calibration::{Calibrator, Outcome, RefreshPlan};
use crate::corpus::Corpus;
use crate::ixp_monitor::IxpMonitor;
use crate::signal::{SignalKey, SignalScope, StalenessSignal, Technique};
use crate::trace_monitors::TraceMonitors;
use rrr_anomaly::{BitmapDetector, ModifiedZScore};
use rrr_geo::Geolocator;
use rrr_ip2as::{find_borders_in, hop_origins, map_traceroute, AliasResolver, IpToAsMap};
use rrr_obs::{labeled, Counter, Gauge, Histogram, Metrics};
use rrr_store::{
    read_snapshot, write_snapshot, Decoder, Encoder, FrameKind, Persist, Snapshot, StoreError,
};
use rrr_topology::Topology;
use rrr_types::{
    Asn, BgpUpdate, Community, Timestamp, Traceroute, TracerouteId, VpId, Window, WindowConfig,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Detector configuration.
#[derive(Debug, Clone)]
pub struct DetectorConfig {
    pub seed: u64,
    /// BGP series window (the paper: 15 minutes, one RouteViews dump cycle).
    pub bgp_window: WindowConfig,
    /// Calibration sliding window length `l` (§4.3.1; default 30).
    pub calibration_l: usize,
    /// Enabled techniques (disable some for ablations).
    pub enabled: Vec<Technique>,
    /// Outlier detector for the BGP-derived series (the paper's Bitmap).
    pub bgp_detector: BitmapDetector,
    /// Outlier detector for the traceroute-derived series (the paper's
    /// modified z-score).
    pub trace_detector: ModifiedZScore,
    /// Ablation: absorb outliers into series histories instead of removing
    /// them (disables §4.1.2's stationarity preservation).
    pub absorb_outliers: bool,
    /// Ignored: the detector steps on the thread that calls it. Kept so
    /// callers that still set it compile; not in the checkpoint fingerprint.
    pub threads: usize,
    /// Dirty-set incremental window close: groups whose series are provably
    /// inert under quiet input are parked and caught up lazily, so close
    /// cost scales with churn instead of corpus size. The signal stream is
    /// identical at any setting (runtime tuning, not state — excluded from
    /// the checkpoint fingerprint).
    pub incremental_close: bool,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            seed: 1,
            bgp_window: WindowConfig::BGP,
            calibration_l: 30,
            enabled: Technique::ALL.to_vec(),
            bgp_detector: BitmapDetector::spike(),
            trace_detector: ModifiedZScore::default(),
            absorb_outliers: false,
            threads: 0,
            incremental_close: true,
        }
    }
}

/// Metric handles for one detector instance. All handles are no-ops until
/// [`StalenessDetector::set_metrics`] installs an enabled registry; metric
/// state is runtime instrumentation, not detector state — never
/// checkpointed, never fingerprinted, never consulted by the pipeline
/// (DESIGN.md §13).
#[derive(Default)]
pub(crate) struct DetectorObs {
    enabled: bool,
    steps: Counter,
    bgp_updates: Counter,
    public_traces: Counter,
    signals: Counter,
    windows_closed: Counter,
    close_incremental: Counter,
    close_full: Counter,
    close_ns: Histogram,
    parked_groups: Gauge,
    monitor_groups: Gauge,
    calibration_rolls: Counter,
    plan_refreshes: Counter,
    plan_ns: Histogram,
    trace_observe_ns: Histogram,
    trace_flush_ns: Histogram,
    trace_flush_visited: Counter,
}

impl DetectorObs {
    pub(crate) fn new(m: &Metrics, labels: &str) -> DetectorObs {
        DetectorObs {
            enabled: m.is_enabled(),
            steps: m.counter(&labeled("rrr_detector_steps_total", labels)),
            bgp_updates: m.counter(&labeled("rrr_detector_bgp_updates_total", labels)),
            public_traces: m.counter(&labeled("rrr_detector_public_traces_total", labels)),
            signals: m.counter(&labeled("rrr_detector_signals_total", labels)),
            windows_closed: m.counter(&labeled("rrr_detector_bgp_windows_closed_total", labels)),
            close_incremental: m.counter(&labeled("rrr_detector_close_incremental_total", labels)),
            close_full: m.counter(&labeled("rrr_detector_close_full_total", labels)),
            close_ns: m.histogram(&labeled("rrr_detector_window_close_ns", labels)),
            parked_groups: m.gauge(&labeled("rrr_detector_parked_groups", labels)),
            monitor_groups: m.gauge(&labeled("rrr_detector_monitor_groups", labels)),
            calibration_rolls: m.counter(&labeled("rrr_detector_calibration_rolls_total", labels)),
            plan_refreshes: m.counter(&labeled("rrr_detector_plan_refresh_total", labels)),
            plan_ns: m.histogram(&labeled("rrr_detector_plan_refresh_ns", labels)),
            trace_observe_ns: m.histogram(&labeled("rrr_detector_trace_observe_ns", labels)),
            trace_flush_ns: m.histogram(&labeled("rrr_detector_trace_flush_ns", labels)),
            trace_flush_visited: m
                .counter(&labeled("rrr_detector_trace_flush_visited_total", labels)),
        }
    }
}

/// The staleness detection pipeline.
pub struct StalenessDetector {
    pub(crate) cfg: DetectorConfig,
    pub(crate) topo: Arc<Topology>,
    map: IpToAsMap,
    geo: Geolocator,
    pub(crate) alias: AliasResolver,
    pub(crate) vps: Vec<VpId>,
    pub(crate) corpus: Corpus,
    pub(crate) bgp: BgpMonitors,
    pub(crate) trace: TraceMonitors,
    pub(crate) ixp: IxpMonitor,
    pub(crate) cal: Calibrator,
    /// Potential signals per corpus traceroute (interned handles).
    pub(crate) potential: HashMap<TracerouteId, Vec<Arc<SignalKey>>>,
    /// Active staleness assertions per corpus traceroute: signal → trigger
    /// communities (empty for non-community signals). Nesting by
    /// traceroute makes `remove_corpus` O(that traceroute's assertions).
    pub(crate) active: HashMap<TracerouteId, HashMap<Arc<SignalKey>, Vec<Community>>>,
    /// Next BGP window to close.
    pub(crate) next_bgp_window: Window,
    /// All signals ever emitted (experiment log).
    pub(crate) log: Vec<StalenessSignal>,
    /// Transient: CRC-32 of the full-snapshot payload delta frames are cut
    /// against (`None` until a full checkpoint or restore establishes one).
    delta_base: Option<u32>,
    /// Transient: sequence number of the last delta cut in this chain.
    delta_seq: u32,
    /// Transient: signal-log length at the delta base — deltas carry only
    /// the tail beyond it.
    log_mark: usize,
    /// Transient: corpus membership generation when state was last marked
    /// clean — gates whether deltas must repack the `potential` map.
    clean_membership_gen: u64,
    /// Transient: metric handles (no-ops unless `set_metrics` installed an
    /// enabled registry). Excluded from checkpoints and the config
    /// fingerprint.
    pub(crate) obs: DetectorObs,
}

impl StalenessDetector {
    pub fn new(
        topo: Arc<Topology>,
        map: IpToAsMap,
        geo: Geolocator,
        alias: AliasResolver,
        vps: Vec<VpId>,
        cfg: DetectorConfig,
    ) -> Self {
        let strip = topo.registry.route_server_asns.clone();
        let ixp = IxpMonitor::new(&topo);
        let mut bgp = BgpMonitors::new_with(strip, cfg.bgp_detector, cfg.absorb_outliers);
        bgp.set_incremental(cfg.incremental_close);
        let trace = TraceMonitors::new_with(cfg.trace_detector, cfg.absorb_outliers);
        StalenessDetector {
            cal: Calibrator::new(cfg.calibration_l, cfg.seed),
            bgp,
            trace,
            ixp,
            corpus: Corpus::new(),
            potential: HashMap::new(),
            active: HashMap::new(),
            next_bgp_window: Window(0),
            log: Vec::new(),
            delta_base: None,
            delta_seq: 0,
            log_mark: 0,
            clean_membership_gen: 0,
            obs: DetectorObs::default(),
            cfg,
            topo,
            map,
            geo,
            alias,
            vps,
        }
    }

    /// Installs metric handles from `metrics` (pass a disabled handle to
    /// turn instrumentation back into no-ops). Purely observational: the
    /// signal stream, checkpoints, and refresh plans are bit-identical with
    /// metrics on or off.
    pub fn set_metrics(&mut self, metrics: &Metrics) {
        self.set_metrics_labeled(metrics, "");
    }

    /// Like [`StalenessDetector::set_metrics`] but bakes a label set (e.g.
    /// `part="0"`) into every metric name, so several detector instances can
    /// share one registry as distinct series.
    pub fn set_metrics_labeled(&mut self, metrics: &Metrics, labels: &str) {
        self.obs = DetectorObs::new(metrics, labels);
    }

    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    pub fn calibrator(&self) -> &Calibrator {
        &self.cal
    }

    pub fn map(&self) -> &IpToAsMap {
        &self.map
    }

    pub fn signal_log(&self) -> &[StalenessSignal] {
        &self.log
    }

    /// Number of BGP windows closed so far (equivalently, the index of the
    /// next window to close). Drives the checkpoint cadence of
    /// [`crate::persist::DurableDetector`].
    pub fn closed_bgp_windows(&self) -> u64 {
        self.next_bgp_window.index()
    }

    fn enabled(&self, t: Technique) -> bool {
        self.cfg.enabled.contains(&t)
    }

    /// Seeds the BGP RIB mirror from a table dump.
    pub fn init_rib(&mut self, rib: &[BgpUpdate]) {
        self.bgp.init_rib(rib);
    }

    /// Seeds IXP membership from pre-t0 public traceroutes (§4.2.3's
    /// augmentation of PeeringDB).
    pub fn bootstrap_public(&mut self, traces: &[Traceroute]) {
        for tr in traces {
            self.ixp.bootstrap_trace(tr, &self.map);
        }
    }

    /// Inserts a traceroute into the monitored corpus and registers
    /// monitors. Returns `None` when the traceroute is disqualified
    /// (AS-mapping loop / empty path).
    pub fn add_corpus(&mut self, tr: Traceroute, src_asn: Option<Asn>) -> Option<TracerouteId> {
        let entry = self.corpus.insert(tr, &self.map, src_asn)?;
        let id = entry.id;
        let mut keys = Vec::new();
        if let Some(dst_prefix) = entry.dst_prefix {
            keys.extend(self.bgp.register(id, dst_prefix, &entry.as_path, &self.vps));
        }
        keys.extend(self.trace.register(entry, &self.map, &self.topo, &mut self.geo, &self.alias));
        entry.monitors = keys.len();
        self.potential.insert(id, keys);
        Some(id)
    }

    /// Removes a traceroute from the corpus and all monitors. Runs in
    /// O(this traceroute's monitors + assertions) — every map involved is
    /// indexed by traceroute.
    pub fn remove_corpus(&mut self, id: TracerouteId) {
        self.bgp.unregister(id);
        self.trace.unregister(id);
        self.potential.remove(&id);
        self.active.remove(&id);
        self.corpus.remove(id);
    }

    /// Registers traceroute-derived monitors (subpath/border/IXP bootstrap)
    /// for a corpus entry *owned by another partition*, without inserting it
    /// into this detector's corpus. A partitioned deployment broadcasts
    /// these monitors to every partition so each one's trace/IXP state is
    /// identical to a single instance's — their series advance on the
    /// shared public-traceroute stream, which every partition consumes in
    /// full. Assertions stay owner-only: `step` skips signal traceroutes
    /// outside the local corpus.
    pub(crate) fn register_trace_foreign(&mut self, entry: &crate::corpus::CorpusEntry) {
        self.trace.register(entry, &self.map, &self.topo, &mut self.geo, &self.alias);
    }

    /// Drops the foreign monitor membership added by
    /// [`StalenessDetector::register_trace_foreign`].
    pub(crate) fn unregister_trace_foreign(&mut self, id: TracerouteId) {
        self.trace.unregister(id);
    }

    /// Validates the cross-structure invariants tying the corpus, the
    /// monitor registrations, and the active staleness assertions together.
    /// Cheap enough to run after every simulated round; returns the first
    /// violation as a typed [`Error`](rrr_types::Error) instead of
    /// panicking so harnesses can attach context (seed, fault plan) before
    /// failing.
    pub fn validate(&self) -> Result<(), rrr_types::Error> {
        self.corpus.validate()?;
        self.invariant_violation().map_err(|v| rrr_types::Error::invariant("detector", v))
    }

    fn invariant_violation(&self) -> Result<(), String> {
        // Monitor registration is 1:1 with corpus membership: `add_corpus`
        // always records the (possibly empty) key set, `remove_corpus`
        // always drops it.
        for id in self.potential.keys() {
            if self.corpus.get(*id).is_none() {
                return Err(format!("potential[{id:?}] has no corpus entry"));
            }
        }
        for (id, per) in &self.active {
            if per.is_empty() {
                return Err(format!("active[{id:?}] is an empty assertion map"));
            }
            if self.corpus.get(*id).is_none() {
                return Err(format!("active[{id:?}] has no corpus entry"));
            }
        }
        for e in self.corpus.entries() {
            let Some(keys) = self.potential.get(&e.id) else {
                return Err(format!("corpus entry {:?} has no monitor registration", e.id));
            };
            if e.monitors != keys.len() {
                return Err(format!(
                    "corpus entry {:?}: monitors {} != registered keys {}",
                    e.id,
                    e.monitors,
                    keys.len()
                ));
            }
            let asserting = self.active.get(&e.id).map_or(0, |per| per.len());
            if e.asserting != asserting {
                return Err(format!(
                    "corpus entry {:?}: asserting {} != active assertions {}",
                    e.id, e.asserting, asserting
                ));
            }
            if e.asserting > 0 && e.stale_since.is_none() {
                return Err(format!("corpus entry {:?} asserting without stale_since", e.id));
            }
        }
        Ok(())
    }

    /// Advances the pipeline to `now`, consuming the BGP updates and public
    /// traceroutes observed since the previous step (both time-sorted).
    /// Returns the staleness prediction signals generated.
    pub fn step(
        &mut self,
        now: Timestamp,
        bgp_updates: &[BgpUpdate],
        public: &[Traceroute],
    ) -> Vec<StalenessSignal> {
        let mut signals = Vec::new();
        let mut revokes: Vec<RevokeEvent> = Vec::new();
        self.obs.steps.inc();
        self.obs.bgp_updates.add(bgp_updates.len() as u64);
        self.obs.public_traces.add(public.len() as u64);

        // --- BGP stream, window by window ---
        // Each window closes before the first update past its end lands.
        for u in bgp_updates {
            let w = self.cfg.bgp_window.window_of(u.time);
            while self.next_bgp_window < w {
                self.close_bgp_window(&mut signals, &mut revokes);
            }
            self.bgp.observe(u);
        }
        while self.cfg.bgp_window.bounds(self.next_bgp_window).1 <= now {
            self.close_bgp_window(&mut signals, &mut revokes);
        }

        // --- public traceroutes ---
        // Each is resolved once — origin per hop, borders — and both
        // monitors read that: the trace monitors through the star-patched
        // view, the IXP monitor as measured.
        let trace_on =
            self.enabled(Technique::TraceSubpath) || self.enabled(Technique::TraceBorder);
        let ixp_on = self.enabled(Technique::IxpColocation);
        let public = if trace_on || ixp_on { public } else { &[] };
        let span = self.obs.trace_observe_ns.span();
        for tr in public {
            let origins = hop_origins(tr, &self.map);
            let borders = find_borders_in(tr, &origins);
            if trace_on {
                self.trace.observe_mapped(
                    tr,
                    &origins,
                    &borders,
                    &self.map,
                    &self.topo,
                    &mut self.geo,
                    &self.alias,
                );
            }
            if ixp_on {
                for (asn, ixp) in self.ixp.observe_borders(&borders) {
                    let w = self.cfg.bgp_window.window_of(tr.time);
                    signals.extend(self.ixp.signals_for_join(
                        asn,
                        ixp,
                        &self.corpus,
                        &self.topo,
                        tr.time,
                        w,
                    ));
                }
            }
        }
        drop(span);
        let span = self.obs.trace_flush_ns.span();
        let (tsigs, trevokes) = self.trace.flush(now);
        drop(span);
        self.obs.trace_flush_visited.add(self.trace.flush_visited() as u64);
        signals.extend(tsigs);
        revokes.extend(trevokes);

        // --- filter disabled techniques, apply assertions ---
        signals.retain(|s| self.enabled(s.key.technique));
        // Canonical batch order: makes the emission sequence a pure
        // function of the signal values, so a partitioned detector's merged
        // batches reproduce this exact log (see `partition`).
        crate::signal::canonical_sort(&mut signals);
        for s in &signals {
            for &tr in s.traceroutes.iter() {
                // Signals may name traceroutes outside this detector's
                // corpus (a partition broadcasts trace monitors for the
                // whole corpus but owns only its key range) — assertions
                // apply only to owned entries.
                if self.corpus.get(tr).is_none() {
                    continue;
                }
                let per = self.active.entry(tr).or_default();
                if !per.contains_key(&s.key) {
                    per.insert(Arc::clone(&s.key), s.trigger_communities.clone());
                    self.corpus.assert_stale(tr, s.time);
                }
            }
        }
        for r in &revokes {
            for &tr in r.traceroutes.iter() {
                let Some(per) = self.active.get_mut(&tr) else { continue };
                let removed = per.remove(&r.key).is_some();
                let empty = per.is_empty();
                if removed {
                    self.corpus.revoke_stale(tr);
                }
                if empty {
                    self.active.remove(&tr);
                }
            }
        }

        self.obs.signals.add(signals.len() as u64);
        self.log.extend(signals.iter().cloned());
        signals
    }

    fn close_bgp_window(
        &mut self,
        signals: &mut Vec<StalenessSignal>,
        revokes: &mut Vec<RevokeEvent>,
    ) {
        let w = self.next_bgp_window;
        let (_, end) = self.cfg.bgp_window.bounds(w);
        let cal = &self.cal;
        let allowed = |c: Community, dst: rrr_types::Prefix| cal.comm_allowed(c, dst);
        let span = self.obs.close_ns.span();
        let (mut s, r) = self.bgp.close_window(w, end, &allowed);
        drop(span);
        self.obs.windows_closed.inc();
        if self.cfg.incremental_close {
            self.obs.close_incremental.inc();
        } else {
            self.obs.close_full.inc();
        }
        if self.obs.enabled {
            // parked/group counts are O(groups) scans — only pay when on.
            self.obs.parked_groups.set(self.bgp.parked_count() as i64);
            self.obs.monitor_groups.set(self.bgp.group_count() as i64);
        }
        s.retain(|sig| self.enabled(sig.key.technique));
        signals.extend(s);
        revokes.extend(r);
        self.next_bgp_window = w.next();
        self.cal.roll_window();
        self.obs.calibration_rolls.inc();
    }

    /// Plans which traceroutes to refresh under a probing budget (§4.3.1).
    ///
    /// Advances the calibrator's random stream — call once per generation
    /// window. For a repeatable read-only plan (e.g. from a snapshot), use
    /// [`crate::query::Query::plan`].
    pub fn plan_refresh(&mut self, budget: usize) -> RefreshPlan {
        self.obs.plan_refreshes.inc();
        let _span = self.obs.plan_ns.span();
        let corpus = &self.corpus;
        crate::query::plan_refresh_impl(
            &self.active,
            &self.potential,
            &|id| corpus.get(id).map(|e| e.traceroute.probe),
            &mut self.cal,
            budget,
        )
    }

    /// Whether the monitored portion named by `key` differs between the old
    /// corpus entry and a fresh traceroute of the same pair.
    pub fn portion_changed(&self, key: &SignalKey, new_tr: &Traceroute) -> bool {
        match &key.scope {
            SignalScope::AsSuffix { suffix, .. } => match map_traceroute(new_tr, &self.map, None) {
                Some(at) => match at.path.iter().position(|a| *a == suffix[0]) {
                    Some(p) => at.path[p..] != suffix[..],
                    None => true,
                },
                None => true,
            },
            SignalScope::IpSubpath { hops } => {
                let new_hops: Vec<Option<rrr_types::Ipv4>> =
                    new_tr.hops.iter().map(|h| h.addr).collect();
                if new_hops.len() < hops.len() {
                    return true;
                }
                !new_hops
                    .windows(hops.len())
                    .any(|w| w.iter().zip(hops).all(|(o, e)| o.is_none_or(|o| o == *e)))
            }
            SignalScope::CityBorder { near_as, far_as, border_ip, .. } => {
                let borders = rrr_ip2as::find_borders(new_tr, &self.map);
                !borders.iter().any(|b| {
                    b.near_as == *near_as
                        && b.far_as == *far_as
                        && self.alias.key(b.far_ip) == self.alias.key(*border_ip)
                })
            }
            SignalScope::IxpJoin { joined, member, .. } => {
                match map_traceroute(new_tr, &self.map, None) {
                    Some(at) => at.path.windows(2).any(|w| w[0] == *joined && w[1] == *member),
                    None => false,
                }
            }
        }
    }

    /// Verifies every potential signal of a corpus entry against a fresh
    /// measurement of the same pair, feeding calibration (§4.3.1's TP/FP/
    /// TN/FN bookkeeping and Appendix B's community tallies) without
    /// touching the corpus. Returns whether any monitored portion changed.
    pub fn verify_signals(&mut self, old_id: TracerouteId, new_tr: &Traceroute) -> bool {
        let Some(entry) = self.corpus.get(old_id) else { return false };
        let probe = entry.traceroute.probe;
        let keys = self.potential.get(&old_id).cloned().unwrap_or_default();
        let mut any_changed = false;
        for key in &keys {
            let changed = self.portion_changed(key, new_tr);
            any_changed |= changed;
            let asserted = self.active.get(&old_id).is_some_and(|per| per.contains_key(key));
            let outcome = match (asserted, changed) {
                (true, true) => Outcome::TruePositive,
                (true, false) => Outcome::FalsePositive,
                (false, false) => Outcome::TrueNegative,
                (false, true) => Outcome::FalseNegative,
            };
            self.cal.record(probe, key, outcome);
            if asserted && key.technique == Technique::BgpCommunity {
                if let SignalScope::AsSuffix { dst_prefix, .. } = &key.scope {
                    let comms = self.active[&old_id][key].clone();
                    for c in comms {
                        self.cal.record_community(c, *dst_prefix, changed);
                    }
                }
            }
        }
        any_changed
    }

    /// Applies a refresh measurement: verifies every potential signal of the
    /// old entry (feeding calibration), then replaces the entry. Returns
    /// the new corpus id, and whether any monitored portion had changed
    /// (useful to experiments as "the refresh found a change").
    pub fn apply_refresh(
        &mut self,
        old_id: TracerouteId,
        new_tr: Traceroute,
        src_asn: Option<Asn>,
    ) -> (Option<TracerouteId>, bool) {
        if self.corpus.get(old_id).is_none() {
            let id = self.add_corpus(new_tr, src_asn);
            return (id, false);
        }
        let any_changed = self.verify_signals(old_id, &new_tr);
        self.remove_corpus(old_id);
        let id = self.add_corpus(new_tr, src_asn);
        (id, any_changed)
    }

    /// Serializes the full detector state — corpus and indexes, RIB mirror
    /// and intern arenas, per-series windows, calibration, assertions, and
    /// the signal log — as one framed [`rrr_store`] checkpoint.
    ///
    /// [`StalenessDetector::restore`] rebuilds a detector from it that
    /// continues the exact same signal stream as the original.
    pub fn checkpoint<W: std::io::Write>(&self, w: W) -> Result<(), StoreError> {
        write_snapshot(w, FrameKind::Full, &self.encode_full_payload()?).map(drop)
    }

    /// Like [`StalenessDetector::checkpoint`], but also establishes this
    /// snapshot as the base of a delta chain: parked monitor groups are
    /// materialized first (so the bytes match a detector that never
    /// parked), churn tracking is reset, and subsequent
    /// [`StalenessDetector::checkpoint_delta`] calls serialize only state
    /// changed since these bytes.
    pub fn checkpoint_full<W: std::io::Write>(&mut self, w: W) -> Result<(), StoreError> {
        self.bgp.materialize_all();
        self.checkpoint_base(w)
    }

    /// Like [`StalenessDetector::checkpoint_full`] but serializes the state
    /// *as is* — parked monitor groups stay parked across the cut instead
    /// of being materialized. This is the durable layer's full cut: under a
    /// sparse workload the parked steady state survives, so the close right
    /// after the cut evaluates only churned groups and the following delta
    /// frames stay churn-proportional. (A materializing cut would wake
    /// every group, and the next close would push all of them into the
    /// cumulative dirty set at once.)
    pub fn checkpoint_base<W: std::io::Write>(&mut self, w: W) -> Result<(), StoreError> {
        let payload = self.encode_full_payload()?;
        let payload_crc = write_snapshot(w, FrameKind::Full, &payload)?;
        self.mark_all_clean(payload_crc);
        Ok(())
    }

    /// Serializes only the state changed since the last full checkpoint as
    /// a delta frame. Deltas are *cumulative*: each one applies directly on
    /// top of the full base (plus any earlier deltas of the same chain —
    /// re-application of already-applied changes is idempotent). Requires a
    /// base established by [`StalenessDetector::checkpoint_full`] or
    /// [`StalenessDetector::restore`].
    pub fn checkpoint_delta<W: std::io::Write>(&mut self, w: W) -> Result<(), StoreError> {
        let payload = self.encode_delta_payload()?;
        write_snapshot(w, FrameKind::Delta, &payload)?;
        self.delta_seq += 1;
        Ok(())
    }

    /// Number of delta frames cut since the last full checkpoint — drives
    /// compaction policy in [`crate::persist::DurableDetector`].
    pub fn delta_chain_len(&self) -> u32 {
        self.delta_seq
    }

    /// The snapshot chain position as `(base payload CRC, delta sequence)`
    /// — zero CRC until a full checkpoint or restore establishes a base.
    /// [`crate::persist::DurableDetector`] stamps its WAL with this so
    /// recovery can tell which chain a log extends.
    pub fn delta_chain(&self) -> (u32, u32) {
        (self.delta_base.unwrap_or(0), self.delta_seq)
    }

    /// Applies one delta frame on top of this detector's state, which must
    /// be at the delta's base (the full snapshot it names by payload CRC,
    /// plus any earlier deltas of the chain). A frame from a different
    /// chain surfaces as [`StoreError::DeltaBaseMismatch`]; one applied out
    /// of order as [`StoreError::DeltaChainBroken`].
    pub fn apply_delta<R: std::io::Read>(&mut self, r: R) -> Result<(), StoreError> {
        let frame = self.read_chain_frame(r, self.delta_seq + 1)?;
        self.apply_chain_frame(&frame)
    }

    /// Reads one delta frame and checks that it is frame `seq` of this
    /// detector's chain — frame CRC, kind, base CRC, sequence number —
    /// decoding nothing past that header. `DurableDetector::open` walks a
    /// whole chain with this and applies only its newest frame.
    pub(crate) fn read_chain_frame<R: std::io::Read>(
        &self,
        r: R,
        seq: u32,
    ) -> Result<Snapshot, StoreError> {
        let frame = read_snapshot(r)?;
        if frame.kind != FrameKind::Delta {
            return Err(StoreError::DeltaChainBroken {
                what: "full snapshot where a delta frame was expected",
            });
        }
        let mut d = Decoder::new(frame.payload());
        let base = d.u32()?;
        match self.delta_base {
            Some(have) if have == base => {}
            have => {
                return Err(StoreError::DeltaBaseMismatch {
                    expected: base,
                    found: have.unwrap_or(0),
                })
            }
        }
        if d.u32()? != seq {
            return Err(StoreError::DeltaChainBroken {
                what: "delta sequence number does not extend the chain",
            });
        }
        Ok(frame)
    }

    fn encode_full_payload(&self) -> Result<Vec<u8>, StoreError> {
        let mut payload = Vec::new();
        let mut e = Encoder::new(&mut payload);
        cfg_fingerprint(&self.cfg)?.store(&mut e)?;
        self.vps.store(&mut e)?;
        self.corpus.store(&mut e)?;
        self.bgp.store(&mut e)?;
        self.trace.store(&mut e)?;
        self.ixp.store(&mut e)?;
        self.cal.store(&mut e)?;
        self.potential.store(&mut e)?;
        self.active.store(&mut e)?;
        self.next_bgp_window.store(&mut e)?;
        self.log.store(&mut e)?;
        Ok(payload)
    }

    /// Resets every subsystem's churn tracking and records `base_crc` as
    /// the full-snapshot payload the next delta chain is cut against.
    fn mark_all_clean(&mut self, base_crc: u32) {
        self.bgp.mark_clean();
        self.corpus.mark_clean();
        self.trace.mark_clean();
        self.ixp.mark_clean();
        self.delta_base = Some(base_crc);
        self.delta_seq = 0;
        self.log_mark = self.log.len();
        self.clean_membership_gen = self.corpus.membership_gen();
    }

    /// Delta payload layout: base CRC, sequence number, then per-subsystem
    /// sections — dirty-tracked subsystems write sparse deltas, small or
    /// hard-to-track ones (calibration, assertions) are carried whole, and
    /// the append-only signal log is carried as its tail past the base.
    fn encode_delta_payload(&self) -> Result<Vec<u8>, StoreError> {
        let Some(base) = self.delta_base else {
            return Err(StoreError::DeltaChainBroken {
                what: "no full snapshot to cut a delta against",
            });
        };
        let mut payload = Vec::new();
        let mut e = Encoder::new(&mut payload);
        e.u32(base)?;
        e.u32(self.delta_seq + 1)?;
        self.bgp.store_delta(&mut e)?;
        self.corpus.store_delta(&mut e)?;
        self.trace.store_delta(&mut e)?;
        let ixp_dirty = self.ixp.is_dirty();
        ixp_dirty.store(&mut e)?;
        if ixp_dirty {
            self.ixp.store(&mut e)?;
        }
        self.cal.store(&mut e)?;
        let membership_changed = self.corpus.membership_gen() != self.clean_membership_gen;
        membership_changed.store(&mut e)?;
        if membership_changed {
            self.potential.store(&mut e)?;
        }
        self.active.store(&mut e)?;
        e.u64(self.log_mark as u64)?;
        e.len(self.log.len() - self.log_mark)?;
        for s in &self.log[self.log_mark..] {
            s.store(&mut e)?;
        }
        self.next_bgp_window.store(&mut e)?;
        Ok(payload)
    }

    /// Decodes and applies the sections of a frame that passed
    /// [`StalenessDetector::read_chain_frame`], moving the chain position
    /// to the frame's sequence number.
    pub(crate) fn apply_chain_frame(&mut self, frame: &Snapshot) -> Result<(), StoreError> {
        let payload = frame.payload();
        let mut d = Decoder::new(payload);
        d.u32()?; // base CRC: `read_chain_frame` compared it
        let seq = d.u32()?;
        self.bgp.apply_delta(&mut d)?;
        self.corpus.apply_delta(&mut d)?;
        self.trace.apply_delta(&mut d)?;
        if bool::load(&mut d)? {
            self.ixp = Persist::load(&mut d)?;
        }
        self.cal = Persist::load(&mut d)?;
        if bool::load(&mut d)? {
            self.potential = Persist::load(&mut d)?;
        }
        self.active = Persist::load(&mut d)?;
        let log_base = usize::try_from(d.u64()?)
            .map_err(|_| StoreError::Corrupt { offset: 0, what: "log base exceeds usize" })?;
        if log_base > self.log.len() {
            return Err(StoreError::DeltaChainBroken {
                what: "signal-log base is longer than the restored log",
            });
        }
        self.log.truncate(log_base);
        let n = d.read_len()?;
        for _ in 0..n {
            self.log.push(Persist::load(&mut d)?);
        }
        self.next_bgp_window = Persist::load(&mut d)?;
        if d.offset() != payload.len() {
            return Err(StoreError::TrailingData { remaining: payload.len() - d.offset() });
        }
        self.delta_seq = seq;
        Ok(())
    }

    /// Rebuilds a detector from a [`StalenessDetector::checkpoint`] frame.
    ///
    /// The environment (topology, IP-to-AS map, geolocation, alias
    /// resolution) is supplied by the caller — it is input data, not
    /// detector state — and `cfg` must describe the same pipeline the
    /// checkpoint was taken from: a mismatch in any behavioral knob returns
    /// [`StoreError::ConfigMismatch`] rather than silently continuing with
    /// different semantics. `incremental_close` is the one exception
    /// (runtime tuning, not state): it is taken from `cfg` as-is.
    pub fn restore<R: std::io::Read>(
        r: R,
        topo: Arc<Topology>,
        map: IpToAsMap,
        geo: Geolocator,
        alias: AliasResolver,
        cfg: DetectorConfig,
    ) -> Result<Self, StoreError> {
        let frame = read_snapshot(r)?;
        if frame.kind != FrameKind::Full {
            return Err(StoreError::DeltaChainBroken {
                what: "delta frame where a full snapshot was expected",
            });
        }
        let payload = frame.payload();
        let mut d = Decoder::new(payload);
        let stored_fp: Vec<u8> = Persist::load(&mut d)?;
        if stored_fp != cfg_fingerprint(&cfg)? {
            return Err(StoreError::ConfigMismatch { what: "detector configuration" });
        }
        let vps = Persist::load(&mut d)?;
        let corpus = Persist::load(&mut d)?;
        let mut bgp: BgpMonitors = Persist::load(&mut d)?;
        let trace: TraceMonitors = Persist::load(&mut d)?;
        let ixp = Persist::load(&mut d)?;
        let cal = Persist::load(&mut d)?;
        let potential = Persist::load(&mut d)?;
        let active = Persist::load(&mut d)?;
        let next_bgp_window = Persist::load(&mut d)?;
        let log = Persist::load(&mut d)?;
        if d.offset() != payload.len() {
            return Err(StoreError::TrailingData { remaining: payload.len() - d.offset() });
        }
        bgp.set_incremental(cfg.incremental_close);
        let mut det = StalenessDetector {
            cfg,
            topo,
            map,
            geo,
            alias,
            vps,
            corpus,
            bgp,
            trace,
            ixp,
            cal,
            potential,
            active,
            next_bgp_window,
            log,
            delta_base: None,
            delta_seq: 0,
            log_mark: 0,
            clean_membership_gen: 0,
            obs: DetectorObs::default(),
        };
        // The restored bytes ARE the state: they are a valid delta base, so
        // deltas cut after restore name this payload and carry only what
        // changes from here on (`Persist` loads default to all-dirty).
        det.mark_all_clean(frame.payload_crc);
        Ok(det)
    }
}

/// Canonical encoding of every configuration facet that changes pipeline
/// behavior. Stored in the checkpoint and compared on restore;
/// `incremental_close` and the ignored `threads` are excluded (the signal
/// stream is identical at any setting).
pub(crate) fn cfg_fingerprint(cfg: &DetectorConfig) -> Result<Vec<u8>, StoreError> {
    let mut buf = Vec::new();
    let mut e = Encoder::new(&mut buf);
    cfg.seed.store(&mut e)?;
    cfg.bgp_window.store(&mut e)?;
    cfg.calibration_l.store(&mut e)?;
    cfg.enabled.store(&mut e)?;
    cfg.bgp_detector.store(&mut e)?;
    cfg.trace_detector.store(&mut e)?;
    cfg.absorb_outliers.store(&mut e)?;
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrr_geo::GeoDb;
    use rrr_types::{AsPath, BgpElem, CityId, Hop, Ipv4, Prefix, ProbeId};

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

    fn announce(vp: u32, path: &[u32], comms: &[(u32, u32)], t: u64) -> BgpUpdate {
        BgpUpdate {
            time: Timestamp(t),
            vp: VpId(vp),
            prefix: "10.2.0.0/16".parse().expect("p"),
            elem: BgpElem::Announce {
                path: AsPath::from_asns(path.iter().copied()),
                communities: comms.iter().map(|(a, v)| Community::new(*a, *v)).collect(),
            },
        }
    }

    /// Small synthetic environment; the detector's topology is only used
    /// for registry/alias/geo lookups, so a generated small instance works.
    fn detector() -> StalenessDetector {
        let topo = Arc::new(rrr_topology::generate(&rrr_topology::TopologyConfig::small(3)));
        let mut map = IpToAsMap::new();
        for i in 0..4u32 {
            map.add_origin(format!("10.{i}.0.0/16").parse::<Prefix>().expect("p"), Asn(100 + i));
        }
        let mut db = GeoDb::default();
        for third in 0..4u8 {
            for last in 0..30u8 {
                db.insert(Ipv4::new(10, third, 0, last), CityId(third as u16));
            }
        }
        let geo = Geolocator::new(db, vec![]);
        let alias = AliasResolver::from_topology(&topo, 1.0, 0);
        let mut d = StalenessDetector::new(
            topo,
            map,
            geo,
            alias,
            vec![VpId(0), VpId(1)],
            DetectorConfig::default(),
        );
        d.init_rib(&[
            announce(0, &[99, 101, 102], &[(101, 50_001)], 0),
            announce(1, &[98, 101, 102], &[(101, 50_001)], 0),
        ]);
        d
    }

    #[test]
    fn corpus_registration_counts_monitors() {
        let mut d = detector();
        let id =
            d.add_corpus(trace(1, 0, &["10.0.0.2", "10.1.0.1", "10.2.0.1"]), None).expect("valid");
        let e = d.corpus().get(id).expect("inserted");
        assert!(e.monitors > 0, "monitors registered");
        assert!(d.potential[&id].len() == e.monitors);
    }

    #[test]
    fn community_change_asserts_and_plan_refresh_returns_it() {
        let mut d = detector();
        let id =
            d.add_corpus(trace(1, 0, &["10.0.0.2", "10.1.0.1", "10.2.0.1"]), None).expect("valid");
        // Community flip with identical AS path.
        let sigs =
            d.step(Timestamp(900), &[announce(0, &[99, 101, 102], &[(101, 50_009)], 100)], &[]);
        assert!(sigs.iter().any(|s| s.key.technique == Technique::BgpCommunity), "{sigs:?}");
        assert!(d.corpus().get(id).expect("entry").freshness().is_stale());
        let plan = d.plan_refresh(10);
        assert_eq!(plan.refresh, vec![id]);
    }

    #[test]
    fn apply_refresh_scores_fp_when_nothing_changed() {
        let mut d = detector();
        let id =
            d.add_corpus(trace(1, 0, &["10.0.0.2", "10.1.0.1", "10.2.0.1"]), None).expect("valid");
        let _ = d.step(Timestamp(900), &[announce(0, &[99, 101, 102], &[(101, 50_009)], 100)], &[]);
        assert!(d.corpus().get(id).expect("entry").freshness().is_stale());
        // Refresh measures the *same* path: community signal was an FP.
        let (new_id, changed) =
            d.apply_refresh(id, trace(2, 1000, &["10.0.0.2", "10.1.0.1", "10.2.0.1"]), None);
        assert!(!changed);
        let new_id = new_id.expect("reinserted");
        assert!(!d.corpus().get(new_id).expect("entry").freshness().is_stale());
        // The community took an FP hit (Appendix B bookkeeping): after two
        // more such rounds it gets pruned.
        for k in 0..2 {
            let t = 2000 + k * 900;
            let _ = d.step(
                Timestamp(t + 900),
                &[
                    announce(0, &[99, 101, 102], &[(101, 50_001)], t + 1),
                    announce(0, &[99, 101, 102], &[(101, 50_009)], t + 2),
                ],
                &[],
            );
            let stale: Vec<TracerouteId> =
                d.corpus().entries().filter(|e| e.freshness().is_stale()).map(|e| e.id).collect();
            for sid in stale {
                let _ = d.apply_refresh(
                    sid,
                    trace(100 + k, t + 500, &["10.0.0.2", "10.1.0.1", "10.2.0.1"]),
                    None,
                );
            }
        }
        assert!(d.calibrator().pruned_communities() > 0, "FP community must be pruned");
    }

    #[test]
    fn apply_refresh_scores_tp_when_changed() {
        let mut d = detector();
        let id =
            d.add_corpus(trace(1, 0, &["10.0.0.2", "10.1.0.1", "10.2.0.1"]), None).expect("valid");
        let _ = d.step(Timestamp(900), &[announce(0, &[99, 101, 102], &[(101, 50_009)], 100)], &[]);
        // Refresh shows the path now avoids AS 101: the suffix changed.
        let (_, changed) = d.apply_refresh(id, trace(2, 1000, &["10.0.0.2", "10.2.0.1"]), None);
        assert!(changed);
    }

    #[test]
    fn disabled_techniques_do_not_fire() {
        let topo = Arc::new(rrr_topology::generate(&rrr_topology::TopologyConfig::small(3)));
        let mut map = IpToAsMap::new();
        for i in 0..4u32 {
            map.add_origin(format!("10.{i}.0.0/16").parse::<Prefix>().expect("p"), Asn(100 + i));
        }
        let geo = Geolocator::new(GeoDb::default(), vec![]);
        let alias = AliasResolver::from_topology(&topo, 1.0, 0);
        let cfg = DetectorConfig {
            enabled: vec![Technique::BgpAsPath], // no community signals
            ..DetectorConfig::default()
        };
        let mut d = StalenessDetector::new(topo, map, geo, alias, vec![VpId(0)], cfg);
        d.init_rib(&[announce(0, &[99, 101, 102], &[(101, 50_001)], 0)]);
        d.add_corpus(trace(1, 0, &["10.0.0.2", "10.1.0.1", "10.2.0.1"]), None).expect("valid");
        let sigs =
            d.step(Timestamp(900), &[announce(0, &[99, 101, 102], &[(101, 50_009)], 100)], &[]);
        assert!(sigs.is_empty(), "{sigs:?}");
    }

    #[test]
    fn portion_changed_semantics() {
        let mut d = detector();
        d.add_corpus(trace(1, 0, &["10.0.0.2", "10.1.0.1", "10.2.0.1"]), None).expect("valid");
        let suffix_key = SignalKey {
            technique: Technique::BgpAsPath,
            scope: SignalScope::AsSuffix {
                dst_prefix: "10.2.0.0/16".parse().expect("p"),
                suffix: vec![Asn(101), Asn(102)],
            },
        };
        // Same AS path → unchanged.
        assert!(
            !d.portion_changed(&suffix_key, &trace(5, 1, &["10.0.0.2", "10.1.0.9", "10.2.0.4"]))
        );
        // Path skips AS 101 → changed.
        assert!(d.portion_changed(&suffix_key, &trace(5, 1, &["10.0.0.2", "10.2.0.1"])));

        let sub_key = SignalKey {
            technique: Technique::TraceSubpath,
            scope: SignalScope::IpSubpath {
                hops: vec![ip("10.0.0.2"), ip("10.1.0.1"), ip("10.2.0.1")],
            },
        };
        assert!(!d.portion_changed(&sub_key, &trace(5, 1, &["10.0.0.2", "10.1.0.1", "10.2.0.1"])));
        // A star in the middle is a wildcard → unchanged.
        let mut starred = trace(5, 1, &["10.0.0.2", "10.1.0.1", "10.2.0.1"]);
        starred.hops[1] = Hop::star();
        assert!(!d.portion_changed(&sub_key, &starred));
        // A different middle hop → changed.
        assert!(d.portion_changed(&sub_key, &trace(5, 1, &["10.0.0.2", "10.1.0.7", "10.2.0.1"])));
    }

    #[test]
    fn trace_spans_and_flush_visits_are_exposed() {
        let mut d = detector();
        let metrics = Metrics::enabled();
        d.set_metrics(&metrics);
        d.add_corpus(
            trace(1, 0, &["10.0.0.2", "10.0.0.3", "10.1.0.1", "10.1.0.2", "10.2.0.1"]),
            None,
        )
        .expect("valid");
        let monitors = d.trace.subpath_count() + d.trace.border_count();
        assert!(monitors > 0);
        // Twenty quiet rounds on the monitored segment: the series buffer
        // towards a window decision, which no flush can make yet.
        for r in 0..20u64 {
            let public =
                [trace(100 + r, r * 900 + 10, &["10.0.0.2", "10.0.0.3", "10.1.0.1", "10.1.0.2"])];
            d.step(Timestamp((r + 1) * 900), &[], &public);
        }
        let snap = metrics.snapshot();
        for name in ["rrr_detector_trace_observe_ns", "rrr_detector_trace_flush_ns"] {
            assert_eq!(snap.histogram(name).map(|h| h.count), Some(20), "{name}: one span a step");
        }
        assert_eq!(snap.counter("rrr_detector_trace_flush_visited_total"), 0);
        // Enough to decide on: the flushes from here on visit them.
        for r in 20..60u64 {
            let public: Vec<Traceroute> = (0..3)
                .map(|k| {
                    let hops = ["10.0.0.2", "10.0.0.3", "10.1.0.1", "10.1.0.2"];
                    trace(1000 + r * 10 + k, r * 900 + 10 + k, &hops)
                })
                .collect();
            d.step(Timestamp((r + 1) * 900), &[], &public);
        }
        let visited = metrics.snapshot().counter("rrr_detector_trace_flush_visited_total");
        assert!(visited > 0 && visited <= 40 * monitors as u64, "{visited}");
    }

    #[test]
    fn remove_corpus_clears_state() {
        let mut d = detector();
        let id =
            d.add_corpus(trace(1, 0, &["10.0.0.2", "10.1.0.1", "10.2.0.1"]), None).expect("valid");
        let _ = d.step(Timestamp(900), &[announce(0, &[99, 101, 102], &[(101, 50_009)], 100)], &[]);
        d.remove_corpus(id);
        assert!(d.corpus().get(id).is_none());
        assert!(d.plan_refresh(10).refresh.is_empty());
    }
}
