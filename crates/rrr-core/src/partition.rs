//! Range partitioning of one detector's state: N cooperating
//! [`StalenessDetector`] instances, each owning a contiguous range of the
//! IPv4 destination-prefix key space, coordinated so the merged output is
//! **bit-identical** to one unpartitioned instance consuming the same
//! streams.
//!
//! # What this is, and is not
//!
//! An in-memory *alternative* to the detector's own worker threads, kept
//! as a measured comparison point — not a deployment. The end-to-end
//! benchmark (`crates/rrr-perf`, README "Findings") steps one item of its
//! dense BGP input in 1.65–2.02 µs with the shared `threads` worker count
//! (in-close chunking + sharded `observe_batch`), 2.06–2.36 µs serial and
//! 2.34–2.84 µs over two partitions; on the mixed traceroute input two
//! partitions cost 16.4 µs an item against 8.9 µs serial. The loss is
//! structural: the §4.2 traceroute and IXP monitors are corpus-global, so
//! every public traceroute and every trace-monitor registration is
//! broadcast to every partition (N× the data-plane work), and every BGP
//! update is cloned into its partition's bucket on every step. So nothing
//! is stacked on this module any more — no per-partition durability, no
//! merged query snapshot, no `rrr-serve` engine arm. What still pins it:
//! `rrr-perf`'s `partition.step_ns_per_item.n2` trace row (which keeps the
//! comparison honest as the code moves) and the bit-identity oracles in
//! `tests/partition_equivalence.rs`, `tests/metrics_inertness.rs` and the
//! simulation harness's `PartitionInvariance`.
//!
//! # Key routing
//!
//! A [`PartitionMap`] splits the 32-bit address space into `N` contiguous
//! ranges by interior split points. Everything keyed by destination prefix
//! routes by the prefix's *base address*:
//!
//! - BGP updates and RIB seeds go to `of_prefix(update.prefix)`;
//! - a corpus traceroute goes to the partition of its destination's
//!   most-specific announced prefix (falling back to the destination host
//!   address). Routing by the covering prefix — not the raw destination —
//!   guarantees an entry and the BGP updates for its destination prefix
//!   never straddle a partition boundary.
//!
//! # Broadcast vs. partition-local state
//!
//! Public traceroutes are broadcast to every partition, and so are the
//! traceroute-derived monitors of *every* corpus entry (via
//! `register_trace_foreign`): each partition's `TraceMonitors`/`IxpMonitor`
//! state is therefore identical to a single instance's, because those
//! series advance on the shared public stream, not on partition-local
//! input. Ownership stays exclusive — assertions apply only where the
//! corpus entry lives, since `step` skips signal traceroutes outside the
//! local corpus.
//!
//! Per-step signal batches merge deterministically:
//!
//! - **BGP signals** are disjoint (a monitor group lives with its prefix)
//!   and concatenate;
//! - **trace signals** are identical replicas in every partition (same
//!   monitors, same input) and are taken from partition 0;
//! - **IXP signals** are partial (each partition reports its own corpus
//!   members) and coalesce by (key, time, window) with a sorted traceroute
//!   union, recomputing the score as the union size — exactly the value a
//!   single instance emits.
//!
//! The merged batch is then `canonical_sort`ed (`signal` module), the same
//! order the single-instance `step` applies, so the merged signal log is
//! byte-for-byte the unpartitioned log.
//!
//! # Calibration merge and planning
//!
//! Refresh verification records calibration tallies in the owner partition
//! only, so a (probe, key) cell may hold partial tallies in several
//! partitions (trace keys are shared across entries). The merge —
//! `Calibrator::absorb` over a clone of partition 0's calibrator — sums
//! sliding cells recency-aligned and unions the disjoint community
//! tallies, reproducing the single instance's calibrator exactly (all
//! partitions roll generation windows in lockstep). Planning draws from a
//! coordinator-owned RNG seeded like the single instance's calibrator RNG;
//! partition calibrators never draw, so the coordinator stream *is* the
//! single-instance stream. `Calibrator::swap_rng` lends it to the merged
//! calibrator for the duration of one plan.

use crate::calibration::{Calibrator, RefreshPlan};
use crate::detector::{cfg_fingerprint, StalenessDetector};
use crate::signal::{SignalKey, StalenessSignal, Technique};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rrr_ip2as::IpToAsMap;
use rrr_obs::{Counter, Histogram, Metrics};
use rrr_store::{Decoder, Encoder, Persist, StoreError};
use rrr_types::{Asn, BgpUpdate, Ipv4, Prefix, Timestamp, Traceroute, TracerouteId, Window};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// Deterministic range-based key→partition routing. Partition `k` owns
/// addresses in `[splits[k-1], splits[k])` (with 0 and 2³² as the outer
/// bounds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionMap {
    /// Interior split points, strictly ascending, all non-zero. `N-1`
    /// points define `N` partitions.
    splits: Vec<u32>,
}

impl PartitionMap {
    /// `n` equal-width ranges over the 32-bit address space.
    pub fn even(n: usize) -> Self {
        assert!(n >= 1, "at least one partition");
        assert!(n <= 1 << 16, "unreasonable partition count");
        let span = (1u64 << 32) / n as u64;
        PartitionMap { splits: (1..n as u64).map(|i| (i * span) as u32).collect() }
    }

    /// A map from explicit interior split points (strictly ascending,
    /// non-zero); `splits.len() + 1` partitions.
    pub fn from_splits(splits: Vec<u32>) -> Result<Self, rrr_types::Error> {
        if !splits.windows(2).all(|w| w[0] < w[1]) || splits.first() == Some(&0) {
            return Err(rrr_types::Error::invariant(
                "partition map",
                "split points must be strictly ascending and non-zero",
            ));
        }
        Ok(PartitionMap { splits })
    }

    /// Number of partitions.
    #[allow(clippy::len_without_is_empty)] // never empty: N >= 1 by construction
    pub fn len(&self) -> usize {
        self.splits.len() + 1
    }

    /// The partition owning an address. Total: every address maps to
    /// exactly one partition index below [`PartitionMap::len`].
    pub fn of_addr(&self, addr: Ipv4) -> usize {
        self.splits.partition_point(|&s| s <= addr.value())
    }

    /// The partition owning a prefix — routed by its base address, so a
    /// covering prefix and every update for it land together.
    pub fn of_prefix(&self, prefix: Prefix) -> usize {
        self.of_addr(prefix.network())
    }

    /// The half-open address range `[start, end)` of partition `k`
    /// (`end = None` means "through the top of the address space").
    pub fn range(&self, k: usize) -> (u32, Option<u32>) {
        let start = if k == 0 { 0 } else { self.splits[k - 1] };
        (start, self.splits.get(k).copied())
    }
}

impl Persist for PartitionMap {
    fn store<W: std::io::Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        self.splits.store(e)
    }
    fn load<R: std::io::Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        let splits: Vec<u32> = Persist::load(d)?;
        PartitionMap::from_splits(splits).map_err(|_| d.corrupt("partition split points"))
    }
}

/// The partition owning a corpus traceroute: the base address of its
/// destination's most-specific announced prefix (host address when
/// unannounced) — mirroring the key the corpus itself indexes by.
fn owner_of_trace(map: &PartitionMap, ip2as: &IpToAsMap, tr: &Traceroute) -> usize {
    let base = ip2as.most_specific_prefix(tr.dst).map(|p| p.network()).unwrap_or(tr.dst);
    map.of_addr(base)
}

/// Routes BGP updates to per-partition buckets, preserving order.
fn route_updates(map: &PartitionMap, updates: &[BgpUpdate]) -> Vec<Vec<BgpUpdate>> {
    let mut buckets = vec![Vec::new(); map.len()];
    for u in updates {
        buckets[map.of_prefix(u.prefix)].push(u.clone());
    }
    buckets
}

/// Merges per-partition step batches into the single-instance batch:
/// concatenate disjoint BGP signals, keep one replica of the broadcast
/// trace signals, coalesce partial IXP signals, then canonical-sort.
fn merge_signal_batches(batches: Vec<Vec<StalenessSignal>>) -> Vec<StalenessSignal> {
    let mut merged = Vec::new();
    let mut ixp: BTreeMap<(Window, Timestamp, Arc<SignalKey>), BTreeSet<TracerouteId>> =
        BTreeMap::new();
    for (k, batch) in batches.into_iter().enumerate() {
        for s in batch {
            match s.key.technique {
                t if t.is_bgp() => merged.push(s),
                Technique::IxpColocation => {
                    ixp.entry((s.window, s.time, Arc::clone(&s.key)))
                        .or_default()
                        .extend(s.traceroutes.iter().copied());
                }
                // Trace monitors are broadcast: every partition holds the
                // same monitors fed the same public stream, so their
                // signals are identical replicas — keep partition 0's.
                _ => {
                    if k == 0 {
                        merged.push(s);
                    }
                }
            }
        }
    }
    for ((window, time, key), trs) in ixp {
        let traceroutes: Vec<TracerouteId> = trs.into_iter().collect();
        merged.push(StalenessSignal {
            key,
            time,
            window,
            score: traceroutes.len() as f64,
            traceroutes: traceroutes.into(),
            trigger_communities: Vec::new(),
        });
    }
    crate::signal::canonical_sort(&mut merged);
    merged
}

/// Asserts a byte-level section is identical in every partition (the
/// broadcast state) and returns the shared bytes.
fn equal_bytes(
    views: &[&StalenessDetector],
    what: &str,
    f: impl Fn(&StalenessDetector) -> Result<Vec<u8>, StoreError>,
) -> Result<Vec<u8>, StoreError> {
    let first = f(views[0])?;
    for p in &views[1..] {
        assert!(f(p)? == first, "broadcast state diverged across partitions: {what}");
    }
    Ok(first)
}

/// Canonical (park-normalized) encoding of the semantic detector state
/// across one or more partitions. A single instance and any N-way
/// partitioning of the same input produce byte-identical output:
///
/// - parked monitor groups are materialized first, so parking policy
///   cannot leak into the bytes;
/// - broadcast sections (config fingerprint, vantage points, trace and
///   IXP monitor state, window cursor, close count) are asserted equal
///   across partitions and written once;
/// - partition-local sections (corpus entries, monitor groups, RIB and
///   open-window slices, potential/active maps) are disjoint by
///   construction and merge under a canonical sort;
/// - the calibrator section carries the caller's merged calibrator bytes
///   (coordinator RNG included) and the signal log is the merged log.
fn canonical_state_bytes(
    parts: &mut [&mut StalenessDetector],
    cal_bytes: &[u8],
    log: &[StalenessSignal],
) -> Result<Vec<u8>, StoreError> {
    for p in parts.iter_mut() {
        p.bgp.materialize_all();
    }
    let views: Vec<&StalenessDetector> = parts.iter().map(|p| &**p).collect();

    let mut payload = Vec::new();
    let mut e = Encoder::new(&mut payload);

    // Broadcast sections (asserted identical, written once).
    equal_bytes(&views, "config fingerprint", |p| cfg_fingerprint(&p.cfg))?.store(&mut e)?;
    equal_bytes(&views, "vantage points", |p| rrr_store::to_payload(&p.vps))?.store(&mut e)?;

    // Disjoint corpus entries, canonically ordered by id.
    let mut entries: BTreeMap<TracerouteId, Vec<u8>> = BTreeMap::new();
    for p in &views {
        for en in p.corpus.entries() {
            let prev = entries.insert(en.id, rrr_store::to_payload(en)?);
            assert!(prev.is_none(), "corpus entry {:?} owned by two partitions", en.id);
        }
    }
    e.len(entries.len())?;
    for (id, bytes) in &entries {
        id.store(&mut e)?;
        bytes.store(&mut e)?;
    }

    // Disjoint BGP monitor groups, sorted by encoded key (arena-free
    // bytes, so intern order cannot leak in).
    let mut groups: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    for p in &views {
        groups.extend(p.bgp.canonical_groups()?);
    }
    groups.sort();
    groups.store(&mut e)?;

    // Disjoint RIB mirror and open-window slices (keyed by prefix, so the
    // per-partition BTreeMaps union without collision).
    let mut rib = BTreeMap::new();
    let mut window = BTreeMap::new();
    for p in &views {
        for (k, v) in p.bgp.rib_snapshot() {
            assert!(rib.insert(k, v).is_none(), "rib key owned by two partitions");
        }
        for (k, v) in p.bgp.window_snapshot() {
            assert!(window.insert(k, v).is_none(), "window key owned by two partitions");
        }
    }
    rib.store(&mut e)?;
    window.store(&mut e)?;
    equal_bytes(&views, "close count", |p| rrr_store::to_payload(&p.bgp.closes()))?
        .store(&mut e)?;

    // Broadcast monitor families: byte-identical whole-state sections.
    equal_bytes(&views, "trace monitors", |p| rrr_store::to_payload(&p.trace))?.store(&mut e)?;
    equal_bytes(&views, "ixp monitor", |p| rrr_store::to_payload(&p.ixp))?.store(&mut e)?;

    // Merged calibrator (coordinator RNG inside).
    cal_bytes.to_vec().store(&mut e)?;

    // Disjoint per-traceroute maps, canonically ordered by id.
    let mut potential: BTreeMap<TracerouteId, Vec<u8>> = BTreeMap::new();
    let mut active: BTreeMap<TracerouteId, Vec<u8>> = BTreeMap::new();
    for p in &views {
        for (id, keys) in &p.potential {
            let prev = potential.insert(*id, rrr_store::to_payload(keys)?);
            assert!(prev.is_none(), "potential[{id:?}] owned by two partitions");
        }
        for (id, per) in &p.active {
            let prev = active.insert(*id, rrr_store::to_payload(per)?);
            assert!(prev.is_none(), "active[{id:?}] owned by two partitions");
        }
    }
    potential.store(&mut e)?;
    active.store(&mut e)?;

    equal_bytes(&views, "window cursor", |p| rrr_store::to_payload(&p.next_bgp_window))?
        .store(&mut e)?;

    // Merged signal log.
    e.len(log.len())?;
    for s in log {
        s.store(&mut e)?;
    }
    Ok(payload)
}

/// Canonical state bytes of one unpartitioned detector — the reference
/// side of the partition-invariance oracle. Materializes parked groups
/// (park normalization), so call at a comparison point, not mid-benchmark.
pub fn canonical_bytes_single(det: &mut StalenessDetector) -> Result<Vec<u8>, StoreError> {
    let cal_bytes = rrr_store::to_payload(&det.cal)?;
    let log = det.log.clone();
    canonical_state_bytes(&mut [det], &cal_bytes, &log)
}

/// Coordinator-level metric handles of a [`PartitionedDetector`] (all
/// no-ops by default). Covers the routing and merge layer: keyed updates
/// routed per partition, broadcast public traceroutes, and step/merge
/// timings. Per-partition detector metrics are installed separately with
/// a `part="k"` label.
#[derive(Default)]
struct PartObs {
    steps: Counter,
    updates: Counter,
    /// Keyed-update counters per partition; empty when disabled (callers
    /// zip against it, so absence is a no-op).
    routed: Vec<Counter>,
    broadcast_public: Counter,
    merged_signals: Counter,
    step_ns: Histogram,
    merge_ns: Histogram,
}

impl PartObs {
    fn new(m: &Metrics, n: usize) -> PartObs {
        PartObs {
            steps: m.counter("rrr_partition_steps_total"),
            updates: m.counter("rrr_partition_updates_total"),
            routed: (0..n)
                .map(|k| m.counter(&format!("rrr_partition_routed_updates_total{{part=\"{k}\"}}")))
                .collect(),
            broadcast_public: m.counter("rrr_partition_broadcast_public_total"),
            merged_signals: m.counter("rrr_partition_merged_signals_total"),
            step_ns: m.histogram("rrr_partition_step_ns"),
            merge_ns: m.histogram("rrr_partition_merge_ns"),
        }
    }

    fn observe_route(&self, buckets: &[Vec<BgpUpdate>], public_len: usize) {
        self.steps.inc();
        self.broadcast_public.add(public_len as u64);
        for (c, b) in self.routed.iter().zip(buckets) {
            c.add(b.len() as u64);
            self.updates.add(b.len() as u64);
        }
    }
}

/// N cooperating detector partitions behind a single-detector facade.
///
/// Construction requires every partition to be built over the *same*
/// environment (topology, IP-to-AS map, geolocation, aliases, vantage
/// points) and configuration; the facade then routes keyed input, fans
/// out broadcast input, and merges outputs deterministically (see the
/// module docs for the exact equivalence argument).
pub struct PartitionedDetector {
    parts: Vec<StalenessDetector>,
    map: PartitionMap,
    /// Coordinator planning stream — seeded exactly like each partition's
    /// (never-drawn) calibrator RNG, advanced only by `plan_refresh`.
    plan_rng: StdRng,
    /// The merged signal log (what a single instance's log would hold).
    log: Vec<StalenessSignal>,
    /// Run partition steps on scoped worker threads.
    parallel: bool,
    /// Coordinator metric handles (no-ops unless `set_metrics` installed).
    obs: PartObs,
}

impl PartitionedDetector {
    /// Wraps pre-built partitions. Panics if the partition count does not
    /// match the map or the configs diverge.
    pub fn new(parts: Vec<StalenessDetector>, map: PartitionMap) -> Self {
        assert!(!parts.is_empty(), "at least one partition");
        assert_eq!(parts.len(), map.len(), "partition count must match the routing map");
        let fp = cfg_fingerprint(&parts[0].cfg).expect("config fingerprint");
        for p in &parts[1..] {
            let pfp = cfg_fingerprint(&p.cfg).expect("config fingerprint");
            assert!(pfp == fp, "partition configurations diverge");
        }
        let plan_rng = StdRng::seed_from_u64(parts[0].cfg.seed);
        PartitionedDetector {
            plan_rng,
            map,
            log: Vec::new(),
            parallel: parts.len() > 1,
            obs: PartObs::default(),
            parts,
        }
    }

    /// Installs coordinator metric handles plus per-partition detector
    /// metrics labeled `part="k"`, all on one shared registry. Purely
    /// observational: the merged output is bit-identical with metrics on
    /// or off.
    pub fn set_metrics(&mut self, metrics: &Metrics) {
        for (k, p) in self.parts.iter_mut().enumerate() {
            p.set_metrics_labeled(metrics, &format!("part=\"{k}\""));
        }
        self.obs = PartObs::new(metrics, self.map.len());
    }

    /// Builds `map.len()` partitions from a per-index factory (each call
    /// must produce an identically configured detector over the same
    /// environment).
    pub fn from_factory(
        map: PartitionMap,
        mut make: impl FnMut(usize) -> StalenessDetector,
    ) -> Self {
        let parts = (0..map.len()).map(&mut make).collect();
        PartitionedDetector::new(parts, map)
    }

    pub fn partitions(&self) -> &[StalenessDetector] {
        &self.parts
    }

    /// The merged signal log — bit-identical to a single instance's.
    pub fn signal_log(&self) -> &[StalenessSignal] {
        &self.log
    }

    pub fn closed_bgp_windows(&self) -> u64 {
        self.parts[0].closed_bgp_windows()
    }

    /// Toggles partition-parallel stepping (scoped threads, one per
    /// partition). The merged output is identical at any setting.
    pub fn set_parallel(&mut self, parallel: bool) {
        self.parallel = parallel;
    }

    /// Overrides the per-window worker count inside every partition.
    pub fn set_threads(&mut self, threads: usize) {
        for p in &mut self.parts {
            p.set_threads(threads);
        }
    }

    /// Routes a RIB table dump by prefix.
    pub fn init_rib(&mut self, rib: &[BgpUpdate]) {
        let buckets = route_updates(&self.map, rib);
        for (p, bucket) in self.parts.iter_mut().zip(&buckets) {
            p.init_rib(bucket);
        }
    }

    /// Broadcasts pre-t0 public traceroutes (IXP membership bootstrap).
    pub fn bootstrap_public(&mut self, traces: &[Traceroute]) {
        for p in &mut self.parts {
            p.bootstrap_public(traces);
        }
    }

    /// Inserts a traceroute into the owning partition's corpus and
    /// broadcasts its trace monitors to the others.
    pub fn add_corpus(&mut self, tr: Traceroute, src_asn: Option<Asn>) -> Option<TracerouteId> {
        let owner = owner_of_trace(&self.map, self.parts[0].map(), &tr);
        let id = self.parts[owner].add_corpus(tr, src_asn)?;
        // Same global registration order as the owner's, so every
        // partition's monitor state stays identical.
        let entry = self.parts[owner].corpus.get(id).expect("just inserted").clone();
        for (k, p) in self.parts.iter_mut().enumerate() {
            if k != owner {
                p.register_trace_foreign(&entry);
            }
        }
        Some(id)
    }

    /// Removes a traceroute from its owner and all broadcast monitors.
    pub fn remove_corpus(&mut self, id: TracerouteId) {
        for p in &mut self.parts {
            if p.corpus.get(id).is_some() {
                p.remove_corpus(id);
            } else {
                p.unregister_trace_foreign(id);
            }
        }
    }

    /// Looks up a corpus entry in whichever partition owns it.
    pub fn corpus_get(&self, id: TracerouteId) -> Option<&crate::corpus::CorpusEntry> {
        self.parts.iter().find_map(|p| p.corpus.get(id))
    }

    /// Total corpus entries across partitions.
    pub fn corpus_len(&self) -> usize {
        self.parts.iter().map(|p| p.corpus.len()).sum()
    }

    /// Advances every partition to `now` — keyed BGP input routed,
    /// broadcast public input fanned out, per-partition batches merged
    /// into the single-instance batch.
    pub fn step(
        &mut self,
        now: Timestamp,
        bgp_updates: &[BgpUpdate],
        public: &[Traceroute],
    ) -> Vec<StalenessSignal> {
        let _step_span = self.obs.step_ns.span();
        let buckets = route_updates(&self.map, bgp_updates);
        self.obs.observe_route(&buckets, public.len());
        let batches: Vec<Vec<StalenessSignal>> = if self.parallel && self.parts.len() > 1 {
            std::thread::scope(|s| {
                let handles: Vec<_> = self
                    .parts
                    .iter_mut()
                    .zip(&buckets)
                    .map(|(p, bucket)| s.spawn(move || p.step(now, bucket, public)))
                    .collect();
                handles.into_iter().map(|h| h.join().expect("partition worker panicked")).collect()
            })
        } else {
            self.parts.iter_mut().zip(&buckets).map(|(p, b)| p.step(now, b, public)).collect()
        };
        let merge_span = self.obs.merge_ns.span();
        let merged = merge_signal_batches(batches);
        drop(merge_span);
        self.obs.merged_signals.add(merged.len() as u64);
        self.log.extend(merged.iter().cloned());
        merged
    }

    /// Clone of partition 0's calibrator with every other partition's
    /// tallies absorbed — the single instance's calibrator, up to the RNG
    /// (which the coordinator supplies).
    fn merged_calibrator(&self) -> Calibrator {
        let mut cal = self.parts[0].cal.clone();
        for p in &self.parts[1..] {
            cal.absorb(&p.cal);
        }
        cal
    }

    /// Plans refreshes from the cross-partition merged calibration state,
    /// drawing the coordinator's random stream — the exact plan (and
    /// stream position) a single instance produces: union the
    /// partition-local assertion and potential maps, resolve probes across
    /// partitions, and run the shared planning body under the merged
    /// calibrator with the coordinator's RNG swapped in (and the advanced
    /// stream taken back out).
    pub fn plan_refresh(&mut self, budget: usize) -> RefreshPlan {
        let mut cal = self.merged_calibrator();
        cal.swap_rng(&mut self.plan_rng);
        let mut active = HashMap::new();
        let mut potential = HashMap::new();
        for p in &self.parts {
            for (id, per) in &p.active {
                active.insert(*id, per.clone());
            }
            for (id, keys) in &p.potential {
                potential.insert(*id, keys.clone());
            }
        }
        let probe_of = |id: TracerouteId| self.corpus_get(id).map(|e| e.traceroute.probe);
        let plan =
            crate::query::plan_refresh_impl(&active, &potential, &probe_of, &mut cal, budget);
        cal.swap_rng(&mut self.plan_rng);
        plan
    }

    /// Applies a refresh measurement: verification (and its calibration
    /// records) run in the owner of the old entry; the replacement routes
    /// to wherever the new destination belongs.
    pub fn apply_refresh(
        &mut self,
        old_id: TracerouteId,
        new_tr: Traceroute,
        src_asn: Option<Asn>,
    ) -> (Option<TracerouteId>, bool) {
        let owner = self.parts.iter().position(|p| p.corpus.get(old_id).is_some());
        let any_changed = match owner {
            Some(k) => {
                let changed = self.parts[k].verify_signals(old_id, &new_tr);
                self.remove_corpus(old_id);
                changed
            }
            None => false,
        };
        (self.add_corpus(new_tr, src_asn), any_changed)
    }

    /// Per-partition invariants plus the cross-partition ones: exclusive
    /// ownership and routing agreement.
    pub fn validate(&self) -> Result<(), rrr_types::Error> {
        let mut seen = HashSet::new();
        for (k, p) in self.parts.iter().enumerate() {
            p.validate()?;
            for en in p.corpus.entries() {
                if !seen.insert(en.id) {
                    return Err(rrr_types::Error::invariant(
                        "partition",
                        format!("corpus entry {:?} owned by two partitions", en.id),
                    ));
                }
                let base = en.dst_prefix.map(|pf| pf.network()).unwrap_or(en.traceroute.dst);
                if self.map.of_addr(base) != k {
                    return Err(rrr_types::Error::invariant(
                        "partition",
                        format!("corpus entry {:?} misrouted to partition {k}", en.id),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Canonical (park-normalized) semantic state bytes — byte-identical
    /// to [`canonical_bytes_single`] over an unpartitioned detector that
    /// consumed the same streams.
    pub fn canonical_bytes(&mut self) -> Result<Vec<u8>, StoreError> {
        let mut cal = self.merged_calibrator();
        let mut rng = self.plan_rng.clone();
        cal.swap_rng(&mut rng);
        let cal_bytes = rrr_store::to_payload(&cal)?;
        let log = self.log.clone();
        let mut parts: Vec<&mut StalenessDetector> = self.parts.iter_mut().collect();
        canonical_state_bytes(&mut parts, &cal_bytes, &log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_map_is_total_and_balanced() {
        for n in [1usize, 2, 3, 4, 8, 16] {
            let map = PartitionMap::even(n);
            assert_eq!(map.len(), n);
            // Totality at the boundaries and interior points.
            assert_eq!(map.of_addr(Ipv4::new(0, 0, 0, 0)), 0);
            assert_eq!(map.of_addr(Ipv4::new(255, 255, 255, 255)), n - 1);
            for k in 0..n {
                let (start, _) = map.range(k);
                assert_eq!(map.of_addr(Ipv4(start)), k);
            }
        }
    }

    #[test]
    fn split_points_validated() {
        assert!(PartitionMap::from_splits(vec![10, 20, 30]).is_ok());
        assert!(PartitionMap::from_splits(vec![0, 20]).is_err(), "zero split");
        assert!(PartitionMap::from_splits(vec![20, 20]).is_err(), "duplicate split");
        assert!(PartitionMap::from_splits(vec![30, 20]).is_err(), "descending");
    }

    #[test]
    fn map_round_trips() {
        let map = PartitionMap::even(8);
        let bytes = rrr_store::to_payload(&map).expect("encode");
        let back: PartitionMap = rrr_store::from_payload(&bytes).expect("decode");
        assert_eq!(back, map);
        // Routing is identical through the round trip.
        for v in [0u32, 1, 1 << 29, 1 << 31, u32::MAX] {
            assert_eq!(back.of_addr(Ipv4(v)), map.of_addr(Ipv4(v)));
        }
    }

    #[test]
    fn prefix_routes_by_base_address() {
        let map = PartitionMap::even(4);
        let p: Prefix = "192.0.0.0/8".parse().expect("prefix");
        assert_eq!(map.of_prefix(p), map.of_addr(Ipv4::new(192, 0, 0, 0)));
    }
}
