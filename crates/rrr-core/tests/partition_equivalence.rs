//! The partitioning headline property: N cooperating partitions over
//! contiguous key ranges must reproduce a single unpartitioned detector
//! **bit-identically** — same merged signal log, same refresh plans, same
//! canonical semantic state bytes — for any N and any key-range placement.
//!
//! Also covers the [`PartitionMap`] contract: routing is total (every
//! address lands in exactly one partition), contiguous (monotone in the
//! address), and stable across a serde round trip.

use rrr_core::detector::{DetectorConfig, StalenessDetector};
use rrr_core::partition::{canonical_bytes_single, PartitionMap, PartitionedDetector};
use rrr_core::signal::StalenessSignal;
use rrr_geo::{GeoDb, Geolocator};
use rrr_ip2as::{AliasResolver, IpToAsMap};
use rrr_topology::{generate, Topology, TopologyConfig};
use rrr_types::{
    AsPath, Asn, BgpElem, BgpUpdate, CityId, Community, Hop, Ipv4, Prefix, ProbeId, Timestamp,
    Traceroute, TracerouteId, VpId,
};
use std::sync::Arc;

use proptest::prelude::*;

const NUM_VPS: u32 = 3;
/// Destination prefixes 10.2.0.0/16 .. 10.5.0.0/16 (indices 0..4).
const NUM_DSTS: u32 = 4;
const ROUND: u64 = 900;
const PLAN_EVERY: usize = 3;
const PLAN_BUDGET: usize = 4;

fn ip(s: &str) -> Ipv4 {
    s.parse().expect("valid ip")
}

fn env() -> (Arc<Topology>, IpToAsMap, Geolocator, AliasResolver) {
    let topo = Arc::new(generate(&TopologyConfig::small(3)));
    let mut map = IpToAsMap::new();
    for i in 0..(2 + NUM_DSTS) {
        map.add_origin(format!("10.{i}.0.0/16").parse::<Prefix>().expect("p"), Asn(100 + i));
    }
    let mut db = GeoDb::default();
    for third in 0..(2 + NUM_DSTS) as u8 {
        for last in 0..32u8 {
            db.insert(Ipv4::new(10, third, 0, last), CityId(third as u16));
        }
    }
    let geo = Geolocator::new(db, vec![]);
    let alias = AliasResolver::from_topology(&topo, 1.0, 0);
    (topo, map, geo, alias)
}

fn config() -> DetectorConfig {
    DetectorConfig { seed: 42, threads: 1, ..DetectorConfig::default() }
}

/// A routing map that actually splits the test world: interior split
/// points fall between the 10.x/16 destination prefixes, so the corpus
/// spreads across partitions (some partitions stay empty at larger N —
/// that path is part of the property).
fn split_map(n: usize) -> PartitionMap {
    if n == 1 {
        return PartitionMap::even(1);
    }
    // n-1 split points at 10.2.0.0 + k * (4 * /16 span / n).
    let lo = u64::from(Ipv4::new(10, 2, 0, 0).value());
    let hi = u64::from(Ipv4::new(10, 6, 0, 0).value());
    let splits: Vec<u32> = (1..n as u64).map(|k| (lo + k * (hi - lo) / n as u64) as u32).collect();
    PartitionMap::from_splits(splits).expect("ascending splits")
}

fn corpus_trace(id: u64, dst_idx: u32) -> Traceroute {
    let d = 2 + dst_idx;
    Traceroute {
        id: TracerouteId(id),
        probe: ProbeId(dst_idx),
        src: ip("10.0.0.200"),
        dst: Ipv4::new(10, d as u8, 0, 1),
        time: Timestamp(0),
        hops: vec![
            Hop::responsive(ip("10.0.0.2")),
            Hop::responsive(ip("10.1.0.1")),
            Hop::responsive(Ipv4::new(10, d as u8, 0, 1)),
        ],
        reached: true,
    }
}

fn fresh_detector() -> StalenessDetector {
    let (topo, map, geo, alias) = env();
    let vps: Vec<VpId> = (0..NUM_VPS).map(VpId).collect();
    StalenessDetector::new(topo, map, geo, alias, vps, config())
}

/// Single-instance reference with a seeded RIB and one corpus entry per
/// destination.
fn build_single() -> StalenessDetector {
    let mut d = fresh_detector();
    d.init_rib(&rib_seed());
    for dst in 0..NUM_DSTS {
        d.add_corpus(corpus_trace(1 + dst as u64, dst), None).expect("corpus trace valid");
    }
    d
}

/// Same construction through the partitioned facade.
fn build_partitioned(n: usize) -> PartitionedDetector {
    build_partitioned_with_map(split_map(n))
}

/// Same construction over an explicit routing map.
fn build_partitioned_with_map(map: PartitionMap) -> PartitionedDetector {
    let mut d = PartitionedDetector::from_factory(map, |_| fresh_detector());
    d.init_rib(&rib_seed());
    for dst in 0..NUM_DSTS {
        d.add_corpus(corpus_trace(1 + dst as u64, dst), None).expect("corpus trace valid");
    }
    d
}

fn rib_seed() -> Vec<BgpUpdate> {
    let mut rib = Vec::new();
    for dst in 0..NUM_DSTS {
        for vp in 0..NUM_VPS {
            rib.push(update(Spec { round_off: 0, vp, dst, action: 1, comm_variant: 0 }, 0, 0));
        }
    }
    rib
}

/// One generated BGP update in index form (cheap for proptest shrinking).
#[derive(Debug, Clone, Copy)]
struct Spec {
    round_off: u64,
    vp: u32,
    dst: u32,
    /// 0 = withdraw; 1 = the RIB-seeded path; 2 = deviating path;
    /// 3 = seeded path with changed community.
    action: u8,
    comm_variant: u8,
}

fn update(s: Spec, round: u64, n: u64) -> BgpUpdate {
    let prefix: Prefix = format!("10.{}.0.0/16", 2 + s.dst).parse().expect("p");
    let origin = 102 + s.dst;
    let elem = match s.action {
        0 => BgpElem::Withdraw,
        _ => {
            let path = match s.action {
                2 => vec![90 + s.vp, 101, 77, origin],
                _ => vec![90 + s.vp, 101, origin],
            };
            let comm = match (s.action, s.comm_variant) {
                (3, v) => vec![Community::new(101, 50_002 + v as u32)],
                _ => vec![Community::new(101, 50_001)],
            };
            BgpElem::Announce { path: AsPath::from_asns(path), communities: comm }
        }
    };
    BgpUpdate {
        time: Timestamp(round * ROUND + (s.round_off % (ROUND - 10)) + n % 7),
        vp: VpId(s.vp),
        prefix,
        elem,
    }
}

fn public_trace(id: u64, round: u64, off: u64, dst: u32, deviate: bool) -> Traceroute {
    let d = (2 + dst) as u8;
    let mid = if deviate { ip("10.1.0.9") } else { ip("10.1.0.1") };
    Traceroute {
        id: TracerouteId(500_000 + id),
        probe: ProbeId(9),
        src: ip("10.0.0.201"),
        dst: Ipv4::new(10, d, 0, 8),
        time: Timestamp(round * ROUND + off % (ROUND - 10)),
        hops: vec![
            Hop::responsive(ip("10.0.0.2")),
            Hop::responsive(mid),
            Hop::responsive(Ipv4::new(10, d, 0, 2)),
            Hop::responsive(Ipv4::new(10, d, 0, 8)),
        ],
        reached: true,
    }
}

/// One round of inputs.
#[derive(Debug, Clone)]
struct Round {
    updates: Vec<Spec>,
    /// (offset, dst, deviate) triples.
    traces: Vec<(u64, u32, bool)>,
}

fn round_strategy() -> impl Strategy<Value = Round> {
    let spec = (0..ROUND - 10, 0..NUM_VPS, 0..NUM_DSTS, 0..4u8, 0..3u8).prop_map(
        |(round_off, vp, dst, action, comm_variant)| Spec {
            round_off,
            vp,
            dst,
            action,
            comm_variant,
        },
    );
    let trace = (0..ROUND - 10, 0..NUM_DSTS, any::<bool>());
    (proptest::collection::vec(spec, 0..24), proptest::collection::vec(trace, 0..6))
        .prop_map(|(updates, traces)| Round { updates, traces })
}

fn round_inputs(round: &Round, r: u64) -> (Vec<BgpUpdate>, Vec<Traceroute>) {
    let mut updates: Vec<BgpUpdate> =
        round.updates.iter().enumerate().map(|(n, s)| update(*s, r, n as u64)).collect();
    updates.sort_by_key(|u| u.time);
    let public: Vec<Traceroute> = round
        .traces
        .iter()
        .enumerate()
        .map(|(n, &(off, dst, dev))| public_trace(r * 100 + n as u64, r, off, dst, dev))
        .collect();
    (updates, public)
}

fn signal_repr(s: &StalenessSignal) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:016x}|{:?}|{:?}",
        s.key,
        s.time,
        s.window,
        s.score.to_bits(),
        s.traceroutes,
        s.trigger_communities
    )
}

/// Drives the single-instance reference: step each round, plan (and apply)
/// refreshes on the fixed cadence.
fn drive_single(det: &mut StalenessDetector, rounds: &[Round]) -> Vec<Vec<TracerouteId>> {
    let mut plans = Vec::new();
    for (k, round) in rounds.iter().enumerate() {
        let r = k as u64;
        let (updates, public) = round_inputs(round, r);
        let _ = det.step(Timestamp((r + 1) * ROUND), &updates, &public);
        if (k + 1).is_multiple_of(PLAN_EVERY) {
            let plan = det.plan_refresh(PLAN_BUDGET);
            for (j, &old) in plan.refresh.iter().enumerate() {
                let Some(entry) = det.corpus().get(old) else { continue };
                let mut fresh = entry.traceroute.clone();
                fresh.id = TracerouteId(900_000 + r * 100 + j as u64);
                fresh.time = Timestamp((r + 1) * ROUND);
                let _ = det.apply_refresh(old, fresh, None);
            }
            plans.push(plan.refresh);
        }
    }
    plans
}

/// The same schedule through the partitioned facade.
fn drive_partitioned(det: &mut PartitionedDetector, rounds: &[Round]) -> Vec<Vec<TracerouteId>> {
    let mut plans = Vec::new();
    for (k, round) in rounds.iter().enumerate() {
        let r = k as u64;
        let (updates, public) = round_inputs(round, r);
        let _ = det.step(Timestamp((r + 1) * ROUND), &updates, &public);
        if (k + 1).is_multiple_of(PLAN_EVERY) {
            let plan = det.plan_refresh(PLAN_BUDGET);
            for (j, &old) in plan.refresh.iter().enumerate() {
                let Some(entry) = det.corpus_get(old) else { continue };
                let mut fresh = entry.traceroute.clone();
                fresh.id = TracerouteId(900_000 + r * 100 + j as u64);
                fresh.time = Timestamp((r + 1) * ROUND);
                let _ = det.apply_refresh(old, fresh, None);
            }
            plans.push(plan.refresh);
        }
    }
    plans
}

/// Single reference vs partitioned at each N: merged signal log, refresh
/// plans, and canonical state bytes must all be identical.
fn assert_partition_equivalent(rounds: &[Round], ns: &[usize]) {
    assert_map_equivalent(rounds, ns.iter().map(|&n| split_map(n)).collect());
}

/// The same property over explicit routing maps (edge-case placements:
/// single-address ranges, far more partitions than occupied prefixes).
fn assert_map_equivalent(rounds: &[Round], maps: Vec<PartitionMap>) {
    let mut reference = build_single();
    let mut ref_plans = drive_single(&mut reference, rounds);
    ref_plans.push(reference.plan_refresh(PLAN_BUDGET).refresh);
    let ref_log: Vec<String> = reference.signal_log().iter().map(signal_repr).collect();
    let ref_bytes = canonical_bytes_single(&mut reference).expect("reference canonical bytes");

    for map in maps {
        let n = map.len();
        let mut parted = build_partitioned_with_map(map);
        let mut plans = drive_partitioned(&mut parted, rounds);
        plans.push(parted.plan_refresh(PLAN_BUDGET).refresh);
        let log: Vec<String> = parted.signal_log().iter().map(signal_repr).collect();
        parted.validate().expect("partition invariants");
        let bytes = parted.canonical_bytes().expect("partitioned canonical bytes");

        assert_eq!(ref_log, log, "merged signal log diverged at N={n}");
        assert_eq!(ref_plans, plans, "refresh plans diverged at N={n}");
        assert_eq!(ref_bytes, bytes, "canonical state bytes diverged at N={n}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn partitioning_is_bit_identical(
        rounds in proptest::collection::vec(round_strategy(), 6..10),
    ) {
        assert_partition_equivalent(&rounds, &[2, 4, 8]);
    }

    /// PartitionMap routing is total, contiguous, and serde-stable for
    /// arbitrary split points.
    #[test]
    fn partition_map_contract(
        raw in proptest::collection::vec(1u32..u32::MAX, 0..12usize),
        addrs in proptest::collection::vec(any::<u32>(), 0..64),
    ) {
        let mut splits: Vec<u32> = raw;
        splits.sort_unstable();
        splits.dedup();
        let map = PartitionMap::from_splits(splits.clone()).expect("sorted dedup non-zero");
        prop_assert_eq!(map.len(), splits.len() + 1);

        let bytes = rrr_store::to_payload(&map).expect("encode");
        let back: PartitionMap = rrr_store::from_payload(&bytes).expect("decode");
        prop_assert_eq!(&back, &map);

        let mut prev = 0usize;
        let mut sorted = addrs.clone();
        sorted.sort_unstable();
        for v in sorted {
            let k = map.of_addr(Ipv4(v));
            // Total: a valid partition index.
            prop_assert!(k < map.len());
            // Contiguous: monotone in the address.
            prop_assert!(k >= prev);
            prev = k;
            // Consistent with the advertised range.
            let (start, end) = map.range(k);
            prop_assert!(v >= start);
            if let Some(end) = end {
                prop_assert!(v < end);
            }
            // Stable across the serde round trip.
            prop_assert_eq!(back.of_addr(Ipv4(v)), k);
        }
    }
}

/// Ten deterministic rounds whose community flips fire signals and whose
/// refresh cadence exercises the merged planner — the shared workload for
/// every deterministic equivalence test below.
fn firing_rounds() -> Vec<Round> {
    let mut rounds = Vec::new();
    for r in 0..10u64 {
        let mut updates = Vec::new();
        for vp in 0..NUM_VPS {
            for dst in 0..NUM_DSTS {
                let action = if r % 4 == 3 && dst == 0 { 3 } else { 1 };
                updates.push(Spec {
                    round_off: vp as u64 * 31 + dst as u64 * 7,
                    vp,
                    dst,
                    action,
                    comm_variant: (r % 2) as u8,
                });
            }
        }
        let traces = (0..4).map(|n| (n * 200 + 5, (n as u32) % NUM_DSTS, r % 5 == 4)).collect();
        rounds.push(Round { updates, traces });
    }
    rounds
}

/// Deterministic non-vacuous case: community flips fire signals and the
/// refresh cadence exercises the merged planner; checked at N=2/4/8 with
/// partition-parallel stepping both off and on.
#[test]
fn partitioned_run_with_firing_signals() {
    let rounds = firing_rounds();
    // Non-vacuous: the reference run must actually fire signals.
    let mut probe = build_single();
    let _ = drive_single(&mut probe, &rounds);
    assert!(!probe.signal_log().is_empty(), "stream should fire signals");

    assert_partition_equivalent(&rounds, &[2, 4, 8]);

    // Same property with the scoped-thread step path forced off (the
    // facade's output must not depend on how partitions are scheduled).
    let mut reference = build_single();
    let ref_plans = drive_single(&mut reference, &rounds);
    let ref_log: Vec<String> = reference.signal_log().iter().map(signal_repr).collect();
    let mut serial = build_partitioned(4);
    serial.set_parallel(false);
    let plans = drive_partitioned(&mut serial, &rounds);
    let log: Vec<String> = serial.signal_log().iter().map(signal_repr).collect();
    assert_eq!(ref_log, log, "serial facade log diverged");
    assert_eq!(ref_plans, plans, "serial facade plans diverged");
}

/// Single-address ranges are legal placements: `[b, b+1)` holds exactly
/// one address, and routing plus the merged run must still be
/// bit-identical to the single reference.
#[test]
fn single_address_ranges_merge_identically() {
    let b = Ipv4::new(10, 3, 0, 0).value();
    let c = Ipv4::new(10, 4, 0, 0).value();
    let map = PartitionMap::from_splits(vec![b, b + 1, c, c + 1]).expect("ascending splits");
    assert_eq!(map.len(), 5);

    // Partitions 1 and 3 each own exactly one address.
    assert_eq!(map.range(1), (b, Some(b + 1)));
    assert_eq!(map.range(3), (c, Some(c + 1)));
    assert_eq!(map.of_addr(Ipv4(b)), 1);
    assert_eq!(map.of_addr(Ipv4(b + 1)), 2);
    assert_eq!(map.of_addr(Ipv4(c - 1)), 2);
    assert_eq!(map.of_addr(Ipv4(c)), 3);
    assert_eq!(map.of_addr(Ipv4(c + 1)), 4);

    // A destination prefix routes by its base address, so 10.3.0.0/16
    // lands in the one-address partition and still merges cleanly.
    assert_eq!(map.of_prefix("10.3.0.0/16".parse().expect("p")), 1);

    assert_map_equivalent(&firing_rounds(), vec![map]);
}

/// More partitions than occupied prefixes: most partitions never see a
/// corpus entry or an update, and the empty majority must not perturb the
/// merged output.
#[test]
fn more_partitions_than_prefixes_merge_identically() {
    let wide = split_map(16);
    let even = PartitionMap::even(64);
    for map in [&wide, &even] {
        let parted = build_partitioned_with_map(map.clone());
        let empty = parted.partitions().iter().filter(|p| p.corpus().is_empty()).count();
        assert!(
            empty > map.len() / 2,
            "with {} partitions over {NUM_DSTS} prefixes most must be empty, got {empty}",
            map.len()
        );
        assert_eq!(parted.corpus_len(), NUM_DSTS as usize, "no entry lost to an empty range");
    }
    assert_map_equivalent(&firing_rounds(), vec![wide, even]);
}

/// The corpus spread is non-degenerate: at N=4 the four destinations land
/// in distinct partitions, and the facade finds all of them.
#[test]
fn corpus_spreads_across_partitions() {
    let parted = build_partitioned(4);
    let occupied: Vec<usize> = parted.partitions().iter().map(|p| p.corpus().len()).collect();
    assert_eq!(occupied, vec![1, 1, 1, 1], "each destination owns its own partition");
    assert_eq!(parted.corpus_len(), NUM_DSTS as usize);
    for dst in 0..NUM_DSTS {
        assert!(parted.corpus_get(TracerouteId(1 + dst as u64)).is_some(), "missing entry {dst}");
    }
}
