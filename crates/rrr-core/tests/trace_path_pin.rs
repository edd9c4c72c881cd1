//! Behaviour pin for the public-traceroute path of `step`: a small fixed
//! world driven for four dozen rounds with public traceroutes — stars the
//! patcher fills in (one of them with an IXP LAN address), a subpath and
//! border shift, an IXP join — must reproduce the signal count, the digest
//! of the signal log and the CRC-32 of the final checkpoint captured before
//! that path was reworked to resolve each hop once and flush only the
//! series that are due.

use rrr_core::detector::{DetectorConfig, StalenessDetector};
use rrr_core::signal::Technique;
use rrr_core::Query;
use rrr_geo::{GeoDb, Geolocator};
use rrr_ip2as::{AliasResolver, IpToAsMap};
use rrr_store::{crc32::crc32, Encoder, Persist};
use rrr_topology::{generate, TopologyConfig};
use rrr_types::{
    Asn, CityId, Hop, Ipv4, IxpId, Prefix, ProbeId, Timestamp, Traceroute, TracerouteId, VpId,
};
use std::sync::Arc;

const ROUND: u64 = 900;
const ROUNDS: u64 = 48;
/// The monitored 100 → 101 crossing moves to another interface here.
const SHIFT_AT: u64 = 40;
/// AS 103 first shows up next to the IXP LAN here.
const JOIN_AT: u64 = 30;

fn ip(s: &str) -> Ipv4 {
    s.parse().expect("valid ip")
}

fn trace(id: u64, t: u64, dst: &str, hops: &[&str]) -> Traceroute {
    Traceroute {
        id: TracerouteId(id),
        probe: ProbeId(0),
        src: ip("10.0.0.200"),
        dst: ip(dst),
        time: Timestamp(t),
        hops: hops
            .iter()
            .map(|h| if *h == "*" { Hop::star() } else { Hop::responsive(ip(h)) })
            .collect(),
        reached: true,
    }
}

/// ASes 100–105 own 10.{0..5}/16, IXP 0's LAN is 11.0.0.0/20. The registry
/// is wiped and rewritten so the test owns every relationship: 101 is the
/// provider of 103, and 102 the one registered member of IXP 0.
fn detector() -> StalenessDetector {
    let mut topo = generate(&TopologyConfig::small(3));
    topo.registry.ixp_members.clear();
    topo.registry.p2c_pairs.clear();
    topo.registry.peer_pairs.clear();
    let idx = |asn: u32| topo.idx_of(Asn(asn)).expect("generated AS");
    let (provider, customer, member) = (idx(101), idx(103), idx(102));
    topo.registry.p2c_pairs.insert((provider, customer));
    topo.registry.ixp_members.insert(IxpId(0), [member].into_iter().collect());

    let mut map = IpToAsMap::new();
    for i in 0..6u32 {
        map.add_origin(format!("10.{i}.0.0/16").parse::<Prefix>().expect("p"), Asn(100 + i));
    }
    map.add_ixp_lan("11.0.0.0/20".parse::<Prefix>().expect("p"), IxpId(0));
    let mut db = GeoDb::default();
    for third in 0..6u8 {
        for last in 0..30u8 {
            db.insert(Ipv4::new(10, third, 0, last), CityId(third as u16));
        }
    }
    for last in 0..30u8 {
        db.insert(Ipv4::new(11, 0, 0, last), CityId(7));
    }
    let alias = AliasResolver::from_topology(&topo, 1.0, 0);
    let cfg = DetectorConfig { seed: 7, threads: 1, ..DetectorConfig::default() };
    let mut d = StalenessDetector::new(
        Arc::new(topo),
        map,
        Geolocator::new(db, vec![]),
        alias,
        vec![VpId(0)],
        cfg,
    );
    // One corpus path per monitored shape: a plain 100 → 101 → 102 path,
    // one that enters 102 over the IXP LAN, and one from 103 through its
    // provider 101 to the member 102 (what a 103 join would displace).
    let corpus: [(&str, &[&str]); 3] = [
        ("10.2.0.1", &["10.0.0.2", "10.0.0.3", "10.1.0.1", "10.1.0.2", "10.2.0.4", "10.2.0.1"]),
        ("10.2.0.9", &["10.0.0.2", "10.0.0.5", "11.0.0.5", "10.2.0.6", "10.2.0.7", "10.2.0.9"]),
        ("10.2.0.11", &["10.3.0.2", "10.3.0.3", "10.1.0.4", "10.1.0.5", "10.2.0.8", "10.2.0.11"]),
    ];
    for (k, (dst, hops)) in corpus.into_iter().enumerate() {
        let mut tr = trace(k as u64 + 1, 0, dst, hops);
        tr.src = hops[0].parse().expect("ip");
        d.add_corpus(tr, None).expect("corpus trace maps cleanly");
    }
    d
}

/// The public traceroutes of one round, time-sorted.
fn round_traces(r: u64) -> Vec<Traceroute> {
    let t0 = r * ROUND;
    let border = if r < SHIFT_AT { "10.1.0.1" } else { "10.1.0.9" };
    let mut out = Vec::new();
    let mut push = |k: u64, dst: &str, hops: &[&str]| {
        out.push(trace(1000 + r * 20 + k, t0 + 30 * k, dst, hops));
    };
    // The monitored segment, whole: teaches the patcher its middle hop.
    for k in 0..3 {
        push(k, "10.1.0.20", &["10.0.0.2", "10.0.0.3", border, "10.1.0.2", "10.1.0.8"]);
    }
    // The same with the border hop silent: patched while the middle is
    // unique (until the shift teaches a second one), a wildcard after.
    push(3, "10.1.0.21", &["10.0.0.2", "10.0.0.3", "*", "10.1.0.2", "10.1.0.8"]);
    // Two stars in one trace, both patchable.
    push(4, "10.1.0.22", &["10.0.0.2", "*", border, "*", "10.1.0.8"]);
    // The IXP crossing, whole, then with the LAN hop silent: the patched
    // view crosses the IXP, the measured one does not.
    for k in 5..7 {
        push(k, "10.2.0.20", &["10.0.0.2", "10.0.0.5", "11.0.0.5", "10.2.0.6", "10.2.0.7"]);
    }
    push(7, "10.2.0.21", &["10.0.0.2", "10.0.0.5", "*", "10.2.0.6", "10.2.0.7"]);
    // Unmapped space and a trailing star: no border, no panic.
    push(8, "10.2.0.22", &["172.16.0.1", "10.0.0.5", "172.16.0.2", "*"]);
    // An unmapped hop keeps the AS-mapped neighbour of the LAN address out
    // of the patcher's triple: AS 104 teaches (unmapped, 102) → LAN, then a
    // trace from AS 105 has that hop filled in. Only a monitor reading the
    // patched view sees 105 next to the IXP — the IXP monitor must not.
    push(9, "10.2.0.24", &["10.4.0.6", "172.16.0.9", "11.0.0.7", "10.2.0.6", "10.2.0.7"]);
    push(10, "10.2.0.25", &["10.5.0.2", "172.16.0.9", "*", "10.2.0.6", "10.2.0.7"]);
    // The third corpus path's segment, seen too rarely to ever window.
    if r.is_multiple_of(8) {
        push(11, "10.1.0.23", &["10.3.0.2", "10.3.0.3", "10.1.0.4", "10.1.0.5", "10.1.0.8"]);
    }
    if r >= JOIN_AT {
        push(12, "10.2.0.23", &["10.3.0.2", "10.3.0.3", "11.0.0.6", "10.2.0.6"]);
    }
    out
}

/// FNV-1a over the stored form of every signal, in log order.
fn log_digest(d: &StalenessDetector) -> u64 {
    let mut bytes = Vec::new();
    let mut e = Encoder::new(&mut bytes);
    for s in d.signal_log() {
        s.store(&mut e).expect("vec write");
    }
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3))
}

#[test]
fn traceroute_path_reproduces_the_parent() {
    let mut d = detector();
    for r in 0..ROUNDS {
        d.step(Timestamp((r + 1) * ROUND), &[], &round_traces(r));
    }
    // Three weeks of silence: the series that never saw enough traffic to
    // choose a window give up (the deadline side of the flush schedule).
    let gave_up = |d: &StalenessDetector| {
        let stats = d.monitor_stats();
        stats.subpaths.gave_up + stats.borders.gave_up
    };
    assert_eq!(gave_up(&d), 0);
    d.step(Timestamp(ROUNDS * ROUND + 21 * 86_400), &[], &[]);
    assert!(gave_up(&d) > 0, "a sparse series gives up");
    let log = d.signal_log();
    for t in [Technique::TraceSubpath, Technique::TraceBorder, Technique::IxpColocation] {
        assert!(log.iter().any(|s| s.key.technique == t), "the world must exercise {t:?}");
    }
    let mut checkpoint = Vec::new();
    d.checkpoint(&mut checkpoint).expect("vec write");
    // Without the frame's trailing CRC: with it the CRC-32 of any frame
    // is the same residue.
    let body = &checkpoint[..checkpoint.len() - 4];
    assert_eq!(
        (log.len(), log_digest(&d), crc32(body)),
        (PARENT_SIGNALS, PARENT_LOG_DIGEST, PARENT_CHECKPOINT_CRC),
        "signal count, signal-log digest, checkpoint CRC"
    );
}

// Captured at commit ca2f926 (the parent of the rework).
const PARENT_SIGNALS: usize = 17;
const PARENT_LOG_DIGEST: u64 = 3_611_071_885_282_007_793;
const PARENT_CHECKPOINT_CRC: u32 = 2_761_272_529;
