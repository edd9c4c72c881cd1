//! Backpressure regression: there is no queue between a feed and the
//! merge loop, so when the merge loop stalls (here: blocked on a
//! deliberately slow feed) a fast feed has built at most two batches — the
//! one the merge loop holds in `heads` and the one in its own hands — its
//! stall counter fires, and once the slow feed catches up the stream drains
//! completely, every batch accepted, with output bit-identical to the
//! serial replay.

use rrr_core::detector::{DetectorConfig, StalenessDetector};
use rrr_core::Metrics;
use rrr_geo::{GeoDb, Geolocator};
use rrr_ip2as::{AliasResolver, IpToAsMap};
use rrr_serve::{
    canonicalize, split_rounds, Daemon, DaemonConfig, Engine, FeedBatch, FeedSource, ScriptedFeed,
};
use rrr_types::{
    AsPath, Asn, BgpElem, BgpUpdate, CityId, Community, Error, Hop, Ipv4, Prefix, ProbeId,
    Timestamp, Traceroute, TracerouteId, VpId,
};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NUM_VPS: u32 = 3;
const NUM_DSTS: u32 = 4;
const ROUND: u64 = 900;
const ROUNDS: u64 = 8;
/// One batch in the merge loop's `heads` slot, one in the feed's hands.
const MAX_BUILT_WHILE_STARVED: u64 = 2;

fn ip(s: &str) -> Ipv4 {
    s.parse().expect("valid ip")
}

/// The firing world from `partition_equivalence`: corpus traces traverse
/// AS 101, whose community variants flip mid-run.
fn detector() -> StalenessDetector {
    let topo = Arc::new(rrr_topology::generate(&rrr_topology::TopologyConfig::small(3)));
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
    let vps: Vec<VpId> = (0..NUM_VPS).map(VpId).collect();
    let mut det = StalenessDetector::new(
        topo,
        map,
        geo,
        alias,
        vps,
        DetectorConfig { seed: 42, threads: 1, ..DetectorConfig::default() },
    );
    det.init_rib(&rib_seed());
    for dst in 0..NUM_DSTS {
        det.add_corpus(corpus_trace(1 + dst as u64, dst), None).expect("corpus trace valid");
    }
    det
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

/// One announce (or community flip) for `(vp, dst)` in round `r`.
fn upd(vp: u32, dst: u32, r: u64, flip: bool) -> BgpUpdate {
    let prefix: Prefix = format!("10.{}.0.0/16", 2 + dst).parse().expect("p");
    let origin = 102 + dst;
    let comm = if flip {
        vec![Community::new(101, 50_002 + (r % 2) as u32)]
    } else {
        vec![Community::new(101, 50_001)]
    };
    BgpUpdate {
        time: Timestamp(r * ROUND + vp as u64 * 31 + dst as u64 * 7),
        vp: VpId(vp),
        prefix,
        elem: BgpElem::Announce {
            path: AsPath::from_asns([90 + vp, 101, origin]),
            communities: comm,
        },
    }
}

fn rib_seed() -> Vec<BgpUpdate> {
    let mut rib = Vec::new();
    for dst in 0..NUM_DSTS {
        for vp in 0..NUM_VPS {
            rib.push(upd(vp, dst, 0, false));
        }
    }
    rib
}

fn scripted_rounds() -> Vec<FeedBatch> {
    (0..ROUNDS)
        .map(|r| {
            let mut updates: Vec<BgpUpdate> = (0..NUM_VPS)
                .flat_map(|vp| {
                    (0..NUM_DSTS).map(move |dst| upd(vp, dst, r, r % 4 == 3 && dst == 0))
                })
                .collect();
            updates.sort_by_key(|u| u.time);
            FeedBatch { now: Timestamp((r + 1) * ROUND), updates, public: Vec::new() }
        })
        .collect()
}

/// A feed that refuses to emit anything until released — while it holds
/// the merge loop hostage, the fast feed must block in its hand-off.
struct GatedFeed {
    release: Arc<AtomicBool>,
    batches: VecDeque<FeedBatch>,
}

impl FeedSource for GatedFeed {
    fn next_batch(&mut self) -> Result<Option<FeedBatch>, Error> {
        while !self.release.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(self.batches.pop_front())
    }
}

#[test]
fn fast_feed_runs_at_most_one_batch_ahead() {
    let steps = scripted_rounds();

    // Serial ground truth for the post-drain equivalence check.
    let mut reference = detector();
    let mut want = Vec::new();
    for b in canonicalize(&steps) {
        want.extend(reference.step(b.now, &b.updates, &b.public));
    }
    assert!(!want.is_empty(), "scenario must fire signals");

    let split = split_rounds(&steps, 2);
    let release = Arc::new(AtomicBool::new(false));
    let feeds: Vec<Box<dyn FeedSource>> = vec![
        // Feed 0: fast, fully scripted.
        Box::new(ScriptedFeed::new(split[0].clone())),
        // Feed 1: blocked until we saw the backpressure engage.
        Box::new(GatedFeed { release: Arc::clone(&release), batches: split[1].clone().into() }),
    ];

    let metrics = Metrics::enabled();
    let daemon = Daemon::spawn(
        Engine::Plain(detector()),
        feeds,
        DaemonConfig { record_snapshots: true, metrics: metrics.clone() },
    );

    // While the merge loop is starved on feed 1 it holds feed 0's first
    // batch and asks for no other; feed 0 builds its second, finds nobody
    // waiting for it, counts the stall and blocks. It never builds a third.
    let deadline = Instant::now() + Duration::from_secs(30);
    let (built_key, stall_key) = (
        "rrr_serve_feed_batches_total{feed=\"0\"}",
        "rrr_serve_backpressure_stalls_total{feed=\"0\"}",
    );
    loop {
        let snap = metrics.snapshot();
        let built = snap.counter(built_key);
        assert!(built <= MAX_BUILT_WHILE_STARVED, "fast feed ran {built} batches ahead");
        if built == MAX_BUILT_WHILE_STARVED && snap.counter(stall_key) >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "backpressure never engaged: built={built}");
        std::thread::sleep(Duration::from_millis(1));
    }
    // Blocked means blocked: given time to run further ahead, it has not.
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(metrics.snapshot().counter(built_key), MAX_BUILT_WHILE_STARVED);
    assert_eq!(metrics.snapshot().counter("rrr_serve_rounds_total"), 0, "nothing merged yet");

    // Release the slow feed; the stream must drain to the same output the
    // serial replay produces.
    release.store(true, Ordering::Release);
    let report = daemon.join().expect("daemon drains after release");
    assert_eq!(report.signals, want, "backpressure perturbed the merged stream");
    assert!(!report.snapshots.is_empty(), "windows closed after the release");

    let snap = metrics.snapshot();
    assert!(snap.counter(stall_key) >= 1, "stall counter must record the blocked send");
    for feed in 0..2 {
        assert_eq!(
            snap.counter(&format!("rrr_serve_feed_batches_total{{feed=\"{feed}\"}}")),
            ROUNDS,
            "every batch of feed {feed} must eventually be accepted"
        );
    }
    assert_eq!(snap.counter("rrr_serve_rounds_total"), ROUNDS);
}
