//! Churn-proportional window close on a synthetic monitor set: a sparse
//! round must leave all but the churned groups parked and still emit the
//! full-scan signal stream, and the threaded close must emit the serial
//! one. Counts and equality only — no clock, so the verdict is the same on
//! any host.
//!
//! Groups are ⟨destination prefix, AS path⟩ shards exactly as the detector
//! builds them, scaled by a corpus factor without paying for a simulated
//! world.

use rrr_anomaly::BitmapDetector;
use rrr_core::bgp_monitors::BgpMonitors;
use rrr_core::StalenessSignal;
use rrr_types::{
    AsPath, Asn, BgpElem, BgpUpdate, Community, Ipv4, Prefix, Timestamp, TracerouteId, VpId, Window,
};

/// Monitor-group count at 1× scale (roughly the small-world corpus size).
const BASE_GROUPS: usize = 96;
/// Collector peers feeding the synthetic RIB.
const NUM_VPS: u32 = 12;

fn prefix_of(i: usize) -> Prefix {
    Prefix::new(Ipv4(0x0A00_0000 + ((i as u32) << 12)), 20)
}

fn origin_of(i: usize) -> u32 {
    3000 + (i as u32 % 7)
}

fn transit_of(i: usize) -> u32 {
    20 + (i as u32 % 5)
}

fn announce(vp: u32, prefix: Prefix, path: &[u32], t: u64) -> BgpUpdate {
    BgpUpdate {
        time: Timestamp(t),
        vp: VpId(vp),
        prefix,
        elem: BgpElem::Announce {
            path: AsPath::from_asns(path.iter().copied()),
            communities: vec![Community::new(transit_of(path.len()), 50_000 + vp)],
        },
    }
}

/// A [`BgpMonitors`] with `BASE_GROUPS * scale` registered groups: every VP
/// holds a path sharing the monitored suffix, so each group gets AS-path,
/// burst, and community monitors — the full §4.1 set.
fn synth_bgp_monitors(scale: usize) -> BgpMonitors {
    let groups = BASE_GROUPS * scale;
    let vps: Vec<VpId> = (0..NUM_VPS).map(VpId).collect();
    let mut m = BgpMonitors::new(vec![], BitmapDetector::spike());

    let mut rib = Vec::with_capacity(groups * NUM_VPS as usize);
    for i in 0..groups {
        let p = prefix_of(i);
        for vp in 0..NUM_VPS {
            rib.push(announce(vp, p, &[100 + vp, transit_of(i), origin_of(i)], 0));
        }
    }
    m.init_rib(&rib);

    for i in 0..groups {
        let tau: Vec<Asn> = [10, transit_of(i), origin_of(i)].map(Asn).to_vec();
        m.register(TracerouteId(i as u64), prefix_of(i), &tau, &vps);
    }
    assert_eq!(m.group_count(), groups);
    m
}

/// One round's update batch touching `churn_permille`‰ of the groups (at
/// least one; 1000 touches all), rotating which groups churn so every
/// group eventually sees traffic. In a touched group three VPs re-announce,
/// most repeating their path (duplicate-update load for the burst
/// monitors), a rotating minority deviating (sample load for the AS-path
/// ratio monitors); every other group gets zero updates.
fn synth_round(scale: usize, round: u64, churn_permille: u64) -> Vec<BgpUpdate> {
    let groups = BASE_GROUPS * scale;
    let touched = ((groups as u64 * churn_permille) / 1000).max(1) as usize;
    let mut out = Vec::with_capacity(touched * 3);
    for j in 0..touched {
        let i = (round as usize * touched + j) % groups;
        let p = prefix_of(i);
        for k in 0..3u32 {
            let vp = (k + round as u32 + i as u32) % NUM_VPS;
            let path = if (i as u64 + round + k as u64).is_multiple_of(9) {
                vec![100 + vp, 7777, origin_of(i)]
            } else {
                vec![100 + vp, transit_of(i), origin_of(i)]
            };
            out.push(announce(vp, p, &path, round * 900 + (i as u64 % 900)));
        }
    }
    out
}

/// Feeds one round and closes its window.
fn round_and_close(
    m: &mut BgpMonitors,
    scale: usize,
    w: u64,
    churn_permille: u64,
) -> Vec<StalenessSignal> {
    for u in synth_round(scale, w, churn_permille) {
        m.observe(&u);
    }
    m.close_window(Window(w), Timestamp(w * 900), &|_, _| true).0
}

fn assert_same_signals(a: &[StalenessSignal], b: &[StalenessSignal]) {
    assert_eq!(a.len(), b.len());
    for (a, b) in a.iter().zip(b) {
        assert_eq!(a.key, b.key);
        assert_eq!(a.traceroutes, b.traceroutes);
    }
}

#[test]
fn synth_rounds_drive_identical_serial_and_parallel_closes() {
    let run = |threads: usize| {
        let mut m = synth_bgp_monitors(1);
        m.set_threads(threads);
        (1..=40u64).flat_map(|w| round_and_close(&mut m, 1, w, 1000)).collect::<Vec<_>>()
    };
    assert_same_signals(&run(1), &run(4));
}

/// At 10 ‰ churn over 1 536 groups the incremental close may leave at most
/// 5 % of the groups unparked after any close — the work a close does is
/// the churn's, not the corpus's — and the signals it emits are the full
/// scan's. The bound holds once every series is past its eligibility
/// warm-up and has a full inert tail behind it; until then (windows 6–35
/// here) a touched group stays awake until its tail has refilled.
#[test]
fn sparse_close_evaluates_only_churned_groups_and_matches_full_scan() {
    const SCALE: usize = 16;
    const CHURN: u64 = 10;
    const WARM_UP: u64 = 36;
    let groups = BASE_GROUPS * SCALE;
    let mut full = synth_bgp_monitors(SCALE);
    full.set_incremental(false);
    let mut inc = synth_bgp_monitors(SCALE);
    inc.set_incremental(true);

    let mut emitted = 0;
    for w in 1..=WARM_UP + 10 {
        let reference = round_and_close(&mut full, SCALE, w, CHURN);
        let signals = round_and_close(&mut inc, SCALE, w, CHURN);
        assert_same_signals(&reference, &signals);
        emitted += signals.len();
        if w > WARM_UP {
            let awake = inc.group_count() - inc.parked_count();
            assert!(
                awake * 20 <= groups,
                "window {w}: {awake} of {groups} groups awake after a {CHURN}‰-churn close"
            );
        }
    }
    assert_eq!(full.parked_count(), 0);
    assert!(emitted > 0, "a stream with no signals compares nothing");
}
