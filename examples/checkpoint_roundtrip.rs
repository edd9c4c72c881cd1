//! Crash-safe operation on the MRT ingestion path: run the detector over a
//! day of collector data with durable persistence (checkpoint + WAL), kill
//! it partway through, reopen the durable directory in a "new process",
//! and finish the day — then prove the resumed run is bit-identical to an
//! uninterrupted one by comparing full-state checkpoints byte for byte.
//!
//! Run with: `cargo run --release --example checkpoint_roundtrip`

use rrr::mrt::{MrtFileWriter, StreamFilter, UpdateStream, VpDirectory};
use rrr::prelude::*;
use rrr::store::StoreError;
use std::sync::Arc;

const ROUND: u64 = 900;
const ROUNDS: u64 = 96;
/// The simulated crash point: the process dies after this many rounds.
const KILL_AFTER: u64 = 60;

/// The detector's measured environment, rebuilt identically on both sides
/// of the crash (everything derives from the decoded RIB and fixed seeds).
fn detector_env(
    topo: &Arc<Topology>,
    rib: &[BgpUpdate],
    seed: u64,
) -> (IpToAsMap, Geolocator, AliasResolver) {
    let mut map = IpToAsMap::from_announcements(rib.iter());
    for (ixp, lan) in &topo.registry.ixp_lans {
        map.add_ixp_lan(*lan, *ixp);
    }
    let geo = Geolocator::new(GeoDb::noisy(topo, 0.9, 0.95, seed), vec![]);
    let alias = AliasResolver::from_topology(topo, 0.1, seed);
    (map, geo, alias)
}

fn checkpoint_bytes(det: &StalenessDetector) -> Vec<u8> {
    let mut buf = Vec::new();
    det.checkpoint(&mut buf).expect("checkpoint to memory");
    buf
}

fn main() -> Result<(), StoreError> {
    let seed = 31;
    let topo = Arc::new(rrr::topology::generate(&TopologyConfig::small(seed)));
    let events = rrr::bgp::generate_events(&topo, &EventConfig::small(seed, Duration::days(1)));
    let mut engine = Engine::new(Arc::clone(&topo), &EngineConfig { seed, num_vps: 8 }, events);
    let mut platform = Platform::new(&topo, &PlatformConfig::small(seed));

    // --- the day's data, as an MRT dump (the production input format) ---
    let mut dir = VpDirectory::default();
    for vp in engine.vps() {
        dir.register(vp.id, topo.asn_of(vp.asx));
    }
    let mut writer = MrtFileWriter::new(Vec::new());
    writer.write_record(&dir.peer_index_record()).expect("write to memory");
    let rib = engine.rib_snapshot();
    for u in &rib {
        writer.write_update(&dir, u).expect("write to memory");
    }
    let live = engine.advance_to(Timestamp(ROUNDS * ROUND));
    for u in &live {
        writer.write_update(&dir, u).expect("write to memory");
    }
    let dump = writer.finish().expect("write to memory");

    let mut stream = UpdateStream::new(&dump[..], dir, StreamFilter::default());
    let decoded: Vec<BgpUpdate> = stream.by_ref().collect();
    assert!(stream.finished_with.is_none(), "clean stream");
    let (rib_part, live_part) = decoded.split_at(rib.len());

    // Bucket the live feed into 15-minute rounds, and fix one shared
    // schedule of public traceroutes so both runs see identical inputs.
    let mut rounds: Vec<Vec<BgpUpdate>> = vec![Vec::new(); ROUNDS as usize];
    for u in live_part {
        let r = (u.time.0 / ROUND).min(ROUNDS - 1) as usize;
        rounds[r].push(u.clone());
    }
    let public: Vec<Vec<Traceroute>> =
        (1..=ROUNDS).map(|r| platform.random_round(&engine, Timestamp(r * ROUND), 40)).collect();
    // The corpus is measured once and fed to both runs — the platform's
    // RNG advances per measurement round, so both detectors must see the
    // same traceroutes.
    let corpus: Vec<(Traceroute, Asn)> = platform
        .anchoring_round(&engine, Timestamp::ZERO)
        .into_iter()
        .map(|tr| {
            let src_asn = topo.asn_of(platform.probe(tr.probe).asx);
            (tr, src_asn)
        })
        .collect();

    let build = |topo: &Arc<Topology>| {
        let (map, geo, alias) = detector_env(topo, rib_part, seed);
        let vps = engine.vps().iter().map(|v| v.id).collect();
        let mut det = StalenessDetector::new(
            Arc::clone(topo),
            map,
            geo,
            alias,
            vps,
            DetectorConfig::default(),
        );
        det.init_rib(rib_part);
        for (tr, src_asn) in &corpus {
            det.add_corpus(tr.clone(), Some(*src_asn));
        }
        det
    };

    // --- reference: the uninterrupted run ---
    let mut reference = build(&topo);
    for r in 0..ROUNDS {
        let _ =
            reference.step(Timestamp((r + 1) * ROUND), &rounds[r as usize], &public[r as usize]);
    }
    let ref_bytes = checkpoint_bytes(&reference);
    println!(
        "uninterrupted run: {} signals, {} corpus entries, {} byte final checkpoint",
        reference.signal_log().len(),
        reference.corpus().len(),
        ref_bytes.len()
    );

    // --- durable run, killed at round 60 ---
    let durable_dir = std::env::temp_dir().join(format!("rrr-roundtrip-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&durable_dir);
    {
        let mut durable = DurableDetector::create(
            build(&topo),
            &durable_dir,
            DurableConfig { checkpoint_every_windows: 16, ..DurableConfig::default() },
        )?;
        for r in 0..KILL_AFTER {
            durable.step(Timestamp((r + 1) * ROUND), &rounds[r as usize], &public[r as usize])?;
        }
        println!(
            "durable run killed after round {KILL_AFTER} (checkpoint file: {} bytes)",
            std::fs::metadata(durable.dir().join("checkpoint.rrr"))?.len()
        );
        // Simulated crash: the DurableDetector is dropped with WAL'd steps
        // newer than the last checkpoint.
    }

    // --- "new process": reopen the directory, replay the WAL, resume ---
    let (map, geo, alias) = detector_env(&topo, rib_part, seed);
    let mut durable = DurableDetector::open(
        &durable_dir,
        Arc::clone(&topo),
        map,
        geo,
        alias,
        DetectorConfig::default(),
        DurableConfig { checkpoint_every_windows: 16, ..DurableConfig::default() },
    )?;
    println!(
        "reopened: WAL replay brought the detector to {} closed windows",
        durable.detector().closed_bgp_windows()
    );
    for r in KILL_AFTER..ROUNDS {
        durable.step(Timestamp((r + 1) * ROUND), &rounds[r as usize], &public[r as usize])?;
    }

    let resumed_bytes = checkpoint_bytes(durable.detector());
    assert_eq!(
        reference.signal_log().len(),
        durable.detector().signal_log().len(),
        "signal counts must match"
    );
    assert_eq!(ref_bytes, resumed_bytes, "resumed state must be bit-identical");
    println!(
        "resumed run: {} signals — final checkpoint is byte-identical to the uninterrupted run",
        durable.detector().signal_log().len()
    );

    let _ = std::fs::remove_dir_all(&durable_dir);
    Ok(())
}
