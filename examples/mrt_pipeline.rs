//! The wire-format ingestion path: serialize a simulated collector's RIB
//! and update stream to binary MRT (RFC 6396), read it back with the
//! streaming parser, and drive the staleness detector from the decoded
//! records — exactly how a production deployment would consume
//! RouteViews / RIPE RIS dump files.
//!
//! Run with: `cargo run --release --example mrt_pipeline`

use rrr::mrt::{MrtFileWriter, StreamFilter, UpdateStream, VpDirectory};
use rrr::prelude::*;
use std::sync::Arc;

fn main() {
    let seed = 31;
    let topo = Arc::new(rrr::topology::generate(&TopologyConfig::small(seed)));
    let events = rrr::bgp::generate_events(&topo, &EventConfig::small(seed, Duration::days(1)));
    let mut engine = Engine::new(Arc::clone(&topo), &EngineConfig { seed, num_vps: 8 }, events);
    let mut platform = Platform::new(&topo, &PlatformConfig::small(seed));

    // --- producer side: dump the day as an MRT file ---
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
    let live = engine.advance_to(Timestamp(Duration::days(1).as_secs()));
    for u in &live {
        writer.write_update(&dir, u).expect("write to memory");
    }
    let dump = writer.finish().expect("write to memory");
    println!(
        "MRT dump: {} bytes ({} RIB entries + {} updates from {} peers)",
        dump.len(),
        rib.len(),
        live.len(),
        dir.len()
    );

    // --- consumer side: stream the dump and feed the detector. ---
    let mut stream = UpdateStream::new(&dump[..], dir, StreamFilter::default());
    let decoded: Vec<_> = stream.by_ref().collect();
    assert!(stream.finished_with.is_none(), "clean stream");
    println!("decoded {} updates from the dump", decoded.len());
    assert_eq!(decoded.len(), rib.len() + live.len(), "lossless round-trip");

    let mut map = IpToAsMap::from_announcements(decoded.iter());
    for (ixp, lan) in &topo.registry.ixp_lans {
        map.add_ixp_lan(*lan, *ixp);
    }
    let geo = Geolocator::new(GeoDb::noisy(&topo, 0.9, 0.95, seed), vec![]);
    let alias = AliasResolver::from_topology(&topo, 0.1, seed);
    let vps = engine.vps().iter().map(|v| v.id).collect();
    let mut det =
        StalenessDetector::new(Arc::clone(&topo), map, geo, alias, vps, DetectorConfig::default());
    // The RIB portion seeds the mirror; the rest replays as the live feed.
    let (rib_part, live_part) = decoded.split_at(rib.len());
    det.init_rib(rib_part);

    let anchor = platform.anchors[0];
    let probe = platform.mesh_probes(anchor.id)[0];
    let tr = platform.measure(&engine, probe, anchor.addr, Timestamp::ZERO);
    det.add_corpus(tr, Some(topo.asn_of(platform.probe(probe).asx)));

    let signals = det.step(Timestamp(Duration::days(1).as_secs()), live_part, &[]);
    println!(
        "replayed the day through the detector: {} signals on the monitored traceroute",
        signals.len()
    );
}
