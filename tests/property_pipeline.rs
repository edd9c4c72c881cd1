//! Property-based integration tests over randomized worlds: invariants
//! that must hold for any seed.

use proptest::prelude::*;
use rrr::prelude::*;
use rrr::topology::{generate, AsIdx, Relationship};
use rrr::trace::canonical_path;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any generated topology routes every AS to every other AS with
    /// valley-free, loop-free paths.
    #[test]
    fn any_seed_routes_valley_free(seed in 0u64..500) {
        let topo = generate(&TopologyConfig::small(seed));
        let state = rrr::bgp::NetState::new(&topo);
        let routes = rrr::bgp::compute_routes(&topo, &state);
        for o in 0..topo.num_ases() {
            for x in 0..topo.num_ases() {
                let chain = routes
                    .as_chain(AsIdx(o as u32), AsIdx(x as u32))
                    .expect("connected graph");
                // loop-free
                let mut seen = std::collections::HashSet::new();
                for h in &chain {
                    prop_assert!(seen.insert(*h));
                }
                // valley-free
                let mut descended = false;
                for w in chain.windows(2) {
                    match topo.rel(w[0], w[1]).expect("adjacent") {
                        Relationship::Provider => prop_assert!(!descended),
                        Relationship::Peer => {
                            prop_assert!(!descended);
                            descended = true;
                        }
                        Relationship::Customer => descended = true,
                    }
                }
            }
        }
    }

    /// Synthesized traceroutes map back (through the *measured* IP-to-AS
    /// map) without loops, and their canonical ground truth agrees at the
    /// AS level.
    #[test]
    fn any_seed_traceroutes_map_cleanly(seed in 0u64..500) {
        let topo = Arc::new(generate(&TopologyConfig::small(seed)));
        let engine = rrr::bgp::Engine::new(
            Arc::clone(&topo),
            &EngineConfig { seed, num_vps: 6 },
            vec![],
        );
        let mut platform = Platform::new(&topo, &PlatformConfig::small(seed));
        let rib = engine.rib_snapshot();
        let mut map = IpToAsMap::from_announcements(rib.iter());
        for (ixp, lan) in &topo.registry.ixp_lans {
            map.add_ixp_lan(*lan, *ixp);
        }
        let anchor = platform.anchors[0];
        for pid in platform.mesh_probes(anchor.id).to_vec() {
            let tr = platform.measure(&engine, pid, anchor.addr, Timestamp::ZERO);
            prop_assert!(tr.reached);
            prop_assert!(!tr.has_ip_loop());
            let probe = platform.probe(pid);
            let at = rrr::ip2as::map_traceroute(&tr, &map, Some(topo.asn_of(probe.asx)))
                .expect("no AS loops in synthesized traces");
            let canon = canonical_path(
                &topo,
                engine.state(),
                engine.routes(),
                probe.asx,
                probe.city,
                anchor.addr,
            )
            .expect("in plan");
            let canon_asns: Vec<Asn> =
                canon.as_chain.iter().map(|a| topo.asn_of(*a)).collect();
            // An AS whose only visible hop carries a neighbor's link-subnet
            // address can be invisible to longest-prefix mapping (the
            // third-party-address problem bdrmapIT tackles); the mapped
            // path must still be an order-preserving subsequence of the
            // true chain with the same endpoints, and may never invent
            // off-path ASes.
            prop_assert_eq!(at.path.first(), canon_asns.first());
            prop_assert_eq!(at.path.last(), canon_asns.last());
            let mut it = canon_asns.iter();
            for hop in &at.path {
                prop_assert!(
                    it.any(|c| c == hop),
                    "mapped hop {:?} not on true chain {:?} (mapped {:?})",
                    hop, canon_asns, at.path
                );
            }
        }
    }

    /// The MRT round-trip is lossless for any simulated update stream.
    #[test]
    fn any_seed_mrt_roundtrip(seed in 0u64..500) {
        use rrr::mrt::{record_to_updates, MrtFileReader, MrtFileWriter, VpDirectory};
        let topo = Arc::new(generate(&TopologyConfig::small(seed)));
        let events = rrr::bgp::generate_events(
            &topo,
            &EventConfig::small(seed, Duration::hours(12)),
        );
        let mut engine = rrr::bgp::Engine::new(
            Arc::clone(&topo),
            &EngineConfig { seed, num_vps: 6 },
            events,
        );
        let mut dir = VpDirectory::default();
        for vp in engine.vps() {
            dir.register(vp.id, topo.asn_of(vp.asx));
        }
        let updates = engine.advance_to(Timestamp(Duration::hours(12).as_secs()));
        let mut w = MrtFileWriter::new(Vec::new());
        for u in &updates {
            w.write_update(&dir, u).expect("write to memory");
        }
        let bytes = w.finish().expect("write to memory");
        let mut decoded = Vec::new();
        for rec in MrtFileReader::new(&bytes[..]) {
            record_to_updates(&dir, rec.expect("well-formed"), |u| decoded.push(u));
        }
        prop_assert_eq!(decoded, updates);
    }
}
