//! Churn-proportional checkpoints: at ~1 % churn a delta frame must stay a
//! small fraction of the full base it applies to. Bytes only — no clock.

use rrr_bench::{World, WorldConfig};
use rrr_core::DetectorConfig;
use rrr_types::{Prefix, Timestamp};
use std::collections::HashSet;

#[test]
fn delta_frame_at_one_percent_churn_is_a_tenth_of_the_base() {
    for grown in [6u64, 24, 96] {
        let mut world = World::new(WorldConfig::small(5));
        let mut det = world.build_detector(DetectorConfig::default());
        for tr in world.platform.anchoring_round(&world.engine, Timestamp::ZERO) {
            let src_asn = world.topo.asn_of(world.platform.probe(tr.probe).asx);
            det.add_corpus(tr, Some(src_asn));
        }
        for r in 1..=grown {
            let t = Timestamp(r * 900);
            let (updates, public) = world.advance_round(t, 80);
            let _ = det.step(t, &updates, &public);
        }
        // Quiet tail: input-free windows drain series buffers and let every
        // inert group park — at least eight, then on to the first window in
        // which the world announces anything.
        let mut r = grown;
        let raw = loop {
            r += 1;
            assert!(r < grown + 96, "the world went silent after round {grown}");
            let raw = world.engine.advance_to(Timestamp(r * 900));
            if r > grown + 8 && !raw.is_empty() {
                break raw;
            }
            let _ = det.step(Timestamp(r * 900), &[], &[]);
        };

        let mut base = Vec::new();
        det.checkpoint_base(&mut base).expect("full base to memory");

        // One ~1 %-churn window: that window's updates cut down to 1 in 100
        // announced prefixes, no public traceroutes.
        let mut prefixes: Vec<Prefix> = raw.iter().map(|u| u.prefix).collect();
        prefixes.sort_unstable();
        prefixes.dedup();
        let kept: HashSet<Prefix> = prefixes.into_iter().step_by(100).collect();
        let updates: Vec<_> = raw.into_iter().filter(|u| kept.contains(&u.prefix)).collect();
        let _ = det.step(Timestamp(r * 900), &updates, &[]);

        let mut delta = Vec::new();
        det.checkpoint_delta(&mut delta).expect("delta to memory");
        assert!(
            delta.len() * 10 <= base.len(),
            "grown {grown} rounds: delta {} bytes of a {}-byte base",
            delta.len(),
            base.len()
        );
    }
}
