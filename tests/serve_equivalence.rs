//! Property: the serving daemon is indistinguishable from batch replay.
//!
//! For any scripted micro scenario (random seed, round count, routing
//! event, and delivery fault), and for 1, 2, and 8 concurrent feeds, every
//! snapshot the daemon publishes at epoch E must answer `IsStale` and
//! `PrefixSummary` (and the whole-corpus tallies) bit-identically to a
//! fresh batch detector replayed over the same rounds up to window E.

use proptest::prelude::*;
use rrr_core::Query;
use rrr_serve::{
    answer, replay_reference, split_rounds, Daemon, DaemonConfig, Engine, FeedSource, ScriptedFeed,
    StalenessQuery,
};
use rrr_sim::{feed_batches, Expect, Fault, Scenario, SimEvent, SimWorld, WorldKind};

fn micro_scenario(seed: u64, rounds: u64, event_kind: u8, fault_kind: u8) -> Scenario {
    let span = rounds.max(4);
    let event = match event_kind % 3 {
        0 => SimEvent::CommunityFlip { from: 1, to: span - 1, dst: 0, variant: 1 },
        1 => SimEvent::RouteChange { from: 2, to: span, dst: 1 },
        _ => SimEvent::Withdraw { from: 2, to: span - 1, dst: 0 },
    };
    let faults = match fault_kind % 3 {
        0 => vec![],
        1 => vec![Fault::ReorderWindow { round: span / 2 }],
        _ => vec![Fault::DuplicateUpdates { round: span / 2, copies: 2 }],
    };
    Scenario {
        name: format!("prop-serve-{seed}"),
        seed,
        world: WorldKind::Micro,
        rounds: span,
        events: vec![event],
        faults,
        oracles: vec![],
        expect: Expect::Pass,
        half_steps: false,
        weather: None,
        source: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn daemon_snapshots_answer_like_batch_replay(
        seed in 0u64..10_000,
        rounds in 4u64..9,
        event_kind in 0u8..3,
        fault_kind in 0u8..3,
    ) {
        let sc = micro_scenario(seed, rounds, event_kind, fault_kind);
        let (world, mut steps) = SimWorld::from_scenario(&sc);
        for f in &sc.faults {
            f.apply_stream(&mut steps, sc.seed);
        }
        let batches = feed_batches(&steps);
        let (_, ref_snaps) = replay_reference(world.build(), &batches);

        for feeds in [1usize, 2, 8] {
            let sources: Vec<Box<dyn FeedSource>> = split_rounds(&batches, feeds)
                .into_iter()
                .map(|b| Box::new(ScriptedFeed::new(b)) as Box<dyn FeedSource>)
                .collect();
            let daemon = Daemon::spawn(
                Engine::Plain(world.build()),
                sources,
                DaemonConfig { record_snapshots: true, ..DaemonConfig::default() },
            );
            let report = match daemon.join() {
                Ok(r) => r,
                Err(e) => panic!("daemon failed with {feeds} feeds: {e}"),
            };
            prop_assert_eq!(
                report.snapshots.len(),
                ref_snaps.len(),
                "snapshot count with {} feeds",
                feeds
            );
            for (got, want) in report.snapshots.iter().zip(&ref_snaps) {
                prop_assert_eq!(got.epoch(), want.epoch());
                let mut ids = got.ids();
                ids.extend(want.ids());
                ids.sort_unstable();
                ids.dedup();
                for id in ids {
                    let q = StalenessQuery::IsStale(id);
                    prop_assert_eq!(
                        answer(&**got, &q),
                        answer(&**want, &q),
                        "IsStale({:?}) at epoch {} with {} feeds",
                        id, got.epoch(), feeds
                    );
                }
                let mut prefixes: Vec<_> = got.prefixes().chain(want.prefixes()).collect();
                prefixes.sort_unstable();
                prefixes.dedup();
                for p in prefixes {
                    let q = StalenessQuery::PrefixSummary(p);
                    prop_assert_eq!(
                        answer(&**got, &q),
                        answer(&**want, &q),
                        "PrefixSummary({}) at epoch {} with {} feeds",
                        p, got.epoch(), feeds
                    );
                }
                let q = StalenessQuery::CorpusSummary;
                prop_assert_eq!(answer(&**got, &q), answer(&**want, &q));
            }
        }
    }
}
