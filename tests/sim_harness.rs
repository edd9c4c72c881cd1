//! End-to-end exercise of the fault-injection simulation harness: the
//! whole `tests/scenarios/` corpus must pass, and a deliberately
//! corrupted checkpoint must fail with a minimized fault plan and a
//! replayable artifact that reproduces the identical failure.

use rrr_sim::{
    load_corpus, load_scenario_or_artifact, run_scenario, Fault, Oracle, RunOptions, Scenario,
};
use std::path::{Path, PathBuf};

fn scenarios_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/scenarios")
}

#[test]
fn the_scenario_corpus_passes() {
    let corpus = load_corpus(&scenarios_dir()).expect("corpus loads");
    assert!(corpus.len() >= 10, "corpus holds {} scenarios, want >= 10", corpus.len());

    // The corpus must keep covering the fault families the harness exists
    // for; deleting a family silently would hollow the suite out.
    let all_faults: String =
        corpus.iter().flat_map(|sc| &sc.faults).map(|f| format!("{f:?}\n")).collect();
    for family in [
        "ReorderWindow",
        "DropUpdates",
        "DuplicateBurst",
        "TruncateWalTail",
        "FlipWalByte",
        "FlipCheckpointByte",
        "FlipDeltaByte",
        "DropDeltaFrame",
        "TruncateDeltaTail",
    ] {
        assert!(all_faults.contains(family), "no scenario injects {family}");
    }
    assert!(
        corpus.iter().any(|sc| sc.oracles.iter().any(|o| o.name() == "crash-resume")),
        "no scenario exercises crash-resume"
    );

    let opts = RunOptions { artifact_dir: None, minimize: false };
    let mut failed = Vec::new();
    for sc in &corpus {
        let outcome = run_scenario(sc, &opts);
        if let Some(f) = outcome.failure {
            failed.push(format!("{}: [{}] {}", outcome.name, f.oracle, f.message));
        }
    }
    assert!(failed.is_empty(), "failing scenarios:\n{}", failed.join("\n"));
}

/// Corpus-coverage meta-test: every oracle and every fault constructor
/// the harness defines must be exercised by at least one scenario in
/// `tests/scenarios/`. Adding a variant without corpus coverage — or
/// deleting the last scenario that covers one — fails here by name, so
/// the suite cannot hollow out silently. (The lists come from
/// `Oracle::ALL_NAMES` / `Fault::ALL_NAMES`, which their `from_value`
/// parsers are checked against, so a new variant cannot dodge this test
/// by being left off the list.)
#[test]
fn the_corpus_exercises_every_oracle_and_fault_constructor() {
    let corpus = load_corpus(&scenarios_dir()).expect("corpus loads");
    let oracles: std::collections::HashSet<&str> =
        corpus.iter().flat_map(|sc| &sc.oracles).map(|o| o.name()).collect();
    for name in Oracle::ALL_NAMES {
        assert!(oracles.contains(name), "no scenario in tests/scenarios/ runs oracle `{name}`");
    }
    let faults: std::collections::HashSet<&str> =
        corpus.iter().flat_map(|sc| &sc.faults).map(|f| f.name()).collect();
    for name in Fault::ALL_NAMES {
        assert!(faults.contains(name), "no scenario in tests/scenarios/ injects fault `{name}`");
    }
}

#[test]
fn corrupting_a_checkpoint_byte_yields_a_minimized_replayable_artifact() {
    let sc = Scenario::parse(
        r#"Scenario(
            name: "harness-corruption",
            seed: 4242,
            world: Micro,
            rounds: 8,
            faults: [
                ReorderWindow(round: 1),
                ClockSkew(round: 2, vp: 0, secs: 250),
                FlipCheckpointByte(offset: 80),
                DuplicateUpdates(round: 5, copies: 2),
            ],
            oracles: [CrashResume(split: 4), Invariants],
        )"#,
    )
    .expect("scenario parses");

    let dir = std::env::temp_dir().join(format!("rrr-sim-harness-{}", std::process::id()));
    let opts = RunOptions { artifact_dir: Some(dir.clone()), minimize: true };
    let outcome = run_scenario(&sc, &opts);
    let failure = outcome.failure.expect("the corrupted checkpoint must fail crash-resume");
    assert_eq!(failure.oracle, "crash-resume");
    assert!(failure.message.contains("CrcMismatch"), "{}", failure.message);

    // Minimization strips the three stream faults that play no part in the
    // failure, leaving exactly the corrupting byte flip.
    assert_eq!(
        failure.minimized,
        vec![rrr_sim::Fault::FlipCheckpointByte { offset: 80 }],
        "minimizer should isolate the corrupting fault"
    );

    // The artifact replays to the identical failure.
    let artifact = failure.artifact.expect("an artifact is written");
    let repro = load_scenario_or_artifact(&artifact).expect("artifact loads");
    assert_eq!(repro.seed, sc.seed);
    assert_eq!(repro.faults, failure.minimized);
    let replay = run_scenario(&repro, &RunOptions { artifact_dir: None, minimize: false });
    let replay_failure = replay.failure.expect("replay reproduces the failure");
    assert_eq!(replay_failure.oracle, failure.oracle);
    assert_eq!(replay_failure.message, failure.message, "replay is bit-deterministic");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn expected_store_errors_pass_and_unexpected_success_fails() {
    // The same fault with the right expectation is a pass...
    let expected = Scenario::parse(
        r#"Scenario(
            name: "harness-expected",
            seed: 7,
            rounds: 6,
            faults: [BadMagicCheckpoint],
            oracles: [CrashResume(split: 3)],
            expect: StoreError(kind: "BadMagic"),
        )"#,
    )
    .expect("parses");
    let opts = RunOptions::default();
    assert!(run_scenario(&expected, &opts).passed());

    // ...and an expectation that nothing fulfills is itself a failure.
    let unfulfilled = Scenario::parse(
        r#"Scenario(
            name: "harness-unfulfilled",
            seed: 7,
            rounds: 6,
            oracles: [CrashResume(split: 3)],
            expect: StoreError(kind: "BadMagic"),
        )"#,
    )
    .expect("parses");
    let outcome = run_scenario(&unfulfilled, &RunOptions { artifact_dir: None, ..opts });
    let failure = outcome.failure.expect("unfulfilled expectation fails");
    assert!(failure.message.contains("reopen succeeded"), "{}", failure.message);
}
