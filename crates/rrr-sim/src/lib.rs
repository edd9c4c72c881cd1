//! # rrr-sim — deterministic fault-injection simulation harness
//!
//! Drives the staleness-detection pipeline ([`rrr_core::StalenessDetector`]
//! and its durable wrapper) through scripted scenarios with injected
//! faults — reordered/duplicated/dropped update batches, duplicate-update
//! storms, clock-skewed arrivals, torn/bit-flipped WAL frames and
//! checkpoints, mid-window crash/restore cycles — and checks differential
//! oracles over each run: independent-instance invariance, crash-resume
//! equivalence, internal-consistency invariants, revocation, refresh
//! budget discipline against the `rrr-baselines` emulators, and MRT
//! round-tripping.
//!
//! Scenarios live in `tests/scenarios/*.ron` and are replayed by the
//! `sim_run` binary. On failure the harness minimizes the fault plan
//! (ddmin) and writes a replayable seed + fault-plan artifact.

pub mod artifact;
pub mod faults;
pub mod inputs;
pub mod minimize;
pub mod ron;
pub mod runner;
pub mod scenario;
pub mod weather;

pub use artifact::{default_artifact_dir, load_scenario_or_artifact, write_artifact};
pub use faults::Fault;
pub use inputs::{micro_rounds, MicroPlan, RoundInput, SimWorld, ROUND};
pub use minimize::minimize;
pub use runner::{
    feed_batches, oracle_serve_equivalence, run_once, snapshots_equal, store_error_kind,
    OracleFailure,
};
pub use scenario::{load_corpus, Expect, Oracle, Scenario, ScenarioError, SimEvent, WorldKind};
pub use weather::{
    run_weather, WeatherReport, WeatherRunStats, WeatherSpec, WindowStats, LAG_WINDOWS,
};

use std::path::PathBuf;

/// How to run a scenario (or corpus).
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Where failure artifacts go; `None` disables artifacts.
    pub artifact_dir: Option<PathBuf>,
    /// Minimize failing fault plans before reporting.
    pub minimize: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions { artifact_dir: None, minimize: true }
    }
}

/// What happened to one failing scenario.
#[derive(Debug, Clone)]
pub struct FailureReport {
    pub oracle: String,
    pub message: String,
    /// The minimized fault plan (the original plan when minimization is
    /// off or the plan was empty).
    pub minimized: Vec<Fault>,
    /// The replay artifact, when one was written.
    pub artifact: Option<PathBuf>,
}

/// The outcome of one scenario run.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub name: String,
    pub failure: Option<FailureReport>,
}

impl Outcome {
    pub fn passed(&self) -> bool {
        self.failure.is_none()
    }
}

/// Runs one scenario end to end: all oracles, then — on failure — ddmin
/// over the fault plan and an artifact write.
pub fn run_scenario(sc: &Scenario, opts: &RunOptions) -> Outcome {
    match run_once(sc) {
        Ok(()) => Outcome { name: sc.name.clone(), failure: None },
        Err(failure) => {
            let minimized = if opts.minimize && sc.faults.len() > 1 {
                minimize(&sc.faults, |cand| {
                    let mut trial = sc.clone();
                    trial.faults = cand.to_vec();
                    run_once(&trial).is_err()
                })
            } else {
                sc.faults.clone()
            };
            let artifact = opts.artifact_dir.as_ref().and_then(|dir| {
                write_artifact(dir, sc, &failure, &minimized)
                    .map_err(|e| eprintln!("warning: could not write artifact: {e}"))
                    .ok()
            });
            Outcome {
                name: sc.name.clone(),
                failure: Some(FailureReport {
                    oracle: failure.oracle.to_string(),
                    message: failure.message,
                    minimized,
                    artifact,
                }),
            }
        }
    }
}
