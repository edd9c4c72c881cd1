//! Replayable failure artifacts. When a scenario fails, the harness
//! writes one JSON document carrying the oracle, the failure message, the
//! scenario's original fault plan, and a `repro`: a copy of the document
//! the scenario was parsed from with its faults cut to the *minimized*
//! plan — so `sim_run --file <artifact>` re-runs exactly the failing
//! configuration without the original corpus.

use crate::faults::Fault;
use crate::ron::{self, field, variant};
use crate::runner::OracleFailure;
use crate::scenario::{Scenario, ScenarioError};
use serde_json::{json, Value};
use std::io;
use std::path::{Path, PathBuf};

/// Default artifact directory, overridable with `RRR_SIM_ARTIFACT_DIR`.
pub fn default_artifact_dir() -> PathBuf {
    std::env::var_os("RRR_SIM_ARTIFACT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/sim-artifacts"))
}

fn sanitize(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '-' }).collect()
}

/// Writes `<dir>/<scenario>.failure.json` and returns its path. The
/// scenario must carry the document it was parsed from
/// ([`Scenario::source`]), and `minimized` must be a sub-plan of that
/// document's faults.
pub fn write_artifact(
    dir: &Path,
    sc: &Scenario,
    failure: &OracleFailure,
    minimized: &[Fault],
) -> io::Result<PathBuf> {
    let invalid = |what: &str| io::Error::new(io::ErrorKind::InvalidInput, what.to_string());
    let mut repro = sc.source.clone().ok_or_else(|| invalid("no source document to copy"))?;
    let Value::Object(outer) = &mut repro else { return Err(invalid("not a `Scenario(...)`")) };
    let Some(Value::Object(fields)) = outer.get_mut("Scenario") else {
        return Err(invalid("not a `Scenario(...)`"));
    };
    let original = match fields.remove("faults") {
        Some(Value::Array(entries)) => entries,
        _ => Vec::new(),
    };
    // The minimized plan is a sub-plan in original order: keep the
    // document's own entry for each of its faults.
    let mut wanted = minimized.iter().peekable();
    let kept: Vec<Value> = original
        .iter()
        .filter(|entry| {
            let hit = wanted.peek().is_some_and(|&&f| Fault::from_value(entry) == Ok(f));
            if hit {
                wanted.next();
            }
            hit
        })
        .cloned()
        .collect();
    if wanted.peek().is_some() {
        return Err(invalid("the minimized plan is not a sub-plan of the document's faults"));
    }
    fields.insert("faults".to_string(), Value::Array(kept));

    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.failure.json", sanitize(&sc.name)));
    let doc = json!({ "Failure": json!({
        "oracle": failure.oracle,
        "message": failure.message.as_str(),
        "original_faults": original,
        "repro": repro,
        "replay": format!("cargo run -p rrr-sim --bin sim_run -- --file {}", path.display()),
    }) });
    let text = serde_json::to_string_pretty(&doc).expect("shim serialization is infallible");
    std::fs::write(&path, text + "\n")?;
    Ok(path)
}

/// Loads a scenario from a scenario file or a `Failure` artifact (taking
/// its `repro`). A `.json` file is read as JSON, any other as RON — so
/// artifacts written as `.failure.ron` before they were JSON still load.
pub fn load_scenario_or_artifact(path: &Path) -> Result<Scenario, ScenarioError> {
    let fail = |message: String| ScenarioError { path: Some(path.to_path_buf()), message };
    let text = std::fs::read_to_string(path).map_err(|e| fail(e.to_string()))?;
    let doc = if path.extension().is_some_and(|ext| ext == "json") {
        serde_json::from_str(&text)
    } else {
        ron::parse(&text)
    }
    .map_err(|e| fail(e.to_string()))?;
    let doc = match variant(&doc) {
        Some("Failure") => field(&doc, "repro")
            .cloned()
            .ok_or_else(|| fail("Failure artifact has no `repro` field".to_string()))?,
        _ => doc,
    };
    Scenario::from_value(doc).map_err(|e| fail(e.message))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::OracleFailure;

    #[test]
    fn artifacts_round_trip_into_a_runnable_scenario() {
        let sc = Scenario::parse(
            r#"Scenario(
                name: "artifact-demo",
                seed: 3,
                rounds: 6,
                events: [Withdraw(from: 2, to: 4, dst: 1)],
                faults: [ReorderWindow(round: 1), FlipCheckpointByte(offset: 9)],
                oracles: [CrashResume(split: 3), Invariants],
                expect: StoreError(kind: "CrcMismatch"),
            )"#,
        )
        .expect("parses");
        let failure = OracleFailure {
            oracle: "crash-resume",
            message: "expected StoreError::CrcMismatch on reopen, but the reopen succeeded"
                .to_string(),
        };
        let dir =
            std::env::temp_dir().join(format!("rrr-sim-artifact-test-{}", std::process::id()));
        let minimized = vec![sc.faults[1]];
        let path = write_artifact(&dir, &sc, &failure, &minimized).expect("writes");
        let reloaded = load_scenario_or_artifact(&path).expect("reloads");
        assert_eq!(reloaded.name, sc.name);
        assert_eq!(reloaded.seed, sc.seed);
        assert_eq!(reloaded.rounds, sc.rounds);
        assert_eq!(reloaded.events, sc.events);
        assert_eq!(reloaded.faults, minimized, "repro carries the minimized plan");
        assert_eq!(reloaded.oracles, sc.oracles);
        assert_eq!(reloaded.expect, sc.expect);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
