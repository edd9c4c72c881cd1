//! Drives the built binary the way the benchmark driver does, at the
//! quick sizes: a run ends with one JSON result line carrying every
//! metric of the half it ran, and a corrupted reference fails the gate
//! before any number is printed.

use rrr_serve::wire::parse_json;
use serde_json::Value;
use std::path::Path;
use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    // Run from the workspace root so outputs land in its target directory.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    Command::new(env!("CARGO_BIN_EXE_rrr-perf"))
        .args(args)
        .current_dir(root)
        .output()
        .expect("binary runs")
}

fn metric_names(stdout: &[u8]) -> Vec<String> {
    let text = String::from_utf8_lossy(stdout);
    let last = text.lines().last().expect("output");
    let Value::Object(top) = parse_json(last).expect("last line is JSON") else {
        panic!("last line is not an object: {last}")
    };
    assert_eq!(top.get("correct"), Some(&Value::Bool(true)), "{last}");
    assert_eq!(top.get("failed"), Some(&Value::Number(0.0)), "{last}");
    let Some(Value::Object(metrics)) = top.get("metrics") else { panic!("no metrics: {last}") };
    for (name, m) in metrics {
        let Value::Object(m) = m else { panic!("{name} is not an object") };
        assert!(matches!(m.get("value"), Some(Value::Number(v)) if v.is_finite()), "{name}");
        assert!(matches!(m.get("unit"), Some(Value::String(_))), "{name}");
    }
    metrics.keys().cloned().collect()
}

#[test]
fn quick_run_ends_with_every_metric_of_its_half() {
    let out =
        run(&["--quick", "--workload", "replay_sparse_durable", "--seed", "2", "--trace", "0"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    // `--quick` smokes both halves; the traced half prints last.
    let names = metric_names(&out.stdout);
    assert!(names.iter().any(|n| n == "store.checkpoints_cut"), "{names:?}");
    assert!(names.iter().any(|n| n == "trace.unexplained_share"), "{names:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["setup_s", "ingest_items_per_s", "query_us_p50", "publish_lag_ms_p50", "restore_s"]
    {
        assert_eq!(text.matches(&format!("   {name} ")).count(), 1, "{name} in:\n{text}");
    }
}

#[test]
fn corrupted_reference_fails_the_gate_and_prints_no_result() {
    let out = run(&["--quick", "--workload", "replay_dense", "--corrupt-reference"]);
    assert!(!out.status.success(), "a wrong reference must not pass");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("signal-log digest"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.lines().any(|l| l.starts_with('{')), "no result line:\n{stdout}");
}

#[test]
fn unknown_flags_and_workloads_are_usage_errors() {
    for args in [&["--workload", "replay"][..], &["--frobnicate"], &["--seconds", "0"]] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"), "{args:?}");
    }
}
