//! What a run leaves behind: the printed tables, the one-line JSON result
//! the driver reads, the `--check-repeat` comparison, and the `run.json`
//! receipt (which host, which revision, which sizes, every value).

use crate::defs::{END_TO_END, PER_LAYER};
use crate::inputs::{Inputs, Kind};
use crate::measure::WorkloadResult;
use crate::procfs;
use crate::trace::Traced;
use serde_json::{json, Map, Value};
use std::path::Path;
use std::process::Command;

pub fn print_end_to_end(r: &WorkloadResult) {
    println!(
        "   {} repeats; median over repeats [q1 .. q3], their distance as a share of the median, \
         (samples)",
        r.repeats
    );
    for m in &r.metrics {
        let s = m.summary;
        println!(
            "   {:<22} {:>14.4} {:<8} [{:.4} .. {:.4}] {:>5.1}% (n={}) {} is better",
            m.def.name,
            s.median,
            m.def.unit,
            s.q1,
            s.q3,
            s.spread() * 100.0,
            s.n,
            m.def.better.as_str()
        );
    }
    for note in &r.notes {
        println!("   {note}");
    }
    if let Some(e) = &r.first_failure {
        println!("   first query failure: {e}");
    }
}

pub fn print_per_layer(t: &Traced) {
    println!("   per-layer metrics of the traced run (spans in {})", t.trace_path.display());
    for v in &t.values {
        println!(
            "   {:<36} {:>14.4} {:<6} {} is better",
            v.def.name,
            v.value,
            v.def.unit,
            v.def.better.as_str()
        );
    }
    for note in &t.notes {
        println!("   {note}");
    }
}

fn metric_object(entries: impl IntoIterator<Item = (&'static str, f64, &'static str)>) -> Value {
    let map: Map<String, Value> = entries
        .into_iter()
        .map(|(name, value, unit)| (name.to_string(), json!({ "value": value, "unit": unit })))
        .collect();
    Value::Object(map)
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Value) -> String {
    let line = json!({
        "correct": correct,
        "attempted": attempted.max(1),
        "failed": failed,
        "metrics": metrics
    });
    serde_json::to_string(&line).expect("shim serialization is infallible")
}

/// The driver's result line for an untraced run: every end-to-end metric.
/// Only printed after the gate passed, so `correct` is true.
pub fn result_line_end_to_end(r: &WorkloadResult) -> String {
    let metrics =
        metric_object(r.metrics.iter().map(|m| (m.def.name, m.summary.median, m.def.unit)));
    result_line(true, r.attempted, r.failed, metrics)
}

/// The driver's result line for a traced run: every per-layer metric.
pub fn result_line_per_layer(t: &Traced) -> String {
    let metrics = metric_object(t.values.iter().map(|v| (v.def.name, v.value, v.def.unit)));
    result_line(true, t.attempted, t.failed, metrics)
}

fn require_exactly_once<'a>(
    kind: Kind,
    wanted: impl Iterator<Item = &'static str>,
    got: impl Iterator<Item = (&'a str, f64)> + Clone,
) -> Result<(), String> {
    for name in wanted {
        let values: Vec<f64> = got.clone().filter(|(n, _)| *n == name).map(|(_, v)| v).collect();
        match values[..] {
            [v] if v.is_finite() => {}
            [v] => return Err(format!("{}: {name} is not finite ({v})", kind.name())),
            _ => return Err(format!("{}: {name} appears {} times", kind.name(), values.len())),
        }
    }
    Ok(())
}

/// `--quick`: every end-to-end metric exactly once, finite.
pub fn require_all_end_to_end(kind: Kind, r: &WorkloadResult) -> Result<(), String> {
    require_exactly_once(
        kind,
        END_TO_END.iter().map(|d| d.name),
        r.metrics.iter().map(|m| (m.def.name, m.summary.median)),
    )
}

/// `--quick`: every per-layer metric exactly once, finite.
pub fn require_all_per_layer(kind: Kind, t: &Traced) -> Result<(), String> {
    require_exactly_once(
        kind,
        PER_LAYER.iter().map(|d| d.name),
        t.values.iter().map(|v| (v.def.name, v.value)),
    )
}

/// `--check-repeat`: set B against set A, metric by metric, relative to
/// each metric's bound. Prints every row; counts the ones outside.
pub fn check_repeat(kind: Kind, a: &WorkloadResult, b: &WorkloadResult, receipt: &mut Receipt) {
    println!("   check-repeat {}: B against A, as a share of A's median", kind.name());
    let mut rows = Vec::new();
    for def in END_TO_END {
        let (Some(ma), Some(mb)) = (a.get(def.name), b.get(def.name)) else { continue };
        if def.name == "peak_rss_mb" {
            // B's first repeat starts from the heap A left behind.
            println!(
                "   {:<22} A {:>14.4}  B {:>14.4}  not compared: needs a fresh process",
                def.name, ma.summary.median, mb.summary.median
            );
            continue;
        }
        let worse = def.better.worsening(ma.summary.median, mb.summary.median);
        let ok = worse.abs() <= def.bound;
        println!(
            "   {:<22} A {:>14.4}  B {:>14.4}  diff {:>+7.2}%  bound {:>5.1}%  {}",
            def.name,
            ma.summary.median,
            mb.summary.median,
            worse * 100.0,
            def.bound * 100.0,
            if ok { "ok" } else { "OUTSIDE" }
        );
        if !ok {
            receipt.repeat_failures += 1;
        }
        rows.push(json!({
            "metric": def.name,
            "a": ma.summary.median,
            "b": mb.summary.median,
            "worsening": worse,
            "bound": def.bound,
            "within": ok
        }));
    }
    receipt.entry(kind).insert("check_repeat".into(), Value::Array(rows));
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The run receipt, written to `<target>/rrr-perf/run.json` by every
/// invocation: enough to tell later which host and code produced which
/// numbers. Definitions live in `BENCHMARK.json`; results live here.
pub struct Receipt {
    top: Map<String, Value>,
    workloads: Map<String, Value>,
    pub repeat_failures: usize,
}

impl Receipt {
    pub fn new(seed: u64, seconds: f64, quick: bool, traced: bool) -> Receipt {
        let mut top = Map::new();
        let unknown = || "unknown".to_string();
        top.insert(
            "git_revision".into(),
            command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown).into(),
        );
        top.insert(
            "rustc".into(),
            command_line("rustc", &["--version"]).unwrap_or_else(unknown).into(),
        );
        top.insert("nproc".into(), procfs::nproc().into());
        top.insert("cpu_model".into(), procfs::cpu_model().unwrap_or_else(unknown).into());
        top.insert("seed".into(), seed.into());
        top.insert("seconds".into(), seconds.into());
        top.insert("quick".into(), quick.into());
        top.insert("traced".into(), traced.into());
        Receipt { top, workloads: Map::new(), repeat_failures: 0 }
    }

    fn entry(&mut self, kind: Kind) -> &mut Map<String, Value> {
        let slot = self.workloads.entry(kind.name().to_string()).or_insert_with(|| json!({}));
        match slot {
            Value::Object(map) => map,
            _ => unreachable!("workload entries are objects"),
        }
    }

    /// Records a workload's input sizes.
    pub fn workload(&mut self, inputs: &Inputs) {
        self.entry(inputs.kind).insert(
            "sizes".into(),
            json!({
                "windows": inputs.windows,
                "updates": inputs.updates,
                "public_traceroutes": inputs.public_items,
                "mrt_bytes": inputs.mrt_bytes,
                "gen_s": inputs.gen_s
            }),
        );
    }

    pub fn end_to_end(&mut self, kind: Kind, r: &WorkloadResult) {
        let metrics: Map<String, Value> = r
            .metrics
            .iter()
            .map(|m| {
                let s = m.summary;
                let v = json!({
                    "unit": m.def.unit, "median": s.median, "q1": s.q1, "q3": s.q3, "samples": s.n
                });
                (m.def.name.to_string(), v)
            })
            .collect();
        let e = self.entry(kind);
        e.insert("repeats".into(), r.repeats.into());
        e.insert("end_to_end".into(), Value::Object(metrics));
        e.insert("queries_attempted".into(), r.attempted.into());
        e.insert("queries_failed".into(), r.failed.into());
        e.insert("notes".into(), r.notes.clone().into());
        let raw: Map<String, Value> =
            r.per_repeat.iter().map(|(name, v)| (name.to_string(), v.clone().into())).collect();
        e.insert("per_repeat".into(), Value::Object(raw));
    }

    pub fn per_layer(&mut self, t: &Traced) {
        let e = self.entry(t.kind);
        let values = metric_object(t.values.iter().map(|v| (v.def.name, v.value, v.def.unit)));
        e.insert("per_layer".into(), values);
        e.insert("trace_file".into(), t.trace_path.display().to_string().into());
        e.insert("trace_notes".into(), t.notes.clone().into());
    }

    pub fn finish(&mut self, wall_s: f64, error: Option<&String>) {
        self.top.insert("wall_s".into(), wall_s.into());
        self.top.insert("error".into(), error.cloned().into());
    }

    pub fn write(&self, root: &Path) -> Result<(), String> {
        let mut top = self.top.clone();
        top.insert("workloads".into(), Value::Object(self.workloads.clone()));
        let text = serde_json::to_string_pretty(&Value::Object(top))
            .expect("shim serialization is infallible");
        std::fs::create_dir_all(root).map_err(|e| format!("create {}: {e}", root.display()))?;
        let path = root.join("run.json");
        std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defs::Better;
    use rrr_serve::wire::parse_json;

    #[test]
    fn result_line_is_one_json_object_with_the_four_keys() {
        let metrics = metric_object([("setup_s", 0.8127, "s"), ("query_us_p50", 1.25, "us")]);
        let line = result_line(true, 1000, 0, metrics);
        assert!(!line.contains('\n'), "{line}");
        let v = parse_json(&line).expect("valid JSON");
        let Value::Object(map) = v else { panic!("not an object: {line}") };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert!(line.contains(r#""setup_s": {"unit": "s","value": 0.8127}"#), "{line}");
    }

    #[test]
    fn presence_check_rejects_missing_duplicate_and_non_finite() {
        let wanted = || ["a", "b"].into_iter();
        let k = Kind::ReplayDense;
        assert!(require_exactly_once(k, wanted(), [("a", 1.0), ("b", 2.0)].into_iter()).is_ok());
        let missing = require_exactly_once(k, wanted(), [("a", 1.0)].into_iter());
        assert!(missing.expect_err("b is missing").contains("b appears 0 times"));
        let twice =
            require_exactly_once(k, wanted(), [("a", 1.0), ("a", 1.0), ("b", 2.0)].into_iter());
        assert!(twice.expect_err("a is doubled").contains("a appears 2 times"));
        let nan = require_exactly_once(k, wanted(), [("a", f64::NAN), ("b", 2.0)].into_iter());
        assert!(nan.expect_err("a is NaN").contains("not finite"));
    }

    /// `BENCHMARK.json` is the driver's copy of `defs.rs`; they must agree
    /// on every name, unit, direction and bound, and on the workloads.
    #[test]
    fn benchmark_json_matches_the_definitions() {
        use serde_json::Value as V;
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let V::Object(top) = parse_json(&text).expect("valid JSON") else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
        );
        let list = |key: &str| match &top[key] {
            V::Array(items) => items.clone(),
            other => panic!("{key} is not a list: {other:?}"),
        };
        let field = |v: &V, key: &str| match v {
            V::Object(m) => m.get(key).cloned().unwrap_or_else(|| panic!("missing {key}")),
            other => panic!("not an object: {other:?}"),
        };
        let text_of = |v: V| match v {
            V::String(s) => s,
            other => panic!("not a string: {other:?}"),
        };
        let better = |v: &V| match text_of(field(v, "better")).as_str() {
            "lower" => Better::Lower,
            "higher" => Better::Higher,
            other => panic!("bad direction {other}"),
        };

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(END_TO_END) {
            assert_eq!(text_of(field(got, "name")), want.name);
            assert_eq!(text_of(field(got, "unit")), want.unit, "{}", want.name);
            assert_eq!(better(got), want.better, "{}", want.name);
            assert_eq!(field(got, "bound"), V::Number(want.bound), "{}", want.name);
            assert!(want.bound <= 0.25);
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, want) in layers.iter().zip(PER_LAYER) {
            assert_eq!(text_of(field(got, "name")), want.name);
            assert_eq!(text_of(field(got, "unit")), want.unit, "{}", want.name);
            assert_eq!(better(got), want.better, "{}", want.name);
        }
        let workloads: Vec<String> =
            list("workloads").iter().map(|w| text_of(field(w, "name"))).collect();
        assert_eq!(workloads, Kind::ALL.map(|k| k.name().to_string()));
        assert_eq!(top["run_seconds"], V::Number(crate::DEFAULT_SECONDS));
    }
}
