//! The scenario model: what a `tests/scenarios/*.ron` file describes and
//! how it is loaded. A scenario is (a) a deterministic input-generation
//! recipe — world kind, seed, round count, scripted routing events — plus
//! (b) a fault plan perturbing those inputs or the durable files, (c) the
//! oracles to check, and (d) the expected outcome.

use crate::faults::Fault;
use crate::ron::{self, Value};
use crate::weather::WeatherSpec;
use std::fmt;
use std::path::{Path, PathBuf};

/// Which input generator drives the scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorldKind {
    /// The hand-built micro-world: 3 VPs × 4 destinations, fully scripted
    /// update streams (the checkpoint-equivalence test's generator).
    Micro,
    /// The full simulated internet from `rrr-bench::world` (topology, BGP
    /// engine, measurement platform), small scale.
    Bench,
    /// An internet-weather regime over the lazy large-scale topology
    /// (`rrr-bench::weather`): generator-driven churn with a ground-truth
    /// event log. Configured by the scenario's `weather` block.
    Weather,
}

/// A scripted routing event — a *cause* for signals, distinct from faults
/// (which perturb delivery, not routing). Rounds are half-open: the event
/// holds during `[from, to)` and reverts afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEvent {
    /// Destination `dst`'s announcements carry a changed community.
    CommunityFlip { from: u64, to: u64, dst: u32, variant: u8 },
    /// Destination `dst`'s announcements take a deviating AS path.
    RouteChange { from: u64, to: u64, dst: u32 },
    /// Destination `dst` is withdrawn.
    Withdraw { from: u64, to: u64, dst: u32 },
    /// Public traceroutes toward `dst` cross a deviating border.
    PublicDeviate { from: u64, to: u64, dst: u32 },
}

/// Which invariant checks a scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Oracle {
    /// Two independently built detectors (each map freshly seeded) produce
    /// bit-identical signal logs, refresh plans, and final checkpoint bytes
    /// on the faulted stream.
    ShardInvariance,
    /// Crash after `split` rounds (durable WAL + checkpoint), reopen, and
    /// finish: the final checkpoint must equal an uninterrupted run's.
    /// File-level faults are applied at the crash point.
    ///
    /// `every` is the snapshot cadence in closed BGP windows. The default
    /// 0 keeps every step in the WAL (no mid-run snapshot cuts — the pure
    /// replay path). A positive value cuts delta frames on that cadence,
    /// so the reopen exercises base-restore → delta-chain → WAL replay,
    /// and delta-frame faults have frames to corrupt at the crash point.
    CrashResume { split: u64, every: u64 },
    /// `StalenessDetector::validate` holds after every step.
    Invariants,
    /// Signals fire while scripted events hold and all assertions revoke
    /// once the events revert (§4.3.2).
    Revocation,
    /// Differential comparison against the `rrr-baselines` emulators:
    /// refresh plans respect the budget, and round-robin detection
    /// fractions bracket sanely on timelines built from the same events.
    Baselines { budget: usize },
    /// The faulted BGP stream survives an MRT encode→decode round trip.
    MrtRoundTrip,
    /// The `rrr-serve` daemon ingesting the faulted stream split across
    /// `feeds` concurrent feeds publishes, at every epoch, snapshots whose
    /// answers are bit-identical to a serial batch replay — and its final
    /// state checkpoints identically.
    ServeEquivalence { feeds: u64 },
    /// A partitioned deployment (at every count in
    /// `runner::PARTITION_COUNTS`) produces merged signal logs, refresh
    /// plans, and canonical state bytes bit-identical to one unpartitioned
    /// instance on the faulted stream.
    PartitionInvariance,
    /// Cross-subsystem accounting identities hold on the `rrr-obs`
    /// registry after instrumented runs of the faulted stream: detector
    /// counters match ground-truth step/signal/window tallies, durable
    /// counters match WAL/checkpoint activity, and the daemon's publish
    /// epoch equals its window count — while the instrumented outputs
    /// stay bit-identical to the uninstrumented run (metrics are inert).
    MetricsInvariants,
    /// The weather regime's signals, scored against the generator's
    /// ground-truth event log, produce a sane [`crate::WeatherReport`]:
    /// events were injected, signals fired, per-window precision/coverage
    /// stay within [0, 1], and the whole run reproduces bit-for-bit from
    /// the spec's seed. Weather world only.
    WeatherReport,
}

impl Oracle {
    pub fn name(&self) -> &'static str {
        match self {
            Oracle::ShardInvariance => "shard-invariance",
            Oracle::CrashResume { .. } => "crash-resume",
            Oracle::Invariants => "invariants",
            Oracle::Revocation => "revocation",
            Oracle::Baselines { .. } => "baselines",
            Oracle::MrtRoundTrip => "mrt-round-trip",
            Oracle::ServeEquivalence { .. } => "serve-equivalence",
            Oracle::PartitionInvariance => "partition-invariance",
            Oracle::MetricsInvariants => "metrics-invariants",
            Oracle::WeatherReport => "weather-report",
        }
    }

    /// Every oracle name, for corpus-coverage accounting: the scenario
    /// corpus meta-test asserts each of these is exercised by at least one
    /// checked-in scenario.
    pub const ALL_NAMES: [&'static str; 10] = [
        "shard-invariance",
        "crash-resume",
        "invariants",
        "revocation",
        "baselines",
        "mrt-round-trip",
        "serve-equivalence",
        "partition-invariance",
        "metrics-invariants",
        "weather-report",
    ];
}

/// The expected outcome of running the scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// All oracles hold.
    Pass,
    /// The durable reopen fails with this `StoreError` variant name
    /// (`"CrcMismatch"`, `"Io"`, `"BadMagic"`, `"UnsupportedVersion"`,
    /// `"ConfigMismatch"`, `"TrailingData"`, `"Corrupt"`,
    /// `"DeltaBaseMismatch"`, `"DeltaChainBroken"`).
    StoreError(String),
}

/// One scenario, fully parsed.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub name: String,
    pub seed: u64,
    pub world: WorldKind,
    pub rounds: u64,
    pub events: Vec<SimEvent>,
    pub faults: Vec<Fault>,
    pub oracles: Vec<Oracle>,
    pub expect: Expect,
    /// The weather regime driving a [`WorldKind::Weather`] scenario
    /// (required there, rejected elsewhere).
    pub weather: Option<WeatherSpec>,
    /// Split every round into two `step` calls, the first landing mid-way
    /// through the BGP window — so crash points (and WAL records) exist
    /// while a window is still open. Micro world only.
    pub half_steps: bool,
    /// Where the scenario was loaded from, for error reporting.
    pub source: Option<PathBuf>,
}

/// A scenario-loading error.
#[derive(Debug)]
pub struct ScenarioError {
    pub path: Option<PathBuf>,
    pub message: String,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.path {
            Some(p) => write!(f, "{}: {}", p.display(), self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for ScenarioError {}

fn bad(message: impl Into<String>) -> ScenarioError {
    ScenarioError { path: None, message: message.into() }
}

fn req_u64(v: &Value, field: &str, what: &str) -> Result<u64, ScenarioError> {
    v.field(field)
        .and_then(Value::as_u64)
        .ok_or_else(|| bad(format!("{what}: missing or non-integer field `{field}`")))
}

fn opt_u64(v: &Value, field: &str, default: u64) -> Result<u64, ScenarioError> {
    match v.field(field) {
        None => Ok(default),
        Some(x) => {
            x.as_u64().ok_or_else(|| bad(format!("field `{field}` must be a non-negative integer")))
        }
    }
}

impl SimEvent {
    fn from_value(v: &Value) -> Result<SimEvent, ScenarioError> {
        let name = v.name().ok_or_else(|| bad("event must be a named variant"))?;
        let from = req_u64(v, "from", name)?;
        let to = req_u64(v, "to", name)?;
        if to <= from {
            return Err(bad(format!("{name}: `to` ({to}) must be after `from` ({from})")));
        }
        let dst = req_u64(v, "dst", name)? as u32;
        match name {
            "CommunityFlip" => {
                let variant = opt_u64(v, "variant", 0)? as u8;
                Ok(SimEvent::CommunityFlip { from, to, dst, variant })
            }
            "RouteChange" => Ok(SimEvent::RouteChange { from, to, dst }),
            "Withdraw" => Ok(SimEvent::Withdraw { from, to, dst }),
            "PublicDeviate" => Ok(SimEvent::PublicDeviate { from, to, dst }),
            other => Err(bad(format!("unknown event `{other}`"))),
        }
    }
}

impl SimEvent {
    /// Renders the event back to RON (for replayable artifacts).
    pub fn to_value(&self) -> Value {
        let s = |name: &str, fields: &[(&str, i64)]| {
            Value::Struct(
                name.to_string(),
                fields.iter().map(|(k, v)| (k.to_string(), Value::Int(*v))).collect(),
            )
        };
        match *self {
            SimEvent::CommunityFlip { from, to, dst, variant } => s(
                "CommunityFlip",
                &[
                    ("from", from as i64),
                    ("to", to as i64),
                    ("dst", dst as i64),
                    ("variant", variant as i64),
                ],
            ),
            SimEvent::RouteChange { from, to, dst } => {
                s("RouteChange", &[("from", from as i64), ("to", to as i64), ("dst", dst as i64)])
            }
            SimEvent::Withdraw { from, to, dst } => {
                s("Withdraw", &[("from", from as i64), ("to", to as i64), ("dst", dst as i64)])
            }
            SimEvent::PublicDeviate { from, to, dst } => {
                s("PublicDeviate", &[("from", from as i64), ("to", to as i64), ("dst", dst as i64)])
            }
        }
    }
}

impl Oracle {
    /// Renders the oracle back to RON (for replayable artifacts).
    pub fn to_value(&self) -> Value {
        match *self {
            Oracle::ShardInvariance => Value::Unit("ShardInvariance".to_string()),
            Oracle::CrashResume { split, every } => Value::Struct(
                "CrashResume".to_string(),
                vec![
                    ("split".to_string(), Value::Int(split as i64)),
                    ("every".to_string(), Value::Int(every as i64)),
                ],
            ),
            Oracle::Invariants => Value::Unit("Invariants".to_string()),
            Oracle::Revocation => Value::Unit("Revocation".to_string()),
            Oracle::Baselines { budget } => Value::Struct(
                "Baselines".to_string(),
                vec![("budget".to_string(), Value::Int(budget as i64))],
            ),
            Oracle::MrtRoundTrip => Value::Unit("MrtRoundTrip".to_string()),
            Oracle::ServeEquivalence { feeds } => Value::Struct(
                "ServeEquivalence".to_string(),
                vec![("feeds".to_string(), Value::Int(feeds as i64))],
            ),
            Oracle::PartitionInvariance => Value::Unit("PartitionInvariance".to_string()),
            Oracle::MetricsInvariants => Value::Unit("MetricsInvariants".to_string()),
            Oracle::WeatherReport => Value::Unit("WeatherReport".to_string()),
        }
    }

    fn from_value(v: &Value) -> Result<Oracle, ScenarioError> {
        let name = v.name().ok_or_else(|| bad("oracle must be a named variant"))?;
        match name {
            "ShardInvariance" => Ok(Oracle::ShardInvariance),
            "CrashResume" => Ok(Oracle::CrashResume {
                split: req_u64(v, "split", name)?,
                every: opt_u64(v, "every", 0)?,
            }),
            "Invariants" => Ok(Oracle::Invariants),
            "Revocation" => Ok(Oracle::Revocation),
            "Baselines" => Ok(Oracle::Baselines { budget: req_u64(v, "budget", name)? as usize }),
            "MrtRoundTrip" => Ok(Oracle::MrtRoundTrip),
            "ServeEquivalence" => {
                let feeds = req_u64(v, "feeds", name)?;
                if feeds == 0 {
                    return Err(bad("ServeEquivalence: `feeds` must be positive"));
                }
                Ok(Oracle::ServeEquivalence { feeds })
            }
            "PartitionInvariance" => Ok(Oracle::PartitionInvariance),
            "MetricsInvariants" => Ok(Oracle::MetricsInvariants),
            "WeatherReport" => Ok(Oracle::WeatherReport),
            other => Err(bad(format!("unknown oracle `{other}`"))),
        }
    }
}

impl Scenario {
    /// Parses a scenario from RON text.
    pub fn parse(text: &str) -> Result<Scenario, ScenarioError> {
        let v = ron::parse(text).map_err(|e| bad(e.to_string()))?;
        Scenario::from_value(&v)
    }

    /// Builds a scenario from an already-parsed RON value (also the
    /// `repro` field of a failure artifact).
    pub fn from_value(v: &Value) -> Result<Scenario, ScenarioError> {
        if v.name() != Some("Scenario") {
            return Err(bad("document root must be `Scenario(...)`"));
        }
        let name = v
            .field("name")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("missing string field `name`"))?
            .to_string();
        let seed = req_u64(v, "seed", "Scenario")?;
        let rounds = req_u64(v, "rounds", "Scenario")?;
        if rounds == 0 {
            return Err(bad("`rounds` must be positive"));
        }
        let world = match v.field("world").and_then(Value::name) {
            None | Some("Micro") => WorldKind::Micro,
            Some("Bench") => WorldKind::Bench,
            Some("Weather") => WorldKind::Weather,
            Some(other) => return Err(bad(format!("unknown world `{other}`"))),
        };
        let weather = match v.field("weather") {
            None => None,
            Some(w) => Some(WeatherSpec::from_value(w, seed, rounds).map_err(bad)?),
        };
        let mut events = Vec::new();
        for e in v.field("events").and_then(Value::as_seq).unwrap_or(&[]) {
            events.push(SimEvent::from_value(e)?);
        }
        let mut faults = Vec::new();
        for f in v.field("faults").and_then(Value::as_seq).unwrap_or(&[]) {
            faults.push(Fault::from_value(f).map_err(bad)?);
        }
        let oracles_v =
            v.field("oracles").and_then(Value::as_seq).ok_or_else(|| bad("missing `oracles`"))?;
        let mut oracles = Vec::new();
        for o in oracles_v {
            oracles.push(Oracle::from_value(o)?);
        }
        if oracles.is_empty() {
            return Err(bad("`oracles` must not be empty"));
        }
        let expect = match v.field("expect") {
            None => Expect::Pass,
            Some(e) => match e.name() {
                Some("Pass") => Expect::Pass,
                Some("StoreError") => {
                    let kind = e
                        .field("kind")
                        .and_then(Value::as_str)
                        .ok_or_else(|| bad("StoreError expects a string field `kind`"))?;
                    Expect::StoreError(kind.to_string())
                }
                _ => return Err(bad("`expect` must be Pass or StoreError(kind: \"...\")")),
            },
        };
        let half_steps = match v.field("half_steps") {
            None => false,
            Some(Value::Bool(b)) => *b,
            Some(_) => return Err(bad("`half_steps` must be a boolean")),
        };
        let sc = Scenario {
            name,
            seed,
            world,
            rounds,
            events,
            faults,
            oracles,
            expect,
            weather,
            half_steps,
            source: None,
        };
        sc.validate()?;
        Ok(sc)
    }

    /// Renders the scenario as a RON document [`Scenario::parse`] accepts,
    /// with `faults` substituted — the replayable core of a failure
    /// artifact.
    pub fn to_value_with_faults(&self, faults: &[Fault]) -> Value {
        let world = match self.world {
            WorldKind::Micro => "Micro",
            WorldKind::Bench => "Bench",
            WorldKind::Weather => "Weather",
        };
        let expect = match &self.expect {
            Expect::Pass => Value::Unit("Pass".to_string()),
            Expect::StoreError(kind) => Value::Struct(
                "StoreError".to_string(),
                vec![("kind".to_string(), Value::Str(kind.clone()))],
            ),
        };
        let mut fields = vec![
            ("name".to_string(), Value::Str(self.name.clone())),
            ("seed".to_string(), Value::Int(self.seed as i64)),
            ("world".to_string(), Value::Unit(world.to_string())),
            ("rounds".to_string(), Value::Int(self.rounds as i64)),
        ];
        if let Some(w) = &self.weather {
            fields.push(("weather".to_string(), w.to_value()));
        }
        fields.extend(vec![
            ("half_steps".to_string(), Value::Bool(self.half_steps)),
            (
                "events".to_string(),
                Value::Seq(self.events.iter().map(SimEvent::to_value).collect()),
            ),
            ("faults".to_string(), Value::Seq(faults.iter().map(Fault::to_value).collect())),
            (
                "oracles".to_string(),
                Value::Seq(self.oracles.iter().map(Oracle::to_value).collect()),
            ),
            ("expect".to_string(), expect),
        ]);
        Value::Struct("Scenario".to_string(), fields)
    }

    /// Number of `step` calls the scenario makes (rounds, doubled when
    /// `half_steps` splits each window across two steps). CrashResume's
    /// `split` indexes these steps.
    pub fn total_steps(&self) -> u64 {
        self.rounds * if self.half_steps { 2 } else { 1 }
    }

    /// Structural checks beyond syntax: fault/oracle combinations that can
    /// never run are configuration errors, not silent no-ops.
    fn validate(&self) -> Result<(), ScenarioError> {
        let has_crash = self.oracles.iter().any(|o| matches!(o, Oracle::CrashResume { .. }));
        if self.faults.iter().any(Fault::is_durable) && !has_crash {
            return Err(bad(format!(
                "scenario `{}` has durable-file faults but no CrashResume oracle to apply them",
                self.name
            )));
        }
        if matches!(self.expect, Expect::StoreError(_)) && !has_crash {
            return Err(bad(format!(
                "scenario `{}` expects a StoreError but has no CrashResume oracle",
                self.name
            )));
        }
        if let Some(Oracle::CrashResume { split, .. }) =
            self.oracles.iter().find(|o| matches!(o, Oracle::CrashResume { .. }))
        {
            if *split == 0 || *split >= self.total_steps() {
                return Err(bad(format!(
                    "scenario `{}`: CrashResume split {} must be in 1..{}",
                    self.name,
                    split,
                    self.total_steps()
                )));
            }
        }
        if self.world == WorldKind::Bench
            && (!self.events.is_empty()
                || self.half_steps
                || self.oracles.iter().any(|o| matches!(o, Oracle::Revocation)))
        {
            return Err(bad(format!(
                "scenario `{}`: the Bench world generates its own routing events; \
                 scripted events, half_steps, and the Revocation oracle require the Micro world",
                self.name
            )));
        }
        if self.world == WorldKind::Weather {
            let Some(weather) = &self.weather else {
                return Err(bad(format!(
                    "scenario `{}`: the Weather world requires a `weather: Weather(...)` block",
                    self.name
                )));
            };
            if weather.windows != self.rounds {
                return Err(bad(format!(
                    "scenario `{}`: weather `windows` ({}) must equal `rounds` ({}) — \
                     one step per generated window",
                    self.name, weather.windows, self.rounds
                )));
            }
            if !self.events.is_empty()
                || self.half_steps
                || self.oracles.iter().any(|o| matches!(o, Oracle::Revocation))
            {
                return Err(bad(format!(
                    "scenario `{}`: the Weather world generates its own routing events; \
                     scripted events, half_steps, and the Revocation oracle require the \
                     Micro world",
                    self.name
                )));
            }
        } else if self.weather.is_some() {
            return Err(bad(format!(
                "scenario `{}`: a `weather` block requires `world: Weather`",
                self.name
            )));
        }
        if self.oracles.iter().any(|o| matches!(o, Oracle::WeatherReport))
            && self.world != WorldKind::Weather
        {
            return Err(bad(format!(
                "scenario `{}`: the WeatherReport oracle needs ground truth only the \
                 Weather world produces",
                self.name
            )));
        }
        Ok(())
    }

    /// Loads one scenario file.
    pub fn load(path: &Path) -> Result<Scenario, ScenarioError> {
        let text = std::fs::read_to_string(path).map_err(|e| ScenarioError {
            path: Some(path.to_path_buf()),
            message: e.to_string(),
        })?;
        let mut sc = Scenario::parse(&text)
            .map_err(|e| ScenarioError { path: Some(path.to_path_buf()), message: e.message })?;
        sc.source = Some(path.to_path_buf());
        Ok(sc)
    }
}

/// Loads every `*.ron` scenario in a directory, sorted by file name so the
/// corpus runs in a stable order.
pub fn load_corpus(dir: &Path) -> Result<Vec<Scenario>, ScenarioError> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| ScenarioError { path: Some(dir.to_path_buf()), message: e.to_string() })?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "ron"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(ScenarioError {
            path: Some(dir.to_path_buf()),
            message: "no *.ron scenarios found".to_string(),
        });
    }
    paths.iter().map(|p| Scenario::load(p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_all_names_matches_the_constructors_exactly() {
        let one_of_each = [
            Oracle::ShardInvariance,
            Oracle::CrashResume { split: 1, every: 0 },
            Oracle::Invariants,
            Oracle::Revocation,
            Oracle::Baselines { budget: 1 },
            Oracle::MrtRoundTrip,
            Oracle::ServeEquivalence { feeds: 1 },
            Oracle::PartitionInvariance,
            Oracle::MetricsInvariants,
            Oracle::WeatherReport,
        ];
        let names: Vec<&str> = one_of_each.iter().map(Oracle::name).collect();
        assert_eq!(names, Oracle::ALL_NAMES, "ALL_NAMES drifted from the constructors");
    }

    #[test]
    fn parses_a_full_scenario() {
        let sc = Scenario::parse(
            r#"Scenario(
                name: "demo",
                seed: 7,
                world: Micro,
                rounds: 12,
                events: [CommunityFlip(from: 3, to: 5, dst: 0, variant: 1)],
                faults: [ReorderWindow(round: 3)],
                oracles: [ShardInvariance, CrashResume(split: 6), Invariants],
                expect: Pass,
            )"#,
        )
        .expect("parses");
        assert_eq!(sc.name, "demo");
        assert_eq!(sc.rounds, 12);
        assert_eq!(sc.events.len(), 1);
        assert_eq!(sc.oracles.len(), 3);
        assert_eq!(sc.expect, Expect::Pass);
    }

    #[test]
    fn rejects_incoherent_combinations() {
        // Durable fault without a CrashResume oracle to host it.
        let e = Scenario::parse(
            r#"Scenario(name: "x", seed: 1, rounds: 4,
                faults: [FlipCheckpointByte(offset: 3)],
                oracles: [Invariants])"#,
        )
        .expect_err("must reject");
        assert!(e.message.contains("CrashResume"), "{}", e.message);

        // Split outside the round range.
        let e = Scenario::parse(
            r#"Scenario(name: "x", seed: 1, rounds: 4,
                oracles: [CrashResume(split: 4)])"#,
        )
        .expect_err("must reject");
        assert!(e.message.contains("split"), "{}", e.message);

        // Scripted events on the Bench world.
        let e = Scenario::parse(
            r#"Scenario(name: "x", seed: 1, rounds: 4, world: Bench,
                events: [Withdraw(from: 1, to: 2, dst: 0)],
                oracles: [Invariants])"#,
        )
        .expect_err("must reject");
        assert!(e.message.contains("Micro"), "{}", e.message);
    }
}
