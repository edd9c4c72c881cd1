//! Scenario-facing surface of the internet-weather instrument: the RON
//! `weather` block, the streamed regime runner, and the [`WeatherReport`]
//! oracle scoring detector signals against the generator's ground-truth
//! event log.
//!
//! The generator itself ([`rrr_bench::weather::WeatherWorld`]) produces
//! both the degraded update feed *and* a truth log of every injected
//! event. This module closes the loop: it streams the feed through a
//! detector window by window (never materializing the whole run), maps
//! each emitted signal back to the corpus prefix it concerns, and tallies
//! per-window **precision** (what fraction of signals correspond to a
//! recent route-changing truth event) and **coverage** (what fraction of
//! route-changing truth events drew a signal within the lag horizon).
//!
//! Community-churn truth events are *not* route-changing: signals they
//! trigger count against precision — the paper's §4.1.3 noise floor made
//! measurable.

use crate::ron::Fields;
use rrr_bench::weather::{Regime, TruthEvent, TruthKind, WeatherScale, WeatherWorld, WINDOW_SECS};
use rrr_core::{SignalScope, StalenessSignal, Technique};
use rrr_types::Timestamp;
use serde_json::Value;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Detection lag horizon, in windows: a signal within `LAG_WINDOWS` after
/// a truth event covers it (the bitmap detector's lead window plus one
/// close).
pub const LAG_WINDOWS: u64 = 2;

/// The `weather: Weather(...)` block of a scenario: which regime family,
/// under which seed, for how many windows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeatherSpec {
    pub regime: String,
    pub seed: u64,
    pub windows: u64,
}

impl WeatherSpec {
    /// Parses `Weather(regime: "diurnal", seed: 7, windows: 64)`. `seed`
    /// and `windows` default to the scenario's own.
    pub fn from_value(
        v: &Value,
        default_seed: u64,
        default_windows: u64,
    ) -> Result<WeatherSpec, String> {
        let f = Fields::of(v)
            .filter(|f| f.name() == "Weather")
            .ok_or_else(|| "`weather` must be a `Weather(...)` block".to_string())?;
        let regime = f
            .get("regime")
            .and_then(Value::as_str)
            .ok_or_else(|| "Weather: missing string field `regime`".to_string())?
            .to_string();
        if Regime::by_name(&regime).is_none() {
            return Err(format!(
                "Weather: unknown regime `{regime}` (families: {})",
                Regime::FAMILIES.join(", ")
            ));
        }
        let get = |name: &'static str, default: u64| match f.get(name) {
            None => Ok(default),
            Some(x) => x
                .as_u64()
                .ok_or_else(|| format!("Weather: field `{name}` must be a non-negative integer")),
        };
        let seed = get("seed", default_seed)?;
        let windows = get("windows", default_windows)?;
        f.finish()?;
        if windows == 0 {
            return Err("Weather: `windows` must be positive".to_string());
        }
        Ok(WeatherSpec { regime, seed, windows })
    }

    /// The parsed regime (validated at parse time, so this only fails on
    /// hand-constructed specs).
    pub fn regime(&self) -> Result<Regime, String> {
        Regime::by_name(&self.regime).ok_or_else(|| format!("unknown regime `{}`", self.regime))
    }

    /// A fresh generator world for this spec at the given scale.
    pub fn world(&self, scale: WeatherScale) -> Result<WeatherWorld, String> {
        Ok(WeatherWorld::new(self.regime()?, scale, self.seed))
    }
}

/// Signal/truth tallies for one window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WindowStats {
    pub window: u64,
    /// Route-changing truth events injected this window.
    pub truth_route: u32,
    /// Of those, how many drew a signal within [`LAG_WINDOWS`].
    pub truth_covered: u32,
    /// Community-churn (non-route-changing) truth events this window.
    pub truth_noise: u32,
    /// Signals the detector emitted for this window.
    pub signals: u32,
    /// Of those, how many follow a route-changing truth event within
    /// [`LAG_WINDOWS`].
    pub signals_true: u32,
}

impl WindowStats {
    /// `signals_true / signals`, undefined when no signals fired.
    pub fn precision(&self) -> Option<f64> {
        (self.signals > 0).then(|| self.signals_true as f64 / self.signals as f64)
    }

    /// `truth_covered / truth_route`, undefined when nothing happened.
    pub fn coverage(&self) -> Option<f64> {
        (self.truth_route > 0).then(|| self.truth_covered as f64 / self.truth_route as f64)
    }
}

/// Run-wide signal tallies for one §4.1 technique, counted by the rule
/// [`WindowStats::signals_true`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TechniqueStats {
    pub technique: Technique,
    pub signals: u64,
    pub signals_true: u64,
}

impl TechniqueStats {
    /// `signals_true / signals`, undefined when the technique never fired.
    pub fn precision(&self) -> Option<f64> {
        (self.signals > 0).then(|| self.signals_true as f64 / self.signals as f64)
    }
}

/// The scored outcome of one weather run.
#[derive(Debug, Clone, PartialEq)]
pub struct WeatherReport {
    pub regime: String,
    pub seed: u64,
    pub windows: Vec<WindowStats>,
    /// One row per BGP technique, in Table 2 order; the rows partition the
    /// signals the windows count.
    pub techniques: Vec<TechniqueStats>,
    /// FNV digest over every emitted signal's full repr — bit-for-bit
    /// reproducibility witness.
    pub digest: u64,
}

impl WeatherReport {
    /// The evaluation-instrument sanity bar: somewhere in the run both
    /// precision and coverage are strictly between 0 and 1. A report
    /// failing this is measuring a degenerate regime (all-perfect or
    /// all-silent), not internet weather.
    pub fn non_degenerate(&self) -> bool {
        let mixed_p =
            self.windows.iter().any(|w| w.precision().is_some_and(|p| p > 0.0 && p < 1.0));
        let mixed_c = self.windows.iter().any(|w| w.coverage().is_some_and(|c| c > 0.0 && c < 1.0));
        mixed_p && mixed_c
    }

    /// Run-wide `(precision, coverage)` over all windows with activity.
    pub fn totals(&self) -> (Option<f64>, Option<f64>) {
        let (mut st, mut s, mut tc, mut t) = (0u64, 0u64, 0u64, 0u64);
        for w in &self.windows {
            st += w.signals_true as u64;
            s += w.signals as u64;
            tc += w.truth_covered as u64;
            t += w.truth_route as u64;
        }
        ((s > 0).then(|| st as f64 / s as f64), (t > 0).then(|| tc as f64 / t as f64))
    }

    /// Markdown trajectory table: windows aggregated into at most
    /// `max_rows` equal buckets, showing how precision/coverage evolve
    /// over the run (warmup, peaks, troughs).
    pub fn trajectory_table(&self, max_rows: usize) -> String {
        let n = self.windows.len().max(1);
        let bucket = n.div_ceil(max_rows.max(1));
        let mut out = String::new();
        let _ = writeln!(out, "| windows | truth | noise | signals | precision | coverage |");
        let _ = writeln!(out, "|---|---|---|---|---|---|");
        for chunk in self.windows.chunks(bucket) {
            let (mut tr, mut tc, mut tn, mut sg, mut st) = (0u64, 0u64, 0u64, 0u64, 0u64);
            for w in chunk {
                tr += w.truth_route as u64;
                tc += w.truth_covered as u64;
                tn += w.truth_noise as u64;
                sg += w.signals as u64;
                st += w.signals_true as u64;
            }
            let p = if sg > 0 { format!("{:.3}", st as f64 / sg as f64) } else { "—".into() };
            let c = if tr > 0 { format!("{:.3}", tc as f64 / tr as f64) } else { "—".into() };
            let _ = writeln!(
                out,
                "| {}–{} | {tr} | {tn} | {sg} | {p} | {c} |",
                chunk[0].window,
                chunk[chunk.len() - 1].window,
            );
        }
        out
    }
}

/// Side facts about a run that the report alone doesn't carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeatherRunStats {
    pub updates_fed: u64,
    pub signals_emitted: u64,
    /// Provider chains the lazy world materialized — stays tiny relative
    /// to the AS count.
    pub materialized_chains: usize,
}

fn fnv64(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Streams a weather regime through a fresh detector, window by window,
/// and scores the emitted signals against the generator's truth log.
/// Memory stays proportional to (truth events + signals), never to
/// (windows × corpus × VPs) worth of updates.
pub fn run_weather(
    spec: &WeatherSpec,
    scale: WeatherScale,
) -> Result<(WeatherReport, WeatherRunStats), String> {
    let mut world = spec.world(scale)?;
    let mut det = world.build_detector(0);
    let mut truth_all: Vec<TruthEvent> = Vec::new();
    let mut sig_windows: Vec<(u64, usize, Technique)> = Vec::new();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut updates_fed = 0u64;
    let mut signals_emitted = 0u64;
    for w in 0..spec.windows {
        let (updates, truth) = world.advance(w);
        updates_fed += updates.len() as u64;
        let signals = det.step(Timestamp((w + 1) * WINDOW_SECS), &updates, &[]);
        signals_emitted += signals.len() as u64;
        for s in &signals {
            digest = fnv64(
                digest,
                format!(
                    "{:?}|{:?}|{:?}|{:016x}|{:?}",
                    s.key,
                    s.time,
                    s.window,
                    s.score.to_bits(),
                    s.trigger_communities
                )
                .as_bytes(),
            );
            sig_windows.extend(scored(spec, &world, s));
        }
        truth_all.extend(truth);
    }
    let report = score(spec, &truth_all, &sig_windows, digest);
    let stats = WeatherRunStats {
        updates_fed,
        signals_emitted,
        materialized_chains: world.materialized_chains(),
    };
    Ok((report, stats))
}

/// What [`score`] keeps of a signal — `(window, corpus index, technique)`
/// — or `None` for one that is not scoped to a corpus destination.
pub(crate) fn scored(
    spec: &WeatherSpec,
    world: &WeatherWorld,
    s: &StalenessSignal,
) -> Option<(u64, usize, Technique)> {
    let SignalScope::AsSuffix { dst_prefix, .. } = &s.key.scope else { return None };
    let ci = world.corpus_index_of(*dst_prefix)?;
    Some((s.window.index().min(spec.windows - 1), ci, s.key.technique))
}

/// Matches signals to truth events per corpus prefix within the lag
/// horizon and aggregates per-window and per-technique stats.
pub(crate) fn score(
    spec: &WeatherSpec,
    truth: &[TruthEvent],
    signals: &[(u64, usize, Technique)],
    digest: u64,
) -> WeatherReport {
    // Per-prefix sorted signal windows for the coverage test, and
    // per-prefix sorted route-truth windows for the precision test.
    let mut sig_by_ci: HashMap<usize, Vec<u64>> = HashMap::new();
    for &(w, ci, _) in signals {
        sig_by_ci.entry(ci).or_default().push(w);
    }
    let mut route_by_ci: HashMap<usize, Vec<u64>> = HashMap::new();
    for t in truth {
        if t.kind.route_changing() {
            route_by_ci.entry(t.corpus_idx).or_default().push(t.window);
        }
    }
    for v in sig_by_ci.values_mut() {
        v.sort_unstable();
    }
    for v in route_by_ci.values_mut() {
        v.sort_unstable();
    }
    let any_in = |v: Option<&Vec<u64>>, lo: u64, hi: u64| {
        v.is_some_and(|v| {
            let i = v.partition_point(|&x| x < lo);
            i < v.len() && v[i] <= hi
        })
    };

    let mut windows = vec![WindowStats::default(); spec.windows as usize];
    for (i, w) in windows.iter_mut().enumerate() {
        w.window = i as u64;
    }
    for t in truth {
        let w = &mut windows[t.window as usize];
        if t.kind.route_changing() {
            w.truth_route += 1;
            if any_in(sig_by_ci.get(&t.corpus_idx), t.window, t.window + LAG_WINDOWS) {
                w.truth_covered += 1;
            }
        } else {
            debug_assert_eq!(t.kind, TruthKind::CommunityChurn);
            w.truth_noise += 1;
        }
    }
    let mut techniques: Vec<TechniqueStats> = Technique::ALL
        .into_iter()
        .filter(|t| t.is_bgp())
        .map(|technique| TechniqueStats { technique, signals: 0, signals_true: 0 })
        .collect();
    for &(sw, ci, technique) in signals {
        let hit = any_in(route_by_ci.get(&ci), sw.saturating_sub(LAG_WINDOWS), sw);
        let w = &mut windows[sw as usize];
        w.signals += 1;
        w.signals_true += hit as u32;
        let row = techniques
            .iter_mut()
            .find(|r| r.technique == technique)
            .expect("AS-suffix signals come from the BGP techniques only");
        row.signals += 1;
        row.signals_true += hit as u64;
    }
    WeatherReport { regime: spec.regime.clone(), seed: spec.seed, windows, techniques, digest }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ron;

    fn spec(regime: &str, seed: u64, windows: u64) -> WeatherSpec {
        WeatherSpec { regime: regime.to_string(), seed, windows }
    }

    #[test]
    fn spec_rejects_unknown_regime_and_zero_windows() {
        let v = ron::parse(r#"Weather(regime: "sunny")"#).expect("parses");
        assert!(WeatherSpec::from_value(&v, 1, 8).expect_err("rejects").contains("sunny"));
        let v = ron::parse(r#"Weather(regime: "diurnal", windows: 0)"#).expect("parses");
        assert!(WeatherSpec::from_value(&v, 1, 8).expect_err("rejects").contains("positive"));
    }

    #[test]
    fn spec_defaults_fill_from_scenario() {
        let v = ron::parse(r#"Weather(regime: "weekly")"#).expect("parses");
        let s = WeatherSpec::from_value(&v, 9, 32).expect("valid");
        assert_eq!(s, spec("weekly", 9, 32));
    }

    #[test]
    fn scoring_matches_within_lag_only() {
        let sp = spec("diurnal", 1, 10);
        let truth = vec![
            TruthEvent { window: 2, corpus_idx: 0, kind: TruthKind::LinkFail },
            TruthEvent { window: 6, corpus_idx: 1, kind: TruthKind::EgressShift },
            TruthEvent { window: 7, corpus_idx: 2, kind: TruthKind::CommunityChurn },
        ];
        // Signal at w=3/ci=0 covers the w=2 fail; signal at w=7/ci=2
        // chases community noise (false); ci=1's shift at w=6 goes
        // undetected (uncovered).
        let signals = vec![(3u64, 0usize, Technique::BgpAsPath), (7, 2, Technique::BgpCommunity)];
        let r = score(&sp, &truth, &signals, 0);
        assert_eq!(r.windows[2].truth_route, 1);
        assert_eq!(r.windows[2].truth_covered, 1);
        assert_eq!(r.windows[6].truth_route, 1);
        assert_eq!(r.windows[6].truth_covered, 0);
        assert_eq!(r.windows[7].truth_noise, 1);
        assert_eq!(r.windows[3].signals, 1);
        assert_eq!(r.windows[3].signals_true, 1);
        assert_eq!(r.windows[7].signals, 1);
        assert_eq!(r.windows[7].signals_true, 0);
        let (p, c) = r.totals();
        assert_eq!(p, Some(0.5));
        assert_eq!(c, Some(0.5));
        let rows: Vec<_> = r.techniques.iter().map(|t| (t.signals, t.precision())).collect();
        assert_eq!(rows, [(1, Some(1.0)), (1, Some(0.0)), (0, None)]);
    }

    #[test]
    fn trajectory_table_buckets_the_run() {
        let sp = spec("diurnal", 1, 8);
        let truth = vec![TruthEvent { window: 1, corpus_idx: 0, kind: TruthKind::LinkFail }];
        let r = score(&sp, &truth, &[(1, 0, Technique::BgpBurst)], 0);
        let table = r.trajectory_table(2);
        assert_eq!(table.lines().count(), 4, "header + separator + 2 buckets:\n{table}");
        assert!(table.contains("| 0–3 |"), "{table}");
        assert!(table.contains("| 4–7 |"), "{table}");
    }

    /// A signal pin captured before BGP series were capped at the tail
    /// their detector scores: over 192 windows the series outgrow that
    /// tail, and the signals must not move by a bit.
    #[test]
    fn diurnal_small_192_windows_emit_the_pinned_signals() {
        let (r, stats) =
            run_weather(&spec("diurnal", 1, 192), WeatherScale::small()).expect("runs");
        assert_eq!(stats.signals_emitted, 7_291);
        assert_eq!(r.digest, 0x0105_d302_b133_b479);
    }

    #[test]
    fn small_run_is_reproducible_and_scores_signals() {
        let sp = spec("diurnal", 11, 40);
        let (a, stats) = run_weather(&sp, WeatherScale::small()).expect("runs");
        let (b, _) = run_weather(&sp, WeatherScale::small()).expect("runs");
        assert_eq!(a.digest, b.digest, "same spec, same signals, bit for bit");
        assert_eq!(a, b);
        assert!(stats.updates_fed > 0);
        assert!(stats.signals_emitted > 0, "40 windows of weather must signal something");
        assert!(a.windows.iter().any(|w| w.truth_route > 0), "weather must inject events");
        // The per-technique rows partition the per-window aggregate.
        let by_window = a
            .windows
            .iter()
            .fold((0, 0), |(s, t), w| (s + w.signals as u64, t + w.signals_true as u64));
        let by_technique =
            a.techniques.iter().fold((0, 0), |(s, t), r| (s + r.signals, t + r.signals_true));
        assert_eq!(by_technique, by_window);
        assert!(by_window.0 > 0, "the run must score some signals");
    }
}
