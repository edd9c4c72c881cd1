//! Scenario execution: expands the scenario's world, applies the fault
//! plan to the input stream, and checks every oracle. Oracles assert
//! *input-independent* invariants — independent-instance invariance,
//! crash-resume equivalence, internal consistency, revocation, budget
//! discipline, MRT round-tripping — so they hold on faulted streams too: a
//! fault changes *which* inputs the detector sees, never the rules the
//! detector must obey while seeing them.

use crate::faults::Fault;
use crate::inputs::{RoundInput, SimWorld, ROUND};
use crate::scenario::{Expect, Oracle, Scenario, SimEvent};
use crate::weather;
use rrr_baselines::{run_emulation, Dtrack, EmuWorld, PathTimeline, RoundRobin};
use rrr_bench::weather::WeatherScale;
use rrr_core::partition::{canonical_bytes_single, PartitionMap, PartitionedDetector};
use rrr_core::{DurableConfig, DurableDetector, Query, StalenessDetector, StalenessSignal};
use rrr_mrt::{record_to_updates, MrtFileReader, MrtFileWriter, VpDirectory};
use rrr_serve::{
    replay_reference, split_rounds, Daemon, DaemonConfig, Engine, FeedBatch, FeedSource,
    ScriptedFeed,
};
use rrr_store::StoreError;
use rrr_topology::AsIdx;
use rrr_trace::CanonicalPath;
use rrr_types::{BgpUpdate, Duration, PeeringPointId, Timestamp, TracerouteId};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Partition counts the partition-invariance oracle compares against the
/// single-instance reference.
pub const PARTITION_COUNTS: [usize; 2] = [2, 8];
/// Refresh-planning cadence (steps) for oracles that churn the refresh
/// path, and the budget per plan.
const PLAN_EVERY: usize = 3;
const PLAN_BUDGET: usize = 4;

/// A failed oracle, with the message that explains the divergence.
#[derive(Debug, Clone)]
pub struct OracleFailure {
    pub oracle: &'static str,
    pub message: String,
}

impl std::fmt::Display for OracleFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.message)
    }
}

/// Runs one scenario: every oracle, in declaration order, on the faulted
/// stream. The first failing oracle wins.
pub fn run_once(sc: &Scenario) -> Result<(), OracleFailure> {
    let (world, mut steps) = SimWorld::from_scenario(sc);
    for f in &sc.faults {
        f.apply_stream(&mut steps, sc.seed);
    }
    for o in &sc.oracles {
        let res = match *o {
            Oracle::ShardInvariance => oracle_shard_invariance(&world, &steps),
            Oracle::CrashResume { split, every } => {
                oracle_crash_resume(sc, &world, &steps, split as usize, every)
            }
            Oracle::Invariants => oracle_invariants(&world, &steps),
            Oracle::Revocation => oracle_revocation(&world, &steps),
            Oracle::Baselines { budget } => oracle_baselines(sc, &world, &steps, budget),
            Oracle::MrtRoundTrip => oracle_mrt_round_trip(&world, &steps),
            Oracle::ServeEquivalence { feeds } => {
                oracle_serve_equivalence(&world, &steps, feeds as usize)
            }
            Oracle::PartitionInvariance => oracle_partition_invariance(&world, &steps),
            Oracle::MetricsInvariants => oracle_metrics_invariants(sc, &world, &steps),
            Oracle::WeatherReport => oracle_weather_report(&world, &steps),
        };
        if let Err(message) = res {
            return Err(OracleFailure { oracle: o.name(), message });
        }
    }
    Ok(())
}

/// Stable signal digest: every field that downstream consumers see, with
/// the score bit-exact.
fn signal_repr(s: &StalenessSignal) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:016x}|{:?}|{:?}",
        s.key,
        s.time,
        s.window,
        s.score.to_bits(),
        s.traceroutes,
        s.trigger_communities
    )
}

fn log_repr(det: &StalenessDetector) -> Vec<String> {
    det.signal_log().iter().map(signal_repr).collect()
}

fn checkpoint_bytes(det: &StalenessDetector) -> Result<Vec<u8>, String> {
    let mut buf = Vec::new();
    det.checkpoint(&mut buf).map_err(|e| format!("checkpoint failed: {e}"))?;
    Ok(buf)
}

/// Materializing checkpoint: wakes every parked monitor group first, so
/// the bytes are a pure function of logical state regardless of which
/// schedule (native run vs snapshot restore) produced the parks.
fn full_checkpoint_bytes(det: &mut StalenessDetector) -> Result<Vec<u8>, String> {
    let mut buf = Vec::new();
    det.checkpoint_full(&mut buf).map_err(|e| format!("full checkpoint failed: {e}"))?;
    Ok(buf)
}

fn first_log_diff(a: &[String], b: &[String]) -> String {
    if a.len() != b.len() {
        return format!("signal counts differ: {} vs {}", a.len(), b.len());
    }
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if x != y {
            return format!("first divergence at signal {i}:\n  {x}\n  {y}");
        }
    }
    "signal logs are equal (divergence is elsewhere in the state)".to_string()
}

/// Scores the weather regime's signals against the generator's
/// ground-truth event log (see [`crate::weather`]): the run must inject
/// events, emit signals, keep every per-window tally coherent, and —
/// fed the identical (possibly faulted) stream twice — reproduce its
/// signal log bit for bit.
fn oracle_weather_report(world: &SimWorld, steps: &[RoundInput]) -> Result<(), String> {
    let SimWorld::Weather { spec } = world else {
        return Err("WeatherReport oracle requires the Weather world".to_string());
    };
    // The truth log is a pure function of the spec (faults perturb
    // delivery, not what happened in the world).
    let mut gen = spec.world(WeatherScale::small())?;
    let mut truth = Vec::new();
    for w in 0..spec.windows {
        truth.extend(gen.advance(w).1);
    }
    let route_events = truth.iter().filter(|t| t.kind.route_changing()).count();
    if route_events == 0 {
        return Err(format!(
            "regime `{}` injected no route-changing events in {} windows — \
             nothing to evaluate against",
            spec.regime, spec.windows
        ));
    }

    let run = || {
        let mut det = world.build();
        for r in steps {
            det.step(r.now, &r.updates, &r.public);
        }
        let log = log_repr(&det);
        let sigs: Vec<_> =
            det.signal_log().iter().filter_map(|s| weather::scored(spec, &gen, s)).collect();
        (log, sigs)
    };
    let (log_a, sigs) = run();
    let (log_b, _) = run();
    if log_a != log_b {
        return Err(format!(
            "two identical weather runs diverged: {}",
            first_log_diff(&log_a, &log_b)
        ));
    }
    if sigs.is_empty() {
        return Err(format!(
            "regime `{}` produced no corpus-scoped signals over {} windows \
             ({} route-changing truth events went unobserved)",
            spec.regime, spec.windows, route_events
        ));
    }

    let report = weather::score(spec, &truth, &sigs, 0);
    if report.windows.len() != spec.windows as usize {
        return Err(format!(
            "report covers {} windows, spec says {}",
            report.windows.len(),
            spec.windows
        ));
    }
    for w in &report.windows {
        if w.truth_covered > w.truth_route || w.signals_true > w.signals {
            return Err(format!(
                "window {} tallies are incoherent: covered {}/{} true {}/{}",
                w.window, w.truth_covered, w.truth_route, w.signals_true, w.signals
            ));
        }
    }
    let (precision, coverage) = report.totals();
    for (name, v) in [("precision", precision), ("coverage", coverage)] {
        if let Some(x) = v {
            if !(0.0..=1.0).contains(&x) {
                return Err(format!("run-wide {name} {x} escapes [0, 1]"));
            }
        }
    }
    Ok(())
}

/// Plans a refresh and applies it with identical re-measurements (new
/// id/time, same hops): the verify→remove→re-add cycle churns corpus
/// indexes and monitor registration deterministically without inventing
/// new measurement data.
fn plan_and_apply(
    det: &mut StalenessDetector,
    budget: usize,
    step: u64,
    now: Timestamp,
) -> Vec<TracerouteId> {
    let plan = det.plan_refresh(budget);
    for (j, &old) in plan.refresh.iter().enumerate() {
        let Some(entry) = det.corpus().get(old) else { continue };
        let mut fresh = entry.traceroute.clone();
        fresh.id = TracerouteId(900_000 + step * 100 + j as u64);
        fresh.time = now;
        let _ = det.apply_refresh(old, fresh, None);
    }
    plan.refresh
}

/// Feeds every step, optionally planning/refreshing on a fixed cadence.
/// Returns the refresh plans (empty when planning is off).
fn drive(
    det: &mut StalenessDetector,
    steps: &[RoundInput],
    plan_budget: Option<usize>,
) -> Vec<Vec<TracerouteId>> {
    let mut plans = Vec::new();
    for (k, ri) in steps.iter().enumerate() {
        let _ = det.step(ri.now, &ri.updates, &ri.public);
        if let Some(budget) = plan_budget {
            if (k + 1) % PLAN_EVERY == 0 {
                plans.push(plan_and_apply(det, budget, k as u64, ri.now));
            }
        }
    }
    plans
}

/// Two independently built detectors — each with its own hash-map seeds
/// (`rrr_types::fasthash`) — fed the same stream with refresh planning must
/// produce bit-identical signal logs, refresh plans, and final checkpoint
/// bytes: nothing observable may depend on hash iteration order.
fn oracle_shard_invariance(world: &SimWorld, steps: &[RoundInput]) -> Result<(), String> {
    let run = || -> Result<_, String> {
        let mut det = world.build();
        let plans = drive(&mut det, steps, Some(PLAN_BUDGET));
        Ok((log_repr(&det), plans, checkpoint_bytes(&det)?))
    };
    let (log_a, plans_a, ck_a) = run()?;
    let (log_b, plans_b, ck_b) = run()?;
    if log_a != log_b {
        return Err(format!(
            "signal logs diverge between two instances: {}",
            first_log_diff(&log_a, &log_b)
        ));
    }
    if plans_a != plans_b {
        return Err(format!(
            "refresh plans diverge between two instances: {plans_a:?} vs {plans_b:?}"
        ));
    }
    if ck_a != ck_b {
        return Err(format!(
            "final checkpoints differ between two instances ({} vs {} bytes) \
             though signal logs match",
            ck_a.len(),
            ck_b.len()
        ));
    }
    Ok(())
}

/// `StalenessDetector::validate` holds after every step and after
/// every applied refresh.
fn oracle_invariants(world: &SimWorld, steps: &[RoundInput]) -> Result<(), String> {
    let mut det = world.build();
    det.validate().map_err(|e| format!("before any step: {e}"))?;
    for (k, ri) in steps.iter().enumerate() {
        let _ = det.step(ri.now, &ri.updates, &ri.public);
        det.validate().map_err(|e| format!("after step {k}: {e}"))?;
        if (k + 1) % PLAN_EVERY == 0 {
            plan_and_apply(&mut det, PLAN_BUDGET, k as u64, ri.now);
            det.validate().map_err(|e| format!("after refresh at step {k}: {e}"))?;
        }
    }
    Ok(())
}

/// Signals must fire while the scripted events hold, mark corpus entries
/// stale, and every assertion must revoke once the events revert (§4.3.2):
/// the corpus ends the run fully fresh again.
fn oracle_revocation(world: &SimWorld, steps: &[RoundInput]) -> Result<(), String> {
    let mut det = world.build();
    let mut max_stale = 0usize;
    for ri in steps {
        let _ = det.step(ri.now, &ri.updates, &ri.public);
        let stale = det.corpus().freshness_summary().stale;
        max_stale = max_stale.max(stale);
    }
    if det.signal_log().is_empty() {
        return Err("no signals fired; the scenario's events never produced an anomaly".to_string());
    }
    if max_stale == 0 {
        return Err("signals fired but no corpus entry was ever marked stale".to_string());
    }
    let stale = det.corpus().freshness_summary().stale;
    if stale != 0 {
        return Err(format!(
            "{stale} corpus entries still marked stale after every scripted event reverted \
             (peak during the run: {max_stale})"
        ));
    }
    Ok(())
}

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh scratch directory for one durable run.
fn fresh_dir(name: &str) -> PathBuf {
    let clean: String =
        name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '-' }).collect();
    std::env::temp_dir().join(format!(
        "rrr-sim-{}-{}-{}",
        std::process::id(),
        clean,
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// The `StoreError` variant name, for matching `Expect::StoreError`.
/// Covers the delta-chain variants (`DeltaBaseMismatch`,
/// `DeltaChainBroken`) along with the classic file-corruption kinds.
pub fn store_error_kind(e: &StoreError) -> &'static str {
    e.kind()
}

/// Durable run to the crash point, durable-file faults, reopen, resume.
/// With `Expect::Pass` the resumed detector's final checkpoint must equal
/// an uninterrupted in-memory run's; with `Expect::StoreError(kind)` the
/// reopen itself must fail with exactly that variant.
fn oracle_crash_resume(
    sc: &Scenario,
    world: &SimWorld,
    steps: &[RoundInput],
    split: usize,
    every: u64,
) -> Result<(), String> {
    let dir = fresh_dir(&sc.name);
    let result = crash_resume_inner(sc, world, steps, split, every, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn crash_resume_inner(
    sc: &Scenario,
    world: &SimWorld,
    steps: &[RoundInput],
    split: usize,
    every: u64,
    dir: &PathBuf,
) -> Result<(), String> {
    // `every == 0` keeps every step in the WAL (u64::MAX cadence):
    // reopening replays the full pre-crash stream, which is the path
    // under test. A positive cadence cuts delta frames mid-run, so the
    // reopen instead exercises base restore + delta-chain application;
    // size-based compaction is disabled there so the chain is
    // deterministically on disk at the crash point (the micro worlds
    // churn everything, which would otherwise compact every cut).
    let cfg = if every == 0 {
        DurableConfig { checkpoint_every_windows: u64::MAX, ..DurableConfig::default() }
    } else {
        DurableConfig {
            checkpoint_every_windows: every,
            compact_size_ratio: 0,
            ..DurableConfig::default()
        }
    };
    let mut durable = DurableDetector::create(world.build(), dir, cfg.clone())
        .map_err(|e| format!("creating the durable detector: {e}"))?;
    for ri in &steps[..split] {
        durable
            .step(ri.now, &ri.updates, &ri.public)
            .map_err(|e| format!("durable step before the crash: {e}"))?;
    }
    // The crash: drop without any graceful-shutdown pathway.
    drop(durable);

    for f in sc.faults.iter().filter(|f| f.is_durable()) {
        f.apply_file(dir).map_err(|e| format!("applying {f:?} to the crashed dir: {e}"))?;
    }

    let (topo, map, geo, alias) = world.env();
    let mut det_cfg = world.det_config();
    if sc.faults.contains(&Fault::RestoreConfigSkew) {
        det_cfg.calibration_l += 1;
    }
    let reopened = DurableDetector::open(dir, topo, map, geo, alias, det_cfg, cfg);
    let mut durable = match (&sc.expect, reopened) {
        (Expect::StoreError(kind), Err(e)) => {
            let got = store_error_kind(&e);
            return if got == kind {
                Ok(())
            } else {
                Err(format!("expected StoreError::{kind} on reopen, got {got}: {e}"))
            };
        }
        (Expect::StoreError(kind), Ok(_)) => {
            return Err(format!("expected StoreError::{kind} on reopen, but the reopen succeeded"));
        }
        (Expect::Pass, Err(e)) => {
            return Err(format!("reopen failed with {}: {e}", store_error_kind(&e)));
        }
        (Expect::Pass, Ok(d)) => d,
    };

    for ri in &steps[split..] {
        durable
            .step(ri.now, &ri.updates, &ri.public)
            .map_err(|e| format!("durable step after the resume: {e}"))?;
    }

    // The uninterrupted reference skips any step the durable run
    // legitimately lost (a torn WAL tail loses exactly the crashed step).
    let dropped: Vec<u64> = sc.faults.iter().filter_map(|f| f.dropped_step(split as u64)).collect();
    let mut reference = world.build();
    for (k, ri) in steps.iter().enumerate() {
        if dropped.contains(&(k as u64)) {
            continue;
        }
        let _ = reference.step(ri.now, &ri.updates, &ri.public);
    }

    // With mid-run snapshot cuts the restored run's park bookkeeping can
    // legitimately differ from the uninterrupted run's (restore-time vs
    // native parking decisions), so the comparison goes through the
    // materializing full checkpoint, which normalizes park state and
    // compares exactly the logical detector state. The WAL-only mode
    // keeps the stricter plain-bytes comparison.
    let (resumed_ck, reference_ck) = if every == 0 {
        (checkpoint_bytes(durable.detector())?, checkpoint_bytes(&reference)?)
    } else {
        (full_checkpoint_bytes(durable.detector_mut())?, full_checkpoint_bytes(&mut reference)?)
    };
    if resumed_ck != reference_ck {
        return Err(format!(
            "crash-resume state diverges from the uninterrupted run: {}",
            first_log_diff(&log_repr(&reference), &log_repr(durable.detector()))
        ));
    }
    Ok(())
}

/// A routing map that actually splits the world's corpus: interior split
/// points subdivide the span of destination-prefix base addresses, so
/// entries spread across partitions (unreached counts degrade to fewer
/// partitions when the span is too narrow — the dedup keeps the map
/// valid, never the test vacuously single-partition).
fn partition_map_for(world: &SimWorld, n: usize) -> Result<PartitionMap, String> {
    let (_, ip2as, _, _) = world.env();
    let mut bases: Vec<u32> = world
        .corpus_seed()
        .iter()
        .map(|(tr, _)| {
            ip2as.most_specific_prefix(tr.dst).map(|p| p.network()).unwrap_or(tr.dst).value()
        })
        .collect();
    bases.sort_unstable();
    bases.dedup();
    let (Some(&lo), Some(&hi)) = (bases.first(), bases.last()) else {
        return Err("world has no corpus to partition".to_string());
    };
    let (lo, hi) = (lo as u64, hi as u64 + 1);
    let mut splits: Vec<u32> =
        (1..n as u64).map(|k| (lo + k * (hi - lo) / n as u64) as u32).collect();
    splits.dedup();
    splits.retain(|&s| s > 0);
    PartitionMap::from_splits(splits).map_err(|e| format!("building the partition map: {e}"))
}

/// The partitioned counterpart of [`SimWorld::build`]: identical
/// environment and seeding, routed through the facade.
fn build_partitioned(world: &SimWorld, map: PartitionMap) -> PartitionedDetector {
    let mut pd = PartitionedDetector::from_factory(map, |_| world.build_empty());
    pd.init_rib(&world.rib_seed());
    pd.bootstrap_public(&world.bootstrap_seed());
    for (tr, asn) in world.corpus_seed() {
        let _ = pd.add_corpus(tr, asn);
    }
    pd
}

/// [`drive`] through the in-memory partitioned facade.
fn drive_partitioned(pd: &mut PartitionedDetector, steps: &[RoundInput]) -> Vec<Vec<TracerouteId>> {
    let mut plans = Vec::new();
    for (k, ri) in steps.iter().enumerate() {
        let _ = pd.step(ri.now, &ri.updates, &ri.public);
        if (k + 1) % PLAN_EVERY == 0 {
            let plan = pd.plan_refresh(PLAN_BUDGET);
            for (j, &old) in plan.refresh.iter().enumerate() {
                let Some(entry) = pd.corpus_get(old) else { continue };
                let mut fresh = entry.traceroute.clone();
                fresh.id = TracerouteId(900_000 + (k as u64) * 100 + j as u64);
                fresh.time = ri.now;
                let _ = pd.apply_refresh(old, fresh, None);
            }
            plans.push(plan.refresh);
        }
    }
    plans
}

/// N partitions must reproduce the single-instance run bit-identically:
/// merged signal log, refresh plans, and canonical state bytes, at every
/// count in [`PARTITION_COUNTS`].
fn oracle_partition_invariance(world: &SimWorld, steps: &[RoundInput]) -> Result<(), String> {
    let mut reference = world.build();
    let ref_plans = drive(&mut reference, steps, Some(PLAN_BUDGET));
    let ref_log = log_repr(&reference);
    let ref_bytes =
        canonical_bytes_single(&mut reference).map_err(|e| format!("reference bytes: {e}"))?;

    for &n in &PARTITION_COUNTS {
        let mut pd = build_partitioned(world, partition_map_for(world, n)?);
        let plans = drive_partitioned(&mut pd, steps);
        pd.validate().map_err(|e| format!("N={n}: {e}"))?;
        let log: Vec<String> = pd.signal_log().iter().map(signal_repr).collect();
        let bytes = pd.canonical_bytes().map_err(|e| format!("N={n} bytes: {e}"))?;
        if log != ref_log {
            return Err(format!(
                "merged signal log diverges at N={n} partitions: {}",
                first_log_diff(&ref_log, &log)
            ));
        }
        if plans != ref_plans {
            return Err(format!(
                "refresh plans diverge at N={n} partitions: {ref_plans:?} vs {plans:?}"
            ));
        }
        if bytes != ref_bytes {
            return Err(format!(
                "canonical state bytes diverge at N={n} partitions \
                 ({} vs {} bytes) though signal logs match",
                ref_bytes.len(),
                bytes.len()
            ));
        }
    }
    Ok(())
}

/// Refresh plans stay within budget and only name live corpus entries;
/// the same scripted route changes, replayed through the `rrr-baselines`
/// emulators, bracket sanely (generous round-robin catches everything,
/// a starved one never beats it, DTRACK stays a valid fraction).
fn oracle_baselines(
    sc: &Scenario,
    world: &SimWorld,
    steps: &[RoundInput],
    budget: usize,
) -> Result<(), String> {
    let mut det = world.build();
    for (k, ri) in steps.iter().enumerate() {
        let _ = det.step(ri.now, &ri.updates, &ri.public);
        if (k + 1) % PLAN_EVERY == 0 {
            let plan = det.plan_refresh(budget);
            if plan.refresh.len() > budget {
                return Err(format!(
                    "step {k}: plan of {} traceroutes exceeds budget {budget}",
                    plan.refresh.len()
                ));
            }
            let mut seen = HashSet::new();
            for &id in &plan.refresh {
                if det.corpus().get(id).is_none() {
                    return Err(format!("step {k}: plan names {id:?}, which is not in the corpus"));
                }
                if !seen.insert(id) {
                    return Err(format!("step {k}: plan names {id:?} twice"));
                }
            }
            for (j, &old) in plan.refresh.iter().enumerate() {
                let Some(entry) = det.corpus().get(old) else { continue };
                let mut fresh = entry.traceroute.clone();
                fresh.id = TracerouteId(900_000 + (k as u64) * 100 + j as u64);
                fresh.time = ri.now;
                let _ = det.apply_refresh(old, fresh, None);
            }
            det.validate().map_err(|e| format!("after refresh at step {k}: {e}"))?;
        }
    }

    let Some(emu) = emu_from_events(sc) else { return Ok(()) };
    if emu.total_changes() == 0 {
        return Ok(());
    }
    let generous = run_emulation(&emu, &mut RoundRobin::default(), 1.0);
    let starved = run_emulation(&emu, &mut RoundRobin::default(), 0.0001);
    let dtrack = run_emulation(&emu, &mut Dtrack::new(emu.pair_count()), 0.05);
    if generous.fraction() < 1.0 {
        return Err(format!(
            "a generous round-robin budget should detect every scripted change, got {}/{}",
            generous.detected, generous.total_changes
        ));
    }
    if starved.fraction() > generous.fraction() {
        return Err(format!(
            "a starved round-robin ({}) outperformed a generous one ({})",
            starved.fraction(),
            generous.fraction()
        ));
    }
    if !(0.0..=1.0).contains(&dtrack.fraction()) {
        return Err(format!("DTRACK detection fraction {} is out of range", dtrack.fraction()));
    }
    Ok(())
}

/// Ground-truth timelines for the emulators, built from the same scripted
/// `RouteChange` events the detector-facing stream encodes: one monitored
/// pair per affected destination, deviating during `[from, to)`.
fn emu_from_events(sc: &Scenario) -> Option<EmuWorld> {
    let changes: Vec<(u64, u64, u32)> = sc
        .events
        .iter()
        .filter_map(|e| match *e {
            SimEvent::RouteChange { from, to, dst } => Some((from, to, dst)),
            _ => None,
        })
        .collect();
    if changes.is_empty() {
        return None;
    }
    let duration = Duration::minutes(15 * sc.rounds);
    let mut dsts: Vec<u32> = changes.iter().map(|c| c.2).collect();
    dsts.sort_unstable();
    dsts.dedup();
    let timelines = dsts
        .iter()
        .map(|&dst| {
            let base = emu_path(dst, false);
            let alt = emu_path(dst, true);
            let mut states = vec![(Timestamp(0), base.clone())];
            for &(from, to, d) in &changes {
                if d == dst {
                    states.push((Timestamp(from * ROUND), alt.clone()));
                    states.push((Timestamp(to * ROUND), base.clone()));
                }
            }
            states.sort_by_key(|(t, _)| *t);
            // States starting at or past the campaign end are unobservable
            // by construction; counting them would make 100% unreachable.
            states.retain(|(t, _)| t.0 < duration.as_secs());
            PathTimeline { states }
        })
        .collect();
    Some(EmuWorld { timelines, round: Duration::minutes(15), duration })
}

fn emu_path(dst: u32, deviating: bool) -> CanonicalPath {
    let as_chain = if deviating {
        vec![AsIdx(0), AsIdx(1), AsIdx(3), AsIdx(2)]
    } else {
        vec![AsIdx(0), AsIdx(1), AsIdx(2)]
    };
    let crossings = as_chain
        .windows(2)
        .enumerate()
        .map(|(i, _)| vec![PeeringPointId(dst * 10 + i as u32 + u32::from(deviating) * 100)])
        .collect();
    CanonicalPath { as_chain, crossings, reached: true }
}

/// Converts the simulator's per-round inputs into daemon feed batches.
pub fn feed_batches(steps: &[RoundInput]) -> Vec<FeedBatch> {
    steps
        .iter()
        .map(|ri| FeedBatch { now: ri.now, updates: ri.updates.clone(), public: ri.public.clone() })
        .collect()
}

/// Deep equality of two snapshots through the public [`Query`] surface:
/// epoch, whole-corpus tallies, monitor inventory, the refresh plan, and
/// every per-id freshness / per-prefix / per-AS summary on either side.
pub fn snapshots_equal(
    got: &rrr_core::DetectorSnapshot,
    want: &rrr_core::DetectorSnapshot,
) -> Result<(), String> {
    if got.epoch() != want.epoch() {
        return Err(format!("epoch {} vs {}", got.epoch(), want.epoch()));
    }
    let epoch = got.epoch();
    if got.corpus_summary() != want.corpus_summary() {
        return Err(format!(
            "corpus summaries diverge at epoch {epoch}: {:?} vs {:?}",
            got.corpus_summary(),
            want.corpus_summary()
        ));
    }
    if got.monitor_stats() != want.monitor_stats() {
        return Err(format!(
            "monitor stats diverge at epoch {epoch}: {:?} vs {:?}",
            got.monitor_stats(),
            want.monitor_stats()
        ));
    }
    if got.plan(PLAN_BUDGET) != want.plan(PLAN_BUDGET) {
        return Err(format!(
            "refresh plans diverge at epoch {epoch}: {:?} vs {:?}",
            got.plan(PLAN_BUDGET).refresh,
            want.plan(PLAN_BUDGET).refresh
        ));
    }
    let mut ids = got.ids();
    ids.extend(want.ids());
    ids.sort_unstable();
    ids.dedup();
    for id in ids {
        if got.freshness_of(id) != want.freshness_of(id) {
            return Err(format!(
                "freshness of {id:?} diverges at epoch {epoch}: {:?} vs {:?}",
                got.freshness_of(id),
                want.freshness_of(id)
            ));
        }
    }
    let mut prefixes: Vec<_> = got.prefixes().chain(want.prefixes()).collect();
    prefixes.sort_unstable();
    prefixes.dedup();
    for p in prefixes {
        if got.prefix_summary(p) != want.prefix_summary(p) {
            return Err(format!("prefix summary of {p} diverges at epoch {epoch}"));
        }
    }
    let mut asns: Vec<_> = got.asns().chain(want.asns()).collect();
    asns.sort_unstable();
    asns.dedup();
    for a in asns {
        if got.as_summary(a) != want.as_summary(a) {
            return Err(format!("AS summary of {a} diverges at epoch {epoch}"));
        }
    }
    Ok(())
}

/// The `rrr-serve` daemon, ingesting the faulted stream split across
/// `feeds` concurrent feeds, must at every published epoch answer exactly
/// like a serial batch detector replayed over the same rounds — and its
/// final state must checkpoint bit-identically. Epochs must advance
/// strictly monotonically.
pub fn oracle_serve_equivalence(
    world: &SimWorld,
    steps: &[RoundInput],
    feeds: usize,
) -> Result<(), String> {
    let batches = feed_batches(steps);
    let (reference, ref_snaps) = replay_reference(world.build(), &batches);
    let sources: Vec<Box<dyn FeedSource>> = split_rounds(&batches, feeds)
        .into_iter()
        .map(|b| Box::new(ScriptedFeed::new(b)) as Box<dyn FeedSource>)
        .collect();
    let daemon = Daemon::spawn(
        Engine::Plain(world.build()),
        sources,
        DaemonConfig { record_snapshots: true, ..DaemonConfig::default() },
    );
    let handle = daemon.handle();
    let report = daemon.join().map_err(|e| format!("daemon failed: {e}"))?;
    if report.rounds != steps.len() as u64 {
        return Err(format!(
            "daemon stepped {} merged rounds, expected {}",
            report.rounds,
            steps.len()
        ));
    }
    if report.snapshots.len() != ref_snaps.len() {
        return Err(format!(
            "daemon published {} snapshots, serial replay captured {}",
            report.snapshots.len(),
            ref_snaps.len()
        ));
    }
    let mut prev_epoch = None;
    for (got, want) in report.snapshots.iter().zip(&ref_snaps) {
        if let Some(prev) = prev_epoch {
            if got.epoch() <= prev {
                return Err(format!(
                    "published epochs are not strictly monotone: {prev} then {}",
                    got.epoch()
                ));
            }
        }
        prev_epoch = Some(got.epoch());
        snapshots_equal(got, want).map_err(|e| format!("with {feeds} feeds: {e}"))?;
    }
    if let Some(last) = report.snapshots.last() {
        if handle.epoch() != last.epoch() {
            return Err(format!(
                "handle serves epoch {} after shutdown, last published was {}",
                handle.epoch(),
                last.epoch()
            ));
        }
    }
    let got_ck = checkpoint_bytes(report.engine.detector())?;
    let want_ck = checkpoint_bytes(&reference)?;
    if got_ck != want_ck {
        return Err(format!(
            "final daemon state diverges from the serial replay ({} vs {} bytes): {}",
            got_ck.len(),
            want_ck.len(),
            first_log_diff(&log_repr(&reference), &log_repr(report.engine.detector()))
        ));
    }
    Ok(())
}

/// The (possibly faulted) BGP stream must survive an MRT encode→decode
/// round trip bit-exactly: what the simulator feeds the detector is what a
/// RouteViews archive of the same session would replay.
fn oracle_mrt_round_trip(world: &SimWorld, steps: &[RoundInput]) -> Result<(), String> {
    let mut dir = VpDirectory::default();
    for (vp, asn) in world.vp_asns() {
        dir.register(vp, asn);
    }
    let all: Vec<BgpUpdate> = steps.iter().flat_map(|ri| ri.updates.iter().cloned()).collect();
    let mut w = MrtFileWriter::new(Vec::new());
    w.write_record(&dir.peer_index_record()).expect("write to memory");
    for u in &all {
        w.write_update(&dir, u).expect("write to memory");
    }
    let bytes = w.finish().expect("write to memory");
    let mut got = Vec::new();
    for rec in MrtFileReader::new(&bytes[..]) {
        let rec = rec.map_err(|e| format!("MRT decode error: {e:?}"))?;
        record_to_updates(&dir, rec, |u| got.push(u));
    }
    if got.len() != all.len() {
        return Err(format!(
            "MRT round trip changed the update count: {} -> {}",
            all.len(),
            got.len()
        ));
    }
    if let Some(i) = got.iter().zip(&all).position(|(a, b)| a != b) {
        return Err(format!(
            "MRT round trip diverges at update {i}: wrote {:?}, read {:?}",
            all[i], got[i]
        ));
    }
    Ok(())
}

/// Cross-subsystem accounting identities on the `rrr-obs` registry, plus
/// inertness: instrumentation may observe everything and perturb nothing.
///
/// 1. **Detector**: counters equal ground truth (steps fed, updates fed,
///    signals logged, windows closed; incremental + full closes sum to the
///    close count) and the instrumented run's signal log and checkpoint
///    bytes equal an uninstrumented run's.
/// 2. **Durable store**: one WAL record per step; an explicit checkpoint
///    cut zeroes the WAL-length gauge and leaves `bytes_on_disk` equal to
///    the real on-disk footprint.
/// 3. **Daemon**: merged-round and update counters equal the ingest
///    report, per-feed series sum to the ingest totals, the published
///    snapshot count equals the recorded snapshots, the publish-epoch
///    gauge equals both the final engine epoch and the window-close count
///    (the daemon publishes at most once per merged round, *per epoch
///    advance* — so the epoch, not the publish count, tracks windows),
///    and every queue-depth gauge drains to zero.
fn oracle_metrics_invariants(
    sc: &Scenario,
    world: &SimWorld,
    steps: &[RoundInput],
) -> Result<(), String> {
    use rrr_core::Metrics;

    // --- 1. Plain detector -------------------------------------------------
    let mut baseline = world.build();
    drive(&mut baseline, steps, None);
    let metrics = Metrics::enabled();
    let mut det = world.build();
    det.set_metrics(&metrics);
    drive(&mut det, steps, None);
    if log_repr(&det) != log_repr(&baseline) {
        return Err(format!(
            "instrumentation perturbed the signal log: {}",
            first_log_diff(&log_repr(&baseline), &log_repr(&det))
        ));
    }
    if checkpoint_bytes(&det)? != checkpoint_bytes(&baseline)? {
        return Err("instrumentation perturbed the checkpoint bytes".to_string());
    }
    let snap = metrics.snapshot();
    let total_updates: u64 = steps.iter().map(|ri| ri.updates.len() as u64).sum();
    let identities: [(&str, u64, u64); 5] = [
        ("rrr_detector_steps_total", snap.counter("rrr_detector_steps_total"), steps.len() as u64),
        (
            "rrr_detector_bgp_updates_total",
            snap.counter("rrr_detector_bgp_updates_total"),
            total_updates,
        ),
        (
            "rrr_detector_signals_total",
            snap.counter("rrr_detector_signals_total"),
            det.signal_log().len() as u64,
        ),
        (
            "rrr_detector_bgp_windows_closed_total",
            snap.counter("rrr_detector_bgp_windows_closed_total"),
            det.closed_bgp_windows(),
        ),
        (
            "close_incremental + close_full",
            snap.counter("rrr_detector_close_incremental_total")
                + snap.counter("rrr_detector_close_full_total"),
            det.closed_bgp_windows(),
        ),
    ];
    for (name, got, want) in identities {
        if got != want {
            return Err(format!("detector identity broken: {name} = {got}, ground truth {want}"));
        }
    }

    // --- 2. Durable store --------------------------------------------------
    let dir = fresh_dir(&format!("{}-metrics", sc.name));
    let result = metrics_durable_leg(world, steps, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result?;

    // --- 3. Daemon ---------------------------------------------------------
    let metrics = Metrics::enabled();
    let batches = feed_batches(steps);
    let sources: Vec<Box<dyn FeedSource>> = split_rounds(&batches, 2)
        .into_iter()
        .map(|b| Box::new(ScriptedFeed::new(b)) as Box<dyn FeedSource>)
        .collect();
    let daemon = Daemon::spawn(
        Engine::Plain(world.build()),
        sources,
        DaemonConfig { record_snapshots: true, metrics: metrics.clone() },
    );
    let report = daemon.join().map_err(|e| format!("metrics daemon failed: {e}"))?;
    let snap = metrics.snapshot();
    let daemon_identities: [(&str, u64, u64); 5] = [
        ("rrr_serve_rounds_total", snap.counter("rrr_serve_rounds_total"), report.rounds),
        ("rrr_serve_updates_total", snap.counter("rrr_serve_updates_total"), report.updates),
        (
            "sum(rrr_serve_feed_updates_total)",
            snap.counter_family("rrr_serve_feed_updates_total"),
            report.updates,
        ),
        (
            "rrr_serve_snapshots_published_total",
            snap.counter("rrr_serve_snapshots_published_total"),
            report.snapshots.len() as u64,
        ),
        (
            "rrr_serve_publish_epoch vs engine epoch",
            snap.gauge("rrr_serve_publish_epoch").max(0) as u64,
            report.engine.epoch(),
        ),
    ];
    for (name, got, want) in daemon_identities {
        if got != want {
            return Err(format!("daemon identity broken: {name} = {got}, ground truth {want}"));
        }
    }
    // The daemon publishes once per epoch *advance*, so the publish-epoch
    // gauge — not the publish count — must equal the window-close count.
    let closed = snap.counter("rrr_detector_bgp_windows_closed_total");
    if snap.gauge("rrr_serve_publish_epoch").max(0) as u64 != closed {
        return Err(format!(
            "daemon identity broken: publish epoch {} vs {closed} closed windows",
            snap.gauge("rrr_serve_publish_epoch")
        ));
    }
    Ok(())
}

/// The durable-store leg of [`oracle_metrics_invariants`], in its own
/// function so the scratch directory is cleaned up on every exit path.
fn metrics_durable_leg(
    world: &SimWorld,
    steps: &[RoundInput],
    dir: &PathBuf,
) -> Result<(), String> {
    use rrr_core::Metrics;

    let metrics = Metrics::enabled();
    let cfg = DurableConfig { checkpoint_every_windows: u64::MAX, ..DurableConfig::default() };
    let mut durable = DurableDetector::create(world.build(), dir, cfg)
        .map_err(|e| format!("creating the durable detector: {e}"))?;
    durable.set_metrics(&metrics);
    for (k, ri) in steps.iter().enumerate() {
        durable
            .step(ri.now, &ri.updates, &ri.public)
            .map_err(|e| format!("durable step {k}: {e}"))?;
    }
    let snap = metrics.snapshot();
    if snap.counter("rrr_wal_records_appended_total") != steps.len() as u64 {
        return Err(format!(
            "store identity broken: {} WAL records appended for {} steps",
            snap.counter("rrr_wal_records_appended_total"),
            steps.len()
        ));
    }
    if snap.gauge("rrr_wal_records") != steps.len() as i64 {
        return Err(format!(
            "store identity broken: WAL-length gauge {} with {} uncheckpointed steps",
            snap.gauge("rrr_wal_records"),
            steps.len()
        ));
    }
    durable.cut_checkpoint().map_err(|e| format!("checkpoint cut: {e}"))?;
    let snap = metrics.snapshot();
    let cuts = snap.counter("rrr_store_checkpoint_full_total")
        + snap.counter("rrr_store_checkpoint_delta_total");
    if cuts == 0 {
        return Err("store identity broken: a checkpoint cut recorded no checkpoint".to_string());
    }
    if snap.gauge("rrr_wal_records") != 0 {
        return Err(format!(
            "store identity broken: WAL-length gauge {} right after a cut",
            snap.gauge("rrr_wal_records")
        ));
    }
    let mut real_bytes = 0i64;
    let entries = std::fs::read_dir(dir).map_err(|e| format!("listing {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("listing {}: {e}", dir.display()))?;
        let meta = entry.metadata().map_err(|e| format!("stat: {e}"))?;
        if meta.is_file() {
            real_bytes += meta.len() as i64;
        }
    }
    if snap.gauge("rrr_store_bytes_on_disk") != real_bytes {
        return Err(format!(
            "store identity broken: bytes_on_disk gauge {} vs {real_bytes} real bytes",
            snap.gauge("rrr_store_bytes_on_disk")
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    #[test]
    fn clean_micro_scenario_passes_every_oracle() {
        let sc = Scenario::parse(
            r#"Scenario(
                name: "unit-clean",
                seed: 11,
                world: Micro,
                rounds: 8,
                events: [RouteChange(from: 2, to: 5, dst: 1)],
                oracles: [Invariants, CrashResume(split: 4), MrtRoundTrip, Baselines(budget: 3)],
            )"#,
        )
        .expect("parses");
        run_once(&sc).expect("clean scenario passes");
    }

    #[test]
    fn metrics_invariants_oracle_holds_on_a_clean_micro_world() {
        let sc = Scenario::parse(
            r#"Scenario(
                name: "unit-metrics",
                seed: 11,
                world: Micro,
                rounds: 8,
                events: [RouteChange(from: 2, to: 5, dst: 1)],
                oracles: [MetricsInvariants],
            )"#,
        )
        .expect("parses");
        run_once(&sc).expect("metrics identities hold");
    }

    #[test]
    fn partition_invariance_holds() {
        let sc = Scenario::parse(
            r#"Scenario(
                name: "unit-partition",
                seed: 11,
                world: Micro,
                rounds: 8,
                half_steps: true,
                events: [CommunityFlip(from: 2, to: 5, dst: 0, variant: 1)],
                oracles: [PartitionInvariance],
            )"#,
        )
        .expect("parses");
        run_once(&sc).expect("partitioning reproduces the single instance");
    }

    #[test]
    fn corrupted_checkpoint_fails_crash_resume_without_the_expectation() {
        let sc = Scenario::parse(
            r#"Scenario(
                name: "unit-corrupt",
                seed: 11,
                world: Micro,
                rounds: 6,
                faults: [FlipCheckpointByte(offset: 64)],
                oracles: [CrashResume(split: 3)],
            )"#,
        )
        .expect("parses");
        let err = run_once(&sc).expect_err("corruption must surface");
        assert_eq!(err.oracle, "crash-resume");
        assert!(err.message.contains("CrcMismatch"), "{}", err.message);
    }

    #[test]
    fn expected_store_errors_count_as_passing() {
        let sc = Scenario::parse(
            r#"Scenario(
                name: "unit-expected",
                seed: 11,
                world: Micro,
                rounds: 6,
                faults: [BadMagicCheckpoint],
                oracles: [CrashResume(split: 3)],
                expect: StoreError(kind: "BadMagic"),
            )"#,
        )
        .expect("parses");
        run_once(&sc).expect("expected error is a pass");
    }
}
