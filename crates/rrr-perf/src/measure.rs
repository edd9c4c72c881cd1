//! The timed section of one workload: repeats until the time budget is
//! spent, the correctness gate against the serial replay, and the
//! end-to-end metrics — each the median over repeats.

use crate::defs::{EndToEnd, END_TO_END};
use crate::gate::{self, Outcome};
use crate::inputs::{Inputs, Kind};
use crate::load::Schedule;
use crate::run::{run_repeat, Repeat};
use crate::stats::{self, Summary};
use std::path::Path;
use std::time::Instant;

/// One end-to-end metric's value with its spread over repeats.
#[derive(Debug, Clone)]
pub struct Measured {
    pub def: &'static EndToEnd,
    pub summary: Summary,
}

/// Everything a workload's untraced measurement produced.
pub struct WorkloadResult {
    pub repeats: usize,
    pub metrics: Vec<Measured>,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Derived lines that are printed but are not metrics.
    pub notes: Vec<String>,
    /// The raw per-repeat values behind the medians, for the receipt.
    pub per_repeat: Vec<(&'static str, Vec<f64>)>,
}

impl WorkloadResult {
    pub fn get(&self, name: &str) -> Option<&Measured> {
        self.metrics.iter().find(|m| m.def.name == name)
    }
}

fn pooled(repeats: &[Repeat], f: impl Fn(&Repeat) -> &[f64]) -> Vec<f64> {
    repeats.iter().flat_map(|r| f(r).iter().copied()).collect()
}

fn per_repeat(repeats: &[Repeat], f: impl Fn(&Repeat) -> Option<f64>) -> Vec<f64> {
    repeats.iter().filter_map(f).collect()
}

/// Checks every repeat against the reference; the first mismatch fails
/// the whole run.
pub fn check_repeats(reference: &Outcome, repeats: &[Repeat]) -> Result<(), String> {
    for (i, r) in repeats.iter().enumerate() {
        reference.check(&r.outcome).map_err(|e| format!("repeat {i}: {e}"))?;
        if r.restored_crc != reference.checkpoint_crc {
            return Err(format!(
                "repeat {i}: restored checkpoint CRC {:#x}, serial replay {:#x}",
                r.restored_crc, reference.checkpoint_crc
            ));
        }
    }
    Ok(())
}

/// Runs the workload's repeats for about `seconds` (at least
/// `min_repeats` of them), gates them, and summarizes.
pub fn measure(
    inputs: &mut Inputs,
    schedule: &Schedule,
    scratch: &Path,
    seconds: f64,
    min_repeats: usize,
    corrupt_reference: bool,
) -> Result<WorkloadResult, String> {
    // Memory is measured on the first repeat, over a heap holding little
    // but the inputs: generation's garbage goes back to the kernel first,
    // and the reference replay runs after the repeats.
    crate::procfs::trim_heap();
    let started = Instant::now();
    let mut repeats: Vec<Repeat> = Vec::new();
    while repeats.len() < min_repeats || started.elapsed().as_secs_f64() < seconds {
        repeats.push(run_repeat(inputs, schedule, scratch, false)?);
    }

    let (mut reference, _) = gate::reference(inputs)?;
    if corrupt_reference {
        reference.digest ^= 1;
    }
    check_repeats(&reference, &repeats)?;
    summarize(&repeats, inputs.kind)
}

/// Share of the repeat's in-process answer time (as the wall clock saw
/// it) that the generator thread spent off its core and that
/// `DriveLog::latencies_us` therefore leaves out.
fn off_core_share(r: &Repeat) -> Option<f64> {
    let off: f64 = r.drive.off_core_us.iter().sum();
    let on: f64 = r.drive.latencies_us.iter().sum();
    (off + on > 0.0).then(|| off / (off + on))
}

fn summarize(repeats: &[Repeat], kind: Kind) -> Result<WorkloadResult, String> {
    let tail = kind.tail_percentile();
    let latencies = pooled(repeats, |r| &r.drive.latencies_us);
    let lags = pooled(repeats, |r| &r.lags_ms);
    // A percentile is taken inside each repeat and the median over
    // repeats reported, like everything else: pooled, one repeat that met
    // a half-second stall of the host owns the whole tail.
    let latency = |p: f64| per_repeat(repeats, |r| stats::percentile(&r.drive.latencies_us, p));
    let walls = per_repeat(repeats, |r| Some(r.wall_s));
    let raw: Vec<(&'static str, Vec<f64>)> = vec![
        ("setup_s", per_repeat(repeats, |r| Some(r.setup_s))),
        ("ingest_items_per_s", per_repeat(repeats, |r| Some(r.items() as f64 / r.wall_s))),
        ("cpu_s_per_mitem", per_repeat(repeats, |r| Some(r.cpu_s? / (r.items() as f64 / 1e6)))),
        ("peak_rss_mb", per_repeat(repeats, |r| r.peak_rss_mib)),
        ("query_us_p50", latency(50.0)),
        ("query_us_tail", latency(tail)),
        ("publish_lag_ms_p50", per_repeat(repeats, |r| stats::percentile(&r.lags_ms, 50.0))),
        ("publish_lag_ms_mean", per_repeat(repeats, |r| stats::mean(&r.lags_ms))),
        ("restore_s", per_repeat(repeats, |r| Some(r.restore_s))),
        // Not metrics; kept in the receipt beside them.
        ("wall_s", walls.clone()),
        ("query_us_p99", latency(99.0)),
        ("query_off_core_share", per_repeat(repeats, off_core_share)),
    ];
    let metrics = END_TO_END
        .iter()
        .map(|def| {
            let values = raw.iter().find(|(name, _)| *name == def.name).map(|(_, v)| &v[..]);
            let summary = match (def.name, values) {
                // Only the first repeat starts from a compact heap; later
                // ones refill the holes their predecessors left and read
                // low (by two thirds on `replay_dense`).
                ("peak_rss_mb", Some([first, ..])) => Some(Summary::single(*first, 1)),
                (_, Some(values)) => Summary::of(values),
                (_, None) => None,
            };
            let summary =
                summary.ok_or_else(|| format!("{}: not measurable on this host", def.name))?;
            Ok(Measured { def, summary })
        })
        .collect::<Result<Vec<_>, String>>()?;

    let attempted: u64 = repeats.iter().map(|r| r.drive.attempted).sum();
    let failed: u64 = repeats.iter().map(|r| r.drive.failed).sum();
    let wall_s = stats::median(&walls).unwrap_or(0.0);
    let windows_per_s = per_repeat(repeats, |r| Some(r.outcome.rounds as f64 / r.wall_s));
    let feed_lateness = pooled(repeats, |r| &r.feed_lateness_ms);
    let query_lateness = pooled(repeats, |r| &r.drive.lateness_ms);
    let feed_lateness_ms_p99 = stats::percentile(&feed_lateness, 99.0).unwrap_or(0.0);
    let query_lateness_ms_p99 = stats::percentile(&query_lateness, 99.0).unwrap_or(0.0);

    let supported = stats::supported_percentile(latencies.len(), 10);
    let mut notes = vec![
        format!(
            "windows/s {:.1} (derived), wall/repeat {:.3} s",
            stats::median(&windows_per_s).unwrap_or(0.0),
            wall_s
        ),
        format!(
            "query latency: {} samples over all repeats; query_us_tail is p{tail} within a \
             repeat; pooled, the highest percentile with >= 10 samples beyond it is \
             p{supported} = {:.1} us",
            latencies.len(),
            stats::percentile(&latencies, supported).unwrap_or(0.0),
        ),
        format!(
            "publish lag: {} windows, max {:.1} ms",
            lags.len(),
            lags.iter().copied().fold(0.0, f64::max)
        ),
        format!(
            "query_fail_ratio {} ({failed} failed / {attempted} attempted)",
            if attempted == 0 { 0.0 } else { failed as f64 / attempted as f64 }
        ),
        format!(
            "generator lateness p99: feed {feed_lateness_ms_p99:.3} ms, \
             queries {query_lateness_ms_p99:.3} ms (p50 {:.3}, p90 {:.3}, max {:.3})",
            stats::percentile(&query_lateness, 50.0).unwrap_or(0.0),
            stats::percentile(&query_lateness, 90.0).unwrap_or(0.0),
            stats::percentile(&query_lateness, 100.0).unwrap_or(0.0),
        ),
    ];
    if !kind.tcp() {
        let off_core = pooled(repeats, |r| &r.drive.off_core_us);
        notes.push(format!(
            "generator off its core inside an answer: {} of {} answers, {:.1} % of their wall \
             time, left out of the latencies (a client of a deployed daemon has its own core)",
            off_core.iter().filter(|&&us| us > 0.0).count(),
            off_core.len(),
            100.0 * stats::median(&per_repeat(repeats, off_core_share)).unwrap_or(0.0),
        ));
    }
    // In process a late send costs nothing: the call itself is timed.
    if feed_lateness_ms_p99 > 5.0 || (kind.tcp() && query_lateness_ms_p99 > 5.0) {
        notes.push(
            "WARNING: the generator ran more than 5 ms late at p99: it shares the host's cores \
             with the program, and what is timed from a due time carries that wait"
                .to_string(),
        );
    }
    Ok(WorkloadResult {
        repeats: repeats.len(),
        per_repeat: raw,
        metrics,
        attempted,
        failed,
        first_failure: repeats.iter().find_map(|r| r.drive.first_failure.clone()),
        notes,
    })
}
