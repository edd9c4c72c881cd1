//! One repeat: fresh detector, fresh daemon, fresh durable directory, the
//! same inputs — set up, driven by the load generator until it drains,
//! then restored from what it left behind.

use crate::feeds::{FeedSpans, PacedFeed, Release, ReleaseLog, TimedFeed};
use crate::gate::{checkpoint_crc, signal_digest, Outcome};
use crate::inputs::Inputs;
use crate::load::{drive, Client, DriveLog, Schedule, TcpClient};
use crate::procfs;
use rrr_core::{DurableConfig, DurableDetector, Metrics, MetricsSnapshot, StalenessDetector};
use rrr_serve::{Daemon, DaemonConfig, Engine, FeedSource, TcpServer};
use rrr_types::WindowConfig;
use std::path::Path;
use std::time::Instant;

/// What one repeat measured.
pub struct Repeat {
    /// Generated inputs to daemon ready, seconds.
    pub setup_s: f64,
    /// `Daemon::spawn` to `Daemon::join`, seconds.
    pub wall_s: f64,
    /// Process CPU seconds over the same interval.
    pub cpu_s: Option<f64>,
    /// Resident memory the repeat added at its peak, over what was
    /// resident before its set-up began, MiB (kernel watermark, or the
    /// generator's samples where that cannot be reset).
    pub peak_rss_mib: Option<f64>,
    /// Bringing a detector back from what the run left, seconds.
    pub restore_s: f64,
    pub outcome: Outcome,
    /// Checkpoint CRC of the restored detector.
    pub restored_crc: u32,
    pub drive: DriveLog,
    /// Per feed-0 batch: first sight of its window published minus the
    /// instant it was due, ms.
    pub lags_ms: Vec<f64>,
    /// Per feed-0 batch: released minus due, ms (open loop only).
    pub feed_lateness_ms: Vec<f64>,
    pub spawned: Instant,
    pub joined: Instant,
    /// The program's own registry (traced repeats only).
    pub metrics: Option<MetricsSnapshot>,
    /// `TimedFeed` spans per feed (traced repeats only).
    pub feed_spans: Vec<FeedSpans>,
}

impl Repeat {
    pub fn items(&self) -> u64 {
        self.outcome.items()
    }
}

fn lags(releases: &[Release], log: &DriveLog) -> Vec<f64> {
    releases
        .iter()
        .filter_map(|r| {
            let epoch = WindowConfig::BGP.window_of(r.now).index();
            let seen = log.first_seen(epoch)?;
            Some(seen.saturating_duration_since(r.due).as_secs_f64() * 1e3)
        })
        .collect()
}

struct Feeds {
    sources: Vec<Box<dyn FeedSource>>,
    releases: ReleaseLog,
    spans: Vec<FeedSpans>,
}

/// Wraps feed 0 in the generator's release schedule (and the trace's
/// spans when `traced`), any further feed in spans only.
fn wrap_feeds(inputs: &Inputs, traced: bool) -> Result<Feeds, String> {
    let mut spans = Vec::new();
    let mut feeds: Vec<Box<dyn FeedSource>> = Vec::new();
    let mrt = inputs.mrt_feed()?;
    let releases = if traced {
        let (timed, s) = TimedFeed::new(mrt);
        spans.push(s);
        let (paced, log) = PacedFeed::new(timed, inputs.pace);
        feeds.push(Box::new(paced));
        log
    } else {
        let (paced, log) = PacedFeed::new(mrt, inputs.pace);
        feeds.push(Box::new(paced));
        log
    };
    if let Some(public) = inputs.public_feed() {
        if traced {
            let (timed, s) = TimedFeed::new(public);
            spans.push(s);
            feeds.push(Box::new(timed));
        } else {
            feeds.push(Box::new(public));
        }
    }
    Ok(Feeds { sources: feeds, releases, spans })
}

/// Runs one repeat in `dir` (a fresh `durable/` is created inside it and
/// removed afterwards).
pub fn run_repeat(
    inputs: &mut Inputs,
    schedule: &Schedule,
    dir: &Path,
    traced: bool,
) -> Result<Repeat, String> {
    let kind = inputs.kind;
    let durable_dir = dir.join("durable");
    if durable_dir.exists() {
        std::fs::remove_dir_all(&durable_dir).map_err(|e| format!("clear durable dir: {e}"))?;
    }
    // The generator's own preparation (copying the scripted batches) is
    // not part of set-up.
    let Feeds { sources: feeds, releases, spans: feed_spans } = wrap_feeds(inputs, traced)?;
    let metrics = if traced { Metrics::enabled() } else { Metrics::disabled() };
    let sample_rss = !procfs::reset_peak_rss();
    let rss_before = procfs::rss_mib();

    let setup_started = Instant::now();
    let det = inputs.build_detector(0);
    let engine = if kind.durable() {
        let durable = DurableDetector::create(det, &durable_dir, DurableConfig::default())
            .map_err(|e| format!("create durable dir: {e}"))?;
        Engine::Durable(durable)
    } else {
        Engine::Plain(det)
    };
    let cpu_before = procfs::process_cpu_seconds();
    let spawned = Instant::now();
    let daemon = Daemon::spawn(engine, feeds, DaemonConfig { metrics, ..DaemonConfig::default() });
    let setup_s = setup_started.elapsed().as_secs_f64();

    let handle = daemon.handle();
    let mut server = None;
    let mut client = if kind.tcp() {
        let s = TcpServer::bind("127.0.0.1:0", handle.clone()).map_err(|e| format!("bind: {e}"))?;
        let client = TcpClient::connect(s.addr(), procfs::nproc().min(2))?;
        server = Some(s);
        Client::Tcp(client)
    } else {
        Client::in_process(handle.clone())
    };
    // `join` blocks until the feeds drain; a helper thread sits in it so
    // the instant it returns is exact while the generator keeps its pace.
    let joiner = std::thread::spawn(move || {
        let report = daemon.join();
        (report, Instant::now())
    });
    let drive_log = drive(&handle, &mut client, schedule, kind.query_rate(), sample_rss, &|| {
        joiner.is_finished()
    });
    let (report, joined) = joiner.join().map_err(|_| "join helper panicked".to_string())?;
    let cpu_after = procfs::process_cpu_seconds();
    let peak = if sample_rss { drive_log.sampled_peak_rss_mib } else { procfs::peak_rss_mib() };
    let peak_rss_mib = peak.zip(rss_before).map(|(peak, before)| (peak - before).max(0.0));
    drop(client);
    if let Some(mut s) = server {
        s.shutdown();
    }
    let report = report.map_err(|e| format!("daemon: {e}"))?;
    let metrics = traced.then(|| handle.metrics().snapshot());

    let (checkpoint, crc) = checkpoint_crc(report.engine.detector())?;
    let outcome = Outcome {
        rounds: report.rounds,
        updates: report.updates,
        public: report.public,
        signals: report.signals.len() as u64,
        digest: signal_digest(&report.signals),
        checkpoint_crc: crc,
    };

    // Restore from what the run left: the durable directory as a crash
    // would leave it (no final cut), or the final checkpoint bytes.
    let (topo, map, geo, alias) = inputs.env();
    let cfg = inputs.det_cfg(0);
    drop(report);
    let (restore_s, restored_crc) = if kind.durable() {
        let started = Instant::now();
        let reopened = DurableDetector::open(
            &durable_dir,
            topo,
            map,
            geo,
            alias,
            cfg,
            DurableConfig::default(),
        )
        .map_err(|e| format!("reopen durable dir: {e}"))?;
        let restore_s = started.elapsed().as_secs_f64();
        let crc = checkpoint_crc(reopened.detector())?.1;
        drop(reopened);
        std::fs::remove_dir_all(&durable_dir).map_err(|e| format!("remove durable dir: {e}"))?;
        (restore_s, crc)
    } else {
        let started = Instant::now();
        let restored = StalenessDetector::restore(&checkpoint[..], topo, map, geo, alias, cfg)
            .map_err(|e| format!("restore checkpoint: {e}"))?;
        let restore_s = started.elapsed().as_secs_f64();
        (restore_s, checkpoint_crc(&restored)?.1)
    };

    let releases = releases.lock().expect("release log poisoned").clone();
    let feed_lateness_ms = if inputs.pace.is_some() {
        releases.iter().map(|r| (r.released - r.due).as_secs_f64() * 1e3).collect()
    } else {
        Vec::new()
    };
    Ok(Repeat {
        setup_s,
        wall_s: (joined - spawned).as_secs_f64(),
        cpu_s: cpu_before.zip(cpu_after).map(|(a, b)| b - a),
        peak_rss_mib,
        restore_s,
        outcome,
        restored_crc,
        lags_ms: lags(&releases, &drive_log),
        feed_lateness_ms,
        drive: drive_log,
        spawned,
        joined,
        metrics,
        feed_spans,
    })
}
