//! The traced run: one workload once more with the program's `rrr-obs`
//! registry enabled and benchmark-owned spans around every layer
//! boundary, plus offline passes that time each layer's public functions
//! alone over the same inputs. Spans are kept in memory and written to
//! `trace-<workload>.json` when the run ends.
//!
//! Nothing here is inside the program: every number is a stopwatch around
//! a call into a public function, or a busy sum the program already
//! exposes through `ServeHandle::metrics()`.

use crate::defs::{Layer, PER_LAYER};
use crate::feeds::SerialMerge;
use crate::gate::{checkpoint_crc, signal_digest, Outcome};
use crate::inputs::{Inputs, Kind};
use crate::load::{kind_of, Client, Schedule, TcpClient, PLAN_BUDGET};
use crate::measure::check_repeats;
use crate::procfs;
use crate::run::{run_repeat, Repeat};
use crate::stats;
use rrr_core::{
    DurableConfig, DurableDetector, Metrics, MetricsSnapshot, StalenessDetector, StepRecord,
};
use rrr_serve::{
    answer, canonical_sort, wire, Daemon, DaemonConfig, Engine, FeedBatch, FeedSource,
    ScriptedFeed, StalenessQuery, TcpServer,
};
use rrr_store::WalWriter;
use rrr_types::Timestamp;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::fs::File;
use std::hint::black_box;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One per-layer value.
#[derive(Debug, Clone)]
pub struct LayerValue {
    pub def: &'static Layer,
    pub value: f64,
}

/// What a traced run produced.
pub struct Traced {
    pub kind: Kind,
    pub values: Vec<LayerValue>,
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub trace_path: PathBuf,
}

struct Span {
    name: String,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
    /// Position of the batch in its feed (feed spans only).
    window: Option<u64>,
    /// Items the call yielded (feed spans only).
    items: Option<u64>,
}

/// The in-memory span log. A span's self time is its duration minus the
/// part of it its children cover.
struct Spans {
    t0: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn push(
        &mut self,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span { name: name.into(), start, end, parent, window: None, items: None });
        self.spans.len() - 1
    }

    /// Times `f` as a child of the root span; returns its value and seconds.
    fn timed<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.push(name, start, end, Some(0));
        (out, (end - start).as_secs_f64())
    }

    fn to_json(&self, kind: Kind, seed: u64) -> Value {
        let ns = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as f64;
        let spans: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                json!({
                    "id": id as u64,
                    "name": s.name.clone(),
                    "start_ns": ns(s.start),
                    "end_ns": ns(s.end),
                    "parent": s.parent.map(|p| p as u64),
                    "window": s.window,
                    "items": s.items
                })
            })
            .collect();
        json!({
            "workload": kind.name(),
            "seed": seed,
            "note": "times are ns since the trace began; self time = span minus its children",
            "spans": Value::Array(spans)
        })
    }
}

fn err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// Every merged round of the workload, in canonical order, plus the
/// seconds `canonical_sort` took over all of them.
fn merged_rounds(inputs: &Inputs) -> Result<(Vec<FeedBatch>, f64), String> {
    let mut merge = SerialMerge::new(inputs.plain_feeds()?);
    let mut rounds = Vec::new();
    let mut sort_s = 0.0;
    while let Some(mut b) = merge.next_merged().map_err(|e| err("merge", e))? {
        let t = Instant::now();
        canonical_sort(&mut b);
        sort_s += t.elapsed().as_secs_f64();
        rounds.push(b);
    }
    Ok((rounds, sort_s))
}

fn total_items(rounds: &[FeedBatch]) -> f64 {
    rounds.iter().map(|b| b.updates.len() + b.public.len()).sum::<usize>() as f64
}

/// Seconds to step `rounds` through anything with a `step`.
fn replay_seconds(
    rounds: &[FeedBatch],
    mut step: impl FnMut(&FeedBatch) -> Result<usize, String>,
) -> Result<(f64, usize), String> {
    let mut signals = 0;
    let t = Instant::now();
    for b in rounds {
        signals += step(b)?;
    }
    Ok((t.elapsed().as_secs_f64(), signals))
}

fn hist_seconds(m: &MetricsSnapshot, name: &str) -> (f64, u64) {
    m.histogram(name).map_or((0.0, 0), |h| (h.sum as f64 / 1e9, h.count))
}

/// Mean nanoseconds of `f` over `iters` calls.
fn mean_ns(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / iters.max(1) as f64
}

/// The durable directory's on-disk chain, loaded with the public restore
/// calls: seconds for the full snapshot plus every delta frame. The file
/// names are `rrr_core::persist`'s layout (`checkpoint.rrr`,
/// `delta-NNNNN.rrr`); if that changes this fails loudly, not quietly.
fn load_chain_seconds(dir: &Path, inputs: &mut Inputs) -> Result<f64, String> {
    let mut deltas: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| err("read durable dir", e))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.starts_with("delta-")))
        .collect();
    deltas.sort();
    let (topo, map, geo, alias) = inputs.env();
    let cfg = inputs.det_cfg(0);
    let t = Instant::now();
    let full = File::open(dir.join("checkpoint.rrr")).map_err(|e| err("open full snapshot", e))?;
    let mut det = StalenessDetector::restore(BufReader::new(full), topo, map, geo, alias, cfg)
        .map_err(|e| err("restore full snapshot", e))?;
    for d in &deltas {
        let f = File::open(d).map_err(|e| err("open delta frame", e))?;
        det.apply_delta(BufReader::new(f)).map_err(|e| err("apply delta frame", e))?;
    }
    black_box(&det);
    Ok(t.elapsed().as_secs_f64())
}

/// Store-layer numbers from a serial replay through a `DurableDetector`
/// with the registry enabled, then a reopen of what it left.
fn store_pass(
    inputs: &mut Inputs,
    rounds: &[FeedBatch],
    scratch: &Path,
    v: &mut BTreeMap<&'static str, f64>,
) -> Result<f64, String> {
    let items = total_items(rounds);
    let dir = scratch.join("offline-durable");
    let metrics = Metrics::enabled();
    let mut durable =
        DurableDetector::create(inputs.build_detector(0), &dir, DurableConfig::default())
            .map_err(|e| err("create durable dir", e))?;
    durable.set_metrics(&metrics);
    let (replay_s, _) = replay_seconds(rounds, |b| {
        durable.step(b.now, &b.updates, &b.public).map(|s| s.len()).map_err(|e| err("step", e))
    })?;
    // As a crash would leave it: no final cut.
    drop(durable);
    let m = metrics.snapshot();
    let (full_s, full_n) = hist_seconds(&m, "rrr_store_checkpoint_full_ns");
    let (delta_s, delta_n) = hist_seconds(&m, "rrr_store_checkpoint_delta_ns");
    let full_bytes = m.counter("rrr_store_checkpoint_full_bytes_total") as f64;
    let delta_bytes = m.counter("rrr_store_checkpoint_delta_bytes_total") as f64;
    let per = |total: f64, n: u64| if n == 0 { 0.0 } else { total / n as f64 };
    v.insert("store.checkpoint_full_ms", per(full_s * 1e3, full_n));
    v.insert(
        "store.checkpoint_full_mb",
        per(full_bytes / 1e6, m.counter("rrr_store_checkpoint_full_total")),
    );
    v.insert("store.checkpoint_delta_ms", per(delta_s * 1e3, delta_n));
    v.insert(
        "store.checkpoint_delta_mb",
        per(delta_bytes / 1e6, m.counter("rrr_store_checkpoint_delta_total")),
    );
    // Frames kept: a delta that came out too large is discarded for a
    // full cut, and shows only in the delta timings.
    let kept = m.counter("rrr_store_checkpoint_full_total")
        + m.counter("rrr_store_checkpoint_delta_total");
    v.insert("store.checkpoints_cut", kept as f64);
    let written = m.counter("rrr_wal_bytes_total") as f64 + full_bytes + delta_bytes;
    v.insert("store.bytes_written_per_window", written / rounds.len().max(1) as f64);

    let load_s = load_chain_seconds(&dir, inputs)?;
    let (topo, map, geo, alias) = inputs.env();
    let t = Instant::now();
    let reopened = DurableDetector::open(
        &dir,
        topo,
        map,
        geo,
        alias,
        inputs.det_cfg(0),
        DurableConfig::default(),
    )
    .map_err(|e| err("reopen durable dir", e))?;
    let open_s = t.elapsed().as_secs_f64();
    drop(reopened);
    std::fs::remove_dir_all(&dir).map_err(|e| err("remove durable dir", e))?;
    v.insert("store.restore_load_ms", load_s * 1e3);
    v.insert("store.restore_replay_ms", (open_s - load_s).max(0.0) * 1e3);

    // WAL append alone: what `DurableDetector::step` does before it steps.
    let wal_path = scratch.join("offline.wal");
    let file = File::create(&wal_path).map_err(|e| err("create WAL file", e))?;
    let mut wal = WalWriter::new(BufWriter::new(file));
    let mut wal_bytes = 0usize;
    let t = Instant::now();
    for b in rounds {
        let rec =
            StepRecord { now: b.now, bgp_updates: b.updates.to_vec(), public: b.public.to_vec() };
        let payload = rrr_store::to_payload(&rec).map_err(|e| err("encode step record", e))?;
        wal_bytes += payload.len() + 8;
        wal.append(&payload).map_err(|e| err("append step record", e))?;
    }
    let wal_s = t.elapsed().as_secs_f64();
    drop(wal);
    std::fs::remove_file(&wal_path).map_err(|e| err("remove WAL file", e))?;
    v.insert("store.wal_append_ns_per_item", wal_s * 1e9 / items.max(1.0));
    v.insert("store.wal_bytes_per_item", wal_bytes as f64 / items.max(1.0));
    Ok(replay_s)
}

/// Query, wire and TCP layers against the final state of `det`.
fn serve_passes(
    det: StalenessDetector,
    schedule: &Schedule,
    v: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let snap = det.snapshot();
    let by_kind = |kind: &str| -> Vec<&StalenessQuery> {
        schedule.queries().iter().filter(|q| kind_of(q) == kind).take(256).collect()
    };
    let mut answer_ns = |name: &'static str, kind: &str, iters: usize, scale: f64| {
        let qs = by_kind(kind);
        let ns = mean_ns(iters, |i| {
            black_box(answer(&snap, qs[i % qs.len()]));
        });
        v.insert(name, ns / scale);
    };
    answer_ns("query.is_stale_ns", "is_stale", 20_000, 1.0);
    answer_ns("query.refresh_plan_us", "refresh_plan", 40, 1e3);
    answer_ns("query.prefix_summary_ns", "prefix_summary", 5_000, 1.0);
    answer_ns("query.as_summary_ns", "as_summary", 2_000, 1.0);
    answer_ns("query.corpus_summary_ns", "corpus_summary", 500, 1.0);
    let monitor_stats = StalenessQuery::MonitorStats;
    let ns = mean_ns(5_000, |_| {
        black_box(answer(&snap, &monitor_stats));
    });
    v.insert("query.monitor_stats_ns", ns);

    // The wire codec and the socket over three blocks of the schedule:
    // the exact mix, and few enough that a 40 ms round trip (Nagle against
    // delayed ACK) stays affordable.
    let sample: Vec<&StalenessQuery> = schedule.queries().iter().take(60).collect();
    let requests: Vec<String> = sample.iter().map(|q| wire::encode_request(q)).collect();
    let responses: Vec<_> = sample.iter().map(|q| answer(&snap, q)).collect();
    let decode_ns = mean_ns(requests.len() * 50, |i| {
        black_box(wire::decode_request(&requests[i % requests.len()]).is_ok());
    });
    let encode_ns = mean_ns(responses.len() * 50, |i| {
        black_box(wire::encode_response(&responses[i % responses.len()]));
    });
    v.insert("wire.decode_request_ns", decode_ns);
    v.insert("wire.encode_response_ns", encode_ns);
    let answer_mix_ns = mean_ns(sample.len() * 5, |i| {
        black_box(answer(&snap, sample[i % sample.len()]));
    });
    drop(snap);

    // One connection, closed loop, against an idle daemon holding the
    // same final state.
    let daemon = Daemon::spawn(
        Engine::Plain(det),
        vec![Box::new(ScriptedFeed::default()) as Box<dyn FeedSource>],
        DaemonConfig::default(),
    );
    let mut server = TcpServer::bind("127.0.0.1:0", daemon.handle()).map_err(|e| err("bind", e))?;
    let mut client = Client::Tcp(TcpClient::connect(server.addr(), 1)?);
    let mut failures = 0;
    let roundtrip_ns = mean_ns(sample.len(), |i| {
        if client.ask(sample[i]).is_err() {
            failures += 1;
        }
    });
    drop(client);
    server.shutdown();
    daemon.join().map_err(|e| err("idle daemon", e))?;
    if failures > 0 {
        return Err(format!("tcp.roundtrip_us: {failures} requests failed on an idle daemon"));
    }
    v.insert("tcp.roundtrip_us", roundtrip_ns / 1e3);
    v.insert(
        "tcp.overhead_us",
        (roundtrip_ns - answer_mix_ns - decode_ns - encode_ns).max(0.0) / 1e3,
    );
    Ok(())
}

/// Runs the traced repeat and every offline pass; writes the span file
/// under `out_root`.
pub fn traced_run(
    inputs: &mut Inputs,
    schedule: &Schedule,
    scratch: &Path,
    out_root: &Path,
) -> Result<Traced, String> {
    let kind = inputs.kind;
    let began = Instant::now();
    let mut spans = Spans { t0: began, spans: Vec::new() };
    spans.push("traced_run", began, began, None);
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut notes = Vec::new();

    // The daemon untraced, traced, untraced again: the traced wall over
    // the mean of its neighbours is the overhead (a lone first run is
    // cold and would flatter the trace).
    let (plain, _) =
        spans.timed("daemon.untraced", || run_repeat(inputs, schedule, scratch, false));
    let plain = plain?;
    let traced: Repeat = run_repeat(inputs, schedule, scratch, true)?;
    let (again, _) =
        spans.timed("daemon.untraced", || run_repeat(inputs, schedule, scratch, false));
    let again = again?;
    let daemon_span = spans.push("daemon.traced", traced.spawned, traced.joined, Some(0));
    let wall = traced.wall_s;
    for (feed, log) in traced.feed_spans.iter().enumerate() {
        for (k, s) in log.lock().expect("span log poisoned").iter().enumerate() {
            let id =
                spans.push(format!("feed{feed}.next_batch"), s.start, s.end, Some(daemon_span));
            spans.spans[id].window = Some(k as u64);
            spans.spans[id].items = Some(s.items as u64);
        }
    }
    for q in &traced.drive.spans {
        spans.push(format!("query.{}", q.kind), q.start, q.end, Some(daemon_span));
    }
    v.insert("trace.overhead_ratio", wall / ((plain.wall_s + again.wall_s) / 2.0));

    let m = traced.metrics.as_ref().ok_or("traced repeat carries no registry")?;
    let (step_busy_s, _) = hist_seconds(m, "rrr_serve_step_ns");
    let (publish_busy_s, _) = hist_seconds(m, "rrr_serve_publish_ns");
    v.insert("ingest.step_busy_share", step_busy_s / wall);
    v.insert("snapshot.publish_busy_share", publish_busy_s / wall);
    v.insert("ingest.wait_share", (1.0 - (step_busy_s + publish_busy_s) / wall).max(0.0));
    let stalls = m.counter_family("rrr_serve_backpressure_stalls_total");
    v.insert("feed.backpressure_stalls", stalls as f64);
    let items_in = m.counter_family("rrr_serve_feed_updates_total")
        + m.counter_family("rrr_serve_feed_public_total");
    v.insert("feed.items_in", items_in as f64);
    v.insert("feed.batches_out", m.counter_family("rrr_serve_feed_batches_total") as f64);
    for (feed, log) in traced.feed_spans.iter().enumerate() {
        let log = log.lock().expect("span log poisoned");
        let busy: f64 = log.iter().map(|s| (s.end - s.start).as_secs_f64()).sum();
        let alive = match (log.first(), log.last()) {
            (Some(a), Some(b)) => (b.end - a.start).as_secs_f64(),
            _ => 0.0,
        };
        let (busy_share, blocked_share) = (busy / wall, (alive - busy).max(0.0) / wall);
        notes.push(format!(
            "feed {feed}: busy {busy_share:.3}, blocked {blocked_share:.3} of wall \
             ({} next_batch calls)",
            log.len()
        ));
        // Feed 0 is the MRT feed on every workload.
        if feed == 0 {
            v.insert("feed.busy_share", busy_share);
            v.insert("feed.blocked_share", blocked_share);
        }
    }
    let p99 = |x: &[f64]| stats::percentile(x, 99.0).unwrap_or(0.0);
    v.insert("gen.feed_lateness_ms_p99", p99(&traced.feed_lateness_ms));
    v.insert("gen.query_lateness_ms_p99", p99(&traced.drive.lateness_ms));

    // rrr-mrt alone, then MrtFeed alone: the difference is batching.
    let mut stream = inputs.update_stream()?;
    let (decoded, decode_s) = spans.timed("offline.mrt_decode", || stream.by_ref().count());
    let decoded = decoded.max(1) as f64;
    v.insert("mrt.decode_ns_per_update", decode_s * 1e9 / decoded);
    v.insert("mrt.decode_mb_per_s", inputs.mrt_bytes as f64 / 1e6 / decode_s);
    v.insert("mrt.bytes_per_update", inputs.mrt_bytes as f64 / decoded);
    v.insert("mrt.decode_errors", if stream.finished_with.is_some() { 1.0 } else { 0.0 });
    let mut feed = inputs.mrt_feed()?;
    let (drained, batch_s) = spans.timed("offline.mrt_feed", || {
        let mut n = 0usize;
        while let Ok(Some(b)) = feed.next_batch() {
            n += black_box(b).updates.len();
        }
        n
    });
    if drained as f64 != decoded {
        return Err(format!("MrtFeed yielded {drained} updates, UpdateStream {decoded}"));
    }
    v.insert("feed.batch_self_ns_per_update", (batch_s - decode_s).max(0.0) * 1e9 / decoded);

    let (merged, _) = spans.timed("offline.merge_sort", || merged_rounds(inputs));
    let (rounds, sort_s) = merged?;
    let items = total_items(&rounds).max(1.0);
    let windows = rounds.len().max(1) as f64;
    v.insert("feed.sort_ns_per_item", sort_s * 1e9 / items);

    // The detector at the program's default configuration, publishing an
    // incremental snapshot per epoch as the daemon does. This pass is
    // also the gate's reference for the three daemon runs above.
    let mut det = inputs.build_detector(0);
    let mut prev = det.snapshot();
    let mut snapshot_s = 0.0;
    let (stepped, _) = spans.timed("offline.step", || {
        replay_seconds(&rounds, |b| {
            let n = det.step(b.now, &b.updates, &b.public).len();
            if det.closed_bgp_windows() > rrr_core::Query::epoch(&prev) {
                let t = Instant::now();
                prev = det.snapshot_incremental(&prev);
                snapshot_s += t.elapsed().as_secs_f64();
            }
            Ok(n)
        })
    });
    let (step_and_snapshot_s, signals) = stepped?;
    let step_s = step_and_snapshot_s - snapshot_s;
    v.insert("core.step_ns_per_item", step_s * 1e9 / items);
    v.insert("core.signals_per_window", signals as f64 / windows);
    v.insert("snapshot.incremental_us_per_window", snapshot_s * 1e6 / windows);
    let full_us: Vec<f64> =
        (0..5).map(|_| mean_ns(1, |_| drop(black_box(det.snapshot()))) / 1e3).collect();
    v.insert("snapshot.full_us", stats::median(&full_us).unwrap_or(0.0));
    let reference = Outcome {
        rounds: rounds.len() as u64,
        updates: rounds.iter().map(|b| b.updates.len() as u64).sum(),
        public: rounds.iter().map(|b| b.public.len() as u64).sum(),
        signals: det.signal_log().len() as u64,
        digest: signal_digest(det.signal_log()),
        checkpoint_crc: checkpoint_crc(&det)?.1,
    };
    let runs = [plain, traced, again];
    let attempted = runs.iter().map(|r| r.drive.attempted).sum();
    let failed = runs.iter().map(|r| r.drive.failed).sum();
    check_repeats(&reference, &runs)?;
    let plan_us: Vec<f64> = (0..5)
        .map(|_| mean_ns(1, |_| drop(black_box(det.plan_refresh(PLAN_BUDGET)))) / 1e3)
        .collect();
    v.insert("core.plan_refresh_us", stats::median(&plan_us).unwrap_or(0.0));

    // Observe and close apart: everything up to a second before the
    // window ends, then the close alone.
    let mut split = inputs.build_detector(0);
    let (mut observe_s, mut close_s, mut split_signals) = (0.0, 0.0, 0usize);
    let ((), _) = spans.timed("offline.step_split", || {
        for b in &rounds {
            let t = Instant::now();
            split_signals +=
                split.step(Timestamp(b.now.0.saturating_sub(1)), &b.updates, &b.public).len();
            observe_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            split_signals += split.step(b.now, &[], &[]).len();
            close_s += t.elapsed().as_secs_f64();
        }
    });
    drop(split);
    if split_signals == signals {
        v.insert("core.observe_ns_per_item", observe_s * 1e9 / items);
        v.insert("core.close_ms_per_window", close_s * 1e3 / windows);
    } else {
        notes.push(format!(
            "observe/close split emitted {split_signals} signals, the unsplit replay {signals}: \
             the split is not equivalent on this input; observe is reported as the whole step"
        ));
        v.insert("core.observe_ns_per_item", step_s * 1e9 / items);
        v.insert("core.close_ms_per_window", 0.0);
    }

    // The parallelism alternatives, same input, serial replay.
    let nproc = procfs::nproc();
    for (name, threads) in [("core.step_ns_per_item.t1", 1), ("core.step_ns_per_item.tN", nproc)] {
        let mut alt = inputs.build_detector(threads);
        let (r, _) = spans.timed(&format!("offline.step.threads{threads}"), || {
            replay_seconds(&rounds, |b| Ok(alt.step(b.now, &b.updates, &b.public).len()))
        });
        v.insert(name, r?.0 * 1e9 / items);
    }
    let mut parts = inputs.build_partitioned(2);
    let (r, _) = spans.timed("offline.step.partitions2", || {
        replay_seconds(&rounds, |b| Ok(parts.step(b.now, &b.updates, &b.public).len()))
    });
    v.insert("partition.step_ns_per_item.n2", r?.0 * 1e9 / items);
    drop(parts);

    let (store, _) = spans.timed("offline.store", || store_pass(inputs, &rounds, scratch, &mut v));
    let durable_replay_s = store?;
    let (served, _) = spans.timed("offline.serve", || serve_passes(det, schedule, &mut v));
    served?;

    // The slower of the two pipeline stages, each as measured alone, is
    // the critical path; wall beyond it is contention, synchronization
    // and (open loop) idling, which no layer's stopwatch covers.
    let store_s = if kind.durable() { (durable_replay_s - step_s).max(0.0) } else { 0.0 };
    let ingest_path_s = sort_s + step_s + snapshot_s + store_s;
    let critical_s = batch_s.max(ingest_path_s);
    v.insert("trace.unexplained_share", (1.0 - critical_s / wall).max(0.0));
    notes.push(format!(
        "critical path alone: feed {batch_s:.3} s, ingest {ingest_path_s:.3} s \
         (sort {sort_s:.3} + step {step_s:.3} + snapshot {snapshot_s:.3} + store {store_s:.3}); \
         traced wall {wall:.3} s on {nproc} threads"
    ));

    let now = Instant::now();
    spans.spans[0].end = now;
    std::fs::create_dir_all(out_root).map_err(|e| err("create output dir", e))?;
    let trace_path = out_root.join(format!("trace-{}.json", kind.name()));
    let text = serde_json::to_string_pretty(&spans.to_json(kind, inputs.seed))
        .map_err(|e| err("render trace", e))?;
    std::fs::write(&trace_path, text).map_err(|e| err("write trace", e))?;

    let values = PER_LAYER
        .iter()
        .map(|def| {
            let value = *v.get(def.name).ok_or_else(|| format!("{}: not produced", def.name))?;
            Ok(LayerValue { def, value })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Traced { kind, values, notes, attempted, failed, trace_path })
}
