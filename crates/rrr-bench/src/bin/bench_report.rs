//! Benchmark-trajectory harness: runs the detector hot-path suite with
//! serial-vs-parallel toggles and writes `BENCH_pipeline.json` so the perf
//! trajectory has machine-readable data points.
//!
//! Ops:
//! - `observe` / `observe_batch` at 1×/4×/16× update volume (one synthetic
//!   round ingested per iteration, window drained between iterations so
//!   only ingestion is timed), batch serial vs all host cores;
//! - `close_bgp_window` at 1×/4×/16× corpus scale (synthetic ⟨prefix, AS
//!   path⟩ groups; one observe round + one window close per iteration),
//!   serial (1 thread) vs all host cores;
//! - `detector_step_one_round` — the full pipeline round on the small
//!   simulated world, serial vs parallel;
//! - `plan_refresh` — §4.3.1 refresh planning over an accumulated signal
//!   log (single-threaded by design);
//! - `checkpoint` / `restore` — full-state serialization and recovery
//!   (`rrr-store` format) on world states grown over 6×/24×/96× rounds,
//!   with bytes-on-disk reported per row;
//! - `query_qps` — the `rrr-serve` daemon ingesting a scripted world
//!   stream over 2 concurrent feeds while reader threads hammer the
//!   epoch-snapshot handle with mixed queries; reports aggregate
//!   queries/sec (as `ns_per_iter` per query and `queries_per_sec` in the
//!   JSON) and verifies every published snapshot against a serial batch
//!   replay before accepting the number;
//! - `partition_observe` / `partition_close` — one world round ingested
//!   (and, for `_close`, its window closed) through an N-partition
//!   `rrr_core::partition::PartitionedDetector` at N = 1/2/4/8, each
//!   partition stepping on its own thread; speedups are relative to the
//!   N = 1 run. Recorded for comparison only: partitioning is not a
//!   deployment (see the `rrr_core::partition` module docs), so nothing
//!   gates on these rows;
//! - `weather_soak` (opt-in via `--soak`, absent from `EXPECTED_OPS`) —
//!   streams the full-scale diurnal weather regime ([`rrr_bench::weather`],
//!   ~100k-AS lazy world) through a fresh detector window by window and
//!   reports ns per window. Skipping without `--soak` is announced
//!   explicitly, never silent.
//!
//! Speedups are relative to the serial run of the same op/scale
//! (`observe_batch` is relative to per-update `observe`). On a single-core
//! host every speedup is ≈ 1×; the interesting numbers come from
//! multi-core CI hardware.
//!
//! `--quick` runs a short-measurement, scale-1 smoke pass. Both modes
//! verify the written report covers every expected op and exit nonzero
//! otherwise, so CI catches a silently dropped benchmark.

use criterion::{BatchSize, Criterion};
use rrr_bench::pipeline::{synth_bgp_monitors, synth_round, synth_round_sparse};
use rrr_bench::{World, WorldConfig};
use rrr_core::partition::{PartitionMap, PartitionedDetector};
use rrr_core::{DetectorConfig, Metrics, MetricsSnapshot, Query};
use rrr_serve::{
    replay_reference, split_rounds, Daemon, DaemonConfig, Engine, FeedBatch, FeedSource,
    ScriptedFeed, StalenessQuery,
};
use rrr_types::{Timestamp, Window};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Every op a complete report must contain; the post-write check fails the
/// run if any is absent from `BENCH_pipeline.json`.
const EXPECTED_OPS: &[&str] = &[
    "observe",
    "observe_batch",
    "close_bgp_window",
    "close_window_sparse_fullscan",
    "close_window_sparse_incremental",
    "detector_step_one_round",
    "plan_refresh",
    "checkpoint",
    "checkpoint_delta",
    "restore",
    "query_qps",
    "observe_metrics_overhead",
    "partition_observe",
    "partition_close",
];

struct Row {
    op: &'static str,
    scale: usize,
    threads: usize,
    ns_per_iter: f64,
    speedup: f64,
    /// Checkpoint size on disk for the persistence ops; 0 = not applicable.
    bytes_on_disk: u64,
    /// For `checkpoint_delta`: delta-frame bytes over full-snapshot bytes
    /// at ~1% churn; 0 = not applicable.
    delta_ratio: f64,
}

/// Times ingestion of one synthetic round. Between iterations (untimed)
/// the open window is closed so window-sample state doesn't accumulate
/// across samples; `batch` selects [`rrr_core::bgp_monitors::BgpMonitors::observe_batch`]
/// over the per-update serial loop.
fn measure_observe(c: &mut Criterion, scale: usize, threads: usize, batch: bool) -> f64 {
    let mut m = synth_bgp_monitors(scale);
    m.set_threads(threads);
    let m = RefCell::new(m);
    let round = RefCell::new(0u64);
    c.measure(|b| {
        b.iter_batched(
            || {
                let mut r = round.borrow_mut();
                *r += 1;
                let _ = m.borrow_mut().close_window(Window(*r), Timestamp(*r * 900), &|_, _| true);
                synth_round(scale, *r)
            },
            |updates| {
                let mut m = m.borrow_mut();
                if batch {
                    m.observe_batch(&updates);
                } else {
                    for u in &updates {
                        m.observe(u);
                    }
                }
            },
            BatchSize::LargeInput,
        )
    })
}

fn measure_close(c: &mut Criterion, scale: usize, threads: usize) -> f64 {
    let mut m = synth_bgp_monitors(scale);
    m.set_threads(threads);
    let mut round = 0u64;
    c.measure(|b| {
        b.iter(|| {
            round += 1;
            for u in synth_round(scale, round) {
                m.observe(&u);
            }
            std::hint::black_box(
                m.close_window(Window(round), Timestamp(round * 900), &|_, _| true),
            )
        })
    })
}

/// Times one sparse round (≈1% of groups churn) plus its window close,
/// after warming to steady state. With `incremental` the quiet groups have
/// parked and the close visits only the churned few; without it the close
/// scans every group — the full-scan baseline the incremental path is
/// measured against (same workload, same run).
fn measure_close_sparse(c: &mut Criterion, scale: usize, incremental: bool) -> f64 {
    let mut m = synth_bgp_monitors(scale);
    m.set_threads(1);
    m.set_incremental(incremental);
    let mut round = 0u64;
    for _ in 0..12 {
        round += 1;
        for u in synth_round_sparse(scale, round, 10) {
            m.observe(&u);
        }
        let _ = m.close_window(Window(round), Timestamp(round * 900), &|_, _| true);
    }
    c.measure(|b| {
        b.iter(|| {
            round += 1;
            for u in synth_round_sparse(scale, round, 10) {
                m.observe(&u);
            }
            std::hint::black_box(
                m.close_window(Window(round), Timestamp(round * 900), &|_, _| true),
            )
        })
    })
}

/// Grows a world detector over `6 × scale` rounds, lets it settle into the
/// parked steady state over quiet windows, establishes a park-preserving
/// full base ([`rrr_core::StalenessDetector::checkpoint_base`]), runs one
/// window in which ~1% of announced prefixes churn, and cuts a delta
/// frame. Returns (delta-encode ns, delta bytes, full-base bytes): the
/// bytes ratio is the churn-proportionality acceptance number.
fn measure_delta_bytes(c: &mut Criterion, scale: usize) -> (f64, u64, u64) {
    let mut world = World::new(WorldConfig::small(5));
    let mut det = world.build_detector(DetectorConfig::default());
    for tr in world.platform.anchoring_round(&world.engine, Timestamp::ZERO) {
        let src_asn = world.topo.asn_of(world.platform.probe(tr.probe).asx);
        det.add_corpus(tr, Some(src_asn));
    }
    let grown = 6 * scale as u64;
    for r in 1..=grown {
        let t = Timestamp(r * 900);
        let updates = world.engine.advance_to(t);
        let public = world.platform.random_round(&world.engine, t, 80);
        let _ = det.step(t, &updates, &public);
    }
    // Quiet tail: input-free windows drain series buffers and let every
    // inert group park.
    for r in grown + 1..=grown + 8 {
        let t = Timestamp(r * 900);
        let _ = world.engine.advance_to(t);
        let _ = det.step(t, &[], &[]);
    }

    let mut base = Vec::new();
    det.checkpoint_base(&mut base).expect("full base to memory");

    // One ~1%-churn window: keep only the updates of 1 in 100 announced
    // prefixes, no public traceroutes.
    let t = Timestamp((grown + 9) * 900);
    let raw = world.engine.advance_to(t);
    let mut prefixes: Vec<rrr_types::Prefix> = raw.iter().map(|u| u.prefix).collect();
    prefixes.sort_unstable();
    prefixes.dedup();
    let keep = (prefixes.len() / 100).max(1);
    let kept: std::collections::HashSet<rrr_types::Prefix> =
        prefixes.into_iter().step_by(100).take(keep).collect();
    let updates: Vec<_> = raw.into_iter().filter(|u| kept.contains(&u.prefix)).collect();
    let _ = det.step(t, &updates, &[]);

    let mut delta = Vec::new();
    det.checkpoint_delta(&mut delta).expect("delta to memory");
    let delta_ns = c.measure(|b| {
        b.iter(|| {
            let mut buf = Vec::new();
            det.checkpoint_delta(&mut buf).expect("delta to memory");
            std::hint::black_box(buf.len())
        })
    });
    (delta_ns, delta.len() as u64, base.len() as u64)
}

fn measure_step(c: &mut Criterion, threads: usize) -> f64 {
    c.measure(|b| {
        b.iter_batched(
            || {
                let mut world = World::new(WorldConfig::small(5));
                let mut det =
                    world.build_detector(DetectorConfig { threads, ..DetectorConfig::default() });
                for tr in world.platform.anchoring_round(&world.engine, Timestamp::ZERO) {
                    let src_asn = world.topo.asn_of(world.platform.probe(tr.probe).asx);
                    det.add_corpus(tr, Some(src_asn));
                }
                let t = Timestamp(900);
                let updates = world.engine.advance_to(t);
                let public = world.platform.random_round(&world.engine, t, 80);
                (det, updates, public)
            },
            |(mut det, updates, public)| {
                std::hint::black_box(det.step(Timestamp(900), &updates, &public))
            },
            criterion::BatchSize::LargeInput,
        )
    })
}

fn measure_plan_refresh(c: &mut Criterion) -> f64 {
    let mut world = World::new(WorldConfig::small(5));
    let mut det = world.build_detector(DetectorConfig::default());
    for tr in world.platform.anchoring_round(&world.engine, Timestamp::ZERO) {
        let src_asn = world.topo.asn_of(world.platform.probe(tr.probe).asx);
        det.add_corpus(tr, Some(src_asn));
    }
    for r in 1..=96u64 {
        let t = Timestamp(r * 900);
        let updates = world.engine.advance_to(t);
        let public = world.platform.random_round(&world.engine, t, 80);
        let _ = det.step(t, &updates, &public);
    }
    c.measure(|b| b.iter(|| std::hint::black_box(det.plan_refresh(32))))
}

/// Builds a world-backed detector whose state grew over `6 × scale` rounds,
/// then times a full-state checkpoint and a restore from the resulting
/// bytes. The restore environment (IP-to-AS map, geo, alias) is rebuilt
/// per iteration (untimed) from a same-seed world, which is deterministic
/// and therefore identical to the environment the checkpoint came from.
/// Returns (checkpoint ns, restore ns, checkpoint size in bytes).
fn measure_checkpoint_restore(c: &mut Criterion, scale: usize) -> (f64, f64, u64) {
    let mut world = World::new(WorldConfig::small(5));
    let mut det = world.build_detector(DetectorConfig::default());
    for tr in world.platform.anchoring_round(&world.engine, Timestamp::ZERO) {
        let src_asn = world.topo.asn_of(world.platform.probe(tr.probe).asx);
        det.add_corpus(tr, Some(src_asn));
    }
    for r in 1..=(6 * scale as u64) {
        let t = Timestamp(r * 900);
        let updates = world.engine.advance_to(t);
        let public = world.platform.random_round(&world.engine, t, 80);
        let _ = det.step(t, &updates, &public);
    }

    let ckpt_ns = c.measure(|b| {
        b.iter(|| {
            let mut buf = Vec::new();
            det.checkpoint(&mut buf).expect("checkpoint to memory");
            std::hint::black_box(buf.len())
        })
    });
    let mut bytes = Vec::new();
    det.checkpoint(&mut bytes).expect("checkpoint to memory");
    let size = bytes.len() as u64;

    // Fresh same-seed world: its pre-advance RIB snapshot matches the one
    // the checkpointed detector was built against.
    let env_world = World::new(WorldConfig::small(5));
    let restore_ns = c.measure(|b| {
        b.iter_batched(
            || env_world.detector_env(),
            |(map, geo, alias)| {
                std::hint::black_box(
                    rrr_core::StalenessDetector::restore(
                        &bytes[..],
                        std::sync::Arc::clone(&env_world.topo),
                        map,
                        geo,
                        alias,
                        DetectorConfig::default(),
                    )
                    .expect("restore"),
                )
            },
            BatchSize::LargeInput,
        )
    });
    (ckpt_ns, restore_ns, size)
}

/// Builds, from a fixed-seed world, the anchored detector plus the
/// scripted feed rounds the serving benchmark ingests. Called twice (once
/// for the daemon, once for the serial reference); the world is fully
/// seed-deterministic, so both calls produce identical state and input.
fn serve_fixture(rounds: u64) -> (rrr_core::StalenessDetector, Vec<FeedBatch>) {
    let mut world = World::new(WorldConfig::small(7));
    let mut det = world.build_detector(DetectorConfig::default());
    for tr in world.platform.anchoring_round(&world.engine, Timestamp::ZERO) {
        let src_asn = world.topo.asn_of(world.platform.probe(tr.probe).asx);
        det.add_corpus(tr, Some(src_asn));
    }
    let mut batches = Vec::new();
    for r in 1..=rounds {
        let t = Timestamp(r * 900);
        let updates = world.engine.advance_to(t);
        let public = world.platform.random_round(&world.engine, t, 40);
        batches.push(FeedBatch { now: t, updates, public });
    }
    (det, batches)
}

/// Runs the serving daemon over a 2-feed split of a scripted world stream
/// while `readers` threads issue mixed queries against the epoch-snapshot
/// handle, then verifies every published snapshot against a serial batch
/// replay. Returns (aggregate queries/sec, reader count, total queries,
/// metrics snapshot carrying the per-query-type latency histograms).
/// Exits nonzero on any epoch regression or replay divergence — a fast
/// wrong answer is not a benchmark result.
fn measure_query_qps(quick: bool, host_threads: usize) -> (f64, usize, u64, MetricsSnapshot) {
    let rounds = if quick { 24 } else { 96 };
    let (ref_det, batches) = serve_fixture(rounds);
    let (_, ref_snaps) = replay_reference(ref_det, &batches);

    let (det, batches) = serve_fixture(rounds);
    let sources: Vec<Box<dyn FeedSource>> = split_rounds(&batches, 2)
        .into_iter()
        .map(|b| Box::new(ScriptedFeed::new(b)) as Box<dyn FeedSource>)
        .collect();
    let metrics = Metrics::enabled();
    let daemon = Daemon::spawn(
        Engine::Plain(det),
        sources,
        DaemonConfig { channel_capacity: 2, record_snapshots: true, metrics: metrics.clone() },
    );
    let handle = daemon.handle();

    let readers = host_threads.clamp(1, 4);
    let stop = Arc::new(AtomicBool::new(false));
    let started = std::time::Instant::now();
    let mut threads = Vec::new();
    for rdr in 0..readers {
        let handle = handle.clone();
        let stop = Arc::clone(&stop);
        threads.push(std::thread::spawn(move || -> Result<u64, String> {
            let mut answered = 0u64;
            let mut last_epoch = 0u64;
            let mut i = rdr as u64;
            while !stop.load(Ordering::Acquire) {
                let snap = handle.snapshot();
                let q = match i % 4 {
                    0 => StalenessQuery::CorpusSummary,
                    1 => StalenessQuery::MonitorStats,
                    2 => StalenessQuery::RefreshPlan { budget: 8 },
                    _ => {
                        let ids = snap.ids();
                        if ids.is_empty() {
                            StalenessQuery::CorpusSummary
                        } else {
                            StalenessQuery::IsStale(ids[(i as usize) % ids.len()])
                        }
                    }
                };
                let resp = handle.query(&q);
                if resp.epoch < last_epoch {
                    return Err(format!(
                        "epoch went backwards under load: {last_epoch} then {}",
                        resp.epoch
                    ));
                }
                last_epoch = resp.epoch;
                answered += 1;
                i += 1;
            }
            Ok(answered)
        }));
    }

    let report = daemon.join().expect("serve daemon ingests cleanly");
    stop.store(true, Ordering::Release);
    let elapsed = started.elapsed().as_secs_f64();
    let mut total = 0u64;
    for t in threads {
        match t.join().expect("reader thread") {
            Ok(n) => total += n,
            Err(e) => {
                eprintln!("query_qps reader failed: {e}");
                std::process::exit(1);
            }
        }
    }

    if report.snapshots.len() != ref_snaps.len() {
        eprintln!(
            "query_qps: daemon published {} snapshots, serial replay captured {}",
            report.snapshots.len(),
            ref_snaps.len()
        );
        std::process::exit(1);
    }
    for (got, want) in report.snapshots.iter().zip(&ref_snaps) {
        let diverged = got.epoch() != want.epoch()
            || got.corpus_summary() != want.corpus_summary()
            || got.monitor_stats() != want.monitor_stats()
            || got.plan(32) != want.plan(32);
        if diverged {
            eprintln!("query_qps: snapshot at epoch {} diverges from serial replay", got.epoch());
            std::process::exit(1);
        }
    }

    (total as f64 / elapsed.max(1e-9), readers, total, metrics.snapshot())
}

/// One replayable window of BGP updates for the partition rows:
/// `rounds[j]` holds exactly window `j`'s updates. Pre-generated so the
/// timed loop never pays generation cost; iterations past the period
/// replay with shifted timestamps.
const PARTITION_PERIOD: u64 = 48;
/// Announcements per corpus prefix per window. The raw small-world rounds
/// rarely touch a corpus prefix (unregistered updates are dropped on a
/// hash miss), which would leave the rows measuring thread dispatch
/// instead of monitor work — so the partition workload is synthesized
/// over the corpus's own registered prefixes, with the same
/// repeat-majority / deviate-minority mix as `synth_round`.
const PARTITION_UPDATES_PER_GROUP: u32 = 48;

fn partition_rounds(
    world: &World,
    prefixes: &[rrr_types::Prefix],
) -> Vec<Vec<rrr_types::BgpUpdate>> {
    let vps: Vec<rrr_types::VpId> = world.engine.vps().iter().map(|v| v.id).collect();
    (0..PARTITION_PERIOD)
        .map(|j| {
            let mut out = Vec::with_capacity(prefixes.len() * PARTITION_UPDATES_PER_GROUP as usize);
            for (i, &p) in prefixes.iter().enumerate() {
                for k in 0..PARTITION_UPDATES_PER_GROUP {
                    let vp = vps[(k as usize + j as usize + i) % vps.len()];
                    let path = if (i as u64 + j + k as u64).is_multiple_of(9) {
                        vec![100 + k, 7777, 3000 + i as u32 % 7]
                    } else {
                        vec![100 + k, 20 + i as u32 % 5, 3000 + i as u32 % 7]
                    };
                    out.push(rrr_types::BgpUpdate {
                        time: Timestamp(j * 900 + (i as u64 * 37 + k as u64 * 13) % 899),
                        vp,
                        prefix: p,
                        elem: rrr_types::BgpElem::Announce {
                            path: rrr_types::AsPath::from_asns(path),
                            communities: vec![rrr_types::Community::new(20, 50_000 + k)],
                        },
                    });
                }
            }
            out.sort_by_key(|u| u.time);
            out
        })
        .collect()
}

fn restamped(base: &[Vec<rrr_types::BgpUpdate>], round: u64) -> Vec<rrr_types::BgpUpdate> {
    let off = (round / PARTITION_PERIOD) * PARTITION_PERIOD * 900;
    base[(round % PARTITION_PERIOD) as usize]
        .iter()
        .map(|u| {
            let mut u = u.clone();
            u.time = Timestamp(u.time.0 + off);
            u
        })
        .collect::<Vec<_>>()
}

/// Builds an N-partition deployment over the small world's anchoring
/// corpus plus its replayable update rounds. Split points sit at corpus
/// destination-prefix quantiles so every partition owns a comparable
/// slice of the key range (for N = 1 this is the unpartitioned baseline).
fn partition_fixture(n: usize) -> (PartitionedDetector, Vec<Vec<rrr_types::BgpUpdate>>) {
    let mut world = World::new(WorldConfig::small(5));
    let corpus: Vec<(rrr_types::Traceroute, rrr_types::Asn)> = world
        .platform
        .anchoring_round(&world.engine, Timestamp::ZERO)
        .into_iter()
        .map(|tr| {
            let asn = world.topo.asn_of(world.platform.probe(tr.probe).asx);
            (tr, asn)
        })
        .collect();
    let (ip2as, _, _) = world.detector_env();
    let mut prefixes: Vec<rrr_types::Prefix> =
        corpus.iter().filter_map(|(tr, _)| ip2as.most_specific_prefix(tr.dst)).collect();
    prefixes.sort_unstable();
    prefixes.dedup();
    let map = if n == 1 {
        PartitionMap::even(1)
    } else {
        let bases: Vec<u32> = prefixes.iter().map(|p| p.network().value()).collect();
        let (lo, hi) =
            (bases[0] as u64, *bases.last().expect("anchoring corpus is nonempty") as u64 + 1);
        let mut splits: Vec<u32> =
            (1..n as u64).map(|k| (lo + k * (hi - lo) / n as u64) as u32).collect();
        splits.dedup();
        splits.retain(|&s| s > 0);
        PartitionMap::from_splits(splits).expect("quantile split points are valid")
    };
    let rib = world.rib_seed();
    let mut pd = PartitionedDetector::from_factory(map, |_| {
        world.build_detector_unseeded(DetectorConfig::default())
    });
    pd.set_parallel(n > 1);
    pd.init_rib(&rib);
    for (tr, asn) in corpus {
        let _ = pd.add_corpus(tr, Some(asn));
    }
    let rounds = partition_rounds(&world, &prefixes);
    (pd, rounds)
}

/// Times partition-parallel ingestion of one world round of BGP updates
/// (updates only: the public feed is broadcast to every partition by
/// design, so including it would measure replication, not scaling). The
/// round's window close happens untimed in the next iteration's setup,
/// mirroring `measure_observe`; `close` moves the window close into the
/// timed step, mirroring `measure_close`. `metrics` is installed on the
/// facade before warm-up, so the same function measures the instrumented
/// and the uninstrumented loop (the `observe_metrics_overhead` row).
fn measure_partition(c: &mut Criterion, n: usize, close: bool, metrics: &Metrics) -> f64 {
    let (mut pd, rounds) = partition_fixture(n);
    pd.set_metrics(metrics);
    // Warm up: ingest and close a few rounds so group state is realistic.
    let mut r = 0u64;
    for _ in 0..4 {
        let updates = restamped(&rounds, r);
        let _ = pd.step(Timestamp((r + 1) * 900 - 1), &updates, &[]);
        let _ = pd.step(Timestamp((r + 1) * 900), &[], &[]);
        r += 1;
    }
    let pd = RefCell::new(pd);
    let round = RefCell::new(r);
    c.measure(|b| {
        b.iter_batched(
            || {
                let mut r = round.borrow_mut();
                if !close {
                    // Close the previously ingested window, untimed.
                    let _ = pd.borrow_mut().step(Timestamp(*r * 900), &[], &[]);
                }
                let updates = restamped(&rounds, *r);
                let now =
                    if close { Timestamp((*r + 1) * 900) } else { Timestamp((*r + 1) * 900 - 1) };
                *r += 1;
                (now, updates)
            },
            |(now, updates)| std::hint::black_box(pd.borrow_mut().step(now, &updates, &[]).len()),
            BatchSize::LargeInput,
        )
    })
}

/// Opt-in weather-soak row: streams the full-scale diurnal regime through
/// a fresh detector and returns (ns per window, windows, updates fed,
/// signals emitted, chains materialized). Exits nonzero if the instrument
/// emits no signals at all — a silent soak is a broken soak.
fn measure_weather_soak(quick: bool, threads: usize) -> (f64, u64, u64, usize, usize) {
    use rrr_bench::weather::{Regime, WeatherScale, WeatherWorld, WINDOW_SECS};
    let windows: u64 = if quick { 24 } else { 96 };
    let regime = Regime::by_name("diurnal").expect("diurnal is a built-in family");
    let mut world = WeatherWorld::new(regime, WeatherScale::full(), 1);
    let mut det = world.build_detector(threads);
    let started = std::time::Instant::now();
    let mut updates_fed = 0u64;
    let mut signals = 0usize;
    for w in 0..windows {
        let (updates, _) = world.advance(w);
        updates_fed += updates.len() as u64;
        signals += det.step(Timestamp((w + 1) * WINDOW_SECS), &updates, &[]).len();
    }
    let ns = started.elapsed().as_nanos() as f64 / windows as f64;
    if signals == 0 {
        eprintln!(
            "weather_soak: {windows} full-scale windows emitted no signals — instrument dead"
        );
        std::process::exit(1);
    }
    (ns, windows, updates_fed, signals, world.materialized_chains())
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let soak = std::env::args().any(|a| a == "--soak");
    let host_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let measurement = Duration::from_millis(if quick { 60 } else { 400 });
    let mut c = Criterion::default().measurement_time(measurement);
    let mut rows: Vec<Row> = Vec::new();
    let scales: &[usize] = if quick { &[1] } else { &[1, 4, 16] };

    for &scale in scales {
        let serial = measure_observe(&mut c, scale, 1, false);
        rows.push(Row {
            op: "observe",
            scale,
            threads: 1,
            ns_per_iter: serial,
            speedup: 1.0,
            bytes_on_disk: 0,
            delta_ratio: 0.0,
        });
        let batch1 = measure_observe(&mut c, scale, 1, true);
        rows.push(Row {
            op: "observe_batch",
            scale,
            threads: 1,
            ns_per_iter: batch1,
            speedup: serial / batch1,
            bytes_on_disk: 0,
            delta_ratio: 0.0,
        });
        if host_threads > 1 {
            let par = measure_observe(&mut c, scale, host_threads, true);
            rows.push(Row {
                op: "observe_batch",
                scale,
                threads: host_threads,
                ns_per_iter: par,
                speedup: serial / par,
                bytes_on_disk: 0,
                delta_ratio: 0.0,
            });
        }
        eprintln!("observe/observe_batch {scale}x done");
    }

    for &scale in scales {
        let serial = measure_close(&mut c, scale, 1);
        rows.push(Row {
            op: "close_bgp_window",
            scale,
            threads: 1,
            ns_per_iter: serial,
            speedup: 1.0,
            bytes_on_disk: 0,
            delta_ratio: 0.0,
        });
        if host_threads > 1 {
            let par = measure_close(&mut c, scale, host_threads);
            rows.push(Row {
                op: "close_bgp_window",
                scale,
                threads: host_threads,
                ns_per_iter: par,
                speedup: serial / par,
                bytes_on_disk: 0,
                delta_ratio: 0.0,
            });
        }
        eprintln!("close_bgp_window {scale}x done");
    }

    // Sparse-churn close: the incremental dirty-set path against the
    // full-scan baseline on the same ~1%-churn workload in the same run.
    let mut sparse_speedup_at_max_scale = 0.0;
    for &scale in scales {
        let fullscan = measure_close_sparse(&mut c, scale, false);
        rows.push(Row {
            op: "close_window_sparse_fullscan",
            scale,
            threads: 1,
            ns_per_iter: fullscan,
            speedup: 1.0,
            bytes_on_disk: 0,
            delta_ratio: 0.0,
        });
        let incremental = measure_close_sparse(&mut c, scale, true);
        let speedup = fullscan / incremental;
        rows.push(Row {
            op: "close_window_sparse_incremental",
            scale,
            threads: 1,
            ns_per_iter: incremental,
            speedup,
            bytes_on_disk: 0,
            delta_ratio: 0.0,
        });
        sparse_speedup_at_max_scale = speedup;
        eprintln!("close_window_sparse {scale}x done (incremental {speedup:.1}x vs full scan)");
    }

    let step_serial = measure_step(&mut c, 1);
    rows.push(Row {
        op: "detector_step_one_round",
        scale: 1,
        threads: 1,
        ns_per_iter: step_serial,
        speedup: 1.0,
        bytes_on_disk: 0,
        delta_ratio: 0.0,
    });
    if host_threads > 1 {
        let step_par = measure_step(&mut c, host_threads);
        rows.push(Row {
            op: "detector_step_one_round",
            scale: 1,
            threads: host_threads,
            ns_per_iter: step_par,
            speedup: step_serial / step_par,
            bytes_on_disk: 0,
            delta_ratio: 0.0,
        });
    }
    eprintln!("detector_step_one_round done");

    let plan = measure_plan_refresh(&mut c);
    rows.push(Row {
        op: "plan_refresh",
        scale: 1,
        threads: 1,
        ns_per_iter: plan,
        speedup: 1.0,
        bytes_on_disk: 0,
        delta_ratio: 0.0,
    });
    eprintln!("plan_refresh done");

    for &scale in scales {
        let (ckpt, restore, bytes) = measure_checkpoint_restore(&mut c, scale);
        rows.push(Row {
            op: "checkpoint",
            scale,
            threads: 1,
            ns_per_iter: ckpt,
            speedup: 1.0,
            bytes_on_disk: bytes,
            delta_ratio: 0.0,
        });
        rows.push(Row {
            op: "restore",
            scale,
            threads: 1,
            ns_per_iter: restore,
            speedup: 1.0,
            bytes_on_disk: bytes,
            delta_ratio: 0.0,
        });
        eprintln!("checkpoint/restore {scale}x done ({bytes} bytes on disk)");
    }

    // Delta checkpoint at ~1% churn: frame size must stay a small fraction
    // of the full base it applies to.
    let mut worst_delta_ratio: f64 = 0.0;
    for &scale in scales {
        let (delta_ns, delta_bytes, full_bytes) = measure_delta_bytes(&mut c, scale);
        let ratio = delta_bytes as f64 / full_bytes as f64;
        worst_delta_ratio = worst_delta_ratio.max(ratio);
        rows.push(Row {
            op: "checkpoint_delta",
            scale,
            threads: 1,
            ns_per_iter: delta_ns,
            speedup: 1.0,
            bytes_on_disk: delta_bytes,
            delta_ratio: ratio,
        });
        eprintln!(
            "checkpoint_delta {scale}x done ({delta_bytes} of {full_bytes} bytes, {:.1}% of full)",
            ratio * 100.0
        );
    }

    let (qps, readers, answered, query_snap) = measure_query_qps(quick, host_threads);
    rows.push(Row {
        op: "query_qps",
        scale: 1,
        threads: readers,
        ns_per_iter: 1e9 / qps.max(1e-9),
        speedup: 1.0,
        bytes_on_disk: 0,
        delta_ratio: 0.0,
    });
    // Per-query-type latency from the serve-side histograms
    // (`rrr_serve_query_ns{query="..."}`); rides along on the query_qps
    // row as `query_latency_ns`. Empty histograms would mean the metrics
    // plumbing silently broke — fail rather than report a hollow row.
    let query_latency: Vec<serde_json::Value> =
        ["corpus_summary", "monitor_stats", "refresh_plan", "is_stale"]
            .iter()
            .filter_map(|t| {
                let h = query_snap.histogram(&format!("rrr_serve_query_ns{{query=\"{t}\"}}"))?;
                if h.count == 0 {
                    return None;
                }
                eprintln!(
                    "query_qps latency {t}: p50 {} ns, p99 {} ns, max {} ns over {} queries",
                    h.p50, h.p99, h.max, h.count
                );
                Some(serde_json::json!({
                    "query": t,
                    "count": h.count,
                    "p50_ns": h.p50,
                    "p99_ns": h.p99,
                    "max_ns": h.max,
                }))
            })
            .collect();
    if query_latency.is_empty() {
        eprintln!("query_qps recorded no per-query latency histograms — serve metrics broke");
        std::process::exit(1);
    }
    eprintln!("query_qps done ({qps:.0} queries/sec, {answered} answered by {readers} readers)");

    // Metrics-overhead gate: the instrumented observe+close loop (the N=1
    // partition facade, so detector *and* partition series are all live)
    // must cost at most 5% over the same loop uninstrumented. The
    // uninstrumented case runs twice: if the two baselines disagree by
    // more than 5%, this host cannot resolve a 5% overhead and the gate
    // is skipped explicitly — never passed vacuously on noise.
    let off_a = measure_partition(&mut c, 1, true, &Metrics::disabled());
    let off_b = measure_partition(&mut c, 1, true, &Metrics::disabled());
    let overhead_reg = Metrics::enabled();
    let on_ns = measure_partition(&mut c, 1, true, &overhead_reg);
    let overhead_snap = overhead_reg.snapshot();
    if overhead_snap.counter("rrr_partition_steps_total") == 0
        || overhead_snap.counter_family("rrr_detector_bgp_updates_total") == 0
    {
        eprintln!("observe_metrics_overhead: instrumented run recorded nothing — wiring broke");
        std::process::exit(1);
    }
    let overhead_base = off_a.min(off_b);
    let baseline_spread = (off_a - off_b).abs() / overhead_base;
    let overhead_ratio = on_ns / overhead_base;
    rows.push(Row {
        op: "observe_metrics_overhead",
        scale: 1,
        threads: 1,
        ns_per_iter: on_ns,
        speedup: overhead_base / on_ns,
        bytes_on_disk: 0,
        delta_ratio: 0.0,
    });
    eprintln!(
        "observe_metrics_overhead done ({overhead_ratio:.3}x vs best-of-2 baseline, \
         baseline spread {:.1}%)",
        baseline_spread * 100.0
    );
    if baseline_spread > 0.05 {
        eprintln!(
            "observe_metrics_overhead gate skipped: baseline runs disagree by {:.1}% (> 5%), \
             the host is too noisy to resolve a 5% overhead gate",
            baseline_spread * 100.0
        );
    } else if overhead_ratio > 1.05 {
        eprintln!(
            "observe_metrics_overhead: instrumented loop is {overhead_ratio:.3}x the \
             uninstrumented baseline (gate: <= 1.05x)"
        );
        std::process::exit(1);
    }

    // Partition scaling: N cooperating detector partitions stepping in
    // parallel. `threads` carries the partition count; speedups are
    // relative to the N = 1 baseline of the same op.
    let partition_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4, 8] };
    for &close in &[false, true] {
        let op = if close { "partition_close" } else { "partition_observe" };
        let mut baseline = 0.0;
        for &n in partition_counts {
            let ns = measure_partition(&mut c, n, close, &Metrics::disabled());
            if n == 1 {
                baseline = ns;
            }
            let speedup = baseline / ns;
            rows.push(Row {
                op,
                scale: 1,
                threads: n,
                ns_per_iter: ns,
                speedup,
                bytes_on_disk: 0,
                delta_ratio: 0.0,
            });
            eprintln!("{op} N={n} done ({speedup:.2}x vs N=1)");
        }
    }
    // Weather soak, opt-in: the full-scale regime row is minutes of work
    // multiplied across CI shards, so it only runs when asked for — and
    // says so when it doesn't, instead of passing vacuously.
    if soak {
        let (ns, windows, updates_fed, signals, chains) = measure_weather_soak(quick, host_threads);
        rows.push(Row {
            op: "weather_soak",
            scale: 1,
            threads: host_threads,
            ns_per_iter: ns,
            speedup: 1.0,
            bytes_on_disk: 0,
            delta_ratio: 0.0,
        });
        eprintln!(
            "weather_soak done ({windows} windows, {updates_fed} updates, {signals} signals, \
             {chains} chains materialized, {:.2} windows/sec)",
            1e9 / ns
        );
    } else {
        eprintln!("weather_soak skipped: pass --soak to run the full-scale weather regime row");
    }

    let entries: Vec<serde_json::Value> = rows
        .iter()
        .map(|r| {
            serde_json::json!({
                "op": r.op,
                "scale": r.scale,
                "threads": r.threads,
                "host_threads": host_threads,
                "ns_per_iter": r.ns_per_iter,
                "speedup": r.speedup,
                "bytes_on_disk": r.bytes_on_disk,
                "queries_per_sec": if r.op == "query_qps" { 1e9 / r.ns_per_iter } else { 0.0 },
                "query_latency_ns": if r.op == "query_qps" {
                    query_latency.clone()
                } else {
                    Vec::new()
                },
                "delta_ratio": r.delta_ratio,
            })
        })
        .collect();
    let report = serde_json::json!({
        "host_threads": host_threads,
        "results": entries,
    });
    let body = serde_json::to_string_pretty(&report).expect("serializable");
    std::fs::write("BENCH_pipeline.json", &body).expect("write BENCH_pipeline.json");

    for r in &rows {
        println!(
            "{:<28} scale {:>2}x  threads {:>2}  {:>14.0} ns/iter  speedup {:.2}x",
            r.op, r.scale, r.threads, r.ns_per_iter, r.speedup
        );
    }
    println!("\n[report saved to BENCH_pipeline.json]");

    // Self-check against the file as written, not the in-memory rows (the
    // vendored serde_json has no parser, so match the serialized op keys).
    let written = std::fs::read_to_string("BENCH_pipeline.json").expect("read report back");
    let missing: Vec<&&str> =
        EXPECTED_OPS.iter().filter(|op| !written.contains(&format!("\"op\": \"{op}\""))).collect();
    if !missing.is_empty() {
        eprintln!("BENCH_pipeline.json is missing expected ops: {missing:?}");
        std::process::exit(1);
    }

    // Churn-proportionality gates. The byte ratio is timing-independent,
    // so it holds in both modes; the close speedup is only gated on the
    // full-length run at the largest scale, where timing noise is small.
    if worst_delta_ratio > 0.10 {
        eprintln!(
            "checkpoint_delta at ~1% churn is {:.1}% of the full snapshot (gate: <= 10%)",
            worst_delta_ratio * 100.0
        );
        std::process::exit(1);
    }
    if !quick && sparse_speedup_at_max_scale < 5.0 {
        eprintln!(
            "incremental sparse close at {}x is only {sparse_speedup_at_max_scale:.1}x over the \
             full-scan baseline (gate: >= 5x)",
            scales.last().expect("nonempty scales")
        );
        std::process::exit(1);
    }
}
