//! The ingestion daemon: N feed threads, one merge/step thread, snapshot
//! publication on every epoch advance.
//!
//! Design (after the flashroute.rs reproduction's idiom): no locks on the
//! hot path — each feed hands batches over its own **rendezvous** channel
//! (a send completes only when the merge loop takes the batch), and the
//! single ingest thread owns the detector outright and steps it on that
//! thread. The only shared mutable state is the snapshot cell's pointer and
//! the metrics registry's atomics.
//!
//! ## Hand-off
//!
//! There is no queue between a feed and the merge loop. The merge loop
//! holds one batch per feed in `heads`; the feed thread builds the next one
//! while the engine steps, then blocks in `send` until `heads[i]` is free
//! again. That is double buffering, and it is all the read-ahead there is:
//! a feed is never more than two batches past what the engine has stepped
//! (one in `heads`, one in hand). Publish lag on a closed-loop replay is
//! (batches waiting + 1) × the engine's time per window, so a deeper queue
//! buys lag and no throughput once the engine is the slower side. A blocked
//! `send` is the backpressure, and `rrr_serve_backpressure_stalls_total`
//! counts the batches that were ready before the merge loop asked for them.
//!
//! ## Deterministic merge
//!
//! The ingest thread fills every open feed's head, takes the minimum
//! `now`, concatenates all heads at that instant in feed-index order, and
//! sorts the merged batch into canonical `(time, vp)` / `(time, probe)`
//! order before stepping the detector. Feed scheduling therefore cannot
//! influence the stream the detector sees: any split of a given input
//! across any number of feeds steps the detector through exactly
//! [`canonicalize`] of the original rounds,
//! which is what the serial-replay oracle checks.

use crate::feed::{canonical_sort, canonicalize, FeedBatch, FeedSource};
use crate::snapshot::{ServeHandle, SnapshotCell};
use rrr_core::{DetectorSnapshot, DurableDetector, Query, StalenessDetector, StalenessSignal};
use rrr_obs::{labeled, Counter, Gauge, Histogram, Metrics};
use rrr_types::Error;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;

/// The detector the daemon steps: bare, or wrapped in crash-safe
/// persistence (WAL + periodic checkpoints). Queries never see the
/// difference: either way the published snapshot is the wrapped
/// [`StalenessDetector`]'s. A step runs on the ingest thread alone — range
/// partitions ([`rrr_core::partition`]) measured slower than one serial
/// detector on every benchmarked input, so there is no partitioned arm.
// One Engine exists per daemon and it is moved once, into the ingest
// thread — the variant-size spread has no per-item or per-copy cost
// worth an indirection on every detector access.
#[allow(clippy::large_enum_variant)]
pub enum Engine {
    Plain(StalenessDetector),
    Durable(DurableDetector),
}

impl Engine {
    /// The wrapped detector.
    pub fn detector(&self) -> &StalenessDetector {
        match self {
            Engine::Plain(d) => d,
            Engine::Durable(d) => d.detector(),
        }
    }

    /// Mutable access to the wrapped detector.
    pub fn detector_mut(&mut self) -> &mut StalenessDetector {
        match self {
            Engine::Plain(d) => d,
            Engine::Durable(d) => d.detector_mut(),
        }
    }

    /// The engine's epoch (closed BGP windows).
    pub fn epoch(&self) -> u64 {
        self.detector().closed_bgp_windows()
    }

    /// A full queryable snapshot of the current state.
    pub fn snapshot(&self) -> DetectorSnapshot {
        self.detector().snapshot()
    }

    /// A snapshot that reuses `prev`'s unchanged indexes.
    fn snapshot_incremental(&self, prev: &DetectorSnapshot) -> DetectorSnapshot {
        self.detector().snapshot_incremental(prev)
    }

    fn step(&mut self, batch: &FeedBatch) -> Result<Vec<StalenessSignal>, Error> {
        match self {
            Engine::Plain(d) => Ok(d.step(batch.now, &batch.updates, &batch.public)),
            Engine::Durable(d) => {
                d.step(batch.now, &batch.updates, &batch.public).map_err(Error::from)
            }
        }
    }

    /// Installs `metrics` on the wrapped engine: detector counters for a
    /// plain engine, detector + store counters for a durable one.
    pub fn set_metrics(&mut self, metrics: &Metrics) {
        match self {
            Engine::Plain(d) => d.set_metrics(metrics),
            Engine::Durable(d) => d.set_metrics(metrics),
        }
    }
}

/// Daemon tuning knobs. The default keeps no snapshots and reports nowhere.
#[derive(Debug, Clone, Default)]
pub struct DaemonConfig {
    /// Keep every published snapshot in the final [`IngestReport`]
    /// (harness oracles replay against them). Off for production use —
    /// it pins every epoch's snapshot in memory.
    pub record_snapshots: bool,
    /// Registry the daemon reports into: feed/ingest/query series here,
    /// plus everything the wrapped engine registers. Disabled by default —
    /// a disabled handle is a no-op on every hot path.
    pub metrics: Metrics,
}

/// What crosses the hand-off: a batch, or the error that ended the feed.
type FeedMsg = Result<FeedBatch, Error>;

/// Per-feed series, labeled `feed="i"`.
struct FeedObs {
    batches: Counter,
    updates: Counter,
    public: Counter,
    stalls: Counter,
}

impl FeedObs {
    fn new(m: &Metrics, feed: usize) -> Self {
        let l = format!("feed=\"{feed}\"");
        FeedObs {
            batches: m.counter(&labeled("rrr_serve_feed_batches_total", &l)),
            updates: m.counter(&labeled("rrr_serve_feed_updates_total", &l)),
            public: m.counter(&labeled("rrr_serve_feed_public_total", &l)),
            stalls: m.counter(&labeled("rrr_serve_backpressure_stalls_total", &l)),
        }
    }

    /// Hands `msg` to the merge loop with the wait made visible: if the
    /// merge loop is not already waiting for this feed, that is one stall
    /// (the feed had to wait for the engine) before the blocking send.
    /// Returns `false` when the receiver is gone.
    fn send(&self, tx: &SyncSender<FeedMsg>, msg: FeedMsg) -> bool {
        match tx.try_send(msg) {
            Ok(()) => true,
            Err(TrySendError::Full(msg)) => {
                self.stalls.inc();
                tx.send(msg).is_ok()
            }
            Err(TrySendError::Disconnected(_)) => false,
        }
    }
}

/// Ingest-thread series: merged rounds, publication progress, and stage
/// timings for the step and publish phases.
#[derive(Clone, Default)]
struct IngestObs {
    rounds: Counter,
    updates: Counter,
    public: Counter,
    snapshots: Counter,
    publish_epoch: Gauge,
    step_ns: Histogram,
    publish_ns: Histogram,
}

impl IngestObs {
    fn new(m: &Metrics) -> Self {
        IngestObs {
            rounds: m.counter("rrr_serve_rounds_total"),
            updates: m.counter("rrr_serve_updates_total"),
            public: m.counter("rrr_serve_public_total"),
            snapshots: m.counter("rrr_serve_snapshots_published_total"),
            publish_epoch: m.gauge("rrr_serve_publish_epoch"),
            step_ns: m.histogram("rrr_serve_step_ns"),
            publish_ns: m.histogram("rrr_serve_publish_ns"),
        }
    }
}

/// What the ingest thread hands back once every feed is drained.
pub struct IngestReport {
    /// The engine, final state intact (checkpointable, queryable).
    pub engine: Engine,
    /// Merged rounds stepped.
    pub rounds: u64,
    /// BGP updates ingested across all feeds.
    pub updates: u64,
    /// Public traceroutes ingested across all feeds.
    pub public: u64,
    /// Every snapshot published (only when
    /// [`DaemonConfig::record_snapshots`] was set; the initial snapshot is
    /// not included — entries correspond to epoch advances).
    pub snapshots: Vec<Arc<DetectorSnapshot>>,
    /// Signals emitted, in stream order.
    pub signals: Vec<StalenessSignal>,
}

/// A running daemon: feed threads plus the merge/step thread, with a
/// cloneable in-process query handle.
pub struct Daemon {
    handle: ServeHandle,
    ingest: JoinHandle<Result<IngestReport, Error>>,
    feeds: Vec<JoinHandle<()>>,
}

impl Daemon {
    /// Starts one thread per feed and the merge/step thread. An initial
    /// snapshot is published immediately, so queries are answerable from
    /// the first instant (at the engine's starting epoch).
    pub fn spawn(mut engine: Engine, feeds: Vec<Box<dyn FeedSource>>, cfg: DaemonConfig) -> Daemon {
        engine.set_metrics(&cfg.metrics);
        let cell = Arc::new(SnapshotCell::new(Arc::new(engine.snapshot())));
        let handle = ServeHandle::new(Arc::clone(&cell), cfg.metrics.clone());

        let mut feed_threads = Vec::with_capacity(feeds.len());
        let mut rxs: Vec<Receiver<FeedMsg>> = Vec::with_capacity(feeds.len());
        for (i, mut src) in feeds.into_iter().enumerate() {
            let (tx, rx) = sync_channel::<FeedMsg>(0);
            rxs.push(rx);
            let obs = FeedObs::new(&cfg.metrics, i);
            feed_threads.push(
                std::thread::Builder::new()
                    .name(format!("rrr-feed-{i}"))
                    .spawn(move || loop {
                        match src.next_batch() {
                            // A closed receiver means the merge loop bailed
                            // (error path); just stop producing.
                            Ok(Some(b)) => {
                                obs.batches.inc();
                                obs.updates.add(b.updates.len() as u64);
                                obs.public.add(b.public.len() as u64);
                                if !obs.send(&tx, Ok(b)) {
                                    break;
                                }
                            }
                            Ok(None) => break,
                            Err(e) => {
                                let _ = obs.send(&tx, Err(e));
                                break;
                            }
                        }
                    })
                    .expect("spawn feed thread"),
            );
        }

        let ingest_obs = IngestObs::new(&cfg.metrics);
        let ingest = std::thread::Builder::new()
            .name("rrr-ingest".into())
            .spawn(move || ingest_loop(engine, rxs, cell, cfg.record_snapshots, ingest_obs))
            .expect("spawn ingest thread");

        Daemon { handle, ingest, feeds: feed_threads }
    }

    /// The in-process query handle (cloneable; outlives the daemon).
    pub fn handle(&self) -> ServeHandle {
        self.handle.clone()
    }

    /// Waits for every feed to drain and the final state to settle.
    pub fn join(self) -> Result<IngestReport, Error> {
        for t in self.feeds {
            let _ = t.join();
        }
        match self.ingest.join() {
            Ok(r) => r,
            Err(_) => Err(Error::feed("ingest thread panicked")),
        }
    }
}

fn ingest_loop(
    mut engine: Engine,
    rxs: Vec<Receiver<FeedMsg>>,
    cell: Arc<SnapshotCell>,
    record_snapshots: bool,
    obs: IngestObs,
) -> Result<IngestReport, Error> {
    let n = rxs.len();
    let mut heads: Vec<Option<FeedBatch>> = (0..n).map(|_| None).collect();
    let mut open: Vec<bool> = vec![true; n];
    let mut published = engine.epoch();
    // The last published snapshot, kept so the next publish can reuse its
    // unchanged indexes instead of rebuilding them (the cell's initial
    // snapshot seeds the chain).
    let mut prev = cell.load();
    let mut rounds = 0u64;
    let mut updates = 0u64;
    let mut public = 0u64;
    let mut snapshots = Vec::new();
    let mut signals = Vec::new();
    loop {
        // Fill every open feed's head (blocking: feed clocks only advance
        // together, which keeps the merge deterministic under any thread
        // scheduling).
        for i in 0..rxs.len() {
            if open[i] && heads[i].is_none() {
                match rxs[i].recv() {
                    Ok(Ok(b)) => heads[i] = Some(b),
                    Ok(Err(e)) => return Err(e),
                    Err(_) => open[i] = false,
                }
            }
        }
        // Merge every head at the minimum instant, in feed-index order.
        let Some(now) = heads.iter().flatten().map(|b| b.now).min() else { break };
        let mut merged = FeedBatch::tick(now);
        for h in heads.iter_mut() {
            if h.as_ref().is_some_and(|b| b.now == now) {
                let b = h.take().expect("checked some");
                merged.updates.extend(b.updates);
                merged.public.extend(b.public);
            }
        }
        canonical_sort(&mut merged);

        updates += merged.updates.len() as u64;
        public += merged.public.len() as u64;
        rounds += 1;
        obs.rounds.inc();
        obs.updates.add(merged.updates.len() as u64);
        obs.public.add(merged.public.len() as u64);

        let step_span = obs.step_ns.span();
        signals.extend(engine.step(&merged)?);
        drop(step_span);

        let epoch = engine.epoch();
        if epoch > published {
            // Incremental capture: only entries touched since `prev` are
            // re-copied; unchanged prefix/ASN summaries are shared. The
            // serial-replay oracle compares these publishes against full
            // captures, so the reuse is continuously checked.
            let publish_span = obs.publish_ns.span();
            let snap = Arc::new(engine.snapshot_incremental(&prev));
            prev = Arc::clone(&snap);
            cell.publish(Arc::clone(&snap));
            drop(publish_span);
            obs.snapshots.inc();
            obs.publish_epoch.set(epoch as i64);
            published = epoch;
            if record_snapshots {
                snapshots.push(snap);
            }
        }
    }
    Ok(IngestReport { engine, rounds, updates, public, snapshots, signals })
}

/// The ground-truth serial replay: steps a fresh batch detector through
/// [`canonicalize`] of the original rounds, capturing a snapshot at every
/// epoch advance — the exact rule the daemon publishes under. The oracle
/// compares daemon-published snapshots against these, index by index.
pub fn replay_reference(
    mut det: StalenessDetector,
    steps: &[FeedBatch],
) -> (StalenessDetector, Vec<Arc<DetectorSnapshot>>) {
    let mut snapshots = Vec::new();
    let mut published = det.closed_bgp_windows();
    for b in canonicalize(steps) {
        let _ = det.step(b.now, &b.updates, &b.public);
        let epoch = det.epoch();
        if epoch > published {
            snapshots.push(Arc::new(det.snapshot()));
            published = epoch;
        }
    }
    (det, snapshots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feed::{split_rounds, ScriptedFeed};
    use rrr_core::DetectorBuilder;
    use rrr_types::{AsPath, Asn, BgpElem, BgpUpdate, Prefix, Timestamp, VpId};

    type Env = (
        Arc<rrr_topology::Topology>,
        rrr_ip2as::IpToAsMap,
        rrr_geo::Geolocator,
        rrr_ip2as::AliasResolver,
    );

    fn tiny_env() -> Env {
        let topo = Arc::new(rrr_topology::generate(&rrr_topology::TopologyConfig::small(3)));
        let mut map = rrr_ip2as::IpToAsMap::new();
        for i in 0..4u32 {
            map.add_origin(
                format!("10.{i}.0.0/16").parse::<Prefix>().expect("prefix"),
                Asn(100 + i),
            );
        }
        let alias = rrr_ip2as::AliasResolver::from_topology(&topo, 1.0, 0);
        let geo = rrr_geo::Geolocator::new(rrr_geo::GeoDb::default(), vec![]);
        (topo, map, geo, alias)
    }

    fn tiny_builder() -> DetectorBuilder {
        DetectorBuilder::new().seed(11)
    }

    fn tiny_detector() -> StalenessDetector {
        let (topo, map, geo, alias) = tiny_env();
        tiny_builder().build(topo, map, geo, alias, (0..4).map(VpId).collect())
    }

    fn upd(vp: u32, t: u64, third: u8) -> BgpUpdate {
        BgpUpdate {
            time: Timestamp(t),
            vp: VpId(vp),
            prefix: format!("10.{third}.0.0/16").parse().expect("prefix"),
            elem: BgpElem::Announce {
                path: AsPath::from_asns([100 + vp, 200 + third as u32]),
                communities: vec![rrr_types::Community::new(100 + vp, third as u32)],
            },
        }
    }

    /// Five rounds of updates spread over four VPs and three prefixes.
    fn scripted_rounds() -> Vec<FeedBatch> {
        (1..=5u64)
            .map(|r| {
                let base = r * 900;
                FeedBatch {
                    now: Timestamp(base),
                    updates: (0..4u32)
                        .flat_map(|vp| {
                            (0..3u8).map(move |third| {
                                upd(vp, base - 900 + 10 * vp as u64 + third as u64, third)
                            })
                        })
                        .collect(),
                    public: Vec::new(),
                }
            })
            .collect()
    }

    fn assert_same_answers(a: &DetectorSnapshot, b: &DetectorSnapshot) {
        assert_eq!(a.epoch(), b.epoch());
        assert_eq!(a.corpus_summary(), b.corpus_summary());
        assert_eq!(a.monitor_stats(), b.monitor_stats());
        assert_eq!(a.plan(4), b.plan(4));
        // Repeatability: planning from a snapshot never perturbs it.
        assert_eq!(a.plan(4), a.plan(4));
    }

    #[test]
    fn daemon_matches_serial_replay_at_every_epoch() {
        let steps = scripted_rounds();
        let (_, reference) = replay_reference(tiny_detector(), &steps);
        assert!(!reference.is_empty(), "rounds must close windows");
        for n in [1usize, 2, 8] {
            let feeds: Vec<Box<dyn FeedSource>> = split_rounds(&steps, n)
                .into_iter()
                .map(|b| Box::new(ScriptedFeed::new(b)) as Box<dyn FeedSource>)
                .collect();
            let daemon = Daemon::spawn(
                Engine::Plain(tiny_detector()),
                feeds,
                DaemonConfig { record_snapshots: true, ..DaemonConfig::default() },
            );
            let handle = daemon.handle();
            let report = daemon.join().expect("drained");
            assert_eq!(report.rounds, steps.len() as u64, "n={n}");
            assert_eq!(report.snapshots.len(), reference.len(), "n={n}");
            for (got, want) in report.snapshots.iter().zip(&reference) {
                assert_same_answers(got, want);
            }
            // No corpus churn in this workload, so every incremental
            // publish must have shared the membership indexes of its
            // predecessor rather than rebuilding them.
            for pair in report.snapshots.windows(2) {
                assert!(pair[1].shares_indexes_with(&pair[0]), "indexes rebuilt, n={n}");
            }
            // The handle keeps serving the last published snapshot.
            assert_eq!(handle.epoch(), reference.last().expect("nonempty").epoch());
        }
    }

    #[test]
    fn daemon_signals_match_serial_replay() {
        let steps = scripted_rounds();
        let mut reference = tiny_detector();
        let mut want = Vec::new();
        for b in canonicalize(&steps) {
            want.extend(reference.step(b.now, &b.updates, &b.public));
        }
        let feeds: Vec<Box<dyn FeedSource>> = split_rounds(&steps, 3)
            .into_iter()
            .map(|b| Box::new(ScriptedFeed::new(b)) as Box<dyn FeedSource>)
            .collect();
        let daemon = Daemon::spawn(Engine::Plain(tiny_detector()), feeds, DaemonConfig::default());
        let report = daemon.join().expect("drained");
        assert_eq!(report.signals, want);
    }

    /// A corpus entry per destination prefix, so the durable daemon has
    /// monitor state to checkpoint.
    fn corpus_tr(i: u32) -> rrr_types::Traceroute {
        use rrr_types::{Hop, Ipv4, ProbeId, TracerouteId};
        rrr_types::Traceroute {
            id: TracerouteId(1 + i as u64),
            probe: ProbeId(i),
            src: "10.0.0.200".parse::<Ipv4>().expect("ip"),
            dst: Ipv4::new(10, i as u8, 0, 1),
            time: Timestamp(0),
            hops: vec![
                Hop::responsive("10.0.0.2".parse::<Ipv4>().expect("ip")),
                Hop::responsive(Ipv4::new(10, i as u8, 0, 1)),
            ],
            reached: true,
        }
    }

    fn checkpoint_bytes(det: &StalenessDetector) -> Vec<u8> {
        let mut bytes = Vec::new();
        det.checkpoint(&mut bytes).expect("checkpoint");
        bytes
    }

    /// The daemon over a durable engine must publish snapshots and emit
    /// signals bit-identical to the serial replay of a plain detector,
    /// end in the same state, and leave a directory that reopens to it.
    #[test]
    fn durable_daemon_matches_serial_replay() {
        use rrr_core::DurableConfig;

        let steps = scripted_rounds();
        let with_corpus = || {
            let mut det = tiny_detector();
            for i in 1..4u32 {
                let _ = det.add_corpus(corpus_tr(i), None);
            }
            det
        };
        let (reference, want_snaps) = replay_reference(with_corpus(), &steps);
        assert!(!want_snaps.is_empty(), "rounds must close windows");
        let want_ck = checkpoint_bytes(&reference);

        let dir = std::env::temp_dir()
            .join(format!("rrr-serve-durable-daemon-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // A cut every second window, deltas kept however large: the run
        // leaves a delta chain and WAL records past its last frame.
        let cfg = DurableConfig {
            checkpoint_every_windows: 2,
            compact_size_ratio: 0,
            ..DurableConfig::default()
        };
        let durable = DurableDetector::create(with_corpus(), &dir, cfg.clone()).expect("create");
        let feeds: Vec<Box<dyn FeedSource>> = split_rounds(&steps, 2)
            .into_iter()
            .map(|b| Box::new(ScriptedFeed::new(b)) as Box<dyn FeedSource>)
            .collect();
        let daemon = Daemon::spawn(
            Engine::Durable(durable),
            feeds,
            DaemonConfig { record_snapshots: true, ..DaemonConfig::default() },
        );
        let report = daemon.join().expect("drained");
        assert_eq!(report.signals, reference.signal_log());
        assert_eq!(report.snapshots.len(), want_snaps.len());
        for (got, want) in report.snapshots.iter().zip(&want_snaps) {
            assert_same_answers(got, want);
        }
        assert_eq!(checkpoint_bytes(report.engine.detector()), want_ck, "final state");
        drop(report);
        assert!(dir.join("delta-00001.rrr").exists(), "the run must leave a delta chain");

        let (topo, map, geo, alias) = tiny_env();
        let det_cfg = tiny_builder().config().clone();
        let reopened =
            DurableDetector::open(&dir, topo, map, geo, alias, det_cfg, cfg).expect("reopen");
        assert_eq!(checkpoint_bytes(reopened.detector()), want_ck, "reopened state");
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn feed_error_surfaces_from_join() {
        struct FailingFeed(u32);
        impl FeedSource for FailingFeed {
            fn next_batch(&mut self) -> Result<Option<FeedBatch>, Error> {
                if self.0 == 0 {
                    return Err(Error::feed("collector unreachable"));
                }
                self.0 -= 1;
                Ok(Some(FeedBatch::tick(Timestamp(900 * (3 - self.0 as u64)))))
            }
        }
        let daemon = Daemon::spawn(
            Engine::Plain(tiny_detector()),
            vec![Box::new(FailingFeed(2))],
            DaemonConfig::default(),
        );
        let err = match daemon.join() {
            Err(e) => e,
            Ok(_) => panic!("feed failure must propagate"),
        };
        assert!(matches!(err, Error::Feed { .. }), "{err}");
    }
}
