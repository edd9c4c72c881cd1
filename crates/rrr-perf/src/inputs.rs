//! The four workloads and their seed-keyed inputs.
//!
//! Inputs are generated once per workload, before anything is timed: the
//! BGP side is encoded to an MRT file the daemon's [`MrtFeed`] reads back,
//! the public-traceroute side (mixed workload only) is kept as scripted
//! batches. The program under test receives nothing but these.

use crate::feeds::ChangeOnly;
use rrr_bench::weather::{Regime, WeatherScale, WeatherWorld};
use rrr_bench::{World, WorldConfig};
use rrr_core::{DetectorConfig, PartitionMap, PartitionedDetector, StalenessDetector};
use rrr_geo::Geolocator;
use rrr_ip2as::{AliasResolver, IpToAsMap};
use rrr_mrt::{MrtFileWriter, StreamFilter, UpdateStream, VpDirectory};
use rrr_serve::{FeedBatch, FeedSource, MrtFeed, ScriptedFeed};
use rrr_topology::Topology;
use rrr_types::{Asn, BgpUpdate, Duration, Prefix, Timestamp, Traceroute, TracerouteId};
use rrr_types::{VpId, WindowConfig};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The named workloads. Names are fixed: later issues refer to them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ReplayDense,
    ReplaySparseDurable,
    ReplayMixed2Feed,
    LivePacedTcp,
}

impl Kind {
    pub const ALL: [Kind; 4] =
        [Kind::ReplayDense, Kind::ReplaySparseDurable, Kind::ReplayMixed2Feed, Kind::LivePacedTcp];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ReplayDense => "replay_dense",
            Kind::ReplaySparseDurable => "replay_sparse_durable",
            Kind::ReplayMixed2Feed => "replay_mixed_2feed",
            Kind::LivePacedTcp => "live_paced_tcp",
        }
    }

    pub fn by_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether the daemon steps an `Engine::Durable` (WAL + checkpoints).
    pub fn durable(self) -> bool {
        matches!(self, Kind::ReplaySparseDurable | Kind::LivePacedTcp)
    }

    /// Whether queries travel over the TCP front end.
    pub fn tcp(self) -> bool {
        self == Kind::LivePacedTcp
    }

    /// Which percentile `query_us_tail` reads. In process, plans are the
    /// slow tenth of the mix: p95 sits mid-way through them, while p99
    /// rides on their dozen slowest and does not repeat. Over TCP reply
    /// times are quantised by the send interval — one interval for about
    /// 94 % of the requests, two for 5 %, more for the rest: p95 falls on
    /// the step between one and two (5.5-8 ms from run to run), p99 on
    /// the step after that and on every stall of the host; p97 sits in
    /// the middle of the two-interval plateau.
    pub fn tail_percentile(self) -> f64 {
        if self.tcp() {
            97.0
        } else {
            95.0
        }
    }

    /// Total query rate the generator offers, queries per second.
    pub fn query_rate(self) -> f64 {
        if self.tcp() {
            500.0
        } else {
            100.0
        }
    }
}

/// Input sizes. The standard sizes are the issue's shapes cut down so a
/// run (generate, repeats, reference replay) fits the driver's per-run
/// budget; the quick sizes are the CI smoke.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub quick: bool,
    /// `replay_dense`: BGP windows per repeat (one simulated day).
    pub dense_windows: u64,
    /// `replay_sparse_durable`: windows per repeat — ten checkpoint cuts
    /// at the default policy. The regime's event rates are corpus-wide, so
    /// at this corpus each window changes about a third of a percent of
    /// the sessions, deltas stay small, and the run ends on a chain of
    /// eight deltas whatever the seed. (Rates scaled up with the corpus
    /// put every third cut on the size-compaction threshold, and which
    /// side it fell depended on the seed: `restore_s` came out bimodal.)
    pub sparse_windows: u64,
    pub sparse_corpus: u32,
    /// `replay_mixed_2feed`: 15-minute rounds per repeat.
    pub mixed_rounds: u64,
    /// `live_paced_tcp`: windows per repeat and the release rate. Three
    /// seconds a repeat — one checkpoint cut, eight windows of WAL behind
    /// it — so a run holds eight or nine repeats and its medians survive
    /// two or three that met a stall of the host.
    pub live_windows: u64,
    pub live_windows_per_s: f64,
    /// Repeats a run makes at least, however long they take.
    pub min_repeats: usize,
}

impl Sizes {
    pub fn standard() -> Sizes {
        Sizes {
            quick: false,
            dense_windows: 96,
            sparse_windows: 160,
            sparse_corpus: 2048,
            mixed_rounds: 144,
            live_windows: 24,
            live_windows_per_s: 8.0,
            min_repeats: 3,
        }
    }

    pub fn quick() -> Sizes {
        Sizes {
            quick: true,
            dense_windows: 48,
            sparse_windows: 48,
            sparse_corpus: 96,
            mixed_rounds: 24,
            live_windows: 16,
            live_windows_per_s: 8.0,
            min_repeats: 1,
        }
    }
}

/// The measured environment a detector is wired to (input data, not
/// detector state): needed again whenever a checkpoint is restored.
pub type Env = (Arc<Topology>, IpToAsMap, Geolocator, AliasResolver);

/// Keys the query schedule draws from: what is actually in the corpus.
#[derive(Debug, Clone, Default)]
pub struct QueryKeys {
    pub ids: Vec<TracerouteId>,
    pub prefixes: Vec<Prefix>,
    pub asns: Vec<Asn>,
}

/// Where fresh detectors come from.
enum Source {
    Weather(Box<WeatherWorld>),
    /// A world held at t = 0 (never advanced), with the corpus and the
    /// IXP bootstrap sweep measured there.
    Mixed {
        world: Box<World>,
        boot: Vec<Traceroute>,
        corpus: Vec<(Traceroute, Asn)>,
    },
}

/// One workload's generated inputs.
pub struct Inputs {
    pub kind: Kind,
    pub seed: u64,
    source: Source,
    dir: VpDirectory,
    mrt_path: PathBuf,
    public: Vec<FeedBatch>,
    /// Windows (rounds) the input spans.
    pub windows: u64,
    pub updates: u64,
    pub public_items: u64,
    pub mrt_bytes: u64,
    /// Seconds spent generating (not a metric).
    pub gen_s: f64,
    pub keys: QueryKeys,
    /// Release interval of the open-loop feed; `None` = closed loop.
    pub pace: Option<std::time::Duration>,
}

fn io_err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// The mixed workload's topology and BGP event schedule are the same for
/// every `--seed`; the seed places the probes and anchors, so it decides
/// the corpus and every public traceroute (nine tenths of the items).
/// Event schedules of different seeds differ five-fold in BGP volume and
/// by two thirds in checkpoint size, which would be measured as noise.
const MIXED_WORLD_SEED: u64 = 1;

struct MrtOut {
    writer: MrtFileWriter<BufWriter<File>>,
    dir: VpDirectory,
    updates: u64,
}

impl MrtOut {
    fn create(path: &Path, vps: impl IntoIterator<Item = (VpId, Asn)>) -> Result<MrtOut, String> {
        let mut dir = VpDirectory::default();
        for (vp, asn) in vps {
            dir.register(vp, asn);
        }
        let file = File::create(path).map_err(|e| io_err("create MRT file", e))?;
        let mut writer = MrtFileWriter::new(BufWriter::new(file));
        writer.write_record(&dir.peer_index_record()).map_err(|e| io_err("write MRT", e))?;
        Ok(MrtOut { writer, dir, updates: 0 })
    }

    fn write(&mut self, updates: &[BgpUpdate]) -> Result<(), String> {
        for u in updates {
            self.writer.write_update(&self.dir, u).map_err(|e| io_err("write MRT", e))?;
        }
        self.updates += updates.len() as u64;
        Ok(())
    }

    fn finish(self) -> Result<(VpDirectory, u64), String> {
        self.writer.finish().map_err(|e| io_err("flush MRT", e))?;
        Ok((self.dir, self.updates))
    }
}

impl Inputs {
    /// Generates `kind`'s inputs from `seed` into `tmp`.
    pub fn generate(kind: Kind, seed: u64, sizes: &Sizes, tmp: &Path) -> Result<Inputs, String> {
        let started = Instant::now();
        let mrt_path = tmp.join(format!("{}.mrt", kind.name()));
        let mut inputs = match kind {
            Kind::ReplayDense => {
                Self::weather(kind, seed, sizes, sizes.dense_windows, false, mrt_path)?
            }
            Kind::LivePacedTcp => {
                Self::weather(kind, seed, sizes, sizes.live_windows, false, mrt_path)?
            }
            Kind::ReplaySparseDurable => {
                Self::weather(kind, seed, sizes, sizes.sparse_windows, true, mrt_path)?
            }
            Kind::ReplayMixed2Feed => Self::mixed(seed, sizes, mrt_path)?,
        };
        if kind == Kind::LivePacedTcp {
            inputs.pace = Some(std::time::Duration::from_secs_f64(1.0 / sizes.live_windows_per_s));
        }
        inputs.mrt_bytes =
            std::fs::metadata(&inputs.mrt_path).map_err(|e| io_err("stat MRT file", e))?.len();
        inputs.keys = inputs.query_keys();
        inputs.gen_s = started.elapsed().as_secs_f64();
        Ok(inputs)
    }

    fn weather(
        kind: Kind,
        seed: u64,
        sizes: &Sizes,
        windows: u64,
        change_only: bool,
        mrt_path: PathBuf,
    ) -> Result<Inputs, String> {
        let base = if sizes.quick { WeatherScale::small() } else { WeatherScale::full() };
        let scale =
            if change_only { WeatherScale { corpus: sizes.sparse_corpus, ..base } } else { base };
        let regime = Regime::by_name("diurnal").expect("diurnal is a built-in regime");
        let mut world = WeatherWorld::new(regime, scale, seed);
        let mut out = MrtOut::create(&mrt_path, world.vp_asns())?;
        let mut filter = change_only.then(|| ChangeOnly::seeded(&world.rib_seed()));
        for w in 0..windows {
            let (mut updates, _) = world.advance(w);
            if let Some(f) = filter.as_mut() {
                updates = f.filter(updates);
            }
            out.write(&updates)?;
        }
        let (dir, updates) = out.finish()?;
        Ok(Inputs {
            kind,
            seed,
            source: Source::Weather(Box::new(world)),
            dir,
            mrt_path,
            public: Vec::new(),
            windows,
            updates,
            public_items: 0,
            mrt_bytes: 0,
            gen_s: 0.0,
            keys: QueryKeys::default(),
            pace: None,
        })
    }

    fn mixed(seed: u64, sizes: &Sizes, mrt_path: PathBuf) -> Result<Inputs, String> {
        let mut cfg = if sizes.quick {
            WorldConfig::small(MIXED_WORLD_SEED)
        } else {
            WorldConfig::evaluation(MIXED_WORLD_SEED, Duration::days(14))
        };
        cfg.platform.seed = seed.wrapping_add(3);
        // One world stays at t = 0 for building detectors; a second,
        // identical one is advanced to produce the rounds.
        let mut origin = World::new(cfg.clone());
        let boot = origin.platform.topology_round(&origin.engine, Timestamp::ZERO);
        let mesh = origin.platform.anchoring_round(&origin.engine, Timestamp::ZERO);
        let corpus: Vec<(Traceroute, Asn)> = mesh
            .into_iter()
            .map(|tr| {
                let asn = origin.topo.asn_of(origin.platform.probe(tr.probe).asx);
                (tr, asn)
            })
            .collect();

        let mut world = World::new(cfg.clone());
        let vps = world.engine.vps().iter().map(|v| (v.id, world.topo.asn_of(v.asx)));
        let mut out = MrtOut::create(&mrt_path, vps.collect::<Vec<_>>())?;
        let mut public = Vec::with_capacity(sizes.mixed_rounds as usize);
        let mut public_items = 0u64;
        for r in 1..=sizes.mixed_rounds {
            let now = Timestamp(r * cfg.round.as_secs());
            let (mut updates, traces) = world.advance_round(now, cfg.public_per_round);
            updates.sort_by_key(|u| u.time);
            out.write(&updates)?;
            public_items += traces.len() as u64;
            public.push(FeedBatch { now, updates: Vec::new(), public: traces });
        }
        let (dir, updates) = out.finish()?;
        Ok(Inputs {
            kind: Kind::ReplayMixed2Feed,
            seed,
            source: Source::Mixed { world: Box::new(origin), boot, corpus },
            dir,
            mrt_path,
            public,
            windows: sizes.mixed_rounds,
            updates,
            public_items,
            mrt_bytes: 0,
            gen_s: 0.0,
            keys: QueryKeys::default(),
            pace: None,
        })
    }

    /// The detector configuration every run of this workload uses.
    /// `threads: 0` is the program's default (one worker per core).
    pub fn det_cfg(&self, threads: usize) -> DetectorConfig {
        DetectorConfig { seed: self.seed, threads, ..DetectorConfig::default() }
    }

    /// A fresh measured environment (for restoring a checkpoint).
    pub fn env(&mut self) -> Env {
        match &mut self.source {
            Source::Weather(world) => world.detector_env(),
            Source::Mixed { world, .. } => {
                let (map, geo, alias) = world.detector_env();
                (Arc::clone(&world.topo), map, geo, alias)
            }
        }
    }

    /// A fresh, fully seeded detector: environment, RIB mirror, corpus.
    pub fn build_detector(&mut self, threads: usize) -> StalenessDetector {
        let cfg = self.det_cfg(threads);
        match &mut self.source {
            Source::Weather(world) => world.build_detector(threads),
            Source::Mixed { world, boot, corpus } => {
                let mut det = world.build_detector(cfg);
                det.bootstrap_public(boot);
                for (tr, asn) in corpus.iter() {
                    let _ = det.add_corpus(tr.clone(), Some(*asn));
                }
                det
            }
        }
    }

    /// The same detector split over `n` even partitions of the address
    /// space (each partition serial inside; the partitions run in
    /// parallel).
    pub fn build_partitioned(&mut self, n: usize) -> PartitionedDetector {
        let cfg = self.det_cfg(1);
        let map = PartitionMap::even(n);
        match &mut self.source {
            Source::Weather(world) => {
                let vps: Vec<VpId> = (0..world.scale.vps).map(VpId).collect();
                let mut pd = PartitionedDetector::from_factory(map, |_| {
                    let (topo, map, geo, alias) = world.detector_env();
                    StalenessDetector::new(topo, map, geo, alias, vps.clone(), cfg.clone())
                });
                pd.init_rib(&world.rib_seed());
                for tr in world.corpus_seed() {
                    let _ = pd.add_corpus(tr, None);
                }
                pd
            }
            Source::Mixed { world, boot, corpus } => {
                let mut pd = PartitionedDetector::from_factory(map, |_| {
                    world.build_detector_unseeded(cfg.clone())
                });
                pd.init_rib(&world.rib_seed());
                pd.bootstrap_public(boot);
                for (tr, asn) in corpus.iter() {
                    let _ = pd.add_corpus(tr.clone(), Some(*asn));
                }
                pd
            }
        }
    }

    fn query_keys(&mut self) -> QueryKeys {
        let snap = self.build_detector(1).snapshot();
        let mut ids = snap.ids();
        ids.sort_unstable();
        QueryKeys { ids, prefixes: snap.prefixes().collect(), asns: snap.asns().collect() }
    }

    /// The decoded update stream over the MRT file.
    pub fn update_stream(&self) -> Result<UpdateStream<BufReader<File>>, String> {
        let file = File::open(&self.mrt_path).map_err(|e| io_err("open MRT file", e))?;
        Ok(UpdateStream::new(BufReader::new(file), self.dir.clone(), StreamFilter::default()))
    }

    /// Feed 0: the program's MRT feed over the generated file.
    pub fn mrt_feed(&self) -> Result<MrtFeed<BufReader<File>>, String> {
        Ok(MrtFeed::new(self.update_stream()?, WindowConfig::BGP))
    }

    /// Feed 1 (mixed workload only): a fresh copy of the scripted
    /// public-traceroute batches.
    pub fn public_feed(&self) -> Option<ScriptedFeed> {
        (!self.public.is_empty()).then(|| ScriptedFeed::new(self.public.iter().cloned()))
    }

    /// Every feed of the workload, unwrapped, in feed-index order.
    pub fn plain_feeds(&self) -> Result<Vec<Box<dyn FeedSource>>, String> {
        let mut feeds: Vec<Box<dyn FeedSource>> = vec![Box::new(self.mrt_feed()?)];
        if let Some(public) = self.public_feed() {
            feeds.push(Box::new(public));
        }
        Ok(feeds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for k in Kind::ALL {
            assert_eq!(Kind::by_name(k.name()), Some(k));
        }
        assert_eq!(Kind::by_name("replay"), None);
    }

    #[test]
    fn sparse_input_is_deterministic_and_much_smaller_than_dense() {
        let tmp = crate::scratch::for_test("inputs");
        let sizes = Sizes::quick();
        let bytes = |kind: Kind, seed: u64| {
            let inputs = Inputs::generate(kind, seed, &sizes, tmp.path()).expect("generates");
            (std::fs::read(&inputs.mrt_path).expect("MRT file"), inputs.updates, inputs.windows)
        };
        let (a, sparse_updates, sparse_windows) = bytes(Kind::ReplaySparseDurable, 5);
        let (b, _, _) = bytes(Kind::ReplaySparseDurable, 5);
        let (c, _, _) = bytes(Kind::ReplaySparseDurable, 6);
        assert_eq!(a, b, "same seed, same bytes");
        assert_ne!(a, c, "another seed, other bytes");
        let (_, dense_updates, dense_windows) = bytes(Kind::ReplayDense, 5);
        // Per monitored prefix and window, change-only sends a small
        // fraction of what the dense re-announcing feed sends.
        let sparse_rate = sparse_updates as f64 / (sparse_windows * 96) as f64;
        let dense_rate = dense_updates as f64 / (dense_windows * 24) as f64;
        assert!(sparse_updates > 0, "weather must change some routes");
        assert!(sparse_rate * 8.0 < dense_rate, "sparse {sparse_rate} vs dense {dense_rate}");
    }
}
