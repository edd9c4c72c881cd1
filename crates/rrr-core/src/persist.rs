//! Durable detector operation: periodic checkpoints plus a write-ahead log
//! of raw step inputs, so a crashed or stopped pipeline resumes exactly
//! where it left off.
//!
//! The recovery model is *replay* over a snapshot chain: every
//! [`StalenessDetector::step`] input is appended to the WAL before it is
//! processed (encoded straight from the borrowed slices — nothing is
//! cloned to be logged), and a snapshot is cut every
//! [`DurableConfig::checkpoint_every_windows`] closed BGP windows, after
//! which the WAL restarts empty. Most cuts are *delta frames*
//! (`delta-NNNNN.rrr`): cumulative diffs against the last full snapshot,
//! sized by churn rather than corpus size. A full snapshot is cut instead —
//! compacting the chain and deleting its delta files — once the chain
//! reaches [`DurableConfig::max_deltas`] frames or a delta grows past half
//! the full snapshot's size. [`DurableDetector::open`] loads the full
//! snapshot, reads and verifies every delta frame in sequence order but
//! decodes and applies only the newest (each frame carries everything its
//! predecessors do), and re-feeds the logged steps through the
//! deterministic pipeline, which reproduces the in-memory state bit for bit — including the signal log, calibration
//! counters, and the calibrator's RNG stream.
//!
//! Crash consistency: snapshot writes go through a temp file + atomic
//! rename, and the WAL's first record is a *chain tag* naming the snapshot
//! chain position it extends. A crash between a snapshot rename and the
//! WAL/delta cleanup leaves stale files behind; recovery detects them by
//! tag/base mismatch and discards them instead of double-applying.

use crate::detector::{DetectorConfig, StalenessDetector};
use crate::signal::StalenessSignal;
use rrr_geo::Geolocator;
use rrr_ip2as::{AliasResolver, IpToAsMap};
use rrr_obs::{Counter, Gauge, Histogram, Metrics};
use rrr_store::{Decoder, Encoder, Persist, StoreError, WalObs, WalReader, WalWriter};
use rrr_topology::Topology;
use rrr_types::{BgpUpdate, Timestamp, Traceroute};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File name of the current full checkpoint within a durable directory.
const CHECKPOINT_FILE: &str = "checkpoint.rrr";
/// File name of the write-ahead step log within a durable directory.
const WAL_FILE: &str = "wal.log";
/// Temporary name a new checkpoint is written under before the atomic
/// rename, so a crash mid-write never clobbers the good checkpoint.
const CHECKPOINT_TMP: &str = "checkpoint.rrr.tmp";
/// Temporary name a delta frame is written under before the atomic rename.
const DELTA_TMP: &str = "delta.rrr.tmp";
/// Delta frames are `delta-NNNNN.rrr`, numbered by chain sequence.
const DELTA_PREFIX: &str = "delta-";
const DELTA_SUFFIX: &str = ".rrr";

fn delta_path(dir: &Path, seq: u32) -> PathBuf {
    dir.join(format!("{DELTA_PREFIX}{seq:05}{DELTA_SUFFIX}"))
}

/// The delta frames present in a durable directory, sorted by sequence.
fn delta_files(dir: &Path) -> Result<Vec<(u32, PathBuf)>, StoreError> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name.strip_prefix(DELTA_PREFIX).and_then(|s| s.strip_suffix(DELTA_SUFFIX))
        else {
            continue;
        };
        let Ok(seq) = stem.parse::<u32>() else { continue };
        out.push((seq, entry.path()));
    }
    out.sort();
    Ok(out)
}

/// One raw pipeline step: the inputs [`StalenessDetector::step`] consumed.
/// Replaying records through a restored detector reproduces the exact
/// post-step state, so this is all the WAL needs to carry. Recovery decodes
/// this owned form; [`DurableDetector::step`] writes the same bytes from its
/// borrowed arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct StepRecord {
    pub now: Timestamp,
    pub bgp_updates: Vec<BgpUpdate>,
    pub public: Vec<Traceroute>,
}

/// The wire form of one step record, from borrowed inputs.
fn store_step<W: std::io::Write>(
    e: &mut Encoder<W>,
    now: Timestamp,
    bgp_updates: &[BgpUpdate],
    public: &[Traceroute],
) -> Result<(), StoreError> {
    now.store(e)?;
    e.slice(bgp_updates)?;
    e.slice(public)
}

impl Persist for StepRecord {
    fn store<W: std::io::Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        store_step(e, self.now, &self.bgp_updates, &self.public)
    }
    fn load<R: std::io::Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        Ok(StepRecord {
            now: Persist::load(d)?,
            bgp_updates: Persist::load(d)?,
            public: Persist::load(d)?,
        })
    }
}

/// Checkpoint policy for [`DurableDetector`].
#[derive(Debug, Clone)]
pub struct DurableConfig {
    /// Cut a snapshot (and truncate the WAL) once this many BGP windows
    /// have closed since the last one. Steps between snapshots are only
    /// in the WAL, so a smaller value trades churn for faster recovery.
    pub checkpoint_every_windows: u64,
    /// Compact the delta chain into a fresh full snapshot once it holds
    /// this many delta frames. Recovery reads and verifies every frame in
    /// the chain (and applies the newest, which grows with the churn since
    /// the base), so a longer chain trades cut cost for reopen cost.
    pub max_deltas: u32,
    /// Compact early when `delta_bytes * compact_size_ratio` exceeds the
    /// full snapshot's size — at that point a delta no longer pays for
    /// its reopen cost. `0` disables size-based compaction (frames are
    /// kept until `max_deltas`, however large — useful for harnesses
    /// that need the chain deterministically present on disk).
    pub compact_size_ratio: u64,
}

impl Default for DurableConfig {
    fn default() -> Self {
        DurableConfig { checkpoint_every_windows: 16, max_deltas: 8, compact_size_ratio: 2 }
    }
}

/// Metric handles for one durable directory (all no-ops by default; see
/// DESIGN.md §13). Counters cover the WAL (step records appended), the
/// snapshot chain (full/delta cuts, bytes, durations, compactions), and
/// recovery (records replayed, delta frames restored); gauges track the live WAL
/// length and total bytes on disk.
#[derive(Default)]
struct DurableObs {
    enabled: bool,
    wal_obs: WalObs,
    step_records: Counter,
    wal_len: Gauge,
    ckpt_full: Counter,
    ckpt_full_bytes: Counter,
    ckpt_full_ns: Histogram,
    ckpt_delta: Counter,
    ckpt_delta_bytes: Counter,
    ckpt_delta_ns: Histogram,
    compactions: Counter,
    replayed: Counter,
    deltas_applied: Counter,
    bytes_on_disk: Gauge,
}

impl DurableObs {
    fn new(m: &Metrics) -> DurableObs {
        DurableObs {
            enabled: m.is_enabled(),
            wal_obs: WalObs {
                frames: m.counter("rrr_wal_frames_total"),
                bytes: m.counter("rrr_wal_bytes_total"),
                flushes: m.counter("rrr_wal_flushes_total"),
            },
            step_records: m.counter("rrr_wal_records_appended_total"),
            wal_len: m.gauge("rrr_wal_records"),
            ckpt_full: m.counter("rrr_store_checkpoint_full_total"),
            ckpt_full_bytes: m.counter("rrr_store_checkpoint_full_bytes_total"),
            ckpt_full_ns: m.histogram("rrr_store_checkpoint_full_ns"),
            ckpt_delta: m.counter("rrr_store_checkpoint_delta_total"),
            ckpt_delta_bytes: m.counter("rrr_store_checkpoint_delta_bytes_total"),
            ckpt_delta_ns: m.histogram("rrr_store_checkpoint_delta_ns"),
            compactions: m.counter("rrr_store_compactions_total"),
            replayed: m.counter("rrr_store_restore_replayed_records_total"),
            deltas_applied: m.counter("rrr_store_restore_deltas_applied_total"),
            bytes_on_disk: m.gauge("rrr_store_bytes_on_disk"),
        }
    }
}

/// A [`StalenessDetector`] wrapped with crash-safe persistence: every step
/// is WAL-logged before processing, and checkpoints are cut on BGP-window
/// boundaries per [`DurableConfig`].
pub struct DurableDetector {
    det: StalenessDetector,
    dir: PathBuf,
    cfg: DurableConfig,
    wal: WalWriter<BufWriter<File>>,
    /// Closed-window count at the last snapshot cut.
    windows_at_checkpoint: u64,
    /// On-disk size of the current full snapshot — the yardstick for the
    /// "delta grew past half a full" compaction trigger.
    full_bytes: u64,
    /// Step records in the current WAL (past the chain tag).
    wal_records: u64,
    /// The step record being appended; kept so a step costs no allocation.
    record: Vec<u8>,
    /// Recovery work done by `open`, credited to the restore counters when
    /// metrics are installed (instrumentation arrives after `open` returns).
    restore_replayed: u64,
    restore_deltas: u64,
    obs: DurableObs,
}

impl DurableDetector {
    /// Wraps a freshly built detector, writing an initial checkpoint into
    /// `dir` (created if absent) and starting an empty WAL.
    pub fn create(
        det: StalenessDetector,
        dir: impl Into<PathBuf>,
        cfg: DurableConfig,
    ) -> Result<Self, StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let wal = WalWriter::new(BufWriter::new(File::create(dir.join(WAL_FILE))?));
        let mut durable = DurableDetector {
            windows_at_checkpoint: det.closed_bgp_windows(),
            det,
            dir,
            cfg,
            wal,
            full_bytes: 0,
            wal_records: 0,
            record: Vec::new(),
            restore_replayed: 0,
            restore_deltas: 0,
            obs: DurableObs::default(),
        };
        durable.cut_full_checkpoint()?;
        Ok(durable)
    }

    /// Reopens a durable directory: loads the full snapshot, verifies the
    /// delta chain frame by frame and applies its newest frame, replays the
    /// WAL through the restored detector, and resumes logging. The rebuilt detector state is
    /// identical to the one that wrote the files.
    ///
    /// Stale leftovers from a crash mid-compaction — delta frames cut
    /// against a superseded full snapshot, or a WAL whose chain tag no
    /// longer matches — are detected and discarded rather than applied
    /// twice. Genuine corruption (bit rot, truncation, a chain with a
    /// missing link, a WAL tagged for a frame past the chain's end) still
    /// surfaces as a typed [`StoreError`].
    pub fn open(
        dir: impl Into<PathBuf>,
        topo: Arc<Topology>,
        map: IpToAsMap,
        geo: Geolocator,
        alias: AliasResolver,
        det_cfg: DetectorConfig,
        cfg: DurableConfig,
    ) -> Result<Self, StoreError> {
        let dir = dir.into();
        let file = File::open(dir.join(CHECKPOINT_FILE))?;
        let mut det =
            StalenessDetector::restore(BufReader::new(file), topo, map, geo, alias, det_cfg)?;
        let full_bytes = std::fs::metadata(dir.join(CHECKPOINT_FILE))?.len();

        // Verify every frame of the delta chain in sequence order, apply
        // the newest: deltas are cumulative since the base, so the last
        // frame carries everything its predecessors do. A base mismatch on
        // a frame can only mean the frame predates the current full snapshot
        // (a crash hit the window between the compacting rename and the
        // delta cleanup): frame payloads are CRC-protected, so rot reports
        // as CrcMismatch before the base is ever compared. Drop the stale
        // frame.
        let mut chain_len = 0u32;
        let mut newest = None;
        for (_, path) in delta_files(&dir)? {
            match det.read_chain_frame(BufReader::new(File::open(&path)?), chain_len + 1) {
                Ok(frame) => {
                    chain_len += 1;
                    newest = Some(frame);
                }
                Err(StoreError::DeltaBaseMismatch { .. }) => {
                    std::fs::remove_file(&path)?;
                }
                Err(e) => return Err(e),
            }
        }
        if let Some(frame) = newest {
            det.apply_chain_frame(&frame)?;
        }
        let restore_deltas = u64::from(chain_len);

        // Replay logged steps; a torn tail (crash mid-append) ends replay
        // cleanly, matching a crash before that step was processed. A
        // missing or zero-length WAL is a clean empty log (crash between
        // snapshot cut and first append); any other open failure is a
        // real error — silently skipping replay would desynchronize the
        // restored state from the snapshot's successor stream. The leading
        // chain tag guards the other direction: a WAL truncated *before*
        // the crash but tagged for a superseded chain position holds steps
        // the snapshots already contain, and must not be applied twice.
        let mut reader = WalReader::open(dir.join(WAL_FILE))?;
        let mut tagged = false;
        let mut restore_replayed = 0u64;
        if let Some(payload) = reader.next_record()? {
            let tag: (u32, u32) = rrr_store::from_payload(&payload)?;
            let (base, seq) = det.delta_chain();
            if tag == (base, seq) {
                tagged = true;
                while let Some(payload) = reader.next_record()? {
                    let rec: StepRecord = rrr_store::from_payload(&payload)?;
                    let _ = det.step(rec.now, &rec.bgp_updates, &rec.public);
                    restore_replayed += 1;
                }
            } else if tag.0 == base && tag.1 > seq {
                // The log extends a frame of this chain that is not on
                // disk: the windows up to that frame are gone, and an
                // empty log would hide it. (Another base, or an earlier
                // frame, is a log the snapshots have superseded.)
                return Err(StoreError::DeltaChainBroken {
                    what: "the WAL extends a delta frame newer than any on disk",
                });
            }
        }
        drop(reader);

        // Resume the valid WAL, or start a fresh one (with the current
        // chain tag) in place of an empty or superseded log — appending
        // records behind a stale tag would strand them on the next open.
        let wal = if tagged {
            WalWriter::new(BufWriter::new(File::options().append(true).open(dir.join(WAL_FILE))?))
        } else {
            let mut w = WalWriter::new(BufWriter::new(File::create(dir.join(WAL_FILE))?));
            w.append(&rrr_store::to_payload(&det.delta_chain())?)?;
            w
        };
        Ok(DurableDetector {
            windows_at_checkpoint: det.closed_bgp_windows(),
            det,
            dir,
            cfg,
            wal,
            full_bytes,
            wal_records: if tagged { restore_replayed } else { 0 },
            record: Vec::new(),
            restore_replayed,
            restore_deltas,
            obs: DurableObs::default(),
        })
    }

    /// Installs metric handles on the durable layer and the wrapped
    /// detector (pass a disabled handle to turn instrumentation back into
    /// no-ops). Recovery work done by [`DurableDetector::open`] is credited
    /// to the restore counters at install time.
    pub fn set_metrics(&mut self, metrics: &Metrics) {
        self.det.set_metrics(metrics);
        self.obs = DurableObs::new(metrics);
        self.wal.set_obs(self.obs.wal_obs.clone());
        self.obs.replayed.add(self.restore_replayed);
        self.obs.deltas_applied.add(self.restore_deltas);
        self.restore_replayed = 0;
        self.restore_deltas = 0;
        self.obs.wal_len.set(self.wal_records as i64);
        let _ = self.update_disk_gauge();
    }

    /// Refreshes the `bytes_on_disk` gauge from the real directory (no-op
    /// when metrics are disabled). Called after every checkpoint cut.
    fn update_disk_gauge(&self) -> Result<(), StoreError> {
        if !self.obs.enabled {
            return Ok(());
        }
        let mut total = 0u64;
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                total += entry.metadata()?.len();
            }
        }
        self.obs.bytes_on_disk.set(total as i64);
        Ok(())
    }

    /// Logs the step inputs, runs the step, and cuts a snapshot when the
    /// window policy says so. Returns the step's signals.
    pub fn step(
        &mut self,
        now: Timestamp,
        bgp_updates: &[BgpUpdate],
        public: &[Traceroute],
    ) -> Result<Vec<StalenessSignal>, StoreError> {
        self.record.clear();
        store_step(&mut Encoder::new(&mut self.record), now, bgp_updates, public)?;
        self.wal.append(&self.record)?;
        self.wal_records += 1;
        self.obs.step_records.inc();
        self.obs.wal_len.set(self.wal_records as i64);
        let signals = self.det.step(now, bgp_updates, public);
        if self.det.closed_bgp_windows() - self.windows_at_checkpoint
            >= self.cfg.checkpoint_every_windows
        {
            self.cut_checkpoint()?;
        }
        Ok(signals)
    }

    /// Cuts a snapshot (atomically, via rename) and truncates the WAL —
    /// everything before this point is now in the snapshot chain.
    ///
    /// Most cuts produce a delta frame sized by churn since the last full
    /// snapshot. The chain is compacted into a fresh full snapshot when it
    /// reaches [`DurableConfig::max_deltas`] frames or the delta grows
    /// past half the full snapshot's size (at that point deltas no longer
    /// pay for their reopen cost).
    pub fn cut_checkpoint(&mut self) -> Result<(), StoreError> {
        if self.det.delta_chain_len() >= self.cfg.max_deltas {
            self.obs.compactions.inc();
            return self.cut_full_checkpoint();
        }
        let span = self.obs.ckpt_delta_ns.span();
        let tmp = self.dir.join(DELTA_TMP);
        {
            let mut w = BufWriter::new(File::create(&tmp)?);
            self.det.checkpoint_delta(&mut w)?;
            w.flush()?;
        }
        let delta_bytes = std::fs::metadata(&tmp)?.len();
        if self.cfg.compact_size_ratio != 0
            && delta_bytes * self.cfg.compact_size_ratio > self.full_bytes
        {
            drop(span);
            std::fs::remove_file(&tmp)?;
            self.obs.compactions.inc();
            return self.cut_full_checkpoint();
        }
        std::fs::rename(&tmp, delta_path(&self.dir, self.det.delta_chain_len()))?;
        drop(span);
        self.obs.ckpt_delta.inc();
        self.obs.ckpt_delta_bytes.add(delta_bytes);
        self.truncate_wal()?;
        self.update_disk_gauge()
    }

    /// Cuts a full snapshot unconditionally, compacting the delta chain:
    /// once the new full is in place its superseded delta frames are
    /// deleted (a crash in between leaves stale frames that
    /// [`DurableDetector::open`] discards by base mismatch).
    pub fn cut_full_checkpoint(&mut self) -> Result<(), StoreError> {
        let span = self.obs.ckpt_full_ns.span();
        let tmp = self.dir.join(CHECKPOINT_TMP);
        {
            let mut w = BufWriter::new(File::create(&tmp)?);
            // Park-preserving cut: a materializing `checkpoint_full` would
            // wake every parked group and the next close would push them
            // all into the cumulative dirty set, defeating delta sparsity.
            self.det.checkpoint_base(&mut w)?;
            w.flush()?;
        }
        std::fs::rename(&tmp, self.dir.join(CHECKPOINT_FILE))?;
        self.full_bytes = std::fs::metadata(self.dir.join(CHECKPOINT_FILE))?.len();
        for (_, path) in delta_files(&self.dir)? {
            std::fs::remove_file(path)?;
        }
        drop(span);
        self.obs.ckpt_full.inc();
        self.obs.ckpt_full_bytes.add(self.full_bytes);
        self.truncate_wal()?;
        self.update_disk_gauge()
    }

    /// Restarts the WAL, tagged with the current snapshot chain position.
    fn truncate_wal(&mut self) -> Result<(), StoreError> {
        let mut wal = WalWriter::new(BufWriter::new(File::create(self.dir.join(WAL_FILE))?));
        wal.set_obs(self.obs.wal_obs.clone());
        wal.append(&rrr_store::to_payload(&self.det.delta_chain())?)?;
        self.wal = wal;
        self.windows_at_checkpoint = self.det.closed_bgp_windows();
        self.wal_records = 0;
        self.obs.wal_len.set(0);
        Ok(())
    }

    /// The wrapped detector.
    pub fn detector(&self) -> &StalenessDetector {
        &self.det
    }

    /// Mutable access for read-mostly operations (e.g. `plan_refresh`).
    /// Corpus mutations made here are *not* WAL-logged; checkpoint after
    /// making them (see [`DurableDetector::cut_checkpoint`]).
    pub fn detector_mut(&mut self) -> &mut StalenessDetector {
        &mut self.det
    }

    /// The durable directory path.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrr_types::{AsPath, BgpElem, Community, Hop, Ipv4, ProbeId, TracerouteId, VpId};

    #[test]
    fn borrowed_step_encoding_is_the_step_record_encoding() {
        let prefix = "10.2.0.0/16".parse().expect("prefix");
        let updates = [
            BgpUpdate {
                time: Timestamp(10),
                vp: VpId(3),
                prefix,
                elem: BgpElem::Announce {
                    path: AsPath::from_asns([90, 101, 102]),
                    communities: vec![Community::new(101, 50_001), Community::new(101, 7)],
                },
            },
            BgpUpdate { time: Timestamp(11), vp: VpId(0), prefix, elem: BgpElem::Withdraw },
        ];
        let public = [Traceroute {
            id: TracerouteId(7),
            probe: ProbeId(1),
            src: Ipv4::new(10, 0, 0, 201),
            dst: Ipv4::new(10, 2, 0, 8),
            time: Timestamp(30),
            hops: vec![Hop::responsive(Ipv4::new(10, 0, 0, 2)), Hop::star()],
            reached: false,
        }];
        for (updates, public) in [(&updates[..], &public[..]), (&[][..], &[][..])] {
            let mut borrowed = Vec::new();
            store_step(&mut Encoder::new(&mut borrowed), Timestamp(60), updates, public)
                .expect("encode borrowed");
            let owned = StepRecord {
                now: Timestamp(60),
                bgp_updates: updates.to_vec(),
                public: public.to_vec(),
            };
            assert_eq!(borrowed, rrr_store::to_payload(&owned).expect("encode owned"));
            assert_eq!(rrr_store::from_payload::<StepRecord>(&borrowed).expect("decode"), owned);
        }
    }
}
