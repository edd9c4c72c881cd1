//! The fault model. Faults come in two flavors:
//!
//! * **Stream faults** perturb the generated per-round inputs before the
//!   detector sees them — reordering, duplication, drops, duplicate-update
//!   storms (§4.1.4's burst trigger), clock skew. They model a misbehaving
//!   collector feed.
//! * **Durable-file faults** corrupt the on-disk checkpoint/WAL at the
//!   crash point of a `CrashResume` oracle — truncation, bit flips, magic
//!   rot, config skew. They model storage failures and must surface as the
//!   matching typed [`rrr_store::StoreError`], never as divergence.
//!
//! Every fault is deterministic given the scenario seed, which is what
//! makes failing plans minimizable and replayable.

use crate::inputs::RoundInput;
use crate::ron::Fields;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rrr_types::Prefix;
use serde_json::Value;
use std::io;
use std::path::Path;

/// File names inside a durable directory (mirrors `rrr-core::persist`).
pub const CHECKPOINT_FILE: &str = "checkpoint.rrr";
pub const WAL_FILE: &str = "wal.log";
/// Delta frames are `delta-NNNNN.rrr`, numbered by chain sequence
/// (mirrors `rrr-core::persist`).
pub const DELTA_PREFIX: &str = "delta-";
pub const DELTA_SUFFIX: &str = ".rrr";

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Permute the update order within round `round` (all updates of a
    /// micro round share one BGP window, so this reorders *within* the
    /// window without disturbing window-close boundaries).
    ReorderWindow { round: u64 },
    /// Re-deliver every third update of the round `copies` extra times.
    DuplicateUpdates { round: u64, copies: u32 },
    /// Drop every `modulo`-th update of the round.
    DropUpdates { round: u64, modulo: u32 },
    /// Duplicate-update storm: replicate the announcements of one
    /// destination prefix `copies` times (the §4.1.4 burst shape).
    DuplicateBurst { round: u64, dst: u32, copies: u32 },
    /// Shift one vantage point's update timestamps by `secs`, clamped to
    /// the round's window so arrivals skew without crossing windows.
    ClockSkew { round: u64, vp: u32, secs: i64 },
    /// Chop `bytes` off the WAL tail at the crash point (a torn final
    /// append). Must be smaller than the final record, which then reads as
    /// a clean torn tail: the crashed step is lost, not corrupted.
    TruncateWalTail { bytes: u64 },
    /// Flip one byte inside the WAL's first record payload → `CrcMismatch`.
    FlipWalByte { offset: u64 },
    /// Flip one byte inside the checkpoint payload → `CrcMismatch`.
    FlipCheckpointByte { offset: u64 },
    /// Truncate the checkpoint to `len` bytes → short read (`Io`).
    TruncateCheckpoint { len: u64 },
    /// Overwrite the checkpoint magic → `BadMagic`.
    BadMagicCheckpoint,
    /// Reopen with a different detector configuration → `ConfigMismatch`.
    RestoreConfigSkew,
    /// Chop `bytes` off the newest delta frame's tail. Delta cuts are
    /// atomic (write-then-rename), so a short frame is storage rot, not a
    /// torn append: the short read surfaces as `Io`.
    TruncateDeltaTail { bytes: u64 },
    /// Flip one byte inside the newest delta frame's payload →
    /// `CrcMismatch` (the frame CRC is checked before its base is ever
    /// compared).
    FlipDeltaByte { offset: u64 },
    /// Delete delta frame `seq`, leaving a gap in the chain → applying the
    /// next frame fails with `DeltaChainBroken`.
    DropDeltaFrame { seq: u32 },
}

impl Fault {
    /// Whether this fault acts on durable files (at the CrashResume crash
    /// point) rather than on the input stream.
    pub fn is_durable(&self) -> bool {
        matches!(
            self,
            Fault::TruncateWalTail { .. }
                | Fault::FlipWalByte { .. }
                | Fault::FlipCheckpointByte { .. }
                | Fault::TruncateCheckpoint { .. }
                | Fault::BadMagicCheckpoint
                | Fault::RestoreConfigSkew
                | Fault::TruncateDeltaTail { .. }
                | Fault::FlipDeltaByte { .. }
                | Fault::DropDeltaFrame { .. }
        )
    }

    /// Every fault constructor name, for corpus-coverage accounting: the
    /// scenario corpus meta-test asserts each of these appears in at least
    /// one checked-in scenario's fault plan.
    pub const ALL_NAMES: [&'static str; 14] = [
        "ReorderWindow",
        "DuplicateUpdates",
        "DropUpdates",
        "DuplicateBurst",
        "ClockSkew",
        "TruncateWalTail",
        "FlipWalByte",
        "FlipCheckpointByte",
        "TruncateCheckpoint",
        "BadMagicCheckpoint",
        "RestoreConfigSkew",
        "TruncateDeltaTail",
        "FlipDeltaByte",
        "DropDeltaFrame",
    ];

    /// The constructor name this fault renders/parses as.
    pub fn name(&self) -> &'static str {
        match self {
            Fault::ReorderWindow { .. } => "ReorderWindow",
            Fault::DuplicateUpdates { .. } => "DuplicateUpdates",
            Fault::DropUpdates { .. } => "DropUpdates",
            Fault::DuplicateBurst { .. } => "DuplicateBurst",
            Fault::ClockSkew { .. } => "ClockSkew",
            Fault::TruncateWalTail { .. } => "TruncateWalTail",
            Fault::FlipWalByte { .. } => "FlipWalByte",
            Fault::FlipCheckpointByte { .. } => "FlipCheckpointByte",
            Fault::TruncateCheckpoint { .. } => "TruncateCheckpoint",
            Fault::BadMagicCheckpoint => "BadMagicCheckpoint",
            Fault::RestoreConfigSkew => "RestoreConfigSkew",
            Fault::TruncateDeltaTail { .. } => "TruncateDeltaTail",
            Fault::FlipDeltaByte { .. } => "FlipDeltaByte",
            Fault::DropDeltaFrame { .. } => "DropDeltaFrame",
        }
    }

    /// Parses a fault from its entry in a scenario document.
    pub fn from_value(v: &Value) -> Result<Fault, String> {
        let f = Fields::of(v).ok_or("fault must be a named variant")?;
        let name = f.name();
        let u64_field = |key: &'static str| -> Result<u64, String> {
            f.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("{name}: missing or invalid field `{key}`"))
        };
        let fault = match name {
            "ReorderWindow" => Ok(Fault::ReorderWindow { round: u64_field("round")? }),
            "DuplicateUpdates" => Ok(Fault::DuplicateUpdates {
                round: u64_field("round")?,
                copies: u64_field("copies")? as u32,
            }),
            "DropUpdates" => {
                let modulo = u64_field("modulo")? as u32;
                if modulo == 0 {
                    return Err("DropUpdates: `modulo` must be positive".to_string());
                }
                Ok(Fault::DropUpdates { round: u64_field("round")?, modulo })
            }
            "DuplicateBurst" => Ok(Fault::DuplicateBurst {
                round: u64_field("round")?,
                dst: u64_field("dst")? as u32,
                copies: u64_field("copies")? as u32,
            }),
            "ClockSkew" => {
                let secs = f
                    .get("secs")
                    .and_then(Value::as_i64)
                    .ok_or("ClockSkew: missing or invalid field `secs`")?;
                Ok(Fault::ClockSkew {
                    round: u64_field("round")?,
                    vp: u64_field("vp")? as u32,
                    secs,
                })
            }
            "TruncateWalTail" => Ok(Fault::TruncateWalTail { bytes: u64_field("bytes")? }),
            "FlipWalByte" => Ok(Fault::FlipWalByte { offset: u64_field("offset")? }),
            "FlipCheckpointByte" => Ok(Fault::FlipCheckpointByte { offset: u64_field("offset")? }),
            "TruncateCheckpoint" => Ok(Fault::TruncateCheckpoint { len: u64_field("len")? }),
            "BadMagicCheckpoint" => Ok(Fault::BadMagicCheckpoint),
            "RestoreConfigSkew" => Ok(Fault::RestoreConfigSkew),
            "TruncateDeltaTail" => Ok(Fault::TruncateDeltaTail { bytes: u64_field("bytes")? }),
            "FlipDeltaByte" => Ok(Fault::FlipDeltaByte { offset: u64_field("offset")? }),
            "DropDeltaFrame" => Ok(Fault::DropDeltaFrame { seq: u64_field("seq")? as u32 }),
            other => Err(format!("unknown fault `{other}`")),
        }?;
        f.finish()?;
        Ok(fault)
    }

    /// Applies a stream fault to the generated rounds (durable faults are
    /// no-ops here; they run at the crash point). `seed` keys the fault's
    /// private RNG so the perturbation is a pure function of the plan.
    pub fn apply_stream(&self, rounds: &mut [RoundInput], seed: u64) {
        fn target(rounds: &mut [RoundInput], r: u64) -> Option<&mut RoundInput> {
            rounds.iter_mut().find(|ri| ri.round == r)
        }
        match *self {
            Fault::ReorderWindow { round } => {
                if let Some(ri) = target(rounds, round) {
                    let mut rng = StdRng::seed_from_u64(seed ^ round.wrapping_mul(0x9E37_79B9));
                    ri.updates.shuffle(&mut rng);
                }
            }
            Fault::DuplicateUpdates { round, copies } => {
                if let Some(ri) = target(rounds, round) {
                    let mut extra = Vec::new();
                    for (i, u) in ri.updates.iter().enumerate() {
                        if i % 3 == 0 {
                            for _ in 0..copies {
                                extra.push(u.clone());
                            }
                        }
                    }
                    ri.updates.extend(extra);
                    ri.updates.sort_by_key(|u| u.time);
                }
            }
            Fault::DropUpdates { round, modulo } => {
                if let Some(ri) = target(rounds, round) {
                    let mut i = 0;
                    ri.updates.retain(|_| {
                        let keep = i % modulo as usize != 0;
                        i += 1;
                        keep
                    });
                }
            }
            Fault::DuplicateBurst { round, dst, copies } => {
                if let Some(ri) = target(rounds, round) {
                    let mut prefixes: Vec<Prefix> = ri.updates.iter().map(|u| u.prefix).collect();
                    prefixes.sort();
                    prefixes.dedup();
                    let Some(&p) = prefixes.get(dst as usize % prefixes.len().max(1)) else {
                        return;
                    };
                    let storm: Vec<_> =
                        ri.updates.iter().filter(|u| u.prefix == p).cloned().collect();
                    for _ in 0..copies {
                        ri.updates.extend(storm.iter().cloned());
                    }
                    ri.updates.sort_by_key(|u| u.time);
                }
            }
            Fault::ClockSkew { round, vp, secs } => {
                if let Some(ri) = target(rounds, round) {
                    // Clamp to the round's window span so skewed arrivals
                    // stay in their window (cross-window reorder would
                    // change which window an update belongs to — a
                    // different scenario, not a delivery perturbation).
                    let (lo, hi) = ri.window_span();
                    for u in ri.updates.iter_mut() {
                        if u.vp.0 == vp {
                            let t = (u.time.0 as i64 + secs).clamp(lo as i64, hi as i64);
                            u.time = rrr_types::Timestamp(t as u64);
                        }
                    }
                    ri.updates.sort_by_key(|u| u.time);
                }
            }
            // Durable-file faults do not touch the stream.
            Fault::TruncateWalTail { .. }
            | Fault::FlipWalByte { .. }
            | Fault::FlipCheckpointByte { .. }
            | Fault::TruncateCheckpoint { .. }
            | Fault::BadMagicCheckpoint
            | Fault::RestoreConfigSkew
            | Fault::TruncateDeltaTail { .. }
            | Fault::FlipDeltaByte { .. }
            | Fault::DropDeltaFrame { .. } => {}
        }
    }

    /// Applies a durable-file fault to a crashed durable directory.
    /// Stream faults and `RestoreConfigSkew` (which acts at reopen, not on
    /// bytes) are no-ops.
    pub fn apply_file(&self, dir: &Path) -> io::Result<()> {
        match *self {
            Fault::TruncateWalTail { bytes } => {
                let path = dir.join(WAL_FILE);
                let len = std::fs::metadata(&path)?.len();
                let file = std::fs::OpenOptions::new().write(true).open(&path)?;
                file.set_len(len.saturating_sub(bytes))?;
                Ok(())
            }
            Fault::FlipWalByte { offset } => {
                // Land inside the first record's payload: the WAL frame is
                // [len u32][crc u32][payload], and step payloads are far
                // larger than any plausible `offset`.
                flip_byte(&dir.join(WAL_FILE), |len| (8 + offset).min(len.saturating_sub(1)))
            }
            Fault::FlipCheckpointByte { offset } => {
                // Past the 18-byte checkpoint header → payload or CRC; both
                // must report CrcMismatch.
                flip_byte(&dir.join(CHECKPOINT_FILE), |len| {
                    (18 + offset).min(len.saturating_sub(1))
                })
            }
            Fault::TruncateCheckpoint { len } => {
                let path = dir.join(CHECKPOINT_FILE);
                let file = std::fs::OpenOptions::new().write(true).open(&path)?;
                file.set_len(len)?;
                Ok(())
            }
            Fault::BadMagicCheckpoint => {
                let path = dir.join(CHECKPOINT_FILE);
                let mut bytes = std::fs::read(&path)?;
                if !bytes.is_empty() {
                    bytes[0] = b'X';
                }
                std::fs::write(&path, bytes)
            }
            Fault::TruncateDeltaTail { bytes } => {
                let path = newest_delta(dir)?;
                let len = std::fs::metadata(&path)?.len();
                let file = std::fs::OpenOptions::new().write(true).open(&path)?;
                file.set_len(len.saturating_sub(bytes))?;
                Ok(())
            }
            Fault::FlipDeltaByte { offset } => {
                // Past the 18-byte frame header → payload or CRC; both
                // must report CrcMismatch.
                flip_byte(&newest_delta(dir)?, |len| (18 + offset).min(len.saturating_sub(1)))
            }
            Fault::DropDeltaFrame { seq } => {
                std::fs::remove_file(dir.join(format!("{DELTA_PREFIX}{seq:05}{DELTA_SUFFIX}")))
            }
            _ => Ok(()),
        }
    }

    /// The step index a fault makes the durable run lose entirely (the
    /// torn-tail semantics of [`Fault::TruncateWalTail`]): the reference
    /// run must skip it too. `split` is the CrashResume crash step.
    pub fn dropped_step(&self, split: u64) -> Option<u64> {
        match self {
            Fault::TruncateWalTail { .. } => Some(split - 1),
            _ => None,
        }
    }
}

/// The highest-sequence delta frame in a durable directory. Delta faults
/// target the newest frame: it is the one a crash-adjacent corruption
/// would plausibly hit, and the one whose loss the chain cannot paper
/// over.
fn newest_delta(dir: &Path) -> io::Result<std::path::PathBuf> {
    let mut newest: Option<(u32, std::path::PathBuf)> = None;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name.strip_prefix(DELTA_PREFIX).and_then(|s| s.strip_suffix(DELTA_SUFFIX))
        else {
            continue;
        };
        let Ok(seq) = stem.parse::<u32>() else { continue };
        if newest.as_ref().is_none_or(|(best, _)| seq > *best) {
            newest = Some((seq, entry.path()));
        }
    }
    newest.map(|(_, p)| p).ok_or_else(|| {
        io::Error::new(io::ErrorKind::NotFound, "no delta frames in the durable directory")
    })
}

fn flip_byte(path: &Path, pos: impl Fn(u64) -> u64) -> io::Result<()> {
    let mut bytes = std::fs::read(path)?;
    if bytes.is_empty() {
        return Ok(());
    }
    let i = pos(bytes.len() as u64) as usize;
    bytes[i] ^= 0x40;
    std::fs::write(path, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{micro_rounds, MicroPlan};

    fn rounds() -> Vec<RoundInput> {
        micro_rounds(&MicroPlan { rounds: 4, events: vec![], half_steps: false })
    }

    #[test]
    fn all_names_matches_the_constructors_exactly() {
        let one_of_each = [
            Fault::ReorderWindow { round: 0 },
            Fault::DuplicateUpdates { round: 0, copies: 1 },
            Fault::DropUpdates { round: 0, modulo: 2 },
            Fault::DuplicateBurst { round: 0, dst: 0, copies: 1 },
            Fault::ClockSkew { round: 0, vp: 0, secs: 1 },
            Fault::TruncateWalTail { bytes: 1 },
            Fault::FlipWalByte { offset: 0 },
            Fault::FlipCheckpointByte { offset: 0 },
            Fault::TruncateCheckpoint { len: 1 },
            Fault::BadMagicCheckpoint,
            Fault::RestoreConfigSkew,
            Fault::TruncateDeltaTail { bytes: 1 },
            Fault::FlipDeltaByte { offset: 0 },
            Fault::DropDeltaFrame { seq: 0 },
        ];
        let names: Vec<&str> = one_of_each.iter().map(Fault::name).collect();
        assert_eq!(names, Fault::ALL_NAMES, "ALL_NAMES drifted from the constructors");
    }

    #[test]
    fn stream_faults_are_deterministic() {
        for fault in [
            Fault::ReorderWindow { round: 1 },
            Fault::DuplicateUpdates { round: 2, copies: 2 },
            Fault::DropUpdates { round: 1, modulo: 3 },
            Fault::DuplicateBurst { round: 3, dst: 0, copies: 5 },
            Fault::ClockSkew { round: 2, vp: 1, secs: 40 },
        ] {
            let mut a = rounds();
            let mut b = rounds();
            fault.apply_stream(&mut a, 99);
            fault.apply_stream(&mut b, 99);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.updates, y.updates, "{fault:?} must be deterministic");
            }
        }
    }

    #[test]
    fn reorder_keeps_the_multiset_and_burst_amplifies() {
        let baseline = rounds();
        let mut reordered = rounds();
        Fault::ReorderWindow { round: 1 }.apply_stream(&mut reordered, 7);
        let mut a = baseline[1].updates.clone();
        let mut b = reordered[1].updates.clone();
        assert_ne!(a, b, "seeded shuffle should actually move something");
        let key = |u: &rrr_types::BgpUpdate| (u.time, u.vp, u.prefix, format!("{:?}", u.elem));
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b, "reorder must not add or drop updates");

        let mut stormed = rounds();
        Fault::DuplicateBurst { round: 1, dst: 0, copies: 4 }.apply_stream(&mut stormed, 7);
        assert!(stormed[1].updates.len() > baseline[1].updates.len());
    }

    #[test]
    fn clock_skew_stays_within_the_window() {
        let mut skewed = rounds();
        Fault::ClockSkew { round: 1, vp: 0, secs: 100_000 }.apply_stream(&mut skewed, 7);
        let (lo, hi) = skewed[1].window_span();
        for u in &skewed[1].updates {
            assert!((lo..=hi).contains(&u.time.0), "skewed update escaped its window");
        }
        assert!(skewed[1].updates.windows(2).all(|w| w[0].time <= w[1].time), "re-sorted");
    }

    #[test]
    fn every_variant_reads_from_ron_and_back_from_an_artifact() {
        let sc = crate::Scenario::parse(
            r#"Scenario(name: "every-fault", seed: 5, rounds: 6,
                faults: [
                    ReorderWindow(round: 1),
                    DuplicateUpdates(round: 2, copies: 2),
                    DropUpdates(round: 1, modulo: 3),
                    DuplicateBurst(round: 3, dst: 1, copies: 5),
                    ClockSkew(round: 2, vp: 1, secs: -40),
                    TruncateWalTail(bytes: 3),
                    FlipWalByte(offset: 12),
                    FlipCheckpointByte(offset: 40),
                    TruncateCheckpoint(len: 10),
                    BadMagicCheckpoint,
                    RestoreConfigSkew,
                    TruncateDeltaTail(bytes: 5),
                    FlipDeltaByte(offset: 21),
                    DropDeltaFrame(seq: 1),
                ],
                oracles: [CrashResume(split: 3)])"#,
        )
        .expect("parses");
        let plan = vec![
            Fault::ReorderWindow { round: 1 },
            Fault::DuplicateUpdates { round: 2, copies: 2 },
            Fault::DropUpdates { round: 1, modulo: 3 },
            Fault::DuplicateBurst { round: 3, dst: 1, copies: 5 },
            Fault::ClockSkew { round: 2, vp: 1, secs: -40 },
            Fault::TruncateWalTail { bytes: 3 },
            Fault::FlipWalByte { offset: 12 },
            Fault::FlipCheckpointByte { offset: 40 },
            Fault::TruncateCheckpoint { len: 10 },
            Fault::BadMagicCheckpoint,
            Fault::RestoreConfigSkew,
            Fault::TruncateDeltaTail { bytes: 5 },
            Fault::FlipDeltaByte { offset: 21 },
            Fault::DropDeltaFrame { seq: 1 },
        ];
        assert_eq!(sc.faults, plan, "RON reader");
        let names: Vec<&str> = plan.iter().map(Fault::name).collect();
        assert_eq!(names, Fault::ALL_NAMES, "the plan holds every variant");

        let dir = std::env::temp_dir().join(format!("rrr-sim-every-fault-{}", std::process::id()));
        let failure = crate::OracleFailure { oracle: "crash-resume", message: "demo".to_string() };
        let path = crate::write_artifact(&dir, &sc, &failure, &plan).expect("writes");
        let reloaded = crate::load_scenario_or_artifact(&path).expect("reloads");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(reloaded.faults, plan, "JSON reader");
    }
}
