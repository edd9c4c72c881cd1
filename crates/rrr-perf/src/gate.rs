//! The correctness gate: what a run of the daemon must reproduce, and the
//! untimed serial replay that says what that is.

use crate::feeds::SerialMerge;
use crate::inputs::Inputs;
use rrr_core::{StalenessDetector, StalenessSignal};
use rrr_serve::canonical_sort;
use rrr_store::crc32::crc32;

/// Everything the gate compares between a daemon run and the reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    pub rounds: u64,
    pub updates: u64,
    pub public: u64,
    pub signals: u64,
    /// [`signal_digest`] of the signal log, in emission order.
    pub digest: u64,
    /// CRC-32 of the final detector's `checkpoint` bytes.
    pub checkpoint_crc: u32,
}

impl Outcome {
    pub fn items(&self) -> u64 {
        self.updates + self.public
    }

    /// `Err` naming the first field on which `got` departs from `self`.
    pub fn check(&self, got: &Outcome) -> Result<(), String> {
        let fields: [(&str, u64, u64); 6] = [
            ("rounds", self.rounds, got.rounds),
            ("BGP updates", self.updates, got.updates),
            ("public traceroutes", self.public, got.public),
            ("signal count", self.signals, got.signals),
            ("signal-log digest", self.digest, got.digest),
            ("final checkpoint CRC", self.checkpoint_crc.into(), got.checkpoint_crc.into()),
        ];
        match fields.into_iter().find(|(_, want, got)| want != got) {
            None => Ok(()),
            Some((what, want, got)) => {
                Err(format!("{what}: daemon produced {got:#x}, serial replay {want:#x}"))
            }
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// FNV-1a over every field of every signal, in order: key, time, window,
/// score bits, the traceroutes named, and the triggering communities.
pub fn signal_digest<'a>(signals: impl IntoIterator<Item = &'a StalenessSignal>) -> u64 {
    let mut h = FNV_OFFSET;
    for s in signals {
        let repr = format!(
            "{:?}|{:?}|{:?}|{:016x}|{:?}|{:?}\n",
            s.key,
            s.time,
            s.window,
            s.score.to_bits(),
            s.traceroutes,
            s.trigger_communities
        );
        for b in repr.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// CRC-32 of the detector's full `checkpoint` bytes.
pub fn checkpoint_crc(det: &StalenessDetector) -> Result<(Vec<u8>, u32), String> {
    let mut bytes = Vec::new();
    det.checkpoint(&mut bytes).map_err(|e| format!("checkpoint: {e}"))?;
    let crc = crc32(&bytes);
    Ok((bytes, crc))
}

/// The untimed reference: a serial, single-threaded detector stepped
/// through the canonical merge of the very batches the workload's feeds
/// yield. Returns the outcome and the final detector.
pub fn reference(inputs: &mut Inputs) -> Result<(Outcome, StalenessDetector), String> {
    let mut det = inputs.build_detector(1);
    let mut merge = SerialMerge::new(inputs.plain_feeds()?);
    let (mut rounds, mut updates, mut public) = (0u64, 0u64, 0u64);
    while let Some(mut batch) = merge.next_merged().map_err(|e| format!("reference feed: {e}"))? {
        canonical_sort(&mut batch);
        rounds += 1;
        updates += batch.updates.len() as u64;
        public += batch.public.len() as u64;
        let _ = det.step(batch.now, &batch.updates, &batch.public);
    }
    let (_, checkpoint_crc) = checkpoint_crc(&det)?;
    let log = det.signal_log();
    let outcome = Outcome {
        rounds,
        updates,
        public,
        signals: log.len() as u64,
        digest: signal_digest(log),
        checkpoint_crc,
    };
    Ok((outcome, det))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrr_core::{SignalKey, SignalScope, Technique};
    use rrr_types::{Asn, Community, Timestamp, TracerouteId, Window};
    use std::sync::Arc;

    fn signal(i: u64) -> StalenessSignal {
        StalenessSignal {
            key: Arc::new(SignalKey {
                technique: Technique::BgpAsPath,
                scope: SignalScope::AsSuffix {
                    dst_prefix: "10.0.0.0/16".parse().expect("prefix"),
                    suffix: vec![Asn(7), Asn(100 + i as u32)],
                },
            }),
            time: Timestamp(900 * i),
            window: Window(i),
            score: 0.25 + i as f64,
            traceroutes: Arc::from(vec![TracerouteId(i)]),
            trigger_communities: vec![Community::new(64_512, 1)],
        }
    }

    #[test]
    fn digest_detects_a_single_flipped_signal() {
        let log: Vec<StalenessSignal> = (0..50).map(signal).collect();
        let base = signal_digest(&log);
        assert_eq!(base, signal_digest(&log), "digest is a pure function");

        let mut score = log.clone();
        score[31].score = f64::from_bits(score[31].score.to_bits() ^ 1);
        assert_ne!(signal_digest(&score), base, "one score bit");

        let mut tr = log.clone();
        tr[7].traceroutes = Arc::from(vec![TracerouteId(8)]);
        assert_ne!(signal_digest(&tr), base, "one traceroute id");

        let mut swapped = log.clone();
        swapped.swap(3, 4);
        assert_ne!(signal_digest(&swapped), base, "order matters");

        assert_ne!(signal_digest(&log[..49]), base, "a dropped signal");
    }

    #[test]
    fn outcome_check_names_the_first_mismatch() {
        let want = Outcome {
            rounds: 4,
            updates: 100,
            public: 0,
            signals: 9,
            digest: 0xfeed,
            checkpoint_crc: 0xabcd,
        };
        assert_eq!(want.check(&want), Ok(()));
        let err = want.check(&Outcome { digest: 0xfeee, ..want }).expect_err("digest differs");
        assert!(err.contains("signal-log digest"), "{err}");
        let err = want.check(&Outcome { checkpoint_crc: 1, ..want }).expect_err("crc differs");
        assert!(err.contains("checkpoint CRC"), "{err}");
        let err = want.check(&Outcome { rounds: 5, digest: 0, ..want }).expect_err("two differ");
        assert!(err.contains("rounds"), "{err}");
    }
}
