//! The assumption-free "chaos-game bitmap" anomaly detector of Wei, Kumar,
//! Lolla, Keogh, Lonardi & Ratanamahatana (SSDBM 2005).
//!
//! The series is SAX-discretized into a small alphabet; a *lag* window (the
//! recent past) and a *lead* window (the newest values) are each summarized
//! by the frequency bitmap of their length-`L` subwords; the anomaly score
//! is the squared distance between the two normalized bitmaps. A large
//! distance means the newest values' local structure does not look like the
//! recent past.

use crate::OutlierDetector;

/// Chaos-game bitmap detector.
#[derive(Debug, Clone, Copy)]
pub struct BitmapDetector {
    /// Alphabet size for SAX discretization (the paper's authors recommend
    /// 4; cells beyond 8 explode the bitmap).
    pub alphabet: usize,
    /// Subword (feature) length; bitmap has `alphabet^word_len` cells.
    pub word_len: usize,
    /// Lag window length (history summarized).
    pub lag: usize,
    /// Lead window length (newest values summarized, including the
    /// candidate).
    pub lead: usize,
    /// Scores above this are outliers. Scores are normalized to `[0, 2]`
    /// (squared distance of two L1-normalized frequency vectors is at most
    /// 2 when they are disjoint).
    pub threshold: f64,
}

impl Default for BitmapDetector {
    fn default() -> Self {
        BitmapDetector { alphabet: 4, word_len: 2, lag: 16, lead: 4, threshold: 0.9 }
    }
}

impl BitmapDetector {
    /// A spike-sensitive parameterization: the lead window is the single
    /// newest value and features are level-1 (symbol histogram), so a value
    /// whose discretized symbol is rare in the lag window scores high. This
    /// is the right shape for the paper's per-window BGP series, where a
    /// change shows up as a one-window spike or dip (duplicate-update
    /// bursts, ratio collapses).
    pub fn spike() -> Self {
        BitmapDetector { alphabet: 4, word_len: 1, lag: 16, lead: 1, threshold: 1.0 }
    }

    /// The trailing-run length after which a series is *inert* under a
    /// constant: with at least this many history values bit-identical to
    /// the candidate, the full lag+lead tail is constant, every symbol
    /// discretizes identically, both bitmaps coincide, and the score is
    /// exactly 0 — which a non-negative threshold never flags. `None` when
    /// the threshold is negative (then even a zero score is an outlier, so
    /// no constant tail is safe).
    pub fn inert_tail(&self) -> Option<usize> {
        (self.threshold >= 0.0).then_some(self.tail_len())
    }

    /// How many history values a score reads: the newest `lag + lead - 1`,
    /// which the candidate completes to a full lag+lead window. A series
    /// scored only by this detector needs to keep no more than this.
    pub fn tail_len(&self) -> usize {
        (self.lag + self.lead).saturating_sub(1)
    }
}

impl rrr_store::Persist for BitmapDetector {
    fn store<W: std::io::Write>(
        &self,
        e: &mut rrr_store::Encoder<W>,
    ) -> Result<(), rrr_store::StoreError> {
        self.alphabet.store(e)?;
        self.word_len.store(e)?;
        self.lag.store(e)?;
        self.lead.store(e)?;
        self.threshold.store(e)
    }
    fn load<R: std::io::Read>(
        d: &mut rrr_store::Decoder<R>,
    ) -> Result<Self, rrr_store::StoreError> {
        Ok(BitmapDetector {
            alphabet: rrr_store::Persist::load(d)?,
            word_len: rrr_store::Persist::load(d)?,
            lag: rrr_store::Persist::load(d)?,
            lead: rrr_store::Persist::load(d)?,
            threshold: rrr_store::Persist::load(d)?,
        })
    }
}

/// Breakpoints dividing N(0,1) into equiprobable regions, for alphabet
/// sizes 2..=6 (standard SAX tables).
fn sax_breakpoints(alphabet: usize) -> &'static [f64] {
    match alphabet {
        2 => &[0.0],
        3 => &[-0.43, 0.43],
        4 => &[-0.6745, 0.0, 0.6745],
        5 => &[-0.84, -0.25, 0.25, 0.84],
        6 => &[-0.97, -0.43, 0.0, 0.43, 0.97],
        _ => panic!("unsupported alphabet size {alphabet} (use 2..=6)"),
    }
}

/// Scratch bounds for scoring without the heap: a lag+lead tail of at most
/// this many values and a bitmap of at most this many cells live in stack
/// arrays; a larger configuration scores through the same code over `Vec`s.
/// Both presets fit (20 and 17 values, 16 and 4 cells).
const STACK_TAIL: usize = 64;
const STACK_CELLS: usize = 64;

impl BitmapDetector {
    /// SAX-discretizes a series: z-normalize then bucket by breakpoints.
    /// A constant series maps entirely to symbol 0.
    pub fn discretize(&self, series: &[f64]) -> Vec<u8> {
        let mut symbols = vec![0u8; series.len()];
        self.discretize_into(series, &mut symbols);
        symbols
    }

    /// [`Self::discretize`] into a caller-provided buffer of the same length.
    fn discretize_into(&self, series: &[f64], symbols: &mut [u8]) {
        let n = series.len();
        if n == 0 {
            return;
        }
        let mean = series.iter().sum::<f64>() / n as f64;
        let var = series.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        let std = var.sqrt();
        let bps = sax_breakpoints(self.alphabet);
        for (&x, s) in series.iter().zip(symbols) {
            *s = if std < 1e-12 {
                0
            } else {
                let z = (x - mean) / std;
                bps.iter().take_while(|&&b| z > b).count() as u8
            };
        }
    }

    fn cells(&self) -> usize {
        self.alphabet.pow(self.word_len as u32)
    }

    /// Frequency bitmap of all length-`word_len` subwords, L1-normalized,
    /// into `counts` (zeroed, one slot per cell).
    fn bitmap_into(&self, symbols: &[u8], counts: &mut [f64]) {
        if symbols.len() < self.word_len {
            return;
        }
        for w in symbols.windows(self.word_len) {
            let mut idx = 0usize;
            for &s in w {
                idx = idx * self.alphabet + s as usize;
            }
            counts[idx] += 1.0;
        }
        let total: f64 = counts.iter().sum();
        if total > 0.0 {
            for c in counts.iter_mut() {
                *c /= total;
            }
        }
    }

    /// The anomaly score of the newest `lead` values of `series` against
    /// the preceding `lag` values. `None` when the series is too short.
    pub fn lead_lag_score(&self, series: &[f64]) -> Option<f64> {
        let need = self.lag + self.lead;
        if series.len() < need {
            return None;
        }
        Some(self.score_tail(&series[series.len() - need..]))
    }

    /// Score of exactly `lag + lead` values, scratch on the stack when the
    /// configuration fits.
    fn score_tail(&self, tail: &[f64]) -> f64 {
        let cells = self.cells();
        if tail.len() <= STACK_TAIL && cells <= STACK_CELLS {
            self.score_in(
                tail,
                &mut [0u8; STACK_TAIL][..tail.len()],
                &mut [0.0; STACK_CELLS][..cells],
                &mut [0.0; STACK_CELLS][..cells],
            )
        } else {
            self.score_in(
                tail,
                &mut vec![0u8; tail.len()],
                &mut vec![0.0; cells],
                &mut vec![0.0; cells],
            )
        }
    }

    fn score_in(&self, tail: &[f64], symbols: &mut [u8], a: &mut [f64], b: &mut [f64]) -> f64 {
        // Discretize lag+lead jointly so both windows share breakpoints.
        self.discretize_into(tail, symbols);
        let (lag_syms, lead_syms) = symbols.split_at(self.lag);
        self.bitmap_into(lag_syms, a);
        self.bitmap_into(lead_syms, b);
        a.iter().zip(b.iter()).map(|(x, y)| (x - y).powi(2)).sum()
    }

    /// The score of `candidate` behind the newest [`Self::tail_len`] values
    /// of `history`; `None` when the history is too short. Only that tail
    /// feeds the score, so only it is copied (next to the candidate, into a
    /// stack buffer when it fits), however much history the caller keeps.
    fn candidate_score(&self, history: &[f64], candidate: f64) -> Option<f64> {
        let need = self.lag + self.lead;
        let keep = self.tail_len();
        if history.len() < keep {
            return None;
        }
        let recent = &history[history.len() - keep..];
        // A tail of one repeated bit pattern — a quiet counter, a pinned
        // ratio: most series, most windows — discretizes to one repeated
        // symbol, so the two bitmaps coincide and the score is exactly 0.0;
        // unless only one of the windows is long enough to hold a word, and
        // the other's bitmap stays empty.
        if (self.lag >= self.word_len) == (self.lead >= self.word_len)
            && recent.iter().all(|x| x.to_bits() == candidate.to_bits())
        {
            return Some(0.0);
        }
        // (`lag + lead == 0` left through that exit, so `keep == need - 1`.)
        if need <= STACK_TAIL {
            let mut buf = [0.0f64; STACK_TAIL];
            buf[..keep].copy_from_slice(recent);
            buf[keep] = candidate;
            Some(self.score_tail(&buf[..need]))
        } else {
            let mut buf = Vec::with_capacity(need);
            buf.extend_from_slice(recent);
            buf.push(candidate);
            Some(self.score_tail(&buf))
        }
    }
}

impl OutlierDetector for BitmapDetector {
    fn is_outlier(&self, history: &[f64], candidate: f64) -> bool {
        self.outlier_score(history, candidate).is_some()
    }

    fn score(&self, history: &[f64], candidate: f64) -> f64 {
        self.candidate_score(history, candidate).unwrap_or(0.0)
    }

    fn outlier_score(&self, history: &[f64], candidate: f64) -> Option<f64> {
        self.candidate_score(history, candidate).filter(|s| *s > self.threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector() -> BitmapDetector {
        BitmapDetector::default()
    }

    #[test]
    fn discretize_monotone() {
        let d = detector();
        let syms = d.discretize(&[-2.0, -0.5, 0.5, 2.0]);
        // Symbols must be non-decreasing with the values.
        for w in syms.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert!(syms.iter().all(|&s| (s as usize) < d.alphabet));
    }

    #[test]
    fn constant_series_not_anomalous() {
        let d = detector();
        let hist = vec![0.8; 30];
        assert!(!d.is_outlier(&hist, 0.8));
    }

    #[test]
    fn level_shift_detected() {
        let d = detector();
        // Stable ratio near 1.0 for a long time, then a collapse to 0.
        let mut hist: Vec<f64> = (0..40).map(|i| 0.95 + 0.01 * ((i % 4) as f64)).collect();
        assert!(!d.is_outlier(&hist, 0.96), "in-distribution value flagged");
        // Push the shift into the lead window.
        hist.extend_from_slice(&[0.0, 0.0, 0.0]);
        assert!(d.is_outlier(&hist, 0.0), "level shift missed");
    }

    #[test]
    fn noise_not_flagged_shift_flagged() {
        let d = detector();
        // alternating-ish but stationary noise
        let hist: Vec<f64> =
            (0..60).map(|i| 0.5 + 0.05 * ((i * 7 % 11) as f64 / 11.0 - 0.5)).collect();
        assert!(!d.is_outlier(&hist, 0.52));
        let mut shifted = hist.clone();
        shifted.extend_from_slice(&[1.5, 1.5, 1.5]);
        assert!(d.is_outlier(&shifted, 1.5));
    }

    #[test]
    fn score_increases_with_structural_difference() {
        let d = detector();
        let base: Vec<f64> = (0..40).map(|i| (i % 2) as f64).collect();
        let mild = d.score(&base, 1.0);
        let mut broken = base.clone();
        broken.extend_from_slice(&[5.0, 5.0, 5.0]);
        let severe = d.score(&broken, 5.0);
        assert!(severe > mild, "severe {severe} <= mild {mild}");
    }

    #[test]
    fn spike_preset_flags_single_window_events() {
        let d = BitmapDetector::spike();
        // Constant-zero history (a quiet duplicate-update counter), then a
        // burst of 2 in one window.
        let hist = vec![0.0; 30];
        assert!(d.is_outlier(&hist, 2.0), "single-window burst missed");
        assert!(!d.is_outlier(&hist, 0.0));
        // Ratio series pinned at 1.0, collapsing once.
        let hist = vec![1.0; 30];
        assert!(d.is_outlier(&hist, 0.0));
        // Bimodal but stationary noise is tolerated.
        let hist: Vec<f64> = (0..30).map(|i| if i % 2 == 0 { 0.4 } else { 0.6 }).collect();
        assert!(!d.is_outlier(&hist, 0.4));
        assert!(!d.is_outlier(&hist, 0.6));
    }

    #[test]
    fn too_short_never_flags() {
        let d = detector();
        assert!(!d.is_outlier(&[1.0; 5], 100.0));
        assert_eq!(d.lead_lag_score(&[1.0; 5]), None);
    }

    #[test]
    fn bitmap_cells_and_normalization() {
        let d = detector();
        let syms = vec![0u8, 1, 2, 3, 0, 1, 2, 3];
        let mut bm = vec![0.0; d.cells()];
        d.bitmap_into(&syms, &mut bm);
        assert_eq!(bm.len(), 16);
        let sum: f64 = bm.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn oversized_alphabet_panics() {
        let d = BitmapDetector { alphabet: 9, ..Default::default() };
        let _ = d.discretize(&[1.0, 2.0]);
    }
}

/// Offline sliding scorer: the lead/lag anomaly score at every eligible
/// index of a series (useful for post-hoc analysis and plotting; the online
/// pipeline uses [`crate::MonitoredSeries`] instead).
impl BitmapDetector {
    pub fn score_series(&self, series: &[f64]) -> Vec<Option<f64>> {
        (0..series.len()).map(|i| self.lead_lag_score(&series[..=i])).collect()
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::{MonitoredSeries, OutlierDetector};
    use proptest::prelude::*;

    /// The scorer as it stood before the stack buffers and the constant-run
    /// exit: every intermediate in its own `Vec`. The oracle the new path
    /// must match bit for bit.
    fn reference_score(d: &BitmapDetector, series: &[f64]) -> Option<f64> {
        fn bitmap(d: &BitmapDetector, symbols: &[u8]) -> Vec<f64> {
            let mut counts = vec![0.0f64; d.alphabet.pow(d.word_len as u32)];
            if symbols.len() < d.word_len {
                return counts;
            }
            for w in symbols.windows(d.word_len) {
                let idx = w.iter().fold(0usize, |idx, &s| idx * d.alphabet + s as usize);
                counts[idx] += 1.0;
            }
            let total: f64 = counts.iter().sum();
            if total > 0.0 {
                counts.iter_mut().for_each(|c| *c /= total);
            }
            counts
        }
        let need = d.lag + d.lead;
        if series.len() < need {
            return None;
        }
        let tail = &series[series.len() - need..];
        let n = tail.len() as f64;
        let mean = tail.iter().sum::<f64>() / n;
        let std = (tail.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n).sqrt();
        let bps = sax_breakpoints(d.alphabet);
        let symbols: Vec<u8> = tail
            .iter()
            .map(|&x| {
                if std < 1e-12 {
                    return 0u8;
                }
                let z = (x - mean) / std;
                bps.iter().take_while(|&&b| z > b).count() as u8
            })
            .collect();
        let (lag_syms, lead_syms) = symbols.split_at(d.lag);
        let (a, b) = (bitmap(d, lag_syms), bitmap(d, lead_syms));
        Some(a.iter().zip(&b).map(|(x, y)| (x - y).powi(2)).sum())
    }

    /// `is_outlier` then `score`, as `MonitoredSeries::push` used to ask:
    /// hides the detector's own `outlier_score` behind the trait default.
    struct TwoCalls(BitmapDetector);

    impl OutlierDetector for TwoCalls {
        fn is_outlier(&self, history: &[f64], candidate: f64) -> bool {
            reference_score(&self.0, &[history, &[candidate]].concat())
                .is_some_and(|s| s > self.0.threshold)
        }
        fn score(&self, history: &[f64], candidate: f64) -> f64 {
            reference_score(&self.0, &[history, &[candidate]].concat()).unwrap_or(0.0)
        }
    }

    /// Default, spike, one past the stack bounds on both counts (216 cells,
    /// 70-value tail), and one whose lead cannot hold a word — the case the
    /// constant-run exit has to leave alone.
    fn configurations() -> [BitmapDetector; 4] {
        [
            BitmapDetector::default(),
            BitmapDetector::spike(),
            BitmapDetector { alphabet: 6, word_len: 3, lag: 60, lead: 10, threshold: 0.5 },
            BitmapDetector { alphabet: 3, word_len: 2, lag: 8, lead: 1, threshold: 0.5 },
        ]
    }

    /// Random, constant-tail, two-level and single-spike shapes, chosen by
    /// `shape`, over the same noise.
    fn shaped(shape: u8, noise: &[f64], level: f64) -> Vec<f64> {
        let n = noise.len();
        noise
            .iter()
            .enumerate()
            .map(|(i, &x)| match shape % 4 {
                0 => x,
                1 if i >= n / 3 => level,
                1 => x,
                2 => {
                    if x > 0.0 {
                        level
                    } else {
                        -level
                    }
                }
                _ if i == n - 1 - (level.abs() as usize % 3) => level * 50.0,
                _ => (level * 4.0).round() / 4.0,
            })
            .collect()
    }

    proptest! {
        /// Every prefix of every shape scores to the same bits as the
        /// all-`Vec` reference, in every configuration.
        #[test]
        fn scoring_is_bit_identical_to_the_reference(
            noise in proptest::collection::vec(-10.0f64..10.0, 1..120),
            level in -12.0f64..12.0,
            shape in 0u8..4,
        ) {
            let series = shaped(shape, &noise, level);
            for d in configurations() {
                for end in 0..=series.len() {
                    let got = d.lead_lag_score(&series[..end]).map(f64::to_bits);
                    let want = reference_score(&d, &series[..end]).map(f64::to_bits);
                    prop_assert_eq!(got, want, "{:?} at {}", d, end);
                }
                // The history/candidate entry points agree with it too.
                let (candidate, history) = series.split_last().expect("non-empty");
                let want = reference_score(&d, &series);
                prop_assert_eq!(
                    d.score(history, *candidate).to_bits(),
                    want.unwrap_or(0.0).to_bits()
                );
                prop_assert_eq!(
                    d.outlier_score(history, *candidate).map(f64::to_bits),
                    want.filter(|s| *s > d.threshold).map(f64::to_bits)
                );
                prop_assert_eq!(d.is_outlier(history, *candidate), want.is_some_and(|s| s > d.threshold));
            }
        }

        /// `push` through the one-computation `outlier_score` yields the
        /// verdicts, scores and history of the `is_outlier`-then-`score`
        /// form, gaps and absorbed outliers included.
        #[test]
        fn push_matches_the_two_call_form(
            noise in proptest::collection::vec(-10.0f64..10.0, 30..160),
            level in -12.0f64..12.0,
            shape in 0u8..4,
            absorb in 0u8..2,
        ) {
            let series = shaped(shape, &noise, level);
            for d in configurations() {
                let mut one = MonitoredSeries::default().with_absorb_outliers(absorb == 1);
                let mut two = one.clone();
                for (i, &v) in series.iter().enumerate() {
                    // A gap now and then, not so often that nothing warms up.
                    let v = (i % 41 != 40).then_some(v);
                    let (a, b) = (one.push(v, &d), two.push(v, &TwoCalls(d)));
                    match (a, b) {
                        (
                            crate::SeriesVerdict::Outlier { score: x },
                            crate::SeriesVerdict::Outlier { score: y },
                        ) => prop_assert_eq!(x.to_bits(), y.to_bits()),
                        _ => prop_assert_eq!(a, b),
                    }
                }
                let bits = |s: &MonitoredSeries| s.history().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&one), bits(&two));
            }
        }

        /// A series capped at the detector's `tail_len` answers as a
        /// 256-value one does: the same verdicts, score bits, eligibility and
        /// `inert_under` answers, across gaps, absorbed outliers and
        /// closed-form `advance_constant` runs; and it holds exactly the
        /// newest values of the longer one.
        #[test]
        fn a_series_capped_at_the_scored_tail_answers_like_a_long_one(
            noise in proptest::collection::vec(-10.0f64..10.0, 30..160),
            level in -12.0f64..12.0,
            shape in 0u8..4,
            absorb in 0u8..2,
            runs in proptest::collection::vec(0u64..40, 1..8),
        ) {
            let series = shaped(shape, &noise, level);
            let bits = |h: &[f64]| h.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for d in configurations() {
                let need = d.inert_tail();
                let mut short =
                    MonitoredSeries::new(d.tail_len()).with_absorb_outliers(absorb == 1);
                let mut long = MonitoredSeries::new(256).with_absorb_outliers(absorb == 1);
                for (i, &x) in series.iter().enumerate() {
                    let v = (i % 41 != 40).then_some(x);
                    for probe in [v, Some(level), None] {
                        prop_assert_eq!(
                            short.inert_under(probe, need),
                            long.inert_under(probe, need),
                            "{:?} at {}", d, i
                        );
                    }
                    // Now and then the closed-form catch-up a parked monitor
                    // gets, where its precondition holds.
                    if i % 13 == 12 && (v.is_none() || long.inert_under(v, need)) {
                        let k = runs[i / 13 % runs.len()];
                        short.advance_constant(v, k);
                        long.advance_constant(v, k);
                    }
                    match (short.push(v, &d), long.push(v, &d)) {
                        (
                            crate::SeriesVerdict::Outlier { score: a },
                            crate::SeriesVerdict::Outlier { score: b },
                        ) => prop_assert_eq!(a.to_bits(), b.to_bits()),
                        (a, b) => prop_assert_eq!(a, b, "{:?} at {}", d, i),
                    }
                    prop_assert_eq!(short.ready(), long.ready());
                    let (s, l) = (short.history(), long.history());
                    prop_assert_eq!(s.len(), l.len().min(d.tail_len()));
                    prop_assert_eq!(bits(s), bits(&l[l.len() - s.len()..]));
                }
            }
        }

        /// Scores are finite and bounded by 2 (squared distance of two
        /// L1-normalized vectors), for arbitrary finite series.
        #[test]
        fn scores_bounded(series in proptest::collection::vec(-100.0f64..100.0, 0..80)) {
            let d = BitmapDetector::default();
            for s in d.score_series(&series).into_iter().flatten() {
                prop_assert!(s.is_finite());
                prop_assert!((0.0..=2.0 + 1e-9).contains(&s));
            }
        }

        /// Shifting and scaling a series never changes its discretization
        /// (z-normalization invariance), hence not its scores.
        #[test]
        fn affine_invariance(
            series in proptest::collection::vec(-10.0f64..10.0, 24..48),
            shift in -50.0f64..50.0,
            scale in 0.1f64..10.0,
        ) {
            let d = BitmapDetector::default();
            let transformed: Vec<f64> = series.iter().map(|x| x * scale + shift).collect();
            let a = d.score_series(&series);
            let b = d.score_series(&transformed);
            for (x, y) in a.iter().zip(&b) {
                match (x, y) {
                    (Some(x), Some(y)) => prop_assert!((x - y).abs() < 1e-6),
                    (None, None) => {}
                    other => prop_assert!(false, "eligibility mismatch {other:?}"),
                }
            }
        }

        /// A constant series never flags, regardless of its level.
        #[test]
        fn constant_never_flags(level in -100.0f64..100.0, n in 21usize..60) {
            let d = BitmapDetector::default();
            let hist = vec![level; n];
            prop_assert!(!d.is_outlier(&hist, level));
            let spike = BitmapDetector::spike();
            prop_assert!(!spike.is_outlier(&hist, level));
        }
    }
}
