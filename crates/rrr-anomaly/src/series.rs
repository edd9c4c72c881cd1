//! Monitored time series with the paper's hygiene rules.

use crate::OutlierDetector;
use rrr_types::{Duration, Timestamp, Window, WindowConfig};

/// Minimum consecutive populated windows before a series is eligible for
/// outlier detection (§4.2.1: "widely considered as the minimum recommended
/// number of observations for robust outlier detection").
pub const MIN_WINDOWS: usize = 20;

/// Result of feeding one window into a [`MonitoredSeries`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SeriesVerdict {
    /// The series does not yet have enough consecutive populated windows.
    NotReady,
    /// No data this window; missing values are never outliers (§4.1.2).
    Missing,
    /// In-distribution value, appended to the history.
    Normal,
    /// Outlier. The value is *not* appended, preserving stationarity so a
    /// persistent shift keeps registering as an outlier (§4.1.2).
    Outlier {
        /// Detector score (e.g. |modified z|), for signal prioritization.
        score: f64,
    },
}

impl SeriesVerdict {
    pub fn is_outlier(self) -> bool {
        matches!(self, SeriesVerdict::Outlier { .. })
    }
}

/// A per-key monitored series: accepts one optional value per window,
/// becomes eligible after [`MIN_WINDOWS`] consecutive populated windows,
/// then classifies each new value.
#[derive(Debug, Clone)]
pub struct MonitoredSeries {
    history: Vec<f64>,
    consecutive: usize,
    ready: bool,
    max_history: usize,
    absorb_outliers: bool,
}

impl Default for MonitoredSeries {
    fn default() -> Self {
        MonitoredSeries::new(256)
    }
}

impl MonitoredSeries {
    /// Creates a series keeping at most `max_history` accepted values.
    ///
    /// Eligibility counts populated windows, not stored values, so the cap
    /// may sit below [`MIN_WINDOWS`]: a series needs to keep only what its
    /// detector reads. A [`BitmapDetector`](crate::BitmapDetector) reads its
    /// [`tail_len`](crate::BitmapDetector::tail_len) newest values, and a
    /// series capped there gives the same verdicts, scores and
    /// [`Self::inert_under`] answers as one with any larger cap. A
    /// [`ModifiedZScore`](crate::ModifiedZScore) reads the whole history,
    /// so its cap is part of the detector. Panics when `max_history` is 0.
    pub fn new(max_history: usize) -> Self {
        assert!(max_history >= 1, "a series must keep at least one value");
        MonitoredSeries {
            history: Vec::new(),
            consecutive: 0,
            ready: false,
            max_history,
            absorb_outliers: false,
        }
    }

    /// Ablation switch: when `true`, outlier values are appended to the
    /// history instead of being removed — disabling the paper's
    /// stationarity-preservation rule, so persistent changes register only
    /// once (§4.1.2's level-shift discussion).
    pub fn with_absorb_outliers(mut self, absorb: bool) -> Self {
        self.absorb_outliers = absorb;
        self
    }

    /// Whether the eligibility threshold has been reached.
    pub fn ready(&self) -> bool {
        self.ready
    }

    /// Accepted (non-outlier) history, oldest first.
    pub fn history(&self) -> &[f64] {
        &self.history
    }

    /// The most recent accepted value.
    pub fn last_value(&self) -> Option<f64> {
        self.history.last().copied()
    }

    /// Feeds the value observed in one window.
    pub fn push<D: OutlierDetector>(&mut self, value: Option<f64>, det: &D) -> SeriesVerdict {
        let Some(v) = value else {
            if !self.ready {
                self.consecutive = 0;
            }
            return if self.ready { SeriesVerdict::Missing } else { SeriesVerdict::NotReady };
        };

        if !self.ready {
            self.history.push(v);
            self.consecutive += 1;
            if self.consecutive >= MIN_WINDOWS {
                self.ready = true;
            }
            self.trim();
            return SeriesVerdict::NotReady;
        }

        if let Some(score) = det.outlier_score(&self.history, v) {
            if self.absorb_outliers {
                self.history.push(v);
                self.trim();
            }
            SeriesVerdict::Outlier { score }
        } else {
            self.history.push(v);
            self.trim();
            SeriesVerdict::Normal
        }
    }

    fn trim(&mut self) {
        if self.history.len() > self.max_history {
            let excess = self.history.len() - self.max_history;
            self.history.drain(..excess);
        }
    }

    /// Populated-window run length so far (meaningful while `!ready()`).
    pub fn consecutive(&self) -> usize {
        self.consecutive
    }

    /// Length of the trailing run of history values bit-identical to `v`.
    pub fn trailing_run(&self, v: f64) -> usize {
        self.history.iter().rev().take_while(|x| x.to_bits() == v.to_bits()).count()
    }

    /// Whether feeding `value` into this series any number of further times
    /// is guaranteed to (a) never produce an [`SeriesVerdict::Outlier`] and
    /// (b) evolve the state exactly as [`MonitoredSeries::advance_constant`]
    /// does. `inert_tail` is the detector's guarantee threshold (e.g.
    /// [`BitmapDetector::inert_tail`](crate::BitmapDetector::inert_tail)):
    /// with at least that many trailing history values bit-identical to the
    /// candidate, the detector verdict is `Normal` — which appends the
    /// candidate, keeping the run (and thus the guarantee) intact.
    ///
    /// A `None` value is always inert: it never consults the detector and
    /// at most clears the eligibility counter once.
    pub fn inert_under(&self, value: Option<f64>, inert_tail: Option<usize>) -> bool {
        let Some(v) = value else { return true };
        let Some(need) = inert_tail else { return false };
        let run = self.trailing_run(v);
        if self.ready {
            run >= need
        } else {
            // Every push while `!ready` appends unconditionally; by the
            // time eligibility flips the run has grown by the remaining
            // warmup windows, and the first detector-consulted push needs
            // `need` equal values behind it.
            run + MIN_WINDOWS.saturating_sub(self.consecutive) >= need
        }
    }

    /// Applies `k` consecutive [`MonitoredSeries::push`] calls of the same
    /// `value` in O(min(k, max_history)) without consulting a detector.
    ///
    /// Callers must have established [`MonitoredSeries::inert_under`] for
    /// this value first (or pass `value = None`); otherwise the resulting
    /// state can diverge from `k` real pushes, because real pushes would
    /// have produced `Outlier` verdicts that do not append.
    pub fn advance_constant(&mut self, value: Option<f64>, k: u64) {
        if k == 0 {
            return;
        }
        let Some(v) = value else {
            // Missing windows: no history change; only the warmup run
            // resets, and doing so once is idempotent.
            if !self.ready {
                self.consecutive = 0;
            }
            return;
        };
        let mut k = k as usize;
        if !self.ready {
            let pre = (MIN_WINDOWS - self.consecutive).min(k);
            self.history.extend(std::iter::repeat_n(v, pre));
            self.consecutive += pre;
            if self.consecutive >= MIN_WINDOWS {
                self.ready = true;
            }
            self.trim();
            k -= pre;
            if k == 0 {
                return;
            }
        }
        // Ready: each push is (by the inertness precondition) `Normal`, so
        // the net effect of k pushes is k appends followed by trimming.
        if k >= self.max_history {
            self.history.clear();
            self.history.extend(std::iter::repeat_n(v, self.max_history));
        } else {
            self.history.extend(std::iter::repeat_n(v, k));
            self.trim();
        }
    }
}

// Checkpoint serialization lives next to the fields it captures: the
// history buffer *is* the detector's memory, so a restored series must
// carry every accepted value plus the eligibility counters bit-for-bit.
impl rrr_store::Persist for MonitoredSeries {
    fn store<W: std::io::Write>(
        &self,
        e: &mut rrr_store::Encoder<W>,
    ) -> Result<(), rrr_store::StoreError> {
        self.history.store(e)?;
        self.consecutive.store(e)?;
        self.ready.store(e)?;
        self.max_history.store(e)?;
        self.absorb_outliers.store(e)
    }
    /// Rejects the two states [`MonitoredSeries::new`] and `trim` rule out:
    /// a zero cap (a detector that never gets its tail, so never flags) and
    /// a history longer than its cap. The cap itself is kept as stored.
    fn load<R: std::io::Read>(
        d: &mut rrr_store::Decoder<R>,
    ) -> Result<Self, rrr_store::StoreError> {
        let history: Vec<f64> = rrr_store::Persist::load(d)?;
        let consecutive = rrr_store::Persist::load(d)?;
        let ready = rrr_store::Persist::load(d)?;
        let max_history: usize = rrr_store::Persist::load(d)?;
        if max_history == 0 {
            return Err(d.corrupt("series history cap is zero"));
        }
        if history.len() > max_history {
            return Err(d.corrupt("series history longer than its cap"));
        }
        Ok(MonitoredSeries {
            history,
            consecutive,
            ready,
            max_history,
            absorb_outliers: rrr_store::Persist::load(d)?,
        })
    }
}

/// Candidate window durations for traceroute-derived series (§4.2.1):
/// 15 minutes up to 24 hours.
pub const WINDOW_CANDIDATES: &[Duration] = &[
    Duration::minutes(15),
    Duration::minutes(30),
    Duration::hours(1),
    Duration::hours(2),
    Duration::hours(4),
    Duration::hours(8),
    Duration::hours(12),
    Duration::hours(24),
];

/// Selects the smallest candidate duration for which the observation
/// timestamps contain at least [`MIN_WINDOWS`] *consecutive* populated
/// windows (§4.2.1). Returns `None` when even 24-hour windows cannot
/// satisfy the rule.
pub fn choose_window_duration(timestamps: &[Timestamp]) -> Option<Duration> {
    if timestamps.is_empty() {
        return None;
    }
    for &d in WINDOW_CANDIDATES {
        let cfg = WindowConfig::new(d);
        let mut windows: Vec<Window> = timestamps.iter().map(|&t| cfg.window_of(t)).collect();
        windows.sort_unstable();
        windows.dedup();
        let mut run = 1usize;
        for w in windows.windows(2) {
            if w[1].index() == w[0].index() + 1 {
                run += 1;
            } else {
                run = 1;
            }
            if run >= MIN_WINDOWS {
                return Some(d);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModifiedZScore;

    #[test]
    fn not_ready_until_twenty_consecutive() {
        let det = ModifiedZScore::default();
        let mut s = MonitoredSeries::default();
        for i in 0..19 {
            assert_eq!(s.push(Some(1.0 + (i % 2) as f64 * 0.01), &det), SeriesVerdict::NotReady);
            assert!(!s.ready());
        }
        assert_eq!(s.push(Some(1.0), &det), SeriesVerdict::NotReady);
        assert!(s.ready());
        assert_eq!(s.push(Some(1.0), &det), SeriesVerdict::Normal);
    }

    #[test]
    fn missing_resets_eligibility_run() {
        let det = ModifiedZScore::default();
        let mut s = MonitoredSeries::default();
        for _ in 0..15 {
            s.push(Some(1.0), &det);
        }
        assert_eq!(s.push(None, &det), SeriesVerdict::NotReady);
        for _ in 0..19 {
            assert!(!s.ready());
            s.push(Some(1.0), &det);
        }
        // 19 after the gap: one more makes 20 consecutive.
        assert!(!s.ready());
        s.push(Some(1.0), &det);
        assert!(s.ready());
    }

    #[test]
    fn missing_after_ready_is_missing_not_outlier() {
        let det = ModifiedZScore::default();
        let mut s = MonitoredSeries::default();
        for i in 0..25 {
            s.push(Some(1.0 + 0.01 * ((i % 3) as f64)), &det);
        }
        assert!(s.ready());
        assert_eq!(s.push(None, &det), SeriesVerdict::Missing);
        assert!(s.ready(), "eligibility survives gaps once established");
    }

    #[test]
    fn outlier_not_appended_so_persistent_shift_keeps_firing() {
        let det = ModifiedZScore::default();
        let mut s = MonitoredSeries::default();
        for i in 0..30 {
            s.push(Some(1.0 + 0.01 * ((i % 3) as f64)), &det);
        }
        // A persistent level shift to 0.0 keeps registering.
        for _ in 0..10 {
            let v = s.push(Some(0.0), &det);
            assert!(v.is_outlier(), "stationarity removal failed: {v:?}");
        }
        // And normal values still pass.
        assert_eq!(s.push(Some(1.0), &det), SeriesVerdict::Normal);
    }

    #[test]
    fn absorbing_mode_stops_refiring_on_level_shift() {
        let det = ModifiedZScore::default();
        let mut s = MonitoredSeries::new(128).with_absorb_outliers(true);
        for i in 0..30 {
            s.push(Some(1.0 + 0.01 * ((i % 3) as f64)), &det);
        }
        // Once absorbed zeros dominate the history the detector adapts and
        // stops flagging the new level — unlike the default (stationarity-
        // preserving) mode, which would fire on every one of these.
        let mut fired = 0;
        for _ in 0..45 {
            if s.push(Some(0.0), &det).is_outlier() {
                fired += 1;
            }
        }
        assert!(fired >= 1, "the shift itself must fire");
        assert!(fired < 40, "absorbed level shift must eventually stop firing");
    }

    #[test]
    fn history_bounded() {
        let det = ModifiedZScore::default();
        let mut s = MonitoredSeries::new(32);
        for i in 0..200 {
            s.push(Some((i % 7) as f64), &det);
        }
        assert!(s.history().len() <= 32);
        assert_eq!(s.last_value(), Some((199 % 7) as f64));
    }

    #[test]
    fn a_cap_below_the_warmup_still_warms_up_on_windows() {
        let det = ModifiedZScore::default();
        let mut s = MonitoredSeries::new(1);
        for i in 0..MIN_WINDOWS {
            assert!(!s.ready());
            assert_eq!(s.push(Some(i as f64), &det), SeriesVerdict::NotReady);
            assert_eq!(s.history(), &[i as f64]);
        }
        assert!(s.ready());
    }

    /// A series payload as `store` lays it out, with any cap and history.
    fn payload(history: &[f64], max_history: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut e = rrr_store::Encoder::new(&mut buf);
        let consecutive = history.len();
        rrr_store::Persist::store(&history.to_vec(), &mut e).expect("to memory");
        rrr_store::Persist::store(&consecutive, &mut e).expect("to memory");
        rrr_store::Persist::store(&true, &mut e).expect("to memory");
        rrr_store::Persist::store(&max_history, &mut e).expect("to memory");
        rrr_store::Persist::store(&false, &mut e).expect("to memory");
        buf
    }

    #[test]
    fn load_rejects_a_zero_cap_and_a_history_past_its_cap() {
        let load = |bytes: &[u8]| rrr_store::from_payload::<MonitoredSeries>(bytes);
        let corrupt = |r: Result<MonitoredSeries, rrr_store::StoreError>, why: &str| match r {
            Err(rrr_store::StoreError::Corrupt { what, .. }) => {
                assert!(what.contains(why), "{what}")
            }
            other => panic!("expected Corrupt({why}), got {other:?}"),
        };
        corrupt(load(&payload(&[], 0)), "zero");
        corrupt(load(&payload(&[1.0; 17], 16)), "longer than its cap");

        // At the cap, and below it, the series loads as stored: the cap is
        // not clamped, so it re-serializes to the same bytes.
        for (history, cap) in [(&[1.0; 16][..], 16), (&[2.0; 3][..], 256), (&[][..], 1)] {
            let bytes = payload(history, cap);
            let s = load(&bytes).expect("a valid series loads");
            assert_eq!(s.history(), history);
            assert_eq!(rrr_store::to_payload(&s).expect("to memory"), bytes);
        }
    }

    #[test]
    fn choose_window_small_gap_free_series() {
        // One observation every 15 minutes for 6 hours: 24 populated
        // 15-minute windows → the smallest candidate wins.
        let ts: Vec<Timestamp> = (0..24).map(|i| Timestamp(i * 900)).collect();
        assert_eq!(choose_window_duration(&ts), Some(Duration::minutes(15)));
    }

    #[test]
    fn choose_window_sparse_series_needs_wider_window() {
        // One observation every 2 hours: 15-minute windows can't give 20
        // consecutive, 2-hour windows can.
        let ts: Vec<Timestamp> = (0..40).map(|i| Timestamp(i * 7200)).collect();
        let d = choose_window_duration(&ts).expect("2h windows qualify");
        assert!(d >= Duration::hours(2));
        assert!(d <= Duration::hours(24));
    }

    #[test]
    fn choose_window_hopeless_series() {
        // Observations 3 days apart: even 24h windows lack 20 consecutive.
        let ts: Vec<Timestamp> = (0..10).map(|i| Timestamp(i * 3 * 86_400)).collect();
        assert_eq!(choose_window_duration(&ts), None);
        assert_eq!(choose_window_duration(&[]), None);
    }
}
