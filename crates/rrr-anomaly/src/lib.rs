//! Time-series outlier detection used by the staleness techniques.
//!
//! Two detectors, matching the paper's choices:
//!
//! - [`BitmapDetector`] — the assumption-free "chaos-game bitmap" detector of
//!   Wei et al. (SSDBM'05), used on BGP-derived series (§4.1.2),
//! - [`ModifiedZScore`] — the Iglewicz–Hoaglin modified z-score, used on the
//!   noisier traceroute-derived series (§4.2.1).
//!
//! Plus the [`MonitoredSeries`] container implementing the paper's series
//! hygiene: missing windows are never outliers, flagged windows are removed
//! to preserve stationarity (so persistent changes keep registering), and a
//! series is only eligible once it has 20 consecutive populated windows.

#![forbid(unsafe_code)]

pub mod bitmap;
pub mod series;
pub mod zscore;

pub use bitmap::BitmapDetector;
pub use series::{choose_window_duration, MonitoredSeries, SeriesVerdict, MIN_WINDOWS};
pub use zscore::ModifiedZScore;

/// A detector decides whether `candidate` is anomalous relative to
/// `history` (oldest first). Implementations must be deterministic.
pub trait OutlierDetector {
    /// `true` when the candidate is an outlier. Detectors should return
    /// `false` when the history is too short to judge.
    fn is_outlier(&self, history: &[f64], candidate: f64) -> bool;

    /// A confidence score (higher = more anomalous); used for tie-breaking
    /// signal priorities (§4.3.1 bootstrap). Default 0.
    fn score(&self, _history: &[f64], _candidate: f64) -> f64 {
        0.0
    }

    /// Verdict and score together: `Some(score)` exactly when
    /// [`Self::is_outlier`] holds. [`MonitoredSeries::push`] asks this once
    /// per value; a detector whose verdict is a threshold on its score
    /// overrides it to compute the score once.
    fn outlier_score(&self, history: &[f64], candidate: f64) -> Option<f64> {
        self.is_outlier(history, candidate).then(|| self.score(history, candidate))
    }
}
