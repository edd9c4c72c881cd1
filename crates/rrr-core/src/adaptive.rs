//! Per-monitor adaptive windowing for traceroute-derived series (§4.2.1):
//! each monitor picks the smallest window duration that yields 20
//! consecutive populated windows, then aggregates match/intersect counts
//! per window and feeds the ratio series to an outlier detector.

use rrr_anomaly::{choose_window_duration, MonitoredSeries, OutlierDetector, SeriesVerdict};
use rrr_store::{Decoder, Encoder, Persist, StoreError};
use rrr_types::{Duration, Timestamp, Window, WindowConfig};
use std::collections::BTreeSet;

/// How many buffered observations trigger a window-duration decision.
const DECIDE_AFTER_OBS: usize = 48;
/// Windows with fewer observations than this are treated as missing: a
/// ratio computed from one or two traceroutes is sampling noise, not a
/// frequency shift (§4.2's "shifts in the relative frequency" framing).
const MIN_OBS_PER_WINDOW: u32 = 2;
/// Give up on monitors whose data can never satisfy the 20-window rule
/// after this much accumulation (the paper caps accumulation at 20 days).
const GIVE_UP_AFTER: Duration = Duration::days(20);

/// One ratio observation: did the observed path match the monitored one?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Obs {
    pub time: Timestamp,
    pub matched: bool,
}

/// An outlier event emitted by [`AdaptiveSeries::flush_until`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatioOutlier {
    pub window: Window,
    pub time: Timestamp,
    pub score: f64,
    /// The anomalous ratio value.
    pub ratio: f64,
}

/// State machine: buffer observations → choose window duration → aggregate
/// per window → detect outliers.
#[derive(Debug, Clone)]
pub struct AdaptiveSeries {
    cfg: Option<WindowConfig>,
    buffer: Vec<Obs>,
    first_obs: Option<Timestamp>,
    gave_up: bool,
    /// Current open window and its counters.
    cur: Option<Window>,
    matched: u32,
    total: u32,
    series: MonitoredSeries,
    /// Ratio value of the most recent non-outlier window (for revocation
    /// checks).
    last_normal_ratio: Option<f64>,
    /// Number of windows accepted as Normal since eligibility — revocation
    /// logic watches this advance.
    normal_count: u64,
    /// Transient: set whenever persisted state actually mutates, consumed
    /// by [`AdaptiveSeries::take_changed`] for exact delta dirty-tracking.
    /// Not serialized — a restored series starts clean.
    changed: bool,
    /// Transient: buffer length at the last window-duration decision that
    /// found none. The same buffer decides the same way, so until it grows
    /// only the give-up deadline can make another flush worth its while.
    /// Not serialized — a restored series simply tries once more.
    undecided_at: usize,
}

impl Default for AdaptiveSeries {
    fn default() -> Self {
        AdaptiveSeries::new()
    }
}

impl Persist for Obs {
    fn store<W: std::io::Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        self.time.store(e)?;
        self.matched.store(e)
    }
    fn load<R: std::io::Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        Ok(Obs { time: Persist::load(d)?, matched: Persist::load(d)? })
    }
}

// The buffer order matters until the next flush sorts it, so it is kept
// verbatim; everything else is plain counters and the underlying series.
impl Persist for AdaptiveSeries {
    fn store<W: std::io::Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        self.cfg.store(e)?;
        self.buffer.store(e)?;
        self.first_obs.store(e)?;
        self.gave_up.store(e)?;
        self.cur.store(e)?;
        self.matched.store(e)?;
        self.total.store(e)?;
        self.series.store(e)?;
        self.last_normal_ratio.store(e)?;
        self.normal_count.store(e)
    }
    fn load<R: std::io::Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        Ok(AdaptiveSeries {
            cfg: Persist::load(d)?,
            buffer: Persist::load(d)?,
            first_obs: Persist::load(d)?,
            gave_up: Persist::load(d)?,
            cur: Persist::load(d)?,
            matched: Persist::load(d)?,
            total: Persist::load(d)?,
            series: Persist::load(d)?,
            last_normal_ratio: Persist::load(d)?,
            normal_count: Persist::load(d)?,
            changed: false,
            undecided_at: 0,
        })
    }
}

impl AdaptiveSeries {
    pub fn new() -> Self {
        Self::with_absorb_outliers(false)
    }

    /// See [`MonitoredSeries::with_absorb_outliers`].
    pub fn with_absorb_outliers(absorb: bool) -> Self {
        AdaptiveSeries {
            cfg: None,
            buffer: Vec::new(),
            first_obs: None,
            gave_up: false,
            cur: None,
            matched: 0,
            total: 0,
            series: MonitoredSeries::default().with_absorb_outliers(absorb),
            last_normal_ratio: None,
            normal_count: 0,
            changed: false,
            undecided_at: 0,
        }
    }

    /// Whether the monitor is producing verdicts yet.
    pub fn ready(&self) -> bool {
        self.series.ready()
    }

    /// Whether the monitor was abandoned for lack of data density.
    pub fn gave_up(&self) -> bool {
        self.gave_up
    }

    /// Whether unflushed observations are buffered — a flush could mutate
    /// this series. Over-approximates (a flush may still be a no-op): a
    /// monitor can buffer below the decision threshold for a long time,
    /// so dirty tracking uses [`AdaptiveSeries::take_changed`] instead.
    pub fn pending(&self) -> bool {
        !self.buffer.is_empty() || self.cur.is_some()
    }

    /// Where a [`FlushSchedule`] files this series: the precondition of a
    /// [`AdaptiveSeries::flush_until`] that does something, split into the
    /// part that holds whatever the time and the part that waits for one.
    fn filing(&self) -> Filing {
        let undecided = !self.gave_up && self.cfg.is_none();
        Filing {
            ready: if self.gave_up {
                !self.buffer.is_empty()
            } else if undecided {
                self.buffer.len() >= DECIDE_AFTER_OBS && self.buffer.len() > self.undecided_at
            } else {
                self.pending()
            },
            give_up_clock: self.first_obs.filter(|_| undecided),
            changed: self.changed,
        }
    }

    /// Returns whether persisted state mutated since the last call, and
    /// clears the flag. Exact where [`AdaptiveSeries::pending`] merely
    /// over-approximates: a flush that only re-examined a static buffer
    /// does not report a change, so churn-proportional delta snapshots
    /// skip monitors that merely *held* data.
    pub fn take_changed(&mut self) -> bool {
        std::mem::take(&mut self.changed)
    }

    /// The chosen window duration, once decided.
    pub fn duration(&self) -> Option<Duration> {
        self.cfg.map(|c| c.duration)
    }

    /// Ratio of the most recent accepted (non-outlier) window.
    pub fn last_normal_ratio(&self) -> Option<f64> {
        self.last_normal_ratio
    }

    /// Number of windows accepted as in-distribution since eligibility.
    pub fn normal_count(&self) -> u64 {
        self.normal_count
    }

    /// Records one observation.
    pub fn push(&mut self, obs: Obs) {
        if self.gave_up {
            return;
        }
        self.first_obs.get_or_insert(obs.time);
        self.buffer.push(obs);
        self.changed = true;
    }

    /// Processes everything up to `now`, returning outliers detected in
    /// windows that closed. Call once per pipeline round.
    pub fn flush_until<D: OutlierDetector>(
        &mut self,
        now: Timestamp,
        det: &D,
    ) -> Vec<RatioOutlier> {
        let mut out = Vec::new();
        if self.gave_up {
            if !self.buffer.is_empty() {
                self.buffer.clear();
                self.changed = true;
            }
            return out;
        }

        // Phase 1: choose a window duration once enough data accumulated.
        if self.cfg.is_none() {
            let span_elapsed = self.first_obs.map(|f| now - f).unwrap_or(Duration(0));
            if self.buffer.len() >= DECIDE_AFTER_OBS || span_elapsed >= GIVE_UP_AFTER {
                let ts: Vec<Timestamp> = self.buffer.iter().map(|o| o.time).collect();
                match choose_window_duration(&ts) {
                    Some(d) => {
                        self.cfg = Some(WindowConfig::new(d));
                        self.changed = true;
                    }
                    None => {
                        self.undecided_at = self.buffer.len();
                        if span_elapsed >= GIVE_UP_AFTER {
                            self.gave_up = true;
                            self.buffer.clear();
                            self.changed = true;
                        }
                        return out;
                    }
                }
            } else {
                return out;
            }
        }
        let cfg = self.cfg.expect("set above");

        // Phase 2: drain buffered observations into windows, closing every
        // window that ends at or before `now`.
        if !self.buffer.is_sorted_by_key(|o| o.time) {
            self.buffer.sort_by_key(|o| o.time);
            self.changed = true;
        }
        let boundary = cfg.window_of(now);
        let buffered = self.buffer.len();
        let mut rest = Vec::new();
        for obs in std::mem::take(&mut self.buffer) {
            let w = cfg.window_of(obs.time);
            if w >= boundary {
                rest.push(obs);
                continue;
            }
            match self.cur {
                None => self.cur = Some(w),
                Some(cw) if w > cw => {
                    self.close_window(cw, cfg, det, &mut out);
                    // Emit Missing for skipped windows.
                    for missing in (cw.index() + 1)..w.index() {
                        let _ = self.series.push(None, det);
                        let _ = missing;
                    }
                    self.cur = Some(w);
                }
                Some(_) => {}
            }
            self.total += 1;
            if obs.matched {
                self.matched += 1;
            }
        }
        if rest.len() != buffered {
            self.changed = true;
        }
        self.buffer = rest;

        // Close the open window too if its end has passed.
        if let Some(cw) = self.cur {
            if cw < boundary && self.total > 0 {
                self.close_window(cw, cfg, det, &mut out);
                self.cur = None;
            }
        }
        out
    }

    fn close_window<D: OutlierDetector>(
        &mut self,
        w: Window,
        cfg: WindowConfig,
        det: &D,
        out: &mut Vec<RatioOutlier>,
    ) {
        self.changed = true;
        if self.total < MIN_OBS_PER_WINDOW {
            self.matched = 0;
            self.total = 0;
            let _ = self.series.push(None, det);
            return;
        }
        let ratio = self.matched as f64 / self.total as f64;
        self.matched = 0;
        self.total = 0;
        match self.series.push(Some(ratio), det) {
            SeriesVerdict::Outlier { score } => {
                let (_, end) = cfg.bounds(w);
                out.push(RatioOutlier { window: w, time: end, score, ratio });
            }
            SeriesVerdict::Normal => {
                self.last_normal_ratio = Some(ratio);
                self.normal_count += 1;
            }
            SeriesVerdict::NotReady => self.last_normal_ratio = Some(ratio),
            SeriesVerdict::Missing => {}
        }
    }
}

/// What a [`FlushSchedule`] knows about one series.
#[derive(Debug, Default, PartialEq)]
struct Filing {
    /// A flush at any time may do something: a gave-up series with
    /// leftovers to drop, a windowed series with data or an open window, an
    /// undecided series with enough observations to try for a window and
    /// more of them than at its last try. Over-approximates: the flush may
    /// still find nothing to do.
    ready: bool,
    /// First observation of a series still waiting for a window duration:
    /// [`GIVE_UP_AFTER`] past it a flush decides or gives up whatever the
    /// buffer holds.
    give_up_clock: Option<Timestamp>,
    /// The change flag is up.
    changed: bool,
}

/// Which series of one monitor family a flush has to visit — the ones
/// [`AdaptiveSeries::flush_until`] can do something for — so a flush costs
/// the series that are due, not the family. Series are named by their index
/// in the family. Every change to a series goes through
/// [`FlushSchedule::update`], which re-files it.
///
/// Transient and derived: never stored, [`FlushSchedule::rebuild`] recovers
/// it from the series after a load. The sets only have to be supersets of
/// what is due, since flushing a series that is not is a no-op.
#[derive(Debug, Default)]
pub(crate) struct FlushSchedule {
    /// Series filed as ready.
    ready: BTreeSet<usize>,
    /// Series with a give-up clock running, oldest first.
    undecided: BTreeSet<(Timestamp, usize)>,
    /// Series whose change flag went up since [`FlushSchedule::take_changed`].
    changed: Vec<usize>,
}

impl FlushSchedule {
    /// The schedule of a family in the state `series` yields.
    pub(crate) fn rebuild<'a>(series: impl Iterator<Item = &'a AdaptiveSeries>) -> Self {
        let mut sched = FlushSchedule::default();
        for (i, s) in series.enumerate() {
            sched.refile(i, Filing::default(), s.filing());
        }
        sched
    }

    /// Runs `f` (a push or a flush) on series `i` and re-files it.
    pub(crate) fn update<R>(
        &mut self,
        i: usize,
        s: &mut AdaptiveSeries,
        f: impl FnOnce(&mut AdaptiveSeries) -> R,
    ) -> R {
        let was = s.filing();
        let r = f(s);
        self.refile(i, was, s.filing());
        r
    }

    fn refile(&mut self, i: usize, was: Filing, now: Filing) {
        if now.ready && !was.ready {
            self.ready.insert(i);
        } else if was.ready && !now.ready {
            self.ready.remove(&i);
        }
        if now.give_up_clock != was.give_up_clock {
            if let Some(t) = was.give_up_clock {
                self.undecided.remove(&(t, i));
            }
            if let Some(t) = now.give_up_clock {
                self.undecided.insert((t, i));
            }
        }
        if now.changed && !was.changed {
            self.changed.push(i);
        }
    }

    /// The series to flush at `now`, ascending.
    pub(crate) fn due(&self, now: Timestamp) -> Vec<usize> {
        let mut due: Vec<usize> = self
            .undecided
            .iter()
            .take_while(|(first, _)| now - *first >= GIVE_UP_AFTER)
            .map(|&(_, i)| i)
            .collect();
        due.extend(&self.ready);
        due.sort_unstable();
        due.dedup();
        due
    }

    /// The series that may hold an untaken change flag; the list restarts
    /// empty.
    pub(crate) fn take_changed(&mut self) -> std::vec::Drain<'_, usize> {
        self.changed.drain(..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrr_anomaly::ModifiedZScore;

    fn fill(
        series: &mut AdaptiveSeries,
        det: &ModifiedZScore,
        rounds: u64,
        matched: bool,
    ) -> Vec<RatioOutlier> {
        let mut out = Vec::new();
        let base = 0u64;
        for r in 0..rounds {
            // 3 observations per 15-minute round
            for k in 0..3 {
                series.push(Obs { time: Timestamp(base + r * 900 + k * 100), matched });
            }
            out.extend(series.flush_until(Timestamp(base + (r + 1) * 900), det));
        }
        out
    }

    #[test]
    fn chooses_smallest_window_for_dense_data() {
        let det = ModifiedZScore::default();
        let mut s = AdaptiveSeries::new();
        let _ = fill(&mut s, &det, 30, true);
        assert_eq!(s.duration(), Some(Duration::minutes(15)));
        assert!(s.ready());
    }

    #[test]
    fn stable_match_then_shift_fires() {
        let det = ModifiedZScore::default();
        let mut s = AdaptiveSeries::new();
        let pre = fill(&mut s, &det, 40, true);
        assert!(pre.is_empty(), "stable period should not fire: {pre:?}");
        assert_eq!(s.last_normal_ratio(), Some(1.0));
        // Path changes: matches stop.
        let mut fired = Vec::new();
        for r in 40..50u64 {
            for k in 0..3 {
                s.push(Obs { time: Timestamp(r * 900 + k * 100), matched: false });
            }
            fired.extend(s.flush_until(Timestamp((r + 1) * 900), &det));
        }
        assert!(!fired.is_empty(), "level shift must fire");
        assert_eq!(fired[0].ratio, 0.0);
        // Stationarity: outliers not absorbed, so it keeps firing.
        assert!(fired.len() >= 5, "persistent change must keep firing: {}", fired.len());
    }

    #[test]
    fn sparse_data_chooses_wider_window() {
        let det = ModifiedZScore::default();
        let mut s = AdaptiveSeries::new();
        // one observation every 2 hours
        for r in 0..DECIDE_AFTER_OBS as u64 + 5 {
            s.push(Obs { time: Timestamp(r * 7200), matched: true });
            let _ = s.flush_until(Timestamp((r + 1) * 7200), &det);
        }
        let d = s.duration().expect("duration chosen");
        assert!(d >= Duration::hours(2));
    }

    #[test]
    fn hopeless_data_gives_up() {
        let det = ModifiedZScore::default();
        let mut s = AdaptiveSeries::new();
        // One observation every 3 days — never 20 consecutive windows.
        for r in 0..10u64 {
            s.push(Obs { time: Timestamp(r * 3 * 86_400), matched: true });
            let _ = s.flush_until(Timestamp((r + 1) * 3 * 86_400), &det);
        }
        assert!(s.gave_up());
        assert!(!s.ready());
        // Further pushes are no-ops.
        s.push(Obs { time: Timestamp(0), matched: true });
        assert!(s.flush_until(Timestamp(100 * 86_400), &det).is_empty());
    }

    #[test]
    fn open_window_not_closed_early() {
        let det = ModifiedZScore::default();
        let mut s = AdaptiveSeries::new();
        let _ = fill(&mut s, &det, 40, true);
        // Observations in the *current* (incomplete) window stay buffered.
        s.push(Obs { time: Timestamp(40 * 900 + 10), matched: false });
        let fired = s.flush_until(Timestamp(40 * 900 + 20), &det);
        assert!(fired.is_empty(), "window still open");
    }
}
