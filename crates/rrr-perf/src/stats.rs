//! Order statistics for benchmark samples: medians, quartiles, tail
//! percentiles, and the rule that picks the highest percentile a sample
//! count can support.

/// `(q1, median, q3)` by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// spreads this crate prints are the ones an outside checker computes.
/// `None` below two samples, where quartiles are undefined.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// The median; `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    match values {
        [] => None,
        [x] => Some(*x),
        _ => quartiles(values).map(|q| q.1),
    }
}

/// The arithmetic mean; `None` for an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Index of the nearest-rank `p`-th percentile in a sorted slice of `n`.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank percentile (`p` in `0..=100`); `None` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(v.len(), p)])
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, p)
    }
}

/// The highest of the usual tail percentiles that still has at least
/// `beyond` samples past it — a tail read off fewer samples is noise, not
/// a measurement. Falls back to the median.
pub fn supported_percentile(n: usize, beyond: usize) -> f64 {
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= beyond)
        .unwrap_or(50.0)
}

/// Median, quartiles and count of one metric's per-repeat values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarizes per-repeat values; `None` when there are none. With a
    /// single value the quartiles collapse onto it.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let median = median(values)?;
        let (q1, _, q3) = quartiles(values).unwrap_or((median, median, median));
        Some(Summary { median, q1, q3, n: values.len() })
    }

    /// A value computed once over pooled samples (a percentile, a peak):
    /// no spread of its own, `n` is the pooled sample count.
    pub fn single(value: f64, n: usize) -> Summary {
        Summary { median: value, q1: value, q3: value, n }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_and_mean_handle_small_inputs() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
        assert_eq!(median(&[4.0, 2.0]), Some(3.0));
        assert_eq!(median(&[9.0, 1.0, 5.0]), Some(5.0));
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 99.0), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 has exactly 10 beyond, p99.9 has 1.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(1000, 99.9), 1);
        assert_eq!(supported_percentile(1000, 10), 99.0);
        // 999 samples: p99 sits at rank 990, 9 beyond — drop to p95.
        assert_eq!(supported_percentile(999, 10), 95.0);
        assert_eq!(supported_percentile(20_000, 10), 99.9);
        assert_eq!(supported_percentile(12, 10), 50.0);
        assert_eq!(supported_percentile(0, 10), 50.0);
    }

    #[test]
    fn summary_reports_spread_as_share_of_median() {
        let s = Summary::of(&[10.0, 11.0, 9.0, 10.0, 10.0]).expect("samples");
        assert_eq!(s.median, 10.0);
        assert_eq!(s.n, 5);
        assert!((s.spread() - 0.1).abs() < 1e-12, "{}", s.spread());
        let one = Summary::of(&[3.0]).expect("one sample");
        assert_eq!((one.q1, one.median, one.q3), (3.0, 3.0, 3.0));
        assert_eq!(Summary::of(&[]), None);
    }
}
