//! Zero-overhead observability: a lock-free metrics registry, timing spans,
//! and a Prometheus-style text exposition formatter.
//!
//! Design goals (DESIGN.md §13):
//!
//! * **One relaxed atomic add per event.** Counters are sharded across
//!   cache-line-padded cells so concurrent writers on different cores do not
//!   contend; reads sum the shards.
//! * **Disabled means gone.** A [`Metrics`] handle is a thin
//!   `Option<Arc<MetricsRegistry>>`. When disabled, every derived handle
//!   ([`Counter`], [`Gauge`], [`Histogram`]) carries `None` and each
//!   `inc`/`record` call is a single predictable branch — no allocation, no
//!   clock read, no atomic. This is the `NoopSink` from the issue: the
//!   disabled path compiles to (almost) nothing.
//! * **Provably inert.** Metric state lives entirely outside detector state:
//!   it is never checkpointed, never hashed into `cfg_fingerprint`, and never
//!   consulted by the pipeline. `tests/metrics_inertness.rs` asserts
//!   bit-identical signal logs and checkpoint bytes with metrics on vs. off.
//!
//! Naming conventions: `rrr_<layer>_<what>_total` for counters,
//! `rrr_<layer>_<what>` for gauges, `rrr_<layer>_<stage>_ns` for latency
//! histograms. Labels are baked into the registry key verbatim, e.g.
//! `rrr_detector_steps_total{part="0"}`.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Number of padded cells a counter is sharded over. Eight cells cover the
/// worker-thread counts we actually run (1/2/8) without wasting a page per
/// counter.
const SHARDS: usize = 8;

/// Number of power-of-two histogram buckets. Bucket `i` holds values `v`
/// with `floor(log2(max(v, 1))) == i`, so bucket upper bounds are
/// `2^(i+1) - 1`; 64 buckets cover the full `u64` range.
const BUCKETS: usize = 64;

#[repr(align(64))]
#[derive(Default)]
struct PaddedCell(AtomicU64);

fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
    }
    SHARD.with(|s| {
        let mut v = s.get();
        if v == usize::MAX {
            v = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
            s.set(v);
        }
        v
    })
}

#[derive(Default)]
struct CounterCells {
    shards: [PaddedCell; SHARDS],
}

impl CounterCells {
    fn add(&self, v: u64) {
        self.shards[shard_index()].0.fetch_add(v, Ordering::Relaxed);
    }

    fn value(&self) -> u64 {
        self.shards.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }
}

struct HistCells {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for HistCells {
    fn default() -> Self {
        HistCells {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl HistCells {
    fn record(&self, v: u64) {
        let idx = 63 - v.max(1).leading_zeros() as usize;
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    fn counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }
}

enum Slot {
    Counter(Arc<CounterCells>),
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<HistCells>),
}

impl Slot {
    fn kind(&self) -> &'static str {
        match self {
            Slot::Counter(_) => "counter",
            Slot::Gauge(_) => "gauge",
            Slot::Histogram(_) => "histogram",
        }
    }
}

/// A registry of named metrics. Registration (`counter`/`gauge`/`histogram`)
/// takes a lock and is expected to happen at setup time; the returned handles
/// are lock-free. Registering the same name twice returns handles to the same
/// underlying cells, so re-installing metrics (e.g. after a detector restore)
/// resumes the existing series.
#[derive(Default)]
pub struct MetricsRegistry {
    slots: Mutex<BTreeMap<String, Slot>>,
}

/// A cloneable on/off handle to a [`MetricsRegistry`]. The default handle is
/// disabled; all handles derived from it are no-ops.
#[derive(Clone, Default)]
pub struct Metrics {
    reg: Option<Arc<MetricsRegistry>>,
}

impl fmt::Debug for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Metrics").field("enabled", &self.is_enabled()).finish()
    }
}

impl Metrics {
    /// A handle backed by a fresh registry.
    pub fn enabled() -> Metrics {
        Metrics { reg: Some(Arc::new(MetricsRegistry::default())) }
    }

    /// A no-op handle (same as `Metrics::default()`).
    pub fn disabled() -> Metrics {
        Metrics { reg: None }
    }

    pub fn is_enabled(&self) -> bool {
        self.reg.is_some()
    }

    fn slot<F, T>(&self, name: &str, make: F, pick: fn(&Slot) -> Option<T>) -> Option<T>
    where
        F: FnOnce() -> Slot,
    {
        let reg = self.reg.as_ref()?;
        let mut slots = reg.slots.lock().expect("metrics registry poisoned");
        let slot = slots.entry(name.to_string()).or_insert_with(make);
        match pick(slot) {
            Some(t) => Some(t),
            None => panic!("metric `{name}` already registered as a {}", slot.kind()),
        }
    }

    /// Register (or re-attach to) a monotonically increasing counter.
    pub fn counter(&self, name: &str) -> Counter {
        Counter {
            cells: self.slot(
                name,
                || Slot::Counter(Arc::new(CounterCells::default())),
                |s| match s {
                    Slot::Counter(c) => Some(Arc::clone(c)),
                    _ => None,
                },
            ),
        }
    }

    /// Register (or re-attach to) a signed gauge. Gauges are signed so that
    /// transiently racy dec-before-inc interleavings (e.g. queue depth read
    /// between a channel recv and its gauge update) stay well-defined.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge {
            cell: self.slot(
                name,
                || Slot::Gauge(Arc::new(AtomicI64::new(0))),
                |s| match s {
                    Slot::Gauge(g) => Some(Arc::clone(g)),
                    _ => None,
                },
            ),
        }
    }

    /// Register (or re-attach to) a fixed-bucket log-scale histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram {
            cells: self.slot(
                name,
                || Slot::Histogram(Arc::new(HistCells::default())),
                |s| match s {
                    Slot::Histogram(h) => Some(Arc::clone(h)),
                    _ => None,
                },
            ),
        }
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        let Some(reg) = self.reg.as_ref() else {
            return snap;
        };
        let slots = reg.slots.lock().expect("metrics registry poisoned");
        for (name, slot) in slots.iter() {
            match slot {
                Slot::Counter(c) => {
                    snap.counters.insert(name.clone(), c.value());
                }
                Slot::Gauge(g) => {
                    snap.gauges.insert(name.clone(), g.load(Ordering::Relaxed));
                }
                Slot::Histogram(h) => {
                    snap.histograms.insert(name.clone(), HistSnapshot::from_cells(h));
                }
            }
        }
        snap
    }

    /// Render every metric in Prometheus-style text exposition format.
    /// Returns an empty string when disabled.
    pub fn render(&self) -> String {
        self.snapshot().render()
    }
}

/// A monotonically increasing counter handle. Cheap to clone; all clones
/// share the same cells. A handle from a disabled [`Metrics`] is a no-op.
#[derive(Clone, Default)]
pub struct Counter {
    cells: Option<Arc<CounterCells>>,
}

impl Counter {
    #[inline]
    pub fn inc(&self) {
        self.add(1)
    }

    #[inline]
    pub fn add(&self, v: u64) {
        if let Some(c) = &self.cells {
            c.add(v);
        }
    }

    pub fn value(&self) -> u64 {
        self.cells.as_ref().map_or(0, |c| c.value())
    }
}

/// A signed gauge handle.
#[derive(Clone, Default)]
pub struct Gauge {
    cell: Option<Arc<AtomicI64>>,
}

impl Gauge {
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(c) = &self.cell {
            c.store(v, Ordering::Relaxed);
        }
    }

    #[inline]
    pub fn add(&self, v: i64) {
        if let Some(c) = &self.cell {
            c.fetch_add(v, Ordering::Relaxed);
        }
    }

    #[inline]
    pub fn sub(&self, v: i64) {
        self.add(-v)
    }

    pub fn value(&self) -> i64 {
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket power-of-two histogram handle.
#[derive(Clone, Default)]
pub struct Histogram {
    cells: Option<Arc<HistCells>>,
}

impl Histogram {
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(c) = &self.cells {
            c.record(v);
        }
    }

    /// Start a timing span; the elapsed nanoseconds are recorded when the
    /// returned guard drops. No clock is read when the histogram is disabled.
    #[inline]
    pub fn span(&self) -> Span {
        Span { inner: self.cells.as_ref().map(|c| (Arc::clone(c), Instant::now())) }
    }

    pub fn count(&self) -> u64 {
        self.cells.as_ref().map_or(0, |c| c.counts().iter().sum::<u64>())
    }
}

/// A drop-guard that records elapsed wall time into its histogram.
pub struct Span {
    inner: Option<(Arc<HistCells>, Instant)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((cells, start)) = self.inner.take() {
            cells.record(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        }
    }
}

/// A point-in-time histogram summary.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    pub p50: u64,
    pub p99: u64,
    /// Per-bucket counts; bucket `i` covers `[2^i, 2^(i+1))` (bucket 0 also
    /// absorbs zero).
    pub buckets: Vec<u64>,
}

impl HistSnapshot {
    fn from_cells(h: &HistCells) -> HistSnapshot {
        let counts = h.counts();
        let count: u64 = counts.iter().sum();
        let mut snap = HistSnapshot {
            count,
            sum: h.sum.load(Ordering::Relaxed),
            max: h.max.load(Ordering::Relaxed),
            p50: 0,
            p99: 0,
            buckets: counts.to_vec(),
        };
        snap.p50 = snap.quantile(0.50);
        snap.p99 = snap.quantile(0.99);
        snap
    }

    /// The upper bound of the bucket containing the `q`-quantile observation
    /// (capped at the observed max, which is tracked exactly).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let upper = if i >= 63 { u64::MAX } else { (1u64 << (i + 1)) - 1 };
                return upper.min(self.max);
            }
        }
        self.max
    }
}

/// A point-in-time copy of a registry, keyed by full metric name (labels
/// included). Lookup helpers return zero for absent names so assertions can
/// be written against possibly-disabled runs.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, HistSnapshot>,
}

impl MetricsSnapshot {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    pub fn histogram(&self, name: &str) -> Option<&HistSnapshot> {
        self.histograms.get(name)
    }

    /// Sum of all counters in a labeled family, e.g.
    /// `counter_family("rrr_detector_steps_total")` sums the bare name plus
    /// every `rrr_detector_steps_total{...}` series.
    pub fn counter_family(&self, base: &str) -> u64 {
        self.counters.iter().filter(|(k, _)| base_name(k) == base).map(|(_, v)| v).sum()
    }

    /// Render in Prometheus-style text exposition format: `# TYPE` comments
    /// per family, one `name value` sample per line, histograms expanded to
    /// cumulative `_bucket{le=...}` series plus `_sum`/`_count`/`_max`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut typed: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
        let mut type_line = |out: &mut String, base: &str, kind: &str| {
            if typed.insert(base.to_string()) {
                out.push_str(&format!("# TYPE {base} {kind}\n"));
            }
        };
        for (name, v) in &self.counters {
            type_line(&mut out, base_name(name), "counter");
            out.push_str(&format!("{name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            type_line(&mut out, base_name(name), "gauge");
            out.push_str(&format!("{name} {v}\n"));
        }
        for (name, h) in &self.histograms {
            let base = base_name(name);
            type_line(&mut out, base, "histogram");
            let labels = &name[base.len()..];
            let labels = labels.strip_prefix('{').and_then(|l| l.strip_suffix('}')).unwrap_or("");
            let mut cum = 0u64;
            for (i, &c) in h.buckets.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                cum += c;
                let upper = if i >= 63 { u64::MAX } else { (1u64 << (i + 1)) - 1 };
                if labels.is_empty() {
                    out.push_str(&format!("{base}_bucket{{le=\"{upper}\"}} {cum}\n"));
                } else {
                    out.push_str(&format!("{base}_bucket{{{labels},le=\"{upper}\"}} {cum}\n"));
                }
            }
            if labels.is_empty() {
                out.push_str(&format!("{base}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            } else {
                out.push_str(&format!("{base}_bucket{{{labels},le=\"+Inf\"}} {}\n", h.count));
            }
            out.push_str(&format!(
                "{base}_sum{labels_wrap} {sum}\n",
                labels_wrap = wrap(labels),
                sum = h.sum
            ));
            out.push_str(&format!(
                "{base}_count{labels_wrap} {count}\n",
                labels_wrap = wrap(labels),
                count = h.count
            ));
            out.push_str(&format!(
                "{base}_max{labels_wrap} {max}\n",
                labels_wrap = wrap(labels),
                max = h.max
            ));
        }
        out
    }
}

fn wrap(labels: &str) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    }
}

/// The metric name with any `{label="..."}` suffix stripped.
pub fn base_name(name: &str) -> &str {
    match name.find('{') {
        Some(i) => &name[..i],
        None => name,
    }
}

/// Compose a metric name with an optional label set (empty labels = bare
/// name). Instrumentation layers use this so per-partition / per-feed series
/// share one code path with the unlabeled singletons.
pub fn labeled(base: &str, labels: &str) -> String {
    if labels.is_empty() {
        base.to_string()
    } else {
        format!("{base}{{{labels}}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handles_are_noops() {
        let m = Metrics::disabled();
        let c = m.counter("rrr_test_total");
        let g = m.gauge("rrr_test_gauge");
        let h = m.histogram("rrr_test_ns");
        c.inc();
        c.add(10);
        g.set(5);
        g.add(3);
        h.record(100);
        drop(h.span());
        assert_eq!(c.value(), 0);
        assert_eq!(g.value(), 0);
        assert_eq!(h.count(), 0);
        assert!(m.render().is_empty());
        assert!(m.snapshot().counters.is_empty());
    }

    #[test]
    fn counter_sums_across_threads() {
        let m = Metrics::enabled();
        let c = m.counter("rrr_test_total");
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    c.inc();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.value(), 80_000);
        assert_eq!(m.snapshot().counter("rrr_test_total"), 80_000);
    }

    #[test]
    fn same_name_attaches_to_same_cells() {
        let m = Metrics::enabled();
        let a = m.counter("rrr_shared_total");
        let b = m.counter("rrr_shared_total");
        a.add(3);
        b.add(4);
        assert_eq!(a.value(), 7);
        assert_eq!(b.value(), 7);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let m = Metrics::enabled();
        let _ = m.counter("rrr_mixed");
        let _ = m.gauge("rrr_mixed");
    }

    #[test]
    fn gauge_goes_up_and_down() {
        let m = Metrics::enabled();
        let g = m.gauge("rrr_depth");
        g.add(4);
        g.sub(1);
        assert_eq!(g.value(), 3);
        g.set(-2);
        assert_eq!(g.value(), -2);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let m = Metrics::enabled();
        let h = m.histogram("rrr_lat_ns");
        // 90 observations of 10, 9 of 1000, 1 of 100_000.
        for _ in 0..90 {
            h.record(10);
        }
        for _ in 0..9 {
            h.record(1000);
        }
        h.record(100_000);
        let snap = m.snapshot();
        let hs = snap.histogram("rrr_lat_ns").unwrap();
        assert_eq!(hs.count, 100);
        assert_eq!(hs.sum, 90 * 10 + 9 * 1000 + 100_000);
        assert_eq!(hs.max, 100_000);
        // p50 lands in the bucket holding 10 → upper bound 15.
        assert_eq!(hs.p50, 15);
        // p99 (rank 99) lands in the bucket holding 1000 → upper bound 1023.
        assert_eq!(hs.p99, 1023);
        // p100 is the tracked exact max.
        assert_eq!(hs.quantile(1.0), 100_000);
    }

    #[test]
    fn histogram_zero_values() {
        let m = Metrics::enabled();
        let h = m.histogram("rrr_zero_ns");
        h.record(0);
        h.record(1);
        let snap = m.snapshot();
        let hs = snap.histogram("rrr_zero_ns").unwrap();
        assert_eq!(hs.count, 2);
        assert_eq!(hs.buckets[0], 2);
    }

    #[test]
    fn span_records_elapsed() {
        let m = Metrics::enabled();
        let h = m.histogram("rrr_span_ns");
        {
            let _s = h.span();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(h.count(), 1);
        let hs = m.snapshot();
        assert!(hs.histogram("rrr_span_ns").unwrap().sum >= 1_000_000);
    }

    #[test]
    fn render_exposition_shape() {
        let m = Metrics::enabled();
        m.counter("rrr_a_total").add(5);
        m.counter("rrr_a_total{part=\"1\"}").add(7);
        m.gauge("rrr_b").set(-3);
        m.histogram("rrr_c_ns{feed=\"0\"}").record(100);
        let text = m.render();
        assert!(text.contains("# TYPE rrr_a_total counter\n"));
        assert!(text.contains("rrr_a_total 5\n"));
        assert!(text.contains("rrr_a_total{part=\"1\"} 7\n"));
        assert!(text.contains("# TYPE rrr_b gauge\n"));
        assert!(text.contains("rrr_b -3\n"));
        assert!(text.contains("# TYPE rrr_c_ns histogram\n"));
        assert!(text.contains("rrr_c_ns_bucket{feed=\"0\",le=\"127\"} 1\n"));
        assert!(text.contains("rrr_c_ns_bucket{feed=\"0\",le=\"+Inf\"} 1\n"));
        assert!(text.contains("rrr_c_ns_sum{feed=\"0\"} 100\n"));
        assert!(text.contains("rrr_c_ns_count{feed=\"0\"} 1\n"));
        assert!(text.contains("rrr_c_ns_max{feed=\"0\"} 100\n"));
        // The TYPE line for a family appears exactly once.
        assert_eq!(text.matches("# TYPE rrr_a_total counter").count(), 1);
    }

    #[test]
    fn counter_family_sums_labels() {
        let m = Metrics::enabled();
        m.counter("rrr_f_total{part=\"0\"}").add(2);
        m.counter("rrr_f_total{part=\"1\"}").add(3);
        m.counter("rrr_other_total").add(100);
        let snap = m.snapshot();
        assert_eq!(snap.counter_family("rrr_f_total"), 5);
    }

    #[test]
    fn labeled_helper() {
        assert_eq!(labeled("rrr_x_total", ""), "rrr_x_total");
        assert_eq!(labeled("rrr_x_total", "part=\"2\""), "rrr_x_total{part=\"2\"}");
        assert_eq!(base_name("rrr_x_total{part=\"2\"}"), "rrr_x_total");
    }
}
