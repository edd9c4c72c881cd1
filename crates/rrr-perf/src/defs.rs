//! The metric definitions: names, units, directions and regression
//! bounds. `BENCHMARK.json` at the repository root states the same
//! definitions for the driver; a unit test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `b` is than `a`, as a share of `a` (negative when
    /// `b` is better).
    pub fn worsening(self, a: f64, b: f64) -> f64 {
        match self {
            Better::Lower => (b - a) / a.abs(),
            Better::Higher => (a - b) / a.abs(),
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
///
/// Every bound is the contract's ceiling of 25 %: on the two-thread
/// recording host identical code spreads 5-20 % between runs minutes
/// apart (see the README), and a tighter bound would reject noise.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, better, bound }
}

/// Every end-to-end metric, reported by every workload.
pub const END_TO_END: [EndToEnd; 9] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ingest_items_per_s", "items/s", Better::Higher, 0.25),
    e2e("cpu_s_per_mitem", "s/Mitem", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.25),
    e2e("query_us_p50", "us", Better::Lower, 0.25),
    e2e("query_us_tail", "us", Better::Lower, 0.25),
    e2e("publish_lag_ms_p50", "ms", Better::Lower, 0.25),
    e2e("publish_lag_ms_mean", "ms", Better::Lower, 0.25),
    e2e("restore_s", "s", Better::Lower, 0.25),
];

/// A per-layer metric from the traced run. No bound: these explain a
/// change in an end-to-end metric, they do not gate.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer { name, unit, better: Better::Lower }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer { name, unit, better: Better::Higher }
}

/// Every per-layer metric, reported by every workload's traced run.
pub const PER_LAYER: [Layer; 48] = [
    // rrr-mrt: `UpdateStream` drained alone.
    lower("mrt.decode_ns_per_update", "ns"),
    higher("mrt.decode_mb_per_s", "MB/s"),
    lower("mrt.bytes_per_update", "B"),
    lower("mrt.decode_errors", "count"),
    // rrr-serve::feed.
    lower("feed.batch_self_ns_per_update", "ns"),
    lower("feed.sort_ns_per_item", "ns"),
    lower("feed.busy_share", "ratio"),
    higher("feed.blocked_share", "ratio"),
    lower("feed.backpressure_stalls", "count"),
    higher("feed.items_in", "count"),
    higher("feed.batches_out", "count"),
    // rrr-core::detector and its monitors.
    lower("core.step_ns_per_item", "ns"),
    lower("core.observe_ns_per_item", "ns"),
    lower("core.close_ms_per_window", "ms"),
    lower("core.signals_per_window", "count"),
    // rrr-core parallelism alternatives, serial replay of the same input.
    lower("core.step_ns_per_item.t1", "ns"),
    lower("core.step_ns_per_item.tN", "ns"),
    lower("partition.step_ns_per_item.n2", "ns"),
    // rrr-core::calibration.
    lower("core.plan_refresh_us", "us"),
    // rrr-core::query / rrr-serve::snapshot.
    lower("snapshot.full_us", "us"),
    lower("snapshot.incremental_us_per_window", "us"),
    lower("snapshot.publish_busy_share", "ratio"),
    // rrr-serve::daemon.
    lower("ingest.step_busy_share", "ratio"),
    higher("ingest.wait_share", "ratio"),
    lower("trace.unexplained_share", "ratio"),
    lower("trace.overhead_ratio", "ratio"),
    // rrr-core::persist + rrr-store.
    lower("store.wal_append_ns_per_item", "ns"),
    lower("store.wal_bytes_per_item", "B"),
    lower("store.checkpoint_full_ms", "ms"),
    lower("store.checkpoint_full_mb", "MB"),
    lower("store.checkpoint_delta_ms", "ms"),
    lower("store.checkpoint_delta_mb", "MB"),
    lower("store.checkpoints_cut", "count"),
    lower("store.bytes_written_per_window", "B"),
    lower("store.restore_load_ms", "ms"),
    lower("store.restore_replay_ms", "ms"),
    // rrr-serve::query: `answer` on the final snapshot.
    lower("query.is_stale_ns", "ns"),
    lower("query.refresh_plan_us", "us"),
    lower("query.prefix_summary_ns", "ns"),
    lower("query.as_summary_ns", "ns"),
    lower("query.corpus_summary_ns", "ns"),
    lower("query.monitor_stats_ns", "ns"),
    // rrr-serve::wire and ::tcp.
    lower("wire.decode_request_ns", "ns"),
    lower("wire.encode_response_ns", "ns"),
    lower("tcp.roundtrip_us", "us"),
    lower("tcp.overhead_us", "us"),
    // The load generator itself.
    lower("gen.feed_lateness_ms_p99", "ms"),
    lower("gen.query_lateness_ms_p99", "ms"),
];
