//! Snapshot publication and the in-process query handle.
//!
//! The ingest thread is the only writer: whenever the detector's epoch
//! advances it extracts a [`DetectorSnapshot`] and swings the cell's
//! pointer. Readers take an `Arc` clone of the current snapshot and answer
//! any number of queries against that immutable state — they never touch
//! the detector, so reads scale with cores and ingestion never waits on
//! query traffic.
//!
//! The cell is an epoch counter plus an `RwLock<Arc<_>>` used as a pointer
//! cell (the arc-swap idiom, built from std primitives): writers hold the
//! write latch only for a pointer store, readers only for an `Arc` clone —
//! both O(1) and far off the query path, which runs entirely on the cloned
//! snapshot.

use crate::query::{answer, QueryResponse, ResponseBody, StalenessQuery};
use rrr_core::DetectorSnapshot;
use rrr_obs::{labeled, Histogram, Metrics};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// The publication point: current epoch and current snapshot pointer.
pub struct SnapshotCell {
    epoch: AtomicU64,
    slot: RwLock<Arc<DetectorSnapshot>>,
}

impl SnapshotCell {
    /// A cell holding an initial snapshot (typically epoch 0, captured
    /// before any input is consumed, so queries never race a missing
    /// snapshot).
    pub fn new(initial: Arc<DetectorSnapshot>) -> Self {
        use rrr_core::Query;
        SnapshotCell { epoch: AtomicU64::new(initial.epoch()), slot: RwLock::new(initial) }
    }

    /// Publishes a newer snapshot. Called by the ingest thread only.
    pub fn publish(&self, snap: Arc<DetectorSnapshot>) {
        use rrr_core::Query;
        let epoch = snap.epoch();
        // Only the pointer moves under the latch. The superseded snapshot
        // is usually the last reference to its maps; freeing them there
        // would hold every reader in `load` until they are gone.
        let superseded =
            std::mem::replace(&mut *self.slot.write().expect("snapshot slot poisoned"), snap);
        self.epoch.store(epoch, Ordering::Release);
        drop(superseded);
    }

    /// The epoch of the currently published snapshot, without taking the
    /// snapshot itself.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The current snapshot (an `Arc` clone under a momentary read latch).
    pub fn load(&self) -> Arc<DetectorSnapshot> {
        Arc::clone(&self.slot.read().expect("snapshot slot poisoned"))
    }
}

/// Per-query-type latency histograms, one series per request shape so
/// p50/p99 of cheap point lookups are not averaged with plan searches.
#[derive(Clone, Default)]
struct QueryObs {
    is_stale: Histogram,
    refresh_plan: Histogram,
    prefix_summary: Histogram,
    as_summary: Histogram,
    corpus_summary: Histogram,
    monitor_stats: Histogram,
    metrics: Histogram,
}

impl QueryObs {
    fn new(m: &Metrics) -> Self {
        let h = |t: &str| m.histogram(&labeled("rrr_serve_query_ns", &format!("query=\"{t}\"")));
        QueryObs {
            is_stale: h("is_stale"),
            refresh_plan: h("refresh_plan"),
            prefix_summary: h("prefix_summary"),
            as_summary: h("as_summary"),
            corpus_summary: h("corpus_summary"),
            monitor_stats: h("monitor_stats"),
            metrics: h("metrics"),
        }
    }

    fn for_query(&self, q: &StalenessQuery) -> &Histogram {
        match q {
            StalenessQuery::IsStale(_) => &self.is_stale,
            StalenessQuery::RefreshPlan { .. } => &self.refresh_plan,
            StalenessQuery::PrefixSummary(_) => &self.prefix_summary,
            StalenessQuery::AsSummary(_) => &self.as_summary,
            StalenessQuery::CorpusSummary => &self.corpus_summary,
            StalenessQuery::MonitorStats => &self.monitor_stats,
            StalenessQuery::Metrics => &self.metrics,
        }
    }
}

/// The in-process query front end: cheap to clone, safe to share across
/// reader threads, valid for the daemon's whole lifetime (and after it
/// finishes — the last published snapshot stays queryable).
#[derive(Clone)]
pub struct ServeHandle {
    cell: Arc<SnapshotCell>,
    metrics: Metrics,
    obs: QueryObs,
}

impl ServeHandle {
    pub(crate) fn new(cell: Arc<SnapshotCell>, metrics: Metrics) -> Self {
        let obs = QueryObs::new(&metrics);
        ServeHandle { cell, metrics, obs }
    }

    /// The currently published snapshot.
    pub fn snapshot(&self) -> Arc<DetectorSnapshot> {
        self.cell.load()
    }

    /// The epoch of the currently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.cell.epoch()
    }

    /// Answers one query against the current snapshot. The whole answer
    /// comes from a single snapshot, so the stamped epoch is exact even if
    /// a publish lands mid-call.
    pub fn query(&self, q: &StalenessQuery) -> QueryResponse {
        let _span = self.obs.for_query(q).span();
        // Snapshots carry no registry — the metrics query is answered from
        // the daemon's live registry here, stamped with the current epoch.
        if matches!(q, StalenessQuery::Metrics) {
            return QueryResponse {
                epoch: self.epoch(),
                body: ResponseBody::Metrics(self.metrics.render()),
            };
        }
        answer(&*self.snapshot(), q)
    }

    /// The registry this handle reports into (disabled unless the daemon
    /// was spawned with [`crate::DaemonConfig::metrics`] enabled).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }
}
