//! The paper's contribution: **staleness prediction signals** for a corpus
//! of traceroutes, derived purely from passively observed BGP updates and
//! public traceroutes — no online measurements.
//!
//! Six techniques, each its own module:
//!
//! | Technique | Paper | Module |
//! |---|---|---|
//! | BGP AS-path overlap ratio | §4.1.2 | [`bgp_monitors`] |
//! | BGP community changes | §4.1.3 | [`bgp_monitors`] |
//! | Duplicate-update bursts | §4.1.4 | [`bgp_monitors`] |
//! | IP-level subpath ratios | §4.2.1 | [`trace_monitors`] |
//! | Router-level ⟨AS, city⟩ borders | §4.2.2 | [`trace_monitors`] |
//! | IXP membership changes | §4.2.3 | [`ixp_monitor`] |
//!
//! [`detector::StalenessDetector`] runs them all against a [`corpus::Corpus`]
//! and emits [`signal::StalenessSignal`]s; [`calibration`] implements §4.3's
//! TPR/TNR-driven refresh scheduling, community pruning (Appendix B), and
//! §4.3.2's signal revocation.
//!
//! [`persist`] adds crash-safe operation on top: versioned full-state
//! checkpoints plus a write-ahead log of raw step inputs, replayed
//! deterministically on restart. The detector steps on the thread that
//! calls it; [`partition`] is a measured in-memory comparison point: N
//! cooperating instances over contiguous key ranges, stepped on scoped
//! threads, whose merged output is bit-identical to a single instance.

pub mod adaptive;
pub mod api;
pub mod bgp_monitors;
pub mod calibration;
pub mod corpus;
pub mod detector;
pub mod ixp_monitor;
pub mod partition;
pub mod persist;
pub mod query;
pub mod signal;
pub mod trace_monitors;

pub use api::DetectorBuilder;
pub use calibration::{Calibrator, RefreshPlan, SignalStats};
pub use corpus::{Corpus, CorpusEntry, Freshness};
pub use detector::{DetectorConfig, StalenessDetector};
pub use partition::{canonical_bytes_single, PartitionMap, PartitionedDetector};
pub use persist::{DurableConfig, DurableDetector, StepRecord};
pub use query::{
    AsSummary, CorpusSummary, DetectorSnapshot, FamilyStats, FreshnessSummary, MonitorStats,
    PrefixSummary, Query, SnapEntry,
};
pub use signal::{SignalKey, SignalScope, StalenessSignal, Technique};

// Re-exported so downstream crates can enable instrumentation without
// depending on `rrr-obs` directly.
pub use rrr_obs::{Metrics, MetricsSnapshot};
