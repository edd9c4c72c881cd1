//! `rrr-serve`: the long-running ingestion daemon and its query front ends.
//!
//! The batch pipeline in `rrr-core` answers questions about whatever it
//! has been stepped through; this crate turns it into a **service**:
//!
//! - N concurrent feeds ([`FeedSource`]) — scripted rounds in harnesses,
//!   [`MrtFeed`]s over decoded MRT streams in deployments — each pulled by
//!   its own thread and handed to the ingest thread over a rendezvous
//!   channel (the blocked send is the backpressure; no queue in between);
//! - one ingest thread that merges feed batches deterministically (see
//!   [`feed`]) and steps the detector;
//! - epoch-versioned immutable [`rrr_core::DetectorSnapshot`]s published
//!   at every BGP-window close, so read traffic runs against a stable
//!   state and never contends with ingestion;
//! - a typed in-process API ([`ServeHandle::query`] over
//!   [`StalenessQuery`]) and a line-delimited-JSON TCP front end
//!   ([`TcpServer`]), every answer stamped with the snapshot epoch it was
//!   computed from.
//!
//! The load-bearing property, checked end to end by the `rrr-sim`
//! serve-equivalence oracle: at every published epoch, the daemon's
//! answers are **bit-identical** to a serial batch detector replayed over
//! the same input to the same epoch ([`replay_reference`]), for any feed
//! count and any thread interleaving.

pub mod daemon;
pub mod feed;
pub mod query;
pub mod snapshot;
pub mod tcp;
pub mod wire;

pub use daemon::{replay_reference, Daemon, DaemonConfig, Engine, IngestReport};
pub use feed::{
    canonical_sort, canonicalize, split_rounds, FeedBatch, FeedSource, MrtFeed, ScriptedFeed,
};
pub use query::{answer, QueryResponse, ResponseBody, StalenessQuery};
pub use snapshot::{ServeHandle, SnapshotCell};
pub use tcp::TcpServer;
