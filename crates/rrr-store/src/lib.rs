//! Durable state for the staleness detector: a versioned, self-describing
//! binary checkpoint format plus an incremental write-ahead log (WAL).
//!
//! The paper's system (§4.3) runs continuously — calibration windows,
//! Bitmap/z-score series, and refresh scheduling all accumulate state over
//! weeks of BGP and traceroute feeds. A restart that loses that state
//! silently destroys signal quality (TPR/TNR tallies restart cold), so
//! this crate makes the full detector state durable with a guarantee the
//! rest of the workspace already enforces between serial and parallel
//! execution: a restored process is *bit-identical* to one that never
//! stopped.
//!
//! Three layers:
//!
//! - [`wire`] — a deterministic little-endian encoding ([`Persist`] trait)
//!   with explicit, sorted serialization for hash containers so the same
//!   state always produces the same bytes;
//! - [`checkpoint`] — a framed snapshot: magic, format version, payload
//!   length, payload, CRC-32. Corruption and future-version files surface
//!   as typed [`StoreError`]s, never panics;
//! - [`wal`] — an append-only record log with per-record CRC framing.
//!   A torn final record (crash mid-append) is tolerated; corruption in
//!   the middle of the log is an error.
//!
//! Higher layers (`rrr-core`) implement [`Persist`] for their private
//! state in the modules that own it, and drive checkpoint + WAL-replay
//! from `StalenessDetector::checkpoint` / `restore`.
//!
//! The crate's one `unsafe` is the carry-less-multiply CRC kernel in
//! [`crc32`], which alone is allowed it.

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod checkpoint;
pub mod crc32;
pub mod error;
pub mod wal;
pub mod wire;

pub use checkpoint::{
    read_checkpoint, read_snapshot, write_checkpoint, write_snapshot, FrameKind, Snapshot,
    FORMAT_VERSION, MAGIC,
};
pub use error::StoreError;
pub use wal::{LogSource, WalObs, WalReader, WalWriter};
pub use wire::{from_payload, to_payload, Decoder, Encoder, Persist};
