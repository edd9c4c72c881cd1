//! MRT (RFC 6396) and BGP UPDATE (RFC 4271) wire formats — the ingestion
//! path a production deployment would use against RouteViews / RIPE RIS
//! dump files, built from scratch on `&[u8]` and `Vec<u8>`: the decoders
//! narrow and sub-slice the buffer they are handed ([`wire`]) and copy
//! nothing but the values they return.
//!
//! Supported subset (what the paper's pipeline needs):
//!
//! - `BGP4MP / BGP4MP_MESSAGE_AS4` records carrying UPDATE messages with
//!   ORIGIN, AS_PATH (4-byte ASNs), NEXT_HOP, and COMMUNITIES attributes,
//!   withdrawn routes, and NLRI;
//! - `TABLE_DUMP_V2` `PEER_INDEX_TABLE` + `RIB_IPV4_UNICAST` for RIB
//!   snapshots;
//! - a streaming reader/writer pair and the [`VpDirectory`] that maps the
//!   simulator's vantage points to (peer IP, peer AS) pairs and back.

#![forbid(unsafe_code)]

pub mod bgp;
pub mod bgpstream;
pub mod mrt;
pub mod stream;
pub mod wire;

pub use bgp::{BgpMessage, PathAttributes};
pub use bgpstream::{MrtFileReader, MrtFileWriter, StreamError, StreamFilter, UpdateStream};
pub use mrt::{MrtRecord, RibEntry};
pub use stream::{record_to_updates, VpDirectory};
pub use wire::{Error, Result};
