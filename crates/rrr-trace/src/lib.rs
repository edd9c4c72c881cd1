//! Data-plane simulation: forwarding paths, traceroute synthesis, and a
//! RIPE-Atlas-like measurement platform with probes, anchors, campaigns,
//! and rate limits.
//!
//! Forwarding shares the control plane's route table and hot-potato egress
//! selection (`rrr-bgp`), so the traceroutes synthesized here are mutually
//! consistent with the BGP updates the collectors see — the property that
//! makes cross-stream staleness signals meaningful.

#![forbid(unsafe_code)]

pub mod forward;
pub mod platform;

pub use forward::{canonical_path, forward, CanonicalPath, ForwardPath, Step};
pub use platform::{Anchor, Platform, PlatformConfig, Probe};
