//! # rrr — Reduce, Reuse, Recycle
//!
//! A from-scratch Rust reproduction of *"Reduce, Reuse, Recycle: Repurposing
//! Existing Measurements to Identify Stale Traceroutes"* (Giotsas et al.,
//! ACM IMC 2020): keep a corpus of traceroutes up-to-date **without issuing
//! measurements**, by passively mining BGP update streams and public
//! traceroute feeds for *staleness prediction signals*.
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! - [`types`] — ASNs, prefixes, AS paths, communities, windows, records;
//! - [`topology`] — the synthetic Internet (AS graph, cities, IXPs, border
//!   routers) standing in for the paper's live measurement substrate;
//! - [`bgp`] — Gao–Rexford policy routing, routing events, and per-vantage-
//!   point update streams (the RouteViews/RIS analogue);
//! - [`mrt`] — MRT (RFC 6396) / BGP UPDATE (RFC 4271) wire formats;
//! - [`trace`] — data-plane forwarding and the RIPE-Atlas-like platform;
//! - [`ip2as`] — longest-prefix IP-to-AS mapping, border inference, alias
//!   resolution (Appendix A);
//! - [`geo`] — geolocation databases, shortest-ping, constrained search;
//! - [`anomaly`] — the Bitmap and modified-z-score outlier detectors;
//! - [`core`] — **the paper's contribution**: the six signal techniques,
//!   calibration, and corpus maintenance;
//! - [`serve`] — the long-running ingestion daemon: concurrent feeds,
//!   epoch-versioned snapshots, and the typed query API (in-process and
//!   line-delimited-JSON TCP);
//! - [`baselines`] — round-robin, Sibyl patching, DTRACK, DTRACK+SIGNALS,
//!   and iPlane splicing.
//!
//! ## Quickstart
//!
//! ```
//! use rrr::prelude::*;
//! use std::sync::Arc;
//!
//! // 1. A small synthetic Internet and its control plane.
//! let topo = Arc::new(rrr::topology::generate(&TopologyConfig::small(7)));
//! let events = rrr::bgp::generate_events(
//!     &topo,
//!     &EventConfig::small(7, Duration::days(2)),
//! );
//! let mut engine = Engine::new(Arc::clone(&topo), &EngineConfig::default(), events);
//! let mut platform = Platform::new(&topo, &PlatformConfig::small(7));
//!
//! // 2. A detector wired to measured inputs.
//! let rib = engine.rib_snapshot();
//! let mut map = IpToAsMap::from_announcements(rib.iter());
//! for (ixp, lan) in &topo.registry.ixp_lans {
//!     map.add_ixp_lan(*lan, *ixp);
//! }
//! let geo = Geolocator::new(GeoDb::ground_truth(&topo), vec![]);
//! let alias = AliasResolver::from_topology(&topo, 0.1, 7);
//! let vps = engine.vps().iter().map(|v| v.id).collect();
//! let mut det = DetectorBuilder::new().seed(7).build(Arc::clone(&topo), map, geo, alias, vps);
//! det.init_rib(&rib);
//!
//! // 3. Monitor a traceroute and stream one day of data.
//! let anchor = platform.anchors[0];
//! let probe = platform.mesh_probes(anchor.id)[0];
//! let tr = platform.measure(&engine, probe, anchor.addr, Timestamp::ZERO);
//! let id = det.add_corpus(tr, None).expect("mapped");
//! for r in 1..=96u64 {
//!     let t = Timestamp(r * 900);
//!     let updates = engine.advance_to(t);
//!     let public = platform.random_round(&engine, t, 20);
//!     let _signals = det.step(t, &updates, &public);
//! }
//! assert!(det.corpus().get(id).is_some());
//! ```

#![forbid(unsafe_code)]

pub use rrr_anomaly as anomaly;
pub use rrr_baselines as baselines;
pub use rrr_bgp as bgp;
pub use rrr_core as core;
pub use rrr_geo as geo;
pub use rrr_ip2as as ip2as;
pub use rrr_mrt as mrt;
pub use rrr_serve as serve;
pub use rrr_store as store;
pub use rrr_topology as topology;
pub use rrr_trace as trace;
pub use rrr_types as types;

/// The most commonly used items, in one import.
pub mod prelude {
    pub use rrr_anomaly::{BitmapDetector, ModifiedZScore};
    pub use rrr_bgp::{Engine, EngineConfig, EventConfig};
    pub use rrr_core::{
        DetectorBuilder, DetectorConfig, DurableConfig, DurableDetector, Freshness, Query,
        RefreshPlan, SignalScope, StalenessDetector, StalenessSignal, Technique,
    };
    pub use rrr_geo::{GeoDb, Geolocator};
    pub use rrr_ip2as::{AliasResolver, IpToAsMap};
    pub use rrr_serve::{ServeHandle, StalenessQuery};
    pub use rrr_topology::{Topology, TopologyConfig};
    pub use rrr_trace::{Platform, PlatformConfig};
    pub use rrr_types::{
        AsPath, Asn, BgpUpdate, Community, Duration, Ipv4, Prefix, Timestamp, Traceroute,
    };
}
