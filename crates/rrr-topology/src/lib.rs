//! Synthetic Internet topology for the `rrr` workspace.
//!
//! The paper's techniques operate on real RouteViews/RIS BGP feeds and RIPE
//! Atlas traceroutes. Reproducing them offline requires an Internet whose
//! *structure* exhibits the phenomena the techniques exploit:
//!
//! - a policy-routed AS graph (tier-1 clique, transit hierarchy, stubs) with
//!   customer/provider and peer relationships (Gao–Rexford),
//! - ASes present in multiple cities, interconnecting at **multiple peering
//!   points** per adjacency (private facilities and IXP LANs), so that an AS
//!   pair can shift traffic between border routers *without any AS-path
//!   change* — the border-level changes of §3,
//! - border routers with multiple interface addresses (alias sets), IXP LAN
//!   addresses shared across many AS pairs (Appendix C, Figure 14),
//! - intra-AS paths between cities, optionally with ECMP diamonds (§5.4),
//! - originated prefixes with realistic overlap (covering /16s plus more
//!   specific subnets) for longest-prefix matching.
//!
//! The topology itself is immutable; dynamic state (link availability, IGP
//! costs, policy) lives in `rrr-bgp`'s overlay.

#![forbid(unsafe_code)]

pub mod city;
pub mod config;
pub mod gen;
pub mod lazy;
pub mod model;
pub mod registry;

pub use city::{City, CITY_TABLE};
pub use config::TopologyConfig;
pub use gen::generate;
pub use lazy::{LazyConfig, LazyTopology, PathVariant};
pub use model::{
    Adjacency, AdjacencyId, AsIdx, AsInfo, IpOwner, Ixp, PeeringPoint, Relationship, Router, Tier,
    Topology,
};
pub use registry::Registry;
