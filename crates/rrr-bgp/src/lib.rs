//! BGP control-plane simulation: Gao–Rexford policy routing over an
//! `rrr-topology` graph, a dynamic event model, and per-vantage-point update
//! streams mimicking what RouteViews / RIPE RIS collectors expose.
//!
//! The engine is built so that every phenomenon the paper's §4.1 techniques
//! exploit arises organically:
//!
//! - **AS-path changes** from link/adjacency failures and policy tiebreak
//!   flips (§4.1.2),
//! - **community changes with an unchanged AS path** when hot-potato egress
//!   selection moves an interconnection to a different city (§4.1.3,
//!   Figure 3),
//! - **duplicate updates** when non-transitive attributes (IGP costs, MED)
//!   change without touching path or communities (§4.1.4),
//! - **IXP joins** activating latent peerings (§4.2.3).
//!
//! Routing is recomputed deterministically; the data plane (`rrr-trace`)
//! shares the same route table and egress-selection function, so control-
//! and data-plane observations are mutually consistent — the property the
//! paper's cross-stream correlation relies on.

#![forbid(unsafe_code)]

pub mod attrs;
pub mod engine;
pub mod envelope;
pub mod events;
pub mod routing;
pub mod state;

pub use attrs::{route_attrs, RouteAttrs};
pub use engine::{Engine, EngineConfig, VantagePoint};
pub use envelope::{mix64, RateEnvelope};
pub use events::{generate_events, Event, EventConfig, EventKind};
pub use routing::{compute_routes, egress_points, RouteClass, RouteEntry, RouteTable};
pub use state::NetState;
