//! IP geolocation (Appendix A): an IPMap-like database, a simulated
//! shortest-ping technique driven by the PeeringDB-like registry, and a
//! constrained-search fallback. The PoP-level border technique (§4.2.2)
//! consumes the combined pipeline.

#![forbid(unsafe_code)]

pub mod db;
pub mod ping;
pub mod pipeline;

pub use db::GeoDb;
pub use ping::{shortest_ping, PingVantage};
pub use pipeline::{Geolocator, Method};
