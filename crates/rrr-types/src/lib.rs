//! Core vocabulary types shared by every crate in the `rrr` workspace.
//!
//! This crate deliberately has no knowledge of simulation, routing policy, or
//! signal generation. It only defines the *data* that flows between the
//! subsystems: autonomous system numbers, IPv4 prefixes, AS paths, BGP
//! communities, timestamps and analysis windows, geographic locations, and
//! the record types for BGP updates and traceroutes.
//!
//! Everything here is `Copy` or cheaply clonable, ordered and hashable;
//! records persist through `rrr-store`'s `Persist` encoding.

#![forbid(unsafe_code)]

pub mod asn;
pub mod community;
pub mod error;
pub mod fasthash;
pub mod geo;
pub mod ids;
pub mod intern;
pub mod ip;
pub mod path;
pub mod record;
pub mod time;

pub use asn::Asn;
pub use community::Community;
pub use error::Error;
pub use fasthash::{FastMap, FastSet, FastState};
pub use geo::{CityId, GeoPoint};
pub use ids::{AnchorId, CollectorId, FacilityId, IxpId, PeeringPointId, ProbeId, RouterId, VpId};
pub use intern::{Arena, ArenaId};
pub use ip::{Ipv4, Prefix, PrefixParseError};
pub use path::AsPath;
pub use record::{BgpElem, BgpUpdate, Hop, Traceroute, TracerouteId};
pub use time::{Duration, Timestamp, Window, WindowConfig};
