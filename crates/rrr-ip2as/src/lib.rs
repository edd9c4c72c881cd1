//! Traceroute processing (Appendix A): longest-prefix IP-to-AS mapping,
//! AS-path extraction with unresponsive-hop patching, inter-AS border
//! inference, and alias resolution.
//!
//! Everything here consumes *measured* data (BGP announcements, traceroutes,
//! the public registry) rather than simulator ground truth, with the single
//! exception of the alias resolver, which plays the role of MIDAR: it is
//! derived from ground truth with a configurable miss rate, because alias
//! resolution is an input the paper obtains from an external service.

#![forbid(unsafe_code)]

pub mod alias;
pub mod borders;
pub mod mapping;
pub mod traceroute;
pub mod trie;

pub use alias::{AliasKey, AliasResolver};
pub use borders::{find_borders, find_borders_in, hop_origins, Border};
pub use mapping::{IpOrigin, IpToAsMap};
pub use traceroute::{map_traceroute, AsTrace, StarPatcher};
pub use trie::PrefixTrie;
