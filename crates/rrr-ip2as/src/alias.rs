//! Alias resolution (the MIDAR stand-in, Appendix A).
//!
//! Alias resolution is an input the paper obtains from an external service,
//! so the resolver is derived from topology ground truth with a configurable
//! per-interface miss rate: unresolved interfaces behave as singleton
//! routers, exactly like addresses MIDAR could not group.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rrr_topology::Topology;
use rrr_types::{FastMap, Ipv4, RouterId};

/// The identity of a router as seen through alias resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AliasKey {
    /// Grouped: all aliases of this router share the key.
    Router(RouterId),
    /// Ungrouped: the address stands alone.
    Singleton(Ipv4),
}

impl rrr_store::Persist for AliasKey {
    fn store<W: std::io::Write>(
        &self,
        e: &mut rrr_store::Encoder<W>,
    ) -> Result<(), rrr_store::StoreError> {
        match self {
            AliasKey::Router(r) => {
                e.u8(0)?;
                r.store(e)
            }
            AliasKey::Singleton(ip) => {
                e.u8(1)?;
                ip.store(e)
            }
        }
    }
    fn load<R: std::io::Read>(
        d: &mut rrr_store::Decoder<R>,
    ) -> Result<Self, rrr_store::StoreError> {
        match d.u8()? {
            0 => Ok(AliasKey::Router(rrr_store::Persist::load(d)?)),
            1 => Ok(AliasKey::Singleton(rrr_store::Persist::load(d)?)),
            _ => Err(d.corrupt("alias key tag")),
        }
    }
}

/// Maps interface addresses to router identities.
pub struct AliasResolver {
    resolved: FastMap<Ipv4, RouterId>,
}

impl AliasResolver {
    /// Builds a resolver covering a fraction `1 - miss_prob` of interfaces.
    pub fn from_topology(topo: &Topology, miss_prob: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut resolved = FastMap::default();
        for r in &topo.routers {
            for &ip in &r.ifaces {
                if !rng.gen_bool(miss_prob) {
                    resolved.insert(ip, r.id);
                }
            }
        }
        AliasResolver { resolved }
    }

    /// A perfect resolver (for tests and upper-bound experiments).
    pub fn perfect(topo: &Topology) -> Self {
        Self::from_topology(topo, 0.0, 0)
    }

    /// The router key of an address.
    pub fn key(&self, ip: Ipv4) -> AliasKey {
        match self.resolved.get(&ip) {
            Some(r) => AliasKey::Router(*r),
            None => AliasKey::Singleton(ip),
        }
    }

    /// Whether two addresses are known aliases of the same router.
    pub fn same_router(&self, a: Ipv4, b: Ipv4) -> bool {
        a == b || self.key(a) == self.key(b) && matches!(self.key(a), AliasKey::Router(_))
    }

    /// Number of resolved interfaces.
    pub fn resolved_count(&self) -> usize {
        self.resolved.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrr_topology::{generate, TopologyConfig};

    #[test]
    fn perfect_resolver_groups_all_aliases() {
        let topo = generate(&TopologyConfig::small(5));
        let r = AliasResolver::perfect(&topo);
        for router in &topo.routers {
            for w in router.ifaces.windows(2) {
                assert!(r.same_router(w[0], w[1]));
            }
        }
        let total: usize = topo.routers.iter().map(|r| r.ifaces.len()).sum();
        assert_eq!(r.resolved_count(), total);
    }

    #[test]
    fn missed_interfaces_become_singletons() {
        let topo = generate(&TopologyConfig::small(5));
        let r = AliasResolver::from_topology(&topo, 1.0, 9);
        assert_eq!(r.resolved_count(), 0);
        let some_iface = topo.routers[0].ifaces[0];
        assert_eq!(r.key(some_iface), AliasKey::Singleton(some_iface));
        // An address is trivially its own router.
        assert!(r.same_router(some_iface, some_iface));
        // Two distinct singletons are never the same router.
        let other = topo.routers[1].ifaces[0];
        assert!(!r.same_router(some_iface, other));
    }

    #[test]
    fn partial_miss_rate_in_between() {
        let topo = generate(&TopologyConfig::small(5));
        let total: usize = topo.routers.iter().map(|r| r.ifaces.len()).sum();
        let r = AliasResolver::from_topology(&topo, 0.3, 9);
        assert!(r.resolved_count() > total / 3);
        assert!(r.resolved_count() < total);
    }

    #[test]
    fn deterministic() {
        let topo = generate(&TopologyConfig::small(5));
        let a = AliasResolver::from_topology(&topo, 0.2, 42);
        let b = AliasResolver::from_topology(&topo, 0.2, 42);
        assert_eq!(a.resolved_count(), b.resolved_count());
        for router in &topo.routers {
            for &ip in &router.ifaces {
                assert_eq!(a.key(ip), b.key(ip));
            }
        }
    }
}
