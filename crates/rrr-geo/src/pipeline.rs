//! The combined geolocation pipeline (Appendix A): database lookup first,
//! then shortest-ping, then a constrained-search fallback; addresses that
//! fail all three are left unlocated (and excluded from PoP-level signals).

use crate::db::GeoDb;
use crate::ping::{shortest_ping, PingStats, PingVantage};
use rrr_topology::{IpOwner, Topology};
use rrr_types::{CityId, FastMap, Ipv4};

/// Which method produced a location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    Database,
    ShortestPing,
    ConstrainedSearch,
}

/// The geolocation pipeline with a result cache.
pub struct Geolocator {
    db: GeoDb,
    vantages: Vec<PingVantage>,
    cache: FastMap<Ipv4, Option<(CityId, Method)>>,
    pub ping_stats: PingStats,
}

impl Geolocator {
    pub fn new(db: GeoDb, vantages: Vec<PingVantage>) -> Self {
        Geolocator { db, vantages, cache: FastMap::default(), ping_stats: PingStats::default() }
    }

    /// Locates an address, caching the outcome (geolocation changes far
    /// more slowly than routes, so the paper refreshes it rarely).
    pub fn locate(&mut self, topo: &Topology, ip: Ipv4) -> Option<CityId> {
        if let Some(hit) = self.cache.get(&ip) {
            return hit.map(|(c, _)| c);
        }
        let res = self.locate_uncached(topo, ip);
        self.cache.insert(ip, res);
        res.map(|(c, _)| c)
    }

    /// Locates an address and reports which method succeeded.
    pub fn locate_with_method(&mut self, topo: &Topology, ip: Ipv4) -> Option<(CityId, Method)> {
        if let Some(hit) = self.cache.get(&ip) {
            return *hit;
        }
        let res = self.locate_uncached(topo, ip);
        self.cache.insert(ip, res);
        res
    }

    fn locate_uncached(&mut self, topo: &Topology, ip: Ipv4) -> Option<(CityId, Method)> {
        if let Some(c) = self.db.lookup(ip) {
            return Some((c, Method::Database));
        }
        if let Some(c) = shortest_ping(topo, ip, &self.vantages, &mut self.ping_stats) {
            return Some((c, Method::ShortestPing));
        }
        // Constrained search: when the owner AS is documented in exactly one
        // city, the address can only be there.
        if let IpOwner::As(asx) = topo.owner_of_ip(ip) {
            let cities = topo.registry.cities_of(asx);
            if cities.len() == 1 {
                return Some((cities[0], Method::ConstrainedSearch));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrr_topology::{generate, AsIdx, TopologyConfig};

    fn vantages(topo: &Topology) -> Vec<PingVantage> {
        let mut out = Vec::new();
        for (i, info) in topo.ases.iter().enumerate() {
            for &c in &info.cities {
                out.push(PingVantage { asx: AsIdx(i as u32), city: c });
            }
        }
        out
    }

    #[test]
    fn db_hit_short_circuits() {
        let topo = generate(&TopologyConfig::small(5));
        let truth = GeoDb::ground_truth(&topo);
        let mut g = Geolocator::new(truth, vec![]);
        let r = &topo.routers[0];
        assert_eq!(g.locate_with_method(&topo, r.ifaces[0]), Some((r.city, Method::Database)));
        assert_eq!(g.ping_stats.vantages_probed, 0);
    }

    #[test]
    fn ping_fallback_used_when_db_misses() {
        let topo = generate(&TopologyConfig::small(5));
        let mut g = Geolocator::new(GeoDb::default(), vantages(&topo));
        let r = topo.routers.iter().find(|r| r.responsive).expect("responsive router");
        if let Some((_, m)) = g.locate_with_method(&topo, r.ifaces[0]) {
            assert_eq!(m, Method::ShortestPing);
            assert!(g.ping_stats.vantages_probed > 0);
        }
    }

    #[test]
    fn constrained_search_for_single_city_ases() {
        let topo = generate(&TopologyConfig::small(5));
        // Find an unresponsive router (ping fails) owned by a single-city AS.
        let candidate = topo
            .routers
            .iter()
            .find(|r| !r.responsive && topo.registry.cities_of(r.owner).len() == 1);
        if let Some(r) = candidate {
            let mut g = Geolocator::new(GeoDb::default(), vantages(&topo));
            let res = g.locate_with_method(&topo, r.internal_iface);
            assert_eq!(res, Some((topo.registry.cities_of(r.owner)[0], Method::ConstrainedSearch)));
        }
    }

    #[test]
    fn cache_returns_same_answer() {
        let topo = generate(&TopologyConfig::small(5));
        let mut g = Geolocator::new(GeoDb::ground_truth(&topo), vantages(&topo));
        let ip = topo.routers[3].ifaces[0];
        let a = g.locate(&topo, ip);
        let probed = g.ping_stats.vantages_probed;
        let b = g.locate(&topo, ip);
        assert_eq!(a, b);
        assert_eq!(g.ping_stats.vantages_probed, probed, "second lookup must hit cache");
    }

    #[test]
    fn unknown_space_unlocated() {
        let topo = generate(&TopologyConfig::small(5));
        let mut g = Geolocator::new(GeoDb::default(), vec![]);
        assert_eq!(g.locate(&topo, rrr_types::Ipv4::new(9, 9, 9, 9)), None);
    }
}
