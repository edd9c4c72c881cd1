//! Geolocation databases: ground truth and synthetic noisy variants
//! (crowd-sourced / router-specific / general-purpose, used by the Figure 12
//! validation).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rrr_topology::Topology;
use rrr_types::{CityId, FastMap, Ipv4};

/// A per-address city database.
#[derive(Debug, Clone, Default)]
pub struct GeoDb {
    map: FastMap<Ipv4, CityId>,
}

impl GeoDb {
    /// The exact city of every router interface (simulation ground truth;
    /// play the role of "where the router actually is").
    pub fn ground_truth(topo: &Topology) -> Self {
        let mut map = FastMap::default();
        for r in &topo.routers {
            for &ip in &r.ifaces {
                map.insert(ip, r.city);
            }
        }
        GeoDb { map }
    }

    /// A synthetic database covering a `coverage` fraction of interfaces,
    /// correct on an `exact_frac` fraction of its entries; wrong entries
    /// point at a uniformly random other city.
    ///
    /// Presets matching the paper's three validation databases:
    /// crowd-sourced `(0.10, 0.93)`, router-specific `(0.40, 0.75)`,
    /// general-purpose `(1.00, 0.60)`.
    pub fn noisy(topo: &Topology, coverage: f64, exact_frac: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut map = FastMap::default();
        for r in &topo.routers {
            for &ip in &r.ifaces {
                if !rng.gen_bool(coverage) {
                    continue;
                }
                let city = if rng.gen_bool(exact_frac) {
                    r.city
                } else {
                    let mut c = CityId(rng.gen_range(0..topo.num_cities as u16));
                    if c == r.city {
                        c = CityId((c.0 + 1) % topo.num_cities as u16);
                    }
                    c
                };
                map.insert(ip, city);
            }
        }
        GeoDb { map }
    }

    /// Looks up an address.
    pub fn lookup(&self, ip: Ipv4) -> Option<CityId> {
        self.map.get(&ip).copied()
    }

    /// Inserts an entry (used to build custom DBs in tests).
    pub fn insert(&mut self, ip: Ipv4, city: CityId) {
        self.map.insert(ip, city);
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates all entries.
    pub fn iter(&self) -> impl Iterator<Item = (Ipv4, CityId)> + '_ {
        self.map.iter().map(|(k, v)| (*k, *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrr_topology::{generate, TopologyConfig};

    #[test]
    fn ground_truth_covers_all_ifaces() {
        let topo = generate(&TopologyConfig::small(5));
        let db = GeoDb::ground_truth(&topo);
        let total: usize = topo.routers.iter().map(|r| r.ifaces.len()).sum();
        assert_eq!(db.len(), total);
        for r in &topo.routers {
            for &ip in &r.ifaces {
                assert_eq!(db.lookup(ip), Some(r.city));
            }
        }
    }

    #[test]
    fn noisy_db_respects_coverage_and_accuracy() {
        let topo = generate(&TopologyConfig::small(5));
        let truth = GeoDb::ground_truth(&topo);
        let db = GeoDb::noisy(&topo, 0.5, 0.8, 7);
        let total = truth.len();
        assert!(db.len() > total / 4 && db.len() < 3 * total / 4, "coverage off: {}", db.len());
        let correct = db.iter().filter(|(ip, c)| truth.lookup(*ip) == Some(*c)).count();
        let frac = correct as f64 / db.len() as f64;
        assert!((0.65..0.95).contains(&frac), "accuracy off: {frac}");
    }

    #[test]
    fn full_coverage_preset() {
        let topo = generate(&TopologyConfig::small(5));
        let db = GeoDb::noisy(&topo, 1.0, 0.6, 9);
        let truth = GeoDb::ground_truth(&topo);
        assert_eq!(db.len(), truth.len());
    }

    #[test]
    fn deterministic() {
        let topo = generate(&TopologyConfig::small(5));
        let a = GeoDb::noisy(&topo, 0.5, 0.8, 7);
        let b = GeoDb::noisy(&topo, 0.5, 0.8, 7);
        let mut av: Vec<_> = a.iter().collect();
        let mut bv: Vec<_> = b.iter().collect();
        av.sort();
        bv.sort();
        assert_eq!(av, bv);
    }
}
