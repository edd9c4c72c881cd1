//! A PeeringDB-like registry: the *publicly documented* view of facilities,
//! AS presence, and IXP membership.
//!
//! Deliberately imperfect — a configurable fraction of IXP memberships and
//! facility presences are omitted, so inference code (IXP membership
//! tracking §4.2.3, shortest-ping geolocation Appendix A) must cope with
//! missing entries exactly as it would against the real PeeringDB.

use crate::model::AsIdx;
use rrr_types::{Asn, CityId, FacilityId, IxpId, Prefix};
use std::collections::{HashMap, HashSet};

/// A colocation facility.
#[derive(Debug, Clone)]
pub struct Facility {
    pub id: FacilityId,
    pub city: CityId,
    pub name: String,
}

/// Registry contents.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    pub facilities: Vec<Facility>,
    /// Facilities each AS is documented to be present at.
    pub as_facilities: HashMap<AsIdx, Vec<FacilityId>>,
    /// Documented IXP membership (may omit real members).
    pub ixp_members: HashMap<IxpId, HashSet<AsIdx>>,
    /// IXP LAN prefixes (documented completely; these are easy to find in
    /// practice).
    pub ixp_lans: HashMap<IxpId, Prefix>,
    /// ASNs documented as IXP route servers (PeeringDB "Route Server" type,
    /// §4.1.1 strips these from AS paths).
    pub route_server_asns: Vec<Asn>,
    /// CAIDA-style AS relationship database: (a, b) → `true` when `a` is a
    /// provider of `b`. Peers are stored as absence plus presence in
    /// `peer_pairs`.
    pub p2c_pairs: HashSet<(AsIdx, AsIdx)>,
    pub peer_pairs: HashSet<(AsIdx, AsIdx)>,
}

impl Registry {
    /// Facilities of an AS in a given city (documented view).
    pub fn facilities_of_in(&self, asx: AsIdx, city: CityId) -> Vec<FacilityId> {
        self.as_facilities
            .get(&asx)
            .map(|fs| {
                fs.iter().filter(|f| self.facilities[f.index()].city == city).copied().collect()
            })
            .unwrap_or_default()
    }

    /// All cities an AS is documented to have a facility in.
    pub fn cities_of(&self, asx: AsIdx) -> Vec<CityId> {
        let mut cities: Vec<CityId> = self
            .as_facilities
            .get(&asx)
            .map(|fs| fs.iter().map(|f| self.facilities[f.index()].city).collect())
            .unwrap_or_default();
        cities.sort_unstable();
        cities.dedup();
        cities
    }

    /// Documented membership check.
    pub fn is_ixp_member(&self, ixp: IxpId, asx: AsIdx) -> bool {
        self.ixp_members.get(&ixp).is_some_and(|m| m.contains(&asx))
    }

    /// CAIDA-relationship lookup: relationship of `b` relative to `a`
    /// (`Some(Customer)` when b is a's customer), mirroring
    /// [`crate::Relationship`] semantics. `None` when not adjacent per the
    /// database.
    pub fn db_rel(&self, a: AsIdx, b: AsIdx) -> Option<crate::Relationship> {
        if self.p2c_pairs.contains(&(a, b)) {
            Some(crate::Relationship::Customer)
        } else if self.p2c_pairs.contains(&(b, a)) {
            Some(crate::Relationship::Provider)
        } else if self.peer_pairs.contains(&(a, b)) || self.peer_pairs.contains(&(b, a)) {
            Some(crate::Relationship::Peer)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Relationship;

    #[test]
    fn rel_db_orientation() {
        let mut r = Registry::default();
        r.p2c_pairs.insert((AsIdx(0), AsIdx(1))); // 1 is 0's customer
        r.peer_pairs.insert((AsIdx(2), AsIdx(3)));
        assert_eq!(r.db_rel(AsIdx(0), AsIdx(1)), Some(Relationship::Customer));
        assert_eq!(r.db_rel(AsIdx(1), AsIdx(0)), Some(Relationship::Provider));
        assert_eq!(r.db_rel(AsIdx(2), AsIdx(3)), Some(Relationship::Peer));
        assert_eq!(r.db_rel(AsIdx(3), AsIdx(2)), Some(Relationship::Peer));
        assert_eq!(r.db_rel(AsIdx(0), AsIdx(3)), None);
    }

    #[test]
    fn facility_queries() {
        let mut r = Registry::default();
        r.facilities.push(Facility { id: FacilityId(0), city: CityId(1), name: "fra-1".into() });
        r.facilities.push(Facility { id: FacilityId(1), city: CityId(0), name: "lon-1".into() });
        r.as_facilities.insert(AsIdx(7), vec![FacilityId(0), FacilityId(1)]);
        assert_eq!(r.facilities_of_in(AsIdx(7), CityId(1)), vec![FacilityId(0)]);
        assert!(r.facilities_of_in(AsIdx(9), CityId(1)).is_empty());
        assert_eq!(r.cities_of(AsIdx(7)), vec![CityId(0), CityId(1)]);
    }
}
