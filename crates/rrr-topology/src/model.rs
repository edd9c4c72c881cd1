//! The immutable topology model: ASes, adjacencies, peering points, routers,
//! IXPs, intra-AS paths, and the address plan.

use crate::registry::Registry;
use rrr_types::{Asn, CityId, Ipv4, IxpId, PeeringPointId, Prefix, RouterId};
use std::collections::HashMap;

/// Dense index of an AS inside a [`Topology`] (not the ASN itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AsIdx(pub u32);

impl AsIdx {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Dense index of an adjacency (an AS-AS edge, possibly with several
/// peering points).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AdjacencyId(pub u32);

impl AdjacencyId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Position of an AS in the transit hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tier {
    /// Member of the peering clique at the top.
    Tier1,
    /// Large transit provider.
    Transit,
    /// Regional provider.
    Regional,
    /// Edge network: originates prefixes, provides no transit.
    Stub,
}

/// The business relationship of *a neighbor* relative to the local AS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relationship {
    /// The neighbor pays us: we provide transit to it.
    Customer,
    /// We pay the neighbor for transit.
    Provider,
    /// Settlement-free peer.
    Peer,
}

impl Relationship {
    /// The same edge viewed from the other endpoint.
    pub fn inverse(self) -> Relationship {
        match self {
            Relationship::Customer => Relationship::Provider,
            Relationship::Provider => Relationship::Customer,
            Relationship::Peer => Relationship::Peer,
        }
    }
}

/// A reference from an AS to one of its neighbors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NeighborRef {
    pub peer: AsIdx,
    pub adj: AdjacencyId,
    /// Relationship of `peer` relative to the owning AS.
    pub rel: Relationship,
}

/// One autonomous system.
#[derive(Debug, Clone)]
pub struct AsInfo {
    pub asn: Asn,
    pub tier: Tier,
    /// Cities where this AS has a presence (and a city router).
    pub cities: Vec<CityId>,
    /// The AS's /16 allocation; infrastructure and originated space both
    /// live inside it.
    pub block: Prefix,
    /// Prefixes this AS originates into BGP (includes the covering block and
    /// more specific subnets).
    pub originated: Vec<Prefix>,
    /// Neighbor adjacencies.
    pub neighbors: Vec<NeighborRef>,
    /// Whether this AS strips BGP communities when propagating routes
    /// (§4.1.3 discusses the artifacts this causes).
    pub strips_communities: bool,
    /// City used for intra-AS cost tie-breaking (the AS's backbone hub).
    pub hub_city: CityId,
}

impl AsInfo {
    /// The neighbor reference for `peer`, if adjacent.
    pub fn neighbor(&self, peer: AsIdx) -> Option<&NeighborRef> {
        self.neighbors.iter().find(|n| n.peer == peer)
    }

    /// Whether the AS is present in `city`.
    pub fn in_city(&self, city: CityId) -> bool {
        self.cities.contains(&city)
    }
}

/// An AS-AS adjacency. `rel_b` gives `b`'s relationship relative to `a`
/// (e.g. `Customer` means "b is a's customer").
#[derive(Debug, Clone)]
pub struct Adjacency {
    pub id: AdjacencyId,
    pub a: AsIdx,
    pub b: AsIdx,
    /// Relationship of `b` relative to `a`.
    pub rel_b: Relationship,
    /// The physical interconnection points implementing this adjacency.
    pub points: Vec<PeeringPointId>,
    /// Whether the adjacency load-balances across *all* its points
    /// simultaneously (an interdomain ECMP "diamond", §5.4) instead of
    /// hot-potato selecting a single point per ingress.
    pub ecmp: bool,
    /// Latent adjacencies exist physically (routers, interfaces) but carry
    /// no sessions until an IXP-join event activates them (§4.2.3). They are
    /// absent from the initial registry and initial IXP member lists.
    pub latent: bool,
}

impl Adjacency {
    /// The other endpoint of the edge.
    pub fn other(&self, me: AsIdx) -> AsIdx {
        if self.a == me {
            self.b
        } else {
            debug_assert_eq!(self.b, me);
            self.a
        }
    }
}

/// One physical interconnection between two ASes: a pair of border-router
/// interfaces in a city, either on a private cross-connect or an IXP LAN.
#[derive(Debug, Clone)]
pub struct PeeringPoint {
    pub id: PeeringPointId,
    pub adj: AdjacencyId,
    pub city: CityId,
    /// Set when the interconnection is over an IXP's shared fabric.
    pub ixp: Option<IxpId>,
    /// Whether routes over an IXP point traverse the IXP's route server
    /// (inserting the IXP ASN into AS paths, which the pipeline must strip,
    /// §4.1.1).
    pub route_server: bool,
    pub a_router: RouterId,
    pub b_router: RouterId,
    /// `a`'s interface address on the interconnection medium.
    pub a_iface: Ipv4,
    /// `b`'s interface address on the interconnection medium.
    pub b_iface: Ipv4,
    /// Static IGP cost offsets added to the distance-based cost when either
    /// side evaluates this point as an egress (perturbed by events).
    pub bias_a: u32,
    pub bias_b: u32,
}

impl PeeringPoint {
    /// Interface and router of the given side (`true` = side `a`).
    pub fn side(&self, is_a: bool) -> (RouterId, Ipv4) {
        if is_a {
            (self.a_router, self.a_iface)
        } else {
            (self.b_router, self.b_iface)
        }
    }
}

/// A router. Each AS has one "city router" per city of presence; diamonds
/// add auxiliary mid routers.
#[derive(Debug, Clone)]
pub struct Router {
    pub id: RouterId,
    pub owner: AsIdx,
    pub city: CityId,
    /// The router's canonical internal interface address.
    pub internal_iface: Ipv4,
    /// All interface addresses (internal, link, IXP LAN) — the alias set.
    pub ifaces: Vec<Ipv4>,
    /// Routers that never answer traceroute probes.
    pub responsive: bool,
    /// `true` for the per-(AS, city) border/core router; `false` for
    /// auxiliary diamond mid-routers.
    pub is_city_router: bool,
}

/// An Internet exchange point.
#[derive(Debug, Clone)]
pub struct Ixp {
    pub id: IxpId,
    /// The route-server ASN (to be stripped from AS paths).
    pub asn: Asn,
    pub city: CityId,
    /// The shared LAN prefix; member interfaces live here.
    pub lan: Prefix,
    /// Initial member ASes (ground truth).
    pub members: Vec<AsIdx>,
}

/// Who owns an IP address, per the topology's regular address plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpOwner {
    As(AsIdx),
    Ixp(IxpId),
    Unknown,
}

/// Address-plan constants. Every AS gets a /16 at `AS_BASE + idx << 16`;
/// every IXP a /20 at `IXP_BASE + idx << 12`.
pub mod plan {
    /// 16.0.0.0 — base of AS /16 blocks.
    pub const AS_BASE: u32 = 0x1000_0000;
    /// 11.0.0.0 — base of IXP /20 LANs.
    pub const IXP_BASE: u32 = 0x0B00_0000;
    /// Offsets inside an AS /16 block.
    pub const ROUTER_IFACE_OFF: u32 = 0x8000;
    pub const LINK_SUBNET_OFF: u32 = 0x9000;
    pub const HOST_OFF: u32 = 0xC000;
    /// Max ASes representable without block overlap below the IXP base.
    pub const MAX_ASES: u32 = 0x0400_0000 >> 16; // 16.0.0.0..20.0.0.0 => 1024
}

/// The complete immutable topology.
#[derive(Debug, Clone)]
pub struct Topology {
    pub ases: Vec<AsInfo>,
    pub adjacencies: Vec<Adjacency>,
    pub points: Vec<PeeringPoint>,
    pub routers: Vec<Router>,
    pub ixps: Vec<Ixp>,
    /// Number of cities in use (prefix of [`crate::CITY_TABLE`]).
    pub num_cities: usize,
    /// ASN → dense index.
    pub asn_index: HashMap<Asn, AsIdx>,
    /// Interface address → owning router.
    pub iface_owner: HashMap<Ipv4, RouterId>,
    /// Intra-AS parallel branch sets: (AS, from city, to city) → branches,
    /// each branch a list of mid-router internal interfaces (possibly empty
    /// = direct). More than one branch means an intradomain ECMP diamond.
    pub intra: HashMap<(AsIdx, CityId, CityId), Vec<Vec<Ipv4>>>,
    /// The PeeringDB-like registry visible to inference tools.
    pub registry: Registry,
    /// (AS, city) → city router, built by the generator.
    pub city_router_index: HashMap<(AsIdx, CityId), RouterId>,
}

impl Topology {
    pub fn num_ases(&self) -> usize {
        self.ases.len()
    }

    pub fn as_info(&self, idx: AsIdx) -> &AsInfo {
        &self.ases[idx.index()]
    }

    pub fn asn_of(&self, idx: AsIdx) -> Asn {
        self.ases[idx.index()].asn
    }

    pub fn idx_of(&self, asn: Asn) -> Option<AsIdx> {
        self.asn_index.get(&asn).copied()
    }

    pub fn adjacency(&self, id: AdjacencyId) -> &Adjacency {
        &self.adjacencies[id.index()]
    }

    pub fn point(&self, id: PeeringPointId) -> &PeeringPoint {
        &self.points[id.index()]
    }

    pub fn router(&self, id: RouterId) -> &Router {
        &self.routers[id.index()]
    }

    pub fn ixp(&self, id: IxpId) -> &Ixp {
        &self.ixps[id.index()]
    }

    /// The adjacency between two ASes, if any.
    pub fn adjacency_between(&self, x: AsIdx, y: AsIdx) -> Option<&Adjacency> {
        self.as_info(x).neighbor(y).map(|n| self.adjacency(n.adj))
    }

    /// Relationship of `y` relative to `x`, if adjacent.
    pub fn rel(&self, x: AsIdx, y: AsIdx) -> Option<Relationship> {
        self.as_info(x).neighbor(y).map(|n| n.rel)
    }

    /// Owner of an address under the regular address plan.
    pub fn owner_of_ip(&self, ip: Ipv4) -> IpOwner {
        let v = ip.value();
        if v >= plan::AS_BASE {
            let idx = (v - plan::AS_BASE) >> 16;
            if (idx as usize) < self.ases.len() {
                return IpOwner::As(AsIdx(idx));
            }
        } else if v >= plan::IXP_BASE {
            let idx = (v - plan::IXP_BASE) >> 12;
            if (idx as usize) < self.ixps.len() {
                return IpOwner::Ixp(IxpId(idx as u16));
            }
        }
        IpOwner::Unknown
    }

    /// The router that owns interface `ip`, if any (alias ground truth).
    pub fn router_of_iface(&self, ip: Ipv4) -> Option<RouterId> {
        self.iface_owner.get(&ip).copied()
    }

    /// The `k`-th host (probe/server) address of an AS.
    pub fn host_addr(&self, idx: AsIdx, k: u32) -> Ipv4 {
        assert!(k < 0x4000, "host index {k} exhausts the host range");
        Ipv4(self.as_info(idx).block.network().value() + plan::HOST_OFF + k)
    }

    /// The city router of an AS in a city, if present. City routers are
    /// created first, one per (AS, city), in AS-then-city order, so this is
    /// a lookup table built at generation time.
    pub fn city_router(&self, idx: AsIdx, city: CityId) -> Option<RouterId> {
        // Router vectors are small per AS; linear scan over the AS's cities
        // via the router table is avoided by the generator storing city
        // routers first with a deterministic layout.
        self.city_router_index.get(&(idx, city)).copied()
    }

    /// IGP cost between two cities of an AS: great-circle distance in km,
    /// which both the control plane (hot-potato egress choice) and the data
    /// plane share. Same-city cost is 0.
    pub fn igp_base_cost(&self, from: CityId, to: CityId) -> u32 {
        if from == to {
            return 0;
        }
        let a = crate::city::city(from).point();
        let b = crate::city::city(to).point();
        a.distance_km(b).round() as u32
    }

    /// All destination prefixes with their origin AS.
    pub fn all_originations(&self) -> impl Iterator<Item = (Prefix, AsIdx)> + '_ {
        self.ases
            .iter()
            .enumerate()
            .flat_map(|(i, info)| info.originated.iter().map(move |p| (*p, AsIdx(i as u32))))
    }

    /// Intra-AS branch set between two cities (empty-branch singleton when
    /// no entry was generated, i.e. a direct internal hop).
    pub fn intra_branches(&self, idx: AsIdx, from: CityId, to: CityId) -> &[Vec<Ipv4>] {
        static DIRECT: &[Vec<Ipv4>] = &[Vec::new()];
        match self.intra.get(&(idx, from, to)) {
            Some(b) => b,
            None => DIRECT,
        }
    }
}

// The lookup table is part of the struct; kept separate in declaration order
// for readability of the public fields above.
impl Topology {
    pub(crate) fn build_city_router_index(&mut self) {
        self.city_router_index = self
            .routers
            .iter()
            .filter(|r| r.is_city_router)
            .map(|r| ((r.owner, r.city), r.id))
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relationship_inverse() {
        assert_eq!(Relationship::Customer.inverse(), Relationship::Provider);
        assert_eq!(Relationship::Provider.inverse(), Relationship::Customer);
        assert_eq!(Relationship::Peer.inverse(), Relationship::Peer);
    }

    #[test]
    // The point of this test is exactly to assert relations on constants.
    #[allow(clippy::assertions_on_constants)]
    fn plan_constants_disjoint() {
        // IXP space must end below AS space for owner_of_ip dispatch.
        let max_ixp = plan::IXP_BASE + (0xFF << 12);
        assert!(max_ixp < plan::AS_BASE);
        assert!(plan::ROUTER_IFACE_OFF < plan::LINK_SUBNET_OFF);
        assert!(plan::LINK_SUBNET_OFF < plan::HOST_OFF);
    }
}
