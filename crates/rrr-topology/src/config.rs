//! Generator configuration.

/// Parameters controlling topology generation. All randomness is driven by
/// `seed`, so equal configs generate identical topologies.
#[derive(Debug, Clone)]
pub struct TopologyConfig {
    pub seed: u64,
    /// Total number of ASes (≤ 1024 under the address plan).
    pub num_ases: usize,
    /// Size of the tier-1 clique.
    pub num_tier1: usize,
    /// Fraction of non-tier-1 ASes that are large transit providers.
    pub frac_transit: f64,
    /// Fraction of non-tier-1 ASes that are regional providers.
    pub frac_regional: f64,
    /// Number of cities (prefix of the city table).
    pub num_cities: usize,
    /// Number of IXPs.
    pub num_ixps: usize,
    /// Probability that an adjacency has more than one peering point
    /// (additional points added geometrically up to `max_points`).
    pub multi_point_prob: f64,
    /// Maximum peering points per adjacency.
    pub max_points: usize,
    /// Fraction of multi-point adjacencies that ECMP across their points
    /// (interdomain diamonds, §5.4).
    pub ecmp_adjacency_frac: f64,
    /// Fraction of ordered intra-AS city pairs given parallel internal
    /// branches (intradomain diamonds).
    pub intra_diamond_frac: f64,
    /// Fraction of ASes that strip BGP communities on export.
    pub strip_communities_frac: f64,
    /// Fraction of routers that never respond to traceroute probes.
    pub unresponsive_router_frac: f64,
    /// Fraction of true facts (IXP membership, facility presence) missing
    /// from the registry.
    pub registry_omission_frac: f64,
    /// Probability an IXP peering session goes through the route server.
    pub route_server_frac: f64,
    /// Extra more-specific prefixes originated per stub/regional AS.
    pub max_extra_prefixes: usize,
    /// Number of latent (initially inactive) IXP memberships per IXP, used
    /// to drive IXP-join events (§4.2.3).
    pub latent_ixp_members: usize,
}

impl TopologyConfig {
    /// A small deterministic topology for unit tests: fast to generate and
    /// route, but still exhibiting every structural feature (multi-point
    /// adjacencies, IXPs, diamonds, latent members).
    pub fn small(seed: u64) -> Self {
        TopologyConfig {
            seed,
            num_ases: 60,
            num_tier1: 4,
            frac_transit: 0.15,
            frac_regional: 0.25,
            num_cities: 12,
            num_ixps: 3,
            multi_point_prob: 0.45,
            max_points: 3,
            ecmp_adjacency_frac: 0.1,
            intra_diamond_frac: 0.15,
            strip_communities_frac: 0.35,
            unresponsive_router_frac: 0.05,
            registry_omission_frac: 0.1,
            route_server_frac: 0.5,
            max_extra_prefixes: 2,
            latent_ixp_members: 2,
        }
    }

    /// The evaluation-scale topology used by the experiment harness.
    pub fn evaluation(seed: u64) -> Self {
        TopologyConfig {
            seed,
            num_ases: 400,
            num_tier1: 7,
            frac_transit: 0.10,
            frac_regional: 0.22,
            num_cities: 40,
            num_ixps: 10,
            multi_point_prob: 0.5,
            max_points: 4,
            ecmp_adjacency_frac: 0.08,
            intra_diamond_frac: 0.12,
            strip_communities_frac: 0.4,
            unresponsive_router_frac: 0.04,
            registry_omission_frac: 0.12,
            route_server_frac: 0.5,
            max_extra_prefixes: 3,
            latent_ixp_members: 4,
        }
    }
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig::evaluation(1)
    }
}
