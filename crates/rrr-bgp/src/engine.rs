//! The BGP engine: applies the event schedule, maintains per-VP RIBs, and
//! emits the update stream a route collector would publish.

use crate::attrs::{route_attrs, RouteAttrs};
use crate::events::{Event, EventKind};
use crate::routing::{compute_routes, RouteTable};
use crate::state::NetState;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rrr_topology::{AsIdx, Tier, Topology};
use rrr_types::{Asn, BgpElem, BgpUpdate, CityId, Timestamp, VpId};
use std::sync::Arc;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    pub seed: u64,
    /// Number of collector-peer vantage points (each in a distinct AS).
    pub num_vps: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { seed: 1, num_vps: 24 }
    }
}

/// A BGP vantage point: a router in `asx` (at `city`) peering with a
/// collector and providing a full feed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VantagePoint {
    pub id: VpId,
    pub asx: AsIdx,
    pub city: CityId,
}

/// The control-plane simulation engine.
pub struct Engine {
    topo: Arc<Topology>,
    state: NetState,
    routes: RouteTable,
    vps: Vec<VantagePoint>,
    /// last advertised attributes per `[vp][origin]`
    last_attrs: Vec<Vec<Option<RouteAttrs>>>,
    events: Vec<Event>,
    cursor: usize,
    now: Timestamp,
    /// Bumped on every applied event; lets consumers cache state-derived
    /// values (e.g. ground-truth paths) between events.
    version: u64,
}

impl Engine {
    /// Builds the engine: selects VPs (tier-1 and transit ASes first, then
    /// random others) and computes the initial table.
    pub fn new(topo: Arc<Topology>, cfg: &EngineConfig, mut events: Vec<Event>) -> Self {
        // Event application requires time order; sort defensively (stable,
        // so equal-time events keep their scheduled sequence).
        events.sort_by_key(|e| e.time);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut core: Vec<AsIdx> = (0..topo.num_ases())
            .map(|i| AsIdx(i as u32))
            .filter(|&i| matches!(topo.as_info(i).tier, Tier::Tier1 | Tier::Transit))
            .collect();
        core.shuffle(&mut rng);
        let mut rest: Vec<AsIdx> = (0..topo.num_ases())
            .map(|i| AsIdx(i as u32))
            .filter(|&i| !matches!(topo.as_info(i).tier, Tier::Tier1 | Tier::Transit))
            .collect();
        rest.shuffle(&mut rng);
        let chosen: Vec<AsIdx> = core.into_iter().chain(rest).take(cfg.num_vps).collect();
        let vps: Vec<VantagePoint> = chosen
            .iter()
            .enumerate()
            .map(|(i, &asx)| VantagePoint {
                id: VpId(i as u32),
                asx,
                city: topo.as_info(asx).hub_city,
            })
            .collect();

        let state = NetState::new(&topo);
        let routes = compute_routes(&topo, &state);
        let last_attrs = vps
            .iter()
            .map(|vp| {
                (0..topo.num_ases())
                    .map(|o| route_attrs(&topo, &state, &routes, vp.asx, vp.city, AsIdx(o as u32)))
                    .collect()
            })
            .collect();

        Engine {
            topo,
            state,
            routes,
            vps,
            last_attrs,
            events,
            cursor: 0,
            now: Timestamp::ZERO,
            version: 0,
        }
    }

    pub fn topo(&self) -> &Topology {
        &self.topo
    }
    pub fn state(&self) -> &NetState {
        &self.state
    }
    pub fn routes(&self) -> &RouteTable {
        &self.routes
    }
    pub fn vps(&self) -> &[VantagePoint] {
        &self.vps
    }
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// Each vantage point with its AS number — the peer table an MRT
    /// encoder needs to frame this engine's update stream.
    pub fn vp_asns(&self) -> Vec<(VpId, Asn)> {
        self.vps.iter().map(|vp| (vp.id, self.topo.asn_of(vp.asx))).collect()
    }

    /// State version: incremented once per applied event.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The initial RIB as a set of announce records (a TABLE_DUMP analogue)
    /// at the current time.
    pub fn rib_snapshot(&self) -> Vec<BgpUpdate> {
        let mut out = Vec::new();
        for vp in &self.vps {
            for o in 0..self.topo.num_ases() {
                if let Some(attrs) = &self.last_attrs[vp.id.index()][o] {
                    for &prefix in &self.topo.as_info(AsIdx(o as u32)).originated {
                        out.push(BgpUpdate {
                            time: self.now,
                            vp: vp.id,
                            prefix,
                            elem: BgpElem::Announce {
                                path: attrs.path.clone(),
                                communities: attrs.communities.clone(),
                            },
                        });
                    }
                }
            }
        }
        out
    }

    /// Advances simulated time to `t`, applying every event scheduled in
    /// `(now, t]` and returning the BGP updates emitted, in time order.
    ///
    /// Duplicate updates appear as announcements identical to the previous
    /// one — exactly what a collector dump shows.
    pub fn advance_to(&mut self, t: Timestamp) -> Vec<BgpUpdate> {
        let mut out = Vec::new();
        while self.cursor < self.events.len() && self.events[self.cursor].time <= t {
            let ev = self.events[self.cursor].clone();
            self.cursor += 1;
            self.version += 1;
            self.apply_event(&ev, &mut out);
        }
        self.now = t;
        out
    }

    /// Applies one event and appends resulting updates.
    fn apply_event(&mut self, ev: &Event, out: &mut Vec<BgpUpdate>) {
        match &ev.kind {
            EventKind::PointDown(p) => {
                self.state.point_up[p.index()] = false;
            }
            EventKind::PointUp(p) => {
                // Never re-activate points of still-latent adjacencies.
                self.state.point_up[p.index()] = true;
            }
            EventKind::AdjacencyDown(a) => {
                self.state.adj_active[a.index()] = false;
            }
            EventKind::AdjacencyUp(a) => {
                self.state.adj_active[a.index()] = true;
            }
            EventKind::BiasShift { point, side_a, bias } => {
                if *side_a {
                    self.state.bias_a[point.index()] = *bias;
                } else {
                    self.state.bias_b[point.index()] = *bias;
                }
                // Routes whose egress chain crosses this point re-sign
                // (MED/IGP attribute change), producing duplicates scoped
                // to the affected routes.
                self.state.point_epoch[point.index()] += 1;
            }
            EventKind::IgpWobble { asx } => {
                self.state.wobble_epoch[asx.index()] += 1;
            }
            EventKind::PolicySalt { asx, origin, salt } => {
                self.state.tiebreak_salt.insert((*asx, *origin), *salt);
            }
            EventKind::TeToggle { asx, community } => {
                let set = &mut self.state.te_communities[asx.index()];
                if !set.remove(community) {
                    set.insert(*community);
                }
            }
            EventKind::IxpJoin { asx, ixp } => {
                for adj in self.topo.adjacencies.iter().filter(|a| a.latent) {
                    if adj.a != *asx && adj.b != *asx {
                        continue;
                    }
                    let at = self.topo.point(adj.points[0]).ixp;
                    if at == Some(*ixp) {
                        self.state.adj_active[adj.id.index()] = true;
                    }
                }
                self.state.activated_memberships.push((*asx, *ixp));
            }
        }

        if ev.kind.changes_routing() {
            self.routes = compute_routes(&self.topo, &self.state);
        }
        self.emit_diffs(ev.time, out);
    }

    /// Recomputes attributes for every (VP, origin) pair and emits updates
    /// where they differ from the last advertisement. A signature-only
    /// change re-announces identical attributes (a duplicate).
    fn emit_diffs(&mut self, time: Timestamp, out: &mut Vec<BgpUpdate>) {
        for vp in &self.vps {
            for o in 0..self.topo.num_ases() {
                let origin = AsIdx(o as u32);
                let new =
                    route_attrs(&self.topo, &self.state, &self.routes, vp.asx, vp.city, origin);
                let old = &self.last_attrs[vp.id.index()][o];
                if *old == new {
                    continue;
                }
                match (&old, &new) {
                    (_, Some(attrs)) => {
                        for &prefix in &self.topo.as_info(origin).originated {
                            out.push(BgpUpdate {
                                time,
                                vp: vp.id,
                                prefix,
                                elem: BgpElem::Announce {
                                    path: attrs.path.clone(),
                                    communities: attrs.communities.clone(),
                                },
                            });
                        }
                    }
                    (Some(_), None) => {
                        for &prefix in &self.topo.as_info(origin).originated {
                            out.push(BgpUpdate {
                                time,
                                vp: vp.id,
                                prefix,
                                elem: BgpElem::Withdraw,
                            });
                        }
                    }
                    (None, None) => {}
                }
                self.last_attrs[vp.id.index()][o] = new;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{generate_events, EventConfig};
    use rrr_topology::{generate, TopologyConfig};
    use rrr_types::Duration;

    fn engine(seed: u64, days: u64) -> Engine {
        let topo = Arc::new(generate(&TopologyConfig::small(seed)));
        let events = generate_events(&topo, &EventConfig::small(seed, Duration::days(days)));
        Engine::new(topo, &EngineConfig { seed, num_vps: 8 }, events)
    }

    #[test]
    fn initial_rib_covers_all_reachable_pairs() {
        let e = engine(3, 5);
        let rib = e.rib_snapshot();
        // 8 vps × 60 origins × >=1 prefix
        assert!(rib.len() >= 8 * 60, "rib too small: {}", rib.len());
        assert!(rib.iter().all(|u| u.is_announce()));
    }

    #[test]
    fn advance_emits_updates_in_order() {
        let mut e = engine(3, 5);
        let ups = e.advance_to(Timestamp(Duration::days(5).as_secs()));
        assert!(!ups.is_empty(), "a 5-day schedule must produce updates");
        for w in ups.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        assert_eq!(e.now(), Timestamp(Duration::days(5).as_secs()));
    }

    #[test]
    fn duplicate_updates_exist() {
        // IGP wobbles must produce announcements identical to the previous
        // state of the same (vp, prefix).
        let mut e = engine(4, 10);
        use std::collections::HashMap;
        let mut last: HashMap<(VpId, rrr_types::Prefix), BgpElem> = HashMap::new();
        for u in e.rib_snapshot() {
            last.insert((u.vp, u.prefix), u.elem);
        }
        let ups = e.advance_to(Timestamp(Duration::days(10).as_secs()));
        let mut dups = 0;
        for u in ups {
            if let Some(prev) = last.get(&(u.vp, u.prefix)) {
                if *prev == u.elem {
                    dups += 1;
                }
            }
            last.insert((u.vp, u.prefix), u.elem);
        }
        assert!(dups > 0, "expected duplicate updates from IGP wobbles");
    }

    #[test]
    fn community_changes_with_same_path_exist() {
        let mut e = engine(5, 10);
        use std::collections::HashMap;
        let mut last: HashMap<(VpId, rrr_types::Prefix), BgpElem> = HashMap::new();
        for u in e.rib_snapshot() {
            last.insert((u.vp, u.prefix), u.elem);
        }
        let ups = e.advance_to(Timestamp(Duration::days(10).as_secs()));
        let mut comm_only = 0;
        for u in ups {
            if let (
                Some(BgpElem::Announce { path: p0, communities: c0 }),
                BgpElem::Announce { path, communities },
            ) = (last.get(&(u.vp, u.prefix)), &u.elem)
            {
                if p0 == path && c0 != communities {
                    comm_only += 1;
                }
            }
            last.insert((u.vp, u.prefix), u.elem);
        }
        assert!(comm_only > 0, "expected community-only changes from hot-potato shifts");
    }

    #[test]
    fn vps_are_distinct_ases() {
        let e = engine(6, 1);
        let mut seen = std::collections::HashSet::new();
        for vp in e.vps() {
            assert!(seen.insert(vp.asx), "duplicate VP AS");
        }
    }

    #[test]
    fn ixp_join_activates_latent_adjacency() {
        let topo = Arc::new(generate(&TopologyConfig::small(7)));
        let events = generate_events(&topo, &EventConfig::small(7, Duration::days(20)));
        let join_time = events
            .iter()
            .find_map(|e| match e.kind {
                EventKind::IxpJoin { .. } => Some(e.time),
                _ => None,
            })
            .expect("join scheduled");
        let mut e = Engine::new(Arc::clone(&topo), &EngineConfig { seed: 7, num_vps: 6 }, events);
        assert!(e.state().activated_memberships.is_empty());
        e.advance_to(join_time);
        assert!(!e.state().activated_memberships.is_empty());
        let (asx, ixp) = e.state().activated_memberships[0];
        // At least one latent adjacency of that AS at that IXP is now active.
        let activated = topo.adjacencies.iter().any(|a| {
            a.latent
                && (a.a == asx || a.b == asx)
                && topo.point(a.points[0]).ixp == Some(ixp)
                && e.state().adj_active[a.id.index()]
        });
        assert!(activated);
    }

    #[test]
    fn withdraw_and_reannounce_on_partition() {
        // Cut ALL adjacencies of a stub: every VP must withdraw its
        // prefixes; restoring must re-announce.
        let topo = Arc::new(generate(&TopologyConfig::small(8)));
        let stub = (0..topo.num_ases())
            .map(|i| AsIdx(i as u32))
            .find(|&i| topo.as_info(i).tier == Tier::Stub)
            .expect("stub");
        let mut events = Vec::new();
        for n in &topo.as_info(stub).neighbors {
            events.push(Event { time: Timestamp(100), kind: EventKind::AdjacencyDown(n.adj) });
            events.push(Event { time: Timestamp(200), kind: EventKind::AdjacencyUp(n.adj) });
        }
        let mut e = Engine::new(Arc::clone(&topo), &EngineConfig { seed: 8, num_vps: 6 }, events);
        let ups = e.advance_to(Timestamp(150));
        let withdrawn = ups
            .iter()
            .filter(|u| !u.is_announce() && topo.as_info(stub).block.covers(u.prefix))
            .count();
        assert!(withdrawn > 0, "expected withdrawals for partitioned stub");
        let ups2 = e.advance_to(Timestamp(300));
        let reann = ups2
            .iter()
            .filter(|u| u.is_announce() && topo.as_info(stub).block.covers(u.prefix))
            .count();
        assert!(reann > 0, "expected re-announcements after repair");
    }
}
