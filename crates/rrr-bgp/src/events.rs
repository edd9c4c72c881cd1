//! The routing event model: what changes in the network and when.
//!
//! Events are pre-generated for the whole campaign from a seed, so a run is
//! reproducible and the ground truth of "what changed when" is known exactly.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rrr_topology::{AdjacencyId, AsIdx, Topology};
use rrr_types::{Community, Duration, IxpId, PeeringPointId, Timestamp};

/// A single network event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    pub time: Timestamp,
    pub kind: EventKind,
}

/// The kinds of changes the simulated network undergoes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A peering point's session goes down (maintenance, failure).
    PointDown(PeeringPointId),
    /// The session comes back.
    PointUp(PeeringPointId),
    /// A whole adjacency is deactivated (depeering / major outage).
    AdjacencyDown(AdjacencyId),
    /// …and reactivated.
    AdjacencyUp(AdjacencyId),
    /// Hot-potato shift: one side changes the IGP bias of a point, possibly
    /// moving the selected egress to another city — a border-level change
    /// invisible in AS paths.
    BiasShift { point: PeeringPointId, side_a: bool, bias: u32 },
    /// Internal IGP churn in one AS that does not move any egress: produces
    /// duplicate updates only.
    IgpWobble { asx: AsIdx },
    /// A routing-policy flip: permutes the AS's tiebreak among
    /// equally-preferred routes toward `origin` — an AS-path change.
    PolicySalt { asx: AsIdx, origin: AsIdx, salt: u64 },
    /// Attach or detach a traffic-engineering community unrelated to paths
    /// (false-positive source for the community technique, Fig 13).
    TeToggle { asx: AsIdx, community: Community },
    /// An AS joins an IXP: all its latent adjacencies at that IXP activate
    /// (§4.2.3).
    IxpJoin { asx: AsIdx, ixp: IxpId },
}

impl EventKind {
    /// Whether the event can change the AS-level route table.
    pub fn changes_routing(&self) -> bool {
        matches!(
            self,
            EventKind::PointDown(_)
                | EventKind::PointUp(_)
                | EventKind::AdjacencyDown(_)
                | EventKind::AdjacencyUp(_)
                | EventKind::PolicySalt { .. }
                | EventKind::IxpJoin { .. }
        )
    }
}

/// Per-day event rates; each category is sampled independently.
#[derive(Debug, Clone)]
pub struct EventConfig {
    pub seed: u64,
    /// Campaign length.
    pub duration: Duration,
    /// Point failures per day (each reverts after an exponential holding
    /// time with the given mean).
    pub point_failures_per_day: f64,
    pub point_failure_mean_hold: Duration,
    /// Adjacency-wide outages per day.
    pub adjacency_failures_per_day: f64,
    pub adjacency_failure_mean_hold: Duration,
    /// Hot-potato bias shifts per day. A fraction revert after a hold.
    pub bias_shifts_per_day: f64,
    pub bias_revert_prob: f64,
    pub bias_mean_hold: Duration,
    /// Pure IGP wobbles per day (duplicates only).
    pub igp_wobbles_per_day: f64,
    /// Policy tiebreak flips per day.
    pub policy_flips_per_day: f64,
    /// TE community toggles per day (path-unrelated noise).
    pub te_toggles_per_day: f64,
    /// Total IXP joins spread over the campaign (bounded by latent
    /// memberships available).
    pub ixp_joins: usize,
}

impl EventConfig {
    /// Rates tuned for the evaluation topology: enough churn that ~15% of
    /// AS-level and ~25-30% of border-level paths change over 60 days
    /// (Figure 1's shape), without melting the network.
    pub fn evaluation(seed: u64, duration: Duration) -> Self {
        EventConfig {
            seed,
            duration,
            point_failures_per_day: 6.0,
            point_failure_mean_hold: Duration::hours(6),
            adjacency_failures_per_day: 0.8,
            adjacency_failure_mean_hold: Duration::hours(4),
            bias_shifts_per_day: 10.0,
            bias_revert_prob: 0.4,
            bias_mean_hold: Duration::hours(12),
            igp_wobbles_per_day: 4.0,
            policy_flips_per_day: 2.0,
            te_toggles_per_day: 6.0,
            ixp_joins: 12,
        }
    }

    /// A light schedule for unit tests.
    pub fn small(seed: u64, duration: Duration) -> Self {
        EventConfig {
            seed,
            duration,
            point_failures_per_day: 8.0,
            point_failure_mean_hold: Duration::hours(3),
            adjacency_failures_per_day: 2.0,
            adjacency_failure_mean_hold: Duration::hours(2),
            bias_shifts_per_day: 12.0,
            bias_revert_prob: 0.5,
            bias_mean_hold: Duration::hours(6),
            igp_wobbles_per_day: 3.0,
            policy_flips_per_day: 4.0,
            te_toggles_per_day: 3.0,
            ixp_joins: 2,
        }
    }
}

/// Exponential inter-arrival sampling (Poisson process) of `rate_per_day`
/// over `[0, duration)`.
fn poisson_times(rng: &mut StdRng, rate_per_day: f64, duration: Duration) -> Vec<Timestamp> {
    let mut out = Vec::new();
    if rate_per_day <= 0.0 {
        return out;
    }
    let mean_gap = 86_400.0 / rate_per_day;
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -mean_gap * u.ln();
        if t >= duration.as_secs() as f64 {
            return out;
        }
        out.push(Timestamp(t as u64));
    }
}

fn exp_hold(rng: &mut StdRng, mean: Duration) -> Duration {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    Duration((-(mean.as_secs() as f64) * u.ln()).max(60.0) as u64)
}

/// Generates the full, time-sorted event schedule for a campaign.
pub fn generate_events(topo: &Topology, cfg: &EventConfig) -> Vec<Event> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut out: Vec<Event> = Vec::new();

    let active_points: Vec<PeeringPointId> =
        topo.points.iter().filter(|p| !topo.adjacency(p.adj).latent).map(|p| p.id).collect();
    let active_adjs: Vec<AdjacencyId> =
        topo.adjacencies.iter().filter(|a| !a.latent).map(|a| a.id).collect();

    // Point failures with reverts. Only fail points whose adjacency has >1
    // point half the time, so some failures cause egress shifts and some
    // cause AS-path changes.
    for t in poisson_times(&mut rng, cfg.point_failures_per_day, cfg.duration) {
        let Some(&p) = active_points.choose(&mut rng) else { continue };
        let hold = exp_hold(&mut rng, cfg.point_failure_mean_hold);
        out.push(Event { time: t, kind: EventKind::PointDown(p) });
        out.push(Event { time: t + hold, kind: EventKind::PointUp(p) });
    }

    for t in poisson_times(&mut rng, cfg.adjacency_failures_per_day, cfg.duration) {
        let Some(&a) = active_adjs.choose(&mut rng) else { continue };
        let hold = exp_hold(&mut rng, cfg.adjacency_failure_mean_hold);
        out.push(Event { time: t, kind: EventKind::AdjacencyDown(a) });
        out.push(Event { time: t + hold, kind: EventKind::AdjacencyUp(a) });
    }

    // Bias shifts (hot-potato changes); some revert to the original bias.
    for t in poisson_times(&mut rng, cfg.bias_shifts_per_day, cfg.duration) {
        let Some(&p) = active_points.choose(&mut rng) else { continue };
        let side_a = rng.gen_bool(0.5);
        let old = if side_a { topo.point(p).bias_a } else { topo.point(p).bias_b };
        // Traffic-engineering moves under lexicographic (bias-first)
        // selection: promote the point above every sibling, demote it below
        // all of them, or wiggle inside the normal range (a MED-style tweak
        // that may flip nothing but still re-signs routes).
        let roll: f64 = rng.gen_range(0.0..1.0);
        let new_bias = if roll < 0.45 {
            0
        } else if roll < 0.9 {
            rng.gen_range(60..100)
        } else {
            rng.gen_range(1..50)
        };
        out.push(Event {
            time: t,
            kind: EventKind::BiasShift { point: p, side_a, bias: new_bias },
        });
        if rng.gen_bool(cfg.bias_revert_prob) {
            let hold = exp_hold(&mut rng, cfg.bias_mean_hold);
            out.push(Event {
                time: t + hold,
                kind: EventKind::BiasShift { point: p, side_a, bias: old },
            });
        }
    }

    for t in poisson_times(&mut rng, cfg.igp_wobbles_per_day, cfg.duration) {
        let asx = AsIdx(rng.gen_range(0..topo.num_ases() as u32));
        out.push(Event { time: t, kind: EventKind::IgpWobble { asx } });
    }

    for t in poisson_times(&mut rng, cfg.policy_flips_per_day, cfg.duration) {
        let asx = AsIdx(rng.gen_range(0..topo.num_ases() as u32));
        let origin = AsIdx(rng.gen_range(0..topo.num_ases() as u32));
        out.push(Event {
            time: t,
            kind: EventKind::PolicySalt { asx, origin, salt: rng.gen::<u64>() | 1 },
        });
    }

    for t in poisson_times(&mut rng, cfg.te_toggles_per_day, cfg.duration) {
        let asx = AsIdx(rng.gen_range(0..topo.num_ases() as u32));
        let asn = topo.asn_of(asx).value().min(u16::MAX as u32);
        let community = Community::new(asn, rng.gen_range(100..1_000));
        out.push(Event { time: t, kind: EventKind::TeToggle { asx, community } });
    }

    // IXP joins: pick distinct latent (AS, IXP) memberships and spread them
    // uniformly over the middle of the campaign.
    let mut latent_memberships: Vec<(AsIdx, IxpId)> = Vec::new();
    for adj in topo.adjacencies.iter().filter(|a| a.latent) {
        let ixp = topo.point(adj.points[0]).ixp.expect("latent adjacencies are IXP peerings");
        // the latent side is the one not in the initial member list
        let members = &topo.ixp(ixp).members;
        for side in [adj.a, adj.b] {
            if !members.contains(&side) && !latent_memberships.contains(&(side, ixp)) {
                latent_memberships.push((side, ixp));
            }
        }
    }
    latent_memberships.shuffle(&mut rng);
    for (i, (asx, ixp)) in latent_memberships.iter().take(cfg.ixp_joins).enumerate() {
        let span = cfg.duration.as_secs();
        let t = Timestamp(span / 4 + (i as u64 + 1) * span / (2 * (cfg.ixp_joins as u64 + 1)));
        out.push(Event { time: t, kind: EventKind::IxpJoin { asx: *asx, ixp: *ixp } });
    }

    out.sort_by_key(|e| e.time);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrr_topology::{generate, TopologyConfig};

    #[test]
    fn schedule_sorted_and_in_range() {
        let topo = generate(&TopologyConfig::small(5));
        let cfg = EventConfig::small(9, Duration::days(10));
        let ev = generate_events(&topo, &cfg);
        assert!(!ev.is_empty());
        for w in ev.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        // Down events are within range; reverts may spill past the end.
        for e in &ev {
            if matches!(e.kind, EventKind::PointDown(_) | EventKind::AdjacencyDown(_)) {
                assert!(e.time.as_secs() < cfg.duration.as_secs());
            }
        }
    }

    #[test]
    fn deterministic() {
        let topo = generate(&TopologyConfig::small(5));
        let cfg = EventConfig::small(9, Duration::days(10));
        assert_eq!(generate_events(&topo, &cfg), generate_events(&topo, &cfg));
    }

    #[test]
    fn failures_always_revert() {
        let topo = generate(&TopologyConfig::small(5));
        let cfg = EventConfig::small(10, Duration::days(20));
        let ev = generate_events(&topo, &cfg);
        let downs = ev.iter().filter(|e| matches!(e.kind, EventKind::PointDown(_))).count();
        let ups = ev.iter().filter(|e| matches!(e.kind, EventKind::PointUp(_))).count();
        assert_eq!(downs, ups);
    }

    #[test]
    fn ixp_joins_target_latent_members() {
        let topo = generate(&TopologyConfig::small(5));
        let cfg = EventConfig::small(10, Duration::days(20));
        let ev = generate_events(&topo, &cfg);
        let joins: Vec<_> = ev
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::IxpJoin { asx, ixp } => Some((asx, ixp)),
                _ => None,
            })
            .collect();
        assert!(!joins.is_empty(), "latent members exist so joins must be scheduled");
        for (asx, ixp) in joins {
            assert!(!topo.ixp(ixp).members.contains(&asx));
        }
    }

    #[test]
    fn poisson_rate_roughly_matches() {
        let mut rng = StdRng::seed_from_u64(1);
        let times = poisson_times(&mut rng, 10.0, Duration::days(100));
        // Expect ~1000 events; allow generous tolerance.
        assert!((700..1300).contains(&times.len()), "{}", times.len());
    }
}
