//! IXP membership change inference (§4.2.3).
//!
//! Membership starts from the registry (PeeringDB analogue) augmented with
//! ASes seen adjacent to IXP interfaces in traceroutes; thereafter, any AS
//! newly observed as the *near-end* (left-adjacent) neighbor of an IXP
//! interface is a new member. Far-end adjacency is ignored: routers reply
//! with their ingress interface, so the hop after an IXP address may not
//! belong to the interface's owner.
//!
//! A new member `AS_i` triggers staleness signals for corpus traceroutes
//! where, after `AS_i`, the path reaches another member `AS_j` via a
//! next-hop `AS_k` that the new IXP peering would plausibly displace:
//! `AS_k` a provider of `AS_i` (peer routes beat provider routes) or a
//! public peer (shortest AS path among equal preference). Private peers are
//! assumed to keep higher local preference unless re-routing through them
//! was previously learned from public feeds.

use crate::corpus::Corpus;
use crate::signal::{SignalKey, SignalScope, StalenessSignal, Technique};
use rrr_ip2as::{find_borders, Border, IpToAsMap};
use rrr_store::{Decoder, Encoder, Persist, StoreError};
use rrr_topology::{Relationship, Topology};
use rrr_types::{Asn, IxpId, Timestamp, Traceroute, TracerouteId, Window};
use std::collections::{BTreeMap, HashMap, HashSet};

/// The §4.2.3 monitor.
pub struct IxpMonitor {
    /// Known members per IXP (by ASN).
    members: HashMap<IxpId, HashSet<Asn>>,
    /// ASes for which re-routing through a *private* peer was observed in
    /// public feeds (enables the private-peer signal case).
    learned_private: HashSet<Asn>,
    /// Transient: any mutation since the last full snapshot. Membership
    /// state is small and changes rarely, so deltas carry it whole rather
    /// than tracking per-IXP churn.
    dirty: bool,
}

impl IxpMonitor {
    /// Initial membership from the registry.
    pub fn new(topo: &Topology) -> Self {
        let mut members: HashMap<IxpId, HashSet<Asn>> = HashMap::new();
        for (ixp, set) in &topo.registry.ixp_members {
            members.insert(*ixp, set.iter().map(|a| topo.asn_of(*a)).collect());
        }
        IxpMonitor { members, learned_private: HashSet::new(), dirty: false }
    }

    /// Whether anything changed since the last full snapshot — gates
    /// whether a delta frame carries this monitor at all.
    pub(crate) fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Resets churn tracking after a full snapshot captured everything.
    pub(crate) fn mark_clean(&mut self) {
        self.dirty = false;
    }

    /// Current member set of an IXP.
    pub fn members(&self, ixp: IxpId) -> Option<&HashSet<Asn>> {
        self.members.get(&ixp)
    }

    /// Marks that `asn` was observed (in public feeds) re-routing through a
    /// private peer, so future private-peer cases generate signals for it.
    pub fn learn_private_rerouting(&mut self, asn: Asn) {
        if self.learned_private.insert(asn) {
            self.dirty = true;
        }
    }

    /// Augments membership from a traceroute *without* treating additions
    /// as changes — used during bootstrap to fill registry omissions.
    pub fn bootstrap_trace(&mut self, tr: &Traceroute, map: &IpToAsMap) {
        for b in find_borders(tr, map) {
            if let Some(ixp) = b.ixp {
                if self.members.entry(ixp).or_default().insert(b.near_as) {
                    self.dirty = true;
                }
            }
        }
    }

    /// Observes a public traceroute; returns newly detected members.
    pub fn observe_trace(&mut self, tr: &Traceroute, map: &IpToAsMap) -> Vec<(Asn, IxpId)> {
        self.observe_borders(&find_borders(tr, map))
    }

    /// [`IxpMonitor::observe_trace`] given the borders of the traceroute
    /// *as measured* — never of a star-patched copy: a LAN address the
    /// patcher filled in was not seen next to anything.
    pub(crate) fn observe_borders(&mut self, borders: &[Border]) -> Vec<(Asn, IxpId)> {
        let mut new = Vec::new();
        for b in borders {
            let Some(ixp) = b.ixp else { continue };
            let set = self.members.entry(ixp).or_default();
            if set.insert(b.near_as) {
                self.dirty = true;
                new.push((b.near_as, ixp));
            }
        }
        new
    }

    /// Generates staleness signals for a newly detected member.
    pub fn signals_for_join(
        &self,
        joined: Asn,
        ixp: IxpId,
        corpus: &Corpus,
        topo: &Topology,
        time: Timestamp,
        window: Window,
    ) -> Vec<StalenessSignal> {
        let Some(members) = self.members.get(&ixp) else { return Vec::new() };
        let Some(joined_idx) = topo.idx_of(joined) else { return Vec::new() };

        // Group affected traceroutes per (member AS_j) so each (joined,
        // member) pair yields one signal. Keyed by a BTreeMap so signal
        // order is stable across processes (the signal log is part of the
        // checkpointed state and must be reproducible).
        let mut per_member: BTreeMap<Asn, Vec<TracerouteId>> = BTreeMap::new();

        let Some(candidates) = corpus.by_asn.get(&joined) else { return Vec::new() };
        for &id in candidates {
            let Some(entry) = corpus.get(id) else { continue };
            let Some(pos_i) = entry.as_path.iter().position(|a| *a == joined) else { continue };
            let Some(&a_k) = entry.as_path.get(pos_i + 1) else { continue };
            // Is some established member reached after AS_i?
            let Some(&a_j) =
                entry.as_path[pos_i + 1..].iter().find(|a| members.contains(a) && **a != joined)
            else {
                continue;
            };
            if a_k == a_j {
                // Already direct; joining the IXP adds nothing to detect.
                continue;
            }
            let Some(k_idx) = topo.idx_of(a_k) else { continue };
            let signal = match topo.registry.db_rel(joined_idx, k_idx) {
                // a_k is AS_i's provider: the new peer route is cheaper.
                Some(Relationship::Provider) => true,
                Some(Relationship::Peer) => {
                    // Public peer (both at some common IXP): equal local
                    // preference, and the direct IXP path is shorter.
                    // Private peer: only if learned.
                    let public = topo
                        .registry
                        .ixp_members
                        .iter()
                        .any(|(_, set)| set.contains(&joined_idx) && set.contains(&k_idx));
                    public || self.learned_private.contains(&joined)
                }
                _ => false,
            };
            if signal {
                per_member.entry(a_j).or_default().push(id);
            }
        }

        per_member
            .into_iter()
            .map(|(member, mut traceroutes)| {
                // Canonical member order: `by_asn` lists ids in insertion
                // order, which differs between a single detector and a
                // partition that saw a different insertion history. Sorting
                // makes the signal a pure function of corpus membership, so
                // cross-partition signal union matches a single instance.
                traceroutes.sort_unstable();
                (member, traceroutes)
            })
            .map(|(member, traceroutes)| StalenessSignal {
                // Join events are rare; no interner needed on this path.
                key: std::sync::Arc::new(SignalKey {
                    technique: Technique::IxpColocation,
                    scope: SignalScope::IxpJoin { joined, member, ixp },
                }),
                time,
                window,
                score: traceroutes.len() as f64,
                traceroutes: traceroutes.into(),
                trigger_communities: Vec::new(),
            })
            .collect()
    }
}

impl Persist for IxpMonitor {
    fn store<W: std::io::Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        self.members.store(e)?;
        self.learned_private.store(e)
    }
    fn load<R: std::io::Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        // Conservatively dirty: a loaded monitor has no delta base yet.
        Ok(IxpMonitor {
            members: Persist::load(d)?,
            learned_private: Persist::load(d)?,
            dirty: true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrr_ip2as::IpToAsMap;
    use rrr_topology::{generate, AsIdx, TopologyConfig};
    use rrr_types::{Hop, Ipv4, Prefix, ProbeId};

    fn ip(s: &str) -> Ipv4 {
        s.parse().expect("valid ip")
    }

    fn trace(id: u64, hops: &[&str]) -> Traceroute {
        Traceroute {
            id: TracerouteId(id),
            probe: ProbeId(0),
            src: ip("10.0.0.200"),
            dst: ip("10.3.0.1"),
            time: Timestamp(0),
            hops: hops.iter().map(|h| Hop::responsive(ip(h))).collect(),
            reached: true,
        }
    }

    /// Map: AS 100..103 own 10.{0..3}/16; IXP 0 LAN = 11.0.0.0/20.
    fn map() -> IpToAsMap {
        let mut m = IpToAsMap::new();
        for i in 0..4u32 {
            m.add_origin(format!("10.{i}.0.0/16").parse::<Prefix>().expect("p"), Asn(100 + i));
        }
        m.add_ixp_lan("11.0.0.0/20".parse::<Prefix>().expect("p"), IxpId(0));
        m
    }

    /// A topology whose registry declares AS idx 1 (ASN 101) provider of
    /// AS idx 0 (ASN 100), and IXP 0 membership {idx 2 (ASN 102)}. All
    /// generated registry state is wiped first so the test controls every
    /// relationship and membership.
    fn topo_with_rels() -> Topology {
        let mut topo = generate(&TopologyConfig::small(3));
        topo.registry.ixp_members.clear();
        topo.registry.p2c_pairs.clear();
        topo.registry.peer_pairs.clear();
        topo.registry.ixp_members.insert(IxpId(0), [AsIdx(2)].into_iter().collect());
        topo.registry.p2c_pairs.insert((AsIdx(1), AsIdx(0))); // 101 provider of 100
        topo
    }

    #[test]
    fn bootstrap_does_not_report_changes() {
        let topo = topo_with_rels();
        let mut mon = IxpMonitor::new(&topo);
        let m = map();
        let tr = trace(1, &["10.0.0.2", "11.0.0.5", "10.2.0.1"]);
        mon.bootstrap_trace(&tr, &m);
        assert!(mon.members(IxpId(0)).expect("ixp known").contains(&Asn(100)));
        // The same observation later is not "new".
        assert!(mon.observe_trace(&tr, &m).is_empty());
    }

    #[test]
    fn new_near_end_as_is_a_join() {
        let topo = topo_with_rels();
        let mut mon = IxpMonitor::new(&topo);
        let m = map();
        let joins = mon.observe_trace(&trace(1, &["10.1.0.2", "11.0.0.5", "10.2.0.1"]), &m);
        assert_eq!(joins, vec![(Asn(101), IxpId(0))]);
        // idempotent
        assert!(mon.observe_trace(&trace(2, &["10.1.0.2", "11.0.0.5", "10.2.0.1"]), &m).is_empty());
    }

    #[test]
    fn join_signals_provider_displacement() {
        // Corpus τ: 100 → 101 → 102 (via provider 101). AS 100 joins IXP 0,
        // where 102 is a member; 101 is 100's provider ⇒ signal.
        let topo = topo_with_rels();
        let mut mon = IxpMonitor::new(&topo);
        let m = map();
        let mut corpus = Corpus::new();
        let id = corpus
            .insert(trace(7, &["10.0.0.2", "10.1.0.1", "10.2.0.1"]), &m, None)
            .expect("valid")
            .id;
        // 100 newly appears at the IXP (some public trace).
        let joins = mon.observe_trace(&trace(8, &["10.0.0.3", "11.0.0.9", "10.3.0.1"]), &m);
        assert_eq!(joins, vec![(Asn(100), IxpId(0))]);
        let signals =
            mon.signals_for_join(Asn(100), IxpId(0), &corpus, &topo, Timestamp(50), Window(1));
        assert_eq!(signals.len(), 1, "{signals:?}");
        assert_eq!(signals[0].traceroutes.to_vec(), vec![id]);
        match &signals[0].key.scope {
            SignalScope::IxpJoin { joined, member, ixp } => {
                assert_eq!((*joined, *member, *ixp), (Asn(100), Asn(102), IxpId(0)));
            }
            other => panic!("wrong scope {other:?}"),
        }
    }

    #[test]
    fn no_signal_when_next_hop_is_private_peer() {
        let mut topo = topo_with_rels();
        // Make 101 a (private) peer of 100 instead of provider.
        topo.registry.p2c_pairs.clear();
        topo.registry.peer_pairs.insert((AsIdx(0), AsIdx(1)));
        let mut mon = IxpMonitor::new(&topo);
        let m = map();
        let mut corpus = Corpus::new();
        corpus.insert(trace(7, &["10.0.0.2", "10.1.0.1", "10.2.0.1"]), &m, None).expect("valid");
        let signals =
            mon.signals_for_join(Asn(100), IxpId(0), &corpus, &topo, Timestamp(50), Window(1));
        assert!(signals.is_empty(), "private peer must not signal: {signals:?}");
        // …unless learned from public feeds.
        mon.learn_private_rerouting(Asn(100));
        let signals =
            mon.signals_for_join(Asn(100), IxpId(0), &corpus, &topo, Timestamp(50), Window(1));
        assert_eq!(signals.len(), 1);
    }

    #[test]
    fn no_signal_when_already_direct() {
        // τ: 100 → 102 directly; 100 joining the IXP where 102 is a member
        // changes nothing detectable.
        let topo = topo_with_rels();
        let mon = IxpMonitor::new(&topo);
        let m = map();
        let mut corpus = Corpus::new();
        corpus.insert(trace(7, &["10.0.0.2", "10.2.0.1"]), &m, None).expect("valid");
        let signals =
            mon.signals_for_join(Asn(100), IxpId(0), &corpus, &topo, Timestamp(50), Window(1));
        assert!(signals.is_empty());
    }
}
