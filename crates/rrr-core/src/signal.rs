//! Signal types: what fired, why, and which corpus traceroutes it affects.

use rrr_store::{Decoder, Encoder, Persist, StoreError};
use rrr_types::{Asn, CityId, Ipv4, IxpId, Prefix, Timestamp, TracerouteId, Window};
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// The six staleness prediction techniques.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Technique {
    /// §4.1.2 — overlapping BGP AS-path ratio outliers.
    BgpAsPath,
    /// §4.1.3 — BGP community changes with scoped semantics.
    BgpCommunity,
    /// §4.1.4 — correlated duplicate-update bursts.
    BgpBurst,
    /// §4.2.3 — IXP membership (colocation) changes.
    IxpColocation,
    /// §4.2.1 — IP-level subpath ratio outliers in public traceroutes.
    TraceSubpath,
    /// §4.2.2 — router-level ⟨AS, city⟩ border shifts.
    TraceBorder,
}

impl Technique {
    /// All techniques, in Table 2 order.
    pub const ALL: [Technique; 6] = [
        Technique::BgpAsPath,
        Technique::BgpCommunity,
        Technique::BgpBurst,
        Technique::IxpColocation,
        Technique::TraceSubpath,
        Technique::TraceBorder,
    ];

    /// Whether the technique consumes BGP feeds (vs public traceroutes).
    pub fn is_bgp(self) -> bool {
        matches!(self, Technique::BgpAsPath | Technique::BgpCommunity | Technique::BgpBurst)
    }
}

impl fmt::Display for Technique {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Technique::BgpAsPath => "BGP AS-paths",
            Technique::BgpCommunity => "BGP communities",
            Technique::BgpBurst => "BGP update bursts",
            Technique::IxpColocation => "Colocation changes",
            Technique::TraceSubpath => "Traceroute subpaths",
            Technique::TraceBorder => "Traceroute borders",
        };
        f.write_str(s)
    }
}

/// What portion of the Internet a signal's monitor watches — used both to
/// scope which traceroutes a firing affects and to verify correctness when
/// a refresh arrives (§4.3.1).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SignalScope {
    /// An AS-level suffix toward a destination prefix (BGP techniques).
    AsSuffix { dst_prefix: Prefix, suffix: Vec<Asn> },
    /// An exact IP-level subpath (§4.2.1).
    IpSubpath { hops: Vec<Ipv4> },
    /// A border router between two ⟨AS, city⟩ locations (§4.2.2); the
    /// router is represented by its observed border interface.
    CityBorder { near_as: Asn, near_city: CityId, far_as: Asn, far_city: CityId, border_ip: Ipv4 },
    /// A pair of ASes expected to re-route via a newly joined IXP (§4.2.3).
    IxpJoin { joined: Asn, member: Asn, ixp: IxpId },
}

/// Stable identity of one *potential* signal (one monitor). Calibration
/// tallies TPR/TNR per (vantage point, key) over time.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SignalKey {
    pub technique: Technique,
    pub scope: SignalScope,
}

/// Interns [`SignalKey`]s so the hot paths share one allocation per
/// distinct monitor identity instead of deep-cloning composite keys
/// (suffix vectors, hop lists) on every window close, assertion-map
/// insert, and calibration record. Monitors intern their key once at
/// registration and hand out `Arc` clones thereafter.
#[derive(Debug, Default)]
pub struct KeyInterner {
    keys: HashSet<Arc<SignalKey>>,
}

impl KeyInterner {
    pub fn new() -> Self {
        KeyInterner::default()
    }

    /// The canonical shared handle for `key`.
    pub fn intern(&mut self, key: SignalKey) -> Arc<SignalKey> {
        // `Arc<SignalKey>: Borrow<SignalKey>`, so lookup needs no allocation.
        if let Some(existing) = self.keys.get(&key) {
            return Arc::clone(existing);
        }
        let arc = Arc::new(key);
        self.keys.insert(Arc::clone(&arc));
        arc
    }

    /// Number of distinct interned keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

impl Persist for Technique {
    fn store<W: std::io::Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        let tag = Technique::ALL.iter().position(|t| t == self).expect("technique in ALL") as u8;
        e.u8(tag)
    }
    fn load<R: std::io::Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        let tag = d.u8()? as usize;
        Technique::ALL.get(tag).copied().ok_or_else(|| d.corrupt("technique tag"))
    }
}

impl Persist for SignalScope {
    fn store<W: std::io::Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        match self {
            SignalScope::AsSuffix { dst_prefix, suffix } => {
                e.u8(0)?;
                dst_prefix.store(e)?;
                suffix.store(e)
            }
            SignalScope::IpSubpath { hops } => {
                e.u8(1)?;
                hops.store(e)
            }
            SignalScope::CityBorder { near_as, near_city, far_as, far_city, border_ip } => {
                e.u8(2)?;
                near_as.store(e)?;
                near_city.store(e)?;
                far_as.store(e)?;
                far_city.store(e)?;
                border_ip.store(e)
            }
            SignalScope::IxpJoin { joined, member, ixp } => {
                e.u8(3)?;
                joined.store(e)?;
                member.store(e)?;
                ixp.store(e)
            }
        }
    }
    fn load<R: std::io::Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        match d.u8()? {
            0 => Ok(SignalScope::AsSuffix {
                dst_prefix: Persist::load(d)?,
                suffix: Persist::load(d)?,
            }),
            1 => Ok(SignalScope::IpSubpath { hops: Persist::load(d)? }),
            2 => Ok(SignalScope::CityBorder {
                near_as: Persist::load(d)?,
                near_city: Persist::load(d)?,
                far_as: Persist::load(d)?,
                far_city: Persist::load(d)?,
                border_ip: Persist::load(d)?,
            }),
            3 => Ok(SignalScope::IxpJoin {
                joined: Persist::load(d)?,
                member: Persist::load(d)?,
                ixp: Persist::load(d)?,
            }),
            _ => Err(d.corrupt("signal scope tag")),
        }
    }
}

impl Persist for SignalKey {
    fn store<W: std::io::Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        self.technique.store(e)?;
        self.scope.store(e)
    }
    fn load<R: std::io::Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        Ok(SignalKey { technique: Persist::load(d)?, scope: Persist::load(d)? })
    }
}

impl Persist for KeyInterner {
    fn store<W: std::io::Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        self.keys.store(e)
    }
    fn load<R: std::io::Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        Ok(KeyInterner { keys: Persist::load(d)? })
    }
}

/// One staleness prediction signal: a monitor fired in a window.
#[derive(Debug, Clone, PartialEq)]
pub struct StalenessSignal {
    pub key: Arc<SignalKey>,
    /// When the anomaly was detected.
    pub time: Timestamp,
    /// The detection window index (in the monitor's own window grid).
    pub window: Window,
    /// Detector score (|modified z| or bitmap distance) — the priority
    /// tiebreaker of §4.3.1.
    pub score: f64,
    /// Corpus traceroutes related to this monitor. Shared: every signal a
    /// monitor emits points at the monitor's one traceroute list instead of
    /// cloning it per event.
    pub traceroutes: Arc<[TracerouteId]>,
    /// For community signals: the communities whose change triggered it
    /// (drives Appendix B's per-community calibration). Empty otherwise.
    pub trigger_communities: Vec<rrr_types::Community>,
}

impl Persist for StalenessSignal {
    fn store<W: std::io::Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        self.key.store(e)?;
        self.time.store(e)?;
        self.window.store(e)?;
        self.score.store(e)?;
        self.traceroutes.store(e)?;
        self.trigger_communities.store(e)
    }
    fn load<R: std::io::Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        Ok(StalenessSignal {
            key: Persist::load(d)?,
            time: Persist::load(d)?,
            window: Persist::load(d)?,
            score: Persist::load(d)?,
            traceroutes: Persist::load(d)?,
            trigger_communities: Persist::load(d)?,
        })
    }
}

/// Sorts one step's signal batch into the canonical emission order:
/// (window, time, key, score bits, traceroute list, trigger communities).
///
/// Every field of the signal participates, so the order is a pure function
/// of the signal *values* — independent of which monitor family produced a
/// signal first, of worker-thread interleaving, and (the point) of how a
/// partitioned detector's per-partition batches are merged back together.
/// The single-instance step applies the same sort, so a cross-partition
/// union of batches is bit-identical to the unpartitioned batch.
pub(crate) fn canonical_sort(signals: &mut [StalenessSignal]) {
    signals.sort_by(|a, b| {
        a.window
            .cmp(&b.window)
            .then_with(|| a.time.cmp(&b.time))
            .then_with(|| a.key.cmp(&b.key))
            .then_with(|| a.score.to_bits().cmp(&b.score.to_bits()))
            .then_with(|| a.traceroutes.cmp(&b.traceroutes))
            .then_with(|| a.trigger_communities.cmp(&b.trigger_communities))
    });
}

impl fmt::Display for StalenessSignal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} @ {}] {} traceroutes, score {:.2}",
            self.key.technique,
            self.time,
            self.traceroutes.len(),
            self.score
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn technique_classification() {
        assert!(Technique::BgpAsPath.is_bgp());
        assert!(Technique::BgpBurst.is_bgp());
        assert!(!Technique::TraceSubpath.is_bgp());
        assert!(!Technique::IxpColocation.is_bgp());
        assert_eq!(Technique::ALL.len(), 6);
    }

    #[test]
    fn display_strings() {
        assert_eq!(Technique::BgpCommunity.to_string(), "BGP communities");
        let s = StalenessSignal {
            key: Arc::new(SignalKey {
                technique: Technique::TraceSubpath,
                scope: SignalScope::IpSubpath { hops: vec![] },
            }),
            time: Timestamp(0),
            window: Window(3),
            score: 4.5,
            traceroutes: vec![TracerouteId(1), TracerouteId(2)].into(),
            trigger_communities: vec![],
        };
        assert!(s.to_string().contains("2 traceroutes"));
    }

    #[test]
    fn keys_hash_and_compare() {
        use std::collections::HashSet;
        let k1 = SignalKey {
            technique: Technique::BgpAsPath,
            scope: SignalScope::AsSuffix {
                dst_prefix: "10.0.0.0/16".parse().expect("prefix"),
                suffix: vec![Asn(1), Asn(2)],
            },
        };
        let k2 = k1.clone();
        let mut set = HashSet::new();
        set.insert(k1);
        assert!(set.contains(&k2));
    }
}
