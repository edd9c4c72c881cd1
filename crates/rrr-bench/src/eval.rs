//! Ground-truth change tracking and signal↔change matching — the machinery
//! behind Table 2 and Figures 6/7/8.

use crate::world::World;
use rrr_core::{StalenessSignal, Technique};
use rrr_trace::CanonicalPath;
use rrr_types::{Duration, Ipv4, ProbeId, Timestamp, TracerouteId};
use std::collections::HashMap;

/// Dense index of a monitored (probe, destination) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PairId(pub u32);

/// Granularity of a detected path change (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChangeKind {
    /// One or more AS hops changed.
    AsLevel,
    /// AS hops identical but border points changed.
    BorderLevel,
}

/// One ground-truth change on a monitored pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChangeEvent {
    pub pair: PairId,
    pub time: Timestamp,
    pub kind: ChangeKind,
    /// Whether the pair's path equals its *initial* (corpus-issuance) path
    /// again after this change — i.e. the change was a reversion (§4.3.2).
    pub matches_initial_after: bool,
}

/// Tracks ground-truth canonical paths per pair and emits change events.
pub struct GroundTruthTracker {
    pairs: Vec<(ProbeId, Ipv4)>,
    initial: Vec<Option<CanonicalPath>>,
    last: Vec<Option<CanonicalPath>>,
    last_version: Option<u64>,
}

impl GroundTruthTracker {
    /// Captures the initial paths of the monitored pairs.
    pub fn new(world: &World, pairs: Vec<(ProbeId, Ipv4)>) -> Self {
        let initial: Vec<Option<CanonicalPath>> =
            pairs.iter().map(|&(p, d)| world.ground_truth(p, d)).collect();
        GroundTruthTracker { last: initial.clone(), initial, pairs, last_version: Some(0) }
    }

    pub fn pairs(&self) -> &[(ProbeId, Ipv4)] {
        &self.pairs
    }

    /// Re-derives every pair's canonical path and reports changes since the
    /// previous poll. Skips recomputation entirely when the engine has not
    /// applied any event since then.
    pub fn poll(&mut self, world: &World, now: Timestamp) -> Vec<ChangeEvent> {
        if self.last_version == Some(world.engine.version()) {
            return Vec::new();
        }
        self.last_version = Some(world.engine.version());
        let mut out = Vec::new();
        for (i, &(p, d)) in self.pairs.iter().enumerate() {
            let cur = world.ground_truth(p, d);
            let changed = match (&self.last[i], &cur) {
                (Some(a), Some(b)) => {
                    if !a.same_as_path(b) {
                        Some(ChangeKind::AsLevel)
                    } else if !a.same_border_path(b) {
                        Some(ChangeKind::BorderLevel)
                    } else {
                        None
                    }
                }
                (None, None) => None,
                _ => Some(ChangeKind::AsLevel),
            };
            if let Some(kind) = changed {
                let matches_initial_after = match (&self.initial[i], &cur) {
                    (Some(a), Some(b)) => a == b,
                    (None, None) => true,
                    _ => false,
                };
                out.push(ChangeEvent {
                    pair: PairId(i as u32),
                    time: now,
                    kind,
                    matches_initial_after,
                });
                self.last[i] = cur;
            }
        }
        out
    }

    /// Fraction of pairs whose *current* path differs from the initial one,
    /// at each granularity — Figure 1's quantity. Returns
    /// `(as_frac, border_frac)` where the border fraction includes AS-level
    /// differences (the figure's "border-level" series dominates).
    pub fn divergence_from_initial(&self) -> (f64, f64) {
        let mut as_diff = 0usize;
        let mut border_diff = 0usize;
        let n = self.pairs.len().max(1);
        for (init, cur) in self.initial.iter().zip(&self.last) {
            match (init, cur) {
                (Some(a), Some(b)) => {
                    if !a.same_as_path(b) {
                        as_diff += 1;
                        border_diff += 1;
                    } else if !a.same_border_path(b) {
                        border_diff += 1;
                    }
                }
                (None, None) => {}
                _ => {
                    as_diff += 1;
                    border_diff += 1;
                }
            }
        }
        (as_diff as f64 / n as f64, border_diff as f64 / n as f64)
    }
}

/// A recorded signal emission, resolved to monitored pairs.
#[derive(Debug, Clone)]
pub struct SignalRecord {
    pub technique: Technique,
    pub time: Timestamp,
    pub pairs: Vec<PairId>,
}

impl SignalRecord {
    /// Resolves a detector signal's traceroute ids to pair ids.
    pub fn from_signal(
        s: &StalenessSignal,
        id_to_pair: &HashMap<TracerouteId, PairId>,
    ) -> SignalRecord {
        let mut pairs: Vec<PairId> =
            s.traceroutes.iter().filter_map(|t| id_to_pair.get(t).copied()).collect();
        pairs.sort_unstable();
        pairs.dedup();
        SignalRecord { technique: s.key.technique, time: s.time, pairs }
    }
}

/// Per-technique Table 2 row.
#[derive(Debug, Clone, Default)]
pub struct TechniqueStats {
    pub signals: usize,
    pub true_signals: usize,
    pub covered_any: usize,
    pub covered_any_unique: usize,
    pub covered_as: usize,
    pub covered_as_unique: usize,
    pub covered_border: usize,
    pub covered_border_unique: usize,
}

impl TechniqueStats {
    pub fn precision(&self) -> f64 {
        if self.signals == 0 {
            0.0
        } else {
            self.true_signals as f64 / self.signals as f64
        }
    }
}

/// Matches signals against ground-truth changes with a time tolerance
/// (§5.3 uses ±30 minutes).
pub struct Matcher {
    pub tolerance: Duration,
}

impl Default for Matcher {
    fn default() -> Self {
        Matcher { tolerance: Duration::minutes(30) }
    }
}

/// Full evaluation result.
#[derive(Debug, Clone, Default)]
pub struct Evaluation {
    pub per_technique: HashMap<Technique, TechniqueStats>,
    pub total_changes: usize,
    pub as_changes: usize,
    pub border_changes: usize,
    /// Changes covered by ≥1 technique.
    pub covered_changes: usize,
    pub covered_as: usize,
    pub covered_border: usize,
    pub total_signals: usize,
    pub total_true_signals: usize,
}

impl Evaluation {
    pub fn precision(&self) -> f64 {
        if self.total_signals == 0 {
            0.0
        } else {
            self.total_true_signals as f64 / self.total_signals as f64
        }
    }

    pub fn coverage_any(&self) -> f64 {
        if self.total_changes == 0 {
            0.0
        } else {
            self.covered_changes as f64 / self.total_changes as f64
        }
    }

    pub fn coverage_border(&self) -> f64 {
        if self.border_changes == 0 {
            0.0
        } else {
            self.covered_border as f64 / self.border_changes as f64
        }
    }

    pub fn coverage_as(&self) -> f64 {
        if self.as_changes == 0 {
            0.0
        } else {
            self.covered_as as f64 / self.as_changes as f64
        }
    }
}

impl Matcher {
    /// Evaluates signal records against change events.
    ///
    /// A signal emission counts once per affected pair. It is **true** when
    /// the pair either has a change within the time tolerance, or is in a
    /// *changed state* (its current path differs from the issuance path) at
    /// the signal time — the latter is exactly what the paper's
    /// refresh-verification would find, and is what the stationarity rule's
    /// deliberate re-firing (§4.1.2) asserts.
    ///
    /// A change is **covered** by a technique when one of its signals
    /// affects the pair between `tolerance` before the change and
    /// `tolerance` after the change stops being the pair's current state
    /// (the next change on that pair supersedes it).
    pub fn evaluate(&self, signals: &[SignalRecord], changes: &[ChangeEvent]) -> Evaluation {
        let tol = self.tolerance.as_secs();

        // Index changes per pair, sorted by time.
        let mut per_pair: HashMap<PairId, Vec<ChangeEvent>> = HashMap::new();
        for c in changes {
            per_pair.entry(c.pair).or_default().push(*c);
        }
        for v in per_pair.values_mut() {
            v.sort_by_key(|c| c.time);
        }
        let signal_is_true = |pair: PairId, t: Timestamp| -> bool {
            let Some(v) = per_pair.get(&pair) else { return false };
            // Near any change?
            if v.iter().any(|c| c.time.0.abs_diff(t.0) <= tol) {
                return true;
            }
            // In changed state at t (vs issuance)?
            v.iter().rev().find(|c| c.time <= t).is_some_and(|c| !c.matches_initial_after)
        };

        let mut eval = Evaluation {
            total_changes: changes.len(),
            as_changes: changes.iter().filter(|c| c.kind == ChangeKind::AsLevel).count(),
            border_changes: changes.iter().filter(|c| c.kind == ChangeKind::BorderLevel).count(),
            ..Default::default()
        };

        // Precision side.
        for s in signals {
            let st = eval.per_technique.entry(s.technique).or_default();
            for &pair in &s.pairs {
                st.signals += 1;
                eval.total_signals += 1;
                if signal_is_true(pair, s.time) {
                    st.true_signals += 1;
                    eval.total_true_signals += 1;
                }
            }
        }

        // Coverage side: which techniques saw each change while it was the
        // pair's current state.
        for c in changes {
            let validity_end = per_pair[&c.pair]
                .iter()
                .find(|n| n.time > c.time)
                .map(|n| n.time.0)
                .unwrap_or(u64::MAX);
            let lo = c.time.0.saturating_sub(tol);
            let hi = validity_end.saturating_add(tol);
            let mut seen: Vec<Technique> = Vec::new();
            for s in signals {
                if seen.contains(&s.technique) {
                    continue;
                }
                if s.time.0 >= lo && s.time.0 <= hi && s.pairs.contains(&c.pair) {
                    seen.push(s.technique);
                }
            }
            if !seen.is_empty() {
                eval.covered_changes += 1;
                match c.kind {
                    ChangeKind::AsLevel => eval.covered_as += 1,
                    ChangeKind::BorderLevel => eval.covered_border += 1,
                }
            }
            for &t in &seen {
                let st = eval.per_technique.entry(t).or_default();
                st.covered_any += 1;
                if seen.len() == 1 {
                    st.covered_any_unique += 1;
                }
                match c.kind {
                    ChangeKind::AsLevel => {
                        st.covered_as += 1;
                        if seen.len() == 1 {
                            st.covered_as_unique += 1;
                        }
                    }
                    ChangeKind::BorderLevel => {
                        st.covered_border += 1;
                        if seen.len() == 1 {
                            st.covered_border_unique += 1;
                        }
                    }
                }
            }
        }
        eval
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(t: Technique, time: u64, pairs: &[u32]) -> SignalRecord {
        SignalRecord {
            technique: t,
            time: Timestamp(time),
            pairs: pairs.iter().map(|p| PairId(*p)).collect(),
        }
    }

    fn chg(pair: u32, time: u64, kind: ChangeKind) -> ChangeEvent {
        ChangeEvent {
            pair: PairId(pair),
            time: Timestamp(time),
            kind,
            matches_initial_after: false,
        }
    }

    fn revert(pair: u32, time: u64, kind: ChangeKind) -> ChangeEvent {
        ChangeEvent { pair: PairId(pair), time: Timestamp(time), kind, matches_initial_after: true }
    }

    #[test]
    fn matching_within_tolerance() {
        let m = Matcher { tolerance: Duration::minutes(30) };
        let signals = vec![
            sig(Technique::BgpAsPath, 1000, &[0]),
            sig(Technique::BgpAsPath, 100_000, &[1]), // no change near
        ];
        let changes = vec![chg(0, 2000, ChangeKind::AsLevel)];
        let e = m.evaluate(&signals, &changes);
        let st = &e.per_technique[&Technique::BgpAsPath];
        assert_eq!(st.signals, 2);
        assert_eq!(st.true_signals, 1);
        assert_eq!(st.covered_as, 1);
        assert_eq!(e.covered_changes, 1);
        assert!((e.precision() - 0.5).abs() < 1e-9);
        assert!((e.coverage_any() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unique_coverage_requires_exclusivity() {
        let m = Matcher::default();
        let signals = vec![
            sig(Technique::BgpAsPath, 1000, &[0]),
            sig(Technique::TraceSubpath, 1100, &[0]),
            sig(Technique::TraceSubpath, 1100, &[1]),
        ];
        let changes =
            vec![chg(0, 1000, ChangeKind::BorderLevel), chg(1, 1100, ChangeKind::BorderLevel)];
        let e = m.evaluate(&signals, &changes);
        let asp = &e.per_technique[&Technique::BgpAsPath];
        let sub = &e.per_technique[&Technique::TraceSubpath];
        assert_eq!(asp.covered_border, 1);
        assert_eq!(asp.covered_border_unique, 0);
        assert_eq!(sub.covered_border, 2);
        assert_eq!(sub.covered_border_unique, 1);
        assert_eq!(e.covered_border, 2);
    }

    #[test]
    fn signal_before_any_change_is_false() {
        let m = Matcher { tolerance: Duration::minutes(30) };
        let signals = vec![sig(Technique::BgpBurst, 10_000, &[0])];
        let changes = vec![chg(0, 20_000, ChangeKind::AsLevel)];
        let e = m.evaluate(&signals, &changes);
        assert_eq!(e.total_true_signals, 0);
        // But it lands within tolerance-extended validity of the change
        // (10_000 >= 20_000 - 1800? no: 10_000 < 18_200) → not covered.
        assert_eq!(e.covered_changes, 0);
    }

    #[test]
    fn persistent_firing_counts_true_and_covers() {
        // A change at t=10_000 that never reverts: a signal hours later is
        // still true (the path is genuinely stale) and covers the change.
        let m = Matcher { tolerance: Duration::minutes(30) };
        let signals = vec![sig(Technique::TraceSubpath, 80_000, &[0])];
        let changes = vec![chg(0, 10_000, ChangeKind::BorderLevel)];
        let e = m.evaluate(&signals, &changes);
        assert_eq!(e.total_true_signals, 1);
        assert_eq!(e.covered_changes, 1);
    }

    #[test]
    fn signal_after_reversion_is_false() {
        // Change at 10_000, reverted at 20_000: a signal at 80_000 is late
        // (path is back to issuance state) and false.
        let m = Matcher { tolerance: Duration::minutes(30) };
        let signals = vec![sig(Technique::TraceSubpath, 80_000, &[0])];
        let changes = vec![
            chg(0, 10_000, ChangeKind::BorderLevel),
            revert(0, 20_000, ChangeKind::BorderLevel),
        ];
        let e = m.evaluate(&signals, &changes);
        assert_eq!(e.total_true_signals, 0);
        // The reversion event itself is covered (80_000 is within its
        // open-ended validity) but the original change is not.
        assert_eq!(e.covered_changes, 1);
    }

    #[test]
    fn empty_inputs() {
        let e = Matcher::default().evaluate(&[], &[]);
        assert_eq!(e.precision(), 0.0);
        assert_eq!(e.coverage_any(), 0.0);
    }
}
