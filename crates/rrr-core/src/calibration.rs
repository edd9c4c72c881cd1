//! Signal calibration and refresh scheduling (§4.3.1, Appendix B).
//!
//! Every refresh measurement verifies each *potential* signal related to the
//! old traceroute: a signal that asserted a change is a TP if the monitored
//! portion actually changed (FP otherwise); a quiet potential signal is a TN
//! if the portion held (FN otherwise). TPR/TNR run over a sliding window of
//! the last `l = 30` signal-generation windows per (vantage point, signal).
//!
//! Refresh planning follows the paper's loop: pick the vantage point with
//! the highest relative TPR mass, compute one refresh probability from the
//! asserting signals' TPRs against the quiet signals' TNRs, spend budget,
//! repeat; leftover budget (and the bootstrap period, while rates are
//! uninitialized) uses the Table 1 attribute ordering.

use crate::signal::{SignalKey, SignalScope, StalenessSignal, Technique};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rrr_store::{Decoder, Encoder, Persist, StoreError};
use rrr_types::{Community, Prefix, ProbeId, TracerouteId};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Outcome of verifying one potential signal against a refresh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    TruePositive,
    FalsePositive,
    TrueNegative,
    FalseNegative,
}

/// Sliding tallies for one (vantage point, potential signal).
#[derive(Debug, Clone, Default)]
pub struct SignalStats {
    /// One `[tp, fp, tn, fn]` cell per generation window, newest last.
    window: VecDeque<[u32; 4]>,
    cur: [u32; 4],
}

impl SignalStats {
    fn record(&mut self, o: Outcome) {
        let i = match o {
            Outcome::TruePositive => 0,
            Outcome::FalsePositive => 1,
            Outcome::TrueNegative => 2,
            Outcome::FalseNegative => 3,
        };
        self.cur[i] += 1;
    }

    fn roll(&mut self, l: usize) {
        self.window.push_back(self.cur);
        self.cur = [0; 4];
        while self.window.len() > l {
            self.window.pop_front();
        }
    }

    fn sums(&self) -> [u32; 4] {
        let mut s = self.cur;
        for w in &self.window {
            for i in 0..4 {
                s[i] += w[i];
            }
        }
        s
    }

    /// `true` once the sliding window holds `l` generation windows — before
    /// that the rates are uninitialized (§4.3.1).
    pub fn initialized(&self, l: usize) -> bool {
        self.window.len() >= l
    }

    /// Element-wise sum of another cell's tallies into this one, aligning
    /// the per-window deques by *recency* (newest last). Both cells must
    /// have rolled in lockstep since their creation — true for partitions,
    /// which all close the same generation windows — so a cell created
    /// later in one partition simply has fewer (older) windows and is
    /// padded at the front. The result is the cell a single detector that
    /// saw both partitions' outcomes would hold.
    pub(crate) fn merge_from(&mut self, other: &SignalStats) {
        for i in 0..4 {
            self.cur[i] += other.cur[i];
        }
        while self.window.len() < other.window.len() {
            self.window.push_front([0; 4]);
        }
        let off = self.window.len() - other.window.len();
        for (j, w) in other.window.iter().enumerate() {
            for (cell, add) in self.window[off + j].iter_mut().zip(w) {
                *cell += add;
            }
        }
    }

    /// TPR = TP / (TP + FN); `None` when undefined.
    pub fn tpr(&self) -> Option<f64> {
        let [tp, _, _, fneg] = self.sums();
        let d = tp + fneg;
        (d > 0).then(|| tp as f64 / d as f64)
    }

    /// TNR = TN / (TN + FP); `None` when undefined.
    pub fn tnr(&self) -> Option<f64> {
        let [_, fp, tn, _] = self.sums();
        let d = tn + fp;
        (d > 0).then(|| tn as f64 / d as f64)
    }
}

/// The refresh decisions for one generation window.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RefreshPlan {
    /// Traceroutes to re-measure, in priority order, within budget.
    pub refresh: Vec<TracerouteId>,
}

/// One asserting signal attributed to a vantage point, as input to
/// planning.
#[derive(Debug, Clone)]
pub struct AssertingSignal {
    pub probe: ProbeId,
    pub signal: StalenessSignal,
}

/// Calibration state.
///
/// `Clone` exists for read-only planning from immutable snapshots: a
/// clone draws from a copy of the RNG, so snapshot plans are repeatable
/// and never perturb the live calibrator's random stream.
#[derive(Clone)]
pub struct Calibrator {
    l: usize,
    stats: HashMap<(ProbeId, Arc<SignalKey>), SignalStats>,
    /// Appendix B: verification tallies per (community, destination
    /// prefix). A community that reliably flags changes for some
    /// destinations but misleads for others is pruned only where it
    /// misleads.
    comm: HashMap<(Community, Prefix), (u32, u32)>,
    pruned: HashSet<(Community, Prefix)>,
    rng: StdRng,
}

/// A community is pruned once it has generated at least this many verified
/// false positives with sub-coin-flip precision.
const COMM_PRUNE_MIN_WRONG: u32 = 3;

impl Persist for SignalStats {
    fn store<W: std::io::Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        self.window.store(e)?;
        self.cur.store(e)
    }
    fn load<R: std::io::Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        Ok(SignalStats { window: Persist::load(d)?, cur: Persist::load(d)? })
    }
}

// Includes the raw RNG state: refresh planning draws from this generator,
// so a restored calibrator must continue the exact same random stream for
// plans to match an uninterrupted run.
impl Persist for Calibrator {
    fn store<W: std::io::Write>(&self, e: &mut Encoder<W>) -> Result<(), StoreError> {
        self.l.store(e)?;
        self.stats.store(e)?;
        self.comm.store(e)?;
        self.pruned.store(e)?;
        self.rng.state().store(e)
    }
    fn load<R: std::io::Read>(d: &mut Decoder<R>) -> Result<Self, StoreError> {
        Ok(Calibrator {
            l: Persist::load(d)?,
            stats: Persist::load(d)?,
            comm: Persist::load(d)?,
            pruned: Persist::load(d)?,
            rng: StdRng::from_state(Persist::load(d)?),
        })
    }
}

impl Calibrator {
    pub fn new(l: usize, seed: u64) -> Self {
        Calibrator {
            l,
            stats: HashMap::new(),
            comm: HashMap::new(),
            pruned: HashSet::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Records a verification outcome for one (vantage point, signal).
    pub fn record(&mut self, probe: ProbeId, key: &Arc<SignalKey>, outcome: Outcome) {
        self.stats.entry((probe, Arc::clone(key))).or_default().record(outcome);
    }

    /// Closes a signal-generation window (advances all sliding tallies).
    pub fn roll_window(&mut self) {
        let l = self.l;
        for s in self.stats.values_mut() {
            s.roll(l);
        }
    }

    /// Records a verified community signal outcome (Appendix B); prunes
    /// (community, destination) combinations whose observed precision
    /// stays below 0.5.
    pub fn record_community(&mut self, c: Community, dst: Prefix, correct: bool) {
        let e = self.comm.entry((c, dst)).or_insert((0, 0));
        if correct {
            e.0 += 1;
        } else {
            e.1 += 1;
        }
        if e.1 >= COMM_PRUNE_MIN_WRONG && (e.0 as f64) < (e.0 + e.1) as f64 * 0.5 {
            self.pruned.insert((c, dst));
        }
    }

    /// Whether a community may still generate signals for a destination.
    pub fn comm_allowed(&self, c: Community, dst: Prefix) -> bool {
        !self.pruned.contains(&(c, dst))
    }

    /// Number of currently pruned (community, destination) combinations
    /// (Figure 13's quantity, at the calibrator's granularity).
    pub fn pruned_communities(&self) -> usize {
        self.pruned.len()
    }

    /// Number of distinct communities with at least one pruned destination.
    pub fn pruned_distinct_communities(&self) -> usize {
        let set: HashSet<Community> = self.pruned.iter().map(|(c, _)| *c).collect();
        set.len()
    }

    /// Observed stats for one (vantage point, signal), if any.
    pub fn stats(&self, probe: ProbeId, key: &Arc<SignalKey>) -> Option<&SignalStats> {
        self.stats.get(&(probe, Arc::clone(key)))
    }

    /// Folds another calibrator's tallies into this one — the
    /// cross-partition merge. Sliding (probe, signal) cells sum
    /// recency-aligned (a key shared by entries in two partitions has a
    /// cell in each); community tallies and the pruned set are disjoint
    /// across partitions (a destination prefix is owned by exactly one),
    /// so those sections are plain unions. The RNG is untouched: merged
    /// planning runs under a coordinator-owned stream (see `partition`).
    pub(crate) fn absorb(&mut self, other: &Calibrator) {
        for (k, s) in &other.stats {
            self.stats.entry((k.0, Arc::clone(&k.1))).or_default().merge_from(s);
        }
        for (k, &(right, wrong)) in &other.comm {
            let e = self.comm.entry(*k).or_insert((0, 0));
            e.0 += right;
            e.1 += wrong;
        }
        self.pruned.extend(other.pruned.iter().cloned());
    }

    /// Swaps the planning RNG with a caller-owned one. The partition
    /// coordinator lends its stream to a merged calibrator for the duration
    /// of one `plan_refresh`, so N partitions draw from the exact sequence
    /// a single instance would.
    pub(crate) fn swap_rng(&mut self, rng: &mut StdRng) {
        std::mem::swap(&mut self.rng, rng);
    }

    fn tpr_of(&self, probe: ProbeId, key: &Arc<SignalKey>) -> Option<f64> {
        let s = self.stats.get(&(probe, Arc::clone(key)))?;
        if !s.initialized(self.l) {
            return None;
        }
        s.tpr()
    }

    fn tnr_of(&self, probe: ProbeId, key: &Arc<SignalKey>) -> Option<f64> {
        let s = self.stats.get(&(probe, Arc::clone(key)))?;
        if !s.initialized(self.l) {
            return None;
        }
        s.tnr()
    }

    /// Plans refreshes for this generation window (§4.3.1 steps 1–5).
    ///
    /// `asserting`: the signals currently claiming staleness, with the
    /// vantage point (probe) owning each affected traceroute.
    /// `quiet`: per probe, the related potential signals that did *not*
    /// fire, with the traceroutes they monitor.
    pub fn plan_refresh(
        &mut self,
        budget: usize,
        asserting: &[AssertingSignal],
        quiet: &HashMap<ProbeId, Vec<Arc<SignalKey>>>,
    ) -> RefreshPlan {
        let mut plan = RefreshPlan::default();
        let mut chosen: HashSet<TracerouteId> = HashSet::new();

        // Partition probes into calibrated (some initialized TPR) and not.
        let mut per_probe: HashMap<ProbeId, Vec<&AssertingSignal>> = HashMap::new();
        for a in asserting {
            per_probe.entry(a.probe).or_default().push(a);
        }

        let mut calibrated: Vec<(ProbeId, f64)> = Vec::new();
        for (&probe, sigs) in &per_probe {
            let tprs: Vec<f64> =
                sigs.iter().filter_map(|a| self.tpr_of(probe, &a.signal.key)).collect();
            if !tprs.is_empty() {
                calibrated.push((probe, tprs.iter().sum()));
            }
        }
        // Step 1: highest TPR mass first (the denominator in the paper is
        // shared, so the argmax is the same).
        calibrated.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));

        for (probe, tpr_mass) in calibrated {
            if plan.refresh.len() >= budget {
                return plan;
            }
            // Step 2: one refresh probability for the probe.
            let tnr_mass: f64 = quiet
                .get(&probe)
                .map(|keys| keys.iter().filter_map(|k| self.tnr_of(probe, k)).sum())
                .unwrap_or(0.0);
            let p = if tpr_mass + tnr_mass > 0.0 { tpr_mass / (tpr_mass + tnr_mass) } else { 1.0 };
            // Step 3: walk the probe's asserting signals' traceroutes.
            for a in &per_probe[&probe] {
                for &tr in a.signal.traceroutes.iter() {
                    if plan.refresh.len() >= budget {
                        return plan;
                    }
                    if chosen.contains(&tr) {
                        continue;
                    }
                    if self.rng.gen_bool(p.clamp(0.0, 1.0)) {
                        chosen.insert(tr);
                        plan.refresh.push(tr);
                    }
                }
            }
        }

        // Step 5: bootstrap — remaining budget goes to signals ordered by
        // the Table 1 attributes.
        let mut rest: Vec<&AssertingSignal> = asserting.iter().collect();
        rest.sort_by(|a, b| {
            bootstrap_rank(&b.signal).partial_cmp(&bootstrap_rank(&a.signal)).expect("finite rank")
        });
        for a in rest {
            for &tr in a.signal.traceroutes.iter() {
                if plan.refresh.len() >= budget {
                    return plan;
                }
                if chosen.insert(tr) {
                    plan.refresh.push(tr);
                }
            }
        }
        plan
    }
}

/// Table 1 priority vector, higher = refresh sooner: IP-level overlap
/// length, AS-level overlap length, then AS-level changes over border/IXP
/// changes, with the detector score as the paper's tiebreaker.
fn bootstrap_rank(s: &StalenessSignal) -> (usize, usize, u8, f64) {
    let (ip_overlap, as_overlap) = match &s.key.scope {
        SignalScope::IpSubpath { hops } => (hops.len(), 0),
        SignalScope::AsSuffix { suffix, .. } => (0, suffix.len()),
        SignalScope::CityBorder { .. } => (0, 1),
        SignalScope::IxpJoin { .. } => (0, 1),
    };
    let class = match s.key.technique {
        // Attribute 6: AS-level change beats attribute 7 (border/IXP).
        Technique::BgpAsPath => 2,
        Technique::BgpCommunity | Technique::BgpBurst | Technique::TraceSubpath => 1,
        Technique::TraceBorder | Technique::IxpColocation => 0,
    };
    (ip_overlap, as_overlap, class, s.score)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrr_types::{Asn, Timestamp, Window};

    fn key(technique: Technique, n: u32) -> Arc<SignalKey> {
        Arc::new(SignalKey {
            technique,
            scope: SignalScope::AsSuffix {
                dst_prefix: "10.0.0.0/16".parse().expect("p"),
                suffix: vec![Asn(n)],
            },
        })
    }

    fn sig(probe: u32, technique: Technique, n: u32, trs: &[u64], score: f64) -> AssertingSignal {
        AssertingSignal {
            probe: ProbeId(probe),
            signal: StalenessSignal {
                key: key(technique, n),
                time: Timestamp(0),
                window: Window(0),
                score,
                traceroutes: trs.iter().map(|t| TracerouteId(*t)).collect(),
                trigger_communities: vec![],
            },
        }
    }

    #[test]
    fn stats_rates() {
        let mut s = SignalStats::default();
        s.record(Outcome::TruePositive);
        s.record(Outcome::TruePositive);
        s.record(Outcome::FalseNegative);
        s.record(Outcome::TrueNegative);
        s.record(Outcome::FalsePositive);
        assert!((s.tpr().expect("defined") - 2.0 / 3.0).abs() < 1e-9);
        assert!((s.tnr().expect("defined") - 0.5).abs() < 1e-9);
        assert!(!s.initialized(30));
    }

    #[test]
    fn sliding_window_expires_old_outcomes() {
        let mut s = SignalStats::default();
        s.record(Outcome::FalsePositive);
        for _ in 0..5 {
            s.roll(3);
        }
        // The FP fell out of the window; TNR undefined again.
        assert_eq!(s.tnr(), None);
        assert!(s.initialized(3));
    }

    #[test]
    fn community_pruning() {
        let mut c = Calibrator::new(30, 1);
        let comm = Community::new(13030, 999);
        let dst: Prefix = "10.0.0.0/16".parse().expect("p");
        let other: Prefix = "10.9.0.0/16".parse().expect("p");
        assert!(c.comm_allowed(comm, dst));
        c.record_community(comm, dst, false);
        c.record_community(comm, dst, false);
        assert!(c.comm_allowed(comm, dst), "needs 3 wrong before pruning");
        c.record_community(comm, dst, false);
        assert!(!c.comm_allowed(comm, dst));
        // …but only for that destination.
        assert!(c.comm_allowed(comm, other));
        assert_eq!(c.pruned_communities(), 1);
        assert_eq!(c.pruned_distinct_communities(), 1);
        // A mostly-correct combination survives.
        let good = Community::new(13030, 1000);
        for _ in 0..10 {
            c.record_community(good, dst, true);
        }
        for _ in 0..4 {
            c.record_community(good, dst, false);
        }
        assert!(c.comm_allowed(good, dst));
    }

    #[test]
    fn bootstrap_ordering_prefers_overlap_then_as_level() {
        let a = sig(0, Technique::TraceSubpath, 1, &[1], 1.0);
        let b = sig(0, Technique::BgpAsPath, 1, &[2], 1.0);
        let c = sig(0, Technique::TraceBorder, 1, &[3], 9.0);
        // IpSubpath has no hops in this helper, so fall to class: BgpAsPath
        // (class 2) over TraceSubpath-as-AsSuffix... construct explicitly:
        let mut ip_sig = sig(0, Technique::TraceSubpath, 1, &[4], 0.5);
        ip_sig.signal.key = Arc::new(SignalKey {
            technique: Technique::TraceSubpath,
            scope: SignalScope::IpSubpath { hops: vec!["10.0.0.1".parse().expect("ip"); 4] },
        });
        assert!(bootstrap_rank(&ip_sig.signal) > bootstrap_rank(&b.signal));
        assert!(bootstrap_rank(&b.signal) > bootstrap_rank(&a.signal));
        assert!(bootstrap_rank(&b.signal) > bootstrap_rank(&c.signal));
    }

    #[test]
    fn bootstrap_plan_spends_budget_in_order() {
        let mut c = Calibrator::new(30, 7);
        let signals = vec![
            sig(0, Technique::TraceBorder, 1, &[10], 1.0),
            sig(1, Technique::BgpAsPath, 2, &[20, 21], 2.0),
        ];
        let plan = c.plan_refresh(2, &signals, &HashMap::new());
        // Uncalibrated: bootstrap ordering puts the AS-path signal first.
        assert_eq!(plan.refresh, vec![TracerouteId(20), TracerouteId(21)]);
    }

    #[test]
    fn calibrated_probe_with_high_tpr_wins() {
        let mut c = Calibrator::new(2, 7);
        let good = key(Technique::BgpAsPath, 2);
        let bad = key(Technique::BgpAsPath, 3);
        // Probe 1: perfect TPR; probe 0: abysmal.
        for _ in 0..10 {
            c.record(ProbeId(1), &good, Outcome::TruePositive);
            c.record(ProbeId(0), &bad, Outcome::FalseNegative);
        }
        c.roll_window();
        c.roll_window();
        let signals = vec![
            AssertingSignal {
                probe: ProbeId(0),
                signal: StalenessSignal {
                    key: bad,
                    time: Timestamp(0),
                    window: Window(0),
                    score: 0.0,
                    traceroutes: vec![TracerouteId(1)].into(),
                    trigger_communities: vec![],
                },
            },
            AssertingSignal {
                probe: ProbeId(1),
                signal: StalenessSignal {
                    key: good,
                    time: Timestamp(0),
                    window: Window(0),
                    score: 0.0,
                    traceroutes: vec![TracerouteId(2)].into(),
                    trigger_communities: vec![],
                },
            },
        ];
        let plan = c.plan_refresh(1, &signals, &HashMap::new());
        assert_eq!(plan.refresh, vec![TracerouteId(2)], "high-TPR probe first");
    }

    #[test]
    fn tnr_mass_lowers_refresh_probability() {
        // With a huge TNR mass from quiet signals, P_refresh ≈ 0 and the
        // calibrated stage refreshes nothing; bootstrap then fills budget.
        let mut c = Calibrator::new(1, 7);
        let k = key(Technique::BgpAsPath, 2);
        for _ in 0..5 {
            c.record(ProbeId(0), &k, Outcome::TruePositive);
        }
        let quiet_keys: Vec<Arc<SignalKey>> =
            (10..200).map(|n| key(Technique::BgpBurst, n)).collect();
        for q in &quiet_keys {
            for _ in 0..5 {
                c.record(ProbeId(0), q, Outcome::TrueNegative);
            }
        }
        c.roll_window();
        let signals = vec![sig(0, Technique::BgpAsPath, 2, &[1], 1.0)];
        let mut quiet = HashMap::new();
        quiet.insert(ProbeId(0), quiet_keys);
        // Run many trials: with p = 1/(1+190) the calibrated stage almost
        // never picks it, but bootstrap always backfills within budget.
        let plan = c.plan_refresh(1, &signals, &quiet);
        assert_eq!(plan.refresh.len(), 1, "budget must still be spent");
    }

    #[test]
    fn budget_zero_refreshes_nothing() {
        let mut c = Calibrator::new(30, 7);
        let signals = vec![sig(0, Technique::BgpAsPath, 2, &[1, 2, 3], 1.0)];
        let plan = c.plan_refresh(0, &signals, &HashMap::new());
        assert!(plan.refresh.is_empty());
    }
}
