//! The trace-driven emulation framework (§5.3): per-pair ground-truth
//! timelines, a packet budget, and the strategy interface.

use rrr_trace::CanonicalPath;
use rrr_types::{Duration, Timestamp};

/// Packets a full traceroute costs in the emulation (roughly 3 probes per
/// hop over a ~5-hop path; the precise constant cancels out across
/// approaches since all pay it).
pub const TRACEROUTE_COST: f64 = 15.0;

/// Ground-truth states of one monitored pair over the campaign.
#[derive(Debug, Clone)]
pub struct PathTimeline {
    /// `(from_time, state)`, first entry at the campaign start, sorted.
    pub states: Vec<(Timestamp, CanonicalPath)>,
}

impl PathTimeline {
    /// Index of the state current at `t`.
    pub fn state_index_at(&self, t: Timestamp) -> usize {
        match self.states.binary_search_by_key(&t, |(st, _)| *st) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        }
    }

    /// Number of changes (states after the first).
    pub fn change_count(&self) -> usize {
        self.states.len().saturating_sub(1)
    }
}

/// The emulation world: timelines plus campaign timing.
pub struct EmuWorld {
    pub timelines: Vec<PathTimeline>,
    pub round: Duration,
    pub duration: Duration,
}

impl EmuWorld {
    pub fn pair_count(&self) -> usize {
        self.timelines.len()
    }

    pub fn total_changes(&self) -> usize {
        self.timelines.iter().map(|t| t.change_count()).sum()
    }

    pub fn rounds(&self) -> u64 {
        self.duration.as_secs() / self.round.as_secs()
    }
}

/// Per-round context handed to strategies.
pub struct Ctx<'a> {
    emu: &'a EmuWorld,
    pub now: Timestamp,
    budget: f64,
    /// Each approach's last-observed path per pair.
    stored: &'a mut Vec<CanonicalPath>,
    /// Detected (pair, state index) facts.
    detections: &'a mut Vec<(usize, usize)>,
    /// Rotating element cursor for detection probes.
    probe_cursor: &'a mut Vec<usize>,
}

impl Ctx<'_> {
    pub fn pair_count(&self) -> usize {
        self.emu.pair_count()
    }

    pub fn budget(&self) -> f64 {
        self.budget
    }

    /// The approach's current belief about a pair's path.
    pub fn stored(&self, pair: usize) -> &CanonicalPath {
        &self.stored[pair]
    }

    /// Ground truth current state (only for crediting; strategies must not
    /// inspect it directly — they learn through observations).
    fn truth(&self, pair: usize) -> (&CanonicalPath, usize) {
        let tl = &self.emu.timelines[pair];
        let i = tl.state_index_at(self.now);
        (&tl.states[i].1, i)
    }

    fn credit(&mut self, pair: usize, state_idx: usize) {
        if state_idx > 0 && !self.detections.contains(&(pair, state_idx)) {
            self.detections.push((pair, state_idx));
        }
    }

    /// Issues a full traceroute on `pair` if budget allows. Returns whether
    /// the measured path differs from the stored one (`None` = out of
    /// budget). The stored path is refreshed.
    pub fn try_traceroute(&mut self, pair: usize) -> Option<bool> {
        if self.budget < TRACEROUTE_COST {
            return None;
        }
        self.budget -= TRACEROUTE_COST;
        let (cur, idx) = {
            let (c, i) = self.truth(pair);
            (c.clone(), i)
        };
        let changed = cur != self.stored[pair];
        if changed {
            self.credit(pair, idx);
        }
        self.stored[pair] = cur;
        Some(changed)
    }

    /// Issues one TTL-limited detection probe at the next element of the
    /// stored path (DTRACK-style). Returns whether the probe noticed a
    /// difference (`None` = out of budget). Does *not* remap.
    pub fn try_probe(&mut self, pair: usize) -> Option<bool> {
        if self.budget < 1.0 {
            return None;
        }
        self.budget -= 1.0;
        let stored_len = self.stored[pair].crossings.len();
        let cur = self.truth(pair).0.clone();
        if stored_len == 0 || cur.crossings.is_empty() {
            return Some(cur.crossings.len() != stored_len);
        }
        let k = self.probe_cursor[pair] % stored_len;
        self.probe_cursor[pair] += 1;
        let noticed = match cur.crossings.get(k) {
            Some(c) => *c != self.stored[pair].crossings[k],
            None => true,
        };
        Some(noticed || cur.crossings.len() != stored_len)
    }

    /// Overwrites the stored path without measuring (Sibyl patching). When
    /// the patched belief matches ground truth, the current state counts as
    /// detected (the paper's optimistic patching emulation).
    pub fn apply_patch(&mut self, pair: usize, patched: CanonicalPath) {
        let (cur, idx) = {
            let (c, i) = self.truth(pair);
            (c.clone(), i)
        };
        if patched == cur && self.stored[pair] != cur {
            self.credit(pair, idx);
            self.stored[pair] = patched;
        }
    }
}

/// A corpus-maintenance approach under emulation.
pub trait Strategy {
    fn round(&mut self, ctx: &mut Ctx<'_>);
}

/// Emulation outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmuResult {
    pub detected: usize,
    pub total_changes: usize,
}

impl EmuResult {
    pub fn fraction(&self) -> f64 {
        if self.total_changes == 0 {
            0.0
        } else {
            self.detected as f64 / self.total_changes as f64
        }
    }
}

/// Runs a strategy over the emulation at a probing rate of
/// `pps_per_path` packets/second/path (Figure 8's x-axis).
pub fn run_emulation(emu: &EmuWorld, strategy: &mut dyn Strategy, pps_per_path: f64) -> EmuResult {
    let mut stored: Vec<CanonicalPath> =
        emu.timelines.iter().map(|t| t.states[0].1.clone()).collect();
    let mut detections = Vec::new();
    let mut probe_cursor = vec![0usize; emu.pair_count()];
    let per_round = pps_per_path * emu.pair_count() as f64 * emu.round.as_secs() as f64;
    let mut carry = 0.0f64;

    for r in 1..=emu.rounds() {
        let now = Timestamp(r * emu.round.as_secs());
        carry += per_round;
        let mut ctx = Ctx {
            emu,
            now,
            budget: carry,
            stored: &mut stored,
            detections: &mut detections,
            probe_cursor: &mut probe_cursor,
        };
        strategy.round(&mut ctx);
        carry = ctx.budget; // unspent budget carries over
    }

    EmuResult { detected: detections.len(), total_changes: emu.total_changes() }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use rrr_topology::AsIdx;
    use rrr_types::PeeringPointId;

    pub fn path(points: &[u32]) -> CanonicalPath {
        CanonicalPath {
            as_chain: (0..=points.len() as u32).map(AsIdx).collect(),
            crossings: points.iter().map(|p| vec![PeeringPointId(*p)]).collect(),
            reached: true,
        }
    }

    /// A small emulation world: `n` pairs; pair i changes at the listed
    /// (time, new first crossing) entries.
    pub fn world(n: usize, changes: &[(usize, u64, u32)]) -> EmuWorld {
        let mut timelines: Vec<PathTimeline> = (0..n)
            .map(|i| PathTimeline {
                states: vec![(Timestamp(0), path(&[i as u32 * 10 + 1, i as u32 * 10 + 2]))],
            })
            .collect();
        for &(pair, t, p) in changes {
            let mut new = timelines[pair].states.last().expect("non-empty").1.clone();
            new.crossings[0] = vec![PeeringPointId(p)];
            timelines[pair].states.push((Timestamp(t), new));
        }
        EmuWorld { timelines, round: Duration::minutes(15), duration: Duration::days(2) }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::world;
    use super::*;

    struct Greedy; // traceroutes pair 0 every round
    impl Strategy for Greedy {
        fn round(&mut self, ctx: &mut Ctx<'_>) {
            let _ = ctx.try_traceroute(0);
        }
    }

    #[test]
    fn timeline_lookup() {
        let w = world(1, &[(0, 1000, 99)]);
        let tl = &w.timelines[0];
        assert_eq!(tl.state_index_at(Timestamp(0)), 0);
        assert_eq!(tl.state_index_at(Timestamp(999)), 0);
        assert_eq!(tl.state_index_at(Timestamp(1000)), 1);
        assert_eq!(tl.state_index_at(Timestamp(5000)), 1);
        assert_eq!(tl.change_count(), 1);
        assert_eq!(w.total_changes(), 1);
    }

    #[test]
    fn traceroute_detects_current_change() {
        let w = world(2, &[(0, 1000, 99)]);
        let mut s = Greedy;
        let res = run_emulation(&w, &mut s, 1.0);
        assert_eq!(res.detected, 1);
        assert_eq!(res.total_changes, 1);
        assert!((res.fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn short_lived_change_between_observations_missed() {
        // Change at t=1000 reverts at t=1200; a strategy observing hourly
        // misses both (revert restores the stored path).
        struct Hourly;
        impl Strategy for Hourly {
            fn round(&mut self, ctx: &mut Ctx<'_>) {
                if ctx.now.0.is_multiple_of(3600) {
                    let _ = ctx.try_traceroute(0);
                }
            }
        }
        let mut w = world(1, &[(0, 1000, 99)]);
        // revert to original
        let orig = w.timelines[0].states[0].1.clone();
        w.timelines[0].states.push((Timestamp(1200), orig));
        let res = run_emulation(&w, &mut Hourly, 1.0);
        assert_eq!(res.total_changes, 2);
        assert_eq!(res.detected, 0, "short-lived change must be missed");
    }

    #[test]
    fn budget_limits_observations() {
        // pps so low that not even one traceroute per round is possible;
        // carry-over eventually allows some.
        let w = world(4, &[(0, 1000, 99), (1, 2000, 88), (2, 3000, 77)]);
        struct All;
        impl Strategy for All {
            fn round(&mut self, ctx: &mut Ctx<'_>) {
                for p in 0..ctx.pair_count() {
                    if ctx.try_traceroute(p).is_none() {
                        return;
                    }
                }
            }
        }
        let res_low = run_emulation(&w, &mut All, 0.00001);
        let res_high = run_emulation(&w, &mut All, 1.0);
        assert!(res_low.detected < res_high.detected);
        assert_eq!(res_high.detected, 3);
    }

    #[test]
    fn probe_notices_changed_element() {
        let w = world(1, &[(0, 100, 99)]);
        struct Prober {
            noticed: bool,
        }
        impl Strategy for Prober {
            fn round(&mut self, ctx: &mut Ctx<'_>) {
                // probe both elements
                for _ in 0..2 {
                    if let Some(true) = ctx.try_probe(0) {
                        self.noticed = true;
                    }
                }
            }
        }
        let mut p = Prober { noticed: false };
        let _ = run_emulation(&w, &mut p, 1.0);
        assert!(p.noticed, "rotating probes must hit the changed element");
    }

    #[test]
    fn patch_credits_only_correct_beliefs() {
        let w = world(1, &[(0, 100, 99)]);
        struct Patcher;
        impl Strategy for Patcher {
            fn round(&mut self, ctx: &mut Ctx<'_>) {
                // First a wrong patch (no credit), then the right one.
                let mut wrong = ctx.stored(0).clone();
                wrong.crossings[0] = vec![rrr_types::PeeringPointId(1234)];
                ctx.apply_patch(0, wrong);
                let mut right = ctx.stored(0).clone();
                right.crossings[0] = vec![rrr_types::PeeringPointId(99)];
                ctx.apply_patch(0, right);
            }
        }
        let res = run_emulation(&w, &mut Patcher, 0.0);
        assert_eq!(res.detected, 1);
    }
}
