//! Feed sources: where the daemon's input batches come from, and the
//! canonical merge rule that makes N concurrent feeds equivalent to one
//! serial stream.
//!
//! Real deployments ingest one MRT feed per collector, each with its own
//! clock. The daemon merges same-instant batches across feeds and then
//! sorts the merged batch into **canonical order** — updates by
//! `(time, vp)`, public traceroutes by `(time, probe)`. Because every
//! vantage point's items live wholly inside one feed (FIFO preserved),
//! canonical order is independent of how many feeds carried the stream,
//! which is what lets a serial batch replay act as the ground-truth oracle
//! for any feed count.

use rrr_types::{BgpUpdate, Timestamp, Traceroute, WindowConfig};
use std::collections::VecDeque;
use std::io::Read;

/// One batch of input on one feed's clock: everything that feed observed
/// up to (and including) `now`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FeedBatch {
    /// The feed clock after this batch; feeds must emit non-decreasing
    /// `now` values.
    pub now: Timestamp,
    /// BGP updates observed since the previous batch, time-sorted.
    pub updates: Vec<BgpUpdate>,
    /// Public traceroutes observed since the previous batch, time-sorted.
    pub public: Vec<Traceroute>,
}

impl FeedBatch {
    /// A clock-only batch: the feed advanced to `now` with nothing to
    /// report. Empty batches still drive window closes, so feeds emit them
    /// rather than skipping quiet rounds.
    pub fn tick(now: Timestamp) -> Self {
        FeedBatch { now, ..FeedBatch::default() }
    }
}

/// A source of [`FeedBatch`]es, pulled by a dedicated feed thread.
pub trait FeedSource: Send {
    /// The next batch on this feed's clock; `Ok(None)` at end of stream.
    fn next_batch(&mut self) -> Result<Option<FeedBatch>, rrr_types::Error>;
}

/// A feed scripted from an in-memory batch list (simulation scenarios,
/// tests).
#[derive(Debug, Default)]
pub struct ScriptedFeed {
    batches: VecDeque<FeedBatch>,
}

impl ScriptedFeed {
    pub fn new(batches: impl IntoIterator<Item = FeedBatch>) -> Self {
        ScriptedFeed { batches: batches.into_iter().collect() }
    }
}

impl FeedSource for ScriptedFeed {
    fn next_batch(&mut self) -> Result<Option<FeedBatch>, rrr_types::Error> {
        Ok(self.batches.pop_front())
    }
}

/// An MRT feed: wraps an [`rrr_mrt::UpdateStream`] and batches its decoded
/// updates by BGP window, emitting one [`FeedBatch`] per window with
/// `now` at the window's end — the shape of a RouteViews dump cycle.
pub struct MrtFeed<R: Read> {
    stream: rrr_mrt::UpdateStream<R>,
    window: WindowConfig,
    /// One decoded update of lookahead (the first update of the *next*
    /// window, held until that window's batch is assembled).
    lookahead: Option<BgpUpdate>,
}

impl<R: Read + Send> MrtFeed<R> {
    pub fn new(stream: rrr_mrt::UpdateStream<R>, window: WindowConfig) -> Self {
        MrtFeed { stream, window, lookahead: None }
    }
}

impl<R: Read + Send> FeedSource for MrtFeed<R> {
    fn next_batch(&mut self) -> Result<Option<FeedBatch>, rrr_types::Error> {
        let mut open = None;
        let mut updates = Vec::new();
        while let Some(u) = self.lookahead.take().or_else(|| self.stream.next()) {
            let w = self.window.window_of(u.time);
            if *open.get_or_insert(w) != w {
                self.lookahead = Some(u);
                break;
            }
            updates.push(u);
        }
        // The stream ends the same way on EOF and on a bad record; only the
        // latter leaves a verdict behind.
        if let Some(e) = self.stream.finished_with.take() {
            return Err(rrr_types::Error::feed(format!("mrt stream: {e}")));
        }
        Ok(open.map(|w| {
            let (_, now) = self.window.bounds(w);
            FeedBatch { now, updates, public: Vec::new() }
        }))
    }
}

/// Sorts one merged batch into canonical order: updates by `(time, vp)`,
/// public traceroutes by `(time, probe)`. Stable, so same-key items keep
/// their concatenation (feed-index) order — which per-VP is the feed's
/// own FIFO order.
pub fn canonical_sort(batch: &mut FeedBatch) {
    batch.updates.sort_by_key(|u| (u.time, u.vp));
    batch.public.sort_by_key(|t| (t.time, t.probe));
}

/// The serial reference stream for a scripted run: every batch in
/// canonical order. Feeding these to a batch detector step by step is, by
/// construction, what the daemon's merge of any [`split_rounds`] of the
/// same steps converges to.
pub fn canonicalize(steps: &[FeedBatch]) -> Vec<FeedBatch> {
    let mut out = steps.to_vec();
    for b in &mut out {
        canonical_sort(b);
    }
    out
}

/// Splits a serial batch script across `n` feeds: updates go to feed
/// `vp % n`, public traceroutes to feed `probe % n`. Every feed gets a
/// batch for every step — empty ones included — so all feed clocks tick
/// through every round and no window close is starved behind a quiet feed.
pub fn split_rounds(steps: &[FeedBatch], n: usize) -> Vec<Vec<FeedBatch>> {
    assert!(n > 0, "at least one feed");
    let mut feeds: Vec<Vec<FeedBatch>> = vec![Vec::with_capacity(steps.len()); n];
    for step in steps {
        for (i, feed) in feeds.iter_mut().enumerate() {
            let updates: Vec<BgpUpdate> =
                step.updates.iter().filter(|u| (u.vp.0 as usize) % n == i).cloned().collect();
            let public: Vec<Traceroute> =
                step.public.iter().filter(|t| (t.probe.0 as usize) % n == i).cloned().collect();
            feed.push(FeedBatch { now: step.now, updates, public });
        }
    }
    feeds
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrr_types::{AsPath, Asn, BgpElem, Hop, Ipv4, ProbeId, TracerouteId, VpId};

    fn upd(vp: u32, t: u64) -> BgpUpdate {
        BgpUpdate {
            time: Timestamp(t),
            vp: VpId(vp),
            prefix: "10.0.0.0/16".parse().expect("prefix"),
            elem: BgpElem::Announce { path: AsPath::from_asns([100, 200]), communities: vec![] },
        }
    }

    fn tr(probe: u32, id: u64, t: u64) -> Traceroute {
        Traceroute {
            id: TracerouteId(id),
            probe: ProbeId(probe),
            src: Ipv4::new(10, 0, 0, 1),
            dst: Ipv4::new(10, 1, 0, 1),
            time: Timestamp(t),
            hops: vec![Hop::responsive(Ipv4::new(10, 1, 0, 1))],
            reached: true,
        }
    }

    fn merge_like_daemon(feeds: &mut [Vec<FeedBatch>]) -> Vec<FeedBatch> {
        // Reproduce the daemon's merge rule in miniature: take all heads
        // sharing the minimum `now` in feed order, concatenate, sort.
        let mut idx = vec![0usize; feeds.len()];
        let mut out = Vec::new();
        loop {
            let min = feeds.iter().zip(&idx).filter_map(|(f, &i)| f.get(i).map(|b| b.now)).min();
            let Some(now) = min else { break };
            let mut merged = FeedBatch::tick(now);
            for (f, i) in feeds.iter().zip(idx.iter_mut()) {
                if f.get(*i).is_some_and(|b| b.now == now) {
                    merged.updates.extend(f[*i].updates.iter().cloned());
                    merged.public.extend(f[*i].public.iter().cloned());
                    *i += 1;
                }
            }
            canonical_sort(&mut merged);
            out.push(merged);
        }
        out
    }

    #[test]
    fn split_then_merge_is_canonical_at_any_feed_count() {
        let steps = vec![
            FeedBatch {
                now: Timestamp(900),
                updates: vec![upd(2, 10), upd(0, 10), upd(1, 20), upd(5, 15)],
                public: vec![tr(1, 1, 12), tr(0, 2, 12), tr(2, 3, 5)],
            },
            FeedBatch { now: Timestamp(1800), updates: vec![upd(3, 1000)], public: vec![] },
        ];
        let reference = canonicalize(&steps);
        for n in [1usize, 2, 3, 8] {
            let mut feeds = split_rounds(&steps, n);
            assert_eq!(feeds.len(), n);
            // Empty batches are kept: every feed sees every round.
            for f in &feeds {
                assert_eq!(f.len(), steps.len());
            }
            assert_eq!(merge_like_daemon(&mut feeds), reference, "n={n}");
        }
    }

    #[test]
    fn scripted_feed_drains_in_order() {
        let mut f =
            ScriptedFeed::new(vec![FeedBatch::tick(Timestamp(1)), FeedBatch::tick(Timestamp(2))]);
        assert_eq!(f.next_batch().expect("ok").expect("batch").now, Timestamp(1));
        assert_eq!(f.next_batch().expect("ok").expect("batch").now, Timestamp(2));
        assert!(f.next_batch().expect("ok").is_none());
    }

    #[test]
    fn mrt_feed_batches_by_window() {
        use rrr_mrt::{MrtFileWriter, StreamFilter, UpdateStream, VpDirectory};
        let mut dir = VpDirectory::default();
        for i in 0..3 {
            dir.register(VpId(i), Asn(100 + i));
        }
        // Times 100, 850 in window 0; 950, 1700 in window 1 (900s windows).
        let updates = vec![upd(0, 100), upd(1, 850), upd(2, 950), upd(0, 1700)];
        let mut w = MrtFileWriter::new(Vec::new());
        for u in &updates {
            w.write_update(&dir, u).expect("in-memory write");
        }
        let bytes = w.finish().expect("flush");
        let stream = UpdateStream::new(&bytes[..], dir, StreamFilter::default());
        let mut feed = MrtFeed::new(stream, WindowConfig::BGP);

        let b0 = feed.next_batch().expect("ok").expect("batch");
        assert_eq!(b0.now, Timestamp(900));
        assert_eq!(b0.updates, updates[..2].to_vec());
        let b1 = feed.next_batch().expect("ok").expect("batch");
        assert_eq!(b1.now, Timestamp(1800));
        assert_eq!(b1.updates, updates[2..].to_vec());
        assert!(feed.next_batch().expect("ok").is_none());
    }
}
