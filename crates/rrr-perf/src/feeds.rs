//! Benchmark-owned feed plumbing around the program's [`FeedSource`]s: the
//! load generator's release schedule ([`PacedFeed`]), the trace's feed
//! spans ([`TimedFeed`]), the change-only announcement filter, and a
//! serial copy of the daemon's merge rule for the untimed reference.
//!
//! The wrappers never touch a batch: what the inner source yields is what
//! the daemon receives, in the same order.

use rrr_serve::{FeedBatch, FeedSource};
use rrr_types::{BgpElem, BgpUpdate, Error, Prefix, Timestamp, VpId};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// When one batch was due and when it was actually handed to the daemon.
#[derive(Debug, Clone, Copy)]
pub struct Release {
    /// The batch's own clock: it is visible once the epoch reaches the
    /// number of BGP windows ending at or before this instant.
    pub now: Timestamp,
    pub due: Instant,
    pub released: Instant,
}

/// The release log a [`PacedFeed`] shares with the generator thread.
pub type ReleaseLog = Arc<Mutex<Vec<Release>>>;

/// Hands batch `k` to the daemon no earlier than `t0 + k * interval`,
/// where `t0` is the instant the first batch was ready — an open-loop
/// schedule that does not slow down when the daemon does. With no interval (closed
/// loop) a batch is due the moment the inner source yields it. Either way
/// every release is logged, so publish lag can be taken from the due time.
pub struct PacedFeed<F> {
    inner: F,
    interval: Option<Duration>,
    t0: Option<Instant>,
    sent: u32,
    log: ReleaseLog,
}

impl<F: FeedSource> PacedFeed<F> {
    pub fn new(inner: F, interval: Option<Duration>) -> (Self, ReleaseLog) {
        let log = ReleaseLog::default();
        (PacedFeed { inner, interval, t0: None, sent: 0, log: Arc::clone(&log) }, log)
    }
}

impl<F: FeedSource> FeedSource for PacedFeed<F> {
    fn next_batch(&mut self) -> Result<Option<FeedBatch>, Error> {
        let Some(batch) = self.inner.next_batch()? else { return Ok(None) };
        let mut released = Instant::now();
        let t0 = *self.t0.get_or_insert(released);
        let due = match self.interval {
            Some(interval) => {
                let due = t0 + interval * self.sent;
                if let Some(wait) = due.checked_duration_since(released) {
                    std::thread::sleep(wait);
                    released = Instant::now();
                }
                due
            }
            None => released,
        };
        self.sent += 1;
        self.log.lock().expect("release log poisoned").push(Release {
            now: batch.now,
            due,
            released,
        });
        Ok(Some(batch))
    }
}

/// One `next_batch` call as the trace records it.
#[derive(Debug, Clone, Copy)]
pub struct FeedSpan {
    pub start: Instant,
    pub end: Instant,
    pub items: usize,
}

/// The span log a [`TimedFeed`] shares with the trace.
pub type FeedSpans = Arc<Mutex<Vec<FeedSpan>>>;

/// Times every `next_batch` of the wrapped source (traced runs only).
/// Time inside the calls is the feed's busy time; the gaps between them
/// are time spent blocked on the daemon's bounded channel.
pub struct TimedFeed<F> {
    inner: F,
    spans: FeedSpans,
}

impl<F: FeedSource> TimedFeed<F> {
    pub fn new(inner: F) -> (Self, FeedSpans) {
        let spans = FeedSpans::default();
        (TimedFeed { inner, spans: Arc::clone(&spans) }, spans)
    }
}

impl<F: FeedSource> FeedSource for TimedFeed<F> {
    fn next_batch(&mut self) -> Result<Option<FeedBatch>, Error> {
        let start = Instant::now();
        let batch = self.inner.next_batch()?;
        let end = Instant::now();
        let items = batch.as_ref().map_or(0, |b| b.updates.len() + b.public.len());
        self.spans.lock().expect("span log poisoned").push(FeedSpan { start, end, items });
        Ok(batch)
    }
}

/// Drops an announcement (or withdrawal) identical to the last one the
/// same vantage point sent for the same prefix — what a real BGP session
/// puts on the wire, as opposed to a collector re-dumping its table every
/// window. Anything that differs from the previous element passes.
#[derive(Debug, Default)]
pub struct ChangeOnly {
    last: HashMap<(VpId, Prefix), BgpElem>,
}

impl ChangeOnly {
    /// A filter whose sessions already hold `rib` (the table dump the
    /// detector's RIB mirror is seeded from).
    pub fn seeded(rib: &[BgpUpdate]) -> Self {
        ChangeOnly { last: rib.iter().map(|u| ((u.vp, u.prefix), u.elem.clone())).collect() }
    }

    /// Keeps the updates that change their session's state, in order.
    pub fn filter(&mut self, updates: Vec<BgpUpdate>) -> Vec<BgpUpdate> {
        updates
            .into_iter()
            .filter(|u| {
                let key = (u.vp, u.prefix);
                if self.last.get(&key) == Some(&u.elem) {
                    return false;
                }
                self.last.insert(key, u.elem.clone());
                true
            })
            .collect()
    }
}

/// The daemon's merge rule, run serially: fill every open feed's head,
/// take the minimum `now`, concatenate the heads at that instant in
/// feed-index order. The result is *not* sorted — callers apply
/// [`rrr_serve::canonical_sort`] themselves (and may time it).
pub struct SerialMerge {
    feeds: Vec<Box<dyn FeedSource>>,
    heads: Vec<Option<FeedBatch>>,
    open: Vec<bool>,
}

impl SerialMerge {
    pub fn new(feeds: Vec<Box<dyn FeedSource>>) -> Self {
        let n = feeds.len();
        SerialMerge { feeds, heads: (0..n).map(|_| None).collect(), open: vec![true; n] }
    }

    pub fn next_merged(&mut self) -> Result<Option<FeedBatch>, Error> {
        for i in 0..self.feeds.len() {
            if self.open[i] && self.heads[i].is_none() {
                match self.feeds[i].next_batch()? {
                    Some(b) => self.heads[i] = Some(b),
                    None => self.open[i] = false,
                }
            }
        }
        let Some(now) = self.heads.iter().flatten().map(|b| b.now).min() else { return Ok(None) };
        let mut merged = FeedBatch::tick(now);
        for h in &mut self.heads {
            if h.as_ref().is_some_and(|b| b.now == now) {
                let b = h.take().expect("checked some");
                merged.updates.extend(b.updates);
                merged.public.extend(b.public);
            }
        }
        Ok(Some(merged))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrr_serve::ScriptedFeed;
    use rrr_types::{AsPath, Community};

    fn announce(vp: u32, t: u64, path: &[u32], community: u32) -> BgpUpdate {
        BgpUpdate {
            time: Timestamp(t),
            vp: VpId(vp),
            prefix: "10.0.0.0/16".parse().expect("prefix"),
            elem: BgpElem::Announce {
                path: AsPath::from_asns(path.iter().copied()),
                communities: vec![Community::new(64_512, community)],
            },
        }
    }

    fn script() -> Vec<FeedBatch> {
        (1..=4u64)
            .map(|r| FeedBatch {
                now: Timestamp(r * 900),
                updates: (0..3).map(|vp| announce(vp, r * 900 - 10, &[100 + vp, 7], 1)).collect(),
                public: Vec::new(),
            })
            .collect()
    }

    fn drain(mut f: impl FeedSource) -> Vec<FeedBatch> {
        std::iter::from_fn(|| f.next_batch().expect("scripted feeds never fail")).collect()
    }

    #[test]
    fn wrappers_deliver_identical_batches_in_order() {
        let want = script();
        let (timed, spans) = TimedFeed::new(ScriptedFeed::new(want.clone()));
        assert_eq!(drain(timed), want);
        let spans = spans.lock().expect("spans");
        // One span per batch plus the end-of-stream call.
        assert_eq!(spans.len(), want.len() + 1);
        assert_eq!(spans[0].items, 3);
        assert_eq!(spans[want.len()].items, 0);

        let (closed, log) = PacedFeed::new(ScriptedFeed::new(want.clone()), None);
        assert_eq!(drain(closed), want);
        let log = log.lock().expect("log");
        assert_eq!(log.len(), want.len());
        assert!(log.iter().all(|r| r.due == r.released), "closed loop: due on release");
        assert_eq!(
            log.iter().map(|r| r.now).collect::<Vec<_>>(),
            [900, 1800, 2700, 3600].map(Timestamp)
        );

        let (stacked, _) = TimedFeed::new(ScriptedFeed::new(want.clone()));
        let (stacked, _) = PacedFeed::new(stacked, Some(Duration::from_millis(2)));
        assert_eq!(drain(stacked), want);
    }

    #[test]
    fn paced_feed_never_releases_before_the_schedule() {
        let interval = Duration::from_millis(5);
        let (paced, log) = PacedFeed::new(ScriptedFeed::new(script()), Some(interval));
        let _ = drain(paced);
        let log = log.lock().expect("log");
        for (k, r) in log.iter().enumerate() {
            assert!(r.released >= r.due, "batch {k} left early");
            assert_eq!(r.due, log[0].due + interval * k as u32, "batch {k} schedule");
        }
    }

    #[test]
    fn change_only_drops_repeats_and_keeps_every_change() {
        let rib = vec![announce(0, 0, &[100, 7], 1), announce(1, 0, &[101, 7], 1)];
        let mut f = ChangeOnly::seeded(&rib);
        // Window 1: vp0 repeats the table, vp1 changes path, vp2 is new.
        let out = f.filter(vec![
            announce(0, 10, &[100, 7], 1),
            announce(1, 11, &[101, 9, 7], 1),
            announce(2, 12, &[102, 7], 1),
        ]);
        assert_eq!(out.iter().map(|u| u.vp.0).collect::<Vec<_>>(), vec![1, 2]);
        // Window 2: vp1 repeats its new path (dropped), vp0 flips a
        // community only (kept), vp2 is withdrawn (kept), then withdrawn
        // again (dropped), then re-announced unchanged from before (kept).
        let withdraw = |t| BgpUpdate { elem: BgpElem::Withdraw, ..announce(2, t, &[], 0) };
        let out = f.filter(vec![
            announce(1, 20, &[101, 9, 7], 1),
            announce(0, 21, &[100, 7], 2),
            withdraw(22),
            withdraw(23),
            announce(2, 24, &[102, 7], 1),
        ]);
        assert_eq!(out.iter().map(|u| u.time.0).collect::<Vec<_>>(), vec![21, 22, 24]);
    }

    #[test]
    fn change_only_is_a_pure_function_of_its_input() {
        let windows: Vec<Vec<BgpUpdate>> = (0..6u64)
            .map(|w| {
                (0..4u32)
                    .map(|vp| announce(vp, w * 900 + vp as u64, &[100 + vp, 7], (w / 2) as u32))
                    .collect()
            })
            .collect();
        let run = || {
            let mut f = ChangeOnly::default();
            windows.iter().map(|w| f.filter(w.clone())).collect::<Vec<_>>()
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b);
        // Communities flip every second window: even windows pass all
        // four sessions, odd windows pass nothing.
        assert_eq!(a.iter().map(Vec::len).collect::<Vec<_>>(), vec![4, 0, 4, 0, 4, 0]);
    }

    #[test]
    fn serial_merge_follows_the_daemon_rule() {
        let a = vec![
            FeedBatch {
                now: Timestamp(900),
                updates: vec![announce(0, 1, &[1], 1)],
                public: vec![],
            },
            FeedBatch {
                now: Timestamp(2700),
                updates: vec![announce(0, 2, &[1], 1)],
                public: vec![],
            },
        ];
        let b = vec![
            FeedBatch {
                now: Timestamp(900),
                updates: vec![announce(1, 0, &[2], 1)],
                public: vec![],
            },
            FeedBatch::tick(Timestamp(1800)),
        ];
        let mut m =
            SerialMerge::new(vec![Box::new(ScriptedFeed::new(a)), Box::new(ScriptedFeed::new(b))]);
        let mut out = Vec::new();
        while let Some(b) = m.next_merged().expect("scripted") {
            out.push((b.now.0, b.updates.iter().map(|u| u.vp.0).collect::<Vec<_>>()));
        }
        // Same-instant heads concatenate in feed order, unsorted.
        assert_eq!(out, vec![(900, vec![0, 1]), (1800, vec![]), (2700, vec![0])]);
    }
}
