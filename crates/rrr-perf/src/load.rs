//! The load generator: a fixed, seed-derived query schedule, the two
//! client transports, and the paced loop the main thread runs while the
//! daemon ingests. The main thread is the only load generator; it is
//! asleep most of the time.

use crate::inputs::QueryKeys;
use crate::procfs::RunqueueWait;
use rrr_serve::{wire, QueryResponse, ResponseBody, ServeHandle, StalenessQuery};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::mpsc::{channel, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Probing budget of every `RefreshPlan` query (paper §4.3 / App. D).
pub const PLAN_BUDGET: usize = 64;

/// Longest the generator sleeps between looks at the published epoch.
const EPOCH_POLL: Duration = Duration::from_millis(1);

/// A reply later than this counts as a failure.
const REPLY_TIMEOUT: Duration = Duration::from_secs(1);

/// How often resident memory is sampled where the kernel's peak watermark
/// cannot be reset.
const RSS_SAMPLE_EVERY: Duration = Duration::from_millis(20);

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Short name of a query's kind, as the wire protocol spells it.
pub fn kind_of(q: &StalenessQuery) -> &'static str {
    match q {
        StalenessQuery::IsStale(_) => "is_stale",
        StalenessQuery::RefreshPlan { .. } => "refresh_plan",
        StalenessQuery::PrefixSummary(_) => "prefix_summary",
        StalenessQuery::AsSummary(_) => "as_summary",
        StalenessQuery::CorpusSummary => "corpus_summary",
        StalenessQuery::MonitorStats => "monitor_stats",
        StalenessQuery::Metrics => "metrics",
    }
}

/// The query schedule: blocks of twenty in which the mix is exact — 14
/// `IsStale` on corpus ids, 2 `RefreshPlan{64}`, 2 `PrefixSummary`, 1
/// `AsSummary`, 1 `CorpusSummary` (reuse checks dominate, plans are
/// periodic) — in a fixed order, with every key drawn from the seed.
/// Cycled when a run asks more queries than it holds.
///
/// The order is fixed because a plan costs more the further the detector
/// has come (1.6 ms at the tenth query of a `replay_mixed_2feed` repeat,
/// 3.6 ms at the fiftieth) and a repeat holds only six to ten of them:
/// with the order drawn from the seed too, where the plans fell decided
/// the tail (2.9-4.7 ms between seeds, 22 % spread over ten). The two
/// plans of a block sit on an even and an odd position so that over TCP,
/// where requests alternate between two connections, each carries one.
pub struct Schedule {
    queries: Vec<StalenessQuery>,
}

impl Schedule {
    const BLOCK: [u8; 20] = [0, 0, 2, 0, 1, 0, 0, 3, 0, 0, 0, 0, 0, 2, 0, 1, 0, 0, 4, 0];

    pub fn new(seed: u64, keys: &QueryKeys, blocks: usize) -> Result<Schedule, String> {
        if keys.ids.is_empty() || keys.prefixes.is_empty() || keys.asns.is_empty() {
            return Err("query schedule: the corpus is empty".into());
        }
        let mut rng = seed ^ 0xD6E8_FEB8_6659_FD93;
        let mut pick = |n: usize| (splitmix(&mut rng) % n as u64) as usize;
        let mut queries = Vec::with_capacity(blocks * Self::BLOCK.len());
        for _ in 0..blocks {
            for slot in Self::BLOCK {
                queries.push(match slot {
                    0 => StalenessQuery::IsStale(keys.ids[pick(keys.ids.len())]),
                    1 => StalenessQuery::RefreshPlan { budget: PLAN_BUDGET },
                    2 => StalenessQuery::PrefixSummary(keys.prefixes[pick(keys.prefixes.len())]),
                    3 => StalenessQuery::AsSummary(keys.asns[pick(keys.asns.len())]),
                    _ => StalenessQuery::CorpusSummary,
                });
            }
        }
        Ok(Schedule { queries })
    }

    pub fn get(&self, i: usize) -> &StalenessQuery {
        &self.queries[i % self.queries.len()]
    }

    pub fn queries(&self) -> &[StalenessQuery] {
        &self.queries
    }
}

/// Whether `resp` is a well-formed answer to `q`: the body matches the
/// question, and a corpus id asked about is known.
pub fn answers(q: &StalenessQuery, resp: &QueryResponse) -> bool {
    matches!(
        (q, &resp.body),
        (StalenessQuery::IsStale(_), ResponseBody::Freshness(Some(_)))
            | (StalenessQuery::RefreshPlan { .. }, ResponseBody::Plan(_))
            | (StalenessQuery::PrefixSummary(_), ResponseBody::Prefix(_))
            | (StalenessQuery::AsSummary(_), ResponseBody::As(_))
            | (StalenessQuery::CorpusSummary, ResponseBody::Corpus(_))
            | (StalenessQuery::MonitorStats, ResponseBody::Monitors(_))
            | (StalenessQuery::Metrics, ResponseBody::Metrics(_))
    )
}

/// One answered (or failed) query as the generator saw it.
pub struct Completed {
    /// Position in the schedule.
    pub index: usize,
    /// Connection it travelled on (0 in process).
    pub conn: usize,
    pub due: Instant,
    pub start: Instant,
    pub end: Instant,
    /// Part of `start..end` the asking thread sat runnable without a core
    /// (in process only; zero where the kernel does not say).
    pub off_core: Duration,
    pub reply: Result<QueryResponse, String>,
}

struct Pending {
    index: usize,
    due: Instant,
    start: Instant,
}

struct Conn {
    writer: TcpStream,
    pending: VecDeque<Pending>,
    reader: Option<JoinHandle<()>>,
    /// Set once a reply went missing: later lines can no longer be
    /// matched to their requests.
    dead: bool,
}

type Line = (usize, Instant, std::io::Result<String>);

/// JSON-lines connections to the daemon's TCP front end, used round
/// robin and pipelined: a request goes out when it is due whether or not
/// earlier ones have been answered, as independent users would send
/// them. One small thread per connection stamps each reply line the
/// moment it arrives.
pub struct TcpClient {
    conns: Vec<Conn>,
    lines: Receiver<Line>,
    next: usize,
    /// Requests that failed on the way out; surfaced by the next `wait`.
    failed: Vec<Completed>,
}

impl TcpClient {
    pub fn connect(addr: SocketAddr, connections: usize) -> Result<TcpClient, String> {
        let (tx, lines) = channel::<Line>();
        let mut conns = Vec::with_capacity(connections);
        for i in 0..connections.max(1) {
            let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            writer.set_nodelay(true).map_err(|e| format!("set_nodelay: {e}"))?;
            let socket = writer.try_clone().map_err(|e| format!("clone socket: {e}"))?;
            let tx = tx.clone();
            let reader = std::thread::Builder::new()
                .name(format!("perf-reply-{i}"))
                .spawn(move || {
                    let mut reader = BufReader::new(socket);
                    loop {
                        let mut line = String::new();
                        let got = reader.read_line(&mut line);
                        let end = matches!(got, Ok(0) | Err(_));
                        let msg = got.map(|_| line);
                        if tx.send((i, Instant::now(), msg)).is_err() || end {
                            return;
                        }
                    }
                })
                .map_err(|e| format!("spawn reply reader: {e}"))?;
            conns.push(Conn {
                writer,
                pending: VecDeque::new(),
                reader: Some(reader),
                dead: false,
            });
        }
        Ok(TcpClient { conns, lines, next: 0, failed: Vec::new() })
    }

    fn fail_all(conn: &mut Conn, i: usize, why: &str, out: &mut Vec<Completed>) {
        conn.dead = true;
        let end = Instant::now();
        for p in conn.pending.drain(..) {
            out.push(Completed {
                index: p.index,
                conn: i,
                due: p.due,
                start: p.start,
                end,
                off_core: Duration::ZERO,
                reply: Err(why.to_string()),
            });
        }
    }

    fn submit(&mut self, index: usize, q: &StalenessQuery, due: Instant) {
        let i = self.next % self.conns.len();
        self.next += 1;
        let conn = &mut self.conns[i];
        let start = Instant::now();
        conn.pending.push_back(Pending { index, due, start });
        if conn.dead {
            return Self::fail_all(conn, i, "connection lost an earlier reply", &mut self.failed);
        }
        let mut request = wire::encode_request(q);
        request.push('\n');
        if let Err(e) = conn.writer.write_all(request.as_bytes()) {
            Self::fail_all(conn, i, &format!("send: {e}"), &mut self.failed);
        }
    }

    /// Replies that arrive within `timeout`, matched to their requests in
    /// each connection's FIFO order; requests unanswered for longer than
    /// [`REPLY_TIMEOUT`] are failed.
    fn wait(&mut self, timeout: Duration) -> Vec<Completed> {
        let mut out = std::mem::take(&mut self.failed);
        let timeout = if out.is_empty() { timeout } else { Duration::ZERO };
        let mut next = self.lines.recv_timeout(timeout).ok();
        while let Some((i, end, msg)) = next {
            let conn = &mut self.conns[i];
            match (msg, conn.pending.pop_front()) {
                (Ok(line), Some(p)) if !line.is_empty() => out.push(Completed {
                    index: p.index,
                    conn: i,
                    due: p.due,
                    start: p.start,
                    end,
                    off_core: Duration::ZERO,
                    reply: wire::decode_response(line.trim_end()).map_err(|e| e.to_string()),
                }),
                (Ok(_), p) | (Err(_), p) => {
                    conn.pending.extend(p);
                    Self::fail_all(conn, i, "connection closed", &mut out);
                }
            }
            next = self.lines.try_recv().ok();
        }
        let now = Instant::now();
        for (i, conn) in self.conns.iter_mut().enumerate() {
            if conn.pending.front().is_some_and(|p| now - p.start > REPLY_TIMEOUT) {
                Self::fail_all(conn, i, "no reply within 1 s", &mut out);
            }
        }
        out
    }

    fn outstanding(&self) -> usize {
        self.conns.iter().map(|c| c.pending.len()).sum()
    }
}

impl Drop for TcpClient {
    fn drop(&mut self) {
        for conn in &mut self.conns {
            // Wakes the reader with end-of-file.
            let _ = conn.writer.shutdown(Shutdown::Both);
            if let Some(t) = conn.reader.take() {
                let _ = t.join();
            }
        }
    }
}

/// How queries reach the daemon.
pub enum Client {
    /// Answered synchronously inside `submit`; `wait` hands them back.
    InProcess {
        handle: ServeHandle,
        done: Vec<Completed>,
        wait: Option<RunqueueWait>,
    },
    Tcp(TcpClient),
}

impl Client {
    pub fn in_process(handle: ServeHandle) -> Client {
        Client::InProcess { handle, done: Vec::new(), wait: RunqueueWait::of_this_thread() }
    }

    fn submit(&mut self, index: usize, q: &StalenessQuery, due: Instant) {
        match self {
            Client::InProcess { handle, done, wait } => {
                let waited = |w: &Option<RunqueueWait>| w.as_ref().and_then(RunqueueWait::total);
                let before = waited(wait);
                let start = Instant::now();
                let reply = Ok(handle.query(q));
                let end = Instant::now();
                let off_core =
                    before.zip(waited(wait)).map_or(Duration::ZERO, |(a, b)| b.saturating_sub(a));
                done.push(Completed { index, conn: 0, due, start, end, off_core, reply });
            }
            Client::Tcp(tcp) => tcp.submit(index, q, due),
        }
    }

    fn wait(&mut self, timeout: Duration) -> Vec<Completed> {
        match self {
            Client::InProcess { done, .. } => {
                if done.is_empty() {
                    std::thread::sleep(timeout);
                }
                std::mem::take(done)
            }
            Client::Tcp(tcp) => tcp.wait(timeout),
        }
    }

    fn outstanding(&self) -> usize {
        match self {
            Client::InProcess { done, .. } => done.len(),
            Client::Tcp(tcp) => tcp.outstanding() + tcp.failed.len(),
        }
    }

    /// Over the wire a request is timed from when it was due, so a stall
    /// charges the requests queued behind it; in process it is timed
    /// around the call, less what the calling thread spent off its core.
    pub fn timed_from_due(&self) -> bool {
        matches!(self, Client::Tcp(_))
    }

    /// One closed-loop round trip (idle-daemon probes).
    pub fn ask(&mut self, q: &StalenessQuery) -> Result<QueryResponse, String> {
        self.submit(0, q, Instant::now());
        let deadline = Instant::now() + REPLY_TIMEOUT * 2;
        loop {
            if let Some(c) = self.wait(EPOCH_POLL).pop() {
                return c.reply;
            }
            if Instant::now() > deadline {
                return Err("no reply".into());
            }
        }
    }
}

/// One query as the generator saw it.
#[derive(Debug, Clone, Copy)]
pub struct QuerySpan {
    pub kind: &'static str,
    pub start: Instant,
    pub end: Instant,
}

/// What the generator observed during one daemon run.
#[derive(Debug, Default)]
pub struct DriveLog {
    /// Client-observed latency per query. In process, less `off_core_us`:
    /// there the generator thread answers the query itself on hardware
    /// threads it shares with the daemon, and how long it sat preempted
    /// in the middle of an answer says how busy the host was, not what
    /// the answer costs; a client of a deployed daemon has its own core.
    pub latencies_us: Vec<f64>,
    /// Per query, the part of the call the asking thread sat runnable
    /// without a core (zero over TCP and where the kernel does not say).
    pub off_core_us: Vec<f64>,
    /// How late each query was sent relative to its schedule, ms.
    pub lateness_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// `(epoch, first instant it was seen published)`, ascending.
    pub epochs: Vec<(u64, Instant)>,
    /// Highest sampled RSS in MiB (only when sampling was asked for).
    pub sampled_peak_rss_mib: Option<f64>,
    pub spans: Vec<QuerySpan>,
    pub first_failure: Option<String>,
}

impl DriveLog {
    /// The first instant an epoch `>= epoch` was seen published.
    pub fn first_seen(&self, epoch: u64) -> Option<Instant> {
        let i = self.epochs.partition_point(|&(e, _)| e < epoch);
        self.epochs.get(i).map(|&(_, t)| t)
    }

    fn record(&mut self, c: Completed, q: &StalenessQuery, from_due: bool, epochs: &mut Vec<u64>) {
        let from = if from_due { c.due } else { c.start };
        self.attempted += 1;
        self.lateness_ms.push(c.start.saturating_duration_since(c.due).as_secs_f64() * 1e3);
        let latency = c.end.saturating_duration_since(from).saturating_sub(c.off_core);
        self.latencies_us.push(latency.as_secs_f64() * 1e6);
        self.off_core_us.push(c.off_core.as_secs_f64() * 1e6);
        self.spans.push(QuerySpan { kind: kind_of(q), start: c.start, end: c.end });
        if epochs.len() <= c.conn {
            epochs.resize(c.conn + 1, 0);
        }
        // Replies on one connection are answered in order, so the epoch
        // they carry may never step back.
        let seen = &mut epochs[c.conn];
        let failure = match c.reply {
            Err(e) => Some(e),
            Ok(resp) if !answers(q, &resp) => Some(format!("malformed reply to {q:?}")),
            Ok(resp) if resp.epoch < *seen => {
                Some(format!("epoch went backwards: {seen} then {}", resp.epoch))
            }
            Ok(resp) => {
                *seen = resp.epoch;
                None
            }
        };
        if let Some(e) = failure {
            self.failed += 1;
            self.first_failure.get_or_insert(e);
        }
    }
}

/// Runs the open-loop query schedule at `rate` queries per second and
/// watches the published epoch, until `done` says the daemon has drained
/// and every request sent has been answered or given up on.
pub fn drive(
    handle: &ServeHandle,
    client: &mut Client,
    schedule: &Schedule,
    rate: f64,
    sample_rss: bool,
    done: &dyn Fn() -> bool,
) -> DriveLog {
    let mut log = DriveLog::default();
    let interval = Duration::from_secs_f64(1.0 / rate);
    let from_due = client.timed_from_due();
    let t0 = Instant::now();
    let mut last_epoch = handle.epoch();
    let mut answered_epochs = Vec::new();
    let mut next_rss = t0;
    let mut sent = 0u32;
    loop {
        let now = Instant::now();
        let epoch = handle.epoch();
        if epoch > last_epoch {
            log.epochs.push((epoch, now));
            last_epoch = epoch;
        }
        let drained = done();
        if drained && client.outstanding() == 0 {
            // One last look: the final publish precedes the drain.
            let epoch = handle.epoch();
            if epoch > last_epoch {
                log.epochs.push((epoch, Instant::now()));
            }
            return log;
        }
        if sample_rss && now >= next_rss {
            if let Some(rss) = crate::procfs::rss_mib() {
                let peak = log.sampled_peak_rss_mib.get_or_insert(rss);
                *peak = peak.max(rss);
            }
            next_rss = now + RSS_SAMPLE_EVERY;
        }
        let mut due = t0 + interval * sent;
        if !drained && now >= due {
            client.submit(sent as usize, schedule.get(sent as usize), due);
            sent += 1;
            due = t0 + interval * sent;
        }
        let pause = if drained { EPOCH_POLL } else { due.saturating_duration_since(now) };
        for c in client.wait(pause.min(EPOCH_POLL)) {
            let q = schedule.get(c.index);
            log.record(c, q, from_due, &mut answered_epochs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrr_types::{Asn, TracerouteId};

    fn keys() -> QueryKeys {
        QueryKeys {
            ids: (1..=50).map(TracerouteId).collect(),
            prefixes: vec!["10.0.0.0/16".parse().expect("prefix")],
            asns: vec![Asn(7), Asn(8)],
        }
    }

    #[test]
    fn schedule_mix_is_exact_per_block_and_seed_keyed() {
        let s = Schedule::new(3, &keys(), 10).expect("schedule");
        assert_eq!(s.queries().len(), 200);
        for block in s.queries().chunks(20) {
            let count = |k: &str| block.iter().filter(|q| kind_of(q) == k).count();
            assert_eq!(count("is_stale"), 14);
            assert_eq!(count("refresh_plan"), 2);
            assert_eq!(count("prefix_summary"), 2);
            assert_eq!(count("as_summary"), 1);
            assert_eq!(count("corpus_summary"), 1);
            let plans: Vec<usize> =
                (0..20).filter(|&i| kind_of(&block[i]) == "refresh_plan").collect();
            assert_eq!(plans.iter().map(|i| i % 2).sum::<usize>(), 1, "one plan per connection");
        }
        assert_eq!(s.queries(), Schedule::new(3, &keys(), 10).expect("schedule").queries());
        assert_ne!(s.queries(), Schedule::new(4, &keys(), 10).expect("schedule").queries());
        assert_eq!(s.get(200), s.get(0), "the schedule cycles");
        assert!(Schedule::new(3, &QueryKeys::default(), 1).is_err());
    }

    #[test]
    fn first_seen_finds_the_first_epoch_at_or_past_the_target() {
        let t = Instant::now();
        let at = |ms| t + Duration::from_millis(ms);
        let log =
            DriveLog { epochs: vec![(1, at(1)), (2, at(2)), (5, at(5))], ..DriveLog::default() };
        assert_eq!(log.first_seen(1), Some(at(1)));
        assert_eq!(log.first_seen(3), Some(at(5)), "epochs may be skipped");
        assert_eq!(log.first_seen(5), Some(at(5)));
        assert_eq!(log.first_seen(6), None);
    }
}
