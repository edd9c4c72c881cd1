//! Smoke-runs the `rrr-serve` daemon over one simulator scenario: the
//! scripted (and faulted) stream is split across N concurrent feeds, the
//! live [`rrr_serve::ServeHandle`] — and optionally the line-delimited-JSON
//! TCP front end — is hammered with mixed queries while ingestion runs,
//! and afterwards every published snapshot is checked bit-identical to a
//! serial batch replay. Exits nonzero on any violation: non-monotone
//! epochs (in-process or over the wire), a diverging snapshot, a wrong
//! round count, or an unclean shutdown.
//!
//! With `--metrics` the daemon runs with the `rrr-obs` registry enabled:
//! after the drain, the live `metrics` query is issued (in-process, and
//! over the wire when `--tcp` is also given), the Prometheus-style
//! exposition is parsed strictly, and zero-valued feed-ingest,
//! window-close, or snapshot-publication counters fail the run.
//!
//! ```text
//! serve_run [--file PATH] [--feeds N] [--queries N] [--threads N] [--tcp] [--metrics]
//! ```

use rrr_core::{Metrics, Query};
use rrr_serve::{
    replay_reference, split_rounds, wire, Daemon, DaemonConfig, Engine, FeedSource, ResponseBody,
    ScriptedFeed, StalenessQuery,
};
use rrr_sim::{feed_batches, load_scenario_or_artifact, snapshots_equal};
use rrr_types::{Asn, Prefix, TracerouteId};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    file: PathBuf,
    feeds: usize,
    queries: u64,
    threads: usize,
    tcp: bool,
    metrics: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: serve_run [--file PATH] [--feeds N] [--queries N] [--threads N] [--tcp] [--metrics]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        file: PathBuf::from("tests/scenarios/17_serve_feed_interleave.ron"),
        feeds: 2,
        queries: 1000,
        threads: 1,
        tcp: false,
        metrics: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        let number = |name: &str, raw: String| -> u64 {
            raw.parse().unwrap_or_else(|_| {
                eprintln!("{name} takes a number");
                usage()
            })
        };
        match flag.as_str() {
            "--file" => args.file = PathBuf::from(value("--file")),
            "--feeds" => args.feeds = number("--feeds", value("--feeds")).max(1) as usize,
            "--queries" => args.queries = number("--queries", value("--queries")),
            "--threads" => args.threads = number("--threads", value("--threads")).max(1) as usize,
            "--tcp" => args.tcp = true,
            "--metrics" => args.metrics = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    args
}

/// A splitmix-style generator so the query mix is a pure function of the
/// scenario seed.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Strictly parses a Prometheus-style text exposition into full-name →
/// value samples. Every line must be a well-formed `# TYPE` comment or a
/// `name[{labels}] value` sample; anything else is an error.
fn parse_exposition(text: &str) -> Result<std::collections::BTreeMap<String, f64>, String> {
    let mut samples = std::collections::BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let mut words = rest.split_whitespace();
            if words.next() != Some("TYPE") {
                return Err(format!("exposition line {i}: unknown comment {line:?}"));
            }
            let (Some(_name), Some(kind), None) = (words.next(), words.next(), words.next()) else {
                return Err(format!("exposition line {i}: malformed TYPE comment {line:?}"));
            };
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                return Err(format!("exposition line {i}: unknown metric kind {kind:?}"));
            }
            continue;
        }
        // Labels may contain spaces inside quoted values, so split at the
        // last space instead of the first.
        let Some(split) = line.rfind(' ') else {
            return Err(format!("exposition line {i}: no value in {line:?}"));
        };
        let (name, value) = line.split_at(split);
        let value: f64 = value
            .trim()
            .parse()
            .map_err(|_| format!("exposition line {i}: bad value in {line:?}"))?;
        let name = name.trim();
        if name.is_empty() || !name.chars().next().is_some_and(|c| c.is_ascii_alphabetic()) {
            return Err(format!("exposition line {i}: bad metric name in {line:?}"));
        }
        samples.insert(name.to_string(), value);
    }
    Ok(samples)
}

/// Sums every series of the family `base` (the name before any `{`).
fn family_sum(samples: &std::collections::BTreeMap<String, f64>, base: &str) -> f64 {
    samples
        .iter()
        .filter(|(k, _)| k.as_str() == base || k.starts_with(&format!("{base}{{")))
        .map(|(_, v)| v)
        .sum()
}

/// The smoke gate on a parsed exposition: the counters a healthy drained
/// daemon cannot have left at zero.
fn check_exposition(samples: &std::collections::BTreeMap<String, f64>) -> Vec<String> {
    let mut failures = Vec::new();
    for family in [
        "rrr_serve_feed_batches_total",
        "rrr_serve_feed_updates_total",
        "rrr_serve_rounds_total",
        "rrr_serve_updates_total",
        "rrr_serve_snapshots_published_total",
        "rrr_detector_bgp_windows_closed_total",
        "rrr_detector_steps_total",
    ] {
        if family_sum(samples, family) <= 0.0 {
            failures.push(format!("metrics: counter family {family} is zero after the drain"));
        }
    }
    failures
}

/// Extracts the stamped epoch from a wire response line.
fn wire_epoch(line: &str) -> Result<u64, String> {
    wire::decode_response(line).map(|r| r.epoch).map_err(|e| e.to_string())
}

/// Extracts the exposition text from a wire `metrics` response line.
fn wire_exposition(line: &str) -> Result<String, String> {
    match wire::decode_response(line).map_err(|e| e.to_string())?.body {
        ResponseBody::Metrics(text) => Ok(text),
        other => Err(format!("response body is not a metrics body: {other:?}")),
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let sc = match load_scenario_or_artifact(&args.file) {
        Ok(sc) => sc,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let (world, mut steps) = rrr_sim::SimWorld::from_scenario(&sc);
    for f in &sc.faults {
        f.apply_stream(&mut steps, sc.seed);
    }
    let batches = feed_batches(&steps);
    let (_, ref_snaps) = replay_reference(world.build(args.threads), &batches);

    let sources: Vec<Box<dyn FeedSource>> = split_rounds(&batches, args.feeds)
        .into_iter()
        .map(|b| Box::new(ScriptedFeed::new(b)) as Box<dyn FeedSource>)
        .collect();
    let metrics = if args.metrics { Metrics::enabled() } else { Metrics::disabled() };
    let daemon = Daemon::spawn(
        Engine::Plain(world.build(args.threads)),
        sources,
        DaemonConfig { record_snapshots: true, metrics: metrics.clone() },
    );
    let handle = daemon.handle();

    let mut server = None;
    let mut client = None;
    if args.tcp {
        match rrr_serve::TcpServer::bind("127.0.0.1:0", handle.clone()) {
            Ok(s) => {
                match TcpStream::connect(s.addr()) {
                    Ok(stream) => {
                        let reader = match stream.try_clone() {
                            Ok(r) => BufReader::new(r),
                            Err(e) => {
                                eprintln!("error: cannot clone TCP stream: {e}");
                                return ExitCode::from(2);
                            }
                        };
                        client = Some((stream, reader));
                    }
                    Err(e) => {
                        eprintln!("error: cannot connect to {}: {e}", s.addr());
                        return ExitCode::from(2);
                    }
                }
                server = Some(s);
            }
            Err(e) => {
                eprintln!("error: cannot bind TCP server: {e}");
                return ExitCode::from(2);
            }
        }
    }

    // Query load, concurrent with live ingestion on the daemon's threads.
    let mut failures: Vec<String> = Vec::new();
    let mut rng = sc.seed ^ 0xD6E8_FEB8_6659_FD93;
    let mut last_epoch = 0u64;
    let mut tcp_epoch = 0u64;
    let mut tcp_queries = 0u64;
    let started = Instant::now();
    for i in 0..args.queries {
        let snap = handle.snapshot();
        let q = match mix(&mut rng) % 6 {
            0 => {
                let ids = snap.ids();
                let id = if ids.is_empty() {
                    TracerouteId(mix(&mut rng) % 64)
                } else {
                    ids[(mix(&mut rng) as usize) % ids.len()]
                };
                StalenessQuery::IsStale(id)
            }
            1 => StalenessQuery::RefreshPlan { budget: (mix(&mut rng) % 8) as usize },
            2 => {
                let prefixes: Vec<Prefix> = snap.prefixes().collect();
                let p = if prefixes.is_empty() {
                    "10.0.0.0/16".parse().expect("literal prefix parses")
                } else {
                    prefixes[(mix(&mut rng) as usize) % prefixes.len()]
                };
                StalenessQuery::PrefixSummary(p)
            }
            3 => {
                let asns: Vec<Asn> = snap.asns().collect();
                let a = if asns.is_empty() {
                    Asn(100 + (mix(&mut rng) % 16) as u32)
                } else {
                    asns[(mix(&mut rng) as usize) % asns.len()]
                };
                StalenessQuery::AsSummary(a)
            }
            4 => StalenessQuery::CorpusSummary,
            _ => StalenessQuery::MonitorStats,
        };
        let resp = handle.query(&q);
        if resp.epoch < last_epoch {
            failures.push(format!(
                "in-process epoch went backwards: {} then {} at query {i}",
                last_epoch, resp.epoch
            ));
        }
        last_epoch = last_epoch.max(resp.epoch);
        if let Some((stream, reader)) = client.as_mut() {
            if i % 5 == 0 {
                tcp_queries += 1;
                let mut line = wire::encode_request(&q);
                line.push('\n');
                let sent = stream.write_all(line.as_bytes()).and_then(|()| {
                    let mut buf = String::new();
                    reader.read_line(&mut buf).map(|_| buf)
                });
                match sent {
                    Ok(buf) => match wire_epoch(buf.trim_end()) {
                        Ok(e) => {
                            if e < tcp_epoch {
                                failures.push(format!(
                                    "TCP epoch went backwards: {tcp_epoch} then {e} at query {i}"
                                ));
                            }
                            tcp_epoch = tcp_epoch.max(e);
                        }
                        Err(e) => failures.push(format!("bad TCP response at query {i}: {e}")),
                    },
                    Err(e) => failures.push(format!("TCP round trip failed at query {i}: {e}")),
                }
            }
        }
    }
    let query_secs = started.elapsed().as_secs_f64();

    // Join before tearing down the TCP front end: the handle (and the
    // server) keep answering from the last published snapshot, so the
    // post-drain metrics query below sees final counter values.
    let report = match daemon.join() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("FAIL {}: daemon did not shut down cleanly: {e}", sc.name);
            return ExitCode::FAILURE;
        }
    };

    let mut metrics_queried = false;
    if args.metrics {
        // In-process: the typed metrics query must return the exposition.
        match handle.query(&StalenessQuery::Metrics).body {
            rrr_serve::ResponseBody::Metrics(text) => match parse_exposition(&text) {
                Ok(samples) => failures.extend(check_exposition(&samples)),
                Err(e) => failures.push(format!("metrics: in-process exposition: {e}")),
            },
            other => failures.push(format!("metrics query answered {other:?}")),
        }
        // Over the wire: same query, same gate, through the JSON framing.
        if let Some((stream, reader)) = client.as_mut() {
            metrics_queried = true;
            let mut line = wire::encode_request(&StalenessQuery::Metrics);
            line.push('\n');
            let sent = stream.write_all(line.as_bytes()).and_then(|()| {
                let mut buf = String::new();
                reader.read_line(&mut buf).map(|_| buf)
            });
            match sent.map_err(|e| e.to_string()).and_then(|buf| wire_exposition(buf.trim_end())) {
                Ok(text) => match parse_exposition(&text) {
                    Ok(samples) => failures.extend(check_exposition(&samples)),
                    Err(e) => failures.push(format!("metrics: TCP exposition: {e}")),
                },
                Err(e) => failures.push(format!("metrics: TCP round trip: {e}")),
            }
        }
    }

    drop(client);
    if let Some(mut s) = server.take() {
        s.shutdown();
    }

    if report.rounds != steps.len() as u64 {
        failures.push(format!(
            "daemon stepped {} merged rounds, expected {}",
            report.rounds,
            steps.len()
        ));
    }
    if report.snapshots.len() != ref_snaps.len() {
        failures.push(format!(
            "daemon published {} snapshots, serial replay captured {}",
            report.snapshots.len(),
            ref_snaps.len()
        ));
    }
    let mut prev = None;
    for (got, want) in report.snapshots.iter().zip(&ref_snaps) {
        if let Some(p) = prev {
            if got.epoch() <= p {
                failures.push(format!("published epochs are not strictly monotone at {p}"));
            }
        }
        prev = Some(got.epoch());
        if let Err(e) = snapshots_equal(got, want) {
            failures.push(format!("snapshot diverges from serial replay: {e}"));
        }
    }
    if let Some(last) = report.snapshots.last() {
        if handle.epoch() != last.epoch() {
            failures.push(format!(
                "handle serves epoch {} after shutdown, last published was {}",
                handle.epoch(),
                last.epoch()
            ));
        }
    }

    println!(
        "scenario {} feeds={} threads={} rounds={} updates={} public={} epochs={}",
        sc.name,
        args.feeds,
        args.threads,
        report.rounds,
        report.updates,
        report.public,
        report.snapshots.len()
    );
    println!(
        "queries {} in-process ({:.0}/s), {} over TCP, final epoch {}, metrics {}",
        args.queries,
        args.queries as f64 / query_secs.max(1e-9),
        tcp_queries,
        handle.epoch(),
        match (args.metrics, metrics_queried) {
            (false, _) => "off",
            (true, false) => "checked in-process",
            (true, true) => "checked in-process and over TCP",
        }
    );
    if failures.is_empty() {
        println!("PASS {}", sc.name);
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            println!("FAIL {}: {f}", sc.name);
        }
        ExitCode::FAILURE
    }
}
