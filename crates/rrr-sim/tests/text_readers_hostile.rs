//! Hostile input for both text readers. Every `tests/scenarios/*.ron` file
//! and a set of wire lines from `encode_request`/`encode_response` are
//! mutated — a byte flipped, the text cut short, a byte inserted, or a
//! flood of an opening bracket — and fed to `serde_json::from_str` and
//! `ron::parse` on a thread with the default stack, the stack a TCP
//! handler has. Each call returns `Ok` or an error pointing into its
//! input: a panic, or a stack overflow past the nesting cap, fails here.

use proptest::prelude::*;
use rrr_core::{Freshness, FreshnessSummary, PrefixSummary, RefreshPlan};
use rrr_serve::wire::{encode_request, encode_response};
use rrr_serve::{QueryResponse, ResponseBody, StalenessQuery};
use rrr_sim::ron;
use rrr_types::{Asn, Timestamp, TracerouteId};

fn scenario_texts() -> Vec<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/scenarios");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("scenario corpus")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "ron"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 20, "the scenario corpus went missing: {paths:?}");
    paths.iter().map(|p| std::fs::read_to_string(p).expect("scenario text")).collect()
}

fn wire_lines() -> Vec<String> {
    let prefix = "10.0.0.0/16".parse().expect("prefix");
    let queries = [
        StalenessQuery::IsStale(TracerouteId(12)),
        StalenessQuery::RefreshPlan { budget: 4 },
        StalenessQuery::PrefixSummary(prefix),
        StalenessQuery::AsSummary(Asn(101)),
        StalenessQuery::CorpusSummary,
        StalenessQuery::MonitorStats,
        StalenessQuery::Metrics,
    ];
    let freshness = FreshnessSummary { fresh: 3, stale: 1, unknown: 0 };
    let bodies = [
        ResponseBody::Freshness(Some(Freshness::Stale { since: Timestamp(900), asserting: 2 })),
        ResponseBody::Freshness(None),
        ResponseBody::Plan(RefreshPlan { refresh: vec![TracerouteId(1), TracerouteId(7)] }),
        ResponseBody::Prefix(PrefixSummary {
            prefix,
            traceroutes: vec![TracerouteId(4)],
            freshness,
        }),
        ResponseBody::Metrics("# TYPE a counter\na{x=\"µ\"} 1\n".to_string()),
    ];
    let mut lines: Vec<String> = queries.iter().map(encode_request).collect();
    lines.extend(bodies.into_iter().map(|body| encode_response(&QueryResponse { epoch: 9, body })));
    lines
}

/// Openers whose floods nest: arrays in both readers, objects in JSON,
/// structs in RON — and a bare `(`, which nests in neither.
const FLOODS: [&str; 4] = ["[", "{\"a\":", "A(a:", "("];

/// One mutation of `text`: flip a byte, cut the text at `at`, insert
/// `byte`, or insert `n` copies of a flood opener. Invalid UTF-8 is
/// replaced, as a reader of `&str` only ever sees text.
fn mutate(text: &str, kind: u8, at: usize, byte: u8, n: usize) -> String {
    let mut b = text.as_bytes().to_vec();
    let at = at % (b.len() + 1);
    match kind % 4 {
        0 if at < b.len() => b[at] ^= byte.max(1),
        0 | 1 => b.truncate(at),
        2 => b.insert(at, byte),
        _ => {
            let flood = FLOODS[byte as usize % FLOODS.len()].repeat(n);
            b.splice(at..at, flood.into_bytes());
        }
    }
    String::from_utf8_lossy(&b).into_owned()
}

fn check(what: &str, text: &str, result: Result<serde_json::Value, serde_json::Error>) {
    if let Err(e) = result {
        assert!(e.offset <= text.len() && !e.message.is_empty(), "{what}: {e} in {text:?}");
    }
}

/// Reads every input with both readers on a fresh default-stack thread.
fn read_all(inputs: Vec<String>) {
    std::thread::spawn(move || {
        for text in &inputs {
            check("JSON", text, serde_json::from_str(text));
            check("RON", text, ron::parse(text));
        }
    })
    .join()
    .expect("a reader panicked or its thread died");
}

#[test]
fn the_unmutated_inputs_read_cleanly() {
    for text in scenario_texts() {
        ron::parse(&text).unwrap_or_else(|e| panic!("{e} in {text}"));
    }
    for line in wire_lines() {
        serde_json::from_str(&line).unwrap_or_else(|e| panic!("{e} in {line}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutated_inputs_get_ok_or_a_typed_error(
        kind in any::<u8>(),
        at in any::<u32>(),
        byte in any::<u8>(),
        n in 1usize..70_000,
    ) {
        let inputs: Vec<String> = scenario_texts()
            .iter()
            .chain(&wire_lines())
            .map(|text| mutate(text, kind, at as usize, byte, n))
            .collect();
        read_all(inputs);
    }
}
