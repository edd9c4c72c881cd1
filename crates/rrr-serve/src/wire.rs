//! The line-delimited-JSON wire protocol: one request object per line in,
//! one response object per line out.
//!
//! Lines are read with the vendored `serde_json` shim's reader into
//! [`serde_json::Value`] trees and written from `Value` trees built by
//! hand; this module holds only the protocol on top. Both directions are
//! exercised by round-trip tests. A wire integer is accepted only below
//! 2^53, where an `f64` holds it exactly, so two ids never decode alike.
//!
//! Clients get the mirror pair: [`encode_request`] (the inverse of
//! [`decode_request`]) and [`decode_response`] (the inverse of
//! [`encode_response`]), so nothing outside this module hand-assembles
//! or hand-parses wire lines.
//!
//! ## Requests
//!
//! ```json
//! {"query": "is_stale", "id": 12}
//! {"query": "refresh_plan", "budget": 4}
//! {"query": "prefix_summary", "prefix": "10.0.0.0/16"}
//! {"query": "as_summary", "asn": 101}
//! {"query": "corpus_summary"}
//! {"query": "monitor_stats"}
//! ```
//!
//! ## Responses
//!
//! Every success is `{"epoch": E, "body": {"kind": ..., ...}}`; every
//! failure is `{"error": "..."}` (the connection stays open — a bad line
//! only fails that line).

use crate::query::{QueryResponse, ResponseBody, StalenessQuery};
use rrr_core::{
    AsSummary, CorpusSummary, FamilyStats, Freshness, FreshnessSummary, MonitorStats,
    PrefixSummary, RefreshPlan,
};
use rrr_types::{Asn, Error, Timestamp, TracerouteId};
use serde_json::{Map, Value};

/// Parses one JSON document with the shim's reader ([`serde_json::from_str`],
/// nesting capped at [`serde_json::MAX_DEPTH`]); its error becomes a
/// protocol error.
pub fn parse_json(input: &str) -> Result<Value, Error> {
    serde_json::from_str(input).map_err(|e| Error::protocol(e.to_string()))
}

// ---------------------------------------------------------------------------
// Request decoding
// ---------------------------------------------------------------------------

/// A wire integer: exact in an `f64`, so no two accepted values alias.
fn get_u64(map: &Map<String, Value>, field: &str) -> Result<u64, Error> {
    let v = map.get(field).ok_or_else(|| Error::protocol(format!("missing field '{field}'")))?;
    v.as_u64()
        .ok_or_else(|| Error::protocol(format!("field '{field}' must be an integer in 0..2^53")))
}

fn get_str<'m>(map: &'m Map<String, Value>, field: &str) -> Result<&'m str, Error> {
    match map.get(field) {
        Some(Value::String(s)) => Ok(s),
        Some(_) => Err(Error::protocol(format!("field '{field}' must be a string"))),
        None => Err(Error::protocol(format!("missing field '{field}'"))),
    }
}

/// Decodes one request line into a typed query.
pub fn decode_request(line: &str) -> Result<StalenessQuery, Error> {
    let v = parse_json(line)?;
    let Value::Object(map) = v else {
        return Err(Error::protocol("request must be a JSON object"));
    };
    match get_str(&map, "query")? {
        "is_stale" => Ok(StalenessQuery::IsStale(TracerouteId(get_u64(&map, "id")?))),
        "refresh_plan" => {
            Ok(StalenessQuery::RefreshPlan { budget: get_u64(&map, "budget")? as usize })
        }
        "prefix_summary" => {
            let text = get_str(&map, "prefix")?;
            let prefix =
                text.parse().map_err(|e| Error::protocol(format!("field 'prefix': {e}")))?;
            Ok(StalenessQuery::PrefixSummary(prefix))
        }
        "as_summary" => Ok(StalenessQuery::AsSummary(Asn(u32::try_from(get_u64(&map, "asn")?)
            .map_err(|_| Error::protocol("field 'asn' out of range"))?))),
        "corpus_summary" => Ok(StalenessQuery::CorpusSummary),
        "monitor_stats" => Ok(StalenessQuery::MonitorStats),
        "metrics" => Ok(StalenessQuery::Metrics),
        other => Err(Error::protocol(format!("unknown query '{other}'"))),
    }
}

// ---------------------------------------------------------------------------
// Request encoding (clients)
// ---------------------------------------------------------------------------

/// Encodes one request as a single JSON line (no trailing newline): the
/// exact inverse of [`decode_request`], so clients and test harnesses
/// never hand-assemble wire strings.
pub fn encode_request(q: &StalenessQuery) -> String {
    let tag = |name: &'static str| ("query", Value::String(name.into()));
    let fields: Vec<(&'static str, Value)> = match q {
        StalenessQuery::IsStale(id) => vec![tag("is_stale"), ("id", num(id.0))],
        StalenessQuery::RefreshPlan { budget } => {
            vec![tag("refresh_plan"), ("budget", num(*budget as u64))]
        }
        StalenessQuery::PrefixSummary(p) => {
            vec![tag("prefix_summary"), ("prefix", Value::String(p.to_string()))]
        }
        StalenessQuery::AsSummary(a) => vec![tag("as_summary"), ("asn", num(a.0 as u64))],
        StalenessQuery::CorpusSummary => vec![tag("corpus_summary")],
        StalenessQuery::MonitorStats => vec![tag("monitor_stats")],
        StalenessQuery::Metrics => vec![tag("metrics")],
    };
    serde_json::to_string(&obj(fields)).expect("shim serialization is infallible")
}

// ---------------------------------------------------------------------------
// Response decoding (clients)
// ---------------------------------------------------------------------------

fn get_obj<'m>(map: &'m Map<String, Value>, field: &str) -> Result<&'m Map<String, Value>, Error> {
    match map.get(field) {
        Some(Value::Object(m)) => Ok(m),
        Some(_) => Err(Error::protocol(format!("field '{field}' must be an object"))),
        None => Err(Error::protocol(format!("missing field '{field}'"))),
    }
}

fn get_ids(map: &Map<String, Value>, field: &str) -> Result<Vec<TracerouteId>, Error> {
    match map.get(field) {
        Some(Value::Array(items)) => items
            .iter()
            .map(|v| {
                v.as_u64().map(TracerouteId).ok_or_else(|| {
                    Error::protocol(format!("field '{field}' must hold integers in 0..2^53"))
                })
            })
            .collect(),
        Some(_) => Err(Error::protocol(format!("field '{field}' must be an array"))),
        None => Err(Error::protocol(format!("missing field '{field}'"))),
    }
}

fn summary_from(map: &Map<String, Value>) -> Result<FreshnessSummary, Error> {
    Ok(FreshnessSummary {
        fresh: get_u64(map, "fresh")? as usize,
        stale: get_u64(map, "stale")? as usize,
        unknown: get_u64(map, "unknown")? as usize,
    })
}

fn family_from(map: &Map<String, Value>, field: &str) -> Result<FamilyStats, Error> {
    let m = get_obj(map, field)?;
    Ok(FamilyStats {
        total: get_u64(m, "total")? as usize,
        ready: get_u64(m, "ready")? as usize,
        gave_up: get_u64(m, "gave_up")? as usize,
    })
}

fn freshness_from(map: &Map<String, Value>) -> Result<Freshness, Error> {
    match get_str(map, "state")? {
        "fresh" => Ok(Freshness::Fresh),
        "unknown" => Ok(Freshness::Unknown),
        "stale" => Ok(Freshness::Stale {
            since: Timestamp(get_u64(map, "since")?),
            asserting: get_u64(map, "asserting")? as usize,
        }),
        other => Err(Error::protocol(format!("unknown freshness state '{other}'"))),
    }
}

/// Decodes one response line into the typed answer: the exact inverse of
/// [`encode_response`]. A server-side `{"error": ...}` line decodes to
/// `Err` carrying the server's message.
pub fn decode_response(line: &str) -> Result<QueryResponse, Error> {
    let v = parse_json(line)?;
    let Value::Object(map) = v else {
        return Err(Error::protocol("response must be a JSON object"));
    };
    if let Some(Value::String(e)) = map.get("error") {
        return Err(Error::protocol(format!("server error: {e}")));
    }
    let epoch = get_u64(&map, "epoch")?;
    let body = get_obj(&map, "body")?;
    let body = match get_str(body, "kind")? {
        "freshness" => ResponseBody::Freshness(match body.get("freshness") {
            Some(Value::Null) => None,
            Some(Value::Object(f)) => Some(freshness_from(f)?),
            _ => return Err(Error::protocol("field 'freshness' must be an object or null")),
        }),
        "plan" => ResponseBody::Plan(RefreshPlan { refresh: get_ids(body, "refresh")? }),
        "prefix_summary" => {
            let text = get_str(body, "prefix")?;
            ResponseBody::Prefix(PrefixSummary {
                prefix: text
                    .parse()
                    .map_err(|e| Error::protocol(format!("field 'prefix': {e}")))?,
                traceroutes: get_ids(body, "traceroutes")?,
                freshness: summary_from(body)?,
            })
        }
        "as_summary" => ResponseBody::As(AsSummary {
            asn: Asn(u32::try_from(get_u64(body, "asn")?)
                .map_err(|_| Error::protocol("field 'asn' out of range"))?),
            traceroutes: get_ids(body, "traceroutes")?,
            freshness: summary_from(body)?,
        }),
        "corpus_summary" => ResponseBody::Corpus(CorpusSummary {
            entries: get_u64(body, "entries")? as usize,
            freshness: summary_from(body)?,
            signals_logged: get_u64(body, "signals_logged")? as usize,
        }),
        "monitor_stats" => ResponseBody::Monitors(MonitorStats {
            subpaths: family_from(body, "subpaths")?,
            borders: family_from(body, "borders")?,
        }),
        "metrics" => ResponseBody::Metrics(get_str(body, "exposition")?.to_string()),
        other => Err(Error::protocol(format!("unknown body kind '{other}'")))?,
    };
    Ok(QueryResponse { epoch, body })
}

// ---------------------------------------------------------------------------
// Response encoding
// ---------------------------------------------------------------------------

fn num(n: u64) -> Value {
    Value::Number(n as f64)
}

fn obj(fields: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn ids(v: &[TracerouteId]) -> Value {
    Value::Array(v.iter().map(|id| num(id.0)).collect())
}

fn freshness_value(f: &Freshness) -> Value {
    match f {
        Freshness::Fresh => obj([("state", Value::String("fresh".into()))]),
        Freshness::Stale { since, asserting } => obj([
            ("state", Value::String("stale".into())),
            ("since", num(since.0)),
            ("asserting", num(*asserting as u64)),
        ]),
        Freshness::Unknown => obj([("state", Value::String("unknown".into()))]),
    }
}

fn summary_fields(s: &FreshnessSummary) -> [(&'static str, Value); 3] {
    [
        ("fresh", num(s.fresh as u64)),
        ("stale", num(s.stale as u64)),
        ("unknown", num(s.unknown as u64)),
    ]
}

fn family_value(f: &FamilyStats) -> Value {
    obj([
        ("total", num(f.total as u64)),
        ("ready", num(f.ready as u64)),
        ("gave_up", num(f.gave_up as u64)),
    ])
}

fn body_value(body: &ResponseBody) -> Value {
    match body {
        ResponseBody::Freshness(f) => obj([
            ("kind", Value::String("freshness".into())),
            ("freshness", f.as_ref().map(freshness_value).unwrap_or(Value::Null)),
        ]),
        ResponseBody::Plan(RefreshPlan { refresh }) => {
            obj([("kind", Value::String("plan".into())), ("refresh", ids(refresh))])
        }
        ResponseBody::Prefix(PrefixSummary { prefix, traceroutes, freshness }) => {
            let mut fields = vec![
                ("kind", Value::String("prefix_summary".into())),
                ("prefix", Value::String(prefix.to_string())),
                ("traceroutes", ids(traceroutes)),
            ];
            fields.extend(summary_fields(freshness));
            obj(fields)
        }
        ResponseBody::As(AsSummary { asn, traceroutes, freshness }) => {
            let mut fields = vec![
                ("kind", Value::String("as_summary".into())),
                ("asn", num(asn.0 as u64)),
                ("traceroutes", ids(traceroutes)),
            ];
            fields.extend(summary_fields(freshness));
            obj(fields)
        }
        ResponseBody::Corpus(CorpusSummary { entries, freshness, signals_logged }) => {
            let mut fields = vec![
                ("kind", Value::String("corpus_summary".into())),
                ("entries", num(*entries as u64)),
            ];
            fields.extend(summary_fields(freshness));
            fields.push(("signals_logged", num(*signals_logged as u64)));
            obj(fields)
        }
        ResponseBody::Monitors(MonitorStats { subpaths, borders }) => obj([
            ("kind", Value::String("monitor_stats".into())),
            ("subpaths", family_value(subpaths)),
            ("borders", family_value(borders)),
        ]),
        // The exposition text contains newlines; the shim escapes them as
        // `\n`, so the response still fits on one wire line.
        ResponseBody::Metrics(text) => obj([
            ("kind", Value::String("metrics".into())),
            ("exposition", Value::String(text.clone())),
        ]),
    }
}

/// Encodes one response as a single JSON line (no trailing newline).
pub fn encode_response(resp: &QueryResponse) -> String {
    serde_json::to_string(&obj([("epoch", num(resp.epoch)), ("body", body_value(&resp.body))]))
        .expect("shim serialization is infallible")
}

/// Encodes one error as a single JSON line (no trailing newline).
pub fn encode_error(err: &Error) -> String {
    serde_json::to_string(&obj([("error", Value::String(err.to_string()))]))
        .expect("shim serialization is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::MAX_DEPTH;

    #[test]
    fn nesting_is_capped_before_the_stack_is() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse_json(&nested(MAX_DEPTH)).is_ok());
        assert!(parse_json(&nested(MAX_DEPTH + 1)).is_err());
        let objects = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH + 1), "}".repeat(MAX_DEPTH + 1));
        assert!(parse_json(&objects).is_err());
        // Unclosed, on a thread with the default stack — what a TCP handler
        // runs on. Uncapped, this overflows it and aborts the process.
        let line = "[".repeat(65_000);
        let rejected = std::thread::spawn(move || parse_json(&line).is_err());
        assert!(rejected.join().expect("parser thread"));
    }

    #[test]
    fn decodes_every_query_shape() {
        assert_eq!(
            decode_request(r#"{"query":"is_stale","id":12}"#).expect("decode"),
            StalenessQuery::IsStale(TracerouteId(12))
        );
        assert_eq!(
            decode_request(r#"{"query":"refresh_plan","budget":4}"#).expect("decode"),
            StalenessQuery::RefreshPlan { budget: 4 }
        );
        assert_eq!(
            decode_request(r#"{"query":"prefix_summary","prefix":"10.0.0.0/16"}"#).expect("decode"),
            StalenessQuery::PrefixSummary("10.0.0.0/16".parse().expect("prefix"))
        );
        assert_eq!(
            decode_request(r#"{"query":"as_summary","asn":101}"#).expect("decode"),
            StalenessQuery::AsSummary(Asn(101))
        );
        assert_eq!(
            decode_request(r#"{"query":"corpus_summary"}"#).expect("decode"),
            StalenessQuery::CorpusSummary
        );
        assert_eq!(
            decode_request(r#"{"query":"monitor_stats"}"#).expect("decode"),
            StalenessQuery::MonitorStats
        );
        assert_eq!(
            decode_request(r#"{"query":"metrics"}"#).expect("decode"),
            StalenessQuery::Metrics
        );
        assert!(decode_request(r#"{"query":"nope"}"#).is_err());
        assert!(decode_request(r#"{"query":"is_stale","id":-1}"#).is_err());
        assert!(decode_request("[]").is_err());
    }

    #[test]
    fn an_id_past_u64_is_refused_not_saturated() {
        // Cast with `as`, 1e300 used to decode to id u64::MAX.
        assert!(decode_request(r#"{"query":"is_stale","id":1e300}"#).is_err());
    }

    #[test]
    fn an_id_an_f64_cannot_hold_is_refused_not_rounded() {
        // 2^53 + 1 reads as the double 2^53 and used to decode to that id.
        assert!(decode_request(r#"{"query":"is_stale","id":9007199254740993}"#).is_err());
        assert!(decode_request(r#"{"query":"is_stale","id":9007199254740992}"#).is_err());
        assert_eq!(
            decode_request(r#"{"query":"is_stale","id":9007199254740991}"#).expect("exact"),
            StalenessQuery::IsStale(TracerouteId((1 << 53) - 1))
        );
    }

    #[test]
    fn a_repeated_field_is_refused_not_overwritten() {
        let e = decode_request(r#"{"query":"is_stale","id":1,"id":2}"#).expect_err("repeated");
        assert!(e.to_string().contains("duplicate key"), "{e}");
    }

    #[test]
    fn a_budget_past_two_to_the_53_is_refused() {
        assert!(decode_request(r#"{"query":"refresh_plan","budget":1e19}"#).is_err());
    }

    #[test]
    fn encodes_epoch_and_tagged_body() {
        let resp = QueryResponse {
            epoch: 7,
            body: ResponseBody::Freshness(Some(Freshness::Stale {
                since: Timestamp(900),
                asserting: 2,
            })),
        };
        let line = encode_response(&resp);
        assert!(!line.contains('\n'), "one line: {line}");
        // Parse the encoded line back and check the structure field by
        // field — exact whitespace is the shim's business, not ours.
        let Value::Object(top) = parse_json(&line).expect("self-parse") else {
            panic!("response must be an object: {line}")
        };
        assert_eq!(top.get("epoch"), Some(&Value::Number(7.0)));
        let Some(Value::Object(body)) = top.get("body") else { panic!("missing body: {line}") };
        assert_eq!(body.get("kind"), Some(&Value::String("freshness".into())));
        let Some(Value::Object(f)) = body.get("freshness") else {
            panic!("missing freshness: {line}")
        };
        assert_eq!(f.get("state"), Some(&Value::String("stale".into())));
        assert_eq!(f.get("since"), Some(&Value::Number(900.0)));
        assert_eq!(f.get("asserting"), Some(&Value::Number(2.0)));
        let err = encode_error(&Error::protocol("bad"));
        assert!(err.contains("\"error\""), "{err}");
    }

    #[test]
    fn metrics_exposition_survives_the_wire() {
        let resp = QueryResponse {
            epoch: 3,
            body: ResponseBody::Metrics("# TYPE a counter\na 1\nb{x=\"y\"} 2\n".into()),
        };
        let line = encode_response(&resp);
        assert!(!line.contains('\n'), "one line: {line}");
        let Value::Object(top) = parse_json(&line).expect("self-parse") else {
            panic!("response must be an object: {line}")
        };
        let Some(Value::Object(body)) = top.get("body") else { panic!("missing body: {line}") };
        assert_eq!(body.get("kind"), Some(&Value::String("metrics".into())));
        assert_eq!(
            body.get("exposition"),
            Some(&Value::String("# TYPE a counter\na 1\nb{x=\"y\"} 2\n".into()))
        );
    }
}
