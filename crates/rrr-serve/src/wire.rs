//! The line-delimited-JSON wire protocol: one request object per line in,
//! one response object per line out.
//!
//! The vendored `serde_json` shim only *emits* JSON, so the request side
//! is a small recursive-descent parser producing [`serde_json::Value`]
//! trees; the response side builds `Value` trees by hand and serializes
//! them with the shim. Both directions are exercised by round-trip tests.
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

// ---------------------------------------------------------------------------
// JSON parsing (requests)
// ---------------------------------------------------------------------------

/// Deepest nesting of arrays and objects [`parse_json`] accepts. The parser
/// recurses once per level, so without a cap a line of `[`s well inside
/// `MAX_REQUEST` overflows a handler thread's stack and aborts the process;
/// no document the workspace reads nests more than a few levels.
pub const MAX_DEPTH: usize = 64;

/// Parses one JSON document (object, array, or scalar). Trailing
/// whitespace is allowed; trailing garbage, and nesting past
/// [`MAX_DEPTH`], are errors.
pub fn parse_json(input: &str) -> Result<Value, Error> {
    let mut p = Parser { b: input.as_bytes(), i: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(Error::protocol(format!("trailing bytes at offset {}", p.i)));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn bump(&mut self) -> Result<u8, Error> {
        let c = self.peek().ok_or_else(|| Error::protocol("unexpected end of input"))?;
        self.i += 1;
        Ok(c)
    }

    fn expect(&mut self, want: u8) -> Result<(), Error> {
        let got = self.bump()?;
        if got != want {
            return Err(Error::protocol(format!(
                "expected '{}', found '{}' at offset {}",
                want as char,
                got as char,
                self.i - 1
            )));
        }
        Ok(())
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(Error::protocol(format!("invalid literal at offset {}", self.i)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek().ok_or_else(|| Error::protocol("unexpected end of input"))? {
            b'n' => self.literal("null", Value::Null),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'"' => Ok(Value::String(self.string()?)),
            c @ (b'[' | b'{') => {
                if self.depth == MAX_DEPTH {
                    return Err(Error::protocol(format!(
                        "nesting deeper than {MAX_DEPTH} at offset {}",
                        self.i
                    )));
                }
                self.depth += 1;
                let v = if c == b'[' { self.array() } else { self.object() };
                self.depth -= 1;
                v
            }
            b'-' | b'0'..=b'9' => self.number(),
            c => Err(Error::protocol(format!("unexpected '{}' at offset {}", c as char, self.i))),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump()? {
                b',' => continue,
                b']' => return Ok(Value::Array(items)),
                c => {
                    return Err(Error::protocol(format!(
                        "expected ',' or ']', found '{}'",
                        c as char
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut map = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.bump()? {
                b',' => continue,
                b'}' => return Ok(Value::Object(map)),
                c => {
                    return Err(Error::protocol(format!(
                        "expected ',' or '}}', found '{}'",
                        c as char
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump()? {
                b'"' => return Ok(out),
                b'\\' => match self.bump()? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{0008}'),
                    b'f' => out.push('\u{000C}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        if self.i + 4 > self.b.len() {
                            return Err(Error::protocol("truncated \\u escape"));
                        }
                        let hex = std::str::from_utf8(&self.b[self.i..self.i + 4])
                            .map_err(|_| Error::protocol("invalid \\u escape"))?;
                        let cp = u32::from_str_radix(hex, 16)
                            .map_err(|_| Error::protocol("invalid \\u escape"))?;
                        self.i += 4;
                        // BMP only; surrogate pairs are not part of this
                        // protocol's vocabulary.
                        out.push(
                            char::from_u32(cp)
                                .ok_or_else(|| Error::protocol("invalid \\u code point"))?,
                        );
                    }
                    c => return Err(Error::protocol(format!("invalid escape '\\{}'", c as char))),
                },
                // Multi-byte UTF-8: pass the raw bytes through. We sliced
                // from a &str, so the sequence is valid by construction.
                c if c < 0x80 => out.push(c as char),
                c => {
                    let start = self.i - 1;
                    let len = if c >= 0xF0 {
                        4
                    } else if c >= 0xE0 {
                        3
                    } else {
                        2
                    };
                    if start + len > self.b.len() {
                        return Err(Error::protocol("truncated UTF-8 sequence"));
                    }
                    out.push_str(
                        std::str::from_utf8(&self.b[start..start + len])
                            .map_err(|_| Error::protocol("invalid UTF-8 in string"))?,
                    );
                    self.i = start + len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).expect("ascii digits");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| Error::protocol(format!("invalid number '{text}'")))
    }
}

// ---------------------------------------------------------------------------
// Request decoding
// ---------------------------------------------------------------------------

fn get_u64(map: &Map<String, Value>, field: &str) -> Result<u64, Error> {
    match map.get(field) {
        Some(Value::Number(n)) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
        Some(_) => Err(Error::protocol(format!("field '{field}' must be a non-negative integer"))),
        None => Err(Error::protocol(format!("missing field '{field}'"))),
    }
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
            .map(|v| match v {
                Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(TracerouteId(*n as u64)),
                _ => {
                    Err(Error::protocol(format!("field '{field}' must hold non-negative integers")))
                }
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

    #[test]
    fn parses_round_trippable_documents() {
        for text in [
            "null",
            "true",
            "[1,2.5,-3]",
            r#"{"a":[{"b":"c"},null],"d":false}"#,
            r#""esc \"\\\n\tA""#,
        ] {
            let v = parse_json(text).expect("parse");
            // Re-parse the shim's serialization: stable fixed point.
            let encoded = serde_json::to_string(&v).expect("encode");
            let round = parse_json(&encoded).expect("reparse");
            assert_eq!(v, round, "{text}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for text in ["", "{", "[1,]", "nul", r#"{"a" 1}"#, "1 2", r#""unterminated"#] {
            assert!(parse_json(text).is_err(), "{text:?} should fail");
        }
    }

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
