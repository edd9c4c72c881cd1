//! A minimal RON (Rusty Object Notation) reader covering the subset the
//! scenario corpus uses: named structs with named fields, bare unit
//! variants, sequences, integers, floats, booleans, and strings, plus `//`
//! line comments, `_` digit separators and trailing commas. No external
//! dependency — this build vendors only the shims the workspace already
//! carries, and none of them read RON.
//!
//! It reads onto the JSON shim's [`Value`] by serde's externally tagged
//! convention: `Name(f: v, ..)` is `{"Name": {"f": v, ..}}`, a bare `Name`
//! is `"Name"`, a sequence is an array and a number a `Number`. A scenario
//! file and a JSON failure artifact are therefore the same tree, walked
//! with [`variant`] and [`field`].

use serde_json::{Error, Map, Value, MAX_DEPTH};
use std::cell::RefCell;

/// Integer literals beyond ±2^53 are refused: a `Number` could not hold
/// them exactly.
const EXACT_INT: i64 = 1 << 53;

/// The variant a value names: `Name` for `"Name"` and for `{"Name": {..}}`.
pub fn variant(v: &Value) -> Option<&str> {
    match v {
        Value::String(name) => Some(name),
        Value::Object(m) if m.len() == 1 => m.keys().next().map(String::as_str),
        _ => None,
    }
}

/// Field `name` of a `{"Name": {fields}}` variant.
pub fn field<'v>(v: &'v Value, name: &str) -> Option<&'v Value> {
    match v {
        Value::Object(m) if m.len() == 1 => match m.values().next() {
            Some(Value::Object(fields)) => fields.get(name),
            _ => None,
        },
        _ => None,
    }
}

/// The fields of one `{"Name": {fields}}` variant, read by name. Each
/// [`Fields::get`] notes the field it asks for, and [`Fields::finish`]
/// refuses any other the record carries, so a misspelled field fails the
/// load instead of silently taking its default, and each field name is
/// written once, where it is read. A bare `"Name"` carries no fields.
pub struct Fields<'v> {
    name: &'v str,
    body: Option<&'v Value>,
    asked: RefCell<Vec<&'static str>>,
}

impl<'v> Fields<'v> {
    /// `v`'s fields, or `None` when `v` names no variant.
    pub fn of(v: &'v Value) -> Option<Fields<'v>> {
        let (name, body) = match v {
            Value::String(name) => (name.as_str(), None),
            Value::Object(m) if m.len() == 1 => {
                m.iter().next().map(|(k, b)| (k.as_str(), Some(b)))?
            }
            _ => return None,
        };
        Some(Fields { name, body, asked: RefCell::new(Vec::new()) })
    }

    /// The variant's name.
    pub fn name(&self) -> &'v str {
        self.name
    }

    /// Field `key`, which [`Fields::finish`] then accepts.
    pub fn get(&self, key: &'static str) -> Option<&'v Value> {
        self.asked.borrow_mut().push(key);
        match self.body {
            Some(Value::Object(fields)) => fields.get(key),
            _ => None,
        }
    }

    /// Refuses a field no [`Fields::get`] asked for.
    pub fn finish(self) -> Result<(), String> {
        let name = self.name;
        let fields = match self.body {
            None => return Ok(()),
            Some(Value::Object(fields)) => fields,
            Some(_) => {
                return Err(format!("{name}: expected named fields, `{name}(field: value, ..)`"))
            }
        };
        let asked = self.asked.into_inner();
        match fields.keys().find(|k| !asked.contains(&k.as_str())) {
            Some(k) if asked.is_empty() => {
                Err(format!("{name}: unknown field `{k}` (it takes none)"))
            }
            Some(k) => Err(format!("{name}: unknown field `{k}` (fields: {})", asked.join(", "))),
            None => Ok(()),
        }
    }
}

/// Parses one RON document (a single value, optionally surrounded by
/// whitespace and comments). A field repeated within one struct, an
/// integer beyond ±2^53, and nesting the resulting tree deeper than
/// [`MAX_DEPTH`] (a struct is two levels of it) are errors, so every
/// document read here is one the JSON reader reads back.
pub fn parse(input: &str) -> Result<Value, Error> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after the document value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Levels of the tree open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> Error {
        Error { offset: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        loop {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
                self.pos += 1;
            }
            if self.bytes[self.pos..].starts_with(b"//") {
                while !matches!(self.peek(), None | Some(b'\n')) {
                    self.pos += 1;
                }
            } else {
                return;
            }
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), Error> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", c as char)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'[') => self.nested(1, Self::seq),
            Some(b'"') => self.string().map(Value::String),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) if c.is_ascii_alphabetic() || c == b'_' => self.ident_value(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
        }
    }

    /// Runs `parse` `levels` down the tree, refusing past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        levels: usize,
        parse: fn(&mut Self) -> Result<Value, Error>,
    ) -> Result<Value, Error> {
        if self.depth + levels > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += levels;
        let v = parse(self);
        self.depth -= levels;
        v
    }

    fn seq(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        loop {
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Array(items));
            }
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {}
                _ => return Err(self.err("expected ',' or ']' in sequence")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    out.push(match esc {
                        b'n' => '\n',
                        b't' => '\t',
                        b'\\' => '\\',
                        b'"' => '"',
                        _ => return Err(self.err("unsupported escape")),
                    });
                    self.pos += 1;
                }
                Some(_) => {
                    // The run up to the next quote or backslash is copied
                    // whole: both are ASCII, so it ends on a character
                    // boundary of the UTF-8 input.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || c == b'_' {
                self.pos += 1;
            } else if c == b'.' && !float {
                float = true;
                self.pos += 1;
            } else {
                break;
            }
        }
        let text: String =
            self.bytes[start..self.pos].iter().map(|&b| b as char).filter(|&c| c != '_').collect();
        let at = |message: &str| Error { offset: start, message: message.to_string() };
        if float {
            return text.parse().map(Value::Number).map_err(|_| at("invalid float literal"));
        }
        match text.parse::<i64>() {
            Ok(i) if (-EXACT_INT..=EXACT_INT).contains(&i) => Ok(Value::Number(i as f64)),
            Ok(_) => Err(at("integer literal beyond ±2^53")),
            Err(_) => Err(at("invalid integer literal")),
        }
    }

    fn ident(&mut self) -> Result<String, Error> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected identifier"));
        }
        Ok(self.bytes[start..self.pos].iter().map(|&b| b as char).collect())
    }

    fn ident_value(&mut self) -> Result<Value, Error> {
        let name = self.ident()?;
        match name.as_str() {
            "true" => return Ok(Value::Bool(true)),
            "false" => return Ok(Value::Bool(false)),
            _ => {}
        }
        self.skip_ws();
        if self.peek() != Some(b'(') {
            return Ok(Value::String(name));
        }
        let fields = self.nested(2, Self::fields)?;
        Ok(Value::Object(Map::from([(name, fields)])))
    }

    /// The `(field: value, ..)` body of a struct.
    fn fields(&mut self) -> Result<Value, Error> {
        self.expect(b'(')?;
        let mut fields = Map::new();
        loop {
            self.skip_ws();
            if self.peek() == Some(b')') {
                self.pos += 1;
                return Ok(Value::Object(fields));
            }
            let at = self.pos;
            let key = self.ident()?;
            if fields.contains_key(&key) {
                return Err(Error { offset: at, message: format!("duplicate field `{key}`") });
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b')') => {}
                _ => return Err(self.err("expected ',' or ')' in struct")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_scenario_shapes() {
        let doc = r#"
            // a comment
            Scenario(
                name: "reorder",
                seed: 42,
                world: Micro,
                rounds: 10,
                faults: [ReorderWindow(round: 3), DuplicateUpdates(round: 4, copies: 2),],
                oracles: [ShardInvariance, CrashResume(split: 5)],
                expect: Pass,
            )
        "#;
        let v = parse(doc).expect("parses");
        assert_eq!(variant(&v), Some("Scenario"));
        assert_eq!(field(&v, "seed").and_then(Value::as_u64), Some(42));
        assert_eq!(field(&v, "name").and_then(Value::as_str), Some("reorder"));
        let faults = field(&v, "faults").and_then(Value::as_array).expect("seq");
        assert_eq!(faults.len(), 2);
        assert_eq!(field(&faults[1], "copies").and_then(Value::as_u64), Some(2));
        assert_eq!(field(&v, "expect").and_then(variant), Some("Pass"));
        // The externally tagged tree, as serde would build it.
        let oracles = serde_json::from_str(r#"["ShardInvariance",{"CrashResume":{"split":5}}]"#)
            .expect("json");
        assert_eq!(field(&v, "oracles"), Some(&oracles));
    }

    #[test]
    fn scalars_and_errors() {
        assert_eq!(parse("-17").expect("int"), Value::Number(-17.0));
        assert_eq!(parse("2.5").expect("float"), Value::Number(2.5));
        assert_eq!(parse("true").expect("bool"), Value::Bool(true));
        assert_eq!(parse("1_000").expect("sep"), Value::Number(1000.0));
        assert_eq!(parse("Unit").expect("unit"), Value::String("Unit".into()));
        assert!(parse("Scenario(name: )").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("Pass garbage").is_err());
    }

    #[test]
    fn strings_keep_utf8_and_escapes() {
        let v = parse(r#"A(note: "café → ε\t\"q\"")"#).expect("parses");
        assert_eq!(field(&v, "note").and_then(Value::as_str), Some("café → ε\t\"q\""));
    }

    #[test]
    fn fields_refuse_what_no_reader_asked_for() {
        let v = parse("A(x: 1, y: 2)").expect("parses");
        let f = Fields::of(&v).expect("a variant");
        assert_eq!(f.get("x").and_then(Value::as_u64), Some(1));
        assert_eq!(f.get("z"), None);
        assert_eq!(f.finish().expect_err("y unread"), "A: unknown field `y` (fields: x, z)");

        let bare = Value::String("B".into());
        assert!(Fields::of(&bare).expect("a variant").finish().is_ok());
        let json = serde_json::from_str(r#"{"C": 5}"#).expect("json");
        assert!(Fields::of(&json).expect("a variant").finish().is_err(), "no named fields");
        assert!(Fields::of(&Value::Number(1.0)).is_none());
    }

    #[test]
    fn a_repeated_field_is_an_error() {
        let e = parse("Fault(offset: 1, offset: 2)").expect_err("repeated field");
        assert_eq!(e.offset, 17, "{e}");
        assert!(parse("[A(offset: 1), A(offset: 2)]").is_ok(), "one field per struct");
    }

    #[test]
    fn integers_beyond_two_to_the_53_are_errors() {
        assert_eq!(
            parse("9_007_199_254_740_992").expect("2^53"),
            Value::Number(9.007_199_254_740_992e15)
        );
        assert!(parse("9007199254740993").is_err(), "2^53 + 1 would round");
        assert!(parse("-9007199254740993").is_err());
        assert!(parse("99999999999999999999").is_err(), "past i64");
    }

    #[test]
    fn nesting_is_capped() {
        let seqs = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&seqs(MAX_DEPTH)).is_ok());
        assert!(parse(&seqs(MAX_DEPTH + 1)).is_err());
        // A struct is two levels of the tree.
        let structs = |n: usize| format!("{}1{}", "A(a: ".repeat(n), ")".repeat(n));
        assert!(parse(&structs(MAX_DEPTH / 2)).is_ok());
        assert!(parse(&structs(MAX_DEPTH / 2 + 1)).is_err());
        // Unclosed, on a thread with the default stack: uncapped, this
        // overflows it and aborts the process.
        let doc = "[".repeat(65_000);
        let rejected = std::thread::spawn(move || parse(&doc).is_err());
        assert!(rejected.join().expect("parser thread"));
    }
}
