//! A minimal RON (Rusty Object Notation) reader and writer covering the
//! subset the scenario corpus uses: named structs with named fields, bare
//! unit variants, sequences, integers, floats, booleans, and strings, plus
//! `//` line comments and trailing commas. No external dependency — this
//! build vendors only the shims the workspace already carries, and none of
//! them parse RON.

use std::fmt;

/// A parsed RON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A bare identifier: a unit enum variant such as `Micro` or `Pass`.
    Unit(String),
    /// `Name(field: value, ...)` — also covers `Name()` with no fields.
    Struct(String, Vec<(String, Value)>),
    /// `[ value, ... ]`
    Seq(Vec<Value>),
    Int(i64),
    Float(f64),
    Bool(bool),
    Str(String),
}

impl Value {
    /// Field lookup on a struct value.
    pub fn field(&self, name: &str) -> Option<&Value> {
        match self {
            Value::Struct(_, fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The struct or unit-variant name.
    pub fn name(&self) -> Option<&str> {
        match self {
            Value::Unit(n) | Value::Struct(n, _) => Some(n),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|i| u64::try_from(i).ok())
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(items) => Some(items),
            _ => None,
        }
    }
}

/// Renders a value back to RON text. Round-trips through [`parse`], which
/// is what makes failure artifacts replayable by the same loader.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit(n) => write!(f, "{n}"),
            Value::Struct(n, fields) => {
                write!(f, "{n}(")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, ")")
            }
            Value::Seq(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x:?}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s:?}"),
        }
    }
}

/// A parse error with a byte offset into the input.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Deepest nesting of sequences and structs [`parse`] accepts. The parser
/// recurses once per level; scenario files nest three or four.
pub const MAX_DEPTH: usize = 64;

/// Parses one RON document (a single value, optionally surrounded by
/// whitespace and comments).
pub fn parse(input: &str) -> Result<Value, ParseError> {
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
    /// Sequences and structs open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError { offset: self.pos, message: message.to_string() }
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

    fn expect(&mut self, c: u8) -> Result<(), ParseError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'[') => self.nested(Self::seq),
            Some(b'"') => self.string().map(Value::Str),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) if c.is_ascii_alphabetic() || c == b'_' => self.nested(Self::ident_value),
            Some(c) => Err(self.err(&format!("unexpected character '{}'", c as char))),
        }
    }

    /// Runs `parse` one nesting level down, refusing past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn seq(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        loop {
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Seq(items));
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

    fn string(&mut self) -> Result<String, ParseError> {
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

    fn number(&mut self) -> Result<Value, ParseError> {
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
        if float {
            text.parse().map(Value::Float).map_err(|_| self.err("invalid float literal"))
        } else {
            text.parse().map(Value::Int).map_err(|_| self.err("invalid integer literal"))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
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

    fn ident_value(&mut self) -> Result<Value, ParseError> {
        let name = self.ident()?;
        match name.as_str() {
            "true" => return Ok(Value::Bool(true)),
            "false" => return Ok(Value::Bool(false)),
            _ => {}
        }
        self.skip_ws();
        if self.peek() != Some(b'(') {
            return Ok(Value::Unit(name));
        }
        self.pos += 1;
        let mut fields = Vec::new();
        loop {
            self.skip_ws();
            if self.peek() == Some(b')') {
                self.pos += 1;
                return Ok(Value::Struct(name, fields));
            }
            let key = self.ident()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((key, v));
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
        assert_eq!(v.name(), Some("Scenario"));
        assert_eq!(v.field("seed").and_then(Value::as_u64), Some(42));
        assert_eq!(v.field("name").and_then(Value::as_str), Some("reorder"));
        let faults = v.field("faults").and_then(Value::as_seq).expect("seq");
        assert_eq!(faults.len(), 2);
        assert_eq!(faults[1].field("copies").and_then(Value::as_u64), Some(2));
        assert_eq!(v.field("expect").and_then(Value::name), Some("Pass"));
    }

    #[test]
    fn scalars_and_errors() {
        assert_eq!(parse("-17").expect("int"), Value::Int(-17));
        assert_eq!(parse("2.5").expect("float"), Value::Float(2.5));
        assert_eq!(parse("true").expect("bool"), Value::Bool(true));
        assert_eq!(parse("1_000").expect("sep"), Value::Int(1000));
        assert!(parse("Scenario(name: )").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("Pass garbage").is_err());
    }

    #[test]
    fn display_round_trips() {
        let doc = r#"Failure(scenario: "x", seed: 7, faults: [FlipWalByte(offset: 12)], ok: false, score: 1.5, note: "café → ε\t\"q\"")"#;
        let v = parse(doc).expect("parses");
        assert_eq!(v.field("note").and_then(Value::as_str), Some("café → ε\t\"q\""));
        let rendered = v.to_string();
        assert_eq!(parse(&rendered).expect("reparses"), v);
    }

    #[test]
    fn nesting_is_capped() {
        let seqs = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&seqs(MAX_DEPTH)).is_ok());
        assert!(parse(&seqs(MAX_DEPTH + 1)).is_err());
        let structs = format!("{}1{}", "A(a: ".repeat(MAX_DEPTH + 1), ")".repeat(MAX_DEPTH + 1));
        assert!(parse(&structs).is_err());
        // Unclosed, on a thread with the default stack: uncapped, this
        // overflows it and aborts the process.
        let doc = "[".repeat(65_000);
        let rejected = std::thread::spawn(move || parse(&doc).is_err());
        assert!(rejected.join().expect("parser thread"));
    }
}
