//! The workspace's one JSON reader, plus the string escaper it inverts.
//!
//! The workspace builds offline, so instead of serde this module carries
//! a small recursive-descent parser producing [`Value`] trees and the
//! accessors its callers need (`get`, `as_str`, `as_u64`, …). Every JSON
//! *reader* goes through [`parse`]: serve requests, fleet journal resume,
//! `bench_guard`, report walks, and the exporter tests' validity oracle.
//! Writers stay hand-rolled `format!`s that quote strings with
//! [`escape`], so every byte-visible output is spelled out where it is
//! produced.

use std::fmt;

/// Nesting depth cap: every document the workspace reads is shallow, so
/// anything deeper than this is hostile or corrupt input — and the
/// recursive parser must refuse it rather than overflow its stack.
const MAX_DEPTH: u32 = 32;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A plain non-negative integer literal that fits a `u64`, kept
    /// exact (seeds, ids and microsecond counts go past 2^53).
    Int(u64),
    /// Any other JSON number.
    Num(f64),
    /// A string with escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, preserving key order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up `key` in an object; `None` for other value kinds.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one:
    /// exact for integer literals, and for other spellings (`1e3`,
    /// `2.0`) up to 2^53, where `f64` stops being exact.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) => Some(*n),
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The numeric payload as a u32, if it fits.
    pub fn as_u32(&self) -> Option<u32> {
        self.as_u64().and_then(|n| u32::try_from(n).ok())
    }

    /// The numeric payload as an `f64` (integers above 2^53 round).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Escapes `s` for inclusion inside a JSON string literal; [`parse`] of
/// the quoted result returns `s` unchanged.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A parse failure with the byte offset of the first problem.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// What was wrong.
    pub message: String,
    /// Byte offset into the input line.
    pub at: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

/// Parses one complete JSON value; trailing non-whitespace is an error.
///
/// # Errors
/// The first syntax problem found, with its byte offset.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser { src: input, bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data"));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    /// Always on a char boundary of `src`: only ASCII bytes and whole
    /// scalars are ever consumed.
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError { message: message.to_owned(), at: self.pos }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), ParseError> {
        if self.bytes.get(self.pos) == Some(&c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", c as char)))
        }
    }

    fn value(&mut self, depth: u32) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, text: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{text}`")))
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        // `text` starts with a digit or `-`, so this accepts exactly the
        // plain non-negative integers that fit.
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Value::Int(n));
        }
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| ParseError { message: format!("invalid number `{text}`"), at: start })
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let code = self
                                .src
                                .get(self.pos + 1..self.pos + 5)
                                .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogate pairs are never written by
                            // `escape`; map them to the replacement
                            // character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(&c) if c < 0x20 => return Err(self.err("raw control character")),
                Some(_) => {
                    let ch = self.src[self.pos..].chars().next().unwrap_or('\u{fffd}');
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn array(&mut self, depth: u32) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: u32) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value(depth + 1)?;
            fields.push((key, val));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_protocol_shaped_objects() {
        let v = parse(r#"{"id":3,"cmd":"run","max_steps":1024,"opts":{"deep":[1,2,-3.5]}}"#)
            .expect("parses");
        assert_eq!(v.get("id").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("cmd").and_then(Value::as_str), Some("run"));
        assert_eq!(v.get("max_steps").and_then(Value::as_u64), Some(1024));
        let deep = v.get("opts").and_then(|o| o.get("deep")).and_then(Value::as_arr).unwrap();
        assert_eq!(deep.len(), 3);
        assert_eq!(deep[2], Value::Num(-3.5));
    }

    #[test]
    fn resolves_escapes_and_rejects_garbage() {
        let v = parse(r#""a\n\"bA""#).expect("string parses");
        assert_eq!(v.as_str(), Some("a\n\"bA"));
        assert!(parse("{").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,2,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("\"raw\ncontrol\"").is_err());
        assert!(parse(r#""\u+041""#).is_err(), "\\u takes exactly four hex digits");
        assert!(parse("1e").is_err());
        let deep = "[".repeat(64) + &"]".repeat(64);
        assert!(parse(&deep).is_err(), "depth limit enforced");
    }

    #[test]
    fn numeric_accessors_guard_range_and_kind() {
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("1e3").unwrap().as_u64(), Some(1000));
        assert_eq!(parse("2.0").unwrap().as_u64(), Some(2));
        assert_eq!(parse("4294967295").unwrap().as_u32(), Some(u32::MAX));
        assert_eq!(parse("4294967296").unwrap().as_u32(), None);
        assert_eq!(parse("1234.5").unwrap().as_f64(), Some(1234.5));
        assert_eq!(parse("20").unwrap().as_f64(), Some(20.0));
        assert_eq!(parse("true").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn integers_are_exact_across_the_u64_range() {
        for n in [(1u64 << 53) + 1, u64::MAX - 1, u64::MAX] {
            assert_eq!(parse(&n.to_string()).unwrap().as_u64(), Some(n));
        }
        // One past u64::MAX is still a number, just not an exact integer.
        assert_eq!(parse("18446744073709551616").unwrap().as_u64(), None);
    }
}
