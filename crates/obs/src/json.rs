//! A small, dependency-free JSON value: parse and serialise.
//!
//! The in-tree `serde` shim is a no-op (its derives expand to nothing —
//! see `crates/shims/README.md`), so the workspace needs its own wire
//! format. This module is the one JSON writer: mule-serve's API documents,
//! the tracked bench artefacts, and the string escaping of the structured
//! log and the Chrome trace exporter all go through it. It implements
//! exactly what those callers require and nothing more:
//!
//! * [`JsonValue`] — the usual six-way value enum. Objects preserve
//!   **insertion order** (a `Vec` of pairs, not a map), so serialisation
//!   is deterministic: the same value always renders to the same bytes,
//!   which is what lets the plan cache promise byte-identical responses.
//! * [`JsonNumber`] — numbers keep their integer-ness: a `u64` seed
//!   survives a round trip exactly (it would lose precision above 2⁵³ as
//!   an `f64`). Floats serialise with Rust's shortest-round-trip `{:?}`
//!   formatting, so `f64 → text → f64` is the identity; non-finite floats
//!   serialise as `null` (JSON has no NaN).
//! * [`parse`] — a recursive-descent parser with a depth limit, full
//!   string-escape handling (including `\uXXXX` surrogate pairs) and byte
//!   positions in every error.

use std::fmt;

/// Maximum nesting depth the parser accepts; deeper documents error out
/// instead of overflowing the stack.
const MAX_DEPTH: usize = 64;

/// A JSON number: integers keep their exact value, floats are `f64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JsonNumber {
    /// A non-negative integer (anything that parses as `u64`).
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A number with a fraction or exponent.
    F64(f64),
}

impl JsonNumber {
    /// The number as `f64` (lossy above 2⁵³).
    pub fn as_f64(self) -> f64 {
        match self {
            JsonNumber::U64(n) => n as f64,
            JsonNumber::I64(n) => n as f64,
            JsonNumber::F64(f) => f,
        }
    }

    /// The number as `u64` if it is a non-negative integer (integral
    /// floats like `5.0` qualify — JSON clients routinely send them).
    pub fn as_u64(self) -> Option<u64> {
        match self {
            JsonNumber::U64(n) => Some(n),
            JsonNumber::I64(n) => u64::try_from(n).ok(),
            JsonNumber::F64(f)
                if f.fract() == 0.0 && (0.0..=9.007_199_254_740_992e15).contains(&f) =>
            {
                Some(f as u64)
            }
            JsonNumber::F64(_) => None,
        }
    }
}

/// A parsed (or to-be-serialised) JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Number(JsonNumber),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; pairs keep insertion order so rendering is
    /// deterministic. Lookup takes the **last** pair with a given key
    /// (matching the common parser behaviour for duplicate keys).
    Object(Vec<(String, JsonValue)>),
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}

impl From<u64> for JsonValue {
    fn from(n: u64) -> Self {
        JsonValue::Number(JsonNumber::U64(n))
    }
}

impl From<usize> for JsonValue {
    fn from(n: usize) -> Self {
        JsonValue::Number(JsonNumber::U64(n as u64))
    }
}

impl From<u32> for JsonValue {
    fn from(n: u32) -> Self {
        JsonValue::Number(JsonNumber::U64(u64::from(n)))
    }
}

impl From<i64> for JsonValue {
    fn from(n: i64) -> Self {
        if n >= 0 {
            JsonValue::Number(JsonNumber::U64(n as u64))
        } else {
            JsonValue::Number(JsonNumber::I64(n))
        }
    }
}

impl From<f64> for JsonValue {
    fn from(f: f64) -> Self {
        JsonValue::Number(JsonNumber::F64(f))
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::String(s.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::String(s)
    }
}

/// `None` is `null`; `Some(v)` converts `v`.
impl<T: Into<JsonValue>> From<Option<T>> for JsonValue {
    fn from(value: Option<T>) -> Self {
        value.map_or(JsonValue::Null, Into::into)
    }
}

impl JsonValue {
    /// Convenience constructor for an object from `(key, value)` pairs.
    pub fn object(pairs: Vec<(&str, JsonValue)>) -> Self {
        JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key in an object (`None` for missing keys and
    /// non-objects). Duplicate keys resolve to the last occurrence.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The value as a `usize`, if it is a non-negative integer that fits.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// The value as an `f64`, if it is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Serialises compactly (no whitespace). Deterministic: equal values
    /// produce equal bytes.
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serialises with 2-space indentation and a trailing newline — the
    /// format of the tracked artefacts and API responses (stable and
    /// diff-friendly).
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(true) => out.push_str("true"),
            JsonValue::Bool(false) => out.push_str("false"),
            JsonValue::Number(n) => write_number(out, *n),
            JsonValue::String(s) => write_string(out, s),
            JsonValue::Array(items) => {
                write_seq(out, indent, level, '[', ']', items.len(), |out, i, lvl| {
                    items[i].write(out, indent, lvl);
                });
            }
            JsonValue::Object(pairs) => {
                write_seq(out, indent, level, '{', '}', pairs.len(), |out, i, lvl| {
                    write_string(out, &pairs[i].0);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    pairs[i].1.write(out, indent, lvl);
                });
            }
        }
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json_string())
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    level: usize,
    open: char,
    close: char,
    len: usize,
    mut write_item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(step) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(step * (level + 1)));
        }
        write_item(out, i, level + 1);
    }
    if let Some(step) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(step * level));
    }
    out.push(close);
}

fn write_number(out: &mut String, n: JsonNumber) {
    match n {
        JsonNumber::U64(v) => out.push_str(&v.to_string()),
        JsonNumber::I64(v) => out.push_str(&v.to_string()),
        JsonNumber::F64(f) if f.is_finite() => {
            // `{:?}` is Rust's shortest representation that parses back to
            // the same f64 — deterministic and lossless.
            out.push_str(&format!("{f:?}"));
        }
        JsonNumber::F64(_) => out.push_str("null"),
    }
}

/// Appends `s` to `out` as a quoted JSON string literal, escaping quotes,
/// backslashes and control characters.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: what went wrong and the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub position: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.position)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.parse_value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            position: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error("document nests too deeply"));
        }
        match self.peek() {
            Some(b'n') => self.parse_literal("null", JsonValue::Null),
            Some(b't') => self.parse_literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::String(self.parse_string()?)),
            Some(b'[') => self.parse_array(depth),
            Some(b'{') => self.parse_object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_literal(&mut self, literal: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.input[self.pos..].starts_with(literal) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{literal}`")))
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(pairs));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        let mut run_start = self.pos;
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    out.push_str(&self.input[run_start..self.pos]);
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&self.input[run_start..self.pos]);
                    self.pos += 1;
                    out.push(self.parse_escape()?);
                    run_start = self.pos;
                }
                Some(c) if c < 0x20 => {
                    return Err(self.error("unescaped control character in string"));
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    fn parse_escape(&mut self) -> Result<char, JsonError> {
        let c = self
            .peek()
            .ok_or_else(|| self.error("unterminated escape"))?;
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let first = self.parse_hex4()?;
                let code = if (0xD800..0xDC00).contains(&first) {
                    // High surrogate: a low surrogate must follow.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u')?;
                        let second = self.parse_hex4()?;
                        if !(0xDC00..0xE000).contains(&second) {
                            return Err(self.error("invalid low surrogate"));
                        }
                        0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
                    } else {
                        return Err(self.error("lone high surrogate"));
                    }
                } else if (0xDC00..0xE000).contains(&first) {
                    return Err(self.error("lone low surrogate"));
                } else {
                    first
                };
                char::from_u32(code).ok_or_else(|| self.error("invalid unicode escape"))?
            }
            _ => return Err(self.error("unknown escape character")),
        })
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let hex = &self.input[self.pos..end];
        let code =
            u32::from_str_radix(hex, 16).map_err(|_| self.error("invalid hex in \\u escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn parse_number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        // Scan the maximal number-shaped token; `inf`/`NaN` can never form
        // because the charset excludes letters other than e/E.
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' | b'-' | b'+' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let token = &self.input[start..self.pos];
        if !is_float {
            if let Ok(n) = token.parse::<u64>() {
                return Ok(JsonValue::Number(JsonNumber::U64(n)));
            }
            if let Ok(n) = token.parse::<i64>() {
                return Ok(JsonValue::Number(JsonNumber::I64(n)));
            }
        }
        match token.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(JsonValue::Number(JsonNumber::F64(f))),
            _ => {
                self.pos = start;
                Err(self.error("invalid number"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &JsonValue) -> JsonValue {
        parse(&v.to_json_string()).expect("roundtrip parse")
    }

    #[test]
    fn scalars_roundtrip() {
        for v in [
            JsonValue::Null,
            JsonValue::from(true),
            JsonValue::from(false),
            JsonValue::from(0u64),
            JsonValue::from(u64::MAX),
            JsonValue::from(-42i64),
            JsonValue::from(1.5),
            JsonValue::from(1e300),
            JsonValue::from(-2.5e-8),
            JsonValue::from("hello"),
            JsonValue::from(""),
        ] {
            assert_eq!(roundtrip(&v), v, "value {v:?}");
        }
    }

    #[test]
    fn u64_seeds_survive_exactly() {
        // 2^53 + 1 is not representable as f64; the integer path must
        // carry it.
        let v = JsonValue::from(9_007_199_254_740_993u64);
        assert_eq!(v.to_json_string(), "9007199254740993");
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn float_shortest_form_is_lossless() {
        for f in [0.1, 1.0 / 3.0, f64::MIN_POSITIVE, 40_000.0, -0.0] {
            let v = JsonValue::from(f);
            let back = roundtrip(&v);
            let JsonValue::Number(JsonNumber::F64(g)) = back else {
                panic!("expected float back, got {back:?}");
            };
            assert_eq!(g.to_bits(), f.to_bits(), "bit-exact for {f}");
        }
    }

    #[test]
    fn non_finite_floats_serialise_as_null() {
        assert_eq!(JsonValue::from(f64::NAN).to_json_string(), "null");
        assert_eq!(JsonValue::from(f64::INFINITY).to_json_string(), "null");
    }

    #[test]
    fn strings_escape_and_unescape() {
        let tricky = "quote\" back\\slash \n\r\t ctrl\u{1} unicode→é 🦀";
        let v = JsonValue::from(tricky);
        let text = v.to_json_string();
        assert!(text.contains("\\\""));
        assert!(text.contains("\\\\"));
        assert!(text.contains("\\u0001"));
        assert_eq!(roundtrip(&v), v);
        assert_eq!(
            JsonValue::from("a\"b\\c\nd").to_json_string(),
            "\"a\\\"b\\\\c\\nd\""
        );
        assert_eq!(JsonValue::from("\u{1}").to_json_string(), "\"\\u0001\"");
    }

    #[test]
    fn options_serialise_as_null_or_their_value() {
        assert_eq!(JsonValue::from(None::<u64>), JsonValue::Null);
        assert_eq!(JsonValue::from(Some(3u64)), JsonValue::from(3u64));
        assert_eq!(JsonValue::from(Some("x")).to_json_string(), "\"x\"");
    }

    #[test]
    fn unicode_escapes_parse_including_surrogate_pairs() {
        assert_eq!(parse(r#""éA""#).unwrap(), JsonValue::from("éA"));
        // 🦀 U+1F980 as a surrogate pair.
        assert_eq!(parse(r#""🦀""#).unwrap(), JsonValue::from("🦀"));
        assert!(parse(r#""\ud83e""#).is_err(), "lone high surrogate");
        assert!(parse(r#""\udd80""#).is_err(), "lone low surrogate");
        assert!(parse(r#""\u12""#).is_err(), "truncated escape");
    }

    #[test]
    fn nested_structures_roundtrip_and_preserve_order() {
        let v = JsonValue::object(vec![
            ("zeta", JsonValue::from(1u64)),
            (
                "alpha",
                JsonValue::Array(vec![
                    JsonValue::Null,
                    JsonValue::object(vec![("x", JsonValue::from(2.5))]),
                ]),
            ),
            ("empty_obj", JsonValue::Object(vec![])),
            ("empty_arr", JsonValue::Array(vec![])),
        ]);
        assert_eq!(roundtrip(&v), v);
        // Insertion order survives serialisation (zeta before alpha).
        let text = v.to_json_string();
        assert!(text.find("zeta").unwrap() < text.find("alpha").unwrap());
    }

    #[test]
    fn duplicate_keys_resolve_to_the_last_value() {
        let v = parse(r#"{"a": 1, "a": 2}"#).unwrap();
        assert_eq!(v.get("a").and_then(JsonValue::as_u64), Some(2));
    }

    #[test]
    fn accessors_extract_and_reject() {
        let v = parse(r#"{"n": 5, "f": 5.0, "neg": -3, "s": "x", "b": true, "arr": [1]}"#).unwrap();
        assert_eq!(v.get("n").and_then(JsonValue::as_u64), Some(5));
        assert_eq!(
            v.get("f").and_then(JsonValue::as_u64),
            Some(5),
            "integral float"
        );
        assert_eq!(v.get("neg").and_then(JsonValue::as_u64), None);
        assert_eq!(v.get("neg").and_then(JsonValue::as_f64), Some(-3.0));
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(
            v.get("arr")
                .and_then(JsonValue::as_array)
                .map(<[JsonValue]>::len),
            Some(1)
        );
        assert_eq!(v.get("missing"), None);
        assert_eq!(JsonValue::Null.get("x"), None);
    }

    #[test]
    fn whitespace_is_tolerated_and_garbage_rejected() {
        assert!(parse("  { \"a\" :\n[ 1 , 2 ]\t}  ").is_ok());
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "nul",
            "1.2.3",
            "01x",
            "[1] trailing",
            "\"unterminated",
            "{'single': 1}",
            "--1",
            "1e",
            "+1",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn depth_limit_rejects_pathological_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        let err = parse(&deep).unwrap_err();
        assert!(err.message.contains("deep"), "{err}");
        // Error display carries the position.
        assert!(err.to_string().contains("byte"));
    }

    #[test]
    fn pretty_printing_is_parseable_and_ends_with_newline() {
        let v = JsonValue::object(vec![
            (
                "a",
                JsonValue::Array(vec![JsonValue::from(1u64), JsonValue::from(2u64)]),
            ),
            ("b", JsonValue::object(vec![("c", JsonValue::Null)])),
        ]);
        let pretty = v.to_pretty_string();
        assert!(pretty.ends_with('\n'));
        assert!(pretty.contains("\n  \"a\": ["));
        assert_eq!(parse(&pretty).unwrap(), v);
    }
}
