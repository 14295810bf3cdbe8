//! The workspace's one JSON codec: a value type, its parser and its
//! deterministic renderer.
//!
//! The workspace is offline (no serde), so this hand-rolled codec serves
//! every JSON reader and writer outside `apf-lint` (which is std-only by
//! design): the service's request and response bodies and access log, the
//! trace inspector's line parser ([`crate::jsonl::parse_line`]), the
//! harness and profile reports, the canonical campaign spec, and the CLI's
//! bench artifacts. The trace *writer* ([`crate::jsonl::write_json_line`])
//! stays hand-written: it is the hot path, and every trace digest hashes
//! its `"ev"`-first bytes. Three properties shaped the design:
//!
//! * **Numbers keep their source token.** Seeds and trace digests are full
//!   `u64`s; routing them through `f64` would silently round anything above
//!   2^53. [`Json::Num`] stores the validated token text and converts on
//!   access, so `18446744073709551615` round-trips exactly.
//! * **Objects render in key order.** [`Json::Obj`] is a `BTreeMap`, so a
//!   rendered document is a deterministic function of its contents, whatever
//!   order its members were built or submitted in.
//! * **One number policy.** Integers render as Rust's `Display` prints them,
//!   finite floats in shortest round-trip form, non-finite floats as
//!   `null`; the parser accepts exactly RFC 8259's number grammar (no
//!   leading zeros, no empty fraction or exponent).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Maximum nesting depth the parser accepts (the API uses flat objects; the
/// cap only bounds hostile input).
const MAX_DEPTH: u32 = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its (validated) source token.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, ordered by key.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// A number value from a `u64` (exact).
    pub fn u64(x: u64) -> Json {
        Json::Num(x.to_string())
    }

    /// A number value from a `usize` (exact).
    pub fn usize(x: usize) -> Json {
        Json::Num(x.to_string())
    }

    /// A number value from a finite `f64` (`null` otherwise, like the trace
    /// codec's float convention).
    pub fn f64(x: f64) -> Json {
        if x.is_finite() {
            Json::Num(format!("{x}"))
        } else {
            Json::Null
        }
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An object from key/value pairs (keys sort automatically).
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member lookup on an object; `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a `u64` (exact; rejects floats and out-of-range).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(t) => t.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(t) => t.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Renders the value as compact JSON (deterministic: object keys are
    /// already sorted).
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(64);
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(t) => out.push_str(t),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends `s` to `out` as a quoted JSON string literal, escaping `"`, `\`
/// and control characters per RFC 8259, so hostile text (a request path, a
/// campaign name) can never break out of its string or its line.
fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Why parsing failed, with a byte offset for context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable explanation.
    pub message: String,
    /// Byte offset in the input.
    pub at: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON value; trailing non-whitespace is an error.
///
/// # Errors
///
/// Returns [`JsonError`] on malformed input, nesting beyond `MAX_DEPTH`,
/// or invalid escapes.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError { message: message.into(), at: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self, depth: u32) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn object(&mut self, depth: u32) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            map.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: u32) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // The scanned run is valid UTF-8 because the input is &str and
            // we only stopped on ASCII boundaries.
            s.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| {
                self.err("invalid UTF-8 in string") // unreachable; satisfies the type
            })?);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut s)?;
                }
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self, s: &mut String) -> Result<(), JsonError> {
        let c = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        match c {
            b'"' => s.push('"'),
            b'\\' => s.push('\\'),
            b'/' => s.push('/'),
            b'b' => s.push('\u{08}'),
            b'f' => s.push('\u{0C}'),
            b'n' => s.push('\n'),
            b'r' => s.push('\r'),
            b't' => s.push('\t'),
            b'u' => {
                let hex = self
                    .bytes
                    .get(self.pos..self.pos + 4)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .ok_or_else(|| self.err("truncated \\u escape"))?;
                let code =
                    u32::from_str_radix(hex, 16).map_err(|_| self.err("non-hex \\u escape"))?;
                self.pos += 4;
                // Surrogates are rejected rather than paired: the API never
                // emits them and accepting lone halves would make rendering
                // produce invalid UTF-8-adjacent output.
                let ch = char::from_u32(code)
                    .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                s.push(ch);
            }
            other => return Err(self.err(format!("unknown escape \\{}", other as char))),
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits0 = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == digits0 {
            return Err(self.err("number has no digits"));
        }
        if self.pos - digits0 > 1 && self.bytes.get(digits0) == Some(&b'0') {
            return Err(self.err("number has a leading zero"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac0 = self.pos;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == frac0 {
                return Err(self.err("number has an empty fraction"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp0 = self.pos;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == exp0 {
                return Err(self.err("number has an empty exponent"));
            }
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid UTF-8 in number"))?;
        Ok(Json::Num(token.to_string()))
    }
}

/// Convenience: a `u64` rendered exactly, for digest lists.
pub fn u64_array(xs: &[u64]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::u64(x)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_job_object() {
        let v = parse(r#"{"experiment":"e1","trials":8,"seed":1,"n":8,"rho":4}"#).unwrap();
        assert_eq!(v.get("experiment").and_then(Json::as_str), Some("e1"));
        assert_eq!(v.get("trials").and_then(Json::as_u64), Some(8));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn u64_round_trips_exactly() {
        let v = parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
        assert_eq!(v.render(), "18446744073709551615");
    }

    #[test]
    fn renders_sorted_and_escaped() {
        let v = Json::obj([("b", Json::u64(2)), ("a", Json::str("x\"\n"))]);
        assert_eq!(v.render(), "{\"a\":\"x\\\"\\n\",\"b\":2}");
    }

    #[test]
    fn escaping_neutralizes_hostile_text() {
        let v = Json::str("a\"b\\c\nd\te\u{01}f\u{08}\u{0C}\r");
        let out = v.render();
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\te\\u0001f\\b\\f\\r\"");
        // No raw control characters survive: the value stays on one line.
        assert!(!out.chars().any(char::is_control));
        assert_eq!(parse(&out).unwrap(), v);
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = parse(r#""a\"b\\c\nd\u0041\u00e9""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndAé"));
    }

    #[test]
    fn rejects_malformed_inputs() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1,}",
            "01e",
            "01",
            "-01",
            "00",
            "[01]",
            "1.",
            "1e",
            "\"\\q\"",
            "\"\\ud800\"",
            "nul",
            "{\"a\":1} x",
            "\"unterminated",
        ] {
            assert!(parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn rfc_8259_zero_forms_parse() {
        for ok in ["0", "-0", "0.5", "0e1"] {
            assert_eq!(parse(ok).map(|v| v.render()), Ok(ok.to_string()), "rejected: {ok}");
        }
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::f64(f64::NAN), Json::Null);
        assert_eq!(Json::f64(f64::INFINITY), Json::Null);
        assert_eq!(Json::f64(f64::NEG_INFINITY), Json::Null);
        assert_eq!(Json::f64(1.5).render(), "1.5");
    }

    #[test]
    fn depth_cap_rejects_hostile_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(8) + "1" + &"]".repeat(8);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn parse_render_round_trip_is_stable() {
        let src = r#"{"arr":[1,2.5,null,true],"name":"e1","nested":{"k":"v"}}"#;
        let v = parse(src).unwrap();
        let rendered = v.render();
        assert_eq!(parse(&rendered).unwrap(), v);
        assert_eq!(parse(&rendered).unwrap().render(), rendered);
    }
}
