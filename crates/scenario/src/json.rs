//! Minimal hand-rolled JSON — the build environment has no crates.io
//! access (the `crates/compat` situation), so the workspace carries its
//! own encoder/decoder. It lives here (rather than in `mr2-serve`,
//! where it originated) because the scenario engine's trace ingestion
//! ([`crate::trace`]) parses JSON-lines job histories with it; the
//! service re-exports this module for its request/response types.
//!
//! The subset is complete for RFC 8259 documents: objects, arrays,
//! strings (with escapes and `\uXXXX`, including surrogate pairs),
//! numbers as `f64`, booleans, null. Integers round-trip exactly up to
//! 2^53, which covers every field the API carries (byte sizes, seeds,
//! counts, timestamps). Rendering is compact; non-finite numbers render
//! as `null` (JSON has no NaN/Infinity).
//!
//! Hot replies skip the tree: [`write_object`] appends an object's
//! members straight to a `String` through [`ObjectWriter`] (and arrays
//! through [`ArrayWriter`]), with the number and string rendering
//! [`Json::render`] uses, so a writer that emits a tree's members in its
//! key order produces the tree's bytes.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (JSON doesn't distinguish integers).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Sorted keys (BTreeMap) make rendering deterministic.
    Obj(BTreeMap<String, Json>),
}

/// Parse error: a message and the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for JsonError {}

/// Nesting depth bound: hostile inputs must not overflow the stack.
const MAX_DEPTH: usize = 64;

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Render compactly (no whitespace), deterministically (object keys
    /// are sorted).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => render_number(*v, out),
            Json::Str(s) => render_string(s, out),
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
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Build an object from key/value pairs.
    pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Object field lookup; `None` on non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as a float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer (rejects fractions and
    /// anything beyond exact `f64` integer range).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if v.fract() == 0.0 && (0.0..=9.007_199_254_740_992e15).contains(v) => {
                Some(*v as u64)
            }
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

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// A float rendered as JSON (finite → number, else null).
    pub fn num(v: f64) -> Json {
        Json::Num(v)
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

fn render_number(v: f64, out: &mut String) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 9.007_199_254_740_992e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        // Rust's shortest-roundtrip float formatting is valid JSON.
        let _ = write!(out, "{v}");
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append one JSON object to `out`, its members written by `f`.
pub fn write_object(out: &mut String, f: impl FnOnce(&mut ObjectWriter<'_>)) {
    out.push('{');
    f(&mut ObjectWriter { out, last: None });
    out.push('}');
}

/// Append one JSON array to `out`, its items written by `f`.
fn write_array(out: &mut String, f: impl FnOnce(&mut ArrayWriter<'_>)) {
    out.push('[');
    f(&mut ArrayWriter { out, empty: true });
    out.push(']');
}

/// Writes an object's members in the order given, which must be
/// ascending byte order of the keys — the order a [`Json::Obj`] renders
/// in, so the bytes match the tree's. Debug builds assert the order.
/// Keys are field names, hence `'static`. Integers take the `as f64`
/// cast of `Json::from`, so values past 2^53 round as they do in a tree.
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    last: Option<&'static str>,
}

impl ObjectWriter<'_> {
    fn key(&mut self, key: &'static str) -> &mut String {
        debug_assert!(
            self.last.is_none_or(|last| last < key),
            "object keys out of order: `{key}` after `{}`",
            self.last.unwrap_or_default()
        );
        if self.last.is_some() {
            self.out.push(',');
        }
        self.last = Some(key);
        render_string(key, self.out);
        self.out.push(':');
        self.out
    }

    /// The output's length so far: where a member written later would
    /// start, comma included.
    pub fn offset(&self) -> usize {
        self.out.len()
    }

    /// A number member (non-finite → `null`).
    pub fn num(&mut self, key: &'static str, v: f64) -> &mut Self {
        render_number(v, self.key(key));
        self
    }

    /// An integer member.
    pub fn uint(&mut self, key: &'static str, v: u64) -> &mut Self {
        self.num(key, v as f64)
    }

    /// A number member, or `null` when absent.
    pub fn opt_num(&mut self, key: &'static str, v: Option<f64>) -> &mut Self {
        match v {
            Some(v) => self.num(key, v),
            None => self.null(key),
        }
    }

    /// A string member.
    pub fn str(&mut self, key: &'static str, v: &str) -> &mut Self {
        render_string(v, self.key(key));
        self
    }

    /// A boolean member.
    pub fn bool(&mut self, key: &'static str, v: bool) -> &mut Self {
        self.key(key).push_str(if v { "true" } else { "false" });
        self
    }

    /// A `null` member.
    pub fn null(&mut self, key: &'static str) -> &mut Self {
        self.key(key).push_str("null");
        self
    }

    /// A member whose value is an existing tree.
    pub fn json(&mut self, key: &'static str, v: &Json) -> &mut Self {
        v.render_into(self.key(key));
        self
    }

    /// A nested object member, its members written by `f`.
    pub fn object(
        &mut self,
        key: &'static str,
        f: impl FnOnce(&mut ObjectWriter<'_>),
    ) -> &mut Self {
        write_object(self.key(key), f);
        self
    }

    /// A nested array member, its items written by `f`.
    pub fn array(&mut self, key: &'static str, f: impl FnOnce(&mut ArrayWriter<'_>)) -> &mut Self {
        write_array(self.key(key), f);
        self
    }
}

/// Writes an array's items in order; see [`ObjectWriter`].
pub struct ArrayWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl ArrayWriter<'_> {
    fn item(&mut self) -> &mut String {
        if !std::mem::take(&mut self.empty) {
            self.out.push(',');
        }
        self.out
    }

    /// A number item (non-finite → `null`).
    pub fn num(&mut self, v: f64) -> &mut Self {
        render_number(v, self.item());
        self
    }

    /// An integer item.
    pub fn uint(&mut self, v: u64) -> &mut Self {
        self.num(v as f64)
    }

    /// A string item.
    pub fn str(&mut self, v: &str) -> &mut Self {
        render_string(v, self.item());
        self
    }

    /// An object item, its members written by `f`.
    pub fn object(&mut self, f: impl FnOnce(&mut ObjectWriter<'_>)) -> &mut Self {
        write_object(self.item(), f);
        self
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            at: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {what}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
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
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{text}`")))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{', "`{`")?;
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
            self.eat(b':', "`:` after object key")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[', "`[`")?;
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
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "`\"`")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Copy unescaped runs wholesale (UTF-8 passes through).
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.eat(b'u', "`\\u` low surrogate")?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(c)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let chunk = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(chunk).map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a":[1,2,{"b":null}],"c":"x"}"#).unwrap();
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[1].as_u64(), Some(2));
        assert_eq!(arr[2].get("b"), Some(&Json::Null));
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = "line1\nline2\t\"quoted\" \\ / \u{08}\u{0c} héllo 🦀";
        let rendered = Json::Str(original.into()).render();
        assert_eq!(Json::parse(&rendered).unwrap().as_str(), Some(original));
        // Explicit \u escapes, including a surrogate pair.
        let v = Json::parse(r#""\u0041\ud83e\udd80\u00e9""#).unwrap();
        assert_eq!(v.as_str(), Some("A🦀é"));
    }

    #[test]
    fn renders_numbers_cleanly() {
        assert_eq!(Json::Num(4.0).render(), "4");
        assert_eq!(Json::Num(-0.5).render(), "-0.5");
        assert_eq!(Json::Num(5368709120.0).render(), "5368709120"); // 5 GB
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn render_parse_roundtrip_is_exact() {
        let v = Json::obj([
            ("nodes", Json::Arr(vec![4u64.into(), 8u64.into()])),
            ("ratio", Json::Num(0.1 + 0.2)),
            ("name", Json::str("sweep-α")),
            ("deep", Json::obj([("ok", true.into())])),
            ("none", Json::Null),
        ]);
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":1,}",
            "[01x]",
            "\"\\q\"",
            "\"\\ud800\"",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn rejects_pathological_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"));
    }

    #[test]
    fn writer_renders_the_trees_bytes() {
        let tree = Json::obj([
            ("big", Json::from(9_007_199_254_740_993u64)),
            ("deep", Json::obj([("ok", true.into()), ("x", Json::Null)])),
            ("inf", Json::num(f64::INFINITY)),
            (
                "list",
                Json::Arr(vec![
                    Json::num(0.1 + 0.2),
                    Json::from(u64::MAX),
                    Json::str("tab\there"),
                    Json::obj([("k", Json::num(-0.0))]),
                ]),
            ),
            ("name", Json::str("sweep-α \"q\" \u{1}")),
            ("none", Json::Null),
            ("off", false.into()),
            ("tree", Json::Arr(vec![])),
        ]);
        let mut out = String::from("prefix:");
        write_object(&mut out, |o| {
            o.uint("big", 9_007_199_254_740_993)
                .object("deep", |o| {
                    o.bool("ok", true).null("x");
                })
                .opt_num("inf", Some(f64::INFINITY))
                .array("list", |a| {
                    a.num(0.1 + 0.2)
                        .uint(u64::MAX)
                        .str("tab\there")
                        .object(|o| {
                            o.num("k", -0.0);
                        });
                })
                .str("name", "sweep-α \"q\" \u{1}")
                .opt_num("none", None)
                .bool("off", false)
                .json("tree", &Json::Arr(vec![]));
        });
        assert_eq!(out, format!("prefix:{}", tree.render()));
        let mut empty = String::new();
        write_object(&mut empty, |_| {});
        write_array(&mut empty, |_| {});
        assert_eq!(empty, "{}[]");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "object keys out of order")]
    fn writer_refuses_keys_out_of_order() {
        write_object(&mut String::new(), |o| {
            o.num("b", 1.0).num("a", 2.0);
        });
    }

    #[test]
    fn u64_accessor_rejects_fractions_and_negatives() {
        assert_eq!(Json::Num(4.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(0.0).as_u64(), Some(0));
        assert_eq!(Json::Str("4".into()).as_u64(), None);
    }
}
