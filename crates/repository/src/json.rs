//! A small JSON value model with parser and writer.
//!
//! Object member order is preserved (documents round-trip byte-stable),
//! which also keeps the XML↔JSON↔XML converter lossless for child order.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    /// Members in insertion order; keys unique.
    Object(Vec<(String, Json)>),
}

impl Json {
    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// Returns the member of an object by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Sets a member on an object (replacing an existing key). No-op on
    /// non-objects.
    pub fn set(&mut self, key: impl Into<String>, value: Json) {
        if let Json::Object(members) = self {
            let key = key.into();
            if let Some(slot) = members.iter_mut().find(|(k, _)| *k == key) {
                slot.1 = value;
            } else {
                members.push((key, value));
            }
        }
    }

    /// Follows a dotted field path (`meta.name`). Array indexing uses
    /// numeric segments (`items.0.id`).
    pub fn path(&self, path: &str) -> Option<&Json> {
        let mut cur = self;
        for seg in path.split('.') {
            cur = match cur {
                Json::Object(_) => cur.get(seg)?,
                Json::Array(items) => items.get(seg.parse::<usize>().ok()?)?,
                _ => return None,
            };
        }
        Some(cur)
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Compact serialization.
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        write_json(self, &mut out, None, 0);
        out
    }

    /// Pretty serialization with two-space indentation.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        write_json(self, &mut out, Some(2), 0);
        out.push('\n');
        out
    }

    /// Parses a JSON document.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser { src: input.as_bytes(), text: input, i: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.i != p.src.len() {
            return Err(p.err("trailing input"));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact_string())
    }
}

/// Writes `s` as a JSON string literal. Every byte that needs an escape is
/// ASCII, so the runs between them are copied whole and always end on a
/// char boundary.
pub(crate) fn write_string(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.reserve(s.len() + 2);
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

pub(crate) fn write_json(v: &Json, out: &mut String, indent: Option<usize>, depth: usize) {
    let pad = |out: &mut String, depth: usize| {
        if let Some(n) = indent {
            out.push('\n');
            for _ in 0..n * depth {
                out.push(' ');
            }
        }
    };
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Number(n) => {
            if !n.is_finite() {
                // JSON has no NaN/Infinity tokens; emitting them would
                // produce a document our own parser rejects on round-trip.
                // Non-finite numbers serialize as `null`, mirroring
                // `JSON.stringify`.
                out.push_str("null");
            } else if n.fract() == 0.0 && n.abs() < 1e15 {
                out.push_str(&format!("{}", *n as i64));
            } else {
                out.push_str(&format!("{n}"));
            }
        }
        Json::String(s) => write_string(s, out),
        Json::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                pad(out, depth + 1);
                write_json(item, out, indent, depth + 1);
            }
            if !items.is_empty() {
                pad(out, depth);
            }
            out.push(']');
        }
        Json::Object(members) => {
            out.push('{');
            for (i, (k, val)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                pad(out, depth + 1);
                write_string(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_json(val, out, indent, depth + 1);
            }
            if !members.is_empty() {
                pad(out, depth);
            }
            out.push('}');
        }
    }
}

/// Exactly four ASCII hex digits. `u32::from_str_radix` alone is too
/// permissive here — it accepts `+`/`-` prefixes, so `\u+12f` would parse.
fn parse_hex4(hex: &str) -> Option<u32> {
    if hex.len() == 4 && hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        u32::from_str_radix(hex, 16).ok()
    } else {
        None
    }
}

/// A JSON parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    src: &'a [u8],
    text: &'a str,
    i: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError { offset: self.i, message: msg.into() }
    }

    fn skip_ws(&mut self) {
        while matches!(self.src.get(self.i), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.i += 1;
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.src.get(self.i) {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte `{}`", *c as char))),
        }
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.text[self.i..].starts_with(word) {
            self.i += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.i;
        if self.src.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        while matches!(self.src.get(self.i), Some(c) if c.is_ascii_digit()) {
            self.i += 1;
        }
        if self.src.get(self.i) == Some(&b'.') {
            self.i += 1;
            while matches!(self.src.get(self.i), Some(c) if c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        if matches!(self.src.get(self.i), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.src.get(self.i), Some(b'+' | b'-')) {
                self.i += 1;
            }
            while matches!(self.src.get(self.i), Some(c) if c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        self.text[start..self.i].parse::<f64>().map(Json::Number).map_err(|e| self.err(e.to_string()))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        debug_assert_eq!(self.src[self.i], b'"');
        self.i += 1;
        let mut out = String::new();
        loop {
            match self.src.get(self.i) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.src.get(self.i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .text
                                .get(self.i + 1..self.i + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = parse_hex4(hex).ok_or_else(|| self.err("invalid \\u escape"))?;
                            // Surrogate pairs: decode when a high surrogate is
                            // followed by \uDC00..DFFF.
                            if (0xD800..0xDC00).contains(&code) {
                                // `get` (not indexing) throughout: the six
                                // bytes after the high escape may split a
                                // multibyte char, and the four after `\u` may
                                // be too short or non-hex — all must surface
                                // as errors, never slice panics.
                                let rest = self.text.get(self.i + 5..self.i + 11);
                                if let Some(rest) = rest.filter(|r| r.starts_with("\\u")) {
                                    let low = rest
                                        .get(2..6)
                                        .and_then(parse_hex4)
                                        .ok_or_else(|| self.err("invalid low surrogate"))?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.err("expected a low surrogate"));
                                    }
                                    let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    out.push(
                                        char::from_u32(combined).ok_or_else(|| self.err("invalid surrogate pair"))?,
                                    );
                                    self.i += 10;
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else {
                                out.push(char::from_u32(code).ok_or_else(|| self.err("invalid \\u code point"))?);
                                self.i += 4;
                            }
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    let start = self.i;
                    self.i += 1;
                    while self.i < self.src.len() && self.src[self.i] & 0xc0 == 0x80 {
                        self.i += 1;
                    }
                    out.push_str(&self.text[start..self.i]);
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.i += 1; // [
        let mut items = Vec::new();
        self.skip_ws();
        if self.src.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.src.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.i += 1; // {
        let mut members: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.src.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            if self.src.get(self.i) != Some(&b'"') {
                return Err(self.err("expected a string key"));
            }
            let key = self.string()?;
            if members.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate key `{key}`")));
            }
            self.skip_ws();
            if self.src.get(self.i) != Some(&b':') {
                return Err(self.err("expected `:`"));
            }
            self.i += 1;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.src.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Object(members));
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
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-3.5e2").unwrap(), Json::Number(-350.0));
        assert_eq!(Json::parse(r#""hi""#).unwrap(), Json::String("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a": [1, {"b": "x"}], "c": null}"#).unwrap();
        assert_eq!(v.path("a.1.b").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("c"), Some(&Json::Null));
    }

    #[test]
    fn string_escapes_roundtrip() {
        for s in ["line\nbreak", "tab\there", "quote\"backslash\\", "unicode é €", "ctrl\u{1}"] {
            let v = Json::String(s.into());
            let text = v.to_compact_string();
            assert_eq!(Json::parse(&text).unwrap(), v, "{text}");
        }
    }

    /// Escaping by runs writes what escaping char by char writes: every
    /// ASCII byte, alone and between multi-byte chars, at both ends.
    #[test]
    fn string_escapes_match_the_per_char_writer() {
        let per_char = |s: &str| {
            let mut out = String::from('"');
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
            out + "\""
        };
        for b in 0u8..0x80 {
            let c = char::from(b);
            for s in [c.to_string(), format!("é{c}😀{c}{c}x"), format!("{c}€")] {
                let mut out = String::new();
                write_string(&s, &mut out);
                assert_eq!(out, per_char(&s), "{b:#04x}");
            }
        }
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(Json::parse(r#""Aé""#).unwrap(), Json::String("Aé".into()));
        assert_eq!(Json::parse(r#""😀""#).unwrap(), Json::String("😀".into()));
        assert!(Json::parse(r#""\ud83d""#).is_err(), "lone surrogate rejected");
    }

    #[test]
    fn malformed_unicode_escapes_error_instead_of_panicking() {
        for bad in [
            // high surrogate + BMP low escape: the `low - 0xDC00` underflow
            concat!(r#""\ud83d\u"#, r#"0041""#),
            r#""\ud83dA""#,            // high surrogate with no low escape at all
            r#""\ud83d\ud83d""#,       // two high surrogates
            r#""\udc00""#,             // lone low surrogate
            r#""\u+12f""#,             // signed hex that from_str_radix would accept
            r#""\u-bcd""#,             // negative hex likewise
            r#""\ud83d\u+e00""#,       // signed hex in the low position
            r#""\ud83d\u€x""#,         // multibyte char straddling the low-escape window
            r#""\ud83d\u""#,           // truncated low escape
            r#""\u12""#,               // truncated high escape
            "\"\\ud83d\\u\u{10348}\"", // 4-byte char right after `\u`
        ] {
            assert!(Json::parse(bad).is_err(), "`{bad}` must be a JsonError, not a panic");
        }
    }

    #[test]
    fn member_order_is_preserved() {
        let text = r#"{"z": 1, "a": 2, "m": 3}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.to_compact_string(), r#"{"z":1,"a":2,"m":3}"#);
    }

    #[test]
    fn duplicate_keys_rejected() {
        assert!(Json::parse(r#"{"a":1,"a":2}"#).is_err());
    }

    #[test]
    fn syntax_errors_reported_with_offset() {
        for bad in ["", "{", "[1,", r#"{"a"}"#, "tru", "01a", r#"{"a":1,}"#, "[1 2]"] {
            assert!(Json::parse(bad).is_err(), "`{bad}` must fail");
        }
    }

    #[test]
    fn pretty_and_compact_agree() {
        let v = Json::parse(r#"{"a":[1,2],"b":{"c":true}}"#).unwrap();
        assert_eq!(Json::parse(&v.to_pretty_string()).unwrap(), v);
        assert_eq!(Json::parse(&v.to_compact_string()).unwrap(), v);
    }

    #[test]
    fn integers_print_without_decimal_point() {
        assert_eq!(Json::Number(5.0).to_compact_string(), "5");
        assert_eq!(Json::Number(5.5).to_compact_string(), "5.5");
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let text = Json::Number(v).to_compact_string();
            assert_eq!(text, "null");
            assert_eq!(Json::parse(&text).unwrap(), Json::Null);
        }
        let doc = Json::parse(r#"{"a": 1}"#).map(|mut j| {
            j.set("bad", Json::Number(f64::NAN));
            j
        });
        let text = doc.unwrap().to_pretty_string();
        Json::parse(&text).expect("document with non-finite member stays well-formed");
    }

    #[test]
    fn set_replaces_and_appends() {
        let mut v = Json::object();
        v.set("a", Json::Number(1.0));
        v.set("a", Json::Number(2.0));
        v.set("b", Json::Null);
        assert_eq!(v.to_compact_string(), r#"{"a":2,"b":null}"#);
    }

    #[test]
    fn path_misses_return_none() {
        let v = Json::parse(r#"{"a":[1]}"#).unwrap();
        assert!(v.path("a.5").is_none());
        assert!(v.path("b").is_none());
        assert!(v.path("a.x").is_none());
    }
}
