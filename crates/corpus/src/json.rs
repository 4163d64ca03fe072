//! Hand-rolled JSON, shared by the corpus serialisers and the serving layer.
//!
//! The build is fully offline (no serde), so every JSON byte this workspace
//! reads or writes goes through this module:
//!
//! * [`json_escape`] — string escaping byte-compatible with `serde_json`;
//! * [`JsonParser`] — a pull scanner over a `&str` for callers that know their
//!   schema and want zero intermediate allocation ([`crate::io`] parses its flat
//!   JSONL records this way);
//! * [`JsonValue`] — a parsed JSON tree for callers with open-ended payloads
//!   (the `holistix-serve` request/response bodies), with a serialiser whose
//!   `f64` formatting round-trips bit-for-bit (Rust's shortest-repr `Display`).
//!
//! The scanner accepts the full escape grammar including UTF-16 surrogate
//! pairs (`\ud83d\ude42`), which ASCII-only serialisers such as Python's
//! `json.dumps` emit for non-BMP characters.

use std::fmt;

/// Deepest nesting [`JsonValue::parse`] accepts. Real payloads in this
/// workspace nest a handful of levels; the cap turns recursion bombs into
/// ordinary parse errors.
pub const MAX_JSON_DEPTH: usize = 128;

/// Escape a string into a double-quoted JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

/// Pull scanner over a JSON document.
///
/// Callers that know their schema drive it directly (`expect('{')`,
/// `parse_string`, …); callers that don't use [`JsonValue::parse`], which is
/// built on [`JsonParser::parse_value`].
pub struct JsonParser<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
}

impl<'a> JsonParser<'a> {
    /// A scanner positioned at the start of `input`.
    pub fn new(input: &'a str) -> Self {
        Self {
            chars: input.chars().peekable(),
        }
    }

    /// Skip whitespace.
    pub fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.chars.next();
        }
    }

    /// Consume `expected` (after whitespace) if it is next; report whether it was.
    pub fn eat(&mut self, expected: char) -> bool {
        self.skip_ws();
        if self.chars.peek() == Some(&expected) {
            self.chars.next();
            true
        } else {
            false
        }
    }

    /// Consume `expected` (after whitespace) or error.
    pub fn expect(&mut self, expected: char) -> Result<(), String> {
        if self.eat(expected) {
            Ok(())
        } else {
            Err(format!(
                "expected `{expected}`, found {:?}",
                self.chars.peek()
            ))
        }
    }

    /// Error unless only whitespace remains.
    pub fn expect_end(&mut self) -> Result<(), String> {
        self.skip_ws();
        match self.chars.peek() {
            None => Ok(()),
            Some(c) => Err(format!("trailing characters starting at {c:?}")),
        }
    }

    /// Parse a double-quoted string with the full escape grammar.
    pub fn parse_string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.chars.next() {
                None => return Err("unterminated string".to_string()),
                Some('"') => return Ok(out),
                Some('\\') => match self.chars.next() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('u') => {
                        let code = self.parse_hex4()?;
                        // Non-BMP characters arrive as UTF-16 surrogate pairs
                        // (e.g. from serializers with ASCII-only output).
                        let code = if (0xD800..0xDC00).contains(&code) {
                            if self.chars.next() != Some('\\') || self.chars.next() != Some('u') {
                                return Err("lone high surrogate in \\u escape".to_string());
                            }
                            let low = self.parse_hex4()?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err("invalid low surrogate in \\u escape".to_string());
                            }
                            0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                        } else {
                            code
                        };
                        out.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                    }
                    other => return Err(format!("invalid escape {other:?}")),
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, String> {
        let mut code = 0u32;
        for _ in 0..4 {
            let digit = self
                .chars
                .next()
                .and_then(|c| c.to_digit(16))
                .ok_or("invalid \\u escape")?;
            code = code * 16 + digit;
        }
        Ok(code)
    }

    /// Parse a non-negative integer.
    pub fn parse_usize(&mut self) -> Result<usize, String> {
        self.skip_ws();
        let mut digits = String::new();
        while matches!(self.chars.peek(), Some(c) if c.is_ascii_digit()) {
            digits.push(self.chars.next().unwrap());
        }
        if digits.is_empty() {
            return Err(format!("expected number, found {:?}", self.chars.peek()));
        }
        digits
            .parse()
            .map_err(|e| format!("invalid integer {digits:?}: {e}"))
    }

    /// Parse a JSON number (optional sign, fraction, exponent) as `f64`.
    pub fn parse_f64(&mut self) -> Result<f64, String> {
        self.skip_ws();
        let mut digits = String::new();
        while matches!(self.chars.peek(), Some(c) if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
        {
            digits.push(self.chars.next().unwrap());
        }
        if digits.is_empty() {
            return Err(format!("expected number, found {:?}", self.chars.peek()));
        }
        digits
            .parse()
            .map_err(|e| format!("invalid number {digits:?}: {e}"))
    }

    /// Skip one scalar value (string, number, or bare word like `true`/`null`).
    pub fn skip_scalar(&mut self) -> Result<(), String> {
        self.skip_ws();
        match self.chars.peek() {
            Some('"') => self.parse_string().map(|_| ()),
            Some(c) if c.is_ascii_digit() || *c == '-' => {
                while matches!(self.chars.peek(), Some(c) if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
                {
                    self.chars.next();
                }
                Ok(())
            }
            Some(c) if c.is_ascii_alphabetic() => {
                while matches!(self.chars.peek(), Some(c) if c.is_ascii_alphabetic()) {
                    self.chars.next();
                }
                Ok(())
            }
            other => Err(format!("cannot skip value starting with {other:?}")),
        }
    }

    /// Skip one complete JSON value of any type, including nested arrays and
    /// objects (what serde does for unknown fields). Same depth cap as
    /// [`Self::parse_value`].
    pub fn skip_value(&mut self) -> Result<(), String> {
        self.parse_value_at(0).map(|_| ())
    }

    /// Parse one complete JSON value. Nesting is capped at [`MAX_JSON_DEPTH`]
    /// so adversarial documents (e.g. a body of 400k `[`s) are a parse error,
    /// not a recursion-driven stack overflow.
    pub fn parse_value(&mut self) -> Result<JsonValue, String> {
        self.parse_value_at(0)
    }

    fn parse_value_at(&mut self, depth: usize) -> Result<JsonValue, String> {
        if depth >= MAX_JSON_DEPTH {
            return Err(format!("JSON nested deeper than {MAX_JSON_DEPTH} levels"));
        }
        self.skip_ws();
        match self.chars.peek() {
            Some('"') => Ok(JsonValue::String(self.parse_string()?)),
            Some('{') => {
                self.expect('{')?;
                let mut fields = Vec::new();
                if !self.eat('}') {
                    loop {
                        let key = self.parse_string()?;
                        self.expect(':')?;
                        fields.push((key, self.parse_value_at(depth + 1)?));
                        if self.eat(',') {
                            continue;
                        }
                        self.expect('}')?;
                        break;
                    }
                }
                Ok(JsonValue::Object(fields))
            }
            Some('[') => {
                self.expect('[')?;
                let mut items = Vec::new();
                if !self.eat(']') {
                    loop {
                        items.push(self.parse_value_at(depth + 1)?);
                        if self.eat(',') {
                            continue;
                        }
                        self.expect(']')?;
                        break;
                    }
                }
                Ok(JsonValue::Array(items))
            }
            Some(c) if c.is_ascii_digit() || *c == '-' => Ok(JsonValue::Number(self.parse_f64()?)),
            Some(c) if c.is_ascii_alphabetic() => {
                let mut word = String::new();
                while matches!(self.chars.peek(), Some(c) if c.is_ascii_alphabetic()) {
                    word.push(self.chars.next().unwrap());
                }
                match word.as_str() {
                    "true" => Ok(JsonValue::Bool(true)),
                    "false" => Ok(JsonValue::Bool(false)),
                    "null" => Ok(JsonValue::Null),
                    other => Err(format!("unexpected bare word {other:?}")),
                }
            }
            other => Err(format!("unexpected character {other:?}")),
        }
    }
}

/// A parsed JSON document. Object fields keep insertion order (serialisation is
/// deterministic and duplicate keys resolve to the first occurrence on lookup).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, as ordered key/value pairs.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parse a complete JSON document (trailing garbage is an error).
    pub fn parse(input: &str) -> Result<Self, String> {
        let mut p = JsonParser::new(input);
        let value = p.parse_value()?;
        p.expect_end()?;
        Ok(value)
    }

    /// Object field lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one exactly.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= usize::MAX as f64 => {
                Some(*n as usize)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Convenience constructor: an object from key/value pairs.
    pub fn object(fields: Vec<(&str, JsonValue)>) -> Self {
        JsonValue::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Convenience constructor: a string value.
    pub fn string(s: impl Into<String>) -> Self {
        JsonValue::String(s.into())
    }
}

impl fmt::Display for JsonValue {
    /// Compact serialisation. Numbers use Rust's shortest round-trip `f64`
    /// formatting, so `parse(format!("{v}"))` reproduces every finite number
    /// bit for bit (non-finite numbers serialise as `null`, as serde_json does).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => write!(f, "null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Number(n) if n.is_finite() => write!(f, "{n}"),
            JsonValue::Number(_) => write!(f, "null"),
            JsonValue::String(s) => write!(f, "{}", json_escape(s)),
            JsonValue::Array(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            JsonValue::Object(fields) => {
                write!(f, "{{")?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{}:{value}", json_escape(key))?;
                }
                write!(f, "}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_control_and_quote_characters() {
        assert_eq!(json_escape("plain"), "\"plain\"");
        assert_eq!(json_escape("a\"b\\c"), r#""a\"b\\c""#);
        assert_eq!(json_escape("line\nbreak\ttab"), r#""line\nbreak\ttab""#);
        assert_eq!(json_escape("\u{1}"), r#""\u0001""#);
        // Non-ASCII passes through as UTF-8 (we never force \u escapes on output).
        assert_eq!(json_escape("caf\u{e9}"), "\"caf\u{e9}\"");
    }

    #[test]
    fn scanner_parses_strings_with_surrogate_pairs() {
        let mut p = JsonParser::new(r#""ok \ud83d\ude42""#);
        assert_eq!(p.parse_string().unwrap(), "ok \u{1F642}");
        assert!(JsonParser::new(r#""\ud83d""#).parse_string().is_err());
        assert!(JsonParser::new(r#""\ud83dA""#).parse_string().is_err());
        assert!(JsonParser::new(r#""\udc00x""#).parse_string().is_err());
    }

    #[test]
    fn scanner_parses_integers_and_rejects_junk() {
        let mut p = JsonParser::new(" 123 ");
        assert_eq!(p.parse_usize().unwrap(), 123);
        assert!(p.expect_end().is_ok());
        assert!(JsonParser::new("abc").parse_usize().is_err());
    }

    #[test]
    fn value_parses_nested_documents() {
        let v = JsonValue::parse(
            r#"{"texts":["a","b"],"top_k":3,"deep":{"x":[1,2.5,-3e1]},"flag":true,"none":null}"#,
        )
        .unwrap();
        let texts = v.get("texts").unwrap().as_array().unwrap();
        assert_eq!(texts[0].as_str(), Some("a"));
        assert_eq!(v.get("top_k").unwrap().as_usize(), Some(3));
        let deep = v.get("deep").unwrap().get("x").unwrap().as_array().unwrap();
        assert_eq!(deep[1].as_f64(), Some(2.5));
        assert_eq!(deep[2].as_f64(), Some(-30.0));
        assert_eq!(v.get("flag").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("none"), Some(&JsonValue::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn value_rejects_malformed_documents() {
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("{\"a\":1} trailing").is_err());
        assert!(JsonValue::parse("nope").is_err());
        assert!(JsonValue::parse("").is_err());
    }

    #[test]
    fn nesting_bombs_are_errors_not_stack_overflows() {
        // 400k opening brackets fit comfortably in a 1 MiB HTTP body; without
        // the depth cap this aborts the process instead of returning Err.
        let bomb = "[".repeat(400_000);
        assert!(JsonValue::parse(&bomb).unwrap_err().contains("nested"));
        let object_bomb = "{\"a\":".repeat(400_000);
        assert!(JsonValue::parse(&object_bomb).is_err());
        // Documents at sane depths still parse.
        let deep_ok = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(JsonValue::parse(&deep_ok).is_ok());
    }

    #[test]
    fn serialisation_round_trips_values() {
        let v = JsonValue::object(vec![
            ("name", JsonValue::string("caf\u{e9} \"quoted\"")),
            (
                "probs",
                JsonValue::Array(vec![
                    JsonValue::Number(0.123_456_789_012_345_68),
                    JsonValue::Number(1.0),
                    JsonValue::Number(0.0),
                ]),
            ),
            ("ok", JsonValue::Bool(false)),
            ("nothing", JsonValue::Null),
        ]);
        let text = v.to_string();
        assert_eq!(JsonValue::parse(&text).unwrap(), v);
    }

    #[test]
    fn f64_round_trip_is_bit_exact() {
        // The serving layer's acceptance bar: probabilities that cross the JSON
        // boundary must come back bit-identical.
        let mut rng_state = 0x9E3779B97F4A7C15u64;
        for _ in 0..1000 {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let x = (rng_state >> 11) as f64 / (1u64 << 53) as f64;
            let text = JsonValue::Number(x).to_string();
            let back = JsonValue::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} diverged via {text}");
        }
    }

    #[test]
    fn non_finite_numbers_serialise_as_null() {
        assert_eq!(JsonValue::Number(f64::NAN).to_string(), "null");
        assert_eq!(JsonValue::Number(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn usize_accessor_rejects_fractions_and_negatives() {
        assert_eq!(JsonValue::Number(3.5).as_usize(), None);
        assert_eq!(JsonValue::Number(-1.0).as_usize(), None);
        assert_eq!(JsonValue::Number(7.0).as_usize(), Some(7));
        assert_eq!(JsonValue::string("7").as_usize(), None);
    }
}
