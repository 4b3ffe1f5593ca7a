//! A minimal JSON value: parser, printer, and accessors.
//!
//! The build environment is offline, so the wire layer cannot pull in
//! `serde`; this hand-rolled implementation covers exactly the JSON
//! subset the [`crate::api::wire`] protocol uses — objects, arrays,
//! strings, integers, booleans, and `null`. Printing always produces a
//! single line (no pretty-printing), which is what a JSONL stream wants.
//!
//! Arrays and objects nest at most [`MAX_NESTING_DEPTH`] deep (the
//! workspace-wide request-parser limit); deeper input is a `nesting
//! too deep` error naming the byte offset, never a stack overflow.
//!
//! Numbers are restricted to `i64` integers: every numeric field in the
//! protocol (truncation lengths, proof sizes, counters, microseconds) is
//! an integer, and refusing floats keeps round-tripping exact.
//!
//! # Examples
//!
//! ```
//! use nka_core::api::json::Json;
//!
//! let v = Json::parse(r#"{"op":"series","expr":"a*","max_len":4}"#)?;
//! assert_eq!(v.get("op").and_then(Json::as_str), Some("series"));
//! assert_eq!(v.get("max_len").and_then(Json::as_i64), Some(4));
//! assert_eq!(Json::parse(&v.to_string())?, v);
//! # Ok::<(), String>(())
//! ```

use nka_syntax::{nesting_too_deep, MAX_NESTING_DEPTH};
use std::fmt;

/// A JSON value (integer-only numbers; see the [module docs](self)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (the protocol never uses fractional numbers).
    Int(i64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved when printing.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document, requiring it to span the whole input.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message (with a byte offset) on malformed
    /// input, a non-integer number, or trailing content.
    pub fn parse(src: &str) -> Result<Json, String> {
        let bytes = src.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The `&str` inside [`Json::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer inside [`Json::Int`].
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The slice inside [`Json::Arr`].
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(b' ' | b'\t' | b'\n' | b'\r') = bytes.get(*pos) {
        *pos += 1;
    }
}

/// `depth` counts the arrays and objects enclosing this value.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'{' | b'[') if depth >= MAX_NESTING_DEPTH => {
            Err(format!("{} at byte {}", nesting_too_deep(), *pos))
        }
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(b'-' | b'0'..=b'9') => parse_int(bytes, pos),
        Some(&b) => Err(format!(
            "unexpected character {:?} at byte {}",
            b as char, *pos
        )),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_int(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
        *pos += 1;
    }
    if matches!(bytes.get(*pos), Some(b'.' | b'e' | b'E')) {
        return Err(format!(
            "non-integer number at byte {start} (the protocol is integer-only)"
        ));
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("digits are ASCII");
    text.parse::<i64>()
        .map(Json::Int)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_owned()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u{hex}"))?;
                        // Surrogate pairs are not needed by this protocol;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => {
                return Err(format!("unescaped control byte 0x{b:02x} in string"))
            }
            Some(_) => {
                // Copy one UTF-8 character verbatim.
                let s = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| "invalid UTF-8 in string".to_owned())?;
                let ch = s.chars().next().expect("non-empty remainder");
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // consume '{'
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected a string key at byte {}", *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {}", *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

/// Writes `s` as a JSON string literal (quotes included) into `out`.
pub(crate) fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut buf = String::new();
        self.write(&mut buf);
        f.write_str(&buf)
    }
}

impl Json {
    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let src = r#"{"op":"prove","hyps":["m1 m1 = m1","m1 m0 = 0"],"n":-3,"ok":true,"x":null}"#;
        let v = Json::parse(src).unwrap();
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
        assert_eq!(v.get("hyps").and_then(Json::as_array).unwrap().len(), 2);
        assert_eq!(v.get("n").and_then(Json::as_i64), Some(-3));
    }

    #[test]
    fn escapes_round_trip() {
        let v = Json::Str("a \"b\"\n\t\\ ∞ ε".to_owned());
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
        let parsed = Json::parse(r#""A∞""#).unwrap();
        assert_eq!(parsed.as_str(), Some("A∞"));
    }

    #[test]
    fn rejects_floats_and_trailing_garbage() {
        assert!(Json::parse("1.5").is_err());
        assert!(Json::parse("1e3").is_err());
        assert!(Json::parse("{} junk").is_err());
        assert!(Json::parse(r#"{"a":}"#).is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn nesting_at_the_limit_parses_and_one_deeper_is_an_error() {
        // A request object whose annotation nests to exactly the limit
        // parses on a default-stack (2 MiB) thread.
        let nested =
            |n: usize| format!("{{\"expect\":{}{}}}", "[".repeat(n - 1), "]".repeat(n - 1));
        let src = nested(MAX_NESTING_DEPTH);
        let parsed =
            std::thread::spawn(move || Json::parse(&src).map(|v| v.get("expect").is_some()))
                .join()
                .expect("parser thread survives");
        assert_eq!(parsed, Ok(true));
        let err = Json::parse(&nested(MAX_NESTING_DEPTH + 1)).unwrap_err();
        let offset = "{\"expect\":".len() + MAX_NESTING_DEPTH - 1;
        assert!(err.starts_with("nesting too deep"), "{err}");
        assert!(err.ends_with(&format!("at byte {offset}")), "{err}");
        // A hostile line fails fast instead of overflowing the stack.
        let hostile = format!("{{\"op\":{}", "[".repeat(200_000));
        let err = std::thread::spawn(move || Json::parse(&hostile))
            .join()
            .expect("parser thread survives")
            .unwrap_err();
        assert!(err.starts_with("nesting too deep"), "{err}");
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.get("a").and_then(Json::as_array).unwrap().len(), 2);
    }
}
