//! A minimal JSON value: parser, printer, and accessors.
//!
//! The build environment is offline, so the wire layer cannot pull in
//! `serde`; this hand-rolled implementation covers exactly the JSON
//! subset the [`crate::api::wire`] protocol uses — objects, arrays,
//! strings, integers, booleans, and `null`. Printing always produces a
//! single line (no pretty-printing), which is what a JSONL stream wants.
//!
//! Parsing is linear in the input: a string literal is copied one run
//! of plain bytes at a time (a run ends at a quote, an escape or a
//! control byte), so a line of the default `--max-line-bytes` (1 MiB)
//! parses in milliseconds.
//!
//! There is one serializer, `JsonWriter`: it appends keys, escaped
//! strings and integers to one `String`. `Json`'s `Display` drives it
//! over a tree, and the [`crate::api::wire`] encoders drive it directly,
//! writing each response line in place into one pre-sized buffer.
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
        let value = parse_value(src, &mut pos, 0)?;
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
fn parse_value(src: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let bytes = src.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'{' | b'[') if depth >= MAX_NESTING_DEPTH => {
            Err(format!("{} at byte {}", nesting_too_deep(), *pos))
        }
        Some(b'{') => parse_object(src, pos, depth + 1),
        Some(b'[') => parse_array(src, pos, depth + 1),
        Some(b'"') => parse_string(src, pos).map(Json::Str),
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

/// Parses the string literal at `*pos`, copying each run of plain bytes
/// with one `push_str`: linear in the literal's length. A run ends at the
/// closing quote, an escape or a control byte; all are ASCII, so a run
/// always ends on a character boundary.
fn parse_string(src: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = src.as_bytes();
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        let run = *pos;
        while bytes.get(*pos).is_some_and(|&b| !needs_escape(b)) {
            *pos += 1;
        }
        out.push_str(&src[run..*pos]);
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
            Some(&b) => return Err(format!("unescaped control byte 0x{b:02x} in string")),
        }
    }
}

fn parse_array(src: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let bytes = src.as_bytes();
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(src, pos, depth)?);
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

fn parse_object(src: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let bytes = src.as_bytes();
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
        let key = parse_string(src, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {}", *pos));
        }
        *pos += 1;
        let value = parse_value(src, pos, depth)?;
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

/// Appends JSON text to one `String`: the one serializer behind both
/// [`Json`]'s `Display` and the wire encoders, which write response
/// lines straight into a pre-sized buffer instead of building a tree.
///
/// Values written after a [`JsonWriter::key`] are that key's value;
/// values written directly inside an array are its elements. The
/// writer inserts every `,` itself.
#[derive(Debug)]
pub(crate) struct JsonWriter<'a> {
    out: &'a mut String,
    /// Whether the next key or element needs a `,` before it.
    comma: bool,
}

impl<'a> JsonWriter<'a> {
    /// A writer appending to `out`.
    pub fn new(out: &'a mut String) -> Self {
        JsonWriter { out, comma: false }
    }

    fn separate(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }

    /// Opens an object (`{`).
    pub fn begin_obj(&mut self) -> &mut Self {
        self.separate();
        self.out.push('{');
        self.comma = false;
        self
    }

    /// Closes the innermost object (`}`).
    pub fn end_obj(&mut self) -> &mut Self {
        self.out.push('}');
        self.comma = true;
        self
    }

    /// Opens an array (`[`).
    pub fn begin_arr(&mut self) -> &mut Self {
        self.separate();
        self.out.push('[');
        self.comma = false;
        self
    }

    /// Closes the innermost array (`]`).
    pub fn end_arr(&mut self) -> &mut Self {
        self.out.push(']');
        self.comma = true;
        self
    }

    /// Writes an object key and its `:`; the next value is its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.separate();
        escape_into(self.out, key);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// Writes a string value.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.separate();
        escape_into(self.out, s);
        self
    }

    /// Writes `value`'s `Display` text as a string value, formatted in
    /// place (escaped afterwards only if it needs escaping).
    pub fn display(&mut self, value: &impl fmt::Display) -> &mut Self {
        use fmt::Write as _;
        self.separate();
        let start = self.out.len();
        self.out.push('"');
        write!(self.out, "{value}").expect("writing to a String cannot fail");
        if self.out.as_bytes()[start + 1..]
            .iter()
            .any(|&b| needs_escape(b))
        {
            let raw = self.out.split_off(start + 1);
            self.out.truncate(start);
            escape_into(self.out, &raw);
        } else {
            self.out.push('"');
        }
        self
    }

    /// Writes an integer value.
    pub fn int(&mut self, n: i64) -> &mut Self {
        self.separate();
        if n < 0 {
            self.out.push('-');
        }
        push_digits(self.out, n.unsigned_abs());
        self
    }

    /// Writes a count as an integer value, saturating at `i64::MAX`.
    pub fn uint(&mut self, n: impl TryInto<i64>) -> &mut Self {
        self.int(n.try_into().unwrap_or(i64::MAX))
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.separate();
        self.out.push_str(if b { "true" } else { "false" });
        self
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.separate();
        self.out.push_str("null");
        self
    }

    /// Writes a whole [`Json`] value.
    pub fn value(&mut self, value: &Json) -> &mut Self {
        match value {
            Json::Null => self.null(),
            Json::Bool(b) => self.bool(*b),
            Json::Int(n) => self.int(*n),
            Json::Str(s) => self.str(s),
            Json::Arr(items) => {
                self.begin_arr();
                for item in items {
                    self.value(item);
                }
                self.end_arr()
            }
            Json::Obj(fields) => {
                self.begin_obj();
                for (k, v) in fields {
                    self.key(k).value(v);
                }
                self.end_obj()
            }
        }
    }

    /// Writes one counter section as an object: the `(name, value)`
    /// pairs of a counter table's `fields()`, in order.
    pub fn counters(&mut self, fields: &[(&str, u64)]) -> &mut Self {
        self.begin_obj();
        for &(name, n) in fields {
            self.key(name).uint(n);
        }
        self.end_obj()
    }
}

/// Whether `b` is written escaped inside a JSON string: a quote, a
/// backslash or a control byte.
fn needs_escape(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

/// Writes `s` as a JSON string literal (quotes included) into `out`,
/// copying each run of bytes that needs no escape with one `push_str`.
fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !needs_escape(b) {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Appends the decimal digits of `n`.
fn push_digits(out: &mut String, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("decimal digits are ASCII"));
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut buf = String::new();
        JsonWriter::new(&mut buf).value(self);
        f.write_str(&buf)
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
    fn the_writer_separates_and_escapes() {
        let mut line = String::new();
        let mut w = JsonWriter::new(&mut line);
        w.begin_obj();
        w.key("op").str("nka_eq");
        w.key("span")
            .begin_arr()
            .uint(3u64)
            .uint(usize::MAX)
            .end_arr();
        w.key("expr").display(&"a \"b\"\u{1}");
        w.key("n").int(i64::MIN).key("none").null();
        w.key("empty").begin_obj().end_obj();
        w.end_obj();
        assert_eq!(
            line,
            r#"{"op":"nka_eq","span":[3,9223372036854775807],"expr":"a \"b\"\u0001","n":-9223372036854775808,"none":null,"empty":{}}"#
        );
        assert_eq!(Json::parse(&line).unwrap().to_string(), line);
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.get("a").and_then(Json::as_array).unwrap().len(), 2);
    }
}
