//! JSON for `.json` campaign files, JSONL trace imports and the
//! canonical-JSON spill, metrics and state files: [`parse_json`] reads,
//! [`to_json`] writes.

use crate::toml::TomlError;
use serde::{Deserialize, Emitter, Serialize, Value};
use std::fmt::Write;

/// Serialize `value` as one line of canonical JSON.
///
/// The writer streams `value`'s [`emit`](Serialize::emit) events straight
/// to text, with no [`Value`] tree in between. The spill sink (JSONL
/// result/manifest lines), the metrics sink (event lines) and state files
/// write through it; [`write_json`] is the same writer fed from an
/// already-built tree. Canonical means deterministic bytes for a given
/// value — fields in emit order, no whitespace, shortest-round-trip float
/// formatting — so identical results serialize to identical lines and a
/// resumed run's output can be compared byte-for-byte against an
/// uninterrupted one.
///
/// The round trip through [`parse_json`] is exact: floats use Rust's
/// shortest-round-trip `Display` (integral floats like `2.0` print as
/// `2` and come back as [`Value::Int`], which the shim's `f64`
/// deserializer accepts losslessly; `-0.0` is special-cased to `-0.0`
/// so the sign survives the int path). Non-finite floats have no JSON
/// encoding and are an error.
pub fn to_json<T: Serialize + ?Sized>(value: &T) -> Result<String, String> {
    let mut out = String::new();
    to_json_into(value, &mut out)?;
    Ok(out)
}

/// [`to_json`] appending to `out`, so a caller writing many lines can
/// reuse one buffer. On error `out` holds a partial line.
pub(crate) fn to_json_into<T: Serialize + ?Sized>(
    value: &T,
    out: &mut String,
) -> Result<(), String> {
    let mut writer = JsonWriter {
        out,
        closers: Vec::new(),
        comma: false,
        error: None,
    };
    value.emit(&mut writer);
    writer.error.map_or(Ok(()), Err)
}

/// Serialize a [`Value`] tree as one line of canonical JSON: [`to_json`]
/// over the tree's events.
pub fn write_json(value: &Value) -> Result<String, String> {
    to_json(value)
}

/// The [`Emitter`] behind [`to_json`].
struct JsonWriter<'a> {
    out: &'a mut String,
    /// The closing bracket of each open container, innermost last.
    closers: Vec<char>,
    /// Whether an item precedes the next one in its container (so a `,`
    /// goes first).
    comma: bool,
    /// The first non-finite float met: [`to_json`]'s error.
    error: Option<String>,
}

impl JsonWriter<'_> {
    /// Start the next item of the current container; returns the output
    /// to write it to.
    fn item(&mut self) -> &mut String {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
        self.out
    }

    fn open(&mut self, open: char, close: char) {
        self.item().push(open);
        self.closers.push(close);
        self.comma = false;
    }
}

impl Emitter for JsonWriter<'_> {
    fn unit(&mut self) {
        self.item().push_str("null");
    }
    fn bool(&mut self, v: bool) {
        let _ = write!(self.item(), "{v}");
    }
    fn int(&mut self, v: i128) {
        let _ = write!(self.item(), "{v}");
    }
    fn float(&mut self, x: f64) {
        if !x.is_finite() {
            self.error
                .get_or_insert_with(|| format!("cannot serialize non-finite float {x} as JSON"));
        }
        if x == 0.0 && x.is_sign_negative() {
            self.item().push_str("-0.0");
        } else {
            let _ = write!(self.item(), "{x}");
        }
    }
    fn str(&mut self, v: &str) {
        write_string(v, self.item());
    }
    fn seq(&mut self, _len: usize) {
        self.open('[', ']');
    }
    fn map(&mut self, _len: usize) {
        self.open('{', '}');
    }
    fn key(&mut self, key: &str) {
        write_string(key, self.item());
        self.out.push(':');
        // The entry's value follows the colon directly.
        self.comma = false;
    }
    fn end(&mut self) {
        let close = self.closers.pop().expect("end emitted with nothing open");
        self.out.push(close);
        self.comma = true;
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse one JSON document; trailing content after the value is an error.
///
/// A hand-rolled parser over [`serde::Value`]: standard JSON with two
/// extensions that cost nothing to accept, `//` line comments and
/// trailing commas (both common in hand-maintained config files). `null`
/// maps to [`Value::Unit`] — the same "absent" encoding the deserializer
/// gives missing keys. Numbers without a fraction or exponent become
/// [`Value::Int`]; everything else becomes [`Value::Float`]. Errors reuse
/// [`TomlError`], so both formats report positions identically
/// (`file:line:col: message`).
pub fn parse_json(src: &str) -> Result<Value, TomlError> {
    let mut p = JsonParser { src, pos: 0 };
    p.skip_filler();
    let v = p.parse_value()?;
    p.skip_filler();
    if let Some(c) = p.peek_char() {
        return Err(p.err(format!("unexpected `{c}` after JSON value")));
    }
    Ok(v)
}

/// Parse one JSON document into `T`: [`parse_json`], then
/// [`Deserialize::from_value`]. Either failure is a one-line message.
pub fn from_json<T: for<'de> Deserialize<'de>>(src: &str) -> Result<T, String> {
    let value = parse_json(src).map_err(|e| e.to_string())?;
    T::from_value(&value).map_err(|e| e.to_string())
}

/// A cursor over the input's bytes. Every token boundary the grammar
/// stops at is an ASCII byte, so slices between them are valid UTF-8;
/// line and column are derived from the byte offset only when an error
/// is built.
struct JsonParser<'a> {
    src: &'a str,
    pos: usize,
}

impl JsonParser<'_> {
    fn bytes(&self) -> &[u8] {
        self.src.as_bytes()
    }

    /// An error at the current position. The column counts characters,
    /// not bytes; a position inside a multi-byte character (after a
    /// failed one-byte match) counts that character as consumed.
    fn err(&self, message: impl Into<String>) -> TomlError {
        let before = &self.bytes()[..self.pos];
        let line_start = before
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        TomlError {
            line: 1 + before.iter().filter(|&&b| b == b'\n').count(),
            col: 1 + before[line_start..]
                .iter()
                .filter(|&&b| b & 0xC0 != 0x80)
                .count(),
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    /// The character at the current position, for diagnostics.
    fn peek_char(&self) -> Option<char> {
        self.src.get(self.pos..)?.chars().next()
    }

    /// Consume one byte. A caller that finds the wrong byte reports the
    /// error after it, as if the whole character were consumed.
    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_filler(&mut self) {
        loop {
            match self.peek() {
                Some(b' ' | b'\t' | b'\n' | b'\r') => self.pos += 1,
                Some(b'/') if self.bytes().get(self.pos + 1) == Some(&b'/') => {
                    while !matches!(self.peek(), None | Some(b'\n')) {
                        self.pos += 1;
                    }
                }
                _ => return,
            }
        }
    }

    fn parse_value(&mut self) -> Result<Value, TomlError> {
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Value::Unit),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            _ => match self.peek_char() {
                Some(c) => Err(self.err(format!("expected JSON value, found `{c}`"))),
                None => Err(self.err("expected JSON value, found end of input")),
            },
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, TomlError> {
        for expected in word.bytes() {
            if self.bump() != Some(expected) {
                return Err(self.err(format!("expected `{word}`")));
            }
        }
        Ok(value)
    }

    fn parse_object(&mut self) -> Result<Value, TomlError> {
        self.pos += 1; // '{'
        let mut entries: Vec<(String, Value)> = Vec::new();
        loop {
            self.skip_filler();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Map(entries));
            }
            let key = self.parse_string()?;
            if entries.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate key `{key}`")));
            }
            self.skip_filler();
            if self.bump() != Some(b':') {
                return Err(self.err("expected `:` after object key"));
            }
            self.skip_filler();
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_filler();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, TomlError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        loop {
            self.skip_filler();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Seq(items));
            }
            items.push(self.parse_value()?);
            self.skip_filler();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, TomlError> {
        if self.bump() != Some(b'"') {
            return Err(self.err("expected string"));
        }
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one slice.
            let run = self.bytes()[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\');
            let Some(run) = run else {
                self.pos = self.src.len();
                return Err(self.err("unterminated string"));
            };
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run + 1;
            if self.bytes()[self.pos - 1] == b'"' {
                return Ok(out);
            }
            let Some(c) = self.peek_char() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += c.len_utf8();
            match c {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'r' => out.push('\r'),
                'b' => out.push('\u{8}'),
                'f' => out.push('\u{c}'),
                '/' => out.push('/'),
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'u' => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        let d = self
                            .bump()
                            .and_then(|b| char::from(b).to_digit(16))
                            .ok_or_else(|| self.err("bad \\u escape: expected 4 hex digits"))?;
                        code = code * 16 + d;
                    }
                    out.push(
                        char::from_u32(code)
                            .ok_or_else(|| self.err("bad \\u escape: invalid code point"))?,
                    );
                }
                c => return Err(self.err(format!("unknown escape `\\{c}`"))),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, TomlError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let tok = &self.src[start..self.pos];
        if !tok.contains(['.', 'e', 'E']) {
            if let Ok(n) = tok.parse::<i128>() {
                return Ok(Value::Int(n));
            }
        }
        tok.parse::<f64>()
            .ok()
            .filter(|f| f.is_finite())
            .map(Value::Float)
            .ok_or_else(|| self.err(format!("bad number `{tok}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_arrays_scalars() {
        let v = parse_json(
            r#"{
  // campaign header
  "seed": 53710, "name": "sweep",
  "loads": [0.5, 1.0, 1.5],
  "cluster": {"nodes": 4, "gpus_per_node": 16},
  "note": null,
}"#,
        )
        .expect("parse failed");
        assert_eq!(v.get("seed"), Some(&Value::Int(53710)));
        assert_eq!(v.get("note"), Some(&Value::Unit));
        assert_eq!(
            v.get("cluster").and_then(|c| c.get("gpus_per_node")),
            Some(&Value::Int(16))
        );
        assert_eq!(
            v.get("loads"),
            Some(&Value::Seq(vec![
                Value::Float(0.5),
                Value::Float(1.0),
                Value::Float(1.5)
            ]))
        );
    }

    #[test]
    fn errors_carry_position() {
        let err = parse_json("{\n  \"a\": 1\n  \"b\": 2\n}").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("expected `,` or `}`"), "{err}");

        let err = parse_json("{\"a\": }").unwrap_err();
        assert!(err.message.contains("expected JSON value"), "{err}");

        let err = parse_json("{\"a\": 1} trailing").unwrap_err();
        assert!(err.message.contains("after JSON value"), "{err}");
    }

    #[test]
    fn error_columns_count_characters_not_bytes() {
        // `é` is two bytes and `€` three; each error lands after the
        // character that broke the grammar.
        let err = parse_json("{\"é\": tru}").unwrap_err();
        assert_eq!((err.line, err.col), (1, 11), "{err}");
        let err = parse_json("{\"a\": 1,\n \"€\" 2}").unwrap_err();
        assert_eq!((err.line, err.col), (2, 7), "{err}");
        assert!(err.message.contains("expected `:`"), "{err}");
    }

    #[test]
    fn duplicate_keys_error() {
        let err = parse_json(r#"{"a": 1, "a": 2}"#).unwrap_err();
        assert!(err.message.contains("duplicate key `a`"), "{err}");
    }

    #[test]
    fn numbers_classify_int_vs_float() {
        let v = parse_json(r#"{"i": -12, "f": 2.5, "e": 1e3}"#).expect("parse failed");
        assert_eq!(v.get("i"), Some(&Value::Int(-12)));
        assert_eq!(v.get("f"), Some(&Value::Float(2.5)));
        assert_eq!(v.get("e"), Some(&Value::Float(1000.0)));
    }

    #[test]
    fn string_escapes() {
        let v = parse_json(r#"{"s": "a\nbA\"c\""}"#).expect("parse failed");
        assert_eq!(v.get("s"), Some(&Value::Str("a\nbA\"c\"".into())));
    }

    #[test]
    fn write_json_is_single_line_canonical() {
        let v = Value::Map(vec![
            ("name".into(), Value::Str("sweep\n\"x\"".into())),
            ("seed".into(), Value::Int(53710)),
            (
                "loads".into(),
                Value::Seq(vec![Value::Float(0.5), Value::Float(1.0)]),
            ),
            ("note".into(), Value::Unit),
            ("ok".into(), Value::Bool(true)),
        ]);
        let line = write_json(&v).expect("write failed");
        assert_eq!(
            line,
            r#"{"name":"sweep\n\"x\"","seed":53710,"loads":[0.5,1],"note":null,"ok":true}"#
        );
        assert!(!line.contains('\n'), "{line}");
    }

    #[test]
    fn write_json_round_trips_exactly() {
        // Floats that print without a fraction come back as Int; the shim's
        // f64 deserializer accepts Int, so struct round trips stay exact.
        for x in [
            0.0,
            -0.0,
            2.0,
            0.1,
            1.0 / 3.0,
            f64::MAX,
            f64::MIN_POSITIVE,
            -123456.789e12,
        ] {
            let line = write_json(&Value::Float(x)).expect("write failed");
            let back = match parse_json(&line).expect("reparse failed") {
                Value::Float(f) => f,
                Value::Int(i) => i as f64,
                other => panic!("float serialized as {other:?}"),
            };
            assert_eq!(x.to_bits(), back.to_bits(), "{x} → {line} → {back}");
        }
        // Structures round-trip to identical bytes.
        let v = parse_json(r#"{"a": [1, 2.5, "s"], "b": {"c": null}}"#).unwrap();
        let line = write_json(&v).unwrap();
        assert_eq!(write_json(&parse_json(&line).unwrap()).unwrap(), line);
    }

    #[test]
    fn write_json_rejects_non_finite() {
        assert!(write_json(&Value::Float(f64::NAN)).is_err());
        assert!(write_json(&Value::Float(f64::INFINITY)).is_err());
        let err = to_json(&vec![0.5, f64::NEG_INFINITY, 1.0]).unwrap_err();
        assert_eq!(err, "cannot serialize non-finite float -inf as JSON");
    }

    #[test]
    fn write_json_escapes_control_chars() {
        let line = write_json(&Value::Str("a\u{1}b\tc".into())).unwrap();
        assert_eq!(line, r#""a\u0001b\tc""#);
        assert_eq!(parse_json(&line).unwrap(), Value::Str("a\u{1}b\tc".into()));
    }
}
