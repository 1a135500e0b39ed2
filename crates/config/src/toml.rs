//! A hand-rolled TOML-subset parser and writer over [`serde::Value`]:
//! see [`parse_toml`] for the subset and [`write_toml`] for the layout.

use serde::Value;
use std::fmt::Write as _;

/// A TOML syntax error with a 1-based source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TomlError {
    /// 1-based line of the offending token.
    pub line: usize,
    /// 1-based column of the offending token.
    pub col: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for TomlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for TomlError {}

/// Parse TOML text into a [`Value::Map`] tree.
///
/// No registry access means no `toml` crate, so this module implements
/// the slice of TOML the campaign schema needs — which is most of the
/// everyday language:
///
/// - `key = value` pairs with bare (`[A-Za-z0-9_-]+`) or quoted keys,
///   and dotted key paths (`sim.round_duration = 60.0`)
/// - `[table]` and `[nested.table]` headers
/// - `[[array_of_tables]]` headers, with later `[array_of_tables.sub]`
///   headers attaching to the most recent element
/// - strings with the usual escapes (`\n \t \r \" \\ \uXXXX`)
/// - integers (decimal with `_` separators, `0x`/`0o`/`0b` prefixes),
///   floats (including exponents), booleans
/// - arrays (multi-line, trailing commas) and inline tables
/// - `#` comments everywhere a comment is legal
///
/// Out of scope (the writer never produces them): dates, multi-line
/// strings, `+inf`/`nan` literals.
///
/// All errors carry a **1-based line and column** so `palsim` can print
/// `campaign.toml:12:7: expected '=' after key`. Duplicate keys and
/// re-opened tables are errors, not last-one-wins: a config that says
/// `seed = 1` twice is a bug worth surfacing.
pub fn parse_toml(src: &str) -> Result<Value, TomlError> {
    Parser::new(src).parse_document()
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    col: usize,
}

/// One step of a table path: the key, plus whether an array-of-tables
/// element is meant (navigate to the *last* element of the array).
#[derive(Debug, Clone)]
struct PathSeg {
    key: String,
    into_array: bool,
}

impl Parser {
    fn new(src: &str) -> Self {
        Parser {
            chars: src.chars().collect(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn err(&self, message: impl Into<String>) -> TomlError {
        TomlError {
            line: self.line,
            col: self.col,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    /// Skip spaces and tabs (not newlines).
    fn skip_inline_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t')) {
            self.bump();
        }
    }

    /// Skip whitespace, newlines, and comments — the filler legal
    /// between top-level expressions and inside arrays.
    fn skip_filler(&mut self) {
        loop {
            match self.peek() {
                Some(' ' | '\t' | '\n' | '\r') => {
                    self.bump();
                }
                Some('#') => {
                    while !matches!(self.peek(), None | Some('\n')) {
                        self.bump();
                    }
                }
                _ => return,
            }
        }
    }

    /// After a value or header: only trailing whitespace, an optional
    /// comment, then end-of-line or end-of-file.
    fn expect_line_end(&mut self) -> Result<(), TomlError> {
        self.skip_inline_ws();
        if self.peek() == Some('#') {
            while !matches!(self.peek(), None | Some('\n')) {
                self.bump();
            }
        }
        match self.peek() {
            None => Ok(()),
            Some('\n') => {
                self.bump();
                Ok(())
            }
            Some('\r') => {
                self.bump();
                if self.peek() == Some('\n') {
                    self.bump();
                }
                Ok(())
            }
            Some(c) => Err(self.err(format!("unexpected `{c}` after value"))),
        }
    }

    fn parse_document(&mut self) -> Result<Value, TomlError> {
        let mut root = Value::Map(Vec::new());
        // Path from the root to the table key-value lines currently land
        // in; empty means the root table itself.
        let mut current: Vec<PathSeg> = Vec::new();
        // Explicitly-opened `[header]` paths, to reject re-opening.
        let mut opened: Vec<String> = Vec::new();
        loop {
            self.skip_filler();
            match self.peek() {
                None => return Ok(root),
                Some('[') => {
                    let (path, is_array) = self.parse_header()?;
                    let joined = header_identity(&root, &path);
                    if is_array {
                        self.open_array_element(&mut root, &path)?;
                    } else {
                        if opened.contains(&joined) {
                            return Err(self.err(format!(
                                "table `{}` opened twice",
                                path.iter()
                                    .map(|s| s.key.as_str())
                                    .collect::<Vec<_>>()
                                    .join(".")
                            )));
                        }
                        opened.push(joined);
                        self.open_table(&mut root, &path)?;
                    }
                    current = path;
                    if is_array {
                        current.last_mut().expect("non-empty header").into_array = true;
                    }
                    self.expect_line_end()?;
                }
                Some(_) => {
                    let keys = self.parse_key_path()?;
                    self.skip_inline_ws();
                    if self.bump() != Some('=') {
                        return Err(self.err("expected `=` after key"));
                    }
                    self.skip_inline_ws();
                    let value = self.parse_value()?;
                    self.expect_line_end()?;
                    let table = navigate(&mut root, &current);
                    insert_dotted(table, &keys, value).map_err(|m| self.err(m))?;
                }
            }
        }
    }

    /// `[a.b]` → (path, false); `[[a.b]]` → (path, true).
    fn parse_header(&mut self) -> Result<(Vec<PathSeg>, bool), TomlError> {
        self.bump(); // consume '['
        let is_array = self.peek() == Some('[');
        if is_array {
            self.bump();
        }
        self.skip_inline_ws();
        let keys = self.parse_key_path()?;
        self.skip_inline_ws();
        if self.bump() != Some(']') {
            return Err(self.err("expected `]` closing table header"));
        }
        if is_array && self.bump() != Some(']') {
            return Err(self.err("expected `]]` closing array-of-tables header"));
        }
        Ok((
            keys.into_iter()
                .map(|key| PathSeg {
                    key,
                    into_array: false,
                })
                .collect(),
            is_array,
        ))
    }

    /// `a.b."c d"` → ["a", "b", "c d"].
    fn parse_key_path(&mut self) -> Result<Vec<String>, TomlError> {
        let mut keys = vec![self.parse_key()?];
        loop {
            self.skip_inline_ws();
            if self.peek() == Some('.') {
                self.bump();
                self.skip_inline_ws();
                keys.push(self.parse_key()?);
            } else {
                return Ok(keys);
            }
        }
    }

    fn parse_key(&mut self) -> Result<String, TomlError> {
        match self.peek() {
            Some('"') => self.parse_string(),
            Some(c) if is_bare_key_char(c) => {
                let mut key = String::new();
                while let Some(c) = self.peek() {
                    if is_bare_key_char(c) {
                        key.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
                Ok(key)
            }
            Some(c) => Err(self.err(format!("expected key, found `{c}`"))),
            None => Err(self.err("expected key, found end of file")),
        }
    }

    fn parse_value(&mut self) -> Result<Value, TomlError> {
        match self.peek() {
            Some('"') => Ok(Value::Str(self.parse_string()?)),
            Some('[') => self.parse_array(),
            Some('{') => self.parse_inline_table(),
            Some(c) if c == 't' || c == 'f' || c.is_ascii_digit() || c == '+' || c == '-' => {
                self.parse_scalar_token()
            }
            Some(c) => Err(self.err(format!("expected value, found `{c}`"))),
            None => Err(self.err("expected value, found end of file")),
        }
    }

    fn parse_string(&mut self) -> Result<String, TomlError> {
        self.bump(); // opening quote
        let mut out = String::new();
        loop {
            if matches!(self.peek(), None | Some('\n')) {
                return Err(self.err("unterminated string"));
            }
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some('r') => out.push('\r'),
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .bump()
                                .and_then(|c| c.to_digit(16))
                                .ok_or_else(|| self.err("bad \\u escape: expected 4 hex digits"))?;
                            code = code * 16 + d;
                        }
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| self.err("bad \\u escape: invalid code point"))?,
                        );
                    }
                    Some(c) => return Err(self.err(format!("unknown escape `\\{c}`"))),
                    None => return Err(self.err("unterminated string")),
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, TomlError> {
        self.bump(); // '['
        let mut items = Vec::new();
        loop {
            self.skip_filler();
            if self.peek() == Some(']') {
                self.bump();
                return Ok(Value::Seq(items));
            }
            items.push(self.parse_value()?);
            self.skip_filler();
            match self.peek() {
                Some(',') => {
                    self.bump();
                }
                Some(']') => {
                    self.bump();
                    return Ok(Value::Seq(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn parse_inline_table(&mut self) -> Result<Value, TomlError> {
        self.bump(); // '{'
        let mut entries: Vec<(String, Value)> = Vec::new();
        loop {
            self.skip_filler();
            if self.peek() == Some('}') {
                self.bump();
                return Ok(Value::Map(entries));
            }
            let keys = self.parse_key_path()?;
            self.skip_inline_ws();
            if self.bump() != Some('=') {
                return Err(self.err("expected `=` in inline table"));
            }
            self.skip_inline_ws();
            let value = self.parse_value()?;
            insert_dotted(&mut entries, &keys, value).map_err(|m| self.err(m))?;
            self.skip_filler();
            match self.peek() {
                Some(',') => {
                    self.bump();
                }
                Some('}') => {
                    self.bump();
                    return Ok(Value::Map(entries));
                }
                _ => return Err(self.err("expected `,` or `}` in inline table")),
            }
        }
    }

    /// `true`, `false`, or a number.
    fn parse_scalar_token(&mut self) -> Result<Value, TomlError> {
        let mut tok = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || matches!(c, '_' | '+' | '-' | '.' | 'x' | 'o' | 'b') {
                tok.push(c);
                self.bump();
            } else {
                break;
            }
        }
        match tok.as_str() {
            "true" => return Ok(Value::Bool(true)),
            "false" => return Ok(Value::Bool(false)),
            _ => {}
        }
        let (sign, digits) = match tok.strip_prefix('-') {
            Some(rest) => (-1i128, rest),
            None => (1i128, tok.strip_prefix('+').unwrap_or(&tok)),
        };
        let parse_radix = |s: &str, radix: u32| -> Option<i128> {
            i128::from_str_radix(&s.replace('_', ""), radix).ok()
        };
        let int = if let Some(hex) = digits.strip_prefix("0x") {
            parse_radix(hex, 16)
        } else if let Some(oct) = digits.strip_prefix("0o") {
            parse_radix(oct, 8)
        } else if let Some(bin) = digits.strip_prefix("0b") {
            parse_radix(bin, 2)
        } else if !digits.contains(['.', 'e', 'E']) {
            parse_radix(digits, 10)
        } else {
            None
        };
        if let Some(n) = int {
            return Ok(Value::Int(sign * n));
        }
        let cleaned = tok.replace('_', "");
        cleaned
            .parse::<f64>()
            .ok()
            .filter(|f| f.is_finite())
            .map(Value::Float)
            .ok_or_else(|| self.err(format!("bad number `{tok}`")))
    }

    /// Create (or reuse) the map at `path`, for a `[header]`.
    fn open_table(&mut self, root: &mut Value, path: &[PathSeg]) -> Result<(), TomlError> {
        let mut cursor = root;
        for seg in path {
            let entries = match cursor {
                Value::Map(entries) => entries,
                _ => return Err(self.err(format!("`{}` is not a table", seg.key))),
            };
            if !entries.iter().any(|(k, _)| *k == seg.key) {
                entries.push((seg.key.clone(), Value::Map(Vec::new())));
            }
            let slot = entries
                .iter_mut()
                .find(|(k, _)| *k == seg.key)
                .map(|(_, v)| v)
                .expect("just ensured present");
            cursor = match slot {
                // An existing array of tables: descend into its newest
                // element, per TOML's `[a.b]`-after-`[[a]]` rule.
                Value::Seq(items) => match items.last_mut() {
                    Some(last @ Value::Map(_)) => last,
                    _ => return Err(self.err(format!("`{}` is not a table array", seg.key))),
                },
                other => other,
            };
            if !matches!(cursor, Value::Map(_)) {
                return Err(self.err(format!("key `{}` already holds a value", seg.key)));
            }
        }
        Ok(())
    }

    /// Append a fresh element to the array at `path`, for `[[header]]`.
    fn open_array_element(&mut self, root: &mut Value, path: &[PathSeg]) -> Result<(), TomlError> {
        let (last, parents) = path.split_last().expect("non-empty header path");
        self.open_table(root, parents)?;
        let parent = navigate(
            root,
            &parents
                .iter()
                .map(|s| PathSeg {
                    key: s.key.clone(),
                    into_array: true,
                })
                .collect::<Vec<_>>(),
        );
        match parent.iter_mut().find(|(k, _)| *k == last.key) {
            None => {
                parent.push((last.key.clone(), Value::Seq(vec![Value::Map(Vec::new())])));
                Ok(())
            }
            Some((_, Value::Seq(items))) => {
                items.push(Value::Map(Vec::new()));
                Ok(())
            }
            Some(_) => Err(self.err(format!(
                "key `{}` already holds a non-array value",
                last.key
            ))),
        }
    }
}

fn is_bare_key_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '-'
}

/// Identity of a `[header]` occurrence for duplicate detection: the key
/// path, tagged with the index of the element each traversed
/// array-of-tables currently points at — `[a.sub]` under the second
/// `[[a]]` element is a *different* table than `[a.sub]` under the
/// first, while two bare `[a.sub]` headers in a row collide.
fn header_identity(root: &Value, path: &[PathSeg]) -> String {
    let mut id = String::new();
    let mut cursor = Some(root);
    for seg in path {
        id.push('\u{1f}');
        id.push_str(&seg.key);
        cursor = match cursor {
            Some(Value::Map(entries)) => {
                entries.iter().find(|(k, _)| *k == seg.key).map(|(_, v)| v)
            }
            _ => None,
        };
        if let Some(Value::Seq(items)) = cursor {
            let _ = write!(id, "\u{1f}#{}", items.len());
            cursor = items.last();
        }
    }
    id
}

/// Walk `root` down `path`, descending into the last element of any
/// array-of-tables. Infallible because the path was created by
/// `open_table`/`open_array_element`.
fn navigate<'a>(root: &'a mut Value, path: &[PathSeg]) -> &'a mut Vec<(String, Value)> {
    let mut cursor = root;
    for seg in path {
        let entries = match cursor {
            Value::Map(entries) => entries,
            _ => unreachable!("path established by header"),
        };
        let slot = entries
            .iter_mut()
            .find(|(k, _)| *k == seg.key)
            .map(|(_, v)| v)
            .expect("path established by header");
        cursor = match slot {
            Value::Seq(items) => items.last_mut().expect("array-of-tables is non-empty"),
            other => other,
        };
    }
    match cursor {
        Value::Map(entries) => entries,
        _ => unreachable!("path established by header"),
    }
}

/// Insert `value` at dotted `keys` under `table`, creating intermediate
/// maps; a duplicate final key (or a non-map intermediate) is an error.
fn insert_dotted(
    table: &mut Vec<(String, Value)>,
    keys: &[String],
    value: Value,
) -> Result<(), String> {
    let (last, parents) = keys.split_last().expect("non-empty key path");
    let mut cursor = table;
    for key in parents {
        if !cursor.iter().any(|(k, _)| k == key) {
            cursor.push((key.clone(), Value::Map(Vec::new())));
        }
        let slot = cursor
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .expect("just ensured present");
        cursor = match slot {
            Value::Map(entries) => entries,
            _ => return Err(format!("key `{key}` already holds a value")),
        };
    }
    if cursor.iter().any(|(k, _)| k == last) {
        return Err(format!("duplicate key `{last}`"));
    }
    cursor.push((last.clone(), value));
    Ok(())
}

/// Serialize a [`Value::Map`] tree as TOML in the canonical layout: root
/// scalars first, then `[section]` per top-level map, then `[[name]]` per
/// top-level array-of-maps, with deeper structure as inline tables —
/// chosen so that `parse(write(v))` reproduces `v` up to map entry order
/// ([`Value::eq_unordered`]). Fails on values TOML cannot express:
/// a non-map root, [`Value::Unit`] inside an array, or a non-finite
/// float. `Unit` *map entries* are simply skipped — absent and unit
/// read back identically.
pub fn write_toml(value: &Value) -> Result<String, String> {
    let entries = match value {
        Value::Map(entries) => entries,
        other => return Err(format!("TOML document must be a map, got {other:?}")),
    };
    let mut out = String::new();
    // Pass 1: root-level scalars and plain arrays.
    for (key, v) in entries {
        match v {
            Value::Unit | Value::Map(_) => {}
            Value::Seq(items) if all_maps(items) && !items.is_empty() => {}
            v => {
                let _ = writeln!(out, "{} = {}", bare_or_quoted(key), inline_value(v)?);
            }
        }
    }
    // Pass 2: `[section]` per root-level map.
    for (key, v) in entries {
        if let Value::Map(section) = v {
            if !out.is_empty() {
                out.push('\n');
            }
            let _ = writeln!(out, "[{}]", bare_or_quoted(key));
            write_section_body(&mut out, section)?;
        }
    }
    // Pass 3: `[[name]]` per element of each root-level array of maps.
    for (key, v) in entries {
        if let Value::Seq(items) = v {
            if all_maps(items) && !items.is_empty() {
                for item in items {
                    let section = match item {
                        Value::Map(section) => section,
                        _ => unreachable!("all_maps checked"),
                    };
                    if !out.is_empty() {
                        out.push('\n');
                    }
                    let _ = writeln!(out, "[[{}]]", bare_or_quoted(key));
                    write_section_body(&mut out, section)?;
                }
            }
        }
    }
    Ok(out)
}

fn write_section_body(out: &mut String, entries: &[(String, Value)]) -> Result<(), String> {
    for (key, v) in entries {
        if matches!(v, Value::Unit) {
            continue;
        }
        let _ = writeln!(out, "{} = {}", bare_or_quoted(key), inline_value(v)?);
    }
    Ok(())
}

fn all_maps(items: &[Value]) -> bool {
    items.iter().all(|v| matches!(v, Value::Map(_)))
}

fn bare_or_quoted(key: &str) -> String {
    if !key.is_empty() && key.chars().all(is_bare_key_char) {
        key.to_string()
    } else {
        quote(key)
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04X}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn inline_value(v: &Value) -> Result<String, String> {
    match v {
        Value::Unit => Err("TOML cannot express a unit value here".to_string()),
        Value::Bool(b) => Ok(b.to_string()),
        Value::Int(n) => Ok(n.to_string()),
        Value::Float(f) => {
            if !f.is_finite() {
                return Err(format!("TOML cannot express non-finite float {f}"));
            }
            // `{:?}` keeps a `.0` on integral floats, so the value reads
            // back as Float, not Int.
            Ok(format!("{f:?}"))
        }
        Value::Str(s) => Ok(quote(s)),
        Value::Seq(items) => {
            let rendered: Result<Vec<_>, _> = items.iter().map(inline_value).collect();
            Ok(format!("[{}]", rendered?.join(", ")))
        }
        Value::Map(entries) => {
            let rendered: Result<Vec<_>, _> = entries
                .iter()
                .filter(|(_, v)| !matches!(v, Value::Unit))
                .map(|(k, v)| {
                    Ok::<_, String>(format!("{} = {}", bare_or_quoted(k), inline_value(v)?))
                })
                .collect();
            Ok(format!("{{ {} }}", rendered?.join(", ")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Value {
        parse_toml(src).expect("parse failed")
    }

    #[test]
    fn scalars_tables_and_arrays() {
        let v = parse(
            r#"
# a campaign
seed = 0xD1CE
name = "paper sweep"   # trailing comment
loads = [0.5, 1.0, 1.5]
enabled = true

[cluster]
nodes = 4
gpus_per_node = 16

[sim]
round_duration = 300.0
"#,
        );
        assert_eq!(v.get("seed"), Some(&Value::Int(0xD1CE)));
        assert_eq!(v.get("name"), Some(&Value::Str("paper sweep".into())));
        assert_eq!(
            v.get("loads"),
            Some(&Value::Seq(vec![
                Value::Float(0.5),
                Value::Float(1.0),
                Value::Float(1.5)
            ]))
        );
        let cluster = v.get("cluster").expect("cluster");
        assert_eq!(cluster.get("nodes"), Some(&Value::Int(4)));
        assert_eq!(
            v.get("sim").and_then(|s| s.get("round_duration")),
            Some(&Value::Float(300.0))
        );
    }

    #[test]
    fn array_of_tables_with_subtables() {
        let v = parse(
            r#"
[[scenario]]
tag = "a"

[scenario.trace]
kind = "synergy"

[[scenario]]
tag = "b"
"#,
        );
        let scenarios = match v.get("scenario") {
            Some(Value::Seq(items)) => items,
            other => panic!("expected seq, got {other:?}"),
        };
        assert_eq!(scenarios.len(), 2);
        assert_eq!(scenarios[0].get("tag"), Some(&Value::Str("a".into())));
        assert_eq!(
            scenarios[0].get("trace").and_then(|t| t.get("kind")),
            Some(&Value::Str("synergy".into()))
        );
        assert_eq!(scenarios[1].get("tag"), Some(&Value::Str("b".into())));
        assert_eq!(scenarios[1].get("trace"), None);
    }

    #[test]
    fn inline_tables_and_dotted_keys() {
        let v = parse(
            r#"
trace = { kind = "synergy", params = { num_jobs = 100 } }
sim.sticky = true
sim.round_duration = 60.0
"#,
        );
        assert_eq!(
            v.get("trace").and_then(|t| t.get("kind")),
            Some(&Value::Str("synergy".into()))
        );
        assert_eq!(
            v.get("trace")
                .and_then(|t| t.get("params"))
                .and_then(|p| p.get("num_jobs")),
            Some(&Value::Int(100))
        );
        assert_eq!(
            v.get("sim").and_then(|s| s.get("sticky")),
            Some(&Value::Bool(true))
        );
    }

    #[test]
    fn numbers_in_every_base_and_shape() {
        let v = parse(
            "a = 1_000_000\nb = 0x51A\nc = 0o17\nd = 0b1010\ne = -3\nf = 1.5e3\ng = -0.25\nh = 2e-3\n",
        );
        assert_eq!(v.get("a"), Some(&Value::Int(1_000_000)));
        assert_eq!(v.get("b"), Some(&Value::Int(0x51A)));
        assert_eq!(v.get("c"), Some(&Value::Int(0o17)));
        assert_eq!(v.get("d"), Some(&Value::Int(0b1010)));
        assert_eq!(v.get("e"), Some(&Value::Int(-3)));
        assert_eq!(v.get("f"), Some(&Value::Float(1500.0)));
        assert_eq!(v.get("g"), Some(&Value::Float(-0.25)));
        assert_eq!(v.get("h"), Some(&Value::Float(0.002)));
    }

    #[test]
    fn string_escapes() {
        let v = parse(r#"s = "line\nnext\t\"quoted\" A""#);
        assert_eq!(
            v.get("s"),
            Some(&Value::Str("line\nnext\t\"quoted\" A".into()))
        );
    }

    #[test]
    fn multiline_arrays_with_trailing_comma() {
        let v = parse("xs = [\n  1, # one\n  2,\n  3,\n]\n");
        assert_eq!(
            v.get("xs"),
            Some(&Value::Seq(vec![
                Value::Int(1),
                Value::Int(2),
                Value::Int(3)
            ]))
        );
    }

    #[test]
    fn errors_carry_line_and_column() {
        let err = parse_toml("good = 1\nbad  ! 2\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("expected `=`"), "{err}");
        assert!(err.col > 1, "{err:?}");

        let err = parse_toml("a = \"unterminated\n").unwrap_err();
        assert_eq!(err.line, 1, "{err:?}");

        let err = parse_toml("a = [1, 2\nb = 3").unwrap_err();
        assert!(err.message.contains("array"), "{err}");
    }

    #[test]
    fn duplicate_keys_and_tables_error() {
        let err = parse_toml("a = 1\na = 2\n").unwrap_err();
        assert!(err.message.contains("duplicate key `a`"), "{err}");

        let err = parse_toml("[t]\nx = 1\n[t]\ny = 2\n").unwrap_err();
        assert!(err.message.contains("opened twice"), "{err}");
    }

    #[test]
    fn same_subtable_under_distinct_array_elements_is_fine() {
        // `[s.sub]` under the second `[[s]]` element is a different table
        // than under the first — only a literal re-open collides.
        let v = parse("[[s]]\n[s.sub]\nx = 1\n[[s]]\n[s.sub]\nx = 2\n");
        let items = match v.get("s") {
            Some(Value::Seq(items)) => items,
            other => panic!("expected seq, got {other:?}"),
        };
        assert_eq!(
            items[0].get("sub").and_then(|t| t.get("x")),
            Some(&Value::Int(1))
        );
        assert_eq!(
            items[1].get("sub").and_then(|t| t.get("x")),
            Some(&Value::Int(2))
        );

        let err = parse_toml("[[s]]\n[s.sub]\nx = 1\n[s.sub]\ny = 2\n").unwrap_err();
        assert!(err.message.contains("opened twice"), "{err}");
    }

    #[test]
    fn writer_roundtrips_nested_structure() {
        let doc = Value::Map(vec![
            ("seed".into(), Value::Int(0xD1CE)),
            ("name".into(), Value::Str("paper \"sweep\"".into())),
            (
                "loads".into(),
                Value::Seq(vec![Value::Float(0.5), Value::Float(1.0)]),
            ),
            (
                "cluster".into(),
                Value::Map(vec![
                    ("nodes".into(), Value::Int(4)),
                    ("gpus_per_node".into(), Value::Int(16)),
                    (
                        "labels".into(),
                        Value::Map(vec![("rack".into(), Value::Str("r1".into()))]),
                    ),
                ]),
            ),
            (
                "scenario".into(),
                Value::Seq(vec![
                    Value::Map(vec![
                        ("tag".into(), Value::Str("a".into())),
                        (
                            "trace".into(),
                            Value::Map(vec![("kind".into(), Value::Str("synergy".into()))]),
                        ),
                    ]),
                    Value::Map(vec![("tag".into(), Value::Str("b".into()))]),
                ]),
            ),
        ]);
        let text = write_toml(&doc).expect("write failed");
        let back = parse_toml(&text).expect("reparse failed");
        assert!(doc.eq_unordered(&back), "{text}\n{back:?}");
    }

    #[test]
    fn writer_skips_unit_entries_and_rejects_unit_in_arrays() {
        let doc = Value::Map(vec![
            ("present".into(), Value::Int(1)),
            ("absent".into(), Value::Unit),
        ]);
        let text = write_toml(&doc).expect("write failed");
        assert!(!text.contains("absent"), "{text}");

        let bad = Value::Map(vec![("xs".into(), Value::Seq(vec![Value::Unit]))]);
        assert!(write_toml(&bad).is_err());
        let nan = Value::Map(vec![("x".into(), Value::Float(f64::NAN))]);
        assert!(write_toml(&nan).is_err());
    }

    #[test]
    fn writer_keeps_integral_floats_as_floats() {
        let doc = Value::Map(vec![("x".into(), Value::Float(300.0))]);
        let text = write_toml(&doc).expect("write failed");
        let back = parse_toml(&text).expect("reparse failed");
        assert_eq!(back.get("x"), Some(&Value::Float(300.0)));
    }

    #[test]
    fn empty_seq_of_maps_stays_inline() {
        // An empty array can't be expressed as `[[name]]` blocks; it must
        // (and does) fall back to an inline `name = []`.
        let doc = Value::Map(vec![("scenario".into(), Value::Seq(vec![]))]);
        let text = write_toml(&doc).expect("write failed");
        let back = parse_toml(&text).expect("reparse failed");
        assert!(doc.eq_unordered(&back), "{text}");
    }
}
