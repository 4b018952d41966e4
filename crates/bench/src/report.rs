//! Machine-readable benchmark reports.
//!
//! The perf trajectory of this repository is tracked by `BENCH_*.json`
//! files emitted by the `perf_report` binary, one per PR that claims a
//! performance win. The build environment has no registry access, so this
//! is a dependency-free JSON value tree with a pretty printer and a
//! small parser (for the `perf_guard` regression gate, which reads the
//! checked-in `BENCH_BASELINE.json` back) — enough for flat metric
//! reports, not a general (de)serializer.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Finite number (non-finite values render as `null`).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for an object.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Convenience constructor for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Pretty-prints with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Renders on a single line with no whitespace — the sweep journal
    /// stores one record per line, so a torn write (crash mid-append)
    /// damages at most the final line.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Writes `self` pretty-printed at indentation `depth`, or compact
    /// with `None`.
    fn write(&self, out: &mut String, depth: Option<usize>) {
        let inner = depth.map(|d| d + 1);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(n) => {
                if !n.is_finite() {
                    out.push_str("null");
                } else if n.fract() == 0.0 && n.abs() < 1e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => Json::write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::newline_indent(out, inner);
                    item.write(out, inner);
                }
                if !items.is_empty() {
                    Json::newline_indent(out, depth);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::newline_indent(out, inner);
                    Json::write_escaped(out, k);
                    out.push_str(if depth.is_some() { ": " } else { ":" });
                    v.write(out, inner);
                }
                if !fields.is_empty() {
                    Json::newline_indent(out, depth);
                }
                out.push('}');
            }
        }
    }

    /// A newline and `depth` levels of indentation when pretty-printing.
    fn newline_indent(out: &mut String, depth: Option<usize>) {
        if let Some(depth) = depth {
            out.push('\n');
            for _ in 0..depth {
                out.push_str("  ");
            }
        }
    }

    /// Looks up a dotted path (`"machine.gskew_ns"`) through nested
    /// objects.
    pub fn get(&self, path: &str) -> Option<&Json> {
        let mut cur = self;
        for key in path.split('.') {
            match cur {
                Json::Obj(fields) => {
                    cur = &fields.iter().find(|(k, _)| k == key)?.1;
                }
                _ => return None,
            }
        }
        Some(cur)
    }

    /// The numeric value at a dotted path, if present.
    pub fn num(&self, path: &str) -> Option<f64> {
        match self.get(path)? {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Parses a JSON document (the subset [`Json::render`] produces,
    /// which is all the report files contain).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.i != p.b.len() {
            return Err(format!("trailing bytes at offset {}", p.i));
        }
        Ok(v)
    }

    fn write_escaped(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at offset {}", c as char, self.i))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("bad array at offset {}", self.i)),
                    }
                }
            }
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let k = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let v = self.value()?;
                    fields.push((k, v));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("bad object at offset {}", self.i)),
                    }
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let start = self.i;
                self.i += 1;
                while self
                    .peek()
                    .is_some_and(|c| c.is_ascii_digit() || b".eE+-".contains(&c))
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.b[start..self.i])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at offset {start}"))
            }
            _ => Err(format!("unexpected byte at offset {}", self.i)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            self.i += 4;
                            out.push(char::from_u32(hex).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(format!("bad escape at offset {}", self.i)),
                    }
                }
                Some(_) => {
                    // Multi-byte UTF-8 passes through unchanged.
                    let start = self.i;
                    while self.peek().is_some_and(|c| c != b'"' && c != b'\\') {
                        self.i += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?,
                    );
                }
            }
        }
    }
}

/// Annotates an I/O error with the path it happened on, mirroring the
/// `TraceError::File { path, source }` shape from `arvi-trace`: every
/// report/journal/event writer surfaces *which* file failed.
pub fn io_error_at(path: &std::path::Path, e: std::io::Error) -> std::io::Error {
    std::io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

/// Reads and parses the JSON document at `path`; the error names the
/// path.
pub fn read_json(path: &std::path::Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}", io_error_at(path, e)))?;
    Json::parse(&text).map_err(|e| format!("{}: malformed JSON: {e}", path.display()))
}

/// Writes `text` to `path`, creating missing parent directories.
/// Errors carry the offending path.
pub fn write_text(path: &std::path::Path, text: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| io_error_at(parent, e))?;
    }
    std::fs::write(path, text).map_err(|e| io_error_at(path, e))
}

/// Writes a rendered JSON report to `path` (parent directories are
/// created; errors carry the path).
pub fn write_report(path: &std::path::Path, value: &Json) -> std::io::Result<()> {
    write_text(path, &value.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_structure() {
        let v = Json::obj([
            ("name", Json::str("ddt")),
            ("speedup", Json::Num(2.5)),
            ("iters", Json::Num(1000.0)),
            ("flags", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("empty", Json::Obj(Vec::new())),
        ]);
        let text = v.render();
        assert!(text.contains("\"speedup\": 2.5"));
        assert!(text.contains("\"iters\": 1000"));
        assert!(text.contains("\"empty\": {}"));
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn escapes_strings() {
        let v = Json::str("a\"b\\c\nd");
        assert_eq!(v.render(), "\"a\\\"b\\\\c\\nd\"\n");
    }

    #[test]
    fn non_finite_numbers_render_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null\n");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null\n");
    }

    #[test]
    fn parse_round_trips_rendered_reports() {
        let v = Json::obj([
            ("pr", Json::Num(4.0)),
            ("title", Json::str("calendar queue \"wheel\"\n")),
            (
                "machine",
                Json::obj([
                    ("gskew_ns", Json::Num(101.5)),
                    ("speedup", Json::Num(1.52)),
                    ("identical", Json::Bool(true)),
                ]),
            ),
            ("list", Json::Arr(vec![Json::Num(-3.0), Json::Null])),
            ("empty_obj", Json::Obj(Vec::new())),
            ("empty_arr", Json::Arr(Vec::new())),
        ]);
        let parsed = Json::parse(&v.render()).expect("round trip");
        assert_eq!(parsed, v);
    }

    #[test]
    fn compact_rendering_is_single_line_and_round_trips() {
        let v = Json::obj([
            ("name", Json::str("li")),
            ("acc", Json::Arr(vec![Json::Num(3.0), Json::Num(7.0)])),
            ("nested", Json::obj([("cycles", Json::Num(12345.0))])),
        ]);
        let line = v.render_compact();
        assert!(!line.contains('\n'));
        assert_eq!(Json::parse(&line).expect("round trip"), v);
    }

    #[test]
    fn dotted_path_lookup() {
        let v = Json::obj([("machine", Json::obj([("gskew_ns", Json::Num(99.25))]))]);
        assert_eq!(v.num("machine.gskew_ns"), Some(99.25));
        assert_eq!(v.num("machine.missing"), None);
        assert_eq!(v.num("machine"), None);
        assert!(v.get("machine").is_some());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }
}
