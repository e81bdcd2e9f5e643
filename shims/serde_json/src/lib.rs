//! Offline stand-in for `serde_json`.
//!
//! Converts between JSON text and the vendored `serde` shim's [`Value`]
//! tree: `to_string`/`to_string_pretty` render `Serialize` types, and
//! `from_str` parses with a small recursive-descent parser and rebuilds
//! `Deserialize` types. Number formatting uses Rust's shortest-roundtrip
//! float output, so `f64` values survive a write/read cycle exactly.

use serde::{Deserialize, Serialize, Value};

/// JSON serialization/deserialization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error(e.0)
    }
}

/// Renders a value as compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, None, 0);
    Ok(out)
}

/// Renders a value as two-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, Some(2), 0);
    Ok(out)
}

/// Parses JSON text into any `Deserialize` type.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(T::from_value(&v)?)
}

// ---------------------------------------------------------------- writing

fn write_value(v: &Value, out: &mut String, indent: Option<usize>, level: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => {
            if f.is_finite() {
                // Debug formatting is shortest-roundtrip for floats.
                out.push_str(&format!("{f:?}"));
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_value(item, out, indent, level + 1);
            }
            if !items.is_empty() {
                newline_indent(out, indent, level);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_string(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(item, out, indent, level + 1);
            }
            if !entries.is_empty() {
                newline_indent(out, indent, level);
            }
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * level {
            out.push(' ');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
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
}

// ---------------------------------------------------------------- parsing

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                loop {
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Seq(items));
                        }
                        _ => return Err(Error(format!("bad array at byte {}", self.pos))),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    entries.push((key, self.parse_value()?));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Map(entries));
                        }
                        _ => return Err(Error(format!("bad object at byte {}", self.pos))),
                    }
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(Error(format!("unexpected input at byte {}", self.pos))),
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast-forward over plain UTF-8 runs.
            while !matches!(self.peek(), Some(b'"' | b'\\') | None) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error("invalid utf-8 in string".into()))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error("unterminated escape".into()))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.parse_hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: \uXXXX\uXXXX.
                                if !self.eat_keyword("\\u") {
                                    return Err(Error("lone high surrogate".into()));
                                }
                                let lo = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(Error("invalid surrogate pair".into()));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error("invalid \\u escape".into()))?,
                            );
                        }
                        other => {
                            return Err(Error(format!("bad escape `\\{}`", other as char)));
                        }
                    }
                }
                None => return Err(Error("unterminated string".into())),
                _ => unreachable!(),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        let digits = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| Error("truncated \\u escape".into()))?;
        let s = std::str::from_utf8(digits).map_err(|_| Error("bad \\u escape".into()))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| Error("bad \\u escape".into()))?;
        self.pos = end;
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error(format!("bad number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        assert_eq!(to_string(&3u64).unwrap(), "3");
        assert_eq!(to_string(&-5i32).unwrap(), "-5");
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(from_str::<u64>("3").unwrap(), 3);
        assert_eq!(from_str::<i32>(" -5 ").unwrap(), -5);
        assert!(!from_str::<bool>("false").unwrap());
    }

    #[test]
    fn floats_round_trip_exactly() {
        for &x in &[0.1f64, -1.5e-7, std::f64::consts::PI, 1e300, 0.0] {
            let s = to_string(&x).unwrap();
            assert_eq!(from_str::<f64>(&s).unwrap(), x, "via {s}");
        }
        let big = u64::MAX - 1;
        assert_eq!(from_str::<u64>(&to_string(&big).unwrap()).unwrap(), big);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "line\none\t\"quoted\\\" \u{1}μ";
        let json = to_string(&s.to_string()).unwrap();
        assert_eq!(from_str::<String>(&json).unwrap(), s);
        assert_eq!(from_str::<String>(r#""µ😀""#).unwrap(), "µ😀");
    }

    #[test]
    fn vectors_and_options() {
        let v = vec![vec![1u32, 2], vec![], vec![3]];
        let json = to_string(&v).unwrap();
        assert_eq!(from_str::<Vec<Vec<u32>>>(&json).unwrap(), v);
        let o: Option<f32> = None;
        assert_eq!(to_string(&o).unwrap(), "null");
        assert_eq!(from_str::<Option<f32>>("null").unwrap(), None);
        assert_eq!(from_str::<Option<f32>>("2.5").unwrap(), Some(2.5));
    }

    #[test]
    fn pretty_output_reparses() {
        let v = vec![(1u32, 2.5f64), (3, 4.5)];
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains('\n'));
        assert_eq!(from_str::<Vec<(u32, f64)>>(&pretty).unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<u32>("").is_err());
        assert!(from_str::<u32>("12 34").is_err());
        assert!(from_str::<Vec<u32>>("[1, 2").is_err());
        assert!(from_str::<String>("\"abc").is_err());
    }

    #[test]
    fn junk_surrogate_escapes_are_errors_and_valid_pairs_decode() {
        let pair = |hi: u32, lo: u32| from_str::<String>(&format!("\"\\u{hi:04x}\\u{lo:04x}\""));
        // Every high surrogate before a `\u` escape that is not a low one,
        // exhaustively for the two extreme highs and sampled for the rest.
        let not_low = (0..0x1_0000u32).filter(|lo| !(0xDC00..0xE000).contains(lo));
        for lo in not_low {
            for hi in [0xD800, 0xDBFF] {
                let err = pair(hi, lo).unwrap_err();
                assert!(err.to_string().contains("invalid surrogate pair"), "{hi:x} {lo:x}: {err}");
            }
        }
        for hi in 0xD800..0xDC00u32 {
            for lo in [0x0000, 0x0041, 0xD7FF, 0xD800, hi, 0xDBFF, 0xE000, 0xFFFF] {
                assert!(pair(hi, lo).is_err(), "{hi:x} {lo:x}");
            }
            for lo in [0xDC00, 0xDC01, 0xDE00, 0xDFFF] {
                let want: String =
                    char::decode_utf16([hi as u16, lo as u16]).map(|c| c.unwrap()).collect();
                assert_eq!(pair(hi, lo).unwrap(), want, "{hi:x} {lo:x}");
            }
        }
        // A high surrogate alone, or a low one first, is an error too.
        assert!(from_str::<String>(r#""\ud800""#).is_err());
        assert!(from_str::<String>(r#""\ud800\n""#).is_err());
        assert!(from_str::<String>(r#""\udc00\ud800""#).is_err());
    }
}
