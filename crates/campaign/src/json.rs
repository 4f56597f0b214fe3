//! A minimal, dependency-free JSON codec for the artifact store.
//!
//! Only what campaign artifacts need: objects, arrays, strings,
//! finite numbers, booleans and null. Two properties matter more than
//! generality:
//!
//! * **Deterministic encoding** — objects are `BTreeMap`s (sorted
//!   keys) and floats use Rust's shortest-round-trip `{}` formatting,
//!   so the same value always produces the same bytes. The resumable
//!   store and the `--jobs 1` vs `--jobs N` determinism test depend
//!   on this.
//! * **Total decoding** — the parser returns `Err` on malformed
//!   input, never panics, so a truncated artifact from an interrupted
//!   run is detected and the job simply re-runs. Nesting deeper than
//!   32 levels is an error too, so a corrupt file cannot overflow
//!   a worker thread's stack.
//!
//! Non-finite floats have no JSON representation; they encode as
//! `null` and decode back to NaN (the artifact schema only stores
//! metric values, where NaN means "not measured").

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Deepest array/object nesting [`Value::parse`] accepts. Artifacts
/// nest 3 deep (object → `series` → array); the bound keeps the
/// recursive parser's stack use small on arbitrary input.
const MAX_DEPTH: usize = 32;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null` (also the encoding of non-finite numbers).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; `BTreeMap` keeps encoding order deterministic.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Encode to a compact JSON string.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => {
                if n.is_finite() {
                    // Shortest representation that round-trips; `{}`
                    // on f64 is deterministic across platforms.
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_string(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a JSON document (must consume all non-whitespace input).
    pub fn parse(input: &str) -> Result<Value, String> {
        let bytes = input.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(v)
    }

    /// Convenience: the object map, or `None` for other variants.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Convenience: the number (NaN for `null`), or `None` otherwise.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            Value::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// Convenience: the boolean, or `None` for other variants.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Convenience: the string slice, or `None` for other variants.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Convenience: the array items, or `None` for other variants.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at offset {pos}", pos = *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'[' | b'{')) && depth >= MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} at offset {pos}",
            pos = *pos
        ));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(b, pos, "null").map(|()| Value::Null),
        Some(b't') => expect(b, pos, "true").map(|()| Value::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|()| Value::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Value::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at offset {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(map));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, ":")?;
                let val = parse_value(b, pos, depth + 1)?;
                map.insert(key, val);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(map));
                    }
                    _ => return Err(format!("expected `,` or `}}` at offset {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(b, pos),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at offset {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        // Artifacts never emit surrogate pairs; map
                        // lone surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err("bad escape".into()),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or escape. Both are
                // ASCII, so the run ends on a char boundary and only its
                // own bytes are validated.
                let start = *pos;
                while !matches!(b.get(*pos), None | Some(b'"' | b'\\')) {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
        *pos += 1;
    }
    let s = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    match s.parse::<f64>() {
        // `Num` is finite: an overflowing literal like `1e999` is an
        // error, not infinity.
        Ok(n) if n.is_finite() => Ok(Value::Num(n)),
        _ => Err(format!("bad number `{s}` at offset {start}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Value) {
        let enc = v.encode();
        assert_eq!(&Value::parse(&enc).unwrap(), v, "{enc}");
    }

    #[test]
    fn scalar_roundtrips() {
        roundtrip(&Value::Null);
        roundtrip(&Value::Bool(true));
        roundtrip(&Value::Num(0.0));
        roundtrip(&Value::Num(-1.25e-9));
        roundtrip(&Value::Num(1e300));
        roundtrip(&Value::Str("he\"llo\n\\ wörld \u{1}".into()));
    }

    #[test]
    fn raw_multibyte_strings_parse() {
        for s in ["é", "🙂", "a é b 🙂 c", "🙂\"x\\é", "plain ascii"] {
            roundtrip(&Value::Str(s.into()));
        }
        let v = Value::parse("{\"é🙂\":\"🙂é x\"}").unwrap();
        assert_eq!(v.as_obj().unwrap()["é🙂"], Value::Str("🙂é x".into()));
    }

    #[test]
    fn shortest_float_roundtrips_exactly() {
        for &x in &[0.1, 1.0 / 3.0, 99.94999999, f64::MIN_POSITIVE, 1e-300] {
            let enc = Value::Num(x).encode();
            assert_eq!(Value::parse(&enc).unwrap().as_num().unwrap(), x);
        }
    }

    #[test]
    fn nested_roundtrip_and_key_order() {
        let mut obj = BTreeMap::new();
        obj.insert("z".into(), Value::Arr(vec![Value::Num(1.0), Value::Null]));
        obj.insert("a".into(), Value::Str("x".into()));
        let v = Value::Obj(obj);
        // Sorted keys: deterministic bytes.
        assert_eq!(v.encode(), r#"{"a":"x","z":[1,null]}"#);
        roundtrip(&v);
    }

    #[test]
    fn non_finite_encodes_as_null() {
        assert_eq!(Value::Num(f64::NAN).encode(), "null");
        assert_eq!(Value::Num(f64::INFINITY).encode(), "null");
        assert!(Value::parse("null").unwrap().as_num().unwrap().is_nan());
    }

    #[test]
    fn malformed_inputs_error_not_panic() {
        for bad in [
            "", "{", "[1,", "\"abc", "{\"a\"1}", "tru", "nul", "1.2.3", "{} x", "[01,]", "1e999",
        ] {
            assert!(Value::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn deeply_nested_input_errors_not_overflows() {
        let n = 100_000;
        assert!(Value::parse(&"[".repeat(n)).is_err());
        assert!(Value::parse(&"{\"a\":".repeat(n)).is_err());
        // Well-formed but too deep is rejected too; the limit itself parses.
        let nest = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        assert!(Value::parse(&nest(MAX_DEPTH + 1)).is_err());
        assert!(Value::parse(&nest(MAX_DEPTH)).is_ok());
    }

    #[test]
    fn parses_whitespace_and_unicode_escapes() {
        let v = Value::parse(" { \"a\" : [ 1 , \"\\u0041\" ] } ").unwrap();
        let obj = v.as_obj().unwrap();
        assert_eq!(obj["a"].as_arr().unwrap()[1].as_str(), Some("A"));
    }
}
