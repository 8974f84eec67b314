//! The workspace's one JSON codec: a small, dependency-free value type
//! with a recursive-descent parser and a deterministic writer, in a
//! pretty ([`Json::pretty`]) and a compact ([`Json::compact`]) layout.
//! Campaign artifacts and reports, the engine's metrics and trace
//! export, and the `BENCH_ooc.json` rows all go through it.
//!
//! Failure artifacts must round-trip **exactly** — in particular 64-bit
//! seeds — so integers get their own variants instead of being squeezed
//! through `f64` (which silently corrupts values above 2⁵³). Every value
//! the parser accepts writes back to text that parses to the same value:
//! numbers beyond `f64` are rejected rather than read as infinity, and
//! nesting is bounded (128 levels) so hostile input cannot overflow the
//! stack.

use std::fmt;

/// The deepest array/object nesting [`Json::parse`] accepts. The deepest
/// document the workspace writes nests 6 levels.
const MAX_DEPTH: usize = 128;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (the common case: seeds, ticks, counts).
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A floating-point number (probabilities).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved so printing is
    /// deterministic.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            Json::I64(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as a `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().map(|v| v as usize)
    }

    /// The value as an `f64` (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::F64(v) => Some(*v),
            Json::U64(v) => Some(*v as f64),
            Json::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as a `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
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

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Serializes on one line: no whitespace between tokens and no
    /// trailing newline.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Writes the value at nesting level `indent` of pretty output, or as
    /// compact output when `indent` is `None`.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        let inner = indent.map(|d| d + 1);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => out.push_str(&v.to_string()),
            Json::I64(v) => out.push_str(&v.to_string()),
            Json::F64(v) => {
                // Keep a decimal point so the value re-parses as F64.
                let s = format!("{v}");
                out.push_str(&s);
                if !s.contains('.') && !s.contains('e') && !s.contains("inf") && !s.contains("NaN")
                {
                    out.push_str(".0");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, inner);
                    item.write(out, inner);
                }
                newline(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, inner);
                    write_escaped(out, k);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    v.write(out, inner);
                }
                newline(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document, requiring the whole input be consumed.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError::at(pos, "trailing characters"));
        }
        Ok(value)
    }
}

/// Starts a new line at nesting level `indent` in pretty output; writes
/// nothing in compact output.
fn newline(out: &mut String, indent: Option<usize>) {
    if let Some(depth) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl JsonError {
    fn at(offset: usize, message: impl Into<String>) -> Self {
        JsonError {
            offset,
            message: message.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), JsonError> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(JsonError::at(*pos, format!("expected '{}'", b as char)))
    }
}

/// Parses one value whose enclosing arrays and objects number `depth`.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth == MAX_DEPTH {
        return Err(JsonError::at(
            *pos,
            format!("nesting deeper than {MAX_DEPTH} levels"),
        ));
    }
    match bytes.get(*pos) {
        None => Err(JsonError::at(*pos, "unexpected end of input")),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(JsonError::at(*pos, "expected ',' or ']'")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(JsonError::at(*pos, "expected ',' or '}'")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(JsonError::at(*pos, format!("expected '{lit}'")))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(JsonError::at(*pos, "unterminated string")),
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
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| JsonError::at(*pos, "truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| JsonError::at(*pos, "bad \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| JsonError::at(*pos, "bad \\u escape"))?;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| JsonError::at(*pos, "bad \\u code point"))?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(JsonError::at(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar.
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && (bytes[*pos] & 0b1100_0000) == 0b1000_0000 {
                    *pos += 1;
                }
                let s = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| JsonError::at(start, "invalid UTF-8"))?;
                out.push_str(s);
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| JsonError::at(start, "invalid number"))?;
    if text.is_empty() || text == "-" {
        return Err(JsonError::at(start, "expected a value"));
    }
    if !is_float {
        if let Some(rest) = text.strip_prefix('-') {
            match rest.parse::<u64>() {
                // `-0` is zero, which `I64` (negative integers) excludes.
                Ok(0) => return Ok(Json::U64(0)),
                Ok(v) if v <= i64::MAX as u64 => return Ok(Json::I64(-(v as i64))),
                _ => {}
            }
        } else if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::U64(v));
        }
    }
    match text.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(Json::F64(v)),
        Ok(_) => Err(JsonError::at(start, "number out of range")),
        Err(_) => Err(JsonError::at(start, "invalid number")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_trailing_garbage() {
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn parses_float_without_losing_intness_of_ints() {
        assert_eq!(Json::parse("42").unwrap(), Json::U64(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::I64(-7));
        assert_eq!(Json::parse("0.5").unwrap(), Json::F64(0.5));
    }

    #[test]
    fn pins_the_pretty_and_compact_layouts() {
        let compact = r#"{"empty_arr":[],"empty_obj":{},"nested":[{"x":1},null],"ratio":2.0,"offset":-3,"say \"hi\"\n":true}"#;
        let doc = Json::parse(compact).unwrap();
        assert_eq!(doc.compact(), compact);
        let pretty = r#"{
  "empty_arr": [],
  "empty_obj": {},
  "nested": [
    {
      "x": 1
    },
    null
  ],
  "ratio": 2.0,
  "offset": -3,
  "say \"hi\"\n": true
}
"#;
        assert_eq!(doc.pretty(), pretty);
    }

    #[test]
    fn every_accepted_value_reparses_from_both_layouts() {
        let texts = [
            "1e999",
            "-1e999",
            "[0, -0, 42, -7, 0.5, -0.0, 1.5E3, 1e308, -1e308, 5e-324, 1e-999]",
            "[18446744073709539270, 18446744073709551615, 18446744073709551616]",
            "[-9223372036854775807, -9223372036854775808, -9223372036854775809]",
            r#"["", "a \"q\" \\ \/ \b\f\n\r\t \u0001 \u00e9 é", true, null]"#,
            r#"{"a": [1, [[]], {}], "a": {"k": []}, "\u0000": {}}"#,
        ];
        for text in texts {
            let Ok(value) = Json::parse(text) else {
                continue;
            };
            for layout in [value.pretty(), value.compact()] {
                assert_eq!(Json::parse(&layout), Ok(value.clone()), "{text}");
            }
        }
    }

    #[test]
    fn rejects_numbers_beyond_f64() {
        for text in ["1e999", "-1e999", "[0.5, 1e400]"] {
            let err = Json::parse(text).unwrap_err();
            assert_eq!(err.message, "number out of range", "{text}");
        }
        assert_eq!(Json::parse("-0"), Ok(Json::U64(0)));
    }

    #[test]
    fn bounds_the_nesting_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        for text in [
            nested(MAX_DEPTH + 1),
            "[".repeat(100_000),
            "{\"k\": ".repeat(100_000),
        ] {
            let err = Json::parse(&text).unwrap_err();
            assert_eq!(err.message, "nesting deeper than 128 levels");
        }
    }
}
