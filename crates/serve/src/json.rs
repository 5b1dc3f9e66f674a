//! Minimal hand-rolled JSON parser for the wire protocol.
//!
//! The workspace is offline-vendored with no serde, so the serving layer
//! parses its one-object-per-line protocol with a small recursive-descent
//! parser over the full JSON grammar (objects, arrays, strings with
//! escapes, numbers, keywords). Rendering reuses the escaping/formatting
//! helpers in [`selearn_obs::json`] so both directions of the wire format
//! live in audited, dependency-free code.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; `BTreeMap` keeps iteration deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value as a finite number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(v) if v.is_finite() => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a slice of array elements, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Member lookup on objects (`None` elsewhere or when absent).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }
}

/// Nesting depth bound: the protocol needs 2 levels; 32 tolerates clients
/// with wrapper layers while keeping hostile deep nesting from recursing.
pub(crate) const MAX_DEPTH: usize = 32;

/// Parses exactly one JSON value spanning the whole input (trailing
/// whitespace allowed). Returns a human-readable error message otherwise.
///
/// Work is linear in the input length: the input is already valid UTF-8,
/// and every delimiter the grammar looks for is ASCII, so the parser walks
/// bytes and copies each string run between delimiters as one `&str`
/// slice, never re-validating the rest of the line.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut pos = 0;
    let value = parse_value(input, &mut pos, 0)?;
    skip_ws(input.as_bytes(), &mut pos);
    if pos != input.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(s: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err("nesting too deep".into());
    }
    skip_ws(s.as_bytes(), pos);
    match s.as_bytes().get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_obj(s, pos, depth),
        Some(b'[') => parse_arr(s, pos, depth),
        Some(b'"') => parse_str(s, pos).map(Json::Str),
        Some(b't') => parse_lit(s, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(s, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(s, pos, "null", Json::Null),
        Some(_) => parse_num(s, pos),
    }
}

fn parse_lit(s: &str, pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if s.as_bytes()[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_num(s: &str, pos: &mut usize) -> Result<Json, String> {
    let b = s.as_bytes();
    let start = *pos;
    while *pos < b.len()
        && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    // ASCII bytes end on a char boundary, so the slice cannot split one
    let tok = &s[start..*pos];
    tok.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number '{tok}'"))
}

fn parse_str(s: &str, pos: &mut usize) -> Result<String, String> {
    let b = s.as_bytes();
    *pos += 1; // opening quote
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote, backslash or control byte in
        // one slice. All three are ASCII, and UTF-8 never uses an ASCII
        // byte inside a multi-byte sequence, so the run ends on a char
        // boundary and every raw control character is one such byte.
        let run = b[*pos..]
            .iter()
            .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
            .map_or(b.len(), |n| *pos + n);
        out.push_str(&s[*pos..run]);
        *pos = run;
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
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let mut code = hex4(b, *pos + 1)?;
                        *pos += 4;
                        // A high surrogate must be followed by an escaped
                        // low one; a lone surrogate of either half is no
                        // character and is refused (`from_u32` below).
                        if (0xd800..0xdc00).contains(&code)
                            && b.get(*pos + 1..*pos + 3) == Some(b"\\u")
                        {
                            let low = hex4(b, *pos + 3)?;
                            if (0xdc00..0xe000).contains(&low) {
                                code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                *pos += 6;
                            }
                        }
                        out.push(char::from_u32(code).ok_or("lone surrogate in \\u escape")?);
                    }
                    _ => return Err("bad escape".into()),
                }
                *pos += 1;
            }
            Some(_) => return Err("raw control character in string".into()),
        }
    }
}

/// The four hex digits of a `\u` escape starting at `at`.
fn hex4(b: &[u8], at: usize) -> Result<u32, String> {
    let hex = b.get(at..at + 4).ok_or("truncated \\u escape")?;
    hex.iter()
        .try_fold(0, |code, &h| Some(code * 16 + char::from(h).to_digit(16)?))
        .ok_or_else(|| "bad \\u escape".into())
}

fn parse_arr(s: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let b = s.as_bytes();
    *pos += 1; // '['
    let mut out = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(out));
    }
    loop {
        out.push(parse_value(s, pos, depth + 1)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(out));
            }
            _ => return Err("expected ',' or ']' in array".into()),
        }
    }
}

fn parse_obj(s: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let b = s.as_bytes();
    *pos += 1; // '{'
    let mut out = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(out));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err("expected object key".into());
        }
        let key = parse_str(s, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err("expected ':' after key".into());
        }
        *pos += 1;
        let value = parse_value(s, pos, depth + 1)?;
        out.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(out));
            }
            _ => return Err("expected ',' or '}' in object".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_protocol_request() {
        let v = parse(r#"{"est":"quadhist","lo":[0.1,0.2],"hi":[0.5,0.6],"id":7}"#).unwrap();
        assert_eq!(v.get("est").and_then(Json::as_str), Some("quadhist"));
        let lo = v.get("lo").and_then(Json::as_arr).unwrap();
        assert_eq!(lo.len(), 2);
        assert_eq!(lo[0].as_num(), Some(0.1));
        assert_eq!(v.get("id").and_then(Json::as_num), Some(7.0));
    }

    #[test]
    fn parses_scalars_and_keywords() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("-1.5e3").unwrap(), Json::Num(-1500.0));
        assert_eq!(parse(r#""a\nbA""#).unwrap(), Json::Str("a\nbA".into()));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "", "{", "[1,", r#"{"a"}"#, r#"{"a":}"#, "nul", "1.2.3", "{} extra",
            "\"unterminated", "\"bad \\q escape\"", "\"abc\u{1}\"", "\"é\u{1f}x\"",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn unicode_escapes_decode_pairs_and_refuse_lone_surrogates() {
        assert_eq!(
            parse(r#""\u00e9\ud83d\ude00""#).unwrap(),
            Json::Str("é😀".into())
        );
        assert_eq!(parse("\"é\\u0041😀\"").unwrap(), Json::Str("éA😀".into()));
        for bad in [
            r#""\ud800""#,
            r#""\udc00""#,
            r#""\ud800\u0041""#,
            r#""\ud800\ud800""#,
            r#""\u+041""#,
            r#""\u12""#,
            r#""\ud800\u12""#,
        ] {
            assert!(parse(bad).is_err(), "accepted {bad}");
        }
    }

    /// Parse time grows linearly with the string length: a 64 KiB `est`
    /// (16× the bytes) must take less than 48× as long as a 4 KiB one;
    /// linear parsing measures ≈14–20×, and a parser that re-validates the
    /// rest of the line per character ≈300×. The bound is a ratio on one
    /// host, so no absolute speed is assumed; each side is the fastest of
    /// nine samples.
    #[test]
    fn string_parse_time_is_linear_in_length() {
        use std::time::{Duration, Instant};
        fn line(bytes: usize) -> String {
            // two-byte characters, so the run copy meets multi-byte UTF-8
            format!(
                r#"{{"est":"{}","lo":[0.1],"hi":[0.2]}}"#,
                "é".repeat(bytes / 2)
            )
        }
        fn fastest(line: &str, parses: usize) -> Duration {
            (0..9)
                .map(|_| {
                    let t0 = Instant::now();
                    for _ in 0..parses {
                        assert!(parse(std::hint::black_box(line)).is_ok());
                    }
                    t0.elapsed()
                })
                .min()
                .unwrap()
        }
        let (short, long) = (line(4 * 1024), line(64 * 1024));
        // 16 short parses cover the bytes of one long parse
        let ratio = 16.0 * fastest(&long, 1).as_secs_f64() / fastest(&short, 16).as_secs_f64();
        assert!(ratio < 48.0, "64 KiB parse took {ratio:.1}x a 4 KiB one");
    }

    #[test]
    fn rejects_hostile_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn nested_structures() {
        let v = parse(r#"{"a":{"b":[1,{"c":null}]},"d":[[]]}"#).unwrap();
        assert!(matches!(v.get("a").and_then(|a| a.get("b")), Some(Json::Arr(_))));
    }
}
