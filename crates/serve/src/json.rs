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
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err("nesting too deep".into());
    }
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_obj(b, pos, depth),
        Some(b'[') => parse_arr(b, pos, depth),
        Some(b'"') => parse_str(b, pos).map(Json::Str),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len()
        && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let tok = std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad utf-8".to_string())?;
    tok.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number '{tok}'"))
}

fn parse_str(b: &[u8], pos: &mut usize) -> Result<String, String> {
    *pos += 1; // opening quote
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
            Some(_) => {
                // copy one UTF-8 scalar (multi-byte sequences included)
                let s = std::str::from_utf8(&b[*pos..]).map_err(|_| "bad utf-8")?;
                let c = s.chars().next().ok_or("unterminated string")?;
                if (c as u32) < 0x20 {
                    return Err("raw control character in string".into());
                }
                out.push(c);
                *pos += c.len_utf8();
            }
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

fn parse_arr(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut out = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(out));
    }
    loop {
        out.push(parse_value(b, pos, depth + 1)?);
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

fn parse_obj(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
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
        let key = parse_str(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err("expected ':' after key".into());
        }
        *pos += 1;
        let value = parse_value(b, pos, depth + 1)?;
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
            "\"unterminated", "\"bad \\q escape\"",
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
