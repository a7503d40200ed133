//! A small hand-rolled JSON representation for benchmark records.
//!
//! The workspace deliberately carries no serialization dependency (see
//! `vendor/README.md` for the no-registry constraint), and the benchmark
//! driver only needs to *emit* flat records plus *parse* them back in
//! round-trip tests — a ~200-line value type covers both. Object keys keep
//! insertion order so emitted files are stable across runs.

use std::fmt::Write as _;

/// A JSON value. Integers get their own variants so `u64` cycle counters
/// render losslessly (an `f64` would corrupt counts above 2^53).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer (cycle and byte counters).
    UInt(u64),
    /// A finite float (non-finite values render as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value`, returning `self` for chaining.
    ///
    /// # Panics
    ///
    /// Panics when `self` is not an object.
    pub fn set(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(pairs) => pairs.push((key.to_string(), value.into())),
            _ => panic!("Json::set on a non-object"),
        }
        self
    }

    /// Looks up `key` in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64` when it is any numeric variant.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::UInt(v) => Some(*v as f64),
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `u64` when it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            Json::Int(v) => (*v >= 0).then_some(*v as u64),
            _ => None,
        }
    }

    /// The value as `&str` when it is a string.
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

    /// Renders compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders with `indent`-space indentation and trailing newline, for
    /// files meant to be read by humans.
    pub fn render_pretty(&self, indent: usize) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(indent), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Num(v) => {
                if v.is_finite() {
                    // `{:?}` keeps a decimal point or exponent, so the value
                    // parses back as a float.
                    let _ = write!(out, "{v:?}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                items[i].write(out, indent, depth + 1);
            }),
            Json::Obj(pairs) => write_seq(out, indent, depth, '{', '}', pairs.len(), |out, i| {
                write_escaped(out, &pairs[i].0);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                pairs[i].1.write(out, indent, depth + 1);
            }),
        }
    }

    /// Parses a complete JSON document (used by round-trip tests; numbers
    /// parse to `Int`/`UInt` when they have no fraction or exponent).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut pos = 0;
        let value = parse_value(text, &mut pos)?;
        skip_ws(text.as_bytes(), &mut pos);
        if pos != text.len() {
            return Err(format!("trailing input at byte {pos}"));
        }
        Ok(value)
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(n) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', n * (depth + 1)));
        }
        item(out, i);
    }
    if len > 0 {
        if let Some(n) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', n * depth));
        }
    }
    out.push(close);
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

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, token: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(token.as_bytes()) {
        *pos += token.len();
        Ok(())
    } else {
        Err(format!("expected `{token}` at byte {pos}", pos = *pos))
    }
}

fn parse_value(text: &str, pos: &mut usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(text, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(text, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                pairs.push((key, parse_value(text, pos)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    expect(text.as_bytes(), pos, "\"")?;
    let mut out = String::new();
    loop {
        // `pos` only ever advances by whole characters, so this slices the
        // document in O(1) instead of re-validating the rest of it.
        let rest = &text[*pos..];
        let mut chars = rest.char_indices();
        match chars.next() {
            None => return Err("unterminated string".to_string()),
            Some((_, '"')) => {
                *pos += 1;
                return Ok(out);
            }
            Some((_, '\\')) => {
                let (i, esc) = chars.next().ok_or("unterminated escape")?;
                match esc {
                    '"' | '\\' | '/' => out.push(esc),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'b' => out.push('\u{8}'),
                    'f' => out.push('\u{c}'),
                    'u' => {
                        let hex = rest.get(i + 1..i + 5).ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        // Surrogates only arise for chars this writer never
                        // emits; reject rather than mis-decode.
                        let c = char::from_u32(code).ok_or("surrogate \\u escape")?;
                        out.push(c);
                        *pos += 6;
                        continue;
                    }
                    _ => return Err(format!("bad escape `\\{esc}`")),
                }
                *pos += i + esc.len_utf8();
            }
            Some((_, c)) => {
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    if !text.contains(['.', 'e', 'E']) {
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::UInt(v));
        }
        if let Ok(v) = text.parse::<i64>() {
            return Ok(Json::Int(v));
        }
    }
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number `{text}`"))
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::UInt(v)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::UInt(v as u64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}
/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use proptest::TestRng;

    use super::*;

    #[test]
    fn renders_escapes() {
        let j = Json::obj().set("k\"ey", "line\n\ttab\\\u{1}");
        assert_eq!(j.render(), "{\"k\\\"ey\":\"line\\n\\ttab\\\\\\u0001\"}");
    }

    #[test]
    fn roundtrips() {
        let j = Json::obj()
            .set("a", 1u64)
            .set("b", -2i64)
            .set("c", 1.5)
            .set("list", vec![Json::Null, Json::Bool(true), Json::from("s")]);
        for text in [j.render(), j.render_pretty(2)] {
            assert_eq!(Json::parse(text.trim()).unwrap(), j);
        }
    }

    #[test]
    fn large_u64_is_lossless() {
        let v = u64::MAX - 1;
        let j = Json::from(v);
        assert_eq!(Json::parse(&j.render()).unwrap().as_u64(), Some(v));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"abc").is_err());
    }

    #[test]
    fn multibyte_strings_with_escapes_roundtrip() {
        let s = "µs → \"naïve\"\\\n\t\u{1}日本語 😀";
        let j = Json::obj().set("k→y", s).set("after", 7u64);
        assert_eq!(Json::parse(&j.render()).unwrap(), j);
        assert_eq!(
            Json::parse("\"\\u00b5\\/\\b\\f\"").unwrap(),
            Json::from("µ/\u{8}\u{c}")
        );
        for bad in [
            "\"é",
            "\"é\\",
            "\"\\u00",
            "\"\\ud800\"",
            "\"\\x\"",
            "\"\\u00é0\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    /// Random JSON trees nesting arrays and objects up to `depth` levels:
    /// strings with escapes, control characters and multi-byte UTF-8,
    /// integer edge values and finite floats (the vendored proptest has no
    /// recursive combinator).
    struct Tree {
        depth: u32,
    }

    impl Strategy for Tree {
        type Value = Json;
        fn generate(&self, rng: &mut TestRng) -> Json {
            tree(rng, self.depth)
        }
    }

    fn tree(rng: &mut TestRng, depth: u32) -> Json {
        let edge = rng.below(4) == 0;
        match rng.below(if depth == 0 { 6 } else { 8 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.below(2) == 1),
            // Mostly negative, so that most trees are canonical.
            2 if edge => Json::Int([i64::MIN, -1, 0, i64::MAX][rng.below(4) as usize]),
            2 => Json::Int(rng.next_u64() as i64 | i64::MIN),
            3 if edge => Json::UInt([0, 1 << 53, (1 << 53) + 1, u64::MAX][rng.below(4) as usize]),
            3 => Json::UInt(rng.next_u64()),
            4 => Json::Num(float(rng)),
            5 => Json::Str(string(rng)),
            6 => Json::Arr((0..rng.below(4)).map(|_| tree(rng, depth - 1)).collect()),
            _ => Json::Obj(
                (0..rng.below(4))
                    .map(|_| (string(rng), tree(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    fn float(rng: &mut TestRng) -> f64 {
        loop {
            let v = match rng.below(3) {
                0 => f64::from_bits(rng.next_u64()),
                // Short binary fractions, integral values among them.
                1 => (rng.next_u64() as i64 >> 40) as f64 / 8.0,
                _ => [-0.0, 5e-324, f64::MIN_POSITIVE, f64::MAX, f64::MIN][rng.below(5) as usize],
            };
            if v.is_finite() {
                return v;
            }
        }
    }

    fn string(rng: &mut TestRng) -> String {
        (0..rng.below(8))
            .map(|_| match rng.below(4) {
                0 => char::from(b' ' + rng.below(95) as u8),
                1 => char::from(rng.below(0x20) as u8),
                2 => ['"', '\\', '/', '\u{7f}', 'é', '→', '日', '😀'][rng.below(8) as usize],
                _ => char::from_u32(rng.below(0x11_0000) as u32).unwrap_or('\u{fffd}'),
            })
            .collect()
    }

    /// Whether `x` parses back as itself: the parser reads every
    /// non-negative integer as `UInt`.
    fn canonical(x: &Json) -> bool {
        match x {
            Json::Int(v) => *v < 0,
            Json::Arr(items) => items.iter().all(canonical),
            Json::Obj(pairs) => pairs.iter().all(|(_, v)| canonical(v)),
            _ => true,
        }
    }

    proptest! {
        /// `parse` inverts both renderings: the parsed tree renders back to
        /// the same text, and is the tree itself when that is canonical.
        #[test]
        fn parse_inverts_render(x in Tree { depth: 3 }) {
            let compact = x.render();
            let pretty = x.render_pretty(1);
            let from_compact = Json::parse(&compact).map_err(TestCaseError)?;
            let from_pretty = Json::parse(&pretty).map_err(TestCaseError)?;
            prop_assert_eq!(from_compact.render(), compact);
            prop_assert_eq!(from_pretty.render_pretty(1), pretty);
            if canonical(&x) {
                prop_assert_eq!(&from_compact, &x);
                prop_assert_eq!(&from_pretty, &x);
            }
        }
    }
}
