//! Minimal JSON reader/writer for the serving protocol.
//!
//! The wire format is newline-delimited JSON objects with a tiny, flat
//! schema (string arrays, number arrays, a few scalar fields), so a
//! ~200-line recursive-descent parser covers it without pulling in a
//! serialisation framework. Numbers parse as `f64`; escapes support the
//! JSON standard set including `\uXXXX` (surrogate pairs excluded —
//! symptom names in this corpus are ASCII identifiers).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys are sorted (BTreeMap) so output is deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as an f64, if numeric. A number too large for an f64
    /// (`1e999`) reads as an infinity.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    fn write(&self, out: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    write!(out, "{}", *n as i64)
                } else if n.is_finite() {
                    write!(out, "{n}")
                } else {
                    // JSON has no spelling for an infinity or a NaN, and
                    // no reader (this one included) accepts Rust's `inf`.
                    out.write_str("null")
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    item.write(out)?;
                }
                out.write_char(']')
            }
            Json::Obj(map) => {
                out.write_char('{')?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    write_escaped(k, out)?;
                    out.write_char(':')?;
                    v.write(out)?;
                }
                out.write_char('}')
            }
        }
    }
}

impl std::fmt::Display for Json {
    /// Serialises to compact JSON text (via `.to_string()`), straight
    /// into the formatter.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.write(f)
    }
}

/// Length of the longest prefix of `b` holding no byte that `stops` a
/// run. Whole 32-byte blocks are tested without an early exit so the
/// compiler can vectorise the test; only the block that holds a stop
/// byte (or the tail) is walked byte by byte. Write `stops` with `|`,
/// not `||`: a short-circuit in it defeats the vectoriser (measured 9x
/// slower on the three-way test of [`write_escaped`]).
pub(crate) fn run_len(b: &[u8], stops: impl Fn(u8) -> bool) -> usize {
    let mut clean = 0;
    for block in b.chunks_exact(32) {
        if block.iter().fold(false, |hit, &c| hit | stops(c)) {
            break;
        }
        clean += 32;
    }
    clean
        + b[clean..]
            .iter()
            .position(|&c| stops(c))
            .unwrap_or(b.len() - clean)
}

/// Writes `s` quoted, copying each run of bytes that need no escape in
/// one piece (a base64 artifact is a single run).
fn write_escaped(s: &str, out: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
    out.write_char('"')?;
    let mut rest = s;
    loop {
        // Every byte that stops a run is ASCII, so the run ends on a
        // character boundary.
        let run = run_len(rest.as_bytes(), |c| (c == b'"') | (c == b'\\') | (c < 0x20));
        out.write_str(&rest[..run])?;
        let Some(&c) = rest.as_bytes().get(run) else {
            break;
        };
        match c {
            b'"' => out.write_str("\\\"")?,
            b'\\' => out.write_str("\\\\")?,
            b'\n' => out.write_str("\\n")?,
            b'\r' => out.write_str("\\r")?,
            b'\t' => out.write_str("\\t")?,
            c => write!(out, "\\u{c:04x}")?,
        }
        rest = &rest[run + 1..];
    }
    out.write_char('"')
}

/// Convenience: an object from key/value pairs.
pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Convenience: a number array from u32 ids.
pub fn id_array(ids: &[u32]) -> Json {
    Json::Arr(ids.iter().map(|&i| Json::Num(i as f64)).collect())
}

/// Convenience: a number array from f32 scores.
pub fn score_array(scores: &[f32]) -> Json {
    Json::Arr(scores.iter().map(|&s| Json::Num(s as f64)).collect())
}

/// Deepest nesting of arrays and objects [`parse`] accepts. The reader
/// descends one stack frame per level and a line may be 64 MiB long, so
/// without a bound one line of `[` overflows the thread's stack — an
/// abort, which nothing catches. Nothing this protocol exchanges comes
/// near the bound: the deepest legal request nests 3 levels.
pub const MAX_DEPTH: usize = 64;

/// Parses one JSON document, rejecting trailing garbage and nesting
/// deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, String> {
    let mut pos = 0usize;
    let value = parse_value(text, &mut pos, 0)?;
    skip_ws(text.as_bytes(), &mut pos);
    if pos != text.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(value)
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
        Err(format!("expected {lit:?} at byte {pos}", pos = *pos))
    }
}

/// The parser walks `text` by byte offset; it keeps the `&str` so that
/// [`parse_string`] can copy slices of it without validating them again.
/// `depth` is the number of arrays and objects open around this value.
fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let b = text.as_bytes();
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'[' | b'{') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos))
        }
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(b, pos, "null").map(|_| Json::Null),
        Some(b't') => expect(b, pos, "true").map(|_| Json::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|_| Json::Bool(false)),
        Some(b'"') => parse_string(text, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(text, pos)?;
                skip_ws(b, pos);
                expect(b, pos, ":")?;
                let value = parse_value(text, pos, depth + 1)?;
                map.insert(key, value);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(_) => parse_number(b, pos).map(Json::Num),
    }
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    let b = text.as_bytes();
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        // Copy the whole run up to the next quote or backslash in one
        // piece. Both are ASCII, so the run starts and ends on character
        // boundaries of `text`; `push_str` reserves the run's length, so
        // a string with no escapes (a 1.9 MB artifact) is one allocation.
        let run = run_len(&b[*pos..], |c| (c == b'"') | (c == b'\\'));
        out.push_str(&text[*pos..*pos + run]);
        *pos += run;
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(_) => {
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
                        out.push(unicode_escape(hex)?);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
        }
    }
}

/// The character of a `\u` escape's four bytes, which must be ASCII hex
/// digits: `u32::from_str_radix` alone would take a sign (`\u+041`).
fn unicode_escape(hex: &[u8]) -> Result<char, String> {
    if !hex.iter().all(u8::is_ascii_hexdigit) {
        return Err(format!("bad \\u escape {:?}", String::from_utf8_lossy(hex)));
    }
    let code = hex.iter().fold(0, |code, &c| {
        code << 4 | char::from(c).to_digit(16).unwrap_or(0)
    });
    char::from_u32(code).ok_or_else(|| "surrogate \\u escapes are unsupported".into())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<f64, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map_err(|_| format!("bad number {text:?} at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn round_trips_request_shapes() {
        let text = r#"{"symptoms": ["cough", "fever"], "k": 5}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.get("k").and_then(Json::as_num), Some(5.0));
        let names: Vec<&str> = v
            .get("symptoms")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(names, vec!["cough", "fever"]);
        // Reserialise and reparse: stable.
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn parses_scalars_and_nesting() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("-12.5e1").unwrap(), Json::Num(-125.0));
        assert_eq!(parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(parse("{}").unwrap(), Json::Obj(BTreeMap::new()));
        let nested = parse(r#"{"a": [1, [2, {"b": null}]]}"#).unwrap();
        assert!(nested.get("a").is_some());
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = Json::Str("line\none \"quoted\" \\ tab\there \u{1}".to_string());
        let text = original.to_string();
        assert_eq!(parse(&text).unwrap(), original);
        assert_eq!(parse(r#""A\n""#).unwrap(), Json::Str("A\n".to_string()));
    }

    #[test]
    fn unicode_passthrough() {
        let v = parse("\"发热 咳嗽\"").unwrap();
        assert_eq!(v.as_str(), Some("发热 咳嗽"));
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\"}", "nul", "1 2", "\"abc", "{\"a\":}"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        // (opener, what sits innermost, closer, levels one opener adds)
        let shapes = [
            ("[", "", "]", 1),
            ("{\"a\":", "1", "}", 1),
            ("[{\"a\":", "1", "}]", 2),
        ];
        for (open, innermost, close, levels) in shapes {
            let doc = |depth: usize| {
                let n = depth / levels;
                format!("{}{innermost}{}", open.repeat(n), close.repeat(n))
            };
            assert!(parse(&doc(MAX_DEPTH)).is_ok(), "{open} at the bound");
            let err = parse(&doc(MAX_DEPTH + levels)).unwrap_err();
            assert!(err.contains("nesting deeper than 64"), "{open}: {err}");
        }
        // Unclosed, and far past any stack: refused at level 65, not walked.
        for bomb in ["[".repeat(400 * 1024), "{\"a\":".repeat(100_000)] {
            let err = parse(&bomb).unwrap_err();
            assert!(err.contains("nesting deeper than 64"), "{err}");
        }
    }

    #[test]
    fn non_finite_numbers_serialise_as_null() {
        for n in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            assert_eq!(Json::Num(n).to_string(), "null");
        }
        let line = parse(r#"{"k":1e999,"scores":[-1e999,0.5]}"#).unwrap();
        assert_eq!(line.to_string(), r#"{"k":null,"scores":[null,0.5]}"#);
        assert_eq!(score_array(&[f32::NAN]).to_string(), "[null]");
        assert!(parse(&line.to_string()).is_ok());
    }

    #[test]
    fn a_unicode_escape_takes_exactly_four_hex_digits() {
        assert_eq!(parse(r#""\u0041\u00e9""#).unwrap(), Json::Str("Aé".into()));
        assert_eq!(parse(r#""\u004A\u004a""#).unwrap(), Json::Str("JJ".into()));
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u04g1""#,
            r#""\u041""#,
            r#""\u04"#,
        ] {
            assert!(parse(bad).is_err(), "{bad} should fail");
        }
        let request = parse(r#"{"symptoms":["\u+041"]}"#);
        assert!(request.unwrap_err().contains("bad \\u escape"));
    }

    #[test]
    fn integers_serialise_without_fraction() {
        assert_eq!(Json::Num(5.0).to_string(), "5");
        assert_eq!(Json::Num(5.25).to_string(), "5.25");
        assert_eq!(id_array(&[1, 2, 3]).to_string(), "[1,2,3]");
    }

    /// The per-scalar string parser this module used before the
    /// run-copy one, kept as the parity oracle.
    fn parse_string_per_scalar(b: &[u8], pos: &mut usize) -> Result<String, String> {
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected string at byte {}", *pos));
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
                            out.push(unicode_escape(hex)?);
                            *pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", *pos)),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    let start = *pos;
                    *pos += 1;
                    while *pos < b.len() && (b[*pos] & 0xC0) == 0x80 {
                        *pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?);
                }
            }
        }
    }

    /// The per-character escaper kept as the parity oracle.
    fn write_escaped_per_char(s: &str, out: &mut String) {
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

    /// Pieces that stress run boundaries: escapes, bytes that stop a
    /// run, multi-byte scalars, and plain filler long enough to cross
    /// the 32-byte blocks `run_len` tests at once.
    const PIECES: [&str; 22] = [
        "\"",
        "\\",
        "\\\"",
        "\\\\",
        "\\n",
        "\\/",
        "\\b",
        "\\f",
        "\\u0041",
        "\\u00e9",
        "\\u4e2d",
        "\\ud800",
        "\\u12",
        "\\x",
        "a",
        "é",
        "中",
        "\u{1F33F}",
        "\u{1}",
        "\n",
        "0123456789abcdef0123456789abcde",
        "ABCDEFGHIJKLMNOPQRSTUVWXYZ012345",
    ];

    fn random_text(rng: &mut StdRng, pieces: usize) -> String {
        (0..pieces)
            .map(|_| PIECES[rng.gen_range(0..PIECES.len())])
            .collect()
    }

    #[test]
    fn string_parse_matches_the_per_scalar_oracle() {
        let mut rng = StdRng::seed_from_u64(14);
        for case in 0..10_000 {
            let pieces = rng.gen_range(0..12usize);
            let text = format!("\"{}", random_text(&mut rng, pieces));
            let (mut new_pos, mut old_pos) = (0, 0);
            let new = parse_string(&text, &mut new_pos);
            let old = parse_string_per_scalar(text.as_bytes(), &mut old_pos);
            assert_eq!(new, old, "case {case}: {text:?}");
            if new.is_ok() {
                assert_eq!(new_pos, old_pos, "case {case}: {text:?}");
            }
        }
    }

    #[test]
    fn escapes_at_every_offset_around_a_block_boundary() {
        // One escape (or multi-byte scalar next to one) placed at each
        // offset 0..=70 of an otherwise plain string.
        for at in 0..=70usize {
            for mid in ["\\n", "\\\"", "é\\\\", "\\u00e9中", "中\\t中"] {
                let text = format!("\"{}{mid}{}\"", "x".repeat(at), "y".repeat(70 - at));
                let (mut new_pos, mut old_pos) = (0, 0);
                assert_eq!(
                    parse_string(&text, &mut new_pos),
                    parse_string_per_scalar(text.as_bytes(), &mut old_pos),
                    "{text:?}"
                );
                assert_eq!(new_pos, text.len());
                assert_eq!(old_pos, text.len());
            }
        }
    }

    #[test]
    fn escaped_write_matches_the_per_char_oracle() {
        let mut rng = StdRng::seed_from_u64(15);
        for case in 0..10_000 {
            // Reuse the pieces as *values*: raw quotes, backslashes,
            // controls and multi-byte scalars all need the right escape.
            let pieces = rng.gen_range(0..12usize);
            let value = random_text(&mut rng, pieces);
            let mut old = String::new();
            write_escaped_per_char(&value, &mut old);
            assert_eq!(Json::Str(value.clone()).to_string(), old, "case {case}");
            assert_eq!(parse(&old).unwrap(), Json::Str(value), "case {case}");
        }
    }

    #[test]
    fn two_megabyte_string_is_one_run_and_one_allocation() {
        let value = "QUJD".repeat(512 * 1024);
        let text = format!("{{\"artifact\":\"{value}\",\"op\":\"publish\"}}");
        let parsed = parse(&text).unwrap();
        let Some(Json::Str(got)) = parsed.get("artifact") else {
            panic!("artifact is a string");
        };
        assert_eq!(*got, value);
        // `push_str` of the single run sized the buffer exactly: no
        // doubling chain left slack behind.
        assert_eq!(got.capacity(), value.len());
        assert_eq!(parsed.to_string(), text);
    }

    fn random_tree(rng: &mut StdRng, depth: usize) -> Json {
        match rng.gen_range(0..if depth == 0 { 4u32 } else { 6 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.gen_bool(0.5)),
            2 => Json::Num((f64::from(rng.gen_range(0..8000u32)) - 4000.0) / 8.0),
            3 => {
                let pieces = rng.gen_range(0..4usize);
                Json::Str(random_text(rng, pieces))
            }
            4 => Json::Arr(
                (0..rng.gen_range(0..4usize))
                    .map(|_| random_tree(rng, depth - 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..rng.gen_range(0..4usize))
                    .map(|_| (random_text(rng, 2), random_tree(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    #[test]
    fn random_trees_round_trip() {
        let mut rng = StdRng::seed_from_u64(16);
        for case in 0..2_000 {
            let tree = random_tree(&mut rng, 4);
            assert_eq!(parse(&tree.to_string()).unwrap(), tree, "case {case}");
        }
    }

    #[test]
    fn parse_never_panics_on_arbitrary_bytes() {
        const PUNCTUATION: &[u8] = b"{}[]\",:\\ntfu0-e.";
        let mut rng = StdRng::seed_from_u64(17);
        let seeds = [
            r#"{"symptoms":["cough","fever"],"k":5,"trace":true}"#,
            r#"{"op":"publish","artifact":"U01HQQ=="}"#,
            r#"[1,-2.5e3,{"a":[null,true,"\u00e9\n"]}]"#,
        ];
        for case in 0..10_000 {
            let bytes: Vec<u8> = if case % 2 == 0 {
                // Raw bytes, biased towards JSON punctuation.
                (0..rng.gen_range(0..64usize))
                    .map(|_| match rng.gen_range(0..4u32) {
                        0 => PUNCTUATION[rng.gen_range(0..PUNCTUATION.len())],
                        _ => rng.gen_range(0..=255u32) as u8,
                    })
                    .collect()
            } else {
                // A valid document with a few bytes overwritten or cut.
                let mut doc = seeds[rng.gen_range(0..seeds.len())].as_bytes().to_vec();
                for _ in 0..rng.gen_range(1..4usize) {
                    let at = rng.gen_range(0..doc.len());
                    doc[at] = rng.gen_range(0..=255u32) as u8;
                }
                doc.truncate(rng.gen_range(0..=doc.len()));
                doc
            };
            // Ok or Err, never a panic; what parses must re-parse.
            if let Ok(value) = parse(&String::from_utf8_lossy(&bytes)) {
                assert_eq!(parse(&value.to_string()).unwrap(), value, "case {case}");
            }
        }
    }

    #[test]
    fn helper_builders() {
        let o = obj([("ok", Json::Bool(true)), ("ids", id_array(&[7]))]);
        assert_eq!(o.to_string(), r#"{"ids":[7],"ok":true}"#);
        assert_eq!(score_array(&[0.5]).to_string(), "[0.5]");
    }
}
