//! The benchmark's own JSON: an emitter for its result lines and span
//! file, and scanners that pull single fields out of the program's
//! response lines. Neither touches `smgcn_serve::json`, so the program
//! may change how it represents JSON without breaking the client.

use std::fmt::Write as _;

/// Appends `s` as a JSON string literal.
pub fn push_str_literal(out: &mut String, s: &str) {
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

/// A JSON number with all its digits; `null` for NaN and infinities,
/// which JSON cannot carry.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// One JSON object, built member by member.
#[derive(Default)]
pub struct Obj(String);

impl Obj {
    fn key(&mut self, key: &str) {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        push_str_literal(&mut self.0, key);
        self.0.push(':');
    }

    pub fn num(mut self, key: &str, v: f64) -> Self {
        self.key(key);
        self.0.push_str(&number(v));
        self
    }

    pub fn str(mut self, key: &str, v: &str) -> Self {
        self.key(key);
        push_str_literal(&mut self.0, v);
        self
    }

    /// A member whose value is already JSON text (`true`, an object).
    pub fn raw(mut self, key: &str, json: &str) -> Self {
        self.key(key);
        self.0.push_str(json);
        self
    }

    pub fn finish(mut self) -> String {
        if self.0.is_empty() {
            self.0.push('{');
        }
        self.0.push('}');
        self.0
    }
}

/// The text after `"key":` in a response line, if the key is there.
fn after<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    line.find(&needle).map(|at| &line[at + needle.len()..])
}

/// A numeric member of a response line. The first occurrence counts;
/// the program's objects keep their keys sorted, and the benchmark's
/// names never contain a quoted key.
pub fn field_num(line: &str, key: &str) -> Option<f64> {
    let rest = after(line, key)?;
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

pub fn field_bool(line: &str, key: &str) -> Option<bool> {
    let rest = after(line, key)?;
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// A member that is an array of non-negative integers.
pub fn field_ids(line: &str, key: &str) -> Option<Vec<u32>> {
    let rest = after(line, key)?.strip_prefix('[')?;
    let body = &rest[..rest.find(']')?];
    if body.is_empty() {
        return Some(Vec::new());
    }
    body.split(',').map(|n| n.trim().parse().ok()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emitter_escapes_strings_and_keeps_digits() {
        let line = Obj::default()
            .str("na\"me", "a\\b\n\t\u{1}é")
            .num("x", 0.1 + 0.2)
            .num("nan", f64::NAN)
            .raw("ok", "true")
            .finish();
        assert_eq!(
            line,
            "{\"na\\\"me\":\"a\\\\b\\n\\t\\u0001é\",\"x\":0.30000000000000004,\"nan\":null,\"ok\":true}"
        );
        assert_eq!(Obj::default().finish(), "{}");
    }

    #[test]
    fn scanners_read_a_response_line() {
        let line = "{\"cached\":false,\"generation\":3,\"herb_ids\":[12,0,752],\"herbs\":[\"herb0012\"],\"micros\":418}";
        assert_eq!(field_ids(line, "herb_ids"), Some(vec![12, 0, 752]));
        assert_eq!(field_bool(line, "cached"), Some(false));
        assert_eq!(field_num(line, "generation"), Some(3.0));
        assert_eq!(field_num(line, "micros"), Some(418.0));
        assert_eq!(field_num(line, "missing"), None);
        assert_eq!(field_ids("{\"herb_ids\":[]}", "herb_ids"), Some(vec![]));
        assert_eq!(
            field_ids("{\"error\":{\"code\":\"overloaded\"}}", "herb_ids"),
            None
        );
    }
}
