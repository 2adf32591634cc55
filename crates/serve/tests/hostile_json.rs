//! Hostile request lines against `json::parse`, the reader every
//! replica and router runs on each line before anything else. Inputs
//! are arbitrary strings, a token soup of JSON punctuation, `\u`
//! escapes followed by zero to five characters, numbers with long
//! exponents, and nesting at `MAX_DEPTH` and one level either side.
//! Nothing may panic. A value the parser accepts must print as text
//! that parses again and prints the same bytes (`1e999` reads as an
//! infinity, and must not print as `inf`). Nesting deeper than
//! `MAX_DEPTH` is refused.

use proptest::prelude::*;
use smgcn_serve::json::{self, Json, MAX_DEPTH};
use smgcn_serve::{FrozenModel, Server, ServerConfig, ServingVocab};
use smgcn_tensor::Matrix;

/// The round-trip property: `text` is refused, or its value prints as
/// JSON that parses back to a value printing the same bytes.
fn round_trips(text: &str) -> Result<(), String> {
    let Ok(value) = json::parse(text) else {
        return Ok(());
    };
    let printed = value.to_string();
    let again = json::parse(&printed)
        .map_err(|e| format!("{text:?} printed as {printed:?}, which fails: {e}"))?;
    prop_assert_eq!(again.to_string(), printed, "from {:?}", text);
    Ok(())
}

const SOUP: [&str; 12] = [
    "{", "}", "[", "]", ":", ",", "\"", "\\", "\"a\"", "1", "null", " ",
];

/// What may follow a `\u`: hex digits of both cases, signs, the
/// characters that end a string or start an escape, and non-ASCII.
const AFTER_U: [char; 14] = [
    '0', '4', '9', 'a', 'F', '+', '-', ' ', '"', '\\', 'g', 'x', 'é', '中',
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn arbitrary_strings_parse_or_are_refused(
        chars in proptest::collection::vec((0u8..4, 0u32..0x11_0000), 0..48),
    ) {
        // Three in four characters printable ASCII, the rest any scalar.
        let text: String = chars
            .iter()
            .map(|&(wide, c)| match wide {
                0 => char::from_u32(c).unwrap_or('\u{fffd}'),
                _ => char::from(b' ' + (c % 95) as u8),
            })
            .collect();
        round_trips(&text)?;
    }

    #[test]
    fn token_soup_parses_or_is_refused(
        tokens in proptest::collection::vec(0usize..SOUP.len(), 0..40),
    ) {
        let text: String = tokens.iter().map(|&t| SOUP[t]).collect();
        round_trips(&text)?;
    }

    #[test]
    fn a_unicode_escape_is_four_hex_digits_or_refused(
        after in proptest::collection::vec(0usize..AFTER_U.len(), 0..=5),
        bare in 0u8..2,
    ) {
        let tail: String = after.iter().map(|&c| AFTER_U[c]).collect();
        let text = if bare == 0 {
            format!("\"\\u{tail}\"")
        } else {
            format!("{{\"symptoms\":[\"\\u{tail}\"]}}")
        };
        round_trips(&text)?;
        let hex = tail.chars().take(4).filter(char::is_ascii_hexdigit).count();
        if hex < 4 {
            prop_assert!(json::parse(&text).is_err(), "{} was accepted", text);
        }
    }

    #[test]
    fn numbers_with_long_exponents_round_trip(
        (minus, digits, int, frac) in (0u8..2, 1u32..20, 0u64..u64::MAX, 0u32..10_000),
        (form, exp) in (0u8..4, 0u32..1_000_000),
    ) {
        // Up to 19 integer digits, a fraction two times in three, and an
        // exponent of up to six digits in one of three spellings.
        let sign = if minus == 1 { "-" } else { "" };
        let int = int % 10u64.pow(digits);
        let frac = if frac % 3 == 0 { String::new() } else { format!(".{frac}") };
        let exp = match form {
            0 => String::new(),
            1 => format!("e{exp}"),
            2 => format!("E+{exp}"),
            _ => format!("e-{exp}"),
        };
        let n = format!("{sign}{int}{frac}{exp}");
        round_trips(&n)?;
        let line = format!("{{\"symptom_ids\":[1],\"k\":{n},\"deadline_ms\":500}}");
        prop_assert!(json::parse(&line).is_ok(), "{} was refused", line);
        round_trips(&line)?;
        round_trips(&format!("[{n},{n}]"))?;
    }

    #[test]
    fn nesting_past_max_depth_is_refused(
        depth in (MAX_DEPTH - 1)..=(MAX_DEPTH + 1),
        shape in proptest::collection::vec(0u8..2, MAX_DEPTH + 1),
        closed in 0u8..4,
    ) {
        // Each level an array or an object; the innermost value a number.
        let (mut open, mut close) = (String::new(), String::new());
        for &object in &shape[..depth] {
            let (o, c) = if object == 1 { ("{\"a\":", "}") } else { ("[", "]") };
            open.push_str(o);
            close.insert_str(0, c);
        }
        let text = if closed == 0 { format!("{open}1") } else { format!("{open}1{close}") };
        let parsed = json::parse(&text);
        if depth > MAX_DEPTH {
            let err = parsed.expect_err("nesting past the bound was accepted");
            prop_assert!(err.contains("nesting deeper than"), "{}", err);
        } else {
            prop_assert_eq!(parsed.is_ok(), closed != 0, "{}", text);
        }
        round_trips(&text)?;
    }
}

/// A generation whose finite weights overflow two herbs' scores to NaN
/// (`inf + -inf`: a model with a NaN weight is refused at the door, an
/// overflow is not) answers `"scores":true` with a line that parses:
/// the NaN scores go out as `null`.
#[test]
fn a_generation_whose_scores_overflow_to_nan_answers_scores_as_json() {
    let symptoms = Matrix::from_fn(3, 4, |r, c| (r + c) as f32 - 1.5);
    // Symptom 1 is [-0.5, 0.5, 1.5, 2.5]: columns 2 and 3 overflow.
    let herbs = Matrix::from_fn(5, 4, |r, c| match (r < 2, c) {
        (true, 2) => 3e38,
        (true, 3) => -3e38,
        (true, _) => 0.0,
        (false, _) => (r * c) as f32,
    });
    let server = Server::bind(
        "127.0.0.1:0",
        FrozenModel::from_parts(symptoms, herbs, None).unwrap(),
        ServingVocab::new(
            (0..3).map(|i| format!("s{i}")).collect(),
            (0..5).map(|i| format!("h{i}")).collect(),
        ),
        ServerConfig::default(),
    )
    .and_then(Server::spawn)
    .unwrap();
    let reply = server
        .client()
        .unwrap()
        .ask(r#"{"symptom_ids":[1],"k":5,"scores":true}"#)
        .unwrap();
    let parsed = json::parse(&reply).unwrap_or_else(|e| panic!("{reply}: {e}"));
    let scores = parsed.get("scores").and_then(Json::as_arr).expect("scores");
    assert_eq!(scores.len(), 5, "{reply}");
    assert_eq!(scores.iter().filter(|s| **s == Json::Null).count(), 2);
}
