//! Property tests for the JSON layer: random documents survive
//! render → parse unchanged, and the renderer's bytes match a reference
//! renderer that escapes character by character and formats through
//! temporary strings — the straightforward form the optimized writer
//! must stay byte-identical to. Rendering into any sink is rendering:
//! a `String` sink gets the same text, an FNV-1a sink the text's hash.
//! The field decoder never panics on any
//! value or key, and its count rule is exactly `as_u64` plus `try_from`.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use scaledeep_trace::json::{parse, Json};
use scaledeep_trace::{fnv1a, Fnv1aWriter, FNV1A_OFFSET};
use std::fmt::Write;

/// Strings mixing every escaped character, other control characters,
/// multi-byte UTF-8 (up to four bytes, including U+FFFD and U+10FFFF)
/// and long plain runs.
#[derive(Debug, Clone, Copy)]
struct AnyStr;

impl Strategy for AnyStr {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        const PIECES: &[&str] = &[
            "a",
            "Z9 ",
            "\"",
            "\\",
            "/",
            "\n",
            "\t",
            "\r",
            "\u{8}",
            "\u{c}",
            "\u{0}",
            "\u{1f}",
            "\u{7f}",
            "é",
            "€",
            "😀",
            "\u{fffd}",
            "\u{2028}",
            "\u{10ffff}",
        ];
        let mut s = String::new();
        for _ in 0..rng.below(12) {
            if rng.below(8) == 0 {
                s.push_str(&"plain".repeat(rng.below(1000)));
            } else {
                s.push_str(PIECES[rng.below(PIECES.len())]);
            }
        }
        s
    }
}

/// Finite numbers: small and 2^53-boundary integers, and arbitrary bit
/// patterns (fractions, huge and subnormal magnitudes).
fn any_num(rng: &mut TestRng) -> f64 {
    let n = match rng.below(3) {
        0 => rng.below(2_000_001) as f64 - 1e6,
        1 => 9_007_199_254_740_992.0 + rng.below(5) as f64 - 2.0,
        _ => f64::from_bits(rng.next_u64()),
    };
    let n = if rng.bool() { -n } else { n };
    if n.is_finite() {
        n
    } else {
        0.5
    }
}

/// JSON trees nesting arrays and objects up to `depth` levels.
#[derive(Debug, Clone, Copy)]
struct AnyJson {
    depth: usize,
}

impl Strategy for AnyJson {
    type Value = Json;

    fn generate(&self, rng: &mut TestRng) -> Json {
        let kinds = if self.depth == 0 { 4 } else { 6 };
        let child = AnyJson {
            depth: self.depth.saturating_sub(1),
        };
        match rng.below(kinds) {
            0 => Json::Null,
            1 => Json::Bool(rng.bool()),
            2 => Json::Num(any_num(rng)),
            3 => Json::Str(AnyStr.generate(rng)),
            4 => Json::Arr((0..rng.below(5)).map(|_| child.generate(rng)).collect()),
            _ => Json::Obj(
                (0..rng.below(5))
                    .map(|_| (AnyStr.generate(rng), child.generate(rng)))
                    .collect(),
            ),
        }
    }
}

fn reference_escaped(s: &str) -> String {
    let mut e = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => e.push_str("\\\""),
            '\\' => e.push_str("\\\\"),
            '\n' => e.push_str("\\n"),
            '\t' => e.push_str("\\t"),
            '\r' => e.push_str("\\r"),
            '\u{8}' => e.push_str("\\b"),
            '\u{c}' => e.push_str("\\f"),
            c if (c as u32) < 0x20 => e.push_str(&format!("\\u{:04x}", c as u32)),
            c => e.push(c),
        }
    }
    e + "\""
}

fn reference_render(v: &Json, indent: Option<usize>, depth: usize, out: &mut String) {
    let (nl, pad, pad_in) = match indent {
        Some(w) => ("\n", " ".repeat(w * depth), " ".repeat(w * (depth + 1))),
        None => ("", String::new(), String::new()),
    };
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(&b.to_string()),
        Json::Num(n) if !n.is_finite() => out.push_str("null"),
        Json::Num(n) if n.fract() == 0.0 && n.abs() < 9_007_199_254_740_992.0 => {
            out.push_str(&format!("{}", *n as i64))
        }
        Json::Num(n) => out.push_str(&format!("{n:?}")),
        Json::Str(s) => out.push_str(&reference_escaped(s)),
        Json::Arr(items) if items.is_empty() => out.push_str("[]"),
        Json::Obj(fields) if fields.is_empty() => out.push_str("{}"),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                out.push_str(if i > 0 { "," } else { "" });
                out.push_str(nl);
                out.push_str(&pad_in);
                reference_render(item, indent, depth + 1, out);
            }
            out.push_str(nl);
            out.push_str(&pad);
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                out.push_str(if i > 0 { "," } else { "" });
                out.push_str(nl);
                out.push_str(&pad_in);
                out.push_str(&reference_escaped(k));
                out.push_str(if indent.is_some() { ": " } else { ":" });
                reference_render(item, indent, depth + 1, out);
            }
            out.push_str(nl);
            out.push_str(&pad);
            out.push('}');
        }
    }
}

fn reference(v: &Json, indent: Option<usize>) -> String {
    let mut out = String::new();
    reference_render(v, indent, 0, &mut out);
    out
}

/// Checks every field accessor on `doc` at `key`: none panics, a
/// rejection names the key, and a count decodes exactly when `as_u64`
/// followed by `try_from` does.
fn check_field_accessors(doc: &Json, key: &str) {
    let named = |r: Result<(), String>| {
        if let Err(e) = r {
            assert!(e.contains(&format!("`{key}`")), "{key:?}: {e}");
        }
    };
    named(doc.field(key).map(drop));
    named(doc.num_field(key).map(drop));
    named(doc.str_field(key).map(drop));
    named(doc.bool_field(key).map(drop));
    named(doc.arr_field(key).map(drop));
    named(doc.decimal_field(key).map(drop));
    named(doc.optional(key, Json::num_field).map(drop));
    let present = !matches!(doc.get(key), None | Some(Json::Null));
    assert_eq!(doc.optional(key, Json::field).unwrap().is_some(), present);

    let exact = doc.get(key).and_then(Json::as_u64);
    assert_eq!(doc.count_field::<u64>(key).ok(), exact);
    assert_eq!(
        doc.count_field::<u32>(key).ok(),
        exact.and_then(|n| u32::try_from(n).ok())
    );
    assert_eq!(
        doc.count_field::<u16>(key).ok(),
        exact.and_then(|n| u16::try_from(n).ok())
    );
    assert_eq!(
        doc.count_field::<usize>(key).ok(),
        exact.and_then(|n| usize::try_from(n).ok())
    );
    named(doc.count_field::<u8>(key).map(drop));
}

/// `s` with every UTF-16 code unit written as an upper-case `\uXXXX`
/// escape, so characters outside the BMP become surrogate pairs.
fn utf16_escaped(s: &str) -> String {
    let mut out = String::from("\"");
    for unit in s.encode_utf16() {
        write!(out, "\\u{unit:04X}").unwrap();
    }
    out + "\""
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Rendering is byte-identical to the reference in both layouts, and
    /// both layouts parse back to the value they came from.
    #[test]
    fn render_matches_reference_and_round_trips(v in AnyJson { depth: 4 }) {
        let compact = v.render();
        let pretty = v.render_pretty();
        prop_assert_eq!(&compact, &reference(&v, None));
        prop_assert_eq!(&pretty, &reference(&v, Some(2)));
        prop_assert_eq!(parse(&compact).unwrap(), v.clone());
        prop_assert_eq!(parse(&pretty).unwrap(), v);
    }

    /// `render_into` writes exactly `render()`'s bytes: into a `String`
    /// the same text, into an `Fnv1aWriter` the hash of that text.
    #[test]
    fn render_into_a_sink_is_render(v in AnyJson { depth: 4 }) {
        let text = v.render();
        let mut into = String::new();
        v.render_into(&mut into).unwrap();
        prop_assert_eq!(&into, &text);
        let mut h = Fnv1aWriter::new();
        v.render_into(&mut h).unwrap();
        prop_assert_eq!(h.finish(), fnv1a(FNV1A_OFFSET, text.bytes()));
    }

    /// The field decoder, on a random value, on an object holding it under
    /// a random key, and at each of the value's own keys.
    #[test]
    fn field_accessors_never_panic_and_counts_follow_as_u64(
        v in AnyJson { depth: 3 },
        key in AnyStr,
    ) {
        let wrapped = Json::Obj(vec![(key.clone(), v.clone())]);
        check_field_accessors(&v, &key);
        check_field_accessors(&wrapped, &key);
        if let Json::Obj(fields) = &v {
            for (k, _) in fields {
                check_field_accessors(&v, k);
            }
        }
        let n = v.to_count::<u16>("v").ok();
        prop_assert_eq!(n, v.as_u64().and_then(|n| u16::try_from(n).ok()));
        prop_assert_eq!(v.to_decimal("v").ok(), v.as_str().and_then(|s| s.parse().ok()));
    }

    /// A string spelled entirely in `\u` escapes, surrogate pairs
    /// included, decodes to the string itself.
    #[test]
    fn utf16_escapes_decode_to_the_string(s in AnyStr) {
        prop_assert_eq!(parse(&utf16_escaped(&s)).unwrap(), Json::Str(s));
    }
}
