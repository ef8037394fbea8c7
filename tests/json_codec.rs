//! The JSON codec every reader in the workspace shares (serve wire
//! protocol, store entries, dataset snapshots, traces): strings of any
//! Unicode scalar values survive a write/parse round trip, every escape
//! form the parser accepts decodes to the right characters, and large
//! string values parse in one pass.

use proptest::collection::vec;
use proptest::prelude::*;
use serde_json::Value;

/// Characters the codec treats specially: the string delimiters, the
/// short escapes, raw control characters and the largest scalars of
/// each UTF-8 width.
const SPECIAL: &str = "\"\\/\n\r\t\u{8}\u{c}\u{1}\u{7f}\u{ffff}\u{10ffff}";

/// Any Unicode scalar value, weighted so that ASCII and the special
/// characters sit next to multi-byte ones often.
fn scalar() -> impl Strategy<Value = char> {
    (0u32..4, 0u32..0x11000).prop_filter_map("a scalar value", |(kind, x)| match kind {
        0 => SPECIAL.chars().nth(x as usize % SPECIAL.chars().count()),
        1 => char::from_u32(x % 0x80),
        _ => char::from_u32(x),
    })
}

/// `c` as a `\uXXXX` escape, a surrogate pair outside the BMP.
fn unicode_escape(c: char) -> String {
    let mut units = [0u16; 2];
    c.encode_utf16(&mut units)
        .iter()
        .map(|u| format!("\\u{u:04x}"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn strings_round_trip_unchanged(chars in vec(scalar(), 0..64)) {
        let s: String = chars.into_iter().collect();
        let text = serde_json::to_string(&s).unwrap();
        let back: String = serde_json::from_str(&text).unwrap();
        prop_assert_eq!(back, s);
    }

    #[test]
    fn every_escape_form_decodes_to_its_char(
        chars in vec((scalar(), 0u32..3), 0..64),
    ) {
        // Each char is written as the writer would, as a `\u` escape,
        // or raw (raw control characters are accepted); the delimiters
        // are always escaped.
        let mut body = String::new();
        for &(c, form) in &chars {
            match form {
                0 => body.push_str(&unicode_escape(c)),
                1 if c != '"' && c != '\\' => body.push(c),
                _ => {
                    let quoted = serde_json::to_string(&c.to_string()).unwrap();
                    body.push_str(&quoted[1..quoted.len() - 1]);
                }
            }
        }
        let expected: String = chars.iter().map(|&(c, _)| c).collect();
        let back: String = serde_json::from_str(&format!("\"{body}\"")).unwrap();
        prop_assert_eq!(back, expected);
    }
}

#[test]
fn multi_mebibyte_string_value_parses_to_the_same_bytes() {
    // 4 MiB and up of mixed-width text with escapes throughout. The
    // parser must copy unescaped runs in one pass; rescanning the rest
    // of the input per character would not finish.
    let unit = "plain ascii run, é ü, 😀 𝄞, \"quoted\" back\\slash\ttab\n\u{1}";
    let big = unit.repeat((4 << 20) / unit.len() + 1);
    let text = serde_json::to_string(&serde_json::json!({ "value": big.clone() })).unwrap();
    let back: Value = serde_json::from_str(&text).unwrap();
    assert_eq!(
        back.get("value").and_then(Value::as_str),
        Some(big.as_str())
    );
}
