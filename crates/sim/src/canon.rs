//! Canonical text formatting for numbers and JSON strings.
//!
//! Every deterministic artifact in the workspace — sweep CSVs and the
//! structured event logs — must serialize the same value to the same
//! bytes, forever, on every platform and at any `--workers`. This
//! module is the single authority for that formatting; the writers in
//! `augur-trace` and `augur-obs` delegate here instead of growing
//! private copies that could drift into non-comparable output.

/// A finite `f64` as Rust's shortest round-trip decimal (`Display`),
/// which is deterministic and parses back to the identical bits.
///
/// # Panics
/// Panics on NaN or infinity — non-finite values have no canonical
/// decimal form; callers encode them explicitly (empty CSV field, JSON
/// `null`, a quoted `"inf"`) *before* reaching for this helper.
pub fn fmt_f64(v: f64) -> String {
    assert!(v.is_finite(), "fmt_f64 on non-finite value {v}");
    format!("{v}")
}

/// An `f64` as a JSON number token: shortest round-trip decimal when
/// finite, the literal `null` otherwise (JSON has no NaN/∞).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        fmt_f64(v)
    } else {
        "null".to_string()
    }
}

/// A JSON string literal: quoted, with `"`, `\`, the common control
/// escapes, and `\u00XX` for the remaining C0 range.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_round_trips_exactly() {
        // Shortest round-trip: parsing the text back must reproduce the
        // identical bits, including signed zero and subnormals.
        for v in [
            0.0,
            -0.0,
            0.1,
            1.5,
            -2.25,
            1.0 / 3.0,
            1e300,
            -1e-300,
            f64::MIN_POSITIVE,
            5e-324,
            f64::MAX,
            std::f64::consts::PI,
        ] {
            let text = fmt_f64(v);
            let back: f64 = text.parse().expect("canonical text parses");
            assert_eq!(back.to_bits(), v.to_bits(), "{v} -> {text} -> {back}");
        }
    }

    #[test]
    fn json_num_pins_common_values() {
        assert_eq!(json_num(0.25), "0.25");
        assert_eq!(json_num(3.0), "3");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(f64::INFINITY), "null");
        assert_eq!(json_num(f64::NEG_INFINITY), "null");
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn fmt_rejects_nan() {
        fmt_f64(f64::NAN);
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\t\r\u{1}"), "\"\\t\\r\\u0001\"");
        assert_eq!(json_string("plain"), "\"plain\"");
    }
}
