//! Minimal JSON emission helpers.
//!
//! The workspace has no crates.io access and no serialization framework,
//! so every JSON producer in-tree writes its output by hand. These helpers centralize the two error-prone parts — string
//! escaping and float formatting — so snapshots, reports, and benchmarks
//! all emit valid JSON the same way.

use std::fmt::Write as _;

/// Escapes `s` for embedding inside a JSON string literal (no quotes
/// added).
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Renders a quoted JSON string literal.
#[must_use]
pub fn string(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// Renders an `f64` as a JSON number, mapping non-finite values to `null`
/// (JSON has no NaN/Infinity).
#[must_use]
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(string("x"), "\"x\"");
    }

    #[test]
    fn numbers() {
        assert_eq!(number(1.5), "1.500000");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }
}
