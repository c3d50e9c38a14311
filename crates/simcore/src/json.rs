//! The two value encoders every hand-rolled JSON writer in the workspace
//! shares: string escaping and float formatting.
//!
//! Each report format keeps its own writer (key order and layout are part
//! of its golden bytes); only these encoders are common, so a fix to
//! either lands in every format at once.

use std::fmt::Write as _;

/// Escapes a string for inclusion in JSON output: quotes, backslashes and
/// control characters (`\n`, `\r`, `\t` by name, the rest as `\u00XX`).
///
/// # Example
///
/// ```
/// use slimstart_simcore::json::escape;
///
/// assert_eq!(escape("say \"hi\"\n"), "say \\\"hi\\\"\\n");
/// ```
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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

/// Formats a float the JSON way: finite values with six decimals, NaN and
/// infinities as `null`.
///
/// # Example
///
/// ```
/// use slimstart_simcore::json::num;
///
/// assert_eq!(num(1.5), "1.500000");
/// assert_eq!(num(f64::NAN), "null");
/// ```
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_quotes_and_control() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }
}
