//! A small streaming JSON writer shared by the serve, resilience, lint and
//! serving-gallery documents: each piece appends to one caller-owned
//! `String`. Floats keep their `{}` [`Display`](std::fmt::Display)
//! rendering, so streamed output is byte-identical to the same fields put
//! through `format!`.

use std::fmt::Write as _;

/// Appends `raw` escaped for the inside of a JSON string literal: `"` and
/// `\` get a backslash, control characters their `\n`/`\r`/`\t`/`\u00XX` form.
/// Every byte that needs escaping is ASCII, so the runs between them are
/// copied whole.
fn escape_into(out: &mut String, raw: &str) {
    let mut copied = 0;
    for (at, &byte) in raw.as_bytes().iter().enumerate() {
        let escape = match byte {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        out.push_str(&raw[copied..at]);
        match escape {
            Some(escape) => out.push_str(escape),
            None => {
                let _ = write!(out, "\\u{byte:04x}");
            }
        }
        copied = at + 1;
    }
    out.push_str(&raw[copied..]);
}

/// Appends `raw` as a quoted, escaped JSON string literal.
pub fn write_str(out: &mut String, raw: &str) {
    out.push('"');
    escape_into(out, raw);
    out.push('"');
}

/// Appends the decimal digits of `value` without going through `core::fmt`.
pub fn write_uint(out: &mut String, value: usize) {
    if value >= 10 {
        write_uint(out, value / 10);
    }
    out.push(char::from(b'0' + (value % 10) as u8));
}

/// Appends `items` as a JSON array, rendering each with `write_item`.
pub fn write_array<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut write_item: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_item(out, item);
    }
    out.push(']');
}

/// The `{}` rendering of the last `f64` written through this slot, keyed by
/// its bit pattern: a repeat replays the cached bytes instead of formatting
/// again, so the output cannot change (`-0.0` and `0.0` are different keys).
#[derive(Debug, Clone, Default)]
pub struct F64Memo {
    bits: Option<u64>,
    text: String,
}

impl F64Memo {
    /// Appends `value` exactly as `write!(out, "{value}")` would.
    pub fn write(&mut self, out: &mut String, value: f64) {
        if self.bits != Some(value.to_bits()) {
            self.bits = Some(value.to_bits());
            self.text.clear();
            let _ = write!(self.text, "{value}");
        }
        out.push_str(&self.text);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_control_characters() {
        let mut out = String::new();
        write_str(&mut out, "a\n\"b\\\t\r\u{1}\u{1f} é");
        assert_eq!(out, "\"a\\n\\\"b\\\\\\t\\r\\u0001\\u001f é\"");
    }

    /// The char-at-a-time escaper the run-copying one replaced.
    fn escape_by_char(out: &mut String, raw: &str) {
        for c in raw.chars() {
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
    }

    #[test]
    fn run_copying_matches_the_char_at_a_time_escaper() {
        let controls: String = (0u8..0x20).map(char::from).collect();
        let inputs = [
            String::new(),
            "plain ascii".into(),
            "\"".into(),
            "\\".into(),
            "\"quoted\" and \\back\\slashed\\".into(),
            controls.clone(),
            format!("a{controls}b"),
            "é, ß, 漢字 and 🦀".into(),
            "🦀\"\u{1}é\\\n漢".into(),
            "buffer `acc0[7]` is loaded (task 12) before its first write".into(),
        ];
        for raw in &inputs {
            let (mut fast, mut reference) = (String::from("x"), String::from("x"));
            escape_into(&mut fast, raw);
            escape_by_char(&mut reference, raw);
            assert_eq!(fast.as_bytes(), reference.as_bytes(), "{raw:?}");
        }
    }

    #[test]
    fn digits_and_arrays_match_display() {
        let values = [0, 1, 9, 10, 99, 100, 12_345, usize::MAX];
        let mut out = String::new();
        write_array(&mut out, values, write_uint);
        let expected: Vec<String> = values.iter().map(ToString::to_string).collect();
        assert_eq!(out, format!("[{}]", expected.join(",")));
        out.clear();
        write_array(&mut out, Vec::<usize>::new(), write_uint);
        assert_eq!(out, "[]");
    }

    #[test]
    fn memo_is_keyed_by_bits() {
        let values = [
            0.0,
            0.0,
            -0.0,
            -0.0,
            0.0,
            1e-7,
            1e21,
            1e21,
            f64::MAX,
            5e-324,
        ];
        let mut memo = F64Memo::default();
        let mut out = String::new();
        write_array(&mut out, values, |out, value| memo.write(out, value));
        let expected: Vec<String> = values.iter().map(ToString::to_string).collect();
        assert_eq!(out, format!("[{}]", expected.join(",")));
        assert!(out.starts_with("[0,0,-0,-0,0,"));
    }
}
