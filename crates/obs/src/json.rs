//! JSON string literals: the workspace's one escaper. Every
//! hand-assembled JSON document — trace entries and span trees, journal
//! records, `/debug/config` — writes its strings through
//! [`push_string`], so a value that came off the wire (a request path
//! holding control characters or combining marks) can never break the
//! document it lands in.

use std::fmt::Write as _;

/// Appends `s` to `out` as a quoted JSON string: quotes, backslashes
/// and control characters below U+0020 are escaped, everything else
/// (U+007F and non-ASCII included) is copied verbatim.
pub fn push_string(out: &mut String, s: &str) {
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

#[cfg(test)]
mod tests {
    use super::push_string;

    fn string(s: &str) -> String {
        let mut out = String::new();
        push_string(&mut out, s);
        out
    }

    #[test]
    fn escapes_exactly_what_json_requires() {
        assert_eq!(string("/analyze"), "\"/analyze\"");
        assert_eq!(string("a\"b\\c"), r#""a\"b\\c""#);
        assert_eq!(string("\n\r\t"), r#""\n\r\t""#);
        assert_eq!(string("a\u{0}b\u{1}c\u{1f}"), r#""a\u0000b\u0001c\u001f""#);
        // DEL and a combining mark are legal inside a JSON string.
        assert_eq!(string("a\u{7f}b\u{301}"), "\"a\u{7f}b\u{301}\"");
    }
}
