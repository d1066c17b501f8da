//! A minimal hand-rolled JSON object writer (the crate has no dependencies,
//! so there is no serde). Only what trace events need: flat objects with
//! string / number / bool fields and string arrays.

use crate::record::Field;

/// Escape a string for inclusion in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Render a float the way JSON expects (no NaN/inf — mapped to null).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        // Trim to a stable short form; f64 Display is already round-trip safe.
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Accumulates `"key": value` pairs into one JSON object.
#[derive(Debug, Default)]
pub struct JsonObj {
    buf: String,
}

impl JsonObj {
    pub fn new() -> Self {
        JsonObj {
            buf: String::from("{"),
        }
    }

    fn key(&mut self, k: &str) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        self.buf.push('"');
        self.buf.push_str(&escape(k));
        self.buf.push_str("\":");
    }

    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push('"');
        self.buf.push_str(&escape(v));
        self.buf.push('"');
        self
    }

    pub fn u64(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    pub fn f64(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        self.buf.push_str(&num(v));
        self
    }

    pub fn bool(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    pub fn str_array(mut self, k: &str, vs: &[String]) -> Self {
        self.key(k);
        self.buf.push('[');
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            self.buf.push('"');
            self.buf.push_str(&escape(v));
            self.buf.push('"');
        }
        self.buf.push(']');
        self
    }

    /// A record field, written the way its type says ([`Field`]).
    pub fn field(self, k: &str, v: &impl Field) -> Self {
        v.write_field(self, k)
    }

    /// Embed an already-serialized JSON value verbatim.
    pub fn raw(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn builds_flat_objects() {
        let s = JsonObj::new()
            .str("a", "x")
            .u64("b", 2)
            .f64("c", 1.5)
            .bool("d", true)
            .finish();
        assert_eq!(s, r#"{"a":"x","b":2,"c":1.5,"d":true}"#);
    }

    #[test]
    fn nonfinite_is_null() {
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
    }

    #[test]
    fn arrays_and_raw() {
        let s = JsonObj::new()
            .str_array("xs", &["a".into(), "b".into()])
            .raw("o", r#"{"k":1}"#)
            .finish();
        assert_eq!(s, r#"{"xs":["a","b"],"o":{"k":1}}"#);
    }
}
