//! A zero-dependency JSON reader — the inverse of [`crate::json`].
//!
//! Trace consumers (the `starqo-obs` analytics tooling, the bench gate)
//! need to read back what [`crate::json::JsonObj`] and the bench harness
//! wrote, without pulling serde into a dependency-free crate. This is a
//! small recursive-descent parser for general JSON with one deliberate
//! refinement: integer literals that fit a `u64`/`i64` are kept lossless
//! (JSON-as-f64 would corrupt 64-bit plan fingerprints above 2⁵³).

use std::fmt;

/// A parsed JSON value. Integers keep full 64-bit precision.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    /// Non-negative integer literal (no fraction/exponent).
    UInt(u64),
    /// Negative integer literal.
    Int(i64),
    /// Any other number.
    Num(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    /// Key order is preserved; duplicate keys keep the last occurrence
    /// reachable via [`JsonValue::get`]'s first-match (writers never emit
    /// duplicates).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(v) => Some(*v),
            JsonValue::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            JsonValue::UInt(v) => Some(*v as f64),
            JsonValue::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Object fields, when this is an object.
    pub fn fields(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// A parse failure: byte offset plus a short message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub offset: usize,
    pub msg: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Parse one complete JSON value; trailing non-whitespace is an error.
pub fn parse_json(text: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            msg,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, msg: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{', "expected '{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':' after object key")?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let mut v: u16 = 0;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => c - b'0',
                Some(c @ b'a'..=b'f') => c - b'a' + 10,
                Some(c @ b'A'..=b'F') => c - b'A' + 10,
                _ => return Err(self.err("invalid \\u escape")),
            };
            v = v << 4 | d as u16;
            self.pos += 1;
        }
        Ok(v)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            if (0xD800..0xDC00).contains(&hi) {
                                // High surrogate: a low surrogate must follow.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u', "expected low surrogate")?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let c = 0x10000
                                        + ((hi as u32 - 0xD800) << 10)
                                        + (lo as u32 - 0xDC00);
                                    out.push(
                                        char::from_u32(c)
                                            .ok_or_else(|| self.err("invalid surrogate pair"))?,
                                    );
                                } else {
                                    return Err(self.err("unpaired high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("unpaired low surrogate"));
                            } else {
                                out.push(
                                    char::from_u32(hi as u32)
                                        .ok_or_else(|| self.err("invalid \\u escape"))?,
                                );
                            }
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (the input is a &str, so bytes
                    // form valid sequences; find the char covering pos).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                    let ch = s
                        .chars()
                        .next()
                        .ok_or_else(|| self.err("unexpected end of string"))?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        // Only ASCII digit/sign/dot/exponent bytes were consumed, so the
        // slice is valid UTF-8; still fail typed rather than panic.
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid UTF-8 in number"))?;
        if integral {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(JsonValue::Int(v));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| JsonError {
                offset: start,
                msg: "invalid number",
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_objects() {
        let v = parse_json(r#"{"a":"x","b":2,"c":1.5,"d":true,"e":null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("c").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("d").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("e"), Some(&JsonValue::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse_json(r#"{"m":{"counters":{"x":1}},"xs":[1,[2,3],{"k":"v"}]}"#).unwrap();
        let x = v.get("m").unwrap().get("counters").unwrap().get("x");
        assert_eq!(x.unwrap().as_u64(), Some(1));
        match v.get("xs").unwrap() {
            JsonValue::Arr(items) => assert_eq!(items.len(), 3),
            other => panic!("not an array: {other:?}"),
        }
    }

    #[test]
    fn u64_fingerprints_stay_lossless() {
        // 2^53 + 1 is not representable as f64.
        let big = (1u64 << 53) + 1;
        let v = parse_json(&format!("{{\"fp\":{big}}}")).unwrap();
        assert_eq!(v.get("fp").unwrap().as_u64(), Some(big));
        let max = u64::MAX;
        let v = parse_json(&format!("{{\"fp\":{max}}}")).unwrap();
        assert_eq!(v.get("fp").unwrap().as_u64(), Some(max));
    }

    #[test]
    fn negative_and_float_numbers() {
        let v = parse_json(r#"[-3,-1.25,2e3,-9223372036854775808]"#).unwrap();
        match v {
            JsonValue::Arr(items) => {
                assert_eq!(items[0], JsonValue::Int(-3));
                assert_eq!(items[1], JsonValue::Num(-1.25));
                assert_eq!(items[2], JsonValue::Num(2000.0));
                assert_eq!(items[3], JsonValue::Int(i64::MIN));
            }
            other => panic!("not an array: {other:?}"),
        }
    }

    #[test]
    fn unescapes_strings() {
        let v = parse_json("\"a\\\"b\\\\c\\nd\\u0001e\\u00e9\"").unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nd\u{1}e\u{e9}"));
        // Surrogate pair: U+1F600.
        let v = parse_json(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            r#"{"a"}"#,
            r#"{"a":1,}"#,
            "[1,]",
            "tru",
            r#""unterminated"#,
            r#""\q""#,
            r#""\ud800x""#,
            "1 2",
            "{\"a\":\u{1}\"x\"}",
        ] {
            assert!(parse_json(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn roundtrips_the_writer() {
        let written = crate::json::JsonObj::new()
            .str("s", "π \"quoted\"\n")
            .u64("n", u64::MAX)
            .f64("f", -0.5)
            .bool("b", false)
            .finish();
        let v = parse_json(&written).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("π \"quoted\"\n"));
        assert_eq!(v.get("n").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(v.get("f").unwrap().as_f64(), Some(-0.5));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(false));
    }
}
