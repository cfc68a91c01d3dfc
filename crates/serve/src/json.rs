//! Hand-rolled JSON for the wire protocol — the serving layer is
//! deliberately std-only, so this module provides the minimal value
//! model, writer, and recursive-descent parser the NDJSON protocol
//! needs. Object key order is preserved on both paths, which keeps
//! encoded responses byte-deterministic (the concurrency smoke test
//! depends on that).

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered object (small N — linear lookup).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object constructor from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member lookup on objects; `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric member interpreted as a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        // `u64::MAX as f64` rounds up to 2^64, which is out of range: the
        // bound is strict, or 2^64 would saturate to `u64::MAX`.
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Parses one JSON document, requiring it to span the whole input.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(f, *n),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    item.fmt(f)?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    v.fmt(f)?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_num(f: &mut fmt::Formatter<'_>, n: f64) -> fmt::Result {
    if !n.is_finite() {
        // JSON has no NaN/Inf; the protocol encodes them as null.
        return f.write_str("null");
    }
    if n == 0.0 {
        // Both zeros are integral, but `n as i64` erases the sign bit:
        // -0.0 must come back as -0.0 (a flip-factor of -0.0 vs 0.0 is
        // a different IEEE-754 value, and the v2 binary codec preserves
        // it — the JSON surface must not be the lossy one).
        return f.write_str(if n.is_sign_negative() { "-0.0" } else { "0" });
    }
    if n.fract() == 0.0 && n.abs() < 9.0e15 {
        write!(f, "{}", n as i64)
    } else if !(1e-5..1e17).contains(&n.abs()) {
        // Extreme magnitudes (tiny p-values!) use exponent notation —
        // valid JSON, and spares clients 300-digit decimal expansions.
        write!(f, "{n:e}")
    } else {
        // `{}` on f64 is the shortest representation that round-trips.
        write!(f, "{n}")
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    // Write unescaped spans in bulk; only the rare escape goes through
    // the formatter one piece at a time. Every escaped character is
    // ASCII, so the scan is over bytes and the spans between escapes
    // are whole UTF-8 sequences.
    let bytes = s.as_bytes();
    let mut start = 0;
    while let Some(span) = bytes[start..]
        .iter()
        .position(|&b| b < 0x20 || b == b'"' || b == b'\\')
    {
        let at = start + span;
        f.write_str(&s[start..at])?;
        match bytes[at] {
            b'"' => f.write_str("\\\"")?,
            b'\\' => f.write_str("\\\\")?,
            b'\n' => f.write_str("\\n")?,
            b'\r' => f.write_str("\\r")?,
            b'\t' => f.write_str("\\t")?,
            b => write!(f, "\\u{b:04x}")?,
        }
        start = at + 1;
    }
    f.write_str(&s[start..])?;
    f.write_str("\"")
}

/// Parse failure with byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Nesting ceiling: recursion in `value()` is bounded so a hostile
/// request (one line of 100k '[') cannot overflow the stack and abort
/// the whole server.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn enter(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")))
        } else {
            Ok(())
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        self.enter()?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs for astral-plane characters.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&cp) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid code point"))?);
                            // hex4 advanced past the digits; compensate the
                            // unconditional advance below.
                            self.pos -= 1;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Bulk-copy the span up to the next quote or escape.
                    // The input is a &str (valid UTF-8 by construction)
                    // and both delimiters are ASCII, so the span never
                    // splits a multi-byte character — and the copy stays
                    // O(span), not O(remaining input) per character,
                    // which matters for transcript-sized strings.
                    let start = self.pos;
                    while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    let span = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(span);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>().map(Json::Num).map_err(|_| JsonError {
            offset: start,
            message: format!("invalid number '{text}'"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_values() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-17",
            "3.25",
            "1e-06",
            "\"hello\"",
            "\"esc \\\" \\\\ \\n\"",
            "[]",
            "[1,2,3]",
            "{}",
            "{\"a\":1,\"b\":[true,null],\"c\":{\"d\":\"x\"}}",
        ] {
            let v = Json::parse(text).unwrap();
            let re = Json::parse(&v.to_string()).unwrap();
            assert_eq!(v, re, "{text}");
        }
    }

    #[test]
    fn encoding_is_deterministic_and_ordered() {
        let v = Json::obj(vec![("z", Json::Num(1.0)), ("a", Json::Num(2.0))]);
        assert_eq!(v.to_string(), "{\"z\":1,\"a\":2}");
    }

    #[test]
    fn integers_encode_without_fraction() {
        assert_eq!(Json::Num(10.0).to_string(), "10");
        assert_eq!(Json::Num(0.05).to_string(), "0.05");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn extreme_magnitudes_use_exponent_notation() {
        assert_eq!(Json::Num(6.697e-38).to_string(), "6.697e-38");
        assert_eq!(Json::Num(-1.5e200).to_string(), "-1.5e200");
        // …and still parse back to the same bits.
        for v in [6.697154985608185e-38, 1e-300, -2.5e19, 4.9e-324] {
            let text = Json::Num(v).to_string();
            assert_eq!(Json::parse(&text).unwrap().as_f64(), Some(v), "{text}");
        }
    }

    #[test]
    fn number_writer_round_trips_bit_exactly_at_the_edges() {
        // The writer's three regimes each have edges that once bit (the
        // integral-float path in PR 2, the -0.0 sign in this audit). A
        // finite f64 must survive encode→parse with its exact bits.
        let cases = [
            0.0,
            -0.0,                    // sign bit must survive the integral path
            5e-324,                  // smallest positive subnormal
            -5e-324,                 // …and its negation
            2.225073858507201e-308,  // largest subnormal
            2.2250738585072014e-308, // smallest positive normal
            1.0e-5,                  // decimal/exponent boundary, decimal side
            0.9999999999999999e-5,   // …exponent side
            9.0e15 - 1.0,            // last integral value written as i64
            9.0e15,                  // first integral value that is not
            9007199254740993.0,      // 2^53 + 1 rounds to 2^53: still exact bits
            1.0e17,                  // integral, exponent regime
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -1.7976931348623155e308, // one ULP inside MIN
            0.1 + 0.2,               // the classic shortest-repr case
        ];
        for v in cases {
            let text = Json::Num(v).to_string();
            let parsed = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(
                parsed.to_bits(),
                v.to_bits(),
                "{v:?} -> {text} -> {parsed:?}"
            );
        }
        // Spot-check the spellings the regimes are expected to pick.
        assert_eq!(Json::Num(-0.0).to_string(), "-0.0");
        assert_eq!(Json::Num(0.0).to_string(), "0");
        assert_eq!(Json::Num(5e-324).to_string(), "5e-324");
        assert_eq!(
            Json::Num(8999999999999999.0).to_string(),
            "8999999999999999"
        );
    }

    #[test]
    fn number_writer_round_trips_bit_exactly_for_swept_bit_patterns() {
        // A deterministic sweep over structured bit patterns: every
        // exponent with a handful of mantissas, both signs. Skips only
        // non-finite values (encoded as null by design).
        for exp in 0..=0x7fe_u64 {
            for mantissa in [0, 1, 0x8000000000000, 0xfffffffffffff_u64] {
                for sign in [0u64, 1 << 63] {
                    let bits = sign | (exp << 52) | mantissa;
                    let v = f64::from_bits(bits);
                    if !v.is_finite() {
                        continue;
                    }
                    let text = Json::Num(v).to_string();
                    let parsed = Json::parse(&text).unwrap().as_f64().unwrap();
                    assert_eq!(parsed.to_bits(), bits, "{v:?} -> {text}");
                }
            }
        }
    }

    #[test]
    fn unicode_escapes() {
        let v = Json::parse("\"\\u00e9\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str().unwrap(), "é😀");
        // Control characters are re-escaped on output.
        assert_eq!(Json::Str("\u{1}".into()).to_string(), "\"\\u0001\"");
        // Multi-byte characters directly against every kind of escape:
        // the spans between escapes must stay whole UTF-8.
        let text = "a ∧ b\n■\"─\u{1}∧\\■\t─\r";
        let wire = Json::Str(text.into()).to_string();
        assert_eq!(wire, "\"a ∧ b\\n■\\\"─\\u0001∧\\\\■\\t─\\r\"");
        assert_eq!(Json::parse(&wire).unwrap().as_str().unwrap(), text);
    }

    #[test]
    fn accessors() {
        let v = Json::parse("{\"n\":3,\"s\":\"x\",\"b\":true,\"a\":[1],\"z\":null}").unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 1);
        assert!(v.get("z").unwrap().is_null());
        assert!(v.get("missing").is_none());
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }

    #[test]
    fn as_u64_refuses_two_to_the_64() {
        let two_to_the_64 = Json::parse("18446744073709551616").unwrap();
        assert_eq!(two_to_the_64.as_f64(), Some(2f64.powi(64)));
        assert_eq!(two_to_the_64.as_u64(), None);
        // The largest f64 below 2^64 is 2^64 - 2^11, and it is exact.
        let below = Json::parse("18446744073709549568").unwrap();
        assert_eq!(below.as_f64(), Some(2f64.powi(64) - 2048.0));
        assert_eq!(below.as_u64(), Some(u64::MAX - 2047));
    }

    #[test]
    fn nesting_depth_is_bounded() {
        // Within the ceiling: fine.
        let ok = format!("{}0{}", "[".repeat(100), "]".repeat(100));
        assert!(Json::parse(&ok).is_ok());
        // A hostile one-line bomb is rejected, not a stack overflow.
        let deep = "[".repeat(100_000);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        let objs = "{\"a\":".repeat(100_000);
        assert!(Json::parse(&objs).is_err());
        // Mixed nesting counts both container kinds.
        let mixed = format!("{}1{}", "[{\"k\":".repeat(80), "}]".repeat(80));
        assert!(Json::parse(&mixed).is_err());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "\"abc", "{\"a\"}", "nul", "1 2", "{\"a\":}"] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }
}
