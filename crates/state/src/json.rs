//! A deliberately tiny JSON reader for checkpoint headers and manifests.
//!
//! The workspace has no serde (the build environment is offline), and the
//! only JSON this crate must *read* is JSON it wrote itself: ordered
//! objects, ASCII keys, integers, and plain strings. The parser still
//! accepts arbitrary well-formed JSON so hand-edited manifests fail with
//! a clear `Corrupt` error rather than a panic.

use crate::error::StateError;

/// A parsed JSON value. Integers that fit a `u64` are kept exact (seeds
/// and tick counters exceed 2^53, so `f64` storage would corrupt them).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer that fits in a `u64`, kept exact.
    U64(u64),
    /// Any other number (negative, fractional, or exponent form).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, with key order preserved.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Required `u64` field of an object, with a descriptive error.
    pub fn req_u64(&self, key: &str, what: &str) -> Result<u64, StateError> {
        self.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| StateError::Corrupt(format!("{what}: missing integer field `{key}`")))
    }

    /// Required string field of an object, with a descriptive error.
    pub fn req_str(&self, key: &str, what: &str) -> Result<String, StateError> {
        self.get(key)
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| StateError::Corrupt(format!("{what}: missing string field `{key}`")))
    }
}

/// Deepest array/object nesting the parser follows. The formats this
/// workspace writes nest at most 4 deep; without a bound, one hostile
/// line (say, 200 000 `[` sent to the `xmap-serve` control socket)
/// recurses the stack into an abort no caller can catch.
const MAX_DEPTH: usize = 32;

/// Parses a complete JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str, what: &str) -> Result<Value, StateError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        what,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    what: &'a str,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> StateError {
        StateError::Corrupt(format!("{}: {} at byte {}", self.what, msg, self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), StateError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, StateError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    /// A value inside `depth` enclosing arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Value, StateError> {
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => Err(self.err("nested too deep")),
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, StateError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value(depth)?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, StateError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, StateError> {
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
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.bytes.len() - self.pos < 4 {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs never appear in our own output;
                            // map unpaired surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input came from a &str, so
                    // boundaries are valid).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let ch = rest.chars().next().unwrap();
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, StateError> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if integral && !text.starts_with('-') {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::U64(v));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| self.err("invalid number"))
    }
}

/// The one JSON string escaper, shared with telemetry snapshots so headers
/// written here and snapshots written there agree.
pub use xmap_telemetry::registry::push_json_string;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_ordered_object_with_big_ints() {
        let v = parse(
            r#"{"schema":"xmap-checkpoint/v1","seed":18446744073709551615,"ranges":["a","b"],"ok":true,"f":1.5}"#,
            "test",
        )
        .unwrap();
        assert_eq!(v.req_str("schema", "test").unwrap(), "xmap-checkpoint/v1");
        assert_eq!(v.req_u64("seed", "test").unwrap(), u64::MAX);
        assert_eq!(v.get("ranges").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("f"), Some(&Value::F64(1.5)));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{", "t").is_err());
        assert!(parse("{}extra", "t").is_err());
        assert!(parse(r#"{"a""#, "t").is_err());
        assert!(parse("[1,]", "t").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_limit, "t").is_ok());
        let past = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(matches!(parse(&past, "t"), Err(StateError::Corrupt(_))));
        assert!(parse(&"[{\"a\":".repeat(200_000), "t").is_err());
    }

    #[test]
    fn string_escapes_roundtrip() {
        let mut out = String::new();
        push_json_string(&mut out, "a\"b\\c\nd");
        let v = parse(&out, "t").unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nd"));
    }
}
