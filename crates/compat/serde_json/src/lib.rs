//! Offline stand-in for `serde_json`: renders the in-tree `serde` stand-in's
//! [`Value`] tree to JSON text and parses it back.
//!
//! Provides the workspace's full call surface: [`to_string`],
//! [`to_string_pretty`], [`from_str`], [`to_value`], [`from_value`], and the
//! [`json!`] macro (object form with literal keys, plus arrays and scalars).

pub use serde::{Error, Value};

/// Serializes a value to compact JSON.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serializes a value to human-readable, 2-space-indented JSON.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Converts any serializable value to a [`Value`] tree.
pub fn to_value<T: serde::Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    Ok(value.to_value())
}

/// Rebuilds a value from a [`Value`] tree.
pub fn from_value<T: serde::Deserialize>(value: Value) -> Result<T, Error> {
    T::from_value(&value)
}

/// Parses JSON text into any deserializable value.
pub fn from_str<T: serde::Deserialize>(text: &str) -> Result<T, Error> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::custom(format!("trailing characters at byte {}", p.pos)));
    }
    T::from_value(&v)
}

fn write_escaped(out: &mut String, s: &str) {
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
}

fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        if v == v.trunc() && v.abs() < 1e15 {
            // keep integral floats readable and round-trippable as numbers
            out.push_str(&format!("{:.1}", v));
        } else {
            out.push_str(&format!("{}", v));
        }
    } else {
        // JSON has no NaN/Inf; match serde_json's lossy `null`
        out.push_str("null");
    }
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(x) => write_f64(out, *x),
        Value::Str(s) => write_escaped(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_escaped(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat(' ').take(width * depth));
    }
}

/// Containers a document may nest, as in `serde_json`: the 128th opening
/// bracket is an error instead of one more stack frame, so a deeply nested
/// document (a hostile daemon frame, a corrupt file) cannot overflow the
/// parsing thread's stack.
const RECURSION_LIMIT: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers open around the cursor.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(format!("expected `{}` at byte {}", b as char, self.pos)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[' | b'{') => {
                if self.depth + 1 >= RECURSION_LIMIT {
                    return Err(Error::custom(format!(
                        "recursion limit exceeded at byte {}",
                        self.pos
                    )));
                }
                self.depth += 1;
                let container = if self.peek() == Some(b'[') {
                    self.parse_array()
                } else {
                    self.parse_object()
                };
                self.depth -= 1;
                container
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(Error::custom(format!(
                "unexpected character `{}` at byte {}",
                c as char, self.pos
            ))),
            None => Err(Error::custom("unexpected end of input")),
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => {
                    return Err(Error::custom(format!("expected `,` or `]` at byte {}", self.pos)))
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.pos += 1;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.parse_value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => {
                    return Err(Error::custom(format!("expected `,` or `}}` at byte {}", self.pos)))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| Error::custom("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error::custom("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::custom("invalid \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::custom("invalid \\u escape"))?;
                            self.pos += 4;
                            // surrogate pairs are not produced by our writer;
                            // map lone surrogates to the replacement character
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => {
                            return Err(Error::custom(format!(
                                "invalid escape `\\{}`",
                                other as char
                            )))
                        }
                    }
                }
                Some(_) => {
                    // consume the whole run up to the next quote or escape in
                    // one step — validating UTF-8 per character would make
                    // large strings (e.g. cached answer bodies) quadratic
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| Error::custom("invalid UTF-8 in string"))?;
                    out.push_str(run);
                }
                None => return Err(Error::custom("unterminated string")),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::custom("invalid number"))?;
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Value::I64(v));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error::custom(format!("invalid number `{text}`")))
    }
}

/// Builds a [`Value`] from JSON-like syntax. Supports `null`, object literals
/// with string-literal keys, array literals, and any `Serialize` expression.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($item:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::json!($item) ),* ])
    };
    ({ $($key:literal : $val:expr),* $(,)? }) => {
        $crate::Value::Object(vec![
            $( ($key.to_string(), $crate::to_value(&$val).unwrap()) ),*
        ])
    };
    ($other:expr) => {
        $crate::to_value(&$other).unwrap()
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_struct_like_value() {
        let v = Value::Object(vec![
            ("name".into(), Value::Str("a \"quoted\" name\n".into())),
            ("count".into(), Value::U64(3)),
            ("neg".into(), Value::I64(-4)),
            ("ratio".into(), Value::F64(0.25)),
            ("flags".into(), Value::Array(vec![Value::Bool(true), Value::Null])),
        ]);
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, v);
        let pretty = to_string_pretty(&v).unwrap();
        let back2: Value = from_str(&pretty).unwrap();
        assert_eq!(back2, v);
    }

    #[test]
    fn parses_nested_and_rejects_garbage() {
        let v: Value = from_str(r#"{"a": [1, 2.5, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get_field("c"), Some(&Value::Str("x".into())));
        assert!(from_str::<Value>("{\"a\": }").is_err());
        assert!(from_str::<Value>("[1, 2] trailing").is_err());
    }

    #[test]
    fn nesting_stops_at_the_recursion_limit() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(from_str::<Value>(&nested(RECURSION_LIMIT - 1)).is_ok());
        let err = from_str::<Value>(&nested(RECURSION_LIMIT)).unwrap_err();
        assert!(err.to_string().contains("recursion limit exceeded"), "{err}");
        let objects = "{\"a\":".repeat(RECURSION_LIMIT) + "1" + &"}".repeat(RECURSION_LIMIT);
        assert!(from_str::<Value>(&objects).is_err());
        // far past the limit, and unterminated: an error, not a stack overflow
        assert!(from_str::<Value>(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn typed_round_trip() {
        let data: Vec<(String, u32)> = vec![("x".into(), 1), ("y".into(), 2)];
        let text = to_string(&data).unwrap();
        let back: Vec<(String, u32)> = from_str(&text).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn json_macro_shapes() {
        let v = json!({ "a": 1u32, "b": vec![1.0f64, 2.0], "c": "s" });
        assert_eq!(v.get_field("a"), Some(&Value::U64(1)));
        assert_eq!(to_string(&json!(null)).unwrap(), "null");
    }

    #[test]
    fn integral_floats_stay_floats() {
        let text = to_string(&Value::F64(3.0)).unwrap();
        assert_eq!(text, "3.0");
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, Value::F64(3.0));
    }
}
