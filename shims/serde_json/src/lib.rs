//! Offline stand-in for `serde_json`.
//!
//! Text encoding/decoding for the `serde` shim's [`Value`] tree: a strict
//! recursive-descent JSON parser, compact emission via `Value`'s `Display`,
//! and a `json!` macro covering the literal-object/array subset this
//! workspace uses.

#![forbid(unsafe_code)]

use serde::{Deserialize, Serialize};
pub use serde::{Map, Value};

/// Errors from this module are the serde shim's error type.
pub use serde::Error;

pub type Result<T> = std::result::Result<T, Error>;

/// Convert any serializable value into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Value {
    value.to_value()
}

/// Serialize to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(value.to_value().to_string())
}

/// Serialize to compact JSON bytes.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    Ok(value.to_value().to_string().into_bytes())
}

/// Deserialize from a JSON string.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let value = parse(s)?;
    T::from_value(&value)
}

/// Deserialize from JSON bytes.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T> {
    let s = std::str::from_utf8(bytes).map_err(|e| Error(format!("invalid UTF-8: {e}")))?;
    from_str(s)
}

/// Deserialize a [`Value`] tree into a typed value.
pub fn from_value<T: Deserialize>(value: &Value) -> Result<T> {
    T::from_value(value)
}

// ----------------------------------------------------------------- parser

/// Parse a complete JSON document (trailing garbage is an error).
pub fn parse(input: &str) -> Result<Value> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

struct Parser<'a> {
    /// The input, and the same input as bytes: being a `&str`, it is valid
    /// UTF-8 before the parser reads its first byte.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, expected: u8) -> Result<()> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected `{}` at byte {}",
                expected as char, self.pos
            )))
        }
    }

    fn expect_keyword(&mut self, kw: &str, value: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(Error(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value> {
        match self.peek() {
            Some(b'n') => self.expect_keyword("null", Value::Null),
            Some(b't') => self.expect_keyword("true", Value::Bool(true)),
            Some(b'f') => self.expect_keyword("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(Error(format!(
                "unexpected character `{}` at byte {}",
                c as char, self.pos
            ))),
            None => Err(Error("unexpected end of input".to_string())),
        }
    }

    fn array(&mut self) -> Result<Value> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error(format!("expected `,` or `]` at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.eat(b'{')?;
        let mut map = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(Error(format!("expected `,` or `}}` at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error("unterminated string".to_string())),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error("unterminated escape".to_string()))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                self.eat(b'\\')?;
                                self.eat(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(Error("invalid low surrogate".to_string()));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error("invalid unicode escape".to_string()))?,
                            );
                        }
                        other => {
                            return Err(Error(format!("invalid escape `\\{}`", other as char)))
                        }
                    }
                }
                Some(c) if c < 0x20 => {
                    return Err(Error("unescaped control character in string".to_string()))
                }
                Some(_) => {
                    // Copy the run of ordinary characters up to the next
                    // quote, backslash, control character or end of input.
                    // Those are ASCII, and an ASCII byte never lies inside
                    // a multi-byte sequence, so the run is whole scalars.
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c >= 0x20 && c != b'"' && c != b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        if self.pos + 4 > self.bytes.len() {
            return Err(Error("truncated unicode escape".to_string()));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| Error("invalid unicode escape".to_string()))?;
        let code = u32::from_str_radix(hex, 16)
            .map_err(|_| Error("invalid unicode escape".to_string()))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Value> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("invalid number".to_string()))?;
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| Error(format!("invalid number `{text}`")))
    }
}

// ------------------------------------------------------------------ macro

/// Build a [`Value`] from a JSON-ish literal.  Supports the subset used in
/// this workspace: objects with string-literal keys, arrays, `null`, and
/// arbitrary serializable Rust expressions as values.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($elem:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::to_value(&$elem) ),* ])
    };
    ({ $($body:tt)* }) => {{
        #[allow(unused_mut)]
        let mut __map = $crate::Map::new();
        $crate::json_object_entries!(__map, $($body)*);
        $crate::Value::Object(__map)
    }};
    ($other:expr) => { $crate::to_value(&$other) };
}

/// Internal helper for [`json!`]: munches `"key": value` entries.
#[macro_export]
#[doc(hidden)]
macro_rules! json_object_entries {
    ($map:ident $(,)?) => {};
    ($map:ident, $key:literal : null $(, $($rest:tt)*)?) => {
        $map.insert($key.to_string(), $crate::Value::Null);
        $crate::json_object_entries!($map $(, $($rest)*)?);
    };
    ($map:ident, $key:literal : { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $map.insert($key.to_string(), $crate::json!({ $($inner)* }));
        $crate::json_object_entries!($map $(, $($rest)*)?);
    };
    ($map:ident, $key:literal : [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $map.insert($key.to_string(), $crate::json!([ $($inner)* ]));
        $crate::json_object_entries!($map $(, $($rest)*)?);
    };
    ($map:ident, $key:literal : $value:expr, $($rest:tt)*) => {
        $map.insert($key.to_string(), $crate::to_value(&$value));
        $crate::json_object_entries!($map, $($rest)*);
    };
    ($map:ident, $key:literal : $value:expr) => {
        $map.insert($key.to_string(), $crate::to_value(&$value));
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trip() {
        let text = r#"{"a":[1,2.5,null,true],"b":"x\n\"y\"","c":{"d":-3}}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.to_string(), text);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("not json").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,2,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn megabyte_string_round_trips() {
        // Linear in the input: the parser used to re-validate the rest of
        // the document at every character, seconds for a payload this size.
        let unit = "pixels/ünï©ode/\u{1F600} ";
        let body = unit.repeat((1 << 20) / unit.len() + 1);
        assert!(body.len() >= 1 << 20);
        let text = to_string(&body).unwrap();
        assert_eq!(parse(&text).unwrap(), Value::String(body));
    }

    #[test]
    fn strings_mix_raw_scalars_and_escapes() {
        let parsed = parse(r#""aé€😀\u00e9\ud83d\ude00\n\"z""#).unwrap();
        assert_eq!(parsed, Value::String("aé€😀é😀\n\"z".to_string()));
        assert!(parse("\"a\u{1}b\"").is_err(), "unescaped control character");
        assert!(parse(r#""\q""#).is_err(), "unknown escape");
        assert!(parse(r#""\ud83d""#).is_err(), "lone high surrogate");
        assert!(parse(r#""\ud83d\u0041""#).is_err(), "bad low surrogate");
        assert!(parse("\"open").is_err(), "unterminated");
        assert!(parse("\"open é").is_err(), "unterminated after a scalar");
    }

    #[test]
    fn every_ascii_character_survives_the_text_round_trip() {
        // The writer escapes by byte and copies the runs in between; the
        // parser must read back exactly what went in, whatever sits next
        // to an escape.
        let all_ascii: String = (0x00..=0x7Fu8).map(|b| b as char).collect();
        let mut cases = vec![all_ascii.clone(), format!("é{all_ascii}😀")];
        for byte in 0x00..=0x7Fu8 {
            let c = byte as char;
            cases.push(format!("{c}"));
            cases.push(format!("€{c}{c}ünï{c}😀"));
        }
        for case in cases {
            let text = to_string(&case).unwrap();
            assert_eq!(parse(&text).unwrap(), Value::String(case));
        }
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        // "€" cut short, inside a string and at the end of the input.
        assert!(from_slice::<String>(b"\"\xE2\x82\"").is_err());
        assert!(from_slice::<String>(b"\"\xE2\x82").is_err());
        assert!(from_slice::<String>(b"\"\xFF\"").is_err());
        assert_eq!(
            from_slice::<String>("\"€\"".as_bytes()).unwrap(),
            "€".to_string()
        );
    }

    #[test]
    fn parse_numbers() {
        assert_eq!(parse("-12.5e2").unwrap(), Value::Number(-1250.0));
        assert_eq!(parse("0").unwrap(), Value::Number(0.0));
        assert_eq!(parse("1e-3").unwrap(), Value::Number(0.001));
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(parse(r#""é""#).unwrap(), Value::String("é".to_string()));
        assert_eq!(parse(r#""😀""#).unwrap(), Value::String("😀".to_string()));
    }

    #[test]
    fn json_macro_subset() {
        let n = 7u64;
        let v = json!({
            "a": n,
            "b": null,
            "c": true,
            "d": [1, 2],
            "e": { "nested": "x" },
        });
        assert_eq!(
            v.to_string(),
            r#"{"a":7,"b":null,"c":true,"d":[1,2],"e":{"nested":"x"}}"#
        );
        assert_eq!(json!(null), Value::Null);
        assert_eq!(json!([1, 2]).to_string(), "[1,2]");
        assert_eq!(json!(3.5), Value::Number(3.5));
    }

    #[test]
    fn typed_round_trip_via_text() {
        let v: Vec<(String, f64)> = vec![("a".to_string(), 1.5), ("b".to_string(), -2.0)];
        let bytes = to_vec(&v).unwrap();
        let back: Vec<(String, f64)> = from_slice(&bytes).unwrap();
        assert_eq!(back, v);
    }
}
