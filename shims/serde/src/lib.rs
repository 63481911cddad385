//! Offline stand-in for `serde`.
//!
//! This workspace builds with no network access, so the real serde cannot
//! be fetched.  This shim keeps the familiar surface — `Serialize`,
//! `Deserialize`, `#[derive(Serialize, Deserialize)]` — but collapses the
//! serializer/visitor machinery into a single JSON-like [`Value`] tree:
//! serializing produces a `Value`, deserializing consumes one.  The sibling
//! `serde_json` shim adds the text format on top.
//!
//! Swapping the real serde back in later only requires removing these shim
//! path-dependencies; call sites are written against the real API subset.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, HashMap};
use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// Object maps preserve deterministic (sorted) key order so serialized
/// bytes are reproducible across runs — the simulator depends on that.
pub type Map = BTreeMap<String, Value>;

/// A JSON-like value tree: the single data model of the shim.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    #[default]
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(Map),
}

static NULL_VALUE: Value = Value::Null;

impl Value {
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n)
                if n.fract() == 0.0 && *n >= i64::MIN as f64 && *n <= i64::MAX as f64 =>
            {
                Some(*n as i64)
            }
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Object member lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL_VALUE)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        match self {
            Value::Array(a) => a.get(idx).unwrap_or(&NULL_VALUE),
            _ => &NULL_VALUE,
        }
    }
}

macro_rules! impl_value_eq_num {
    ($($t:ty),*) => {$(
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                matches!(self, Value::Number(n) if *n == *other as f64)
            }
        }
        impl PartialEq<Value> for $t {
            fn eq(&self, other: &Value) -> bool {
                other == self
            }
        }
    )*};
}
impl_value_eq_num!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize, f32, f64);

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        matches!(self, Value::String(s) if s == other)
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        matches!(self, Value::String(s) if s == other)
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        matches!(self, Value::Bool(b) if b == other)
    }
}

/// Compact JSON text, matching what `serde_json::Value::to_string` yields.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Number(n) => write_number(f, *n),
            Value::String(s) => write_escaped(f, s),
            Value::Array(a) => {
                f.write_str("[")?;
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Value::Object(m) => {
                f.write_str("{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_number(f: &mut fmt::Formatter<'_>, n: f64) -> fmt::Result {
    if !n.is_finite() {
        // JSON has no NaN/Infinity; serde_json serializes them as null.
        f.write_str("null")
    } else if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
        write!(f, "{}", n as i64)
    } else {
        // Rust's float Display is shortest-round-trip, which is exactly
        // what a JSON encoder wants.
        write!(f, "{n}")
    }
}

/// Linear in the input: a run of characters that need no escape is copied
/// with one `write_str`.  Every byte that does need one is ASCII, and an
/// ASCII byte never lies inside a multi-byte sequence, so cutting the
/// string at those bytes cuts it at character boundaries.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    let mut run_start = 0;
    for (at, byte) in s.bytes().enumerate() {
        if byte >= 0x20 && byte != b'"' && byte != b'\\' {
            continue;
        }
        f.write_str(&s[run_start..at])?;
        match byte {
            b'"' => f.write_str("\\\"")?,
            b'\\' => f.write_str("\\\\")?,
            b'\n' => f.write_str("\\n")?,
            b'\r' => f.write_str("\\r")?,
            b'\t' => f.write_str("\\t")?,
            0x08 => f.write_str("\\b")?,
            0x0C => f.write_str("\\f")?,
            _ => write!(f, "\\u{byte:04x}")?,
        }
        run_start = at + 1;
    }
    f.write_str(&s[run_start..])?;
    f.write_str("\"")
}

/// Serialization into the shim's value tree.
pub trait Serialize {
    fn to_value(&self) -> Value;
}

/// Deserialization from the shim's value tree.
pub trait Deserialize: Sized {
    fn from_value(v: &Value) -> Result<Self, Error>;
}

/// (De)serialization error with a human-readable message.
#[derive(Debug, Clone)]
pub struct Error(pub String);

impl Error {
    pub fn expected(what: &str) -> Error {
        Error(format!("expected {what}"))
    }

    pub fn unknown_variant(got: &str, ty: &str) -> Error {
        Error(format!("unknown variant `{got}` for {ty}"))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Fetch and deserialize one field of an object; absent fields deserialize
/// from `Null` so that `Option` fields may be omitted.
pub fn de_field<T: Deserialize>(m: &Map, key: &str) -> Result<T, Error> {
    match m.get(key) {
        Some(v) => T::from_value(v).map_err(|e| Error(format!("field `{key}`: {e}"))),
        None => T::from_value(&Value::Null).map_err(|_| Error(format!("missing field `{key}`"))),
    }
}

// -------------------------------------------------------------- primitives

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Number(n) if n.fract() == 0.0 => Ok(*n as $t),
                    _ => Err(Error::expected(concat!("integer (", stringify!($t), ")"))),
                }
            }
        }
    )*};
}
impl_int!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Number(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_f64().ok_or_else(|| Error::expected("number"))
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Number(*self as f64)
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_f64()
            .map(|n| n as f32)
            .ok_or_else(|| Error::expected("number"))
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_bool().ok_or_else(|| Error::expected("boolean"))
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| Error::expected("string"))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v.as_str() {
            Some(s) if s.chars().count() == 1 => Ok(s.chars().next().expect("one char")),
            _ => Err(Error::expected("single-character string")),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(t) => t.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::expected("array"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items: Vec<T> = Deserialize::from_value(v)?;
        items
            .try_into()
            .map_err(|_| Error(format!("expected array of length {N}")))
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let a = v
            .as_array()
            .ok_or_else(|| Error::expected("2-element array"))?;
        if a.len() != 2 {
            return Err(Error::expected("2-element array"));
        }
        Ok((A::from_value(&a[0])?, B::from_value(&a[1])?))
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn to_value(&self) -> Value {
        Value::Array(vec![
            self.0.to_value(),
            self.1.to_value(),
            self.2.to_value(),
        ])
    }
}

impl<A: Deserialize, B: Deserialize, C: Deserialize> Deserialize for (A, B, C) {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let a = v
            .as_array()
            .ok_or_else(|| Error::expected("3-element array"))?;
        if a.len() != 3 {
            return Err(Error::expected("3-element array"));
        }
        Ok((
            A::from_value(&a[0])?,
            B::from_value(&a[1])?,
            C::from_value(&a[2])?,
        ))
    }
}

// Maps serialize as arrays of `[key, value]` pairs rather than JSON
// objects: the simulator keys maps by ids (`NodeId`, `LinkId`), not
// strings, and the pair form round-trips any serializable key type while
// keeping deterministic order for `BTreeMap`.
impl<K: Serialize, V: Serialize> Serialize for HashMap<K, V> {
    fn to_value(&self) -> Value {
        // Sort the entries by serialized key text so HashMap serialization
        // is reproducible across runs despite randomized hash order.
        let mut entries: Vec<Value> = self
            .iter()
            .map(|(k, v)| Value::Array(vec![k.to_value(), v.to_value()]))
            .collect();
        entries.sort_by_key(|a| a.to_string());
        Value::Array(entries)
    }
}

impl<K: Deserialize + Eq + std::hash::Hash, V: Deserialize> Deserialize for HashMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::expected("array of [key, value] pairs"))?
            .iter()
            .map(<(K, V)>::from_value)
            .collect()
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Array(
            self.iter()
                .map(|(k, v)| Value::Array(vec![k.to_value(), v.to_value()]))
                .collect(),
        )
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::expected("array of [key, value] pairs"))?
            .iter()
            .map(<(K, V)>::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for std::collections::HashSet<T> {
    fn to_value(&self) -> Value {
        let mut items: Vec<Value> = self.iter().map(Serialize::to_value).collect();
        items.sort_by_key(|a| a.to_string());
        Value::Array(items)
    }
}

impl<T: Deserialize + Eq + std::hash::Hash> Deserialize for std::collections::HashSet<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::expected("array"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for std::collections::VecDeque<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for std::collections::VecDeque<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::expected("array"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(Box::new)
    }
}

impl Serialize for std::time::Duration {
    fn to_value(&self) -> Value {
        Value::Number(self.as_secs_f64())
    }
}

impl Deserialize for std::time::Duration {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let secs = v
            .as_f64()
            .ok_or_else(|| Error::expected("number of seconds"))?;
        if !secs.is_finite() || secs < 0.0 {
            return Err(Error::expected("non-negative finite seconds"));
        }
        Ok(std::time::Duration::from_secs_f64(secs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_compact_json() {
        let mut m = Map::new();
        m.insert("b".to_string(), Value::Number(2.5));
        m.insert(
            "a".to_string(),
            Value::Array(vec![Value::Null, Value::Bool(true)]),
        );
        let v = Value::Object(m);
        assert_eq!(v.to_string(), r#"{"a":[null,true],"b":2.5}"#);
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Value::Number(3.0).to_string(), "3");
        assert_eq!(Value::Number(-41.0).to_string(), "-41");
        assert_eq!(Value::Number(0.25).to_string(), "0.25");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(
            Value::String("a\"b\\c\nd".to_string()).to_string(),
            r#""a\"b\\c\nd""#
        );
    }

    /// The escaping rule one character at a time, as `write_escaped` was
    /// written before it copied runs.
    fn escape_per_char(s: &str) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{08}' => out.push_str("\\b"),
                '\u{0C}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    #[test]
    fn run_copying_escape_equals_the_per_char_reference() {
        // Every ASCII character alone, between runs and next to multi-byte
        // scalars, then strings drawn from a small seeded generator.
        let multi = ["é", "€", "😀", "ünï©ode"];
        let mut cases: Vec<String> = vec![String::new(), "plain run".to_string()];
        for byte in 0x00..=0x7Fu8 {
            let c = byte as char;
            cases.push(c.to_string());
            cases.push(format!("ab{c}cd{c}{c}"));
            cases.push(format!("{c}€{c}😀{c}"));
        }
        let mut state = 0x2008_0609u64;
        let mut next = move |bound: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % bound
        };
        for _ in 0..200 {
            let mut s = String::new();
            for _ in 0..next(40) {
                match next(3) {
                    0 => s.push(next(0x80) as u8 as char),
                    1 => s.push_str(multi[next(multi.len())]),
                    _ => s.push_str("run of ordinary text"),
                }
            }
            cases.push(s);
        }
        for case in cases {
            assert_eq!(
                Value::String(case.clone()).to_string(),
                escape_per_char(&case),
                "{case:?}"
            );
        }
    }

    #[test]
    fn option_round_trip() {
        let some: Option<u64> = Some(7);
        let none: Option<u64> = None;
        assert_eq!(
            Option::<u64>::from_value(&some.to_value()).unwrap(),
            Some(7)
        );
        assert_eq!(Option::<u64>::from_value(&none.to_value()).unwrap(), None);
    }

    #[test]
    fn index_on_missing_key_yields_null() {
        let v = Value::Object(Map::new());
        assert!(v["nope"].is_null());
    }

    #[test]
    fn numeric_equality_across_types() {
        assert_eq!(Value::Number(4.0), 4);
        assert_eq!(Value::Number(4.0), 4u64);
        assert_ne!(Value::Number(4.5), 4);
    }
}
