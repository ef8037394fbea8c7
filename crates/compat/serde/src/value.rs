//! The JSON-shaped value tree shared by `serde` and `serde_json`.

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(Number),
    /// A string.
    String(String),
    /// An ordered array.
    Array(Vec<Value>),
    /// An object (insertion-ordered).
    Object(Map),
}

impl Value {
    /// Human-readable kind name for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Number(_) => "number",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }

    /// Object member lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a `u64`, when numeric and exactly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The value as an `i64`, when numeric and exactly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// The value as an `f64`, when numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The object payload, if this is an object.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// True for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

macro_rules! impl_value_from_uint {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value { Value::Number(Number::from_u64(v as u64)) }
        }
    )*};
}
impl_value_from_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_value_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value { Value::Number(Number::from_i64(v as i64)) }
        }
    )*};
}
impl_value_from_int!(i8, i16, i32, i64, isize);

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Number(Number::from_f64(v))
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::String(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

/// A JSON number: integers are kept exact, everything else is `f64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// A non-negative integer.
    PosInt(u64),
    /// A negative integer.
    NegInt(i64),
    /// A float.
    Float(f64),
}

impl Number {
    /// From an unsigned integer.
    pub fn from_u64(v: u64) -> Self {
        Number::PosInt(v)
    }

    /// From a signed integer (kept exact either way).
    pub fn from_i64(v: i64) -> Self {
        if v >= 0 {
            Number::PosInt(v as u64)
        } else {
            Number::NegInt(v)
        }
    }

    /// From a float.
    pub fn from_f64(v: f64) -> Self {
        Number::Float(v)
    }

    /// As `u64`, when exactly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::PosInt(v) => Some(v),
            Number::NegInt(_) => None,
            Number::Float(f) => {
                if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 {
                    Some(f as u64)
                } else {
                    None
                }
            }
        }
    }

    /// As `i64`, when exactly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::PosInt(v) => i64::try_from(v).ok(),
            Number::NegInt(v) => Some(v),
            Number::Float(f) => {
                if f.fract() == 0.0 && f >= i64::MIN as f64 && f <= i64::MAX as f64 {
                    Some(f as i64)
                } else {
                    None
                }
            }
        }
    }

    /// As `f64` (lossy for huge integers).
    pub fn as_f64(&self) -> f64 {
        match *self {
            Number::PosInt(v) => v as f64,
            Number::NegInt(v) => v as f64,
            Number::Float(f) => f,
        }
    }
}

/// An insertion-ordered string-keyed map.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    /// An empty map.
    pub fn new() -> Self {
        Map::default()
    }

    /// Insert (or replace) a key.
    pub fn insert(&mut self, key: String, value: Value) {
        if let Some(slot) = self.entries.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.entries.push((key, value));
        }
    }

    /// Look a key up.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries exist.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// The single `(key, value)` entry, when the map has exactly one —
    /// the shape of an externally tagged enum variant.
    pub fn single_entry(&self) -> Option<(&str, &Value)> {
        match self.entries.as_slice() {
            [(k, v)] => Some((k.as_str(), v)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_insert_get_and_replace() {
        let mut m = Map::new();
        m.insert("a".into(), Value::from(1u32));
        m.insert("b".into(), Value::from("x"));
        m.insert("a".into(), Value::from(2u32));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get("a").unwrap().as_u64(), Some(2));
        assert_eq!(m.get("b").unwrap().as_str(), Some("x"));
        assert!(m.get("c").is_none());
    }

    #[test]
    fn number_conversions() {
        assert_eq!(Number::from_i64(-3).as_i64(), Some(-3));
        assert_eq!(Number::from_i64(3).as_u64(), Some(3));
        assert_eq!(Number::from_u64(7).as_f64(), 7.0);
        assert_eq!(Number::from_f64(2.0).as_u64(), Some(2));
        assert_eq!(Number::from_f64(2.5).as_u64(), None);
        assert_eq!(Number::from_f64(-2.0).as_i64(), Some(-2));
    }

    #[test]
    fn single_entry_detects_enum_shape() {
        let mut m = Map::new();
        m.insert("Variant".into(), Value::Null);
        assert_eq!(m.single_entry().unwrap().0, "Variant");
        m.insert("Other".into(), Value::Null);
        assert!(m.single_entry().is_none());
    }
}
