//! Offline subset of `serde_json`: JSON text ⇄ the [`Value`] tree from
//! the vendored `serde` crate, plus typed entry points over its
//! `Serialize`/`Deserialize` traits and a `json!` macro.

mod parser;
mod writer;

pub use serde::{Map, Number, Value};

use serde::{Deserialize, Serialize};

/// JSON (de)serialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    pub(crate) fn msg(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error(e.to_string())
    }
}

/// Serialize a value to compact JSON text.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(writer::write(&value.to_value(), None))
}

/// Serialize a value to two-space-indented JSON text.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(writer::write(&value.to_value(), Some(0)))
}

/// Parse JSON text into any deserializable type.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let value = parser::parse(text)?;
    Ok(T::from_value(&value)?)
}

/// Build a [`Value`] from JSON-like syntax.
///
/// Supports the object / array / expression forms the workspace uses;
/// keys must be string literals and values any `Into<Value>` expression.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($item:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::Value::from($item) ),* ])
    };
    ({ $($key:literal : $val:expr),* $(,)? }) => {{
        #[allow(unused_mut)]
        let mut m = $crate::Map::new();
        $( m.insert(::std::string::String::from($key), $crate::Value::from($val)); )*
        $crate::Value::Object(m)
    }};
    ($other:expr) => { $crate::Value::from($other) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_value() {
        let v = json!({
            "name": "acclaim",
            "nodes": 64u32,
            "ratio": 1.5f64,
            "tags": json!(["a", "b"]),
            "inner": json!({ "x": 1u8 }),
        });
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, v);

        let pretty = to_string_pretty(&v).unwrap();
        let back: Value = from_str(&pretty).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn skipped_fields_are_neither_written_nor_read() {
        #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
        struct Kept {
            n: u32,
            #[serde(skip)]
            cache: Vec<u32>,
        }
        #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
        enum Shape {
            Sized {
                n: u32,
                #[serde(skip)]
                cache: Vec<u32>,
            },
        }
        let kept = Kept {
            n: 3,
            cache: vec![1, 2],
        };
        assert_eq!(to_string(&kept).unwrap(), r#"{"n":3}"#);
        let back: Kept = from_str(r#"{"n":3,"cache":[9]}"#).unwrap();
        assert_eq!(
            back,
            Kept {
                n: 3,
                cache: vec![]
            }
        );
        let shape = Shape::Sized {
            n: 4,
            cache: vec![5],
        };
        assert_eq!(to_string(&shape).unwrap(), r#"{"Sized":{"n":4}}"#);
        let back: Shape = from_str(r#"{"Sized":{"n":4}}"#).unwrap();
        assert_eq!(
            back,
            Shape::Sized {
                n: 4,
                cache: vec![]
            }
        );
    }

    #[test]
    fn parses_literals_and_nesting() {
        let v: Value = from_str(r#"{"a": [1, -2, 3.5, true, false, null], "b": "x\ny"}"#).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_i64(), Some(-2));
        assert_eq!(a[2].as_f64(), Some(3.5));
        assert_eq!(a[3].as_bool(), Some(true));
        assert_eq!(a[4].as_bool(), Some(false));
        assert!(a[5].is_null());
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\ny"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_str::<Value>("{").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
        assert!(from_str::<Value>("12 34").is_err());
        assert!(from_str::<Value>("\"unterminated").is_err());
    }

    #[test]
    fn floats_round_trip_exactly() {
        for &f in &[0.1, 1e-9, 123456.789, -2.5e30, 1.0] {
            let text = to_string(&f).unwrap();
            let back: f64 = from_str(&text).unwrap();
            assert_eq!(back, f);
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "quote \" backslash \\ newline \n tab \t unicode \u{1F600} control \u{1}";
        let text = to_string(s).unwrap();
        let back: String = from_str(&text).unwrap();
        assert_eq!(back, s);
    }
}
