//! Offline subset of `serde`: `Serialize`/`Deserialize` traits and
//! derive macros over JSON.
//!
//! The build environment has no crates.io access. Upstream serde's
//! visitor architecture is far more than this workspace needs, so the
//! vendored subset is JSON-only and asymmetric:
//!
//! - reads stream: [`Deserialize`] decodes a type straight from a
//!   [`Reader`], a cursor over the JSON text, with no intermediate tree;
//! - writes still build a tree: [`Serialize`] maps a type to a
//!   [`Value`] (the same data model `serde_json` exposes), which
//!   `serde_json` then renders.
//!
//! Trait impls are derived with a hand-rolled proc macro.
//! Representations follow serde's JSON conventions: structs are
//! objects, unit enum variants are strings, data-carrying variants are
//! single-entry `{"Variant": ...}` objects, `Option` is `null`/value,
//! and newtype structs are transparent.

mod de;
mod value;

pub use de::{Reader, MAX_DEPTH};
pub use serde_derive::{Deserialize, Serialize};
pub use value::{Map, Number, Value};

/// Serialization to the [`Value`] data model.
pub trait Serialize {
    /// Convert `self` into a value tree.
    fn to_value(&self) -> Value;
}

/// Deserialization straight from JSON text.
pub trait Deserialize: Sized {
    /// Read one `Self` from the cursor, leaving it just past the value.
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error>;
}

/// Deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    /// An error with a custom message.
    pub fn custom(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }

    /// A missing-field error.
    pub fn missing_field(name: &str) -> Self {
        Error(format!("missing field `{name}`"))
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

// ---------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.parse_bool()
    }
}

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::from_u64(*self as u64))
            }
        }
        impl Deserialize for $t {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                let n = r.parse_number()?.as_u64().ok_or_else(|| r.error("expected unsigned integer"))?;
                <$t>::try_from(n).map_err(|_| Error::custom(format!("{n} out of range")))
            }
        }
    )*};
}

impl_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::from_i64(*self as i64))
            }
        }
        impl Deserialize for $t {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                let n = r.parse_number()?.as_i64().ok_or_else(|| r.error("expected integer"))?;
                <$t>::try_from(n).map_err(|_| Error::custom(format!("{n} out of range")))
            }
        }
    )*};
}

impl_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Number(Number::from_f64(*self))
    }
}

impl Deserialize for f64 {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        Ok(r.parse_number()?.as_f64())
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Number(Number::from_f64(*self as f64))
    }
}

impl Deserialize for f32 {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        Ok(r.parse_number()?.as_f64() as f32)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        Ok(r.parse_str()?.into_owned())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
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
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        if r.eat_null() {
            Ok(None)
        } else {
            T::deserialize(r).map(Some)
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.begin_array()?;
        let mut items = Vec::new();
        while r.next_element()? {
            items.push(T::deserialize(r)?);
        }
        Ok(items)
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
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.begin_array()?;
        let items = (0..N)
            .map(|i| r.element(i, N))
            .collect::<Result<Vec<T>, _>>()?;
        r.end_array(N)?;
        Ok(items
            .try_into()
            .unwrap_or_else(|_| unreachable!("read exactly {N} elements")))
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                let len = [$($idx),+].len();
                r.begin_array()?;
                let tuple = ($(r.element::<$name>($idx, len)?,)+);
                r.end_array(len)?;
                Ok(tuple)
            }
        }
    )*};
}

impl_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read<T: Deserialize>(text: &str) -> Result<T, Error> {
        let mut r = Reader::new(text);
        let v = T::deserialize(&mut r)?;
        r.finish()?;
        Ok(v)
    }

    #[test]
    fn primitives_decode() {
        assert_eq!(read::<u32>("42").unwrap(), 42);
        assert_eq!(read::<i64>("-9").unwrap(), -9);
        assert_eq!(read::<f64>("1.5").unwrap(), 1.5);
        assert!(read::<bool>("true").unwrap());
        assert_eq!(read::<String>(r#""hi""#).unwrap(), "hi");
        assert_eq!(read::<Option<u8>>("null").unwrap(), None);
        assert_eq!(read::<Option<u8>>("3").unwrap(), Some(3));
        assert_eq!(read::<Vec<u8>>("[1,2,3]").unwrap(), vec![1, 2, 3]);
        assert_eq!(read::<(u8, f64)>("[7,0.5]").unwrap(), (7, 0.5));
        assert_eq!(read::<[u16; 2]>("[4,5]").unwrap(), [4, 5]);
    }

    #[test]
    fn type_mismatches_error() {
        assert!(read::<u32>("true").is_err());
        assert!(read::<bool>("null").is_err());
        assert!(read::<u8>("300").is_err());
        assert!(read::<u8>("2.5").is_err());
        assert!(read::<String>("1").is_err());
        assert!(read::<(u8, u8)>("[1]").is_err());
        assert!(read::<(u8, u8)>("[1,2,3]").is_err());
        assert!(read::<[u8; 2]>("[1,2,3]").is_err());
    }
}
