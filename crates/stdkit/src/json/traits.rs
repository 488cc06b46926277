//! `ToJson` / `FromJson`: the typed codec layer, with impls for the
//! primitives and containers the workspace serializes.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use super::error::JsonError;
use super::value::Json;

/// Types that can render themselves as a JSON tree.
pub trait ToJson {
    /// Build the JSON tree for `self`.
    fn to_json_value(&self) -> Json;

    /// Compact JSON text for `self`.
    fn to_json(&self) -> String {
        self.to_json_value().to_string()
    }
}

/// Types that can be decoded from a JSON tree. Decoding is strict: wrong
/// types, missing fields, and unknown fields are all errors, never panics.
pub trait FromJson: Sized {
    /// Decode from a parsed tree.
    fn from_json_value(value: &Json) -> Result<Self, JsonError>;

    /// Parse and decode from JSON text.
    fn from_json(text: &str) -> Result<Self, JsonError> {
        Json::parse(text).and_then(|v| Self::from_json_value(&v))
    }
}

// --- helpers used by the derive macros -------------------------------------

/// Decode a required object field (macro support).
pub fn field<T: FromJson>(obj: &Json, name: &str) -> Result<T, JsonError> {
    match obj.get(name) {
        Some(v) => T::from_json_value(v).map_err(|e| e.in_field(name)),
        None => Err(JsonError::msg(format!("missing field `{name}`"))),
    }
}

/// Error unless `v` is an object whose keys all appear in `allowed`
/// (macro support; makes unknown fields a decode error).
pub fn check_object(v: &Json, type_name: &str, allowed: &[&str]) -> Result<(), JsonError> {
    let fields = v
        .as_object()
        .ok_or_else(|| JsonError::expected("object", v).in_type(type_name))?;
    for (key, _) in fields {
        if !allowed.contains(&key.as_str()) {
            return Err(JsonError::msg(format!("unknown field `{key}`")).in_type(type_name));
        }
    }
    Ok(())
}

// --- scalar impls ----------------------------------------------------------

impl ToJson for bool {
    fn to_json_value(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json_value(v: &Json) -> Result<Self, JsonError> {
        v.as_bool().ok_or_else(|| JsonError::expected("bool", v))
    }
}

macro_rules! signed_json {
    ($($t:ty),+) => {$(
        impl ToJson for $t {
            fn to_json_value(&self) -> Json {
                Json::Int(*self as i64)
            }
        }
        impl FromJson for $t {
            fn from_json_value(v: &Json) -> Result<Self, JsonError> {
                let i = v.as_i64().ok_or_else(|| JsonError::expected("integer", v))?;
                <$t>::try_from(i).map_err(|_| {
                    JsonError::msg(format!("{i} out of range for {}", stringify!($t)))
                })
            }
        }
    )+};
}

signed_json!(i8, i16, i32, i64, isize);

macro_rules! unsigned_json {
    ($($t:ty),+) => {$(
        impl ToJson for $t {
            fn to_json_value(&self) -> Json {
                let wide = *self as u64;
                match i64::try_from(wide) {
                    Ok(i) => Json::Int(i),
                    Err(_) => Json::UInt(wide),
                }
            }
        }
        impl FromJson for $t {
            fn from_json_value(v: &Json) -> Result<Self, JsonError> {
                let u = v.as_u64().ok_or_else(|| JsonError::expected("unsigned integer", v))?;
                <$t>::try_from(u).map_err(|_| {
                    JsonError::msg(format!("{u} out of range for {}", stringify!($t)))
                })
            }
        }
    )+};
}

unsigned_json!(u8, u16, u32, u64, usize);

impl ToJson for f64 {
    fn to_json_value(&self) -> Json {
        Json::Float(*self)
    }
}

impl FromJson for f64 {
    fn from_json_value(v: &Json) -> Result<Self, JsonError> {
        v.as_f64().ok_or_else(|| JsonError::expected("number", v))
    }
}

impl ToJson for f32 {
    fn to_json_value(&self) -> Json {
        Json::Float(f64::from(*self))
    }
}

impl FromJson for f32 {
    fn from_json_value(v: &Json) -> Result<Self, JsonError> {
        v.as_f64().map(|f| f as f32).ok_or_else(|| JsonError::expected("number", v))
    }
}

impl ToJson for String {
    fn to_json_value(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json_value(v: &Json) -> Result<Self, JsonError> {
        v.as_str().map(str::to_owned).ok_or_else(|| JsonError::expected("string", v))
    }
}

impl ToJson for str {
    fn to_json_value(&self) -> Json {
        Json::Str(self.to_owned())
    }
}

impl ToJson for char {
    fn to_json_value(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl FromJson for char {
    fn from_json_value(v: &Json) -> Result<Self, JsonError> {
        let s = v.as_str().ok_or_else(|| JsonError::expected("single-char string", v))?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(JsonError::msg(format!("expected single-char string, got {s:?}"))),
        }
    }
}

// --- container impls -------------------------------------------------------

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json_value(&self) -> Json {
        (**self).to_json_value()
    }
}

impl<T: ToJson> ToJson for Box<T> {
    fn to_json_value(&self) -> Json {
        (**self).to_json_value()
    }
}

impl<T: FromJson> FromJson for Box<T> {
    fn from_json_value(v: &Json) -> Result<Self, JsonError> {
        T::from_json_value(v).map(Box::new)
    }
}

/// Shared values serialize as their pointee, so sharing one copy-on-write
/// is invisible in the bytes.
impl<T: ToJson> ToJson for Arc<T> {
    fn to_json_value(&self) -> Json {
        (**self).to_json_value()
    }
}

impl<T: FromJson> FromJson for Arc<T> {
    fn from_json_value(v: &Json) -> Result<Self, JsonError> {
        T::from_json_value(v).map(Arc::new)
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json_value(&self) -> Json {
        match self {
            None => Json::Null,
            Some(inner) => inner.to_json_value(),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json_value(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json_value(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json_value(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json_value).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json_value(v: &Json) -> Result<Self, JsonError> {
        let items = v.as_array().ok_or_else(|| JsonError::expected("array", v))?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                T::from_json_value(item).map_err(|e| e.in_field(&format!("[{i}]")))
            })
            .collect()
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json_value(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json_value).collect())
    }
}

macro_rules! tuple_json {
    ($(($($name:ident : $idx:tt),+) with $len:literal;)+) => {$(
        impl<$($name: ToJson),+> ToJson for ($($name,)+) {
            fn to_json_value(&self) -> Json {
                Json::Arr(vec![$(self.$idx.to_json_value()),+])
            }
        }
        impl<$($name: FromJson),+> FromJson for ($($name,)+) {
            fn from_json_value(v: &Json) -> Result<Self, JsonError> {
                let items = v.as_array().ok_or_else(|| JsonError::expected("array", v))?;
                if items.len() != $len {
                    return Err(JsonError::msg(format!(
                        "expected array of {}, found {} elements", $len, items.len()
                    )));
                }
                Ok(($($name::from_json_value(&items[$idx])
                    .map_err(|e| e.in_field(&format!("[{}]", $idx)))?,)+))
            }
        }
    )+};
}

tuple_json! {
    (A: 0) with 1;
    (A: 0, B: 1) with 2;
    (A: 0, B: 1, C: 2) with 3;
    (A: 0, B: 1, C: 2, D: 3) with 4;
    (A: 0, B: 1, C: 2, D: 3, E: 4) with 5;
}

/// Types usable as JSON object keys, encoded as strings — `String` itself
/// plus integers and integer-backed newtype ids (serde_json does the same
/// stringification for integer-keyed maps). Implement via
/// [`crate::json_key_newtype!`] for newtype wrappers.
pub trait JsonKey: Sized {
    /// Render the key as the object-field string.
    fn to_key(&self) -> String;

    /// Parse the key back from the object-field string.
    fn from_key(s: &str) -> Result<Self, JsonError>;
}

impl JsonKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }
    fn from_key(s: &str) -> Result<Self, JsonError> {
        Ok(s.to_owned())
    }
}

macro_rules! int_json_key {
    ($($t:ty),+) => {$(
        impl JsonKey for $t {
            fn to_key(&self) -> String {
                self.to_string()
            }
            fn from_key(s: &str) -> Result<Self, JsonError> {
                s.parse::<$t>().map_err(|_| {
                    JsonError::msg(format!("invalid {} map key {s:?}", stringify!($t)))
                })
            }
        }
    )+};
}

int_json_key!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<K: JsonKey, V: ToJson, S> ToJson for HashMap<K, V, S> {
    /// Keys are emitted in sorted order so output is deterministic.
    fn to_json_value(&self) -> Json {
        let mut fields: Vec<(String, Json)> =
            self.iter().map(|(k, v)| (k.to_key(), v.to_json_value())).collect();
        fields.sort_by(|(a, _), (b, _)| a.cmp(b));
        Json::Obj(fields)
    }
}

impl<K, V, S> FromJson for HashMap<K, V, S>
where
    K: JsonKey + std::hash::Hash + Eq,
    V: FromJson,
    S: std::hash::BuildHasher + Default,
{
    fn from_json_value(v: &Json) -> Result<Self, JsonError> {
        let fields = v.as_object().ok_or_else(|| JsonError::expected("object", v))?;
        fields
            .iter()
            .map(|(k, val)| {
                let key = K::from_key(k)?;
                V::from_json_value(val).map(|d| (key, d)).map_err(|e| e.in_field(k))
            })
            .collect()
    }
}

impl<K: JsonKey, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json_value(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.to_key(), v.to_json_value())).collect())
    }
}

impl<K: JsonKey + Ord, V: FromJson> FromJson for BTreeMap<K, V> {
    fn from_json_value(v: &Json) -> Result<Self, JsonError> {
        let fields = v.as_object().ok_or_else(|| JsonError::expected("object", v))?;
        fields
            .iter()
            .map(|(k, val)| {
                let key = K::from_key(k)?;
                V::from_json_value(val).map(|d| (key, d)).map_err(|e| e.in_field(k))
            })
            .collect()
    }
}

impl<T: ToJson> ToJson for BTreeSet<T> {
    fn to_json_value(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json_value).collect())
    }
}

impl<T: FromJson + Ord> FromJson for BTreeSet<T> {
    fn from_json_value(v: &Json) -> Result<Self, JsonError> {
        Vec::<T>::from_json_value(v).map(|items| items.into_iter().collect())
    }
}

impl<T: ToJson + Ord + Clone, S> ToJson for HashSet<T, S> {
    /// Elements are emitted in sorted order so output is deterministic.
    fn to_json_value(&self) -> Json {
        let mut items: Vec<T> = self.iter().cloned().collect();
        items.sort();
        Json::Arr(items.iter().map(ToJson::to_json_value).collect())
    }
}

impl<T, S> FromJson for HashSet<T, S>
where
    T: FromJson + std::hash::Hash + Eq,
    S: std::hash::BuildHasher + Default,
{
    fn from_json_value(v: &Json) -> Result<Self, JsonError> {
        Vec::<T>::from_json_value(v).map(|items| items.into_iter().collect())
    }
}

impl ToJson for Json {
    fn to_json_value(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json_value(v: &Json) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        assert_eq!(u64::from_json(&u64::MAX.to_json()).unwrap(), u64::MAX);
        assert_eq!(i64::from_json(&i64::MIN.to_json()).unwrap(), i64::MIN);
        assert_eq!(u8::from_json("255").unwrap(), 255);
        assert!(u8::from_json("256").is_err());
        assert!(u8::from_json("-1").is_err());
        assert!(i8::from_json("1e2").is_err(), "floats are not integers");
        assert_eq!(f64::from_json("3").unwrap(), 3.0, "ints coerce to floats");
        assert_eq!(String::from_json("\"a\\nb\"").unwrap(), "a\nb");
        assert_eq!(char::from_json("\"é\"").unwrap(), 'é');
        assert!(char::from_json("\"ab\"").is_err());
        assert!(bool::from_json("1").is_err());
    }

    #[test]
    fn container_round_trips() {
        let v: Vec<Option<u32>> = vec![Some(1), None, Some(3)];
        assert_eq!(v.to_json(), "[1,null,3]");
        assert_eq!(Vec::<Option<u32>>::from_json("[1,null,3]").unwrap(), v);

        let t = (1u8, "x".to_string(), 2.5f64);
        let back: (u8, String, f64) = FromJson::from_json(&t.to_json()).unwrap();
        assert_eq!(back, t);
        assert!(<(u8, u8)>::from_json("[1]").is_err());

        let mut m = HashMap::new();
        m.insert("b".to_string(), 2u32);
        m.insert("a".to_string(), 1u32);
        assert_eq!(m.to_json(), r#"{"a":1,"b":2}"#, "sorted for determinism");
        assert_eq!(HashMap::<String, u32>::from_json(&m.to_json()).unwrap(), m);

        let mut bt = BTreeMap::new();
        bt.insert("k".to_string(), vec![1u8, 2]);
        assert_eq!(BTreeMap::<String, Vec<u8>>::from_json(&bt.to_json()).unwrap(), bt);
    }

    #[test]
    fn arc_round_trips_byte_stable_as_its_pointee() {
        let mut bt = BTreeMap::new();
        bt.insert("k".to_string(), vec![Some(1u32), None]);
        let shared = Arc::new(bt.clone());
        let json = shared.to_json();
        assert_eq!(json, bt.to_json(), "an Arc serializes exactly like its pointee");
        let back = Arc::<BTreeMap<String, Vec<Option<u32>>>>::from_json(&json).unwrap();
        assert_eq!(back, shared);
        assert_eq!(back.to_json(), json, "serialization must be byte-stable");
        assert_eq!(Box::new(bt).to_json(), json, "Arc and Box agree");
        assert!(Arc::<u8>::from_json("256").is_err(), "pointee errors propagate");
    }

    #[test]
    fn helper_field_and_check_object() {
        let v = Json::parse(r#"{"a":1,"b":"x"}"#).unwrap();
        assert_eq!(field::<u32>(&v, "a").unwrap(), 1);
        assert!(field::<u32>(&v, "missing").unwrap_err().message().contains("missing field"));
        assert!(field::<u32>(&v, "b").unwrap_err().message().contains("field `b`"));
        assert!(check_object(&v, "T", &["a", "b"]).is_ok());
        let err = check_object(&v, "T", &["a"]).unwrap_err();
        assert!(err.message().contains("unknown field `b`"), "{err}");
        assert!(check_object(&Json::Int(1), "T", &[]).is_err());
    }
}
