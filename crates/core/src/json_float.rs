//! Lossless JSON encoding for possibly non-finite `f64` fields.
//!
//! Competitive-ratio fields legitimately become `f64::INFINITY` when a
//! scan finds uncovered targets (see [`crate::coverage::Fleet::supremum`]),
//! but JSON has no literal for infinities or NaN: `serde_json` writes
//! non-finite floats as `null`, which destroys the value on round-trip
//! and makes "uncovered" scans masquerade as missing data. This module
//! encodes finite values as plain JSON numbers and non-finite values as
//! the string sentinels `"inf"`, `"-inf"` and `"nan"`, so every `f64`
//! round-trips losslessly.
//!
//! Use [`encode_f64`] / [`decode_f64`] inside manual `Serialize` /
//! `Deserialize` impls for any struct whose float fields can be
//! non-finite (the stub `serde_derive` has no `#[serde(with = ...)]`).

use serde::Value;

/// Sentinel string for `f64::INFINITY`.
pub(crate) const INF_SENTINEL: &str = "inf";
/// Sentinel string for `f64::NEG_INFINITY`.
pub(crate) const NEG_INF_SENTINEL: &str = "-inf";
/// Sentinel string for `f64::NAN`.
pub(crate) const NAN_SENTINEL: &str = "nan";

/// Encodes an `f64` into the serde data model: finite values become
/// JSON numbers, non-finite values become string sentinels that
/// [`decode_f64`] recognizes.
#[must_use]
pub fn encode_f64(v: f64) -> Value {
    if v.is_finite() {
        Value::Float(v)
    } else if v.is_nan() {
        Value::String(NAN_SENTINEL.to_owned())
    } else if v > 0.0 {
        Value::String(INF_SENTINEL.to_owned())
    } else {
        Value::String(NEG_INF_SENTINEL.to_owned())
    }
}

/// Decodes an `f64` previously encoded by [`encode_f64`]: accepts JSON
/// numbers and the `"inf"` / `"-inf"` / `"nan"` sentinels.
///
/// # Errors
///
/// Returns a message naming `field` when the value is neither a number
/// nor a recognized sentinel. JSON `null` — the lossy legacy encoding
/// of a non-finite float — is rejected with a pointer at the fix.
pub fn decode_f64(value: &Value, field: &str) -> Result<f64, String> {
    match value {
        Value::Float(v) => Ok(*v),
        Value::Int(v) => Ok(*v as f64),
        Value::UInt(v) => Ok(*v as f64),
        Value::String(s) => match s.as_str() {
            INF_SENTINEL | "+inf" => Ok(f64::INFINITY),
            NEG_INF_SENTINEL => Ok(f64::NEG_INFINITY),
            NAN_SENTINEL => Ok(f64::NAN),
            other => Err(format!(
                "field `{field}`: expected a number or one of \
                 \"inf\"/\"-inf\"/\"nan\", got string \"{other}\""
            )),
        },
        Value::Null => Err(format!(
            "field `{field}`: null is the lossy legacy encoding of a non-finite \
             ratio; re-emit the document with a build that writes \"inf\" sentinels"
        )),
        other => Err(format!("field `{field}`: expected a number, got {}", other.kind())),
    }
}

/// Unwraps a [`Value::Object`] into its field list, for manual
/// `Deserialize` impls.
///
/// # Errors
///
/// Returns a message naming `type_name` when the value is not an
/// object.
pub fn object_fields(value: Value, type_name: &str) -> Result<Vec<(String, Value)>, String> {
    match value {
        Value::Object(fields) => Ok(fields),
        other => Err(format!("{type_name}: expected an object, got {}", other.kind())),
    }
}

/// Removes and returns the field `name` from an object's field list.
///
/// # Errors
///
/// Returns a message naming `type_name` when the field is missing.
pub fn take_field(
    fields: &mut Vec<(String, Value)>,
    name: &str,
    type_name: &str,
) -> Result<Value, String> {
    match fields.iter().position(|(key, _)| key == name) {
        Some(i) => Ok(fields.remove(i).1),
        None => Err(format!("{type_name}: missing field `{name}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finite_values_stay_numbers() {
        assert_eq!(encode_f64(2.5), Value::Float(2.5));
        assert_eq!(decode_f64(&Value::Float(2.5), "x").unwrap(), 2.5);
        assert_eq!(decode_f64(&Value::Int(-3), "x").unwrap(), -3.0);
        assert_eq!(decode_f64(&Value::UInt(7), "x").unwrap(), 7.0);
    }

    #[test]
    fn non_finite_values_round_trip_through_sentinels() {
        for v in [f64::INFINITY, f64::NEG_INFINITY] {
            let encoded = encode_f64(v);
            assert!(matches!(encoded, Value::String(_)), "{v} must encode as a sentinel");
            assert_eq!(decode_f64(&encoded, "ratio").unwrap(), v);
        }
        let nan = decode_f64(&encode_f64(f64::NAN), "ratio").unwrap();
        assert!(nan.is_nan());
    }

    #[test]
    fn null_is_rejected_with_a_diagnostic() {
        let err = decode_f64(&Value::Null, "empirical").unwrap_err();
        assert!(err.contains("empirical"));
        assert!(err.contains("non-finite"));
    }

    #[test]
    fn garbage_strings_are_rejected() {
        let err = decode_f64(&Value::String("infinity-ish".into()), "ratio").unwrap_err();
        assert!(err.contains("ratio"));
    }
}
