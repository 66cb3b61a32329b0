//! Stable typed query API and canonical request-parameter hashing.
//!
//! The serving layer (`faultline-serve`) memoizes query results keyed
//! on the *fully resolved* request parameters. Two requests that mean
//! the same thing must map to the same cache entry even when their
//! JSON spells the fields in a different order or writes `3` where
//! another client writes `3.0`; two requests that differ in any
//! parameter (notably the seed) must never share an entry. This module
//! provides that canonical form:
//!
//! * [`canonical_string`] — a type-tagged, injective text encoding of a
//!   [`Value`] with object fields sorted by key (recursively) and
//!   numerically equal `Int`/`UInt`/`Float` representations unified;
//!   equal canonical strings imply equal request parameters.
//! * [`canonical_hash64`] — FNV-1a 64-bit hash of the canonical
//!   string, used for cache shard selection (the full string remains
//!   the collision-proof key).
//!
//! It also exposes the first typed query: [`CrQuery`] resolves the
//! closed-form competitive-ratio facts for a validated `(n, f)` pair
//! into a serde-serializable [`CrReport`], shared by the CLI and the
//! query service so both always agree.

use std::fmt::Write as _;

use serde::{Deserialize, Serialize, Value};

use crate::error::Result;
use crate::params::{Params, Regime};
use crate::{lower_bound, ratio};

/// Encodes a value into its canonical string form, with type tags so
/// that values of different kinds can never produce the same encoding
/// (a string `"inf"` and the float infinity stay distinct, unlike in
/// plain JSON-with-sentinels). Object fields are written sorted by key,
/// recursively (fields with equal keys keep their order), and
/// numerically equal representations are unified, so `Int(3)`,
/// `UInt(3)` and `Float(3.0)` encode identically.
#[must_use]
pub fn canonical_string(value: &Value) -> String {
    let mut out = String::with_capacity(encoded_len_hint(value));
    encode(&mut out, value);
    out
}

/// About how many bytes [`encode`] writes for `value`, so the output
/// is allocated once: exact but for numbers, which are assumed short.
fn encoded_len_hint(value: &Value) -> usize {
    match value {
        Value::Null | Value::Bool(_) => 1,
        Value::Int(_) | Value::UInt(_) | Value::Float(_) => 8,
        Value::String(s) => s.len() + 2,
        Value::Array(items) => {
            items.iter().map(|item| encoded_len_hint(item) + 1).sum::<usize>() + 2
        }
        Value::Object(fields) => {
            fields.iter().map(|(key, item)| key.len() + 4 + encoded_len_hint(item)).sum::<usize>()
                + 2
        }
    }
}

/// Writes `value`'s canonical encoding onto `out` (see
/// [`canonical_string`]).
fn encode(out: &mut String, value: &Value) {
    match value {
        Value::Null => out.push('n'),
        Value::Bool(true) => out.push('t'),
        Value::Bool(false) => out.push('f'),
        Value::Int(v) => {
            let _ = write!(out, "i{v}");
        }
        Value::UInt(v) => {
            let _ = match i64::try_from(*v) {
                Ok(v) => write!(out, "i{v}"),
                Err(_) => write!(out, "u{v}"),
            };
        }
        // An integral float in the exactly representable range is the
        // integer (`-0.0` is `0`). Shortest-roundtrip `{}` formatting
        // is injective on every other f64.
        Value::Float(v) => {
            const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
            let _ = if v.is_finite() && *v == v.trunc() && v.abs() <= EXACT {
                write!(out, "i{}", *v as i64)
            } else {
                write!(out, "d{v}")
            };
        }
        Value::String(s) => encode_str(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                encode(out, item);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            if fields.is_sorted_by(|a, b| a.0 <= b.0) {
                encode_fields(out, fields.iter());
            } else {
                let mut sorted: Vec<&(String, Value)> = fields.iter().collect();
                sorted.sort_by(|a, b| a.0.cmp(&b.0));
                encode_fields(out, sorted.into_iter());
            }
            out.push('}');
        }
    }
}

/// Writes an object's fields, in the order given, without the braces.
fn encode_fields<'a>(out: &mut String, fields: impl Iterator<Item = &'a (String, Value)>) {
    for (i, (key, item)) in fields.enumerate() {
        if i > 0 {
            out.push(',');
        }
        encode_str(out, key);
        out.push(':');
        encode(out, item);
    }
}

/// Writes `text` quoted, with `"` and `\` escaped.
fn encode_str(out: &mut String, text: &str) {
    out.push('"');
    let mut rest = text;
    while let Some(at) = rest.find(['"', '\\']) {
        out.push_str(&rest[..at]);
        out.push('\\');
        out.push_str(&rest[at..=at]);
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
    out.push('"');
}

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hashes raw bytes with FNV-1a 64 (stable across platforms and runs,
/// unlike `std::hash::DefaultHasher` which is randomly keyed).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The canonical 64-bit hash of a request-parameter value: FNV-1a of
/// [`canonical_string`]. Stable across field ordering and numeric
/// spelling; used for cache sharding while the canonical string itself
/// remains the exact cache key.
#[must_use]
pub fn canonical_hash64(value: &Value) -> u64 {
    fnv1a64(canonical_string(value).as_bytes())
}

/// A typed closed-form competitive-ratio query for one `(n, f)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrQuery {
    /// Number of robots.
    pub n: usize,
    /// Fault tolerance.
    pub f: usize,
}

/// Every closed-form fact about `(n, f)` in one serializable report:
/// what `faultline bounds` prints and what `GET /v1/cr` serves.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrReport {
    /// Number of robots.
    pub n: usize,
    /// Fault tolerance.
    pub f: usize,
    /// The regime the pair falls into.
    pub regime: Regime,
    /// Visits required to confirm a target (`f + 1`).
    pub required_visits: usize,
    /// Competitive ratio of `A(n, f)` (Theorem 1).
    pub cr_upper: f64,
    /// Lower bound on any algorithm's competitive ratio (Section 4).
    pub lower_bound: f64,
    /// Optimal cone parameter `beta*` (proportional regime only).
    pub optimal_beta: Option<f64>,
    /// Expansion factor of `A(n, f)` (proportional regime only).
    pub expansion_factor: Option<f64>,
    /// Proportionality ratio `r` (proportional regime only).
    pub proportionality_ratio: Option<f64>,
}

impl CrQuery {
    /// Evaluates the query against the paper's closed forms.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::InvalidParameters`] for invalid `(n, f)`
    /// and propagates closed-form evaluation failures.
    pub fn evaluate(&self) -> Result<CrReport> {
        let params = Params::new(self.n, self.f)?;
        let (optimal_beta, expansion_factor, proportionality_ratio) = match params.regime() {
            Regime::Proportional => (
                Some(ratio::optimal_beta(params)?),
                Some(ratio::expansion_factor(params)?),
                Some(ratio::proportionality_ratio(params)?),
            ),
            Regime::TwoGroup => (None, None, None),
        };
        Ok(CrReport {
            n: self.n,
            f: self.f,
            regime: params.regime(),
            required_visits: params.required_visits(),
            cr_upper: ratio::cr_upper(params),
            lower_bound: lower_bound::lower_bound(params)?,
            optimal_beta,
            expansion_factor,
            proportionality_ratio,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(fields: Vec<(&str, Value)>) -> Value {
        Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    #[test]
    fn field_order_does_not_change_the_hash() {
        let a = obj(vec![("n", Value::Int(3)), ("f", Value::Int(1))]);
        let b = obj(vec![("f", Value::Int(1)), ("n", Value::Int(3))]);
        assert_eq!(canonical_string(&a), canonical_string(&b));
        assert_eq!(canonical_hash64(&a), canonical_hash64(&b));
    }

    #[test]
    fn numeric_spellings_unify() {
        assert_eq!(canonical_string(&Value::Float(3.0)), canonical_string(&Value::Int(3)),);
        assert_eq!(canonical_string(&Value::UInt(3)), canonical_string(&Value::Int(3)),);
        assert_eq!(canonical_string(&Value::Float(-0.0)), canonical_string(&Value::Int(0)));
        assert_ne!(canonical_string(&Value::Float(3.5)), canonical_string(&Value::Int(3)));
    }

    #[test]
    fn kinds_never_collide() {
        // A string spelling of a number is not the number.
        assert_ne!(canonical_string(&Value::String("3".into())), canonical_string(&Value::Int(3)));
        assert_ne!(
            canonical_string(&Value::String("inf".into())),
            canonical_string(&Value::Float(f64::INFINITY))
        );
        assert_ne!(canonical_string(&Value::Null), canonical_string(&Value::String("n".into())));
        assert_ne!(
            canonical_string(&Value::Bool(true)),
            canonical_string(&Value::String("t".into()))
        );
    }

    #[test]
    fn nested_objects_sort_recursively() {
        let a = obj(vec![(
            "scenario",
            obj(vec![("targets", Value::Array(vec![Value::Float(2.0)])), ("n", Value::Int(3))]),
        )]);
        let b = obj(vec![(
            "scenario",
            obj(vec![("n", Value::Int(3)), ("targets", Value::Array(vec![Value::Int(2)]))]),
        )]);
        assert_eq!(canonical_string(&a), canonical_string(&b));
    }

    #[test]
    fn canonical_bytes_are_pinned() {
        // Recorded from the encoder this one replaced (which built a
        // sorted copy of the value first); cache keys must not move.
        let parse = |json: &str| serde_json::from_str::<Value>(json).unwrap();
        let byzantine = parse(
            r#"{"n":5,"f":2,"strategy":"paper","beta":null,"targets":[2.0,-6.0,12.0],"faulty":null,"fault_plan":["Reliable","Reliable","Reliable",{"Byzantine":{"lie_rate":0.75}},{"Byzantine":{"lie_rate":0.75}}],"quorum":3,"seed":3}"#,
        );
        let supremum = parse(r#"{"n":5,"f":2,"strategy":"paper","beta":null,"xmax":17.625}"#);
        let nested = obj(vec![
            (
                "zeta",
                obj(vec![
                    ("b", Value::Int(2)),
                    ("a", Value::Array(vec![Value::Float(1.0), Value::Null, Value::Bool(true)])),
                ]),
            ),
            ("alpha", Value::Bool(false)),
            ("mid", obj(vec![])),
            ("arr", Value::Array(vec![])),
        ]);
        let repeated = obj(vec![("k", Value::Int(2)), ("a", Value::Int(0)), ("k", Value::Int(1))]);
        let strings = obj(vec![
            ("q\"uote", Value::String("back\\slash \"quoted\"".into())),
            ("plain", Value::String("é ☃ \n".into())),
        ]);
        let pinned: Vec<(Value, String)> = vec![
            (
                byzantine,
                r#"{"beta":n,"f":i2,"fault_plan":["Reliable","Reliable","Reliable",{"Byzantine":{"lie_rate":d0.75}},{"Byzantine":{"lie_rate":d0.75}}],"faulty":n,"n":i5,"quorum":i3,"seed":i3,"strategy":"paper","targets":[i2,i-6,i12]}"#.into(),
            ),
            (supremum, r#"{"beta":n,"f":i2,"n":i5,"strategy":"paper","xmax":d17.625}"#.into()),
            (Value::UInt(u64::MAX), "u18446744073709551615".into()),
            (Value::UInt(1 << 63), "u9223372036854775808".into()),
            (Value::UInt(7), "i7".into()),
            (Value::Float(-0.0), "i0".into()),
            (Value::Float(1e300), format!("d1{}", "0".repeat(300))),
            (Value::Float(42.0), "i42".into()),
            (Value::Float(-7.0), "i-7".into()),
            (Value::Float(9_007_199_254_740_992.0), "i9007199254740992".into()),
            (Value::Float(18_014_398_509_481_984.0), "d18014398509481984".into()),
            (Value::Float(0.1), "d0.1".into()),
            (Value::Float(f64::INFINITY), "dinf".into()),
            (Value::Float(f64::NAN), "dNaN".into()),
            (Value::Int(-12), "i-12".into()),
            (nested, r#"{"alpha":f,"arr":[],"mid":{},"zeta":{"a":[i1,n,t],"b":i2}}"#.into()),
            (repeated, r#"{"a":i0,"k":i2,"k":i1}"#.into()),
            (strings, "{\"plain\":\"é ☃ \n\",\"q\\\"uote\":\"back\\\\slash \\\"quoted\\\"\"}".into()),
        ];
        for (value, key) in pinned {
            assert_eq!(canonical_string(&value), key, "{value:?}");
        }
    }

    #[test]
    fn distinct_seeds_hash_distinctly() {
        let key = |seed: u64| {
            canonical_string(&obj(vec![
                ("name", Value::String("mc".into())),
                ("seed", Value::UInt(seed)),
            ]))
        };
        let mut seen = std::collections::HashSet::new();
        for seed in 0..10_000u64 {
            assert!(seen.insert(key(seed)), "seed {seed} collided");
        }
    }

    #[test]
    fn cr_query_matches_closed_forms() {
        let report = CrQuery { n: 3, f: 1 }.evaluate().unwrap();
        assert_eq!(report.regime, Regime::Proportional);
        assert!((report.cr_upper - 5.2331).abs() < 1e-3);
        assert!(report.optimal_beta.is_some());
        assert_eq!(report.required_visits, 2);

        let trivial = CrQuery { n: 6, f: 2 }.evaluate().unwrap();
        assert_eq!(trivial.regime, Regime::TwoGroup);
        assert_eq!(trivial.cr_upper, 1.0);
        assert_eq!(trivial.expansion_factor, None);

        assert!(CrQuery { n: 2, f: 2 }.evaluate().is_err());
    }

    #[test]
    fn cr_report_roundtrips_through_json() {
        let report = CrQuery { n: 5, f: 2 }.evaluate().unwrap();
        let json = serde_json::to_string(&report).unwrap();
        let back: CrReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }
}
