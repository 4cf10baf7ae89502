//! Typed attribute values.
//!
//! UniStore stores heterogeneous public data; values are strings, integers
//! or floats (the paper's example schema, Fig. 3, has `String`, `Number`
//! and `Date` — dates are represented as integers here). Every value maps
//! onto the order-preserving key space so that range predicates
//! (`Ai ≥ vi`, paper §2) translate to key ranges.

use std::cmp::Ordering;
use std::fmt;

use bytes::{Bytes, BytesMut};

use unistore_util::ophash;
use unistore_util::wire::{Wire, WireError};
use unistore_util::CompactStr;

/// A triple's value.
///
/// Strings ride [`CompactStr`]: short payloads (≤ 22 bytes — OIDs,
/// names, most attribute values) live inline, so cloning a `Value`
/// never touches the allocator.
#[derive(Clone, Debug)]
pub enum Value {
    /// UTF-8 string.
    Str(CompactStr),
    /// Signed integer (also used for years/dates).
    Int(i64),
    /// Floating-point number.
    Float(f64),
}

/// Type-class tag used in key encodings: numbers sort before strings.
const CLASS_NUM: u64 = 0;
const CLASS_STR: u64 = 1;

impl Value {
    /// Convenience constructor from `&str`.
    pub fn str(s: &str) -> Value {
        Value::Str(CompactStr::new(s))
    }

    /// The numeric interpretation, if any (ints widen to `f64`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Str(_) => None,
        }
    }

    /// The string payload, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Full-width (64-bit) order-preserving encoding:
    /// `[class:1][payload:63]`. Monotone w.r.t. [`Value::cmp_values`].
    pub fn key_bits(&self) -> u64 {
        match self {
            Value::Int(i) => (CLASS_NUM << 63) | (ophash::encode_f64(*i as f64) >> 1),
            Value::Float(f) => (CLASS_NUM << 63) | (ophash::encode_f64(*f) >> 1),
            Value::Str(s) => (CLASS_STR << 63) | (ophash::encode_str(s) >> 1),
        }
    }

    /// Total order over values: numbers before strings, numbers by
    /// magnitude (ints and floats compare numerically), strings
    /// lexicographically by bytes.
    pub fn cmp_values(&self, other: &Value) -> Ordering {
        match (self, other) {
            (Value::Str(a), Value::Str(b)) => a.as_bytes().cmp(b.as_bytes()),
            (Value::Str(_), _) => Ordering::Greater,
            (_, Value::Str(_)) => Ordering::Less,
            (a, b) => {
                let (x, y) = (a.as_f64().unwrap(), b.as_f64().unwrap());
                x.partial_cmp(&y).unwrap_or(Ordering::Equal)
            }
        }
    }

    /// Semantic equality (numeric across Int/Float, byte-wise for
    /// strings).
    pub fn eq_values(&self, other: &Value) -> bool {
        self.cmp_values(other) == Ordering::Equal
    }

    /// Hash consistent with [`Value::eq_values`] (numeric classes
    /// collapse onto the f64 encoding).
    pub fn semantic_hash(&self) -> u64 {
        match self {
            Value::Str(s) => unistore_util::fxhash::hash_bytes(s.as_bytes()),
            Value::Int(i) => ophash::encode_f64(*i as f64),
            Value::Float(f) => ophash::encode_f64(*f),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.eq_values(other)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
        }
    }
}

/// The type tag that opens every encoded value.
pub(crate) mod tag {
    pub(crate) const STR: u8 = 0;
    pub(crate) const INT: u8 = 1;
    pub(crate) const FLOAT: u8 = 2;
}

impl Wire for Value {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Value::Str(s) => {
                tag::STR.encode(buf);
                s.encode(buf);
            }
            Value::Int(i) => {
                tag::INT.encode(buf);
                i.encode(buf);
            }
            Value::Float(f) => {
                tag::FLOAT.encode(buf);
                f.encode(buf);
            }
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(match u8::decode(buf)? {
            tag::STR => Value::Str(Wire::decode(buf)?),
            tag::INT => Value::Int(Wire::decode(buf)?),
            tag::FLOAT => Value::Float(Wire::decode(buf)?),
            other => return Err(WireError::BadTag(other)),
        })
    }

    fn wire_size(&self) -> usize {
        1 + match self {
            Value::Str(s) => s.wire_size(),
            Value::Int(i) => i.wire_size(),
            Value::Float(f) => f.wire_size(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ordering_examples() {
        assert!(Value::Int(1).cmp_values(&Value::Int(2)) == Ordering::Less);
        assert!(Value::Int(2).cmp_values(&Value::Float(1.5)) == Ordering::Greater);
        assert!(Value::str("a").cmp_values(&Value::str("b")) == Ordering::Less);
        // Numbers sort before strings.
        assert!(Value::Int(999).cmp_values(&Value::str("0")) == Ordering::Less);
    }

    #[test]
    fn semantic_equality_across_numeric_types() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert_ne!(Value::Int(3), Value::Float(3.5));
        assert_eq!(Value::str("x"), Value::str("x"));
        assert_ne!(Value::str("3"), Value::Int(3));
    }

    #[test]
    fn key_bits_monotone_examples() {
        assert!(Value::Int(2005).key_bits() < Value::Int(2006).key_bits());
        assert!(Value::Float(-1.0).key_bits() < Value::Float(1.0).key_bits());
        assert!(Value::str("ICDE").key_bits() < Value::str("ICDF").key_bits());
        assert!(Value::Int(i64::MAX).key_bits() < Value::str("").key_bits());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::str("ICDE 2005").to_string(), "'ICDE 2005'");
        assert_eq!(Value::Int(2006).to_string(), "2006");
        assert_eq!(Value::Float(2.5).to_string(), "2.5");
    }

    #[test]
    fn wire_roundtrip() {
        for v in [Value::str("hello"), Value::Int(-42), Value::Float(3.25)] {
            let b = v.to_bytes();
            assert_eq!(b.len(), v.wire_size());
            assert_eq!(Value::from_bytes(&b).unwrap(), v);
        }
    }

    proptest! {
        #[test]
        fn prop_key_bits_monotone_int(
            // f64 rounding collapses far-apart i64s only beyond 2^53;
            // restrict to the exactly representable range.
            a in -(1i64 << 52)..(1i64 << 52),
            b in -(1i64 << 52)..(1i64 << 52),
        ) {
            let ord = a.cmp(&b);
            let kord = Value::Int(a).key_bits().cmp(&Value::Int(b).key_bits());
            prop_assert_eq!(ord, kord);
        }

        #[test]
        fn prop_key_bits_monotone_str(a in "[a-z]{0,12}", b in "[a-z]{0,12}") {
            let va = Value::str(&a);
            let vb = Value::str(&b);
            if va.key_bits() < vb.key_bits() {
                prop_assert!(va.cmp_values(&vb) == Ordering::Less);
            }
            if va.cmp_values(&vb) == Ordering::Less
                && a.len() <= 7 && b.len() <= 7 {
                // Short strings encode losslessly → strict monotone.
                prop_assert!(va.key_bits() < vb.key_bits());
            }
        }

        #[test]
        fn prop_wire_roundtrip(s in ".{0,24}", i: i64, f: f64) {
            prop_assume!(!f.is_nan());
            for v in [Value::str(&s), Value::Int(i), Value::Float(f)] {
                let b = v.to_bytes();
                prop_assert_eq!(Value::from_bytes(&b).unwrap(), v);
            }
        }
    }
}
