//! Index-key derivation: the paper's Fig. 2 placement.
//!
//! *"By default, we index each triple on the OID, `Ai#vi` (the
//! concatenation of `Ai` and `vi`), and `vi`. This enables search based
//! on the unique key, queries of the form `Ai ≥ vi`, and using `vi` as
//! the key for queries on an arbitrary attribute."*
//!
//! All four indexes live in one 64-bit key space, discriminated by a
//! 2-bit tag:
//!
//! ```text
//! bits 63..62 | 61..48              | 47..0
//! 00 OID      |        uniform hash of the OID (62 bits)
//! 01 A#v      | attribute id (hash) | order-preserving value prefix
//! 10 v        |        order-preserving value prefix (62 bits)
//! 11 q-gram   | attribute id (hash) | gram (24 bits) | zeros
//! ```
//!
//! Value encodings are truncated prefixes, so key ranges are
//! *conservative supersets*: leaves always verify candidate triples
//! against the real predicate (done in the query layer).

use unistore_util::{keys, ophash, Key};

use crate::qgram::{self, QGRAM_Q};
use crate::triple::{Oid, Triple};
use crate::value::Value;

/// Which of the four indexes a key belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// Exact lookup by object id.
    Oid,
    /// Attribute-qualified value index (`Ai#vi`).
    AttrValue,
    /// Attribute-agnostic value index (`vi`).
    Value,
    /// q-gram index for string similarity.
    QGram,
}

impl IndexKind {
    /// The 2-bit key-space tag.
    pub fn tag(self) -> u64 {
        match self {
            IndexKind::Oid => 0,
            IndexKind::AttrValue => 1,
            IndexKind::Value => 2,
            IndexKind::QGram => 3,
        }
    }

    /// Recovers the index from a key.
    pub fn of_key(key: Key) -> IndexKind {
        match key >> 62 {
            0 => IndexKind::Oid,
            1 => IndexKind::AttrValue,
            2 => IndexKind::Value,
            _ => IndexKind::QGram,
        }
    }
}

/// Width of the attribute-id field.
const ATTR_BITS: u8 = 14;

/// Attribute identifier: uniform hash folded to 14 bits. Collisions are
/// possible and harmless — they only cause spurious candidates that the
/// leaf-side verification filters out.
pub fn attr_id(attr: &str) -> u64 {
    unistore_util::fxhash::hash_bytes(attr.as_bytes()) & ((1 << ATTR_BITS) - 1)
}

/// Key of a triple in the OID index.
pub fn oid_key(oid: &Oid) -> Key {
    keys::pack(&[(IndexKind::Oid.tag(), 2)]) | (oid.hash() >> 2)
}

/// Key of `(attr, value)` in the A#v index.
pub fn attr_value_key(attr: &str, value: &Value) -> Key {
    av_key_from_bits(attr, value.key_bits())
}

fn av_key_from_bits(attr: &str, value_bits: u64) -> Key {
    keys::pack(&[(IndexKind::AttrValue.tag(), 2), (attr_id(attr), ATTR_BITS)]) | (value_bits >> 16)
}

/// Inclusive key range of the whole attribute in the A#v index.
pub fn attr_range(attr: &str) -> (Key, Key) {
    let head = keys::pack(&[(IndexKind::AttrValue.tag(), 2), (attr_id(attr), ATTR_BITS)]);
    (head, head | (u64::MAX >> 16))
}

/// Inclusive key range for `lo ≤ value ≤ hi` on one attribute
/// (`None` = unbounded on that side). Conservative: truncation may admit
/// neighbours that leaf verification rejects.
pub fn attr_value_range(attr: &str, lo: Option<&Value>, hi: Option<&Value>) -> (Key, Key) {
    let (full_lo, full_hi) = attr_range(attr);
    let k_lo = lo.map_or(full_lo, |v| attr_value_key(attr, v));
    let k_hi = hi.map_or(full_hi, |v| attr_value_key(attr, v));
    (k_lo, k_hi)
}

/// Inclusive key range of string values with the given prefix on one
/// attribute (paper: "efficient substring search and prefix queries").
pub fn attr_prefix_range(attr: &str, prefix: &str) -> (Key, Key) {
    let enc = ophash::encode_str(prefix);
    let prefix_bits = (prefix.len().min(ophash::STR_BYTES) * 8) as u8;
    // Value-class header (1 bit, strings = 1) + encoding shifted as in
    // `Value::key_bits`.
    let bits_lo = (1 << 63) | (enc >> 1);
    let bits_hi = (1 << 63) | (ophash::saturate(enc, prefix_bits) >> 1);
    (av_key_from_bits(attr, bits_lo), av_key_from_bits(attr, bits_hi))
}

/// Key of a value in the attribute-agnostic v index.
pub fn value_key(value: &Value) -> Key {
    keys::pack(&[(IndexKind::Value.tag(), 2)]) | (value.key_bits() >> 2)
}

/// Inclusive key range for `lo ≤ value ≤ hi` in the v index.
pub fn value_range(lo: &Value, hi: &Value) -> (Key, Key) {
    (value_key(lo), value_key(hi))
}

/// Key of one q-gram of one attribute in the q-gram index.
pub fn qgram_key(attr: &str, gram: u32) -> Key {
    keys::pack(&[(IndexKind::QGram.tag(), 2), (attr_id(attr), ATTR_BITS)])
        | ((gram as u64) << (48 - 8 * QGRAM_Q as u32))
}

/// The q-gram keys of the string `s` under `attr`, ascending, each once.
pub fn qgram_keys(attr: &str, s: &str) -> Vec<Key> {
    let mut ks: Vec<Key> = qgram::qgrams(s).into_iter().map(|g| qgram_key(attr, g)).collect();
    ks.sort_unstable();
    ks.dedup();
    ks
}

/// The q-gram posting of `t`'s `(attr, value)` pair: the pair under the
/// empty OID, which is what the q-gram keys store. A posting names a
/// value, not an object, so every triple carrying the value shares one
/// (one identity, written at version 0), and a similarity scan turns the
/// postings that survive its filters into A#v lookups for the rows.
/// `None` for non-string values, which have no grams.
pub fn qgram_posting(t: &Triple) -> Option<Triple> {
    t.value.as_str()?;
    Some(Triple { oid: Oid::new(""), attr: t.attr.clone(), value: t.value.clone() })
}

/// The slot of a triple's first q-gram key
/// ([`unistore_util::item::Item::slot_keys`]): slots 0–2 are its primary
/// keys in [`TripleKeys::primary`] order, and slot `FIRST_GRAM_SLOT + j`
/// is the `j`-th of its string value's [`qgram_keys`] — the order of
/// [`TripleKeys::all`] with q-grams on.
pub const FIRST_GRAM_SLOT: u32 = 3;

/// All index keys derived from one triple.
#[derive(Clone, Debug, PartialEq)]
pub struct TripleKeys {
    /// OID-index key.
    pub oid: Key,
    /// A#v-index key.
    pub attr_value: Key,
    /// v-index key.
    pub value: Key,
    /// q-gram keys (string values only, empty otherwise).
    pub qgrams: Vec<Key>,
}

impl TripleKeys {
    /// Derives the keys; `with_qgrams` controls whether the similarity
    /// index is maintained. Writers store the triple under the three
    /// primary keys only and its value's [`qgram_posting`] under the
    /// q-gram keys, once per distinct `(attr, value)` of a write.
    pub fn derive(t: &Triple, with_qgrams: bool) -> TripleKeys {
        let qgrams = match (&t.value, with_qgrams) {
            (Value::Str(s), true) => qgram_keys(&t.attr, s),
            _ => Vec::new(),
        };
        TripleKeys {
            oid: oid_key(&t.oid),
            attr_value: attr_value_key(&t.attr, &t.value),
            value: value_key(&t.value),
            qgrams,
        }
    }

    /// The three primary keys (paper default), without q-grams.
    pub fn primary(&self) -> [Key; 3] {
        [self.oid, self.attr_value, self.value]
    }

    /// Every key the triple's placement touches: the three primary keys
    /// plus the q-gram keys (where its value's posting lives).
    pub fn all(&self) -> Vec<Key> {
        let mut all: Vec<Key> = self.primary().to_vec();
        all.extend(&self.qgrams);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Tuple;

    #[test]
    fn tags_partition_the_key_space() {
        let t = Triple::new("a12", "year", Value::Int(2006));
        let k = TripleKeys::derive(&t, false);
        assert_eq!(IndexKind::of_key(k.oid), IndexKind::Oid);
        assert_eq!(IndexKind::of_key(k.attr_value), IndexKind::AttrValue);
        assert_eq!(IndexKind::of_key(k.value), IndexKind::Value);
        let s = Triple::new("a12", "title", Value::str("Similarity..."));
        let ks = TripleKeys::derive(&s, true);
        assert!(!ks.qgrams.is_empty());
        assert!(ks.qgrams.iter().all(|&k| IndexKind::of_key(k) == IndexKind::QGram));
    }

    #[test]
    fn fig2_yields_18_primary_index_entries() {
        let tuples = [
            Tuple::new("a12")
                .with("title", Value::str("Similarity..."))
                .with("confname", Value::str("ICDE 2006 - Workshops"))
                .with("year", Value::Int(2006)),
            Tuple::new("v34")
                .with("title", Value::str("Progressive..."))
                .with("confname", Value::str("ICDE 2005"))
                .with("year", Value::Int(2005)),
        ];
        let entries: usize = tuples
            .iter()
            .flat_map(Tuple::to_triples)
            .map(|t| TripleKeys::derive(&t, false).primary().len())
            .sum();
        assert_eq!(entries, 18, "paper Fig. 2: 18 resulting triples");
    }

    #[test]
    fn same_oid_triples_colocate() {
        let a = Triple::new("a12", "year", Value::Int(2006));
        let b = Triple::new("a12", "title", Value::str("Similarity..."));
        assert_eq!(oid_key(&a.oid), oid_key(&b.oid));
    }

    #[test]
    fn attr_value_keys_order_within_attribute() {
        let k5 = attr_value_key("year", &Value::Int(2005));
        let k6 = attr_value_key("year", &Value::Int(2006));
        assert!(k5 < k6);
        let (lo, hi) = attr_value_range("year", Some(&Value::Int(2005)), Some(&Value::Int(2006)));
        assert!(lo <= k5 && k6 <= hi);
        // Both inside the attribute's full range.
        let (alo, ahi) = attr_range("year");
        assert!(alo <= lo && hi <= ahi);
    }

    #[test]
    fn unbounded_sides_cover_attribute() {
        let (lo, hi) = attr_value_range("year", None, None);
        assert_eq!((lo, hi), attr_range("year"));
        let (lo2, hi2) = attr_value_range("year", Some(&Value::Int(2000)), None);
        assert!(lo2 > lo);
        assert_eq!(hi2, hi);
    }

    #[test]
    fn prefix_range_covers_extensions() {
        let (lo, hi) = attr_prefix_range("confname", "ICDE");
        for v in ["ICDE", "ICDE 2005", "ICDE 2006 - Workshops", "ICDEX"] {
            let k = attr_value_key("confname", &Value::str(v));
            assert!(lo <= k && k <= hi, "{v} escaped the prefix range");
        }
        let k = attr_value_key("confname", &Value::str("VLDB"));
        assert!(k < lo || k > hi, "VLDB must not match prefix ICDE");
        let k = attr_value_key("confname", &Value::str("ICDF"));
        assert!(k < lo || k > hi, "ICDF must not match prefix ICDE");
    }

    #[test]
    fn value_index_is_attribute_agnostic() {
        let a = value_key(&Value::Int(2006));
        let b = value_key(&Value::Int(2006));
        assert_eq!(a, b);
        let (lo, hi) = value_range(&Value::Int(2000), &Value::Int(2010));
        assert!(lo <= a && a <= hi);
    }

    #[test]
    fn qgram_keys_depend_on_attr_and_gram() {
        let g1 = qgram_key("title", 0x414243);
        let g2 = qgram_key("title", 0x414244);
        let g3 = qgram_key("name", 0x414243);
        assert_ne!(g1, g2);
        assert_ne!(g1, g3);
    }

    #[test]
    fn one_posting_per_string_pair() {
        use unistore_util::item::Item;
        let a = Triple::new("c1", "series", Value::str("ICDE"));
        let b = Triple::new("c2", "series", Value::str("ICDE"));
        let (pa, pb) = (qgram_posting(&a).unwrap(), qgram_posting(&b).unwrap());
        assert_eq!(pa.ident(), pb.ident(), "objects sharing a value share its posting");
        assert_eq!(pa.oid.as_str(), "");
        assert!(pa.value.eq_values(&a.value) && pa.attr == a.attr);
        let c = Triple::new("c1", "series", Value::str("ICDM"));
        assert_ne!(qgram_posting(&c).unwrap().ident(), pa.ident());
        assert!(qgram_posting(&Triple::new("c1", "year", Value::Int(2006))).is_none());
        assert_eq!(qgram_keys("series", "ICDE"), TripleKeys::derive(&a, true).qgrams);
    }

    #[test]
    fn slots_number_the_primary_keys_then_the_grams() {
        use unistore_util::item::Item;
        for t in [
            Triple::new("a12", "title", Value::str("Similarity...")),
            Triple::new("", "series", Value::str("ICDE")),
            Triple::new("a12", "year", Value::Int(2006)),
            Triple::new("a12", "score", Value::Float(0.5)),
        ] {
            let keys = TripleKeys::derive(&t, true);
            let slots: Vec<Key> = (0..).map_while(|s| t.slot_key(s)).collect();
            assert_eq!(slots, keys.all(), "{t}");
            assert_eq!(slots[FIRST_GRAM_SLOT as usize..], keys.qgrams[..]);
            assert_eq!(t.slot_key(slots.len() as u32), None);
            assert_eq!(t.slot_key(u32::MAX), None);
        }
    }

    #[test]
    fn derive_skips_qgrams_for_numbers_and_when_disabled() {
        let t = Triple::new("a", "year", Value::Int(2006));
        assert!(TripleKeys::derive(&t, true).qgrams.is_empty());
        let s = Triple::new("a", "name", Value::str("alice"));
        assert!(TripleKeys::derive(&s, false).qgrams.is_empty());
        assert!(!TripleKeys::derive(&s, true).qgrams.is_empty());
    }
}
