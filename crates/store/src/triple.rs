//! The triple: UniStore's unit of storage.
//!
//! `(OID, attribute, value)` — paper §2: *"OID is a unique key, e.g. a
//! URI … system generated, allowing to group the triples for a logical
//! tuple"*; attribute names may carry a namespace prefix (`ns:attr`) to
//! distinguish relations.

use std::fmt;
use std::sync::Arc;

use bytes::{Bytes, BytesMut};

use unistore_util::compact::intern;
use unistore_util::fxhash::hash_bytes;
use unistore_util::item::Item;
use unistore_util::wire::{decode_str, Wire, WireError};

use crate::list;
use crate::value::Value;

/// Field discriminants for semi-join filtering
/// ([`unistore_util::item::Item::field_hash`]): the filter names which
/// triple position its join keys bind.
pub mod field {
    /// The OID (subject) position.
    pub const SUBJECT: u8 = 0;
    /// The attribute position.
    pub const ATTR: u8 = 1;
    /// The value position.
    pub const VALUE: u8 = 2;
}

/// Object identifier grouping the triples of one logical tuple.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Oid(pub Arc<str>);

impl Oid {
    /// Constructs from a string.
    pub fn new(s: &str) -> Oid {
        Oid(Arc::from(s))
    }

    /// The identifier text.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Uniform hash of the identifier (placement of the OID index).
    pub fn hash(&self) -> u64 {
        hash_bytes(self.0.as_bytes())
    }
}

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Debug for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Oid({})", self.0)
    }
}

impl Wire for Oid {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(Oid(Arc::<str>::decode(buf)?))
    }

    fn wire_size(&self) -> usize {
        self.0.wire_size()
    }
}

/// One `(OID, attribute, value)` triple.
#[derive(Clone, Debug, PartialEq)]
pub struct Triple {
    /// Logical-tuple identifier.
    pub oid: Oid,
    /// Attribute name, optionally namespace-prefixed (`pub:year`).
    pub attr: Arc<str>,
    /// The value.
    pub value: Value,
}

impl Triple {
    /// Constructs a triple. Attribute names form a tiny closed set per
    /// schema, so they are interned: every triple of one attribute
    /// shares a single allocation.
    pub fn new(oid: &str, attr: &str, value: Value) -> Triple {
        Triple { oid: Oid::new(oid), attr: intern(attr), value }
    }

    /// The attribute without its namespace prefix.
    pub fn attr_local(&self) -> &str {
        match self.attr.split_once(':') {
            Some((_, local)) => local,
            None => &self.attr,
        }
    }

    /// The namespace prefix, if any.
    pub fn namespace(&self) -> Option<&str> {
        self.attr.split_once(':').map(|(ns, _)| ns)
    }
}

impl fmt::Display for Triple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},'{}',{})", self.oid, self.attr, self.value)
    }
}

impl Wire for Triple {
    fn encode(&self, buf: &mut BytesMut) {
        self.oid.encode(buf);
        self.attr.encode(buf);
        self.value.encode(buf);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(Triple {
            oid: Oid::decode(buf)?,
            // Attributes intern on decode: steady-state ingest of a
            // known schema allocates nothing for this field.
            attr: decode_str(buf, intern)?,
            value: Value::decode(buf)?,
        })
    }

    fn wire_size(&self) -> usize {
        self.oid.wire_size() + self.attr.wire_size() + self.value.wire_size()
    }
}

impl Item for Triple {
    /// Logical identity is the full `(oid, attribute, value)` fact:
    /// attributes may be multi-valued (Fig. 3's `has_published`), so two
    /// values of one attribute are distinct entries. Updates are
    /// modelled as delete-old + insert-new (paper ref \[4\]); re-inserting
    /// the identical fact is idempotent via versions.
    fn ident(&self) -> u64 {
        hash_bytes(self.oid.0.as_bytes())
            ^ hash_bytes(self.attr.as_bytes()).rotate_left(1)
            ^ self.value.semantic_hash().rotate_left(2)
    }

    /// Per-position join-key hashes, matching how the query layer hashes
    /// bound variables: subject and attribute bind as strings
    /// (`hash_bytes`), the value by its semantic hash — exactly
    /// `value_hash` of the relation layer, so a Bloom filter built from
    /// a materialized column tests positive at the leaf for every true
    /// join match.
    fn field_hash(&self, field: u8) -> Option<u64> {
        match field {
            field::SUBJECT => Some(hash_bytes(self.oid.0.as_bytes())),
            field::ATTR => Some(hash_bytes(self.attr.as_bytes())),
            field::VALUE => Some(self.value.semantic_hash()),
            _ => None,
        }
    }

    /// Slots 0–2 are the primary keys, then the string value's q-gram
    /// keys ([`crate::index::FIRST_GRAM_SLOT`]).
    fn slot_keys(&self, keys: &mut Vec<unistore_util::Key>) {
        let derived = crate::index::TripleKeys::derive(self, true);
        keys.extend(derived.primary());
        keys.extend(derived.qgrams);
    }

    /// Each attribute name once, string values front-coded against the
    /// previous triple's (the `list` module).
    fn encode_list(items: &[Self], buf: &mut BytesMut) {
        list::encode(items, buf);
    }

    fn decode_list(buf: &mut Bytes) -> Result<Vec<Self>, WireError> {
        list::decode(buf)
    }

    fn list_wire_size(items: &[Self]) -> usize {
        list::wire_size(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_notation() {
        let t = Triple::new("a12", "confname", Value::str("ICDE 2006 - WS"));
        assert_eq!(t.to_string(), "(a12,'confname','ICDE 2006 - WS')");
        let t = Triple::new("a12", "year", Value::Int(2006));
        assert_eq!(t.to_string(), "(a12,'year',2006)");
    }

    #[test]
    fn namespace_splitting() {
        let t = Triple::new("a1", "pub:year", Value::Int(2006));
        assert_eq!(t.namespace(), Some("pub"));
        assert_eq!(t.attr_local(), "year");
        let t = Triple::new("a1", "year", Value::Int(2006));
        assert_eq!(t.namespace(), None);
        assert_eq!(t.attr_local(), "year");
    }

    #[test]
    fn ident_keyed_by_full_fact() {
        let a = Triple::new("a12", "year", Value::Int(2006));
        let b = Triple::new("a12", "year", Value::Int(2007));
        let c = Triple::new("a12", "name", Value::Int(2006));
        let d = Triple::new("a13", "year", Value::Int(2006));
        let a2 = Triple::new("a12", "year", Value::Int(2006));
        assert_eq!(a.ident(), a2.ident(), "identical facts → same identity");
        assert_ne!(a.ident(), b.ident(), "multi-valued attributes coexist");
        assert_ne!(a.ident(), c.ident());
        assert_ne!(a.ident(), d.ident());
        // Numeric classes collapse (Int 2006 == Float 2006.0).
        let f = Triple::new("a12", "year", Value::Float(2006.0));
        assert_eq!(a.ident(), f.ident());
    }

    #[test]
    fn field_hash_matches_bound_value_hashes() {
        let t = Triple::new("a12", "year", Value::Int(2006));
        // Subject/attr bind as strings; value by semantic hash.
        assert_eq!(t.field_hash(field::SUBJECT), Some(hash_bytes(b"a12")));
        assert_eq!(t.field_hash(field::ATTR), Some(hash_bytes(b"year")));
        assert_eq!(t.field_hash(field::VALUE), Some(Value::Int(2006).semantic_hash()));
        // Numeric classes collapse, like eq_values.
        assert_eq!(t.field_hash(field::VALUE), Some(Value::Float(2006.0).semantic_hash()));
        assert_eq!(t.field_hash(99), None);
    }

    #[test]
    fn wire_roundtrip() {
        let t = Triple::new("v34", "title", Value::str("Progressive..."));
        let b = t.to_bytes();
        assert_eq!(b.len(), t.wire_size());
        assert_eq!(Triple::from_bytes(&b).unwrap(), t);
    }
}
