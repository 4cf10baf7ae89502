//! A purely local triple store: the *reference engine*.
//!
//! Integration tests run every distributed query against this in-memory
//! oracle and require identical answers (oracle testing). Experiments
//! also use it to verify result completeness.

use unistore_util::item::Item;
use unistore_util::FxHashMap;

use crate::qgram::edit_distance;
use crate::triple::{Oid, Triple};
use crate::value::Value;

/// An in-memory bag of triples with predicate scans.
#[derive(Clone, Debug, Default)]
pub struct LocalTripleStore {
    triples: Vec<Triple>,
    /// Where each stored fact sits in `triples`, by its identity hash
    /// ([`Item::ident`]); facts whose hashes collide take the next free
    /// hash up. Only [`Self::insert`]'s duplicate check reads it.
    slots: FxHashMap<u64, u32>,
}

/// Whether two triples state the same fact (values compared by
/// meaning, as the DHT's identity does).
fn same_fact(a: &Triple, b: &Triple) -> bool {
    a.oid == b.oid && a.attr == b.attr && a.value.eq_values(&b.value)
}

impl LocalTripleStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one triple. Attributes are multi-valued: only an exact
    /// `(oid, attr, value)` duplicate is idempotent; a different value
    /// of the same attribute coexists (mirroring the DHT's identity
    /// semantics).
    pub fn insert(&mut self, t: Triple) {
        let mut hash = t.ident();
        while let Some(&slot) = self.slots.get(&hash) {
            if same_fact(&self.triples[slot as usize], &t) {
                return;
            }
            hash = hash.wrapping_add(1);
        }
        self.slots.insert(hash, self.triples.len() as u32);
        self.triples.push(t);
    }

    /// Replaces all values of `(oid, attr)` with one new value (the
    /// oracle-side view of an update).
    pub fn replace(&mut self, t: Triple) {
        let mut kept = std::mem::take(&mut self.triples);
        kept.retain(|e| !(e.oid == t.oid && e.attr == t.attr));
        kept.push(t);
        // Everything after the first removed triple moved: file them all
        // again.
        self.slots.clear();
        self.insert_all(kept);
    }

    /// Bulk insert.
    pub fn insert_all(&mut self, ts: impl IntoIterator<Item = Triple>) {
        for t in ts {
            self.insert(t);
        }
    }

    /// Number of stored triples.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// All triples.
    pub fn all(&self) -> &[Triple] {
        &self.triples
    }

    /// Triples of one object.
    pub fn by_oid(&self, oid: &Oid) -> Vec<&Triple> {
        self.iter_by_oid(oid).collect()
    }

    /// Triples with an exact `(attr, value)` match.
    pub fn by_attr_value(&self, attr: &str, value: &Value) -> Vec<&Triple> {
        self.iter_by_attr_value(attr, value).collect()
    }

    /// Triples of one attribute with `lo ≤ value ≤ hi` (either bound
    /// optional).
    pub fn by_attr_range(
        &self,
        attr: &str,
        lo: Option<&Value>,
        hi: Option<&Value>,
    ) -> Vec<&Triple> {
        self.iter_by_attr_range(attr, lo, hi).collect()
    }

    /// Triples with a given value under *any* attribute (the v index).
    pub fn by_value(&self, value: &Value) -> Vec<&Triple> {
        self.iter_by_value(value).collect()
    }

    /// Triples of one attribute whose string value has the given prefix.
    pub fn by_attr_prefix(&self, attr: &str, prefix: &str) -> Vec<&Triple> {
        self.iter_by_attr_prefix(attr, prefix).collect()
    }

    /// Triples of one attribute whose string value is within edit
    /// distance `k` of `target` (the naive evaluation the q-gram index
    /// competes against).
    pub fn by_attr_similar(&self, attr: &str, target: &str, k: usize) -> Vec<&Triple> {
        self.iter_by_attr_similar(attr, target, k).collect()
    }

    // Iterator-returning variants of the `by_*` scans: callers that
    // post-filter (semi-join style) or count can walk candidates without
    // materializing a Vec of drops first.

    /// Borrowed scan over the triples of one object.
    pub fn iter_by_oid<'s, 'q>(
        &'s self,
        oid: &'q Oid,
    ) -> impl Iterator<Item = &'s Triple> + use<'s, 'q> {
        self.triples.iter().filter(move |t| &t.oid == oid)
    }

    /// Borrowed scan over exact `(attr, value)` matches.
    pub fn iter_by_attr_value<'s, 'q>(
        &'s self,
        attr: &'q str,
        value: &'q Value,
    ) -> impl Iterator<Item = &'s Triple> + use<'s, 'q> {
        self.triples.iter().filter(move |t| t.attr.as_ref() == attr && t.value.eq_values(value))
    }

    /// Borrowed scan over one attribute's triples with `lo ≤ value ≤ hi`.
    pub fn iter_by_attr_range<'s, 'q>(
        &'s self,
        attr: &'q str,
        lo: Option<&'q Value>,
        hi: Option<&'q Value>,
    ) -> impl Iterator<Item = &'s Triple> + use<'s, 'q> {
        self.triples.iter().filter(move |t| {
            t.attr.as_ref() == attr
                && lo.is_none_or(|l| t.value.cmp_values(l) != std::cmp::Ordering::Less)
                && hi.is_none_or(|h| t.value.cmp_values(h) != std::cmp::Ordering::Greater)
        })
    }

    /// Borrowed scan over triples with a given value under any attribute.
    pub fn iter_by_value<'s, 'q>(
        &'s self,
        value: &'q Value,
    ) -> impl Iterator<Item = &'s Triple> + use<'s, 'q> {
        self.triples.iter().filter(move |t| t.value.eq_values(value))
    }

    /// Borrowed scan over one attribute's triples with a string prefix.
    pub fn iter_by_attr_prefix<'s, 'q>(
        &'s self,
        attr: &'q str,
        prefix: &'q str,
    ) -> impl Iterator<Item = &'s Triple> + use<'s, 'q> {
        self.triples.iter().filter(move |t| {
            t.attr.as_ref() == attr && t.value.as_str().is_some_and(|s| s.starts_with(prefix))
        })
    }

    /// Borrowed scan over one attribute's triples within edit distance
    /// `k` of `target`.
    pub fn iter_by_attr_similar<'s, 'q>(
        &'s self,
        attr: &'q str,
        target: &'q str,
        k: usize,
    ) -> impl Iterator<Item = &'s Triple> + use<'s, 'q> {
        self.triples.iter().filter(move |t| {
            t.attr.as_ref() == attr
                && t.value.as_str().is_some_and(|s| edit_distance(s, target) <= k)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> LocalTripleStore {
        let mut s = LocalTripleStore::new();
        s.insert_all([
            Triple::new("a12", "title", Value::str("Similarity...")),
            Triple::new("a12", "confname", Value::str("ICDE 2006 - Workshops")),
            Triple::new("a12", "year", Value::Int(2006)),
            Triple::new("v34", "title", Value::str("Progressive...")),
            Triple::new("v34", "confname", Value::str("ICDE 2005")),
            Triple::new("v34", "year", Value::Int(2005)),
        ]);
        s
    }

    #[test]
    fn by_oid_groups_logical_tuple() {
        let s = store();
        assert_eq!(s.by_oid(&Oid::new("a12")).len(), 3);
        assert_eq!(s.by_oid(&Oid::new("zzz")).len(), 0);
    }

    #[test]
    fn exact_and_range_scans() {
        let s = store();
        assert_eq!(s.by_attr_value("year", &Value::Int(2006)).len(), 1);
        assert_eq!(
            s.by_attr_range("year", Some(&Value::Int(2005)), Some(&Value::Int(2006))).len(),
            2
        );
        assert_eq!(s.by_attr_range("year", Some(&Value::Int(2006)), None).len(), 1);
        assert_eq!(s.by_attr_range("year", None, None).len(), 2);
    }

    #[test]
    fn value_scan_is_attr_agnostic() {
        let mut s = store();
        s.insert(Triple::new("p9", "founded", Value::Int(2005)));
        assert_eq!(s.by_value(&Value::Int(2005)).len(), 2);
    }

    #[test]
    fn prefix_and_similarity() {
        let s = store();
        assert_eq!(s.by_attr_prefix("confname", "ICDE").len(), 2);
        assert_eq!(s.by_attr_prefix("confname", "ICDE 2005").len(), 1);
        // One character typo'd target still matches via edit distance.
        assert_eq!(s.by_attr_similar("confname", "ICDE 2004", 1).len(), 1);
        assert_eq!(s.by_attr_similar("confname", "VLDB", 2).len(), 0);
    }

    #[test]
    fn insert_is_multivalued_replace_is_not() {
        let mut s = store();
        // insert: a second year value coexists (multi-valued).
        s.insert(Triple::new("a12", "year", Value::Int(2007)));
        assert_eq!(s.len(), 7);
        // exact duplicates are idempotent.
        s.insert(Triple::new("a12", "year", Value::Int(2007)));
        assert_eq!(s.len(), 7);
        // replace: supersedes all values of the attribute.
        s.replace(Triple::new("a12", "year", Value::Int(2008)));
        assert_eq!(s.len(), 6);
        assert_eq!(s.by_attr_value("year", &Value::Int(2008)).len(), 1);
        assert_eq!(s.by_attr_value("year", &Value::Int(2006)).len(), 0);
    }

    #[test]
    fn duplicate_check_survives_replace_and_keeps_insertion_order() {
        let mut s = store();
        let before: Vec<Triple> = s.all().to_vec();
        // Re-inserting everything — values compared by meaning — adds
        // nothing and moves nothing.
        s.insert_all(before.iter().cloned());
        s.insert(Triple::new("a12", "year", Value::Float(2006.0)));
        assert_eq!(s.all(), &before[..]);
        // A replace shifts every later triple; the shifted ones must
        // still be found, and the replaced-away value must be gone.
        s.replace(Triple::new("a12", "title", Value::str("Similarity, revised")));
        let after: Vec<Triple> = s.all().to_vec();
        assert_eq!(after.len(), before.len());
        assert_eq!(after.last().unwrap().value, Value::str("Similarity, revised"));
        s.insert_all(after.iter().cloned());
        assert_eq!(s.all(), &after[..]);
        s.insert(Triple::new("a12", "title", Value::str("Similarity...")));
        assert_eq!(s.len(), before.len() + 1);
    }
}
