//! Chord-side local storage.
//!
//! Unlike P-Grid, the ring position of an entry is *not* its semantic
//! key: items are stored under `ring_key = hash(key)` (exact index) and,
//! for the auxiliary range index, under `ring_key = hash(bucket(key))`.
//! Records therefore keep their original order-preserving key next to
//! the ring position, so that bucket scans can filter to the requested
//! interval. The records live in the shared [`VersionedStore`], under
//! the same superseding rule as P-Grid's (paper ref \[4\] loose
//! consistency), so both backends resolve concurrent updates
//! identically.

use std::ops::{Deref, DerefMut};

use unistore_overlay::repair::Span;
use unistore_overlay::VersionedStore;
use unistore_util::item::Item;
use unistore_util::{ItemFilter, Key};

/// Full address of one stored record: `(ring position, original key,
/// logical identity)` — the Chord counterpart of P-Grid's `(key, ident)`
/// record key in the shared store.
pub type RecordKey = (u64, Key, u64);

/// Every record key.
pub(crate) const ALL: Span<RecordKey> = ((0, 0, 0), (u64::MAX, Key::MAX, u64::MAX));

/// The record keys under ring position `ring_key` with original key in
/// `[lo, hi]`.
fn at_ring(ring_key: u64, lo: Key, hi: Key) -> Span<RecordKey> {
    ((ring_key, lo, 0), (ring_key, hi, u64::MAX))
}

/// The reply of every Chord read: the items of the records it yields,
/// cloned only for those. A reply names no keys: the origin collects
/// what was stored, not where.
fn cloned<'a, I: Item + 'a>(records: impl Iterator<Item = (RecordKey, &'a I)>) -> Vec<I> {
    records.map(|(_, i)| i.clone()).collect()
}

/// Local store of a Chord node: the shared [`VersionedStore`] keyed by
/// [`RecordKey`]. It dereferences to that store for everything that is
/// not Chord's (`len`, `remove`, `apply` of pushed records, the repair's
/// record view); its own methods only turn ring positions, buckets and
/// broadcasts into spans and predicates.
#[derive(Clone, Debug, Default)]
pub struct ChordStore<I>(VersionedStore<RecordKey, I>);

impl<I> Deref for ChordStore<I> {
    type Target = VersionedStore<RecordKey, I>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<I> DerefMut for ChordStore<I> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

impl<I: Item> ChordStore<I> {
    /// Empty store.
    pub fn new() -> Self {
        ChordStore(VersionedStore::new())
    }

    /// Stores `item` under a ring position by identity; returns whether
    /// the write applied (it is new or strictly newer than the stored
    /// version, live or tombstoned).
    pub fn insert(&mut self, ring_key: u64, key: Key, item: I, version: u64) -> bool {
        self.0.apply((ring_key, key, item.ident()), version, Some(item))
    }

    /// The leaf side of an exact-index lookup: the live entries under
    /// `ring_key` that survive `filter`, tested before they are cloned.
    pub fn lookup(&self, ring_key: u64, filter: &Option<ItemFilter>) -> Vec<I> {
        cloned(self.read(at_ring(ring_key, 0, Key::MAX), filter))
    }

    /// The leaf side of a bucket scan: the live entries under
    /// `ring_key` with original key in `[lo, hi]` that survive `filter`,
    /// through the store's memoized scan.
    pub fn scan_bucket(
        &mut self,
        ring_key: u64,
        lo: Key,
        hi: Key,
        filter: &Option<ItemFilter>,
    ) -> Vec<I> {
        cloned(self.0.scan(at_ring(ring_key, lo, hi), filter, |_| true))
    }

    /// The leaf side of a broadcast scan: the live entries with original
    /// key in `[lo, hi]`, at the ring positions `serve` admits, that
    /// survive `filter`. A scan of the whole store under that predicate,
    /// so one memoized column per field serves every interval.
    pub fn scan_by_key_where(
        &mut self,
        lo: Key,
        hi: Key,
        filter: &Option<ItemFilter>,
        serve: impl Fn(u64) -> bool,
    ) -> Vec<I> {
        cloned(self.0.scan(ALL, filter, |&(ring, key, _)| (lo..=hi).contains(&key) && serve(ring)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unistore_util::fxhash::hash_bytes;
    use unistore_util::item::RawItem as TestItem;

    fn ids(items: Vec<TestItem>) -> Vec<u64> {
        items.into_iter().map(|i| i.0).collect()
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut s: ChordStore<TestItem> = ChordStore::new();
        let rk = hash_bytes(b"k1");
        s.insert(rk, 100, TestItem(1), 0);
        s.insert(rk, 200, TestItem(2), 0);
        assert_eq!(s.lookup(rk, &None), vec![TestItem(1), TestItem(2)]);
        assert!(s.lookup(rk ^ 1, &None).is_empty());
    }

    #[test]
    fn filtered_respects_original_keys() {
        let mut s: ChordStore<TestItem> = ChordStore::new();
        for k in [10u64, 20, 30, 40] {
            s.insert(42, k, TestItem(k), 0);
        }
        s.insert(43, 25, TestItem(25), 0);
        assert_eq!(ids(s.scan_bucket(42, 15, 35, &None)), vec![20, 30]);
        assert!(s.scan_bucket(42, 35, 15, &None).is_empty(), "an inverted range is empty");
    }

    #[test]
    fn filtered_bounds_are_inclusive() {
        let mut s: ChordStore<TestItem> = ChordStore::new();
        for k in [10u64, 20, 30] {
            s.insert(5, k, TestItem(k), 0);
        }
        assert_eq!(ids(s.scan_bucket(5, 10, 30, &None)), vec![10, 20, 30]);
        assert!(s.scan_bucket(5, 11, 19, &None).is_empty());
        assert_eq!(ids(s.scan_by_key_where(10, 30, &None, |_| true)), vec![10, 20, 30]);
    }

    #[test]
    fn scan_by_key_crosses_ring_positions() {
        let mut s: ChordStore<TestItem> = ChordStore::new();
        s.insert(1, 10, TestItem(1), 0);
        s.insert(999, 20, TestItem(2), 0);
        s.insert(500, 99, TestItem(3), 0);
        assert_eq!(ids(s.scan_by_key_where(5, 25, &None, |_| true)), vec![1, 2]);
        assert_eq!(ids(s.scan_by_key_where(5, 25, &None, |ring| ring != 999)), vec![1]);
        assert!(s.scan_by_key_where(25, 5, &None, |_| true).is_empty());
    }

    #[test]
    fn remove_targets_one_entry_exactly() {
        let mut s: ChordStore<TestItem> = ChordStore::new();
        s.insert(1, 10, TestItem(7), 0);
        s.insert(1, 20, TestItem(7), 0); // same identity, different key
        s.insert(1, 10, TestItem(8), 0);
        s.insert(2, 10, TestItem(7), 0); // other ring position untouched
        assert!(s.remove((1, 10, 7), 1));
        assert_eq!(s.len(), 3, "only the addressed entry is shadowed");
        // Record-key order: (1, 10, 8) before (1, 20, 7).
        assert_eq!(s.lookup(1, &None), vec![TestItem(8), TestItem(7)]);
        assert_eq!(s.lookup(2, &None).len(), 1);
        assert!(!s.remove((1, 10, 99), 1), "absent identity shadows nothing");
    }
}
