//! Stored items and the per-peer local store.
//!
//! P-Grid is agnostic to what it stores; UniStore stores triples. The
//! overlay needs two things from an item: a wire encoding (for honest
//! message sizing) and a *logical identity* so that updates (paper
//! [ref 4]) can supersede earlier versions of the same logical entry
//! rather than accumulating duplicates.

use std::ops::{Deref, DerefMut};

use unistore_overlay::repair::Span;
use unistore_overlay::{RecordList, VersionedStore};
use unistore_util::{ItemFilter, Key};

pub use unistore_util::item::{Item, RawItem};

/// Version counter for loosely consistent updates.
pub type Version = u64;

/// Records handed between peers — pushes to replicas and the bootstrap
/// exchanges — on the replica plane's record-list codec, keyed by
/// `(routing key, item identity)`.
pub type Entries<I> = RecordList<(Key, u64), I>;

/// The record keys of the routing keys `[lo, hi]`: every identity
/// under each.
pub(crate) fn key_span(lo: Key, hi: Key) -> Span<(Key, u64)> {
    ((lo, 0), (hi, u64::MAX))
}

/// The local fraction of the distributed store held by one peer: the
/// shared [`VersionedStore`] keyed by `(routing key, item identity)`,
/// so that
/// * exact lookups read all items of one key,
/// * range scans walk contiguous key intervals (order-preserving layout),
/// * updates replace entries by identity.
///
/// It dereferences to that store for everything that is not P-Grid's
/// (`len`, `remove`, the repair's record view); its own methods only
/// turn routing keys and leaf intervals into spans of record keys.
#[derive(Clone, Debug, Default)]
pub struct LocalStore<I>(VersionedStore<(Key, u64), I>);

impl<I> Deref for LocalStore<I> {
    type Target = VersionedStore<(Key, u64), I>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<I> DerefMut for LocalStore<I> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

impl<I: Item> LocalStore<I> {
    /// Empty store.
    pub fn new() -> Self {
        LocalStore(VersionedStore::new())
    }

    /// Applies `item` under `key` by identity; returns `true` if the
    /// store changed (new entry or newer version of an existing one,
    /// including un-deleting).
    pub fn insert(&mut self, key: Key, item: I, version: Version) -> bool {
        self.0.apply((key, item.ident()), version, Some(item))
    }

    /// The leaf side of an exact-key lookup: the live items under `key`
    /// that survive `filter` (semi-join pushdown), tested before they
    /// are cloned, so dropped candidates are never materialized.
    pub fn lookup(&self, key: Key, filter: &Option<ItemFilter>) -> Vec<I> {
        self.read(key_span(key, key), filter).map(|(_, i)| i.clone()).collect()
    }

    /// All live items stored under `key`.
    pub fn get(&self, key: Key) -> Vec<I> {
        self.lookup(key, &None)
    }

    /// The leaf side of a range scan: the live items with keys in
    /// `[lo, hi]` that survive `filter`, cloned in key order, through
    /// the store's memoized scan.
    pub fn scan_range(&mut self, lo: Key, hi: Key, filter: &Option<ItemFilter>) -> Vec<I> {
        self.0.scan(key_span(lo, hi), filter, |_| true).map(|(_, i)| i.clone()).collect()
    }

    /// Moves the live entries outside `[lo, hi]` out of the store (path
    /// split hand-off) and returns them; tombstones outside the range
    /// are dropped.
    pub fn split_off_outside(&mut self, lo: Key, hi: Key) -> Entries<I> {
        let moved = self.0.split_off_outside(key_span(lo, hi));
        moved.into_iter().map(|(key, version, item)| (key, version, Some(item))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use unistore_overlay::repair::{RepairMsg, ReplicaRepair};
    use unistore_util::fxhash::mix64;
    use unistore_util::item::testing::{field_hashes_during, Tagged};
    use unistore_util::wire::Wire;
    use unistore_util::BloomFilter;

    /// A filter on `field` accepting the hashes of `accepted` (as tags
    /// and as ids, so both fields have survivors and casualties).
    fn filter_on(field: u8, accepted: &[u64]) -> Option<ItemFilter> {
        let bloom = BloomFilter::from_hashes(accepted.iter().map(|&a| mix64(a)), 0.01);
        Some(ItemFilter { field, bloom })
    }

    /// The live items under `[lo, hi]` that `filter` accepts, by a walk
    /// over the raw records that uses neither the read nor the memo.
    fn unmemoized(
        s: &LocalStore<Tagged>,
        lo: Key,
        hi: Key,
        filter: &Option<ItemFilter>,
    ) -> Vec<Tagged> {
        s.records(key_span(lo, hi))
            .filter_map(|(_, _, item)| item)
            .filter(|i| filter.as_ref().is_none_or(|f| f.accepts(*i)))
            .copied()
            .collect()
    }

    /// The scan ranges the property draws from: more `(range, field)`
    /// pairs than the memo holds columns, one of them inverted.
    const RANGES: [(Key, Key); 6] = [(0, 15), (0, 7), (4, 11), (8, 15), (5, 5), (12, 3)];

    proptest! {
        /// Whatever mutations run in between, a memoized filtered scan
        /// is the unmemoized filter over the same range, order included.
        #[test]
        fn prop_scan_range_matches_unmemoized_filter(
            ops in proptest::collection::vec((0u8..12, 0u64..16, 0u64..6, 0u64..4), 1..120),
            accepted in proptest::collection::vec(0u64..6, 0..4),
        ) {
            let mut s: LocalStore<Tagged> = LocalStore::new();
            for (op, key, id, version) in ops {
                match op {
                    // Inserts, stale writes, in-place updates, un-deletes.
                    0..=3 => {
                        s.insert(key, Tagged { id, tag: key ^ version }, version);
                    }
                    4 => {
                        s.remove((key, id), version);
                    }
                    5 => {
                        s.split_off_outside(key.min(id * 3), key.max(id * 3));
                    }
                    // An inverted interval keeps nothing: the whole
                    // store is handed off.
                    6 if version == 0 => {
                        s.split_off_outside(Key::MAX, 0);
                    }
                    _ => {
                        let (lo, hi) = RANGES[(key % 6) as usize];
                        let field = (id % 3) as u8;
                        // Twice filtered: the second scan probes the
                        // column the first one built, with a different
                        // filter; then unfiltered, past the memo.
                        let filters =
                            [filter_on(field, &accepted), filter_on(field, &[version, id]), None];
                        for f in filters {
                            let expected = unmemoized(&s, lo, hi, &f);
                            prop_assert_eq!(s.scan_range(lo, hi, &f), expected);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn any_write_invalidates_every_memoized_range() {
        let mut s: LocalStore<Tagged> = LocalStore::new();
        for k in 0..8u64 {
            s.insert(k, Tagged { id: k, tag: k }, 0);
        }
        let f = filter_on(0, &[1, 2]);
        let expected = vec![Tagged { id: 1, tag: 1 }, Tagged { id: 2, tag: 2 }];
        assert_eq!(field_hashes_during(|| assert_eq!(s.scan_range(0, 3, &f), expected)), 4);
        assert_eq!(field_hashes_during(|| assert_eq!(s.scan_range(0, 3, &f), expected)), 0);
        // The rule is per store: a write far outside [0, 3] still makes
        // the column stale; a rejected write changes nothing and does
        // not.
        assert!(!s.insert(7, Tagged { id: 7, tag: 7 }, 0));
        assert_eq!(field_hashes_during(|| assert_eq!(s.scan_range(0, 3, &f), expected)), 0);
        assert!(s.insert(7, Tagged { id: 70, tag: 7 }, 0));
        assert_eq!(field_hashes_during(|| assert_eq!(s.scan_range(0, 3, &f), expected)), 4);
        // An inverted range is empty, memoized or not.
        assert!(s.scan_range(6, 2, &f).is_empty());
        assert!(s.scan_range(6, 2, &f).is_empty());
        // Exact-key lookups and unfiltered scans never touch the memo.
        let untouched = field_hashes_during(|| {
            assert_eq!(s.scan_range(0, 7, &None).len(), 9);
            assert_eq!(s.get(7).len(), 2);
        });
        assert_eq!(untouched, 0);
    }

    #[test]
    fn apply_and_get() {
        let mut s: LocalStore<RawItem> = LocalStore::new();
        assert!(s.insert(10, RawItem(1), 0));
        assert!(s.insert(10, RawItem(2), 0));
        assert!(s.insert(20, RawItem(3), 0));
        assert_eq!(s.get(10).len(), 2);
        assert_eq!(s.get(20), vec![RawItem(3)]);
        assert_eq!(s.get(30), Vec::<RawItem>::new());
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn versions_supersede() {
        /// Item whose identity is decoupled from its payload.
        #[derive(Clone, Copy, Debug, PartialEq)]
        struct KV(u64, u64);
        impl Wire for KV {
            fn encode(&self, buf: &mut bytes::BytesMut) {
                self.0.encode(buf);
                self.1.encode(buf);
            }
            fn decode(buf: &mut bytes::Bytes) -> Result<Self, unistore_util::wire::WireError> {
                Ok(KV(u64::decode(buf)?, u64::decode(buf)?))
            }
            fn wire_size(&self) -> usize {
                self.0.wire_size() + self.1.wire_size()
            }
        }
        impl Item for KV {
            fn ident(&self) -> u64 {
                self.0
            }
        }
        let mut s: LocalStore<KV> = LocalStore::new();
        assert!(s.insert(5, KV(1, 100), 1));
        // Same identity, older version → rejected.
        assert!(!s.insert(5, KV(1, 50), 0));
        assert_eq!(s.get(5), vec![KV(1, 100)]);
        // Same identity, newer version → replaces.
        assert!(s.insert(5, KV(1, 200), 2));
        assert_eq!(s.get(5), vec![KV(1, 200)]);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn range_scan_in_order() {
        let mut s: LocalStore<RawItem> = LocalStore::new();
        for k in [5u64, 1, 9, 3, 7] {
            s.insert(k, RawItem(k), 0);
        }
        let got: Vec<u64> = s.scan_range(3, 7, &None).into_iter().map(|r| r.0).collect();
        assert_eq!(got, vec![3, 5, 7], "bounds are inclusive");
        assert!(s.scan_range(10, 5, &None).is_empty(), "an inverted range is empty");
        assert!(s.scan_range(4, 4, &None).is_empty());
    }

    /// Every record key.
    const ALL: Span<(Key, u64)> = ((0, 0), (Key::MAX, u64::MAX));

    fn run_of(s: &LocalStore<RawItem>) -> Vec<((Key, u64), Version)> {
        s.records(ALL).map(|(k, v, _)| (k, v)).collect()
    }

    #[test]
    fn digest_and_newer_than() {
        use unistore_overlay::repair::diff_newer;
        let mut a: LocalStore<RawItem> = LocalStore::new();
        let mut b: LocalStore<RawItem> = LocalStore::new();
        a.insert(1, RawItem(1), 1);
        a.insert(2, RawItem(2), 1);
        a.remove((3, 3), 2);
        b.insert(1, RawItem(1), 1);
        // b lacks key 2 and the key-3 tombstone → both must travel.
        let missing = diff_newer(a.records(ALL), &run_of(&b));
        assert_eq!(missing, vec![((2, 2), 1, Some(RawItem(2))), ((3, 3), 2, None)]);
        // a has everything b has → nothing to ship the other way.
        assert!(diff_newer(b.records(ALL), &run_of(&a)).is_empty());
        // A sub-span sees only its own records.
        assert_eq!(a.records(key_span(2, 2)).count(), 1);
        assert_eq!(a.record((3, 3)), Some((2, None)));
    }

    #[test]
    fn root_summary_is_memoized_until_the_store_changes() {
        let mut s: LocalStore<RawItem> = LocalStore::new();
        s.insert(1, RawItem(1), 1);
        let mut repair = ReplicaRepair::default();
        let first = repair.probe(&mut s, ALL);
        assert_eq!(repair.probe(&mut s, ALL), first, "an unchanged store probes the same");
        assert!(!s.insert(1, RawItem(1), 1), "a rejected write changes nothing");
        assert_eq!(repair.probe(&mut s, ALL), first);
        s.insert(2, RawItem(2), 0);
        let RepairMsg::Probe { summary, .. } = repair.probe(&mut s, ALL) else { unreachable!() };
        assert_eq!(summary.count, 2, "every applied write moves the memoized summary");
        s.remove((2, 2), 1);
        let RepairMsg::Probe { summary: after, .. } = repair.probe(&mut s, ALL) else {
            unreachable!()
        };
        assert_eq!(after.count, 2, "a tombstone is a record");
        assert_ne!(after.hash, summary.hash, "at a newer version");
        s.split_off_outside(5, 9);
        let RepairMsg::Probe { summary, .. } = repair.probe(&mut s, ALL) else { unreachable!() };
        assert_eq!(summary.count, 0, "a hand-off moves records out");
    }

    /// Strictly-newer resolves nothing between a live entry and a
    /// tombstone of EQUAL version, so the summary must not see the
    /// difference either: a hash over the tombstone bit would re-descend
    /// into this record on every tick and ship nothing each time.
    #[test]
    fn equal_version_conflict_is_outside_the_summary() {
        let mut live: LocalStore<RawItem> = LocalStore::new();
        let mut dead: LocalStore<RawItem> = LocalStore::new();
        live.insert(5, RawItem(5), 3);
        dead.remove((5, 5), 3);
        assert!(!live.apply((5, 5), 3, None), "the tombstone cannot win the tie");
        assert!(!dead.insert(5, RawItem(5), 3), "nor can the live entry");
        let mut repair = ReplicaRepair::default();
        let probe = repair.probe(&mut live, ALL);
        assert!(repair.handle(&mut dead, &[ALL], probe).is_empty(), "in sync: silence");
        let probe = repair.probe(&mut dead, ALL);
        assert!(repair.handle(&mut live, &[ALL], probe).is_empty());
    }

    #[test]
    fn split_off_outside_recounts_live_entries() {
        let mut s: LocalStore<RawItem> = LocalStore::new();
        for k in 0..8u64 {
            s.insert(k, RawItem(k), 0);
        }
        s.remove((4, 4), 1); // in-range tombstone survives the split
        let moved = s.split_off_outside(2, 5);
        assert_eq!(moved.len(), 4, "0,1,6,7 move out");
        assert_eq!(s.len(), 3, "2,3,5 live; 4 is a tombstone");
        assert_eq!(s.records(ALL).count(), 4);
    }

    #[test]
    fn split_off_outside_partitions() {
        let mut s: LocalStore<RawItem> = LocalStore::new();
        for k in 0..10u64 {
            s.insert(k, RawItem(k), 0);
        }
        let moved = s.split_off_outside(3, 6);
        let keys: Vec<Key> = moved.iter().map(|((k, _), _, _)| k).collect();
        assert_eq!(keys, vec![0, 1, 2, 7, 8, 9], "in key order, with their routing keys");
        assert_eq!(s.len(), 4);
        assert!(s.scan_range(0, 10, &None).iter().all(|r| (3..=6).contains(&r.0)));
    }
}
