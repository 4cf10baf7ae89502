//! Stored items and the per-peer local store.
//!
//! P-Grid is agnostic to what it stores; UniStore stores triples. The
//! overlay needs two things from an item: a wire encoding (for honest
//! message sizing) and a *logical identity* so that updates (paper
//! [ref 4]) can supersede earlier versions of the same logical entry
//! rather than accumulating duplicates.

use std::collections::BTreeMap;
use std::ops::Bound;

use unistore_overlay::repair::{RepairStore, Span, SummaryMemo};
use unistore_util::{FieldHashColumns, ItemFilter, Key};

pub use unistore_util::item::{Item, RawItem};

/// Version counter for loosely consistent updates.
pub type Version = u64;

/// One versioned entry. `item == None` is a tombstone: the entry was
/// deleted at `version`, and the tombstone participates in anti-entropy
/// so that deletes propagate instead of deleted data being resurrected.
#[derive(Clone, Debug, PartialEq)]
pub struct Entry<I> {
    /// The stored item (`None` = tombstone).
    pub item: Option<I>,
    /// Its version (`0` for plain inserts; updates carry larger values).
    pub version: Version,
}

/// The local fraction of the distributed store held by one peer.
///
/// Keyed by `(routing key, item identity)` so that
/// * exact lookups fetch all items of one key,
/// * range scans walk contiguous key intervals (order-preserving layout),
/// * updates replace entries by identity.
#[derive(Clone, Debug, Default)]
pub struct LocalStore<I> {
    entries: BTreeMap<(Key, u64), Entry<I>>,
    /// Live (non-tombstone) entry count, maintained incrementally so
    /// [`LocalStore::len`] is O(1) — it is consulted on every bootstrap
    /// `Exchange` message.
    live: usize,
    /// Join-key hashes of recently filtered range scans, keyed by the
    /// scan's `(lo, hi)`; every mutator invalidates it.
    hash_columns: FieldHashColumns<(Key, Key)>,
    /// Root range summaries of the replica repair; every mutator
    /// invalidates them too.
    summaries: SummaryMemo<(Key, u64)>,
}

/// Live items of `entries` with keys in `[lo, hi]`, in key order.
fn live_in_range<I>(
    entries: &BTreeMap<(Key, u64), Entry<I>>,
    lo: Key,
    hi: Key,
) -> impl Iterator<Item = &I> {
    // An inverted interval yields an explicitly empty (but
    // well-formed) bound pair: BTreeMap panics on start > end.
    let bounds = match lo <= hi {
        true => (Bound::Included((lo, 0)), Bound::Included((hi, u64::MAX))),
        false => (Bound::Included((lo, 0)), Bound::Excluded((lo, 0))),
    };
    entries.range(bounds).filter_map(|(_, e)| e.item.as_ref())
}

impl<I: Item> LocalStore<I> {
    /// Empty store.
    pub fn new() -> Self {
        LocalStore {
            entries: BTreeMap::new(),
            live: 0,
            hash_columns: FieldHashColumns::default(),
            summaries: SummaryMemo::default(),
        }
    }

    /// Every mutator ends here: nothing memoized over the old contents
    /// may outlive them.
    fn invalidate_memos(&mut self) {
        self.hash_columns.invalidate();
        self.summaries.invalidate();
    }

    /// Applies an entry; returns `true` if the store changed (new entry
    /// or newer version of an existing one, including un-deleting).
    pub fn apply(&mut self, key: Key, item: I, version: Version) -> bool {
        let id = item.ident();
        self.apply_record(key, id, Some(item), version)
    }

    /// Applies an insert, tombstone or update by identity; the shared
    /// path of local writes, replication pushes and anti-entropy pulls.
    pub fn apply_record(
        &mut self,
        key: Key,
        ident: u64,
        item: Option<I>,
        version: Version,
    ) -> bool {
        match self.entries.get_mut(&(key, ident)) {
            Some(existing) if existing.version >= version => return false,
            Some(existing) => {
                self.live -= existing.item.is_some() as usize;
                self.live += item.is_some() as usize;
                *existing = Entry { item, version };
            }
            None => {
                self.live += item.is_some() as usize;
                self.entries.insert((key, ident), Entry { item, version });
            }
        }
        self.invalidate_memos();
        true
    }

    /// All live items stored under `key`.
    pub fn get(&self, key: Key) -> Vec<I> {
        self.iter_key(key).cloned().collect()
    }

    /// All live items whose key lies in `[lo, hi]`.
    pub fn get_range(&self, lo: Key, hi: Key) -> Vec<I> {
        self.iter_range(lo, hi).cloned().collect()
    }

    /// Borrowed view of the live items under `key`. Leaf filtering
    /// (semi-join pushdown) tests candidates through this iterator
    /// *before* cloning, so dropped candidates are never materialized.
    pub fn iter_key(&self, key: Key) -> impl Iterator<Item = &I> {
        self.entries
            .range((Bound::Included((key, 0)), Bound::Included((key, u64::MAX))))
            .filter_map(|(_, e)| e.item.as_ref())
    }

    /// Borrowed view of the live items with keys in `[lo, hi]`.
    pub fn iter_range(&self, lo: Key, hi: Key) -> impl Iterator<Item = &I> {
        live_in_range(&self.entries, lo, hi)
    }

    /// The leaf side of a range scan: the live items with keys in
    /// `[lo, hi]` that survive `filter`, cloned in key order — what
    /// [`ItemFilter::collect_filtered`] over [`LocalStore::iter_range`]
    /// returns. A filtered scan probes the memoized
    /// [`FieldHashColumns`] column of its `(lo, hi, field)` instead of
    /// re-hashing every candidate's field; only survivors are cloned.
    pub fn scan_range(&mut self, lo: Key, hi: Key, filter: &Option<ItemFilter>) -> Vec<I> {
        let Some(f) = filter else { return self.get_range(lo, hi) };
        let entries = &self.entries;
        let hashes = self.hash_columns.column((lo, hi), f.field, |column| {
            column.extend(live_in_range(entries, lo, hi).map(|i| i.field_hash(f.field)))
        });
        live_in_range(entries, lo, hi)
            .zip(hashes)
            .filter(|&(_, &h)| f.keeps(h))
            .map(|(i, _)| i.clone())
            .collect()
    }

    /// Iterates `(key, entry)` pairs in key order (tombstones included).
    pub fn iter(&self) -> impl Iterator<Item = (Key, &Entry<I>)> {
        self.entries.iter().map(|(&(k, _), e)| (k, e))
    }

    /// Number of entries, live only. O(1): the count is maintained by
    /// every mutation.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Discards live entries outside `[lo, hi]` (path split hand-off),
    /// and returns them. Tombstones outside the range are dropped.
    pub fn split_off_outside(&mut self, lo: Key, hi: Key) -> Vec<(Key, Version, I)> {
        let mut moved = Vec::new();
        let mut kept = BTreeMap::new();
        let mut live = 0;
        for ((k, id), e) in std::mem::take(&mut self.entries) {
            if k < lo || k > hi {
                if let Some(item) = e.item {
                    moved.push((k, e.version, item));
                }
            } else {
                live += e.item.is_some() as usize;
                kept.insert((k, id), e);
            }
        }
        self.entries = kept;
        self.live = live;
        self.invalidate_memos();
        moved
    }

    /// Deletes the entry `(key, ident)` by writing a tombstone at
    /// `version`. Returns `true` if a live entry was shadowed (a
    /// tombstone over nothing is still recorded so late-arriving old
    /// writes stay dead).
    pub fn remove(&mut self, key: Key, ident: u64, version: Version) -> bool {
        let was_live = self
            .entries
            .get(&(key, ident))
            .is_some_and(|e| e.item.is_some() && e.version <= version);
        self.apply_record(key, ident, None, version);
        was_live
    }

    /// Removes everything.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.live = 0;
        self.invalidate_memos();
    }
}

/// The replica repair sees the store as versioned records under
/// `(key, ident)`, tombstones included (deletes must propagate).
impl<I: Item> RepairStore for LocalStore<I> {
    type Key = (Key, u64);
    type Item = I;

    fn records(
        &self,
        (lo, hi): Span<(Key, u64)>,
    ) -> impl Iterator<Item = ((Key, u64), Version, Option<&I>)> {
        self.entries.range(lo..=hi).map(|(&k, e)| (k, e.version, e.item.as_ref()))
    }

    fn record(&self, key: (Key, u64)) -> Option<(Version, Option<&I>)> {
        self.entries.get(&key).map(|e| (e.version, e.item.as_ref()))
    }

    fn apply(&mut self, (key, ident): (Key, u64), version: Version, item: Option<I>) -> bool {
        self.apply_record(key, ident, item, version)
    }

    fn summaries(&mut self) -> &mut SummaryMemo<(Key, u64)> {
        &mut self.summaries
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
                        s.apply(key, Tagged { id, tag: key ^ version }, version);
                    }
                    4 => {
                        s.remove(key, id, version);
                    }
                    5 => {
                        s.split_off_outside(key.min(id * 3), key.max(id * 3));
                    }
                    6 if version == 0 => s.clear(),
                    _ => {
                        let (lo, hi) = RANGES[(key % 6) as usize];
                        let field = (id % 3) as u8;
                        // Twice: the second scan probes the column the
                        // first one built, with a different filter.
                        for f in [filter_on(field, &accepted), filter_on(field, &[version, id])] {
                            let expected = ItemFilter::collect_filtered(&f, s.iter_range(lo, hi));
                            prop_assert_eq!(s.scan_range(lo, hi, &f), expected);
                        }
                        prop_assert_eq!(s.scan_range(lo, hi, &None), s.get_range(lo, hi));
                    }
                }
            }
        }
    }

    #[test]
    fn any_write_invalidates_every_memoized_range() {
        let mut s: LocalStore<Tagged> = LocalStore::new();
        for k in 0..8u64 {
            s.apply(k, Tagged { id: k, tag: k }, 0);
        }
        let f = filter_on(0, &[1, 2]);
        let expected = vec![Tagged { id: 1, tag: 1 }, Tagged { id: 2, tag: 2 }];
        assert_eq!(field_hashes_during(|| assert_eq!(s.scan_range(0, 3, &f), expected)), 4);
        assert_eq!(field_hashes_during(|| assert_eq!(s.scan_range(0, 3, &f), expected)), 0);
        // The rule is per store: a write far outside [0, 3] still makes
        // the column stale; a rejected write changes nothing and does
        // not.
        assert!(!s.apply(7, Tagged { id: 7, tag: 7 }, 0));
        assert_eq!(field_hashes_during(|| assert_eq!(s.scan_range(0, 3, &f), expected)), 0);
        assert!(s.apply(7, Tagged { id: 70, tag: 7 }, 0));
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
        assert!(s.apply(10, RawItem(1), 0));
        assert!(s.apply(10, RawItem(2), 0));
        assert!(s.apply(20, RawItem(3), 0));
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
        }
        impl Item for KV {
            fn ident(&self) -> u64 {
                self.0
            }
        }
        let mut s: LocalStore<KV> = LocalStore::new();
        assert!(s.apply(5, KV(1, 100), 1));
        // Same identity, older version → rejected.
        assert!(!s.apply(5, KV(1, 50), 0));
        assert_eq!(s.get(5), vec![KV(1, 100)]);
        // Same identity, newer version → replaces.
        assert!(s.apply(5, KV(1, 200), 2));
        assert_eq!(s.get(5), vec![KV(1, 200)]);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn range_scan_in_order() {
        let mut s: LocalStore<RawItem> = LocalStore::new();
        for k in [5u64, 1, 9, 3, 7] {
            s.apply(k, RawItem(k), 0);
        }
        let got: Vec<u64> = s.get_range(3, 7).into_iter().map(|r| r.0).collect();
        assert_eq!(got, vec![3, 5, 7]);
        assert!(s.get_range(10, 5).is_empty());
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
        a.apply(1, RawItem(1), 1);
        a.apply(2, RawItem(2), 1);
        a.remove(3, 3, 2);
        b.apply(1, RawItem(1), 1);
        // b lacks key 2 and the key-3 tombstone → both must travel.
        let missing = diff_newer(a.records(ALL), &run_of(&b));
        assert_eq!(missing, vec![((2, 2), 1, Some(RawItem(2))), ((3, 3), 2, None)]);
        // a has everything b has → nothing to ship the other way.
        assert!(diff_newer(b.records(ALL), &run_of(&a)).is_empty());
        // A sub-span sees only its own records.
        assert_eq!(a.records(((2, 0), (2, u64::MAX))).count(), 1);
        assert_eq!(a.record((3, 3)), Some((2, None)));
    }

    #[test]
    fn root_summary_is_memoized_until_the_store_changes() {
        let mut s: LocalStore<RawItem> = LocalStore::new();
        s.apply(1, RawItem(1), 1);
        let mut repair = ReplicaRepair::default();
        let first = repair.probe(&mut s, ALL);
        assert_eq!(repair.probe(&mut s, ALL), first, "an unchanged store probes the same");
        assert!(!s.apply(1, RawItem(1), 1), "a rejected write changes nothing");
        assert_eq!(repair.probe(&mut s, ALL), first);
        s.apply(2, RawItem(2), 0);
        let RepairMsg::Probe { summary, .. } = repair.probe(&mut s, ALL) else { unreachable!() };
        assert_eq!(summary.count, 2, "every mutator drops the memo");
        s.remove(2, 2, 1);
        let RepairMsg::Probe { summary: after, .. } = repair.probe(&mut s, ALL) else {
            unreachable!()
        };
        assert_eq!(after.count, 2, "a tombstone is a record");
        assert_ne!(after.hash, summary.hash, "at a newer version");
        s.clear();
        let RepairMsg::Probe { summary, .. } = repair.probe(&mut s, ALL) else { unreachable!() };
        assert_eq!(summary.count, 0);
    }

    /// Strictly-newer resolves nothing between a live entry and a
    /// tombstone of EQUAL version, so the summary must not see the
    /// difference either: a hash over the tombstone bit would re-descend
    /// into this record on every tick and ship nothing each time.
    #[test]
    fn equal_version_conflict_is_outside_the_summary() {
        let mut live: LocalStore<RawItem> = LocalStore::new();
        let mut dead: LocalStore<RawItem> = LocalStore::new();
        live.apply(5, RawItem(5), 3);
        dead.remove(5, 5, 3);
        assert!(!live.apply_record(5, 5, None, 3), "the tombstone cannot win the tie");
        assert!(!dead.apply(5, RawItem(5), 3), "nor can the live entry");
        let mut repair = ReplicaRepair::default();
        let probe = repair.probe(&mut live, ALL);
        assert!(repair.handle(&mut dead, &[ALL], probe).is_empty(), "in sync: silence");
        let probe = repair.probe(&mut dead, ALL);
        assert!(repair.handle(&mut live, &[ALL], probe).is_empty());
    }

    #[test]
    fn len_tracks_every_transition() {
        let mut s: LocalStore<RawItem> = LocalStore::new();
        assert_eq!(s.len(), 0);
        s.apply(1, RawItem(1), 0);
        s.apply(2, RawItem(2), 0);
        assert_eq!(s.len(), 2);
        // Stale write: no change.
        assert!(!s.apply(1, RawItem(1), 0));
        assert_eq!(s.len(), 2);
        // Tombstone: live shrinks.
        s.remove(1, 1, 1);
        assert_eq!(s.len(), 1);
        // Tombstone over a tombstone: no change.
        s.remove(1, 1, 2);
        assert_eq!(s.len(), 1);
        // Un-delete with a newer version: live grows back.
        assert!(s.apply_record(1, 1, Some(RawItem(1)), 3));
        assert_eq!(s.len(), 2);
        // In-place replace of a live entry: no change.
        assert!(s.apply_record(2, 2, Some(RawItem(9)), 5));
        assert_eq!(s.len(), 2);
        // Tombstone over nothing: stays dead, count unchanged.
        s.remove(7, 7, 1);
        assert_eq!(s.len(), 2);
        s.clear();
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn split_off_outside_recounts_live_entries() {
        let mut s: LocalStore<RawItem> = LocalStore::new();
        for k in 0..8u64 {
            s.apply(k, RawItem(k), 0);
        }
        s.remove(4, 4, 1); // in-range tombstone survives the split
        let moved = s.split_off_outside(2, 5);
        assert_eq!(moved.len(), 4, "0,1,6,7 move out");
        assert_eq!(s.len(), 3, "2,3,5 live; 4 is a tombstone");
    }

    #[test]
    fn split_off_outside_partitions() {
        let mut s: LocalStore<RawItem> = LocalStore::new();
        for k in 0..10u64 {
            s.apply(k, RawItem(k), 0);
        }
        let moved = s.split_off_outside(3, 6);
        assert_eq!(moved.len(), 6);
        assert_eq!(s.len(), 4);
        assert!(s.get_range(0, 10).iter().all(|r| (3..=6).contains(&r.0)));
    }
}
