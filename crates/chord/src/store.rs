//! Chord-side local storage.
//!
//! Unlike P-Grid, the ring position of an entry is *not* its semantic
//! key: items are stored under `ring_key = hash(key)` (exact index) and,
//! for the auxiliary range index, under `ring_key = hash(bucket(key))`.
//! Entries therefore remember their original order-preserving key so
//! that bucket scans can filter to the requested interval. Entries are
//! versioned with the same superseding rule as P-Grid's local store
//! (paper ref [4] loose consistency): a write is applied only when its
//! version exceeds the stored one, and deletes leave tombstones that
//! keep blocking stale re-inserts of the same logical entry, so both
//! backends resolve concurrent updates identically.

use std::collections::BTreeMap;
use std::ops::Bound;

use unistore_overlay::repair::{RepairStore, Span, SummaryMemo};
use unistore_util::item::Item;
use unistore_util::{FieldHashColumns, ItemFilter, Key};

/// Applies an optional semi-join filter over borrowed `(key, item)`
/// candidates, cloning only the survivors into reply entries — dropped
/// candidates are never materialized (the Chord counterpart of
/// [`ItemFilter::collect_filtered`]).
pub fn collect_keyed<'a, I: Item + 'a>(
    filter: &Option<ItemFilter>,
    candidates: impl Iterator<Item = (Key, &'a I)>,
) -> Vec<(Key, I)> {
    match filter {
        Some(f) => candidates.filter(|(_, i)| f.accepts(*i)).map(|(k, i)| (k, i.clone())).collect(),
        None => candidates.map(|(k, i)| (k, i.clone())).collect(),
    }
}

/// Full address of one stored record: `(ring position, original key,
/// logical identity)` — the Chord counterpart of P-Grid's `(key, ident)`
/// record key in the shared replica repair.
pub type RecordKey = (u64, Key, u64);

/// One stored entry: the original key plus the payload.
#[derive(Clone, Debug)]
pub struct ChordEntry<I> {
    /// Original, order-preserving key (pre-hash).
    pub key: Key,
    /// Payload.
    pub item: I,
}

/// Local store of a Chord node, keyed by ring position. The value is
/// `(version, item-or-tombstone)`: `None` marks a deleted entry whose
/// version still vetoes stale writes.
#[derive(Clone, Debug, Default)]
pub struct ChordStore<I> {
    entries: Entries<I>,
    /// Join-key hashes of recently filtered bucket and broadcast scans;
    /// every mutator invalidates it.
    hash_columns: FieldHashColumns<ScanBounds>,
    /// Root range summaries of the replica repair; every mutator
    /// invalidates them too.
    summaries: SummaryMemo<RecordKey>,
}

type Entries<I> = BTreeMap<RecordKey, (u64, Option<I>)>;

/// What a memoized scan covered: the ring position (`None` for a scan
/// across all of them) and the original-key interval.
type ScanBounds = (Option<u64>, Key, Key);

/// Live entries under `ring_key` with original key in `[lo, hi]`, as
/// `(ring position, original key, item)`.
fn live_in_bucket<I>(
    entries: &Entries<I>,
    ring_key: u64,
    lo: Key,
    hi: Key,
) -> impl Iterator<Item = (u64, Key, &I)> {
    // An inverted interval yields an explicitly empty (but
    // well-formed) bound pair: BTreeMap panics on start > end.
    let bounds = match lo <= hi {
        true => (Bound::Included((ring_key, lo, 0)), Bound::Included((ring_key, hi, u64::MAX))),
        false => (Bound::Included((ring_key, lo, 0)), Bound::Excluded((ring_key, lo, 0))),
    };
    entries
        .range(bounds)
        .filter_map(|(&(rk, key, _), (_, item))| item.as_ref().map(|i| (rk, key, i)))
}

/// Live entries at any ring position with original key in `[lo, hi]`.
fn live_by_key<I>(entries: &Entries<I>, lo: Key, hi: Key) -> impl Iterator<Item = (u64, Key, &I)> {
    entries
        .iter()
        .filter(move |(&(_, key, _), _)| key >= lo && key <= hi)
        .filter_map(|(&(rk, key, _), (_, item))| item.as_ref().map(|i| (rk, key, i)))
}

/// The one filtered-scan routine: clones the candidates at ring
/// positions `serve` admits that survive `filter`, probing the memoized
/// hash column of `(bounds, field)` instead of re-hashing each
/// candidate. The column covers *every* candidate of the scan, so it
/// does not depend on `serve` (ring responsibility changes without the
/// store changing).
fn collect_scan<'a, I: Item + 'a, C: Iterator<Item = (u64, Key, &'a I)>>(
    hash_columns: &mut FieldHashColumns<ScanBounds>,
    bounds: ScanBounds,
    filter: &Option<ItemFilter>,
    candidates: impl Fn() -> C,
    serve: impl Fn(u64) -> bool,
) -> Vec<(Key, I)> {
    let Some(f) = filter else {
        return candidates()
            .filter(|&(rk, _, _)| serve(rk))
            .map(|(_, key, i)| (key, i.clone()))
            .collect();
    };
    let hashes = hash_columns.column(bounds, f.field, |column| {
        column.extend(candidates().map(|(_, _, i)| i.field_hash(f.field)))
    });
    candidates()
        .zip(hashes)
        .filter(|&((rk, _, _), &h)| serve(rk) && f.keeps(h))
        .map(|((_, key, i), _)| (key, i.clone()))
        .collect()
}

impl<I: Item> ChordStore<I> {
    /// Empty store.
    pub fn new() -> Self {
        ChordStore {
            entries: BTreeMap::new(),
            hash_columns: FieldHashColumns::default(),
            summaries: SummaryMemo::default(),
        }
    }

    /// Stores an entry under a ring position. Applies the write only if
    /// it is new or strictly newer than the stored version — live or
    /// tombstoned (the same rule as P-Grid's `LocalStore::apply_record`);
    /// returns whether it was applied.
    pub fn insert(&mut self, ring_key: u64, key: Key, item: I, version: u64) -> bool {
        self.apply_record(ring_key, key, item.ident(), Some(item), version)
    }

    /// Applies one record — live entry or tombstone — under the shared
    /// strictly-newer rule; the entry point for push replication and
    /// anti-entropy repair (the same contract as P-Grid's
    /// `LocalStore::apply_record`). Returns whether it was applied.
    pub fn apply_record(
        &mut self,
        ring_key: u64,
        key: Key,
        ident: u64,
        item: Option<I>,
        version: u64,
    ) -> bool {
        match self.entries.get_mut(&(ring_key, key, ident)) {
            Some((existing, _)) if *existing >= version => return false,
            Some(slot) => *slot = (version, item),
            None => {
                self.entries.insert((ring_key, key, ident), (version, item));
            }
        }
        self.hash_columns.invalidate();
        self.summaries.invalidate();
        true
    }

    /// All entries stored under one ring position.
    pub fn get(&self, ring_key: u64) -> Vec<ChordEntry<I>> {
        self.iter_ring(ring_key).map(|(key, i)| ChordEntry { key, item: i.clone() }).collect()
    }

    /// Entries under `ring_key` whose *original* key lies in `[lo, hi]`.
    pub fn get_filtered(&self, ring_key: u64, lo: Key, hi: Key) -> Vec<ChordEntry<I>> {
        self.iter_ring_filtered(ring_key, lo, hi)
            .map(|(key, i)| ChordEntry { key, item: i.clone() })
            .collect()
    }

    /// Every entry whose original key lies in `[lo, hi]`, regardless of
    /// ring position (broadcast-mode local scan).
    pub fn scan_by_key(&self, lo: Key, hi: Key) -> Vec<ChordEntry<I>> {
        self.iter_by_key(lo, hi).map(|(key, i)| ChordEntry { key, item: i.clone() }).collect()
    }

    /// Borrowed view of the live entries under one ring position. Leaf
    /// handlers filter through this *before* cloning, so semi-join
    /// pushdown never materializes dropped candidates.
    pub fn iter_ring(&self, ring_key: u64) -> impl Iterator<Item = (Key, &I)> {
        self.iter_ring_filtered(ring_key, 0, Key::MAX)
    }

    /// Borrowed view of the live entries under `ring_key` whose original
    /// key lies in `[lo, hi]`.
    pub fn iter_ring_filtered(
        &self,
        ring_key: u64,
        lo: Key,
        hi: Key,
    ) -> impl Iterator<Item = (Key, &I)> {
        live_in_bucket(&self.entries, ring_key, lo, hi).map(|(_, key, i)| (key, i))
    }

    /// The leaf side of a bucket scan: the live entries under
    /// `ring_key` with original key in `[lo, hi]` that survive `filter`
    /// — what [`collect_keyed`] over [`ChordStore::iter_ring_filtered`]
    /// returns, probing memoized join-key hashes.
    pub fn scan_bucket(
        &mut self,
        ring_key: u64,
        lo: Key,
        hi: Key,
        filter: &Option<ItemFilter>,
    ) -> Vec<(Key, I)> {
        let entries = &self.entries;
        collect_scan(
            &mut self.hash_columns,
            (Some(ring_key), lo, hi),
            filter,
            || live_in_bucket(entries, ring_key, lo, hi),
            |_| true,
        )
    }

    /// The leaf side of a broadcast scan: the live entries with original
    /// key in `[lo, hi]`, at the ring positions `serve` admits, that
    /// survive `filter` — what [`collect_keyed`] over the admitted part
    /// of [`ChordStore::iter_by_key_ring`] returns, probing memoized
    /// join-key hashes.
    pub fn scan_by_key_where(
        &mut self,
        lo: Key,
        hi: Key,
        filter: &Option<ItemFilter>,
        serve: impl Fn(u64) -> bool,
    ) -> Vec<(Key, I)> {
        let entries = &self.entries;
        collect_scan(
            &mut self.hash_columns,
            (None, lo, hi),
            filter,
            || live_by_key(entries, lo, hi),
            serve,
        )
    }

    /// Borrowed scan over every live entry with original key in
    /// `[lo, hi]`, regardless of ring position.
    pub fn iter_by_key(&self, lo: Key, hi: Key) -> impl Iterator<Item = (Key, &I)> {
        self.iter_by_key_ring(lo, hi).map(|(_, key, i)| (key, i))
    }

    /// Like [`ChordStore::iter_by_key`], but also yielding each entry's
    /// ring position, so node-local scans can be restricted to records
    /// the node is primary for (replica copies answer no queries).
    pub fn iter_by_key_ring(&self, lo: Key, hi: Key) -> impl Iterator<Item = (u64, Key, &I)> {
        live_by_key(&self.entries, lo, hi)
    }

    /// Removes the entry with logical identity `ident` stored under
    /// `(ring_key, key)` by recording a tombstone at `version` — like
    /// P-Grid's `LocalStore::remove`: the tombstone is recorded even
    /// over nothing, so late-arriving writes at `<= version` stay dead,
    /// and it only supersedes a strictly older stored version. Returns
    /// `true` if a live, strictly older entry was actually shadowed.
    pub fn remove(&mut self, ring_key: u64, key: Key, ident: u64, version: u64) -> bool {
        let shadowed = matches!(
            self.entries.get(&(ring_key, key, ident)),
            Some((v, Some(_))) if *v < version
        );
        self.apply_record(ring_key, key, ident, None, version);
        shadowed
    }

    /// Number of live entries (tombstones excluded).
    pub fn len(&self) -> usize {
        self.entries.values().filter(|(_, item)| item.is_some()).count()
    }

    /// True when no live entries exist.
    pub fn is_empty(&self) -> bool {
        !self.entries.values().any(|(_, item)| item.is_some())
    }
}

/// The replica repair sees the store as versioned records under
/// [`RecordKey`], tombstones included (deletes must propagate).
impl<I: Item> RepairStore for ChordStore<I> {
    type Key = RecordKey;
    type Item = I;

    fn records(
        &self,
        (lo, hi): Span<RecordKey>,
    ) -> impl Iterator<Item = (RecordKey, u64, Option<&I>)> {
        self.entries.range(lo..=hi).map(|(&k, (v, item))| (k, *v, item.as_ref()))
    }

    fn record(&self, key: RecordKey) -> Option<(u64, Option<&I>)> {
        self.entries.get(&key).map(|(v, item)| (*v, item.as_ref()))
    }

    fn apply(&mut self, (ring_key, key, ident): RecordKey, version: u64, item: Option<I>) -> bool {
        self.apply_record(ring_key, key, ident, item, version)
    }

    fn summaries(&mut self) -> &mut SummaryMemo<RecordKey> {
        &mut self.summaries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unistore_overlay::repair::{diff_newer, ReplicaRepair};
    use unistore_util::fxhash::{hash_bytes, mix64};
    use unistore_util::item::testing::Tagged;
    use unistore_util::item::RawItem as TestItem;
    use unistore_util::BloomFilter;

    fn filter_on(field: u8, accepted: &[u64]) -> Option<ItemFilter> {
        let bloom = BloomFilter::from_hashes(accepted.iter().map(|&a| mix64(a)), 0.01);
        Some(ItemFilter { field, bloom })
    }

    /// The original-key ranges the property draws from, one inverted;
    /// times two ring positions, the broadcast scan and three fields,
    /// far more `(bounds, field)` pairs than the memo holds columns.
    const RANGES: [(Key, Key); 4] = [(0, 15), (3, 9), (5, 5), (12, 3)];

    proptest::proptest! {
        /// Whatever mutations run in between, the memoized bucket and
        /// broadcast scans are the unmemoized filter over the same
        /// candidates, order included.
        #[test]
        fn prop_filtered_scans_match_unmemoized_filter(
            ops in proptest::collection::vec((0u8..10, 0u64..16, 0u64..6, 0u64..4), 1..120),
            accepted in proptest::collection::vec(0u64..6, 0..4),
        ) {
            let mut s: ChordStore<Tagged> = ChordStore::new();
            for (op, key, id, version) in ops {
                let ring_key = key % 2;
                match op {
                    // Inserts, stale writes, in-place updates, un-deletes.
                    0..=3 => {
                        s.insert(ring_key, key, Tagged { id, tag: key ^ version }, version);
                    }
                    4 => {
                        s.remove(ring_key, key, id, version);
                    }
                    _ => {
                        let (lo, hi) = RANGES[(key % 4) as usize];
                        let field = (id % 3) as u8;
                        let serve = |rk: u64| rk != version % 3;
                        // Twice: the second scan probes the column the
                        // first one built, with a different filter.
                        for f in [filter_on(field, &accepted), filter_on(field, &[version, id])] {
                            let expected = collect_keyed(&f, s.iter_ring_filtered(ring_key, lo, hi));
                            proptest::prop_assert_eq!(s.scan_bucket(ring_key, lo, hi, &f), expected);
                            let expected = collect_keyed(
                                &f,
                                s.iter_by_key_ring(lo, hi)
                                    .filter(|&(rk, _, _)| serve(rk))
                                    .map(|(_, k, i)| (k, i)),
                            );
                            proptest::prop_assert_eq!(
                                s.scan_by_key_where(lo, hi, &f, serve),
                                expected
                            );
                        }
                        let all = collect_keyed(&None, s.iter_ring_filtered(ring_key, lo, hi));
                        proptest::prop_assert_eq!(s.scan_bucket(ring_key, lo, hi, &None), all);
                    }
                }
            }
        }
    }

    #[test]
    fn any_write_invalidates_every_memoized_scan() {
        let mut s: ChordStore<Tagged> = ChordStore::new();
        for k in 0..8u64 {
            s.insert(1, k, Tagged { id: k, tag: k }, 0);
        }
        let f = filter_on(0, &[1, 2]);
        let hit = |id| (id, Tagged { id, tag: id });
        assert_eq!(s.scan_bucket(1, 0, 3, &f), vec![hit(1), hit(2)]);
        // The rule is per store: a write at another ring position, far
        // outside [0, 3], still makes the memoized column stale — the
        // next scan sees the entry written after that.
        s.insert(9, 40, Tagged { id: 40, tag: 1 }, 0);
        s.insert(1, 2, Tagged { id: 20, tag: 1 }, 0);
        assert_eq!(
            s.scan_bucket(1, 0, 3, &f),
            vec![hit(1), hit(2), (2, Tagged { id: 20, tag: 1 })]
        );
        assert!(s.scan_bucket(1, 6, 2, &f).is_empty(), "inverted range");
        assert!(s.scan_bucket(1, 6, 2, &f).is_empty(), "inverted range, memoized");
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut s: ChordStore<TestItem> = ChordStore::new();
        let rk = hash_bytes(b"k1");
        s.insert(rk, 100, TestItem(1), 0);
        s.insert(rk, 200, TestItem(2), 0);
        let got = s.get(rk);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].key, 100);
        assert!(s.get(rk ^ 1).is_empty());
    }

    #[test]
    fn filtered_respects_original_keys() {
        let mut s: ChordStore<TestItem> = ChordStore::new();
        let rk = 42;
        for k in [10u64, 20, 30, 40] {
            s.insert(rk, k, TestItem(k), 0);
        }
        let got = s.get_filtered(rk, 15, 35);
        let keys: Vec<u64> = got.iter().map(|e| e.key).collect();
        assert_eq!(keys, vec![20, 30]);
    }

    #[test]
    fn scan_by_key_crosses_ring_positions() {
        let mut s: ChordStore<TestItem> = ChordStore::new();
        s.insert(1, 10, TestItem(1), 0);
        s.insert(999, 20, TestItem(2), 0);
        s.insert(500, 99, TestItem(3), 0);
        let got = s.scan_by_key(5, 25);
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn duplicate_ident_overwrites() {
        let mut s: ChordStore<TestItem> = ChordStore::new();
        assert!(s.insert(1, 10, TestItem(7), 0));
        assert!(!s.insert(1, 10, TestItem(7), 0), "same version is rejected");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn remove_targets_one_entry_exactly() {
        let mut s: ChordStore<TestItem> = ChordStore::new();
        s.insert(1, 10, TestItem(7), 0);
        s.insert(1, 20, TestItem(7), 0); // same identity, different key
        s.insert(1, 10, TestItem(8), 0);
        s.insert(2, 10, TestItem(7), 0); // other ring position untouched
        assert!(s.remove(1, 10, 7, 1));
        assert_eq!(s.len(), 3, "only the addressed entry is shadowed");
        let live: Vec<u64> = s.get(1).iter().map(|e| e.item.0).collect();
        assert_eq!(live, vec![TestItem(8).0, TestItem(7).0]);
        assert_eq!(s.get(2).len(), 1);
        assert!(!s.remove(1, 10, 99, 1), "absent identity shadows nothing");
    }

    #[test]
    fn filtered_bounds_are_inclusive() {
        let mut s: ChordStore<TestItem> = ChordStore::new();
        for k in [10u64, 20, 30] {
            s.insert(5, k, TestItem(k), 0);
        }
        let keys: Vec<u64> = s.get_filtered(5, 10, 30).iter().map(|e| e.key).collect();
        assert_eq!(keys, vec![10, 20, 30]);
        assert!(s.get_filtered(5, 11, 19).is_empty());
    }

    #[test]
    fn empty_store_reports_empty() {
        let s: ChordStore<TestItem> = ChordStore::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(s.get(0).is_empty());
        assert!(s.scan_by_key(0, u64::MAX).is_empty());
    }

    #[test]
    fn newer_version_supersedes_older_is_rejected() {
        let mut s: ChordStore<TestItem> = ChordStore::new();
        assert!(s.insert(1, 10, TestItem(7), 0));
        assert!(s.insert(1, 10, TestItem(7), 5), "newer version applies");
        assert!(!s.insert(1, 10, TestItem(7), 3), "stale write is rejected");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn remove_spares_newer_versions() {
        let mut s: ChordStore<TestItem> = ChordStore::new();
        s.insert(1, 10, TestItem(7), 5);
        assert!(!s.remove(1, 10, 7, 3), "delete at v3 must not kill the v5 entry");
        assert_eq!(s.len(), 1);
        assert!(!s.remove(1, 10, 7, 5), "equal version loses, entry stays live");
        assert_eq!(s.len(), 1);
        assert!(s.remove(1, 10, 7, 6), "a newer delete shadows it");
        assert!(s.is_empty());
    }

    #[test]
    fn tombstone_blocks_stale_reinsert() {
        let mut s: ChordStore<TestItem> = ChordStore::new();
        s.insert(1, 10, TestItem(7), 0);
        assert!(s.remove(1, 10, 7, 2));
        assert!(s.is_empty());
        assert!(!s.insert(1, 10, TestItem(7), 0), "stale write loses to the tombstone");
        assert!(!s.insert(1, 10, TestItem(7), 2), "equal version loses too");
        assert!(s.is_empty());
        assert!(s.insert(1, 10, TestItem(7), 3), "a genuinely newer write un-deletes");
        assert_eq!(s.len(), 1);
    }

    /// Every record key.
    const ALL: Span<RecordKey> = ((0, 0, 0), (u64::MAX, u64::MAX, u64::MAX));

    fn run_of(s: &ChordStore<TestItem>) -> Vec<(RecordKey, u64)> {
        s.records(ALL).map(|(k, v, _)| (k, v)).collect()
    }

    #[test]
    fn digest_and_newer_than() {
        let mut a: ChordStore<TestItem> = ChordStore::new();
        let mut b: ChordStore<TestItem> = ChordStore::new();
        a.insert(1, 10, TestItem(1), 1);
        a.insert(2, 20, TestItem(2), 1);
        b.insert(1, 10, TestItem(1), 1);
        // b lacks the record under ring position 2 → it must travel.
        let missing = diff_newer(a.records(ALL), &run_of(&b));
        assert_eq!(missing.len(), 1);
        assert_eq!(missing[0].0, (2, 20, TestItem(2).ident()));
        // a has everything b has → nothing to ship the other way.
        assert!(diff_newer(b.records(ALL), &run_of(&a)).is_empty());
        // A ring-position span sees only its own records.
        assert_eq!(a.records(((2, 0, 0), (2, u64::MAX, u64::MAX))).count(), 1);
    }

    #[test]
    fn digest_carries_tombstones() {
        let mut a: ChordStore<TestItem> = ChordStore::new();
        a.insert(1, 10, TestItem(7), 0);
        a.remove(1, 10, 7, 2);
        let fresh: ChordStore<TestItem> = ChordStore::new();
        let missing = diff_newer(a.records(ALL), &run_of(&fresh));
        assert_eq!(missing.len(), 1);
        assert!(missing[0].2.is_none(), "the tombstone travels");
        assert_eq!(missing[0].1, 2, "at the delete's version");
        assert_eq!(a.record((1, 10, 7)), Some((2, None)));
    }

    /// The Chord side of P-Grid's test of the same name: a live entry
    /// and a tombstone of EQUAL version cannot overwrite each other, so
    /// the range summary must not tell them apart.
    #[test]
    fn equal_version_conflict_is_outside_the_summary() {
        let mut live: ChordStore<TestItem> = ChordStore::new();
        let mut dead: ChordStore<TestItem> = ChordStore::new();
        live.insert(1, 10, TestItem(7), 3);
        dead.remove(1, 10, 7, 3);
        assert!(!live.apply_record(1, 10, 7, None, 3), "the tombstone cannot win the tie");
        assert!(!dead.insert(1, 10, TestItem(7), 3), "nor can the live entry");
        let mut repair = ReplicaRepair::default();
        let probe = repair.probe(&mut live, ALL);
        assert!(repair.handle(&mut dead, &[ALL], probe).is_empty(), "in sync: silence");
        // Any applied write drops the memoized summary.
        let before = repair.probe(&mut live, ALL);
        live.insert(1, 10, TestItem(7), 4);
        assert_ne!(repair.probe(&mut live, ALL), before);
    }

    #[test]
    fn tombstone_over_nothing_still_blocks() {
        let mut s: ChordStore<TestItem> = ChordStore::new();
        assert!(!s.remove(1, 10, 7, 2), "nothing live to shadow");
        assert!(!s.insert(1, 10, TestItem(7), 1), "late stale write stays dead");
        assert!(s.is_empty());
    }
}
