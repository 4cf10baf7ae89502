//! The one versioned store under both backends.
//!
//! The paper's loosely consistent updates (ref \[4\], Datta et al.) ask
//! three things of a peer's local store, whichever overlay addresses
//! it: a write applies only when its version is strictly newer than the
//! stored one, a delete leaves a tombstone that keeps vetoing stale
//! re-inserts, and replicas can compare what they hold span by span.
//! [`VersionedStore`] is that store, written once and generic over its
//! ordered record key: P-Grid stores under `(key, ident)`, Chord under
//! `(ring position, key, ident)`. Each backend keeps a thin adapter that
//! only turns its addressing (a leaf interval; an exact ring position,
//! a bucket, a broadcast) into spans of record keys and shapes the
//! reply.
//!
//! Two memos sit beside the records: the join-key hash columns of
//! filtered scans ([`FieldHashColumns`]) and the replica repair's root
//! summaries. Every applied write clears the columns and folds its one
//! `(key, version)` change into each memoized summary whose span holds
//! the key, so a probe after a write rescans nothing; only a path-split
//! hand-off clears both. A rejected write changes nothing.

use std::collections::btree_map::{Entry, Range};
use std::collections::BTreeMap;
use std::ops::Bound;

use unistore_util::item::Item;
use unistore_util::{FieldHashColumns, ItemFilter};

use crate::repair::{RecordKey, Span, Summary, SummaryMemo};

/// Versioned records under an ordered record key `K`. A record is a
/// version and an item; a `None` item is a tombstone, whose version
/// still vetoes stale writes and which travels in repair like any
/// record, so deletes propagate instead of deleted data resurrecting.
#[derive(Clone, Debug)]
pub struct VersionedStore<K, I> {
    records: BTreeMap<K, (u64, Option<I>)>,
    /// Live (non-tombstone) records, kept by every mutation so
    /// [`VersionedStore::len`] is O(1) — P-Grid reads it on every
    /// bootstrap `Exchange`.
    live: usize,
    /// Join-key hashes of recently filtered scans, keyed by span.
    hash_columns: FieldHashColumns<Span<K>>,
    /// Root summaries of the replica repair.
    summaries: SummaryMemo<K>,
}

impl<K, I> Default for VersionedStore<K, I> {
    fn default() -> Self {
        VersionedStore {
            records: BTreeMap::new(),
            live: 0,
            hash_columns: FieldHashColumns::default(),
            summaries: SummaryMemo::default(),
        }
    }
}

/// The records in `span`, in key order. An inverted span is an
/// explicitly empty (but well-formed) bound pair: `BTreeMap::range`
/// panics on start > end.
fn within<K: Ord + Copy, V>((lo, hi): Span<K>, records: &BTreeMap<K, V>) -> Range<'_, K, V> {
    let hi = if lo <= hi { Bound::Included(hi) } else { Bound::Excluded(lo) };
    records.range((Bound::Included(lo), hi))
}

/// The live records in `span`, in key order.
fn live_in<K: Ord + Copy, I>(
    span: Span<K>,
    records: &BTreeMap<K, (u64, Option<I>)>,
) -> impl Iterator<Item = (K, &I)> {
    within(span, records).filter_map(|(&k, (_, item))| item.as_ref().map(|i| (k, i)))
}

impl<K: RecordKey, I: Item> VersionedStore<K, I> {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies an insert, update or tombstone (`item == None`) under
    /// the strictly-newer rule: a record applies only when the store
    /// holds nothing under `key` or an older version — live or
    /// tombstoned — so an equal version loses either way. Returns
    /// whether the store changed (un-deleting included).
    pub fn apply(&mut self, key: K, version: u64, item: Option<I>) -> bool {
        let live = item.is_some() as usize;
        let replaced = match self.records.entry(key) {
            Entry::Occupied(mut slot) => {
                let (have, held) = slot.get_mut();
                if *have >= version {
                    return false;
                }
                self.live = self.live - held.is_some() as usize + live;
                *held = item;
                Some(std::mem::replace(have, version))
            }
            Entry::Vacant(slot) => {
                self.live += live;
                slot.insert((version, item));
                None
            }
        };
        self.hash_columns.invalidate();
        self.summaries.update(key, replaced, version);
        true
    }

    /// Deletes `key` by applying a tombstone at `version`. Returns
    /// `true` only when a live, strictly older record was shadowed. The
    /// tombstone is recorded even over nothing, so late-arriving older
    /// writes stay dead; a delete at the live record's own version loses
    /// like any equal-version write and changes nothing.
    pub fn remove(&mut self, key: K, version: u64) -> bool {
        let shadowed = matches!(self.records.get(&key), Some((have, Some(_))) if *have < version);
        self.apply(key, version, None);
        shadowed
    }

    /// Version and item-or-tombstone of one record.
    pub fn record(&self, key: K) -> Option<(u64, Option<&I>)> {
        self.records.get(&key).map(|(v, item)| (*v, item.as_ref()))
    }

    /// The records in `span`, tombstones included, in key order, as
    /// `(record key, version, item-or-tombstone)` — the repair's view.
    pub fn records(&self, span: Span<K>) -> impl Iterator<Item = (K, u64, Option<&I>)> {
        within(span, &self.records).map(|(&k, (v, item))| (k, *v, item.as_ref()))
    }

    /// The live records in `span` that survive `filter`, borrowed, in
    /// key order: the unmemoized read. Each candidate's field is hashed
    /// afresh and no memo is touched, so exact-key lookups, which rarely
    /// repeat on one store, pay nothing for a column; nothing is cloned
    /// until the caller shapes its reply.
    pub fn read<'a>(
        &'a self,
        span: Span<K>,
        filter: &'a Option<ItemFilter>,
    ) -> impl Iterator<Item = (K, &'a I)> + 'a {
        live_in(span, &self.records)
            .filter(move |(_, i)| filter.as_ref().is_none_or(|f| f.accepts(*i)))
    }

    /// The memoized filtered scan: what [`VersionedStore::read`] over
    /// `span` yields for the records `keep` admits, but probing the
    /// memoized hash column of `(span, field)` instead of hashing each
    /// candidate. The column covers every live record of the span and
    /// `keep` is applied after the probe, so the column never depends on
    /// `keep` (a Chord node's ring responsibility moves while its store
    /// stays put). An unfiltered scan does not touch the memo.
    pub fn scan<'a>(
        &'a mut self,
        span: Span<K>,
        filter: &'a Option<ItemFilter>,
        keep: impl Fn(&K) -> bool + 'a,
    ) -> impl Iterator<Item = (K, &'a I)> + 'a {
        let records = &self.records;
        let column: &[Option<u64>] = match filter {
            Some(f) => self.hash_columns.column(span, f.field, |column| {
                column.extend(live_in(span, records).map(|(_, i)| i.field_hash(f.field)))
            }),
            None => &[],
        };
        let mut hashes = column.iter();
        live_in(span, records).filter(move |(k, _)| {
            // Advance on every candidate: the column is positional.
            let hash = hashes.next().copied().flatten();
            keep(k) && filter.as_ref().is_none_or(|f| f.keeps(hash))
        })
    }

    /// Moves the live records outside `span` out of the store (P-Grid's
    /// path-split hand-off) and returns them in key order; tombstones
    /// outside `span` are dropped, tombstones inside it stay.
    pub fn split_off_outside(&mut self, (lo, hi): Span<K>) -> Vec<(K, u64, I)> {
        let mut inside = self.records.split_off(&lo);
        let above = match hi.succ() {
            Some(next) => inside.split_off(&next),
            None => BTreeMap::new(),
        };
        let below = std::mem::replace(&mut self.records, inside);
        let moved: Vec<_> = below
            .into_iter()
            .chain(above)
            .filter_map(|(k, (v, item))| item.map(|i| (k, v, i)))
            .collect();
        self.live -= moved.len();
        self.hash_columns.invalidate();
        self.summaries.invalidate();
        moved
    }

    /// Live records. O(1).
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live record is stored; tombstones do not count.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The repair summary of `span` and the records folded to compute
    /// it: none when the memo holds the span.
    pub(crate) fn summary(&mut self, span: Span<K>) -> (Summary, u64) {
        if let Some(known) = self.summaries.get(&span) {
            return (known, 0);
        }
        let summary = Summary::of(self.records(span).map(|(k, v, _)| (k, v)));
        self.summaries.put(span, summary);
        (summary, summary.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repair::{diff_newer, RepairMsg, ReplicaRepair, MEMO_SPANS};
    use proptest::prelude::*;
    use unistore_util::fxhash::mix64;
    use unistore_util::item::testing::{field_hashes_during, Tagged};
    use unistore_util::BloomFilter;

    /// P-Grid's record key shape, `(key, ident)`.
    type Pair = (u64, u64);
    /// Chord's, `(ring position, key, ident)`.
    type Triple = (u64, u64, u64);

    const ALL: Span<Pair> = ((0, 0), (u64::MAX, u64::MAX));
    const ALL3: Span<Triple> = ((0, 0, 0), (u64::MAX, u64::MAX, u64::MAX));

    /// Every identity under the keys `[lo, hi]`.
    fn keys(lo: u64, hi: u64) -> Span<Pair> {
        ((lo, 0), (hi, u64::MAX))
    }

    fn item(id: u64, tag: u64) -> Option<Tagged> {
        Some(Tagged { id, tag })
    }

    /// A filter on `field` accepting the hashes of `accepted` (as tags
    /// and as ids, so both fields have survivors and casualties).
    fn filter_on(field: u8, accepted: &[u64]) -> Option<ItemFilter> {
        let bloom = BloomFilter::from_hashes(accepted.iter().map(|&a| mix64(a)), 0.01);
        Some(ItemFilter { field, bloom })
    }

    fn owned<'a, K>(records: impl Iterator<Item = (K, &'a Tagged)>) -> Vec<(K, Tagged)> {
        records.map(|(k, i)| (k, *i)).collect()
    }

    /// Runs generated `(op, key, ident, version)` rows against a store
    /// under `key_of(key, ident)`. After every mutation the live count
    /// matches the records; at every scan op, the memoized scan of a
    /// span drawn from `spans` — with and without the record-key
    /// predicate `keep(record, version)` — is the unmemoized read of the
    /// same span, order included.
    fn scans_match_reads<K: RecordKey>(
        rows: &[(u8, u64, u64, u64)],
        accepted: &[u64],
        key_of: impl Fn(u64, u64) -> K,
        keep: impl Fn(&K, u64) -> bool,
        all: Span<K>,
        spans: &[Span<K>],
    ) {
        let mut s: VersionedStore<K, Tagged> = VersionedStore::new();
        for &(op, key, id, version) in rows {
            let span = spans[(key % spans.len() as u64) as usize];
            match op {
                // Inserts, stale writes, in-place updates, un-deletes.
                0..=3 => {
                    s.apply(key_of(key, id), version, item(id, key ^ version));
                }
                4 => {
                    s.remove(key_of(key, id), version);
                }
                // A hand-off; an inverted span moves everything out.
                5 if version == 0 => {
                    s.split_off_outside(span);
                }
                _ => {
                    let field = (id % 3) as u8;
                    // Twice: the second scan probes the column the
                    // first one built, with a different filter.
                    for f in [filter_on(field, accepted), filter_on(field, &[version, id])] {
                        let want = owned(s.read(span, &f).filter(|(k, _)| keep(k, version)));
                        prop_assert_eq!(owned(s.scan(span, &f, |k| keep(k, version))), want);
                        let want = owned(s.read(span, &f));
                        prop_assert_eq!(owned(s.scan(span, &f, |_| true)), want);
                    }
                    let want = owned(s.read(span, &None));
                    prop_assert_eq!(owned(s.scan(span, &None, |_| true)), want);
                }
            }
            let live = s.records(all).filter(|(_, _, i)| i.is_some()).count();
            prop_assert_eq!(s.len(), live);
            prop_assert_eq!(s.is_empty(), live == 0);
        }
    }

    proptest! {
        /// One property for both key shapes: whatever applies, removes,
        /// un-deletes and splits run in between, a memoized filtered
        /// scan — over a leaf interval, a ring position, or the whole
        /// store under a broadcast-style predicate, inverted spans
        /// included — is the unmemoized filtered read.
        #[test]
        fn prop_filtered_scans_match_unmemoized_filter(
            rows in proptest::collection::vec((0u8..12, 0u64..16, 0u64..6, 0u64..4), 1..120),
            accepted in proptest::collection::vec(0u64..6, 0..4),
        ) {
            // More `(span, field)` pairs than the memo holds columns.
            let leaf = [keys(0, 15), keys(0, 7), keys(4, 11), keys(8, 15), keys(5, 5), keys(12, 3)];
            scans_match_reads(&rows, &accepted, |k, id| (k, id), |&(k, _), v| k % 3 != v, ALL, &leaf);
            let ring = |rk, lo, hi| ((rk, lo, 0), (rk, hi, u64::MAX));
            let rings = [ring(0, 0, 15), ring(1, 3, 9), ring(1, 5, 5), ring(0, 12, 3), ALL3];
            // Chord's broadcast predicate: an original-key interval and
            // the ring positions the node serves.
            let serves = |&(rk, k, _): &Triple, v| (3..=12).contains(&k) && rk != v % 2;
            scans_match_reads(&rows, &accepted, |k, id| (k % 2, k, id), serves, ALL3, &rings);
        }
    }

    #[test]
    fn any_write_invalidates_every_memoized_scan() {
        let mut s: VersionedStore<Pair, Tagged> = VersionedStore::new();
        for k in 0..8u64 {
            s.apply((k, k), 0, item(k, k));
        }
        let f = filter_on(0, &[1, 2]);
        let expected = vec![((1, 1), Tagged { id: 1, tag: 1 }), ((2, 2), Tagged { id: 2, tag: 2 })];
        let scan = |s: &mut VersionedStore<Pair, Tagged>, span| {
            field_hashes_during(|| assert_eq!(owned(s.scan(span, &f, |_| true)), expected))
        };
        assert_eq!(scan(&mut s, keys(0, 3)), 4);
        assert_eq!(scan(&mut s, keys(0, 3)), 0, "the column is memoized");
        // The rule is per store: a write far outside [0, 3] still makes
        // the column stale; a rejected write changes nothing and does
        // not.
        assert!(!s.apply((7, 7), 0, item(7, 7)));
        assert_eq!(scan(&mut s, keys(0, 3)), 0);
        assert!(s.apply((7, 70), 0, item(70, 7)));
        assert_eq!(scan(&mut s, keys(0, 3)), 4);
        // An inverted span is empty, memoized or not.
        assert_eq!(s.scan(keys(6, 2), &f, |_| true).count(), 0);
        assert_eq!(s.scan(keys(6, 2), &f, |_| true).count(), 0);
        // Exact-key reads and unfiltered scans never touch the memo: the
        // unfiltered ones hash nothing, a filtered read hashes its two
        // candidates afresh every time, and the column stays current.
        let untouched = field_hashes_during(|| {
            assert_eq!(s.scan(keys(0, 7), &None, |_| true).count(), 9);
            assert_eq!(s.read(keys(7, 7), &None).count(), 2);
        });
        assert_eq!(untouched, 0);
        for _ in 0..2 {
            assert_eq!(field_hashes_during(|| s.read(keys(7, 7), &f).for_each(drop)), 2);
        }
        assert_eq!(scan(&mut s, keys(0, 3)), 0);
    }

    #[test]
    fn newer_version_supersedes_older_is_rejected() {
        let mut s: VersionedStore<Pair, Tagged> = VersionedStore::new();
        assert!(s.apply((5, 1), 1, item(1, 100)));
        assert!(!s.apply((5, 1), 0, item(1, 50)), "older version is rejected");
        assert!(!s.apply((5, 1), 1, item(1, 60)), "so is an equal one");
        assert_eq!(owned(s.read(keys(5, 5), &None)), vec![((5, 1), Tagged { id: 1, tag: 100 })]);
        assert!(s.apply((5, 1), 2, item(1, 200)), "a newer version replaces");
        assert_eq!(owned(s.read(keys(5, 5), &None)), vec![((5, 1), Tagged { id: 1, tag: 200 })]);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn duplicate_ident_overwrites() {
        let mut s: VersionedStore<Triple, Tagged> = VersionedStore::new();
        assert!(s.apply((1, 10, 7), 0, item(7, 0)));
        assert!(!s.apply((1, 10, 7), 0, item(7, 1)), "same version is rejected");
        assert!(s.apply((1, 10, 7), 1, item(7, 1)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn remove_spares_newer_versions() {
        let mut s: VersionedStore<Triple, Tagged> = VersionedStore::new();
        s.apply((1, 10, 7), 5, item(7, 0));
        assert!(!s.remove((1, 10, 7), 3), "delete at v3 must not kill the v5 entry");
        assert_eq!(s.len(), 1);
        assert!(!s.remove((1, 10, 7), 5), "equal version loses, entry stays live");
        assert_eq!(s.record((1, 10, 7)), Some((5, Some(&Tagged { id: 7, tag: 0 }))));
        assert!(s.remove((1, 10, 7), 6), "a newer delete shadows it");
        assert!(s.is_empty());
    }

    #[test]
    fn tombstone_blocks_stale_reinsert() {
        let mut s: VersionedStore<Triple, Tagged> = VersionedStore::new();
        s.apply((1, 10, 7), 0, item(7, 0));
        assert!(s.remove((1, 10, 7), 2));
        assert!(s.is_empty());
        assert!(!s.apply((1, 10, 7), 0, item(7, 0)), "stale write loses to the tombstone");
        assert!(!s.apply((1, 10, 7), 2, item(7, 0)), "equal version loses too");
        assert!(s.is_empty());
        assert!(s.apply((1, 10, 7), 3, item(7, 0)), "a genuinely newer write un-deletes");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn tombstone_over_nothing_still_blocks() {
        let mut s: VersionedStore<Triple, Tagged> = VersionedStore::new();
        assert!(!s.remove((1, 10, 7), 2), "nothing live to shadow");
        assert!(!s.apply((1, 10, 7), 1, item(7, 0)), "late stale write stays dead");
        assert!(s.is_empty());
        assert_eq!(s.record((1, 10, 7)), Some((2, None)));
    }

    #[test]
    fn empty_store_reports_empty() {
        let s: VersionedStore<Triple, Tagged> = VersionedStore::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.records(ALL3).count(), 0);
        assert_eq!(s.read(ALL3, &None).count(), 0);
    }

    #[test]
    fn len_tracks_every_transition() {
        let mut s: VersionedStore<Pair, Tagged> = VersionedStore::new();
        let check = |s: &VersionedStore<Pair, Tagged>, live: usize| {
            assert_eq!(s.len(), live);
            assert_eq!(s.is_empty(), live == 0, "one meaning: live entries");
        };
        check(&s, 0);
        s.apply((1, 1), 0, item(1, 1));
        s.apply((2, 2), 0, item(2, 2));
        check(&s, 2);
        assert!(!s.apply((1, 1), 0, item(1, 1)), "stale write: no change");
        check(&s, 2);
        s.remove((1, 1), 1);
        check(&s, 1);
        s.remove((1, 1), 2);
        check(&s, 1);
        assert!(s.apply((1, 1), 3, item(1, 1)), "un-delete with a newer version");
        check(&s, 2);
        assert!(s.apply((2, 2), 5, item(2, 9)), "in-place replace of a live entry");
        check(&s, 2);
        s.remove((7, 7), 1);
        check(&s, 2);
        // Only tombstones left: nothing live, so empty.
        s.remove((1, 1), 4);
        s.remove((2, 2), 6);
        check(&s, 0);
        assert_eq!(s.records(ALL).count(), 3);
    }

    #[test]
    fn digest_and_newer_than() {
        let mut a: VersionedStore<Triple, Tagged> = VersionedStore::new();
        let mut b: VersionedStore<Triple, Tagged> = VersionedStore::new();
        a.apply((1, 10, 1), 1, item(1, 0));
        a.apply((2, 20, 2), 1, item(2, 0));
        a.remove((3, 30, 3), 2);
        b.apply((1, 10, 1), 1, item(1, 0));
        let run = |s: &VersionedStore<Triple, Tagged>| -> Vec<(Triple, u64)> {
            s.records(ALL3).map(|(k, v, _)| (k, v)).collect()
        };
        // b lacks the record under ring position 2 and the tombstone:
        // both must travel.
        let missing = diff_newer(a.records(ALL3), &run(&b));
        assert_eq!(missing, vec![((2, 20, 2), 1, item(2, 0)), ((3, 30, 3), 2, None)]);
        // a has everything b has → nothing to ship the other way.
        assert!(diff_newer(b.records(ALL3), &run(&a)).is_empty());
        // A ring-position span sees only its own records.
        assert_eq!(a.records(((2, 0, 0), (2, u64::MAX, u64::MAX))).count(), 1);
    }

    #[test]
    fn digest_carries_tombstones() {
        let mut a: VersionedStore<Triple, Tagged> = VersionedStore::new();
        a.apply((1, 10, 7), 0, item(7, 0));
        a.remove((1, 10, 7), 2);
        let missing = diff_newer(a.records(ALL3), &[]);
        assert_eq!(missing, vec![((1, 10, 7), 2, None)], "the tombstone travels at its version");
    }

    /// Strictly-newer resolves nothing between a live entry and a
    /// tombstone of EQUAL version, so the summary must not see the
    /// difference either: a hash over the tombstone bit would re-descend
    /// into this record on every tick and ship nothing each time.
    #[test]
    fn equal_version_conflict_is_outside_the_summary() {
        let mut live: VersionedStore<Pair, Tagged> = VersionedStore::new();
        let mut dead: VersionedStore<Pair, Tagged> = VersionedStore::new();
        live.apply((5, 5), 3, item(5, 5));
        dead.remove((5, 5), 3);
        assert!(!live.apply((5, 5), 3, None), "the tombstone cannot win the tie");
        assert!(!live.remove((5, 5), 3), "not as a delete either");
        assert!(!dead.apply((5, 5), 3, item(5, 5)), "nor can the live entry");
        let mut repair = ReplicaRepair::default();
        let probe = repair.probe(&mut live, ALL);
        assert!(repair.handle(&mut dead, &[ALL], probe).is_empty(), "in sync: silence");
        let probe = repair.probe(&mut dead, ALL);
        assert!(repair.handle(&mut live, &[ALL], probe).is_empty());
        // Any applied write moves the memoized summary.
        let before = repair.probe(&mut live, ALL);
        live.apply((5, 5), 4, item(5, 5));
        assert_ne!(repair.probe(&mut live, ALL), before);
    }

    /// What a fresh fold over the store's records in `span` gives.
    fn folded<K: RecordKey>(s: &VersionedStore<K, Tagged>, span: Span<K>) -> Summary {
        Summary::of(s.records(span).map(|(k, v, _)| (k, v)))
    }

    /// Runs generated `(op, key, ident, version)` rows against a store
    /// under `key_of(key, ident)`, asking for the summaries of `spans` —
    /// more than the memo holds — in between. After every row, each span
    /// the memo still holds maps to the fresh fold of its records, and a
    /// summary the memo answered folded nothing.
    fn summaries_match_folds<K: RecordKey>(
        rows: &[(u8, u64, u64, u64)],
        key_of: impl Fn(u64, u64) -> K,
        spans: &[Span<K>],
    ) {
        assert!(spans.len() > MEMO_SPANS);
        let mut s: VersionedStore<K, Tagged> = VersionedStore::new();
        for &(op, key, id, version) in rows {
            let span = spans[(id + key) as usize % spans.len()];
            match op {
                // Inserts, stale and equal-version rejects, in-place
                // updates, un-deletes.
                0..=3 => {
                    s.apply(key_of(key, id), version, item(id, key ^ version));
                }
                4 => {
                    s.remove(key_of(key, id), version);
                }
                5 if version == 0 => {
                    s.split_off_outside(span);
                }
                _ => {
                    let memoized = s.summaries.get(&span);
                    let (summary, folds) = s.summary(span);
                    prop_assert_eq!(summary, folded(&s, span));
                    prop_assert_eq!(folds, if memoized.is_some() { 0 } else { summary.count });
                }
            }
            for &span in spans {
                if let Some(memoized) = s.summaries.get(&span) {
                    prop_assert_eq!(memoized, folded(&s, span), "span {:?}", span);
                }
            }
        }
    }

    proptest! {
        /// One property for both key shapes: whatever applies, removes,
        /// un-deletes, rejects and splits run between summary requests on
        /// overlapping spans (inverted ones included), a summary the
        /// writes kept current is the one a fresh fold computes.
        #[test]
        fn prop_maintained_summaries_match_fresh_folds(
            rows in proptest::collection::vec((0u8..12, 0u64..16, 0u64..6, 0u64..4), 1..160),
        ) {
            let leaf = [keys(0, 15), keys(0, 7), keys(4, 11), keys(8, 15), keys(5, 5), keys(12, 3)];
            summaries_match_folds(&rows, |k, id| (k, id), &leaf);
            let ring = |rk, lo, hi| ((rk, lo, 0), (rk, hi, u64::MAX));
            let rings =
                [ring(0, 0, 15), ring(1, 3, 9), ring(1, 5, 5), ring(0, 12, 3), ring(1, 0, 15), ALL3];
            summaries_match_folds(&rows, |k, id| (k % 2, k, id), &rings);
        }
    }

    #[test]
    fn a_probe_after_writes_folds_nothing() {
        let mut s: VersionedStore<Pair, Tagged> = VersionedStore::new();
        for k in 0..64u64 {
            s.apply((k, k), 0, item(k, k));
        }
        let span = keys(0, 31);
        let mut repair = ReplicaRepair::default();
        let mut probe = |s: &mut VersionedStore<Pair, Tagged>| {
            let before = repair.stats().folded_records;
            let msg = repair.probe(s, span);
            (msg, repair.stats().folded_records - before)
        };
        assert_eq!(probe(&mut s).1, 32, "the first probe folds the span once");
        // Writes into the span: a new record, an update, a tombstone, an
        // un-delete, a tombstone over nothing; then a rejected write and
        // one outside the span.
        assert!(s.apply((3, 100), 0, item(100, 3)));
        assert!(s.apply((4, 4), 1, item(4, 40)));
        assert!(s.remove((5, 5), 1));
        assert!(s.apply((5, 5), 2, item(5, 50)));
        assert!(!s.remove((6, 60), 1));
        assert!(!s.apply((7, 7), 0, item(7, 70)));
        assert!(s.apply((40, 40), 1, item(40, 0)));
        let (msg, folds) = probe(&mut s);
        assert_eq!(folds, 0, "a probe after writes into a memoized span folds nothing");
        assert_eq!(msg, RepairMsg::Probe { span, summary: folded(&s, span) });
        // A hand-off clears the memo: the next probe folds what is left.
        s.split_off_outside(keys(0, 15));
        assert_eq!(probe(&mut s).1, 18);
    }
}
