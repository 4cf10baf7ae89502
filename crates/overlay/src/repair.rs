//! Backend-agnostic hash-tree replica repair.
//!
//! Both backends keep replicas loosely consistent with the hybrid
//! push/pull scheme of the paper's ref \[4\] (Datta et al.): writes are
//! pushed, and whatever a push missed is repaired by periodic
//! anti-entropy. The pull half lives here, once: [`ReplicaRepair`]
//! compares **range hashes** and ships only what diverged.
//!
//! A range's [`Summary`] is its record count plus an order-independent
//! fold (XOR) of one hash per `(record key, version)`. A tick sends the
//! partner one [`RepairMsg::Probe`], span and summary (65 B on Chord), or
//! the summary alone on a message the backend sends anyway (P-Grid's table
//! request names its leaf); an in-sync partner stays silent. On a mismatch
//! the two sides take turns *describing* the spans they disagree on
//! ([`RepairMsg::Descend`]): a side holding more than [`LEAF_MAX`] records
//! in a span splits it into [`FANOUT`] sub-ranges of equal record share
//! and sends their summaries, the other side answers only for the
//! sub-ranges whose summaries differ from its own; a side holding at most
//! [`LEAF_MAX`] sends the `(record key, version)` run itself, which the
//! other side settles through [`diff_newer`] — shipping what the run lacks
//! and asking back for what the run shows newer ([`RepairMsg::Records`]).
//! Round trips are O(log n), bytes are proportional to the divergence, and
//! because the leaf step is push-pull the two summaries are equal after a
//! completed exchange.
//!
//! The tombstone bit is deliberately **not** hashed: the store applies
//! a record only when its version is strictly newer, so a live entry
//! and a tombstone of equal version can never overwrite each other —
//! hashing the bit would send every tick down the tree to a leaf that
//! ships nothing. The hash covers exactly what the version rule can
//! reconcile.
//!
//! The exchange is stateless on both sides: every message carries the
//! spans it talks about, replies chain off the message that caused
//! them, and a lost message just ends the round — the next tick starts
//! over from the root. Both backends repair the one
//! [`VersionedStore`], so everything here is generic over its record
//! key: `(key, ident)` for P-Grid's trie leaves, `(ring position, key,
//! ident)` for Chord's ring.

pub mod msg;

use std::fmt::Debug;
use std::hash::Hash;

use unistore_util::fxhash::mix64;
use unistore_util::item::Item;
use unistore_util::wire::Wire;
use unistore_util::FxHashMap;

use crate::records::RecordList;
use crate::store::VersionedStore;

pub use msg::{Child, Part, RepairMsg};

/// Sub-ranges per split.
pub const FANOUT: usize = 16;

/// A span holding at most this many records is described by the run of
/// its `(record key, version)` pairs instead of a further split.
pub const LEAF_MAX: usize = 32;

// `describe` hands every child of a split a non-empty share.
const _: () = assert!(LEAF_MAX >= FANOUT);

/// Root summaries memoized per store (a Chord node probes up to two
/// spans and is probed on up to two).
pub(crate) const MEMO_SPANS: usize = 4;

/// An inclusive range of record keys, `lo <= hi`.
pub type Span<K> = (K, K);

/// The ordered record key of a versioned store: a tuple of `u64`
/// components, most significant first, whose last component is the
/// identity ([`Item::ident`]) of the record's item. The record-list
/// codec ([`crate::records`]) front-codes keys component by component
/// and takes a live record's identity from its item.
pub trait RecordKey: Copy + Ord + Hash + Debug + Wire {
    /// Number of components.
    const ARITY: usize;

    /// The smallest key: every component zero.
    const MIN: Self;

    /// Component `i`; zero past the arity.
    fn part(&self, i: usize) -> u64;

    /// This key with component `i` replaced by `v`; unchanged past the
    /// arity.
    fn with_part(self, i: usize, v: u64) -> Self;

    /// This record's term in a range hash: a mix of every key component
    /// and the version.
    fn mix(&self, version: u64) -> u64;

    /// The next key in order, `None` at the maximum.
    fn succ(&self) -> Option<Self>;
}

impl RecordKey for (u64, u64) {
    const ARITY: usize = 2;
    const MIN: Self = (0, 0);

    fn part(&self, i: usize) -> u64 {
        match i {
            0 => self.0,
            1 => self.1,
            _ => 0,
        }
    }

    fn with_part(self, i: usize, v: u64) -> Self {
        match i {
            0 => (v, self.1),
            1 => (self.0, v),
            _ => self,
        }
    }

    fn mix(&self, version: u64) -> u64 {
        mix64(self.0 ^ mix64(self.1 ^ mix64(version)))
    }

    fn succ(&self) -> Option<Self> {
        match self.1.checked_add(1) {
            Some(b) => Some((self.0, b)),
            None => self.0.checked_add(1).map(|a| (a, 0)),
        }
    }
}

impl RecordKey for (u64, u64, u64) {
    const ARITY: usize = 3;
    const MIN: Self = (0, 0, 0);

    fn part(&self, i: usize) -> u64 {
        match i {
            0 => self.0,
            1 => self.1,
            2 => self.2,
            _ => 0,
        }
    }

    fn with_part(self, i: usize, v: u64) -> Self {
        match i {
            0 => (v, self.1, self.2),
            1 => (self.0, v, self.2),
            2 => (self.0, self.1, v),
            _ => self,
        }
    }

    fn mix(&self, version: u64) -> u64 {
        mix64(self.0 ^ (self.1, self.2).mix(version))
    }

    fn succ(&self) -> Option<Self> {
        match (self.1, self.2).succ() {
            Some((b, c)) => Some((self.0, b, c)),
            None => self.0.checked_add(1).map(|a| (a, 0, 0)),
        }
    }
}

/// What two replicas compare: how many records a span holds and the
/// XOR of their [`RecordKey::mix`] terms.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Summary {
    /// Records in the span, tombstones included.
    pub count: u64,
    /// XOR over the records' hash terms.
    pub hash: u64,
}

impl Summary {
    /// Folds one record in.
    pub fn add<K: RecordKey>(&mut self, key: &K, version: u64) {
        self.count += 1;
        self.hash ^= key.mix(version);
    }

    pub(crate) fn of<K: RecordKey>(records: impl Iterator<Item = (K, u64)>) -> Self {
        let mut s = Summary::default();
        for (k, v) in records {
            s.add(&k, v);
        }
        s
    }
}

/// Root summaries a store has already computed, so a tick (or a probe)
/// does not rescan a span. Writes keep them current
/// ([`SummaryMemo::update`]): XOR over the same `(key, version)` set is
/// the same whether folded afresh or maintained. Only a path-split
/// hand-off, which moves whole ranges out, clears the memo.
#[derive(Clone, Debug)]
pub(crate) struct SummaryMemo<K> {
    roots: Vec<(Span<K>, Summary)>,
}

impl<K> Default for SummaryMemo<K> {
    fn default() -> Self {
        SummaryMemo { roots: Vec::new() }
    }
}

impl<K: PartialEq> SummaryMemo<K> {
    /// Forgets everything.
    #[inline]
    pub(crate) fn invalidate(&mut self) {
        self.roots.clear();
    }

    pub(crate) fn get(&self, span: &Span<K>) -> Option<Summary> {
        self.roots.iter().find(|(s, _)| s == span).map(|&(_, sum)| sum)
    }

    pub(crate) fn put(&mut self, span: Span<K>, summary: Summary) {
        if self.roots.len() == MEMO_SPANS {
            self.roots.remove(0);
        }
        self.roots.push((span, summary));
    }
}

impl<K: RecordKey> SummaryMemo<K> {
    /// Folds an applied write into every memoized span holding `key`:
    /// the record at version `new` replaced the one at `old`, or was
    /// new to the store (`None`; a tombstone over nothing included).
    pub(crate) fn update(&mut self, key: K, old: Option<u64>, new: u64) {
        for (_, summary) in self.roots.iter_mut().filter(|((lo, hi), _)| *lo <= key && key <= *hi) {
            match old {
                Some(old) => summary.hash ^= key.mix(old) ^ key.mix(new),
                None => summary.add(&key, new),
            }
        }
    }
}

/// Records strictly newer than what `theirs` reports (or absent from
/// it): what the leaf step ships. `mine` iterates this store's records
/// as `(record key, version, payload)`; tombstones travel too — deletes
/// must propagate, or revived replicas would resurrect deleted data.
pub fn diff_newer<'a, K, I>(
    mine: impl Iterator<Item = (K, u64, Option<&'a I>)>,
    theirs: &[(K, u64)],
) -> Vec<(K, u64, Option<I>)>
where
    K: Eq + Hash + Copy,
    I: Clone + 'a,
{
    let known: FxHashMap<K, u64> = theirs.iter().copied().collect();
    mine.filter(|(k, v, _)| known.get(k).is_none_or(|have| *v > *have))
        .map(|(k, v, i)| (k, v, i.cloned()))
        .collect()
}

/// Bytes a node's repair plane has sent, by message kind (each as
/// [`RepairMsg::wire_size`], envelope tags excluded), and the records it
/// folded into root summaries. Deterministic; the scale campaign's
/// `repair_kib` and `repair_folds` columns read it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Root probes (or bare root summaries), one per tick and shared span.
    pub probe_bytes: u64,
    /// Splits and runs exchanged on the way down.
    pub descent_bytes: u64,
    /// Shipped records and want-lists.
    pub payload_bytes: u64,
    /// Records folded into a root summary the store had not memoized,
    /// for a probe sent or answered: the CPU side of a tick.
    pub folded_records: u64,
}

impl RepairStats {
    /// All repair-plane bytes.
    pub fn total(&self) -> u64 {
        self.probe_bytes + self.descent_bytes + self.payload_bytes
    }
}

/// The one anti-entropy implementation. A backend decides only *whom*
/// to repair with and *which span* it shares with that partner, then
/// forwards what [`ReplicaRepair::probe`] (or [`ReplicaRepair::summary`])
/// and [`ReplicaRepair::handle`] return; it holds only counters.
#[derive(Clone, Debug, Default)]
pub struct ReplicaRepair {
    stats: RepairStats,
}

impl ReplicaRepair {
    /// Bytes sent so far.
    pub fn stats(&self) -> RepairStats {
        self.stats
    }

    /// An anti-entropy tick: the probe to send to the partner this
    /// store shares `span` with.
    pub fn probe<K: RecordKey, I: Item>(
        &mut self,
        store: &mut VersionedStore<K, I>,
        span: Span<K>,
    ) -> RepairMsg<K, I> {
        let msg = RepairMsg::Probe { span, summary: self.root_summary(store, span) };
        self.count(&msg);
        msg
    }

    /// The root summary of `span`, for a backend to carry on a message
    /// it sends anyway: a probe without the span, counted as one.
    pub fn summary<K: RecordKey, I: Item>(
        &mut self,
        store: &mut VersionedStore<K, I>,
        span: Span<K>,
    ) -> Summary {
        let summary = self.root_summary(store, span);
        self.stats.probe_bytes += summary.wire_size() as u64;
        summary
    }

    /// The store's summary of a root span, counting the records folded
    /// when the store had not memoized it.
    fn root_summary<K: RecordKey, I: Item>(
        &mut self,
        store: &mut VersionedStore<K, I>,
        span: Span<K>,
    ) -> Summary {
        let (summary, folded) = store.summary(span);
        self.stats.folded_records += folded;
        summary
    }

    /// Handles a partner's message and returns the replies to send
    /// back (at most one `Descend` and one `Records`). `shared` lists
    /// the spans this store shares with the sender: anything outside
    /// them is ignored, so a partner can neither read nor write records
    /// it does not replicate.
    pub fn handle<K: RecordKey, I: Item>(
        &mut self,
        store: &mut VersionedStore<K, I>,
        shared: &[Span<K>],
        msg: RepairMsg<K, I>,
    ) -> Vec<RepairMsg<K, I>> {
        let mut replies = Vec::new();
        if !msg.well_formed() {
            return replies;
        }
        let admits = |span: &Span<K>| shared.iter().any(|s| s.0 <= span.0 && span.1 <= s.1);
        match msg {
            RepairMsg::Probe { span, summary } => {
                if admits(&span) && self.root_summary(store, span) != summary {
                    let part = describe(span, &run_of(store, span));
                    replies.push(RepairMsg::Descend { parts: vec![part] });
                }
            }
            RepairMsg::Descend { parts } => {
                let (mut differing, mut entries, mut want) = (Vec::new(), Vec::new(), Vec::new());
                for part in parts.iter().filter(|p| admits(&p.span())) {
                    match part {
                        Part::Split { span, children } => {
                            // One scan of the span serves every child:
                            // its summary here and, where that differs,
                            // this side's description of it.
                            let run = run_of(store, *span);
                            let (mut rest, mut lo) = (run.as_slice(), Some(span.0));
                            for child in children {
                                let Some(from) = lo else { break };
                                let (mine, after) =
                                    rest.split_at(rest.partition_point(|&(k, _)| k <= child.hi));
                                if Summary::of(mine.iter().copied()) != child.summary {
                                    differing.push(describe((from, child.hi), mine));
                                }
                                (rest, lo) = (after, child.hi.succ());
                            }
                        }
                        Part::Run { span, entries: theirs } => {
                            entries.extend(diff_newer(store.records(*span), theirs));
                            want.extend(
                                theirs
                                    .iter()
                                    .filter(|&&(k, v)| store.record(k).is_none_or(|(m, _)| v > m))
                                    .map(|&(k, _)| k),
                            );
                        }
                    }
                }
                if !differing.is_empty() {
                    replies.push(RepairMsg::Descend { parts: differing });
                }
                if !entries.is_empty() || !want.is_empty() {
                    // Parts may arrive in any order: the lists travel
                    // sorted, each key once.
                    want.sort_unstable();
                    want.dedup();
                    let entries = RecordList::from_records(entries);
                    replies.push(RepairMsg::Records { entries, want });
                }
            }
            RepairMsg::Records { entries, want } => {
                for (key, version, item) in entries {
                    if admits(&(key, key)) {
                        store.apply(key, version, item);
                    }
                }
                let entries: RecordList<K, I> = want
                    .into_iter()
                    .filter(|k| admits(&(*k, *k)))
                    .filter_map(|k| store.record(k).map(|(v, item)| (k, v, item.cloned())))
                    .collect();
                if !entries.is_empty() {
                    replies.push(RepairMsg::Records { entries, want: Vec::new() });
                }
            }
        }
        for reply in &replies {
            self.count(reply);
        }
        replies
    }

    fn count<K: RecordKey, I: Item>(&mut self, msg: &RepairMsg<K, I>) {
        let bytes = msg.wire_size() as u64;
        match msg {
            RepairMsg::Probe { .. } => self.stats.probe_bytes += bytes,
            RepairMsg::Descend { .. } => self.stats.descent_bytes += bytes,
            RepairMsg::Records { .. } => self.stats.payload_bytes += bytes,
        }
    }
}

/// The `(record key, version)` pairs a store holds in `span`, ascending.
fn run_of<K: RecordKey, I: Item>(store: &VersionedStore<K, I>, span: Span<K>) -> Vec<(K, u64)> {
    store.records(span).map(|(k, v, _)| (k, v)).collect()
}

/// One side's description of a span the two replicas disagree on, from
/// the `run` it holds there: the run itself when it is short, else
/// [`FANOUT`] equal-share sub-ranges.
fn describe<K: RecordKey>(span: Span<K>, run: &[(K, u64)]) -> Part<K> {
    let n = run.len();
    if n <= LEAF_MAX {
        return Part::Run { span, entries: run.to_vec() };
    }
    // n > LEAF_MAX >= FANOUT: every share is non-empty, so the upper
    // bounds ascend strictly; the last share is stretched to the span's
    // end so the children tile it.
    let children = (0..FANOUT)
        .map(|i| {
            let share = run.get(i * n / FANOUT..(i + 1) * n / FANOUT).unwrap_or_default();
            let hi = match share.last() {
                Some(&(k, _)) if i + 1 < FANOUT => k,
                _ => span.1,
            };
            Child { hi, summary: Summary::of(share.iter().copied()) }
        })
        .collect();
    Part::Split { span, children }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records() -> Vec<(u64, u64, Option<&'static u32>)> {
        vec![(1, 3, Some(&10)), (2, 1, None), (3, 5, Some(&30))]
    }

    #[test]
    fn absent_and_stale_records_travel() {
        // Partner knows key 1 at the same version, key 3 at an older one,
        // and nothing about the key-2 tombstone.
        let out = diff_newer(records().into_iter(), &[(1, 3), (3, 4)]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], (2, 1, None), "tombstones propagate");
        assert_eq!(out[1], (3, 5, Some(30)));
    }

    #[test]
    fn up_to_date_partner_gets_nothing() {
        let out = diff_newer(records().into_iter(), &[(1, 3), (2, 1), (3, 5)]);
        assert!(out.is_empty());
    }

    #[test]
    fn equal_versions_do_not_travel() {
        // Strictly-newer rule: an equal version is not worth shipping.
        let out = diff_newer(records().into_iter(), &[(1, 3), (2, 1), (3, 5)]);
        assert!(out.is_empty());
        let out = diff_newer(records().into_iter(), &[]);
        assert_eq!(out.len(), 3, "empty run pulls everything");
    }

    #[test]
    fn succ_carries_across_components() {
        assert_eq!((1u64, 2u64).succ(), Some((1, 3)));
        assert_eq!((1u64, u64::MAX).succ(), Some((2, 0)));
        assert_eq!((u64::MAX, u64::MAX).succ(), None);
        assert_eq!((1u64, u64::MAX, u64::MAX).succ(), Some((2, 0, 0)));
        assert_eq!((1u64, 2u64, u64::MAX).succ(), Some((1, 3, 0)));
        assert_eq!((u64::MAX, u64::MAX, u64::MAX).succ(), None);
    }

    #[test]
    fn summary_is_order_independent_and_version_sensitive() {
        let recs = [((1u64, 9u64), 0u64), ((2, 8), 3), ((7, 7), 1)];
        let forward = Summary::of(recs.iter().copied());
        let backward = Summary::of(recs.iter().rev().copied());
        assert_eq!(forward, backward);
        let mut bumped = recs;
        bumped[1].1 = 4;
        assert_ne!(Summary::of(bumped.iter().copied()), forward);
        // Swapping key components is a different record.
        assert_ne!((1u64, 9u64).mix(0), (9u64, 1u64).mix(0));
    }

    #[test]
    fn memo_keeps_the_most_recent_spans() {
        let mut memo: SummaryMemo<u64> = SummaryMemo::default();
        for i in 0..=MEMO_SPANS as u64 {
            memo.put((i, i), Summary { count: i, hash: i });
        }
        assert_eq!(memo.get(&(0, 0)), None, "the oldest span made room");
        assert_eq!(memo.get(&(1, 1)), Some(Summary { count: 1, hash: 1 }));
        memo.invalidate();
        assert_eq!(memo.get(&(1, 1)), None);
    }

    /// Bounded-exhaustive check of the exchange over two stores, in the
    /// style of `batch`'s enumerator: every sequence of at most
    /// [`DEPTH`] events over two keys.
    mod exchange_sequences {
        use std::collections::VecDeque;

        use super::*;
        use unistore_util::item::testing::Tagged;

        type Key = (u64, u64);
        type Store = VersionedStore<Key, Tagged>;
        type Record = (Key, u64, Option<Tagged>);

        const ALL: Span<Key> = ((0, 0), (u64::MAX, u64::MAX));
        const KEYS: u64 = 2;
        /// Messages of the longest exchange over two keys: probe, run,
        /// records with a want-list, the records wanted.
        const MAX_MSGS: usize = 4;
        const DEPTH: usize = 5;

        #[derive(Clone, Copy, Debug, PartialEq)]
        enum Ev {
            /// A write on `side` at one version above what that side
            /// holds, as an independent writer there would make it.
            Write(usize, u64),
            /// A delete on `side`, versioned the same way.
            Delete(usize, u64),
            /// An exchange `side` starts, run to quiescence, its `n`-th
            /// message (in send order) lost when `Some(n)`.
            Exchange(usize, Option<usize>),
        }

        fn alphabet() -> Vec<Ev> {
            let mut evs = Vec::new();
            for side in 0..2 {
                for key in 0..KEYS {
                    evs.extend([Ev::Write(side, key), Ev::Delete(side, key)]);
                }
                evs.push(Ev::Exchange(side, None));
                evs.extend((0..MAX_MSGS).map(|n| Ev::Exchange(side, Some(n))));
            }
            evs
        }

        #[derive(Clone, Default)]
        struct Pair {
            stores: [Store; 2],
            repair: [ReplicaRepair; 2],
        }

        fn contents(store: &Store) -> Vec<Record> {
            store.records(ALL).map(|(k, v, item)| (k, v, item.copied())).collect()
        }

        fn versions(store: &Store) -> Vec<(Key, u64)> {
            store.records(ALL).map(|(k, v, _)| (k, v)).collect()
        }

        /// Runs `from`'s exchange with the other side; returns the
        /// messages sent.
        fn exchange(pair: &mut Pair, from: usize, lose: Option<usize>) -> usize {
            let probe = pair.repair[from].probe(&mut pair.stores[from], ALL);
            let (mut queue, mut sent) = (VecDeque::from([(1 - from, probe)]), 0);
            while let Some((to, msg)) = queue.pop_front() {
                sent += 1;
                if lose == Some(sent - 1) {
                    continue;
                }
                let replies = pair.repair[to].handle(&mut pair.stores[to], &[ALL], msg);
                queue.extend(replies.into_iter().map(|r| (1 - to, r)));
            }
            sent
        }

        /// Applies `ev`, checks the invariants, and returns whether it
        /// was a loss-free exchange that left the stores' contents apart
        /// (the equal-version live/tombstone conflict).
        fn step(pair: &mut Pair, ev: Ev) -> bool {
            let next = |s: &Store, key| s.record((key, 0)).map_or(1, |(v, _)| v + 1);
            match ev {
                Ev::Write(side, key) => {
                    let v = next(&pair.stores[side], key);
                    assert!(pair.stores[side].apply((key, 0), v, Some(Tagged { id: 0, tag: v })));
                    false
                }
                Ev::Delete(side, key) => {
                    let v = next(&pair.stores[side], key);
                    pair.stores[side].remove((key, 0), v);
                    false
                }
                Ev::Exchange(from, lose) => {
                    let before: Vec<Vec<Record>> = pair.stores.iter().map(contents).collect();
                    let sent = exchange(pair, from, lose);
                    assert!(sent <= MAX_MSGS, "{ev:?}: {sent} messages");
                    for store in &pair.stores {
                        for (k, v, item) in contents(store) {
                            let held = before.iter().flatten().any(|r| *r == (k, v, item));
                            assert!(held, "{ev:?}: fabricated {k:?} at {v}");
                        }
                    }
                    if lose.is_some_and(|n| n < sent) {
                        return false;
                    }
                    let [a, b] = &mut pair.stores;
                    assert_eq!(versions(a), versions(b), "{ev:?}: a completed exchange converges");
                    assert_eq!(a.summary(ALL).0, b.summary(ALL).0, "{ev:?}: and so do summaries");
                    contents(a) != contents(b)
                }
            }
        }

        /// Depth-first over every continuation up to `left` more events;
        /// returns the sequences walked and the divergent exchanges.
        fn walk(pair: &Pair, alphabet: &[Ev], left: usize) -> (u64, u64) {
            let (mut walked, mut divergent) = (1, 0);
            if left == 0 {
                return (walked, divergent);
            }
            for &ev in alphabet {
                let mut pair = pair.clone();
                divergent += step(&mut pair, ev) as u64;
                let (w, d) = walk(&pair, alphabet, left - 1);
                (walked, divergent) = (walked + w, divergent + d);
            }
            (walked, divergent)
        }

        /// Every loss-free exchange leaves both stores with the same
        /// `(record key, version)` set and root summary, and no exchange,
        /// lossy or not, makes up a record. The contents still differ
        /// after some: a live record and a tombstone of one version never
        /// reconcile (ROADMAP item 9), and the count below is that known
        /// failure, pinned until the fix turns it to zero.
        #[test]
        fn every_sequence_of_five_events_keeps_the_invariants() {
            let alphabet = alphabet();
            assert_eq!(alphabet.len(), 18);
            let (walked, divergent) = walk(&Pair::default(), &alphabet, DEPTH);
            assert_eq!(walked, (0..=DEPTH as u32).map(|l| 18u64.pow(l)).sum::<u64>());
            // 2 000 719 sequences; ≈ 12 s in a debug build.
            assert_eq!(divergent, 50_816, "loss-free exchanges that left a live/tombstone tie");
        }

        #[test]
        fn an_equal_version_live_record_and_tombstone_stay_apart() {
            let mut pair = Pair::default();
            for ev in [Ev::Write(0, 0), Ev::Delete(1, 0)] {
                assert!(!step(&mut pair, ev));
            }
            assert!(step(&mut pair, Ev::Exchange(0, None)), "both sides keep their own");
            assert!(step(&mut pair, Ev::Exchange(1, None)), "from either side");
            assert_eq!(pair.repair.map(|r| r.stats().descent_bytes), [0, 0], "equal summaries");
        }
    }
}
