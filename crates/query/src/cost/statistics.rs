//! The statistics snapshot: [`GlobalStats`] and its per-attribute
//! [`AttrStats`], bulk-built once and folded forward by write deltas.

use std::sync::{Arc, Mutex, PoisonError, Weak};

use unistore_store::index::attr_value_key;
use unistore_store::qgram;
use unistore_store::{Triple, Value};
use unistore_util::stats::Histogram;
use unistore_util::wire::{varint_size, Wire};
use unistore_util::FxHashMap;

use super::delta::{oid_ref, OidRef, StatsDelta, DELETED, INSERTED};
use super::estimator::{CostModel, NetParams, UNKNOWN_ATTR_SELECTIVITY};

/// Bumps a refcount by `n`.
fn bump<K: std::hash::Hash + Eq>(map: &mut FxHashMap<K, u32>, k: K, n: u32) {
    *map.entry(k).or_insert(0) += n;
}

/// Drops a refcount by `n`, removing the entry when it reaches zero.
/// Unknown keys are ignored and known ones stop at zero (saturating
/// semantics).
fn unbump<K: std::hash::Hash + Eq>(map: &mut FxHashMap<K, u32>, k: &K, n: u32) {
    if let Some(rc) = map.get_mut(k) {
        *rc = rc.saturating_sub(n);
        if *rc == 0 {
            map.remove(k);
        }
    }
}

/// Per-attribute statistics.
///
/// The `f64` fields are the numbers the cost formulas consume; the
/// private refcount maps are the support state that lets deltas keep
/// them *exact* under interleaved inserts and deletes (an incrementally
/// maintained snapshot is indistinguishable from a fresh
/// [`GlobalStats::build`] over the surviving triples — property-tested
/// below).
#[derive(Clone, Debug, PartialEq)]
pub struct AttrStats {
    /// Number of triples with this attribute.
    pub count: f64,
    /// Distinct values *in the order-preserving key space* — long
    /// strings collapse onto their encoded prefix. Drives range and
    /// lookup selectivity over keys.
    pub distinct: f64,
    /// Distinct values under semantic equality (`Value::semantic_hash`;
    /// no prefix collapse). Drives the semi-join selectivity, where
    /// membership is tested on full join keys, not key prefixes.
    pub join_distinct: f64,
    /// Histogram over A#v-index keys (range selectivity).
    pub hist: Histogram,
    /// Total q-gram postings (string values only): one per distinct
    /// gram of each distinct value, which is what the q-gram index
    /// stores however many objects carry the value.
    pub gram_postings: f64,
    /// Distinct q-grams.
    pub gram_distinct: f64,
    /// Live key-space values (refcounted; drives `distinct`).
    pub(super) values: FxHashMap<u64, u32>,
    /// Live semantic values (refcounted; drives `join_distinct`). A
    /// value's first triple posts its grams and its last unposts them.
    pub(super) join_values: FxHashMap<u64, u32>,
    /// Live q-grams, each counting the distinct values holding it
    /// (drives `gram_distinct`).
    pub(super) grams: FxHashMap<u32, u32>,
}

/// The distinct q-grams of `s`: one posting each.
fn posted_grams(s: &str) -> Vec<u32> {
    let mut gs = qgram::qgrams(s);
    gs.sort_unstable();
    gs.dedup();
    gs
}

impl AttrStats {
    /// Counts the postings of a value the attribute did not hold.
    fn add_postings(&mut self, s: &str) {
        let gs = posted_grams(s);
        self.gram_postings += gs.len() as f64;
        for g in gs {
            bump(&mut self.grams, g, 1);
        }
        self.gram_distinct = self.grams.len() as f64;
    }

    /// Uncounts the postings of a value the attribute no longer holds.
    /// The postings stay stored: nothing deletes a gram key, so these
    /// statistics count live values' postings, not stale ones.
    fn remove_postings(&mut self, s: &str) {
        let gs = posted_grams(s);
        self.gram_postings -= gs.len() as f64;
        for g in gs {
            unbump(&mut self.grams, &g, 1);
        }
        self.gram_distinct = self.grams.len() as f64;
    }

    /// Empty statistics for one attribute. The histogram spans exactly
    /// this attribute's slice of the key space, so its 256 buckets
    /// resolve value ranges *within* the attribute.
    fn empty(attr: &str) -> Self {
        let (lo, hi) = unistore_store::index::attr_range(attr);
        AttrStats {
            count: 0.0,
            distinct: 0.0,
            join_distinct: 0.0,
            hist: Histogram::new(lo, hi, 256),
            gram_postings: 0.0,
            gram_distinct: 0.0,
            values: FxHashMap::default(),
            join_values: FxHashMap::default(),
            grams: FxHashMap::default(),
        }
    }
}

/// Wire size of an OID of `len` bytes (a length-prefixed string).
fn oid_wire_size(len: u32) -> usize {
    varint_size(len as u64) + len as usize
}

/// Global statistics: what the paper's peers gossip. Bulk-built once
/// per load, then maintained incrementally: every routed write folds in
/// as an O(delta) [`GlobalStats::apply_delta`] instead of a rescan of
/// every triple (protocol described in DESIGN.md §"Statistics
/// distribution").
#[derive(Clone, Debug, PartialEq)]
pub struct GlobalStats {
    /// Total triples in the system.
    pub total: f64,
    /// Distinct OIDs.
    pub oid_distinct: f64,
    /// Distinct values across all attributes (v index).
    pub value_distinct: f64,
    /// Mean wire size of one triple, bytes.
    pub avg_triple_bytes: f64,
    /// Per-attribute statistics, each behind its own `Arc` so that
    /// copies of a snapshot share every attribute a fold leaves alone.
    pub attrs: FxHashMap<Arc<str>, Arc<AttrStats>>,
    /// Overlay parameters.
    pub net: NetParams,
    /// Running sum of triple wire sizes (drives `avg_triple_bytes`).
    bytes: f64,
    /// Live OID fingerprints (refcounted; drives `oid_distinct`, which
    /// counts two OIDs that share a fingerprint once).
    pub(super) oids: FxHashMap<u32, u32>,
    /// Live value key-bits (refcounted; drives `value_distinct`).
    pub(super) values: FxHashMap<u64, u32>,
}

impl GlobalStats {
    /// Statistics of an empty system.
    pub fn empty(net: NetParams) -> Self {
        GlobalStats {
            total: 0.0,
            oid_distinct: 0.0,
            value_distinct: 0.0,
            avg_triple_bytes: 16.0,
            attrs: FxHashMap::default(),
            net,
            bytes: 0.0,
            oids: FxHashMap::default(),
            values: FxHashMap::default(),
        }
    }

    /// Builds statistics from a triple sample (typically: everything the
    /// workload generator inserted). Equivalent to folding every triple
    /// into [`GlobalStats::empty`] with [`GlobalStats::apply_insert`] —
    /// which is exactly how it is implemented, so the bulk and
    /// incremental paths cannot drift apart.
    pub fn build<'a>(triples: impl IntoIterator<Item = &'a Triple>, net: NetParams) -> Self {
        let mut stats = GlobalStats::empty(net);
        for t in triples {
            stats.apply_insert(t);
        }
        stats
    }

    /// Folds one inserted triple into the snapshot — O(1) amortized.
    pub fn apply_insert(&mut self, t: &Triple) {
        self.fold_inserts(&t.attr, &t.value, std::iter::once(oid_ref(&t.oid)));
    }

    /// Folds one deleted triple out of the snapshot — the exact inverse
    /// of [`GlobalStats::apply_insert`]. Deletes of triples whose
    /// `(attr, value)` the snapshot never counted are ignored outright
    /// (the per-attr value refcounts are the authority), so a stray or
    /// duplicated delete cannot corrupt the totals; a delete of a known
    /// `(attr, value)` under an unknown OID still decrements the
    /// aggregates — indistinguishable at the statistics' granularity,
    /// and the OID refcount itself saturates.
    pub fn apply_delete(&mut self, t: &Triple) {
        self.fold_deletes(&t.attr, &t.value, std::iter::once(oid_ref(&t.oid)));
    }

    /// Folds a write batch into the snapshot, all inserts before all
    /// deletes — O(delta), and O(groups) in everything but the OID
    /// refcounts and the byte sum.
    pub fn apply_delta(&mut self, delta: &StatsDelta) {
        for g in &delta.groups[INSERTED] {
            self.fold_inserts(&g.attr, &g.value, delta.oids_of(g));
        }
        for g in &delta.groups[DELETED] {
            self.fold_deletes(&g.attr, &g.value, delta.oids_of(g));
        }
    }

    /// Folds in the triples `(oid, attr, value)` for every given OID:
    /// everything that depends on the pair alone is derived once and
    /// counted by the group's size; only the OID refcount and the byte
    /// sum are touched per triple. A single insert is a group of one.
    fn fold_inserts(
        &mut self,
        attr: &Arc<str>,
        value: &Value,
        oids: impl ExactSizeIterator<Item = OidRef>,
    ) {
        let n = oids.len() as u32;
        let pair_bytes = attr.wire_size() + value.wire_size();
        for (fingerprint, len) in oids {
            self.bytes += (oid_wire_size(len) + pair_bytes) as f64;
            bump(&mut self.oids, fingerprint, 1);
        }
        self.total += n as f64;
        self.avg_triple_bytes = self.bytes / self.total;
        self.oid_distinct = self.oids.len() as f64;
        let key_bits = value.key_bits();
        bump(&mut self.values, key_bits, n);
        self.value_distinct = self.values.len() as f64;
        let a = self.attrs.entry(attr.clone()).or_insert_with(|| Arc::new(AttrStats::empty(attr)));
        let a = Arc::make_mut(a);
        a.count += n as f64;
        bump(&mut a.values, key_bits, n);
        a.distinct = a.values.len() as f64;
        let semantic = value.semantic_hash();
        let first = !a.join_values.contains_key(&semantic);
        bump(&mut a.join_values, semantic, n);
        a.join_distinct = a.join_values.len() as f64;
        a.hist.add_n(attr_value_key(attr, value), n);
        if let (true, Value::Str(s)) = (first, value) {
            a.add_postings(s);
        }
    }

    /// The inverse of [`GlobalStats::fold_inserts`], for as many of the
    /// OIDs — taken from the front — as the snapshot still counts
    /// triples of the pair; the rest are ignored, as a delete the
    /// snapshot never saw the insert of is.
    fn fold_deletes(
        &mut self,
        attr: &Arc<str>,
        value: &Value,
        oids: impl ExactSizeIterator<Item = OidRef>,
    ) {
        let Some(a) = self.attrs.get_mut(attr) else { return };
        let key_bits = value.key_bits();
        let n = (oids.len() as u32).min(a.values.get(&key_bits).copied().unwrap_or(0));
        if n == 0 {
            return;
        }
        let a = Arc::make_mut(a);
        let pair_bytes = attr.wire_size() + value.wire_size();
        for (fingerprint, len) in oids.take(n as usize) {
            self.bytes -= (oid_wire_size(len) + pair_bytes) as f64;
            unbump(&mut self.oids, &fingerprint, 1);
        }
        self.total -= n as f64;
        self.avg_triple_bytes = if self.total > 0.0 { self.bytes / self.total } else { 16.0 };
        self.oid_distinct = self.oids.len() as f64;
        unbump(&mut self.values, &key_bits, n);
        self.value_distinct = self.values.len() as f64;
        a.count -= n as f64;
        unbump(&mut a.values, &key_bits, n);
        a.distinct = a.values.len() as f64;
        let semantic = value.semantic_hash();
        let held = a.join_values.contains_key(&semantic);
        unbump(&mut a.join_values, &semantic, n);
        a.join_distinct = a.join_values.len() as f64;
        a.hist.remove_n(attr_value_key(attr, value), n);
        if let (true, Value::Str(s)) = (held && !a.join_values.contains_key(&semantic), value) {
            a.remove_postings(s);
        }
        if a.count <= 0.0 {
            // A fresh build over the survivors would not contain the
            // attribute at all; match it.
            self.attrs.remove(attr);
        }
    }

    /// Mean triples stored per leaf.
    pub fn triples_per_leaf(&self) -> f64 {
        (self.total / self.net.n_leaves).max(1.0)
    }

    /// Conservative cardinality assumed for scans on attributes the
    /// statistics have never seen (see [`UNKNOWN_ATTR_SELECTIVITY`]).
    pub fn unknown_attr_card(&self) -> f64 {
        (self.total * UNKNOWN_ATTR_SELECTIVITY).max(1.0)
    }

    pub(super) fn attr(&self, attr: &str) -> Option<&AttrStats> {
        self.attrs.get(attr).map(Arc::as_ref)
    }
}

/// What a [`StatsDelta`] remembers of the last fold that had to copy a
/// shared snapshot: the snapshot it started from and the one it made.
/// Every other holder of that same snapshot that folds the same delta
/// object takes the result instead of making its own copy, so peers
/// that fold the same deltas in the same order hold one snapshot. The
/// `Weak` keeps the base's allocation, and with it its address, from
/// being reused while the memo can still match it; the strong result
/// keeps anyone from folding into it in place. Never on the wire: a
/// clone or a decoded delta starts empty.
#[derive(Default)]
pub(super) struct FoldMemo(Mutex<Option<(Weak<CostModel>, Arc<CostModel>)>>);

impl Clone for FoldMemo {
    fn clone(&self) -> Self {
        FoldMemo::default()
    }
}

impl CostModel {
    /// Folds a delta into a snapshot that other holders may share — the
    /// statistics gossip's one fold. A snapshot this delta already took
    /// from the same base is reused by pointer; a snapshot nobody else
    /// holds is folded in place; a shared one is copied, folded, and
    /// memoized on the delta for the base's other holders.
    pub fn apply_shared(model: &mut Arc<CostModel>, delta: &StatsDelta) {
        // The memo is only ever written in one assignment, so a guard
        // poisoned by a panicking fold still holds a consistent memo.
        let mut memo = delta.memo.0.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((base, result)) = memo.as_ref() {
            if std::ptr::eq(base.as_ptr(), Arc::as_ptr(model)) {
                *model = result.clone();
                return;
            }
        }
        if Arc::strong_count(model) == 1 {
            Arc::make_mut(model).apply_delta(delta);
            return;
        }
        let mut copy = CostModel::clone(model);
        copy.apply_delta(delta);
        let base = Arc::downgrade(model);
        *model = Arc::new(copy);
        *memo = Some((base, model.clone()));
    }
}
