//! The cost model.
//!
//! Paper §2 / ref [5]: *"For each physical operator, and thus, for each
//! query plan, we can determine worst-case guarantees (almost all are
//! logarithmic) and predict exact costs. We base these calculations on
//! the characteristics of the used overlay system and the actual data
//! distribution. By this, we derive a cost model for choosing concrete
//! query plans, which is repeatedly applied at each peer involved in a
//! query."*
//!
//! Inputs: overlay parameters (peer/leaf counts → logarithmic routing
//! bounds) and per-attribute statistics (cardinalities, histograms over
//! the key space, q-gram posting counts). Output: predicted messages,
//! critical-path hop depth and bytes for every candidate physical
//! operator — experiment E8 compares these predictions against measured
//! values.

use std::sync::Arc;

use unistore_store::index::{attr_value_key, attr_value_range};
use unistore_store::qgram;
use unistore_store::{Oid, Triple, Value};
use unistore_util::stats::Histogram;
use unistore_util::wire::{get_len, get_varint, put_varint, varint_size, Wire, WireError};
use unistore_util::{intern, CompactStr, FxHashMap};

use crate::strategy::{JoinStrategy, RangeAlgo, ScanStrategy};

/// Overlay parameters the model derives its guarantees from.
#[derive(Clone, Copy, Debug)]
pub struct NetParams {
    /// Number of peers.
    pub n_peers: f64,
    /// Number of trie leaves (= peer count / replication).
    pub n_leaves: f64,
    /// Replication factor.
    pub replication: f64,
    /// Expected one-way link delay in milliseconds (latency prediction).
    pub hop_ms: f64,
}

impl NetParams {
    /// Expected routing depth: log₂ of the leaf count.
    pub fn log_n(&self) -> f64 {
        self.n_leaves.max(2.0).log2()
    }
}

/// Selectivity assumed for attributes the statistics have never seen.
///
/// Statistics are disseminated with bounded staleness, so an attribute
/// can be live in the system before any snapshot mentions it. Pricing
/// such a scan at zero cardinality *and* zero cost made every
/// ghost-attribute plan look free and win `choose_scan` / join
/// arbitration outright; instead, unknown attributes are floored at
/// this conservative fraction of the total triple count (never below
/// one row).
pub const UNKNOWN_ATTR_SELECTIVITY: f64 = 0.01;

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
#[derive(Clone, Debug)]
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
    /// Total q-gram postings (string values only).
    pub gram_postings: f64,
    /// Distinct q-grams.
    pub gram_distinct: f64,
    /// Live key-space values (refcounted; drives `distinct`).
    values: FxHashMap<u64, u32>,
    /// Live semantic values (refcounted; drives `join_distinct`).
    join_values: FxHashMap<u64, u32>,
    /// Live q-grams (refcounted with multiplicity; drives
    /// `gram_distinct`).
    grams: FxHashMap<u32, u32>,
}

impl AttrStats {
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

/// One OID-table entry of a [`StatsDelta`]: the OID's placement hash
/// and its length in bytes — all the statistics ever read of an OID
/// (the distinct-OID refcount and the triple's wire size).
type OidRef = (u64, u32);

fn oid_ref(oid: &Oid) -> OidRef {
    (oid.hash(), oid.as_str().len() as u32)
}

/// Wire size of an OID of `len` bytes (a length-prefixed string).
fn oid_wire_size(len: u32) -> usize {
    varint_size(len as u64) + len as usize
}

/// A value's *representation*, as opposed to its meaning: `Int(2)` and
/// `Float(2.0)` are semantically equal but encode to different sizes,
/// and the byte statistics are exact, so they must not share a group.
#[derive(Clone, PartialEq, Eq, Hash)]
enum ValueRepr {
    Str(CompactStr),
    Int(i64),
    Float(u64),
}

impl ValueRepr {
    fn of(v: &Value) -> Self {
        match v {
            Value::Str(s) => ValueRepr::Str(s.clone()),
            Value::Int(i) => ValueRepr::Int(*i),
            Value::Float(f) => ValueRepr::Float(f.to_bits()),
        }
    }
}

type GroupKey = (Arc<str>, ValueRepr);

/// The write events of one sign that share an `(attr, value)` pair.
#[derive(Clone, Debug)]
struct Group {
    attr: Arc<str>,
    value: Value,
    /// Indexes into the delta's OID table, never descending and never
    /// empty; a repeated index is a repeated write event.
    oids: Vec<u32>,
}

impl Group {
    fn key(&self) -> GroupKey {
        (self.attr.clone(), ValueRepr::of(&self.value))
    }

    /// The first table index, then the distance from each to the next:
    /// how the indexes travel (one byte each while neighbours are under
    /// 128 table entries apart).
    fn gaps(&self) -> impl Iterator<Item = u64> + '_ {
        self.oids.iter().scan(0, |prev, &i| Some((i - std::mem::replace(prev, i)) as u64))
    }

    fn encode(&self, buf: &mut bytes::BytesMut) {
        self.attr.encode(buf);
        self.value.encode(buf);
        put_varint(buf, self.oids.len() as u64);
        self.gaps().for_each(|gap| put_varint(buf, gap));
    }

    fn wire_size(&self) -> usize {
        self.attr.wire_size()
            + self.value.wire_size()
            + varint_size(self.oids.len() as u64)
            + self.gaps().map(varint_size).sum::<usize>()
    }
}

/// Adds `x` to a never-descending list.
fn insert_sorted(list: &mut Vec<u32>, x: u32) {
    match list.last() {
        Some(&last) if last > x => list.insert(list.partition_point(|&y| y <= x), x),
        _ => list.push(x),
    }
}

/// Removes from two never-descending lists the elements they share,
/// one for one. Returns whether anything was removed.
fn cancel_common(a: &mut Vec<u32>, b: &mut Vec<u32>) -> bool {
    let (mut only_a, mut only_b) = (Vec::new(), Vec::new());
    let (mut i, mut j) = (0, 0);
    while let (Some(&x), Some(&y)) = (a.get(i), b.get(j)) {
        match x.cmp(&y) {
            std::cmp::Ordering::Less => {
                only_a.push(x);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                only_b.push(y);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    only_a.extend(a.iter().skip(i));
    only_b.extend(b.iter().skip(j));
    let cancelled = only_a.len() < a.len();
    (*a, *b) = (only_a, only_b);
    cancelled
}

/// Insert-side and delete-side positions in [`StatsDelta::groups`].
const INSERTED: usize = 0;
const DELETED: usize = 1;

/// Where a recorded OID or `(attr, value)` pair sits in a
/// [`StatsDelta`]. Probed, never iterated: the vectors alone decide
/// what goes on the wire and in which order.
#[derive(Clone, Default)]
struct DeltaIndex {
    oids: FxHashMap<OidRef, u32>,
    groups: [FxHashMap<GroupKey, u32>; 2],
}

impl DeltaIndex {
    fn build(oids: &[OidRef], groups: &[Vec<Group>; 2]) -> Self {
        let mut index = DeltaIndex::default();
        for (i, oid) in oids.iter().enumerate() {
            index.oids.entry(*oid).or_insert(i as u32);
        }
        for (map, side) in index.groups.iter_mut().zip(groups) {
            for (i, g) in side.iter().enumerate() {
                map.entry(g.key()).or_insert(i as u32);
            }
        }
        index
    }
}

/// A digest of a batch of statistics-relevant write events, shippable
/// over the wire: the in-band currency of statistics dissemination.
///
/// A write batch names few distinct `(attr, value)` pairs over many
/// objects (one 16-op ingest trial: 2 048 triples, about 30 pairs,
/// 1 024 OIDs), and every statistic depends on a triple only through its
/// pair, its OID's hash and its size. So the delta holds each OID once
/// — hash and byte length, in first-seen order — and, per sign, one
/// group per pair in first-seen order listing the OIDs written under
/// it. Receivers fold it in group by group with
/// [`GlobalStats::apply_delta`]; deltas [`StatsDelta::merge`] by
/// uniting tables and groups, so a node can buffer everything it
/// learns between two dissemination ticks into one message.
#[derive(Clone, Default)]
pub struct StatsDelta {
    /// Every OID the groups refer to, once, in first-seen order.
    oids: Vec<OidRef>,
    /// Groups of inserted (`[INSERTED]`) and deleted (`[DELETED]`)
    /// triples, each side in first-seen order.
    groups: [Vec<Group>; 2],
    /// Lookup side of `oids` and `groups`, built when a write is first
    /// recorded and dropped whenever the vectors are re-numbered; a
    /// delta that is only decoded, folded and forwarded never pays it.
    index: Option<Box<DeltaIndex>>,
}

impl std::fmt::Debug for StatsDelta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatsDelta")
            .field("oids", &self.oids)
            .field("inserted", &self.groups[INSERTED])
            .field("deleted", &self.groups[DELETED])
            .finish()
    }
}

impl StatsDelta {
    /// An empty delta.
    pub fn new() -> Self {
        StatsDelta::default()
    }

    /// Records one inserted triple.
    pub fn record_insert(&mut self, t: Triple) {
        let oid = self.oid_slot(oid_ref(&t.oid));
        self.record(INSERTED, t.attr, t.value, [oid]);
    }

    /// Records one deleted triple.
    pub fn record_delete(&mut self, t: Triple) {
        let oid = self.oid_slot(oid_ref(&t.oid));
        self.record(DELETED, t.attr, t.value, [oid]);
    }

    fn index(&mut self) -> &mut DeltaIndex {
        self.index.get_or_insert_with(|| Box::new(DeltaIndex::build(&self.oids, &self.groups)))
    }

    /// The OID's position in the table, appending it when new.
    fn oid_slot(&mut self, oid: OidRef) -> u32 {
        let next = self.oids.len() as u32;
        let slot = *self.index().oids.entry(oid).or_insert(next);
        if slot == next {
            self.oids.push(oid);
        }
        slot
    }

    /// Adds write events of one sign under `(attr, value)`, opening the
    /// group when the pair is new on that side.
    fn record(
        &mut self,
        side: usize,
        attr: Arc<str>,
        value: Value,
        oids: impl IntoIterator<Item = u32>,
    ) {
        let next = self.groups[side].len() as u32;
        let key = (attr.clone(), ValueRepr::of(&value));
        let slot = *self.index().groups[side].entry(key).or_insert(next);
        if slot == next {
            self.groups[side].push(Group { attr, value, oids: Vec::new() });
        }
        let group = &mut self.groups[side][slot as usize];
        for oid in oids {
            insert_sorted(&mut group.oids, oid);
        }
    }

    /// Folds another delta into this one: its OIDs join the table, its
    /// groups join the groups of the same pair and sign.
    pub fn merge(&mut self, other: StatsDelta) {
        let renumber: Vec<u32> = other.oids.iter().map(|&oid| self.oid_slot(oid)).collect();
        for (side, groups) in other.groups.into_iter().enumerate() {
            for g in groups {
                let oids = g.oids.iter().map(|&i| renumber[i as usize]);
                self.record(side, g.attr, g.value, oids);
            }
        }
    }

    /// Whether the delta carries no events.
    pub fn is_empty(&self) -> bool {
        self.groups.iter().all(Vec::is_empty)
    }

    /// Number of recorded write events.
    pub fn len(&self) -> usize {
        self.groups.iter().flatten().map(|g| g.oids.len()).sum()
    }

    /// The table entries a group's events refer to, one per event.
    fn oids_of<'a>(&'a self, g: &'a Group) -> impl ExactSizeIterator<Item = OidRef> + 'a {
        g.oids.iter().map(|&i| self.oids[i as usize])
    }

    /// The `(attr, value)` pairs the delta's writes name: each once per
    /// sign it was written under.
    pub fn pairs(&self) -> impl Iterator<Item = (&Arc<str>, &Value)> {
        self.groups.iter().flatten().map(|g| (&g.attr, &g.value))
    }

    /// Cancels matched insert/delete pairs of identical triples: a
    /// value written and removed again within one buffering interval
    /// nets to zero in every statistic, so the pair need not ride the
    /// dissemination fan-out at all. Dissemination flushes call this
    /// before encoding; survivor order is preserved, so the compacted
    /// wire bytes stay deterministic.
    ///
    /// Identical means the same OID under the same group, so one probe
    /// per inserted group finds everything it can cancel. A write and a
    /// removal that differ in representation (`Int(2)` against
    /// `Float(2.0)`) differ in size and do not net to zero; both stay.
    pub fn compact(&mut self) {
        if self.groups.iter().any(Vec::is_empty) {
            return;
        }
        self.index();
        let Some(index) = self.index.take() else { return };
        let [inserted, deleted] = &mut self.groups;
        let mut cancelled = false;
        for g in inserted.iter_mut() {
            if let Some(&d) = index.groups[DELETED].get(&g.key()) {
                cancelled |= cancel_common(&mut g.oids, &mut deleted[d as usize].oids);
            }
        }
        if !cancelled {
            self.index = Some(index);
            return;
        }
        // Drop what emptied and re-number the table to the OIDs still
        // referred to, keeping their order; the index is rebuilt when
        // next needed.
        for side in &mut self.groups {
            side.retain(|g| !g.oids.is_empty());
        }
        let mut used = vec![false; self.oids.len()];
        for &i in self.groups.iter().flatten().flat_map(|g| &g.oids) {
            used[i as usize] = true;
        }
        let renumber: Vec<u32> = used
            .iter()
            .scan(0, |kept, &u| Some(std::mem::replace(kept, *kept + u as u32)))
            .collect();
        let mut used = used.into_iter();
        self.oids.retain(|_| used.next() == Some(true));
        for i in self.groups.iter_mut().flatten().flat_map(|g| &mut g.oids) {
            *i = renumber[*i as usize];
        }
    }
}

// Layout: the OID table (count; per OID the hash as 8 fixed bytes —
// high-entropy, a varint would average 9–10 — and the varint length),
// then the inserted and the deleted groups (count; per group attr,
// value, OID count and the table indexes as gaps).
impl Wire for StatsDelta {
    fn encode(&self, buf: &mut bytes::BytesMut) {
        use bytes::BufMut;
        put_varint(buf, self.oids.len() as u64);
        for (hash, len) in &self.oids {
            buf.put_u64(*hash);
            len.encode(buf);
        }
        for side in &self.groups {
            put_varint(buf, side.len() as u64);
            side.iter().for_each(|g| g.encode(buf));
        }
    }

    fn decode(buf: &mut bytes::Bytes) -> Result<Self, WireError> {
        use bytes::Buf;
        let n_oids = get_len(buf)?;
        let mut oids = Vec::with_capacity(n_oids.min(1024));
        for _ in 0..n_oids {
            if buf.remaining() < 8 {
                return Err(WireError::UnexpectedEof);
            }
            oids.push((buf.get_u64(), u32::decode(buf)?));
        }
        let mut groups = [Vec::new(), Vec::new()];
        for side in &mut groups {
            for _ in 0..get_len(buf)? {
                let attr = unistore_util::wire::decode_str(buf, intern)?;
                let value = Value::decode(buf)?;
                // Handlers index the table without bounds checks and
                // rely on a group being a write: reject empty groups
                // and indexes that run backwards (a gap that overflows)
                // or off the table.
                let n = get_len(buf)?;
                if n == 0 {
                    return Err(WireError::BadLength(0));
                }
                let mut group = Vec::with_capacity(n.min(1024));
                let mut prev = 0u64;
                for _ in 0..n {
                    let gap = get_varint(buf)?;
                    prev = prev
                        .checked_add(gap)
                        .filter(|&i| i < n_oids as u64)
                        .ok_or(WireError::BadLength(gap))?;
                    group.push(prev as u32);
                }
                side.push(Group { attr, value, oids: group });
            }
        }
        Ok(StatsDelta { oids, groups, index: None })
    }

    fn wire_size(&self) -> usize {
        let table: usize = self.oids.iter().map(|(_, len)| 8 + len.wire_size()).sum();
        let groups = self.groups.iter().map(|side| {
            varint_size(side.len() as u64) + side.iter().map(Group::wire_size).sum::<usize>()
        });
        varint_size(self.oids.len() as u64) + table + groups.sum::<usize>()
    }
}

/// Global statistics: what the paper's peers gossip. Bulk-built once
/// per load, then maintained incrementally: every routed write folds in
/// as an O(delta) [`GlobalStats::apply_delta`] instead of a rescan of
/// every triple (protocol described in DESIGN.md §"Statistics
/// distribution").
#[derive(Clone, Debug)]
pub struct GlobalStats {
    /// Total triples in the system.
    pub total: f64,
    /// Distinct OIDs.
    pub oid_distinct: f64,
    /// Distinct values across all attributes (v index).
    pub value_distinct: f64,
    /// Mean wire size of one triple, bytes.
    pub avg_triple_bytes: f64,
    /// Per-attribute statistics.
    pub attrs: FxHashMap<Arc<str>, AttrStats>,
    /// Overlay parameters.
    pub net: NetParams,
    /// Running sum of triple wire sizes (drives `avg_triple_bytes`).
    bytes: f64,
    /// Live OID hashes (refcounted; drives `oid_distinct`).
    oids: FxHashMap<u64, u32>,
    /// Live value key-bits (refcounted; drives `value_distinct`).
    values: FxHashMap<u64, u32>,
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
        for (hash, len) in oids {
            self.bytes += (oid_wire_size(len) + pair_bytes) as f64;
            bump(&mut self.oids, hash, 1);
        }
        self.total += n as f64;
        self.avg_triple_bytes = self.bytes / self.total;
        self.oid_distinct = self.oids.len() as f64;
        let key_bits = value.key_bits();
        bump(&mut self.values, key_bits, n);
        self.value_distinct = self.values.len() as f64;
        let a = self.attrs.entry(attr.clone()).or_insert_with(|| AttrStats::empty(attr));
        a.count += n as f64;
        bump(&mut a.values, key_bits, n);
        a.distinct = a.values.len() as f64;
        bump(&mut a.join_values, value.semantic_hash(), n);
        a.join_distinct = a.join_values.len() as f64;
        a.hist.add_n(attr_value_key(attr, value), n);
        if let Value::Str(s) = value {
            let gs = qgram::qgrams(s);
            a.gram_postings += (gs.len() * n as usize) as f64;
            for g in gs {
                bump(&mut a.grams, g, n);
            }
            a.gram_distinct = a.grams.len() as f64;
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
        let pair_bytes = attr.wire_size() + value.wire_size();
        for (hash, len) in oids.take(n as usize) {
            self.bytes -= (oid_wire_size(len) + pair_bytes) as f64;
            unbump(&mut self.oids, &hash, 1);
        }
        self.total -= n as f64;
        self.avg_triple_bytes = if self.total > 0.0 { self.bytes / self.total } else { 16.0 };
        self.oid_distinct = self.oids.len() as f64;
        unbump(&mut self.values, &key_bits, n);
        self.value_distinct = self.values.len() as f64;
        a.count -= n as f64;
        unbump(&mut a.values, &key_bits, n);
        a.distinct = a.values.len() as f64;
        unbump(&mut a.join_values, &value.semantic_hash(), n);
        a.join_distinct = a.join_values.len() as f64;
        a.hist.remove_n(attr_value_key(attr, value), n);
        if let Value::Str(s) = value {
            let gs = qgram::qgrams(s);
            a.gram_postings -= (gs.len() * n as usize) as f64;
            for g in gs {
                unbump(&mut a.grams, &g, n);
            }
            a.gram_distinct = a.grams.len() as f64;
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

    fn attr(&self, attr: &str) -> Option<&AttrStats> {
        self.attrs.get(attr)
    }
}

/// Predicted cost of a physical operator or plan.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CostVector {
    /// Total messages.
    pub messages: f64,
    /// Critical-path length in hops (latency = depth × hop delay).
    pub depth: f64,
    /// Bytes moved.
    pub bytes: f64,
}

impl CostVector {
    /// Accumulates another operator's cost executed *after* this one.
    pub fn then(&self, next: &CostVector) -> CostVector {
        CostVector {
            messages: self.messages + next.messages,
            depth: self.depth + next.depth,
            bytes: self.bytes + next.bytes,
        }
    }

    /// Predicted latency in milliseconds.
    pub fn latency_ms(&self, hop_ms: f64) -> f64 {
        self.depth * hop_ms
    }

    /// Scalar score for strategy selection: message count dominates
    /// (bandwidth is the scarce resource in the paper's setting), depth
    /// breaks ties toward lower latency.
    pub fn score(&self) -> f64 {
        self.messages + 0.01 * self.depth + 1e-6 * self.bytes
    }
}

/// A priced scan: predicted cost and output cardinality.
#[derive(Clone, Debug)]
pub struct ScanEstimate {
    /// Predicted network cost.
    pub cost: CostVector,
    /// Predicted result rows.
    pub cardinality: f64,
}

/// The cost model over one statistics snapshot.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// The statistics driving the predictions.
    pub stats: GlobalStats,
}

impl CostModel {
    /// Creates the model.
    pub fn new(stats: GlobalStats) -> Self {
        CostModel { stats }
    }

    /// Folds a statistics delta into the model — O(delta), no rescan.
    pub fn apply_delta(&mut self, delta: &StatsDelta) {
        self.stats.apply_delta(delta);
    }

    /// Prices one scan strategy. `limit_hint` enables early-termination
    /// pricing for sequential ranges under LIMIT.
    pub fn scan(&self, s: &ScanStrategy, limit_hint: Option<usize>) -> ScanEstimate {
        let st = &self.stats;
        let log_n = st.net.log_n();
        let per_leaf = st.triples_per_leaf();
        let row_bytes = st.avg_triple_bytes;
        match s {
            ScanStrategy::OidLookup { .. } => {
                let card = (st.total / st.oid_distinct.max(1.0)).max(1.0);
                ScanEstimate {
                    cost: CostVector {
                        messages: log_n + 1.0,
                        depth: log_n + 1.0,
                        bytes: card * row_bytes,
                    },
                    cardinality: card,
                }
            }
            ScanStrategy::AttrValueLookup { attr, .. } => {
                let card =
                    st.attr(attr).map_or(st.unknown_attr_card(), |a| a.count / a.distinct.max(1.0));
                ScanEstimate {
                    cost: CostVector {
                        messages: log_n + 1.0,
                        depth: log_n + 1.0,
                        bytes: card * row_bytes,
                    },
                    cardinality: card,
                }
            }
            ScanStrategy::AttrRange { attr, lo, hi, algo } => {
                let card = match st.attr(attr) {
                    None => st.unknown_attr_card(),
                    Some(a) => {
                        let (klo, khi) = attr_value_range(attr, lo.as_ref(), hi.as_ref());
                        a.hist.estimate_range(klo, khi).max(1.0)
                    }
                };
                let leaves = (card / per_leaf).ceil().clamp(1.0, st.net.n_leaves);
                let (messages, depth, eff_card) = match algo {
                    RangeAlgo::Parallel => (log_n + 2.0 * leaves, log_n + 2.0, card),
                    RangeAlgo::Sequential => {
                        // Early termination: visit only the leaves needed
                        // to fill the limit.
                        let eff_leaves = match limit_hint {
                            Some(n) if card > 0.0 => {
                                (n as f64 * leaves / card).ceil().clamp(1.0, leaves)
                            }
                            _ => leaves,
                        };
                        let eff_card =
                            if eff_leaves < leaves { card * eff_leaves / leaves } else { card };
                        (log_n + 2.0 * eff_leaves, log_n + eff_leaves + 1.0, eff_card)
                    }
                };
                ScanEstimate {
                    cost: CostVector { messages, depth, bytes: eff_card * row_bytes },
                    cardinality: eff_card,
                }
            }
            ScanStrategy::AttrPrefix { attr, prefix, .. } => {
                let card = match st.attr(attr) {
                    None => st.unknown_attr_card(),
                    Some(a) => {
                        let (klo, khi) = unistore_store::index::attr_prefix_range(attr, prefix);
                        a.hist.estimate_range(klo, khi).max(1.0)
                    }
                };
                let leaves = (card / per_leaf).ceil().clamp(1.0, st.net.n_leaves);
                ScanEstimate {
                    cost: CostVector {
                        messages: log_n + 2.0 * leaves,
                        depth: log_n + 2.0,
                        bytes: card * row_bytes,
                    },
                    cardinality: card,
                }
            }
            ScanStrategy::QGram { attr, target, k } => {
                let grams = (target.len() + qgram::QGRAM_Q - 1) as f64;
                let (candidates, verified) = match st.attr(attr) {
                    None => (st.unknown_attr_card(), st.unknown_attr_card()),
                    Some(a) => {
                        let posting = a.gram_postings / a.gram_distinct.max(1.0);
                        let candidates = (grams * posting).min(a.count);
                        // Verified matches: crude selectivity — strings
                        // within distance k of one target are rare.
                        let sel = ((*k as f64 + 1.0) / a.distinct.max(1.0)).min(1.0);
                        (candidates, (a.count * sel).max(1.0))
                    }
                };
                ScanEstimate {
                    cost: CostVector {
                        messages: grams * (log_n + 1.0),
                        depth: log_n + 1.0,
                        bytes: candidates * row_bytes,
                    },
                    cardinality: verified,
                }
            }
            ScanStrategy::ValueLookup { .. } => {
                let card = (st.total / st.value_distinct.max(1.0)).max(1.0);
                ScanEstimate {
                    cost: CostVector {
                        messages: log_n + 1.0,
                        depth: log_n + 1.0,
                        bytes: card * row_bytes,
                    },
                    cardinality: card,
                }
            }
            ScanStrategy::FullScan { .. } => {
                let leaves = st.net.n_leaves;
                ScanEstimate {
                    cost: CostVector {
                        messages: 2.0 * leaves,
                        depth: log_n + 2.0,
                        bytes: st.total * row_bytes,
                    },
                    cardinality: st.total,
                }
            }
        }
    }

    /// Picks the cheapest scan among candidates. Returns the index into
    /// `candidates` plus the estimate.
    pub fn choose_scan(
        &self,
        candidates: &[ScanStrategy],
        limit_hint: Option<usize>,
    ) -> (usize, ScanEstimate) {
        let mut best: Option<(usize, ScanEstimate)> = None;
        for (i, s) in candidates.iter().enumerate() {
            let est = self.scan(s, limit_hint);
            // Strict `<` keeps the first of equally-cheap candidates,
            // matching `Iterator::min_by` so plan choices (and bench
            // snapshot digests) are unchanged by the unwrap removal.
            let replace = best.as_ref().is_none_or(|(_, b)| est.cost.score() < b.cost.score());
            if replace {
                best = Some((i, est));
            }
        }
        // An empty candidate list is a planner bug; price it as
        // unplannable instead of panicking.
        best.unwrap_or((
            0,
            ScanEstimate {
                cost: CostVector {
                    messages: f64::INFINITY,
                    depth: f64::INFINITY,
                    bytes: f64::INFINITY,
                },
                cardinality: 0.0,
            },
        ))
    }

    /// Prices a join given the left cardinality and the right side's
    /// best independent scan. Fetch join costs one lookup per distinct
    /// left binding.
    pub fn join(
        &self,
        left_card: f64,
        right_best: &ScanEstimate,
        fetch_possible: bool,
    ) -> (JoinStrategy, CostVector) {
        let log_n = self.stats.net.log_n();
        let collect = right_best.cost;
        if !fetch_possible {
            return (JoinStrategy::Collect, collect);
        }
        let fetch = CostVector {
            messages: left_card.max(1.0) * (log_n + 1.0),
            depth: log_n + 1.0,
            bytes: right_best.cardinality.min(left_card) * self.stats.avg_triple_bytes,
        };
        if fetch.score() < collect.score() {
            (JoinStrategy::Fetch, fetch)
        } else {
            (JoinStrategy::Collect, collect)
        }
    }

    /// Prices a Bloom-filtered semi-join pushdown of the right side's
    /// best scan: the message structure and critical path are the
    /// collect scan's (the filter rides the existing request messages),
    /// but every request grows by the filter's wire size and the leaves
    /// reply with only the rows whose join key appears on the left —
    /// plus the filter's false positives.
    ///
    /// `left_distinct` is the number of distinct join keys on the
    /// materialized side, `right_distinct` the estimated distinct join
    /// keys in the scanned region (drives the semi-join selectivity
    /// `min(1, left/right)`), `filter_bytes` the encoded filter size and
    /// `fpr` its false-positive rate.
    pub fn semi_join(
        &self,
        left_distinct: f64,
        right_distinct: f64,
        right_best: &ScanEstimate,
        filter_bytes: f64,
        fpr: f64,
    ) -> CostVector {
        let sel = (left_distinct / right_distinct.max(1.0) + fpr).min(1.0);
        let surviving = right_best.cardinality * sel;
        CostVector {
            messages: right_best.cost.messages,
            depth: right_best.cost.depth,
            bytes: right_best.cost.messages * filter_bytes
                + surviving * self.stats.avg_triple_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unistore_vql::parse;

    fn sample_triples() -> Vec<Triple> {
        let mut ts = Vec::new();
        for i in 0..200 {
            ts.push(Triple::new(&format!("p{i}"), "name", Value::str(&format!("person-{i}"))));
            ts.push(Triple::new(&format!("p{i}"), "age", Value::Int(20 + (i % 50) as i64)));
            ts.push(Triple::new(
                &format!("p{i}"),
                "city",
                Value::str(if i % 10 == 0 { "geneva" } else { "zurich" }),
            ));
        }
        ts
    }

    fn model() -> CostModel {
        let net = NetParams { n_peers: 64.0, n_leaves: 64.0, replication: 1.0, hop_ms: 40.0 };
        CostModel::new(GlobalStats::build(&sample_triples(), net))
    }

    #[test]
    fn stats_aggregate_correctly() {
        let m = model();
        assert_eq!(m.stats.total, 600.0);
        assert_eq!(m.stats.oid_distinct, 200.0);
        let age = &m.stats.attrs[&Arc::<str>::from("age")];
        assert_eq!(age.count, 200.0);
        assert_eq!(age.distinct, 50.0);
        let city = &m.stats.attrs[&Arc::<str>::from("city")];
        assert_eq!(city.distinct, 2.0);
        assert!(city.gram_postings > 0.0);
    }

    #[test]
    fn lookup_is_logarithmic() {
        let m = model();
        let e = m.scan(
            &ScanStrategy::AttrValueLookup { attr: "age".into(), value: Value::Int(30) },
            None,
        );
        let log_n = 6.0;
        assert_eq!(e.cost.messages, log_n + 1.0);
        assert_eq!(e.cardinality, 4.0); // 200 / 50 distinct
    }

    #[test]
    fn range_cost_scales_with_selectivity() {
        let m = model();
        let narrow = m.scan(
            &ScanStrategy::AttrRange {
                attr: "age".into(),
                lo: Some(Value::Int(20)),
                hi: Some(Value::Int(22)),
                algo: RangeAlgo::Parallel,
            },
            None,
        );
        let wide = m.scan(
            &ScanStrategy::AttrRange {
                attr: "age".into(),
                lo: None,
                hi: None,
                algo: RangeAlgo::Parallel,
            },
            None,
        );
        assert!(wide.cardinality > narrow.cardinality);
        assert!(wide.cost.messages > narrow.cost.messages);
    }

    #[test]
    fn sequential_with_limit_visits_fewer_leaves() {
        let m = model();
        let strat = |algo| ScanStrategy::AttrRange { attr: "age".into(), lo: None, hi: None, algo };
        let seq_all = m.scan(&strat(RangeAlgo::Sequential), None);
        let seq_lim = m.scan(&strat(RangeAlgo::Sequential), Some(3));
        assert!(seq_lim.cost.messages < seq_all.cost.messages);
        // And cheap enough to beat the parallel shower.
        let par = m.scan(&strat(RangeAlgo::Parallel), Some(3));
        assert!(seq_lim.cost.score() < par.cost.score());
    }

    #[test]
    fn choose_scan_prefers_exact_lookup() {
        let m = model();
        let q = parse("SELECT ?a WHERE {(?a,'age',2006)}").unwrap();
        let cands = crate::strategy::scan_candidates(&q.patterns[0], &q.filters);
        let (i, _) = m.choose_scan(&cands, None);
        assert!(matches!(cands[i], ScanStrategy::AttrValueLookup { .. }));
    }

    #[test]
    fn qgram_beats_naive_on_large_attr_and_loses_on_tiny() {
        let m = model();
        // 'name' has 200 long-ish strings; q-gram should beat a full
        // attribute sweep for a short target.
        let qg = m.scan(
            &ScanStrategy::QGram { attr: "name".into(), target: "person-7".into(), k: 1 },
            None,
        );
        let naive = m.scan(
            &ScanStrategy::AttrRange {
                attr: "name".into(),
                lo: None,
                hi: None,
                algo: RangeAlgo::Parallel,
            },
            None,
        );
        // The decision flips with scale; here both are priced — make
        // sure the estimates are finite and ordered sanely.
        assert!(qg.cost.messages > 0.0 && naive.cost.messages > 0.0);
        assert!(qg.cardinality <= naive.cardinality);
    }

    #[test]
    fn fetch_join_wins_for_small_left() {
        let m = model();
        let right = m.scan(
            &ScanStrategy::AttrRange {
                attr: "name".into(),
                lo: None,
                hi: None,
                algo: RangeAlgo::Parallel,
            },
            None,
        );
        let (strat_small, _) = m.join(2.0, &right, true);
        assert_eq!(strat_small, JoinStrategy::Fetch);
        let (strat_big, _) = m.join(10_000.0, &right, true);
        assert_eq!(strat_big, JoinStrategy::Collect);
        let (forced, _) = m.join(2.0, &right, false);
        assert_eq!(forced, JoinStrategy::Collect);
    }

    #[test]
    fn semi_join_beats_collect_on_selective_left_only() {
        let m = model();
        let right = m.scan(
            &ScanStrategy::AttrRange {
                attr: "name".into(),
                lo: None,
                hi: None,
                algo: RangeAlgo::Parallel,
            },
            None,
        );
        // 2 of 200 names survive: bytes shrink (reply side collapses;
        // the remaining cost is the ~16-byte filter riding each
        // request), messages and depth unchanged.
        let semi = m.semi_join(2.0, 200.0, &right, 16.0, 0.01);
        assert_eq!(semi.messages, right.cost.messages);
        assert_eq!(semi.depth, right.cost.depth);
        assert!(semi.bytes < right.cost.bytes / 2.0, "selective semi-join ships a fraction");
        assert!(semi.score() < right.cost.score());
        // Left covers everything: the filter is pure overhead.
        let futile = m.semi_join(200.0, 200.0, &right, 16.0, 0.01);
        assert!(futile.bytes > right.cost.bytes);
        assert!(futile.score() > right.cost.score());
    }

    #[test]
    fn unknown_attr_estimates_floor_not_zero() {
        let m = model();
        // A scan on a never-seen attribute must not look free: floor it
        // at the conservative default selectivity so it cannot hijack
        // choose_scan / join arbitration.
        let floor = (m.stats.total * UNKNOWN_ATTR_SELECTIVITY).max(1.0);
        for s in [
            ScanStrategy::AttrRange {
                attr: "ghost".into(),
                lo: None,
                hi: None,
                algo: RangeAlgo::Parallel,
            },
            ScanStrategy::AttrValueLookup { attr: "ghost".into(), value: Value::Int(1) },
            ScanStrategy::AttrPrefix {
                attr: "ghost".into(),
                prefix: "g".into(),
                algo: RangeAlgo::Parallel,
            },
            ScanStrategy::QGram { attr: "ghost".into(), target: "spook".into(), k: 1 },
        ] {
            let e = m.scan(&s, None);
            assert!(
                e.cardinality >= floor,
                "{}: cardinality {} under floor",
                s.name(),
                e.cardinality
            );
            assert!(e.cost.bytes > 0.0, "{}: ghost scan priced as free", s.name());
        }
        // The floor keeps a ghost range from undercutting a known,
        // genuinely selective lookup of the same shape.
        let known = m.scan(
            &ScanStrategy::AttrValueLookup { attr: "age".into(), value: Value::Int(30) },
            None,
        );
        let ghost = m.scan(
            &ScanStrategy::AttrRange {
                attr: "ghost".into(),
                lo: None,
                hi: None,
                algo: RangeAlgo::Parallel,
            },
            None,
        );
        assert!(ghost.cost.score() >= known.cost.score());
    }

    /// Field-by-field equality on everything the cost formulas consume.
    fn assert_stats_match(a: &GlobalStats, b: &GlobalStats) {
        assert_eq!(a.total, b.total, "total");
        assert_eq!(a.oid_distinct, b.oid_distinct, "oid_distinct");
        assert_eq!(a.value_distinct, b.value_distinct, "value_distinct");
        assert_eq!(a.avg_triple_bytes, b.avg_triple_bytes, "avg_triple_bytes");
        assert_eq!(a.oids, b.oids, "oid refcounts");
        assert_eq!(a.values, b.values, "value refcounts");
        let mut keys: Vec<_> = a.attrs.keys().collect();
        let mut bkeys: Vec<_> = b.attrs.keys().collect();
        keys.sort();
        bkeys.sort();
        assert_eq!(keys, bkeys, "attribute sets");
        for (k, sa) in &a.attrs {
            let sb = &b.attrs[k];
            assert_eq!(sa.count, sb.count, "{k}: count");
            assert_eq!(sa.distinct, sb.distinct, "{k}: distinct");
            assert_eq!(sa.join_distinct, sb.join_distinct, "{k}: join_distinct");
            assert_eq!(sa.gram_postings, sb.gram_postings, "{k}: gram_postings");
            assert_eq!(sa.gram_distinct, sb.gram_distinct, "{k}: gram_distinct");
            assert_eq!(sa.values, sb.values, "{k}: value refcounts");
            assert_eq!(sa.join_values, sb.join_values, "{k}: join refcounts");
            assert_eq!(sa.grams, sb.grams, "{k}: gram refcounts");
            assert_eq!(sa.hist.count(), sb.hist.count(), "{k}: hist count");
            assert_eq!(sa.hist.bucket_counts(), sb.hist.bucket_counts(), "{k}: hist buckets");
            assert_eq!(
                sa.hist.distinct_estimate(),
                sb.hist.distinct_estimate(),
                "{k}: hist distinct"
            );
        }
    }

    #[test]
    fn delta_insert_then_delete_restores_baseline() {
        let net = NetParams { n_peers: 64.0, n_leaves: 64.0, replication: 1.0, hop_ms: 40.0 };
        let base = sample_triples();
        let mut stats = GlobalStats::build(&base, net);
        let extra = vec![
            Triple::new("x1", "rating", Value::Int(5)),
            Triple::new("x2", "rating", Value::Int(3)),
            Triple::new("x1", "name", Value::str("mallory")),
        ];
        let mut delta = StatsDelta::new();
        for t in &extra {
            delta.record_insert(t.clone());
        }
        stats.apply_delta(&delta);
        let all: Vec<Triple> = base.iter().chain(&extra).cloned().collect();
        assert_stats_match(&stats, &GlobalStats::build(&all, net));
        // Deleting the same triples restores the original snapshot.
        let mut undo = StatsDelta::new();
        for t in &extra {
            undo.record_delete(t.clone());
        }
        stats.apply_delta(&undo);
        assert_stats_match(&stats, &GlobalStats::build(&base, net));
    }

    #[test]
    fn deleting_unseen_triples_saturates() {
        let net = NetParams { n_peers: 8.0, n_leaves: 8.0, replication: 1.0, hop_ms: 1.0 };
        let base = vec![Triple::new("a", "x", Value::Int(1))];
        let mut stats = GlobalStats::build(&base, net);
        stats.apply_delete(&Triple::new("b", "ghost", Value::Int(9))); // unknown attr
        stats.apply_delete(&Triple::new("a", "x", Value::Int(99))); // known attr, unseen value
        assert_eq!(stats.total, 1.0, "unseen (attr, value) deletes must not touch totals");
        assert_eq!(stats.attrs[&Arc::<str>::from("x")].count, 1.0);
        stats.apply_delete(&Triple::new("a", "x", Value::Int(1)));
        stats.apply_delete(&Triple::new("a", "x", Value::Int(1))); // double delete
        assert_eq!(stats.total, 0.0);
        assert!(stats.attrs.is_empty());
    }

    /// The write events a delta stands for, as sortable text:
    /// `(side, oid hash, oid length, attr, value representation)`.
    fn events(d: &StatsDelta) -> Vec<String> {
        let mut out = Vec::new();
        for (side, groups) in d.groups.iter().enumerate() {
            for g in groups {
                for oid in d.oids_of(g) {
                    out.push(format!("{side} {oid:?} {} {:?}", g.attr, g.value));
                }
            }
        }
        out.sort();
        out
    }

    /// The same for a plain triple on one side.
    fn event(side: usize, t: &Triple) -> String {
        format!("{side} {:?} {} {:?}", oid_ref(&t.oid), t.attr, t.value)
    }

    #[test]
    fn stats_delta_wire_roundtrip() {
        let mut d = StatsDelta::new();
        d.record_insert(Triple::new("o1", "name", Value::str("alice")));
        d.record_insert(Triple::new("o3", "name", Value::str("alice")));
        d.record_delete(Triple::new("o2", "age", Value::Int(44)));
        d.record_delete(Triple::new("o1", "age", Value::Int(44)));
        let b = d.to_bytes();
        assert_eq!(b.len(), d.wire_size());
        let back = StatsDelta::from_bytes(&b).unwrap();
        assert_eq!(format!("{back:?}"), format!("{d:?}"));
        assert!(StatsDelta::new().is_empty());
        assert_eq!(d.len(), 4);
        // A decoded delta can be recorded into like the one it came from.
        let mut back = back;
        for d in [&mut d, &mut back] {
            d.record_insert(Triple::new("o2", "name", Value::str("alice")));
        }
        assert_eq!(back.to_bytes(), d.to_bytes());
    }

    #[test]
    fn digest_ships_each_oid_and_each_pair_once() {
        // 64 objects × 2 attributes, 3 distinct pairs: the digest is the
        // OID table plus one byte per event, not 128 triples.
        let mut d = StatsDelta::new();
        let mut flat = 0;
        for i in 0..64 {
            for t in [
                Triple::new(&format!("obj-{i:04}"), "pub:year", Value::Int(2006)),
                Triple::new(
                    &format!("obj-{i:04}"),
                    "pub:venue",
                    Value::str(["icde", "vldb"][i % 2]),
                ),
            ] {
                flat += t.wire_size();
                d.record_insert(t);
            }
        }
        assert_eq!(d.len(), 128);
        assert_eq!(d.pairs().count(), 3);
        assert!(d.wire_size() * 3 < flat, "{} B against {flat} B flat", d.wire_size());
    }

    #[test]
    fn semantically_equal_values_of_different_size_do_not_share_a_group() {
        let net = NetParams { n_peers: 8.0, n_leaves: 8.0, replication: 1.0, hop_ms: 1.0 };
        let ts = [
            Triple::new("a", "x", Value::Int(2)),
            Triple::new("b", "x", Value::Float(2.0)),
            Triple::new("c", "x", Value::Int(2)),
        ];
        assert_eq!(ts[0].value, ts[1].value);
        assert_ne!(ts[0].value.wire_size(), ts[1].value.wire_size());
        let mut d = StatsDelta::new();
        for t in &ts {
            d.record_insert(t.clone());
        }
        assert_eq!(d.pairs().count(), 2);
        let mut stats = GlobalStats::empty(net);
        stats.apply_delta(&d);
        assert_stats_match(&stats, &GlobalStats::build(&ts, net));
    }

    /// Encodes a delta by hand: the table, then per side `(attr, value,
    /// gaps)` groups.
    fn raw_delta(oids: &[OidRef], sides: [&[(&str, Value, &[u64])]; 2]) -> bytes::Bytes {
        use bytes::BufMut;
        let mut buf = bytes::BytesMut::new();
        put_varint(&mut buf, oids.len() as u64);
        for (hash, len) in oids {
            buf.put_u64(*hash);
            len.encode(&mut buf);
        }
        for side in sides {
            put_varint(&mut buf, side.len() as u64);
            for (attr, value, gaps) in side {
                attr.to_string().encode(&mut buf);
                value.encode(&mut buf);
                put_varint(&mut buf, gaps.len() as u64);
                gaps.iter().for_each(|g| put_varint(&mut buf, *g));
            }
        }
        buf.freeze()
    }

    #[test]
    fn hostile_digests_are_rejected_not_trusted() {
        let table = [(7, 2), (8, 2), (9, 2)];
        let v = Value::Int(1);
        // The well-formed shape decodes; a repeated index (gap 0) is a
        // repeated event.
        let ok = raw_delta(&table, [&[("a", v.clone(), &[0, 2, 0])], &[]]);
        assert_eq!(StatsDelta::from_bytes(&ok).unwrap().len(), 3);
        let bad: Vec<(&str, bytes::Bytes)> = vec![
            ("index past the table", raw_delta(&table, [&[("a", v.clone(), &[3])], &[]])),
            ("gaps running past the table", raw_delta(&table, [&[], &[("a", v.clone(), &[1, 2])]])),
            (
                "descending indexes (a gap that wraps)",
                raw_delta(&table, [&[("a", v.clone(), &[2, u64::MAX])], &[]]),
            ),
            ("zero-length group", raw_delta(&table, [&[("a", v.clone(), &[])], &[]])),
            ("index into an empty table", raw_delta(&[], [&[("a", v.clone(), &[0])], &[]])),
            ("group count over the cap", {
                let mut buf = bytes::BytesMut::new();
                put_varint(&mut buf, 0);
                put_varint(&mut buf, (1 << 28) + 1);
                buf.freeze()
            }),
            ("table count over the cap", {
                let mut buf = bytes::BytesMut::new();
                put_varint(&mut buf, u64::MAX);
                buf.freeze()
            }),
            ("event count over the cap", {
                let mut buf = bytes::BytesMut::new();
                put_varint(&mut buf, 0);
                put_varint(&mut buf, 1);
                "a".to_string().encode(&mut buf);
                v.encode(&mut buf);
                put_varint(&mut buf, u64::MAX >> 1);
                buf.freeze()
            }),
        ];
        for (what, bytes) in bad {
            assert!(
                matches!(StatsDelta::from_bytes(&bytes), Err(WireError::BadLength(_))),
                "{what}: {:?}",
                StatsDelta::from_bytes(&bytes)
            );
        }
        // A table that ends early is an EOF, not a short table.
        let cut = raw_delta(&table, [&[], &[]]).slice(0..12);
        assert_eq!(StatsDelta::from_bytes(&cut).unwrap_err(), WireError::UnexpectedEof);
    }

    #[test]
    fn compact_cancels_matched_insert_delete_pairs() {
        let a = Triple::new("o1", "rating", Value::Int(5));
        let b = Triple::new("o2", "rating", Value::Int(3));
        let c = Triple::new("o3", "name", Value::str("carol"));
        let mut d = StatsDelta::new();
        // a inserted twice, deleted once → one insert survives.
        d.record_insert(a.clone());
        d.record_insert(a.clone());
        d.record_delete(a.clone());
        // b inserted and deleted → fully cancelled.
        d.record_insert(b.clone());
        d.record_delete(b.clone());
        // c only deleted → delete survives.
        d.record_delete(c.clone());
        d.compact();
        assert_eq!(events(&d), vec![event(INSERTED, &a), event(DELETED, &c)]);
        // b's OID left the table with it, and the delta still records.
        assert_eq!(d.oids.len(), 2);
        d.record_insert(b.clone());
        assert_eq!(d.len(), 3);
        assert_eq!(StatsDelta::from_bytes(&d.to_bytes()).unwrap().to_bytes(), d.to_bytes());

        // Compaction never changes the net effect on a snapshot.
        let net = NetParams { n_peers: 8.0, n_leaves: 8.0, replication: 1.0, hop_ms: 1.0 };
        let base = sample_triples();
        let mut d2 = StatsDelta::new();
        for t in &base[..3] {
            d2.record_insert(t.clone());
            d2.record_delete(t.clone());
        }
        d2.record_insert(Triple::new("z9", "rating", Value::Int(7)));
        let mut plain = GlobalStats::build(&base, net);
        let mut compacted = plain.clone();
        plain.apply_delta(&d2);
        d2.compact();
        compacted.apply_delta(&d2);
        assert_stats_match(&plain, &compacted);

        // Nothing to cancel: a no-op, not a reorder.
        let mut d3 = StatsDelta::new();
        d3.record_insert(b);
        d3.compact();
        assert_eq!(d3.len(), 1);
    }

    mod digest_matches_triple_lists {
        //! The digest is a change of representation, not of meaning:
        //! whatever is recorded, folding the digest equals folding the
        //! triples one by one — inserts, then deletes — and, when every
        //! delete names a live triple or a pair nobody wrote, a rebuild
        //! over the survivors.

        use super::*;
        use proptest::prelude::*;

        const NET: NetParams =
            NetParams { n_peers: 16.0, n_leaves: 16.0, replication: 1.0, hop_ms: 1.0 };

        /// A small alphabet so that duplicates, shared pairs and emptied
        /// attributes are the common case: OIDs of three lengths, three
        /// attributes, and values that collide every way values can —
        /// `Int(2)`/`Float(2.0)` (equal, different size), strings sharing
        /// q-grams, and two long strings sharing their whole key prefix.
        fn triple((o, a, v): (usize, usize, usize)) -> Triple {
            let value = match v % 8 {
                0 => Value::Int(2),
                1 => Value::Float(2.0),
                2 => Value::Float(2.5),
                3 => Value::Int(-7),
                4 => Value::str("icde"),
                5 => Value::str("icdt"),
                6 => Value::str("a-long-conference-name-2006"),
                _ => Value::str("a-long-conference-name-2007"),
            };
            let oid = ["o", "obj-1", "object-number-2", "p", "obj-2"][o % 5];
            Triple::new(oid, ["x", "y", "pub:z"][a % 3], value)
        }

        fn same_fact(a: &Triple, b: &Triple) -> bool {
            a.oid == b.oid && a.attr == b.attr && ValueRepr::of(&a.value) == ValueRepr::of(&b.value)
        }

        /// Plays `ops` against `live`, recording them: an insert always;
        /// a delete as asked when it names a live triple, and otherwise
        /// turned into a delete of a pair nobody ever writes. Returns the
        /// delta and the recorded inserts and deletes in order.
        fn play(
            ops: &[(bool, (usize, usize, usize))],
            live: &mut Vec<Triple>,
        ) -> (StatsDelta, Vec<Triple>, Vec<Triple>) {
            let (mut delta, mut ins, mut del) = (StatsDelta::new(), Vec::new(), Vec::new());
            for &(delete, spec) in ops {
                let mut t = triple(spec);
                if !delete {
                    delta.record_insert(t.clone());
                    live.push(t.clone());
                    ins.push(t);
                    continue;
                }
                match live.iter().position(|l| same_fact(l, &t)) {
                    Some(pos) => drop(live.remove(pos)),
                    None if spec.2 % 2 == 0 => t.attr = intern("ghost"),
                    None => t.value = Value::str("never-written"),
                }
                delta.record_delete(t.clone());
                del.push(t);
            }
            (delta, ins, del)
        }

        fn folded_one_by_one(base: &GlobalStats, ins: &[Triple], del: &[Triple]) -> GlobalStats {
            let mut s = base.clone();
            ins.iter().for_each(|t| s.apply_insert(t));
            del.iter().for_each(|t| s.apply_delete(t));
            s
        }

        fn spec() -> impl Strategy<Value = (usize, usize, usize)> {
            (0usize..5, 0usize..3, 0usize..8)
        }

        proptest! {
            #[test]
            fn apply_equals_per_triple_fold_equals_rebuild(
                base in proptest::collection::vec(spec(), 0..12),
                ops in proptest::collection::vec((any::<bool>(), spec()), 1..80),
                cut in 0usize..80,
            ) {
                let mut live: Vec<Triple> = base.into_iter().map(triple).collect();
                let start = GlobalStats::build(&live, NET);
                let cut = cut.min(ops.len());
                let (a, a_ins, a_del) = play(&ops[..cut], &mut live);
                let (b, b_ins, b_del) = play(&ops[cut..], &mut live);
                let rebuilt = GlobalStats::build(&live, NET);

                // a then b, as digests and triple by triple.
                let mut digests = start.clone();
                digests.apply_delta(&a);
                assert_stats_match(&digests, &folded_one_by_one(&start, &a_ins, &a_del));
                let after_a = digests.clone();
                digests.apply_delta(&b);
                assert_stats_match(&digests, &folded_one_by_one(&after_a, &b_ins, &b_del));
                assert_stats_match(&digests, &rebuilt);

                // One merged delta says the same as the two in turn …
                let mut merged = a.clone();
                merged.merge(b.clone());
                prop_assert_eq!(merged.len(), a.len() + b.len());
                let mut s = start.clone();
                s.apply_delta(&merged);
                assert_stats_match(&s, &rebuilt);
                // … so does its wire image …
                let bytes = merged.to_bytes();
                prop_assert_eq!(bytes.len(), merged.wire_size());
                let back = StatsDelta::from_bytes(&bytes).unwrap();
                prop_assert_eq!(back.to_bytes(), bytes);
                let mut s = start.clone();
                s.apply_delta(&back);
                assert_stats_match(&s, &rebuilt);
                // … and what is left of it after compaction.
                merged.compact();
                let mut s = start.clone();
                s.apply_delta(&merged);
                assert_stats_match(&s, &rebuilt);
            }

            /// Over-deleting (a known pair under OIDs that never held
            /// it, more deletes than inserts) is where group order could
            /// show; one pair per delta keeps the orders the same, and
            /// the fold must then saturate exactly as single deletes do.
            #[test]
            fn over_deletes_saturate_like_single_deletes(
                base in proptest::collection::vec(spec(), 0..12),
                pair in spec(),
                oids in proptest::collection::vec(0usize..5, 1..12),
            ) {
                let base: Vec<Triple> = base.into_iter().map(triple).collect();
                let start = GlobalStats::build(&base, NET);
                let mut oids = oids;
                oids.sort_unstable();
                let del: Vec<Triple> = oids.iter().map(|&o| triple((o, pair.1, pair.2))).collect();
                let mut d = StatsDelta::new();
                del.iter().for_each(|t| d.record_delete(t.clone()));
                let mut s = start.clone();
                s.apply_delta(&d);
                assert_stats_match(&s, &folded_one_by_one(&start, &[], &del));
            }

            /// `compact` cancels what the retired pairing over two triple
            /// lists cancelled: per identical triple, as many inserts as
            /// there are deletes to match them.
            #[test]
            fn compact_matches_the_list_pairing(
                ops in proptest::collection::vec((any::<bool>(), spec()), 0..60),
            ) {
                let mut d = StatsDelta::new();
                let (mut ins, mut del): (Vec<Triple>, Vec<Triple>) = (Vec::new(), Vec::new());
                for (delete, s) in ops {
                    let t = triple(s);
                    match delete {
                        true => { d.record_delete(t.clone()); del.push(t) }
                        false => { d.record_insert(t.clone()); ins.push(t) }
                    }
                }
                // The list pairing, verbatim but for comparing values by
                // representation: first unused identical delete wins.
                let mut used = vec![false; del.len()];
                ins.retain(|t| {
                    let pair = (0..del.len()).find(|&j| !used[j] && same_fact(&del[j], t));
                    pair.map(|j| used[j] = true).is_none()
                });
                let mut j = 0;
                del.retain(|_| { j += 1; !used[j - 1] });
                let mut want: Vec<String> = ins
                    .iter()
                    .map(|t| event(INSERTED, t))
                    .chain(del.iter().map(|t| event(DELETED, t)))
                    .collect();
                want.sort();

                d.compact();
                prop_assert_eq!(events(&d), want);
                // Still a well-formed digest: no empty group, no OID
                // nobody refers to, and it round-trips.
                prop_assert!(d.groups.iter().flatten().all(|g| !g.oids.is_empty()));
                let referred: FxHashMap<u32, ()> =
                    d.groups.iter().flatten().flat_map(|g| &g.oids).map(|&i| (i, ())).collect();
                prop_assert_eq!(referred.len(), d.oids.len());
                prop_assert_eq!(StatsDelta::from_bytes(&d.to_bytes()).unwrap().to_bytes(), d.to_bytes());
            }
        }
    }

    mod incremental_matches_rebuild {
        //! The tentpole property: after ANY insert/delete sequence, the
        //! incrementally maintained snapshot is indistinguishable from a
        //! from-scratch `GlobalStats::build` over the surviving triples.

        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn property(
                inserts in proptest::collection::vec(
                    ("[a-e]{1,3}", "[a-c]{1,2}", 0u64..40),
                    1..60,
                ),
                delete_picks in proptest::collection::vec(0usize..1000, 0..40),
            ) {
                let net = NetParams {
                    n_peers: 16.0, n_leaves: 16.0, replication: 1.0, hop_ms: 1.0,
                };
                // Mixed-type values: strings exercise the q-gram
                // counters, ints/floats the numeric key space.
                let triples: Vec<Triple> = inserts
                    .iter()
                    .map(|(oid, attr, n)| {
                        let v = match n % 3 {
                            0 => Value::Int(*n as i64 - 20),
                            1 => Value::Float(*n as f64 / 4.0),
                            _ => Value::str(&format!("s{}", n % 7)),
                        };
                        Triple::new(oid, attr, v)
                    })
                    .collect();
                let mut live = GlobalStats::empty(net);
                let mut survivors: Vec<Triple> = Vec::new();
                // Interleave: insert everything, deleting a previously
                // inserted survivor after every few inserts.
                let mut picks = delete_picks.iter();
                for (i, t) in triples.iter().enumerate() {
                    live.apply_insert(t);
                    survivors.push(t.clone());
                    if i % 3 == 2 {
                        if let Some(p) = picks.next() {
                            if !survivors.is_empty() {
                                let victim = survivors.remove(p % survivors.len());
                                live.apply_delete(&victim);
                            }
                        }
                    }
                }
                let fresh = GlobalStats::build(&survivors, net);
                assert_stats_match(&live, &fresh);
            }
        }
    }
}
