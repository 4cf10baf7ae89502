//! The statistics snapshot: [`GlobalStats`] and its per-attribute
//! [`AttrStats`]. A snapshot built from triples is *exact*: it keeps
//! the refcount maps that let write deltas fold forward without drift
//! (the driver's master model, and the shard homes' slices of it). The
//! snapshots peers plan on are *summaries*: the published
//! [`AttrStats`] of every attribute and the distinct counts of every
//! shard, installed from flush notices.

use std::sync::Arc;

use unistore_store::index::attr_value_key;
use unistore_store::qgram;
use unistore_store::{Triple, Value};
use unistore_util::stats::Histogram;
use unistore_util::wire::Wire;
use unistore_util::FxHashMap;

use super::delta::{oid_ref, oid_wire_size, OidRef, StatsDelta, DELETED, INSERTED};
use super::estimator::{NetParams, UNKNOWN_ATTR_SELECTIVITY};
use super::notice::{ShardSummary, StatsNotice};
use super::shards::{attr_shard, value_shard, OidCounts, StatsHome, STATS_SHARDS};

/// Bumps a refcount by `n`, stopping at `u32::MAX`: counts that come
/// off the wire are bounded per message, not across messages.
pub(super) fn bump<K: std::hash::Hash + Eq>(map: &mut FxHashMap<K, u32>, k: K, n: u32) {
    let rc = map.entry(k).or_insert(0);
    *rc = rc.saturating_add(n);
}

/// Drops a refcount by `n`, removing the entry when it reaches zero.
/// Unknown keys are ignored and known ones stop at zero (saturating
/// semantics).
pub(super) fn unbump<K: std::hash::Hash + Eq>(map: &mut FxHashMap<K, u32>, k: &K, n: u32) {
    if let Some(rc) = map.get_mut(k) {
        *rc = rc.saturating_sub(n);
        if *rc == 0 {
            map.remove(k);
        }
    }
}

/// The refcount maps behind an attribute's distinct counts. Only exact
/// statistics hold them: the master model and the attribute's home.
#[derive(Clone, Debug, Default, PartialEq)]
pub(super) struct AttrRefs {
    /// Live key-space values (drives `distinct`).
    values: FxHashMap<u64, u32>,
    /// Live semantic values (drives `join_distinct`). A value's first
    /// triple posts its grams and its last unposts them.
    join_values: FxHashMap<u64, u32>,
    /// Live q-grams, each counting the distinct values holding it
    /// (drives `gram_distinct`).
    grams: FxHashMap<u32, u32>,
}

/// Per-attribute statistics.
///
/// The public fields are the numbers the cost formulas consume. Exact
/// statistics also keep the refcount maps that let deltas keep them
/// *exact* under interleaved inserts and deletes (an incrementally
/// maintained snapshot is indistinguishable from a fresh
/// [`GlobalStats::build`] over the surviving triples — property-tested
/// in `cost::tests`). A summary ([`AttrStats::summary`]) keeps the
/// numbers and the histogram's buckets only.
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
    /// Wire bytes of the attribute's triples (the snapshot's byte sum,
    /// and with it `avg_triple_bytes`, is their total).
    pub bytes: f64,
    /// The refcount maps, in exact statistics only.
    pub(super) refs: Option<Box<AttrRefs>>,
}

/// The distinct q-grams of `s`: one posting each.
fn posted_grams(s: &str) -> Vec<u32> {
    let mut gs = qgram::qgrams(s);
    gs.sort_unstable();
    gs.dedup();
    gs
}

impl AttrStats {
    /// Empty statistics for one attribute, exact or a summary. The
    /// histogram spans exactly this attribute's slice of the key space,
    /// so its 256 buckets resolve value ranges *within* the attribute.
    pub(super) fn empty(attr: &str, exact: bool) -> Self {
        let (lo, hi) = unistore_store::index::attr_range(attr);
        AttrStats {
            count: 0.0,
            distinct: 0.0,
            join_distinct: 0.0,
            hist: match exact {
                true => Histogram::new(lo, hi, HIST_BUCKETS),
                false => Histogram::from_summary(lo, hi, HIST_BUCKETS, [], 0),
            },
            gram_postings: 0.0,
            gram_distinct: 0.0,
            bytes: 0.0,
            refs: exact.then(Box::default),
        }
    }

    /// These statistics without the refcount maps: what a shard home
    /// publishes and a peer plans on.
    pub fn summary(&self) -> AttrStats {
        AttrStats {
            count: self.count,
            distinct: self.distinct,
            join_distinct: self.join_distinct,
            hist: self.hist.summary(),
            gram_postings: self.gram_postings,
            gram_distinct: self.gram_distinct,
            bytes: self.bytes,
            refs: None,
        }
    }

    /// Whether these statistics keep their refcount maps.
    pub fn is_exact(&self) -> bool {
        self.refs.is_some()
    }

    /// How many of `n` deletes under `value` the statistics can take:
    /// exact ones as many as they count triples of the value itself —
    /// of its key bits and of its semantic value, as the store's
    /// identity is semantic — a summary as many as it counts triples at
    /// all. A delete naming a value that only shares its key bits with
    /// a live one takes nothing, as it deletes nothing in the store.
    pub(super) fn deletable(&self, value: &Value, n: u32) -> u32 {
        let held = match &self.refs {
            Some(refs) => {
                let count = |map: &FxHashMap<u64, u32>, k| map.get(&k).copied().unwrap_or(0);
                count(&refs.values, value.key_bits())
                    .min(count(&refs.join_values, value.semantic_hash()))
            }
            None => u32::try_from(self.count as u64).unwrap_or(u32::MAX),
        };
        n.min(held)
    }

    /// Counts `n` triples of `(attr, value)` whose OIDs take
    /// `oid_bytes` on the wire. A summary moves its count, bytes and
    /// histogram buckets only.
    pub(super) fn add(&mut self, attr: &Arc<str>, value: &Value, n: u32, oid_bytes: u64) {
        self.count += n as f64;
        self.bytes += pair_sum(attr, value, n, oid_bytes);
        self.hist.add_n(attr_value_key(attr, value), n);
        let Some(refs) = &mut self.refs else { return };
        bump(&mut refs.values, value.key_bits(), n);
        self.distinct = refs.values.len() as f64;
        let semantic = value.semantic_hash();
        let first = !refs.join_values.contains_key(&semantic);
        bump(&mut refs.join_values, semantic, n);
        self.join_distinct = refs.join_values.len() as f64;
        if let (true, Value::Str(s)) = (first, value) {
            let gs = posted_grams(s);
            self.gram_postings += gs.len() as f64;
            for g in gs {
                bump(&mut refs.grams, g, 1);
            }
            self.gram_distinct = refs.grams.len() as f64;
        }
    }

    /// The inverse of [`AttrStats::add`] for `n` triples the
    /// statistics count ([`AttrStats::deletable`]). The value's q-gram
    /// postings stay stored when its last triple goes (nothing deletes
    /// a gram key), so these statistics count live values' postings,
    /// not stale ones.
    pub(super) fn remove(&mut self, attr: &Arc<str>, value: &Value, n: u32, oid_bytes: u64) {
        self.count -= n as f64;
        // A delete may name a value of another size than the one it
        // takes (`Int(2)` for `Float(2.0)`): the sum stops at zero.
        self.bytes = (self.bytes - pair_sum(attr, value, n, oid_bytes)).max(0.0);
        self.hist.remove_n(attr_value_key(attr, value), n);
        let Some(refs) = &mut self.refs else { return };
        unbump(&mut refs.values, &value.key_bits(), n);
        self.distinct = refs.values.len() as f64;
        let semantic = value.semantic_hash();
        let held = refs.join_values.contains_key(&semantic);
        unbump(&mut refs.join_values, &semantic, n);
        self.join_distinct = refs.join_values.len() as f64;
        if let (true, Value::Str(s)) = (held && !refs.join_values.contains_key(&semantic), value) {
            let gs = posted_grams(s);
            self.gram_postings -= gs.len() as f64;
            for g in gs {
                unbump(&mut refs.grams, &g, 1);
            }
            self.gram_distinct = refs.grams.len() as f64;
        }
    }
}

/// Buckets of every attribute's histogram.
pub(super) const HIST_BUCKETS: usize = 256;

/// The per-object state of exact statistics: live OID fingerprints
/// (two OIDs that share a fingerprint count once) and live value key
/// bits across all attributes, each refcounted by live triples.
#[derive(Clone, Debug, Default, PartialEq)]
pub(super) struct ObjectMaps {
    pub(super) oids: OidCounts,
    pub(super) values: FxHashMap<u64, u32>,
}

/// Global statistics: what the paper's peers gossip. Bulk-built once
/// per load, then maintained incrementally: in the driver's master
/// model every routed write folds in as an O(delta)
/// [`GlobalStats::apply_delta`] instead of a rescan of every triple;
/// peers hold a summary snapshot and install what the shard homes
/// publish ([`GlobalStats::install`]; protocol described in DESIGN.md
/// §"Statistics distribution").
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
    /// copies of a snapshot share every attribute a fold leaves alone,
    /// and peers that install one notice share its summaries.
    pub attrs: FxHashMap<Arc<str>, Arc<AttrStats>>,
    /// Overlay parameters.
    pub net: NetParams,
    /// Running sum of triple wire sizes (drives `avg_triple_bytes`).
    bytes: f64,
    /// The OID and value maps, in exact statistics only.
    pub(super) objects: Option<Box<ObjectMaps>>,
    /// A summary snapshot's distinct counts per shard, newest
    /// publication each (`oid_distinct` and `value_distinct` are their
    /// sums).
    shards: [ShardSummary; STATS_SHARDS as usize],
    /// A summary snapshot's newest publication number per attribute,
    /// kept after an attribute is gone so an older publication cannot
    /// bring it back.
    versions: FxHashMap<Arc<str>, u64>,
}

impl GlobalStats {
    /// Exact statistics of an empty system.
    pub fn empty(net: NetParams) -> Self {
        GlobalStats {
            total: 0.0,
            oid_distinct: 0.0,
            value_distinct: 0.0,
            avg_triple_bytes: 16.0,
            attrs: FxHashMap::default(),
            net,
            bytes: 0.0,
            objects: Some(Box::default()),
            shards: Default::default(),
            versions: FxHashMap::default(),
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
    /// refcounts and the byte sum. A summary snapshot (a write
    /// origin's planning view) moves its counts, bytes and histogram
    /// buckets only, and takes a delete as far as it counts triples of
    /// the attribute.
    pub fn apply_delta(&mut self, delta: &StatsDelta) {
        for g in &delta.groups[INSERTED] {
            self.fold_inserts(&g.attr, &g.value, delta.oids_of(g));
        }
        for g in &delta.groups[DELETED] {
            self.fold_deletes(&g.attr, &g.value, delta.oids_of(g));
        }
    }

    /// Installs what a flush notice publishes: every attribute summary
    /// and every shard's counts newer than the ones held. An attribute
    /// published with no triples leaves the snapshot, as a fresh build
    /// would not hold it. The totals, the byte sum and the distinct
    /// OID and value counts are then the sums over what is held, so a
    /// snapshot that missed a publication is exact again at the next
    /// one.
    pub fn install(&mut self, notice: &StatsNotice) {
        for s in &notice.attrs {
            if s.seq <= self.versions.get(&s.attr).copied().unwrap_or(0) {
                continue;
            }
            self.versions.insert(s.attr.clone(), s.seq);
            match s.stats.count > 0.0 {
                true => self.attrs.insert(s.attr.clone(), s.stats.clone()),
                false => self.attrs.remove(&s.attr),
            };
        }
        for &(shard, counts) in &notice.shards {
            if let Some(held) = self.shards.get_mut(shard as usize) {
                if counts.seq > held.seq {
                    *held = counts;
                }
            }
        }
        self.total = self.attrs.values().map(|a| a.count).sum();
        self.bytes = self.attrs.values().map(|a| a.bytes).sum();
        self.avg_triple_bytes = if self.total > 0.0 { self.bytes / self.total } else { 16.0 };
        self.oid_distinct = self.shards.iter().map(|s| s.oids as f64).sum();
        self.value_distinct = self.shards.iter().map(|s| s.values as f64).sum();
    }

    /// The summary snapshot of exact statistics: every attribute's
    /// summary and every shard's distinct counts, at publication 0.
    /// What the bulk load hands every peer.
    pub fn summary(&self) -> GlobalStats {
        let mut shards: [ShardSummary; STATS_SHARDS as usize] = Default::default();
        if let Some(objects) = &self.objects {
            for s in 0..STATS_SHARDS {
                shards[s as usize] = ShardSummary {
                    seq: 0,
                    oids: objects.oids.shard_len(s) as u64,
                    values: objects.values.keys().filter(|&&b| value_shard(b) == s).count() as u64,
                };
            }
        }
        GlobalStats {
            total: self.total,
            oid_distinct: self.oid_distinct,
            value_distinct: self.value_distinct,
            avg_triple_bytes: self.avg_triple_bytes,
            attrs: self.attrs.iter().map(|(k, a)| (k.clone(), Arc::new(a.summary()))).collect(),
            net: self.net,
            bytes: self.bytes,
            objects: None,
            shards,
            versions: self.versions.clone(),
        }
    }

    /// The slice of exact statistics that shard `shard`'s home holds:
    /// the shard's OID fingerprints and value key bits, and the exact
    /// statistics of every attribute homed there, each published at 0.
    /// `None` for a summary snapshot.
    pub fn home(&self, shard: u8) -> Option<StatsHome> {
        let objects = self.objects.as_ref()?;
        let values =
            objects.values.iter().filter(|(&b, _)| value_shard(b) == shard).map(|(&b, &n)| (b, n));
        let attrs = self
            .attrs
            .iter()
            .filter(|(k, _)| attr_shard(k) == shard)
            .map(|(k, a)| (k.clone(), a.clone()));
        Some(StatsHome::new(shard, objects.oids.shard(shard), values.collect(), attrs.collect()))
    }

    /// Exact statistics united from the shard homes' slices: what the
    /// homes hold together, comparable field for field with a build.
    pub fn from_homes<'a>(homes: impl IntoIterator<Item = &'a StatsHome>, net: NetParams) -> Self {
        let mut stats = GlobalStats::empty(net);
        let mut objects = ObjectMaps::default();
        for home in homes {
            objects.oids.absorb(&home.oids);
            for (&bits, &n) in &home.values {
                bump(&mut objects.values, bits, n);
            }
            stats.attrs.extend(home.attrs.iter().map(|(k, a)| (k.clone(), a.clone())));
        }
        stats.total = stats.attrs.values().map(|a| a.count).sum();
        stats.bytes = stats.attrs.values().map(|a| a.bytes).sum();
        stats.avg_triple_bytes = if stats.total > 0.0 { stats.bytes / stats.total } else { 16.0 };
        stats.oid_distinct = objects.oids.len() as f64;
        stats.value_distinct = objects.values.len() as f64;
        stats.objects = Some(Box::new(objects));
        stats
    }

    /// Whether every number the cost formulas read — the totals, the
    /// byte sum, the distinct counts, and each attribute's summary —
    /// is equal in both snapshots, exact or summary alike.
    pub fn same_estimates(&self, other: &GlobalStats) -> bool {
        let scalars = |s: &GlobalStats| {
            [s.total, s.oid_distinct, s.value_distinct, s.avg_triple_bytes, s.bytes]
        };
        scalars(self) == scalars(other)
            && self.attrs.len() == other.attrs.len()
            && self
                .attrs
                .iter()
                .all(|(k, a)| other.attrs.get(k).is_some_and(|b| a.summary() == b.summary()))
    }

    /// Whether the snapshot keeps the OID and value maps (built from
    /// triples) rather than summaries.
    pub fn is_exact(&self) -> bool {
        self.objects.is_some()
    }

    /// The OID refcount map of exact statistics.
    pub fn oids(&self) -> Option<&OidCounts> {
        self.objects.as_ref().map(|o| &o.oids)
    }

    /// A summary snapshot's newest publication number of `attr` (0: the
    /// load's).
    pub fn version(&self, attr: &str) -> u64 {
        self.versions.get(attr).copied().unwrap_or(0)
    }

    /// A summary snapshot's newest counts of each shard.
    pub fn shard_counts(&self) -> &[ShardSummary] {
        &self.shards
    }

    /// Folds in the triples `(oid, attr, value)` for every given OID:
    /// the OID refcounts and the byte sum per triple, everything that
    /// depends on the pair alone once, counted by the group's size. A
    /// single insert is a group of one.
    fn fold_inserts(
        &mut self,
        attr: &Arc<str>,
        value: &Value,
        oids: impl ExactSizeIterator<Item = OidRef>,
    ) {
        let n = oids.len() as u32;
        let mut oid_bytes = 0;
        for (fingerprint, len) in oids {
            oid_bytes += oid_wire_size(len) as u64;
            if let Some(objects) = &mut self.objects {
                objects.oids.bump(fingerprint, 1);
            }
        }
        if let Some(objects) = &self.objects {
            self.oid_distinct = objects.oids.len() as f64;
        }
        self.add_pair(attr, value, n, oid_bytes);
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
        let n = self.attr(attr).map_or(0, |a| a.deletable(value, oids.len() as u32));
        if n == 0 {
            return;
        }
        let mut oid_bytes = 0;
        for (fingerprint, len) in oids.take(n as usize) {
            oid_bytes += oid_wire_size(len) as u64;
            if let Some(objects) = &mut self.objects {
                objects.oids.unbump(fingerprint, 1);
            }
        }
        if let Some(objects) = &self.objects {
            self.oid_distinct = objects.oids.len() as f64;
        }
        self.remove_pair(attr, value, n, oid_bytes);
    }

    /// Counts `n` triples of `(attr, value)` whose OIDs take `oid_bytes`
    /// on the wire: everything but the OID refcounts.
    fn add_pair(&mut self, attr: &Arc<str>, value: &Value, n: u32, oid_bytes: u64) {
        self.bytes += pair_sum(attr, value, n, oid_bytes);
        self.total += n as f64;
        self.avg_triple_bytes = self.bytes / self.total;
        if let Some(objects) = &mut self.objects {
            bump(&mut objects.values, value.key_bits(), n);
            self.value_distinct = objects.values.len() as f64;
        }
        let exact = self.objects.is_some();
        let a = self
            .attrs
            .entry(attr.clone())
            .or_insert_with(|| Arc::new(AttrStats::empty(attr, exact)));
        Arc::make_mut(a).add(attr, value, n, oid_bytes);
    }

    /// The inverse of [`GlobalStats::add_pair`] for `n` triples the
    /// snapshot counts ([`AttrStats::deletable`]).
    fn remove_pair(&mut self, attr: &Arc<str>, value: &Value, n: u32, oid_bytes: u64) {
        let Some(a) = self.attrs.get_mut(attr) else { return };
        let a = Arc::make_mut(a);
        let before = a.bytes;
        a.remove(attr, value, n, oid_bytes);
        let gone = a.count <= 0.0;
        // The byte sum stays the sum over the attributes held: an
        // attribute whose last triple goes takes all its bytes with it,
        // also what a delete of a differently sized value left.
        self.bytes -= if gone { before } else { before - a.bytes };
        self.total -= n as f64;
        self.avg_triple_bytes = if self.total > 0.0 { self.bytes / self.total } else { 16.0 };
        if let Some(objects) = &mut self.objects {
            unbump(&mut objects.values, &value.key_bits(), n);
            self.value_distinct = objects.values.len() as f64;
        }
        if gone {
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

/// The wire bytes of `n` triples of `(attr, value)` whose OIDs take
/// `oid_bytes`, saturating rather than wrapping on a hostile piece's
/// sums.
pub(super) fn pair_sum(attr: &Arc<str>, value: &Value, n: u32, oid_bytes: u64) -> f64 {
    let pair_bytes = (attr.wire_size() + value.wire_size()) as u64;
    oid_bytes.saturating_add(n as u64 * pair_bytes) as f64
}
