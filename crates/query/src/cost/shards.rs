//! The statistics shards: where the exact statistics live, away from
//! the snapshots peers plan on (DESIGN.md § Statistics distribution).
//!
//! Exact statistics are split into [`STATS_SHARDS`] shards. Shard `s`
//! holds the OID fingerprints whose top two bits are `s`, the value key
//! bits that [`value_shard`] puts there, and the exact [`AttrStats`] of
//! every attribute whose name [`attr_shard`] puts there. Each shard
//! lives at one home peer as a [`StatsHome`]. A flush
//! ([`StatsFlush`]) sends each home a [`StatsPiece`], its parts of the
//! written delta; the home folds it and publishes, in its ack, every
//! summary that has drifted past ε since it last published it.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::{Buf, BufMut};

use unistore_store::Value;
use unistore_util::fxhash::{hash_bytes, mix64};
use unistore_util::wire::{decode_str, get_len, get_varint, put_varint, varint_size};
use unistore_util::wire::{Wire, WireError, MAX_LEN};
use unistore_util::{intern, FxHashMap};

use super::delta::{attr_index, attr_table, oid_wire_size, StatsDelta, DELETED, INSERTED};
use super::notice::{AttrSummary, ShardSummary, StatsNotice};
use super::statistics::{bump, unbump, AttrStats};

/// How many shards the exact statistics are split into.
pub const STATS_SHARDS: u8 = 4;

/// The shard of an OID fingerprint: its top two bits.
pub fn oid_shard(fingerprint: u32) -> u8 {
    (fingerprint >> 30) as u8
}

/// The shard of a value's key bits: the top two bits of their mix (the
/// key bits themselves are order-preserving, so their own top bits
/// would put every number in one shard).
pub fn value_shard(key_bits: u64) -> u8 {
    (mix64(key_bits) >> 62) as u8
}

/// The shard an attribute's statistics live in: the top two bits of
/// its name's hash.
pub fn attr_shard(attr: &str) -> u8 {
    (hash_bytes(attr.as_bytes()) >> 62) as u8
}

/// Live OID fingerprints, each with the number of live triples under
/// it. Distinct OIDs are counted by fingerprint (see `oid_ref`), so two
/// OIDs that share one count once.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OidCounts(FxHashMap<u32, u32>);

impl OidCounts {
    /// Distinct live fingerprints.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no fingerprint is live.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Live triples under `fingerprint`.
    pub fn get(&self, fingerprint: u32) -> u32 {
        self.0.get(&fingerprint).copied().unwrap_or(0)
    }

    /// Adds `n` triples under `fingerprint`.
    pub(super) fn bump(&mut self, fingerprint: u32, n: u32) {
        bump(&mut self.0, fingerprint, n);
    }

    /// Removes `n` triples under `fingerprint`, stopping at zero and
    /// dropping the fingerprint there.
    pub(super) fn unbump(&mut self, fingerprint: u32, n: u32) {
        unbump(&mut self.0, &fingerprint, n);
    }

    /// Folds signed per-fingerprint counts (a piece's entries), removals
    /// saturating at zero.
    pub fn apply(&mut self, entries: &[(u32, i32)]) {
        for &(fingerprint, n) in entries {
            match n >= 0 {
                true => self.bump(fingerprint, n as u32),
                false => self.unbump(fingerprint, n.unsigned_abs()),
            }
        }
    }

    /// The fingerprints of one shard, with their counts.
    pub fn shard(&self, shard: u8) -> OidCounts {
        OidCounts(
            self.0.iter().filter(|(&f, _)| oid_shard(f) == shard).map(|(&f, &n)| (f, n)).collect(),
        )
    }

    /// Distinct live fingerprints of one shard.
    pub fn shard_len(&self, shard: u8) -> usize {
        self.0.keys().filter(|&&f| oid_shard(f) == shard).count()
    }

    /// Adds every count of `other` (uniting shards).
    pub fn absorb(&mut self, other: &OidCounts) {
        for (&fingerprint, &n) in &other.0 {
            self.bump(fingerprint, n);
        }
    }
}

/// Triples of one `(attr, value)` pair that a flush inserts: how many,
/// and the wire bytes of their OIDs.
#[derive(Clone, Debug, PartialEq)]
pub(super) struct PieceInsert {
    pub(super) attr: Arc<str>,
    pub(super) value: Value,
    /// Triples, never zero.
    pub(super) count: u32,
    /// Sum of the triples' OID wire sizes.
    pub(super) oid_bytes: u64,
}

/// Triples of one `(attr, value)` pair that a flush deletes: the length
/// of each one's OID, in the delta's order. The home takes as many from
/// the front as it counts triples of the pair.
#[derive(Clone, Debug, PartialEq)]
pub(super) struct PieceDelete {
    pub(super) attr: Arc<str>,
    pub(super) value: Value,
    /// OID lengths, never empty.
    pub(super) lens: Vec<u32>,
}

/// One shard's parts of a statistics flush: the pair groups of the
/// attributes homed in the shard, and the signed change of live triples
/// under each of the shard's OID fingerprints and value key bits that
/// the flush touches (ascending, none zero).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatsPiece {
    /// The shard, below [`STATS_SHARDS`]; every attribute, fingerprint
    /// and key bits of the piece belongs to it.
    pub shard: u8,
    pub(super) inserts: Vec<PieceInsert>,
    pub(super) deletes: Vec<PieceDelete>,
    /// `(fingerprint, change)`, strictly ascending by fingerprint.
    pub oids: Vec<(u32, i32)>,
    /// `(key bits, change)`, strictly ascending by key bits.
    pub values: Vec<(u64, i32)>,
}

impl StatsPiece {
    /// Whether the piece carries nothing.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty()
            && self.deletes.is_empty()
            && self.oids.is_empty()
            && self.values.is_empty()
    }

    /// Delete groups the piece carries: its home answers with how many
    /// of each it took.
    pub fn delete_groups(&self) -> usize {
        self.deletes.len()
    }

    fn attr_table(&self) -> Vec<&Arc<str>> {
        attr_table(self.inserts.iter().map(|g| &g.attr).chain(self.deletes.iter().map(|g| &g.attr)))
    }
}

/// A signed change as it travels: a nonzero `i32`, zigzag-encoded.
fn decode_change(buf: &mut bytes::Bytes) -> Result<i32, WireError> {
    let change = i64::decode(buf)?;
    match i32::try_from(change) {
        Ok(c) if c != 0 => Ok(c),
        _ => Err(WireError::BadLength(change as u64)),
    }
}

// Layout: the shard (one byte); the attribute table (count; the names,
// each once); the inserted groups (count; per group the attribute's
// table index, the value, the triple count and the OID byte sum); the
// deleted groups (count; per group the index, the value, the OID count
// and each OID's length); the OID changes (count; per entry the
// fingerprint as 4 fixed bytes and the change as a zigzag varint); the
// value changes (count; per entry the key bits as 8 fixed bytes and the
// change).
impl Wire for StatsPiece {
    fn encode(&self, buf: &mut bytes::BytesMut) {
        buf.put_u8(self.shard);
        let attrs = self.attr_table();
        put_varint(buf, attrs.len() as u64);
        attrs.iter().for_each(|a| a.encode(buf));
        put_varint(buf, self.inserts.len() as u64);
        for g in &self.inserts {
            put_varint(buf, attr_index(&attrs, &g.attr));
            g.value.encode(buf);
            put_varint(buf, g.count as u64);
            put_varint(buf, g.oid_bytes);
        }
        put_varint(buf, self.deletes.len() as u64);
        for g in &self.deletes {
            put_varint(buf, attr_index(&attrs, &g.attr));
            g.value.encode(buf);
            put_varint(buf, g.lens.len() as u64);
            g.lens.iter().for_each(|&len| put_varint(buf, len as u64));
        }
        put_varint(buf, self.oids.len() as u64);
        for &(fingerprint, n) in &self.oids {
            buf.put_u32(fingerprint);
            (n as i64).encode(buf);
        }
        put_varint(buf, self.values.len() as u64);
        for &(bits, n) in &self.values {
            buf.put_u64(bits);
            (n as i64).encode(buf);
        }
    }

    fn decode(buf: &mut bytes::Bytes) -> Result<Self, WireError> {
        let shard = u8::decode(buf)?;
        if shard >= STATS_SHARDS {
            return Err(WireError::BadTag(shard));
        }
        let n_attrs = get_len(buf)?;
        let mut attrs: Vec<Arc<str>> = Vec::with_capacity(n_attrs.min(1024));
        for _ in 0..n_attrs {
            // A home folds every group it gets: an attribute of another
            // shard would be counted at two homes.
            let attr: Arc<str> = decode_str(buf, intern)?;
            if attr_shard(&attr) != shard {
                return Err(WireError::BadTag(attr_shard(&attr)));
            }
            attrs.push(attr);
        }
        let mut used = vec![false; attrs.len()];
        let mut attr_at = |buf: &mut bytes::Bytes| {
            let at = get_varint(buf)?;
            let i = usize::try_from(at).ok().filter(|&i| i < attrs.len());
            let i = i.ok_or(WireError::BadLength(at))?;
            if let Some(u) = used.get_mut(i) {
                *u = true;
            }
            attrs.get(i).cloned().ok_or(WireError::BadLength(at))
        };
        let n = get_len(buf)?;
        let mut inserts = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let (attr, value) = (attr_at(buf)?, Value::decode(buf)?);
            let count = u32::try_from(get_varint(buf)?).map_err(|_| WireError::BadLength(0))?;
            if count == 0 {
                return Err(WireError::BadLength(0));
            }
            // Every OID takes at least one byte and at most what the
            // longest decodable string does; the home sums these bytes.
            let oid_bytes = get_varint(buf)?;
            let most = count as u64 * oid_wire_size(MAX_LEN as u32) as u64;
            if !(count as u64..=most).contains(&oid_bytes) {
                return Err(WireError::BadLength(oid_bytes));
            }
            inserts.push(PieceInsert { attr, value, count, oid_bytes });
        }
        let n = get_len(buf)?;
        let mut deletes = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let (attr, value) = (attr_at(buf)?, Value::decode(buf)?);
            let count = get_len(buf)?;
            if count == 0 || count > u32::MAX as usize {
                return Err(WireError::BadLength(count as u64));
            }
            let mut lens = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                let len = get_varint(buf)?;
                if len > MAX_LEN {
                    return Err(WireError::BadLength(len));
                }
                lens.push(len as u32);
            }
            deletes.push(PieceDelete { attr, value, lens });
        }
        // The encoder names only the attributes its groups use.
        if let Some(unused) = used.iter().position(|&u| !u) {
            return Err(WireError::BadLength(unused as u64));
        }
        // A home folds the changes as they come: an entry of another
        // shard would count there, a repeat or a zero would break the
        // canonical form the sizes are computed from.
        let n = get_len(buf)?;
        let mut oids: Vec<(u32, i32)> = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            if buf.remaining() < 4 {
                return Err(WireError::UnexpectedEof);
            }
            let fingerprint = buf.get_u32();
            let ascending = oids.last().is_none_or(|&(prev, _)| prev < fingerprint);
            if oid_shard(fingerprint) != shard || !ascending {
                return Err(WireError::BadLength(fingerprint as u64));
            }
            oids.push((fingerprint, decode_change(buf)?));
        }
        let n = get_len(buf)?;
        let mut values: Vec<(u64, i32)> = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            if buf.remaining() < 8 {
                return Err(WireError::UnexpectedEof);
            }
            let bits = buf.get_u64();
            let ascending = values.last().is_none_or(|&(prev, _)| prev < bits);
            if value_shard(bits) != shard || !ascending {
                return Err(WireError::BadLength(bits));
            }
            values.push((bits, decode_change(buf)?));
        }
        Ok(StatsPiece { shard, inserts, deletes, oids, values })
    }

    fn wire_size(&self) -> usize {
        let attrs = self.attr_table();
        let inserts = self.inserts.iter().map(|g| {
            varint_size(attr_index(&attrs, &g.attr))
                + g.value.wire_size()
                + varint_size(g.count as u64)
                + varint_size(g.oid_bytes)
        });
        let deletes = self.deletes.iter().map(|g| {
            varint_size(attr_index(&attrs, &g.attr))
                + g.value.wire_size()
                + varint_size(g.lens.len() as u64)
                + g.lens.iter().map(|&len| varint_size(len as u64)).sum::<usize>()
        });
        let oids = self.oids.iter().map(|&(_, n)| 4 + (n as i64).wire_size());
        let values = self.values.iter().map(|&(_, n)| 8 + (n as i64).wire_size());
        1 + varint_size(attrs.len() as u64)
            + attrs.iter().map(|a| a.wire_size()).sum::<usize>()
            + varint_size(self.inserts.len() as u64)
            + inserts.sum::<usize>()
            + varint_size(self.deletes.len() as u64)
            + deletes.sum::<usize>()
            + varint_size(self.oids.len() as u64)
            + oids.sum::<usize>()
            + varint_size(self.values.len() as u64)
            + values.sum::<usize>()
    }
}

/// A compacted outbox on its way to the shard homes.
///
/// The attribute homes settle the deletes: each takes from the front of
/// a delete group as many triples as it counts of the pair, as the
/// master's fold does. The OID and value changes of a flush with
/// deletes therefore go in a second round, once the attribute homes
/// have answered, in one piece per shard with the inserts' changes: a
/// shard's removals stop at zero, so it must see a flush's inserts no
/// later than its deletes to count what the fold counts. A flush
/// without deletes needs one round.
#[derive(Clone, Debug)]
pub struct StatsFlush {
    delta: StatsDelta,
    /// How many triples of each delete group its home took (zero until
    /// it answers).
    settled: Vec<u32>,
}

impl StatsFlush {
    /// A flush of a compacted delta.
    pub fn new(delta: StatsDelta) -> Self {
        let settled = vec![0; delta.groups[DELETED].len()];
        StatsFlush { delta, settled }
    }

    /// Whether the flush deletes anything, and so takes two rounds.
    pub fn has_deletes(&self) -> bool {
        !self.delta.groups[DELETED].is_empty()
    }

    /// The first round's pieces, in shard order: the pair groups of the
    /// attributes homed at each shard, and — when the flush has no
    /// deletes — the OID and value changes too.
    pub fn first_pieces(&self) -> Vec<StatsPiece> {
        let mut pieces = self.empty_pieces();
        for g in &self.delta.groups[INSERTED] {
            let oid_bytes = self.delta.oids_of(g).map(|(_, len)| oid_wire_size(len) as u64).sum();
            let count = g.oids.len() as u32;
            let group =
                PieceInsert { attr: g.attr.clone(), value: g.value.clone(), count, oid_bytes };
            pieces[attr_shard(&g.attr) as usize].inserts.push(group);
        }
        for g in &self.delta.groups[DELETED] {
            let lens = self.delta.oids_of(g).map(|(_, len)| len).collect();
            let group = PieceDelete { attr: g.attr.clone(), value: g.value.clone(), lens };
            pieces[attr_shard(&g.attr) as usize].deletes.push(group);
        }
        if !self.has_deletes() {
            self.add_object_changes(&mut pieces);
        }
        pieces.into_iter().filter(|p| !p.is_empty()).collect()
    }

    /// Records how many triples of each delete group of its piece the
    /// home of `shard` took (in the piece's order).
    pub fn settle(&mut self, shard: u8, taken: &[u32]) {
        let groups = self.delta.groups[DELETED].iter().enumerate();
        let mine = groups.filter(|(_, g)| attr_shard(&g.attr) == shard).map(|(i, _)| i);
        for (i, &n) in mine.zip(taken) {
            if let Some(slot) = self.settled.get_mut(i) {
                *slot = n;
            }
        }
    }

    /// The second round's pieces of a flush with deletes, in shard
    /// order: the OID and value changes of the inserts and of the
    /// deletes the homes settled.
    pub fn object_pieces(&self) -> Vec<StatsPiece> {
        let mut pieces = self.empty_pieces();
        self.add_object_changes(&mut pieces);
        pieces.into_iter().filter(|p| !p.is_empty()).collect()
    }

    fn empty_pieces(&self) -> Vec<StatsPiece> {
        (0..STATS_SHARDS).map(|shard| StatsPiece { shard, ..StatsPiece::default() }).collect()
    }

    /// Nets every inserted and settled deleted triple's change per
    /// fingerprint and per key bits, and files them by shard.
    fn add_object_changes(&self, pieces: &mut [StatsPiece]) {
        let mut oids: BTreeMap<u32, i64> = BTreeMap::new();
        let mut values: BTreeMap<u64, i64> = BTreeMap::new();
        for g in &self.delta.groups[INSERTED] {
            self.delta.oids_of(g).for_each(|(f, _)| *oids.entry(f).or_default() += 1);
            *values.entry(g.value.key_bits()).or_default() += g.oids.len() as i64;
        }
        for (g, &n) in self.delta.groups[DELETED].iter().zip(&self.settled) {
            let taken = self.delta.oids_of(g).take(n as usize);
            taken.for_each(|(f, _)| *oids.entry(f).or_default() -= 1);
            *values.entry(g.value.key_bits()).or_default() -= n as i64;
        }
        let clamp = |n: i64| n.clamp(i32::MIN as i64, i32::MAX as i64) as i32;
        for (f, n) in oids.into_iter().filter(|&(_, n)| n != 0) {
            if let Some(p) = pieces.get_mut(oid_shard(f) as usize) {
                p.oids.push((f, clamp(n)));
            }
        }
        for (bits, n) in values.into_iter().filter(|&(_, n)| n != 0) {
            if let Some(p) = pieces.get_mut(value_shard(bits) as usize) {
                p.values.push((bits, clamp(n)));
            }
        }
    }
}

/// One shard's exact statistics, at its home: the shard's OID
/// fingerprints and value key bits, the exact statistics of every
/// attribute homed in it, and what the home last published of each.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatsHome {
    shard: u8,
    pub(super) oids: OidCounts,
    pub(super) values: FxHashMap<u64, u32>,
    /// Shared with the build it was cut from until a fold changes
    /// them.
    pub(super) attrs: FxHashMap<Arc<str>, Arc<AttrStats>>,
    /// The summary of each attribute the home last published (or was
    /// installed with).
    published: FxHashMap<Arc<str>, Arc<AttrStats>>,
    /// The shard counts it last published.
    counts: ShardSummary,
    /// Its latest publication number.
    seq: u64,
}

impl StatsHome {
    /// A home holding the given slice, every part of it published at 0.
    pub(super) fn new(
        shard: u8,
        oids: OidCounts,
        values: FxHashMap<u64, u32>,
        attrs: FxHashMap<Arc<str>, Arc<AttrStats>>,
    ) -> Self {
        let published = attrs.iter().map(|(k, a)| (k.clone(), Arc::new(a.summary()))).collect();
        let counts = ShardSummary { seq: 0, oids: oids.len() as u64, values: values.len() as u64 };
        StatsHome { shard, oids, values, attrs, published, counts, seq: 0 }
    }

    /// The shard this home holds.
    pub fn shard(&self) -> u8 {
        self.shard
    }

    /// The shard's live OID fingerprints.
    pub fn oids(&self) -> &OidCounts {
        &self.oids
    }

    /// Folds a piece of this shard, all inserts before all deletes, and
    /// returns how many triples of each delete group it took (in the
    /// piece's order) and the summaries that have drifted past
    /// `epsilon` since the home last published them: an attribute when
    /// any of its numbers moved by more than `epsilon` times the larger
    /// of its published value and one, or its histogram's buckets by
    /// more than `epsilon` times the larger of its count and one in
    /// all; the shard's counts by the first rule. `epsilon = 0`
    /// publishes every change.
    pub fn fold(&mut self, piece: &StatsPiece, epsilon: f64) -> (Vec<u32>, StatsNotice) {
        let mut touched: Vec<Arc<str>> = Vec::new();
        for g in &piece.inserts {
            let a = self.attrs.entry(g.attr.clone());
            let a = a.or_insert_with(|| Arc::new(AttrStats::empty(&g.attr, true)));
            Arc::make_mut(a).add(&g.attr, &g.value, g.count, g.oid_bytes);
            touched.push(g.attr.clone());
        }
        let mut taken = Vec::with_capacity(piece.deletes.len());
        for g in &piece.deletes {
            let n =
                self.attrs.get(&g.attr).map_or(0, |a| a.deletable(&g.value, g.lens.len() as u32));
            taken.push(n);
            let Some(a) = self.attrs.get_mut(&g.attr).filter(|_| n > 0) else { continue };
            let lens = g.lens.iter().take(n as usize);
            let oid_bytes = lens.map(|&len| oid_wire_size(len) as u64).sum();
            let a = Arc::make_mut(a);
            a.remove(&g.attr, &g.value, n, oid_bytes);
            if a.count <= 0.0 {
                self.attrs.remove(&g.attr);
            }
            touched.push(g.attr.clone());
        }
        self.oids.apply(&piece.oids);
        for &(bits, n) in &piece.values {
            match n >= 0 {
                true => bump(&mut self.values, bits, n as u32),
                false => unbump(&mut self.values, &bits, n.unsigned_abs()),
            }
        }
        let objects = !(piece.oids.is_empty() && piece.values.is_empty());
        (taken, self.publish(touched, objects, epsilon))
    }

    /// The summaries of the `touched` attributes (and, when `objects`,
    /// the shard's counts) that have drifted past `epsilon`, recorded
    /// as published under the next publication number.
    fn publish(&mut self, mut touched: Vec<Arc<str>>, objects: bool, epsilon: f64) -> StatsNotice {
        let seq = self.seq + 1;
        let mut out = StatsNotice::default();
        touched.sort();
        touched.dedup();
        for attr in touched {
            let now = match self.attrs.get(&attr) {
                Some(a) => a.summary(),
                None => AttrStats::empty(&attr, false),
            };
            if self.published.get(&attr).is_some_and(|last| !drifted(last, &now, epsilon)) {
                continue;
            }
            let stats = Arc::new(now);
            self.published.insert(attr.clone(), stats.clone());
            out.attrs.push(AttrSummary { attr, seq, stats });
        }
        let now =
            ShardSummary { seq, oids: self.oids.len() as u64, values: self.values.len() as u64 };
        let last = self.counts;
        if objects
            && (moved(now.oids, last.oids, epsilon) || moved(now.values, last.values, epsilon))
        {
            self.counts = now;
            out.shards.push((self.shard, now));
        }
        if !out.is_empty() {
            self.seq = seq;
        }
        out
    }
}

/// Whether a count moved from `last` by more than `epsilon` ×
/// max(`last`, 1).
fn moved(now: u64, last: u64, epsilon: f64) -> bool {
    now.abs_diff(last) as f64 > epsilon * (last.max(1) as f64)
}

/// Whether an attribute's summary drifted past `epsilon` from the one
/// last published (see [`StatsHome::fold`]).
fn drifted(last: &AttrStats, now: &AttrStats, epsilon: f64) -> bool {
    let fields = |s: &AttrStats| {
        [
            s.count,
            s.bytes,
            s.distinct,
            s.join_distinct,
            s.gram_postings,
            s.gram_distinct,
            s.hist.count() as f64,
            s.hist.distinct_estimate() as f64,
        ]
    };
    let scalars = fields(now).into_iter().zip(fields(last));
    scalars.into_iter().any(|(n, l)| (n - l).abs() > epsilon * l.max(1.0))
        || now.hist.l1_distance(&last.hist) as f64 > epsilon * now.count.max(1.0)
}
