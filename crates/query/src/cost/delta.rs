//! The delta codec: [`StatsDelta`], the digest of a write batch that
//! statistics dissemination ships, and its wire format.

use std::sync::Arc;

use unistore_store::{Oid, Triple, Value};
use unistore_util::wire::{get_len, get_varint, put_varint, varint_size, Wire, WireError};
use unistore_util::{intern, CompactStr, FxHashMap};

use super::statistics::FoldMemo;

/// One OID-table entry of a [`StatsDelta`]: the OID's fingerprint and
/// its length in bytes — all the statistics ever read of an OID (the
/// distinct-OID refcount and the triple's wire size).
pub(super) type OidRef = (u32, u32);

/// The OID's fingerprint, its placement hash folded to 32 bits, and its
/// length. Distinct OIDs are counted by fingerprint, so two OIDs that
/// share one count once: n OIDs lose about n²/2³³ of their count, under
/// one at 70 k.
pub(super) fn oid_ref(oid: &Oid) -> OidRef {
    let h = oid.hash();
    ((h ^ (h >> 32)) as u32, oid.as_str().len() as u32)
}

/// A value's *representation*, as opposed to its meaning: `Int(2)` and
/// `Float(2.0)` are semantically equal but encode to different sizes,
/// and the byte statistics are exact, so they must not share a group.
#[derive(Clone, PartialEq, Eq, Hash)]
pub(super) enum ValueRepr {
    Str(CompactStr),
    Int(i64),
    Float(u64),
}

impl ValueRepr {
    pub(super) fn of(v: &Value) -> Self {
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
pub(super) struct Group {
    pub(super) attr: Arc<str>,
    pub(super) value: Value,
    /// Indexes into the delta's OID table, never descending and never
    /// empty; a repeated index is a repeated write event.
    pub(super) oids: Vec<u32>,
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

    /// Encodes the group, naming its attribute by index into `attrs`.
    fn encode(&self, attrs: &[&Arc<str>], buf: &mut bytes::BytesMut) {
        put_varint(buf, attr_index(attrs, &self.attr));
        self.value.encode(buf);
        put_varint(buf, self.oids.len() as u64);
        self.gaps().for_each(|gap| put_varint(buf, gap));
    }

    fn wire_size(&self, attrs: &[&Arc<str>]) -> usize {
        varint_size(attr_index(attrs, &self.attr))
            + self.value.wire_size()
            + varint_size(self.oids.len() as u64)
            + self.gaps().map(varint_size).sum::<usize>()
    }
}

/// Where `attr` sits in a delta's or a notice's attribute table. Both
/// name few attributes (a schema's, not a value's worth), so a scan is
/// enough.
pub(super) fn attr_index(attrs: &[&Arc<str>], attr: &Arc<str>) -> u64 {
    attrs.iter().position(|&a| a == attr).unwrap_or(attrs.len()) as u64
}

/// The attribute names of `groups`, each once, in first-seen order: the
/// table a group's attribute index points into.
pub(super) fn attr_table<'a>(groups: impl Iterator<Item = &'a Arc<str>>) -> Vec<&'a Arc<str>> {
    let mut attrs: Vec<&Arc<str>> = Vec::new();
    for attr in groups {
        if !attrs.contains(&attr) {
            attrs.push(attr);
        }
    }
    attrs
}

/// Wire size of an OID of `len` bytes (a length-prefixed string).
pub(super) fn oid_wire_size(len: u32) -> usize {
    varint_size(len as u64) + len as usize
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
pub(super) const INSERTED: usize = 0;
pub(super) const DELETED: usize = 1;

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
/// pair, its OID's fingerprint and its size. So the delta holds each
/// OID once — fingerprint and byte length, in first-seen order — and,
/// per sign, one group per pair in first-seen order listing the OIDs
/// written under it. Receivers fold it in group by group with
/// [`GlobalStats::apply_delta`](super::GlobalStats::apply_delta); deltas [`StatsDelta::merge`] by
/// uniting tables and groups, so a node can buffer everything it
/// learns between two dissemination ticks into one message.
#[derive(Clone, Default)]
pub struct StatsDelta {
    /// Every OID the groups refer to, once, in first-seen order.
    pub(super) oids: Vec<OidRef>,
    /// Groups of inserted (`[INSERTED]`) and deleted (`[DELETED]`)
    /// triples, each side in first-seen order.
    pub(super) groups: [Vec<Group>; 2],
    /// Lookup side of `oids` and `groups`, built when a write is first
    /// recorded and dropped whenever the vectors are re-numbered; a
    /// delta that is only decoded, folded and forwarded never pays it.
    index: Option<Box<DeltaIndex>>,
    /// The last copying fold of this very object (see
    /// [`crate::CostModel::apply_shared`]).
    pub(super) memo: FoldMemo,
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
        // Every change to the delta comes through here, and a fold
        // memoized before the change no longer describes it.
        self.memo = FoldMemo::default();
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
    pub(super) fn oids_of<'a>(
        &'a self,
        g: &'a Group,
    ) -> impl ExactSizeIterator<Item = OidRef> + 'a {
        g.oids.iter().map(|&i| self.oids[i as usize])
    }

    /// The attribute names the groups use, each once, in first-seen
    /// order.
    fn attr_table(&self) -> Vec<&Arc<str>> {
        attr_table(self.groups.iter().flatten().map(|g| &g.attr))
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

// Layout: the OID table (count; per OID the fingerprint as 4 fixed
// bytes — high-entropy, a varint would average 5 — and the varint
// length), the attribute table (count; the names, each once), then the
// inserted and the deleted groups (count; per group the attribute's
// table index, value, OID count and the OID table indexes as gaps).
impl Wire for StatsDelta {
    fn encode(&self, buf: &mut bytes::BytesMut) {
        use bytes::BufMut;
        put_varint(buf, self.oids.len() as u64);
        for (fingerprint, len) in &self.oids {
            buf.put_u32(*fingerprint);
            len.encode(buf);
        }
        let attrs = self.attr_table();
        put_varint(buf, attrs.len() as u64);
        attrs.iter().for_each(|a| a.encode(buf));
        for side in &self.groups {
            put_varint(buf, side.len() as u64);
            side.iter().for_each(|g| g.encode(&attrs, buf));
        }
    }

    fn decode(buf: &mut bytes::Bytes) -> Result<Self, WireError> {
        use bytes::Buf;
        let n_oids = get_len(buf)?;
        let mut oids = Vec::with_capacity(n_oids.min(1024));
        for _ in 0..n_oids {
            if buf.remaining() < 4 {
                return Err(WireError::UnexpectedEof);
            }
            oids.push((buf.get_u32(), u32::decode(buf)?));
        }
        let n_attrs = get_len(buf)?;
        let mut attrs = Vec::with_capacity(n_attrs.min(1024));
        for _ in 0..n_attrs {
            attrs.push(unistore_util::wire::decode_str(buf, intern)?);
        }
        let mut groups = [Vec::new(), Vec::new()];
        for side in &mut groups {
            for _ in 0..get_len(buf)? {
                let at = get_varint(buf)?;
                let attr = usize::try_from(at)
                    .ok()
                    .and_then(|i| attrs.get(i))
                    .cloned()
                    .ok_or(WireError::BadLength(at))?;
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
        Ok(StatsDelta { oids, groups, index: None, memo: FoldMemo::default() })
    }

    fn wire_size(&self) -> usize {
        let table: usize = self.oids.iter().map(|(_, len)| 4 + len.wire_size()).sum();
        let attrs = self.attr_table();
        let attr_table: usize = attrs.iter().map(|a| a.wire_size()).sum();
        let groups = self.groups.iter().map(|side| {
            varint_size(side.len() as u64) + side.iter().map(|g| g.wire_size(&attrs)).sum::<usize>()
        });
        varint_size(self.oids.len() as u64)
            + table
            + varint_size(attrs.len() as u64)
            + attr_table
            + groups.sum::<usize>()
    }
}
