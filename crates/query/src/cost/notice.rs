//! The notice codec: [`StatsNotice`], what a statistics flush sends
//! every peer once the OID shards have taken their pieces.

use std::collections::BTreeMap;
use std::sync::Arc;

use unistore_store::Value;
use unistore_util::intern;
use unistore_util::wire::{get_len, get_varint, put_varint, varint_size, Wire, WireError, MAX_LEN};

use super::delta::{attr_index, attr_table, oid_wire_size, StatsDelta, DELETED, INSERTED};
use super::oids::OidPiece;
use super::statistics::{FoldMemo, GlobalStats};

/// The triples of one sign that a flush adds to or removes from one
/// `(attr, value)` pair: how many, and the wire bytes of their OIDs —
/// everything a snapshot reads of them but the distinct-OID count.
#[derive(Clone, Debug, PartialEq)]
pub(super) struct NoticeGroup {
    pub(super) attr: Arc<str>,
    pub(super) value: Value,
    /// Triples, never zero.
    pub(super) count: u32,
    /// Sum of the triples' OID wire sizes.
    pub(super) oid_bytes: u64,
}

/// A statistics flush as every peer receives it: per sign, one group
/// per written `(attr, value)` pair with its triple count and OID byte
/// sum, plus the change of the distinct-OID count that the shard homes
/// acknowledged. It names no OID: the fingerprints went to the shards
/// as [`OidPiece`]s. Receivers fold it with
/// [`GlobalStats::apply_notice`].
#[derive(Clone, Default)]
pub struct StatsNotice {
    /// Groups of inserted (`[INSERTED]`) and deleted (`[DELETED]`)
    /// triples, each side in the flushed delta's order.
    pub(super) groups: [Vec<NoticeGroup>; 2],
    /// Change of the distinct-OID count.
    pub(super) oid_delta: i64,
    /// The last copying fold of this very object (see
    /// [`crate::CostModel::apply_shared_notice`]).
    pub(super) memo: FoldMemo,
}

impl std::fmt::Debug for StatsNotice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatsNotice")
            .field("inserted", &self.groups[INSERTED])
            .field("deleted", &self.groups[DELETED])
            .field("oid_delta", &self.oid_delta)
            .finish()
    }
}

impl StatsNotice {
    /// Splits a flushed delta into the notice every peer folds and the
    /// pieces the OID shards fold, one per shard the delta touches. The
    /// notice's OID change starts at zero; the flush adds what the
    /// shard homes acknowledge.
    ///
    /// `base` is the snapshot the notice will be folded into. A delete
    /// beyond the triples `base` still counts under its pair (after the
    /// delta's inserts) is one a fold would ignore; it is left out of
    /// both the notice and the pieces, so the shards count exactly what
    /// a fold of the delta into `base` with the OID map would.
    pub fn split(delta: &StatsDelta, base: &GlobalStats) -> (StatsNotice, Vec<OidPiece>) {
        let mut changes: BTreeMap<u32, i32> = BTreeMap::new();
        // Live triples per (attr, key bits) as the fold runs: the
        // snapshot's, plus the inserts, minus the deletes taken so far.
        let mut live: BTreeMap<(&Arc<str>, u64), u32> = BTreeMap::new();
        let held = |attr: &'_ Arc<str>, value: &Value| {
            let bits = value.key_bits();
            (bits, base.attr(attr).and_then(|a| a.values.get(&bits)).copied().unwrap_or(0))
        };
        let mut notice = StatsNotice::default();
        for g in &delta.groups[INSERTED] {
            let mut oid_bytes = 0;
            for (fingerprint, len) in delta.oids_of(g) {
                oid_bytes += oid_wire_size(len) as u64;
                *changes.entry(fingerprint).or_default() += 1;
            }
            let (bits, now) = held(&g.attr, &g.value);
            *live.entry((&g.attr, bits)).or_insert(now) += g.oids.len() as u32;
            notice.groups[INSERTED].push(NoticeGroup {
                attr: g.attr.clone(),
                value: g.value.clone(),
                count: g.oids.len() as u32,
                oid_bytes,
            });
        }
        for g in &delta.groups[DELETED] {
            let (bits, now) = held(&g.attr, &g.value);
            let left = live.entry((&g.attr, bits)).or_insert(now);
            let count = (g.oids.len() as u32).min(*left);
            if count == 0 {
                continue;
            }
            *left -= count;
            let mut oid_bytes = 0;
            for (fingerprint, len) in delta.oids_of(g).take(count as usize) {
                oid_bytes += oid_wire_size(len) as u64;
                *changes.entry(fingerprint).or_default() -= 1;
            }
            notice.groups[DELETED].push(NoticeGroup {
                attr: g.attr.clone(),
                value: g.value.clone(),
                count,
                oid_bytes,
            });
        }
        let entries: Vec<(u32, i32)> = changes.into_iter().filter(|&(_, n)| n != 0).collect();
        (notice, OidPiece::split(&entries))
    }

    /// Whether the notice changes nothing.
    pub fn is_empty(&self) -> bool {
        self.groups.iter().all(Vec::is_empty) && self.oid_delta == 0
    }

    /// Triples the notice adds or removes.
    pub fn len(&self) -> usize {
        self.groups.iter().flatten().map(|g| g.count as usize).sum()
    }

    /// The change of the distinct-OID count.
    pub fn oid_delta(&self) -> i64 {
        self.oid_delta
    }

    /// Adds an acknowledged change of the distinct-OID count. The
    /// notice must not have been folded anywhere yet.
    pub fn add_oid_delta(&mut self, d: i64) {
        self.oid_delta = self.oid_delta.saturating_add(d);
        self.memo = FoldMemo::default();
    }

    /// The `(attr, value)` pairs the notice names: each once per sign.
    pub fn pairs(&self) -> impl Iterator<Item = (&Arc<str>, &Value)> {
        self.groups.iter().flatten().map(|g| (&g.attr, &g.value))
    }

    /// The attribute names the groups use, each once, in first-seen
    /// order.
    fn attr_table(&self) -> Vec<&Arc<str>> {
        attr_table(self.groups.iter().flatten().map(|g| &g.attr))
    }
}

// Layout: the attribute table (count; the names, each once), the
// inserted and the deleted groups (count; per group the attribute's
// table index, the value, the triple count and the OID byte sum), then
// the distinct-OID change as a zigzag varint.
impl Wire for StatsNotice {
    fn encode(&self, buf: &mut bytes::BytesMut) {
        let attrs = self.attr_table();
        put_varint(buf, attrs.len() as u64);
        attrs.iter().for_each(|a| a.encode(buf));
        for side in &self.groups {
            put_varint(buf, side.len() as u64);
            for g in side {
                put_varint(buf, attr_index(&attrs, &g.attr));
                g.value.encode(buf);
                g.count.encode(buf);
                g.oid_bytes.encode(buf);
            }
        }
        self.oid_delta.encode(buf);
    }

    fn decode(buf: &mut bytes::Bytes) -> Result<Self, WireError> {
        let n_attrs = get_len(buf)?;
        let mut attrs = Vec::with_capacity(n_attrs.min(1024));
        for _ in 0..n_attrs {
            attrs.push(unistore_util::wire::decode_str(buf, intern)?);
        }
        let mut groups = [Vec::new(), Vec::new()];
        for side in &mut groups {
            let n = get_len(buf)?;
            side.reserve(n.min(1024));
            for _ in 0..n {
                let at = get_varint(buf)?;
                let attr = usize::try_from(at)
                    .ok()
                    .and_then(|i| attrs.get(i))
                    .cloned()
                    .ok_or(WireError::BadLength(at))?;
                let value = Value::decode(buf)?;
                // A group is a write: receivers divide a partly taken
                // delete's byte sum by its count.
                let count = u32::decode(buf)?;
                if count == 0 {
                    return Err(WireError::BadLength(0));
                }
                // Every OID takes at least one byte and at most what the
                // longest decodable string does; receivers sum these
                // bytes, so an implausible sum is refused here.
                let oid_bytes = u64::decode(buf)?;
                let most = count as u64 * oid_wire_size(MAX_LEN as u32) as u64;
                if !(count as u64..=most).contains(&oid_bytes) {
                    return Err(WireError::BadLength(oid_bytes));
                }
                side.push(NoticeGroup { attr, value, count, oid_bytes });
            }
        }
        // The encoder names only the attributes its groups use.
        if attrs.len() > groups.iter().map(Vec::len).sum::<usize>() {
            return Err(WireError::BadLength(attrs.len() as u64));
        }
        let oid_delta = i64::decode(buf)?;
        Ok(StatsNotice { groups, oid_delta, memo: FoldMemo::default() })
    }

    fn wire_size(&self) -> usize {
        let attrs = self.attr_table();
        let groups = self.groups.iter().map(|side| {
            varint_size(side.len() as u64)
                + side
                    .iter()
                    .map(|g| {
                        varint_size(attr_index(&attrs, &g.attr))
                            + g.value.wire_size()
                            + g.count.wire_size()
                            + g.oid_bytes.wire_size()
                    })
                    .sum::<usize>()
        });
        varint_size(attrs.len() as u64)
            + attrs.iter().map(|a| a.wire_size()).sum::<usize>()
            + groups.sum::<usize>()
            + self.oid_delta.wire_size()
    }
}
