//! The distinct-OID statistic's state, kept out of the snapshots:
//! [`OidCounts`], the fingerprint refcount map behind `oid_distinct`,
//! split into [`OID_SHARDS`] shards by fingerprint prefix, and
//! [`OidPiece`], one shard's share of a statistics flush.
//!
//! Every other statistic depends on a triple only through its
//! `(attr, value)` pair and its size, so it travels in a
//! [`StatsNotice`](super::StatsNotice) without naming any OID. Only the
//! distinct-OID count needs per-OID state; each shard of it lives at one
//! home peer (DESIGN.md § Statistics distribution), which folds the
//! pieces routed to it and answers with the change of its distinct
//! count.

use unistore_util::wire::{get_len, Wire, WireError};
use unistore_util::FxHashMap;

use super::statistics::{bump, unbump};

/// How many shards the OID map is split into: one per 2-bit
/// fingerprint prefix.
pub const OID_SHARDS: u8 = 4;

/// The shard a fingerprint belongs to: its top two bits.
pub fn oid_shard(fingerprint: u32) -> u8 {
    (fingerprint >> 30) as u8
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
    /// saturating at zero, and returns the change in distinct
    /// fingerprints.
    pub fn apply(&mut self, entries: &[(u32, i32)]) -> i64 {
        let before = self.0.len() as i64;
        for &(fingerprint, n) in entries {
            match n >= 0 {
                true => self.bump(fingerprint, n as u32),
                false => self.unbump(fingerprint, n.unsigned_abs()),
            }
        }
        self.0.len() as i64 - before
    }

    /// The fingerprints of one shard, with their counts.
    pub fn shard(&self, shard: u8) -> OidCounts {
        OidCounts(
            self.0.iter().filter(|(&f, _)| oid_shard(f) == shard).map(|(&f, &n)| (f, n)).collect(),
        )
    }

    /// Adds every count of `other` (uniting shards).
    pub fn absorb(&mut self, other: &OidCounts) {
        for (&fingerprint, &n) in &other.0 {
            self.bump(fingerprint, n);
        }
    }
}

/// One shard's share of a statistics flush: the signed change of live
/// triples under each of the flush's fingerprints that fall in the
/// shard, ascending, none zero.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OidPiece {
    /// The shard, below [`OID_SHARDS`]; every fingerprint carries it as
    /// its prefix.
    pub shard: u8,
    /// `(fingerprint, change)`, strictly ascending by fingerprint.
    pub entries: Vec<(u32, i32)>,
}

impl OidPiece {
    /// Splits ascending `(fingerprint, change)` entries into one piece
    /// per shard they touch, in shard order.
    pub fn split(entries: &[(u32, i32)]) -> Vec<OidPiece> {
        let mut pieces: Vec<OidPiece> = Vec::new();
        for &(fingerprint, n) in entries {
            let shard = oid_shard(fingerprint);
            match pieces.last_mut() {
                Some(p) if p.shard == shard => p.entries.push((fingerprint, n)),
                _ => pieces.push(OidPiece { shard, entries: vec![(fingerprint, n)] }),
            }
        }
        pieces
    }
}

// Layout: the shard (one byte), the entry count, then per entry the
// fingerprint as 4 fixed bytes (high-entropy: a varint would average 5)
// and the change as a zigzag varint.
impl Wire for OidPiece {
    fn encode(&self, buf: &mut bytes::BytesMut) {
        use bytes::BufMut;
        self.shard.encode(buf);
        (self.entries.len() as u64).encode(buf);
        for &(fingerprint, n) in &self.entries {
            buf.put_u32(fingerprint);
            (n as i64).encode(buf);
        }
    }

    fn decode(buf: &mut bytes::Bytes) -> Result<Self, WireError> {
        use bytes::Buf;
        let shard = u8::decode(buf)?;
        if shard >= OID_SHARDS {
            return Err(WireError::BadTag(shard));
        }
        let n = get_len(buf)?;
        let mut entries: Vec<(u32, i32)> = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            if buf.remaining() < 4 {
                return Err(WireError::UnexpectedEof);
            }
            let fingerprint = buf.get_u32();
            // A home folds the entries as they come: a fingerprint of
            // another shard would count there, a repeat or a zero would
            // break the canonical form the sizes are computed from.
            let ascending = entries.last().is_none_or(|&(prev, _)| prev < fingerprint);
            if oid_shard(fingerprint) != shard || !ascending {
                return Err(WireError::BadLength(fingerprint as u64));
            }
            let change = i64::decode(buf)?;
            match i32::try_from(change) {
                Ok(c) if c != 0 => entries.push((fingerprint, c)),
                _ => return Err(WireError::BadLength(change as u64)),
            }
        }
        Ok(OidPiece { shard, entries })
    }

    fn wire_size(&self) -> usize {
        1 + (self.entries.len() as u64).wire_size()
            + self.entries.iter().map(|&(_, n)| 4 + (n as i64).wire_size()).sum::<usize>()
    }
}
