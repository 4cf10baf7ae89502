//! The record-list codec of the replica plane.
//!
//! Every list of `(record key, version, item-or-tombstone)` records that
//! travels between replicas goes through here: pushes (`Replicate` on
//! both backends), the repair's leaf step ([`RepairMsg::Records`] and
//! its `want` list), the runs and split bounds of a descent
//! ([`RepairMsg::Descend`]) and P-Grid's bootstrap hand-offs. Such a
//! list is sorted by record key, and neighbouring keys share their
//! leading components (a leaf's keys share their high bits, a bucket's
//! records share their ring position), so keys are front-coded:
//!
//! ```text
//! key against prev        prev = the previous key, or the list's lower
//!                         bound for the first one
//!   at                    one byte: the first component in which the
//!                         key differs from prev (ARITY: none, allowed
//!                         for the first key only)
//!   delta                 varint key[at] − prev[at], ≥ 1
//!   rest                  key[at+1..] as varints
//! ```
//!
//! A record list ([`RecordList`]) ships its fields column by column:
//!
//! ```text
//! count                   varint, at most the codec's length cap
//! tombstones              ⌈count / 8⌉ bytes, bit i % 8 of byte i / 8
//!                         set when record i is a tombstone; the
//!                         padding bits are zero
//! items                   the live records' items, as `I::encode_list`
//! count × key             front-coded from the zero key; a live
//!                         record's identity (the key's last component)
//!                         is its item's and is not sent
//! count × version         varints
//! ```
//!
//! Items going through [`Item::encode_list`] is what lets a triple list
//! ship each attribute once and front-code string values here too.
//!
//! The decoder rejects a component index past the key's arity, a zero
//! or overflowing delta, a repeated key, an identity that does not
//! ascend, set padding bits, a bitmap or key list shorter than the
//! count, an item list whose length is not the live count, and a count
//! past the cap. Keys that decode in order cannot leave a span from
//! below; the callers check the upper bound.
//!
//! [`RepairMsg::Records`]: crate::repair::RepairMsg::Records
//! [`RepairMsg::Descend`]: crate::repair::RepairMsg::Descend

use bytes::{Buf, BufMut, Bytes, BytesMut};

use unistore_util::item::Item;
use unistore_util::wire::{get_len, get_varint, put_varint, varint_size, Wire, WireError};

use crate::repair::RecordKey;

/// One record as a store holds it: key, version, item or tombstone.
pub type Record<K, I> = (K, u64, Option<I>);

/// The first component in which `key` differs from `prev`, or `ARITY`.
fn first_difference<K: RecordKey>(prev: &K, key: &K) -> usize {
    (0..K::ARITY).find(|&i| key.part(i) != prev.part(i)).unwrap_or(K::ARITY)
}

/// The first differing component of `key` and the values written after
/// its `at` byte: the delta of component `at` and the later components,
/// each less an elided identity.
fn written<K: RecordKey>(prev: K, key: K, elide: bool) -> (usize, impl Iterator<Item = u64>) {
    let at = first_difference(&prev, &key);
    let end = K::ARITY - elide as usize;
    let delta = (at < end).then(|| key.part(at).wrapping_sub(prev.part(at)));
    (at, delta.into_iter().chain((at + 1..end).map(move |i| key.part(i))))
}

/// Appends `key` front-coded against `prev`; `elide` drops the
/// identity, which the decoder takes from the item. A key below `prev`
/// writes a delta that overflows on decode, so a list out of order
/// encodes to bytes the decoder rejects.
pub(crate) fn put_key<K: RecordKey>(buf: &mut BytesMut, prev: &K, key: &K, elide: bool) {
    let (at, values) = written(*prev, *key, elide);
    buf.put_u8(at as u8);
    for v in values {
        put_varint(buf, v);
    }
}

/// Bytes [`put_key`] writes, by arithmetic.
pub(crate) fn key_size<K: RecordKey>(prev: &K, key: &K, elide: bool) -> usize {
    let (_, values) = written(*prev, *key, elide);
    1 + values.map(varint_size).sum::<usize>()
}

/// Decodes a key written by [`put_key`] against `prev`. `ident` is the
/// live record's item identity when the key's was elided; `first` admits
/// a key equal to `prev` (the list's lower bound), which every later
/// key must exceed.
pub(crate) fn get_key<K: RecordKey>(
    buf: &mut Bytes,
    prev: &K,
    ident: Option<u64>,
    first: bool,
) -> Result<K, WireError> {
    let at = u8::decode(buf)?;
    let last = K::ARITY - 1;
    let mut key = *prev;
    match at as usize {
        i if i > K::ARITY => return Err(WireError::BadTag(at)),
        i if i == K::ARITY => {
            if !first || ident.is_some_and(|id| id != prev.part(last)) {
                return Err(WireError::BadLength(0));
            }
            return Ok(key);
        }
        i => {
            let base = prev.part(i);
            let value = match ident {
                Some(id) if i == last => id,
                _ => {
                    let delta = get_varint(buf)?;
                    base.checked_add(delta).ok_or(WireError::BadLength(delta))?
                }
            };
            if value <= base {
                return Err(WireError::BadLength(value));
            }
            key = key.with_part(i, value);
            for j in i + 1..K::ARITY {
                let v = match ident {
                    Some(id) if j == last => id,
                    _ => get_varint(buf)?,
                };
                key = key.with_part(j, v);
            }
        }
    }
    Ok(key)
}

/// Appends a count-prefixed ascending key list front-coded from `lo`.
pub(crate) fn put_keys<K: RecordKey>(buf: &mut BytesMut, lo: K, keys: &[K]) {
    put_varint(buf, keys.len() as u64);
    let mut prev = lo;
    for key in keys {
        put_key(buf, &prev, key, false);
        prev = *key;
    }
}

/// Bytes [`put_keys`] writes.
pub(crate) fn keys_size<K: RecordKey>(lo: K, keys: &[K]) -> usize {
    let mut prev = lo;
    let mut size = varint_size(keys.len() as u64);
    for key in keys {
        size += key_size(&prev, key, false);
        prev = *key;
    }
    size
}

/// Decodes a list written by [`put_keys`], at most `cap` keys.
pub(crate) fn get_keys<K: RecordKey>(
    buf: &mut Bytes,
    lo: K,
    cap: usize,
) -> Result<Vec<K>, WireError> {
    let len = get_len(buf)?;
    if len > cap {
        return Err(WireError::BadLength(len as u64));
    }
    let mut keys = Vec::with_capacity(len.min(1024));
    let mut prev = lo;
    for i in 0..len {
        prev = get_key(buf, &prev, None, i == 0)?;
        keys.push(prev);
    }
    Ok(keys)
}

/// A list of records in ascending key order, one record per key, held
/// column by column as the wire carries it (see the module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordList<K, I> {
    keys: Vec<K>,
    versions: Vec<u64>,
    /// Per record: whether it is a tombstone.
    dead: Vec<bool>,
    /// The live records' items, in key order.
    items: Vec<I>,
}

impl<K, I> Default for RecordList<K, I> {
    fn default() -> Self {
        RecordList { keys: Vec::new(), versions: Vec::new(), dead: Vec::new(), items: Vec::new() }
    }
}

impl<K: RecordKey, I: Item> RecordList<K, I> {
    /// The empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// The list of `records`, in any order; of a key listed twice only
    /// the newest version stays.
    pub fn from_records(records: impl IntoIterator<Item = Record<K, I>>) -> Self {
        let mut records: Vec<Record<K, I>> = records.into_iter().collect();
        if !records.windows(2).all(|w| w[0].0 < w[1].0) {
            records.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
            records.dedup_by_key(|r| r.0);
        }
        let mut list = RecordList::with_capacity(records.len());
        for (key, version, item) in records {
            list.push(key, version, item);
        }
        list
    }

    fn with_capacity(n: usize) -> Self {
        RecordList {
            keys: Vec::with_capacity(n),
            versions: Vec::with_capacity(n),
            dead: Vec::with_capacity(n),
            items: Vec::with_capacity(n),
        }
    }

    /// Appends a record past every key in the list.
    fn push(&mut self, key: K, version: u64, item: Option<I>) {
        debug_assert!(
            item.as_ref().is_none_or(|i| i.ident() == key.part(K::ARITY - 1)),
            "a live record's key ends in its item's identity: {key:?}"
        );
        self.keys.push(key);
        self.versions.push(version);
        self.dead.push(item.is_none());
        self.items.extend(item);
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the list holds no record.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The records, borrowed, in key order.
    pub fn iter(&self) -> impl Iterator<Item = (K, u64, Option<&I>)> + '_ {
        let mut items = self.items.iter();
        self.keys
            .iter()
            .zip(&self.versions)
            .zip(&self.dead)
            .map(move |((&k, &v), &dead)| (k, v, if dead { None } else { items.next() }))
    }
}

/// The records of a [`RecordList`], moved out in key order.
#[derive(Debug)]
pub struct IntoIter<K, I> {
    keys: std::vec::IntoIter<K>,
    versions: std::vec::IntoIter<u64>,
    dead: std::vec::IntoIter<bool>,
    items: std::vec::IntoIter<I>,
}

impl<K, I> Iterator for IntoIter<K, I> {
    type Item = Record<K, I>;

    fn next(&mut self) -> Option<Record<K, I>> {
        let key = self.keys.next()?;
        let version = self.versions.next()?;
        let item = if self.dead.next()? { None } else { self.items.next() };
        Some((key, version, item))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.keys.size_hint()
    }
}

impl<K: RecordKey, I: Item> IntoIterator for RecordList<K, I> {
    type Item = Record<K, I>;
    type IntoIter = IntoIter<K, I>;

    fn into_iter(self) -> IntoIter<K, I> {
        IntoIter {
            keys: self.keys.into_iter(),
            versions: self.versions.into_iter(),
            dead: self.dead.into_iter(),
            items: self.items.into_iter(),
        }
    }
}

impl<K: RecordKey, I: Item> FromIterator<Record<K, I>> for RecordList<K, I> {
    fn from_iter<T: IntoIterator<Item = Record<K, I>>>(records: T) -> Self {
        Self::from_records(records)
    }
}

impl<K: RecordKey, I: Item> Wire for RecordList<K, I> {
    fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, self.len() as u64);
        for chunk in self.dead.chunks(8) {
            buf.put_u8(chunk.iter().rev().fold(0, |byte, &dead| byte << 1 | dead as u8));
        }
        I::encode_list(&self.items, buf);
        let mut prev = K::MIN;
        for (key, &dead) in self.keys.iter().zip(&self.dead) {
            put_key(buf, &prev, key, !dead);
            prev = *key;
        }
        for &version in &self.versions {
            put_varint(buf, version);
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let len = get_len(buf)?;
        let bitmap = len.div_ceil(8);
        if buf.remaining() < bitmap {
            return Err(WireError::UnexpectedEof);
        }
        let mut dead = Vec::with_capacity(len.min(1024));
        for byte in 0..bitmap {
            let bits = buf.get_u8();
            let used = (len - byte * 8).min(8);
            if used < 8 && bits >> used != 0 {
                return Err(WireError::BadLength(bits as u64));
            }
            dead.extend((0..used).map(|bit| bits >> bit & 1 == 1));
        }
        let items = I::decode_list(buf)?;
        if items.len() != dead.iter().filter(|&&d| !d).count() {
            return Err(WireError::BadLength(items.len() as u64));
        }
        let mut keys = Vec::with_capacity(len.min(1024));
        let (mut prev, mut live) = (K::MIN, items.iter());
        for (i, &is_dead) in dead.iter().enumerate() {
            let ident = if is_dead { None } else { live.next().map(Item::ident) };
            prev = get_key(buf, &prev, ident, i == 0)?;
            keys.push(prev);
        }
        let mut versions = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            versions.push(get_varint(buf)?);
        }
        Ok(RecordList { keys, versions, dead, items })
    }

    fn wire_size(&self) -> usize {
        let mut size = varint_size(self.len() as u64)
            + self.dead.len().div_ceil(8)
            + I::list_wire_size(&self.items);
        let mut prev = K::MIN;
        for (key, &dead) in self.keys.iter().zip(&self.dead) {
            size += key_size(&prev, key, !dead);
            prev = *key;
        }
        size + self.versions.iter().map(|&v| varint_size(v)).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use unistore_util::item::testing::Tagged;

    fn item(id: u64) -> Option<Tagged> {
        Some(Tagged { id, tag: id % 7 })
    }

    fn roundtrip<K: RecordKey>(list: &RecordList<K, Tagged>) -> Bytes {
        let bytes = list.to_bytes();
        assert_eq!(list.wire_size(), bytes.len(), "{list:?}");
        assert_eq!(&RecordList::from_bytes(&bytes).expect("decode"), list);
        bytes
    }

    fn decoded<K: RecordKey>(bytes: Vec<u8>) -> Result<RecordList<K, Tagged>, WireError> {
        RecordList::from_bytes(&Bytes::from(bytes))
    }

    #[test]
    fn keys_share_their_leading_components() {
        // Two records at one ring position and key, then a tombstone at
        // the next ring position.
        let list = RecordList::from_records([
            ((9, 5, 3), 2, item(3)),
            ((9, 5, 4), 1, item(4)),
            ((10, 1, 8), 7, None),
        ]);
        let bytes = roundtrip(&list);
        // count, bitmap, items (count + 2 × 2 bytes), then the keys:
        // [0, 9, 5] (identity elided), [2] (elided: 4 > 3 is implied),
        // [0, 1, 1, 8], then three one-byte versions.
        let keys = [0u8, 9, 5, 2, 0, 1, 1, 8];
        assert_eq!(bytes.len(), 2 + 5 + keys.len() + 3);
        assert_eq!(&bytes[7..15], &keys);
    }

    #[test]
    fn from_records_sorts_and_keeps_the_newest_version() {
        let list = RecordList::from_records([
            ((4, 4), 1, item(4)),
            ((1, 1), 5, item(1)),
            ((4, 4), 3, None),
            ((1, 1), 2, None),
        ]);
        let records: Vec<_> = list.clone().into_iter().collect();
        assert_eq!(records, vec![((1, 1), 5, item(1)), ((4, 4), 3, None)]);
        assert_eq!(list.iter().map(|(k, v, i)| (k, v, i.copied())).collect::<Vec<_>>(), records);
        roundtrip(&list);
        roundtrip(&RecordList::<(u64, u64), Tagged>::new());
    }

    #[test]
    fn rejects_hostile_lists() {
        type K2 = (u64, u64);
        // count 1, no tombstone, no items: a live record without an item.
        assert!(decoded::<K2>(vec![1, 0, 0, 0, 1, 1, 0]).is_err(), "item list too short");
        // count 1, a tombstone: component index 3 is past a pair's arity.
        assert_eq!(decoded::<K2>(vec![1, 1, 0, 3, 0]), Err(WireError::BadTag(3)));
        // Two tombstones equal to each other: the second repeats the first.
        assert!(decoded::<K2>(vec![2, 3, 0, 0, 5, 0, 2, 0, 0]).is_err(), "repeated key");
        // A zero delta does not ascend.
        assert!(decoded::<K2>(vec![2, 3, 0, 0, 5, 0, 0, 0, 1, 0, 0, 0]).is_err(), "zero delta");
        // 2^64 − 1 onto 5 overflows.
        let mut over = vec![2, 3, 0, 0, 5, 0, 0];
        over.extend([0xff; 9]);
        over.extend([0x01, 0, 0, 0]);
        assert!(matches!(decoded::<K2>(over), Err(WireError::BadLength(_))), "overflowing delta");
        // Nine records claim a two-byte bitmap; one byte follows.
        assert_eq!(decoded::<K2>(vec![9, 0]), Err(WireError::UnexpectedEof));
        // A padding bit set past the count.
        assert!(decoded::<K2>(vec![1, 3, 0, 0, 0, 0, 0]).is_err(), "padding bit");
        // A count past the cap.
        let past_cap = vec![0x81, 0x80, 0x80, 0x80, 0x01];
        assert_eq!(decoded::<K2>(past_cap), Err(WireError::BadLength((1 << 28) + 1)));
        // A live record whose identity does not ascend past the previous
        // one at an equal leading component.
        let twins = RecordList::from_records([((5, 3), 1, item(3)), ((5, 4), 1, item(4))]);
        let mut bytes = twins.to_bytes().to_vec();
        // Swap the two items (each two bytes, after count, bitmap and the
        // list's own count): identities 4 then 3.
        bytes.swap(3, 5);
        bytes.swap(4, 6);
        assert!(decoded::<K2>(bytes).is_err(), "identities out of order");
    }

    #[test]
    fn every_truncation_is_rejected() {
        let list = RecordList::from_records([
            ((1u64, 2u64, 3u64), 1, item(3)),
            ((1, 9, 5), 2, None),
            ((7, 0, 2), 300, item(2)),
        ]);
        let bytes = roundtrip(&list);
        for cut in 0..bytes.len() {
            let prefix = Bytes::copy_from_slice(&bytes[..cut]);
            assert!(RecordList::<(u64, u64, u64), Tagged>::from_bytes(&prefix).is_err(), "{cut}");
        }
    }

    /// A key component from a draw: small values and the maximum often,
    /// so components repeat and every `at` occurs.
    fn component((pick, raw): (u64, u64)) -> u64 {
        match pick {
            0..=2 => pick,
            3 => u64::MAX,
            _ => raw,
        }
    }

    type Draw = ((u64, u64), (u64, u64), (u64, u64), u64, (bool, u64));

    /// Round trip, arithmetic size and canonical re-encoding of the
    /// records `draws` describe, live or tombstoned.
    fn check<K: RecordKey>(draws: &[Draw]) {
        let records = draws.iter().map(|&(a, b, c, version, (live, tag))| {
            let parts = [component(a), component(b), component(c)];
            let key = (0..K::ARITY).fold(K::MIN, |k, i| k.with_part(i, parts[i]));
            let id = key.part(K::ARITY - 1);
            (key, version, live.then_some(Tagged { id, tag }))
        });
        let list = RecordList::from_records(records);
        let bytes = list.to_bytes();
        assert_eq!(list.wire_size(), bytes.len());
        let back = RecordList::<K, Tagged>::from_bytes(&bytes).expect("decode");
        assert_eq!(&back, &list);
        assert_eq!(back.to_bytes(), bytes, "re-encode must be byte-identical");
        let keys: Vec<K> = list.iter().map(|(k, _, _)| k).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        let lo = keys.first().copied().unwrap_or(K::MIN);
        let mut buf = BytesMut::new();
        put_keys(&mut buf, lo, &keys);
        assert_eq!(keys_size(lo, &keys), buf.len());
        assert_eq!(get_keys(&mut buf.freeze(), lo, usize::MAX).expect("decode"), keys);
    }

    proptest! {
        /// P-Grid's `(key, ident)` records: round trip, arithmetic size.
        #[test]
        fn prop_roundtrip_pairs(draws in proptest::collection::vec(
            ((0u64..6, any::<u64>()), (0u64..6, any::<u64>()), (0u64..6, any::<u64>()),
             any::<u64>(), (any::<bool>(), 0u64..4)),
            0..40,
        )) {
            check::<(u64, u64)>(&draws);
        }

        /// Chord's `(ring, key, ident)` records.
        #[test]
        fn prop_roundtrip_triples(draws in proptest::collection::vec(
            ((0u64..6, any::<u64>()), (0u64..6, any::<u64>()), (0u64..6, any::<u64>()),
             any::<u64>(), (any::<bool>(), 0u64..4)),
            0..40,
        )) {
            check::<(u64, u64, u64)>(&draws);
        }
    }
}
