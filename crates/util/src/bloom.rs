//! Wire-encodable Bloom filters for semi-join pushdown.
//!
//! UniStore's cost model prices plans almost entirely by shipped bytes
//! and messages, and the dominant byte cost of a distributed join is the
//! right side's candidate triples travelling to the plan holder. A
//! [`BloomFilter`] is the compact summary that travels the *other* way:
//! the plan holder encodes the already-materialized side's distinct join
//! keys and ships the filter inside the scan operation, so the peers
//! responsible for the data drop non-matching triples *before* replying.
//! The filter is conservative by construction — a membership test may
//! return a false positive (pruned later by the exact hash join) but
//! never a false negative, so filtered scans lose no true join match.
//!
//! [`ItemFilter`] pairs a filter with the item field it tests
//! ([`Item::field_hash`]), making the pushdown expressible at the
//! storage layer without the overlays knowing anything about triples.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::fxhash::mix64;
use crate::item::Item;
use crate::wire::{get_varint, put_varint, varint_size, Wire, WireError};

/// Salts separating the two derived hash functions (double hashing).
const SALT_A: u64 = 0x424c_4f4f_4d5f_4861; // "BLOOM_Ha"
const SALT_B: u64 = 0x424c_4f4f_4d5f_4862; // "BLOOM_Hb"

/// Hard cap on filter size: a filter that large stopped being a
/// bandwidth optimization long ago (also guards decoded input).
const MAX_WORDS: u64 = 1 << 20; // 8 MiB of bits

/// A Bloom filter over 64-bit element hashes.
///
/// Elements are already-mixed hashes (e.g. the semantic hash of a join
/// key); the filter derives its `k` probe positions by double hashing,
/// so no per-element rehashing of payload bytes is needed at the leaves.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BloomFilter {
    /// Number of probe positions per element.
    k: u32,
    /// The bit array, 64 bits per word.
    words: Vec<u64>,
}

impl BloomFilter {
    /// Creates an empty filter sized for `n` distinct elements at target
    /// false-positive rate `fpr` (clamped to sane bounds). The classic
    /// sizing: `m = -n·ln p / ln²2` bits, `k = (m/n)·ln 2` probes.
    pub fn with_capacity(n: usize, fpr: f64) -> BloomFilter {
        let n = n.max(1) as f64;
        let p = fpr.clamp(1e-6, 0.5);
        let m_bits = (-(n * p.ln()) / (core::f64::consts::LN_2 * core::f64::consts::LN_2)).ceil();
        let words = ((m_bits / 64.0).ceil() as u64).clamp(1, MAX_WORDS) as usize;
        let k = ((words as f64 * 64.0 / n) * core::f64::consts::LN_2).round();
        BloomFilter { k: (k as u32).clamp(1, 16), words: vec![0; words] }
    }

    /// Builds a filter from element hashes at target `fpr`, sized for
    /// the number of *distinct* hashes provided.
    pub fn from_hashes(hashes: impl IntoIterator<Item = u64>, fpr: f64) -> BloomFilter {
        let hashes: Vec<u64> = hashes.into_iter().collect();
        let mut f = BloomFilter::with_capacity(hashes.len(), fpr);
        for h in hashes {
            f.insert(h);
        }
        f
    }

    /// Probe positions for an element (double hashing).
    #[inline]
    fn probes(&self, h: u64) -> impl Iterator<Item = (usize, u64)> + '_ {
        let m = self.words.len() as u64 * 64;
        let h1 = mix64(h ^ SALT_A);
        let h2 = mix64(h ^ SALT_B) | 1;
        (0..self.k as u64).map(move |i| {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) % m;
            ((bit / 64) as usize, 1u64 << (bit % 64))
        })
    }

    /// Inserts an element hash.
    pub fn insert(&mut self, h: u64) {
        let m = self.words.len() as u64 * 64;
        let h1 = mix64(h ^ SALT_A);
        let h2 = mix64(h ^ SALT_B) | 1;
        for i in 0..self.k as u64 {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) % m;
            self.words[(bit / 64) as usize] |= 1u64 << (bit % 64);
        }
    }

    /// Membership test: `true` means *possibly present* (false positives
    /// at roughly the configured rate), `false` means *definitely
    /// absent* — never wrong for inserted elements.
    pub fn contains(&self, h: u64) -> bool {
        self.probes(h).all(|(w, mask)| self.words[w] & mask != 0)
    }

    /// Number of bits in the filter.
    pub fn n_bits(&self) -> usize {
        self.words.len() * 64
    }
}

impl Wire for BloomFilter {
    fn encode(&self, buf: &mut BytesMut) {
        // Filters are the dominant request-side payload of a pushed-down
        // semi-join; reserve the exact size instead of growing word by
        // word.
        buf.reserve(self.wire_size());
        self.k.encode(buf);
        put_varint(buf, self.words.len() as u64);
        for w in &self.words {
            buf.put_u64(*w);
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let k = u32::decode(buf)?;
        if !(1..=64).contains(&k) {
            return Err(WireError::BadLength(k as u64));
        }
        let n = get_varint(buf)?;
        if n == 0 || n > MAX_WORDS {
            return Err(WireError::BadLength(n));
        }
        if (buf.remaining() as u64) < n * 8 {
            return Err(WireError::UnexpectedEof);
        }
        let words = (0..n).map(|_| buf.get_u64()).collect();
        Ok(BloomFilter { k, words })
    }

    fn wire_size(&self) -> usize {
        self.k.wire_size() + varint_size(self.words.len() as u64) + 8 * self.words.len()
    }
}

/// A pushed-down semi-join filter: which field of a stored item to test
/// ([`Item::field_hash`]) and the Bloom filter over the acceptable join
/// keys. Travels inside storage-layer scan messages; leaves apply it
/// before replying.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ItemFilter {
    /// Field discriminant, interpreted by the stored item type.
    pub field: u8,
    /// Acceptable join-key hashes.
    pub bloom: BloomFilter,
}

impl ItemFilter {
    /// Whether the item survives the filter. Conservative: items whose
    /// type does not expose the addressed field always pass.
    pub fn accepts<I: Item>(&self, item: &I) -> bool {
        self.keeps(item.field_hash(self.field))
    }

    /// [`ItemFilter::accepts`] on an already computed
    /// [`Item::field_hash`] — the form a [`FieldHashColumns`] scan
    /// probes with, so both answer the same by construction.
    pub fn keeps(&self, field_hash: Option<u64>) -> bool {
        match field_hash {
            Some(h) => self.bloom.contains(h),
            None => true,
        }
    }

    /// Retains only the surviving items (no-op for `None`) — the shared
    /// leaf-side application path of every backend.
    pub fn retain<I: Item>(filter: &Option<ItemFilter>, items: &mut Vec<I>) {
        if let Some(f) = filter {
            items.retain(|i| f.accepts(i));
        }
    }
}

impl Wire for ItemFilter {
    fn encode(&self, buf: &mut BytesMut) {
        self.field.encode(buf);
        self.bloom.encode(buf);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(ItemFilter { field: u8::decode(buf)?, bloom: BloomFilter::decode(buf)? })
    }

    fn wire_size(&self) -> usize {
        1 + self.bloom.wire_size()
    }
}

/// Columns a [`FieldHashColumns`] keeps. Four covers the scans one leaf
/// sees while a join runs (a pattern's range clipped to the leaf, times
/// the subject and value fields); a constant, not a tuning knob.
const MAX_COLUMNS: usize = 4;

/// One memoized column: `Item::field_hash(field)` of every candidate of
/// the scan `bounds`, in the scan's iteration order.
#[derive(Clone, Debug)]
struct HashColumn<B> {
    bounds: B,
    field: u8,
    /// The store generation the hashes were computed at; `None` until
    /// first filled.
    built_at: Option<u64>,
    hashes: Vec<Option<u64>>,
}

/// A store's memo of join-key hashes for filtered scans.
///
/// A semi-join probes the same stored items query after query, and
/// hashing a candidate's field (a byte-at-a-time string hash) costs more
/// than the Bloom probe it feeds. The memo keeps, for the few most
/// recently used `(scan bounds, field)` pairs, the column of
/// [`Item::field_hash`] values over that scan's candidates; the store
/// zips a scan's candidates with the column and probes with the stored
/// hash ([`ItemFilter::keeps`]). Every mutation of the store calls
/// [`FieldHashColumns::invalidate`], which makes *all* columns stale —
/// the rule is per store, not per range, so a writer pays one increment
/// and no column can outlive a change to the candidates it describes.
#[derive(Clone, Debug)]
pub struct FieldHashColumns<B> {
    /// Bumped by every store mutation.
    generation: u64,
    /// Most recently used first.
    columns: Vec<HashColumn<B>>,
}

impl<B> Default for FieldHashColumns<B> {
    fn default() -> Self {
        FieldHashColumns { generation: 0, columns: Vec::new() }
    }
}

impl<B: Copy + PartialEq> FieldHashColumns<B> {
    /// Marks every column stale. Stores call this from each mutator.
    #[inline]
    pub fn invalidate(&mut self) {
        self.generation += 1;
    }

    /// The hash column of `(bounds, field)`. When none is current,
    /// `fill` is called with an empty vector to push
    /// `item.field_hash(field)` for every candidate of the scan, in the
    /// order the scan yields them; the least recently used column makes
    /// room.
    pub fn column(
        &mut self,
        bounds: B,
        field: u8,
        fill: impl FnOnce(&mut Vec<Option<u64>>),
    ) -> &[Option<u64>] {
        let at = match self.columns.iter().position(|c| c.bounds == bounds && c.field == field) {
            Some(at) => at,
            None => {
                // Re-key the evicted column so its allocation is reused.
                match self.columns.len() < MAX_COLUMNS {
                    true => self.columns.push(HashColumn {
                        bounds,
                        field,
                        built_at: None,
                        hashes: Vec::new(),
                    }),
                    false => {
                        let lru = &mut self.columns[MAX_COLUMNS - 1];
                        (lru.bounds, lru.field, lru.built_at) = (bounds, field, None);
                    }
                }
                self.columns.len() - 1
            }
        };
        self.columns[..=at].rotate_right(1);
        let column = &mut self.columns[0];
        if column.built_at != Some(self.generation) {
            column.hashes.clear();
            fill(&mut column.hashes);
            column.built_at = Some(self.generation);
        }
        &column.hashes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::RawItem;
    use proptest::prelude::*;

    #[test]
    fn no_false_negatives_basic() {
        let hashes: Vec<u64> = (0..500u64).map(mix64).collect();
        let f = BloomFilter::from_hashes(hashes.iter().copied(), 0.01);
        for h in &hashes {
            assert!(f.contains(*h), "inserted element must test positive");
        }
    }

    #[test]
    fn false_positive_rate_in_the_ballpark() {
        let f = BloomFilter::from_hashes((0..1000u64).map(mix64), 0.01);
        let fps = (1000..101_000u64).map(mix64).filter(|&h| f.contains(h)).count();
        let rate = fps as f64 / 100_000.0;
        assert!(rate < 0.05, "fpr {rate} way above the 1% target");
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let f = BloomFilter::from_hashes(std::iter::empty(), 0.01);
        assert!((0..1000u64).map(mix64).all(|h| !f.contains(h)));
    }

    #[test]
    fn sizing_scales_with_capacity() {
        let small = BloomFilter::with_capacity(10, 0.01);
        let big = BloomFilter::with_capacity(10_000, 0.01);
        assert!(big.n_bits() > small.n_bits());
        // ~9.6 bits/element at 1%: 10k elements ≈ 96k bits ≈ 12 KiB.
        assert!(big.wire_size() < 16 * 1024);
    }

    #[test]
    fn wire_roundtrip() {
        let f = BloomFilter::from_hashes((0..64u64).map(mix64), 0.02);
        let b = f.to_bytes();
        assert_eq!(b.len(), f.wire_size());
        assert_eq!(BloomFilter::from_bytes(&b).unwrap(), f);

        let item_f = ItemFilter { field: 2, bloom: f };
        let b = item_f.to_bytes();
        assert_eq!(b.len(), item_f.wire_size());
        assert_eq!(ItemFilter::from_bytes(&b).unwrap(), item_f);
    }

    #[test]
    fn bad_input_rejected() {
        // k = 0.
        let mut buf = BytesMut::new();
        0u32.encode(&mut buf);
        put_varint(&mut buf, 1);
        buf.put_u64(0);
        assert!(BloomFilter::from_bytes(&buf.freeze()).is_err());
        // Zero words.
        let mut buf = BytesMut::new();
        3u32.encode(&mut buf);
        put_varint(&mut buf, 0);
        assert!(BloomFilter::from_bytes(&buf.freeze()).is_err());
        // Truncated words.
        let mut buf = BytesMut::new();
        3u32.encode(&mut buf);
        put_varint(&mut buf, 2);
        buf.put_u64(7);
        assert!(matches!(BloomFilter::from_bytes(&buf.freeze()), Err(WireError::UnexpectedEof)));
    }

    #[test]
    fn item_filter_passes_fieldless_items() {
        // RawItem exposes no fields: the filter must keep everything.
        let f = ItemFilter { field: 0, bloom: BloomFilter::with_capacity(4, 0.01) };
        assert!(f.accepts(&RawItem(99)));
        let mut v = vec![RawItem(1), RawItem(2)];
        ItemFilter::retain(&Some(f), &mut v);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn columns_refill_when_stale_and_evict_least_recently_used() {
        let mut memo: FieldHashColumns<u8> = FieldHashColumns::default();
        let mut fills = 0;
        let mut get = |memo: &mut FieldHashColumns<u8>, bounds: u8, field: u8| {
            let before = fills;
            let got = memo
                .column(bounds, field, |c| {
                    fills += 1;
                    c.extend([Some(bounds as u64), None, Some(field as u64)]);
                })
                .to_vec();
            assert_eq!(got, vec![Some(bounds as u64), None, Some(field as u64)]);
            fills > before
        };
        assert!(get(&mut memo, 1, 0), "first use fills");
        assert!(!get(&mut memo, 1, 0), "second use does not");
        assert!(get(&mut memo, 1, 2), "the field is part of the key");
        memo.invalidate();
        assert!(get(&mut memo, 1, 0), "stale after any mutation");
        assert!(get(&mut memo, 1, 2), "every column is");
        // Four columns are kept; when a fifth arrives it is (1, 2) that
        // goes, not (1, 0), which was touched after it.
        for bounds in 2..=3 {
            assert!(get(&mut memo, bounds, 0));
        }
        assert!(!get(&mut memo, 1, 0));
        assert!(get(&mut memo, 4, 0), "evicts (1, 2)");
        assert!(!get(&mut memo, 1, 0));
        assert!(get(&mut memo, 1, 2), "which was the least recently used");
    }

    proptest! {
        /// The load-bearing property: a Bloom filter never produces a
        /// false negative, so a filtered scan never drops a true match.
        #[test]
        fn prop_no_false_negatives(
            elems in proptest::collection::vec(any::<u64>(), 0..300),
            fpr in 0.001f64..0.3,
        ) {
            let f = BloomFilter::from_hashes(elems.iter().copied(), fpr);
            for e in &elems {
                prop_assert!(f.contains(*e));
            }
        }

        #[test]
        fn prop_wire_roundtrip(
            elems in proptest::collection::vec(any::<u64>(), 0..128),
            field in 0u8..3,
        ) {
            let f = ItemFilter { field, bloom: BloomFilter::from_hashes(elems, 0.01) };
            let b = f.to_bytes();
            prop_assert_eq!(b.len(), f.wire_size());
            prop_assert_eq!(ItemFilter::from_bytes(&b).unwrap(), f);
        }
    }
}
