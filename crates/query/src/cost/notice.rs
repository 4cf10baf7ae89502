//! The notice codec: [`StatsNotice`], the summaries a statistics flush
//! publishes — every attribute summary and shard count that a shard
//! home found drifted past ε — as every peer receives them.

use std::sync::Arc;

use bytes::{Buf, BufMut};

use unistore_util::intern;
use unistore_util::stats::Histogram;
use unistore_util::wire::{
    decode_str, get_len, get_varint, put_varint, varint_size, Wire, WireError,
};

use super::shards::STATS_SHARDS;
use super::statistics::{AttrStats, HIST_BUCKETS};

/// Largest count a summary field may state: every integer up to it is
/// an exact `f64`, so the sums a peer derives stay exact.
const MAX_COUNT: u64 = 1 << 53;

/// One attribute's statistics as its home published them: absolute
/// numbers, tagged with the home's publication number.
#[derive(Clone, Debug, PartialEq)]
pub struct AttrSummary {
    /// The attribute.
    pub attr: Arc<str>,
    /// The home's publication number (0: the load's).
    pub seq: u64,
    /// The summary ([`AttrStats::summary`]): no refcount maps. Peers
    /// hold this very `Arc`.
    pub stats: Arc<AttrStats>,
}

/// One shard's distinct counts as its home published them.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ShardSummary {
    /// The home's publication number (0: the load's).
    pub seq: u64,
    /// Live OID fingerprints in the shard.
    pub oids: u64,
    /// Live value key bits in the shard.
    pub values: u64,
}

/// A statistics flush as every peer receives it: the summaries the
/// shard homes published in their acks, each attribute and each shard
/// at most once (the newest), sorted by attribute name and by shard.
/// Receivers install it with
/// [`GlobalStats::install`](super::GlobalStats::install). It names no
/// OID and no written pair.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatsNotice {
    /// Attribute summaries, strictly ascending by name.
    pub(super) attrs: Vec<AttrSummary>,
    /// `(shard, counts)`, strictly ascending by shard.
    pub(super) shards: Vec<(u8, ShardSummary)>,
}

impl StatsNotice {
    /// Whether the notice publishes nothing.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty() && self.shards.is_empty()
    }

    /// Summaries the notice publishes.
    pub fn len(&self) -> usize {
        self.attrs.len() + self.shards.len()
    }

    /// The attribute summaries, ascending by name.
    pub fn attrs(&self) -> &[AttrSummary] {
        &self.attrs
    }

    /// The shard counts, ascending by shard.
    pub fn shards(&self) -> &[(u8, ShardSummary)] {
        &self.shards
    }

    /// Adds another notice's summaries, keeping the newer of two for
    /// one attribute or shard.
    pub fn merge(&mut self, other: StatsNotice) {
        if other.is_empty() {
            return;
        }
        self.attrs.extend(other.attrs);
        self.attrs.sort_by(|a, b| a.attr.cmp(&b.attr).then(b.seq.cmp(&a.seq)));
        self.attrs.dedup_by(|later, first| later.attr == first.attr);
        self.shards.extend(other.shards);
        self.shards.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.seq.cmp(&a.1.seq)));
        self.shards.dedup_by(|later, first| later.0 == first.0);
    }
}

/// The integer fields of a summary, in wire order: count, bytes,
/// distinct, join_distinct, gram_postings, gram_distinct, then the
/// histogram's count and distinct estimate. The fields hold counts, so
/// the casts are exact up to [`MAX_COUNT`], where they stop.
fn summary_fields(s: &AttrStats) -> [u64; 8] {
    let capped = |x: f64| x.min(MAX_COUNT as f64) as u64;
    [
        capped(s.count),
        capped(s.bytes),
        capped(s.distinct),
        capped(s.join_distinct),
        capped(s.gram_postings),
        capped(s.gram_distinct),
        s.hist.count().min(MAX_COUNT),
        s.hist.distinct_estimate().min(MAX_COUNT),
    ]
}

/// The nonzero buckets as `(gap from the previous index, count)`, the
/// first gap from zero.
fn bucket_gaps(h: &Histogram) -> impl Iterator<Item = (u64, u64)> + '_ {
    h.nonzero().scan(0usize, |next, (i, n)| {
        let gap = i - *next;
        *next = i + 1;
        Some((gap as u64, n))
    })
}

fn encode_summary(s: &AttrStats, buf: &mut bytes::BytesMut) {
    summary_fields(s).iter().for_each(|&x| put_varint(buf, x));
    put_varint(buf, s.hist.nonzero().count() as u64);
    for (gap, n) in bucket_gaps(&s.hist) {
        put_varint(buf, gap);
        put_varint(buf, n);
    }
}

fn summary_size(s: &AttrStats) -> usize {
    summary_fields(s).iter().map(|&x| varint_size(x)).sum::<usize>()
        + varint_size(s.hist.nonzero().count() as u64)
        + bucket_gaps(&s.hist).map(|(gap, n)| varint_size(gap) + varint_size(n)).sum::<usize>()
}

/// A count field: at most [`MAX_COUNT`].
fn get_count(buf: &mut bytes::Bytes) -> Result<u64, WireError> {
    let x = get_varint(buf)?;
    match x <= MAX_COUNT {
        true => Ok(x),
        false => Err(WireError::BadLength(x)),
    }
}

/// Decodes `attr`'s summary, rejecting one whose fields contradict each
/// other: more distinct values (by key or semantic) than triples, more
/// distinct grams than postings, a histogram with more distinct keys
/// than keys, bucket indexes off the histogram or not ascending, an
/// empty bucket, or buckets that do not sum to the histogram's count.
fn decode_summary(attr: &str, buf: &mut bytes::Bytes) -> Result<AttrStats, WireError> {
    // In wire order (tuple fields evaluate left to right).
    let (count, bytes) = (get_count(buf)?, get_count(buf)?);
    let (distinct, join_distinct) = (get_count(buf)?, get_count(buf)?);
    let (postings, grams) = (get_count(buf)?, get_count(buf)?);
    let (hist_count, hist_distinct) = (get_count(buf)?, get_count(buf)?);
    let contradicts =
        distinct > count || join_distinct > count || grams > postings || hist_distinct > hist_count;
    if contradicts {
        return Err(WireError::BadLength(count));
    }
    let n = get_len(buf)?;
    if n > HIST_BUCKETS {
        return Err(WireError::BadLength(n as u64));
    }
    let mut buckets = Vec::with_capacity(n.min(HIST_BUCKETS));
    let (mut next, mut sum) = (0u64, 0u64);
    for _ in 0..n {
        let at = next.checked_add(get_varint(buf)?).filter(|&i| i < HIST_BUCKETS as u64);
        let at = at.ok_or(WireError::BadLength(next))?;
        let c = get_count(buf)?;
        sum = sum.checked_add(c).ok_or(WireError::BadLength(c))?;
        if c == 0 {
            return Err(WireError::BadLength(0));
        }
        buckets.push((at as usize, c));
        next = at + 1;
    }
    if sum != hist_count {
        return Err(WireError::BadLength(sum));
    }
    let (lo, hi) = unistore_store::index::attr_range(attr);
    Ok(AttrStats {
        count: count as f64,
        distinct: distinct as f64,
        join_distinct: join_distinct as f64,
        hist: Histogram::from_summary(lo, hi, HIST_BUCKETS, buckets, hist_distinct),
        gram_postings: postings as f64,
        gram_distinct: grams as f64,
        bytes: bytes as f64,
        refs: None,
    })
}

// Layout: the attribute summaries (count; per summary the name, the
// publication number, the eight integer fields of `summary_fields` and
// the nonzero histogram buckets: count, then per bucket the index gap
// and the count), then the shard counts (count; per shard its number as
// one byte, the publication number, the OID and the value count).
impl Wire for StatsNotice {
    fn encode(&self, buf: &mut bytes::BytesMut) {
        put_varint(buf, self.attrs.len() as u64);
        for s in &self.attrs {
            s.attr.encode(buf);
            put_varint(buf, s.seq);
            encode_summary(&s.stats, buf);
        }
        put_varint(buf, self.shards.len() as u64);
        for (shard, c) in &self.shards {
            buf.put_u8(*shard);
            [c.seq, c.oids, c.values].iter().for_each(|&x| put_varint(buf, x));
        }
    }

    fn decode(buf: &mut bytes::Bytes) -> Result<Self, WireError> {
        let n = get_len(buf)?;
        let mut attrs: Vec<AttrSummary> = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let attr: Arc<str> = decode_str(buf, intern)?;
            // Sorted and unique: the encoder sorts, and a repeat would
            // let one notice publish two values for one attribute.
            if attrs.last().is_some_and(|prev| prev.attr >= attr) {
                return Err(WireError::BadLength(attrs.len() as u64));
            }
            let seq = get_varint(buf)?;
            let stats = Arc::new(decode_summary(&attr, buf)?);
            attrs.push(AttrSummary { attr, seq, stats });
        }
        let n = get_len(buf)?;
        let mut shards: Vec<(u8, ShardSummary)> = Vec::with_capacity(n.min(STATS_SHARDS as usize));
        for _ in 0..n {
            if !buf.has_remaining() {
                return Err(WireError::UnexpectedEof);
            }
            let shard = buf.get_u8();
            if shard >= STATS_SHARDS || shards.last().is_some_and(|&(prev, _)| prev >= shard) {
                return Err(WireError::BadTag(shard));
            }
            let seq = get_varint(buf)?;
            let (oids, values) = (get_count(buf)?, get_count(buf)?);
            shards.push((shard, ShardSummary { seq, oids, values }));
        }
        Ok(StatsNotice { attrs, shards })
    }

    fn wire_size(&self) -> usize {
        let attrs = self
            .attrs
            .iter()
            .map(|s| s.attr.wire_size() + varint_size(s.seq) + summary_size(&s.stats));
        let shards = self
            .shards
            .iter()
            .map(|(_, c)| 1 + varint_size(c.seq) + varint_size(c.oids) + varint_size(c.values));
        varint_size(self.attrs.len() as u64)
            + attrs.sum::<usize>()
            + varint_size(self.shards.len() as u64)
            + shards.sum::<usize>()
    }
}
