//! Wire messages of the hash-tree replica repair
//! ([`super::ReplicaRepair`]), generic over the backend's record key.
//!
//! Every message names the span(s) it talks about, so neither side
//! keeps exchange state. Decoding rejects what a handler would
//! otherwise have to trust: inverted spans, a split whose fan-out is
//! not [`FANOUT`] or whose sub-ranges do not tile its span in ascending
//! order, a run longer than [`LEAF_MAX`] or with keys outside its span.
//!
//! Record keys travel front-coded ([`crate::records`]): a run's keys
//! and a split's bounds against the span's lower bound, a want-list
//! from the zero key, and the shipped records as one [`RecordList`].

use bytes::{Buf, BufMut, Bytes, BytesMut};

use unistore_util::item::Item;
use unistore_util::wire::{
    get_len, get_varint, put_list, put_varint, varint_size, Wire, WireError,
};

use super::{RecordKey, Span, Summary, FANOUT, LEAF_MAX};
use crate::records::{get_key, get_keys, key_size, keys_size, put_key, put_keys, RecordList};

/// One sub-range of a [`Part::Split`]: it ends at `hi` (inclusive) and
/// starts right after the previous child's `hi` (the first one at the
/// split span's lower bound).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Child<K> {
    /// Inclusive upper bound of the sub-range.
    pub hi: K,
    /// The sender's summary of its records in the sub-range.
    pub summary: Summary,
}

/// The sender's description of one span the two sides disagree on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Part<K> {
    /// More than [`LEAF_MAX`] records: the summaries of [`FANOUT`]
    /// sub-ranges holding equal shares of the sender's records.
    Split {
        /// The span being split; the last child ends at its upper bound.
        span: Span<K>,
        /// Exactly [`FANOUT`] children, `hi` strictly ascending.
        children: Vec<Child<K>>,
    },
    /// At most [`LEAF_MAX`] records: all of them, as `(record key,
    /// version)` in ascending key order.
    Run {
        /// The span the run covers.
        span: Span<K>,
        /// Every record the sender holds in `span`.
        entries: Vec<(K, u64)>,
    },
}

/// The repair-plane messages both backends carry in one envelope
/// variant (`PGridMsg::Repair`, `ChordMsg::Repair`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RepairMsg<K, I> {
    /// Anti-entropy tick: "this is my summary of the span we share".
    /// A partner whose own summary is equal stays silent.
    Probe {
        /// The shared span.
        span: Span<K>,
        /// The sender's record count and hash over it.
        summary: Summary,
    },
    /// One level of descent: the sender's description of every span it
    /// found its summary to differ on.
    Descend {
        /// One part per differing span.
        parts: Vec<Part<K>>,
    },
    /// The leaf step: records the receiver lacks or holds at an older
    /// version (tombstones included), plus the keys the sender wants
    /// back because the receiver's run showed them newer.
    Records {
        /// `(record key, version, item-or-tombstone)` to apply.
        entries: RecordList<K, I>,
        /// Record keys to answer with a `Records` of their own,
        /// ascending.
        want: Vec<K>,
    },
}

mod tag {
    pub const PROBE: u8 = 1;
    pub const DESCEND: u8 = 2;
    pub const RECORDS: u8 = 3;
    pub const SPLIT: u8 = 1;
    pub const RUN: u8 = 2;
}

impl Wire for Summary {
    fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, self.count);
        // A hash is uniform over u64: fixed width beats a 9–10 byte varint.
        buf.put_u64(self.hash);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let count = u64::decode(buf)?;
        if buf.remaining() < 8 {
            return Err(WireError::UnexpectedEof);
        }
        Ok(Summary { count, hash: buf.get_u64() })
    }

    fn wire_size(&self) -> usize {
        varint_size(self.count) + 8
    }
}

impl<K: RecordKey> Part<K> {
    /// The span this part describes.
    pub fn span(&self) -> Span<K> {
        match self {
            Part::Split { span, .. } | Part::Run { span, .. } => *span,
        }
    }

    /// The structural rules a handler relies on (see the module docs).
    fn validate(&self) -> Result<(), WireError> {
        let (lo, hi) = self.span();
        if lo > hi {
            return Err(WireError::BadLength(0));
        }
        match self {
            Part::Split { children, .. } => {
                if children.len() != FANOUT {
                    return Err(WireError::BadLength(children.len() as u64));
                }
                let tiled = children.first().is_some_and(|c| c.hi >= lo)
                    && children.windows(2).all(|w| w[0].hi < w[1].hi)
                    && children.last().is_some_and(|c| c.hi == hi);
                if !tiled {
                    return Err(WireError::BadLength(0));
                }
            }
            Part::Run { entries, .. } => {
                if entries.len() > LEAF_MAX {
                    return Err(WireError::BadLength(entries.len() as u64));
                }
                let inside = entries.iter().all(|&(k, _)| lo <= k && k <= hi)
                    && entries.windows(2).all(|w| w[0].0 < w[1].0);
                if !inside {
                    return Err(WireError::BadLength(0));
                }
            }
        }
        Ok(())
    }
}

impl<K: RecordKey> Wire for Part<K> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Part::Split { span, children } => {
                tag::SPLIT.encode(buf);
                span.encode(buf);
                put_varint(buf, children.len() as u64);
                let mut prev = span.0;
                for child in children {
                    put_key(buf, &prev, &child.hi, false);
                    child.summary.encode(buf);
                    prev = child.hi;
                }
            }
            Part::Run { span, entries } => {
                tag::RUN.encode(buf);
                span.encode(buf);
                put_varint(buf, entries.len() as u64);
                let mut prev = span.0;
                for (key, version) in entries {
                    put_key(buf, &prev, key, false);
                    put_varint(buf, *version);
                    prev = *key;
                }
            }
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let t = u8::decode(buf)?;
        let span = Span::<K>::decode(buf)?;
        // The only legal lengths are known up front: refuse a hostile
        // prefix before decoding (or reserving for) a single element.
        let len = get_len(buf)?;
        let mut prev = span.0;
        let part = match t {
            tag::SPLIT if len == FANOUT => {
                let mut children = Vec::with_capacity(FANOUT);
                for i in 0..len {
                    prev = get_key(buf, &prev, None, i == 0)?;
                    children.push(Child { hi: prev, summary: Summary::decode(buf)? });
                }
                Part::Split { span, children }
            }
            tag::RUN if len <= LEAF_MAX => {
                let mut entries = Vec::with_capacity(len.min(LEAF_MAX));
                for i in 0..len {
                    prev = get_key(buf, &prev, None, i == 0)?;
                    entries.push((prev, get_varint(buf)?));
                }
                Part::Run { span, entries }
            }
            tag::SPLIT | tag::RUN => return Err(WireError::BadLength(len as u64)),
            other => return Err(WireError::BadTag(other)),
        };
        part.validate()?;
        Ok(part)
    }

    fn wire_size(&self) -> usize {
        let (span, len) = match self {
            Part::Split { span, children } => (span, children.len()),
            Part::Run { span, entries } => (span, entries.len()),
        };
        let mut prev = span.0;
        let mut size = 1 + span.wire_size() + varint_size(len as u64);
        match self {
            Part::Split { children, .. } => {
                for child in children {
                    size += key_size(&prev, &child.hi, false) + child.summary.wire_size();
                    prev = child.hi;
                }
            }
            Part::Run { entries, .. } => {
                for (key, version) in entries {
                    size += key_size(&prev, key, false) + varint_size(*version);
                    prev = *key;
                }
            }
        }
        size
    }
}

impl<K: RecordKey, I> RepairMsg<K, I> {
    /// Whether the message obeys the structural rules decoding
    /// enforces. Simulated sends hand values over without a decode, so
    /// [`super::ReplicaRepair::handle`] asks again.
    pub fn well_formed(&self) -> bool {
        match self {
            RepairMsg::Probe { span, .. } => span.0 <= span.1,
            RepairMsg::Descend { parts } => parts.iter().all(|p| p.validate().is_ok()),
            RepairMsg::Records { want, .. } => want.windows(2).all(|w| w[0] < w[1]),
        }
    }
}

impl<K: RecordKey, I: Item> Wire for RepairMsg<K, I> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            RepairMsg::Probe { span, summary } => {
                tag::PROBE.encode(buf);
                span.encode(buf);
                summary.encode(buf);
            }
            RepairMsg::Descend { parts } => {
                tag::DESCEND.encode(buf);
                put_list(buf, parts);
            }
            RepairMsg::Records { entries, want } => {
                tag::RECORDS.encode(buf);
                entries.encode(buf);
                put_keys(buf, K::MIN, want);
            }
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(match u8::decode(buf)? {
            tag::PROBE => {
                let span: Span<K> = Wire::decode(buf)?;
                if span.0 > span.1 {
                    return Err(WireError::BadLength(0));
                }
                RepairMsg::Probe { span, summary: Wire::decode(buf)? }
            }
            // Each part validates itself as it decodes.
            tag::DESCEND => RepairMsg::Descend { parts: Wire::decode(buf)? },
            tag::RECORDS => RepairMsg::Records {
                entries: Wire::decode(buf)?,
                want: get_keys(buf, K::MIN, usize::MAX)?,
            },
            other => return Err(WireError::BadTag(other)),
        })
    }

    fn wire_size(&self) -> usize {
        1 + match self {
            RepairMsg::Probe { span, summary } => span.wire_size() + summary.wire_size(),
            RepairMsg::Descend { parts } => parts.wire_size(),
            RepairMsg::Records { entries, want } => entries.wire_size() + keys_size(K::MIN, want),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unistore_util::item::testing::Tagged;

    type Msg = RepairMsg<(u64, u64), Tagged>;
    type Children = Vec<Child<(u64, u64)>>;

    fn split(span: Span<(u64, u64)>) -> Part<(u64, u64)> {
        let children = (0..FANOUT as u64)
            .map(|i| Child {
                hi: if i + 1 == FANOUT as u64 { span.1 } else { (span.0 .0, span.0 .1 + i) },
                summary: Summary { count: i, hash: !i },
            })
            .collect();
        Part::Split { span, children }
    }

    fn roundtrip(msg: &Msg) {
        let bytes = msg.to_bytes();
        assert_eq!(bytes.len(), msg.wire_size(), "{msg:?}");
        assert_eq!(&Msg::from_bytes(&bytes).expect("decode"), msg);
    }

    #[test]
    fn every_variant_roundtrips_with_arithmetic_size() {
        let span = ((3, 0), (9, u64::MAX));
        let probe = Msg::Probe { span, summary: Summary { count: 70_000, hash: u64::MAX } };
        roundtrip(&probe);
        // P-Grid's leaf probe is the "one ≈ 40 B message" of a tick.
        assert!(probe.wire_size() <= 40, "{}", probe.wire_size());
        roundtrip(&Msg::Descend { parts: Vec::new() });
        roundtrip(&Msg::Descend {
            parts: vec![
                split(span),
                Part::Run { span, entries: vec![((3, 1), 0), ((3, 2), u64::MAX), ((9, 0), 7)] },
                Part::Run { span: ((5, 5), (5, 5)), entries: Vec::new() },
            ],
        });
        roundtrip(&Msg::Records { entries: RecordList::new(), want: Vec::new() });
        roundtrip(&Msg::Records {
            entries: RecordList::from_records([
                ((3, 1), 4, Some(Tagged { id: 1, tag: 9 })),
                ((3, 2), 5, None),
            ]),
            want: vec![(3, 7), (9, 0)],
        });
    }

    /// Neither the decoder nor the handler-side check lets `msg` pass.
    fn reject(msg: Msg, why: &str) {
        assert!(!msg.well_formed(), "{why}: handler-side check");
        assert!(Msg::from_bytes(&msg.to_bytes()).is_err(), "{why}: decode");
    }

    #[test]
    fn decode_rejects_what_handlers_would_trust() {
        let span = ((3, 0), (9, u64::MAX));
        reject(Msg::Probe { span: (span.1, span.0), summary: Summary::default() }, "inverted span");
        let with_children = |edit: &dyn Fn(&mut Children)| {
            let Part::Split { span, mut children } = split(span) else { unreachable!() };
            edit(&mut children);
            Msg::Descend { parts: vec![Part::Split { span, children }] }
        };
        reject(with_children(&|c| c.truncate(FANOUT - 1)), "fan-out 15");
        reject(with_children(&|c| c.push(c[FANOUT - 1])), "fan-out 17");
        reject(with_children(&|c| c.swap(2, 3)), "descending sub-ranges");
        reject(with_children(&|c| c[4] = c[3]), "empty sub-range");
        reject(with_children(&|c| c[0].hi = (2, 9)), "sub-range below the span");
        reject(with_children(&|c| c[FANOUT - 1].hi = (9, 5)), "children stop short of the span");
        let run = |span, entries| Msg::Descend { parts: vec![Part::Run { span, entries }] };
        reject(run((span.1, span.0), Vec::new()), "inverted run span");
        reject(run(span, vec![((2, 0), 1)]), "run key below its span");
        reject(run(((3, 0), (3, 5)), vec![((3, 6), 1)]), "run key above its span");
        reject(run(span, vec![((4, 0), 1), ((3, 9), 1)]), "run out of order");
        reject(run(span, vec![((4, 0), 1), ((4, 0), 2)]), "duplicate run key");
        let long = (0..=LEAF_MAX as u64).map(|i| ((4, i), 0)).collect();
        reject(run(span, long), "run longer than a leaf");
    }

    #[test]
    fn hostile_length_prefixes_allocate_nothing() {
        // DESCEND, one part, RUN, a 4-byte span, then a run that claims
        // 2^28 entries: refused at the prefix, before any element.
        let mut bytes = vec![tag::DESCEND, 1, tag::RUN, 1, 0, 2, 0];
        bytes.extend([0x80, 0x80, 0x80, 0x80, 0x01]);
        let err = Msg::from_bytes(&Bytes::from(bytes)).unwrap_err();
        assert_eq!(err, WireError::BadLength(1 << 28));
    }
}
