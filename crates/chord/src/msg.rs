//! Chord protocol messages.

use bytes::{Bytes, BytesMut};

use unistore_overlay::repair::RepairMsg;
use unistore_overlay::RecordList;
use unistore_simnet::NodeId;
use unistore_util::item::Item;
use unistore_util::wire::{get_len, list_size, put_list, resolve_ops, BatchOp, Wire, WireError};
use unistore_util::{ItemFilter, Key};

use crate::store::RecordKey;

/// Correlation id.
pub type QueryId = u64;

/// Most watchers a node keeps and a [`ChordMsg::Watchers`] may name.
/// A node is the finger of O(log N) others in expectation; past the cap
/// a new watcher is not recorded and learns of a crash from its own
/// round-robin probe instead.
pub const WATCHERS_MAX: usize = 512;

/// One op of a [`ChordMsg::OpBatch`]: the shared compact op format
/// ([`BatchOp`]: original key, version, verb) plus which of the two
/// indexes it addresses. A logical write fans out into two of these —
/// one per index (exact + bucket) — but the payload is shipped once per
/// message, referenced by the verb's item tag.
///
/// The ring position is **not** on the wire: every node derives it from
/// `(key, bucket)` with the shared hash (`ring_key_exact` /
/// `ring_key_bucket`), saving ~10 bytes per op per edge, and an op
/// derived from its payload ships the key's slot instead of the key
/// (`BatchVerb::Insert`), which every node turns back into the key on
/// decode. The bucket bit rides
/// [`BatchOp`]'s flag byte (`BatchOp::encode_flagged`), so both
/// backends share one op codec.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChordBatchOp {
    /// `true` = the auxiliary bucket index, `false` = the exact index.
    pub bucket: bool,
    /// Position of this op in the origin's full op list, stable across
    /// sub-batch re-grouping. Echoed by [`ChordMsg::BatchAck`], so the
    /// origin knows exactly which ops landed and a timed-out batch
    /// retransmits only the un-acked remainder.
    pub idx: u32,
    /// Key, version and verb, as in the backend-agnostic batch format.
    pub op: BatchOp,
}

/// Flag bit marking bucket-index ops: the one [`BatchOp`] leaves free.
const BUCKET_FLAG: u8 = BatchOp::FREE_FLAG;

impl Wire for ChordBatchOp {
    fn encode(&self, buf: &mut BytesMut) {
        self.op.encode_flagged(if self.bucket { BUCKET_FLAG } else { 0 }, buf);
        self.idx.encode(buf);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let (op, extra) = BatchOp::decode_flagged(buf, BUCKET_FLAG)?;
        let idx = u32::decode(buf)?;
        Ok(ChordBatchOp { bucket: extra != 0, idx, op })
    }

    fn wire_size(&self) -> usize {
        self.op.wire_size() + self.idx.wire_size()
    }
}

/// Chord messages.
#[derive(Clone, Debug)]
pub enum ChordMsg<I> {
    /// Exact lookup of a ring position (greedy finger routing).
    Lookup {
        /// Correlation id.
        qid: QueryId,
        /// Hashed ring position to resolve.
        ring_key: u64,
        /// Issuer; receives the reply.
        origin: NodeId,
        /// Hops so far.
        hops: u32,
        /// Semi-join filter the owner applies before replying.
        filter: Option<ItemFilter>,
    },
    /// Answer to [`ChordMsg::Lookup`] or [`ChordMsg::BucketGet`].
    LookupReply {
        /// Correlation id.
        qid: QueryId,
        /// The bucket a multi-bucket scan asked for, echoed from its
        /// [`ChordMsg::BucketGet`] (`None` for every other read, whose
        /// reply ships the bytes it always did).
        part: Option<u32>,
        /// Items found.
        items: Vec<I>,
        /// Hops the request took.
        hops: u32,
        /// `false` on a routing failure.
        ok: bool,
    },
    /// Many routed writes coalesced into one message: each distinct
    /// payload travels once in `items`, referenced by the ops' compact
    /// tags. At every node the batch re-splits into a locally applied
    /// remainder plus one sub-batch per next hop; appliers ack the
    /// origin with one aggregated [`ChordMsg::BatchAck`].
    OpBatch {
        /// Correlation id of the whole batch.
        qid: QueryId,
        /// Issuer, receives the aggregated acks.
        origin: NodeId,
        /// Routing hops of this sub-batch so far.
        hops: u32,
        /// 0 on the origin's first attempt, then one more per
        /// retransmission of the un-acked remainder. A retransmitted op
        /// routes around its first-choice finger at every hop and hands
        /// off to the owner's successor instead of the owner.
        attempt: u32,
        /// Distinct payloads, shipped once each.
        items: Vec<I>,
        /// The write ops, referencing `items` by index.
        ops: Vec<ChordBatchOp>,
    },
    /// Aggregated ack naming the applied ops by their origin-side
    /// positions ([`ChordBatchOp::idx`]). Positional acks are idempotent
    /// — a late duplicate re-marks ops already marked — which is what
    /// lets a timed-out batch retransmit only its un-acked remainder
    /// without any attempt-number bookkeeping.
    BatchAck {
        /// Correlation id of the batch.
        qid: QueryId,
        /// Origin-side op positions applied at the acking node.
        applied: Vec<u32>,
        /// Hops the sub-batch travelled to that node.
        hops: u32,
    },
    /// Range query in *bucket* mode, handled at the origin: fans out one
    /// [`ChordMsg::BucketGet`] per bucket intersecting `[lo, hi]`.
    BucketRange {
        /// Correlation id.
        qid: QueryId,
        /// Inclusive bounds on original keys.
        lo: Key,
        /// Inclusive upper bound.
        hi: Key,
        /// Issuer.
        origin: NodeId,
    },
    /// Fetches one bucket, filtering entries to `[lo, hi]`.
    BucketGet {
        /// Correlation id.
        qid: QueryId,
        /// Which bucket of a multi-bucket scan this is, for the reply to
        /// name (`None` for a single-bucket read).
        part: Option<u32>,
        /// Ring position of the bucket.
        ring_key: u64,
        /// Inclusive bounds on original keys.
        lo: Key,
        /// Inclusive upper bound.
        hi: Key,
        /// Issuer.
        origin: NodeId,
        /// Hops so far.
        hops: u32,
        /// Semi-join filter the bucket owner applies before replying.
        filter: Option<ItemFilter>,
    },
    /// Broadcast range query (finger spanning tree, El-Ansary style).
    /// Covers ring positions in `(sender, limit)`.
    Bcast {
        /// Correlation id.
        qid: QueryId,
        /// Inclusive bounds on original keys.
        lo: Key,
        /// Inclusive upper bound.
        hi: Key,
        /// End of the ring interval this branch is responsible for.
        limit: u64,
        /// Hops from the origin.
        hops: u32,
        /// Semi-join filter every node applies to its local scan.
        filter: Option<ItemFilter>,
    },
    /// Convergecast reply: a subtree's aggregated matches.
    BcastReply {
        /// Correlation id.
        qid: QueryId,
        /// Aggregated matching items.
        items: Vec<I>,
        /// Nodes covered by the subtree.
        nodes: u32,
        /// Deepest hop count in the subtree.
        hops: u32,
    },
    /// Push replication of applied writes from a primary to its
    /// successor replica, one per applied sub-batch. One level deep:
    /// replicas only apply, never re-push, so loops are impossible.
    Replicate {
        /// `(record key, version, item-or-tombstone)` records.
        entries: RecordList<RecordKey, I>,
    },
    /// Anti-entropy between a replica and its predecessor (the primary
    /// of its replica set): one message of the hash-tree replica repair
    /// (`unistore_overlay::repair`) over [`RecordKey`]s.
    Repair(RepairMsg<RecordKey, I>),
    /// Routing-liveness probe of a successor or finger. A peer that
    /// stays silent past the ping deadline is suspected and `next_hop`
    /// routes around it until it is heard from again.
    Ping,
    /// Answer to [`ChordMsg::Ping`] (any traffic clears suspicion;
    /// this just guarantees there is some). Also sent unsolicited to
    /// every watcher by a node that revives or that was reported down
    /// while alive, and by a predecessor to ack a
    /// [`ChordMsg::Watchers`].
    Pong,
    /// `node` is down: its ring predecessor found it silent through a
    /// round's deadline and a confirmation ping, and tells the node's
    /// watchers, which suspect it until they hear from it, and `node`
    /// itself, which refutes if it lives.
    Down {
        /// The silent node.
        node: NodeId,
    },
    /// The sender's watchers, the peers whose pings say they route
    /// through it, shipped to its predecessor and `predecessor2` until
    /// each acks with a [`ChordMsg::Pong`]: they detect its crash and
    /// tell these peers. Strictly ascending, at most [`WATCHERS_MAX`],
    /// never the sender.
    Watchers {
        /// The watcher set.
        watchers: Vec<NodeId>,
    },
}

mod tag {
    pub const LOOKUP: u8 = 1;
    pub const LOOKUP_REPLY: u8 = 2;
    pub const BUCKET_RANGE: u8 = 5;
    pub const BUCKET_GET: u8 = 6;
    pub const BCAST: u8 = 7;
    pub const BCAST_REPLY: u8 = 8;
    pub const OP_BATCH: u8 = 10;
    pub const BATCH_ACK: u8 = 11;
    pub const REPLICATE: u8 = 12;
    pub const REPAIR: u8 = 13;
    pub const PING: u8 = 15;
    pub const PONG: u8 = 16;
    pub const DOWN: u8 = 17;
    pub const WATCHERS: u8 = 18;
    /// [`super::ChordMsg::LookupReply`] naming its part.
    pub const PART_REPLY: u8 = 19;
    /// [`super::ChordMsg::BucketGet`] naming its part.
    pub const PART_GET: u8 = 20;
}

impl<I: Item> Wire for ChordMsg<I> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            ChordMsg::Lookup { qid, ring_key, origin, hops, filter } => {
                tag::LOOKUP.encode(buf);
                qid.encode(buf);
                ring_key.encode(buf);
                origin.encode(buf);
                hops.encode(buf);
                filter.encode(buf);
            }
            ChordMsg::LookupReply { qid, part, items, hops, ok } => {
                put_head(tag::LOOKUP_REPLY, tag::PART_REPLY, *qid, *part, buf);
                I::encode_list(items, buf);
                hops.encode(buf);
                ok.encode(buf);
            }
            ChordMsg::OpBatch { qid, origin, hops, attempt, items, ops } => {
                tag::OP_BATCH.encode(buf);
                qid.encode(buf);
                origin.encode(buf);
                hops.encode(buf);
                attempt.encode(buf);
                I::encode_list(items, buf);
                put_list(buf, ops);
            }
            ChordMsg::BatchAck { qid, applied, hops } => {
                tag::BATCH_ACK.encode(buf);
                qid.encode(buf);
                put_list(buf, applied);
                hops.encode(buf);
            }
            ChordMsg::BucketRange { qid, lo, hi, origin } => {
                tag::BUCKET_RANGE.encode(buf);
                qid.encode(buf);
                lo.encode(buf);
                hi.encode(buf);
                origin.encode(buf);
            }
            ChordMsg::BucketGet { qid, part, ring_key, lo, hi, origin, hops, filter } => {
                put_head(tag::BUCKET_GET, tag::PART_GET, *qid, *part, buf);
                ring_key.encode(buf);
                lo.encode(buf);
                hi.encode(buf);
                origin.encode(buf);
                hops.encode(buf);
                filter.encode(buf);
            }
            ChordMsg::Bcast { qid, lo, hi, limit, hops, filter } => {
                tag::BCAST.encode(buf);
                qid.encode(buf);
                lo.encode(buf);
                hi.encode(buf);
                limit.encode(buf);
                hops.encode(buf);
                filter.encode(buf);
            }
            ChordMsg::BcastReply { qid, items, nodes, hops } => {
                tag::BCAST_REPLY.encode(buf);
                qid.encode(buf);
                I::encode_list(items, buf);
                nodes.encode(buf);
                hops.encode(buf);
            }
            ChordMsg::Replicate { entries } => {
                tag::REPLICATE.encode(buf);
                entries.encode(buf);
            }
            ChordMsg::Repair(msg) => {
                tag::REPAIR.encode(buf);
                msg.encode(buf);
            }
            ChordMsg::Ping => tag::PING.encode(buf),
            ChordMsg::Pong => tag::PONG.encode(buf),
            ChordMsg::Down { node } => {
                tag::DOWN.encode(buf);
                node.encode(buf);
            }
            ChordMsg::Watchers { watchers } => {
                tag::WATCHERS.encode(buf);
                put_list(buf, watchers);
            }
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let t = u8::decode(buf)?;
        Ok(match t {
            tag::LOOKUP => ChordMsg::Lookup {
                qid: Wire::decode(buf)?,
                ring_key: Wire::decode(buf)?,
                origin: Wire::decode(buf)?,
                hops: Wire::decode(buf)?,
                filter: Wire::decode(buf)?,
            },
            tag::LOOKUP_REPLY | tag::PART_REPLY => ChordMsg::LookupReply {
                qid: Wire::decode(buf)?,
                part: (t == tag::PART_REPLY).then(|| u32::decode(buf)).transpose()?,
                items: I::decode_list(buf)?,
                hops: Wire::decode(buf)?,
                ok: Wire::decode(buf)?,
            },
            tag::OP_BATCH => {
                let qid = Wire::decode(buf)?;
                let origin = Wire::decode(buf)?;
                let hops = Wire::decode(buf)?;
                let attempt = Wire::decode(buf)?;
                let items = I::decode_list(buf)?;
                let mut ops: Vec<ChordBatchOp> = Wire::decode(buf)?;
                resolve_ops(&items, ops.iter_mut().map(|op| &mut op.op))?;
                ChordMsg::OpBatch { qid, origin, hops, attempt, items, ops }
            }
            tag::BATCH_ACK => ChordMsg::BatchAck {
                qid: Wire::decode(buf)?,
                applied: Wire::decode(buf)?,
                hops: Wire::decode(buf)?,
            },
            tag::BUCKET_RANGE => ChordMsg::BucketRange {
                qid: Wire::decode(buf)?,
                lo: Wire::decode(buf)?,
                hi: Wire::decode(buf)?,
                origin: Wire::decode(buf)?,
            },
            tag::BUCKET_GET | tag::PART_GET => ChordMsg::BucketGet {
                qid: Wire::decode(buf)?,
                part: (t == tag::PART_GET).then(|| u32::decode(buf)).transpose()?,
                ring_key: Wire::decode(buf)?,
                lo: Wire::decode(buf)?,
                hi: Wire::decode(buf)?,
                origin: Wire::decode(buf)?,
                hops: Wire::decode(buf)?,
                filter: Wire::decode(buf)?,
            },
            tag::BCAST => ChordMsg::Bcast {
                qid: Wire::decode(buf)?,
                lo: Wire::decode(buf)?,
                hi: Wire::decode(buf)?,
                limit: Wire::decode(buf)?,
                hops: Wire::decode(buf)?,
                filter: Wire::decode(buf)?,
            },
            tag::BCAST_REPLY => ChordMsg::BcastReply {
                qid: Wire::decode(buf)?,
                items: I::decode_list(buf)?,
                nodes: Wire::decode(buf)?,
                hops: Wire::decode(buf)?,
            },
            tag::REPLICATE => ChordMsg::Replicate { entries: Wire::decode(buf)? },
            tag::REPAIR => ChordMsg::Repair(Wire::decode(buf)?),
            tag::PING => ChordMsg::Ping,
            tag::PONG => ChordMsg::Pong,
            tag::DOWN => ChordMsg::Down { node: Wire::decode(buf)? },
            tag::WATCHERS => ChordMsg::Watchers { watchers: decode_watchers(buf)? },
            other => return Err(WireError::BadTag(other)),
        })
    }

    /// The tag byte plus every field's own size, in the order `encode`
    /// writes them.
    fn wire_size(&self) -> usize {
        1 + match self {
            ChordMsg::Lookup { qid, ring_key, origin, hops, filter } => {
                qid.wire_size()
                    + ring_key.wire_size()
                    + origin.wire_size()
                    + hops.wire_size()
                    + filter.wire_size()
            }
            ChordMsg::LookupReply { qid, part, items, hops, ok } => {
                head_len(*qid, *part) + I::list_wire_size(items) + hops.wire_size() + ok.wire_size()
            }
            ChordMsg::OpBatch { qid, origin, hops, attempt, items, ops } => {
                qid.wire_size()
                    + origin.wire_size()
                    + hops.wire_size()
                    + attempt.wire_size()
                    + I::list_wire_size(items)
                    + ops.wire_size()
            }
            ChordMsg::BatchAck { qid, applied, hops } => {
                qid.wire_size() + applied.wire_size() + hops.wire_size()
            }
            ChordMsg::BucketRange { qid, lo, hi, origin } => {
                qid.wire_size() + lo.wire_size() + hi.wire_size() + origin.wire_size()
            }
            ChordMsg::BucketGet { qid, part, ring_key, lo, hi, origin, hops, filter } => {
                head_len(*qid, *part)
                    + ring_key.wire_size()
                    + lo.wire_size()
                    + hi.wire_size()
                    + origin.wire_size()
                    + hops.wire_size()
                    + filter.wire_size()
            }
            ChordMsg::Bcast { qid, lo, hi, limit, hops, filter } => {
                qid.wire_size()
                    + lo.wire_size()
                    + hi.wire_size()
                    + limit.wire_size()
                    + hops.wire_size()
                    + filter.wire_size()
            }
            ChordMsg::BcastReply { qid, items, nodes, hops } => {
                qid.wire_size() + I::list_wire_size(items) + nodes.wire_size() + hops.wire_size()
            }
            ChordMsg::Replicate { entries } => entries.wire_size(),
            ChordMsg::Repair(msg) => msg.wire_size(),
            ChordMsg::Ping | ChordMsg::Pong => 0,
            ChordMsg::Down { node } => node.wire_size(),
            ChordMsg::Watchers { watchers } => list_size(watchers),
        }
    }
}

/// Writes a read's tag and query id: `plain`, or `named` followed by the
/// part number when there is one, so only a multi-bucket scan's fetches
/// and replies pay for naming their bucket.
fn put_head(plain: u8, named: u8, qid: QueryId, part: Option<u32>, buf: &mut BytesMut) {
    part.map_or(plain, |_| named).encode(buf);
    qid.encode(buf);
    if let Some(part) = part {
        part.encode(buf);
    }
}

fn head_len(qid: QueryId, part: Option<u32>) -> usize {
    qid.wire_size() + part.map_or(0, |p| p.wire_size())
}

/// A watcher set off the wire: at most [`WATCHERS_MAX`] ids, strictly
/// ascending.
fn decode_watchers(buf: &mut Bytes) -> Result<Vec<NodeId>, WireError> {
    let len = get_len(buf)?;
    if len > WATCHERS_MAX {
        return Err(WireError::BadLength(len as u64));
    }
    let mut watchers: Vec<NodeId> = Vec::with_capacity(len.min(WATCHERS_MAX));
    for _ in 0..len {
        let id = NodeId::decode(buf)?;
        if watchers.last().is_some_and(|&last| last >= id) {
            return Err(WireError::BadLength(id.0 as u64));
        }
        watchers.push(id);
    }
    Ok(watchers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use unistore_overlay::repair::{Part, Summary};
    use unistore_util::item::RawItem;
    use unistore_util::wire::BatchVerb;

    fn roundtrip(msg: ChordMsg<RawItem>) {
        let bytes = msg.to_bytes();
        assert_eq!(bytes.len(), msg.wire_size());
        let back = ChordMsg::<RawItem>::from_bytes(&bytes).expect("decode");
        assert_eq!(format!("{back:?}"), format!("{msg:?}"));
    }

    #[test]
    fn all_variants_roundtrip() {
        let items = vec![RawItem(5), RawItem(6)];
        let msgs: Vec<ChordMsg<RawItem>> = vec![
            ChordMsg::Lookup { qid: 1, ring_key: 99, origin: NodeId(2), hops: 3, filter: None },
            ChordMsg::Lookup {
                qid: 1,
                ring_key: 99,
                origin: NodeId(2),
                hops: 3,
                filter: Some(ItemFilter {
                    field: 2,
                    bloom: unistore_util::BloomFilter::from_hashes([1u64, 2, 3], 0.01),
                }),
            },
            ChordMsg::LookupReply { qid: 1, part: None, items: items.clone(), hops: 4, ok: true },
            ChordMsg::LookupReply {
                qid: 1,
                part: Some(300),
                items: items.clone(),
                hops: 4,
                ok: false,
            },
            ChordMsg::OpBatch {
                qid: 8,
                origin: NodeId(3),
                hops: 1,
                attempt: 2,
                items: vec![RawItem(7)],
                ops: vec![
                    ChordBatchOp {
                        bucket: false,
                        idx: 0,
                        op: BatchOp {
                            key: 700,
                            version: 0,
                            verb: BatchVerb::Insert { item: 0, slot: None },
                        },
                    },
                    ChordBatchOp {
                        bucket: true,
                        idx: 1,
                        op: BatchOp { key: 700, version: 2, verb: BatchVerb::Delete { ident: 9 } },
                    },
                ],
            },
            ChordMsg::BatchAck { qid: 8, applied: vec![0, 1], hops: 3 },
            ChordMsg::BucketRange { qid: 3, lo: 10, hi: 90, origin: NodeId(1) },
            ChordMsg::BucketGet {
                qid: 3,
                part: None,
                ring_key: 55,
                lo: 10,
                hi: 90,
                origin: NodeId(1),
                hops: 2,
                filter: None,
            },
            ChordMsg::BucketGet {
                qid: 3,
                part: Some(7),
                ring_key: 55,
                lo: 10,
                hi: 90,
                origin: NodeId(1),
                hops: 2,
                filter: None,
            },
            ChordMsg::Bcast { qid: 4, lo: 0, hi: u64::MAX, limit: 12345, hops: 1, filter: None },
            ChordMsg::BcastReply { qid: 4, items, nodes: 17, hops: 6 },
            ChordMsg::Replicate {
                entries: RecordList::from_records([
                    ((9, 90, 9), 1, Some(RawItem(9))),
                    ((8, 80, 800), 2, None),
                ]),
            },
            ChordMsg::Repair(RepairMsg::Probe {
                span: ((8, 0, 0), (9, u64::MAX, u64::MAX)),
                summary: Summary { count: 2, hash: u64::MAX },
            }),
            ChordMsg::Repair(RepairMsg::Descend {
                parts: vec![Part::Run {
                    span: ((8, 0, 0), (9, 90, 900)),
                    entries: vec![((8, 80, 800), 2), ((9, 90, 900), 1)],
                }],
            }),
            ChordMsg::Repair(RepairMsg::Records {
                entries: RecordList::from_records([((9, 90, 900), 3, None)]),
                want: vec![(8, 80, 800)],
            }),
            ChordMsg::Ping,
            ChordMsg::Pong,
            ChordMsg::Down { node: NodeId(300) },
            ChordMsg::Watchers { watchers: vec![] },
            ChordMsg::Watchers { watchers: vec![NodeId(0), NodeId(7), NodeId(u32::MAX - 1)] },
        ];
        for m in msgs {
            roundtrip(m);
        }
    }

    #[test]
    fn hostile_watcher_sets_are_rejected() {
        let frame = |ids: &[u32]| {
            let watchers = ids.iter().copied().map(NodeId).collect();
            ChordMsg::<RawItem>::Watchers { watchers }.to_bytes()
        };
        let decodes = |b: &Bytes| ChordMsg::<RawItem>::from_bytes(b).is_ok();
        assert!(decodes(&frame(&[1, 2, 9])));
        assert!(!decodes(&frame(&[1, 1])), "a repeated id");
        assert!(!decodes(&frame(&[2, 1])), "out of order");
        let at_cap: Vec<u32> = (0..WATCHERS_MAX as u32).collect();
        assert!(decodes(&frame(&at_cap)));
        let over: Vec<u32> = (0..=WATCHERS_MAX as u32).collect();
        assert!(!decodes(&frame(&over)), "over the count cap");
        let full = frame(&[1, 300, 70_000]);
        for cut in 0..full.len() {
            assert!(!decodes(&Bytes::copy_from_slice(&full[..cut])), "a {cut}-byte prefix");
        }
    }

    #[test]
    fn bad_tag_rejected() {
        let b = Bytes::from_static(&[99]);
        assert!(matches!(ChordMsg::<RawItem>::from_bytes(&b), Err(WireError::BadTag(99))));
    }

    #[test]
    fn only_a_multi_bucket_scan_s_reads_name_their_part() {
        let get = |part| ChordMsg::<RawItem>::BucketGet {
            qid: 3,
            part,
            ring_key: 55,
            lo: 10,
            hi: 90,
            origin: NodeId(1),
            hops: 2,
            filter: None,
        };
        let reply = |part| ChordMsg::LookupReply {
            qid: 3,
            part,
            items: vec![RawItem(1)],
            hops: 2,
            ok: true,
        };
        let k = 300u32.wire_size();
        for (plain, named, tags) in [
            (get(None), get(Some(300)), (tag::BUCKET_GET, tag::PART_GET)),
            (reply(None), reply(Some(300)), (tag::LOOKUP_REPLY, tag::PART_REPLY)),
        ] {
            let (plain, named) = (plain.to_bytes(), named.to_bytes());
            assert_eq!((plain[0], named[0]), tags);
            assert_eq!(
                &named[2 + k..],
                &plain[2..],
                "the part follows the query id, nothing else moves"
            );
        }
    }

    #[test]
    fn edge_values_roundtrip() {
        roundtrip(ChordMsg::LookupReply {
            qid: u64::MAX,
            part: Some(u32::MAX),
            items: vec![],
            hops: 0,
            ok: false,
        });
        roundtrip(ChordMsg::OpBatch {
            qid: 0,
            origin: NodeId(u32::MAX - 1),
            hops: u32::MAX,
            attempt: u32::MAX,
            items: vec![RawItem(u64::MAX)],
            ops: vec![ChordBatchOp {
                bucket: true,
                idx: u32::MAX,
                op: BatchOp {
                    key: u64::MAX,
                    version: u64::MAX,
                    verb: BatchVerb::Insert { item: 0, slot: None },
                },
            }],
        });
        roundtrip(ChordMsg::Bcast { qid: 1, lo: u64::MAX, hi: 0, limit: 0, hops: 0, filter: None });
    }

    #[test]
    fn a_bucket_op_keeps_its_flag_above_the_slot_bits() {
        use unistore_util::item::testing::Tagged;
        let items = vec![Tagged { id: 1, tag: 100 }, Tagged { id: 2, tag: 7 }];
        let verbs = [
            (102, BatchVerb::Insert { item: 0, slot: Some(2) }),
            (7 + 19, BatchVerb::Insert { item: 1, slot: Some(19) }),
            (55, BatchVerb::Insert { item: 1, slot: None }),
            (56, BatchVerb::Delete { ident: 9 }),
        ];
        let ops: Vec<ChordBatchOp> = (0u32..)
            .zip(verbs.iter().flat_map(|&v| [(false, v), (true, v)]))
            .map(|(idx, (bucket, (key, verb)))| ChordBatchOp {
                bucket,
                idx,
                op: BatchOp { key, version: u64::from(idx % 3), verb },
            })
            .collect();
        // The flag byte of a derived bucket op: its slot on top, then
        // the bucket bit, then the derived bit.
        assert_eq!(BUCKET_FLAG, 8);
        assert_eq!(ops[1].to_bytes()[0], 2 << 4 | BUCKET_FLAG | 4 | 2, "slot 2, versioned");
        let msg = ChordMsg::OpBatch { qid: 5, origin: NodeId(1), hops: 1, attempt: 0, items, ops };
        let bytes = msg.to_bytes();
        assert_eq!(bytes.len(), msg.wire_size());
        let back = ChordMsg::<Tagged>::from_bytes(&bytes).expect("decode");
        assert_eq!(format!("{back:?}"), format!("{msg:?}"));
        let ChordMsg::OpBatch { ops, .. } = back else { unreachable!() };
        let buckets: Vec<bool> = ops.iter().map(|op| op.bucket).collect();
        assert_eq!(buckets, [false, true].repeat(4));
    }

    #[test]
    fn truncated_input_rejected() {
        let msg: ChordMsg<RawItem> =
            ChordMsg::Lookup { qid: 1, ring_key: 99, origin: NodeId(2), hops: 3, filter: None };
        let full = msg.to_bytes();
        for cut in 0..full.len() {
            let b = Bytes::copy_from_slice(&full[..cut]);
            assert!(
                ChordMsg::<RawItem>::from_bytes(&b).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
    }

    mod fuzz {
        use proptest::prelude::*;

        use super::*;

        proptest! {
            /// Wire fuzz for the repair-plane variants: any record set
            /// must decode back to itself and re-encode to identical
            /// bytes. A network that duplicates or reorders deliveries
            /// hands the decoder the same frame twice and in any order —
            /// parsing must be a pure function of the bytes.
            #[test]
            fn repair_wire_roundtrips(
                recs in proptest::collection::vec(
                    (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
                    0..12,
                )
            ) {
                // Odd payload ⇒ a live item, even ⇒ a tombstone, so the
                // fuzz covers both record shapes; a live record's key
                // ends in its item's identity.
                let records: Vec<(RecordKey, u64, Option<RawItem>)> = recs
                    .iter()
                    .map(|&(ring, key, ident, version, it)| match it % 2 {
                        1 => ((ring, key, it), version, Some(RawItem(it))),
                        _ => ((ring, key, ident), version, None),
                    })
                    .collect();
                // A run is ascending in key order, distinct, and short.
                let mut run: Vec<(RecordKey, u64)> =
                    records.iter().map(|&(key, version, _)| (key, version)).collect();
                run.sort_unstable();
                run.dedup_by_key(|&mut (key, _)| key);
                let span = match (run.first(), run.last()) {
                    (Some(&(lo, _)), Some(&(hi, _))) => (lo, hi),
                    _ => ((0, 0, 0), (0, 0, 0)),
                };
                let summary = Summary { count: run.len() as u64, hash: span.0 .0 ^ span.1 .2 };
                let want: Vec<RecordKey> = run.iter().map(|&(key, _)| key).collect();
                let msgs = [
                    ChordMsg::Replicate { entries: RecordList::from_records(records.clone()) },
                    ChordMsg::Repair(RepairMsg::Probe { span, summary }),
                    ChordMsg::Repair(RepairMsg::Descend {
                        parts: vec![Part::Run { span, entries: run }],
                    }),
                    ChordMsg::Repair(RepairMsg::Records {
                        entries: RecordList::from_records(records),
                        want,
                    }),
                ];
                for msg in msgs {
                    let bytes = msg.to_bytes();
                    prop_assert_eq!(bytes.len(), msg.wire_size());
                    let back = ChordMsg::<RawItem>::from_bytes(&bytes).expect("decode");
                    prop_assert_eq!(format!("{back:?}"), format!("{msg:?}"));
                    prop_assert_eq!(back.to_bytes(), bytes, "re-encode must be byte-identical");
                }
            }
        }
    }
}
