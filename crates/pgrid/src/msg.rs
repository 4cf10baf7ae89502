//! Messages exchanged between P-Grid peers.

use bytes::{Bytes, BytesMut};

use unistore_overlay::repair::{RepairMsg, Summary};
use unistore_simnet::NodeId;
use unistore_util::wire::{put_list, OpBatch, Wire, WireError};
use unistore_util::{BitPath, ItemFilter, Key};

use crate::item::{Entries, Item, Version};

/// Correlates requests with replies and driver-visible completions.
pub type QueryId = u64;

/// Which range algorithm to run (paper §2: "several physical
/// implementations … differ in applied routing strategy, parallelism").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RangeMode {
    /// Shower algorithm: the query fans out down the trie in parallel.
    Parallel,
    /// Leaf walk: visit leaves in key order, one at a time.
    Sequential,
}

/// A compact peer descriptor carried in maintenance/bootstrap messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PeerRef {
    /// The peer's node id.
    pub id: NodeId,
    /// The peer's trie path at the time of advertisement.
    pub path: BitPath,
}

impl Wire for PeerRef {
    fn encode(&self, buf: &mut BytesMut) {
        self.id.encode(buf);
        self.path.encode(buf);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(PeerRef { id: NodeId::decode(buf)?, path: BitPath::decode(buf)? })
    }

    fn wire_size(&self) -> usize {
        self.id.wire_size() + self.path.wire_size()
    }
}

/// The P-Grid protocol messages.
#[derive(Clone, Debug)]
pub enum PGridMsg<I> {
    /// Exact-key search, routed greedily along the trie.
    Lookup {
        /// Correlation id.
        qid: QueryId,
        /// Key to resolve.
        key: Key,
        /// Peer that issued the query and receives the reply.
        origin: NodeId,
        /// Routing hops taken so far.
        hops: u32,
        /// Semi-join filter the leaf applies before replying.
        filter: Option<ItemFilter>,
    },
    /// Answer (or failure) for a [`PGridMsg::Lookup`].
    LookupReply {
        /// Correlation id.
        qid: QueryId,
        /// Items stored under the key (empty is a valid answer).
        items: Vec<I>,
        /// Hops the request took.
        hops: u32,
        /// `false` when routing got stuck before reaching the leaf.
        ok: bool,
    },
    /// A tombstone cascading through a replica group: the leaf that
    /// applied a batched delete tells its replicas to remove the entry
    /// with the given logical identity; a replica that removes something
    /// passes it on, one that removes nothing stops the cascade. Routed
    /// like a write op (a replica whose path migrated forwards it), never
    /// acked — the origin's ack comes from the batch that carried the
    /// delete.
    Delete {
        /// Placement key.
        key: Key,
        /// Logical identity of the entry to remove.
        ident: u64,
        /// Version of the delete (removes entries with `version <= this`).
        version: Version,
    },
    /// Many routed writes coalesced into one message (shared-payload
    /// [`OpBatch`] encoding). Routed like lookups, but per *op*: at each
    /// peer the batch re-splits into one sub-batch per next hop plus a
    /// locally applied remainder, so it only forks where responsibility
    /// diverges. Every peer that applies ops acks the origin with one
    /// aggregated [`PGridMsg::BatchAck`].
    OpBatch {
        /// Correlation id of the whole batch.
        qid: QueryId,
        /// Issuer, receives the aggregated acks.
        origin: NodeId,
        /// Routing hops of this sub-batch so far.
        hops: u32,
        /// `positions[i]` is the place of `batch.ops[i]` in the origin's
        /// full op list, stable across sub-batch re-grouping and echoed
        /// by [`PGridMsg::BatchAck`], so the origin knows exactly which
        /// ops landed. Ascending (re-grouping keeps op order), so it
        /// travels gap-encoded. Empty on the driver-injected batch,
        /// which never crosses the wire: the origin numbers the ops.
        positions: Vec<u32>,
        /// The ops and their shared payloads.
        batch: OpBatch<I>,
    },
    /// Aggregated ack naming the ops of batch `qid` applied at the
    /// sending leaf by their origin-side positions. Positional acks are
    /// idempotent, which is what lets a timed-out batch retransmit only
    /// its un-acked remainder (`unistore_overlay::PartTracker`).
    BatchAck {
        /// Correlation id of the batch.
        qid: QueryId,
        /// Origin-side positions of the ops applied at the acking leaf.
        applied: Vec<u32>,
        /// Hops the sub-batch travelled to that leaf.
        hops: u32,
    },
    /// Parallel (shower) range query over `[lo, hi]`.
    Range {
        /// Correlation id.
        qid: QueryId,
        /// Inclusive lower bound.
        lo: Key,
        /// Inclusive upper bound.
        hi: Key,
        /// First routing level this peer may still fan out on.
        lmin: u8,
        /// Issuer, receives all leaf replies.
        origin: NodeId,
        /// Hops along this branch so far.
        hops: u32,
        /// Semi-join filter every reached leaf applies before replying.
        filter: Option<ItemFilter>,
    },
    /// Sequential range query: resolves `lo`'s leaf, then walks right.
    RangeSeq {
        /// Correlation id.
        qid: QueryId,
        /// Next key to resolve (start of the unvisited remainder).
        lo: Key,
        /// Inclusive upper bound.
        hi: Key,
        /// Issuer.
        origin: NodeId,
        /// Hops so far.
        hops: u32,
        /// Semi-join filter every visited leaf applies before replying.
        filter: Option<ItemFilter>,
    },
    /// A leaf's contribution to a range query.
    RangeReply {
        /// Correlation id.
        qid: QueryId,
        /// Start of the key interval this reply covers.
        cov_lo: Key,
        /// End of the key interval this reply covers.
        cov_hi: Key,
        /// Matching items.
        items: Vec<I>,
        /// Hops the longest branch to this leaf took.
        hops: u32,
        /// `true` when a branch had to give up (routing hole).
        aborted: bool,
    },
    /// Push replication of the entries one sub-batch applied at a leaf,
    /// one message per replica.
    Replicate {
        /// The applied entries.
        entries: Entries<I>,
    },
    /// Anti-entropy: one message of the hash-tree replica repair
    /// (`unistore_overlay::repair`) over `(key, ident)` record keys.
    Repair(RepairMsg<(Key, u64), I>),
    /// Asks a peer for the references the requester can still file: a
    /// maintenance round's gossip and its liveness probe at once
    /// (`unistore_overlay::liveness`), always answered.
    TableRequest {
        /// Requester's path.
        path: BitPath,
        /// Requester's levels that hold `refs_per_level` references
        /// (bit `l` for level `l`).
        full: u64,
        /// On the request to a replica, a repair probe of the leaf `path` names.
        summary: Option<Summary>,
    },
    /// Answer to [`PGridMsg::TableRequest`], possibly empty: the replier
    /// and its references, each with its path, that the requester files
    /// into a level that is not full.
    TableReply {
        /// Advertised peers.
        peers: Vec<PeerRef>,
    },
    /// Bootstrap: initiator announces itself for a pairwise exchange.
    Exchange {
        /// Initiator's current path.
        path: BitPath,
        /// Number of locally stored entries (split decision input).
        store_len: u64,
    },
    /// Bootstrap: both peers had the same path and split; sender keeps
    /// the `1` side, receiver takes the `0` side and these entries.
    ExchangeSplit {
        /// Sender's path after the split.
        new_sender_path: BitPath,
        /// Entries belonging to the receiver's new leaf.
        entries: Entries<I>,
    },
    /// Bootstrap: entries handed over without a structural change.
    ExchangeData {
        /// Entries for the receiver to apply or re-route.
        entries: Entries<I>,
    },
    /// Bootstrap: peers with the same path and little data become
    /// replicas of each other; carries the sender's entries.
    ExchangeReplica {
        /// Sender's entries for replica convergence.
        entries: Entries<I>,
    },
    /// Bootstrap: tells a less-specialized peer to extend its path by
    /// `bit` (the complement of the sender's next bit).
    ExchangeAdopt {
        /// Bit to append to the receiver's path.
        bit: bool,
    },
    /// Bootstrap/maintenance: reference gossip.
    ExchangeRefs {
        /// Advertised peers.
        peers: Vec<PeerRef>,
    },
}

mod tag {
    pub const LOOKUP: u8 = 1;
    pub const LOOKUP_REPLY: u8 = 2;
    pub const DELETE: u8 = 21;
    pub const RANGE: u8 = 5;
    pub const RANGE_SEQ: u8 = 6;
    pub const RANGE_REPLY: u8 = 7;
    pub const REPLICATE: u8 = 8;
    pub const REPAIR: u8 = 9;
    pub const TABLE_REQUEST: u8 = 13;
    pub const TABLE_REPLY: u8 = 14;
    pub const EXCHANGE: u8 = 15;
    pub const EXCHANGE_SPLIT: u8 = 16;
    pub const EXCHANGE_DATA: u8 = 17;
    pub const EXCHANGE_REPLICA: u8 = 18;
    pub const EXCHANGE_ADOPT: u8 = 19;
    pub const EXCHANGE_REFS: u8 = 20;
    pub const OP_BATCH: u8 = 22;
    pub const BATCH_ACK: u8 = 23;
}

impl<I: Item> Wire for PGridMsg<I> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            PGridMsg::Lookup { qid, key, origin, hops, filter } => {
                tag::LOOKUP.encode(buf);
                qid.encode(buf);
                key.encode(buf);
                origin.encode(buf);
                hops.encode(buf);
                filter.encode(buf);
            }
            PGridMsg::LookupReply { qid, items, hops, ok } => {
                tag::LOOKUP_REPLY.encode(buf);
                qid.encode(buf);
                I::encode_list(items, buf);
                hops.encode(buf);
                ok.encode(buf);
            }
            PGridMsg::OpBatch { qid, origin, hops, positions, batch } => {
                tag::OP_BATCH.encode(buf);
                qid.encode(buf);
                origin.encode(buf);
                hops.encode(buf);
                batch.encode(buf);
                // One gap per op (the op count is the batch's): ascending
                // positions cost one byte each however long the origin's
                // list is.
                debug_assert_eq!(positions.len(), batch.len(), "one position per op");
                let mut prev = 0u32;
                for &pos in positions {
                    pos.wrapping_sub(prev).encode(buf);
                    prev = pos;
                }
            }
            PGridMsg::BatchAck { qid, applied, hops } => {
                tag::BATCH_ACK.encode(buf);
                qid.encode(buf);
                put_list(buf, applied);
                hops.encode(buf);
            }
            PGridMsg::Delete { key, ident, version } => {
                tag::DELETE.encode(buf);
                key.encode(buf);
                ident.encode(buf);
                version.encode(buf);
            }
            PGridMsg::Range { qid, lo, hi, lmin, origin, hops, filter } => {
                tag::RANGE.encode(buf);
                qid.encode(buf);
                lo.encode(buf);
                hi.encode(buf);
                lmin.encode(buf);
                origin.encode(buf);
                hops.encode(buf);
                filter.encode(buf);
            }
            PGridMsg::RangeSeq { qid, lo, hi, origin, hops, filter } => {
                tag::RANGE_SEQ.encode(buf);
                qid.encode(buf);
                lo.encode(buf);
                hi.encode(buf);
                origin.encode(buf);
                hops.encode(buf);
                filter.encode(buf);
            }
            PGridMsg::RangeReply { qid, cov_lo, cov_hi, items, hops, aborted } => {
                tag::RANGE_REPLY.encode(buf);
                qid.encode(buf);
                cov_lo.encode(buf);
                cov_hi.encode(buf);
                I::encode_list(items, buf);
                hops.encode(buf);
                aborted.encode(buf);
            }
            PGridMsg::Replicate { entries } => {
                tag::REPLICATE.encode(buf);
                entries.encode(buf);
            }
            PGridMsg::Repair(msg) => {
                tag::REPAIR.encode(buf);
                msg.encode(buf);
            }
            PGridMsg::TableRequest { path, full, summary } => {
                tag::TABLE_REQUEST.encode(buf);
                path.encode(buf);
                full.encode(buf);
                summary.encode(buf);
            }
            PGridMsg::TableReply { peers } => {
                tag::TABLE_REPLY.encode(buf);
                peers.encode(buf);
            }
            PGridMsg::Exchange { path, store_len } => {
                tag::EXCHANGE.encode(buf);
                path.encode(buf);
                store_len.encode(buf);
            }
            PGridMsg::ExchangeSplit { new_sender_path, entries } => {
                tag::EXCHANGE_SPLIT.encode(buf);
                new_sender_path.encode(buf);
                entries.encode(buf);
            }
            PGridMsg::ExchangeData { entries } => {
                tag::EXCHANGE_DATA.encode(buf);
                entries.encode(buf);
            }
            PGridMsg::ExchangeReplica { entries } => {
                tag::EXCHANGE_REPLICA.encode(buf);
                entries.encode(buf);
            }
            PGridMsg::ExchangeAdopt { bit } => {
                tag::EXCHANGE_ADOPT.encode(buf);
                bit.encode(buf);
            }
            PGridMsg::ExchangeRefs { peers } => {
                tag::EXCHANGE_REFS.encode(buf);
                peers.encode(buf);
            }
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let t = u8::decode(buf)?;
        Ok(match t {
            tag::LOOKUP => PGridMsg::Lookup {
                qid: Wire::decode(buf)?,
                key: Wire::decode(buf)?,
                origin: Wire::decode(buf)?,
                hops: Wire::decode(buf)?,
                filter: Wire::decode(buf)?,
            },
            tag::LOOKUP_REPLY => PGridMsg::LookupReply {
                qid: Wire::decode(buf)?,
                items: I::decode_list(buf)?,
                hops: Wire::decode(buf)?,
                ok: Wire::decode(buf)?,
            },
            tag::OP_BATCH => {
                let qid = Wire::decode(buf)?;
                let origin = Wire::decode(buf)?;
                let hops = Wire::decode(buf)?;
                let batch: OpBatch<I> = Wire::decode(buf)?;
                let mut prev = 0u32;
                let positions = (0..batch.len())
                    .map(|_| {
                        prev = prev.wrapping_add(u32::decode(buf)?);
                        Ok(prev)
                    })
                    .collect::<Result<Vec<u32>, WireError>>()?;
                PGridMsg::OpBatch { qid, origin, hops, positions, batch }
            }
            tag::BATCH_ACK => PGridMsg::BatchAck {
                qid: Wire::decode(buf)?,
                applied: Wire::decode(buf)?,
                hops: Wire::decode(buf)?,
            },
            tag::DELETE => PGridMsg::Delete {
                key: Wire::decode(buf)?,
                ident: Wire::decode(buf)?,
                version: Wire::decode(buf)?,
            },
            tag::RANGE => PGridMsg::Range {
                qid: Wire::decode(buf)?,
                lo: Wire::decode(buf)?,
                hi: Wire::decode(buf)?,
                lmin: Wire::decode(buf)?,
                origin: Wire::decode(buf)?,
                hops: Wire::decode(buf)?,
                filter: Wire::decode(buf)?,
            },
            tag::RANGE_SEQ => PGridMsg::RangeSeq {
                qid: Wire::decode(buf)?,
                lo: Wire::decode(buf)?,
                hi: Wire::decode(buf)?,
                origin: Wire::decode(buf)?,
                hops: Wire::decode(buf)?,
                filter: Wire::decode(buf)?,
            },
            tag::RANGE_REPLY => PGridMsg::RangeReply {
                qid: Wire::decode(buf)?,
                cov_lo: Wire::decode(buf)?,
                cov_hi: Wire::decode(buf)?,
                items: I::decode_list(buf)?,
                hops: Wire::decode(buf)?,
                aborted: Wire::decode(buf)?,
            },
            tag::REPLICATE => PGridMsg::Replicate { entries: Wire::decode(buf)? },
            tag::REPAIR => PGridMsg::Repair(Wire::decode(buf)?),
            tag::TABLE_REQUEST => PGridMsg::TableRequest {
                path: Wire::decode(buf)?,
                full: Wire::decode(buf)?,
                summary: Wire::decode(buf)?,
            },
            tag::TABLE_REPLY => PGridMsg::TableReply { peers: Wire::decode(buf)? },
            tag::EXCHANGE => {
                PGridMsg::Exchange { path: Wire::decode(buf)?, store_len: Wire::decode(buf)? }
            }
            tag::EXCHANGE_SPLIT => PGridMsg::ExchangeSplit {
                new_sender_path: Wire::decode(buf)?,
                entries: Wire::decode(buf)?,
            },
            tag::EXCHANGE_DATA => PGridMsg::ExchangeData { entries: Wire::decode(buf)? },
            tag::EXCHANGE_REPLICA => PGridMsg::ExchangeReplica { entries: Wire::decode(buf)? },
            tag::EXCHANGE_ADOPT => PGridMsg::ExchangeAdopt { bit: Wire::decode(buf)? },
            tag::EXCHANGE_REFS => PGridMsg::ExchangeRefs { peers: Wire::decode(buf)? },
            other => return Err(WireError::BadTag(other)),
        })
    }

    /// The tag byte plus every field's own size, in the order `encode`
    /// writes them.
    fn wire_size(&self) -> usize {
        1 + match self {
            PGridMsg::Lookup { qid, key, origin, hops, filter } => {
                qid.wire_size()
                    + key.wire_size()
                    + origin.wire_size()
                    + hops.wire_size()
                    + filter.wire_size()
            }
            PGridMsg::LookupReply { qid, items, hops, ok } => {
                qid.wire_size() + I::list_wire_size(items) + hops.wire_size() + ok.wire_size()
            }
            PGridMsg::OpBatch { qid, origin, hops, positions, batch } => {
                let (mut prev, mut gaps) = (0u32, 0);
                for &pos in positions {
                    gaps += pos.wrapping_sub(prev).wire_size();
                    prev = pos;
                }
                qid.wire_size() + origin.wire_size() + hops.wire_size() + batch.wire_size() + gaps
            }
            PGridMsg::BatchAck { qid, applied, hops } => {
                qid.wire_size() + applied.wire_size() + hops.wire_size()
            }
            PGridMsg::Delete { key, ident, version } => {
                key.wire_size() + ident.wire_size() + version.wire_size()
            }
            PGridMsg::Range { qid, lo, hi, lmin, origin, hops, filter } => {
                qid.wire_size()
                    + lo.wire_size()
                    + hi.wire_size()
                    + lmin.wire_size()
                    + origin.wire_size()
                    + hops.wire_size()
                    + filter.wire_size()
            }
            PGridMsg::RangeSeq { qid, lo, hi, origin, hops, filter } => {
                qid.wire_size()
                    + lo.wire_size()
                    + hi.wire_size()
                    + origin.wire_size()
                    + hops.wire_size()
                    + filter.wire_size()
            }
            PGridMsg::RangeReply { qid, cov_lo, cov_hi, items, hops, aborted } => {
                qid.wire_size()
                    + cov_lo.wire_size()
                    + cov_hi.wire_size()
                    + I::list_wire_size(items)
                    + hops.wire_size()
                    + aborted.wire_size()
            }
            PGridMsg::Replicate { entries }
            | PGridMsg::ExchangeData { entries }
            | PGridMsg::ExchangeReplica { entries } => entries.wire_size(),
            PGridMsg::Repair(msg) => msg.wire_size(),
            PGridMsg::TableRequest { path, full, summary } => {
                path.wire_size() + full.wire_size() + summary.wire_size()
            }
            PGridMsg::TableReply { peers } | PGridMsg::ExchangeRefs { peers } => peers.wire_size(),
            PGridMsg::Exchange { path, store_len } => path.wire_size() + store_len.wire_size(),
            PGridMsg::ExchangeSplit { new_sender_path, entries } => {
                new_sender_path.wire_size() + entries.wire_size()
            }
            PGridMsg::ExchangeAdopt { bit } => bit.wire_size(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::RawItem;
    use unistore_overlay::repair::Part;

    fn roundtrip(msg: PGridMsg<RawItem>) {
        let bytes = msg.to_bytes();
        assert_eq!(bytes.len(), msg.wire_size());
        let back = PGridMsg::<RawItem>::from_bytes(&bytes).expect("decode");
        // Compare via Debug: PGridMsg avoids PartialEq to keep I flexible.
        assert_eq!(format!("{back:?}"), format!("{msg:?}"));
    }

    #[test]
    fn all_variants_roundtrip() {
        let path = BitPath::parse("0110").unwrap();
        let peers =
            vec![PeerRef { id: NodeId(1), path }, PeerRef { id: NodeId(2), path: BitPath::ROOT }];
        let entries =
            Entries::from_records([((42, 7), 1, Some(RawItem(7))), ((43, 8), 0, Some(RawItem(8)))]);
        let filter = Some(ItemFilter {
            field: 2,
            bloom: unistore_util::BloomFilter::from_hashes([7u64, 8, 9], 0.01),
        });
        let msgs: Vec<PGridMsg<RawItem>> = vec![
            PGridMsg::Lookup { qid: 9, key: 0xABCD, origin: NodeId(3), hops: 2, filter: None },
            PGridMsg::Lookup {
                qid: 9,
                key: 0xABCD,
                origin: NodeId(3),
                hops: 2,
                filter: filter.clone(),
            },
            PGridMsg::LookupReply { qid: 9, items: vec![RawItem(1)], hops: 3, ok: true },
            PGridMsg::Delete { key: 9, ident: 11, version: 2 },
            PGridMsg::OpBatch {
                qid: 12,
                origin: NodeId(2),
                hops: 1,
                // Ascending with gaps, as a re-grouped sub-batch is.
                positions: vec![4, 5, 300],
                batch: {
                    let mut b = OpBatch::new();
                    let i = b.add_item(RawItem(77));
                    b.push_insert(5, i, 0);
                    b.push_insert(9, i, 0);
                    b.push_delete(13, 0xFEED, 2);
                    b
                },
            },
            PGridMsg::BatchAck { qid: 12, applied: vec![4, 5, 300], hops: 4 },
            PGridMsg::Range {
                qid: 2,
                lo: 10,
                hi: 20,
                lmin: 1,
                origin: NodeId(4),
                hops: 1,
                filter: filter.clone(),
            },
            PGridMsg::RangeSeq { qid: 3, lo: 10, hi: 20, origin: NodeId(4), hops: 1, filter },
            PGridMsg::RangeReply {
                qid: 2,
                cov_lo: 10,
                cov_hi: 15,
                items: vec![RawItem(11)],
                hops: 5,
                aborted: false,
            },
            PGridMsg::Replicate { entries: entries.clone() },
            PGridMsg::Repair(RepairMsg::Probe {
                span: ((8, 0), (15, u64::MAX)),
                summary: Summary { count: 3, hash: 0xDEAD_BEEF },
            }),
            PGridMsg::Repair(RepairMsg::Descend {
                parts: vec![Part::Run { span: ((8, 0), (9, 7)), entries: vec![((8, 1), 2)] }],
            }),
            PGridMsg::Repair(RepairMsg::Records {
                entries: Entries::from_records([
                    ((42, 7), 1, Some(RawItem(7))),
                    ((43, 8), 2, None),
                ]),
                want: vec![(44, 9)],
            }),
            PGridMsg::TableRequest { path, full: 0b1010, summary: None },
            PGridMsg::TableRequest { path: BitPath::ROOT, full: u64::MAX, summary: None },
            PGridMsg::TableRequest {
                path,
                full: 0,
                summary: Some(Summary { count: 70_000, hash: u64::MAX }),
            },
            PGridMsg::TableReply { peers: peers.clone() },
            PGridMsg::Exchange { path, store_len: 12 },
            PGridMsg::ExchangeSplit { new_sender_path: path, entries: entries.clone() },
            PGridMsg::ExchangeData { entries: entries.clone() },
            PGridMsg::ExchangeReplica { entries },
            PGridMsg::ExchangeAdopt { bit: true },
            PGridMsg::ExchangeRefs { peers },
        ];
        for m in msgs {
            roundtrip(m);
        }
        // The summary costs its own bytes and nothing else: a varint
        // count and a fixed 8-byte hash beside the option's one byte.
        let request = |summary| PGridMsg::<RawItem>::TableRequest { path, full: 0, summary };
        let summary = Summary { count: 3, hash: 1 };
        assert_eq!(request(None).wire_size(), 1 + 2 + 1 + 1, "tag, path, full, None");
        assert_eq!(request(Some(summary)).wire_size(), request(None).wire_size() + 1 + 8);
    }

    #[test]
    fn bad_tag_rejected() {
        let b = Bytes::from_static(&[200]);
        assert!(matches!(PGridMsg::<RawItem>::from_bytes(&b), Err(WireError::BadTag(200))));
    }
}
