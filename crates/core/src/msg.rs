//! The UniStore node's message and event types.
//!
//! One envelope wraps both layers of the paper's stack: the storage
//! layer (whatever [`Overlay`](unistore_overlay::Overlay) backend the
//! node runs on) and the query-processing layer riding on it.

use std::sync::Arc;

use bytes::{Bytes, BytesMut};

use unistore_overlay::OverlayDone;
use unistore_query::cost::shards::STATS_SHARDS;
use unistore_query::cost::{StatsDelta, StatsNotice, StatsPiece};
use unistore_query::{Coverage, Mqp, Relation};
use unistore_simnet::NodeId;
use unistore_store::Triple;
use unistore_util::wire::{get_len, get_varint, put_varint, varint_size, Shared, Wire, WireError};
use unistore_util::Key;

/// Everything a UniStore node can receive. Generic over the storage
/// backend's message type.
#[derive(Clone, Debug)]
pub enum UniMsg<M> {
    /// Storage-layer traffic (P-Grid, Chord, …).
    Overlay(M),
    /// Query-layer traffic.
    Query(QueryMsg),
}

/// Query-layer messages.
#[derive(Clone, Debug)]
pub enum QueryMsg {
    /// Execute (the next step of) a mutant plan at the receiving peer.
    Execute {
        /// The travelling plan.
        mqp: Mqp,
    },
    /// Forward a mutant plan toward the peer responsible for `key`
    /// (routed like a lookup — but the payload is the plan itself).
    Route {
        /// Target key (anchor of the plan's next scan).
        key: Key,
        /// The travelling plan.
        mqp: Mqp,
    },
    /// Final result returning to the query origin.
    Result {
        /// Correlation id.
        qid: u64,
        /// The answer relation.
        relation: Relation,
        /// Accumulated hop count (plan travel + deepest scan).
        hops: u32,
        /// Completeness accounting accumulated by the travelling plan.
        coverage: Coverage,
    },
    /// A batch of statistics write events handed to the node that
    /// originated the writes (by the driver, from
    /// [`NodeId::EXTERNAL`](unistore_simnet::NodeId::EXTERNAL)): the
    /// node plans on it at once and buffers it for its next stats tick,
    /// which splits it into [`QueryMsg::StatsPiece`]s for the shard
    /// homes (DESIGN.md § Statistics distribution).
    StatsDelta {
        /// Snapshot generation the delta applies on top of. A full
        /// rebuild bumps the epoch; deltas still buffered or in flight
        /// from the previous epoch describe writes the rebuilt snapshot
        /// already contains and are dropped on receipt instead of being
        /// double-counted.
        epoch: u64,
        /// The write batch.
        delta: Shared<StatsDelta>,
    },
    /// What a write origin's statistics flush published: the summaries
    /// its shard homes found drifted past ε, spread through an
    /// exactly-once binomial broadcast tree (DESIGN.md §"Scale and
    /// churn"); receivers install them in their cost-model snapshot.
    StatsNotice {
        /// Snapshot generation the notice applies on top of (see
        /// [`QueryMsg::StatsDelta`]).
        epoch: u64,
        /// Broadcast-tree span: how many consecutive peers (the
        /// receiver plus the `span − 1` following it, ring-ordered by
        /// node id) the receiver covers. A receiver with `span > 1`
        /// relays to peers at power-of-two offsets before applying the
        /// notice; `span ≤ 1` is a pure leaf.
        span: u32,
        /// The notice. [`Shared`] because every relay of the broadcast
        /// tree forwards the identical notice: the payload is encoded
        /// once and each send clones the buffer, not the encoding work.
        notice: Shared<StatsNotice>,
    },
    /// One shard's piece of a statistics flush, routed toward the
    /// shard's key like a lookup; the replica group member it reaches
    /// hands it to the group's shard home, which folds it into its
    /// exact statistics and answers the origin with a
    /// [`QueryMsg::StatsAck`].
    StatsPiece {
        /// Snapshot generation of the flush; a home of another epoch
        /// drops the piece.
        epoch: u64,
        /// The flushing node, which the ack goes to.
        origin: NodeId,
        /// The origin's flush number, echoed by the ack.
        flush: u64,
        /// Set by the group member that hands the piece to the home:
        /// the receiver folds it without routing further.
        at_home: bool,
        /// The shard and its parts of the flush.
        piece: StatsPiece,
    },
    /// A shard home's answer to a [`QueryMsg::StatsPiece`]: how many
    /// triples of each of the piece's delete groups it took, and the
    /// summaries it publishes, which the origin's notice carries to
    /// every peer.
    StatsAck {
        /// Snapshot generation of the flush.
        epoch: u64,
        /// The origin's flush number the piece carried.
        flush: u64,
        /// The shard that folded the piece.
        shard: u8,
        /// Per delete group of the piece, the triples the home took.
        taken: Vec<u32>,
        /// The summaries that drifted past ε.
        published: StatsNotice,
    },
    /// Asks the receiving node for a summary of its current statistics
    /// snapshot (observability for the live runtime, where node state
    /// cannot be inspected directly). Answered with [`UniEvent::Stats`].
    StatsProbe {
        /// Correlation id.
        qid: u64,
    },
}

mod tag {
    pub const OVERLAY: u8 = 1;
    pub const EXECUTE: u8 = 2;
    pub const ROUTE: u8 = 3;
    pub const RESULT: u8 = 4;
    pub const STATS_DELTA: u8 = 5;
    pub const STATS_PROBE: u8 = 6;
    pub const STATS_NOTICE: u8 = 7;
    pub const STATS_PIECE: u8 = 8;
    pub const STATS_ACK: u8 = 9;
}

impl<M: Wire> Wire for UniMsg<M> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            UniMsg::Overlay(m) => {
                tag::OVERLAY.encode(buf);
                m.encode(buf);
            }
            UniMsg::Query(QueryMsg::Execute { mqp }) => {
                tag::EXECUTE.encode(buf);
                mqp.encode(buf);
            }
            UniMsg::Query(QueryMsg::Route { key, mqp }) => {
                tag::ROUTE.encode(buf);
                key.encode(buf);
                mqp.encode(buf);
            }
            UniMsg::Query(QueryMsg::Result { qid, relation, hops, coverage }) => {
                tag::RESULT.encode(buf);
                qid.encode(buf);
                relation.encode(buf);
                hops.encode(buf);
                coverage.encode(buf);
            }
            UniMsg::Query(QueryMsg::StatsDelta { epoch, delta }) => {
                tag::STATS_DELTA.encode(buf);
                epoch.encode(buf);
                delta.encode(buf);
            }
            UniMsg::Query(QueryMsg::StatsNotice { epoch, span, notice }) => {
                tag::STATS_NOTICE.encode(buf);
                epoch.encode(buf);
                span.encode(buf);
                notice.encode(buf);
            }
            UniMsg::Query(QueryMsg::StatsPiece { epoch, origin, flush, at_home, piece }) => {
                tag::STATS_PIECE.encode(buf);
                epoch.encode(buf);
                origin.encode(buf);
                flush.encode(buf);
                at_home.encode(buf);
                piece.encode(buf);
            }
            UniMsg::Query(QueryMsg::StatsAck { epoch, flush, shard, taken, published }) => {
                tag::STATS_ACK.encode(buf);
                epoch.encode(buf);
                flush.encode(buf);
                shard.encode(buf);
                put_varint(buf, taken.len() as u64);
                taken.iter().for_each(|&n| put_varint(buf, n as u64));
                published.encode(buf);
            }
            UniMsg::Query(QueryMsg::StatsProbe { qid }) => {
                tag::STATS_PROBE.encode(buf);
                qid.encode(buf);
            }
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(match u8::decode(buf)? {
            tag::OVERLAY => UniMsg::Overlay(M::decode(buf)?),
            tag::EXECUTE => UniMsg::Query(QueryMsg::Execute { mqp: Mqp::decode(buf)? }),
            tag::ROUTE => {
                UniMsg::Query(QueryMsg::Route { key: Wire::decode(buf)?, mqp: Mqp::decode(buf)? })
            }
            tag::RESULT => UniMsg::Query(QueryMsg::Result {
                qid: Wire::decode(buf)?,
                relation: Relation::decode(buf)?,
                hops: Wire::decode(buf)?,
                coverage: Wire::decode(buf)?,
            }),
            tag::STATS_DELTA => UniMsg::Query(QueryMsg::StatsDelta {
                epoch: Wire::decode(buf)?,
                delta: Wire::decode(buf)?,
            }),
            tag::STATS_NOTICE => UniMsg::Query(QueryMsg::StatsNotice {
                epoch: Wire::decode(buf)?,
                span: Wire::decode(buf)?,
                notice: Wire::decode(buf)?,
            }),
            tag::STATS_PIECE => UniMsg::Query(QueryMsg::StatsPiece {
                epoch: Wire::decode(buf)?,
                origin: Wire::decode(buf)?,
                flush: Wire::decode(buf)?,
                at_home: Wire::decode(buf)?,
                piece: Wire::decode(buf)?,
            }),
            tag::STATS_ACK => {
                let (epoch, flush) = (Wire::decode(buf)?, Wire::decode(buf)?);
                let shard = u8::decode(buf)?;
                if shard >= STATS_SHARDS {
                    return Err(WireError::BadTag(shard));
                }
                let n = get_len(buf)?;
                let mut taken = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let t = get_varint(buf)?;
                    taken.push(u32::try_from(t).map_err(|_| WireError::BadLength(t))?);
                }
                let published = StatsNotice::decode(buf)?;
                UniMsg::Query(QueryMsg::StatsAck { epoch, flush, shard, taken, published })
            }
            tag::STATS_PROBE => UniMsg::Query(QueryMsg::StatsProbe { qid: Wire::decode(buf)? }),
            t => return Err(WireError::BadTag(t)),
        })
    }

    /// The tag plus every field's own size, so a field that knows its
    /// size — above all the stats notice's [`Shared`] payload, sent to
    /// every peer — is never encoded just to be measured.
    fn wire_size(&self) -> usize {
        1 + match self {
            UniMsg::Overlay(m) => m.wire_size(),
            UniMsg::Query(QueryMsg::Execute { mqp }) => mqp.wire_size(),
            UniMsg::Query(QueryMsg::Route { key, mqp }) => key.wire_size() + mqp.wire_size(),
            UniMsg::Query(QueryMsg::Result { qid, relation, hops, coverage }) => {
                qid.wire_size() + relation.wire_size() + hops.wire_size() + coverage.wire_size()
            }
            UniMsg::Query(QueryMsg::StatsDelta { epoch, delta }) => {
                epoch.wire_size() + delta.wire_size()
            }
            UniMsg::Query(QueryMsg::StatsNotice { epoch, span, notice }) => {
                epoch.wire_size() + span.wire_size() + notice.wire_size()
            }
            UniMsg::Query(QueryMsg::StatsPiece { epoch, origin, flush, at_home, piece }) => {
                epoch.wire_size()
                    + origin.wire_size()
                    + flush.wire_size()
                    + at_home.wire_size()
                    + piece.wire_size()
            }
            UniMsg::Query(QueryMsg::StatsAck { epoch, flush, shard, taken, published }) => {
                epoch.wire_size()
                    + flush.wire_size()
                    + shard.wire_size()
                    + varint_size(taken.len() as u64)
                    + taken.iter().map(|&n| varint_size(n as u64)).sum::<usize>()
                    + published.wire_size()
            }
            UniMsg::Query(QueryMsg::StatsProbe { qid }) => qid.wire_size(),
        }
    }
}

/// Events a UniStore node emits to the driver.
#[derive(Clone, Debug)]
pub enum UniEvent {
    /// A query issued at this node finished.
    QueryDone {
        /// Correlation id.
        qid: u64,
        /// The answer.
        relation: Relation,
        /// Accumulated hops.
        hops: u32,
        /// `false` when the deadline budget ran out before any
        /// acceptable completion (the relation then holds the best
        /// partial result seen, possibly empty).
        ok: bool,
        /// Completeness accounting: how much of the responsible data
        /// the winning plan execution actually reached.
        coverage: Coverage,
    },
    /// A driver-issued raw storage operation finished.
    Storage(OverlayDone<Triple>),
    /// Answer to a [`QueryMsg::StatsProbe`]: a summary of the node's
    /// current statistics snapshot.
    Stats {
        /// Correlation id.
        qid: u64,
        /// Total triples the snapshot believes the system holds (0.0
        /// when the node has no cost model yet).
        total: f64,
        /// Per-attribute triple counts.
        attrs: Vec<(Arc<str>, f64)>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use unistore_chord::ChordMsg;
    use unistore_pgrid::PGridMsg;
    use unistore_query::cost::{NetParams, StatsFlush};
    use unistore_query::GlobalStats;
    use unistore_query::MqpNode;
    use unistore_store::Value;
    use unistore_vql::parse;

    /// One message of every arm, around the given storage message.
    fn every_arm<M>(overlay: M) -> Vec<UniMsg<M>> {
        let q = parse("SELECT ?n WHERE {(?a,'name',?n)} LIMIT 2").unwrap();
        let mqp = Mqp::new(
            7,
            3,
            MqpNode::Scan { pattern: q.patterns[0].clone() },
            q.filters.clone(),
            Some(2),
        );
        let rel = Relation { schema: vec![Arc::from("n")], rows: vec![vec![Value::str("alice")]] };
        let mut delta = StatsDelta::new();
        delta.record_insert(Triple::new("o9", "rating", Value::Int(5)));
        delta.record_delete(Triple::new("o9", "rating", Value::Int(4)));
        delta.record_insert(Triple::new("o7", "rating", Value::Int(4)));
        let net = NetParams { n_peers: 8.0, n_leaves: 8.0, replication: 1.0, hop_ms: 1.0 };
        let base = GlobalStats::build(&[Triple::new("o9", "rating", Value::Int(4))], net);
        let pieces = StatsFlush::new(delta.clone()).first_pieces();
        let mut home = base.home(pieces[0].shard).expect("a build has homes");
        let (taken, published) = home.fold(&pieces[0], 0.0);
        assert!(!taken.is_empty() && !published.is_empty(), "the piece settles and publishes");
        vec![
            UniMsg::Overlay(overlay),
            UniMsg::Query(QueryMsg::Execute { mqp: mqp.clone() }),
            UniMsg::Query(QueryMsg::Route { key: 99, mqp }),
            UniMsg::Query(QueryMsg::Result {
                qid: 7,
                relation: rel,
                hops: 5,
                coverage: {
                    let mut c = Coverage::full();
                    c.record_scan(2, 3);
                    c
                },
            }),
            UniMsg::Query(QueryMsg::StatsDelta { epoch: 3, delta: Shared::new(delta.clone()) }),
            UniMsg::Query(QueryMsg::StatsNotice {
                epoch: 3,
                span: 5,
                notice: Shared::new(published.clone()),
            }),
            UniMsg::Query(QueryMsg::StatsPiece {
                epoch: 3,
                origin: NodeId(4),
                flush: 17,
                at_home: true,
                piece: pieces[0].clone(),
            }),
            UniMsg::Query(QueryMsg::StatsAck { epoch: 3, flush: 17, shard: 3, taken, published }),
            UniMsg::Query(QueryMsg::StatsProbe { qid: 11 }),
        ]
    }

    /// Every arm round-trips, and its arithmetic size is its encoded
    /// length — the simulator charges the former for the latter.
    fn roundtrip_every_arm<M: Wire + std::fmt::Debug>(overlay: M) {
        for m in every_arm(overlay) {
            let b = m.to_bytes();
            assert_eq!(b.len(), m.wire_size(), "{m:?}");
            let back = UniMsg::<M>::from_bytes(&b).unwrap();
            assert_eq!(format!("{back:?}"), format!("{m:?}"));
        }
    }

    #[test]
    fn envelope_roundtrip() {
        roundtrip_every_arm(PGridMsg::<Triple>::Lookup {
            qid: 1,
            key: 2,
            origin: NodeId(3),
            hops: 0,
            filter: None,
        });
    }

    #[test]
    fn envelope_roundtrip_chord_backend() {
        // The same envelope carries any backend's storage messages.
        roundtrip_every_arm(ChordMsg::<Triple>::Lookup {
            qid: 4,
            ring_key: 77,
            origin: NodeId(1),
            hops: 2,
            filter: None,
        });
    }

    #[test]
    fn bad_tag() {
        let b = Bytes::from_static(&[77]);
        assert!(matches!(UniMsg::<PGridMsg<Triple>>::from_bytes(&b), Err(WireError::BadTag(77))));
        // An ack naming a shard past the last is rejected, not filed.
        let ack = Bytes::from_static(&[tag::STATS_ACK, 1, 1, STATS_SHARDS, 0, 0, 0]);
        let decoded = UniMsg::<PGridMsg<Triple>>::from_bytes(&ack);
        assert!(matches!(decoded, Err(WireError::BadTag(STATS_SHARDS))));
        // So is a taken count no delete group holds.
        let mut ack = BytesMut::new();
        ack.extend_from_slice(&[tag::STATS_ACK, 1, 1, 0, 1]);
        put_varint(&mut ack, u32::MAX as u64 + 1);
        ack.extend_from_slice(&[0, 0]);
        let decoded = UniMsg::<PGridMsg<Triple>>::from_bytes(&ack.freeze());
        assert!(matches!(decoded, Err(WireError::BadLength(_))), "{decoded:?}");
        let ack = Bytes::from_static(&[tag::STATS_ACK, 1, 1, STATS_SHARDS - 1, 1, 7, 0, 0]);
        assert!(UniMsg::<PGridMsg<Triple>>::from_bytes(&ack).is_ok());
    }
}
