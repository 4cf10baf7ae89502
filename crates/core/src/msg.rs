//! The UniStore node's message and event types.
//!
//! One envelope wraps both layers of the paper's stack: the storage
//! layer (whatever [`Overlay`](unistore_overlay::Overlay) backend the
//! node runs on) and the query-processing layer riding on it.

use std::sync::Arc;

use bytes::{Bytes, BytesMut};

use unistore_overlay::OverlayDone;
use unistore_query::cost::StatsDelta;
use unistore_query::{Coverage, Mqp, Relation};
use unistore_store::Triple;
use unistore_util::wire::{Shared, Wire, WireError};
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
    /// A batch of statistics write events: the in-band dissemination of
    /// the paper's gossiped statistics metadata. Injected by write
    /// origins, then spread by the stats-refresh tick through an
    /// exactly-once binomial broadcast tree (DESIGN.md §"Scale and
    /// churn"); receivers fold it into their cost-model snapshot.
    StatsDelta {
        /// Snapshot generation the delta applies on top of. A full
        /// rebuild bumps the epoch; deltas still buffered or in flight
        /// from the previous epoch describe writes the rebuilt snapshot
        /// already contains and are dropped on receipt instead of being
        /// double-counted.
        epoch: u64,
        /// Broadcast-tree span: how many consecutive peers (the
        /// receiver plus the `span − 1` following it, ring-ordered by
        /// node id) the receiver covers. A receiver with `span > 1`
        /// relays to peers at power-of-two offsets before applying the
        /// delta; `span ≤ 1` is a pure leaf. Driver injections carry 0.
        span: u32,
        /// The write batch. [`Shared`] because every relay of the
        /// broadcast tree forwards the identical delta: the payload is
        /// encoded once and each send clones the buffer, not the
        /// encoding work.
        delta: Shared<StatsDelta>,
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
            UniMsg::Query(QueryMsg::StatsDelta { epoch, span, delta }) => {
                tag::STATS_DELTA.encode(buf);
                epoch.encode(buf);
                span.encode(buf);
                delta.encode(buf);
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
                span: Wire::decode(buf)?,
                delta: Wire::decode(buf)?,
            }),
            tag::STATS_PROBE => UniMsg::Query(QueryMsg::StatsProbe { qid: Wire::decode(buf)? }),
            t => return Err(WireError::BadTag(t)),
        })
    }

    /// The tag plus every field's own size, so a field that knows its
    /// size — above all the stats flush's [`Shared`] payload, sent to
    /// every peer — is never encoded just to be measured.
    fn wire_size(&self) -> usize {
        1 + match self {
            UniMsg::Overlay(m) => m.wire_size(),
            UniMsg::Query(QueryMsg::Execute { mqp }) => mqp.wire_size(),
            UniMsg::Query(QueryMsg::Route { key, mqp }) => key.wire_size() + mqp.wire_size(),
            UniMsg::Query(QueryMsg::Result { qid, relation, hops, coverage }) => {
                qid.wire_size() + relation.wire_size() + hops.wire_size() + coverage.wire_size()
            }
            UniMsg::Query(QueryMsg::StatsDelta { epoch, span, delta }) => {
                epoch.wire_size() + span.wire_size() + delta.wire_size()
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
    use unistore_query::MqpNode;
    use unistore_simnet::NodeId;
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
            UniMsg::Query(QueryMsg::StatsDelta {
                epoch: 3,
                span: 5,
                delta: Shared::new({
                    let mut d = StatsDelta::new();
                    d.record_insert(Triple::new("o9", "rating", Value::Int(5)));
                    d.record_delete(Triple::new("o9", "rating", Value::Int(4)));
                    d
                }),
            }),
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
    }
}
