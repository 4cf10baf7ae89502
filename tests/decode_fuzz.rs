//! Decode-never-panics fuzzing over every protocol `Wire` type.
//!
//! Three adversities, one invariant: `Wire::decode` over bytes it did
//! not produce must return `Err`, never panic and never over-allocate —
//! a decoder panic is a remote crash trigger the moment frames arrive
//! from a real socket instead of the simulator.
//!
//! * **random bytes** — arbitrary buffers straight into `from_bytes`;
//! * **truncation** — every strict prefix of a valid encoding must be
//!   rejected (length prefixes cannot be silently satisfied early);
//! * **bit flips** — a valid encoding with one byte XORed anywhere must
//!   either be rejected or decode to a value that re-encodes cleanly.
//!
//! Whenever a mutated buffer *does* decode, the decoded value must
//! re-encode to `wire_size()` bytes that decode back to an identical
//! value: corrupt input may produce a different message, but never a
//! value the codec itself cannot handle.

use bytes::Bytes;
use proptest::prelude::*;
use std::sync::Arc;

use unistore::{QueryMsg, UniMsg};
use unistore_chord::msg::ChordBatchOp;
use unistore_chord::ChordMsg;
use unistore_overlay::repair::{Child, Part, RecordKey, RepairMsg, Span, Summary, FANOUT};
use unistore_overlay::RecordList;
use unistore_pgrid::msg::PeerRef;
use unistore_pgrid::PGridMsg;
use unistore_query::cost::{GlobalStats, NetParams, OidPiece, StatsDelta, StatsNotice};
use unistore_query::{Coverage, Mqp, MqpNode, Relation};
use unistore_simnet::NodeId;
use unistore_store::{Triple, Value};
use unistore_util::item::Item;
use unistore_util::wire::{BatchOp, BatchVerb, OpBatch, Shared, Wire, WireError};
use unistore_util::{BloomFilter, ItemFilter};

/// Checks one buffer against the never-panic / re-encode invariant.
fn check_bytes<T: Wire + std::fmt::Debug>(data: &[u8]) {
    let buf = Bytes::copy_from_slice(data);
    if let Ok(v) = T::from_bytes(&buf) {
        let re = v.to_bytes();
        assert_eq!(re.len(), v.wire_size(), "wire_size disagrees with encode for {v:?}");
        let back = T::from_bytes(&re).expect("re-encoded bytes must decode");
        assert_eq!(format!("{back:?}"), format!("{v:?}"));
    }
}

/// Every strict prefix of a valid encoding must fail to decode: the
/// codec requires full consumption and length prefixes must not be
/// satisfiable early.
fn check_truncations<T: Wire + std::fmt::Debug>(seed: &T) {
    let full = seed.to_bytes();
    for cut in 0..full.len() {
        let b = Bytes::copy_from_slice(&full[..cut]);
        assert!(
            T::from_bytes(&b).is_err(),
            "prefix of {cut}/{} bytes decoded for {seed:?}",
            full.len()
        );
    }
}

/// XORs one byte of a valid encoding; decoding may succeed (the flip
/// landed in a value) but must never panic, and a success must
/// re-encode cleanly.
fn check_bitflip<T: Wire + std::fmt::Debug>(seed: &T, pos: usize, mask: u8) {
    let full = seed.to_bytes();
    if full.is_empty() {
        return;
    }
    let mut bytes = full.to_vec();
    let at = pos % bytes.len();
    bytes[at] ^= mask;
    check_bytes::<T>(&bytes);
}

/// Seed corpus per type: representative values covering every variant
/// and both empty and populated payloads.
trait FuzzSeeds: Wire + std::fmt::Debug + Sized {
    fn seeds() -> Vec<Self>;
}

fn sample_filter() -> Option<ItemFilter> {
    Some(ItemFilter { field: 2, bloom: BloomFilter::from_hashes([7u64, 8, 9], 0.01) })
}

fn sample_relation() -> Relation {
    Relation {
        schema: vec![Arc::from("n"), Arc::from("g")],
        rows: vec![
            vec![Value::str("alice"), Value::Int(30)],
            vec![Value::str("bob"), Value::Float(0.5)],
        ],
    }
}

fn sample_mqp() -> Mqp {
    let q = unistore_vql::parse("SELECT ?n WHERE {(?a,'name',?n)} LIMIT 2").expect("static query");
    Mqp::new(7, 3, MqpNode::Scan { pattern: q.patterns[0].clone() }, q.filters.clone(), Some(2))
}

/// Plans that between them hold every `MqpNode` variant, each with a
/// materialized relation embedded (what a travelling plan ships).
fn sample_full_plans() -> Vec<Mqp> {
    [
        "SELECT ?n WHERE {(?a,'name',?n) (?a,'age',?g) FILTER ?g >= 30} ORDER BY ?g DESC LIMIT 2",
        "SELECT ?n WHERE {(?a,'name',?n) (?a,'age',?g)} ORDER BY ?g TOP 3",
        "SELECT ?n WHERE {(?a,'name',?n) (?a,'age',?g)} ORDER BY SKYLINE OF ?g MIN",
        "SELECT ?n WHERE {(?a,'name',?n) (?a,'age',?g)
         FILTER prefix(?n,'al') AND NOT ?g < 18 OR edist(?n,'bob') <= 1}",
    ]
    .into_iter()
    .map(|src| {
        let q = unistore_vql::analyze(unistore_vql::parse(src).expect("static query"))
            .expect("static query");
        let mut root = MqpNode::from_logical(&unistore_query::Logical::from_query(&q));
        root.resolve_first_scan(sample_relation());
        Mqp::new(8, 2, root, q.query.filters.clone(), None)
    })
    .collect()
}

fn sample_coverage() -> Coverage {
    let mut c = Coverage::full();
    c.record_scan(2, 3);
    c
}

/// A digest with every shape the format has: a group over several
/// OIDs (gaps), a repeated event (gap 0), a group that skips table
/// entries, a string value, both signs, and two attributes that each
/// appear on both signs (attribute indexes 0 and 1 on each side).
fn sample_stats_delta() -> StatsDelta {
    let mut d = StatsDelta::new();
    for oid in ["o1", "o2", "o3", "o2"] {
        d.record_insert(Triple::new(oid, "rating", Value::Int(5)));
    }
    d.record_insert(Triple::new("o3", "name", Value::str("carol")));
    d.record_delete(Triple::new("o1", "rating", Value::Int(4)));
    d.record_delete(Triple::new("object-4", "rating", Value::Int(4)));
    d.record_delete(Triple::new("o2", "name", Value::str("bob")));
    d
}

/// The notice and the OID pieces a flush of [`sample_stats_delta`]
/// makes over a snapshot that counts one of its deleted triples: both
/// signs, a group the snapshot caps, and pieces in several shards.
fn sample_flush() -> (StatsNotice, Vec<OidPiece>) {
    let net = NetParams { n_peers: 4.0, n_leaves: 4.0, replication: 1.0, hop_ms: 1.0 };
    let base = GlobalStats::build(&[Triple::new("o1", "rating", Value::Int(4))], net);
    let (mut notice, pieces) = StatsNotice::split(&sample_stats_delta(), &base);
    notice.add_oid_delta(-3);
    (notice, pieces)
}

/// The largest notice sums the decoder lets through, on both sides of
/// one pair: `u32::MAX` triples of the longest decodable OIDs, and the
/// largest distinct-OID change.
fn huge_notice() -> StatsNotice {
    use unistore_util::wire::{put_varint, varint_size, MAX_LEN};
    let mut buf = bytes::BytesMut::new();
    put_varint(&mut buf, 1);
    "rating".to_string().encode(&mut buf);
    for _ in 0..2 {
        put_varint(&mut buf, 1);
        put_varint(&mut buf, 0);
        Value::Int(4).encode(&mut buf);
        u32::MAX.encode(&mut buf);
        (u32::MAX as u64 * (varint_size(MAX_LEN) as u64 + MAX_LEN)).encode(&mut buf);
    }
    i64::MAX.encode(&mut buf);
    StatsNotice::from_bytes(&buf.freeze()).unwrap()
}

/// A piece with the largest changes either way.
fn huge_piece() -> OidPiece {
    OidPiece { shard: 3, entries: vec![(3 << 30 | 1, i32::MAX), (3 << 30 | 2, i32::MIN)] }
}

fn sample_batch() -> OpBatch<Triple> {
    let mut b = OpBatch::new();
    let i = b.add_item(Triple::new("o1", "name", Value::str("alice")));
    b.push_insert(5, i, 0);
    b.push_insert(9, i, 0);
    b.push_delete(13, 0xFEED, 2);
    b
}

/// An item list with every shape the triple-list codec has: three
/// attributes (so triples carry table indexes), string values sharing
/// prefixes, a shared prefix that ends before a multi-byte character
/// ("Adé" after "Adè"), and a number between two strings.
fn sample_triples() -> Vec<Triple> {
    vec![
        Triple::new("a1", "name", Value::str("Ada Lovelace")),
        Triple::new("a2", "name", Value::str("Ada Lovelock")),
        Triple::new("a3", "name", Value::str("Adè")),
        Triple::new("a3", "name", Value::str("Adé")),
        Triple::new("a3", "age", Value::Int(36)),
        Triple::new("a4", "pub:title", Value::str("Adèle's notes")),
        Triple::new("a4", "pub:title", Value::str("Adèle's notes, vol. 2")),
    ]
}

/// A batch over [`sample_triples`]: every item inserted once, one
/// of them under two keys.
fn sample_triple_batch() -> OpBatch<Triple> {
    let mut b = OpBatch::new();
    for (k, t) in sample_triples().into_iter().enumerate() {
        let i = b.add_item(t);
        b.push_insert(100 + k as u64, i, 0);
    }
    b.push_insert(200, 1, 3);
    b
}

fn sample_peers() -> Vec<PeerRef> {
    let path = unistore_util::BitPath::parse("0110").expect("static path");
    vec![
        PeerRef { id: NodeId(1), path },
        PeerRef { id: NodeId(300), path: unistore_util::BitPath::ROOT },
    ]
}

/// A well-formed split of `span`: [`FANOUT`] children with ascending
/// upper bounds from `hi`, the last stretched to the span's end.
fn sample_split<K: RecordKey>(span: Span<K>, hi: impl Fn(u64) -> K) -> Part<K> {
    let children = (0..FANOUT as u64)
        .map(|i| Child {
            hi: if i + 1 == FANOUT as u64 { span.1 } else { hi(i) },
            summary: Summary { count: i, hash: i.wrapping_mul(0x9E37_79B9_7F4A_7C15) },
        })
        .collect();
    Part::Split { span, children }
}

/// A record list over [`sample_triples`] (multi-attribute, front-coded
/// strings) and two tombstones, keyed by `key(i, ident)`: the shape of a
/// coalesced push or a repair's leaf step.
fn sample_records<K: RecordKey, F: Fn(u64, u64) -> K>(key: F) -> RecordList<K, Triple> {
    let live = (0u64..).zip(sample_triples()).map(|(i, t)| (key(i, t.ident()), i, Some(t)));
    let dead = [(key(2, 0xFEED), 9, None), (key(40, 7), 300, None)];
    RecordList::from_records(live.chain(dead))
}

impl FuzzSeeds for PGridMsg<Triple> {
    fn seeds() -> Vec<Self> {
        let t = Triple::new("o1", "name", Value::str("alice"));
        let entries = RecordList::from_records([
            ((42, t.ident()), 1, Some(t.clone())),
            ((43, t.ident()), 0, Some(t.clone())),
        ]);
        // Consecutive leaf keys: one bootstrap hand-off of a whole leaf.
        let leaf = sample_records(|i, ident| (1 << 40 | i, ident));
        vec![
            PGridMsg::Lookup {
                qid: 9,
                key: 0xABCD,
                origin: NodeId(3),
                hops: 2,
                filter: sample_filter(),
            },
            PGridMsg::LookupReply { qid: 9, items: vec![t.clone()], hops: 3, ok: true },
            PGridMsg::LookupReply { qid: 10, items: sample_triples(), hops: 2, ok: true },
            PGridMsg::Delete { key: 9, ident: 11, version: 2 },
            PGridMsg::OpBatch {
                qid: 12,
                origin: NodeId(2),
                hops: 1,
                // A re-grouped remainder: ascending with gaps, one
                // position past the one-byte varint range.
                positions: vec![7, 157, 307],
                batch: sample_batch(),
            },
            PGridMsg::OpBatch {
                qid: 13,
                origin: NodeId(2),
                hops: 0,
                // Gaps of one, two and three varint bytes.
                positions: vec![5, 205, 20_205, 2_020_205],
                batch: {
                    let mut b = sample_batch();
                    b.push_delete(17, 0xBEEF, 1);
                    b
                },
            },
            PGridMsg::OpBatch {
                qid: 14,
                origin: NodeId(5),
                hops: 2,
                positions: (0..sample_triple_batch().len() as u32).collect(),
                batch: sample_triple_batch(),
            },
            PGridMsg::BatchAck { qid: 12, applied: vec![7, 157, 307], hops: 4 },
            PGridMsg::Range {
                qid: 2,
                lo: 10,
                hi: 20,
                lmin: 1,
                origin: NodeId(4),
                hops: 1,
                filter: None,
            },
            PGridMsg::RangeSeq {
                qid: 3,
                lo: 10,
                hi: 20,
                origin: NodeId(4),
                hops: 1,
                filter: sample_filter(),
            },
            PGridMsg::RangeReply {
                qid: 2,
                cov_lo: 10,
                cov_hi: 15,
                items: vec![t.clone()],
                hops: 5,
                aborted: false,
            },
            PGridMsg::RangeReply {
                qid: 2,
                cov_lo: 16,
                cov_hi: 31,
                items: sample_triples(),
                hops: 4,
                aborted: true,
            },
            PGridMsg::Replicate { entries: entries.clone() },
            PGridMsg::Replicate { entries: leaf.clone() },
            PGridMsg::Repair(RepairMsg::Probe {
                span: ((8, 0), (15, u64::MAX)),
                summary: Summary { count: 3, hash: 0xDEAD_BEEF_0BAD_F00D },
            }),
            PGridMsg::Repair(RepairMsg::Descend {
                parts: vec![
                    sample_split(((8, 0), (15, u64::MAX)), |i| (8 + i / 4, i * 1000)),
                    Part::Run { span: ((8, 0), (8, 99)), entries: vec![((8, 1), 2), ((8, 7), 0)] },
                ],
            }),
            PGridMsg::Repair(RepairMsg::Records {
                entries: RecordList::from_records([
                    ((42, t.ident()), 1, Some(t)),
                    ((43, 8), 2, None),
                ]),
                want: vec![(44, 9)],
            }),
            PGridMsg::Repair(RepairMsg::Records {
                entries: leaf.clone(),
                want: vec![(44, 9), (44, 10), (45, 0), (u64::MAX, u64::MAX)],
            }),
            PGridMsg::TableRequest { path: sample_peers()[0].path, full: u64::MAX, summary: None },
            PGridMsg::TableRequest {
                path: sample_peers()[0].path,
                full: 0b101,
                summary: Some(Summary { count: 40_000, hash: 0x0123_4567_89AB_CDEF }),
            },
            PGridMsg::TableReply { peers: sample_peers() },
            PGridMsg::Exchange { path: unistore_util::BitPath::ROOT, store_len: 12 },
            PGridMsg::ExchangeSplit {
                new_sender_path: sample_peers()[0].path,
                entries: entries.clone(),
            },
            PGridMsg::ExchangeSplit {
                new_sender_path: sample_peers()[1].path,
                entries: leaf.clone(),
            },
            PGridMsg::ExchangeData { entries: entries.clone() },
            PGridMsg::ExchangeData { entries: leaf.clone() },
            PGridMsg::ExchangeReplica { entries },
            PGridMsg::ExchangeReplica { entries: leaf },
            PGridMsg::ExchangeAdopt { bit: true },
            PGridMsg::ExchangeRefs { peers: sample_peers() },
        ]
    }
}

impl FuzzSeeds for ChordMsg<Triple> {
    fn seeds() -> Vec<Self> {
        let t = Triple::new("o2", "age", Value::Int(30));
        let batch = sample_triple_batch();
        vec![
            ChordMsg::Lookup {
                qid: 1,
                ring_key: 99,
                origin: NodeId(2),
                hops: 3,
                filter: sample_filter(),
            },
            ChordMsg::LookupReply { qid: 1, items: vec![t.clone(), t.clone()], hops: 4, ok: true },
            ChordMsg::LookupReply { qid: 2, items: sample_triples(), hops: 3, ok: true },
            ChordMsg::OpBatch {
                qid: 8,
                origin: NodeId(3),
                hops: 1,
                attempt: 0,
                items: vec![t.clone()],
                ops: vec![ChordBatchOp {
                    bucket: false,
                    idx: 0,
                    op: BatchOp { key: 700, version: 0, verb: BatchVerb::Insert { item: 0 } },
                }],
            },
            ChordMsg::OpBatch {
                qid: 9,
                origin: NodeId(3),
                hops: 0,
                attempt: 2,
                items: batch.items,
                ops: batch
                    .ops
                    .into_iter()
                    .enumerate()
                    .map(|(i, op)| ChordBatchOp { bucket: i % 2 == 1, idx: i as u32, op })
                    .collect(),
            },
            ChordMsg::BatchAck { qid: 8, applied: vec![0, 1], hops: 3 },
            ChordMsg::BucketRange { qid: 3, lo: 10, hi: 90, origin: NodeId(1) },
            ChordMsg::BucketGet {
                qid: 3,
                ring_key: 55,
                lo: 10,
                hi: 90,
                origin: NodeId(1),
                hops: 2,
                filter: None,
            },
            ChordMsg::Bcast { qid: 4, lo: 0, hi: u64::MAX, limit: 12345, hops: 1, filter: None },
            ChordMsg::BcastReply { qid: 4, items: vec![t.clone()], nodes: 17, hops: 6 },
            ChordMsg::BcastReply { qid: 5, items: sample_triples(), nodes: 3, hops: 2 },
            ChordMsg::Replicate {
                entries: RecordList::from_records([
                    ((9, 90, t.ident()), 1, Some(t.clone())),
                    ((8, 80, 800), 2, None),
                ]),
            },
            // A bucket's records share their ring position.
            ChordMsg::Replicate { entries: sample_records(|i, ident| (77, 1 << 50 | i, ident)) },
            ChordMsg::Repair(RepairMsg::Probe {
                span: ((8, 0, 0), (9, u64::MAX, u64::MAX)),
                summary: Summary { count: 2, hash: u64::MAX },
            }),
            ChordMsg::Repair(RepairMsg::Descend {
                parts: vec![
                    sample_split(((8, 0, 0), (9, u64::MAX, u64::MAX)), |i| (8, 80 + i, 800)),
                    Part::Run { span: ((9, 0, 0), (9, 90, 900)), entries: vec![((9, 90, 900), 1)] },
                    Part::Run {
                        span: ((10, 0, 0), (12, u64::MAX, u64::MAX)),
                        entries: vec![
                            ((10, 0, 0), 0),
                            ((10, 5, 1), 300),
                            ((10, 5, u64::MAX), 1),
                            ((11, 0, 3), 2),
                            ((12, u64::MAX, u64::MAX), 7),
                        ],
                    },
                ],
            }),
            ChordMsg::Repair(RepairMsg::Records {
                entries: RecordList::from_records([
                    ((9, 90, 900), 3, None),
                    ((8, 80, t.ident()), 1, Some(t.clone())),
                ]),
                want: vec![(8, 81, 800)],
            }),
            ChordMsg::Repair(RepairMsg::Records {
                entries: sample_records(|i, ident| (i << 57, i, ident)),
                want: vec![(8, 81, 800), (8, 81, 801), (9, 0, 0)],
            }),
            ChordMsg::Ping,
            ChordMsg::Pong,
        ]
    }
}

/// Query-layer messages ride the envelope; these seeds cover every
/// `QueryMsg` variant plus an overlay frame for each backend.
impl FuzzSeeds for UniMsg<PGridMsg<Triple>> {
    fn seeds() -> Vec<Self> {
        let mut out: Vec<Self> = vec![
            UniMsg::Query(QueryMsg::Execute { mqp: sample_mqp() }),
            UniMsg::Query(QueryMsg::Route { key: 99, mqp: sample_mqp() }),
            UniMsg::Query(QueryMsg::Result {
                qid: 7,
                relation: sample_relation(),
                hops: 5,
                coverage: sample_coverage(),
            }),
            UniMsg::Query(QueryMsg::StatsDelta {
                epoch: 3,
                delta: Shared::new(sample_stats_delta()),
            }),
            UniMsg::Query(QueryMsg::StatsNotice {
                epoch: 3,
                span: 6,
                notice: Shared::new(sample_flush().0),
            }),
            UniMsg::Query(QueryMsg::OidPiece {
                epoch: 3,
                origin: NodeId(9),
                flush: 300,
                at_home: false,
                piece: sample_flush().1[0].clone(),
            }),
            UniMsg::Query(QueryMsg::OidAck { epoch: 3, flush: 300, shard: 2, delta: -70 }),
            UniMsg::Query(QueryMsg::StatsProbe { qid: 11 }),
        ];
        out.extend(PGridMsg::seeds().into_iter().map(UniMsg::Overlay));
        out
    }
}

impl FuzzSeeds for UniMsg<ChordMsg<Triple>> {
    fn seeds() -> Vec<Self> {
        let mut out: Vec<Self> = vec![UniMsg::Query(QueryMsg::Result {
            qid: 7,
            relation: sample_relation(),
            hops: 5,
            coverage: sample_coverage(),
        })];
        out.extend(ChordMsg::seeds().into_iter().map(UniMsg::Overlay));
        out
    }
}

impl FuzzSeeds for OpBatch<Triple> {
    fn seeds() -> Vec<Self> {
        vec![OpBatch::new(), sample_batch(), sample_triple_batch()]
    }
}

impl FuzzSeeds for StatsDelta {
    fn seeds() -> Vec<Self> {
        vec![StatsDelta::new(), sample_stats_delta()]
    }
}

impl FuzzSeeds for StatsNotice {
    fn seeds() -> Vec<Self> {
        vec![StatsNotice::default(), sample_flush().0, huge_notice()]
    }
}

impl FuzzSeeds for OidPiece {
    fn seeds() -> Vec<Self> {
        let mut out = vec![OidPiece::default(), huge_piece()];
        out.extend(sample_flush().1);
        out
    }
}

impl FuzzSeeds for BloomFilter {
    fn seeds() -> Vec<Self> {
        vec![BloomFilter::from_hashes([], 0.01), BloomFilter::from_hashes([7u64, 8, 9], 0.001)]
    }
}

impl FuzzSeeds for Coverage {
    fn seeds() -> Vec<Self> {
        vec![Coverage::full(), Coverage::failed(), sample_coverage()]
    }
}

impl FuzzSeeds for Relation {
    fn seeds() -> Vec<Self> {
        vec![Relation::empty(vec![Arc::from("x")]), sample_relation()]
    }
}

impl FuzzSeeds for Mqp {
    fn seeds() -> Vec<Self> {
        let mut out = vec![sample_mqp()];
        out.extend(sample_full_plans());
        out
    }
}

/// The simulator charges `wire_size()` bytes per send and the plan
/// holder compares it with the forward cap, in most types by
/// arithmetic: it must be the encoder's byte count on every variant,
/// behind both backends' envelopes.
#[test]
fn wire_size_is_the_encoded_length_on_every_seed() {
    fn sweep<T: FuzzSeeds>() {
        for seed in T::seeds() {
            let encoded = seed.to_bytes().len();
            assert_eq!(seed.wire_size(), encoded, "wire_size disagrees with encode for {seed:?}");
        }
    }
    sweep::<UniMsg<PGridMsg<Triple>>>();
    sweep::<UniMsg<ChordMsg<Triple>>>();
    sweep::<PGridMsg<Triple>>();
    sweep::<ChordMsg<Triple>>();
    sweep::<OpBatch<Triple>>();
    sweep::<StatsDelta>();
    sweep::<StatsNotice>();
    sweep::<OidPiece>();
    sweep::<BloomFilter>();
    sweep::<Coverage>();
    sweep::<Relation>();
    sweep::<Mqp>();
}

/// Truncation must always be rejected — one deterministic sweep per
/// type over every seed and every cut point.
#[test]
fn truncated_encodings_rejected() {
    fn sweep<T: FuzzSeeds>() {
        for seed in T::seeds() {
            check_truncations(&seed);
        }
    }
    sweep::<UniMsg<PGridMsg<Triple>>>();
    sweep::<UniMsg<ChordMsg<Triple>>>();
    sweep::<PGridMsg<Triple>>();
    sweep::<ChordMsg<Triple>>();
    sweep::<OpBatch<Triple>>();
    sweep::<StatsDelta>();
    sweep::<StatsNotice>();
    sweep::<OidPiece>();
    sweep::<BloomFilter>();
    sweep::<Coverage>();
    sweep::<Relation>();
    sweep::<Mqp>();
}

/// Handlers trust a decoded digest's table indexes; whatever the
/// decoder lets through must fold, merge and compact without a panic.
mod stats_delta_use {
    use super::*;

    fn use_if_decodes(bytes: &[u8]) {
        let Ok(d) = StatsDelta::from_bytes(&Bytes::copy_from_slice(bytes)) else { return };
        let net = NetParams { n_peers: 4.0, n_leaves: 4.0, replication: 1.0, hop_ms: 1.0 };
        let mut stats = GlobalStats::empty(net);
        stats.apply_delta(&sample_stats_delta());
        stats.apply_delta(&d);
        let mut merged = sample_stats_delta();
        merged.merge(d.clone());
        assert_eq!(merged.len(), sample_stats_delta().len() + d.len());
        merged.compact();
        stats.apply_delta(&merged);
        assert_eq!(merged.to_bytes().len(), merged.wire_size());
    }

    proptest! {
        #[test]
        fn bitflipped_digests_fold(pos: u64, mask in 1u8..=255u8) {
            let mut bytes = sample_stats_delta().to_bytes().to_vec();
            let at = pos as usize % bytes.len();
            bytes[at] ^= mask;
            use_if_decodes(&bytes);
        }

        #[test]
        fn random_digests_fold(data in proptest::collection::vec(0u8..4, 0..24)) {
            // Tiny bytes so that counts, tags and gaps are often valid.
            use_if_decodes(&data);
        }
    }
}

/// Receivers fold whatever notice the decoder lets through, and homes
/// whatever piece: neither may panic.
mod stats_notice_use {
    use super::*;
    use unistore_query::cost::OidCounts;

    fn use_if_decodes(notice: &[u8], piece: &[u8]) {
        let net = NetParams { n_peers: 4.0, n_leaves: 4.0, replication: 1.0, hop_ms: 1.0 };
        let mut stats = GlobalStats::empty(net);
        stats.apply_delta(&sample_stats_delta());
        if let Ok(n) = StatsNotice::from_bytes(&Bytes::copy_from_slice(notice)) {
            stats.apply_notice(&n);
            stats.apply_notice(&sample_flush().0);
        }
        if let Ok(p) = OidPiece::from_bytes(&Bytes::copy_from_slice(piece)) {
            let mut shard = OidCounts::default();
            let added = shard.apply(&p.entries);
            assert_eq!(added, shard.len() as i64);
        }
    }

    /// The largest sums fold again and again: counts stop at their
    /// type's end instead of wrapping or panicking.
    #[test]
    fn the_largest_sums_fold_repeatedly() {
        let (notice, piece) = (huge_notice(), huge_piece());
        for _ in 0..3 {
            use_if_decodes(&notice.to_bytes(), &piece.to_bytes());
        }
        let net = NetParams { n_peers: 4.0, n_leaves: 4.0, replication: 1.0, hop_ms: 1.0 };
        let mut stats = GlobalStats::empty(net);
        let mut home = OidCounts::default();
        for _ in 0..3 {
            stats.apply_notice(&notice);
            home.apply(&piece.entries);
        }
        assert!(stats.avg_triple_bytes.is_finite() && stats.oid_distinct.is_finite());
        assert_eq!(home.get(3 << 30 | 1), u32::MAX);
    }

    proptest! {
        #[test]
        fn bitflipped_notices_and_pieces_fold(pos: u64, mask in 1u8..=255u8) {
            let (notice, pieces) = sample_flush();
            let mut n = notice.to_bytes().to_vec();
            let mut p = pieces[0].to_bytes().to_vec();
            let (at_n, at_p) = (pos as usize % n.len(), pos as usize % p.len());
            n[at_n] ^= mask;
            p[at_p] ^= mask;
            use_if_decodes(&n, &p);
        }

        #[test]
        fn random_notices_and_pieces_fold(data in proptest::collection::vec(0u8..4, 0..24)) {
            use_if_decodes(&data, &data);
        }
    }
}

/// A zero-length buffer must decode to `UnexpectedEof`, not panic.
#[test]
fn empty_buffer_rejected() {
    let b = Bytes::new();
    assert!(matches!(UniMsg::<PGridMsg<Triple>>::from_bytes(&b), Err(WireError::UnexpectedEof)));
    assert!(matches!(ChordMsg::<Triple>::from_bytes(&b), Err(WireError::UnexpectedEof)));
}

macro_rules! fuzz_wire {
    ($($modname:ident => $ty:ty),* $(,)?) => {$(
        mod $modname {
            use super::*;

            proptest! {
                #[test]
                fn random_bytes_never_panic(
                    data in proptest::collection::vec(any::<u8>(), 0..512)
                ) {
                    check_bytes::<$ty>(&data);
                }

                #[test]
                fn bitflips_never_panic(
                    seed_idx: u64,
                    pos: u64,
                    mask in 1u8..=255u8,
                ) {
                    let seeds = <$ty as FuzzSeeds>::seeds();
                    let seed = &seeds[(seed_idx as usize) % seeds.len()];
                    check_bitflip(seed, pos as usize, mask);
                }
            }
        }
    )*};
}

fuzz_wire! {
    uni_pgrid => UniMsg<PGridMsg<Triple>>,
    uni_chord => UniMsg<ChordMsg<Triple>>,
    pgrid_msg => PGridMsg<Triple>,
    chord_msg => ChordMsg<Triple>,
    op_batch => OpBatch<Triple>,
    stats_delta => StatsDelta,
    stats_notice => StatsNotice,
    oid_piece => OidPiece,
    bloom_filter => BloomFilter,
    coverage => Coverage,
    relation => Relation,
    mqp => Mqp,
}
