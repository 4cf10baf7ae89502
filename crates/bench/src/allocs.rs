//! `BENCH_alloc.json`: the allocation trajectory of the hot paths.
//!
//! Measures steady-state allocations per operation (after a warmup pass
//! that fills the attribute interner) with the counting global allocator
//! in [`crate::alloc`], and asserts the allocation claims in-code:
//!
//! * message sizing (`wire_size`, arithmetic on every type) allocates
//!   nothing, and wire decode allocates at most once per triple
//!   (interned attribute, inline short strings) — through the
//!   triple-list codec of a range reply, plus three per list;
//! * a filtered leaf scan's allocations are independent of how many
//!   candidates the semi-join filter drops — dropped candidates are
//!   never materialized on either backend's store.

use std::path::Path;

use bytes::BytesMut;
use unistore::UniCluster;
use unistore_chord::store::ChordStore;
use unistore_pgrid::LocalStore;
use unistore_simnet::NodeId;
use unistore_store::index::TripleKeys;
use unistore_store::triple::field;
use unistore_store::{Triple, Value};
use unistore_util::item::Item;
use unistore_util::wire::{OpBatch, Wire};
use unistore_util::{BloomFilter, ItemFilter};
use unistore_workload::{PubParams, PubWorld};

use crate::alloc::{measure, AllocStats};
use crate::backend::{Backend, SEED};
use crate::both_backends;
use crate::snapshot::{emit, find, Row};

fn row(section: &str, case: &str, ops: usize, s: AllocStats) -> Row {
    Row::new()
        .str("section", section)
        .str("case", case)
        .int("ops", ops as u64)
        .float("allocs_per_op", s.allocs_per_op(ops), 3)
        .float("bytes_per_op", s.bytes_per_op(ops), 1)
}

/// Encode: the unit `insert_batch` ships — 64 write ops with full index
/// fan-out and shared payloads — sized by arithmetic, and encoded for
/// the wire at exact capacity.
fn encode_rows() -> Vec<Row> {
    let mut batch = OpBatch::new();
    let mut i = 0usize;
    while batch.len() < 64 {
        let t = Triple::new(
            &format!("obj{i}"),
            if i % 2 == 0 { "title" } else { "year" },
            if i % 2 == 0 {
                Value::str(&format!("Similarity Queries on Structured Data {i}"))
            } else {
                Value::Int(1990 + (i % 30) as i64)
            },
        );
        let keys = TripleKeys::derive(&t, true).all();
        let item = batch.add_item(t);
        for (slot, key) in (0..).zip(keys) {
            if batch.len() >= 64 {
                break;
            }
            batch.push_derived(key, item, slot, 0);
        }
        i += 1;
    }
    const ITERS: usize = 256;
    let (_, sized) = measure(|| {
        for _ in 0..ITERS {
            std::hint::black_box(batch.wire_size());
        }
    });
    let (_, ship) = measure(|| {
        for _ in 0..ITERS {
            std::hint::black_box(batch.to_bytes().len());
        }
    });
    vec![
        row("encode", "arithmetic wire_size (64-op batch)", ITERS, sized),
        row("encode", "to_bytes (exact capacity)", ITERS, ship),
    ]
}

/// Decode: a stream of short-string triples (inline in `CompactStr`,
/// attr interned), decoded back-to-back.
fn decode_row() -> Row {
    let mut buf = BytesMut::new();
    for i in 0..64 {
        Triple::new(&format!("obj{i}"), "published_in", Value::str(&format!("c{}", i % 10)))
            .encode(&mut buf);
    }
    let stream = buf.freeze();
    let decode_all = || {
        let mut b = stream.clone();
        let mut n = 0usize;
        while !b.is_empty() {
            std::hint::black_box(Triple::decode(&mut b).expect("decode"));
            n += 1;
        }
        n
    };
    // Warmup interns the attribute.
    let n_triples = decode_all();
    const DECODE_PASSES: usize = 64;
    let (_, inplace) = measure(|| {
        for _ in 0..DECODE_PASSES {
            decode_all();
        }
    });
    row("decode", "in-place (intern + inline)", DECODE_PASSES * n_triples, inplace)
}

/// Triples in the reply [`reply_decode_row`] decodes.
const REPLY_TRIPLES: usize = 64;

/// Decode: one single-attribute range reply in key order through
/// `Triple::decode_list`, which interns the attribute once per list and
/// rebuilds each front-coded value in one reused buffer.
fn reply_decode_row() -> Row {
    let reply: Vec<Triple> = (0..REPLY_TRIPLES)
        .map(|i| Triple::new(&format!("obj{i}"), "name", Value::str(&format!("author-{i:03}"))))
        .collect();
    let mut buf = BytesMut::new();
    Triple::encode_list(&reply, &mut buf);
    let bytes = buf.freeze();
    let decode = || Triple::decode_list(&mut bytes.clone()).expect("decode");
    assert_eq!(decode(), reply, "the reply round-trips");
    const PASSES: usize = 256;
    let (_, stats) = measure(|| {
        for _ in 0..PASSES {
            std::hint::black_box(decode());
        }
    });
    row("decode", "64-triple range reply (decode_list)", PASSES, stats)
}

/// Leaf scan: a filtered scan clones only survivors; piling 16x more
/// dropped candidates under the same key must not change allocs/op.
fn leaf_scan_rows() -> Vec<Row> {
    let survivors: Vec<Triple> =
        (0..8).map(|i| Triple::new(&format!("s{i}"), "year", Value::Int(2000 + i))).collect();
    let bloom = BloomFilter::from_hashes(
        survivors.iter().map(|t| t.field_hash(field::VALUE).expect("value hash")),
        1e-4,
    );
    let filter = Some(ItemFilter { field: field::VALUE, bloom });
    const SCAN_PASSES: usize = 256;
    let mut rows = Vec::new();
    for dropped in [100usize, 1600] {
        let mut pg: LocalStore<Triple> = LocalStore::new();
        let mut ch: ChordStore<Triple> = ChordStore::new();
        for (i, t) in survivors.iter().enumerate() {
            pg.insert(7, t.clone(), 0);
            ch.insert(7, i as u64, t.clone(), 0);
        }
        for i in 0..dropped {
            let t = Triple::new(&format!("d{i}"), "year", Value::Int(10_000 + i as i64));
            pg.insert(7, t.clone(), 0);
            ch.insert(7, 1000 + i as u64, t, 0);
        }
        std::hint::black_box(pg.lookup(7, &filter));
        let (_, scan) = measure(|| {
            for _ in 0..SCAN_PASSES {
                std::hint::black_box(pg.lookup(7, &filter));
            }
        });
        rows.push(row("leaf-scan", &format!("pgrid, {dropped} dropped"), SCAN_PASSES, scan));
        let (_, keyed) = measure(|| {
            for _ in 0..SCAN_PASSES {
                std::hint::black_box(ch.lookup(7, &filter));
            }
        });
        rows.push(row("leaf-scan", &format!("chord, {dropped} dropped"), SCAN_PASSES, keyed));
        // The materializing baseline (clone everything, then retain)
        // is recorded for contrast: its bytes/op scale with `dropped`.
        let (_, mat) = measure(|| {
            for _ in 0..SCAN_PASSES {
                let mut v = pg.get(7);
                ItemFilter::retain(&filter, &mut v);
                std::hint::black_box(v);
            }
        });
        rows.push(row("leaf-scan", &format!("materialize, {dropped} dropped"), SCAN_PASSES, mat));
    }
    rows
}

/// End-to-end: the 3-way join on one backend (trend only).
fn join3_row<B: Backend>(world: &PubWorld) -> Row {
    let q = "SELECT ?n,?conf WHERE {(?a,'name',?n) (?a,'has_published',?t)
             (?p,'title',?t) (?p,'published_in',?conf)}";
    let mut cluster = UniCluster::<B>::build_overlay(16, B::config(), SEED);
    cluster.load(world.all_tuples());
    assert!(cluster.query(NodeId(0), q).expect("warmup").ok, "warmup completes");
    let (out, stats) = measure(|| cluster.query(NodeId(1), q).expect("query"));
    assert!(out.ok, "3-way join timed out on {}", B::LABEL);
    row("join3", B::LABEL, 1, stats)
}

/// Absolute ceilings from the committed record. The first two were once
/// stated against re-implementations of the older code (a fresh
/// unreserved buffer per `wire_size`: 1 alloc/op; the copy → `String` →
/// `Arc` chain per decoded string: 6 allocs/triple) as "≥ 5× less"; the
/// arithmetic and in-place figures those floors admitted are 0 and 1.
fn floors(rows: &[Row]) {
    let allocs = |section, case| {
        find(rows, &[("section", section), ("case", case)]).get_float("allocs_per_op")
    };
    let sized = allocs("encode", "arithmetic wire_size (64-op batch)");
    assert!(sized == 0.0, "wire_size must not allocate (got {sized:.2} allocs/op)");
    let inplace = allocs("decode", "in-place (intern + inline)");
    assert!(
        inplace <= 1.0,
        "in-place decode must allocate at most once per triple (got {inplace:.2} allocs/op)"
    );
    // Per triple its OID; per list the list, the name table and the
    // value buffer. Interning per triple would not show here (a table
    // hit allocates nothing) — it costs a lock per triple instead.
    let reply = allocs("decode", "64-triple range reply (decode_list)");
    let ceiling = (REPLY_TRIPLES + 3) as f64;
    assert!(reply <= ceiling, "range-reply decode: {reply:.1} allocs per reply, ceiling {ceiling}");
    let (few, many) =
        (allocs("leaf-scan", "pgrid, 100 dropped"), allocs("leaf-scan", "pgrid, 1600 dropped"));
    assert!(
        many <= few + 0.5,
        "filtered leaf-scan allocs/op must be independent of dropped candidates \
         (100 dropped: {few:.2}, 1600 dropped: {many:.2})"
    );
    // The plan holder joins, binds and plans without per-row scratch
    // allocations (4 060 / 4 050 before it did; what is left is mostly
    // the rows themselves and message decode).
    for backend in ["P-Grid", "Chord+buckets"] {
        let join3 = allocs("join3", backend);
        assert!(join3 <= 2600.0, "join3 on {backend}: {join3:.0} allocs/op, ceiling 2 600");
    }
}

/// Writes `BENCH_alloc.json`.
pub fn snapshot() {
    let mut rows = encode_rows();
    rows.push(decode_row());
    rows.push(reply_decode_row());
    rows.extend(leaf_scan_rows());
    let world = PubWorld::generate(
        &PubParams { n_authors: 40, n_conferences: 10, ..Default::default() },
        SEED,
    );
    rows.extend(both_backends!(join3_row(&world)));
    emit(
        Path::new("BENCH_alloc.json"),
        "Allocations — allocs/op and bytes/op, steady state",
        &rows,
        floors,
    );
}
