//! `BENCH_ingest.json`: the batched write pipeline. Ingests a tuple
//! stream through the routed write path on each backend — `insert_batch`
//! with 64-triple batches (per-hop `OpBatch` coalescing, shared payloads,
//! positional acks). Asserts in-code that messages and KiB per 1k triples
//! stay under absolute ceilings on BOTH backends, with oracle-identical
//! query results afterward, and takes the census the write layout sets:
//! the most records one peer holds, and the q-gram posting ops routed.

use std::path::Path;

use unistore::cluster::qgram_ops;
use unistore::UniCluster;
use unistore_query::cost::NetParams;
use unistore_query::{GlobalStats, StatsDelta, StatsNotice};
use unistore_simnet::{NodeId, SimTime};
use unistore_store::{Tuple, Value};
use unistore_util::wire::Wire;
use unistore_workload::{PubParams, PubWorld};

use crate::backend::{for_backend, Backend, Chord, PGrid, SEED};
use crate::snapshot::{emit, Row};
use crate::{both_backends, canon};

const N_TUPLES: usize = 256; // 4 attributes each → 1024 triples
const BATCH_TUPLES: usize = 16; // × 4 triples = batch size 64

/// `(backend, (msgs, KiB))` ceilings per 1k triples. The retired
/// one-message-per-(key, op) write path measured 34 429 msgs /
/// 1 062 KiB (P-Grid) and 85 702 msgs / 3 467 KiB (Chord) per 1k
/// triples on this workload; the message ceilings are a fifth of
/// those counts. The KiB ceilings sit 5 % over the batch pipeline's
/// own bytes since a batch's payload table ships each attribute name
/// once and front-codes string values: 263.0 (P-Grid) and 1 094.2
/// (Chord), which were 293.0 and 1 282.5 with one whole triple per
/// payload.
const CEILINGS: [(&str, (f64, f64)); 2] =
    [(PGrid::LABEL, (6885.0, 276.0)), (Chord::LABEL, (17140.0, 1149.0))];

/// `(backend, (max_records_per_peer, qgram_ops_per_1k))` ceilings.
/// Stored as a copy of each string triple under every q-gram, this
/// stream routed 6 018 q-gram ops per 1k triples on both backends; one
/// posting per distinct `(attr, value)` of a batch routes 4 814 (every
/// `name` is distinct, so only `tag` shares postings). The busiest peer
/// holds 4 754 (P-Grid) and 4 803 (Chord) records either way: the
/// `name` grams of an empty deployment's unbalanced key space.
const CENSUS_CEILINGS: [(&str, (usize, f64)); 2] =
    [(PGrid::LABEL, (5_000, 5_000.0)), (Chord::LABEL, (5_000, 5_000.0))];

/// `(batch tuples, delta ceiling, notice ceiling)` on the statistics
/// bytes per recorded triple of one Zipf batch: `ingest`'s 64 tuples,
/// where the OID table is most of the digest, and the churn campaign's
/// 8, where the attribute table keeps every group from repeating
/// `published_in`. The `StatsDelta` a write origin buffers measured
/// 4.914 and 8.125 (with 8-byte OID hashes and an attribute name per
/// group they were 7.828 and 11.438); the `StatsNotice` its flush sends
/// every peer — no OID table, a count and an OID byte sum per group —
/// measured 1.523 and 4.875. Ceilings sit about 10 % over.
const STATS_BYTES_PER_TRIPLE_CEILINGS: [(usize, f64, f64); 2] = [(64, 5.4, 1.7), (8, 8.9, 5.4)];

const QUERIES: [&str; 2] = [
    "SELECT ?x WHERE {(?x,'tag','even')}",
    "SELECT ?x,?s WHERE {(?x,'score',?s) FILTER ?s >= 10 AND ?s < 20}",
];

/// Drives one routed ingest of the tuple stream in `BATCH_TUPLES` calls
/// and returns the measured row plus the canonicalized answers to the
/// verification queries (asserted equal to the oracle's).
fn ingest<B: Backend>(tuples: &[Tuple], stats_bytes: [(f64, f64); 2]) -> (Row, Vec<Vec<String>>) {
    // Quiet stats dissemination so the measured traffic is exactly the
    // write pipeline.
    let cfg = B::config().with_stats_refresh(SimTime::from_secs(1_000_000_000));
    let with_qgrams = cfg.with_qgrams;
    let mut cluster = UniCluster::<B>::build_overlay(64, cfg, SEED);
    let before = cluster.net.metrics();
    let mut grams = 0;
    for c in tuples.chunks(BATCH_TUPLES) {
        grams += qgram_ops(c, with_qgrams);
        let origin = cluster.random_node();
        let (ok, _) = cluster.insert_batch(origin, c);
        assert!(ok, "ingest batch must be fully acked");
    }
    let d = cluster.net.metrics().delta(&before);
    let max_records = cluster.net.iter_nodes().map(|(_, n)| n.overlay.records()).max().unwrap_or(0);
    let answers = QUERIES
        .iter()
        .map(|q| {
            let out = cluster.query(NodeId(0), q).expect("query parses");
            assert!(out.ok, "post-ingest query timed out");
            let oracle = canon(&cluster.oracle().query(q).expect("oracle parses"));
            let got = canon(&out.relation);
            assert_eq!(got, oracle, "post-ingest answers must match the oracle: {q}");
            got
        })
        .collect();
    let triples: usize = tuples.iter().map(|t| t.to_triples().len()).sum();
    let kib = d.bytes as f64 / 1024.0;
    let msgs_per_1k = d.sent as f64 * 1000.0 / triples as f64;
    let kib_per_1k = kib * 1000.0 / triples as f64;
    let qgram_ops_per_1k = grams as f64 * 1000.0 / triples as f64;
    let (max_msgs, max_kib) = for_backend::<B, _>(&CEILINGS);
    assert!(
        msgs_per_1k <= max_msgs,
        "{}: {msgs_per_1k:.1} msgs per 1k triples exceeds the {max_msgs} ceiling",
        B::LABEL
    );
    assert!(
        kib_per_1k <= max_kib,
        "{}: {kib_per_1k:.1} KiB per 1k triples exceeds the {max_kib} ceiling",
        B::LABEL
    );
    let (max_peer, max_qgram) = for_backend::<B, _>(&CENSUS_CEILINGS);
    assert!(
        max_records <= max_peer,
        "{}: one peer holds {max_records} records, over the {max_peer} ceiling",
        B::LABEL
    );
    assert!(
        qgram_ops_per_1k <= max_qgram,
        "{}: {qgram_ops_per_1k:.1} q-gram ops per 1k triples exceeds the {max_qgram} ceiling",
        B::LABEL
    );
    let row = Row::new()
        .str("backend", B::LABEL)
        .int("batch_triples", (BATCH_TUPLES * 4) as u64)
        .int("triples", triples as u64)
        .int("msgs", d.sent)
        .float("kib", kib, 3)
        .float("msgs_per_1k", msgs_per_1k, 3)
        .float("kib_per_1k", kib_per_1k, 3)
        .float("stats_delta_bytes_per_triple", stats_bytes[0].0, 3)
        .float("stats_delta_bytes_per_triple_8", stats_bytes[1].0, 3)
        .float("stats_notice_bytes_per_triple", stats_bytes[0].1, 3)
        .float("stats_notice_bytes_per_triple_8", stats_bytes[1].1, 3)
        .int("max_records_per_peer", max_records as u64)
        .float("qgram_ops_per_1k", qgram_ops_per_1k, 3);
    (row, answers)
}

/// What such a write costs the statistics plane: the bytes per triple
/// of one Zipf batch of `batch_tuples` tuples as the digest its origin
/// buffers, and as the notice the next stats flush hands to every peer
/// whichever backend routed the writes (its OID change set to the
/// batch's distinct fingerprints, all new).
fn stats_bytes_per_triple(
    (batch_tuples, delta_ceiling, notice_ceiling): (usize, f64, f64),
) -> (f64, f64) {
    let world = PubWorld::generate(
        &PubParams { n_authors: 60, n_conferences: 15, ..Default::default() },
        SEED,
    );
    let batch =
        unistore_workload::zipf_write_batches(&world, "published_in", 1, batch_tuples, 1.1, SEED);
    let mut delta = StatsDelta::new();
    let mut flat_bytes = 0;
    for t in batch.iter().flatten().flat_map(Tuple::to_triples) {
        flat_bytes += t.wire_size();
        delta.record_insert(t);
    }
    let net = NetParams { n_peers: 64.0, n_leaves: 64.0, replication: 1.0, hop_ms: 1.0 };
    let (mut notice, pieces) = StatsNotice::split(&delta, &GlobalStats::empty(net));
    notice.add_oid_delta(pieces.iter().map(|p| p.entries.len() as i64).sum());
    let per_triple = delta.wire_size() as f64 / delta.len() as f64;
    let notice_per_triple = notice.wire_size() as f64 / delta.len() as f64;
    println!(
        "\nstats digest of one {batch_tuples}-tuple Zipf batch: {} B for {} triples \
         ({per_triple:.2} B/triple; the triples themselves encode to {flat_bytes} B); \
         its notice {} B ({notice_per_triple:.2} B/triple) and {} OID pieces of {} B",
        delta.wire_size(),
        delta.len(),
        notice.wire_size(),
        pieces.len(),
        pieces.iter().map(|p| p.wire_size()).sum::<usize>(),
    );
    assert!(
        per_triple <= delta_ceiling,
        "stats digest of a {batch_tuples}-tuple batch costs {per_triple:.2} B per triple, over \
         the {delta_ceiling} ceiling"
    );
    assert!(
        notice_per_triple <= notice_ceiling,
        "stats notice of a {batch_tuples}-tuple batch costs {notice_per_triple:.2} B per triple, \
         over the {notice_ceiling} ceiling"
    );
    (per_triple, notice_per_triple)
}

/// Writes `BENCH_ingest.json`.
pub fn snapshot() {
    let tuples: Vec<Tuple> = (0..N_TUPLES)
        .map(|i| {
            Tuple::new(&format!("obj{i}"))
                .with("name", Value::str(&format!("object-number-{i}")))
                .with("score", Value::Int((i % 100) as i64))
                .with("tag", Value::str(if i % 2 == 0 { "even" } else { "odd" }))
                .with("rank", Value::Int((i % 7) as i64))
        })
        .collect();
    let stats = STATS_BYTES_PER_TRIPLE_CEILINGS.map(stats_bytes_per_triple);
    let [(pgrid, pgrid_answers), (chord, chord_answers)] = both_backends!(ingest(&tuples, stats));
    emit(
        Path::new("BENCH_ingest.json"),
        "Ingest — batched write pipeline (batch size 64)",
        &[pgrid, chord],
        |_| assert!(pgrid_answers == chord_answers, "both backends must agree on answers"),
    );
}
