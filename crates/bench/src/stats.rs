//! `BENCH_stats.json`: the statistics-maintenance trajectory — the plan
//! quality a runtime-insert workload observes (the estimate the planner
//! prices a freshly inserted attribute at, against the stale floor and
//! the true cardinality), what the write's stats flush sends (messages,
//! bytes, and OID pieces to the shard homes), and how many distinct
//! snapshots the 16 peers hold once it has settled (ceiling 1), plus an
//! in-code check that incremental delta maintenance beats the
//! rebuild-from-scratch path decisively.

// The speedup floor compares two wall-clock loops; the times themselves
// are not recorded (the frozen benchmark reports
// `query.stats_apply_us_per_batch` and `query.stats_build_s`).
#![allow(clippy::disallowed_methods)]

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use unistore::UniCluster;
use unistore_query::cost::NetParams;
use unistore_query::{GlobalStats, ScanStrategy, StatsDelta, StatsNotice};
use unistore_simnet::{NodeId, SimTime};
use unistore_store::{Triple, Tuple, Value};
use unistore_workload::{PubParams, PubWorld};

use crate::backend::{Backend, PGrid, SEED};
use crate::snapshot::{emit, Row};

/// How many times cheaper one incremental insert is than one rebuild of
/// the statistics over `triples`.
fn incremental_speedup(triples: &[Triple]) -> f64 {
    let net = NetParams { n_peers: 64.0, n_leaves: 64.0, replication: 1.0, hop_ms: 40.0 };
    let extra: Vec<Triple> = (0..500i64)
        .map(|i| Triple::new(&format!("item{i}"), "rating", Value::Int(i % 5)))
        .collect();

    // Incremental maintenance: O(delta) per write.
    let mut incr = GlobalStats::build(triples, net);
    let t0 = Instant::now();
    for t in &extra {
        incr.apply_insert(t);
    }
    let incr_us = t0.elapsed().as_secs_f64() * 1e6 / extra.len() as f64;

    // The pre-delta path: rebuild from scratch after every write
    // (measured over fewer rounds — it is quadratic by construction).
    let mut all = triples.to_vec();
    let rounds = 50usize;
    let t0 = Instant::now();
    for t in extra.iter().take(rounds) {
        all.push(t.clone());
        std::hint::black_box(GlobalStats::build(&all, net));
    }
    let rebuild_us = t0.elapsed().as_secs_f64() * 1e6 / rounds as f64;
    rebuild_us / incr_us.max(1e-9)
}

/// Writes `BENCH_stats.json`.
pub fn snapshot() {
    let world = PubWorld::generate(
        &PubParams { n_authors: 80, n_conferences: 15, ..Default::default() },
        SEED,
    );
    let triples: Vec<Triple> = world.all_tuples().iter().flat_map(Tuple::to_triples).collect();
    let speedup = incremental_speedup(&triples);

    // Plan quality under a runtime-insert workload: freeze the
    // load-time snapshot, push a brand-new attribute through the routed
    // path, and compare what each snapshot prices the attribute at.
    let mut cluster = UniCluster::<PGrid>::build_overlay(16, PGrid::config(), SEED);
    cluster.load(world.all_tuples());
    let stale = cluster.cost_model().expect("model after load");
    let origin = NodeId(2);
    let fresh_tuples: Vec<Tuple> = (0..8i64)
        .map(|i| Tuple::new(&format!("item{i}")).with("rating", Value::Int(i % 5)))
        .collect();
    let (ok, _) = cluster.insert_batch(origin, &fresh_tuples);
    assert!(ok, "routed batch insert must be acked");
    let fresh = cluster.cost_model().expect("model after inserts");
    let scan = ScanStrategy::AttrValueLookup { attr: "rating".into(), value: Value::Int(1) };
    let query = "SELECT ?x WHERE {(?x,'rating',1)}";
    let actual = cluster.oracle().query(query).expect("oracle parses").rows.len();
    let out = cluster.query(origin, query).expect("query parses");
    assert!(out.ok && out.relation.rows.len() == actual, "runtime-insert query answers");
    let choice = cluster
        .take_traces()
        .into_iter()
        .find(|d| d.pattern.contains("rating"))
        .map(|d| d.choice)
        .unwrap_or_default();
    // One settled stats tick later every peer has folded the origin's
    // flush: peers that folded the same notice hold one snapshot, and
    // every OID of the batch is counted at its shard's home.
    let mut delta = StatsDelta::new();
    fresh_tuples.iter().flat_map(Tuple::to_triples).for_each(|t| delta.record_insert(t));
    let pieces = StatsNotice::split(&delta, &stale.stats).1.len();
    let before = cluster.net.metrics();
    cluster.settle(PGrid::config().stats_refresh + SimTime::from_secs(1));
    let flush = cluster.net.metrics().delta(&before);
    let counted: usize =
        cluster.net.iter_nodes().flat_map(|(_, n)| n.oid_shards()).map(|s| s.len()).sum();
    let mut snapshots: Vec<*const _> = (0..cluster.net.len())
        .map(|i| Arc::as_ptr(cluster.net.node(NodeId(i as u32)).cost_model().expect("loaded")))
        .collect();
    snapshots.sort_unstable();
    snapshots.dedup();
    let snapshots = snapshots.len();

    let row = Row::new()
        .int("dataset_triples", triples.len() as u64)
        .str("runtime_insert_plan_choice", choice)
        .float("est_rows_fresh", fresh.scan(&scan, None).cardinality, 3)
        .float("est_rows_stale_floor", stale.scan(&scan, None).cardinality, 3)
        .int("actual_rows", actual as u64)
        .int("stats_flush_msgs", flush.sent)
        .int("stats_flush_bytes", flush.bytes)
        .int("stats_flush_oid_pieces", pieces as u64)
        .int("snapshots_after_tick", snapshots as u64);
    emit(Path::new("BENCH_stats.json"), "Stats — runtime-insert plan quality", &[row], |_| {
        println!(
            "\nincremental stats maintenance: {speedup:.0}x cheaper per insert than a rebuild"
        );
        assert!(snapshots <= 1, "{snapshots} statistics snapshots across one settled cluster");
        assert_eq!(
            counted,
            fresh.stats.oids().map_or(0, |m| m.len()),
            "the shard homes count every live OID once"
        );
        // The tree's 15 sends plus, per piece, at most a route, a hand
        // to the home and an ack.
        assert!(
            flush.sent <= 15 + 3 * pieces as u64,
            "the flush sent {} messages for {pieces} OID pieces",
            flush.sent
        );
        assert!(
            speedup > 10.0,
            "incremental stats must beat per-write rebuilds decisively (got {speedup:.1}x)"
        );
    });
}
