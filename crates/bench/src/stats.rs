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
use unistore_query::cost::{NetParams, StatsFlush};
use unistore_query::{GlobalStats, ScanStrategy, StatsDelta};
use unistore_simnet::{NodeId, SimTime};
use unistore_store::{Triple, Tuple, Value};
use unistore_workload::{zipf_write_batches, PubParams, PubWorld};

use crate::backend::{Backend, PGrid, SEED};
use crate::snapshot::{emit, Row};

/// The publication drifts the sweep compares.
const EPSILONS: [f64; 5] = [0.0, 0.01, 0.02, 0.05, 0.1];

/// Peers of a sweep cluster.
const SWEEP_PEERS: usize = 32;

/// Stats ticks of a sweep run, each with one 8-tuple write batch — the
/// churn campaign's write shape: a Zipf value of `published_in` and
/// the constant `source`.
const SWEEP_TICKS: usize = 96;

/// The attributes a sweep's batches write.
const WRITTEN: [&str; 2] = ["published_in", "source"];

/// The distinct sets of summaries the peers of a cluster plan on: peers
/// that installed the same notices hold the same `Arc`s.
fn distinct_summary_sets<B: Backend>(cluster: &UniCluster<B>) -> usize {
    let mut sets: Vec<Vec<(Arc<str>, usize)>> = (0..cluster.net.len())
        .map(|i| {
            let model = cluster.net.node(NodeId(i as u32)).cost_model().expect("loaded");
            let mut set: Vec<(Arc<str>, usize)> = model
                .stats
                .attrs
                .iter()
                .map(|(k, a)| (k.clone(), Arc::as_ptr(a) as usize))
                .collect();
            set.sort_unstable();
            set
        })
        .collect();
    sets.sort_unstable();
    sets.dedup();
    sets.len()
}

/// One sweep run at `epsilon`: the world loaded on 32 P-Grid peers,
/// then `SWEEP_TICKS` ticks that each flush one write batch. Reports
/// the notices published per tick, the statistics plane's messages and
/// KiB per peer per tick (everything sent while the ticks settle: the
/// pieces, their acks and the notices), and the worst q-error over
/// every peer of its estimate of each written attribute's rows (a
/// whole-attribute range) against the rows the driver wrote.
fn epsilon_row(world: &PubWorld, epsilon: f64) -> Row {
    let cfg = PGrid::config().with_stats_epsilon(epsilon);
    let period = cfg.stats_refresh.as_micros();
    let mut cluster = UniCluster::<PGrid>::build_overlay(SWEEP_PEERS, cfg, SEED);
    cluster.load(world.all_tuples());
    let batches = zipf_write_batches(world, WRITTEN[0], SWEEP_TICKS, 8, 1.2, SEED);
    let (mut msgs, mut bytes) = (0, 0);
    for (i, batch) in batches.iter().enumerate() {
        let (ok, _) = cluster.insert_batch(NodeId((i * 7 % SWEEP_PEERS) as u32), batch);
        assert!(ok, "sweep batch must be acked");
        // Run to a second past the next tick: the flush and its notice.
        let before = cluster.net.metrics();
        let now = cluster.net.now().as_micros();
        cluster.settle(SimTime::from_micros((now / period + 1) * period + 1_000_000 - now));
        let d = cluster.net.metrics().delta(&before);
        (msgs, bytes) = (msgs + d.sent, bytes + d.bytes);
    }
    let published: u64 = cluster.net.iter_nodes().map(|(_, n)| n.notices_sent).sum();
    let mut qerror: f64 = 1.0;
    for attr in WRITTEN {
        let actual = cluster.triples().iter().filter(|t| &*t.attr == attr).count() as f64;
        let scan = ScanStrategy::AttrRange {
            attr: attr.into(),
            lo: None,
            hi: None,
            algo: unistore_query::RangeAlgo::Parallel,
        };
        for (_, node) in cluster.net.iter_nodes() {
            let est = node.cost_model().expect("loaded").scan(&scan, None).cardinality;
            qerror = qerror.max(est / actual).max(actual / est);
        }
    }
    let per_peer_tick = (SWEEP_PEERS * SWEEP_TICKS) as f64;
    Row::new()
        .float("epsilon", epsilon, 2)
        .int("ticks", SWEEP_TICKS as u64)
        .float("publications_per_tick", published as f64 / SWEEP_TICKS as f64, 3)
        .float("stats_msgs_per_peer_per_tick", msgs as f64 / per_peer_tick, 3)
        .float("stats_kib_per_peer_per_tick", bytes as f64 / 1024.0 / per_peer_tick, 4)
        .float("qerror_max", qerror, 4)
}

/// The sweep's floors: ε = 0 publishes every flush and keeps every
/// peer exact; a larger ε never publishes more, and no estimate is off
/// by more than the drift it allows.
fn sweep_floors(rows: &[Row]) {
    let col = |row: &Row, name: &str| row.get_float(name);
    let mut last = f64::INFINITY;
    for row in rows {
        let (epsilon, published) = (col(row, "epsilon"), col(row, "publications_per_tick"));
        let qerror = col(row, "qerror_max");
        assert!(published <= last, "ε = {epsilon} publishes more than a smaller ε");
        assert!(qerror <= 1.0 + epsilon + 1e-9, "ε = {epsilon}: q-error {qerror} past the drift");
        if epsilon == 0.0 {
            assert_eq!(published, 1.0, "ε = 0 publishes every flush");
            assert_eq!(qerror, 1.0, "ε = 0 keeps every peer exact");
        }
        last = published;
    }
}

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
    // One settled stats tick later every peer has installed what the
    // flush published: peers that installed the same notice share every
    // summary, and every OID of the batch is counted at its shard's home.
    let mut delta = StatsDelta::new();
    fresh_tuples.iter().flat_map(Tuple::to_triples).for_each(|t| delta.record_insert(t));
    let pieces = StatsFlush::new(delta).first_pieces().len();
    let before = cluster.net.metrics();
    cluster.settle(PGrid::config().stats_refresh + SimTime::from_secs(1));
    let flush = cluster.net.metrics().delta(&before);
    let homes = || cluster.net.iter_nodes().flat_map(|(_, n)| n.stats_homes().iter().flatten());
    let counted: usize = homes().map(|h| h.oids().len()).sum();
    let summaries = cluster.net.node(origin).last_notice.as_ref().map_or(0, |n| n.get().len());
    let snapshots = distinct_summary_sets(&cluster);

    let row = Row::new()
        .int("dataset_triples", triples.len() as u64)
        .str("runtime_insert_plan_choice", choice)
        .float("est_rows_fresh", fresh.scan(&scan, None).cardinality, 3)
        .float("est_rows_stale_floor", stale.scan(&scan, None).cardinality, 3)
        .int("actual_rows", actual as u64)
        .int("stats_flush_msgs", flush.sent)
        .int("stats_flush_bytes", flush.bytes)
        .int("stats_flush_pieces", pieces as u64)
        .int("stats_flush_summaries", summaries as u64)
        .int("snapshots_after_tick", snapshots as u64);
    let sweep_world =
        PubWorld::generate(&PubParams { n_authors: 1000, ..Default::default() }, SEED);
    let sweep: Vec<Row> = EPSILONS.iter().map(|&e| epsilon_row(&sweep_world, e)).collect();
    let mut rows = vec![row];
    rows.extend(sweep.iter().cloned());
    emit(Path::new("BENCH_stats.json"), "Stats — runtime-insert plan quality", &rows, |_| {
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
            "the flush sent {} messages for {pieces} pieces",
            flush.sent
        );
        sweep_floors(&sweep);
        assert!(
            speedup > 10.0,
            "incremental stats must beat per-write rebuilds decisively (got {speedup:.1}x)"
        );
    });
}
