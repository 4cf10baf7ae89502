//! `BENCH_concurrency.json`: the concurrent query pipeline. Drives the
//! same Zipf- or uniform-skewed point-read mix through the pipelined
//! driver at two offered loads (admission windows of 8 and 32), with the
//! node-local result cache off and on, on both backends. Reports
//! simulated-time throughput and p50/p99 latency and asserts the
//! headline in-code: with the replica/cache read path enabled, the Zipf
//! p99 beats the cache-off p99 at the same offered load.

use std::path::Path;

use unistore::UniCluster;
use unistore_simnet::{NodeId, SimTime};
use unistore_workload::{PubParams, PubWorld};

use crate::backend::{Backend, LABELS, SEED};
use crate::snapshot::{emit, find, Row};
use crate::{both_backends, f, latency_summary};

const N_QUERIES: usize = 96;
const WINDOWS: [usize; 2] = [8, 32];

/// One pipelined pass from cold caches: the whole mix is submitted up
/// front, so reported latency includes the admission-queue wait beyond
/// the window — the tail a client at this offered load observes.
fn cell<B: Backend>(
    world: &PubWorld,
    queries: &[String],
    dist: &str,
    window: usize,
    (cache, cache_capacity): (&str, usize),
) -> Row {
    let cfg = B::config()
        .with_stats_refresh(SimTime::from_secs(1_000_000_000))
        .with_max_in_flight(window)
        .with_result_cache(cache_capacity);
    let mut cluster = UniCluster::<B>::build_overlay(16, cfg, SEED);
    cluster.load(world.all_tuples());
    let n = cluster.net.len() as u32;
    let t0 = cluster.net.now();
    for (i, q) in queries.iter().enumerate() {
        cluster.query_submit(NodeId(i as u32 % n), q).expect("query parses");
    }
    let outcomes = cluster.query_wait_all();
    let mut lat: Vec<f64> = Vec::with_capacity(outcomes.len());
    for (i, (_, out)) in outcomes.into_iter().enumerate() {
        assert!(out.ok, "concurrency bench query {i} timed out");
        lat.push(out.cost.latency.as_micros() as f64 / 1000.0);
    }
    let elapsed = (cluster.net.now().saturating_sub(t0)).as_micros() as f64 / 1e6;
    let (p50, _, p99) = latency_summary(&lat);
    let hits: u64 = (0..n).map(|i| cluster.net.node(NodeId(i)).cache_hits).sum();
    Row::new()
        .str("backend", B::LABEL)
        .str("dist", dist)
        .str("cache", cache)
        .int("window", window as u64)
        .int("queries", queries.len() as u64)
        .float("qps_sim", queries.len() as f64 / elapsed.max(1e-9), 1)
        .float("p50_ms", p50, 3)
        .float("p99_ms", p99, 3)
        .int("cache_hits", hits)
}

/// With the cache/replica read path on, the Zipf mix's p99 beats
/// cache-off at the same offered load, and actually hits the cache.
fn floors(rows: &[Row]) {
    println!();
    for backend in LABELS {
        for window in WINDOWS {
            let at_window: Vec<Row> =
                rows.iter().filter(|r| r.get_int("window") == window as u64).cloned().collect();
            let cell = |cache| {
                find(&at_window, &[("backend", backend), ("dist", "zipf1.5"), ("cache", cache)])
            };
            let (off, on) = (cell("off"), cell("on"));
            let (off_p99, on_p99) = (off.get_float("p99_ms"), on.get_float("p99_ms"));
            println!(
                "{backend} zipf w={window}: p99 {} -> {} ms, qps {} -> {}",
                f(off_p99),
                f(on_p99),
                f(off.get_float("qps_sim")),
                f(on.get_float("qps_sim"))
            );
            assert!(
                on_p99 < off_p99,
                "{backend} w={window}: Zipf p99 with the cache/replica read path \
                 ({on_p99:.3} ms) must beat cache-off ({off_p99:.3} ms) at the same offered load"
            );
            assert!(
                on.get_int("cache_hits") > 0,
                "{backend} w={window}: the Zipf mix must actually hit the result cache"
            );
        }
    }
}

/// Writes `BENCH_concurrency.json`.
pub fn snapshot() {
    let world = PubWorld::generate(
        &PubParams { n_authors: 40, n_conferences: 10, ..Default::default() },
        SEED,
    );
    let mut rows: Vec<Row> = Vec::new();
    for (dist, theta) in [("uniform", 0.0), ("zipf1.5", 1.5)] {
        let queries =
            unistore_workload::zipf_read_queries(&world, "published_in", N_QUERIES, theta, SEED);
        for window in WINDOWS {
            for cache in [("off", 0usize), ("on", 64)] {
                rows.extend(both_backends!(cell(&world, &queries, dist, window, cache)));
            }
        }
    }
    emit(
        Path::new("BENCH_concurrency.json"),
        "Concurrency — pipelined reads vs offered load (16 nodes)",
        &rows,
        floors,
    );
}
