//! Concurrent query pipeline: the driver must sustain a window of
//! in-flight queries (admission backpressure, qid-keyed completion
//! routing) and still produce exactly the rows serial execution
//! produces — on both overlay backends, in the simulator and in the
//! live threaded runtime. Also covers the hot-key read path: the
//! node-local result cache must serve repeats and be invalidated by
//! the epoch-stamped stats-delta stream within one dissemination tick.

// The live-runtime tests time out against real wall-clock deadlines.
#![allow(clippy::disallowed_methods)]

use std::time::Duration;

use unistore::backends::{chord_config, ChordUniCluster};
use unistore::live::LiveCluster;
use unistore::{UniCluster, UniConfig};
use unistore_overlay::Overlay;
use unistore_simnet::churn::{install_churn, ChurnConfig};
use unistore_simnet::{NodeId, SimTime};
use unistore_store::{Triple, Tuple, Value};
use unistore_workload::{zipf_read_queries, PubParams, PubWorld};

/// Canonical form: project columns in name order, sort rows.
fn normalize(rel: &unistore_query::Relation) -> Vec<Vec<String>> {
    let mut order: Vec<usize> = (0..rel.schema.len()).collect();
    order.sort_by_key(|&i| rel.schema[i].clone());
    let mut rows: Vec<Vec<String>> = rel
        .rows
        .iter()
        .map(|r| {
            order
                .iter()
                .map(|&i| match &r[i] {
                    v @ (Value::Int(_) | Value::Float(_)) => format!("{}", v.as_f64().unwrap()),
                    Value::Str(s) => format!("'{s}'"),
                })
                .collect()
        })
        .collect();
    rows.sort();
    rows
}

fn world(seed: u64) -> PubWorld {
    PubWorld::generate(&PubParams { n_authors: 40, n_conferences: 10, ..Default::default() }, seed)
}

/// A Zipf-skewed read mix (hot conference values dominate) plus a few
/// structurally heavier queries so completions genuinely interleave.
fn query_mix(w: &PubWorld) -> Vec<String> {
    let mut qs = zipf_read_queries(w, "published_in", 36, 1.5, 9);
    qs.push("SELECT ?n,?t WHERE {(?a,'name',?n) (?a,'has_published',?t)}".into());
    qs.push("SELECT ?n,?g WHERE {(?a,'name',?n) (?a,'age',?g) FILTER ?g >= 30 AND ?g < 45}".into());
    qs.push(
        "SELECT ?n,?conf WHERE {(?a,'name',?n) (?a,'has_published',?t)
         (?p,'title',?t) (?p,'published_in',?conf)}"
            .into(),
    );
    qs.push("SELECT ?c WHERE {(?x,'confname',?c)}".into());
    qs
}

/// The oracle bar for the pipelined driver: submit the whole mix into
/// the admission window, verify the window actually fills to
/// `max_in_flight`, and require every outcome to equal both the serial
/// run and the local reference engine.
fn run_pipelined_matches_serial<O: Overlay<Item = Triple>>(
    mut cluster: UniCluster<O>,
    backend: &str,
) {
    let w = world(91);
    cluster.load(w.all_tuples());
    let queries = query_mix(&w);
    let n = cluster.net.len() as u32;

    let mut oracle = cluster.oracle();
    let expected: Vec<Vec<Vec<String>>> =
        queries.iter().map(|q| normalize(&oracle.query(q).expect("oracle parses"))).collect();

    // Serial pass.
    for (i, q) in queries.iter().enumerate() {
        let out = cluster.query(NodeId(i as u32 % n), q).expect("parses");
        assert!(out.ok, "{backend}: serial query {i} timed out: {q}");
        assert_eq!(normalize(&out.relation), expected[i], "{backend}: serial vs oracle: {q}");
    }

    // Pipelined pass: same queries, same origins, all submitted before
    // any is waited on.
    let qids: Vec<u64> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| cluster.query_submit(NodeId(i as u32 % n), q).expect("parses"))
        .collect();
    assert_eq!(
        cluster.in_flight_len(),
        32,
        "{backend}: the admission window must hold 32 queries in flight"
    );
    let outcomes = cluster.query_wait_all();
    assert_eq!(outcomes.len(), queries.len(), "{backend}: every submission resolves");
    for ((i, qid), (done_qid, out)) in qids.iter().copied().enumerate().zip(outcomes) {
        assert_eq!(qid, done_qid, "{backend}: outcomes arrive in submission order");
        assert!(out.ok, "{backend}: pipelined query {i} timed out: {}", queries[i]);
        assert_eq!(
            normalize(&out.relation),
            expected[i],
            "{backend}: pipelined diverged from serial on query {i}: {}",
            queries[i]
        );
    }
}

/// Churn and the pipelined window together: a full 32-deep
/// `query_submit` window rides over an active churn schedule. Every
/// submission must resolve (no stuck qids — the driver withdraws any
/// query whose deadline budget lapses), the window must drain, and
/// queue-inclusive latency stays within `bound` even for submissions
/// that waited behind the window: one budget of queue wait (the
/// blocking head-of-window query is withdrawn at its budget at the
/// latest) plus one budget in flight.
fn run_pipeline_under_churn<O: Overlay<Item = Triple>>(
    mut cluster: UniCluster<O>,
    bound: SimTime,
    backend: &str,
) {
    let w = world(77);
    cluster.load(w.all_tuples());
    let n = cluster.net.len() as u32;

    let mut rng = unistore_util::rng::derive_rng(77, unistore_util::rng::stream::CHURN);
    let churn = ChurnConfig {
        mean_session: SimTime::from_secs(120),
        mean_downtime: SimTime::from_secs(30),
        churn_fraction: 0.4,
    };
    install_churn(&mut cluster.net, &mut rng, &churn, SimTime::from_secs(1_800));
    cluster.settle(SimTime::from_secs(90)); // churn in full swing

    let queries = query_mix(&w); // 40 submissions > the 32-slot window
    let qids: Vec<u64> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let origin = (0..n)
                .map(|k| NodeId((i as u32 + k) % n))
                .find(|&o| cluster.net.is_up(o))
                .expect("some peer is up");
            cluster.query_submit(origin, q).expect("parses")
        })
        .collect();
    assert_eq!(cluster.in_flight_len(), 32, "{backend}: window must fill under churn");

    let outcomes = cluster.query_wait_all();
    assert_eq!(
        outcomes.len(),
        queries.len(),
        "{backend}: every submission resolves — no stuck qids"
    );
    assert_eq!(cluster.in_flight_len(), 0, "{backend}: the window drains completely");
    let mut ok = 0u32;
    for (i, (qid, out)) in outcomes.iter().enumerate() {
        assert_eq!(*qid, qids[i], "{backend}: outcomes arrive in submission order");
        assert!(
            out.cost.latency <= bound,
            "{backend}: query {i} queue-inclusive latency {:?} exceeds bound {bound:?}",
            out.cost.latency
        );
        ok += out.ok as u32;
    }
    assert!(
        ok as usize * 4 >= queries.len(),
        "{backend}: under churn at least a quarter of the window must still answer \
         ({ok}/{})",
        queries.len()
    );
}

#[test]
fn pipeline_under_churn_pgrid() {
    let mut cfg = UniConfig::default()
        .with_replication(3)
        .with_maintenance(SimTime::from_secs(5), SimTime::from_secs(10))
        .with_max_in_flight(32)
        .with_query_retries(1);
    cfg.overlay.refs_per_level = 4;
    cfg.query_timeout = SimTime::from_secs(30);
    cfg.overlay.query_timeout = SimTime::from_secs(8);
    // budget = query_timeout × (retries + 2) = 90 s; bound = 2 × budget.
    run_pipeline_under_churn(UniCluster::build(24, cfg, 77), SimTime::from_secs(180), "p-grid");
}

#[test]
fn pipeline_under_churn_chord() {
    let mut cfg = chord_config().with_max_in_flight(32).with_query_retries(1);
    cfg.query_timeout = SimTime::from_secs(30);
    cfg.overlay.replicate = true;
    cfg.overlay.anti_entropy_interval = SimTime::from_secs(30);
    cfg.overlay.query_timeout = SimTime::from_secs(8);
    run_pipeline_under_churn(
        ChordUniCluster::build_overlay(24, cfg, 77),
        SimTime::from_secs(180),
        "chord",
    );
}

#[test]
fn pipelined_matches_serial_pgrid() {
    let cfg = UniConfig::default().with_max_in_flight(32);
    run_pipelined_matches_serial(UniCluster::build(16, cfg, 91), "p-grid");
}

#[test]
fn pipelined_matches_serial_chord() {
    let cfg = chord_config().with_max_in_flight(32);
    run_pipelined_matches_serial(ChordUniCluster::build_overlay(16, cfg, 91), "chord");
}

/// Regression for the live runtime's event loop: with two overlapping
/// queries, the completion of the one *not* currently being waited on
/// used to be read off the shared channel and dropped, leaving its
/// waiter to time out. It must be buffered and re-delivered instead —
/// in both wait orders.
#[test]
fn live_overlapping_completions_are_buffered_not_dropped() {
    let w = world(92);
    let mut live = LiveCluster::start(4, UniConfig::default(), w.all_tuples(), 92);
    let heavy = "SELECT ?n,?conf WHERE {(?a,'name',?n) (?a,'has_published',?t)
                 (?p,'title',?t) (?p,'published_in',?conf)}";
    let cheap = "SELECT ?a WHERE {(?a,'name','alice-0')}";
    let t = Duration::from_secs(30);

    let expect_heavy = normalize(&live.query(NodeId(0), heavy, t).unwrap().expect("serial heavy"));
    let expect_cheap = normalize(&live.query(NodeId(1), cheap, t).unwrap().expect("serial cheap"));
    assert!(!expect_cheap.is_empty(), "alice-0 exists in this world");

    // Wait the heavy one first: the cheap completion lands mid-wait
    // and must survive buffered.
    let qa = live.query_submit(NodeId(0), heavy, t).unwrap();
    let qb = live.query_submit(NodeId(1), cheap, t).unwrap();
    let ra = live.query_wait(qa).expect("heavy answers");
    let rb = live.query_wait(qb).expect("cheap answers after being buffered");
    assert_eq!(normalize(&ra), expect_heavy, "heavy rows (wait heavy first)");
    assert_eq!(normalize(&rb), expect_cheap, "cheap rows (wait heavy first)");

    // And the reverse order: the heavy completion may arrive while
    // waiting on the cheap one during a later submission round.
    let qa = live.query_submit(NodeId(0), heavy, t).unwrap();
    let qb = live.query_submit(NodeId(1), cheap, t).unwrap();
    let rb = live.query_wait(qb).expect("cheap answers");
    let ra = live.query_wait(qa).expect("heavy answers");
    assert_eq!(normalize(&ra), expect_heavy, "heavy rows (wait cheap first)");
    assert_eq!(normalize(&rb), expect_cheap, "cheap rows (wait cheap first)");

    // A full pipelined window for good measure: everything resolves.
    let queries = zipf_read_queries(&w, "published_in", 8, 1.2, 13);
    let mut expect = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        expect.push(normalize(&live.query(NodeId(i as u32 % 4), q, t).unwrap().expect("serial")));
    }
    let qids: Vec<u64> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| live.query_submit(NodeId(i as u32 % 4), q, t).unwrap())
        .collect();
    let outcomes = live.query_wait_all();
    assert_eq!(outcomes.len(), qids.len());
    for ((i, qid), (done_qid, rel)) in qids.iter().copied().enumerate().zip(outcomes) {
        assert_eq!(qid, done_qid);
        let rel = rel.unwrap_or_else(|| panic!("pipelined live query {i} timed out"));
        assert_eq!(normalize(&rel), expect[i], "live pipelined diverged on query {i}");
    }
    live.shutdown();
}

/// An already-expired deadline must return a clean timeout immediately
/// (the old code fed `remaining == 0` into `recv_timeout` and could
/// spin); and a timed-out waiter must not poison later queries.
#[test]
fn live_zero_remaining_budget_times_out_cleanly() {
    let w = world(93);
    let mut live = LiveCluster::start(4, UniConfig::default(), w.all_tuples(), 93);
    let q = "SELECT ?n WHERE {(?a,'name',?n)}";
    let started = std::time::Instant::now();
    let out = live.query(NodeId(0), q, Duration::ZERO).expect("parses");
    assert!(out.is_none(), "zero budget cannot answer");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "zero-budget query must fail fast, not busy-loop"
    );
    // The runtime still answers afterwards (the stale completion of the
    // zero-budget query is dropped, not delivered to this waiter).
    let rel = live.query(NodeId(1), q, Duration::from_secs(30)).unwrap().expect("answers");
    assert_eq!(rel.len(), 40, "all authors, no cross-talk from the timed-out query");
    live.shutdown();
}

const STATS_TICK: SimTime = SimTime::from_secs(2);

/// The hot-key result cache: repeats served node-locally, and a routed
/// write from *another* node invalidates cached entries within one
/// stats-dissemination tick; a write at the caching origin itself
/// invalidates immediately via the in-band delta.
fn run_cache_invalidation<O: Overlay<Item = Triple>>(mut cluster: UniCluster<O>, backend: &str) {
    cluster.load(world(94).all_tuples());
    for i in 0..3u32 {
        let t = Tuple::new(&format!("item{i}")).with("rating", Value::Int(2));
        let (ok, _) = cluster.insert_tuple(NodeId(5), &t);
        assert!(ok, "{backend}: seed insert {i} acked");
    }
    cluster.settle(STATS_TICK + SimTime::from_secs(1));

    let q = "SELECT ?x WHERE {(?x,'rating',2)}";
    let reader = NodeId(1);
    let first = cluster.query(reader, q).expect("parses");
    assert!(first.ok, "{backend}: first read answers");
    assert_eq!(first.relation.len(), 3, "{backend}: three seeded items");
    let repeat = cluster.query(reader, q).expect("parses");
    assert_eq!(
        normalize(&repeat.relation),
        normalize(&first.relation),
        "{backend}: cached repeat must equal the first read"
    );
    let hits: u64 =
        (0..cluster.net.len()).map(|i| cluster.net.node(NodeId(i as u32)).cache_hits).sum();
    assert!(hits > 0, "{backend}: the repeat must be served from the result cache");

    // Routed write from a different node: the reader's cached entry
    // goes stale and must be dropped once the writer's stats tick
    // disseminates the delta.
    let (ok, _) =
        cluster.insert_tuple(NodeId(9), &Tuple::new("item3").with("rating", Value::Int(2)));
    assert!(ok, "{backend}: remote write acked");
    cluster.settle(STATS_TICK + SimTime::from_secs(1));
    let fresh = cluster.query(reader, q).expect("parses");
    assert!(fresh.ok, "{backend}: post-write read answers");
    assert_eq!(
        fresh.relation.len(),
        4,
        "{backend}: a cached read after a routed write must see the new row within one tick"
    );

    // Write at the caching node itself: the in-band delta invalidates
    // without waiting for a tick.
    let warm = cluster.query(reader, q).expect("parses");
    assert_eq!(warm.relation.len(), 4, "{backend}: warm the cache again");
    let (ok, _) = cluster.insert_tuple(reader, &Tuple::new("item4").with("rating", Value::Int(2)));
    assert!(ok, "{backend}: origin write acked");
    cluster.settle(SimTime::from_millis(10));
    let fresh = cluster.query(reader, q).expect("parses");
    assert_eq!(
        fresh.relation.len(),
        5,
        "{backend}: the write origin invalidates its own cache immediately"
    );
}

#[test]
fn cache_invalidation_pgrid() {
    let cfg = UniConfig::default().with_result_cache(64).with_stats_refresh(STATS_TICK);
    run_cache_invalidation(UniCluster::build(16, cfg, 94), "p-grid");
}

#[test]
fn cache_invalidation_chord() {
    let cfg = chord_config().with_result_cache(64).with_stats_refresh(STATS_TICK);
    run_cache_invalidation(ChordUniCluster::build_overlay(16, cfg, 94), "chord");
}

/// Under message loss the origin re-dispatches timed-out plans; the
/// superseded attempt's results still arrive later. Attempt stamping at
/// the node plus the driver's in-flight table must drop those stale
/// completions: every delivered outcome is oracle-exact, and a second
/// clean wave sees no cross-talk from first-wave retries.
#[test]
fn stale_retry_completions_never_corrupt_results() {
    let w = world(95);
    let mut cfg = UniConfig::default().with_max_in_flight(16);
    cfg.query_timeout = SimTime::from_secs(30);
    cfg.overlay.query_timeout = SimTime::from_secs(8);
    let mut cluster = UniCluster::build(16, cfg, 95);
    cluster.load(w.all_tuples());
    let queries = zipf_read_queries(&w, "published_in", 20, 1.2, 17);
    let mut oracle = cluster.oracle();
    let expected: Vec<Vec<Vec<String>>> =
        queries.iter().map(|q| normalize(&oracle.query(q).unwrap())).collect();

    cluster.net.set_loss_rate(0.03);
    let qids: Vec<u64> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| cluster.query_submit(NodeId(i as u32 % 16), q).unwrap())
        .collect();
    let outcomes = cluster.query_wait_all();
    let mut ok_count = 0usize;
    for ((i, qid), (done_qid, out)) in qids.iter().copied().enumerate().zip(outcomes) {
        assert_eq!(qid, done_qid);
        if out.ok {
            ok_count += 1;
            assert_eq!(
                normalize(&out.relation),
                expected[i],
                "lossy query {i}: a delivered result must still be exact: {}",
                queries[i]
            );
        }
    }
    assert!(ok_count >= 15, "3% loss with retries should answer most queries ({ok_count}/20)");

    // Clean second wave: any straggler completions from superseded
    // first-wave attempts must be dropped, not delivered here.
    cluster.net.set_loss_rate(0.0);
    for (i, q) in queries.iter().enumerate() {
        let out = cluster.query(NodeId(i as u32 % 16), q).expect("parses");
        assert!(out.ok, "clean wave query {i} answers");
        assert_eq!(normalize(&out.relation), expected[i], "clean wave query {i} exact");
    }
}
