//! Staleness regression suite for the incremental statistics subsystem.
//!
//! A brand-new attribute inserted through the routed path must become
//! visible to the planners without any rebuild or restart: the write
//! origin folds the delta in immediately, every other node converges
//! after one stats-refresh tick, and in the meantime the unknown-attr
//! floor keeps ghost-attribute plans from looking free. Verified on
//! BOTH overlay backends, in the simulator and the live runtime.

// The live-runtime halves of this suite genuinely wait on real time.
#![allow(clippy::disallowed_methods)]

use std::time::Duration;

use unistore::backends::{chord_config, ChordLiveCluster, ChordUniCluster};
use unistore::live::LiveCluster;
use unistore::{UniCluster, UniConfig};
use unistore_overlay::Overlay;
use unistore_simnet::{NodeId, SimTime};
use unistore_store::{Triple, Tuple, Value};
use unistore_workload::{PubParams, PubWorld};

const STATS_TICK: SimTime = SimTime::from_secs(2);

fn base_world(seed: u64) -> Vec<Tuple> {
    PubWorld::generate(&PubParams { n_authors: 20, n_conferences: 6, ..Default::default() }, seed)
        .all_tuples()
}

/// Routed inserts of a never-seen attribute: the driver's master model
/// absorbs the delta at once, the origin node on message receipt, and
/// every remaining node within one dissemination tick — no rescans, no
/// restarts.
fn run_simulated<O: Overlay<Item = Triple>>(mut cluster: UniCluster<O>, backend: &str) {
    cluster.load(base_world(77));
    assert!(
        !cluster.cost_model().unwrap().stats.attrs.contains_key("rating"),
        "{backend}: world must not know the attribute yet"
    );
    let origin = NodeId(3);
    for i in 0..5u32 {
        let tuple = Tuple::new(&format!("item{i}")).with("rating", Value::Int(1 + (i % 3) as i64));
        let (ok, _) = cluster.insert_tuple(origin, &tuple);
        assert!(ok, "{backend}: routed insert {i} must be acked");
    }

    // Driver master model: fresh immediately (it fed the oracle too).
    let master = cluster.cost_model().unwrap();
    let rating = master.stats.attrs.get("rating").expect("master learned the attribute");
    assert_eq!(rating.count, 5.0, "{backend}: master count");
    assert_eq!(rating.distinct, 3.0, "{backend}: master distinct");

    // Origin node: fresh as soon as the in-band delta delivers.
    cluster.settle(SimTime::from_millis(10));
    let origin_stats = cluster.net.node(origin).cost_model().expect("model distributed");
    assert_eq!(
        origin_stats.stats.attrs.get("rating").map(|a| a.count),
        Some(5.0),
        "{backend}: origin node must fold the write delta in without restart"
    );

    // Query through the routed path: oracle-identical rows, and the
    // planner's strategy choice is driven by the post-insert statistics
    // (an exact-match lookup on a now-known attribute), not by a
    // zero-cost ghost-attribute estimate.
    let q = "SELECT ?x WHERE {(?x,'rating',2)}";
    let expected = {
        let mut oracle = cluster.oracle();
        let mut rows: Vec<String> =
            oracle.query(q).unwrap().rows.iter().map(|r| format!("{r:?}")).collect();
        rows.sort();
        rows
    };
    assert!(!expected.is_empty(), "{backend}: the oracle sees the inserted facts");
    let out = cluster.query(origin, q).unwrap();
    assert!(out.ok, "{backend}: query over the fresh attribute answers");
    let mut got: Vec<String> = out.relation.rows.iter().map(|r| format!("{r:?}")).collect();
    got.sort();
    assert_eq!(got, expected, "{backend}: distributed result diverged from oracle");
    let traces = cluster.take_traces();
    let decision = traces
        .iter()
        .find(|d| d.pattern.contains("rating"))
        .expect("the rating scan was planned somewhere");
    assert_eq!(
        decision.choice, "av-lookup",
        "{backend}: planner must price the fresh attribute as an exact lookup"
    );

    // Every other node converges within one dissemination tick.
    cluster.settle(STATS_TICK + SimTime::from_secs(1));
    for peer in 0..cluster.net.len() {
        let stats = cluster.net.node(NodeId(peer as u32)).cost_model().unwrap();
        assert_eq!(
            stats.stats.attrs.get("rating").map(|a| a.count),
            Some(5.0),
            "{backend}: node {peer} must observe the post-insert statistics after the tick"
        );
    }
}

#[test]
fn simulated_pgrid_nodes_observe_runtime_inserts() {
    let cfg = UniConfig::default().with_stats_refresh(STATS_TICK);
    run_simulated(UniCluster::build(16, cfg, 31), "p-grid");
}

#[test]
fn simulated_chord_nodes_observe_runtime_inserts() {
    let cfg = chord_config().with_stats_refresh(STATS_TICK);
    run_simulated(ChordUniCluster::build_overlay(16, cfg, 32), "chord");
}

/// A full rebuild (second bulk load) already contains every routed
/// write; deltas still buffered or in flight from before the rebuild
/// carry the old epoch and must be dropped, never double-counted.
#[test]
fn rebuild_discards_stale_in_flight_deltas() {
    let cfg = UniConfig::default().with_stats_refresh(STATS_TICK);
    let mut cluster = UniCluster::build(16, cfg, 35);
    cluster.load(base_world(80));
    // The routed write leaves its injected StatsDelta undelivered (the
    // driver does not step the network between operations).
    let (ok, _) = cluster.insert_tuple(NodeId(3), &Tuple::new("x1").with("rating", Value::Int(5)));
    assert!(ok);
    // Second bulk load: full rebuild, new epoch; x1 is in the rebuild.
    cluster.load(vec![Tuple::new("x2").with("rating", Value::Int(7))]);
    // Deliver everything stale and run a dissemination tick.
    cluster.settle(STATS_TICK + SimTime::from_secs(1));
    assert_eq!(
        cluster.cost_model().unwrap().stats.attrs.get("rating").map(|a| a.count),
        Some(2.0),
        "master model must count each write exactly once"
    );
    for peer in 0..cluster.net.len() {
        let stats = cluster.net.node(NodeId(peer as u32)).cost_model().unwrap();
        assert_eq!(
            stats.stats.attrs.get("rating").map(|a| a.count),
            Some(2.0),
            "node {peer} double-counted a stale pre-rebuild delta"
        );
    }
}

/// The live threaded runtime: runtime inserts reach the origin's model
/// in-band, remote nodes converge on the wall-clock stats tick, and the
/// inserted facts answer queries — all without restarting anything.
fn run_live<O: Overlay<Item = Triple>>(mut live: LiveCluster<O>, backend: &str) {
    let origin = NodeId(0);
    let tuple = Tuple::new("m1").with("rating", Value::Int(5)).with("stars", Value::Int(4));
    assert!(
        live.insert_tuple(origin, &tuple, Duration::from_secs(20)),
        "{backend}: live routed insert must be acked"
    );

    // The origin folds the delta in on receipt.
    let (_, attrs) = live.stats_probe(origin, Duration::from_secs(5)).expect("probe answers");
    assert_eq!(
        attrs.iter().find(|(a, _)| a.as_ref() == "rating").map(|(_, c)| *c),
        Some(1.0),
        "{backend}: origin must observe the runtime insert immediately"
    );

    // The inserted facts answer queries from any node.
    let rel = live
        .query(NodeId(1), "SELECT ?x WHERE {(?x,'rating',5)}", Duration::from_secs(20))
        .expect("parses")
        .expect("answers within deadline");
    assert_eq!(rel.rows, vec![vec![Value::str("m1")]]);

    // A remote node converges without restart once the tick fires.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let fresh = live
            .stats_probe(NodeId(2), Duration::from_secs(5))
            .and_then(|(_, attrs)| attrs.iter().find(|(a, _)| a.as_ref() == "rating").cloned());
        if fresh.is_some() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "{backend}: remote node never converged to the fresh statistics"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    live.shutdown();
}

#[test]
fn live_pgrid_nodes_observe_runtime_inserts() {
    let cfg = UniConfig::default().with_stats_refresh(SimTime::from_millis(100));
    run_live(LiveCluster::start(4, cfg, base_world(78), 33), "p-grid");
}

#[test]
fn live_chord_nodes_observe_runtime_inserts() {
    let cfg = chord_config().with_stats_refresh(SimTime::from_millis(100));
    run_live(ChordLiveCluster::start_overlay(4, cfg, base_world(79), 34), "chord");
}

/// Both runtimes start from one bulk load: for the same tuples and seed,
/// every live node's statistics summary is the simulated cluster's.
fn live_starts_from_the_simulated_load<O: Overlay<Item = Triple>>(
    mut sim: UniCluster<O>,
    mut live: LiveCluster<O>,
    backend: &str,
) {
    sim.load(base_world(81));
    let model = sim.cost_model().expect("loaded");
    let mut attrs: Vec<_> = model.stats.attrs.iter().map(|(a, s)| (a.clone(), s.count)).collect();
    attrs.sort_by(|a, b| a.0.cmp(&b.0));
    for node in 0..live.len() {
        let probe = live.stats_probe(NodeId(node as u32), Duration::from_secs(5));
        assert_eq!(
            probe,
            Some((model.stats.total, attrs.clone())),
            "{backend}: live node {node} loaded other statistics"
        );
    }
    live.shutdown();
}

#[test]
fn live_and_simulated_loads_agree_pgrid() {
    let cfg = UniConfig::default();
    let live = LiveCluster::start(4, cfg.clone(), base_world(81), 36);
    live_starts_from_the_simulated_load(UniCluster::build(4, cfg, 36), live, "p-grid");
}

#[test]
fn live_and_simulated_loads_agree_chord() {
    let cfg = chord_config();
    let live = ChordLiveCluster::start_overlay(4, cfg.clone(), base_world(81), 37);
    live_starts_from_the_simulated_load(ChordUniCluster::build_overlay(4, cfg, 37), live, "chord");
}
