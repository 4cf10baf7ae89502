//! End-to-end scenarios across the full stack: protocol inserts,
//! updates, optimizer behaviour, mutant-plan travel, the live threaded
//! runtime.

use std::time::Duration;

use unistore::config::ScanPref;
use unistore::{PlanMode, UniCluster, UniConfig};
use unistore_query::JoinStrategy;
use unistore_simnet::{NodeId, SimTime};
use unistore_store::index::{attr_value_key, oid_key};
use unistore_store::{Oid, Triple, Tuple, Value};
use unistore_workload::{PubParams, PubWorld};

fn small_world(seed: u64) -> Vec<Tuple> {
    PubWorld::generate(&PubParams { n_authors: 25, n_conferences: 8, ..Default::default() }, seed)
        .all_tuples()
}

#[test]
fn protocol_insert_then_query() {
    let mut cluster = UniCluster::build(16, UniConfig::default(), 1);
    cluster.load(small_world(1));
    // Insert a brand-new author over the routed protocol path.
    let tuple = Tuple::new("auth-new").with("name", Value::str("zed")).with("age", Value::Int(29));
    let (ok, cost) = cluster.insert_tuple(NodeId(2), &tuple);
    assert!(ok, "protocol insert must be acked");
    assert!(cost.messages > 0, "inserts traverse the overlay");
    assert!(cost.hops > 0, "write-path cost must report the real routed hop count");
    let out =
        cluster.query(NodeId(9), "SELECT ?g WHERE {(?a,'name','zed') (?a,'age',?g)}").unwrap();
    assert!(out.ok);
    assert_eq!(out.relation.rows, vec![vec![Value::Int(29)]]);
}

#[test]
fn protocol_delete_removes_fact_from_every_index() {
    let mut cluster = UniCluster::build(16, UniConfig::default(), 21);
    cluster.load(small_world(21));
    let old = Triple::new("auth0", "age", {
        let mut o = cluster.oracle();
        let r = o.query("SELECT ?g WHERE {('auth0','age',?g)}").unwrap();
        r.rows[0][0].clone()
    });
    assert!(cluster.delete(NodeId(4), &old, 1));
    let out = cluster.query(NodeId(5), "SELECT ?g WHERE {('auth0','age',?g)}").unwrap();
    assert!(out.ok);
    assert!(out.relation.rows.is_empty(), "deleted fact must vanish from the OID index");
    let old_val = old.value.as_f64().unwrap() as i64;
    let out =
        cluster.query(NodeId(7), &format!("SELECT ?x WHERE {{(?x,'age',{old_val})}}")).unwrap();
    assert!(
        !out.relation.rows.iter().any(|r| r[0] == Value::str("auth0")),
        "deleted fact must vanish from the A#v index"
    );
    // The driver view (and thus the oracle) shed the triple too.
    assert!(!cluster
        .triples()
        .iter()
        .any(|t| t.oid.as_str() == "auth0" && t.attr.as_ref() == "age"));
}

#[test]
fn update_supersedes_old_value_in_all_indexes() {
    let mut cluster = UniCluster::build(16, UniConfig::default(), 2);
    cluster.load(small_world(2));
    let old = Triple::new("auth0", "age", {
        // Read the current age through the oracle.
        let mut o = cluster.oracle();
        let r = o.query("SELECT ?g WHERE {('auth0','age',?g)}").unwrap();
        r.rows[0][0].clone()
    });
    assert!(cluster.update(NodeId(3), &old, Value::Int(99), 1));
    // New value visible via the OID index…
    let out = cluster.query(NodeId(5), "SELECT ?g WHERE {('auth0','age',?g)}").unwrap();
    assert_eq!(out.relation.rows, vec![vec![Value::Int(99)]]);
    // …and via the A#v index; the old entry is gone.
    let out = cluster.query(NodeId(7), "SELECT ?a WHERE {(?a,'age',99)}").unwrap();
    assert_eq!(out.relation.len(), 1);
    let old_val = old.value.as_f64().unwrap() as i64;
    let out =
        cluster.query(NodeId(7), &format!("SELECT ?x WHERE {{(?x,'age',{old_val})}}")).unwrap();
    assert!(
        !out.relation.rows.iter().any(|r| r[0] == Value::str("auth0")),
        "stale A#v entry must be deleted"
    );
}

#[test]
fn raw_storage_lookup_by_each_index() {
    let mut cluster = UniCluster::build(16, UniConfig::default(), 3);
    cluster.load(small_world(3));
    // OID index: all triples of one logical tuple (paper Fig. 2).
    let (items, cost) = cluster.raw_lookup(NodeId(0), oid_key(&Oid::new("auth1")));
    assert!(items.len() >= 4, "auth1 has at least 4 attributes, got {}", items.len());
    assert!(items.iter().all(|t| t.oid.as_str() == "auth1"));
    assert!(cost.hops as f64 <= (cluster.net.len() as f64).log2() + 1.0);
    // A#v index: exact (attr, value).
    let age = items
        .iter()
        .find(|t| t.attr.as_ref() == "age")
        .map(|t| t.value.clone())
        .expect("age attribute");
    let (items2, _) = cluster.raw_lookup(NodeId(4), attr_value_key("age", &age));
    assert!(items2.iter().any(|t| t.oid.as_str() == "auth1"));
}

#[test]
fn forced_strategies_agree_on_results_but_not_cost() {
    // Paper §4: "execute identical queries sequentially while
    // influencing the integrated optimizer … different performance
    // results".
    let world = small_world(4);
    let q = "SELECT ?s WHERE {(?c,'series',?s) FILTER edist(?s,'ICDE')<2}";
    let mut results = Vec::new();
    for pref in [ScanPref::QGram, ScanPref::NaiveSimilarity] {
        let mut cluster = UniCluster::build(32, UniConfig::default(), 4);
        cluster.load(world.clone());
        cluster.set_plan_mode(PlanMode { scan_pref: Some(pref), ..Default::default() });
        let out = cluster.query(NodeId(1), q).unwrap();
        assert!(out.ok);
        let traces = cluster.take_traces();
        assert!(!traces.is_empty());
        results.push((normalize_strings(&out.relation), out.cost.messages, traces));
    }
    assert_eq!(results[0].0, results[1].0, "identical answers under both plans");
    assert_ne!(results[0].1, results[1].1, "different plans, different message cost");
    // The forced choices really were taken.
    assert!(results[0].2.iter().any(|d| d.choice == "qgram"));
    assert!(results[1].2.iter().any(|d| d.choice.starts_with("av-range")));
}

#[test]
fn optimizer_choice_is_never_worse_than_both_forced_plans_much() {
    let world = small_world(5);
    let q = "SELECT ?s WHERE {(?c,'series',?s) FILTER edist(?s,'ICDE')<2}";
    let run = |pref: Option<ScanPref>| {
        let mut cluster = UniCluster::build(32, UniConfig::default(), 5);
        cluster.load(world.clone());
        cluster.set_plan_mode(PlanMode { scan_pref: pref, ..Default::default() });
        cluster.query(NodeId(1), q).unwrap().cost.messages
    };
    let auto = run(None);
    let a = run(Some(ScanPref::QGram));
    let b = run(Some(ScanPref::NaiveSimilarity));
    assert!(
        auto <= a.max(b),
        "cost-based choice ({auto}) must not exceed the worse forced plan ({})",
        a.max(b)
    );
}

#[test]
fn fetch_join_vs_collect_join() {
    let world = small_world(6);
    // Selective left side (one author) joining into publications: the
    // fetch join should win and be chosen by the optimizer.
    let q = "SELECT ?t,?conf WHERE {(?a,'name','alice-0') (?a,'has_published',?t)
             (?p,'title',?t) (?p,'published_in',?conf)}";
    let mut cluster = UniCluster::build(32, UniConfig::default(), 6);
    cluster.load(world.clone());
    let out_auto = cluster.query(NodeId(0), q).unwrap();
    let traces = cluster.take_traces();
    assert!(out_auto.ok);
    assert!(
        traces.iter().any(|d| d.choice == "fetch-join"),
        "selective join should fetch; trace: {traces:?}"
    );
    // Forcing collect gives the same rows.
    cluster
        .set_plan_mode(PlanMode { join_pref: Some(JoinStrategy::Collect), ..Default::default() });
    let out_collect = cluster.query(NodeId(0), q).unwrap();
    assert_eq!(normalize_strings(&out_auto.relation), normalize_strings(&out_collect.relation));
}

#[test]
fn mutant_plans_travel_unless_disabled() {
    let world = small_world(7);
    let q = "SELECT ?v WHERE {('auth3','age',?v)}";
    // Forwarding on: the plan routes to the OID leaf.
    let mut cluster = UniCluster::build(32, UniConfig::default(), 7);
    cluster.load(world.clone());
    let with_fwd = cluster.query(NodeId(1), q).unwrap();
    assert!(with_fwd.ok);
    // Forwarding off: same answer, executed from the origin.
    cluster.set_plan_mode(PlanMode { no_forward: true, ..Default::default() });
    let without = cluster.query(NodeId(1), q).unwrap();
    assert_eq!(normalize_strings(&with_fwd.relation), normalize_strings(&without.relation));
}

#[test]
fn query_timeout_reports_failure_not_hang() {
    let cfg = UniConfig { query_timeout: SimTime::from_secs(5), ..UniConfig::default() };
    let mut cluster = UniCluster::build(8, cfg, 8);
    cluster.load(small_world(8));
    // Partition the network: everything every peer sends is lost.
    cluster.net.set_loss_rate(1.0);
    let out = cluster.query(NodeId(0), "SELECT ?n WHERE {(?a,'name',?n)}").unwrap();
    assert!(!out.ok, "a partitioned query must time out, not succeed");
}

#[test]
fn live_threaded_runtime_answers_queries() {
    use unistore::live::LiveCluster;
    let tuples = vec![
        Tuple::new("p1").with("name", Value::str("alice")).with("age", Value::Int(30)),
        Tuple::new("p2").with("name", Value::str("bob")).with("age", Value::Int(40)),
        Tuple::new("p3").with("name", Value::str("carol")).with("age", Value::Int(50)),
    ];
    let mut live = LiveCluster::start(4, UniConfig::default(), tuples, 9);
    let rel = live
        .query(
            NodeId(0),
            "SELECT ?n WHERE {(?a,'name',?n) (?a,'age',?g) FILTER ?g >= 40}",
            Duration::from_secs(10),
        )
        .expect("parses")
        .expect("answers within deadline");
    assert_eq!(rel.len(), 2);
    live.shutdown();
}

#[test]
fn batched_insert_coalesces_messages_and_matches_the_oracle() {
    // A 16-tuple ingest through the batch pipeline: oracle-exact
    // observable state, a fraction of the messages a message per
    // (key, op) would cost, one aggregated completion per batch.
    let tuples: Vec<Tuple> = (0..16)
        .map(|i| {
            Tuple::new(&format!("batch-obj{i}"))
                .with("name", Value::str(&format!("batchy-{i}")))
                .with("age", Value::Int(20 + i))
        })
        .collect();
    let mut batched = UniCluster::build(16, UniConfig::default(), 31);
    batched.load(small_world(31));
    let (ok, cost_batched) = batched.insert_batch(NodeId(2), &tuples);
    assert!(ok, "batched insert must be fully acked");
    assert!(cost_batched.hops > 0, "batch completion reports real routed hops");
    // The retired per-op write path spent 712 messages on this ingest
    // (measured at PR 12); the batch must stay under a third of that.
    assert!(
        cost_batched.messages <= 237,
        "64-op batches must coalesce messages (got {})",
        cost_batched.messages
    );
    let mut oracle = batched.oracle();
    for q in [
        "SELECT ?n WHERE {(?a,'name',?n) (?a,'age',?g) FILTER ?g >= 30}",
        "SELECT ?g WHERE {('batch-obj3','age',?g)}",
    ] {
        let got = batched.query(NodeId(5), q).unwrap();
        assert!(got.ok);
        assert_eq!(
            normalize_strings(&got.relation),
            normalize_strings(&oracle.query(q).unwrap()),
            "batched load must agree with the oracle: {q}"
        );
    }
}

#[test]
fn same_value_update_is_a_deterministic_refresh() {
    // Updating a fact to its current value keeps the logical identity,
    // so delete+insert of one ident at one version would be
    // order-dependent across the batch's forks; the refresh path skips
    // the deletes and must leave the fact queryable.
    let mut cluster = UniCluster::build(16, UniConfig::default(), 78);
    cluster.load(small_world(78));
    let old_age = {
        let mut o = cluster.oracle();
        o.query("SELECT ?g WHERE {('auth0','age',?g)}").unwrap().rows[0][0].clone()
    };
    let old = Triple::new("auth0", "age", old_age.clone());
    assert!(cluster.update(NodeId(3), &old, old_age, 1));
    let out = cluster.query(NodeId(5), "SELECT ?g WHERE {('auth0','age',?g)}").unwrap();
    assert!(out.ok);
    assert_eq!(out.relation.rows.len(), 1, "same-value update must keep the fact queryable");
}

#[test]
fn live_runtime_batched_insert_then_query() {
    use unistore::live::LiveCluster;
    let base = vec![Tuple::new("p1").with("name", Value::str("alice")).with("age", Value::Int(30))];
    let mut live = LiveCluster::start(4, UniConfig::default(), base, 33);
    let newcomers: Vec<Tuple> = (0..4)
        .map(|i| {
            Tuple::new(&format!("n{i}"))
                .with("name", Value::str(&format!("newbie-{i}")))
                .with("age", Value::Int(60 + i))
        })
        .collect();
    assert!(
        live.insert_batch(NodeId(1), &newcomers, Duration::from_secs(20)),
        "live batched insert must be acked"
    );
    let rel = live
        .query(
            NodeId(0),
            "SELECT ?n WHERE {(?a,'name',?n) (?a,'age',?g) FILTER ?g >= 60}",
            Duration::from_secs(10),
        )
        .expect("parses")
        .expect("answers within deadline");
    assert_eq!(rel.len(), 4, "all batched tuples visible at runtime");
    live.shutdown();
}

#[test]
fn chord_backend_protocol_insert_update_and_query() {
    use unistore::backends::{chord_config, ChordUniCluster};
    // The routed write path over the ring backend: every insert pays
    // both indexes; updates delete the stale entries from both.
    let mut cluster = ChordUniCluster::build_overlay(16, chord_config(), 11);
    cluster.load(small_world(11));
    let tuple = Tuple::new("auth-new").with("name", Value::str("zed")).with("age", Value::Int(29));
    let (ok, cost) = cluster.insert_tuple(NodeId(2), &tuple);
    assert!(ok, "protocol insert must be acked");
    assert!(cost.messages > 0, "inserts traverse the ring");
    assert!(cost.hops > 0, "write-path cost must report the real routed hop count");
    let out =
        cluster.query(NodeId(9), "SELECT ?g WHERE {(?a,'name','zed') (?a,'age',?g)}").unwrap();
    assert!(out.ok);
    assert_eq!(out.relation.rows, vec![vec![Value::Int(29)]]);

    // Update through the protocol path supersedes every index entry.
    let old = Triple::new("auth-new", "age", Value::Int(29));
    assert!(cluster.update(NodeId(3), &old, Value::Int(99), 1));
    let out = cluster.query(NodeId(5), "SELECT ?g WHERE {('auth-new','age',?g)}").unwrap();
    assert_eq!(out.relation.rows, vec![vec![Value::Int(99)]]);
    let out = cluster.query(NodeId(7), "SELECT ?x WHERE {(?x,'age',29)}").unwrap();
    assert!(
        !out.relation.rows.iter().any(|r| r[0] == Value::str("auth-new")),
        "stale A#v entry must be deleted from the bucket index too"
    );
}

#[test]
fn live_threaded_runtime_answers_queries_over_chord() {
    use unistore::backends::{chord_config, ChordLiveCluster};
    let tuples = vec![
        Tuple::new("p1").with("name", Value::str("alice")).with("age", Value::Int(30)),
        Tuple::new("p2").with("name", Value::str("bob")).with("age", Value::Int(40)),
        Tuple::new("p3").with("name", Value::str("carol")).with("age", Value::Int(50)),
    ];
    let mut live = ChordLiveCluster::start_overlay(4, chord_config(), tuples, 12);
    let rel = live
        .query(
            NodeId(0),
            "SELECT ?n WHERE {(?a,'name',?n) (?a,'age',?g) FILTER ?g >= 40}",
            Duration::from_secs(10),
        )
        .expect("parses")
        .expect("answers within deadline");
    assert_eq!(rel.len(), 2);
    live.shutdown();
}

fn normalize_strings(rel: &unistore_query::Relation) -> Vec<String> {
    let mut v: Vec<String> = rel.rows.iter().map(|r| format!("{r:?}")).collect();
    v.sort();
    v
}
