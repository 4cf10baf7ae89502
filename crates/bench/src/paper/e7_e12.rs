//! E7–E10 and E12: q-gram similarity, the cost model's bounds, the
//! skyline query, update propagation, and bootstrap convergence. Churn
//! at 1024 peers (claim C2) is `BENCH_scale.json`'s (`crate::scale`).

use std::sync::Arc;

use unistore::config::ScanPref;
use unistore::{PlanMode, UniCluster, UniConfig};
use unistore_pgrid::PGridCluster;
use unistore_query::{RangeAlgo, ScanStrategy};
use unistore_simnet::{ConstantLatency, NodeId, SimTime};
use unistore_store::index::oid_key;
use unistore_store::{Oid, Triple, Tuple, Value};
use unistore_util::item::RawItem;
use unistore_workload::{PubParams, PubWorld};

use super::{quiet_pgrid, similarity_arms, spread_keys, table, SCAN_ARMS, SKYLINE};
use crate::backend::{Backend, SEED};
use crate::canon;
use crate::snapshot::Row;

/// The rows of E7–E10 and E12, in paper order.
pub(super) fn rows() -> Vec<Row> {
    [e7_qgram(), e7_stale_postings(), e8_costmodel(), e9_skyline(), e10_updates(), e12_bootstrap()]
        .concat()
}

/// The claims of E7–E10 and E12 over their rows. E7's stale-posting
/// table has none: nothing reclaims a stale posting yet (ROADMAP item 9),
/// so its bytes grow with every round of renames.
pub(super) fn floors(rows: &[Row]) {
    // Rows come in (qgram, naive) pairs, data size ascending.
    let bytes = |pair: &[&Row]| (pair[0].get_int("bytes"), pair[1].get_int("bytes"));
    let sizes: Vec<(u64, u64)> = table(rows, "e7-size").chunks(2).map(bytes).collect();
    assert!(
        sizes.iter().all(|(qgram, naive)| qgram < naive),
        "E7, the q-gram index scales: it ships fewer bytes than the naive sweep at every size"
    );
    let ratios: Vec<f64> =
        sizes.iter().map(|&(qgram, naive)| naive as f64 / qgram as f64).collect();
    assert!(
        ratios.windows(2).all(|w| w[0] < w[1]),
        "E7: the naive sweep's bytes over the q-gram scan's grow with data size: {ratios:?}"
    );

    for r in table(rows, "e8") {
        assert!(
            r.get_int("msgs") as f64 <= r.get_float("pred_msgs")
                && r.get_int("hops") as f64 <= r.get_float("pred_hops"),
            "E8, the cost model's worst-case guarantees: {} exceeded its bound",
            r.get_str("operator")
        );
    }

    assert!(
        table(rows, "e9").iter().all(|r| r.get_str("oracle_match") == "true"),
        "E9: the skyline query answers exactly at every size"
    );

    let e10 = table(rows, "e10");
    assert!(
        e10[0].get_int("stale_reads") > 0,
        "E10, loose consistency: some reads right after the update hit the lagging replica"
    );
    assert_eq!(e10[1].get_int("stale_reads"), 0, "E10: the pull left stale replicas after 90 s");

    let converged = table(rows, "e12").into_iter().find(|r| r.get_int("sim_s") == 180);
    assert_eq!(
        converged.map(|r| r.get_float("success_pct")),
        Some(100.0),
        "E12: every lookup is answered once the trie has converged (180 s)"
    );
}

/// E7 — claim C6: the q-gram index makes string similarity efficient.
/// It pays a per-gram lookup fee for one posting per candidate value,
/// then one A#v lookup per value within distance k, so its bytes beat
/// the naive sweep and the gap grows with data size. By messages the
/// naive sweep wins, as the order-preserving layout clusters the whole
/// attribute into few leaves: each is "beneficial in special
/// situations", and the optimizer weighs both.
fn e7_qgram() -> Vec<Row> {
    // k = 1 only: with a 4-character target and k ≥ 2 the gram-count
    // guarantee lapses and the planner (correctly) refuses the q-gram
    // strategy — see `strategy::scan_candidates`.
    let q = "SELECT ?s WHERE {(?c,'series',?s) FILTER edist(?s,'ICDE')<=1}";
    similarity_arms("e7-size", 2, &[200, 1000, 4000], q, &SCAN_ARMS[..2])
}

/// E7, continued: what stale postings cost. 200 objects on 64 P-Grid
/// peers rename their unique `name` once per round, and each rename
/// leaves the old value's posting under its gram keys (DESIGN.md
/// § q-gram postings); a q-gram scan near one object's current name
/// runs after 0–8 rounds.
fn e7_stale_postings() -> Vec<Row> {
    const OBJECTS: usize = 200;
    let name = |i: usize, round: usize| Value::str(&format!("t{i:03}-v{round}"));
    let mut cluster = UniCluster::build(64, UniConfig::default(), SEED);
    cluster.load((0..OBJECTS).map(|i| Tuple::new(&format!("item{i}")).with("name", name(i, 0))));
    cluster.set_plan_mode(PlanMode { scan_pref: Some(ScanPref::QGram), ..Default::default() });
    let mut rows = Vec::new();
    let mut done = 0;
    for rounds in [0, 1, 2, 4, 8] {
        for round in done..rounds {
            for i in 0..OBJECTS {
                let old = Triple::new(&format!("item{i}"), "name", name(i, round));
                let origin = NodeId((i % 64) as u32);
                assert!(cluster.update(origin, &old, name(i, round + 1), round as u64 + 1));
            }
        }
        done = rounds;
        let q = format!("SELECT ?x WHERE {{(?x,'name',?n) FILTER edist(?n,'t007-v{rounds}')<=1}}");
        let out = cluster.query(NodeId(0), &q).unwrap();
        assert!(out.ok);
        let oracle = cluster.oracle().query(&q).expect("oracle parses");
        assert_eq!(canon(&out.relation), canon(&oracle), "a stale posting became a row");
        let records: usize = cluster.net.iter_nodes().map(|(_, n)| n.overlay.records()).sum();
        rows.push(
            Row::new()
                .str("table", "e7-stale")
                .int("rounds", rounds as u64)
                .int("live_records", records as u64)
                .int("msgs", out.cost.messages)
                .int("bytes", out.cost.bytes)
                .float("latency_ms", out.cost.latency.as_millis_f64(), 3)
                .int("rows", out.relation.len() as u64),
        );
    }
    rows
}

/// E8 — claim C1: "predict exact costs … almost all logarithmic". The
/// model's predictions are worst-case guarantees ("for each physical
/// operator … worst-case guarantees"), priced on the planning node's
/// own model.
fn e8_costmodel() -> Vec<Row> {
    let world = PubWorld::generate(
        &PubParams { n_authors: 120, n_conferences: 30, ..Default::default() },
        SEED,
    );
    let mut cluster = UniCluster::build(64, UniConfig::default(), SEED);
    cluster.load(world.all_tuples());
    let origin = NodeId(5);
    let model = Arc::clone(cluster.net.node(origin).cost_model().expect("stats loaded"));

    let age =
        |lo, hi| ScanStrategy::AttrRange { attr: "age".into(), lo, hi, algo: RangeAlgo::Parallel };
    let cases = [
        (
            "av-lookup",
            ScanStrategy::AttrValueLookup { attr: "age".into(), value: Value::Int(30) },
            "SELECT ?x WHERE {(?x,'age',30)}",
        ),
        (
            "oid-lookup",
            ScanStrategy::OidLookup { oid: "auth3".into() },
            "SELECT ?v WHERE {('auth3','age',?v)}",
        ),
        (
            "range(narrow)",
            age(Some(Value::Int(30)), Some(Value::Int(33))),
            "SELECT ?g WHERE {(?a,'age',?g) FILTER ?g >= 30 AND ?g <= 33}",
        ),
        ("range(wide)", age(None, None), "SELECT ?g WHERE {(?a,'age',?g)}"),
        (
            "qgram",
            ScanStrategy::QGram { attr: "series".into(), target: "ICDE".into(), k: 1 },
            "SELECT ?s WHERE {(?c,'series',?s) FILTER edist(?s,'ICDE')<2}",
        ),
    ];
    let mut rows = Vec::new();
    for (label, strategy, q) in cases {
        let pref = matches!(strategy, ScanStrategy::QGram { .. }).then_some(ScanPref::QGram);
        // Execute at the origin (no plan forwarding) so measurement
        // isolates the scan operator itself.
        cluster.set_plan_mode(PlanMode { scan_pref: pref, no_forward: true, ..Default::default() });
        let est = model.scan(&strategy, None);
        let out = cluster.query(origin, q).unwrap();
        assert!(out.ok);
        rows.push(
            Row::new()
                .str("table", "e8")
                .str("operator", label)
                .float("pred_msgs", est.cost.messages, 1)
                .int("msgs", out.cost.messages)
                .float("pred_hops", est.cost.depth, 1)
                .int("hops", out.cost.hops.into()),
        );
    }
    rows
}

/// E9 — the paper's §2 flagship query end to end: a similarity-filtered
/// multi-join plus skyline.
fn e9_skyline() -> Vec<Row> {
    let mut rows = Vec::new();
    for n in [64usize, 256] {
        let world = PubWorld::generate(
            &PubParams { n_authors: 100, n_conferences: 20, ..Default::default() },
            SEED,
        );
        let mut cluster = UniCluster::build(n, UniConfig::default(), SEED);
        cluster.load(world.all_tuples());
        let out = cluster.query(NodeId(1), SKYLINE).unwrap();
        assert!(out.ok);
        let expected = cluster.oracle().query(SKYLINE).unwrap();
        rows.push(
            Row::new()
                .str("table", "e9")
                .int("peers", n as u64)
                .int("rows", out.relation.len() as u64)
                .int("msgs", out.cost.messages)
                .float("kib", out.cost.bytes as f64 / 1024.0, 3)
                .float("latency_ms", out.cost.latency.as_millis_f64(), 3)
                .str("oracle_match", (canon(&out.relation) == canon(&expected)).to_string()),
        );
    }
    rows
}

/// E10 — claim C8: updates with loose consistency (push/pull). Reads
/// can be stale right after an update reaches only some replicas, and
/// pull anti-entropy drives staleness to zero, the behaviour of the
/// paper's \[4\].
fn e10_updates() -> Vec<Row> {
    let mut cfg = UniConfig::default()
        .with_replication(3)
        .with_maintenance(SimTime::from_secs(1_000_000_000), SimTime::from_secs(15));
    cfg.overlay.query_timeout = SimTime::from_secs(5);
    let world = PubWorld::generate(
        &PubParams { n_authors: 40, n_conferences: 10, ..Default::default() },
        SEED,
    );
    let mut cluster = UniCluster::build(24, cfg, SEED);
    cluster.load(world.all_tuples());

    let mut stale_before = 0u64;
    let mut stale_after = 0u64;
    let mut reads = 0u64;
    for trial in 0..10u32 {
        let author = format!("auth{}", trial);
        let key = oid_key(&Oid::new(&author));
        let holders: Vec<NodeId> = (0..24u32)
            .map(NodeId)
            .filter(|&p| !cluster.net.node(p).overlay.store().get(key).is_empty())
            .collect();
        if holders.len() < 3 {
            continue;
        }
        // One replica sleeps through the update.
        let lagging = holders[0];
        cluster.net.schedule_down(lagging, cluster.net.now());
        cluster.settle(SimTime::from_millis(1));
        let old_age = cluster
            .net
            .node(holders[1])
            .overlay
            .store()
            .get(key)
            .into_iter()
            .find(|t| t.attr.as_ref() == "age")
            .unwrap();
        let new_val = 100 + trial as i64;
        assert!(cluster.update(holders[1], &old_age, Value::Int(new_val), 1));
        cluster.net.schedule_up(lagging, cluster.net.now());
        cluster.settle(SimTime::from_millis(1));

        // Five reads, each hitting a single replica: right after the
        // revival, then once anti-entropy has converged.
        let new_age = Some(new_val as f64);
        let stale = |cluster: &mut UniCluster| {
            (0..5u32)
                .filter(|origin| {
                    let (items, _) = cluster.raw_lookup(NodeId(origin * 4 % 24), key);
                    let age = items.into_iter().find(|t| t.attr.as_ref() == "age");
                    age.is_none_or(|t| t.value.as_f64() != new_age)
                })
                .count() as u64
        };
        stale_before += stale(&mut cluster);
        cluster.settle(SimTime::from_secs(90));
        stale_after += stale(&mut cluster);
        reads += 5;
    }
    [
        ("right after update (1/3 replicas lagging)", stale_before),
        ("after pull anti-entropy", stale_after),
    ]
    .into_iter()
    .map(|(phase, stale)| {
        Row::new()
            .str("table", "e10")
            .str("phase", phase)
            .int("stale_reads", stale)
            .int("reads", reads)
            .float("stale_pct", 100.0 * stale as f64 / reads.max(1) as f64, 1)
    })
    .collect()
}

/// E12 (bonus) — dynamic construction: the pairwise bootstrap protocol
/// converges to a working trie (paper §2, ref \[1\]) with no
/// coordination. The exchanges hand their entries over as record lists
/// (`Exchange{Split,Data,Replica}`), so every key must have arrived
/// once paths have specialized and reference tables filled.
fn e12_bootstrap() -> Vec<Row> {
    let mut cfg = quiet_pgrid();
    cfg.split_threshold = 4;
    cfg.exchange_interval = SimTime::from_secs(1);
    // Routing-table gossip runs alongside the exchanges, as in the real
    // system — it fills levels the pairwise meetings missed.
    cfg.maintenance_interval = SimTime::from_secs(10);
    let n = 32usize;
    let mut c: PGridCluster<RawItem> =
        PGridCluster::build_bootstrap(n, cfg, ConstantLatency(SimTime::from_millis(10)), SEED);
    // Every peer contributes its own slice of data (conference attendees
    // bringing their own tuples, §4).
    let keys = spread_keys(n as u64 * 16);
    for (i, &k) in keys.iter().enumerate() {
        c.net.node_mut(NodeId((i % n) as u32)).preload(k, RawItem(k), 0);
    }
    let trials = 40;
    let mut rows = Vec::new();
    for checkpoint in [5u64, 20, 60, 180] {
        c.settle(SimTime::from_secs(checkpoint) - (c.net.now().saturating_sub(SimTime::ZERO)));
        let depths: Vec<f64> = c.net.iter_nodes().map(|(_, p)| p.path().len() as f64).collect();
        let refs: usize = c.net.iter_nodes().map(|(_, p)| p.routing().ref_count()).sum();
        let mut ok = 0;
        for i in 0..trials {
            let origin = c.random_peer();
            let out = c.lookup(origin, keys[(i * 13) % keys.len()]);
            ok += usize::from(out.ok && !out.items.is_empty());
        }
        rows.push(
            Row::new()
                .str("table", "e12")
                .int("sim_s", checkpoint)
                .float("avg_depth", depths.iter().sum::<f64>() / n as f64, 2)
                .int("max_depth", depths.iter().cloned().fold(0.0, f64::max) as u64)
                .float("refs_per_peer", refs as f64 / n as f64, 2)
                .float("success_pct", 100.0 * ok as f64 / trials as f64, 1),
        );
    }
    rows
}
