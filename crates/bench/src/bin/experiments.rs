//! Regenerates every quantitative claim of the UniStore paper.
//!
//! ```sh
//! cargo run --release -p unistore-bench --bin experiments          # all
//! cargo run --release -p unistore-bench --bin experiments -- e1 e6 # some
//! cargo run --release -p unistore-bench --bin experiments -- bench-snapshot
//! ```
//!
//! Each experiment section prints the paper's claim, the measured
//! table, and the verdict the table supports.
//! EXPERIMENTS.md records a captured run. `bench-snapshot` runs
//! headlessly for CI and writes four perf-trajectory records:
//! `BENCH_joins.json` (E6 join strategies), `BENCH_stats.json`
//! (incremental statistics maintenance), `BENCH_ingest.json` (the
//! batched write pipeline, both backends) and
//! `BENCH_concurrency.json` (the pipelined query driver: throughput
//! and tail latency vs offered load, uniform vs Zipf-skewed reads,
//! result cache off vs on, both backends). `fault-snapshot` runs the
//! failure-masking availability matrix (fault class x backend x retry
//! policy) and writes `BENCH_faults.json`. `scale-snapshot` runs the
//! scale-and-churn survival campaign (mixed Zipf read/write traffic
//! with churn, loss, a partition and a correlated mass failure all
//! active at once, N up to 4096 with `full`) and writes
//! `BENCH_scale.json`: ops/sec, tail latencies, replication repair
//! lag, routing staleness and per-node load skew vs N, both backends.

// The bench harness measures real elapsed time by design; wall-clock
// reads are sanctioned here (see clippy.toml).
#![allow(clippy::disallowed_methods)]

use unistore::backends::{chord_config, ChordUniCluster};
use unistore::config::ScanPref;
use unistore::{BackoffPolicy, PlanMode, UniCluster, UniConfig};
use unistore_bench::{f, header, latency_summary, row};
use unistore_chord::node::ChordConfig;
use unistore_chord::{ChordCluster, ChordRangeMode};
use unistore_overlay::Overlay;
use unistore_pgrid::cluster::Topology;
use unistore_pgrid::{PGridCluster, PGridConfig, RangeMode};
use unistore_query::{RangeAlgo, ScanStrategy};
use unistore_simnet::churn::{install_churn, install_mass_failure, ChurnConfig};
use unistore_simnet::fault::{FaultPlan, Window};
use unistore_simnet::{ConstantLatency, NodeId, PlanetLabLatency, SimTime};
use unistore_store::index::{attr_value_key, oid_key, value_key};
use unistore_store::{Oid, Triple, Tuple, Value};
use unistore_util::item::RawItem;
use unistore_util::stats::{gini, percentile};
use unistore_util::zipf::Zipf;
use unistore_util::Key;
use unistore_workload::{PubParams, PubWorld};

const SEED: u64 = 20070415; // ICDE 2007

fn main() {
    let args: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    if args.iter().any(|a| a == "bench-snapshot") {
        bench_snapshot();
        return;
    }
    if args.iter().any(|a| a == "alloc-snapshot") {
        alloc_snapshot();
        return;
    }
    if args.iter().any(|a| a == "fault-snapshot") {
        fault_snapshot();
        return;
    }
    if args.iter().any(|a| a == "scale-snapshot") {
        scale_snapshot(&args);
        return;
    }
    if args.iter().any(|a| a == "determinism-check") {
        determinism_check();
        return;
    }
    let want = |id: &str| args.is_empty() || args.iter().any(|a| a == id);
    if want("e1") {
        e1_scalability();
    }
    if want("e2") {
        e2_planetlab();
    }
    if want("e3") {
        e3_adaptivity();
    }
    if want("e4") {
        e4_fig2();
    }
    if want("e5") {
        e5_balance();
    }
    if want("e6") {
        e6_chord();
    }
    if want("e7") {
        e7_qgram();
    }
    if want("e8") {
        e8_costmodel();
    }
    if want("e9") {
        e9_skyline();
    }
    if want("e10") {
        e10_updates();
    }
    if want("e11") {
        e11_churn();
    }
    if want("e12") {
        e12_bootstrap();
    }
}

fn quiet_pgrid() -> PGridConfig {
    PGridConfig {
        maintenance_interval: SimTime::from_secs(1_000_000_000),
        anti_entropy_interval: SimTime::from_secs(1_000_000_000),
        ..PGridConfig::default()
    }
}

fn spread_keys(n: u64) -> Vec<u64> {
    (0..n).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect()
}

/// E1 — claim C1: "logarithmic search complexity in the number of
/// nodes".
fn e1_scalability() {
    println!("\n## E1 — lookup cost vs network size (claim: logarithmic)\n");
    header(&["peers N", "log2(N)", "avg hops", "max hops", "avg msgs"]);
    for exp in [4u32, 6, 8, 10, 12] {
        let n = 1usize << exp;
        let mut c: PGridCluster<RawItem> = PGridCluster::build(
            n,
            quiet_pgrid(),
            Topology::Uniform,
            ConstantLatency(SimTime::from_millis(10)),
            SEED,
        );
        let keys = spread_keys(512);
        for &k in &keys {
            c.preload(k, RawItem(k), 0);
        }
        let mut hops = Vec::new();
        let mut msgs = Vec::new();
        for i in 0..100 {
            let origin = c.random_peer();
            let out = c.lookup(origin, keys[i * 5 % keys.len()]);
            assert!(out.ok);
            hops.push(out.cost.hops as f64);
            msgs.push(out.cost.messages as f64);
        }
        row(&[
            n.to_string(),
            exp.to_string(),
            f(hops.iter().sum::<f64>() / hops.len() as f64),
            f(hops.iter().cloned().fold(0.0, f64::max)),
            f(msgs.iter().sum::<f64>() / msgs.len() as f64),
        ]);
    }
    println!("\nverdict: hops grow with log2(N) and stay bounded by the trie depth.");
}

/// E2 — claim C3: "even with up to 400 PlanetLab nodes query answer
/// times are still only a couple of seconds".
fn e2_planetlab() {
    println!("\n## E2 — 400 peers under PlanetLab latency (claim: couple of seconds)\n");
    let world = PubWorld::generate(
        &PubParams { n_authors: 150, n_conferences: 25, ..Default::default() },
        SEED,
    );
    let mut cluster = UniCluster::build_with_latency(
        400,
        UniConfig::default(),
        PlanetLabLatency::new(SEED),
        SEED,
    );
    cluster.load(world.all_tuples());
    let queries: Vec<(&str, String)> = vec![
        ("point", "SELECT ?v WHERE {('auth7','age',?v)}".into()),
        (
            "range",
            "SELECT ?n WHERE {(?a,'name',?n) (?a,'age',?g) FILTER ?g >= 30 AND ?g < 40}".into(),
        ),
        (
            "3-way join",
            "SELECT ?n,?conf WHERE {(?a,'name',?n) (?a,'has_published',?t)
             (?p,'title',?t) (?p,'published_in',?conf)}"
                .into(),
        ),
        ("similarity", "SELECT ?s WHERE {(?c,'series',?s) FILTER edist(?s,'ICDE')<3}".into()),
        (
            "skyline",
            "SELECT ?name,?age,?cnt WHERE {(?a,'name',?name) (?a,'age',?age)
             (?a,'num_of_pubs',?cnt) (?a,'has_published',?title) (?p,'title',?title)
             (?p,'published_in',?conf) (?c,'confname',?conf)
             (?c,'series',?sr) FILTER edist(?sr,'ICDE')<3}
             ORDER BY SKYLINE OF ?age MIN, ?cnt MAX"
                .into(),
        ),
    ];
    header(&["query", "p50 (s)", "p90 (s)", "p99 (s)", "avg msgs"]);
    for (label, q) in &queries {
        let mut lat = Vec::new();
        let mut msgs = Vec::new();
        for _ in 0..10 {
            let origin = cluster.random_node();
            let out = cluster.query(origin, q).expect("query parses");
            assert!(out.ok, "{label} timed out");
            lat.push(out.cost.latency.as_secs_f64());
            msgs.push(out.cost.messages as f64);
        }
        let (p50, p90, p99) = latency_summary(&lat);
        row(&[
            label.to_string(),
            f(p50),
            f(p90),
            f(p99),
            f(msgs.iter().sum::<f64>() / msgs.len() as f64),
        ]);
    }
    println!(
        "\nverdict: all query classes answer within a couple of (simulated) seconds at N=400."
    );
}

/// E3 — claim C7: identical queries, different strategies, different
/// performance depending on data; the optimizer picks well.
fn e3_adaptivity() {
    println!("\n## E3 — optimizer adaptivity (claim: strategy choice depends on data)\n");
    println!("similarity query: q-gram index vs naive sweep at two data scales\n");
    header(&["conferences", "strategy", "msgs", "bytes", "latency (ms)", "rows"]);
    for n_conf in [25usize, 400] {
        let world = PubWorld::generate(
            &PubParams {
                n_authors: 50,
                n_conferences: n_conf,
                typo_rate: 0.2,
                ..Default::default()
            },
            SEED,
        );
        for (label, pref) in [
            ("qgram", Some(ScanPref::QGram)),
            ("naive", Some(ScanPref::NaiveSimilarity)),
            ("auto", None),
        ] {
            let mut cluster = UniCluster::build(64, UniConfig::default(), SEED);
            cluster.load(world.all_tuples());
            cluster.set_plan_mode(PlanMode { scan_pref: pref, ..Default::default() });
            let out = cluster
                .query(NodeId(0), "SELECT ?s WHERE {(?c,'series',?s) FILTER edist(?s,'ICDE')<2}")
                .unwrap();
            assert!(out.ok);
            row(&[
                n_conf.to_string(),
                label.to_string(),
                out.cost.messages.to_string(),
                out.cost.bytes.to_string(),
                f(out.cost.latency.as_millis_f64()),
                out.relation.len().to_string(),
            ]);
        }
    }
    println!("\njoin: fetch vs collect for selective and unselective left sides\n");
    header(&["left side", "strategy", "msgs", "latency (ms)", "rows"]);
    let world = PubWorld::generate(
        &PubParams { n_authors: 120, n_conferences: 20, ..Default::default() },
        SEED,
    );
    let selective = "SELECT ?t WHERE {(?a,'name','alice-0') (?a,'has_published',?t)
                     (?p,'title',?t) (?p,'year',?y)}";
    let unselective = "SELECT ?t WHERE {(?a,'name',?n) (?a,'has_published',?t)
                       (?p,'title',?t) (?p,'year',?y)}";
    for (side, q) in [("1 author", selective), ("all authors", unselective)] {
        for (label, pref) in [
            ("fetch", Some(unistore_query::JoinStrategy::Fetch)),
            ("collect", Some(unistore_query::JoinStrategy::Collect)),
            ("auto", None),
        ] {
            let mut cluster = UniCluster::build(64, UniConfig::default(), SEED);
            cluster.load(world.all_tuples());
            cluster.set_plan_mode(PlanMode { join_pref: pref, ..Default::default() });
            let out = cluster.query(NodeId(0), q).unwrap();
            assert!(out.ok);
            row(&[
                side.to_string(),
                label.to_string(),
                out.cost.messages.to_string(),
                f(out.cost.latency.as_millis_f64()),
                out.relation.len().to_string(),
            ]);
        }
    }
    println!("\nverdict: no single strategy dominates; the cost-based choice tracks the winner.");
}

/// E4 — Fig. 2: 2 tuples → 18 index entries over 8 peers; all three
/// indexes answer.
fn e4_fig2() {
    println!("\n## E4 — Fig. 2 reproduction (2 tuples, 3 indexes, 8 peers)\n");
    // The figure shows the three primary indexes, hence no q-grams.
    let cfg = UniConfig { with_qgrams: false, balanced: false, ..UniConfig::default() };
    let mut cluster = UniCluster::build(8, cfg, SEED);
    cluster.load(vec![
        Tuple::new("a12")
            .with("title", Value::str("Similarity..."))
            .with("confname", Value::str("ICDE 2006 - Workshops"))
            .with("year", Value::Int(2006)),
        Tuple::new("v34")
            .with("title", Value::str("Progressive..."))
            .with("confname", Value::str("ICDE 2005"))
            .with("year", Value::Int(2005)),
    ]);
    header(&["peer", "trie path", "stored index entries"]);
    let mut total = 0;
    for (id, node) in cluster.net.iter_nodes() {
        let n = node.overlay.store().len();
        total += n;
        row(&[id.to_string(), node.overlay.path().to_string(), n.to_string()]);
    }
    println!("\ntotal entries: {total} (paper: 18 = 2 tuples × 3 attributes × 3 indexes)");
    let (by_oid, c1) = cluster.raw_lookup(NodeId(0), oid_key(&Oid::new("a12")));
    let (by_av, c2) = cluster.raw_lookup(NodeId(1), attr_value_key("year", &Value::Int(2005)));
    let (by_v, c3) = cluster.raw_lookup(NodeId(2), value_key(&Value::Int(2006)));
    println!(
        "OID index:  {} triples of a12 in {} hops (reproduction of origin tuple)",
        by_oid.len(),
        c1.hops
    );
    println!(
        "A#v index:  {} triple for year=2005 in {} hops (A_i ≥ v_i queries)",
        by_av.len(),
        c2.hops
    );
    println!(
        "v index:    {} triple for value 2006 in {} hops (attribute-open queries)",
        by_v.len(),
        c3.hops
    );
    assert_eq!(total, 18);
    assert_eq!(by_oid.len(), 3);
}

/// E5 — claim C5: load balancing copes with arbitrary skew.
fn e5_balance() {
    println!("\n## E5 — storage balance under skew (claim: balancing handles skew)\n");
    header(&["zipf θ", "topology", "gini", "max/avg load"]);
    for theta in [0.0f64, 0.5, 0.8, 1.0, 1.2] {
        let mut rng = unistore_util::rng::derive_rng(SEED, 77);
        let zipf = Zipf::new(512, theta);
        // 512 Zipf-weighted regions tile the FULL key space, so at θ=0
        // the uniform trie is a fair baseline; skew then concentrates
        // density without shrinking the domain.
        let keys: Vec<u64> = (0..20_000)
            .map(|_| {
                ((zipf.sample(&mut rng) as u64) << 55)
                    | rand::Rng::gen_range(&mut rng, 0..(1u64 << 55))
            })
            .collect();
        for balanced in [true, false] {
            let topo = if balanced {
                Topology::Balanced { sample: keys.clone() }
            } else {
                Topology::Uniform
            };
            let mut c: PGridCluster<RawItem> = PGridCluster::build(
                64,
                quiet_pgrid(),
                topo,
                ConstantLatency(SimTime::from_millis(1)),
                SEED,
            );
            for (i, &k) in keys.iter().enumerate() {
                c.preload(k, RawItem(i as u64), 0);
            }
            let loads = c.storage_loads();
            let avg = loads.iter().sum::<f64>() / loads.len() as f64;
            let max = loads.iter().cloned().fold(0.0, f64::max);
            row(&[
                format!("{theta:.1}"),
                if balanced { "balanced (P-Grid)" } else { "uniform (strawman)" }.to_string(),
                f(gini(&loads)),
                f(max / avg.max(1.0)),
            ]);
        }
    }
    println!("\nverdict: the data-adaptive trie keeps Gini low as skew grows; the uniform trie degrades.");
}

/// E6 — claim C4: P-Grid answers range queries natively; Chord needs an
/// additional structure or a broadcast.
fn e6_chord() {
    println!(
        "\n## E6 — range queries: P-Grid native vs Chord (claim: Chord needs extra structure)\n"
    );
    let n = 256usize;
    let n_keys = 4096u64;
    let keys: Vec<u64> = (0..n_keys).map(|i| i << 52).collect();

    let mut pg: PGridCluster<RawItem> = PGridCluster::build(
        n,
        quiet_pgrid(),
        Topology::Uniform,
        ConstantLatency(SimTime::from_millis(10)),
        SEED,
    );
    for &k in &keys {
        pg.preload(k, RawItem(k >> 52), 0);
    }
    let mut ch: ChordCluster<RawItem> = ChordCluster::build(
        n,
        ChordConfig::default(),
        ConstantLatency(SimTime::from_millis(10)),
        SEED,
    );
    for &k in &keys {
        ch.preload(k, RawItem(k >> 52));
    }

    header(&["selectivity", "system", "msgs", "latency (ms)", "rows"]);
    for frac in [0.001f64, 0.01, 0.1, 0.5] {
        let width = (n_keys as f64 * frac) as u64;
        let lo = 100u64 << 52;
        let hi = (100 + width.max(1) - 1) << 52;
        let expect = width.max(1) as usize;

        let out = pg.range(NodeId(0), lo, hi, RangeMode::Parallel);
        assert!(
            out.complete && out.items.len() == expect,
            "pgrid {} vs {}",
            out.items.len(),
            expect
        );
        row(&[
            format!("{:.1}%", frac * 100.0),
            "P-Grid (native)".into(),
            out.cost.messages.to_string(),
            f(out.cost.latency.as_millis_f64()),
            out.items.len().to_string(),
        ]);

        let out = ch.range(NodeId(0), lo, hi, ChordRangeMode::Buckets);
        assert!(out.complete);
        let mut rows_set: Vec<u64> = out.entries.iter().map(|(k, _)| *k).collect();
        rows_set.sort_unstable();
        rows_set.dedup();
        assert_eq!(rows_set.len(), expect, "chord buckets incomplete");
        row(&[
            format!("{:.1}%", frac * 100.0),
            "Chord + bucket index".into(),
            out.cost.messages.to_string(),
            f(out.cost.latency.as_millis_f64()),
            rows_set.len().to_string(),
        ]);

        let out = ch.range(NodeId(0), lo, hi, ChordRangeMode::Broadcast);
        assert!(out.complete);
        let mut rows_set: Vec<u64> = out.entries.iter().map(|(k, _)| *k).collect();
        rows_set.sort_unstable();
        rows_set.dedup();
        row(&[
            format!("{:.1}%", frac * 100.0),
            "Chord broadcast".into(),
            out.cost.messages.to_string(),
            f(out.cost.latency.as_millis_f64()),
            rows_set.len().to_string(),
        ]);
    }

    // The full stack over both backends: identical VQL queries through
    // the same MQP pipeline, P-Grid native vs Chord + bucket index.
    println!("\nreal queries over both overlays (identical VQL, identical optimizer)\n");
    let world = PubWorld::generate(
        &PubParams { n_authors: 80, n_conferences: 15, ..Default::default() },
        SEED,
    );
    let queries: Vec<(&str, &str)> = vec![
        ("point", "SELECT ?v WHERE {('auth7','age',?v)}"),
        ("range", "SELECT ?n WHERE {(?a,'name',?n) (?a,'age',?g) FILTER ?g >= 30 AND ?g < 40}"),
        (
            "3-way join",
            "SELECT ?n,?conf WHERE {(?a,'name',?n) (?a,'has_published',?t)
             (?p,'title',?t) (?p,'published_in',?conf)}",
        ),
        (
            "5-way join",
            "SELECT ?n,?cn,?y WHERE {(?a,'name',?n) (?a,'has_published',?t)
             (?p,'title',?t) (?p,'published_in',?cn)
             (?c,'confname',?cn) (?c,'year',?y)}",
        ),
    ];
    let mut pg_uni = UniCluster::build(64, UniConfig::default(), SEED);
    pg_uni.load(world.all_tuples());
    let mut ch_uni = ChordUniCluster::build_overlay(64, chord_config(), SEED);
    ch_uni.load(world.all_tuples());
    header(&["query", "system", "msgs", "hops", "KiB", "latency (ms)", "rows"]);
    for (label, q) in &queries {
        let pg_out = pg_uni.query(NodeId(0), q).unwrap();
        assert!(pg_out.ok, "{label} timed out on P-Grid");
        let ch_out = ch_uni.query(NodeId(0), q).unwrap();
        assert!(ch_out.ok, "{label} timed out on Chord");
        let canon = |r: &unistore_query::Relation| {
            let mut rows: Vec<String> = r.rows.iter().map(|row| format!("{row:?}")).collect();
            rows.sort();
            rows
        };
        assert_eq!(
            canon(&pg_out.relation),
            canon(&ch_out.relation),
            "{label}: backends must agree on the answer"
        );
        let pg_name = <unistore_pgrid::PGridPeer<Triple> as Overlay>::NAME;
        let ch_name = format!("{}+buckets", <unistore_chord::ChordNode<Triple> as Overlay>::NAME);
        for (system, out) in [(pg_name.to_string(), &pg_out), (ch_name, &ch_out)] {
            row(&[
                label.to_string(),
                system,
                out.cost.messages.to_string(),
                out.cost.hops.to_string(),
                f(out.cost.bytes as f64 / 1024.0),
                f(out.cost.latency.as_millis_f64()),
                out.relation.len().to_string(),
            ]);
        }
    }
    println!("\nverdict: P-Grid's native ranges beat both Chord variants on raw ops; on full");
    println!("VQL plans the auxiliary bucket index keeps Chord's answers identical but every");
    println!("query pays more hops, bytes and latency — the paper's §2 'additional");
    println!("structures' cost, now measured under the real optimizer instead of asserted.");

    // Join-strategy shootout: collect vs fetch vs Bloom-filtered
    // semi-join pushdown, on both backends, result-checked against the
    // oracle. The cost model prices plans by shipped bytes; this is
    // where the semi-join earns its keep.
    println!("\njoin strategies on the multi-join workloads (KiB is the headline column)\n");
    let rows = join_strategy_comparison();
    header(&["query", "system", "strategy", "msgs", "hops", "KiB", "latency (ms)", "rows"]);
    for r in &rows {
        row(&[
            r.query.clone(),
            r.backend.clone(),
            r.strategy.clone(),
            r.msgs.to_string(),
            r.hops.to_string(),
            f(r.kib),
            f(r.latency_ms),
            r.rows.to_string(),
        ]);
    }
    report_semi_join_savings(&rows);
    println!("\nverdict: shipping a Bloom filter over the left side's join keys lets the");
    println!("leaves drop non-matching triples before replying — same message structure as");
    println!("collect, a fraction of its bytes, and identical relations on both backends.");
}

/// One measured (query, backend, strategy) cell of the join comparison.
struct JoinRow {
    query: String,
    backend: String,
    strategy: String,
    msgs: u64,
    hops: u32,
    kib: f64,
    latency_ms: f64,
    rows: usize,
}

/// Runs the 3-way and 5-way join workloads under every join strategy on
/// both backends, asserting every result equals the local oracle.
///
/// The world is *universal-storage shaped*: besides the publication
/// graph it carries twice as many unpublished drafts, whose `title` and
/// `year` entries share the scanned index regions but join with
/// nothing. That is the regime the paper's Fig. 2 layout implies —
/// heterogeneous data accumulating in shared attribute regions — and
/// it is what collect ships to the plan holder while the semi-join
/// filter drops it at the leaves.
fn join_strategy_comparison() -> Vec<JoinRow> {
    use unistore_query::JoinStrategy;

    let world = PubWorld::generate(
        &PubParams { n_authors: 80, n_conferences: 15, draft_fraction: 2.0, ..Default::default() },
        SEED,
    );
    let queries: Vec<(&str, &str)> = vec![
        (
            "3-way join",
            "SELECT ?n,?conf WHERE {(?a,'name',?n) (?a,'has_published',?t)
             (?p,'title',?t) (?p,'published_in',?conf)}",
        ),
        (
            "5-way join",
            "SELECT ?n,?cn,?y WHERE {(?a,'name',?n) (?a,'has_published',?t)
             (?p,'title',?t) (?p,'published_in',?cn)
             (?c,'confname',?cn) (?c,'year',?y)}",
        ),
    ];
    let strategies: Vec<(&str, PlanMode)> = vec![
        ("collect", PlanMode { join_pref: Some(JoinStrategy::Collect), ..Default::default() }),
        ("fetch", PlanMode { join_pref: Some(JoinStrategy::Fetch), ..Default::default() }),
        ("semi-join", PlanMode { join_pref: Some(JoinStrategy::SemiJoin), ..Default::default() }),
        ("auto", PlanMode::default()),
    ];
    let canon = |r: &unistore_query::Relation| {
        let mut rows: Vec<String> = r.rows.iter().map(|row| format!("{row:?}")).collect();
        rows.sort();
        rows
    };
    // One deployment per backend; only the planner mode changes between
    // runs (queries are read-only and costs are measured as metric
    // deltas, so reuse is safe and keeps the CI step cheap).
    let mut pg = UniCluster::build(64, UniConfig::default(), SEED);
    pg.load(world.all_tuples());
    let mut ch = ChordUniCluster::build_overlay(64, chord_config(), SEED);
    ch.load(world.all_tuples());
    let mut out = Vec::new();
    for (label, q) in &queries {
        let oracle = canon(&pg.oracle().query(q).expect("oracle parses"));
        for (strat, mode) in &strategies {
            pg.set_plan_mode(*mode);
            ch.set_plan_mode(*mode);
            for (backend, outcome) in [
                ("P-Grid", pg.query(NodeId(0), q).unwrap()),
                ("Chord+buckets", ch.query(NodeId(0), q).unwrap()),
            ] {
                assert!(outcome.ok, "{label}/{strat} timed out on {backend}");
                assert_eq!(
                    canon(&outcome.relation),
                    oracle,
                    "{label}/{strat} diverged from the oracle on {backend}"
                );
                out.push(JoinRow {
                    query: label.to_string(),
                    backend: backend.to_string(),
                    strategy: strat.to_string(),
                    msgs: outcome.cost.messages,
                    hops: outcome.cost.hops,
                    kib: outcome.cost.bytes as f64 / 1024.0,
                    latency_ms: outcome.cost.latency.as_millis_f64(),
                    rows: outcome.relation.len(),
                });
            }
        }
    }
    out
}

/// Prints the semi-join's shipped-KiB reduction against collect and
/// checks the headline claim (≥ 30% on the 5-way join, both backends).
fn report_semi_join_savings(rows: &[JoinRow]) {
    println!();
    for query in ["3-way join", "5-way join"] {
        for backend in ["P-Grid", "Chord+buckets"] {
            let kib = |strategy: &str| {
                rows.iter()
                    .find(|r| r.query == query && r.backend == backend && r.strategy == strategy)
                    .map(|r| r.kib)
                    .unwrap_or(f64::NAN)
            };
            let (collect, semi) = (kib("collect"), kib("semi-join"));
            let cut = 100.0 * (1.0 - semi / collect);
            println!(
                "{query} / {backend}: semi-join ships {semi:.1} KiB vs collect {collect:.1} KiB \
                 ({cut:.0}% less)"
            );
            if query == "5-way join" {
                assert!(
                    semi <= 0.7 * collect,
                    "semi-join must cut >= 30% of shipped KiB on the 5-way join \
                     ({backend}: {semi:.1} vs {collect:.1})"
                );
            }
        }
    }
}

/// Headless CI entry: runs the join comparison and writes
/// `BENCH_joins.json` for the perf-trajectory record.
fn bench_snapshot() {
    let rows = join_strategy_comparison();
    report_semi_join_savings(&rows);
    let mut json = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "  {{\"query\": \"{}\", \"backend\": \"{}\", \"strategy\": \"{}\", \
             \"msgs\": {}, \"hops\": {}, \"kib\": {:.3}, \"latency_ms\": {:.3}, \
             \"rows\": {}}}{}\n",
            r.query,
            r.backend,
            r.strategy,
            r.msgs,
            r.hops,
            r.kib,
            r.latency_ms,
            r.rows,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str("]\n");
    std::fs::write("BENCH_joins.json", &json).expect("write BENCH_joins.json");
    println!("\nwrote BENCH_joins.json ({} rows)", rows.len());
    stats_snapshot();
    ingest_snapshot();
    concurrency_snapshot();
    alloc_snapshot();
}

/// One measured cell of the allocation record.
struct AllocRow {
    section: &'static str,
    case: &'static str,
    ops: usize,
    allocs_per_op: f64,
    bytes_per_op: f64,
}

/// Headless CI entry #5: the allocation trajectory of the hot paths.
///
/// Measures steady-state allocations per operation (after a warmup
/// pass that fills the wire-buffer pool and the attribute interner)
/// with the counting global allocator in `unistore_bench::alloc`, and
/// asserts the zero-allocation claims in-code:
///
/// * message sizing (`wire_size`) and wire decode allocate ≥ 5x less
///   than the pre-pooling baselines, which are re-implemented here
///   verbatim (fresh unreserved buffer per encode; the
///   copy → `String` → `Arc` chain per decoded string);
/// * a filtered leaf scan's allocations are independent of how many
///   candidates the semi-join filter drops — dropped candidates are
///   never materialized on either backend's store.
fn alloc_snapshot() {
    use std::sync::Arc;

    use bytes::{Buf, Bytes, BytesMut};
    use unistore_bench::alloc::{measure, AllocStats};
    use unistore_chord::store::{collect_keyed, ChordStore};
    use unistore_pgrid::LocalStore;
    use unistore_store::index::TripleKeys;
    use unistore_store::triple::field;
    use unistore_util::item::Item;
    use unistore_util::wire::{get_varint, OpBatch, Wire};
    use unistore_util::{BloomFilter, ItemFilter};

    println!("\n## allocation snapshot (allocs/op, steady state)\n");
    let mut rows: Vec<AllocRow> = Vec::new();
    let mut push = |section: &'static str, case: &'static str, ops: usize, s: AllocStats| {
        let r = AllocRow {
            section,
            case,
            ops,
            allocs_per_op: s.allocs_per_op(ops),
            bytes_per_op: s.bytes_per_op(ops),
        };
        println!(
            "{section:>10} / {case:<28} {:>8.2} allocs/op {:>10.1} bytes/op",
            r.allocs_per_op, r.bytes_per_op
        );
        rows.push(r);
        rows.last().unwrap().allocs_per_op
    };

    // --- encode: pooled wire_size vs the pre-pooling baseline -------
    // The batch mirrors `wire_batch.rs`: 64 write ops with full index
    // fan-out and shared payloads, the unit `insert_batch` ships.
    let batch = {
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
            for key in keys {
                if batch.len() >= 64 {
                    break;
                }
                batch.push_insert(key, item, 0);
            }
            i += 1;
        }
        batch
    };
    const ITERS: usize = 256;
    // Warmup: fills the thread-local buffer pool.
    for _ in 0..8 {
        std::hint::black_box(batch.wire_size());
    }
    let (_, pooled) = measure(|| {
        for _ in 0..ITERS {
            std::hint::black_box(batch.wire_size());
        }
    });
    // The pre-PR default `wire_size`, verbatim: encode into a fresh,
    // unreserved scratch buffer and throw it away.
    let (_, naive_enc) = measure(|| {
        for _ in 0..ITERS {
            let mut buf = BytesMut::new();
            batch.encode(&mut buf);
            std::hint::black_box(buf.len());
        }
    });
    let pooled_rate = push("encode", "pooled wire_size (64-op batch)", ITERS, pooled);
    let naive_rate = push("encode", "naive fresh-buffer baseline", ITERS, naive_enc);
    assert!(
        naive_rate >= 5.0 * pooled_rate && naive_rate >= 1.0,
        "pooled wire_size must allocate >= 5x less than the fresh-buffer \
         baseline (pooled {pooled_rate:.2}, naive {naive_rate:.2} allocs/op)"
    );
    let (_, ship) = measure(|| {
        for _ in 0..ITERS {
            std::hint::black_box(batch.to_bytes().len());
        }
    });
    push("encode", "to_bytes (exact capacity)", ITERS, ship);

    // --- decode: in-place strings vs the copy-chain baseline --------
    // A stream of short-string triples (inline in `CompactStr`, attr
    // interned), decoded back-to-back. The naive decoder replays the
    // pre-PR byte handling: every string detaches a view, copies it
    // into an owned `String`, then copies again into an `Arc<str>`.
    let triples: Vec<Triple> = (0..64)
        .map(|i| {
            Triple::new(&format!("obj{i}"), "published_in", Value::str(&format!("c{}", i % 10)))
        })
        .collect();
    let stream = {
        let mut buf = BytesMut::new();
        for t in &triples {
            t.encode(&mut buf);
        }
        buf.freeze()
    };
    fn naive_str(buf: &mut Bytes) -> Arc<str> {
        let len = get_varint(buf).expect("len") as usize;
        let raw = buf.copy_to_bytes(len);
        let s = String::from_utf8(raw.to_vec()).expect("utf8");
        Arc::from(s)
    }
    fn naive_triple(buf: &mut Bytes) -> (Arc<str>, Arc<str>, Arc<str>) {
        let oid = naive_str(buf);
        let attr = naive_str(buf);
        let tag = u8::decode(buf).expect("tag");
        assert_eq!(tag, 0, "stream is all-string values");
        (oid, attr, naive_str(buf))
    }
    // Warmup interns the attribute.
    {
        let mut b = stream.clone();
        while !b.is_empty() {
            std::hint::black_box(Triple::decode(&mut b).expect("decode"));
        }
    }
    let n_triples = triples.len();
    const DECODE_PASSES: usize = 64;
    let (_, inplace) = measure(|| {
        for _ in 0..DECODE_PASSES {
            let mut b = stream.clone();
            while !b.is_empty() {
                std::hint::black_box(Triple::decode(&mut b).expect("decode"));
            }
        }
    });
    let (_, naive_dec) = measure(|| {
        for _ in 0..DECODE_PASSES {
            let mut b = stream.clone();
            while !b.is_empty() {
                std::hint::black_box(naive_triple(&mut b));
            }
        }
    });
    let ops = DECODE_PASSES * n_triples;
    let inplace_rate = push("decode", "in-place (intern + inline)", ops, inplace);
    let naive_dec_rate = push("decode", "naive copy-chain baseline", ops, naive_dec);
    assert!(
        naive_dec_rate >= 5.0 * inplace_rate && naive_dec_rate >= 1.0,
        "in-place decode must allocate >= 5x less than the copy-chain \
         baseline (in-place {inplace_rate:.2}, naive {naive_dec_rate:.2} allocs/op)"
    );

    // --- leaf scan: allocations independent of dropped candidates ---
    // A filtered scan clones only survivors; piling 16x more dropped
    // candidates under the same key must not change allocs/op.
    let survivors: Vec<Triple> =
        (0..8).map(|i| Triple::new(&format!("s{i}"), "year", Value::Int(2000 + i))).collect();
    let bloom = BloomFilter::from_hashes(
        survivors.iter().map(|t| t.field_hash(field::VALUE).expect("value hash")),
        1e-4,
    );
    let filter = Some(ItemFilter { field: field::VALUE, bloom });
    const SCAN_PASSES: usize = 256;
    let mut scan_rates = [0.0f64; 2];
    for (slot, dropped) in [(0usize, 100usize), (1, 1600)] {
        let mut pg: LocalStore<Triple> = LocalStore::new();
        let mut ch: ChordStore<Triple> = ChordStore::new();
        for (i, t) in survivors.iter().enumerate() {
            pg.apply(7, t.clone(), 0);
            ch.insert(7, i as u64, t.clone(), 0);
        }
        for i in 0..dropped {
            let t = Triple::new(&format!("d{i}"), "year", Value::Int(10_000 + i as i64));
            pg.apply(7, t.clone(), 0);
            ch.insert(7, 1000 + i as u64, t, 0);
        }
        std::hint::black_box(ItemFilter::collect_filtered(&filter, pg.iter_key(7)));
        let (_, scan) = measure(|| {
            for _ in 0..SCAN_PASSES {
                std::hint::black_box(ItemFilter::collect_filtered(&filter, pg.iter_key(7)));
            }
        });
        let case = if dropped == 100 { "pgrid, 100 dropped" } else { "pgrid, 1600 dropped" };
        scan_rates[slot] = push("leaf-scan", case, SCAN_PASSES, scan);
        let (_, keyed) = measure(|| {
            for _ in 0..SCAN_PASSES {
                std::hint::black_box(collect_keyed(&filter, ch.iter_ring(7)));
            }
        });
        let case = if dropped == 100 { "chord, 100 dropped" } else { "chord, 1600 dropped" };
        push("leaf-scan", case, SCAN_PASSES, keyed);
        // The materializing baseline (clone everything, then retain)
        // is recorded for contrast: its bytes/op scale with `dropped`.
        let (_, mat) = measure(|| {
            for _ in 0..SCAN_PASSES {
                let mut v = pg.get(7);
                ItemFilter::retain(&filter, &mut v);
                std::hint::black_box(v);
            }
        });
        let case =
            if dropped == 100 { "materialize, 100 dropped" } else { "materialize, 1600 dropped" };
        push("leaf-scan", case, SCAN_PASSES, mat);
    }
    assert!(
        scan_rates[1] <= scan_rates[0] + 0.5,
        "filtered leaf-scan allocs/op must be independent of dropped candidates \
         (100 dropped: {:.2}, 1600 dropped: {:.2})",
        scan_rates[0],
        scan_rates[1]
    );

    // --- end-to-end: the 3-way join on both backends (trend only) ---
    let world = PubWorld::generate(
        &PubParams { n_authors: 40, n_conferences: 10, ..Default::default() },
        SEED,
    );
    let q = "SELECT ?n,?conf WHERE {(?a,'name',?n) (?a,'has_published',?t)
             (?p,'title',?t) (?p,'published_in',?conf)}";
    let mut pg = UniCluster::build(16, UniConfig::default(), SEED);
    pg.load(world.all_tuples());
    assert!(pg.query(NodeId(0), q).expect("warmup").ok, "warmup completes");
    let (out, pg_alloc) = measure(|| pg.query(NodeId(1), q).expect("query"));
    assert!(out.ok, "3-way join timed out on P-Grid");
    push("join3", "P-Grid", 1, pg_alloc);
    let mut ch = ChordUniCluster::build_overlay(16, chord_config(), SEED);
    ch.load(world.all_tuples());
    assert!(ch.query(NodeId(0), q).expect("warmup").ok, "warmup completes");
    let (out, ch_alloc) = measure(|| ch.query(NodeId(1), q).expect("query"));
    assert!(out.ok, "3-way join timed out on Chord");
    push("join3", "Chord+buckets", 1, ch_alloc);

    let mut json = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "  {{\"section\": \"{}\", \"case\": \"{}\", \"ops\": {}, \
             \"allocs_per_op\": {:.3}, \"bytes_per_op\": {:.1}}}{}\n",
            r.section,
            r.case,
            r.ops,
            r.allocs_per_op,
            r.bytes_per_op,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str("]\n");
    std::fs::write("BENCH_alloc.json", &json).expect("write BENCH_alloc.json");
    println!("wrote BENCH_alloc.json ({} rows)", rows.len());
}

/// One measured cell of the concurrency comparison.
struct ConcRow {
    backend: &'static str,
    dist: &'static str,
    cache: &'static str,
    window: usize,
    queries: usize,
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
    cache_hits: u64,
}

/// Headless CI entry #4: the concurrent query pipeline. Drives the
/// same Zipf- or uniform-skewed point-read mix through the pipelined
/// driver at two offered loads (admission windows of 8 and 32), with
/// the node-local result cache off and on, on both backends. Reports
/// simulated-time throughput and p50/p99 latency and asserts the
/// headline in-code: with the replica/cache read path enabled, the
/// Zipf p99 beats the cache-off p99 at the same offered load.
fn concurrency_snapshot() {
    const N_QUERIES: usize = 96;
    let world = PubWorld::generate(
        &PubParams { n_authors: 40, n_conferences: 10, ..Default::default() },
        SEED,
    );
    let quiet = SimTime::from_secs(1_000_000_000);

    /// One pipelined pass from cold caches: the whole mix is submitted
    /// up front, so reported latency includes the admission-queue wait
    /// beyond the window — the tail a client at this offered load
    /// observes. Returns `(qps, p50, p99, hits)` in simulated time.
    fn run<O: Overlay<Item = Triple>>(
        cluster: &mut UniCluster<O>,
        queries: &[String],
    ) -> (f64, f64, f64, u64) {
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
        (queries.len() as f64 / elapsed.max(1e-9), p50, p99, hits)
    }

    let mut rows: Vec<ConcRow> = Vec::new();
    for (dist, theta) in [("uniform", 0.0), ("zipf1.5", 1.5)] {
        let queries =
            unistore_workload::zipf_read_queries(&world, "published_in", N_QUERIES, theta, SEED);
        for window in [8usize, 32] {
            for (cache_label, cache_cap) in [("off", 0usize), ("on", 64)] {
                for backend in ["P-Grid", "Chord+buckets"] {
                    let (qps, p50, p99, hits) = if backend == "P-Grid" {
                        let cfg = UniConfig::default()
                            .with_stats_refresh(quiet)
                            .with_max_in_flight(window)
                            .with_result_cache(cache_cap);
                        let mut c = UniCluster::build(16, cfg, SEED);
                        c.load(world.all_tuples());
                        run(&mut c, &queries)
                    } else {
                        let cfg = chord_config()
                            .with_stats_refresh(quiet)
                            .with_max_in_flight(window)
                            .with_result_cache(cache_cap);
                        let mut c = ChordUniCluster::build_overlay(16, cfg, SEED);
                        c.load(world.all_tuples());
                        run(&mut c, &queries)
                    };
                    rows.push(ConcRow {
                        backend,
                        dist,
                        cache: cache_label,
                        window,
                        queries: N_QUERIES,
                        qps,
                        p50_ms: p50,
                        p99_ms: p99,
                        cache_hits: hits,
                    });
                }
            }
        }
    }

    println!("\n## Concurrency — pipelined reads vs offered load (16 nodes)\n");
    header(&["backend", "dist", "cache", "window", "qps(sim)", "p50 ms", "p99 ms", "hits"]);
    for r in &rows {
        row(&[
            r.backend.to_string(),
            r.dist.to_string(),
            r.cache.to_string(),
            r.window.to_string(),
            f(r.qps),
            f(r.p50_ms),
            f(r.p99_ms),
            r.cache_hits.to_string(),
        ]);
    }

    for backend in ["P-Grid", "Chord+buckets"] {
        for window in [8usize, 32] {
            let cell = |cache: &str| {
                rows.iter()
                    .find(|r| {
                        r.backend == backend
                            && r.dist == "zipf1.5"
                            && r.window == window
                            && r.cache == cache
                    })
                    .expect("cell")
            };
            let (off, on) = (cell("off"), cell("on"));
            println!(
                "{backend} zipf w={window}: p99 {} -> {} ms, qps {} -> {}",
                f(off.p99_ms),
                f(on.p99_ms),
                f(off.qps),
                f(on.qps)
            );
            assert!(
                on.p99_ms < off.p99_ms,
                "{backend} w={window}: Zipf p99 with the cache/replica read path \
                 ({:.3} ms) must beat cache-off ({:.3} ms) at the same offered load",
                on.p99_ms,
                off.p99_ms
            );
            assert!(
                on.cache_hits > 0,
                "{backend} w={window}: the Zipf mix must actually hit the result cache"
            );
        }
    }

    let mut json = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "  {{\"backend\": \"{}\", \"dist\": \"{}\", \"cache\": \"{}\", \
             \"window\": {}, \"queries\": {}, \"qps_sim\": {:.1}, \"p50_ms\": {:.3}, \
             \"p99_ms\": {:.3}, \"cache_hits\": {}}}{}\n",
            r.backend,
            r.dist,
            r.cache,
            r.window,
            r.queries,
            r.qps,
            r.p50_ms,
            r.p99_ms,
            r.cache_hits,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str("]\n");
    std::fs::write("BENCH_concurrency.json", &json).expect("write BENCH_concurrency.json");
    println!("wrote BENCH_concurrency.json ({} rows)", rows.len());
}

/// One measured cell of the fault-availability matrix.
struct FaultRow {
    backend: &'static str,
    scenario: &'static str,
    mix: &'static str,
    policy: &'static str,
    queries: usize,
    completed: usize,
    cov90: usize,
    mean_cov: f64,
    p50_ms: f64,
    p99_ms: f64,
    hedges: u64,
}

/// Headless CI entry #5: the failure-masking query layer. Runs the
/// availability matrix (fault class x backend x retry policy): a
/// healthy control, moderate churn + 2% message loss under point and
/// scan mixes, and a lossy degraded path where the adaptive hedged
/// policy races a fixed-interval retry baseline. In-code floors pin
/// the availability claims; writes `BENCH_faults.json`.
/// `determinism-check`: the CI gate behind the repo's central premise —
/// the simulator is a correctness oracle only while same-seed runs are
/// bit-identical. Runs the mixed E6-style VQL workload under moderate
/// churn plus 2% loss **twice** with the same seed, on **both**
/// backends, with the [`SimNet`] message-trace digest enabled, and
/// asserts the two runs produce identical trace digests, network
/// metrics, and result digests. Any hash-map iteration order, wall
/// clock, or entropy leak that reaches protocol behavior shows up here
/// as a digest mismatch (std `HashMap`'s per-map random seeds differ
/// even within one process, so a leak cannot hide behind a stable
/// environment).
fn determinism_check() {
    const FNV_OFFSET: u64 = 0xcbf29ce484222325;
    fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }

    let world = PubWorld::generate(
        &PubParams { n_authors: 40, n_conferences: 10, ..Default::default() },
        SEED,
    );
    let mixed: Vec<String> = {
        let mut v = unistore_workload::zipf_read_queries(&world, "published_in", 8, 0.8, SEED ^ 1);
        v.push("SELECT ?n WHERE {(?a,'name',?n)}".into());
        v.push("SELECT ?c WHERE {(?x,'confname',?c)}".into());
        v.push("SELECT ?n,?p WHERE {(?a,'name',?n) (?a,'num_of_pubs',?p) FILTER ?p < 8}".into());
        v.push("SELECT ?n,?g WHERE {(?a,'name',?n) (?a,'age',?g) FILTER ?g < 40}".into());
        v
    };

    /// One full traced run: build → load → churn + loss → query mix.
    /// Returns (trace digest, net metrics, result digest).
    fn run<O: Overlay<Item = Triple>>(
        mut cluster: UniCluster<O>,
        world: &PubWorld,
        queries: &[String],
    ) -> (u64, unistore_simnet::NetMetrics, u64) {
        // Load first: P-Grid re-plans its trie from the data and swaps
        // in a fresh network, which would drop the trace flag.
        cluster.load(world.all_tuples());
        cluster.net.set_trace(true);
        let mut rng = unistore_util::rng::derive_rng(SEED, unistore_util::rng::stream::CHURN);
        let churned = install_churn(
            &mut cluster.net,
            &mut rng,
            &ChurnConfig::moderate(),
            SimTime::from_secs(7_200),
        );
        let n = cluster.net.len() as u32;
        let origins: Vec<NodeId> =
            (0..n).map(NodeId).filter(|id| !churned.contains(id)).take(4).collect();
        cluster.net.set_loss_rate(0.02);
        cluster.settle(SimTime::from_secs(300));
        let mut results = FNV_OFFSET;
        for (i, q) in queries.iter().enumerate() {
            if let Ok(out) = cluster.query(origins[i % origins.len()], q) {
                let line = format!(
                    "{:?}|{:?}|{}|{:.6}",
                    out.relation.schema,
                    out.relation.rows,
                    out.ok,
                    out.coverage.fraction()
                );
                results = fnv(results, line.as_bytes());
            }
            cluster.settle(SimTime::from_secs(5));
        }
        (cluster.net.trace_digest(), cluster.net.metrics(), results)
    }

    println!("\n## determinism-check — same-seed double runs must be bit-identical\n");
    header(&["backend", "peers", "trace digest", "msgs sent", "bytes", "result digest", "verdict"]);
    let mut ok = true;
    for (backend, peers) in
        [("P-Grid", 16), ("P-Grid", 64), ("Chord+buckets", 16), ("Chord+buckets", 64)]
    {
        let (a, b) = if backend == "P-Grid" {
            let cfg = || {
                let mut cfg = UniConfig::default()
                    .with_replication(3)
                    .with_maintenance(SimTime::from_secs(10), SimTime::from_secs(30))
                    .with_min_coverage(0.9);
                cfg.query_timeout = SimTime::from_secs(30);
                cfg.overlay.query_timeout = SimTime::from_secs(8);
                cfg
            };
            (
                run(UniCluster::build(peers, cfg(), SEED), &world, &mixed),
                run(UniCluster::build(peers, cfg(), SEED), &world, &mixed),
            )
        } else {
            let cfg = || {
                let mut cfg = chord_config().with_min_coverage(0.9);
                cfg.overlay.replicate = true;
                cfg.overlay.anti_entropy_interval = SimTime::from_secs(30);
                cfg.overlay.ping_interval = SimTime::from_secs(10);
                cfg.query_timeout = SimTime::from_secs(30);
                cfg.overlay.query_timeout = SimTime::from_secs(8);
                cfg
            };
            (
                run(ChordUniCluster::build_overlay(peers, cfg(), SEED), &world, &mixed),
                run(ChordUniCluster::build_overlay(peers, cfg(), SEED), &world, &mixed),
            )
        };
        let identical = a == b;
        ok &= identical;
        row(&[
            backend.to_string(),
            peers.to_string(),
            format!("{:#018x}", a.0),
            a.1.sent.to_string(),
            a.1.bytes.to_string(),
            format!("{:#018x}", a.2),
            if identical { "identical".into() } else { "DIVERGED".into() },
        ]);
        if !identical {
            eprintln!(
                "run 1: trace {:#018x} metrics {:?} results {:#018x}\n\
                 run 2: trace {:#018x} metrics {:?} results {:#018x}",
                a.0, a.1, a.2, b.0, b.1, b.2
            );
        }
    }
    assert!(ok, "determinism-check FAILED: same-seed runs diverged (see digests above)");
    println!("\ndeterminism-check OK: both backends bit-identical across same-seed runs");
}

fn fault_snapshot() {
    let world = PubWorld::generate(
        &PubParams { n_authors: 40, n_conferences: 10, ..Default::default() },
        SEED,
    );
    fn pgrid_fault_cfg() -> UniConfig {
        let mut cfg = UniConfig::default()
            .with_replication(3)
            .with_maintenance(SimTime::from_secs(10), SimTime::from_secs(30));
        cfg.overlay.refs_per_level = 4;
        cfg.query_timeout = SimTime::from_secs(30);
        cfg.overlay.query_timeout = SimTime::from_secs(8);
        cfg
    }
    fn chord_fault_cfg() -> UniConfig<ChordConfig> {
        let mut cfg = chord_config();
        cfg.overlay.replicate = true;
        cfg.overlay.anti_entropy_interval = SimTime::from_secs(30);
        cfg.overlay.ping_interval = SimTime::from_secs(10);
        cfg.query_timeout = SimTime::from_secs(30);
        cfg.overlay.query_timeout = SimTime::from_secs(8);
        cfg
    }

    /// Issues `queries` round-robin from `origins`, `spacing` apart.
    /// Queries the layer gives up on are charged `fail_ms` — the
    /// client-observed time to a final answer — so no policy can
    /// flatter its tail by failing fast. Returns
    /// `(completed, cov90, mean_cov, p50, p99, hedges)`.
    fn measure<O: Overlay<Item = Triple>>(
        cluster: &mut UniCluster<O>,
        origins: &[NodeId],
        queries: &[String],
        spacing: SimTime,
        fail_ms: f64,
    ) -> (usize, usize, f64, f64, f64, u64) {
        let mut completed = 0usize;
        let mut cov90 = 0usize;
        let mut covs: Vec<f64> = Vec::with_capacity(queries.len());
        let mut lat: Vec<f64> = Vec::with_capacity(queries.len());
        for (i, q) in queries.iter().enumerate() {
            let out = cluster.query(origins[i % origins.len()], q).expect("query parses");
            let cov = out.coverage.fraction();
            completed += out.ok as usize;
            cov90 += (out.ok && cov >= 0.9) as usize;
            covs.push(cov);
            lat.push(if out.ok { out.cost.latency.as_micros() as f64 / 1000.0 } else { fail_ms });
            if spacing > SimTime::from_micros(0) {
                cluster.settle(spacing);
            }
        }
        let mean_cov = covs.iter().sum::<f64>() / covs.len().max(1) as f64;
        let (p50, _, p99) = latency_summary(&lat);
        let n = cluster.net.len() as u32;
        let hedges: u64 = (0..n).map(|i| cluster.net.node(NodeId(i)).hedges).sum();
        (completed, cov90, mean_cov, p50, p99, hedges)
    }

    /// Installs [`ChurnConfig::moderate`] plus 2% loss, warms the RTT
    /// windows of four stable origins while the ring is healthy, lets
    /// churn reach steady state, then runs the mix spaced 10 s apart.
    fn churn_cell<O: Overlay<Item = Triple>>(
        mut cluster: UniCluster<O>,
        world: &PubWorld,
        queries: &[String],
    ) -> (usize, usize, f64, f64, f64, u64) {
        cluster.load(world.all_tuples());
        let mut rng = unistore_util::rng::derive_rng(SEED, unistore_util::rng::stream::CHURN);
        let churned = install_churn(
            &mut cluster.net,
            &mut rng,
            &ChurnConfig::moderate(),
            SimTime::from_secs(7_200),
        );
        let n = cluster.net.len() as u32;
        // Queries originate at peers outside the churn set — the
        // paper's stable infrastructure peers. The *data* they reach
        // still lives on churning nodes; only the client endpoint is
        // pinned up.
        let origins: Vec<NodeId> =
            (0..n).map(NodeId).filter(|id| !churned.contains(id)).take(4).collect();
        assert!(origins.len() == 4, "churn spared only {} of 4 needed origins", origins.len());
        let warm = unistore_workload::zipf_read_queries(world, "published_in", 40, 0.0, SEED ^ 3);
        for (i, q) in warm.iter().enumerate() {
            let _ = cluster.query(origins[i % origins.len()], q);
        }
        cluster.net.set_loss_rate(0.02);
        cluster.settle(SimTime::from_secs(600));
        measure(&mut cluster, &origins, queries, SimTime::from_secs(10), 120_000.0)
    }

    /// A fixed origin on a lossy (5%) but churn-free network: the
    /// degraded path where retry policy, not data placement, decides
    /// the tail. RTT windows warm before the loss switches on.
    fn degraded_cell<O: Overlay<Item = Triple>>(
        mut cluster: UniCluster<O>,
        world: &PubWorld,
        queries: &[String],
    ) -> (usize, usize, f64, f64, f64, u64) {
        cluster.load(world.all_tuples());
        let origin = NodeId(0);
        let warm = unistore_workload::zipf_read_queries(world, "published_in", 12, 0.0, SEED ^ 4);
        for q in &warm {
            let _ = cluster.query(origin, q);
        }
        cluster.net.set_loss_rate(0.05);
        measure(&mut cluster, &[origin], queries, SimTime::from_micros(0), 120_000.0)
    }

    let mut rows: Vec<FaultRow> = Vec::new();

    // --- Healthy control: masking layer on, nothing failing. -------
    let mixed: Vec<String> = {
        let mut v = unistore_workload::zipf_read_queries(&world, "published_in", 8, 0.8, SEED ^ 1);
        v.push("SELECT ?n WHERE {(?a,'name',?n)}".into());
        v.push("SELECT ?c WHERE {(?x,'confname',?c)}".into());
        v.push("SELECT ?n,?p WHERE {(?a,'name',?n) (?a,'num_of_pubs',?p) FILTER ?p < 8}".into());
        v.push("SELECT ?n,?e WHERE {(?a,'name',?n) (?a,'email',?e)}".into());
        v
    };
    for backend in ["P-Grid", "Chord+buckets"] {
        let cell = if backend == "P-Grid" {
            let mut c = UniCluster::build(16, pgrid_fault_cfg().with_min_coverage(0.9), SEED);
            c.load(world.all_tuples());
            measure(&mut c, &[NodeId(0)], &mixed, SimTime::from_micros(0), 120_000.0)
        } else {
            let mut c =
                ChordUniCluster::build_overlay(16, chord_fault_cfg().with_min_coverage(0.9), SEED);
            c.load(world.all_tuples());
            measure(&mut c, &[NodeId(0)], &mixed, SimTime::from_micros(0), 120_000.0)
        };
        rows.push(FaultRow {
            backend,
            scenario: "healthy",
            mix: "mixed",
            policy: "adaptive+hedged",
            queries: mixed.len(),
            completed: cell.0,
            cov90: cell.1,
            mean_cov: cell.2,
            p50_ms: cell.3,
            p99_ms: cell.4,
            hedges: cell.5,
        });
    }

    // --- Moderate churn + 2% loss, point and scan mixes. ------------
    const N_CHURN_Q: usize = 60;
    let points =
        unistore_workload::zipf_read_queries(&world, "published_in", N_CHURN_Q, 1.1, SEED ^ 2);
    let scans: Vec<String> = (0..N_CHURN_Q)
        .map(|i| {
            match i % 3 {
                0 => "SELECT ?n WHERE {(?a,'name',?n)}",
                1 => "SELECT ?c WHERE {(?x,'confname',?c)}",
                _ => "SELECT ?n,?g WHERE {(?a,'name',?n) (?a,'age',?g) FILTER ?g < 40}",
            }
            .to_string()
        })
        .collect();
    for (mix, queries) in [("points", &points), ("scans", &scans)] {
        for backend in ["P-Grid", "Chord+buckets"] {
            let cell = if backend == "P-Grid" {
                let c = UniCluster::build(24, pgrid_fault_cfg().with_min_coverage(0.9), SEED);
                churn_cell(c, &world, queries)
            } else {
                let c = ChordUniCluster::build_overlay(
                    24,
                    chord_fault_cfg().with_min_coverage(0.9),
                    SEED,
                );
                churn_cell(c, &world, queries)
            };
            rows.push(FaultRow {
                backend,
                scenario: "churn+loss2%",
                mix,
                policy: "adaptive+hedged",
                queries: queries.len(),
                completed: cell.0,
                cov90: cell.1,
                mean_cov: cell.2,
                p50_ms: cell.3,
                p99_ms: cell.4,
                hedges: cell.5,
            });
        }
    }

    // --- Degraded path: adaptive+hedged vs fixed-interval retries. --
    let degraded = unistore_workload::zipf_read_queries(&world, "published_in", 48, 0.0, SEED ^ 5);
    let fixed = BackoffPolicy {
        rtt_multiplier: 0.0,
        min_attempt: SimTime::from_secs(10),
        hedging: false,
        hedge_multiplier: 2.0,
    };
    for (policy_label, policy) in
        [("adaptive+hedged", BackoffPolicy::default()), ("fixed-10s", fixed)]
    {
        for backend in ["P-Grid", "Chord+buckets"] {
            let cell = if backend == "P-Grid" {
                let cfg = pgrid_fault_cfg().with_min_coverage(1.0).with_backoff(policy);
                degraded_cell(UniCluster::build(16, cfg, SEED), &world, &degraded)
            } else {
                let cfg = chord_fault_cfg().with_min_coverage(1.0).with_backoff(policy);
                degraded_cell(ChordUniCluster::build_overlay(16, cfg, SEED), &world, &degraded)
            };
            rows.push(FaultRow {
                backend,
                scenario: "loss5%",
                mix: "points",
                policy: policy_label,
                queries: degraded.len(),
                completed: cell.0,
                cov90: cell.1,
                mean_cov: cell.2,
                p50_ms: cell.3,
                p99_ms: cell.4,
                hedges: cell.5,
            });
        }
    }

    println!("\n## Faults — availability matrix (fault class x backend x policy)\n");
    header(&[
        "backend", "scenario", "mix", "policy", "q", "done", "cov>=.9", "mean cov", "p50 ms",
        "p99 ms", "hedges",
    ]);
    for r in &rows {
        row(&[
            r.backend.to_string(),
            r.scenario.to_string(),
            r.mix.to_string(),
            r.policy.to_string(),
            r.queries.to_string(),
            r.completed.to_string(),
            r.cov90.to_string(),
            f(r.mean_cov),
            f(r.p50_ms),
            f(r.p99_ms),
            r.hedges.to_string(),
        ]);
    }

    // Floors. Healthy path: the masking layer must be invisible —
    // everything completes at full coverage.
    for r in rows.iter().filter(|r| r.scenario == "healthy") {
        assert!(
            r.completed == r.queries && (r.mean_cov - 1.0).abs() < 1e-12,
            "{}: healthy path must complete {}/{} at coverage 1.0 (got {} at {:.4})",
            r.backend,
            r.queries,
            r.queries,
            r.completed,
            r.mean_cov
        );
    }
    // Moderate churn + 2% loss, point reads: >= 95% of queries answer
    // with coverage >= 0.9 on BOTH backends (P-Grid via replica
    // failover, Chord via its exact/bucket mirror pair).
    for r in rows.iter().filter(|r| r.scenario == "churn+loss2%" && r.mix == "points") {
        let floor = (r.queries * 95).div_ceil(100);
        assert!(
            r.cov90 >= floor,
            "{} churn points: {}/{} answered with coverage >= 0.9, floor {}",
            r.backend,
            r.cov90,
            r.queries,
            floor
        );
    }
    // Scan mixes degrade by design: P-Grid trees route around dead
    // replicas, Chord scans are primary-bound. Floors pin the measured
    // gap so a regression on either side is loud.
    for r in rows.iter().filter(|r| r.scenario == "churn+loss2%" && r.mix == "scans") {
        let floor = if r.backend == "P-Grid" { (r.queries * 80) / 100 } else { r.queries / 4 };
        assert!(
            r.cov90 >= floor,
            "{} churn scans: {}/{} answered with coverage >= 0.9, floor {}",
            r.backend,
            r.cov90,
            r.queries,
            floor
        );
    }
    // Degraded path: hedged adaptive retries must beat the fixed
    // baseline's p99 — and must actually hedge.
    for backend in ["P-Grid", "Chord+buckets"] {
        let cell = |policy: &str| {
            rows.iter()
                .find(|r| r.scenario == "loss5%" && r.backend == backend && r.policy == policy)
                .expect("cell")
        };
        let (hedged, fixed) = (cell("adaptive+hedged"), cell("fixed-10s"));
        println!(
            "{backend} loss5%: p99 {} ms hedged vs {} ms fixed, {} hedges",
            f(hedged.p99_ms),
            f(fixed.p99_ms),
            hedged.hedges
        );
        assert!(
            hedged.p99_ms < fixed.p99_ms,
            "{backend}: hedged p99 ({:.1} ms) must beat fixed-retry p99 ({:.1} ms)",
            hedged.p99_ms,
            fixed.p99_ms
        );
        assert!(hedged.hedges > 0, "{backend}: the hedged cell never hedged");
        assert!(fixed.hedges == 0, "{backend}: the fixed cell must not hedge");
        assert!(
            hedged.completed >= fixed.completed,
            "{backend}: hedging lost completions ({} vs {})",
            hedged.completed,
            fixed.completed
        );
    }

    let mut json = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "  {{\"backend\": \"{}\", \"scenario\": \"{}\", \"mix\": \"{}\", \
             \"policy\": \"{}\", \"queries\": {}, \"completed\": {}, \"cov90\": {}, \
             \"mean_cov\": {:.4}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"hedges\": {}}}{}\n",
            r.backend,
            r.scenario,
            r.mix,
            r.policy,
            r.queries,
            r.completed,
            r.cov90,
            r.mean_cov,
            r.p50_ms,
            r.p99_ms,
            r.hedges,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str("]\n");
    std::fs::write("BENCH_faults.json", &json).expect("write BENCH_faults.json");
    println!("wrote BENCH_faults.json ({} rows)", rows.len());
}

/// One measured cell of the scale-and-churn campaign.
struct ScaleRow {
    backend: &'static str,
    n: usize,
    build_ms: f64,
    offered: usize,
    completed: usize,
    cov90: usize,
    mean_cov: f64,
    qps_sim: f64,
    p50_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
    retries: u64,
    hedges: u64,
    suppressed: u64,
    attempts: u64,
    writes_ok: u64,
    writes_err: u64,
    gini_load: f64,
    stale_frac: f64,
    repair_s: f64,
    downs: u64,
    ups: u64,
    wall_ms: f64,
}

/// Headless CI entry #6: the scale-and-churn survival campaign
/// (DESIGN.md §"Scale and churn"). Each cell runs one deployment size
/// under *everything at once*: moderate exponential churn, 2% uniform
/// loss, a partition window with a correlated mass failure inside it, a
/// delay spike, and sustained Zipf-skewed mixed read/write traffic
/// driven through the pipelined admission window. Writes
/// `BENCH_scale.json`. `smoke` restricts the sweep to {64, 256} (the CI
/// setting); the default adds 1024 (the acceptance scale); `full` adds
/// 4096.
///
/// In-code floors: ≥95% of offered queries answer with coverage ≥0.9 on
/// BOTH backends at every size; total attempts (initial + retries +
/// hedges) stay ≤3× offered (the retry-storm bound); the replication
/// repair of a write issued *during* the failure window converges after
/// revival.
fn scale_snapshot(args: &[String]) {
    let sizes: Vec<usize> = if args.iter().any(|a| a == "smoke") {
        vec![64, 256]
    } else if args.iter().any(|a| a == "full") {
        vec![64, 256, 1024, 4096]
    } else {
        vec![64, 256, 1024]
    };
    let world = PubWorld::generate(
        &PubParams { n_authors: 60, n_conferences: 15, ..Default::default() },
        SEED,
    );

    fn pgrid_scale_cfg() -> UniConfig {
        let mut cfg = UniConfig::default()
            .with_replication(3)
            .with_maintenance(SimTime::from_secs(30), SimTime::from_secs(60))
            .with_min_coverage(0.9);
        cfg.overlay.refs_per_level = 4;
        cfg.query_timeout = SimTime::from_secs(30);
        cfg.overlay.query_timeout = SimTime::from_secs(8);
        cfg
    }
    fn chord_scale_cfg() -> UniConfig<ChordConfig> {
        let mut cfg = chord_config().with_min_coverage(0.9);
        cfg.overlay.replicate = true;
        cfg.overlay.anti_entropy_interval = SimTime::from_secs(60);
        cfg.overlay.ping_interval = SimTime::from_secs(20);
        cfg.query_timeout = SimTime::from_secs(30);
        cfg.overlay.query_timeout = SimTime::from_secs(8);
        cfg
    }

    /// The *live* replica group of `key`: the union, over all up
    /// primaries, of [`Overlay::replica_group`]. Tracks runtime drift
    /// (P-Grid path migrations, Chord successor re-pointing) that the
    /// build-time topology plan cannot see.
    fn live_group<O: Overlay<Item = Triple>>(
        cluster: &UniCluster<O>,
        key: Key,
    ) -> (Vec<NodeId>, Vec<NodeId>) {
        let mut primaries = Vec::new();
        let mut group = Vec::new();
        for i in 0..cluster.net.len() as u32 {
            let id = NodeId(i);
            if !cluster.net.is_up(id) {
                continue;
            }
            let g = cluster.net.node(id).overlay.replica_group(key);
            if !g.is_empty() {
                primaries.push(id);
                group.extend(g);
            }
        }
        group.sort_unstable();
        group.dedup();
        (group, primaries)
    }

    /// Repair-convergence predicate: every up member of the live
    /// replica group holds the key, and at least one member is up.
    fn converged<O: Overlay<Item = Triple>>(cluster: &UniCluster<O>, key: Key) -> bool {
        let (group, _) = live_group(cluster, key);
        let up: Vec<NodeId> = group.into_iter().filter(|&h| cluster.net.is_up(h)).collect();
        !up.is_empty() && up.iter().all(|&h| cluster.net.node(h).overlay.holds(key))
    }

    /// One full campaign cell: moderate churn and 2% loss throughout;
    /// once traffic is flowing, a partition island is cut around part
    /// of the canary key's *live* replica group (with a correlated mass
    /// failure inside it), a canary write is issued mid-window through
    /// client retries, and after the window a global delay spike hits
    /// while the drain finishes. Repair lag is the time from window
    /// close until the live replica group converges on the canary.
    fn campaign<O: Overlay<Item = Triple>>(
        backend: &'static str,
        mut cluster: UniCluster<O>,
        n: usize,
        build_ms: f64,
        world: &PubWorld,
    ) -> ScaleRow {
        let wall0 = std::time::Instant::now();
        cluster.load(world.all_tuples());
        let reads =
            unistore_workload::zipf_read_queries(world, "published_in", 120, 1.1, SEED ^ 11);
        let writes =
            unistore_workload::zipf_write_batches(world, "published_in", 12, 6, 1.1, SEED ^ 13);
        let canaries: Vec<Tuple> = (0..4)
            .map(|k| Tuple::new(&format!("canary{k}")).with("rtag", Value::str("canary")))
            .collect();
        let canary_key = attr_value_key("rtag", &Value::str("canary"));

        let mut rng = unistore_util::rng::derive_rng(SEED, unistore_util::rng::stream::CHURN);
        let churned = install_churn(
            &mut cluster.net,
            &mut rng,
            &ChurnConfig::moderate(),
            SimTime::from_secs(3_600),
        );
        let origins: Vec<NodeId> =
            (0..n as u32).map(NodeId).filter(|id| !churned.contains(id)).take(8).collect();
        assert!(!origins.is_empty(), "churn spared no origin at n={n}");

        // Warm the origins' RTT windows while the network is healthy.
        let warm = unistore_workload::zipf_read_queries(world, "published_in", 16, 0.0, SEED ^ 17);
        for (i, q) in warm.iter().enumerate() {
            let _ = cluster.query(origins[i % origins.len()], q);
        }

        let t0 = cluster.net.now();
        cluster.net.set_loss_rate(0.02);

        let delivered_before: Vec<u64> = cluster.net.delivered_per_node().to_vec();
        let metrics_before = cluster.net.metrics();
        let t_start = cluster.net.now();
        let mut win: Option<Window> = None;
        let mut canary_acked = false;
        let (mut writes_ok, mut writes_err) = (0u64, 0u64);
        let mut repair_s: Option<f64> = None;
        for (i, q) in reads.iter().enumerate() {
            cluster.query_submit(origins[i % origins.len()], q).expect("query parses");
            if (i + 1) % 10 == 0 {
                let (ok, _) = cluster.insert_batch(
                    origins[(i / 10) % origins.len()],
                    &writes[(i / 10) % writes.len()],
                );
                writes_ok += ok as u64;
                writes_err += !ok as u64;
            }
            // Arm the fault windows once traffic has run for 45 s: the
            // island is cut around the canary's replica group *as it
            // exists right now* — secondaries first, always leaving at
            // least one primary and every query origin reachable, so
            // the canary write has somewhere to land and repair has a
            // source — padded with filler nodes to partition scale.
            if win.is_none() && cluster.net.now() >= t0 + SimTime::from_secs(45) {
                let (group, primaries) = live_group(&cluster, canary_key);
                let half = (group.len() / 2).max(1);
                let keep_primary = primaries.len().saturating_sub(1);
                let mut island: Vec<NodeId> = group
                    .iter()
                    .copied()
                    .filter(|m| !primaries.contains(m))
                    .chain(primaries.iter().copied().take(keep_primary))
                    .filter(|m| !origins.contains(m))
                    .take(half)
                    .collect();
                let island_size = (n / 32).max(4).min(n / 2);
                let mut cand = island.first().map(|h| h.0).unwrap_or(0);
                while island.len() < island_size {
                    cand = (cand + 1) % n as u32;
                    let c = NodeId(cand);
                    if !island.contains(&c) && !origins.contains(&c) && !group.contains(&c) {
                        island.push(c);
                    }
                }
                island.sort_unstable_by_key(|h| h.0);
                let now = cluster.net.now();
                let w = Window::new(now + SimTime::from_secs(10), now + SimTime::from_secs(100));
                let spike =
                    Window::new(w.until + SimTime::from_secs(30), w.until + SimTime::from_secs(60));
                cluster.net.set_fault_plan(
                    FaultPlan::new()
                        .partition("canary-island", island.iter().copied(), w)
                        .delay_spike(None, None, SimTime::from_millis(100), spike),
                );
                install_mass_failure(&mut cluster.net, &mut rng, &island, w, 0.5);
                win = Some(w);
            }
            // The canary is a *client-retried*, idempotent put. The
            // client re-issues it from rotating origins until the ack
            // lands (one routed attempt can die inside the partition
            // window: the batch protocol acks or fails, it does not
            // queue) and, because an ack from inside the window cannot
            // cover the island, again once the window has closed until
            // the key has converged at its live replica group. P-Grid
            // replicas that evicted each other across the partition
            // never re-learn each other (ROADMAP, "replication decays"),
            // so a severed replica gets the write only when a later put
            // routes to it. Puts up to the first ack count as
            // `writes_ok`/`writes_err`, write availability; later ones
            // are repair traffic. The repair clock is gated on the
            // canary *key*, not on the full-batch ack: the batch also
            // carries the canary tuples' other index entries, and one
            // churned-down owner among those delays the ack without
            // saying anything about replication repair of the key.
            if let Some(w) = win {
                let now = cluster.net.now();
                if repair_s.is_none()
                    && now >= w.from + SimTime::from_secs(5)
                    && (!canary_acked || now > w.until)
                {
                    let (ok, _) = cluster.insert_batch(origins[i % origins.len()], &canaries);
                    writes_ok += (ok && !canary_acked) as u64;
                    writes_err += (!ok && !canary_acked) as u64;
                    canary_acked |= ok;
                }
            }
            cluster.settle(SimTime::from_secs(2));
            if let Some(w) = win {
                if repair_s.is_none()
                    && cluster.net.now() > w.until
                    && converged(&cluster, canary_key)
                {
                    repair_s = Some(cluster.net.now().saturating_sub(w.until).as_secs_f64());
                }
            }
        }
        let outcomes = cluster.query_wait_all();
        let win = win.expect("fault window armed during traffic");

        // Keep polling repair convergence after the drain, capped.
        while repair_s.is_none() {
            if cluster.net.now().saturating_sub(win.until) >= SimTime::from_secs(600) {
                break;
            }
            if cluster.net.now() > win.until && converged(&cluster, canary_key) {
                repair_s = Some(cluster.net.now().saturating_sub(win.until).as_secs_f64());
                break;
            }
            let (ok, _) = cluster.insert_batch(origins[0], &canaries);
            writes_ok += (ok && !canary_acked) as u64;
            writes_err += (!ok && !canary_acked) as u64;
            canary_acked |= ok;
            cluster.settle(SimTime::from_secs(5));
        }

        let offered = reads.len();
        let mut completed = 0usize;
        let mut cov90 = 0usize;
        let mut covs: Vec<f64> = Vec::with_capacity(offered);
        let mut lat: Vec<f64> = Vec::with_capacity(offered);
        for (_, out) in &outcomes {
            let cov = out.coverage.fraction();
            completed += out.ok as usize;
            cov90 += (out.ok && cov >= 0.9) as usize;
            covs.push(cov);
            lat.push(if out.ok { out.cost.latency.as_micros() as f64 / 1000.0 } else { 120_000.0 });
        }
        let elapsed = cluster.net.now().saturating_sub(t_start).as_micros() as f64 / 1e6;
        let (p50, _, p99) = latency_summary(&lat);
        let p999 = percentile(&lat, 99.9);

        let (mut retries, mut hedges, mut suppressed) = (0u64, 0u64, 0u64);
        let (mut refs_total, mut refs_stale) = (0u64, 0u64);
        for i in 0..n as u32 {
            let node = cluster.net.node(NodeId(i));
            retries += node.retries;
            hedges += node.hedges;
            suppressed += node.suppressed;
            for r in node.overlay.routing_refs() {
                refs_total += 1;
                refs_stale += !cluster.net.is_up(r) as u64;
            }
        }
        let loads: Vec<f64> = cluster
            .net
            .delivered_per_node()
            .iter()
            .zip(&delivered_before)
            .map(|(a, b)| (a - b) as f64)
            .collect();
        let md = cluster.net.metrics().delta(&metrics_before);
        ScaleRow {
            backend,
            n,
            build_ms,
            offered,
            completed,
            cov90,
            mean_cov: covs.iter().sum::<f64>() / covs.len().max(1) as f64,
            qps_sim: completed as f64 / elapsed.max(1e-9),
            p50_ms: p50,
            p99_ms: p99,
            p999_ms: p999,
            retries,
            hedges,
            suppressed,
            attempts: offered as u64 + retries + hedges,
            writes_ok,
            writes_err,
            gini_load: gini(&loads),
            stale_frac: refs_stale as f64 / (refs_total.max(1)) as f64,
            repair_s: repair_s.unwrap_or(600.0),
            downs: md.downs,
            ups: md.ups,
            wall_ms: wall0.elapsed().as_secs_f64() * 1000.0,
        }
    }

    let mut rows: Vec<ScaleRow> = Vec::new();
    for &n in &sizes {
        let t = std::time::Instant::now();
        let c = UniCluster::build(n, pgrid_scale_cfg(), SEED);
        let build_ms = t.elapsed().as_secs_f64() * 1000.0;
        rows.push(campaign("P-Grid", c, n, build_ms, &world));

        let t = std::time::Instant::now();
        let c = ChordUniCluster::build_overlay(n, chord_scale_cfg(), SEED);
        let build_ms = t.elapsed().as_secs_f64() * 1000.0;
        rows.push(campaign("Chord+buckets", c, n, build_ms, &world));
    }

    println!("\n## Scale — churn + loss + partition + mass failure, mixed Zipf load\n");
    header(&[
        "backend", "N", "build ms", "q", "done", "cov>=.9", "qps(sim)", "p99 ms", "p999 ms", "att",
        "supp", "gini", "stale", "repair s",
    ]);
    for r in &rows {
        row(&[
            r.backend.to_string(),
            r.n.to_string(),
            f(r.build_ms),
            r.offered.to_string(),
            r.completed.to_string(),
            r.cov90.to_string(),
            f(r.qps_sim),
            f(r.p99_ms),
            f(r.p999_ms),
            r.attempts.to_string(),
            r.suppressed.to_string(),
            f(r.gini_load),
            f(r.stale_frac),
            f(r.repair_s),
        ]);
    }

    for r in &rows {
        let floor = (r.offered * 95).div_ceil(100);
        assert!(
            r.cov90 >= floor,
            "{} n={}: {}/{} queries answered with coverage >= 0.9, floor {}",
            r.backend,
            r.n,
            r.cov90,
            r.offered,
            floor
        );
        assert!(
            r.attempts <= 3 * r.offered as u64,
            "{} n={}: {} attempts for {} offered queries breaches the 3x retry-storm bound",
            r.backend,
            r.n,
            r.attempts,
            r.offered
        );
        assert!(
            r.repair_s < 600.0,
            "{} n={}: canary replicas never reconverged after the failure window",
            r.backend,
            r.n
        );
        assert!(
            (0.0..=1.0).contains(&r.gini_load) && (0.0..=1.0).contains(&r.stale_frac),
            "{} n={}: skew/staleness out of range",
            r.backend,
            r.n
        );
        assert!(r.downs > 0 && r.ups > 0, "{} n={}: no churn actually executed", r.backend, r.n);
    }
    // The paper's balancing claim, quantified at the largest measured
    // size: report P-Grid's load skew against Chord's.
    if let Some(&max_n) = sizes.iter().max() {
        let skew = |backend: &str| {
            rows.iter().find(|r| r.backend == backend && r.n == max_n).map(|r| r.gini_load)
        };
        if let (Some(p), Some(c)) = (skew("P-Grid"), skew("Chord+buckets")) {
            println!("\nload skew at N={max_n}: P-Grid gini {} vs Chord gini {}", f(p), f(c));
        }
    }

    let mut json = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "  {{\"backend\": \"{}\", \"n\": {}, \"build_ms\": {:.1}, \"offered\": {}, \
             \"completed\": {}, \"cov90\": {}, \"mean_cov\": {:.4}, \"qps_sim\": {:.3}, \
             \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"p999_ms\": {:.3}, \"retries\": {}, \
             \"hedges\": {}, \"suppressed\": {}, \"attempts\": {}, \"writes_ok\": {}, \
             \"writes_err\": {}, \"gini_load\": {:.4}, \"stale_frac\": {:.4}, \
             \"repair_s\": {:.1}, \"downs\": {}, \"ups\": {}, \"wall_ms\": {:.0}}}{}\n",
            r.backend,
            r.n,
            r.build_ms,
            r.offered,
            r.completed,
            r.cov90,
            r.mean_cov,
            r.qps_sim,
            r.p50_ms,
            r.p99_ms,
            r.p999_ms,
            r.retries,
            r.hedges,
            r.suppressed,
            r.attempts,
            r.writes_ok,
            r.writes_err,
            r.gini_load,
            r.stale_frac,
            r.repair_s,
            r.downs,
            r.ups,
            r.wall_ms,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str("]\n");
    std::fs::write("BENCH_scale.json", &json).expect("write BENCH_scale.json");
    println!("wrote BENCH_scale.json ({} rows)", rows.len());
}

/// One measured backend of the ingest snapshot.
struct IngestRow {
    backend: &'static str,
    triples: usize,
    msgs: u64,
    kib: f64,
    msgs_per_1k: f64,
    kib_per_1k: f64,
    wall_tps: f64,
}

/// Headless CI entry #3: the batched write pipeline. Ingests a tuple
/// stream through the routed write path on each backend — `insert_batch`
/// with 64-triple batches (per-hop `OpBatch` coalescing, shared
/// payloads, positional acks) — and writes `BENCH_ingest.json`. Asserts
/// in-code that messages and KiB per 1k triples stay under absolute
/// ceilings on BOTH backends, with oracle-identical query results
/// afterward.
fn ingest_snapshot() {
    const N_TUPLES: usize = 256; // 4 attributes each → 1024 triples
    const BATCH_TUPLES: usize = 16; // × 4 triples = batch size 64
    /// `(backend, msgs, KiB)` ceilings per 1k triples. The retired
    /// one-message-per-(key, op) write path measured 34 429 msgs /
    /// 1 062 KiB (P-Grid) and 85 702 msgs / 3 467 KiB (Chord) per 1k
    /// triples on this workload (BENCH_ingest.json as of PR 12); the
    /// batch pipeline's floors were ≥ 5× fewer messages and ≥ 2× fewer
    /// KiB, restated here as a fifth and a half of those figures.
    const CEILINGS: [(&str, f64, f64); 2] =
        [("P-Grid", 6885.0, 531.0), ("Chord+buckets", 17140.0, 1733.0)];
    let tuples: Vec<Tuple> = (0..N_TUPLES)
        .map(|i| {
            Tuple::new(&format!("obj{i}"))
                .with("name", Value::str(&format!("object-number-{i}")))
                .with("score", Value::Int((i % 100) as i64))
                .with("tag", Value::str(if i % 2 == 0 { "even" } else { "odd" }))
                .with("rank", Value::Int((i % 7) as i64))
        })
        .collect();
    let n_triples: usize = tuples.iter().map(|t| t.to_triples().len()).sum();
    let queries = [
        "SELECT ?x WHERE {(?x,'tag','even')}",
        "SELECT ?x,?s WHERE {(?x,'score',?s) FILTER ?s >= 10 AND ?s < 20}",
    ];
    let canon = |r: &unistore_query::Relation| {
        let mut rows: Vec<String> = r.rows.iter().map(|row| format!("{row:?}")).collect();
        rows.sort();
        rows
    };

    /// Drives one routed ingest of the tuple stream in `BATCH_TUPLES`
    /// calls, returning `(msgs, bytes, wall seconds)` plus the
    /// canonicalized answers to the verification queries.
    fn run<O: unistore_overlay::Overlay<Item = Triple>>(
        cluster: &mut UniCluster<O>,
        tuples: &[Tuple],
        queries: &[&str],
        canon: &dyn Fn(&unistore_query::Relation) -> Vec<String>,
    ) -> (u64, u64, f64, Vec<Vec<String>>) {
        let before = cluster.net.metrics();
        let t0 = std::time::Instant::now();
        for c in tuples.chunks(BATCH_TUPLES) {
            let origin = cluster.random_node();
            let (ok, _) = cluster.insert_batch(origin, c);
            assert!(ok, "ingest batch must be fully acked");
        }
        let wall = t0.elapsed().as_secs_f64();
        let d = cluster.net.metrics().delta(&before);
        let mut answers = Vec::new();
        for q in queries {
            let out = cluster.query(NodeId(0), q).expect("query parses");
            assert!(out.ok, "post-ingest query timed out");
            let oracle = canon(&cluster.oracle().query(q).expect("oracle parses"));
            let got = canon(&out.relation);
            assert_eq!(got, oracle, "post-ingest answers must match the oracle: {q}");
            answers.push(got);
        }
        (d.sent, d.bytes, wall, answers)
    }

    // Quiet stats dissemination so the measured traffic is exactly the
    // write pipeline.
    let quiet = SimTime::from_secs(1_000_000_000);
    let mut rows: Vec<IngestRow> = Vec::new();
    let mut answers: Vec<Vec<Vec<String>>> = Vec::new();
    for (backend, _, _) in CEILINGS {
        let (msgs, bytes, wall, ans) = if backend == "P-Grid" {
            let cfg = UniConfig::default().with_stats_refresh(quiet);
            run(&mut UniCluster::build(64, cfg, SEED), &tuples, &queries, &canon)
        } else {
            let cfg = chord_config().with_stats_refresh(quiet);
            run(&mut ChordUniCluster::build_overlay(64, cfg, SEED), &tuples, &queries, &canon)
        };
        answers.push(ans);
        rows.push(IngestRow {
            backend,
            triples: n_triples,
            msgs,
            kib: bytes as f64 / 1024.0,
            msgs_per_1k: msgs as f64 * 1000.0 / n_triples as f64,
            kib_per_1k: bytes as f64 / 1024.0 * 1000.0 / n_triples as f64,
            wall_tps: n_triples as f64 / wall.max(1e-9),
        });
    }
    assert!(answers.windows(2).all(|w| w[0] == w[1]), "both backends must agree on answers");

    // What such a write costs the statistics plane: the digest of one
    // 64-tuple Zipf batch, which the next stats flush hands to every
    // peer whichever backend routed the writes.
    use unistore_util::wire::Wire;
    /// Ceiling on `StatsDelta` bytes per recorded triple: a third of
    /// the 26.3 B the batch's triples average when shipped as a list.
    const DELTA_BYTES_PER_TRIPLE_CEILING: f64 = 8.8;
    let world = PubWorld::generate(
        &PubParams { n_authors: 60, n_conferences: 15, ..Default::default() },
        SEED,
    );
    let batch = unistore_workload::zipf_write_batches(&world, "published_in", 1, 64, 1.1, SEED);
    let mut delta = unistore_query::StatsDelta::new();
    let mut flat_bytes = 0;
    for t in batch.iter().flatten().flat_map(Tuple::to_triples) {
        flat_bytes += t.wire_size();
        delta.record_insert(t);
    }
    let delta_bytes_per_triple = delta.wire_size() as f64 / delta.len() as f64;
    println!(
        "\nstats digest of one 64-tuple Zipf batch: {} B for {} triples ({:.2} B/triple; \
         the triples themselves encode to {flat_bytes} B)",
        delta.wire_size(),
        delta.len(),
        delta_bytes_per_triple
    );
    assert!(
        delta_bytes_per_triple <= DELTA_BYTES_PER_TRIPLE_CEILING,
        "stats digest costs {delta_bytes_per_triple:.2} B per triple, over the \
         {DELTA_BYTES_PER_TRIPLE_CEILING} ceiling"
    );

    println!("\n## Ingest — batched write pipeline (batch size 64)\n");
    header(&["backend", "triples", "msgs", "KiB", "msgs/1k", "KiB/1k", "triples/s"]);
    for r in &rows {
        row(&[
            r.backend.to_string(),
            r.triples.to_string(),
            r.msgs.to_string(),
            f(r.kib),
            f(r.msgs_per_1k),
            f(r.kib_per_1k),
            f(r.wall_tps),
        ]);
    }
    for (r, (backend, max_msgs, max_kib)) in rows.iter().zip(CEILINGS) {
        assert!(
            r.msgs_per_1k <= max_msgs,
            "{backend}: {:.1} msgs per 1k triples exceeds the {max_msgs} ceiling",
            r.msgs_per_1k
        );
        assert!(
            r.kib_per_1k <= max_kib,
            "{backend}: {:.1} KiB per 1k triples exceeds the {max_kib} ceiling",
            r.kib_per_1k
        );
    }

    let mut json = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "  {{\"backend\": \"{}\", \"batch_triples\": {}, \
             \"triples\": {}, \"msgs\": {}, \"kib\": {:.3}, \"msgs_per_1k\": {:.3}, \
             \"kib_per_1k\": {:.3}, \"wall_triples_per_sec\": {:.1}, \
             \"stats_delta_bytes_per_triple\": {:.3}}}{}\n",
            r.backend,
            BATCH_TUPLES * 4,
            r.triples,
            r.msgs,
            r.kib,
            r.msgs_per_1k,
            r.kib_per_1k,
            r.wall_tps,
            delta_bytes_per_triple,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str("]\n");
    std::fs::write("BENCH_ingest.json", &json).expect("write BENCH_ingest.json");
    println!("wrote BENCH_ingest.json ({} rows)", rows.len());
}

/// Headless CI entry #2: the statistics-maintenance trajectory. Writes
/// `BENCH_stats.json` with (a) the per-insert overhead of incremental
/// delta maintenance vs the old rebuild-from-scratch path and (b) the
/// plan quality a runtime-insert workload observes — the estimate the
/// planner prices a freshly inserted attribute at, against the stale
/// floor and the true cardinality.
fn stats_snapshot() {
    use std::time::Instant;
    use unistore_query::cost::NetParams;
    use unistore_query::GlobalStats;

    let world = PubWorld::generate(
        &PubParams { n_authors: 80, n_conferences: 15, ..Default::default() },
        SEED,
    );
    let triples: Vec<Triple> = world.all_tuples().iter().flat_map(Tuple::to_triples).collect();
    let net = NetParams { n_peers: 64.0, n_leaves: 64.0, replication: 1.0, hop_ms: 40.0 };
    let extra: Vec<Triple> = (0..500i64)
        .map(|i| Triple::new(&format!("item{i}"), "rating", Value::Int(i % 5)))
        .collect();

    // (a) incremental maintenance: O(delta) per write.
    let mut incr = GlobalStats::build(&triples, net);
    let t0 = Instant::now();
    for t in &extra {
        incr.apply_insert(t);
    }
    let incr_us = t0.elapsed().as_secs_f64() * 1e6 / extra.len() as f64;

    // (b) the pre-delta path: rebuild from scratch after every write
    // (measured over fewer rounds — it is quadratic by construction).
    let mut all = triples.clone();
    let rounds = 50usize;
    let t0 = Instant::now();
    for t in extra.iter().take(rounds) {
        all.push(t.clone());
        std::hint::black_box(GlobalStats::build(&all, net));
    }
    let rebuild_us = t0.elapsed().as_secs_f64() * 1e6 / rounds as f64;
    let speedup = rebuild_us / incr_us.max(1e-9);

    // Plan quality under a runtime-insert workload: freeze the
    // load-time snapshot, push a brand-new attribute through the routed
    // path, and compare what each snapshot prices the attribute at.
    let mut cluster = UniCluster::build(16, UniConfig::default(), SEED);
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
    let est_fresh = fresh.scan(&scan, None).cardinality;
    let est_stale = stale.scan(&scan, None).cardinality;
    let actual = {
        let mut oracle = cluster.oracle();
        oracle.query("SELECT ?x WHERE {(?x,'rating',1)}").unwrap().rows.len() as f64
    };
    let out = cluster.query(origin, "SELECT ?x WHERE {(?x,'rating',1)}").unwrap();
    assert!(out.ok && out.relation.rows.len() as f64 == actual, "runtime-insert query answers");
    let choice = cluster
        .take_traces()
        .into_iter()
        .find(|d| d.pattern.contains("rating"))
        .map(|d| d.choice)
        .unwrap_or_default();

    assert!(
        speedup > 10.0,
        "incremental stats must beat per-write rebuilds decisively (got {speedup:.1}x)"
    );
    println!(
        "\nstats maintenance: {incr_us:.2} us/insert incremental vs {rebuild_us:.2} us/insert \
         rebuild ({speedup:.0}x) over {} triples",
        triples.len()
    );
    println!(
        "runtime-insert plan: choice={choice}, est {est_fresh:.1} rows fresh / {est_stale:.1} \
         stale-floor, actual {actual}"
    );
    let json = format!(
        "{{\n  \"dataset_triples\": {},\n  \"incremental_us_per_insert\": {incr_us:.4},\n  \
         \"rebuild_us_per_insert\": {rebuild_us:.4},\n  \"speedup\": {speedup:.2},\n  \
         \"runtime_insert_plan_choice\": \"{choice}\",\n  \"est_rows_fresh\": {est_fresh:.3},\n  \
         \"est_rows_stale_floor\": {est_stale:.3},\n  \"actual_rows\": {actual}\n}}\n",
        triples.len()
    );
    std::fs::write("BENCH_stats.json", &json).expect("write BENCH_stats.json");
    println!("wrote BENCH_stats.json");
}

/// E7 — claim C6: the q-gram index makes string similarity efficient.
fn e7_qgram() {
    println!("\n## E7 — similarity cost vs dataset size (claim: q-gram index scales)\n");
    header(&["string triples", "k", "strategy", "msgs", "bytes", "rows"]);
    for n_conf in [200usize, 1000, 4000] {
        let world = PubWorld::generate(
            &PubParams {
                n_authors: 2,
                n_conferences: n_conf,
                typo_rate: 0.2,
                ..Default::default()
            },
            SEED,
        );
        // k = 1 only: with a 4-character target and k ≥ 2 the gram-count
        // guarantee lapses and the planner (correctly) refuses the
        // q-gram strategy — see `strategy::scan_candidates`.
        for k in [1usize] {
            let q = format!("SELECT ?s WHERE {{(?c,'series',?s) FILTER edist(?s,'ICDE')<={k}}}");
            let mut rows_seen = Vec::new();
            for (label, pref) in
                [("qgram", Some(ScanPref::QGram)), ("naive", Some(ScanPref::NaiveSimilarity))]
            {
                let mut cluster = UniCluster::build(64, UniConfig::default(), SEED);
                cluster.load(world.all_tuples());
                cluster.set_plan_mode(PlanMode { scan_pref: pref, ..Default::default() });
                let out = cluster.query(NodeId(0), &q).unwrap();
                assert!(out.ok);
                rows_seen.push(out.relation.len());
                row(&[
                    n_conf.to_string(),
                    k.to_string(),
                    label.to_string(),
                    out.cost.messages.to_string(),
                    out.cost.bytes.to_string(),
                    out.relation.len().to_string(),
                ]);
            }
            assert_eq!(rows_seen[0], rows_seen[1], "strategies must agree");
        }
    }
    println!("\nverdict: the q-gram index pays a fixed per-gram lookup fee but ships only");
    println!("count-filtered candidates — its *byte* cost beats the naive sweep and the gap");
    println!("grows with data size. Message-wise the naive sweep profits from the");
    println!("order-preserving layout clustering the whole attribute into few leaves; the");
    println!("optimizer weighs both and picks per situation (paper: \"each beneficial in");
    println!("special situations\").");
}

/// E8 — claim C1: "predict exact costs … almost all logarithmic".
fn e8_costmodel() {
    println!("\n## E8 — cost model: predicted vs measured messages/hops\n");
    let world = PubWorld::generate(
        &PubParams { n_authors: 120, n_conferences: 30, ..Default::default() },
        SEED,
    );
    let mut cluster = UniCluster::build(64, UniConfig::default(), SEED);
    cluster.load(world.all_tuples());
    // Execute at the origin (no plan forwarding) so measurement isolates
    // the scan operator itself.
    cluster.set_plan_mode(PlanMode { no_forward: true, ..Default::default() });
    let model = cluster.cost_model().expect("stats loaded");

    let cases: Vec<(&str, ScanStrategy, String)> = vec![
        (
            "av-lookup",
            ScanStrategy::AttrValueLookup { attr: "age".into(), value: Value::Int(30) },
            "SELECT ?x WHERE {(?x,'age',30)}".into(),
        ),
        (
            "oid-lookup",
            ScanStrategy::OidLookup { oid: "auth3".into() },
            "SELECT ?v WHERE {('auth3','age',?v)}".into(),
        ),
        (
            "range(narrow)",
            ScanStrategy::AttrRange {
                attr: "age".into(),
                lo: Some(Value::Int(30)),
                hi: Some(Value::Int(33)),
                algo: RangeAlgo::Parallel,
            },
            "SELECT ?g WHERE {(?a,'age',?g) FILTER ?g >= 30 AND ?g <= 33}".into(),
        ),
        (
            "range(wide)",
            ScanStrategy::AttrRange {
                attr: "age".into(),
                lo: None,
                hi: None,
                algo: RangeAlgo::Parallel,
            },
            "SELECT ?g WHERE {(?a,'age',?g)}".into(),
        ),
        (
            "qgram",
            ScanStrategy::QGram { attr: "series".into(), target: "ICDE".into(), k: 1 },
            "SELECT ?s WHERE {(?c,'series',?s) FILTER edist(?s,'ICDE')<2}".into(),
        ),
    ];
    header(&[
        "operator",
        "pred msgs (bound)",
        "meas msgs",
        "pred hops (bound)",
        "meas hops",
        "bound holds",
    ]);
    let mut all_bounded = true;
    for (label, strategy, q) in cases {
        let pref = match &strategy {
            ScanStrategy::QGram { .. } => Some(ScanPref::QGram),
            _ => None,
        };
        cluster.set_plan_mode(PlanMode { scan_pref: pref, no_forward: true, ..Default::default() });
        let est = model.scan(&strategy, None);
        let out = cluster.query(NodeId(5), &q).unwrap();
        assert!(out.ok);
        let holds = (out.cost.messages as f64) <= est.cost.messages
            && (out.cost.hops as f64) <= est.cost.depth;
        all_bounded &= holds;
        row(&[
            label.to_string(),
            f(est.cost.messages),
            out.cost.messages.to_string(),
            f(est.cost.depth),
            out.cost.hops.to_string(),
            holds.to_string(),
        ]);
    }
    println!("\nverdict: the model's predictions are worst-case guarantees (paper: \"for each");
    println!("physical operator … worst-case guarantees, almost all logarithmic\"); measured");
    println!("costs stay below them while preserving the ordering the optimizer needs.");
    assert!(all_bounded, "a worst-case bound was violated");
}

/// E9 — the paper's §2 flagship query end to end.
fn e9_skyline() {
    println!("\n## E9 — the paper's skyline query (§2 example)\n");
    let q = "SELECT ?name,?age,?cnt
             WHERE {(?a,'name',?name) (?a,'age',?age)
                    (?a,'num_of_pubs',?cnt)
                    (?a,'has_published',?title) (?p,'title',?title)
                    (?p,'published_in',?conf) (?c,'confname',?conf)
                    (?c,'series',?sr) FILTER edist(?sr,'ICDE')<3}
             ORDER BY SKYLINE OF ?age MIN, ?cnt MAX";
    header(&["peers", "rows", "msgs", "KiB", "latency (ms)", "oracle match"]);
    for n in [64usize, 256] {
        let world = PubWorld::generate(
            &PubParams { n_authors: 100, n_conferences: 20, ..Default::default() },
            SEED,
        );
        let mut cluster = UniCluster::build(n, UniConfig::default(), SEED);
        cluster.load(world.all_tuples());
        let out = cluster.query(NodeId(1), q).unwrap();
        assert!(out.ok);
        let mut oracle = cluster.oracle();
        let expected = oracle.query(q).unwrap();
        row(&[
            n.to_string(),
            out.relation.len().to_string(),
            out.cost.messages.to_string(),
            f(out.cost.bytes as f64 / 1024.0),
            f(out.cost.latency.as_millis_f64()),
            (out.relation.len() == expected.len()).to_string(),
        ]);
    }
    println!("\nverdict: similarity-filtered multi-join plus skyline runs end to end and matches the oracle.");
}

/// E10 — claim C8: updates with loose consistency (push/pull).
fn e10_updates() {
    println!("\n## E10 — update propagation with loose consistency\n");
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

    let mut stale_before = 0u32;
    let mut stale_after = 0u32;
    let mut reads = 0u32;
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

        // Immediately after revival: reads hitting any single replica.
        for origin in 0..5u32 {
            let (items, _) = cluster.raw_lookup(NodeId(origin * 4 % 24), key);
            let age = items.iter().find(|t| t.attr.as_ref() == "age");
            reads += 1;
            if age.is_none_or(|t| t.value.as_f64() != Some(new_val as f64)) {
                stale_before += 1;
            }
        }
        // After anti-entropy converges.
        cluster.settle(SimTime::from_secs(90));
        for origin in 0..5u32 {
            let (items, _) = cluster.raw_lookup(NodeId(origin * 4 % 24), key);
            let age = items.iter().find(|t| t.attr.as_ref() == "age");
            if age.is_none_or(|t| t.value.as_f64() != Some(new_val as f64)) {
                stale_after += 1;
            }
        }
    }
    header(&["phase", "stale reads", "total reads", "stale %"]);
    row(&[
        "right after update (1/3 replicas lagging)".into(),
        stale_before.to_string(),
        reads.to_string(),
        f(100.0 * stale_before as f64 / reads.max(1) as f64),
    ]);
    row(&[
        "after pull anti-entropy".into(),
        stale_after.to_string(),
        reads.to_string(),
        f(100.0 * stale_after as f64 / reads.max(1) as f64),
    ]);
    println!("\nverdict: reads can be stale immediately after an update (loose guarantees),");
    println!("and pull anti-entropy drives staleness to ~0 — the paper's [4] behaviour.");
}

/// E11 — claim C2: 1000+ peers, unreliable and highly dynamic.
fn e11_churn() {
    println!("\n## E11 — 1024 peers under churn (claim: robust in dynamic environments)\n");
    header(&["scenario", "success %", "p50 latency (ms)", "queries"]);
    for (label, churny) in [("stable", false), ("churn 40%", true)] {
        let mut cfg = UniConfig::default()
            .with_replication(4)
            .with_maintenance(SimTime::from_secs(30), SimTime::from_secs(60));
        cfg.overlay.refs_per_level = 4;
        cfg.overlay.ping_timeout = SimTime::from_secs(2);
        cfg.overlay.query_timeout = SimTime::from_secs(20);
        cfg.query_timeout = SimTime::from_secs(60);
        let world = PubWorld::generate(
            &PubParams { n_authors: 200, n_conferences: 30, ..Default::default() },
            SEED,
        );
        let mut cluster =
            UniCluster::build_with_latency(1024, cfg, PlanetLabLatency::new(SEED), SEED);
        cluster.load(world.all_tuples());
        if churny {
            let mut rng = unistore_util::rng::derive_rng(SEED, 5150);
            install_churn(
                &mut cluster.net,
                &mut rng,
                &ChurnConfig {
                    mean_session: SimTime::from_secs(180),
                    mean_downtime: SimTime::from_secs(45),
                    churn_fraction: 0.4,
                },
                SimTime::from_secs(1200),
            );
            cluster.settle(SimTime::from_secs(60));
        }
        let mut ok = 0u32;
        let mut total = 0u32;
        let mut lat = Vec::new();
        for i in 0..40u32 {
            cluster.settle(SimTime::from_secs(15));
            let origin = NodeId((i * 97) % 1024);
            if !cluster.net.is_up(origin) {
                continue;
            }
            total += 1;
            let author = format!("auth{}", i % 200);
            let out = cluster
                .query(origin, &format!("SELECT ?v WHERE {{('{author}','age',?v)}}"))
                .unwrap();
            if out.ok && !out.relation.is_empty() {
                ok += 1;
                lat.push(out.cost.latency.as_millis_f64());
            }
        }
        let (p50, _, _) = latency_summary(&lat);
        row(&[
            label.to_string(),
            f(100.0 * ok as f64 / total.max(1) as f64),
            f(p50),
            total.to_string(),
        ]);
    }
    println!("\nverdict: at 1024 peers queries stay answerable; churn costs some success");
    println!("percentage, recovered by replication + routing maintenance.");
}

/// E12 (bonus) — dynamic construction: the pairwise bootstrap protocol
/// converges to a working trie (paper §2, ref [1]).
fn e12_bootstrap() {
    println!("\n## E12 — bootstrap convergence (pairwise exchanges, no coordination)\n");
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
    let keys = spread_keys(encode_len(n as u64 * 16));
    for (i, &k) in keys.iter().enumerate() {
        c.net.node_mut(NodeId((i % n) as u32)).preload(k, RawItem(k), 0);
    }
    header(&["sim time (s)", "avg depth", "max depth", "refs/peer", "lookup success %"]);
    for checkpoint in [5u64, 20, 60, 180] {
        c.settle(SimTime::from_secs(checkpoint) - (c.net.now().saturating_sub(SimTime::ZERO)));
        let depths: Vec<f64> = c.net.iter_nodes().map(|(_, p)| p.path().len() as f64).collect();
        let refs: Vec<f64> =
            c.net.iter_nodes().map(|(_, p)| p.routing().ref_count() as f64).collect();
        let mut ok = 0;
        let trials = 40;
        for i in 0..trials {
            let origin = c.random_peer();
            let out = c.lookup(origin, keys[(i * 13) % keys.len()]);
            ok += (out.ok && !out.items.is_empty()) as u32;
        }
        row(&[
            checkpoint.to_string(),
            f(depths.iter().sum::<f64>() / n as f64),
            f(depths.iter().cloned().fold(0.0, f64::max)),
            f(refs.iter().sum::<f64>() / n as f64),
            f(100.0 * ok as f64 / trials as f64),
        ]);
    }
    println!("\nverdict: structure emerges from pairwise exchanges alone; lookups become");
    println!("answerable as paths specialize and reference tables fill.");
}

fn encode_len(n: u64) -> u64 {
    n
}
