//! E1–E6: search cost, PlanetLab latencies, optimizer adaptivity, the
//! Fig. 2 layout, storage balance, and P-Grid vs Chord.

use unistore::backends::{chord_config, ChordUniCluster};
use unistore::config::ScanPref;
use unistore::{PlanMode, UniCluster, UniConfig};
use unistore_chord::node::ChordConfig;
use unistore_chord::{ChordCluster, ChordRangeMode};
use unistore_pgrid::cluster::Topology;
use unistore_pgrid::{PGridCluster, RangeMode};
use unistore_simnet::{ConstantLatency, NodeId, PlanetLabLatency, SimTime};
use unistore_store::index::{attr_value_key, oid_key, value_key};
use unistore_store::{Oid, Tuple, Value};
use unistore_util::item::RawItem;
use unistore_util::stats::gini;
use unistore_util::zipf::Zipf;
use unistore_workload::{PubParams, PubWorld};

use super::{quiet_pgrid, spread_keys};
use crate::backend::{Backend, Chord, PGrid, SEED};
use crate::snapshot::markdown;
use crate::{canon, f, header, joins, latency_summary, row};

/// E1 — claim C1: "logarithmic search complexity in the number of
/// nodes". A CI gate: at every size no lookup takes more than log₂N
/// hops, and the average stays within 0.4·log₂N + 0.5 — reads jump to
/// the reference matching the key the longest, so they take well under
/// one hop per trie level.
pub(super) fn e1_scalability() {
    println!("\n## E1 — lookup cost vs network size (claim: logarithmic)\n");
    header(&["peers N", "log2(N)", "avg hops", "max hops", "avg msgs"]);
    let mut over = Vec::new();
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
        let avg = hops.iter().sum::<f64>() / hops.len() as f64;
        let max = hops.iter().cloned().fold(0.0, f64::max);
        let log2 = exp as f64;
        if max > log2 || avg > 0.4 * log2 + 0.5 {
            over.push(format!("N = {n}: avg {avg:.2}, max {max}"));
        }
        row(&[
            n.to_string(),
            exp.to_string(),
            f(avg),
            f(max),
            f(msgs.iter().sum::<f64>() / msgs.len() as f64),
        ]);
    }
    assert!(over.is_empty(), "hops past max <= log2 N, avg <= 0.4 log2 N + 0.5: {over:?}");
    println!("\nverdict: hops grow with log2(N) and stay bounded by the trie depth.");
}

/// E2 — claim C3: "even with up to 400 PlanetLab nodes query answer
/// times are still only a couple of seconds".
pub(super) fn e2_planetlab() {
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
pub(super) fn e3_adaptivity() {
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
pub(super) fn e4_fig2() {
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
pub(super) fn e5_balance() {
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
pub(super) fn e6_chord() {
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
        let mut rows_set: Vec<u64> = out.entries.iter().map(|r| r.0).collect();
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
        let mut rows_set: Vec<u64> = out.entries.iter().map(|r| r.0).collect();
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
        assert_eq!(
            canon(&pg_out.relation),
            canon(&ch_out.relation),
            "{label}: backends must agree on the answer"
        );
        for (system, out) in [(PGrid::LABEL, &pg_out), (Chord::LABEL, &ch_out)] {
            row(&[
                label.to_string(),
                system.to_string(),
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
    let rows = joins::rows();
    print!("{}", markdown(&rows));
    joins::check_savings(&rows);
    println!("\nverdict: shipping a Bloom filter over the left side's join keys lets the");
    println!("leaves drop non-matching triples before replying — same message structure as");
    println!("collect, a fraction of its bytes, and identical relations on both backends.");
}
