//! `BENCH_joins.json`: collect vs fetch vs Bloom-filtered semi-join
//! pushdown on the multi-join workloads, both backends, every result
//! checked against the oracle. The cost model prices plans by shipped
//! bytes; this is where the semi-join earns its keep.

use std::path::Path;

use unistore::{PlanMode, UniCluster};
use unistore_query::JoinStrategy;
use unistore_simnet::NodeId;
use unistore_workload::{PubParams, PubWorld};

use crate::backend::{Backend, LABELS, SEED};
use crate::snapshot::{emit, find, Row};
use crate::{both_backends, canon};

/// The multi-join workloads, also E6's.
pub(crate) const QUERIES: [(&str, &str); 2] = [
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

/// Every (query, strategy) cell on one backend, each result asserted
/// equal to the local oracle. One deployment serves all cells; only the
/// planner mode changes between runs (queries are read-only and costs
/// are measured as metric deltas, so reuse is safe and keeps the CI step
/// cheap).
fn backend_rows<B: Backend>(world: &PubWorld) -> Vec<Row> {
    let strategies = [
        ("collect", Some(JoinStrategy::Collect)),
        ("fetch", Some(JoinStrategy::Fetch)),
        ("semi-join", Some(JoinStrategy::SemiJoin)),
        ("auto", None),
    ];
    let mut cluster = UniCluster::<B>::build_overlay(64, B::config(), SEED);
    cluster.load(world.all_tuples());
    let mut out = Vec::new();
    for (label, q) in QUERIES {
        let oracle = canon(&cluster.oracle().query(q).expect("oracle parses"));
        for (strategy, join_pref) in strategies {
            cluster.set_plan_mode(PlanMode { join_pref, ..Default::default() });
            let outcome = cluster.query(NodeId(0), q).expect("query parses");
            assert!(outcome.ok, "{label}/{strategy} timed out on {}", B::LABEL);
            assert_eq!(
                canon(&outcome.relation),
                oracle,
                "{label}/{strategy} diverged from the oracle on {}",
                B::LABEL
            );
            out.push(
                Row::new()
                    .str("query", label)
                    .str("backend", B::LABEL)
                    .str("strategy", strategy)
                    .int("msgs", outcome.cost.messages)
                    .int("hops", outcome.cost.hops.into())
                    .float("kib", outcome.cost.bytes as f64 / 1024.0, 3)
                    .float("latency_ms", outcome.cost.latency.as_millis_f64(), 3)
                    .int("rows", outcome.relation.len() as u64),
            );
        }
    }
    out
}

/// Runs the 3-way and 5-way join workloads under every join strategy on
/// both backends, rows ordered (query, strategy, backend).
///
/// The world is *universal-storage shaped*: besides the publication
/// graph it carries twice as many unpublished drafts, whose `title` and
/// `year` entries share the scanned index regions but join with
/// nothing. That is the regime the paper's Fig. 2 layout implies —
/// heterogeneous data accumulating in shared attribute regions — and
/// it is what collect ships to the plan holder while the semi-join
/// filter drops it at the leaves.
pub fn rows() -> Vec<Row> {
    let world = PubWorld::generate(
        &PubParams { n_authors: 80, n_conferences: 15, draft_fraction: 2.0, ..Default::default() },
        SEED,
    );
    let [pgrid, chord] = both_backends!(backend_rows(&world));
    pgrid.into_iter().zip(chord).flat_map(|(p, c)| [p, c]).collect()
}

/// Prints the semi-join's shipped-KiB reduction against collect and
/// checks the headline claim (≥ 30% on the 5-way join, both backends).
pub fn check_savings(rows: &[Row]) {
    println!();
    for (query, _) in QUERIES {
        for backend in LABELS {
            let kib = |strategy| {
                find(rows, &[("query", query), ("backend", backend), ("strategy", strategy)])
                    .get_float("kib")
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

/// Writes `BENCH_joins.json`.
pub fn snapshot() {
    emit(
        Path::new("BENCH_joins.json"),
        "Joins — strategies on the multi-join workloads (KiB is the headline column)",
        &rows(),
        check_savings,
    );
}
