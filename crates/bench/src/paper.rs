//! `BENCH_paper.json`: the paper's quantitative claims, E1–E10 and E12.
//! Every experiment returns its table lines as rows led by a `table`
//! label (`e1`, `e3-join`, `e6-vql`, …), and each claim that holds on
//! them is a floor asserted before the record is written. Claim C2,
//! robustness at 1000+ peers under churn, is gated by `scale-snapshot`
//! over 30 churn schedules per cell (`BENCH_scale.json`), so it has no
//! experiment here.

mod e1_e6;
mod e7_e12;

use std::path::Path;

use unistore::config::ScanPref;
use unistore::{PlanMode, QueryOutcome, UniCluster, UniConfig};
use unistore_pgrid::PGridConfig;
use unistore_simnet::{NodeId, SimTime};
use unistore_workload::{PubParams, PubWorld};

use crate::backend::SEED;
use crate::canon;
use crate::snapshot::{emit, Row};

const POINT: (&str, &str) = ("point", "SELECT ?v WHERE {('auth7','age',?v)}");
const RANGE: (&str, &str) =
    ("range", "SELECT ?n WHERE {(?a,'name',?n) (?a,'age',?g) FILTER ?g >= 30 AND ?g < 40}");
/// The paper's §2 flagship query: a similarity-filtered multi-join
/// plus skyline.
const SKYLINE: &str = "SELECT ?name,?age,?cnt
    WHERE {(?a,'name',?name) (?a,'age',?age)
           (?a,'num_of_pubs',?cnt)
           (?a,'has_published',?title) (?p,'title',?title)
           (?p,'published_in',?conf) (?c,'confname',?conf)
           (?c,'series',?sr) FILTER edist(?sr,'ICDE')<3}
    ORDER BY SKYLINE OF ?age MIN, ?cnt MAX";

/// Runs every experiment in paper order and writes `BENCH_paper.json`.
pub fn snapshot() {
    let rows = [e1_e6::rows(), e7_e12::rows()].concat();
    emit(Path::new("BENCH_paper.json"), "Paper — the claims of E1–E10 and E12", &rows, |rows| {
        e1_e6::floors(rows);
        e7_e12::floors(rows);
    });
}

/// `q` from node 0 of 64 fresh P-Grid peers holding `world`, planned
/// under `mode`; its answer is asserted equal to the oracle's.
fn checked_query(world: &PubWorld, mode: PlanMode, q: &str) -> QueryOutcome {
    let mut cluster = UniCluster::build(64, UniConfig::default(), SEED);
    cluster.load(world.all_tuples());
    cluster.set_plan_mode(mode);
    let out = cluster.query(NodeId(0), q).expect("query parses");
    assert!(out.ok, "{q} timed out");
    let expected = cluster.oracle().query(q).expect("oracle parses");
    assert_eq!(canon(&out.relation), canon(&expected), "{q} diverged from the oracle");
    out
}

/// The scan preferences a similarity query is run under, the optimizer's
/// own choice last.
const SCAN_ARMS: [(&str, Option<ScanPref>); 3] =
    [("qgram", Some(ScanPref::QGram)), ("naive", Some(ScanPref::NaiveSimilarity)), ("auto", None)];

/// `table`'s rows: the similarity query `q` under each of `arms`, over
/// worlds of `n_authors` authors and each of `sizes` conferences, a
/// fifth of their series misspelt.
fn similarity_arms(
    table: &str,
    n_authors: usize,
    sizes: &[usize],
    q: &str,
    arms: &[(&str, Option<ScanPref>)],
) -> Vec<Row> {
    let mut rows = Vec::new();
    for &n_conferences in sizes {
        let params = PubParams { n_authors, n_conferences, typo_rate: 0.2, ..Default::default() };
        let world = PubWorld::generate(&params, SEED);
        for &(strategy, scan_pref) in arms {
            let out = checked_query(&world, PlanMode { scan_pref, ..Default::default() }, q);
            rows.push(
                Row::new()
                    .str("table", table)
                    .int("conferences", n_conferences as u64)
                    .str("strategy", strategy)
                    .int("msgs", out.cost.messages)
                    .int("bytes", out.cost.bytes)
                    .float("latency_ms", out.cost.latency.as_millis_f64(), 3)
                    .int("rows", out.relation.len() as u64),
            );
        }
    }
    rows
}

/// The rows of one table of the record.
///
/// # Panics
/// Panics when the table has no rows: its floor would check nothing.
fn table<'a>(rows: &'a [Row], name: &str) -> Vec<&'a Row> {
    let found: Vec<&Row> = rows.iter().filter(|r| r.get_str("table") == name).collect();
    assert!(!found.is_empty(), "the record has no {name} table");
    found
}

fn quiet_pgrid() -> PGridConfig {
    PGridConfig {
        maintenance_interval: SimTime::from_secs(1_000_000_000),
        ..PGridConfig::default()
    }
}

fn spread_keys(n: u64) -> Vec<u64> {
    (0..n).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect()
}
