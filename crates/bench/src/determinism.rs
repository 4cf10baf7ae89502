//! `determinism-check`: the CI gate behind the repo's central premise —
//! the simulator is a correctness oracle only while same-seed runs are
//! bit-identical. Runs the mixed E6-style VQL workload under moderate
//! churn plus 2% loss **twice** with the same seed, on **both**
//! backends, with the `SimNet` message-trace digest enabled, and
//! asserts the two runs produce identical trace digests, network
//! metrics, and result digests. Any hash-map iteration order, wall
//! clock, or entropy leak that reaches protocol behavior shows up here
//! as a digest mismatch (std `HashMap`'s per-map random seeds differ
//! even within one process, so a leak cannot hide behind a stable
//! environment).
//!
//! The first run's digests are committed as `BENCH_determinism.json`, so
//! CI's diff of the regenerated snapshots also catches a change in event
//! order or payload bytes *across* commits, not only between two runs.

use std::path::Path;

use unistore::UniCluster;
use unistore_simnet::churn::{install_churn, ChurnConfig};
use unistore_simnet::{NetMetrics, NodeId, SimTime};
use unistore_util::rng::{derive_rng, stream};
use unistore_workload::{zipf_read_queries, PubParams, PubWorld};

use crate::backend::{Backend, SEED};
use crate::both_backends;
use crate::snapshot::{emit, Row};

const FNV_OFFSET: u64 = 0xcbf29ce484222325;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// One full traced run: build → load → churn + loss → query mix.
/// Returns (trace digest, net metrics, result digest).
fn run<B: Backend>(peers: usize, world: &PubWorld, queries: &[String]) -> (u64, NetMetrics, u64) {
    let cfg = B::resilient(SimTime::from_secs(10), SimTime::from_secs(30)).with_min_coverage(0.9);
    let mut cluster = UniCluster::<B>::build_overlay(peers, cfg, SEED);
    // Load first: P-Grid re-plans its trie from the data and swaps
    // in a fresh network, which would drop the trace flag.
    cluster.load(world.all_tuples());
    cluster.net.set_trace(true);
    let mut rng = derive_rng(SEED, stream::CHURN);
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

/// Runs the workload twice on `B` at each size: one row per size (the
/// first run's numbers), plus a description of every pair of runs that
/// differed.
fn check<B: Backend>(world: &PubWorld, queries: &[String]) -> (Vec<Row>, Vec<String>) {
    let (mut rows, mut diverged) = (Vec::new(), Vec::new());
    for peers in [16, 64] {
        let (a, b) = (run::<B>(peers, world, queries), run::<B>(peers, world, queries));
        rows.push(
            Row::new()
                .str("backend", B::LABEL)
                .int("peers", peers as u64)
                .str("trace_digest", format!("{:#018x}", a.0))
                .int("msgs_sent", a.1.sent)
                .int("bytes", a.1.bytes)
                .str("result_digest", format!("{:#018x}", a.2)),
        );
        if a != b {
            diverged.push(format!(
                "{} at {peers} peers\n\
                 run 1: trace {:#018x} metrics {:?} results {:#018x}\n\
                 run 2: trace {:#018x} metrics {:?} results {:#018x}",
                B::LABEL,
                a.0,
                a.1,
                a.2,
                b.0,
                b.1,
                b.2
            ));
        }
    }
    (rows, diverged)
}

/// Runs the check and writes `BENCH_determinism.json`; panics, before
/// the file is written, on any divergence.
pub fn determinism_check() {
    let world = PubWorld::generate(
        &PubParams { n_authors: 40, n_conferences: 10, ..Default::default() },
        SEED,
    );
    let mut mixed = zipf_read_queries(&world, "published_in", 8, 0.8, SEED ^ 1);
    mixed.push("SELECT ?n WHERE {(?a,'name',?n)}".into());
    mixed.push("SELECT ?c WHERE {(?x,'confname',?c)}".into());
    mixed.push("SELECT ?n,?p WHERE {(?a,'name',?n) (?a,'num_of_pubs',?p) FILTER ?p < 8}".into());
    mixed.push("SELECT ?n,?g WHERE {(?a,'name',?n) (?a,'age',?g) FILTER ?g < 40}".into());

    let [(mut rows, mut diverged), (chord_rows, chord_diverged)] =
        both_backends!(check(&world, &mixed));
    rows.extend(chord_rows);
    diverged.extend(chord_diverged);
    emit(
        Path::new("BENCH_determinism.json"),
        "determinism-check — same-seed double runs must be bit-identical",
        &rows,
        |_| {
            assert!(
                diverged.is_empty(),
                "determinism-check FAILED: same-seed runs diverged\n{}",
                diverged.join("\n")
            )
        },
    );
    println!("\ndeterminism-check OK: both backends bit-identical across same-seed runs");
}
