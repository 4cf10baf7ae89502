//! Similarity search: the q-gram index vs naive evaluation (paper §2,
//! ref [6]) — same answers, very different network bills.
//!
//! ```sh
//! cargo run --example similarity_search
//! ```

use unistore::config::ScanPref;
use unistore::{PlanMode, UniCluster, UniConfig};
use unistore_query::Relation;
use unistore_workload::{PubParams, PubWorld};

fn main() {
    let world = PubWorld::generate(
        &PubParams {
            n_authors: 150,
            n_conferences: 40,
            typo_rate: 0.25, // plenty of misspelled series names
            ..Default::default()
        },
        21,
    );
    let query = "SELECT ?s,?cn WHERE {(?c,'series',?s) (?c,'confname',?cn)
                 FILTER edist(?s,'ICDE')<2}";

    println!("searching series names within edit distance 1 of 'ICDE'…\n");
    let mut answers = Vec::new();
    for (label, pref) in [
        ("q-gram index ", Some(ScanPref::QGram)),
        ("naive sweep   ", Some(ScanPref::NaiveSimilarity)),
        ("optimizer     ", None),
    ] {
        let mut cluster = UniCluster::build(64, UniConfig::default(), 21);
        cluster.load(world.all_tuples());
        cluster.set_plan_mode(PlanMode { scan_pref: pref, ..Default::default() });
        let origin = unistore_simnet::NodeId(0);
        let out = cluster.query(origin, query).unwrap();
        assert!(out.ok);
        println!(
            "{label}  → {:3} rows   {:5} messages   {:7} bytes   {} latency",
            out.relation.len(),
            out.cost.messages,
            out.cost.bytes,
            out.cost.latency
        );
        answers.push(canonical(&out.relation));
    }

    // All three strategies return the same rows.
    assert!(answers.windows(2).all(|w| w[0] == w[1]), "identical answers");
    println!("\nmatched series include the typo'd variants, e.g.:");
    let mut cluster = UniCluster::build(64, UniConfig::default(), 21);
    cluster.load(world.all_tuples());
    let out = cluster.query(unistore_simnet::NodeId(0), query).unwrap();
    let mut seen = std::collections::BTreeSet::new();
    for row in &out.relation.rows {
        if seen.insert(row[0].to_string()) && seen.len() <= 8 {
            println!("  {}", row[0]);
        }
    }
}

/// The relation's rows as text, sorted: equal for equal multisets of
/// rows whatever order they arrived in.
fn canonical(rel: &Relation) -> Vec<String> {
    let mut rows: Vec<String> = rel
        .rows
        .iter()
        .map(|r| r.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("\u{1f}"))
        .collect();
    rows.sort();
    rows
}
