//! Oracle tests: every distributed execution must produce exactly the
//! rows the local reference engine produces on the same data — over
//! *both* overlay backends. Each case runs the identical VQL text on a
//! P-Grid deployment and a Chord deployment of the same world and
//! asserts the three relations (P-Grid, Chord, oracle) are identical.

use unistore::backends::{chord_config, ChordUniCluster};
use unistore::{PlanMode, UniCluster, UniConfig};
use unistore_query::{JoinStrategy, Relation};
use unistore_store::Value;
use unistore_workload::{PubParams, PubWorld};

/// Canonical form: project columns in name order, sort rows.
fn normalize(rel: &Relation) -> Vec<Vec<String>> {
    let mut order: Vec<usize> = (0..rel.schema.len()).collect();
    order.sort_by_key(|&i| rel.schema[i].clone());
    let mut rows: Vec<Vec<String>> = rel
        .rows
        .iter()
        .map(|r| {
            order
                .iter()
                .map(|&i| match &r[i] {
                    // Canonicalize numerics across Int/Float.
                    v @ (Value::Int(_) | Value::Float(_)) => {
                        format!("{}", v.as_f64().unwrap())
                    }
                    Value::Str(s) => format!("'{s}'"),
                })
                .collect()
        })
        .collect();
    rows.sort();
    rows
}

/// One world, two deployments: the paper's native P-Grid substrate and
/// the Chord ring with its auxiliary bucket index.
struct BothBackends {
    pgrid: UniCluster,
    chord: ChordUniCluster,
}

fn check(both: &mut BothBackends, queries: &[&str]) {
    let oracle = both.pgrid.oracle();
    for (i, q) in queries.iter().enumerate() {
        let mut local = oracle.clone();
        let expected = normalize(&local.query(q).expect("oracle parses"));

        let origin = both.pgrid.random_node();
        let pg = both.pgrid.query(origin, q).expect("query parses");
        assert!(pg.ok, "query {i} timed out on P-Grid: {q}");
        // Nothing fails in these runs, so the completeness accounting
        // of the failure-masking layer must report full coverage.
        assert_eq!(pg.coverage.fraction(), 1.0, "query {i} partial on healthy P-Grid: {q}");
        let pg_rows = normalize(&pg.relation);
        assert_eq!(pg_rows, expected, "query {i} diverged from oracle on P-Grid: {q}");

        let origin = both.chord.random_node();
        let ch = both.chord.query(origin, q).expect("query parses");
        assert!(ch.ok, "query {i} timed out on Chord: {q}");
        assert_eq!(ch.coverage.fraction(), 1.0, "query {i} partial on healthy Chord: {q}");
        let ch_rows = normalize(&ch.relation);
        assert_eq!(ch_rows, expected, "query {i} diverged from oracle on Chord: {q}");

        // The acceptance bar for the pluggable overlay: identical
        // relations from both backends, not merely oracle-equal.
        assert_eq!(pg_rows, ch_rows, "query {i}: backends disagree: {q}");
    }
}

fn world_clusters(n_peers: usize, seed: u64) -> BothBackends {
    let world = PubWorld::generate(
        &PubParams { n_authors: 40, n_conferences: 10, ..Default::default() },
        seed,
    );
    let tuples = world.all_tuples();
    let mut pgrid = UniCluster::build(n_peers, UniConfig::default(), seed);
    pgrid.load(tuples.clone());
    let mut chord = ChordUniCluster::build_overlay(n_peers, chord_config(), seed);
    chord.load(tuples);
    BothBackends { pgrid, chord }
}

#[test]
fn point_and_range_queries_match_oracle() {
    let mut both = world_clusters(16, 42);
    check(
        &mut both,
        &[
            "SELECT ?n WHERE {(?a,'name',?n)}",
            "SELECT ?a WHERE {(?a,'age',30)}",
            "SELECT ?n,?g WHERE {(?a,'name',?n) (?a,'age',?g) FILTER ?g >= 30 AND ?g < 45}",
            "SELECT ?t WHERE {(?p,'title',?t) (?p,'year',?y) FILTER ?y >= 2003}",
            "SELECT ?c WHERE {(?x,'confname',?c)}",
        ],
    );
}

#[test]
fn join_queries_match_oracle() {
    let mut both = world_clusters(16, 43);
    check(
        &mut both,
        &[
            // Two-way join.
            "SELECT ?n,?t WHERE {(?a,'name',?n) (?a,'has_published',?t)}",
            // Three-way chain across entity types.
            "SELECT ?n,?conf WHERE {(?a,'name',?n) (?a,'has_published',?t)
             (?p,'title',?t) (?p,'published_in',?conf)}",
            // Four-way with a filter on the far end.
            "SELECT ?n WHERE {(?a,'name',?n) (?a,'has_published',?t)
             (?p,'title',?t) (?p,'published_in',?conf)
             (?c,'confname',?conf) (?c,'year',?y) FILTER ?y >= 2004}",
        ],
    );
}

#[test]
fn ranking_queries_match_oracle() {
    let mut both = world_clusters(16, 44);
    check(
        &mut both,
        &[
            "SELECT ?g,?n WHERE {(?a,'name',?n) (?a,'age',?g)} ORDER BY ?g, ?n",
            "SELECT ?n,?c WHERE {(?a,'name',?n) (?a,'num_of_pubs',?c)}
             ORDER BY SKYLINE OF ?c MAX",
            "SELECT ?g,?c WHERE {(?a,'age',?g) (?a,'num_of_pubs',?c)}
             ORDER BY SKYLINE OF ?g MIN, ?c MAX",
        ],
    );
}

#[test]
fn similarity_queries_match_oracle() {
    let mut both = world_clusters(16, 45);
    check(
        &mut both,
        &[
            "SELECT ?s WHERE {(?c,'series',?s) FILTER edist(?s,'ICDE')<3}",
            "SELECT ?cn WHERE {(?c,'series',?s) (?c,'confname',?cn)
             FILTER edist(?s,'VLDB')<=1}",
        ],
    );
}

#[test]
fn prefix_queries_match_oracle() {
    let mut both = world_clusters(16, 51);
    check(
        &mut both,
        &[
            // Native prefix search on the order-preserving index (served
            // by the bucket index on the Chord side).
            "SELECT ?cn WHERE {(?c,'confname',?cn) FILTER prefix(?cn,'ICDE')}",
            "SELECT ?n WHERE {(?a,'name',?n) FILTER prefix(?n,'alice')}",
            // Composed with a join.
            "SELECT ?n,?cn WHERE {(?a,'name',?n) (?a,'has_published',?t)
             (?p,'title',?t) (?p,'published_in',?cn) FILTER prefix(?cn,'VLDB')}",
        ],
    );
}

#[test]
fn paper_flagship_query_matches_oracle() {
    let mut both = world_clusters(24, 46);
    check(
        &mut both,
        &["SELECT ?name,?age,?cnt
           WHERE {(?a,'name',?name) (?a,'age',?age)
                  (?a,'num_of_pubs',?cnt)
                  (?a,'has_published',?title) (?p,'title',?title)
                  (?p,'published_in',?conf) (?c,'confname',?conf)
                  (?c,'series',?sr) FILTER edist(?sr,'ICDE')<3
           }
           ORDER BY SKYLINE OF ?age MIN, ?cnt MAX"],
    );
}

#[test]
fn schema_and_value_queries_match_oracle() {
    let mut both = world_clusters(16, 47);
    check(
        &mut both,
        &[
            // Schema-level: which attributes does an object have?
            "SELECT ?attr WHERE {('auth0',?attr,?v)}",
            // Value index: which objects carry a given value anywhere?
            "SELECT ?a,?attr WHERE {(?a,?attr,2005)}",
        ],
    );
}

#[test]
fn projection_only_queries_match_oracle() {
    // No filter, no ranking: the plan is scan + project, exercised both
    // on a single pattern and on a join whose columns are then dropped.
    let mut both = world_clusters(16, 52);
    check(
        &mut both,
        &[
            // Project the subject variable, dropping the matched value.
            "SELECT ?a WHERE {(?a,'num_of_pubs',?c)}",
            // Join two patterns, keep one column of one side.
            "SELECT ?t WHERE {(?a,'has_published',?t) (?p,'title',?t)}",
            // Keep every head variable (identity projection).
            "SELECT ?a,?g WHERE {(?a,'age',?g)}",
        ],
    );
}

#[test]
fn string_filter_queries_match_oracle() {
    // FILTER over string-typed values: equality, ordering (the
    // order-preserving index must agree with real string comparison),
    // and inequality composed with a join.
    let mut both = world_clusters(16, 53);
    check(
        &mut both,
        &[
            "SELECT ?a WHERE {(?a,'name',?n) FILTER ?n = 'alice-0'}",
            "SELECT ?s WHERE {(?c,'series',?s) FILTER ?s >= 'P' AND ?s < 'W'}",
            "SELECT ?n,?s WHERE {(?a,'name',?n) (?a,'has_published',?t)
             (?p,'title',?t) (?p,'published_in',?conf)
             (?c,'confname',?conf) (?c,'series',?s) FILTER ?s != 'ICDE'}",
        ],
    );
}

#[test]
fn multi_join_queries_match_oracle() {
    // Longer join chains than the basic join suite: five and six
    // patterns, joining through both subject and value positions.
    let mut both = world_clusters(16, 54);
    check(
        &mut both,
        &[
            // Five-way chain: author → publication → conference.
            "SELECT ?n,?cn,?y WHERE {(?a,'name',?n) (?a,'has_published',?t)
             (?p,'title',?t) (?p,'published_in',?cn)
             (?c,'confname',?cn) (?c,'year',?y)}",
            // Six-way: adds the author's age and a numeric filter at one
            // end plus a string filter at the other.
            "SELECT ?n,?g,?s WHERE {(?a,'name',?n) (?a,'age',?g)
             (?a,'has_published',?t) (?p,'title',?t)
             (?p,'published_in',?cn) (?c,'confname',?cn)
             (?c,'series',?s) FILTER ?g < 50 AND ?s >= 'E'}",
            // Star join: three attributes of the same subject.
            "SELECT ?n,?g,?c WHERE {(?a,'name',?n) (?a,'age',?g)
             (?a,'num_of_pubs',?c)}",
        ],
    );
}

#[test]
fn semi_join_forced_on_and_off_agree_with_oracle_on_both_backends() {
    // The semi-join acceptance bar: the Bloom filter may only remove
    // rows the hash join would discard, so forcing the pushdown on and
    // off (plain collect) must yield the *identical* relation — on both backends, and
    // equal to the oracle. Join shapes cover value- and
    // subject-position sharing and a range-shaped right side.
    let queries = [
        "SELECT ?n,?t WHERE {(?a,'name',?n) (?a,'has_published',?t)}",
        "SELECT ?n,?conf WHERE {(?a,'name',?n) (?a,'has_published',?t)
         (?p,'title',?t) (?p,'published_in',?conf)}",
        "SELECT ?n,?cn,?y WHERE {(?a,'name',?n) (?a,'has_published',?t)
         (?p,'title',?t) (?p,'published_in',?cn)
         (?c,'confname',?cn) (?c,'year',?y)}",
        "SELECT ?n,?g WHERE {(?a,'name',?n) (?a,'age',?g) FILTER ?g >= 30 AND ?g < 45}",
    ];
    let world = PubWorld::generate(
        &PubParams { n_authors: 40, n_conferences: 10, ..Default::default() },
        55,
    );
    let tuples = world.all_tuples();
    let modes = [
        PlanMode { join_pref: Some(JoinStrategy::SemiJoin), ..Default::default() },
        PlanMode { join_pref: Some(JoinStrategy::Collect), ..Default::default() },
    ];
    for q in queries {
        let mut relations: Vec<Vec<Vec<String>>> = Vec::new();
        for mode in modes {
            let mut pgrid = UniCluster::build(16, UniConfig::default(), 55);
            pgrid.load(tuples.clone());
            pgrid.set_plan_mode(mode);
            let expected = normalize(&pgrid.oracle().query(q).expect("oracle parses"));
            let origin = pgrid.random_node();
            let out = pgrid.query(origin, q).expect("query parses");
            assert!(out.ok, "P-Grid timed out ({mode:?}): {q}");
            assert_eq!(normalize(&out.relation), expected, "P-Grid vs oracle ({mode:?}): {q}");
            relations.push(normalize(&out.relation));

            let mut chord = ChordUniCluster::build_overlay(16, chord_config(), 55);
            chord.load(tuples.clone());
            chord.set_plan_mode(mode);
            let origin = chord.random_node();
            let out = chord.query(origin, q).expect("query parses");
            assert!(out.ok, "Chord timed out ({mode:?}): {q}");
            assert_eq!(normalize(&out.relation), expected, "Chord vs oracle ({mode:?}): {q}");
            relations.push(normalize(&out.relation));
        }
        assert!(
            relations.windows(2).all(|w| w[0] == w[1]),
            "semi-join on/off × backends disagree: {q}"
        );
    }
}

#[test]
fn batched_loads_match_the_oracle_on_both_backends() {
    // The batch-pipeline acceptance bar: routing a whole world through
    // `insert_batch` (per-hop OpBatch coalescing, shared payloads,
    // positional acks) must leave the indexes in exactly the state the
    // oracle holds — asserted through the full query stack, on BOTH
    // backends.
    let world =
        PubWorld::generate(&PubParams { n_authors: 8, n_conferences: 3, ..Default::default() }, 56);
    let tuples = world.all_tuples();
    let queries = [
        "SELECT ?n WHERE {(?a,'name',?n)}",
        "SELECT ?n,?g WHERE {(?a,'name',?n) (?a,'age',?g) FILTER ?g >= 30 AND ?g < 45}",
        "SELECT ?n,?t WHERE {(?a,'name',?n) (?a,'has_published',?t)}",
        "SELECT ?attr WHERE {('auth0',?attr,?v)}",
    ];
    let mut pgrid = UniCluster::build(16, UniConfig::default(), 56);
    let origin = pgrid.random_node();
    assert!(pgrid.insert_batch(origin, &tuples).0, "P-Grid routed load must be acked");
    let mut chord = ChordUniCluster::build_overlay(16, chord_config(), 56);
    let origin = chord.random_node();
    assert!(chord.insert_batch(origin, &tuples).0, "Chord routed load must be acked");
    for q in queries {
        let expected = normalize(&pgrid.oracle().query(q).expect("oracle parses"));
        let origin = pgrid.random_node();
        let out = pgrid.query(origin, q).expect("query parses");
        assert!(out.ok, "P-Grid timed out: {q}");
        assert_eq!(normalize(&out.relation), expected, "P-Grid vs oracle: {q}");
        let origin = chord.random_node();
        let out = chord.query(origin, q).expect("query parses");
        assert!(out.ok, "Chord timed out: {q}");
        assert_eq!(normalize(&out.relation), expected, "Chord vs oracle: {q}");
    }
}

#[test]
fn oracle_agreement_across_network_sizes() {
    for n in [4usize, 8, 32, 64] {
        let mut both = world_clusters(n, 48);
        check(&mut both, &["SELECT ?n,?g WHERE {(?a,'name',?n) (?a,'age',?g) FILTER ?g < 40}"]);
    }
}

#[test]
fn replication_does_not_duplicate_results() {
    // P-Grid-specific: replica groups answer the same scan; the result
    // must still be a set. (Chord keeps one copy per index instead and
    // is covered by the dual-index dedup in every other test.)
    let world = PubWorld::generate(&PubParams { n_authors: 30, ..Default::default() }, 49);
    let mut cluster = UniCluster::build(24, UniConfig::default().with_replication(3), 49);
    cluster.load(world.all_tuples());
    let oracle = cluster.oracle();
    for q in [
        "SELECT ?n WHERE {(?a,'name',?n)}",
        "SELECT ?n,?t WHERE {(?a,'name',?n) (?a,'has_published',?t)}",
    ] {
        let origin = cluster.random_node();
        let dist = cluster.query(origin, q).expect("query parses");
        assert!(dist.ok, "query timed out: {q}");
        let mut local = oracle.clone();
        let expected = local.query(q).expect("oracle parses");
        assert_eq!(normalize(&dist.relation), normalize(&expected), "diverged: {q}");
    }
}

#[test]
fn heterogeneous_world_with_mappings_matches_oracle() {
    let world = PubWorld::generate(
        &PubParams { n_authors: 30, n_conferences: 8, ..Default::default() },
        50,
    );
    let hetero = unistore_workload::hetero::heterogenize(&world, 2);
    let mut pgrid = UniCluster::build(16, UniConfig::default(), 50);
    pgrid.load(hetero.tuples.clone());
    let mut chord = ChordUniCluster::build_overlay(16, chord_config(), 50);
    chord.load(hetero.tuples.clone());
    for m in &hetero.mappings {
        pgrid.add_mapping(m);
        chord.add_mapping(m);
    }
    let mut both = BothBackends { pgrid, chord };
    // Query under the *original* schema; mapped tuples must surface on
    // both backends.
    check(&mut both, &["SELECT ?n WHERE {(?a,'name',?n)}"]);
    let origin = both.pgrid.random_node();
    let dist = both.pgrid.query(origin, "SELECT ?n WHERE {(?a,'name',?n)}").unwrap();
    assert_eq!(dist.relation.len(), 30, "all 30 authors despite split schemas");
}

/// The failure-masking layer at its strictest settings — a fail-fast
/// coverage floor, hedged retries, replication and (on Chord) liveness
/// probing — must be invisible on a healthy network: full coverage and
/// the exact oracle relations on both backends.
#[test]
fn failure_masking_is_invisible_on_the_healthy_path() {
    let world = PubWorld::generate(
        &PubParams { n_authors: 40, n_conferences: 10, ..Default::default() },
        57,
    );
    let tuples = world.all_tuples();
    let pg_cfg = UniConfig::default().with_replication(3).with_min_coverage(1.0);
    let mut pgrid = UniCluster::build(16, pg_cfg, 57);
    pgrid.load(tuples.clone());
    let mut ch_cfg = chord_config().with_min_coverage(1.0);
    ch_cfg.overlay.replicate = true;
    ch_cfg.overlay.ping_interval = unistore_simnet::SimTime::from_secs(10);
    let mut chord = ChordUniCluster::build_overlay(16, ch_cfg, 57);
    chord.load(tuples);
    let mut both = BothBackends { pgrid, chord };
    check(
        &mut both,
        &[
            "SELECT ?n WHERE {(?a,'name',?n)}",
            "SELECT ?a WHERE {(?a,'age',30)}",
            "SELECT ?n,?g WHERE {(?a,'name',?n) (?a,'age',?g) FILTER ?g >= 30 AND ?g < 45}",
            "SELECT ?n,?conf WHERE {(?a,'name',?n) (?a,'has_published',?t)
             (?p,'title',?t) (?p,'published_in',?conf)}",
            "SELECT ?cn WHERE {(?c,'confname',?cn) FILTER prefix(?cn,'ICDE')}",
        ],
    );
}
