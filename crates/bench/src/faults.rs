//! `BENCH_faults.json`: the failure-masking query layer. Runs the
//! availability matrix (fault class x backend x retry policy): a healthy
//! control, moderate churn + 2% message loss under point and scan mixes,
//! and a lossy degraded path where the adaptive hedged policy races a
//! fixed-interval retry baseline. In-code floors pin the availability
//! claims.

use std::path::Path;

use unistore::{BackoffPolicy, UniCluster, UniConfig};
use unistore_simnet::churn::{install_churn, ChurnConfig};
use unistore_simnet::{NodeId, SimTime};
use unistore_util::rng::{derive_rng, stream};
use unistore_workload::{zipf_read_queries, PubParams, PubWorld};

use crate::backend::{Backend, Chord, PGrid, LABELS, SEED};
use crate::snapshot::{emit, find, Row};
use crate::{both_backends, f, latency_summary};

/// Scan-mix floor under churn + loss, in percent of the mix answered
/// with coverage ≥ 0.9. Scans degrade by design: P-Grid trees route
/// around dead replicas, Chord scans are primary-bound. The floors pin
/// the measured gap so a regression on either side is loud.
const SCAN_FLOOR_PCT: [(&str, u64); 2] = [(PGrid::LABEL, 80), (Chord::LABEL, 25)];

/// The fault campaign's configuration: probes every 10 s, anti-entropy
/// every 30 s.
fn fault_cfg<B: Backend>() -> UniConfig<B::Config> {
    B::resilient(SimTime::from_secs(10), SimTime::from_secs(30))
}

/// What distinguishes one cell of the matrix in its row.
#[derive(Clone, Copy)]
struct Labels {
    scenario: &'static str,
    mix: &'static str,
    policy: &'static str,
}

/// Issues `queries` round-robin from `origins`, `spacing` apart.
/// Queries the layer gives up on are charged 120 s — the
/// client-observed time to a final answer — so no policy can flatter
/// its tail by failing fast.
fn measure<B: Backend>(
    cluster: &mut UniCluster<B>,
    origins: &[NodeId],
    queries: &[String],
    spacing: SimTime,
    labels: Labels,
) -> Row {
    let mut completed = 0u64;
    let mut cov90 = 0u64;
    let mut covs: Vec<f64> = Vec::with_capacity(queries.len());
    let mut lat: Vec<f64> = Vec::with_capacity(queries.len());
    for (i, q) in queries.iter().enumerate() {
        let out = cluster.query(origins[i % origins.len()], q).expect("query parses");
        let cov = out.coverage.fraction();
        completed += out.ok as u64;
        cov90 += (out.ok && cov >= 0.9) as u64;
        covs.push(cov);
        lat.push(if out.ok { out.cost.latency.as_micros() as f64 / 1000.0 } else { 120_000.0 });
        if spacing > SimTime::from_micros(0) {
            cluster.settle(spacing);
        }
    }
    let (p50, _, p99) = latency_summary(&lat);
    let n = cluster.net.len() as u32;
    let hedges: u64 = (0..n).map(|i| cluster.net.node(NodeId(i)).hedges).sum();
    Row::new()
        .str("backend", B::LABEL)
        .str("scenario", labels.scenario)
        .str("mix", labels.mix)
        .str("policy", labels.policy)
        .int("queries", queries.len() as u64)
        .int("completed", completed)
        .int("cov90", cov90)
        .float("mean_cov", covs.iter().sum::<f64>() / covs.len().max(1) as f64, 4)
        .float("p50_ms", p50, 3)
        .float("p99_ms", p99, 3)
        .int("hedges", hedges)
}

/// Healthy control: masking layer on, nothing failing.
fn healthy_cell<B: Backend>(world: &PubWorld, queries: &[String]) -> Row {
    let mut cluster =
        UniCluster::<B>::build_overlay(16, fault_cfg::<B>().with_min_coverage(0.9), SEED);
    cluster.load(world.all_tuples());
    let labels = Labels { scenario: "healthy", mix: "mixed", policy: "adaptive+hedged" };
    measure(&mut cluster, &[NodeId(0)], queries, SimTime::from_micros(0), labels)
}

/// Installs [`ChurnConfig::moderate`] plus 2% loss, warms the RTT
/// windows of four stable origins while the ring is healthy, lets
/// churn reach steady state, then runs the mix spaced 10 s apart.
fn churn_cell<B: Backend>(world: &PubWorld, queries: &[String], mix: &'static str) -> Row {
    let mut cluster =
        UniCluster::<B>::build_overlay(24, fault_cfg::<B>().with_min_coverage(0.9), SEED);
    cluster.load(world.all_tuples());
    let mut rng = derive_rng(SEED, stream::CHURN);
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
    let warm = zipf_read_queries(world, "published_in", 40, 0.0, SEED ^ 3);
    for (i, q) in warm.iter().enumerate() {
        let _ = cluster.query(origins[i % origins.len()], q);
    }
    cluster.net.set_loss_rate(0.02);
    cluster.settle(SimTime::from_secs(600));
    let labels = Labels { scenario: "churn+loss2%", mix, policy: "adaptive+hedged" };
    measure(&mut cluster, &origins, queries, SimTime::from_secs(10), labels)
}

/// A fixed origin on a lossy (5%) but churn-free network: the
/// degraded path where retry policy, not data placement, decides
/// the tail. RTT windows warm before the loss switches on.
fn degraded_cell<B: Backend>(
    world: &PubWorld,
    queries: &[String],
    (policy_label, policy): (&'static str, BackoffPolicy),
) -> Row {
    let cfg = fault_cfg::<B>().with_min_coverage(1.0).with_backoff(policy);
    let mut cluster = UniCluster::<B>::build_overlay(16, cfg, SEED);
    cluster.load(world.all_tuples());
    let origin = NodeId(0);
    let warm = zipf_read_queries(world, "published_in", 12, 0.0, SEED ^ 4);
    for q in &warm {
        let _ = cluster.query(origin, q);
    }
    cluster.net.set_loss_rate(0.05);
    let labels = Labels { scenario: "loss5%", mix: "points", policy: policy_label };
    measure(&mut cluster, &[origin], queries, SimTime::from_micros(0), labels)
}

fn floors(rows: &[Row]) {
    // Healthy path: the masking layer must be invisible — everything
    // completes at full coverage, and a loss-free origin never races a
    // duplicate plan.
    for r in rows.iter().filter(|r| r.get_str("scenario") == "healthy") {
        let (queries, completed, mean_cov) =
            (r.get_int("queries"), r.get_int("completed"), r.get_float("mean_cov"));
        assert!(
            completed == queries && (mean_cov - 1.0).abs() < 1e-12,
            "{}: healthy path must complete {queries}/{queries} at coverage 1.0 \
             (got {completed} at {mean_cov:.4})",
            r.get_str("backend"),
        );
        let hedges = r.get_int("hedges");
        assert!(hedges == 0, "{}: the healthy path shipped {hedges} hedges", r.get_str("backend"));
    }
    // Moderate churn + 2% loss, point reads: >= 95% of queries answer
    // with coverage >= 0.9 on BOTH backends (P-Grid via replica
    // failover, Chord via its exact/bucket mirror pair); scans hold
    // their per-backend floor.
    fn churn_floor(rows: &[Row], backend: &str, mix: &str, floor_of: impl Fn(u64) -> u64) {
        let r = find(rows, &[("scenario", "churn+loss2%"), ("mix", mix), ("backend", backend)]);
        let (queries, cov90) = (r.get_int("queries"), r.get_int("cov90"));
        let floor = floor_of(queries);
        assert!(
            cov90 >= floor,
            "{backend} churn {mix}: {cov90}/{queries} answered with coverage >= 0.9, floor {floor}"
        );
    }
    for (backend, scan_pct) in SCAN_FLOOR_PCT {
        churn_floor(rows, backend, "points", |queries| (queries * 95).div_ceil(100));
        churn_floor(rows, backend, "scans", |queries| queries * scan_pct / 100);
    }
    // Degraded path: hedged adaptive retries must beat the fixed
    // baseline's p99 — and must actually hedge.
    println!();
    for backend in LABELS {
        let cell = |policy| {
            find(rows, &[("scenario", "loss5%"), ("backend", backend), ("policy", policy)])
        };
        let (hedged, fixed) = (cell("adaptive+hedged"), cell("fixed-10s"));
        let (hedged_p99, fixed_p99) = (hedged.get_float("p99_ms"), fixed.get_float("p99_ms"));
        println!(
            "{backend} loss5%: p99 {} ms hedged vs {} ms fixed, {} hedges",
            f(hedged_p99),
            f(fixed_p99),
            hedged.get_int("hedges")
        );
        assert!(
            hedged_p99 < fixed_p99,
            "{backend}: hedged p99 ({hedged_p99:.1} ms) must beat fixed-retry p99 \
             ({fixed_p99:.1} ms)"
        );
        assert!(hedged.get_int("hedges") > 0, "{backend}: the hedged cell never hedged");
        assert!(fixed.get_int("hedges") == 0, "{backend}: the fixed cell must not hedge");
        assert!(
            hedged.get_int("completed") >= fixed.get_int("completed"),
            "{backend}: hedging lost completions ({} vs {})",
            hedged.get_int("completed"),
            fixed.get_int("completed")
        );
    }
}

/// Writes `BENCH_faults.json`.
pub fn snapshot() {
    let world = PubWorld::generate(
        &PubParams { n_authors: 40, n_conferences: 10, ..Default::default() },
        SEED,
    );
    let mut rows: Vec<Row> = Vec::new();

    let mut mixed = zipf_read_queries(&world, "published_in", 8, 0.8, SEED ^ 1);
    mixed.push("SELECT ?n WHERE {(?a,'name',?n)}".into());
    mixed.push("SELECT ?c WHERE {(?x,'confname',?c)}".into());
    mixed.push("SELECT ?n,?p WHERE {(?a,'name',?n) (?a,'num_of_pubs',?p) FILTER ?p < 8}".into());
    mixed.push("SELECT ?n,?e WHERE {(?a,'name',?n) (?a,'email',?e)}".into());
    rows.extend(both_backends!(healthy_cell(&world, &mixed)));

    const N_CHURN_Q: usize = 60;
    let points = zipf_read_queries(&world, "published_in", N_CHURN_Q, 1.1, SEED ^ 2);
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
        rows.extend(both_backends!(churn_cell(&world, queries, mix)));
    }

    let degraded = zipf_read_queries(&world, "published_in", 48, 0.0, SEED ^ 5);
    let fixed = BackoffPolicy {
        rtt_multiplier: 0.0,
        min_attempt: SimTime::from_secs(10),
        hedging: false,
        hedge_multiplier: 2.0,
    };
    for policy in [("adaptive+hedged", BackoffPolicy::default()), ("fixed-10s", fixed)] {
        rows.extend(both_backends!(degraded_cell(&world, &degraded, policy)));
    }

    emit(
        Path::new("BENCH_faults.json"),
        "Faults — availability matrix (fault class x backend x policy)",
        &rows,
        floors,
    );
}
