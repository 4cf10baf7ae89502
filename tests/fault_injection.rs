//! Failure injection: message loss, crashes, churn — the paper's
//! "unreliable and highly dynamic environments" (§3).

use unistore::{UniCluster, UniConfig};
use unistore_simnet::churn::{install_churn, ChurnConfig};
use unistore_simnet::{NodeId, SimTime};
use unistore_workload::{PubParams, PubWorld};

/// Canonical relation form (column order by name, sorted rows,
/// numerics unified) so distributed results compare against the
/// oracle irrespective of column or row order.
fn canon(rel: &unistore_query::Relation) -> Vec<Vec<String>> {
    use unistore_store::Value;
    let mut order: Vec<usize> = (0..rel.schema.len()).collect();
    order.sort_by_key(|&i| rel.schema[i].clone());
    let mut rows: Vec<Vec<String>> = rel
        .rows
        .iter()
        .map(|r| {
            order
                .iter()
                .map(|&i| match &r[i] {
                    v @ (Value::Int(_) | Value::Float(_)) => format!("{}", v.as_f64().unwrap()),
                    Value::Str(s) => format!("'{s}'"),
                })
                .collect()
        })
        .collect();
    rows.sort();
    rows
}

fn cluster_with_world(n: usize, cfg: UniConfig, seed: u64) -> UniCluster {
    let world = PubWorld::generate(
        &PubParams { n_authors: 30, n_conferences: 8, ..Default::default() },
        seed,
    );
    let mut cluster = UniCluster::build(n, cfg, seed);
    cluster.load(world.all_tuples());
    cluster
}

/// Replicated + redundant-ref config with short timeouts so failure
/// tests finish quickly.
fn robust_cfg() -> UniConfig {
    let mut cfg = UniConfig::default().with_replication(3);
    cfg.overlay.refs_per_level = 4;
    cfg.query_timeout = SimTime::from_secs(30);
    cfg.overlay.query_timeout = SimTime::from_secs(8);
    cfg
}

#[test]
fn moderate_loss_queries_still_answer() {
    let mut cluster = cluster_with_world(32, robust_cfg(), 11);
    cluster.net.set_loss_rate(0.02);
    let mut succeeded = 0;
    for i in 0..10 {
        let origin = NodeId(i % 32);
        let out = cluster
            .query(origin, "SELECT ?n WHERE {(?a,'name',?n) (?a,'age',?g) FILTER ?g < 40}")
            .unwrap();
        succeeded += out.ok as u32;
    }
    assert!(succeeded >= 8, "2% loss should rarely kill a query ({succeeded}/10)");
}

#[test]
fn crashed_minority_does_not_stop_point_queries() {
    let mut cluster = cluster_with_world(32, robust_cfg(), 12);
    // Crash 5 of 32 peers.
    for i in [3u32, 9, 14, 21, 28] {
        cluster.net.schedule_down(NodeId(i), cluster.net.now());
    }
    cluster.settle(SimTime::from_millis(10));
    let mut succeeded = 0;
    let mut attempts = 0;
    for i in 0..32u32 {
        if !cluster.net.is_up(NodeId(i)) {
            continue;
        }
        attempts += 1;
        let out = cluster.query(NodeId(i), "SELECT ?g WHERE {('auth1','age',?g)}").unwrap();
        // With replication 3, some replica of auth1's leaf survives;
        // individual routes may still dead-end on a crashed ref.
        succeeded += (out.ok && !out.relation.is_empty()) as u32;
        if attempts == 8 {
            break;
        }
    }
    assert!(succeeded >= 5, "replication should mask a crashed minority ({succeeded}/8)");
}

/// The peers a read for `key` visits from `origin`, its first hop
/// chosen around `avoid`, as the routing tables stand: the path the
/// next dispatch takes, since the walk routes on copies of the tables.
fn read_walk(cluster: &UniCluster, origin: NodeId, key: u64, avoid: Option<NodeId>) -> Vec<NodeId> {
    use unistore_pgrid::routing::RouteDecision;
    let (mut at, mut avoid, mut walk) = (origin, avoid, Vec::new());
    while let RouteDecision::Forward(next, _) =
        cluster.net.node(at).overlay.routing().clone().route_read(key, avoid.take())
    {
        walk.push(next);
        at = next;
    }
    walk
}

#[test]
fn a_retry_goes_around_the_crashed_first_hop() {
    use unistore_store::{index::oid_key, Oid};
    let mut cluster = cluster_with_world(32, robust_cfg(), 12);
    let key = oid_key(&Oid::new("auth1"));
    // An origin whose first hop toward the key is the one reference at
    // that level matching the key deepest (the read rule alone would
    // send the retry there again), and whose next-best route stays
    // clear of it.
    let (origin, level, first) = (0..32)
        .map(NodeId)
        .find_map(|id| {
            let routing = cluster.net.node(id).overlay.routing();
            let l = routing.path().common_prefix_len_key(key);
            if routing.responsible(key) {
                return None;
            }
            let depth = |r: &unistore_pgrid::msg::PeerRef| r.path.common_prefix_len_key(key);
            let refs = routing.level_refs(l);
            let deepest = refs.iter().map(depth).max()?;
            let unique = refs.iter().filter(|r| depth(r) == deepest).count() == 1;
            let first = *read_walk(&cluster, id, key, None).first()?;
            let around = read_walk(&cluster, id, key, Some(first));
            (unique && refs.len() > 1 && !around.contains(&first)).then_some((id, l, first))
        })
        .expect("some origin has a unique deepest first hop and a way around it");
    let loads = |cluster: &UniCluster| -> Vec<(NodeId, u64)> {
        let routing = cluster.net.node(origin).overlay.routing();
        routing.level_refs(level).iter().map(|r| (r.id, routing.read_load_of(r.id))).collect()
    };
    let before = loads(&cluster);

    let qid = cluster.query_submit(origin, "SELECT ?g WHERE {('auth1','age',?g)}").unwrap();
    // The plan leaves at the submission instant; its first hop crashes
    // while it is in flight.
    cluster.settle(SimTime::from_micros(1));
    cluster.net.schedule_down(first, cluster.net.now());
    let out = cluster.query_wait(qid);
    assert!(out.ok && !out.relation.is_empty(), "the retry answers within the deadline");

    let sent: Vec<(NodeId, u64)> =
        loads(&cluster).iter().zip(&before).map(|(&(id, a), &(_, b))| (id, a - b)).collect();
    assert!(sent.contains(&(first, 1)), "only the first attempt left through {first:?}: {sent:?}");
    assert_eq!(sent.iter().map(|&(_, n)| n).sum::<u64>(), 2, "one retry, around it: {sent:?}");
}

#[test]
fn churn_with_maintenance_keeps_success_rate_up() {
    let cfg = robust_cfg().with_maintenance(SimTime::from_secs(5), SimTime::from_secs(10));
    let mut cluster = cluster_with_world(32, cfg, 13);
    let mut rng = unistore_util::rng::derive_rng(13, unistore_util::rng::stream::CHURN);
    let churn = ChurnConfig {
        mean_session: SimTime::from_secs(120),
        mean_downtime: SimTime::from_secs(30),
        churn_fraction: 0.4,
    };
    install_churn(&mut cluster.net, &mut rng, &churn, SimTime::from_secs(600));

    let mut succeeded = 0;
    let mut total = 0;
    for round in 0..12 {
        cluster.settle(SimTime::from_secs(45));
        let origin = NodeId((round * 5) % 32);
        if !cluster.net.is_up(origin) {
            continue;
        }
        total += 1;
        let out = cluster.query(origin, "SELECT ?n WHERE {(?a,'name',?n)}").unwrap();
        succeeded += out.ok as u32;
    }
    assert!(total >= 6, "driver should find live origins");
    assert!(
        succeeded * 10 >= total * 6,
        "under churn with maintenance, ≥60% of queries should complete ({succeeded}/{total})"
    );
}

#[test]
fn range_coverage_flags_incompleteness_under_partition() {
    // Crash ALL replicas of some leaf; a full-attribute range query must
    // not silently return a partial answer as complete.
    let mut cfg = UniConfig { query_timeout: SimTime::from_secs(10), ..UniConfig::default() };
    cfg.overlay.query_timeout = SimTime::from_secs(5);
    let mut cluster = cluster_with_world(16, cfg, 14);
    // Take down half the network — some leaf certainly dies entirely.
    for i in 0..8u32 {
        cluster.net.schedule_down(NodeId(i * 2), cluster.net.now());
    }
    cluster.settle(SimTime::from_millis(10));
    let origin = (0..16u32).map(NodeId).find(|&n| cluster.net.is_up(n)).unwrap();
    let oracle_count = {
        let mut o = cluster.oracle();
        o.query("SELECT ?n WHERE {(?a,'name',?n)}").unwrap().len()
    };
    let out = cluster.query(origin, "SELECT ?n WHERE {(?a,'name',?n)}").unwrap();
    // Either the query honestly failed, or it returned fewer rows —
    // never a fabricated complete answer.
    assert!(!out.ok || out.relation.len() <= oracle_count, "no fabricated rows under partition");
    if out.ok {
        assert!(
            out.relation.len() < oracle_count,
            "with half the peers gone some names must be missing"
        );
    }
}

mod dup_reorder_fuzz {
    use proptest::prelude::*;
    use unistore::backends::{chord_config, ChordUniCluster};
    use unistore_overlay::Overlay;
    use unistore_simnet::fault::{FaultPlan, Window};
    use unistore_store::{Triple, Value};

    use super::*;

    /// Duplication + reordering, no loss: every query must complete with
    /// full coverage and oracle-exact rows (pending tables drop replayed
    /// completions instead of double-counting them), and a write must
    /// land exactly once (version rules drop replayed deliveries).
    fn run_case<O: Overlay<Item = Triple>>(mut cluster: UniCluster<O>, dup: f64, reorder: f64) {
        let world = PubWorld::generate(
            &PubParams { n_authors: 12, n_conferences: 4, ..Default::default() },
            21,
        );
        cluster.load(world.all_tuples());
        cluster.net.set_fault_plan(FaultPlan::new().duplicate(dup, Window::always()).reorder(
            reorder,
            SimTime::from_millis(200),
            Window::always(),
        ));
        let queries = [
            "SELECT ?g WHERE {('auth1','age',?g)}",
            "SELECT ?n,?g WHERE {(?a,'name',?n) (?a,'age',?g) FILTER ?g < 40}",
        ];
        let (expected, old_val) = {
            let mut o = cluster.oracle();
            let expected: Vec<Vec<Vec<String>>> =
                queries.iter().map(|q| canon(&o.query(q).unwrap())).collect();
            let old_val = o.query(queries[0]).unwrap().rows[0][0].clone();
            (expected, old_val)
        };
        for (i, q) in queries.iter().enumerate() {
            let out = cluster.query(NodeId(i as u32), q).unwrap();
            assert!(out.ok, "dup/reorder alone must not fail a query: {q}");
            assert!(out.coverage.fraction() >= 1.0, "no loss means full coverage: {q}");
            assert_eq!(canon(&out.relation), expected[i], "exact rows under dup/reorder: {q}");
        }
        let old = Triple::new("auth1", "age", old_val);
        assert!(cluster.update(NodeId(0), &old, Value::Int(99), 1), "update must be acked");
        cluster.settle(SimTime::from_secs(2));
        let out = cluster.query(NodeId(1), queries[0]).unwrap();
        assert!(out.ok, "post-update read must answer");
        assert_eq!(
            canon(&out.relation),
            vec![vec!["99".to_string()]],
            "the update lands exactly once — no duplicate or resurrected rows"
        );
        assert_eq!(cluster.in_flight_len(), 0, "driver tables drain");
    }

    proptest! {
        #[test]
        fn duplicated_reordered_delivery_is_idempotent(
            seed in 0u64..1_000_000,
            dup in 0.0f64..0.4,
            reorder in 0.0f64..0.4,
            pgrid in proptest::any::<bool>(),
        ) {
            if pgrid {
                run_case(UniCluster::build(10, UniConfig::default(), seed), dup, reorder);
            } else {
                run_case(ChordUniCluster::build_overlay(10, chord_config(), seed), dup, reorder);
            }
        }
    }
}

mod composed_faults {
    use unistore::backends::{chord_config, ChordUniCluster};
    use unistore_overlay::Overlay;
    use unistore_simnet::fault::{FaultPlan, Window};
    use unistore_store::Triple;

    use super::*;

    /// Partition + delay-spike windows composed with live churn while a
    /// 32-deep pipelined query window drains. Every outcome is held to
    /// the oracle: a full-coverage completion must match it exactly,
    /// and a partial or failed one may only miss rows, never invent
    /// them.
    fn run_composed<O: Overlay<Item = Triple>>(mut cluster: UniCluster<O>, seed: u64) {
        let world = PubWorld::generate(
            &PubParams { n_authors: 30, n_conferences: 8, ..Default::default() },
            seed,
        );
        cluster.load(world.all_tuples());
        let queries = [
            "SELECT ?g WHERE {('auth1','age',?g)}",
            "SELECT ?n WHERE {(?a,'name',?n)}",
            "SELECT ?n,?g WHERE {(?a,'name',?n) (?a,'age',?g) FILTER ?g < 40}",
        ];
        let expected: Vec<Vec<Vec<String>>> = {
            let mut o = cluster.oracle();
            queries.iter().map(|q| canon(&o.query(q).unwrap())).collect()
        };

        // Live churn over the whole run, a partition that opens while
        // the pipelined window drains, and a delay spike overlapping the
        // partition's tail — the three fault modes composed.
        let n = cluster.net.len() as u32;
        let mut rng = unistore_util::rng::derive_rng(seed, unistore_util::rng::stream::CHURN);
        let churn = ChurnConfig {
            mean_session: SimTime::from_secs(120),
            mean_downtime: SimTime::from_secs(30),
            churn_fraction: 0.25,
        };
        let churned = install_churn(&mut cluster.net, &mut rng, &churn, SimTime::from_secs(600));
        let origins: Vec<NodeId> =
            (0..n).map(NodeId).filter(|id| !churned.contains(id)).take(8).collect();
        let island: Vec<NodeId> =
            (0..n).rev().map(NodeId).filter(|id| !origins.contains(id)).take(5).collect();
        let now = cluster.net.now();
        let part = Window::new(now + SimTime::from_secs(2), now + SimTime::from_secs(60));
        let spike = Window::new(now + SimTime::from_secs(20), now + SimTime::from_secs(90));
        cluster.net.set_fault_plan(
            FaultPlan::new().partition("minority", island, part).delay_spike(
                None,
                None,
                SimTime::from_millis(50),
                spike,
            ),
        );

        for i in 0..32 {
            cluster
                .query_submit(origins[i % origins.len()], queries[i % queries.len()])
                .expect("query parses");
        }
        let outcomes = cluster.query_wait_all();
        assert_eq!(outcomes.len(), 32, "every submission yields an outcome");
        assert_eq!(cluster.in_flight_len(), 0, "driver tables drain");

        let mut completed = 0;
        for (i, (_, out)) in outcomes.iter().enumerate() {
            let q = queries[i % queries.len()];
            let want = &expected[i % queries.len()];
            let got = canon(&out.relation);
            if out.ok && out.coverage.fraction() >= 1.0 {
                assert_eq!(&got, want, "full coverage must be oracle-exact: {q}");
            } else {
                // Rows may be missing, never invented: multiset
                // containment in the oracle's rows.
                let mut pool = want.clone();
                for row in &got {
                    let at = pool
                        .iter()
                        .position(|w| w == row)
                        .unwrap_or_else(|| panic!("fabricated row {row:?} for {q}"));
                    pool.swap_remove(at);
                }
            }
            completed += out.ok as u32;
        }
        assert!(
            completed >= 16,
            "most of the window should complete under composed faults ({completed}/32)"
        );
    }

    #[test]
    fn pipelined_window_survives_partition_spike_and_churn_pgrid() {
        let cfg = robust_cfg().with_maintenance(SimTime::from_secs(10), SimTime::from_secs(20));
        run_composed(UniCluster::build(32, cfg, 22), 22);
    }

    #[test]
    fn pipelined_window_survives_partition_spike_and_churn_chord() {
        let mut cfg = chord_config();
        cfg.overlay.replicate = true;
        cfg.overlay.anti_entropy_interval = SimTime::from_secs(20);
        cfg.overlay.ping_interval = SimTime::from_secs(5);
        cfg.query_timeout = SimTime::from_secs(30);
        cfg.overlay.query_timeout = SimTime::from_secs(8);
        run_composed(ChordUniCluster::build_overlay(32, cfg, 22), 22);
    }
}

mod lossy_batch {
    use unistore::backends::{chord_config, ChordUniCluster};
    use unistore_overlay::Overlay;
    use unistore_store::index::TripleKeys;
    use unistore_store::{Triple, Tuple, Value};

    use super::*;

    /// One large routed batch on 64 peers under 2 % message loss: the
    /// positional-ack protocol must get every op acked within
    /// `op_retries` retransmits (each resends only what is still
    /// un-acked, and a straggler ack from an earlier attempt counts),
    /// and the data must read back oracle-exact.
    fn run_lossy_batch<O: Overlay<Item = Triple>>(mut cluster: UniCluster<O>) {
        let tuples: Vec<Tuple> = (0..48)
            .map(|i| {
                Tuple::new(&format!("lossy{i}"))
                    .with("name", Value::str(&format!("lossy-name-{i}")))
                    .with("age", Value::Int(20 + i))
            })
            .collect();
        let ops: usize = tuples
            .iter()
            .flat_map(Tuple::to_triples)
            .map(|t| TripleKeys::derive(&t, true).all().len())
            .sum();
        assert!(ops >= 256, "the batch must be large enough to fork widely ({ops} ops)");

        cluster.net.set_loss_rate(0.02);
        let (ok, _) = cluster.insert_batch(NodeId(3), &tuples);
        assert!(ok, "{}: every op must be acked within op_retries under 2% loss", O::NAME);
        cluster.net.set_loss_rate(0.0);

        let mut oracle = cluster.oracle();
        for q in [
            "SELECT ?n WHERE {(?a,'name',?n)}",
            "SELECT ?n,?g WHERE {(?a,'name',?n) (?a,'age',?g) FILTER ?g >= 30 AND ?g < 50}",
            "SELECT ?g WHERE {('lossy17','age',?g)}",
        ] {
            let out = cluster.query(NodeId(9), q).unwrap();
            assert!(out.ok, "{}: read-back must answer: {q}", O::NAME);
            assert_eq!(
                canon(&out.relation),
                canon(&oracle.query(q).unwrap()),
                "{}: acked writes must read back oracle-exact: {q}",
                O::NAME
            );
        }
    }

    // Seed 0: P-Grid's former whole-batch retry (every message of one
    // attempt had to survive at once, ~100 of them) failed this case.
    const SEED: u64 = 0;

    #[test]
    fn large_batch_is_fully_acked_under_loss_pgrid() {
        run_lossy_batch(UniCluster::build(64, UniConfig::default(), SEED));
    }

    #[test]
    fn large_batch_is_fully_acked_under_loss_chord() {
        run_lossy_batch(ChordUniCluster::build_overlay(64, chord_config(), SEED));
    }
}

mod lossy_scans {
    use unistore_chord::{ChordCluster, ChordConfig, ChordRangeMode};
    use unistore_pgrid::cluster::Topology;
    use unistore_pgrid::{PGridCluster, PGridConfig, RangeMode};
    use unistore_simnet::ConstantLatency;
    use unistore_util::item::RawItem;

    use super::*;

    /// Raw range scans on 64 peers under 5 % message loss. A scan is
    /// made of parts — a shower's branches, a walk, a bucket each — and
    /// a timed-out scan re-sends only what no reply covered yet, so
    /// every scan comes back complete and oracle-exact (each item once:
    /// a re-sent part answered twice counts once). A part crosses up to
    /// six messages an attempt, so at 5 % loss three attempts (the
    /// default `op_retries` of 2) still lose about one part in a hundred;
    /// five make that about one in a thousand.
    const N: usize = 64;
    const SEED: u64 = 5;
    const LOSS: f64 = 0.05;
    const OP_RETRIES: u32 = 4;

    /// 4096 keys spread over the key space, each item named by its key.
    fn keys() -> impl Iterator<Item = u64> {
        (0..4096u64).map(|i| i << 52)
    }

    /// 12 intervals of 1/64 to 1/16 of the key space, and each one's
    /// oracle answer.
    fn scans() -> Vec<(u64, u64, Vec<u64>)> {
        (0..12u64)
            .map(|i| {
                let (lo, hi) = ((i * 5) << 58, (i * 5 + 1 + i % 4) << 58);
                (lo, hi, keys().filter(|k| (lo..=hi).contains(k)).collect())
            })
            .collect()
    }

    fn sorted(items: Vec<RawItem>) -> Vec<u64> {
        let mut keys: Vec<u64> = items.into_iter().map(|item| item.0).collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn pgrid_showers_and_walks_come_back_complete_under_loss() {
        // No maintenance round: lost probes would evict references, and
        // this test is about lost scan messages alone.
        let cfg = PGridConfig {
            maintenance_interval: SimTime::from_secs(1_000_000_000),
            op_retries: OP_RETRIES,
            ..PGridConfig::default()
        };
        let latency = ConstantLatency(SimTime::from_millis(10));
        let mut c: PGridCluster<RawItem> =
            PGridCluster::build(N, cfg, Topology::Uniform, latency, SEED);
        for k in keys() {
            c.preload(k, RawItem(k), 0);
        }
        c.net.set_loss_rate(LOSS);
        for (i, (lo, hi, want)) in scans().into_iter().enumerate() {
            for mode in [RangeMode::Parallel, RangeMode::Sequential] {
                let out = c.range(NodeId(i as u32 * 5), lo, hi, mode);
                assert!(out.complete, "{mode:?} scan {i} came back partial");
                assert_eq!(sorted(out.items), want, "{mode:?} scan {i}");
            }
        }
    }

    #[test]
    fn chord_bucket_scans_come_back_complete_under_loss() {
        // 64 buckets: a scan reads one to four.
        let cfg = ChordConfig { bucket_depth: 6, op_retries: OP_RETRIES, ..ChordConfig::default() };
        let latency = ConstantLatency(SimTime::from_millis(10));
        let mut c: ChordCluster<RawItem> = ChordCluster::build(N, cfg, latency, SEED);
        for k in keys() {
            c.preload(k, RawItem(k));
        }
        c.net.set_loss_rate(LOSS);
        for (i, (lo, hi, want)) in scans().into_iter().enumerate() {
            let out = c.range(NodeId(i as u32 * 5), lo, hi, ChordRangeMode::Buckets);
            assert!(out.complete, "bucket scan {i} came back partial");
            assert_eq!(sorted(out.entries), want, "bucket scan {i}");
        }
    }
}

#[test]
fn correlated_failure_does_not_cause_retry_storm() {
    // A blackout strands a full 32-deep admission window at one instant.
    // Jittered initial deadlines, the decorrelated retry sampler, and
    // jittered hedge arming must spread the re-dispatch waves: no single
    // simulated instant may see a burst anywhere near "every stranded
    // query retries in lockstep" (32+ sends at one time).
    let mut cfg = robust_cfg().with_stats_refresh(SimTime::from_secs(100_000));
    cfg.query_timeout = SimTime::from_secs(20);
    let mut cluster = cluster_with_world(16, cfg, 16);
    let origin = NodeId(0);

    // Warm the origin's RTT window so the adaptive attempt timeout (and
    // with it the retry chain) is active rather than one cold attempt
    // that only expires at the deadline.
    for _ in 0..12 {
        let out = cluster.query(origin, "SELECT ?n WHERE {(?a,'name',?n)}").unwrap();
        assert!(out.ok);
    }

    // Total blackout, then strand a whole window submitted at one time.
    cluster.net.set_loss_rate(1.0);
    for _ in 0..32 {
        cluster.query_submit(origin, "SELECT ?n WHERE {(?a,'name',?n)}").unwrap();
    }
    // Step through the synchronized admission burst itself: the 32
    // first dispatches share the submission instant by construction and
    // are not what the jitter is for.
    cluster.settle(SimTime::from_micros(1));

    // From here on every send is a re-dispatch (retry or hedge). Group
    // sends by simulated instant and track the worst burst.
    let mut last_sent = cluster.net.metrics().sent;
    let mut cur_at = cluster.net.now();
    let (mut cur_burst, mut max_burst, mut total) = (0u64, 0u64, 0u64);
    let horizon = cluster.net.now() + SimTime::from_secs(20);
    while cluster.net.now() < horizon && cluster.net.step() {
        let sent = cluster.net.metrics().sent;
        let delta = sent - last_sent;
        last_sent = sent;
        if cluster.net.now() != cur_at {
            max_burst = max_burst.max(cur_burst);
            cur_at = cluster.net.now();
            cur_burst = 0;
        }
        cur_burst += delta;
        total += delta;
    }
    max_burst = max_burst.max(cur_burst);
    assert!(total >= 64, "stranded queries must keep retrying ({total} sends)");
    assert!(
        max_burst <= 8,
        "retry waves must stay decorrelated: worst per-instant burst \
         {max_burst} of {total} total sends"
    );
}

#[test]
fn anti_entropy_propagates_updates_to_lagging_replicas() {
    // One replica misses the write; pull anti-entropy must converge it
    // (paper ref [4] push/pull updates).
    let mut cfg = UniConfig::default()
        .with_replication(3)
        .with_maintenance(SimTime::from_secs(1_000_000_000), SimTime::from_secs(10));
    cfg.overlay.query_timeout = SimTime::from_secs(5);
    let mut cluster = cluster_with_world(12, cfg, 15);

    // Crash one replica of auth0's OID leaf, then update auth0's age.
    let key = unistore_store::index::oid_key(&unistore_store::Oid::new("auth0"));
    let leaf = cluster.leaves().iter().position(|p| p.is_prefix_of_key(key)).unwrap();
    let _ = leaf;
    let old_age = {
        let mut o = cluster.oracle();
        o.query("SELECT ?g WHERE {('auth0','age',?g)}").unwrap().rows[0][0].clone()
    };
    // Find the replica group by asking each node whether it stores the key.
    let holders: Vec<NodeId> = (0..12u32)
        .map(NodeId)
        .filter(|&n| !cluster.net.node(n).overlay.store().get(key).is_empty())
        .collect();
    assert!(holders.len() >= 3, "replication 3 expected, got {holders:?}");
    let lagging = holders[0];
    cluster.net.schedule_down(lagging, cluster.net.now());
    cluster.settle(SimTime::from_millis(1));

    let old = unistore_store::Triple::new("auth0", "age", old_age);
    assert!(cluster.update(NodeId(holders[1].0), &old, unistore_store::Value::Int(77), 1));

    // Revive immediately — NO draining of the update's in-flight
    // replica traffic first. The tail of the replica cascade (the
    // second-hop delete of the superseded entry) may land on the
    // revived node in any order relative to its own catch-up; the
    // per-identity version rules alone must make every interleaving
    // converge to the updated value.
    cluster.net.schedule_up(lagging, cluster.net.now());
    cluster.settle(SimTime::from_millis(1));

    // Let anti-entropy run (10 s interval): pulls the new version.
    cluster.settle(SimTime::from_secs(120));
    let after = cluster.net.node(lagging).overlay.store().get(key);
    assert!(
        after.iter().any(|t| t.attr.as_ref() == "age" && t.value.as_f64() == Some(77.0)),
        "anti-entropy must deliver the updated value, got {after:?}"
    );

    // Adversarial stale delivery: a late `Replicate` still carrying the
    // superseded entry arrives after convergence (a delayed duplicate
    // from before the crash). The tombstone's newer version must reject
    // it — revival safety comes from version rules, not from quiescence.
    cluster.net.inject(
        lagging,
        unistore::UniMsg::Overlay(unistore_pgrid::PGridMsg::Replicate {
            entries: unistore_pgrid::Entries::from_records([(
                (key, unistore_util::item::Item::ident(&old)),
                0,
                Some(old.clone()),
            )]),
        }),
    );
    cluster.settle(SimTime::from_millis(1));
    let after = cluster.net.node(lagging).overlay.store().get(key);
    assert!(
        !after.iter().any(|t| t.attr.as_ref() == "age" && t.value.as_f64() != Some(77.0)),
        "a stale Replicate must not resurrect the superseded age, got {after:?}"
    );
}

mod chord_failure_detection {
    use unistore_chord::{ChordCluster, ChordConfig, ChordRangeMode, ChordTopology};
    use unistore_simnet::fault::{FaultPlan, Window};
    use unistore_simnet::ConstantLatency;
    use unistore_util::item::RawItem;

    use super::*;

    const N: usize = 64;
    const SEED: u64 = 44;
    const PING: SimTime = SimTime::from_secs(5);
    /// The longest jittered ping period: rounds are `PING` × [0.5, 1.5).
    const PERIOD_MAX: SimTime = SimTime::from_micros(PING.as_micros() * 3 / 2);
    const LATENCY: SimTime = SimTime::from_millis(10);
    const DEADLINE: SimTime = unistore_overlay::liveness::DEADLINE;

    fn run_until(c: &mut ChordCluster<RawItem>, until: SimTime) {
        while c.net.now() < until && c.net.step() {}
    }

    /// The watchers of `x` (the peers that learned to route through it)
    /// that suspect it.
    fn suspecting(c: &ChordCluster<RawItem>, x: NodeId) -> Vec<NodeId> {
        let watchers = c.net.node(x).watchers().to_vec();
        watchers.into_iter().filter(|&w| c.net.node(w).suspects(x)).collect()
    }

    /// A 64-peer ring probing every 5 s: a crash is found by the
    /// crashed node's predecessor and reported to every peer that routes
    /// through it within a ping period and two deadlines (the round's
    /// and the confirmation's); a revival is heard within one latency;
    /// and a watcher cut off from the report still finds the crash with
    /// its own round-robin finger probe within one cycle of its fingers.
    #[test]
    fn a_crash_reaches_every_watcher_and_a_revival_is_forgiven_at_once() {
        let cfg = ChordConfig { ping_interval: PING, ..ChordConfig::default() };
        let topo = ChordTopology::plan(N, &cfg, SEED);
        let mut c: ChordCluster<RawItem> =
            ChordCluster::build(N, cfg, ConstantLatency(LATENCY), SEED);
        // Every node learns its watchers in its first (full) round and
        // ships them at that round's deadline.
        run_until(&mut c, SimTime::from_secs(30));
        let x = topo.ring_order[17].1;
        let watchers = c.net.node(x).watchers().to_vec();
        let w = topo.wiring(x);
        assert!(watchers.contains(&w.predecessor.0) && watchers.contains(&w.predecessor2.0));
        assert!(watchers.len() > 2, "some finger routes through x: {watchers:?}");
        assert!(suspecting(&c, x).is_empty());

        let crash = c.net.now();
        c.net.schedule_down(x, crash);
        run_until(&mut c, crash + PERIOD_MAX + DEADLINE + DEADLINE + LATENCY);
        assert_eq!(suspecting(&c, x), watchers, "every watcher suspects the crashed node");

        let revival = c.net.now();
        c.net.schedule_up(x, revival);
        run_until(&mut c, revival + LATENCY + SimTime::from_micros(1));
        assert!(suspecting(&c, x).is_empty(), "{:?} still suspect x", suspecting(&c, x));

        // Cut off a watcher that is neither of x's predecessors (they
        // probe x every round) while x crashes again and is reported.
        let settled = c.net.now() + SimTime::from_secs(20);
        run_until(&mut c, settled);
        let cut = *watchers
            .iter()
            .find(|&&v| v != w.predecessor.0 && v != w.predecessor2.0)
            .expect("a finger-only watcher");
        let crash = c.net.now();
        let healed = crash + PERIOD_MAX + DEADLINE + DEADLINE + LATENCY;
        c.net.set_fault_plan(FaultPlan::new().partition("cut", [cut], Window::new(crash, healed)));
        c.net.schedule_down(x, crash);
        run_until(&mut c, healed);
        let others: Vec<NodeId> = suspecting(&c, x).into_iter().filter(|&v| v != cut).collect();
        assert_eq!(others.len(), watchers.len() - 1, "the rest heard the report");
        // One round-robin cycle over the cut watcher's other fingers, the
        // round in progress, and that round's deadline.
        let wiring = topo.wiring(cut);
        let ring = [wiring.successor.0, wiring.successor2.0];
        let cycle = wiring.fingers.iter().filter(|(f, _)| !ring.contains(f)).count() as u64;
        let backstop = SimTime::from_micros(PERIOD_MAX.as_micros() * (cycle + 1)) + DEADLINE;
        run_until(&mut c, healed + backstop);
        assert!(c.net.node(cut).suspects(x), "the cut-off watcher found the crash itself");
    }

    /// A 64-peer ring under successor replication, probing every 5 s:
    /// once a crashed owner's predecessor suspects it, reads of the
    /// owner's keys go to the owner's successor, whose replica the load
    /// placed, so a point read and a bucket scan come back complete and
    /// oracle-exact while the owner is down.
    #[test]
    fn chord_reads_are_masked_by_the_successor_replica() {
        use unistore_chord::node::{ring_key_bucket, ring_key_exact};
        let cfg = ChordConfig { ping_interval: PING, replicate: true, ..ChordConfig::default() };
        let depth = cfg.bucket_depth;
        let topo = ChordTopology::plan(N, &cfg, SEED);
        let mut c: ChordCluster<RawItem> =
            ChordCluster::build(N, cfg, ConstantLatency(LATENCY), SEED);
        let keys: Vec<u64> = (0..4096u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
        for &k in &keys {
            c.preload(k, RawItem(k));
        }
        // The owner of the first key's bucket, and the keys it owns
        // exactly.
        let bucket = keys[0] >> (64 - depth as u32);
        let x = topo.successor_of(ring_key_bucket(keys[0], depth)).1;
        let owned: Vec<u64> =
            keys.iter().copied().filter(|&k| topo.successor_of(ring_key_exact(k)).1 == x).collect();
        assert!(!owned.is_empty(), "x owns some exact positions");
        let pred = topo.wiring(x).predecessor.0;
        run_until(&mut c, SimTime::from_secs(30));

        let crash = c.net.now();
        c.net.schedule_down(x, crash);
        while !c.net.node(pred).suspects(x) {
            assert!(c.net.now() < crash + PERIOD_MAX + DEADLINE + DEADLINE + LATENCY);
            assert!(c.net.step());
        }
        let origin = NodeId((x.0 + 1) % N as u32);
        for &k in &owned {
            let out = c.lookup(origin, k);
            assert!(out.ok, "point read of {k:#x} failed");
            assert_eq!(out.entries, [RawItem(k)], "point read of {k:#x}");
        }
        let shift = 64 - depth as u32;
        let (lo, hi) = (bucket << shift, ((bucket + 1) << shift).wrapping_sub(1));
        let mut want: Vec<u64> = keys.iter().copied().filter(|k| (lo..=hi).contains(k)).collect();
        want.sort_unstable();
        assert!(!want.is_empty());
        let out = c.range(origin, lo, hi, ChordRangeMode::Buckets);
        assert!(out.complete, "the bucket scan came back partial");
        let mut got: Vec<u64> = out.entries.into_iter().map(|item| item.0).collect();
        got.sort_unstable();
        assert_eq!(got, want, "bucket scan");
        assert!(!c.net.is_up(x), "x stayed down throughout");
    }
}
