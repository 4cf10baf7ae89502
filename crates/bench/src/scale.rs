//! `BENCH_scale.json`: the scale-and-churn survival campaign (DESIGN.md
//! §"Scale and churn"). Each cell runs one deployment size under
//! *everything at once*: moderate exponential churn, 2% uniform loss, a
//! partition window with a correlated mass failure inside it, a delay
//! spike, and sustained Zipf-skewed mixed read/write traffic driven
//! through the pipelined admission window. The default sweep is N ∈
//! {64, 256, 1024} (the acceptance scale and the CI setting); `full`
//! adds 4096.
//!
//! In-code floors: ≥95% of offered queries answer with coverage ≥0.9 on
//! BOTH backends at every size; total attempts (initial + retries +
//! hedges) stay ≤3× offered (the retry-storm bound); the replication
//! repair of a write issued *during* the failure window converges after
//! revival; the repair plane's heal-phase bytes (`repair_kib`) stay
//! under a quarter of what the flat-digest protocol sent in the same
//! phase and grow sub-linearly with the records a peer stores; the
//! records it folds into root summaries (`repair_folds`) stay under a
//! quarter of what it folded while every write dropped them.
//!
//! A cell is one churn schedule. [`sweep`] (`experiments scale-sweep`)
//! reruns every cell over 30 schedules and counts the ones that breach
//! the query floors: the spread a single cell's reading is drawn from.

use std::path::Path;

use unistore::UniCluster;
use unistore_simnet::churn::{install_churn, install_mass_failure, ChurnConfig};
use unistore_simnet::fault::{FaultPlan, Window};
use unistore_simnet::{NodeId, SimTime};
use unistore_store::index::attr_value_key;
use unistore_store::{Tuple, Value};
use unistore_util::rng::{derive_rng, stream};
use unistore_util::stats::{gini, percentile};
use unistore_util::Key;
use unistore_workload::{zipf_read_queries, zipf_write_batches, PubParams, PubWorld};

use crate::backend::{for_backend, Backend, Chord, PGrid, SEED};
use crate::snapshot::{emit, Row};
use crate::{both_backends, f, header, latency_summary, row};

/// Liveness-probe period in seconds (P-Grid's routing maintenance,
/// Chord's ping), the campaign's settings since it was introduced.
const PROBE_SECS: [(&str, u64); 2] = [(PGrid::LABEL, 30), (Chord::LABEL, 20)];

/// `repair_kib` of the flat `(key, version)` digest protocol in the same
/// heal phase, measured once on the commit before the hash-tree repair
/// replaced it (digest and digest-reply bytes; DESIGN.md § "Repair on
/// both backends"). It re-listed every stored record on every tick, so
/// it is flat in N: the same records, spread over more peers.
const FLAT_REPAIR_KIB: [(&str, [f64; 3]); 2] =
    [(PGrid::LABEL, [5_640.0, 5_119.7, 5_585.8]), (Chord::LABEL, [19_606.3, 20_040.7, 22_222.2])];

/// `repair_folds` in the same heal phase while every applied write
/// dropped the store's memoized root summaries, measured once on the
/// commit before writes kept them current: nearly every probe sent or
/// answered refolded its whole span.
const REFOLD_REPAIR_FOLDS: [(&str, [u64; 3]); 2] =
    [(PGrid::LABEL, [533_097, 426_228, 561_171]), (Chord::LABEL, [495_087, 326_505, 147_528])];

/// The *live* replica group of `key`: the union, over all up
/// primaries, of `Overlay::replica_group`. Tracks runtime drift
/// (P-Grid path migrations, Chord successor re-pointing) that the
/// build-time topology plan cannot see.
fn live_group<B: Backend>(cluster: &UniCluster<B>, key: Key) -> (Vec<NodeId>, Vec<NodeId>) {
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

/// What the replica-repair plane has done so far, over all peers: bytes
/// sent and records folded into root summaries.
fn repair_totals<B: Backend>(cluster: &UniCluster<B>) -> (u64, u64) {
    (0..cluster.net.len() as u32)
        .map(|i| cluster.net.node(NodeId(i)).overlay.repair_stats())
        .fold((0, 0), |(bytes, folds), s| (bytes + s.total(), folds + s.folded_records))
}

/// Repair-convergence predicate: every up member of the live
/// replica group holds the key, and at least one member is up.
fn converged<B: Backend>(cluster: &UniCluster<B>, key: Key) -> bool {
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
/// `schedule` picks the churn and mass-failure draw (the churn seed
/// XORed with it); the snapshot runs schedule 0.
fn campaign<B: Backend>(n: usize, world: &PubWorld, schedule: u64) -> Row {
    let probe = SimTime::from_secs(for_backend::<B, _>(&PROBE_SECS));
    let cfg = B::resilient(probe, SimTime::from_secs(60)).with_min_coverage(0.9);
    let mut cluster = UniCluster::<B>::build_overlay(n, cfg, SEED);
    cluster.load(world.all_tuples());
    let reads = zipf_read_queries(world, "published_in", 120, 1.1, SEED ^ 11);
    let writes = zipf_write_batches(world, "published_in", 12, 6, 1.1, SEED ^ 13);
    let canaries: Vec<Tuple> = (0..4)
        .map(|k| Tuple::new(&format!("canary{k}")).with("rtag", Value::str("canary")))
        .collect();
    let canary_key = attr_value_key("rtag", &Value::str("canary"));

    let mut rng = derive_rng(SEED ^ schedule, stream::CHURN);
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
    let warm = zipf_read_queries(world, "published_in", 16, 0.0, SEED ^ 17);
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
    // Repair-plane bytes and folds and the clock when the window closed:
    // the heal phase runs from there to the end of the campaign.
    let mut at_close: Option<((u64, u64), SimTime)> = None;
    for (i, q) in reads.iter().enumerate() {
        cluster.query_submit(origins[i % origins.len()], q).expect("query parses");
        if (i + 1) % 10 == 0 {
            let (ok, _) = cluster
                .insert_batch(origins[(i / 10) % origins.len()], &writes[(i / 10) % writes.len()]);
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
                FaultPlan::new().partition("canary-island", island.iter().copied(), w).delay_spike(
                    None,
                    None,
                    SimTime::from_millis(100),
                    spike,
                ),
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
            if at_close.is_none() && cluster.net.now() > w.until {
                at_close = Some((repair_totals(&cluster), cluster.net.now()));
            }
            if repair_s.is_none() && cluster.net.now() > w.until && converged(&cluster, canary_key)
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
    let mut completed = 0u64;
    let mut cov90 = 0u64;
    let mut covs: Vec<f64> = Vec::with_capacity(offered);
    let mut lat: Vec<f64> = Vec::with_capacity(offered);
    for (_, out) in &outcomes {
        let cov = out.coverage.fraction();
        completed += out.ok as u64;
        cov90 += (out.ok && cov >= 0.9) as u64;
        covs.push(cov);
        lat.push(if out.ok { out.cost.latency.as_micros() as f64 / 1000.0 } else { 120_000.0 });
    }
    let elapsed = cluster.net.now().saturating_sub(t_start).as_micros() as f64 / 1e6;
    let (p50, _, p99) = latency_summary(&lat);

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
    let ((bytes_at_close, folds_at_close), closed_at) =
        at_close.expect("the traffic outlasts the fault window");
    let (bytes, folds) = repair_totals(&cluster);
    Row::new()
        .str("backend", B::LABEL)
        .int("n", n as u64)
        .int("offered", offered as u64)
        .int("completed", completed)
        .int("cov90", cov90)
        .float("mean_cov", covs.iter().sum::<f64>() / covs.len().max(1) as f64, 4)
        .float("qps_sim", completed as f64 / elapsed.max(1e-9), 3)
        .float("p50_ms", p50, 3)
        .float("p99_ms", p99, 3)
        .float("p999_ms", percentile(&lat, 99.9), 3)
        .int("retries", retries)
        .int("hedges", hedges)
        .int("suppressed", suppressed)
        .int("attempts", offered as u64 + retries + hedges)
        .int("writes_ok", writes_ok)
        .int("writes_err", writes_err)
        .float("gini_load", gini(&loads), 4)
        .float("stale_frac", refs_stale as f64 / (refs_total.max(1)) as f64, 4)
        .float("repair_s", repair_s.unwrap_or(600.0), 1)
        .float("heal_s", cluster.net.now().saturating_sub(closed_at).as_secs_f64(), 1)
        .float("repair_kib", (bytes - bytes_at_close) as f64 / 1024.0, 1)
        .int("repair_folds", folds - folds_at_close)
        .int("downs", md.downs)
        .int("ups", md.ups)
}

/// A cell's query floors for `offered` queries: the fewest that must
/// answer with coverage ≥ 0.9 (95 %), and the most attempts the origins
/// may send (3×, the retry-storm bound).
fn query_floors(offered: u64) -> (u64, u64) {
    ((offered * 95).div_ceil(100), 3 * offered)
}

fn floors(rows: &[Row]) {
    for r in rows {
        let (backend, n) = (r.get_str("backend"), r.get_int("n"));
        let (offered, cov90, attempts) =
            (r.get_int("offered"), r.get_int("cov90"), r.get_int("attempts"));
        let (floor, max_attempts) = query_floors(offered);
        assert!(
            cov90 >= floor,
            "{backend} n={n}: {cov90}/{offered} queries answered with coverage >= 0.9, \
             floor {floor}"
        );
        assert!(
            attempts <= max_attempts,
            "{backend} n={n}: {attempts} attempts for {offered} offered queries breaches the \
             3x retry-storm bound"
        );
        assert!(
            r.get_float("repair_s") < 600.0,
            "{backend} n={n}: canary replicas never reconverged after the failure window"
        );
        assert!(
            (0.0..=1.0).contains(&r.get_float("gini_load"))
                && (0.0..=1.0).contains(&r.get_float("stale_frac")),
            "{backend} n={n}: skew/staleness out of range"
        );
        assert!(
            r.get_int("downs") > 0 && r.get_int("ups") > 0,
            "{backend} n={n}: no churn actually executed"
        );
    }
    for ((backend, flat), (_, refold)) in FLAT_REPAIR_KIB.into_iter().zip(REFOLD_REPAIR_FOLDS) {
        let mine: Vec<&Row> = rows.iter().filter(|r| r.get_str("backend") == backend).collect();
        for (r, flat) in mine.iter().zip(flat) {
            let (n, kib) = (r.get_int("n"), r.get_float("repair_kib"));
            assert!(
                kib <= flat / 4.0,
                "{backend} n={n}: {kib} KiB of repair traffic in the heal phase, the flat \
                 digests sent {flat}"
            );
        }
        for (r, refold) in mine.iter().zip(refold) {
            let (n, folds) = (r.get_int("n"), r.get_int("repair_folds"));
            assert!(
                folds <= refold / 4,
                "{backend} n={n}: {folds} records folded into root summaries in the heal phase, \
                 {refold} when every write dropped them"
            );
        }
        // Peers at the smallest N store N_max/N_min times the records of
        // peers at the largest: what one of them sends per heal-second
        // must grow by less than that, i.e. the cluster-wide rate must be
        // lower where ranges are larger.
        if let [small, .., large] = mine.as_slice() {
            let rate = |r: &Row| r.get_float("repair_kib") / r.get_float("heal_s");
            assert!(
                rate(small) < rate(large),
                "{backend}: repair bytes per peer grew at least linearly with records per peer \
                 ({} KiB/s at n={} against {} at n={})",
                f(rate(small)),
                small.get_int("n"),
                f(rate(large)),
                large.get_int("n")
            );
        }
    }
    // The paper's balancing claim, quantified at the largest measured
    // size: report P-Grid's load skew against Chord's.
    if let [.., pgrid, chord] = rows {
        println!(
            "\nload skew at N={}: P-Grid gini {} vs Chord gini {}",
            pgrid.get_int("n"),
            f(pgrid.get_float("gini_load")),
            f(chord.get_float("gini_load"))
        );
    }
}

/// The deployment sizes of a run; `full` adds N = 4096.
fn sizes(full: bool) -> &'static [usize] {
    if full {
        &[64, 256, 1024, 4096]
    } else {
        &[64, 256, 1024]
    }
}

fn world() -> PubWorld {
    PubWorld::generate(&PubParams { n_authors: 60, n_conferences: 15, ..Default::default() }, SEED)
}

/// Writes `BENCH_scale.json`; `full` extends the sweep to N = 4096.
pub fn snapshot(full: bool) {
    let world = world();
    let mut rows: Vec<Row> = Vec::new();
    for &n in sizes(full) {
        rows.extend(both_backends!(campaign(n, &world, 0)));
    }
    emit(
        Path::new("BENCH_scale.json"),
        "Scale — churn + loss + partition + mass failure, mixed Zipf load",
        &rows,
        floors,
    );
}

/// Churn schedules [`sweep`] runs per cell.
const SWEEP_SCHEDULES: u64 = 30;

/// One cell over every schedule of the sweep.
fn schedules<B: Backend>(n: usize, world: &PubWorld) -> Vec<Row> {
    (0..SWEEP_SCHEDULES).map(|s| campaign::<B>(n, world, s)).collect()
}

/// Runs each snapshot cell over 30 churn schedules (schedule 0 is the
/// snapshot's) and prints, per cell, how many schedules breach each
/// query floor, the pooled counts, and the spread: how much of one
/// cell's reading is its draw. Writes no file and asserts nothing.
pub fn sweep(full: bool) {
    let world = world();
    println!(
        "\n## Scale sweep — the per-cell query floors over {SWEEP_SCHEDULES} churn schedules\n"
    );
    header(&[
        "backend",
        "n",
        "< 95 % answered",
        "> 3× attempts",
        "either",
        "answered",
        "attempts",
        "answered min / median",
        "attempts median / max",
    ]);
    for &n in sizes(full) {
        for cell in both_backends!(schedules(n, &world)) {
            let (mut low, mut storm, mut either, mut offered) = (0, 0, 0, 0);
            for r in &cell {
                let (floor, max_attempts) = query_floors(r.get_int("offered"));
                let (l, s) = (r.get_int("cov90") < floor, r.get_int("attempts") > max_attempts);
                (low, storm, either) = (low + l as u64, storm + s as u64, either + (l || s) as u64);
                offered += r.get_int("offered");
            }
            let sorted = |col: &str| {
                let mut v: Vec<u64> = cell.iter().map(|r| r.get_int(col)).collect();
                v.sort_unstable();
                v
            };
            let (answered, attempts) = (sorted("cov90"), sorted("attempts"));
            let mid = cell.len() / 2;
            row(&[
                cell[0].get_str("backend").to_string(),
                n.to_string(),
                low.to_string(),
                storm.to_string(),
                either.to_string(),
                format!("{}/{offered}", answered.iter().sum::<u64>()),
                attempts.iter().sum::<u64>().to_string(),
                format!("{} / {}", answered[0], answered[mid]),
                format!("{} / {}", attempts[mid], attempts[cell.len() - 1]),
            ]);
        }
    }
}
