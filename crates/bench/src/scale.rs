//! `BENCH_scale.json`: the scale-and-churn survival campaign (DESIGN.md
//! §"Scale and churn"). Each cell runs one deployment size under
//! *everything at once*: moderate exponential churn, 2% uniform loss, a
//! partition window with a correlated mass failure inside it, a delay
//! spike, and sustained Zipf-skewed mixed read/write traffic driven
//! through the pipelined admission window, at N ∈ {64, 256, 1024}.
//!
//! A cell (backend, N) runs over 30 churn schedules, and its one row
//! pools them: counts summed, measurements' median, and the fewest
//! answers and most attempts of any single schedule. Any change to the
//! campaign's messages re-rolls every schedule, so a floor over one
//! schedule would assert a draw.
//!
//! Reported, not gated: `oid_drift` and `count_drift`, the live peers'
//! median `oid_distinct` and median row count of the written attribute
//! (`published_in`) at the end of the run relative to the driver's
//! exact figures (negative: the peers undercount). Lost pieces, acks
//! and notices, shard homes that churn moved or took down, and the
//! drift ε lets a summary take unpublished make them drift.
//!
//! In-code floors, over each cell's 30 schedules (`cell_gate`):
//! pooled, ≥ 95 % (P-Grid) or ≥ 90 % (Chord) of offered queries answer
//! with coverage ≥ 0.9 and total attempts (initial + retries + hedges)
//! stay ≤ 3× offered, the retry-storm bound. On every schedule, at least
//! half answer and attempts stay ≤ 10× offered (a collapse), the
//! replication repair of a write issued *during* the failure window
//! converges after revival, the repair plane's heal-phase bytes
//! (`repair_kib`) stay under a quarter of what the flat-digest protocol
//! sent in the same phase, and the records it folds into root summaries
//! (`repair_folds`) stay under a quarter of what it folded while every
//! write dropped them. Pooled over the schedules, heal-phase bytes per
//! heal-second grow sub-linearly with the records a peer stores, and
//! Chord's median schedule sends fewer messages (`msgs`, the whole
//! campaign's) than when every node pinged every finger every round.

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

use crate::backend::{for_backend, for_label, Backend, Chord, PGrid, LABELS, SEED};
use crate::snapshot::{emit, pooled, Row};
use crate::{both_backends, f, latency_summary};

/// The deployment sizes, smallest first.
const SIZES: [usize; 3] = [64, 256, 1024];

/// Churn schedules per cell: schedule `s` draws churn and mass failure
/// from the churn seed XOR `s`.
const SCHEDULES_PER_CELL: u64 = 30;

/// Pooled floor: percent of a cell's offered queries, over its
/// schedules, that answer with coverage ≥ 0.9. Chord's worst cell pools
/// 94 %, so it is held to less (DESIGN.md § Scale and churn has the
/// distribution and the margins).
const ANSWERED_PCT: [(&str, u64); 2] = [(PGrid::LABEL, 95), (Chord::LABEL, 90)];

/// Liveness-probe period in seconds (P-Grid's routing maintenance,
/// Chord's ping), the campaign's settings since it was introduced.
const PROBE_SECS: [(&str, u64); 2] = [(PGrid::LABEL, 30), (Chord::LABEL, 20)];

/// `repair_kib` of the flat `(key, version)` digest protocol in the same
/// heal phase, measured once on the commit before the hash-tree repair
/// replaced it (digest and digest-reply bytes; DESIGN.md § "Repair on
/// both backends"), one entry per size of [`SIZES`]. It re-listed every
/// stored record on every tick, so it is flat in N: the same records,
/// spread over more peers.
const FLAT_REPAIR_KIB: [(&str, [f64; 3]); 2] =
    [(PGrid::LABEL, [5_640.0, 5_119.7, 5_585.8]), (Chord::LABEL, [19_606.3, 20_040.7, 22_222.2])];

/// Pooled `repair_kib` (the median schedule's) before replica-plane
/// record lists were front-coded and Chord's pushes coalesced, one
/// entry per size of [`SIZES`]: every cell must now send less.
const PER_RECORD_REPAIR_KIB: [(&str, [f64; 3]); 2] =
    [(PGrid::LABEL, [42.3, 58.5, 116.4]), (Chord::LABEL, [246.7, 255.3, 554.7])];

/// Pooled `msgs` on Chord (the median schedule's) when every node
/// pinged `successor`, `successor2` and every finger every round,
/// measured once on the commit before ring neighbours took over failure
/// detection: one entry per size of [`SIZES`]. The liveness plane must
/// not regrow past it.
const CHORD_EVERY_FINGER_MSGS: [f64; 3] = [23_004.0, 113_474.0, 580_607.0];

/// Pooled floor on Chord's acked campaign writes, one entry per size of
/// [`SIZES`]: hinted handoff acks a write whose owner side is down
/// (DESIGN.md § Scale and churn has the margins).
const CHORD_WRITES_OK: [u64; 3] = [341, 267, 175];

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
/// XORed with it).
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
    // The distinct-OID count and the written attribute's row count the
    // live peers plan with, against the driver's exact ones. They
    // drift: churn moves shard homes, so pieces land at a peer that is
    // not the home or at a down one, the loss drops pieces, acks and
    // notices, and ε lets a summary drift unpublished.
    let master = cluster.cost_model().expect("loaded");
    let written =
        |m: &unistore_query::CostModel| m.stats.attrs.get("published_in").map_or(0.0, |a| a.count);
    let live_models = || {
        (0..n as u32)
            .map(NodeId)
            .filter(|&id| cluster.net.is_up(id))
            .filter_map(|id| cluster.net.node(id).cost_model())
    };
    let planned: Vec<f64> = live_models().map(|m| m.stats.oid_distinct).collect();
    let planned_count: Vec<f64> = live_models().map(|m| written(m)).collect();
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
        .float("oid_drift", percentile(&planned, 50.0) / master.stats.oid_distinct - 1.0, 4)
        .float("count_drift", percentile(&planned_count, 50.0) / written(&master) - 1.0, 4)
        .float("repair_s", repair_s.unwrap_or(600.0), 1)
        .float("heal_s", cluster.net.now().saturating_sub(closed_at).as_secs_f64(), 1)
        .float("repair_kib", (bytes - bytes_at_close) as f64 / 1024.0, 1)
        .int("repair_folds", folds - folds_at_close)
        .float("msgs", md.sent as f64, 1)
        .int("downs", md.downs)
        .int("ups", md.ups)
}

/// One cell's gate over its per-schedule rows (one backend, one size).
/// Every ceiling holds on every schedule, no schedule collapses — at
/// least half of its queries answer with coverage ≥ 0.9, at most
/// 10× attempts — and, pooled over the schedules, the backend's share of
/// [`ANSWERED_PCT`] answers with at most 3× attempts.
fn cell_gate(runs: &[Row]) {
    let (backend, n) = (runs[0].get_str("backend"), runs[0].get_int("n"));
    let Some(size) = SIZES.iter().position(|&s| s as u64 == n) else {
        panic!("{backend} n={n}: not a campaign size")
    };
    let flat = for_label(&FLAT_REPAIR_KIB, backend)[size];
    let refold = for_label(&REFOLD_REPAIR_FOLDS, backend)[size];
    for (s, r) in runs.iter().enumerate() {
        let at = format!("{backend} n={n} schedule {s}");
        let (offered, cov90, attempts) =
            (r.get_int("offered"), r.get_int("cov90"), r.get_int("attempts"));
        let (kib, folds) = (r.get_float("repair_kib"), r.get_int("repair_folds"));
        assert!(2 * cov90 >= offered, "{at}: {cov90}/{offered} answered at coverage >= 0.9");
        assert!(attempts <= 10 * offered, "{at}: {attempts} attempts for {offered} queries");
        assert!(
            r.get_float("repair_s") < 600.0,
            "{at}: canary replicas never reconverged after the failure window"
        );
        assert!(
            kib <= flat / 4.0,
            "{at}: {kib} KiB of repair traffic in the heal phase, the flat digests sent {flat}"
        );
        assert!(
            folds <= refold / 4,
            "{at}: {folds} records folded into root summaries in the heal phase, {refold} when \
             every write dropped them"
        );
        assert!(
            (0.0..=1.0).contains(&r.get_float("gini_load"))
                && (0.0..=1.0).contains(&r.get_float("stale_frac")),
            "{at}: skew/staleness out of range"
        );
        assert!(r.get_int("downs") > 0 && r.get_int("ups") > 0, "{at}: no churn executed");
    }
    let kibs: Vec<f64> = runs.iter().map(|r| r.get_float("repair_kib")).collect();
    let (kib, before) = (percentile(&kibs, 50.0), for_label(&PER_RECORD_REPAIR_KIB, backend)[size]);
    assert!(
        kib < before,
        "{backend} n={n}: {kib} KiB of repair traffic in the median heal phase, {before} when \
         records travelled one by one"
    );
    let sum = |column| runs.iter().map(|r| r.get_int(column)).sum::<u64>();
    if backend == Chord::LABEL {
        let (ok, floor) = (sum("writes_ok"), CHORD_WRITES_OK[size]);
        assert!(
            ok >= floor,
            "{backend} n={n}: {ok} writes acked over the schedules, floor {floor}"
        );
        let msgs: Vec<f64> = runs.iter().map(|r| r.get_float("msgs")).collect();
        let (msgs, before) = (percentile(&msgs, 50.0), CHORD_EVERY_FINGER_MSGS[size]);
        assert!(
            msgs < before,
            "{backend} n={n}: the median schedule sent {msgs} messages, {before} when every \
             node pinged every finger every round"
        );
    }
    let (offered, cov90, attempts) = (sum("offered"), sum("cov90"), sum("attempts"));
    let floor = (offered * for_label(&ANSWERED_PCT, backend)).div_ceil(100);
    assert!(
        cov90 >= floor,
        "{backend} n={n}: {cov90}/{offered} queries over {} schedules answered with coverage \
         >= 0.9, floor {floor}",
        runs.len()
    );
    assert!(
        attempts <= 3 * offered,
        "{backend} n={n}: {attempts} attempts for {offered} offered queries over {} schedules \
         breaches the 3x retry-storm bound",
        runs.len()
    );
}

/// A cell's row: its schedules pooled, and the extremes of the
/// per-schedule collapse bound.
fn cell_row(runs: &[Row]) -> Row {
    let extreme = |column, pick: fn(u64, u64) -> u64| {
        runs.iter().map(|r| r.get_int(column)).reduce(pick).unwrap_or(0)
    };
    pooled(runs, &["n"])
        .int("schedules", runs.len() as u64)
        .int("cov90_min", extreme("cov90", u64::min))
        .int("attempts_max", extreme("attempts", u64::max))
}

fn floors(rows: &[Row], cells: &[Vec<Row>]) {
    for runs in cells {
        cell_gate(runs);
    }
    for backend in LABELS {
        // Peers at the smallest N store N_max/N_min times the records of
        // peers at the largest: what one of them sends per heal-second
        // must grow by less than that, i.e. the cluster-wide rate must be
        // lower where ranges are larger.
        let mine: Vec<&[Row]> = cells
            .iter()
            .filter(|runs| runs[0].get_str("backend") == backend)
            .map(Vec::as_slice)
            .collect();
        let rate = |runs: &[Row]| {
            let sum = |column| runs.iter().map(|r| r.get_float(column)).sum::<f64>();
            sum("repair_kib") / sum("heal_s")
        };
        if let [small, .., large] = mine.as_slice() {
            assert!(
                rate(small) < rate(large),
                "{backend}: repair bytes per peer grew at least linearly with records per peer \
                 ({} KiB/s at n={} against {} at n={})",
                f(rate(small)),
                small[0].get_int("n"),
                f(rate(large)),
                large[0].get_int("n")
            );
        }
    }
    // The paper's balancing claim, quantified at the largest measured
    // size: report P-Grid's load skew against Chord's.
    if let [.., pgrid, chord] = rows {
        println!(
            "\nload skew at N={} (median): P-Grid gini {} vs Chord gini {}",
            pgrid.get_int("n"),
            f(pgrid.get_float("gini_load")),
            f(chord.get_float("gini_load"))
        );
    }
}

/// One cell over every schedule.
fn runs<B: Backend>(n: usize, world: &PubWorld) -> Vec<Row> {
    (0..SCHEDULES_PER_CELL).map(|s| campaign::<B>(n, world, s)).collect()
}

/// Writes `BENCH_scale.json`: one row per cell, once every cell's gate
/// holds.
pub fn snapshot() {
    let world = PubWorld::generate(
        &PubParams { n_authors: 60, n_conferences: 15, ..Default::default() },
        SEED,
    );
    let mut cells: Vec<Vec<Row>> = Vec::new();
    for n in SIZES {
        cells.extend(both_backends!(runs(n, &world)));
    }
    let rows: Vec<Row> = cells.iter().map(|runs| cell_row(runs)).collect();
    emit(
        Path::new("BENCH_scale.json"),
        &format!(
            "Scale — churn + loss + partition + mass failure, mixed Zipf load, \
             {SCHEDULES_PER_CELL} churn schedules per cell"
        ),
        &rows,
        |rows| floors(rows, &cells),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A P-Grid N = 64 schedule's row as far as the gate reads it:
    /// `repair` is `(repair_s, repair_kib, repair_folds)`.
    fn schedule(cov90: u64, attempts: u64, repair: (f64, f64, u64)) -> Row {
        on(PGrid::LABEL, cov90, attempts, repair)
    }

    /// The same row on `backend`.
    fn on(backend: &str, cov90: u64, attempts: u64, repair: (f64, f64, u64)) -> Row {
        let (repair_s, kib, folds) = repair;
        Row::new()
            .str("backend", backend)
            .int("n", 64)
            .int("offered", 120)
            .int("cov90", cov90)
            .int("attempts", attempts)
            .float("gini_load", 0.2, 4)
            .float("stale_frac", 0.05, 4)
            .float("repair_s", repair_s, 1)
            .float("repair_kib", kib, 1)
            .int("repair_folds", folds)
            .int("downs", 9)
            .int("ups", 6)
    }

    /// A healthy Chord N = 64 schedule with `writes_ok` acked writes
    /// and `msgs` messages sent.
    fn chord(writes_ok: u64, msgs: f64) -> Row {
        on(Chord::LABEL, 120, 150, HEALED).int("writes_ok", writes_ok).float("msgs", msgs, 1)
    }

    const HEALED: (f64, f64, u64) = (10.0, 40.0, 0);

    fn cell(first: Row, rest: Row) -> Vec<Row> {
        std::iter::once(first).chain(std::iter::repeat_n(rest, 29)).collect()
    }

    fn fails(runs: &[Row]) -> bool {
        std::panic::catch_unwind(|| cell_gate(runs)).is_err()
    }

    #[test]
    fn a_cell_exactly_at_the_pooled_floors_passes_and_one_answer_fewer_fails() {
        // 95 % of 30 × 120 is 3 420 = 30 × 114; 3× is 10 800 = 30 × 360.
        let at_floor = schedule(114, 360, HEALED);
        assert!(!fails(&cell(at_floor.clone(), at_floor.clone())));
        assert!(fails(&cell(schedule(113, 360, HEALED), at_floor.clone())));
        assert!(fails(&cell(schedule(114, 361, HEALED), at_floor)));
    }

    #[test]
    fn pooled_figures_do_not_save_a_cell_with_one_collapsed_schedule() {
        let healthy = schedule(120, 150, HEALED);
        // Half of 120 is 60; 10× is 1 200. Pooled, each cell holds.
        assert!(!fails(&cell(schedule(60, 1_200, HEALED), healthy.clone())));
        assert!(fails(&cell(schedule(59, 150, HEALED), healthy.clone())));
        assert!(fails(&cell(schedule(120, 1_201, HEALED), healthy)));
    }

    #[test]
    fn a_chord_cell_under_its_acked_write_floor_fails() {
        // Chord N = 64 is held to 341 acked writes over its schedules.
        let acked = |writes_ok| chord(writes_ok, 20_000.0);
        assert!(!fails(&cell(acked(341 - 29 * 11), acked(11))));
        assert!(fails(&cell(acked(340 - 29 * 11), acked(11))));
    }

    #[test]
    fn a_chord_cell_whose_median_messages_did_not_fall_fails() {
        // Chord N = 64 sent 23 004 messages when it pinged every finger.
        let sent = |msgs| chord(12, msgs);
        assert!(!fails(&cell(sent(23_003.9), sent(23_003.9))));
        assert!(fails(&cell(sent(23_004.0), sent(23_004.0))));
    }

    #[test]
    fn a_cell_whose_median_repair_bytes_did_not_fall_fails() {
        // P-Grid N = 64 sent 42.3 KiB when records travelled one by one.
        let sent = |kib| schedule(114, 150, (10.0, kib, 0));
        assert!(!fails(&cell(sent(42.2), sent(42.2))));
        assert!(fails(&cell(sent(42.3), sent(42.3))));
    }

    #[test]
    fn one_schedule_over_a_repair_ceiling_fails_the_cell() {
        let healthy = schedule(120, 150, HEALED);
        assert!(!fails(&cell(schedule(120, 150, (599.9, 1_410.0, 133_274)), healthy.clone())));
        // P-Grid N = 64: the flat digests sent 5 640 KiB, refolding 533 097 records.
        for over in [(600.0, 40.0, 0), (10.0, 1_410.1, 0), (10.0, 40.0, 133_275)] {
            assert!(fails(&cell(schedule(120, 150, over), healthy.clone())), "{over:?}");
        }
    }
}
