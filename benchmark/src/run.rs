//! The runner: set-up (three times), the measured phase, the checks, and
//! the result line. `--trace 1` swaps the measured phase for the short
//! traced run that yields the per-layer metrics.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::alloc;
use crate::churn::{ChurnChord, ChurnPGrid};
use crate::probes::{probe_world, replay_samples, OverlayMetrics};
use crate::spec::{self, Sizes, WorkloadSpec};
use crate::stats::{mean, median, percentile, tail_percentile};
use crate::trace::{by_name, mean_us, self_times, write_jsonl, Tracer};
use crate::workloads::{
    sum_node_counters, time_raw_lookups, Ingest, Reads, Recorder, SetupTimes, Workload,
};

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u32,
    pub trace: bool,
    pub sizes: Sizes,
    /// Where the traced run writes `trace-<workload>.jsonl`.
    pub out_dir: PathBuf,
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub first_wrong: Option<String>,
}

impl RunResult {
    /// The one-line JSON object the driver reads.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A number as measured, with all its digits (Rust prints the shortest
/// text that reads back to the same f64).
fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "a metric came out as {v}");
    format!("{v}")
}

pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let w = spec::workload(&args.workload).ok_or_else(|| {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {:?}; one of {}", args.workload, names.join(", "))
    })?;
    let s = args.sizes;
    Ok(match w.name {
        "point_read" => drive(args, w, |seed, _| Reads::point_read(&s, seed)),
        "join3" => drive(args, w, |seed, _| Reads::join3(&s, seed)),
        "ingest" => drive(args, w, |seed, trials| Ingest::setup(&s, seed, trials)),
        "churn_pgrid" => drive(args, w, |seed, trials| ChurnPGrid::setup(&s, seed, trials)),
        "churn_chord" => drive(args, w, |seed, trials| ChurnChord::setup(&s, seed, trials)),
        other => unreachable!("workload {other} is in the spec but has no driver"),
    })
}

fn drive<W: Workload>(
    args: &RunArgs,
    w: &WorkloadSpec,
    setup: impl Fn(u64, usize) -> (W, SetupTimes),
) -> RunResult {
    let sizes = &args.sizes;
    let trials = match args.trace {
        true => sizes.trace_trials,
        false => sizes.trials(w, args.seconds),
    };
    // Full set-ups, one after the other; the last one is measured on. The
    // previous one is dropped first so peak memory holds a single world.
    let mut setup_s = Vec::new();
    let mut built: Option<(W, SetupTimes)> = None;
    for _ in 0..if args.trace { 1 } else { sizes.setups } {
        drop(built.take());
        let t = Instant::now();
        built = Some(setup(args.seed, trials));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (mut workload, times) = built.expect("at least one set-up runs");
    match args.trace {
        false => measured(args, &mut workload, trials, &setup_s),
        true => traced(args, &mut workload, trials, times),
    }
}

fn verdict(rec: &Recorder, metrics: Vec<Metric>) -> RunResult {
    RunResult {
        correct: rec.wrong == 0,
        attempted: rec.attempted,
        failed: rec.wrong,
        metrics,
        first_wrong: rec.first_wrong.clone(),
    }
}

/// The untraced run: every end-to-end metric.
fn measured<W: Workload>(args: &RunArgs, w: &mut W, trials: usize, setup_s: &[f64]) -> RunResult {
    let mut rec = Recorder::new(false, 1);
    let ops_per_trial = w.ops_per_trial() as f64;
    let before = w.cluster().net.metrics();
    let mut rates = Vec::with_capacity(trials);
    let mut wall = 0.0;
    for idx in 0..trials {
        let t = Instant::now();
        w.trial(idx, &mut rec);
        let took = t.elapsed().as_secs_f64();
        wall += took;
        rates.push(ops_per_trial / took);
        w.after_trial(&mut rec);
    }
    let net = w.cluster().net.metrics().delta(&before);
    w.finish(&mut rec, false);

    let ops = trials as f64 * ops_per_trial;
    assert_eq!(rec.attempted as f64, ops, "every op of every trial is booked once");
    let n = rec.lat_ms.len();
    eprintln!(
        "{}: seed {} | {trials} trials x {ops_per_trial} ops in {wall:.2} s | set-ups {setup_s:.3?} s",
        args.workload, args.seed,
    );
    eprintln!(
        "  trial ops/s: min {:.1} p10 {:.1} median {:.1} p90 {:.1} max {:.1}",
        percentile(&rates, 0.0),
        percentile(&rates, 10.0),
        median(&rates),
        percentile(&rates, 90.0),
        percentile(&rates, 100.0),
    );
    eprintln!(
        "  {n} latency samples (highest percentile with >= 10 beyond it: {}) | reads {} ok {} | writes {} acked {} | dropped msgs {} | crashes {}",
        tail_percentile(n).map_or("none, median only".to_string(), |p| format!("p{p}")),
        rec.reads,
        rec.reads_ok,
        rec.writes,
        rec.writes_acked,
        net.dropped,
        net.downs,
    );
    if let Some(what) = &rec.first_wrong {
        eprintln!("INCORRECT ({} ops): {what}", rec.wrong);
    }
    let metric = |name: &'static str, value: f64| {
        let unit = spec::END_TO_END.iter().find(|m| m.name == name).expect("a spec metric").unit;
        Metric { name, value, unit }
    };
    let metrics = vec![
        metric("wall_ops_per_s", percentile(&rates, 90.0)),
        metric("sim_p50_ms", percentile(&rec.lat_ms, 50.0)),
        metric("sim_p99_ms", percentile(&rec.lat_ms, 99.0)),
        metric("msgs_per_op", net.sent as f64 / ops),
        metric("wire_kib_per_op", net.bytes as f64 / 1024.0 / ops),
        metric("success_rate", rec.succeeded as f64 / rec.attempted.max(1) as f64),
        metric("setup_s", median(setup_s)),
        metric("peak_rss_mib", peak_rss_mib()),
    ];
    verdict(&rec, metrics)
}

/// The traced run: a few trials, alternately with and without span
/// recording, then the replays and world probes. Yields every per-layer
/// metric and writes the spans.
fn traced<W: Workload>(args: &RunArgs, w: &mut W, trials: usize, times: SetupTimes) -> RunResult {
    let sizes = &args.sizes;
    let ops_per_trial = w.ops_per_trial();
    let recorded_ops = trials.div_ceil(2) * ops_per_trial;
    // About 64 sampled ops whatever the workload's op count.
    let mut rec = Recorder::new(true, (recorded_ops / 64).max(1));
    let counters0 = sum_node_counters(w.cluster());
    let before = w.cluster().net.metrics();
    let (mut wall_on, mut wall_off) = (Vec::new(), Vec::new());
    let (mut allocs, mut alloc_bytes, mut untraced_ops) = (0u64, 0u64, 0usize);
    let mut trial_walls = Vec::new();
    for idx in 0..trials {
        let on = idx % 2 == 0;
        rec.tracer.set_on(on);
        let (a0, b0) = alloc::snapshot();
        let t = Instant::now();
        w.trial(idx, &mut rec);
        let wall = t.elapsed().as_secs_f64();
        let (a1, b1) = alloc::snapshot();
        trial_walls.push(wall);
        match on {
            true => wall_on.push(wall),
            false => {
                wall_off.push(wall);
                allocs += a1 - a0;
                alloc_bytes += b1 - b0;
                untraced_ops += ops_per_trial;
            }
        }
        w.after_trial(&mut rec);
    }
    let net = w.cluster().net.metrics().delta(&before);
    let counters = sum_node_counters(w.cluster());
    let wall_total: f64 = trial_walls.iter().sum();
    let recorded_spans = rec.tracer.spans().len();
    rec.tracer.set_on(false);
    w.finish(&mut rec, true);
    let ops = (trials * ops_per_trial) as f64;

    // Replays of the sampled ops, on the workload's own cluster and oracle.
    rec.tracer.set_on(true);
    let samples = std::mem::take(&mut rec.samples);
    let oracle = w.oracle().clone();
    let model = w.cluster().cost_model().expect("a loaded cluster has a cost model");
    let world = w.world().clone();
    let replay =
        replay_samples(&samples, &world, &oracle, &model, &mut rec.tracer, |keys, tr, op| {
            time_raw_lookups(w.cluster(), keys, tr, op)
        });
    rec.tracer.set_on(false);
    let probes = probe_world(&world, &oracle, sizes, args.seed);

    let spans = rec.tracer.spans();
    let selfs = self_times(spans);
    let path = args.out_dir.join(format!("trace-{}.jsonl", args.workload));
    if let Err(e) = write_jsonl(&path, spans, &selfs) {
        eprintln!("could not write {}: {e}", path.display());
    }
    let by = by_name(spans, &selfs);

    // Wall time of one op: the `op` spans where ops run one at a time,
    // else (pipelined bursts) the trial's wall time shared among its ops.
    let op_walls_us: Vec<f64> = match by.contains_key("op") {
        true => {
            spans.iter().filter(|s| s.name == "op").map(|s| s.duration_ns() as f64 / 1e3).collect()
        }
        false => trial_walls.iter().map(|t| t * 1e6 / ops_per_trial as f64).collect(),
    };
    let op_mean_us = mean(&op_walls_us);
    // `query.relops` is left out: the centralised stand-in joins
    // unreduced relations, the distributed plan Bloom-filtered ones.
    let explained = replay.parse_us
        + replay.analyze_us
        + replay.plan_us
        + replay.cost_choose_us
        + replay.raw_lookup_us;
    let insert_batch_us = match by.contains_key("core.insert_batch") {
        true => mean_us(&by, "core.insert_batch"),
        false => probes.insert_batch_us,
    };
    let triples_per_s = match rec.triples_written {
        0 => probes.insert_triples_per_s,
        n => n as f64 / wall_total,
    };
    // Tracing overhead: spans recorded x the calibrated cost of one span,
    // over the wall time of the recorded trials. The on/off difference of
    // the two halves is printed too; with trials that differ in work
    // (churn) it measures the trials, not the tracing.
    let overhead_pct =
        recorded_spans as f64 * span_cost_ns() / 1e9 / wall_on.iter().sum::<f64>() * 100.0;
    eprintln!(
        "{}: recorded trials took {:+.2} % of the unrecorded ones' median wall time",
        args.workload,
        (median(&wall_on) / median(&wall_off) - 1.0) * 100.0
    );
    let events = (net.delivered + net.timers_fired + net.downs + net.ups) as f64;
    let ratio = |num: u64, den: u64| if den == 0 { 1.0 } else { num as f64 / den as f64 };

    print_shares(&args.workload, &path, &by, op_mean_us, spans.len(), samples.len());

    let mut values: Vec<(&'static str, f64)> = vec![
        ("vql.parse_us", replay.parse_us),
        ("vql.analyze_us", replay.analyze_us),
        ("vql.allocs_per_query", replay.front_end_allocs),
        ("query.plan_us", replay.plan_us),
        ("query.cost_choose_us", replay.cost_choose_us),
        ("query.join_us_per_krow", probes.join_us_per_krow),
        ("query.join_allocs_per_row", probes.join_allocs_per_row),
        ("query.filter_ns_per_row", probes.filter_ns_per_row),
        ("query.oracle_exec_us", replay.oracle_exec_us),
        ("query.mqp_wire_bytes", replay.mqp_wire_bytes),
        ("query.stats_apply_us_per_batch", probes.stats_apply_us_per_batch),
        ("query.stats_build_s", probes.stats_build_s),
        ("store.to_triples_ns_per_tuple", replay.to_triples_ns_per_tuple),
        ("store.key_derive_ns_per_triple", replay.key_derive_ns_per_triple),
        ("store.local_point_ns", probes.local_point_ns),
        ("store.local_range_ns_per_row", probes.local_range_ns_per_row),
        ("store.local_insert_ns_per_triple", probes.local_insert_ns_per_triple),
        ("util.wire_size_ns_per_msg", replay.wire_size_ns_per_msg),
        ("util.encode_ns_per_kib", replay.encode_ns_per_kib),
        ("util.decode_ns_per_kib", replay.decode_ns_per_kib),
        ("util.encode_allocs_per_msg", replay.encode_allocs_per_msg),
        ("util.decode_allocs_per_msg", replay.decode_allocs_per_msg),
        ("util.opbatch_bytes_per_triple", probes.opbatch_bytes_per_triple),
        ("util.bloom_build_ns_per_key", probes.bloom_build_ns_per_key),
        ("util.bloom_bytes_per_key", probes.bloom_bytes_per_key),
        ("simnet.events_per_op", events / ops),
        ("simnet.timers_per_op", net.timers_fired as f64 / ops),
        ("simnet.wall_ns_per_event", wall_total * 1e9 / events.max(1.0)),
        ("simnet.bare_events_per_s", probes.bare_events_per_s),
        ("simnet.dropped_per_op", net.dropped as f64 / ops),
    ];
    values.extend(overlay_values(
        &probes.pgrid,
        [
            "pgrid.lookup_us",
            "pgrid.lookup_hops",
            "pgrid.lookup_msgs",
            "pgrid.range_us",
            "pgrid.range_msgs",
            "pgrid.batch_msgs_per_ktriple",
            "pgrid.batch_kib_per_ktriple",
            "pgrid.build_s",
        ],
    ));
    values.push(("pgrid.range_leaves", probes.pgrid.range_leaves));
    values.extend(overlay_values(
        &probes.chord,
        [
            "chord.lookup_us",
            "chord.lookup_hops",
            "chord.lookup_msgs",
            "chord.range_us",
            "chord.range_msgs",
            "chord.batch_msgs_per_ktriple",
            "chord.batch_kib_per_ktriple",
            "chord.build_s",
        ],
    ));
    let retries = counters.retries - counters0.retries;
    let hedges = counters.hedges - counters0.hedges;
    values.extend([
        ("overlay.raw_lookup_us", replay.raw_lookup_us),
        ("core.submit_us", mean_us(&by, "core.submit")),
        ("core.wait_us", mean_us(&by, "core.wait")),
        ("core.insert_batch_us", insert_batch_us),
        ("core.op_wall_p50_us", percentile(&op_walls_us, 50.0)),
        ("core.op_wall_p99_us", percentile(&op_walls_us, 99.0)),
        ("core.residual_us", op_mean_us - explained),
        ("core.allocs_per_op", allocs as f64 / untraced_ops.max(1) as f64),
        ("core.alloc_kib_per_op", alloc_bytes as f64 / 1024.0 / untraced_ops.max(1) as f64),
        ("core.hops_per_op", rec.hops as f64 / ops),
        ("core.attempts_per_op", (ops + (retries + hedges) as f64) / ops),
        ("core.hedges_per_op", hedges as f64 / ops),
        ("core.suppressed_per_op", (counters.suppressed - counters0.suppressed) as f64 / ops),
        (
            "core.coverage_mean",
            if rec.reads == 0 { 1.0 } else { rec.coverage_sum / rec.reads as f64 },
        ),
        ("core.read_success_rate", ratio(rec.reads_ok, rec.reads)),
        ("core.write_ack_rate", ratio(rec.writes_acked, rec.writes)),
        ("core.acked_durable_rate", ratio(rec.writes_durable, rec.writes_acked)),
        ("core.repair_lag_sim_s", rec.repair_lag_sim_s),
        ("core.triples_per_s", triples_per_s),
        ("core.load_s", times.load_s),
        ("core.live_point_us", probes.live_point_us),
        ("workload.gen_s", times.gen_s),
        ("trace.overhead_pct", overhead_pct),
    ]);
    eprintln!(
        "{}: set-up parts: generate {:.3} s, build {:.3} s, load {:.3} s, oracle {:.3} s",
        args.workload, times.gen_s, times.build_s, times.load_s, times.oracle_s
    );

    let metrics: Vec<Metric> = spec::PER_LAYER
        .iter()
        .map(|m| {
            let value = values
                .iter()
                .find(|(name, _)| *name == m.name)
                .unwrap_or_else(|| panic!("per-layer metric {} was not measured", m.name))
                .1;
            Metric { name: m.name, value, unit: m.unit }
        })
        .collect();
    assert_eq!(values.len(), metrics.len(), "a measured value is not in the spec");
    verdict(&rec, metrics)
}

/// Wall cost of recording one span (open + close), measured here.
fn span_cost_ns() -> f64 {
    const N: u64 = 100_000;
    let mut t = Tracer::new(true);
    let start = Instant::now();
    for op in 0..N {
        let s = t.open("calibration", op);
        t.close(s);
    }
    std::hint::black_box(t.spans().len());
    start.elapsed().as_secs_f64() * 1e9 / N as f64
}

fn overlay_values(m: &OverlayMetrics, names: [&'static str; 8]) -> Vec<(&'static str, f64)> {
    let v = [
        m.lookup_us,
        m.lookup_hops,
        m.lookup_msgs,
        m.range_us,
        m.range_msgs,
        m.batch_msgs_per_ktriple,
        m.batch_kib_per_ktriple,
        m.build_s,
    ];
    names.into_iter().zip(v).collect()
}

/// Each span name's mean duration, self time and share of the mean op.
fn print_shares(
    workload: &str,
    path: &Path,
    by: &std::collections::BTreeMap<&'static str, (u64, u64, u64)>,
    op_mean_us: f64,
    spans: usize,
    samples: usize,
) {
    eprintln!(
        "{workload}: {spans} spans ({samples} sampled ops replayed) -> {}; mean op {:.2} us",
        path.display(),
        op_mean_us
    );
    eprintln!(
        "  {:<22} {:>8} {:>12} {:>12} {:>9}",
        "span", "count", "mean us", "self us", "% of op"
    );
    for (name, &(n, total, own)) in by {
        let mean = total as f64 / n.max(1) as f64 / 1e3;
        eprintln!(
            "  {:<22} {:>8} {:>12.3} {:>12.3} {:>8.1}%",
            name,
            n,
            mean,
            own as f64 / n.max(1) as f64 / 1e3,
            100.0 * mean / op_mean_us.max(f64::MIN_POSITIVE)
        );
    }
}
