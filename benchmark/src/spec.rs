//! The benchmark's specification: every name, unit, direction, bound,
//! layer→metric link, workload rationale and frozen size lives here and
//! nowhere else. `--emit-spec` renders [`benchmark_json`] to
//! `BENCHMARK.json`; a test fails when the committed file differs.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric a user of the system sees, gated by `bound`.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Definition (README and `--help`; not part of `BENCHMARK.json`).
    pub what: &'static str,
}

/// A metric of one layer (layer = crate), never gated.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload this one should move
    /// (choosing-metrics §3, written down before measuring).
    pub moves: &'static str,
}

/// One set of inputs the benchmark runs.
pub struct WorkloadSpec {
    pub name: &'static str,
    /// One line, ≤ 200 characters: why the workload exists.
    pub why: &'static str,
    /// Frozen calibration: trials per nominal second of `--seconds` on
    /// the machine the benchmark was calibrated on. The trial count of a
    /// run is `max(MIN_TRIALS, round(seconds × this))` — a function of
    /// the arguments only, never of a clock.
    pub trials_per_second: f64,
}

/// `run_seconds` of `BENCHMARK.json`: the nominal length of the measured
/// phase the driver asks for.
pub const RUN_SECONDS: u32 = 15;
/// Fewest trials any full-size run measures.
pub const MIN_TRIALS: usize = 40;
/// Full set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];
pub const PATHS: &[&str] = &["benchmark"];

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "point_read",
        why: "1-row SELECTs by name and by oid on 256 P-Grid peers: per-op fixed costs (VQL front end, planning, routing, SimNet per-event work, small-message codec) dominate; relation operators idle",
        trials_per_second: 6.8,
    },
    WorkloadSpec {
        name: "join3",
        why: "5-pattern, 3-way join over 3-year age windows on 256 P-Grid peers: range shower, leaf scans, Bloom semi-join, Relation::join and large-payload codec dominate; the front end is under 1 %",
        trials_per_second: 8.5,
    },
    WorkloadSpec {
        name: "ingest",
        why: "64-tuple insert_batch ops (every 8th adds an update and a delete_batch) plus one stats flush per trial: key derivation, OpBatch fork/ack and StatsDelta fold; shows a read gain that costs writes",
        trials_per_second: 4.27,
    },
    WorkloadSpec {
        name: "churn_pgrid",
        why: "128 P-Grid peers under heavy churn and 2 % loss, 40 pipelined Zipf reads + 4 write batches per 30 s slice: timers, retries, hedges, batch-ack retransmit and repair instead of the healthy path",
        trials_per_second: 10.0,
    },
    WorkloadSpec {
        name: "churn_chord",
        why: "the same campaign on 128 Chord+bucket peers: the second backend's finger detours, positional batch acks and flat-digest anti-entropy, which no P-Grid workload executes",
        trials_per_second: 3.4,
    },
];

/// The same eight metrics on every workload.
///
/// The bounds answer to the rule the benchmark is accepted under: over
/// ten runs with ten different seeds, the interquartile spread of every
/// metric on every workload stays within the metric's one bound. Each
/// bound is about three times the widest spread measured for it on any
/// workload (README, "Spread between seeds") — except `wall_ops_per_s`,
/// which gets the largest bound allowed: on the two-core VM this was built
/// on, a noisy neighbour slows whole runs by up to 17 % for minutes. The
/// count and simulated-time metrics are bit-identical for one seed, so
/// between two commits on the same seeds any difference in them is real,
/// whatever the bound.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "wall_ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        what: "ops per wall second: upper decile over trials of trial_ops / trial_wall (interference only ever slows a trial) — the CPU cost of the whole stack",
    },
    EndToEnd {
        name: "sim_p50_ms",
        unit: "sim_ms",
        better: Better::Lower,
        bound: 0.15,
        what: "median simulated latency from submission to the client's final answer, in simulated milliseconds (deterministic per seed, hence not the unit ms)",
    },
    EndToEnd {
        name: "sim_p99_ms",
        unit: "sim_ms",
        better: Better::Lower,
        bound: 0.15,
        what: "99th percentile of the same latencies (>= 1 000 samples, so >= 10 lie beyond it); an op without a positive final answer counts at the client's 32 s deadline",
    },
    EndToEnd {
        name: "msgs_per_op",
        unit: "count",
        better: Better::Lower,
        bound: 0.08,
        what: "NetMetrics.sent over the measured phase / ops, maintenance, stats and repair traffic included",
    },
    EndToEnd {
        name: "wire_kib_per_op",
        unit: "KiB",
        better: Better::Lower,
        bound: 0.1,
        what: "NetMetrics.bytes over the measured phase / ops / 1024",
    },
    EndToEnd {
        name: "success_rate",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.05,
        what: "ops that completed and passed the oracle check / ops attempted (churn_*: reads ok at coverage >= 0.9 with rows within the oracle; writes acked and readable after the heal)",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "world generation + cluster build + load + cost model + oracle answers, median of 3 full set-ups",
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.08,
        what: "VmHWM of the benchmark process at exit",
    },
];

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, moves }
}

use Better::{Higher as H, Lower as L};

/// Layer = crate. Measured from outside, by timing public functions on
/// the workload's own inputs and by counters read at the driver.
pub const PER_LAYER: &[PerLayer] = &[
    // vql
    pl("vql.parse_us", "us", L, "wall_ops_per_s on point_read (front end is about a quarter of an op there); no change on join3"),
    pl("vql.analyze_us", "us", L, "wall_ops_per_s on point_read; no change on join3"),
    pl("vql.allocs_per_query", "count", L, "wall_ops_per_s on point_read"),
    // query
    pl("query.plan_us", "us", L, "wall_ops_per_s on point_read"),
    pl("query.cost_choose_us", "us", L, "wall_ops_per_s on point_read"),
    pl("query.join_us_per_krow", "us", L, "wall_ops_per_s on join3"),
    pl("query.join_allocs_per_row", "count", L, "wall_ops_per_s and peak_rss_mib on join3"),
    pl("query.filter_ns_per_row", "ns", L, "wall_ops_per_s on join3"),
    pl("query.oracle_exec_us", "us", L, "centralised floor of an op; setup_s (oracle answers) on every workload"),
    pl("query.mqp_wire_bytes", "B", L, "wire_kib_per_op on join3"),
    pl("query.stats_apply_us_per_batch", "us", L, "wall_ops_per_s on ingest (every peer folds every flushed delta)"),
    pl("query.stats_build_s", "s", L, "setup_s on every workload"),
    // store
    pl("store.to_triples_ns_per_tuple", "ns", L, "wall_ops_per_s on ingest"),
    pl("store.key_derive_ns_per_triple", "ns", L, "wall_ops_per_s on ingest; setup_s (load)"),
    pl("store.local_point_ns", "ns", L, "setup_s (oracle) and wall_ops_per_s on point_read"),
    pl("store.local_range_ns_per_row", "ns", L, "wall_ops_per_s on join3 (leaf scans)"),
    pl("store.local_insert_ns_per_triple", "ns", L, "setup_s (oracle store)"),
    // util
    pl("util.wire_size_ns_per_msg", "ns", L, "wall_ops_per_s on all workloads (SimNet sizes every send), most on join3"),
    pl("util.encode_ns_per_kib", "ns", L, "wall_ops_per_s on join3 and ingest"),
    pl("util.decode_ns_per_kib", "ns", L, "wall_ops_per_s on join3 and ingest"),
    pl("util.encode_allocs_per_msg", "count", L, "wall_ops_per_s on join3 and ingest"),
    pl("util.decode_allocs_per_msg", "count", L, "wall_ops_per_s on join3 and ingest"),
    pl("util.opbatch_bytes_per_triple", "B", L, "wire_kib_per_op on ingest"),
    pl("util.bloom_build_ns_per_key", "ns", L, "wall_ops_per_s on join3"),
    pl("util.bloom_bytes_per_key", "B", L, "wire_kib_per_op on join3"),
    // simnet
    pl("simnet.events_per_op", "count", L, "wall_ops_per_s on point_read and churn_*"),
    pl("simnet.timers_per_op", "count", L, "wall_ops_per_s on churn_*"),
    pl("simnet.wall_ns_per_event", "ns", L, "wall_ops_per_s on point_read and churn_* (ops/s is about 1e9 / (events_per_op x this))"),
    pl("simnet.bare_events_per_s", "1/s", H, "wall_ops_per_s on point_read and churn_* (event loop with a trivial NodeBehavior)"),
    pl("simnet.dropped_per_op", "count", L, "success_rate and sim_p99_ms on churn_*"),
    // pgrid
    pl("pgrid.lookup_us", "us", L, "wall_ops_per_s on point_read"),
    pl("pgrid.lookup_hops", "count", L, "sim_p50_ms on point_read"),
    pl("pgrid.lookup_msgs", "count", L, "msgs_per_op on point_read"),
    pl("pgrid.range_us", "us", L, "wall_ops_per_s on join3"),
    pl("pgrid.range_msgs", "count", L, "msgs_per_op on join3"),
    pl("pgrid.range_leaves", "count", L, "sim_p50_ms on join3 (the slowest leaf sets the scan's time)"),
    pl("pgrid.batch_msgs_per_ktriple", "count", L, "msgs_per_op on ingest"),
    pl("pgrid.batch_kib_per_ktriple", "KiB", L, "wire_kib_per_op on ingest"),
    pl("pgrid.build_s", "s", L, "setup_s on the P-Grid workloads"),
    // chord
    pl("chord.lookup_us", "us", L, "wall_ops_per_s on churn_chord; no change on the P-Grid workloads"),
    pl("chord.lookup_hops", "count", L, "sim_p50_ms on churn_chord"),
    pl("chord.lookup_msgs", "count", L, "msgs_per_op on churn_chord"),
    pl("chord.range_us", "us", L, "wall_ops_per_s on churn_chord"),
    pl("chord.range_msgs", "count", L, "msgs_per_op on churn_chord"),
    pl("chord.batch_msgs_per_ktriple", "count", L, "msgs_per_op on churn_chord"),
    pl("chord.batch_kib_per_ktriple", "KiB", L, "wire_kib_per_op on churn_chord"),
    pl("chord.build_s", "s", L, "setup_s on churn_chord"),
    // overlay
    pl("overlay.raw_lookup_us", "us", L, "wall_ops_per_s on point_read (op wall minus this is the query layer's overhead)"),
    // core
    pl("core.submit_us", "us", L, "wall_ops_per_s (parse, analyze, plan, admit)"),
    pl("core.wait_us", "us", L, "wall_ops_per_s (event loop until the completion)"),
    pl("core.insert_batch_us", "us", L, "wall_ops_per_s on ingest"),
    pl("core.op_wall_p50_us", "us", L, "wall_ops_per_s"),
    pl("core.op_wall_p99_us", "us", L, "wall_ops_per_s (tail ops: stats ticks, retries)"),
    pl("core.residual_us", "us", L, "wall_ops_per_s: op wall minus the replayed layers, i.e. what no layer metric explains"),
    pl("core.allocs_per_op", "count", L, "wall_ops_per_s, most on join3"),
    pl("core.alloc_kib_per_op", "KiB", L, "wall_ops_per_s and peak_rss_mib on join3 and ingest"),
    pl("core.hops_per_op", "count", L, "sim_p50_ms"),
    pl("core.attempts_per_op", "count", L, "msgs_per_op and sim_p99_ms on churn_*"),
    pl("core.hedges_per_op", "count", L, "msgs_per_op on churn_*"),
    pl("core.suppressed_per_op", "count", L, "sim_p99_ms on churn_*"),
    pl("core.coverage_mean", "ratio", H, "success_rate on churn_*"),
    pl("core.read_success_rate", "ratio", H, "success_rate on churn_*"),
    pl("core.write_ack_rate", "ratio", H, "success_rate on churn_*"),
    pl("core.acked_durable_rate", "ratio", H, "success_rate on churn_* (acked writes readable after every peer revived)"),
    pl("core.repair_lag_sim_s", "s", L, "success_rate on churn_*"),
    pl("core.triples_per_s", "1/s", H, "wall_ops_per_s on ingest"),
    pl("core.load_s", "s", L, "setup_s"),
    pl("core.live_point_us", "us", L, "diagnostic only: 8-peer threaded LiveCluster point read, measures the scheduler as much as the code"),
    // workload generators and the harness itself
    pl("workload.gen_s", "s", L, "setup_s"),
    pl("trace.overhead_pct", "%", L, "none: the cost of recording spans, so traced and untraced runs can be compared"),
];

/// How the metrics interact (choosing-metrics §3), recorded before
/// measuring. Printed by `--help` and copied into the README.
pub const INTERACTIONS: &[&str] = &[
    "One query is in flight on the healthy workloads, so a faster layer saves at most its share of the op: a parse gain shows on point_read only, a join gain on join3 only.",
    "On churn_* an op waits for the slowest of several parts and for timers, so sim_p99_ms follows core.attempts_per_op and simnet.dropped_per_op, not CPU.",
    "wall_ops_per_s on churn_* is mostly simnet.events_per_op x simnet.wall_ns_per_event plus the anti-entropy digests, which scale with stored data, not with ops.",
    "On ingest each trial ends with one stats-refresh flush: the origin broadcasts the trial's StatsDelta to every peer, which dominates wire_kib_per_op and about three quarters of the trial's wall time.",
    "setup_s is bulk load + statistics + the centralised oracle; work moved from the measured phase into load or statistics shows there.",
];

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_list(items: &[&str]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| json_str(s)).collect();
    format!("[{}]", quoted.join(", "))
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": {}, \"why\": {}}}", json_str(w.name), json_str(w.why)))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        json_list(COMMAND),
        json_list(PATHS),
        RUN_SECONDS,
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n"),
    )
}

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Frozen sizes of every workload. [`Sizes::FULL`] is what the driver
/// runs; [`Sizes::SMOKE`] is the same code on tiny constants so that
/// `cargo test` exercises all five workloads and the traced run.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Peers of the healthy workloads' P-Grid cluster.
    pub healthy_peers: usize,
    /// Peers of the churn clusters.
    pub churn_peers: usize,
    /// `PubParams::n_authors` / `n_conferences` of the shared world
    /// (`pubs_per_author: 3`, `draft_fraction: 1.0` always).
    pub n_authors: usize,
    pub n_conferences: usize,
    /// Full set-ups per run.
    pub setups: usize,
    /// point_read: distinct queries (half by name, half by oid) whose
    /// oracle answers set-up precomputes, and ops per trial.
    pub point_queries: usize,
    pub point_ops_per_trial: usize,
    /// join3: passes over the 14 age windows per trial.
    pub join_cycles_per_trial: usize,
    /// ingest: insert_batch ops per trial and tuples per batch.
    pub ingest_ops_per_trial: usize,
    pub ingest_batch: usize,
    /// churn_*: distinct read keys, reads and write batches per slice, tuples per write
    /// batch, simulated settle before each burst, simulated heal after
    /// the horizon.
    pub churn_keys: usize,
    pub churn_reads: usize,
    pub churn_writes: usize,
    pub churn_write_batch: usize,
    pub churn_slice_s: u64,
    /// Slices per trial on each backend.
    pub churn_pgrid_slices: usize,
    pub churn_chord_slices: usize,
    pub churn_heal_s: u64,
    /// Lower bound on trials (the `--seconds` formula never goes below).
    pub min_trials: usize,
    /// Trials of the traced run (half recorded, half not).
    pub trace_trials: usize,
    /// Peers of the raw P-Grid / Chord probe clusters and events of the
    /// bare event-loop probe.
    pub probe_peers: usize,
    pub probe_events: u32,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        healthy_peers: 256,
        churn_peers: 128,
        n_authors: 1000,
        n_conferences: 40,
        setups: SETUPS,
        point_queries: 400,
        point_ops_per_trial: 5000,
        join_cycles_per_trial: 2,
        ingest_ops_per_trial: 16,
        ingest_batch: 64,
        churn_keys: 400,
        churn_reads: 40,
        churn_writes: 4,
        churn_write_batch: 8,
        churn_slice_s: 30,
        churn_pgrid_slices: 8,
        churn_chord_slices: 4,
        churn_heal_s: 120,
        min_trials: MIN_TRIALS,
        trace_trials: 8,
        probe_peers: 128,
        probe_events: 1_000_000,
    };

    pub const SMOKE: Sizes = Sizes {
        healthy_peers: 16,
        churn_peers: 16,
        n_authors: 40,
        n_conferences: 8,
        setups: 1,
        point_queries: 16,
        point_ops_per_trial: 40,
        join_cycles_per_trial: 1,
        ingest_ops_per_trial: 8,
        ingest_batch: 4,
        churn_keys: 16,
        churn_reads: 8,
        churn_writes: 1,
        churn_write_batch: 2,
        churn_slice_s: 30,
        churn_pgrid_slices: 1,
        churn_chord_slices: 1,
        churn_heal_s: 60,
        min_trials: 2,
        trace_trials: 2,
        probe_peers: 16,
        probe_events: 20_000,
    };

    /// Trials of an untraced run: fixed by the arguments alone.
    pub fn trials(&self, w: &WorkloadSpec, seconds: u32) -> usize {
        ((seconds as f64 * w.trials_per_second).round() as usize).max(self.min_trials)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn spec_meets_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert!(names.iter().all(|n| name_ok(n)), "a name breaks [A-Za-z0-9][A-Za-z0-9_.-]*");
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "a name is used twice");
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: why too long", w.name);
            assert!(Sizes::FULL.trials(w, RUN_SECONDS) >= MIN_TRIALS);
        }
        for m in END_TO_END {
            assert!(unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|c| c.len() <= 200));
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn committed_benchmark_json_matches_the_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(committed == benchmark_json(), "run `--emit-spec` and commit the result");
    }

    #[test]
    fn json_strings_escape() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
