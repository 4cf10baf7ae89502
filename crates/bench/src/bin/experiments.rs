//! Regenerates every quantitative claim of the UniStore paper, and the
//! repository's deterministic snapshot records.
//!
//! ```sh
//! cargo run --release -p unistore-bench --bin experiments          # E1–E10, E12
//! cargo run --release -p unistore-bench --bin experiments -- e1 e6 # some
//! cargo run --release -p unistore-bench --bin experiments -- bench-snapshot
//! ```
//!
//! `bench-snapshot` writes five records: `BENCH_joins.json` (E6 join
//! strategies), `BENCH_stats.json` (runtime-insert plan quality),
//! `BENCH_ingest.json` (the batched write pipeline), `BENCH_concurrency.json`
//! (the pipelined query driver: throughput and tail latency vs offered
//! load, result cache off vs on) and `BENCH_alloc.json` (allocations per
//! operation on the hot paths; `alloc-snapshot` writes it alone).
//! `fault-snapshot` runs the failure-masking availability matrix and
//! writes `BENCH_faults.json`; `scale-snapshot` runs the scale-and-churn
//! survival campaign at N = 64, 256 and 1024, each cell over 30 churn
//! schedules, and writes `BENCH_scale.json` (the paper's claim C2).
//! Every record holds counts and simulated time only, both backends,
//! floors asserted before the file is written; `determinism-check` is
//! the same-seed double-run gate.

use unistore_bench::{
    allocs, concurrency, determinism, faults, ingest, joins, paper, scale, stats,
};

fn bench_snapshot() {
    joins::snapshot();
    stats::snapshot();
    ingest::snapshot();
    concurrency::snapshot();
    allocs::snapshot();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    let commands: [(&str, fn()); 5] = [
        ("bench-snapshot", bench_snapshot),
        ("alloc-snapshot", allocs::snapshot),
        ("fault-snapshot", faults::snapshot),
        ("scale-snapshot", scale::snapshot),
        ("determinism-check", determinism::determinism_check),
    ];
    let names: Vec<&str> = commands
        .iter()
        .map(|(name, _)| *name)
        .chain(paper::EXPERIMENTS.iter().map(|(id, _)| *id))
        .collect();
    if let Some(unknown) = args.iter().find(|a| !names.contains(&a.as_str())) {
        eprintln!("unknown sub-command {unknown:?}; valid: {}", names.join(", "));
        std::process::exit(2);
    }
    if let Some((_, run)) = commands.iter().find(|(name, _)| args.iter().any(|a| a == name)) {
        return run();
    }
    for (id, run) in paper::EXPERIMENTS {
        if args.is_empty() || args.iter().any(|a| a == id) {
            run();
        }
    }
}
