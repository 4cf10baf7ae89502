//! Regenerates the repository's deterministic snapshot records, the
//! paper's quantitative claims among them.
//!
//! ```sh
//! cargo run --release -p unistore-bench --bin experiments -- bench-snapshot
//! ```
//!
//! `bench-snapshot` writes six records: `BENCH_paper.json` (the paper's
//! claims E1–E10 and E12), `BENCH_joins.json` (join strategies on the
//! multi-join workloads), `BENCH_stats.json` (runtime-insert plan quality
//! and the publication drift sweep), `BENCH_ingest.json` (the batched
//! write pipeline), `BENCH_concurrency.json` (the pipelined query driver:
//! throughput and tail latency vs offered load, result cache off vs on)
//! and `BENCH_alloc.json` (allocations per operation on the hot paths;
//! `alloc-snapshot` writes it alone). `fault-snapshot` runs the
//! failure-masking availability matrix and writes `BENCH_faults.json`;
//! `scale-snapshot` runs the scale-and-churn survival campaign at
//! N = 64, 256 and 1024, each cell over 30 churn schedules, and writes
//! `BENCH_scale.json` (the paper's claim C2). Every record holds counts
//! and simulated time only, both backends, floors asserted before the
//! file is written; `determinism-check` is the same-seed double-run gate.

use unistore_bench::{
    allocs, concurrency, determinism, faults, ingest, joins, paper, scale, stats,
};

fn bench_snapshot() {
    paper::snapshot();
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
    let names: Vec<&str> = commands.iter().map(|(name, _)| *name).collect();
    match commands.iter().find(|(name, _)| args.iter().any(|a| a == name)) {
        Some((_, run)) if args.iter().all(|a| names.contains(&a.as_str())) => run(),
        _ => {
            eprintln!("usage: experiments <{}>", names.join("|"));
            std::process::exit(2);
        }
    }
}
