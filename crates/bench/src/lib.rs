//! The experiment harness: the eight deterministic `BENCH_*.json`
//! snapshots CI regenerates and diffs, among them the paper's claims
//! E1–E10 and E12 ([`paper`]), one module each, rendered and
//! floor-checked by [`snapshot`]; and the same-seed [`determinism`]
//! gate, whose digests are the ninth record. Wall-clock measurement is
//! not done here: that is the frozen `benchmark/` package's job.

pub mod alloc;
pub mod allocs;
pub mod backend;
pub mod concurrency;
pub mod determinism;
pub mod faults;
pub mod ingest;
pub mod joins;
pub mod paper;
pub mod scale;
pub mod snapshot;
pub mod stats;

use unistore_query::Relation;
use unistore_util::stats::percentile;

/// Summarizes a latency sample (milliseconds) as p50/p90/p99.
pub fn latency_summary(ms: &[f64]) -> (f64, f64, f64) {
    (percentile(ms, 50.0), percentile(ms, 90.0), percentile(ms, 99.0))
}

/// Formats a float compactly.
pub fn f(x: f64) -> String {
    if x >= 100.0 {
        format!("{x:.0}")
    } else if x >= 1.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.3}")
    }
}

/// A relation's rows in canonical (sorted) order, for comparing answers
/// across backends and against the oracle.
pub fn canon(r: &Relation) -> Vec<String> {
    let mut rows: Vec<String> = r.rows.iter().map(|row| format!("{row:?}")).collect();
    rows.sort();
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_summary_orders() {
        let ms: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let (p50, p90, p99) = latency_summary(&ms);
        assert!(p50 < p90 && p90 < p99);
    }

    #[test]
    fn format_scales() {
        assert_eq!(f(1234.7), "1235");
        assert_eq!(f(12.34), "12.3");
        assert_eq!(f(0.1234), "0.123");
    }
}
