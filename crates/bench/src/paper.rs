//! The paper's quantitative claims, E1–E10 and E12. Each experiment
//! prints the claim, the measured table, and the verdict the table
//! supports. Claim C2, robustness at 1000+ peers under churn, is gated
//! by `scale-snapshot` over 30 churn schedules per cell
//! (`BENCH_scale.json`), so it has no experiment here.

mod e1_e6;
mod e7_e12;

use unistore_pgrid::PGridConfig;
use unistore_simnet::SimTime;

/// Every paper experiment by its command-line name, in paper order.
pub const EXPERIMENTS: [(&str, fn()); 11] = [
    ("e1", e1_e6::e1_scalability),
    ("e2", e1_e6::e2_planetlab),
    ("e3", e1_e6::e3_adaptivity),
    ("e4", e1_e6::e4_fig2),
    ("e5", e1_e6::e5_balance),
    ("e6", e1_e6::e6_chord),
    ("e7", e7_e12::e7_qgram),
    ("e8", e7_e12::e8_costmodel),
    ("e9", e7_e12::e9_skyline),
    ("e10", e7_e12::e10_updates),
    ("e12", e7_e12::e12_bootstrap),
];

fn quiet_pgrid() -> PGridConfig {
    PGridConfig {
        maintenance_interval: SimTime::from_secs(1_000_000_000),
        ..PGridConfig::default()
    }
}

fn spread_keys(n: u64) -> Vec<u64> {
    (0..n).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect()
}
