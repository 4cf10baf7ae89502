//! Deterministic discrete-event network simulator.
//!
//! UniStore's published evaluation ran on PlanetLab and conference
//! hardware; this reproduction substitutes a seeded discrete-event
//! simulator (DESIGN.md §2). Protocol code is written against the
//! [`NodeBehavior`] trait and is oblivious to whether it runs under the
//! simulator or the live threaded runtime in `unistore::live`.
//!
//! Key properties:
//!
//! * **Determinism** — a single seeded RNG drives latency sampling and
//!   loss; event ties break on sequence numbers; reruns are bit-identical.
//! * **Honest accounting** — every message crossing the network reports
//!   its encoded size via `Wire::wire_size`, so byte counts in experiment
//!   output correspond to real serialized sizes.
//! * **Failure injection** — uniform message loss, fail-stop crashes
//!   (a crash cancels the node's pending timers),
//!   churn schedules ([`churn`]), and composable [`fault`] plans
//!   (partitions, gray-failure delay spikes, duplication, reordering).

pub mod churn;
pub mod effects;
pub mod fault;
pub mod latency;
pub mod metrics;
pub mod net;
pub mod time;

pub use effects::{Effects, Timer};
pub use fault::{FaultPlan, Window};
pub use latency::{ConstantLatency, LanLatency, LatencyModel, PlanetLabLatency, UniformLatency};
pub use metrics::NetMetrics;
pub use net::{NodeBehavior, NodeId, SimNet};
pub use time::SimTime;
