//! Node and cluster configuration.

use unistore_pgrid::PGridConfig;
use unistore_query::JoinStrategy;
use unistore_simnet::SimTime;

/// Forced preferences for physical-operator selection — how experiment
/// E3 ("identical queries … while influencing the integrated optimizer")
/// turns the optimizer off.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScanPref {
    /// Prefer parallel (shower) range scans.
    ParallelRange,
    /// Prefer sequential (leaf walk) range scans.
    SequentialRange,
    /// Prefer the q-gram index for similarity predicates.
    QGram,
    /// Prefer naive evaluation (full attribute sweep) for similarity.
    NaiveSimilarity,
}

/// Planner behaviour of a node.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlanMode {
    /// Forced scan preference (None = cost-based).
    pub scan_pref: Option<ScanPref>,
    /// Forced join strategy (None = cost-based). Forcing
    /// [`JoinStrategy::SemiJoin`] turns the Bloom-filter pushdown on
    /// wherever a join site admits it; [`JoinStrategy::Collect`] turns
    /// it off.
    pub join_pref: Option<JoinStrategy>,
    /// Whether plans may travel to the data (mutant forwarding). When
    /// `false` every step executes from the current peer.
    pub no_forward: bool,
}

/// Retry and hedging policy for origin-side query re-dispatch
/// (DESIGN.md §"Failure semantics").
///
/// The fixed-timeout/fixed-count retry loop of earlier revisions is
/// generalized into a *deadline budget*: the origin owns a total budget
/// of `query_timeout × (query_retries + 1)` and spends it on attempts
/// whose individual timeouts adapt to observed completion times.
///
/// Both multipliers scale the same basis: the percentile of the origin's
/// last 64 full-coverage completion times at which a still-silent
/// attempt is as likely lost as slow, given the share of its recent
/// attempts that went unanswered. A loss-free origin reads its slowest
/// sample and so stops hedging; from half its attempts lost on, it
/// reads its fastest (DESIGN.md §"Backoff, jitter, hedging").
#[derive(Clone, Copy, Debug)]
pub struct BackoffPolicy {
    /// Per-attempt timeout = `rtt_multiplier × basis` once enough
    /// samples exist (falls back to the configured `query_timeout` until
    /// then).
    pub rtt_multiplier: f64,
    /// Floor for the adaptive per-attempt timeout, so a burst of fast
    /// completions cannot drive the timeout below sanity.
    pub min_attempt: SimTime,
    /// Enables hedged dispatch: when an attempt outlives
    /// `hedge_multiplier × basis`, a second copy of the plan is shipped
    /// and the first completion wins.
    pub hedging: bool,
    /// Delay factor (on the basis) before the hedge fires.
    pub hedge_multiplier: f64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            rtt_multiplier: 4.0,
            min_attempt: SimTime::from_millis(500),
            hedging: true,
            hedge_multiplier: 2.0,
        }
    }
}

/// Cluster-level configuration, generic over the storage backend's own
/// configuration (`PGridConfig` by default; `ChordConfig` for the ring
/// backend — see [`crate::backends`]).
#[derive(Clone, Debug)]
pub struct UniConfig<C = PGridConfig> {
    /// The storage-layer overlay configuration.
    pub overlay: C,
    /// Maintain the q-gram index on insert (paper ref \[6\]).
    pub with_qgrams: bool,
    /// Build the topology adapted to the data sample where the backend
    /// supports it (P-Grid's balanced converged state); `false` builds
    /// the uniform strawman. Backends with order-destroying hashing
    /// ignore this.
    pub balanced: bool,
    /// Time the origin waits for a query result.
    pub query_timeout: SimTime,
    /// How many times the origin re-dispatches a query whose deadline
    /// expired before reporting failure. A forwarded mutant plan that
    /// lands on a crashed peer is lost wholesale; re-dispatching routes
    /// through a different reference and usually survives.
    pub query_retries: u32,
    /// Default planner behaviour for all nodes.
    pub plan_mode: PlanMode,
    /// Statistics-dissemination cadence: every node flushes the stat
    /// deltas it buffered to its peers on this maintenance tick, so
    /// long-running nodes converge to fresh statistics without restart.
    /// The staleness a remote plan can observe is bounded by one and a
    /// half ticks (the flush waits up to half a tick for its OID acks)
    /// plus the broadcast tree's hops (DESIGN.md §"Statistics
    /// distribution").
    pub stats_refresh: SimTime,
    /// Bound on queries admitted into the network at once by the
    /// pipelined drivers; submissions beyond the window queue at the
    /// driver until a completion frees a slot (DESIGN.md §"Concurrent
    /// query pipeline").
    pub max_in_flight: usize,
    /// Capacity (in distinct (attr, value) keys) of each node's local
    /// result cache for exact-match lookups. `0` — the default —
    /// disables the cache; benches and read-heavy deployments opt in.
    /// Entries are invalidated by the epoch-stamped statistics stream
    /// (a write's delta at its origin, the flush's notice everywhere
    /// else), so a cached row is stale for at most as long as the
    /// statistics are.
    pub result_cache: usize,
    /// Minimum acceptable coverage fraction for a query completion to
    /// count as `ok`. `0.0` — the default — is best-effort: whatever
    /// the plan reached is delivered, with the shortfall reported in
    /// [`unistore_query::Coverage`]. `1.0` is fail-fast: any shortfall
    /// triggers a retry, and the final result is only `ok` when every
    /// responsible leaf answered.
    pub min_coverage: f64,
    /// Origin-side retry / hedging policy (DESIGN.md §"Failure
    /// semantics").
    pub backoff: BackoffPolicy,
}

impl Default for UniConfig<PGridConfig> {
    fn default() -> Self {
        UniConfig::for_overlay(PGridConfig {
            // Periodic traffic off by default so experiment cost
            // attribution is exact; churn experiments re-enable it.
            maintenance_interval: SimTime::from_secs(1_000_000_000),
            ..PGridConfig::default()
        })
    }
}

impl<C> UniConfig<C> {
    /// Wraps a backend configuration with the shared cluster-level
    /// defaults — the single source of truth for every backend, so
    /// cross-backend comparisons run under identical query-layer
    /// settings.
    pub fn for_overlay(overlay: C) -> Self {
        UniConfig {
            overlay,
            with_qgrams: true,
            balanced: true,
            query_timeout: SimTime::from_secs(120),
            query_retries: 2,
            plan_mode: PlanMode::default(),
            stats_refresh: SimTime::from_secs(10),
            max_in_flight: 32,
            result_cache: 0,
            min_coverage: 0.0,
            backoff: BackoffPolicy::default(),
        }
    }

    /// Sets the minimum acceptable coverage fraction (0.0 = best-effort,
    /// 1.0 = fail-fast; see [`UniConfig::min_coverage`]).
    ///
    /// # Panics
    /// Panics unless `0.0 <= f <= 1.0`.
    pub fn with_min_coverage(mut self, f: f64) -> Self {
        assert!((0.0..=1.0).contains(&f), "coverage fraction must lie in [0, 1]");
        self.min_coverage = f;
        self
    }

    /// Replaces the origin-side retry / hedging policy wholesale.
    pub fn with_backoff(mut self, policy: BackoffPolicy) -> Self {
        self.backoff = policy;
        self
    }

    /// Sets the pipelined drivers' admission window (how many queries
    /// may be in flight in the network at once before submissions
    /// queue at the driver).
    ///
    /// # Panics
    /// Panics if `n == 0` — a zero-width window would never admit.
    pub fn with_max_in_flight(mut self, n: usize) -> Self {
        assert!(n > 0, "admission window must admit at least one query");
        self.max_in_flight = n;
        self
    }

    /// Sets the capacity of the per-node (attr, value) result cache
    /// (`0` disables it — the default).
    pub fn with_result_cache(mut self, capacity: usize) -> Self {
        self.result_cache = capacity;
        self
    }

    /// Sets the number of origin-side query re-dispatches.
    pub fn with_query_retries(mut self, retries: u32) -> Self {
        self.query_retries = retries;
        self
    }

    /// Sets the statistics-dissemination cadence (the staleness bound
    /// remote peers can observe). Use a very large interval to
    /// effectively disable in-band dissemination for experiments that
    /// need exact per-operation cost attribution.
    pub fn with_stats_refresh(mut self, interval: SimTime) -> Self {
        self.stats_refresh = interval;
        self
    }
}

impl UniConfig<PGridConfig> {
    /// Enables periodic maintenance and anti-entropy (churn/update
    /// experiments). P-Grid does both in one round, every
    /// `min(maintenance, anti_entropy)`: at least as often as asked.
    pub fn with_maintenance(mut self, maintenance: SimTime, anti_entropy: SimTime) -> Self {
        self.overlay.maintenance_interval = maintenance.min(anti_entropy);
        self
    }

    /// Sets the replication factor.
    pub fn with_replication(mut self, r: usize) -> Self {
        self.overlay = self.overlay.with_replication(r);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_quiet_and_balanced() {
        let c = UniConfig::default();
        assert!(c.balanced);
        assert!(c.with_qgrams);
        assert_eq!(c.query_retries, 2);
        assert!(c.overlay.maintenance_interval > SimTime::from_secs(1_000_000));
    }

    #[test]
    fn builders_compose() {
        let c = UniConfig::default()
            .with_replication(3)
            .with_maintenance(SimTime::from_secs(30), SimTime::from_secs(60))
            .with_query_retries(5);
        assert_eq!(c.overlay.replication, 3);
        assert_eq!(c.overlay.maintenance_interval, SimTime::from_secs(30));
        let c = c.with_maintenance(SimTime::from_secs(1_000_000_000), SimTime::from_secs(15));
        assert_eq!(c.overlay.maintenance_interval, SimTime::from_secs(15), "the shorter period");
        assert_eq!(c.query_retries, 5);
    }

    #[test]
    fn stats_refresh_knob() {
        let c = UniConfig::default();
        assert_eq!(c.stats_refresh, SimTime::from_secs(10), "dissemination on by default");
        let c = c.with_stats_refresh(SimTime::from_millis(50));
        assert_eq!(c.stats_refresh, SimTime::from_millis(50));
    }

    #[test]
    fn pipeline_knobs() {
        let c = UniConfig::default();
        assert_eq!(c.max_in_flight, 32, "admission window defaults to 32");
        assert_eq!(c.result_cache, 0, "result cache off by default");
        let c = c.with_max_in_flight(8).with_result_cache(64);
        assert_eq!(c.max_in_flight, 8);
        assert_eq!(c.result_cache, 64);
    }

    #[test]
    #[should_panic(expected = "admission window")]
    fn zero_admission_window_rejected() {
        let _ = UniConfig::default().with_max_in_flight(0);
    }

    #[test]
    fn failure_masking_knobs() {
        let c = UniConfig::default();
        assert_eq!(c.min_coverage, 0.0, "best-effort by default");
        assert!(c.backoff.hedging, "hedging on by default");
        let c = c.with_min_coverage(0.9);
        assert_eq!(c.min_coverage, 0.9);
    }

    #[test]
    #[should_panic(expected = "coverage fraction")]
    fn out_of_range_coverage_rejected() {
        let _ = UniConfig::default().with_min_coverage(1.5);
    }
}
