//! The origin's attempt machine (DESIGN.md § Failure semantics): a
//! query runs as a chain of attempts — the first dispatch, retries and
//! hedges, each a copy of its plan under its own qid. [`Attempts`] owns
//! their state and its own jitter stream and never touches the network;
//! [`UniNode`] carries out what it decides.

use super::*;

/// Cap on attempt aliases (initial dispatches, retries and hedges not
/// yet resolved) outstanding at one origin. At the cap,
/// deadline-driven re-dispatches defer — the timer re-arms, the
/// stranded attempts stay live — and hedges are skipped: the guard that
/// keeps a correlated mass failure from amplifying a whole admission
/// window into a retry storm (DESIGN.md §"Scale and churn"). Twice the
/// default admission window, so ordinary retries and hedges never hit
/// it.
const ATTEMPT_BUDGET: usize = 64;

/// Capacity of the per-node completion-time window behind the adaptive
/// attempt timeout and the hedge delay.
const RTT_WINDOW: usize = 64;

/// Observed completions required before the retry policy trusts the
/// window's quantiles; below this the configured timeout applies, so a
/// cold node behaves exactly like the fixed-timeout policy.
const RTT_MIN_SAMPLES: usize = 8;

/// The percentile of the window (in `[0, 100]`, as
/// [`RttWindow::quantile`] takes it) that the attempt timeout and the
/// hedge delay scale. It is the 0.99th percentile, not the 99th: the
/// nearest rank `round(0.0099 · (n − 1))` is the window's fastest
/// sample below 52 samples and its second-fastest from 52 to 64. The
/// true p99 trades fewer hedges for slower churn medians (DESIGN.md
/// §"Backoff, jitter, hedging").
const RTT_PERCENTILE: f64 = 0.99;

/// The completion time the attempt timeout and the hedge delay are
/// multiples of: the window's [`RTT_PERCENTILE`] sample, once it holds
/// [`RTT_MIN_SAMPLES`].
fn rtt_basis(rtt: &RttWindow) -> Option<f64> {
    rtt.quantile(RTT_PERCENTILE).filter(|_| rtt.len() >= RTT_MIN_SAMPLES)
}

/// Origin-side state of one user-facing query across its attempts.
struct PendingQuery {
    /// The original plan, re-instantiated under a fresh qid per attempt.
    mqp: Mqp,
    /// Hard deadline: admission time + [`Attempts::budget`]. When a
    /// timeout fires past this point the query fails with the best
    /// partial result seen.
    deadline: SimTime,
    /// When the newest attempt was shipped (completion-time samples).
    last_dispatch: SimTime,
    /// The newest attempt's timeout — the "previous sleep" input of the
    /// decorrelated-jitter backoff.
    last_timeout: SimTime,
    /// Best under-floor partial result seen so far, by coverage.
    best: Option<(Relation, u32, Coverage)>,
    /// Whether the current attempt already shipped its hedge.
    hedged: bool,
}

/// A query's timers: its timeout and, unless hedging is off or the
/// window is cold, its newest attempt's hedge.
pub(super) struct Arm {
    pub(super) query: u64,
    pub(super) timeout: SimTime,
    pub(super) hedge: Option<SimTime>,
}

/// What the origin does next for a query. `Suppress`, `Hedge` and
/// `Retry` each count once in the node's counter of that name.
pub(super) enum Act {
    /// Nothing: a stale query or attempt, or a partial kept for later.
    Nothing,
    /// Surface the client's answer.
    Answer(UniEvent),
    /// A dispatch the attempt budget withheld. A deferred retry re-arms
    /// its timeout; the stranded attempts stay live, and the deadline
    /// still fails the query when the budget never clears.
    Suppress(Option<Arm>),
    /// Race this copy of the current attempt; the first completion wins.
    Hedge(Mqp),
    /// Re-dispatch the plan under a fresh attempt qid.
    Retry(Mqp, Arm),
}

/// The attempt policy's delays and the stream that jitters them.
struct Timing {
    backoff: BackoffPolicy,
    query_timeout: SimTime,
    /// Completion times of recent full-coverage attempts.
    rtt: RttWindow,
    /// Private jitter stream (disjoint from the overlay peer's).
    rng: StdRng,
}

impl Timing {
    /// Applies ±25% multiplicative jitter to a timeout. Queries
    /// admitted together must not arm identical deadlines: when a
    /// correlated failure (partition, blackout) strands a whole window
    /// of attempts, synchronized timers would re-dispatch every one of
    /// them at the same instant — a retry storm. The jitter spreads the
    /// first retry wave, and the decorrelated retry sampler keeps later
    /// waves apart.
    fn jittered(&mut self, t: SimTime) -> SimTime {
        let f = self.rng.gen_range(0.75..1.25);
        SimTime::from_micros((t.as_micros() as f64 * f) as u64)
    }

    /// Adaptive per-attempt timeout: a multiple of the observed
    /// completion time ([`rtt_basis`]) once enough samples exist, the
    /// configured timeout until then (a cold node behaves exactly like
    /// the fixed policy).
    fn attempt_timeout(&self) -> SimTime {
        match rtt_basis(&self.rtt) {
            Some(basis) => SimTime::from_micros((basis * self.backoff.rtt_multiplier) as u64)
                .max(self.backoff.min_attempt)
                .min(self.query_timeout),
            None => self.query_timeout,
        }
    }

    /// A re-dispatch's timeout, decorrelated-jittered: uniform over
    /// [0.75 × adaptive base, 3 × previous], capped by the configured
    /// timeout. The lower bound sits below the base so that the cap
    /// cannot collapse the sample back to one synchronized value when
    /// the adaptive base already equals the configured timeout (a cold
    /// node under correlated failure).
    fn retry_timeout(&mut self, last: SimTime) -> SimTime {
        let base = self.attempt_timeout();
        let lo = SimTime::from_micros((base.as_micros() as f64 * 0.75) as u64);
        let hi = SimTime::from_micros(last.as_micros().saturating_mul(3)).max(base);
        SimTime::from_micros(self.rng.gen_range(lo.as_micros()..=hi.as_micros()))
            .min(self.query_timeout)
    }

    /// The hedge delay of a new attempt: once it outlives a multiple of
    /// [`rtt_basis`] it is presumed stuck and a second copy races it.
    /// `None` while the window is cold or hedging is off.
    fn hedge_delay(&mut self) -> Option<SimTime> {
        if !self.backoff.hedging {
            return None;
        }
        let basis = rtt_basis(&self.rtt)?;
        let base = SimTime::from_micros((basis * self.backoff.hedge_multiplier) as u64)
            .max(SimTime::from_micros(1));
        // Hedges are re-dispatches too: a window of queries admitted at
        // the same instant would otherwise fire a synchronized hedge wave.
        Some(self.jittered(base).max(SimTime::from_micros(1)))
    }
}

/// Every query the origin still awaits, and the attempts that may answer.
pub(super) struct Attempts {
    /// User-facing qid → retry/deadline state.
    pending: FxHashMap<u64, PendingQuery>,
    /// Attempt qid → user-facing qid. Each re-dispatch runs under a
    /// fresh qid so execution state of a lost attempt — local or on
    /// remote peers — can never complete the new one; stale attempts
    /// resolve to a purged alias and are dropped.
    attempt_of: FxHashMap<u64, u64>,
    /// Total deadline budget of one query, `query_timeout ×
    /// (query_retries + 1)` — the fixed-retry policy's worst case, so
    /// driver-side waits calibrated against it stay valid.
    budget: SimTime,
    /// Acceptance floor on [`Coverage`] for a completion to be
    /// delivered as `ok` ([`crate::UniConfig::min_coverage`]).
    min_coverage: f64,
    timing: Timing,
}

impl Attempts {
    /// A machine running `cfg`'s policy on the jitter stream `rng`.
    pub(super) fn new<C>(cfg: &UniConfig<C>, rng: StdRng) -> Self {
        let budget = cfg.query_timeout.as_micros().saturating_mul(cfg.query_retries as u64 + 1);
        Attempts {
            pending: FxHashMap::default(),
            attempt_of: FxHashMap::default(),
            budget: SimTime::from_micros(budget),
            min_coverage: cfg.min_coverage,
            timing: Timing {
                backoff: cfg.backoff,
                query_timeout: cfg.query_timeout,
                rtt: RttWindow::new(RTT_WINDOW),
                rng,
            },
        }
    }

    /// Admits a query at `now`; its plan's qid is its first attempt's.
    pub(super) fn admit(&mut self, now: SimTime, mqp: &Mqp) -> Arm {
        let timeout = self.timing.jittered(self.timing.attempt_timeout());
        let pending = PendingQuery {
            mqp: mqp.clone(),
            deadline: now + self.budget,
            last_dispatch: now,
            last_timeout: timeout,
            best: None,
            hedged: false,
        };
        self.pending.insert(mqp.qid, pending);
        self.attempt_of.insert(mqp.qid, mqp.qid);
        Arm { query: mqp.qid, timeout, hedge: self.timing.hedge_delay() }
    }

    /// The timeout of query `user` fired at `now`. A retry retires the
    /// lost attempts, so their late replies can neither complete the
    /// fresh one nor surface a partial answer as the result.
    pub(super) fn on_timeout(
        &mut self,
        now: SimTime,
        user: u64,
        qids: &mut ExecQids,
    ) -> (Vec<u64>, Act) {
        let Some(p) = self.pending.get_mut(&user) else { return (Vec::new(), Act::Nothing) };
        if now >= p.deadline {
            let (relation, hops, coverage) =
                p.best.take().unwrap_or_else(|| (Relation::empty(vec![]), 0, Coverage::failed()));
            self.pending.remove(&user);
            let failed = UniEvent::QueryDone { qid: user, relation, hops, ok: false, coverage };
            return (purge(&mut self.attempt_of, user), Act::Answer(failed));
        }
        let remaining = p.deadline.saturating_sub(now);
        if self.attempt_of.len() >= ATTEMPT_BUDGET {
            let timeout = self.timing.jittered(p.last_timeout).min(remaining);
            return (Vec::new(), Act::Suppress(Some(Arm { query: user, timeout, hedge: None })));
        }
        let retired = purge(&mut self.attempt_of, user);
        let timeout = self.timing.retry_timeout(p.last_timeout);
        p.hedged = false;
        p.last_dispatch = now;
        p.last_timeout = timeout;
        let mut mqp = p.mqp.clone();
        mqp.qid = qids.next();
        self.attempt_of.insert(mqp.qid, user);
        let arm =
            Arm { query: user, timeout: timeout.min(remaining), hedge: self.timing.hedge_delay() };
        (retired, Act::Retry(mqp, arm))
    }

    /// The hedge timer of query `user` fired: at most one hedge per
    /// attempt. The hedged attempt stays live; the loser of the race
    /// resolves to a purged alias and is dropped.
    pub(super) fn on_hedge(&mut self, user: u64, qids: &mut ExecQids) -> (Vec<u64>, Act) {
        let Some(p) = self.pending.get_mut(&user).filter(|p| !p.hedged) else {
            return (Vec::new(), Act::Nothing);
        };
        // A hedge is a deliberate duplicate: at the budget, the first
        // load shed.
        if self.attempt_of.len() >= ATTEMPT_BUDGET {
            return (Vec::new(), Act::Suppress(None));
        }
        p.hedged = true;
        let mut mqp = p.mqp.clone();
        mqp.qid = qids.next();
        self.attempt_of.insert(mqp.qid, user);
        (Vec::new(), Act::Hedge(mqp))
    }

    /// An attempt's answer reached the origin at `now`: the acceptance
    /// gate. Stale attempts (superseded by a retry, already answered,
    /// already failed) resolve to a purged alias and are dropped. A
    /// completion whose coverage clears the floor answers the query and
    /// retires all its attempts; one below the floor retires only its
    /// own — the best partial is kept for the retry chain to improve on
    /// or surface at final failure.
    pub(super) fn complete(
        &mut self,
        now: SimTime,
        attempt: u64,
        relation: Relation,
        hops: u32,
        coverage: Coverage,
    ) -> (Vec<u64>, Act) {
        let Some(&user) = self.attempt_of.get(&attempt) else { return (Vec::new(), Act::Nothing) };
        let Some(p) = self.pending.get_mut(&user) else { return (Vec::new(), Act::Nothing) };
        // Only full-coverage completions feed the RTT estimator. A
        // partial produced by an overlay op timeout measures the
        // timeout, not the network: folding it in would inflate the
        // quantile until attempt budgets collapse to the query deadline and
        // the retry chain stops retrying — exactly when it is needed.
        if coverage.fraction() >= 1.0 {
            self.timing.rtt.observe(now.saturating_sub(p.last_dispatch).as_micros() as f64);
        }
        if coverage.fraction() >= self.min_coverage {
            self.pending.remove(&user);
            let done = UniEvent::QueryDone { qid: user, relation, hops, ok: true, coverage };
            return (purge(&mut self.attempt_of, user), Act::Answer(done));
        }
        if p.best.as_ref().is_none_or(|(_, _, c)| coverage.fraction() > c.fraction()) {
            p.best = Some((relation, hops, coverage));
        }
        self.attempt_of.remove(&attempt);
        (vec![attempt], Act::Nothing)
    }
}

/// Removes every attempt alias of query `user`, returning the attempts.
fn purge(attempt_of: &mut FxHashMap<u64, u64>, user: u64) -> Vec<u64> {
    let stale: Vec<u64> = attempt_of.iter().filter(|&(_, &u)| u == user).map(|(&a, _)| a).collect();
    for a in &stale {
        attempt_of.remove(a);
    }
    stale
}

#[cfg(test)]
mod tests {
    use super::*;
    use unistore_query::MqpNode;

    fn machine(min_coverage: f64) -> (Attempts, ExecQids) {
        let cfg = UniConfig::default().with_min_coverage(min_coverage);
        (Attempts::new(&cfg, derive_rng(1, 0)), ExecQids(EXEC_QID))
    }

    fn plan(qid: u64) -> Mqp {
        Mqp::new(qid, 0, MqpNode::Mat(Relation::empty(vec![])), Vec::new(), None)
    }

    fn covered(ok: u32, total: u32) -> Coverage {
        let mut c = Coverage::full();
        c.record_scan(ok, total);
        c
    }

    const T0: SimTime = SimTime::from_secs(1);

    #[test]
    fn at_the_budget_timeouts_defer_and_hedges_are_shed() {
        let (mut m, mut qids) = machine(0.0);
        for q in 0..ATTEMPT_BUDGET as u64 {
            m.admit(T0, &plan(q));
        }
        let (retired, act) = m.on_timeout(T0, 0, &mut qids);
        let Act::Suppress(Some(rearm)) = act else { panic!("a timeout at the budget defers") };
        assert!(retired.is_empty(), "the stranded attempts stay live");
        assert!(rearm.timeout > SimTime::ZERO && rearm.hedge.is_none(), "it only re-arms");
        assert_eq!(m.attempt_of.len(), ATTEMPT_BUDGET, "and dispatches nothing");
        assert!(matches!(m.on_hedge(0, &mut qids).1, Act::Suppress(None)), "a hedge is shed");
        assert_eq!(m.attempt_of.len(), ATTEMPT_BUDGET);

        // One answer frees a slot: the next timeout re-dispatches.
        let (retired, act) = m.complete(T0, 1, Relation::empty(vec![]), 0, Coverage::full());
        assert_eq!(retired, vec![1]);
        assert!(matches!(act, Act::Answer(UniEvent::QueryDone { qid: 1, ok: true, .. })));
        assert!(matches!(m.on_timeout(T0, 0, &mut qids).1, Act::Retry(..)));
    }

    #[test]
    fn one_hedge_per_attempt_and_a_retry_allows_the_next() {
        let (mut m, mut qids) = machine(0.0);
        m.admit(T0, &plan(7));
        let Act::Hedge(hedge) = m.on_hedge(7, &mut qids).1 else { panic!("the first hedge ships") };
        assert_ne!(hedge.qid, 7, "a hedge runs under a fresh attempt qid");
        assert!(matches!(m.on_hedge(7, &mut qids).1, Act::Nothing), "one hedge per attempt");

        let (mut retired, act) = m.on_timeout(T0, 7, &mut qids);
        retired.sort_unstable();
        assert_eq!(retired, vec![7, hedge.qid], "a retry retires the attempt and its hedge");
        let Act::Retry(retry, _) = act else { panic!("the timeout re-dispatches") };
        let Act::Hedge(next) = m.on_hedge(7, &mut qids).1 else { panic!("the retry may hedge") };
        assert!(next.qid != retry.qid && next.qid != hedge.qid);
        assert!(matches!(m.on_hedge(7, &mut qids).1, Act::Nothing));
    }

    #[test]
    fn the_best_partial_surfaces_at_the_deadline() {
        let (mut m, mut qids) = machine(1.0);
        m.admit(T0, &plan(3));
        let mut attempt = 3;
        // Three partials in turn; `hops` tags which one the client sees.
        for (hops, ok) in [(1, 1), (3, 3), (2, 2)] {
            let (retired, act) =
                m.complete(T0, attempt, Relation::empty(vec![]), hops, covered(ok, 4));
            assert_eq!(retired, vec![attempt], "a partial retires only its own attempt");
            assert!(matches!(act, Act::Nothing), "below the floor nothing reaches the client");
            let Act::Retry(retry, _) = m.on_timeout(T0, 3, &mut qids).1 else {
                panic!("the timeout re-dispatches")
            };
            attempt = retry.qid;
        }
        let (retired, act) = m.on_timeout(T0 + m.budget, 3, &mut qids);
        assert_eq!(retired, vec![attempt]);
        let Act::Answer(UniEvent::QueryDone { qid, ok, hops, coverage, .. }) = act else {
            panic!("the deadline fails the query")
        };
        assert_eq!((qid, ok, hops, coverage), (3, false, 3, covered(3, 4)), "the best partial");
        assert!(matches!(m.on_timeout(T0 + m.budget, 3, &mut qids).1, Act::Nothing));
    }

    #[test]
    fn a_purged_attempt_completes_nothing() {
        let (mut m, mut qids) = machine(0.0);
        m.admit(T0, &plan(5));
        let (retired, act) = m.on_timeout(T0, 5, &mut qids);
        assert_eq!(retired, vec![5]);
        let Act::Retry(retry, _) = act else { panic!("the timeout re-dispatches") };
        let (retired, act) = m.complete(T0, 5, Relation::empty(vec![]), 0, Coverage::full());
        assert!(retired.is_empty(), "the purged first attempt is dropped");
        assert!(matches!(act, Act::Nothing));
        let (retired, act) =
            m.complete(T0, retry.qid, Relation::empty(vec![]), 0, Coverage::full());
        assert_eq!(retired, vec![retry.qid]);
        assert!(matches!(act, Act::Answer(UniEvent::QueryDone { qid: 5, ok: true, .. })));
    }

    /// Pins the sample the attempt timeout and the hedge delay scale:
    /// none while the window is cold, then the fastest, and from 52
    /// samples on the second-fastest — in a full 64-window, too.
    #[test]
    fn timeout_and_hedge_read_the_second_fastest_of_a_full_window() {
        let mut rtt = RttWindow::new(RTT_WINDOW);
        // 64 distinct completion times in a scrambled arrival order
        // (37 is coprime to 64): 1 000 µs, 1 100 µs, …, 7 300 µs.
        let times: Vec<f64> =
            (0..RTT_WINDOW as u64).map(|i| (1_000 + (i * 37) % 64 * 100) as f64).collect();
        for n in 1..=RTT_WINDOW {
            rtt.observe(times[n - 1]);
            let mut seen = times[..n].to_vec();
            seen.sort_by(f64::total_cmp);
            let expected = match n {
                n if n < RTT_MIN_SAMPLES => None,
                n if n < 52 => Some(seen[0]),
                _ => Some(seen[1]),
            };
            assert_eq!(rtt_basis(&rtt), expected, "{n} samples");
        }
        assert_eq!(rtt_basis(&rtt), Some(1_100.0));
    }
}
