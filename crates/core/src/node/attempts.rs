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
/// attempt timeout and the hedge delay; also the horizon (in resolved
/// attempts) of the loss estimate [`Timing::lost`].
const RTT_WINDOW: usize = 64;

/// Observed completions required before the retry policy trusts the
/// window's quantiles; below this the configured timeout applies, so a
/// cold node behaves exactly like the fixed-timeout policy.
const RTT_MIN_SAMPLES: usize = 8;

/// The completion time the attempt timeout and the hedge delay are
/// multiples of, once the window holds [`RTT_MIN_SAMPLES`]: the delay
/// `d` at which an attempt still silent is as likely lost as slow.
/// With a loss rate `f` and the window's completion-time distribution
/// `F`, a silent attempt is lost with probability
/// `f / (f + (1 − f)(1 − F(d)))`; that is ½ where
/// `F(d) = 1 − f / (1 − f)`. So `lost = 0` reads the window's slowest
/// sample (a healthy origin stops hedging), and `lost ≥ ½` its fastest
/// (DESIGN.md §"Backoff, jitter, hedging").
fn rtt_basis(rtt: &RttWindow, lost: f64) -> Option<f64> {
    let f = lost.min(0.5);
    rtt.quantile(100.0 * (1.0 - f / (1.0 - f))).filter(|_| rtt.len() >= RTT_MIN_SAMPLES)
}

/// Origin-side state of one user-facing query across its attempts.
#[cfg_attr(test, derive(Clone))]
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
    /// The current attempt's hedge, once shipped: its qid and when it
    /// left, so a winning hedge samples its own completion time.
    hedge: Option<(u64, SimTime)>,
    /// The first hop the newest attempt to leave the origin was
    /// forwarded through: the hop the next retry or hedge goes around.
    first_hop: Option<NodeId>,
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
    /// It leaves around the hop, if any, that the newest attempt was
    /// forwarded through.
    Hedge(Mqp, Option<NodeId>),
    /// Re-dispatch the plan under a fresh attempt qid, around the hop,
    /// if any, that the newest attempt was forwarded through.
    Retry(Mqp, Arm, Option<NodeId>),
}

/// The attempt policy's delays and the stream that jitters them.
#[cfg_attr(test, derive(Clone))]
struct Timing {
    backoff: BackoffPolicy,
    query_timeout: SimTime,
    /// Completion times of recent full-coverage attempts.
    rtt: RttWindow,
    /// Share of recently resolved attempts that did not answer: an EWMA
    /// with weight 1/[`RTT_WINDOW`], in `[0, 1]`.
    lost: f64,
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
        match rtt_basis(&self.rtt, self.lost) {
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
        let basis = rtt_basis(&self.rtt, self.lost)?;
        let base = SimTime::from_micros((basis * self.backoff.hedge_multiplier) as u64)
            .max(SimTime::from_micros(1));
        // Hedges are re-dispatches too: a window of queries admitted at
        // the same instant would otherwise fire a synchronized hedge wave.
        Some(self.jittered(base).max(SimTime::from_micros(1)))
    }

    /// Folds resolved attempts into the loss estimate: `unanswered` of
    /// them did not answer (retired by a retry, beaten by another
    /// attempt of their query, below the coverage floor, failed at the
    /// deadline), then, when `answered`, one did.
    fn resolved(&mut self, unanswered: usize, answered: bool) {
        let w = 1.0 / RTT_WINDOW as f64;
        for _ in 0..unanswered {
            self.lost += (1.0 - self.lost) * w;
        }
        if answered {
            self.lost -= self.lost * w;
        }
    }
}

/// Every query the origin still awaits, and the attempts that may answer.
#[cfg_attr(test, derive(Clone))]
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
                lost: 0.0,
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
            hedge: None,
            first_hop: None,
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
            let retired = purge(&mut self.attempt_of, user);
            self.timing.resolved(retired.len(), false);
            return (retired, Act::Answer(failed));
        }
        let remaining = p.deadline.saturating_sub(now);
        if self.attempt_of.len() >= ATTEMPT_BUDGET {
            let timeout = self.timing.jittered(p.last_timeout).min(remaining);
            return (Vec::new(), Act::Suppress(Some(Arm { query: user, timeout, hedge: None })));
        }
        let retired = purge(&mut self.attempt_of, user);
        self.timing.resolved(retired.len(), false);
        let timeout = self.timing.retry_timeout(p.last_timeout);
        p.hedge = None;
        p.last_dispatch = now;
        p.last_timeout = timeout;
        let mut mqp = p.mqp.clone();
        mqp.qid = qids.next();
        self.attempt_of.insert(mqp.qid, user);
        let arm =
            Arm { query: user, timeout: timeout.min(remaining), hedge: self.timing.hedge_delay() };
        (retired, Act::Retry(mqp, arm, p.first_hop))
    }

    /// The hedge timer of query `user` fired at `now`: at most one hedge
    /// per attempt. The hedged attempt stays live; the loser of the race
    /// resolves to a purged alias and is dropped.
    pub(super) fn on_hedge(
        &mut self,
        now: SimTime,
        user: u64,
        qids: &mut ExecQids,
    ) -> (Vec<u64>, Act) {
        let Some(p) = self.pending.get_mut(&user).filter(|p| p.hedge.is_none()) else {
            return (Vec::new(), Act::Nothing);
        };
        // A hedge is a deliberate duplicate: at the budget, the first
        // load shed.
        if self.attempt_of.len() >= ATTEMPT_BUDGET {
            return (Vec::new(), Act::Suppress(None));
        }
        let mut mqp = p.mqp.clone();
        mqp.qid = qids.next();
        p.hedge = Some((mqp.qid, now));
        self.attempt_of.insert(mqp.qid, user);
        (Vec::new(), Act::Hedge(mqp, p.first_hop))
    }

    /// Attempt `attempt` left the origin through `hop`. A retired
    /// attempt records nothing: its query is answered, or a newer
    /// attempt runs.
    pub(super) fn forwarded(&mut self, attempt: u64, hop: NodeId) {
        let user = self.attempt_of.get(&attempt);
        if let Some(p) = user.and_then(|user| self.pending.get_mut(user)) {
            p.first_hop = Some(hop);
        }
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
            let sent = match p.hedge {
                Some((hedge, at)) if hedge == attempt => at,
                _ => p.last_dispatch,
            };
            self.timing.rtt.observe(now.saturating_sub(sent).as_micros() as f64);
        }
        if coverage.fraction() >= self.min_coverage {
            self.pending.remove(&user);
            let done = UniEvent::QueryDone { qid: user, relation, hops, ok: true, coverage };
            let retired = purge(&mut self.attempt_of, user);
            self.timing.resolved(retired.len() - 1, true);
            return (retired, Act::Answer(done));
        }
        if p.best.as_ref().is_none_or(|(_, _, c)| coverage.fraction() > c.fraction()) {
            p.best = Some((relation, hops, coverage));
        }
        self.attempt_of.remove(&attempt);
        self.timing.resolved(1, false);
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
        assert!(matches!(m.on_hedge(T0, 0, &mut qids).1, Act::Suppress(None)), "a hedge is shed");
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
        let Act::Hedge(hedge, _) = m.on_hedge(T0, 7, &mut qids).1 else {
            panic!("the first hedge ships")
        };
        assert_ne!(hedge.qid, 7, "a hedge runs under a fresh attempt qid");
        assert!(matches!(m.on_hedge(T0, 7, &mut qids).1, Act::Nothing), "one hedge per attempt");

        let (mut retired, act) = m.on_timeout(T0, 7, &mut qids);
        retired.sort_unstable();
        assert_eq!(retired, vec![7, hedge.qid], "a retry retires the attempt and its hedge");
        let Act::Retry(retry, ..) = act else { panic!("the timeout re-dispatches") };
        let Act::Hedge(next, _) = m.on_hedge(T0, 7, &mut qids).1 else {
            panic!("the retry may hedge")
        };
        assert!(next.qid != retry.qid && next.qid != hedge.qid);
        assert!(matches!(m.on_hedge(T0, 7, &mut qids).1, Act::Nothing));
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
            let Act::Retry(retry, ..) = m.on_timeout(T0, 3, &mut qids).1 else {
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
        let Act::Retry(retry, ..) = act else { panic!("the timeout re-dispatches") };
        let (retired, act) = m.complete(T0, 5, Relation::empty(vec![]), 0, Coverage::full());
        assert!(retired.is_empty(), "the purged first attempt is dropped");
        assert!(matches!(act, Act::Nothing));
        let (retired, act) =
            m.complete(T0, retry.qid, Relation::empty(vec![]), 0, Coverage::full());
        assert_eq!(retired, vec![retry.qid]);
        assert!(matches!(act, Act::Answer(UniEvent::QueryDone { qid: 5, ok: true, .. })));
    }

    /// 64 distinct completion times in a scrambled arrival order (37 is
    /// coprime to 64): `base`, `base + step`, …, `base + 63 · step` µs.
    fn scrambled(base: u64, step: u64) -> impl Iterator<Item = u64> {
        (0..RTT_WINDOW as u64).map(move |i| base + (i * 37) % 64 * step)
    }

    /// Pins the sample the attempt timeout and the hedge delay scale:
    /// none while the window is cold, then the quantile the loss
    /// estimate picks.
    #[test]
    fn the_basis_follows_the_loss_estimate() {
        let mut rtt = RttWindow::new(RTT_WINDOW);
        for (n, x) in scrambled(1_000, 100).enumerate() {
            rtt.observe(x as f64);
            if n + 1 < RTT_MIN_SAMPLES {
                assert_eq!(rtt_basis(&rtt, 0.0), None, "a cold window, {} samples", n + 1);
            }
        }
        assert_eq!(rtt_basis(&rtt, 0.0), Some(7_300.0), "no loss: the slowest sample");
        assert_eq!(rtt_basis(&rtt, 1.0 / 3.0), Some(4_200.0), "a third lost: the median");
        for lost in [0.5, 0.75, 1.0] {
            assert_eq!(rtt_basis(&rtt, lost), Some(1_000.0), "{lost} lost: the fastest sample");
        }
    }

    #[test]
    fn a_loss_free_origin_stops_hedging() {
        let (mut m, _) = machine(0.0);
        let mut now = T0;
        for (q, rtt) in scrambled(1_000, 5).enumerate() {
            let (q, rtt) = (q as u64, SimTime::from_micros(rtt));
            let arm = m.admit(now, &plan(q));
            assert!(arm.hedge.is_none_or(|h| h > rtt), "query {q} answers before its hedge");
            let (_, act) = m.complete(now + rtt, q, Relation::empty(vec![]), 0, Coverage::full());
            assert!(matches!(act, Act::Answer(UniEvent::QueryDone { ok: true, .. })));
            assert_eq!(m.timing.lost, 0.0, "an answered attempt is not lost");
            now += SimTime::from_millis(10);
        }
        let max = m.timing.rtt.quantile(100.0).expect("a full window");
        let hedge = m.admit(now, &plan(64)).hedge.expect("a warm window arms a hedge");
        assert!(hedge.as_micros() as f64 >= 1.5 * max, "hedge {hedge:?} vs window max {max} µs");
    }

    #[test]
    fn a_winning_hedge_samples_from_its_own_dispatch() {
        let (mut m, mut qids) = machine(0.0);
        m.admit(T0, &plan(9));
        let sent = T0 + SimTime::from_millis(40);
        let Act::Hedge(hedge, _) = m.on_hedge(sent, 9, &mut qids).1 else { panic!("it hedges") };
        let done = sent + SimTime::from_millis(3);
        let (retired, _) =
            m.complete(done, hedge.qid, Relation::empty(vec![]), 0, Coverage::full());
        assert_eq!(retired.len(), 2, "the hedge wins and the first attempt is retired");
        assert_eq!(m.timing.rtt.quantile(100.0), Some(3_000.0), "the hedge's own latency");
        // One lost (the beaten first attempt), then one answered.
        assert_eq!(m.timing.lost, 63.0 / 4096.0, "the beaten attempt counts as lost");
    }

    /// Bounded-exhaustive check of the machine: every sequence of up to
    /// five events, from an origin with a warm window and two aliases
    /// short of [`ATTEMPT_BUDGET`], so a sequence can reach the budget.
    mod sequences {
        use super::*;

        /// A completion's coverage: 0 and ½ are partials under the
        /// machine's floor of 1, 1 answers.
        #[derive(Clone, Copy, Debug)]
        enum Cov {
            Zero,
            Half,
            Full,
        }

        /// Which alias a completion comes from.
        #[derive(Clone, Copy, Debug)]
        enum Src {
            /// The i-th newest alias still live.
            Live(usize),
            /// The newest alias already purged.
            Purged,
        }

        #[derive(Clone, Copy, Debug)]
        enum Ev {
            /// Admits a new query.
            Admit,
            /// The attempt timeout of the j-th query the sequence admitted.
            Timeout(usize),
            /// The hedge timer of the j-th query the sequence admitted.
            Hedge(usize),
            Complete(Cov, Src),
            /// The alias leaves the origin through a hop no alias used
            /// before.
            Forward(Src),
        }

        /// A purged alias's partial at coverage 0 is left out: it could
        /// not raise the best partial even if it were wrongly kept.
        const ALPHABET: [Ev; 15] = {
            use {Cov::*, Ev::*, Src::*};
            [
                Admit,
                Timeout(0),
                Timeout(1),
                Hedge(0),
                Hedge(1),
                Forward(Live(0)),
                Forward(Purged),
                Complete(Zero, Live(0)),
                Complete(Zero, Live(1)),
                Complete(Half, Live(0)),
                Complete(Half, Live(1)),
                Complete(Half, Purged),
                Complete(Full, Live(0)),
                Complete(Full, Live(1)),
                Complete(Full, Purged),
            ]
        };

        /// The clock's advance per event: the fourth event after an
        /// admission is past its query's deadline (3 × 120 s by default).
        const STEP: SimTime = SimTime::from_secs(100);

        /// What the model knows of one query, indexed by its qid.
        #[derive(Clone, Copy, Default)]
        struct Query {
            /// Whether the current attempt (admission or retry) hedged.
            hedged: bool,
            /// The best partial coverage a live alias delivered.
            partial: f64,
            answered: bool,
            /// The hop the newest of its live aliases to leave the
            /// origin went through.
            first_hop: Option<NodeId>,
        }

        #[derive(Clone)]
        struct World {
            m: Attempts,
            qids: u64,
            now: SimTime,
            /// Every alias ever dispatched, oldest first, with its query.
            aliases: Vec<(u64, u64)>,
            queries: Vec<Query>,
            /// The queries the sequence admitted, in order.
            admitted: Vec<u64>,
            /// Hops handed out by `Forward` events so far.
            hops: u32,
        }

        fn world() -> World {
            let (m, qids) = machine(1.0);
            let mut w = World {
                m,
                qids: qids.0,
                now: T0,
                aliases: Vec::new(),
                queries: Vec::new(),
                admitted: Vec::new(),
                hops: 0,
            };
            for q in 0..(RTT_MIN_SAMPLES + ATTEMPT_BUDGET - 2) as u64 {
                w.m.admit(w.now, &plan(q));
                w.aliases.push((q, q));
                w.queries.push(Query::default());
                // The first few answer, warming the window.
                if q < RTT_MIN_SAMPLES as u64 {
                    let done = w.now + SimTime::from_millis(1 + q);
                    w.m.complete(done, q, Relation::empty(vec![]), 0, Coverage::full());
                    w.queries[q as usize].answered = true;
                }
            }
            assert_eq!(w.m.attempt_of.len(), ATTEMPT_BUDGET - 2);
            w
        }

        /// Applies `ev` and checks the invariants: one answer per query,
        /// at most one hedge per attempt, aliases within the budget, the
        /// answer's coverage at least every partial seen, no timer armed
        /// and no alias left after the answer, every retry and hedge
        /// around its own query's newest first hop, and `0 ≤ lost ≤ 1`.
        fn step(w: &mut World, ev: Ev, h: &[Ev]) {
            w.now += STEP;
            let now = w.now;
            let mut qids = ExecQids(w.qids);
            let live = |w: &World, a: u64| w.m.attempt_of.contains_key(&a);
            let alias = |w: &World, src: Src| {
                let mut newest = w.aliases.iter().rev();
                match src {
                    Src::Live(i) => newest.filter(|&&(a, _)| live(w, a)).nth(i),
                    Src::Purged => newest.find(|&&(a, _)| !live(w, a)),
                }
                .copied()
            };
            let (user, (retired, act)) = match ev {
                // The node's admission window, half the budget, keeps
                // admissions below it; the machine itself never gates them.
                Ev::Admit if w.m.attempt_of.len() >= ATTEMPT_BUDGET => return,
                Ev::Admit => {
                    let q = w.queries.len() as u64;
                    let arm = w.m.admit(now, &plan(q));
                    assert_eq!(arm.query, q);
                    w.aliases.push((q, q));
                    w.queries.push(Query::default());
                    w.admitted.push(q);
                    (q, (Vec::new(), Act::Nothing))
                }
                Ev::Timeout(j) | Ev::Hedge(j) => {
                    let Some(&q) = w.admitted.get(j) else { return };
                    let step = match ev {
                        Ev::Timeout(_) => w.m.on_timeout(now, q, &mut qids),
                        _ => w.m.on_hedge(now, q, &mut qids),
                    };
                    (q, step)
                }
                Ev::Forward(src) => {
                    let Some((alias, q)) = alias(w, src) else { return };
                    w.hops += 1;
                    let hop = NodeId(w.hops);
                    w.m.forwarded(alias, hop);
                    if live(w, alias) {
                        w.queries[q as usize].first_hop = Some(hop);
                    }
                    for (&q, p) in &w.m.pending {
                        assert_eq!(p.first_hop, w.queries[q as usize].first_hop, "{h:?}: {q}");
                    }
                    (q, (Vec::new(), Act::Nothing))
                }
                Ev::Complete(cov, src) => {
                    let Some((alias, q)) = alias(w, src) else { return };
                    let coverage = match cov {
                        Cov::Zero => covered(0, 2),
                        Cov::Half => covered(1, 2),
                        Cov::Full => Coverage::full(),
                    };
                    let purged = matches!(src, Src::Purged);
                    let step = w.m.complete(now, alias, Relation::empty(vec![]), 0, coverage);
                    if purged {
                        assert!(step.0.is_empty() && matches!(step.1, Act::Nothing), "{h:?}");
                    } else if coverage.fraction() < 1.0 {
                        let p = &mut w.queries[q as usize].partial;
                        *p = p.max(coverage.fraction());
                    }
                    (q, step)
                }
            };
            w.qids = qids.0;
            for a in &retired {
                assert!(!live(w, *a), "{h:?}: retired alias {a} still live");
            }
            let q = &mut w.queries[user as usize];
            match act {
                Act::Nothing | Act::Suppress(None) => {}
                Act::Answer(UniEvent::QueryDone { qid, ok, coverage, .. }) => {
                    assert_eq!(qid, user, "{h:?}");
                    assert!(!q.answered, "{h:?}: query {qid} answered twice");
                    assert!(coverage.fraction() >= q.partial, "{h:?}: answer below a partial");
                    assert_eq!(ok, coverage.fraction() >= 1.0, "{h:?}");
                    if !ok {
                        assert_eq!(coverage.fraction(), q.partial, "{h:?}: not the best partial");
                    }
                    q.answered = true;
                }
                Act::Answer(other) => panic!("{h:?}: {other:?}"),
                Act::Suppress(Some(arm)) => {
                    assert!(arm.query == user && !q.answered, "{h:?}: an armed timer");
                }
                Act::Hedge(mqp, avoid) => {
                    assert!(!q.answered && !q.hedged, "{h:?}: a second hedge of one attempt");
                    assert_eq!(avoid, q.first_hop, "{h:?}: the hedge's hop to go around");
                    q.hedged = true;
                    w.aliases.push((mqp.qid, user));
                }
                Act::Retry(mqp, arm, avoid) => {
                    assert!(arm.query == user && !q.answered, "{h:?}: an armed timer");
                    assert_eq!(avoid, q.first_hop, "{h:?}: the retry's hop to go around");
                    q.hedged = false;
                    w.aliases.push((mqp.qid, user));
                }
            }
            assert!(w.m.attempt_of.len() <= ATTEMPT_BUDGET, "{h:?}: over the budget");
            for &q in w.m.attempt_of.values() {
                assert!(!w.queries[q as usize].answered, "{h:?}: an alias of answered {q}");
            }
            assert!((0.0..=1.0).contains(&w.m.timing.lost), "{h:?}: lost {}", w.m.timing.lost);
        }

        /// Depth-first over every continuation of `h` up to `left` more
        /// events; returns the sequences walked.
        fn walk(w: &World, h: &mut Vec<Ev>, left: usize) -> u64 {
            if left == 0 {
                return 1;
            }
            let mut walked = 1;
            for ev in ALPHABET {
                h.push(ev);
                let mut w = w.clone();
                step(&mut w, ev, h);
                walked += walk(&w, h, left - 1);
                h.pop();
            }
            walked
        }

        #[test]
        fn every_sequence_of_five_events_keeps_the_invariants() {
            let walked = walk(&world(), &mut Vec::new(), 5);
            // Sequences of length 0..=5 over 15 events.
            assert_eq!(walked, (15u64.pow(6) - 1) / 14);
        }
    }
}
