//! The UniStore node: overlay peer + triple layer + query executor.
//!
//! Paper Fig. 1: the storage service and the query processor share one
//! process. Here [`UniNode`] embeds an [`Overlay`] peer (the storage
//! layer — P-Grid natively, or Chord with its auxiliary bucket index)
//! and an executor for mutant query plans. When the executor needs the
//! network (a scan, a fetch join), it issues *locally originated*
//! overlay operations through the embedded peer and suspends the plan
//! until the completions surface; when a plan's next leaf is anchored at
//! a remote key, the plan itself is forwarded toward the responsible
//! peer (mutant behaviour), which re-optimizes before continuing.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::Rng;

use unistore_overlay::{Overlay, OverlayDone, RangeMode};
use unistore_query::local::dedup_rows;
use unistore_query::mqp::bind_triples;
use unistore_query::relation::value_hash;
use unistore_query::strategy::scan_candidates;
use unistore_query::{CostModel, Coverage, JoinStrategy, Mqp, RangeAlgo, Relation, ScanStrategy};
use unistore_simnet::{Effects, NodeBehavior, NodeId, SimTime, Timer};
use unistore_store::index as idx;
use unistore_store::mapping::MappingSet;
use unistore_store::qgram;
use unistore_store::triple::field;
use unistore_store::{Oid, Triple, Value};
use unistore_util::rng::{derive_rng, stream};
use unistore_util::stats::RttWindow;
use unistore_util::wire::{Shared, Wire};
use unistore_util::{BloomFilter, FxHashMap, FxHashSet, ItemFilter, Key};
use unistore_vql::{Term, TriplePattern};

use unistore_query::cost::StatsDelta;

use crate::config::{BackoffPolicy, PlanMode, ScanPref, UniConfig};
use crate::msg::{QueryMsg, UniEvent, UniMsg};

/// Effects buffer of the UniStore node, parameterized by the storage
/// backend's message type.
pub type UniFx<M> = Effects<UniMsg<M>, UniEvent>;

/// Timer kind for the origin-side query deadline (storage-layer timers
/// use kinds below 100 — see the [`Overlay`] contract).
const RESULT_TIMEOUT: u32 = 100;

/// Timer kind for the periodic statistics-dissemination tick: buffered
/// [`StatsDelta`]s are flushed down a binomial broadcast tree spanning
/// every peer, bounding the staleness a remote plan can observe by one
/// tick plus O(log n) hops.
const STATS_TICK: u32 = 101;

/// Timer kind for hedged dispatch: when the current attempt outlives a
/// delay derived from the completion-time window, a second copy of the
/// plan is shipped and the first completion wins (DESIGN.md §"Failure
/// semantics").
const HEDGE_TIMER: u32 = 102;

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

/// Mutant plans above this encoded size stop travelling and pull data
/// instead (shipping megabytes of partial results is worse than a few
/// extra lookups).
const FORWARD_BYTE_CAP: usize = 64 * 1024;

/// Executor namespace bit of a qid: the executor's own overlay ops and
/// retry attempts, disjoint from driver-assigned qids.
const EXEC_QID: u64 = 1 << 62;

/// Fetch joins cap their lookup fan-out; beyond this the executor falls
/// back to collecting (or Bloom-filtering) the right side.
const FETCH_CAP: usize = 512;

/// Target false-positive rate of semi-join Bloom filters: ~9.6 bits per
/// distinct left join key, with the hash join pruning the stragglers.
const SEMI_JOIN_FPR: f64 = 0.01;

/// One optimizer decision, recorded for experiment output.
#[derive(Clone, Debug)]
pub struct Decision {
    /// Query id.
    pub qid: u64,
    /// The pattern being resolved.
    pub pattern: String,
    /// Chosen physical operator.
    pub choice: String,
}

/// Bounded FIFO cache of exact-match lookup results, keyed by the
/// (attr, value) index key. Every received [`StatsDelta`] drops the
/// entries its writes name — regardless of epoch — so a cached row
/// outlives the write that changed it by at most one stats tick plus
/// one dissemination hop (DESIGN.md §"Concurrent query pipeline").
struct ResultCache {
    cap: usize,
    map: FxHashMap<Key, Vec<Triple>>,
    order: std::collections::VecDeque<Key>,
}

impl ResultCache {
    fn new(cap: usize) -> Self {
        ResultCache { cap, map: FxHashMap::default(), order: std::collections::VecDeque::new() }
    }

    fn get(&self, key: Key) -> Option<&Vec<Triple>> {
        self.map.get(&key)
    }

    fn put(&mut self, key: Key, rows: Vec<Triple>) {
        if self.cap == 0 || self.map.contains_key(&key) {
            return;
        }
        if self.map.len() >= self.cap {
            if let Some(old) = self.order.pop_front() {
                self.map.remove(&old);
            }
        }
        self.order.push_back(key);
        self.map.insert(key, rows);
    }

    fn invalidate(&mut self, key: Key) {
        if self.map.remove(&key).is_some() {
            self.order.retain(|k| *k != key);
        }
    }

    fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }
}

/// The storage ops a suspended plan waits for: a scan, or a fetch
/// join — a scan with no q-gram filter and no cache key.
struct Wait {
    pattern: TriplePattern,
    outstanding: usize,
    triples: Vec<Triple>,
    /// Count-filter parameters when the scan used the q-gram index.
    qgram: Option<(String, usize)>,
    max_hops: u32,
    /// Key to cache the collected rows under when the scan was a
    /// single remote exact-match lookup. Cleared if any completion
    /// fails or an invalidation for the key races the scan.
    cache_key: Option<Key>,
    /// Storage ops this wait issued over the network (coverage
    /// denominator; cache-resolved lookups never leave the node and
    /// are vacuously complete).
    issued: u32,
    /// Ops that came back failed or partial (`!done.ok()`) — the
    /// coverage shortfall of this scan.
    failed: u32,
}

struct Active {
    mqp: Mqp,
    wait: Option<Wait>,
}

/// Origin-side state of one user-facing query across its attempts
/// (initial dispatch, deadline-driven retries, hedges).
struct PendingQuery {
    /// The original plan, re-instantiated under a fresh qid per attempt.
    mqp: Mqp,
    /// Re-dispatches so far (observability; the budget is time-based).
    attempts: u32,
    /// Hard deadline: admission time + `query_timeout × (retries + 1)`.
    /// When a timeout fires past this point the query fails with the
    /// best partial result seen.
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

/// A full UniStore node, generic over its storage substrate.
pub struct UniNode<O: Overlay<Item = Triple>> {
    /// The embedded storage-layer peer.
    pub overlay: O,
    /// Statistics snapshot (the paper's gossiped statistics; see
    /// DESIGN.md § Statistics distribution): exactly what the deltas this
    /// node folded make of the load-time snapshot, so peers that folded
    /// the same deltas in the same order can share one.
    stats: Option<Arc<CostModel>>,
    /// A write origin's planning view between two stats ticks: `stats`
    /// plus the origin's own unflushed writes. Kept only while `stats`
    /// is shared; an unshared snapshot takes the writes in place.
    view: Option<Arc<CostModel>>,
    /// Known schema mappings.
    pub mappings: MappingSet,
    /// Planner behaviour.
    pub plan_mode: PlanMode,
    /// Optimizer decisions taken at this node.
    pub trace: Vec<Decision>,
    query_timeout: SimTime,
    /// How many times the origin re-dispatches a timed-out query
    /// ([`crate::UniConfig::query_retries`]).
    query_retries: u32,
    /// Deployment size: the fan-out of the stats-dissemination flush
    /// (the same system-wide parameter the cost model already assumes
    /// every peer knows).
    n_peers: usize,
    /// Statistics-dissemination cadence
    /// ([`crate::UniConfig::stats_refresh`]).
    stats_refresh: SimTime,
    /// Stat deltas learned from write origins, buffered until the next
    /// dissemination tick.
    stats_outbox: StatsDelta,
    /// Snapshot generation of `cost`. Deltas from another epoch are
    /// stale (a full rebuild already contains their writes) and dropped.
    stats_epoch: u64,
    active: FxHashMap<u64, Active>,
    /// storage-layer qid → query qid.
    waiting: FxHashMap<u64, u64>,
    /// Local (attr, value) result cache for remote exact-match lookups
    /// ([`crate::UniConfig::result_cache`]; capacity 0 disables it).
    cache: ResultCache,
    /// Lookups answered from the local result cache (observability for
    /// tests and the concurrency bench).
    pub cache_hits: u64,
    /// Queries this node originated and still awaits results for:
    /// user-facing qid → retry/deadline state.
    pending_results: FxHashMap<u64, PendingQuery>,
    /// Time of the event being handled, captured at handler entry so
    /// the retry policy can reason about deadlines without threading
    /// `now` through every call.
    clock: SimTime,
    /// Private jitter stream for backoff randomization (disjoint from
    /// the embedded overlay peer's stream).
    rng: StdRng,
    /// Completion times of recent origin-side attempts — the basis of
    /// the adaptive per-attempt timeout and the hedge delay.
    rtt: RttWindow,
    /// Acceptance floor on [`Coverage`] for a completion to be
    /// delivered as `ok` ([`crate::UniConfig::min_coverage`]).
    min_coverage: f64,
    /// Origin-side retry / hedging policy.
    backoff: BackoffPolicy,
    /// Hedged dispatches shipped (observability for tests and benches).
    pub hedges: u64,
    /// Deadline-driven re-dispatches actually shipped (observability:
    /// the scale campaign's attempt-amplification accounting).
    pub retries: u64,
    /// Re-dispatches and hedges withheld by the attempt budget
    /// (observability for the retry-storm guard).
    pub suppressed: u64,
    /// Cap on attempt aliases outstanding at this origin before
    /// re-dispatches defer and hedges are skipped
    /// ([`crate::UniConfig::attempt_budget`]).
    attempt_budget: usize,
    /// Attempt qid → user-facing qid. Each re-dispatch runs under a
    /// fresh qid so execution state of a lost attempt — local or on
    /// remote peers — can never complete the new one; stale attempts
    /// resolve to a purged alias and are dropped.
    attempt_of: FxHashMap<u64, u64>,
    exec_counter: u64,
    /// The storage layer's effects buffer, reused by every
    /// [`UniNode::with_overlay`] call (empty between calls).
    ofx: Effects<O::Msg, OverlayDone<Triple>>,
}

impl<O: Overlay<Item = Triple>> UniNode<O> {
    /// Wraps a wired overlay peer (built by the cluster driver through
    /// [`Overlay::spawn`]) into a full UniStore node of an
    /// `n_peers`-wide deployment. `seed` (the cluster seed) feeds the
    /// node's private jitter stream.
    pub fn new(overlay: O, n_peers: usize, cfg: &UniConfig<O::Config>, seed: u64) -> Self {
        let id = overlay.id().0 as u64;
        UniNode {
            overlay,
            stats: None,
            view: None,
            mappings: MappingSet::new(),
            plan_mode: cfg.plan_mode,
            trace: Vec::new(),
            query_timeout: cfg.query_timeout,
            query_retries: cfg.query_retries,
            n_peers,
            stats_refresh: cfg.stats_refresh,
            stats_outbox: StatsDelta::new(),
            stats_epoch: 0,
            cache: ResultCache::new(cfg.result_cache),
            cache_hits: 0,
            active: FxHashMap::default(),
            waiting: FxHashMap::default(),
            pending_results: FxHashMap::default(),
            clock: SimTime::ZERO,
            rng: derive_rng(seed, stream::QUERY_NODE_BASE + id),
            rtt: RttWindow::new(RTT_WINDOW),
            min_coverage: cfg.min_coverage,
            backoff: cfg.backoff,
            hedges: 0,
            retries: 0,
            suppressed: 0,
            attempt_budget: cfg.attempt_budget,
            attempt_of: FxHashMap::default(),
            exec_counter: 0,
            ofx: Effects::new(),
        }
    }

    /// The planning view: the statistics snapshot plus, at a write
    /// origin between two stats ticks, its own unflushed writes. `None`
    /// before the first load.
    pub fn cost_model(&self) -> Option<&Arc<CostModel>> {
        self.view.as_ref().or(self.stats.as_ref())
    }

    /// Folds a disseminated statistics delta into this node's snapshot
    /// (and planning view) — O(delta), and no copy at all when a peer
    /// holding the same snapshot folded the same delta object first. A
    /// node that has no model yet (pre-load) skips the fold: it will
    /// receive a full snapshot at load time.
    pub(crate) fn apply_stats_delta(&mut self, delta: &StatsDelta) {
        for model in [&mut self.stats, &mut self.view].into_iter().flatten() {
            CostModel::apply_shared(model, delta);
        }
    }

    /// Folds a write this node originated into its planning view only:
    /// the snapshot takes it with the tick's flush, as every receiver
    /// does. An unshared snapshot is its own view and folds it now.
    fn apply_own_write(&mut self, delta: &StatsDelta) {
        let Some(stats) = self.stats.as_mut() else { return };
        if self.view.is_none() && Arc::strong_count(stats) > 1 {
            self.view = Some(stats.clone());
        }
        CostModel::apply_shared(self.view.as_mut().unwrap_or(stats), delta);
    }

    /// Installs a freshly rebuilt snapshot: adopts its epoch and
    /// discards buffered deltas (the rebuild already counted their
    /// writes). Deltas from earlier epochs still in flight are dropped
    /// on receipt by the epoch gate.
    pub(crate) fn reset_stats(&mut self, model: Arc<CostModel>, epoch: u64) {
        self.stats = Some(model);
        self.view = None;
        self.stats_epoch = epoch;
        self.stats_outbox = StatsDelta::new();
        // A full rebuild may have replaced any row wholesale.
        self.cache.clear();
    }

    /// Drops cached rows for every (attr, value) pair a write delta
    /// names, and un-pins in-flight scans about to cache such a pair
    /// (their reply may predate the write). Runs on *every* delta
    /// receipt, before the epoch gate — an invalidation is correct in
    /// any epoch.
    fn invalidate_cached(&mut self, delta: &StatsDelta) {
        if self.cache.cap == 0 {
            return;
        }
        for (attr, value) in delta.pairs() {
            let keys: Vec<Key> =
                self.mappings.expand(attr).iter().map(|a| idx::attr_value_key(a, value)).collect();
            for &key in &keys {
                self.cache.invalidate(key);
            }
            for wait in self.active.values_mut().filter_map(|active| active.wait.as_mut()) {
                if wait.cache_key.is_some_and(|key| keys.contains(&key)) {
                    wait.cache_key = None;
                }
            }
        }
    }

    /// Flushes the buffered stat deltas through the binomial broadcast
    /// tree (DESIGN.md §"Scale and churn"). The origin covers the whole
    /// ring (`span = n_peers`), so the flush costs O(log n) sends here
    /// and O(log n) per relay instead of the old n − 1 direct sends; the
    /// payload is encoded once into a [`Shared`] buffer and every send
    /// along the tree clones the bytes, not the encoding work. Matched
    /// insert/delete pairs accumulated within the tick cancel before
    /// encoding.
    ///
    /// An origin that planned on a private view drops it and folds the
    /// flushed delta into its snapshot *before* the fan-out, so it ends
    /// the tick holding what its receivers will, and memoizes the fold
    /// on the one delta object they all receive.
    fn flush_stats_outbox(&mut self, fx: &mut UniFx<O::Msg>) {
        let planned_on_view = self.view.take().is_some();
        let mut delta = std::mem::take(&mut self.stats_outbox);
        delta.compact();
        if delta.is_empty() {
            return;
        }
        let delta = Shared::new(delta);
        if planned_on_view {
            self.apply_stats_delta(delta.get());
        }
        let span = self.n_peers as u32;
        self.fanout_stats_delta(self.stats_epoch, span, &delta, fx);
    }

    /// Sends the broadcast-tree children of a node covering `span`
    /// consecutive peers (itself plus the `span − 1` following it,
    /// ring-ordered by node id): one message per power-of-two offset
    /// `2^i < span`, each child covering the half-open id interval up to
    /// the next offset. Every peer in the span receives the delta
    /// exactly once on a loss-free network, after at most ⌈log₂ span⌉
    /// hops.
    fn fanout_stats_delta(
        &self,
        epoch: u64,
        span: u32,
        delta: &Shared<StatsDelta>,
        fx: &mut UniFx<O::Msg>,
    ) {
        let n = self.n_peers as u64;
        let me = self.id().0 as u64;
        let mut off = 1u64;
        while off < span as u64 {
            let child_span = (span as u64).min(off << 1) - off;
            let to = NodeId(((me + off) % n) as u32);
            fx.send(
                to,
                UniMsg::Query(QueryMsg::StatsDelta {
                    epoch,
                    span: child_span as u32,
                    delta: delta.clone(),
                }),
            );
            off <<= 1;
        }
    }

    /// Node id.
    pub fn id(&self) -> NodeId {
        self.overlay.id()
    }

    fn fresh_exec_qid(&mut self) -> u64 {
        self.exec_counter += 1;
        EXEC_QID | ((self.id().0 as u64) << 32) | self.exec_counter
    }

    /// Runs a storage-layer action, wrapping its effects into the node's
    /// envelope; emitted storage events are routed to waiting plans.
    ///
    /// The buffer goes back into `self.ofx` before the completions are
    /// handled: a completion may start another storage op, which then
    /// reuses it.
    fn with_overlay(
        &mut self,
        fx: &mut UniFx<O::Msg>,
        f: impl FnOnce(&mut O, &mut Effects<O::Msg, OverlayDone<Triple>>),
    ) {
        let mut ofx = std::mem::take(&mut self.ofx);
        f(&mut self.overlay, &mut ofx);
        let (sends, timers, emits) = ofx.drain();
        for (to, m) in sends {
            fx.send(to, UniMsg::Overlay(m));
        }
        for (d, t) in timers {
            fx.set_timer(d, t);
        }
        let done: Vec<OverlayDone<Triple>> = emits.collect();
        self.ofx = ofx;
        for done in done {
            self.on_overlay_event(done, fx);
        }
    }

    fn on_overlay_event(&mut self, done: OverlayDone<Triple>, fx: &mut UniFx<O::Msg>) {
        let qid = done.qid();
        let Some(query_qid) = self.waiting.remove(&qid) else {
            // Driver-issued raw storage op: surface it. An executor op
            // nobody waits for belonged to a purged attempt, and its
            // late completion has no reader anywhere.
            if qid & EXEC_QID == 0 {
                fx.emit(UniEvent::Storage(done));
            }
            return;
        };
        let Some(wait) = self.active.get_mut(&query_qid).and_then(|a| a.wait.as_mut()) else {
            return;
        };
        if let Some(items) = done.items() {
            wait.triples.extend(items.iter().cloned());
        }
        if !done.ok() {
            // A failed or partial completion must not be cached as the
            // key's full row set — and it is a coverage shortfall the
            // origin must hear about.
            wait.cache_key = None;
            wait.failed += 1;
        }
        wait.max_hops = wait.max_hops.max(done.hops());
        wait.outstanding -= 1;
        if wait.outstanding == 0 {
            self.finish_wait(query_qid, fx);
        }
    }

    fn finish_wait(&mut self, qid: u64, fx: &mut UniFx<O::Msg>) {
        let Some(mut active) = self.active.remove(&qid) else { return };
        // Every caller installs wait state before finishing it; if the
        // invariant ever breaks, drop the attempt — the origin's retry
        // timer picks it up — rather than panic mid-dispatch.
        let Some(Wait { pattern, mut triples, qgram, max_hops, cache_key, issued, failed, .. }) =
            active.wait.take()
        else {
            return;
        };
        // Dedup triples that arrived through several index entries or
        // replicas.
        let mut seen: FxHashSet<(u64, u64)> = FxHashSet::default();
        triples.retain(|t| seen.insert((unistore_util::item::Item::ident(t), t.value.key_bits())));
        // A single remote exact-match lookup that completed cleanly
        // primes the local result cache for subsequent point queries.
        if let Some(key) = cache_key {
            self.cache.put(key, triples.clone());
        }
        // q-gram count filter: drop candidates that cannot be within
        // distance k (never drops true matches — tested property).
        if let Some((target, k)) = &qgram {
            triples.retain(|t| {
                t.value.as_str().is_none_or(|s| qgram::passes_count_filter(s, target, *k))
            });
        }
        let rel = bind_triples(&pattern, &triples, &self.mappings);
        active.mqp.root.resolve_first_scan(rel);
        active.mqp.hops += max_hops;
        // Fold this scan's per-op acks into the plan's completeness
        // accounting (a shortfall marks the result as partial).
        active.mqp.coverage.record_scan(issued.saturating_sub(failed), issued);
        self.continue_plan(active.mqp, fx);
    }

    /// Runs the next step of a plan at this node: reduce, finish, fetch
    /// join, forward, or scan.
    fn continue_plan(&mut self, mut mqp: Mqp, fx: &mut UniFx<O::Msg>) {
        mqp.root.reduce();
        let qid = mqp.qid;
        if mqp.root.scans_remaining() == 0 {
            let mut rel = mqp.root.result().cloned().unwrap_or_else(|| Relation::empty(vec![]));
            dedup_rows(&mut rel);
            let origin = NodeId(mqp.origin);
            if origin == self.id() {
                self.deliver_result(qid, rel, mqp.hops, mqp.coverage, fx);
            } else {
                fx.send(
                    origin,
                    UniMsg::Query(QueryMsg::Result {
                        qid,
                        relation: rel,
                        hops: mqp.hops,
                        coverage: mqp.coverage,
                    }),
                );
            }
            return;
        }

        // Join strategy arbitration: fetch join, Bloom-filtered
        // semi-join pushdown, or plain collect.
        let semi_filter = match self.plan_join(&mqp) {
            Some(JoinDecision::Fetch(fetch)) => {
                self.execute_fetch(mqp, fetch, fx);
                return;
            }
            Some(JoinDecision::Semi(filter)) => Some(filter),
            None => None,
        };

        // `scans_remaining() > 0` was checked above, so a scan exists;
        // dropping the attempt (retry timer recovers) beats panicking.
        let Some(pattern) = mqp.root.first_scan().cloned() else { return };

        // Mutant forwarding: ship the plan to the peer owning the next
        // scan's anchor key, unless disabled, too large, or already
        // home. A chosen semi-join executes from here instead — its
        // pricing already assumed so. With the result cache on,
        // exact-match point scans also stay here: the overlay lookup
        // pulls the rows to this node, priming its cache, instead of
        // shipping the plan to the data.
        if semi_filter.is_none() && !self.plan_mode.no_forward && !self.cache_pins_scan(&pattern) {
            if let Some(key) = anchor_key(&pattern) {
                if !self.overlay.responsible(key) && mqp.wire_size() < FORWARD_BYTE_CAP {
                    if let Some(next) = self.overlay.next_hop(key) {
                        mqp.hops += 1;
                        fx.send(next, UniMsg::Query(QueryMsg::Route { key, mqp }));
                        return;
                    }
                }
            }
        }

        // Scan from here, shipping the semi-join filter when one was
        // chosen. (The limit hint is not passed: the storage layer's
        // sequential range has no early termination, so pricing it in
        // would bias the choice toward an optimization the protocol
        // does not perform.)
        let cands = scan_candidates(&pattern, &mqp.filters);
        let chosen = self.pick_scan(&cands, None);
        self.trace.push(Decision {
            qid,
            pattern: pattern.to_string(),
            choice: match &semi_filter {
                Some(_) => format!("semi-join+{}", chosen.name()),
                None => chosen.name().to_string(),
            },
        });
        self.execute_scan(mqp, pattern, chosen, semi_filter, fx);
    }

    /// Whether the result cache keeps a point scan at the current node
    /// (pull rows here and cache them) instead of mutant-forwarding the
    /// plan to the data.
    fn cache_pins_scan(&self, pattern: &TriplePattern) -> bool {
        self.cache.cap > 0
            && matches!(&pattern.subject, Term::Var(_))
            && matches!((&pattern.attr, &pattern.value), (Term::Lit(Value::Str(_)), Term::Lit(_)))
    }

    /// Applies forced preferences, falling back to the cost model, then
    /// to the first candidate.
    fn pick_scan(&self, cands: &[ScanStrategy], limit_hint: Option<usize>) -> ScanStrategy {
        if let Some(pref) = self.plan_mode.scan_pref {
            let found = cands.iter().find(|s| match (pref, s) {
                (ScanPref::ParallelRange, ScanStrategy::AttrRange { algo, .. }) => {
                    *algo == RangeAlgo::Parallel
                }
                (ScanPref::SequentialRange, ScanStrategy::AttrRange { algo, .. }) => {
                    *algo == RangeAlgo::Sequential
                }
                (ScanPref::QGram, ScanStrategy::QGram { .. }) => true,
                (ScanPref::NaiveSimilarity, ScanStrategy::AttrRange { lo: None, hi: None, .. }) => {
                    true
                }
                _ => false,
            });
            if let Some(s) = found {
                return s.clone();
            }
        }
        match self.cost_model() {
            Some(model) => {
                let (i, _) = model.choose_scan(cands, limit_hint);
                cands[i].clone()
            }
            None => cands[0].clone(),
        }
    }

    /// Arbitrates the physical join strategy when the next step is a
    /// join whose left side is materialized: per-binding fetch join,
    /// Bloom-filtered semi-join pushdown, or `None` — collect the right
    /// side with a plain scan and hash-join at the plan holder.
    fn plan_join(&self, mqp: &Mqp) -> Option<JoinDecision> {
        let (left, pattern) = mqp.root.fetch_join_site()?;
        // Both strategies start from the distinct join keys of a left
        // column — usually the same one, hashed once for the two.
        let mut keys = None;
        let fetch = fetch_plan(left, pattern, &self.mappings, &mut keys);
        let semi_site = semi_join_site(left, pattern);
        // Forced preference (experiments) wins outright — but a forced
        // strategy the site cannot support still degrades to collect.
        if let Some(pref) = self.plan_mode.join_pref {
            return match pref {
                JoinStrategy::Fetch => fetch.map(JoinDecision::Fetch),
                JoinStrategy::SemiJoin => semi_site.map(|(col, fld)| {
                    JoinDecision::Semi(build_semi_filter(column_keys(&mut keys, left, col), fld).0)
                }),
                JoinStrategy::Collect => None,
            };
        }
        let model = self.cost_model()?;
        let cands = scan_candidates(&pattern.clone(), &mqp.filters);
        let (_, right_best) = model.choose_scan(&cands, None);
        let mut best_score = right_best.cost.score(); // collect baseline
        let mut decision = None;
        if let Some(plan) = fetch {
            let (strategy, cost) = model.join(plan.keys().len() as f64, &right_best, true);
            if strategy == JoinStrategy::Fetch && cost.score() < best_score {
                best_score = cost.score();
                decision = Some(JoinDecision::Fetch(plan));
            }
        }
        if let Some((col, fld)) = semi_site {
            let (filter, left_distinct) = build_semi_filter(column_keys(&mut keys, left, col), fld);
            let right_distinct = right_distinct_estimate(model, pattern, fld);
            let cost = model.semi_join(
                left_distinct as f64,
                right_distinct,
                &right_best,
                filter.wire_size() as f64,
                SEMI_JOIN_FPR,
            );
            if cost.score() < best_score {
                decision = Some(JoinDecision::Semi(filter));
            }
        }
        decision
    }

    fn execute_fetch(&mut self, mut mqp: Mqp, plan: FetchPlan, fx: &mut UniFx<O::Msg>) {
        let qid = mqp.qid;
        self.trace.push(Decision {
            qid,
            pattern: plan.pattern().to_string(),
            choice: "fetch-join".to_string(),
        });
        let keys: Vec<Key> = plan.keys().to_vec();
        let pattern = plan.pattern().clone();
        let qids: Vec<u64> = keys.iter().map(|_| self.fresh_exec_qid()).collect();
        for q in &qids {
            self.waiting.insert(*q, qid);
        }
        mqp.hops += 1;
        self.active.insert(
            qid,
            Active {
                mqp,
                wait: Some(Wait {
                    pattern,
                    outstanding: qids.len(),
                    triples: Vec::new(),
                    qgram: None,
                    max_hops: 0,
                    cache_key: None,
                    issued: qids.len() as u32,
                    failed: 0,
                }),
            },
        );
        for (q, key) in qids.into_iter().zip(keys) {
            self.with_overlay(fx, |p, ofx| p.local_lookup(q, key, None, ofx));
        }
    }

    fn execute_scan(
        &mut self,
        mqp: Mqp,
        pattern: TriplePattern,
        s: ScanStrategy,
        filter: Option<ItemFilter>,
        fx: &mut UniFx<O::Msg>,
    ) {
        let qid = mqp.qid;
        // Build the list of storage ops first, register the wait state,
        // then issue — locally resolving ops may complete synchronously.
        enum Op {
            Lookup(Key),
            Range(Key, Key, RangeMode),
        }
        let mut ops: Vec<Op> = Vec::new();
        let mut qgram_filter = None;
        match &s {
            ScanStrategy::OidLookup { oid } => ops.push(Op::Lookup(idx::oid_key(&Oid::new(oid)))),
            ScanStrategy::AttrValueLookup { attr, value } => {
                for a in self.mappings.expand(attr) {
                    ops.push(Op::Lookup(idx::attr_value_key(&a, value)));
                }
            }
            ScanStrategy::AttrRange { attr, lo, hi, algo } => {
                let mode = match algo {
                    RangeAlgo::Parallel => RangeMode::Parallel,
                    RangeAlgo::Sequential => RangeMode::Sequential,
                };
                for a in self.mappings.expand(attr) {
                    let (klo, khi) = idx::attr_value_range(&a, lo.as_ref(), hi.as_ref());
                    ops.push(Op::Range(klo, khi, mode));
                }
            }
            ScanStrategy::AttrPrefix { attr, prefix, .. } => {
                for a in self.mappings.expand(attr) {
                    let (klo, khi) = idx::attr_prefix_range(&a, prefix);
                    ops.push(Op::Range(klo, khi, RangeMode::Parallel));
                }
            }
            ScanStrategy::QGram { attr, target, k } => {
                let mut keys: Vec<Key> = Vec::new();
                for a in self.mappings.expand(attr) {
                    keys.extend(qgram::qgrams(target).into_iter().map(|g| idx::qgram_key(&a, g)));
                }
                keys.sort_unstable();
                keys.dedup();
                ops.extend(keys.into_iter().map(Op::Lookup));
                qgram_filter = Some((target.clone(), *k));
            }
            ScanStrategy::ValueLookup { value } => ops.push(Op::Lookup(idx::value_key(value))),
            ScanStrategy::FullScan { .. } => {
                // The whole A#v index region.
                let lo = 1u64 << 62;
                let hi = lo | ((1u64 << 62) - 1);
                ops.push(Op::Range(lo, hi, RangeMode::Parallel));
            }
        }
        // Result cache: unfiltered exact-match lookups resolve from the
        // local cache when possible; a single remote miss is marked for
        // population once its rows arrive. Filtered scans skip the
        // cache entirely — their row sets are query-specific subsets.
        let mut cached: Vec<Triple> = Vec::new();
        let mut cache_key: Option<Key> = None;
        if self.cache.cap > 0
            && filter.is_none()
            && matches!(&s, ScanStrategy::AttrValueLookup { .. })
        {
            let cache = &self.cache;
            let mut hits = 0u64;
            ops.retain(|op| {
                let Op::Lookup(key) = op else { return true };
                match cache.get(*key) {
                    Some(rows) => {
                        cached.extend(rows.iter().cloned());
                        hits += 1;
                        false
                    }
                    None => true,
                }
            });
            self.cache_hits += hits;
            if cached.is_empty() {
                if let [Op::Lookup(key)] = ops[..] {
                    if !self.overlay.responsible(key) {
                        cache_key = Some(key);
                    }
                }
            }
        }
        let qids: Vec<u64> = ops.iter().map(|_| self.fresh_exec_qid()).collect();
        for q in &qids {
            self.waiting.insert(*q, qid);
        }
        self.active.insert(
            qid,
            Active {
                mqp,
                wait: Some(Wait {
                    pattern,
                    outstanding: qids.len(),
                    triples: cached,
                    qgram: qgram_filter,
                    max_hops: 0,
                    cache_key,
                    issued: qids.len() as u32,
                    failed: 0,
                }),
            },
        );
        if qids.is_empty() {
            // Every lookup was served from the cache: the scan resolves
            // without touching the network.
            self.finish_wait(qid, fx);
            return;
        }
        for (q, op) in qids.into_iter().zip(ops) {
            let f = filter.clone();
            match op {
                Op::Lookup(key) => self.with_overlay(fx, |p, ofx| p.local_lookup(q, key, f, ofx)),
                Op::Range(lo, hi, mode) => {
                    self.with_overlay(fx, |p, ofx| p.local_range(q, lo, hi, mode, f, ofx))
                }
            }
        }
    }

    fn handle_query_msg(&mut self, from: NodeId, msg: QueryMsg, fx: &mut UniFx<O::Msg>) {
        match msg {
            QueryMsg::Execute { mqp } => {
                if from == NodeId::EXTERNAL && NodeId(mqp.origin) == self.id() {
                    let timeout = self.jittered(self.attempt_timeout());
                    self.pending_results.insert(
                        mqp.qid,
                        PendingQuery {
                            mqp: mqp.clone(),
                            attempts: 0,
                            deadline: self.clock + self.query_deadline_budget(),
                            last_dispatch: self.clock,
                            last_timeout: timeout,
                            best: None,
                            hedged: false,
                        },
                    );
                    self.attempt_of.insert(mqp.qid, mqp.qid);
                    fx.set_timer(timeout, Timer::new(RESULT_TIMEOUT, mqp.qid));
                    self.arm_hedge(mqp.qid, fx);
                }
                self.continue_plan(mqp, fx);
            }
            QueryMsg::Route { key, mqp } => {
                if self.overlay.responsible(key) {
                    self.continue_plan(mqp, fx);
                } else {
                    match self.overlay.next_hop(key) {
                        Some(next) => {
                            let mut mqp = mqp;
                            mqp.hops += 1;
                            fx.send(next, UniMsg::Query(QueryMsg::Route { key, mqp }));
                        }
                        // Routing hole: execute from here as fallback,
                        // annotating the subtree the plan could not
                        // reach so the origin sees the degradation.
                        None => {
                            let mut mqp = mqp;
                            mqp.coverage.record_skip();
                            self.continue_plan(mqp, fx);
                        }
                    }
                }
            }
            QueryMsg::Result { qid, relation, hops, coverage } => {
                self.deliver_result(qid, relation, hops, coverage, fx);
            }
            QueryMsg::StatsDelta { epoch, span, delta } => {
                // Cache invalidation runs before the epoch gate: a
                // write notice names (attr, value) pairs whose cached
                // rows may be stale in any epoch.
                self.invalidate_cached(delta.get());
                // Relay duty comes before the epoch gate too: the tree
                // forwards the *message's* epoch regardless of this
                // node's own, so a node mid-rebuild still carries its
                // subtree (the leaves gate for themselves).
                if from != NodeId::EXTERNAL && span > 1 {
                    self.fanout_stats_delta(epoch, span, &delta, fx);
                }
                // Stale generation: a full rebuild already folded these
                // writes into the snapshot this node received.
                if epoch != self.stats_epoch {
                    return;
                }
                // Write origins hand the driver's delta to one node
                // (span 0); that node plans on it at once and
                // disseminates it to the rest on its next stats tick.
                // Tree deltas stop at their span.
                if from == NodeId::EXTERNAL {
                    self.apply_own_write(delta.get());
                    self.stats_outbox.merge(delta.get().clone());
                } else {
                    self.apply_stats_delta(delta.get());
                }
            }
            QueryMsg::StatsProbe { qid } => {
                let (total, attrs) = match self.cost_model() {
                    Some(model) => {
                        let mut attrs: Vec<_> =
                            model.stats.attrs.iter().map(|(k, a)| (k.clone(), a.count)).collect();
                        // Hash-map iteration order must not reach an
                        // emitted event: sort by attribute name so the
                        // probe output is identical across runs.
                        attrs.sort_by(|a, b| a.0.cmp(&b.0));
                        (model.stats.total, attrs)
                    }
                    None => (0.0, Vec::new()),
                };
                fx.emit(UniEvent::Stats { qid, total, attrs });
            }
        }
    }

    /// Total origin-side deadline budget for one query — identical to
    /// the fixed-retry policy's worst case, so driver-side waits
    /// calibrated against it stay valid.
    fn query_deadline_budget(&self) -> SimTime {
        let budget = self.query_timeout.as_micros().saturating_mul(self.query_retries as u64 + 1);
        SimTime::from_micros(budget)
    }

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

    /// Arms the hedge timer for the newest attempt of `user`: once the
    /// attempt outlives a multiple of [`rtt_basis`] it is presumed stuck
    /// and a second copy races it. No-op while the window is cold or
    /// hedging is disabled.
    fn arm_hedge(&mut self, user: u64, fx: &mut UniFx<O::Msg>) {
        if !self.backoff.hedging {
            return;
        }
        let Some(basis) = rtt_basis(&self.rtt) else { return };
        let base = SimTime::from_micros((basis * self.backoff.hedge_multiplier) as u64)
            .max(SimTime::from_micros(1));
        // Hedges are re-dispatches too: a window of queries admitted at
        // the same instant would otherwise fire a synchronized hedge wave.
        let delay = self.jittered(base).max(SimTime::from_micros(1));
        fx.set_timer(delay, Timer::new(HEDGE_TIMER, user));
    }

    /// Routes a completed attempt's answer through the origin-side
    /// acceptance gate. Stale attempts (superseded by a retry, already
    /// answered, already failed) resolve to a purged alias and are
    /// dropped. A completion whose coverage clears the configured floor
    /// answers the query; one below the floor retires only this attempt
    /// — the best partial is kept for the deadline-driven retry chain
    /// to improve on or surface at final failure.
    fn deliver_result(
        &mut self,
        attempt_qid: u64,
        relation: Relation,
        hops: u32,
        coverage: Coverage,
        fx: &mut UniFx<O::Msg>,
    ) {
        let Some(&user) = self.attempt_of.get(&attempt_qid) else { return };
        // Only full-coverage completions feed the RTT estimator. A
        // partial produced by an overlay op timeout measures the
        // timeout, not the network: folding it in would inflate the
        // quantile until attempt budgets collapse to the query deadline and
        // the retry chain stops retrying — exactly when it is needed.
        if coverage.fraction() >= 1.0 {
            if let Some(p) = self.pending_results.get(&user) {
                let sample = self.clock.saturating_sub(p.last_dispatch);
                self.rtt.observe(sample.as_micros() as f64);
            }
        }
        if coverage.fraction() >= self.min_coverage {
            self.purge_attempts(user);
            if self.pending_results.remove(&user).is_some() {
                fx.emit(UniEvent::QueryDone { qid: user, relation, hops, ok: true, coverage });
            }
            return;
        }
        if let Some(p) = self.pending_results.get_mut(&user) {
            if p.best.as_ref().is_none_or(|(_, _, c)| coverage.fraction() > c.fraction()) {
                p.best = Some((relation, hops, coverage));
            }
        }
        self.attempt_of.remove(&attempt_qid);
        self.active.remove(&attempt_qid);
        self.waiting.retain(|_, v| *v != attempt_qid);
    }

    /// Retires every in-flight attempt of a query: aliases, suspended
    /// plans and storage-op links. After this, late storage replies or
    /// results from those attempts are dropped instead of reviving a
    /// plan whose query was already answered, retried or failed.
    fn purge_attempts(&mut self, user_qid: u64) {
        let stale: Vec<u64> =
            self.attempt_of.iter().filter(|&(_, &u)| u == user_qid).map(|(&a, _)| a).collect();
        for a in &stale {
            self.attempt_of.remove(a);
            self.active.remove(a);
        }
        self.waiting.retain(|_, v| !stale.contains(v));
    }
}

/// Anchor key of a pattern for mutant forwarding: point-addressable
/// scans only.
fn anchor_key(pattern: &TriplePattern) -> Option<Key> {
    if let Some(Value::Str(oid)) = pattern.subject.as_lit() {
        return Some(idx::oid_key(&Oid::new(oid)));
    }
    match (&pattern.attr, &pattern.value) {
        (Term::Lit(Value::Str(attr)), Term::Lit(v)) => Some(idx::attr_value_key(attr, v)),
        (Term::Var(_), Term::Lit(v)) => Some(idx::value_key(v)),
        _ => None,
    }
}

/// The distinct join keys of one column of a plan's materialized left
/// side: their hashes (what a semi-join filter is built from) and the
/// row each first occurs in (what a fetch join derives its keys from).
/// Values are distinct when their [`value_hash`]es are.
struct ColumnKeys {
    col: usize,
    hashes: FxHashSet<u64>,
    first_rows: Vec<usize>,
}

impl ColumnKeys {
    fn of(rel: &Relation, col: usize) -> ColumnKeys {
        let mut hashes = FxHashSet::default();
        let mut first_rows = Vec::new();
        for (i, row) in rel.rows.iter().enumerate() {
            if hashes.insert(value_hash(&row[col])) {
                first_rows.push(i);
            }
        }
        ColumnKeys { col, hashes, first_rows }
    }
}

/// The keys of `col`, from `memo` when it holds that column.
fn column_keys<'a>(memo: &'a mut Option<ColumnKeys>, rel: &Relation, col: usize) -> &'a ColumnKeys {
    let held = memo.take().filter(|keys| keys.col == col);
    memo.insert(held.unwrap_or_else(|| ColumnKeys::of(rel, col)))
}

/// Passes a fetch plan's derived key through. Tests count the calls, to
/// pin that a left side over [`FETCH_CAP`] is turned down before any.
fn derived(key: Key) -> Key {
    #[cfg(test)]
    tests::KEYS_DERIVED.with(|n| n.set(n.get() + 1));
    key
}

/// Builds the per-binding fetch plan for a join site, if the right
/// pattern is point-addressable from the left relation's bindings and
/// the fan-out stays under [`FETCH_CAP`] — counted on the distinct
/// bindings, before any key is derived: a left side too large to fetch
/// from is the common case on a wide join.
fn fetch_plan(
    left: &Relation,
    pattern: &TriplePattern,
    mappings: &MappingSet,
    memo: &mut Option<ColumnKeys>,
) -> Option<FetchPlan> {
    // Value-position fetch: attribute literal, value var bound left.
    let value_col = match (&pattern.attr, &pattern.value) {
        (Term::Lit(Value::Str(attr)), Term::Var(v)) => left.col(v).map(|col| (attr, col)),
        _ => None,
    };
    if let Some((attr, col)) = value_col {
        let bound = &column_keys(memo, left, col).first_rows;
        let attrs = mappings.expand(attr);
        if !(1..=FETCH_CAP).contains(&(bound.len() * attrs.len())) {
            return None;
        }
        let keys = bound
            .iter()
            .flat_map(|&r| attrs.iter().map(move |a| (a, &left.rows[r][col])))
            .map(|(a, val)| derived(idx::attr_value_key(a, val)))
            .collect();
        return Some(FetchPlan::ByValue { keys, pattern: pattern.clone() });
    }
    // Subject-position fetch: subject var bound left → OID lookups.
    let Term::Var(subject) = &pattern.subject else { return None };
    let col = left.col(subject)?;
    let bound = &column_keys(memo, left, col).first_rows;
    let oids = || bound.iter().filter_map(|&r| left.rows[r][col].as_str());
    if !(1..=FETCH_CAP).contains(&oids().count()) {
        return None;
    }
    let keys = oids().map(|s| derived(idx::oid_key(&Oid::new(s)))).collect();
    Some(FetchPlan::ByOid { keys, pattern: pattern.clone() })
}

/// Locates the semi-join site of a join: the first pattern position
/// whose variable is bound by the left relation, as `(left column,
/// triple field)`. Any such shared position admits the pushdown — the
/// hash join re-checks everything else.
fn semi_join_site(left: &Relation, pattern: &TriplePattern) -> Option<(usize, u8)> {
    [
        (field::SUBJECT, &pattern.subject),
        (field::ATTR, &pattern.attr),
        (field::VALUE, &pattern.value),
    ]
    .into_iter()
    .find_map(|(fld, term)| match term {
        Term::Var(v) => left.col(v).map(|col| (col, fld)),
        Term::Lit(_) => None,
    })
}

/// Builds the Bloom filter over the left column's distinct join-key
/// hashes (the same hashes [`Triple::field_hash`] yields at the leaves,
/// so no true match is ever dropped). Returns the filter and the
/// distinct-key count that sized it.
fn build_semi_filter(keys: &ColumnKeys, fld: u8) -> (ItemFilter, usize) {
    let bloom = BloomFilter::from_hashes(keys.hashes.iter().copied(), SEMI_JOIN_FPR);
    (ItemFilter { field: fld, bloom }, keys.hashes.len())
}

/// Distinct join keys expected in the scanned region — the denominator
/// of the semi-join selectivity estimate.
fn right_distinct_estimate(model: &CostModel, pattern: &TriplePattern, fld: u8) -> f64 {
    let st = &model.stats;
    match fld {
        field::SUBJECT => st.oid_distinct,
        field::ATTR => st.attrs.len() as f64,
        _ => match &pattern.attr {
            Term::Lit(Value::Str(a)) => {
                st.attrs.get(a.as_ref()).map_or(st.value_distinct, |s| s.join_distinct)
            }
            _ => st.value_distinct,
        },
    }
}

/// The arbitrated physical join strategy for a join site.
enum JoinDecision {
    /// Per-binding index nested loops over the DHT.
    Fetch(FetchPlan),
    /// Collect the right side through a Bloom-filtered scan.
    Semi(ItemFilter),
}

enum FetchPlan {
    ByValue { keys: Vec<Key>, pattern: TriplePattern },
    ByOid { keys: Vec<Key>, pattern: TriplePattern },
}

impl FetchPlan {
    fn keys(&self) -> &[Key] {
        match self {
            FetchPlan::ByValue { keys, .. } | FetchPlan::ByOid { keys, .. } => keys,
        }
    }

    fn pattern(&self) -> &TriplePattern {
        match self {
            FetchPlan::ByValue { pattern, .. } | FetchPlan::ByOid { pattern, .. } => pattern,
        }
    }
}

impl<O: Overlay<Item = Triple>> NodeBehavior for UniNode<O> {
    type Msg = UniMsg<O::Msg>;
    type Out = UniEvent;

    fn on_start(&mut self, now: SimTime, fx: &mut UniFx<O::Msg>) {
        self.clock = now;
        self.with_overlay(fx, |p, ofx| p.on_start(now, ofx));
        fx.set_timer(self.stats_refresh, Timer::new(STATS_TICK, 0));
    }

    fn on_message(
        &mut self,
        now: SimTime,
        from: NodeId,
        msg: UniMsg<O::Msg>,
        fx: &mut UniFx<O::Msg>,
    ) {
        self.clock = now;
        match msg {
            UniMsg::Overlay(m) => self.with_overlay(fx, |p, ofx| p.on_message(now, from, m, ofx)),
            UniMsg::Query(q) => self.handle_query_msg(from, q, fx),
        }
    }

    fn on_timer(&mut self, now: SimTime, t: Timer, fx: &mut UniFx<O::Msg>) {
        self.clock = now;
        if t.kind < 100 {
            self.with_overlay(fx, |p, ofx| p.on_timer(now, t, ofx));
        } else if t.kind == STATS_TICK {
            self.flush_stats_outbox(fx);
            fx.set_timer(self.stats_refresh, Timer::new(STATS_TICK, 0));
        } else if t.kind == RESULT_TIMEOUT {
            let user = t.payload;
            let (deadline, last_timeout) = match self.pending_results.get(&user) {
                Some(p) => (p.deadline, p.last_timeout),
                None => return,
            };
            if now >= deadline {
                // Budget exhausted: fail with the best partial seen.
                let Some(p) = self.pending_results.remove(&user) else { return };
                self.purge_attempts(user);
                let (relation, hops, coverage) =
                    p.best.unwrap_or_else(|| (Relation::empty(vec![]), 0, Coverage::failed()));
                fx.emit(UniEvent::QueryDone { qid: user, relation, hops, ok: false, coverage });
                return;
            }
            // Attempt budget: with this many attempt aliases already
            // outstanding at this origin, another re-dispatch feeds a
            // retry storm (a correlated failure strands whole windows
            // of attempts at once, and every one of them is here
            // wanting to double its in-flight load). Defer instead:
            // keep the stranded attempts live — any of them may still
            // complete — and look again after one more backoff
            // interval. The deadline check above still fails the query
            // when the budget never clears.
            if self.attempt_of.len() >= self.attempt_budget {
                self.suppressed += 1;
                let delay = self.jittered(last_timeout).min(deadline.saturating_sub(now));
                fx.set_timer(delay, Timer::new(RESULT_TIMEOUT, user));
                return;
            }
            // Retire the lost attempts so their late replies can
            // neither complete the fresh one nor surface a partial
            // answer as the result, then re-dispatch under a fresh
            // attempt qid with a decorrelated-jittered timeout:
            // uniform over [0.75 × adaptive base, 3 × previous], capped
            // by the configured timeout and the remaining budget. The
            // lower bound sits below the base so that the cap cannot
            // collapse the sample back to one synchronized value when
            // the adaptive base already equals the configured timeout
            // (a cold node under correlated failure).
            self.purge_attempts(user);
            let base = self.attempt_timeout();
            let lo = SimTime::from_micros((base.as_micros() as f64 * 0.75) as u64);
            let hi = SimTime::from_micros(last_timeout.as_micros().saturating_mul(3)).max(base);
            let next_timeout =
                SimTime::from_micros(self.rng.gen_range(lo.as_micros()..=hi.as_micros()))
                    .min(self.query_timeout);
            let delay = next_timeout.min(deadline.saturating_sub(now));
            let attempt_qid = self.fresh_exec_qid();
            let Some(p) = self.pending_results.get_mut(&user) else { return };
            p.attempts += 1;
            p.hedged = false;
            self.retries += 1;
            p.last_dispatch = now;
            p.last_timeout = next_timeout;
            let mut mqp = p.mqp.clone();
            mqp.qid = attempt_qid;
            self.attempt_of.insert(attempt_qid, user);
            fx.set_timer(delay, Timer::new(RESULT_TIMEOUT, user));
            self.arm_hedge(user, fx);
            self.continue_plan(mqp, fx);
        } else if t.kind == HEDGE_TIMER {
            let user = t.payload;
            // Still pending and not yet hedged this attempt: ship the
            // race copy. The original attempt stays live — whichever
            // completion reaches the origin first wins; the loser
            // resolves to a purged alias and is dropped.
            // A hedge is a deliberate duplicate attempt; under the
            // attempt budget it is the first load shed.
            let at_budget = self.attempt_of.len() >= self.attempt_budget;
            let mut deferred = false;
            let mqp = match self.pending_results.get_mut(&user) {
                Some(p) if !p.hedged => {
                    if at_budget {
                        deferred = true;
                        None
                    } else {
                        p.hedged = true;
                        Some(p.mqp.clone())
                    }
                }
                _ => None,
            };
            if deferred {
                self.suppressed += 1;
            }
            if let Some(mut mqp) = mqp {
                let attempt_qid = self.fresh_exec_qid();
                mqp.qid = attempt_qid;
                self.hedges += 1;
                self.attempt_of.insert(attempt_qid, user);
                self.continue_plan(mqp, fx);
            }
        }
    }
}

// Unit tests for the executor live in `cluster.rs` (they need a built
// network); the pure helpers are tested here.
#[cfg(test)]
mod tests {
    use super::*;
    use unistore_vql::parse;

    #[test]
    fn anchor_keys_for_point_scans() {
        let q = parse("SELECT ?v WHERE {('a12','year',?v)}").unwrap();
        assert!(anchor_key(&q.patterns[0]).is_some(), "oid literal anchors");
        let q = parse("SELECT ?a WHERE {(?a,'year',2006)}").unwrap();
        assert!(anchor_key(&q.patterns[0]).is_some(), "attr+value literal anchors");
        let q = parse("SELECT ?v WHERE {(?a,'year',?v)}").unwrap();
        assert!(anchor_key(&q.patterns[0]).is_none(), "range scans do not anchor");
        let q = parse("SELECT ?attr WHERE {(?a,?attr,2006)}").unwrap();
        assert!(anchor_key(&q.patterns[0]).is_some(), "value literal anchors");
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

    thread_local! {
        /// Calls of `derived` on this test thread.
        pub(super) static KEYS_DERIVED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    #[test]
    fn distinct_col_dedups_semantically() {
        let rel = Relation {
            schema: vec![std::sync::Arc::from("x")],
            rows: vec![vec![Value::Int(3)], vec![Value::Float(3.0)], vec![Value::Int(4)]],
        };
        let keys = ColumnKeys::of(&rel, 0);
        assert_eq!(keys.first_rows, vec![0, 2]);
        assert_eq!(keys.hashes.len(), 2);
    }

    #[test]
    fn fetch_plan_counts_bindings_before_deriving_keys() {
        // `n` distinct subjects, each bound twice, plus one non-string
        // binding that derives no OID key and so does not count.
        let left_with = |n: usize| Relation {
            schema: vec![std::sync::Arc::from("a")],
            rows: (0..n)
                .chain(0..n)
                .map(|i| vec![Value::str(&format!("o{i}"))])
                .chain([vec![Value::Int(7)]])
                .collect(),
        };
        let by_oid = &parse("SELECT ?g WHERE {(?a,'age',?g)}").unwrap().patterns[0];
        let keys_derived = || KEYS_DERIVED.with(|n| n.replace(0));

        keys_derived();
        let mut memo = None;
        let plan = fetch_plan(&left_with(FETCH_CAP), by_oid, &MappingSet::new(), &mut memo);
        let plan = plan.expect("512 distinct bindings are within the cap");
        assert!(matches!(plan, FetchPlan::ByOid { .. }));
        assert_eq!(plan.keys().len(), FETCH_CAP);
        assert_eq!(plan.keys()[3], idx::oid_key(&Oid::new("o3")), "first-occurrence order");
        assert_eq!(keys_derived(), FETCH_CAP);
        assert_eq!(memo.as_ref().map(|k| k.hashes.len()), Some(FETCH_CAP + 1));

        let mut memo = None;
        let plan = fetch_plan(&left_with(FETCH_CAP + 1), by_oid, &MappingSet::new(), &mut memo);
        assert!(plan.is_none(), "513 distinct bindings are over the cap");
        assert_eq!(keys_derived(), 0, "turned down before any key was derived");
        // The column's hashes stay behind for the semi-join filter.
        let (_, distinct) = build_semi_filter(column_keys(&mut memo, &left_with(0), 0), 0);
        assert_eq!(distinct, FETCH_CAP + 2, "memo reused, not rebuilt from the empty relation");

        // Value-position fetch multiplies by the mapped attributes.
        let by_value = &parse("SELECT ?x WHERE {(?x,'name',?a)}").unwrap().patterns[0];
        let mut maps = MappingSet::new();
        maps.add(&unistore_store::Mapping::new("name", "foaf:name"));
        let plan = fetch_plan(&left_with(FETCH_CAP / 2 - 1), by_value, &maps, &mut None);
        assert_eq!(plan.expect("255 bindings + 1, two attributes").keys().len(), FETCH_CAP);
        assert_eq!(keys_derived(), FETCH_CAP);
        assert!(fetch_plan(&left_with(FETCH_CAP / 2), by_value, &maps, &mut None).is_none());
        assert_eq!(keys_derived(), 0);
        assert!(fetch_plan(&left_with(0).project(&[]), by_oid, &maps, &mut None).is_none());
    }

    #[test]
    fn semi_join_site_prefers_first_shared_position() {
        let left = Relation {
            schema: vec![std::sync::Arc::from("a"), std::sync::Arc::from("v")],
            rows: vec![],
        };
        let q = parse("SELECT ?a,?v WHERE {(?a,'age',?v)}").unwrap();
        assert_eq!(semi_join_site(&left, &q.patterns[0]), Some((0, field::SUBJECT)));
        let q = parse("SELECT ?v WHERE {(?x,'age',?v)}").unwrap();
        assert_eq!(semi_join_site(&left, &q.patterns[0]), Some((1, field::VALUE)));
        let q = parse("SELECT * WHERE {(?x,'age',?y)}").unwrap();
        assert_eq!(semi_join_site(&left, &q.patterns[0]), None, "no shared variable");
    }

    mod filter_conservative {
        //! The load-bearing semi-join property: a filter built from a
        //! materialized column's `value_hash`es accepts every triple
        //! whose addressed field semantically equals some left value —
        //! across positions and across the Int/Float class collapse.

        use super::*;
        use proptest::prelude::*;
        use unistore_util::item::Item as _;

        /// Mixed-type value strategy: short strings, ints, and floats
        /// that collide with the ints across the numeric-class collapse.
        struct ArbValue;
        impl Strategy for ArbValue {
            type Value = Value;

            fn generate(&self, rng: &mut proptest::TestRng) -> Value {
                let n = (rng.next_u64() % 200) as i64 - 100;
                match rng.next_u64() % 3 {
                    0 => {
                        let len = 1 + (rng.next_u64() % 8) as usize;
                        let s: String = (0..len)
                            .map(|_| (b'a' + (rng.next_u64() % 26) as u8) as char)
                            .collect();
                        Value::str(&s)
                    }
                    1 => Value::Int(n),
                    _ => Value::Float(n as f64),
                }
            }
        }

        /// Unquoted text form (Display wraps strings in quotes).
        fn plain(v: &Value) -> String {
            match v {
                Value::Str(s) => s.to_string(),
                other => other.to_string(),
            }
        }

        proptest! {
            #[test]
            fn filtered_scan_never_drops_a_true_match(
                left_vals in proptest::collection::vec(ArbValue, 1..40),
                triples in proptest::collection::vec(
                    ("[a-z]{1,6}", "[a-z]{1,6}", ArbValue),
                    0..60,
                ),
                fld in 0u8..3,
            ) {
                // Left column: strings for subject/attr positions (those
                // bind as strings), anything for the value position.
                let rows: Vec<Vec<Value>> = left_vals
                    .iter()
                    .map(|v| match fld {
                        field::VALUE => vec![v.clone()],
                        _ => vec![Value::str(&plain(v))],
                    })
                    .collect();
                let left = Relation { schema: vec![std::sync::Arc::from("x")], rows };
                let (filter, _) = build_semi_filter(&ColumnKeys::of(&left, 0), fld);
                for (oid, attr, val) in &triples {
                    let t = Triple::new(oid, attr, val.clone());
                    let matches_left = left.rows.iter().any(|r| match fld {
                        field::SUBJECT => r[0].as_str() == Some(oid.as_str()),
                        field::ATTR => r[0].as_str() == Some(attr.as_str()),
                        _ => r[0].eq_values(val),
                    });
                    if matches_left {
                        prop_assert!(
                            filter.accepts(&t),
                            "true match dropped: {t} against field {fld}"
                        );
                    }
                }
                // And triples built *from* the left values always pass.
                for v in &left_vals {
                    let t = match fld {
                        field::SUBJECT => Triple::new(&plain(v), "a", Value::Int(0)),
                        field::ATTR => Triple::new("o", &plain(v), Value::Int(0)),
                        _ => Triple::new("o", "a", v.clone()),
                    };
                    prop_assert!(t.field_hash(fld).is_some());
                    prop_assert!(filter.accepts(&t));
                }
            }
        }
    }
}
