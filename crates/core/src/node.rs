//! The UniStore node: overlay peer + triple layer + query executor.
//!
//! Paper Fig. 1: the storage service and the query processor share one
//! process. Here [`UniNode`] embeds an [`Overlay`] peer (the storage
//! layer — P-Grid natively, or Chord with its auxiliary bucket index)
//! and a query processor with four jobs, one submodule each: `exec`
//! runs mutant query plans, `attempts` decides what the origin of a
//! query does on admission, timeout, hedge and completion, `join`
//! arbitrates the physical join strategy, and `stats` keeps the
//! statistics plane. This file holds the node's state, dispatches
//! events to them, and carries out the attempt machine's decisions.

mod attempts;
mod exec;
mod join;
mod stats;

use std::collections::VecDeque;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::Rng;

use unistore_overlay::{Overlay, OverlayDone, RangeMode};
use unistore_query::cost::shards::STATS_SHARDS;
use unistore_query::cost::{StatsDelta, StatsFlush, StatsHome, StatsNotice, StatsPiece};
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

use crate::config::{BackoffPolicy, PlanMode, ScanPref, UniConfig};
use crate::msg::{QueryMsg, UniEvent, UniMsg};

use attempts::{Act, Arm, Attempts};
use exec::{ResultCache, Wait};
use join::JoinDecision;

/// Effects buffer of the UniStore node, parameterized by the storage
/// backend's message type.
pub type UniFx<M> = Effects<UniMsg<M>, UniEvent>;

/// Timer kind for the origin-side query deadline (storage-layer timers
/// use kinds below 100 — see the [`Overlay`] contract).
const RESULT_TIMEOUT: u32 = 100;

/// Timer kind for the periodic statistics-dissemination tick: buffered
/// [`StatsDelta`]s are flushed as pieces to the shard homes, and what
/// the homes publish goes down a binomial broadcast tree spanning every
/// peer, bounding the staleness a remote plan can observe (beyond the
/// drift ε allows) by one and a half ticks plus O(log n) hops.
const STATS_TICK: u32 = 101;

/// Timer kind for hedged dispatch: when the current attempt outlives a
/// delay derived from the completion-time window, a second copy of the
/// plan is shipped and the first completion wins (DESIGN.md §"Failure
/// semantics").
const HEDGE_TIMER: u32 = 102;

/// Timer kind for a flush round's ack wait: when it runs out, the flush
/// goes on without the shard homes' acks still missing.
const STATS_ACK_WAIT: u32 = 103;

/// Executor namespace bit of a qid: the executor's own overlay ops and
/// retry attempts, disjoint from driver-assigned qids.
const EXEC_QID: u64 = 1 << 62;

/// The newest of a node's executor qids ([`EXEC_QID`] namespace, the
/// node id from bit 32): one sequence for its storage ops and its retry
/// and hedge attempts.
struct ExecQids(u64);

impl ExecQids {
    fn next(&mut self) -> u64 {
        self.0 += 1;
        self.0
    }
}

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

/// A full UniStore node, generic over its storage substrate.
pub struct UniNode<O: Overlay<Item = Triple>> {
    /// The embedded storage-layer peer.
    pub overlay: O,
    /// Statistics snapshot (the paper's gossiped statistics; see
    /// DESIGN.md § Statistics distribution): the newest summary of
    /// every attribute and shard this node was handed at load or
    /// installed from a notice. It holds no refcount map.
    stats: Option<Arc<CostModel>>,
    /// A write origin's planning view between two stats ticks: `stats`
    /// plus the counts, bytes and histogram keys of the origin's own
    /// unflushed writes.
    view: Option<Arc<CostModel>>,
    /// Known schema mappings.
    pub mappings: MappingSet,
    /// Planner behaviour.
    pub plan_mode: PlanMode,
    /// Optimizer decisions taken at this node.
    pub trace: Vec<Decision>,
    /// Deployment size: the fan-out of the stats-dissemination flush
    /// (the same system-wide parameter the cost model already assumes
    /// every peer knows).
    n_peers: usize,
    /// Statistics-dissemination cadence
    /// ([`crate::UniConfig::stats_refresh`]).
    stats_refresh: SimTime,
    /// The drift a home lets a summary take unpublished
    /// ([`crate::UniConfig::stats_epsilon`]).
    stats_epsilon: f64,
    /// Stat deltas learned from write origins, buffered until the next
    /// dissemination tick.
    stats_outbox: StatsDelta,
    /// Snapshot generation of `cost`. Deltas from another epoch are
    /// stale (a full rebuild already contains their writes) and dropped.
    stats_epoch: u64,
    /// The flush whose notice waits on the shard homes' acks, or the
    /// last one sent.
    flush: Option<stats::Flush>,
    /// Number of this node's latest flush round.
    flush_seq: u64,
    /// Summaries published in acks that came after their notice went:
    /// they ride the next one.
    late: StatsNotice,
    /// The statistics shards this node is home of, by shard.
    homes: [Option<StatsHome>; STATS_SHARDS as usize],
    /// Plans suspended on storage ops, by query (attempt) qid.
    active: FxHashMap<u64, Wait>,
    /// storage-layer qid → query qid.
    waiting: FxHashMap<u64, u64>,
    /// Local (attr, value) result cache for remote exact-match lookups
    /// ([`crate::UniConfig::result_cache`]; capacity 0 disables it).
    cache: ResultCache,
    /// Lookups answered from the local result cache (observability for
    /// tests and the concurrency bench).
    pub cache_hits: u64,
    /// Time of the event being handled, captured at handler entry so
    /// the attempt machine can reason about deadlines without threading
    /// `now` through every call.
    clock: SimTime,
    /// What the origin does with the queries it admitted: retries,
    /// hedges, the attempt budget and the acceptance gate.
    attempts: Attempts,
    /// Hedged dispatches shipped (observability for tests and benches).
    pub hedges: u64,
    /// Deadline-driven re-dispatches actually shipped (observability:
    /// the scale campaign's attempt-amplification accounting).
    pub retries: u64,
    /// Re-dispatches and hedges withheld by the attempt budget
    /// (observability for the retry-storm guard).
    pub suppressed: u64,
    /// Statistics notices this node sent as a write origin
    /// (observability for tests and benches).
    pub notices_sent: u64,
    /// The last of them.
    pub last_notice: Option<Shared<StatsNotice>>,
    qids: ExecQids,
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
        let id = overlay.id();
        UniNode {
            overlay,
            stats: None,
            view: None,
            mappings: MappingSet::new(),
            plan_mode: cfg.plan_mode,
            trace: Vec::new(),
            n_peers,
            stats_refresh: cfg.stats_refresh,
            stats_epsilon: cfg.stats_epsilon,
            stats_outbox: StatsDelta::new(),
            stats_epoch: 0,
            flush: None,
            flush_seq: 0,
            late: StatsNotice::default(),
            homes: Default::default(),
            cache: ResultCache::new(cfg.result_cache, cfg.stats_refresh),
            cache_hits: 0,
            active: FxHashMap::default(),
            waiting: FxHashMap::default(),
            clock: SimTime::ZERO,
            // A private jitter stream, disjoint from the overlay peer's.
            attempts: Attempts::new(cfg, derive_rng(seed, stream::QUERY_NODE_BASE + id.0 as u64)),
            hedges: 0,
            retries: 0,
            suppressed: 0,
            notices_sent: 0,
            last_notice: None,
            qids: ExecQids(EXEC_QID | ((id.0 as u64) << 32)),
            ofx: Effects::new(),
        }
    }

    /// Node id.
    pub fn id(&self) -> NodeId {
        self.overlay.id()
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

    fn handle_query_msg(&mut self, from: NodeId, msg: QueryMsg, fx: &mut UniFx<O::Msg>) {
        match msg {
            QueryMsg::Execute { mqp } => {
                if from == NodeId::EXTERNAL && NodeId(mqp.origin) == self.id() {
                    set_timers(self.attempts.admit(self.clock, &mqp), fx);
                }
                self.continue_plan(mqp, None, fx);
            }
            QueryMsg::Route { key, mqp } => self.route(key, mqp, fx),
            QueryMsg::Result { qid, relation, hops, coverage } => {
                let step = self.attempts.complete(self.clock, qid, relation, hops, coverage);
                self.act(step, fx);
            }
            QueryMsg::StatsDelta { epoch, delta } => self.on_stats_delta(epoch, &delta),
            QueryMsg::StatsNotice { epoch, span, notice } => {
                self.on_stats_notice(epoch, span, &notice, fx);
            }
            QueryMsg::StatsPiece { epoch, origin, flush, at_home, piece } => {
                self.on_stats_piece(epoch, origin, flush, at_home, piece, fx);
            }
            QueryMsg::StatsAck { epoch, flush, shard, taken, published } => {
                self.on_stats_ack(epoch, flush, shard, &taken, published, fx);
            }
            QueryMsg::StatsProbe { qid } => fx.emit(self.stats_probe(qid)),
        }
    }

    /// Carries out an attempt machine decision. Retired attempts lose
    /// their suspended plans and storage-op links first, so late storage
    /// replies or results from them are dropped instead of reviving a
    /// plan whose query was already answered, retried or failed.
    fn act(&mut self, (retired, act): (Vec<u64>, Act), fx: &mut UniFx<O::Msg>) {
        if !retired.is_empty() {
            for a in &retired {
                self.active.remove(a);
            }
            self.waiting.retain(|_, v| !retired.contains(v));
        }
        match act {
            Act::Nothing => {}
            Act::Answer(done) => fx.emit(done),
            Act::Suppress(rearm) => {
                self.suppressed += 1;
                if let Some(arm) = rearm {
                    set_timers(arm, fx);
                }
            }
            Act::Hedge(mqp, avoid) => {
                self.hedges += 1;
                self.continue_plan(mqp, avoid, fx);
            }
            Act::Retry(mqp, arm, avoid) => {
                self.retries += 1;
                set_timers(arm, fx);
                self.continue_plan(mqp, avoid, fx);
            }
        }
    }
}

/// Arms a query's timeout and, when one is due, its hedge timer.
fn set_timers<M>(arm: Arm, fx: &mut UniFx<M>) {
    fx.set_timer(arm.timeout, Timer::new(RESULT_TIMEOUT, arm.query));
    if let Some(delay) = arm.hedge {
        fx.set_timer(delay, Timer::new(HEDGE_TIMER, arm.query));
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
        match t.kind {
            kind if kind < 100 => self.with_overlay(fx, |p, ofx| p.on_timer(now, t, ofx)),
            STATS_TICK => {
                self.flush_stats_outbox(fx);
                fx.set_timer(self.stats_refresh, Timer::new(STATS_TICK, 0));
            }
            STATS_ACK_WAIT => self.on_ack_wait(t.payload, fx),
            RESULT_TIMEOUT => {
                let step = self.attempts.on_timeout(now, t.payload, &mut self.qids);
                self.act(step, fx);
            }
            HEDGE_TIMER => {
                let step = self.attempts.on_hedge(now, t.payload, &mut self.qids);
                self.act(step, fx);
            }
            _ => {}
        }
    }
}
