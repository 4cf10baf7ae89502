//! The P-Grid peer: protocol state machine hosted on a simulated node.
//!
//! One struct implements the whole protocol; the per-concern handler
//! methods live in the sibling modules ([`crate::lookup`],
//! [`crate::range`], [`crate::replicate`], [`crate::maintain`],
//! [`crate::bootstrap`]) as additional `impl` blocks.

use rand::rngs::StdRng;
use rand::Rng;

use unistore_overlay::liveness::Suspicion;
use unistore_overlay::repair::ReplicaRepair;
use unistore_overlay::{OverlayDone, PartTracker, Record};
use unistore_simnet::{Effects, NodeBehavior, NodeId, SimTime, Timer};
use unistore_util::rng::{derive_rng, stream};
use unistore_util::wire::OpBatch;
use unistore_util::{BitPath, FxHashMap, ItemFilter, Key};

use crate::config::PGridConfig;
use crate::item::{Item, LocalStore};
use crate::msg::{PGridMsg, QueryId};
use crate::range::RangeScan;
use crate::routing::{RouteDecision, RoutingTable};

/// Effects buffer specialized to the P-Grid protocol.
pub type Fx<I> = Effects<PGridMsg<I>, OverlayDone<I>>;

/// Timer kinds used by the peer.
pub(crate) mod timer {
    /// Query timeout; payload = query id.
    pub const QUERY_TIMEOUT: u32 = 1;
    /// Periodic maintenance round: table exchange, probe and repair.
    pub const MAINTAIN: u32 = 2;
    /// Bootstrap: initiate a pairwise exchange; payload unused.
    pub const EXCHANGE: u32 = 4;
    /// Deadline of a maintenance round's probes.
    pub const ROUND_DEADLINE: u32 = 5;
}

/// A driver-issued operation awaiting completion at the origin: which
/// of its parts are answered, and what it asked for, kept so a
/// timed-out attempt can re-issue its unanswered parts
/// (`PGridConfig::op_retries`), each routed around the first hop it
/// took in the failed attempt.
#[derive(Debug)]
pub(crate) struct Pending<I> {
    pub(crate) tracker: PartTracker,
    pub(crate) op: Op<I>,
}

/// What a pending operation asked for.
#[derive(Debug)]
pub(crate) enum Op<I> {
    /// Exact-key lookup, one part (with the semi-join filter to
    /// re-ship on retry).
    Lookup { key: Key, filter: Option<ItemFilter> },
    /// Batched writes, one part per op position; re-applying a re-sent
    /// op is idempotent under the versioned store.
    Batch(OpBatch<I>),
    /// Range query accumulating leaf replies ([`crate::range`]).
    Range(RangeScan<I>),
}

/// A P-Grid peer.
pub struct PGridPeer<I: Item> {
    pub(crate) id: NodeId,
    pub(crate) cfg: PGridConfig,
    pub(crate) routing: RoutingTable,
    pub(crate) store: LocalStore<I>,
    /// Anti-entropy with same-path replicas ([`crate::replicate`]).
    pub(crate) repair: ReplicaRepair,
    pub(crate) rng: StdRng,
    pub(crate) pending: FxHashMap<QueryId, Pending<I>>,
    /// Failure detector of the maintenance probes ([`crate::maintain`]).
    pub(crate) liveness: Suspicion,
    /// All node ids in the overlay — stands in for P-Grid's random walks
    /// when the bootstrap protocol picks exchange partners (documented
    /// simplification, see DESIGN.md).
    pub(crate) universe: Vec<NodeId>,
    /// Whether this peer actively runs the pairwise bootstrap protocol.
    pub(crate) bootstrapping: bool,
    /// Entries that could not be re-routed yet (sparse routing during
    /// bootstrap); retried every exchange round.
    pub(crate) reroute_stash: Vec<Record<(Key, u64), I>>,
}

impl<I: Item> PGridPeer<I> {
    /// Creates a peer at a fixed trie position (converged-state setup).
    pub fn new(id: NodeId, path: BitPath, cfg: PGridConfig, seed: u64) -> Self {
        let rng = derive_rng(seed, stream::NODE_BASE + id.0 as u64);
        let routing = RoutingTable::new(path, cfg.refs_per_level);
        PGridPeer {
            id,
            cfg,
            routing,
            store: LocalStore::new(),
            repair: ReplicaRepair::default(),
            rng,
            pending: FxHashMap::default(),
            liveness: Suspicion::default(),
            universe: Vec::new(),
            bootstrapping: false,
            reroute_stash: Vec::new(),
        }
    }

    /// Creates an unspecialized peer (path ε) that will find its place
    /// through the pairwise bootstrap protocol.
    pub fn new_bootstrap(id: NodeId, cfg: PGridConfig, seed: u64, universe: Vec<NodeId>) -> Self {
        let mut p = Self::new(id, BitPath::ROOT, cfg, seed);
        p.universe = universe;
        p.bootstrapping = true;
        p
    }

    /// This peer's node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Current trie path.
    pub fn path(&self) -> BitPath {
        self.routing.path()
    }

    /// Immutable view of the local store.
    pub fn store(&self) -> &LocalStore<I> {
        &self.store
    }

    /// Mutable routing access for converged-state construction.
    pub fn routing_mut(&mut self) -> &mut RoutingTable {
        &mut self.routing
    }

    /// Immutable routing access.
    pub fn routing(&self) -> &RoutingTable {
        &self.routing
    }

    /// Places an entry directly into the local store (driver-side
    /// preloading; bypasses the network on purpose).
    pub fn preload(&mut self, key: Key, item: I, version: u64) {
        self.store.insert(key, item, version);
    }

    /// Picks a next hop toward `key`, or `None` when the key is local or
    /// the needed level has no reference. The lookups' rule
    /// ([`RoutingTable::route_read`]): the reference matching the key the
    /// longest, the least-read among equally deep ones, so embedding
    /// layers that forward whole query plans skip levels and spread
    /// hot-key traffic across the responsible replica group, exactly
    /// like the lookups themselves. `avoid` — an earlier attempt's first
    /// hop — is passed over while an alternative exists.
    pub fn next_hop(&mut self, key: Key, avoid: Option<NodeId>) -> Option<NodeId> {
        match self.routing.route_read(key, avoid) {
            RouteDecision::Forward(id, _) => Some(id),
            RouteDecision::Local | RouteDecision::Stuck(_) => None,
        }
    }

    /// Registers a driver operation of `parts` parts at its origin and
    /// arms its timeout.
    pub(crate) fn register(&mut self, fx: &mut Fx<I>, qid: QueryId, parts: usize, op: Op<I>) {
        self.pending.insert(qid, Pending { tracker: PartTracker::new(parts), op });
        self.arm_timeout(qid, fx);
    }

    /// Arms an operation's timeout, jittered ±25% so a batch of ops
    /// stranded by one correlated failure re-issues spread out instead
    /// of as a synchronized retry storm.
    fn arm_timeout(&mut self, qid: QueryId, fx: &mut Fx<I>) {
        let jitter = self.rng.gen_range(0.75..1.25);
        let delay =
            SimTime::from_micros((self.cfg.query_timeout.as_micros() as f64 * jitter) as u64);
        fx.set_timer(delay, Timer::new(timer::QUERY_TIMEOUT, qid));
    }

    /// The one timeout rule: re-issue only the unanswered parts, each
    /// around its first hop of the failed attempt (answered parts stay
    /// marked, and a late answer from that attempt still counts), until
    /// the retries are spent; then report what was answered.
    fn handle_query_timeout(&mut self, qid: QueryId, fx: &mut Fx<I>) {
        let Some(p) = self.pending.get_mut(&qid) else {
            return; // completed in time
        };
        match p.tracker.retry(self.cfg.op_retries) {
            Some(parts) => {
                self.arm_timeout(qid, fx);
                self.issue(qid, &parts, fx);
            }
            None => self.finish(qid, false, fx),
        }
    }

    /// Sends `parts` of the pending operation `qid`, each around the
    /// first hop it names.
    pub(crate) fn issue(
        &mut self,
        qid: QueryId,
        parts: &[(usize, Option<NodeId>)],
        fx: &mut Fx<I>,
    ) {
        match self.pending.get(&qid).map(|p| &p.op) {
            Some(Op::Lookup { key, filter }) => {
                let (key, filter) = (*key, filter.clone());
                let avoid = parts.first().and_then(|p| p.1);
                self.route_lookup(qid, key, self.id, 0, filter, avoid, fx);
            }
            Some(Op::Batch(batch)) => {
                let batch = batch.clone();
                self.issue_batch(qid, &batch, parts, fx);
            }
            Some(Op::Range(_)) => self.issue_range(qid, parts, fx),
            None => {}
        }
    }

    /// Retires the pending operation `qid` and reports it: `done` when
    /// every part was answered, otherwise with what was answered before
    /// the retries ran out. (A lookup that succeeds answers with its
    /// reply instead, in [`Self::handle_lookup_reply`].)
    pub(crate) fn finish(&mut self, qid: QueryId, done: bool, fx: &mut Fx<I>) {
        let Some(Pending { tracker, op }) = self.pending.remove(&qid) else { return };
        let (answered, hops) = (tracker.answered(), tracker.hops());
        fx.emit(match op {
            Op::Lookup { .. } => OverlayDone::Lookup { qid, items: Vec::new(), hops: 0, ok: false },
            Op::Batch(_) => OverlayDone::Batch { qid, ops: answered, hops, ok: done },
            Op::Range(scan) => {
                let (items, complete) = (scan.items, done && !scan.aborted);
                OverlayDone::Range { qid, items, hops, complete, parts: scan.leaves }
            }
        });
    }
}

impl<I: Item> NodeBehavior for PGridPeer<I> {
    type Msg = PGridMsg<I>;
    type Out = OverlayDone<I>;

    fn on_start(&mut self, _now: SimTime, fx: &mut Fx<I>) {
        // Also runs on revival: a crash cancelled every pending timer, and
        // what the peer suspected is as stale as its absence was long.
        self.liveness.reset();
        let cfg = &self.cfg;
        fx.set_periodic(&mut self.rng, cfg.maintenance_interval, Timer::new(timer::MAINTAIN, 0));
        if self.bootstrapping {
            fx.set_periodic(&mut self.rng, cfg.exchange_interval, Timer::new(timer::EXCHANGE, 0));
        }
    }

    fn on_message(&mut self, now: SimTime, from: NodeId, msg: PGridMsg<I>, fx: &mut Fx<I>) {
        // Any traffic from a peer proves it lives.
        self.liveness.heard(from);
        match msg {
            PGridMsg::Lookup { qid, key, origin, hops, filter } => {
                self.handle_lookup(from, qid, key, origin, hops, filter, fx)
            }
            PGridMsg::LookupReply { qid, items, hops, ok } => {
                self.handle_lookup_reply(qid, items, hops, ok, fx)
            }
            PGridMsg::OpBatch { qid, origin, hops, positions, batch } => {
                self.handle_op_batch(from, qid, origin, hops, positions, batch, fx)
            }
            PGridMsg::BatchAck { qid, applied, hops } => {
                self.handle_batch_ack(qid, &applied, hops, fx)
            }
            PGridMsg::Delete { key, ident, version } => self.handle_delete(key, ident, version, fx),
            PGridMsg::Range { qid, lo, hi, lmin, origin, hops, filter } => {
                self.handle_range(from, qid, lo, hi, lmin, origin, hops, filter, fx)
            }
            PGridMsg::RangeSeq { qid, lo, hi, origin, hops, filter } => {
                self.handle_range_seq(from, qid, lo, hi, origin, hops, filter, fx)
            }
            PGridMsg::RangeReply { qid, cov_lo, cov_hi, items, hops, aborted } => {
                self.handle_range_reply(qid, cov_lo, cov_hi, items, hops, aborted, fx)
            }
            PGridMsg::Replicate { entries } => self.handle_replicate(entries),
            PGridMsg::Repair(msg) => self.handle_repair(from, msg, fx),
            PGridMsg::TableRequest { path, full, summary } => {
                self.handle_table_request(from, path, full, summary, fx)
            }
            PGridMsg::TableReply { peers } | PGridMsg::ExchangeRefs { peers } => {
                self.merge_refs(&peers)
            }
            PGridMsg::Exchange { path, store_len } => {
                self.handle_exchange(now, from, path, store_len, fx)
            }
            PGridMsg::ExchangeSplit { new_sender_path, entries } => {
                self.handle_exchange_split(from, new_sender_path, entries, fx)
            }
            PGridMsg::ExchangeData { entries } => self.handle_exchange_data(entries, fx),
            PGridMsg::ExchangeReplica { entries } => self.handle_exchange_replica(from, entries),
            PGridMsg::ExchangeAdopt { bit } => self.handle_exchange_adopt(from, bit, fx),
        }
    }

    fn on_timer(&mut self, _now: SimTime, t: Timer, fx: &mut Fx<I>) {
        match t.kind {
            timer::QUERY_TIMEOUT => self.handle_query_timeout(t.payload, fx),
            timer::MAINTAIN => {
                self.run_maintenance(fx);
                fx.set_periodic(&mut self.rng, self.cfg.maintenance_interval, t);
            }
            timer::EXCHANGE if self.bootstrapping => {
                self.initiate_exchange(fx);
                fx.set_periodic(&mut self.rng, self.cfg.exchange_interval, t);
            }
            timer::ROUND_DEADLINE => self.evict_silent(),
            _ => {}
        }
    }
}
