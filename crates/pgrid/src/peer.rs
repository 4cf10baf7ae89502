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
use unistore_overlay::{BatchTracker, OverlayDone, Record};
use unistore_simnet::{Effects, NodeBehavior, NodeId, SimTime, Timer};
use unistore_util::rng::{derive_rng, stream};
use unistore_util::wire::OpBatch;
use unistore_util::{BitPath, FxHashMap, ItemFilter, Key};

use crate::config::PGridConfig;
use crate::item::{Item, LocalStore};
use crate::msg::{PGridMsg, QueryId};
use crate::range::IntervalSet;
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

/// State of a driver-issued operation awaiting completion at the origin.
///
/// A lookup keeps its request parameters so a timed-out attempt can be
/// re-issued (`PGridConfig::op_retries`) through a different reference;
/// `last_hop` remembers the first hop of the latest attempt so the
/// retry can avoid it.
#[derive(Debug)]
pub(crate) enum Pending<I> {
    /// Exact-key lookup (with the semi-join filter to re-ship on retry).
    Lookup { key: Key, attempts: u32, last_hop: Option<NodeId>, filter: Option<ItemFilter> },
    /// Batched writes accumulating positional acks until every op is
    /// marked. The full op set is kept so a timed-out attempt can
    /// retransmit its un-acked remainder (re-application is idempotent
    /// under the versioned store), routing each op around the first hop
    /// of the previous attempt.
    Batch {
        /// The ops and shared payloads, for retransmits.
        batch: OpBatch<I>,
        /// Per-op first hop of the latest attempt (`None` = resolved
        /// locally, routing was stuck, or not part of that attempt).
        last_hops: Vec<Option<NodeId>>,
        /// Which ops are acked, how deep, and how many attempts so far.
        tracker: BatchTracker,
    },
    /// Range query accumulating leaf replies until the covered intervals
    /// add up to `[lo, hi]`.
    Range {
        /// Query bounds.
        lo: Key,
        hi: Key,
        /// Intervals covered by received replies.
        covered: IntervalSet,
        /// Accumulated items.
        items: Vec<I>,
        /// Max hops over branches.
        hops: u32,
        /// Leaf replies received.
        leaves: u32,
        /// Whether any branch reported a routing hole.
        aborted: bool,
    },
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
    /// Messages handled (all kinds) — the query/processing load metric
    /// used by the balance experiments.
    pub msg_load: u64,
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
            msg_load: 0,
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

    /// Registers a pending driver operation and arms its timeout,
    /// jittered ±25% so a batch of ops stranded by one correlated
    /// failure re-issues spread out instead of as a synchronized
    /// retry storm.
    pub(crate) fn register_pending(&mut self, fx: &mut Fx<I>, qid: QueryId, p: Pending<I>) {
        self.pending.insert(qid, p);
        let jitter = self.rng.gen_range(0.75..1.25);
        let delay =
            SimTime::from_micros((self.cfg.query_timeout.as_micros() as f64 * jitter) as u64);
        fx.set_timer(delay, Timer::new(timer::QUERY_TIMEOUT, qid));
    }

    fn handle_query_timeout(&mut self, qid: QueryId, fx: &mut Fx<I>) {
        let Some(pending) = self.pending.remove(&qid) else {
            return; // completed in time
        };
        match pending {
            Pending::Lookup { key, attempts, last_hop, filter } => {
                if attempts < self.cfg.op_retries {
                    self.register_pending(
                        fx,
                        qid,
                        Pending::Lookup {
                            key,
                            attempts: attempts + 1,
                            last_hop,
                            filter: filter.clone(),
                        },
                    );
                    self.issue_lookup(qid, key, last_hop, filter, fx);
                } else {
                    fx.emit(OverlayDone::Lookup { qid, items: Vec::new(), hops: 0, ok: false })
                }
            }
            Pending::Batch { batch, last_hops, mut tracker } => {
                match tracker.retry(self.cfg.op_retries) {
                    // Retransmit only the outstanding ops, each routed
                    // around its first hop of the failed attempt: acked
                    // work stays marked and a late ack from that attempt
                    // still counts.
                    Some(remainder) => {
                        self.register_pending(
                            fx,
                            qid,
                            Pending::Batch {
                                batch: batch.clone(),
                                last_hops: last_hops.clone(),
                                tracker,
                            },
                        );
                        self.issue_batch(qid, &batch, &remainder, &last_hops, fx);
                    }
                    None => fx.emit(OverlayDone::Batch {
                        qid,
                        ops: tracker.acked(),
                        hops: tracker.hops(),
                        ok: false,
                    }),
                }
            }
            Pending::Range { items, hops, leaves, .. } => {
                fx.emit(OverlayDone::Range { qid, items, hops, complete: false, parts: leaves })
            }
        }
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
        self.msg_load += 1;
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
