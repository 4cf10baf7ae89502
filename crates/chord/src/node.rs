//! The Chord node: finger routing, bucket fan-out, broadcast tree.

use rand::rngs::StdRng;

use unistore_overlay::liveness::{Suspicion, DEADLINE};
use unistore_overlay::repair::ReplicaRepair;
use unistore_overlay::{push_hop, HopGroups, OverlayDone, PartTracker, Record};
use unistore_simnet::{Effects, NodeBehavior, NodeId, SimTime, Timer};
use unistore_util::fxhash::mix64;
use unistore_util::rng::{derive_rng, stream};
use unistore_util::wire::BatchVerb;
use unistore_util::{FxHashMap, ItemFilter, Key};

pub use unistore_util::item::Item;

use crate::msg::{ChordBatchOp, ChordMsg, QueryId, WATCHERS_MAX};
use crate::ring::{in_open_closed, in_open_open};
use crate::store::{ChordStore, RecordKey};
use crate::topology::RingWiring;

/// Effects buffer specialized to Chord.
pub type Fx<I> = Effects<ChordMsg<I>, OverlayDone<I>>;

/// Salt separating the exact-key index from the bucket index on the ring.
const EXACT_SALT: u64 = 0x5155_4552_595f_4b45; // "QUERY_KE"
const BUCKET_SALT: u64 = 0x4255_434b_4554_5f49; // "BUCKET_I"

/// Ring position of the exact-key index entry for `key`.
pub fn ring_key_exact(key: Key) -> u64 {
    mix64(key ^ EXACT_SALT)
}

/// Ring position of the bucket holding `key` at `depth` bits.
pub fn ring_key_bucket(key: Key, depth: u8) -> u64 {
    mix64((key >> (64 - depth as u32)) ^ BUCKET_SALT)
}

/// Chord configuration.
#[derive(Clone, Debug)]
pub struct ChordConfig {
    /// Prefix depth (bits) of the auxiliary bucket index; `2^depth`
    /// buckets partition the original key space.
    pub bucket_depth: u8,
    /// Deadline for driver-issued operations.
    pub query_timeout: SimTime,
    /// How many times the origin re-issues a timed-out lookup, bucket
    /// scan or batch before reporting failure (only the unanswered parts
    /// are re-sent, see `unistore_overlay::PartTracker`). Same name and
    /// default as P-Grid's knob.
    pub op_retries: u32,
    /// Push applied writes to the successor replica and repair missed
    /// pushes with periodic hash-tree anti-entropy (the same exchange
    /// P-Grid runs, see `unistore_overlay::repair`). Off by
    /// default: the baseline comparison counts messages on the healthy
    /// path, and replication traffic would distort it. Writes are
    /// masked (hinted handoff, see [`ChordNode`]) only under
    /// replication: a handed-off copy lands in the owner's replica,
    /// whose anti-entropy brings it to an owner that was dead.
    pub replicate: bool,
    /// Period of the anti-entropy probe sent to the predecessor
    /// (jittered ±50% to avoid lockstep). Only armed when `replicate`.
    pub anti_entropy_interval: SimTime,
    /// Period of the routing-liveness probe: each tick pings
    /// `successor`, `successor2` and one finger round-robin (a node's
    /// first round, and its first after a revival, ping every finger),
    /// and a peer silent past [`unistore_overlay::liveness::DEADLINE`]
    /// is suspected. A silent successor is confirmed with one more ping
    /// and then reported to the nodes that route through it (see
    /// [`ChordNode`]); [`ChordNode`] routes around suspects until they
    /// are heard from again. Zero disables probing (the default: the
    /// healthy-path baseline comparisons count messages, and probe
    /// traffic would distort them).
    pub ping_interval: SimTime,
}

impl Default for ChordConfig {
    fn default() -> Self {
        ChordConfig {
            bucket_depth: 10,
            query_timeout: SimTime::from_secs(30),
            op_retries: 2,
            replicate: false,
            anti_entropy_interval: SimTime::from_secs(60),
            ping_interval: SimTime::from_micros(0),
        }
    }
}

/// Most held ops a node keeps for replay ([`ChordNode`]'s hint
/// table). Past it an op whose owner side is suspected goes to the
/// owner anyway and is left to the origin's retransmission.
pub const HINT_MAX: usize = 1024;

/// Query ids from here up name a node's internal replays of its hint
/// table; the drivers' ids count up from 1.
const REPLAY_QID: QueryId = 1 << 63;

/// Timer kinds.
mod timer {
    pub const QUERY_TIMEOUT: u32 = 1;
    pub const ANTI_ENTROPY: u32 = 2;
    pub const PING: u32 = 3;
    pub const PING_DEADLINE: u32 = 4;
    /// A silent successor's confirmation deadline; the payload is its id.
    pub const CONFIRM: u32 = 5;
}

/// A driver-issued operation, or a hint replay, awaiting completion at
/// the origin: which of its parts are answered, and what it asked for,
/// kept so a timed-out attempt can re-issue its unanswered parts.
#[derive(Debug)]
struct Pending<I> {
    tracker: PartTracker,
    op: Op<I>,
}

/// What a pending operation asked for.
#[derive(Debug)]
pub(crate) enum Op<I> {
    /// An exact lookup, or a single-bucket read (`range`): one part.
    Lookup { ring_key: u64, range: Option<(Key, Key)>, filter: Option<ItemFilter> },
    /// A bucket scan of `[lo, hi]`: part `i` is the `i`-th bucket the
    /// interval meets.
    Buckets { lo: Key, hi: Key, filter: Option<ItemFilter>, items: Vec<I>, failed: bool },
    /// Batched writes, one part per op position. The full op set is
    /// kept so a timed-out batch can retransmit exactly the un-acked
    /// remainder (re-application is idempotent under the versioned
    /// store).
    Batch { items: Vec<I>, ops: Vec<ChordBatchOp> },
    /// An internal replay of the first `held` hints: they leave the
    /// table once acked, and stay for the next tick otherwise.
    Replay { held: usize },
}

/// Convergecast state of one broadcast branch.
#[derive(Debug)]
struct BcastState<I> {
    /// Parent to reply to; `None` at the origin.
    parent: Option<NodeId>,
    expected: u32,
    received: u32,
    items: Vec<I>,
    nodes: u32,
    hops: u32,
}

/// A Chord node.
///
/// Writes are masked against a dead owner by hinted handoff (under
/// [`ChordConfig::replicate`]). The node that routes an op to its
/// successor, the op's owner, sends it to `successor2` instead when the
/// successor is suspected or the op is a retransmission; `successor2`
/// replicates the owner's range, applies the op as a replica copy
/// without pushing it on, acks it, and hands it back to a trusted owner
/// (a dead one gets it from anti-entropy once it revives). When neither
/// is trusted, the routing node holds the op in
/// its hint table (at most [`HINT_MAX`]), acks it, and replays the held
/// ops on every ping tick until the owner's side acks them.
///
/// Crashes are found by ring neighbours (with
/// [`ChordConfig::ping_interval`] set). Every round a node pings its two
/// successors and one finger. A node's *watchers* are the peers that
/// ping it, i.e. route through it; it ships their ids to its two
/// predecessors ([`ChordMsg::Watchers`]) whenever the set has grown,
/// and again each round until they ack it. A
/// predecessor whose successor turns silent through a round's deadline
/// pings it once more and, if it is still silent one [`DEADLINE`]
/// later, sends [`ChordMsg::Down`] to each of its watchers and to the
/// node itself: detect, confirm, notify. A live node reported down
/// refutes with a [`ChordMsg::Pong`] to each of its watchers, and a
/// revived one announces itself the same way and probes every finger at
/// once.
pub struct ChordNode<I: Item> {
    id: NodeId,
    ring_id: u64,
    /// `(id, ring position)` of the predecessor — the primary this node
    /// replicates under successor replication.
    pub(crate) predecessor: (NodeId, u64),
    /// The predecessor's predecessor: the replicated primary range is
    /// `(predecessor2, predecessor]`.
    pub(crate) predecessor2: (NodeId, u64),
    pub(crate) successor: (NodeId, u64),
    /// The successor's successor: routing fallback when the successor
    /// is suspected dead and is not itself the destination owner.
    pub(crate) successor2: (NodeId, u64),
    /// Deduped fingers, ascending ring distance from `ring_id`.
    pub(crate) fingers: Vec<(NodeId, u64)>,
    pub(crate) store: ChordStore<I>,
    /// Anti-entropy with the predecessor ([`crate::replicate`]).
    pub(crate) repair: ReplicaRepair,
    pub(crate) cfg: ChordConfig,
    pending: FxHashMap<QueryId, Pending<I>>,
    bcast: FxHashMap<QueryId, BcastState<I>>,
    rng: StdRng,
    /// Exact-key reads dispatched via the exact index (`[0]`) vs. the
    /// bucket mirror (`[1]`); drives replica-aware read balancing.
    pub(crate) reads_via: [u64; 2],
    /// Failure detector of the ping rounds: `next_hop` routes around the
    /// peers it suspects until they are heard from again.
    pub(crate) liveness: Suspicion,
    /// Held ops (hinted handoff), oldest first, with their payloads.
    pub(crate) hints: Vec<(ChordBatchOp, Option<I>)>,
    /// Replays started, for their query ids.
    replays: u64,
    /// The peers that route through this node, learned from their pings:
    /// ascending, at most [`WATCHERS_MAX`], kept across a crash.
    pub(crate) watchers: Vec<NodeId>,
    /// Per predecessor (`predecessor`, `predecessor2`): how many
    /// watchers its last shipment carried, and how many it acknowledged.
    watchers_shipped: [(usize, usize); 2],
    /// The watchers `successor` (`[0]`) and `successor2` (`[1]`)
    /// shipped here: who hears from this node when it finds one down.
    pub(crate) ring_watchers: [Vec<NodeId>; 2],
    /// Rounds run since the node was created: picks each round's finger.
    rounds: usize,
}

impl<I: Item> ChordNode<I> {
    /// Creates a node; topology (successor/fingers) is wired by the
    /// cluster builder.
    pub fn new(id: NodeId, ring_id: u64, cfg: ChordConfig, seed: u64) -> Self {
        ChordNode {
            id,
            ring_id,
            predecessor: (id, ring_id), // patched by the builder
            predecessor2: (id, ring_id),
            successor: (id, ring_id),
            successor2: (id, ring_id),
            fingers: Vec::new(),
            store: ChordStore::new(),
            repair: ReplicaRepair::default(),
            cfg,
            pending: FxHashMap::default(),
            bcast: FxHashMap::default(),
            rng: derive_rng(seed, stream::NODE_BASE + id.0 as u64),
            reads_via: [0, 0],
            liveness: Suspicion::default(),
            hints: Vec::new(),
            replays: 0,
            watchers: Vec::new(),
            watchers_shipped: [(0, 0); 2],
            ring_watchers: [Vec::new(), Vec::new()],
            rounds: 0,
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// This node's ring position.
    pub fn ring_id(&self) -> u64 {
        self.ring_id
    }

    /// Local store (driver-side preloading and inspection).
    pub fn store_mut(&mut self) -> &mut ChordStore<I> {
        &mut self.store
    }

    /// Local store, read-only.
    pub fn store(&self) -> &ChordStore<I> {
        &self.store
    }

    /// Whether this node suspects `peer` is down: routing detours
    /// around it until it is heard from.
    pub fn suspects(&self, peer: NodeId) -> bool {
        self.liveness.is_suspected(peer)
    }

    /// The peers that route through this node, as their pings taught
    /// it, ascending.
    pub fn watchers(&self) -> &[NodeId] {
        &self.watchers
    }

    /// Wires the topology (cluster builder only).
    pub fn set_topology(&mut self, w: RingWiring) {
        self.predecessor = w.predecessor;
        self.predecessor2 = w.predecessor2;
        self.successor = w.successor;
        self.successor2 = w.successor2;
        self.fingers = w.fingers;
    }

    /// `successor` and `successor2`: the peers this node detects.
    fn successors(&self) -> [NodeId; 2] {
        [self.successor.0, self.successor2.0]
    }

    /// `predecessor` and `predecessor2`: the peers that detect this node.
    fn predecessors(&self) -> [NodeId; 2] {
        [self.predecessor.0, self.predecessor2.0]
    }

    /// True if this node owns ring position `k` (`k ∈ (pred, self]`).
    pub(crate) fn responsible(&self, k: u64) -> bool {
        owns(self.predecessor.1, self.ring_id, k)
    }

    /// True if this node answers reads of ring position `k` from its
    /// own store: it owns `k`, or, under replication, keeps the copy of
    /// its predecessor's range that `k` lies in.
    pub(crate) fn serves(&self, k: u64) -> bool {
        self.responsible(k) || (self.cfg.replicate && self.replicates(k))
    }

    /// Next hop for ring position `k`: the successor if `k` lands in
    /// `(self, succ]`, otherwise the closest preceding finger that is
    /// neither suspected dead nor `avoid` (an earlier attempt's first
    /// hop). A key the successor owns has no detour but one: under
    /// replication a suspected successor's keys go to `successor2`,
    /// which replicates them. Otherwise the message goes to the owner
    /// anyway, and a read fails fast instead (see `route_read`).
    pub(crate) fn next_hop(&self, k: u64, avoid: Option<NodeId>) -> NodeId {
        if in_open_closed(self.ring_id, self.successor.1, k) {
            let masked = self.cfg.replicate
                && self.successor2.0 != self.id
                && self.liveness.is_suspected(self.successor.0);
            return if masked { self.successor2.0 } else { self.successor.0 };
        }
        let shunned = |node: NodeId| Some(node) == avoid || self.liveness.is_suspected(node);
        for &(node, ring) in self.fingers.iter().rev() {
            if in_open_open(self.ring_id, k, ring) && !shunned(node) {
                return node;
            }
        }
        // The successor is the hop of last resort; when it is shunned
        // (and, since `k` is past it, not the owner) skip one node
        // ahead. `successor2` never overshoots: the owner is the first
        // ring member at or past `k`, which is `successor2` or later.
        if shunned(self.successor.0) && self.successor2.0 != self.id {
            return self.successor2.0;
        }
        self.successor.0
    }

    /// Registers a pending operation of `parts` parts and arms its
    /// timeout.
    fn register(&mut self, fx: &mut Fx<I>, qid: QueryId, parts: usize, op: Op<I>) {
        self.pending.insert(qid, Pending { tracker: PartTracker::new(parts), op });
        self.arm(qid, fx);
    }

    /// Registers an operation of `parts` parts at its origin and sends
    /// them all.
    pub(crate) fn start(&mut self, fx: &mut Fx<I>, qid: QueryId, parts: usize, op: Op<I>) {
        self.register(fx, qid, parts, op);
        let all: Vec<(usize, Option<NodeId>)> = (0..parts).map(|i| (i, None)).collect();
        self.issue(qid, &all, fx);
    }

    fn arm(&self, qid: QueryId, fx: &mut Fx<I>) {
        fx.set_timer(self.cfg.query_timeout, Timer::new(timer::QUERY_TIMEOUT, qid));
    }

    /// One probe round: ping `successor`, `successor2` and the next
    /// other finger round-robin (every finger when `full`), and arm the
    /// round's deadline ([`timer::PING_DEADLINE`]).
    fn run_ping_round(&mut self, full: bool, fx: &mut Fx<I>) {
        self.liveness.start_round();
        let ring = self.successors();
        let others = self.fingers.iter().map(|&(node, _)| node).filter(|node| !ring.contains(node));
        let mut targets: Vec<NodeId> = ring.to_vec();
        match full {
            true => targets.extend(others),
            false => {
                let turn = self.rounds % others.clone().count().max(1);
                targets.extend(others.skip(turn).take(1));
            }
        }
        self.rounds += 1;
        targets.sort_unstable();
        targets.dedup();
        targets.retain(|&node| node != self.id);
        for &node in &targets {
            self.liveness.probe(node);
            fx.send(node, ChordMsg::Ping);
        }
        if !targets.is_empty() {
            fx.set_timer(DEADLINE, Timer::new(timer::PING_DEADLINE, 0));
        }
    }

    /// The round's deadline passed. A successor that just turned
    /// suspect is pinged once more and confirmed one [`DEADLINE`] later
    /// ([`timer::CONFIRM`]); so is `successor2` when both are suspected
    /// and one of them just turned. A suspect named again because it was
    /// re-probed is not news.
    fn expire_round(&mut self, fx: &mut Fx<I>) {
        let ring = self.successors();
        let was = ring.map(|node| self.liveness.is_suspected(node));
        let named = self.liveness.expire();
        let fresh = |i: usize| !was[i] && named.binary_search(&ring[i]).is_ok();
        let both = ring.iter().all(|&node| self.liveness.is_suspected(node));
        let confirm = [fresh(0), both && (fresh(0) || fresh(1)) && ring[1] != ring[0]];
        for (node, _) in ring.into_iter().zip(confirm).filter(|&(node, go)| go && node != self.id) {
            fx.send(node, ChordMsg::Ping);
            fx.set_timer(DEADLINE, Timer::new(timer::CONFIRM, node.0 as u64));
        }
    }

    /// A confirmation deadline passed: if `node` is still silent, tell
    /// its watchers and `node` itself that it is down.
    fn confirm_down(&mut self, node: NodeId, fx: &mut Fx<I>) {
        if !self.liveness.is_suspected(node) {
            return;
        }
        let Some(slot) = self.successors().iter().position(|&s| s == node) else { return };
        for &watcher in &self.ring_watchers[slot] {
            if watcher != self.id {
                fx.send(watcher, ChordMsg::Down { node });
            }
        }
        fx.send(node, ChordMsg::Down { node });
    }

    /// A ping from `from`: it routes through this node, so it hears of
    /// this node's revival and of a refuted report.
    fn watch(&mut self, from: NodeId) {
        if let Err(at) = self.watchers.binary_search(&from) {
            if self.watchers.len() < WATCHERS_MAX {
                self.watchers.insert(at, from);
            }
        }
    }

    /// Sends the watcher set to each predecessor that has not
    /// acknowledged all of it: once the set has grown, and again every
    /// round until a [`ChordMsg::Pong`] from that predecessor acks it (a
    /// lost shipment, or one to a predecessor that was down, would
    /// leave this node's crash untold for good).
    fn ship_watchers(&mut self, fx: &mut Fx<I>) {
        let preds = self.predecessors();
        for (i, &to) in preds.iter().enumerate() {
            let acked = self.watchers_shipped[i].1;
            if self.watchers.len() > acked && to != self.id && !preds[..i].contains(&to) {
                self.watchers_shipped[i].0 = self.watchers.len();
                fx.send(to, ChordMsg::Watchers { watchers: self.watchers.clone() });
            }
        }
    }

    /// A pong from a predecessor acks the watchers last shipped to it.
    fn watchers_acked(&mut self, from: NodeId) {
        let preds = self.predecessors();
        for (shipped, _) in self.watchers_shipped.iter_mut().zip(preds).filter(|&(_, p)| p == from)
        {
            shipped.1 = shipped.0;
        }
    }

    /// Files and acks a watcher set `from` shipped, if `from` is a
    /// successor; a set naming its sender is malformed and dropped.
    fn handle_watchers(&mut self, from: NodeId, watchers: Vec<NodeId>, fx: &mut Fx<I>) {
        let ring = self.successors();
        if watchers.binary_search(&from).is_ok() || !ring.contains(&from) {
            return;
        }
        for (slot, _) in ring.iter().enumerate().filter(|&(_, &succ)| succ == from) {
            self.ring_watchers[slot] = watchers.clone();
        }
        fx.send(from, ChordMsg::Pong);
    }

    /// Tells every watcher that this node lives.
    fn announce(&self, fx: &mut Fx<I>) {
        for &watcher in &self.watchers {
            fx.send(watcher, ChordMsg::Pong);
        }
    }

    /// Routes a read one step toward ring position `ring_key` — an exact
    /// lookup, or a bucket read of `range` — passing over `avoid`; the
    /// owner, or under replication its successor's copy, answers the
    /// origin, naming `part`. The origin notes the hop the read leaves
    /// through, for a retry to go around.
    #[allow(clippy::too_many_arguments)]
    fn route_read(
        &mut self,
        qid: QueryId,
        part: Option<u32>,
        ring_key: u64,
        origin: NodeId,
        hops: u32,
        range: Option<(Key, Key)>,
        filter: Option<ItemFilter>,
        avoid: Option<NodeId>,
        fx: &mut Fx<I>,
    ) {
        if self.serves(ring_key) {
            // Semi-join pushdown: drop non-matching items at the data,
            // before they are ever cloned out of the store.
            let items = match range {
                None => self.store.lookup(ring_key, &filter),
                Some((lo, hi)) => self.store.scan_bucket(ring_key, lo, hi, &filter),
            };
            return self.answer_read(qid, part, origin, items, hops, true, fx);
        }
        let next = self.next_hop(ring_key, avoid);
        // The successor owns the key and the hop `next_hop` chose for it
        // is suspected too: the owner without a replica, or the owner
        // and `successor2` both. No detour can reach the data, so fail
        // fast instead of waiting out the op timeout.
        if self.liveness.is_suspected(next)
            && in_open_closed(self.ring_id, self.successor.1, ring_key)
        {
            return self.answer_read(qid, part, origin, Vec::new(), hops, false, fx);
        }
        if let Some(p) = self.pending.get_mut(&qid).filter(|_| origin == self.id) {
            p.tracker.left_through(part.unwrap_or(0) as usize, Some(next));
        }
        let hops = hops + 1;
        let msg = match range {
            None => ChordMsg::Lookup { qid, ring_key, origin, hops, filter },
            Some((lo, hi)) => {
                ChordMsg::BucketGet { qid, part, ring_key, lo, hi, origin, hops, filter }
            }
        };
        fx.send(next, msg);
    }

    #[allow(clippy::too_many_arguments)]
    fn answer_read(
        &mut self,
        qid: QueryId,
        part: Option<u32>,
        origin: NodeId,
        items: Vec<I>,
        hops: u32,
        ok: bool,
        fx: &mut Fx<I>,
    ) {
        if origin == self.id {
            self.handle_lookup_reply(qid, part, items, hops, ok, fx);
        } else {
            fx.send(origin, ChordMsg::LookupReply { qid, part, items, hops, ok });
        }
    }

    /// Folds a read's answer at the origin. A lookup completes with it,
    /// an explicit failure included: an owner suspected with no trusted
    /// replica behind it is terminal for this op, and the query layer
    /// decides whether to retry. A bucket scan marks the bucket the
    /// reply names, once.
    fn handle_lookup_reply(
        &mut self,
        qid: QueryId,
        part: Option<u32>,
        mut reply_items: Vec<I>,
        reply_hops: u32,
        ok: bool,
        fx: &mut Fx<I>,
    ) {
        let part = part.unwrap_or(0);
        match self.pending.get_mut(&qid) {
            Some(Pending { op: Op::Lookup { .. }, .. }) => {
                self.pending.remove(&qid);
                fx.emit(OverlayDone::Lookup { qid, items: reply_items, hops: reply_hops, ok });
            }
            Some(Pending { tracker, op: Op::Buckets { items, failed, .. } })
                if !tracker.is_answered(part as usize) =>
            {
                items.append(&mut reply_items);
                *failed |= !ok;
                if tracker.ack(&[part], reply_hops) {
                    self.finish(qid, true, fx);
                }
            }
            _ => {}
        }
    }

    /// Handles a routed batch of writes arriving on the wire; the
    /// origin additionally registers the pending state that accumulates
    /// the positional acks (and feeds retransmits on timeout).
    #[allow(clippy::too_many_arguments)]
    fn handle_op_batch(
        &mut self,
        from: NodeId,
        qid: QueryId,
        origin: NodeId,
        hops: u32,
        attempt: u32,
        items: Vec<I>,
        ops: Vec<ChordBatchOp>,
        fx: &mut Fx<I>,
    ) {
        if from == NodeId::EXTERNAL && origin == self.id {
            self.register(fx, qid, ops.len(), Op::Batch { items: items.clone(), ops: ops.clone() });
        }
        self.route_batch(qid, origin, hops, attempt, items, ops, fx);
    }

    /// Routes a (sub-)batch one step: applies the ops this node is
    /// responsible for (both indexes live in one ring, so a sub-batch
    /// may mix exact- and bucket-index ops) and the handed-off copies
    /// of its predecessor's, holds the ops no trusted node of their
    /// owner's side can take, re-groups the remainder by next hop, acks
    /// the applied and held ops' positions to the origin in one
    /// aggregated [`ChordMsg::BatchAck`], and pushes what it applied as
    /// owner to the successor in one [`ChordMsg::Replicate`].
    #[allow(clippy::too_many_arguments)]
    fn route_batch(
        &mut self,
        qid: QueryId,
        origin: NodeId,
        hops: u32,
        attempt: u32,
        items: Vec<I>,
        ops: Vec<ChordBatchOp>,
        fx: &mut Fx<I>,
    ) {
        let mut applied: Vec<u32> = Vec::new();
        let (mut pushes, mut handbacks): (Vec<Record<RecordKey, I>>, _) = (Vec::new(), Vec::new());
        let mut groups = HopGroups::new();
        // An op of the predecessor's range reaches this node from
        // another only as a handoff: routing takes it to the predecessor
        // otherwise. This node's own first attempt to a trusted
        // predecessor routes like any other op.
        let handoff = hops > 0 || attempt > 0 || self.liveness.is_suspected(self.predecessor.0);
        for (i, op) in ops.iter().enumerate() {
            // The ring position is derived, not shipped: op tags cross
            // every edge of their route, so they carry only the original
            // key plus an index flag.
            let ring_key = match op.bucket {
                true => ring_key_bucket(op.op.key, self.cfg.bucket_depth),
                false => ring_key_exact(op.op.key),
            };
            let item = || items.get(op.op.item()? as usize).cloned();
            if self.responsible(ring_key) {
                match (op.op.verb, item()) {
                    (BatchVerb::Insert { .. }, Some(item)) => {
                        self.apply_insert(ring_key, op.op.key, item, op.op.version, &mut pushes)
                    }
                    (BatchVerb::Delete { ident }, _) => {
                        self.apply_delete(ring_key, op.op.key, ident, op.op.version, &mut pushes)
                    }
                    // An insert without its payload: decoding rules it out.
                    (BatchVerb::Insert { .. }, None) => continue,
                }
                applied.push(op.idx);
            } else if self.cfg.replicate && self.replicates(ring_key) && handoff {
                self.apply_copy(ring_key, op.op, item(), &mut handbacks);
                applied.push(op.idx);
            } else {
                match self.route_op(ring_key, attempt) {
                    Some(next) => push_hop(&mut groups, next, i),
                    None if self.hints.len() < HINT_MAX => {
                        self.hints.push((*op, item()));
                        applied.push(op.idx);
                    }
                    None => push_hop(&mut groups, self.successor.0, i),
                }
            }
        }
        self.push_records(self.successor.0, pushes, fx);
        let owner = self.predecessor.0;
        if !self.liveness.is_suspected(owner) {
            self.push_records(owner, handbacks, fx);
        }
        for (next, idxs) in groups {
            let (sub_items, sub_ops) = subset_batch(&items, &ops, &idxs);
            fx.send(
                next,
                ChordMsg::OpBatch {
                    qid,
                    origin,
                    hops: hops + 1,
                    attempt,
                    items: sub_items,
                    ops: sub_ops,
                },
            );
        }
        if !applied.is_empty() {
            if origin == self.id {
                self.handle_batch_ack(qid, applied, hops, fx);
            } else {
                fx.send(origin, ChordMsg::BatchAck { qid, applied, hops });
            }
        }
    }

    /// Whether ring position `k` lies in the predecessor's range
    /// `(predecessor2, predecessor]`, which this node replicates.
    fn replicates(&self, k: u64) -> bool {
        self.predecessor.0 != self.id && in_open_closed(self.predecessor2.1, self.predecessor.1, k)
    }

    /// Where a routed op for ring position `k` goes next; `None` holds
    /// it here.
    ///
    /// An op takes `next_hop`'s finger, a retransmission the next one
    /// around it. When the successor owns `k`, the op goes to it or to
    /// `successor2`, which replicates the successor's range: a first
    /// attempt tries the owner first, a retransmission `successor2`,
    /// and a suspect is skipped; with both suspected the op is held.
    /// Without replication there is no handoff and no hold.
    fn route_op(&self, k: u64, attempt: u32) -> Option<NodeId> {
        let (succ, succ2) = (self.successor.0, self.successor2.0);
        if !in_open_closed(self.ring_id, self.successor.1, k) {
            let first = self.next_hop(k, None);
            let next = match attempt {
                0 => first,
                _ => self.next_hop(k, Some(first)),
            };
            let stuck = self.cfg.replicate && self.liveness.is_suspected(next);
            return (!stuck).then_some(next);
        }
        if !self.cfg.replicate {
            return Some(succ);
        }
        let order = if attempt == 0 { [succ, succ2] } else { [succ2, succ] };
        order.into_iter().find(|&node| node != self.id && !self.liveness.is_suspected(node))
    }

    /// Replays the hint table as an internal batch from this node, one
    /// replay at a time: the held ops route as first attempts, so each
    /// goes to its owner when the owner is trusted again.
    fn replay_hints(&mut self, fx: &mut Fx<I>) {
        if self.hints.is_empty() || self.pending.keys().any(|&qid| qid >= REPLAY_QID) {
            return;
        }
        let mut items = Vec::new();
        let ops: Vec<ChordBatchOp> = (0u32..)
            .zip(&self.hints)
            .map(|(idx, (op, item))| {
                let mut op = ChordBatchOp { idx, ..*op };
                if let Some(item) = item {
                    op.op.rebind(items.len() as u32);
                    items.push(item.clone());
                }
                op
            })
            .collect();
        self.replays += 1;
        let qid = REPLAY_QID + self.replays;
        let held = ops.len();
        self.register(fx, qid, held, Op::Replay { held });
        self.route_batch(qid, self.id, 0, 0, items, ops, fx);
    }

    /// Folds a positional batch ack; completes the batch when every op
    /// is marked. Duplicate and late acks (e.g. from before a
    /// retransmission) re-mark already-marked ops, so they can only
    /// help; positions outside the batch are ignored.
    fn handle_batch_ack(&mut self, qid: QueryId, applied: Vec<u32>, ack_hops: u32, fx: &mut Fx<I>) {
        let Some(Pending { tracker, op: Op::Batch { .. } | Op::Replay { .. } }) =
            self.pending.get_mut(&qid)
        else {
            return;
        };
        if tracker.ack(&applied, ack_hops) {
            self.finish(qid, true, fx);
        }
    }

    /// Places an entry directly into the local store under every index
    /// position this node owns or, under replication, replicates
    /// (driver-side preloading).
    pub fn preload(&mut self, key: Key, item: I, version: u64) {
        let rk = ring_key_exact(key);
        if self.serves(rk) {
            self.store.insert(rk, key, item.clone(), version);
        }
        let bk = ring_key_bucket(key, self.cfg.bucket_depth);
        if self.serves(bk) {
            self.store.insert(bk, key, item, version);
        }
    }

    /// Origin-side bucket fan-out — a range scan over original keys
    /// `[lo, hi]` through the auxiliary bucket index: one
    /// [`ChordMsg::BucketGet`] per bucket intersecting the range, each a
    /// part of the scan.
    pub(crate) fn handle_bucket_range(
        &mut self,
        qid: QueryId,
        lo: Key,
        hi: Key,
        filter: Option<ItemFilter>,
        fx: &mut Fx<I>,
    ) {
        let (b_lo, b_hi) = self.buckets(lo, hi);
        let scan = Op::Buckets { lo, hi, filter, items: Vec::new(), failed: false };
        self.start(fx, qid, (b_hi - b_lo + 1) as usize, scan);
    }

    /// The first and last bucket `[lo, hi]` intersects.
    fn buckets(&self, lo: Key, hi: Key) -> (u64, u64) {
        let shift = 64 - self.cfg.bucket_depth as u32;
        (lo >> shift, hi >> shift)
    }

    /// Sends `parts` of the pending operation `qid`. A read goes around
    /// the first hop its part's latest attempt left through; a bucket
    /// read names its bucket when the scan has more than one. A batch's
    /// ops carry the attempt number, which routes each around its
    /// first-choice finger at every hop and hands it off to its owner's
    /// successor ([`Self::route_op`]). A replay is never re-sent.
    fn issue(&mut self, qid: QueryId, parts: &[(usize, Option<NodeId>)], fx: &mut Fx<I>) {
        let Some(Pending { tracker, op }) = self.pending.get(&qid) else { return };
        match op {
            Op::Lookup { ring_key, range, filter } => {
                let (ring_key, range, filter) = (*ring_key, *range, filter.clone());
                let avoid = parts.first().and_then(|&(_, hop)| hop);
                self.route_read(qid, None, ring_key, self.id, 0, range, filter, avoid, fx);
            }
            Op::Buckets { lo, hi, filter, .. } => {
                let (range, filter) = (Some((*lo, *hi)), filter.clone());
                let (b_lo, b_hi) = self.buckets(*lo, *hi);
                for &(i, avoid) in parts {
                    let ring_key = mix64((b_lo + i as u64) ^ BUCKET_SALT);
                    let part = (b_hi > b_lo).then_some(i as u32);
                    let (me, filter) = (self.id, filter.clone());
                    self.route_read(qid, part, ring_key, me, 0, range, filter, avoid, fx);
                }
            }
            Op::Batch { items, ops } => {
                let idxs: Vec<usize> = parts.iter().map(|&(i, _)| i).collect();
                let (sub_items, sub_ops) = subset_batch(items, ops, &idxs);
                let attempt = tracker.attempts();
                self.route_batch(qid, self.id, 0, attempt, sub_items, sub_ops, fx);
            }
            Op::Replay { .. } => {}
        }
    }

    /// Retires the pending operation `qid` and reports what was
    /// answered: `done` when every part was. A lookup reports a
    /// failure here (one that is answered reports its reply instead, in
    /// [`Self::handle_lookup_reply`]); a replay retires the hints that
    /// were acked, and the rest stay for the next tick, ahead of the
    /// ones held since.
    fn finish(&mut self, qid: QueryId, done: bool, fx: &mut Fx<I>) {
        let Some(Pending { tracker, op }) = self.pending.remove(&qid) else { return };
        let (answered, hops) = (tracker.answered(), tracker.hops());
        fx.emit(match op {
            Op::Lookup { .. } => OverlayDone::Lookup { qid, items: Vec::new(), hops: 0, ok: false },
            Op::Buckets { items, failed, .. } => {
                OverlayDone::Range { qid, items, hops, complete: done && !failed, parts: answered }
            }
            Op::Batch { .. } => OverlayDone::Batch { qid, ops: answered, hops, ok: done },
            Op::Replay { held } => {
                let mut i = 0;
                self.hints.retain(|_| {
                    i += 1;
                    i > held || !tracker.is_answered(i - 1)
                });
                return;
            }
        });
    }

    /// Broadcast branch (the index-free range scan plain Chord must
    /// use): answer locally, split `(self, limit)` among the fingers
    /// inside it, convergecast replies. `from == EXTERNAL` with `limit ==
    /// ring_id` starts one at the origin.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn handle_bcast(
        &mut self,
        from: NodeId,
        qid: QueryId,
        lo: Key,
        hi: Key,
        limit: u64,
        hops: u32,
        filter: Option<ItemFilter>,
        fx: &mut Fx<I>,
    ) {
        let parent = if from == NodeId::EXTERNAL { None } else { Some(from) };
        // Replica copies answer no queries: a broadcast visits every
        // node, so serving only records this node is primary for keeps
        // results duplicate-free under successor replication.
        let (pred, me) = (self.predecessor.1, self.ring_id);
        let local = self.store.scan_by_key_where(lo, hi, &filter, |rk| owns(pred, me, rk));
        // Children: fingers strictly inside (self, limit), each getting
        // the sub-interval up to the next finger (or the limit). At the
        // origin `limit == self.ring_id`, which means the full circle.
        let full_circle = limit == self.ring_id;
        let inside: Vec<(NodeId, u64)> = self
            .fingers
            .iter()
            .copied()
            .filter(|&(_, ring)| {
                if full_circle {
                    ring != self.ring_id
                } else {
                    in_open_open(self.ring_id, limit, ring)
                }
            })
            .collect();
        let expected = inside.len() as u32;
        self.bcast.insert(
            qid,
            BcastState { parent, expected, received: 0, items: local, nodes: 1, hops },
        );
        for (i, &(node, _)) in inside.iter().enumerate() {
            let child_limit = if i + 1 < inside.len() { inside[i + 1].1 } else { limit };
            fx.send(
                node,
                ChordMsg::Bcast {
                    qid,
                    lo,
                    hi,
                    limit: child_limit,
                    hops: hops + 1,
                    filter: filter.clone(),
                },
            );
        }
        if expected == 0 {
            self.finish_bcast(qid, fx);
        }
        if parent.is_none() {
            // Origin: arm the completion timeout.
            self.arm(qid, fx);
        }
    }

    fn handle_bcast_reply(
        &mut self,
        qid: QueryId,
        items: Vec<I>,
        nodes: u32,
        hops: u32,
        fx: &mut Fx<I>,
    ) {
        let Some(st) = self.bcast.get_mut(&qid) else { return };
        st.received += 1;
        st.items.extend(items);
        st.nodes += nodes;
        st.hops = st.hops.max(hops);
        if st.received >= st.expected {
            self.finish_bcast(qid, fx);
        }
    }

    fn finish_bcast(&mut self, qid: QueryId, fx: &mut Fx<I>) {
        let Some(st) = self.bcast.remove(&qid) else { return };
        match st.parent {
            Some(parent) => fx.send(
                parent,
                ChordMsg::BcastReply { qid, items: st.items, nodes: st.nodes, hops: st.hops },
            ),
            None => fx.emit(OverlayDone::Range {
                qid,
                items: st.items,
                hops: st.hops,
                complete: true,
                parts: st.nodes,
            }),
        }
    }

    /// The one timeout rule: re-issue only the unanswered parts until
    /// the retries are spent, then report what was answered. A replay
    /// is never re-sent: the next tick replays what it did not land.
    fn handle_timeout(&mut self, qid: QueryId, fx: &mut Fx<I>) {
        if let Some(p) = self.pending.get_mut(&qid) {
            let retries = match p.op {
                Op::Replay { .. } => 0,
                _ => self.cfg.op_retries,
            };
            match p.tracker.retry(retries) {
                Some(parts) => {
                    self.arm(qid, fx);
                    self.issue(qid, &parts, fx);
                }
                None => self.finish(qid, false, fx),
            }
            return;
        }
        // An origin-side broadcast that never completed.
        if let Some(st) = self.bcast.remove(&qid) {
            if st.parent.is_none() {
                fx.emit(OverlayDone::Range {
                    qid,
                    items: st.items,
                    hops: st.hops,
                    complete: false,
                    parts: st.nodes,
                });
            }
        }
    }
}

/// Whether the node at ring position `me` with predecessor `pred` owns
/// ring position `k` (`k ∈ (pred, me]`; a singleton ring owns all).
fn owns(pred: u64, me: u64, k: u64) -> bool {
    pred == me || in_open_closed(pred, me, k)
}

/// Sub-batch of the ops at `indices`, with the payload table re-indexed
/// so only referenced items are carried — the per-hop re-grouping step,
/// shared with P-Grid through [`unistore_util::wire::subset_shared`].
fn subset_batch<I: Clone>(
    items: &[I],
    ops: &[ChordBatchOp],
    indices: &[usize],
) -> (Vec<I>, Vec<ChordBatchOp>) {
    unistore_util::wire::subset_shared(
        items,
        ops,
        indices,
        |op| op.op.item(),
        |op, item| op.op.rebind(item),
    )
}

impl<I: Item> NodeBehavior for ChordNode<I> {
    type Msg = ChordMsg<I>;
    type Out = OverlayDone<I>;

    fn on_start(&mut self, _now: SimTime, fx: &mut Fx<I>) {
        // Also runs on revival: a crash cancelled every pending timer, so
        // the chains start over here.
        let cfg = &self.cfg;
        if cfg.replicate {
            let tick = Timer::new(timer::ANTI_ENTROPY, 0);
            fx.set_periodic(&mut self.rng, cfg.anti_entropy_interval, tick);
        }
        // A replay in flight lost its timeout with the crash; its hints
        // are still in the table, and the next tick replays them.
        self.pending.retain(|&qid, _| qid < REPLAY_QID);
        if cfg.ping_interval > SimTime::from_micros(0) {
            let interval = cfg.ping_interval;
            // A revived node's suspicions are as stale as its absence
            // was long: start trusting, tell the peers that route
            // through it that it is back (a first start knows none), and
            // re-learn at once with a round over every finger.
            self.liveness.reset();
            self.announce(fx);
            self.run_ping_round(true, fx);
            fx.set_periodic(&mut self.rng, interval, Timer::new(timer::PING, 0));
        }
    }

    fn on_message(&mut self, _now: SimTime, from: NodeId, msg: ChordMsg<I>, fx: &mut Fx<I>) {
        // Any traffic from a peer proves it lives.
        self.liveness.heard(from);
        match msg {
            ChordMsg::Lookup { qid, ring_key, origin, hops, filter } => {
                if from == NodeId::EXTERNAL && origin == self.id {
                    self.start(fx, qid, 1, Op::Lookup { ring_key, range: None, filter });
                } else {
                    self.route_read(qid, None, ring_key, origin, hops, None, filter, None, fx);
                }
            }
            ChordMsg::LookupReply { qid, part, items, hops, ok } => {
                self.handle_lookup_reply(qid, part, items, hops, ok, fx)
            }
            ChordMsg::OpBatch { qid, origin, hops, attempt, items, ops } => {
                self.handle_op_batch(from, qid, origin, hops, attempt, items, ops, fx)
            }
            ChordMsg::BatchAck { qid, applied, hops } => {
                self.handle_batch_ack(qid, applied, hops, fx)
            }
            ChordMsg::BucketRange { qid, lo, hi, .. } => {
                self.handle_bucket_range(qid, lo, hi, None, fx)
            }
            ChordMsg::BucketGet { qid, part, ring_key, lo, hi, origin, hops, filter } => {
                let range = Some((lo, hi));
                self.route_read(qid, part, ring_key, origin, hops, range, filter, None, fx);
            }
            ChordMsg::Bcast { qid, lo, hi, limit, hops, filter } => {
                self.handle_bcast(from, qid, lo, hi, limit, hops, filter, fx)
            }
            ChordMsg::BcastReply { qid, items, nodes, hops } => {
                self.handle_bcast_reply(qid, items, nodes, hops, fx)
            }
            ChordMsg::Replicate { entries } => self.handle_replicate(entries),
            ChordMsg::Repair(msg) => self.handle_repair(from, msg, fx),
            ChordMsg::Ping => {
                self.watch(from);
                fx.send(from, ChordMsg::Pong);
            }
            ChordMsg::Pong => self.watchers_acked(from),
            // Reported down while alive: refute to everyone who may
            // have heard it.
            ChordMsg::Down { node } if node == self.id => self.announce(fx),
            ChordMsg::Down { node } => self.liveness.suspect(node),
            ChordMsg::Watchers { watchers } => self.handle_watchers(from, watchers, fx),
        }
    }

    fn on_timer(&mut self, _now: SimTime, t: Timer, fx: &mut Fx<I>) {
        match t.kind {
            timer::QUERY_TIMEOUT => self.handle_timeout(t.payload, fx),
            timer::ANTI_ENTROPY => {
                self.run_anti_entropy(fx);
                fx.set_periodic(&mut self.rng, self.cfg.anti_entropy_interval, t);
            }
            timer::PING => {
                self.replay_hints(fx);
                self.run_ping_round(false, fx);
                fx.set_periodic(&mut self.rng, self.cfg.ping_interval, t);
            }
            // Suspects keep their finger slots: `next_hop` detours.
            // By a round's deadline the pings of this node's first round
            // have long arrived, so its first shipment follows two
            // seconds after it starts.
            timer::PING_DEADLINE => {
                self.expire_round(fx);
                self.ship_watchers(fx);
            }
            timer::CONFIRM => self.confirm_down(NodeId(t.payload as u32), fx),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unistore_util::item::RawItem;

    /// Node 0 at ring position 0, its successors at 10 and 20, fingers
    /// at 10, 20, 40 and 80 (node `i` sits at `10 · i`).
    fn node() -> ChordNode<RawItem> {
        let mut n = ChordNode::new(NodeId(0), 0, ChordConfig::default(), 1);
        let at = |i: u32| (NodeId(i), 10 * i as u64);
        n.set_topology(RingWiring {
            predecessor: at(9),
            predecessor2: at(8),
            successor: at(1),
            successor2: at(2),
            fingers: vec![at(1), at(2), at(4), at(8)],
        });
        n
    }

    #[test]
    fn next_hop_skips_the_avoided_finger_but_not_the_owning_successor() {
        let n = node();
        assert_eq!(n.next_hop(100, None), NodeId(8), "the closest preceding finger");
        assert_eq!(n.next_hop(100, Some(NodeId(8))), NodeId(4), "the next one around it");
        assert_eq!(n.next_hop(100, Some(NodeId(4))), NodeId(8), "another finger is not skipped");
        // k ∈ (self, succ]: the successor owns k, so there is no way around it.
        assert_eq!(n.next_hop(5, Some(NodeId(1))), NodeId(1));
        assert_eq!(n.next_hop(10, Some(NodeId(1))), NodeId(1));
        // Past the successor with no other finger preceding k, an avoided
        // successor is skipped like a suspected one: `successor2` owns k.
        assert_eq!(n.next_hop(15, None), NodeId(1));
        assert_eq!(n.next_hop(15, Some(NodeId(1))), NodeId(2));
    }

    /// Node 0 at ring position 0 owning `(15 · 2^60, 0]`, node `i` at
    /// `i · 2^60`: successors 1 and 2, fingers 1, 2, 4 and 8.
    fn spread() -> ChordNode<RawItem> {
        let mut n = ChordNode::new(NodeId(0), 0, ChordConfig::default(), 1);
        let at = |i: u32| (NodeId(i), (i as u64) << 60);
        n.set_topology(RingWiring {
            predecessor: at(15),
            predecessor2: at(14),
            successor: at(1),
            successor2: at(2),
            fingers: vec![at(1), at(2), at(4), at(8)],
        });
        n
    }

    fn fire(n: &mut ChordNode<RawItem>, qid: QueryId) -> Fx<RawItem> {
        let mut fx = Fx::new();
        n.on_timer(SimTime::ZERO, Timer::new(timer::QUERY_TIMEOUT, qid), &mut fx);
        fx
    }

    #[test]
    fn a_timed_out_bucket_scan_resends_only_its_unanswered_buckets() {
        let mut n = spread();
        let shift = 64 - n.cfg.bucket_depth as u32;
        let gets = |fx: &Fx<RawItem>| -> Vec<(u32, NodeId, u64)> {
            let get = |(to, m): &(NodeId, ChordMsg<RawItem>)| match m {
                ChordMsg::BucketGet { part: Some(p), ring_key, .. } => Some((*p, *to, *ring_key)),
                _ => None,
            };
            fx.sends().iter().filter_map(get).collect()
        };
        let mut fx = Fx::new();
        n.handle_bucket_range(7, 0, (6 << shift) - 1, None, &mut fx);
        let first = gets(&fx);
        assert_eq!(first.len(), 6, "six buckets, none owned here: {first:?}");
        let mut fx = Fx::new();
        n.handle_lookup_reply(7, Some(first[0].0), vec![RawItem(1)], 2, true, &mut fx);
        let second = gets(&fire(&mut n, 7));
        assert_eq!(second.iter().map(|s| s.0).collect::<Vec<_>>(), [1, 2, 3, 4, 5]);
        for ((_, to, ring_key), (_, was, _)) in second.iter().zip(&first[1..]) {
            // Only the successor's own keys have no way around it.
            assert!(to != was || *ring_key <= 1 << 60, "around the first hop: {second:?}");
        }
        for (part, ..) in &second {
            n.handle_lookup_reply(7, Some(*part), vec![RawItem(2)], 3, true, &mut fx);
        }
        n.handle_lookup_reply(7, Some(1), vec![RawItem(2)], 9, true, &mut fx);
        match fx.emits() {
            [OverlayDone::Range { items, hops: 3, complete: true, parts: 6, .. }] => {
                assert_eq!(items.len(), 6, "a late answer of an answered bucket is dropped");
            }
            other => panic!("unexpected events {other:?}"),
        }
    }

    #[test]
    fn a_timed_out_lookup_retries_around_its_first_hop_then_fails() {
        let mut n = spread();
        let lookups = |fx: &Fx<RawItem>| -> Vec<NodeId> {
            let lookup = |(to, m): &(NodeId, ChordMsg<RawItem>)| match m {
                ChordMsg::Lookup { qid: 4, .. } => Some(*to),
                _ => None,
            };
            fx.sends().iter().filter_map(lookup).collect()
        };
        let lookup = |ring_key| ChordMsg::Lookup {
            qid: 4,
            ring_key,
            origin: NodeId(0),
            hops: 0,
            filter: None,
        };
        let mut fx = Fx::new();
        n.on_message(SimTime::ZERO, NodeId::EXTERNAL, lookup(12 << 60), &mut fx);
        assert_eq!(lookups(&fx), [NodeId(8)], "the closest preceding finger");
        assert_eq!(lookups(&fire(&mut n, 4)), [NodeId(4)], "around it");
        assert_eq!(lookups(&fire(&mut n, 4)), [NodeId(8)], "around the second first hop");
        match fire(&mut n, 4).emits() {
            [OverlayDone::Lookup { qid: 4, ok: false, .. }] => {}
            other => panic!("op_retries is spent: {other:?}"),
        }
        // A suspected owner fails fast, and that is terminal.
        n.liveness.suspect(NodeId(1));
        let mut fx = Fx::new();
        n.on_message(SimTime::ZERO, NodeId::EXTERNAL, lookup(1 << 59), &mut fx);
        assert!(matches!(fx.emits(), [OverlayDone::Lookup { qid: 4, ok: false, .. }]));
        assert!(fire(&mut n, 4).is_empty(), "nothing left to retry");
    }

    /// `node()` under replication, suspecting `suspects`.
    fn suspecting(suspects: &[u32]) -> ChordNode<RawItem> {
        let mut n = node();
        n.cfg.replicate = true;
        n.liveness.start_round();
        for &i in suspects {
            n.liveness.probe(NodeId(i));
        }
        n.liveness.expire();
        n
    }

    #[test]
    fn the_owner_side_takes_a_retransmission_or_a_suspected_owner_s_op() {
        // k = 5: the successor (node 1) owns it, node 2 replicates it.
        let n = suspecting(&[]);
        assert_eq!(n.route_op(5, 0), Some(NodeId(1)), "a first attempt goes to the owner");
        assert_eq!(n.route_op(5, 1), Some(NodeId(2)), "a retransmission to its successor");
        assert_eq!(suspecting(&[1]).route_op(5, 0), Some(NodeId(2)));
        assert_eq!(suspecting(&[2]).route_op(5, 1), Some(NodeId(1)));
        assert_eq!(suspecting(&[1, 2]).route_op(5, 0), None, "nobody trusted: hold");
        // Past the successor: `next_hop`'s finger, and for a
        // retransmission the one around it.
        assert_eq!(n.route_op(15, 0), Some(NodeId(1)));
        assert_eq!(n.route_op(15, 1), Some(NodeId(2)));
        assert_eq!(suspecting(&[1, 2]).route_op(15, 1), None, "no trusted hop: hold");
        assert_eq!(n.route_op(100, 0), Some(NodeId(8)));
        assert_eq!(n.route_op(100, 1), Some(NodeId(4)));
        assert_eq!(n.route_op(100, 2), Some(NodeId(4)));
        assert_eq!(suspecting(&[8]).route_op(100, 0), Some(NodeId(4)));
        // Without replication there is neither handoff nor hold.
        let mut plain = suspecting(&[1, 2]);
        plain.cfg.replicate = false;
        assert_eq!(plain.route_op(5, 1), Some(NodeId(1)));
    }

    #[test]
    fn a_suspected_successor_s_keys_route_to_successor2_under_replication() {
        // k = 5: the successor (node 1) owns it, node 2 replicates it.
        assert_eq!(suspecting(&[]).next_hop(5, None), NodeId(1), "a trusted owner");
        assert_eq!(suspecting(&[1]).next_hop(5, None), NodeId(2), "the owner's replica");
        assert_eq!(suspecting(&[1]).next_hop(10, Some(NodeId(2))), NodeId(2));
        assert_eq!(suspecting(&[2]).next_hop(5, None), NodeId(1));
        let mut plain = suspecting(&[1]);
        plain.cfg.replicate = false;
        assert_eq!(plain.next_hop(5, None), NodeId(1), "no replica, no detour");
    }

    /// What `n` sends on a read of `ring_key` (exact, or of the bucket
    /// `range`) routed to it by node 5 for origin 7.
    fn read_at(
        n: &mut ChordNode<RawItem>,
        ring_key: u64,
        range: Option<(Key, Key)>,
    ) -> Vec<(NodeId, ChordMsg<RawItem>)> {
        let (qid, origin, hops, filter) = (3, NodeId(7), 1, None);
        let msg = match range {
            None => ChordMsg::Lookup { qid, ring_key, origin, hops, filter },
            Some((lo, hi)) => {
                ChordMsg::BucketGet { qid, part: None, ring_key, lo, hi, origin, hops, filter }
            }
        };
        let mut fx = Fx::new();
        n.on_message(SimTime::ZERO, NodeId(5), msg, &mut fx);
        fx.sends().to_vec()
    }

    #[test]
    fn successor2_answers_its_predecessor_s_reads_from_its_replica() {
        let key: Key = 0x1234_5678_9abc_def0;
        let cfg = ChordConfig { replicate: true, ..ChordConfig::default() };
        let (rk, bk) = (ring_key_exact(key), ring_key_bucket(key, cfg.bucket_depth));
        // Node 2 replicates `(pred2, pred]`, the range of node 1 that
        // holds both of `key`'s index positions.
        let (lo, hi) = (rk.min(bk), rk.max(bk));
        let mut n = ChordNode::new(NodeId(2), hi + 10, cfg, 1);
        n.set_topology(RingWiring {
            predecessor: (NodeId(1), hi),
            predecessor2: (NodeId(0), lo.wrapping_sub(1)),
            successor: (NodeId(3), hi + 20),
            successor2: (NodeId(4), hi + 30),
            fingers: vec![(NodeId(3), hi + 20), (NodeId(4), hi + 30)],
        });
        n.preload(key, RawItem(9), 0);
        assert_eq!(n.store().len(), 2, "the load places the replica of both indexes");
        for (ring_key, range) in [(rk, None), (bk, Some((key, key)))] {
            match &read_at(&mut n, ring_key, range)[..] {
                [(NodeId(7), ChordMsg::LookupReply { qid: 3, items, ok: true, .. })] => {
                    assert_eq!(items, &[RawItem(9)], "answered from the replica");
                }
                other => panic!("not answered here: {other:?}"),
            }
        }
        // Without replication the node keeps no copy and serves nothing.
        n.cfg.replicate = false;
        for (ring_key, range) in [(rk, None), (bk, Some((key, key)))] {
            let sent = read_at(&mut n, ring_key, range);
            assert!(!sent.iter().any(|(to, _)| *to == NodeId(7)), "routed on: {sent:?}");
        }
    }

    #[test]
    fn a_read_fails_fast_only_when_both_successors_are_suspected() {
        // k = 5: the successor (node 1) owns it, node 2 replicates it.
        for (suspects, ring_key, range) in
            [(&[1][..], 5, None), (&[1], 5, Some((0, Key::MAX))), (&[2], 5, None)]
        {
            let sent = read_at(&mut suspecting(suspects), ring_key, range);
            let to: Vec<NodeId> = sent.iter().map(|(to, _)| *to).collect();
            let want = if suspects == [1] { NodeId(2) } else { NodeId(1) };
            assert_eq!(to, [want], "suspecting {suspects:?}: {sent:?}");
        }
        for range in [None, Some((0, Key::MAX))] {
            match &read_at(&mut suspecting(&[1, 2]), 5, range)[..] {
                [(NodeId(7), ChordMsg::LookupReply { ok: false, items, .. })] => {
                    assert!(items.is_empty())
                }
                other => panic!("both suspected fails fast: {other:?}"),
            }
        }
    }

    /// `node()` probing every 5 s.
    fn prober() -> ChordNode<RawItem> {
        let mut n = node();
        n.cfg.ping_interval = SimTime::from_secs(5);
        n
    }

    /// What `n` sends on `ev` (a message from a peer, or a timer), as
    /// `to>message`.
    fn on(n: &mut ChordNode<RawItem>, ev: Result<(u32, ChordMsg<RawItem>), Timer>) -> Vec<String> {
        let mut fx = Fx::new();
        match ev {
            Ok((from, msg)) => n.on_message(SimTime::ZERO, NodeId(from), msg, &mut fx),
            Err(t) => n.on_timer(SimTime::ZERO, t, &mut fx),
        }
        fx.sends().iter().map(|(to, msg)| format!("{}>{msg:?}", to.0)).collect()
    }

    fn tick(kind: u32, payload: u64) -> Result<(u32, ChordMsg<RawItem>), Timer> {
        Err(Timer::new(kind, payload))
    }

    /// `to>message` for each of `to`.
    fn each(to: &[u32], msg: &str) -> Vec<String> {
        to.iter().map(|i| format!("{i}>{msg}")).collect()
    }

    #[test]
    fn a_ping_registers_a_watcher_and_the_set_ships_until_each_predecessor_acks() {
        let mut n = prober();
        for from in [5, 3, 5] {
            assert_eq!(on(&mut n, Ok((from, ChordMsg::Ping))), each(&[from], "Pong"));
        }
        assert_eq!(n.watchers, [NodeId(3), NodeId(5)]);
        let shipped = "Watchers { watchers: [NodeId(3), NodeId(5)] }";
        let deadline = |n: &mut ChordNode<RawItem>| on(n, tick(timer::PING_DEADLINE, 0));
        assert_eq!(deadline(&mut n), each(&[9, 8], shipped), "to both predecessors");
        on(&mut n, Ok((9, ChordMsg::Pong)));
        assert_eq!(deadline(&mut n), each(&[8], shipped), "again to the one that did not ack");
        on(&mut n, Ok((8, ChordMsg::Pong)));
        assert!(deadline(&mut n).is_empty(), "an acked set is not re-sent");
        on(&mut n, Ok((7, ChordMsg::Ping)));
        assert_eq!(deadline(&mut n).len(), 2, "a grown one is");
    }

    #[test]
    fn a_round_pings_both_successors_and_one_other_finger_in_turn() {
        let mut n = prober();
        let rounds: Vec<Vec<String>> = (0..3).map(|_| on(&mut n, tick(timer::PING, 0))).collect();
        assert_eq!(rounds[0], each(&[1, 2, 4], "Ping"));
        assert_eq!(rounds[1], each(&[1, 2, 8], "Ping"));
        assert_eq!(rounds[2], each(&[1, 2, 4], "Ping"));
    }

    /// `prober()` that knows its successor's watchers, itself among
    /// them, after a round in which every peer but `silent` answered.
    fn after_a_round_with(silent: &[u32]) -> ChordNode<RawItem> {
        let mut n = prober();
        n.ring_watchers = [vec![NodeId(0), NodeId(5), NodeId(7)], vec![NodeId(1), NodeId(6)]];
        on(&mut n, tick(timer::PING, 0));
        for from in [1, 2, 4].into_iter().filter(|i| !silent.contains(i)) {
            on(&mut n, Ok((from, ChordMsg::Pong)));
        }
        n
    }

    #[test]
    fn a_silent_successor_is_confirmed_then_reported_once() {
        let mut n = after_a_round_with(&[1]);
        assert_eq!(on(&mut n, tick(timer::PING_DEADLINE, 0)), each(&[1], "Ping"), "one re-ping");
        let down = "Down { node: NodeId(1) }";
        assert_eq!(on(&mut n, tick(timer::CONFIRM, 1)), each(&[5, 7, 1], down));
        assert!(n.liveness.is_suspected(NodeId(1)));
        // Still silent in later rounds: suspected, and not news.
        for _ in 0..3 {
            on(&mut n, tick(timer::PING, 0));
            for from in [2, 4, 8] {
                on(&mut n, Ok((from, ChordMsg::Pong)));
            }
            assert_eq!(on(&mut n, tick(timer::PING_DEADLINE, 0)), Vec::<String>::new());
            assert!(n.liveness.is_suspected(NodeId(1)));
        }
    }

    #[test]
    fn an_answer_inside_the_confirmation_window_sends_no_report() {
        let mut n = after_a_round_with(&[1]);
        on(&mut n, tick(timer::PING_DEADLINE, 0));
        on(&mut n, Ok((1, ChordMsg::Pong)));
        assert_eq!(on(&mut n, tick(timer::CONFIRM, 1)), Vec::<String>::new());
        assert!(!n.liveness.is_suspected(NodeId(1)));
    }

    #[test]
    fn successor2_is_reported_only_with_the_successor_suspected_too() {
        let mut n = after_a_round_with(&[2]);
        assert_eq!(on(&mut n, tick(timer::PING_DEADLINE, 0)), Vec::<String>::new());
        let mut n = after_a_round_with(&[1, 2]);
        assert_eq!(on(&mut n, tick(timer::PING_DEADLINE, 0)), each(&[1, 2], "Ping"));
        assert_eq!(
            on(&mut n, tick(timer::CONFIRM, 2)),
            each(&[1, 6, 2], "Down { node: NodeId(2) }")
        );
    }

    #[test]
    fn a_report_suspects_and_a_live_accused_node_refutes_to_its_watchers() {
        let mut n = prober();
        assert!(on(&mut n, Ok((9, ChordMsg::Down { node: NodeId(8) }))).is_empty());
        assert!(n.liveness.is_suspected(NodeId(8)));
        assert_eq!(n.next_hop(100, None), NodeId(4), "routed around");
        on(&mut n, Ok((8, ChordMsg::Pong)));
        assert!(!n.liveness.is_suspected(NodeId(8)), "any message forgives");

        n.watchers = vec![NodeId(3), NodeId(9)];
        assert_eq!(on(&mut n, Ok((9, ChordMsg::Down { node: NodeId(0) }))), each(&[3, 9], "Pong"));
    }

    #[test]
    fn a_hostile_or_stray_watcher_set_is_not_filed() {
        let mut n = prober();
        let set =
            |ids: &[u32]| ChordMsg::Watchers { watchers: ids.iter().map(|&i| NodeId(i)).collect() };
        assert!(on(&mut n, Ok((1, set(&[0, 1, 5])))).is_empty());
        assert!(on(&mut n, Ok((4, set(&[0, 5])))).is_empty());
        assert_eq!(n.ring_watchers, [vec![], vec![]], "naming its sender, or not from a successor");
        assert_eq!(on(&mut n, Ok((2, set(&[0, 6])))), each(&[2], "Pong"), "filed and acked");
        assert_eq!(n.ring_watchers, [vec![], vec![NodeId(0), NodeId(6)]]);
    }

    #[test]
    fn a_revival_tells_every_watcher_and_runs_a_full_round() {
        let mut n = prober();
        n.watchers = vec![NodeId(3), NodeId(5)];
        n.liveness.suspect(NodeId(4));
        let mut fx = Fx::new();
        n.on_start(SimTime::ZERO, &mut fx);
        let sent: Vec<String> =
            fx.sends().iter().map(|(to, msg)| format!("{}>{msg:?}", to.0)).collect();
        assert_eq!(sent, [each(&[3, 5], "Pong"), each(&[1, 2, 4, 8], "Ping")].concat());
        let kinds: Vec<u32> = fx.timers().iter().map(|(_, t)| t.kind).collect();
        assert_eq!(kinds, [timer::PING_DEADLINE, timer::PING]);
        assert!(!n.liveness.is_suspected(NodeId(4)), "a revived node starts trusting");
    }
}
