//! The Chord node: finger routing, bucket fan-out, broadcast tree.

use rand::rngs::StdRng;
use rand::Rng;

use unistore_overlay::repair::ReplicaRepair;
use unistore_overlay::{push_hop, BatchTracker, HopGroups, OverlayDone};
use unistore_simnet::{Effects, NodeBehavior, NodeId, SimTime, Timer};
use unistore_util::fxhash::mix64;
use unistore_util::rng::{derive_rng, stream};
use unistore_util::wire::BatchVerb;
use unistore_util::{FxHashMap, FxHashSet, ItemFilter, Key};

pub use unistore_util::item::Item;

use crate::msg::{ChordBatchOp, ChordMsg, QueryId};
use crate::ring::{in_open_closed, in_open_open};
use crate::store::ChordStore;
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
    /// How many times the origin retransmits a timed-out batch before
    /// reporting failure (only the un-acked remainder is re-sent, see
    /// `unistore_overlay::BatchTracker`). Same name and default as
    /// P-Grid's knob.
    pub op_retries: u32,
    /// Push applied writes to the successor replica and repair missed
    /// pushes with periodic hash-tree anti-entropy (the same exchange
    /// P-Grid runs, see `unistore_overlay::repair`). Off by
    /// default: the baseline comparison counts messages on the healthy
    /// path, and replication traffic would distort it.
    pub replicate: bool,
    /// Period of the anti-entropy probe sent to the predecessor
    /// (jittered ±50% to avoid lockstep). Only armed when `replicate`.
    pub anti_entropy_interval: SimTime,
    /// Period of the routing-liveness probe: each tick pings the
    /// successor and every finger, and a peer that misses
    /// [`ChordConfig::ping_timeout`] is suspected — [`ChordNode`]
    /// routes around suspects until they are heard from again. Zero
    /// disables probing (the default: the healthy-path baseline
    /// comparisons count messages, and probe traffic would distort
    /// them).
    pub ping_interval: SimTime,
    /// How long a probed peer may stay silent before it is suspected.
    pub ping_timeout: SimTime,
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
            ping_timeout: SimTime::from_secs(2),
        }
    }
}

/// Timer kinds.
mod timer {
    pub const QUERY_TIMEOUT: u32 = 1;
    pub const ANTI_ENTROPY: u32 = 2;
    pub const PING: u32 = 3;
    pub const PING_DEADLINE: u32 = 4;
}

#[derive(Debug)]
enum Pending<I> {
    Lookup,
    /// Batched writes awaiting positional acks for every op. The full
    /// op set is kept so a timed-out batch can retransmit exactly the
    /// un-acked remainder (re-application is idempotent under the
    /// versioned store); the tracker marks ops by their position in the
    /// original list.
    Batch {
        items: Vec<I>,
        ops: Vec<ChordBatchOp>,
        tracker: BatchTracker,
    },
    Buckets {
        expected: u32,
        received: u32,
        entries: Vec<(Key, I)>,
        hops: u32,
        failed: bool,
    },
}

/// Convergecast state of one broadcast branch.
#[derive(Debug)]
struct BcastState<I> {
    /// Parent to reply to; `None` at the origin.
    parent: Option<NodeId>,
    expected: u32,
    received: u32,
    entries: Vec<(Key, I)>,
    nodes: u32,
    hops: u32,
}

/// A Chord node.
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
    /// Messages handled, for load accounting.
    pub msg_load: u64,
    /// Exact-key reads dispatched via the exact index (`[0]`) vs. the
    /// bucket mirror (`[1]`); drives replica-aware read balancing.
    pub(crate) reads_via: [u64; 2],
    /// Routing-table peers presumed dead: they missed a ping deadline
    /// and have not been heard from since. `next_hop` routes around
    /// them.
    pub(crate) suspected: FxHashSet<NodeId>,
    /// Peers probed this ping round and not yet heard from.
    awaiting_pong: FxHashSet<NodeId>,
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
            msg_load: 0,
            reads_via: [0, 0],
            suspected: FxHashSet::default(),
            awaiting_pong: FxHashSet::default(),
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

    /// Wires the topology (cluster builder only).
    pub fn set_topology(&mut self, w: RingWiring) {
        self.predecessor = w.predecessor;
        self.predecessor2 = w.predecessor2;
        self.successor = w.successor;
        self.successor2 = w.successor2;
        self.fingers = w.fingers;
    }

    /// True if this node owns ring position `k` (`k ∈ (pred, self]`).
    pub(crate) fn responsible(&self, k: u64) -> bool {
        owns(self.predecessor.1, self.ring_id, k)
    }

    /// Next hop for ring position `k`: the successor if `k` lands in
    /// `(self, succ]`, otherwise the closest preceding finger that is
    /// not suspected dead. When the owner itself is the (suspected)
    /// successor there is no detour — the message goes there anyway
    /// and the sender can fail fast instead (see `handle_lookup`).
    pub(crate) fn next_hop(&self, k: u64) -> NodeId {
        if in_open_closed(self.ring_id, self.successor.1, k) {
            return self.successor.0;
        }
        for &(node, ring) in self.fingers.iter().rev() {
            if in_open_open(self.ring_id, k, ring) && !self.suspected.contains(&node) {
                return node;
            }
        }
        // The successor is the hop of last resort; when it is suspected
        // (and, since `k` is past it, not the owner) skip one node
        // ahead. `successor2` never overshoots: the owner is the first
        // ring member at or past `k`, which is `successor2` or later.
        if self.suspected.contains(&self.successor.0) && self.successor2.0 != self.id {
            return self.successor2.0;
        }
        self.successor.0
    }

    fn register(&mut self, fx: &mut Fx<I>, qid: QueryId, p: Pending<I>) {
        self.pending.insert(qid, p);
        fx.set_timer(self.cfg.query_timeout, Timer::new(timer::QUERY_TIMEOUT, qid));
    }

    /// Arms the next anti-entropy tick with ±50% jitter to avoid
    /// lockstep probe storms (the same idiom as P-Grid's
    /// `arm_periodic`).
    fn arm_anti_entropy(&mut self, fx: &mut Fx<I>) {
        let jitter = self.rng.gen_range(0.5..1.5);
        let base = self.cfg.anti_entropy_interval.as_micros() as f64;
        let delay = SimTime::from_micros((base * jitter) as u64);
        fx.set_timer(delay, Timer::new(timer::ANTI_ENTROPY, 0));
    }

    /// Arms the next routing-liveness probe (same ±50% jitter idiom).
    fn arm_ping(&mut self, fx: &mut Fx<I>) {
        let jitter = self.rng.gen_range(0.5..1.5);
        let base = self.cfg.ping_interval.as_micros() as f64;
        let delay = SimTime::from_micros((base * jitter) as u64);
        fx.set_timer(delay, Timer::new(timer::PING, 0));
    }

    /// One probe round: ping every distinct routing-table peer and
    /// start the silence deadline. Suspicion is per-round — a peer
    /// still silent when [`timer::PING_DEADLINE`] fires is suspected.
    fn run_ping_round(&mut self, fx: &mut Fx<I>) {
        self.awaiting_pong.clear();
        let mut targets: Vec<NodeId> = Vec::with_capacity(self.fingers.len() + 2);
        targets.push(self.successor.0);
        targets.push(self.successor2.0);
        targets.extend(self.fingers.iter().map(|&(node, _)| node));
        targets.sort_unstable();
        targets.dedup();
        for node in targets {
            if node != self.id {
                self.awaiting_pong.insert(node);
                fx.send(node, ChordMsg::Ping);
            }
        }
        if !self.awaiting_pong.is_empty() {
            fx.set_timer(self.cfg.ping_timeout, Timer::new(timer::PING_DEADLINE, 0));
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn handle_lookup(
        &mut self,
        from: NodeId,
        qid: QueryId,
        ring_key: u64,
        origin: NodeId,
        hops: u32,
        range: Option<(Key, Key)>,
        filter: Option<ItemFilter>,
        fx: &mut Fx<I>,
    ) {
        if from == NodeId::EXTERNAL && origin == self.id {
            self.register(fx, qid, Pending::Lookup);
        }
        if self.responsible(ring_key) {
            // Semi-join pushdown: drop non-matching items at the data,
            // before they are ever cloned out of the store.
            let entries = match range {
                None => self.store.lookup(ring_key, &filter),
                Some((lo, hi)) => self.store.scan_bucket(ring_key, lo, hi, &filter),
            };
            self.answer_lookup(qid, origin, entries, hops, true, fx);
        } else {
            let next = self.next_hop(ring_key);
            // The owner itself is suspected dead: no detour can reach
            // the data, so fail fast — the origin's retry chain can
            // try the other index mirror now instead of waiting out
            // the op timeout.
            if self.suspected.contains(&next)
                && in_open_closed(self.ring_id, self.successor.1, ring_key)
            {
                self.answer_lookup(qid, origin, Vec::new(), hops, false, fx);
                return;
            }
            let msg = match range {
                None => ChordMsg::Lookup { qid, ring_key, origin, hops: hops + 1, filter },
                Some((lo, hi)) => {
                    ChordMsg::BucketGet { qid, ring_key, lo, hi, origin, hops: hops + 1, filter }
                }
            };
            fx.send(next, msg);
        }
    }

    fn answer_lookup(
        &mut self,
        qid: QueryId,
        origin: NodeId,
        entries: Vec<(Key, I)>,
        hops: u32,
        ok: bool,
        fx: &mut Fx<I>,
    ) {
        if origin == self.id {
            self.handle_lookup_reply(qid, entries, hops, ok, fx);
        } else {
            fx.send(origin, ChordMsg::LookupReply { qid, entries, hops, ok });
        }
    }

    fn handle_lookup_reply(
        &mut self,
        qid: QueryId,
        reply_entries: Vec<(Key, I)>,
        reply_hops: u32,
        ok: bool,
        fx: &mut Fx<I>,
    ) {
        match self.pending.get_mut(&qid) {
            Some(Pending::Lookup) => {
                self.pending.remove(&qid);
                fx.emit(OverlayDone::Lookup {
                    qid,
                    items: items_of(reply_entries),
                    hops: reply_hops,
                    ok,
                });
            }
            Some(Pending::Buckets { expected, received, entries, hops, failed }) => {
                *received += 1;
                entries.extend(reply_entries);
                *hops = (*hops).max(reply_hops);
                *failed |= !ok;
                if *received >= *expected {
                    let (items, hops, parts, complete) =
                        (items_of(std::mem::take(entries)), *hops, *received, !*failed);
                    self.pending.remove(&qid);
                    fx.emit(OverlayDone::Range { qid, items, hops, complete, parts });
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
        items: Vec<I>,
        ops: Vec<ChordBatchOp>,
        fx: &mut Fx<I>,
    ) {
        if from == NodeId::EXTERNAL && origin == self.id {
            self.register(
                fx,
                qid,
                Pending::Batch {
                    items: items.clone(),
                    ops: ops.clone(),
                    tracker: BatchTracker::new(ops.len()),
                },
            );
        }
        self.route_batch(qid, origin, hops, items, ops, fx);
    }

    /// Routes a (sub-)batch one step: applies the ops this node is
    /// responsible for (both indexes live in one ring, so a sub-batch
    /// may mix exact- and bucket-index ops), re-groups the remainder by
    /// next hop, and acks the applied ops' positions to the origin in
    /// one aggregated [`ChordMsg::BatchAck`].
    fn route_batch(
        &mut self,
        qid: QueryId,
        origin: NodeId,
        hops: u32,
        items: Vec<I>,
        ops: Vec<ChordBatchOp>,
        fx: &mut Fx<I>,
    ) {
        let mut applied: Vec<u32> = Vec::new();
        let mut groups = HopGroups::new();
        for (i, op) in ops.iter().enumerate() {
            // The ring position is derived, not shipped: op tags cross
            // every edge of their route, so they carry only the original
            // key plus an index flag.
            let ring_key = match op.bucket {
                true => ring_key_bucket(op.op.key, self.cfg.bucket_depth),
                false => ring_key_exact(op.op.key),
            };
            if self.responsible(ring_key) {
                match op.op.verb {
                    BatchVerb::Insert { item } => {
                        let item = items[item as usize].clone();
                        self.apply_insert(ring_key, op.op.key, item, op.op.version, fx);
                    }
                    BatchVerb::Delete { ident } => {
                        self.apply_delete(ring_key, op.op.key, ident, op.op.version, fx);
                    }
                }
                applied.push(op.idx);
            } else {
                push_hop(&mut groups, self.next_hop(ring_key), i);
            }
        }
        for (next, idxs) in groups {
            let (sub_items, sub_ops) = subset_batch(&items, &ops, &idxs);
            fx.send(
                next,
                ChordMsg::OpBatch { qid, origin, hops: hops + 1, items: sub_items, ops: sub_ops },
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

    /// Folds a positional batch ack; completes the batch when every op
    /// is marked. Duplicate and late acks (e.g. from before a
    /// retransmission) re-mark already-marked ops, so they can only
    /// help; positions outside the batch are ignored.
    fn handle_batch_ack(&mut self, qid: QueryId, applied: Vec<u32>, ack_hops: u32, fx: &mut Fx<I>) {
        let Some(Pending::Batch { tracker, .. }) = self.pending.get_mut(&qid) else {
            return;
        };
        if tracker.ack(&applied, ack_hops) {
            let (ops, hops) = (tracker.acked(), tracker.hops());
            self.pending.remove(&qid);
            fx.emit(OverlayDone::Batch { qid, ops, hops, ok: true });
        }
    }

    /// Places an entry directly into the local store under every index
    /// position this node is responsible for (driver-side preloading).
    pub fn preload(&mut self, key: Key, item: I, version: u64) {
        let rk = ring_key_exact(key);
        if self.responsible(rk) {
            self.store.insert(rk, key, item.clone(), version);
        }
        let bk = ring_key_bucket(key, self.cfg.bucket_depth);
        if self.responsible(bk) {
            self.store.insert(bk, key, item, version);
        }
    }

    /// Origin-side bucket fan-out — a range scan over original keys
    /// `[lo, hi]` through the auxiliary bucket index: one
    /// [`ChordMsg::BucketGet`] per bucket intersecting the range.
    pub(crate) fn handle_bucket_range(
        &mut self,
        qid: QueryId,
        lo: Key,
        hi: Key,
        filter: Option<ItemFilter>,
        fx: &mut Fx<I>,
    ) {
        let depth = self.cfg.bucket_depth as u32;
        let b_lo = lo >> (64 - depth);
        let b_hi = hi >> (64 - depth);
        let expected = (b_hi - b_lo + 1) as u32;
        self.register(
            fx,
            qid,
            Pending::Buckets { expected, received: 0, entries: Vec::new(), hops: 0, failed: false },
        );
        for b in b_lo..=b_hi {
            let ring_key = mix64(b ^ BUCKET_SALT);
            // Route each bucket fetch like a range-restricted lookup,
            // starting at ourselves.
            self.handle_lookup(
                self.id,
                qid,
                ring_key,
                self.id,
                0,
                Some((lo, hi)),
                filter.clone(),
                fx,
            );
        }
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
            BcastState { parent, expected, received: 0, entries: local, nodes: 1, hops },
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
            fx.set_timer(self.cfg.query_timeout, Timer::new(timer::QUERY_TIMEOUT, qid));
        }
    }

    fn handle_bcast_reply(
        &mut self,
        qid: QueryId,
        entries: Vec<(Key, I)>,
        nodes: u32,
        hops: u32,
        fx: &mut Fx<I>,
    ) {
        let Some(st) = self.bcast.get_mut(&qid) else { return };
        st.received += 1;
        st.entries.extend(entries);
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
                ChordMsg::BcastReply { qid, entries: st.entries, nodes: st.nodes, hops: st.hops },
            ),
            None => fx.emit(OverlayDone::Range {
                qid,
                items: items_of(st.entries),
                hops: st.hops,
                complete: true,
                parts: st.nodes,
            }),
        }
    }

    fn handle_timeout(&mut self, qid: QueryId, fx: &mut Fx<I>) {
        if let Some(p) = self.pending.remove(&qid) {
            match p {
                Pending::Lookup => {
                    fx.emit(OverlayDone::Lookup { qid, items: Vec::new(), hops: 0, ok: false })
                }
                Pending::Batch { items, ops, mut tracker } => {
                    match tracker.retry(self.cfg.op_retries) {
                        // Retransmit only the outstanding ops: acked work
                        // stays marked, a late ack from the previous
                        // attempt still counts, and re-applied ops are
                        // no-ops at the versioned stores.
                        Some(remainder) => {
                            let (sub_items, sub_ops) = subset_batch(&items, &ops, &remainder);
                            self.register(fx, qid, Pending::Batch { items, ops, tracker });
                            self.route_batch(qid, self.id, 0, sub_items, sub_ops, fx);
                        }
                        None => fx.emit(OverlayDone::Batch {
                            qid,
                            ops: tracker.acked(),
                            hops: tracker.hops(),
                            ok: false,
                        }),
                    }
                }
                Pending::Buckets { entries, hops, received, .. } => fx.emit(OverlayDone::Range {
                    qid,
                    items: items_of(entries),
                    hops,
                    complete: false,
                    parts: received,
                }),
            }
            return;
        }
        // An origin-side broadcast that never completed.
        if let Some(st) = self.bcast.remove(&qid) {
            if st.parent.is_none() {
                fx.emit(OverlayDone::Range {
                    qid,
                    items: items_of(st.entries),
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

/// The items of `(original key, item)` entries: a completion at the
/// origin carries what was stored, not where.
fn items_of<I>(entries: Vec<(Key, I)>) -> Vec<I> {
    entries.into_iter().map(|(_, item)| item).collect()
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
        |op| match op.op.verb {
            BatchVerb::Insert { item } => Some(item),
            BatchVerb::Delete { .. } => None,
        },
        |op, item| op.op.verb = BatchVerb::Insert { item },
    )
}

impl<I: Item> NodeBehavior for ChordNode<I> {
    type Msg = ChordMsg<I>;
    type Out = OverlayDone<I>;

    fn on_start(&mut self, _now: SimTime, fx: &mut Fx<I>) {
        // Also runs on revival, so a node that was down resumes the
        // repair cadence immediately instead of waiting for a timer
        // chain that died while it was offline.
        if self.cfg.replicate {
            self.arm_anti_entropy(fx);
        }
        if self.cfg.ping_interval > SimTime::from_micros(0) {
            // A revived node's suspicions are as stale as its absence
            // was long: start trusting and let the probes re-learn.
            self.suspected.clear();
            self.awaiting_pong.clear();
            self.arm_ping(fx);
        }
    }

    fn on_message(&mut self, _now: SimTime, from: NodeId, msg: ChordMsg<I>, fx: &mut Fx<I>) {
        self.msg_load += 1;
        // Any traffic from a peer proves it lives.
        self.suspected.remove(&from);
        self.awaiting_pong.remove(&from);
        match msg {
            ChordMsg::Lookup { qid, ring_key, origin, hops, filter } => {
                self.handle_lookup(from, qid, ring_key, origin, hops, None, filter, fx)
            }
            ChordMsg::LookupReply { qid, entries, hops, ok } => {
                self.handle_lookup_reply(qid, entries, hops, ok, fx)
            }
            ChordMsg::OpBatch { qid, origin, hops, items, ops } => {
                self.handle_op_batch(from, qid, origin, hops, items, ops, fx)
            }
            ChordMsg::BatchAck { qid, applied, hops } => {
                self.handle_batch_ack(qid, applied, hops, fx)
            }
            ChordMsg::BucketRange { qid, lo, hi, .. } => {
                self.handle_bucket_range(qid, lo, hi, None, fx)
            }
            ChordMsg::BucketGet { qid, ring_key, lo, hi, origin, hops, filter } => {
                self.handle_lookup(from, qid, ring_key, origin, hops, Some((lo, hi)), filter, fx)
            }
            ChordMsg::Bcast { qid, lo, hi, limit, hops, filter } => {
                self.handle_bcast(from, qid, lo, hi, limit, hops, filter, fx)
            }
            ChordMsg::BcastReply { qid, entries, nodes, hops } => {
                self.handle_bcast_reply(qid, entries, nodes, hops, fx)
            }
            ChordMsg::Replicate { entries } => self.handle_replicate(entries),
            ChordMsg::Repair(msg) => self.handle_repair(from, msg, fx),
            ChordMsg::Ping => fx.send(from, ChordMsg::Pong),
            ChordMsg::Pong => {}
        }
    }

    fn on_timer(&mut self, _now: SimTime, t: Timer, fx: &mut Fx<I>) {
        match t.kind {
            timer::QUERY_TIMEOUT => self.handle_timeout(t.payload, fx),
            timer::ANTI_ENTROPY => {
                self.run_anti_entropy(fx);
                self.arm_anti_entropy(fx);
            }
            timer::PING => {
                self.run_ping_round(fx);
                self.arm_ping(fx);
            }
            timer::PING_DEADLINE => {
                let silent: Vec<NodeId> = self.awaiting_pong.drain().collect();
                self.suspected.extend(silent);
            }
            _ => {}
        }
    }
}
