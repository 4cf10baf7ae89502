//! The cluster driver: a full UniStore deployment inside the simulator.
//!
//! This is the repo's main entry point: build a network of
//! [`UniNode`]s over any [`Overlay`] backend, load tuples, run VQL —
//! and get answers *plus the network cost* of obtaining them.
//!
//! [`UniCluster`] defaults to the P-Grid backend; the Chord backend is
//! reachable through [`crate::backends::ChordUniCluster`]. All driver
//! operations (bulk load, routed inserts/updates, raw lookups, queries)
//! are backend-agnostic.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::Rng;

use unistore_overlay::{OpBatch, Overlay, OverlayDone, OverlayTopology};
use unistore_pgrid::PGridPeer;
use unistore_query::cost::shards::STATS_SHARDS;
use unistore_query::cost::StatsFlush;
use unistore_query::{
    CostModel, Coverage, Logical, Mqp, MqpNode, Relation, StatsDelta, StatsNotice,
};
use unistore_simnet::metrics::OpCost;
use unistore_simnet::{LanLatency, LatencyModel, NodeId, SimNet, SimTime};
use unistore_store::index::{self as idx, TripleKeys};
use unistore_store::mapping::{Mapping, MappingSet};
use unistore_store::{Triple, Tuple, Value};
use unistore_util::rng::{derive_rng, stream};
use unistore_util::wire::Shared;
use unistore_util::{BitPath, CompactStr, FxHashMap, FxHashSet, Key};
use unistore_vql::{analyze, parse, VqlError};

use crate::config::{PlanMode, UniConfig};
use crate::msg::{QueryMsg, UniEvent, UniMsg};
use crate::node::{Decision, UniNode};
use crate::stats::{build_cost_model, stats_shard_home, stats_shard_key};

/// The answer to a query plus its measured network cost.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// The result relation.
    pub relation: Relation,
    /// `false` on timeout (the relation then holds the best partial
    /// result the retry chain saw, possibly empty).
    pub ok: bool,
    /// Measured network cost (messages, bytes, simulated latency, hops).
    pub cost: OpCost,
    /// Completeness accounting: how much of the responsible data the
    /// winning execution reached (1.0 on the healthy path).
    pub coverage: Coverage,
}

/// A simulated UniStore deployment over an [`Overlay`] backend
/// (P-Grid unless specified otherwise).
pub struct UniCluster<O: Overlay<Item = Triple> = PGridPeer<Triple>> {
    /// The network (public: experiments inspect nodes and metrics).
    pub net: SimNet<UniNode<O>>,
    cfg: UniConfig<O::Config>,
    seed: u64,
    /// Recreates the latency model for topology rebuilds.
    latency_factory: Box<dyn Fn() -> Box<dyn LatencyModel>>,
    topology: O::Topology,
    next_qid: u64,
    rng: StdRng,
    triples: Vec<Triple>,
    mappings: MappingSet,
    cost: Option<Arc<CostModel>>,
    /// Snapshot generation: bumped by every full rebuild so stale
    /// in-flight deltas cannot be double-counted (see
    /// [`QueryMsg::StatsDelta`]).
    pub(crate) stats_epoch: u64,
    /// Completion table: finished queries awaiting their waiter. Every
    /// completion of a query in flight lands here (storage completions
    /// in `done_storage`), so any number of queries can overlap.
    done_queries: FxHashMap<u64, QueryOutcome>,
    /// Completion table for driver-issued raw storage ops.
    done_storage: FxHashMap<u64, OverlayDone<Triple>>,
    /// Queries admitted into the network: qid → admission time (the
    /// deadline budget runs from here).
    in_flight: FxHashMap<u64, SimTime>,
    /// qid → submission time. Reported latency runs from here, so at
    /// offered loads beyond the admission window it includes the
    /// queueing delay — the tail a client actually observes.
    queued_at: FxHashMap<u64, SimTime>,
    /// Submissions beyond the admission window, waiting for a slot.
    admit_queue: std::collections::VecDeque<(u64, NodeId, Mqp)>,
}

impl UniCluster<PGridPeer<Triple>> {
    /// Builds an empty P-Grid-backed cluster with a LAN latency model.
    pub fn build(n_peers: usize, cfg: UniConfig, seed: u64) -> Self {
        Self::build_overlay_with_latency(n_peers, cfg, LanLatency, seed)
    }

    /// Builds an empty P-Grid-backed cluster with a custom latency
    /// model.
    pub fn build_with_latency(
        n_peers: usize,
        cfg: UniConfig,
        latency: impl LatencyModel + Clone + 'static,
        seed: u64,
    ) -> Self {
        Self::build_overlay_with_latency(n_peers, cfg, latency, seed)
    }

    /// Trie leaves of the P-Grid topology.
    pub fn leaves(&self) -> &[BitPath] {
        self.topology.leaves()
    }
}

impl<O: Overlay<Item = Triple>> UniCluster<O> {
    /// Builds an empty cluster over any overlay backend with a LAN
    /// latency model.
    pub fn build_overlay(n_peers: usize, cfg: UniConfig<O::Config>, seed: u64) -> Self {
        Self::build_overlay_with_latency(n_peers, cfg, LanLatency, seed)
    }

    /// Builds an empty cluster over any overlay backend with a custom
    /// latency model.
    pub fn build_overlay_with_latency(
        n_peers: usize,
        cfg: UniConfig<O::Config>,
        latency: impl LatencyModel + Clone + 'static,
        seed: u64,
    ) -> Self {
        let factory: Box<dyn Fn() -> Box<dyn LatencyModel>> = {
            let latency = latency.clone();
            Box::new(move || Box::new(latency.clone()))
        };
        let topology = O::plan(n_peers, &cfg.overlay, None, seed);
        let mut cluster = UniCluster {
            net: SimNet::new(latency, seed),
            cfg,
            seed,
            latency_factory: factory,
            topology,
            next_qid: 1,
            rng: derive_rng(seed, stream::QUERY),
            triples: Vec::new(),
            mappings: MappingSet::new(),
            cost: None,
            stats_epoch: 0,
            done_queries: FxHashMap::default(),
            done_storage: FxHashMap::default(),
            in_flight: FxHashMap::default(),
            queued_at: FxHashMap::default(),
            admit_queue: std::collections::VecDeque::new(),
        };
        cluster.spawn_nodes(n_peers);
        cluster
    }

    /// Populates `self.net` with nodes spawned from `self.topology`.
    fn spawn_nodes(&mut self, n_peers: usize) {
        for peer in 0..n_peers {
            let overlay = O::spawn(&self.topology, peer, &self.cfg.overlay, self.seed);
            self.net.add_node(UniNode::new(overlay, n_peers, &self.cfg, self.seed));
        }
    }

    fn rebuild_topology(&mut self, n_peers: usize, sample: Option<&[Key]>) {
        let latency = (self.latency_factory)();
        self.topology = O::plan(n_peers, &self.cfg.overlay, sample, self.seed);
        self.net = SimNet::new_boxed(latency, self.seed);
        self.spawn_nodes(n_peers);
    }

    /// Loads tuples: decomposes them into triples (paper Fig. 2), places
    /// every index entry, rebuilds the topology data-adaptively if the
    /// cluster was empty and balancing is on, and distributes the cost
    /// model.
    ///
    /// This is the *driver-side bulk path* (no protocol traffic); use
    /// [`Self::insert_tuple`] for the routed path.
    pub fn load(&mut self, tuples: impl IntoIterator<Item = Tuple>) {
        let new_triples: Vec<Triple> = tuples.into_iter().flat_map(|t| t.to_triples()).collect();
        let first_load = self.triples.is_empty();
        self.triples.extend(new_triples);
        if first_load && self.cfg.balanced && O::ADAPTS_TO_SAMPLE {
            // Re-plan the topology against the actual key distribution —
            // P-Grid's converged, load-balanced state. (Backends with an
            // order-destroying hash ignore the sample.)
            let sample: Vec<Key> =
                self.triples.iter().flat_map(|t| TripleKeys::derive(t, false).primary()).collect();
            let n = self.net.len();
            self.rebuild_topology(n, Some(&sample));
        }
        self.place_all();
        self.rebuild_stats();
    }

    /// Registers a schema mapping: stored as a metadata triple *and*
    /// distributed to the nodes' mapping sets.
    pub fn add_mapping(&mut self, m: &Mapping) {
        self.triples.push(m.to_triple());
        self.mappings.add(m);
        let mut postings = Postings::new(self.cfg.with_qgrams);
        self.place_triple_direct(&m.to_triple(), &mut postings);
        for i in 0..self.net.len() {
            self.net.node_mut(NodeId(i as u32)).mappings.add(m);
        }
        match self.cost.is_some() {
            // Cheap path: fold the one new metadata triple in.
            true => self.apply_write_delta(None, {
                let mut d = StatsDelta::new();
                d.record_insert(m.to_triple());
                d
            }),
            false => self.rebuild_stats(),
        }
    }

    fn place_all(&mut self) {
        // Placement mutates nodes while reading the dataset; move the
        // triples out for the loop instead of cloning them.
        let triples = std::mem::take(&mut self.triples);
        let mut postings = Postings::new(self.cfg.with_qgrams);
        for t in &triples {
            self.place_triple_direct(t, &mut postings);
        }
        self.triples = triples;
    }

    /// Preloads `t` under its primary keys, and its value's posting under
    /// the q-gram keys unless this load placed it already.
    fn place_triple_direct(&mut self, t: &Triple, postings: &mut Postings) {
        for key in TripleKeys::derive(t, false).primary() {
            self.preload(key, t);
        }
        if let Some((posting, keys)) = postings.first(t) {
            for key in keys {
                self.preload(key, &posting);
            }
        }
    }

    /// Stores `item` under `key` at every holder, at version 0.
    fn preload(&mut self, key: Key, item: &Triple) {
        for p in self.topology.holders(key) {
            self.net.node_mut(NodeId(p as u32)).overlay.preload(key, item.clone(), 0);
        }
    }

    /// Full statistics rebuild: a scan of every triple plus an Arc
    /// re-distribution to all nodes. Reserved for bulk loads and
    /// topology re-plans; routed writes go through
    /// [`Self::apply_write_delta`] instead (amortized O(delta)).
    ///
    /// The nodes get the build's summary; each shard of its exact
    /// statistics goes to the shard's home.
    fn rebuild_stats(&mut self) {
        self.stats_epoch += 1;
        let model = build_cost_model(
            &self.triples,
            self.net.len(),
            self.topology.partitions(),
            self.topology.replication(),
            self.net.expected_link_delay(),
        );
        let lean = Arc::new(CostModel::new(model.stats.summary()));
        for i in 0..self.net.len() {
            self.net.node_mut(NodeId(i as u32)).reset_stats(lean.clone(), self.stats_epoch);
        }
        for shard in 0..STATS_SHARDS {
            if let (Some(home), Some(state)) = (self.stats_home(shard), model.stats.home(shard)) {
                self.net.node_mut(home).install_stats_home(state);
            }
        }
        self.cost = Some(model);
    }

    /// The home of statistics shard `shard` as the key's replica group
    /// sees it (`None` when no peer takes the key).
    pub(crate) fn stats_home(&self, shard: u8) -> Option<NodeId> {
        let key = stats_shard_key(shard);
        let (_, member) = self.net.iter_nodes().find(|(_, n)| n.overlay.responsible(key))?;
        stats_shard_home(&member.overlay, key)
    }

    /// Folds a write batch into the statistics — O(delta), no rescan.
    ///
    /// The driver's master model absorbs the delta immediately (it is
    /// the oracle's and `cost_model()`'s view). With an `origin`, the
    /// delta is also injected there as an in-band
    /// [`QueryMsg::StatsDelta`]: the origin node plans on it at once and
    /// flushes it to the shard homes on its next stats-refresh tick,
    /// whose published summaries reach the other peers, so remote
    /// planners converge without any driver-side fan-out.
    fn apply_write_delta(&mut self, origin: Option<NodeId>, delta: StatsDelta) {
        if delta.is_empty() {
            return;
        }
        let Some(model) = self.cost.as_mut() else { return };
        Arc::make_mut(model).apply_delta(&delta);
        if let Some(origin) = origin {
            let (epoch, delta) = (self.stats_epoch, Shared::new(delta));
            return self.net.inject(origin, UniMsg::Query(QueryMsg::StatsDelta { epoch, delta }));
        }
        // No routed path (driver-side metadata write): fold the pieces
        // into the shard homes and install what they publish at every
        // node directly, mirroring the preload.
        let mut flush = StatsFlush::new(delta);
        let mut notice = StatsNotice::default();
        let first = flush.first_pieces();
        self.fold_at_homes(&first, &mut flush, &mut notice);
        if flush.has_deletes() {
            let second = flush.object_pieces();
            self.fold_at_homes(&second, &mut flush, &mut notice);
        }
        for i in 0..self.net.len() {
            self.net.node_mut(NodeId(i as u32)).install_stats_notice(&notice);
        }
    }

    /// Folds a flush round's pieces at their homes, settling the
    /// flush's deletes and gathering what the homes publish.
    fn fold_at_homes(
        &mut self,
        pieces: &[unistore_query::cost::StatsPiece],
        flush: &mut StatsFlush,
        notice: &mut StatsNotice,
    ) {
        for piece in pieces {
            let Some(home) = self.stats_home(piece.shard) else { continue };
            if let Some((taken, published)) = self.net.node_mut(home).fold_stats_piece(piece) {
                flush.settle(piece.shard, &taken);
                notice.merge(published);
            }
        }
    }

    /// The shared cost model (after the first load).
    pub fn cost_model(&self) -> Option<Arc<CostModel>> {
        self.cost.clone()
    }

    /// All triples ever loaded (driver-side view; feeds the oracle).
    pub fn triples(&self) -> &[Triple] {
        &self.triples
    }

    /// A local reference engine over the same data — the test oracle.
    pub fn oracle(&self) -> unistore_query::LocalEngine {
        let mut store = unistore_store::local::LocalTripleStore::new();
        store.insert_all(self.triples.iter().cloned());
        unistore_query::LocalEngine::with_store(store)
    }

    /// Uniformly random node id.
    pub fn random_node(&mut self) -> NodeId {
        NodeId(self.rng.gen_range(0..self.net.len() as u32))
    }

    /// The driver-side deployment plan.
    pub fn topology(&self) -> &O::Topology {
        &self.topology
    }

    /// Sets the planner mode on every node (experiment E3).
    pub fn set_plan_mode(&mut self, mode: PlanMode) {
        for i in 0..self.net.len() {
            self.net.node_mut(NodeId(i as u32)).plan_mode = mode;
        }
    }

    /// Collects and clears the optimizer decision traces of all nodes.
    pub fn take_traces(&mut self) -> Vec<Decision> {
        let mut out = Vec::new();
        for i in 0..self.net.len() {
            out.append(&mut self.net.node_mut(NodeId(i as u32)).trace);
        }
        out
    }

    fn fresh_qid(&mut self) -> u64 {
        let q = self.next_qid;
        self.next_qid += 1;
        q
    }

    /// Routes every event the network produced since the last pump into
    /// the qid-keyed completion tables: query completions for any
    /// in-flight qid and driver-issued storage completions each land in
    /// a table for their waiter. A `QueryDone` for a qid that is not in
    /// flight is a stale completion (a superseded retry attempt, or a
    /// duplicate of one already resolved) and is dropped here — the
    /// driver-side half of the attempt-staleness guard; the node drops
    /// the storage half (see `UniNode::on_overlay_event`).
    fn pump_outputs(&mut self) {
        let mut freed = false;
        for (t, _, ev) in self.net.take_outputs() {
            match ev {
                UniEvent::QueryDone { qid, relation, hops, ok, coverage } => {
                    if self.in_flight.remove(&qid).is_some() {
                        freed = true;
                        let queued = self.queued_at.remove(&qid).unwrap_or(t);
                        self.done_queries.insert(
                            qid,
                            QueryOutcome {
                                relation,
                                ok,
                                cost: OpCost {
                                    // Per-query message/byte attribution
                                    // is only exact when queries run
                                    // serially; `query()` fills these in.
                                    messages: 0,
                                    bytes: 0,
                                    latency: t.saturating_sub(queued),
                                    hops,
                                },
                                coverage,
                            },
                        );
                    }
                }
                UniEvent::Storage(d) => {
                    self.done_storage.insert(d.qid(), d);
                }
                // The simulated driver reads node statistics directly;
                // probes are a live-runtime affordance.
                UniEvent::Stats { .. } => {}
            }
        }
        if freed {
            self.try_admit();
        }
    }

    /// Admits queued submissions while the in-flight window has room.
    fn try_admit(&mut self) {
        while self.in_flight.len() < self.cfg.max_in_flight {
            let Some((qid, origin, mqp)) = self.admit_queue.pop_front() else { return };
            self.in_flight.insert(qid, self.net.now());
            self.net.inject(origin, UniMsg::Query(QueryMsg::Execute { mqp }));
        }
    }

    /// Per-query deadline budget: the origin's retry timers guarantee a
    /// completion within `query_timeout × (query_retries + 1)`; one
    /// extra timeout of slack covers delivery of the final failure.
    fn query_budget(&self) -> SimTime {
        SimTime::from_micros(
            self.cfg.query_timeout.as_micros().saturating_mul(self.cfg.query_retries as u64 + 2),
        )
    }

    /// Parses and plans a VQL query from `origin` and submits it to the
    /// pipelined execution window; returns the qid to wait on. Beyond
    /// [`UniConfig::max_in_flight`] outstanding queries, submissions
    /// queue at the driver and enter the network as completions free
    /// slots (backpressure, not rejection).
    pub fn query_submit(&mut self, origin: NodeId, src: &str) -> Result<u64, VqlError> {
        let mqp = plan_query(origin, src, || self.fresh_qid())?;
        let qid = mqp.qid;
        self.queued_at.insert(qid, self.net.now());
        self.admit_queue.push_back((qid, origin, mqp));
        self.try_admit();
        Ok(qid)
    }

    /// Non-blocking completion check: returns the outcome if `qid` has
    /// finished, without advancing simulated time.
    pub fn query_poll(&mut self, qid: u64) -> Option<QueryOutcome> {
        self.pump_outputs();
        self.done_queries.remove(&qid)
    }

    /// Runs the network until `qid` completes (or its deadline budget
    /// expires), pumping every other completion into the tables on the
    /// way. A query whose budget lapses is withdrawn and reported as a
    /// failed outcome; its slot is released to the admission queue.
    pub fn query_wait(&mut self, qid: u64) -> QueryOutcome {
        loop {
            self.pump_outputs();
            if let Some(out) = self.done_queries.remove(&qid) {
                return out;
            }
            let deadline = match self.in_flight.get(&qid) {
                Some(submitted) => *submitted + self.query_budget(),
                // Still queued (or unknown): budget from now; refreshed
                // each iteration until admission starts the clock.
                None => self.net.now() + self.query_budget(),
            };
            if self.net.now() > deadline || !self.net.step() {
                break;
            }
        }
        self.in_flight.remove(&qid);
        self.queued_at.remove(&qid);
        self.admit_queue.retain(|(q, _, _)| *q != qid);
        self.try_admit();
        QueryOutcome {
            relation: Relation::empty(vec![]),
            ok: false,
            cost: OpCost::default(),
            coverage: Coverage::failed(),
        }
    }

    /// Waits for every submitted query — in flight, queued, or already
    /// completed but unclaimed — and returns the outcomes in submission
    /// (qid) order.
    pub fn query_wait_all(&mut self) -> Vec<(u64, QueryOutcome)> {
        self.pump_outputs();
        let mut qids: Vec<u64> = self
            .in_flight
            .keys()
            .chain(self.done_queries.keys())
            .copied()
            .chain(self.admit_queue.iter().map(|(q, _, _)| *q))
            .collect();
        qids.sort_unstable();
        qids.into_iter().map(|q| (q, self.query_wait(q))).collect()
    }

    /// Number of queries currently admitted into the network (excludes
    /// submissions still queued behind the admission window).
    pub fn in_flight_len(&self) -> usize {
        self.in_flight.len()
    }

    fn run_for_storage(&mut self, qid: u64) -> Option<OverlayDone<Triple>> {
        let deadline = self.net.now() + SimTime::from_secs(1_000_000);
        loop {
            self.pump_outputs();
            if let Some(d) = self.done_storage.remove(&qid) {
                return Some(d);
            }
            if self.net.now() > deadline || !self.net.step() {
                return None;
            }
        }
    }

    /// Parses, plans and executes a VQL query from `origin`, waiting
    /// for its completion. When no other queries are in flight the
    /// reported cost's message and byte counts are the exact network
    /// delta of this query; overlapped executions share the network, so
    /// pipelined callers should use [`Self::query_submit`] /
    /// [`Self::query_wait_all`] and read latency and hops instead.
    pub fn query(&mut self, origin: NodeId, src: &str) -> Result<QueryOutcome, VqlError> {
        let before = self.net.metrics();
        let qid = self.query_submit(origin, src)?;
        let mut out = self.query_wait(qid);
        let d = self.net.metrics().delta(&before);
        out.cost.messages = d.sent;
        out.cost.bytes = d.bytes;
        Ok(out)
    }

    /// Runs one [`OpBatch`] through the routed write path — injected at
    /// `origin` as the backend's coalesced batch messages — and awaits
    /// every ack; returns overall success and the deepest hop count the
    /// acked ops traveled (summed over the backend's messages).
    fn run_batch(&mut self, origin: NodeId, batch: &OpBatch<Triple>) -> (bool, u32) {
        let ocfg = self.cfg.overlay.clone();
        let msgs = O::batch_msgs(&ocfg, &mut || self.fresh_qid(), batch, origin);
        let mut ok = true;
        let mut hops = 0u32;
        for (qid, msg) in msgs {
            self.net.inject(origin, UniMsg::Overlay(msg));
            match self.run_for_storage(qid) {
                Some(OverlayDone::Batch { ok: acked, hops: h, .. }) => {
                    ok &= acked;
                    hops += h;
                }
                _ => ok = false,
            }
        }
        (ok, hops)
    }

    /// Inserts many tuples through the routed protocol path as **one
    /// batched write**: index keys are expanded once per triple, ops are
    /// coalesced per next hop into shared-payload [`OpBatch`] messages
    /// (the paper's Fig. 2 fan-out without the per-key message tax), the
    /// acks aggregate into one completion per batch, and the statistics
    /// absorb the whole batch as a single O(delta) fold.
    ///
    /// This is the bulk-ingest path; [`Self::insert_tuple`] is the
    /// single-tuple convenience wrapper over it.
    pub fn insert_batch(&mut self, origin: NodeId, tuples: &[Tuple]) -> (bool, OpCost) {
        let before = self.net.metrics();
        let start = self.net.now();
        let (batch, triples) = build_insert_batch(tuples, self.cfg.with_qgrams);
        let (ok, hops) = self.run_batch(origin, &batch);
        let mut delta = StatsDelta::new();
        for t in triples {
            delta.record_insert(t.clone());
            self.triples.push(t);
        }
        let d = self.net.metrics().delta(&before);
        self.apply_write_delta(Some(origin), delta);
        (
            ok,
            OpCost {
                messages: d.sent,
                bytes: d.bytes,
                latency: self.net.now().saturating_sub(start),
                hops,
            },
        )
    }

    /// Inserts one tuple through the routed protocol path. A thin
    /// wrapper over [`Self::insert_batch`] — the loop-of-single-inserts
    /// write path is retired.
    pub fn insert_tuple(&mut self, origin: NodeId, tuple: &Tuple) -> (bool, OpCost) {
        self.insert_batch(origin, std::slice::from_ref(tuple))
    }

    /// Deletes many facts through the routed protocol path as one
    /// batched write: every fact's three primary index entries become
    /// delete ops of a single [`OpBatch`], and the statistics absorb the
    /// batch as one O(delta) fold. The value's q-gram posting stays: it
    /// is a hint, and a similarity scan that follows a stale one finds
    /// no row under the A#v key. `version` must be strictly above the
    /// stored entries' (loaded data is at version 0): at an equal version
    /// the delete loses like any equal-version write and is a no-op on
    /// both backends.
    pub fn delete_batch(&mut self, origin: NodeId, facts: &[Triple], version: u64) -> bool {
        let ok = self.run_batch(origin, &build_delete_batch(facts, version)).0;
        let mut delta = StatsDelta::new();
        for triple in facts {
            if let Some(pos) = self.triples.iter().position(|t| {
                t.oid == triple.oid && t.attr == triple.attr && t.value.eq_values(&triple.value)
            }) {
                delta.record_delete(self.triples.swap_remove(pos));
            }
        }
        self.apply_write_delta(Some(origin), delta);
        ok
    }

    /// Updates the value of `(oid, attr)` through the protocol path:
    /// one batch deletes the old primary index entries and inserts the
    /// new ones with a newer version (paper ref \[4\] loose-consistency
    /// updates — the versioned stores make the delete/insert ops
    /// order-independent even when the batch forks), plus the new value's
    /// q-gram posting at version 0. The old value's posting stays, as on
    /// [`Self::delete_batch`]. The statistics absorb the write as an
    /// O(delta) fold — no rescan.
    pub fn update(&mut self, origin: NodeId, old: &Triple, new_value: Value, version: u64) -> bool {
        let new_triple = Triple { oid: old.oid.clone(), attr: old.attr.clone(), value: new_value };
        let batch = build_update_batch(old, &new_triple, version, self.cfg.with_qgrams);
        let ok = self.run_batch(origin, &batch).0;
        let mut delta = StatsDelta::new();
        // Track driver-side view.
        match self.triples.iter_mut().find(|t| t.oid == new_triple.oid && t.attr == new_triple.attr)
        {
            Some(t) => {
                delta.record_delete(t.clone());
                *t = new_triple.clone();
            }
            // Unknown to the driver view: the routed path still
            // inserted the new fact, so track it as a plain insert.
            None => self.triples.push(new_triple.clone()),
        }
        delta.record_insert(new_triple);
        self.apply_write_delta(Some(origin), delta);
        ok
    }

    /// Deletes one fact through the protocol path: removes its entry
    /// from every index it was stored under, as one batched write. The
    /// statistics absorb the write as an O(delta) fold — no rescan. As
    /// for [`Self::delete_batch`], `version` must be strictly above the
    /// stored entry's, or the delete is a no-op on both backends.
    pub fn delete(&mut self, origin: NodeId, triple: &Triple, version: u64) -> bool {
        self.delete_batch(origin, std::slice::from_ref(triple), version)
    }

    /// Raw storage-layer lookup (bypasses the query layer).
    pub fn raw_lookup(&mut self, origin: NodeId, key: Key) -> (Vec<Triple>, OpCost) {
        let qid = self.fresh_qid();
        let before = self.net.metrics();
        let start = self.net.now();
        let msg = O::lookup_msg(&self.cfg.overlay, qid, key, origin);
        self.net.inject(origin, UniMsg::Overlay(msg));
        match self.run_for_storage(qid) {
            Some(OverlayDone::Lookup { items, hops, .. }) => {
                let d = self.net.metrics().delta(&before);
                (
                    items,
                    OpCost {
                        messages: d.sent,
                        bytes: d.bytes,
                        latency: self.net.now().saturating_sub(start),
                        hops,
                    },
                )
            }
            _ => (Vec::new(), OpCost::default()),
        }
    }

    /// Runs the network for a stretch of simulated time.
    pub fn settle(&mut self, duration: SimTime) {
        let deadline = self.net.now() + duration;
        self.net.run_until(deadline);
        // File (or drop as stale) whatever completed along the way.
        self.pump_outputs();
    }
}

/// Parses, analyzes and plans VQL `src` into the mutant query plan a
/// driver injects at `origin` — shared by the simulated cluster driver
/// and the live threaded runtime. The plan's qid is drawn from `qid`
/// only once the query is known to be valid.
pub(crate) fn plan_query(
    origin: NodeId,
    src: &str,
    qid: impl FnOnce() -> u64,
) -> Result<Mqp, VqlError> {
    let analyzed = analyze(parse(src)?)?;
    let logical = Logical::from_query(&analyzed);
    Ok(Mqp::new(
        qid(),
        origin.0,
        MqpNode::from_logical(&logical),
        analyzed.query.filters.clone(),
        analyzed.query.limit.map(|n| n as u64),
    ))
}

/// The q-gram postings one write or one load has placed so far: a
/// string `(attr, value)` pair gets its posting once however many
/// triples of the write carry it. With the q-gram index off it places
/// none.
struct Postings(Option<FxHashSet<(Arc<str>, CompactStr)>>);

impl Postings {
    fn new(with_qgrams: bool) -> Self {
        Postings(with_qgrams.then(FxHashSet::default))
    }

    /// `t`'s posting and its q-gram keys, the first time `t`'s pair is
    /// seen.
    fn first(&mut self, t: &Triple) -> Option<(Triple, Vec<Key>)> {
        let (seen, Value::Str(s)) = (self.0.as_mut()?, &t.value) else { return None };
        if !seen.insert((t.attr.clone(), s.clone())) {
            return None;
        }
        Some((idx::qgram_posting(t)?, idx::qgram_keys(&t.attr, s)))
    }

    /// Appends `t`'s posting to `batch` at version 0, the first time
    /// `t`'s pair is seen, each op naming its key by the posting's slot.
    fn push(&mut self, batch: &mut OpBatch<Triple>, t: &Triple) {
        if let Some((posting, keys)) = self.first(t) {
            let item = batch.add_item(posting);
            for (slot, key) in (idx::FIRST_GRAM_SLOT..).zip(keys) {
                batch.push_derived(key, item, slot, 0);
            }
        }
    }
}

/// Expands tuples into triples and their index fan-out as one
/// [`OpBatch`]: each triple under its three primary keys, and one
/// q-gram posting per distinct string `(attr, value)` of the batch under
/// that value's q-gram keys. Every payload is carried once and
/// referenced by compact tags, and every op names its key by its slot
/// in the payload ([`Item::slot_keys`](unistore_util::item::Item::slot_keys)). This is the batch
/// [`UniCluster::insert_batch`] routes, shared with the live threaded
/// runtime so the two ingest paths cannot drift.
pub fn build_insert_batch(tuples: &[Tuple], with_qgrams: bool) -> (OpBatch<Triple>, Vec<Triple>) {
    let mut batch = OpBatch::new();
    let mut triples = Vec::new();
    let mut postings = Postings::new(with_qgrams);
    for tuple in tuples {
        for t in tuple.to_triples() {
            let item = batch.add_item(t.clone());
            for (slot, key) in (0..).zip(TripleKeys::derive(&t, false).primary()) {
                batch.push_derived(key, item, slot, 0);
            }
            postings.push(&mut batch, &t);
            triples.push(t);
        }
    }
    (batch, triples)
}

/// The batch [`UniCluster::update`] routes to replace `old` with
/// `new_triple` (same OID and attribute) at `version`.
pub(crate) fn build_update_batch(
    old: &Triple,
    new_triple: &Triple,
    version: u64,
    with_qgrams: bool,
) -> OpBatch<Triple> {
    let ident = unistore_util::item::Item::ident(old);
    // Remove the old fact under every primary key; its identity
    // includes the old value, so the new entry (different identity)
    // is untouched even at shared keys (e.g. OID index).
    //
    // A same-value update keeps the identity, so the deletes are
    // skipped: a delete and an insert of ONE identity at the SAME
    // version would be order-dependent once the batch forks (the
    // tombstone wins iff it lands second), whereas the refresh
    // insert alone is deterministic on every route.
    let refresh = ident == unistore_util::item::Item::ident(new_triple);
    let mut batch = OpBatch::new();
    if !refresh {
        for key in TripleKeys::derive(old, false).primary() {
            batch.push_delete(key, ident, version);
        }
    }
    let item = batch.add_item(new_triple.clone());
    for (slot, key) in (0..).zip(TripleKeys::derive(new_triple, false).primary()) {
        batch.push_derived(key, item, slot, version);
    }
    Postings::new(with_qgrams).push(&mut batch, new_triple);
    batch
}

/// The batch [`UniCluster::delete_batch`] routes: each fact's delete
/// under its three primary keys. A delete names an identity, not a
/// payload, so it ships its key.
pub(crate) fn build_delete_batch(facts: &[Triple], version: u64) -> OpBatch<Triple> {
    let mut batch = OpBatch::new();
    for triple in facts {
        let ident = unistore_util::item::Item::ident(triple);
        for key in TripleKeys::derive(triple, false).primary() {
            batch.push_delete(key, ident, version);
        }
    }
    batch
}

/// The q-gram ops the write batch of `tuples` carries: the gram keys of
/// each distinct string `(attr, value)` pair, counted without building
/// the batch (the ingest census).
pub fn qgram_ops(tuples: &[Tuple], with_qgrams: bool) -> usize {
    let mut postings = Postings::new(with_qgrams);
    tuples
        .iter()
        .flat_map(Tuple::to_triples)
        .filter_map(|t| Some(postings.first(&t)?.1.len()))
        .sum()
}

#[cfg(test)]
mod tests {
    //! The statistics plane across a whole cluster: the shard homes hold
    //! the exact statistics, and every peer holds, per attribute and per
    //! shard, the newest summary it received — at ε = 0 after a settled
    //! tick exactly what a rebuild gives, shared by every peer.

    use proptest::prelude::*;
    use unistore_query::cost::shards::attr_shard;
    use unistore_query::cost::{NetParams, StatsHome};
    use unistore_query::GlobalStats;
    use unistore_simnet::{FaultPlan, Window};

    use super::*;
    use crate::backends::{chord_config, ChordUniCluster};

    const TICK: SimTime = SimTime::from_secs(2);
    const SETTLE: SimTime = SimTime::from_secs(3);

    fn world() -> Vec<Tuple> {
        (0..24)
            .map(|i| {
                Tuple::new(&format!("w{i}"))
                    .with("rating", Value::Int(i % 5))
                    .with("name", Value::str(&format!("name-{}", i % 7)))
            })
            .collect()
    }

    /// A write batch that also introduces the attribute `tag`, so a
    /// snapshot shows whether its holder installed the batch's flush.
    fn batch(tag: &str) -> Vec<Tuple> {
        tagged(tag, tag, 6)
    }

    /// `n` tuples `{prefix}-{i}` with a rating and the attribute `tag`.
    fn tagged(prefix: &str, tag: &str, n: i64) -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                Tuple::new(&format!("{prefix}-{i}"))
                    .with("rating", Value::Int(i % 3))
                    .with(tag, Value::Int(i))
            })
            .collect()
    }

    fn snapshot<O: Overlay<Item = Triple>>(c: &UniCluster<O>, node: usize) -> Arc<CostModel> {
        c.net.node(NodeId(node as u32)).cost_model().expect("loaded").clone()
    }

    /// The shard homes' slices united: exact statistics, comparable
    /// field for field with a build.
    fn homes_united<O: Overlay<Item = Triple>>(c: &UniCluster<O>, net: NetParams) -> GlobalStats {
        let homes = c.net.iter_nodes().flat_map(|(_, n)| n.stats_homes().iter().flatten());
        GlobalStats::from_homes(homes, net)
    }

    /// Every peer plans on summaries: no refcount map outside the
    /// homes.
    fn no_peer_holds_a_map<O: Overlay<Item = Triple>>(c: &UniCluster<O>) {
        for node in 0..c.net.len() {
            let s = &snapshot(c, node).stats;
            assert!(!s.is_exact(), "node {node} holds the OID or value map");
            assert!(s.attrs.values().all(|a| !a.is_exact()), "node {node} holds a refcount map");
        }
    }

    /// One shard per home: every shard has a home, and no home is
    /// installed twice.
    fn one_home_per_shard<O: Overlay<Item = Triple>>(c: &UniCluster<O>) {
        for shard in 0..STATS_SHARDS {
            let holders = c
                .net
                .iter_nodes()
                .filter(|(_, n)| n.stats_homes()[shard as usize].is_some())
                .map(|(id, _)| id)
                .collect::<Vec<_>>();
            assert_eq!(holders, vec![c.stats_home(shard).expect("a home")], "shard {shard}");
        }
    }

    fn pgrid(replication: usize, seed: u64) -> UniCluster {
        let cfg = UniConfig::default()
            .with_replication(replication)
            .with_stats_refresh(TICK)
            .with_stats_epsilon(0.0);
        UniCluster::build(16, cfg, seed)
    }

    /// Chord's replicated setting is its only one: a group of the owner
    /// and its successor.
    fn chord(replicate: bool, seed: u64) -> ChordUniCluster {
        let mut cfg = chord_config().with_stats_refresh(TICK).with_stats_epsilon(0.0);
        cfg.overlay.replicate = replicate;
        ChordUniCluster::build_overlay(16, cfg, seed)
    }

    /// Loss-free at ε = 0: inserts, an update and a delete from two
    /// origins over three ticks leave every one of the 16 peers with
    /// every estimator input — totals, byte sum, distinct OIDs and
    /// values, every attribute's fields and histogram buckets — equal
    /// to a rebuild over the driver's triples, on summaries all peers
    /// share; the shard homes together hold the rebuild's maps and
    /// attribute statistics exactly, and no other peer holds a map.
    fn one_snapshot_after_the_tick<O: Overlay<Item = Triple>>(mut c: UniCluster<O>) {
        c.load(world());
        for (tick, origin) in [(0, 3u32), (1, 9), (2, 3)] {
            let (ok, _) = c.insert_batch(NodeId(origin), &batch(&format!("t{tick}")));
            assert!(ok, "routed insert acked");
            if tick == 1 {
                let old = c.triples().iter().find(|t| &*t.attr == "t0").cloned().expect("t0");
                assert!(c.update(NodeId(origin), &old, Value::Int(99), 1));
                let gone = c.triples().iter().find(|t| &*t.attr == "name").cloned().expect("name");
                assert!(c.delete(NodeId(origin), &gone, 2));
            }
            c.settle(SETTLE);
        }
        let shared = snapshot(&c, 0);
        let want = GlobalStats::build(c.triples(), shared.stats.net);
        for node in 0..c.net.len() {
            let held = snapshot(&c, node);
            assert!(held.stats.same_estimates(&want), "node {node} is not the build");
            for (attr, a) in &held.stats.attrs {
                assert!(Arc::ptr_eq(a, &shared.stats.attrs[attr]), "node {node} copied {attr}");
            }
        }
        assert!(homes_united(&c, shared.stats.net) == want, "the homes are not the build");
        no_peer_holds_a_map(&c);
        one_home_per_shard(&c);
    }

    #[test]
    fn loss_free_cluster_shares_one_exact_snapshot_pgrid() {
        one_snapshot_after_the_tick(pgrid(1, 5));
    }

    #[test]
    fn loss_free_cluster_shares_one_exact_snapshot_pgrid_r3() {
        one_snapshot_after_the_tick(pgrid(3, 5));
    }

    #[test]
    fn loss_free_cluster_shares_one_exact_snapshot_chord() {
        one_snapshot_after_the_tick(chord(false, 6));
    }

    #[test]
    fn loss_free_cluster_shares_one_exact_snapshot_chord_replicated() {
        one_snapshot_after_the_tick(chord(true, 6));
    }

    /// Under 2 % loss during dissemination, a peer that missed a notice
    /// keeps older summaries. Whatever it holds is a publication: per
    /// attribute and per shard, the load's (publication 0, the very
    /// summary every peer was handed) or the one a notice carried under
    /// that publication number (the very `Arc` that notice carried); it
    /// holds at least every publication of each notice it received; and
    /// its totals and distinct counts are the sums of what it holds.
    fn lossy_ticks_keep_every_snapshot_exact<O: Overlay<Item = Triple>>(mut c: UniCluster<O>) {
        c.load(world());
        let load = snapshot(&c, 0);
        let mut origins = Vec::new();
        for tick in 0..8u32 {
            let origin = NodeId(tick * 5 % 16);
            let (ok, _) = c.insert_batch(origin, &batch(&format!("t{tick}")));
            assert!(ok, "routed insert acked");
            origins.push(origin);
            c.net.set_loss_rate(0.02);
            c.settle(SETTLE);
            c.net.set_loss_rate(0.0);
        }
        // Every origin writes once, so it sent at most one notice.
        let (mut notices, mut ticks) = (Vec::new(), Vec::new());
        for (tick, origin) in origins.iter().enumerate() {
            let node = c.net.node(*origin);
            assert!(node.notices_sent <= 1, "origin {origin:?} sent {}", node.notices_sent);
            if let Some(n) = node.last_notice.clone() {
                ticks.push((format!("t{tick}"), n.clone()));
                notices.push(n);
            }
        }
        assert!(!notices.is_empty(), "the homes published");
        let attr_published = |attr: &str, seq: u64| {
            notices.iter().flat_map(|n| n.get().attrs()).find(|s| &*s.attr == attr && s.seq == seq)
        };
        let mut missed = 0;
        for node in 0..c.net.len() {
            let held = snapshot(&c, node).stats.clone();
            let mut names: Vec<&Arc<str>> = held.attrs.keys().collect();
            names.extend(notices.iter().flat_map(|n| n.get().attrs()).map(|s| &s.attr));
            names.sort();
            names.dedup();
            for attr in names {
                let mine = held.attrs.get(attr);
                match held.version(attr) {
                    0 => assert!(
                        match (mine, load.stats.attrs.get(attr)) {
                            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                            (a, b) => a.is_none() && b.is_none(),
                        },
                        "node {node}: {attr} is not the load's"
                    ),
                    seq => {
                        let s = attr_published(attr, seq).expect("a published version");
                        let gone = s.stats.count == 0.0;
                        assert!(
                            mine.map_or(gone, |a| Arc::ptr_eq(a, &s.stats)),
                            "node {node}: {attr} is not publication {seq}"
                        );
                    }
                }
                let newest = notices
                    .iter()
                    .flat_map(|n| n.get().attrs())
                    .filter(|s| s.attr == *attr)
                    .map(|s| s.seq)
                    .max()
                    .unwrap_or(0);
                missed += (held.version(attr) < newest) as usize;
            }
            for (shard, counts) in held.shard_counts().iter().enumerate() {
                let published = load.stats.shard_counts()[shard] == *counts
                    || notices
                        .iter()
                        .flat_map(|n| n.get().shards())
                        .any(|&(s, c)| s as usize == shard && c == *counts);
                assert!(published, "node {node}: shard {shard} holds no publication");
            }
            let total: f64 = held.attrs.values().map(|a| a.count).sum();
            let oids: f64 = held.shard_counts().iter().map(|s| s.oids as f64).sum();
            let values: f64 = held.shard_counts().iter().map(|s| s.values as f64).sum();
            assert_eq!(
                (held.total, held.oid_distinct, held.value_distinct),
                (total, oids, values),
                "node {node}: the totals are not the sums"
            );
            // Only its tick's notice carries a tick's new attribute, so
            // a peer holding that publication received the notice, and
            // holds at least every publication the notice carried.
            for (tag, n) in &ticks {
                let Some(s) = n.get().attrs().iter().find(|s| *s.attr == **tag) else { continue };
                if held.version(tag) < s.seq {
                    continue;
                }
                for s in n.get().attrs() {
                    assert!(held.version(&s.attr) >= s.seq, "node {node}: older {}", s.attr);
                }
                for (shard, counts) in n.get().shards() {
                    let mine = held.shard_counts()[*shard as usize].seq;
                    assert!(mine >= counts.seq, "node {node}: older shard {shard}");
                }
            }
        }
        assert!(missed > 0, "the loss must cost some peer a publication");
    }

    #[test]
    fn lossy_dissemination_keeps_private_snapshots_exact_pgrid() {
        lossy_ticks_keep_every_snapshot_exact(pgrid(1, 7));
    }

    #[test]
    fn lossy_dissemination_keeps_private_snapshots_exact_chord() {
        lossy_ticks_keep_every_snapshot_exact(chord(false, 8));
    }

    /// Shard homes' acks that arrive after the ack wait: the flush goes
    /// at the deadline without their summaries, so no peer learns the
    /// writes, and the late summaries ride the origin's next notice —
    /// after which every peer is exact again.
    fn a_late_ack_rides_the_next_notice<O: Overlay<Item = Triple>>(mut c: UniCluster<O>) {
        c.load(world());
        let origin = NodeId(3);
        let tuples = batch("late");
        let mut delta = StatsDelta::new();
        tuples.iter().flat_map(Tuple::to_triples).for_each(|t| delta.record_insert(t));
        let mut all = c.triples().to_vec();
        all.extend(tuples.iter().flat_map(Tuple::to_triples));
        let mut homes: Vec<NodeId> = (0..STATS_SHARDS).filter_map(|s| c.stats_home(s)).collect();
        homes.sort_unstable();
        homes.dedup();
        assert_ne!(c.stats_home(attr_shard("late")), Some(origin), "the tag's home is remote");
        let mut plan = FaultPlan::new();
        for &home in homes.iter().filter(|&&h| h != origin) {
            plan = plan.delay_spike(Some(home), Some(origin), TICK, Window::always());
        }
        c.net.set_fault_plan(plan);
        let (epoch, delta) = (c.stats_epoch, Shared::new(delta));
        c.net.inject(origin, UniMsg::Query(QueryMsg::StatsDelta { epoch, delta }));
        // The tick at 2 s sends the pieces; the acks land at about 4 s,
        // the ack wait ends the flush at 3 s.
        c.settle(SimTime::from_millis(3_100));
        let net = snapshot(&c, 0).stats.net;
        let want = GlobalStats::build(&all, net);
        assert!(homes_united(&c, net) == want, "the homes folded the pieces");
        for node in 0..c.net.len() {
            assert!(!snapshot(&c, node).stats.attrs.contains_key("late"), "node {node} learnt");
        }
        // The tick at 4 s finds the acks still in flight; the one at 6 s
        // sends what they carried.
        c.settle(SimTime::from_secs(4));
        for node in 0..c.net.len() {
            assert!(snapshot(&c, node).stats.same_estimates(&want), "node {node} is not exact");
        }
    }

    #[test]
    fn a_late_ack_rides_the_next_notice_pgrid() {
        a_late_ack_rides_the_next_notice(pgrid(1, 12));
    }

    #[test]
    fn a_late_ack_rides_the_next_notice_chord() {
        a_late_ack_rides_the_next_notice(chord(true, 13));
    }

    /// A peer cut off while one flush's notice spreads misses what it
    /// published; the next flush republishes every summary the first
    /// did (it writes the same attributes and touches the same shards),
    /// and the peer is exact again.
    #[test]
    fn a_missed_publication_heals_at_the_next() {
        let mut c = pgrid(1, 21);
        c.load(world());
        let origin = NodeId(3);
        // The origin's first tree child is a leaf of its notice's tree.
        let cut = NodeId(4);
        assert!((0..STATS_SHARDS).all(|s| c.stats_home(s) != Some(cut)), "the cut peer is no home");
        assert!(c.insert_batch(origin, &tagged("m", "healed", 6)).0);
        // Cut through the next tick and its ack wait.
        let first = Window::new(c.net.now(), c.net.now() + TICK + TICK);
        c.net.set_fault_plan(FaultPlan::new().partition("cut", [cut], first));
        c.settle(SETTLE);
        let net = snapshot(&c, 0).stats.net;
        let want = GlobalStats::build(c.triples(), net);
        assert!(!snapshot(&c, cut.index()).stats.same_estimates(&want), "the cut peer missed it");
        assert!(snapshot(&c, 0).stats.same_estimates(&want), "the others did not");
        let missed = c.net.node(origin).last_notice.clone().expect("a publication");
        c.net.set_fault_plan(FaultPlan::new());
        assert!(c.insert_batch(origin, &tagged("n", "healed", 16)).0);
        c.settle(SETTLE);
        let next = c.net.node(origin).last_notice.clone().expect("a publication");
        for s in missed.get().attrs() {
            assert!(next.get().attrs().iter().any(|t| t.attr == s.attr), "{} republished", s.attr);
        }
        for (shard, _) in missed.get().shards() {
            assert!(next.get().shards().iter().any(|(s, _)| s == shard), "shard {shard}");
        }
        let want = GlobalStats::build(c.triples(), net);
        for node in 0..c.net.len() {
            assert!(snapshot(&c, node).stats.same_estimates(&want), "node {node} is not exact");
        }
    }

    /// At ε > 0 with no loss, after every settled tick each peer's
    /// estimator inputs stay within ε of the build's: every published
    /// number of every attribute within ε × max(published, 1) of the
    /// truth, its histogram within ε × max(count, 1) buckets, every
    /// shard's counts within ε of what its home holds — and so the
    /// totals within ε of the truth, summed over what they add up.
    #[test]
    fn epsilon_bounds_every_estimator_input() {
        const EPSILON: f64 = 0.1;
        let cfg = UniConfig::default().with_stats_refresh(TICK).with_stats_epsilon(EPSILON);
        let mut c = UniCluster::build(16, cfg, 23);
        c.load(world());
        let mut skipped = 0;
        for tick in 0..12u32 {
            let origin = NodeId(tick * 3 % 16);
            assert!(c.insert_batch(origin, &tagged(&format!("e{tick}"), "grows", 3)).0);
            c.settle(SETTLE);
            let net = snapshot(&c, 0).stats.net;
            let want = GlobalStats::build(c.triples(), net);
            let homes: Vec<&StatsHome> =
                c.net.iter_nodes().flat_map(|(_, n)| n.stats_homes().iter().flatten()).collect();
            let within =
                |got: f64, truth: f64, of: f64| (got - truth).abs() <= EPSILON * of.max(1.0);
            for node in 0..c.net.len() {
                let held = snapshot(&c, node).stats.clone();
                skipped += !held.same_estimates(&want) as usize;
                let mut slack = 0.0;
                for (attr, truth) in &want.attrs {
                    let a = held.attrs.get(attr).expect("every attribute published");
                    slack += a.count.max(1.0);
                    for (got, exact) in [
                        (a.count, truth.count),
                        (a.bytes, truth.bytes),
                        (a.distinct, truth.distinct),
                        (a.join_distinct, truth.join_distinct),
                        (a.gram_postings, truth.gram_postings),
                        (a.gram_distinct, truth.gram_distinct),
                    ] {
                        assert!(within(got, exact, got), "node {node}, {attr}: {got} vs {exact}");
                    }
                    let l1 = a.hist.l1_distance(&truth.hist) as f64;
                    assert!(l1 <= EPSILON * truth.count.max(1.0), "node {node}, {attr}: L1 {l1}");
                }
                assert!(within(held.total, want.total, slack), "node {node}: total");
                for (shard, counts) in held.shard_counts().iter().enumerate() {
                    let home = homes.iter().find(|h| h.shard() as usize == shard).expect("home");
                    let oids = home.oids().len() as f64;
                    assert!(within(counts.oids as f64, oids, counts.oids as f64), "node {node}");
                }
            }
        }
        assert!(skipped > 0, "ε = {EPSILON} must leave some change unpublished");
    }

    /// Retries purge an attempt while its storage ops are still out (the
    /// owner of the scanned key is down); their late completions have no
    /// reader and must not pile up in the driver's raw-storage table.
    #[test]
    fn purged_attempts_leave_no_storage_completions() {
        let cfg = UniConfig {
            query_timeout: SimTime::from_secs(1),
            plan_mode: PlanMode { no_forward: true, ..PlanMode::default() },
            ..UniConfig::default()
        };
        let mut c = UniCluster::build(16, cfg, 11);
        c.load(
            (0..8).map(|i| Tuple::new(&format!("o{i}")).with("name", Value::str(&format!("n{i}")))),
        );
        let key = unistore_store::index::attr_value_key("name", &Value::str("n3"));
        let owner = NodeId(c.topology().holders(key)[0] as u32);
        c.net.schedule_down(owner, c.net.now());
        let origin = NodeId((owner.0 + 1) % 16);
        c.query(origin, "SELECT ?o WHERE {(?o,'name','n3')}").expect("parses");
        c.settle(SimTime::from_secs(60));
        let orphans = c.done_storage.keys().filter(|&&qid| qid >= 1 << 62).count();
        assert_eq!(orphans, 0, "executor completions filed for the driver");
    }

    /// `qgram_ops` counts the q-gram ops of the batch `build_insert_batch`
    /// builds: one posting per distinct name, not one per tuple.
    #[test]
    fn qgram_ops_count_the_batchs_gram_keys() {
        use unistore_store::IndexKind;
        for with_qgrams in [true, false] {
            let (batch, _) = build_insert_batch(&world(), with_qgrams);
            let grams =
                batch.ops.iter().filter(|op| IndexKind::of_key(op.key) == IndexKind::QGram).count();
            assert_eq!(qgram_ops(&world(), with_qgrams), grams);
        }
        let one_name = idx::qgram_keys("name", "name-0").len();
        assert_eq!(qgram_ops(&world(), true), 7 * one_name, "7 distinct names of equal length");
    }

    /// One tick of writes at one origin, one write per delta as the
    /// driver hands them over — including deletes of pairs the build
    /// does not count yet, followed by their inserts. The homes fold the
    /// compacted flush (inserts before deletes, the deletes settled by
    /// the attribute homes); whatever the origin planned on in between,
    /// it ends the tick installing what every receiver installs. At
    /// ε = 0 every peer's estimates equal the load-time build with that
    /// flush folded in, and the homes together hold that fold exactly.
    fn origin_ends_the_tick<O: Overlay<Item = Triple>>(
        mut c: UniCluster<O>,
        ops: Vec<(bool, usize, i64)>,
    ) {
        let load: Vec<Tuple> =
            (0..4).map(|i| Tuple::new(&format!("o{i}")).with("score", Value::Int(i))).collect();
        c.load(load.clone());
        let origin = NodeId(5);
        let mut flushed = StatsDelta::new();
        for (delete, oid, value) in ops {
            let t = Triple::new(&format!("o{oid}"), "score", Value::Int(value));
            let mut d = StatsDelta::new();
            match delete {
                true => d.record_delete(t),
                false => d.record_insert(t),
            }
            flushed.merge(d.clone());
            let (epoch, delta) = (c.stats_epoch, Shared::new(d));
            c.net.inject(origin, UniMsg::Query(QueryMsg::StatsDelta { epoch, delta }));
        }
        c.settle(SETTLE);
        flushed.compact();
        let held = snapshot(&c, origin.index());
        let triples: Vec<Triple> = load.iter().flat_map(Tuple::to_triples).collect();
        let mut want = GlobalStats::build(&triples, held.stats.net);
        want.apply_delta(&flushed);
        assert!(held.stats.same_estimates(&want), "the origin is not the fold of its flush");
        for node in 0..c.net.len() {
            assert!(snapshot(&c, node).stats == held.stats, "node {node} differs");
        }
        assert!(homes_united(&c, held.stats.net) == want, "the homes are not the fold");
        no_peer_holds_a_map(&c);
    }

    proptest! {
        #[test]
        fn origin_ends_the_tick_holding_what_receivers_hold(
            ops in proptest::collection::vec((any::<bool>(), 0usize..4, 0i64..6), 1..24),
            backend in 0usize..4,
        ) {
            let cfg = UniConfig::default().with_stats_refresh(TICK).with_stats_epsilon(0.0);
            match backend {
                0 => origin_ends_the_tick(UniCluster::build(8, cfg, 9), ops),
                1 => origin_ends_the_tick(UniCluster::build(8, cfg.with_replication(3), 9), ops),
                _ => {
                    let mut cfg = chord_config().with_stats_refresh(TICK).with_stats_epsilon(0.0);
                    cfg.overlay.replicate = backend == 3;
                    origin_ends_the_tick(ChordUniCluster::build_overlay(8, cfg, 9), ops)
                }
            }
        }
    }
}

#[cfg(test)]
mod write_batch_codec {
    //! The write batches the cluster builds, through the codec of each
    //! backend's first message: every insert names its key by its slot
    //! in the payload, and what decodes is what was built.

    use proptest::prelude::*;
    use unistore_chord::{ChordConfig, ChordNode};
    use unistore_overlay::Overlay;
    use unistore_pgrid::msg::PGridMsg;
    use unistore_util::item::Item;
    use unistore_util::wire::{BatchVerb, Wire};

    use super::*;

    /// Encodes, checks the length against the arithmetic size, decodes
    /// and compares by `Debug` (an `Int` must not come back a `Float`).
    fn roundtrip<M: Wire + std::fmt::Debug>(msg: &M) {
        let bytes = msg.to_bytes();
        assert_eq!(bytes.len(), msg.wire_size(), "size of {msg:?}");
        let back = M::from_bytes(&bytes).expect("a built batch decodes");
        assert_eq!(format!("{back:?}"), format!("{msg:?}"));
    }

    /// Every insert of `batch` is derived and its slot names its key;
    /// the batch and both backends' messages of it round-trip.
    fn check(batch: &OpBatch<Triple>) {
        for op in &batch.ops {
            if let BatchVerb::Insert { item, slot } = op.verb {
                let slot = slot.expect("every insert names its key by slot");
                assert_eq!(batch.items[item as usize].slot_key(slot), Some(op.key));
            }
        }
        roundtrip(batch);
        let origin = NodeId(3);
        // P-Grid's as it leaves the origin peer, with one position per op.
        let positions = (0..batch.len() as u32).collect();
        let msg = PGridMsg::OpBatch { qid: 1, origin, hops: 1, positions, batch: batch.clone() };
        roundtrip(&UniMsg::<_>::Overlay(msg));
        let cfg = ChordConfig::default();
        for (_, msg) in ChordNode::<Triple>::batch_msgs(&cfg, &mut || 2, batch, origin) {
            roundtrip(&UniMsg::<_>::Overlay(msg));
        }
    }

    fn value(kind: u8, s: &str, i: i64) -> Value {
        match kind {
            0 => Value::Int(i),
            1 => Value::Float(i as f64 / 8.0),
            2 => Value::str(s),
            // A title: past the 12 grams whose slots fit the flag byte.
            _ => Value::str(&format!("Towards {s} in a DHT-based universal storage")),
        }
    }

    proptest! {
        #[test]
        fn built_batches_decode_to_every_key(
            raw in proptest::collection::vec(
                (0u8..6, proptest::collection::vec((0u8..5, 0u8..4, "[a-zé ]{0,20}", any::<i64>()), 1..5)),
                1..12,
            ),
            with_qgrams: bool,
            version in 0u64..3,
        ) {
            let attrs = ["name", "pub:title", "year", "score", "tag"];
            let tuples: Vec<Tuple> = raw
                .iter()
                .map(|(oid, fields)| {
                    fields.iter().fold(Tuple::new(&format!("o{oid}")), |t, (a, kind, s, i)| {
                        t.with(attrs[*a as usize], value(*kind, s, *i))
                    })
                })
                .collect();
            let (batch, triples) = build_insert_batch(&tuples, with_qgrams);
            prop_assert!(batch.ops.iter().all(|op| matches!(op.verb, BatchVerb::Insert { .. })));
            check(&batch);
            for (k, old) in triples.iter().enumerate() {
                let (_, kind, s, i) = &raw[k % raw.len()].1[0];
                check(&build_update_batch(old, &Triple { value: value(*kind, s, *i), ..old.clone() }, version + 1, with_qgrams));
                // A refresh: the same value again, no deletes.
                check(&build_update_batch(old, old, version + 1, with_qgrams));
            }
            check(&build_delete_batch(&triples, version));
        }
    }
}
