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
use unistore_query::{CostModel, Coverage, Logical, Mqp, MqpNode, Relation, StatsDelta};
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
use crate::stats::build_cost_model;

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
    fn rebuild_stats(&mut self) {
        self.stats_epoch += 1;
        let model = build_cost_model(
            &self.triples,
            self.net.len(),
            self.topology.partitions(),
            self.topology.replication(),
            self.net.expected_link_delay(),
        );
        self.cost = Some(model.clone());
        for i in 0..self.net.len() {
            self.net.node_mut(NodeId(i as u32)).reset_stats(model.clone(), self.stats_epoch);
        }
    }

    /// Folds a write batch into the statistics — O(delta), no rescan.
    ///
    /// The driver's master model absorbs the delta immediately (it is
    /// the oracle's and `cost_model()`'s view). With an `origin`, the
    /// delta is also injected there as an in-band
    /// [`QueryMsg::StatsDelta`]: the origin node folds it in on receipt
    /// and re-broadcasts it to the other peers on its next
    /// stats-refresh tick, so remote planners converge without any
    /// driver-side fan-out.
    fn apply_write_delta(&mut self, origin: Option<NodeId>, delta: StatsDelta) {
        if delta.is_empty() {
            return;
        }
        if let Some(model) = self.cost.as_mut() {
            Arc::make_mut(model).apply_delta(&delta);
        }
        match origin {
            Some(origin) => self.net.inject(
                origin,
                UniMsg::Query(QueryMsg::StatsDelta {
                    epoch: self.stats_epoch,
                    span: 0,
                    delta: Shared::new(delta),
                }),
            ),
            // No routed path (driver-side metadata write): fold the
            // delta into every node directly, mirroring the preload.
            None => {
                for i in 0..self.net.len() {
                    self.net.node_mut(NodeId(i as u32)).apply_stats_delta(&delta);
                }
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
        let mut batch: OpBatch<Triple> = OpBatch::new();
        for triple in facts {
            let ident = unistore_util::item::Item::ident(triple);
            for key in TripleKeys::derive(triple, false).primary() {
                batch.push_delete(key, ident, version);
            }
        }
        let ok = self.run_batch(origin, &batch).0;
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
        let refresh = ident == unistore_util::item::Item::ident(&new_triple);
        let mut batch = OpBatch::new();
        if !refresh {
            for key in TripleKeys::derive(old, false).primary() {
                batch.push_delete(key, ident, version);
            }
        }
        let item = batch.add_item(new_triple.clone());
        for key in TripleKeys::derive(&new_triple, false).primary() {
            batch.push_insert(key, item, version);
        }
        Postings::new(self.cfg.with_qgrams).push(&mut batch, &new_triple);
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
    /// `t`'s pair is seen.
    fn push(&mut self, batch: &mut OpBatch<Triple>, t: &Triple) {
        if let Some((posting, keys)) = self.first(t) {
            let item = batch.add_item(posting);
            for key in keys {
                batch.push_insert(key, item, 0);
            }
        }
    }
}

/// Expands tuples into triples and their index fan-out as one
/// [`OpBatch`]: each triple under its three primary keys, and one
/// q-gram posting per distinct string `(attr, value)` of the batch under
/// that value's q-gram keys. Every payload is carried once and
/// referenced by compact tags. This is the batch
/// [`UniCluster::insert_batch`] routes, shared with the live threaded
/// runtime so the two ingest paths cannot drift.
pub(crate) fn build_insert_batch(
    tuples: &[Tuple],
    with_qgrams: bool,
) -> (OpBatch<Triple>, Vec<Triple>) {
    let mut batch = OpBatch::new();
    let mut triples = Vec::new();
    let mut postings = Postings::new(with_qgrams);
    for tuple in tuples {
        for t in tuple.to_triples() {
            let item = batch.add_item(t.clone());
            for key in TripleKeys::derive(&t, false).primary() {
                batch.push_insert(key, item, 0);
            }
            postings.push(&mut batch, &t);
            triples.push(t);
        }
    }
    (batch, triples)
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
    //! The statistics plane across a whole cluster: after a settled tick
    //! the peers that folded the same deltas hold one snapshot, and every
    //! snapshot — shared or private — is exactly the fold of the deltas
    //! its holder received.

    use proptest::prelude::*;
    use unistore_query::GlobalStats;

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
    /// snapshot shows whether its holder folded the batch's delta.
    fn batch(tag: &str) -> Vec<Tuple> {
        (0..6i64)
            .map(|i| {
                Tuple::new(&format!("{tag}-{i}"))
                    .with("rating", Value::Int(i % 3))
                    .with(tag, Value::Int(i))
            })
            .collect()
    }

    fn snapshot<O: Overlay<Item = Triple>>(c: &UniCluster<O>, node: usize) -> Arc<CostModel> {
        c.net.node(NodeId(node as u32)).cost_model().expect("loaded").clone()
    }

    /// Loss-free: inserts, an update and a delete from two origins over
    /// three ticks leave all 16 peers on one snapshot, equal to a rebuild
    /// over the driver's triples.
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
        for node in 1..c.net.len() {
            assert!(Arc::ptr_eq(&shared, &snapshot(&c, node)), "node {node} holds its own copy");
        }
        assert!(shared.stats == GlobalStats::build(c.triples(), shared.stats.net));
    }

    #[test]
    fn loss_free_cluster_shares_one_exact_snapshot_pgrid() {
        one_snapshot_after_the_tick(UniCluster::build(
            16,
            UniConfig::default().with_stats_refresh(TICK),
            5,
        ));
    }

    #[test]
    fn loss_free_cluster_shares_one_exact_snapshot_chord() {
        one_snapshot_after_the_tick(ChordUniCluster::build_overlay(
            16,
            chord_config().with_stats_refresh(TICK),
            6,
        ));
    }

    /// Under 2 % loss during dissemination, a peer that missed a delta
    /// keeps a private snapshot, and it is exactly the load-time snapshot
    /// with the deltas it did receive folded in, in tick order.
    fn lossy_ticks_keep_every_snapshot_exact<O: Overlay<Item = Triple>>(mut c: UniCluster<O>) {
        c.load(world());
        let load = snapshot(&c, 0);
        let mut deltas = Vec::new();
        for tick in 0..8u32 {
            let tag = format!("t{tick}");
            let tuples = batch(&tag);
            let (ok, _) = c.insert_batch(NodeId(tick * 5 % 16), &tuples);
            assert!(ok, "routed insert acked");
            let mut d = StatsDelta::new();
            tuples.iter().flat_map(Tuple::to_triples).for_each(|t| d.record_insert(t));
            deltas.push((tag, d));
            c.net.set_loss_rate(0.02);
            c.settle(SETTLE);
            c.net.set_loss_rate(0.0);
        }
        let mut missed = 0;
        for node in 0..c.net.len() {
            let held = snapshot(&c, node);
            let mut want = load.stats.clone();
            for (tag, d) in &deltas {
                match held.stats.attrs.contains_key(tag.as_str()) {
                    true => want.apply_delta(d),
                    false => missed += 1,
                }
            }
            assert!(held.stats == want, "node {node} is not the fold of the deltas it received");
        }
        assert!(missed > 0, "the loss must cost some peer a delta");
    }

    #[test]
    fn lossy_dissemination_keeps_private_snapshots_exact_pgrid() {
        lossy_ticks_keep_every_snapshot_exact(UniCluster::build(
            16,
            UniConfig::default().with_stats_refresh(TICK),
            7,
        ));
    }

    #[test]
    fn lossy_dissemination_keeps_private_snapshots_exact_chord() {
        lossy_ticks_keep_every_snapshot_exact(ChordUniCluster::build_overlay(
            16,
            chord_config().with_stats_refresh(TICK),
            8,
        ));
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

    proptest! {
        /// One tick of writes at one origin, one write per delta as the
        /// driver hands them over — including deletes of pairs the
        /// snapshot does not count yet, followed by their inserts. The
        /// receivers fold the compacted flush (inserts before deletes);
        /// so must the origin, whatever it planned on in between.
        #[test]
        fn origin_ends_the_tick_holding_what_receivers_hold(
            ops in proptest::collection::vec((any::<bool>(), 0usize..4, 0i64..6), 1..24),
        ) {
            let mut c = UniCluster::build(8, UniConfig::default().with_stats_refresh(TICK), 9);
            c.load((0..4).map(|i| Tuple::new(&format!("o{i}")).with("score", Value::Int(i))));
            let origin = NodeId(5);
            for (delete, oid, value) in ops {
                let t = Triple::new(&format!("o{oid}"), "score", Value::Int(value));
                let mut d = StatsDelta::new();
                match delete {
                    true => d.record_delete(t),
                    false => d.record_insert(t),
                }
                let (epoch, delta) = (c.stats_epoch, Shared::new(d));
                c.net.inject(origin, UniMsg::Query(QueryMsg::StatsDelta { epoch, span: 0, delta }));
            }
            c.settle(SETTLE);
            let held = snapshot(&c, origin.index());
            for node in 0..c.net.len() {
                prop_assert!(snapshot(&c, node).stats == held.stats, "node {} differs", node);
            }
        }
    }
}
