//! Driver-facing harness: a P-Grid overlay inside a [`SimNet`].
//!
//! Experiments, benches and the upper UniStore layers talk to the overlay
//! through this type: build a network, preload data, issue operations,
//! and get back items *plus the operation's network cost* (messages,
//! bytes, hops, simulated latency).

use rand::rngs::StdRng;
use rand::Rng;

use unistore_overlay::{run_op, Overlay, OverlayDone};
use unistore_simnet::metrics::OpCost;
use unistore_simnet::{LatencyModel, NodeId, SimNet, SimTime};
use unistore_util::rng::{derive_rng, stream};
use unistore_util::wire::OpBatch;
use unistore_util::{BitPath, Key};

use crate::config::PGridConfig;
use crate::construct::leaf_of;
use crate::item::{Item, Version};
use crate::msg::{PGridMsg, QueryId, RangeMode};
use crate::peer::PGridPeer;

/// How the overlay's trie is shaped at build time.
#[derive(Clone, Debug)]
pub enum Topology {
    /// Data-adaptive (P-Grid's converged, load-balanced state); the
    /// sample drives where the trie deepens.
    Balanced {
        /// Sample of the keys the overlay will store.
        sample: Vec<Key>,
    },
    /// Complete trie regardless of data (the no-balancing strawman).
    Uniform,
}

/// Result of a lookup issued through the cluster.
#[derive(Clone, Debug)]
pub struct LookupOutcome<I> {
    /// Items found under the key.
    pub items: Vec<I>,
    /// `false` on routing failure or timeout.
    pub ok: bool,
    /// Network cost attributed to this operation.
    pub cost: OpCost,
}

/// Result of a range query issued through the cluster.
#[derive(Clone, Debug)]
pub struct RangeOutcome<I> {
    /// All matching items.
    pub items: Vec<I>,
    /// Whether coverage of the interval completed.
    pub complete: bool,
    /// Leaf replies received.
    pub leaves: u32,
    /// Network cost attributed to this operation.
    pub cost: OpCost,
}

/// Result of an insert issued through the cluster.
#[derive(Clone, Debug)]
pub struct InsertOutcome {
    /// `false` on timeout.
    pub ok: bool,
    /// Network cost attributed to this operation.
    pub cost: OpCost,
}

/// A simulated P-Grid overlay.
pub struct PGridCluster<I: Item> {
    /// The underlying simulated network (public: experiments inspect
    /// per-node state and metrics directly).
    pub net: SimNet<PGridPeer<I>>,
    leaves: Vec<BitPath>,
    leaf_peers: Vec<Vec<NodeId>>,
    next_qid: QueryId,
    rng: StdRng,
}

impl<I: Item + Send + 'static> PGridCluster<I> {
    /// Builds a converged overlay of `n_peers` peers through
    /// [`Overlay::plan`] and [`Overlay::spawn`].
    ///
    /// Leaf count is `n_peers / cfg.replication`; peers are spread over
    /// the leaves so every leaf has at least `replication` peers. Routing
    /// tables are filled with `cfg.refs_per_level` random references per
    /// level, replica groups are mutually registered.
    pub fn build(
        n_peers: usize,
        cfg: PGridConfig,
        topology: Topology,
        latency: impl LatencyModel + 'static,
        seed: u64,
    ) -> Self {
        assert!(n_peers >= 1);
        let sample = match &topology {
            Topology::Balanced { sample } => Some(sample.as_slice()),
            Topology::Uniform => None,
        };
        let topology = PGridPeer::<I>::plan(n_peers, &cfg, sample, seed);
        let mut net = SimNet::new(latency, seed);
        for peer in 0..n_peers {
            net.add_node(PGridPeer::spawn(&topology, peer, &cfg, seed));
        }
        let plan = topology.plan;
        let leaf_peers = plan
            .leaf_peers
            .iter()
            .map(|ps| ps.iter().map(|&p| NodeId(p as u32)).collect())
            .collect();
        let rng = derive_rng(seed, stream::OVERLAY);
        PGridCluster { net, leaves: plan.leaves, leaf_peers, next_qid: 1, rng }
    }

    /// Builds an overlay of unspecialized peers running the pairwise
    /// bootstrap protocol (all paths ε; structure emerges at runtime).
    pub fn build_bootstrap(
        n_peers: usize,
        cfg: PGridConfig,
        latency: impl LatencyModel + 'static,
        seed: u64,
    ) -> Self {
        let rng = derive_rng(seed, stream::OVERLAY);
        let universe: Vec<NodeId> = (0..n_peers).map(|p| NodeId(p as u32)).collect();
        let mut net = SimNet::new(latency, seed);
        for peer in 0..n_peers {
            net.add_node(PGridPeer::new_bootstrap(
                NodeId(peer as u32),
                cfg.clone(),
                seed,
                universe.clone(),
            ));
        }
        PGridCluster {
            net,
            leaves: vec![BitPath::ROOT],
            leaf_peers: vec![universe],
            next_qid: 1,
            rng,
        }
    }

    /// The trie's leaf paths (key order). Meaningless for bootstrap
    /// clusters until converged.
    pub fn leaves(&self) -> &[BitPath] {
        &self.leaves
    }

    /// Peers responsible for `key` (the replica group of its leaf).
    pub fn responsible_peers(&self, key: Key) -> &[NodeId] {
        &self.leaf_peers[leaf_of(&self.leaves, key)]
    }

    /// A uniformly random peer id (e.g. as query origin).
    pub fn random_peer(&mut self) -> NodeId {
        NodeId(self.rng.gen_range(0..self.net.len() as u32))
    }

    /// Places an entry directly into all replicas of the responsible
    /// leaf — the driver-side bulk-load path (no network traffic).
    pub fn preload(&mut self, key: Key, item: I, version: Version) {
        let peers = self.leaf_peers[leaf_of(&self.leaves, key)].clone();
        for p in peers {
            self.net.node_mut(p).preload(key, item.clone(), version);
        }
    }

    /// Bulk [`Self::preload`].
    pub fn preload_all(&mut self, entries: impl IntoIterator<Item = (Key, I)>) {
        for (k, i) in entries {
            self.preload(k, i, 0);
        }
    }

    fn fresh_qid(&mut self) -> QueryId {
        let q = self.next_qid;
        self.next_qid += 1;
        q
    }

    /// Issues an exact-key lookup from `origin`.
    pub fn lookup(&mut self, origin: NodeId, key: Key) -> LookupOutcome<I> {
        let qid = self.fresh_qid();
        let msg = PGridMsg::Lookup { qid, key, origin, hops: 0, filter: None };
        match run_op(&mut self.net, origin, msg, qid) {
            Some((OverlayDone::Lookup { items, ok, .. }, cost)) => {
                LookupOutcome { items, ok, cost }
            }
            _ => LookupOutcome { items: Vec::new(), ok: false, cost: OpCost::default() },
        }
    }

    /// Issues an insert from `origin`, routed through the overlay as a
    /// one-op write batch.
    pub fn insert(&mut self, origin: NodeId, key: Key, item: I, version: Version) -> InsertOutcome {
        let qid = self.fresh_qid();
        let mut batch = OpBatch::new();
        let item = batch.add_item(item);
        batch.push_insert(key, item, version);
        let msg = PGridMsg::OpBatch { qid, origin, hops: 0, positions: Vec::new(), batch };
        match run_op(&mut self.net, origin, msg, qid) {
            Some((OverlayDone::Batch { ok, .. }, cost)) => InsertOutcome { ok, cost },
            _ => InsertOutcome { ok: false, cost: OpCost::default() },
        }
    }

    /// Issues a range query from `origin` with the chosen algorithm.
    pub fn range(&mut self, origin: NodeId, lo: Key, hi: Key, mode: RangeMode) -> RangeOutcome<I> {
        let qid = self.fresh_qid();
        let msg = match mode {
            RangeMode::Parallel => {
                PGridMsg::Range { qid, lo, hi, lmin: 0, origin, hops: 0, filter: None }
            }
            RangeMode::Sequential => {
                PGridMsg::RangeSeq { qid, lo, hi, origin, hops: 0, filter: None }
            }
        };
        match run_op(&mut self.net, origin, msg, qid) {
            Some((OverlayDone::Range { items, complete, parts, .. }, cost)) => {
                RangeOutcome { items, complete, leaves: parts, cost }
            }
            _ => RangeOutcome {
                items: Vec::new(),
                complete: false,
                leaves: 0,
                cost: OpCost::default(),
            },
        }
    }

    /// Runs the network for a stretch of simulated time (maintenance,
    /// anti-entropy, bootstrap exchanges …).
    pub fn settle(&mut self, duration: SimTime) {
        let deadline = self.net.now() + duration;
        self.net.run_until(deadline);
    }

    /// Per-peer stored-entry counts (storage-balance metric, E5).
    pub fn storage_loads(&self) -> Vec<f64> {
        self.net.iter_nodes().map(|(_, p)| p.store().len() as f64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::RawItem;
    use unistore_simnet::ConstantLatency;

    fn quiet_cfg() -> PGridConfig {
        // Effectively disable periodic traffic for cost-exact tests.
        PGridConfig {
            maintenance_interval: SimTime::from_secs(1_000_000_000),
            ..PGridConfig::default()
        }
    }

    fn uniform_cluster(n: usize) -> PGridCluster<RawItem> {
        PGridCluster::build(
            n,
            quiet_cfg(),
            Topology::Uniform,
            ConstantLatency(SimTime::from_millis(10)),
            7,
        )
    }

    fn spread_keys(n: u64) -> Vec<Key> {
        // Deterministic keys spread over the space.
        (0..n).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect()
    }

    #[test]
    fn lookup_finds_preloaded_items_from_any_origin() {
        let mut c = uniform_cluster(16);
        let keys = spread_keys(64);
        for &k in &keys {
            c.preload(k, RawItem(k), 0);
        }
        for (i, &k) in keys.iter().enumerate() {
            let origin = NodeId((i % 16) as u32);
            let out = c.lookup(origin, k);
            assert!(out.ok, "lookup {i} failed");
            assert_eq!(out.items, vec![RawItem(k)]);
        }
    }

    #[test]
    fn lookup_hops_logarithmic() {
        let mut c = uniform_cluster(64); // depth 6
        let keys = spread_keys(32);
        for &k in &keys {
            c.preload(k, RawItem(k), 0);
        }
        let mut max_hops = 0;
        for &k in &keys {
            let origin = c.random_peer();
            let out = c.lookup(origin, k);
            assert!(out.ok);
            max_hops = max_hops.max(out.cost.hops);
        }
        assert!(max_hops <= 6, "hops {max_hops} exceed trie depth 6");
        assert!(max_hops >= 1, "some lookups must leave the origin");
    }

    #[test]
    fn lookup_missing_key_ok_empty() {
        let mut c = uniform_cluster(8);
        let out = c.lookup(NodeId(0), 12345);
        assert!(out.ok, "an empty leaf is a successful answer");
        assert!(out.items.is_empty());
    }

    #[test]
    fn insert_routes_to_responsible_leaf_and_replicates() {
        let mut c = PGridCluster::build(
            16,
            quiet_cfg().with_replication(2),
            Topology::Uniform,
            ConstantLatency(SimTime::from_millis(5)),
            3,
        );
        let key = 0xDEAD_BEEF_0000_0001;
        let out = c.insert(NodeId(0), key, RawItem(1), 0);
        assert!(out.ok);
        // Let the replicate push land.
        c.settle(SimTime::from_millis(100));
        let responsible = c.responsible_peers(key).to_vec();
        assert_eq!(responsible.len(), 2);
        for p in responsible {
            assert_eq!(c.net.node(p).store().get(key), vec![RawItem(1)], "replica {p} missing");
        }
        // A lookup from anywhere now finds it.
        let found = c.lookup(NodeId(7), key);
        assert_eq!(found.items, vec![RawItem(1)]);
    }

    /// A delete at the live entry's own version loses like any
    /// equal-version write, and losing is silent: a leaf that shadowed
    /// nothing cascades nothing, so the delete cannot bounce around the
    /// replica group doubling its sends every hop.
    #[test]
    fn equal_version_delete_is_a_silent_no_op() {
        let mut c = PGridCluster::build(
            16,
            quiet_cfg().with_replication(3),
            Topology::Uniform,
            ConstantLatency(SimTime::from_millis(5)),
            3,
        );
        let key = 0xDEAD_BEEF_0000_0001;
        c.preload(key, RawItem(1), 0);
        let replicas = c.responsible_peers(key).to_vec();
        assert!(replicas.len() >= 3);
        c.net.inject(replicas[0], PGridMsg::Delete { key, ident: RawItem(1).ident(), version: 0 });
        c.settle(SimTime::from_millis(10));
        let early = c.net.metrics().sent;
        c.settle(SimTime::from_millis(30));
        assert_eq!(c.net.metrics().sent, early, "the delete keeps cascading");
        for p in replicas {
            assert_eq!(
                c.net.node(p).store().get(key),
                vec![RawItem(1)],
                "equal version won on {p}"
            );
        }
    }

    #[test]
    fn bootstrap_converges_to_a_trie_that_answers_lookups() {
        // The pairwise construction end to end, shaped like experiment
        // E12: every peer brings 16 keys, splits and path extensions
        // re-route what a peer can no longer keep, routing gossip fills
        // the levels the meetings missed. After 180 simulated seconds
        // every sampled key must be found from a random origin.
        let n = 32usize;
        let cfg = PGridConfig {
            split_threshold: 4,
            exchange_interval: SimTime::from_secs(1),
            maintenance_interval: SimTime::from_secs(10),
            ..quiet_cfg()
        };
        let mut c: PGridCluster<RawItem> = PGridCluster::build_bootstrap(
            n,
            cfg,
            ConstantLatency(SimTime::from_millis(10)),
            20070415,
        );
        let keys = spread_keys(n as u64 * 16);
        for (i, &k) in keys.iter().enumerate() {
            c.net.node_mut(NodeId((i % n) as u32)).preload(k, RawItem(k), 0);
        }
        c.settle(SimTime::from_secs(180));
        assert!(c.net.iter_nodes().all(|(_, p)| !p.path().is_empty()), "every peer specialized");
        for i in 0..40 {
            let origin = c.random_peer();
            let key = keys[(i * 13) % keys.len()];
            let out = c.lookup(origin, key);
            assert!(out.ok && out.items == vec![RawItem(key)], "lookup {i} from {origin} failed");
        }
    }

    #[test]
    fn parallel_range_returns_exactly_the_interval() {
        let mut c = uniform_cluster(16);
        for k in 0..200u64 {
            c.preload(k << 56, RawItem(k), 0);
        }
        let lo = 10u64 << 56;
        let hi = 50u64 << 56;
        let out = c.range(NodeId(3), lo, hi, RangeMode::Parallel);
        assert!(out.complete);
        let mut got: Vec<u64> = out.items.iter().map(|r| r.0).collect();
        got.sort_unstable();
        assert_eq!(got, (10..=50).collect::<Vec<_>>());
        assert!(out.leaves >= 2, "range must span leaves");
    }

    #[test]
    fn sequential_range_matches_parallel() {
        let mut c = uniform_cluster(16);
        for k in 0..200u64 {
            c.preload(k << 56, RawItem(k), 0);
        }
        let lo = 33u64 << 56;
        let hi = 177u64 << 56;
        let par = c.range(NodeId(0), lo, hi, RangeMode::Parallel);
        let seq = c.range(NodeId(0), lo, hi, RangeMode::Sequential);
        assert!(par.complete && seq.complete);
        let norm = |o: &RangeOutcome<RawItem>| {
            let mut v: Vec<u64> = o.items.iter().map(|r| r.0).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(norm(&par), norm(&seq));
        // Sequential walks one leaf at a time → strictly more latency
        // across many leaves; parallel fans out.
        assert!(seq.cost.latency >= par.cost.latency);
    }

    #[test]
    fn range_cost_scales_with_selectivity() {
        let mut c = uniform_cluster(64);
        for k in 0..256u64 {
            c.preload(k << 56, RawItem(k), 0);
        }
        let narrow = c.range(NodeId(0), 0, 3 << 56, RangeMode::Parallel);
        let wide = c.range(NodeId(0), 0, 200 << 56, RangeMode::Parallel);
        assert!(narrow.complete && wide.complete);
        assert!(
            wide.cost.messages > narrow.cost.messages,
            "wide range should cost more messages ({} vs {})",
            wide.cost.messages,
            narrow.cost.messages
        );
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut c = uniform_cluster(32);
            for k in 0..100u64 {
                c.preload(k << 56, RawItem(k), 0);
            }
            let a = c.lookup(NodeId(1), 42 << 56);
            let b = c.range(NodeId(2), 0, 20 << 56, RangeMode::Parallel);
            (a.cost.messages, a.cost.latency, b.cost.messages, b.cost.latency)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn balanced_topology_evens_storage_under_skew() {
        use unistore_util::stats::gini;
        use unistore_util::zipf::Zipf;
        let mut rng = <StdRng as rand::SeedableRng>::seed_from_u64(11);
        let zipf = Zipf::new(512, 1.0);
        // Distinct keys, Zipf-skewed density (rank picks a region, the
        // suffix spreads within it) — identical keys cannot be separated
        // by any partitioner and are not what balancing addresses.
        let keys: Vec<Key> = (0..20_000)
            .map(|_| ((zipf.sample(&mut rng) as u64) << 45) | rng.gen_range(0..(1u64 << 45)))
            .collect();

        let mut balanced = PGridCluster::build(
            32,
            quiet_cfg(),
            Topology::Balanced { sample: keys.clone() },
            ConstantLatency(SimTime::from_millis(1)),
            1,
        );
        let mut uniform = PGridCluster::build(
            32,
            quiet_cfg(),
            Topology::Uniform,
            ConstantLatency(SimTime::from_millis(1)),
            1,
        );
        for (i, &k) in keys.iter().enumerate() {
            balanced.preload(k, RawItem(i as u64), 0);
            uniform.preload(k, RawItem(i as u64), 0);
        }
        let g_bal = gini(&balanced.storage_loads());
        let g_uni = gini(&uniform.storage_loads());
        // Bit-boundary splits can't equalize perfectly (children of a
        // split inherit whatever falls on each side), so assert the
        // *relative* claim: balancing removes most of the inequality.
        assert!(
            g_bal < g_uni / 2.0,
            "balancing must at least halve storage inequality ({g_bal:.3} vs {g_uni:.3})"
        );
        assert!(g_bal < 0.45, "balanced overlay still skewed: gini={g_bal:.3}");
    }

    /// A crash ends a peer's timer chains even when the peer is back up
    /// before their next tick: the revival arms one fresh set, so five
    /// short crashes leave the cluster ticking as if there were none.
    #[test]
    fn a_revived_peer_runs_one_set_of_timer_chains() {
        let run = |crashes: u64| {
            let mut c: PGridCluster<RawItem> = PGridCluster::build(
                16,
                PGridConfig::default().with_replication(2),
                Topology::Uniform,
                ConstantLatency(SimTime::from_millis(10)),
                5,
            );
            for i in 0..crashes {
                let down = SimTime::from_secs(10 + 20 * i);
                c.net.schedule_down(NodeId(3), down);
                c.net.schedule_up(NodeId(3), down + SimTime::from_secs(1));
            }
            c.settle(SimTime::from_secs(200));
            let before = c.net.metrics();
            c.settle(SimTime::from_secs(300));
            c.net.metrics().delta(&before)
        };
        let (calm, crashed) = (run(0), run(5));
        assert!(
            crashed.timers_fired <= calm.timers_fired + 10,
            "timers per 300 s: {} without crashes, {} after five",
            calm.timers_fired,
            crashed.timers_fired
        );
        assert!(
            crashed.sent * 10 <= calm.sent * 11,
            "sends per 300 s: {} without crashes, {} after five",
            calm.sent,
            crashed.sent
        );
    }
}
