//! Driver-facing harness for the Chord baseline.

use rand::rngs::StdRng;
use rand::Rng;

use unistore_overlay::{run_op, Overlay, OverlayDone};
use unistore_simnet::metrics::OpCost;
use unistore_simnet::{LatencyModel, NodeId, SimNet};
use unistore_util::item::Item;
use unistore_util::rng::{derive_rng, stream};
use unistore_util::wire::{BatchOp, BatchVerb};
use unistore_util::Key;

use crate::msg::{ChordBatchOp, ChordMsg, QueryId};
use crate::node::{ring_key_exact, ChordConfig, ChordNode};
use crate::ring::in_open_closed;
use crate::topology::ChordTopology;

/// Which range algorithm the baseline runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChordRangeMode {
    /// Finger-tree broadcast to all nodes (plain Chord's only option).
    Broadcast,
    /// Auxiliary bucket index (the "additional structure" the paper
    /// says Chord needs).
    Buckets,
}

/// Result of a Chord range query.
#[derive(Clone, Debug)]
pub struct ChordRangeOutcome<I> {
    /// Matching items.
    pub entries: Vec<I>,
    /// Nodes or buckets that contributed.
    pub contributors: u32,
    /// Whether all expected contributions arrived.
    pub complete: bool,
    /// Network cost of the operation.
    pub cost: OpCost,
}

/// Result of a Chord lookup.
#[derive(Clone, Debug)]
pub struct ChordLookupOutcome<I> {
    /// Items stored under the key.
    pub entries: Vec<I>,
    /// `false` on failure.
    pub ok: bool,
    /// Network cost of the operation.
    pub cost: OpCost,
}

/// A simulated Chord ring.
pub struct ChordCluster<I: Item> {
    /// Underlying network.
    pub net: SimNet<ChordNode<I>>,
    /// The planned ring (ids sorted by ring position).
    topo: ChordTopology,
    cfg: ChordConfig,
    next_qid: QueryId,
    rng: StdRng,
}

impl<I: Item + Send + 'static> ChordCluster<I> {
    /// Builds a converged ring of `n` nodes with exact finger tables,
    /// through [`Overlay::plan`] and [`Overlay::spawn`].
    pub fn build(
        n: usize,
        cfg: ChordConfig,
        latency: impl LatencyModel + 'static,
        seed: u64,
    ) -> Self {
        assert!(n >= 1);
        let rng = derive_rng(seed, stream::OVERLAY);
        let topo = ChordNode::<I>::plan(n, &cfg, None, seed);
        let mut net = SimNet::new(latency, seed);
        for peer in 0..n {
            net.add_node(ChordNode::spawn(&topo, peer, &cfg, seed));
        }
        ChordCluster { net, topo, cfg, next_qid: 1, rng }
    }

    /// The node responsible for ring position `k`.
    pub fn responsible_node(&self, k: u64) -> NodeId {
        self.topo.successor_of(k).1
    }

    /// Uniformly random node id.
    pub fn random_node(&mut self) -> NodeId {
        NodeId(self.rng.gen_range(0..self.net.len() as u32))
    }

    /// Bucket depth of the auxiliary index.
    pub fn bucket_depth(&self) -> u8 {
        self.cfg.bucket_depth
    }

    /// Driver-side preload: stores the entry under both indexes
    /// (exact + bucket) without network traffic.
    pub fn preload(&mut self, key: Key, item: I) {
        for p in self.topo.holders_of_key(key) {
            self.net.node_mut(NodeId(p as u32)).preload(key, item.clone(), 0);
        }
    }

    fn fresh_qid(&mut self) -> QueryId {
        let q = self.next_qid;
        self.next_qid += 1;
        q
    }

    /// Exact-key lookup from `origin`.
    pub fn lookup(&mut self, origin: NodeId, key: Key) -> ChordLookupOutcome<I> {
        let qid = self.fresh_qid();
        let msg =
            ChordMsg::Lookup { qid, ring_key: ring_key_exact(key), origin, hops: 0, filter: None };
        match run_op(&mut self.net, origin, msg, qid) {
            Some((OverlayDone::Lookup { items, ok, .. }, cost)) => {
                ChordLookupOutcome { entries: items, ok, cost }
            }
            _ => ChordLookupOutcome { entries: Vec::new(), ok: false, cost: OpCost::default() },
        }
    }

    /// Protocol-path insert from `origin` into **both** indexes, as one
    /// two-op write batch — the "additional structure" means every write
    /// pays twice, which is part of the honest comparison.
    pub fn insert(&mut self, origin: NodeId, key: Key, item: I) -> (bool, OpCost) {
        let qid = self.fresh_qid();
        let op = BatchOp { key, version: 0, verb: BatchVerb::Insert { item: 0, slot: None } };
        let ops = vec![
            ChordBatchOp { bucket: false, idx: 0, op },
            ChordBatchOp { bucket: true, idx: 1, op },
        ];
        let msg = ChordMsg::OpBatch { qid, origin, hops: 0, attempt: 0, items: vec![item], ops };
        match run_op(&mut self.net, origin, msg, qid) {
            Some((OverlayDone::Batch { ok, .. }, cost)) => (ok, cost),
            _ => (false, OpCost::default()),
        }
    }

    /// Range query over original keys `[lo, hi]`.
    pub fn range(
        &mut self,
        origin: NodeId,
        lo: Key,
        hi: Key,
        mode: ChordRangeMode,
    ) -> ChordRangeOutcome<I> {
        let qid = self.fresh_qid();
        let msg = match mode {
            ChordRangeMode::Buckets => ChordMsg::BucketRange { qid, lo, hi, origin },
            ChordRangeMode::Broadcast => {
                let self_ring = self.net.node(origin).ring_id();
                ChordMsg::Bcast { qid, lo, hi, limit: self_ring, hops: 0, filter: None }
            }
        };
        match run_op(&mut self.net, origin, msg, qid) {
            Some((OverlayDone::Range { items, complete, parts, .. }, cost)) => {
                ChordRangeOutcome { entries: items, contributors: parts, complete, cost }
            }
            _ => ChordRangeOutcome {
                entries: Vec::new(),
                contributors: 0,
                complete: false,
                cost: OpCost::default(),
            },
        }
    }

    /// Sanity check used by tests: every ring id is owned by exactly the
    /// node `responsible_node` returns, per the `(pred, self]` rule.
    pub fn check_ring_invariant(&self) -> bool {
        let m = self.topo.ring_order.len();
        (0..m).all(|pos| {
            let (ring, id) = self.topo.ring_order[pos];
            let (pred_ring, _) = self.topo.ring_order[(pos + m - 1) % m];
            m == 1 || in_open_closed(pred_ring, ring, ring) && self.responsible_node(ring) == id
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ALL;
    use unistore_overlay::repair::diff_newer;
    use unistore_simnet::{ConstantLatency, SimTime};
    use unistore_util::item::RawItem;

    fn cluster(n: usize) -> ChordCluster<RawItem> {
        ChordCluster::build(n, ChordConfig::default(), ConstantLatency(SimTime::from_millis(10)), 9)
    }

    #[test]
    fn ring_invariant_holds() {
        for n in [1usize, 2, 3, 16, 65] {
            let c = cluster(n);
            assert!(c.check_ring_invariant(), "ring broken for n={n}");
        }
    }

    #[test]
    fn lookup_finds_preloaded() {
        let mut c = cluster(32);
        for k in 0..100u64 {
            c.preload(k << 50, RawItem(k));
        }
        for k in (0..100u64).step_by(7) {
            let origin = c.random_node();
            let out = c.lookup(origin, k << 50);
            assert!(out.ok);
            assert_eq!(out.entries, vec![RawItem(k)], "key {k}");
        }
    }

    #[test]
    fn lookup_hops_logarithmic() {
        let mut c = cluster(128);
        for k in 0..64u64 {
            c.preload(k << 52, RawItem(k));
        }
        let mut max_hops = 0;
        for k in 0..64u64 {
            let origin = c.random_node();
            let out = c.lookup(origin, k << 52);
            assert!(out.ok);
            max_hops = max_hops.max(out.cost.hops);
        }
        // Chord bound: O(log2 N) w.h.p.; allow slack ×2.
        assert!(max_hops <= 14, "hops {max_hops} not logarithmic for n=128");
    }

    #[test]
    fn protocol_insert_then_lookup() {
        let mut c = cluster(16);
        let (ok, cost) = c.insert(NodeId(3), 42 << 40, RawItem(42));
        assert!(ok);
        assert!(cost.messages >= 2, "two index inserts must cost messages");
        let out = c.lookup(NodeId(7), 42 << 40);
        assert_eq!(out.entries.len(), 1);
    }

    #[test]
    fn broadcast_range_reaches_everyone() {
        let mut c = cluster(32);
        for k in 0..200u64 {
            c.preload(k << 54, RawItem(k));
        }
        let out = c.range(NodeId(0), 10 << 54, 50 << 54, ChordRangeMode::Broadcast);
        assert!(out.complete);
        assert_eq!(out.contributors, 32, "broadcast must visit all nodes");
        let mut got: Vec<u64> = out.entries.iter().map(|r| r.0).collect();
        got.sort_unstable();
        got.dedup(); // entries exist under both indexes
        assert_eq!(got, (10..=50).collect::<Vec<_>>());
        assert!(out.cost.messages as usize >= 32, "broadcast floods the ring");
    }

    #[test]
    fn bucket_range_correct_and_cheaper_than_broadcast() {
        let mut c = cluster(64);
        for k in 0..256u64 {
            c.preload(k << 56, RawItem(k));
        }
        // Narrow range: few buckets → far fewer messages than broadcast.
        let lo = 20u64 << 56;
        let hi = 24u64 << 56;
        let buckets = c.range(NodeId(1), lo, hi, ChordRangeMode::Buckets);
        assert!(buckets.complete);
        let mut got: Vec<u64> = buckets.entries.iter().map(|r| r.0).collect();
        got.sort_unstable();
        assert_eq!(got, (20..=24).collect::<Vec<_>>());

        let bcast = c.range(NodeId(1), lo, hi, ChordRangeMode::Broadcast);
        assert!(bcast.complete);
        assert!(
            buckets.cost.messages < bcast.cost.messages,
            "bucket index must beat broadcast for selective ranges ({} vs {})",
            buckets.cost.messages,
            bcast.cost.messages
        );
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut c = cluster(32);
            for k in 0..64u64 {
                c.preload(k << 55, RawItem(k));
            }
            let a = c.lookup(NodeId(1), 7 << 55);
            let b = c.range(NodeId(2), 0, 30 << 55, ChordRangeMode::Buckets);
            (a.cost.messages, b.cost.messages, b.entries.len())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn anti_entropy_repairs_replica_that_missed_pushes() {
        let cfg = ChordConfig {
            replicate: true,
            anti_entropy_interval: SimTime::from_secs(5),
            ..ChordConfig::default()
        };
        let mut c: ChordCluster<RawItem> =
            ChordCluster::build(8, cfg, ConstantLatency(SimTime::from_millis(10)), 9);
        // An adjacent (primary, replica) pair on the ring.
        let (_, primary) = c.topo.ring_order[0];
        let (_, replica) = c.topo.ring_order[1];

        // The replica misses every push: crash it, write through the
        // protocol into the primary's exact-index range, revive it.
        c.net.schedule_down(replica, c.net.now());
        let written: Vec<Key> = (0..200u64)
            .map(|k| k << 45)
            .filter(|&key| c.responsible_node(ring_key_exact(key)) == primary)
            .collect();
        let ops = (0u32..)
            .zip(&written)
            .map(|(idx, &key)| ChordBatchOp {
                bucket: false,
                idx,
                op: BatchOp { key, version: 0, verb: BatchVerb::Insert { item: idx, slot: None } },
            })
            .collect();
        let qid = c.fresh_qid();
        c.net.inject(
            primary,
            ChordMsg::OpBatch {
                qid,
                origin: primary,
                hops: 0,
                attempt: 0,
                items: written.iter().map(|&key| RawItem(key >> 45)).collect(),
                ops,
            },
        );
        assert!(written.len() >= 8, "need a meaningful batch ({} keys)", written.len());
        let settle = c.net.now() + SimTime::from_secs(1);
        while c.net.now() < settle && c.net.step() {}
        assert_eq!(c.net.node(replica).store().len(), 0, "pushes to the dead replica are lost");

        // Revival re-arms the anti-entropy chain; within a few jittered
        // periods the exchange repairs everything the replica missed.
        c.net.schedule_up(replica, c.net.now());
        let deadline = c.net.now() + SimTime::from_secs(30);
        while c.net.now() < deadline && c.net.step() {}
        let run: Vec<_> =
            c.net.node(replica).store().records(ALL).map(|(k, v, _)| (k, v)).collect();
        let missing: Vec<_> = diff_newer(c.net.node(primary).store().records(ALL), &run)
            .into_iter()
            .filter(|e| c.responsible_node(e.0 .0) == primary)
            .collect();
        assert!(missing.is_empty(), "replica still missing {} records", missing.len());

        // Fixpoint: once an exchange has completed the two summaries are
        // equal, so every later tick is a root probe answered by silence.
        let stats = |c: &ChordCluster<RawItem>| {
            (0..8u32).map(|i| c.net.node(NodeId(i)).repair.stats()).collect::<Vec<_>>()
        };
        let before = stats(&c);
        let deadline = c.net.now() + SimTime::from_secs(30);
        while c.net.now() < deadline && c.net.step() {}
        for (was, now) in before.iter().zip(stats(&c)) {
            assert!(now.probe_bytes > was.probe_bytes, "every node keeps probing");
            assert_eq!(
                (now.descent_bytes, now.payload_bytes),
                (was.descent_bytes, was.payload_bytes),
                "an in-sync pair exchanges the root probe only"
            );
        }

        // Replica copies answer no queries: a broadcast over the whole
        // key space sees each written record exactly once.
        let out = c.range(primary, 0, u64::MAX, ChordRangeMode::Broadcast);
        assert!(out.complete);
        let mut got: Vec<u64> = out.entries.iter().map(|r| r.0 << 45).collect();
        got.sort_unstable();
        assert_eq!(got, written, "repair must not duplicate broadcast results");
    }

    #[test]
    fn singleton_ring_works() {
        let mut c = cluster(1);
        c.preload(5, RawItem(5));
        let out = c.lookup(NodeId(0), 5);
        assert!(out.ok);
        assert_eq!(out.entries.len(), 1);
    }

    #[test]
    fn suspected_peers_are_routed_around_and_forgiven() {
        let cfg = ChordConfig { ping_interval: SimTime::from_secs(5), ..ChordConfig::default() };
        let mut c: ChordCluster<RawItem> =
            ChordCluster::build(16, cfg, ConstantLatency(SimTime::from_millis(10)), 9);
        for k in 0..64u64 {
            c.preload(k << 55, RawItem(k));
        }
        let dead = c.topo.ring_order[3].1;
        let live: Vec<NodeId> = (0..16u32).map(NodeId).filter(|&n| n != dead).collect();

        // Crash one node: within a probe round its peers suspect it.
        c.net.schedule_down(dead, c.net.now());
        let deadline = c.net.now() + SimTime::from_secs(20);
        while c.net.now() < deadline && c.net.step() {}
        let suspecting =
            live.iter().filter(|&&n| c.net.node(n).liveness.is_suspected(dead)).count();
        assert!(suspecting > 0, "no peer suspected the dead node after a probe round");

        // Every key whose exact-index owner still lives must resolve:
        // routes that used the dead node as a finger detour around it.
        let (mut ok, mut total) = (0usize, 0usize);
        for k in 0..64u64 {
            let key = k << 55;
            if c.responsible_node(ring_key_exact(key)) == dead {
                continue;
            }
            total += 1;
            let out = c.lookup(live[0], key);
            ok += (out.ok && !out.entries.is_empty()) as usize;
        }
        assert!(total >= 32, "need a meaningful surviving key set ({total})");
        assert_eq!(ok, total, "a live owner's keys must route around the dead finger");

        // Revival: the next probe round's pong (or any traffic) clears
        // the suspicion — the ring forgives as fast as it suspects.
        c.net.schedule_up(dead, c.net.now());
        let deadline = c.net.now() + SimTime::from_secs(20);
        while c.net.now() < deadline && c.net.step() {}
        let still = live.iter().filter(|&&n| c.net.node(n).liveness.is_suspected(dead)).count();
        assert_eq!(still, 0, "{still} peers still suspect the revived node");
    }

    /// A 16-node ring that replicates, repairs and probes every 5 s and
    /// times writes out after 2 s.
    fn masking() -> ChordCluster<RawItem> {
        let cfg = ChordConfig {
            replicate: true,
            anti_entropy_interval: SimTime::from_secs(5),
            ping_interval: SimTime::from_secs(5),
            query_timeout: SimTime::from_secs(2),
            ..ChordConfig::default()
        };
        ChordCluster::build(16, cfg, ConstantLatency(SimTime::from_millis(10)), 9)
    }

    /// Steps the network `secs` simulated seconds.
    fn run_for(c: &mut ChordCluster<RawItem>, secs: u64) {
        let until = c.net.now() + SimTime::from_secs(secs);
        while c.net.now() < until && c.net.step() {}
    }

    /// A key whose exact-index owner sits at ring position `at`, with
    /// the owner's predecessor, successor and an origin three nodes
    /// before it: `(key, [predecessor, owner, successor], origin)`.
    fn key_at(c: &ChordCluster<RawItem>, at: usize) -> (Key, [NodeId; 3], NodeId) {
        let m = c.topo.ring_order.len();
        let node = |i: usize| c.topo.ring_order[(at + m + i - 1) % m].1;
        let owner = node(1);
        let key = (0..)
            .map(|k: u64| k << 40)
            .find(|&key| c.responsible_node(ring_key_exact(key)) == owner)
            .expect("some key lands on every node");
        (key, [node(0), owner, node(2)], node(m - 3))
    }

    /// Writes `key` into the exact index only, as a one-op batch from
    /// `origin`; whether the batch was acked.
    fn write_exact(c: &mut ChordCluster<RawItem>, origin: NodeId, key: Key) -> bool {
        let qid = c.fresh_qid();
        let op = BatchOp { key, version: 1, verb: BatchVerb::Insert { item: 0, slot: None } };
        let ops = vec![ChordBatchOp { bucket: false, idx: 0, op }];
        let items = vec![RawItem(key >> 40)];
        let msg = ChordMsg::OpBatch { qid, origin, hops: 0, attempt: 0, items, ops };
        matches!(
            run_op(&mut c.net, origin, msg, qid),
            Some((OverlayDone::Batch { ok: true, .. }, _))
        )
    }

    #[test]
    fn a_write_to_a_dead_owner_acks_through_its_successor_and_repairs_back() {
        let mut c = masking();
        let (key, [_, owner, succ], origin) = key_at(&c, 5);
        c.net.schedule_down(owner, c.net.now());
        run_for(&mut c, 20);
        assert!(write_exact(&mut c, origin, key), "the successor acks for the dead owner");
        let copy = c.net.node(succ).store().records(ALL).any(|((_, k, _), _, _)| k == key);
        assert!(copy, "the successor holds the handed-off copy");

        c.net.schedule_up(owner, c.net.now());
        run_for(&mut c, 20);
        let out = c.lookup(origin, key);
        assert!(out.ok);
        assert_eq!(out.entries, vec![RawItem(key >> 40)], "anti-entropy brought it to the owner");
    }

    #[test]
    fn a_write_with_the_whole_owner_side_dead_is_held_and_replayed() {
        let mut c = masking();
        let (key, [pred, owner, succ], origin) = key_at(&c, 9);
        for node in [owner, succ] {
            c.net.schedule_down(node, c.net.now());
        }
        run_for(&mut c, 20);
        assert!(write_exact(&mut c, origin, key), "the predecessor holds and acks");
        assert_eq!(c.net.node(pred).hints.len(), 1, "one held op");

        for node in [owner, succ] {
            c.net.schedule_up(node, c.net.now());
        }
        run_for(&mut c, 30);
        assert!(c.net.node(pred).hints.is_empty(), "the replay was acked");
        assert_eq!(c.net.node(owner).store().lookup(ring_key_exact(key), &None).len(), 1);
        assert_eq!(c.lookup(origin, key).entries, vec![RawItem(key >> 40)]);
    }

    #[test]
    fn a_first_attempt_to_a_trusted_owner_is_not_handed_off() {
        let mut c = masking();
        run_for(&mut c, 20);
        let holds = |c: &ChordCluster<RawItem>, node, key| {
            c.net.node(node).store().records(ALL).any(|((_, k, _), _, _)| k == key)
        };
        // From a node three before the owner, and from the owner's
        // successor, which replicates the owner's range.
        for at in [3, 7] {
            let (key, [_, owner, succ], far) = key_at(&c, at);
            let origin = if at == 3 { far } else { succ };
            assert!(write_exact(&mut c, origin, key));
            assert!(holds(&c, owner, key), "applied by the owner before the ack");
            assert!(holds(&c, succ, key), "and pushed to its successor");
            let holders = (0..16).filter(|&i| holds(&c, NodeId(i), key)).count();
            assert_eq!(holders, 2, "nowhere else");
        }
        assert!((0..16).all(|i| c.net.node(NodeId(i)).hints.is_empty()));
    }
}
