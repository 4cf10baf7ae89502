//! [`Overlay`] implementation: Chord as a full UniStore backend.
//!
//! Exact lookups ride the ring under the uniform (order-destroying)
//! hash; range and prefix scans ride the auxiliary order-preserving
//! bucket index — the "additional structure" the paper says ring DHTs
//! need for range queries (§2). Every write pays both indexes, which is
//! part of the honest comparison against P-Grid.

use unistore_overlay::{ItemFilter, OpBatch, Overlay, OverlayDone, RangeMode, RepairStats};
use unistore_simnet::{Effects, NodeId};
use unistore_util::Key;

use crate::msg::{ChordBatchOp, ChordMsg};
use crate::node::{ring_key_bucket, ring_key_exact, ChordConfig, ChordNode, Item, Op};
use crate::store::ALL;
use crate::topology::ChordTopology;

impl<I: Item + Send + 'static> Overlay for ChordNode<I> {
    type WireMsg = ChordMsg<I>;
    type Item = I;
    type Config = ChordConfig;
    type Topology = ChordTopology;

    const NAME: &'static str = "Chord";
    const ADAPTS_TO_SAMPLE: bool = false;

    fn plan(
        n_peers: usize,
        cfg: &ChordConfig,
        _sample: Option<&[Key]>,
        seed: u64,
    ) -> ChordTopology {
        // The uniform hash destroys key order, so the ring cannot adapt
        // to the data distribution — the sample is ignored by design.
        ChordTopology::plan(n_peers, cfg, seed)
    }

    fn spawn(topology: &ChordTopology, peer: usize, cfg: &ChordConfig, seed: u64) -> Self {
        let id = NodeId(peer as u32);
        let mut node = ChordNode::new(id, topology.by_id[peer], cfg.clone(), seed);
        let w = topology.wiring(id);
        node.set_topology(w);
        node
    }

    fn id(&self) -> NodeId {
        ChordNode::id(self)
    }

    fn responsible(&self, key: Key) -> bool {
        ChordNode::responsible(self, ring_key_exact(key))
    }

    fn serves(&self, key: Key) -> bool {
        ChordNode::serves(self, ring_key_exact(key))
    }

    /// A key this node only replicates goes straight back to its owner,
    /// the predecessor: routing it forward would circle the ring, and
    /// back here whenever the owner's predecessor suspects the owner.
    fn next_hop(&mut self, key: Key, avoid: Option<NodeId>) -> Option<NodeId> {
        let rk = ring_key_exact(key);
        if ChordNode::responsible(self, rk) {
            None
        } else if ChordNode::serves(self, rk) {
            Some(self.predecessor.0)
        } else {
            Some(ChordNode::next_hop(self, rk, avoid))
        }
    }

    fn holds(&self, key: Key) -> bool {
        // Key-ordered scan over both indexes (exact and bucket mirror):
        // a planned holder of either index counts once it has the entry.
        self.store().read(ALL, &None).any(|((_, k, _), _)| k == key)
    }

    fn routing_refs(&self) -> Vec<NodeId> {
        let mut peers: Vec<NodeId> = Vec::with_capacity(self.fingers.len() + 3);
        peers.push(self.predecessor.0);
        peers.push(self.successor.0);
        peers.push(self.successor2.0);
        peers.extend(self.fingers.iter().map(|&(node, _)| node));
        peers.sort_unstable();
        peers.dedup();
        peers.retain(|&p| p != ChordNode::id(self));
        peers
    }

    fn replica_group(&self, key: Key) -> Vec<NodeId> {
        // The current primary of either index position (exact or bucket)
        // plus, under successor replication, the successor it pushes to.
        let me = ChordNode::id(self);
        let mut group = Vec::new();
        for rk in [ring_key_exact(key), ring_key_bucket(key, self.cfg.bucket_depth)] {
            if ChordNode::responsible(self, rk) {
                group.push(me);
                if self.cfg.replicate && self.successor.0 != me {
                    group.push(self.successor.0);
                }
            }
        }
        group.sort_unstable();
        group.dedup();
        group
    }

    fn repair_stats(&self) -> RepairStats {
        self.repair.stats()
    }

    fn preload(&mut self, key: Key, item: I, version: u64) {
        ChordNode::preload(self, key, item, version)
    }

    /// Every write pays both the exact and the bucket index, so an
    /// inclusive `[key, key]` fetch at the bucket position returns what
    /// an exact fetch does: the bucket index is a free read replica.
    /// Reads prefer whichever mirror is served locally (zero hops), and
    /// otherwise alternate so a hot key's reads land on two owners.
    fn local_lookup(
        &mut self,
        qid: u64,
        key: Key,
        filter: Option<ItemFilter>,
        fx: &mut Effects<ChordMsg<I>, OverlayDone<I>>,
    ) {
        let (rk, bk) = (ring_key_exact(key), ring_key_bucket(key, self.cfg.bucket_depth));
        let via_bucket = if ChordNode::serves(self, rk) {
            false
        } else if ChordNode::serves(self, bk) {
            true
        } else {
            self.reads_via[1] < self.reads_via[0]
        };
        self.reads_via[via_bucket as usize] += 1;
        let (ring_key, range) = if via_bucket { (bk, Some((key, key))) } else { (rk, None) };
        self.start(fx, qid, 1, Op::Lookup { ring_key, range, filter });
    }

    fn local_range(
        &mut self,
        qid: u64,
        lo: Key,
        hi: Key,
        mode: RangeMode,
        filter: Option<ItemFilter>,
        fx: &mut Effects<ChordMsg<I>, OverlayDone<I>>,
    ) {
        match mode {
            RangeMode::Parallel => self.handle_bucket_range(qid, lo, hi, filter, fx),
            RangeMode::Sequential => {
                self.handle_bcast(NodeId::EXTERNAL, qid, lo, hi, self.ring_id(), 0, filter, fx)
            }
        }
    }

    fn lookup_msg(_cfg: &ChordConfig, qid: u64, key: Key, origin: NodeId) -> ChordMsg<I> {
        ChordMsg::Lookup { qid, ring_key: ring_key_exact(key), origin, hops: 0, filter: None }
    }

    fn batch_msgs(
        _cfg: &ChordConfig,
        next_qid: &mut dyn FnMut() -> u64,
        batch: &OpBatch<I>,
        origin: NodeId,
    ) -> Vec<(u64, ChordMsg<I>)> {
        if batch.is_empty() {
            return Vec::new();
        }
        // Every logical op pays both indexes (exact + bucket ring
        // positions, derived from the key at every hop), but the payload
        // table is shared across the whole doubled op list — one wire
        // message, one copy per item.
        let ops: Vec<ChordBatchOp> = batch
            .ops
            .iter()
            .flat_map(|&op| [false, true].into_iter().map(move |bucket| (bucket, op)))
            .enumerate()
            .map(|(idx, (bucket, op))| ChordBatchOp { bucket, idx: idx as u32, op })
            .collect();
        let qid = next_qid();
        let items = batch.items.clone();
        vec![(qid, ChordMsg::OpBatch { qid, origin, hops: 0, attempt: 0, items, ops })]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unistore_overlay::OverlayTopology;
    use unistore_util::item::RawItem;

    #[test]
    fn spawned_ring_covers_every_key_once() {
        for replicate in [false, true] {
            let cfg = ChordConfig { replicate, ..ChordConfig::default() };
            let topo = <ChordNode<RawItem> as Overlay>::plan(16, &cfg, None, 5);
            let mut nodes: Vec<ChordNode<RawItem>> = (0..16)
                .map(|p| <ChordNode<RawItem> as Overlay>::spawn(&topo, p, &cfg, 5))
                .collect();
            for key in (0..64u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) {
                let owners: Vec<usize> = nodes
                    .iter()
                    .enumerate()
                    .filter(|(_, n)| Overlay::responsible(*n, key))
                    .map(|(i, _)| i)
                    .collect();
                assert_eq!(owners.len(), 1, "exactly one exact-index owner per key");
                assert_eq!(owners[0], topo.holders(key)[0], "plan and nodes agree");
                // Under replication the owner's successor serves the key
                // too, and routes anything else about it back to the owner.
                let owner = NodeId(owners[0] as u32);
                for (i, n) in nodes.iter_mut().enumerate() {
                    let replica = replicate && n.predecessor.0 == owner;
                    assert_eq!(Overlay::serves(n, key), i == owners[0] || replica);
                    if replica {
                        assert_eq!(Overlay::next_hop(n, key, None), Some(owner));
                    }
                }
            }
        }
    }

    #[test]
    fn preload_splits_across_indexes() {
        for replicate in [false, true] {
            let cfg = ChordConfig { replicate, ..ChordConfig::default() };
            let topo = <ChordNode<RawItem> as Overlay>::plan(8, &cfg, None, 5);
            let key = 42u64 << 40;
            let holders = topo.holders(key);
            let mut stored = 0;
            for p in 0..8 {
                let mut node = <ChordNode<RawItem> as Overlay>::spawn(&topo, p, &cfg, 5);
                Overlay::preload(&mut node, key, RawItem(1), 0);
                let len = node.store().len();
                if holders.contains(&p) {
                    assert!(len >= 1);
                } else {
                    assert_eq!(len, 0, "non-holders store nothing");
                }
                stored += len;
            }
            // One exact entry + one bucket entry, and each one's replica.
            assert_eq!(stored, if replicate { 4 } else { 2 });
        }
    }
}
