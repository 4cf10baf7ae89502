//! [`Overlay`] implementation: P-Grid is UniStore's native substrate.
//!
//! The trie *is* the index — the order-preserving hash places keys so
//! that both exact lookups and range scans ride the same routing
//! structure, with no auxiliary index. Topology planning reuses the
//! converged-state construction ([`crate::construct`]), including the
//! data-adaptive balanced trie when a key sample is supplied.

use unistore_overlay::{
    ItemFilter, OpBatch, Overlay, OverlayDone, OverlayTopology, RangeMode, RepairStats,
};
use unistore_simnet::{Effects, NodeId};
use unistore_util::rng::{derive_rng, stream};
use unistore_util::{BitPath, Key};

use crate::construct::{leaf_of, plan_topology, TopologyPlan};
use crate::item::Item;
use crate::msg::{PGridMsg, PeerRef};
use crate::peer::PGridPeer;
use crate::PGridConfig;

/// Driver-side view of a converged P-Grid deployment.
#[derive(Clone, Debug)]
pub struct PGridTopology {
    /// The planned trie, peer assignment and reference/replica wiring.
    pub plan: TopologyPlan,
    replication: usize,
}

impl PGridTopology {
    /// Sorted trie leaf paths.
    pub fn leaves(&self) -> &[BitPath] {
        &self.plan.leaves
    }
}

impl OverlayTopology for PGridTopology {
    fn holders(&self, key: Key) -> Vec<usize> {
        self.plan.leaf_peers[leaf_of(&self.plan.leaves, key)].clone()
    }

    fn partitions(&self) -> usize {
        self.plan.leaves.len()
    }

    fn replication(&self) -> usize {
        self.replication
    }
}

impl<I: Item + Send + 'static> Overlay for PGridPeer<I> {
    type WireMsg = PGridMsg<I>;
    type Item = I;
    type Config = PGridConfig;
    type Topology = PGridTopology;

    const NAME: &'static str = "P-Grid";
    const ADAPTS_TO_SAMPLE: bool = true;

    fn plan(n_peers: usize, cfg: &PGridConfig, sample: Option<&[Key]>, seed: u64) -> PGridTopology {
        let mut rng = derive_rng(seed, stream::OVERLAY);
        let plan = plan_topology(
            n_peers,
            cfg.replication,
            cfg.refs_per_level,
            cfg.max_depth,
            sample,
            &mut rng,
        );
        PGridTopology { plan, replication: cfg.replication }
    }

    fn spawn(topology: &PGridTopology, peer: usize, cfg: &PGridConfig, seed: u64) -> Self {
        let plan = &topology.plan;
        let mut node = PGridPeer::new(
            NodeId(peer as u32),
            plan.leaves[plan.peer_leaf[peer]],
            cfg.clone(),
            seed,
        );
        for &(p, path) in &plan.peer_refs[peer] {
            node.routing_mut().add_ref(PeerRef { id: NodeId(p as u32), path });
        }
        for &r in &plan.peer_replicas[peer] {
            node.routing_mut().add_replica(NodeId(r as u32));
        }
        node
    }

    fn id(&self) -> NodeId {
        PGridPeer::id(self)
    }

    fn responsible(&self, key: Key) -> bool {
        self.routing().responsible(key)
    }

    fn next_hop(&mut self, key: Key, avoid: Option<NodeId>) -> Option<NodeId> {
        PGridPeer::next_hop(self, key, avoid)
    }

    fn holds(&self, key: Key) -> bool {
        !self.store().get(key).is_empty()
    }

    fn replica_group(&self, key: Key) -> Vec<NodeId> {
        // Every member of the leaf's replica group is a primary; the
        // live routing state (path + replica list) tracks bootstrap
        // path migrations that the build-time plan cannot see.
        if !self.routing().responsible(key) {
            return Vec::new();
        }
        let mut group = vec![PGridPeer::id(self)];
        group.extend_from_slice(self.routing().replicas());
        group.sort_unstable();
        group.dedup();
        group
    }

    fn repair_stats(&self) -> RepairStats {
        self.repair.stats()
    }

    fn routing_refs(&self) -> Vec<NodeId> {
        let table = self.routing();
        let mut peers: Vec<NodeId> = table.all_refs().iter().map(|r| r.id).collect();
        peers.extend_from_slice(table.replicas());
        peers.sort_unstable();
        peers.dedup();
        let me = PGridPeer::id(self);
        peers.retain(|&p| p != me);
        peers
    }

    fn preload(&mut self, key: Key, item: I, version: u64) {
        PGridPeer::preload(self, key, item, version)
    }

    fn local_lookup(
        &mut self,
        qid: u64,
        key: Key,
        filter: Option<ItemFilter>,
        fx: &mut Effects<PGridMsg<I>, OverlayDone<I>>,
    ) {
        // The embedding layer acts as the driver: completion arrives as
        // an `OverlayDone::Lookup` emit.
        self.handle_lookup(NodeId::EXTERNAL, qid, key, PGridPeer::id(self), 0, filter, fx);
    }

    fn local_range(
        &mut self,
        qid: u64,
        lo: Key,
        hi: Key,
        mode: RangeMode,
        filter: Option<ItemFilter>,
        fx: &mut Effects<PGridMsg<I>, OverlayDone<I>>,
    ) {
        let me = PGridPeer::id(self);
        match mode {
            RangeMode::Parallel => {
                self.handle_range(NodeId::EXTERNAL, qid, lo, hi, 0, me, 0, filter, fx)
            }
            RangeMode::Sequential => {
                self.handle_range_seq(NodeId::EXTERNAL, qid, lo, hi, me, 0, filter, fx)
            }
        }
    }

    fn lookup_msg(_cfg: &PGridConfig, qid: u64, key: Key, origin: NodeId) -> PGridMsg<I> {
        PGridMsg::Lookup { qid, key, origin, hops: 0, filter: None }
    }

    fn batch_msgs(
        _cfg: &PGridConfig,
        next_qid: &mut dyn FnMut() -> u64,
        batch: &OpBatch<I>,
        origin: NodeId,
    ) -> Vec<(u64, PGridMsg<I>)> {
        if batch.is_empty() {
            return Vec::new();
        }
        // The whole batch is one injected message (no positions: the
        // origin peer numbers the ops); the origin splits it per next hop
        // and every routing step re-splits.
        let qid = next_qid();
        let positions = Vec::new();
        vec![(qid, PGridMsg::OpBatch { qid, origin, hops: 0, positions, batch: batch.clone() })]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unistore_util::item::RawItem;

    #[test]
    fn plan_and_spawn_agree_on_responsibility() {
        let cfg = PGridConfig::default();
        let topo = <PGridPeer<RawItem> as Overlay>::plan(16, &cfg, None, 7);
        for key in (0..64u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) {
            let holders = topo.holders(key);
            assert!(!holders.is_empty(), "every key has a holder");
            for peer in 0..16 {
                let node = <PGridPeer<RawItem> as Overlay>::spawn(&topo, peer, &cfg, 7);
                let holds = holders.contains(&peer);
                assert_eq!(
                    Overlay::responsible(&node, key),
                    holds,
                    "peer {peer} vs holders {holders:?} for key {key:#x}"
                );
            }
        }
    }
}
