//! Batched write routing: per-hop op coalescing.
//!
//! A routed [`PGridMsg::OpBatch`] carries many insert/delete ops in one
//! wire message, with each distinct payload shipped once and referenced
//! by compact key tags ([`OpBatch`]). Routing works per *op* but ships
//! per *group*: at every peer the batch partitions into a locally
//! applied remainder plus one sub-batch per distinct next hop
//! ([`OpBatch::subset`] re-indexes the payload table), so the batch only
//! forks where responsibility actually diverges. Each peer that applies
//! ops sends the origin one aggregated [`PGridMsg::BatchAck`] naming
//! their origin-side positions; the origin marks them in the shared
//! [`PartTracker`](unistore_overlay::PartTracker), one part per op —
//! the same protocol Chord runs — completes when every op is marked and
//! emits a single
//! [`OverlayDone::Batch`](unistore_overlay::OverlayDone::Batch), so
//! driver-side bookkeeping stays O(batch). A timed-out attempt
//! retransmits only the un-acked remainder.

use unistore_overlay::{push_hop, HopGroups};
use unistore_simnet::NodeId;
use unistore_util::wire::{BatchVerb, OpBatch};

use crate::item::Item;
use crate::msg::{PGridMsg, QueryId};
use crate::peer::{Fx, Op, PGridPeer, Pending};
use crate::routing::RouteDecision;

impl<I: Item> PGridPeer<I> {
    /// Handles a routed batch. `from == EXTERNAL` marks driver injection
    /// at the origin, which numbers the ops (the injected `positions` are
    /// empty), registers the tracker that accumulates their positional
    /// acks and issues the first attempt; relayed batches, one position
    /// per op, re-split and forward.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn handle_op_batch(
        &mut self,
        from: NodeId,
        qid: QueryId,
        origin: NodeId,
        hops: u32,
        positions: Vec<u32>,
        batch: OpBatch<I>,
        fx: &mut Fx<I>,
    ) {
        let all: Vec<(usize, Option<NodeId>)> = (0..batch.len()).map(|i| (i, None)).collect();
        if from == NodeId::EXTERNAL && origin == self.id {
            self.register(fx, qid, batch.len(), Op::Batch(batch.clone()));
            self.issue_batch(qid, &batch, &all, fx);
        } else if positions.len() == batch.len() {
            self.route_batch(qid, origin, hops, &batch, &all, &positions, fx);
        }
    }

    /// Starts (or retries) an origin-side attempt over the ops at
    /// `parts` — everything the first time, the un-acked remainder after
    /// a timeout — routing each op around the first hop `parts` names
    /// for it, and records the hops they take now. At the origin an op's
    /// position is its index.
    pub(crate) fn issue_batch(
        &mut self,
        qid: QueryId,
        batch: &OpBatch<I>,
        parts: &[(usize, Option<NodeId>)],
        fx: &mut Fx<I>,
    ) {
        let positions: Vec<u32> = (0..batch.len() as u32).collect();
        let first_hops = self.route_batch(qid, self.id, 0, batch, parts, &positions, fx);
        if let Some(p) = self.pending.get_mut(&qid) {
            for &(i, _) in parts {
                p.tracker.left_through(i, first_hops.get(i).copied().flatten());
            }
        }
    }

    /// Routes the ops at `parts` one step, each around the hop it names:
    /// applies the ones this peer is responsible for through the same
    /// leaf paths as single-op writes, ships one re-grouped sub-batch per
    /// distinct next hop, and acks the applied positions to the origin.
    /// Stuck ops are left to the origin's timeout and retransmit. Returns
    /// each op's next hop (`None` = local, stuck or not routed) for the
    /// origin's retry.
    #[allow(clippy::too_many_arguments)]
    fn route_batch(
        &mut self,
        qid: QueryId,
        origin: NodeId,
        hops: u32,
        batch: &OpBatch<I>,
        parts: &[(usize, Option<NodeId>)],
        positions: &[u32],
        fx: &mut Fx<I>,
    ) -> Vec<Option<NodeId>> {
        let mut applied: Vec<u32> = Vec::new();
        let mut groups = HopGroups::new();
        let mut next_hops = vec![None; batch.len()];
        for &(i, shun) in parts {
            let op = batch.ops[i];
            // Longest-prefix jumps: fewer hops per op means fewer edges
            // the sub-batch's tags and payloads cross.
            match self.routing.route_jump(op.key, shun, &mut self.rng) {
                RouteDecision::Local => {
                    match op.verb {
                        BatchVerb::Insert { item, .. } => {
                            let item = batch.items[item as usize].clone();
                            self.insert_at_leaf(op.key, item, op.version, fx);
                        }
                        BatchVerb::Delete { ident } => {
                            self.delete_at_leaf(op.key, ident, op.version, fx)
                        }
                    }
                    applied.push(positions[i]);
                }
                RouteDecision::Forward(next, _) => {
                    next_hops[i] = Some(next);
                    push_hop(&mut groups, next, i);
                }
                RouteDecision::Stuck(_) => {}
            }
        }
        for (next, group) in groups {
            fx.send(
                next,
                PGridMsg::OpBatch {
                    qid,
                    origin,
                    hops: hops + 1,
                    positions: group.iter().map(|&i| positions[i]).collect(),
                    batch: batch.subset(&group),
                },
            );
        }
        if !applied.is_empty() {
            if origin == self.id {
                self.handle_batch_ack(qid, &applied, hops, fx);
            } else {
                fx.send(origin, PGridMsg::BatchAck { qid, applied, hops });
            }
        }
        next_hops
    }

    /// Folds a positional ack into the pending batch and completes it
    /// when every op is marked. Late and duplicate acks (an earlier
    /// attempt's stragglers) re-mark marked ops, so they can only help.
    pub(crate) fn handle_batch_ack(
        &mut self,
        qid: QueryId,
        applied: &[u32],
        ack_hops: u32,
        fx: &mut Fx<I>,
    ) {
        let Some(Pending { tracker, op: Op::Batch(_) }) = self.pending.get_mut(&qid) else {
            return;
        };
        if tracker.ack(applied, ack_hops) {
            self.finish(qid, true, fx);
        }
    }
}

#[cfg(test)]
mod tests {
    //! Handler-level tests on hand-built topologies; full-network batch
    //! behaviour (ordering, retries, oracle equality) is covered in the
    //! workspace integration suites.

    use super::*;
    use crate::config::PGridConfig;
    use crate::item::RawItem;
    use crate::msg::PeerRef;
    use crate::peer::timer::QUERY_TIMEOUT;
    use unistore_overlay::OverlayDone;
    use unistore_simnet::{Effects, NodeBehavior, SimTime, Timer};
    use unistore_util::BitPath;

    fn peer(id: u32, path: &str) -> PGridPeer<RawItem> {
        PGridPeer::new(NodeId(id), BitPath::parse(path).unwrap(), PGridConfig::default(), 42)
    }

    fn add_ref(p: &mut PGridPeer<RawItem>, id: u32, path: &str) {
        p.routing_mut().add_ref(PeerRef { id: NodeId(id), path: BitPath::parse(path).unwrap() });
    }

    /// Keys routed by their top bits: peer "00" owns keys starting 00.
    fn key(prefix: &str) -> u64 {
        let mut k = 0u64;
        for (i, c) in prefix.chars().enumerate() {
            if c == '1' {
                k |= 1 << (63 - i);
            }
        }
        k
    }

    /// Driver injection of a whole batch at its origin `p`.
    fn inject(p: &mut PGridPeer<RawItem>, qid: QueryId, batch: OpBatch<RawItem>) -> Fx<RawItem> {
        let mut fx = Effects::new();
        p.handle_op_batch(NodeId::EXTERNAL, qid, p.id(), 0, Vec::new(), batch, &mut fx);
        fx
    }

    fn timeout(p: &mut PGridPeer<RawItem>, qid: QueryId) -> Fx<RawItem> {
        let mut fx = Effects::new();
        p.on_timer(SimTime::ZERO, Timer::new(QUERY_TIMEOUT, qid), &mut fx);
        fx
    }

    /// `(next hop, positions, sub-batch, hops)` of every forwarded
    /// sub-batch.
    fn forwards(fx: &Fx<RawItem>) -> Vec<(NodeId, Vec<u32>, OpBatch<RawItem>, u32)> {
        fx.sends()
            .iter()
            .filter_map(|(to, m)| match m {
                PGridMsg::OpBatch { positions, batch, hops, .. } => {
                    Some((*to, positions.clone(), batch.clone(), *hops))
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn batch_forks_only_where_responsibility_diverges() {
        // Peer 0 at "00" with one ref into "01" and one into "1": a batch
        // spanning all three regions must split into exactly one local
        // apply + two sub-batches, payloads re-indexed per group and
        // every op still carrying its origin position.
        let mut p = peer(0, "00");
        add_ref(&mut p, 1, "01");
        add_ref(&mut p, 2, "1");
        let mut batch = OpBatch::new();
        let a = batch.add_item(RawItem(10));
        let b = batch.add_item(RawItem(20));
        batch.push_insert(key("00"), a, 0); // local
        batch.push_insert(key("010"), a, 0); // peer 1
        batch.push_insert(key("10"), b, 0); // peer 2
        batch.push_insert(key("011"), b, 0); // peer 1 (same group)
        let fx = inject(&mut p, 7, batch);
        // Local op applied immediately.
        assert_eq!(p.store().get(key("00")), vec![RawItem(10)]);
        // Exactly two forwards, one per divergent subtree.
        let sends = forwards(&fx);
        assert_eq!(sends.len(), 2, "one sub-batch per next hop");
        let to1 = sends.iter().find(|s| s.0 == NodeId(1)).expect("group for peer 1");
        assert_eq!(to1.1, vec![1, 3], "origin positions survive the re-grouping");
        assert_eq!(to1.2.ops.len(), 2, "both 01-keys ride one message");
        assert_eq!(to1.2.items.len(), 2, "referenced payloads only, shipped once");
        assert_eq!(to1.3, 1, "hop count incremented");
        let to2 = sends.iter().find(|s| s.0 == NodeId(2)).expect("group for peer 2");
        assert_eq!(to2.1, vec![2]);
        assert_eq!(to2.2.items, vec![RawItem(20)], "unreferenced payloads dropped");
        // No completion yet: 1 of 4 ops acked.
        assert!(fx.emits().is_empty());
    }

    #[test]
    fn relayed_batch_acks_positions_and_forwards_remainder() {
        let mut p = peer(5, "1");
        add_ref(&mut p, 6, "0");
        let mut batch = OpBatch::new();
        let a = batch.add_item(RawItem(1));
        batch.push_insert(key("11"), a, 0); // local to peer 5
        batch.push_insert(key("0"), a, 0); // forwarded to peer 6
        let mut fx = Effects::new();
        // A sub-batch of a larger one: its ops sit at positions 40 and 41.
        p.handle_op_batch(NodeId(3), 9, NodeId(3), 2, vec![40, 41], batch, &mut fx);
        assert_eq!(p.store().get(key("11")), vec![RawItem(1)]);
        let acks: Vec<_> = fx
            .sends()
            .iter()
            .filter_map(|(to, m)| match m {
                PGridMsg::BatchAck { qid: 9, applied, hops } => Some((*to, applied.clone(), *hops)),
                _ => None,
            })
            .collect();
        assert_eq!(acks, vec![(NodeId(3), vec![40], 2)], "the applied op is acked by position");
        let fwd = forwards(&fx);
        assert_eq!(fwd.len(), 1);
        assert_eq!((fwd[0].0, &fwd[0].1, fwd[0].3), (NodeId(6), &vec![41], 3));
    }

    #[test]
    fn batch_completes_when_every_op_is_acked() {
        let mut p = peer(0, "0");
        add_ref(&mut p, 1, "1");
        let mut batch = OpBatch::new();
        let a = batch.add_item(RawItem(4));
        batch.push_insert(key("0"), a, 0); // local
        batch.push_insert(key("10"), a, 0); // remote
        batch.push_insert(key("11"), a, 0); // remote
        let fx = inject(&mut p, 3, batch);
        assert!(fx.emits().is_empty(), "2 remote ops outstanding");
        let mut fx2 = Effects::new();
        p.handle_batch_ack(3, &[1], 2, &mut fx2);
        assert!(fx2.emits().is_empty(), "1 remote op outstanding");
        p.handle_batch_ack(3, &[2], 4, &mut fx2);
        match fx2.emits() {
            [OverlayDone::Batch { qid: 3, ops: 3, hops: 4, ok: true }] => {}
            other => panic!("unexpected emits {other:?}"),
        }
    }

    #[test]
    fn batch_delete_tombstones_at_the_leaf() {
        let mut p = peer(0, "0");
        p.routing_mut().add_replica(NodeId(8));
        let k = key("0");
        p.preload(k, RawItem(9), 0);
        let mut batch: OpBatch<RawItem> = OpBatch::new();
        batch.push_delete(k, 9, 1); // RawItem ident == payload
        let fx = inject(&mut p, 4, batch);
        assert!(p.store().get(k).is_empty(), "batched delete removes the entry");
        assert!(
            matches!(
                fx.sends(),
                [(NodeId(8), PGridMsg::Delete { key, ident: 9, version: 1 })] if *key == k
            ),
            "the tombstone cascades to the replica: {:?}",
            fx.sends()
        );
        match fx.emits() {
            [OverlayDone::Batch { qid: 4, ops: 1, ok: true, .. }] => {}
            other => panic!("unexpected emits {other:?}"),
        }
    }

    #[test]
    fn timed_out_batch_retransmits_only_the_remainder_around_the_first_hop() {
        // Two references cover the "1" subtree. Op 0 is local, ops 1-3
        // go remote; only op 2 is acked before the timeout.
        let mut p = peer(0, "0");
        add_ref(&mut p, 1, "1");
        add_ref(&mut p, 2, "1");
        let mut batch = OpBatch::new();
        let a = batch.add_item(RawItem(1));
        let b = batch.add_item(RawItem(2));
        batch.push_insert(key("0"), a, 0);
        batch.push_insert(key("10"), a, 0);
        batch.push_insert(key("11"), b, 0);
        batch.push_insert(key("101"), a, 0);
        let fx = inject(&mut p, 5, batch);
        let first = forwards(&fx);
        let first_hop = |pos: u32| {
            first.iter().find(|s| s.1.contains(&pos)).expect("op forwarded in attempt 0").0
        };
        let mut fx_ack = Effects::new();
        p.handle_batch_ack(5, &[2], 2, &mut fx_ack);
        assert!(fx_ack.emits().is_empty());

        let fx2 = timeout(&mut p, 5);
        assert!(fx2.emits().is_empty(), "a retry remains: re-issue, do not fail");
        let second = forwards(&fx2);
        let mut resent: Vec<u32> = second.iter().flat_map(|s| s.1.clone()).collect();
        resent.sort_unstable();
        assert_eq!(resent, vec![1, 3], "acked op 2 and local op 0 are not re-sent");
        for (to, positions, sub, _) in &second {
            assert_eq!(sub.ops.len(), positions.len());
            for &pos in positions {
                assert_ne!(*to, first_hop(pos), "op {pos} must avoid its previous first hop");
            }
        }
        assert!(
            second.iter().all(|s| s.2.items == vec![RawItem(1)]),
            "the acked op's payload is not re-shipped: {second:?}"
        );

        // An attempt-0 straggler (op 1) lands after the retransmit, then
        // the retransmit's ack for op 3: together they complete.
        let mut fx3 = Effects::new();
        p.handle_batch_ack(5, &[1], 3, &mut fx3);
        assert!(fx3.emits().is_empty());
        p.handle_batch_ack(5, &[3], 1, &mut fx3);
        match fx3.emits() {
            [OverlayDone::Batch { qid: 5, ops: 4, hops: 3, ok: true }] => {}
            other => panic!("unexpected emits {other:?}"),
        }
    }

    #[test]
    fn exhausted_retries_report_what_was_acked() {
        let mut p = peer(0, "0");
        add_ref(&mut p, 1, "1");
        let mut batch = OpBatch::new();
        let a = batch.add_item(RawItem(1));
        batch.push_insert(key("0"), a, 0); // local: acked at once
        batch.push_insert(key("10"), a, 0); // acked late, at depth 3
        batch.push_insert(key("11"), a, 0); // never acked
        inject(&mut p, 6, batch);
        let retries = PGridConfig::default().op_retries;
        for i in 0..retries {
            assert!(timeout(&mut p, 6).emits().is_empty(), "attempt {i} should re-issue");
        }
        p.handle_batch_ack(6, &[1], 3, &mut Effects::new());
        match timeout(&mut p, 6).emits() {
            [OverlayDone::Batch { qid: 6, ops: 2, hops: 3, ok: false }] => {}
            other => panic!("unexpected emits {other:?}"),
        }
    }

    #[test]
    fn batch_order_independent_under_versioned_records() {
        // The version laws make op order across a fork irrelevant: a
        // delete at v2 and an insert at v1 of the same identity converge
        // to the tombstone no matter the application order.
        let mk = |insert_first: bool| {
            let mut p = peer(0, "0");
            let mut batch = OpBatch::new();
            let a = batch.add_item(RawItem(9));
            if insert_first {
                batch.push_insert(key("0"), a, 1);
            }
            batch.push_delete(key("0"), 9, 2);
            if !insert_first {
                batch.push_insert(key("0"), a, 1);
            }
            inject(&mut p, 1, batch);
            p.store().get(key("0"))
        };
        assert_eq!(mk(true), mk(false));
        assert!(mk(true).is_empty(), "the newer tombstone wins either way");
    }
}
