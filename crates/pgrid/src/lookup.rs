//! Exact-key lookup routing, and the leaf-side write primitives the
//! batch path ([`crate::batch`]) applies.
//!
//! Greedy prefix routing (paper §2): at each peer the key either matches
//! the local path — resolve locally — or differs first at bit `l`, in
//! which case the peer forwards to one of its level-`l` references. Each
//! hop extends the matched prefix by at least one bit, bounding the hop
//! count by the trie depth, i.e. O(log N) for a balanced overlay.

use unistore_overlay::OverlayDone;
use unistore_simnet::NodeId;
use unistore_util::{ItemFilter, Key};

use crate::item::{Item, Version};
use crate::msg::{PGridMsg, QueryId};
use crate::peer::{Fx, Op, PGridPeer, Pending};
use crate::routing::RouteDecision;

impl<I: Item> PGridPeer<I> {
    /// Handles a routed lookup. `from == EXTERNAL` marks driver
    /// injection at the origin, which registers completion tracking.
    /// The leaf applies `filter` (semi-join pushdown) before answering.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn handle_lookup(
        &mut self,
        from: NodeId,
        qid: QueryId,
        key: Key,
        origin: NodeId,
        hops: u32,
        filter: Option<ItemFilter>,
        fx: &mut Fx<I>,
    ) {
        if from == NodeId::EXTERNAL && origin == self.id {
            self.register(fx, qid, 1, Op::Lookup { key, filter: filter.clone() });
        }
        self.route_lookup(qid, key, origin, hops, filter, None, fx);
    }

    /// Routes a lookup one step, passing over `avoid` — at the origin,
    /// the first hop of the previous, failed attempt — while another
    /// reference exists. Reads jump to the ref matching the key the
    /// longest, the least-dispatched among equally deep ones, so hot
    /// keys spread across the replica group of the responsible leaf
    /// instead of hammering one peer.
    ///
    /// A routing hole answers a failure. At the origin the reply
    /// handler consumes a retry per explicit failure, so remaining
    /// attempts run synchronously and a true dead end still fails fast
    /// instead of burning timeout rounds. (Writes differ on purpose: a
    /// stuck batch op waits for its timeout because maintenance may
    /// repair the level, and a spurious failure report for a write is
    /// worse than a late one.)
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn route_lookup(
        &mut self,
        qid: QueryId,
        key: Key,
        origin: NodeId,
        hops: u32,
        filter: Option<ItemFilter>,
        avoid: Option<NodeId>,
        fx: &mut Fx<I>,
    ) {
        match self.routing.route_read(key, avoid) {
            RouteDecision::Local => {
                let items = self.store.lookup(key, &filter);
                self.answer_lookup(qid, origin, items, hops, true, fx);
            }
            RouteDecision::Forward(next, _) => {
                if let Some(p) = self.pending.get_mut(&qid).filter(|_| origin == self.id) {
                    p.tracker.left_through(0, Some(next));
                }
                fx.send(next, PGridMsg::Lookup { qid, key, origin, hops: hops + 1, filter });
            }
            RouteDecision::Stuck(_) => {
                self.answer_lookup(qid, origin, Vec::new(), hops, false, fx);
            }
        }
    }

    fn answer_lookup(
        &mut self,
        qid: QueryId,
        origin: NodeId,
        items: Vec<I>,
        hops: u32,
        ok: bool,
        fx: &mut Fx<I>,
    ) {
        if origin == self.id {
            // Resolved at the origin itself — no network reply needed.
            self.handle_lookup_reply(qid, items, hops, ok, fx);
        } else {
            fx.send(origin, PGridMsg::LookupReply { qid, items, hops, ok });
        }
    }

    /// Completes a pending lookup at the origin. An explicit failure
    /// (a routing hole reported by this or a downstream peer) consumes a
    /// retry and re-routes around the failed first hop instead of
    /// failing the op while alternatives remain; the timeout timer armed
    /// at registration still bounds the whole op.
    pub(crate) fn handle_lookup_reply(
        &mut self,
        qid: QueryId,
        items: Vec<I>,
        hops: u32,
        ok: bool,
        fx: &mut Fx<I>,
    ) {
        let Some(Pending { tracker, op: Op::Lookup { .. } }) = self.pending.get_mut(&qid) else {
            return;
        };
        if !ok {
            if let Some(parts) = tracker.retry(self.cfg.op_retries) {
                return self.issue(qid, &parts, fx);
            }
        }
        self.pending.remove(&qid);
        fx.emit(OverlayDone::Lookup { qid, items, hops, ok });
    }

    /// Applies an insert at the responsible leaf and pushes the change
    /// to the replica group when it was new.
    pub(crate) fn insert_at_leaf(&mut self, key: Key, item: I, version: Version, fx: &mut Fx<I>) {
        if self.routing.replicas().is_empty() {
            self.store.insert(key, item, version);
            return;
        }
        let ident = item.ident();
        if self.store.insert(key, item.clone(), version) {
            self.push_to_replicas(((key, ident), version, Some(item)), fx);
        }
    }

    /// Handles a tombstone cascading through the replica group: applied
    /// here when this peer still covers the key, forwarded when its path
    /// migrated away.
    pub(crate) fn handle_delete(&mut self, key: Key, ident: u64, version: Version, fx: &mut Fx<I>) {
        match self.routing.route(key, None, &mut self.rng) {
            RouteDecision::Local => self.delete_at_leaf(key, ident, version, fx),
            RouteDecision::Forward(next, _) => {
                fx.send(next, PGridMsg::Delete { key, ident, version });
            }
            RouteDecision::Stuck(_) => {}
        }
    }

    /// Applies a delete at the responsible leaf; when something was
    /// removed, propagates once through the replica group (replicas that
    /// remove nothing stop the cascade).
    pub(crate) fn delete_at_leaf(
        &mut self,
        key: Key,
        ident: u64,
        version: Version,
        fx: &mut Fx<I>,
    ) {
        let removed = self.store.remove((key, ident), version);
        if removed {
            for &r in self.routing.replicas() {
                fx.send(r, PGridMsg::Delete { key, ident, version });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    //! Handler-level tests on a hand-built two-peer topology; full
    //! network behaviour is covered in `cluster.rs` tests.

    use super::*;
    use crate::config::PGridConfig;
    use crate::item::RawItem;
    use crate::msg::PeerRef;
    use unistore_simnet::Effects;
    use unistore_util::wire::OpBatch;
    use unistore_util::BitPath;

    fn peer(id: u32, path: &str) -> PGridPeer<RawItem> {
        PGridPeer::new(NodeId(id), BitPath::parse(path).unwrap(), PGridConfig::default(), 42)
    }

    #[test]
    fn local_lookup_emits_directly() {
        let mut p = peer(0, "0");
        let key = 0u64; // starts with 0 → local
        p.preload(key, RawItem(9), 0);
        let mut fx = Effects::new();
        p.handle_lookup(NodeId::EXTERNAL, 1, key, NodeId(0), 0, None, &mut fx);
        assert_eq!(fx.sends().len(), 0);
        assert_eq!(fx.emits().len(), 1);
        match &fx.emits()[0] {
            OverlayDone::Lookup { qid, items, hops, ok } => {
                assert_eq!(*qid, 1);
                assert_eq!(items, &[RawItem(9)]);
                assert_eq!(*hops, 0);
                assert!(ok);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn foreign_key_forwards_with_hop_increment() {
        let mut p = peer(0, "0");
        p.routing_mut().add_ref(PeerRef { id: NodeId(1), path: BitPath::parse("1").unwrap() });
        let key = 1u64 << 63; // starts with 1
        let mut fx = Effects::new();
        p.handle_lookup(NodeId::EXTERNAL, 7, key, NodeId(0), 0, None, &mut fx);
        assert_eq!(fx.emits().len(), 0);
        assert_eq!(fx.sends().len(), 1);
        let (to, msg) = &fx.sends()[0];
        assert_eq!(*to, NodeId(1));
        match msg {
            PGridMsg::Lookup { qid: 7, hops: 1, .. } => {}
            other => panic!("unexpected forward {other:?}"),
        }
        // Pending registered → timeout timer armed.
        assert_eq!(fx.timers().len(), 1);
    }

    #[test]
    fn stuck_routing_reports_failure() {
        let mut p = peer(0, "0");
        let key = 1u64 << 63;
        let mut fx = Effects::new();
        p.handle_lookup(NodeId::EXTERNAL, 3, key, NodeId(0), 0, None, &mut fx);
        // Origin is self → failure emitted, not sent.
        assert_eq!(fx.emits().len(), 1);
        match &fx.emits()[0] {
            OverlayDone::Lookup { ok: false, .. } => {}
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn relayed_lookup_replies_to_origin() {
        let mut p = peer(5, "1");
        let key = 1u64 << 63;
        p.preload(key, RawItem(4), 0);
        let mut fx = Effects::new();
        p.handle_lookup(NodeId(2), 11, key, NodeId(9), 3, None, &mut fx);
        assert_eq!(fx.sends().len(), 1);
        let (to, msg) = &fx.sends()[0];
        assert_eq!(*to, NodeId(9));
        match msg {
            PGridMsg::LookupReply { qid: 11, items, hops: 3, ok: true } => {
                assert_eq!(items, &[RawItem(4)]);
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    /// A one-insert write batch, the unit the routed write path carries.
    fn one_insert(key: Key, item: RawItem) -> OpBatch<RawItem> {
        let mut batch = OpBatch::new();
        let i = batch.add_item(item);
        batch.push_insert(key, i, 0);
        batch
    }

    #[test]
    fn insert_applies_and_replicates_at_leaf() {
        let mut p = peer(0, "0");
        p.routing_mut().add_replica(NodeId(8));
        let key = 0u64;
        let mut fx = Effects::new();
        let batch = one_insert(key, RawItem(1));
        p.handle_op_batch(NodeId::EXTERNAL, 2, NodeId(0), 0, Vec::new(), batch, &mut fx);
        assert_eq!(p.store().get(key), vec![RawItem(1)]);
        // One replicate push + zero acks on the wire (origin = self).
        let pushes: Vec<_> =
            fx.sends().iter().filter(|(_, m)| matches!(m, PGridMsg::Replicate { .. })).collect();
        assert_eq!(pushes.len(), 1);
        assert_eq!(pushes[0].0, NodeId(8));
        assert_eq!(fx.emits().len(), 1);
    }

    #[test]
    fn duplicate_insert_does_not_replicate_again() {
        let mut p = peer(0, "0");
        p.routing_mut().add_replica(NodeId(8));
        let key = 0u64;
        let mut fx = Effects::new();
        p.handle_op_batch(
            NodeId(3),
            2,
            NodeId(3),
            0,
            vec![0],
            one_insert(key, RawItem(1)),
            &mut fx,
        );
        let mut fx2 = Effects::new();
        p.handle_op_batch(
            NodeId(3),
            3,
            NodeId(3),
            0,
            vec![0],
            one_insert(key, RawItem(1)),
            &mut fx2,
        );
        let pushes2 =
            fx2.sends().iter().filter(|(_, m)| matches!(m, PGridMsg::Replicate { .. })).count();
        assert_eq!(pushes2, 0, "unchanged store must not push");
    }

    #[test]
    fn filtered_lookup_drops_non_matches_at_the_leaf() {
        use unistore_util::bloom::BloomFilter;
        use unistore_util::wire::Wire;

        /// Item exposing its payload as field 0 for semi-join tests.
        #[derive(Clone, Copy, Debug, PartialEq)]
        struct F(u64);
        impl Wire for F {
            fn encode(&self, buf: &mut bytes::BytesMut) {
                self.0.encode(buf);
            }
            fn decode(buf: &mut bytes::Bytes) -> Result<Self, unistore_util::wire::WireError> {
                Ok(F(u64::decode(buf)?))
            }
            fn wire_size(&self) -> usize {
                self.0.wire_size()
            }
        }
        impl Item for F {
            fn ident(&self) -> u64 {
                self.0
            }
            fn field_hash(&self, field: u8) -> Option<u64> {
                (field == 0).then_some(self.0)
            }
        }

        let mut p = PGridPeer::new(
            NodeId(0),
            unistore_util::BitPath::parse("0").unwrap(),
            crate::config::PGridConfig::default(),
            42,
        );
        let key = 0u64;
        p.preload(key, F(1), 0);
        p.preload(key, F(2), 0);
        p.preload(key, F(3), 0);
        let filter = ItemFilter { field: 0, bloom: BloomFilter::from_hashes([1u64, 3], 0.001) };
        let mut fx = Effects::new();
        p.handle_lookup(NodeId::EXTERNAL, 1, key, NodeId(0), 0, Some(filter), &mut fx);
        match &fx.emits()[0] {
            OverlayDone::Lookup { items, ok: true, .. } => {
                // 2 is definitely absent from the filter; 1 and 3 must
                // survive (no false negatives).
                assert!(items.contains(&F(1)) && items.contains(&F(3)));
                assert!(!items.contains(&F(2)));
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn unknown_reply_ignored() {
        let mut p = peer(0, "0");
        let mut fx = Effects::new();
        p.handle_lookup_reply(999, vec![RawItem(0)], 1, true, &mut fx);
        assert!(fx.is_empty());
    }
}
