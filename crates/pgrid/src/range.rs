//! Range queries over the order-preserving key space.
//!
//! Because P-Grid's hash is order preserving, a key interval `[lo, hi]`
//! maps to a contiguous band of trie leaves, and range queries need no
//! auxiliary structure (paper §2 — contrast with Chord, see
//! `unistore-chord`). Two physical algorithms:
//!
//! * **Parallel (shower)**: every peer partitions the requested interval
//!   among the complementary subtrees of its routing levels and fans the
//!   query out; all matching leaves are reached in O(log N) parallel
//!   hops. Completion at the origin is detected by *interval coverage*:
//!   each leaf reply names the sub-interval it covers, and the query
//!   finishes when the union equals `[lo, hi]` — which doubles as a
//!   completeness guarantee under loss.
//! * **Sequential**: route to the leaf owning `lo`, then walk leaves in
//!   key order, each handing over to the owner of the next key. Fewer
//!   messages for selective ranges, higher latency for wide ones —
//!   exactly the trade-off the paper's cost-based optimizer arbitrates.

use unistore_overlay::OverlayDone;
use unistore_simnet::NodeId;
use unistore_util::{ItemFilter, Key};

use crate::item::Item;
use crate::msg::{PGridMsg, QueryId};
use crate::peer::{Fx, PGridPeer, Pending};
use crate::routing::RouteDecision;

pub use unistore_util::interval::IntervalSet;

impl<I: Item> PGridPeer<I> {
    /// Handles a parallel (shower) range query branch. Every reached
    /// leaf applies `filter` (semi-join pushdown) before replying.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn handle_range(
        &mut self,
        from: NodeId,
        qid: QueryId,
        lo: Key,
        hi: Key,
        lmin: u8,
        origin: NodeId,
        hops: u32,
        filter: Option<ItemFilter>,
        fx: &mut Fx<I>,
    ) {
        if from == NodeId::EXTERNAL && origin == self.id {
            self.register_pending(
                fx,
                qid,
                Pending::Range {
                    lo,
                    hi,
                    covered: IntervalSet::new(),
                    items: Vec::new(),
                    hops: 0,
                    leaves: 0,
                    aborted: false,
                },
            );
        }
        let path = self.routing.path();
        // Fan out to every complementary subtree that intersects the
        // interval. Levels below `lmin` were already handled upstream.
        for l in lmin.min(path.len())..path.len() {
            let sub = path.prefix(l).child(!path.bit(l));
            let sub_lo = sub.min_key().max(lo);
            let sub_hi = sub.max_key().min(hi);
            if sub_lo > sub_hi {
                continue;
            }
            match self.routing.pick(l, &mut self.rng) {
                Some(r) => fx.send(
                    r.id,
                    PGridMsg::Range {
                        qid,
                        lo: sub_lo,
                        hi: sub_hi,
                        lmin: l + 1,
                        origin,
                        hops: hops + 1,
                        filter: filter.clone(),
                    },
                ),
                // Routing hole: report the gap so the origin terminates
                // promptly instead of waiting for its timeout.
                None => {
                    self.send_range_reply(qid, origin, sub_lo, sub_hi, Vec::new(), hops, true, fx)
                }
            }
        }
        // Local leaf contribution.
        let leaf_lo = path.min_key().max(lo);
        let leaf_hi = path.max_key().min(hi);
        if leaf_lo <= leaf_hi {
            let items = self.store.scan_range(leaf_lo, leaf_hi, &filter);
            self.send_range_reply(qid, origin, leaf_lo, leaf_hi, items, hops, false, fx);
        }
    }

    /// Handles a sequential range query hop. Every visited leaf applies
    /// `filter` before contributing.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn handle_range_seq(
        &mut self,
        from: NodeId,
        qid: QueryId,
        lo: Key,
        hi: Key,
        origin: NodeId,
        hops: u32,
        filter: Option<ItemFilter>,
        fx: &mut Fx<I>,
    ) {
        if from == NodeId::EXTERNAL && origin == self.id {
            self.register_pending(
                fx,
                qid,
                Pending::Range {
                    lo,
                    hi,
                    covered: IntervalSet::new(),
                    items: Vec::new(),
                    hops: 0,
                    leaves: 0,
                    aborted: false,
                },
            );
        }
        match self.routing.route(lo, &mut self.rng) {
            RouteDecision::Local => {
                let path = self.routing.path();
                let leaf_hi = path.max_key().min(hi);
                let items = self.store.scan_range(lo, leaf_hi, &filter);
                self.send_range_reply(qid, origin, lo, leaf_hi, items, hops, false, fx);
                if leaf_hi < hi {
                    // Hand over to the owner of the next key.
                    let next_lo = leaf_hi + 1;
                    match self.routing.route(next_lo, &mut self.rng) {
                        RouteDecision::Forward(next, _) => fx.send(
                            next,
                            PGridMsg::RangeSeq {
                                qid,
                                lo: next_lo,
                                hi,
                                origin,
                                hops: hops + 1,
                                filter,
                            },
                        ),
                        // `next_lo` is outside our leaf, so `Local` is
                        // impossible; a stuck route aborts the remainder.
                        RouteDecision::Local | RouteDecision::Stuck(_) => self.send_range_reply(
                            qid,
                            origin,
                            next_lo,
                            hi,
                            Vec::new(),
                            hops,
                            true,
                            fx,
                        ),
                    }
                }
            }
            RouteDecision::Forward(next, _) => {
                fx.send(next, PGridMsg::RangeSeq { qid, lo, hi, origin, hops: hops + 1, filter });
            }
            RouteDecision::Stuck(_) => {
                self.send_range_reply(qid, origin, lo, hi, Vec::new(), hops, true, fx);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn send_range_reply(
        &mut self,
        qid: QueryId,
        origin: NodeId,
        cov_lo: Key,
        cov_hi: Key,
        items: Vec<I>,
        hops: u32,
        aborted: bool,
        fx: &mut Fx<I>,
    ) {
        if origin == self.id {
            // Local contribution: no network message.
            self.handle_range_reply(qid, cov_lo, cov_hi, items, hops, aborted, fx);
        } else {
            fx.send(origin, PGridMsg::RangeReply { qid, cov_lo, cov_hi, items, hops, aborted });
        }
    }

    /// Accumulates a leaf reply at the origin; completes on full coverage.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn handle_range_reply(
        &mut self,
        qid: QueryId,
        cov_lo: Key,
        cov_hi: Key,
        mut new_items: Vec<I>,
        new_hops: u32,
        new_aborted: bool,
        fx: &mut Fx<I>,
    ) {
        let Some(Pending::Range { lo, hi, covered, items, hops, leaves, aborted }) =
            self.pending.get_mut(&qid)
        else {
            return; // late or duplicate reply
        };
        covered.add(cov_lo, cov_hi);
        items.append(&mut new_items);
        *hops = (*hops).max(new_hops);
        *leaves += 1;
        *aborted |= new_aborted;
        if covered.covers(*lo, *hi) {
            let complete = !*aborted;
            let (items, hops, leaves) = (std::mem::take(items), *hops, *leaves);
            self.pending.remove(&qid);
            fx.emit(OverlayDone::Range { qid, items, hops, complete, parts: leaves });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PGridConfig;
    use crate::item::RawItem;
    use crate::msg::PeerRef;
    use unistore_simnet::Effects;
    use unistore_util::BitPath;

    fn peer(id: u32, path: &str) -> PGridPeer<RawItem> {
        PGridPeer::new(NodeId(id), BitPath::parse(path).unwrap(), PGridConfig::default(), 1)
    }

    #[test]
    fn shower_fans_out_and_contributes_local_leaf() {
        // Peer "00" with refs at both levels; query the whole key space.
        let mut p = peer(0, "00");
        p.routing_mut().add_ref(PeerRef { id: NodeId(1), path: BitPath::parse("1").unwrap() });
        p.routing_mut().add_ref(PeerRef { id: NodeId(2), path: BitPath::parse("01").unwrap() });
        p.preload(1, RawItem(1), 0);
        let mut fx = Effects::new();
        p.handle_range(NodeId::EXTERNAL, 5, 0, u64::MAX, 0, NodeId(0), 0, None, &mut fx);
        // Forwards: level 0 → NodeId(1) with the "1…" half, level 1 →
        // NodeId(2) with the "01…" quarter.
        let forwards: Vec<_> = fx
            .sends()
            .iter()
            .filter_map(|(to, m)| match m {
                PGridMsg::Range { lo, hi, lmin, .. } => Some((*to, *lo, *hi, *lmin)),
                _ => None,
            })
            .collect();
        assert_eq!(forwards.len(), 2);
        assert_eq!(forwards[0], (NodeId(1), 1u64 << 63, u64::MAX, 1));
        assert_eq!(forwards[1], (NodeId(2), 1u64 << 62, (1u64 << 63) - 1, 2));
        // Local leaf "00" covers [0, 2^62-1] and was merged into pending.
        match p.pending.get(&5) {
            Some(Pending::Range { covered, items, leaves, .. }) => {
                assert_eq!(covered.intervals(), &[(0, (1u64 << 62) - 1)]);
                assert_eq!(items.len(), 1);
                assert_eq!(*leaves, 1);
            }
            other => panic!("unexpected pending {other:?}"),
        }
    }

    #[test]
    fn shower_reports_holes_as_aborted_coverage() {
        let mut p = peer(0, "00");
        // No refs at all: both subtrees unreachable.
        let mut fx = Effects::new();
        p.handle_range(NodeId::EXTERNAL, 6, 0, u64::MAX, 0, NodeId(0), 0, None, &mut fx);
        // Everything resolved locally (local leaf + 2 aborted gaps) →
        // the query completes immediately as incomplete.
        assert_eq!(fx.sends().len(), 0);
        assert_eq!(fx.emits().len(), 1);
        match &fx.emits()[0] {
            OverlayDone::Range { complete: false, parts: 3, .. } => {}
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn shower_completes_on_full_coverage() {
        let mut p = peer(0, "0");
        p.routing_mut().add_ref(PeerRef { id: NodeId(1), path: BitPath::parse("1").unwrap() });
        p.preload(5, RawItem(5), 0);
        let mut fx = Effects::new();
        p.handle_range(NodeId::EXTERNAL, 7, 0, u64::MAX, 0, NodeId(0), 0, None, &mut fx);
        assert!(fx.emits().is_empty(), "half the range is still remote");
        // The remote leaf replies.
        let mut fx2 = Effects::new();
        p.handle_range_reply(7, 1u64 << 63, u64::MAX, vec![RawItem(9)], 2, false, &mut fx2);
        assert_eq!(fx2.emits().len(), 1);
        match &fx2.emits()[0] {
            OverlayDone::Range { items, complete: true, hops: 2, parts: 2, .. } => {
                assert_eq!(items.len(), 2);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn clipped_range_skips_disjoint_subtrees() {
        // Query entirely inside the local leaf → no forwards at all.
        let mut p = peer(0, "0");
        p.routing_mut().add_ref(PeerRef { id: NodeId(1), path: BitPath::parse("1").unwrap() });
        p.preload(10, RawItem(10), 0);
        p.preload(20, RawItem(20), 0);
        p.preload(100, RawItem(100), 0);
        let mut fx = Effects::new();
        p.handle_range(NodeId::EXTERNAL, 8, 5, 50, 0, NodeId(0), 0, None, &mut fx);
        assert_eq!(fx.sends().len(), 0);
        assert_eq!(fx.emits().len(), 1);
        match &fx.emits()[0] {
            OverlayDone::Range { items, complete: true, .. } => {
                let mut got: Vec<u64> = items.iter().map(|r| r.0).collect();
                got.sort_unstable();
                assert_eq!(got, vec![10, 20]);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn sequential_walk_hands_over_remainder() {
        // Peer owns "0"; query spans into "1".
        let mut p = peer(0, "0");
        p.routing_mut().add_ref(PeerRef { id: NodeId(1), path: BitPath::parse("1").unwrap() });
        p.preload(7, RawItem(7), 0);
        let mut fx = Effects::new();
        let hi = (1u64 << 63) + 5;
        p.handle_range_seq(NodeId::EXTERNAL, 9, 0, hi, NodeId(0), 0, None, &mut fx);
        // Local part answered (merged into pending), remainder forwarded.
        let fwd: Vec<_> = fx
            .sends()
            .iter()
            .filter_map(|(to, m)| match m {
                PGridMsg::RangeSeq { lo, hi, .. } => Some((*to, *lo, *hi)),
                _ => None,
            })
            .collect();
        assert_eq!(fwd, vec![(NodeId(1), 1u64 << 63, hi)]);
        match p.pending.get(&9) {
            Some(Pending::Range { covered, items, .. }) => {
                assert_eq!(covered.intervals(), &[(0, (1u64 << 63) - 1)]);
                assert_eq!(items.len(), 1);
            }
            other => panic!("unexpected pending {other:?}"),
        }
    }

    #[test]
    fn late_replies_ignored() {
        let mut p = peer(0, "0");
        let mut fx = Effects::new();
        p.handle_range_reply(404, 0, 10, vec![RawItem(1)], 1, false, &mut fx);
        assert!(fx.is_empty());
    }
}
