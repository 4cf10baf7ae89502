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
//!
//! A timed-out query re-sends only what no reply covered yet (`RangeScan`).

use unistore_simnet::NodeId;
use unistore_util::{BitPath, ItemFilter, Key};

use crate::item::Item;
use crate::msg::{PGridMsg, QueryId};
use crate::peer::{Fx, Op, PGridPeer, Pending};
use crate::routing::RouteDecision;

pub use unistore_util::interval::IntervalSet;

/// Origin-side state of a range query. Its parts are what the origin
/// sent through one first hop each: for a shower, one sub-interval per
/// routing level whose complementary subtree meets `[lo, hi]`, then the
/// origin's own leaf; for a sequential walk, the whole interval. A part
/// is answered once leaf replies cover it.
#[derive(Debug)]
pub(crate) struct RangeScan<I> {
    parts: Vec<Span>,
    filter: Option<ItemFilter>,
    /// Intervals covered by received replies.
    covered: IntervalSet,
    pub(crate) items: Vec<I>,
    /// Leaf replies received.
    pub(crate) leaves: u32,
    /// Whether any branch reported a routing hole.
    pub(crate) aborted: bool,
}

/// A sub-interval sent through one first hop: a shower branch into the
/// complementary subtree of routing level `level`, or (`None`) a walk
/// from `lo`, which ends at once in the sender's own leaf.
#[derive(Clone, Copy, Debug)]
struct Span {
    lo: Key,
    hi: Key,
    level: Option<u8>,
}

/// How a shower at a peer on `path` splits `[lo, hi]`: the
/// complementary subtree of every level from `lmin` on (levels below it
/// were handled upstream), then the peer's own leaf, each clipped to the
/// interval and skipped where disjoint from it.
fn spans(path: BitPath, lo: Key, hi: Key, lmin: u8) -> impl Iterator<Item = Span> {
    let subtree = move |l: u8| (path.prefix(l).child(!path.bit(l)), Some(l));
    let subtrees = (lmin.min(path.len())..path.len()).map(subtree).chain([(path, None)]);
    subtrees
        .map(move |(t, level)| Span { lo: t.min_key().max(lo), hi: t.max_key().min(hi), level })
        .filter(|s| s.lo <= s.hi)
}

impl<I: Item> PGridPeer<I> {
    /// Handles a parallel (shower) range query branch; `from ==
    /// EXTERNAL` marks driver injection at the origin.
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
            let parts: Vec<Span> = spans(self.routing.path(), lo, hi, 0).collect();
            return self.start_range(qid, parts, filter, fx);
        }
        for span in spans(self.routing.path(), lo, hi, lmin) {
            self.send_span(qid, span, origin, hops, &filter, None, fx);
        }
    }

    /// Handles a sequential range query hop; `from == EXTERNAL` marks
    /// driver injection at the origin.
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
            return self.start_range(qid, vec![Span { lo, hi, level: None }], filter, fx);
        }
        self.walk(qid, lo, hi, origin, hops, &filter, None, fx);
    }

    /// Registers a range query of `parts` at its origin and sends them.
    fn start_range(
        &mut self,
        qid: QueryId,
        parts: Vec<Span>,
        filter: Option<ItemFilter>,
        fx: &mut Fx<I>,
    ) {
        let all: Vec<(usize, Option<NodeId>)> = (0..parts.len()).map(|i| (i, None)).collect();
        let (covered, items) = (IntervalSet::new(), Vec::new());
        let scan = RangeScan { parts, filter, covered, items, leaves: 0, aborted: false };
        self.register(fx, qid, all.len(), Op::Range(scan));
        self.issue_range(qid, &all, fx);
    }

    /// Sends each uncovered sub-interval of each of `parts` again,
    /// around the first hop the part names: through another reference
    /// of its level, or as a walk from the sub-interval's first key.
    pub(crate) fn issue_range(
        &mut self,
        qid: QueryId,
        parts: &[(usize, Option<NodeId>)],
        fx: &mut Fx<I>,
    ) {
        let Some(Pending { op: Op::Range(scan), .. }) = self.pending.get(&qid) else { return };
        let filter = scan.filter.clone();
        let mut sends = Vec::new();
        for &(i, avoid) in parts {
            let Some(&part) = scan.parts.get(i) else { continue };
            let gaps = scan.covered.gaps(part.lo, part.hi);
            sends.extend(gaps.map(|(lo, hi)| (i, Span { lo, hi, ..part }, avoid)));
        }
        for (i, span, avoid) in sends {
            let hop = self.send_span(qid, span, self.id, 0, &filter, avoid, fx);
            if let Some(p) = self.pending.get_mut(&qid) {
                p.tracker.left_through(i, hop);
            }
        }
    }

    /// Sends one span, passing over `avoid` while another reference
    /// exists: a shower branch to a reference of its level, with the
    /// levels below it handled, or a walk. Returns the hop it left
    /// through.
    #[allow(clippy::too_many_arguments)]
    fn send_span(
        &mut self,
        qid: QueryId,
        span: Span,
        origin: NodeId,
        hops: u32,
        filter: &Option<ItemFilter>,
        avoid: Option<NodeId>,
        fx: &mut Fx<I>,
    ) -> Option<NodeId> {
        let (lo, hi) = (span.lo, span.hi);
        let Some(l) = span.level else {
            return self.walk(qid, lo, hi, origin, hops, filter, avoid, fx);
        };
        let Some(r) = self.routing.pick(l, avoid, &mut self.rng) else {
            // Routing hole: report the gap so the origin terminates
            // promptly instead of waiting for its timeout.
            self.send_range_reply(qid, origin, lo, hi, Vec::new(), hops, true, fx);
            return None;
        };
        let filter = filter.clone();
        let msg = PGridMsg::Range { qid, lo, hi, lmin: l + 1, origin, hops: hops + 1, filter };
        fx.send(r.id, msg);
        Some(r.id)
    }

    /// Routes a sequential range query one step from `lo`, passing over
    /// `avoid` while another reference exists: the leaf owning `lo`
    /// contributes its part, filtered (semi-join pushdown), and hands
    /// over to the owner of the next key. Returns the hop it left
    /// through.
    #[allow(clippy::too_many_arguments)]
    fn walk(
        &mut self,
        qid: QueryId,
        lo: Key,
        hi: Key,
        origin: NodeId,
        hops: u32,
        filter: &Option<ItemFilter>,
        avoid: Option<NodeId>,
        fx: &mut Fx<I>,
    ) -> Option<NodeId> {
        match self.routing.route(lo, avoid, &mut self.rng) {
            RouteDecision::Local => {
                let leaf_hi = self.routing.path().max_key().min(hi);
                let items = self.store.scan_range(lo, leaf_hi, filter);
                self.send_range_reply(qid, origin, lo, leaf_hi, items, hops, false, fx);
                // The next key is outside this leaf: the step forwards
                // or is stuck.
                let next = (leaf_hi < hi).then(|| leaf_hi + 1)?;
                self.walk(qid, next, hi, origin, hops, filter, avoid, fx)
            }
            RouteDecision::Forward(next, _) => {
                let filter = filter.clone();
                fx.send(next, PGridMsg::RangeSeq { qid, lo, hi, origin, hops: hops + 1, filter });
                Some(next)
            }
            RouteDecision::Stuck(_) => {
                self.send_range_reply(qid, origin, lo, hi, Vec::new(), hops, true, fx);
                None
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

    /// Accumulates a leaf reply at the origin, marks the parts it
    /// completes, and finishes the query once every part is answered.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn handle_range_reply(
        &mut self,
        qid: QueryId,
        cov_lo: Key,
        cov_hi: Key,
        mut items: Vec<I>,
        hops: u32,
        aborted: bool,
        fx: &mut Fx<I>,
    ) {
        let Some(Pending { tracker, op: Op::Range(scan) }) = self.pending.get_mut(&qid) else {
            return; // late reply
        };
        if scan.covered.covers(cov_lo, cov_hi) {
            return; // a re-sent interval answered twice
        }
        scan.covered.add(cov_lo, cov_hi);
        scan.items.append(&mut items);
        scan.leaves += 1;
        scan.aborted |= aborted;
        for (i, part) in (0u32..).zip(&scan.parts) {
            let touched = part.lo <= cov_hi && cov_lo <= part.hi;
            if touched && scan.covered.covers(part.lo, part.hi) {
                tracker.ack(&[i], hops);
            }
        }
        if tracker.ack(&[], hops) {
            self.finish(qid, true, fx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PGridConfig;
    use crate::item::RawItem;
    use crate::msg::PeerRef;
    use crate::peer::timer::QUERY_TIMEOUT;
    use unistore_overlay::OverlayDone;
    use unistore_simnet::{Effects, NodeBehavior, SimTime, Timer};

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
        match p.pending.get(&5).map(|p| &p.op) {
            Some(Op::Range(scan)) => {
                assert_eq!(scan.covered.intervals(), &[(0, (1u64 << 62) - 1)]);
                assert_eq!(scan.items.len(), 1);
                assert_eq!(scan.leaves, 1);
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
        match p.pending.get(&9).map(|p| &p.op) {
            Some(Op::Range(scan)) => {
                assert_eq!(scan.covered.intervals(), &[(0, (1u64 << 63) - 1)]);
                assert_eq!(scan.items.len(), 1);
            }
            other => panic!("unexpected pending {other:?}"),
        }
    }

    /// `(to, lo, hi)` of every shower branch `fx` forwards.
    fn branches(fx: &Fx<RawItem>) -> Vec<(NodeId, Key, Key)> {
        let range = |(to, m): &(NodeId, PGridMsg<RawItem>)| match m {
            PGridMsg::Range { lo, hi, .. } => Some((*to, *lo, *hi)),
            _ => None,
        };
        fx.sends().iter().filter_map(range).collect()
    }

    fn timeout(p: &mut PGridPeer<RawItem>, qid: QueryId) -> Fx<RawItem> {
        let mut fx = Effects::new();
        p.on_timer(SimTime::ZERO, Timer::new(QUERY_TIMEOUT, qid), &mut fx);
        fx
    }

    #[test]
    fn a_timed_out_shower_resends_only_its_uncovered_sub_intervals_through_other_refs() {
        // Peer "00": level 0 ("1…") and level 1 ("01…") each have two
        // references.
        let mut p = peer(0, "00");
        for (id, path) in [(1, "10"), (2, "11"), (3, "010"), (4, "011")] {
            p.routing_mut()
                .add_ref(PeerRef { id: NodeId(id), path: BitPath::parse(path).unwrap() });
        }
        let mut fx = Effects::new();
        p.handle_range(NodeId::EXTERNAL, 5, 0, u64::MAX, 0, NodeId(0), 0, None, &mut fx);
        let first = branches(&fx);
        let (half, quarter) = (1u64 << 63, 1u64 << 62);
        assert_eq!(first.len(), 2);
        // The "1…" half is answered by one leaf of two; the "01…" quarter
        // by nobody.
        p.handle_range_reply(5, half, half + quarter - 1, vec![RawItem(1)], 2, false, &mut fx);
        let second = branches(&timeout(&mut p, 5));
        assert_eq!(
            second.iter().map(|&(_, lo, hi)| (lo, hi)).collect::<Vec<_>>(),
            [(half + quarter, u64::MAX), (quarter, half - 1)],
            "only what no reply covered, part by part"
        );
        for ((to, ..), (was, ..)) in second.iter().zip(&first) {
            assert_ne!(to, was, "each part leaves through another reference of its level");
        }
        // The late first-attempt reply and the re-sent one overlap: the
        // items arrive once, and the query completes.
        let mut fx = Effects::new();
        p.handle_range_reply(5, half + quarter, u64::MAX, vec![RawItem(2)], 2, false, &mut fx);
        p.handle_range_reply(5, half + quarter, u64::MAX, vec![RawItem(2)], 2, false, &mut fx);
        p.handle_range_reply(5, quarter, half - 1, vec![], 2, false, &mut fx);
        match fx.emits() {
            [OverlayDone::Range { items, complete: true, parts: 4, .. }] => {
                assert_eq!(items, &[RawItem(1), RawItem(2)]);
            }
            other => panic!("unexpected events {other:?}"),
        }
    }

    #[test]
    fn a_timed_out_walk_restarts_from_its_first_uncovered_key_until_the_retries_run_out() {
        let mut p = peer(0, "0");
        for id in [1, 2] {
            p.routing_mut().add_ref(PeerRef { id: NodeId(id), path: BitPath::parse("1").unwrap() });
        }
        let (half, hi) = (1u64 << 63, (1u64 << 63) + 5);
        let walks = |fx: &Fx<RawItem>| -> Vec<(NodeId, Key)> {
            let seq = |(to, m): &(NodeId, PGridMsg<RawItem>)| match m {
                PGridMsg::RangeSeq { lo, hi: h, .. } if *h == hi => Some((*to, *lo)),
                _ => None,
            };
            fx.sends().iter().filter_map(seq).collect()
        };
        let mut fx = Effects::new();
        p.handle_range_seq(NodeId::EXTERNAL, 9, 0, hi, NodeId(0), 0, None, &mut fx);
        let first = walks(&fx);
        assert_eq!(first.len(), 1);
        let mut hops = vec![first[0].0];
        for _ in 0..PGridConfig::default().op_retries {
            let again = walks(&timeout(&mut p, 9));
            assert_eq!(again.len(), 1);
            assert_eq!(again[0].1, half, "the local leaf is not walked again");
            assert_ne!(Some(&again[0].0), hops.last(), "around the previous first hop");
            hops.push(again[0].0);
        }
        match timeout(&mut p, 9).emits() {
            [OverlayDone::Range { items, complete: false, parts: 1, .. }] => {
                assert!(items.is_empty())
            }
            other => panic!("unexpected events {other:?}"),
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
