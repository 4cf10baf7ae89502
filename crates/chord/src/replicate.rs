//! Successor replication and hash-tree anti-entropy.
//!
//! The Chord-side port of P-Grid's hybrid push/pull repair (paper ref
//! \[4\], Datta et al., ICDCS 2003): a primary **pushes** every applied
//! write to its successor; a replica that missed pushes (offline,
//! lossy link) catches up through periodic **anti-entropy** with its
//! predecessor (the primary of its replica set). The exchange itself is
//! [`unistore_overlay::repair`]'s, shared with P-Grid; this module only
//! names the partner and the span shared with it — the *predecessor's*
//! primary range `(predecessor2, predecessor]`, not the whole store:
//! the replica also holds its own primary records, the primary also
//! holds replica copies of *its* predecessor's, and summaries over
//! everything would never match.

use unistore_overlay::repair::{RepairMsg, Span};
use unistore_overlay::{Record, RecordList};
use unistore_simnet::NodeId;
use unistore_util::wire::{BatchOp, BatchVerb};
use unistore_util::Key;

use crate::msg::ChordMsg;
use crate::node::{ChordNode, Fx, Item};
use crate::store::RecordKey;

/// The record keys at ring positions `(after, upto]`: one span, or two
/// when the interval wraps through zero (`after == upto` is the whole
/// ring).
fn ring_spans(after: u64, upto: u64) -> impl Iterator<Item = Span<RecordKey>> {
    let from = |ring| (ring, 0, 0);
    let to = |ring| (ring, Key::MAX, u64::MAX);
    let tail = after.checked_add(1).map(|first| (from(first), to(u64::MAX)));
    match after < upto {
        true => [tail.map(|(lo, _)| (lo, to(upto))), None],
        false => [Some((from(0), to(upto))), tail],
    }
    .into_iter()
    .flatten()
}

impl<I: Item> ChordNode<I> {
    /// Applies a routed insert this node is responsible for; under
    /// replication, a newly applied write joins `pushes`, which the
    /// sub-batch sends to the successor in one message (one level
    /// deep — replicas only apply, never re-push).
    pub(crate) fn apply_insert(
        &mut self,
        ring_key: u64,
        key: Key,
        item: I,
        version: u64,
        pushes: &mut Vec<Record<RecordKey, I>>,
    ) {
        if !self.cfg.replicate {
            self.store.insert(ring_key, key, item, version);
            return;
        }
        let ident = item.ident();
        if self.store.insert(ring_key, key, item.clone(), version) {
            pushes.push(((ring_key, key, ident), version, Some(item)));
        }
    }

    /// Applies a routed delete; under replication a tombstone that
    /// changed the store joins `pushes`, so deletes propagate to the
    /// replica and a stale or repeated one costs nothing.
    pub(crate) fn apply_delete(
        &mut self,
        ring_key: u64,
        key: Key,
        ident: u64,
        version: u64,
        pushes: &mut Vec<Record<RecordKey, I>>,
    ) {
        let record = (ring_key, key, ident);
        if self.store.apply(record, version, None) && self.cfg.replicate {
            pushes.push((record, version, None));
        }
    }

    /// Applies a handed-off op of the predecessor's range as a replica
    /// copy, as a push would have, without pushing it on; a copy that
    /// changed the store joins `handbacks`, which the sub-batch hands
    /// to the owner in one message when the owner is trusted.
    pub(crate) fn apply_copy(
        &mut self,
        ring_key: u64,
        op: BatchOp,
        item: Option<I>,
        handbacks: &mut Vec<Record<RecordKey, I>>,
    ) {
        let ident = match (op.verb, &item) {
            (BatchVerb::Delete { ident }, _) => ident,
            (BatchVerb::Insert { .. }, Some(item)) => item.ident(),
            (BatchVerb::Insert { .. }, None) => return,
        };
        let record = (ring_key, op.key, ident);
        if self.store.apply(record, op.version, item.clone()) {
            handbacks.push((record, op.version, item));
        }
    }

    /// Sends the records a sub-batch applied to `to` in one message:
    /// pushes to the successor, handed-off copies back to the
    /// predecessor that owns them.
    pub(crate) fn push_records(
        &mut self,
        to: NodeId,
        records: Vec<Record<RecordKey, I>>,
        fx: &mut Fx<I>,
    ) {
        if records.is_empty() || to == self.id() {
            return; // nothing applied, or a singleton ring: nowhere to send
        }
        fx.send(to, ChordMsg::Replicate { entries: RecordList::from_records(records) });
    }

    /// Applies pushed or pulled records — live entries and tombstones
    /// alike — under the shared strictly-newer rule.
    pub(crate) fn handle_replicate(&mut self, entries: RecordList<RecordKey, I>) {
        for (record, version, item) in entries {
            self.store.apply(record, version, item);
        }
    }

    /// Periodic anti-entropy: probe the predecessor with our summary
    /// of its primary range.
    pub(crate) fn run_anti_entropy(&mut self, fx: &mut Fx<I>) {
        let (pred, pred_ring) = self.predecessor;
        if pred == self.id() {
            return; // singleton ring
        }
        for span in ring_spans(self.predecessor2.1, pred_ring) {
            fx.send(pred, ChordMsg::Repair(self.repair.probe(&mut self.store, span)));
        }
    }

    /// One step of a repair exchange, confined to what this node and
    /// the sender both hold: the predecessor's primary range when the
    /// sender is the primary we replicate, our own when it is our
    /// replica (on a two-node ring it is both). Replica copies of any
    /// other range are neither summarized nor relayed — that would
    /// smear every record around the ring one hop per exchange.
    pub(crate) fn handle_repair(
        &mut self,
        from: NodeId,
        msg: RepairMsg<RecordKey, I>,
        fx: &mut Fx<I>,
    ) {
        let (pred, pred_ring) = self.predecessor;
        let mut shared: Vec<Span<RecordKey>> = Vec::with_capacity(4);
        if from == pred {
            shared.extend(ring_spans(self.predecessor2.1, pred_ring));
        }
        if from == self.successor.0 {
            shared.extend(ring_spans(pred_ring, self.ring_id()));
        }
        for reply in self.repair.handle(&mut self.store, &shared, msg) {
            fx.send(from, ChordMsg::Repair(reply));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{ChordConfig, Fx};
    use crate::topology::RingWiring;
    use unistore_overlay::repair::Part;
    use unistore_simnet::Effects;
    use unistore_util::item::RawItem;

    fn replicating() -> ChordConfig {
        ChordConfig { replicate: true, ..ChordConfig::default() }
    }

    /// The member at ring position `me` of the three-point ring 50 →
    /// 100 → 200 (ids 1, 0, 2): node 0 is primary for `(50, 100]` and
    /// replicates node 1's `(200, 50]`, which wraps through zero.
    fn member(me: u32, cfg: ChordConfig) -> ChordNode<RawItem> {
        let ring = [(NodeId(1), 50), (NodeId(0), 100), (NodeId(2), 200)];
        let at = ring.iter().position(|&(id, _)| id == NodeId(me)).unwrap();
        let mut n = ChordNode::new(NodeId(me), ring[at].1, cfg, 7);
        n.set_topology(RingWiring {
            predecessor: ring[(at + 2) % 3],
            predecessor2: ring[(at + 1) % 3],
            successor: ring[(at + 1) % 3],
            successor2: ring[(at + 2) % 3],
            fingers: Vec::new(),
        });
        n
    }

    fn node(cfg: ChordConfig) -> ChordNode<RawItem> {
        member(0, cfg)
    }

    /// The sends of `n` after `apply` fills a sub-batch's pushes.
    fn pushed(
        n: &mut ChordNode<RawItem>,
        apply: impl FnOnce(&mut ChordNode<RawItem>, &mut Vec<Record<RecordKey, RawItem>>),
    ) -> Fx<RawItem> {
        let mut pushes = Vec::new();
        apply(n, &mut pushes);
        let mut fx = Effects::new();
        n.push_records(n.successor.0, pushes, &mut fx);
        fx
    }

    /// The records of the one `Replicate` in `fx`, sent to node 2.
    fn replicated(fx: &Fx<RawItem>) -> Vec<Record<RecordKey, RawItem>> {
        match fx.sends() {
            [(NodeId(2), ChordMsg::Replicate { entries })] => entries.clone().into_iter().collect(),
            other => panic!("unexpected sends {other:?}"),
        }
    }

    #[test]
    fn applied_write_is_pushed_to_successor() {
        let mut n = node(replicating());
        let fx = pushed(&mut n, |n, pushes| {
            n.apply_insert(80, 5, RawItem(5), 1, pushes);
            n.apply_insert(70, 6, RawItem(6), 1, pushes);
        });
        let records = replicated(&fx);
        assert_eq!(
            records,
            vec![((70, 6, 6), 1, Some(RawItem(6))), ((80, 5, 5), 1, Some(RawItem(5)))],
            "one message, in record-key order"
        );
        // A rejected (stale) write is not pushed.
        let fx = pushed(&mut n, |n, pushes| n.apply_insert(80, 5, RawItem(5), 1, pushes));
        assert!(fx.is_empty(), "stale write must not replicate");
    }

    #[test]
    fn delete_pushes_tombstone() {
        let mut n = node(replicating());
        let fx = pushed(&mut n, |n, pushes| n.apply_delete(80, 5, RawItem(5).ident(), 2, pushes));
        assert_eq!(replicated(&fx), vec![((80, 5, 5), 2, None)]);
    }

    #[test]
    fn stale_or_repeated_tombstone_is_not_pushed() {
        let mut n = node(replicating());
        let ident = RawItem(5).ident();
        let fx = pushed(&mut n, |n, pushes| n.apply_insert(80, 5, RawItem(5), 3, pushes));
        assert_eq!(replicated(&fx).len(), 1);
        // Older than the live record: refused, and not pushed.
        let fx = pushed(&mut n, |n, pushes| n.apply_delete(80, 5, ident, 2, pushes));
        assert!(fx.is_empty(), "a stale tombstone must not replicate");
        let fx = pushed(&mut n, |n, pushes| n.apply_delete(80, 5, ident, 4, pushes));
        assert_eq!(replicated(&fx), vec![((80, 5, 5), 4, None)]);
        // The same delete retransmitted changes nothing and costs nothing.
        let fx = pushed(&mut n, |n, pushes| n.apply_delete(80, 5, ident, 4, pushes));
        assert!(fx.is_empty(), "a repeated tombstone must not replicate");
    }

    #[test]
    fn replication_off_pushes_nothing() {
        let mut n = node(ChordConfig::default());
        let fx = pushed(&mut n, |n, pushes| {
            n.apply_insert(80, 5, RawItem(5), 1, pushes);
            n.apply_delete(80, 5, RawItem(5).ident(), 2, pushes);
        });
        assert!(fx.is_empty());
    }

    #[test]
    fn ring_spans_cover_the_interval_once() {
        let all = |after, upto| ring_spans(after, upto).collect::<Vec<_>>();
        assert_eq!(all(50, 100), vec![((51, 0, 0), (100, u64::MAX, u64::MAX))]);
        assert_eq!(
            all(200, 50),
            vec![
                ((0, 0, 0), (50, u64::MAX, u64::MAX)),
                ((201, 0, 0), (u64::MAX, u64::MAX, u64::MAX))
            ],
            "a wrapping interval is two spans"
        );
        assert_eq!(all(u64::MAX, 50), vec![((0, 0, 0), (50, u64::MAX, u64::MAX))]);
        assert_eq!(all(7, 7).len(), 2, "the whole ring");
    }

    /// The probes node 0 sends on a tick, unwrapped.
    fn probes(n: &mut ChordNode<RawItem>) -> Vec<RepairMsg<RecordKey, RawItem>> {
        let mut fx = Effects::new();
        n.run_anti_entropy(&mut fx);
        fx.sends()
            .iter()
            .map(|(to, msg)| {
                assert_eq!(*to, NodeId(1), "the probe goes to the primary");
                match msg {
                    ChordMsg::Repair(probe @ RepairMsg::Probe { .. }) => probe.clone(),
                    other => panic!("unexpected message {other:?}"),
                }
            })
            .collect()
    }

    #[test]
    fn anti_entropy_pulls_from_predecessor() {
        let mut n = node(replicating());
        // A replica copy from the predecessor's range (200, 50] and a
        // primary record of our own, which is none of its business.
        n.store_mut().insert(40, 5, RawItem(5), 1);
        n.store_mut().insert(80, 6, RawItem(6), 1);
        let sent = probes(&mut n);
        assert_eq!(sent.len(), 2, "the predecessor's range wraps: one probe per span");
        let counts: Vec<u64> = sent
            .iter()
            .map(|p| match p {
                RepairMsg::Probe { summary, .. } => summary.count,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(counts, vec![1, 0], "only the replica copy is summarized");
    }

    #[test]
    fn digest_answered_with_owned_records_only() {
        // Node 1 is the primary of (200, 50]; its store also holds a
        // replica copy of node 2's range (position 150).
        let mut primary = member(1, replicating());
        primary.store_mut().insert(40, 5, RawItem(5), 1);
        primary.store_mut().insert(150, 6, RawItem(6), 1);
        let mut replica = node(replicating());
        let mut fx = Effects::new();
        for probe in probes(&mut replica) {
            primary.handle_repair(NodeId(0), probe, &mut fx);
        }
        let [(to, ChordMsg::Repair(RepairMsg::Descend { parts }))] = fx.sends() else {
            panic!("unexpected sends {:?}", fx.sends())
        };
        assert_eq!(*to, NodeId(0));
        match parts.as_slice() {
            [Part::Run { entries, .. }] => {
                assert_eq!(entries.len(), 1, "replica copies must not relay");
                assert_eq!(entries[0].0 .0, 40);
            }
            other => panic!("unexpected parts {other:?}"),
        }
        // A probe for anything but the range we share is ignored, from
        // the replica and from a stranger alike.
        let mut fx = Effects::new();
        let span = ((101, 0, 0), (200, u64::MAX, u64::MAX));
        let foreign = RepairMsg::Probe { span, summary: Default::default() };
        primary.handle_repair(NodeId(0), foreign, &mut fx);
        for probe in probes(&mut replica) {
            primary.handle_repair(NodeId(9), probe, &mut fx);
        }
        assert!(fx.is_empty());
    }

    #[test]
    fn digest_with_nothing_missing_stays_silent() {
        let mut primary = member(1, replicating());
        primary.store_mut().insert(40, 5, RawItem(5), 1);
        let mut replica = node(replicating());
        replica.store_mut().insert(40, 5, RawItem(5), 1);
        let mut fx = Effects::new();
        for probe in probes(&mut replica) {
            primary.handle_repair(NodeId(0), probe, &mut fx);
        }
        assert!(fx.is_empty());
    }

    #[test]
    fn replicate_applies_under_version_rules() {
        let mut n = node(replicating());
        let ident = RawItem(5).ident();
        let list = |version, item| RecordList::from_records([((80, 5, ident), version, item)]);
        n.handle_replicate(list(3, Some(RawItem(5))));
        assert_eq!(n.store().len(), 1);
        // A stale tombstone loses; a newer one shadows.
        n.handle_replicate(list(2, None));
        assert_eq!(n.store().len(), 1, "stale tombstone must not kill the entry");
        n.handle_replicate(list(4, None));
        assert!(n.store().is_empty());
    }
}
