//! Replication and loosely consistent updates.
//!
//! The paper relies on P-Grid's update mechanism "with lose \[sic\]
//! consistency guarantees" [ref 4, Datta et al., ICDCS 2003]: a hybrid
//! push/pull scheme. Writes are **pushed** to the replica group of the
//! responsible leaf; replicas that were offline catch up by **pull**: the
//! hash-tree exchange of [`unistore_overlay::repair`] over the leaf's key
//! range, probed by the maintenance round ([`crate::maintain`]). Readers
//! contact a single replica, so reads may be stale until anti-entropy
//! converges — experiment E10 measures exactly this.

use unistore_overlay::repair::{RepairMsg, Span};
use unistore_overlay::Record;
use unistore_simnet::NodeId;
use unistore_util::{BitPath, Key};

use crate::item::{Entries, Item};
use crate::msg::PGridMsg;
use crate::peer::{Fx, PGridPeer};

/// The record keys of the leaf at `path`: what a peer there shares with
/// every same-path replica.
pub(crate) fn leaf_span(path: BitPath) -> Span<(Key, u64)> {
    ((path.min_key(), 0), (path.max_key(), u64::MAX))
}

impl<I: Item> PGridPeer<I> {
    /// Pushes a freshly applied record to every known replica.
    pub(crate) fn push_to_replicas(&mut self, record: Record<(Key, u64), I>, fx: &mut Fx<I>) {
        let entries = Entries::from_records([record]);
        for &r in self.routing.replicas() {
            fx.send(r, PGridMsg::Replicate { entries: entries.clone() });
        }
    }

    /// Applies pushed or pulled entries. No re-push: the push fan-out is
    /// one level deep (the leaf that accepted the write pushes; replicas
    /// only apply), loops are impossible.
    pub(crate) fn handle_replicate(&mut self, entries: Entries<I>) {
        for (key, version, item) in entries {
            self.store.apply(key, version, item);
        }
    }

    /// One step of a repair exchange, confined to our leaf: a partner
    /// whose path has moved on can neither pull nor push records of
    /// key ranges we no longer share.
    pub(crate) fn handle_repair(
        &mut self,
        from: NodeId,
        msg: RepairMsg<(Key, u64), I>,
        fx: &mut Fx<I>,
    ) {
        let shared = [leaf_span(self.routing.path())];
        for reply in self.repair.handle(&mut self.store, &shared, msg) {
            fx.send(from, PGridMsg::Repair(reply));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    use crate::config::PGridConfig;
    use crate::item::RawItem;
    use crate::msg::PeerRef;
    use unistore_simnet::{Effects, NodeBehavior, SimTime};

    fn peer(id: u32) -> PGridPeer<RawItem> {
        PGridPeer::new(NodeId(id), BitPath::parse("0").unwrap(), PGridConfig::default(), 3)
    }

    #[test]
    fn replicate_applies_entries() {
        let mut p = peer(0);
        p.handle_replicate(Entries::from_records([
            ((1, 1), 0, Some(RawItem(1))),
            ((2, 2), 5, Some(RawItem(2))),
        ]));
        assert_eq!(p.store().get(1), vec![RawItem(1)]);
        assert_eq!(p.store().get(2), vec![RawItem(2)]);
    }

    /// A round with no replica to ask computes and sends no summary.
    #[test]
    fn anti_entropy_skipped_without_replicas() {
        let mut p = peer(0);
        p.routing_mut().add_ref(PeerRef { id: NodeId(1), path: BitPath::parse("1").unwrap() });
        p.preload(3, RawItem(3), 1);
        let mut fx = Effects::new();
        p.run_maintenance(&mut fx);
        assert!(matches!(fx.sends(), [(NodeId(1), PGridMsg::TableRequest { summary: None, .. })]));
        assert_eq!(p.repair.stats(), Default::default());
    }

    #[test]
    fn anti_entropy_sends_digest_to_a_replica() {
        let mut p = peer(0);
        p.routing_mut().add_replica(NodeId(7));
        p.preload(3, RawItem(3), 1);
        let mut fx = Effects::new();
        p.run_maintenance(&mut fx);
        match fx.sends() {
            [(NodeId(7), PGridMsg::TableRequest { path, summary: Some(summary), .. })] => {
                let leaf = ((0, 0), (u64::MAX >> 1, u64::MAX));
                assert_eq!(leaf_span(*path), leaf, "the path names the leaf of path 0");
                assert_eq!(summary.count, 1);
            }
            other => panic!("unexpected sends {other:?}"),
        }
    }

    /// The table request `p`'s round sends its one replica.
    fn replica_request(p: &mut PGridPeer<RawItem>) -> PGridMsg<RawItem> {
        let mut fx = Effects::new();
        p.run_maintenance(&mut fx);
        match fx.sends() {
            [(_, request @ PGridMsg::TableRequest { summary: Some(_), .. })] => request.clone(),
            other => panic!("unexpected sends {other:?}"),
        }
    }

    /// The probe `from` would send after preloading `entries`, as the
    /// replica rebuilds it from the round's request.
    fn probe_of(from: u32, entries: &[(Key, u64)]) -> RepairMsg<(Key, u64), RawItem> {
        let mut p = peer(from);
        p.routing_mut().add_replica(NodeId(0));
        for &(k, v) in entries {
            p.preload(k, RawItem(k), v);
        }
        match replica_request(&mut p) {
            PGridMsg::TableRequest { path, summary: Some(summary), .. } => {
                RepairMsg::Probe { span: leaf_span(path), summary }
            }
            other => panic!("not a probe: {other:?}"),
        }
    }

    /// Runs `a`'s round with its one replica `b` to quiescence, every
    /// message delivered; returns what `b` answered the request with.
    fn exchange(a: &mut PGridPeer<RawItem>, b: &mut PGridPeer<RawItem>) -> Vec<PGridMsg<RawItem>> {
        let mut queue = VecDeque::from([(b.id, replica_request(a))]);
        let mut answer = None;
        while let Some((to, msg)) = queue.pop_front() {
            let (dst, from) = if to == b.id { (&mut *b, a.id) } else { (&mut *a, b.id) };
            let mut fx = Effects::new();
            dst.on_message(SimTime::ZERO, from, msg, &mut fx);
            let sent: Vec<_> = fx.sends().iter().map(|(_, m)| m.clone()).collect();
            answer.get_or_insert_with(|| sent.clone());
            queue.extend(sent.into_iter().map(|m| (from, m)));
        }
        answer.unwrap_or_default()
    }

    /// Every record `p` holds, tombstones included.
    fn contents(p: &PGridPeer<RawItem>) -> Vec<((Key, u64), u64, Option<RawItem>)> {
        let all = ((0, 0), (u64::MAX, u64::MAX));
        p.store().records(all).map(|(k, v, item)| (k, v, item.cloned())).collect()
    }

    #[test]
    fn an_in_sync_replica_answers_with_the_table_reply_alone() {
        let (mut a, mut b) = (peer(9), peer(0));
        a.routing_mut().add_replica(NodeId(0));
        for p in [&mut a, &mut b] {
            p.preload(1, RawItem(1), 1);
        }
        let answer = exchange(&mut a, &mut b);
        assert!(matches!(answer.as_slice(), [PGridMsg::TableReply { .. }]), "{answer:?}");
    }

    #[test]
    fn a_diverged_replica_answers_with_a_descent_and_the_exchange_converges() {
        let (mut a, mut b) = (peer(9), peer(0));
        a.routing_mut().add_replica(NodeId(0));
        a.preload(1, RawItem(1), 2);
        a.preload(2, RawItem(2), 1);
        b.preload(1, RawItem(1), 1);
        b.preload(3, RawItem(3), 1);
        let answer = exchange(&mut a, &mut b);
        assert!(
            matches!(
                answer.as_slice(),
                [PGridMsg::TableReply { .. }, PGridMsg::Repair(RepairMsg::Descend { .. })]
            ),
            "{answer:?}"
        );
        let leaf = leaf_span(a.routing().path());
        let summaries = [&mut a, &mut b].map(|p| p.repair.summary(&mut p.store, leaf));
        assert_eq!(summaries[0], summaries[1]);
        assert_eq!(contents(&a), contents(&b));
        assert_eq!(contents(&a).len(), 3, "key 1 at version 2, keys 2 and 3");
    }

    #[test]
    fn a_requester_at_another_path_gets_its_reply_but_no_repair_step() {
        let cfg = PGridConfig::default();
        let mut a = PGridPeer::new(NodeId(9), BitPath::parse("1").unwrap(), cfg, 3);
        a.routing_mut().add_replica(NodeId(0));
        a.preload(1 << 63 | 5, RawItem(5), 1);
        let mut b = peer(0);
        b.preload(1, RawItem(1), 1);
        let before = (contents(&a), contents(&b));
        let answer = exchange(&mut a, &mut b);
        assert!(matches!(answer.as_slice(), [PGridMsg::TableReply { .. }]), "{answer:?}");
        assert_eq!((contents(&a), contents(&b)), before, "nothing is applied");
    }

    #[test]
    fn digest_answered_with_missing_entries_only() {
        let mut p = peer(0);
        p.preload(1, RawItem(1), 1);
        p.preload(2, RawItem(2), 1);
        let mut fx = Effects::new();
        // Requester already has key 1 at the same version: we describe
        // our leaf (a two-record run), it settles the run against its
        // own and asks back for key 2 alone.
        p.handle_repair(NodeId(9), probe_of(9, &[(1, 1)]), &mut fx);
        let [(to, PGridMsg::Repair(RepairMsg::Descend { parts }))] = fx.sends() else {
            panic!("unexpected sends {:?}", fx.sends())
        };
        assert_eq!(*to, NodeId(9));
        let mut requester = peer(9);
        requester.preload(1, RawItem(1), 1);
        let mut fx = Effects::new();
        requester.handle_repair(NodeId(0), RepairMsg::Descend { parts: parts.clone() }, &mut fx);
        let [(_, PGridMsg::Repair(RepairMsg::Records { entries, want }))] = fx.sends() else {
            panic!("unexpected sends {:?}", fx.sends())
        };
        assert!(entries.is_empty(), "nothing we lack");
        assert_eq!(want, &[(2, RawItem(2).ident())]);
        let mut fx = Effects::new();
        p.handle_repair(
            NodeId(9),
            RepairMsg::Records { entries: Entries::new(), want: want.clone() },
            &mut fx,
        );
        match fx.sends() {
            [(_, PGridMsg::Repair(RepairMsg::Records { entries, want }))] => {
                assert_eq!(entries.iter().map(|(k, _, _)| k.0).collect::<Vec<_>>(), vec![2]);
                assert!(want.is_empty());
            }
            other => panic!("unexpected sends {other:?}"),
        }
    }

    #[test]
    fn digest_with_nothing_missing_stays_silent() {
        let mut p = peer(0);
        p.preload(1, RawItem(1), 1);
        let mut fx = Effects::new();
        p.handle_repair(NodeId(9), probe_of(9, &[(1, 1)]), &mut fx);
        assert!(fx.is_empty());
    }

    #[test]
    fn repair_is_confined_to_the_leaf() {
        // Path "0": keys with the top bit set belong to someone else.
        let foreign = 1u64 << 63;
        let mut p = peer(0);
        p.preload(1, RawItem(1), 1);
        let mut fx = Effects::new();
        let whole = ((0, 0), (u64::MAX, u64::MAX));
        let probe = RepairMsg::Probe { span: whole, summary: Default::default() };
        p.handle_repair(NodeId(9), probe, &mut fx);
        assert!(fx.is_empty(), "a span wider than the leaf is not shared");
        let push = RepairMsg::Records {
            entries: Entries::from_records([
                ((foreign, 7), 1, Some(RawItem(7))),
                ((2, 2), 1, Some(RawItem(2))),
            ]),
            want: vec![(foreign, 7)],
        };
        p.handle_repair(NodeId(9), push, &mut fx);
        assert!(fx.is_empty());
        assert_eq!(p.store().get(2), vec![RawItem(2)]);
        assert!(p.store().get(foreign).is_empty(), "foreign records are not applied");
    }
}
