//! Replication and loosely consistent updates.
//!
//! The paper relies on P-Grid's update mechanism "with lose \[sic\]
//! consistency guarantees" [ref 4, Datta et al., ICDCS 2003]: a hybrid
//! push/pull scheme. Writes are **pushed** to the replica group of the
//! responsible leaf; replicas that were offline catch up through periodic
//! **anti-entropy** with a random replica — the shared hash-tree exchange
//! of [`unistore_overlay::repair`], for which this module only names the
//! partner and the span shared with it (the leaf's key range). Readers
//! contact a single replica, so reads may be stale until anti-entropy
//! converges — experiment E10 measures exactly this.

use unistore_overlay::repair::{RepairMsg, Span};
use unistore_simnet::NodeId;
use unistore_util::Key;

use crate::item::{Item, Version};
use crate::msg::PGridMsg;
use crate::peer::{Fx, PGridPeer};

impl<I: Item> PGridPeer<I> {
    /// Pushes a freshly applied entry to every known replica.
    pub(crate) fn push_to_replicas(&mut self, key: Key, version: Version, item: I, fx: &mut Fx<I>) {
        let entries = vec![(key, version, item)];
        for &r in self.routing.replicas() {
            fx.send(r, PGridMsg::Replicate { entries: entries.clone() });
        }
    }

    /// Applies pushed or pulled entries. No re-push: the push fan-out is
    /// one level deep (the leaf that accepted the write pushes; replicas
    /// only apply), loops are impossible.
    pub(crate) fn handle_replicate(&mut self, entries: Vec<(Key, Version, I)>) {
        for (key, version, item) in entries {
            self.store.insert(key, item, version);
        }
    }

    /// The record keys of this peer's leaf: what it shares with every
    /// same-path replica.
    fn leaf_span(&self) -> Span<(Key, u64)> {
        let path = self.routing.path();
        ((path.min_key(), 0), (path.max_key(), u64::MAX))
    }

    /// Periodic anti-entropy: probe one random replica with the
    /// summary of our leaf.
    pub(crate) fn run_anti_entropy(&mut self, fx: &mut Fx<I>) {
        let replicas = self.routing.replicas();
        if replicas.is_empty() {
            return;
        }
        let pick = replicas[rand::Rng::gen_range(&mut self.rng, 0..replicas.len())];
        let span = self.leaf_span();
        fx.send(pick, PGridMsg::Repair(self.repair.probe(&mut self.store, span)));
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
        let shared = [self.leaf_span()];
        for reply in self.repair.handle(&mut self.store, &shared, msg) {
            fx.send(from, PGridMsg::Repair(reply));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PGridConfig;
    use crate::item::RawItem;
    use unistore_simnet::Effects;
    use unistore_util::BitPath;

    fn peer(id: u32) -> PGridPeer<RawItem> {
        PGridPeer::new(NodeId(id), BitPath::parse("0").unwrap(), PGridConfig::default(), 3)
    }

    #[test]
    fn replicate_applies_entries() {
        let mut p = peer(0);
        p.handle_replicate(vec![(1, 0, RawItem(1)), (2, 5, RawItem(2))]);
        assert_eq!(p.store().get(1), vec![RawItem(1)]);
        assert_eq!(p.store().get(2), vec![RawItem(2)]);
    }

    #[test]
    fn anti_entropy_skipped_without_replicas() {
        let mut p = peer(0);
        let mut fx = Effects::new();
        p.run_anti_entropy(&mut fx);
        assert!(fx.is_empty());
    }

    #[test]
    fn anti_entropy_sends_digest_to_a_replica() {
        let mut p = peer(0);
        p.routing_mut().add_replica(NodeId(7));
        p.preload(3, RawItem(3), 1);
        let mut fx = Effects::new();
        p.run_anti_entropy(&mut fx);
        assert_eq!(fx.sends().len(), 1);
        let (to, msg) = &fx.sends()[0];
        assert_eq!(*to, NodeId(7));
        match msg {
            PGridMsg::Repair(RepairMsg::Probe { span, summary }) => {
                assert_eq!(*span, ((0, 0), (u64::MAX >> 1, u64::MAX)), "the leaf of path 0");
                assert_eq!(summary.count, 1);
            }
            other => panic!("unexpected message {other:?}"),
        }
    }

    /// The probe `from` would send after preloading `entries`.
    fn probe_of(from: u32, entries: &[(Key, u64)]) -> RepairMsg<(Key, u64), RawItem> {
        let mut p = peer(from);
        p.routing_mut().add_replica(NodeId(0));
        for &(k, v) in entries {
            p.preload(k, RawItem(k), v);
        }
        let mut fx = Effects::new();
        p.run_anti_entropy(&mut fx);
        match fx.sends() {
            [(_, PGridMsg::Repair(probe))] => probe.clone(),
            other => panic!("unexpected sends {other:?}"),
        }
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
            RepairMsg::Records { entries: Vec::new(), want: want.clone() },
            &mut fx,
        );
        match fx.sends() {
            [(_, PGridMsg::Repair(RepairMsg::Records { entries, want }))] => {
                assert_eq!(entries.len(), 1);
                assert_eq!(entries[0].0 .0, 2);
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
            entries: vec![((foreign, 7), 1, Some(RawItem(7))), ((2, 2), 1, Some(RawItem(2)))],
            want: vec![(foreign, 7)],
        };
        p.handle_repair(NodeId(9), push, &mut fx);
        assert!(fx.is_empty());
        assert_eq!(p.store().get(2), vec![RawItem(2)]);
        assert!(p.store().get(foreign).is_empty(), "foreign records are not applied");
    }
}
