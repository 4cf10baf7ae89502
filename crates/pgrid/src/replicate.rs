//! Replication and loosely consistent updates.
//!
//! The paper relies on P-Grid's update mechanism "with lose [sic]
//! consistency guarantees" [ref 4, Datta et al., ICDCS 2003]: a hybrid
//! push/pull scheme. Writes are **pushed** to the replica group of the
//! responsible leaf; replicas that were offline catch up through periodic
//! **pull anti-entropy** (version-digest exchange with a random replica).
//! Readers contact a single replica, so reads may be stale until
//! anti-entropy converges — experiment E10 measures exactly this.

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
            self.store.apply(key, item, version);
        }
    }

    /// Periodic anti-entropy: offer our digest to one random replica.
    pub(crate) fn run_anti_entropy(&mut self, fx: &mut Fx<I>) {
        let replicas = self.routing.replicas();
        if replicas.is_empty() {
            return;
        }
        let pick = replicas[rand::Rng::gen_range(&mut self.rng, 0..replicas.len())];
        fx.send(pick, PGridMsg::Digest { entries: self.store.digest() });
    }

    /// Answers a digest with everything the requester is missing,
    /// tombstones included.
    pub(crate) fn handle_digest(
        &mut self,
        from: NodeId,
        digest: Vec<(Key, u64, Version)>,
        fx: &mut Fx<I>,
    ) {
        let newer = self.store.newer_than(&digest);
        if !newer.is_empty() {
            fx.send(from, PGridMsg::DigestReply { entries: newer });
        }
    }

    /// Applies pulled records (live entries and tombstones alike).
    pub(crate) fn handle_digest_reply(&mut self, entries: Vec<(Key, u64, Version, Option<I>)>) {
        for (key, ident, version, item) in entries {
            self.store.apply_record(key, ident, item, version);
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
            PGridMsg::Digest { entries } => assert_eq!(entries, &[(3, 3, 1)]),
            other => panic!("unexpected message {other:?}"),
        }
    }

    #[test]
    fn digest_answered_with_missing_entries_only() {
        let mut p = peer(0);
        p.preload(1, RawItem(1), 1);
        p.preload(2, RawItem(2), 1);
        let mut fx = Effects::new();
        // Requester already has key 1 at the same version.
        p.handle_digest(NodeId(9), vec![(1, 1, 1)], &mut fx);
        assert_eq!(fx.sends().len(), 1);
        match &fx.sends()[0].1 {
            PGridMsg::DigestReply { entries } => {
                assert_eq!(entries.len(), 1);
                assert_eq!(entries[0].0, 2);
            }
            other => panic!("unexpected message {other:?}"),
        }
    }

    #[test]
    fn digest_with_nothing_missing_stays_silent() {
        let mut p = peer(0);
        p.preload(1, RawItem(1), 1);
        let mut fx = Effects::new();
        p.handle_digest(NodeId(9), vec![(1, 1, 1)], &mut fx);
        assert!(fx.is_empty());
    }
}
