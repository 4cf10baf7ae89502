//! Dynamic overlay construction by pairwise exchanges.
//!
//! Aberer's original P-Grid construction (paper ref \[1\]): peers start
//! unspecialized (path ε) and meet pairwise at random. Depending on how
//! their current paths relate, a meeting either *splits* the key space
//! between them, makes them *replicas*, aligns an unspecialized peer with
//! existing structure, or just exchanges references. No central
//! coordination, no global knowledge — the trie emerges.
//!
//! The exchange partner is drawn from a peer list supplied at node
//! creation; the original system uses random walks for the same purpose
//! (documented substitution, DESIGN.md §2).
//!
//! Case analysis for a meeting of `u` (initiator) and `v` (receiver),
//! with `l` the length of their paths' common prefix:
//!
//! | relation | action |
//! |---|---|
//! | paths identical, both hold enough data | split: `v` keeps side `1`, `u` takes side `0`, data is handed over |
//! | paths identical, little data | become replicas of each other |
//! | `u`'s path is a prefix of `v`'s | `u` adopts the complement of `v`'s next bit |
//! | `v`'s path is a prefix of `u`'s | symmetric |
//! | paths diverge | mutual references at the divergence level |

use rand::Rng;

use unistore_overlay::{push_hop, HopGroups};
use unistore_simnet::NodeId;
use unistore_util::wire::OpBatch;
use unistore_util::{BitPath, Key};

use crate::item::{key_span, Entries, Item};
use crate::msg::{PGridMsg, PeerRef};
use crate::peer::{Fx, PGridPeer};
use crate::routing::RouteDecision;

/// Reserved query id for internal re-route batches (never registered as
/// pending, so their acks are ignored).
const REROUTE_QID: u64 = 0;

impl<I: Item> PGridPeer<I> {
    /// Starts one exchange with a random peer (fired by the EXCHANGE
    /// timer while bootstrapping).
    pub(crate) fn initiate_exchange(&mut self, fx: &mut Fx<I>) {
        // Retry entries that could not be routed while the routing
        // table was still sparse.
        if !self.reroute_stash.is_empty() {
            let stashed = std::mem::take(&mut self.reroute_stash);
            self.handle_exchange_data(Entries::from_records(stashed), fx);
        }
        if self.universe.len() < 2 {
            return;
        }
        let target = loop {
            let pick = self.universe[self.rng.gen_range(0..self.universe.len())];
            if pick != self.id {
                break pick;
            }
        };
        fx.send(
            target,
            PGridMsg::Exchange { path: self.routing.path(), store_len: self.store.len() as u64 },
        );
    }

    /// Receiver side of a pairwise exchange.
    pub(crate) fn handle_exchange(
        &mut self,
        _now: unistore_simnet::SimTime,
        from: NodeId,
        their_path: BitPath,
        their_len: u64,
        fx: &mut Fx<I>,
    ) {
        let my_path = self.routing.path();
        let l = my_path.common_prefix_len(&their_path);
        if l == my_path.len() && l == their_path.len() {
            // Identical paths.
            let enough_data = self.store.len() > self.cfg.split_threshold
                && their_len as usize > self.cfg.split_threshold;
            if enough_data && my_path.len() < self.cfg.max_depth {
                // Split: we keep the `1` side, initiator takes `0`.
                let new_mine = my_path.child(true);
                let theirs = my_path.child(false);
                let entries = self.store.split_off_outside(new_mine.min_key(), new_mine.max_key());
                self.routing.set_path(new_mine);
                self.routing.add_ref(PeerRef { id: from, path: theirs });
                fx.send(from, PGridMsg::ExchangeSplit { new_sender_path: new_mine, entries });
            } else {
                // Become replicas; send our data, the initiator answers
                // with theirs (ExchangeData) so both sides converge.
                self.routing.add_replica(from);
                fx.send(
                    from,
                    PGridMsg::ExchangeReplica {
                        entries: self
                            .store
                            .records(key_span(0, Key::MAX))
                            .filter(|(_, _, item)| item.is_some())
                            .map(|(k, v, item)| (k, v, item.cloned()))
                            .collect(),
                    },
                );
            }
        } else if l == my_path.len() {
            // We are less specialized: adopt the complement of their next
            // bit, reference them, and introduce ourselves.
            let bit = !their_path.bit(l);
            self.extend_path(bit, fx);
            self.routing.add_ref(PeerRef { id: from, path: their_path });
            fx.send(
                from,
                PGridMsg::ExchangeRefs {
                    peers: vec![PeerRef { id: self.id, path: self.routing.path() }],
                },
            );
        } else if l == their_path.len() {
            // They are less specialized: tell them to adopt the
            // complement of our next bit, and share what we know.
            fx.send(from, PGridMsg::ExchangeAdopt { bit: !my_path.bit(l) });
            let mut peers = self.routing.all_refs();
            peers.push(PeerRef { id: self.id, path: my_path });
            fx.send(from, PGridMsg::ExchangeRefs { peers });
        } else {
            // Diverged: mutual referencing plus gossip.
            self.routing.add_ref(PeerRef { id: from, path: their_path });
            let mut peers = self.routing.all_refs();
            peers.push(PeerRef { id: self.id, path: my_path });
            fx.send(from, PGridMsg::ExchangeRefs { peers });
        }
    }

    /// Initiator side of a completed split: adopt the sibling path, take
    /// the handed-over entries, send back whatever we hold that now
    /// belongs to the sender's side.
    pub(crate) fn handle_exchange_split(
        &mut self,
        from: NodeId,
        new_sender_path: BitPath,
        entries: Entries<I>,
        fx: &mut Fx<I>,
    ) {
        let Some(sibling) = new_sender_path.sibling() else {
            return; // malformed: a split cannot produce the root
        };
        if new_sender_path.parent() == self.routing.path() {
            self.routing.set_path(sibling);
            self.routing.add_ref(PeerRef { id: from, path: new_sender_path });
            // Hand over our entries that belong to the sender now.
            let moved = self.store.split_off_outside(sibling.min_key(), sibling.max_key());
            if !moved.is_empty() {
                fx.send(from, PGridMsg::ExchangeData { entries: moved });
            }
        }
        // Apply (or re-route) what the sender gave us.
        self.handle_exchange_data(entries, fx);
    }

    /// Entries handed over without structural context: apply what we are
    /// responsible for, re-route the rest as one write batch per next
    /// hop; what cannot be routed yet is stashed and retried every
    /// exchange round.
    pub(crate) fn handle_exchange_data(&mut self, entries: Entries<I>, fx: &mut Fx<I>) {
        let mut foreign = OpBatch::new();
        let mut groups = HopGroups::new();
        for (record, version, item) in entries {
            let key = record.0;
            if self.routing.responsible(key) {
                self.store.apply(record, version, item);
            } else if let Some(item) = item {
                match self.routing.route(key, None, &mut self.rng) {
                    RouteDecision::Forward(next, _) => {
                        push_hop(&mut groups, next, foreign.len());
                        let item = foreign.add_item(item);
                        foreign.push_insert(key, item, version);
                    }
                    _ => self.reroute_stash.push((record, version, Some(item))),
                }
            }
        }
        for (next, group) in groups {
            fx.send(
                next,
                PGridMsg::OpBatch {
                    qid: REROUTE_QID,
                    origin: self.id,
                    hops: 0,
                    positions: group.iter().map(|&i| i as u32).collect(),
                    batch: foreign.subset(&group),
                },
            );
        }
    }

    /// Both peers hold the same path with little data: converge stores.
    pub(crate) fn handle_exchange_replica(&mut self, from: NodeId, entries: Entries<I>) {
        self.routing.add_replica(from);
        for (record, version, item) in entries {
            self.store.apply(record, version, item);
        }
    }

    /// Instructed to specialize by appending `bit`.
    pub(crate) fn handle_exchange_adopt(&mut self, _from: NodeId, bit: bool, fx: &mut Fx<I>) {
        if self.routing.path().len() < self.cfg.max_depth {
            self.extend_path(bit, fx);
        }
    }

    /// Appends one bit to the local path and re-routes entries that fall
    /// outside the narrowed responsibility.
    pub(crate) fn extend_path(&mut self, bit: bool, fx: &mut Fx<I>) {
        let new_path = self.routing.path().child(bit);
        self.routing.set_path(new_path);
        let moved = self.store.split_off_outside(new_path.min_key(), new_path.max_key());
        self.handle_exchange_data(moved, fx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PGridConfig;
    use crate::item::RawItem;
    use unistore_simnet::Effects;

    fn bpeer(id: u32, universe: Vec<NodeId>) -> PGridPeer<RawItem> {
        let cfg = PGridConfig { split_threshold: 2, ..PGridConfig::default() };
        PGridPeer::new_bootstrap(NodeId(id), cfg, 5, universe)
    }

    fn fill(p: &mut PGridPeer<RawItem>, keys: &[u64]) {
        for &k in keys {
            p.preload(k, RawItem(k), 0);
        }
    }

    #[test]
    fn identical_paths_with_data_split() {
        let ids = vec![NodeId(0), NodeId(1)];
        let mut v = bpeer(1, ids.clone());
        // Data on both sides of the first bit.
        fill(&mut v, &[1, 2, 3, (1 << 63) + 1, (1 << 63) + 2, (1 << 63) + 3]);
        let mut fx = Effects::new();
        v.handle_exchange(unistore_simnet::SimTime::ZERO, NodeId(0), BitPath::ROOT, 6, &mut fx);
        // v keeps the `1` side.
        assert_eq!(v.path(), BitPath::parse("1").unwrap());
        assert_eq!(v.store().len(), 3);
        match &fx.sends()[0] {
            (to, PGridMsg::ExchangeSplit { new_sender_path, entries }) => {
                assert_eq!(*to, NodeId(0));
                assert_eq!(*new_sender_path, BitPath::parse("1").unwrap());
                assert_eq!(entries.len(), 3, "low-side entries handed over");
            }
            other => panic!("unexpected send {other:?}"),
        }
    }

    #[test]
    fn identical_paths_without_data_become_replicas() {
        let ids = vec![NodeId(0), NodeId(1)];
        let mut v = bpeer(1, ids);
        fill(&mut v, &[1]);
        let mut fx = Effects::new();
        v.handle_exchange(unistore_simnet::SimTime::ZERO, NodeId(0), BitPath::ROOT, 1, &mut fx);
        assert_eq!(v.path(), BitPath::ROOT);
        assert_eq!(v.routing().replicas(), &[NodeId(0)]);
        assert!(matches!(fx.sends()[0].1, PGridMsg::ExchangeReplica { .. }));
    }

    #[test]
    fn split_initiator_adopts_sibling_and_returns_data() {
        let ids = vec![NodeId(0), NodeId(1)];
        let mut u = bpeer(0, ids);
        fill(&mut u, &[7, (1 << 63) + 9]);
        let mut fx = Effects::new();
        u.handle_exchange_split(
            NodeId(1),
            BitPath::parse("1").unwrap(),
            Entries::from_records([((3, 3), 0, Some(RawItem(3)))]),
            &mut fx,
        );
        assert_eq!(u.path(), BitPath::parse("0").unwrap());
        // Kept its low-side entry + the handed-over one.
        assert_eq!(u.store().get(7), vec![RawItem(7)]);
        assert_eq!(u.store().get(3), vec![RawItem(3)]);
        // High-side entry returned to the sender.
        match &fx.sends()[0] {
            (to, PGridMsg::ExchangeData { entries }) => {
                assert_eq!(*to, NodeId(1));
                assert_eq!(entries.iter().next().map(|(k, _, _)| k.0), Some((1 << 63) + 9));
            }
            other => panic!("unexpected send {other:?}"),
        }
    }

    #[test]
    fn prefix_relation_extends_path() {
        let ids = vec![NodeId(0), NodeId(1)];
        let mut v = bpeer(1, ids);
        // v at root, initiator at "01": v adopts the complement of the
        // initiator's first bit → "1", and references it at level 0.
        let mut fx = Effects::new();
        v.handle_exchange(
            unistore_simnet::SimTime::ZERO,
            NodeId(0),
            BitPath::parse("01").unwrap(),
            5,
            &mut fx,
        );
        assert_eq!(v.path(), BitPath::parse("1").unwrap());
        assert_eq!(v.routing().level_refs(0).len(), 1);
    }

    #[test]
    fn reverse_prefix_sends_adopt() {
        let ids = vec![NodeId(0), NodeId(1)];
        let mut v = bpeer(1, ids);
        let mut fx0 = Effects::new();
        v.extend_path(false, &mut fx0); // v at "0"
        v.extend_path(true, &mut fx0); // v at "01"
        let mut fx = Effects::new();
        v.handle_exchange(unistore_simnet::SimTime::ZERO, NodeId(0), BitPath::ROOT, 5, &mut fx);
        let adopt = fx
            .sends()
            .iter()
            .find_map(|(_, m)| match m {
                PGridMsg::ExchangeAdopt { bit } => Some(*bit),
                _ => None,
            })
            .expect("adopt sent");
        // v's next bit after ε is 0 → initiator adopts 1.
        assert!(adopt);
    }

    #[test]
    fn diverged_paths_exchange_refs() {
        let ids = vec![NodeId(0), NodeId(1)];
        let mut v = bpeer(1, ids);
        let mut fx0 = Effects::new();
        v.extend_path(true, &mut fx0); // v at "1"
        let mut fx = Effects::new();
        v.handle_exchange(
            unistore_simnet::SimTime::ZERO,
            NodeId(0),
            BitPath::parse("0").unwrap(),
            5,
            &mut fx,
        );
        assert_eq!(v.routing().level_refs(0).len(), 1);
        assert!(matches!(fx.sends()[0].1, PGridMsg::ExchangeRefs { .. }));
    }

    #[test]
    fn exchange_data_reroutes_foreign_entries() {
        let ids = vec![NodeId(0), NodeId(1), NodeId(2)];
        let mut v = bpeer(1, ids);
        let mut fx0 = Effects::new();
        v.extend_path(false, &mut fx0); // v at "0"
        v.extend_path(false, &mut fx0); // v at "00"
        v.routing_mut().add_ref(PeerRef { id: NodeId(0), path: BitPath::parse("1").unwrap() });
        v.routing_mut().add_ref(PeerRef { id: NodeId(2), path: BitPath::parse("01").unwrap() });
        let (hi, mid) = (1u64 << 63, 1u64 << 62);
        let mut fx = Effects::new();
        let entries = [(5, 0, 5), (hi + 1, 0, 1), (mid + 2, 3, 2), (hi + 3, 0, 3)]
            .map(|(key, version, id)| ((key, id), version, Some(RawItem(id))));
        v.handle_exchange_data(Entries::from_records(entries), &mut fx);
        // Own-side entry applied; the foreign ones leave as one write
        // batch per next hop, nothing dropped and nothing else sent.
        assert_eq!(v.store().get(5), vec![RawItem(5)]);
        type Entry = (Key, u64, RawItem);
        let mut rerouted: Vec<(NodeId, Vec<Entry>)> = Vec::new();
        for (to, msg) in fx.sends() {
            match msg {
                PGridMsg::OpBatch { qid: REROUTE_QID, origin, hops: 0, positions, batch } => {
                    assert_eq!(*origin, NodeId(1));
                    assert_eq!(positions.len(), batch.len(), "one position per op");
                    let entries = batch
                        .ops
                        .iter()
                        .map(|op| (op.key, op.version, *batch.item_of(op).expect("insert op")))
                        .collect();
                    rerouted.push((*to, entries));
                }
                other => panic!("unexpected send {other:?}"),
            }
        }
        assert_eq!(
            rerouted,
            vec![
                (NodeId(2), vec![(mid + 2, 3, RawItem(2))]),
                (NodeId(0), vec![(hi + 1, 0, RawItem(1)), (hi + 3, 0, RawItem(3))]),
            ]
        );
    }
}
