//! The maintenance round, the peer's one periodic chain under churn:
//! routing-table gossip, liveness probes and replica anti-entropy.
//!
//! P-Grid keeps multiple references per level and refreshes them through
//! gossip (paper §2/§3: robust "even in unreliable and highly dynamic
//! environments"). Each round a peer sends a table request to a random
//! reference and a random replica, and the reply carries only the
//! references the requester can still file: how evicted references are
//! replaced (evicted replicas are not). The replica's request also carries
//! the [`Summary`] of the requester's leaf, the pull of [`crate::replicate`],
//! answered with a repair `Descend` when the leaves differ. Both requests
//! probe on the round's [`Suspicion`] detector: a peer silent until
//! [`DEADLINE`] is evicted from the routing table and the replica group.
//!
//! [`Suspicion`]: unistore_overlay::liveness::Suspicion

use rand::seq::SliceRandom;

use unistore_overlay::liveness::DEADLINE;
use unistore_overlay::repair::{RepairMsg, Summary};
use unistore_simnet::{NodeId, Timer};
use unistore_util::BitPath;

use crate::item::Item;
use crate::msg::{PGridMsg, PeerRef};
use crate::peer::{timer, Fx, PGridPeer};
use crate::replicate::leaf_span;
use crate::routing::RoutingTable;

impl<I: Item> PGridPeer<I> {
    /// One maintenance round (fired by the MAINTAIN timer).
    pub(crate) fn run_maintenance(&mut self, fx: &mut Fx<I>) {
        let reference = self.routing.all_refs().choose(&mut self.rng).map(|r| r.id);
        let replica = self.routing.replicas().choose(&mut self.rng).copied();
        if reference.is_none() && replica.is_none() {
            return;
        }
        self.liveness.start_round();
        let (path, full) = (self.routing.path(), self.routing.full_levels());
        let to_replica =
            replica.map(|r| (r, Some(self.repair.summary(&mut self.store, leaf_span(path)))));
        for (target, summary) in reference.map(|r| (r, None)).into_iter().chain(to_replica) {
            self.liveness.probe(target);
            fx.send(target, PGridMsg::TableRequest { path, full, summary });
        }
        fx.set_timer(DEADLINE, Timer::new(timer::ROUND_DEADLINE, 0));
    }

    /// The round's deadline: evict every probed peer that stayed silent.
    pub(crate) fn evict_silent(&mut self) {
        for dead in self.liveness.expire() {
            self.routing.remove(dead);
        }
    }

    /// Answers a table request, always, with what the requester at
    /// `path` files into a level outside `full`: our references and
    /// ourselves, in that order; and a `summary` as a repair probe.
    pub(crate) fn handle_table_request(
        &mut self,
        from: NodeId,
        path: BitPath,
        full: u64,
        summary: Option<Summary>,
        fx: &mut Fx<I>,
    ) {
        let mut peers = self.routing.all_refs();
        peers.push(PeerRef { id: self.id, path: self.routing.path() });
        peers.retain(|r| RoutingTable::files_into_open_level(path, full, r.path));
        fx.send(from, PGridMsg::TableReply { peers });
        if let Some(summary) = summary {
            self.handle_repair(from, RepairMsg::Probe { span: leaf_span(path), summary }, fx);
        }
    }

    /// Merges advertised peers into under-full levels.
    pub(crate) fn merge_refs(&mut self, peers: &[PeerRef]) {
        for &p in peers {
            if p.id != self.id {
                self.routing.add_ref(p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PGridConfig;
    use crate::item::RawItem;
    use crate::routing::tests::{shallow_paths, subsets, tables_at};
    use unistore_simnet::{Effects, NodeBehavior, SimTime};
    use unistore_util::wire::Wire;

    fn peer(id: u32, path: &str) -> PGridPeer<RawItem> {
        PGridPeer::new(NodeId(id), BitPath::parse(path).unwrap(), PGridConfig::default(), 11)
    }

    fn pref(id: u32, path: &str) -> PeerRef {
        PeerRef { id: NodeId(id), path: BitPath::parse(path).unwrap() }
    }

    /// Fires every timer `fx` armed, as the network does once each is due.
    fn fire_timers(p: &mut PGridPeer<RawItem>, fx: &Fx<RawItem>) {
        for &(_, t) in fx.timers() {
            p.on_timer(SimTime::ZERO, t, &mut Effects::new());
        }
    }

    #[test]
    fn maintenance_probes_and_gossips() {
        let mut p = peer(0, "0");
        p.routing_mut().add_ref(pref(1, "1"));
        p.routing_mut().add_replica(NodeId(2));
        let mut fx = Effects::new();
        p.run_maintenance(&mut fx);
        let request = |to, summary| (NodeId(to), BitPath::parse("0").unwrap(), 0, summary);
        let sends: Vec<_> = fx
            .sends()
            .iter()
            .map(|(to, m)| match m {
                PGridMsg::TableRequest { path, full, summary } => {
                    (*to, *path, *full, summary.is_some())
                }
                other => panic!("a round sends table requests only, not {other:?}"),
            })
            .collect();
        let (to_reference, to_replica) = (request(1, false), request(2, true));
        assert_eq!(sends, vec![to_reference, to_replica], "the replica's carries the summary");
        let deadline = (DEADLINE, Timer::new(timer::ROUND_DEADLINE, 0));
        assert_eq!(fx.timers(), &[deadline], "one deadline timer per round");
        // Both were probed: silent through the deadline, both go.
        fire_timers(&mut p, &fx);
        assert_eq!(p.routing().ref_count(), 0);
        assert!(p.routing().replicas().is_empty());
    }

    #[test]
    fn a_table_request_names_the_full_levels() {
        let mut p = peer(0, "00");
        for (id, path) in [(1, "1"), (2, "10"), (3, "11")] {
            p.routing_mut().add_ref(pref(id, path));
        }
        let mut fx = Effects::new();
        p.run_maintenance(&mut fx);
        match &fx.sends()[0] {
            (_, PGridMsg::TableRequest { full, .. }) => assert_eq!(*full, 0b01, "level 0 holds 3"),
            other => panic!("unexpected send {other:?}"),
        }
    }

    /// Only the replica's request carries the leaf's summary, and only
    /// that summary counts as probe bytes.
    #[test]
    fn the_reference_request_carries_no_summary() {
        let mut p = peer(0, "0");
        p.routing_mut().add_ref(pref(1, "1"));
        p.routing_mut().add_replica(NodeId(2));
        p.preload(3, RawItem(3), 1);
        let mut fx = Effects::new();
        p.run_maintenance(&mut fx);
        let summary = match fx.sends() {
            [(NodeId(1), PGridMsg::TableRequest { summary: None, .. }), (NodeId(2), PGridMsg::TableRequest { summary: Some(s), .. })] => {
                *s
            }
            other => panic!("unexpected sends {other:?}"),
        };
        assert_eq!(summary.count, 1);
        assert_eq!(p.repair.stats().probe_bytes, summary.wire_size() as u64);
    }

    #[test]
    fn maintenance_noop_without_refs() {
        // Nor replicas: nobody to exchange with.
        let mut p = peer(0, "0");
        let mut fx = Effects::new();
        p.run_maintenance(&mut fx);
        assert!(fx.is_empty());
    }

    /// A leaf whose routing table emptied still repairs with, and
    /// probes, its replicas.
    #[test]
    fn a_round_without_references_still_exchanges_with_a_replica() {
        let mut p = peer(0, "0");
        p.routing_mut().add_replica(NodeId(2));
        let mut fx = Effects::new();
        p.run_maintenance(&mut fx);
        assert!(
            matches!(fx.sends(), [(NodeId(2), PGridMsg::TableRequest { summary: Some(_), .. })]),
            "unexpected sends {:?}",
            fx.sends()
        );
        assert_eq!(fx.timers(), &[(DEADLINE, Timer::new(timer::ROUND_DEADLINE, 0))]);
        // Probed: silent through the deadline, it goes.
        fire_timers(&mut p, &fx);
        assert!(p.routing().replicas().is_empty());
    }

    #[test]
    fn unanswered_exchange_evicts() {
        let mut p = peer(0, "0");
        p.routing_mut().add_ref(pref(1, "1"));
        let mut fx = Effects::new();
        p.run_maintenance(&mut fx);
        // Deadline fires with no table reply → evicted.
        fire_timers(&mut p, &fx);
        assert_eq!(p.routing().ref_count(), 0);
    }

    #[test]
    fn answered_exchange_keeps_ref() {
        let mut p = peer(0, "0");
        p.routing_mut().add_ref(pref(1, "1"));
        let mut fx = Effects::new();
        p.run_maintenance(&mut fx);
        // The table reply arrives first, empty as it is when we can file
        // nothing the peer knows …
        let reply = PGridMsg::TableReply { peers: Vec::new() };
        p.on_message(SimTime::ZERO, NodeId(1), reply, &mut Effects::new());
        // … so the deadline is a no-op.
        fire_timers(&mut p, &fx);
        assert_eq!(p.routing().ref_count(), 1);
    }

    /// Any message proves a probed peer alive, not just the table reply.
    #[test]
    fn a_ref_whose_table_reply_is_lost_but_that_sent_anything_else_stays() {
        let mut p = peer(0, "0");
        p.routing_mut().add_ref(pref(1, "1"));
        let mut fx = Effects::new();
        p.run_maintenance(&mut fx);
        // The reply is lost; the peer's own round's request is not.
        let path = BitPath::parse("1").unwrap();
        let request = PGridMsg::TableRequest { path, full: 0, summary: None };
        p.on_message(SimTime::ZERO, NodeId(1), request, &mut Effects::new());
        fire_timers(&mut p, &fx);
        assert_eq!(p.routing().ref_count(), 1, "evicted a peer that sent a table request");
    }

    /// The reply `p` sends a requester at `path` with `full` levels.
    fn reply_to(p: &mut PGridPeer<RawItem>, path: &str, full: u64) -> Vec<PeerRef> {
        let mut fx = Effects::new();
        p.handle_table_request(NodeId(9), BitPath::parse(path).unwrap(), full, None, &mut fx);
        match fx.sends() {
            [(NodeId(9), PGridMsg::TableReply { peers })] => peers.clone(),
            other => panic!("unexpected sends {other:?}"),
        }
    }

    #[test]
    fn table_reply_includes_self() {
        let mut p = peer(3, "01");
        p.routing_mut().add_ref(pref(1, "1"));
        // A requester at 00 files "1" at level 0 and us at level 1.
        assert_eq!(reply_to(&mut p, "00", 0), vec![pref(1, "1"), pref(3, "01")]);
        // Only while level 1 has room.
        assert_eq!(reply_to(&mut p, "00", 0b10), vec![pref(1, "1")]);
        // A requester at 1 is "1" itself and files us at level 0.
        assert_eq!(reply_to(&mut p, "1", 0), vec![pref(3, "01")]);
        // Every level full, bits past the path's length too: still a reply.
        assert_eq!(reply_to(&mut p, "00", u64::MAX), vec![]);
        assert_eq!(reply_to(&mut p, "1", 1), vec![]);
        // A requester at the root files nothing.
        assert_eq!(reply_to(&mut p, "", 0), vec![]);
    }

    /// Dropping what the requester cannot file from a table reply changes
    /// nothing it keeps: over every requester table on a path of depth
    /// ≤ 3 with 1 or 2 references per level, and every reply of up to
    /// three references (the replier itself among them) on those paths,
    /// merging the filtered reply gives the table merging the whole one
    /// does. Peer `i` sits at path `i` throughout, so an advertised path
    /// always equals the stored one. A stale stored path in a full level
    /// is the one thing the whole reply refreshed and the filtered one
    /// does not; it waits for the level to have room. That costs
    /// nothing after construction, since no online split moves a path
    /// once the trie is built; while the bootstrap builds it, its own
    /// `ExchangeRefs` gossip still ships whole tables.
    #[test]
    fn a_filtered_table_reply_changes_nothing_the_requester_keeps() {
        let paths = shallow_paths();
        let at = |i: usize| PeerRef { id: NodeId(i as u32), path: paths[i] };
        let replies = subsets(paths.len(), 3);
        for cap in 1..=2 {
            for &path in &paths {
                for table in &tables_at(&paths, path, cap) {
                    let full = table.full_levels();
                    for reply in &replies {
                        let (mut whole, mut filtered) = (table.clone(), table.clone());
                        for r in reply.iter().map(|&i| at(i)) {
                            whole.add_ref(r);
                            if RoutingTable::files_into_open_level(path, full, r.path) {
                                filtered.add_ref(r);
                            }
                        }
                        let same =
                            (0..path.len()).all(|l| filtered.level_refs(l) == whole.level_refs(l));
                        assert!(same, "{path:?} cap {cap}: {table:?} merging {reply:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn merge_refs_skips_self_and_files_the_rest() {
        let mut p = peer(0, "00");
        p.merge_refs(&[pref(0, "1"), pref(5, "1"), pref(6, "01")]);
        assert_eq!(p.routing().level_refs(0).len(), 1);
        assert_eq!(p.routing().level_refs(1).len(), 1);
    }
}
