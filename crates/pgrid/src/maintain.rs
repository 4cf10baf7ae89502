//! Routing-table maintenance under churn.
//!
//! P-Grid keeps multiple references per level and refreshes them through
//! gossip (paper §2/§3: robust "even in unreliable and highly dynamic
//! environments"). Each maintenance round a peer exchanges tables with
//! one random reference and one random replica, and that exchange is also
//! the round's liveness probe on its [`Suspicion`] detector: a probed
//! peer that sends nothing before the round's [`DEADLINE`] (no table
//! reply, no other message) is evicted from the routing table and the
//! replica group. A request names the requester's path and its full
//! levels, and the reply carries only the references the requester can
//! still file — which is how evicted references are replaced (evicted
//! replicas are not).
//!
//! [`Suspicion`]: unistore_overlay::liveness::Suspicion

use rand::seq::SliceRandom;

use unistore_overlay::liveness::DEADLINE;
use unistore_simnet::{NodeId, Timer};
use unistore_util::BitPath;

use crate::item::Item;
use crate::msg::{PGridMsg, PeerRef};
use crate::peer::{timer, Fx, PGridPeer};
use crate::routing::RoutingTable;

impl<I: Item> PGridPeer<I> {
    /// One maintenance round (fired by the MAINTAIN timer).
    pub(crate) fn run_maintenance(&mut self, fx: &mut Fx<I>) {
        let refs = self.routing.all_refs();
        if refs.is_empty() {
            return;
        }
        self.liveness.start_round();
        let reference = refs.choose(&mut self.rng).map(|r| r.id);
        let replica = self.routing.replicas().choose(&mut self.rng).copied();
        let (path, full) = (self.routing.path(), self.routing.full_levels());
        for target in reference.into_iter().chain(replica) {
            self.liveness.probe(target);
            fx.send(target, PGridMsg::TableRequest { path, full });
        }
        fx.set_timer(DEADLINE, Timer::new(timer::ROUND_DEADLINE, 0));
    }

    /// The round's deadline fired: evict every probed peer that stayed
    /// silent.
    pub(crate) fn evict_silent(&mut self) {
        for dead in self.liveness.expire() {
            self.routing.remove(dead);
        }
    }

    /// Answers a table request, always, with what the requester at
    /// `path` files into a level outside `full`: our references and
    /// ourselves, in that order.
    pub(crate) fn handle_table_request(
        &mut self,
        from: NodeId,
        path: BitPath,
        full: u64,
        fx: &mut Fx<I>,
    ) {
        let mut peers = self.routing.all_refs();
        peers.push(PeerRef { id: self.id, path: self.routing.path() });
        peers.retain(|r| RoutingTable::files_into_open_level(path, full, r.path));
        fx.send(from, PGridMsg::TableReply { peers });
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
    use unistore_simnet::{Effects, NodeBehavior, SimTime};

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
        let request = |to| (NodeId(to), BitPath::parse("0").unwrap(), 0);
        let sends: Vec<_> = fx
            .sends()
            .iter()
            .map(|(to, m)| match m {
                PGridMsg::TableRequest { path, full } => (*to, *path, *full),
                other => panic!("a round sends table requests only, not {other:?}"),
            })
            .collect();
        assert_eq!(sends, vec![request(1), request(2)], "one to a reference, one to a replica");
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

    #[test]
    fn maintenance_noop_without_refs() {
        let mut p = peer(0, "0");
        let mut fx = Effects::new();
        p.run_maintenance(&mut fx);
        assert!(fx.is_empty());
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
        let request = PGridMsg::TableRequest { path: BitPath::parse("1").unwrap(), full: 0 };
        p.on_message(SimTime::ZERO, NodeId(1), request, &mut Effects::new());
        fire_timers(&mut p, &fx);
        assert_eq!(p.routing().ref_count(), 1, "evicted a peer that sent a table request");
    }

    /// The reply `p` sends a requester at `path` with `full` levels.
    fn reply_to(p: &mut PGridPeer<RawItem>, path: &str, full: u64) -> Vec<PeerRef> {
        let mut fx = Effects::new();
        p.handle_table_request(NodeId(9), BitPath::parse(path).unwrap(), full, &mut fx);
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

    /// Every path of depth ≤ 3, the root included: 15 of them.
    fn shallow_paths() -> Vec<BitPath> {
        let mut paths = vec![BitPath::ROOT];
        let mut i = 0;
        while i < paths.len() {
            if paths[i].len() < 3 {
                paths.extend([paths[i].child(false), paths[i].child(true)]);
            }
            i += 1;
        }
        paths
    }

    /// Every subset of `0..n` with at most `k` members, ascending.
    fn subsets(n: usize, k: usize) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new()];
        let mut i = 0;
        while i < out.len() {
            let last = out[i].last().map_or(0, |&l| l + 1);
            if out[i].len() < k {
                for next in last..n {
                    let mut s = out[i].clone();
                    s.push(next);
                    out.push(s);
                }
            }
            i += 1;
        }
        out
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
                // Each level's candidates, then every table choosing up
                // to `cap` of them per level.
                let mut tables = vec![RoutingTable::new(path, cap)];
                for l in 0..path.len() {
                    let fits: Vec<usize> = (0..paths.len())
                        .filter(|&i| RoutingTable::filing_level(path, paths[i]) == Some(l))
                        .collect();
                    tables = tables
                        .iter()
                        .flat_map(|t| {
                            subsets(fits.len(), cap).into_iter().map(|pick| {
                                let mut t = t.clone();
                                pick.iter().for_each(|&j| assert!(t.add_ref(at(fits[j]))));
                                t
                            })
                        })
                        .collect();
                }
                for table in &tables {
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
