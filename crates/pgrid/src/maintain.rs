//! Routing-table maintenance under churn.
//!
//! P-Grid keeps multiple references per level and refreshes them through
//! gossip (paper §2/§3: robust "even in unreliable and highly dynamic
//! environments"). Each maintenance round a peer:
//!
//! 1. **probes** one random reference and one random replica on its
//!    [`Suspicion`] detector: a probed peer that sends nothing before the
//!    round's [`DEADLINE`] (no pong, no other message) is evicted from
//!    the routing table and the replica group, and
//! 2. **exchanges tables** with one random reference, merging any
//!    advertised peer that fits an under-full level — which is how
//!    evicted references are replaced (evicted replicas are not).
//!
//! [`Suspicion`]: unistore_overlay::liveness::Suspicion

use rand::seq::SliceRandom;
use rand::Rng;

use unistore_overlay::liveness::DEADLINE;
use unistore_simnet::{NodeId, Timer};

use crate::item::Item;
use crate::msg::{PGridMsg, PeerRef};
use crate::peer::{timer, Fx, PGridPeer};

impl<I: Item> PGridPeer<I> {
    /// One maintenance round (fired by the MAINTAIN timer).
    pub(crate) fn run_maintenance(&mut self, fx: &mut Fx<I>) {
        let refs = self.routing.all_refs();
        if refs.is_empty() {
            return;
        }
        self.liveness.start_round();
        // Probe a random reference.
        if let Some(target) = refs.choose(&mut self.rng) {
            self.liveness.probe(target.id);
            fx.send(target.id, PGridMsg::Ping);
        }
        // Gossip routing tables with another random reference.
        if let Some(target) = refs.choose(&mut self.rng) {
            fx.send(target.id, PGridMsg::TableRequest);
        }
        // Probe a random replica as well, so dead replicas get evicted.
        let replicas = self.routing.replicas();
        if !replicas.is_empty() {
            let pick = replicas[self.rng.gen_range(0..replicas.len())];
            self.liveness.probe(pick);
            fx.send(pick, PGridMsg::Ping);
        }
        fx.set_timer(DEADLINE, Timer::new(timer::PING_DEADLINE, 0));
    }

    /// The round's deadline fired: evict every probed peer that stayed
    /// silent.
    pub(crate) fn evict_silent(&mut self) {
        for dead in self.liveness.expire() {
            self.routing.remove(dead);
        }
    }

    /// Answers a table request with everything we know, including
    /// ourselves (the requester may file us into one of its levels).
    pub(crate) fn handle_table_request(&mut self, from: NodeId, fx: &mut Fx<I>) {
        let mut peers = self.routing.all_refs();
        peers.push(PeerRef { id: self.id, path: self.routing.path() });
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
    use unistore_util::BitPath;

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
        let pings: Vec<NodeId> = fx
            .sends()
            .iter()
            .filter(|(_, m)| matches!(m, PGridMsg::Ping))
            .map(|(to, _)| *to)
            .collect();
        let tables = fx.sends().iter().filter(|(_, m)| matches!(m, PGridMsg::TableRequest)).count();
        assert_eq!(pings, vec![NodeId(1), NodeId(2)], "a reference and a replica probed");
        assert_eq!(tables, 1);
        let deadline = (DEADLINE, Timer::new(timer::PING_DEADLINE, 0));
        assert_eq!(fx.timers(), &[deadline], "one deadline timer per round");
    }

    #[test]
    fn maintenance_noop_without_refs() {
        let mut p = peer(0, "0");
        let mut fx = Effects::new();
        p.run_maintenance(&mut fx);
        assert!(fx.is_empty());
    }

    #[test]
    fn unanswered_ping_evicts() {
        let mut p = peer(0, "0");
        p.routing_mut().add_ref(pref(1, "1"));
        let mut fx = Effects::new();
        p.run_maintenance(&mut fx);
        // Deadline fires with no pong → evicted.
        fire_timers(&mut p, &fx);
        assert_eq!(p.routing().ref_count(), 0);
    }

    #[test]
    fn answered_ping_keeps_ref() {
        let mut p = peer(0, "0");
        p.routing_mut().add_ref(pref(1, "1"));
        let mut fx = Effects::new();
        p.run_maintenance(&mut fx);
        // Pong arrives first …
        p.on_message(SimTime::ZERO, NodeId(1), PGridMsg::Pong, &mut Effects::new());
        // … so the deadline is a no-op.
        fire_timers(&mut p, &fx);
        assert_eq!(p.routing().ref_count(), 1);
    }

    /// Any message proves a probed peer alive, not just the pong.
    #[test]
    fn a_ref_whose_pong_is_lost_but_that_sent_anything_else_stays() {
        let mut p = peer(0, "0");
        p.routing_mut().add_ref(pref(1, "1"));
        let mut fx = Effects::new();
        p.run_maintenance(&mut fx);
        // The pong is lost; the reply to the round's table request is not.
        let reply = PGridMsg::TableReply { peers: Vec::new() };
        p.on_message(SimTime::ZERO, NodeId(1), reply, &mut Effects::new());
        fire_timers(&mut p, &fx);
        assert_eq!(p.routing().ref_count(), 1, "evicted a peer that answered the gossip");
    }

    #[test]
    fn table_reply_includes_self() {
        let mut p = peer(3, "01");
        p.routing_mut().add_ref(pref(1, "1"));
        let mut fx = Effects::new();
        p.handle_table_request(NodeId(9), &mut fx);
        match &fx.sends()[0] {
            (to, PGridMsg::TableReply { peers }) => {
                assert_eq!(*to, NodeId(9));
                assert!(peers.iter().any(|r| r.id == NodeId(3)));
                assert!(peers.iter().any(|r| r.id == NodeId(1)));
            }
            other => panic!("unexpected send {other:?}"),
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
