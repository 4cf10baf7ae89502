//! Converged-ring planning, shared by the driver harness
//! ([`crate::cluster`]) and the [`Overlay`](unistore_overlay::Overlay)
//! backend: ring-id assignment, successor/predecessor wiring and exact
//! finger tables.

use unistore_simnet::NodeId;
use unistore_util::fxhash::mix64;
use unistore_util::Key;

use crate::node::{ring_key_bucket, ring_key_exact, ChordConfig};

/// A planned, converged Chord ring.
#[derive(Clone, Debug)]
pub struct ChordTopology {
    /// `(ring position, node id)` sorted ascending by ring position.
    pub ring_order: Vec<(u64, NodeId)>,
    /// Ring position per node id (dense).
    pub by_id: Vec<u64>,
    /// Prefix depth of the auxiliary bucket index.
    pub bucket_depth: u8,
    /// Whether each owner's successor keeps a copy of its range
    /// ([`ChordConfig::replicate`]), so the load places one there too.
    pub replicate: bool,
}

/// The wired routing state of one ring member.
#[derive(Clone, Debug)]
pub struct RingWiring {
    /// `(id, ring position)` of the predecessor — the primary of this
    /// member's replica set under successor replication.
    pub predecessor: (NodeId, u64),
    /// `(id, ring position)` of the predecessor's predecessor: where the
    /// primary range `(predecessor2, predecessor]` this member
    /// replicates begins.
    pub predecessor2: (NodeId, u64),
    /// `(id, ring position)` of the successor.
    pub successor: (NodeId, u64),
    /// `(id, ring position)` of the successor's successor — the
    /// routing fallback when the successor is suspected dead (Chord's
    /// two-deep successor list).
    pub successor2: (NodeId, u64),
    /// Deduped fingers, ascending ring distance from the member.
    pub fingers: Vec<(NodeId, u64)>,
}

impl ChordTopology {
    /// Plans a ring of `n` nodes: well-mixed, deterministic,
    /// collision-free ring ids for n ≪ 2^64.
    pub fn plan(n: usize, cfg: &ChordConfig, seed: u64) -> Self {
        assert!(n >= 1);
        let mut ring_order: Vec<(u64, NodeId)> = (0..n)
            .map(|i| {
                (mix64(seed ^ (i as u64).wrapping_mul(0xA24B_AED4_963E_E407)), NodeId(i as u32))
            })
            .collect();
        ring_order.sort_unstable();
        let mut by_id: Vec<u64> = vec![0; n];
        for &(ring, id) in &ring_order {
            by_id[id.index()] = ring;
        }
        let (bucket_depth, replicate) = (cfg.bucket_depth, cfg.replicate);
        ChordTopology { ring_order, by_id, bucket_depth, replicate }
    }

    /// `(ring position, id)` of the node owning ring position `target`.
    pub fn successor_of(&self, target: u64) -> (u64, NodeId) {
        let pos = self.ring_order.partition_point(|&(r, _)| r < target);
        self.ring_order[pos % self.ring_order.len()]
    }

    /// Successor/predecessor/fingers of ring member `id`.
    pub fn wiring(&self, id: NodeId) -> RingWiring {
        let m = self.ring_order.len();
        let ring = self.by_id[id.index()];
        let pos = self.ring_order.partition_point(|&(r, _)| r < ring);
        debug_assert_eq!(self.ring_order[pos], (ring, id), "id is a ring member");
        let (succ_ring, succ_id) = self.ring_order[(pos + 1) % m];
        let (succ2_ring, succ2_id) = self.ring_order[(pos + 2) % m];
        let (pred_ring, pred_id) = self.ring_order[(pos + m - 1) % m];
        let (pred2_ring, pred2_id) = self.ring_order[(pos + 2 * m - 2) % m];
        let mut fingers: Vec<(NodeId, u64)> = Vec::new();
        for k in 0..64u32 {
            let target = ring.wrapping_add(1u64 << k);
            let (f_ring, f_id) = self.successor_of(target);
            if f_id != id && !fingers.iter().any(|&(fid, _)| fid == f_id) {
                fingers.push((f_id, f_ring));
            }
        }
        // Ascending ring distance from self.
        fingers.sort_by_key(|&(_, r)| r.wrapping_sub(ring));
        RingWiring {
            predecessor: (pred_id, pred_ring),
            predecessor2: (pred2_id, pred2_ring),
            successor: (succ_id, succ_ring),
            successor2: (succ2_id, succ2_ring),
            fingers,
        }
    }

    /// Peers holding `key` in the converged state: the owner of its
    /// exact-index position and the owner of its bucket-index position,
    /// each followed by its successor under replication; the exact
    /// owner first, no peer twice.
    pub fn holders_of_key(&self, key: Key) -> Vec<usize> {
        let (m, copies) = (self.ring_order.len(), self.copies());
        let mut holders = Vec::with_capacity(2 * copies);
        for rk in [ring_key_exact(key), ring_key_bucket(key, self.bucket_depth)] {
            let pos = self.ring_order.partition_point(|&(r, _)| r < rk);
            for i in pos..pos + copies {
                let peer = self.ring_order[i % m].1.index();
                if !holders.contains(&peer) {
                    holders.push(peer);
                }
            }
        }
        holders
    }

    /// Peers holding each record: its owner, and under replication the
    /// owner's successor.
    fn copies(&self) -> usize {
        if self.replicate {
            self.ring_order.len().min(2)
        } else {
            1
        }
    }
}

impl unistore_overlay::OverlayTopology for ChordTopology {
    fn holders(&self, key: Key) -> Vec<usize> {
        self.holders_of_key(key)
    }

    fn partitions(&self) -> usize {
        self.ring_order.len()
    }

    fn replication(&self) -> usize {
        self.copies()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unistore_overlay::OverlayTopology;

    #[test]
    fn wiring_matches_sorted_ring() {
        let topo = ChordTopology::plan(16, &ChordConfig::default(), 3);
        for pos in 0..16 {
            let (ring, id) = topo.ring_order[pos];
            let w = topo.wiring(id);
            assert_eq!(w.successor.1, topo.ring_order[(pos + 1) % 16].0);
            assert_eq!(w.predecessor.1, topo.ring_order[(pos + 15) % 16].0);
            assert_eq!(w.predecessor.0, topo.ring_order[(pos + 15) % 16].1);
            assert_eq!(w.predecessor2, {
                let (ring, id) = topo.ring_order[(pos + 14) % 16];
                (id, ring)
            });
            assert!(!w.fingers.iter().any(|&(f, _)| f == id), "no self-fingers");
            let _ = ring;
        }
    }

    #[test]
    fn holders_cover_both_indexes() {
        for replicate in [false, true] {
            let cfg = ChordConfig { replicate, ..ChordConfig::default() };
            let topo = ChordTopology::plan(32, &cfg, 9);
            for key in (0..50u64).map(|i| i << 40) {
                let holders = topo.holders_of_key(key);
                let mut want: Vec<usize> = Vec::new();
                for rk in [ring_key_exact(key), ring_key_bucket(key, cfg.bucket_depth)] {
                    let (_, owner) = topo.successor_of(rk);
                    want.push(owner.index());
                    if replicate {
                        // The owner's successor, which replicates its range.
                        let (ring, _) = topo.successor_of(rk);
                        want.push(topo.successor_of(ring.wrapping_add(1)).1.index());
                    }
                }
                let mut sorted = holders.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), holders.len(), "no holder twice: {holders:?}");
                want.sort_unstable();
                want.dedup();
                assert_eq!(sorted, want, "owner (and successor) per index");
                assert_eq!(topo.successor_of(ring_key_exact(key)).1.index(), holders[0]);
            }
            assert_eq!(topo.replication(), 1 + replicate as usize);
        }
    }
}
