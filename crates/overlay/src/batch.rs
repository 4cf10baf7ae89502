//! Backend-agnostic batch-write bookkeeping: positional acks and
//! next-hop grouping.
//!
//! Both backends route a write batch the same way. Every op carries its
//! **position** in the origin's op list, stable across per-hop
//! re-grouping; each peer that applies ops acks the origin with the
//! positions it applied; the origin marks them in a [`BatchTracker`] and,
//! on timeout, retransmits only the un-acked remainder. Positional acks
//! are idempotent — a late or duplicate ack re-marks ops already marked —
//! so acks need no attempt stamp and stragglers from an earlier attempt
//! can only help. Under independent message loss the remainder shrinks
//! geometrically, where a whole-batch retry would face the same
//! all-or-nothing odds every attempt.
//!
//! The tracker is state only: what "retransmit" means (which messages,
//! through which hops) stays with the backend.

use unistore_simnet::NodeId;

/// Origin-side state of one routed write batch.
#[derive(Clone, Debug)]
pub struct BatchTracker {
    acked: Vec<bool>,
    n_acked: u32,
    hops: u32,
    attempts: u32,
}

impl BatchTracker {
    /// Tracks a batch of `ops` ops, none acked yet.
    pub fn new(ops: usize) -> Self {
        BatchTracker { acked: vec![false; ops], n_acked: 0, hops: 0, attempts: 0 }
    }

    /// Folds an ack naming applied op positions, `hops` from the origin;
    /// returns `true` once every op is acked. Duplicate positions count
    /// once; positions outside the batch are ignored.
    pub fn ack(&mut self, positions: &[u32], hops: u32) -> bool {
        for &pos in positions {
            if let Some(slot) = self.acked.get_mut(pos as usize) {
                if !*slot {
                    *slot = true;
                    self.n_acked += 1;
                }
            }
        }
        self.hops = self.hops.max(hops);
        self.n_acked as usize >= self.acked.len()
    }

    /// Ops acked so far.
    pub fn acked(&self) -> u32 {
        self.n_acked
    }

    /// Deepest hop count over the acks received so far.
    pub fn hops(&self) -> u32 {
        self.hops
    }

    /// Positions of the ops not yet acked, ascending.
    fn remainder(&self) -> Vec<usize> {
        (0..self.acked.len()).filter(|&i| !self.acked[i]).collect()
    }

    /// Called when the batch timed out: the remainder to retransmit,
    /// counting the attempt against `op_retries`, or `None` when the
    /// retries are spent (or nothing is outstanding) and the batch
    /// should be reported failed with [`Self::acked`] / [`Self::hops`].
    pub fn retry(&mut self, op_retries: u32) -> Option<Vec<usize>> {
        let remainder = self.remainder();
        if self.attempts >= op_retries || remainder.is_empty() {
            return None;
        }
        self.attempts += 1;
        Some(remainder)
    }
}

/// Op indices grouped by the next hop they forward to, in first-seen
/// order so the fan-out is deterministic under the seeded RNG — the
/// per-hop re-grouping step of a routed batch.
pub type HopGroups = Vec<(NodeId, Vec<usize>)>;

/// Adds op `op` to the group forwarded to `next`.
pub fn push_hop(groups: &mut HopGroups, next: NodeId, op: usize) {
    match groups.iter_mut().find(|(n, _)| *n == next) {
        Some((_, idxs)) => idxs.push(op),
        None => groups.push((next, vec![op])),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acks_are_positional_and_idempotent() {
        let mut t = BatchTracker::new(3);
        assert!(!t.ack(&[0, 0, 2], 4), "a position acked twice is one op");
        assert!(!t.ack(&[3, 7, u32::MAX], 9), "positions outside the batch are ignored");
        assert_eq!((t.acked(), t.remainder()), (2, vec![1]));
        assert!(t.ack(&[1], 2));
        assert_eq!((t.acked(), t.hops()), (3, 9), "hops keep the deepest ack");
    }

    #[test]
    fn remainder_shrinks_monotonically_and_late_acks_count() {
        let mut t = BatchTracker::new(6);
        let mut last = t.retry(2).expect("everything outstanding");
        // Acks of the first attempt keep landing after the retransmit.
        for acks in [&[1u32, 4][..], &[4, 0], &[], &[5, 2]] {
            t.ack(acks, 1);
            let now = t.remainder();
            assert!(now.iter().all(|i| last.contains(i)), "{now:?} not within {last:?}");
            assert!(now.len() <= last.len());
            last = now;
        }
        assert_eq!(last, vec![3]);
        assert!(t.ack(&[3], 1), "the retransmit's ack completes the batch");
    }

    #[test]
    fn exhausted_retries_report_the_acked_count() {
        let mut t = BatchTracker::new(4);
        t.ack(&[3], 5);
        assert_eq!(t.retry(2), Some(vec![0, 1, 2]));
        t.ack(&[0], 2);
        assert_eq!(t.retry(2), Some(vec![1, 2]));
        assert_eq!(t.retry(2), None, "two retries allowed, both spent");
        assert_eq!((t.acked(), t.hops()), (2, 5));
        assert_eq!(BatchTracker::new(0).retry(2), None, "nothing outstanding");
        assert_eq!(BatchTracker::new(1).retry(0), None, "zero retries configured");
    }

    #[test]
    fn groups_keep_first_seen_order() {
        let mut g = HopGroups::new();
        push_hop(&mut g, NodeId(7), 0);
        push_hop(&mut g, NodeId(3), 1);
        push_hop(&mut g, NodeId(7), 2);
        assert_eq!(g, vec![(NodeId(7), vec![0, 2]), (NodeId(3), vec![1])]);
    }
}
