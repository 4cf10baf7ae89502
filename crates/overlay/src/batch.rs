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

    /// Retransmissions spent so far.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// Positions of the ops not yet acked, ascending.
    pub fn remainder(&self) -> Vec<usize> {
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

    /// Retransmits every enumerated batch is allowed.
    const OP_RETRIES: u32 = 2;

    /// One event at the origin of a batch of at most 8 ops.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Ev {
        /// An ack naming the positions of the set bits, ascending.
        Ack(u8),
        /// An ack naming one position twice.
        Dup(u32),
        /// An ack naming only positions outside the batch.
        OutOfRange,
        /// The batch timer fired: `retry(OP_RETRIES)`.
        Timeout,
    }

    /// Every event of a batch of `n` ops: an ack of each non-empty
    /// subset, a duplicate ack, an out-of-range ack and a timeout.
    fn alphabet(n: usize) -> Vec<Ev> {
        let mut evs: Vec<Ev> = (1..1u8 << n).map(Ev::Ack).collect();
        evs.extend([Ev::Dup(0), Ev::OutOfRange, Ev::Timeout]);
        evs
    }

    /// What the tracker must hold: the acked set, the deepest ack and
    /// the retransmits spent.
    #[derive(Clone)]
    struct Model {
        acked: Vec<bool>,
        hops: u32,
        attempts: u32,
    }

    impl Model {
        fn new(n: usize) -> Self {
            Model { acked: vec![false; n], hops: 0, attempts: 0 }
        }

        fn complement(&self) -> Vec<usize> {
            (0..self.acked.len()).filter(|&i| !self.acked[i]).collect()
        }
    }

    /// Hop count of the `depth`-th event's ack: varied, not monotone.
    fn hops_at(depth: usize) -> u32 {
        (depth as u32 * 7 + 3) % 5
    }

    /// Applies `ev` to the tracker and the model and checks the
    /// invariants: the acked set only grows, `ack` says complete exactly
    /// when every op is acked, `retry` hands back the ascending complement
    /// or `None` exactly when the retries are spent or nothing is
    /// outstanding, and the attempts never exceed `OP_RETRIES`.
    fn step(t: &mut BatchTracker, m: &mut Model, ev: Ev, depth: usize) {
        let before = t.acked.clone();
        let n = m.acked.len() as u32;
        let ack = |t: &mut BatchTracker, m: &mut Model, positions: &[u32]| {
            let hops = hops_at(depth);
            for &p in positions {
                if let Some(slot) = m.acked.get_mut(p as usize) {
                    *slot = true;
                }
            }
            m.hops = m.hops.max(hops);
            let complete = t.ack(positions, hops);
            assert_eq!(complete, m.acked.iter().all(|&a| a), "{ev:?}: complete iff all acked");
        };
        match ev {
            Ev::Ack(mask) => {
                let positions: Vec<u32> = (0..n).filter(|&p| mask >> p & 1 == 1).collect();
                ack(t, m, &positions);
            }
            Ev::Dup(p) => ack(t, m, &[p, p]),
            Ev::OutOfRange => ack(t, m, &[n, n + 7, u32::MAX]),
            Ev::Timeout => {
                let want = match m.complement() {
                    rest if m.attempts >= OP_RETRIES || rest.is_empty() => None,
                    rest => {
                        m.attempts += 1;
                        Some(rest)
                    }
                };
                assert_eq!(t.retry(OP_RETRIES), want, "retry is the complement until spent");
            }
        }
        assert!(before.iter().zip(&t.acked).all(|(&b, &a)| !b || a), "{ev:?}: an ack was lost");
        assert_eq!(t.acked, m.acked, "{ev:?}: acked set");
        assert_eq!(t.acked() as usize, m.acked.iter().filter(|&&a| a).count());
        assert_eq!(t.remainder(), m.complement());
        assert_eq!(t.hops(), m.hops, "hops keep the deepest ack");
        assert!(t.attempts <= OP_RETRIES && t.attempts == m.attempts, "attempts {}", t.attempts);
    }

    /// Replays one event sequence of the enumeration on a fresh batch of
    /// `n` ops, checking every step; returns the tracker.
    fn replay(n: usize, events: &[Ev]) -> BatchTracker {
        let alphabet = alphabet(n);
        let (mut t, mut m) = (BatchTracker::new(n), Model::new(n));
        for (depth, &ev) in events.iter().enumerate() {
            assert!(alphabet.contains(&ev), "{ev:?} is not enumerated");
            step(&mut t, &mut m, ev, depth);
        }
        t
    }

    /// Depth-first over every continuation of `t` up to `left` more
    /// events; returns the sequences walked.
    fn walk(t: &BatchTracker, m: &Model, alphabet: &[Ev], depth: usize, left: usize) -> u64 {
        if left == 0 {
            return 1;
        }
        let mut walked = 1;
        for &ev in alphabet {
            let (mut t, mut m) = (t.clone(), m.clone());
            step(&mut t, &mut m, ev, depth);
            walked += walk(&t, &m, alphabet, depth + 1, left - 1);
        }
        walked
    }

    #[test]
    fn every_sequence_of_six_events_keeps_the_invariants() {
        let mut walked = 0;
        for n in 1..=3 {
            walked += walk(&BatchTracker::new(n), &Model::new(n), &alphabet(n), 0, 6);
        }
        // Sequences of length 0..=6 over 4, 6 and 10 events.
        assert_eq!(walked, 5_461 + 55_987 + 1_111_111);
    }

    #[test]
    fn acks_are_positional_and_idempotent() {
        let t = replay(3, &[Ev::Ack(0b101), Ev::Dup(0), Ev::OutOfRange]);
        assert_eq!((t.acked(), t.remainder()), (2, vec![1]), "a position acked twice is one op");
        let mut t = replay(3, &[Ev::Ack(0b101), Ev::Dup(0), Ev::OutOfRange, Ev::Ack(0b010)]);
        assert_eq!((t.acked(), t.hops()), (3, (0..4).map(hops_at).max().unwrap()));
        assert!(t.ack(&[1], 0), "a complete batch stays complete");
    }

    #[test]
    fn remainder_shrinks_monotonically_and_late_acks_count() {
        // Acks of the first attempt keep landing after the retransmit.
        let events = [Ev::Timeout, Ev::Ack(0b010), Ev::Dup(0), Ev::OutOfRange, Ev::Ack(0b001)];
        let mut t = replay(3, &events);
        assert_eq!(t.remainder(), vec![2]);
        assert!(t.ack(&[2], 1), "the retransmit's ack completes the batch");
    }

    #[test]
    fn exhausted_retries_report_the_acked_count() {
        let events = [Ev::Ack(0b100), Ev::Timeout, Ev::Ack(0b001), Ev::Timeout, Ev::Timeout];
        let t = replay(3, &events);
        assert_eq!((t.acked(), t.attempts), (2, OP_RETRIES), "two retries allowed, both spent");
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
