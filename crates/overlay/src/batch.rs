//! Backend-agnostic bookkeeping of an overlay op made of numbered
//! parts, and the next-hop grouping of routed write batches.
//!
//! Every op an origin issues — a lookup, a range scan, a write batch —
//! is a list of **parts**, each answered on its own: a lookup is one
//! part, a write batch one per op position, a P-Grid shower one per
//! sub-interval it sent through one first hop, a Chord bucket scan one
//! per bucket. The origin marks answered parts in a [`PartTracker`] and
//! notes the first hop each part's latest attempt left through; on
//! timeout it re-issues only the unanswered parts, each around that
//! hop. Answers are idempotent — a late or duplicate answer re-marks a
//! marked part — so they need no attempt stamp and stragglers from an
//! earlier attempt can only help. Under independent message loss the
//! unanswered remainder shrinks geometrically, where a whole-op retry
//! would face the same all-or-nothing odds every attempt.
//!
//! The tracker is state only: what "re-issue" means (which messages,
//! through which hops) stays with the backend.

use unistore_simnet::NodeId;

/// Origin-side state of one overlay op made of numbered parts.
#[derive(Clone, Debug, Default)]
pub struct PartTracker {
    /// Per part, whether it is answered and the hop its latest attempt
    /// left the origin through (`None` = answered at the origin, stuck,
    /// or never sent).
    parts: Vec<(bool, Option<NodeId>)>,
    n_answered: u32,
    hops: u32,
    attempts: u32,
}

impl PartTracker {
    /// Tracks an op of `parts` parts, none answered yet.
    pub fn new(parts: usize) -> Self {
        PartTracker { parts: vec![(false, None); parts], ..Self::default() }
    }

    /// Folds an answer naming `parts`, `hops` from the origin; returns
    /// `true` once every part is answered. Duplicate parts count once;
    /// parts outside the op are ignored.
    pub fn ack(&mut self, parts: &[u32], hops: u32) -> bool {
        for &part in parts {
            if let Some((answered, _)) = self.parts.get_mut(part as usize) {
                if !*answered {
                    *answered = true;
                    self.n_answered += 1;
                }
            }
        }
        self.hops = self.hops.max(hops);
        self.n_answered as usize >= self.parts.len()
    }

    /// Whether `part` is answered.
    pub fn is_answered(&self, part: usize) -> bool {
        self.parts.get(part).is_some_and(|p| p.0)
    }

    /// Parts answered so far.
    pub fn answered(&self) -> u32 {
        self.n_answered
    }

    /// Deepest hop count over the answers received so far.
    pub fn hops(&self) -> u32 {
        self.hops
    }

    /// Re-issues spent so far.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// Records the hop `part`'s latest attempt left the origin through.
    pub fn left_through(&mut self, part: usize, hop: Option<NodeId>) {
        if let Some(p) = self.parts.get_mut(part) {
            p.1 = hop;
        }
    }

    /// Called when the op timed out: the unanswered parts, ascending,
    /// each with the first hop its latest attempt left through, counting
    /// the attempt against `op_retries`; or `None` when the retries are
    /// spent (or nothing is outstanding) and the op should report what
    /// was answered ([`Self::answered`] / [`Self::hops`]).
    pub fn retry(&mut self, op_retries: u32) -> Option<Vec<(usize, Option<NodeId>)>> {
        if self.attempts >= op_retries || self.n_answered as usize >= self.parts.len() {
            return None;
        }
        self.attempts += 1;
        Some((0..).zip(&self.parts).filter(|(_, p)| !p.0).map(|(i, p)| (i, p.1)).collect())
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

    /// Re-issues every enumerated op is allowed.
    const OP_RETRIES: u32 = 2;

    /// One event at the origin of an op of at most 8 parts.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Ev {
        /// An answer naming the parts of the set bits, ascending.
        Ack(u8),
        /// An answer naming one part twice.
        Dup(u32),
        /// An answer naming only parts outside the op.
        OutOfRange,
        /// The part's attempt left the origin through a hop that
        /// depends on the event's depth ([`hop_at`]).
        Left(u32),
        /// The op timer fired: `retry(OP_RETRIES)`.
        Timeout,
    }

    /// Every event of an op of `n` parts: an answer of each non-empty
    /// subset, a duplicate answer, an out-of-range answer, a first hop of
    /// each part and a timeout.
    fn alphabet(n: usize) -> Vec<Ev> {
        let mut evs: Vec<Ev> = (1..1u8 << n).map(Ev::Ack).collect();
        evs.extend([Ev::Dup(0), Ev::OutOfRange, Ev::Timeout]);
        evs.extend((0..n as u32).map(Ev::Left));
        evs
    }

    /// What the tracker must hold: the answered set, each part's latest
    /// first hop, the deepest answer and the re-issues spent.
    #[derive(Clone)]
    struct Model {
        answered: Vec<bool>,
        first_hops: Vec<Option<NodeId>>,
        hops: u32,
        attempts: u32,
    }

    impl Model {
        fn new(n: usize) -> Self {
            Model { answered: vec![false; n], first_hops: vec![None; n], hops: 0, attempts: 0 }
        }

        fn complement(&self) -> Vec<(usize, Option<NodeId>)> {
            let unanswered = (0..self.answered.len()).filter(|&i| !self.answered[i]);
            unanswered.map(|i| (i, self.first_hops[i])).collect()
        }
    }

    /// Hop count of the `depth`-th event's answer: varied, not monotone.
    fn hops_at(depth: usize) -> u32 {
        (depth as u32 * 7 + 3) % 5
    }

    /// First hop of the `depth`-th event's attempt: a new one each time.
    fn hop_at(depth: usize) -> NodeId {
        NodeId(depth as u32 + 10)
    }

    /// Applies `ev` to the tracker and the model and checks the
    /// invariants: the answered set only grows, `ack` says complete
    /// exactly when every part is answered, `retry` hands back the
    /// ascending complement, each part with the first hop its latest
    /// attempt left through, or `None` exactly when the retries are
    /// spent or nothing is outstanding, and the attempts never exceed
    /// `OP_RETRIES`.
    fn step(t: &mut PartTracker, m: &mut Model, ev: Ev, depth: usize) {
        let before: Vec<bool> = t.parts.iter().map(|p| p.0).collect();
        let n = m.answered.len() as u32;
        let ack = |t: &mut PartTracker, m: &mut Model, parts: &[u32]| {
            let hops = hops_at(depth);
            for &p in parts {
                if let Some(slot) = m.answered.get_mut(p as usize) {
                    *slot = true;
                }
            }
            m.hops = m.hops.max(hops);
            let complete = t.ack(parts, hops);
            assert_eq!(
                complete,
                m.answered.iter().all(|&a| a),
                "{ev:?}: complete iff all answered"
            );
        };
        match ev {
            Ev::Ack(mask) => {
                let parts: Vec<u32> = (0..n).filter(|&p| mask >> p & 1 == 1).collect();
                ack(t, m, &parts);
            }
            Ev::Dup(p) => ack(t, m, &[p, p]),
            Ev::OutOfRange => ack(t, m, &[n, n + 7, u32::MAX]),
            Ev::Left(p) => {
                m.first_hops[p as usize] = Some(hop_at(depth));
                t.left_through(p as usize, Some(hop_at(depth)));
            }
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
        assert!(before.iter().zip(&t.parts).all(|(&b, p)| !b || p.0), "{ev:?}: lost an answer");
        let model: Vec<(bool, Option<NodeId>)> =
            m.answered.iter().copied().zip(m.first_hops.iter().copied()).collect();
        assert_eq!(t.parts, model, "{ev:?}: answered set and first hops");
        assert_eq!(t.answered() as usize, m.answered.iter().filter(|&&a| a).count());
        assert!((0..n as usize + 2).all(|i| t.is_answered(i) == (m.answered.get(i) == Some(&true))));
        assert_eq!(t.hops(), m.hops, "hops keep the deepest answer");
        assert!(t.attempts <= OP_RETRIES && t.attempts == m.attempts, "attempts {}", t.attempts);
    }

    /// Replays one event sequence of the enumeration on a fresh op of
    /// `n` parts, checking every step; returns the tracker.
    fn replay(n: usize, events: &[Ev]) -> PartTracker {
        let alphabet = alphabet(n);
        let (mut t, mut m) = (PartTracker::new(n), Model::new(n));
        for (depth, &ev) in events.iter().enumerate() {
            assert!(alphabet.contains(&ev), "{ev:?} is not enumerated");
            step(&mut t, &mut m, ev, depth);
        }
        t
    }

    /// Depth-first over every continuation of `t` up to `left` more
    /// events; returns the sequences walked.
    fn walk(t: &PartTracker, m: &Model, alphabet: &[Ev], depth: usize, left: usize) -> u64 {
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
            walked += walk(&PartTracker::new(n), &Model::new(n), &alphabet(n), 0, 6);
        }
        // Sequences of length 0..=6 over 5, 8 and 13 events.
        assert_eq!(walked, 19_531 + 299_593 + 5_229_043);
    }

    #[test]
    fn acks_are_positional_and_idempotent() {
        let t = replay(3, &[Ev::Ack(0b101), Ev::Dup(0), Ev::OutOfRange]);
        let unanswered: Vec<usize> = (0..3).filter(|&i| !t.is_answered(i)).collect();
        assert_eq!((t.answered(), unanswered), (2, vec![1]), "a part answered twice is one part");
        let mut t = replay(3, &[Ev::Ack(0b101), Ev::Dup(0), Ev::OutOfRange, Ev::Ack(0b010)]);
        assert_eq!((t.answered(), t.hops()), (3, (0..4).map(hops_at).max().unwrap()));
        assert!(t.ack(&[1], 0), "a complete op stays complete");
    }

    #[test]
    fn remainder_shrinks_monotonically_and_late_acks_count() {
        // Answers of the first attempt keep landing after the re-issue.
        let events = [Ev::Timeout, Ev::Ack(0b010), Ev::Dup(0), Ev::OutOfRange, Ev::Ack(0b001)];
        let mut t = replay(3, &events);
        assert_eq!(t.clone().retry(OP_RETRIES), Some(vec![(2, None)]));
        assert!(t.ack(&[2], 1), "the re-issue's answer completes the op");
    }

    #[test]
    fn exhausted_retries_report_the_acked_count() {
        let events = [Ev::Ack(0b100), Ev::Timeout, Ev::Ack(0b001), Ev::Timeout, Ev::Timeout];
        let t = replay(3, &events);
        assert_eq!((t.answered(), t.attempts), (2, OP_RETRIES), "two retries allowed, both spent");
        assert_eq!(PartTracker::new(0).retry(2), None, "nothing outstanding");
        assert_eq!(PartTracker::new(1).retry(0), None, "zero retries configured");
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
