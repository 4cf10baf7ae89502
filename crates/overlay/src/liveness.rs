//! One failure detector for both backends.
//!
//! A backend opens a probe round ([`Suspicion::start_round`]), records
//! each peer it probes ([`Suspicion::probe`]: Chord pings, P-Grid asks
//! for a routing table), reports every inbound message
//! ([`Suspicion::heard`]: any traffic proves a peer alive, not just the
//! probe's answer) and arms one [`DEADLINE`] timer whose firing calls
//! [`Suspicion::expire`]. What a suspect costs follows from the routing
//! structure: P-Grid's levels hold interchangeable references that table
//! gossip refills, so it evicts the peers `expire` names; Chord's fingers
//! are fixed ring positions, so it keeps them and routes around every
//! peer [`Suspicion::is_suspected`] names until one is heard from again.
//!
//! A suspicion can also come second-hand ([`Suspicion::suspect`]). A
//! Chord node probes its two successors every round but its fingers only
//! one at a time, so the ring predecessor that finds a node silent tells
//! the nodes that route through it, and they suspect it on that report
//! until they hear from it.

use unistore_simnet::{NodeId, SimTime};
use unistore_util::FxHashMap;

/// How long a probed peer may stay silent before it is suspected.
pub const DEADLINE: SimTime = SimTime::from_secs(2);

/// A peer's standing; a peer with no mark is trusted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mark {
    /// Probed this round, silent so far.
    Awaited,
    /// Silent through an `expire` or reported down, not heard from
    /// since.
    Suspected,
    /// A suspect probed this round: still suspected, and named again
    /// by `expire` if it stays silent (a backend that evicts may have
    /// re-learned it meanwhile).
    Reprobed,
}

/// A network-free failure detector: per-round probes, one deadline, and
/// any inbound message forgives.
#[derive(Clone, Debug, Default)]
pub struct Suspicion {
    marks: FxHashMap<NodeId, Mark>,
}

impl Suspicion {
    /// Opens a probe round: probes of earlier rounds are no longer
    /// awaited. Rounds must be further apart than [`DEADLINE`], or an
    /// earlier round's deadline expires this round's probes early (every
    /// configured probe period is ≥ 5 s, so ≥ 2.5 s after jitter).
    pub fn start_round(&mut self) {
        self.marks.retain(|_, mark| {
            if *mark == Mark::Reprobed {
                *mark = Mark::Suspected;
            }
            *mark != Mark::Awaited
        });
    }

    /// Records that `id` was probed this round.
    pub fn probe(&mut self, id: NodeId) {
        let mark = self.marks.entry(id).or_insert(Mark::Awaited);
        if *mark == Mark::Suspected {
            *mark = Mark::Reprobed;
        }
    }

    /// Another peer reported `id` down: it is suspected until heard
    /// from. A probe awaited this round stays named by the next
    /// `expire`, as a re-probed suspect's is.
    pub fn suspect(&mut self, id: NodeId) {
        let mark = self.marks.entry(id).or_insert(Mark::Suspected);
        if *mark == Mark::Awaited {
            *mark = Mark::Reprobed;
        }
    }

    /// A message from `id` arrived: it is neither awaited nor suspected.
    pub fn heard(&mut self, id: NodeId) {
        self.marks.remove(&id);
    }

    /// The round's deadline passed: every peer probed this round and not
    /// heard from since is suspected. Returns them, ascending.
    pub fn expire(&mut self) -> Vec<NodeId> {
        let mut silent = Vec::new();
        for (&id, mark) in &mut self.marks {
            if *mark != Mark::Suspected {
                *mark = Mark::Suspected;
                silent.push(id);
            }
        }
        silent.sort_unstable();
        silent
    }

    /// Whether `id` went silent through an `expire` and has not been
    /// heard from since.
    pub fn is_suspected(&self, id: NodeId) -> bool {
        matches!(self.marks.get(&id), Some(Mark::Suspected | Mark::Reprobed))
    }

    /// Forgets everything: a revived node's beliefs are as stale as its
    /// absence was long.
    pub fn reset(&mut self) {
        self.marks.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Peers of the enumeration: `a` and `b` are probed, `c` never is.
    const PEERS: [NodeId; 3] = [NodeId(0), NodeId(1), NodeId(2)];

    /// One call on the detector.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Ev {
        StartRound,
        Probe(NodeId),
        Heard(NodeId),
        Expire,
        Reset,
        Suspect(NodeId),
    }

    const ALPHABET: [Ev; 9] = [
        Ev::StartRound,
        Ev::Probe(PEERS[0]),
        Ev::Probe(PEERS[1]),
        Ev::Heard(PEERS[0]),
        Ev::Heard(PEERS[1]),
        Ev::Heard(PEERS[2]),
        Ev::Expire,
        Ev::Reset,
        Ev::Suspect(PEERS[0]),
    ];

    /// Whether the events `h` forget a probe of `x`: a message from `x`,
    /// a reset, and, when `round_too`, a new round or the deadline.
    fn forgets(h: &[Ev], x: NodeId, round_too: bool) -> bool {
        h.iter().any(|&ev| match ev {
            Ev::Heard(y) => y == x,
            Ev::Reset => true,
            Ev::StartRound | Ev::Expire => round_too,
            Ev::Probe(_) | Ev::Suspect(_) => false,
        })
    }

    /// The model, read off the history: `x` is suspected iff some probe
    /// of `x` was followed by an `expire` in the same round, or `x` was
    /// reported down, with no message from `x` and no reset since.
    fn model_suspected(h: &[Ev], x: NodeId) -> bool {
        (0..h.len()).any(|i| {
            let expired = h[i] == Ev::Probe(x)
                && h[i + 1..]
                    .iter()
                    .take_while(|&&ev| ev != Ev::StartRound)
                    .any(|&ev| ev == Ev::Expire);
            (expired || h[i] == Ev::Suspect(x)) && !forgets(&h[i + 1..], x, false)
        })
    }

    /// Probed since the last round boundary and not heard from: named by
    /// the next `expire`, whether or not a report came in meanwhile.
    fn model_silent(h: &[Ev], x: NodeId) -> bool {
        (0..h.len()).any(|i| h[i] == Ev::Probe(x) && !forgets(&h[i + 1..], x, true))
    }

    /// Applies the last event of `h` and checks the invariants: the
    /// suspected and awaited sets match the model and never meet,
    /// `expire` names exactly the round's silent peers, and `reset`
    /// empties both sets.
    fn step(s: &mut Suspicion, h: &[Ev]) {
        let (&ev, before) = h.split_last().expect("one event");
        match ev {
            Ev::StartRound => s.start_round(),
            Ev::Probe(x) => s.probe(x),
            Ev::Heard(x) => s.heard(x),
            Ev::Expire => {
                let want: Vec<NodeId> =
                    PEERS.into_iter().filter(|&x| model_silent(before, x)).collect();
                assert_eq!(s.expire(), want, "{h:?}: expire names the round's silent peers");
            }
            Ev::Reset => {
                s.reset();
                assert!(s.marks.is_empty(), "{h:?}: reset empties both sets");
            }
            Ev::Suspect(x) => s.suspect(x),
        }
        for x in PEERS {
            let suspected = model_suspected(h, x);
            let awaited = s.marks.get(&x) == Some(&Mark::Awaited);
            assert_eq!(s.is_suspected(x), suspected, "{h:?}: is_suspected({x})");
            assert!(!(s.is_suspected(x) && awaited), "{h:?}: {x} suspected and awaited");
            assert_eq!(awaited, model_silent(h, x) && !suspected, "{h:?}: {x} awaited");
        }
    }

    /// Depth-first over every continuation of `h` up to `left` more
    /// events; returns the sequences walked.
    fn walk(s: &Suspicion, h: &mut Vec<Ev>, left: usize) -> u64 {
        if left == 0 {
            return 1;
        }
        let mut walked = 1;
        for ev in ALPHABET {
            h.push(ev);
            let mut s = s.clone();
            step(&mut s, h);
            walked += walk(&s, h, left - 1);
            h.pop();
        }
        walked
    }

    /// Replays `events` on a fresh detector, checking every step.
    fn replay(events: &[Ev]) -> Suspicion {
        let mut s = Suspicion::default();
        for i in 1..=events.len() {
            step(&mut s, &events[..i]);
        }
        s
    }

    #[test]
    fn every_sequence_of_seven_events_keeps_the_invariants() {
        let walked = walk(&Suspicion::default(), &mut Vec::new(), 7);
        // Sequences of length 0..=7 over 9 events.
        assert_eq!(walked, (9u64.pow(8) - 1) / 8);
    }

    #[test]
    fn any_message_forgives_and_a_new_round_forgets_the_old_one() {
        let (a, b) = (PEERS[0], PEERS[1]);
        let s = replay(&[Ev::StartRound, Ev::Probe(a), Ev::Probe(b), Ev::Heard(a), Ev::Expire]);
        assert!(!s.is_suspected(a) && s.is_suspected(b));
        let s = replay(&[Ev::Probe(a), Ev::StartRound, Ev::Expire]);
        assert!(!s.is_suspected(a), "a probe of an earlier round is not awaited");
    }

    #[test]
    fn a_reprobed_suspect_stays_suspected_and_is_named_again() {
        let a = PEERS[0];
        let mut s = replay(&[Ev::Probe(a), Ev::Expire, Ev::StartRound, Ev::Probe(a)]);
        assert!(s.is_suspected(a), "probing a suspect does not clear it");
        assert_eq!(s.expire(), vec![a]);
    }

    #[test]
    fn a_report_suspects_until_heard_and_keeps_an_awaited_probe_named() {
        let a = PEERS[0];
        let mut s = replay(&[Ev::Suspect(a), Ev::StartRound]);
        assert!(s.is_suspected(a), "a report outlives the round");
        assert!(s.expire().is_empty(), "a peer nobody probed is not named");
        let mut s = replay(&[Ev::StartRound, Ev::Probe(a), Ev::Suspect(a)]);
        assert_eq!(s.expire(), vec![a], "the awaited probe is still named");
        s.heard(a);
        assert!(!s.is_suspected(a));
    }
}
