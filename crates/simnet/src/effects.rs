//! The effects buffer protocol handlers write into.
//!
//! Handlers never touch the network directly; they queue *effects*
//! (sends, timers, emitted outputs) that the simulator applies after the
//! handler returns. This keeps protocol code free of aliasing issues and
//! unit-testable without a network: tests construct an [`Effects`], call
//! the handler, and assert on its contents.

use std::vec::Drain;

use rand::Rng;

use crate::net::NodeId;
use crate::time::SimTime;

/// A timer registration: after `delay`, `on_timer` fires with this value.
///
/// `kind` discriminates timer purposes within a protocol; `payload`
/// carries a small amount of context (e.g. a query id).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Timer {
    /// Protocol-defined discriminator.
    pub kind: u32,
    /// Protocol-defined context value.
    pub payload: u64,
}

impl Timer {
    /// Convenience constructor.
    pub fn new(kind: u32, payload: u64) -> Self {
        Timer { kind, payload }
    }
}

/// Effect queue passed to every handler invocation.
#[derive(Debug)]
pub struct Effects<M, O> {
    pub(crate) sends: Vec<(NodeId, M)>,
    pub(crate) timers: Vec<(SimTime, Timer)>,
    pub(crate) emits: Vec<O>,
}

impl<M, O> Default for Effects<M, O> {
    fn default() -> Self {
        Effects { sends: Vec::new(), timers: Vec::new(), emits: Vec::new() }
    }
}

impl<M, O> Effects<M, O> {
    /// Creates an empty buffer (mostly for tests).
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a message to another node.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.sends.push((to, msg));
    }

    /// Arms a timer to fire after `delay`.
    pub fn set_timer(&mut self, delay: SimTime, timer: Timer) {
        self.timers.push((delay, timer));
    }

    /// Arms the next tick of a periodic task: `timer` fires after
    /// `period` scaled by one uniform draw from `[0.5, 1.5)` of `rng`, so
    /// peers started together do not tick in lockstep.
    pub fn set_periodic(&mut self, rng: &mut impl Rng, period: SimTime, timer: Timer) {
        let jitter = rng.gen_range(0.5..1.5);
        self.set_timer(SimTime::from_micros((period.as_micros() as f64 * jitter) as u64), timer);
    }

    /// Emits an output to the simulation driver (e.g. a query result).
    pub fn emit(&mut self, out: O) {
        self.emits.push(out);
    }

    /// Queued sends (for tests on protocol handlers).
    pub fn sends(&self) -> &[(NodeId, M)] {
        &self.sends
    }

    /// Queued timers (for tests on protocol handlers).
    pub fn timers(&self) -> &[(SimTime, Timer)] {
        &self.timers
    }

    /// Queued emits (for tests on protocol handlers).
    pub fn emits(&self) -> &[O] {
        &self.emits
    }

    /// True if no effects were produced.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty() && self.timers.is_empty() && self.emits.is_empty()
    }

    /// Drains all effects in place (used by alternative runtimes such as
    /// `unistore::live`, and by wrappers that re-envelope an inner
    /// protocol's effects). The buffer keeps its capacity, so a runtime
    /// that reuses one `Effects` across handler calls stops allocating
    /// once it has seen its largest burst.
    #[allow(clippy::type_complexity)]
    pub fn drain(&mut self) -> (Drain<'_, (NodeId, M)>, Drain<'_, (SimTime, Timer)>, Drain<'_, O>) {
        (self.sends.drain(..), self.timers.drain(..), self.emits.drain(..))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queues_and_drains() {
        let mut fx: Effects<&'static str, u32> = Effects::new();
        assert!(fx.is_empty());
        fx.send(NodeId(1), "hello");
        fx.set_timer(SimTime::from_millis(10), Timer::new(1, 99));
        fx.emit(7);
        assert_eq!(fx.sends().len(), 1);
        assert_eq!(fx.timers().len(), 1);
        assert_eq!(fx.emits(), &[7]);
        assert!(!fx.is_empty());
        let (s, t, e) = fx.drain();
        assert_eq!(s.collect::<Vec<_>>(), vec![(NodeId(1), "hello")]);
        assert_eq!(t.map(|(_, timer)| timer).collect::<Vec<_>>(), vec![Timer::new(1, 99)]);
        assert_eq!(e.collect::<Vec<_>>(), vec![7]);
        assert!(fx.is_empty());
        assert!(fx.sends.capacity() > 0, "draining keeps the buffer's capacity");
    }
}
