//! The simulator core: event queue, node table, delivery loop.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use unistore_util::wire::Wire;

use crate::effects::{Effects, Timer};
use crate::fault::FaultPlan;
use crate::latency::LatencyModel;
use crate::metrics::NetMetrics;
use crate::time::SimTime;

/// Identifies a node within one simulation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Pseudo-sender for messages injected by the simulation driver.
    pub const EXTERNAL: NodeId = NodeId(u32::MAX);

    /// Index into dense per-node arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl Wire for NodeId {
    fn encode(&self, buf: &mut bytes::BytesMut) {
        self.0.encode(buf);
    }

    fn decode(buf: &mut bytes::Bytes) -> Result<Self, unistore_util::wire::WireError> {
        Ok(NodeId(u32::decode(buf)?))
    }

    fn wire_size(&self) -> usize {
        self.0.wire_size()
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if *self == NodeId::EXTERNAL {
            write!(f, "n(ext)")
        } else {
            write!(f, "n{}", self.0)
        }
    }
}

/// Protocol logic hosted on a simulated node.
///
/// Implementations queue effects instead of performing I/O; see
/// [`Effects`]. The same implementations run under the live threaded
/// runtime in the `unistore` crate.
pub trait NodeBehavior {
    /// Message type exchanged between nodes; sized on the wire for byte
    /// accounting.
    type Msg: Wire + Clone;
    /// Outputs surfaced to the simulation driver (query results, probe
    /// completions, …).
    type Out;

    /// Called once when the node joins the network, and again each time it
    /// comes back up after a crash. Used to arm maintenance timers: a crash
    /// cancels every timer the node had armed.
    fn on_start(&mut self, _now: SimTime, _fx: &mut Effects<Self::Msg, Self::Out>) {}

    /// Handles one delivered message.
    fn on_message(
        &mut self,
        now: SimTime,
        from: NodeId,
        msg: Self::Msg,
        fx: &mut Effects<Self::Msg, Self::Out>,
    );

    /// Handles a fired timer.
    fn on_timer(&mut self, _now: SimTime, _timer: Timer, _fx: &mut Effects<Self::Msg, Self::Out>) {}
}

enum EventKind<M> {
    Deliver {
        from: NodeId,
        msg: M,
    },
    /// Fires only in the incarnation of its node that armed it.
    Timer {
        timer: Timer,
        incarnation: u32,
    },
    Up,
    Down,
    Start,
}

/// What the event queue orders: when an event fires, the push sequence
/// number that breaks ties FIFO, and the payload slab slot holding its
/// `(node, kind)`. 24 bytes whatever the message type, so a heap sift
/// moves keys, not messages. `seq` is unique, so the derived order is
/// `(at, seq)` and `slot` never decides it.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct EventKey {
    at: SimTime,
    seq: u64,
    slot: u32,
}

const _: () = assert!(std::mem::size_of::<EventKey>() == 24);

struct Slot<N> {
    node: N,
    up: bool,
    /// Crashes so far. A crash ends an incarnation and every timer armed
    /// in it, even when the node is back up before the timer is due.
    incarnation: u32,
}

/// The deterministic discrete-event network.
pub struct SimNet<N: NodeBehavior> {
    slots: Vec<Slot<N>>,
    /// Messages delivered to each node (same index as `slots`): the
    /// per-node load profile behind skew measurements (Gini over the
    /// delivery counts is the scale campaign's balance metric).
    delivered_by: Vec<u64>,
    queue: BinaryHeap<Reverse<EventKey>>,
    /// Payloads of the queued events, indexed by [`EventKey::slot`];
    /// `None` marks a slot on the free list.
    payloads: Vec<Option<(NodeId, EventKind<N::Msg>)>>,
    free: Vec<u32>,
    /// The one effects buffer every handler writes into, drained in
    /// place after each event so its capacity is reused.
    fx: Effects<N::Msg, N::Out>,
    now: SimTime,
    seq: u64,
    latency: Box<dyn LatencyModel>,
    rng: StdRng,
    loss_rate: f64,
    faults: FaultPlan,
    metrics: NetMetrics,
    outputs: Vec<(SimTime, NodeId, N::Out)>,
    /// Opt-in message-trace digest: when enabled, every send folds
    /// (time, origin, destination, encoded bytes) into an FNV-1a hash.
    /// Two same-seed runs of a deterministic protocol must produce the
    /// same digest; any divergence pinpoints an order or payload leak.
    /// Off by default — the fold encodes each message, which the
    /// alloc-free hot path must not pay for.
    trace_on: bool,
    trace_digest: u64,
    /// Opt-in codec check: when set, every send is encoded and handed
    /// to it with its bytes, before loss and faults filter it (off by
    /// default, for the reason the trace is).
    send_check: Option<SendCheck<N::Msg>>,
}

/// A check [`SimNet::set_send_check`] runs on every send: the message
/// and its encoding.
pub type SendCheck<M> = fn(&M, &bytes::Bytes);

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

fn fnv_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

impl<N: NodeBehavior> SimNet<N> {
    /// Creates an empty network with a boxed latency model.
    pub fn new_boxed(latency: Box<dyn LatencyModel>, seed: u64) -> Self {
        SimNet {
            slots: Vec::new(),
            delivered_by: Vec::new(),
            queue: BinaryHeap::new(),
            payloads: Vec::new(),
            free: Vec::new(),
            fx: Effects::new(),
            now: SimTime::ZERO,
            seq: 0,
            latency,
            rng: StdRng::seed_from_u64(seed),
            loss_rate: 0.0,
            faults: FaultPlan::default(),
            metrics: NetMetrics::default(),
            outputs: Vec::new(),
            trace_on: false,
            trace_digest: FNV_OFFSET,
            send_check: None,
        }
    }

    /// Creates an empty network with the given latency model and seed.
    pub fn new(latency: impl LatencyModel + 'static, seed: u64) -> Self {
        Self::new_boxed(Box::new(latency), seed)
    }

    /// Enables (or disables) the message-trace digest, resetting it to
    /// the empty-trace value.
    pub fn set_trace(&mut self, on: bool) {
        self.trace_on = on;
        self.trace_digest = FNV_OFFSET;
    }

    /// The accumulated message-trace digest (the empty-trace constant
    /// when tracing was never enabled).
    pub fn trace_digest(&self) -> u64 {
        self.trace_digest
    }

    /// Installs (or, with `None`, removes) a check every send is handed
    /// to with its encoding. The simulator sizes messages by
    /// `wire_size` and never decodes them, so a test that wants every
    /// message of a run to survive the codec hooks in here.
    pub fn set_send_check(&mut self, check: Option<SendCheck<N::Msg>>) {
        self.send_check = check;
    }

    /// Fraction of messages silently lost in transit (`0.0..=1.0`).
    pub fn set_loss_rate(&mut self, rate: f64) {
        assert!((0.0..=1.0).contains(&rate), "loss rate out of range");
        self.loss_rate = rate;
    }

    /// Installs a [`FaultPlan`] (replacing any previous one). Faults
    /// apply to cross-node traffic only; self-sends never traverse the
    /// network and stay exempt.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// Removes all scheduled faults.
    pub fn clear_fault_plan(&mut self) {
        self.faults = FaultPlan::default();
    }

    /// The currently installed fault plan.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// Adds a node and schedules its `on_start` at the current time.
    pub fn add_node(&mut self, node: N) -> NodeId {
        let id = NodeId(self.slots.len() as u32);
        self.slots.push(Slot { node, up: true, incarnation: 0 });
        self.delivered_by.push(0);
        self.push_event(self.now, id, EventKind::Start);
        id
    }

    /// Number of nodes ever added.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no nodes were added.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Accumulated network counters.
    pub fn metrics(&self) -> NetMetrics {
        self.metrics
    }

    /// Messages delivered to each node so far, indexed by
    /// [`NodeId::index`]. The per-node load profile: experiments compute
    /// skew statistics (Gini) over these counts to quantify the paper's
    /// balancing claim at scale.
    pub fn delivered_per_node(&self) -> &[u64] {
        &self.delivered_by
    }

    /// Immutable access to a node's behavior state.
    pub fn node(&self, id: NodeId) -> &N {
        &self.slots[id.index()].node
    }

    /// Mutable access to a node's behavior state (driver-side setup only;
    /// protocol logic must go through messages).
    pub fn node_mut(&mut self, id: NodeId) -> &mut N {
        &mut self.slots[id.index()].node
    }

    /// Whether the node is currently up.
    pub fn is_up(&self, id: NodeId) -> bool {
        self.slots[id.index()].up
    }

    /// Iterates over `(id, node)` pairs.
    pub fn iter_nodes(&self) -> impl Iterator<Item = (NodeId, &N)> {
        self.slots.iter().enumerate().map(|(i, s)| (NodeId(i as u32), &s.node))
    }

    /// Dismantles the network into its nodes, in id order: how another
    /// runtime takes over a deployment the simulator built.
    pub fn into_nodes(self) -> impl Iterator<Item = N> {
        self.slots.into_iter().map(|s| s.node)
    }

    /// Injects a driver message, delivered to `to` at the current time.
    pub fn inject(&mut self, to: NodeId, msg: N::Msg) {
        self.push_event(self.now, to, EventKind::Deliver { from: NodeId::EXTERNAL, msg });
    }

    /// Schedules a fail-stop crash: the node drops deliveries until it is
    /// revived, and no timer it armed before the crash fires.
    pub fn schedule_down(&mut self, id: NodeId, at: SimTime) {
        self.push_event(at, id, EventKind::Down);
    }

    /// Schedules a revival (calls `on_start` again).
    pub fn schedule_up(&mut self, id: NodeId, at: SimTime) {
        self.push_event(at, id, EventKind::Up);
    }

    /// Outputs emitted so far, drained.
    pub fn take_outputs(&mut self) -> Vec<(SimTime, NodeId, N::Out)> {
        std::mem::take(&mut self.outputs)
    }

    /// Outputs emitted so far, by reference.
    pub fn outputs(&self) -> &[(SimTime, NodeId, N::Out)] {
        &self.outputs
    }

    fn push_event(&mut self, at: SimTime, node: NodeId, kind: EventKind<N::Msg>) {
        let seq = self.seq;
        self.seq += 1;
        let payload = Some((node, kind));
        let slot = match self.free.pop() {
            Some(slot) => {
                self.payloads[slot as usize] = payload;
                slot
            }
            None => {
                self.payloads.push(payload);
                (self.payloads.len() - 1) as u32
            }
        };
        self.queue.push(Reverse(EventKey { at, seq, slot }));
    }

    /// Processes a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(Reverse(key)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(key.at >= self.now, "event queue moved backwards");
        self.now = key.at;
        let (node, kind) =
            self.payloads[key.slot as usize].take().expect("queued slot holds its event");
        self.free.push(key.slot);
        let idx = node.index();
        let mut fx = std::mem::take(&mut self.fx);
        match kind {
            EventKind::Deliver { from, msg } => {
                let slot = &mut self.slots[idx];
                if slot.up {
                    self.metrics.delivered += 1;
                    self.delivered_by[idx] += 1;
                    slot.node.on_message(self.now, from, msg, &mut fx);
                } else {
                    self.metrics.dropped += 1;
                }
            }
            EventKind::Timer { timer, incarnation } => {
                let slot = &mut self.slots[idx];
                // Same incarnation: no crash since the timer was armed, so
                // the node is up.
                if slot.incarnation == incarnation {
                    self.metrics.timers_fired += 1;
                    slot.node.on_timer(self.now, timer, &mut fx);
                }
            }
            EventKind::Start => {
                let slot = &mut self.slots[idx];
                if slot.up {
                    slot.node.on_start(self.now, &mut fx);
                }
            }
            EventKind::Down => {
                let slot = &mut self.slots[idx];
                if slot.up {
                    slot.up = false;
                    slot.incarnation += 1;
                    self.metrics.downs += 1;
                }
            }
            EventKind::Up => {
                let slot = &mut self.slots[idx];
                if !slot.up {
                    slot.up = true;
                    self.metrics.ups += 1;
                    slot.node.on_start(self.now, &mut fx);
                }
            }
        }
        self.apply_effects(node, &mut fx);
        self.fx = fx;
        true
    }

    /// Applies and drains a handler's effects, leaving `fx` empty with its
    /// capacity intact for the next event.
    fn apply_effects(&mut self, origin: NodeId, fx: &mut Effects<N::Msg, N::Out>) {
        for (to, msg) in fx.sends.drain(..) {
            self.metrics.sent += 1;
            self.metrics.bytes += msg.wire_size() as u64;
            if self.trace_on || self.send_check.is_some() {
                let bytes = msg.to_bytes();
                if let Some(check) = self.send_check {
                    check(&msg, &bytes);
                }
                if self.trace_on {
                    // Fold the send before loss/fault filtering: the
                    // digest witnesses what the protocol *did*, and the
                    // seeded RNG makes the filtering itself reproducible
                    // anyway.
                    let mut h = fnv_fold(self.trace_digest, &self.now.as_micros().to_le_bytes());
                    h = fnv_fold(h, &origin.0.to_le_bytes());
                    h = fnv_fold(h, &to.0.to_le_bytes());
                    h = fnv_fold(h, &bytes);
                    self.trace_digest = h;
                }
            }
            if to == NodeId::EXTERNAL || to.index() >= self.slots.len() {
                debug_assert!(to != NodeId::EXTERNAL, "protocol sent to EXTERNAL; use emit()");
                self.metrics.dropped += 1;
                continue;
            }
            if self.loss_rate > 0.0 && self.rng.gen::<f64>() < self.loss_rate {
                self.metrics.dropped += 1;
                continue;
            }
            if to != origin && self.faults.blocks(self.now, origin, to).is_some() {
                self.metrics.dropped += 1;
                continue;
            }
            let delay = if to == origin {
                // Local self-send: no network traversal.
                SimTime::ZERO
            } else {
                self.latency.sample(&mut self.rng, origin, to)
                    + self.faults.extra_delay(self.now, origin, to)
                    + self.faults.reorder_delay(self.now, &mut self.rng)
            };
            if to != origin && self.faults.duplicates(self.now, &mut self.rng) {
                let lag = self.latency.sample(&mut self.rng, origin, to);
                self.metrics.duplicated += 1;
                self.push_event(
                    self.now + delay + lag,
                    to,
                    EventKind::Deliver { from: origin, msg: msg.clone() },
                );
            }
            self.push_event(self.now + delay, to, EventKind::Deliver { from: origin, msg });
        }
        let incarnation = self.slots[origin.index()].incarnation;
        for (delay, timer) in fx.timers.drain(..) {
            self.push_event(self.now + delay, origin, EventKind::Timer { timer, incarnation });
        }
        for out in fx.emits.drain(..) {
            self.outputs.push((self.now, origin, out));
        }
    }

    /// Runs until the queue is empty or simulated time exceeds `limit`.
    /// Returns `true` if the network went quiescent within the limit.
    pub fn run_until_quiescent(&mut self, limit: SimTime) -> bool {
        loop {
            match self.queue.peek() {
                None => return true,
                Some(Reverse(key)) if key.at > limit => return false,
                _ => {
                    self.step();
                }
            }
        }
    }

    /// Processes all events scheduled up to and including `deadline`,
    /// then advances the clock to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(Reverse(key)) = self.queue.peek() {
            if key.at > deadline {
                break;
            }
            self.step();
        }
        self.now = self.now.max(deadline);
    }

    /// Expected one-way link delay of the installed latency model.
    pub fn expected_link_delay(&self) -> SimTime {
        self.latency.expected()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::ConstantLatency;
    use bytes::{Bytes, BytesMut};
    use unistore_util::wire::WireError;

    /// Toy protocol: forwards a counter along a ring until it hits zero,
    /// then emits the hop count.
    #[derive(Clone, Debug, PartialEq)]
    struct Hop(u64);

    impl Wire for Hop {
        fn encode(&self, buf: &mut BytesMut) {
            self.0.encode(buf);
        }
        fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
            Ok(Hop(u64::decode(buf)?))
        }
        fn wire_size(&self) -> usize {
            self.0.wire_size()
        }
    }

    struct RingNode {
        next: NodeId,
        started: u32,
    }

    impl NodeBehavior for RingNode {
        type Msg = Hop;
        type Out = u64;

        fn on_start(&mut self, _now: SimTime, _fx: &mut Effects<Hop, u64>) {
            self.started += 1;
        }

        fn on_message(
            &mut self,
            _now: SimTime,
            _from: NodeId,
            msg: Hop,
            fx: &mut Effects<Hop, u64>,
        ) {
            if msg.0 == 0 {
                fx.emit(0);
            } else {
                fx.send(self.next, Hop(msg.0 - 1));
            }
        }
    }

    fn ring(n: u32, seed: u64) -> SimNet<RingNode> {
        let mut net = SimNet::new(ConstantLatency(SimTime::from_millis(10)), seed);
        for i in 0..n {
            net.add_node(RingNode { next: NodeId((i + 1) % n), started: 0 });
        }
        net
    }

    #[test]
    fn message_circulates_and_time_advances() {
        let mut net = ring(4, 1);
        net.inject(NodeId(0), Hop(8));
        assert!(net.run_until_quiescent(SimTime::from_secs(10)));
        // 8 forwards at 10ms each (the final delivery with 0 hops emits).
        assert_eq!(net.now(), SimTime::from_millis(80));
        assert_eq!(net.outputs().len(), 1);
        assert_eq!(net.metrics().sent, 8);
        assert_eq!(net.metrics().delivered, 9); // inject + 8 forwards
        assert!(net.metrics().bytes >= 8);
        // The per-node profile sums to the global counter and spreads
        // over the ring (the hop circulates through all four nodes).
        assert_eq!(net.delivered_per_node().iter().sum::<u64>(), 9);
        assert!(net.delivered_per_node().iter().all(|&d| d > 0));
    }

    #[test]
    fn deterministic_across_runs() {
        let run = |seed| {
            let mut net = ring(5, seed);
            net.set_loss_rate(0.1);
            for i in 0..5 {
                net.inject(NodeId(i), Hop(20));
            }
            net.run_until_quiescent(SimTime::from_secs(100));
            (net.metrics(), net.now())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).0, run(8).0, "different seeds should diverge under loss");
    }

    #[test]
    fn loss_drops_messages() {
        let mut net = ring(2, 3);
        net.set_loss_rate(1.0);
        net.inject(NodeId(0), Hop(5));
        net.run_until_quiescent(SimTime::from_secs(10));
        assert_eq!(net.metrics().dropped, 1);
        assert_eq!(net.outputs().len(), 0);
    }

    #[test]
    fn the_send_check_sees_every_send_with_its_bytes_lost_or_not() {
        thread_local! {
            static SEEN: std::cell::RefCell<Vec<(u64, Bytes)>> = const {
                std::cell::RefCell::new(Vec::new())
            };
        }
        fn seen(msg: &Hop, bytes: &Bytes) {
            SEEN.with(|s| s.borrow_mut().push((msg.0, bytes.clone())));
        }
        let mut net = ring(3, 5);
        net.set_loss_rate(0.5);
        net.set_send_check(Some(seen));
        for i in 0..3 {
            net.inject(NodeId(i), Hop(300));
        }
        net.run_until_quiescent(SimTime::from_secs(100));
        let sent = SEEN.with(|s| std::mem::take(&mut *s.borrow_mut()));
        assert_eq!(sent.len() as u64, net.metrics().sent);
        assert!(net.metrics().dropped > 0);
        assert!(sent.iter().all(|(hop, bytes)| Hop(*hop).to_bytes() == *bytes));
        // Removed, it sees nothing more.
        net.set_send_check(None);
        net.inject(NodeId(0), Hop(5));
        net.run_until_quiescent(SimTime::from_secs(200));
        assert!(SEEN.with(|s| s.borrow().is_empty()));
    }

    #[test]
    fn down_node_drops_and_up_restarts() {
        let mut net = ring(2, 3);
        net.schedule_down(NodeId(1), SimTime::ZERO);
        net.run_until(SimTime::from_millis(1));
        net.inject(NodeId(0), Hop(3)); // 0 → 1 drops.
        net.run_until_quiescent(SimTime::from_secs(10));
        assert_eq!(net.metrics().dropped, 1);
        assert!(!net.is_up(NodeId(1)));

        let before = net.node(NodeId(1)).started;
        net.schedule_up(NodeId(1), net.now() + SimTime::from_millis(1));
        net.run_until_quiescent(SimTime::from_secs(10));
        assert!(net.is_up(NodeId(1)));
        assert_eq!(net.node(NodeId(1)).started, before + 1, "on_start re-fired");
    }

    #[test]
    fn a_crash_cancels_pending_timers_even_when_revived_before_they_are_due() {
        /// Ticks every 10 ms from each start: one timer chain per start.
        struct Ticker;
        impl NodeBehavior for Ticker {
            type Msg = Hop;
            type Out = ();
            fn on_start(&mut self, _now: SimTime, fx: &mut Effects<Hop, ()>) {
                fx.set_timer(SimTime::from_millis(10), Timer::new(1, 0));
            }
            fn on_message(&mut self, _n: SimTime, _f: NodeId, _m: Hop, _fx: &mut Effects<Hop, ()>) {
            }
            fn on_timer(&mut self, _now: SimTime, t: Timer, fx: &mut Effects<Hop, ()>) {
                fx.set_timer(SimTime::from_millis(10), t);
            }
        }
        let mut net = SimNet::new(ConstantLatency(SimTime::ZERO), 0);
        let id = net.add_node(Ticker);
        // Down at 15 ms, up at 16 ms: the tick due at 20 ms was armed
        // before the crash.
        net.schedule_down(id, SimTime::from_millis(15));
        net.schedule_up(id, SimTime::from_millis(16));
        net.run_until(SimTime::from_millis(100));
        // 10 ms, then 26, 36, ..., 96 ms from the revival: one chain.
        assert_eq!(net.metrics().timers_fired, 1 + 8);
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerNode {
            fired: Vec<u64>,
        }
        #[derive(Clone, Debug)]
        struct NoMsg;
        impl Wire for NoMsg {
            fn encode(&self, _b: &mut BytesMut) {}
            fn decode(_b: &mut Bytes) -> Result<Self, WireError> {
                Ok(NoMsg)
            }
            fn wire_size(&self) -> usize {
                0
            }
        }
        impl NodeBehavior for TimerNode {
            type Msg = NoMsg;
            type Out = ();
            fn on_start(&mut self, _now: SimTime, fx: &mut Effects<NoMsg, ()>) {
                fx.set_timer(SimTime::from_millis(30), Timer::new(1, 30));
                fx.set_timer(SimTime::from_millis(10), Timer::new(1, 10));
                fx.set_timer(SimTime::from_millis(20), Timer::new(1, 20));
            }
            fn on_message(
                &mut self,
                _n: SimTime,
                _f: NodeId,
                _m: NoMsg,
                _fx: &mut Effects<NoMsg, ()>,
            ) {
            }
            fn on_timer(&mut self, _now: SimTime, t: Timer, _fx: &mut Effects<NoMsg, ()>) {
                self.fired.push(t.payload);
            }
        }
        let mut net = SimNet::new(ConstantLatency(SimTime::ZERO), 0);
        let id = net.add_node(TimerNode { fired: vec![] });
        net.run_until_quiescent(SimTime::from_secs(1));
        assert_eq!(net.node(id).fired, vec![10, 20, 30]);
        assert_eq!(net.metrics().timers_fired, 3);
    }

    #[test]
    fn partition_blocks_then_heals() {
        use crate::fault::{FaultPlan, Window};
        let mut net = ring(2, 3);
        net.set_fault_plan(FaultPlan::new().partition(
            "bisect",
            [NodeId(0)],
            Window::new(SimTime::ZERO, SimTime::from_secs(1)),
        ));
        net.inject(NodeId(0), Hop(1)); // 0 → 1 is cut: dropped.
        net.run_until(SimTime::from_millis(500));
        assert_eq!(net.metrics().dropped, 1);
        assert_eq!(net.outputs().len(), 0);
        // After the heal the same hop goes through.
        net.run_until(SimTime::from_secs(2));
        net.inject(NodeId(0), Hop(1));
        assert!(net.run_until_quiescent(SimTime::from_secs(10)));
        assert_eq!(net.outputs().len(), 1);
    }

    #[test]
    fn duplication_redelivers_messages() {
        use crate::fault::{FaultPlan, Window};
        let mut net = ring(2, 3);
        net.set_fault_plan(FaultPlan::new().duplicate(1.0, Window::always()));
        net.inject(NodeId(0), Hop(1));
        net.run_until_quiescent(SimTime::from_secs(10));
        // Every cross-node send arrives twice; the protocol just emits
        // again on the duplicate.
        assert!(net.metrics().duplicated >= 1, "{:?}", net.metrics());
        // Every cross-node send lands twice; the inject is the +1.
        assert_eq!(net.metrics().delivered, net.metrics().sent + net.metrics().duplicated + 1);
        assert_eq!(net.outputs().len(), 2, "the duplicate re-emits");
    }

    #[test]
    fn delay_spike_slows_matching_link() {
        use crate::fault::{FaultPlan, Window};
        let mut net = ring(2, 3);
        net.set_fault_plan(FaultPlan::new().delay_spike(
            Some(NodeId(0)),
            Some(NodeId(1)),
            SimTime::from_millis(500),
            Window::always(),
        ));
        net.inject(NodeId(0), Hop(1)); // one 0 → 1 hop, then emit at 1.
        net.run_until_quiescent(SimTime::from_secs(10));
        assert_eq!(net.now(), SimTime::from_millis(510), "10ms link + 500ms spike");
    }

    #[test]
    fn run_until_advances_clock_without_events() {
        let mut net = ring(2, 0);
        net.run_until(SimTime::from_secs(5));
        assert_eq!(net.now(), SimTime::from_secs(5));
    }

    /// Records the hop values delivered to it; sends nothing.
    struct Recorder {
        seen: Vec<u64>,
    }

    impl NodeBehavior for Recorder {
        type Msg = Hop;
        type Out = ();

        fn on_message(&mut self, _n: SimTime, _f: NodeId, msg: Hop, _fx: &mut Effects<Hop, ()>) {
            self.seen.push(msg.0);
        }
    }

    #[test]
    fn same_instant_events_fire_in_push_order_across_reused_slots() {
        let mut net = SimNet::new(ConstantLatency(SimTime::ZERO), 0);
        let id = net.add_node(Recorder { seen: vec![] });
        net.run_until(SimTime::ZERO);
        // Four events firing in an order unlike their slots' (2, 0, 3, 1)
        // leave the free list scrambled.
        for ms in [2, 4, 1, 3] {
            let at = SimTime::from_millis(ms);
            net.push_event(at, id, EventKind::Deliver { from: NodeId::EXTERNAL, msg: Hop(ms) });
        }
        net.run_until(SimTime::from_millis(4));
        assert_eq!(net.node(id).seen, vec![1, 2, 3, 4]);

        let at = SimTime::from_millis(10);
        for i in 10..14 {
            net.push_event(at, id, EventKind::Deliver { from: NodeId::EXTERNAL, msg: Hop(i) });
        }
        let mut keys: Vec<(u64, u32)> =
            net.queue.iter().map(|Reverse(k)| (k.seq, k.slot)).collect();
        keys.sort_unstable();
        let slots: Vec<u32> = keys.iter().map(|&(_, slot)| slot).collect();
        assert_eq!(slots, vec![1, 3, 0, 2], "reused slots, out of index order");
        assert_eq!(net.payloads.len(), 4, "no slot allocated while one was free");

        net.run_until(at);
        assert_eq!(net.node(id).seen[4..], [10, 11, 12, 13], "FIFO at one instant");
    }

    #[test]
    fn handlers_never_see_an_earlier_events_effects() {
        /// Sends, arms a timer and emits once, at its first start; every
        /// handler checks it starts from an empty buffer.
        struct Once {
            peer: NodeId,
            done: bool,
        }
        impl NodeBehavior for Once {
            type Msg = Hop;
            type Out = u64;
            fn on_start(&mut self, _now: SimTime, fx: &mut Effects<Hop, u64>) {
                assert!(fx.is_empty(), "start saw stale effects");
                if !std::mem::replace(&mut self.done, true) {
                    fx.send(self.peer, Hop(1));
                    fx.set_timer(SimTime::from_millis(5), Timer::new(1, 0));
                    fx.emit(7);
                }
            }
            fn on_message(&mut self, _n: SimTime, _f: NodeId, _m: Hop, fx: &mut Effects<Hop, u64>) {
                assert!(fx.is_empty(), "message handler saw stale effects");
            }
            fn on_timer(&mut self, _now: SimTime, _t: Timer, fx: &mut Effects<Hop, u64>) {
                assert!(fx.is_empty(), "timer handler saw stale effects");
            }
        }
        let mut net = SimNet::new(ConstantLatency(SimTime::from_millis(1)), 0);
        let a = net.add_node(Once { peer: NodeId(1), done: false });
        let b = net.add_node(Once { peer: NodeId(0), done: false });
        for i in 0..5 {
            net.inject(a, Hop(i));
            net.inject(b, Hop(i));
        }
        assert!(net.run_until_quiescent(SimTime::from_secs(1)));
        let m = net.metrics();
        assert_eq!(m.sent, 2, "one send per node, never replayed");
        assert_eq!(m.timers_fired, 2);
        assert_eq!(m.delivered, 12, "10 injects + 2 sends");
        assert_eq!(net.outputs().len(), 2);
    }

    #[test]
    fn take_outputs_drains() {
        let mut net = ring(2, 0);
        net.inject(NodeId(0), Hop(0));
        net.run_until_quiescent(SimTime::from_secs(1));
        assert_eq!(net.take_outputs().len(), 1);
        assert!(net.outputs().is_empty());
    }
}
