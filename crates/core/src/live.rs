//! Live threaded runtime.
//!
//! The paper stresses that UniStore "is not intended to run simulations,
//! rather … a platform intended for usage" (§1). The protocol code in
//! this repository is runtime-agnostic (everything is a
//! [`NodeBehavior`]); this module runs the *same* node implementation on
//! real OS threads with real channels and wall-clock timers, proving the
//! simulator is an execution harness, not a semantic crutch. Like the
//! simulated driver it is generic over the [`Overlay`] backend.
//!
//! Each node is one thread; `crossbeam` channels are the links; timers
//! are a local deadline heap served between receives. The driver
//! injects queries exactly like the simulated cluster does.

// This IS the sanctioned wall-clock module (see clippy.toml): the live
// runtime exists precisely to run the protocol against real time.
#![allow(clippy::disallowed_methods)]

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};

use unistore_overlay::Overlay;
use unistore_pgrid::PGridPeer;
use unistore_query::{Relation, StatsDelta};
use unistore_simnet::{Effects, NodeBehavior, NodeId, SimTime, Timer};
use unistore_store::{Triple, Tuple};
use unistore_util::wire::Shared;
use unistore_util::{FxHashMap, FxHashSet};
use unistore_vql::VqlError;

use crate::cluster::{build_insert_batch, plan_query, UniCluster};
use crate::config::UniConfig;
use crate::msg::{QueryMsg, UniEvent, UniMsg};
use crate::node::UniNode;

type Inbox<M> = (NodeId, UniMsg<M>);

/// A node's statistics summary as reported by
/// [`LiveCluster::stats_probe`]: total triples plus per-attribute
/// counts.
pub type StatsSummary = (f64, Vec<(Arc<str>, f64)>);

/// A running, threaded UniStore deployment over an [`Overlay`] backend
/// (P-Grid unless specified otherwise).
pub struct LiveCluster<O: Overlay<Item = Triple> = PGridPeer<Triple>> {
    senders: Vec<Sender<Inbox<O::Msg>>>,
    outputs: Receiver<(NodeId, UniEvent)>,
    handles: Vec<JoinHandle<()>>,
    shutdown: Arc<AtomicBool>,
    next_qid: u64,
    n: usize,
    /// The configuration the cluster was started with: runtime writes
    /// read the overlay config and q-gram switch, the pipelined query
    /// API its admission window.
    cfg: UniConfig<O::Config>,
    /// Generation of the load-time statistics snapshot: the live
    /// runtime never rebuilds, so every runtime delta rides it.
    stats_epoch: u64,
    /// Events received while some other waiter held the channel,
    /// buffered by qid for re-delivery — never discarded.
    buffered: FxHashMap<u64, UniEvent>,
    /// qids a driver operation still awaits. Events for any other qid
    /// are stale (withdrawn waiter, superseded attempt) and dropped.
    expected: FxHashSet<u64>,
    /// Submitted pipelined queries in admission order (backpressure
    /// waits on the oldest).
    in_flight: std::collections::VecDeque<u64>,
    /// Outstanding pipelined queries: qid → wall-clock deadline.
    deadlines: FxHashMap<u64, Instant>,
}

/// The qid an event answers.
fn event_qid(ev: &UniEvent) -> u64 {
    match ev {
        UniEvent::QueryDone { qid, .. } | UniEvent::Stats { qid, .. } => *qid,
        UniEvent::Storage(d) => d.qid(),
    }
}

impl LiveCluster<PGridPeer<Triple>> {
    /// Builds the P-Grid overlay, loads the tuples, distributes
    /// statistics and starts one thread per node.
    pub fn start(n_peers: usize, cfg: UniConfig, tuples: Vec<Tuple>, seed: u64) -> Self {
        Self::start_overlay(n_peers, cfg, tuples, seed)
    }
}

impl<O: Overlay<Item = Triple>> LiveCluster<O> {
    /// Builds the overlay, loads the tuples, distributes statistics and
    /// starts one thread per node. The deployment is the one the
    /// simulated driver's bulk load produces for the same tuples and
    /// seed over a LAN ([`UniCluster::load`]): same topology, same
    /// placement, same statistics snapshot.
    pub fn start_overlay(
        n_peers: usize,
        cfg: UniConfig<O::Config>,
        tuples: Vec<Tuple>,
        seed: u64,
    ) -> Self {
        let mut loaded = UniCluster::<O>::build_overlay(n_peers, cfg.clone(), seed);
        loaded.load(tuples);
        let stats_epoch = loaded.stats_epoch;

        let (out_tx, outputs) = bounded::<(NodeId, UniEvent)>(1024);
        type Channel<M> = (Sender<Inbox<M>>, Receiver<Inbox<M>>);
        let channels: Vec<Channel<O::Msg>> =
            (0..n_peers).map(|_| bounded::<Inbox<O::Msg>>(1024)).collect();
        let senders: Vec<Sender<Inbox<O::Msg>>> = channels.iter().map(|(s, _)| s.clone()).collect();
        let shutdown = Arc::new(AtomicBool::new(false));

        let mut handles = Vec::with_capacity(n_peers);
        for (node, (_tx, rx)) in loaded.net.into_nodes().zip(channels) {
            let peers = senders.clone();
            let out = out_tx.clone();
            let stop = shutdown.clone();
            handles.push(std::thread::spawn(move || {
                node_loop(node, rx, peers, out, stop);
            }));
        }
        LiveCluster {
            senders,
            outputs,
            handles,
            shutdown,
            next_qid: 1,
            n: n_peers,
            cfg,
            stats_epoch,
            buffered: FxHashMap::default(),
            expected: FxHashSet::default(),
            in_flight: std::collections::VecDeque::new(),
            deadlines: FxHashMap::default(),
        }
    }

    /// Waits until the event carrying `qid` surfaces or `deadline`
    /// passes. Events for other *expected* qids are buffered for their
    /// waiters; events nobody expects are stale and dropped. A deadline
    /// that has already expired returns a clean `None` immediately —
    /// no zero-duration receive loop.
    fn recv_event(&mut self, qid: u64, deadline: Instant) -> Option<UniEvent> {
        if let Some(ev) = self.buffered.remove(&qid) {
            self.expected.remove(&qid);
            return Some(ev);
        }
        loop {
            let now = Instant::now();
            if now >= deadline {
                self.expected.remove(&qid);
                return None;
            }
            match self.outputs.recv_timeout(deadline - now) {
                Ok((_, ev)) => {
                    let got = event_qid(&ev);
                    if got == qid {
                        self.expected.remove(&qid);
                        return Some(ev);
                    }
                    if self.expected.contains(&got) {
                        // Keep the first completion; a late duplicate
                        // from a superseded attempt changes nothing.
                        self.buffered.entry(got).or_insert(ev);
                    }
                }
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                    self.expected.remove(&qid);
                    return None;
                }
            }
        }
    }

    fn fresh_qid(&mut self) -> u64 {
        let q = self.next_qid;
        self.next_qid += 1;
        q
    }

    /// Non-blocking drain of the event channel into the buffer.
    fn drain_ready(&mut self) {
        while let Ok((_, ev)) = self.outputs.try_recv() {
            let got = event_qid(&ev);
            if self.expected.contains(&got) {
                self.buffered.entry(got).or_insert(ev);
            }
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when no nodes run (never, for a started cluster).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Parses and submits a VQL query from the given node into the
    /// pipelined execution window; returns the qid to wait on with
    /// [`Self::query_wait`]. `timeout` is the per-query wall-clock
    /// deadline budget, counted from submission. When
    /// [`UniConfig::max_in_flight`] queries are already outstanding,
    /// the call blocks until the oldest one resolves (backpressure).
    pub fn query_submit(
        &mut self,
        origin: NodeId,
        src: &str,
        timeout: Duration,
    ) -> Result<u64, VqlError> {
        let mqp = plan_query(origin, src, || self.fresh_qid())?;
        let qid = mqp.qid;
        // Backpressure: hold the submission until the window has room,
        // servicing the oldest in-flight query meanwhile.
        while self.in_flight.len() >= self.cfg.max_in_flight {
            let oldest = self.in_flight[0];
            match self.buffered.contains_key(&oldest) {
                // Completed but unclaimed: its slot is free.
                true => {}
                false => {
                    let dl = self.deadlines[&oldest];
                    if let Some(ev) = self.recv_event(oldest, dl) {
                        // Keep the completion for its waiter.
                        self.expected.insert(oldest);
                        self.buffered.insert(oldest, ev);
                    }
                    // On None the oldest timed out; its waiter will
                    // observe the expired deadline. Either way the
                    // window slot is released.
                }
            }
            self.in_flight.pop_front();
        }
        self.senders[origin.index()]
            .send((NodeId::EXTERNAL, UniMsg::Query(QueryMsg::Execute { mqp })))
            .expect("node thread alive");
        self.expected.insert(qid);
        self.deadlines.insert(qid, Instant::now() + timeout);
        self.in_flight.push_back(qid);
        Ok(qid)
    }

    /// Non-blocking completion check for a submitted query: `None`
    /// while still running; `Some(outcome)` once finished, where the
    /// outcome is `Some(relation)` on success and `None` on failure.
    pub fn query_poll(&mut self, qid: u64) -> Option<Option<Relation>> {
        self.drain_ready();
        let ev = self.buffered.remove(&qid)?;
        self.expected.remove(&qid);
        self.deadlines.remove(&qid);
        self.in_flight.retain(|q| *q != qid);
        match ev {
            UniEvent::QueryDone { relation, ok, .. } => Some(ok.then_some(relation)),
            _ => Some(None),
        }
    }

    /// Waits for a submitted query until its deadline budget expires:
    /// `Some(relation)` on success, `None` on failure or timeout.
    /// Events for other in-flight queries arriving meanwhile are
    /// buffered for their own waiters, never discarded.
    pub fn query_wait(&mut self, qid: u64) -> Option<Relation> {
        let deadline = self.deadlines.remove(&qid)?;
        self.in_flight.retain(|q| *q != qid);
        match self.recv_event(qid, deadline) {
            Some(UniEvent::QueryDone { relation, ok, .. }) => ok.then_some(relation),
            _ => None,
        }
    }

    /// Waits for every outstanding pipelined query and returns the
    /// outcomes in submission (qid) order.
    pub fn query_wait_all(&mut self) -> Vec<(u64, Option<Relation>)> {
        let mut qids: Vec<u64> = self.deadlines.keys().copied().collect();
        qids.sort_unstable();
        qids.into_iter().map(|q| (q, self.query_wait(q))).collect()
    }

    /// Runs a VQL query from the given node, waiting up to `timeout`
    /// wall-clock time for the answer — submit-and-wait over the
    /// pipelined path.
    pub fn query(
        &mut self,
        origin: NodeId,
        src: &str,
        timeout: Duration,
    ) -> Result<Option<Relation>, VqlError> {
        let qid = self.query_submit(origin, src, timeout)?;
        Ok(self.query_wait(qid))
    }

    /// Inserts many tuples through the routed protocol path at runtime
    /// as **one batched write** (coalesced per-hop
    /// [`unistore_overlay::OpBatch`] messages), waiting up to `timeout`
    /// wall-clock time for the aggregated acks. After the acks, a single
    /// statistics delta for the whole batch is handed to the origin node in-band:
    /// the origin folds it into its cost model immediately and
    /// disseminates it to the other nodes on its next stats-refresh tick
    /// — no restart, no rescan.
    pub fn insert_batch(&mut self, origin: NodeId, tuples: &[Tuple], timeout: Duration) -> bool {
        let (batch, triples) = build_insert_batch(tuples, self.cfg.with_qgrams);
        let ocfg = self.cfg.overlay.clone();
        let msgs = O::batch_msgs(&ocfg, &mut || self.fresh_qid(), &batch, origin);
        let mut pending: Vec<u64> = Vec::with_capacity(msgs.len());
        for (qid, msg) in msgs {
            pending.push(qid);
            self.expected.insert(qid);
            self.senders[origin.index()]
                .send((NodeId::EXTERNAL, UniMsg::Overlay(msg)))
                .expect("node thread alive");
        }
        let deadline = Instant::now() + timeout;
        let mut ok = true;
        for (i, &qid) in pending.iter().enumerate() {
            match self.recv_event(qid, deadline) {
                Some(UniEvent::Storage(done)) => ok &= done.ok(),
                _ => {
                    // Timed out: withdraw the remaining waits so their
                    // late acks are dropped, not hoarded.
                    for q in &pending[i..] {
                        self.expected.remove(q);
                    }
                    return false;
                }
            }
        }
        let mut delta = StatsDelta::new();
        for t in triples {
            delta.record_insert(t);
        }
        self.senders[origin.index()]
            .send((
                NodeId::EXTERNAL,
                UniMsg::Query(QueryMsg::StatsDelta {
                    epoch: self.stats_epoch,
                    delta: Shared::new(delta),
                }),
            ))
            .expect("node thread alive");
        ok
    }

    /// Inserts one tuple through the routed protocol path at runtime — a
    /// thin wrapper over [`Self::insert_batch`].
    pub fn insert_tuple(&mut self, origin: NodeId, tuple: &Tuple, timeout: Duration) -> bool {
        self.insert_batch(origin, std::slice::from_ref(tuple), timeout)
    }

    /// Asks a node for a summary of its current statistics snapshot:
    /// `(total, per-attribute counts)`. Observability for staleness
    /// tests — the only way to see inside a running node.
    pub fn stats_probe(&mut self, node: NodeId, timeout: Duration) -> Option<StatsSummary> {
        let qid = self.fresh_qid();
        self.expected.insert(qid);
        self.senders[node.index()]
            .send((NodeId::EXTERNAL, UniMsg::Query(QueryMsg::StatsProbe { qid })))
            .expect("node thread alive");
        match self.recv_event(qid, Instant::now() + timeout) {
            Some(UniEvent::Stats { total, attrs, .. }) => Some((total, attrs)),
            _ => None,
        }
    }

    /// Stops all node threads.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// One node's event loop: receive, fire due timers, apply effects.
fn node_loop<O: Overlay<Item = Triple>>(
    mut node: UniNode<O>,
    rx: Receiver<Inbox<O::Msg>>,
    peers: Vec<Sender<Inbox<O::Msg>>>,
    out: Sender<(NodeId, UniEvent)>,
    stop: Arc<AtomicBool>,
) {
    let start = Instant::now();
    let id = node.id();
    let now = |s: Instant| SimTime::from_micros(s.elapsed().as_micros() as u64);
    // (deadline, timer), min-heap by deadline.
    let mut timers: BinaryHeap<std::cmp::Reverse<(Instant, u32, u64)>> = BinaryHeap::new();

    let mut fx: Effects<UniMsg<O::Msg>, UniEvent> = Effects::new();
    node.on_start(now(start), &mut fx);
    apply(id, &mut fx, &peers, &out, &mut timers);

    while !stop.load(Ordering::SeqCst) {
        let wait = timers
            .peek()
            .map(|std::cmp::Reverse((at, _, _))| at.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_millis(25))
            .min(Duration::from_millis(25));
        match rx.recv_timeout(wait) {
            Ok((from, msg)) => {
                node.on_message(now(start), from, msg, &mut fx);
                apply(id, &mut fx, &peers, &out, &mut timers);
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        // Fire due timers.
        while let Some(std::cmp::Reverse((at, kind, payload))) = timers.peek().copied() {
            if at > Instant::now() {
                break;
            }
            timers.pop();
            node.on_timer(now(start), Timer::new(kind, payload), &mut fx);
            apply(id, &mut fx, &peers, &out, &mut timers);
        }
    }
}

fn apply<M>(
    id: NodeId,
    fx: &mut Effects<UniMsg<M>, UniEvent>,
    peers: &[Sender<Inbox<M>>],
    out: &Sender<(NodeId, UniEvent)>,
    timers: &mut BinaryHeap<std::cmp::Reverse<(Instant, u32, u64)>>,
) {
    let (sends, tms, emits) = fx.drain();
    for (to, msg) in sends {
        if to.index() < peers.len() {
            // A full channel or a gone peer is packet loss — the
            // protocols tolerate it by design.
            let _ = peers[to.index()].try_send((id, msg));
        }
    }
    for (delay, t) in tms {
        let at = Instant::now() + Duration::from_micros(delay.as_micros());
        timers.push(std::cmp::Reverse((at, t.kind, t.payload)));
    }
    for e in emits {
        let _ = out.try_send((id, e));
    }
}
