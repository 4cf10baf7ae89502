//! The overlay abstraction: what UniStore's query layer needs from a DHT.
//!
//! The paper's layer diagram (Fig. 1) presents the structured overlay as
//! an interchangeable substrate below the triple storage and query
//! processing layers. This crate makes that substrate a first-class
//! abstraction: [`Overlay`] captures exactly the surface the layers
//! above consume —
//!
//! * **retrieval**: exact-key lookups plus order-preserving range scans
//!   (prefix scans are ranges over the order-preserving key encoding),
//! * **placement**: routed write batches and driver-side preloading,
//! * **routing**: responsibility tests and next-hop selection so mutant
//!   query plans can travel toward the data,
//! * **completions**: one completion type ([`OverlayDone`]) that every
//!   backend emits for locally issued operations, and one driver-side
//!   wait ([`run_op`]) for raw overlay clusters,
//! * **bootstrap**: converged-topology planning ([`OverlayTopology`])
//!   shared by the simulated cluster and the live runtime,
//! * **liveness**: one failure detector ([`liveness::Suspicion`]) for
//!   the peers a backend routes through.
//!
//! `unistore-pgrid` implements it natively (the trie *is* the index);
//! `unistore-chord` implements it with a uniform-hash ring plus an
//! order-preserving bucket index — the "additional structure" the paper
//! says ring DHTs need for range queries (§2). The whole
//! VQL → MQP → adaptive-optimizer pipeline runs unchanged over either.

pub mod batch;
pub mod liveness;
pub mod records;
pub mod repair;
pub mod store;

use unistore_simnet::metrics::OpCost;
use unistore_simnet::{Effects, NodeBehavior, NodeId, SimNet, SimTime};
use unistore_util::item::Item;
use unistore_util::Key;

pub use batch::{push_hop, BatchTracker, HopGroups};
pub use records::{Record, RecordList};
pub use repair::RepairStats;
pub use store::VersionedStore;
pub use unistore_util::bloom::ItemFilter;
pub use unistore_util::wire::{BatchOp, BatchVerb, OpBatch};

/// Which range-scan physical algorithm the caller prefers.
///
/// Backends map the hint onto their native machinery: P-Grid runs the
/// shower algorithm for [`RangeMode::Parallel`] and the sequential leaf
/// walk for [`RangeMode::Sequential`]; Chord serves parallel scans from
/// its bucket index and falls back to a finger-tree broadcast for the
/// sequential (index-free) flavour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RangeMode {
    /// Fan out across the key space in parallel.
    Parallel,
    /// Walk the key space without the parallel fan-out structure.
    Sequential,
}

/// Completion of a locally issued overlay operation: the
/// [`NodeBehavior::Out`] of every backend, so the layers above
/// correlate by `qid` without knowing which DHT answered.
#[derive(Clone, Debug)]
pub enum OverlayDone<I> {
    /// An exact-key lookup finished.
    Lookup {
        /// Correlation id.
        qid: u64,
        /// Items stored under the key (empty = key absent).
        items: Vec<I>,
        /// Hops of the route.
        hops: u32,
        /// `false` on routing failure or timeout.
        ok: bool,
    },
    /// A range scan finished.
    Range {
        /// Correlation id.
        qid: u64,
        /// All matching items (may contain duplicates from replicas or
        /// double-indexed entries; callers dedup by identity).
        items: Vec<I>,
        /// Deepest hop count over all branches.
        hops: u32,
        /// `true` when every expected contribution arrived.
        complete: bool,
        /// Contributions received: leaf replies on P-Grid; on Chord the
        /// nodes a broadcast covered or the buckets a bucket scan read.
        parts: u32,
    },
    /// A routed [`OpBatch`] completed: every op was acknowledged (`ok`)
    /// or its retries ran out. Per-op acks are aggregated by the
    /// backend's [`BatchTracker`], so driver-side bookkeeping stays
    /// O(batch), not O(op). Both fields below are the tracker's, on
    /// success and on failure alike, on every backend.
    Batch {
        /// Correlation id of the whole batch.
        qid: u64,
        /// Ops acknowledged ([`BatchTracker::acked`]): all of them when
        /// `ok`, the part that landed before the retries ran out
        /// otherwise.
        ops: u32,
        /// Deepest hop count over the acks received
        /// ([`BatchTracker::hops`]).
        hops: u32,
        /// `false` when not every op was acknowledged in time.
        ok: bool,
    },
}

impl<I> OverlayDone<I> {
    /// Correlation id of the completed operation.
    pub fn qid(&self) -> u64 {
        match self {
            OverlayDone::Lookup { qid, .. }
            | OverlayDone::Range { qid, .. }
            | OverlayDone::Batch { qid, .. } => *qid,
        }
    }

    /// Hop count of the completed operation.
    pub fn hops(&self) -> u32 {
        match self {
            OverlayDone::Lookup { hops, .. }
            | OverlayDone::Range { hops, .. }
            | OverlayDone::Batch { hops, .. } => *hops,
        }
    }

    /// Retrieved items, when the operation retrieves (`None` for
    /// write batches).
    pub fn items(&self) -> Option<&[I]> {
        match self {
            OverlayDone::Lookup { items, .. } | OverlayDone::Range { items, .. } => Some(items),
            OverlayDone::Batch { .. } => None,
        }
    }

    /// Whether the operation fully succeeded (`complete` for ranges,
    /// `ok` otherwise).
    pub fn ok(&self) -> bool {
        match self {
            OverlayDone::Lookup { ok, .. } | OverlayDone::Batch { ok, .. } => *ok,
            OverlayDone::Range { complete, .. } => *complete,
        }
    }
}

/// Simulated time [`run_op`] waits for a completion before giving up.
/// Backend op timeouts end every operation long before; the cap only
/// bounds a network whose periodic timers would otherwise step forever.
const RUN_OP_CAP: SimTime = SimTime::from_secs(120_000);

/// Injects `msg` at `origin` and steps `net` until the completion of
/// `qid` surfaces: the raw overlay clusters' one wait. Returns the
/// completion with the network cost of the operation — the metrics
/// delta since the injection, the simulated time to the completion and
/// its hop count — or `None` when the network went quiet or the cap
/// passed first. Other completions emitted meanwhile are discarded.
pub fn run_op<N, I>(
    net: &mut SimNet<N>,
    origin: NodeId,
    msg: N::Msg,
    qid: u64,
) -> Option<(OverlayDone<I>, OpCost)>
where
    N: NodeBehavior<Out = OverlayDone<I>>,
{
    let before = net.metrics();
    let start = net.now();
    let deadline = start + RUN_OP_CAP;
    net.inject(origin, msg);
    loop {
        if let Some(pos) = net.outputs().iter().position(|(_, _, done)| done.qid() == qid) {
            let (t, _, done) = net.take_outputs().swap_remove(pos);
            let d = net.metrics().delta(&before);
            let cost = OpCost {
                messages: d.sent,
                bytes: d.bytes,
                latency: t.saturating_sub(start),
                hops: done.hops(),
            };
            return Some((done, cost));
        }
        if net.now() > deadline || !net.step() {
            return None;
        }
    }
}

/// A planned, converged deployment of an overlay: the driver-side view
/// of where every key lives, produced by [`Overlay::plan`] and consumed
/// peer-by-peer through [`Overlay::spawn`].
pub trait OverlayTopology {
    /// Peer indices that should hold `key` in the converged state
    /// (replica group, or the owners of every index the backend keeps
    /// for a key). Drives bulk preloading.
    fn holders(&self, key: Key) -> Vec<usize>;

    /// Number of data partitions (trie leaves, ring arcs, …); feeds the
    /// cost model's selectivity estimates.
    fn partitions(&self) -> usize;

    /// Replication factor of each partition.
    fn replication(&self) -> usize;
}

/// A DHT node usable as UniStore's storage substrate.
///
/// The trait extends [`NodeBehavior`]: an overlay node is hosted on a
/// simulated (or live) node, exchanges its own message type and emits
/// [`OverlayDone`] completions. Backends must keep their timer kinds
/// below 100 — the embedding node reserves kinds ≥ 100 for the query
/// layer.
///
/// `WireMsg` restates the hosting [`NodeBehavior`]'s message type (the
/// supertrait bound pins them equal) so that embedding layers generic
/// over `O: Overlay` get the `Debug + Send` bounds the live threaded
/// runtime needs.
pub trait Overlay:
    NodeBehavior<Msg = <Self as Overlay>::WireMsg, Out = OverlayDone<<Self as Overlay>::Item>>
    + Sized
    + Send
    + 'static
{
    /// The backend's network message type (`== NodeBehavior::Msg`).
    type WireMsg: unistore_util::wire::Wire + Clone + std::fmt::Debug + Send + 'static;
    /// Payload type stored in the overlay.
    type Item: Item;
    /// Backend configuration.
    type Config: Clone + Send + 'static;
    /// Driver-side deployment plan.
    type Topology: OverlayTopology;

    /// Human-readable backend name (experiment output).
    const NAME: &'static str;

    /// Whether [`Overlay::plan`] adapts the topology to the key sample.
    /// Drivers skip the post-load re-plan for backends that ignore it
    /// (an order-destroying hash cannot use a key distribution).
    const ADAPTS_TO_SAMPLE: bool;

    // ---- topology bootstrap -------------------------------------------

    /// Plans a converged `n_peers` deployment. `sample` carries the
    /// expected key distribution for backends that adapt their topology
    /// to the data (P-Grid's balanced trie); others ignore it.
    fn plan(
        n_peers: usize,
        cfg: &Self::Config,
        sample: Option<&[Key]>,
        seed: u64,
    ) -> Self::Topology;

    /// Creates peer `peer` of a planned deployment, routing state wired.
    fn spawn(topology: &Self::Topology, peer: usize, cfg: &Self::Config, seed: u64) -> Self;

    // ---- identity and routing -----------------------------------------

    /// This peer's node id.
    fn id(&self) -> NodeId;

    /// Whether this peer is responsible for `key`'s primary location.
    fn responsible(&self, key: Key) -> bool;

    /// Next hop toward the peer responsible for `key`, or `None` when
    /// the key is local or routing is stuck. Takes the longest step
    /// toward the key the routing state allows, and may spread load
    /// across equally good references. `avoid` — the first hop of an
    /// earlier attempt of the same query — is passed over whenever
    /// another reference can make progress.
    fn next_hop(&mut self, key: Key, avoid: Option<NodeId>) -> Option<NodeId>;

    /// Whether this peer's local store currently holds any entry under
    /// `key` (any index). Observability only: the scale campaign
    /// measures replication *repair lag* as the time from a crashed
    /// replica's revival until every planned holder of a key written
    /// during the outage holds it again.
    fn holds(&self, key: Key) -> bool;

    /// Every peer this node's routing state currently references
    /// (routing-table entries, fingers, successors, replica partners —
    /// deduplicated, self excluded). Observability only: the scale
    /// campaign measures routing-table *staleness* as the fraction of
    /// references pointing at peers that are actually down.
    fn routing_refs(&self) -> Vec<NodeId>;

    /// From this node's *live* view: if it is a primary for `key`, the
    /// full set of peers (itself included) that should eventually hold
    /// an entry written under `key`; empty when this node is not a
    /// primary. Unlike [`OverlayTopology::holders`], which reports the
    /// build-time plan, this tracks runtime drift — path migrations,
    /// re-pointed successors — so the scale campaign can pick partition
    /// victims and check repair convergence against where the data
    /// *actually* lives. The query layer also routes by it: the lowest
    /// id of a statistics shard key's group is that shard's home, so
    /// implementations return the group sorted and deduplicated. It
    /// does not look at liveness; a down member stays listed.
    fn replica_group(&self, key: Key) -> Vec<NodeId>;

    /// Bytes this peer's replica repair has sent so far, by message
    /// kind. Observability only: the scale campaign's `repair_kib`
    /// column is the sum over all peers across the heal phase.
    fn repair_stats(&self) -> repair::RepairStats;

    // ---- local placement and retrieval --------------------------------

    /// Places an entry directly into the local store (driver-side bulk
    /// loading; bypasses the network on purpose). The peer stores the
    /// entry under every index it is responsible for.
    fn preload(&mut self, key: Key, item: Self::Item, version: u64);

    /// Issues a locally originated exact-key lookup; completion surfaces
    /// as an emitted [`OverlayDone::Lookup`]. A `filter` (semi-join
    /// pushdown) ships with the request, and the responsible peer drops
    /// non-matching items before replying.
    fn local_lookup(
        &mut self,
        qid: u64,
        key: Key,
        filter: Option<ItemFilter>,
        fx: &mut Effects<Self::Msg, Self::Out>,
    );

    /// Issues a locally originated range scan over `[lo, hi]`; a
    /// `filter` ships to every peer the scan reaches.
    fn local_range(
        &mut self,
        qid: u64,
        lo: Key,
        hi: Key,
        mode: RangeMode,
        filter: Option<ItemFilter>,
        fx: &mut Effects<Self::Msg, Self::Out>,
    );

    // ---- driver-side routed operations --------------------------------

    /// Message that starts a routed exact-key lookup at the injected
    /// peer.
    fn lookup_msg(cfg: &Self::Config, qid: u64, key: Key, origin: NodeId) -> Self::Msg;

    /// Messages that perform a whole [`OpBatch`] of writes through the
    /// routed protocol path — the one write constructor: the batch rides
    /// coalesced wire messages, grouped by next hop at the origin and
    /// re-split at each routing step, and its completion surfaces as one
    /// [`OverlayDone::Batch`] per returned correlation id. An empty
    /// batch yields no messages.
    fn batch_msgs(
        cfg: &Self::Config,
        next_qid: &mut dyn FnMut() -> u64,
        batch: &OpBatch<Self::Item>,
        origin: NodeId,
    ) -> Vec<(u64, Self::Msg)>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn done_accessors() {
        let d: OverlayDone<u32> =
            OverlayDone::Lookup { qid: 7, items: vec![1, 2], hops: 3, ok: true };
        assert_eq!(d.qid(), 7);
        assert_eq!(d.hops(), 3);
        assert_eq!(d.items(), Some(&[1u32, 2][..]));
        assert!(d.ok());

        let d: OverlayDone<u32> = OverlayDone::Batch { qid: 9, ops: 0, hops: 1, ok: false };
        assert_eq!(d.qid(), 9);
        assert!(d.items().is_none());
        assert!(!d.ok());

        let d: OverlayDone<u32> =
            OverlayDone::Range { qid: 4, items: vec![], hops: 0, complete: true, parts: 2 };
        assert!(d.ok());
        assert_eq!(d.items(), Some(&[][..]));
    }
}
