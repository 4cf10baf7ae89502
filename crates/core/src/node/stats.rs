//! The statistics plane of a node (DESIGN.md § Statistics
//! distribution): its snapshot, a write origin's planning view, the
//! outbox of deltas waiting for the next tick, the flush whose notice
//! waits on its OID pieces' acks, the OID shards the node is home of,
//! and the binomial span tree the notice fans out along.

use super::*;
use crate::stats::{oid_shard_home, oid_shard_key};

/// A flush whose OID pieces are out: its notice waits for the shard
/// homes' acks until the last one is in or the ack wait runs out.
pub(super) struct Flush {
    /// The flush's number, carried by its pieces and echoed by the acks.
    seq: u64,
    /// Shards whose ack is still out, one bit each.
    waiting: u8,
    /// The notice, until it is sent.
    notice: Option<StatsNotice>,
}

impl<O: Overlay<Item = Triple>> UniNode<O> {
    /// The planning view: the statistics snapshot plus, at a write
    /// origin between two flushes, its own unflushed writes. `None`
    /// before the first load.
    pub fn cost_model(&self) -> Option<&Arc<CostModel>> {
        self.view.as_ref().or(self.stats.as_ref())
    }

    /// The slices of the distinct-OID map this node holds as a shard
    /// home, by shard (empty where it is not the home).
    pub fn oid_shards(&self) -> &[OidCounts] {
        &self.oid_shards
    }

    /// Folds a statistics flush notice into this node's snapshot (and
    /// planning view) — O(groups), and no copy at all when a peer
    /// holding the same snapshot folded the same notice object first. A
    /// node that has no model yet (pre-load) skips the fold: it will
    /// receive a full snapshot at load time.
    pub(crate) fn apply_stats_notice(&mut self, notice: &StatsNotice) {
        for model in [&mut self.stats, &mut self.view].into_iter().flatten() {
            CostModel::apply_shared_notice(model, notice);
        }
    }

    /// Folds a write this node originated into its planning view only:
    /// the snapshot takes it with the flush's notice, as every receiver
    /// does. The view keeps the snapshot's `oid_distinct`, which moves
    /// with the notice.
    fn apply_own_write(&mut self, delta: &StatsDelta) {
        let Some(stats) = &self.stats else { return };
        CostModel::apply_shared(self.view.get_or_insert_with(|| stats.clone()), delta);
    }

    /// Installs a freshly rebuilt snapshot: adopts its epoch and
    /// discards buffered deltas, the flush in progress and the OID
    /// shards (the rebuild already counted their writes, and the driver
    /// installs the rebuilt shards at their homes). Deltas, notices,
    /// pieces and acks from earlier epochs still in flight are dropped
    /// on receipt by the epoch gate.
    pub(crate) fn reset_stats(&mut self, model: Arc<CostModel>, epoch: u64) {
        self.stats = Some(model);
        self.view = None;
        self.stats_epoch = epoch;
        self.stats_outbox = StatsDelta::new();
        self.flush = None;
        self.late_oids = 0;
        self.oid_shards = Default::default();
        // A full rebuild may have replaced any row wholesale.
        self.cache.clear();
    }

    /// Makes this node the home of `shard`, holding `counts`.
    pub(crate) fn install_oid_shard(&mut self, shard: u8, counts: OidCounts) {
        if let Some(slot) = self.oid_shards.get_mut(shard as usize) {
            *slot = counts;
        }
    }

    /// Receives a statistics delta from the driver: the node originated
    /// the writes, plans on them at once and buffers them for its next
    /// stats tick.
    pub(super) fn on_stats_delta(&mut self, epoch: u64, delta: &Shared<StatsDelta>) {
        // Cache invalidation runs before the epoch gate: a write notice
        // names (attr, value) pairs whose cached rows may be stale in
        // any epoch.
        self.invalidate_cached(delta.get().pairs());
        // Stale generation: a full rebuild already folded these writes
        // into the snapshot this node received.
        if epoch != self.stats_epoch {
            return;
        }
        self.apply_own_write(delta.get());
        self.stats_outbox.merge(delta.get().clone());
    }

    /// Receives a flush notice from its parent in the span tree.
    pub(super) fn on_stats_notice(
        &mut self,
        epoch: u64,
        span: u32,
        notice: &Shared<StatsNotice>,
        fx: &mut UniFx<O::Msg>,
    ) {
        self.invalidate_cached(notice.get().pairs());
        // Relay duty comes before the epoch gate too: the tree forwards
        // the *message's* epoch regardless of this node's own, so a
        // node mid-rebuild still carries its subtree (the leaves gate
        // for themselves).
        if span > 1 {
            self.fanout_notice(epoch, span, notice, fx);
        }
        if epoch == self.stats_epoch {
            self.apply_stats_notice(notice.get());
        }
    }

    /// A summary of the planning view, answering a
    /// [`QueryMsg::StatsProbe`].
    pub(super) fn stats_probe(&self, qid: u64) -> UniEvent {
        let (total, attrs) = match self.cost_model() {
            Some(model) => {
                let mut attrs: Vec<_> =
                    model.stats.attrs.iter().map(|(k, a)| (k.clone(), a.count)).collect();
                // Hash-map iteration order must not reach an emitted
                // event: sort by attribute name so the probe output is
                // identical across runs.
                attrs.sort_by(|a, b| a.0.cmp(&b.0));
                (model.stats.total, attrs)
            }
            None => (0.0, Vec::new()),
        };
        UniEvent::Stats { qid, total, attrs }
    }

    /// The stats tick: splits the buffered deltas — matched
    /// insert/delete pairs cancelled first — into a notice for every
    /// peer and one [`OidPiece`] per OID shard they touch, and routes
    /// the pieces to their homes. The notice goes down the broadcast
    /// tree once every home has acked, or when the ack wait (half a
    /// tick) runs out; acks later than that ride the next notice.
    pub(super) fn flush_stats_outbox(&mut self, fx: &mut UniFx<O::Msg>) {
        // A flush still waiting here lost its ack-wait timer to a crash.
        self.send_notice(fx);
        let mut delta = std::mem::take(&mut self.stats_outbox);
        delta.compact();
        let Some(stats) = &self.stats else { return };
        if delta.is_empty() && self.late_oids == 0 {
            self.view = None;
            return;
        }
        let (mut notice, pieces) = StatsNotice::split(&delta, &stats.stats);
        notice.add_oid_delta(std::mem::take(&mut self.late_oids));
        self.flush_seq += 1;
        let seq = self.flush_seq;
        let waiting = pieces.iter().fold(0, |w, p| w | 1 << p.shard);
        self.flush = Some(Flush { seq, waiting, notice: Some(notice) });
        if pieces.is_empty() {
            return self.send_notice(fx);
        }
        let wait = SimTime::from_micros(self.stats_refresh.as_micros() / 2);
        fx.set_timer(wait, Timer::new(STATS_ACK_WAIT, seq));
        let (epoch, me) = (self.stats_epoch, self.id());
        for piece in pieces {
            self.on_oid_piece(epoch, me, seq, false, piece, fx);
        }
    }

    /// The ack wait of flush `seq` ran out: its notice goes with the
    /// acks it has.
    pub(super) fn on_ack_wait(&mut self, seq: u64, fx: &mut UniFx<O::Msg>) {
        if self.flush.as_ref().is_some_and(|f| f.seq == seq) {
            self.send_notice(fx);
        }
    }

    /// Sends the waiting notice down the broadcast tree. The node folds
    /// it into its own snapshot first, so it ends the flush holding
    /// what its receivers will, and memoizes the fold on the one notice
    /// object they all receive; its planning view is re-derived from
    /// the writes buffered since the tick.
    fn send_notice(&mut self, fx: &mut UniFx<O::Msg>) {
        let Some(notice) = self.flush.as_mut().and_then(|f| f.notice.take()) else { return };
        self.view = None;
        if !notice.is_empty() {
            self.notices_sent += 1;
            self.oid_delta_sent = self.oid_delta_sent.saturating_add(notice.oid_delta());
            let notice = Shared::new(notice);
            if let Some(stats) = &mut self.stats {
                CostModel::apply_shared_notice(stats, notice.get());
            }
            self.fanout_notice(self.stats_epoch, self.n_peers as u32, &notice, fx);
        }
        if let (Some(stats), false) = (&self.stats, self.stats_outbox.is_empty()) {
            let mut view = stats.clone();
            CostModel::apply_shared(&mut view, &self.stats_outbox);
            self.view = Some(view);
        }
    }

    /// Receives an OID piece: routes it toward its shard's key until a
    /// member of the key's replica group has it, which hands it to the
    /// group's lowest id, the shard's home. The home folds it into its
    /// slice of the map and acks the origin with the change of the
    /// slice's distinct count.
    pub(super) fn on_oid_piece(
        &mut self,
        epoch: u64,
        origin: NodeId,
        flush: u64,
        at_home: bool,
        piece: OidPiece,
        fx: &mut UniFx<O::Msg>,
    ) {
        if !at_home {
            let key = oid_shard_key(piece.shard);
            let next = match self.overlay.responsible(key) {
                true => oid_shard_home(&self.overlay, key)
                    .filter(|&h| h != self.id())
                    .map(|h| (h, true)),
                // A routing hole loses the piece; the ack wait covers it.
                false => match self.overlay.next_hop(key, None) {
                    Some(hop) => Some((hop, false)),
                    None => return,
                },
            };
            if let Some((to, at_home)) = next {
                let msg = QueryMsg::OidPiece { epoch, origin, flush, at_home, piece };
                return fx.send(to, UniMsg::Query(msg));
            }
        }
        if epoch != self.stats_epoch {
            return;
        }
        let (shard, delta) = (piece.shard, self.fold_oid_piece(&piece));
        match origin == self.id() {
            true => self.on_oid_ack(epoch, flush, shard, delta, fx),
            false => {
                fx.send(origin, UniMsg::Query(QueryMsg::OidAck { epoch, flush, shard, delta }))
            }
        }
    }

    /// Folds a piece into this node's slice of its shard, returning the
    /// change of the slice's distinct count.
    pub(crate) fn fold_oid_piece(&mut self, piece: &OidPiece) -> i64 {
        match self.oid_shards.get_mut(piece.shard as usize) {
            Some(slice) => slice.apply(&piece.entries),
            None => 0,
        }
    }

    /// Receives a shard home's ack: its change joins the waiting notice
    /// and, with the last one in, the notice goes. An ack for a notice
    /// already sent joins the next one.
    pub(super) fn on_oid_ack(
        &mut self,
        epoch: u64,
        flush: u64,
        shard: u8,
        delta: i64,
        fx: &mut UniFx<O::Msg>,
    ) {
        let Some(f) = self.flush.as_mut().filter(|_| epoch == self.stats_epoch) else { return };
        let bit = 1u8.checked_shl(shard as u32).unwrap_or(0);
        if flush == f.seq && f.waiting & bit != 0 {
            f.waiting &= !bit;
            match f.notice.as_mut() {
                Some(notice) => notice.add_oid_delta(delta),
                None => self.late_oids = self.late_oids.saturating_add(delta),
            }
            if f.waiting == 0 {
                self.send_notice(fx);
            }
        } else if flush < f.seq {
            self.late_oids = self.late_oids.saturating_add(delta);
        }
    }

    /// Sends the broadcast-tree children of a node covering `span`
    /// consecutive peers (itself plus the `span − 1` following it,
    /// ring-ordered by node id): one message per power-of-two offset
    /// `2^i < span`, each child covering the half-open id interval up to
    /// the next offset. Every peer in the span receives the notice
    /// exactly once on a loss-free network, after at most ⌈log₂ span⌉
    /// hops; the payload is encoded once into a [`Shared`] buffer that
    /// every send clones.
    fn fanout_notice(
        &self,
        epoch: u64,
        span: u32,
        notice: &Shared<StatsNotice>,
        fx: &mut UniFx<O::Msg>,
    ) {
        let n = self.n_peers as u64;
        let me = self.id().0 as u64;
        let mut off = 1u64;
        while off < span as u64 {
            let child_span = (span as u64).min(off << 1) - off;
            let to = NodeId(((me + off) % n) as u32);
            fx.send(
                to,
                UniMsg::Query(QueryMsg::StatsNotice {
                    epoch,
                    span: child_span as u32,
                    notice: notice.clone(),
                }),
            );
            off <<= 1;
        }
    }
}
