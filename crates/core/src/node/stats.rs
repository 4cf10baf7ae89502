//! The statistics plane of a node (DESIGN.md § Statistics
//! distribution): its snapshot, a write origin's planning view, the
//! outbox of deltas waiting for the next tick, the flush whose notice
//! waits on its shard homes' acks, the shards the node is home of, and
//! the binomial span tree the notice fans out along.

use super::*;
use crate::stats::{stats_shard_home, stats_shard_key};

/// A flush on its way through the shard homes: the round whose pieces
/// are out, the summaries their acks published so far, and — for a
/// flush with deletes, until the attribute homes have settled them —
/// the delta whose OID and value changes are still to go.
pub(super) struct Flush {
    /// The round's number, carried by its pieces and echoed by the acks.
    seq: u64,
    /// Shards whose ack is still out, one bit each.
    waiting: u8,
    /// The published summaries, until the notice is sent.
    notice: Option<StatsNotice>,
    /// A flush in its first round of two (see [`StatsFlush`]).
    settling: Option<StatsFlush>,
}

impl<O: Overlay<Item = Triple>> UniNode<O> {
    /// The planning view: the statistics snapshot plus, at a write
    /// origin between two flushes, its own unflushed writes. `None`
    /// before the first load.
    pub fn cost_model(&self) -> Option<&Arc<CostModel>> {
        self.view.as_ref().or(self.stats.as_ref())
    }

    /// The statistics shards this node is home of, by shard (`None`
    /// where it is not the home).
    pub fn stats_homes(&self) -> &[Option<StatsHome>] {
        &self.homes
    }

    /// Installs what a flush notice publishes in this node's snapshot.
    /// A node that has no model yet (pre-load) skips it: it will
    /// receive a full snapshot at load time. The planning view is
    /// re-derived from the snapshot at the node's own next flush.
    pub(crate) fn install_stats_notice(&mut self, notice: &StatsNotice) {
        if let Some(stats) = &mut self.stats {
            Arc::make_mut(stats).install(notice);
        }
    }

    /// Folds a write this node originated into its planning view only:
    /// the homes take it with the flush, and the snapshot with what
    /// they publish.
    fn apply_own_write(&mut self, delta: &StatsDelta) {
        let Some(stats) = &self.stats else { return };
        Arc::make_mut(self.view.get_or_insert_with(|| stats.clone())).apply_delta(delta);
    }

    /// Installs a freshly rebuilt snapshot: adopts its epoch and
    /// discards buffered deltas, the flush in progress and the shards
    /// (the rebuild already counted their writes, and the driver
    /// installs the rebuilt shards at their homes). Deltas, notices,
    /// pieces and acks from earlier epochs still in flight are dropped
    /// on receipt by the epoch gate.
    pub(crate) fn reset_stats(&mut self, model: Arc<CostModel>, epoch: u64) {
        self.stats = Some(model);
        self.view = None;
        self.stats_epoch = epoch;
        self.stats_outbox = StatsDelta::new();
        self.flush = None;
        self.late = StatsNotice::default();
        self.homes = Default::default();
        // A full rebuild may have replaced any row wholesale.
        self.cache.clear();
    }

    /// Makes this node the home of `home`'s shard.
    pub(crate) fn install_stats_home(&mut self, home: StatsHome) {
        if let Some(slot) = self.homes.get_mut(home.shard() as usize) {
            *slot = Some(home);
        }
    }

    /// Receives a statistics delta from the driver: the node originated
    /// the writes, plans on them at once and buffers them for its next
    /// stats tick.
    pub(super) fn on_stats_delta(&mut self, epoch: u64, delta: &Shared<StatsDelta>) {
        // Cache invalidation runs before the epoch gate: a write names
        // (attr, value) pairs whose cached rows may be stale in any
        // epoch.
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
        // Relay duty comes before the epoch gate: the tree forwards the
        // *message's* epoch regardless of this node's own, so a node
        // mid-rebuild still carries its subtree (the leaves gate for
        // themselves).
        if span > 1 {
            self.fanout_notice(epoch, span, notice, fx);
        }
        if epoch == self.stats_epoch {
            self.install_stats_notice(notice.get());
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

    /// The stats tick: compacts the buffered deltas — matched
    /// insert/delete pairs cancelled first — and sends each shard home
    /// its piece (a flush with deletes in two rounds, see
    /// [`StatsFlush`]). Once every home has acked, or the ack wait runs
    /// out, what the acks published goes down the broadcast tree; acks
    /// later than that ride the next notice.
    pub(super) fn flush_stats_outbox(&mut self, fx: &mut UniFx<O::Msg>) {
        // A flush still waiting here lost its ack-wait timer to a
        // crash, or its second round outlived the tick.
        self.send_notice(fx);
        let mut delta = std::mem::take(&mut self.stats_outbox);
        delta.compact();
        if self.stats.is_none() {
            return;
        }
        if delta.is_empty() && self.late.is_empty() {
            self.view = None;
            return;
        }
        let flush = StatsFlush::new(delta);
        let pieces = flush.first_pieces();
        let notice = std::mem::take(&mut self.late);
        self.start_round(notice, flush.has_deletes().then_some(flush), pieces, fx);
    }

    /// Sends a round's pieces to their homes and waits for the acks:
    /// a quarter tick for each of a two-round flush's rounds, half a
    /// tick for a one-round flush.
    fn start_round(
        &mut self,
        notice: StatsNotice,
        settling: Option<StatsFlush>,
        pieces: Vec<StatsPiece>,
        fx: &mut UniFx<O::Msg>,
    ) {
        self.flush_seq += 1;
        let seq = self.flush_seq;
        let waiting = pieces.iter().fold(0, |w, p| w | 1 << p.shard);
        let two_rounds = settling.is_some();
        self.flush = Some(Flush { seq, waiting, notice: Some(notice), settling });
        if pieces.is_empty() {
            return self.end_round(fx);
        }
        let wait = self.stats_refresh.as_micros() / if two_rounds { 4 } else { 2 };
        fx.set_timer(SimTime::from_micros(wait), Timer::new(STATS_ACK_WAIT, seq));
        let (epoch, me) = (self.stats_epoch, self.id());
        for piece in pieces {
            self.on_stats_piece(epoch, me, seq, false, piece, fx);
        }
    }

    /// A round is over — every ack is in, or its wait ran out. A flush
    /// that was settling its deletes sends its OID and value pieces; any
    /// other sends its notice.
    fn end_round(&mut self, fx: &mut UniFx<O::Msg>) {
        let Some(f) = self.flush.as_mut() else { return };
        match f.settling.take() {
            Some(flush) => {
                let notice = f.notice.take().unwrap_or_default();
                self.start_round(notice, None, flush.object_pieces(), fx);
            }
            None => self.send_notice(fx),
        }
    }

    /// The ack wait of round `seq` ran out.
    pub(super) fn on_ack_wait(&mut self, seq: u64, fx: &mut UniFx<O::Msg>) {
        if self.flush.as_ref().is_some_and(|f| f.seq == seq) {
            self.end_round(fx);
        }
    }

    /// Sends the waiting notice down the broadcast tree, when the homes
    /// published anything. The node installs it first, so it ends the
    /// flush holding what its receivers will; its planning view is
    /// re-derived from the writes buffered since the tick.
    fn send_notice(&mut self, fx: &mut UniFx<O::Msg>) {
        let Some(f) = self.flush.as_mut() else { return };
        // A second round that never started is given up.
        f.settling = None;
        let Some(notice) = f.notice.take() else { return };
        self.view = None;
        if !notice.is_empty() {
            self.notices_sent += 1;
            let notice = Shared::new(notice);
            self.install_stats_notice(notice.get());
            self.fanout_notice(self.stats_epoch, self.n_peers as u32, &notice, fx);
            self.last_notice = Some(notice);
        }
        if let (Some(stats), false) = (&self.stats, self.stats_outbox.is_empty()) {
            let mut view = stats.clone();
            Arc::make_mut(&mut view).apply_delta(&self.stats_outbox);
            self.view = Some(view);
        }
    }

    /// Receives a statistics piece: routes it toward its shard's key
    /// until a member of the key's replica group has it, which hands it
    /// to the group's lowest id, the shard's home. The home folds it
    /// and acks the origin with what it took and what it publishes. A
    /// node that is not installed as the shard's home drops the piece.
    pub(super) fn on_stats_piece(
        &mut self,
        epoch: u64,
        origin: NodeId,
        flush: u64,
        at_home: bool,
        piece: StatsPiece,
        fx: &mut UniFx<O::Msg>,
    ) {
        if !at_home {
            let key = stats_shard_key(piece.shard);
            let next = match self.overlay.responsible(key) {
                true => stats_shard_home(&self.overlay, key)
                    .filter(|&h| h != self.id())
                    .map(|h| (h, true)),
                // A routing hole loses the piece; the ack wait covers it.
                false => match self.overlay.next_hop(key, None) {
                    Some(hop) => Some((hop, false)),
                    None => return,
                },
            };
            if let Some((to, at_home)) = next {
                let msg = QueryMsg::StatsPiece { epoch, origin, flush, at_home, piece };
                return fx.send(to, UniMsg::Query(msg));
            }
        }
        if epoch != self.stats_epoch {
            return;
        }
        let shard = piece.shard;
        let Some((taken, published)) = self.fold_stats_piece(&piece) else { return };
        match origin == self.id() {
            true => self.on_stats_ack(epoch, flush, shard, &taken, published, fx),
            false => fx.send(
                origin,
                UniMsg::Query(QueryMsg::StatsAck { epoch, flush, shard, taken, published }),
            ),
        }
    }

    /// Folds a piece into the shard this node is home of: what the home
    /// took of each delete group and what it publishes. `None` where
    /// the node is not the shard's home.
    pub(crate) fn fold_stats_piece(
        &mut self,
        piece: &StatsPiece,
    ) -> Option<(Vec<u32>, StatsNotice)> {
        let home = self.homes.get_mut(piece.shard as usize)?.as_mut()?;
        Some(home.fold(piece, self.stats_epsilon))
    }

    /// Receives a shard home's ack: its settlement goes to a flush that
    /// is settling its deletes, its summaries join the waiting notice,
    /// and with the round's last ack in the flush goes on. Summaries of
    /// an ack for a notice already sent join the next one.
    pub(super) fn on_stats_ack(
        &mut self,
        epoch: u64,
        flush: u64,
        shard: u8,
        taken: &[u32],
        published: StatsNotice,
        fx: &mut UniFx<O::Msg>,
    ) {
        if epoch != self.stats_epoch {
            return;
        }
        let Some(f) = self.flush.as_mut() else { return self.late.merge(published) };
        let bit = 1u8.checked_shl(shard as u32).unwrap_or(0);
        if flush != f.seq || f.waiting & bit == 0 {
            return self.late.merge(published);
        }
        f.waiting &= !bit;
        if let Some(settling) = f.settling.as_mut() {
            settling.settle(shard, taken);
        }
        match f.notice.as_mut() {
            Some(notice) => notice.merge(published),
            None => self.late.merge(published),
        }
        if f.waiting == 0 {
            self.end_round(fx);
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
