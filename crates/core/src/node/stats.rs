//! The statistics plane of a node (DESIGN.md § Statistics
//! distribution): its snapshot, a write origin's planning view, the
//! outbox of deltas waiting for the next tick, the snapshot epoch, and
//! the binomial span tree the flush fans out along.

use super::*;

impl<O: Overlay<Item = Triple>> UniNode<O> {
    /// The planning view: the statistics snapshot plus, at a write
    /// origin between two stats ticks, its own unflushed writes. `None`
    /// before the first load.
    pub fn cost_model(&self) -> Option<&Arc<CostModel>> {
        self.view.as_ref().or(self.stats.as_ref())
    }

    /// Folds a disseminated statistics delta into this node's snapshot
    /// (and planning view) — O(delta), and no copy at all when a peer
    /// holding the same snapshot folded the same delta object first. A
    /// node that has no model yet (pre-load) skips the fold: it will
    /// receive a full snapshot at load time.
    pub(crate) fn apply_stats_delta(&mut self, delta: &StatsDelta) {
        for model in [&mut self.stats, &mut self.view].into_iter().flatten() {
            CostModel::apply_shared(model, delta);
        }
    }

    /// Folds a write this node originated into its planning view only:
    /// the snapshot takes it with the tick's flush, as every receiver
    /// does. An unshared snapshot is its own view and folds it now.
    fn apply_own_write(&mut self, delta: &StatsDelta) {
        let Some(stats) = self.stats.as_mut() else { return };
        if self.view.is_none() && Arc::strong_count(stats) > 1 {
            self.view = Some(stats.clone());
        }
        CostModel::apply_shared(self.view.as_mut().unwrap_or(stats), delta);
    }

    /// Installs a freshly rebuilt snapshot: adopts its epoch and
    /// discards buffered deltas (the rebuild already counted their
    /// writes). Deltas from earlier epochs still in flight are dropped
    /// on receipt by the epoch gate.
    pub(crate) fn reset_stats(&mut self, model: Arc<CostModel>, epoch: u64) {
        self.stats = Some(model);
        self.view = None;
        self.stats_epoch = epoch;
        self.stats_outbox = StatsDelta::new();
        // A full rebuild may have replaced any row wholesale.
        self.cache.clear();
    }

    /// Receives a statistics delta: from a write origin (`from` is
    /// [`NodeId::EXTERNAL`]) or from its parent in the span tree.
    pub(super) fn on_stats_delta(
        &mut self,
        from: NodeId,
        epoch: u64,
        span: u32,
        delta: &Shared<StatsDelta>,
        fx: &mut UniFx<O::Msg>,
    ) {
        // Cache invalidation runs before the epoch gate: a write notice
        // names (attr, value) pairs whose cached rows may be stale in
        // any epoch.
        self.invalidate_cached(delta.get());
        // Relay duty comes before the epoch gate too: the tree forwards
        // the *message's* epoch regardless of this node's own, so a
        // node mid-rebuild still carries its subtree (the leaves gate
        // for themselves).
        if from != NodeId::EXTERNAL && span > 1 {
            self.fanout_stats_delta(epoch, span, delta, fx);
        }
        // Stale generation: a full rebuild already folded these writes
        // into the snapshot this node received.
        if epoch != self.stats_epoch {
            return;
        }
        // Write origins hand the driver's delta to one node (span 0);
        // that node plans on it at once and disseminates it to the rest
        // on its next stats tick. Tree deltas stop at their span.
        if from == NodeId::EXTERNAL {
            self.apply_own_write(delta.get());
            self.stats_outbox.merge(delta.get().clone());
        } else {
            self.apply_stats_delta(delta.get());
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

    /// Flushes the buffered stat deltas through the binomial broadcast
    /// tree (DESIGN.md §"Scale and churn"). The origin covers the whole
    /// ring (`span = n_peers`), so the flush costs O(log n) sends here
    /// and O(log n) per relay instead of the old n − 1 direct sends; the
    /// payload is encoded once into a [`Shared`] buffer and every send
    /// along the tree clones the bytes, not the encoding work. Matched
    /// insert/delete pairs accumulated within the tick cancel before
    /// encoding.
    ///
    /// An origin that planned on a private view drops it and folds the
    /// flushed delta into its snapshot *before* the fan-out, so it ends
    /// the tick holding what its receivers will, and memoizes the fold
    /// on the one delta object they all receive.
    pub(super) fn flush_stats_outbox(&mut self, fx: &mut UniFx<O::Msg>) {
        let planned_on_view = self.view.take().is_some();
        let mut delta = std::mem::take(&mut self.stats_outbox);
        delta.compact();
        if delta.is_empty() {
            return;
        }
        let delta = Shared::new(delta);
        if planned_on_view {
            self.apply_stats_delta(delta.get());
        }
        let span = self.n_peers as u32;
        self.fanout_stats_delta(self.stats_epoch, span, &delta, fx);
    }

    /// Sends the broadcast-tree children of a node covering `span`
    /// consecutive peers (itself plus the `span − 1` following it,
    /// ring-ordered by node id): one message per power-of-two offset
    /// `2^i < span`, each child covering the half-open id interval up to
    /// the next offset. Every peer in the span receives the delta
    /// exactly once on a loss-free network, after at most ⌈log₂ span⌉
    /// hops.
    fn fanout_stats_delta(
        &self,
        epoch: u64,
        span: u32,
        delta: &Shared<StatsDelta>,
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
                UniMsg::Query(QueryMsg::StatsDelta {
                    epoch,
                    span: child_span as u32,
                    delta: delta.clone(),
                }),
            );
            off <<= 1;
        }
    }
}
