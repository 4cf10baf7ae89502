//! Plan execution: a mutant plan's next step at this node. A scan issues
//! locally originated overlay operations and suspends the plan until
//! their completions surface; a plan whose next leaf is anchored at a
//! remote key travels toward the responsible peer instead.

use super::*;

/// Mutant plans above this encoded size stop travelling and pull data
/// instead (shipping megabytes of partial results is worse than a few
/// extra lookups).
const FORWARD_BYTE_CAP: usize = 64 * 1024;

/// Bounded FIFO cache of exact-match lookup results, keyed by the
/// (attr, value) index key. An entry expires one stats tick after it
/// was filled, and a [`StatsDelta`] the node originated drops the
/// entries its writes name at once — regardless of epoch — so a cached
/// row outlives a write that changed it by at most a tick (DESIGN.md
/// §"Concurrent query pipeline").
pub(super) struct ResultCache {
    cap: usize,
    /// How long an entry stays fresh.
    ttl: SimTime,
    /// Rows and the time they were filled.
    map: FxHashMap<Key, (SimTime, Vec<Triple>)>,
    order: VecDeque<Key>,
}

impl ResultCache {
    pub(super) fn new(cap: usize, ttl: SimTime) -> Self {
        ResultCache { cap, ttl, map: FxHashMap::default(), order: VecDeque::new() }
    }

    /// The rows cached under `key`, unless they expired by `now`
    /// (an expired entry is dropped).
    fn fresh(&mut self, key: Key, now: SimTime) -> Option<&[Triple]> {
        let filled = self.map.get(&key)?.0;
        if filled + self.ttl <= now {
            self.invalidate(key);
            return None;
        }
        self.map.get(&key).map(|(_, rows)| rows.as_slice())
    }

    fn put(&mut self, key: Key, now: SimTime, rows: Vec<Triple>) {
        if self.cap == 0 || self.map.contains_key(&key) {
            return;
        }
        if self.map.len() >= self.cap {
            if let Some(old) = self.order.pop_front() {
                self.map.remove(&old);
            }
        }
        self.order.push_back(key);
        self.map.insert(key, (now, rows));
    }

    fn invalidate(&mut self, key: Key) {
        if self.map.remove(&key).is_some() {
            self.order.retain(|k| *k != key);
        }
    }

    pub(super) fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }
}

/// A plan suspended on the storage ops of one scan — or of a fetch
/// join, which is a scan of exact-key lookups with no filter, no q-gram
/// and no cache key.
pub(super) struct Wait {
    mqp: Mqp,
    pattern: TriplePattern,
    outstanding: usize,
    triples: Vec<Triple>,
    /// The round a q-gram similarity scan is in.
    qgram: Option<QGramRound>,
    max_hops: u32,
    /// Key to cache the collected rows under when the scan was a
    /// single remote exact-match lookup. Cleared if any completion
    /// fails or an invalidation for the key races the scan.
    cache_key: Option<Key>,
    /// Storage ops this wait issued over the network, over both rounds
    /// of a q-gram scan (coverage denominator; cache-resolved lookups
    /// never leave the node and are vacuously complete).
    issued: u32,
    /// Ops that came back failed or partial (`!done.ok()`) — the
    /// coverage shortfall of this scan.
    failed: u32,
}

/// A q-gram similarity scan is two routed rounds. The q-gram keys hold
/// postings, one per distinct `(attr, value)`, not rows: round 1 looks
/// the target's grams up and collects postings; the plan holder keeps
/// each distinct value that passes the count filter and lies within
/// edit distance `k`; round 2 looks each survivor up under its A#v key
/// and keeps the rows of exactly those values. A posting is a hint: one
/// left behind by a delete or an update finds no row in round 2.
enum QGramRound {
    /// Round 1 is out. The semi-join filter waits for round 2: it tests
    /// rows, and a posting is not one.
    Postings { target: String, k: usize, filter: Option<ItemFilter> },
    /// Round 2 is out, for the rows of these values.
    Rows(Vec<(Arc<str>, Value)>),
}

impl Wait {
    fn new(mqp: Mqp, pattern: TriplePattern) -> Self {
        Wait {
            mqp,
            pattern,
            outstanding: 0,
            triples: Vec::new(),
            qgram: None,
            max_hops: 0,
            cache_key: None,
            issued: 0,
            failed: 0,
        }
    }
}

/// One storage op of a scan.
enum Op {
    Lookup(Key),
    Range(Key, Key, RangeMode),
}

impl<O: Overlay<Item = Triple>> UniNode<O> {
    pub(super) fn on_overlay_event(&mut self, done: OverlayDone<Triple>, fx: &mut UniFx<O::Msg>) {
        let qid = done.qid();
        let Some(query_qid) = self.waiting.remove(&qid) else {
            // Driver-issued raw storage op: surface it. An executor op
            // nobody waits for belonged to a purged attempt, and its
            // late completion has no reader anywhere.
            if qid & EXEC_QID == 0 {
                fx.emit(UniEvent::Storage(done));
            }
            return;
        };
        let Some(wait) = self.active.get_mut(&query_qid) else { return };
        if let Some(items) = done.items() {
            wait.triples.extend(items.iter().cloned());
        }
        if !done.ok() {
            // A failed or partial completion must not be cached as the
            // key's full row set — and it is a coverage shortfall the
            // origin must hear about.
            wait.cache_key = None;
            wait.failed += 1;
        }
        wait.max_hops = wait.max_hops.max(done.hops());
        wait.outstanding -= 1;
        if wait.outstanding == 0 {
            if let Some(wait) = self.active.remove(&query_qid) {
                self.finish_wait(wait, fx);
            }
        }
    }

    fn finish_wait(&mut self, mut wait: Wait, fx: &mut UniFx<O::Msg>) {
        match wait.qgram.take() {
            Some(QGramRound::Postings { target, k, filter }) => {
                return self.fetch_similar(wait, &target, k, filter, fx)
            }
            round => wait.qgram = round,
        }
        let Wait {
            mut mqp, pattern, mut triples, qgram, max_hops, cache_key, issued, failed, ..
        } = wait;
        // Dedup triples that arrived through several index entries or
        // replicas.
        let mut seen: FxHashSet<(u64, u64)> = FxHashSet::default();
        triples.retain(|t| seen.insert((unistore_util::item::Item::ident(t), t.value.key_bits())));
        // A single remote exact-match lookup that completed cleanly
        // primes the local result cache for subsequent point queries.
        if let Some(key) = cache_key {
            self.cache.put(key, self.clock, triples.clone());
        }
        // An A#v key holds every value sharing its truncated prefix:
        // keep the rows of the similar values only.
        if let Some(QGramRound::Rows(values)) = &qgram {
            triples.retain(|t| values.iter().any(|(a, v)| *a == t.attr && v.eq_values(&t.value)));
        }
        let rel = bind_triples(&pattern, &triples, &self.mappings);
        mqp.root.resolve_first_scan(rel);
        mqp.hops += max_hops;
        // Fold this scan's per-op acks into the plan's completeness
        // accounting (a shortfall marks the result as partial).
        mqp.coverage.record_scan(issued.saturating_sub(failed), issued);
        self.continue_plan(mqp, None, fx);
    }

    /// Ends round 1 of a q-gram scan: filters the distinct values the
    /// postings name, once each, and issues round 2 — one A#v lookup per
    /// surviving key, carrying the semi-join filter — through the same
    /// wait.
    fn fetch_similar(
        &mut self,
        mut wait: Wait,
        target: &str,
        k: usize,
        filter: Option<ItemFilter>,
        fx: &mut UniFx<O::Msg>,
    ) {
        let postings = std::mem::take(&mut wait.triples);
        let mut values: Vec<(Arc<str>, Value)> = Vec::new();
        let mut seen: FxHashSet<(&str, &str)> = FxHashSet::default();
        for p in &postings {
            let Some(s) = p.value.as_str() else { continue };
            if seen.insert((&p.attr, s))
                && qgram::passes_count_filter(s, target, k)
                && qgram::edit_distance(s, target) <= k
            {
                values.push((p.attr.clone(), p.value.clone()));
            }
        }
        let mut keys: Vec<Key> = values.iter().map(|(a, v)| idx::attr_value_key(a, v)).collect();
        keys.sort_unstable();
        keys.dedup();
        wait.mqp.hops += std::mem::take(&mut wait.max_hops);
        wait.qgram = Some(QGramRound::Rows(values));
        self.issue(wait, keys.into_iter().map(Op::Lookup).collect(), filter, fx);
    }

    /// Runs the next step of a plan at this node: reduce, finish, fetch
    /// join, forward, or scan. A plan forwarded from here goes around
    /// `avoid` (a retry's or hedge's previous first hop) when it can,
    /// and at the origin the hop it leaves through is recorded as its
    /// attempt's first hop.
    pub(super) fn continue_plan(
        &mut self,
        mut mqp: Mqp,
        avoid: Option<NodeId>,
        fx: &mut UniFx<O::Msg>,
    ) {
        mqp.root.reduce();
        let qid = mqp.qid;
        if mqp.root.scans_remaining() == 0 {
            let mut rel = mqp.root.result().cloned().unwrap_or_else(|| Relation::empty(vec![]));
            dedup_rows(&mut rel);
            let origin = NodeId(mqp.origin);
            if origin == self.id() {
                let step = self.attempts.complete(self.clock, qid, rel, mqp.hops, mqp.coverage);
                self.act(step, fx);
            } else {
                fx.send(
                    origin,
                    UniMsg::Query(QueryMsg::Result {
                        qid,
                        relation: rel,
                        hops: mqp.hops,
                        coverage: mqp.coverage,
                    }),
                );
            }
            return;
        }

        // Join strategy arbitration: fetch join, Bloom-filtered
        // semi-join pushdown, or plain collect.
        let semi_filter = match self.plan_join(&mqp) {
            Some(JoinDecision::Fetch(plan)) => {
                self.trace.push(Decision {
                    qid,
                    pattern: plan.pattern.to_string(),
                    choice: "fetch-join".to_string(),
                });
                mqp.hops += 1;
                let ops = plan.keys.into_iter().map(Op::Lookup).collect();
                self.issue(Wait::new(mqp, plan.pattern), ops, None, fx);
                return;
            }
            Some(JoinDecision::Semi(filter)) => Some(filter),
            None => None,
        };

        // `scans_remaining() > 0` was checked above, so a scan exists;
        // dropping the attempt (retry timer recovers) beats panicking.
        let Some(pattern) = mqp.root.first_scan().cloned() else { return };

        // Mutant forwarding: ship the plan to a peer serving the next
        // scan's anchor key, unless disabled, too large, or already
        // there. A chosen semi-join executes from here instead — its
        // pricing already assumed so. With the result cache on,
        // exact-match point scans also stay here: the overlay lookup
        // pulls the rows to this node, priming its cache, instead of
        // shipping the plan to the data.
        if semi_filter.is_none() && !self.plan_mode.no_forward && !self.cache_pins_scan(&pattern) {
            if let Some(key) = anchor_key(&pattern) {
                if !self.overlay.serves(key) && mqp.wire_size() < FORWARD_BYTE_CAP {
                    if let Some(next) = self.overlay.next_hop(key, avoid) {
                        if NodeId(mqp.origin) == self.id() {
                            self.attempts.forwarded(qid, next);
                        }
                        mqp.hops += 1;
                        fx.send(next, UniMsg::Query(QueryMsg::Route { key, mqp }));
                        return;
                    }
                }
            }
        }

        // Scan from here, shipping the semi-join filter when one was
        // chosen. (The limit hint is not passed: the storage layer's
        // sequential range has no early termination, so pricing it in
        // would bias the choice toward an optimization the protocol
        // does not perform.)
        let cands = scan_candidates(&pattern, &mqp.filters);
        let chosen = self.pick_scan(&cands);
        self.trace.push(Decision {
            qid,
            pattern: pattern.to_string(),
            choice: match &semi_filter {
                Some(_) => format!("semi-join+{}", chosen.name()),
                None => chosen.name().to_string(),
            },
        });
        self.execute_scan(Wait::new(mqp, pattern), chosen, semi_filter, fx);
    }

    /// Moves a forwarded plan one hop closer to a peer serving `key`,
    /// or continues it here once this peer serves it.
    pub(super) fn route(&mut self, key: Key, mut mqp: Mqp, fx: &mut UniFx<O::Msg>) {
        if self.overlay.serves(key) {
            return self.continue_plan(mqp, None, fx);
        }
        match self.overlay.next_hop(key, None) {
            Some(next) => {
                mqp.hops += 1;
                fx.send(next, UniMsg::Query(QueryMsg::Route { key, mqp }));
            }
            // Routing hole: execute from here as fallback, annotating
            // the subtree the plan could not reach so the origin sees
            // the degradation.
            None => {
                mqp.coverage.record_skip();
                self.continue_plan(mqp, None, fx);
            }
        }
    }

    /// Whether the result cache keeps a point scan at the current node
    /// (pull rows here and cache them) instead of mutant-forwarding the
    /// plan to the data.
    fn cache_pins_scan(&self, pattern: &TriplePattern) -> bool {
        self.cache.cap > 0
            && matches!(&pattern.subject, Term::Var(_))
            && matches!((&pattern.attr, &pattern.value), (Term::Lit(Value::Str(_)), Term::Lit(_)))
    }

    /// Applies forced preferences, falling back to the cost model, then
    /// to the first candidate.
    fn pick_scan(&self, cands: &[ScanStrategy]) -> ScanStrategy {
        if let Some(pref) = self.plan_mode.scan_pref {
            let found = cands.iter().find(|s| match (pref, s) {
                (ScanPref::ParallelRange, ScanStrategy::AttrRange { algo, .. }) => {
                    *algo == RangeAlgo::Parallel
                }
                (ScanPref::SequentialRange, ScanStrategy::AttrRange { algo, .. }) => {
                    *algo == RangeAlgo::Sequential
                }
                (ScanPref::QGram, ScanStrategy::QGram { .. }) => true,
                (ScanPref::NaiveSimilarity, ScanStrategy::AttrRange { lo: None, hi: None, .. }) => {
                    true
                }
                _ => false,
            });
            if let Some(s) = found {
                return s.clone();
            }
        }
        let chosen = self.cost_model().map_or(0, |model| model.choose_scan(cands, None).0);
        cands[chosen].clone()
    }

    /// Derives a scan's storage ops from its strategy and issues them.
    fn execute_scan(
        &mut self,
        mut wait: Wait,
        s: ScanStrategy,
        filter: Option<ItemFilter>,
        fx: &mut UniFx<O::Msg>,
    ) {
        let mut ops: Vec<Op> = Vec::new();
        match &s {
            ScanStrategy::OidLookup { oid } => ops.push(Op::Lookup(idx::oid_key(&Oid::new(oid)))),
            ScanStrategy::AttrValueLookup { attr, value } => {
                // Result cache: unfiltered exact-match lookups resolve from
                // the local cache when possible; a single remote miss is
                // marked for population once its rows arrive. Filtered
                // scans skip the cache — their row sets are query-specific
                // subsets.
                for a in self.mappings.expand(attr) {
                    let key = idx::attr_value_key(&a, value);
                    let cached = filter.is_none().then(|| self.cache.fresh(key, self.clock));
                    match cached.flatten() {
                        Some(rows) => {
                            wait.triples.extend(rows.iter().cloned());
                            self.cache_hits += 1;
                        }
                        None => ops.push(Op::Lookup(key)),
                    }
                }
                if let [Op::Lookup(key)] = ops[..] {
                    if self.cache.cap > 0
                        && filter.is_none()
                        && wait.triples.is_empty()
                        && !self.overlay.responsible(key)
                    {
                        wait.cache_key = Some(key);
                    }
                }
            }
            ScanStrategy::AttrRange { attr, lo, hi, algo } => {
                let mode = match algo {
                    RangeAlgo::Parallel => RangeMode::Parallel,
                    RangeAlgo::Sequential => RangeMode::Sequential,
                };
                for a in self.mappings.expand(attr) {
                    let (klo, khi) = idx::attr_value_range(&a, lo.as_ref(), hi.as_ref());
                    ops.push(Op::Range(klo, khi, mode));
                }
            }
            ScanStrategy::AttrPrefix { attr, prefix, .. } => {
                for a in self.mappings.expand(attr) {
                    let (klo, khi) = idx::attr_prefix_range(&a, prefix);
                    ops.push(Op::Range(klo, khi, RangeMode::Parallel));
                }
            }
            ScanStrategy::QGram { attr, target, k } => {
                let mut keys: Vec<Key> = Vec::new();
                for a in self.mappings.expand(attr) {
                    keys.extend(idx::qgram_keys(&a, target));
                }
                keys.sort_unstable();
                keys.dedup();
                ops.extend(keys.into_iter().map(Op::Lookup));
                let (target, k) = (target.clone(), *k);
                wait.qgram = Some(QGramRound::Postings { target, k, filter });
                return self.issue(wait, ops, None, fx);
            }
            ScanStrategy::ValueLookup { value } => ops.push(Op::Lookup(idx::value_key(value))),
            ScanStrategy::FullScan { .. } => {
                // The whole A#v index region.
                let lo = 1u64 << 62;
                let hi = lo | ((1u64 << 62) - 1);
                ops.push(Op::Range(lo, hi, RangeMode::Parallel));
            }
        }
        self.issue(wait, ops, filter, fx);
    }

    /// Suspends a plan on its storage ops and issues them, `filter`
    /// shipping with each. The wait is registered first: locally
    /// resolving ops may complete synchronously. With no op (every
    /// lookup came from the cache, or no value survived a q-gram scan's
    /// first round) the plan continues at once.
    fn issue(
        &mut self,
        mut wait: Wait,
        ops: Vec<Op>,
        filter: Option<ItemFilter>,
        fx: &mut UniFx<O::Msg>,
    ) {
        if ops.is_empty() {
            return self.finish_wait(wait, fx);
        }
        let qid = wait.mqp.qid;
        let qids: Vec<u64> = ops.iter().map(|_| self.qids.next()).collect();
        for q in &qids {
            self.waiting.insert(*q, qid);
        }
        wait.outstanding = qids.len();
        wait.issued += qids.len() as u32;
        self.active.insert(qid, wait);
        for (q, op) in qids.into_iter().zip(ops) {
            let f = filter.clone();
            match op {
                Op::Lookup(key) => self.with_overlay(fx, |p, ofx| p.local_lookup(q, key, f, ofx)),
                Op::Range(lo, hi, mode) => {
                    self.with_overlay(fx, |p, ofx| p.local_range(q, lo, hi, mode, f, ofx))
                }
            }
        }
    }

    /// Drops cached rows for every (attr, value) pair a write delta
    /// names, and un-pins in-flight scans about to cache such a pair
    /// (their reply may predate the write). Runs on *every* delta the
    /// node originates, before the epoch gate — an invalidation is
    /// correct in any epoch.
    pub(super) fn invalidate_cached<'a>(
        &mut self,
        pairs: impl Iterator<Item = (&'a Arc<str>, &'a Value)>,
    ) {
        if self.cache.cap == 0 {
            return;
        }
        for (attr, value) in pairs {
            let keys: Vec<Key> =
                self.mappings.expand(attr).iter().map(|a| idx::attr_value_key(a, value)).collect();
            for &key in &keys {
                self.cache.invalidate(key);
            }
            for wait in self.active.values_mut() {
                if wait.cache_key.is_some_and(|key| keys.contains(&key)) {
                    wait.cache_key = None;
                }
            }
        }
    }
}

/// Anchor key of a pattern for mutant forwarding: point-addressable
/// scans only.
fn anchor_key(pattern: &TriplePattern) -> Option<Key> {
    if let Some(Value::Str(oid)) = pattern.subject.as_lit() {
        return Some(idx::oid_key(&Oid::new(oid)));
    }
    match (&pattern.attr, &pattern.value) {
        (Term::Lit(Value::Str(attr)), Term::Lit(v)) => Some(idx::attr_value_key(attr, v)),
        (Term::Var(_), Term::Lit(v)) => Some(idx::value_key(v)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unistore_vql::parse;

    #[test]
    fn anchor_keys_for_point_scans() {
        let q = parse("SELECT ?v WHERE {('a12','year',?v)}").unwrap();
        assert!(anchor_key(&q.patterns[0]).is_some(), "oid literal anchors");
        let q = parse("SELECT ?a WHERE {(?a,'year',2006)}").unwrap();
        assert!(anchor_key(&q.patterns[0]).is_some(), "attr+value literal anchors");
        let q = parse("SELECT ?v WHERE {(?a,'year',?v)}").unwrap();
        assert!(anchor_key(&q.patterns[0]).is_none(), "range scans do not anchor");
        let q = parse("SELECT ?attr WHERE {(?a,?attr,2006)}").unwrap();
        assert!(anchor_key(&q.patterns[0]).is_some(), "value literal anchors");
    }
}
