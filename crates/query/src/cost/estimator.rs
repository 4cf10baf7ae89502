//! The estimator: [`CostModel`] prices scans and joins over one
//! statistics snapshot.

use unistore_store::index::attr_value_range;
use unistore_store::qgram;

use super::statistics::GlobalStats;
use super::{StatsDelta, StatsNotice};
use crate::strategy::{JoinStrategy, RangeAlgo, ScanStrategy};

/// Overlay parameters the model derives its guarantees from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetParams {
    /// Number of peers.
    pub n_peers: f64,
    /// Number of trie leaves (= peer count / replication).
    pub n_leaves: f64,
    /// Replication factor.
    pub replication: f64,
    /// Expected one-way link delay in milliseconds (latency prediction).
    pub hop_ms: f64,
}

impl NetParams {
    /// Expected routing depth: log₂ of the leaf count.
    pub fn log_n(&self) -> f64 {
        self.n_leaves.max(2.0).log2()
    }
}

/// Selectivity assumed for attributes the statistics have never seen.
///
/// Statistics are disseminated with bounded staleness, so an attribute
/// can be live in the system before any snapshot mentions it. Pricing
/// such a scan at zero cardinality *and* zero cost made every
/// ghost-attribute plan look free and win `choose_scan` / join
/// arbitration outright; instead, unknown attributes are floored at
/// this conservative fraction of the total triple count (never below
/// one row).
pub const UNKNOWN_ATTR_SELECTIVITY: f64 = 0.01;

/// Predicted cost of a physical operator or plan.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CostVector {
    /// Total messages.
    pub messages: f64,
    /// Critical-path length in hops (latency = depth × hop delay).
    pub depth: f64,
    /// Bytes moved.
    pub bytes: f64,
}

impl CostVector {
    /// Accumulates another operator's cost executed *after* this one.
    pub fn then(&self, next: &CostVector) -> CostVector {
        CostVector {
            messages: self.messages + next.messages,
            depth: self.depth + next.depth,
            bytes: self.bytes + next.bytes,
        }
    }

    /// Predicted latency in milliseconds.
    pub fn latency_ms(&self, hop_ms: f64) -> f64 {
        self.depth * hop_ms
    }

    /// Scalar score for strategy selection: message count dominates
    /// (bandwidth is the scarce resource in the paper's setting), depth
    /// breaks ties toward lower latency.
    pub fn score(&self) -> f64 {
        self.messages + 0.01 * self.depth + 1e-6 * self.bytes
    }
}

/// A priced scan: predicted cost and output cardinality.
#[derive(Clone, Debug)]
pub struct ScanEstimate {
    /// Predicted network cost.
    pub cost: CostVector,
    /// Predicted result rows.
    pub cardinality: f64,
}

/// The cost model over one statistics snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct CostModel {
    /// The statistics driving the predictions.
    pub stats: GlobalStats,
}

impl CostModel {
    /// Creates the model.
    pub fn new(stats: GlobalStats) -> Self {
        CostModel { stats }
    }

    /// Folds a statistics delta into the model — O(delta), no rescan.
    pub fn apply_delta(&mut self, delta: &StatsDelta) {
        self.stats.apply_delta(delta);
    }

    /// Installs what a statistics flush notice publishes.
    pub fn install(&mut self, notice: &StatsNotice) {
        self.stats.install(notice);
    }

    /// Prices one scan strategy. `limit_hint` enables early-termination
    /// pricing for sequential ranges under LIMIT.
    pub fn scan(&self, s: &ScanStrategy, limit_hint: Option<usize>) -> ScanEstimate {
        let st = &self.stats;
        let log_n = st.net.log_n();
        let per_leaf = st.triples_per_leaf();
        let row_bytes = st.avg_triple_bytes;
        match s {
            ScanStrategy::OidLookup { .. } => {
                let card = (st.total / st.oid_distinct.max(1.0)).max(1.0);
                ScanEstimate {
                    cost: CostVector {
                        messages: log_n + 1.0,
                        depth: log_n + 1.0,
                        bytes: card * row_bytes,
                    },
                    cardinality: card,
                }
            }
            ScanStrategy::AttrValueLookup { attr, .. } => {
                let card =
                    st.attr(attr).map_or(st.unknown_attr_card(), |a| a.count / a.distinct.max(1.0));
                ScanEstimate {
                    cost: CostVector {
                        messages: log_n + 1.0,
                        depth: log_n + 1.0,
                        bytes: card * row_bytes,
                    },
                    cardinality: card,
                }
            }
            ScanStrategy::AttrRange { attr, lo, hi, algo } => {
                let card = match st.attr(attr) {
                    None => st.unknown_attr_card(),
                    Some(a) => {
                        let (klo, khi) = attr_value_range(attr, lo.as_ref(), hi.as_ref());
                        a.hist.estimate_range(klo, khi).max(1.0)
                    }
                };
                let leaves = (card / per_leaf).ceil().clamp(1.0, st.net.n_leaves);
                let (messages, depth, eff_card) = match algo {
                    RangeAlgo::Parallel => (log_n + 2.0 * leaves, log_n + 2.0, card),
                    RangeAlgo::Sequential => {
                        // Early termination: visit only the leaves needed
                        // to fill the limit.
                        let eff_leaves = match limit_hint {
                            Some(n) if card > 0.0 => {
                                (n as f64 * leaves / card).ceil().clamp(1.0, leaves)
                            }
                            _ => leaves,
                        };
                        let eff_card =
                            if eff_leaves < leaves { card * eff_leaves / leaves } else { card };
                        (log_n + 2.0 * eff_leaves, log_n + eff_leaves + 1.0, eff_card)
                    }
                };
                ScanEstimate {
                    cost: CostVector { messages, depth, bytes: eff_card * row_bytes },
                    cardinality: eff_card,
                }
            }
            ScanStrategy::AttrPrefix { attr, prefix, .. } => {
                let card = match st.attr(attr) {
                    None => st.unknown_attr_card(),
                    Some(a) => {
                        let (klo, khi) = unistore_store::index::attr_prefix_range(attr, prefix);
                        a.hist.estimate_range(klo, khi).max(1.0)
                    }
                };
                let leaves = (card / per_leaf).ceil().clamp(1.0, st.net.n_leaves);
                ScanEstimate {
                    cost: CostVector {
                        messages: log_n + 2.0 * leaves,
                        depth: log_n + 2.0,
                        bytes: card * row_bytes,
                    },
                    cardinality: card,
                }
            }
            ScanStrategy::QGram { attr, target, k } => {
                // Round 1 looks up every gram of the target and ships the
                // postings under them, one per distinct value holding the
                // gram; round 2 looks up each value that survives the
                // filters under its A#v key and ships its rows.
                let grams = (target.len() + qgram::QGRAM_Q - 1) as f64;
                let (postings, survivors, verified) = match st.attr(attr) {
                    None => (st.unknown_attr_card(), 1.0, st.unknown_attr_card()),
                    Some(a) => {
                        let postings = grams * a.gram_postings / a.gram_distinct.max(1.0);
                        // Verified matches: crude selectivity — strings
                        // within distance k of one target are rare.
                        let sel = ((*k as f64 + 1.0) / a.distinct.max(1.0)).min(1.0);
                        let survivors = (a.join_distinct * sel).max(1.0);
                        (postings, survivors, (a.count * sel).max(1.0))
                    }
                };
                ScanEstimate {
                    cost: CostVector {
                        messages: (grams + survivors) * (log_n + 1.0),
                        depth: 2.0 * (log_n + 1.0),
                        bytes: (postings + verified) * row_bytes,
                    },
                    cardinality: verified,
                }
            }
            ScanStrategy::ValueLookup { .. } => {
                let card = (st.total / st.value_distinct.max(1.0)).max(1.0);
                ScanEstimate {
                    cost: CostVector {
                        messages: log_n + 1.0,
                        depth: log_n + 1.0,
                        bytes: card * row_bytes,
                    },
                    cardinality: card,
                }
            }
            ScanStrategy::FullScan { .. } => {
                let leaves = st.net.n_leaves;
                ScanEstimate {
                    cost: CostVector {
                        messages: 2.0 * leaves,
                        depth: log_n + 2.0,
                        bytes: st.total * row_bytes,
                    },
                    cardinality: st.total,
                }
            }
        }
    }

    /// Picks the cheapest scan among candidates. Returns the index into
    /// `candidates` plus the estimate.
    pub fn choose_scan(
        &self,
        candidates: &[ScanStrategy],
        limit_hint: Option<usize>,
    ) -> (usize, ScanEstimate) {
        let mut best: Option<(usize, ScanEstimate)> = None;
        for (i, s) in candidates.iter().enumerate() {
            let est = self.scan(s, limit_hint);
            // Strict `<` keeps the first of equally-cheap candidates,
            // matching `Iterator::min_by` so plan choices (and bench
            // snapshot digests) are unchanged by the unwrap removal.
            let replace = best.as_ref().is_none_or(|(_, b)| est.cost.score() < b.cost.score());
            if replace {
                best = Some((i, est));
            }
        }
        // An empty candidate list is a planner bug; price it as
        // unplannable instead of panicking.
        best.unwrap_or((
            0,
            ScanEstimate {
                cost: CostVector {
                    messages: f64::INFINITY,
                    depth: f64::INFINITY,
                    bytes: f64::INFINITY,
                },
                cardinality: 0.0,
            },
        ))
    }

    /// Prices a join given the left cardinality and the right side's
    /// best independent scan. Fetch join costs one lookup per distinct
    /// left binding.
    pub fn join(
        &self,
        left_card: f64,
        right_best: &ScanEstimate,
        fetch_possible: bool,
    ) -> (JoinStrategy, CostVector) {
        let log_n = self.stats.net.log_n();
        let collect = right_best.cost;
        if !fetch_possible {
            return (JoinStrategy::Collect, collect);
        }
        let fetch = CostVector {
            messages: left_card.max(1.0) * (log_n + 1.0),
            depth: log_n + 1.0,
            bytes: right_best.cardinality.min(left_card) * self.stats.avg_triple_bytes,
        };
        if fetch.score() < collect.score() {
            (JoinStrategy::Fetch, fetch)
        } else {
            (JoinStrategy::Collect, collect)
        }
    }

    /// Prices a Bloom-filtered semi-join pushdown of the right side's
    /// best scan: the message structure and critical path are the
    /// collect scan's (the filter rides the existing request messages),
    /// but every request grows by the filter's wire size and the leaves
    /// reply with only the rows whose join key appears on the left —
    /// plus the filter's false positives.
    ///
    /// `left_distinct` is the number of distinct join keys on the
    /// materialized side, `right_distinct` the estimated distinct join
    /// keys in the scanned region (drives the semi-join selectivity
    /// `min(1, left/right)`), `filter_bytes` the encoded filter size and
    /// `fpr` its false-positive rate.
    pub fn semi_join(
        &self,
        left_distinct: f64,
        right_distinct: f64,
        right_best: &ScanEstimate,
        filter_bytes: f64,
        fpr: f64,
    ) -> CostVector {
        let sel = (left_distinct / right_distinct.max(1.0) + fpr).min(1.0);
        let surviving = right_best.cardinality * sel;
        CostVector {
            messages: right_best.cost.messages,
            depth: right_best.cost.depth,
            bytes: right_best.cost.messages * filter_bytes
                + surviving * self.stats.avg_triple_bytes,
        }
    }
}
