//! Physical operator alternatives.
//!
//! Paper §2: *"For each logical operator there are several physical
//! implementations available … They differ in the kind of used indexes,
//! applied routing strategy, parallelism, etc."* This module enumerates
//! the alternatives; [`crate::cost`] prices them; the executor picks.

use unistore_store::Value;
use unistore_vql::{Expr, Term, TriplePattern};

use crate::eval::{range_bounds_for, similarity_for};

/// Which range algorithm a range-based scan uses (maps to the two
/// P-Grid range implementations).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RangeAlgo {
    /// Shower: parallel trie fan-out. Low latency, more messages.
    Parallel,
    /// Leaf walk in key order. Fewer parallel messages, linear latency.
    Sequential,
}

/// Physical strategies for resolving one triple pattern.
#[derive(Clone, Debug, PartialEq)]
pub enum ScanStrategy {
    /// Exact lookup in the OID index (subject is a literal).
    OidLookup {
        /// The object id.
        oid: String,
    },
    /// Exact lookup in the A#v index (attribute and value literal).
    AttrValueLookup {
        /// Attribute name.
        attr: String,
        /// Value to match.
        value: Value,
    },
    /// Range scan in the A#v index (attribute literal; value bounded by
    /// filters, or unbounded for a whole-attribute scan).
    AttrRange {
        /// Attribute name.
        attr: String,
        /// Inclusive lower bound.
        lo: Option<Value>,
        /// Inclusive upper bound.
        hi: Option<Value>,
        /// Range algorithm.
        algo: RangeAlgo,
    },
    /// Prefix scan in the A#v index: the order-preserving encoding maps
    /// a string prefix to a contiguous key range (paper §2: native
    /// prefix/substring search).
    AttrPrefix {
        /// Attribute name.
        attr: String,
        /// Required value prefix.
        prefix: String,
        /// Range algorithm.
        algo: RangeAlgo,
    },
    /// Similarity scan via the q-gram index: fetch gram buckets, count
    /// filter, verify with edit distance (paper ref \[6\]).
    QGram {
        /// Attribute name.
        attr: String,
        /// Target string.
        target: String,
        /// Edit-distance threshold (inclusive).
        k: usize,
    },
    /// Exact lookup in the attribute-agnostic v index (value literal,
    /// attribute variable).
    ValueLookup {
        /// Value to match.
        value: Value,
    },
    /// Scan of the entire A#v index (nothing usable bound). The
    /// fallback of last resort.
    FullScan {
        /// Range algorithm.
        algo: RangeAlgo,
    },
}

impl ScanStrategy {
    /// Short display name (experiment output).
    pub fn name(&self) -> &'static str {
        match self {
            ScanStrategy::OidLookup { .. } => "oid-lookup",
            ScanStrategy::AttrValueLookup { .. } => "av-lookup",
            ScanStrategy::AttrRange { algo: RangeAlgo::Parallel, .. } => "av-range-par",
            ScanStrategy::AttrRange { algo: RangeAlgo::Sequential, .. } => "av-range-seq",
            ScanStrategy::AttrPrefix { .. } => "av-prefix",
            ScanStrategy::QGram { .. } => "qgram",
            ScanStrategy::ValueLookup { .. } => "v-lookup",
            ScanStrategy::FullScan { .. } => "full-scan",
        }
    }
}

/// Physical strategies for a join once the left side is materialized.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Resolve the right pattern independently (its best scan), then
    /// hash-join where the plan currently lives.
    Collect,
    /// Fetch join: for each distinct binding of the shared variable,
    /// issue a targeted lookup for the right pattern (index nested
    /// loops over the DHT).
    Fetch,
    /// Semi-join pushdown: run the right side's best scan, but ship a
    /// Bloom filter over the left side's distinct join keys with the
    /// request so the leaves drop non-matching triples before replying.
    /// Same message structure as [`JoinStrategy::Collect`], a fraction
    /// of its bytes.
    SemiJoin,
}

/// Enumerates the applicable scan strategies for a pattern, given the
/// query's filters (used for bound extraction). Ordered from most to
/// least specific; the cost model makes the actual choice.
pub fn scan_candidates(pattern: &TriplePattern, filters: &[Expr]) -> Vec<ScanStrategy> {
    let mut out = Vec::new();
    if let Some(Value::Str(oid)) = pattern.subject.as_lit() {
        out.push(ScanStrategy::OidLookup { oid: oid.to_string() });
    }
    match (&pattern.attr, &pattern.value) {
        (Term::Lit(Value::Str(attr)), Term::Lit(v)) => {
            out.push(ScanStrategy::AttrValueLookup { attr: attr.to_string(), value: v.clone() });
        }
        (Term::Lit(Value::Str(attr)), Term::Var(var)) => {
            // Similarity predicate on the value variable? The q-gram
            // index is only *complete* when every true match must share
            // at least one gram with the target: |t| - 1 - (k-1)·q ≥ 1.
            // Below that (short targets / large k) matches like
            // ed("ICDE","CDR") = 2 share zero grams and would be lost —
            // the planner must fall back to scanning.
            if let Some((target, k)) = filters.iter().find_map(|f| similarity_for(f, var)) {
                let guaranteed = target.len() as isize
                    - 1
                    - (k as isize - 1) * unistore_store::qgram::QGRAM_Q as isize
                    >= 1;
                if guaranteed {
                    out.push(ScanStrategy::QGram { attr: attr.to_string(), target, k });
                }
            }
            // Prefix predicate → contiguous key range (native support).
            if let Some(p) = filters.iter().find_map(|f| crate::eval::prefix_for(f, var)) {
                out.push(ScanStrategy::AttrPrefix {
                    attr: attr.to_string(),
                    prefix: p,
                    algo: RangeAlgo::Parallel,
                });
            }
            // Range bounds from filters (possibly unbounded).
            let (lo, hi) = filters.iter().fold((None, None), |(lo, hi), f| {
                let (l2, h2) = range_bounds_for(f, var);
                (tighter(lo, l2, true), tighter(hi, h2, false))
            });
            for algo in [RangeAlgo::Parallel, RangeAlgo::Sequential] {
                out.push(ScanStrategy::AttrRange {
                    attr: attr.to_string(),
                    lo: lo.clone(),
                    hi: hi.clone(),
                    algo,
                });
            }
        }
        (Term::Var(_), Term::Lit(v)) => {
            out.push(ScanStrategy::ValueLookup { value: v.clone() });
        }
        (Term::Var(_), Term::Var(_)) => {}
        // Attribute literal that is not a string (malformed but legal
        // grammar-wise): fall through to FullScan below.
        (Term::Lit(_), _) => {}
    }
    if out.is_empty() {
        out.push(ScanStrategy::FullScan { algo: RangeAlgo::Parallel });
    }
    out
}

fn tighter(a: Option<Value>, b: Option<Value>, is_lo: bool) -> Option<Value> {
    use std::cmp::Ordering::*;
    match (a, b) {
        (None, x) | (x, None) => x,
        (Some(x), Some(y)) => {
            let keep_x = match x.cmp_values(&y) {
                Greater => is_lo,
                Less => !is_lo,
                Equal => true,
            };
            Some(if keep_x { x } else { y })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unistore_vql::parse;

    fn pattern_and_filters(src: &str) -> (TriplePattern, Vec<Expr>) {
        let q = parse(src).unwrap();
        (q.patterns[0].clone(), q.filters.clone())
    }

    #[test]
    fn literal_subject_offers_oid_lookup() {
        let (p, f) = pattern_and_filters("SELECT ?v WHERE {('a12','year',?v)}");
        let c = scan_candidates(&p, &f);
        assert!(matches!(c[0], ScanStrategy::OidLookup { .. }));
    }

    #[test]
    fn attr_and_value_literal_offer_exact_lookup() {
        let (p, f) = pattern_and_filters("SELECT ?a WHERE {(?a,'year',2006)}");
        let c = scan_candidates(&p, &f);
        assert!(c.iter().any(|s| matches!(s, ScanStrategy::AttrValueLookup { .. })));
    }

    #[test]
    fn value_var_with_bounds_offers_both_range_algos() {
        let (p, f) = pattern_and_filters(
            "SELECT ?v WHERE {(?a,'year',?v) FILTER ?v >= 2000 AND ?v <= 2006}",
        );
        let c = scan_candidates(&p, &f);
        let ranges: Vec<_> = c
            .iter()
            .filter_map(|s| match s {
                ScanStrategy::AttrRange { lo, hi, algo, .. } => Some((lo, hi, algo)),
                _ => None,
            })
            .collect();
        assert_eq!(ranges.len(), 2, "parallel and sequential variants");
        assert_eq!(ranges[0].0, &Some(Value::Int(2000)));
        assert_eq!(ranges[0].1, &Some(Value::Int(2006)));
    }

    #[test]
    fn similarity_filter_offers_qgram_when_guaranteed() {
        // k=1 on a 4-char target: threshold 4-1-0 = 3 ≥ 1 → offered.
        let (p, f) =
            pattern_and_filters("SELECT ?s WHERE {(?c,'series',?s) FILTER edist(?s,'ICDE')<2}");
        let c = scan_candidates(&p, &f);
        assert!(
            c.iter().any(|s| matches!(s, ScanStrategy::QGram { k: 1, .. })),
            "qgram candidate missing: {c:?}"
        );
        // Naive fallback still present (range over the whole attribute).
        assert!(c.iter().any(|s| matches!(s, ScanStrategy::AttrRange { lo: None, hi: None, .. })));
        // Long target with k=2: 12-1-3 = 8 ≥ 1 → offered.
        let (p, f) = pattern_and_filters(
            "SELECT ?s WHERE {(?c,'series',?s) FILTER edist(?s,'Similarity Qu')<3}",
        );
        assert!(scan_candidates(&p, &f)
            .iter()
            .any(|s| matches!(s, ScanStrategy::QGram { k: 2, .. })));
    }

    #[test]
    fn similarity_without_gram_guarantee_not_offered() {
        // k=2 on a 4-char target: threshold 4-1-3 = 0 → a true match may
        // share no grams; the index would drop it. Must not be offered.
        let (p, f) =
            pattern_and_filters("SELECT ?s WHERE {(?c,'series',?s) FILTER edist(?s,'ICDE')<3}");
        let c = scan_candidates(&p, &f);
        assert!(
            !c.iter().any(|s| matches!(s, ScanStrategy::QGram { .. })),
            "incomplete qgram plan offered: {c:?}"
        );
        // The naive scan fallback keeps the query answerable.
        assert!(c.iter().any(|s| matches!(s, ScanStrategy::AttrRange { .. })));
    }

    #[test]
    fn prefix_filter_offers_prefix_scan() {
        let (p, f) =
            pattern_and_filters("SELECT ?s WHERE {(?c,'series',?s) FILTER prefix(?s,'IC')}");
        let c = scan_candidates(&p, &f);
        assert!(
            c.iter().any(|s| matches!(s, ScanStrategy::AttrPrefix { .. })),
            "prefix candidate missing: {c:?}"
        );
    }

    #[test]
    fn value_literal_with_attr_var_offers_value_lookup() {
        let (p, f) = pattern_and_filters("SELECT ?attr WHERE {(?a,?attr,2006)}");
        let c = scan_candidates(&p, &f);
        assert!(matches!(c[0], ScanStrategy::ValueLookup { .. }));
    }

    #[test]
    fn nothing_bound_falls_back_to_full_scan() {
        let (p, f) = pattern_and_filters("SELECT ?a WHERE {(?a,?attr,?v)}");
        let c = scan_candidates(&p, &f);
        assert_eq!(c, vec![ScanStrategy::FullScan { algo: RangeAlgo::Parallel }]);
    }

    #[test]
    fn oid_plus_attr_offers_multiple_indexes() {
        // Both the OID index and the A#v index can answer; the cost
        // model decides (paper: "several implementations … each
        // beneficial in special situations").
        let (p, f) = pattern_and_filters("SELECT * WHERE {('a12','year',2006)}");
        let c = scan_candidates(&p, &f);
        assert!(c.len() >= 2);
    }
}
