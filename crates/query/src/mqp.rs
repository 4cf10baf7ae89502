//! Mutant Query Plans.
//!
//! Paper §2: *"The physical operators are used to build complex query
//! plans. The processing of these plans can be described as an extension
//! of the concept of Mutant Query Plans \[7\]"* (Papadimos & Maier). The
//! plan is *data*: it travels between peers inside messages, and as
//! leaves are resolved at the peers responsible for the data, sub-trees
//! collapse into materialized relations. Every peer holding the plan
//! re-optimizes what remains before acting — that is the paper's
//! "adaptive query processing".
//!
//! The tree is wire-encodable (plans ship with their partial results),
//! and evaluation of fully materialized operators is a pure function
//! shared with the local reference engine.

use std::sync::Arc;

use bytes::{Bytes, BytesMut};

use unistore_store::mapping::MappingSet;
use unistore_store::{Triple, Value};
use unistore_util::wire::{Wire, WireError};
use unistore_vql::ast::{OrderItem, SkyItem};
use unistore_vql::{Expr, Term, TriplePattern};

use crate::eval::filter_relation;
use crate::logical::Logical;
use crate::rank::{limit, order_by, top_n};
use crate::relation::Relation;
use crate::skyline::skyline;

/// One node of a mutant query plan.
#[derive(Clone, Debug, PartialEq)]
pub enum MqpNode {
    /// Unresolved leaf: a pattern that still needs the network.
    Scan {
        /// The pattern to resolve.
        pattern: TriplePattern,
    },
    /// Resolved leaf: materialized rows.
    Mat(Relation),
    /// Natural join.
    Join {
        /// Left input.
        left: Box<MqpNode>,
        /// Right input.
        right: Box<MqpNode>,
    },
    /// Selection.
    Filter {
        /// Input.
        input: Box<MqpNode>,
        /// Predicate.
        expr: Expr,
    },
    /// Projection.
    Project {
        /// Input.
        input: Box<MqpNode>,
        /// Variables to keep.
        vars: Vec<Arc<str>>,
    },
    /// Sorting.
    OrderBy {
        /// Input.
        input: Box<MqpNode>,
        /// Items.
        items: Vec<OrderItem>,
    },
    /// Truncation.
    Limit {
        /// Input.
        input: Box<MqpNode>,
        /// Row budget.
        n: u64,
    },
    /// Ranking.
    TopN {
        /// Input.
        input: Box<MqpNode>,
        /// Items.
        items: Vec<OrderItem>,
        /// Rank budget.
        n: u64,
    },
    /// Pareto skyline.
    Skyline {
        /// Input.
        input: Box<MqpNode>,
        /// Preferences.
        items: Vec<SkyItem>,
    },
}

impl MqpNode {
    /// Converts a logical plan into an (entirely unresolved) MQP.
    pub fn from_logical(l: &Logical) -> MqpNode {
        match l {
            Logical::Pattern(p) => MqpNode::Scan { pattern: p.clone() },
            Logical::Join { left, right } => MqpNode::Join {
                left: Box::new(Self::from_logical(left)),
                right: Box::new(Self::from_logical(right)),
            },
            Logical::Filter { input, expr } => {
                MqpNode::Filter { input: Box::new(Self::from_logical(input)), expr: expr.clone() }
            }
            Logical::Project { input, vars } => {
                MqpNode::Project { input: Box::new(Self::from_logical(input)), vars: vars.clone() }
            }
            Logical::OrderBy { input, items } => MqpNode::OrderBy {
                input: Box::new(Self::from_logical(input)),
                items: items.clone(),
            },
            Logical::Limit { input, n } => {
                MqpNode::Limit { input: Box::new(Self::from_logical(input)), n: *n as u64 }
            }
            Logical::TopN { input, items, n } => MqpNode::TopN {
                input: Box::new(Self::from_logical(input)),
                items: items.clone(),
                n: *n as u64,
            },
            Logical::Skyline { input, items } => MqpNode::Skyline {
                input: Box::new(Self::from_logical(input)),
                items: items.clone(),
            },
        }
    }

    /// The leftmost unresolved scan, if any.
    pub fn first_scan(&self) -> Option<&TriplePattern> {
        match self {
            MqpNode::Scan { pattern } => Some(pattern),
            MqpNode::Mat(_) => None,
            MqpNode::Join { left, right } => left.first_scan().or_else(|| right.first_scan()),
            MqpNode::Filter { input, .. }
            | MqpNode::Project { input, .. }
            | MqpNode::OrderBy { input, .. }
            | MqpNode::Limit { input, .. }
            | MqpNode::TopN { input, .. }
            | MqpNode::Skyline { input, .. } => input.first_scan(),
        }
    }

    /// Number of unresolved scans.
    pub fn scans_remaining(&self) -> usize {
        match self {
            MqpNode::Scan { .. } => 1,
            MqpNode::Mat(_) => 0,
            MqpNode::Join { left, right } => left.scans_remaining() + right.scans_remaining(),
            MqpNode::Filter { input, .. }
            | MqpNode::Project { input, .. }
            | MqpNode::OrderBy { input, .. }
            | MqpNode::Limit { input, .. }
            | MqpNode::TopN { input, .. }
            | MqpNode::Skyline { input, .. } => input.scans_remaining(),
        }
    }

    /// Replaces the leftmost unresolved scan with a materialized
    /// relation. Returns `false` if there was none.
    pub fn resolve_first_scan(&mut self, rel: Relation) -> bool {
        match self {
            MqpNode::Scan { .. } => {
                *self = MqpNode::Mat(rel);
                true
            }
            MqpNode::Mat(_) => false,
            // Hand the relation to whichever side actually holds the
            // leftmost scan — cloning it for a fully-resolved left
            // subtree would copy a potentially large relation for
            // nothing.
            MqpNode::Join { left, right } => {
                if left.scans_remaining() > 0 {
                    left.resolve_first_scan(rel)
                } else {
                    right.resolve_first_scan(rel)
                }
            }
            MqpNode::Filter { input, .. }
            | MqpNode::Project { input, .. }
            | MqpNode::OrderBy { input, .. }
            | MqpNode::Limit { input, .. }
            | MqpNode::TopN { input, .. }
            | MqpNode::Skyline { input, .. } => input.resolve_first_scan(rel),
        }
    }

    /// If the next step is the right side of a join whose left side is
    /// already materialized, returns `(left relation, right pattern)` —
    /// the precondition for a fetch join.
    pub fn fetch_join_site(&self) -> Option<(&Relation, &TriplePattern)> {
        match self {
            MqpNode::Join { left, right } => {
                if let (MqpNode::Mat(rel), MqpNode::Scan { pattern }) =
                    (left.as_ref(), right.as_ref())
                {
                    return Some((rel, pattern));
                }
                left.fetch_join_site().or_else(|| right.fetch_join_site())
            }
            MqpNode::Scan { .. } | MqpNode::Mat(_) => None,
            MqpNode::Filter { input, .. }
            | MqpNode::Project { input, .. }
            | MqpNode::OrderBy { input, .. }
            | MqpNode::Limit { input, .. }
            | MqpNode::TopN { input, .. }
            | MqpNode::Skyline { input, .. } => input.fetch_join_site(),
        }
    }

    /// Eagerly folds every operator whose inputs are materialized.
    /// After `reduce`, a plan with zero remaining scans is a single
    /// [`MqpNode::Mat`].
    pub fn reduce(&mut self) {
        match self {
            MqpNode::Scan { .. } | MqpNode::Mat(_) => {}
            MqpNode::Join { left, right } => {
                left.reduce();
                right.reduce();
                if let (MqpNode::Mat(l), MqpNode::Mat(r)) = (left.as_ref(), right.as_ref()) {
                    *self = MqpNode::Mat(l.join(r));
                }
            }
            MqpNode::Filter { input, expr } => {
                input.reduce();
                if let MqpNode::Mat(rel) = input.as_mut() {
                    filter_relation(rel, expr);
                    *self = MqpNode::Mat(std::mem::replace(rel, Relation::empty(vec![])));
                }
            }
            MqpNode::Project { input, vars } => {
                input.reduce();
                if let MqpNode::Mat(rel) = input.as_ref() {
                    *self = MqpNode::Mat(rel.project(vars));
                }
            }
            MqpNode::OrderBy { input, items } => {
                input.reduce();
                if let MqpNode::Mat(rel) = input.as_mut() {
                    order_by(rel, items);
                    *self = MqpNode::Mat(std::mem::replace(rel, Relation::empty(vec![])));
                }
            }
            MqpNode::Limit { input, n } => {
                input.reduce();
                if let MqpNode::Mat(rel) = input.as_mut() {
                    limit(rel, *n as usize);
                    *self = MqpNode::Mat(std::mem::replace(rel, Relation::empty(vec![])));
                }
            }
            MqpNode::TopN { input, items, n } => {
                input.reduce();
                if let MqpNode::Mat(rel) = input.as_mut() {
                    top_n(rel, items, *n as usize);
                    *self = MqpNode::Mat(std::mem::replace(rel, Relation::empty(vec![])));
                }
            }
            MqpNode::Skyline { input, items } => {
                input.reduce();
                if let MqpNode::Mat(rel) = input.as_mut() {
                    skyline(rel, items);
                    *self = MqpNode::Mat(std::mem::replace(rel, Relation::empty(vec![])));
                }
            }
        }
    }

    /// The final relation, if the plan is fully reduced.
    pub fn result(&self) -> Option<&Relation> {
        match self {
            MqpNode::Mat(rel) => Some(rel),
            _ => None,
        }
    }
}

/// Completeness accounting of a travelling plan: how much of the data
/// the plan was responsible for was actually reached.
///
/// Every scan the plan resolves contributes its leaf operations
/// (per-key lookups, range subtrees, fetch-join legs) as *parts*; a
/// part that fails (lost lookup after retries, aborted range subtree)
/// leaves `parts_ok < parts_total` and flags a shortfall. A routing
/// hole that forces the plan to execute from a non-responsible peer is
/// annotated as a `skipped` subtree. The report travels *with* the
/// plan — forwarded hops keep accumulating into it — and surfaces in
/// the final result, so queries under churn return partial relations
/// with an honest completeness figure instead of timing out.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Coverage {
    /// Leaf operations that completed cleanly.
    pub parts_ok: u32,
    /// Leaf operations issued.
    pub parts_total: u32,
    /// Scans that fell short (at least one failed part).
    pub shortfalls: u32,
    /// Subtrees the plan could not route to and had to execute blind.
    pub skipped: u32,
}

impl Coverage {
    /// Coverage of a plan that has not touched the network (vacuously
    /// complete — a fully cached or empty plan reached everything it
    /// was responsible for).
    pub fn full() -> Self {
        Coverage::default()
    }

    /// Coverage of a query that produced no result at all (deadline
    /// exhausted with nothing to show): fraction 0.
    pub fn failed() -> Self {
        Coverage { parts_ok: 0, parts_total: 0, shortfalls: 1, skipped: 1 }
    }

    /// Records one finished scan: `ok` of `total` parts completed.
    pub fn record_scan(&mut self, ok: u32, total: u32) {
        self.parts_ok += ok;
        self.parts_total += total;
        if ok < total {
            self.shortfalls += 1;
        }
    }

    /// Annotates a subtree the plan could not route toward.
    pub fn record_skip(&mut self) {
        self.skipped += 1;
    }

    /// Fraction of responsible leaves actually reached, in `[0, 1]`.
    /// Skipped subtrees count as unreached parts; a plan that never
    /// needed the network is complete by convention.
    pub fn fraction(&self) -> f64 {
        let denom = self.parts_total + self.skipped;
        if denom == 0 {
            if self.shortfalls == 0 {
                1.0
            } else {
                0.0
            }
        } else {
            self.parts_ok as f64 / denom as f64
        }
    }

    /// Whether every leaf was reached and nothing was skipped.
    pub fn complete(&self) -> bool {
        self.shortfalls == 0 && self.skipped == 0 && self.parts_ok == self.parts_total
    }
}

impl Wire for Coverage {
    fn encode(&self, buf: &mut BytesMut) {
        self.parts_ok.encode(buf);
        self.parts_total.encode(buf);
        self.shortfalls.encode(buf);
        self.skipped.encode(buf);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(Coverage {
            parts_ok: Wire::decode(buf)?,
            parts_total: Wire::decode(buf)?,
            shortfalls: Wire::decode(buf)?,
            skipped: Wire::decode(buf)?,
        })
    }

    fn wire_size(&self) -> usize {
        self.parts_ok.wire_size()
            + self.parts_total.wire_size()
            + self.shortfalls.wire_size()
            + self.skipped.wire_size()
    }
}

/// A complete mutant plan as it travels the network.
#[derive(Clone, Debug, PartialEq)]
pub struct Mqp {
    /// Correlation id.
    pub qid: u64,
    /// Raw node id of the query origin (receives the final result).
    pub origin: u32,
    /// The plan tree.
    pub root: MqpNode,
    /// The query's filter predicates, carried for bound/similarity
    /// extraction when peers re-optimize remaining scans.
    pub filters: Vec<Expr>,
    /// LIMIT, if the query has one (enables early-termination pricing).
    pub limit_hint: Option<u64>,
    /// Plan-forwarding hops taken so far (mutant travel distance).
    pub hops: u32,
    /// Completeness accounting, accumulated across every peer that
    /// resolved a scan of this plan.
    pub coverage: Coverage,
}

impl Mqp {
    /// Builds a travelling plan for a query.
    pub fn new(
        qid: u64,
        origin: u32,
        root: MqpNode,
        filters: Vec<Expr>,
        limit: Option<u64>,
    ) -> Mqp {
        Mqp { qid, origin, root, filters, limit_hint: limit, hops: 0, coverage: Coverage::full() }
    }
}

/// Binds a pattern against candidate triples, producing a relation over
/// the pattern's variables. Literal positions must match (with
/// [`MappingSet`]-expanded attribute equivalence); repeated variables
/// must agree.
pub fn bind_triples(
    pattern: &TriplePattern,
    triples: &[Triple],
    mappings: &MappingSet,
) -> Relation {
    let mut schema: Vec<Arc<str>> = Vec::new();
    for t in [&pattern.subject, &pattern.attr, &pattern.value] {
        if let Term::Var(v) = t {
            if !schema.iter().any(|s| s == v) {
                schema.push(v.clone());
            }
        }
    }
    let accepted_attrs: Option<Vec<Arc<str>>> = match &pattern.attr {
        Term::Lit(Value::Str(a)) => Some(mappings.expand(a)),
        _ => None,
    };
    // Each position's column, resolved once: the schema lists the
    // pattern's variables in first-occurrence order, so a variable's
    // first occurrence pushes the next column and a repeat compares
    // against the column already pushed.
    let positions = [&pattern.subject, &pattern.attr, &pattern.value].map(|term| match term {
        Term::Var(v) => schema.iter().position(|s| s == v),
        Term::Lit(_) => None,
    });
    let mut rel = Relation::empty(schema);
    'next: for t in triples {
        // Literal positions first, matched by reference — a rejected
        // candidate costs zero clones.
        if let Term::Lit(expected) = &pattern.subject {
            let ok = matches!(expected, Value::Str(s) if s.as_ref() == t.oid.0.as_ref());
            if !ok {
                continue 'next;
            }
        }
        if matches!(&pattern.attr, Term::Lit(_)) {
            // Attribute literals match through schema mappings.
            let ok = accepted_attrs
                .as_ref()
                .is_some_and(|acc| acc.iter().any(|a| a.as_ref() == t.attr.as_ref()));
            if !ok {
                continue 'next;
            }
        }
        if let Term::Lit(expected) = &pattern.value {
            if !expected.eq_values(&t.value) {
                continue 'next;
            }
        }
        // Variable positions: clone only values that enter the row;
        // repeated variables compare against the bound value in place.
        let mut row: Vec<Value> = Vec::with_capacity(rel.schema.len());
        for (pos, col) in positions.iter().enumerate() {
            let Some(col) = *col else { continue };
            match row.get(col) {
                None => row.push(match pos {
                    0 => Value::Str(t.oid.0.clone().into()),
                    1 => Value::Str(t.attr.clone().into()),
                    _ => t.value.clone(),
                }),
                Some(bound) => {
                    let agrees = match pos {
                        0 => bound.as_str() == Some(t.oid.0.as_ref()),
                        1 => bound.as_str() == Some(t.attr.as_ref()),
                        _ => bound.eq_values(&t.value),
                    };
                    if !agrees {
                        continue 'next; // repeated var mismatch
                    }
                }
            }
        }
        rel.rows.push(row);
    }
    rel
}

mod tag {
    pub const SCAN: u8 = 1;
    pub const MAT: u8 = 2;
    pub const JOIN: u8 = 3;
    pub const FILTER: u8 = 4;
    pub const PROJECT: u8 = 5;
    pub const ORDER_BY: u8 = 6;
    pub const LIMIT: u8 = 7;
    pub const TOP_N: u8 = 8;
    pub const SKYLINE: u8 = 9;
}

impl Wire for MqpNode {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            MqpNode::Scan { pattern } => {
                tag::SCAN.encode(buf);
                pattern.encode(buf);
            }
            MqpNode::Mat(rel) => {
                tag::MAT.encode(buf);
                rel.encode(buf);
            }
            MqpNode::Join { left, right } => {
                tag::JOIN.encode(buf);
                left.encode(buf);
                right.encode(buf);
            }
            MqpNode::Filter { input, expr } => {
                tag::FILTER.encode(buf);
                input.encode(buf);
                expr.encode(buf);
            }
            MqpNode::Project { input, vars } => {
                tag::PROJECT.encode(buf);
                input.encode(buf);
                vars.encode(buf);
            }
            MqpNode::OrderBy { input, items } => {
                tag::ORDER_BY.encode(buf);
                input.encode(buf);
                items.encode(buf);
            }
            MqpNode::Limit { input, n } => {
                tag::LIMIT.encode(buf);
                input.encode(buf);
                n.encode(buf);
            }
            MqpNode::TopN { input, items, n } => {
                tag::TOP_N.encode(buf);
                input.encode(buf);
                items.encode(buf);
                n.encode(buf);
            }
            MqpNode::Skyline { input, items } => {
                tag::SKYLINE.encode(buf);
                input.encode(buf);
                items.encode(buf);
            }
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(match u8::decode(buf)? {
            tag::SCAN => MqpNode::Scan { pattern: TriplePattern::decode(buf)? },
            tag::MAT => MqpNode::Mat(Relation::decode(buf)?),
            tag::JOIN => MqpNode::Join {
                left: Box::new(MqpNode::decode(buf)?),
                right: Box::new(MqpNode::decode(buf)?),
            },
            tag::FILTER => {
                MqpNode::Filter { input: Box::new(MqpNode::decode(buf)?), expr: Expr::decode(buf)? }
            }
            tag::PROJECT => MqpNode::Project {
                input: Box::new(MqpNode::decode(buf)?),
                vars: Wire::decode(buf)?,
            },
            tag::ORDER_BY => MqpNode::OrderBy {
                input: Box::new(MqpNode::decode(buf)?),
                items: Wire::decode(buf)?,
            },
            tag::LIMIT => {
                MqpNode::Limit { input: Box::new(MqpNode::decode(buf)?), n: Wire::decode(buf)? }
            }
            tag::TOP_N => MqpNode::TopN {
                input: Box::new(MqpNode::decode(buf)?),
                items: Wire::decode(buf)?,
                n: Wire::decode(buf)?,
            },
            tag::SKYLINE => MqpNode::Skyline {
                input: Box::new(MqpNode::decode(buf)?),
                items: Wire::decode(buf)?,
            },
            t => return Err(WireError::BadTag(t)),
        })
    }

    /// Arithmetic over the tree: a plan's embedded relations are sized
    /// (per forward decision and per simulated send), never encoded, to
    /// be measured.
    fn wire_size(&self) -> usize {
        1 + match self {
            MqpNode::Scan { pattern } => pattern.wire_size(),
            MqpNode::Mat(rel) => rel.wire_size(),
            MqpNode::Join { left, right } => left.wire_size() + right.wire_size(),
            MqpNode::Filter { input, expr } => input.wire_size() + expr.wire_size(),
            MqpNode::Project { input, vars } => input.wire_size() + vars.wire_size(),
            MqpNode::OrderBy { input, items } => input.wire_size() + items.wire_size(),
            MqpNode::Limit { input, n } => input.wire_size() + n.wire_size(),
            MqpNode::TopN { input, items, n } => {
                input.wire_size() + items.wire_size() + n.wire_size()
            }
            MqpNode::Skyline { input, items } => input.wire_size() + items.wire_size(),
        }
    }
}

impl Wire for Mqp {
    fn encode(&self, buf: &mut BytesMut) {
        self.qid.encode(buf);
        self.origin.encode(buf);
        self.root.encode(buf);
        self.filters.encode(buf);
        self.limit_hint.encode(buf);
        self.hops.encode(buf);
        self.coverage.encode(buf);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(Mqp {
            qid: Wire::decode(buf)?,
            origin: Wire::decode(buf)?,
            root: MqpNode::decode(buf)?,
            filters: Wire::decode(buf)?,
            limit_hint: Wire::decode(buf)?,
            hops: Wire::decode(buf)?,
            coverage: Wire::decode(buf)?,
        })
    }

    fn wire_size(&self) -> usize {
        self.qid.wire_size()
            + self.origin.wire_size()
            + self.root.wire_size()
            + self.filters.wire_size()
            + self.limit_hint.wire_size()
            + self.hops.wire_size()
            + self.coverage.wire_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unistore_vql::{analyze, parse};

    fn mqp_of(src: &str) -> MqpNode {
        let a = analyze(parse(src).unwrap()).unwrap();
        MqpNode::from_logical(&Logical::from_query(&a))
    }

    fn rel(schema: &[&str], rows: Vec<Vec<Value>>) -> Relation {
        Relation { schema: schema.iter().map(|s| Arc::from(*s)).collect(), rows }
    }

    #[test]
    fn resolve_left_to_right_and_reduce() {
        let mut plan = mqp_of("SELECT ?n,?g WHERE {(?a,'name',?n) (?a,'age',?g)}");
        assert_eq!(plan.scans_remaining(), 2);
        assert_eq!(plan.first_scan().unwrap().to_string(), "(?a,'name',?n)");

        let left = rel(&["a", "n"], vec![vec![Value::str("a1"), Value::str("alice")]]);
        assert!(plan.resolve_first_scan(left));
        plan.reduce();
        assert_eq!(plan.scans_remaining(), 1);
        assert_eq!(plan.first_scan().unwrap().to_string(), "(?a,'age',?g)");
        // The join's left side is materialized → fetch join possible.
        let (l, p) = plan.fetch_join_site().expect("fetch site");
        assert_eq!(l.len(), 1);
        assert_eq!(p.to_string(), "(?a,'age',?g)");

        let right = rel(&["a", "g"], vec![vec![Value::str("a1"), Value::Int(30)]]);
        assert!(plan.resolve_first_scan(right));
        plan.reduce();
        let out = plan.result().expect("fully reduced");
        assert_eq!(out.len(), 1);
        assert_eq!(out.schema.len(), 2); // projected to ?n, ?g
        assert_eq!(out.rows[0], vec![Value::str("alice"), Value::Int(30)]);
    }

    #[test]
    fn reduce_applies_filter_order_limit() {
        let mut plan =
            mqp_of("SELECT ?g WHERE {(?a,'age',?g) FILTER ?g > 10} ORDER BY ?g DESC LIMIT 2");
        let input = rel(
            &["a", "g"],
            vec![
                vec![Value::str("x"), Value::Int(5)],
                vec![Value::str("y"), Value::Int(30)],
                vec![Value::str("z"), Value::Int(20)],
                vec![Value::str("w"), Value::Int(40)],
            ],
        );
        plan.resolve_first_scan(input);
        plan.reduce();
        let out = plan.result().unwrap();
        assert_eq!(out.rows, vec![vec![Value::Int(40)], vec![Value::Int(30)]]);
    }

    #[test]
    fn bind_triples_literals_and_vars() {
        let q = parse("SELECT ?a,?v WHERE {(?a,'year',?v)}").unwrap();
        let triples = vec![
            Triple::new("a12", "year", Value::Int(2006)),
            Triple::new("v34", "year", Value::Int(2005)),
            Triple::new("a12", "title", Value::str("nope")),
        ];
        let rel = bind_triples(&q.patterns[0], &triples, &MappingSet::new());
        assert_eq!(rel.schema.len(), 2);
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn bind_triples_repeated_var_must_agree() {
        let q = parse("SELECT ?x WHERE {(?x,'self',?x)}").unwrap();
        let triples = vec![
            Triple::new("a", "self", Value::str("a")),
            Triple::new("a", "self", Value::str("b")),
        ];
        let rel = bind_triples(&q.patterns[0], &triples, &MappingSet::new());
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.rows[0][0], Value::str("a"));
    }

    #[test]
    fn bind_triples_respects_mappings() {
        let q = parse("SELECT ?v WHERE {(?a,'confname',?v)}").unwrap();
        let triples = vec![
            Triple::new("c1", "confname", Value::str("ICDE")),
            Triple::new("c2", "dblp:conf", Value::str("VLDB")),
            Triple::new("c3", "unrelated", Value::str("X")),
        ];
        let mut maps = MappingSet::new();
        maps.add(&unistore_store::Mapping::new("confname", "dblp:conf"));
        let rel = bind_triples(&q.patterns[0], &triples, &maps);
        assert_eq!(rel.len(), 2, "mapped attribute must match too");
    }

    #[test]
    fn bind_triples_attr_var_binds_attr_name() {
        // Schema-level querying: the attribute itself becomes data.
        let q = parse("SELECT ?attr WHERE {('a12',?attr,?v)}").unwrap();
        let triples = vec![
            Triple::new("a12", "year", Value::Int(2006)),
            Triple::new("other", "year", Value::Int(2005)),
        ];
        let rel = bind_triples(&q.patterns[0], &triples, &MappingSet::new());
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.rows[0][0], Value::str("year"));
    }

    /// `bind_triples` as it was before it resolved column positions
    /// once — one `Option` slot per column and a collecting pass per
    /// triple. Kept as the reference the property below compares with.
    fn reference_bind_triples(
        pattern: &TriplePattern,
        triples: &[Triple],
        mappings: &MappingSet,
    ) -> Relation {
        let mut schema: Vec<Arc<str>> = Vec::new();
        for t in [&pattern.subject, &pattern.attr, &pattern.value] {
            if let Term::Var(v) = t {
                if !schema.iter().any(|s| s == v) {
                    schema.push(v.clone());
                }
            }
        }
        let accepted_attrs: Option<Vec<Arc<str>>> = match &pattern.attr {
            Term::Lit(Value::Str(a)) => Some(mappings.expand(a)),
            _ => None,
        };
        let mut rel = Relation::empty(schema);
        'next: for t in triples {
            if let Term::Lit(expected) = &pattern.subject {
                let ok = matches!(expected, Value::Str(s) if s.as_ref() == t.oid.0.as_ref());
                if !ok {
                    continue 'next;
                }
            }
            if matches!(&pattern.attr, Term::Lit(_)) {
                let ok = accepted_attrs
                    .as_ref()
                    .is_some_and(|acc| acc.iter().any(|a| a.as_ref() == t.attr.as_ref()));
                if !ok {
                    continue 'next;
                }
            }
            if let Term::Lit(expected) = &pattern.value {
                if !expected.eq_values(&t.value) {
                    continue 'next;
                }
            }
            let mut row: Vec<Option<Value>> = vec![None; rel.schema.len()];
            for (pos, term) in [(0u8, &pattern.subject), (1, &pattern.attr), (2, &pattern.value)] {
                if let Term::Var(v) = term {
                    let Some(col) = rel.col(v) else { continue 'next };
                    match &row[col] {
                        None => {
                            row[col] = Some(match pos {
                                0 => Value::Str(t.oid.0.clone().into()),
                                1 => Value::Str(t.attr.clone().into()),
                                _ => t.value.clone(),
                            })
                        }
                        Some(bound) => {
                            let agrees = match pos {
                                0 => bound.as_str() == Some(t.oid.0.as_ref()),
                                1 => bound.as_str() == Some(t.attr.as_ref()),
                                _ => bound.eq_values(&t.value),
                            };
                            if !agrees {
                                continue 'next;
                            }
                        }
                    }
                }
            }
            if let Some(vals) = row.into_iter().collect::<Option<Vec<Value>>>() {
                rel.rows.push(vals);
            }
        }
        rel
    }

    /// Names that serve as OIDs, attributes and string values alike, so
    /// repeated variables across positions find agreeing triples.
    const NAMES: [&str; 4] = ["n", "m", "name", "label"];

    /// A pattern position: one of two variables (repeats are common) or
    /// a literal — a name, or a number where a name is expected.
    fn term(pick: u64) -> Term {
        match pick % 8 {
            0..=2 => Term::Var(Arc::from("x")),
            3 | 4 => Term::Var(Arc::from("y")),
            5 => Term::Lit(Value::Int((pick / 8 % 3) as i64)),
            _ => Term::Lit(Value::str(NAMES[(pick / 8 % 4) as usize])),
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_bind_triples_matches_reference(
            picks in (proptest::any::<u64>(), proptest::any::<u64>(), proptest::any::<u64>()),
            triples in proptest::collection::vec((0usize..4, 0usize..4, 0u64..12), 0..40),
            mapped: bool,
        ) {
            let pattern =
                TriplePattern { subject: term(picks.0), attr: term(picks.1), value: term(picks.2) };
            let triples: Vec<Triple> = triples
                .into_iter()
                .map(|(oid, attr, v)| {
                    let value = match v % 3 {
                        0 => Value::Int((v / 3 % 3) as i64),
                        1 => Value::Float((v / 3 % 3) as f64),
                        _ => Value::str(NAMES[(v / 3) as usize]),
                    };
                    Triple::new(NAMES[oid], NAMES[attr], value)
                })
                .collect();
            let mut maps = MappingSet::new();
            if mapped {
                maps.add(&unistore_store::Mapping::new("name", "label"));
            }
            proptest::prop_assert_eq!(
                bind_triples(&pattern, &triples, &maps),
                reference_bind_triples(&pattern, &triples, &maps)
            );
        }
    }

    #[test]
    fn wire_roundtrip_full_plan() {
        let mut plan = mqp_of(
            "SELECT ?n WHERE {(?a,'name',?n) (?a,'age',?g) FILTER ?g >= 30}
             ORDER BY SKYLINE OF ?g MIN TOP 3 LIMIT 2",
        );
        // Partially resolve so a Mat node is in the tree too.
        plan.resolve_first_scan(rel(&["a", "n"], vec![vec![Value::str("a1"), Value::str("x")]]));
        let filters = parse("SELECT ?g WHERE {(?a,'age',?g) FILTER ?g >= 30}").unwrap().filters;
        let mut mqp = Mqp::new(42, 7, plan, filters, Some(2));
        mqp.coverage.record_scan(3, 4);
        mqp.coverage.record_skip();
        let b = mqp.to_bytes();
        assert_eq!(b.len(), mqp.wire_size());
        assert_eq!(Mqp::from_bytes(&b).unwrap(), mqp);
    }

    #[test]
    fn coverage_accounting() {
        let mut c = Coverage::full();
        assert_eq!(c.fraction(), 1.0);
        assert!(c.complete());
        c.record_scan(4, 4);
        assert_eq!(c.fraction(), 1.0);
        assert!(c.complete());
        // A scan with one failed part: fraction drops, shortfall flagged.
        c.record_scan(3, 4);
        assert_eq!(c.shortfalls, 1);
        assert!((c.fraction() - 7.0 / 8.0).abs() < 1e-12);
        assert!(!c.complete());
        // A skipped subtree counts as an unreached part.
        let mut c = Coverage::full();
        c.record_scan(2, 2);
        c.record_skip();
        assert!((c.fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert!(!c.complete());
        // A query that died without any result reads as zero coverage.
        assert_eq!(Coverage::failed().fraction(), 0.0);
    }
}
