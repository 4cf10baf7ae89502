//! Filter-expression evaluation over relation rows.

use unistore_store::qgram::edit_distance;
use unistore_store::Value;
use unistore_vql::{CmpOp, Expr, Scalar};

use crate::relation::Relation;

/// Evaluates a scalar against one row. Returns `None` when a variable is
/// unbound in this relation or `edist` gets non-string arguments.
pub fn eval_scalar(s: &Scalar, rel: &Relation, row: &[Value]) -> Option<Value> {
    match s {
        Scalar::Var(v) => rel.col(v).map(|i| row[i].clone()),
        Scalar::Lit(v) => Some(v.clone()),
        Scalar::EDist(a, b) => {
            let va = eval_scalar(a, rel, row)?;
            let vb = eval_scalar(b, rel, row)?;
            let (sa, sb) = (va.as_str()?, vb.as_str()?);
            Some(Value::Int(edit_distance(sa, sb) as i64))
        }
    }
}

/// Evaluates a boolean filter against one row. Unbound variables make
/// the predicate false (SQL-style unknown → filtered out).
pub fn eval_expr(e: &Expr, rel: &Relation, row: &[Value]) -> bool {
    match e {
        Expr::Cmp { op, lhs, rhs } => {
            let (Some(a), Some(b)) = (eval_scalar(lhs, rel, row), eval_scalar(rhs, rel, row))
            else {
                return false;
            };
            op.eval(a.cmp_values(&b))
        }
        Expr::Prefix { scalar, prefix } => {
            let (Some(s), Some(p)) = (eval_scalar(scalar, rel, row), eval_scalar(prefix, rel, row))
            else {
                return false;
            };
            match (s.as_str(), p.as_str()) {
                (Some(s), Some(p)) => s.starts_with(p),
                _ => false,
            }
        }
        Expr::And(a, b) => eval_expr(a, rel, row) && eval_expr(b, rel, row),
        Expr::Or(a, b) => eval_expr(a, rel, row) || eval_expr(b, rel, row),
        Expr::Not(a) => !eval_expr(a, rel, row),
    }
}

/// Filters a relation in place.
pub fn filter_relation(rel: &mut Relation, expr: &Expr) {
    // `eval_expr` reads only the schema: lend it the relation with the
    // rows moved out instead of cloning every row to get one.
    let mut rows = std::mem::take(&mut rel.rows);
    rows.retain(|row| eval_expr(expr, rel, row));
    rel.rows = rows;
}

/// Extracts, from a filter, the tightest `lo ≤ var ≤ hi` bounds it
/// implies for `var` — used to turn filters into key-range scans.
/// Handles conjunctions; disjunctions/negations contribute nothing.
/// Returns `(lo, hi)` as optional inclusive bounds.
pub fn range_bounds_for(expr: &Expr, var: &str) -> (Option<Value>, Option<Value>) {
    let mut lo: Option<Value> = None;
    let mut hi: Option<Value> = None;
    collect_bounds(expr, var, &mut lo, &mut hi);
    (lo, hi)
}

fn collect_bounds(expr: &Expr, var: &str, lo: &mut Option<Value>, hi: &mut Option<Value>) {
    match expr {
        Expr::And(a, b) => {
            collect_bounds(a, var, lo, hi);
            collect_bounds(b, var, lo, hi);
        }
        Expr::Cmp { op, lhs: Scalar::Var(v), rhs: Scalar::Lit(lit) } if v.as_ref() == var => {
            apply_bound(*op, lit, lo, hi);
        }
        Expr::Cmp { op, lhs: Scalar::Lit(lit), rhs: Scalar::Var(v) } if v.as_ref() == var => {
            apply_bound(flip(*op), lit, lo, hi);
        }
        _ => {}
    }
}

fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        other => other,
    }
}

fn apply_bound(op: CmpOp, lit: &Value, lo: &mut Option<Value>, hi: &mut Option<Value>) {
    use std::cmp::Ordering::*;
    let tighten_lo = |lo: &mut Option<Value>| {
        if lo.as_ref().is_none_or(|c| lit.cmp_values(c) == Greater) {
            *lo = Some(lit.clone());
        }
    };
    let tighten_hi = |hi: &mut Option<Value>| {
        if hi.as_ref().is_none_or(|c| lit.cmp_values(c) == Less) {
            *hi = Some(lit.clone());
        }
    };
    match op {
        CmpOp::Eq => {
            tighten_lo(lo);
            tighten_hi(hi);
        }
        // Strict bounds stay conservative (inclusive key range, exact
        // filtering happens row-wise afterwards).
        CmpOp::Gt | CmpOp::Ge => tighten_lo(lo),
        CmpOp::Lt | CmpOp::Le => tighten_hi(hi),
        CmpOp::Ne => {}
    }
}

/// Extracts a `prefix(?var, 'p')` constraint on `var` from a filter
/// conjunct, if present.
pub fn prefix_for(expr: &Expr, var: &str) -> Option<String> {
    match expr {
        Expr::And(a, b) => prefix_for(a, var).or_else(|| prefix_for(b, var)),
        Expr::Prefix { scalar: Scalar::Var(v), prefix: Scalar::Lit(Value::Str(p)) }
            if v.as_ref() == var =>
        {
            Some(p.to_string())
        }
        _ => None,
    }
}

/// Extracts an `edist(?var, 'target') <= k`-style similarity constraint
/// on `var` from a filter conjunct, if present. `< k` normalizes to
/// `<= k-1`.
pub fn similarity_for(expr: &Expr, var: &str) -> Option<(String, usize)> {
    match expr {
        Expr::And(a, b) => similarity_for(a, var).or_else(|| similarity_for(b, var)),
        Expr::Cmp { op, lhs: Scalar::EDist(a, b), rhs: Scalar::Lit(Value::Int(k)) } => {
            let k = match op {
                CmpOp::Le => *k,
                CmpOp::Lt => *k - 1,
                _ => return None,
            };
            if k < 0 {
                return None;
            }
            match (a.as_ref(), b.as_ref()) {
                (Scalar::Var(v), Scalar::Lit(Value::Str(s)))
                | (Scalar::Lit(Value::Str(s)), Scalar::Var(v))
                    if v.as_ref() == var =>
                {
                    Some((s.to_string(), k as usize))
                }
                _ => None,
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use unistore_vql::parse;

    fn rel() -> Relation {
        Relation {
            schema: vec![Arc::from("age"), Arc::from("name")],
            rows: vec![
                vec![Value::Int(30), Value::str("alice")],
                vec![Value::Int(45), Value::str("bob")],
            ],
        }
    }

    fn filter_of(src: &str) -> Expr {
        parse(src).unwrap().filters.remove(0)
    }

    #[test]
    fn cmp_filters_rows() {
        let mut r = rel();
        let e = filter_of("SELECT ?age WHERE {(?a,'age',?age) FILTER ?age < 40}");
        filter_relation(&mut r, &e);
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0][1], Value::str("alice"));
    }

    #[test]
    fn edist_evaluates() {
        let mut r = rel();
        let e = filter_of("SELECT ?name WHERE {(?a,'name',?name) FILTER edist(?name,'alicia')<=2}");
        filter_relation(&mut r, &e);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn unbound_var_is_false() {
        let mut r = rel();
        let e = filter_of("SELECT ?x WHERE {(?a,'x',?ghost) FILTER ?ghost = 1}");
        filter_relation(&mut r, &e);
        assert!(r.is_empty());
    }

    #[test]
    fn boolean_combinators() {
        let mut r = rel();
        let e = filter_of(
            "SELECT ?age WHERE {(?a,'age',?age)(?a,'name',?name)
             FILTER ?age >= 30 AND NOT ?name = 'bob'}",
        );
        filter_relation(&mut r, &e);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn range_bounds_extraction() {
        let e = filter_of("SELECT ?v WHERE {(?a,'y',?v) FILTER ?v >= 2000 AND ?v < 2010}");
        let (lo, hi) = range_bounds_for(&e, "v");
        assert_eq!(lo, Some(Value::Int(2000)));
        assert_eq!(hi, Some(Value::Int(2010))); // conservative inclusive
    }

    #[test]
    fn range_bounds_flipped_literal() {
        let e = filter_of("SELECT ?v WHERE {(?a,'y',?v) FILTER 2000 <= ?v}");
        let (lo, hi) = range_bounds_for(&e, "v");
        assert_eq!(lo, Some(Value::Int(2000)));
        assert_eq!(hi, None);
    }

    #[test]
    fn range_bounds_eq_pins_both() {
        let e = filter_of("SELECT ?v WHERE {(?a,'y',?v) FILTER ?v = 5}");
        let (lo, hi) = range_bounds_for(&e, "v");
        assert_eq!(lo, Some(Value::Int(5)));
        assert_eq!(hi, Some(Value::Int(5)));
    }

    #[test]
    fn disjunction_contributes_nothing() {
        let e = filter_of("SELECT ?v WHERE {(?a,'y',?v) FILTER ?v = 5 OR ?v = 9}");
        let (lo, hi) = range_bounds_for(&e, "v");
        assert_eq!((lo, hi), (None, None));
    }

    #[test]
    fn prefix_predicate_filters_and_extracts() {
        let mut r = rel();
        let e = filter_of("SELECT ?name WHERE {(?a,'name',?name) FILTER prefix(?name,'al')}");
        assert_eq!(prefix_for(&e, "name"), Some("al".to_string()));
        assert_eq!(prefix_for(&e, "other"), None);
        filter_relation(&mut r, &e);
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0][1], Value::str("alice"));
    }

    #[test]
    fn prefix_on_non_string_is_false() {
        let mut r = rel();
        let e = filter_of("SELECT ?age WHERE {(?a,'age',?age) FILTER prefix(?age,'3')}");
        filter_relation(&mut r, &e);
        assert!(r.is_empty(), "numbers have no prefixes");
    }

    #[test]
    fn similarity_extraction() {
        let e = filter_of("SELECT ?s WHERE {(?c,'series',?s) FILTER edist(?s,'ICDE')<3}");
        assert_eq!(similarity_for(&e, "s"), Some(("ICDE".to_string(), 2)));
        assert_eq!(similarity_for(&e, "other"), None);
        let e = filter_of("SELECT ?s WHERE {(?c,'series',?s) FILTER edist(?s,'ICDE')<=3}");
        assert_eq!(similarity_for(&e, "s"), Some(("ICDE".to_string(), 3)));
    }
}
