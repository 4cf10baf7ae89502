//! Wire encodings for AST types.
//!
//! Mutant Query Plans travel between peers with their patterns, filters
//! and ranking clauses embedded, so the AST must serialize with honest
//! sizes.

use bytes::{Bytes, BytesMut};

use unistore_store::Value;
use unistore_util::wire::{Wire, WireError};

use crate::ast::*;

impl Wire for Term {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Term::Var(v) => {
                0u8.encode(buf);
                v.encode(buf);
            }
            Term::Lit(l) => {
                1u8.encode(buf);
                l.encode(buf);
            }
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(match u8::decode(buf)? {
            0 => Term::Var(Wire::decode(buf)?),
            1 => Term::Lit(Value::decode(buf)?),
            t => return Err(WireError::BadTag(t)),
        })
    }

    fn wire_size(&self) -> usize {
        1 + match self {
            Term::Var(v) => v.wire_size(),
            Term::Lit(l) => l.wire_size(),
        }
    }
}

impl Wire for TriplePattern {
    fn encode(&self, buf: &mut BytesMut) {
        self.subject.encode(buf);
        self.attr.encode(buf);
        self.value.encode(buf);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(TriplePattern {
            subject: Term::decode(buf)?,
            attr: Term::decode(buf)?,
            value: Term::decode(buf)?,
        })
    }

    fn wire_size(&self) -> usize {
        self.subject.wire_size() + self.attr.wire_size() + self.value.wire_size()
    }
}

impl Wire for CmpOp {
    fn encode(&self, buf: &mut BytesMut) {
        let t: u8 = match self {
            CmpOp::Eq => 0,
            CmpOp::Ne => 1,
            CmpOp::Lt => 2,
            CmpOp::Le => 3,
            CmpOp::Gt => 4,
            CmpOp::Ge => 5,
        };
        t.encode(buf);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(match u8::decode(buf)? {
            0 => CmpOp::Eq,
            1 => CmpOp::Ne,
            2 => CmpOp::Lt,
            3 => CmpOp::Le,
            4 => CmpOp::Gt,
            5 => CmpOp::Ge,
            t => return Err(WireError::BadTag(t)),
        })
    }

    fn wire_size(&self) -> usize {
        1
    }
}

impl Wire for Scalar {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Scalar::Var(v) => {
                0u8.encode(buf);
                v.encode(buf);
            }
            Scalar::Lit(l) => {
                1u8.encode(buf);
                l.encode(buf);
            }
            Scalar::EDist(a, b) => {
                2u8.encode(buf);
                a.encode(buf);
                b.encode(buf);
            }
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(match u8::decode(buf)? {
            0 => Scalar::Var(Wire::decode(buf)?),
            1 => Scalar::Lit(Value::decode(buf)?),
            2 => Scalar::EDist(Box::new(Scalar::decode(buf)?), Box::new(Scalar::decode(buf)?)),
            t => return Err(WireError::BadTag(t)),
        })
    }

    fn wire_size(&self) -> usize {
        1 + match self {
            Scalar::Var(v) => v.wire_size(),
            Scalar::Lit(l) => l.wire_size(),
            Scalar::EDist(a, b) => a.wire_size() + b.wire_size(),
        }
    }
}

impl Wire for Expr {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Expr::Cmp { op, lhs, rhs } => {
                0u8.encode(buf);
                op.encode(buf);
                lhs.encode(buf);
                rhs.encode(buf);
            }
            Expr::And(a, b) => {
                1u8.encode(buf);
                a.encode(buf);
                b.encode(buf);
            }
            Expr::Or(a, b) => {
                2u8.encode(buf);
                a.encode(buf);
                b.encode(buf);
            }
            Expr::Not(a) => {
                3u8.encode(buf);
                a.encode(buf);
            }
            Expr::Prefix { scalar, prefix } => {
                4u8.encode(buf);
                scalar.encode(buf);
                prefix.encode(buf);
            }
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(match u8::decode(buf)? {
            0 => Expr::Cmp {
                op: CmpOp::decode(buf)?,
                lhs: Scalar::decode(buf)?,
                rhs: Scalar::decode(buf)?,
            },
            1 => Expr::And(Box::new(Expr::decode(buf)?), Box::new(Expr::decode(buf)?)),
            2 => Expr::Or(Box::new(Expr::decode(buf)?), Box::new(Expr::decode(buf)?)),
            3 => Expr::Not(Box::new(Expr::decode(buf)?)),
            4 => Expr::Prefix { scalar: Scalar::decode(buf)?, prefix: Scalar::decode(buf)? },
            t => return Err(WireError::BadTag(t)),
        })
    }

    fn wire_size(&self) -> usize {
        1 + match self {
            Expr::Cmp { op, lhs, rhs } => op.wire_size() + lhs.wire_size() + rhs.wire_size(),
            Expr::And(a, b) | Expr::Or(a, b) => a.wire_size() + b.wire_size(),
            Expr::Not(a) => a.wire_size(),
            Expr::Prefix { scalar, prefix } => scalar.wire_size() + prefix.wire_size(),
        }
    }
}

impl Wire for OrderItem {
    fn encode(&self, buf: &mut BytesMut) {
        self.var.encode(buf);
        (matches!(self.dir, SortDir::Desc)).encode(buf);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(OrderItem {
            var: Wire::decode(buf)?,
            dir: if bool::decode(buf)? { SortDir::Desc } else { SortDir::Asc },
        })
    }

    fn wire_size(&self) -> usize {
        self.var.wire_size() + 1
    }
}

impl Wire for SkyItem {
    fn encode(&self, buf: &mut BytesMut) {
        self.var.encode(buf);
        (matches!(self.dir, SkyDir::Max)).encode(buf);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(SkyItem {
            var: Wire::decode(buf)?,
            dir: if bool::decode(buf)? { SkyDir::Max } else { SkyDir::Min },
        })
    }

    fn wire_size(&self) -> usize {
        self.var.wire_size() + 1
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::parser::parse;

    /// Encodes, checks the arithmetic size against the bytes, decodes.
    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) {
        let b = v.to_bytes();
        assert_eq!(b.len(), v.wire_size(), "wire_size of {v:?}");
        assert_eq!(&T::from_bytes(&b).unwrap(), v);
    }

    #[test]
    fn paper_query_parts_roundtrip() {
        let q = parse(
            "SELECT ?name WHERE {(?a,'name',?name) (?c,'series',?sr) (?c,'year',2007)
             FILTER edist(?sr,'ICDE')<3 AND ?name != 'x' OR NOT ?name = 'y'
             FILTER prefix(?name,'Al') AND NOT edist(?name,?sr) >= 2.5}
             ORDER BY SKYLINE OF ?name MIN, ?sr MAX",
        )
        .unwrap();
        q.patterns.iter().for_each(roundtrip);
        q.filters.iter().for_each(roundtrip);
        q.skyline.iter().for_each(roundtrip);
        let q = parse("SELECT ?n WHERE {(?a,'name',?n)} ORDER BY ?n DESC, ?a LIMIT 3").unwrap();
        q.order_by.iter().for_each(roundtrip);
    }

    /// Every shape the sizing arithmetic distinguishes, built by hand:
    /// each `Term`, `Scalar` and `Expr` variant, nested ones included,
    /// and both directions of the ordering items.
    #[test]
    fn every_ast_shape_sizes_by_arithmetic() {
        let var = |v: &str| Scalar::Var(Arc::from(v));
        let lits = [Value::str(""), Value::str("ICDE 2007"), Value::Int(-300), Value::Float(0.5)];
        let mut scalars = vec![var("x"), var(&"long".repeat(40))];
        scalars.extend(lits.iter().cloned().map(Scalar::Lit));
        let edist = Scalar::EDist(Box::new(var("sr")), Box::new(Scalar::Lit(Value::str("ICDE"))));
        scalars.push(Scalar::EDist(Box::new(edist.clone()), Box::new(var("y"))));
        scalars.push(edist.clone());
        scalars.iter().for_each(roundtrip);

        let mut terms = vec![Term::Var(Arc::from("a"))];
        terms.extend(lits.iter().cloned().map(Term::Lit));
        terms.iter().for_each(roundtrip);
        roundtrip(&TriplePattern {
            subject: terms[0].clone(),
            attr: terms[2].clone(),
            value: terms[3].clone(),
        });

        let ops = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
        let mut exprs: Vec<Expr> = ops
            .iter()
            .zip(scalars.iter().cycle())
            .map(|(&op, s)| Expr::Cmp { op, lhs: s.clone(), rhs: edist.clone() })
            .collect();
        exprs.push(Expr::Prefix { scalar: var("name"), prefix: Scalar::Lit(Value::str("Al")) });
        let (a, b) = (Box::new(exprs[0].clone()), Box::new(exprs[6].clone()));
        exprs.push(Expr::And(a.clone(), b.clone()));
        exprs.push(Expr::Or(a.clone(), b.clone()));
        exprs.push(Expr::Not(a.clone()));
        exprs.push(Expr::Not(Box::new(Expr::Or(
            Box::new(Expr::And(a, Box::new(Expr::Not(b.clone())))),
            b,
        ))));
        exprs.iter().for_each(roundtrip);

        for dir in [SkyDir::Min, SkyDir::Max] {
            roundtrip(&SkyItem { var: Arc::from("y"), dir });
        }
    }

    #[test]
    fn order_item_roundtrip() {
        for dir in [SortDir::Asc, SortDir::Desc] {
            roundtrip(&OrderItem { var: Arc::from("x"), dir });
        }
    }

    #[test]
    fn cmp_ops_roundtrip() {
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            roundtrip(&op);
        }
    }
}
