//! The tabular intermediate representation.
//!
//! Plans pass relations between operators — and, MQP-style, between
//! peers, which is why [`Relation`] is wire-encodable: shipping a plan
//! with embedded partial results has an honest byte cost.

use std::sync::Arc;

use bytes::{Bytes, BytesMut};

use unistore_store::Value;
use unistore_util::fxhash::mix64;
use unistore_util::wire::{Wire, WireError};
use unistore_util::FxHashMap;

/// A bag of rows over a variable schema.
#[derive(Clone, Debug, PartialEq)]
pub struct Relation {
    /// Column names (VQL variables).
    pub schema: Vec<Arc<str>>,
    /// Rows, each as long as the schema.
    pub rows: Vec<Vec<Value>>,
}

impl Relation {
    /// Empty relation over a schema.
    pub fn empty(schema: Vec<Arc<str>>) -> Relation {
        Relation { schema, rows: Vec::new() }
    }

    /// Column index of a variable.
    pub fn col(&self, var: &str) -> Option<usize> {
        self.schema.iter().position(|c| c.as_ref() == var)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Projects onto the given variables. Variables missing from the
    /// schema are dropped from the result: a plan can arrive off the
    /// wire, so a schema mismatch must degrade, not crash the node.
    pub fn project(&self, vars: &[Arc<str>]) -> Relation {
        let kept: Vec<(Arc<str>, usize)> =
            vars.iter().filter_map(|v| self.col(v).map(|i| (v.clone(), i))).collect();
        Relation {
            schema: kept.iter().map(|(v, _)| v.clone()).collect(),
            rows: self
                .rows
                .iter()
                .map(|r| kept.iter().map(|&(_, i)| r[i].clone()).collect())
                .collect(),
        }
    }

    /// Natural (hash) join on all shared variables. With no shared
    /// variables this degenerates to the Cartesian product.
    ///
    /// The hash table is always built on `other` and probed with
    /// `self`'s rows in order, whichever side is smaller: output rows
    /// come out in `self`'s order and, per `self` row, in `other`'s
    /// order — an order `LIMIT` makes observable, so the build side is
    /// not chosen by size.
    pub fn join(&self, other: &Relation) -> Relation {
        let shared: Vec<Arc<str>> =
            self.schema.iter().filter(|v| other.col(v).is_some()).cloned().collect();
        let mut schema = self.schema.clone();
        for v in &other.schema {
            if self.col(v).is_none() {
                schema.push(v.clone());
            }
        }
        let other_extra: Vec<usize> = other
            .schema
            .iter()
            .enumerate()
            .filter(|(_, v)| self.col(v).is_none())
            .map(|(i, _)| i)
            .collect();
        let joined = |l: &[Value], r: &[Value]| {
            let mut row = Vec::with_capacity(schema.len());
            row.extend_from_slice(l);
            row.extend(other_extra.iter().map(|&i| r[i].clone()));
            row
        };

        let mut rows = Vec::new();
        if shared.is_empty() {
            for l in &self.rows {
                for r in &other.rows {
                    rows.push(joined(l, r));
                }
            }
            return Relation { schema, rows };
        }

        // `shared` holds exactly the variables present in both schemas,
        // so the lookups always hit; filter_map keeps that invariant
        // local instead of panicking if it ever breaks.
        let l_keys: Vec<usize> = shared.iter().filter_map(|v| self.col(v)).collect();
        let r_keys: Vec<usize> = shared.iter().filter_map(|v| other.col(v)).collect();
        // One mixed hash per row over its join columns; rows that only
        // collide are told apart by the `eq_values` check below.
        let key_of = |row: &[Value], cols: &[usize]| {
            cols.iter().fold(0u64, |h, &c| mix64(h ^ value_hash(&row[c])))
        };
        // Chained table: `heads` maps a key to its first `other` row,
        // `next[i]` to the following row with the same key. Inserting
        // in reverse makes every chain ascend, so a probe meets its
        // matches in `other`'s order.
        const END: u32 = u32::MAX;
        assert!(other.rows.len() < END as usize, "relation too large to index with u32");
        let mut heads: FxHashMap<u64, u32> =
            FxHashMap::with_capacity_and_hasher(other.rows.len(), Default::default());
        let mut next = vec![END; other.rows.len()];
        for (i, r) in other.rows.iter().enumerate().rev() {
            next[i] = heads.insert(key_of(r, &r_keys), i as u32).unwrap_or(END);
        }
        for l in &self.rows {
            let mut at = heads.get(&key_of(l, &l_keys)).copied().unwrap_or(END);
            while at != END {
                let r = &other.rows[at as usize];
                // Verify (hash collisions, numeric equality).
                if l_keys.iter().zip(&r_keys).all(|(&lk, &rk)| l[lk].eq_values(&r[rk])) {
                    rows.push(joined(l, r));
                }
                at = next[at as usize];
            }
        }
        Relation { schema, rows }
    }

    /// Removes duplicate rows (first occurrence wins).
    pub fn distinct(&mut self) {
        let mut seen: unistore_util::FxHashSet<Vec<u64>> = Default::default();
        let rows = std::mem::take(&mut self.rows);
        self.rows =
            rows.into_iter().filter(|r| seen.insert(r.iter().map(value_hash).collect())).collect();
    }

    /// Union with another relation over the same schema (columns are
    /// aligned by name). An incompatible fragment — one whose schema
    /// does not contain the same variables — is dropped whole: result
    /// fragments arrive from remote peers, and a malformed one must
    /// degrade the answer, not crash the node.
    pub fn union(&mut self, other: Relation) {
        if self.schema == other.schema {
            self.rows.extend(other.rows);
            return;
        }
        let aligned: Option<Vec<usize>> = self.schema.iter().map(|v| other.col(v)).collect();
        let Some(idx) = aligned else { return };
        if self.schema.len() != other.schema.len() {
            return;
        }
        self.rows.extend(
            other.rows.into_iter().map(|r| idx.iter().map(|&i| r[i].clone()).collect::<Vec<_>>()),
        );
    }
}

/// Hash of a value consistent with `eq_values` (numeric classes collapse
/// onto the f64 encoding). Delegates to [`Value::semantic_hash`] — the
/// same hash `Triple::field_hash` answers at the storage leaves, which
/// is what makes Bloom-filtered semi-join scans conservative; keep them
/// one function.
pub fn value_hash(v: &Value) -> u64 {
    v.semantic_hash()
}

impl Wire for Relation {
    fn encode(&self, buf: &mut BytesMut) {
        self.schema.encode(buf);
        unistore_util::wire::put_varint(buf, self.rows.len() as u64);
        for r in &self.rows {
            debug_assert_eq!(r.len(), self.schema.len());
            for v in r {
                v.encode(buf);
            }
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let schema = Vec::<Arc<str>>::decode(buf)?;
        let n = unistore_util::wire::get_varint(buf)?;
        if n > (1 << 24) {
            return Err(WireError::BadLength(n));
        }
        let mut rows = Vec::with_capacity(n.min(1024) as usize);
        for _ in 0..n {
            let mut row = Vec::with_capacity(schema.len().min(64));
            for _ in 0..schema.len() {
                row.push(Value::decode(buf)?);
            }
            rows.push(row);
        }
        Ok(Relation { schema, rows })
    }

    fn wire_size(&self) -> usize {
        self.schema.wire_size()
            + unistore_util::wire::varint_size(self.rows.len() as u64)
            + self.rows.iter().flatten().map(Wire::wire_size).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(schema: &[&str], rows: &[&[Value]]) -> Relation {
        Relation {
            schema: schema.iter().map(|s| Arc::from(*s)).collect(),
            rows: rows.iter().map(|r| r.to_vec()).collect(),
        }
    }

    #[test]
    fn project_reorders_columns() {
        let r = rel(&["a", "b"], &[&[Value::Int(1), Value::str("x")]]);
        let p = r.project(&[Arc::from("b"), Arc::from("a")]);
        assert_eq!(p.schema[0].as_ref(), "b");
        assert_eq!(p.rows[0], vec![Value::str("x"), Value::Int(1)]);
    }

    #[test]
    fn join_on_shared_var() {
        let l = rel(
            &["a", "name"],
            &[&[Value::str("a12"), Value::str("alice")], &[Value::str("a13"), Value::str("bob")]],
        );
        let r = rel(
            &["a", "age"],
            &[&[Value::str("a12"), Value::Int(30)], &[Value::str("a99"), Value::Int(50)]],
        );
        let j = l.join(&r);
        assert_eq!(j.schema.len(), 3);
        assert_eq!(j.len(), 1);
        assert_eq!(j.rows[0], vec![Value::str("a12"), Value::str("alice"), Value::Int(30)]);
    }

    #[test]
    fn join_without_shared_is_cartesian() {
        let l = rel(&["a"], &[&[Value::Int(1)], &[Value::Int(2)]]);
        let r = rel(&["b"], &[&[Value::Int(3)], &[Value::Int(4)]]);
        assert_eq!(l.join(&r).len(), 4);
    }

    #[test]
    fn join_numeric_classes_unify() {
        let l = rel(&["x"], &[&[Value::Int(3)]]);
        let r = rel(&["x"], &[&[Value::Float(3.0)]]);
        assert_eq!(l.join(&r).len(), 1, "Int 3 must join Float 3.0");
    }

    #[test]
    fn multi_var_join() {
        let l =
            rel(&["a", "b"], &[&[Value::Int(1), Value::Int(2)], &[Value::Int(1), Value::Int(3)]]);
        let r = rel(&["b", "a"], &[&[Value::Int(2), Value::Int(1)]]);
        let j = l.join(&r);
        assert_eq!(j.len(), 1);
    }

    /// Small mixed-type values: ints, the floats equal to them, and
    /// one-letter strings — duplicates and Int/Float matches abound.
    struct SmallValue;
    impl proptest::Strategy for SmallValue {
        type Value = Value;

        fn generate(&self, rng: &mut proptest::TestRng) -> Value {
            let n = (rng.next_u64() % 3) as i64;
            match rng.next_u64() % 3 {
                0 => Value::Int(n),
                1 => Value::Float(n as f64),
                _ => Value::str(["p", "q", "r"][n as usize]),
            }
        }
    }

    /// The definition `join` must equal as an ordered row list: every
    /// `(l, r)` pair in `left`-major order that agrees on all shared
    /// variables (all pairs when none is shared).
    fn nested_loop_join(left: &Relation, right: &Relation) -> Vec<Vec<Value>> {
        let shared: Vec<(usize, usize)> = (left.schema.iter().enumerate())
            .filter_map(|(lc, v)| right.col(v).map(|rc| (lc, rc)))
            .collect();
        let extra: Vec<usize> =
            (0..right.schema.len()).filter(|&rc| left.col(&right.schema[rc]).is_none()).collect();
        let mut rows = Vec::new();
        for l in &left.rows {
            for r in &right.rows {
                if shared.iter().all(|&(lc, rc)| l[lc].eq_values(&r[rc])) {
                    rows.push(l.iter().chain(extra.iter().map(|&rc| &r[rc])).cloned().collect());
                }
            }
        }
        rows
    }

    proptest::proptest! {
        #[test]
        fn prop_join_is_the_ordered_nested_loop(
            left in proptest::collection::vec(proptest::collection::vec(SmallValue, 3..4), 0..24),
            right in proptest::collection::vec(proptest::collection::vec(SmallValue, 3..4), 0..24),
            right_schema in 0usize..5,
        ) {
            // One, two (reordered) and three shared columns, none
            // (Cartesian), and a shared column `right` lists last.
            let right_schema: &[&str] = [
                &["a", "x", "y"],
                &["b", "x", "a"],
                &["c", "a", "b"],
                &["x", "y", "z"],
                &["x", "y", "c"],
            ][right_schema];
            let schema = |names: &[&str]| names.iter().map(|s| Arc::from(*s)).collect();
            let left = Relation { schema: schema(&["a", "b", "c"]), rows: left };
            let right = Relation { schema: schema(right_schema), rows: right };
            let joined = left.join(&right);
            proptest::prop_assert_eq!(&joined.rows, &nested_loop_join(&left, &right));
            let width = 3 + right_schema.iter().filter(|v| !["a", "b", "c"].contains(v)).count();
            proptest::prop_assert_eq!(joined.schema.len(), width);
            // Empty sides, either way round.
            let none = Relation::empty(right.schema.clone());
            proptest::prop_assert!(left.join(&none).is_empty() && none.join(&left).is_empty());
        }
    }

    #[test]
    fn distinct_removes_duplicates() {
        let mut r = rel(&["a"], &[&[Value::Int(1)], &[Value::Int(1)], &[Value::Int(2)]]);
        r.distinct();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn union_aligns_columns() {
        let mut a = rel(&["x", "y"], &[&[Value::Int(1), Value::Int(2)]]);
        let b = rel(&["y", "x"], &[&[Value::Int(20), Value::Int(10)]]);
        a.union(b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.rows[1], vec![Value::Int(10), Value::Int(20)]);
    }

    #[test]
    fn wire_roundtrip() {
        let r = rel(
            &["a", "v"],
            &[&[Value::str("a12"), Value::Int(2006)], &[Value::str("v34"), Value::Float(0.5)]],
        );
        let b = r.to_bytes();
        assert_eq!(b.len(), r.wire_size());
        assert_eq!(Relation::from_bytes(&b).unwrap(), r);
    }

    #[test]
    fn empty_relation_roundtrip() {
        let r = Relation::empty(vec![Arc::from("x")]);
        let b = r.to_bytes();
        assert_eq!(Relation::from_bytes(&b).unwrap(), r);
    }
}
