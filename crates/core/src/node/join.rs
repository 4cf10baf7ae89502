//! Join arbitration: when a plan's next step is a join whose left side
//! is materialized, pick a per-binding fetch join, a Bloom-filtered
//! semi-join pushdown, or a plain collect (DESIGN.md § Bloom-filter
//! semi-join pushdown).

use super::*;

/// Fetch joins cap their lookup fan-out; beyond this the executor falls
/// back to collecting (or Bloom-filtering) the right side.
const FETCH_CAP: usize = 512;

/// Target false-positive rate of semi-join Bloom filters: ~9.6 bits per
/// distinct left join key, with the hash join pruning the stragglers.
const SEMI_JOIN_FPR: f64 = 0.01;

/// The arbitrated physical join strategy for a join site.
pub(super) enum JoinDecision {
    /// Per-binding index nested loops over the DHT.
    Fetch(FetchPlan),
    /// Collect the right side through a Bloom-filtered scan.
    Semi(ItemFilter),
}

/// A fetch join: one exact-key lookup per distinct left binding, each
/// bound into `pattern`.
pub(super) struct FetchPlan {
    pub(super) keys: Vec<Key>,
    pub(super) pattern: TriplePattern,
}

impl<O: Overlay<Item = Triple>> UniNode<O> {
    /// Arbitrates the physical join strategy when the next step is a
    /// join whose left side is materialized: per-binding fetch join,
    /// Bloom-filtered semi-join pushdown, or `None` — collect the right
    /// side with a plain scan and hash-join at the plan holder.
    pub(super) fn plan_join(&self, mqp: &Mqp) -> Option<JoinDecision> {
        let (left, pattern) = mqp.root.fetch_join_site()?;
        // Both strategies start from the distinct join keys of a left
        // column — usually the same one, hashed once for the two.
        let mut keys = None;
        let fetch = fetch_plan(left, pattern, &self.mappings, &mut keys);
        let semi_site = semi_join_site(left, pattern);
        // Forced preference (experiments) wins outright — but a forced
        // strategy the site cannot support still degrades to collect.
        if let Some(pref) = self.plan_mode.join_pref {
            return match pref {
                JoinStrategy::Fetch => fetch.map(JoinDecision::Fetch),
                JoinStrategy::SemiJoin => semi_site.map(|(col, fld)| {
                    JoinDecision::Semi(build_semi_filter(column_keys(&mut keys, left, col), fld).0)
                }),
                JoinStrategy::Collect => None,
            };
        }
        let model = self.cost_model()?;
        let cands = scan_candidates(&pattern.clone(), &mqp.filters);
        let (_, right_best) = model.choose_scan(&cands, None);
        let mut best_score = right_best.cost.score(); // collect baseline
        let mut decision = None;
        if let Some(plan) = fetch {
            let (strategy, cost) = model.join(plan.keys.len() as f64, &right_best, true);
            if strategy == JoinStrategy::Fetch && cost.score() < best_score {
                best_score = cost.score();
                decision = Some(JoinDecision::Fetch(plan));
            }
        }
        if let Some((col, fld)) = semi_site {
            let (filter, left_distinct) = build_semi_filter(column_keys(&mut keys, left, col), fld);
            let right_distinct = right_distinct_estimate(model, pattern, fld);
            let cost = model.semi_join(
                left_distinct as f64,
                right_distinct,
                &right_best,
                filter.wire_size() as f64,
                SEMI_JOIN_FPR,
            );
            if cost.score() < best_score {
                decision = Some(JoinDecision::Semi(filter));
            }
        }
        decision
    }
}

/// The distinct join keys of one column of a plan's materialized left
/// side: their hashes (what a semi-join filter is built from) and the
/// row each first occurs in (what a fetch join derives its keys from).
/// Values are distinct when their [`value_hash`]es are.
struct ColumnKeys {
    col: usize,
    hashes: FxHashSet<u64>,
    first_rows: Vec<usize>,
}

impl ColumnKeys {
    fn of(rel: &Relation, col: usize) -> ColumnKeys {
        let mut hashes = FxHashSet::default();
        let mut first_rows = Vec::new();
        for (i, row) in rel.rows.iter().enumerate() {
            if hashes.insert(value_hash(&row[col])) {
                first_rows.push(i);
            }
        }
        ColumnKeys { col, hashes, first_rows }
    }
}

/// The keys of `col`, from `memo` when it holds that column.
fn column_keys<'a>(memo: &'a mut Option<ColumnKeys>, rel: &Relation, col: usize) -> &'a ColumnKeys {
    let held = memo.take().filter(|keys| keys.col == col);
    memo.insert(held.unwrap_or_else(|| ColumnKeys::of(rel, col)))
}

/// Passes a fetch plan's derived key through. Tests count the calls, to
/// pin that a left side over [`FETCH_CAP`] is turned down before any.
fn derived(key: Key) -> Key {
    #[cfg(test)]
    tests::KEYS_DERIVED.with(|n| n.set(n.get() + 1));
    key
}

/// Builds the per-binding fetch plan for a join site, if the right
/// pattern is point-addressable from the left relation's bindings and
/// the fan-out stays under [`FETCH_CAP`] — counted on the distinct
/// bindings, before any key is derived: a left side too large to fetch
/// from is the common case on a wide join.
fn fetch_plan(
    left: &Relation,
    pattern: &TriplePattern,
    mappings: &MappingSet,
    memo: &mut Option<ColumnKeys>,
) -> Option<FetchPlan> {
    // Value-position fetch: attribute literal, value var bound left.
    let value_col = match (&pattern.attr, &pattern.value) {
        (Term::Lit(Value::Str(attr)), Term::Var(v)) => left.col(v).map(|col| (attr, col)),
        _ => None,
    };
    if let Some((attr, col)) = value_col {
        let bound = &column_keys(memo, left, col).first_rows;
        let attrs = mappings.expand(attr);
        if !(1..=FETCH_CAP).contains(&(bound.len() * attrs.len())) {
            return None;
        }
        let keys = bound
            .iter()
            .flat_map(|&r| attrs.iter().map(move |a| (a, &left.rows[r][col])))
            .map(|(a, val)| derived(idx::attr_value_key(a, val)))
            .collect();
        return Some(FetchPlan { keys, pattern: pattern.clone() });
    }
    // Subject-position fetch: subject var bound left → OID lookups.
    let Term::Var(subject) = &pattern.subject else { return None };
    let col = left.col(subject)?;
    let bound = &column_keys(memo, left, col).first_rows;
    let oids = || bound.iter().filter_map(|&r| left.rows[r][col].as_str());
    if !(1..=FETCH_CAP).contains(&oids().count()) {
        return None;
    }
    let keys = oids().map(|s| derived(idx::oid_key(&Oid::new(s)))).collect();
    Some(FetchPlan { keys, pattern: pattern.clone() })
}

/// Locates the semi-join site of a join: the first pattern position
/// whose variable is bound by the left relation, as `(left column,
/// triple field)`. Any such shared position admits the pushdown — the
/// hash join re-checks everything else.
fn semi_join_site(left: &Relation, pattern: &TriplePattern) -> Option<(usize, u8)> {
    [
        (field::SUBJECT, &pattern.subject),
        (field::ATTR, &pattern.attr),
        (field::VALUE, &pattern.value),
    ]
    .into_iter()
    .find_map(|(fld, term)| match term {
        Term::Var(v) => left.col(v).map(|col| (col, fld)),
        Term::Lit(_) => None,
    })
}

/// Builds the Bloom filter over the left column's distinct join-key
/// hashes (the same hashes a [`Triple`]'s
/// [`field_hash`](unistore_util::item::Item::field_hash) yields at the
/// leaves, so no true match is ever dropped). Returns the filter and
/// the distinct-key count that sized it.
fn build_semi_filter(keys: &ColumnKeys, fld: u8) -> (ItemFilter, usize) {
    let bloom = BloomFilter::from_hashes(keys.hashes.iter().copied(), SEMI_JOIN_FPR);
    (ItemFilter { field: fld, bloom }, keys.hashes.len())
}

/// Distinct join keys expected in the scanned region — the denominator
/// of the semi-join selectivity estimate.
fn right_distinct_estimate(model: &CostModel, pattern: &TriplePattern, fld: u8) -> f64 {
    let st = &model.stats;
    match fld {
        field::SUBJECT => st.oid_distinct,
        field::ATTR => st.attrs.len() as f64,
        _ => match &pattern.attr {
            Term::Lit(Value::Str(a)) => {
                st.attrs.get(a.as_ref()).map_or(st.value_distinct, |s| s.join_distinct)
            }
            _ => st.value_distinct,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unistore_vql::parse;

    thread_local! {
        /// Calls of `derived` on this test thread.
        pub(super) static KEYS_DERIVED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    #[test]
    fn distinct_col_dedups_semantically() {
        let rel = Relation {
            schema: vec![std::sync::Arc::from("x")],
            rows: vec![vec![Value::Int(3)], vec![Value::Float(3.0)], vec![Value::Int(4)]],
        };
        let keys = ColumnKeys::of(&rel, 0);
        assert_eq!(keys.first_rows, vec![0, 2]);
        assert_eq!(keys.hashes.len(), 2);
    }

    #[test]
    fn fetch_plan_counts_bindings_before_deriving_keys() {
        // `n` distinct subjects, each bound twice, plus one non-string
        // binding that derives no OID key and so does not count.
        let left_with = |n: usize| Relation {
            schema: vec![std::sync::Arc::from("a")],
            rows: (0..n)
                .chain(0..n)
                .map(|i| vec![Value::str(&format!("o{i}"))])
                .chain([vec![Value::Int(7)]])
                .collect(),
        };
        let by_oid = &parse("SELECT ?g WHERE {(?a,'age',?g)}").unwrap().patterns[0];
        let keys_derived = || KEYS_DERIVED.with(|n| n.replace(0));

        keys_derived();
        let mut memo = None;
        let plan = fetch_plan(&left_with(FETCH_CAP), by_oid, &MappingSet::new(), &mut memo);
        let plan = plan.expect("512 distinct bindings are within the cap");
        assert_eq!(plan.keys.len(), FETCH_CAP);
        assert_eq!(plan.keys[3], idx::oid_key(&Oid::new("o3")), "OID keys, first-occurrence order");
        assert_eq!(keys_derived(), FETCH_CAP);
        assert_eq!(memo.as_ref().map(|k| k.hashes.len()), Some(FETCH_CAP + 1));

        let mut memo = None;
        let plan = fetch_plan(&left_with(FETCH_CAP + 1), by_oid, &MappingSet::new(), &mut memo);
        assert!(plan.is_none(), "513 distinct bindings are over the cap");
        assert_eq!(keys_derived(), 0, "turned down before any key was derived");
        // The column's hashes stay behind for the semi-join filter.
        let (_, distinct) = build_semi_filter(column_keys(&mut memo, &left_with(0), 0), 0);
        assert_eq!(distinct, FETCH_CAP + 2, "memo reused, not rebuilt from the empty relation");

        // Value-position fetch multiplies by the mapped attributes.
        let by_value = &parse("SELECT ?x WHERE {(?x,'name',?a)}").unwrap().patterns[0];
        let mut maps = MappingSet::new();
        maps.add(&unistore_store::Mapping::new("name", "foaf:name"));
        let plan = fetch_plan(&left_with(FETCH_CAP / 2 - 1), by_value, &maps, &mut None);
        assert_eq!(plan.expect("255 bindings + 1, two attributes").keys.len(), FETCH_CAP);
        assert_eq!(keys_derived(), FETCH_CAP);
        assert!(fetch_plan(&left_with(FETCH_CAP / 2), by_value, &maps, &mut None).is_none());
        assert_eq!(keys_derived(), 0);
        assert!(fetch_plan(&left_with(0).project(&[]), by_oid, &maps, &mut None).is_none());
    }

    #[test]
    fn semi_join_site_prefers_first_shared_position() {
        let left = Relation {
            schema: vec![std::sync::Arc::from("a"), std::sync::Arc::from("v")],
            rows: vec![],
        };
        let q = parse("SELECT ?a,?v WHERE {(?a,'age',?v)}").unwrap();
        assert_eq!(semi_join_site(&left, &q.patterns[0]), Some((0, field::SUBJECT)));
        let q = parse("SELECT ?v WHERE {(?x,'age',?v)}").unwrap();
        assert_eq!(semi_join_site(&left, &q.patterns[0]), Some((1, field::VALUE)));
        let q = parse("SELECT * WHERE {(?x,'age',?y)}").unwrap();
        assert_eq!(semi_join_site(&left, &q.patterns[0]), None, "no shared variable");
    }

    mod filter_conservative {
        //! The load-bearing semi-join property: a filter built from a
        //! materialized column's `value_hash`es accepts every triple
        //! whose addressed field semantically equals some left value —
        //! across positions and across the Int/Float class collapse.

        use super::*;
        use proptest::prelude::*;
        use unistore_util::item::Item as _;

        /// Mixed-type value strategy: short strings, ints, and floats
        /// that collide with the ints across the numeric-class collapse.
        struct ArbValue;
        impl Strategy for ArbValue {
            type Value = Value;

            fn generate(&self, rng: &mut proptest::TestRng) -> Value {
                let n = (rng.next_u64() % 200) as i64 - 100;
                match rng.next_u64() % 3 {
                    0 => {
                        let len = 1 + (rng.next_u64() % 8) as usize;
                        let s: String = (0..len)
                            .map(|_| (b'a' + (rng.next_u64() % 26) as u8) as char)
                            .collect();
                        Value::str(&s)
                    }
                    1 => Value::Int(n),
                    _ => Value::Float(n as f64),
                }
            }
        }

        /// Unquoted text form (Display wraps strings in quotes).
        fn plain(v: &Value) -> String {
            match v {
                Value::Str(s) => s.to_string(),
                other => other.to_string(),
            }
        }

        proptest! {
            #[test]
            fn filtered_scan_never_drops_a_true_match(
                left_vals in proptest::collection::vec(ArbValue, 1..40),
                triples in proptest::collection::vec(
                    ("[a-z]{1,6}", "[a-z]{1,6}", ArbValue),
                    0..60,
                ),
                fld in 0u8..3,
            ) {
                // Left column: strings for subject/attr positions (those
                // bind as strings), anything for the value position.
                let rows: Vec<Vec<Value>> = left_vals
                    .iter()
                    .map(|v| match fld {
                        field::VALUE => vec![v.clone()],
                        _ => vec![Value::str(&plain(v))],
                    })
                    .collect();
                let left = Relation { schema: vec![std::sync::Arc::from("x")], rows };
                let (filter, _) = build_semi_filter(&ColumnKeys::of(&left, 0), fld);
                for (oid, attr, val) in &triples {
                    let t = Triple::new(oid, attr, val.clone());
                    let matches_left = left.rows.iter().any(|r| match fld {
                        field::SUBJECT => r[0].as_str() == Some(oid.as_str()),
                        field::ATTR => r[0].as_str() == Some(attr.as_str()),
                        _ => r[0].eq_values(val),
                    });
                    if matches_left {
                        prop_assert!(
                            filter.accepts(&t),
                            "true match dropped: {t} against field {fld}"
                        );
                    }
                }
                // And triples built *from* the left values always pass.
                for v in &left_vals {
                    let t = match fld {
                        field::SUBJECT => Triple::new(&plain(v), "a", Value::Int(0)),
                        field::ATTR => Triple::new("o", &plain(v), Value::Int(0)),
                        _ => Triple::new("o", "a", v.clone()),
                    };
                    prop_assert!(t.field_hash(fld).is_some());
                    prop_assert!(filter.accepts(&t));
                }
            }
        }
    }
}
