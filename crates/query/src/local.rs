//! The local reference engine.
//!
//! Evaluates VQL entirely in memory against a [`LocalTripleStore`].
//! Two uses: the *oracle* that distributed executions are checked
//! against in integration tests, and the single-peer fast path of the
//! public API.

use unistore_store::local::LocalTripleStore;
use unistore_store::mapping::MappingSet;
use unistore_util::FxHashSet;
use unistore_vql::{analyze, parse, AnalyzedQuery, VqlError};

use crate::logical::Logical;
use crate::mqp::{bind_triples, MqpNode};
use crate::relation::Relation;

/// A purely local VQL engine.
#[derive(Clone, Debug, Default)]
pub struct LocalEngine {
    store: LocalTripleStore,
    mappings: MappingSet,
}

impl LocalEngine {
    /// Empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Engine over an existing store.
    pub fn with_store(store: LocalTripleStore) -> Self {
        let mappings = MappingSet::from_triples(store.all());
        LocalEngine { store, mappings }
    }

    /// Mutable store access; mappings are re-derived on the next query.
    pub fn store_mut(&mut self) -> &mut LocalTripleStore {
        &mut self.store
    }

    /// Read-only store access.
    pub fn store(&self) -> &LocalTripleStore {
        &self.store
    }

    /// Registers a schema mapping.
    pub fn add_mapping(&mut self, m: &unistore_store::Mapping) {
        self.store.insert(m.to_triple());
        self.mappings.add(m);
    }

    /// Parses, analyzes and executes a VQL query.
    pub fn query(&mut self, src: &str) -> Result<Relation, VqlError> {
        self.mappings = MappingSet::from_triples(self.store.all());
        let analyzed = analyze(parse(src)?)?;
        Ok(self.execute(&analyzed))
    }

    /// Executes an analyzed query.
    pub fn execute(&self, analyzed: &AnalyzedQuery) -> Relation {
        let logical = Logical::from_query(analyzed);
        let mut plan = MqpNode::from_logical(&logical);
        // Every scan binds over the whole store, borrowed, not copied:
        // a copy per query was most of an oracle answer's time.
        let all = self.store.all();
        while let Some(pattern) = plan.first_scan().cloned() {
            let rel = bind_triples(&pattern, all, &self.mappings);
            plan.resolve_first_scan(rel);
            plan.reduce();
        }
        plan.reduce();
        let mut out = plan.result().cloned().unwrap_or_else(|| Relation::empty(vec![]));
        dedup_rows(&mut out);
        out
    }
}

/// Result sets are bags, but duplicate rows arising purely from
/// replicated storage are unwanted; the engines dedup fully equal rows.
pub fn dedup_rows(rel: &mut Relation) {
    let mut seen: FxHashSet<Vec<u64>> = FxHashSet::default();
    let rows = std::mem::take(&mut rel.rows);
    rel.rows = rows
        .into_iter()
        .filter(|r| seen.insert(r.iter().map(crate::relation::value_hash).collect()))
        .collect();
}

#[cfg(test)]
mod tests {
    use super::*;
    use unistore_store::{Triple, Tuple, Value};

    /// The paper's Fig. 3 world, small: authors, publications,
    /// conferences.
    fn engine() -> LocalEngine {
        let mut e = LocalEngine::new();
        let tuples = vec![
            Tuple::new("p1")
                .with("name", Value::str("alice"))
                .with("age", Value::Int(28))
                .with("num_of_pubs", Value::Int(12))
                .with("has_published", Value::str("Similarity Search")),
            Tuple::new("p2")
                .with("name", Value::str("bob"))
                .with("age", Value::Int(45))
                .with("num_of_pubs", Value::Int(40))
                .with("has_published", Value::str("Progressive Joins")),
            Tuple::new("p3")
                .with("name", Value::str("carol"))
                .with("age", Value::Int(33))
                .with("num_of_pubs", Value::Int(5))
                .with("has_published", Value::str("Skyline Ops")),
            Tuple::new("pub1")
                .with("title", Value::str("Similarity Search"))
                .with("published_in", Value::str("ICDE 2006")),
            Tuple::new("pub2")
                .with("title", Value::str("Progressive Joins"))
                .with("published_in", Value::str("ICDE 2005")),
            Tuple::new("pub3")
                .with("title", Value::str("Skyline Ops"))
                .with("published_in", Value::str("VLDB 2005")),
            Tuple::new("c1")
                .with("confname", Value::str("ICDE 2006"))
                .with("series", Value::str("ICDE")),
            Tuple::new("c2")
                .with("confname", Value::str("ICDE 2005"))
                .with("series", Value::str("IDCE")), // typo on purpose
            Tuple::new("c3")
                .with("confname", Value::str("VLDB 2005"))
                .with("series", Value::str("VLDB")),
        ];
        for t in tuples {
            for triple in t.to_triples() {
                e.store_mut().insert(triple);
            }
        }
        e
    }

    #[test]
    fn single_pattern_query() {
        let mut e = engine();
        let r = e.query("SELECT ?n WHERE {(?a,'name',?n)}").unwrap();
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn join_query() {
        let mut e = engine();
        let r = e
            .query(
                "SELECT ?n,?conf WHERE {(?a,'name',?n) (?a,'has_published',?t)
                 (?p,'title',?t) (?p,'published_in',?conf)}",
            )
            .unwrap();
        assert_eq!(r.len(), 3);
        let alice = r.rows.iter().find(|row| row[0] == Value::str("alice")).expect("alice row");
        assert_eq!(alice[1], Value::str("ICDE 2006"));
    }

    #[test]
    fn filter_range() {
        let mut e = engine();
        let r = e
            .query("SELECT ?n WHERE {(?a,'name',?n) (?a,'age',?g) FILTER ?g >= 30 AND ?g < 40}")
            .unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0][0], Value::str("carol"));
    }

    #[test]
    fn paper_flagship_query_semantics() {
        // Adapted to the small world: authors published in a series
        // within edit distance 2 of 'ICDE', skyline young+productive.
        let mut e = engine();
        let r = e
            .query(
                "SELECT ?name,?age,?cnt
                 WHERE {(?a,'name',?name) (?a,'age',?age)
                        (?a,'num_of_pubs',?cnt)
                        (?a,'has_published',?title) (?p,'title',?title)
                        (?p,'published_in',?conf) (?c,'confname',?conf)
                        (?c,'series',?sr) FILTER edist(?sr,'ICDE')<3}
                 ORDER BY SKYLINE OF ?age MIN, ?cnt MAX",
            )
            .unwrap();
        // alice (28, 12) and bob (45, 40) both qualify (IDCE is within
        // distance 2); alice doesn't dominate bob (fewer pubs), bob
        // doesn't dominate alice (older). carol published at VLDB only.
        assert_eq!(r.len(), 2);
        let names: Vec<&Value> = r.rows.iter().map(|row| &row[0]).collect();
        assert!(names.contains(&&Value::str("alice")));
        assert!(names.contains(&&Value::str("bob")));
    }

    #[test]
    fn order_and_limit() {
        let mut e = engine();
        let r = e
            .query("SELECT ?n,?g WHERE {(?a,'name',?n) (?a,'age',?g)} ORDER BY ?g DESC LIMIT 2")
            .unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.rows[0][0], Value::str("bob"));
        assert_eq!(r.rows[1][0], Value::str("carol"));
    }

    #[test]
    fn top_n() {
        let mut e = engine();
        let r =
            e.query("SELECT ?n WHERE {(?a,'name',?n) (?a,'age',?g)} ORDER BY ?g TOP 1").unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0][0], Value::str("alice"));
    }

    #[test]
    fn schema_level_query() {
        // Query the *schema* of object p1 — attributes become data.
        let mut e = engine();
        let r = e.query("SELECT ?attr WHERE {('p1',?attr,?v)}").unwrap();
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn mapping_expands_attributes() {
        let mut e = engine();
        e.store_mut().insert(Triple::new("x9", "dblp:fullname", Value::str("dave")));
        e.add_mapping(&unistore_store::Mapping::new("name", "dblp:fullname"));
        let r = e.query("SELECT ?n WHERE {(?a,'name',?n)}").unwrap();
        assert_eq!(r.len(), 4, "mapped attribute dblp:fullname must contribute");
    }

    #[test]
    fn metadata_is_queryable() {
        // Paper: "this additional metadata can be queried explicitly".
        let mut e = engine();
        e.add_mapping(&unistore_store::Mapping::new("name", "dblp:fullname"));
        let r = e.query("SELECT ?from,?to WHERE {(?from,'sys:maps_to',?to)}").unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0][1], Value::str("dblp:fullname"));
    }

    #[test]
    fn empty_result_is_fine() {
        let mut e = engine();
        let r = e.query("SELECT ?n WHERE {(?a,'name','nobody') (?a,'name',?n)}").unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn cartesian_product_works() {
        let mut e = engine();
        let r = e.query("SELECT ?x,?y WHERE {(?a,'series',?x) (?b,'series',?y)}").unwrap();
        assert_eq!(r.len(), 9);
    }
}
