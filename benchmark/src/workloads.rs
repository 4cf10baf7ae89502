//! The three healthy workloads (`point_read`, `join3`, `ingest`), the
//! shared world and the recorder every workload reports into.
//!
//! Every workload runs on one OS thread, closed loop, against the
//! deterministic `SimNet`: a trial is a fixed list of ops, so two runs
//! with the same arguments execute bit-identical simulations.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use unistore::{QueryOutcome, UniCluster, UniConfig};
use unistore_overlay::Overlay;
use unistore_pgrid::PGridPeer;
use unistore_query::{LocalEngine, Relation};
use unistore_simnet::{NodeId, SimTime};
use unistore_store::{Triple, Tuple, Value};
use unistore_util::rng::derive_rng;
use unistore_util::FxHashMap;
use unistore_workload::{zipf_write_batches, PubParams, PubWorld};

use crate::spec::Sizes;
use crate::trace::Tracer;

/// RNG stream labels of the harness (disjoint from the crates' own).
pub mod stream {
    pub const OPS: u64 = 0xbe_0001;
    pub const PICK: u64 = 0xbe_0002;
}

/// Wall time of the parts of one set-up (the traced run reports them as
/// per-layer metrics; `setup_s` is the whole).
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub gen_s: f64,
    pub build_s: f64,
    pub load_s: f64,
    pub oracle_s: f64,
}

/// Origin-side counters summed over all nodes.
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeCounters {
    pub retries: u64,
    pub hedges: u64,
    pub suppressed: u64,
}

/// One sampled op of a traced trial: the inputs its layers are replayed
/// on after the trial.
pub struct Sample {
    pub op: u64,
    pub query: String,
    pub relation: Relation,
    pub tuples: Vec<Tuple>,
}

/// Everything the measured phase records.
pub struct Recorder {
    pub tracer: Tracer,
    /// Every n-th op of a recorded trial is kept as a [`Sample`].
    pub sample_every: usize,
    /// Simulated latency of every op that enters the percentiles.
    pub lat_ms: Vec<f64>,
    pub attempted: u64,
    pub succeeded: u64,
    /// Ops whose answer broke the oracle rules. Any makes the run incorrect.
    pub wrong: u64,
    pub first_wrong: Option<String>,
    pub hops: u64,
    pub coverage_sum: f64,
    pub reads: u64,
    pub reads_ok: u64,
    pub writes: u64,
    pub writes_acked: u64,
    pub writes_durable: u64,
    pub triples_written: u64,
    pub repair_lag_sim_s: f64,
    pub samples: Vec<Sample>,
    next_op: u64,
}

impl Recorder {
    pub fn new(tracing: bool, sample_every: usize) -> Recorder {
        Recorder {
            tracer: Tracer::new(tracing),
            sample_every: sample_every.max(1),
            lat_ms: Vec::new(),
            attempted: 0,
            succeeded: 0,
            wrong: 0,
            first_wrong: None,
            hops: 0,
            coverage_sum: 0.0,
            reads: 0,
            reads_ok: 0,
            writes: 0,
            writes_acked: 0,
            writes_durable: 0,
            triples_written: 0,
            repair_lag_sim_s: 0.0,
            samples: Vec::new(),
            next_op: 0,
        }
    }

    /// Id of the next op (shared by its spans).
    pub fn next_op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// Whether op `op` of a recorded trial is sampled for replay.
    pub fn samples_op(&self, op: u64) -> bool {
        self.tracer.is_on() && op % self.sample_every as u64 == 0
    }

    pub fn flag_wrong(&mut self, what: String) {
        self.wrong += 1;
        self.first_wrong.get_or_insert(what);
    }

    /// Books a finished read whose oracle verdict is `right`.
    pub fn book_read(&mut self, out: &QueryOutcome, success: bool) {
        self.attempted += 1;
        self.reads += 1;
        self.hops += out.cost.hops as u64;
        self.coverage_sum += out.coverage.fraction();
        if success {
            self.succeeded += 1;
            self.reads_ok += 1;
        }
    }
}

/// The contract between a workload and the runner.
pub trait Workload {
    type O: Overlay<Item = Triple>;
    fn ops_per_trial(&self) -> usize;
    /// Executes trial `idx` (timed by the runner).
    fn trial(&mut self, idx: usize, rec: &mut Recorder);
    /// Untimed: checks the trial's answers against the oracle and frees
    /// per-trial state.
    fn after_trial(&mut self, rec: &mut Recorder);
    /// Untimed: end-of-run checks (read-back, heal).
    fn finish(&mut self, rec: &mut Recorder, measure_repair_lag: bool);
    /// The world the workload runs on and its centralised oracle (probe
    /// inputs).
    fn world(&self) -> &PubWorld;
    fn oracle(&self) -> &LocalEngine;
    /// The cluster under test: the runner reads its counters and cost
    /// model and times raw overlay lookups on it.
    fn cluster(&mut self) -> &mut UniCluster<Self::O>;
}

/// The deployment under test — world and overlay — is generated from this
/// frozen seed, like a fixed-scale benchmark database; `--seed` drives
/// what is done to it: which entities are read and in which order, from
/// which peers, what is written, and who crashes when. A new world would
/// also be a new trie, and one trie differs from the next by more than
/// most changes to the code do (±14 % messages per join, ±13 % median
/// read latency at 128 peers), which would bury what the run is for.
pub const WORLD_SEED: u64 = 20070415; // ICDE 2007, the seed of the repo's own experiments

pub fn pub_params(sizes: &Sizes) -> PubParams {
    PubParams {
        n_authors: sizes.n_authors,
        n_conferences: sizes.n_conferences,
        pubs_per_author: 3,
        draft_fraction: 1.0,
        ..PubParams::default()
    }
}

/// Order-independent digest of a relation: column names (sorted), row
/// count, and the wrapping sum of per-row hashes over `semantic_hash`es
/// taken in column-name order — equal for equal multisets whatever the
/// row or column order, numerics compared across Int/Float.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Digest {
    columns: Vec<String>,
    rows: usize,
    sum: u64,
}

fn column_order(rel: &Relation) -> Vec<usize> {
    let mut order: Vec<usize> = (0..rel.schema.len()).collect();
    order.sort_by(|&a, &b| rel.schema[a].cmp(&rel.schema[b]));
    order
}

fn row_hash(row: &[Value], order: &[usize]) -> u64 {
    order.iter().fold(0x9e37_79b9_7f4a_7c15u64, |h, &i| {
        (h.rotate_left(5) ^ row[i].semantic_hash()).wrapping_mul(0x517c_c1b7_2722_0a95)
    })
}

pub fn digest(rel: &Relation) -> Digest {
    let order = column_order(rel);
    Digest {
        columns: order.iter().map(|&i| rel.schema[i].to_string()).collect(),
        rows: rel.rows.len(),
        sum: rel.rows.iter().fold(0u64, |s, r| s.wrapping_add(row_hash(r, &order))),
    }
}

/// Per-row hashes in column-name order (churn's subset check).
pub fn row_hashes(rel: &Relation) -> Vec<u64> {
    let order = column_order(rel);
    rel.rows.iter().map(|r| row_hash(r, &order)).collect()
}

/// The oracle's answer to `query`, digested.
pub fn oracle_digest(oracle: &LocalEngine, query: &str) -> Digest {
    digest(&oracle_answer(oracle, query))
}

pub fn oracle_answer(oracle: &LocalEngine, query: &str) -> Relation {
    let parsed = unistore_vql::parse(query).expect("generated query parses");
    let analyzed = unistore_vql::analyze(parsed).expect("generated query analyzes");
    oracle.execute(&analyzed)
}

/// One read: `op` → `core.submit` + `core.wait`.
pub fn read_op<O: Overlay<Item = Triple>>(
    cluster: &mut UniCluster<O>,
    tracer: &mut Tracer,
    op: u64,
    origin: NodeId,
    query: &str,
) -> QueryOutcome {
    let whole = tracer.open("op", op);
    let s = tracer.open("core.submit", op);
    let qid = cluster.query_submit(origin, query).expect("generated query parses");
    tracer.close(s);
    let w = tracer.open("core.wait", op);
    let out = cluster.query_wait(qid);
    tracer.close(w);
    tracer.close(whole);
    out
}

pub fn sum_node_counters<O: Overlay<Item = Triple>>(cluster: &UniCluster<O>) -> NodeCounters {
    let mut c = NodeCounters::default();
    for (_, node) in cluster.net.iter_nodes() {
        c.retries += node.retries;
        c.hedges += node.hedges;
        c.suppressed += node.suppressed;
    }
    c
}

pub fn time_raw_lookups<O: Overlay<Item = Triple>>(
    cluster: &mut UniCluster<O>,
    keys: &[u64],
    tracer: &mut Tracer,
    op: u64,
) -> f64 {
    let n = cluster.net.len() as u32;
    let t = Instant::now();
    for (i, &key) in keys.iter().enumerate() {
        let s = tracer.open("overlay.raw_lookup", op);
        std::hint::black_box(cluster.raw_lookup(NodeId(i as u32 % n), key));
        tracer.close(s);
    }
    t.elapsed().as_secs_f64() * 1e6 / keys.len().max(1) as f64
}

/// The healthy workloads' shared start: world, 256-peer P-Grid cluster
/// with `UniConfig::default()`, bulk load, and the centralised oracle.
struct Healthy {
    world: PubWorld,
    cluster: UniCluster,
    oracle: LocalEngine,
    times: SetupTimes,
    /// Point queries on a fixed stride of the world's authors with their
    /// oracle answers, re-run when the measured phase is over: whatever
    /// the workload did, preloaded data must still read back.
    world_sample: Vec<(String, Digest)>,
}

/// World tuples re-checked at the end of a healthy run.
const WORLD_SAMPLE: usize = 128;

fn healthy(sizes: &Sizes) -> Healthy {
    let t = Instant::now();
    let world = PubWorld::generate(&pub_params(sizes), WORLD_SEED);
    let tuples = world.all_tuples();
    let gen_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut cluster = UniCluster::build(sizes.healthy_peers, UniConfig::default(), WORLD_SEED);
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    cluster.load(tuples);
    let load_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let oracle = cluster.oracle();
    let world_sample: Vec<(String, Digest)> = world
        .authors
        .iter()
        .step_by((world.authors.len() / WORLD_SAMPLE).max(1))
        .map(|a| {
            let q = format!("SELECT ?n WHERE {{('{}','name',?n)}}", a.oid.as_str());
            let want = oracle_digest(&oracle, &q);
            (q, want)
        })
        .collect();
    let oracle_s = t.elapsed().as_secs_f64();
    let times = SetupTimes { gen_s, build_s, load_s, oracle_s };
    Healthy { world, cluster, oracle, times, world_sample }
}

impl Healthy {
    fn check_world_sample(&mut self, rec: &mut Recorder) {
        let n = self.cluster.net.len() as u32;
        for (i, (q, want)) in self.world_sample.iter().enumerate() {
            let out = self.cluster.query(NodeId(i as u32 % n), q).expect("generated query parses");
            if !(out.ok && &digest(&out.relation) == want) {
                rec.flag_wrong(format!("{q} differs from the oracle after the measured phase"));
            }
        }
        self.cluster.take_traces();
    }
}

/// A checked read kept until the untimed `after_trial`.
struct Answer {
    query: usize,
    op: u64,
    out: QueryOutcome,
}

/// Books one healthy read: it succeeds only when it completed at full
/// coverage *and* equals the oracle's multiset.
fn check_healthy(rec: &mut Recorder, queries: &[String], expected: &[Digest], a: Answer) {
    let right = a.out.ok
        && a.out.coverage.fraction() == 1.0
        && digest(&a.out.relation) == expected[a.query];
    rec.lat_ms.push(a.out.cost.latency.as_millis_f64());
    rec.book_read(&a.out, right);
    if !right {
        rec.flag_wrong(format!("op {}: {} differs from the oracle", a.op, queries[a.query]));
    }
    if rec.samples_op(a.op) {
        rec.samples.push(Sample {
            op: a.op,
            query: queries[a.query].clone(),
            relation: a.out.relation,
            tuples: Vec::new(),
        });
    }
}

// ------------------------------------------------------ point_read and join3

/// The age windows `[lo, lo+3)` partition `PubWorld`'s ages 24..=65, so
/// one pass over all 14 touches every author exactly once.
pub const AGE_WINDOWS: usize = 14;

pub fn join3_query(window: usize) -> String {
    let lo = 24 + 3 * window as i64;
    format!(
        "SELECT ?n,?t,?c WHERE {{(?a,'age',?g) (?a,'name',?n) (?a,'has_published',?t) \
         (?p,'title',?t) (?p,'published_in',?c) FILTER ?g >= {lo} AND ?g < {}}}",
        lo + 3
    )
}

/// The two read-only workloads: a fixed list of queries with their oracle
/// digests, issued one at a time from a random peer. `point_read` draws
/// each op's query at random, `join3` cycles through its list in order.
pub struct Reads {
    h: Healthy,
    queries: Vec<String>,
    expected: Vec<Digest>,
    rng: StdRng,
    ops: usize,
    cyclic: bool,
    answers: Vec<Answer>,
}

impl Reads {
    fn new(
        mut h: Healthy,
        queries: Vec<String>,
        seed: u64,
        ops: usize,
        cyclic: bool,
    ) -> (Reads, SetupTimes) {
        let t = Instant::now();
        let expected: Vec<Digest> = queries.iter().map(|q| oracle_digest(&h.oracle, q)).collect();
        assert!(expected.iter().any(|d| d.rows > 0), "the queries return rows");
        h.times.oracle_s += t.elapsed().as_secs_f64();
        let times = h.times;
        let rng = derive_rng(seed, stream::OPS);
        (Reads { h, queries, expected, rng, ops, cyclic, answers: Vec::new() }, times)
    }

    /// Half the distinct queries select by (?x,'name',v), half by oid.
    /// Which authors they name belongs to the frozen deployment; the seed
    /// draws the sequence and the origins.
    pub fn point_read(sizes: &Sizes, seed: u64) -> (Reads, SetupTimes) {
        let h = healthy(sizes);
        let mut pick = derive_rng(WORLD_SEED, stream::PICK);
        let mut authors: Vec<&Tuple> = h.world.authors.iter().collect();
        authors.shuffle(&mut pick);
        authors.truncate(sizes.point_queries.min(authors.len()));
        let queries: Vec<String> = authors
            .iter()
            .enumerate()
            .map(|(i, a)| match i % 2 {
                0 => format!(
                    "SELECT ?x WHERE {{(?x,'name',{})}}",
                    a.get("name").expect("authors have names")
                ),
                _ => format!("SELECT ?n WHERE {{('{}','name',?n)}}", a.oid.as_str()),
            })
            .collect();
        Reads::new(h, queries, seed, sizes.point_ops_per_trial, false)
    }

    pub fn join3(sizes: &Sizes, seed: u64) -> (Reads, SetupTimes) {
        let queries: Vec<String> = (0..AGE_WINDOWS).map(join3_query).collect();
        let ops = sizes.join_cycles_per_trial * AGE_WINDOWS;
        Reads::new(healthy(sizes), queries, seed, ops, true)
    }
}

impl Workload for Reads {
    type O = PGridPeer<Triple>;

    fn ops_per_trial(&self) -> usize {
        self.ops
    }

    fn trial(&mut self, _idx: usize, rec: &mut Recorder) {
        let n = self.h.cluster.net.len() as u32;
        for i in 0..self.ops {
            let query = match self.cyclic {
                true => i % self.queries.len(),
                false => self.rng.gen_range(0..self.queries.len()),
            };
            let origin = NodeId(self.rng.gen_range(0..n));
            let op = rec.next_op();
            let out =
                read_op(&mut self.h.cluster, &mut rec.tracer, op, origin, &self.queries[query]);
            self.answers.push(Answer { query, op, out });
        }
    }

    fn after_trial(&mut self, rec: &mut Recorder) {
        for a in self.answers.drain(..) {
            check_healthy(rec, &self.queries, &self.expected, a);
        }
        // Nodes log one optimizer Decision per scan; drop them so memory
        // does not grow with the trial count.
        self.h.cluster.take_traces();
    }

    fn finish(&mut self, rec: &mut Recorder, _lag: bool) {
        self.h.check_world_sample(rec);
    }

    fn world(&self) -> &PubWorld {
        &self.h.world
    }

    fn oracle(&self) -> &LocalEngine {
        &self.h.oracle
    }

    fn cluster(&mut self) -> &mut UniCluster {
        &mut self.h.cluster
    }
}

// -------------------------------------------------------------------- ingest

/// Attribute the write batches carry, Zipf-drawn (θ = 1.1) from the
/// world's conference names — the generator's own hot-key model.
pub const WRITE_ATTR: &str = "published_in";
pub const WRITE_THETA: f64 = 1.1;

pub fn readback_query(oid: &str) -> String {
    format!("SELECT ?v WHERE {{('{oid}','{WRITE_ATTR}',?v)}}")
}

pub struct Ingest {
    h: Healthy,
    batches: Vec<Vec<Tuple>>,
    next_batch: usize,
    ops: usize,
    rng: StdRng,
    version: u64,
    stats_refresh: SimTime,
    /// Driver-side truth: oid → the value `WRITE_ATTR` must read back as
    /// (`None` once deleted).
    truth: FxHashMap<String, Option<Value>>,
}

impl Ingest {
    pub fn setup(sizes: &Sizes, seed: u64, trials: usize) -> (Ingest, SetupTimes) {
        let mut h = healthy(sizes);
        let t = Instant::now();
        let batches = zipf_write_batches(
            &h.world,
            WRITE_ATTR,
            trials * sizes.ingest_ops_per_trial,
            sizes.ingest_batch,
            WRITE_THETA,
            seed,
        );
        h.times.gen_s += t.elapsed().as_secs_f64();
        let times = h.times;
        let w = Ingest {
            h,
            batches,
            next_batch: 0,
            ops: sizes.ingest_ops_per_trial,
            rng: derive_rng(seed, stream::OPS),
            version: 0,
            stats_refresh: UniConfig::default().stats_refresh,
            truth: FxHashMap::default(),
        };
        (w, times)
    }

    fn write_fact(tuple: &Tuple) -> Triple {
        let value = tuple.get(WRITE_ATTR).expect("write batches carry the attribute").clone();
        Triple::new(tuple.oid.as_str(), WRITE_ATTR, value)
    }
}

impl Workload for Ingest {
    type O = PGridPeer<Triple>;

    fn ops_per_trial(&self) -> usize {
        self.ops
    }

    /// `ops` write ops from one entry peer, then the network runs to just
    /// past the next stats-refresh tick, so every trial pays exactly the
    /// dissemination of its own deltas (otherwise one trial in ~40 would
    /// pay for all of them, wherever a seed put the tick).
    fn trial(&mut self, _idx: usize, rec: &mut Recorder) {
        let n = self.h.cluster.net.len() as u32;
        let origin = NodeId(self.rng.gen_range(0..n));
        for i in 0..self.ops {
            let batch = &self.batches[self.next_batch];
            self.next_batch += 1;
            let op = rec.next_op();
            let whole = rec.tracer.open("op", op);
            let s = rec.tracer.open("core.insert_batch", op);
            let (mut ok, cost) = self.h.cluster.insert_batch(origin, batch);
            rec.tracer.close(s);
            for t in batch {
                self.truth.insert(t.oid.as_str().to_string(), t.get(WRITE_ATTR).cloned());
            }
            if i % 8 == 7 && batch.len() >= 2 {
                // Every 8th op also rewrites one fresh tuple and deletes
                // another.
                self.version += 1;
                let moved = Value::str("moved");
                let u = rec.tracer.open("core.update", op);
                ok &= self.h.cluster.update(
                    origin,
                    &Self::write_fact(&batch[0]),
                    moved.clone(),
                    self.version,
                );
                rec.tracer.close(u);
                self.truth.insert(batch[0].oid.as_str().to_string(), Some(moved));
                let d = rec.tracer.open("core.delete_batch", op);
                ok &= self.h.cluster.delete_batch(origin, &batch[1].to_triples(), self.version);
                rec.tracer.close(d);
                self.truth.insert(batch[1].oid.as_str().to_string(), None);
            }
            rec.tracer.close(whole);
            rec.attempted += 1;
            rec.writes += 1;
            rec.hops += cost.hops as u64;
            rec.triples_written += batch.iter().map(|t| t.fields.len() as u64).sum::<u64>();
            rec.lat_ms.push(cost.latency.as_millis_f64());
            if ok {
                rec.succeeded += 1;
                rec.writes_acked += 1;
            } else {
                rec.flag_wrong(format!(
                    "op {op}: a write was not acknowledged on a healthy network"
                ));
            }
            if rec.samples_op(op) {
                rec.samples.push(Sample {
                    op,
                    query: readback_query(batch[0].oid.as_str()),
                    relation: Relation::empty(vec![]),
                    tuples: batch.clone(),
                });
            }
        }
        let period = self.stats_refresh.as_micros();
        let now = self.h.cluster.net.now().as_micros();
        let flush = rec.tracer.open("core.stats_flush", 0);
        self.h.cluster.settle(SimTime::from_micros((now / period + 1) * period + 1_000_000 - now));
        rec.tracer.close(flush);
    }

    fn after_trial(&mut self, _rec: &mut Recorder) {
        self.h.cluster.take_traces();
    }

    /// Reads every written tuple back and compares with the driver-side
    /// truth; then the world sample.
    fn finish(&mut self, rec: &mut Recorder, _lag: bool) {
        let n = self.h.cluster.net.len() as u32;
        let mut oids: Vec<&String> = self.truth.keys().collect();
        oids.sort_unstable();
        let mut bad = Vec::new();
        for (i, oid) in oids.into_iter().enumerate() {
            let out = self
                .h
                .cluster
                .query(NodeId(i as u32 % n), &readback_query(oid))
                .expect("generated query parses");
            let right = out.ok
                && match &self.truth[oid] {
                    Some(v) => out.relation.rows.len() == 1 && out.relation.rows[0][0].eq_values(v),
                    None => out.relation.rows.is_empty(),
                };
            if !right {
                bad.push(format!("read-back of {oid} differs from what was written"));
            }
            if i % 4096 == 0 {
                self.h.cluster.take_traces();
            }
        }
        if bad.is_empty() {
            rec.writes_durable = rec.writes_acked;
        }
        for b in bad {
            rec.flag_wrong(b);
        }
        self.h.check_world_sample(rec);
    }

    fn world(&self) -> &PubWorld {
        &self.h.world
    }

    fn oracle(&self) -> &LocalEngine {
        &self.h.oracle
    }

    fn cluster(&mut self) -> &mut UniCluster {
        &mut self.h.cluster
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(schema: &[&str], rows: Vec<Vec<Value>>) -> Relation {
        Relation { schema: schema.iter().map(|s| std::sync::Arc::from(*s)).collect(), rows }
    }

    #[test]
    fn digest_ignores_row_and_column_order_but_not_multiplicity() {
        let a = rel(
            &["x", "y"],
            vec![vec![Value::Int(1), Value::str("a")], vec![Value::Int(2), Value::str("b")]],
        );
        let b = rel(
            &["y", "x"],
            vec![vec![Value::str("b"), Value::Float(2.0)], vec![Value::str("a"), Value::Int(1)]],
        );
        assert_eq!(digest(&a), digest(&b));
        let mut c = a.clone();
        c.rows.push(c.rows[0].clone());
        assert_ne!(digest(&a), digest(&c));
        let d = rel(&["x", "y"], vec![vec![Value::Int(1), Value::str("b")], a.rows[1].clone()]);
        assert_ne!(digest(&a), digest(&d));
    }

    #[test]
    fn age_windows_partition_the_generated_ages() {
        let lo: Vec<i64> = (0..AGE_WINDOWS as i64).map(|w| 24 + 3 * w).collect();
        assert_eq!(lo[0], 24);
        assert_eq!(lo[AGE_WINDOWS - 1] + 3, 66, "ages are drawn from 24..=65");
        assert!(join3_query(2).contains("?g >= 30 AND ?g < 33"));
    }
}
