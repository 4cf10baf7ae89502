//! Per-layer probes: public functions of each crate timed from outside.
//!
//! Two kinds. *Replays* run a layer's entry point once on a sampled op's
//! own input and record a span under that op's id. *World probes* time a
//! layer on inputs drawn from the workload's world where an op's own
//! input is not visible from outside (relation operators, leaf stores,
//! raw overlays, the bare event loop).

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};

use unistore::backends::{chord_config, ChordUniCluster};
use unistore::live::LiveCluster;
use unistore::stats::build_cost_model;
use unistore::{UniCluster, UniConfig};
use unistore_chord::{ChordCluster, ChordConfig, ChordRangeMode};
use unistore_overlay::Overlay;
use unistore_pgrid::cluster::Topology;
use unistore_pgrid::{PGridCluster, PGridConfig, RangeMode};
use unistore_query::eval::filter_relation;
use unistore_query::mqp::bind_triples;
use unistore_query::strategy::scan_candidates;
use unistore_query::{CostModel, LocalEngine, Logical, Mqp, MqpNode, Relation, StatsDelta};
use unistore_simnet::{
    ConstantLatency, Effects, LanLatency, NodeBehavior, NodeId, SimNet, SimTime,
};
use unistore_store::index::{attr_value_key, attr_value_range, oid_key, TripleKeys};
use unistore_store::local::LocalTripleStore;
use unistore_store::mapping::MappingSet;
use unistore_store::triple::Oid;
use unistore_store::{Triple, Tuple, Value};
use unistore_util::bloom::BloomFilter;
use unistore_util::wire::{OpBatch, Wire, WireError};
use unistore_util::Key;
use unistore_vql::{analyze, parse, AnalyzedQuery, Term};
use unistore_workload::{zipf_write_batches, PubWorld};

use crate::alloc;
use crate::spec::Sizes;
use crate::trace::Tracer;
use crate::workloads::{join3_query, Sample, WORLD_SEED, WRITE_ATTR, WRITE_THETA};

/// The false-positive rate `unistore::node` sizes its semi-join filters
/// with (private there).
const SEMI_JOIN_FPR: f64 = 0.01;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

/// Median wall time of `reps` runs of `f` (each run is one sample).
fn median_time(reps: usize, mut f: impl FnMut()) -> Duration {
    let mut runs: Vec<Duration> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .collect();
    runs.sort_unstable();
    runs[runs.len() / 2]
}

fn analyzed(query: &str) -> AnalyzedQuery {
    analyze(parse(query).expect("generated query parses")).expect("generated query analyzes")
}

fn initial_plan(a: &AnalyzedQuery, qid: u64) -> Mqp {
    let logical = Logical::from_query(a);
    Mqp::new(
        qid,
        0,
        MqpNode::from_logical(&logical),
        a.query.filters.clone(),
        a.query.limit.map(|n| n as u64),
    )
}

/// The insert batch `UniCluster::insert_batch` builds for `tuples`
/// (its builder is crate-private; this is the same public-API recipe).
fn insert_batch_of(tuples: &[Tuple]) -> (OpBatch<Triple>, usize) {
    let mut batch = OpBatch::new();
    let mut triples = 0;
    for tuple in tuples {
        for t in tuple.to_triples() {
            let item = batch.add_item(t.clone());
            for key in TripleKeys::derive(&t, true).all() {
                batch.push_insert(key, item, 0);
            }
            triples += 1;
        }
    }
    (batch, triples)
}

/// The key an op's query looks up, when its first pattern names one.
fn lookup_key(a: &AnalyzedQuery) -> Option<Key> {
    let p = a.query.patterns.first()?;
    match (&p.subject, &p.attr, &p.value) {
        (Term::Lit(Value::Str(oid)), _, _) => Some(oid_key(&Oid::new(oid))),
        (_, Term::Lit(Value::Str(attr)), Term::Lit(v)) => Some(attr_value_key(attr, v)),
        _ => None,
    }
}

/// Totals of the replayed codec work, for the `util.*` codec metrics.
#[derive(Default)]
struct CodecTotals {
    msgs: u64,
    bytes: u64,
    wire_size_ns: f64,
    encode_ns: f64,
    decode_ns: f64,
    encode_allocs: u64,
    decode_allocs: u64,
}

impl CodecTotals {
    /// Sizes, encodes and decodes one message under `util.*` spans.
    fn replay<M: Wire>(&mut self, msg: &M, tracer: &mut Tracer, op: u64) {
        let t = Instant::now();
        let s = tracer.open("util.wire_size", op);
        let size = std::hint::black_box(msg.wire_size());
        tracer.close(s);
        self.wire_size_ns += ns(t.elapsed());

        let t = Instant::now();
        let s = tracer.open("util.encode", op);
        let (bytes, allocs, _) = alloc::measure(|| msg.to_bytes());
        tracer.close(s);
        self.encode_ns += ns(t.elapsed());
        self.encode_allocs += allocs;
        assert_eq!(bytes.len(), size, "wire_size disagrees with the encoding");

        let t = Instant::now();
        let s = tracer.open("util.decode", op);
        let (back, allocs, _) = alloc::measure(|| M::from_bytes(&bytes));
        tracer.close(s);
        self.decode_ns += ns(t.elapsed());
        self.decode_allocs += allocs;
        assert!(back.is_ok(), "a message the codec wrote must decode");
        std::hint::black_box(back.ok());

        self.msgs += 1;
        self.bytes += size as u64;
    }
}

/// What the replays of the sampled ops measured (means over samples).
#[derive(Default)]
pub struct ReplayMetrics {
    pub parse_us: f64,
    pub analyze_us: f64,
    pub front_end_allocs: f64,
    pub plan_us: f64,
    pub cost_choose_us: f64,
    pub relops_us: f64,
    pub oracle_exec_us: f64,
    pub mqp_wire_bytes: f64,
    pub to_triples_ns_per_tuple: f64,
    pub key_derive_ns_per_triple: f64,
    pub wire_size_ns_per_msg: f64,
    pub encode_ns_per_kib: f64,
    pub decode_ns_per_kib: f64,
    pub encode_allocs_per_msg: f64,
    pub decode_allocs_per_msg: f64,
    pub raw_lookup_us: f64,
}

/// Replays every layer's public entry point on each sampled op's own
/// input, one span per call, all under a `replay` span carrying the op's
/// id. `raw_lookup` times raw overlay lookups on the workload's cluster.
pub fn replay_samples(
    samples: &[Sample],
    world: &PubWorld,
    oracle: &LocalEngine,
    model: &CostModel,
    tracer: &mut Tracer,
    mut raw_lookup: impl FnMut(&[Key], &mut Tracer, u64) -> f64,
) -> ReplayMetrics {
    let all_triples = oracle.store().all();
    let mappings = MappingSet::new();
    let mut m = ReplayMetrics::default();
    let mut codec = CodecTotals::default();
    let (mut tuples_seen, mut triples_seen) = (0u64, 0u64);
    let (mut to_triples_ns, mut key_ns) = (0.0, 0.0);
    for s in samples {
        let root = tracer.open("replay", s.op);

        let t = Instant::now();
        let sp = tracer.open("vql.parse", s.op);
        let (parsed, a1, _) = alloc::measure(|| parse(&s.query).expect("generated query parses"));
        tracer.close(sp);
        m.parse_us += us(t.elapsed());

        let t = Instant::now();
        let sp = tracer.open("vql.analyze", s.op);
        let (a, a2, _) = alloc::measure(|| analyze(parsed).expect("generated query analyzes"));
        tracer.close(sp);
        m.analyze_us += us(t.elapsed());
        m.front_end_allocs += (a1 + a2) as f64;

        let t = Instant::now();
        let sp = tracer.open("query.plan", s.op);
        let plan = initial_plan(&a, s.op);
        tracer.close(sp);
        m.plan_us += us(t.elapsed());
        m.mqp_wire_bytes += plan.wire_size() as f64;

        let t = Instant::now();
        let sp = tracer.open("query.cost_choose", s.op);
        for p in &a.query.patterns {
            let cands = scan_candidates(p, &a.query.filters);
            std::hint::black_box(model.choose_scan(&cands, None));
        }
        tracer.close(sp);
        m.cost_choose_us += us(t.elapsed());

        // Relation operators on the op's own relations: the plan is
        // resolved centrally, timing only the folds (join, filter,
        // project), not the stand-in scans.
        let mut root_node = MqpNode::from_logical(&Logical::from_query(&a));
        let mut relops = Duration::ZERO;
        while let Some(pattern) = root_node.first_scan().cloned() {
            let rel = bind_triples(&pattern, all_triples, &mappings);
            root_node.resolve_first_scan(rel);
            let t = Instant::now();
            let sp = tracer.open("query.relops", s.op);
            root_node.reduce();
            tracer.close(sp);
            relops += t.elapsed();
        }
        m.relops_us += us(relops);

        let t = Instant::now();
        let sp = tracer.open("query.oracle_exec", s.op);
        std::hint::black_box(oracle.execute(&a));
        tracer.close(sp);
        m.oracle_exec_us += us(t.elapsed());

        // Codec: the plan that left the origin, the result that came
        // back, and for writes the batch that was shipped.
        codec.replay(&plan, tracer, s.op);
        codec.replay(&s.relation, tracer, s.op);
        let own_tuples: &[Tuple] = match s.tuples.is_empty() {
            // A read carries no tuples: derive keys for the world tuple
            // its op id picks.
            true => std::slice::from_ref(&world.authors[s.op as usize % world.authors.len()]),
            false => &s.tuples,
        };
        if !s.tuples.is_empty() {
            codec.replay(&insert_batch_of(&s.tuples).0, tracer, s.op);
        }

        let t = Instant::now();
        let sp = tracer.open("store.to_triples", s.op);
        let triples: Vec<Triple> = own_tuples.iter().flat_map(|t| t.to_triples()).collect();
        tracer.close(sp);
        to_triples_ns += ns(t.elapsed());
        let t = Instant::now();
        let sp = tracer.open("store.key_derive", s.op);
        let keys: Vec<Key> =
            triples.iter().flat_map(|t| TripleKeys::derive(t, true).all()).collect();
        tracer.close(sp);
        key_ns += ns(t.elapsed());
        tuples_seen += own_tuples.len() as u64;
        triples_seen += triples.len() as u64;

        let key = lookup_key(&a).unwrap_or(keys[0]);
        m.raw_lookup_us += raw_lookup(&[key], tracer, s.op);

        tracer.close(root);
    }
    let n = samples.len().max(1) as f64;
    m.parse_us /= n;
    m.analyze_us /= n;
    m.front_end_allocs /= n;
    m.plan_us /= n;
    m.cost_choose_us /= n;
    m.relops_us /= n;
    m.oracle_exec_us /= n;
    m.mqp_wire_bytes /= n;
    m.raw_lookup_us /= n;
    m.to_triples_ns_per_tuple = to_triples_ns / tuples_seen.max(1) as f64;
    m.key_derive_ns_per_triple = key_ns / triples_seen.max(1) as f64;
    let msgs = codec.msgs.max(1) as f64;
    let kib = (codec.bytes as f64 / 1024.0).max(f64::MIN_POSITIVE);
    m.wire_size_ns_per_msg = codec.wire_size_ns / msgs;
    m.encode_ns_per_kib = codec.encode_ns / kib;
    m.decode_ns_per_kib = codec.decode_ns / kib;
    m.encode_allocs_per_msg = codec.encode_allocs as f64 / msgs;
    m.decode_allocs_per_msg = codec.decode_allocs as f64 / msgs;
    m
}

/// What the world probes measured.
#[derive(Default)]
pub struct WorldMetrics {
    pub join_us_per_krow: f64,
    pub join_allocs_per_row: f64,
    pub filter_ns_per_row: f64,
    pub stats_apply_us_per_batch: f64,
    pub stats_build_s: f64,
    pub local_point_ns: f64,
    pub local_range_ns_per_row: f64,
    pub local_insert_ns_per_triple: f64,
    pub opbatch_bytes_per_triple: f64,
    pub bloom_build_ns_per_key: f64,
    pub bloom_bytes_per_key: f64,
    pub bare_events_per_s: f64,
    pub pgrid: OverlayMetrics,
    pub chord: OverlayMetrics,
    pub insert_batch_us: f64,
    pub insert_triples_per_s: f64,
    pub live_point_us: f64,
}

#[derive(Default)]
pub struct OverlayMetrics {
    pub lookup_us: f64,
    pub lookup_hops: f64,
    pub lookup_msgs: f64,
    pub range_us: f64,
    pub range_msgs: f64,
    pub range_leaves: f64,
    pub batch_msgs_per_ktriple: f64,
    pub batch_kib_per_ktriple: f64,
    pub build_s: f64,
}

/// Relation operators on the join3 shape: the five pattern relations of
/// one age window, filtered and joined left-deep as the plan does.
fn probe_relops(triples: &[Triple], m: &mut WorldMetrics) {
    let a = analyzed(&join3_query(2));
    let mappings = MappingSet::new();
    let rels: Vec<Relation> =
        a.query.patterns.iter().map(|p| bind_triples(p, triples, &mappings)).collect();
    let ages = &rels[0];

    let reps = 5;
    let copies: Vec<Relation> = (0..reps).map(|_| ages.clone()).collect();
    let mut copies = copies.into_iter();
    let filter = median_time(reps, || {
        let mut rel = copies.next().expect("one copy per rep");
        for f in &a.query.filters {
            filter_relation(&mut rel, f);
        }
        std::hint::black_box(rel);
    });
    m.filter_ns_per_row = ns(filter) / ages.len().max(1) as f64;

    let mut window = ages.clone();
    for f in &a.query.filters {
        filter_relation(&mut window, f);
    }
    let fold = |rels: &[Relation]| {
        let mut acc = window.clone();
        let mut rows = 0usize;
        for r in &rels[1..] {
            acc = acc.join(r);
            rows += acc.len();
        }
        (acc, rows)
    };
    let ((_, rows), allocs, _) = alloc::measure(|| fold(&rels));
    let join = median_time(reps, || {
        std::hint::black_box(fold(&rels));
    });
    m.join_us_per_krow = us(join) / (rows.max(1) as f64 / 1000.0);
    m.join_allocs_per_row = allocs as f64 / rows.max(1) as f64;

    // Bloom filter over the window's distinct join keys, as the
    // semi-join pushdown builds it.
    let hashes: Vec<u64> = window.rows.iter().map(|r| r[0].semantic_hash()).collect();
    let reps = 25;
    let build = median_time(reps, || {
        std::hint::black_box(BloomFilter::from_hashes(hashes.iter().copied(), SEMI_JOIN_FPR));
    });
    let bloom = BloomFilter::from_hashes(hashes.iter().copied(), SEMI_JOIN_FPR);
    m.bloom_build_ns_per_key = ns(build) / hashes.len().max(1) as f64;
    m.bloom_bytes_per_key = bloom.wire_size() as f64 / hashes.len().max(1) as f64;
}

fn probe_stats(
    world: &PubWorld,
    triples: &[Triple],
    sizes: &Sizes,
    seed: u64,
    m: &mut WorldMetrics,
) {
    let n = sizes.healthy_peers;
    let t = Instant::now();
    let model = build_cost_model(triples, n, n, 1, SimTime::from_micros(500));
    m.stats_build_s = t.elapsed().as_secs_f64();

    let batches = zipf_write_batches(world, WRITE_ATTR, 16, sizes.ingest_batch, WRITE_THETA, seed);
    let deltas: Vec<StatsDelta> = batches
        .iter()
        .map(|b| {
            let mut d = StatsDelta::new();
            for t in b.iter().flat_map(|t| t.to_triples()) {
                d.record_insert(t);
            }
            d
        })
        .collect();
    let mut model = Arc::unwrap_or_clone(model);
    let t = Instant::now();
    for d in &deltas {
        model.apply_delta(d);
    }
    m.stats_apply_us_per_batch = us(t.elapsed()) / deltas.len() as f64;

    let (batch, n_triples) = insert_batch_of(&batches[0]);
    m.opbatch_bytes_per_triple = batch.wire_size() as f64 / n_triples.max(1) as f64;
}

fn probe_local_store(world: &PubWorld, triples: &[Triple], m: &mut WorldMetrics) {
    let t = Instant::now();
    let mut store = LocalTripleStore::new();
    store.insert_all(triples.iter().cloned());
    m.local_insert_ns_per_triple = ns(t.elapsed()) / triples.len().max(1) as f64;

    let names: Vec<&Value> = world.authors.iter().filter_map(|a| a.get("name")).collect();
    let point = median_time(5, || {
        for v in &names {
            std::hint::black_box(store.by_attr_value("name", v));
        }
    });
    m.local_point_ns = ns(point) / names.len().max(1) as f64;

    let (lo, hi) = (Value::Int(30), Value::Int(32));
    let rows = store.by_attr_range("age", Some(&lo), Some(&hi)).len();
    let range = median_time(25, || {
        std::hint::black_box(store.by_attr_range("age", Some(&lo), Some(&hi)));
    });
    m.local_range_ns_per_row = ns(range) / rows.max(1) as f64;
}

/// A token relayed around a ring: the event loop with next to no
/// protocol work per event.
#[derive(Clone, Debug)]
struct Token(u32);

impl Wire for Token {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(Token(u32::decode(buf)?))
    }
    fn wire_size(&self) -> usize {
        self.0.wire_size()
    }
}

struct Relay {
    next: NodeId,
}

impl NodeBehavior for Relay {
    type Msg = Token;
    type Out = ();

    fn on_message(
        &mut self,
        _now: SimTime,
        _from: NodeId,
        msg: Token,
        fx: &mut Effects<Token, ()>,
    ) {
        if msg.0 > 0 {
            fx.send(self.next, Token(msg.0 - 1));
        }
    }
}

fn probe_bare_simnet(events: u32, m: &mut WorldMetrics) {
    const RING: u32 = 16;
    let mut net: SimNet<Relay> = SimNet::new(ConstantLatency(SimTime::from_micros(500)), 1);
    for i in 0..RING {
        net.add_node(Relay { next: NodeId((i + 1) % RING) });
    }
    net.inject(NodeId(0), Token(events));
    let t = Instant::now();
    while net.step() {}
    let handled = net.metrics().delivered as f64;
    m.bare_events_per_s = handled / t.elapsed().as_secs_f64();
}

fn quiet_pgrid() -> PGridConfig {
    UniConfig::default().overlay
}

/// Raw P-Grid: lookups of the world's name keys, showers over the whole
/// `age` attribute, on a converged overlay holding every index entry.
fn probe_pgrid(
    world: &PubWorld,
    triples: &[Triple],
    sizes: &Sizes,
    seed: u64,
    m: &mut OverlayMetrics,
) {
    let entries: Vec<(Key, &Triple)> = triples
        .iter()
        .flat_map(|t| TripleKeys::derive(t, true).all().into_iter().map(move |k| (k, t)))
        .collect();
    let sample: Vec<Key> =
        triples.iter().flat_map(|t| TripleKeys::derive(t, true).primary()).collect();
    let t = Instant::now();
    let mut c: PGridCluster<Triple> = PGridCluster::build(
        sizes.probe_peers,
        quiet_pgrid(),
        Topology::Balanced { sample },
        LanLatency,
        seed,
    );
    m.build_s = t.elapsed().as_secs_f64();
    c.preload_all(entries.into_iter().map(|(k, t)| (k, t.clone())));

    let n = sizes.probe_peers as u32;
    let keys = name_keys(world);
    let (mut hops, mut msgs) = (0u64, 0u64);
    let t = Instant::now();
    for (i, &k) in keys.iter().enumerate() {
        let out = c.lookup(NodeId(i as u32 % n), k);
        assert!(out.ok && !out.items.is_empty(), "raw P-Grid lookup of a loaded key failed");
        hops += out.cost.hops as u64;
        msgs += out.cost.messages;
    }
    m.lookup_us = us(t.elapsed()) / keys.len() as f64;
    m.lookup_hops = hops as f64 / keys.len() as f64;
    m.lookup_msgs = msgs as f64 / keys.len() as f64;

    let (lo, hi) = attr_value_range("age", None, None);
    let reps = 32;
    let (mut msgs, mut leaves) = (0u64, 0u64);
    let t = Instant::now();
    for i in 0..reps {
        let out = c.range(NodeId(i % n), lo, hi, RangeMode::Parallel);
        assert!(out.complete, "raw P-Grid shower did not complete");
        msgs += out.cost.messages;
        leaves += out.leaves as u64;
    }
    m.range_us = us(t.elapsed()) / reps as f64;
    m.range_msgs = msgs as f64 / reps as f64;
    m.range_leaves = leaves as f64 / reps as f64;
}

fn probe_chord(
    world: &PubWorld,
    triples: &[Triple],
    sizes: &Sizes,
    seed: u64,
    m: &mut OverlayMetrics,
) {
    let t = Instant::now();
    let mut c: ChordCluster<Triple> =
        ChordCluster::build(sizes.probe_peers, ChordConfig::default(), LanLatency, seed);
    m.build_s = t.elapsed().as_secs_f64();
    for t in triples {
        for k in TripleKeys::derive(t, true).all() {
            c.preload(k, t.clone());
        }
    }

    let n = sizes.probe_peers as u32;
    let keys = name_keys(world);
    let (mut hops, mut msgs) = (0u64, 0u64);
    let t = Instant::now();
    for (i, &k) in keys.iter().enumerate() {
        let out = c.lookup(NodeId(i as u32 % n), k);
        assert!(out.ok && !out.entries.is_empty(), "raw Chord lookup of a loaded key failed");
        hops += out.cost.hops as u64;
        msgs += out.cost.messages;
    }
    m.lookup_us = us(t.elapsed()) / keys.len() as f64;
    m.lookup_hops = hops as f64 / keys.len() as f64;
    m.lookup_msgs = msgs as f64 / keys.len() as f64;

    let (lo, hi) = attr_value_range("age", None, None);
    let reps = 32;
    let mut msgs = 0u64;
    let t = Instant::now();
    for i in 0..reps {
        let out = c.range(NodeId(i % n), lo, hi, ChordRangeMode::Buckets);
        assert!(out.complete, "raw Chord bucket range did not complete");
        msgs += out.cost.messages;
    }
    m.range_us = us(t.elapsed()) / reps as f64;
    m.range_msgs = msgs as f64 / reps as f64;
}

fn name_keys(world: &PubWorld) -> Vec<Key> {
    world
        .authors
        .iter()
        .filter_map(|a| a.get("name"))
        .map(|v| attr_value_key("name", v))
        .take(256)
        .collect()
}

/// Routed batch writes through the full node on either backend: messages
/// and bytes per thousand triples, wall µs per batch.
fn probe_batches<O: Overlay<Item = Triple>>(
    mut cluster: UniCluster<O>,
    world: &PubWorld,
    sizes: &Sizes,
    seed: u64,
    m: &mut OverlayMetrics,
) -> (f64, f64) {
    cluster.load(world.all_tuples());
    let batches =
        zipf_write_batches(world, WRITE_ATTR, 8, sizes.ingest_batch, WRITE_THETA, seed ^ 21);
    let n = cluster.net.len() as u32;
    let (mut msgs, mut bytes, mut triples) = (0u64, 0u64, 0u64);
    let t = Instant::now();
    for (i, b) in batches.iter().enumerate() {
        let (ok, cost) = cluster.insert_batch(NodeId(i as u32 % n), b);
        assert!(ok, "a batch write failed on a healthy probe cluster");
        msgs += cost.messages;
        bytes += cost.bytes;
        triples += b.iter().map(|t| t.fields.len() as u64).sum::<u64>();
    }
    let wall = t.elapsed();
    let ktriples = triples as f64 / 1000.0;
    m.batch_msgs_per_ktriple = msgs as f64 / ktriples;
    m.batch_kib_per_ktriple = bytes as f64 / 1024.0 / ktriples;
    (us(wall) / batches.len() as f64, triples as f64 / wall.as_secs_f64())
}

/// Diagnostic only: point reads on an 8-peer threaded `LiveCluster`. On a
/// two-core machine this measures the scheduler as much as the code,
/// which is why no gated workload uses the live runtime.
fn probe_live(world: &PubWorld, seed: u64, m: &mut WorldMetrics) {
    let tuples: Vec<Tuple> = world.authors.iter().take(200).cloned().collect();
    let queries: Vec<String> = tuples
        .iter()
        .filter_map(|a| a.get("name"))
        .map(|v| format!("SELECT ?x WHERE {{(?x,'name',{v})}}"))
        .collect();
    let mut live = LiveCluster::start(8, UniConfig::default(), tuples, seed);
    let t = Instant::now();
    let mut answered = 0;
    for (i, q) in queries.iter().enumerate() {
        let out = live.query(NodeId(i as u32 % 8), q, Duration::from_secs(5));
        answered += matches!(out, Ok(Some(_))) as usize;
    }
    m.live_point_us = us(t.elapsed()) / queries.len().max(1) as f64;
    live.shutdown();
    assert_eq!(answered, queries.len(), "a live point read went unanswered");
}

/// Runs every world probe.
pub fn probe_world(
    world: &PubWorld,
    oracle: &LocalEngine,
    sizes: &Sizes,
    seed: u64,
) -> WorldMetrics {
    let triples = oracle.store().all();
    let mut m = WorldMetrics::default();
    probe_relops(triples, &mut m);
    probe_stats(world, triples, sizes, seed, &mut m);
    probe_local_store(world, triples, &mut m);
    probe_bare_simnet(sizes.probe_events, &mut m);
    probe_pgrid(world, triples, sizes, WORLD_SEED, &mut m.pgrid);
    probe_chord(world, triples, sizes, WORLD_SEED, &mut m.chord);
    let pgrid = UniCluster::build(sizes.probe_peers, UniConfig::default(), WORLD_SEED);
    let (batch_us, triples_per_s) = probe_batches(pgrid, world, sizes, seed, &mut m.pgrid);
    m.insert_batch_us = batch_us;
    m.insert_triples_per_s = triples_per_s;
    let chord = ChordUniCluster::build_overlay(sizes.probe_peers, chord_config(), WORLD_SEED);
    probe_batches(chord, world, sizes, seed, &mut m.chord);
    probe_live(world, WORLD_SEED, &mut m);
    m
}
