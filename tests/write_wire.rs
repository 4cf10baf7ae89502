//! A whole-run wire check of the write path. The simulator sums each
//! send's `wire_size` and never decodes it, so a write op that names
//! the wrong key slot, or a size that disagrees with the encoding,
//! would pass every count. Here a 16-peer write workload on each
//! backend — `insert_batch` with q-gram postings, `update` and
//! `delete_batch`, under 2 % loss so that origins retransmit, and on
//! Chord with a crashed owner side so that nodes hold and replay hinted
//! writes — runs with a check on every send: it is encoded, its length
//! is checked against `wire_size`, and it decodes to what was sent (by
//! its `Debug` form).

use std::cell::RefCell;
use std::fmt::Debug;

use bytes::Bytes;

use unistore::backends::{chord_config, ChordUniCluster};
use unistore::msg::UniMsg;
use unistore::{UniCluster, UniConfig};
use unistore_chord::msg::ChordMsg;
use unistore_overlay::Overlay;
use unistore_pgrid::msg::PGridMsg;
use unistore_simnet::{NodeId, SimTime};
use unistore_store::{Triple, Tuple, Value};
use unistore_util::wire::{BatchOp, BatchVerb, Wire};
use unistore_util::FxHashSet;

/// What the checks saw on this thread.
#[derive(Default)]
struct Census {
    msgs: usize,
    derived: usize,
    explicit_inserts: usize,
    retransmits: usize,
    replays: usize,
    /// `(qid, position)` of every op a P-Grid origin sent out.
    first_sends: FxHashSet<(u64, u32)>,
}

thread_local! {
    static CENSUS: RefCell<Census> = RefCell::new(Census::default());
}

/// Encodes, sizes and decodes one send.
fn roundtrip<M: Wire + Debug>(msg: &M, bytes: &Bytes) {
    assert_eq!(bytes.len(), msg.wire_size(), "wire_size of {msg:?}");
    let back = M::from_bytes(bytes).unwrap_or_else(|e| panic!("{e} decoding {msg:?}"));
    assert_eq!(format!("{back:?}"), format!("{msg:?}"));
}

fn count_ops<'a>(census: &mut Census, ops: impl Iterator<Item = &'a BatchOp>) {
    for op in ops {
        match op.verb {
            BatchVerb::Insert { slot: Some(_), .. } => census.derived += 1,
            BatchVerb::Insert { slot: None, .. } => census.explicit_inserts += 1,
            BatchVerb::Delete { .. } => {}
        }
    }
}

fn check_pgrid(msg: &UniMsg<PGridMsg<Triple>>, bytes: &Bytes) {
    roundtrip(msg, bytes);
    CENSUS.with(|c| {
        let c = &mut *c.borrow_mut();
        c.msgs += 1;
        if let UniMsg::Overlay(PGridMsg::OpBatch { qid, hops, positions, batch, .. }) = msg {
            count_ops(c, batch.ops.iter());
            // An origin sends each op out at hop 1 once per attempt.
            if *hops == 1 {
                let again = positions.iter().filter(|&&p| !c.first_sends.insert((*qid, p)));
                c.retransmits += again.count();
            }
        }
    });
}

fn check_chord(msg: &UniMsg<ChordMsg<Triple>>, bytes: &Bytes) {
    roundtrip(msg, bytes);
    CENSUS.with(|c| {
        let c = &mut *c.borrow_mut();
        c.msgs += 1;
        if let UniMsg::Overlay(ChordMsg::OpBatch { qid, attempt, ops, .. }) = msg {
            count_ops(c, ops.iter().map(|op| &op.op));
            c.retransmits += usize::from(*attempt > 0);
            // A node's replays of its hint table count down from 2^63.
            c.replays += usize::from(*qid >= 1 << 63);
        }
    });
}

/// Eight tuples from `batch`: a name, a title past the 12 grams whose
/// slots fit the flag byte, a year, a score, and a tag shared by half.
fn tuples(batch: usize) -> Vec<Tuple> {
    (0..8)
        .map(|i| {
            let n = batch * 8 + i;
            Tuple::new(&format!("paper{n}"))
                .with("name", Value::str(&format!("author-{n}")))
                .with("title", Value::str(&format!("Similarity joins over a DHT, part {n}")))
                .with("year", Value::Int(2000 + (n % 9) as i64))
                .with("score", Value::Float(n as f64 / 4.0))
                .with("tag", Value::str(if n % 2 == 0 { "even" } else { "odd" }))
        })
        .collect()
}

/// Runs the write workload from `origins` with `down` crashed from the
/// fourth batch on and revived before the last two, and returns what
/// the checks saw.
fn write_workload<O: Overlay<Item = Triple>>(
    mut c: UniCluster<O>,
    origins: &[NodeId],
    down: &[NodeId],
) -> Census {
    CENSUS.with(|c| *c.borrow_mut() = Census::default());
    c.net.set_loss_rate(0.02);
    let origin = |i: usize| origins[i % origins.len()];
    for batch in 0..8 {
        if batch == 3 {
            for &node in down {
                c.net.schedule_down(node, c.net.now());
            }
            c.settle(SimTime::from_secs(40));
        }
        if batch == 6 {
            for &node in down {
                c.net.schedule_up(node, c.net.now());
            }
            c.settle(SimTime::from_secs(40));
        }
        let tuples = tuples(batch);
        c.insert_batch(origin(batch), &tuples);
        let triples: Vec<Triple> = tuples.iter().flat_map(Tuple::to_triples).collect();
        // Retitle one paper and rescore another, then delete a third.
        let title = triples.iter().find(|t| &*t.attr == "title").expect("a title");
        let retitled = Value::str(&format!("{} (extended version)", title.value));
        c.update(origin(batch + 1), title, retitled, 1);
        let score = triples.iter().rfind(|t| &*t.attr == "score").expect("a score");
        c.update(origin(batch + 2), score, Value::Int(batch as i64), 1);
        c.delete_batch(origin(batch + 3), &triples[triples.len() - 5..], 2);
    }
    c.settle(SimTime::from_secs(60));
    c.net.set_send_check(None);
    CENSUS.with(|c| std::mem::take(&mut *c.borrow_mut()))
}

fn assert_census(census: &Census, backend: &str) {
    assert!(census.msgs > 300, "{backend}: {} messages checked", census.msgs);
    assert!(census.derived > 1_000, "{backend}: {} derived ops", census.derived);
    assert_eq!(census.explicit_inserts, 0, "{backend}: every insert re-sent keeps its slot");
    assert!(census.retransmits > 0, "{backend}: the loss forced no retransmission");
}

#[test]
fn every_send_of_a_lossy_write_workload_decodes_to_itself_pgrid() {
    let mut c = UniCluster::build(16, UniConfig::default(), 31);
    c.net.set_send_check(Some(check_pgrid));
    let origins: Vec<NodeId> = (0..16).map(NodeId).collect();
    let census = write_workload(c, &origins, &[]);
    assert_census(&census, "P-Grid");
}

#[test]
fn every_send_of_a_lossy_write_workload_decodes_to_itself_chord() {
    let mut cfg = chord_config();
    cfg.overlay.replicate = true;
    cfg.overlay.ping_interval = SimTime::from_secs(5);
    let mut c = ChordUniCluster::build_overlay(16, cfg, 31);
    c.net.set_send_check(Some(check_chord));
    // Two ring neighbours: the owner side of every key in the first's
    // range, so its predecessor holds those writes until they revive.
    let mut ring: Vec<(u64, NodeId)> =
        c.net.iter_nodes().map(|(id, n)| (n.overlay.ring_id(), id)).collect();
    ring.sort_unstable();
    let down = [ring[4].1, ring[5].1];
    let origins: Vec<NodeId> =
        ring.iter().map(|&(_, id)| id).filter(|id| !down.contains(id)).collect();
    let census = write_workload(c, &origins, &down);
    assert_census(&census, "Chord");
    assert!(census.replays > 0, "Chord: no hinted write was replayed");
}
