//! Properties of the hash-tree replica repair, driven store against
//! store with no network in between: a completed exchange ships exactly
//! what `diff_newer` over flat digests would have shipped (both ways),
//! costs bytes proportional to the divergence, reaches a fixpoint, and
//! survives the loss of any one message without leaving state behind.

use std::collections::VecDeque;

use proptest::prelude::*;
use unistore_overlay::repair::{diff_newer, RepairMsg, RepairStats, ReplicaRepair, Span, LEAF_MAX};
use unistore_overlay::{RecordList, VersionedStore};
use unistore_util::item::testing::Tagged;
use unistore_util::wire::Wire;

type Key = (u64, u64);
type Msg = RepairMsg<Key, Tagged>;
type MemStore = VersionedStore<Key, Tagged>;

/// Every record key.
const ALL: Span<Key> = ((0, 0), (u64::MAX, u64::MAX));

fn run(store: &MemStore, span: Span<Key>) -> Vec<(Key, u64)> {
    store.records(span).map(|(k, v, _)| (k, v)).collect()
}

/// Every record, tombstones included: what two stores are compared by.
fn contents(store: &MemStore) -> Vec<(Key, u64, Option<Tagged>)> {
    store.records(ALL).map(|(k, v, item)| (k, v, item.copied())).collect()
}

/// `store` after applying what `diff_newer` says `other` would ship
/// over `span`, and how many records that is.
fn repaired_from(store: &MemStore, other: &MemStore, span: Span<Key>) -> (MemStore, usize) {
    let shipped = diff_newer(other.records(span), &run(store, span));
    let mut out = store.clone();
    let n = shipped.len();
    for (k, v, item) in shipped {
        assert!(out.apply(k, v, item), "diff_newer ships only what applies");
    }
    (out, n)
}

#[derive(Clone, Debug, Default)]
struct Replica {
    store: MemStore,
    repair: ReplicaRepair,
}

/// What one exchange put on the wire.
#[derive(Debug, Default, PartialEq)]
struct Trace {
    msgs: usize,
    bytes: usize,
    /// Longest chain of replies, the probe being 1.
    round_trips: usize,
    /// Records shipped to the requester / to the partner.
    shipped: [usize; 2],
}

/// One anti-entropy tick of `a` with partner `b` over `span`, run to
/// quiescence; message number `lose` (in send order) is dropped.
fn exchange(a: &mut Replica, b: &mut Replica, span: Span<Key>, lose: Option<usize>) -> Trace {
    let mut trace = Trace::default();
    let mut queue = VecDeque::from([(1, 1usize, a.repair.probe(&mut a.store, span))]);
    while let Some((to, depth, msg)) = queue.pop_front() {
        let bytes = msg.to_bytes();
        assert_eq!(bytes.len(), msg.wire_size(), "{msg:?}");
        assert_eq!(Msg::from_bytes(&bytes).as_ref(), Ok(&msg), "what is sent must decode");
        let nth = trace.msgs;
        trace.msgs += 1;
        trace.bytes += bytes.len();
        trace.round_trips = trace.round_trips.max(depth);
        if let RepairMsg::Records { entries, .. } = &msg {
            trace.shipped[to] += entries.len();
        }
        if lose == Some(nth) {
            continue;
        }
        let dst = if to == 1 { &mut *b } else { &mut *a };
        for reply in dst.repair.handle(&mut dst.store, &[span], msg) {
            queue.push_back((1 - to, depth + 1, reply));
        }
    }
    trace
}

/// A store pair from generated `(key, ident, version, fate)` rows:
/// `shape` picks how the rows are dealt to the two sides.
fn deal(rows: &[(u64, u64, u64, u8)], shape: u8) -> (MemStore, MemStore) {
    let (mut a, mut b) = (MemStore::default(), MemStore::default());
    for &(key, ident, version, fate) in rows {
        let k = (key, ident);
        let live = |v: u64| Some(Tagged { id: ident, tag: key ^ v });
        let (to_a, to_b) = match shape {
            // Equal.
            0 => (Some((version, live(version))), Some((version, live(version)))),
            // Disjoint.
            1 if fate % 2 == 0 => (Some((version, live(version))), None),
            1 => (None, Some((version, live(version)))),
            // Nested: b holds a quarter of a.
            2 => (Some((version, live(version))), (fate < 2).then(|| (version, live(version)))),
            // One side empty.
            3 => (Some((version, live(version))), None),
            // Tombstones: newer on b, stale on b, newer on a, equal-version
            // conflict (which nothing reconciles), or in sync.
            4 => match fate {
                0 => (Some((version, live(version))), Some((version + 1, None))),
                1 => (Some((version + 1, live(version + 1))), Some((version, None))),
                2 => (Some((version + 1, None)), Some((version, live(version)))),
                3 => (Some((version, live(version))), Some((version, None))),
                _ => (Some((version, None)), Some((version, None))),
            },
            // Mostly in sync, a few stragglers either way.
            _ => match (key % 61, fate % 2) {
                (0, 0) => (Some((version + 1, live(version + 1))), Some((version, live(version)))),
                (0, _) => (None, Some((version, live(version)))),
                _ => (Some((version, live(version))), Some((version, live(version)))),
            },
        };
        if let Some((v, item)) = to_a {
            a.apply(k, v, item);
        }
        if let Some((v, item)) = to_b {
            b.apply(k, v, item);
        }
    }
    (a, b)
}

/// Rows for [`deal`]: 1 to 5 000, the upper sizes thinned by `scale`.
fn rows() -> impl Strategy<Value = Vec<(u64, u64, u64, u8)>> {
    proptest::collection::vec((0u64..6_000, 0u64..3, 0u64..3, 0u8..8), 1..=5_000)
}

fn thin(mut rows: Vec<(u64, u64, u64, u8)>, scale: u32) -> Vec<(u64, u64, u64, u8)> {
    rows.truncate((rows.len() >> (3 * scale)).max(1));
    rows
}

/// Bytes a completed exchange may cost per diverged record and tree
/// level. With this file's small keys a split is ≈ 150 B and a full
/// run ≈ 130 B; the two sides take turns splitting, so one level of
/// `log₁₆ n` can be two of them. Measured worst case: half of this.
const BYTES_PER_RECORD_LEVEL: f64 = 256.0;

proptest! {
    #[test]
    fn completed_exchange_ships_exactly_the_flat_diff(
        rows in rows(),
        scale in 0u32..4,
        shape in 0u8..6,
        flip: bool,
        sub: bool,
    ) {
        let (a, b) = deal(&thin(rows, scale), shape);
        let (a, b) = if flip { (b, a) } else { (a, b) };
        // Either everything, or a span with records on both sides of it.
        let span = if sub { ((1_500, 1), (4_000, 1)) } else { ALL };
        let (want_a, to_a) = repaired_from(&a, &b, span);
        let (want_b, to_b) = repaired_from(&b, &a, span);
        let n = run(&a, span).len().max(run(&b, span).len()).max(1);

        let mut a = Replica { store: a, repair: ReplicaRepair::default() };
        let mut b = Replica { store: b, repair: ReplicaRepair::default() };
        let trace = exchange(&mut a, &mut b, span, None);

        prop_assert_eq!(contents(&a.store), contents(&want_a), "requester, shape {}", shape);
        prop_assert_eq!(contents(&b.store), contents(&want_b), "partner, shape {}", shape);
        prop_assert_eq!(trace.shipped, [to_a, to_b], "each diverged record travels once");

        // Bytes follow the divergence, round trips the depth of the tree.
        let diverged = (to_a + to_b) as f64;
        let levels = (n as f64).log(16.0);
        let bound = BYTES_PER_RECORD_LEVEL * (diverged * levels + 1.0);
        prop_assert!(
            (trace.bytes as f64) <= bound,
            "{} B for {} diverged of {} records (bound {})", trace.bytes, diverged, n, bound
        );
        let depth = 2 * (n as f64 / LEAF_MAX as f64).max(1.0).log(16.0).ceil() as usize;
        prop_assert!(trace.round_trips <= depth + 4, "{} round trips, n {}", trace.round_trips, n);
        let sent = a.repair.stats().total() + b.repair.stats().total();
        prop_assert_eq!(sent, trace.bytes as u64, "the counters see every byte");

        // Fixpoint: the next tick, from either side, is one probe.
        let probe = a.repair.probe(&mut a.store, span).wire_size();
        let again = exchange(&mut a, &mut b, span, None);
        prop_assert_eq!(again, Trace { msgs: 1, bytes: probe, round_trips: 1, shipped: [0, 0] });
        prop_assert_eq!(exchange(&mut b, &mut a, span, None).msgs, 1);
    }

    #[test]
    fn losing_any_one_message_only_postpones_the_repair(
        rows in rows(),
        scale in 1u32..4,
        shape in 1u8..6,
    ) {
        let (a, b) = deal(&thin(rows, scale), shape);
        let (want_a, _) = repaired_from(&a, &b, ALL);
        let (want_b, _) = repaired_from(&b, &a, ALL);
        let fresh = |s: &MemStore| Replica { store: s.clone(), repair: ReplicaRepair::default() };
        let sent = exchange(&mut fresh(&a), &mut fresh(&b), ALL, None).msgs;
        // Every message of a short exchange, a spread of a long one.
        for lose in (0..sent).step_by(sent.div_ceil(12)) {
            let (mut a, mut b) = (fresh(&a), fresh(&b));
            exchange(&mut a, &mut b, ALL, Some(lose));
            // Whatever did arrive was a step towards the goal …
            for (side, want) in [(&a, &want_a), (&b, &want_b)] {
                for (k, have, _) in side.store.records(ALL) {
                    prop_assert!(want.record(k).is_some_and(|(w, _)| w >= have));
                }
            }
            // … and the next tick starts over from the root and finishes.
            exchange(&mut a, &mut b, ALL, None);
            prop_assert_eq!(contents(&a.store), contents(&want_a), "lost message {}", lose);
            prop_assert_eq!(contents(&b.store), contents(&want_b), "lost message {}", lose);
            prop_assert_eq!(exchange(&mut a, &mut b, ALL, None).msgs, 1);
        }
    }
}

/// Statelessness is structural: `handle` returns messages and nothing
/// else (no timer, no effect buffer), and the engine has no field to
/// remember an exchange in — only its byte counters.
#[test]
fn the_engine_keeps_counters_and_nothing_else() {
    assert_eq!(std::mem::size_of::<ReplicaRepair>(), std::mem::size_of::<RepairStats>());
}

#[test]
fn records_outside_the_shared_span_are_neither_read_nor_written() {
    let span = ((10, 0), (20, u64::MAX));
    let item = |id| Some(Tagged { id, tag: 0 });
    let mut a = Replica::default();
    let mut b = Replica::default();
    a.store.apply((5, 1), 1, item(1));
    a.store.apply((15, 1), 1, item(1));
    b.store.apply((25, 2), 1, item(2));
    exchange(&mut a, &mut b, span, None);
    assert_eq!(run(&b.store, ALL), vec![((15, 1), 1), ((25, 2), 1)]);
    assert_eq!(run(&a.store, ALL), vec![((5, 1), 1), ((15, 1), 1)]);
    // A partner that pushes or asks outside the span is ignored.
    let push = RepairMsg::Records {
        entries: RecordList::from_records([((30, 3), 9, item(3))]),
        want: vec![(25, 2)],
    };
    assert!(b.repair.handle(&mut b.store, &[span], push).is_empty());
    assert_eq!(b.store.record((30, 3)), None);
    let probe = a.repair.probe(&mut a.store, ALL);
    assert!(b.repair.handle(&mut b.store, &[span], probe).is_empty());
}
