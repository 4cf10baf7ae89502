//! The cost model.
//!
//! Paper §2 / ref \[5\]: *"For each physical operator, and thus, for each
//! query plan, we can determine worst-case guarantees (almost all are
//! logarithmic) and predict exact costs. We base these calculations on
//! the characteristics of the used overlay system and the actual data
//! distribution. By this, we derive a cost model for choosing concrete
//! query plans, which is repeatedly applied at each peer involved in a
//! query."*
//!
//! Inputs: overlay parameters (peer/leaf counts → logarithmic routing
//! bounds) and per-attribute statistics (cardinalities, histograms over
//! the key space, q-gram posting counts). Output: predicted messages,
//! critical-path hop depth and bytes for every candidate physical
//! operator — experiment E8 compares these predictions against measured
//! values.
//!
//! Five files: `estimator` prices operators over a snapshot,
//! `statistics` holds the snapshot and its folds, `delta` is the write
//! digest a write origin buffers, `shards` the exact statistics' shard
//! homes and the pieces a flush sends them, and `notice` the summaries
//! the homes publish and every peer installs.

mod delta;
mod estimator;
mod notice;
pub mod shards;
mod statistics;

pub use delta::StatsDelta;
pub use estimator::{CostModel, CostVector, NetParams, ScanEstimate, UNKNOWN_ATTR_SELECTIVITY};
pub use notice::{AttrSummary, ShardSummary, StatsNotice};
pub use shards::{OidCounts, StatsFlush, StatsHome, StatsPiece};
pub use statistics::{AttrStats, GlobalStats};

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use unistore_store::{Oid, Triple, Value};
    use unistore_util::wire::{put_varint, Wire, WireError, MAX_LEN};
    use unistore_util::{intern, FxHashMap};

    use super::delta::*;
    use super::estimator::*;
    use super::notice::*;
    use super::shards::*;
    use super::statistics::*;
    use crate::strategy::{JoinStrategy, RangeAlgo, ScanStrategy};
    use unistore_vql::parse;

    fn sample_triples() -> Vec<Triple> {
        let mut ts = Vec::new();
        for i in 0..200 {
            ts.push(Triple::new(&format!("p{i}"), "name", Value::str(&format!("person-{i}"))));
            ts.push(Triple::new(&format!("p{i}"), "age", Value::Int(20 + (i % 50) as i64)));
            ts.push(Triple::new(
                &format!("p{i}"),
                "city",
                Value::str(if i % 10 == 0 { "geneva" } else { "zurich" }),
            ));
        }
        ts
    }

    fn model() -> CostModel {
        let net = NetParams { n_peers: 64.0, n_leaves: 64.0, replication: 1.0, hop_ms: 40.0 };
        CostModel::new(GlobalStats::build(&sample_triples(), net))
    }

    #[test]
    fn stats_aggregate_correctly() {
        let m = model();
        assert_eq!(m.stats.total, 600.0);
        assert_eq!(m.stats.oid_distinct, 200.0);
        let age = &m.stats.attrs[&Arc::<str>::from("age")];
        assert_eq!(age.count, 200.0);
        assert_eq!(age.distinct, 50.0);
        let city = &m.stats.attrs[&Arc::<str>::from("city")];
        assert_eq!(city.distinct, 2.0);
        assert!(city.gram_postings > 0.0);
    }

    #[test]
    fn lookup_is_logarithmic() {
        let m = model();
        let e = m.scan(
            &ScanStrategy::AttrValueLookup { attr: "age".into(), value: Value::Int(30) },
            None,
        );
        let log_n = 6.0;
        assert_eq!(e.cost.messages, log_n + 1.0);
        assert_eq!(e.cardinality, 4.0); // 200 / 50 distinct
    }

    #[test]
    fn range_cost_scales_with_selectivity() {
        let m = model();
        let narrow = m.scan(
            &ScanStrategy::AttrRange {
                attr: "age".into(),
                lo: Some(Value::Int(20)),
                hi: Some(Value::Int(22)),
                algo: RangeAlgo::Parallel,
            },
            None,
        );
        let wide = m.scan(
            &ScanStrategy::AttrRange {
                attr: "age".into(),
                lo: None,
                hi: None,
                algo: RangeAlgo::Parallel,
            },
            None,
        );
        assert!(wide.cardinality > narrow.cardinality);
        assert!(wide.cost.messages > narrow.cost.messages);
    }

    #[test]
    fn sequential_with_limit_visits_fewer_leaves() {
        let m = model();
        let strat = |algo| ScanStrategy::AttrRange { attr: "age".into(), lo: None, hi: None, algo };
        let seq_all = m.scan(&strat(RangeAlgo::Sequential), None);
        let seq_lim = m.scan(&strat(RangeAlgo::Sequential), Some(3));
        assert!(seq_lim.cost.messages < seq_all.cost.messages);
        // And cheap enough to beat the parallel shower.
        let par = m.scan(&strat(RangeAlgo::Parallel), Some(3));
        assert!(seq_lim.cost.score() < par.cost.score());
    }

    #[test]
    fn choose_scan_prefers_exact_lookup() {
        let m = model();
        let q = parse("SELECT ?a WHERE {(?a,'age',2006)}").unwrap();
        let cands = crate::strategy::scan_candidates(&q.patterns[0], &q.filters);
        let (i, _) = m.choose_scan(&cands, None);
        assert!(matches!(cands[i], ScanStrategy::AttrValueLookup { .. }));
    }

    #[test]
    fn qgram_beats_naive_on_large_attr_and_loses_on_tiny() {
        let m = model();
        // 'name' has 200 long-ish strings; q-gram should beat a full
        // attribute sweep for a short target.
        let qg = m.scan(
            &ScanStrategy::QGram { attr: "name".into(), target: "person-7".into(), k: 1 },
            None,
        );
        let naive = m.scan(
            &ScanStrategy::AttrRange {
                attr: "name".into(),
                lo: None,
                hi: None,
                algo: RangeAlgo::Parallel,
            },
            None,
        );
        // The decision flips with scale; here both are priced — make
        // sure the estimates are finite and ordered sanely.
        assert!(qg.cost.messages > 0.0 && naive.cost.messages > 0.0);
        assert!(qg.cardinality <= naive.cardinality);
    }

    #[test]
    fn fetch_join_wins_for_small_left() {
        let m = model();
        let right = m.scan(
            &ScanStrategy::AttrRange {
                attr: "name".into(),
                lo: None,
                hi: None,
                algo: RangeAlgo::Parallel,
            },
            None,
        );
        let (strat_small, _) = m.join(2.0, &right, true);
        assert_eq!(strat_small, JoinStrategy::Fetch);
        let (strat_big, _) = m.join(10_000.0, &right, true);
        assert_eq!(strat_big, JoinStrategy::Collect);
        let (forced, _) = m.join(2.0, &right, false);
        assert_eq!(forced, JoinStrategy::Collect);
    }

    #[test]
    fn semi_join_beats_collect_on_selective_left_only() {
        let m = model();
        let right = m.scan(
            &ScanStrategy::AttrRange {
                attr: "name".into(),
                lo: None,
                hi: None,
                algo: RangeAlgo::Parallel,
            },
            None,
        );
        // 2 of 200 names survive: bytes shrink (reply side collapses;
        // the remaining cost is the ~16-byte filter riding each
        // request), messages and depth unchanged.
        let semi = m.semi_join(2.0, 200.0, &right, 16.0, 0.01);
        assert_eq!(semi.messages, right.cost.messages);
        assert_eq!(semi.depth, right.cost.depth);
        assert!(semi.bytes < right.cost.bytes / 2.0, "selective semi-join ships a fraction");
        assert!(semi.score() < right.cost.score());
        // Left covers everything: the filter is pure overhead.
        let futile = m.semi_join(200.0, 200.0, &right, 16.0, 0.01);
        assert!(futile.bytes > right.cost.bytes);
        assert!(futile.score() > right.cost.score());
    }

    #[test]
    fn unknown_attr_estimates_floor_not_zero() {
        let m = model();
        // A scan on a never-seen attribute must not look free: floor it
        // at the conservative default selectivity so it cannot hijack
        // choose_scan / join arbitration.
        let floor = (m.stats.total * UNKNOWN_ATTR_SELECTIVITY).max(1.0);
        for s in [
            ScanStrategy::AttrRange {
                attr: "ghost".into(),
                lo: None,
                hi: None,
                algo: RangeAlgo::Parallel,
            },
            ScanStrategy::AttrValueLookup { attr: "ghost".into(), value: Value::Int(1) },
            ScanStrategy::AttrPrefix {
                attr: "ghost".into(),
                prefix: "g".into(),
                algo: RangeAlgo::Parallel,
            },
            ScanStrategy::QGram { attr: "ghost".into(), target: "spook".into(), k: 1 },
        ] {
            let e = m.scan(&s, None);
            assert!(
                e.cardinality >= floor,
                "{}: cardinality {} under floor",
                s.name(),
                e.cardinality
            );
            assert!(e.cost.bytes > 0.0, "{}: ghost scan priced as free", s.name());
        }
        // The floor keeps a ghost range from undercutting a known,
        // genuinely selective lookup of the same shape.
        let known = m.scan(
            &ScanStrategy::AttrValueLookup { attr: "age".into(), value: Value::Int(30) },
            None,
        );
        let ghost = m.scan(
            &ScanStrategy::AttrRange {
                attr: "ghost".into(),
                lo: None,
                hi: None,
                algo: RangeAlgo::Parallel,
            },
            None,
        );
        assert!(ghost.cost.score() >= known.cost.score());
    }

    /// Field-by-field equality on everything the cost formulas consume.
    fn assert_stats_match(a: &GlobalStats, b: &GlobalStats) {
        assert_eq!(a.total, b.total, "total");
        assert_eq!(a.oid_distinct, b.oid_distinct, "oid_distinct");
        assert_eq!(a.value_distinct, b.value_distinct, "value_distinct");
        assert_eq!(a.avg_triple_bytes, b.avg_triple_bytes, "avg_triple_bytes");
        assert_eq!(a.objects, b.objects, "oid and value refcounts");
        let mut keys: Vec<_> = a.attrs.keys().collect();
        let mut bkeys: Vec<_> = b.attrs.keys().collect();
        keys.sort();
        bkeys.sort();
        assert_eq!(keys, bkeys, "attribute sets");
        for (k, sa) in &a.attrs {
            let sb = &b.attrs[k];
            assert_eq!(sa.count, sb.count, "{k}: count");
            assert_eq!(sa.distinct, sb.distinct, "{k}: distinct");
            assert_eq!(sa.join_distinct, sb.join_distinct, "{k}: join_distinct");
            assert_eq!(sa.gram_postings, sb.gram_postings, "{k}: gram_postings");
            assert_eq!(sa.gram_distinct, sb.gram_distinct, "{k}: gram_distinct");
            assert_eq!(sa.bytes, sb.bytes, "{k}: bytes");
            assert_eq!(sa.refs, sb.refs, "{k}: value, join and gram refcounts");
            assert_eq!(sa.hist.count(), sb.hist.count(), "{k}: hist count");
            assert_eq!(sa.hist.bucket_counts(), sb.hist.bucket_counts(), "{k}: hist buckets");
            assert_eq!(
                sa.hist.distinct_estimate(),
                sb.hist.distinct_estimate(),
                "{k}: hist distinct"
            );
        }
    }

    #[test]
    fn delta_insert_then_delete_restores_baseline() {
        let net = NetParams { n_peers: 64.0, n_leaves: 64.0, replication: 1.0, hop_ms: 40.0 };
        let base = sample_triples();
        let mut stats = GlobalStats::build(&base, net);
        let extra = vec![
            Triple::new("x1", "rating", Value::Int(5)),
            Triple::new("x2", "rating", Value::Int(3)),
            Triple::new("x1", "name", Value::str("mallory")),
        ];
        let mut delta = StatsDelta::new();
        for t in &extra {
            delta.record_insert(t.clone());
        }
        stats.apply_delta(&delta);
        let all: Vec<Triple> = base.iter().chain(&extra).cloned().collect();
        assert_stats_match(&stats, &GlobalStats::build(&all, net));
        // Deleting the same triples restores the original snapshot.
        let mut undo = StatsDelta::new();
        for t in &extra {
            undo.record_delete(t.clone());
        }
        stats.apply_delta(&undo);
        assert_stats_match(&stats, &GlobalStats::build(&base, net));
    }

    #[test]
    fn deleting_unseen_triples_saturates() {
        let net = NetParams { n_peers: 8.0, n_leaves: 8.0, replication: 1.0, hop_ms: 1.0 };
        let base = vec![Triple::new("a", "x", Value::Int(1))];
        let mut stats = GlobalStats::build(&base, net);
        stats.apply_delete(&Triple::new("b", "ghost", Value::Int(9))); // unknown attr
        stats.apply_delete(&Triple::new("a", "x", Value::Int(99))); // known attr, unseen value
        assert_eq!(stats.total, 1.0, "unseen (attr, value) deletes must not touch totals");
        assert_eq!(stats.attrs[&Arc::<str>::from("x")].count, 1.0);
        stats.apply_delete(&Triple::new("a", "x", Value::Int(1)));
        stats.apply_delete(&Triple::new("a", "x", Value::Int(1))); // double delete
        assert_eq!(stats.total, 0.0);
        assert!(stats.attrs.is_empty());
    }

    /// The write events a delta stands for, as sortable text:
    /// `(side, oid fingerprint, oid length, attr, value representation)`.
    fn events(d: &StatsDelta) -> Vec<String> {
        let mut out = Vec::new();
        for (side, groups) in d.groups.iter().enumerate() {
            for g in groups {
                for oid in d.oids_of(g) {
                    out.push(format!("{side} {oid:?} {} {:?}", g.attr, g.value));
                }
            }
        }
        out.sort();
        out
    }

    /// The same for a plain triple on one side.
    fn event(side: usize, t: &Triple) -> String {
        format!("{side} {:?} {} {:?}", oid_ref(&t.oid), t.attr, t.value)
    }

    #[test]
    fn stats_delta_wire_roundtrip() {
        let mut d = StatsDelta::new();
        d.record_insert(Triple::new("o1", "name", Value::str("alice")));
        d.record_insert(Triple::new("o3", "name", Value::str("alice")));
        d.record_delete(Triple::new("o2", "age", Value::Int(44)));
        d.record_delete(Triple::new("o1", "age", Value::Int(44)));
        let b = d.to_bytes();
        assert_eq!(b.len(), d.wire_size());
        let back = StatsDelta::from_bytes(&b).unwrap();
        assert_eq!(format!("{back:?}"), format!("{d:?}"));
        assert!(StatsDelta::new().is_empty());
        assert_eq!(d.len(), 4);
        // A decoded delta can be recorded into like the one it came from.
        let mut back = back;
        for d in [&mut d, &mut back] {
            d.record_insert(Triple::new("o2", "name", Value::str("alice")));
        }
        assert_eq!(back.to_bytes(), d.to_bytes());
    }

    #[test]
    fn digest_ships_each_oid_and_each_pair_once() {
        // 64 objects × 2 attributes, 3 distinct pairs: the digest is the
        // OID table plus one byte per event, not 128 triples.
        let mut d = StatsDelta::new();
        let mut flat = 0;
        for i in 0..64 {
            for t in [
                Triple::new(&format!("obj-{i:04}"), "pub:year", Value::Int(2006)),
                Triple::new(
                    &format!("obj-{i:04}"),
                    "pub:venue",
                    Value::str(["icde", "vldb"][i % 2]),
                ),
            ] {
                flat += t.wire_size();
                d.record_insert(t);
            }
        }
        assert_eq!(d.len(), 128);
        assert_eq!(d.pairs().count(), 3);
        assert!(d.wire_size() * 3 < flat, "{} B against {flat} B flat", d.wire_size());
    }

    #[test]
    fn semantically_equal_values_of_different_size_do_not_share_a_group() {
        let net = NetParams { n_peers: 8.0, n_leaves: 8.0, replication: 1.0, hop_ms: 1.0 };
        let ts = [
            Triple::new("a", "x", Value::Int(2)),
            Triple::new("b", "x", Value::Float(2.0)),
            Triple::new("c", "x", Value::Int(2)),
        ];
        assert_eq!(ts[0].value, ts[1].value);
        assert_ne!(ts[0].value.wire_size(), ts[1].value.wire_size());
        let mut d = StatsDelta::new();
        for t in &ts {
            d.record_insert(t.clone());
        }
        assert_eq!(d.pairs().count(), 2);
        let mut stats = GlobalStats::empty(net);
        stats.apply_delta(&d);
        assert_stats_match(&stats, &GlobalStats::build(&ts, net));
    }

    /// Two OID strings `o{i}` whose fingerprints collide: the first
    /// repeat of a birthday search (`o34442` and `o45218`; about 10⁵
    /// candidates are expected).
    fn colliding_oids() -> (String, String) {
        let mut seen = FxHashMap::default();
        (0u32..)
            .find_map(|i| {
                let oid = format!("o{i}");
                let (fingerprint, _) = oid_ref(&Oid::new(&oid));
                seen.insert(fingerprint, i).map(|j| (format!("o{j}"), oid))
            })
            .expect("a 32-bit fingerprint repeats within 2^32 + 1 OIDs")
    }

    #[test]
    fn oids_sharing_a_fingerprint_count_once() {
        let (a, b) = colliding_oids();
        let fingerprint = oid_ref(&Oid::new(&a)).0;
        assert_eq!(oid_ref(&Oid::new(&b)).0, fingerprint);
        let net = NetParams { n_peers: 8.0, n_leaves: 8.0, replication: 1.0, hop_ms: 1.0 };
        let of = |oid: &str| {
            [Triple::new(oid, "name", Value::str(oid)), Triple::new(oid, "age", Value::Int(30))]
        };
        let both: Vec<Triple> = of(&a).into_iter().chain(of(&b)).collect();
        let built = GlobalStats::build(&both, net);
        let mut folded = GlobalStats::empty(net);
        let mut d = StatsDelta::new();
        both.iter().for_each(|t| d.record_insert(t.clone()));
        folded.apply_delta(&d);
        assert_stats_match(&built, &folded);
        for s in [&built, &folded] {
            assert_eq!(s.oid_distinct, 1.0);
            assert_eq!(s.oids().map(|m| m.get(fingerprint)), Some(both.len() as u32));
        }
        // Deleting one object's triples leaves the other counted.
        let mut undo = StatsDelta::new();
        of(&a).into_iter().for_each(|t| undo.record_delete(t));
        folded.apply_delta(&undo);
        assert_stats_match(&folded, &GlobalStats::build(&of(&b), net));
        assert_eq!(folded.oid_distinct, 1.0);
        assert_eq!(folded.oids().map(|m| m.get(fingerprint)), Some(2));
    }

    /// Encodes a delta by hand: the OID table, the attribute table,
    /// then per side `(attribute index, value, gaps)` groups.
    fn raw_delta(
        oids: &[OidRef],
        attrs: &[&str],
        sides: [&[(u64, Value, &[u64])]; 2],
    ) -> bytes::Bytes {
        use bytes::BufMut;
        let mut buf = bytes::BytesMut::new();
        put_varint(&mut buf, oids.len() as u64);
        for (fingerprint, len) in oids {
            buf.put_u32(*fingerprint);
            len.encode(&mut buf);
        }
        put_varint(&mut buf, attrs.len() as u64);
        attrs.iter().for_each(|a| a.to_string().encode(&mut buf));
        for side in sides {
            put_varint(&mut buf, side.len() as u64);
            for (attr, value, gaps) in side {
                put_varint(&mut buf, *attr);
                value.encode(&mut buf);
                put_varint(&mut buf, gaps.len() as u64);
                gaps.iter().for_each(|g| put_varint(&mut buf, *g));
            }
        }
        buf.freeze()
    }

    #[test]
    fn hostile_digests_are_rejected_not_trusted() {
        let table = [(7, 2), (8, 2), (9, 2)];
        let attrs = ["a", "bb"];
        let v = Value::Int(1);
        // The well-formed shape decodes; a repeated index (gap 0) is a
        // repeated event, and both sides may name one attribute.
        let ok = raw_delta(
            &table,
            &attrs,
            [&[(0, v.clone(), &[0, 2, 0]), (1, v.clone(), &[1])], &[(1, v.clone(), &[2])]],
        );
        let d = StatsDelta::from_bytes(&ok).unwrap();
        assert_eq!(d.len(), 5);
        assert_eq!(d.pairs().map(|(a, _)| &**a).collect::<Vec<_>>(), ["a", "bb", "bb"]);
        assert_eq!(d.to_bytes(), ok);
        let bad: Vec<(&str, bytes::Bytes)> = vec![
            ("index past the table", raw_delta(&table, &attrs, [&[(0, v.clone(), &[3])], &[]])),
            (
                "gaps running past the table",
                raw_delta(&table, &attrs, [&[], &[(0, v.clone(), &[1, 2])]]),
            ),
            (
                "descending indexes (a gap that wraps)",
                raw_delta(&table, &attrs, [&[(0, v.clone(), &[2, u64::MAX])], &[]]),
            ),
            ("zero-length group", raw_delta(&table, &attrs, [&[(0, v.clone(), &[])], &[]])),
            ("index into an empty table", raw_delta(&[], &attrs, [&[(0, v.clone(), &[0])], &[]])),
            (
                "attribute index past the table",
                raw_delta(&table, &attrs, [&[], &[(2, v.clone(), &[0])]]),
            ),
            (
                "attribute index into an empty table",
                raw_delta(&table, &[], [&[(0, v.clone(), &[0])], &[]]),
            ),
            (
                "a huge attribute index",
                raw_delta(&table, &attrs, [&[(u64::MAX, v.clone(), &[0])], &[]]),
            ),
            ("group count over the cap", {
                let mut buf = bytes::BytesMut::new();
                put_varint(&mut buf, 0);
                put_varint(&mut buf, 0);
                put_varint(&mut buf, (1 << 28) + 1);
                buf.freeze()
            }),
            ("table count over the cap", {
                let mut buf = bytes::BytesMut::new();
                put_varint(&mut buf, u64::MAX);
                buf.freeze()
            }),
            ("attribute-table count over the cap", {
                let mut buf = bytes::BytesMut::new();
                put_varint(&mut buf, 0);
                put_varint(&mut buf, (1 << 28) + 1);
                buf.freeze()
            }),
            ("event count over the cap", {
                let mut buf = bytes::BytesMut::new();
                put_varint(&mut buf, 0);
                put_varint(&mut buf, 1);
                "a".to_string().encode(&mut buf);
                put_varint(&mut buf, 1);
                put_varint(&mut buf, 0);
                v.encode(&mut buf);
                put_varint(&mut buf, u64::MAX >> 1);
                buf.freeze()
            }),
        ];
        for (what, bytes) in bad {
            assert!(
                matches!(StatsDelta::from_bytes(&bytes), Err(WireError::BadLength(_))),
                "{what}: {:?}",
                StatsDelta::from_bytes(&bytes)
            );
        }
        // A table that ends early is an EOF, not a short table: the OID
        // table (1 + 3 × 5 bytes) cut inside its third entry, and the
        // attribute table (count, "a", "bb") cut inside "bb".
        let tables = raw_delta(&table, &attrs, [&[], &[]]);
        assert_eq!(tables.len(), 16 + 6 + 2);
        for cut in [12, 16 + 4] {
            assert_eq!(
                StatsDelta::from_bytes(&tables.slice(0..cut)).unwrap_err(),
                WireError::UnexpectedEof,
                "cut at {cut}"
            );
        }
    }

    /// The `skip`-th attribute name `a{i}` homed at `shard`.
    fn attr_of_shard(shard: u8, skip: usize) -> String {
        (0..).map(|i| format!("a{i}")).filter(|a| attr_shard(a) == shard).nth(skip).unwrap()
    }

    /// A hand-encoded summary: name, the eight integer fields and the
    /// buckets as `(index gap, count)`.
    type RawSummary<'a> = (&'a str, [u64; 8], &'a [(u64, u64)]);

    /// Encodes a notice by hand: per attribute summary its name, its
    /// publication number, the eight integer fields (count, bytes,
    /// distinct, join_distinct, postings, grams, histogram count and
    /// distinct keys) and the buckets as `(index gap, count)`; then per
    /// shard its number, publication number, OID and value counts.
    fn raw_notice(attrs: &[RawSummary], shards: &[(u8, [u64; 3])]) -> bytes::Bytes {
        use bytes::BufMut;
        let mut buf = bytes::BytesMut::new();
        put_varint(&mut buf, attrs.len() as u64);
        for (name, fields, buckets) in attrs {
            name.to_string().encode(&mut buf);
            put_varint(&mut buf, 1);
            fields.iter().for_each(|&x| put_varint(&mut buf, x));
            put_varint(&mut buf, buckets.len() as u64);
            for &(gap, n) in *buckets {
                put_varint(&mut buf, gap);
                put_varint(&mut buf, n);
            }
        }
        put_varint(&mut buf, shards.len() as u64);
        for (shard, counts) in shards {
            buf.put_u8(*shard);
            counts.iter().for_each(|&x| put_varint(&mut buf, x));
        }
        buf.freeze()
    }

    /// The parts of a hand-encoded piece: attribute table, inserted
    /// groups `(index, value, count, OID bytes)`, deleted groups
    /// `(index, value, OID lengths)`, OID and value changes.
    #[derive(Clone, Default)]
    struct RawPiece {
        attrs: Vec<String>,
        inserts: Vec<(u64, Value, u64, u64)>,
        deletes: Vec<(u64, Value, Vec<u64>)>,
        oids: Vec<(u32, i64)>,
        values: Vec<(u64, i64)>,
    }

    fn raw_piece(shard: u8, p: &RawPiece) -> bytes::Bytes {
        use bytes::BufMut;
        let mut buf = bytes::BytesMut::new();
        buf.put_u8(shard);
        put_varint(&mut buf, p.attrs.len() as u64);
        p.attrs.iter().for_each(|a| a.encode(&mut buf));
        put_varint(&mut buf, p.inserts.len() as u64);
        for (at, value, count, bytes) in &p.inserts {
            put_varint(&mut buf, *at);
            value.encode(&mut buf);
            put_varint(&mut buf, *count);
            put_varint(&mut buf, *bytes);
        }
        put_varint(&mut buf, p.deletes.len() as u64);
        for (at, value, lens) in &p.deletes {
            put_varint(&mut buf, *at);
            value.encode(&mut buf);
            put_varint(&mut buf, lens.len() as u64);
            lens.iter().for_each(|&len| put_varint(&mut buf, len));
        }
        put_varint(&mut buf, p.oids.len() as u64);
        for (fingerprint, n) in &p.oids {
            buf.put_u32(*fingerprint);
            n.encode(&mut buf);
        }
        put_varint(&mut buf, p.values.len() as u64);
        for (bits, n) in &p.values {
            buf.put_u64(*bits);
            n.encode(&mut buf);
        }
        buf.freeze()
    }

    /// A value whose key bits fall in `shard`.
    fn value_of_shard(shard: u8, skip: usize) -> Value {
        (0..).map(Value::Int).filter(|v| value_shard(v.key_bits()) == shard).nth(skip).unwrap()
    }

    #[test]
    fn hostile_notices_and_pieces_are_rejected_not_trusted() {
        // A notice: one summary (three triples, buckets 5 and 6) and one
        // shard's counts.
        let fields = [3, 30, 2, 2, 0, 0, 3, 2];
        let ok = raw_notice(&[("a", fields, &[(5, 2), (0, 1)])], &[(1, [4, 10, 7])]);
        let n = StatsNotice::from_bytes(&ok).unwrap();
        assert_eq!(n.len(), 2);
        assert_eq!(n.attrs()[0].stats.hist.bucket_counts()[5..7], [2, 1]);
        assert_eq!(n.shards(), [(1, ShardSummary { seq: 4, oids: 10, values: 7 })]);
        assert_eq!(n.to_bytes(), ok);
        let with = |i: usize, x: u64| {
            let mut f = fields;
            f[i] = x;
            f
        };
        let b2: &[(u64, u64)] = &[(5, 2), (0, 1)];
        let bad_notices: Vec<(&str, bytes::Bytes)> = vec![
            ("attributes out of order", raw_notice(&[("b", fields, b2), ("a", fields, b2)], &[])),
            ("a repeated attribute", raw_notice(&[("a", fields, b2), ("a", fields, b2)], &[])),
            ("more distinct values than triples", raw_notice(&[("a", with(2, 4), b2)], &[])),
            ("more join values than triples", raw_notice(&[("a", with(3, 4), b2)], &[])),
            ("more distinct grams than postings", raw_notice(&[("a", with(5, 1), b2)], &[])),
            ("more distinct keys than keys", raw_notice(&[("a", with(7, 4), b2)], &[])),
            ("buckets short of the count", raw_notice(&[("a", fields, &[(5, 2)])], &[])),
            ("buckets past the count", raw_notice(&[("a", fields, &[(5, 2), (0, 2)])], &[])),
            ("a bucket past the histogram", raw_notice(&[("a", fields, &[(5, 2), (250, 1)])], &[])),
            (
                "an index gap that wraps",
                raw_notice(&[("a", fields, &[(5, 2), (u64::MAX, 1)])], &[]),
            ),
            ("an empty bucket", raw_notice(&[("a", fields, &[(5, 3), (0, 0)])], &[])),
            ("a count past 2^53", raw_notice(&[("a", with(0, (1 << 53) + 1), b2)], &[])),
            ("a shard count past 2^53", raw_notice(&[], &[(1, [4, 1 << 54, 7])])),
            ("more buckets than the histogram has", {
                let many: Vec<(u64, u64)> = (0..257).map(|_| (0, 1)).collect();
                raw_notice(&[("a", [257, 257, 1, 1, 0, 0, 257, 1], &many)], &[])
            }),
            ("attribute count over the cap", {
                let mut buf = bytes::BytesMut::new();
                put_varint(&mut buf, (1 << 28) + 1);
                buf.freeze()
            }),
        ];
        for (what, bytes) in bad_notices {
            let got = StatsNotice::from_bytes(&bytes);
            assert!(matches!(got, Err(WireError::BadLength(_))), "{what}: {got:?}");
        }
        for (what, shards) in [
            ("a shard past the last", vec![(STATS_SHARDS, [1, 1, 1])]),
            ("shards out of order", vec![(2, [1, 1, 1]), (1, [1, 1, 1])]),
            ("a repeated shard", vec![(2, [1, 1, 1]), (2, [1, 1, 1])]),
        ] {
            let got = StatsNotice::from_bytes(&raw_notice(&[], &shards));
            assert!(matches!(got, Err(WireError::BadTag(_))), "{what}: {got:?}");
        }
        for cut in 0..ok.len() {
            assert!(StatsNotice::from_bytes(&ok.slice(0..cut)).is_err(), "notice cut at {cut}");
        }

        // A piece of shard 2: an inserted and a deleted group of an
        // attribute homed there, two fingerprints and a value.
        let shard = 2u8;
        let f = |low: u32| (shard as u32) << 30 | low;
        let (attr, v) = (attr_of_shard(shard, 0), value_of_shard(shard, 0));
        let good = RawPiece {
            attrs: vec![attr.clone()],
            inserts: vec![(0, v.clone(), 3, 12)],
            deletes: vec![(0, v.clone(), vec![1, 2])],
            oids: vec![(f(1), 3), (f(9), -1)],
            values: vec![(v.key_bits(), 2)],
        };
        let ok = raw_piece(shard, &good);
        let p = StatsPiece::from_bytes(&ok).unwrap();
        assert_eq!(
            (p.shard, p.delete_groups(), p.oids.clone()),
            (shard, 1, vec![(f(1), 3), (f(9), -1)])
        );
        assert_eq!(p.to_bytes(), ok);
        assert_eq!(
            StatsPiece::from_bytes(&raw_piece(4, &RawPiece::default())),
            Err(WireError::BadTag(4))
        );
        let foreign = RawPiece { attrs: vec![attr_of_shard(1, 0)], ..good.clone() };
        assert_eq!(StatsPiece::from_bytes(&raw_piece(shard, &foreign)), Err(WireError::BadTag(1)));
        let edit = |change: &dyn Fn(&mut RawPiece)| {
            let mut p = good.clone();
            change(&mut p);
            raw_piece(shard, &p)
        };
        let other_value = value_of_shard(3, 0).key_bits();
        let bad_pieces: Vec<(&str, bytes::Bytes)> = vec![
            ("attribute index off the table", edit(&|p| p.inserts[0].0 = 1)),
            ("a huge attribute index", edit(&|p| p.deletes[0].0 = u64::MAX)),
            ("attribute index into an empty table", edit(&|p| p.attrs.clear())),
            ("zero-count insert", edit(&|p| p.inserts[0].2 = 0)),
            ("insert count past 32 bits", edit(&|p| p.inserts[0].2 = 1 << 32)),
            ("OID bytes past the longest OID", edit(&|p| p.inserts[0].3 = 3 * (MAX_LEN + 6))),
            ("fewer OID bytes than OIDs", edit(&|p| p.inserts[0].3 = 2)),
            ("a delete naming no OID", edit(&|p| p.deletes[0].2.clear())),
            ("an OID longer than any string", edit(&|p| p.deletes[0].2[1] = MAX_LEN + 1)),
            ("a name no group uses", edit(&|p| p.attrs.push(attr_of_shard(shard, 1)))),
            ("a fingerprint outside the prefix", edit(&|p| p.oids[1].0 = 1 << 30)),
            ("a repeated fingerprint", edit(&|p| p.oids[1].0 = f(1))),
            ("descending fingerprints", edit(&|p| p.oids.reverse())),
            ("a zero change", edit(&|p| p.oids[0].1 = 0)),
            ("a change past 32 bits", edit(&|p| p.oids[0].1 = 1 << 31)),
            ("key bits of another shard", edit(&|p| p.values[0].0 = other_value)),
            (
                "descending key bits",
                edit(&|p| {
                    let (x, y) = (v.key_bits(), value_of_shard(shard, 1).key_bits());
                    p.values = vec![(x.max(y), 1), (x.min(y), 1)];
                }),
            ),
            ("group count over the cap", {
                let mut buf = bytes::BytesMut::new();
                buf.extend_from_slice(&[shard, 0]);
                put_varint(&mut buf, (1 << 28) + 1);
                buf.freeze()
            }),
        ];
        for (what, bytes) in bad_pieces {
            let got = StatsPiece::from_bytes(&bytes);
            assert!(matches!(got, Err(WireError::BadLength(_))), "{what}: {got:?}");
        }
        for cut in 0..ok.len() {
            assert!(StatsPiece::from_bytes(&ok.slice(0..cut)).is_err(), "piece cut at {cut}");
        }

        // The largest sums the decoder lets through fold at a home
        // however often they repeat: refcounts stop at `u32::MAX`, and
        // what the home publishes still decodes.
        let most = u32::MAX as u64 * oid_wire_size(MAX_LEN as u32) as u64;
        let huge = RawPiece {
            inserts: vec![(0, v.clone(), u32::MAX as u64, most)],
            deletes: vec![],
            oids: vec![(f(1), i32::MAX as i64)],
            values: vec![(v.key_bits(), i32::MAX as i64)],
            ..good.clone()
        };
        let huge = StatsPiece::from_bytes(&raw_piece(shard, &huge)).unwrap();
        let net = NetParams { n_peers: 8.0, n_leaves: 8.0, replication: 1.0, hop_ms: 1.0 };
        let mut home = GlobalStats::empty(net).home(shard).unwrap();
        for _ in 0..3 {
            let (_, published) = home.fold(&huge, 0.0);
            let back = StatsNotice::from_bytes(&published.to_bytes()).unwrap();
            let mut peer = GlobalStats::empty(net).summary();
            peer.install(&back);
            assert!(peer.avg_triple_bytes.is_finite() && peer.total > 0.0);
        }
        assert_eq!(home.oids().get(f(1)), u32::MAX);
    }

    /// A flush inserting one `age` triple of a fresh object, as the
    /// piece for `age`'s home.
    fn age_piece(i: usize) -> StatsPiece {
        let mut d = StatsDelta::new();
        d.record_insert(Triple::new(&format!("q{i}"), "age", Value::Int(30)));
        let shard = attr_shard("age");
        StatsFlush::new(d).first_pieces().into_iter().find(|p| p.shard == shard).unwrap()
    }

    #[test]
    fn a_home_publishes_a_summary_only_past_epsilon() {
        let net = NetParams { n_peers: 8.0, n_leaves: 8.0, replication: 1.0, hop_ms: 1.0 };
        let base = GlobalStats::build(&sample_triples(), net);
        let published_age = |n: &StatsNotice| n.attrs().iter().find(|s| &*s.attr == "age").cloned();
        // ε = 0.05 over 200 triples: the 11th insert moves the count by
        // more than 10 and is published, with everything before it.
        let mut home = base.home(attr_shard("age")).unwrap();
        for i in 1..=10 {
            assert_eq!(published_age(&home.fold(&age_piece(i), 0.05).1), None, "insert {i}");
        }
        let s = published_age(&home.fold(&age_piece(11), 0.05).1).expect("published");
        assert_eq!((s.seq, s.stats.count, s.stats.hist.count()), (1, 211.0, 211));
        assert!(!s.stats.is_exact());
        // The drift is measured from the new publication.
        for i in 12..=21 {
            assert_eq!(published_age(&home.fold(&age_piece(i), 0.05).1), None, "insert {i}");
        }
        let next = published_age(&home.fold(&age_piece(22), 0.05).1).expect("published again");
        assert!(next.seq > s.seq && next.stats.count == 222.0);
        // ε = 0 publishes every change, and a fold that changes nothing
        // publishes nothing.
        let mut exact = base.home(attr_shard("age")).unwrap();
        for i in 1..=3 {
            let s = published_age(&exact.fold(&age_piece(i), 0.0).1).expect("published");
            assert_eq!((s.seq, s.stats.count), (i as u64, 200.0 + i as f64));
        }
        assert!(exact
            .fold(&StatsPiece { shard: attr_shard("age"), ..Default::default() }, 0.0)
            .1
            .is_empty());
    }

    #[test]
    fn installing_keeps_the_newest_publication() {
        let net = NetParams { n_peers: 8.0, n_leaves: 8.0, replication: 1.0, hop_ms: 1.0 };
        let base = GlobalStats::build(&sample_triples(), net);
        let mut home = base.home(attr_shard("age")).unwrap();
        let older = home.fold(&age_piece(1), 0.0).1;
        let newer = home.fold(&age_piece(2), 0.0).1;
        let mut peer = base.summary();
        peer.install(&newer);
        peer.install(&older);
        let held = &peer.attrs[&Arc::<str>::from("age")];
        assert!(Arc::ptr_eq(held, &newer.attrs()[0].stats), "the newer summary is kept");
        assert_eq!((peer.version("age"), peer.total), (2, 602.0));
        // An attribute published empty leaves the snapshot, and an older
        // publication does not bring it back.
        let mut gone = StatsNotice::default();
        let empty = Arc::new(AttrStats::empty("age", false));
        gone.merge(StatsNotice {
            attrs: vec![AttrSummary { attr: "age".into(), seq: 3, stats: empty }],
            shards: vec![(0, ShardSummary { seq: 3, oids: 7, values: 1 })],
        });
        peer.install(&gone);
        peer.install(&newer);
        assert!(!peer.attrs.contains_key("age"));
        assert_eq!((peer.version("age"), peer.total), (3, 400.0));
        assert_eq!(peer.shard_counts()[0], ShardSummary { seq: 3, oids: 7, values: 1 });
        let others: f64 = peer.shard_counts()[1..].iter().map(|c| c.oids as f64).sum();
        assert_eq!(peer.oid_distinct, 7.0 + others);
    }

    #[test]
    fn compact_cancels_matched_insert_delete_pairs() {
        let a = Triple::new("o1", "rating", Value::Int(5));
        let b = Triple::new("o2", "rating", Value::Int(3));
        let c = Triple::new("o3", "name", Value::str("carol"));
        let mut d = StatsDelta::new();
        // a inserted twice, deleted once → one insert survives.
        d.record_insert(a.clone());
        d.record_insert(a.clone());
        d.record_delete(a.clone());
        // b inserted and deleted → fully cancelled.
        d.record_insert(b.clone());
        d.record_delete(b.clone());
        // c only deleted → delete survives.
        d.record_delete(c.clone());
        d.compact();
        assert_eq!(events(&d), vec![event(INSERTED, &a), event(DELETED, &c)]);
        // b's OID left the table with it, and the delta still records.
        assert_eq!(d.oids.len(), 2);
        d.record_insert(b.clone());
        assert_eq!(d.len(), 3);
        assert_eq!(StatsDelta::from_bytes(&d.to_bytes()).unwrap().to_bytes(), d.to_bytes());

        // Compaction never changes the net effect on a snapshot.
        let net = NetParams { n_peers: 8.0, n_leaves: 8.0, replication: 1.0, hop_ms: 1.0 };
        let base = sample_triples();
        let mut d2 = StatsDelta::new();
        for t in &base[..3] {
            d2.record_insert(t.clone());
            d2.record_delete(t.clone());
        }
        d2.record_insert(Triple::new("z9", "rating", Value::Int(7)));
        let mut plain = GlobalStats::build(&base, net);
        let mut compacted = plain.clone();
        plain.apply_delta(&d2);
        d2.compact();
        compacted.apply_delta(&d2);
        assert_stats_match(&plain, &compacted);

        // Nothing to cancel: a no-op, not a reorder.
        let mut d3 = StatsDelta::new();
        d3.record_insert(b);
        d3.compact();
        assert_eq!(d3.len(), 1);
    }

    mod digest_matches_triple_lists {
        //! The digest is a change of representation, not of meaning:
        //! whatever is recorded, folding the digest equals folding the
        //! triples one by one — inserts, then deletes — and, when every
        //! delete names a live triple or a pair nobody wrote, a rebuild
        //! over the survivors.

        use super::*;
        use proptest::prelude::*;

        const NET: NetParams =
            NetParams { n_peers: 16.0, n_leaves: 16.0, replication: 1.0, hop_ms: 1.0 };

        /// A small alphabet so that duplicates, shared pairs and emptied
        /// attributes are the common case: OIDs of three lengths, three
        /// attributes, and values that collide every way values can —
        /// `Int(2)`/`Float(2.0)` (equal, different size), strings sharing
        /// q-grams, and two long strings sharing their whole key prefix.
        fn triple((o, a, v): (usize, usize, usize)) -> Triple {
            let value = match v % 8 {
                0 => Value::Int(2),
                1 => Value::Float(2.0),
                2 => Value::Float(2.5),
                3 => Value::Int(-7),
                4 => Value::str("icde"),
                5 => Value::str("icdt"),
                6 => Value::str("a-long-conference-name-2006"),
                _ => Value::str("a-long-conference-name-2007"),
            };
            let oid = ["o", "obj-1", "object-number-2", "p", "obj-2"][o % 5];
            Triple::new(oid, ["x", "y", "pub:z"][a % 3], value)
        }

        fn same_fact(a: &Triple, b: &Triple) -> bool {
            a.oid == b.oid && a.attr == b.attr && ValueRepr::of(&a.value) == ValueRepr::of(&b.value)
        }

        /// Plays `ops` against `live`, recording them: an insert always;
        /// a delete as asked when it names a live triple, and otherwise
        /// turned into a delete of a pair nobody ever writes. Returns the
        /// delta and the recorded inserts and deletes in order.
        fn play(
            ops: &[(bool, (usize, usize, usize))],
            live: &mut Vec<Triple>,
        ) -> (StatsDelta, Vec<Triple>, Vec<Triple>) {
            let (mut delta, mut ins, mut del) = (StatsDelta::new(), Vec::new(), Vec::new());
            for &(delete, spec) in ops {
                let mut t = triple(spec);
                if !delete {
                    delta.record_insert(t.clone());
                    live.push(t.clone());
                    ins.push(t);
                    continue;
                }
                match live.iter().position(|l| same_fact(l, &t)) {
                    Some(pos) => drop(live.remove(pos)),
                    None if spec.2 % 2 == 0 => t.attr = intern("ghost"),
                    None => t.value = Value::str("never-written"),
                }
                delta.record_delete(t.clone());
                del.push(t);
            }
            (delta, ins, del)
        }

        /// Folds one round's pieces at their homes, each through its
        /// wire image.
        fn fold_round(
            pieces: &[StatsPiece],
            homes: &mut [StatsHome],
            flush: &mut StatsFlush,
            published: &mut StatsNotice,
        ) {
            for p in pieces {
                assert!(!p.is_empty());
                let bytes = p.to_bytes();
                assert_eq!(bytes.len(), p.wire_size());
                let back = StatsPiece::from_bytes(&bytes).unwrap();
                assert_eq!(&back, p);
                let (taken, out) = homes[p.shard as usize].fold(&back, 0.0);
                assert_eq!(taken.len(), p.delete_groups());
                flush.settle(p.shard, &taken);
                published.merge(out);
            }
        }

        /// Folds `d` into the homes as a flush does — the attribute homes
        /// settle the deletes first, then the OID and value changes
        /// follow — and returns what they published at ε = 0.
        fn flush_into(homes: &mut [StatsHome], d: StatsDelta) -> StatsNotice {
            let mut flush = StatsFlush::new(d);
            let mut published = StatsNotice::default();
            let first = flush.first_pieces();
            fold_round(&first, homes, &mut flush, &mut published);
            if flush.has_deletes() {
                assert!(first.iter().all(|p| p.oids.is_empty() && p.values.is_empty()));
                let second = flush.object_pieces();
                fold_round(&second, homes, &mut flush, &mut published);
            }
            published
        }

        /// No attribute counts more semantic values than triples.
        fn join_values_within_count<'a>(
            attrs: impl IntoIterator<Item = &'a Arc<AttrStats>>,
        ) -> bool {
            attrs.into_iter().all(|a| a.join_distinct <= a.count)
        }

        fn folded_one_by_one(base: &GlobalStats, ins: &[Triple], del: &[Triple]) -> GlobalStats {
            let mut s = base.clone();
            ins.iter().for_each(|t| s.apply_insert(t));
            del.iter().for_each(|t| s.apply_delete(t));
            s
        }

        fn spec() -> impl Strategy<Value = (usize, usize, usize)> {
            (0usize..5, 0usize..3, 0usize..8)
        }

        proptest! {
            #[test]
            fn apply_equals_per_triple_fold_equals_rebuild(
                base in proptest::collection::vec(spec(), 0..12),
                ops in proptest::collection::vec((any::<bool>(), spec()), 1..80),
                cut in 0usize..80,
            ) {
                let mut live: Vec<Triple> = base.into_iter().map(triple).collect();
                let start = GlobalStats::build(&live, NET);
                let cut = cut.min(ops.len());
                let (a, a_ins, a_del) = play(&ops[..cut], &mut live);
                let (b, b_ins, b_del) = play(&ops[cut..], &mut live);
                let rebuilt = GlobalStats::build(&live, NET);

                // a then b, as digests and triple by triple.
                let mut digests = start.clone();
                digests.apply_delta(&a);
                assert_stats_match(&digests, &folded_one_by_one(&start, &a_ins, &a_del));
                let after_a = digests.clone();
                digests.apply_delta(&b);
                assert_stats_match(&digests, &folded_one_by_one(&after_a, &b_ins, &b_del));
                assert_stats_match(&digests, &rebuilt);

                // One merged delta says the same as the two in turn …
                let mut merged = a.clone();
                merged.merge(b.clone());
                prop_assert_eq!(merged.len(), a.len() + b.len());
                let mut s = start.clone();
                s.apply_delta(&merged);
                assert_stats_match(&s, &rebuilt);
                // … so does its wire image …
                let bytes = merged.to_bytes();
                prop_assert_eq!(bytes.len(), merged.wire_size());
                let back = StatsDelta::from_bytes(&bytes).unwrap();
                prop_assert_eq!(back.to_bytes(), bytes);
                let mut s = start.clone();
                s.apply_delta(&back);
                assert_stats_match(&s, &rebuilt);
                // … and what is left of it after compaction.
                merged.compact();
                let mut s = start.clone();
                s.apply_delta(&merged);
                assert_stats_match(&s, &rebuilt);
            }

            /// Over-deleting (a known pair under OIDs that never held
            /// it, more deletes than inserts) is where group order could
            /// show; one pair per delta keeps the orders the same, and
            /// the fold must then saturate exactly as single deletes do.
            #[test]
            fn over_deletes_saturate_like_single_deletes(
                base in proptest::collection::vec(spec(), 0..12),
                pair in spec(),
                oids in proptest::collection::vec(0usize..5, 1..12),
            ) {
                let base: Vec<Triple> = base.into_iter().map(triple).collect();
                let start = GlobalStats::build(&base, NET);
                let mut oids = oids;
                oids.sort_unstable();
                let del: Vec<Triple> = oids.iter().map(|&o| triple((o, pair.1, pair.2))).collect();
                let mut d = StatsDelta::new();
                del.iter().for_each(|t| d.record_delete(t.clone()));
                let mut s = start.clone();
                s.apply_delta(&d);
                assert_stats_match(&s, &folded_one_by_one(&start, &[], &del));
            }

            /// A flush's pieces say what its delta says: folded at
            /// homes holding the build's shards — the attribute homes
            /// settling the deletes, the OID and value changes in a
            /// second round when there are any — the homes, united,
            /// equal the delta folded into the build, deletes of pairs
            /// the build does not count included; and what they publish
            /// at ε = 0, installed in the build's summary, gives every
            /// estimate of that fold. Both codecs round-trip at their
            /// arithmetic size.
            #[test]
            fn notice_and_pieces_say_what_the_delta_says(
                base in proptest::collection::vec(spec(), 0..12),
                ops in proptest::collection::vec((any::<bool>(), spec()), 1..60),
                compact in any::<bool>(),
            ) {
                let base: Vec<Triple> = base.into_iter().map(triple).collect();
                let start = GlobalStats::build(&base, NET);
                let mut d = StatsDelta::new();
                for (delete, s) in ops {
                    match delete {
                        true => d.record_delete(triple(s)),
                        false => d.record_insert(triple(s)),
                    }
                }
                if compact {
                    d.compact();
                }
                let mut want = start.clone();
                want.apply_delta(&d);

                let mut homes: Vec<StatsHome> =
                    (0..STATS_SHARDS).map(|s| start.home(s).unwrap()).collect();
                let published = flush_into(&mut homes, d);
                let united = GlobalStats::from_homes(&homes, NET);
                assert_stats_match(&united, &want);
                prop_assert!(united == want);

                let bytes = published.to_bytes();
                prop_assert_eq!(bytes.len(), published.wire_size());
                let back = StatsNotice::from_bytes(&bytes).unwrap();
                prop_assert_eq!(back.to_bytes(), bytes);
                let mut peer = start.summary();
                peer.install(&back);
                prop_assert!(peer.same_estimates(&want), "{:?}\n{:?}", peer, want);
                prop_assert!(!peer.is_exact() && peer.attrs.values().all(|a| !a.is_exact()));
            }

            /// A delete takes what it takes in the store, whose identity
            /// is semantic: a live triple of its own value, or nothing
            /// when its value only shares key bits with a live one
            /// (`a-long-conference-name-2006`/`-2007`). After any
            /// sequence of such writes, each flushed on its own, the
            /// master and the homes count no more semantic values than
            /// triples and equal a rebuild over the survivors. (A delete
            /// of a live pair under another OID, or of `Int(2)` for a
            /// live `Float(2.0)`, is left out: the first is taken by
            /// design, the second leaves the byte sum of the other
            /// size.)
            #[test]
            fn a_delete_takes_only_its_own_value(
                base in proptest::collection::vec(spec(), 0..12),
                ops in proptest::collection::vec((any::<bool>(), spec()), 1..40),
            ) {
                let mut live: Vec<Triple> = base.into_iter().map(triple).collect();
                let mut master = GlobalStats::build(&live, NET);
                let mut homes: Vec<StatsHome> =
                    (0..STATS_SHARDS).map(|s| master.home(s).unwrap()).collect();
                for (delete, s) in ops {
                    let t = triple(s);
                    let mut d = StatsDelta::new();
                    if !delete {
                        d.record_insert(t.clone());
                        live.push(t);
                    } else if let Some(at) = live.iter().position(|l| same_fact(l, &t)) {
                        d.record_delete(live.remove(at));
                    } else if live.iter().all(|l| l.attr != t.attr || l.value != t.value) {
                        d.record_delete(t);
                    } else {
                        continue;
                    }
                    master.apply_delta(&d);
                    flush_into(&mut homes, d);
                    prop_assert!(join_values_within_count(master.attrs.values()));
                    prop_assert!(homes.iter().all(|h| join_values_within_count(h.attrs.values())));
                }
                let rebuilt = GlobalStats::build(&live, NET);
                assert_stats_match(&master, &rebuilt);
                prop_assert!(GlobalStats::from_homes(&homes, NET) == rebuilt);
            }

            /// `compact` cancels what the retired pairing over two triple
            /// lists cancelled: per identical triple, as many inserts as
            /// there are deletes to match them.
            #[test]
            fn compact_matches_the_list_pairing(
                ops in proptest::collection::vec((any::<bool>(), spec()), 0..60),
            ) {
                let mut d = StatsDelta::new();
                let (mut ins, mut del): (Vec<Triple>, Vec<Triple>) = (Vec::new(), Vec::new());
                for (delete, s) in ops {
                    let t = triple(s);
                    match delete {
                        true => { d.record_delete(t.clone()); del.push(t) }
                        false => { d.record_insert(t.clone()); ins.push(t) }
                    }
                }
                // The list pairing, verbatim but for comparing values by
                // representation: first unused identical delete wins.
                let mut used = vec![false; del.len()];
                ins.retain(|t| {
                    let pair = (0..del.len()).find(|&j| !used[j] && same_fact(&del[j], t));
                    pair.map(|j| used[j] = true).is_none()
                });
                let mut j = 0;
                del.retain(|_| { j += 1; !used[j - 1] });
                let mut want: Vec<String> = ins
                    .iter()
                    .map(|t| event(INSERTED, t))
                    .chain(del.iter().map(|t| event(DELETED, t)))
                    .collect();
                want.sort();

                d.compact();
                prop_assert_eq!(events(&d), want);
                // Still a well-formed digest: no empty group, no OID
                // nobody refers to, and it round-trips.
                prop_assert!(d.groups.iter().flatten().all(|g| !g.oids.is_empty()));
                let referred: FxHashMap<u32, ()> =
                    d.groups.iter().flatten().flat_map(|g| &g.oids).map(|&i| (i, ())).collect();
                prop_assert_eq!(referred.len(), d.oids.len());
                prop_assert_eq!(StatsDelta::from_bytes(&d.to_bytes()).unwrap().to_bytes(), d.to_bytes());
            }
        }
    }

    mod incremental_matches_rebuild {
        //! The tentpole property: after ANY insert/delete sequence, the
        //! incrementally maintained snapshot is indistinguishable from a
        //! from-scratch `GlobalStats::build` over the surviving triples.

        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn property(
                inserts in proptest::collection::vec(
                    ("[a-e]{1,3}", "[a-c]{1,2}", 0u64..40),
                    1..60,
                ),
                delete_picks in proptest::collection::vec(0usize..1000, 0..40),
            ) {
                let net = NetParams {
                    n_peers: 16.0, n_leaves: 16.0, replication: 1.0, hop_ms: 1.0,
                };
                // Mixed-type values: strings exercise the q-gram
                // counters, ints/floats the numeric key space.
                let triples: Vec<Triple> = inserts
                    .iter()
                    .map(|(oid, attr, n)| {
                        let v = match n % 3 {
                            0 => Value::Int(*n as i64 - 20),
                            1 => Value::Float(*n as f64 / 4.0),
                            _ => Value::str(&format!("s{}", n % 7)),
                        };
                        Triple::new(oid, attr, v)
                    })
                    .collect();
                let mut live = GlobalStats::empty(net);
                let mut survivors: Vec<Triple> = Vec::new();
                // Interleave: insert everything, deleting a previously
                // inserted survivor after every few inserts.
                let mut picks = delete_picks.iter();
                for (i, t) in triples.iter().enumerate() {
                    live.apply_insert(t);
                    survivors.push(t.clone());
                    if i % 3 == 2 {
                        if let Some(p) = picks.next() {
                            if !survivors.is_empty() {
                                let victim = survivors.remove(p % survivors.len());
                                live.apply_delete(&victim);
                            }
                        }
                    }
                }
                let fresh = GlobalStats::build(&survivors, net);
                assert_stats_match(&live, &fresh);
            }
        }
    }
}
