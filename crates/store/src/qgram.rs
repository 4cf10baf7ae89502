//! q-grams, the count filter, and edit distance.
//!
//! Paper §2 / ref \[6\]: *"in \[6\] we introduced a q-gram index (q-gram: a
//! substring of fixed length q) in order to be able to process string
//! similarity efficiently."* A string's q-grams are indexed in the DHT;
//! a similarity predicate `edist(s, t) ≤ k` first fetches candidate
//! strings sharing enough q-grams (the *count filter* — a necessary
//! condition, so no false negatives), then verifies candidates with the
//! actual edit distance.

/// The gram length used throughout UniStore (the classic choice).
pub const QGRAM_Q: usize = 3;

/// Padding bytes (outside the expected text alphabet) so that string
/// boundaries contribute grams too.
const PAD_HEAD: u8 = 0x01;
const PAD_TAIL: u8 = 0x02;

/// The positional-free q-grams of `s`, packed into `u32`s (3 bytes
/// big-endian). The padded string contributes `len(s) + q - 1` grams.
///
/// Padding is virtual — windows index straight into `s` with the pads
/// synthesized at the boundaries — so the only allocation is the
/// exactly-sized output Vec.
pub fn qgrams(s: &str) -> Vec<u32> {
    let bytes = s.as_bytes();
    let n = bytes.len();
    let at = |j: usize| {
        if j < QGRAM_Q - 1 {
            PAD_HEAD
        } else if j < QGRAM_Q - 1 + n {
            bytes[j - (QGRAM_Q - 1)]
        } else {
            PAD_TAIL
        }
    };
    let mut out = Vec::with_capacity(n + QGRAM_Q - 1);
    for i in 0..n + QGRAM_Q - 1 {
        out.push(pack_gram(&[at(i), at(i + 1), at(i + 2)]));
    }
    out
}

/// Packs one 3-byte gram into a `u32` (24 significant bits).
pub fn pack_gram(gram: &[u8]) -> u32 {
    debug_assert_eq!(gram.len(), QGRAM_Q);
    (gram[0] as u32) << 16 | (gram[1] as u32) << 8 | gram[2] as u32
}

/// Lower bound on shared grams for `edist ≤ k` over padded strings:
/// `max(|s|, |t|) - 1 - (k - 1) * q` (may be ≤ 0, in which case the
/// filter cannot prune and all candidates must be verified).
pub fn count_filter_threshold(len_s: usize, len_t: usize, k: usize) -> isize {
    let m = len_s.max(len_t) as isize;
    m - 1 - (k as isize - 1) * QGRAM_Q as isize
}

/// Multiset intersection size of two gram lists.
pub fn shared_grams(a: &[u32], b: &[u32]) -> usize {
    let mut counts: unistore_util::FxHashMap<u32, isize> = Default::default();
    for &g in a {
        *counts.entry(g).or_default() += 1;
    }
    let mut shared = 0;
    for &g in b {
        if let Some(c) = counts.get_mut(&g) {
            if *c > 0 {
                *c -= 1;
                shared += 1;
            }
        }
    }
    shared
}

/// True when the count filter *cannot rule out* `edist(s, t) ≤ k`.
pub fn passes_count_filter(s: &str, t: &str, k: usize) -> bool {
    let threshold = count_filter_threshold(s.len(), t.len(), k);
    if threshold <= 0 {
        return true;
    }
    shared_grams(&qgrams(s), &qgrams(t)) as isize >= threshold
}

/// Levenshtein edit distance (unit costs), two-row DP.
///
/// Walks `char` boundaries directly (no `Vec<char>` materialization)
/// and reuses thread-local DP rows, so the similarity-verification leaf
/// path — which calls this per candidate — is allocation-free in steady
/// state.
pub fn edit_distance(a: &str, b: &str) -> usize {
    if a.is_empty() {
        return b.chars().count();
    }
    if b.is_empty() {
        return a.chars().count();
    }
    thread_local! {
        static ROWS: std::cell::RefCell<(Vec<usize>, Vec<usize>)> =
            const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
    }
    ROWS.with(|rows| {
        let (prev, cur) = &mut *rows.borrow_mut();
        let m = b.chars().count();
        prev.clear();
        prev.extend(0..=m);
        cur.clear();
        cur.resize(m + 1, 0);
        for (i, ca) in a.chars().enumerate() {
            cur[0] = i + 1;
            for (j, cb) in b.chars().enumerate() {
                let sub = prev[j] + usize::from(ca != cb);
                cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
            }
            std::mem::swap(prev, cur);
        }
        prev[m]
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn gram_count_matches_formula() {
        assert_eq!(qgrams("ICDE").len(), 4 + QGRAM_Q - 1);
        assert_eq!(qgrams("").len(), QGRAM_Q - 1); // only padding windows
        assert_eq!(qgrams("ab").len(), 2 + QGRAM_Q - 1);
    }

    #[test]
    fn identical_strings_share_all_grams() {
        let g = qgrams("conference");
        assert_eq!(shared_grams(&g, &g), g.len());
    }

    #[test]
    fn edit_distance_examples() {
        assert_eq!(edit_distance("ICDE", "ICDE"), 0);
        assert_eq!(edit_distance("ICDE", "ICDM"), 1);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("abc", ""), 3);
        // The paper's example: series names within distance 2 of 'ICDE'.
        assert!(edit_distance("ICDE", "IDCE") <= 2);
        assert!(edit_distance("ICDE", "VLDB") > 2);
    }

    #[test]
    fn count_filter_examples() {
        // Typo'd conference names pass; unrelated names are pruned.
        assert!(passes_count_filter("ICDE 2006", "ICDE 2005", 2));
        assert!(passes_count_filter("Similarity", "Similarty", 2));
        assert!(!passes_count_filter("International Conference on Data Engineering", "VLDB", 1));
    }

    #[test]
    fn threshold_can_be_nonpositive() {
        // Short strings with large k: filter can't prune.
        assert!(count_filter_threshold(2, 2, 3) <= 0);
        assert!(passes_count_filter("ab", "xy", 3));
    }

    proptest! {
        /// The safety property the index relies on: the count filter
        /// never prunes a true match (no false negatives).
        #[test]
        fn prop_no_false_negatives(s in "[a-z]{0,12}", t in "[a-z]{0,12}", k in 1usize..4) {
            if edit_distance(&s, &t) <= k {
                prop_assert!(passes_count_filter(&s, &t, k),
                    "filter pruned a true match: {s:?} vs {t:?} (k={k})");
            }
        }

        #[test]
        fn prop_edit_distance_symmetric(s in "[a-z]{0,10}", t in "[a-z]{0,10}") {
            prop_assert_eq!(edit_distance(&s, &t), edit_distance(&t, &s));
        }

        #[test]
        fn prop_edit_distance_triangle(
            s in "[a-z]{0,8}", t in "[a-z]{0,8}", u in "[a-z]{0,8}"
        ) {
            prop_assert!(
                edit_distance(&s, &u) <= edit_distance(&s, &t) + edit_distance(&t, &u)
            );
        }

        #[test]
        fn prop_length_diff_lower_bound(s in "[a-z]{0,10}", t in "[a-z]{0,10}") {
            let d = edit_distance(&s, &t);
            prop_assert!(d >= s.len().abs_diff(t.len()));
            prop_assert!(d <= s.len().max(t.len()));
        }
    }
}
