//! Disjoint inclusive `u64` interval sets.
//!
//! Both overlays detect range-query completion by *interval coverage*:
//! every leaf reply names the key interval it covers, and the query
//! completes when the union equals the requested interval. This also
//! doubles as a completeness guarantee under message loss.

use std::iter::once;

/// A set of disjoint, sorted, inclusive `u64` intervals with merging.
#[derive(Clone, Debug, Default)]
pub struct IntervalSet {
    /// Disjoint intervals in ascending order.
    ivs: Vec<(u64, u64)>,
}

impl IntervalSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `[lo, hi]`, merging overlapping or adjacent intervals.
    /// Inverted inputs (`lo > hi`) are ignored.
    pub fn add(&mut self, lo: u64, hi: u64) {
        if lo > hi {
            return;
        }
        let mut merged = Vec::with_capacity(self.ivs.len() + 1);
        let mut cur = (lo, hi);
        let mut placed = false;
        for &(a, b) in &self.ivs {
            if b.checked_add(1).is_some_and(|b1| b1 < cur.0) {
                // Strictly left of cur, not adjacent.
                merged.push((a, b));
            } else if cur.1.checked_add(1).is_some_and(|c1| c1 < a) {
                // Strictly right of cur: emit cur first (once).
                if !placed {
                    merged.push(cur);
                    placed = true;
                }
                merged.push((a, b));
            } else {
                // Overlapping or adjacent: absorb.
                cur = (cur.0.min(a), cur.1.max(b));
            }
        }
        if !placed {
            merged.push(cur);
        }
        self.ivs = merged;
    }

    /// The maximal sub-intervals of `[lo, hi]` the set does not cover,
    /// ascending (none when `lo > hi`): the spaces before, between and
    /// after the stored intervals, clipped to `[lo, hi]`.
    pub fn gaps(&self, lo: u64, hi: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
        let starts = once(Some(lo)).chain(self.ivs.iter().map(|&(_, b)| b.checked_add(1)));
        let ends = self.ivs.iter().map(|&(a, _)| a.checked_sub(1)).chain(once(Some(hi)));
        let clip = move |(s, e): (Option<u64>, Option<u64>)| Some((s?.max(lo), e?.min(hi)));
        starts.zip(ends).filter_map(clip).filter(|(s, e)| s <= e)
    }

    /// True when a single stored interval contains `[lo, hi]`.
    pub fn covers(&self, lo: u64, hi: u64) -> bool {
        self.ivs.iter().any(|&(a, b)| a <= lo && hi <= b)
    }

    /// The stored intervals.
    pub fn intervals(&self) -> &[(u64, u64)] {
        &self.ivs
    }

    /// Sum of interval lengths (saturating; full-space coverage returns
    /// `u64::MAX`).
    pub fn covered_len(&self) -> u64 {
        self.ivs.iter().fold(0u64, |acc, &(a, b)| acc.saturating_add((b - a).saturating_add(1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_adjacent_and_overlapping() {
        let mut s = IntervalSet::new();
        s.add(10, 20);
        s.add(30, 40);
        assert_eq!(s.intervals(), &[(10, 20), (30, 40)]);
        assert!(!s.covers(10, 40));
        s.add(21, 29);
        assert_eq!(s.intervals(), &[(10, 40)]);
        assert!(s.covers(10, 40));
        assert!(s.covers(15, 35));
        assert!(!s.covers(5, 15));
    }

    #[test]
    fn out_of_order_inserts() {
        let mut s = IntervalSet::new();
        s.add(50, 60);
        s.add(10, 15);
        s.add(55, 70);
        s.add(0, 5);
        assert_eq!(s.intervals(), &[(0, 5), (10, 15), (50, 70)]);
        s.add(6, 9);
        assert_eq!(s.intervals(), &[(0, 15), (50, 70)]);
    }

    #[test]
    fn u64_extremes() {
        let mut s = IntervalSet::new();
        s.add(u64::MAX - 10, u64::MAX);
        s.add(0, u64::MAX - 11);
        assert!(s.covers(0, u64::MAX));
        assert_eq!(s.covered_len(), u64::MAX);
    }

    #[test]
    fn inverted_ignored() {
        let mut s = IntervalSet::new();
        s.add(10, 5);
        assert!(s.intervals().is_empty());
        assert_eq!(s.covered_len(), 0);
    }

    #[test]
    fn gaps_are_the_uncovered_rest() {
        let mut s = IntervalSet::new();
        let gaps = |s: &IntervalSet, lo, hi| s.gaps(lo, hi).collect::<Vec<_>>();
        assert_eq!(gaps(&s, 3, 9), [(3, 9)]);
        s.add(10, 20);
        s.add(30, u64::MAX);
        assert_eq!(gaps(&s, 0, 40), [(0, 9), (21, 29)]);
        assert_eq!(gaps(&s, 12, 25), [(21, 25)]);
        assert_eq!(gaps(&s, 15, 18), []);
        assert_eq!(gaps(&s, 31, u64::MAX), []);
        assert_eq!(gaps(&s, 9, 5), [], "an inverted interval has no gaps");
        s.add(0, 5);
        assert_eq!(gaps(&s, 0, 12), [(6, 9)]);
    }

    #[test]
    fn covered_len_sums() {
        let mut s = IntervalSet::new();
        s.add(0, 9);
        s.add(20, 29);
        assert_eq!(s.covered_len(), 20);
    }
}
