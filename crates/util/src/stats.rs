//! Descriptive statistics used by the cost model and the bench harness.
//!
//! * [`Summary`] — streaming mean/variance/min/max (Welford),
//! * [`percentile`] — exact percentile of a sample,
//! * [`gini`] — Gini coefficient, the balance metric of experiment E5,
//! * [`Histogram`] — equi-width histogram over the 64-bit key space, the
//!   statistic the query optimizer's cost model consumes (paper \[5\]:
//!   "we base these calculations on … the actual data distribution").

/// Streaming summary statistics (Welford's online algorithm).
#[derive(Clone, Debug, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Summary { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 for an empty summary).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance.
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another summary into this one (parallel Welford).
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let d = other.mean - self.mean;
        let mean = self.mean + d * other.n as f64 / n as f64;
        self.m2 += other.m2 + d * d * (self.n as f64 * other.n as f64) / n as f64;
        self.mean = mean;
        self.n = n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Exact percentile (nearest-rank) of a sample; `p` in `[0, 100]`.
///
/// Returns 0 for an empty slice. Sorts a copy — fine for bench-sized data.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v[nearest_rank(p, v.len())]
}

/// Index of the nearest-rank `p`-th percentile (`p` in `[0, 100]`) in
/// an ascending sample of `n > 0` values.
fn nearest_rank(p: f64, n: usize) -> usize {
    let rank = ((p / 100.0) * (n as f64 - 1.0)).round() as usize;
    rank.min(n - 1)
}

/// Sliding window of recent latency observations with on-demand
/// quantiles — the input of the adaptive retry policy: per-attempt
/// timeouts and hedging delays are derived from observed completion-time
/// quantiles rather than fixed configuration constants.
///
/// A bounded ring buffer: the newest observation evicts the oldest once
/// the window is full, so the estimate tracks current network conditions
/// instead of averaging over the whole run. The window is also kept in
/// order, so a quantile is one index rather than a copy and a sort.
#[derive(Clone, Debug)]
pub struct RttWindow {
    /// Observations in arrival order; a ring once full.
    samples: Vec<f64>,
    /// The same observations, ascending by `total_cmp`. Allocated whole
    /// up front, so observing never grows it.
    sorted: Vec<f64>,
    next: usize,
    cap: usize,
}

impl RttWindow {
    /// A window retaining the `cap` most recent observations.
    ///
    /// # Panics
    /// Panics if `cap == 0`.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "RTT window needs capacity");
        RttWindow { samples: Vec::new(), sorted: Vec::with_capacity(cap), next: 0, cap }
    }

    /// Records one observation (any non-negative unit; callers pick one
    /// and stay consistent).
    pub fn observe(&mut self, x: f64) {
        if self.samples.len() < self.cap {
            self.samples.push(x);
        } else {
            let old = std::mem::replace(&mut self.samples[self.next], x);
            self.next = (self.next + 1) % self.cap;
            // Values equal under `total_cmp` are bit-identical, so the
            // first one not below `old` is `old`.
            self.sorted.remove(self.sorted.partition_point(|s| s.total_cmp(&old).is_lt()));
        }
        self.sorted.insert(self.sorted.partition_point(|s| s.total_cmp(&x).is_le()), x);
    }

    /// Number of retained observations.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when nothing has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Nearest-rank quantile over the window, as [`percentile`] computes
    /// it; `p` in `[0, 100]`. `None` until at least one observation
    /// arrived.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        Some(self.sorted[nearest_rank(p, self.sorted.len())])
    }
}

/// Gini coefficient of non-negative loads: 0 = perfectly balanced,
/// → 1 = maximally concentrated. Returns 0 for empty or all-zero input.
pub fn gini(loads: &[f64]) -> f64 {
    let n = loads.len();
    if n == 0 {
        return 0.0;
    }
    let mut v: Vec<f64> = loads.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let sum: f64 = v.iter().sum();
    if sum == 0.0 {
        return 0.0;
    }
    let weighted: f64 = v.iter().enumerate().map(|(i, x)| (i as f64 + 1.0) * x).sum();
    (2.0 * weighted) / (n as f64 * sum) - (n as f64 + 1.0) / n as f64
}

/// Equi-width histogram over `u64` keys with distinct-value tracking.
///
/// The cost model uses it to estimate the cardinality of key-range
/// predicates and the selectivity of equality predicates. Keys can be
/// [`Histogram::remove`]d again: distinct values are reference-counted,
/// so an interleaved insert/delete sequence lands on exactly the state
/// a fresh histogram over the surviving keys would have (as long as the
/// distinct tracking cap is never exceeded).
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    lo: u64,
    hi: u64,
    buckets: Vec<u64>,
    count: u64,
    /// key → number of live occurrences.
    distinct: crate::FxHashMap<u64, u32>,
    /// Cap on the distinct map; beyond it we stop tracking exactly.
    distinct_cap: usize,
}

impl Histogram {
    /// Creates a histogram covering `[lo, hi]` with `buckets` buckets.
    ///
    /// # Panics
    /// Panics if `buckets == 0` or `lo > hi`.
    pub fn new(lo: u64, hi: u64, buckets: usize) -> Self {
        assert!(buckets > 0, "histogram needs at least one bucket");
        assert!(lo <= hi, "empty histogram domain");
        Histogram {
            lo,
            hi,
            buckets: vec![0; buckets],
            count: 0,
            distinct: Default::default(),
            distinct_cap: 4096,
        }
    }

    /// Covers the full 64-bit key space.
    pub fn full_range(buckets: usize) -> Self {
        Self::new(0, u64::MAX, buckets)
    }

    fn bucket_of(&self, key: u64) -> usize {
        let key = key.clamp(self.lo, self.hi);
        let span = (self.hi - self.lo) as u128 + 1;
        let off = (key - self.lo) as u128;
        ((off * self.buckets.len() as u128) / span) as usize
    }

    /// Records one key.
    pub fn add(&mut self, key: u64) {
        self.add_n(key, 1);
    }

    /// Records `n` occurrences of one key — the state `n` calls of
    /// [`Histogram::add`] would leave, in one bucket and one map probe.
    pub fn add_n(&mut self, key: u64, n: u32) {
        if n == 0 {
            return;
        }
        let b = self.bucket_of(key);
        self.buckets[b] += n as u64;
        self.count += n as u64;
        if let Some(rc) = self.distinct.get_mut(&key) {
            *rc = rc.saturating_add(n);
        } else if self.distinct.len() < self.distinct_cap {
            self.distinct.insert(key, n);
        }
    }

    /// Removes one previously recorded occurrence of `key`. Removing a
    /// key that was never added is a no-op while the distinct map is
    /// exact (below the cap); beyond the cap the counters saturate at
    /// zero instead of corrupting the estimates.
    pub fn remove(&mut self, key: u64) {
        self.remove_n(key, 1);
    }

    /// Removes up to `n` occurrences of `key` — the state `n` calls of
    /// [`Histogram::remove`] would leave: a tracked key gives up at
    /// most its live occurrences, an untracked one (only possible at
    /// the cap) at most what its bucket holds.
    pub fn remove_n(&mut self, key: u64, n: u32) {
        let b = self.bucket_of(key);
        // Every occurrence is counted in its bucket and in the total.
        let held = self.buckets[b].min(self.count);
        let n = match self.distinct.get(&key).copied() {
            Some(rc) if rc > n => {
                self.distinct.insert(key, rc - n);
                n
            }
            Some(rc) => {
                self.distinct.remove(&key);
                rc
            }
            // Exact tracking says the key was never recorded.
            None if self.distinct.len() < self.distinct_cap => return,
            None => n,
        };
        let n = (n as u64).min(held);
        self.buckets[b] -= n;
        self.count -= n;
    }

    /// Total number of recorded keys.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Estimated number of distinct keys (exact up to the cap).
    pub fn distinct_estimate(&self) -> u64 {
        self.distinct.len() as u64
    }

    /// Estimated number of keys in `[lo, hi]` assuming intra-bucket
    /// uniformity.
    pub fn estimate_range(&self, lo: u64, hi: u64) -> f64 {
        if lo > hi || self.count == 0 {
            return 0.0;
        }
        let lo = lo.max(self.lo);
        let hi = hi.min(self.hi);
        if lo > hi {
            return 0.0;
        }
        let nb = self.buckets.len();
        let span = (self.hi - self.lo) as u128 + 1;
        let width = span / nb as u128; // last bucket may be wider; negligible
        let b_lo = self.bucket_of(lo);
        let b_hi = self.bucket_of(hi);
        if b_lo == b_hi {
            let frac = ((hi - lo) as u128 + 1) as f64 / width.max(1) as f64;
            return self.buckets[b_lo] as f64 * frac.min(1.0);
        }
        let mut est = 0.0;
        // Partial first bucket.
        let b_lo_end = self.lo as u128 + (b_lo as u128 + 1) * width - 1;
        let frac_lo = (b_lo_end.saturating_sub(lo as u128) + 1) as f64 / width.max(1) as f64;
        est += self.buckets[b_lo] as f64 * frac_lo.min(1.0);
        // Full middle buckets.
        for b in (b_lo + 1)..b_hi {
            est += self.buckets[b] as f64;
        }
        // Partial last bucket.
        let b_hi_start = self.lo as u128 + b_hi as u128 * width;
        let frac_hi = ((hi as u128).saturating_sub(b_hi_start) + 1) as f64 / width.max(1) as f64;
        est += self.buckets[b_hi] as f64 * frac_hi.min(1.0);
        est
    }

    /// Estimated cardinality of an equality predicate on one key.
    pub fn estimate_eq(&self) -> f64 {
        let d = self.distinct_estimate().max(1);
        self.count as f64 / d as f64
    }

    /// Merges another histogram with identical domain and bucket count.
    ///
    /// # Panics
    /// Panics on mismatched shape.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.lo, other.lo);
        assert_eq!(self.hi, other.hi);
        assert_eq!(self.buckets.len(), other.buckets.len());
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        for (k, rc) in &other.distinct {
            if let Some(mine) = self.distinct.get_mut(k) {
                *mine += rc;
            } else if self.distinct.len() < self.distinct_cap {
                self.distinct.insert(*k, *rc);
            }
        }
    }

    /// Raw bucket counts (for serialization / display).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.buckets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic() {
        let mut s = Summary::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            s.add(x);
        }
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert!((s.variance() - 1.25).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
    }

    #[test]
    fn summary_merge_matches_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = Summary::new();
        for &x in &data {
            all.add(x);
        }
        let mut a = Summary::new();
        let mut b = Summary::new();
        for &x in &data[..37] {
            a.add(x);
        }
        for &x in &data[37..] {
            b.add(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn percentile_examples() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert!((percentile(&v, 50.0) - 50.0).abs() <= 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn rtt_window_evicts_oldest() {
        let mut w = RttWindow::new(4);
        assert!(w.is_empty());
        assert_eq!(w.quantile(99.0), None);
        for x in [10.0, 20.0, 30.0, 40.0] {
            w.observe(x);
        }
        assert_eq!(w.len(), 4);
        assert_eq!(w.quantile(0.0), Some(10.0));
        assert_eq!(w.quantile(100.0), Some(40.0));
        // Two more observations push out the two oldest.
        w.observe(50.0);
        w.observe(60.0);
        assert_eq!(w.len(), 4);
        assert_eq!(w.quantile(0.0), Some(30.0));
        assert_eq!(w.quantile(100.0), Some(60.0));
    }

    proptest::proptest! {
        /// The window's kept order answers every quantile exactly as a
        /// fresh sort of the retained samples does, duplicates and
        /// evictions included.
        #[test]
        fn rtt_window_quantile_is_percentile_of_retained(
            xs in proptest::collection::vec(0u64..40, 1..200),
            cap in 1usize..70,
        ) {
            let mut w = RttWindow::new(cap);
            for (i, &x) in xs.iter().enumerate() {
                w.observe(x as f64);
                let retained: Vec<f64> =
                    xs[(i + 1).saturating_sub(cap)..=i].iter().map(|&x| x as f64).collect();
                for p in [0.0, 0.99, 1.0, 25.0, 50.0, 90.0, 99.0, 100.0] {
                    proptest::prop_assert_eq!(
                        w.quantile(p).map(f64::to_bits),
                        Some(percentile(&retained, p).to_bits())
                    );
                }
            }
        }
    }

    #[test]
    fn gini_extremes() {
        assert!(gini(&[1.0, 1.0, 1.0, 1.0]).abs() < 1e-12);
        // All load on one of many nodes → close to 1.
        let mut v = vec![0.0; 100];
        v[0] = 100.0;
        assert!(gini(&v) > 0.95);
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn histogram_range_estimates() {
        let mut h = Histogram::new(0, 999, 10);
        for k in 0..1000u64 {
            h.add(k);
        }
        assert_eq!(h.count(), 1000);
        let est = h.estimate_range(0, 499);
        assert!((est - 500.0).abs() < 20.0, "est={est}");
        let est = h.estimate_range(250, 259);
        assert!((est - 10.0).abs() < 5.0, "est={est}");
        assert_eq!(h.estimate_range(2000, 3000), 0.0);
        assert_eq!(h.estimate_range(10, 5), 0.0);
    }

    #[test]
    fn histogram_eq_estimate_uses_distinct() {
        let mut h = Histogram::new(0, 99, 4);
        for _ in 0..10 {
            for k in 0..10u64 {
                h.add(k);
            }
        }
        // 100 rows, 10 distinct → ~10 rows per key.
        assert!((h.estimate_eq() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_merge_adds() {
        let mut a = Histogram::new(0, 99, 4);
        let mut b = Histogram::new(0, 99, 4);
        a.add(5);
        b.add(95);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.estimate_range(0, 99) > 1.9);
    }

    #[test]
    fn histogram_remove_inverts_add() {
        let mut h = Histogram::new(0, 999, 10);
        let mut fresh = Histogram::new(0, 999, 10);
        for k in 0..100u64 {
            h.add(k % 37);
        }
        for k in 0..50u64 {
            h.remove(k % 37);
        }
        // Survivors: the second half of the insertion sequence.
        for k in 50..100u64 {
            fresh.add(k % 37);
        }
        assert_eq!(h.count(), fresh.count());
        assert_eq!(h.bucket_counts(), fresh.bucket_counts());
        assert_eq!(h.distinct_estimate(), fresh.distinct_estimate());
        // Removing keys that were never added is a no-op.
        let snapshot = h.bucket_counts().to_vec();
        h.remove(999);
        h.remove(500);
        assert_eq!(h.bucket_counts(), &snapshot[..]);
    }

    #[test]
    fn histogram_counted_ops_equal_repeated_single_ops() {
        let ops: [(bool, u64, u32); 7] = [
            (true, 5, 3),
            (true, 500, 2),
            (false, 5, 2),
            (false, 5, 4),  // more than are left: stops at zero
            (false, 77, 3), // never added
            (true, 5, 1),
            (false, 500, 0),
        ];
        let mut counted = Histogram::new(0, 999, 10);
        let mut single = Histogram::new(0, 999, 10);
        for (add, key, n) in ops {
            match add {
                true => counted.add_n(key, n),
                false => counted.remove_n(key, n),
            }
            for _ in 0..n {
                match add {
                    true => single.add(key),
                    false => single.remove(key),
                }
            }
            assert_eq!(counted.count(), single.count());
            assert_eq!(counted.bucket_counts(), single.bucket_counts());
            assert_eq!(counted.distinct_estimate(), single.distinct_estimate());
        }
        assert_eq!(counted.count(), 3);
    }

    #[test]
    fn histogram_clamps_out_of_domain_keys() {
        let mut h = Histogram::new(10, 20, 2);
        h.add(0); // clamped to 10
        h.add(100); // clamped to 20
        assert_eq!(h.count(), 2);
    }
}
