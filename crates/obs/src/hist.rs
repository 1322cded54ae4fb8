//! Fixed-bucket log2 latency histograms.
//!
//! Bucket 0 holds the value 0; bucket `k` (k ≥ 1) holds values in
//! `[2^(k-1), 2^k)`. The bucket array is a fixed `[u64; 65]`, so
//! recording never allocates and the type is `Copy`-cheap to embed in
//! collectors.

/// A log2-bucketed histogram of `u64` samples.
#[derive(Debug, Clone)]
pub struct Log2Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram { buckets: [0; 65], count: 0, sum: 0, max: 0 }
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index for `value`: 0 for 0, else `floor(log2(value)) + 1`.
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Inclusive `[lo, hi]` value range of bucket `idx`.
    pub fn bucket_bounds(idx: usize) -> (u64, u64) {
        match idx {
            0 => (0, 0),
            64 => (1 << 63, u64::MAX),
            _ => (1 << (idx - 1), (1 << idx) - 1),
        }
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of all samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest sample seen.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Raw bucket counts.
    pub fn buckets(&self) -> &[u64; 65] {
        &self.buckets
    }

    /// Non-empty buckets as `(lo, hi, count)`, ascending.
    pub fn nonzero(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = Self::bucket_bounds(i);
                (lo, hi, c)
            })
            .collect()
    }

    /// Smallest value `v` such that at least `p` (0..=1) of the samples
    /// fall in buckets up to `v`'s — an upper bound of the percentile's
    /// bucket, clamped to the observed [`Log2Histogram::max`] (no sample
    /// lies above it, so neither does any percentile). Returns 0 for an
    /// empty histogram.
    pub fn percentile_upper_bound(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut acc = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= target {
                return Self::bucket_bounds(i).1.min(self.max);
            }
        }
        self.max
    }

    /// Median upper bound: [`Log2Histogram::percentile_upper_bound`] at 0.50.
    pub fn p50(&self) -> u64 {
        self.percentile_upper_bound(0.50)
    }

    /// 95th-percentile upper bound.
    pub fn p95(&self) -> u64 {
        self.percentile_upper_bound(0.95)
    }

    /// 99th-percentile upper bound.
    pub fn p99(&self) -> u64 {
        self.percentile_upper_bound(0.99)
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact() {
        // Exhaustive boundary checks: each power of two starts a new
        // bucket; the value one below it closes the previous one.
        assert_eq!(Log2Histogram::bucket_of(0), 0);
        assert_eq!(Log2Histogram::bucket_of(1), 1);
        for k in 1..64usize {
            let lo = 1u64 << (k - 1);
            assert_eq!(Log2Histogram::bucket_of(lo), k, "lower edge of bucket {k}");
            let hi = if k == 63 { u64::MAX >> 1 } else { (1u64 << k) - 1 };
            assert_eq!(Log2Histogram::bucket_of(hi), k, "upper edge of bucket {k}");
        }
        assert_eq!(Log2Histogram::bucket_of(u64::MAX), 64);
        // bounds() agrees with bucket_of on both edges.
        for idx in 0..=64usize {
            let (lo, hi) = Log2Histogram::bucket_bounds(idx);
            assert_eq!(Log2Histogram::bucket_of(lo), idx);
            assert_eq!(Log2Histogram::bucket_of(hi), idx);
        }
    }

    #[test]
    fn records_and_summarises() {
        let mut h = Log2Histogram::new();
        for v in [0, 1, 2, 3, 4, 200, 200] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.max(), 200);
        assert!((h.mean() - 410.0 / 7.0).abs() < 1e-9);
        assert_eq!(h.buckets()[0], 1); // the 0
        assert_eq!(h.buckets()[1], 1); // the 1
        assert_eq!(h.buckets()[2], 2); // 2, 3
        assert_eq!(h.buckets()[3], 1); // 4
        assert_eq!(h.buckets()[8], 2); // 200 ∈ [128, 255]
        let nz = h.nonzero();
        assert_eq!(nz.last(), Some(&(128, 255, 2)));
    }

    #[test]
    fn percentile_upper_bound_brackets() {
        let mut h = Log2Histogram::new();
        for _ in 0..99 {
            h.record(10); // bucket [8, 15]
        }
        h.record(1000); // bucket [512, 1023]
        assert_eq!(h.percentile_upper_bound(0.5), 15);
        assert_eq!(h.percentile_upper_bound(0.99), 15);
        // The top bucket's bound (1023) is clamped to the observed max.
        assert_eq!(h.percentile_upper_bound(1.0), 1000);
        assert_eq!(Log2Histogram::new().percentile_upper_bound(0.5), 0);
    }

    #[test]
    fn percentiles_never_exceed_max() {
        // A wall-time shape like a sweep's: many fast cells, a few slow
        // ones whose bucket bound (31) lies above the slowest sample (27).
        let mut h = Log2Histogram::new();
        for v in [3, 4, 4, 5, 6, 9, 12, 17, 21, 27] {
            h.record(v);
        }
        for step in 0..=100 {
            let p = f64::from(step) / 100.0;
            let v = h.percentile_upper_bound(p);
            assert!(v <= h.max(), "p{step} = {v} exceeds max {}", h.max());
        }
        assert_eq!(h.p99(), 27);
    }

    #[test]
    fn percentiles_at_bucket_boundaries() {
        // A value exactly at a power of two sits in the bucket it
        // *opens*: the reported upper bound is the next boundary - 1,
        // clamped to the largest sample.
        let mut h = Log2Histogram::new();
        for _ in 0..100 {
            h.record(64); // opens bucket [64, 127]
        }
        assert_eq!(h.p50(), 64, "bound 127 clamps to max 64");
        assert_eq!(h.p95(), 64);
        assert_eq!(h.p99(), 64);
        h.record(200); // lifts max above the bucket's bound
        assert_eq!(h.p50(), 127);
        assert_eq!(h.p99(), 127);

        // All-zero samples: every percentile is the zero bucket.
        let mut z = Log2Histogram::new();
        for _ in 0..10 {
            z.record(0);
        }
        assert_eq!(z.p50(), 0);
        assert_eq!(z.p99(), 0);

        // u64::MAX lands in the terminal bucket whose upper bound is
        // u64::MAX itself; lower percentiles stay in the small bucket.
        let mut m = Log2Histogram::new();
        for _ in 0..99 {
            m.record(1);
        }
        m.record(u64::MAX);
        assert_eq!(m.p50(), 1);
        assert_eq!(m.p95(), 1);
        assert_eq!(m.p99(), 1);
        assert_eq!(m.percentile_upper_bound(1.0), u64::MAX);

        // Empty histogram: all percentiles are 0 (no samples).
        let e = Log2Histogram::new();
        assert_eq!(e.p50(), 0);
        assert_eq!(e.p95(), 0);
        assert_eq!(e.p99(), 0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        a.record(5);
        b.record(5);
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 100);
    }
}
