//! Measurement plumbing: the fixed-bucket latency histogram.
//!
//! [`Histogram`] is what the mesh records per-packet latencies into (see
//! `emesh::mesh::Mesh::track_latency`); its `Debug` form is part of the
//! pinned executor observables.

/// Fixed-bucket histogram of `u64` samples (e.g. latencies in cycles).
///
/// Buckets are linear with a configurable width; samples beyond the last
/// bucket are clamped into an overflow bucket so nothing is lost silently.
#[derive(Debug, Clone)]
pub struct Histogram {
    bucket_width: u64,
    buckets: Vec<u64>,
    overflow: u64,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Histogram {
    /// A histogram with `n_buckets` linear buckets of `bucket_width` each.
    pub fn new(bucket_width: u64, n_buckets: usize) -> Self {
        assert!(bucket_width > 0, "bucket width must be positive");
        assert!(n_buckets > 0, "need at least one bucket");
        Histogram {
            bucket_width,
            buckets: vec![0; n_buckets],
            overflow: 0,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, sample: u64) {
        self.count += 1;
        self.sum += sample as u128;
        self.min = self.min.min(sample);
        self.max = self.max.max(sample);
        let idx = (sample / self.bucket_width) as usize;
        if idx < self.buckets.len() {
            self.buckets[idx] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// The `q`-quantile (0.0 ..= 1.0) approximated from bucket boundaries.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                // Upper edge of the bucket: a conservative estimate.
                return Some(((i as u64) + 1) * self.bucket_width - 1);
            }
        }
        Some(self.max)
    }

    /// Samples that exceeded the last bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_mean_min_max() {
        let mut h = Histogram::new(10, 10);
        for s in [5, 15, 25] {
            h.record(s);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.mean(), Some(15.0));
        assert_eq!(h.min(), Some(5));
        assert_eq!(h.max(), Some(25));
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn histogram_overflow_is_counted() {
        let mut h = Histogram::new(10, 2);
        h.record(100);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), Some(100));
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new(1, 100);
        for s in 0..100 {
            h.record(s);
        }
        let median = h.quantile(0.5).unwrap();
        assert!((45..=55).contains(&median), "median was {median}");
        assert!(h.quantile(1.0).unwrap() >= 99);
    }

    #[test]
    fn histogram_empty_reports_none() {
        let h = Histogram::new(1, 1);
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.quantile(0.5), None);
    }
}
