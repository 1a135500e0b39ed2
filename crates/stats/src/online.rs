//! Streaming accumulators: Welford online mean/variance and running extrema.
//!
//! The simulator records per-epoch metrics (utilization, queue depth,
//! placement compute time) without buffering entire series; these
//! accumulators provide numerically stable single-pass statistics.

use serde::{Deserialize, Serialize};

/// Welford's online algorithm for mean and variance.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
}

impl OnlineStats {
    /// New, empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Incorporate one sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean; `None` before any sample.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Sample variance (n-1); `None` before two samples.
    fn variance(&self) -> Option<f64> {
        (self.count > 1).then(|| self.m2 / (self.count - 1) as f64)
    }

    /// Sample standard deviation; `None` before two samples.
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Merge another accumulator into this one (parallel reduction),
    /// using Chan et al.'s pairwise update.
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
    }
}

/// Running minimum and maximum.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StreamingExtrema {
    min: Option<f64>,
    max: Option<f64>,
}

impl StreamingExtrema {
    /// New, empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Incorporate one sample.
    pub fn push(&mut self, x: f64) {
        self.min = Some(self.min.map_or(x, |m| m.min(x)));
        self.max = Some(self.max.map_or(x, |m| m.max(x)));
    }

    /// Smallest sample seen, if any.
    pub fn min(&self) -> Option<f64> {
        self.min
    }

    /// Largest sample seen, if any.
    pub fn max(&self) -> Option<f64> {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::{mean, std_dev};

    #[test]
    fn matches_batch_mean_and_stddev() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut o = OnlineStats::new();
        for &x in &xs {
            o.push(x);
        }
        assert!((o.mean().unwrap() - mean(&xs).unwrap()).abs() < 1e-12);
        assert!((o.std_dev().unwrap() - std_dev(&xs).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn empty_accumulator_returns_none() {
        let o = OnlineStats::new();
        assert_eq!(o.mean(), None);
        assert_eq!(o.variance(), None);
        assert_eq!(o.count(), 0);
    }

    #[test]
    fn variance_needs_two_samples() {
        let mut o = OnlineStats::new();
        o.push(3.0);
        assert_eq!(o.variance(), None);
        o.push(5.0);
        assert!((o.variance().unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs = [1.0, 5.0, 2.0, 8.0, 3.0, 3.0, 9.0];
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..3] {
            a.push(x);
        }
        for &x in &xs[3..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean().unwrap() - whole.mean().unwrap()).abs() < 1e-12);
        assert!((a.variance().unwrap() - whole.variance().unwrap()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        a.push(2.0);
        let before = a.clone();
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);

        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn extrema_tracks_min_max() {
        let mut e = StreamingExtrema::new();
        assert_eq!(e.min(), None);
        for x in [3.0, -1.0, 7.0, 2.0] {
            e.push(x);
        }
        assert_eq!(e.min(), Some(-1.0));
        assert_eq!(e.max(), Some(7.0));
    }
}
