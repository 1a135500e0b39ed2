//! Fixed-width histograms, used for variability-profile visualization
//! (Figures 5–8 bin GPU performance scores along the x-axis).

use serde::{Deserialize, Serialize};

/// A fixed-width histogram over `[lo, hi)` with a configurable bin count.
///
/// Samples below `lo` are clamped into the first bin and samples at or above
/// `hi` into the last bin, so the histogram never silently drops data (the
/// variability profiles have extreme outliers we must not lose).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Create an empty histogram over `[lo, hi)` with `bins` bins.
    ///
    /// Panics if `bins == 0` or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo < hi, "histogram range must be non-empty");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Total number of recorded samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Record one sample.
    pub fn record(&mut self, x: f64) {
        let idx = self.bin_index(x);
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Bin index a sample falls into (with clamping at both ends).
    fn bin_index(&self, x: f64) -> usize {
        let n = self.counts.len();
        if x < self.lo {
            return 0;
        }
        let w = (self.hi - self.lo) / n as f64;
        let idx = ((x - self.lo) / w) as usize;
        idx.min(n - 1)
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Fraction of samples in each bin (empty histogram yields all zeros).
    pub fn normalized(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_land_in_expected_bins() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(0.5);
        h.record(9.5);
        h.record(5.0);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[9], 1);
        assert_eq!(h.counts()[5], 1);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn out_of_range_clamps() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(-5.0);
        h.record(42.0);
        h.record(1.0); // == hi clamps into last bin
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[3], 2);
    }

    #[test]
    fn normalized_sums_to_one() {
        let mut h = Histogram::new(0.0, 4.0, 4);
        for x in [0.1, 1.1, 2.1, 3.1, 3.9] {
            h.record(x);
        }
        let sum: f64 = h.normalized().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_normalized_is_zero() {
        let h = Histogram::new(0.0, 1.0, 3);
        assert_eq!(h.normalized(), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn centers_are_midpoints() {
        // Unit-width bins over [0, 4): each bin's midpoint lands in it.
        let h = Histogram::new(0.0, 4.0, 4);
        for (i, center) in [0.5, 1.5, 2.5, 3.5].into_iter().enumerate() {
            assert_eq!(h.bin_index(center), i);
        }
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_panics() {
        Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn inverted_range_panics() {
        Histogram::new(2.0, 1.0, 4);
    }
}
