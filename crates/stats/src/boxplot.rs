//! Boxplot statistics (Tukey's five-number summary plus outliers), used for
//! the JCT boxplots of Figure 10 and the placement-overhead boxplots of
//! Figure 18.

use crate::percentile::percentile_of_sorted;
use serde::{Deserialize, Serialize};

/// Tukey boxplot statistics for one sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoxplotStats {
    /// First quartile (25th percentile).
    pub q1: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// Third quartile (75th percentile).
    pub q3: f64,
    /// Lower whisker: smallest sample `>= q1 - 1.5 * IQR`.
    pub whisker_lo: f64,
    /// Upper whisker: largest sample `<= q3 + 1.5 * IQR`.
    pub whisker_hi: f64,
    /// Samples outside the whiskers, in ascending order.
    pub outliers: Vec<f64>,
}

impl BoxplotStats {
    /// Compute boxplot statistics; `None` for an empty sample.
    pub fn of(xs: &[f64]) -> Option<Self> {
        if xs.is_empty() {
            return None;
        }
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
        let q1 = percentile_of_sorted(&sorted, 25.0);
        let median = percentile_of_sorted(&sorted, 50.0);
        let q3 = percentile_of_sorted(&sorted, 75.0);
        let iqr = q3 - q1;
        let lo_fence = q1 - 1.5 * iqr;
        let hi_fence = q3 + 1.5 * iqr;
        let whisker_lo = sorted
            .iter()
            .copied()
            .find(|&x| x >= lo_fence)
            .unwrap_or(sorted[0]);
        let whisker_hi = sorted
            .iter()
            .rev()
            .copied()
            .find(|&x| x <= hi_fence)
            .unwrap_or(sorted[sorted.len() - 1]);
        let outliers = sorted
            .iter()
            .copied()
            .filter(|&x| x < lo_fence || x > hi_fence)
            .collect();
        Some(BoxplotStats {
            q1,
            median,
            q3,
            whisker_lo,
            whisker_hi,
            outliers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_of_ramp() {
        let xs: Vec<f64> = (1..=9).map(|i| i as f64).collect();
        let b = BoxplotStats::of(&xs).unwrap();
        assert_eq!(b.median, 5.0);
        assert_eq!(b.q1, 3.0);
        assert_eq!(b.q3, 7.0);
        assert!(b.outliers.is_empty());
        assert_eq!(b.whisker_lo, 1.0);
        assert_eq!(b.whisker_hi, 9.0);
    }

    #[test]
    fn detects_outlier() {
        let mut xs: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        xs.push(1000.0);
        let b = BoxplotStats::of(&xs).unwrap();
        assert_eq!(b.outliers, vec![1000.0]);
        assert!(b.whisker_hi <= 20.0);
    }

    #[test]
    fn constant_sample_has_no_outliers() {
        let b = BoxplotStats::of(&[2.0; 10]).unwrap();
        assert_eq!(b.q3 - b.q1, 0.0);
        assert!(b.outliers.is_empty());
        assert_eq!(b.whisker_lo, 2.0);
        assert_eq!(b.whisker_hi, 2.0);
    }

    #[test]
    fn empty_is_none() {
        assert!(BoxplotStats::of(&[]).is_none());
    }

    #[test]
    fn whiskers_within_data_range() {
        let xs = [3.0, -7.0, 12.0, 5.5, 8.0, 0.1];
        let b = BoxplotStats::of(&xs).unwrap();
        assert!(b.whisker_lo >= -7.0);
        assert!(b.whisker_hi <= 12.0);
        assert!(b.q1 <= b.median && b.median <= b.q3);
    }
}
