//! Whole-sample summaries: mean and geometric mean.

/// Arithmetic mean of a sample, or `None` if the sample is empty.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Geometric mean of a sample of positive values.
///
/// Computed in log space for numerical stability. Returns `None` for empty
/// input or if any sample is not strictly positive (the geometric mean is
/// undefined there; the paper applies it to JCTs and speedup ratios, which
/// are always positive).
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
        return None;
    }
    let log_sum: f64 = xs.iter().map(|&x| x.ln()).sum();
    Some((log_sum / xs.len() as f64).exp())
}

/// Geometric mean of element-wise ratios `num[i] / den[i]`.
///
/// This is how the paper summarizes "PAL improves geomean JCT by 42% over
/// Tiresias": each workload contributes one ratio, and the geomean of the
/// ratios is reported. Returns `None` on length mismatch, empty input, or a
/// non-positive denominator/numerator.
pub fn geomean_of_ratios(num: &[f64], den: &[f64]) -> Option<f64> {
    if num.len() != den.len() || num.is_empty() {
        return None;
    }
    let ratios: Vec<f64> = num.iter().zip(den).map(|(&n, &d)| n / d).collect();
    geomean(&ratios)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_empty_is_none() {
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn mean_of_constant() {
        assert_eq!(mean(&[3.0, 3.0, 3.0]), Some(3.0));
    }

    #[test]
    fn mean_basic() {
        assert!((mean(&[1.0, 2.0, 3.0, 4.0]).unwrap() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn geomean_of_powers_of_two() {
        // geomean(1, 2, 4, 8) = (64)^(1/4) = 2*sqrt(2)
        let g = geomean(&[1.0, 2.0, 4.0, 8.0]).unwrap();
        assert!((g - 2.0 * 2.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn geomean_rejects_nonpositive() {
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, -2.0]), None);
        assert_eq!(geomean(&[]), None);
    }

    #[test]
    fn geomean_le_mean() {
        // AM-GM inequality.
        let xs = [0.5, 1.7, 3.2, 9.9, 2.4];
        assert!(geomean(&xs).unwrap() <= mean(&xs).unwrap() + 1e-12);
    }

    #[test]
    fn geomean_of_ratios_matches_manual() {
        let num = [2.0, 8.0];
        let den = [1.0, 2.0];
        // ratios 2 and 4 -> geomean sqrt(8)
        let g = geomean_of_ratios(&num, &den).unwrap();
        assert!((g - 8.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn geomean_of_ratios_length_mismatch() {
        assert_eq!(geomean_of_ratios(&[1.0], &[1.0, 2.0]), None);
    }
}
