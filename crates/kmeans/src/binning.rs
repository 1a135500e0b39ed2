//! 1-D PM-score binning (Section III-B, Figure 5): [`ScoreBinning`] and
//! its result, [`BinnedScores`].

use crate::kmeans::KMeans;
use crate::silhouette::min_cluster_silhouette_1d;
use serde::{Deserialize, Serialize};

/// Configuration for the PM-score binning pipeline (Section III-B,
/// Figure 5).
///
/// The pipeline, exactly as the paper describes:
///
/// 1. Separate extreme outliers (more than 3σ from the mean) — they
///    distort silhouette coefficients.
/// 2. Sweep K from 2 to 11 on the inliers, selecting the K whose **worst
///    per-bin** mean silhouette is highest ("as close to +1 as possible
///    for all bins").
/// 3. Every inlier GPU's PM-score becomes its bin centroid; each outlier
///    keeps its own exact normalized performance as its PM-score ("these
///    extreme outliers are assigned their own PM-score equal to the GPU's
///    normalized performance").
///
/// Each candidate K costs one K-Means fit, whose 1-D assignment step is a
/// sweep over the sorted values ([`KMeans`]), plus one exact 1-D worst-bin
/// silhouette, O(n·K·log n) ([`min_cluster_silhouette_1d`]) rather than
/// the O(n²) pairwise reference
/// ([`min_cluster_silhouette`](crate::min_cluster_silhouette)), so a
/// 2,500-GPU class bins in about 0.03 s, most of it in K-Means.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreBinning {
    /// Smallest K to try (paper: 2).
    pub k_min: usize,
    /// Largest K to try (paper: 11).
    pub k_max: usize,
    /// Outlier threshold in standard deviations (paper: 3).
    pub outlier_sigma: f64,
    /// Seed for K-Means initialization.
    pub seed: u64,
}

impl Default for ScoreBinning {
    fn default() -> Self {
        ScoreBinning {
            k_min: 2,
            k_max: 11,
            outlier_sigma: 3.0,
            seed: 0xBA1_5C0_7E5,
        }
    }
}

/// Result of binning one class's variability profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BinnedScores {
    /// Chosen number of inlier bins.
    pub k: usize,
    /// The silhouette score achieved by the chosen K (worst-bin criterion).
    pub silhouette: f64,
    /// Per-input PM-score: bin centroid for inliers, raw value for outliers.
    pub scores: Vec<f64>,
    /// Sorted, deduplicated distinct PM-score levels (bin centroids plus
    /// outlier values) — the columns of the L×V matrix.
    pub levels: Vec<f64>,
    /// For each input, the index into `levels` of its PM-score.
    pub level_of: Vec<usize>,
    /// Indices of the inputs that were treated as >3σ outliers.
    pub outlier_indices: Vec<usize>,
}

impl ScoreBinning {
    /// Bin a 1-D variability profile (`values[i]` = GPU *i*'s iteration time
    /// normalized to the cluster median).
    ///
    /// Panics on empty input. With fewer inliers than `k_min` the pipeline
    /// degrades gracefully: every value becomes its own level.
    pub fn bin(&self, values: &[f64]) -> BinnedScores {
        assert!(!values.is_empty(), "binning an empty profile");
        assert!(self.k_min >= 2 && self.k_max >= self.k_min, "bad K range");

        // 1. Outlier separation.
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = values.iter().map(|&v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        let sd = var.sqrt();
        let mut inlier_idx = Vec::with_capacity(n);
        let mut outlier_idx = Vec::new();
        for (i, &v) in values.iter().enumerate() {
            if sd > 0.0 && (v - mean).abs() > self.outlier_sigma * sd {
                outlier_idx.push(i);
            } else {
                inlier_idx.push(i);
            }
        }
        let inliers: Vec<[f64; 1]> = inlier_idx.iter().map(|&i| [values[i]]).collect();

        // 2. K sweep with worst-bin silhouette selection.
        let mut scores = vec![0.0f64; n];
        let chosen_k;
        let chosen_sil;
        let distinct_inliers = {
            let mut v = inliers.as_flattened().to_vec();
            v.sort_by(|a, b| a.partial_cmp(b).expect("NaN score"));
            v.dedup();
            v.len()
        };

        if distinct_inliers >= 2 {
            let k_hi = self.k_max.min(distinct_inliers);
            /// Best (K, silhouette, assignments, centroids) found so far.
            type BestBinning = (usize, f64, Vec<usize>, Vec<[f64; 1]>);
            let mut best: Option<BestBinning> = None;
            for k in self.k_min..=k_hi.max(self.k_min) {
                if k > inliers.len() {
                    break;
                }
                let r = KMeans::new(k, self.seed ^ k as u64).fit(&inliers);
                let sil = min_cluster_silhouette_1d(inliers.as_flattened(), &r.assignments);
                let better = match &best {
                    None => true,
                    Some((_, best_sil, _, _)) => sil > *best_sil + 1e-12,
                };
                if better {
                    best = Some((k, sil, r.assignments, r.centroids));
                }
            }
            let (k, sil, assignments, centroids) =
                best.expect("at least one K tried when >=2 distinct inliers");
            chosen_k = k;
            chosen_sil = sil;
            for (pos, &i) in inlier_idx.iter().enumerate() {
                scores[i] = centroids[assignments[pos]][0];
            }
        } else {
            // All inliers identical (or a single inlier): one trivial bin.
            for &i in &inlier_idx {
                scores[i] = values[i];
            }
            chosen_k = 1;
            chosen_sil = 1.0;
        }

        // 3. Outliers keep their exact normalized performance.
        for &i in &outlier_idx {
            scores[i] = values[i];
        }

        // Distinct levels, sorted ascending (best PM-score first).
        let mut levels: Vec<f64> = scores.clone();
        levels.sort_by(|a, b| a.partial_cmp(b).expect("NaN score"));
        levels.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        let level_of = scores
            .iter()
            .map(|&s| {
                levels
                    .iter()
                    .position(|&l| (l - s).abs() < 1e-12)
                    .expect("score must be a level")
            })
            .collect();

        BinnedScores {
            k: chosen_k,
            silhouette: chosen_sil,
            scores,
            levels,
            level_of,
            outlier_indices: outlier_idx,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Profile shaped like Figure 5: a mass near 1.0, a second mode, and an
    /// extreme outlier beyond 2.5x.
    fn fig5_like_profile() -> Vec<f64> {
        let mut v = Vec::new();
        for i in 0..60 {
            v.push(0.97 + (i % 7) as f64 * 0.005); // tight cluster ~0.97-1.0
        }
        for i in 0..40 {
            v.push(1.10 + (i % 5) as f64 * 0.008); // second cluster ~1.10-1.14
        }
        for i in 0..20 {
            v.push(1.30 + (i % 4) as f64 * 0.01); // third cluster
        }
        v.push(3.4); // extreme outlier (>3 sigma)
        v.push(3.5);
        v
    }

    #[test]
    fn outliers_are_separated_and_keep_exact_scores() {
        let profile = fig5_like_profile();
        let b = ScoreBinning::default().bin(&profile);
        assert!(b.outlier_indices.contains(&(profile.len() - 1)));
        assert!(b.outlier_indices.contains(&(profile.len() - 2)));
        assert_eq!(b.scores[profile.len() - 1], 3.5);
        assert_eq!(b.scores[profile.len() - 2], 3.4);
    }

    #[test]
    fn inliers_get_centroid_scores() {
        let profile = fig5_like_profile();
        let b = ScoreBinning::default().bin(&profile);
        // Every inlier's score must be one of at most k distinct centroids.
        let mut inlier_scores: Vec<f64> = (0..profile.len())
            .filter(|i| !b.outlier_indices.contains(i))
            .map(|i| b.scores[i])
            .collect();
        inlier_scores.sort_by(|a, b| a.partial_cmp(b).unwrap());
        inlier_scores.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        assert!(inlier_scores.len() <= b.k);
    }

    #[test]
    fn levels_are_sorted_and_cover_scores() {
        let b = ScoreBinning::default().bin(&fig5_like_profile());
        for w in b.levels.windows(2) {
            assert!(w[0] < w[1]);
        }
        for (i, &s) in b.scores.iter().enumerate() {
            assert!((b.levels[b.level_of[i]] - s).abs() < 1e-12);
        }
    }

    #[test]
    fn three_well_separated_modes_find_k3() {
        let mut v = Vec::new();
        for _ in 0..30 {
            v.push(1.0);
            v.push(2.0);
            v.push(3.0);
        }
        // Tiny jitter so points are distinct but modes are tight.
        for (i, x) in v.iter_mut().enumerate() {
            *x += (i % 3) as f64 * 1e-4;
        }
        let b = ScoreBinning::default().bin(&v);
        assert_eq!(b.k, 3, "expected K=3 for three tight modes, got {}", b.k);
        assert!(b.silhouette > 0.9);
    }

    #[test]
    fn constant_profile_degrades_gracefully() {
        let b = ScoreBinning::default().bin(&[1.0; 50]);
        assert_eq!(b.levels, vec![1.0]);
        assert!(b.outlier_indices.is_empty());
        assert!(b.scores.iter().all(|&s| s == 1.0));
    }

    #[test]
    fn single_value_profile() {
        let b = ScoreBinning::default().bin(&[1.5]);
        assert_eq!(b.levels, vec![1.5]);
        assert_eq!(b.level_of, vec![0]);
    }

    #[test]
    fn memory_bound_low_variability_profile() {
        // Class C (PageRank-like): ~1% spread, no outliers. Any binning is
        // fine but scores must stay within the data range.
        let v: Vec<f64> = (0..128).map(|i| 1.0 + (i % 10) as f64 * 0.001).collect();
        let b = ScoreBinning::default().bin(&v);
        let (lo, hi) = (0.999, 1.011);
        assert!(b.scores.iter().all(|&s| s > lo && s < hi));
    }

    #[test]
    fn deterministic() {
        let profile = fig5_like_profile();
        let a = ScoreBinning::default().bin(&profile);
        let b = ScoreBinning::default().bin(&profile);
        assert_eq!(a, b);
    }

    #[test]
    fn k_respects_bounds() {
        let profile = fig5_like_profile();
        let cfg = ScoreBinning {
            k_min: 2,
            k_max: 4,
            ..Default::default()
        };
        let b = cfg.bin(&profile);
        assert!(b.k >= 2 && b.k <= 4);
    }
}
