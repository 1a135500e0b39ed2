//! Property-based tests for pal-kmeans: clustering and binning invariants
//! on arbitrary inputs.

use pal_kmeans::{
    min_cluster_silhouette, min_cluster_silhouette_1d, silhouette_samples, KMeans, ScoreBinning,
};
use proptest::prelude::*;

fn points_1d() -> impl Strategy<Value = Vec<[f64; 1]>> {
    proptest::collection::vec(0.1f64..10.0, 4..80)
        .prop_map(|v| v.into_iter().map(|x| [x]).collect())
}

/// `(value, cluster id)` pairs: half the values come from a four-value
/// pool (duplicates within and across clusters), and with ids drawn from
/// 0..6 over as few as 3 points, singleton clusters and unused ids are
/// common.
fn labelled_1d() -> impl Strategy<Value = Vec<(f64, usize)>> {
    proptest::collection::vec(
        (
            prop_oneof![
                1 => (0u32..4).prop_map(|i| 0.9 + 0.1 * i as f64),
                1 => 0.5f64..3.0,
            ],
            0usize..6,
        ),
        3..60,
    )
}

fn profile_like() -> impl Strategy<Value = Vec<f64>> {
    // Normalized-performance-shaped values: mass near 1, occasional tail.
    proptest::collection::vec(
        prop_oneof![
            8 => 0.85f64..1.15,
            2 => 1.15f64..3.5,
        ],
        4..120,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kmeans_assignments_are_nearest_centroid(pts in points_1d(), k in 1usize..5) {
        prop_assume!(k <= pts.len());
        let r = KMeans::new(k, 7).fit(&pts);
        for (p, &a) in pts.iter().zip(&r.assignments) {
            let d_assigned = (p[0] - r.centroids[a][0]).powi(2);
            for c in &r.centroids {
                prop_assert!(d_assigned <= (p[0] - c[0]).powi(2) + 1e-9);
            }
        }
    }

    #[test]
    fn kmeans_inertia_matches_assignments(pts in points_1d(), k in 1usize..5) {
        prop_assume!(k <= pts.len());
        let r = KMeans::new(k, 3).fit(&pts);
        let manual: f64 = pts
            .iter()
            .zip(&r.assignments)
            .map(|(p, &a)| (p[0] - r.centroids[a][0]).powi(2))
            .sum();
        prop_assert!((r.inertia - manual).abs() < 1e-6 * (1.0 + manual));
    }

    #[test]
    fn kmeans_centroids_within_data_hull(pts in points_1d(), k in 1usize..5) {
        prop_assume!(k <= pts.len());
        let r = KMeans::new(k, 11).fit(&pts);
        let lo = pts.iter().map(|p| p[0]).fold(f64::INFINITY, f64::min);
        let hi = pts.iter().map(|p| p[0]).fold(f64::NEG_INFINITY, f64::max);
        for c in &r.centroids {
            prop_assert!(c[0] >= lo - 1e-9 && c[0] <= hi + 1e-9);
        }
    }

    #[test]
    fn silhouette_values_in_range(pts in points_1d(), k in 2usize..4) {
        prop_assume!(k <= pts.len());
        let r = KMeans::new(k, 5).fit(&pts);
        let k_used = r.assignments.iter().copied().max().unwrap() + 1;
        prop_assume!(k_used >= 2);
        let samples = silhouette_samples(&pts, &r.assignments);
        for &s in &samples {
            prop_assert!((-1.0..=1.0).contains(&s));
        }
        let m = samples.iter().sum::<f64>() / samples.len() as f64;
        prop_assert!((-1.0..=1.0).contains(&m));
    }

    #[test]
    fn silhouette_1d_matches_pairwise_oracle(labelled in labelled_1d()) {
        let (values, assignments): (Vec<f64>, Vec<usize>) = labelled.into_iter().unzip();
        let mut used = assignments.clone();
        used.sort_unstable();
        used.dedup();
        prop_assume!(used.len() >= 2);
        let points: Vec<[f64; 1]> = values.iter().map(|&v| [v]).collect();
        let fast = min_cluster_silhouette_1d(&values, &assignments);
        let oracle = min_cluster_silhouette(&points, &assignments);
        prop_assert!((fast - oracle).abs() < 1e-9, "1-D {} vs oracle {}", fast, oracle);
    }

    #[test]
    fn binning_picks_the_oracle_sweeps_k(values in profile_like()) {
        let cfg = ScoreBinning::default();
        prop_assert_eq!(cfg.bin(&values).k, oracle_k(&cfg, &values));
    }

    #[test]
    fn binning_covers_every_input(values in profile_like()) {
        let b = ScoreBinning::default().bin(&values);
        prop_assert_eq!(b.scores.len(), values.len());
        prop_assert_eq!(b.level_of.len(), values.len());
        for (i, &s) in b.scores.iter().enumerate() {
            prop_assert!((b.levels[b.level_of[i]] - s).abs() < 1e-9);
        }
        // Levels sorted strictly ascending.
        for w in b.levels.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn binning_k_within_configured_range(values in profile_like()) {
        let cfg = ScoreBinning::default();
        let b = cfg.bin(&values);
        prop_assert!(b.k >= 1 && b.k <= cfg.k_max);
    }

    #[test]
    fn binned_scores_within_data_range(values in profile_like()) {
        let b = ScoreBinning::default().bin(&values);
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for &s in &b.scores {
            prop_assert!(s >= lo - 1e-9 && s <= hi + 1e-9);
        }
    }

    #[test]
    fn outliers_keep_exact_values(values in profile_like()) {
        let b = ScoreBinning::default().bin(&values);
        for &i in &b.outlier_indices {
            prop_assert_eq!(b.scores[i], values[i]);
        }
    }

    #[test]
    fn binning_preserves_order_of_magnitude(values in profile_like()) {
        // Binning must not invert orderings badly: if x is much larger than
        // y (different bins apart), the binned score of x must be >= that
        // of y.
        let b = ScoreBinning::default().bin(&values);
        for i in 0..values.len() {
            for j in 0..values.len() {
                if values[i] >= values[j] {
                    // Binned scores may tie (same bin) but not invert by
                    // more than a bin width; we check the weak property.
                    prop_assert!(
                        b.scores[i] >= b.scores[j] - 1e-9
                            || b.level_of[i] >= b.level_of[j]
                    );
                }
            }
        }
    }

    #[test]
    fn binning_deterministic(values in profile_like()) {
        let a = ScoreBinning::default().bin(&values);
        let b = ScoreBinning::default().bin(&values);
        prop_assert_eq!(a, b);
    }
}

/// The K that `ScoreBinning::bin` should choose, re-derived with the
/// O(n²) pairwise silhouette: the same outlier cut, K sweep, seeds and
/// selection margin.
fn oracle_k(cfg: &ScoreBinning, values: &[f64]) -> usize {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let sd = (values.iter().map(|&v| (v - mean) * (v - mean)).sum::<f64>() / n).sqrt();
    let inliers: Vec<[f64; 1]> = values
        .iter()
        .filter(|&&v| !(sd > 0.0 && (v - mean).abs() > cfg.outlier_sigma * sd))
        .map(|&v| [v])
        .collect();
    let mut distinct = inliers.as_flattened().to_vec();
    distinct.sort_by(f64::total_cmp);
    distinct.dedup();
    if distinct.len() < 2 {
        return 1;
    }
    let mut best: Option<(usize, f64)> = None;
    for k in cfg.k_min..=cfg.k_max.min(distinct.len()).max(cfg.k_min) {
        if k > inliers.len() {
            break;
        }
        let r = KMeans::new(k, cfg.seed ^ k as u64).fit(&inliers);
        let sil = min_cluster_silhouette(&inliers, &r.assignments);
        if best.is_none_or(|(_, b)| sil > b + 1e-12) {
            best = Some((k, sil));
        }
    }
    best.expect("at least one K tried").0
}
