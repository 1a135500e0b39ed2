//! Lloyd's K-Means with k-means++ seeding.
//!
//! Deterministic given a seed; handles empty clusters by re-seeding them on
//! the farthest point from its centroid (a standard, stable repair).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration and entry point for K-Means clustering.
#[derive(Debug, Clone)]
pub struct KMeans {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations before giving up on convergence.
    pub max_iters: usize,
    /// Convergence tolerance on total centroid movement (squared distance).
    pub tol: f64,
    /// RNG seed for k-means++ initialization.
    pub seed: u64,
    /// Independent restarts; the run with the lowest inertia wins
    /// (scikit-learn's `n_init`, guarding against bad seedings).
    pub n_init: usize,
}

/// Result of a K-Means run over `D`-dimensional points.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansResult<const D: usize> {
    /// Cluster centroids, one per cluster.
    pub centroids: Vec<[f64; D]>,
    /// Cluster index assigned to each input point.
    pub assignments: Vec<usize>,
    /// Sum of squared distances of points to their assigned centroid.
    pub inertia: f64,
    /// Number of Lloyd iterations performed.
    pub iterations: usize,
}

impl KMeans {
    /// K-Means with sensible defaults (`max_iters = 200`, `tol = 1e-10`,
    /// `n_init = 10`).
    pub fn new(k: usize, seed: u64) -> Self {
        KMeans {
            k,
            max_iters: 200,
            tol: 1e-10,
            seed,
            n_init: 10,
        }
    }

    /// Cluster `points` into `k` groups, keeping the best of `n_init`
    /// restarts by inertia.
    ///
    /// Points are contiguous fixed-size arrays, so the dimension is a
    /// compile-time constant: PM-score binning clusters `[f64; 1]` and
    /// application classification `[f64; 2]`, each through its own
    /// monomorphized copy of this one implementation.
    ///
    /// Panics if `points` is empty, `k == 0`, or `k > points.len()`.
    pub fn fit<const D: usize>(&self, points: &[[f64; D]]) -> KMeansResult<D> {
        assert!(self.n_init >= 1, "need at least one restart");
        let mut best: Option<KMeansResult<D>> = None;
        for i in 0..self.n_init {
            let r = self.fit_once(points, self.seed.wrapping_add(i as u64 * 0x9E37_79B9));
            if best.as_ref().is_none_or(|b| r.inertia < b.inertia) {
                best = Some(r);
            }
        }
        best.expect("n_init >= 1")
    }

    /// One Lloyd run from a single k-means++ seeding. The per-cluster
    /// sums and counts are allocated once and reset each iteration.
    fn fit_once<const D: usize>(&self, points: &[[f64; D]], seed: u64) -> KMeansResult<D> {
        assert!(!points.is_empty(), "kmeans on empty input");
        assert!(self.k > 0, "k must be positive");
        assert!(
            self.k <= points.len(),
            "k = {} exceeds point count {}",
            self.k,
            points.len()
        );

        let mut rng = StdRng::seed_from_u64(seed);
        let mut centroids = kmeanspp_init(points, self.k, &mut rng);
        let mut assignments = vec![0usize; points.len()];
        let mut sums = vec![[0.0; D]; self.k];
        let mut counts = vec![0usize; self.k];
        let mut iterations = 0;

        for iter in 0..self.max_iters {
            iterations = iter + 1;
            // Assignment step.
            for (a, p) in assignments.iter_mut().zip(points) {
                *a = nearest(p, &centroids).0;
            }
            // Update step.
            sums.fill([0.0; D]);
            counts.fill(0);
            for (p, &a) in points.iter().zip(&assignments) {
                counts[a] += 1;
                for (s, &x) in sums[a].iter_mut().zip(p) {
                    *s += x;
                }
            }
            let mut movement = 0.0;
            for c in 0..self.k {
                if counts[c] == 0 {
                    // Empty cluster: re-seed on the point farthest from its
                    // current centroid.
                    let (far_idx, _) = points
                        .iter()
                        .enumerate()
                        .map(|(i, p)| (i, sq_dist(p, &centroids[assignments[i]])))
                        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("NaN distance"))
                        .expect("non-empty points");
                    movement += sq_dist(&centroids[c], &points[far_idx]);
                    centroids[c] = points[far_idx];
                    assignments[far_idx] = c;
                    continue;
                }
                let new_c = sums[c].map(|s| s / counts[c] as f64);
                movement += sq_dist(&centroids[c], &new_c);
                centroids[c] = new_c;
            }
            if movement <= self.tol {
                break;
            }
        }

        // Final assignment pass so assignments match the final centroids.
        let mut inertia = 0.0;
        for (a, p) in assignments.iter_mut().zip(points) {
            let (nearest_c, d) = nearest(p, &centroids);
            *a = nearest_c;
            inertia += d;
        }

        KMeansResult {
            centroids,
            assignments,
            inertia,
            iterations,
        }
    }
}

/// Squared Euclidean distance.
pub(crate) fn sq_dist<const D: usize>(a: &[f64; D], b: &[f64; D]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x - y) * (x - y))
        .sum::<f64>()
}

/// Index and squared distance of the nearest centroid (first on ties).
fn nearest<const D: usize>(p: &[f64; D], centroids: &[[f64; D]]) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for (i, c) in centroids.iter().enumerate() {
        let d = sq_dist(p, c);
        if d < best.1 {
            best = (i, d);
        }
    }
    best
}

/// k-means++ seeding: first centroid uniform, subsequent centroids sampled
/// proportionally to squared distance from the nearest chosen centroid.
fn kmeanspp_init<const D: usize>(points: &[[f64; D]], k: usize, rng: &mut StdRng) -> Vec<[f64; D]> {
    let mut centroids: Vec<[f64; D]> = Vec::with_capacity(k);
    centroids.push(points[rng.gen_range(0..points.len())]);
    let mut d2: Vec<f64> = points.iter().map(|p| sq_dist(p, &centroids[0])).collect();
    while centroids.len() < k {
        let total: f64 = d2.iter().sum();
        let idx = if total <= 0.0 {
            // All points coincide with existing centroids; pick uniformly.
            rng.gen_range(0..points.len())
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut chosen = points.len() - 1;
            for (i, &d) in d2.iter().enumerate() {
                if target < d {
                    chosen = i;
                    break;
                }
                target -= d;
            }
            chosen
        };
        let newest = points[idx];
        centroids.push(newest);
        for (best, p) in d2.iter_mut().zip(points) {
            let d = sq_dist(p, &newest);
            if d < *best {
                *best = d;
            }
        }
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> Vec<[f64; 2]> {
        let mut pts = Vec::new();
        for i in 0..20 {
            pts.push([0.0 + (i % 5) as f64 * 0.01, 0.0]);
            pts.push([10.0 + (i % 5) as f64 * 0.01, 10.0]);
        }
        pts
    }

    #[test]
    fn separates_two_blobs() {
        let r = KMeans::new(2, 42).fit(&two_blobs());
        // All points near (0,0) share a label, all near (10,10) another.
        let label0 = r.assignments[0];
        for (i, &a) in r.assignments.iter().enumerate() {
            if i % 2 == 0 {
                assert_eq!(a, label0);
            } else {
                assert_ne!(a, label0);
            }
        }
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let pts = [[1.0], [2.0], [3.0]];
        let r = KMeans::new(3, 1).fit(&pts);
        assert!(r.inertia < 1e-20);
    }

    #[test]
    fn k1_centroid_is_mean() {
        let pts = [[1.0, 0.0], [3.0, 4.0]];
        let r = KMeans::new(1, 7).fit(&pts);
        assert!((r.centroids[0][0] - 2.0).abs() < 1e-12);
        assert!((r.centroids[0][1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let pts = two_blobs();
        let a = KMeans::new(3, 99).fit(&pts);
        let b = KMeans::new(3, 99).fit(&pts);
        assert_eq!(a, b);
    }

    #[test]
    fn inertia_non_increasing_in_k() {
        let pts: Vec<[f64; 1]> = (0..50).map(|i| [(i * i % 37) as f64]).collect();
        let mut last = f64::INFINITY;
        for k in 1..=6 {
            // Use best of a few seeds to smooth seeding luck.
            let best = (0..5)
                .map(|s| KMeans::new(k, s).fit(&pts).inertia)
                .fold(f64::INFINITY, f64::min);
            assert!(
                best <= last + 1e-9,
                "inertia increased from {last} to {best} at k={k}"
            );
            last = best;
        }
    }

    #[test]
    fn identical_points_dont_crash() {
        let pts = [[5.0]; 10];
        let r = KMeans::new(3, 0).fit(&pts);
        assert_eq!(r.assignments.len(), 10);
        assert!(r.inertia < 1e-20);
    }

    #[test]
    #[should_panic(expected = "exceeds point count")]
    fn k_too_large_panics() {
        KMeans::new(5, 0).fit(&[[1.0], [2.0]]);
    }

    #[test]
    fn assignments_point_to_nearest_centroid() {
        let pts = two_blobs();
        let r = KMeans::new(2, 3).fit(&pts);
        for (p, &a) in pts.iter().zip(&r.assignments) {
            let d_assigned = sq_dist(p, &r.centroids[a]);
            for c in &r.centroids {
                assert!(d_assigned <= sq_dist(p, c) + 1e-12);
            }
        }
    }
}
