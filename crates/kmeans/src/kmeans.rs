//! Lloyd's K-Means with k-means++ seeding.
//!
//! Deterministic given a seed; handles empty clusters by re-seeding them on
//! the farthest point from its centroid (a standard, stable repair). In one
//! dimension the assignment step is a sweep over the sorted points
//! (`SortedLine`) that reproduces the O(n·K) `nearest` scan bit for bit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration and entry point for K-Means clustering.
///
/// In one dimension (PM-score binning) [`fit`](KMeans::fit) sorts the
/// points once and assigns them by a sweep: each Lloyd iteration costs
/// K − 1 binary searches over the sorted values plus one pass writing the
/// assignments, instead of n·K distance evaluations. The result is the
/// same, bit for bit, as the O(n·K) scan, which every other dimension uses
/// and which the 1-D path falls back to when centroids sit too close
/// together for the sweep's argument to hold.
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
    /// For `D == 1` the points are sorted once and every restart assigns
    /// them with the sweep described on [`KMeans`].
    ///
    /// Panics if `points` is empty, `k == 0`, or `k > points.len()`.
    pub fn fit<const D: usize>(&self, points: &[[f64; D]]) -> KMeansResult<D> {
        self.fit_restarts(points, D == 1)
    }

    /// [`fit`](KMeans::fit), with the 1-D sweep on or off (off is the
    /// O(n·K) reference the sweep must match).
    fn fit_restarts<const D: usize>(&self, points: &[[f64; D]], sweep: bool) -> KMeansResult<D> {
        assert!(self.n_init >= 1, "need at least one restart");
        let mut line = sweep.then(|| SortedLine::new(points));
        let mut best: Option<KMeansResult<D>> = None;
        for i in 0..self.n_init {
            let seed = self.seed.wrapping_add(i as u64 * 0x9E37_79B9);
            let r = self.fit_once(points, seed, line.as_mut());
            if best.as_ref().is_none_or(|b| r.inertia < b.inertia) {
                best = Some(r);
            }
        }
        best.expect("n_init >= 1")
    }

    /// One Lloyd run from a single k-means++ seeding. The per-cluster
    /// sums and counts are allocated once and reset each iteration.
    fn fit_once<const D: usize>(
        &self,
        points: &[[f64; D]],
        seed: u64,
        mut line: Option<&mut SortedLine>,
    ) -> KMeansResult<D> {
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
            assign(points, &centroids, &mut assignments, line.as_deref_mut());
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
        assign(points, &centroids, &mut assignments, line);
        let mut inertia = 0.0;
        for (p, &a) in points.iter().zip(&assignments) {
            inertia += sq_dist(p, &centroids[a]);
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

/// Index of the nearest centroid (first on ties).
fn nearest<const D: usize>(p: &[f64; D], centroids: &[[f64; D]]) -> usize {
    let mut best = (0usize, f64::INFINITY);
    for (i, c) in centroids.iter().enumerate() {
        let d = sq_dist(p, c);
        if d < best.1 {
            best = (i, d);
        }
    }
    best.0
}

/// Assignment step: every point to its [`nearest`] centroid, by the 1-D
/// sweep when `line` is given and the centroids allow it.
fn assign<const D: usize>(
    points: &[[f64; D]],
    centroids: &[[f64; D]],
    assignments: &mut [usize],
    line: Option<&mut SortedLine>,
) {
    if line.is_some_and(|l| l.assign(centroids, assignments)) {
        return;
    }
    for (a, p) in assignments.iter_mut().zip(points) {
        *a = nearest(p, centroids);
    }
}

/// Widest span (points and centroids) the sweep accepts: its squared
/// distances stay far below `f64::MAX`. Past it an overflow to infinity
/// would tie every far centroid, and [`nearest`] resolves such ties by
/// index, not by position.
const MAX_SPAN: f64 = 1e150;
/// Narrowest relative gap between adjacent centroids the sweep accepts,
/// 2⁻⁴⁰ of the span: wide enough that rounding (2⁻⁵³ relative) cannot
/// make a farther centroid's distance equal a nearer one's.
const MIN_REL_GAP: f64 = 1.0 / (1u64 << 40) as f64;
/// Narrowest absolute gap the sweep accepts: above it the distance that
/// separates two centroids squares to a normal `f64` (≥ 1e-280), not to
/// a subnormal or zero.
const MIN_GAP: f64 = 1e-140;

/// The points of a 1-D fit in ascending order, shared by all restarts.
#[derive(Debug)]
struct SortedLine {
    /// Point indices by ascending value (`total_cmp`).
    order: Vec<usize>,
    /// `values[r]` is the value of point `order[r]`.
    values: Vec<f64>,
    /// Scratch: centroid indices by ascending (value, index).
    ranked: Vec<usize>,
}

impl SortedLine {
    /// Sort `points` (one dimension: only `p[0]` is read).
    fn new<const D: usize>(points: &[[f64; D]]) -> Self {
        let mut order: Vec<usize> = (0..points.len()).collect();
        order.sort_unstable_by(|&i, &j| points[i][0].total_cmp(&points[j][0]));
        let values = order.iter().map(|&i| points[i][0]).collect();
        SortedLine {
            order,
            values,
            ranked: Vec::new(),
        }
    }

    /// Write into `assignments` exactly what [`nearest`] would give each
    /// point, and return `true`; or return `false`, writing nothing, when
    /// the centroids are too close for the argument below (the caller then
    /// runs the scan).
    ///
    /// Why a sweep is exact. Let the centroids be ordered by (value,
    /// index) and `d(x, c)` be [`sq_dist`], `(x − c)·(x − c)` in floating
    /// point. Rounding is monotone, so for fixed `c`, `d(x, c)` never
    /// decreases as `x` moves away from `c`. Take adjacent centroids
    /// `a < b` and say "b beats a at x" when `d(x, b) < d(x, a)`, or the
    /// two are equal and b has the lower index — the rule of
    /// [`nearest`], which keeps the first strict minimum. On `[a, b]`,
    /// `d(x, a)` rises and `d(x, b)` falls, so once b beats a it keeps
    /// beating it. Left of `a` the exact distances differ by at least the
    /// gap times `|x − b|`; with the gap above 2⁻⁴⁰ of the span and above
    /// 1e-140, and the span below 1e150, that margin survives both
    /// roundings, so `d(x, b) > d(x, a)` strictly and b never beats a there
    /// (right of `b`, symmetrically, b always does). Hence "b beats a" is a
    /// threshold in sorted order, found by one `partition_point`; and along
    /// the ordered centroids `d(x, ·)` strictly falls, then strictly rises,
    /// with at most one tie, between the two centroids that bracket `x`.
    /// The nearest centroid of the point at rank `r` is therefore the
    /// `j`-th, where `j` counts the boundaries at or below `r`: the
    /// boundaries rise with `j`, and the points between two of them form
    /// one run of the sorted order.
    fn assign<const D: usize>(
        &mut self,
        centroids: &[[f64; D]],
        assignments: &mut [usize],
    ) -> bool {
        let value = |c: usize| centroids[c][0];
        let ranked = &mut self.ranked;
        ranked.clear();
        ranked.extend(0..centroids.len());
        ranked.sort_unstable_by(|&i, &j| value(i).total_cmp(&value(j)).then(i.cmp(&j)));

        let n = self.values.len();
        let (lo, hi) = (self.values[0], self.values[n - 1]);
        let (lo_c, hi_c) = (value(ranked[0]), value(ranked[ranked.len() - 1]));
        // Checked one by one: `min` and `max` would skip a NaN.
        if ![lo, hi, lo_c, hi_c].iter().all(|e| e.is_finite()) {
            return false;
        }
        let span = hi.max(hi_c) - lo.min(lo_c);
        if span > MAX_SPAN {
            return false;
        }
        for w in ranked.windows(2) {
            let gap = value(w[1]) - value(w[0]);
            if gap <= span * MIN_REL_GAP || gap <= MIN_GAP {
                return false;
            }
        }

        let mut start = 0;
        for (r, &a) in ranked.iter().enumerate() {
            let end = match ranked.get(r + 1) {
                Some(&b) => {
                    let (ca, cb) = ([value(a)], [value(b)]);
                    start
                        + self.values[start..].partition_point(|&x| {
                            let (da, db) = (sq_dist(&[x], &ca), sq_dist(&[x], &cb));
                            !(db < da || (db == da && b < a))
                        })
                }
                None => n,
            };
            for &i in &self.order[start..end] {
                assignments[i] = a;
            }
            start = end;
        }
        true
    }
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
    use proptest::prelude::*;

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

    /// A result as bits, so that the comparison is exact.
    fn bits(r: &KMeansResult<1>) -> (Vec<u64>, &[usize], u64, usize) {
        let centroids = r.centroids.iter().map(|c| c[0].to_bits()).collect();
        (centroids, &r.assignments, r.inertia.to_bits(), r.iterations)
    }

    /// 1-D inputs at a scale from 1e-300 to 1e6, of either sign: each
    /// point is a uniform draw, one of four pooled values (duplicates) or
    /// a value a few ulps above a base (ulp-close runs).
    fn line_points() -> impl Strategy<Value = Vec<[f64; 1]>> {
        let scale = prop_oneof![Just(1e-300), Just(1e-150), Just(1e-3), Just(1.0), Just(1e6)];
        (scale, -1.0f64..1.0).prop_flat_map(|(s, base)| {
            proptest::collection::vec(
                prop_oneof![
                    2 => (-1.0f64..1.0).prop_map(move |u| [u * s]),
                    1 => (0u32..4).prop_map(move |i| [(base + 0.25 * i as f64) * s]),
                    1 => (0u64..8).prop_map(move |m| [f64::from_bits((base * s).to_bits() + m)]),
                ],
                1..60,
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(500))]

        #[test]
        fn sweep_matches_scan_bit_for_bit(
            pts in line_points(),
            pick in 0usize..64,
            seed in any::<u64>(),
        ) {
            let n = pts.len();
            let k = match pick {
                0 => 1,
                1 => n,
                p => 1 + p % n,
            };
            let km = KMeans { n_init: 3, ..KMeans::new(k, seed) };
            prop_assert_eq!(bits(&km.fit(&pts)), bits(&km.fit_restarts(&pts, false)));
        }
    }

    #[test]
    fn sweep_breaks_ties_by_index_and_refuses_close_centroids() {
        let mut line = SortedLine::new(&[[0.0], [1.0], [1.0 + 1e-13], [2.0]]);
        let mut got = vec![usize::MAX; 4];
        // A gap of 1e-13 is below 2^-40 of the span of 2.
        assert!(!line.assign(&[[1.0], [1.0 + 1e-13], [2.0]], &mut got));
        assert_eq!(got, [usize::MAX; 4], "a refused sweep writes nothing");
        assert!(line.assign(&[[2.0], [0.0], [1.0]], &mut got));
        assert_eq!(got, [1, 2, 2, 0]);

        // 1.0 is equidistant from both centroids: the lower index wins.
        let mut line = SortedLine::new(&[[0.0], [1.0], [2.0]]);
        let mut got = vec![usize::MAX; 3];
        assert!(line.assign(&[[2.0], [0.0]], &mut got));
        assert_eq!(got, [1, 0, 0]);
        assert!(line.assign(&[[0.0], [2.0]], &mut got));
        assert_eq!(got, [0, 0, 1]);
    }

    #[test]
    fn close_or_far_centroids_fall_back_to_the_scan() {
        let one_ulp = f64::from_bits(1.0f64.to_bits() + 1);
        let cases: [(&[[f64; 1]], usize); 2] = [
            // k = n puts two centroids one ulp apart.
            (&[[1.0], [one_ulp], [3.0]], 3),
            // Squared distances across ±1e200 overflow.
            (&[[-1e200], [0.0], [1e200], [5e199]], 3),
        ];
        for (pts, k) in cases {
            let km = KMeans::new(k, 5);
            let mut line = SortedLine::new(pts);
            let mut got = vec![0; pts.len()];
            assert!(!line.assign(&km.fit_restarts(pts, false).centroids, &mut got));
            assert_eq!(bits(&km.fit(pts)), bits(&km.fit_restarts(pts, false)));
        }
    }
}
