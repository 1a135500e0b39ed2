//! Silhouette analysis (Rousseeuw 1987): the 1-D kernel PM-score binning
//! runs, [`min_cluster_silhouette_1d`], and its O(n²) reference oracle.

use crate::kmeans::sq_dist;

/// Per-sample silhouette coefficients `s(i) = (b(i) - a(i)) / max(a, b)`.
///
/// `a(i)` is the mean distance to other points in the same cluster and
/// `b(i)` the smallest mean distance to points of any other cluster.
/// Singleton clusters get `s(i) = 0` by convention (scikit-learn's choice).
///
/// O(n²): the reference oracle for [`min_cluster_silhouette_1d`].
///
/// Panics if lengths mismatch or fewer than 2 clusters are present.
pub fn silhouette_samples<const D: usize>(points: &[[f64; D]], assignments: &[usize]) -> Vec<f64> {
    let (k, cluster_sizes) = cluster_sizes(points.len(), assignments);
    let n = points.len();
    let mut dist_sums = vec![0.0f64; k];
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let ci = assignments[i];
        if cluster_sizes[ci] <= 1 {
            out.push(0.0);
            continue;
        }
        // Summed distance from i to every cluster.
        dist_sums.fill(0.0);
        for j in 0..n {
            if i == j {
                continue;
            }
            dist_sums[assignments[j]] += sq_dist(&points[i], &points[j]).sqrt();
        }
        out.push(coefficient(ci, &cluster_sizes, |c| dist_sums[c]));
    }
    out
}

/// The smallest per-cluster mean silhouette.
///
/// The paper wants scores "as close to +1 as possible **for all bins**", so
/// we score a K by its worst bin, not its average.
///
/// O(n²): the reference oracle for [`min_cluster_silhouette_1d`].
pub fn min_cluster_silhouette<const D: usize>(points: &[[f64; D]], assignments: &[usize]) -> f64 {
    worst_bin_mean(assignments, &silhouette_samples(points, assignments))
}

/// [`min_cluster_silhouette`] for 1-D points in O(n·K·log n): the kernel
/// PM-score binning runs.
///
/// Silhouette analysis (Rousseeuw 1987) is the paper's criterion for
/// choosing the number of PM-score bins K: "We select the K value that
/// gives silhouette scores as close to +1 as possible for all bins so
/// that we get distinct and relatively well-separated bins" (Section
/// III-B).
///
/// There are two implementations of one definition. This one is exact
/// for 1-D points: each bin's members are sorted once with prefix sums,
/// so a point's summed distance to a bin is one binary search plus two
/// prefix-sum lookups. [`silhouette_samples`] and
/// [`min_cluster_silhouette`] compute every pairwise distance, O(n²) for
/// any dimension; they are the reference oracle this kernel is tested
/// against. The two differ only by floating-point rounding: at most
/// 1.2e-15 over every candidate K of 132 Longhorn class profiles
/// (16–2,500 GPUs), far inside the 1e-12 margin binning uses to compare
/// two K.
///
/// Each bin's members are sorted once and shifted by the bin's minimum
/// (which keeps prefix sums small and limits cancellation); the summed
/// distance from `x` to a bin of sorted values `u` is then
/// `t·q − P[t] + (P[m] − P[t]) − (m − t)·q`, where `q` is `x` shifted
/// the same way, `t` the number of members ≤ `q` and `P` the prefix sums.
///
/// Panics if lengths mismatch or fewer than 2 clusters are present.
pub fn min_cluster_silhouette_1d(values: &[f64], assignments: &[usize]) -> f64 {
    worst_bin_mean(assignments, &silhouette_samples_1d(values, assignments))
}

/// Per-sample coefficients of [`min_cluster_silhouette_1d`].
fn silhouette_samples_1d(values: &[f64], assignments: &[usize]) -> Vec<f64> {
    let (k, cluster_sizes) = cluster_sizes(values.len(), assignments);
    // Bin c's sorted members are `shifted[start[c]..start[c + 1]]`, its
    // prefix sums `prefix[start[c] + c..=start[c + 1] + c]`.
    let mut start = vec![0usize; k + 1];
    for c in 0..k {
        start[c + 1] = start[c] + cluster_sizes[c];
    }
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_unstable_by(|&i, &j| {
        assignments[i]
            .cmp(&assignments[j])
            .then(values[i].total_cmp(&values[j]))
    });
    let mut bin_min = Vec::with_capacity(k);
    let mut shifted = Vec::with_capacity(values.len());
    let mut prefix = Vec::with_capacity(values.len() + k);
    for c in 0..k {
        let members = &order[start[c]..start[c + 1]];
        let lo = members.first().map_or(0.0, |&i| values[i]);
        bin_min.push(lo);
        let mut acc = 0.0;
        prefix.push(acc);
        for &i in members {
            let u = values[i] - lo;
            shifted.push(u);
            acc += u;
            prefix.push(acc);
        }
    }
    let dist_sum = |x: f64, c: usize| {
        let u = &shifted[start[c]..start[c + 1]];
        let p = &prefix[start[c] + c..=start[c + 1] + c];
        let q = x - bin_min[c];
        let m = u.len();
        let t = u.partition_point(|&v| v <= q);
        let below = t as f64 * q - p[t];
        let above = (p[m] - p[t]) - (m - t) as f64 * q;
        (below + above).max(0.0)
    };
    values
        .iter()
        .zip(assignments)
        .map(|(&x, &ci)| {
            if cluster_sizes[ci] <= 1 {
                0.0
            } else {
                coefficient(ci, &cluster_sizes, |c| dist_sum(x, c))
            }
        })
        .collect()
}

/// Cluster count `K` (largest id + 1) and the size of every cluster id.
fn cluster_sizes(n: usize, assignments: &[usize]) -> (usize, Vec<usize>) {
    assert_eq!(n, assignments.len(), "length mismatch");
    let k = assignments.iter().copied().max().map_or(0, |m| m + 1);
    assert!(k >= 2, "silhouette needs at least 2 clusters");
    let mut sizes = vec![0usize; k];
    for &a in assignments {
        sizes[a] += 1;
    }
    (k, sizes)
}

/// `s(i)` for a point of cluster `ci` (of size ≥ 2), given its summed
/// distance to the members of each cluster.
fn coefficient(ci: usize, cluster_sizes: &[usize], dist_sum: impl Fn(usize) -> f64) -> f64 {
    let a = dist_sum(ci) / (cluster_sizes[ci] - 1) as f64;
    let b = (0..cluster_sizes.len())
        .filter(|&c| c != ci && cluster_sizes[c] > 0)
        .map(|c| dist_sum(c) / cluster_sizes[c] as f64)
        .fold(f64::INFINITY, f64::min);
    let denom = a.max(b);
    if denom == 0.0 {
        0.0
    } else {
        (b - a) / denom
    }
}

/// The smallest per-cluster mean of `samples`, summed in index order.
fn worst_bin_mean(assignments: &[usize], samples: &[f64]) -> f64 {
    let k = assignments.iter().copied().max().map_or(0, |m| m + 1);
    let mut sums = vec![0.0f64; k];
    let mut counts = vec![0usize; k];
    for (&a, &si) in assignments.iter().zip(samples) {
        sums[a] += si;
        counts[a] += 1;
    }
    (0..k)
        .filter(|&c| counts[c] > 0)
        .map(|c| sums[c] / counts[c] as f64)
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(center: f64, n: usize) -> Vec<[f64; 1]> {
        (0..n).map(|i| [center + i as f64 * 0.01]).collect()
    }

    fn mean(samples: &[f64]) -> f64 {
        samples.iter().sum::<f64>() / samples.len() as f64
    }

    #[test]
    fn well_separated_clusters_score_high() {
        let mut pts = blob(0.0, 10);
        pts.extend(blob(100.0, 10));
        let assignments: Vec<usize> = (0..20).map(|i| if i < 10 { 0 } else { 1 }).collect();
        let m = mean(&silhouette_samples(&pts, &assignments));
        assert!(m > 0.99, "expected near-1 silhouette, got {m}");
    }

    #[test]
    fn wrong_assignment_scores_negative() {
        // Two tight blobs but swap one point's label: it should be negative.
        let mut pts = blob(0.0, 5);
        pts.extend(blob(100.0, 5));
        let mut assignments: Vec<usize> = (0..10).map(|i| if i < 5 { 0 } else { 1 }).collect();
        assignments[0] = 1; // point at 0.0 labeled with the far cluster
        let s = silhouette_samples(&pts, &assignments);
        assert!(
            s[0] < 0.0,
            "mislabeled point should be negative, got {}",
            s[0]
        );
    }

    #[test]
    fn singleton_cluster_is_zero() {
        let pts = [[0.0], [10.0], [10.1]];
        let assignments = vec![0, 1, 1];
        let s = silhouette_samples(&pts, &assignments);
        assert_eq!(s[0], 0.0);
    }

    #[test]
    fn min_cluster_below_mean_for_unbalanced_quality() {
        // Cluster 0 tight, cluster 1 loose and near cluster 0.
        let mut pts = blob(0.0, 8);
        pts.extend([[1.0], [5.0], [9.0], [2.0]]);
        let assignments: Vec<usize> = (0..8).map(|_| 0).chain((0..4).map(|_| 1)).collect();
        let mean = mean(&silhouette_samples(&pts, &assignments));
        let min = min_cluster_silhouette(&pts, &assignments);
        assert!(min <= mean + 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least 2 clusters")]
    fn single_cluster_panics() {
        silhouette_samples(&[[1.0], [2.0]], &[0, 0]);
    }

    #[test]
    fn values_in_range() {
        let pts: Vec<[f64; 2]> = (0..30)
            .map(|i| [(i * 7 % 13) as f64, (i % 5) as f64])
            .collect();
        let assignments: Vec<usize> = (0..30).map(|i| i % 3).collect();
        for s in silhouette_samples(&pts, &assignments) {
            assert!((-1.0..=1.0).contains(&s), "silhouette {s} out of range");
        }
    }

    #[test]
    fn samples_1d_match_oracle() {
        // Duplicates, a singleton bin (2), an unused id (3) and bins whose
        // ranges interleave.
        let values = [1.0, 1.0, 1.2, 0.9, 1.0, 3.0, 1.1, 1.2, 0.95, 1.0];
        let assignments = [0, 0, 1, 0, 1, 2, 4, 1, 4, 4];
        let points: Vec<[f64; 1]> = values.iter().map(|&v| [v]).collect();
        let fast = silhouette_samples_1d(&values, &assignments);
        let oracle = silhouette_samples(&points, &assignments);
        for (f, o) in fast.iter().zip(&oracle) {
            assert!((f - o).abs() < 1e-12, "1-D {f} vs oracle {o}");
        }
        assert_eq!(fast[5], 0.0, "singleton bin scores 0");
    }
}
