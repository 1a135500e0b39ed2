//! The application classification layer (Section III-A, Figure 3).
//!
//! Applications are points in the 2-D `(DRAMUtil, PeakFUUtil)` space (both
//! in nsight-compute's `[0, 10]` scale). K-Means groups them into K
//! classes, which are then *ordered by variability sensitivity*: compute
//! intensity — high peak-FU, low DRAM utilization — correlates with
//! PM-induced variability, so the class with the most compute-intensive
//! centroid becomes class A.

use pal_cluster::JobClass;
use pal_gpumodel::{utilization_features, GpuSpec, Workload};
use pal_kmeans::KMeans;
use serde::{Deserialize, Serialize};

/// Weight applied to the peak-FU axis before clustering. Variability
/// sensitivity is driven by compute intensity (the PM algorithms throttle
/// core clocks, not memory clocks), so the FU dimension must dominate the
/// grouping: without it, a high-DRAM memory-bound app like PageRank would
/// be pulled toward the mid-FU language models rather than its fellow
/// memory-bound (low-FU) apps — contradicting Figure 3's circles.
const FU_AXIS_WEIGHT: f64 = 2.5;

/// A fitted application classifier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppClassifier {
    /// Class centroids in `(dram_util, peak_fu_util)`, indexed by class
    /// (0 = A).
    centroids: Vec<(f64, f64)>,
    /// Class assigned to each training sample.
    assignments: Vec<JobClass>,
}

impl AppClassifier {
    /// Fit a K-class classifier on `(dram_util, peak_fu_util)` feature
    /// pairs. Panics if `k` is zero or exceeds the sample count.
    pub fn fit(features: &[(f64, f64)], k: usize, seed: u64) -> Self {
        assert!(k >= 1, "need at least one class");
        let points: Vec<[f64; 2]> = features
            .iter()
            .map(|&(d, f)| [d, f * FU_AXIS_WEIGHT])
            .collect();
        let result = KMeans::new(k, seed).fit(&points);

        // Order clusters by descending compute intensity. Peak-FU
        // utilization dominates the ordering (Figure 3's x-axis); DRAM
        // utilization breaks ties downward (more memory-bound = less
        // sensitive).
        let mut order: Vec<usize> = (0..k).collect();
        order.sort_by(|&a, &b| {
            let key =
                |c: usize| result.centroids[c][1] / FU_AXIS_WEIGHT - 0.25 * result.centroids[c][0];
            key(b).partial_cmp(&key(a)).expect("NaN centroid")
        });
        // Note: centroids come back with the FU axis still weighted; undo
        // the scaling when storing them.
        // rank[old_cluster] = class index
        let mut rank = vec![0usize; k];
        for (class, &cluster) in order.iter().enumerate() {
            rank[cluster] = class;
        }

        let centroids = order
            .iter()
            .map(|&c| {
                (
                    result.centroids[c][0],
                    result.centroids[c][1] / FU_AXIS_WEIGHT,
                )
            })
            .collect();
        let assignments = result
            .assignments
            .iter()
            .map(|&a| JobClass(rank[a]))
            .collect();
        AppClassifier {
            centroids,
            assignments,
        }
    }

    /// Fit on the zoo's utilization features measured on `spec` — the
    /// Figure 3 pipeline (profile each app with nsight-compute, cluster).
    pub fn fit_workloads(workloads: &[Workload], spec: &GpuSpec, k: usize, seed: u64) -> Self {
        let features: Vec<(f64, f64)> = workloads
            .iter()
            .map(|w| utilization_features(&w.spec(), spec))
            .collect();
        AppClassifier::fit(&features, k, seed)
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.centroids.len()
    }

    /// Class of the `i`-th training sample.
    pub fn class_of_sample(&self, i: usize) -> JobClass {
        self.assignments[i]
    }

    /// Classify a new application from its utilization features: nearest
    /// centroid ("for a new application … we profile the application and
    /// assign it to the cluster it is closest to in the 2D space").
    pub fn classify(&self, dram_util: f64, peak_fu_util: f64) -> JobClass {
        let mut best = (0usize, f64::INFINITY);
        for (c, &(cd, cf)) in self.centroids.iter().enumerate() {
            let d = (cd - dram_util).powi(2) + (FU_AXIS_WEIGHT * (cf - peak_fu_util)).powi(2);
            if d < best.1 {
                best = (c, d);
            }
        }
        JobClass(best.0)
    }

    /// Centroids in class order (A first), as `(dram_util, peak_fu_util)`.
    pub fn centroids(&self) -> &[(f64, f64)] {
        &self.centroids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zoo_classifier() -> (AppClassifier, Vec<Workload>) {
        let workloads: Vec<Workload> = Workload::ALL.to_vec();
        let c = AppClassifier::fit_workloads(&workloads, &GpuSpec::v100(), 3, 0xC1A55);
        (c, workloads)
    }

    #[test]
    fn recovers_paper_class_assignments() {
        // The classifier must reproduce Table II / Figure 3's grouping for
        // the zoo: ResNet/VGG/DCGAN/sgemm in A, BERT/GPT2 in B,
        // PageRank/PointNet/LAMMPS in C.
        let (c, workloads) = zoo_classifier();
        for (i, w) in workloads.iter().enumerate() {
            let expected = JobClass(w.spec().expected_class);
            assert_eq!(c.class_of_sample(i), expected, "{} misclassified", w.name());
        }
    }

    #[test]
    fn class_a_centroid_most_compute_intense() {
        let (c, _) = zoo_classifier();
        let fu: Vec<f64> = c.centroids().iter().map(|&(_, f)| f).collect();
        assert!(
            fu[0] > fu[1] && fu[1] > fu[2],
            "FU centroids not ordered: {fu:?}"
        );
    }

    #[test]
    fn classify_new_app_by_nearest_centroid() {
        let (c, _) = zoo_classifier();
        // A hypothetical new GEMM-heavy model: high FU, low DRAM -> class A.
        assert_eq!(c.classify(2.0, 9.0), JobClass::A);
        // A graph workload: high DRAM, low FU -> class C.
        assert_eq!(c.classify(7.0, 1.0), JobClass::C);
    }

    #[test]
    fn deterministic() {
        let (a, _) = zoo_classifier();
        let (b, _) = zoo_classifier();
        assert_eq!(a, b);
    }

    #[test]
    fn k1_everything_same_class() {
        let feats = vec![(1.0, 9.0), (6.0, 1.0), (3.0, 5.0)];
        let c = AppClassifier::fit(&feats, 1, 1);
        for i in 0..3 {
            assert_eq!(c.class_of_sample(i), JobClass::A);
        }
    }

    #[test]
    fn k_equals_n_each_app_its_own_class() {
        let feats = vec![(1.0, 9.0), (6.0, 1.0), (3.0, 5.0)];
        let c = AppClassifier::fit(&feats, 3, 1);
        let classes: std::collections::HashSet<usize> =
            (0..3).map(|i| c.class_of_sample(i).0).collect();
        assert_eq!(classes.len(), 3);
    }

    #[test]
    fn five_class_sweep_still_orders_by_fu() {
        let workloads: Vec<Workload> = Workload::ALL.to_vec();
        let c = AppClassifier::fit_workloads(&workloads, &GpuSpec::v100(), 5, 42);
        let fu: Vec<f64> = c.centroids().iter().map(|&(_, f)| f).collect();
        let intensity: Vec<f64> = c.centroids().iter().map(|&(d, f)| f - 0.25 * d).collect();
        for w in intensity.windows(2) {
            assert!(w[0] >= w[1] - 1e-9, "intensity not sorted: {fu:?}");
        }
    }
}
