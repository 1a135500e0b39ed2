//! Sia-Philly trace regeneration (Section IV-B1).
//!
//! Published characteristics we reproduce: "Sia derives eight traces of 160
//! jobs each, submitted over an 8 hour window at a job arrival rate of 20
//! jobs/hr … 40% of Sia trace jobs are single-GPU jobs, and the largest
//! multi-GPU jobs request up to 48 GPUs", evaluated on a 16-node × 4-GPU
//! cluster. The eight workload variants are eight seeds of the same
//! generator; like the originals, some variants happen to front-load large
//! jobs (the paper's workload 5) and some delay them (workload 3), which
//! drives the spread of policy benefits in Figure 11.

use crate::generator::{poisson_jobs, DurationLaw};
use crate::job::Trace;
use crate::models::ModelCatalog;

/// Configuration for the Sia-Philly generator.
#[derive(Debug, Clone)]
pub struct SiaPhillyConfig {
    /// Jobs per trace (paper: 160).
    pub num_jobs: usize,
    /// Arrival rate, jobs per hour (paper: 20).
    pub arrival_rate_per_hour: f64,
    /// Fraction of single-GPU jobs (paper: 0.4).
    pub single_gpu_fraction: f64,
    /// Median ideal job duration, seconds (Philly-like: ~25 minutes).
    pub median_duration_s: f64,
    /// Log-normal sigma of durations (heavy tail).
    pub duration_sigma: f64,
    /// Cap on ideal duration, seconds (Philly jobs are bounded by cluster
    /// policy; the cap keeps a single lognormal straggler from dominating
    /// makespan).
    pub max_duration_s: f64,
}

impl Default for SiaPhillyConfig {
    fn default() -> Self {
        SiaPhillyConfig {
            num_jobs: 160,
            arrival_rate_per_hour: 20.0,
            single_gpu_fraction: 0.40,
            median_duration_s: 1500.0,
            duration_sigma: 1.25,
            max_duration_s: 86_400.0,
        }
    }
}

/// Multi-GPU demand distribution (given the job is multi-GPU): Philly-like
/// power-of-two dominated, capped at 48 ("the largest multi-GPU jobs
/// request up to 48 GPUs").
const MULTI_GPU_DEMANDS: &[(usize, f64)] = &[
    (2, 0.34),
    (4, 0.30),
    (8, 0.18),
    (16, 0.09),
    (24, 0.04),
    (32, 0.03),
    (48, 0.02),
];

impl SiaPhillyConfig {
    /// Generate Sia-Philly workload variant `workload_id` (the paper
    /// numbers them 1–8). Deterministic per `(config, workload_id)`.
    pub fn generate(&self, workload_id: u32, catalog: &ModelCatalog) -> Trace {
        assert!(
            (1..=8).contains(&workload_id),
            "Sia defines workloads 1..=8, got {workload_id}"
        );
        self.generate_seeded(workload_id, 0x51A_0000 + workload_id as u64, catalog)
    }

    /// Generate with an explicit seed (for ablations beyond the eight paper
    /// variants).
    pub fn generate_seeded(&self, workload_id: u32, seed: u64, catalog: &ModelCatalog) -> Trace {
        let jobs = poisson_jobs(
            catalog,
            seed,
            self.num_jobs,
            self.arrival_rate_per_hour,
            self.single_gpu_fraction,
            MULTI_GPU_DEMANDS,
            DurationLaw::LogNormal {
                median_s: self.median_duration_s,
                sigma: self.duration_sigma,
                max_s: self.max_duration_s,
            },
        );
        Trace::from_sorted_stream(format!("sia-philly-{workload_id}"), jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pal_gpumodel::GpuSpec;

    fn catalog() -> ModelCatalog {
        ModelCatalog::table2(&GpuSpec::v100())
    }

    /// The eight paper variants.
    fn all_variants(c: &ModelCatalog) -> Vec<Trace> {
        (1..=8)
            .map(|w| SiaPhillyConfig::default().generate(w, c))
            .collect()
    }

    #[test]
    fn has_160_jobs() {
        let t = SiaPhillyConfig::default().generate(1, &catalog());
        assert_eq!(t.len(), 160);
    }

    #[test]
    fn single_gpu_fraction_near_forty_percent() {
        // Aggregate over the eight variants to smooth sampling noise.
        let traces = all_variants(&catalog());
        let total: usize = traces.iter().map(|t| t.len()).sum();
        let singles: usize = traces
            .iter()
            .map(|t| t.jobs.iter().filter(|j| j.gpu_demand == 1).count())
            .sum();
        let frac = singles as f64 / total as f64;
        assert!((frac - 0.40).abs() < 0.06, "single-GPU fraction {frac}");
    }

    #[test]
    fn max_demand_capped_at_48() {
        let c = catalog();
        for t in all_variants(&c) {
            assert!(t.max_gpu_demand() <= 48);
        }
        // And across all eight variants, someone actually asks for >16 GPUs.
        let any_large = all_variants(&c).iter().any(|t| t.max_gpu_demand() >= 24);
        assert!(any_large);
    }

    #[test]
    fn arrivals_span_about_eight_hours() {
        let t = SiaPhillyConfig::default().generate(2, &catalog());
        let last = t.jobs.last().unwrap().arrival;
        // 160 jobs at 20/hr: expectation 8h; allow wide Poisson slack.
        assert!(
            (5.0 * 3600.0..12.0 * 3600.0).contains(&last),
            "last arrival {last}"
        );
    }

    #[test]
    fn deterministic_per_variant() {
        let c = catalog();
        let a = SiaPhillyConfig::default().generate(3, &c);
        let b = SiaPhillyConfig::default().generate(3, &c);
        assert_eq!(a, b);
    }

    #[test]
    fn variants_differ() {
        let c = catalog();
        let a = SiaPhillyConfig::default().generate(1, &c);
        let b = SiaPhillyConfig::default().generate(2, &c);
        assert_ne!(a, b);
    }

    #[test]
    fn durations_are_heavy_tailed() {
        let t = SiaPhillyConfig::default().generate(4, &catalog());
        let runtimes: Vec<f64> = t.jobs.iter().map(|j| j.ideal_runtime()).collect();
        let mean = pal_stats::mean(&runtimes).unwrap();
        let med = pal_stats::median(&runtimes).unwrap();
        assert!(
            mean > med,
            "heavy tail: mean {mean} should exceed median {med}"
        );
    }

    #[test]
    #[should_panic(expected = "workloads 1..=8")]
    fn workload_zero_rejected() {
        SiaPhillyConfig::default().generate(0, &catalog());
    }

    #[test]
    fn all_classes_present() {
        let t = SiaPhillyConfig::default().generate(5, &catalog());
        let classes: std::collections::HashSet<usize> = t.jobs.iter().map(|j| j.class.0).collect();
        assert!(classes.len() >= 2, "trace should mix classes");
    }
}
