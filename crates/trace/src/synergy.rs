//! Synergy trace regeneration (Section IV-B1).
//!
//! Published characteristics we reproduce: "Synergy workloads preserve the
//! Philly trace's GPU demand and use a Poisson distribution of arrival
//! times to vary job arrival rate. Synergy traces have a higher proportion
//! of single-GPU jobs (>80%) than Sia-Philly traces", evaluated on a
//! 64-node × 4-GPU (256-GPU) cluster at loads from 4 to 20 jobs/hour. The
//! paper reports steady-state metrics over a job-id window; the generator
//! produces enough jobs for a warm-up + measurement window.

use crate::generator::{poisson_jobs, DurationLaw, PHILLY_MULTI_GPU_DEMANDS};
use crate::job::{JobSpec, Trace};
use crate::models::ModelCatalog;

/// Configuration for the Synergy generator.
#[derive(Debug, Clone)]
pub struct SynergyConfig {
    /// Total jobs to generate.
    pub num_jobs: usize,
    /// Poisson arrival rate, jobs per hour (the x-axis of Figures 14/16/17).
    pub jobs_per_hour: f64,
    /// Fraction of single-GPU jobs (paper: >0.8).
    pub single_gpu_fraction: f64,
    /// Median ideal duration, seconds. Calibrated so the 256-GPU cluster
    /// saturates between 10 and 14 jobs/hour, as in Figures 14–15 (the
    /// trace is mostly single-GPU jobs, so saturation requires multi-hour
    /// durations).
    pub median_duration_s: f64,
    /// Log-normal sigma of durations.
    pub duration_sigma: f64,
    /// Cap on ideal duration, seconds.
    pub max_duration_s: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SynergyConfig {
    fn default() -> Self {
        SynergyConfig {
            num_jobs: 600,
            jobs_per_hour: 10.0,
            single_gpu_fraction: 0.82,
            median_duration_s: 14400.0,
            duration_sigma: 1.3,
            max_duration_s: 172_800.0,
            seed: 0x5E4E26,
        }
    }
}

impl SynergyConfig {
    /// Stream Synergy jobs one at a time, in arrival order, without
    /// materializing the trace: each `next()` draws one job's samples
    /// from the seeded RNG and returns it, so the generator's peak
    /// scratch is O(1) per job however long the trace.
    /// [`generate`](SynergyConfig::generate) collects this same stream, so
    /// a streamed trace is bit-identical to a generated one.
    pub fn stream<'a>(
        &self,
        catalog: &'a ModelCatalog,
    ) -> impl ExactSizeIterator<Item = JobSpec> + 'a {
        let jobs = poisson_jobs(
            catalog,
            self.seed,
            self.num_jobs,
            self.jobs_per_hour,
            self.single_gpu_fraction,
            PHILLY_MULTI_GPU_DEMANDS,
            DurationLaw::LogNormal {
                median_s: self.median_duration_s,
                sigma: self.duration_sigma,
                max_s: self.max_duration_s,
            },
        );
        assert!(self.jobs_per_hour > 0.0, "non-positive arrival rate");
        jobs
    }

    /// Generate a Synergy trace at this config's arrival rate.
    pub fn generate(&self, catalog: &ModelCatalog) -> Trace {
        Trace::from_sorted_stream(
            format!("synergy-{:.0}jph", self.jobs_per_hour),
            self.stream(catalog),
        )
    }

    /// Same trace shape at a different arrival rate (the load sweeps keep
    /// the job population but compress/stretch arrivals — matching how the
    /// paper varies load while preserving Philly GPU demands).
    pub fn at_load(&self, jobs_per_hour: f64) -> Self {
        SynergyConfig {
            jobs_per_hour,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pal_gpumodel::GpuSpec;

    fn catalog() -> ModelCatalog {
        ModelCatalog::table2(&GpuSpec::v100())
    }

    #[test]
    fn job_count_and_name() {
        let t = SynergyConfig::default().generate(&catalog());
        assert_eq!(t.len(), 600);
        assert_eq!(t.name, "synergy-10jph");
    }

    #[test]
    fn over_eighty_percent_single_gpu() {
        let t = SynergyConfig::default().generate(&catalog());
        assert!(
            t.single_gpu_fraction() > 0.75,
            "single fraction {}",
            t.single_gpu_fraction()
        );
    }

    #[test]
    fn arrival_rate_matches_load() {
        let cfg = SynergyConfig {
            num_jobs: 2000,
            jobs_per_hour: 8.0,
            ..Default::default()
        };
        let t = cfg.generate(&catalog());
        let span_hours = t.jobs.last().unwrap().arrival / 3600.0;
        let rate = 2000.0 / span_hours;
        assert!((rate - 8.0).abs() < 0.5, "observed rate {rate}");
    }

    #[test]
    fn at_load_changes_only_rate() {
        let base = SynergyConfig::default();
        let fast = base.at_load(20.0);
        assert_eq!(fast.num_jobs, base.num_jobs);
        assert_eq!(fast.seed, base.seed);
        assert_eq!(fast.jobs_per_hour, 20.0);
        // Same seed, higher rate: same demands, compressed arrivals.
        let t_base = base.generate(&catalog());
        let t_fast = fast.generate(&catalog());
        assert!(t_fast.jobs.last().unwrap().arrival < t_base.jobs.last().unwrap().arrival);
        let d_base: Vec<usize> = t_base.jobs.iter().map(|j| j.gpu_demand).collect();
        let d_fast: Vec<usize> = t_fast.jobs.iter().map(|j| j.gpu_demand).collect();
        assert_eq!(d_base, d_fast);
    }

    #[test]
    fn stream_is_bit_identical_to_generate() {
        let c = catalog();
        let cfg = SynergyConfig::default();
        let generated = cfg.generate(&c);
        let streamed: Vec<_> = cfg.stream(&c).collect();
        assert_eq!(generated.jobs, streamed);
        let hint = cfg.stream(&c);
        assert_eq!(hint.len(), cfg.num_jobs);
    }

    #[test]
    fn stream_arrivals_are_sorted() {
        let c = catalog();
        let mut last = 0.0;
        for j in SynergyConfig::default().stream(&c) {
            assert!(j.arrival >= last);
            last = j.arrival;
        }
    }

    #[test]
    fn deterministic() {
        let c = catalog();
        assert_eq!(
            SynergyConfig::default().generate(&c),
            SynergyConfig::default().generate(&c)
        );
    }

    #[test]
    fn demands_bounded_by_philly_cap() {
        let t = SynergyConfig::default().generate(&catalog());
        assert!(t.max_gpu_demand() <= 32);
    }

    #[test]
    fn multi_gpu_jobs_exist() {
        let t = SynergyConfig::default().generate(&catalog());
        assert!(t.jobs.iter().any(|j| j.gpu_demand > 1));
    }
}
