//! Heavy-tail trace family: Pareto-distributed job durations.
//!
//! The Philly and Synergy regenerations draw durations from a log-normal;
//! production cluster studies (Philly itself, Alibaba's GPU traces)
//! consistently report heavier-than-lognormal tails — a small fraction of
//! multi-day jobs carrying most of the GPU-hours. This family makes that
//! regime available to sweeps: durations follow a bounded Pareto
//! (`P(D > d) ∝ d^{-α}`), so lowering `alpha` below ~1.5 shifts the bulk
//! of total service into the tail and stresses schedulers that starve
//! long jobs (LAS demotion, SRTF) in ways the log-normal families don't.
//!
//! It draws from the Synergy job source with a Pareto duration law: Poisson
//! arrivals at a configurable rate, a single-GPU majority with Philly's
//! multi-GPU demands, and a streaming generator
//! ([`HeavyTailConfig::stream`]) whose collected output is bit-identical
//! to [`HeavyTailConfig::generate`].

use crate::generator::{poisson_jobs, DurationLaw, PHILLY_MULTI_GPU_DEMANDS};
use crate::job::{JobSpec, Trace};
use crate::models::ModelCatalog;

/// Configuration for the heavy-tail (bounded-Pareto) generator.
#[derive(Debug, Clone, PartialEq)]
pub struct HeavyTailConfig {
    /// Total jobs to generate.
    pub num_jobs: usize,
    /// Poisson arrival rate, jobs per hour.
    pub jobs_per_hour: f64,
    /// Pareto tail index. Smaller is heavier; `α ≤ 1` puts almost all
    /// service in the tail (infinite mean before the cap).
    pub alpha: f64,
    /// Minimum ideal duration, seconds (the Pareto scale parameter).
    pub min_duration_s: f64,
    /// Cap on ideal duration, seconds (bounds the tail as cluster
    /// policies do in practice).
    pub max_duration_s: f64,
    /// Fraction of single-GPU jobs.
    pub single_gpu_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HeavyTailConfig {
    fn default() -> Self {
        HeavyTailConfig {
            num_jobs: 600,
            jobs_per_hour: 10.0,
            alpha: 1.2,
            min_duration_s: 300.0,
            max_duration_s: 259_200.0,
            single_gpu_fraction: 0.7,
            seed: 0x7A11,
        }
    }
}

impl HeavyTailConfig {
    /// Stream jobs one at a time in arrival order without materializing
    /// the trace (the contract of
    /// [`SynergyConfig::stream`](crate::SynergyConfig::stream):
    /// [`generate`](HeavyTailConfig::generate) collects this exact
    /// stream, sample for sample).
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
            DurationLaw::Pareto {
                alpha: self.alpha,
                min_s: self.min_duration_s,
                max_s: self.max_duration_s,
            },
        );
        assert!(self.jobs_per_hour > 0.0, "non-positive arrival rate");
        assert!(self.alpha > 0.0, "non-positive Pareto alpha");
        assert!(
            self.min_duration_s > 0.0 && self.max_duration_s >= self.min_duration_s,
            "invalid duration bounds"
        );
        jobs
    }

    /// Generate the full trace at this config's arrival rate.
    pub fn generate(&self, catalog: &ModelCatalog) -> Trace {
        Trace::from_sorted_stream(
            format!("heavy-tail-{:.0}jph", self.jobs_per_hour),
            self.stream(catalog),
        )
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
    fn job_count_name_and_determinism() {
        let cfg = HeavyTailConfig::default();
        let t = cfg.generate(&catalog());
        assert_eq!(t.len(), 600);
        assert_eq!(t.name, "heavy-tail-10jph");
        assert_eq!(t, cfg.generate(&catalog()));
    }

    #[test]
    fn stream_is_bit_identical_to_generate() {
        let c = catalog();
        let cfg = HeavyTailConfig::default();
        let generated = cfg.generate(&c);
        let streamed: Vec<_> = cfg.stream(&c).collect();
        assert_eq!(generated.jobs, streamed);
        assert_eq!(cfg.stream(&c).len(), cfg.num_jobs);
    }

    #[test]
    fn durations_respect_bounds() {
        let cfg = HeavyTailConfig::default();
        for j in cfg.stream(&catalog()) {
            let d = j.ideal_runtime();
            // Iteration rounding can push slightly past the exact bounds.
            assert!(d >= cfg.min_duration_s * 0.9, "duration {d}");
            assert!(d <= cfg.max_duration_s * 1.1, "duration {d}");
        }
    }

    #[test]
    fn tail_is_heavier_than_the_bulk() {
        // The defining property: the top decile of jobs carries the
        // majority of total ideal service.
        let t = HeavyTailConfig::default().generate(&catalog());
        let mut service: Vec<f64> = t.jobs.iter().map(|j| j.ideal_gpu_service()).collect();
        service.sort_by(|a, b| a.partial_cmp(b).expect("finite service"));
        let total: f64 = service.iter().sum();
        let top_decile: f64 = service[service.len() * 9 / 10..].iter().sum();
        assert!(
            top_decile > 0.5 * total,
            "top decile carries {:.2} of service",
            top_decile / total
        );
    }

    #[test]
    fn arrival_rate_matches_load() {
        let cfg = HeavyTailConfig {
            num_jobs: 2000,
            jobs_per_hour: 8.0,
            ..Default::default()
        };
        let t = cfg.generate(&catalog());
        let span_hours = t.jobs.last().expect("jobs").arrival / 3600.0;
        let rate = 2000.0 / span_hours;
        assert!((rate - 8.0).abs() < 0.5, "observed rate {rate}");
    }
}
