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
//! Mirrors [`SynergyConfig`](crate::SynergyConfig)'s shape: Poisson
//! arrivals at a configurable rate, a single-GPU majority with
//! Philly-like multi-GPU demands, a streaming generator
//! ([`HeavyTailConfig::stream`]) whose collected output is bit-identical
//! to [`HeavyTailConfig::generate`].

use crate::generator::{exponential, weighted_choice};
use crate::job::{JobId, JobSpec, Trace};
use crate::models::ModelCatalog;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Philly-like GPU-demand distribution for the multi-GPU minority.
const MULTI_GPU_DEMANDS: [(usize, f64); 5] =
    [(2, 0.40), (4, 0.32), (8, 0.18), (16, 0.07), (32, 0.03)];

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
        assert!(!catalog.is_empty(), "empty model catalog");
        assert!(self.jobs_per_hour > 0.0, "non-positive arrival rate");
        assert!(self.alpha > 0.0, "non-positive Pareto alpha");
        assert!(
            self.min_duration_s > 0.0 && self.max_duration_s >= self.min_duration_s,
            "invalid duration bounds"
        );
        HeavyTailJobs {
            cfg: self.clone(),
            catalog,
            rng: StdRng::seed_from_u64(self.seed),
            model_weights: (0..catalog.len()).map(|i| (i, 1.0)).collect(),
            rate_per_s: self.jobs_per_hour / 3600.0,
            t: 0.0,
            produced: 0,
        }
    }

    /// Generate the full trace at this config's arrival rate.
    pub fn generate(&self, catalog: &ModelCatalog) -> Trace {
        Trace::from_sorted_stream(
            format!("heavy-tail-{:.0}jph", self.jobs_per_hour),
            self.stream(catalog),
        )
    }

    /// Same job population at a different arrival rate (the load knob, as
    /// in [`SynergyConfig::at_load`](crate::SynergyConfig::at_load)).
    pub fn at_load(&self, jobs_per_hour: f64) -> Self {
        HeavyTailConfig {
            jobs_per_hour,
            ..self.clone()
        }
    }
}

/// Streaming heavy-tail job source created by [`HeavyTailConfig::stream`].
#[derive(Debug)]
struct HeavyTailJobs<'a> {
    cfg: HeavyTailConfig,
    catalog: &'a ModelCatalog,
    rng: StdRng,
    model_weights: Vec<(usize, f64)>,
    rate_per_s: f64,
    t: f64,
    produced: usize,
}

impl Iterator for HeavyTailJobs<'_> {
    type Item = JobSpec;

    fn next(&mut self) -> Option<JobSpec> {
        if self.produced >= self.cfg.num_jobs {
            return None;
        }
        let i = self.produced;
        self.produced += 1;
        self.t += exponential(&mut self.rng, self.rate_per_s);
        let single = weighted_choice(
            &mut self.rng,
            &[
                (true, self.cfg.single_gpu_fraction),
                (false, 1.0 - self.cfg.single_gpu_fraction),
            ],
        );
        let gpu_demand = if single {
            1
        } else {
            weighted_choice(&mut self.rng, &MULTI_GPU_DEMANDS)
        };
        let entry = &self.catalog.entries()[weighted_choice(&mut self.rng, &self.model_weights)];
        // Bounded Pareto by inversion: D = x_min · U^{-1/α}, capped.
        let u: f64 = self.rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let duration =
            (self.cfg.min_duration_s * u.powf(-1.0 / self.cfg.alpha)).min(self.cfg.max_duration_s);
        let iterations = (duration / entry.base_iter_time).ceil().max(1.0) as u64;
        Some(JobSpec {
            id: JobId(i as u32),
            model: entry.model,
            class: entry.class,
            arrival: self.t,
            gpu_demand,
            iterations,
            base_iter_time: entry.base_iter_time,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.cfg.num_jobs - self.produced;
        (left, Some(left))
    }
}

impl ExactSizeIterator for HeavyTailJobs<'_> {}

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
    fn at_load_changes_only_rate() {
        let base = HeavyTailConfig::default();
        let fast = base.at_load(20.0);
        assert_eq!(fast.num_jobs, base.num_jobs);
        assert_eq!(fast.seed, base.seed);
        let d_base: Vec<usize> = base
            .generate(&catalog())
            .jobs
            .iter()
            .map(|j| j.gpu_demand)
            .collect();
        let d_fast: Vec<usize> = fast
            .generate(&catalog())
            .jobs
            .iter()
            .map(|j| j.gpu_demand)
            .collect();
        assert_eq!(d_base, d_fast);
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
