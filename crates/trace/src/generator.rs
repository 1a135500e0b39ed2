//! The one Poisson job source behind the Sia-Philly, Synergy and
//! heavy-tail families ([`poisson_jobs`]), and the sampling helpers it and
//! the serving streams draw from: exponential inter-arrival gaps,
//! log-normal durations, and weighted discrete choice. All deterministic
//! via `StdRng`.

use crate::job::{JobId, JobSpec};
use crate::models::ModelCatalog;
use rand::distributions::{Distribution, Exp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Philly's GPU demands for the multi-GPU minority, dominated by 2-, 4-
/// and 8-GPU requests (Synergy "preserves the Philly trace's GPU demand";
/// the heavy-tail family draws the same demands).
pub(crate) const PHILLY_MULTI_GPU_DEMANDS: &[(usize, f64)] =
    &[(2, 0.40), (4, 0.32), (8, 0.18), (16, 0.07), (32, 0.03)];

/// How [`poisson_jobs`] draws a job's ideal duration, in seconds.
pub(crate) enum DurationLaw {
    /// Log-normal around `median_s`, times `demand^0.25` (larger Philly
    /// jobs run somewhat longer), capped at `max_s`.
    LogNormal {
        median_s: f64,
        sigma: f64,
        max_s: f64,
    },
    /// Bounded Pareto by inversion, `min_s · U^{-1/alpha}`, capped at
    /// `max_s`.
    Pareto { alpha: f64, min_s: f64, max_s: f64 },
}

/// `num_jobs` training jobs with Poisson arrivals at `jobs_per_hour`,
/// seeded by `seed`, in arrival order with ids `0..num_jobs`. Each job
/// draws, in this order: its arrival gap, single- vs multi-GPU, a demand
/// from `multi_gpu_demands`, a uniformly chosen catalog model, and a
/// duration from `durations`. Draws happen as the iterator is pulled, so
/// streaming a trace holds one job at a time. Panics on an empty catalog.
pub(crate) fn poisson_jobs<'a>(
    catalog: &'a ModelCatalog,
    seed: u64,
    num_jobs: usize,
    jobs_per_hour: f64,
    single_gpu_fraction: f64,
    multi_gpu_demands: &'static [(usize, f64)],
    durations: DurationLaw,
) -> impl ExactSizeIterator<Item = JobSpec> + 'a {
    assert!(!catalog.is_empty(), "empty model catalog");
    let mut rng = StdRng::seed_from_u64(seed);
    let rate_per_s = jobs_per_hour / 3600.0;
    let single = [
        (true, single_gpu_fraction),
        (false, 1.0 - single_gpu_fraction),
    ];
    let models: Vec<(usize, f64)> = (0..catalog.len()).map(|i| (i, 1.0)).collect();
    let mut t = 0.0;
    (0..num_jobs).map(move |i| {
        t += exponential(&mut rng, rate_per_s);
        let gpu_demand = if weighted_choice(&mut rng, &single) {
            1
        } else {
            weighted_choice(&mut rng, multi_gpu_demands)
        };
        let entry = &catalog.entries()[weighted_choice(&mut rng, &models)];
        let duration = match durations {
            DurationLaw::LogNormal {
                median_s,
                sigma,
                max_s,
            } => (lognormal(&mut rng, median_s, sigma) * (gpu_demand as f64).powf(0.25)).min(max_s),
            DurationLaw::Pareto {
                alpha,
                min_s,
                max_s,
            } => {
                let u = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                (min_s * u.powf(-1.0 / alpha)).min(max_s)
            }
        };
        JobSpec {
            id: JobId(i as u32),
            model: entry.model,
            class: entry.class,
            arrival: t,
            gpu_demand,
            iterations: (duration / entry.base_iter_time).ceil().max(1.0) as u64,
            base_iter_time: entry.base_iter_time,
        }
    })
}

/// Sample an exponential random variable with the given rate (events per
/// unit time). Used for Poisson arrival processes. Delegates to the shim's
/// [`Exp`] distribution, which reproduces the exact stream this function
/// historically produced, so seeded traces are unchanged.
pub(crate) fn exponential(rng: &mut StdRng, rate: f64) -> f64 {
    assert!(rate > 0.0, "exponential rate must be positive");
    Exp::new(rate).sample(rng)
}

/// Sample a log-normal random variable with the given median and sigma (of
/// the underlying normal). Philly job durations are famously heavy-tailed;
/// log-normal matches the published duration CDFs well.
pub(crate) fn lognormal(rng: &mut StdRng, median: f64, sigma: f64) -> f64 {
    assert!(median > 0.0 && sigma >= 0.0, "bad lognormal parameters");
    let z = standard_normal(rng);
    median * (sigma * z).exp()
}

/// Standard normal via Box–Muller.
pub(crate) fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Weighted choice over `(item, weight)` pairs. Panics on empty input or
/// non-positive total weight.
pub(crate) fn weighted_choice<T: Copy>(rng: &mut StdRng, choices: &[(T, f64)]) -> T {
    assert!(!choices.is_empty(), "weighted choice over nothing");
    let total: f64 = choices.iter().map(|&(_, w)| w).sum();
    assert!(total > 0.0, "total weight must be positive");
    let mut target = rng.gen::<f64>() * total;
    for &(item, w) in choices {
        if target < w {
            return item;
        }
        target -= w;
    }
    choices[choices.len() - 1].0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn exponential_mean_close_to_inverse_rate() {
        let mut r = rng(1);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| exponential(&mut r, 2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn exponential_always_positive() {
        let mut r = rng(2);
        for _ in 0..1000 {
            assert!(exponential(&mut r, 0.1) > 0.0);
        }
    }

    #[test]
    fn lognormal_median_close() {
        let mut r = rng(3);
        let n = 20_001;
        let mut xs: Vec<f64> = (0..n).map(|_| lognormal(&mut r, 100.0, 1.0)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = xs[n / 2];
        assert!((med / 100.0 - 1.0).abs() < 0.05, "median {med}");
    }

    #[test]
    fn lognormal_zero_sigma_is_constant() {
        let mut r = rng(4);
        for _ in 0..10 {
            assert_eq!(lognormal(&mut r, 42.0, 0.0), 42.0);
        }
    }

    #[test]
    fn weighted_choice_respects_weights() {
        let mut r = rng(5);
        let choices = [(0usize, 9.0), (1usize, 1.0)];
        let n = 10_000;
        let ones = (0..n)
            .filter(|_| weighted_choice(&mut r, &choices) == 1)
            .count();
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.1).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn weighted_choice_single_item() {
        let mut r = rng(6);
        assert_eq!(weighted_choice(&mut r, &[(7, 1.0)]), 7);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weights_panic() {
        let mut r = rng(7);
        weighted_choice(&mut r, &[(1, 0.0)]);
    }

    #[test]
    fn standard_normal_mean_and_var() {
        let mut r = rng(8);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| standard_normal(&mut r)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
