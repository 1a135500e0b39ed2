//! Open-loop inference request workloads.
//!
//! Training traces are *closed-loop*: a job arrives once and runs to
//! completion. Inference serving is *open-loop*: requests keep arriving at
//! a rate the cluster does not control, each carrying a latency SLO.
//! This module generates such request streams — Poisson, bursty (two-state
//! MMPP), and diurnal arrival processes — with per-request work sizes and
//! deadlines, deterministic per seed.
//!
//! A [`ServingWorkload`] is a pure description (cheap to build, immutable,
//! share it via `Arc` across Campaign cells like `Trace`); the actual
//! requests come from [`ServingWorkload::stream`], an iterator that
//! generates them one at a time. The simulator materializes each
//! distinct stream once, as arrival and work columns, and shares that
//! log across the cells that serve it.

use crate::generator::lognormal;
use rand::distributions::{Distribution, Exp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Dense request identifier within one stream (arrival order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RequestId(pub u64);

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req{}", self.0)
    }
}

/// One inference request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServingRequest {
    /// Identifier (arrival order within the stream).
    pub id: RequestId,
    /// Arrival time, seconds from stream start. Strictly increasing.
    pub arrival: f64,
    /// Service demand on a median replica at batch size 1, seconds
    /// (a proxy for token count × per-token latency).
    pub work: f64,
    /// Absolute completion deadline, seconds (`arrival + slo`).
    pub deadline: f64,
}

/// The arrival process of an open-loop request stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson arrivals: i.i.d. exponential gaps.
    Poisson {
        /// Mean arrival rate, requests per second.
        rate_per_s: f64,
    },
    /// Two-state Markov-modulated Poisson process: the stream alternates
    /// between a base phase and a burst phase, dwelling an exponential
    /// time in each, with Poisson arrivals at the phase's rate.
    Bursty {
        /// Arrival rate in the base phase, requests per second.
        base_rate_per_s: f64,
        /// Arrival rate in the burst phase, requests per second.
        burst_rate_per_s: f64,
        /// Mean dwell time in each phase, seconds.
        mean_dwell_s: f64,
    },
    /// Nonhomogeneous Poisson with a sinusoidal day/night rate:
    /// `rate(t) = mean · (1 + amplitude · sin(2πt / period))`,
    /// sampled by thinning against the peak rate.
    Diurnal {
        /// Time-averaged arrival rate, requests per second.
        mean_rate_per_s: f64,
        /// Relative swing around the mean, in `[0, 1]`.
        amplitude: f64,
        /// Cycle length, seconds.
        period_s: f64,
    },
}

impl ArrivalProcess {
    /// Time-averaged arrival rate, requests per second.
    pub fn mean_rate_per_s(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_per_s } => rate_per_s,
            // Equal mean dwell in each phase ⇒ half the time at each rate.
            ArrivalProcess::Bursty {
                base_rate_per_s,
                burst_rate_per_s,
                ..
            } => 0.5 * (base_rate_per_s + burst_rate_per_s),
            // The sinusoid integrates to zero over a period.
            ArrivalProcess::Diurnal {
                mean_rate_per_s, ..
            } => mean_rate_per_s,
        }
    }

    /// Return this process with every rate scaled by `factor` (time
    /// structure — dwell times, period — unchanged).
    pub fn scaled(&self, factor: f64) -> ArrivalProcess {
        match *self {
            ArrivalProcess::Poisson { rate_per_s } => ArrivalProcess::Poisson {
                rate_per_s: rate_per_s * factor,
            },
            ArrivalProcess::Bursty {
                base_rate_per_s,
                burst_rate_per_s,
                mean_dwell_s,
            } => ArrivalProcess::Bursty {
                base_rate_per_s: base_rate_per_s * factor,
                burst_rate_per_s: burst_rate_per_s * factor,
                mean_dwell_s,
            },
            ArrivalProcess::Diurnal {
                mean_rate_per_s,
                amplitude,
                period_s,
            } => ArrivalProcess::Diurnal {
                mean_rate_per_s: mean_rate_per_s * factor,
                amplitude,
                period_s,
            },
        }
    }

    fn validate(&self) -> Result<(), String> {
        let pos = |v: f64, what: &str| {
            if v > 0.0 && v.is_finite() {
                Ok(())
            } else {
                Err(format!("{what} must be positive and finite, got {v}"))
            }
        };
        match *self {
            ArrivalProcess::Poisson { rate_per_s } => pos(rate_per_s, "Poisson rate"),
            ArrivalProcess::Bursty {
                base_rate_per_s,
                burst_rate_per_s,
                mean_dwell_s,
            } => {
                pos(base_rate_per_s, "MMPP base rate")?;
                pos(burst_rate_per_s, "MMPP burst rate")?;
                pos(mean_dwell_s, "MMPP mean dwell")
            }
            ArrivalProcess::Diurnal {
                mean_rate_per_s,
                amplitude,
                period_s,
            } => {
                pos(mean_rate_per_s, "diurnal mean rate")?;
                pos(period_s, "diurnal period")?;
                if (0.0..=1.0).contains(&amplitude) {
                    Ok(())
                } else {
                    Err(format!(
                        "diurnal amplitude must be in [0, 1], got {amplitude}"
                    ))
                }
            }
        }
    }
}

/// An open-loop serving workload: arrival process + request-size model +
/// SLO. Deterministic per seed; immutable, so sweeps should share one via
/// `Arc<ServingWorkload>` rather than cloning per cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingWorkload {
    /// Human-readable workload name (e.g. `chat-poisson-40rps`).
    pub name: String,
    /// The arrival process.
    pub arrivals: ArrivalProcess,
    /// Number of requests in the stream.
    pub num_requests: u64,
    /// Median per-request service demand at batch size 1, seconds.
    pub work_median_s: f64,
    /// Sigma of the log-normal work distribution (0 ⇒ constant work).
    pub work_sigma: f64,
    /// Latency SLO: each request's deadline is its arrival plus this.
    pub slo_s: f64,
    /// Seed for the stream's private generator.
    pub seed: u64,
}

impl ServingWorkload {
    /// Poisson workload with constant-ish request sizes — the common
    /// starting point; adjust fields or use [`ServingWorkload::at_load`]
    /// from there.
    pub fn poisson(name: impl Into<String>, rate_per_s: f64, num_requests: u64) -> Self {
        ServingWorkload {
            name: name.into(),
            arrivals: ArrivalProcess::Poisson { rate_per_s },
            num_requests,
            work_median_s: 0.05,
            work_sigma: 0.3,
            slo_s: 1.0,
            seed: 0,
        }
    }

    /// This workload with arrival rates scaled by `factor` (the load knob
    /// for load × policy sweeps). The seed and size model are unchanged.
    pub fn at_load(&self, factor: f64) -> ServingWorkload {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "load factor must be positive"
        );
        ServingWorkload {
            name: format!("{}@x{factor}", self.name),
            arrivals: self.arrivals.scaled(factor),
            ..self.clone()
        }
    }

    /// Validate parameters; generators and the simulator call this before
    /// streaming.
    pub fn validate(&self) -> Result<(), String> {
        self.arrivals.validate()?;
        if self.num_requests == 0 {
            return Err(format!("{}: zero requests", self.name));
        }
        if !(self.work_median_s > 0.0 && self.work_median_s.is_finite()) {
            return Err(format!("{}: non-positive work median", self.name));
        }
        if !(self.work_sigma >= 0.0 && self.work_sigma.is_finite()) {
            return Err(format!("{}: negative work sigma", self.name));
        }
        if !(self.slo_s > 0.0 && self.slo_s.is_finite()) {
            return Err(format!("{}: non-positive SLO", self.name));
        }
        Ok(())
    }

    /// Lazily generate the request stream, in arrival order with
    /// strictly increasing arrival times. Each call starts an identical
    /// stream (same seed ⇒ same requests, bit for bit).
    pub fn stream(&self) -> impl ExactSizeIterator<Item = ServingRequest> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let phase = match self.arrivals {
            ArrivalProcess::Bursty { mean_dwell_s, .. } => {
                // Draw the first phase boundary up front so the phase
                // clock is part of the same seeded stream.
                let end = Exp::new(1.0 / mean_dwell_s).sample(&mut rng);
                Some(MmppPhase {
                    in_burst: false,
                    end,
                })
            }
            _ => None,
        };
        RequestStream {
            arrivals: self.arrivals,
            remaining: self.num_requests,
            work_median_s: self.work_median_s,
            work_sigma: self.work_sigma,
            slo_s: self.slo_s,
            rng,
            t: 0.0,
            next_id: 0,
            phase,
        }
    }
}

#[derive(Debug, Clone)]
struct MmppPhase {
    in_burst: bool,
    end: f64,
}

/// Lazy iterator over a [`ServingWorkload`]'s requests.
#[derive(Debug, Clone)]
struct RequestStream {
    arrivals: ArrivalProcess,
    remaining: u64,
    work_median_s: f64,
    work_sigma: f64,
    slo_s: f64,
    rng: StdRng,
    t: f64,
    next_id: u64,
    phase: Option<MmppPhase>,
}

impl RequestStream {
    fn next_arrival(&mut self) -> f64 {
        match self.arrivals {
            ArrivalProcess::Poisson { rate_per_s } => {
                self.t += Exp::new(rate_per_s).sample(&mut self.rng);
                self.t
            }
            ArrivalProcess::Bursty {
                base_rate_per_s,
                burst_rate_per_s,
                mean_dwell_s,
            } => {
                let phase = self.phase.as_mut().expect("MMPP stream has a phase");
                loop {
                    let rate = if phase.in_burst {
                        burst_rate_per_s
                    } else {
                        base_rate_per_s
                    };
                    let cand = self.t + Exp::new(rate).sample(&mut self.rng);
                    if cand <= phase.end {
                        self.t = cand;
                        return self.t;
                    }
                    // Phase flips before the candidate lands. Move to the
                    // boundary and redraw — exponential gaps are
                    // memoryless, so discarding the overshoot is exact.
                    self.t = phase.end;
                    phase.in_burst = !phase.in_burst;
                    phase.end = self.t + Exp::new(1.0 / mean_dwell_s).sample(&mut self.rng);
                }
            }
            ArrivalProcess::Diurnal {
                mean_rate_per_s,
                amplitude,
                period_s,
            } => {
                // Thinning (Lewis–Shedler): propose at the peak rate,
                // accept with probability rate(t) / peak.
                let peak = mean_rate_per_s * (1.0 + amplitude);
                loop {
                    self.t += Exp::new(peak).sample(&mut self.rng);
                    let rate = mean_rate_per_s
                        * (1.0
                            + amplitude * (2.0 * std::f64::consts::PI * self.t / period_s).sin());
                    if self.rng.gen::<f64>() * peak < rate {
                        return self.t;
                    }
                }
            }
        }
    }
}

impl Iterator for RequestStream {
    type Item = ServingRequest;

    fn next(&mut self) -> Option<ServingRequest> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let arrival = self.next_arrival();
        let work = if self.work_sigma == 0.0 {
            self.work_median_s
        } else {
            lognormal(&mut self.rng, self.work_median_s, self.work_sigma)
        };
        let id = RequestId(self.next_id);
        self.next_id += 1;
        Some(ServingRequest {
            id,
            arrival,
            work,
            deadline: arrival + self.slo_s,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for RequestStream {}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ServingWorkload {
        ServingWorkload::poisson("w", 50.0, 2_000)
    }

    #[test]
    fn same_seed_same_stream() {
        let w = base();
        let a: Vec<ServingRequest> = w.stream().collect();
        let b: Vec<ServingRequest> = w.stream().collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 2_000);
    }

    #[test]
    fn different_seed_different_stream() {
        let w = base();
        let mut w2 = base();
        w2.seed = 1;
        assert_ne!(
            w.stream().next().unwrap().arrival,
            w2.stream().next().unwrap().arrival
        );
    }

    #[test]
    fn arrivals_strictly_increase_and_deadlines_offset() {
        for arrivals in [
            ArrivalProcess::Poisson { rate_per_s: 30.0 },
            ArrivalProcess::Bursty {
                base_rate_per_s: 10.0,
                burst_rate_per_s: 100.0,
                mean_dwell_s: 5.0,
            },
            ArrivalProcess::Diurnal {
                mean_rate_per_s: 30.0,
                amplitude: 0.8,
                period_s: 60.0,
            },
        ] {
            let w = ServingWorkload { arrivals, ..base() };
            let mut prev = 0.0;
            for r in w.stream() {
                assert!(r.arrival > prev, "{arrivals:?}: non-increasing arrival");
                assert!(r.work > 0.0);
                assert!((r.deadline - r.arrival - w.slo_s).abs() < 1e-12);
                prev = r.arrival;
            }
        }
    }

    #[test]
    fn poisson_rate_roughly_matches() {
        let w = ServingWorkload::poisson("w", 100.0, 50_000);
        let last = w.stream().last().unwrap();
        let rate = 50_000.0 / last.arrival;
        assert!((rate / 100.0 - 1.0).abs() < 0.05, "rate {rate}");
    }

    #[test]
    fn bursty_mean_rate_between_phase_rates() {
        let w = ServingWorkload {
            arrivals: ArrivalProcess::Bursty {
                base_rate_per_s: 10.0,
                burst_rate_per_s: 200.0,
                mean_dwell_s: 2.0,
            },
            num_requests: 100_000,
            ..base()
        };
        let last = w.stream().last().unwrap();
        let rate = 100_000.0 / last.arrival;
        assert!(rate > 15.0 && rate < 195.0, "rate {rate}");
    }

    #[test]
    fn diurnal_mean_rate_over_whole_periods() {
        let w = ServingWorkload {
            arrivals: ArrivalProcess::Diurnal {
                mean_rate_per_s: 50.0,
                amplitude: 0.9,
                period_s: 100.0,
            },
            num_requests: 100_000,
            ..base()
        };
        let last = w.stream().last().unwrap();
        // ~2000 s of stream ⇒ ~20 full periods; the mean should hold.
        let rate = 100_000.0 / last.arrival;
        assert!((rate / 50.0 - 1.0).abs() < 0.1, "rate {rate}");
    }

    #[test]
    fn at_load_scales_rates_only() {
        let w = base().at_load(2.0);
        assert_eq!(w.arrivals.mean_rate_per_s(), 100.0);
        assert_eq!(w.seed, 0);
        assert_eq!(w.num_requests, 2_000);
        let b = ServingWorkload {
            arrivals: ArrivalProcess::Bursty {
                base_rate_per_s: 10.0,
                burst_rate_per_s: 100.0,
                mean_dwell_s: 5.0,
            },
            ..base()
        }
        .at_load(0.5);
        match b.arrivals {
            ArrivalProcess::Bursty {
                base_rate_per_s,
                burst_rate_per_s,
                mean_dwell_s,
            } => {
                assert_eq!(base_rate_per_s, 5.0);
                assert_eq!(burst_rate_per_s, 50.0);
                assert_eq!(mean_dwell_s, 5.0);
            }
            other => panic!("wrong process {other:?}"),
        }
    }

    #[test]
    fn zero_sigma_gives_constant_work() {
        let w = ServingWorkload {
            work_sigma: 0.0,
            ..base()
        };
        assert!(w.stream().all(|r| r.work == w.work_median_s));
    }

    #[test]
    fn validate_rejects_bad_parameters() {
        assert!(base().validate().is_ok());
        let mut w = base();
        w.num_requests = 0;
        assert!(w.validate().is_err());
        let mut w = base();
        w.slo_s = 0.0;
        assert!(w.validate().is_err());
        let mut w = base();
        w.work_median_s = -1.0;
        assert!(w.validate().is_err());
        let mut w = base();
        w.arrivals = ArrivalProcess::Poisson { rate_per_s: 0.0 };
        assert!(w.validate().is_err());
        let mut w = base();
        w.arrivals = ArrivalProcess::Diurnal {
            mean_rate_per_s: 10.0,
            amplitude: 1.5,
            period_s: 60.0,
        };
        assert!(w.validate().is_err());
    }

    #[test]
    fn stream_is_exact_size() {
        let w = base();
        let mut s = w.stream();
        assert_eq!(s.len(), 2_000);
        s.next();
        assert_eq!(s.len(), 1_999);
    }
}
