//! Tiresias' Least Attained Service scheduling "with two-level priority
//! queuing" (Section IV-A2, after Gu et al., NSDI'19).
//!
//! Jobs whose attained GPU service is below a threshold sit in the
//! high-priority queue; once they exceed it they are demoted. Within a
//! queue, jobs are served FIFO (discretized 2D-LAS). New arrivals have zero
//! attained service, so "incoming jobs get higher priority than running
//! jobs" — the wait-time pattern the paper highlights in Figure 19(a).

use super::SchedulingPolicy;
use crate::job_state::ActiveJob;

/// Two-level LAS scheduler.
#[derive(Debug, Clone, Copy)]
pub struct Las {
    /// Demotion threshold on attained GPU service, GPU-seconds.
    pub threshold_gpu_seconds: f64,
}

impl Default for Las {
    fn default() -> Self {
        // One GPU-hour of service before demotion — in the range Tiresias
        // uses for its Philly-derived evaluation.
        Las {
            threshold_gpu_seconds: 3600.0,
        }
    }
}

impl SchedulingPolicy for Las {
    fn name(&self) -> &'static str {
        "LAS"
    }

    fn key(&self, job: &ActiveJob) -> f64 {
        // Queue index is the primary key; arrival breaks ties via the
        // trait's universal tie-breaker (FIFO within a queue).
        if job.attained_service < self.threshold_gpu_seconds {
            0.0
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::order_into;
    use super::super::test_util::{job, job_order, order};
    use super::*;

    #[test]
    fn fresh_jobs_beat_serviced_jobs() {
        let mut old = job(0, 0.0, 1, 1000);
        old.attained_service = 10_000.0;
        let fresh = job(1, 500.0, 1, 1000);
        let jobs = vec![old, fresh];
        // Despite arriving later, the fresh job is in queue 0.
        assert_eq!(order(&Las::default(), &jobs), vec![1, 0]);
    }

    #[test]
    fn within_queue_fifo() {
        let a = job(0, 10.0, 1, 10);
        let b = job(1, 5.0, 1, 10);
        assert_eq!(order(&Las::default(), &[a, b]), vec![1, 0]);
    }

    #[test]
    fn threshold_is_inclusive_boundary() {
        let las = Las {
            threshold_gpu_seconds: 100.0,
        };
        let mut at = job(0, 0.0, 1, 10);
        at.attained_service = 100.0; // exactly at threshold -> demoted
        let mut below = job(1, 50.0, 1, 10);
        below.attained_service = 99.9;
        assert_eq!(order(&las, &[at, below]), vec![1, 0]);
    }

    #[test]
    fn order_into_is_queue_order_independent() {
        // The (key, arrival, id) order is total, so the engine may feed
        // the active queue in any order and get the same schedule.
        let mut old = job(0, 0.0, 1, 1000);
        old.attained_service = 10_000.0;
        let fresh = job(1, 500.0, 1, 1000);
        let jobs = vec![old, fresh];
        let mut keys = Vec::new();
        order_into(&Las::default(), &jobs, &[0, 1], &mut keys);
        let forward = job_order(&keys);
        order_into(&Las::default(), &jobs, &[1, 0], &mut keys);
        assert_eq!(job_order(&keys), forward);
        assert_eq!(forward, vec![1, 0]);
    }
}
