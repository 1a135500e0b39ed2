//! Shortest Remaining Time First: "performs preemptive shortest job first
//! scheduling" (Section IV-A2). Remaining time is the job's remaining ideal
//! runtime (the simulator's oracle knowledge of iterations left — the same
//! information the paper's simulator uses).

use super::SchedulingPolicy;
use crate::job_state::ActiveJob;

/// Preemptive SRTF scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Srtf;

impl SchedulingPolicy for Srtf {
    fn name(&self) -> &'static str {
        "SRTF"
    }

    fn key(&self, job: &ActiveJob) -> f64 {
        job.remaining_ideal_time()
    }

    fn order_stable_rounds(
        &self,
        _jobs: &[ActiveJob],
        sorted: &[super::SchedKey],
        progress_per_round: &[f64],
        _round_duration: f64,
    ) -> usize {
        // Remaining time shrinks by the job's per-round progress while it
        // runs; the order holds until an adjacent pair of keys crosses.
        super::stable_rounds_linear_keys(sorted, |ji| progress_per_round[ji])
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::job;
    use super::*;

    #[test]
    fn shortest_first() {
        let long = job(0, 0.0, 1, 1000);
        let short = job(1, 100.0, 1, 10);
        assert_eq!(Srtf.order(&[long, short]), vec![1, 0]);
    }

    #[test]
    fn progress_changes_order() {
        let mut a = job(0, 0.0, 1, 100);
        let b = job(1, 0.0, 1, 50);
        // a has run down to 10s remaining; b still has 50s.
        a.remaining_work = 10.0;
        assert_eq!(Srtf.order(&[a, b]), vec![0, 1]);
    }

    #[test]
    fn ties_by_arrival_then_id() {
        let a = job(3, 10.0, 1, 50);
        let b = job(1, 5.0, 1, 50);
        assert_eq!(Srtf.order(&[a, b]), vec![1, 0]);
    }

    #[test]
    fn order_into_caches_keys_per_call() {
        // Keys are computed from the jobs at call time — mutating a job's
        // progress between calls (as the engine does every round) is
        // reflected on the next ordering.
        let mut jobs = vec![job(0, 0.0, 1, 100), job(1, 0.0, 1, 50)];
        let (mut keys, mut out) = (Vec::new(), Vec::new());
        Srtf.order_into(&jobs, &[0, 1], &mut keys, &mut out);
        assert_eq!(out, vec![1, 0]);
        jobs[0].remaining_work = 10.0;
        Srtf.order_into(&jobs, &[0, 1], &mut keys, &mut out);
        assert_eq!(out, vec![0, 1]);
        assert_eq!(keys[0].key, 10.0, "cached key reflects current state");
    }
}
