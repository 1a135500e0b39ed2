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
}

#[cfg(test)]
mod tests {
    use super::super::order_into;
    use super::super::test_util::{job, job_order, order};
    use super::*;

    #[test]
    fn shortest_first() {
        let long = job(0, 0.0, 1, 1000);
        let short = job(1, 100.0, 1, 10);
        assert_eq!(order(&Srtf, &[long, short]), vec![1, 0]);
    }

    #[test]
    fn progress_changes_order() {
        let mut a = job(0, 0.0, 1, 100);
        let b = job(1, 0.0, 1, 50);
        // a has run down to 10s remaining; b still has 50s.
        a.remaining_work = 10.0;
        assert_eq!(order(&Srtf, &[a, b]), vec![0, 1]);
    }

    #[test]
    fn ties_by_arrival_then_id() {
        let a = job(3, 10.0, 1, 50);
        let b = job(1, 5.0, 1, 50);
        assert_eq!(order(&Srtf, &[a, b]), vec![1, 0]);
    }

    #[test]
    fn order_into_caches_keys_per_call() {
        // Keys are computed from the jobs at call time — mutating a job's
        // progress between calls (as the engine does every round) is
        // reflected on the next ordering.
        let mut jobs = vec![job(0, 0.0, 1, 100), job(1, 0.0, 1, 50)];
        let mut keys = Vec::new();
        order_into(&Srtf, &jobs, &[0, 1], &mut keys);
        assert_eq!(job_order(&keys), vec![1, 0]);
        jobs[0].remaining_work = 10.0;
        order_into(&Srtf, &jobs, &[0, 1], &mut keys);
        assert_eq!(job_order(&keys), vec![0, 1]);
        assert_eq!(keys[0].key, 10.0, "cached key reflects current state");
    }
}
