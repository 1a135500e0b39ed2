//! Shortest Remaining Service First — an extension beyond the paper's
//! three schedulers. SRSF weights remaining time by GPU demand (remaining
//! *service*, in GPU-seconds), the size-aware variant Tiresias \[22\]
//! identifies as the best-performing information-rich heuristic. Included
//! to show placement policies compose with additional schedulers.

use super::SchedulingPolicy;
use crate::job_state::ActiveJob;

/// Preemptive shortest-remaining-service-first scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Srsf;

impl SchedulingPolicy for Srsf {
    fn name(&self) -> &'static str {
        "SRSF"
    }

    fn key(&self, job: &ActiveJob) -> f64 {
        job.remaining_ideal_time() * job.spec.gpu_demand as f64
    }
}

#[cfg(test)]
mod tests {
    use super::super::order_into;
    use super::super::test_util::{job, job_order, order};
    use super::*;

    #[test]
    fn weights_remaining_time_by_demand() {
        // 100s x 8 GPUs = 800 GPU-s vs 300s x 1 GPU = 300 GPU-s: the
        // single-GPU job wins despite longer remaining time.
        let wide = job(0, 0.0, 8, 100);
        let narrow = job(1, 0.0, 1, 300);
        assert_eq!(order(&Srsf, &[wide, narrow]), vec![1, 0]);
    }

    #[test]
    fn equal_service_falls_back_to_arrival() {
        let a = job(0, 50.0, 2, 100); // 200 GPU-s
        let b = job(1, 10.0, 1, 200); // 200 GPU-s
        assert_eq!(order(&Srsf, &[a, b]), vec![1, 0]);
    }

    #[test]
    fn progress_lowers_key() {
        let mut a = job(0, 0.0, 4, 100); // 400 GPU-s
        let b = job(1, 0.0, 1, 150); // 150 GPU-s
        a.remaining_work = 10.0; // now 40 GPU-s
        assert_eq!(order(&Srsf, &[a, b]), vec![0, 1]);
    }

    #[test]
    fn order_into_orders_sub_queues() {
        // The engine only ever orders the *active* subset of the job
        // table; indices in the result refer to the full table.
        let jobs = vec![
            job(0, 0.0, 8, 100), // 800 GPU-s
            job(1, 0.0, 1, 300), // 300 GPU-s
            job(2, 0.0, 1, 50),  // 50 GPU-s, not in queue
        ];
        let mut keys = Vec::new();
        order_into(&Srsf, &jobs, &[0, 1], &mut keys);
        assert_eq!(
            job_order(&keys),
            vec![1, 0],
            "job 2 excluded, table indices kept"
        );
    }
}
