//! First-In-First-Out scheduling: "a well-known greedy approach that
//! prioritizes jobs in order of arrival" (Section IV-A2).

use super::SchedulingPolicy;
use crate::job_state::ActiveJob;

/// FIFO scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fifo;

impl SchedulingPolicy for Fifo {
    fn name(&self) -> &'static str {
        "FIFO"
    }

    fn key(&self, job: &ActiveJob) -> f64 {
        job.spec.arrival
    }
}

#[cfg(test)]
mod tests {
    use super::super::order_into;
    use super::super::test_util::{job, order};
    use super::*;

    #[test]
    fn orders_by_arrival() {
        let jobs = vec![
            job(0, 30.0, 1, 10),
            job(1, 10.0, 1, 10),
            job(2, 20.0, 1, 10),
        ];
        assert_eq!(order(&Fifo, &jobs), vec![1, 2, 0]);
    }

    #[test]
    fn ties_broken_by_id() {
        let jobs = vec![job(5, 10.0, 1, 10), job(2, 10.0, 1, 10)];
        assert_eq!(order(&Fifo, &jobs), vec![1, 0]);
    }

    #[test]
    fn empty_queue() {
        assert!(order(&Fifo, &[]).is_empty());
    }

    #[test]
    fn order_into_reuses_buffers_and_matches_order() {
        // The engine's allocation-free path: order a sub-queue of the job
        // table through reused scratch, twice, against a full ordering.
        let jobs = vec![
            job(0, 30.0, 1, 10),
            job(1, 10.0, 1, 10),
            job(2, 20.0, 1, 10),
        ];
        let mut keys = Vec::new();
        let mut out = Vec::new();
        order_into(&Fifo, &jobs, &[0, 1, 2], &mut keys, &mut out);
        assert_eq!(out, order(&Fifo, &jobs));
        // Same buffers, different (partial, reordered) queue.
        order_into(&Fifo, &jobs, &[2, 0], &mut keys, &mut out);
        assert_eq!(out, vec![2, 0], "partial queue sorted by arrival");
        assert_eq!(keys.len(), 2, "scratch reflects the last call only");
    }
}
