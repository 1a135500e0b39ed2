//! Scheduling policies: which jobs run this round (Section IV-A2).
//!
//! A scheduling policy gives each job a priority key; the simulator orders
//! the active queue by it, marks the schedulable prefix and hands that to
//! the placement policy. Job
//! *selection* is orthogonal to PAL's contribution, so these are faithful,
//! simple implementations of the three schedulers the paper attaches its
//! placement policies to: FIFO, Tiresias/LAS, and SRTF.

mod fifo;
mod las;
mod srsf;
mod srtf;

pub use fifo::Fifo;
pub use las::Las;
pub use srsf::Srsf;
pub use srtf::Srtf;

use crate::job_state::ActiveJob;
use pal_trace::JobId;

/// The cached sort key of one queued job: the policy's primary key plus
/// the universal tie-breakers (arrival time, then job id), computed once
/// per round and sorted without re-invoking the policy — the cached-key
/// sort the engine's hot loop relies on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SchedKey {
    /// Policy priority (smaller = runs earlier).
    pub(crate) key: f64,
    /// Arrival-time tie-breaker.
    pub(crate) arrival: f64,
    /// Job-id tie-breaker, making the order total and deterministic.
    pub(crate) id: JobId,
    /// Index of the job in the caller's job table.
    pub(crate) job: usize,
}

impl SchedKey {
    /// Strict total order: key, then arrival, then id. Panics on NaN keys
    /// (a policy bug) exactly like the seed engine's comparator did. The
    /// engine also uses it to re-check, at skipped round boundaries, that
    /// the cached sequence is still sorted.
    pub(crate) fn cmp_total(&self, other: &Self) -> std::cmp::Ordering {
        self.key
            .partial_cmp(&other.key)
            .expect("NaN scheduling key")
            .then(
                self.arrival
                    .partial_cmp(&other.arrival)
                    .expect("NaN arrival"),
            )
            .then(self.id.cmp(&other.id))
    }
}

/// A scheduling policy: a per-job priority key.
///
/// The engine sorts the active queue ascending by `(key, arrival, id)`
/// (smaller key = higher priority), so every policy yields a
/// deterministic total order. Keys are computed exactly once per job per
/// round into reused buffers; nothing is cloned or allocated once the
/// buffers have warmed up.
///
/// A key may depend only on the job it is given. Event-driven round
/// skipping relies on this: between decision rounds only running jobs'
/// `remaining_work` and `attained_service` move, so a waiting job's key
/// is frozen and the engine re-derives just the running jobs' keys at
/// each skipped boundary, ending the hop where the order changes.
pub trait SchedulingPolicy {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Primary sort key for one job (smaller = runs earlier).
    fn key(&self, job: &ActiveJob) -> f64;
}

/// Write the scheduling order of `queue` (indices into `jobs`) into
/// `out`, highest priority first. Each job's key is computed exactly
/// once; `keys` is scratch the caller reuses across rounds, so the sort
/// is allocation-free at steady state. Because the `(key, arrival, id)`
/// order is total and strict, the result is independent of the order of
/// `queue` itself.
pub(crate) fn order_into(
    scheduler: &dyn SchedulingPolicy,
    jobs: &[ActiveJob],
    queue: &[usize],
    keys: &mut Vec<SchedKey>,
    out: &mut Vec<usize>,
) {
    keys.clear();
    for &ji in queue {
        let job = &jobs[ji];
        keys.push(SchedKey {
            key: scheduler.key(job),
            arrival: job.spec.arrival,
            id: job.spec.id,
            job: ji,
        });
    }
    // Unstable sort allocates nothing; the unique job-id tie-breaker
    // makes the order strict, so stability cannot matter.
    keys.sort_unstable_by(SchedKey::cmp_total);
    out.clear();
    out.extend(keys.iter().map(|k| k.job));
}

#[cfg(test)]
pub(crate) mod test_util {
    use crate::job_state::ActiveJob;
    use pal_cluster::JobClass;
    use pal_gpumodel::Workload;
    use pal_trace::{JobId, JobSpec};

    /// Build a minimal active job for policy tests.
    pub(crate) fn job(id: u32, arrival: f64, demand: usize, iters: u64) -> ActiveJob {
        ActiveJob::new(JobSpec {
            id: JobId(id),
            model: Workload::ResNet50,
            class: JobClass::A,
            arrival,
            gpu_demand: demand,
            iterations: iters,
            base_iter_time: 1.0,
        })
    }

    /// Order every job in `jobs` by priority, returning indices into it.
    pub(crate) fn order(scheduler: &dyn super::SchedulingPolicy, jobs: &[ActiveJob]) -> Vec<usize> {
        let queue: Vec<usize> = (0..jobs.len()).collect();
        let (mut keys, mut out) = (Vec::new(), Vec::new());
        super::order_into(scheduler, jobs, &queue, &mut keys, &mut out);
        out
    }
}
