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
/// the universal tie-breakers (arrival time, then job id). The engine
/// keeps the sorted keys across rounds and re-invokes the policy only
/// for jobs whose state moved (see [`update_order`]).
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
/// The engine orders the active queue ascending by `(key, arrival, id)`
/// (smaller key = higher priority), so every policy yields a
/// deterministic total order. Each executed round re-derives only the
/// keys that can have moved and merges them into last round's order;
/// nothing is cloned or allocated once the buffers have warmed up.
///
/// A key may depend only on the job it is given. Every executed round,
/// in both stepping modes, relies on this: only running jobs'
/// `remaining_work` and `attained_service` move between rounds, so a
/// waiting job's key is frozen and its cached position stays exact
/// (`update_order` re-keys only the running jobs and this round's
/// admissions, and event-driven round skipping re-checks just the
/// running jobs at each skipped boundary). Debug builds compare every
/// round's order against the full re-key and sort (`order_into`), so
/// a key that reads the clock or other jobs fails there.
pub trait SchedulingPolicy {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Primary sort key for one job (smaller = runs earlier).
    fn key(&self, job: &ActiveJob) -> f64;
}

/// The sort key of `jobs[ji]` under `scheduler`.
fn key_of(scheduler: &dyn SchedulingPolicy, jobs: &[ActiveJob], ji: usize) -> SchedKey {
    let job = &jobs[ji];
    SchedKey {
        key: scheduler.key(job),
        arrival: job.spec.arrival,
        id: job.spec.id,
        job: ji,
    }
}

/// The reference scheduling order: key every job of `queue` (indices
/// into `jobs`) and sort, highest priority first, into `keys`. Because
/// the `(key, arrival, id)` order is total and strict, the result is
/// independent of the order of `queue` itself. The engine maintains the
/// same order incrementally ([`update_order`]); debug builds assert the
/// two equal every round.
pub(crate) fn order_into(
    scheduler: &dyn SchedulingPolicy,
    jobs: &[ActiveJob],
    queue: &[usize],
    keys: &mut Vec<SchedKey>,
) {
    keys.clear();
    keys.extend(queue.iter().map(|&ji| key_of(scheduler, jobs, ji)));
    // Unstable sort allocates nothing; the unique job-id tie-breaker
    // makes the order strict, so stability cannot matter.
    keys.sort_unstable_by(SchedKey::cmp_total);
}

/// Re-derive, in place, the keys of the running entries: those whose
/// job retires work each round (`progress_per_round > 0`). Every other
/// job's state is frozen, so its cached key is already exact.
pub(crate) fn rekey_running(
    scheduler: &dyn SchedulingPolicy,
    jobs: &[ActiveJob],
    progress_per_round: &[f64],
    keys: &mut [SchedKey],
) {
    for k in keys {
        if progress_per_round[k.job] > 0.0 {
            k.key = scheduler.key(&jobs[k.job]);
        }
    }
}

/// Bring `sorted`, the order an earlier round left behind, up to date
/// with `queue`, whose entries from `first_new` on were admitted since.
/// The result equals [`order_into`] over `queue`.
///
/// Entries of finished jobs are dropped, and the running entries — the
/// only ones whose key can have moved, possibly re-keyed in place and
/// left out of order by an interrupted skip hop — are pulled into
/// `moved`, re-keyed and joined by the admissions' keys. The entries
/// left behind are a subsequence of a sorted sequence with exact keys,
/// so sorting only `moved` and merging it back reproduces the full sort
/// at O(N + M log M) for N queued and M moved jobs. When the survivors
/// and admissions do not cover `queue` (a fresh scratch over an
/// imported queue) the whole queue is keyed instead. `moved` is scratch
/// the caller reuses across rounds.
pub(crate) fn update_order(
    scheduler: &dyn SchedulingPolicy,
    jobs: &[ActiveJob],
    queue: &[usize],
    first_new: usize,
    progress_per_round: &[f64],
    sorted: &mut Vec<SchedKey>,
    moved: &mut Vec<SchedKey>,
) {
    moved.clear();
    sorted.retain(|k| {
        if !jobs[k.job].is_active() {
            return false;
        }
        let running = progress_per_round[k.job] > 0.0;
        if running {
            moved.push(*k);
        }
        !running
    });
    rekey_running(scheduler, jobs, progress_per_round, moved);
    let admitted = if sorted.len() + moved.len() == first_new {
        &queue[first_new..]
    } else {
        sorted.clear();
        moved.clear();
        queue
    };
    moved.extend(admitted.iter().map(|&ji| key_of(scheduler, jobs, ji)));
    moved.sort_unstable_by(SchedKey::cmp_total);

    // Merge from the back: the slot written next never holds a retained
    // entry that is still to be read, so no second buffer is needed.
    let mut i = sorted.len();
    sorted.extend_from_slice(moved);
    let mut out = sorted.len();
    for m in moved.iter().rev() {
        while i > 0 && sorted[i - 1].cmp_total(m) == std::cmp::Ordering::Greater {
            i -= 1;
            out -= 1;
            sorted[out] = sorted[i];
        }
        out -= 1;
        sorted[out] = *m;
    }
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
        let mut keys = Vec::new();
        super::order_into(scheduler, jobs, &queue, &mut keys);
        job_order(&keys)
    }

    /// The job indices of sorted keys, highest priority first.
    pub(crate) fn job_order(keys: &[super::SchedKey]) -> Vec<usize> {
        keys.iter().map(|k| k.job).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::test_util::job;
    use super::*;
    use crate::job_state::JobPhase;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A continuous attained-service key: every running job's key moves
    /// every round, unlike the two levels of LAS.
    struct ServiceKey {
        sign: f64,
    }

    impl SchedulingPolicy for ServiceKey {
        fn name(&self) -> &'static str {
            "SERVICE"
        }

        fn key(&self, job: &ActiveJob) -> f64 {
            self.sign * job.attained_service
        }
    }

    fn scheduler(pick: usize) -> Box<dyn SchedulingPolicy> {
        match pick {
            0 => Box::new(Fifo),
            // A low demotion threshold, so jobs cross it within a case.
            1 => Box::new(Las {
                threshold_gpu_seconds: 500.0,
            }),
            2 => Box::new(Srtf),
            3 => Box::new(Srsf),
            4 => Box::new(ServiceKey { sign: -1.0 }),
            _ => Box::new(ServiceKey { sign: 1.0 }),
        }
    }

    /// One round of service for every running job of `queue`.
    fn accrue(jobs: &mut [ActiveJob], queue: &[usize], progress: &[f64], rng: &mut StdRng) {
        for &ji in queue {
            if progress[ji] > 0.0 {
                jobs[ji].attained_service += jobs[ji].spec.gpu_demand as f64 * 100.0;
                jobs[ji].remaining_work -= rng.gen_range(1.0..50.0);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Drive `update_order` through the states the engine leaves
        /// between executed rounds — running subsets with advanced
        /// service, finishes, preemptions, admissions, a fresh scratch
        /// over a non-empty queue, and running keys re-keyed in place by
        /// an interrupted skip hop — and compare each round's order with
        /// the full re-key and sort.
        #[test]
        fn update_order_matches_full_sort(
            seed in any::<u64>(),
            pick in 0usize..6,
            rounds in 1usize..16,
        ) {
            let sched = scheduler(pick);
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 48;
            // Arrivals from a small set, so the tie-breakers decide often.
            let mut jobs: Vec<ActiveJob> = (0..n)
                .map(|i| {
                    let arrival = rng.gen_range(0..6) as f64 * 10.0;
                    job(i as u32, arrival, rng.gen_range(1..=4), rng.gen_range(2_500..10_000))
                })
                .collect();
            let mut progress = vec![0.0; n];
            let (mut queue, mut next_admit) = (Vec::new(), 0);
            let (mut sorted, mut moved, mut reference) = (Vec::new(), Vec::new(), Vec::new());
            for _ in 0..rounds {
                let first_new = queue.len();
                for _ in 0..rng.gen_range(0..6) {
                    if next_admit < n {
                        queue.push(next_admit);
                        next_admit += 1;
                    }
                }
                // A resumed run: fresh scratch, no job known to be running.
                if rng.gen_bool(0.1) {
                    sorted.clear();
                    progress.fill(0.0);
                }
                update_order(&*sched, &jobs, &queue, first_new, &progress, &mut sorted, &mut moved);
                order_into(&*sched, &jobs, &queue, &mut reference);
                prop_assert_eq!(&sorted, &reference);

                // This round's running set: jobs start, keep running or
                // are preempted (a preempted job's key stays exact).
                for &ji in &queue {
                    progress[ji] = if rng.gen_bool(0.4) { 1.0 } else { 0.0 };
                }
                accrue(&mut jobs, &queue, &progress, &mut rng);
                for &ji in &queue {
                    if progress[ji] > 0.0 && rng.gen_bool(0.15) {
                        jobs[ji].phase = JobPhase::Finished { at: 0.0 };
                    }
                }
                queue.retain(|&ji| jobs[ji].is_active());
                // A skip hop: re-key the running entries in place at each
                // boundary, accrue the committed rounds, and sometimes
                // break on the re-keyed (possibly unsorted) entries.
                for _ in 0..rng.gen_range(0..3) {
                    rekey_running(&*sched, &jobs, &progress, &mut sorted);
                    accrue(&mut jobs, &queue, &progress, &mut rng);
                }
                if rng.gen_bool(0.5) {
                    rekey_running(&*sched, &jobs, &progress, &mut sorted);
                }
            }
        }
    }
}
